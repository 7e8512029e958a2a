//! The signal taxonomy: everything the infrastructure can actually see.
//!
//! §6 lists the "automatable signals indicating the possible presence of
//! CEEs": crashes of user processes and kernels, machine-check logs, code
//! sanitizers, application-level checksum mismatches — plus human-filed
//! suspect reports from incident triage. Each carries a ground-truth
//! `caused_by_cee` flag that *scoring* code may read but detectors must
//! not: in production nobody tells you which crashes were hardware.

use mercurial_fault::{CoreUid, SymptomClass};
use serde::{Deserialize, Serialize};

/// A kind of observable signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum SignalKind {
    /// An application-level end-to-end check (checksum, invariant) caught
    /// a corruption.
    AppChecksumMismatch,
    /// A user process crashed (segfault, abort, sanitizer kill).
    ProcessCrash,
    /// The kernel crashed or oopsed.
    KernelCrash,
    /// A machine-check event was logged.
    MachineCheckEvent,
    /// A code sanitizer flagged memory corruption.
    SanitizerHit,
    /// Two replicas executing the same update logic diverged (§6: "we can
    /// exploit these dual computations to detect CEEs").
    ReplicaDivergence,
    /// A human filed a suspect-core report during incident triage.
    UserReport,
    /// A screening run (burn-in / offline / online) failed on this core.
    ScreenerFailure,
}

impl SignalKind {
    /// All kinds.
    pub const ALL: [SignalKind; 8] = [
        SignalKind::AppChecksumMismatch,
        SignalKind::ProcessCrash,
        SignalKind::KernelCrash,
        SignalKind::MachineCheckEvent,
        SignalKind::SanitizerHit,
        SignalKind::ReplicaDivergence,
        SignalKind::UserReport,
        SignalKind::ScreenerFailure,
    ];

    /// Whether this signal arrives through automated channels (Fig. 1's
    /// "automatically-reported" series) as opposed to human reports.
    pub fn is_automatic(self) -> bool {
        self != SignalKind::UserReport
    }

    /// A short stable label.
    pub fn name(self) -> &'static str {
        match self {
            SignalKind::AppChecksumMismatch => "app-checksum-mismatch",
            SignalKind::ProcessCrash => "process-crash",
            SignalKind::KernelCrash => "kernel-crash",
            SignalKind::MachineCheckEvent => "machine-check",
            SignalKind::SanitizerHit => "sanitizer-hit",
            SignalKind::ReplicaDivergence => "replica-divergence",
            SignalKind::UserReport => "user-report",
            SignalKind::ScreenerFailure => "screener-failure",
        }
    }
}

impl std::fmt::Display for SignalKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One observed signal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Signal {
    /// Fleet time, hours from window start.
    pub hour: f64,
    /// The core the signal is attributed to. Attribution is what the
    /// reporter *believed*; for noise signals it is an innocent core.
    pub core: CoreUid,
    /// What kind of signal.
    pub kind: SignalKind,
    /// Ground truth: whether a CEE actually caused this signal. Detectors
    /// must not read this; scoring does.
    pub caused_by_cee: bool,
}

/// The §2 risk class of a corruption outcome, together with whether it
/// produced a signal at all.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CorruptionOutcome {
    /// Risk class.
    pub class: SymptomClass,
    /// The signal emitted, if any.
    pub signal: Option<SignalKind>,
}

/// An append-only log of signals with query helpers.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SignalLog {
    signals: Vec<Signal>,
}

impl SignalLog {
    /// Creates an empty log.
    pub fn new() -> SignalLog {
        SignalLog::default()
    }

    /// Creates an empty log with room for `capacity` signals.
    pub fn with_capacity(capacity: usize) -> SignalLog {
        SignalLog {
            signals: Vec::with_capacity(capacity),
        }
    }

    /// Appends a signal.
    pub fn push(&mut self, signal: Signal) {
        self.signals.push(signal);
    }

    /// All signals, in emission order.
    pub fn all(&self) -> &[Signal] {
        &self.signals
    }

    /// Number of signals.
    pub fn len(&self) -> usize {
        self.signals.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.signals.is_empty()
    }

    /// Signals of one kind.
    pub fn of_kind(&self, kind: SignalKind) -> impl Iterator<Item = &Signal> {
        self.signals.iter().filter(move |s| s.kind == kind)
    }

    /// Signals inside `[from_hour, to_hour)`.
    pub fn in_window(&self, from_hour: f64, to_hour: f64) -> impl Iterator<Item = &Signal> {
        self.signals
            .iter()
            .filter(move |s| s.hour >= from_hour && s.hour < to_hour)
    }

    /// Per-core signal counts (all kinds).
    pub fn counts_by_core(&self) -> std::collections::HashMap<CoreUid, u64> {
        let mut map = std::collections::HashMap::new();
        for s in &self.signals {
            *map.entry(s.core).or_insert(0) += 1;
        }
        map
    }

    /// Moves every signal of `other` to the end of this log, preserving
    /// emission order (shard merging in the parallel simulator).
    pub fn append(&mut self, other: SignalLog) {
        let mut other = other;
        self.signals.append(&mut other.signals);
    }

    /// Keeps only the signals for which `keep` returns `true`, preserving
    /// order, and returns how many were dropped. The closed-loop driver
    /// uses this to withdraw signals attributed to cores that were already
    /// out of service when the signal would have fired.
    pub fn retain(&mut self, mut keep: impl FnMut(&Signal) -> bool) -> usize {
        let before = self.signals.len();
        self.signals.retain(|s| keep(s));
        before - self.signals.len()
    }

    /// Sorts the log by time (the simulator emits epoch batches; sort once
    /// before sequential consumption).
    pub fn sort_by_time(&mut self) {
        self.signals.sort_by(|a, b| {
            a.hour
                .partial_cmp(&b.hour)
                .expect("signal times are finite")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(hour: f64, core: u32, kind: SignalKind, cee: bool) -> Signal {
        Signal {
            hour,
            core: CoreUid::new(core, 0, 0),
            kind,
            caused_by_cee: cee,
        }
    }

    #[test]
    fn user_reports_are_not_automatic() {
        assert!(!SignalKind::UserReport.is_automatic());
        for k in SignalKind::ALL {
            if k != SignalKind::UserReport {
                assert!(k.is_automatic(), "{k}");
            }
        }
    }

    #[test]
    fn log_queries() {
        let mut log = SignalLog::new();
        log.push(sig(5.0, 1, SignalKind::ProcessCrash, true));
        log.push(sig(1.0, 1, SignalKind::UserReport, false));
        log.push(sig(3.0, 2, SignalKind::ProcessCrash, false));
        assert_eq!(log.len(), 3);
        assert_eq!(log.of_kind(SignalKind::ProcessCrash).count(), 2);
        assert_eq!(log.in_window(0.0, 4.0).count(), 2);
        let counts = log.counts_by_core();
        assert_eq!(counts[&CoreUid::new(1, 0, 0)], 2);
    }

    #[test]
    fn sort_orders_by_time() {
        let mut log = SignalLog::new();
        log.push(sig(5.0, 1, SignalKind::UserReport, true));
        log.push(sig(1.0, 2, SignalKind::UserReport, true));
        log.sort_by_time();
        assert!(log.all()[0].hour < log.all()[1].hour);
    }

    #[test]
    fn kind_names_distinct() {
        let mut names: Vec<_> = SignalKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SignalKind::ALL.len());
    }
}
