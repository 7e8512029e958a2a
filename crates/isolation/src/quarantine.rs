//! The quarantine state machine.
//!
//! §6: suspect cores "become grounds for quarantining those cores,
//! followed by more careful checking". The registry enforces a legal
//! transition graph and keeps an audit trail, because a fleet needs to
//! answer "why is this core out of service, since when, on what evidence"
//! long after the incident.
//!
//! ```text
//! Healthy ──suspect──► Suspect ──quarantine──► Quarantined
//!    ▲                    │                        │
//!    │                exonerate                 confirm ──► Confirmed ──retire──► Retired
//!    │                    │                        │
//!    └────────────────────┴──────exonerate─────────┘
//!               (restore returns Exonerated cores to Healthy)
//! ```

use mercurial_fault::CoreUid;
use mercurial_trace::Recorder;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Lifecycle state of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoreState {
    /// In service, no outstanding evidence.
    Healthy,
    /// Under suspicion (signals accumulated), still schedulable.
    Suspect,
    /// Removed from the schedulable pool pending deep checking.
    Quarantined,
    /// Deep checking confirmed the defect.
    Confirmed,
    /// Deep checking found nothing; eligible for restore.
    Exonerated,
    /// Permanently out of service.
    Retired,
}

/// A recorded state transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Transition {
    /// Fleet hour.
    pub hour: f64,
    /// State before.
    pub from: CoreState,
    /// State after.
    pub to: CoreState,
    /// Operator-readable reason.
    pub reason: String,
}

/// Errors from illegal transitions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantineError {
    /// The core.
    pub core: CoreUid,
    /// Its current state.
    pub current: CoreState,
    /// The attempted target state.
    pub attempted: CoreState,
}

impl std::fmt::Display for QuarantineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "core {}: illegal transition {:?} -> {:?}",
            self.core, self.current, self.attempted
        )
    }
}

impl std::error::Error for QuarantineError {}

fn legal(from: CoreState, to: CoreState) -> bool {
    use CoreState::*;
    matches!(
        (from, to),
        (Healthy, Suspect)
            | (Suspect, Quarantined)
            | (Suspect, Exonerated)
            | (Quarantined, Confirmed)
            | (Quarantined, Exonerated)
            | (Confirmed, Retired)
            | (Exonerated, Healthy)
    )
}

/// The fleet-wide quarantine registry.
#[derive(Debug, Clone, Default)]
pub struct QuarantineRegistry {
    states: HashMap<CoreUid, CoreState>,
    history: HashMap<CoreUid, Vec<Transition>>,
}

impl QuarantineRegistry {
    /// Creates an empty registry (unknown cores are Healthy).
    pub fn new() -> QuarantineRegistry {
        QuarantineRegistry::default()
    }

    /// A core's current state.
    pub fn state(&self, core: CoreUid) -> CoreState {
        self.states
            .get(&core)
            .copied()
            .unwrap_or(CoreState::Healthy)
    }

    /// Whether the scheduler may place work on the core.
    pub fn is_schedulable(&self, core: CoreUid) -> bool {
        matches!(self.state(core), CoreState::Healthy | CoreState::Suspect)
    }

    /// The `core.*` instant-event name announcing arrival in a state.
    fn event_name(to: CoreState) -> &'static str {
        match to {
            CoreState::Healthy => "core.restore",
            CoreState::Suspect => "core.suspect",
            CoreState::Quarantined => "core.quarantine",
            CoreState::Confirmed => "core.confirm",
            CoreState::Exonerated => "core.exonerate",
            CoreState::Retired => "core.retire",
        }
    }

    fn transition(
        &mut self,
        core: CoreUid,
        to: CoreState,
        hour: f64,
        reason: impl Into<String>,
        rec: &mut Recorder,
    ) -> Result<(), QuarantineError> {
        let from = self.state(core);
        if !legal(from, to) {
            return Err(QuarantineError {
                core,
                current: from,
                attempted: to,
            });
        }
        self.states.insert(core, to);
        self.history.entry(core).or_default().push(Transition {
            hour,
            from,
            to,
            reason: reason.into(),
        });
        rec.instant(hour, Self::event_name(to), Some(core.as_u64()), 0.0);
        rec.counter_add("core.transitions", 1);
        Ok(())
    }

    /// Healthy → Suspect. Records a `core.suspect` instant.
    pub fn mark_suspect(
        &mut self,
        core: CoreUid,
        hour: f64,
        reason: impl Into<String>,
        rec: &mut Recorder,
    ) -> Result<(), QuarantineError> {
        self.transition(core, CoreState::Suspect, hour, reason, rec)
    }

    /// Suspect → Quarantined (removes the core from the pool). Records a `core.quarantine` instant.
    pub fn quarantine(
        &mut self,
        core: CoreUid,
        hour: f64,
        reason: impl Into<String>,
        rec: &mut Recorder,
    ) -> Result<(), QuarantineError> {
        self.transition(core, CoreState::Quarantined, hour, reason, rec)
    }

    /// Quarantined → Confirmed (deep checking reproduced the defect). Records a `core.confirm` instant.
    pub fn confirm(
        &mut self,
        core: CoreUid,
        hour: f64,
        reason: impl Into<String>,
        rec: &mut Recorder,
    ) -> Result<(), QuarantineError> {
        self.transition(core, CoreState::Confirmed, hour, reason, rec)
    }

    /// Suspect/Quarantined → Exonerated (nothing reproduced). Records a `core.exonerate` instant.
    pub fn exonerate(
        &mut self,
        core: CoreUid,
        hour: f64,
        reason: impl Into<String>,
        rec: &mut Recorder,
    ) -> Result<(), QuarantineError> {
        self.transition(core, CoreState::Exonerated, hour, reason, rec)
    }

    /// Exonerated → Healthy (returned to the pool). Records a `core.restore` instant.
    pub fn restore(
        &mut self,
        core: CoreUid,
        hour: f64,
        reason: impl Into<String>,
        rec: &mut Recorder,
    ) -> Result<(), QuarantineError> {
        self.transition(core, CoreState::Healthy, hour, reason, rec)
    }

    /// Confirmed → Retired (permanent removal). Records a `core.retire` instant.
    pub fn retire(
        &mut self,
        core: CoreUid,
        hour: f64,
        reason: impl Into<String>,
        rec: &mut Recorder,
    ) -> Result<(), QuarantineError> {
        self.transition(core, CoreState::Retired, hour, reason, rec)
    }

    /// The audit trail of a core.
    pub fn history(&self, core: CoreUid) -> &[Transition] {
        self.history.get(&core).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All cores currently in a given state.
    pub fn in_state(&self, state: CoreState) -> Vec<CoreUid> {
        let mut v: Vec<CoreUid> = self
            .states
            .iter()
            .filter(|(_, &s)| s == state)
            .map(|(&c, _)| c)
            .collect();
        v.sort_unstable();
        v
    }

    /// Count of cores not schedulable (the capacity the fleet is losing).
    pub fn unschedulable_count(&self) -> usize {
        self.states
            .values()
            .filter(|s| !matches!(s, CoreState::Healthy | CoreState::Suspect))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn core(i: u32) -> CoreUid {
        CoreUid::new(i, 0, 0)
    }

    #[test]
    fn full_confirmation_path() {
        let mut reg = QuarantineRegistry::new();
        let rec = &mut Recorder::disabled();
        let c = core(1);
        assert_eq!(reg.state(c), CoreState::Healthy);
        assert!(reg.is_schedulable(c));
        reg.mark_suspect(c, 1.0, "concentrated reports", rec)
            .unwrap();
        assert!(
            reg.is_schedulable(c),
            "suspects keep running until quarantined"
        );
        reg.quarantine(c, 2.0, "report service verdict", rec)
            .unwrap();
        assert!(!reg.is_schedulable(c));
        reg.confirm(c, 3.0, "deep screen failed on vector-lanes", rec)
            .unwrap();
        reg.retire(c, 4.0, "RMA", rec).unwrap();
        assert_eq!(reg.state(c), CoreState::Retired);
        assert_eq!(reg.history(c).len(), 4);
        assert_eq!(reg.history(c)[0].reason, "concentrated reports");
    }

    #[test]
    fn exoneration_path_restores() {
        let mut reg = QuarantineRegistry::new();
        let rec = &mut Recorder::disabled();
        let c = core(2);
        reg.mark_suspect(c, 1.0, "crash", rec).unwrap();
        reg.quarantine(c, 2.0, "recidivism", rec).unwrap();
        reg.exonerate(c, 3.0, "nothing reproduced", rec).unwrap();
        assert!(
            !reg.is_schedulable(c),
            "exonerated cores need an explicit restore"
        );
        reg.restore(c, 4.0, "returned to pool", rec).unwrap();
        assert_eq!(reg.state(c), CoreState::Healthy);
        assert!(reg.is_schedulable(c));
    }

    #[test]
    fn suspect_can_be_exonerated_without_quarantine() {
        let mut reg = QuarantineRegistry::new();
        let rec = &mut Recorder::disabled();
        let c = core(3);
        reg.mark_suspect(c, 1.0, "one crash", rec).unwrap();
        reg.exonerate(c, 2.0, "evidence aged out", rec).unwrap();
        reg.restore(c, 3.0, "ok", rec).unwrap();
        assert_eq!(reg.state(c), CoreState::Healthy);
    }

    #[test]
    fn illegal_transitions_rejected() {
        let mut reg = QuarantineRegistry::new();
        let rec = &mut Recorder::disabled();
        let c = core(4);
        // Cannot quarantine a healthy core without suspicion first.
        let err = reg.quarantine(c, 1.0, "hasty", rec).unwrap_err();
        assert_eq!(err.current, CoreState::Healthy);
        assert_eq!(err.attempted, CoreState::Quarantined);
        // Cannot confirm without quarantine.
        reg.mark_suspect(c, 1.0, "x", rec).unwrap();
        assert!(reg.confirm(c, 2.0, "y", rec).is_err());
        // Cannot retire an unconfirmed core.
        assert!(reg.retire(c, 3.0, "z", rec).is_err());
        // Cannot re-suspect a suspect.
        assert!(reg.mark_suspect(c, 4.0, "again", rec).is_err());
    }

    #[test]
    fn retired_is_terminal() {
        let mut reg = QuarantineRegistry::new();
        let rec = &mut Recorder::disabled();
        let c = core(5);
        reg.mark_suspect(c, 1.0, "", rec).unwrap();
        reg.quarantine(c, 2.0, "", rec).unwrap();
        reg.confirm(c, 3.0, "", rec).unwrap();
        reg.retire(c, 4.0, "", rec).unwrap();
        assert!(reg.exonerate(c, 5.0, "", rec).is_err());
        assert!(reg.restore(c, 5.0, "", rec).is_err());
        assert!(reg.mark_suspect(c, 5.0, "", rec).is_err());
    }

    #[test]
    fn queries_and_counts() {
        let mut reg = QuarantineRegistry::new();
        let rec = &mut Recorder::disabled();
        for i in 0..4 {
            reg.mark_suspect(core(i), 1.0, "", rec).unwrap();
        }
        reg.quarantine(core(0), 2.0, "", rec).unwrap();
        reg.quarantine(core(1), 2.0, "", rec).unwrap();
        reg.confirm(core(1), 3.0, "", rec).unwrap();
        assert_eq!(reg.in_state(CoreState::Quarantined), vec![core(0)]);
        assert_eq!(reg.in_state(CoreState::Confirmed), vec![core(1)]);
        assert_eq!(reg.in_state(CoreState::Suspect), vec![core(2), core(3)]);
        assert_eq!(reg.unschedulable_count(), 2);
    }
}
