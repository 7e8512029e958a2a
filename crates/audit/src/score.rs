//! The attribution scorer: joining decisions against ground truth.
//!
//! Labels every core the loop acted on (or should have acted on) as a
//! true positive, false positive, or false negative; measures
//! time-to-root-cause for the confirmed; audits exonerations for the
//! paper's "in our experience, the time between a test escape and its
//! eventual detection can be months" failure mode (a mercurial core the
//! deep check cleared and never re-caught is a *test escape*); and scores
//! every signal kind and watch rule for precision/recall. The whole
//! report is a pure function of (ledger, truth, rule names), so in-loop
//! and replayed audits agree exactly.

use crate::ledger::{signal_kind_name, Decision, DecisionLedger, SIGNAL_KIND_NAMES};
use crate::truth::GroundTruth;
use mercurial_metrics::nearest_rank;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Attribution label for one core the audit has an opinion about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CaseLabel {
    /// Mercurial and quarantined at least once.
    TruePositive,
    /// Healthy but quarantined — the loop defamed it.
    FalsePositive,
    /// Mercurial but never quarantined — the loop missed it.
    FalseNegative,
}

impl CaseLabel {
    /// Two-letter tag used in reports and case files.
    pub fn tag(self) -> &'static str {
        match self {
            CaseLabel::TruePositive => "TP",
            CaseLabel::FalsePositive => "FP",
            CaseLabel::FalseNegative => "FN",
        }
    }
}

/// The audited outcome for one core.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreVerdict {
    /// Packed `CoreUid`.
    pub core: u64,
    /// Attribution label.
    pub label: CaseLabel,
    /// Ground-truth lesion onset hour (mercurial cores only).
    pub onset: Option<f64>,
    /// Hour of the first signal attributed to the core.
    pub first_signal: Option<f64>,
    /// Hour of the first quarantine.
    pub quarantine_hour: Option<f64>,
    /// Hour of the first confirmation.
    pub confirm_hour: Option<f64>,
    /// Signals ingested against this core (provenance instants).
    pub signals: u64,
    /// Times the core was exonerated.
    pub exonerations: u32,
    /// A mercurial core was exonerated at least once.
    pub false_exoneration: bool,
    /// A falsely exonerated core was later confirmed anyway.
    pub reconfirmed: bool,
    /// A falsely exonerated core was *never* confirmed — the paper's
    /// test-escape failure mode.
    pub test_escape: bool,
    /// Onset → first confirmation, in hours (confirmed mercurial only).
    pub ttrc_hours: Option<f64>,
}

/// Precision/recall of one signal kind.
#[derive(Debug, Clone, PartialEq)]
pub struct KindStats {
    /// Canonical kind name.
    pub kind: String,
    /// Signals of this kind ingested fleet-wide.
    pub signals: u64,
    /// Of those, signals attributed to ground-truth mercurial cores.
    pub mercurial_signals: u64,
    /// Distinct cores this kind accused.
    pub cores_accused: u64,
    /// Distinct ground-truth mercurial cores this kind touched.
    pub mercurial_cores_hit: u64,
}

impl KindStats {
    /// Fraction of this kind's signals that pointed at a real mercurial
    /// core.
    pub fn precision(&self) -> f64 {
        if self.signals == 0 {
            0.0
        } else {
            self.mercurial_signals as f64 / self.signals as f64
        }
    }

    /// Fraction of ground-truth mercurial cores this kind ever touched.
    pub fn recall(&self, ground_truth: usize) -> f64 {
        if ground_truth == 0 {
            0.0
        } else {
            self.mercurial_cores_hit as f64 / ground_truth as f64
        }
    }
}

/// Justified-fire accounting for one watch rule.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleStats {
    /// Rule name (index-resolved from the scenario rule set; `rule-<n>`
    /// when the index is out of range, e.g. replaying against a different
    /// scenario).
    pub rule: String,
    /// Times the rule fired.
    pub fires: u32,
    /// Fires while the fleet still harbored known-active mercurial cores
    /// (per the `fleet.active_mercurial` gauge).
    pub justified: u32,
}

impl RuleStats {
    /// Fraction of fires that were justified.
    pub fn precision(&self) -> f64 {
        if self.fires == 0 {
            0.0
        } else {
            self.justified as f64 / self.fires as f64
        }
    }
}

/// The full postmortem: attribution, latency, exoneration audit, and
/// per-kind / per-rule quality.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Ledger entries audited.
    pub decisions: usize,
    /// Ground-truth mercurial cores.
    pub ground_truth: usize,
    /// Mercurial cores the loop quarantined.
    pub true_positives: usize,
    /// Healthy cores the loop quarantined.
    pub false_positives: usize,
    /// Mercurial cores the loop never quarantined.
    pub false_negatives: usize,
    /// True positives that were also confirmed.
    pub confirmed_true: usize,
    /// Onset → first-confirm latencies (one per confirmed TP).
    pub ttrc_hours: Vec<f64>,
    /// Exoneration decisions in the ledger.
    pub exonerations: usize,
    /// Mercurial cores that were falsely exonerated at least once.
    pub false_exonerations: usize,
    /// Falsely exonerated mercurial cores never confirmed afterwards.
    pub test_escapes: usize,
    /// Mitigation escalations in the ledger.
    pub escalations: usize,
    /// Per-core verdicts, in core order.
    pub verdicts: Vec<CoreVerdict>,
    /// Per-signal-kind quality, in kind-index order.
    pub kinds: Vec<KindStats>,
    /// Per-rule justified-fire accounting, in rule-name order.
    pub rules: Vec<RuleStats>,
}

/// Mutable per-core accumulator used while folding one core's entries.
#[derive(Debug, Default, Clone)]
struct CoreAcc {
    first_signal: Option<f64>,
    quarantine_hour: Option<f64>,
    confirm_hour: Option<f64>,
    first_exoneration: Option<f64>,
    signals: u64,
    exonerations: u32,
    reconfirmed: bool,
}

/// One signal kind's stats while folding, and the last core it counted:
/// cores arrive in order, so a kind accuses a new core exactly when the
/// core differs from the last one.
#[derive(Debug)]
struct KindAcc {
    stats: KindStats,
    last_core: Option<u64>,
}

impl KindAcc {
    fn new(value: f64) -> KindAcc {
        KindAcc {
            stats: KindStats {
                kind: signal_kind_name(value),
                signals: 0,
                mercurial_signals: 0,
                cores_accused: 0,
                mercurial_cores_hit: 0,
            },
            last_core: None,
        }
    }

    fn count(&mut self, core: u64, mercurial: bool) {
        self.stats.signals += 1;
        self.stats.mercurial_signals += u64::from(mercurial);
        if self.last_core != Some(core) {
            self.last_core = Some(core);
            self.stats.cores_accused += 1;
            self.stats.mercurial_cores_hit += u64::from(mercurial);
        }
    }
}

impl AuditReport {
    /// Score a ledger against ground truth. `rule_names` resolves alert
    /// rule indices (pass the scenario's expanded rule set; empty slice on
    /// bare replay).
    ///
    /// One pass in ledger order takes the fleet-level counts and lists
    /// the per-core entries as `(core, entry index)` keys; one sort of
    /// those keys groups each core's entries in ledger order, and a fold
    /// over the groups, merged with the ground-truth cores (also in core
    /// order), yields the verdicts in core order with no map.
    pub fn build(
        ledger: &DecisionLedger,
        truth: &GroundTruth,
        rule_names: &[String],
    ) -> AuditReport {
        // Table kinds by dense index; out-of-table kinds (`kind-<n>`, a
        // forward-compatibility guard) by value. A kind's name comes
        // from its first signal in ledger order.
        let mut kinds: [Option<KindAcc>; SIGNAL_KIND_NAMES.len()] = Default::default();
        let mut wide_kinds: BTreeMap<u64, KindAcc> = BTreeMap::new();
        // `(fires, justified)` by rule index, and for indices out of range.
        let mut fires = vec![(0u32, 0u32); rule_names.len()];
        let mut wide_fires: BTreeMap<usize, (u32, u32)> = BTreeMap::new();
        let mut exonerations = 0usize;
        let mut escalations = 0usize;
        let mut keys: Vec<(u64, usize)> = Vec::with_capacity(ledger.len());

        for (ix, e) in ledger.entries.iter().enumerate() {
            match e.decision {
                Decision::Signal
                | Decision::FirstSignal
                | Decision::Quarantine
                | Decision::Confirm
                | Decision::Exonerate => {
                    exonerations += usize::from(e.decision == Decision::Exonerate);
                    let Some(core) = e.core else { continue };
                    if e.decision == Decision::Signal {
                        let kind_ix = e.value as u64;
                        let new = || KindAcc::new(e.value);
                        match kinds.get_mut(kind_ix as usize) {
                            Some(slot) => slot.get_or_insert_with(new),
                            None => wide_kinds.entry(kind_ix).or_insert_with(new),
                        };
                    }
                    keys.push((core, ix));
                }
                Decision::Alert => {
                    let ix = e.value as usize;
                    let slot = match fires.get_mut(ix) {
                        Some(slot) => slot,
                        None => wide_fires.entry(ix).or_default(),
                    };
                    slot.0 += 1;
                    if ledger.active_mercurial_at(e.hour) > 0.0 {
                        slot.1 += 1;
                    }
                }
                Decision::Escalate => escalations += 1,
                _ => {}
            }
        }
        keys.sort_unstable();

        let mut report = AuditReport {
            decisions: ledger.len(),
            ground_truth: truth.count(),
            true_positives: 0,
            false_positives: 0,
            false_negatives: 0,
            confirmed_true: 0,
            ttrc_hours: Vec::new(),
            exonerations,
            false_exonerations: 0,
            test_escapes: 0,
            escalations,
            verdicts: Vec::new(),
            kinds: Vec::new(),
            rules: Vec::new(),
        };

        // Verdicts: every mercurial core, plus every quarantined healthy
        // core. Signal-only healthy cores carry no wrong decision and stay
        // out of the attribution tally.
        let mut truth_cores = truth.cores().map(|(c, _)| c).peekable();
        let empty = CoreAcc::default();
        for group in keys.chunk_by(|a, b| a.0 == b.0) {
            let core = group[0].0;
            while let Some(t) = truth_cores.next_if(|&t| t < core) {
                report.push_verdict(t, &empty, truth);
            }
            let mercurial = truth_cores.next_if_eq(&core).is_some();
            let mut acc = CoreAcc::default();
            for &(_, ix) in group {
                let e = &ledger.entries[ix];
                match e.decision {
                    Decision::Signal => {
                        acc.signals += 1;
                        acc.first_signal = Some(acc.first_signal.map_or(e.hour, |h| h.min(e.hour)));
                        let kind_ix = e.value as u64;
                        let kind = match kinds.get_mut(kind_ix as usize) {
                            Some(slot) => slot.as_mut(),
                            None => wide_kinds.get_mut(&kind_ix),
                        };
                        kind.expect("made by the first pass").count(core, mercurial);
                    }
                    Decision::FirstSignal => {
                        // Fallback when provenance instants are absent
                        // (plain traced run audited offline): at least the
                        // first signal hour is known.
                        acc.first_signal = Some(acc.first_signal.map_or(e.hour, |h| h.min(e.hour)));
                    }
                    Decision::Quarantine => {
                        acc.quarantine_hour = acc.quarantine_hour.or(Some(e.hour));
                    }
                    Decision::Confirm => {
                        acc.confirm_hour = acc.confirm_hour.or(Some(e.hour));
                        acc.reconfirmed |= acc.first_exoneration.is_some();
                    }
                    Decision::Exonerate => {
                        acc.exonerations += 1;
                        acc.first_exoneration = acc.first_exoneration.or(Some(e.hour));
                    }
                    _ => unreachable!("only per-core decisions are keyed"),
                }
            }
            if mercurial || acc.quarantine_hour.is_some() {
                report.push_verdict(core, &acc, truth);
            }
        }
        for t in truth_cores {
            report.push_verdict(t, &empty, truth);
        }

        report.kinds = kinds
            .into_iter()
            .flatten()
            .chain(wide_kinds.into_values())
            .map(|k| k.stats)
            .collect();
        let named = |ix: usize, (fires, justified): (u32, u32)| RuleStats {
            rule: rule_names
                .get(ix)
                .cloned()
                .unwrap_or_else(|| format!("rule-{ix}")),
            fires,
            justified,
        };
        let mut rules: Vec<RuleStats> = (fires.into_iter().enumerate())
            .filter(|(_, (fires, _))| *fires > 0)
            .chain(wide_fires)
            .map(|(ix, counts)| named(ix, counts))
            .collect();
        // In rule-name order, two indices of one name counted as one rule.
        rules.sort_by(|a, b| a.rule.cmp(&b.rule));
        rules.dedup_by(|later, kept| {
            let same = later.rule == kept.rule;
            if same {
                kept.fires += later.fires;
                kept.justified += later.justified;
            }
            same
        });
        report.rules = rules;
        report
    }

    /// Label one core from its folded entries and add it to the tallies;
    /// a healthy core never quarantined is left out.
    fn push_verdict(&mut self, core: u64, acc: &CoreAcc, truth: &GroundTruth) {
        let onset = truth.onset_of(core);
        let mercurial = onset.is_some();
        let label = match (mercurial, acc.quarantine_hour.is_some()) {
            (true, true) => CaseLabel::TruePositive,
            (true, false) => CaseLabel::FalseNegative,
            (false, true) => CaseLabel::FalsePositive,
            (false, false) => return,
        };
        let false_exoneration = mercurial && acc.exonerations > 0;
        let test_escape = false_exoneration && acc.confirm_hour.is_none();
        let ttrc_hours = match (label, onset, acc.confirm_hour) {
            (CaseLabel::TruePositive, Some(on), Some(confirm)) => Some(confirm - on),
            _ => None,
        };
        match label {
            CaseLabel::TruePositive => {
                self.true_positives += 1;
                if acc.confirm_hour.is_some() {
                    self.confirmed_true += 1;
                }
            }
            CaseLabel::FalsePositive => self.false_positives += 1,
            CaseLabel::FalseNegative => self.false_negatives += 1,
        }
        self.false_exonerations += usize::from(false_exoneration);
        self.test_escapes += usize::from(test_escape);
        if let Some(t) = ttrc_hours {
            self.ttrc_hours.push(t);
        }
        self.verdicts.push(CoreVerdict {
            core,
            label,
            onset,
            first_signal: acc.first_signal,
            quarantine_hour: acc.quarantine_hour,
            confirm_hour: acc.confirm_hour,
            signals: acc.signals,
            exonerations: acc.exonerations,
            false_exoneration,
            reconfirmed: acc.reconfirmed,
            test_escape,
            ttrc_hours,
        });
    }

    /// Quarantine precision: TP / (TP + FP).
    pub fn precision(&self) -> f64 {
        let denom = self.true_positives + self.false_positives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Quarantine recall: TP / (TP + FN).
    pub fn recall(&self) -> f64 {
        let denom = self.true_positives + self.false_negatives;
        if denom == 0 {
            0.0
        } else {
            self.true_positives as f64 / denom as f64
        }
    }

    /// Median time-to-root-cause, in hours.
    pub fn ttrc_p50(&self) -> Option<f64> {
        nearest_rank(0.50, &self.ttrc_hours)
    }

    /// 95th-percentile time-to-root-cause, in hours.
    pub fn ttrc_p95(&self) -> Option<f64> {
        nearest_rank(0.95, &self.ttrc_hours)
    }

    /// The conservation invariant: every ground-truth mercurial core is
    /// either caught (TP) or missed (FN), and the ledger's own
    /// ground-truth counter agrees with the onset record.
    pub fn conserves(&self, ledger: &DecisionLedger) -> bool {
        self.true_positives + self.false_negatives == self.ground_truth
            && ledger.gt_count as usize == self.ground_truth
    }

    /// Render the fleet postmortem as deterministic ASCII.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# fleet postmortem: decision audit");
        let _ = writeln!(out, "decisions ledgered ........ {}", self.decisions);
        let _ = writeln!(out, "ground-truth mercurial .... {}", self.ground_truth);
        let _ = writeln!(
            out,
            "attribution ............... TP={} FP={} FN={}  precision={:.3} recall={:.3}",
            self.true_positives,
            self.false_positives,
            self.false_negatives,
            self.precision(),
            self.recall(),
        );
        let _ = writeln!(
            out,
            "confirmed true positives .. {} of {}",
            self.confirmed_true, self.true_positives
        );
        match (self.ttrc_p50(), self.ttrc_p95()) {
            (Some(p50), Some(p95)) => {
                let _ = writeln!(
                    out,
                    "time-to-root-cause ........ p50={p50:.1}h p95={p95:.1}h (n={})",
                    self.ttrc_hours.len()
                );
            }
            _ => {
                let _ = writeln!(out, "time-to-root-cause ........ no confirmed cases");
            }
        }
        let _ = writeln!(
            out,
            "exoneration audit ......... {} exonerations, {} falsely cleared mercurial cores, {} test escapes",
            self.exonerations, self.false_exonerations, self.test_escapes
        );
        let _ = writeln!(out, "mitigation escalations .... {}", self.escalations);

        if !self.kinds.is_empty() {
            let _ = writeln!(out, "\n## signal kinds");
            let width = self
                .kinds
                .iter()
                .map(|k| k.kind.len())
                .max()
                .unwrap_or(4)
                .max(4);
            let _ = writeln!(
                out,
                "{:<width$}  {:>8}  {:>9}  {:>6}",
                "kind", "signals", "precision", "recall"
            );
            for k in &self.kinds {
                let _ = writeln!(
                    out,
                    "{:<width$}  {:>8}  {:>9.3}  {:>6.3}",
                    k.kind,
                    k.signals,
                    k.precision(),
                    k.recall(self.ground_truth),
                );
            }
        }

        if !self.rules.is_empty() {
            let _ = writeln!(out, "\n## watch rules");
            let width = self
                .rules
                .iter()
                .map(|r| r.rule.len())
                .max()
                .unwrap_or(4)
                .max(4);
            let _ = writeln!(
                out,
                "{:<width$}  {:>5}  {:>9}  {:>9}",
                "rule", "fires", "justified", "precision"
            );
            for r in &self.rules {
                let _ = writeln!(
                    out,
                    "{:<width$}  {:>5}  {:>9}  {:>9.3}",
                    r.rule,
                    r.fires,
                    r.justified,
                    r.precision(),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::LedgerEntry;

    fn entry(hour: f64, decision: Decision, core: Option<u64>, value: f64) -> LedgerEntry {
        LedgerEntry {
            hour,
            decision,
            core,
            value,
        }
    }

    /// Core 7: mercurial, caught and confirmed. Core 9: mercurial, never
    /// quarantined (FN). Core 3: healthy, quarantined then exonerated
    /// (FP). Core 11: mercurial, exonerated and never re-caught (test
    /// escape).
    fn sample() -> (DecisionLedger, GroundTruth) {
        let entries = vec![
            entry(10.0, Decision::Onset, Some(7), 0.0),
            entry(12.0, Decision::Onset, Some(9), 0.0),
            entry(14.0, Decision::Onset, Some(11), 0.0),
            entry(50.0, Decision::Signal, Some(7), 3.0),
            entry(55.0, Decision::Signal, Some(3), 1.0),
            entry(60.0, Decision::Signal, Some(7), 3.0),
            entry(61.0, Decision::Signal, Some(11), 0.0),
            entry(70.0, Decision::Quarantine, Some(7), 0.0),
            entry(75.0, Decision::Quarantine, Some(3), 0.0),
            entry(76.0, Decision::Quarantine, Some(11), 0.0),
            entry(90.0, Decision::Confirm, Some(7), 0.0),
            entry(95.0, Decision::Exonerate, Some(3), 0.0),
            entry(96.0, Decision::Exonerate, Some(11), 0.0),
            entry(100.0, Decision::Alert, None, 0.0),
            entry(400.0, Decision::Alert, None, 1.0),
            entry(120.0, Decision::Escalate, None, 2.0),
        ];
        let ledger = DecisionLedger {
            entries,
            active_mercurial: vec![(0.0, 3.0), (300.0, 0.0)],
            gt_count: 3,
        };
        let truth = GroundTruth::from_ledger(&ledger);
        (ledger, truth)
    }

    #[test]
    fn attribution_labels_and_conserves() {
        let (ledger, truth) = sample();
        let rules = vec!["rule-a".to_string(), "rule-b".to_string()];
        let report = AuditReport::build(&ledger, &truth, &rules);
        assert_eq!(report.ground_truth, 3);
        assert_eq!(report.true_positives, 2); // cores 7 and 11
        assert_eq!(report.false_positives, 1); // core 3
        assert_eq!(report.false_negatives, 1); // core 9
        assert!(report.conserves(&ledger));
        assert_eq!(report.confirmed_true, 1);
        assert_eq!(report.ttrc_hours, vec![80.0]); // 90 - 10
        assert_eq!(report.ttrc_p50(), Some(80.0));
        // Exoneration audit: cores 3 (rightly) and 11 (falsely) cleared.
        assert_eq!(report.exonerations, 2);
        assert_eq!(report.false_exonerations, 1);
        assert_eq!(report.test_escapes, 1);
        assert!((report.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((report.recall() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn kind_and_rule_stats() {
        let (ledger, truth) = sample();
        let rules = vec!["rule-a".to_string()];
        let report = AuditReport::build(&ledger, &truth, &rules);
        let mce = report
            .kinds
            .iter()
            .find(|k| k.kind == "machine-check")
            .unwrap();
        assert_eq!(mce.signals, 2);
        assert_eq!(mce.mercurial_signals, 2);
        assert_eq!(mce.cores_accused, 1);
        assert_eq!(mce.mercurial_cores_hit, 1);
        assert_eq!(mce.precision(), 1.0);
        assert!((mce.recall(3) - 1.0 / 3.0).abs() < 1e-12);
        let crash = report
            .kinds
            .iter()
            .find(|k| k.kind == "process-crash")
            .unwrap();
        assert_eq!(crash.precision(), 0.0); // only accused healthy core 3
                                            // Rule 0 resolved by name and justified (3 active mercurial at
                                            // h100); rule 1 out of range → placeholder name, fired at h400
                                            // after the gauge dropped to 0 → unjustified.
        let a = report.rules.iter().find(|r| r.rule == "rule-a").unwrap();
        assert_eq!((a.fires, a.justified), (1, 1));
        let b = report.rules.iter().find(|r| r.rule == "rule-1").unwrap();
        assert_eq!((b.fires, b.justified), (1, 0));
    }

    #[test]
    fn reconfirmation_is_tracked() {
        let entries = vec![
            entry(10.0, Decision::Onset, Some(5), 0.0),
            entry(70.0, Decision::Quarantine, Some(5), 0.0),
            entry(80.0, Decision::Exonerate, Some(5), 0.0),
            entry(200.0, Decision::Quarantine, Some(5), 0.0),
            entry(220.0, Decision::Confirm, Some(5), 0.0),
        ];
        let ledger = DecisionLedger {
            entries,
            gt_count: 1,
            ..DecisionLedger::default()
        };
        let truth = GroundTruth::from_ledger(&ledger);
        let report = AuditReport::build(&ledger, &truth, &[]);
        let v = &report.verdicts[0];
        assert_eq!(v.label, CaseLabel::TruePositive);
        assert!(v.false_exoneration);
        assert!(v.reconfirmed);
        assert!(!v.test_escape);
        assert_eq!(report.test_escapes, 0);
        assert_eq!(v.ttrc_hours, Some(210.0));
    }

    #[test]
    fn postmortem_renders_deterministically() {
        let (ledger, truth) = sample();
        let rules = vec!["rule-a".to_string(), "rule-b".to_string()];
        let report = AuditReport::build(&ledger, &truth, &rules);
        let text = report.render();
        assert!(text.contains("# fleet postmortem"));
        assert!(text.contains("TP=2 FP=1 FN=1"));
        assert!(text.contains("machine-check"));
        assert!(text.contains("rule-a"));
        assert!(text.contains("1 test escapes"));
        assert_eq!(text, report.render());
    }
}
