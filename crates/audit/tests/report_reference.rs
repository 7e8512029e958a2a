//! `AuditReport::build` folds the ledger through one sort of `(core,
//! entry index)` keys, with per-kind stats in a fixed table and rule
//! names resolved by index. `map_report` below is the per-core map fold
//! it replaced, kept here as the reference: on seeded synthetic ledgers
//! the two reports must be equal, field for field.

use mercurial_audit::{
    signal_kind_name, AuditReport, CaseLabel, CoreVerdict, Decision, DecisionLedger, GroundTruth,
    KindStats, LedgerEntry, RuleStats,
};
use std::collections::{BTreeMap, BTreeSet};

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

/// Latest gauge sample at or before `hour`, by a scan from the start.
fn active_mercurial_at(ledger: &DecisionLedger, hour: f64) -> f64 {
    ledger
        .active_mercurial
        .iter()
        .take_while(|(h, _)| *h <= hour)
        .last()
        .map_or(0.0, |(_, v)| *v)
}

/// The reference: one map entry per core, one per kind (with a core set
/// each) and one per rule name, filled in ledger order.
fn map_report(ledger: &DecisionLedger, truth: &GroundTruth, rule_names: &[String]) -> AuditReport {
    let mut cores: BTreeMap<u64, CoreAcc> = BTreeMap::new();
    let mut kinds: BTreeMap<u64, KindStats> = BTreeMap::new();
    let mut kind_cores: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    let mut rules: BTreeMap<String, RuleStats> = BTreeMap::new();
    let mut exonerations = 0usize;
    let mut escalations = 0usize;

    for e in &ledger.entries {
        match e.decision {
            Decision::Signal => {
                let Some(core) = e.core else { continue };
                let acc = cores.entry(core).or_default();
                acc.signals += 1;
                acc.first_signal = Some(acc.first_signal.map_or(e.hour, |h| h.min(e.hour)));
                let kind_ix = e.value as u64;
                kind_cores.entry(kind_ix).or_default().insert(core);
                let stats = kinds.entry(kind_ix).or_insert_with(|| KindStats {
                    kind: signal_kind_name(e.value),
                    signals: 0,
                    mercurial_signals: 0,
                    cores_accused: 0,
                    mercurial_cores_hit: 0,
                });
                stats.signals += 1;
                if truth.is_mercurial(core) {
                    stats.mercurial_signals += 1;
                }
            }
            Decision::FirstSignal => {
                let Some(core) = e.core else { continue };
                let acc = cores.entry(core).or_default();
                acc.first_signal = Some(acc.first_signal.map_or(e.hour, |h| h.min(e.hour)));
            }
            Decision::Quarantine => {
                let Some(core) = e.core else { continue };
                let acc = cores.entry(core).or_default();
                acc.quarantine_hour = acc.quarantine_hour.or(Some(e.hour));
            }
            Decision::Confirm => {
                let Some(core) = e.core else { continue };
                let acc = cores.entry(core).or_default();
                acc.confirm_hour = acc.confirm_hour.or(Some(e.hour));
                if acc.first_exoneration.is_some() {
                    acc.reconfirmed = true;
                }
            }
            Decision::Exonerate => {
                exonerations += 1;
                let Some(core) = e.core else { continue };
                let acc = cores.entry(core).or_default();
                acc.exonerations += 1;
                acc.first_exoneration = acc.first_exoneration.or(Some(e.hour));
            }
            Decision::Alert => {
                let ix = e.value as usize;
                let name = rule_names
                    .get(ix)
                    .cloned()
                    .unwrap_or_else(|| format!("rule-{ix}"));
                let stats = rules.entry(name.clone()).or_insert(RuleStats {
                    rule: name,
                    fires: 0,
                    justified: 0,
                });
                stats.fires += 1;
                if active_mercurial_at(ledger, e.hour) > 0.0 {
                    stats.justified += 1;
                }
            }
            Decision::Escalate => escalations += 1,
            _ => {}
        }
    }
    for (kind_ix, stats) in kinds.iter_mut() {
        let accused = &kind_cores[kind_ix];
        stats.cores_accused = accused.len() as u64;
        stats.mercurial_cores_hit =
            accused.iter().filter(|c| truth.is_mercurial(**c)).count() as u64;
    }

    let mut verdict_cores: BTreeSet<u64> = truth.cores().map(|(c, _)| c).collect();
    verdict_cores.extend(
        cores
            .iter()
            .filter(|(_, acc)| acc.quarantine_hour.is_some())
            .map(|(c, _)| *c),
    );
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
        kinds: kinds.into_values().collect(),
        rules: rules.into_values().collect(),
    };
    let empty = CoreAcc::default();
    for core in verdict_cores {
        let acc = cores.get(&core).unwrap_or(&empty);
        let mercurial = truth.is_mercurial(core);
        let label = match (mercurial, acc.quarantine_hour.is_some()) {
            (true, true) => CaseLabel::TruePositive,
            (true, false) => CaseLabel::FalseNegative,
            (false, true) => CaseLabel::FalsePositive,
            (false, false) => continue,
        };
        let onset = truth.onset_of(core);
        let false_exoneration = mercurial && acc.exonerations > 0;
        let test_escape = false_exoneration && acc.confirm_hour.is_none();
        let ttrc_hours = match (label, onset, acc.confirm_hour) {
            (CaseLabel::TruePositive, Some(on), Some(confirm)) => Some(confirm - on),
            _ => None,
        };
        match label {
            CaseLabel::TruePositive => {
                report.true_positives += 1;
                if acc.confirm_hour.is_some() {
                    report.confirmed_true += 1;
                }
            }
            CaseLabel::FalsePositive => report.false_positives += 1,
            CaseLabel::FalseNegative => report.false_negatives += 1,
        }
        if false_exoneration {
            report.false_exonerations += 1;
        }
        if test_escape {
            report.test_escapes += 1;
        }
        if let Some(t) = ttrc_hours {
            report.ttrc_hours.push(t);
        }
        report.verdicts.push(CoreVerdict {
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
    report
}

/// splitmix64.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Decisions a synthetic core's life draws from, the per-core ones
/// weighted up.
const DECISIONS: [Decision; 16] = [
    Decision::Signal,
    Decision::Signal,
    Decision::Signal,
    Decision::Signal,
    Decision::FirstSignal,
    Decision::Quarantine,
    Decision::Quarantine,
    Decision::Confirm,
    Decision::Exonerate,
    Decision::Exonerate,
    Decision::Recidivist,
    Decision::Suspect,
    Decision::Restore,
    Decision::Retire,
    Decision::DeepCheck,
    Decision::Alert,
];

/// A seeded ledger on a grid of 73-hour epochs: packed core ids from
/// machines far apart, some mercurial (with a duplicate onset now and
/// then), in-table and out-of-table signal kinds, fleet-level alerts
/// and escalations, a few per-core decisions without a core, and gauge
/// samples (several to an hour at times) on the epoch grid the alerts
/// also fire on. Hour-sorted like every ledger the lab builds.
fn ledger(seed: u64) -> DecisionLedger {
    let mut rng = Rng(seed);
    let epoch = |rng: &mut Rng| 73.0 * rng.below(40) as f64;
    let cores: Vec<u64> = (0..1 + rng.below(40))
        .map(|_| rng.below(5_000) << 32 | rng.below(2) << 16 | rng.below(64))
        .collect();
    let mut entries = Vec::new();
    for &core in &cores {
        if rng.below(3) == 0 {
            for _ in 0..1 + rng.below(2) {
                entries.push(LedgerEntry {
                    hour: epoch(&mut rng) + rng.below(73) as f64,
                    decision: Decision::Onset,
                    core: Some(core),
                    value: 0.0,
                });
            }
        }
    }
    for _ in 0..rng.below(200) {
        let decision = DECISIONS[rng.below(DECISIONS.len() as u64) as usize];
        let hour = if rng.below(2) == 0 {
            epoch(&mut rng)
        } else {
            epoch(&mut rng) + rng.below(730) as f64 / 10.0
        };
        let core = cores[rng.below(cores.len() as u64) as usize];
        let (core, value) = match decision {
            Decision::Signal => {
                let kind = match rng.below(10) {
                    0 => 8 + rng.below(3) as i64, // out of the table
                    1 => -1,                      // cast to table kind 0
                    _ => rng.below(8) as i64,
                };
                let half = if rng.below(8) == 0 { 0.5 } else { 0.0 };
                (Some(core), kind as f64 + half)
            }
            Decision::Alert => (None, rng.below(6) as f64),
            _ if rng.below(25) == 0 => (None, 0.0),
            _ => (Some(core), 0.0),
        };
        entries.push(LedgerEntry {
            hour,
            decision,
            core,
            value,
        });
    }
    for _ in 0..rng.below(4) {
        entries.push(LedgerEntry {
            hour: epoch(&mut rng),
            decision: Decision::Escalate,
            core: None,
            value: rng.below(3) as f64,
        });
    }
    entries.sort_by(|a, b| a.hour.total_cmp(&b.hour));
    let mut active_mercurial: Vec<(f64, f64)> = (0..rng.below(30))
        .map(|_| (epoch(&mut rng), rng.below(3) as f64))
        .collect();
    active_mercurial.sort_by(|a, b| a.0.total_cmp(&b.0));
    let gt_count = entries
        .iter()
        .filter(|e| e.decision == Decision::Onset)
        .count() as u64;
    DecisionLedger {
        entries,
        active_mercurial,
        gt_count,
    }
}

#[test]
fn sorted_fold_reports_what_the_map_fold_reports() {
    let names = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let rule_sets = [
        names(&[]),
        names(&["rule-a", "rule-b", "rule-c"]),
        // A repeated name, and one that collides with an out-of-range
        // index's placeholder.
        names(&["dup", "dup", "rule-5", "zeta"]),
    ];
    // How often each case the fold must get right came up.
    let mut seen: BTreeMap<&str, usize> = BTreeMap::new();
    for seed in 0..400 {
        let ledger = ledger(seed);
        let truth = GroundTruth::from_ledger(&ledger);
        for rules in &rule_sets {
            let got = AuditReport::build(&ledger, &truth, rules);
            assert_eq!(got, map_report(&ledger, &truth, rules), "seed {seed}");
        }
        let report = AuditReport::build(&ledger, &truth, &rule_sets[1]);
        let mut tally = |case, hit: bool| *seen.entry(case).or_default() += usize::from(hit);
        let wide = |e: &LedgerEntry| e.decision == Decision::Signal && e.value >= 8.0;
        tally("out-of-table kind", ledger.entries.iter().any(wide));
        tally(
            "out-of-range rule",
            report.rules.iter().any(|r| r.rule == "rule-4"),
        );
        let accused = report.kinds.iter().map(|k| k.cores_accused).sum::<u64>() as usize;
        tally("signal-only healthy core", accused > report.verdicts.len());
        tally("reconfirmed", report.verdicts.iter().any(|v| v.reconfirmed));
        tally("test escape", report.test_escapes > 0);
        let first_only = ledger.entries.iter().any(|e| {
            e.decision == Decision::FirstSignal
                && !ledger
                    .entries
                    .iter()
                    .any(|s| s.decision == Decision::Signal && s.core == e.core)
        });
        tally("first-signal without provenance", first_only);
        let at_sample = ledger.entries.iter().any(|e| {
            e.decision == Decision::Alert
                && ledger.active_mercurial.iter().any(|(h, _)| *h == e.hour)
        });
        tally("alert at a sample hour", at_sample);
        tally("false negative", report.false_negatives > 0);
        tally("false positive", report.false_positives > 0);
    }
    assert_eq!(seen.len(), 9);
    for (case, n) in seen {
        assert!(n >= 20, "only {n} ledgers with: {case}");
    }
}
