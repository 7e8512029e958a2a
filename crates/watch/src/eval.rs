//! Rule evaluation: one code path shared by the in-loop engine and the
//! offline replay, so both report identical alerts for the same run.
//!
//! Epoch-scoped rules (epoch thresholds, rates) fire at most once, at the
//! first violating epoch boundary, stamped with that boundary's hour.
//! End-of-run rules (metric thresholds, percentiles, regressions) are
//! stamped with the run's last boundary hour. Missing data is reported as
//! [`RuleStatus::NoData`], a missing baseline as
//! [`RuleStatus::NoBaseline`] — neither ever fires.

use std::collections::BTreeMap;

use crate::baseline::Baseline;
use crate::input::{EpochRow, WatchInput};
use crate::rule::{Rule, RuleKind, RuleScope, RuleSet, Source};
use mercurial_trace::MetricSet;

/// One firing: which rule, when, and the observed-vs-limit pair.
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// The firing rule's name.
    pub rule: String,
    /// Fleet hour the alert is stamped with (first violating epoch
    /// boundary, or the run's end for end-of-run rules).
    pub hour: f64,
    /// The observed value.
    pub value: f64,
    /// The limit (for regressions: the baseline value).
    pub limit: f64,
    /// Human-readable description of the violation.
    pub message: String,
}

/// The outcome of evaluating one rule.
#[derive(Debug, Clone, PartialEq)]
pub enum RuleStatus {
    /// The rule held.
    Ok,
    /// The rule fired.
    Fired(Alert),
    /// A regression rule found no baseline entry for its source.
    NoBaseline,
    /// The watched metric/column recorded no data.
    NoData,
}

/// One rule's evaluated outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleOutcome {
    /// The rule's name.
    pub rule: String,
    /// What happened.
    pub status: RuleStatus,
}

/// The full readout of a rule set over one run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WatchReport {
    /// One outcome per rule, in rule order.
    pub outcomes: Vec<RuleOutcome>,
}

impl WatchReport {
    /// The alerts that fired, in rule order.
    pub fn alerts(&self) -> Vec<&Alert> {
        self.outcomes
            .iter()
            .filter_map(|o| match &o.status {
                RuleStatus::Fired(a) => Some(a),
                _ => None,
            })
            .collect()
    }

    /// Whether any rule fired.
    pub fn any_fired(&self) -> bool {
        self.outcomes
            .iter()
            .any(|o| matches!(o.status, RuleStatus::Fired(_)))
    }

    /// Render a fixed-width status table (deterministic).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let fired = self.alerts().len();
        out.push_str(&format!(
            "watch report: {} rules, {} fired\n",
            self.outcomes.len(),
            fired
        ));
        let width = self
            .outcomes
            .iter()
            .map(|o| o.rule.len())
            .max()
            .unwrap_or(0);
        for o in &self.outcomes {
            let line = match &o.status {
                RuleStatus::Ok => "ok".to_string(),
                RuleStatus::NoBaseline => {
                    "no baseline (record one with --record-baseline)".to_string()
                }
                RuleStatus::NoData => "no data".to_string(),
                RuleStatus::Fired(a) => format!("FIRED @h{:.0}  {}", a.hour, a.message),
            };
            out.push_str(&format!("  {:<width$}  {line}\n", o.rule));
        }
        out
    }
}

/// Format a value the way reports show them: trimmed floats.
fn fmt_v(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// Rewrite a metric source for a rule's scope: class scopes resolve
/// counter/gauge/histogram names under the class's `class.<name>.`
/// prefix (epoch sources are scoped via [`scoped_rows`] instead).
fn scoped_source(source: &Source, scope: &RuleScope) -> Source {
    match (scope, source) {
        (RuleScope::FleetWide, s) => s.clone(),
        (RuleScope::Class(_), Source::Counter(n)) => Source::Counter(scope.metric_name(n)),
        (RuleScope::Class(_), Source::Gauge(n)) => Source::Gauge(scope.metric_name(n)),
        (RuleScope::Class(_), Source::Quantile { histogram, q }) => Source::Quantile {
            histogram: scope.metric_name(histogram),
            q: *q,
        },
        (RuleScope::Class(_), s) => s.clone(),
    }
}

/// An epoch-scoped rule's violation: the row it completes at, the
/// observed value, the limit and the message.
type Violation = (usize, f64, f64, String);

/// One epoch-scoped rule's walk over its scope's epoch rows, one row at
/// a time: how many rows it has stepped and the running state of its
/// condition over them. The offline evaluator walks a whole series at
/// once and the in-loop engine one row an epoch, so both make the same
/// decision at the same row.
#[derive(Debug, Clone, Default)]
struct EpochWalk {
    /// Rows of the scope stepped so far.
    stepped: usize,
    /// Threshold: the aggregate over the rows stepped. Rate: the last
    /// stepped row's value.
    carry: Option<f64>,
    /// Windowed: consecutive violating rows ending at the last one.
    streak: u32,
}

impl EpochWalk {
    /// Steps `rule` over the rows of its scope not stepped yet and
    /// returns the first violation among them. A class scope sees the
    /// fleet rows with `corrupt_ops` replaced by the class's per-epoch
    /// attribution (0 for an epoch the class recorded nothing). `None`
    /// when the class has recorded no data at all; the walk then stays
    /// where it is, and steps the class's zero-backfilled rows once the
    /// class first appears.
    fn advance(
        &mut self,
        rule: &Rule,
        rows: &[EpochRow],
        class_epochs: &BTreeMap<String, Vec<f64>>,
    ) -> Option<Option<Violation>> {
        let class = match &rule.scope {
            RuleScope::FleetWide => None,
            RuleScope::Class(name) => Some(class_epochs.get(name)?),
        };
        while let Some(row) = rows.get(self.stepped) {
            let i = self.stepped;
            self.stepped += 1;
            let row = match class {
                None => *row,
                Some(vals) => EpochRow {
                    corrupt_ops: vals.get(i).copied().unwrap_or(0.0),
                    ..*row
                },
            };
            if let Some((value, limit, message)) = self.step(rule, &row) {
                return Some(Some((i, value, limit, message)));
            }
        }
        Some(None)
    }

    /// Steps one row: the violation the rule's condition reaches there,
    /// over the rows stepped so far, if any.
    fn step(&mut self, rule: &Rule, row: &EpochRow) -> Option<(f64, f64, String)> {
        match &rule.kind {
            RuleKind::Threshold { source, op, limit } => {
                // Running aggregate: the first row where the aggregate
                // over the rows so far violates is the firing epoch.
                let v = match source {
                    Source::EpochMax(f) | Source::EpochMin(f) | Source::EpochSum(f) => f.of(row),
                    _ => return None,
                };
                let next = match (self.carry, source) {
                    (None, _) => v,
                    (Some(a), Source::EpochMax(_)) => a.max(v),
                    (Some(a), Source::EpochMin(_)) => a.min(v),
                    (Some(a), _) => a + v,
                };
                self.carry = Some(next);
                op.holds(next, *limit).then(|| {
                    let msg = format!(
                        "{} = {} {} {}",
                        source.key(),
                        fmt_v(next),
                        op.symbol(),
                        fmt_v(*limit)
                    );
                    (next, *limit, msg)
                })
            }
            RuleKind::Rate {
                field,
                max_drop_per_epoch,
            } => {
                let v = field.of(row);
                let drop = self.carry.replace(v)? - v;
                (drop > *max_drop_per_epoch).then(|| {
                    let msg = format!(
                        "{} dropped {} in one epoch (budget {})",
                        field.key(),
                        fmt_v(drop),
                        fmt_v(*max_drop_per_epoch)
                    );
                    (drop, *max_drop_per_epoch, msg)
                })
            }
            RuleKind::Windowed {
                field,
                op,
                limit,
                window,
            } => {
                // Consecutive-violation streak; the row completing the
                // streak is the firing epoch.
                let v = field.of(row);
                if !op.holds(v, *limit) {
                    self.streak = 0;
                    return None;
                }
                self.streak += 1;
                (self.streak >= *window).then(|| {
                    let msg = format!(
                        "{} {} {} for {} consecutive epochs (latest {})",
                        field.key(),
                        op.symbol(),
                        fmt_v(*limit),
                        window,
                        fmt_v(v)
                    );
                    (v, *limit, msg)
                })
            }
            _ => None,
        }
    }
}

/// Evaluate one end-of-run rule against the input snapshot.
fn eval_end_of_run(rule: &Rule, input: &WatchInput, baseline: Option<&Baseline>) -> RuleStatus {
    let hour = input.end_hour();
    match &rule.kind {
        RuleKind::Threshold { source, op, limit } => {
            let source = scoped_source(source, &rule.scope);
            match input.source_value(&source) {
                None => RuleStatus::NoData,
                Some(value) if op.holds(value, *limit) => RuleStatus::Fired(Alert {
                    rule: rule.name.clone(),
                    hour,
                    value,
                    limit: *limit,
                    message: format!(
                        "{} = {} {} {}",
                        source.key(),
                        fmt_v(value),
                        op.symbol(),
                        fmt_v(*limit)
                    ),
                }),
                Some(_) => RuleStatus::Ok,
            }
        }
        RuleKind::Percentile {
            histogram,
            q,
            op,
            limit,
        } => {
            let source = scoped_source(
                &Source::Quantile {
                    histogram: histogram.clone(),
                    q: *q,
                },
                &rule.scope,
            );
            match input.source_value(&source) {
                None => RuleStatus::NoData,
                Some(value) if op.holds(value, *limit) => RuleStatus::Fired(Alert {
                    rule: rule.name.clone(),
                    hour,
                    value,
                    limit: *limit,
                    message: format!(
                        "{} = {} {} {}",
                        source.key(),
                        fmt_v(value),
                        op.symbol(),
                        fmt_v(*limit)
                    ),
                }),
                Some(_) => RuleStatus::Ok,
            }
        }
        RuleKind::Regression {
            source,
            tolerance_frac,
        } => {
            let source = scoped_source(source, &rule.scope);
            let Some(value) = input.source_value(&source) else {
                return RuleStatus::NoData;
            };
            let Some(base) = baseline.and_then(|b| b.get(&source.key())) else {
                return RuleStatus::NoBaseline;
            };
            let band = tolerance_frac * base.abs();
            if (value - base).abs() > band {
                RuleStatus::Fired(Alert {
                    rule: rule.name.clone(),
                    hour,
                    value,
                    limit: base,
                    message: format!(
                        "{} = {} vs baseline {} (±{})",
                        source.key(),
                        fmt_v(value),
                        fmt_v(base),
                        fmt_v(band)
                    ),
                })
            } else {
                RuleStatus::Ok
            }
        }
        // Epoch-scoped kinds are handled by `first_violation`.
        RuleKind::Rate { .. } | RuleKind::Windowed { .. } => RuleStatus::Ok,
    }
}

impl RuleSet {
    /// Evaluate every rule against a finished input snapshot. This is the
    /// single evaluator: the in-loop [`WatchEngine`] produces the exact
    /// same report for the same run.
    pub fn evaluate(&self, input: &WatchInput, baseline: Option<&Baseline>) -> WatchReport {
        let outcomes = self
            .rules
            .iter()
            .map(|rule| {
                let status = if rule.is_epoch_scoped() {
                    let walk =
                        EpochWalk::default().advance(rule, &input.epochs, &input.class_epochs);
                    match walk {
                        None => RuleStatus::NoData,
                        Some(Some((idx, value, limit, message))) => RuleStatus::Fired(Alert {
                            rule: rule.name.clone(),
                            hour: input.epochs[idx].hour,
                            value,
                            limit,
                            message,
                        }),
                        Some(None) if input.epochs.is_empty() => RuleStatus::NoData,
                        Some(None) => RuleStatus::Ok,
                    }
                } else {
                    eval_end_of_run(rule, input, baseline)
                };
                RuleOutcome {
                    rule: rule.name.clone(),
                    status,
                }
            })
            .collect();
        WatchReport { outcomes }
    }
}

/// The in-loop evaluator the closed-loop driver drives: epoch-scoped
/// rules are checked at every [`WatchEngine::push_epoch`] so alerts can
/// be stamped into the trace as they happen; [`WatchEngine::finish`]
/// evaluates the end-of-run rules and assembles the final report.
pub struct WatchEngine {
    rules: RuleSet,
    rows: Vec<EpochRow>,
    /// Per-class per-epoch corrupt-ops, fed alongside the fleet rows by
    /// drivers with class attribution on; class-scoped rules read these.
    class_rows: BTreeMap<String, Vec<f64>>,
    /// Per-rule walk over the epoch rows: each epoch steps a rule over
    /// its new rows only, so evaluation is linear in the epoch count.
    walks: Vec<EpochWalk>,
    /// Per-rule fired flag (epoch-scoped rules fire at most once).
    fired: Vec<bool>,
}

impl WatchEngine {
    /// New engine over a rule set.
    pub fn new(rules: RuleSet) -> WatchEngine {
        let n = rules.rules.len();
        WatchEngine {
            rules,
            rows: Vec::new(),
            class_rows: BTreeMap::new(),
            walks: vec![EpochWalk::default(); n],
            fired: vec![false; n],
        }
    }

    /// The rule set this engine evaluates.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Feed the epoch that just completed with its per-class corrupt-ops
    /// attribution (empty when classes are off) — what class-scoped rules
    /// evaluate against. Classes absent from earlier epochs are
    /// backfilled with zeros so every class series stays aligned with the
    /// fleet rows. Returns the **newly** fired epoch-scoped alerts with
    /// their rule indices (for `alert.fired` trace instants), in rule
    /// order.
    pub fn push_epoch(&mut self, row: EpochRow, classes: &[(String, f64)]) -> Vec<(usize, Alert)> {
        for (name, v) in classes {
            let series = self.class_rows.entry(name.clone()).or_default();
            while series.len() < self.rows.len() {
                series.push(0.0);
            }
            series.push(*v);
        }
        self.rows.push(row);
        let mut fresh = Vec::new();
        for (i, rule) in self.rules.rules.iter().enumerate() {
            if self.fired[i] || !rule.is_epoch_scoped() {
                continue;
            }
            // Usually one new row; a class first seen this epoch steps
            // its backfilled rows too, and may fire at an earlier row's
            // hour, as a walk over the whole series would.
            let walk = self.walks[i].advance(rule, &self.rows, &self.class_rows);
            if let Some(Some((idx, value, limit, message))) = walk {
                self.fired[i] = true;
                fresh.push((
                    i,
                    Alert {
                        rule: rule.name.clone(),
                        hour: self.rows[idx].hour,
                        value,
                        limit,
                        message,
                    },
                ));
            }
        }
        fresh
    }

    /// Finish the run: evaluate end-of-run rules against the final metric
    /// set and return the full report plus the alerts that fired **at**
    /// the end (epoch-scoped firings were already returned by
    /// `push_epoch`), with rule indices for trace instants.
    pub fn finish(
        self,
        metrics: &MetricSet,
        baseline: Option<&Baseline>,
    ) -> (WatchReport, Vec<(usize, Alert)>) {
        let mut input = WatchInput::from_metrics(metrics);
        input.epochs = self.rows;
        input.class_epochs = self.class_rows;
        let report = self.rules.evaluate(&input, baseline);
        let end_alerts = report
            .outcomes
            .iter()
            .enumerate()
            .filter_map(
                |(i, o)| match (&o.status, self.rules.rules[i].is_epoch_scoped()) {
                    (RuleStatus::Fired(a), false) => Some((i, a.clone())),
                    _ => None,
                },
            )
            .collect();
        (report, end_alerts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Cmp, EpochField, Source};

    fn row(hour: f64, capacity: f64, corrupt_ops: f64) -> EpochRow {
        EpochRow {
            hour,
            capacity,
            capacity_with_safetask: capacity,
            corrupt_ops,
            active_mercurial: 1.0,
        }
    }

    fn input_with(epochs: Vec<EpochRow>) -> WatchInput {
        WatchInput {
            epochs,
            ..WatchInput::default()
        }
    }

    fn ops_threshold(limit: f64) -> RuleSet {
        RuleSet {
            rules: vec![Rule {
                scope: Default::default(),
                name: "ops".into(),
                kind: RuleKind::Threshold {
                    source: Source::EpochMax(EpochField::CorruptOps),
                    op: Cmp::Gt,
                    limit,
                },
            }],
        }
    }

    #[test]
    fn threshold_fires_at_first_violating_epoch() {
        let input = input_with(vec![
            row(73.0, 1.0, 5.0),
            row(146.0, 1.0, 50.0),
            row(219.0, 1.0, 60.0),
        ]);
        let report = ops_threshold(10.0).evaluate(&input, None);
        let alerts = report.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].hour, 146.0);
        assert_eq!(alerts[0].value, 50.0);
        assert!(report.any_fired());
    }

    #[test]
    fn engine_matches_offline_evaluation() {
        let rules = ops_threshold(10.0);
        let rows = vec![
            row(73.0, 1.0, 5.0),
            row(146.0, 1.0, 50.0),
            row(219.0, 1.0, 60.0),
        ];

        let mut engine = WatchEngine::new(rules.clone());
        let mut live_alerts = Vec::new();
        for r in &rows {
            live_alerts.extend(engine.push_epoch(*r, &[]));
        }
        let metrics = MetricSet::new();
        let (live_report, end_alerts) = engine.finish(&metrics, None);
        assert!(end_alerts.is_empty());
        assert_eq!(live_alerts.len(), 1);
        assert_eq!(live_alerts[0].0, 0);
        assert_eq!(live_alerts[0].1.hour, 146.0);

        let input = input_with(rows);
        assert_eq!(rules.evaluate(&input, None), live_report);
    }

    #[test]
    fn rate_rule_fires_on_fast_drop_only() {
        let rules = RuleSet {
            rules: vec![Rule {
                scope: Default::default(),
                name: "cap-drop".into(),
                kind: RuleKind::Rate {
                    field: EpochField::Capacity,
                    max_drop_per_epoch: 0.05,
                },
            }],
        };
        let slow = input_with(vec![
            row(73.0, 1.0, 0.0),
            row(146.0, 0.97, 0.0),
            row(219.0, 0.95, 0.0),
        ]);
        assert!(!rules.evaluate(&slow, None).any_fired());

        let fast = input_with(vec![row(73.0, 1.0, 0.0), row(146.0, 0.90, 0.0)]);
        let report = rules.evaluate(&fast, None);
        let alerts = report.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].hour, 146.0);
    }

    fn windowed(limit: f64, window: u32) -> RuleSet {
        RuleSet {
            rules: vec![Rule {
                scope: Default::default(),
                name: "sustained".into(),
                kind: RuleKind::Windowed {
                    field: EpochField::CorruptOps,
                    op: Cmp::Gt,
                    limit,
                    window,
                },
            }],
        }
    }

    #[test]
    fn windowed_needs_consecutive_violations() {
        // Violation, relief, violation, violation, violation: a window of
        // 3 must ignore the broken streak and fire at the fifth row.
        let rows = vec![
            row(73.0, 1.0, 50.0),
            row(146.0, 1.0, 5.0),
            row(219.0, 1.0, 50.0),
            row(292.0, 1.0, 60.0),
            row(365.0, 1.0, 70.0),
        ];
        let report = windowed(10.0, 3).evaluate(&input_with(rows.clone()), None);
        let alerts = report.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].hour, 365.0);
        assert_eq!(alerts[0].value, 70.0);
        assert!(alerts[0].message.contains("3 consecutive epochs"));

        // A window of 4 never completes on this series.
        assert!(!windowed(10.0, 4)
            .evaluate(&input_with(rows), None)
            .any_fired());
    }

    #[test]
    fn windowed_of_one_degrades_to_plain_threshold() {
        let rows = vec![row(73.0, 1.0, 5.0), row(146.0, 1.0, 50.0)];
        let report = windowed(10.0, 1).evaluate(&input_with(rows), None);
        let alerts = report.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].hour, 146.0);
    }

    #[test]
    fn windowed_engine_matches_offline_evaluation() {
        let rules = windowed(10.0, 2);
        let rows = vec![
            row(73.0, 1.0, 50.0),
            row(146.0, 1.0, 5.0),
            row(219.0, 1.0, 50.0),
            row(292.0, 1.0, 60.0),
            row(365.0, 1.0, 70.0),
        ];
        let mut engine = WatchEngine::new(rules.clone());
        let mut live = Vec::new();
        for r in &rows {
            live.extend(engine.push_epoch(*r, &[]));
        }
        let (live_report, end_alerts) = engine.finish(&MetricSet::new(), None);
        assert!(end_alerts.is_empty());
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].1.hour, 292.0);
        assert_eq!(rules.evaluate(&input_with(rows), None), live_report);
    }

    #[test]
    fn empty_series_reports_no_data_and_never_fires() {
        let input = WatchInput::default();
        let report = ops_threshold(0.0).evaluate(&input, None);
        assert!(!report.any_fired());
        assert_eq!(report.outcomes[0].status, RuleStatus::NoData);
    }

    #[test]
    fn single_epoch_series_evaluates() {
        let input = input_with(vec![row(73.0, 1.0, 42.0)]);
        // Threshold sees the one row...
        assert!(ops_threshold(10.0).evaluate(&input, None).any_fired());
        assert!(!ops_threshold(100.0).evaluate(&input, None).any_fired());
        // ...and a rate rule needs two rows, so it holds (Ok, not NoData —
        // there was a series, just no deltas).
        let rate = RuleSet {
            rules: vec![Rule {
                scope: Default::default(),
                name: "r".into(),
                kind: RuleKind::Rate {
                    field: EpochField::Capacity,
                    max_drop_per_epoch: 0.0,
                },
            }],
        };
        let report = rate.evaluate(&input, None);
        assert_eq!(report.outcomes[0].status, RuleStatus::Ok);
    }

    #[test]
    fn percentile_rule_no_data_without_histogram() {
        let rules = RuleSet {
            rules: vec![Rule {
                scope: Default::default(),
                name: "lat".into(),
                kind: RuleKind::Percentile {
                    histogram: "detect.latency_hours".into(),
                    q: 0.95,
                    op: Cmp::Ge,
                    limit: 100.0,
                },
            }],
        };
        let report = rules.evaluate(&WatchInput::default(), None);
        assert_eq!(report.outcomes[0].status, RuleStatus::NoData);
        assert!(!report.any_fired());
    }

    #[test]
    fn regression_without_baseline_reports_no_baseline() {
        let rules = RuleSet {
            rules: vec![Rule {
                scope: Default::default(),
                name: "reg".into(),
                kind: RuleKind::Regression {
                    source: Source::Counter("sim.corruptions".into()),
                    tolerance_frac: 0.25,
                },
            }],
        };
        let mut input = WatchInput::default();
        input.counters.insert("sim.corruptions".into(), 100.0);
        let report = rules.evaluate(&input, None);
        assert_eq!(report.outcomes[0].status, RuleStatus::NoBaseline);
        assert!(!report.any_fired());
        assert!(report.render().contains("no baseline"));
    }

    #[test]
    fn class_scoped_threshold_reads_the_class_series() {
        let mut input = input_with(vec![
            row(73.0, 1.0, 100.0),
            row(146.0, 1.0, 100.0),
            row(219.0, 1.0, 100.0),
        ]);
        input
            .class_epochs
            .insert("database".into(), vec![1.0, 50.0, 2.0]);
        let mut rules = ops_threshold(10.0);
        rules.rules[0].scope = RuleScope::Class("database".into());
        let report = rules.evaluate(&input, None);
        let alerts = report.alerts();
        // Fleet corrupt-ops are over the limit every epoch, but the class
        // series only crosses at the second row.
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].hour, 146.0);
        assert_eq!(alerts[0].value, 50.0);

        // A scope naming an unattributed class is no data, never fired.
        let mut rules = ops_threshold(10.0);
        rules.rules[0].scope = RuleScope::Class("nope".into());
        let report = rules.evaluate(&input, None);
        assert_eq!(report.outcomes[0].status, RuleStatus::NoData);
    }

    #[test]
    fn class_scoped_engine_matches_offline_evaluation() {
        let mut rules = windowed(10.0, 2);
        rules.rules[0].scope = RuleScope::Class("db".into());
        let rows = vec![
            row(73.0, 1.0, 0.0),
            row(146.0, 1.0, 0.0),
            row(219.0, 1.0, 0.0),
        ];
        let class_vals = [5.0, 50.0, 60.0];
        let mut engine = WatchEngine::new(rules.clone());
        let mut live = Vec::new();
        for (r, v) in rows.iter().zip(class_vals) {
            live.extend(engine.push_epoch(*r, &[("db".to_string(), v)]));
        }
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].1.hour, 219.0);
        let (live_report, end_alerts) = engine.finish(&MetricSet::new(), None);
        assert!(end_alerts.is_empty());

        let mut input = input_with(rows);
        input.class_epochs.insert("db".into(), class_vals.to_vec());
        assert_eq!(rules.evaluate(&input, None), live_report);
    }

    #[test]
    fn class_scoped_counter_resolves_under_the_class_prefix() {
        let rules = RuleSet {
            rules: vec![Rule {
                scope: RuleScope::Class("db".into()),
                name: "db-total".into(),
                kind: RuleKind::Threshold {
                    source: Source::Counter("corrupt_ops_total".into()),
                    op: Cmp::Gt,
                    limit: 10.0,
                },
            }],
        };
        let mut input = WatchInput::default();
        // The fleet-wide name alone is not the class's metric.
        input.counters.insert("corrupt_ops_total".into(), 100.0);
        let report = rules.evaluate(&input, None);
        assert_eq!(report.outcomes[0].status, RuleStatus::NoData);
        input
            .counters
            .insert("class.db.corrupt_ops_total".into(), 42.0);
        let report = rules.evaluate(&input, None);
        let alerts = report.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].value, 42.0);
        assert!(alerts[0].message.contains("class.db.corrupt_ops_total"));
    }

    #[test]
    fn report_renders_fired_and_ok_lines() {
        let input = input_with(vec![row(73.0, 1.0, 50.0)]);
        let report = ops_threshold(10.0).evaluate(&input, None);
        let rendered = report.render();
        assert!(rendered.contains("1 rules, 1 fired"));
        assert!(rendered.contains("FIRED @h73"));
        assert!(rendered.contains("epoch_max:corrupt_ops = 50 > 10"));
    }
}
