//! The in-loop engine steps each epoch rule over the rows it has not
//! seen. This replays the evaluator as first written — every unfired
//! rule's scoped rows rebuilt and walked from the first epoch, at every
//! epoch — and requires the same alerts, epoch by epoch.

use std::collections::BTreeMap;

use mercurial_trace::MetricSet;
use mercurial_watch::{
    Alert, Cmp, EpochField, EpochRow, Rule, RuleKind, RuleScope, RuleSet, Source, WatchEngine,
    WatchInput,
};

/// Reports' value format: whole numbers bare, the rest to 4 places.
fn fmt_v(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.4}")
    }
}

/// The evaluator as first written: a rule's scoped rows rebuilt and
/// walked from the first epoch. The firing row's hour, the value, the
/// limit and the message.
fn full_prefix_walk(
    rule: &Rule,
    rows: &[EpochRow],
    class_epochs: &BTreeMap<String, Vec<f64>>,
) -> Option<(f64, f64, f64, String)> {
    let rows: Vec<EpochRow> = match &rule.scope {
        RuleScope::FleetWide => rows.to_vec(),
        RuleScope::Class(class) => {
            let vals = class_epochs.get(class)?;
            rows.iter()
                .enumerate()
                .map(|(i, r)| EpochRow {
                    corrupt_ops: vals.get(i).copied().unwrap_or(0.0),
                    ..*r
                })
                .collect()
        }
    };
    match &rule.kind {
        RuleKind::Threshold { source, op, limit } => {
            let mut agg: Option<f64> = None;
            for row in &rows {
                let next = match (agg, source) {
                    (None, Source::EpochMax(f) | Source::EpochMin(f) | Source::EpochSum(f)) => {
                        f.of(row)
                    }
                    (Some(a), Source::EpochMax(f)) => a.max(f.of(row)),
                    (Some(a), Source::EpochMin(f)) => a.min(f.of(row)),
                    (Some(a), Source::EpochSum(f)) => a + f.of(row),
                    _ => return None,
                };
                agg = Some(next);
                if op.holds(next, *limit) {
                    let (k, o, l) = (source.key(), op.symbol(), fmt_v(*limit));
                    let msg = format!("{k} = {} {o} {l}", fmt_v(next));
                    return Some((row.hour, next, *limit, msg));
                }
            }
            None
        }
        RuleKind::Rate {
            field,
            max_drop_per_epoch: max,
        } => (1..rows.len()).find_map(|i| {
            let drop = field.of(&rows[i - 1]) - field.of(&rows[i]);
            (drop > *max).then(|| {
                let (k, d, b) = (field.key(), fmt_v(drop), fmt_v(*max));
                let msg = format!("{k} dropped {d} in one epoch (budget {b})");
                (rows[i].hour, drop, *max, msg)
            })
        }),
        RuleKind::Windowed {
            field,
            op,
            limit,
            window,
        } => {
            let mut streak = 0u32;
            for row in &rows {
                let v = field.of(row);
                if !op.holds(v, *limit) {
                    streak = 0;
                    continue;
                }
                streak += 1;
                if streak >= *window {
                    let (k, o, l) = (field.key(), op.symbol(), fmt_v(*limit));
                    let msg = format!(
                        "{k} {o} {l} for {window} consecutive epochs (latest {})",
                        fmt_v(v)
                    );
                    return Some((row.hour, v, *limit, msg));
                }
            }
            None
        }
        _ => None,
    }
}

/// Every epoch-rule kind and source at three limits, fleet-wide and
/// over three classes: one attributed every epoch, one that first
/// appears at epoch 9 and then skips every third epoch, and one never
/// attributed.
fn rules() -> RuleSet {
    use EpochField::{ActiveMercurial, Capacity, CorruptOps};
    let scopes = [
        RuleScope::FleetWide,
        RuleScope::Class("steady".into()),
        RuleScope::Class("late".into()),
        RuleScope::Class("never".into()),
    ];
    let mut kinds = Vec::new();
    for limit in [40.0, 150.0, 900.0] {
        kinds.extend(
            [
                (Cmp::Gt, Source::EpochMax(CorruptOps), limit),
                (Cmp::Ge, Source::EpochSum(CorruptOps), limit),
                (Cmp::Lt, Source::EpochMin(Capacity), 1.0 - limit / 1000.0),
                (Cmp::Le, Source::EpochMin(CorruptOps), limit),
            ]
            .map(|(op, source, limit)| RuleKind::Threshold { source, op, limit }),
        );
        for window in [1, 3] {
            kinds.push(RuleKind::Windowed {
                field: CorruptOps,
                op: Cmp::Gt,
                limit: limit / 4.0,
                window,
            });
        }
        kinds.push(RuleKind::Rate {
            field: Capacity,
            max_drop_per_epoch: limit / 20_000.0,
        });
        kinds.push(RuleKind::Rate {
            field: ActiveMercurial,
            max_drop_per_epoch: limit / 300.0,
        });
    }
    let rules = scopes
        .iter()
        .flat_map(|scope| kinds.iter().map(move |kind| (scope, kind)))
        .enumerate()
        .map(|(i, (scope, kind))| Rule {
            scope: scope.clone(),
            name: format!("r{i}"),
            kind: kind.clone(),
        })
        .collect();
    RuleSet { rules }
}

#[test]
fn engine_steps_match_the_full_prefix_walk_at_every_epoch() {
    let rules = rules();
    let mut caught_up = 0;
    for seed in 1..=6u64 {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mut next = |scale: f64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 * scale
        };
        let mut engine = WatchEngine::new(rules.clone());
        let (mut rows, mut class_epochs) = (Vec::new(), BTreeMap::new());
        let mut fired = vec![false; rules.rules.len()];
        let mut capacity = 1.0;
        for epoch in 0..40 {
            capacity -= next(0.01);
            let row = EpochRow {
                hour: 73.0 * (epoch + 1) as f64,
                capacity,
                capacity_with_safetask: capacity,
                corrupt_ops: next(100.0),
                active_mercurial: 30.0 - next(0.5) * epoch as f64,
            };
            let mut classes = vec![("steady".to_string(), next(60.0))];
            if epoch >= 9 && epoch % 3 != 0 {
                classes.push(("late".to_string(), next(80.0)));
            }
            for (name, v) in &classes {
                let series: &mut Vec<f64> = class_epochs.entry(name.clone()).or_default();
                series.resize(rows.len(), 0.0);
                series.push(*v);
            }
            rows.push(row);
            let mut expected = Vec::new();
            for (i, rule) in rules.rules.iter().enumerate() {
                if fired[i] {
                    continue;
                }
                if let Some((hour, value, limit, message)) =
                    full_prefix_walk(rule, &rows, &class_epochs)
                {
                    fired[i] = true;
                    caught_up += usize::from(hour < row.hour);
                    let rule = rule.name.clone();
                    let alert = Alert {
                        rule,
                        hour,
                        value,
                        limit,
                        message,
                    };
                    expected.push((i, alert));
                }
            }
            let got = engine.push_epoch(row, &classes);
            assert_eq!(got, expected, "seed {seed}, epoch {epoch}");
        }
        let (report, _) = engine.finish(&MetricSet::new(), None);
        let input = WatchInput {
            epochs: rows,
            class_epochs,
            ..WatchInput::default()
        };
        assert_eq!(rules.evaluate(&input, None), report, "seed {seed}");
        let fired_count = report.alerts().len();
        assert!(
            (20..rules.rules.len()).contains(&fired_count),
            "seed {seed}: {fired_count} of {} rules fired",
            rules.rules.len()
        );
    }
    // The late class's backfilled rows fired some rules at an epoch
    // before the one that brought the class in.
    assert!(caught_up > 0);
}
