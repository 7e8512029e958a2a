//! Alert-fidelity scoring: what impairment did to the watch readout.
//!
//! The unimpaired run's [`WatchReport`] is ground truth; the impaired
//! run's report is the measurement. A rule that fired in the baseline but
//! not under impairment is **missed** (the worst failure — the paper's
//! whole premise is that silent corruption is the expensive kind), fired
//! in both but later is **late**, fired only under impairment is
//! **spurious**.

use mercurial_watch::{RuleStatus, WatchReport};
use serde::{Deserialize, Serialize};

/// The comparison of an impaired watch readout against the clean one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AlertFidelity {
    /// Rules that fired cleanly and under impairment at the same hour.
    pub matched: u32,
    /// Rules that fired cleanly but not under impairment.
    pub missed: u32,
    /// Rules that fired in both, but later under impairment.
    pub late: u32,
    /// Rules that fired only under impairment.
    pub spurious: u32,
    /// Total lateness across late alerts, in fleet hours.
    pub lateness_hours: f64,
}

impl AlertFidelity {
    /// A single degradation score for monotonicity checks: every failure
    /// mode counts, misses heaviest.
    pub fn degradation(&self) -> f64 {
        3.0 * self.missed as f64 + self.late as f64 + self.spurious as f64
    }
}

/// Score an impaired report against the clean baseline report. Rules are
/// matched by name; both reports normally come from the same rule set,
/// but a rule present in only one side counts as spurious/missed
/// accordingly.
pub fn alert_fidelity(clean: &WatchReport, impaired: &WatchReport) -> AlertFidelity {
    let fired_hour = |report: &WatchReport, rule: &str| -> Option<f64> {
        report.outcomes.iter().find_map(|o| match &o.status {
            RuleStatus::Fired(a) if o.rule == rule => Some(a.hour),
            _ => None,
        })
    };
    let mut f = AlertFidelity::default();
    for o in &clean.outcomes {
        let RuleStatus::Fired(base) = &o.status else {
            continue;
        };
        match fired_hour(impaired, &o.rule) {
            None => f.missed += 1,
            Some(h) if h > base.hour => {
                f.late += 1;
                f.lateness_hours += h - base.hour;
            }
            Some(_) => f.matched += 1,
        }
    }
    for o in &impaired.outcomes {
        if matches!(o.status, RuleStatus::Fired(_)) && fired_hour(clean, &o.rule).is_none() {
            f.spurious += 1;
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;
    use mercurial_watch::{Alert, RuleOutcome};

    fn fired(rule: &str, hour: f64) -> RuleOutcome {
        RuleOutcome {
            rule: rule.to_string(),
            status: RuleStatus::Fired(Alert {
                rule: rule.to_string(),
                hour,
                value: 1.0,
                limit: 0.0,
                message: String::new(),
            }),
        }
    }

    fn ok(rule: &str) -> RuleOutcome {
        RuleOutcome {
            rule: rule.to_string(),
            status: RuleStatus::Ok,
        }
    }

    #[test]
    fn fidelity_classifies_missed_late_spurious() {
        let clean = WatchReport {
            outcomes: vec![
                fired("a", 100.0),
                fired("b", 200.0),
                fired("c", 300.0),
                ok("d"),
            ],
        };
        let impaired = WatchReport {
            outcomes: vec![
                fired("a", 100.0),
                fired("b", 365.0),
                ok("c"),
                fired("d", 50.0),
            ],
        };
        let f = alert_fidelity(&clean, &impaired);
        assert_eq!(f.matched, 1);
        assert_eq!(f.late, 1);
        assert_eq!(f.missed, 1);
        assert_eq!(f.spurious, 1);
        assert!((f.lateness_hours - 165.0).abs() < 1e-9);
        assert!(f.degradation() > 0.0);
    }

    #[test]
    fn identical_reports_have_perfect_fidelity() {
        let r = WatchReport {
            outcomes: vec![fired("a", 100.0), ok("b")],
        };
        let f = alert_fidelity(&r, &r);
        assert_eq!(
            f,
            AlertFidelity {
                matched: 1,
                ..AlertFidelity::default()
            }
        );
        assert_eq!(f.degradation(), 0.0);
    }
}
