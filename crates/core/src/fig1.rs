//! Figure 1: "Reported CEE rates (normalized)".
//!
//! The paper's only figure plots two per-machine monthly rates over time,
//! normalized to an arbitrary baseline: CEE incidents reported *by users*
//! (humans filing suspect-core reports during incident triage) and by the
//! *automatic detector*. The text adds: "The rate seen by our automatic
//! detector is gradually increasing, but we do not know if this reflects a
//! change in the underlying rate."
//!
//! Our reproduction defines the two series the same way production would:
//!
//! * **user series** — every [`SignalKind::UserReport`] signal, whether or
//!   not a CEE was really behind it (production cannot tell);
//! * **auto series** — every screening failure, plus every automatic
//!   signal (crash / machine check / checksum mismatch) on a core that is
//!   already a *recidivist* (≥1 prior signal inside a 30-day window) — the
//!   automatic infrastructure only "reports a CEE" when the per-core
//!   pattern rule fires, exactly as §6 describes.
//!
//! Two mechanisms push the auto series up over time, and both are the
//! paper's own: screening coverage grows as new test classes ship "a few
//! times per year" ([`mercurial_screening::EraSchedule`]), and latent
//! defects age in while existing defects "get worse with time".
//!
//! Detection feeds back into the series: once the pipeline has detected a
//! core, its subsequent signals are suppressed (the core is quarantined —
//! §6.1), so each defect contributes a burst between manifestation and
//! capture rather than a permanent plateau.

use crate::pipeline::{PipelineOutcome, PipelineRun};
use crate::scenario::Scenario;
use mercurial_fault::FastMap;
use mercurial_fleet::SignalKind;
use mercurial_metrics::MonthlySeries;
use std::fmt::Write as _;

/// The two normalized series plus the raw materials.
pub struct Fig1Result {
    /// User-reported CEE incidents per machine per month.
    pub user: MonthlySeries,
    /// Automatically-reported CEE incidents per machine per month.
    pub auto: MonthlySeries,
    /// The normalization baseline (first non-zero monthly rate of the
    /// user series — "an arbitrary baseline").
    pub baseline: f64,
    /// The pipeline outcome the series were derived from.
    pub outcome: PipelineOutcome,
}

impl Fig1Result {
    /// Least-squares slope of the normalized auto series — the paper's
    /// "gradually increasing" claim is `slope > 0`.
    pub fn auto_trend_slope(&self) -> f64 {
        self.auto.trend_slope(self.baseline)
    }

    /// Renders both series as ASCII charts.
    pub fn render(&self) -> String {
        format!(
            "Figure 1 — Reported CEE rates (normalized)\n\n{}\n{}",
            self.user.render(self.baseline, 40),
            self.auto.render(self.baseline, 40),
        )
    }

    /// Emits `month,user,auto` CSV of the normalized series.
    pub fn to_csv(&self) -> String {
        let user = self.user.normalized(self.baseline);
        let auto = self.auto.normalized(self.baseline);
        let mut out = String::from("month,user_normalized,auto_normalized\n");
        for (u, a) in user.iter().zip(&auto) {
            let _ = writeln!(out, "{},{:.4},{:.4}", u.month, u.value, a.value);
        }
        out
    }
}

/// Runs the full pipeline for a scenario and derives the Figure 1 series.
pub fn run_fig1(scenario: &Scenario) -> Fig1Result {
    let outcome = PipelineRun::execute(scenario);
    fig1_from_outcome(scenario, outcome)
}

/// Runs the closed-loop driver and derives the Figure 1 series from its
/// outcome. With feedback enabled the quarantine silencing is real rather
/// than post-hoc: signals of confirmed cores already stop at the source,
/// so the series reflect what the fleet's reporting would actually show.
pub fn run_fig1_closed_loop(scenario: &Scenario) -> Fig1Result {
    let out = crate::closedloop::ClosedLoopDriver::execute(scenario);
    fig1_from_outcome(scenario, out.pipeline)
}

/// Derives Figure 1 from an existing pipeline outcome.
pub fn fig1_from_outcome(scenario: &Scenario, outcome: PipelineOutcome) -> Fig1Result {
    let months = scenario.sim.months;
    let machines = scenario.fleet.machines as u64;
    let mut user = MonthlySeries::new("user-reported", months, machines);
    let mut auto = MonthlySeries::new("automatically-reported", months, machines);

    // Quarantine silences a core: signals attributed to a core stop
    // counting once the pipeline detected it (plus a short operational
    // lag for the drain). Without this a single hot core would scream at
    // the dedup cap for the whole window, which is not how a fleet that
    // actually quarantines behaves.
    const QUARANTINE_LAG_HOURS: f64 = 7.0 * 24.0;
    let mut detected_at: FastMap<mercurial_fault::CoreUid, f64> = FastMap::default();
    for d in &outcome.detections {
        detected_at
            .entry(d.core)
            .and_modify(|h| *h = h.min(d.hour))
            .or_insert(d.hour);
    }
    let silenced = |core: mercurial_fault::CoreUid, hour: f64| {
        detected_at
            .get(&core)
            .is_some_and(|&h| hour > h + QUARANTINE_LAG_HOURS)
    };

    // The recidivism rule for automatic attribution: a prior signal on the
    // same core within the window.
    const RECIDIVISM_WINDOW_HOURS: f64 = 30.0 * 24.0;
    let mut last_signal_hour: FastMap<mercurial_fault::CoreUid, f64> = FastMap::default();

    for s in outcome.signals.all() {
        if silenced(s.core, s.hour) {
            continue;
        }
        match s.kind {
            SignalKind::UserReport => user.record_at_hour(s.hour, 1),
            SignalKind::ScreenerFailure => auto.record_at_hour(s.hour, 1),
            _ => {
                if let Some(prev) = last_signal_hour.insert(s.core, s.hour) {
                    if s.hour - prev <= RECIDIVISM_WINDOW_HOURS {
                        auto.record_at_hour(s.hour, 1);
                    }
                }
            }
        }
    }

    let baseline = user
        .first_nonzero_rate()
        .or_else(|| auto.first_nonzero_rate())
        .unwrap_or(1.0);
    Fig1Result {
        user,
        auto,
        baseline,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_produces_both_series_with_rising_auto_trend() {
        let scenario = Scenario::demo(21);
        let result = run_fig1(&scenario);
        let user_total: u64 = result.user.counts().iter().sum();
        let auto_total: u64 = result.auto.counts().iter().sum();
        assert!(user_total > 0, "user series must be populated");
        assert!(auto_total > 0, "auto series must be populated");
        // The paper's headline qualitative claim.
        assert!(
            result.auto_trend_slope() > 0.0,
            "auto trend slope {} should be positive",
            result.auto_trend_slope()
        );
    }

    #[test]
    fn fig1_render_and_csv_have_one_row_per_month() {
        let scenario = Scenario::demo(22);
        let result = run_fig1(&scenario);
        let csv = result.to_csv();
        assert_eq!(csv.lines().count() as u32, scenario.sim.months + 1);
        let chart = result.render();
        assert!(chart.contains("user-reported"));
        assert!(chart.contains("automatically-reported"));
    }

    #[test]
    fn closed_loop_fig1_populates_both_series() {
        let mut scenario = Scenario::demo(24);
        scenario.closed_loop.feedback = true;
        let result = run_fig1_closed_loop(&scenario);
        assert!(result.user.counts().iter().sum::<u64>() > 0);
        assert!(result.auto.counts().iter().sum::<u64>() > 0);
    }

    #[test]
    fn baseline_normalizes_first_nonzero_user_month_to_one() {
        let scenario = Scenario::demo(23);
        let result = run_fig1(&scenario);
        let pts = result.user.normalized(result.baseline);
        let first = pts
            .iter()
            .find(|p| p.value > 0.0)
            .expect("non-empty user series");
        assert!((first.value - 1.0).abs() < 1e-9);
    }
}
