//! The closed loop split into service halves: fleet-shard **workers**
//! and a central **aggregator**.
//!
//! [`ClosedLoopDriver`](crate::ClosedLoopDriver) runs detect → quarantine
//! → reschedule as one in-process loop. The paper's §6 stack is not one
//! process: thousands of machines report suspect-core evidence into a
//! central screening/quarantine service. This module factors the loop
//! into the two halves that service needs, such that
//!
//! * one [`FleetShard`] over the whole machine range driven by one
//!   [`FleetAggregator`] reproduces the in-process loop **bit for bit**,
//!   and
//! * any partition of the machine range into disjoint shards produces the
//!   same aggregate state (scoreboard counts, watch report, sim summary)
//!   as the single shard, because every layer below (sim, screeners)
//!   honors the shard-union determinism contract.
//!
//! The split follows the loop's phase structure. Per epoch:
//!
//! | phase | half | work |
//! |-------|------|------|
//! | 1 | aggregator | restorations due at the boundary (registry/ledger); cores broadcast to workers in [`EpochCommands::restores`] |
//! | 2 | aggregator | deep-check verdicts under the per-epoch budget |
//! | 3 | worker | burn-in / offline / online screens whose campaign's next hour falls in the epoch, on owned machines |
//! | 4 | worker | one epoch of workload simulation, masked cores silent |
//! | 5 | aggregator | screened-core effects, suspicion ingest from surviving evidence |
//! | 6 | aggregator | new threshold crossings quarantined; broadcast next epoch in [`EpochCommands::quarantines`] |
//! | 7 | aggregator | capacity/corruption telemetry point + live alert rules |
//!
//! Both loop shapes step the fleet through this one shard step and
//! finish the window in one of two ways. With feedback the aggregator
//! runs phases 5–7 every epoch. Without it (the open loop) the shard
//! runs no screens and nothing leaves service; the driver records
//! phase 7 minus the capacity gauges each epoch and hands the finished
//! log to the batch back half. So both shapes emit their histograms,
//! gauges, series rows and alerts from one place.
//!
//! Quarantine and restore decisions are central; workers only apply the
//! resulting mask changes ([`FleetShard::apply_commands`]) before
//! stepping. Broadcasting a command for a core a worker does not own is
//! a no-op by construction (the core is absent from the worker's sim
//! mask and screening queues), so the protocol needs no per-worker
//! routing.

use crate::experiment::FleetExperiment;
use crate::pipeline::{score_detections, PipelineOutcome};
use crate::scenario::{Scenario, WorkloadsConfig};
use mercurial_fault::{CoreUid, FastMap, FastSet, FunctionalUnit};
use mercurial_fleet::sim::{ClassTally, SimState, SimSummary};
use mercurial_fleet::{EventQueue, FleetSim, FleetTopology, Population, SignalLog};
use mercurial_isolation::{CapacityLedger, QuarantineRegistry, SafeTaskPolicy, TaskUnitProfile};
use mercurial_metrics::{ClassPoint, EpochSeries};
use mercurial_mitigation::MitigationPolicy;
use mercurial_prof::Prof;
use mercurial_screening::{
    BurnIn, BurnInCampaign, DetectionMethod, DetectionRecord, HumanTriage, OfflineCampaign,
    OfflineScreener, OnlineCampaign, OnlineScreener, Scoreboard, TriageOutcome, TriageStats,
};
use mercurial_trace::{intern, MetricSet, Recorder};
use mercurial_watch::{Alert, Baseline, EpochRow, RuleSet, WatchEngine, WatchReport};
use serde::{Deserialize, Serialize};

pub use mercurial_fleet::sim::shard_ranges;

/// A centrally decided per-class mitigation-policy switch, broadcast to
/// every worker and applied before the epoch steps (policies only change
/// at epoch boundaries, like the quarantine mask).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicyChange {
    /// Workload-class index, in workload-list (tally/policy) order.
    pub class: u32,
    /// The policy the class runs from this epoch on.
    pub policy: MitigationPolicy,
}

/// Mask changes a worker must apply before stepping an epoch: centrally
/// decided restorations and quarantines. Commands are broadcast to every
/// worker; applying one for a non-owned core is a no-op.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochCommands {
    /// The epoch these commands precede.
    pub epoch: u32,
    /// Exonerated cores whose repair latency elapsed — back in service.
    pub restores: Vec<CoreUid>,
    /// Threshold crossings from the previous epoch — out of service.
    pub quarantines: Vec<CoreUid>,
    /// Per-class mitigation escalations decided at the previous boundary
    /// (empty unless the scenario's `workloads` block adapts).
    #[serde(default)]
    pub policy_changes: Vec<PolicyChange>,
}

/// Everything one worker produced in one epoch, shipped to the
/// aggregator at the epoch boundary.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ShardEpochReport {
    /// The epoch this report covers.
    pub epoch: u32,
    /// Cores the due screens caught this epoch (already masked locally).
    pub screened: Vec<DetectionRecord>,
    /// Screener-failure signals from this epoch's screens.
    pub screen_log: SignalLog,
    /// Workload signals surviving the out-of-service withdrawal — the
    /// suspicion evidence stream.
    pub evidence: SignalLog,
    /// Corruption events this epoch (shard-local).
    pub corruptions_delta: u64,
    /// Signals the sim emitted this epoch *before* the out-of-service
    /// withdrawal. The aggregator's fleet-wide `sim.epoch_signals`
    /// histogram observes the sum over shards of these pre-withdrawal
    /// counts.
    pub raw_signals_delta: u64,
    /// Mercurial cores in service and deployed at the epoch start, per
    /// the worker's mask *before* this epoch's crossings are applied.
    pub active_deployed_mercurial: u64,
    /// Running shard-local summary (post-withdrawal counts).
    pub summary: SimSummary,
    /// Running campaign accounting: burn-in, offline, online.
    pub stats: [mercurial_screening::ScreeningStats; 3],
    /// Per-workload-class deltas for this epoch, in workload-list order.
    /// Plain integer sums, so the aggregator's element-wise merge over
    /// any shard partition reproduces the single-shard totals exactly.
    #[serde(default)]
    pub class_deltas: Vec<ClassTally>,
}

/// The worker half: one machine-range shard of the fleet, stepping its
/// own sim and screening campaigns under centrally broadcast mask
/// changes.
pub struct FleetShard<'a> {
    /// The experiment's simulator (topology, population, workload mix),
    /// shared with every other shard and the aggregator.
    sim: &'a FleetSim,
    epoch_hours: f64,
    state: SimState,
    summary: SimSummary,
    /// Shard-local view of out-of-service cores: broadcast quarantines ∪
    /// own screens ∖ broadcast restores. Used to skip screens and
    /// withdraw attributed signals, exactly like the in-process loop.
    out_of_service: FastSet<CoreUid>,
    burnin: BurnInCampaign,
    offline: OfflineCampaign,
    online: OnlineCampaign,
    /// Whether the campaigns run. Without feedback the batch back half
    /// screens the finished window instead.
    feedback: bool,
}

/// Interned metric names for one workload class, built once per run.
pub(crate) struct ClassMetricNames {
    pub(crate) corrupt_ops: &'static str,
    pub(crate) caught: &'static str,
    pub(crate) user_reports: &'static str,
    pub(crate) overhead_ops: &'static str,
}

impl ClassMetricNames {
    /// Cumulative counter names for class `name`.
    fn counters(name: &str) -> ClassMetricNames {
        ClassMetricNames {
            corrupt_ops: intern(&format!("class.{name}.corrupt_ops_total")),
            caught: intern(&format!("class.{name}.caught_total")),
            user_reports: intern(&format!("class.{name}.user_reports_total")),
            overhead_ops: intern(&format!("class.{name}.overhead_ops_total")),
        }
    }

    /// Aggregator-side per-epoch gauge names for class `name`. These are
    /// the names the watch replay path snapshots per-class epoch rows
    /// from, so they must precede the `epoch.corrupt_ops` boundary gauge.
    pub(crate) fn gauges(name: &str) -> ClassMetricNames {
        ClassMetricNames {
            corrupt_ops: intern(&format!("class.{name}.corrupt_ops")),
            caught: intern(&format!("class.{name}.caught")),
            user_reports: intern(&format!("class.{name}.user_reports")),
            overhead_ops: intern(&format!("class.{name}.overhead_ops")),
        }
    }
}

impl<'a> FleetShard<'a> {
    /// Builds the worker for machines `[lo, hi)` of the experiment's
    /// fleet. The full range `(0, machines)` yields the entire fleet.
    /// The sim starts under the scenario's initial per-class mitigation
    /// policies, also without feedback (a static policy ladder still
    /// trades overhead for coverage); the screens run only with it.
    pub fn new(scenario: &Scenario, experiment: &'a FleetExperiment, lo: u32, hi: u32) -> Self {
        let sim = experiment.sim();
        let topo = experiment.topology();
        let tuning = &scenario.tuning;
        let schedule = experiment.screening_schedule();
        let shard = (lo, hi);
        let burnin = BurnIn {
            schedule: schedule.clone(),
            ops_multiplier: tuning.burnin_ops_multiplier,
        }
        .campaign_shard(topo, shard);
        let offline = OfflineScreener {
            schedule: schedule.clone(),
            interval_hours: scenario.offline_interval_hours,
            fraction_per_sweep: scenario.offline_fraction,
            drain_hours_per_machine: tuning.offline_drain_hours_per_machine,
        }
        .campaign_shard(scenario.sim.months, shard);
        let online = OnlineScreener {
            schedule: schedule.clone(),
            interval_hours: scenario.online_interval_hours,
            ops_fraction: tuning.online_ops_fraction,
        }
        .campaign_shard(scenario.sim.months, shard);
        let mut state = sim.begin_shard(lo, hi);
        let policies = scenario.workloads.initial_policies(&sim.class_names());
        for (ix, p) in policies.into_iter().enumerate() {
            state.set_policy(ix, p);
        }
        FleetShard {
            sim,
            epoch_hours: scenario.sim.epoch_hours,
            state,
            summary: SimSummary::default(),
            out_of_service: FastSet::default(),
            burnin,
            offline,
            online,
            feedback: scenario.closed_loop.feedback,
        }
    }

    /// The machine range this shard owns.
    pub fn machine_range(&self) -> (u32, u32) {
        self.state.shard_range()
    }

    /// Whether the observation window has been fully simulated.
    pub fn is_done(&self) -> bool {
        self.state.is_done()
    }

    /// The epoch the next [`FleetShard::step_epoch`] will simulate.
    pub fn next_epoch(&self) -> u32 {
        self.state.next_epoch()
    }

    /// Applies centrally broadcast mask changes (loop phases 1 and 6).
    /// Commands for non-owned cores fall through harmlessly: the sim
    /// mask ignores unknown cores and the screening queues never visit
    /// non-owned machines.
    pub fn apply_commands(&mut self, cmds: &EpochCommands) {
        assert_eq!(cmds.epoch, self.state.next_epoch(), "command/epoch skew");
        for &core in &cmds.restores {
            self.out_of_service.remove(&core);
            self.state.set_active(core, true);
        }
        for &core in &cmds.quarantines {
            self.out_of_service.insert(core);
            self.state.set_active(core, false);
        }
        for pc in &cmds.policy_changes {
            self.state.set_policy(pc.class as usize, pc.policy);
        }
    }

    /// Runs loop phases 3 and 4 for one epoch: due screens on owned
    /// machines, then one epoch of workload simulation with masked cores
    /// silent and their attributed signals withdrawn.
    ///
    /// `prof` is wall-clock self-observability only — readings never
    /// touch sim-visible state, so results are identical for any handle.
    pub fn step_epoch(&mut self, rec: &mut Recorder, prof: &Prof) -> ShardEpochReport {
        let _epoch_span = prof.span("shard.epoch");
        let epoch = self.state.next_epoch();
        let h0 = self.state.hour();
        let h1 = h0 + self.epoch_hours;

        // Phase 3: each campaign whose next pass starts before the epoch
        // ends, in fixed burn-in → offline → online order.
        let due = |next: Option<f64>| self.feedback && next.is_some_and(|h| h < h1);
        let mut screen_log = SignalLog::new();
        let mut screened = Vec::new();
        if due(self.burnin.next_hour()) {
            let _p = prof.span("screen.burnin");
            screened.extend(self.burnin.step_until(
                self.sim.topology(),
                self.sim.population(),
                h1,
                &mut self.out_of_service,
                &mut screen_log,
                rec,
            ));
        }
        if due(self.offline.next_hour()) {
            let _p = prof.span("screen.offline");
            screened.extend(self.offline.step_until(
                self.sim.topology(),
                self.sim.population(),
                h1,
                &mut self.out_of_service,
                &mut screen_log,
                rec,
            ));
        }
        if due(self.online.next_hour()) {
            let _p = prof.span("screen.online");
            screened.extend(self.online.step_until(
                self.sim.topology(),
                self.sim.population(),
                h1,
                &mut self.out_of_service,
                &mut screen_log,
                rec,
            ));
        }
        // A screener failure is proof; the core leaves service before the
        // epoch's workload runs (registry effects are the aggregator's).
        for d in &screened {
            self.state.set_active(d.core, false);
        }
        if !screened.is_empty() {
            rec.audit_add("audit.screen_detections", screened.len() as u64);
        }

        // Phase 4: one epoch of workload simulation. The worker's mask
        // snapshot *before* this epoch's crossings is what the telemetry
        // point needs, so the active count is taken here.
        let active = self
            .state
            .active_deployed_mercurial(self.sim.topology(), h0);
        let before_corruptions = self.summary.corruptions;
        let before_signals = self.summary.signals_emitted + self.summary.noise_signals;
        let class_before = self.state.class_tallies().to_vec();
        let mut evidence = SignalLog::new();
        {
            let _p = prof.span("fleet.step");
            self.sim
                .step_epoch(&mut self.state, &mut evidence, &mut self.summary, rec);
        }
        let class_deltas: Vec<ClassTally> = self
            .state
            .class_tallies()
            .iter()
            .zip(&class_before)
            .map(|(now, then)| now.delta_since(then))
            .collect();
        let raw_signals_delta =
            self.summary.signals_emitted + self.summary.noise_signals - before_signals;
        // Withdraw signals attributed to out-of-service cores. Masked
        // cores emit nothing themselves, so every withdrawn signal is
        // background noise — both counters shrink by the same amount,
        // exactly as in the in-process loop.
        let dropped = evidence.retain(|s| !self.out_of_service.contains(&s.core));
        self.summary.signals_emitted -= dropped as u64;
        self.summary.noise_signals -= dropped as u64;

        ShardEpochReport {
            epoch,
            screened,
            screen_log,
            evidence,
            corruptions_delta: self.summary.corruptions - before_corruptions,
            raw_signals_delta,
            active_deployed_mercurial: active,
            summary: self.summary,
            stats: [
                self.burnin.stats(),
                self.offline.stats(),
                self.online.stats(),
            ],
            class_deltas,
        }
    }
}

/// What [`FleetAggregator::finish`] hands back: the same aggregates the
/// in-process closed loop produces.
pub struct FinishedLoop {
    /// End-of-window aggregates, same shape as the open-loop pipeline's.
    pub pipeline: PipelineOutcome,
    /// Per-epoch capacity / residual-corruption / active-core telemetry.
    pub series: EpochSeries,
    /// Alert readout, when an engine was attached.
    pub watch: Option<WatchReport>,
}

/// The server half: quarantine registry, capacity ledger, triage queue,
/// suspicion scoreboard, telemetry series, and live alert rules —
/// everything central. Drives epochs via
/// [`begin_epoch`](FleetAggregator::begin_epoch) /
/// [`ingest_reports`](FleetAggregator::ingest_reports).
pub struct FleetAggregator<'a> {
    topo: &'a FleetTopology,
    pop: &'a Population,
    deep_checks_per_epoch: u32,
    triage_latency_hours: f64,
    restore_latency_hours: f64,
    epoch: u32,
    epochs: u32,
    epoch_hours: f64,
    registry: QuarantineRegistry,
    ledger: CapacityLedger,
    safe_policy: SafeTaskPolicy,
    task_mix: Vec<(TaskUnitProfile, f64)>,
    recovered_cores: f64,
    triage: HumanTriage,
    triage_stats: TriageStats,
    case_id: u64,
    scoreboard: Scoreboard,
    log: SignalLog,
    detections: Vec<DetectionRecord>,
    out_of_service: FastSet<CoreUid>,
    handled: FastSet<CoreUid>,
    deep_q: EventQueue<CoreUid>,
    restore_q: EventQueue<CoreUid>,
    pending_quarantines: Vec<CoreUid>,
    exonerated_innocents: usize,
    /// Histograms, epoch gauges, the series, and the alert rules.
    telemetry: EpochTelemetry,
    /// Latest per-worker running summaries / campaign stats, replaced on
    /// every ingest (reports carry running totals, not deltas).
    worker_summaries: Vec<SimSummary>,
    worker_stats: Vec<[mercurial_screening::ScreeningStats; 3]>,
    /// The scenario's `workloads` block (the adaptive escalation loop is
    /// active only when it is enabled).
    workloads: WorkloadsConfig,
    /// The aggregator's view of each class's current policy, in
    /// tally/policy order (empty when the workloads block is off).
    policies: Vec<MitigationPolicy>,
    /// Escalations decided this boundary, broadcast with the next epoch's
    /// commands (workers switch policies one epoch after the decision,
    /// exactly like quarantine crossings).
    pending_policy_changes: Vec<PolicyChange>,
    /// Interned per-class cumulative counter names, parallel to
    /// `policies` (empty when the workloads block is off).
    class_counters: Vec<ClassMetricNames>,
}

impl<'a> FleetAggregator<'a> {
    /// Builds the central half for a scenario. `engine` is the in-loop
    /// alert engine, if any (see [`watch_engine`]).
    pub fn new(
        scenario: &Scenario,
        experiment: &'a FleetExperiment,
        engine: Option<WatchEngine>,
    ) -> Self {
        let topo = experiment.topology();
        let ledger = CapacityLedger::new(topo.total_cores());
        let mut scoreboard = Scoreboard::new();
        scoreboard.arm(scenario.suspicion_threshold);
        let sim = experiment.sim();
        let telemetry = EpochTelemetry::new(scenario, sim, engine);
        let workloads = scenario.workloads.clone();
        let policies = workloads.initial_policies(telemetry.class_names());
        let class_counters = telemetry
            .class_names()
            .iter()
            .map(|n| ClassMetricNames::counters(n))
            .collect();
        FleetAggregator {
            topo,
            pop: experiment.population(),
            deep_checks_per_epoch: scenario.closed_loop.deep_checks_per_epoch,
            triage_latency_hours: scenario.closed_loop.triage_latency_hours,
            restore_latency_hours: scenario.closed_loop.restore_latency_hours,
            epoch: 0,
            epochs: sim.epochs(),
            epoch_hours: scenario.sim.epoch_hours,
            registry: QuarantineRegistry::new(),
            ledger,
            safe_policy: SafeTaskPolicy,
            task_mix: balanced_task_mix(),
            recovered_cores: 0.0,
            triage: HumanTriage::default(),
            triage_stats: TriageStats::default(),
            case_id: 0,
            scoreboard,
            log: SignalLog::new(),
            detections: Vec::new(),
            out_of_service: FastSet::default(),
            handled: FastSet::default(),
            deep_q: EventQueue::new(),
            restore_q: EventQueue::new(),
            pending_quarantines: Vec::new(),
            exonerated_innocents: 0,
            telemetry,
            worker_summaries: Vec::new(),
            worker_stats: Vec::new(),
            workloads,
            policies,
            pending_policy_changes: Vec::new(),
            class_counters,
        }
    }

    /// Total epochs in the observation window.
    pub fn total_epochs(&self) -> u32 {
        self.epochs
    }

    /// Epoch length in hours.
    pub fn epoch_hours(&self) -> f64 {
        self.epoch_hours
    }

    /// Whether every epoch has been ingested.
    pub fn is_done(&self) -> bool {
        self.epoch >= self.epochs
    }

    /// Runs loop phases 1 and 2 at an epoch boundary and returns the
    /// mask changes to broadcast: restorations due now plus the previous
    /// epoch's threshold crossings.
    pub fn begin_epoch(&mut self, rec: &mut Recorder, prof: &Prof) -> EpochCommands {
        let _p = prof.span("loop.begin");
        assert!(!self.is_done(), "window already fully ingested");
        let h0 = self.epoch as f64 * self.epoch_hours;
        let h1 = h0 + self.epoch_hours;
        rec.begin(h0, "loop.epoch");

        // Phase 1: restorations whose repair latency has elapsed re-enter
        // service at the epoch boundary, in restore-hour order.
        let mut restores = Vec::new();
        while let Some((restore_hour, core)) = self.restore_q.pop_due(h0) {
            self.registry
                .restore(core, restore_hour, "repair latency elapsed", rec)
                .expect("exonerated core can restore");
            self.ledger.restore_core(core, restore_hour, rec);
            self.out_of_service.remove(&core);
            restores.push(core);
        }

        // Phase 2: deep-check verdicts, due-hour order under the
        // per-epoch budget (the triage team is finite; excess suspects
        // stay queued and their verdicts slip to the next boundary).
        let mut budget = self.deep_checks_per_epoch;
        while budget > 0 && self.deep_q.peek_time().is_some_and(|t| t < h1) {
            let (due_hour, core) = self.deep_q.pop().expect("peeked a due case");
            let verdict_hour = due_hour.max(h0);
            budget -= 1;
            self.triage_stats.investigated += 1;
            match self
                .triage
                .investigate(self.topo, self.pop, core, verdict_hour, self.case_id)
            {
                TriageOutcome::Confirmed => {
                    self.triage_stats.confirmed += 1;
                    if self.pop.is_mercurial(core) {
                        self.triage_stats.confirmed_true += 1;
                    }
                    self.registry
                        .confirm(core, verdict_hour, "deep check confession", rec)
                        .expect("quarantined core can confirm");
                    rec.instant(verdict_hour, "detect.triage", Some(core.as_u64()), 0.0);
                    self.recovered_cores +=
                        safe_task_share(&self.safe_policy, &self.task_mix, self.pop, core);
                    self.detections.push(DetectionRecord {
                        core,
                        hour: verdict_hour,
                        method: DetectionMethod::Triage,
                    });
                }
                TriageOutcome::NotReproduced => {
                    self.triage_stats.not_reproduced += 1;
                    if self.pop.is_mercurial(core) {
                        self.triage_stats.missed_true += 1;
                    }
                    self.registry
                        .exonerate(core, verdict_hour, "nothing reproduced", rec)
                        .expect("quarantined core can exonerate");
                    if !self.pop.is_mercurial(core) {
                        self.exonerated_innocents += 1;
                    }
                    self.restore_q
                        .schedule(verdict_hour + self.restore_latency_hours, core);
                }
            }
            self.case_id += 1;
        }

        EpochCommands {
            epoch: self.epoch,
            restores,
            quarantines: std::mem::take(&mut self.pending_quarantines),
            policy_changes: std::mem::take(&mut self.pending_policy_changes),
        }
    }

    /// Runs loop phases 5–7 on the epoch's worker reports (one per
    /// shard, in worker order): screened-core registry effects,
    /// suspicion ingest from surviving evidence, new threshold
    /// crossings, and the epoch's telemetry point.
    pub fn ingest_reports(
        &mut self,
        reports: Vec<ShardEpochReport>,
        rec: &mut Recorder,
        prof: &Prof,
    ) {
        let _ingest_span = prof.span("loop.ingest");
        assert!(!reports.is_empty(), "need at least one shard report");
        let h0 = self.epoch as f64 * self.epoch_hours;
        let h1 = h0 + self.epoch_hours;

        // Phase 5a: screened-core effects in canonical (hour, core)
        // order — a unique key per epoch, since campaigns share the
        // detected set — so any shard partition applies them in the
        // same order.
        let mut screened: Vec<DetectionRecord> = Vec::new();
        for r in &reports {
            assert_eq!(r.epoch, self.epoch, "report/epoch skew");
            screened.extend(r.screened.iter().copied());
        }
        screened.sort_by(|a, b| a.hour.total_cmp(&b.hour).then_with(|| a.core.cmp(&b.core)));
        for d in screened {
            self.registry
                .mark_suspect(d.core, d.hour, "screener failure", rec)
                .and_then(|()| {
                    self.registry
                        .quarantine(d.core, d.hour, "controlled test failed", rec)
                })
                .and_then(|()| {
                    self.registry
                        .confirm(d.core, d.hour, "screen reproduced defect", rec)
                })
                .expect("in-service core walks the legal path");
            self.ledger
                .remove_core(d.core, self.topo.cores_on(d.core.machine), d.hour, rec);
            self.recovered_cores +=
                safe_task_share(&self.safe_policy, &self.task_mix, self.pop, d.core);
            self.out_of_service.insert(d.core);
            self.detections.push(d);
        }

        // Fleet-wide epoch sums: each shard reports its own slice.
        let corrupt_ops: u64 = reports.iter().map(|r| r.corruptions_delta).sum();
        let raw_signals: u64 = reports.iter().map(|r| r.raw_signals_delta).sum();

        // Per-class epoch deltas: an element-wise integer merge across
        // shards, so every partition sums to the single-shard totals and
        // so do the cumulative class counters.
        let mut epoch_classes = vec![ClassTally::default(); self.policies.len()];
        for r in &reports {
            for (mine, theirs) in epoch_classes.iter_mut().zip(&r.class_deltas) {
                mine.merge(theirs);
            }
        }
        for (names, d) in self.class_counters.iter().zip(&epoch_classes) {
            rec.counter_add(names.corrupt_ops, d.corrupt_ops);
            rec.counter_add(names.caught, d.app_caught + d.mitigation_caught);
            rec.counter_add(names.user_reports, d.user_reports);
            rec.counter_add(names.overhead_ops, d.overhead_ops());
        }

        // Phase 5b: suspicion accumulates from the surviving evidence;
        // the fleet-wide log grows screen signals first, then evidence,
        // each in worker order.
        let mut active: u64 = 0;
        self.worker_summaries.clear();
        self.worker_stats.clear();
        for r in &reports {
            active += r.active_deployed_mercurial;
            self.worker_summaries.push(r.summary);
            self.worker_stats.push(r.stats);
        }
        for r in &reports {
            self.log.append(r.screen_log.clone());
        }
        let score_span = prof.span("score.ingest");
        for r in reports {
            self.scoreboard.ingest_all(r.evidence.all().iter(), rec);
            self.log.append(r.evidence);
        }
        drop(score_span);

        // Phase 6: new threshold crossings are quarantined and queued
        // for a deep check; workers learn of them in the next epoch's
        // commands.
        let crossings: Vec<(CoreUid, f64)> = self
            .scoreboard
            .armed_suspects_excluding(|core| {
                self.handled.contains(&core) || self.out_of_service.contains(&core)
            })
            .into_iter()
            .map(|s| (s.core, s.last_hour))
            .collect();
        for (core, hour) in crossings {
            self.registry
                .mark_suspect(core, hour, "signal concentration", rec)
                .and_then(|()| {
                    self.registry
                        .quarantine(core, hour, "suspicion threshold", rec)
                })
                .expect("in-service core walks the legal path");
            self.ledger
                .remove_core(core, self.topo.cores_on(core.machine), hour, rec);
            self.out_of_service.insert(core);
            self.handled.insert(core);
            self.deep_q.schedule(hour + self.triage_latency_hours, core);
            // Workers still count a crossing core as active (they mask
            // it next epoch); the in-process loop masks it before taking
            // the telemetry point, so mirror that here.
            if self.pop.is_mercurial(core) && self.topo.is_deployed(core.machine, h0) {
                active -= 1;
            }
            self.pending_quarantines.push(core);
        }

        // Phase 6½: adaptive mitigation. A class whose epoch corrupt-ops
        // exceed the threshold escalates one rung; workers apply the
        // switch with the next epoch's commands, mirroring quarantines.
        if self.workloads.enabled && self.workloads.adapt {
            for (ix, t) in epoch_classes.iter().enumerate() {
                if t.corrupt_ops > self.workloads.escalate_threshold {
                    let next = self.policies[ix].escalate();
                    if next != self.policies[ix] {
                        self.policies[ix] = next;
                        self.pending_policy_changes.push(PolicyChange {
                            class: ix as u32,
                            policy: next,
                        });
                        rec.instant(h1, "mitigation.escalated", None, ix as f64);
                        rec.audit_add("audit.escalations", 1);
                    }
                }
            }
        }

        // Phase 7: the epoch's telemetry point.
        let pool = self.ledger.pool();
        let base = pool.availability();
        let with_safetask = if pool.nominal_cores == 0 {
            1.0
        } else {
            (pool.effective_cores as f64 + self.recovered_cores) / pool.nominal_cores as f64
        };
        rec.gauge(h1, "capacity.availability", base);
        rec.gauge(h1, "capacity.with_safetask", with_safetask);
        self.telemetry.record(
            EpochPoint {
                hour: h1,
                capacity: base,
                capacity_with_safetask: with_safetask,
                corrupt_ops,
                raw_signals,
                active_mercurial: active,
                classes: &epoch_classes,
            },
            rec,
            prof,
        );
        rec.end(h1, "loop.epoch");
        self.epoch += 1;
    }

    /// Final assembly: fleet-wide summary and campaign stats from the
    /// last worker reports, post-confirmation signal withdrawal, the
    /// detection-latency histogram, and the end-of-run watch rules
    /// evaluated over the central metrics merged with `worker_metrics`
    /// (worker order; empty for an in-process run sharing one recorder).
    pub fn finish(
        self,
        rec: &mut Recorder,
        worker_metrics: &[MetricSet],
        baseline: Option<&Baseline>,
        prof: &Prof,
    ) -> FinishedLoop {
        let _finish_span = prof.span("loop.finish");
        let FleetAggregator {
            topo,
            pop,
            registry,
            ledger,
            triage_stats,
            mut log,
            mut detections,
            exonerated_innocents,
            telemetry,
            worker_summaries,
            worker_stats,
            ..
        } = self;

        let mut summary = SimSummary::default();
        for s in &worker_summaries {
            summary.merge(s);
        }
        let mut stats = [mercurial_screening::ScreeningStats::default(); 3];
        for ws in &worker_stats {
            for (slot, s) in stats.iter_mut().zip(ws.iter()) {
                slot.core_screens += s.core_screens;
                slot.test_ops += s.test_ops;
                slot.drained_machine_hours += s.drained_machine_hours;
                slot.detections += s.detections;
            }
        }

        // User-report escalations drawn while a core was still in
        // service can carry dates past its later confirmation hour;
        // withdraw them so no signal is attributed to a core after it
        // was confirmed defective. Withdrawal and the log sort are their
        // own phase, so the `watch.eval` phase after them times the
        // watch engine alone.
        let signals_span = prof.span("finish.signals");
        let confirm_hour: FastMap<CoreUid, f64> = registry
            .in_state(mercurial_isolation::CoreState::Confirmed)
            .into_iter()
            .map(|core| {
                let hour = registry
                    .history(core)
                    .iter()
                    .find(|t| t.to == mercurial_isolation::CoreState::Confirmed)
                    .expect("confirmed core has a confirm transition")
                    .hour;
                (core, hour)
            })
            .collect();
        let mut dropped_noise = 0u64;
        let dropped = log.retain(|s| {
            let keep = confirm_hour.get(&s.core).is_none_or(|&c| s.hour <= c);
            if !keep && !s.caused_by_cee {
                dropped_noise += 1;
            }
            keep
        });
        summary.signals_emitted -= dropped as u64;
        summary.noise_signals -= dropped_noise;
        log.sort_by_time();
        drop(signals_span);

        detections.sort_by(|a, b| a.hour.partial_cmp(&b.hour).expect("hours are finite"));
        let (detected_true, detection_latency_hours) = score_detections(&detections, topo, pop);
        for &latency in &detection_latency_hours {
            rec.observe("detect.latency_hours", latency);
        }

        let pipeline = PipelineOutcome {
            detections,
            burnin_stats: stats[0],
            offline_stats: stats[1],
            online_stats: stats[2],
            triage_stats,
            capacity: ledger.pool(),
            registry,
            signals: log,
            sim_summary: summary,
            ground_truth: pop.count(),
            detected_true,
            exonerated_innocents,
            detection_latency_hours,
        };
        telemetry.finish(pipeline, rec, worker_metrics, baseline, prof)
    }
}

/// One epoch's fleet-wide telemetry point, as either loop shape measured
/// it.
pub(crate) struct EpochPoint<'a> {
    /// The hour the epoch ends.
    pub(crate) hour: f64,
    /// Base capacity availability (1.0 in the open loop).
    pub(crate) capacity: f64,
    /// Capacity with safe-task recovery (1.0 in the open loop).
    pub(crate) capacity_with_safetask: f64,
    /// Corruption events this epoch.
    pub(crate) corrupt_ops: u64,
    /// Signals emitted this epoch, before any out-of-service withdrawal.
    pub(crate) raw_signals: u64,
    /// Mercurial cores in service and deployed at the epoch start.
    pub(crate) active_mercurial: u64,
    /// Per-class deltas in workload-list order (ignored when the
    /// scenario's `workloads` block is off).
    pub(crate) classes: &'a [ClassTally],
}

/// The epoch boundary both loop shapes share: the fleet-wide per-epoch
/// histograms, the epoch gauges, the series row and the live alert rules
/// every epoch, then the end-of-run rules once.
pub(crate) struct EpochTelemetry {
    /// Whether the scenario's `workloads` block is on: per-class gauges,
    /// series columns and classed alert rows appear only then, so legacy
    /// runs stay bit-for-bit.
    classes_on: bool,
    /// Workload class names in tally/policy order (empty when disabled).
    class_names: Vec<String>,
    /// Interned per-class epoch-gauge names, parallel to `class_names`.
    class_gauges: Vec<ClassMetricNames>,
    series: EpochSeries,
    engine: Option<WatchEngine>,
}

impl EpochTelemetry {
    /// The boundary for a scenario; `engine` is the in-loop alert engine,
    /// if any (see [`watch_engine`]).
    pub(crate) fn new(scenario: &Scenario, sim: &FleetSim, engine: Option<WatchEngine>) -> Self {
        let classes_on = scenario.workloads.enabled;
        let class_names = if classes_on {
            sim.class_names()
        } else {
            Vec::new()
        };
        let class_gauges = class_names
            .iter()
            .map(|n| ClassMetricNames::gauges(n))
            .collect();
        let mut series = EpochSeries::new(scenario.sim.epoch_hours);
        if classes_on {
            series.set_class_names(class_names.clone());
        }
        EpochTelemetry {
            classes_on,
            class_names,
            class_gauges,
            series,
            engine,
        }
    }

    /// Workload class names in tally/policy order (empty when the
    /// scenario's `workloads` block is off).
    pub(crate) fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Records one epoch boundary: the histograms, then the
    /// `fleet.active_mercurial` gauge, the per-class gauges and the
    /// `epoch.corrupt_ops` gauge, then the series row and the live rules.
    pub(crate) fn record(&mut self, p: EpochPoint<'_>, rec: &mut Recorder, prof: &Prof) {
        rec.observe("sim.epoch_corruptions", p.corrupt_ops as f64);
        rec.observe("sim.epoch_signals", p.raw_signals as f64);
        rec.gauge(p.hour, "fleet.active_mercurial", p.active_mercurial as f64);
        // Per-class epoch gauges come before the boundary marker so the
        // replay path snapshots them into the same epoch row.
        for (names, t) in self.class_gauges.iter().zip(p.classes) {
            rec.gauge(p.hour, names.corrupt_ops, t.corrupt_ops as f64);
            rec.gauge(
                p.hour,
                names.caught,
                (t.app_caught + t.mitigation_caught) as f64,
            );
            rec.gauge(p.hour, names.user_reports, t.user_reports as f64);
            rec.gauge(p.hour, names.overhead_ops, t.overhead_ops() as f64);
        }
        // Last gauge of every epoch boundary: the replay path
        // (`WatchInput::from_jsonl`) closes the epoch row on it.
        rec.gauge(p.hour, "epoch.corrupt_ops", p.corrupt_ops as f64);
        self.series.push(
            p.capacity,
            p.capacity_with_safetask,
            p.corrupt_ops,
            p.active_mercurial,
        );
        if self.classes_on {
            self.series.push_classes(
                p.classes
                    .iter()
                    .map(|t| ClassPoint {
                        corrupt_ops: t.corrupt_ops,
                        caught: t.app_caught + t.mitigation_caught,
                        user_reports: t.user_reports,
                        overhead_ops: t.overhead_ops(),
                    })
                    .collect(),
            );
        }
        if let Some(eng) = self.engine.as_mut() {
            let _watch_span = prof.span("watch.eval");
            let row = EpochRow {
                hour: p.hour,
                capacity: p.capacity,
                capacity_with_safetask: p.capacity_with_safetask,
                corrupt_ops: p.corrupt_ops as f64,
                active_mercurial: p.active_mercurial as f64,
            };
            // `Vec::new` does not allocate: with classes off this adds no work.
            let classes: Vec<(String, f64)> = if self.classes_on {
                self.class_names
                    .iter()
                    .cloned()
                    .zip(p.classes.iter().map(|t| t.corrupt_ops as f64))
                    .collect()
            } else {
                Vec::new()
            };
            record_alerts(rec, &eng.push_epoch(row, &classes));
        }
    }

    /// Closes the run on its finished `pipeline`: the end-of-run rules
    /// evaluated over the recorder's metrics merged with `worker_metrics`
    /// (worker order; empty when one recorder saw the whole run).
    pub(crate) fn finish(
        self,
        pipeline: PipelineOutcome,
        rec: &mut Recorder,
        worker_metrics: &[MetricSet],
        baseline: Option<&Baseline>,
        prof: &Prof,
    ) -> FinishedLoop {
        let watch = self.engine.map(|eng| {
            let _watch_span = prof.span("watch.eval");
            let mut merged = rec.metrics().cloned().unwrap_or_default();
            for m in worker_metrics {
                merged.merge(m);
            }
            let (report, end_alerts) = eng.finish(&merged, baseline);
            record_alerts(rec, &end_alerts);
            report
        });
        FinishedLoop {
            pipeline,
            series: self.series,
            watch,
        }
    }
}

/// The in-loop alert engine a run asked for, if any: explicit rules win,
/// else the scenario's `watch` block when enabled.
pub fn watch_engine(scenario: &Scenario, rules: &Option<RuleSet>) -> Option<WatchEngine> {
    match rules {
        Some(rs) => Some(WatchEngine::new(rs.clone())),
        None if scenario.watch.enabled => Some(WatchEngine::new(scenario.watch.rule_set())),
        None => None,
    }
}

/// Stamp freshly fired alerts into the trace as `alert.fired` instants
/// (value = rule index, hour = the violation's hour). An auditing
/// recorder also bumps the cumulative `audit.alerts` counter and a
/// per-rule `audit.rule.<name>.fires` counter (rule names are
/// operator-supplied; the serve status page label-escapes them on render).
pub fn record_alerts(rec: &mut Recorder, alerts: &[(usize, Alert)]) {
    for (idx, a) in alerts {
        rec.instant(a.hour, "alert.fired", None, *idx as f64);
        if rec.audits() {
            rec.counter_add("audit.alerts", 1);
            rec.counter_add(intern(&format!("audit.rule.{}.fires", a.rule)), 1);
        }
    }
}

/// Emits one `gt.onset` instant per mercurial core at the hour its defect
/// can first manifest (deploy + earliest onset), in population (sorted
/// `CoreUid`) order — the ground-truth anchor of the incident timeline.
pub fn record_ground_truth_onsets(experiment: &FleetExperiment, rec: &mut Recorder) {
    if !rec.enabled() {
        return;
    }
    let topo = experiment.topology();
    for core in experiment.population().mercurial_cores() {
        let deploy = topo.deploy_hour(core.uid.machine);
        let onset = deploy + core.profile.earliest_onset_hours().max(0.0);
        rec.instant(onset, "gt.onset", Some(core.uid.as_u64()), 0.0);
    }
    rec.counter_add("gt.mercurial_cores", experiment.population().count() as u64);
}

/// The §6.1 task mix used to price safe-task recovery on confirmed cores
/// (the "balanced" mix of the E10 experiment).
fn balanced_task_mix() -> Vec<(TaskUnitProfile, f64)> {
    use FunctionalUnit as U;
    vec![
        (
            TaskUnitProfile::new(
                "scalar-batch",
                vec![U::ScalarAlu, U::LoadStore, U::BranchUnit, U::AddressGen],
                false,
            ),
            0.35,
        ),
        (
            TaskUnitProfile::new(
                "gemm",
                vec![U::Fma, U::VectorPipe, U::LoadStore, U::AddressGen],
                false,
            ),
            0.25,
        ),
        (
            TaskUnitProfile::new(
                "tls",
                vec![U::CryptoUnit, U::ScalarAlu, U::LoadStore, U::AddressGen],
                false,
            ),
            0.15,
        ),
        (
            TaskUnitProfile::new(
                "db",
                vec![
                    U::ScalarAlu,
                    U::Atomics,
                    U::LoadStore,
                    U::BranchUnit,
                    U::AddressGen,
                ],
                false,
            ),
            0.15,
        ),
        (
            TaskUnitProfile::new(
                "log-shipper",
                vec![U::ScalarAlu, U::LoadStore, U::AddressGen],
                true,
            ),
            0.10,
        ),
    ]
}

/// The share of the task mix placeable on one confirmed core, given its
/// ground-truth defective units (known post-confession).
fn safe_task_share(
    policy: &SafeTaskPolicy,
    task_mix: &[(TaskUnitProfile, f64)],
    pop: &Population,
    core: CoreUid,
) -> f64 {
    match pop.profile_of(core) {
        Some(profile) => policy.capacity_recovered(task_mix, &[profile.afflicted_units()]),
        // Only genuinely defective cores can be confirmed (screens are
        // exact), so this arm is unreachable in practice.
        None => 0.0,
    }
}
