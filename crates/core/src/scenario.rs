//! Experiment scenarios: one serializable struct configuring everything.

use mercurial_fleet::sim::SimConfig;
use mercurial_fleet::topology::FleetConfig;
use mercurial_fleet::TrafficShape;
use mercurial_mitigation::MitigationPolicy;
use serde::{Deserialize, Serialize};

/// Options for the fuzz-distilled screening corpus (`mercurial-fuzz`).
///
/// When enabled, the screeners' era schedule is augmented with the units
/// and operand patterns the distilled corpus exercises — the systematic
/// screening-content development §3 of the paper says was missing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FuzzCorpusConfig {
    /// Whether screeners run the distilled fuzz content at all.
    pub enabled: bool,
    /// Campaign seed (the whole campaign is a pure function of it).
    pub seed: u64,
    /// Programs generated per campaign.
    pub budget: u64,
}

impl Default for FuzzCorpusConfig {
    fn default() -> FuzzCorpusConfig {
        FuzzCorpusConfig {
            enabled: false,
            seed: 0xF0CC,
            budget: 64,
        }
    }
}

/// Tunable constants of the detection pipeline that used to be
/// hard-coded. Every field has a serde default matching the historical
/// value, so existing scenario JSON parses unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineTuning {
    /// Hours from a suspect report to the human-triage verdict
    /// (confirm or exonerate).
    #[serde(default = "default_triage_latency_hours")]
    pub triage_latency_hours: f64,
    /// Hours from a suspect report to an exonerated core's restoration
    /// to service.
    #[serde(default = "default_restore_latency_hours")]
    pub restore_latency_hours: f64,
    /// Multiplier on the era op budget during pre-deployment burn-in.
    #[serde(default = "default_burnin_ops_multiplier")]
    pub burnin_ops_multiplier: u64,
    /// Machine-hours of drain charged per machine per offline sweep.
    #[serde(default = "default_offline_drain_hours")]
    pub offline_drain_hours_per_machine: f64,
    /// Fraction of the era op budget available to online screening from
    /// spare cycles.
    #[serde(default = "default_online_ops_fraction")]
    pub online_ops_fraction: f64,
}

fn default_triage_latency_hours() -> f64 {
    72.0
}
fn default_restore_latency_hours() -> f64 {
    96.0
}
fn default_burnin_ops_multiplier() -> u64 {
    5
}
fn default_offline_drain_hours() -> f64 {
    0.5
}
fn default_online_ops_fraction() -> f64 {
    0.05
}

impl Default for PipelineTuning {
    fn default() -> PipelineTuning {
        PipelineTuning {
            triage_latency_hours: default_triage_latency_hours(),
            restore_latency_hours: default_restore_latency_hours(),
            burnin_ops_multiplier: default_burnin_ops_multiplier(),
            offline_drain_hours_per_machine: default_offline_drain_hours(),
            online_ops_fraction: default_online_ops_fraction(),
        }
    }
}

/// Policy block for the closed-loop epoch driver
/// (`ClosedLoopDriver`): whether detections feed back into the running
/// simulation, and the latencies/budgets of the in-loop isolation
/// machinery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClosedLoopConfig {
    /// `true`: confirmed cores leave the workload mix mid-simulation
    /// (their signals and corruption stop) and exonerated cores return.
    /// `false`: the driver reproduces the open-loop batch pipeline
    /// bit-for-bit.
    #[serde(default)]
    pub feedback: bool,
    /// Hours from quarantine to the deep-check verdict.
    #[serde(default = "default_triage_latency_hours")]
    pub triage_latency_hours: f64,
    /// Hours from exoneration to restoration into service.
    #[serde(default = "default_closed_loop_restore_hours")]
    pub restore_latency_hours: f64,
    /// Maximum deep-check verdicts processed per epoch (the human-triage
    /// team is finite; excess suspects queue).
    #[serde(default = "default_deep_checks_per_epoch")]
    pub deep_checks_per_epoch: u32,
}

fn default_closed_loop_restore_hours() -> f64 {
    24.0
}
fn default_deep_checks_per_epoch() -> u32 {
    8
}

impl Default for ClosedLoopConfig {
    fn default() -> ClosedLoopConfig {
        ClosedLoopConfig {
            feedback: false,
            triage_latency_hours: default_triage_latency_hours(),
            restore_latency_hours: default_closed_loop_restore_hours(),
            deep_checks_per_epoch: default_deep_checks_per_epoch(),
        }
    }
}

/// Structured-tracing block: whether runs record telemetry through
/// `mercurial-trace`. Off by default — a disabled recorder costs one
/// branch per call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Master switch for span/event/metric recording.
    #[serde(default)]
    pub enabled: bool,
}

/// Alert-rule block for `mercurial-watch` (off by default, like `trace`).
///
/// The threshold knobs mirror the PR-3 `tuning` pattern: every limit that
/// would otherwise be hard-coded in `crates/watch` lives here with a
/// serde default, so rule files and scenario JSON can tune them without
/// code changes. [`WatchConfig::rule_set`] expands the knobs into the
/// default rule set and appends any custom `rules`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WatchConfig {
    /// Whether the closed-loop driver evaluates rules in-loop (emitting
    /// `alert.fired` trace instants and a `WatchReport` on the outcome).
    #[serde(default)]
    pub enabled: bool,
    /// Threshold for the per-epoch corrupt-ops rule: fire when any single
    /// epoch draws more corruption than this.
    #[serde(default = "default_max_corrupt_ops_per_epoch")]
    pub max_corrupt_ops_per_epoch: f64,
    /// Rate budget for the capacity rule: fire when schedulable capacity
    /// drops by more than this fraction of nominal between two epochs.
    #[serde(default = "default_max_capacity_drop_per_epoch")]
    pub max_capacity_drop_per_epoch: f64,
    /// SLO for the latency-percentile rule: fire when the end-of-run
    /// `detect.latency_hours` p95 reaches this many hours.
    #[serde(default = "default_max_detect_latency_p95_hours")]
    pub max_detect_latency_p95_hours: f64,
    /// Fractional tolerance band of the cross-run regression rules.
    #[serde(default = "default_regression_tolerance")]
    pub regression_tolerance: f64,
    /// Extra rules appended after the defaults (rule-file grammar).
    #[serde(default)]
    pub rules: Vec<mercurial_watch::Rule>,
}

// The paper-scale scenario (seed 24301, feedback on) peaks at ~17.2k
// residual corrupt ops in its worst epoch and lands detect-latency p95 at
// ~3650 h (one full offline sweep: 10 intervals × 365 h covering 10% of
// the fleet each). The defaults leave ~2-3× headroom over those healthy
// readings, so a quiet fleet never fires and a halved screening cadence
// does.
fn default_max_corrupt_ops_per_epoch() -> f64 {
    50_000.0
}
fn default_max_capacity_drop_per_epoch() -> f64 {
    0.001
}
fn default_max_detect_latency_p95_hours() -> f64 {
    4_500.0
}
fn default_regression_tolerance() -> f64 {
    0.25
}

impl Default for WatchConfig {
    fn default() -> WatchConfig {
        WatchConfig {
            enabled: false,
            max_corrupt_ops_per_epoch: default_max_corrupt_ops_per_epoch(),
            max_capacity_drop_per_epoch: default_max_capacity_drop_per_epoch(),
            max_detect_latency_p95_hours: default_max_detect_latency_p95_hours(),
            regression_tolerance: default_regression_tolerance(),
            rules: Vec::new(),
        }
    }
}

impl WatchConfig {
    /// Expand the knobs into the default six-rule set (three invariants,
    /// three cross-run regressions) plus any custom rules.
    pub fn rule_set(&self) -> mercurial_watch::RuleSet {
        use mercurial_watch::{Cmp, EpochField, Rule, RuleKind, Source};
        let mut rules = vec![
            Rule {
                scope: Default::default(),
                name: "epoch-corrupt-ops".to_string(),
                kind: RuleKind::Threshold {
                    source: Source::EpochMax(EpochField::CorruptOps),
                    op: Cmp::Gt,
                    limit: self.max_corrupt_ops_per_epoch,
                },
            },
            Rule {
                scope: Default::default(),
                name: "capacity-drop-rate".to_string(),
                kind: RuleKind::Rate {
                    field: EpochField::Capacity,
                    max_drop_per_epoch: self.max_capacity_drop_per_epoch,
                },
            },
            Rule {
                scope: Default::default(),
                name: "detect-latency-p95".to_string(),
                kind: RuleKind::Percentile {
                    histogram: "detect.latency_hours".to_string(),
                    q: 0.95,
                    op: Cmp::Ge,
                    limit: self.max_detect_latency_p95_hours,
                },
            },
            Rule {
                scope: Default::default(),
                name: "baseline-detect-latency-p95".to_string(),
                kind: RuleKind::Regression {
                    source: Source::Quantile {
                        histogram: "detect.latency_hours".to_string(),
                        q: 0.95,
                    },
                    tolerance_frac: self.regression_tolerance,
                },
            },
            Rule {
                scope: Default::default(),
                name: "baseline-residual-corrupt-ops".to_string(),
                kind: RuleKind::Regression {
                    source: Source::EpochSum(EpochField::CorruptOps),
                    tolerance_frac: self.regression_tolerance,
                },
            },
            Rule {
                scope: Default::default(),
                name: "baseline-capacity-trough".to_string(),
                kind: RuleKind::Regression {
                    source: Source::EpochMin(EpochField::Capacity),
                    tolerance_frac: self.regression_tolerance,
                },
            },
        ];
        rules.extend(self.rules.iter().cloned());
        mercurial_watch::RuleSet { rules }
    }
}

/// Per-link impairment model for the served (worker/server) topology.
///
/// Applied deterministically at the server's ingest point to **evidence**
/// frames only — the reliable lockstep command/report channel stays
/// intact, the suspect-signal telemetry riding beside it does not. Each
/// decision is a pure function of `(seed, worker, epoch, frame)`, so an
/// impaired run is exactly reproducible, and the loss draw uses the
/// shared-uniform coupling (`u < p`) so raising `loss` can only drop a
/// superset of the frames a lower setting dropped.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ImpairConfig {
    /// Seed of the impairment draws (independent of the fleet seed).
    #[serde(default = "default_impair_seed")]
    pub seed: u64,
    /// Probability an evidence frame is silently dropped.
    #[serde(default)]
    pub loss: f64,
    /// Maximum whole-epoch delivery delay; each frame draws a delay
    /// uniformly from `0..=max_delay_epochs`.
    #[serde(default)]
    pub max_delay_epochs: u32,
    /// Probability a delivered frame arrives twice (the duplicate is not
    /// deduplicated downstream, exactly like a redelivered datagram).
    #[serde(default)]
    pub duplicate: f64,
    /// Probability a delivered frame swaps places with its successor in
    /// the per-epoch arrival order.
    #[serde(default)]
    pub reorder: f64,
}

fn default_impair_seed() -> u64 {
    0x11F7
}

impl Default for ImpairConfig {
    fn default() -> ImpairConfig {
        ImpairConfig {
            seed: default_impair_seed(),
            loss: 0.0,
            max_delay_epochs: 0,
            duplicate: 0.0,
            reorder: 0.0,
        }
    }
}

impl ImpairConfig {
    /// True when every impairment knob is at its do-nothing setting — the
    /// configuration under which the served run must reproduce the
    /// in-process closed loop bit-for-bit.
    pub fn is_noop(&self) -> bool {
        self.loss == 0.0
            && self.max_delay_epochs == 0
            && self.duplicate == 0.0
            && self.reorder == 0.0
    }
}

/// Service-topology block for `mercurial-serve` (fleet-as-a-service):
/// how many shard workers the fleet splits across and what the links
/// between them suffer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// Fleet-shard worker processes (machines are split into this many
    /// contiguous ranges).
    #[serde(default = "default_serve_workers")]
    pub workers: u32,
    /// Link impairment applied to worker→server evidence frames.
    #[serde(default)]
    pub impair: ImpairConfig,
}

fn default_serve_workers() -> u32 {
    1
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: default_serve_workers(),
            impair: ImpairConfig::default(),
        }
    }
}

/// One class's starting mitigation policy in the `workloads` block.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassPolicy {
    /// Workload-class name (one of the default mix's names, e.g.
    /// `"data-pipeline"`).
    pub class: String,
    /// The policy the class starts the run under.
    pub policy: MitigationPolicy,
}

/// Workload-class block (off by default): promotes workload from a
/// construction-time detail to a first-class experiment layer.
///
/// When `enabled`, every class in the default mix gets a deterministic
/// diurnal traffic shape (shared `traffic_amplitude`, phases staggered
/// six hours per class so peaks don't align) and starts under its
/// configured [`MitigationPolicy`]; the closed loop can escalate a
/// class's policy when its per-epoch corruption crosses
/// `escalate_threshold` (`adapt`). Disabled — the default, and what any
/// legacy scenario JSON parses to — means today's flat traffic and zero
/// mitigation, bit-for-bit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadsConfig {
    /// Master switch for the workload layer.
    #[serde(default)]
    pub enabled: bool,
    /// Diurnal amplitude applied to every class's op rate (0 = flat).
    #[serde(default = "default_traffic_amplitude")]
    pub traffic_amplitude: f64,
    /// Starting policy per class; classes absent here start at
    /// [`MitigationPolicy::None`].
    #[serde(default)]
    pub policies: Vec<ClassPolicy>,
    /// Closed-loop adaptation: escalate a class's policy one rung when
    /// its corrupt-ops in a single epoch exceed `escalate_threshold`.
    #[serde(default)]
    pub adapt: bool,
    /// Per-class, per-epoch corrupt-ops threshold for escalation.
    #[serde(default = "default_escalate_threshold")]
    pub escalate_threshold: u64,
}

fn default_traffic_amplitude() -> f64 {
    0.4
}
fn default_escalate_threshold() -> u64 {
    200_000
}

impl Default for WorkloadsConfig {
    fn default() -> WorkloadsConfig {
        WorkloadsConfig {
            enabled: false,
            traffic_amplitude: default_traffic_amplitude(),
            policies: Vec::new(),
            adapt: false,
            escalate_threshold: default_escalate_threshold(),
        }
    }
}

impl WorkloadsConfig {
    /// Initial per-class policies in class-index order; classes not
    /// named in `policies` (and every class when the block is disabled)
    /// start at [`MitigationPolicy::None`].
    pub fn initial_policies(&self, class_names: &[String]) -> Vec<MitigationPolicy> {
        class_names
            .iter()
            .map(|name| {
                if !self.enabled {
                    return MitigationPolicy::None;
                }
                self.policies
                    .iter()
                    .find(|cp| &cp.class == name)
                    .map(|cp| cp.policy)
                    .unwrap_or(MitigationPolicy::None)
            })
            .collect()
    }

    /// The traffic shape class `ix` runs under: flat when the block is
    /// disabled (or the amplitude is zero), else a diurnal shape with
    /// the shared amplitude and a per-class six-hour phase stagger.
    pub fn shape_for(&self, ix: usize) -> TrafficShape {
        if !self.enabled || self.traffic_amplitude == 0.0 {
            return TrafficShape::default();
        }
        TrafficShape::diurnal(self.traffic_amplitude, ix as f64 * 6.0)
    }
}

/// Decision-audit block (off by default): whether runs keep a provenance
/// ledger of every operational decision for ground-truth attribution.
///
/// Enabling audit forces tracing on (the ledger is derived from the trace
/// event stream, which is also what makes the offline replay over exported
/// JSONL reproduce the in-loop ledger byte-for-byte). With the block
/// absent — the default, and what legacy scenario JSON parses to — no
/// extra events are recorded and every output is bit-identical to the
/// pre-audit tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AuditConfig {
    /// Master switch for decision-provenance recording.
    #[serde(default)]
    pub enabled: bool,
    /// Maximum per-core case files in exported/rendered case output
    /// (fullest cases first, matching the timeline exporter's cap).
    #[serde(default = "default_audit_max_cases")]
    pub max_cases: usize,
}

fn default_audit_max_cases() -> usize {
    40
}

impl Default for AuditConfig {
    fn default() -> AuditConfig {
        AuditConfig {
            enabled: false,
            max_cases: default_audit_max_cases(),
        }
    }
}

/// A complete experiment configuration.
///
/// Scenarios serialize to JSON so experiment parameters live in files and
/// reports can embed the exact configuration that produced them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable name.
    pub name: String,
    /// Fleet shape and product mix.
    pub fleet: FleetConfig,
    /// Signal-simulation parameters.
    pub sim: SimConfig,
    /// Scoreboard suspicion threshold above which a core goes to triage.
    pub suspicion_threshold: f64,
    /// Offline-screening sweep interval in hours.
    pub offline_interval_hours: f64,
    /// Fraction of the fleet each offline sweep visits.
    pub offline_fraction: f64,
    /// Online screening pass interval in hours.
    pub online_interval_hours: f64,
    /// Fuzz-distilled screening-corpus options.
    pub fuzz_corpus: FuzzCorpusConfig,
    /// Formerly hard-coded pipeline constants.
    #[serde(default)]
    pub tuning: PipelineTuning,
    /// Closed-loop (epoch-interleaved) pipeline policy.
    #[serde(default)]
    pub closed_loop: ClosedLoopConfig,
    /// Structured-tracing options (off by default).
    #[serde(default)]
    pub trace: TraceConfig,
    /// Alert-rule options (off by default).
    #[serde(default)]
    pub watch: WatchConfig,
    /// Served-topology options (single worker, clean links by default).
    #[serde(default)]
    pub serve: ServeConfig,
    /// Workload-class layer: traffic shapes and per-class mitigation
    /// (flat traffic, zero mitigation by default).
    #[serde(default)]
    pub workloads: WorkloadsConfig,
    /// Decision-audit layer: provenance ledger and ground-truth
    /// attribution (off by default).
    #[serde(default)]
    pub audit: AuditConfig,
}

impl Scenario {
    /// The paper-scale default: 20,000 machines observed for 36 months,
    /// deployed continuously across the window (fleets grow; §4 worries
    /// about "the ongoing arrival of new kinds of CPU parts").
    pub fn default_paper() -> Scenario {
        let mut fleet = FleetConfig::default_fleet();
        fleet.rollout_months = 36;
        Scenario {
            name: "paper-scale".to_string(),
            fleet,
            sim: SimConfig::default(),
            suspicion_threshold: 0.6,
            offline_interval_hours: 365.0,
            offline_fraction: 0.10,
            online_interval_hours: 73.0,
            fuzz_corpus: FuzzCorpusConfig::default(),
            tuning: PipelineTuning::default(),
            closed_loop: ClosedLoopConfig::default(),
            trace: TraceConfig::default(),
            watch: WatchConfig::default(),
            serve: ServeConfig::default(),
            workloads: WorkloadsConfig::default(),
            audit: AuditConfig::default(),
        }
    }

    /// A laptop-friendly small scenario (2,000 machines, 18 months) with
    /// the seed folded in, for tests and examples.
    pub fn small(seed: u64) -> Scenario {
        let mut s = Scenario::default_paper();
        s.name = format!("small-{seed}");
        s.fleet.machines = 1_500;
        s.fleet.seed = seed;
        s.fleet.rollout_months = 18;
        s.sim.months = 18;
        s.online_interval_hours = 146.0;
        s
    }

    /// A small scenario with **boosted incidence** (8× the catalog rates):
    /// a 1,500-machine fleet only hosts a couple of mercurial cores at the
    /// true rate, which makes figures degenerate. The boost keeps the
    /// phenomena visible at laptop scale; `default_paper` keeps the honest
    /// rate for the headline incidence experiment.
    pub fn demo(seed: u64) -> Scenario {
        let mut s = Scenario::small(seed);
        s.name = format!("demo-{seed}");
        for p in &mut s.fleet.products {
            p.mercurial_rate_per_core *= 8.0;
        }
        s
    }

    /// Total observation window in hours.
    pub fn window_hours(&self) -> f64 {
        self.sim.months as f64 * 730.0
    }

    /// The run's recorder. The `audit` block makes it audit, which
    /// implies recording (the decision ledger is derived from the trace,
    /// so auditing an untraced run would observe nothing); else the
    /// `trace` block decides whether it records. Every audit decision of
    /// a run asks this recorder (`Recorder::audits`), not the scenario.
    pub fn recorder(&self) -> mercurial_trace::Recorder {
        use mercurial_trace::TraceLevel;
        mercurial_trace::Recorder::new(if self.audit.enabled {
            TraceLevel::Audit
        } else if self.trace.enabled {
            TraceLevel::Record
        } else {
            TraceLevel::Off
        })
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scenario serializes")
    }

    /// Parses from JSON and rejects values the simulation cannot run.
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error message, or a message naming
    /// the offending field: `fleet.machines` or `fleet.sockets_per_machine`
    /// when it is 0, `fleet.products` when the catalog is empty or its
    /// weights do not sum to a positive number, and `sim.epoch_hours`,
    /// `offline_interval_hours` or `online_interval_hours` when it is not
    /// positive and finite.
    pub fn from_json(json: &str) -> Result<Scenario, String> {
        let scenario: Scenario = serde_json::from_str(json).map_err(|e| e.to_string())?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Boundary checks for knobs later layers divide by, draw from or
    /// step by: an empty fleet (the offline sweep rotation takes a
    /// remainder by the machine count), zero sockets (the noise layer
    /// draws a socket below the count), zero serve workers (the served
    /// topology splits the fleet into that many shards), an empty or
    /// weightless product catalog (the topology draws machines by
    /// weight), a catalog of more than 256 products (the topology keeps
    /// a machine's product index in one byte), a
    /// negative or non-finite product weight, a run of zero months, a
    /// non-positive or non-finite epoch or screening interval (the epoch
    /// count would be unbounded; a campaign would never advance), a
    /// negative or non-finite triage or restore latency (added to an
    /// hour the loop schedules) or offline drain (machine-hours booked),
    /// and a rate, share, fraction, threshold or amplitude outside
    /// [0, 1].
    fn validate(&self) -> Result<(), String> {
        if self.fleet.machines == 0 {
            return Err("fleet.machines must be at least 1, got 0".to_string());
        }
        if self.fleet.sockets_per_machine == 0 {
            return Err("fleet.sockets_per_machine must be at least 1, got 0".to_string());
        }
        if self.serve.workers == 0 {
            return Err("serve.workers must be at least 1, got 0".to_string());
        }
        if self.fleet.products.is_empty() {
            return Err("fleet.products must list at least one product".to_string());
        }
        // A machine's product index is one byte.
        if self.fleet.products.len() > 256 {
            return Err(format!(
                "fleet.products must list at most 256 products, got {}",
                self.fleet.products.len()
            ));
        }
        for (i, p) in self.fleet.products.iter().enumerate() {
            let w = p.fleet_weight;
            if !(w.is_finite() && w >= 0.0) {
                return Err(format!(
                    "fleet.products[{i}].fleet_weight must be non-negative and finite, got {w}"
                ));
            }
            if p.cores_per_socket == 0 {
                return Err(format!(
                    "fleet.products[{i}].cores_per_socket must be at least 1, got 0"
                ));
            }
            if p.dvfs.steps().is_empty() {
                return Err(format!(
                    "fleet.products[{i}].dvfs.steps must list at least one step"
                ));
            }
            let rate = p.mercurial_rate_per_core;
            if !(0.0..=1.0).contains(&rate) {
                return Err(format!(
                    "fleet.products[{i}].mercurial_rate_per_core must be in [0, 1], got {rate}"
                ));
            }
        }
        let weight: f64 = self.fleet.products.iter().map(|p| p.fleet_weight).sum();
        if !(weight.is_finite() && weight > 0.0) {
            return Err(format!(
                "fleet.products weights must sum to a positive finite number, got {weight}"
            ));
        }
        if self.sim.months == 0 {
            return Err("sim.months must be at least 1, got 0".to_string());
        }
        for (field, h) in [
            ("sim.epoch_hours", self.sim.epoch_hours),
            ("offline_interval_hours", self.offline_interval_hours),
            ("online_interval_hours", self.online_interval_hours),
        ] {
            if !(h.is_finite() && h > 0.0) {
                return Err(format!("{field} must be positive and finite, got {h}"));
            }
        }
        // Latencies the loop adds to an hour (a non-finite hour trips the
        // event queue's finiteness assert; a negative one schedules into
        // the past), and the machine-hours an offline sweep books.
        for (field, h) in [
            (
                "closed_loop.triage_latency_hours",
                self.closed_loop.triage_latency_hours,
            ),
            (
                "closed_loop.restore_latency_hours",
                self.closed_loop.restore_latency_hours,
            ),
            (
                "tuning.triage_latency_hours",
                self.tuning.triage_latency_hours,
            ),
            (
                "tuning.restore_latency_hours",
                self.tuning.restore_latency_hours,
            ),
            (
                "tuning.offline_drain_hours_per_machine",
                self.tuning.offline_drain_hours_per_machine,
            ),
        ] {
            if !(h.is_finite() && h >= 0.0) {
                return Err(format!("{field} must be non-negative and finite, got {h}"));
            }
        }
        // Per-machine-hour noise rates, probabilities, fractions and a
        // suspicion level: each lies in [0, 1] (and so is finite). A huge
        // rate would make the noise layer's Poisson draw saturate and
        // loop for ever; a fraction outside [0, 1] screens a negative or
        // more-than-whole share; a threshold above 1 is never reached
        // (suspicion stays below 1); an amplitude above 1 swings the
        // traffic intensity `1 + amplitude · sin` below zero.
        for (field, p) in [
            ("sim.noise_crash_rate", self.sim.noise_crash_rate),
            ("sim.noise_report_rate", self.sim.noise_report_rate),
            ("sim.machine_check_share", self.sim.machine_check_share),
            (
                "tuning.online_ops_fraction",
                self.tuning.online_ops_fraction,
            ),
            ("offline_fraction", self.offline_fraction),
            ("suspicion_threshold", self.suspicion_threshold),
            (
                "workloads.traffic_amplitude",
                self.workloads.traffic_amplitude,
            ),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{field} must be in [0, 1], got {p}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip() {
        let s = Scenario::small(7);
        let json = s.to_json();
        let back = Scenario::from_json(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn bad_json_is_an_error() {
        assert!(Scenario::from_json("{not json").is_err());
    }

    #[test]
    fn zero_machines_is_rejected_naming_the_field() {
        let mut s = Scenario::small(7);
        s.fleet.machines = 0;
        let err = Scenario::from_json(&s.to_json()).unwrap_err();
        assert!(err.contains("fleet.machines"), "{err}");
    }

    #[test]
    fn more_than_256_products_is_rejected_naming_the_field() {
        let mut s = Scenario::small(7);
        let product = s.fleet.products[0].clone();
        s.fleet.products = vec![product; 256];
        assert!(Scenario::from_json(&s.to_json()).is_ok());
        s.fleet.products.push(s.fleet.products[0].clone());
        let err = Scenario::from_json(&s.to_json()).unwrap_err();
        assert!(err.contains("fleet.products"), "{err}");
    }

    #[test]
    fn non_positive_epoch_hours_is_rejected_naming_the_field() {
        for hours in [0.0, -73.0] {
            let mut s = Scenario::small(7);
            s.sim.epoch_hours = hours;
            let err = Scenario::from_json(&s.to_json()).unwrap_err();
            assert!(err.contains("sim.epoch_hours"), "{hours}: {err}");
        }
    }

    /// Non-finite values cannot travel through JSON (serde writes them as
    /// `null`), so these checks call `validate` directly.
    fn rejection(mutate: impl Fn(&mut Scenario)) -> String {
        let mut s = Scenario::small(7);
        mutate(&mut s);
        s.validate().unwrap_err()
    }

    #[test]
    fn bad_online_interval_is_rejected_naming_the_field() {
        for hours in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = rejection(|s| s.online_interval_hours = hours);
            assert!(err.contains("online_interval_hours"), "{hours}: {err}");
        }
    }

    #[test]
    fn bad_offline_interval_is_rejected_naming_the_field() {
        for hours in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let err = rejection(|s| s.offline_interval_hours = hours);
            assert!(err.contains("offline_interval_hours"), "{hours}: {err}");
        }
    }

    #[test]
    fn zero_sockets_is_rejected_naming_the_field() {
        let err = rejection(|s| s.fleet.sockets_per_machine = 0);
        assert!(err.contains("fleet.sockets_per_machine"), "{err}");
    }

    #[test]
    fn empty_or_weightless_catalog_is_rejected_naming_the_field() {
        let err = rejection(|s| s.fleet.products.clear());
        assert!(err.contains("fleet.products"), "{err}");
        let err = rejection(|s| {
            for p in &mut s.fleet.products {
                p.fleet_weight = 0.0;
            }
        });
        assert!(err.contains("fleet.products"), "{err}");
    }

    #[test]
    fn zero_cores_per_socket_is_rejected_naming_the_field() {
        let err = rejection(|s| s.fleet.products[1].cores_per_socket = 0);
        assert!(err.contains("fleet.products[1].cores_per_socket"), "{err}");
    }

    #[test]
    fn empty_dvfs_curve_is_rejected_naming_the_field() {
        // `DvfsCurve::new` refuses an empty curve, so build it the way a
        // scenario file does: through serde.
        let mut s = Scenario::small(7);
        s.fleet.products[0].dvfs = serde_json::from_str(r#"{"steps": []}"#).unwrap();
        let err = s.validate().unwrap_err();
        assert!(err.contains("fleet.products[0].dvfs.steps"), "{err}");
    }

    #[test]
    fn bad_mercurial_rate_is_rejected_naming_the_field() {
        for rate in [-1e-6, 1.5, 2.0, f64::NAN, f64::INFINITY] {
            let err = rejection(|s| s.fleet.products[2].mercurial_rate_per_core = rate);
            assert!(
                err.contains("fleet.products[2].mercurial_rate_per_core"),
                "{rate}: {err}"
            );
        }
        for rate in [0.0, 1.0] {
            let mut s = Scenario::small(7);
            s.fleet.products[2].mercurial_rate_per_core = rate;
            assert_eq!(s.validate(), Ok(()), "{rate} is a probability");
        }
    }

    #[test]
    fn bad_latencies_and_drain_are_rejected_naming_the_field() {
        type Field = fn(&mut Scenario) -> &mut f64;
        let fields: [(&str, Field); 5] = [
            ("closed_loop.triage_latency_hours", |s| {
                &mut s.closed_loop.triage_latency_hours
            }),
            ("closed_loop.restore_latency_hours", |s| {
                &mut s.closed_loop.restore_latency_hours
            }),
            ("tuning.triage_latency_hours", |s| {
                &mut s.tuning.triage_latency_hours
            }),
            ("tuning.restore_latency_hours", |s| {
                &mut s.tuning.restore_latency_hours
            }),
            ("tuning.offline_drain_hours_per_machine", |s| {
                &mut s.tuning.offline_drain_hours_per_machine
            }),
        ];
        for (name, field) in fields {
            for bad in [-1e-6, -72.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let err = rejection(|s| *field(s) = bad);
                assert!(err.contains(name), "{name} = {bad}: {err}");
            }
            for ok in [0.0, 1e6] {
                let mut s = Scenario::small(7);
                *field(&mut s) = ok;
                assert_eq!(s.validate(), Ok(()), "{name} = {ok}");
            }
        }
        // A scenario file can spell an infinite latency as `1e999`.
        let mut s = Scenario::small(7);
        s.closed_loop.triage_latency_hours = 12_345.5;
        let json = s.to_json().replace("12345.5", "1e999");
        let err = Scenario::from_json(&json).unwrap_err();
        assert!(err.contains("closed_loop.triage_latency_hours"), "{err}");
    }

    #[test]
    fn bad_product_weight_and_zero_months_are_rejected_naming_the_field() {
        // A negative weight is rejected even while the sum stays positive.
        for bad in [-0.2, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = rejection(|s| s.fleet.products[1].fleet_weight = bad);
            assert!(
                err.contains("fleet.products[1].fleet_weight"),
                "{bad}: {err}"
            );
        }
        let mut s = Scenario::small(7);
        s.fleet.products[1].fleet_weight = 0.0;
        assert_eq!(s.validate(), Ok(()), "a zero weight leaves a product out");
        let err = rejection(|s| s.sim.months = 0);
        assert!(err.contains("sim.months"), "{err}");
    }

    #[test]
    fn fields_outside_the_unit_interval_are_rejected_naming_the_field() {
        type Field = fn(&mut Scenario) -> &mut f64;
        let fields: [(&str, Field); 7] = [
            ("sim.noise_crash_rate", |s| &mut s.sim.noise_crash_rate),
            ("sim.noise_report_rate", |s| &mut s.sim.noise_report_rate),
            ("sim.machine_check_share", |s| {
                &mut s.sim.machine_check_share
            }),
            ("tuning.online_ops_fraction", |s| {
                &mut s.tuning.online_ops_fraction
            }),
            ("offline_fraction", |s| &mut s.offline_fraction),
            ("suspicion_threshold", |s| &mut s.suspicion_threshold),
            ("workloads.traffic_amplitude", |s| {
                &mut s.workloads.traffic_amplitude
            }),
        ];
        for (name, field) in fields {
            for bad in [-1.0, -1e-6, 1.5, 1e300, f64::NAN, f64::INFINITY] {
                let err = rejection(|s| *field(s) = bad);
                assert!(err.contains(name), "{name} = {bad}: {err}");
            }
            for ok in [0.0, 1.0] {
                let mut s = Scenario::small(7);
                *field(&mut s) = ok;
                assert_eq!(s.validate(), Ok(()), "{name} = {ok}");
            }
        }
        // A scenario file can spell an infinite threshold as `1e999`.
        let mut s = Scenario::small(7);
        s.suspicion_threshold = 0.123_25;
        let json = s.to_json().replace("0.12325", "1e999");
        let err = Scenario::from_json(&json).unwrap_err();
        assert!(err.contains("suspicion_threshold"), "{err}");
    }

    #[test]
    fn legacy_json_without_new_blocks_parses_to_defaults() {
        // Scenario JSON written before `tuning` / `closed_loop` existed
        // must keep parsing, with the historical constants filled in.
        use serde::{Deserialize, Serialize};
        let mut s = Scenario::small(7);
        s.tuning.burnin_ops_multiplier = 9; // non-default, must NOT survive
        s.closed_loop.feedback = true;
        s.trace.enabled = true;
        s.watch.enabled = true;
        s.serve.workers = 3; // non-default, must NOT survive
        s.workloads.enabled = true;
        s.audit.enabled = true;
        let mut v = s.to_value();
        let serde::Value::Object(entries) = &mut v else {
            panic!("scenario serializes to an object");
        };
        let before = entries.len();
        entries.retain(|(k, _)| {
            k != "tuning"
                && k != "closed_loop"
                && k != "trace"
                && k != "watch"
                && k != "serve"
                && k != "workloads"
                && k != "audit"
        });
        assert_eq!(
            entries.len(),
            before - 7,
            "test must strip all seven blocks"
        );
        let back = Scenario::from_value(&v).unwrap();
        assert_eq!(back.tuning, PipelineTuning::default());
        assert_eq!(back.closed_loop, ClosedLoopConfig::default());
        assert_eq!(back.trace, TraceConfig::default());
        assert_eq!(back.watch, WatchConfig::default());
        assert_eq!(back.serve, ServeConfig::default());
        assert_eq!(back.workloads, WorkloadsConfig::default());
        assert_eq!(back.audit, AuditConfig::default());
        assert!(!back.workloads.enabled, "workload layer defaults to off");
        assert!(!back.audit.enabled, "audit layer defaults to off");
        assert_eq!(back.audit.max_cases, 40);
        assert_eq!(back.serve.workers, 1);
        assert!(back.serve.impair.is_noop());
        assert!(!back.trace.enabled, "tracing defaults to off");
        assert!(!back.watch.enabled, "watch defaults to off");
        assert_eq!(back.tuning.triage_latency_hours, 72.0);
        assert_eq!(back.tuning.restore_latency_hours, 96.0);
        assert_eq!(back.tuning.burnin_ops_multiplier, 5);
        assert_eq!(back.tuning.offline_drain_hours_per_machine, 0.5);
        assert_eq!(back.tuning.online_ops_fraction, 0.05);
        assert!(!back.closed_loop.feedback);
    }

    #[test]
    fn partial_tuning_block_fills_missing_knobs() {
        // Per-field serde defaults: specifying one knob leaves the rest
        // at their historical values.
        let json = r#"{"enabled_unused": 0, "triage_latency_hours": 48.0}"#;
        let t: PipelineTuning = serde_json::from_str(json).unwrap();
        assert_eq!(t.triage_latency_hours, 48.0);
        assert_eq!(t.restore_latency_hours, 96.0);
        assert_eq!(t.burnin_ops_multiplier, 5);
    }

    #[test]
    fn partial_watch_block_fills_missing_knobs_and_validates() {
        let json = r#"{"enabled": true, "max_corrupt_ops_per_epoch": 123.0}"#;
        let w: WatchConfig = serde_json::from_str(json).unwrap();
        assert!(w.enabled);
        assert_eq!(w.max_corrupt_ops_per_epoch, 123.0);
        assert_eq!(
            w.max_capacity_drop_per_epoch,
            default_max_capacity_drop_per_epoch()
        );
        assert!(w.rules.is_empty());
        let set = w.rule_set();
        assert_eq!(set.rules.len(), 6);
        set.validate().expect("default rule set validates");
        // Custom rules append after the defaults.
        let mut with_custom = w.clone();
        with_custom.rules.push(mercurial_watch::Rule {
            scope: Default::default(),
            name: "custom".to_string(),
            kind: mercurial_watch::RuleKind::Threshold {
                source: mercurial_watch::Source::Counter("sim.corruptions".to_string()),
                op: mercurial_watch::Cmp::Gt,
                limit: 1e9,
            },
        });
        let set = with_custom.rule_set();
        assert_eq!(set.rules.len(), 7);
        assert_eq!(set.rules[6].name, "custom");
        set.validate().expect("custom rule set validates");
    }

    #[test]
    fn workloads_block_roundtrips_with_nondefault_settings() {
        let mut s = Scenario::small(7);
        s.workloads.enabled = true;
        s.workloads.traffic_amplitude = 0.7;
        s.workloads.adapt = true;
        s.workloads.escalate_threshold = 123;
        s.workloads.policies = vec![
            ClassPolicy {
                class: "database".to_string(),
                policy: MitigationPolicy::Dmr,
            },
            ClassPolicy {
                class: "crypto-frontend".to_string(),
                policy: MitigationPolicy::E2eChecksum,
            },
        ];
        let back = Scenario::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.workloads.policies[0].policy, MitigationPolicy::Dmr);
    }

    #[test]
    fn partial_workloads_block_fills_missing_knobs() {
        let json = r#"{"enabled": true, "policies": [{"class": "database", "policy": "Tmr"}]}"#;
        let w: WorkloadsConfig = serde_json::from_str(json).unwrap();
        assert!(w.enabled);
        assert_eq!(w.traffic_amplitude, default_traffic_amplitude());
        assert!(!w.adapt);
        assert_eq!(w.escalate_threshold, default_escalate_threshold());
        assert_eq!(w.policies.len(), 1);
        assert_eq!(w.policies[0].policy, MitigationPolicy::Tmr);
    }

    #[test]
    fn workloads_policy_lookup_and_shapes() {
        let names = vec![
            "data-pipeline".to_string(),
            "database".to_string(),
            "unknown".to_string(),
        ];
        let mut w = WorkloadsConfig {
            enabled: true,
            ..WorkloadsConfig::default()
        };
        w.policies.push(ClassPolicy {
            class: "database".to_string(),
            policy: MitigationPolicy::Dmr,
        });
        assert_eq!(
            w.initial_policies(&names),
            vec![
                MitigationPolicy::None,
                MitigationPolicy::Dmr,
                MitigationPolicy::None
            ]
        );
        // Enabled: staggered diurnal shapes, one phase per class.
        assert!(!w.shape_for(0).is_flat());
        assert_ne!(w.shape_for(0), w.shape_for(1));
        // Disabled block: every policy None, every shape flat.
        let off = WorkloadsConfig {
            enabled: false,
            ..w.clone()
        };
        assert!(off
            .initial_policies(&names)
            .iter()
            .all(|&p| p == MitigationPolicy::None));
        assert!(off.shape_for(0).is_flat());
    }

    #[test]
    fn presets_are_sane() {
        let paper = Scenario::default_paper();
        assert_eq!(paper.fleet.machines, 20_000);
        assert_eq!(paper.sim.months, 36);
        let small = Scenario::small(1);
        assert!(small.fleet.machines < paper.fleet.machines);
        assert!((small.window_hours() - 18.0 * 730.0).abs() < 1e-9);
    }
}
