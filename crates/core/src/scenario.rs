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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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
#[serde(deny_unknown_fields)]
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

    /// Parses from JSON and rejects a scenario that cannot run
    /// ([`Scenario::validate`]). A key no block has is an error naming
    /// it and its block, except the [`RETIRED_KEYS`], which are dropped.
    ///
    /// # Errors
    ///
    /// Returns the serde error message or the [`Scenario::validate`] one.
    pub fn from_json(json: &str) -> Result<Scenario, String> {
        let mut tree: serde_json::Value = serde_json::from_str(json).map_err(|e| e.to_string())?;
        for (block, key) in RETIRED_KEYS {
            if let Some(serde_json::Value::Object(entries)) = tree.pointer_mut(&format!("/{block}"))
            {
                entries.retain(|(k, _)| k != key);
            }
        }
        let scenario = Scenario::from_value(&tree).map_err(|e| e.to_string())?;
        scenario.validate()?;
        Ok(scenario)
    }

    /// Whether this scenario can run: every [`FIELDS`] row in bound, and
    /// a catalog the topology can draw from (at least one product, at
    /// most 256 since a machine's product index is one byte, each with a
    /// DVFS curve, weights summing to a positive finite number).
    ///
    /// # Errors
    ///
    /// A message naming the first field that fails, in table order.
    pub fn validate(&self) -> Result<(), String> {
        FIELDS.iter().try_for_each(|field| field.check(self))?;
        let products = &self.fleet.products;
        if products.is_empty() {
            return Err("fleet.products must list at least one product".to_string());
        }
        if products.len() > 256 {
            let n = products.len();
            return Err(format!(
                "fleet.products must list at most 256 products, got {n}"
            ));
        }
        if let Some(i) = products.iter().position(|p| p.dvfs.steps().is_empty()) {
            return Err(format!(
                "fleet.products[{i}].dvfs.steps must list at least one step"
            ));
        }
        let weight: f64 = products.iter().map(|p| p.fleet_weight).sum();
        if !(weight.is_finite() && weight > 0.0) {
            return Err(format!(
                "fleet.products weights must sum to a positive finite number, got {weight}"
            ));
        }
        Ok(())
    }
}

/// Keys of retired options, as `(block, key)`, that older scenario files
/// carry: the thread-count knob, the second fleet engine, per-machine
/// trace spans. [`Scenario::from_json`] drops them.
pub const RETIRED_KEYS: [(&str, &str); 3] = [
    ("sim", "parallelism"),
    ("sim", "engine"),
    ("trace", "machine_spans"),
];

/// What a bounded numeric field must be.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    /// A count the layers divide by, draw below or split by.
    AtLeastOne,
    /// A step or interval; a zero one never advances.
    Positive,
    /// A latency added to an hour or hours booked; not into the past.
    NonNegative,
    /// A rate, share, fraction, threshold or amplitude.
    UnitInterval,
}

impl Bound {
    /// Whether `v` is within the bound (NaN never is).
    pub fn holds(self, v: f64) -> bool {
        match self {
            Bound::AtLeastOne => v >= 1.0,
            Bound::Positive => v.is_finite() && v > 0.0,
            Bound::NonNegative => v.is_finite() && v >= 0.0,
            Bound::UnitInterval => (0.0..=1.0).contains(&v),
        }
    }

    fn rule(self) -> &'static str {
        match self {
            Bound::AtLeastOne => "at least 1",
            Bound::Positive => "positive and finite",
            Bound::NonNegative => "non-negative and finite",
            Bound::UnitInterval => "in [0, 1]",
        }
    }
}

/// One bounded numeric field of a scenario.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// JSON path, e.g. `sim.epoch_hours`; a field every catalog product
    /// has reads `fleet.products[i].fleet_weight`.
    pub path: &'static str,
    /// Reads the field (of product `i`, on a per-product row).
    pub read: fn(&Scenario, usize) -> f64,
    /// What the field must be.
    pub bound: Bound,
}

impl Field {
    fn check(&self, s: &Scenario) -> Result<(), String> {
        let n = if self.path.contains("[i]") {
            s.fleet.products.len()
        } else {
            1
        };
        let mut values = (0..n).map(|i| (i, (self.read)(s, i)));
        match values.find(|&(_, v)| !self.bound.holds(v)) {
            None => Ok(()),
            Some((i, v)) => {
                let path = self.path.replace("[i]", &format!("[{i}]"));
                Err(format!("{path} must be {}, got {v}", self.bound.rule()))
            }
        }
    }
}

/// Every bounded numeric field of a scenario, in the order
/// [`Scenario::validate`] checks them. `tests/scenario_fields.rs` fails
/// when a numeric field is neither a row here nor on its list of
/// unbounded fields.
#[rustfmt::skip]
pub static FIELDS: [Field; 22] = {
    use Bound::{AtLeastOne, NonNegative, Positive, UnitInterval};
    const fn field(path: &'static str, bound: Bound, read: fn(&Scenario, usize) -> f64) -> Field {
        Field { path, read, bound }
    }
    [
        field("fleet.machines", AtLeastOne, |s, _| f64::from(s.fleet.machines)),
        field("fleet.sockets_per_machine", AtLeastOne, |s, _| f64::from(s.fleet.sockets_per_machine)),
        field("serve.workers", AtLeastOne, |s, _| f64::from(s.serve.workers)),
        field("fleet.products[i].fleet_weight", NonNegative, |s, i| s.fleet.products[i].fleet_weight),
        field("fleet.products[i].cores_per_socket", AtLeastOne, |s, i| {
            f64::from(s.fleet.products[i].cores_per_socket)
        }),
        field("fleet.products[i].mercurial_rate_per_core", UnitInterval, |s, i| {
            s.fleet.products[i].mercurial_rate_per_core
        }),
        field("sim.months", AtLeastOne, |s, _| f64::from(s.sim.months)),
        field("sim.epoch_hours", Positive, |s, _| s.sim.epoch_hours),
        field("offline_interval_hours", Positive, |s, _| s.offline_interval_hours),
        field("online_interval_hours", Positive, |s, _| s.online_interval_hours),
        field("closed_loop.triage_latency_hours", NonNegative, |s, _| s.closed_loop.triage_latency_hours),
        field("closed_loop.restore_latency_hours", NonNegative, |s, _| s.closed_loop.restore_latency_hours),
        field("tuning.triage_latency_hours", NonNegative, |s, _| s.tuning.triage_latency_hours),
        field("tuning.restore_latency_hours", NonNegative, |s, _| s.tuning.restore_latency_hours),
        field("tuning.offline_drain_hours_per_machine", NonNegative, |s, _| {
            s.tuning.offline_drain_hours_per_machine
        }),
        // A noise rate above 1 a machine-hour saturates the Poisson draw,
        // suspicion never reaches a threshold above 1, and an amplitude
        // above 1 swings traffic intensity below zero.
        field("sim.noise_crash_rate", UnitInterval, |s, _| s.sim.noise_crash_rate),
        field("sim.noise_report_rate", UnitInterval, |s, _| s.sim.noise_report_rate),
        field("sim.machine_check_share", UnitInterval, |s, _| s.sim.machine_check_share),
        field("tuning.online_ops_fraction", UnitInterval, |s, _| s.tuning.online_ops_fraction),
        field("offline_fraction", UnitInterval, |s, _| s.offline_fraction),
        field("suspicion_threshold", UnitInterval, |s, _| s.suspicion_threshold),
        field("workloads.traffic_amplitude", UnitInterval, |s, _| s.workloads.traffic_amplitude),
    ]
};

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
        let json = r#"{"triage_latency_hours": 48.0}"#;
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
