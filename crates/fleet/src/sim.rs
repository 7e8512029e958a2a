//! The fleet driver: walks simulated time and emits the signal stream.
//!
//! Per epoch, for every *deployed mercurial core* (healthy cores generate
//! nothing but background noise, so the loop touches only the rare
//! defective ones), the driver:
//!
//! 1. computes per-unit corruption rates from the core's profile under its
//!    machine's workload operands and age (latent defects contribute zero
//!    before onset — §2's "manifest long after initial installation");
//! 2. draws the epoch's corruption count (Poisson);
//! 3. classifies each corruption into the §2 symptom taxonomy given the
//!    afflicted unit and the workload's check coverage, emitting signals
//!    for the observable ones;
//! 4. escalates some detected corruptions into human suspect reports.
//!
//! On top of that it layers background noise — crashes and mistaken user
//! reports with no CEE behind them — because production triage has to work
//! against exactly that haystack (§6: only ≈half of human-identified
//! suspects turn out to be real).

use crate::population::Population;
use crate::signals::{Signal, SignalKind, SignalLog};
use crate::topology::{DeployCursor, FleetTopology};
use crate::workload::WorkloadClass;
use mercurial_fault::{CoreUid, CounterRng, FunctionalUnit, StreamFamily, SymptomClass};
use mercurial_mitigation::redundancy::CostMeter;
use mercurial_mitigation::MitigationPolicy;
use mercurial_trace::Recorder;
use serde::{Deserialize, Serialize};

/// Simulation parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct SimConfig {
    /// Observation window, months (730 h each).
    pub months: u32,
    /// Epoch length in hours (signal batching granularity).
    pub epoch_hours: f64,
    /// Background (non-CEE) crash rate per machine-hour.
    pub noise_crash_rate: f64,
    /// Background (non-CEE) user-report rate per machine-hour — mistaken
    /// accusations from ordinary debugging.
    pub noise_report_rate: f64,
    /// Cap on signals emitted per core per epoch (report deduplication).
    pub per_core_epoch_cap: u32,
    /// Probability that a detected corruption's machine-check path fires
    /// (loud hardware) rather than a software-visible symptom.
    pub machine_check_share: f64,
}

impl Default for SimConfig {
    fn default() -> SimConfig {
        SimConfig {
            months: 36,
            epoch_hours: 73.0, // a tenth of a month
            noise_crash_rate: 2e-5,
            noise_report_rate: 4e-7,
            per_core_epoch_cap: 25,
            machine_check_share: 0.08,
        }
    }
}

/// Aggregate outcome counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SimSummary {
    /// Corruption events drawn (before symptom classification).
    pub corruptions: u64,
    /// §2 symptom tallies, indexed by [`SymptomClass::risk_rank`].
    pub symptom_counts: [u64; 4],
    /// Signals emitted (observable events, capped).
    pub signals_emitted: u64,
    /// Background-noise signals emitted.
    pub noise_signals: u64,
    /// Mercurial cores that produced at least one corruption.
    pub active_mercurial_cores: u64,
}

/// Per-workload-class accounting, kept cumulatively per class in
/// [`SimState`] (snapshot before an epoch and diff after for per-epoch
/// deltas). All fields are plain integer sums, so merging machine shards
/// in any grouping yields the same totals — the same contract as
/// [`SimSummary::merge`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClassTally {
    /// Corruption events drawn on cores running this class.
    pub corrupt_ops: u64,
    /// Corruptions the application's own machinery caught (end-to-end
    /// checksums and replica divergence — the class's built-in defenses,
    /// before any mitigation policy).
    pub app_caught: u64,
    /// Otherwise-silent corruptions the class's [`MitigationPolicy`]
    /// checker caught.
    pub mitigation_caught: u64,
    /// Human suspect reports escalated from this class's detections.
    pub user_reports: u64,
    /// Consequential operations executed under an active (non-`None`)
    /// mitigation policy — the denominator of the overhead fraction.
    pub mitigated_ops: u64,
    /// Metered mitigation work: redundant executions and check/compare
    /// steps (`(executions + comparisons) / mitigated_ops` is the
    /// policy's overhead fraction).
    pub cost: CostMeter,
}

impl ClassTally {
    /// Adds another tally's counters into this one.
    pub fn merge(&mut self, other: &ClassTally) {
        self.corrupt_ops += other.corrupt_ops;
        self.app_caught += other.app_caught;
        self.mitigation_caught += other.mitigation_caught;
        self.user_reports += other.user_reports;
        self.mitigated_ops += other.mitigated_ops;
        self.cost.executions += other.cost.executions;
        self.cost.comparisons += other.cost.comparisons;
        self.cost.retries += other.cost.retries;
    }

    /// This tally minus an earlier snapshot of itself (per-epoch delta).
    pub fn delta_since(&self, earlier: &ClassTally) -> ClassTally {
        ClassTally {
            corrupt_ops: self.corrupt_ops - earlier.corrupt_ops,
            app_caught: self.app_caught - earlier.app_caught,
            mitigation_caught: self.mitigation_caught - earlier.mitigation_caught,
            user_reports: self.user_reports - earlier.user_reports,
            mitigated_ops: self.mitigated_ops - earlier.mitigated_ops,
            cost: CostMeter {
                executions: self.cost.executions - earlier.cost.executions,
                comparisons: self.cost.comparisons - earlier.cost.comparisons,
                retries: self.cost.retries - earlier.cost.retries,
            },
        }
    }

    /// Total metered mitigation work (extra executions plus checks).
    pub fn overhead_ops(&self) -> u64 {
        self.cost.executions + self.cost.comparisons + self.cost.retries
    }
}

impl SimSummary {
    /// The count for one symptom class.
    pub fn symptom_count(&self, class: SymptomClass) -> u64 {
        self.symptom_counts[class.risk_rank() as usize]
    }

    /// Adds another summary's counters into this one. All fields are
    /// plain sums, so merging machine shards in any grouping yields the
    /// same totals.
    pub fn merge(&mut self, other: &SimSummary) {
        self.corruptions += other.corruptions;
        for (mine, theirs) in self.symptom_counts.iter_mut().zip(other.symptom_counts) {
            *mine += theirs;
        }
        self.signals_emitted += other.signals_emitted;
        self.noise_signals += other.noise_signals;
        self.active_mercurial_cores += other.active_mercurial_cores;
    }
}

/// Resumable cursor for the epoch-stepping API ([`FleetSim::begin`] /
/// [`FleetSim::step_epoch`]).
///
/// Holds everything the simulator mutates across epochs: the epoch
/// cursor, the deployed set, the list of ground-truth mercurial cores,
/// the *active-core mask* (cores a closed-loop policy has pulled from service stop
/// producing corruption and signals), and the "ever corrupted" tracker
/// behind [`SimSummary::active_mercurial_cores`]. The mask only changes
/// through [`SimState::set_active`], i.e. between epochs, so every epoch
/// sees one frozen mask and the determinism contract (draws as pure
/// functions of `(seed, stream, counter)`) is unaffected.
#[derive(Debug, Clone)]
pub struct SimState {
    /// Next epoch to simulate.
    next_epoch: u32,
    /// Total epochs in the observation window.
    epochs: u32,
    /// Epoch length, copied from the config for hour arithmetic.
    epoch_hours: f64,
    /// Ground-truth mercurial cores, sorted by [`CoreUid`].
    mercurial: Vec<CoreUid>,
    /// In-service mask, indexed like `mercurial`.
    active: Vec<bool>,
    /// Whether each mercurial core has produced at least one corruption.
    core_was_active: Vec<bool>,
    /// The machines `[lo, hi)` this state simulates (see
    /// [`FleetSim::begin_shard`]; the full fleet is `(0, machines)`): the
    /// mercurial list is filtered to owned machines and the
    /// background-noise layer keeps only signals attributed to owned
    /// machines while replaying the *global* random stream, so a
    /// partition of shards unions to the full-fleet run bit for bit.
    shard: (u32, u32),
    /// Per-class mitigation policy, indexed like the simulator's
    /// workload list. All `None` by default; the closed loop switches
    /// them between epochs via [`SimState::set_policy`].
    policies: Vec<MitigationPolicy>,
    /// Cumulative per-class accounting (corrupt-ops, app/mitigation
    /// catches, user reports, mitigation cost), indexed like the
    /// workload list. Owned-shard scope under [`FleetSim::begin_shard`].
    class_tallies: Vec<ClassTally>,
    /// Walks the deploy order as epochs pass; each machine enters
    /// `deployed` and `deployed_class_cores` exactly once per run.
    deploy: DeployCursor,
    /// Every deployed machine of the fleet (global even under a shard,
    /// because the noise layer replays the global stream).
    deployed: DeployedSet,
    /// Deployed cores per class on owned machines (Σ sockets × cores),
    /// the mitigation-overhead meter's capacity.
    deployed_class_cores: Vec<u64>,
}

/// A set of machine ids as a bitmap with a per-word rank, so "the k-th
/// deployed machine in ascending id order" is a binary search plus an
/// in-word select rather than an O(machines) table rebuilt per epoch.
#[derive(Debug, Clone)]
struct DeployedSet {
    words: Vec<u64>,
    /// `rank[w]` = set bits in `words[..w]`.
    rank: Vec<u32>,
    len: u32,
}

impl DeployedSet {
    fn new(machines: u32) -> DeployedSet {
        let words = (machines as usize).div_ceil(64);
        DeployedSet {
            words: vec![0; words],
            rank: vec![0; words],
            len: 0,
        }
    }

    /// Adds machines (each at most once per set) and refreshes the rank.
    fn extend(&mut self, machines: &[u32]) {
        if machines.is_empty() {
            return;
        }
        for &m in machines {
            self.words[m as usize / 64] |= 1 << (m % 64);
        }
        self.len += machines.len() as u32;
        let mut running = 0u32;
        for (rank, word) in self.rank.iter_mut().zip(&self.words) {
            *rank = running;
            running += word.count_ones();
        }
    }

    fn len(&self) -> u64 {
        self.len as u64
    }

    /// The `k`-th member in ascending order (`k < len`).
    fn select(&self, k: u64) -> u32 {
        let k = k as u32;
        let w = self.rank.partition_point(|&r| r <= k) - 1;
        let mut word = self.words[w];
        for _ in 0..k - self.rank[w] {
            word &= word - 1;
        }
        (w * 64) as u32 + word.trailing_zeros()
    }
}

impl SimState {
    /// The next epoch [`FleetSim::step_epoch`] will simulate.
    pub fn next_epoch(&self) -> u32 {
        self.next_epoch
    }

    /// Total epochs in the observation window.
    pub fn total_epochs(&self) -> u32 {
        self.epochs
    }

    /// Whether the window has been fully simulated.
    pub fn is_done(&self) -> bool {
        self.next_epoch >= self.epochs
    }

    /// The simulation hour the cursor stands at (start of `next_epoch`).
    pub fn hour(&self) -> f64 {
        self.next_epoch as f64 * self.epoch_hours
    }

    /// Marks a mercurial core in or out of service. Returns `false` when
    /// the core is not in the ground-truth mercurial set (masking a
    /// healthy core is a no-op: it never produced corruption anyway).
    pub fn set_active(&mut self, core: CoreUid, active: bool) -> bool {
        match self.mercurial.binary_search(&core) {
            Ok(i) => {
                self.active[i] = active;
                true
            }
            Err(_) => false,
        }
    }

    /// Whether a ground-truth mercurial core is currently in service.
    /// Cores outside the mercurial set are vacuously active.
    pub fn is_active(&self, core: CoreUid) -> bool {
        match self.mercurial.binary_search(&core) {
            Ok(i) => self.active[i],
            Err(_) => true,
        }
    }

    /// Mercurial cores currently in service and deployed at `hour`.
    pub fn active_deployed_mercurial(&self, topo: &FleetTopology, hour: f64) -> u64 {
        self.mercurial
            .iter()
            .zip(&self.active)
            .filter(|&(uid, &on)| on && topo.is_deployed(uid.machine, hour))
            .count() as u64
    }

    /// The machine range `[lo, hi)` this state owns.
    pub fn shard_range(&self) -> (u32, u32) {
        self.shard
    }

    /// Cumulative per-class tallies, indexed like the simulator's
    /// workload list. Snapshot before stepping and
    /// [`ClassTally::delta_since`] after for per-epoch deltas.
    pub fn class_tallies(&self) -> &[ClassTally] {
        &self.class_tallies
    }

    /// The mitigation policy currently applied to a workload class.
    pub fn policy(&self, class: usize) -> MitigationPolicy {
        self.policies[class]
    }

    /// Every class's current policy, indexed like the workload list.
    pub fn policies(&self) -> &[MitigationPolicy] {
        &self.policies
    }

    /// Switches one class's mitigation policy. Like
    /// [`SimState::set_active`], this only happens between epochs, so
    /// every epoch sees one frozen policy vector and the determinism
    /// contract is unaffected.
    pub fn set_policy(&mut self, class: usize, policy: MitigationPolicy) {
        self.policies[class] = policy;
    }
}

/// The fleet simulator.
pub struct FleetSim {
    topo: FleetTopology,
    pop: Population,
    config: SimConfig,
    workloads: Vec<(WorkloadClass, f64)>,
    /// Machine → index into `workloads`, resolved once at construction
    /// (the weighted draw is per-machine invariant; resolving it in the
    /// epoch loop re-summed the weight vector for every core×epoch).
    /// One byte a machine: a mix holds at most 256 classes.
    workload_ix: Vec<u8>,
    /// End of the observation window in hours; lagged user-report
    /// escalations are clamped here so no signal is ever dated outside
    /// the last epoch.
    horizon_hours: f64,
}

impl FleetSim {
    /// Builds a simulator over a topology and ground-truth population with
    /// the default workload mix.
    pub fn new(topo: FleetTopology, pop: Population, config: SimConfig) -> FleetSim {
        FleetSim::with_workloads(topo, pop, config, WorkloadClass::default_mix())
    }

    /// Builds a simulator running the given weighted workload mix.
    ///
    /// # Panics
    ///
    /// Panics if the mix is empty or holds more than 256 classes (a
    /// machine's class index is one byte).
    pub fn with_workloads(
        topo: FleetTopology,
        pop: Population,
        config: SimConfig,
        workloads: Vec<(WorkloadClass, f64)>,
    ) -> FleetSim {
        assert!(!workloads.is_empty(), "need at least one workload class");
        assert!(
            workloads.len() <= 256,
            "at most 256 workload classes, got {}",
            workloads.len()
        );
        let workload_ix = Self::assign_workloads(&workloads, &topo, &pop);
        let horizon_hours =
            (config.months as f64 * 730.0 / config.epoch_hours).ceil() * config.epoch_hours;
        FleetSim {
            topo,
            pop,
            config,
            workloads,
            workload_ix,
            horizon_hours,
        }
    }

    /// Resolves every machine's workload class up front (deterministic
    /// weighted draw, same stream as always: `(seed, machine, 0x776f)`).
    fn assign_workloads(
        workloads: &[(WorkloadClass, f64)],
        topo: &FleetTopology,
        pop: &Population,
    ) -> Vec<u8> {
        let total: f64 = workloads.iter().map(|(_, w)| w).sum();
        let streams = StreamFamily::new(pop.seed(), 0x776f, 0);
        (0..topo.machine_count())
            .map(|machine| {
                let mut pick = streams.rng(machine as u64).uniform_at(0) * total;
                for (i, (_, w)) in workloads.iter().enumerate() {
                    if pick < *w {
                        return i as u8;
                    }
                    pick -= w;
                }
                (workloads.len() - 1) as u8
            })
            .collect()
    }

    /// The topology.
    pub fn topology(&self) -> &FleetTopology {
        &self.topo
    }

    /// The ground-truth population.
    pub fn population(&self) -> &Population {
        &self.pop
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The workload class a machine runs (resolved at construction).
    pub fn workload_of(&self, machine: u32) -> &WorkloadClass {
        &self.workloads[self.class_of(machine)].0
    }

    /// Index into [`FleetSim::class_names`] of a machine's class.
    pub fn class_of(&self, machine: u32) -> usize {
        usize::from(self.workload_ix[machine as usize])
    }

    /// Number of workload classes in the mix.
    pub fn class_count(&self) -> usize {
        self.workloads.len()
    }

    /// The class names, in workload-list (tally/policy index) order.
    pub fn class_names(&self) -> Vec<String> {
        self.workloads.iter().map(|(w, _)| w.name.clone()).collect()
    }

    /// One workload class by tally/policy index.
    pub fn class(&self, ix: usize) -> &WorkloadClass {
        &self.workloads[ix].0
    }

    /// Total epochs in the observation window.
    pub fn epochs(&self) -> u32 {
        (self.config.months as f64 * 730.0 / self.config.epoch_hours).ceil() as u32
    }

    /// Starts a resumable simulation of the whole fleet — the shard
    /// `(0, machines)` — with every mercurial core in service and the
    /// cursor at epoch 0. Step it with [`FleetSim::step_epoch`].
    pub fn begin(&self) -> SimState {
        self.begin_shard(0, self.topo.machine_count())
    }

    /// Starts a *shard* of the simulation owning only machines in
    /// `[lo, hi)`: the mercurial set is filtered to owned machines, and
    /// the background-noise layer replays the full-fleet random stream
    /// but keeps only signals landing on owned machines. Stepping a
    /// partition of shards over the same window and merging each epoch's
    /// logs (in any per-epoch order) and summing the summaries reproduces
    /// the unsharded run bit for bit — the distribution contract the
    /// `mercurial-serve` workers rely on. The range `(0, machines)` is the
    /// whole fleet ([`FleetSim::begin`]).
    pub fn begin_shard(&self, lo: u32, hi: u32) -> SimState {
        assert!(lo <= hi, "shard range must be ordered: [{lo}, {hi})");
        let mercurial: Vec<CoreUid> = self
            .pop
            .mercurial_cores()
            .map(|c| c.uid)
            .filter(|uid| (lo..hi).contains(&uid.machine))
            .collect();
        debug_assert!(
            mercurial.windows(2).all(|w| w[0] < w[1]),
            "population iterates in sorted CoreUid order"
        );
        let n = mercurial.len();
        let n_classes = self.workloads.len();
        SimState {
            next_epoch: 0,
            epochs: self.epochs(),
            epoch_hours: self.config.epoch_hours,
            mercurial,
            active: vec![true; n],
            core_was_active: vec![false; n],
            shard: (lo, hi),
            policies: vec![MitigationPolicy::None; n_classes],
            class_tallies: vec![ClassTally::default(); n_classes],
            deploy: DeployCursor::default(),
            deployed: DeployedSet::new(self.topo.machine_count()),
            deployed_class_cores: vec![0; n_classes],
        }
    }

    /// Advances the simulation by one epoch, appending that epoch's
    /// signals to `log` (in emission order, unsorted) and accumulating
    /// counters into `summary`. Returns `false`, and simulates nothing,
    /// once the window is done.
    ///
    /// Every random draw is a pure function of `(seed, stream, counter)`
    /// and the active mask only changes between calls, so the
    /// concatenated log of a stepped run is the log of [`FleetSim::run`].
    /// `summary.active_mercurial_cores` is refreshed after every step to
    /// the cumulative count so far.
    ///
    /// An enabled `rec` gets a `sim.first_corruption` instant the first
    /// time each mercurial core corrupts, then a `sim.epoch` span with the
    /// epoch's counters; a disabled one makes every recorder call a single
    /// branch. The per-epoch histograms describe the fleet-wide epoch, so
    /// the loop that merges its shards' steps observes them, not the
    /// shard.
    pub fn step_epoch(
        &self,
        state: &mut SimState,
        log: &mut SignalLog,
        summary: &mut SimSummary,
        rec: &mut Recorder,
    ) -> bool {
        if state.is_done() {
            return false;
        }
        let epoch = state.next_epoch;
        let epoch_hours = self.config.epoch_hours;
        let hour = epoch as f64 * epoch_hours;
        let before = *summary;
        self.run_epoch(epoch, state, log, summary, rec);
        let corruptions = summary.corruptions - before.corruptions;
        let signals = summary.signals_emitted - before.signals_emitted;
        let noise = summary.noise_signals - before.noise_signals;
        rec.begin(hour, "sim.epoch");
        rec.counter_add("sim.corruptions", corruptions);
        rec.counter_add("sim.signals_emitted", signals);
        rec.counter_add("sim.noise_signals", noise);
        rec.end(hour + epoch_hours, "sim.epoch");
        state.next_epoch += 1;
        summary.active_mercurial_cores =
            state.core_was_active.iter().filter(|&&a| a).count() as u64;
        true
    }

    /// Runs the simulation to completion, returning the signal log
    /// (sorted by time) and summary counters: a fresh [`SimState`]
    /// stepped through the whole window with the full active mask.
    pub fn run(&self) -> (SignalLog, SimSummary) {
        let mut state = self.begin();
        let mut log = SignalLog::new();
        let mut summary = SimSummary::default();
        let mut rec = Recorder::disabled();
        while self.step_epoch(&mut state, &mut log, &mut summary, &mut rec) {}
        log.sort_by_time();
        (log, summary)
    }

    /// Simulates one epoch: brings the deployed set up to the epoch's
    /// hour, then every deployed, in-service mercurial core in ascending
    /// [`CoreUid`] order, then the background noise layer. A core's first
    /// corruption is recorded as a `sim.first_corruption` instant.
    ///
    /// A dormant core (latent defect before onset) costs one rate
    /// evaluation here: [`FleetSim::epoch_core`] tests `lambda <= 0.0`
    /// before touching its random stream, so it draws and emits nothing.
    fn run_epoch(
        &self,
        epoch: u32,
        state: &mut SimState,
        log: &mut SignalLog,
        summary: &mut SimSummary,
        rec: &mut Recorder,
    ) {
        let hour = epoch as f64 * self.config.epoch_hours;
        let SimState {
            mercurial,
            active,
            core_was_active,
            shard,
            policies,
            class_tallies,
            deploy,
            deployed,
            deployed_class_cores,
            ..
        } = state;
        let (lo, hi) = *shard;
        let newly = deploy.advance(&self.topo, hour);
        deployed.extend(newly);
        for &m in newly {
            if (lo..hi).contains(&m) {
                deployed_class_cores[self.class_of(m)] += self.topo.cores_on(m);
            }
        }
        for (i, &uid) in mercurial.iter().enumerate() {
            if !active[i] || !self.topo.is_deployed(uid.machine, hour) {
                continue;
            }
            if self.epoch_core(uid, hour, epoch, policies, class_tallies, log, summary)
                && !core_was_active[i]
            {
                core_was_active[i] = true;
                rec.instant(hour, "sim.first_corruption", Some(uid.as_u64()), 0.0);
            }
        }
        self.epoch_noise(hour, epoch, (lo, hi), deployed, log, summary);
        self.epoch_overhead(hour, policies, deployed_class_cores, class_tallies);
    }

    /// Simulates one mercurial core for one epoch; returns whether it
    /// produced any corruption.
    ///
    /// Mitigation draws live on their own `0x6d69` stream, created only
    /// when the class policy is not [`MitigationPolicy::None`], so the
    /// base per-core stream is byte-identical with mitigation off.
    #[allow(clippy::too_many_arguments)]
    fn epoch_core(
        &self,
        uid: CoreUid,
        hour: f64,
        epoch: u32,
        policies: &[MitigationPolicy],
        classes: &mut [ClassTally],
        log: &mut SignalLog,
        summary: &mut SimSummary,
    ) -> bool {
        let class_ix = self.class_of(uid.machine);
        let policy = policies[class_ix];
        let wl = self.workload_of(uid.machine);
        let age = self.topo.age_hours(uid.machine, hour);
        let point = self.topo.product_of(uid.machine).dvfs.max_point(65);
        let rates = self.pop.unit_rates(uid, &wl.operands, point, age);

        let mut rng = CounterRng::from_parts(self.pop.seed(), uid.as_u64(), 0x6570, epoch as u64);
        let mut mit_rng = (policy != MitigationPolicy::None)
            .then(|| CounterRng::from_parts(self.pop.seed(), uid.as_u64(), 0x6d69, epoch as u64));
        let mut emitted = 0u32;
        let mut any = false;
        for unit in FunctionalUnit::ALL {
            let mut lambda =
                rates[unit.index()] * wl.ops_per_hour[unit.index()] * self.config.epoch_hours;
            // Time-varying traffic scales the op rate; the flat shape is
            // skipped entirely (not multiplied by 1.0) so legacy runs stay
            // bit-identical. Intensity is clamped strictly positive, so
            // a dormant core (zero rates) stays at `lambda == 0.0`.
            if !wl.traffic.is_flat() {
                lambda *= wl.traffic.intensity_at(hour);
            }
            if lambda <= 0.0 {
                continue;
            }
            let n = poisson(&mut rng, lambda);
            if n == 0 {
                continue;
            }
            any = true;
            summary.corruptions += n;
            classes[class_ix].corrupt_ops += n;
            // Per-corruption simulation is only needed while the signal
            // cap can still admit emissions; a saturated defect (p ≈ 1 per
            // op) produces millions of corruptions per epoch, and looping
            // over each would dominate the whole fleet simulation. The
            // remainder is classified in bulk from the expected shares.
            let simulate = n.min(4 * self.config.per_core_epoch_cap as u64);
            for _ in 0..simulate {
                let mut outcome = self.classify(unit, wl, &mut rng);
                let mut mitigated = false;
                if outcome.0 == SymptomClass::WrongNeverDetected {
                    if let Some(mit) = mit_rng.as_mut() {
                        if mit.next_bool(policy.coverage()) {
                            outcome = (
                                SymptomClass::WrongDetectedImmediately,
                                Some(mitigation_signal(policy)),
                            );
                            mitigated = true;
                            classes[class_ix].mitigation_caught += 1;
                        }
                    }
                }
                summary.symptom_counts[outcome.0.risk_rank() as usize] += 1;
                if let Some(kind) = outcome.1 {
                    if !mitigated
                        && matches!(
                            kind,
                            SignalKind::AppChecksumMismatch | SignalKind::ReplicaDivergence
                        )
                    {
                        classes[class_ix].app_caught += 1;
                    }
                    if emitted < self.config.per_core_epoch_cap {
                        if mitigated {
                            // Jitter comes off the mitigation stream: the
                            // base stream must not advance for an emission
                            // it never would have seen.
                            let mit = mit_rng.as_mut().expect("mitigated implies a policy");
                            let jitter = mit.next_uniform() * self.config.epoch_hours;
                            log.push(Signal {
                                hour: hour + jitter,
                                core: uid,
                                kind,
                                caused_by_cee: true,
                            });
                            summary.signals_emitted += 1;
                            emitted += 1;
                            // Mitigation catches are machine-attributed;
                            // they never escalate to human suspect reports.
                        } else {
                            let jitter = rng.next_uniform() * self.config.epoch_hours;
                            log.push(Signal {
                                hour: hour + jitter,
                                core: uid,
                                kind,
                                caused_by_cee: true,
                            });
                            summary.signals_emitted += 1;
                            emitted += 1;
                            // Detected corruptions sometimes escalate to a
                            // human suspect report, after further triage
                            // time.
                            if kind != SignalKind::MachineCheckEvent
                                && rng.next_bool(wl.user_report_rate)
                                && emitted < self.config.per_core_epoch_cap
                            {
                                // The 24–96 h escalation lag can overshoot
                                // the observation window from its last
                                // epochs; clamp the stamp (not the draw —
                                // RNG consumption is part of the
                                // determinism contract) so every signal
                                // belongs to some epoch.
                                let escalated = (hour + jitter + 24.0 + rng.next_uniform() * 72.0)
                                    .min(self.horizon_hours);
                                log.push(Signal {
                                    hour: escalated,
                                    core: uid,
                                    kind: SignalKind::UserReport,
                                    caused_by_cee: true,
                                });
                                summary.signals_emitted += 1;
                                emitted += 1;
                                classes[class_ix].user_reports += 1;
                            }
                        }
                    }
                }
            }
            if n > simulate {
                self.bulk_classify(
                    n - simulate,
                    unit,
                    wl,
                    policy,
                    summary,
                    &mut classes[class_ix],
                );
            }
        }
        any
    }

    /// Adds `n` corruptions to the symptom tallies using the expected
    /// class shares (the closed form of [`FleetSim::classify`]'s
    /// distribution). Counts are apportioned by largest remainder, so
    /// they always sum to exactly `n` and no class is silently starved
    /// by truncation.
    fn bulk_classify(
        &self,
        n: u64,
        unit: FunctionalUnit,
        wl: &WorkloadClass,
        policy: MitigationPolicy,
        summary: &mut SimSummary,
        tally: &mut ClassTally,
    ) {
        let m = self.config.machine_check_share;
        let (p_imm, p_late) = if unit.is_control_path() {
            ((1.0 - m) * 0.80, (1.0 - m) * 0.10)
        } else {
            let r = wl.replicated_fraction;
            let c = wl.app_check_coverage;
            let imm = (1.0 - m) * (r + (1.0 - r) * c * 0.75);
            let late = (1.0 - m) * (1.0 - r) * c * 0.25;
            (imm, late)
        };
        let p_never = (1.0 - m - p_imm - p_late).max(0.0);
        // The mitigation policy intercepts the never-detected share with
        // its coverage. With coverage 0 the fifth class has probability
        // exactly 0.0: it floors to zero, its fraction is zero (so the
        // leftover pass ranks it last and never reaches it — four quotas
        // drop < 4 units), and the claw-back picks a maximal count which
        // can never be a zero bucket. The apportionment is therefore
        // bit-identical to the historical four-class one.
        let p_mit = p_never * policy.coverage();
        let p_never = p_never - p_mit;
        let classes = [
            (SymptomClass::MachineCheck, m),
            (SymptomClass::WrongDetectedImmediately, p_imm),
            (SymptomClass::WrongDetectedLate, p_late),
            (SymptomClass::WrongNeverDetected, p_never),
            (SymptomClass::WrongDetectedImmediately, p_mit),
        ];

        // Largest-remainder apportionment: floor every quota, then hand
        // the leftover units to the largest fractional parts (ties broken
        // by class order). Deterministic, and conserves n exactly.
        let mut counts = [0u64; 5];
        let mut fractions = [0.0f64; 5];
        let mut assigned = 0u64;
        for (i, (_, p)) in classes.iter().enumerate() {
            let quota = n as f64 * p;
            counts[i] = (quota.floor() as u64).min(n);
            fractions[i] = quota - counts[i] as f64;
            assigned += counts[i];
        }
        // Floating-point shares can sum slightly above 1; claw back from
        // the largest bucket so the leftover below is well-defined.
        while assigned > n {
            let i = (0..5).max_by_key(|&i| counts[i]).expect("five classes");
            counts[i] -= 1;
            assigned -= 1;
        }
        let mut order = [0usize, 1, 2, 3, 4];
        order.sort_by(|&a, &b| {
            fractions[b]
                .partial_cmp(&fractions[a])
                .expect("finite fractions")
                .then(a.cmp(&b))
        });
        // Flooring five quotas that sum to (at most) n drops strictly
        // less than 5 units, so one pass over the ranked classes covers
        // the whole leftover.
        let mut leftover = n - assigned;
        for &i in &order {
            if leftover == 0 {
                break;
            }
            counts[i] += 1;
            leftover -= 1;
        }
        debug_assert_eq!(leftover, 0, "apportionment must conserve n");

        for (i, (class, _)) in classes.iter().enumerate() {
            summary.symptom_counts[class.risk_rank() as usize] += counts[i];
        }
        tally.mitigation_caught += counts[4];
        // App-level catches mirror the per-op path: on the control path
        // only the late bucket surfaces as a checksum mismatch (the
        // immediate bucket is crashes); on the data path both detected
        // buckets are replica/checksum catches.
        tally.app_caught += if unit.is_control_path() {
            counts[2]
        } else {
            counts[1] + counts[2]
        };
    }

    /// Classifies one corruption into (risk class, emitted signal).
    fn classify(
        &self,
        unit: FunctionalUnit,
        wl: &WorkloadClass,
        rng: &mut CounterRng,
    ) -> (SymptomClass, Option<SignalKind>) {
        if rng.next_bool(self.config.machine_check_share) {
            return (
                SymptomClass::MachineCheck,
                Some(SignalKind::MachineCheckEvent),
            );
        }
        if unit.is_control_path() {
            // Corrupted addresses and branches are loud: crashes dominate.
            let r = rng.next_uniform();
            return if r < 0.55 {
                (
                    SymptomClass::WrongDetectedImmediately,
                    Some(SignalKind::ProcessCrash),
                )
            } else if r < 0.70 {
                (
                    SymptomClass::WrongDetectedImmediately,
                    Some(SignalKind::KernelCrash),
                )
            } else if r < 0.80 {
                (
                    SymptomClass::WrongDetectedImmediately,
                    Some(SignalKind::SanitizerHit),
                )
            } else if r < 0.90 {
                (
                    SymptomClass::WrongDetectedLate,
                    Some(SignalKind::AppChecksumMismatch),
                )
            } else {
                (SymptomClass::WrongNeverDetected, None)
            };
        }
        // Replicated update logic catches corruption as replica divergence
        // before any checksum gets a chance (§6's "dual computations").
        if rng.next_bool(wl.replicated_fraction) {
            return (
                SymptomClass::WrongDetectedImmediately,
                Some(SignalKind::ReplicaDivergence),
            );
        }
        // Data-path corruption: the application's own checks are the main
        // line of defense (§6).
        if rng.next_bool(wl.app_check_coverage) {
            if rng.next_bool(0.75) {
                (
                    SymptomClass::WrongDetectedImmediately,
                    Some(SignalKind::AppChecksumMismatch),
                )
            } else {
                // Caught, but after the result was consumed.
                (
                    SymptomClass::WrongDetectedLate,
                    Some(SignalKind::AppChecksumMismatch),
                )
            }
        } else {
            (SymptomClass::WrongNeverDetected, None)
        }
    }

    /// Emits background noise for one epoch.
    ///
    /// Every random draw happens — the noise stream is a *global*
    /// `(seed, 0xbadd, 0x6e6f, epoch)` sequence over the full deployed
    /// fleet — but only signals landing on the owned machines `[lo, hi)`
    /// are pushed and counted. Each noise signal is
    /// attributed to exactly one machine, so a partition of shards emits
    /// every signal exactly once and the union equals the unsharded log.
    fn epoch_noise(
        &self,
        hour: f64,
        epoch: u32,
        (lo, hi): (u32, u32),
        deployed: &DeployedSet,
        log: &mut SignalLog,
        summary: &mut SimSummary,
    ) {
        // Sample from the *deployed* machines only. Drawing from the full
        // machine range and discarding undeployed picks would deflate the
        // realized noise rate by the deployed fraction during rollout.
        // The pick is the k-th deployed machine in ascending id order.
        let n_deployed = deployed.len();
        if n_deployed == 0 {
            return;
        }
        let mut rng = CounterRng::from_parts(self.pop.seed(), 0xbadd, 0x6e6f, epoch as u64);
        let machine_hours = n_deployed as f64 * self.config.epoch_hours;
        for (kind, rate) in [
            (SignalKind::ProcessCrash, self.config.noise_crash_rate),
            (SignalKind::UserReport, self.config.noise_report_rate),
        ] {
            let n = poisson(&mut rng, machine_hours * rate);
            for _ in 0..n {
                // Attribute to a uniformly random deployed machine/core.
                // All four draws happen unconditionally so a shard stays
                // aligned with the global stream; only the push is gated.
                let midx = deployed.select(rng.next_below(n_deployed));
                let product = self.topo.product_of(midx);
                let socket = rng.next_below(self.topo.config().sockets_per_machine as u64) as u8;
                let core = rng.next_below(product.cores_per_socket as u64) as u16;
                let signal_hour = hour + rng.next_uniform() * self.config.epoch_hours;
                if (lo..hi).contains(&midx) {
                    log.push(Signal {
                        hour: signal_hour,
                        core: CoreUid::new(midx, socket, core),
                        kind,
                        caused_by_cee: false,
                    });
                    summary.noise_signals += 1;
                    summary.signals_emitted += 1;
                }
            }
        }
    }

    /// Meters the epoch's mitigation overhead into the per-class cost
    /// tallies. RNG-free and built from u64 sums over the shard's owned
    /// deployed cores (`cores`, per class), so it is exact under any
    /// shard partition; with every policy at `None` it is a no-op,
    /// keeping legacy runs cost-free.
    fn epoch_overhead(
        &self,
        hour: f64,
        policies: &[MitigationPolicy],
        cores: &[u64],
        classes: &mut [ClassTally],
    ) {
        if policies.iter().all(|&p| p == MitigationPolicy::None) {
            return;
        }
        for (ix, tally) in classes.iter_mut().enumerate() {
            let policy = policies[ix];
            if policy == MitigationPolicy::None || cores[ix] == 0 {
                continue;
            }
            // Metered per core, then scaled by the integer core count:
            // the per-core figure is identical on every shard, so any
            // machine partition sums to exactly the full-fleet meter
            // (float rounding at shard granularity would not).
            let wl = &self.workloads[ix].0;
            let per_core = (wl.total_ops_per_hour()
                * wl.traffic.intensity_at(hour)
                * self.config.epoch_hours) as u64;
            tally.mitigated_ops += cores[ix] * per_core;
            let mut per_meter = CostMeter::default();
            policy.meter_ops(per_core, &mut per_meter);
            tally.cost.executions += per_meter.executions * cores[ix];
            tally.cost.comparisons += per_meter.comparisons * cores[ix];
            tally.cost.retries += per_meter.retries * cores[ix];
        }
    }
}

/// The signal kind a mitigation catch surfaces as: checksum-style
/// policies report as an application checksum mismatch, redundant-
/// execution policies as a replica divergence.
fn mitigation_signal(policy: MitigationPolicy) -> SignalKind {
    match policy {
        MitigationPolicy::None
        | MitigationPolicy::E2eChecksum
        | MitigationPolicy::InstructionCheck => SignalKind::AppChecksumMismatch,
        MitigationPolicy::Dmr | MitigationPolicy::Tmr => SignalKind::ReplicaDivergence,
    }
}

/// Splits `machines` into `workers` contiguous, disjoint, exhaustive
/// ranges `[lo, hi)` — the canonical shard partition used by the serve
/// layer and the parity tests. Ranges differ in size by at most one
/// machine.
pub fn shard_ranges(machines: u32, workers: u32) -> Vec<(u32, u32)> {
    assert!(workers > 0, "need at least one worker");
    let (m, w) = (machines as u64, workers as u64);
    (0..w)
        .map(|i| (((m * i) / w) as u32, ((m * (i + 1)) / w) as u32))
        .collect()
}

/// Draws a Poisson variate: Knuth's method for small `lambda`, a rounded
/// normal approximation beyond.
pub fn poisson(rng: &mut CounterRng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.next_uniform();
            if p <= l {
                return k;
            }
            k += 1;
            if k > 10_000 {
                return k; // numerical guard; unreachable for lambda < 30
            }
        }
    }
    let draw = lambda + lambda.sqrt() * rng.next_normal();
    draw.round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FleetConfig;
    use mercurial_fault::{library, Activation, CoreFaultProfile, Lesion};

    fn tiny_sim(machines: u32, cores: Vec<(CoreUid, CoreFaultProfile)>, months: u32) -> FleetSim {
        let topo = FleetTopology::build(FleetConfig::tiny(machines, 21));
        let pop = Population::with_explicit(21, cores);
        FleetSim::new(
            topo,
            pop,
            SimConfig {
                months,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn poisson_mean_is_lambda() {
        let mut rng = CounterRng::new(1);
        for lambda in [0.5, 5.0, 80.0] {
            let n = 20_000;
            let sum: u64 = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
            let mean = sum as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.sqrt() * 0.1 + 0.05,
                "lambda {lambda}: mean {mean}"
            );
        }
    }

    #[test]
    fn healthy_fleet_emits_only_noise() {
        let sim = tiny_sim(200, vec![], 6);
        let (log, summary) = sim.run();
        assert_eq!(summary.corruptions, 0);
        assert!(log.all().iter().all(|s| !s.caused_by_cee));
        assert_eq!(summary.noise_signals as usize, log.len());
    }

    #[test]
    fn hot_core_dominates_the_log() {
        let uid = CoreUid::new(3, 0, 1);
        let sim = tiny_sim(50, vec![(uid, library::string_bitflip(9, 1e-4))], 6);
        let (log, summary) = sim.run();
        assert!(
            summary.corruptions > 0,
            "a 1e-4 vector defect must fire in 6 months"
        );
        let counts = log.counts_by_core();
        let bad = counts.get(&uid).copied().unwrap_or(0);
        let max_other = counts
            .iter()
            .filter(|(c, _)| **c != uid)
            .map(|(_, &n)| n)
            .max()
            .unwrap_or(0);
        assert!(
            bad > max_other,
            "defective core ({bad} signals) should out-signal every healthy core ({max_other})"
        );
    }

    #[test]
    fn symptom_taxonomy_is_populated_in_risk_order_style() {
        // A busy fleet: every class of the §2 taxonomy occurs, and silent
        // corruption is a substantial share (that is the whole problem).
        let cores: Vec<(CoreUid, CoreFaultProfile)> = (0..10)
            .map(|i| {
                (
                    CoreUid::new(i, 0, 0),
                    CoreFaultProfile::single(
                        "mix",
                        if i % 2 == 0 {
                            mercurial_fault::FunctionalUnit::ScalarAlu
                        } else {
                            mercurial_fault::FunctionalUnit::AddressGen
                        },
                        Lesion::FlipBit { bit: 5 },
                        Activation::with_prob(3e-5),
                    ),
                )
            })
            .collect();
        let sim = tiny_sim(100, cores, 12);
        let (_, summary) = sim.run();
        for class in SymptomClass::ALL {
            assert!(
                summary.symptom_count(class) > 0,
                "class {class} never occurred; counts {:?}",
                summary.symptom_counts
            );
        }
        assert!(summary.symptom_count(SymptomClass::WrongNeverDetected) > 0);
    }

    #[test]
    fn run_is_deterministic() {
        let uid = CoreUid::new(2, 0, 0);
        let a = tiny_sim(30, vec![(uid, library::lock_violator(1e-4))], 4).run();
        let b = tiny_sim(30, vec![(uid, library::lock_violator(1e-4))], 4).run();
        assert_eq!(a.1, b.1);
        assert_eq!(a.0.len(), b.0.len());
    }

    #[test]
    fn latent_core_is_silent_until_onset() {
        let uid = CoreUid::new(1, 0, 0);
        // Onset at ~6 months of a 12-month window.
        let profile = library::late_onset_muldiv(6.0 * 730.0, 1e-4);
        let sim = tiny_sim(20, vec![(uid, profile)], 12);
        let (log, _) = sim.run();
        let cee_signals: Vec<&Signal> = log.all().iter().filter(|s| s.caused_by_cee).collect();
        assert!(!cee_signals.is_empty(), "defect must manifest after onset");
        assert!(
            cee_signals.iter().all(|s| s.hour >= 6.0 * 730.0),
            "no CEE signal may precede onset"
        );
    }

    #[test]
    fn user_reports_exist_and_lag_detections() {
        let uid = CoreUid::new(4, 0, 2);
        let sim = tiny_sim(50, vec![(uid, library::string_bitflip(4, 1e-4))], 12);
        let (log, _) = sim.run();
        let reports: Vec<&Signal> = log
            .all()
            .iter()
            .filter(|s| s.kind == SignalKind::UserReport && s.caused_by_cee)
            .collect();
        assert!(
            !reports.is_empty(),
            "some detections must escalate to reports"
        );
    }

    #[test]
    fn traced_stepping_matches_the_untraced_run() {
        let uid = CoreUid::new(3, 0, 1);
        let sim = tiny_sim(50, vec![(uid, library::string_bitflip(9, 1e-4))], 6);
        let mut state = sim.begin();
        let mut log = SignalLog::new();
        let mut summary = SimSummary::default();
        let mut rec = Recorder::new(mercurial_trace::TraceLevel::Record);
        while sim.step_epoch(&mut state, &mut log, &mut summary, &mut rec) {}
        assert!(state.is_done());
        let jsonl = rec.finish().to_jsonl();
        assert!(jsonl.contains("sim.first_corruption"));
        assert!(jsonl.contains("\"k\":\"B\",\"n\":\"sim.epoch\""));
        // The traced run perturbs nothing: untraced output is identical.
        let (untraced_log, untraced_summary) = sim.run();
        assert!(untraced_summary.signals_emitted > 0, "defect must fire");
        log.sort_by_time();
        assert_eq!(log.all(), untraced_log.all());
        assert_eq!(summary, untraced_summary);
    }

    #[test]
    fn masked_core_is_silent_while_out_of_service() {
        let uid = CoreUid::new(3, 0, 1);
        let sim = tiny_sim(50, vec![(uid, library::string_bitflip(9, 1e-4))], 6);
        let mut state = sim.begin();
        let mut log = SignalLog::new();
        let mut summary = SimSummary::default();
        // Run the first half in service, then pull the core.
        let half = state.total_epochs() / 2;
        let rec = &mut Recorder::disabled();
        while state.next_epoch() < half {
            sim.step_epoch(&mut state, &mut log, &mut summary, rec);
        }
        let corruptions_before = summary.corruptions;
        assert!(corruptions_before > 0, "defect must fire in the first half");
        assert!(sim.step_epoch(&mut state, &mut log, &mut summary, rec));
        let masked_hour = state.hour();
        assert!(state.set_active(uid, false), "core is mercurial");
        assert!(!state.is_active(uid));
        let corruptions_at_mask = summary.corruptions;
        while sim.step_epoch(&mut state, &mut log, &mut summary, rec) {}
        assert_eq!(
            summary.corruptions, corruptions_at_mask,
            "a masked core draws no corruption"
        );
        // Signals are drawn in the epoch they originate from; only the
        // user-report escalation lags (24–96 h after its detection), so
        // nothing else may be dated past the mask hour.
        assert!(
            log.all()
                .iter()
                .filter(|s| s.caused_by_cee && s.kind != SignalKind::UserReport)
                .all(|s| s.hour < masked_hour),
            "no prompt CEE signal after the mask hour"
        );
        let horizon = state.total_epochs() as f64 * sim.config().epoch_hours;
        assert!(
            log.all()
                .iter()
                .filter(|s| s.caused_by_cee)
                .all(|s| s.hour < masked_hour + 96.0 && s.hour <= horizon),
            "lagged reports stay within the escalation window and the \
             observation window"
        );
        // Masking an unknown (healthy) core is a harmless no-op.
        assert!(!state.set_active(CoreUid::new(0, 0, 0), false));
        assert!(state.is_active(CoreUid::new(0, 0, 0)));
    }

    #[test]
    fn noise_rate_tracks_deployment_ramp() {
        // During rollout only a fraction of the fleet is deployed; the
        // realized noise rate must follow deployed machine-hours, not be
        // deflated by the deployed/total fraction (the old sampler drew
        // from all machines and dropped undeployed picks).
        let config = SimConfig {
            months: 6,
            noise_crash_rate: 1e-3,
            ..SimConfig::default()
        };
        let topo = FleetTopology::build(FleetConfig {
            machines: 1000,
            sockets_per_machine: 1,
            products: crate::product::CpuProduct::default_catalog(),
            rollout_months: 6,
            seed: 77,
        });
        let pop = Population::with_explicit(77, vec![]);
        let sim = FleetSim::new(topo, pop, config.clone());
        let (log, summary) = sim.run();

        let epochs = (config.months as f64 * 730.0 / config.epoch_hours).ceil() as u32;
        let mut expected = 0.0;
        for e in 0..epochs {
            let hour = e as f64 * config.epoch_hours;
            expected += sim.topology().deployed_count(hour) as f64
                * config.epoch_hours
                * (config.noise_crash_rate + config.noise_report_rate);
        }
        assert!(expected > 1000.0, "ramp scenario must carry real mass");
        let got = summary.noise_signals as f64;
        assert!(
            (got - expected).abs() < 6.0 * expected.sqrt(),
            "realized noise {got} vs expected {expected}"
        );
        // Every noise signal is attributed to a machine deployed at the
        // signal's hour.
        for s in log.all() {
            assert!(sim.topology().is_deployed(s.core.machine, s.hour));
        }
    }

    #[test]
    fn bulk_classify_conserves_totals_at_small_n() {
        let sim = tiny_sim(5, vec![], 1);
        for unit in [FunctionalUnit::ScalarAlu, FunctionalUnit::AddressGen] {
            for policy in MitigationPolicy::ALL {
                for (wl, _) in WorkloadClass::default_mix() {
                    let mut summary = SimSummary::default();
                    let mut tally = ClassTally::default();
                    let mut total = 0u64;
                    for n in 1..=40u64 {
                        sim.bulk_classify(n, unit, &wl, policy, &mut summary, &mut tally);
                        total += n;
                        assert_eq!(
                            summary.symptom_counts.iter().sum::<u64>(),
                            total,
                            "unit {unit:?}, policy {}, workload {}, n {n}",
                            policy.label(),
                            wl.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bulk_classify_mitigation_share_shrinks_the_silent_bucket() {
        let sim = tiny_sim(5, vec![], 1);
        let wl = WorkloadClass::data_pipeline();
        let silent_of = |policy: MitigationPolicy| {
            let mut summary = SimSummary::default();
            let mut tally = ClassTally::default();
            sim.bulk_classify(
                1_000_000,
                FunctionalUnit::ScalarAlu,
                &wl,
                policy,
                &mut summary,
                &mut tally,
            );
            (
                summary.symptom_counts[SymptomClass::WrongNeverDetected.risk_rank() as usize],
                tally.mitigation_caught,
            )
        };
        let (silent_none, caught_none) = silent_of(MitigationPolicy::None);
        assert_eq!(caught_none, 0);
        let mut prev_silent = silent_none;
        for policy in &MitigationPolicy::ALL[1..] {
            let (silent, caught) = silent_of(*policy);
            assert!(
                silent < prev_silent,
                "{} must shrink the silent bucket",
                policy.label()
            );
            assert!(caught > 0);
            prev_silent = silent;
        }
    }

    /// A rollout fleet carrying a from-birth defect, a mid-window latent
    /// defect, and a control-path defect.
    fn rollout_fleet(seed: u64, months: u32) -> FleetSim {
        let topo = FleetTopology::build(FleetConfig {
            machines: 120,
            sockets_per_machine: 2,
            products: crate::product::CpuProduct::default_catalog(),
            rollout_months: 4,
            seed,
        });
        let pop = Population::with_explicit(
            seed,
            vec![
                (CoreUid::new(3, 0, 1), library::string_bitflip(9, 1e-4)),
                (
                    CoreUid::new(40, 1, 2),
                    library::late_onset_muldiv(3.0 * 730.0, 1e-4),
                ),
                (CoreUid::new(77, 0, 0), library::lock_violator(1e-4)),
            ],
        );
        FleetSim::new(
            topo,
            pop,
            SimConfig {
                months,
                ..SimConfig::default()
            },
        )
    }

    #[test]
    fn deployed_set_matches_a_naive_scan_every_epoch() {
        // The noise pick is a rank/select over the deployed bitmap; it
        // must equal the table the noise layer used to rebuild every
        // epoch — the k-th deployed machine in ascending id order — and
        // the per-class core meter must equal an owned-range scan, in
        // every epoch of a rollout, sharded or not.
        let topo = FleetTopology::build(FleetConfig {
            machines: 300,
            sockets_per_machine: 2,
            products: crate::product::CpuProduct::default_catalog(),
            rollout_months: 4,
            seed: 77,
        });
        let pop = Population::with_explicit(77, vec![]);
        let sim = FleetSim::new(
            topo,
            pop,
            SimConfig {
                months: 6,
                noise_crash_rate: 1e-3,
                ..SimConfig::default()
            },
        );
        let topo = sim.topology();
        let machines = topo.machine_count();
        for (lo, hi) in [(0, machines), (0, 100), (100, 300), (37, 38)] {
            let mut state = sim.begin_shard(lo, hi);
            let mut saw_partial = false;
            while !state.is_done() {
                let hour = state.hour();
                sim.step_epoch(
                    &mut state,
                    &mut SignalLog::new(),
                    &mut SimSummary::default(),
                    &mut Recorder::disabled(),
                );
                let naive: Vec<u32> = (0..machines)
                    .filter(|&m| topo.is_deployed(m, hour))
                    .collect();
                saw_partial |= !naive.is_empty() && naive.len() < machines as usize;
                assert_eq!(state.deployed.len(), naive.len() as u64, "hour {hour}");
                for (k, &m) in naive.iter().enumerate() {
                    assert_eq!(state.deployed.select(k as u64), m, "hour {hour}, k {k}");
                }
                let mut cores = vec![0u64; sim.class_count()];
                for m in (lo..hi).filter(|&m| topo.is_deployed(m, hour)) {
                    cores[sim.class_of(m)] += topo.cores_on(m);
                }
                assert_eq!(
                    state.deployed_class_cores, cores,
                    "[{lo}, {hi}) hour {hour}"
                );
            }
            assert!(saw_partial, "the window must cover a partial rollout");
        }
    }

    #[test]
    fn no_signal_is_dated_past_the_window_end() {
        // Hot defects active through the last epoch: escalations drawn
        // there would overshoot the window by up to ~96 h without the
        // clamp.
        let cores: Vec<(CoreUid, CoreFaultProfile)> = (0..12)
            .map(|m| (CoreUid::new(m, 0, 1), library::string_bitflip(9, 1e-3)))
            .collect();
        let sim = tiny_sim(30, cores, 2);
        let horizon = sim.epochs() as f64 * sim.config().epoch_hours;
        let (log, summary) = sim.run();
        assert!(summary.signals_emitted > 0, "defect must fire");
        assert!(
            log.all().iter().all(|s| s.hour <= horizon),
            "every signal must belong to some epoch of the window"
        );
        assert!(
            log.all()
                .iter()
                .any(|s| s.kind == SignalKind::UserReport && s.hour == horizon),
            "an escalation from the final epochs must have been clamped \
             to the window end (the pre-clamp stamp exceeded it)"
        );
    }

    #[test]
    fn machine_shards_union_to_the_full_fleet_bit_for_bit() {
        // The serve contract: partition the machine range into contiguous
        // shards, run each shard's SimState over the whole window, merge.
        // Logs must union to the full run exactly (as a multiset — epoch-
        // internal emission order differs across shards) and summaries
        // must sum exactly.
        let canon = |log: &SignalLog| {
            let mut v: Vec<Signal> = log.all().to_vec();
            v.sort_by(|a, b| {
                a.hour
                    .total_cmp(&b.hour)
                    .then(a.core.cmp(&b.core))
                    .then((a.kind as u8).cmp(&(b.kind as u8)))
            });
            v
        };
        for seed in [21u64, 97] {
            let sim = rollout_fleet(seed, 9);
            let (full_log, full_summary) = sim.run();
            assert!(full_summary.signals_emitted > 0, "defects must fire");
            assert!(full_summary.noise_signals > 0, "noise must flow");
            let machines = sim.topology().machine_count();
            for workers in [1u32, 2, 4] {
                let mut merged = SignalLog::new();
                let mut summed = SimSummary::default();
                for w in 0..workers {
                    let lo = machines * w / workers;
                    let hi = machines * (w + 1) / workers;
                    let mut state = sim.begin_shard(lo, hi);
                    assert_eq!(state.shard_range(), (lo, hi));
                    let mut log = SignalLog::new();
                    let mut summary = SimSummary::default();
                    let rec = &mut Recorder::disabled();
                    while sim.step_epoch(&mut state, &mut log, &mut summary, rec) {}
                    merged.append(log);
                    summed.merge(&summary);
                }
                assert_eq!(summed, full_summary, "seed {seed}, {workers} shards");
                assert_eq!(
                    canon(&merged),
                    canon(&full_log),
                    "seed {seed}, {workers} shards"
                );
            }
        }
    }

    #[test]
    fn workload_assignment_is_stable() {
        let sim = tiny_sim(100, vec![], 1);
        for m in 0..100 {
            assert_eq!(sim.workload_of(m).name, sim.workload_of(m).name);
        }
        let names: std::collections::HashSet<_> =
            (0..100).map(|m| sim.workload_of(m).name.clone()).collect();
        assert!(names.len() >= 3, "expected a real mix, got {names:?}");
    }
}
