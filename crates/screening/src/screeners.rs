//! Automated screeners: burn-in, offline, and online.
//!
//! §6's tradeoffs, made executable:
//!
//! * **Burn-in** happens once, pre-deployment, with a generous test budget
//!   — but at age zero, so latent defects sail through ("not all
//!   mercurial-core screening can be done before CPUs are put into
//!   service — first, because some cores only become defective after
//!   considerable time has passed").
//! * **Offline screening** "can be more intrusive and can be scheduled to
//!   ensure coverage of all cores, and could involve exposing CPUs to
//!   operating conditions (f, V, T) outside normal ranges. However,
//!   draining a workload from the core … can be expensive." It sweeps the
//!   product's DVFS curve (catching the low-frequency-is-worse defects)
//!   and charges a drain cost per machine.
//! * **Online screening** "is free (except for power costs), but cannot
//!   always provide complete coverage": spare-cycle tests at the nominal
//!   operating point only, with a small per-epoch budget.
//!
//! Coverage is not static: "our regular fleet-wide testing has expanded to
//! new classes of CEEs as we and our CPU vendors discover them, still a
//! few times per year." [`EraSchedule`] encodes that growth — it is the
//! mechanism behind Figure 1's gradually rising automatic-detection rate.

use mercurial_fault::{CoreUid, FunctionalUnit, OperatingPoint};
use mercurial_fault::{FastMap, FastSet};
use mercurial_fleet::population::TestSpec;
use mercurial_fleet::FleetTopology;
use mercurial_fleet::{Population, Signal, SignalKind, SignalLog};
use mercurial_trace::Recorder;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// How a core was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DetectionMethod {
    /// Pre-deployment burn-in.
    BurnIn,
    /// Scheduled offline sweep.
    Offline,
    /// Spare-cycle online screening.
    Online,
    /// Human triage confirmation.
    Triage,
}

/// One confirmed detection.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DetectionRecord {
    /// The detected core.
    pub core: CoreUid,
    /// Fleet hour of detection.
    pub hour: f64,
    /// Which mechanism caught it.
    pub method: DetectionMethod,
}

/// Cost/coverage accounting for a screening campaign.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ScreeningStats {
    /// Individual core-screens executed.
    pub core_screens: u64,
    /// Total test operations charged.
    pub test_ops: u64,
    /// Machine-hours spent drained (offline only).
    pub drained_machine_hours: f64,
    /// Detections produced.
    pub detections: u64,
}

/// One era of screening coverage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScreeningEra {
    /// The era applies from this month (inclusive).
    pub from_month: u32,
    /// Units the test corpus of this era exercises.
    pub units: Vec<FunctionalUnit>,
    /// Test operations per covered unit per screen.
    pub ops_per_unit: u64,
    /// Operand patterns the era's tests use.
    pub operands: Vec<u64>,
    /// Whether screens sweep the DVFS curve and a hot point (offline only;
    /// online screening always runs at the nominal point).
    pub sweep_points: bool,
}

/// The coverage-growth schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EraSchedule {
    eras: Vec<ScreeningEra>,
}

impl EraSchedule {
    /// Builds a schedule from eras (sorted by `from_month`).
    ///
    /// # Panics
    ///
    /// Panics if `eras` is empty or no era starts at month 0.
    pub fn new(mut eras: Vec<ScreeningEra>) -> EraSchedule {
        assert!(!eras.is_empty(), "need at least one era");
        eras.sort_by_key(|e| e.from_month);
        assert_eq!(eras[0].from_month, 0, "the first era must start at month 0");
        EraSchedule { eras }
    }

    /// The default history: coverage grows "a few times per year", from a
    /// scalar-only corpus to full-unit coverage with (f, V, T) sweeps.
    pub fn default_history() -> EraSchedule {
        use FunctionalUnit as U;
        EraSchedule::new(vec![
            ScreeningEra {
                from_month: 0,
                units: vec![U::ScalarAlu, U::MulDiv, U::Fma, U::LoadStore],
                ops_per_unit: 100_000,
                operands: vec![0, u64::MAX],
                sweep_points: false,
            },
            ScreeningEra {
                from_month: 6,
                units: vec![U::ScalarAlu, U::MulDiv, U::Fma, U::LoadStore, U::VectorPipe],
                ops_per_unit: 200_000,
                operands: vec![0, u64::MAX, 0xaaaa_aaaa_aaaa_aaaa, 0x5555_5555_5555_5555],
                sweep_points: false,
            },
            ScreeningEra {
                from_month: 12,
                units: vec![
                    U::ScalarAlu,
                    U::MulDiv,
                    U::Fma,
                    U::LoadStore,
                    U::VectorPipe,
                    U::Atomics,
                    U::BranchUnit,
                ],
                ops_per_unit: 400_000,
                operands: TestSpec::default_operands(),
                sweep_points: true,
            },
            ScreeningEra {
                from_month: 20,
                units: vec![
                    U::ScalarAlu,
                    U::MulDiv,
                    U::Fma,
                    U::LoadStore,
                    U::VectorPipe,
                    U::Atomics,
                    U::BranchUnit,
                    U::CryptoUnit,
                ],
                ops_per_unit: 600_000,
                operands: TestSpec::default_operands(),
                sweep_points: true,
            },
            ScreeningEra {
                from_month: 28,
                units: FunctionalUnit::ALL.to_vec(),
                ops_per_unit: 1_000_000,
                operands: TestSpec::default_operands(),
                sweep_points: true,
            },
        ])
    }

    /// A frozen schedule (the month-0 era forever) — the ablation foil.
    pub fn frozen(era: ScreeningEra) -> EraSchedule {
        EraSchedule::new(vec![ScreeningEra {
            from_month: 0,
            ..era
        }])
    }

    /// Returns a schedule whose every era additionally runs fuzz-distilled
    /// content: `units` are added to each era's coverage, `operands` to its
    /// pattern set, and `extra_ops_per_unit` to its op budget.
    ///
    /// This is how a distilled proxy-fuzzing corpus (the `mercurial-fuzz`
    /// crate) reaches BurnIn/Offline/Online screeners without changing
    /// their mechanics: fuzz content closes unit and operand-pattern gaps
    /// the hand-written eras leave open.
    pub fn with_fuzz_content(
        &self,
        units: &[FunctionalUnit],
        operands: &[u64],
        extra_ops_per_unit: u64,
    ) -> EraSchedule {
        let eras = self
            .eras
            .iter()
            .map(|e| {
                let mut era = e.clone();
                for &u in units {
                    if !era.units.contains(&u) {
                        era.units.push(u);
                    }
                }
                for &op in operands {
                    if !era.operands.contains(&op) {
                        era.operands.push(op);
                    }
                }
                era.ops_per_unit += extra_ops_per_unit;
                era
            })
            .collect();
        // Months are untouched, so the sorted/month-0 invariants hold.
        EraSchedule { eras }
    }

    /// The era in force during `month`.
    pub fn era_at(&self, month: u32) -> &ScreeningEra {
        self.eras
            .iter()
            .rev()
            .find(|e| e.from_month <= month)
            .expect("an era starts at month 0")
    }

    /// All eras.
    pub fn eras(&self) -> &[ScreeningEra] {
        &self.eras
    }
}

fn spec_for(era: &ScreeningEra, point: OperatingPoint) -> TestSpec {
    let mut unit_ops = [0u64; 9];
    for u in &era.units {
        unit_ops[u.index()] = era.ops_per_unit;
    }
    TestSpec {
        unit_ops,
        operands: era.operands.clone(),
        point,
    }
}

/// The operating points a sweeping screen visits for a product: the DVFS
/// extremes plus a hot variant (catching both high-frequency and the
/// surprising low-frequency defects, and thermal sensitivity).
fn sweep_points(topo: &FleetTopology, machine: u32, sweep: bool) -> Vec<OperatingPoint> {
    let curve = &topo.product_of(machine).dvfs;
    if sweep {
        vec![
            curve.max_point(65),
            curve.min_point(65),
            curve.max_point(92),
        ]
    } else {
        vec![curve.max_point(65)]
    }
}

/// Screens every core of a machine with the spec-per-point, returning
/// newly detected cores.
///
/// Only the machine's *mercurial* cores are walked per-point: a healthy
/// core has detection probability exactly 0 at every operating point, so
/// [`Population::screen_core`] returns `false` for it without consulting
/// the RNG — its screens reduce to the closed-form counter bump at the
/// end, bit-identical to looping over it (which earlier revisions did,
/// and which dominated fleet-scale wall clock).
///
/// `detected_on_machine` is a sorted read-only snapshot of this machine's
/// already-detected cores: each core is visited at most once per call, so
/// deferring the inserts to the caller changes nothing — and it is what
/// lets machines of one sweep run on different threads (machines own
/// disjoint core sets).
#[allow(clippy::too_many_arguments)]
fn screen_machine(
    topo: &FleetTopology,
    pop: &Population,
    machine: u32,
    era: &ScreeningEra,
    sweep: bool,
    hour: f64,
    test_id_base: u64,
    detected_on_machine: &[CoreUid],
    stats: &mut ScreeningStats,
) -> Vec<CoreUid> {
    let age = topo.age_hours(machine, hour);
    let points = sweep_points(topo, machine, sweep);
    let ops_per_screen = era.ops_per_unit * era.units.len() as u64;
    let mut newly = Vec::new();
    let mut hot_screened = 0u64;
    // One spec per sweep point, shared by every hot core of the machine —
    // and built only if the machine hosts an undetected mercurial core.
    let mut specs: Option<Vec<TestSpec>> = None;
    for hot in pop.mercurial_on(machine) {
        let core = hot.uid;
        if detected_on_machine.binary_search(&core).is_ok() {
            continue;
        }
        hot_screened += 1;
        let specs = specs.get_or_insert_with(|| points.iter().map(|&p| spec_for(era, p)).collect());
        for (pi, spec) in specs.iter().enumerate() {
            stats.core_screens += 1;
            stats.test_ops += ops_per_screen;
            let test_id = test_id_base
                .wrapping_mul(1_000_003)
                .wrapping_add(core.as_u64())
                .wrapping_add(pi as u64);
            if pop.screen_core(core, spec, age, test_id) {
                newly.push(core);
                stats.detections += 1;
                break;
            }
        }
    }
    // Every other core is healthy and undetected: screened at every point,
    // never failing, never drawing randomness.
    let clean = topo.cores_on(machine) - hot_screened - detected_on_machine.len() as u64;
    stats.core_screens += clean * points.len() as u64;
    stats.test_ops += clean * points.len() as u64 * ops_per_screen;
    newly
}

/// One machine's worth of screening work within a sweep/pass.
///
/// The era is `Arc`-shared across a sweep's tasks (it owns two `Vec`s)
/// and the operating points are re-derived from `sweep` inside
/// [`screen_machine`], keeping task materialization allocation-free.
struct MachineTask {
    machine: u32,
    era: Arc<ScreeningEra>,
    sweep: bool,
    hour: f64,
    test_id_base: u64,
    drain_hours: f64,
    method: DetectionMethod,
}

/// How a campaign turns a sweep/pass into per-machine tasks.
///
/// Whenever telemetry records (counters are charged per task, spans per
/// machine), every machine needs a task. Untraced, only "hot" machines —
/// those hosting a mercurial or already-detected core — can differ from
/// the closed-form counter bump, so the all-healthy remainder is folded
/// into [`ScreeningStats`] arithmetic without materializing tasks.
/// Bit-for-bit equality with the per-machine walk holds because clean
/// machines never draw randomness, never detect, and charge
/// order-independent counters (the f64 drain accumulator sums the same
/// per-machine constant the same number of times, so reordering clean
/// relative to hot machines cannot change the float result).
enum ScreenPlan<'a> {
    /// Materialize a task per machine (required while tracing).
    EveryMachine,
    /// Tasks only for this sorted machine set; the rest go to counters.
    HotOnly(&'a [u32]),
}

/// Whether the recorder forces the fully materialized per-machine walk.
fn per_task_trace(rec: &Recorder) -> bool {
    rec.flags().enabled
}

/// Whether `machine` belongs to the campaign's machine shard (`None`
/// means the whole fleet). Sharded campaigns skip non-owned machines
/// entirely — tasks, closed-form accounting, and drain charges — so a
/// partition of shards sums to the unsharded campaign exactly (every
/// machine is owned by exactly one shard and machines are independent).
fn shard_owns(shard: Option<(u32, u32)>, machine: u32) -> bool {
    shard.is_none_or(|(lo, hi)| machine >= lo && machine < hi)
}

/// The sorted set of machines hosting a mercurial or detected core — the
/// only machines whose screening can deviate from closed-form accounting.
fn hot_machines(pop: &Population, detected: &FastSet<CoreUid>) -> Vec<u32> {
    let mut hot: Vec<u32> = pop
        .mercurial_cores()
        .map(|c| c.uid.machine)
        .chain(detected.iter().map(|c| c.machine))
        .collect();
    hot.sort_unstable();
    hot.dedup();
    hot
}

/// The mutable outputs a screener accumulates into: the cross-screener
/// detected set, the shared signal log, and this policy's records/stats.
struct ScreenSinks<'a> {
    detected: &'a mut FastSet<CoreUid>,
    log: &'a mut SignalLog,
    records: &'a mut Vec<DetectionRecord>,
    stats: &'a mut ScreeningStats,
}

/// The `detect.*` instant-event name for a detection method.
fn detect_event_name(method: DetectionMethod) -> &'static str {
    match method {
        DetectionMethod::BurnIn => "detect.burnin",
        DetectionMethod::Offline => "detect.offline",
        DetectionMethod::Online => "detect.online",
        DetectionMethod::Triage => "detect.triage",
    }
}

/// Screens a batch of machines in task order and merges each result as
/// it lands.
///
/// Machines own disjoint core sets and `screen_machine` reads `detected`
/// as a per-batch snapshot (a batch visits each machine at most once), so
/// a detection on one machine never changes what another sees.
fn run_machine_tasks(
    topo: &FleetTopology,
    pop: &Population,
    tasks: &[MachineTask],
    sinks: &mut ScreenSinks<'_>,
    rec: &mut Recorder,
) {
    let machine_spans = rec.flags().machine_spans;
    // Group the detected snapshot by machine once per batch: each task
    // then binary-searches a short sorted slice instead of hashing every
    // core of its machine.
    let mut by_machine: FastMap<u32, Vec<CoreUid>> = FastMap::default();
    for &core in sinks.detected.iter() {
        by_machine.entry(core.machine).or_default().push(core);
    }
    for cores in by_machine.values_mut() {
        cores.sort_unstable();
    }
    // The three screen.* counters are bumped once per batch, not once per
    // task: a campaign sweep runs millions of machine tasks, and a
    // per-task `counter_add` turns the merge loop into millions of
    // metric-map lookups that dwarf the screening work itself. u64 sums
    // are exactly associative, so the batch totals are bit-identical.
    let (mut core_screens, mut test_ops, mut detections) = (0u64, 0u64, 0u64);
    for task in tasks {
        let mut local = ScreeningStats::default();
        let detected_on_machine = by_machine
            .get(&task.machine)
            .map(|v| v.as_slice())
            .unwrap_or(&[]);
        let newly = screen_machine(
            topo,
            pop,
            task.machine,
            &task.era,
            task.sweep,
            task.hour,
            task.test_id_base,
            detected_on_machine,
            &mut local,
        );
        if machine_spans {
            rec.begin(task.hour, "screen.machine");
            rec.end(task.hour + task.drain_hours, "screen.machine");
        }
        core_screens += local.core_screens;
        test_ops += local.test_ops;
        detections += local.detections;
        sinks.stats.drained_machine_hours += task.drain_hours;
        sinks.stats.core_screens += local.core_screens;
        sinks.stats.test_ops += local.test_ops;
        sinks.stats.detections += local.detections;
        for core in newly {
            rec.instant(
                task.hour,
                detect_event_name(task.method),
                Some(core.as_u64()),
                0.0,
            );
            sinks.detected.insert(core);
            sinks.records.push(DetectionRecord {
                core,
                hour: task.hour,
                method: task.method,
            });
            sinks.log.push(Signal {
                hour: task.hour,
                core,
                kind: SignalKind::ScreenerFailure,
                caused_by_cee: true,
            });
        }
    }
    if !tasks.is_empty() {
        rec.counter_add("screen.core_screens", core_screens);
        rec.counter_add("screen.test_ops", test_ops);
        rec.counter_add("screen.detections", detections);
    }
}

/// Pre-deployment burn-in: a heavy screen at machine deploy time, age 0.
#[derive(Debug, Clone)]
pub struct BurnIn {
    /// Coverage used during burn-in (typically the era in force when the
    /// machine shipped).
    pub schedule: EraSchedule,
    /// Multiplier on the era's op budget (burn-in can afford more).
    pub ops_multiplier: u64,
}

impl BurnIn {
    /// The burn-in screen for one machine at its deploy hour.
    fn task_for(&self, machine: u32, deploy_hour: f64) -> MachineTask {
        let month = (deploy_hour / 730.0) as u32;
        let mut era = self.schedule.era_at(month).clone();
        era.ops_per_unit *= self.ops_multiplier.max(1);
        MachineTask {
            machine,
            era: Arc::new(era),
            sweep: true,
            hour: deploy_hour,
            test_id_base: 0xb1b1 ^ machine as u64,
            drain_hours: 0.0,
            method: DetectionMethod::BurnIn,
        }
    }

    /// Runs burn-in for every machine at its deploy hour (machine order).
    pub fn run(
        &self,
        topo: &FleetTopology,
        pop: &Population,
        detected: &mut FastSet<CoreUid>,
        log: &mut SignalLog,
    ) -> (Vec<DetectionRecord>, ScreeningStats) {
        let mut stats = ScreeningStats::default();
        let mut records = Vec::new();
        let tasks: Vec<MachineTask> = topo
            .machines()
            .iter()
            .map(|m| self.task_for(m.machine, m.deploy_hour))
            .collect();
        run_machine_tasks(
            topo,
            pop,
            &tasks,
            &mut ScreenSinks {
                detected: &mut *detected,
                log: &mut *log,
                records: &mut records,
                stats: &mut stats,
            },
            &mut Recorder::disabled(),
        );
        (records, stats)
    }

    /// Starts an incremental campaign over the rollout: machines are
    /// screened as their deploy hour is reached, in `(deploy_hour,
    /// machine)` order, via [`BurnInCampaign::step_until`].
    pub fn campaign(&self, topo: &FleetTopology) -> BurnInCampaign {
        self.campaign_shard(topo, None)
    }

    /// [`BurnIn::campaign`] restricted to machines in `shard` (`[lo, hi)`)
    /// — the per-worker half of the serve split. A partition of shard
    /// campaigns screens every machine exactly once, in the same
    /// per-machine order and with the same test ids as the full campaign.
    pub fn campaign_shard(
        &self,
        topo: &FleetTopology,
        shard: Option<(u32, u32)>,
    ) -> BurnInCampaign {
        let mut queue: Vec<(f64, u32)> = topo
            .machines()
            .iter()
            .filter(|m| shard_owns(shard, m.machine))
            .map(|m| (m.deploy_hour, m.machine))
            .collect();
        queue.sort_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .expect("deploy hours are finite")
                .then(a.1.cmp(&b.1))
        });
        BurnInCampaign {
            screener: self.clone(),
            queue,
            cursor: 0,
            stats: ScreeningStats::default(),
        }
    }
}

/// Resumable burn-in cursor (see [`BurnIn::campaign`]).
///
/// Unlike the batch [`BurnIn::run`] — which screens in machine order with
/// one frozen `detected` snapshot — the campaign screens machines in
/// deploy-hour order and refreshes the snapshot every step, so it
/// interleaves correctly with an epoch-stepped simulation.
#[derive(Debug, Clone)]
pub struct BurnInCampaign {
    screener: BurnIn,
    /// `(deploy_hour, machine)`, sorted ascending.
    queue: Vec<(f64, u32)>,
    cursor: usize,
    stats: ScreeningStats,
}

impl BurnInCampaign {
    /// Screens every machine whose deploy hour lies before `until_hour`
    /// (exclusive) and has not been screened yet, skipping cores in
    /// `detected`; returns the new detections.
    pub fn step_until(
        &mut self,
        topo: &FleetTopology,
        pop: &Population,
        until_hour: f64,
        detected: &mut FastSet<CoreUid>,
        log: &mut SignalLog,
    ) -> Vec<DetectionRecord> {
        self.step_until_traced(
            topo,
            pop,
            until_hour,
            detected,
            log,
            &mut Recorder::disabled(),
        )
    }

    /// [`BurnInCampaign::step_until`] with telemetry: a `screen.burnin`
    /// span over the due batch plus per-detection `detect.burnin` instants.
    pub fn step_until_traced(
        &mut self,
        topo: &FleetTopology,
        pop: &Population,
        until_hour: f64,
        detected: &mut FastSet<CoreUid>,
        log: &mut SignalLog,
        rec: &mut Recorder,
    ) -> Vec<DetectionRecord> {
        let due = self.queue[self.cursor..]
            .iter()
            .take_while(|(h, _)| *h < until_hour)
            .count();
        let due_batch = &self.queue[self.cursor..self.cursor + due];
        let hot;
        let plan = if per_task_trace(rec) {
            ScreenPlan::EveryMachine
        } else {
            hot = hot_machines(pop, detected);
            ScreenPlan::HotOnly(&hot)
        };
        let mut tasks = Vec::new();
        for &(hour, machine) in due_batch {
            match &plan {
                ScreenPlan::HotOnly(hot) if hot.binary_search(&machine).is_err() => {
                    // An all-healthy machine's burn-in is pure accounting:
                    // every core, three sweep points, zero detections.
                    let month = (hour / 730.0) as u32;
                    let era = self.screener.schedule.era_at(month);
                    let ops_per_screen = era.ops_per_unit
                        * self.screener.ops_multiplier.max(1)
                        * era.units.len() as u64;
                    let screens = topo.cores_on(machine) * 3;
                    self.stats.core_screens += screens;
                    self.stats.test_ops += screens * ops_per_screen;
                }
                _ => tasks.push(self.screener.task_for(machine, hour)),
            }
        }
        let span = due_batch
            .first()
            .map(|&(h, _)| (h, due_batch.last().unwrap().0));
        self.cursor += due;
        let mut records = Vec::new();
        if let Some((start, _)) = span {
            rec.begin(start, "screen.burnin");
        }
        run_machine_tasks(
            topo,
            pop,
            &tasks,
            &mut ScreenSinks {
                detected: &mut *detected,
                log: &mut *log,
                records: &mut records,
                stats: &mut self.stats,
            },
            rec,
        );
        if let Some((_, end)) = span {
            rec.end(end, "screen.burnin");
        }
        records
    }

    /// The deploy hour of the next unscreened machine, if any remain.
    pub fn next_hour(&self) -> Option<f64> {
        self.queue.get(self.cursor).map(|&(h, _)| h)
    }

    /// Cumulative campaign accounting.
    pub fn stats(&self) -> ScreeningStats {
        self.stats
    }
}

/// Scheduled offline sweeps over rotating machine subsets.
#[derive(Debug, Clone)]
pub struct OfflineScreener {
    /// Coverage schedule.
    pub schedule: EraSchedule,
    /// Hours between sweeps.
    pub interval_hours: f64,
    /// Fraction of the fleet visited per sweep (rotating).
    pub fraction_per_sweep: f64,
    /// Machine-hours of drain charged per machine screened (migration +
    /// idle time; the §6 "draining a workload … can be expensive").
    pub drain_hours_per_machine: f64,
}

impl Default for OfflineScreener {
    fn default() -> OfflineScreener {
        OfflineScreener {
            schedule: EraSchedule::default_history(),
            interval_hours: 730.0 / 2.0, // twice a month
            fraction_per_sweep: 0.10,
            drain_hours_per_machine: 0.5,
        }
    }
}

impl OfflineScreener {
    /// One sweep's per-machine tasks (the rotating fleet subset deployed
    /// at `hour`), folding plan-skipped machines into `stats`.
    fn sweep_tasks(
        &self,
        topo: &FleetTopology,
        hour: f64,
        sweep_idx: u64,
        shard: Option<(u32, u32)>,
        plan: &ScreenPlan<'_>,
        stats: &mut ScreeningStats,
    ) -> Vec<MachineTask> {
        let n_machines = topo.machines().len() as u64;
        // Clamped so a sweep never visits a machine twice (a duplicate
        // would see a stale per-batch detected-snapshot).
        let per_sweep = ((n_machines as f64 * self.fraction_per_sweep).ceil() as u64)
            .max(1)
            .min(n_machines);
        let month = (hour / 730.0) as u32;
        let era = Arc::new(self.schedule.era_at(month).clone());
        let points = if era.sweep_points { 3u64 } else { 1u64 };
        let ops_per_screen = era.ops_per_unit * era.units.len() as u64;
        // Rotate deterministically through the fleet.
        let start = (sweep_idx * per_sweep) % n_machines;
        let mut tasks = Vec::new();
        for k in 0..per_sweep {
            let machine = ((start + k) % n_machines) as u32;
            // The rotation arithmetic (`start`, `per_sweep`) is global so
            // every shard agrees on which machines this sweep visits; a
            // shard then keeps only its own.
            if !shard_owns(shard, machine) || !topo.is_deployed(machine, hour) {
                continue;
            }
            match plan {
                ScreenPlan::HotOnly(hot) if hot.binary_search(&machine).is_err() => {
                    let screens = topo.cores_on(machine) * points;
                    stats.core_screens += screens;
                    stats.test_ops += screens * ops_per_screen;
                    stats.drained_machine_hours += self.drain_hours_per_machine;
                }
                _ => tasks.push(MachineTask {
                    machine,
                    era: Arc::clone(&era),
                    sweep: era.sweep_points,
                    hour,
                    test_id_base: 0x0ff1 ^ sweep_idx.wrapping_mul(65_537),
                    drain_hours: self.drain_hours_per_machine,
                    method: DetectionMethod::Offline,
                }),
            }
        }
        tasks
    }

    /// Runs the campaign over `months`, skipping cores already in
    /// `detected`; emits `ScreenerFailure` signals into `log`.
    pub fn run(
        &self,
        topo: &FleetTopology,
        pop: &Population,
        months: u32,
        detected: &mut FastSet<CoreUid>,
        log: &mut SignalLog,
    ) -> (Vec<DetectionRecord>, ScreeningStats) {
        let mut campaign = self.campaign(months);
        let records = campaign.step_until(topo, pop, f64::INFINITY, detected, log);
        (records, campaign.stats())
    }

    /// Starts an incremental campaign over `months`; sweeps fire as
    /// simulated time passes them via [`OfflineCampaign::step_until`].
    pub fn campaign(&self, months: u32) -> OfflineCampaign {
        self.campaign_shard(months, None)
    }

    /// [`OfflineScreener::campaign`] restricted to machines in `shard`:
    /// the sweep rotation stays globally synchronized (same `sweep_idx`,
    /// same test ids) while each shard screens only its own machines.
    pub fn campaign_shard(&self, months: u32, shard: Option<(u32, u32)>) -> OfflineCampaign {
        OfflineCampaign {
            screener: self.clone(),
            total_hours: months as f64 * 730.0,
            sweep_idx: 0,
            next_hour: self.interval_hours,
            shard,
            stats: ScreeningStats::default(),
        }
    }
}

/// Resumable offline-sweep cursor (see [`OfflineScreener::campaign`]).
#[derive(Debug, Clone)]
pub struct OfflineCampaign {
    screener: OfflineScreener,
    total_hours: f64,
    sweep_idx: u64,
    next_hour: f64,
    shard: Option<(u32, u32)>,
    stats: ScreeningStats,
}

impl OfflineCampaign {
    /// Runs every sweep scheduled before `until_hour` (exclusive, and
    /// never past the campaign window), skipping cores in `detected`;
    /// returns the new detections.
    pub fn step_until(
        &mut self,
        topo: &FleetTopology,
        pop: &Population,
        until_hour: f64,
        detected: &mut FastSet<CoreUid>,
        log: &mut SignalLog,
    ) -> Vec<DetectionRecord> {
        self.step_until_traced(
            topo,
            pop,
            until_hour,
            detected,
            log,
            &mut Recorder::disabled(),
        )
    }

    /// [`OfflineCampaign::step_until`] with telemetry: a `screen.offline`
    /// span per sweep (spanning its drain window) plus per-detection
    /// `detect.offline` instants.
    pub fn step_until_traced(
        &mut self,
        topo: &FleetTopology,
        pop: &Population,
        until_hour: f64,
        detected: &mut FastSet<CoreUid>,
        log: &mut SignalLog,
        rec: &mut Recorder,
    ) -> Vec<DetectionRecord> {
        let mut records = Vec::new();
        let hot;
        let plan = if per_task_trace(rec) {
            ScreenPlan::EveryMachine
        } else {
            // `hot` stays a superset across this call's sweeps: new
            // detections land on machines that host a mercurial core and
            // are therefore already in it.
            hot = hot_machines(pop, detected);
            ScreenPlan::HotOnly(&hot)
        };
        while self.next_hour < self.total_hours && self.next_hour < until_hour {
            let tasks = self.screener.sweep_tasks(
                topo,
                self.next_hour,
                self.sweep_idx,
                self.shard,
                &plan,
                &mut self.stats,
            );
            let span_end =
                self.next_hour + tasks.iter().map(|t| t.drain_hours).fold(0.0f64, f64::max);
            if !tasks.is_empty() {
                rec.begin(self.next_hour, "screen.offline");
            }
            run_machine_tasks(
                topo,
                pop,
                &tasks,
                &mut ScreenSinks {
                    detected: &mut *detected,
                    log: &mut *log,
                    records: &mut records,
                    stats: &mut self.stats,
                },
                rec,
            );
            if !tasks.is_empty() {
                rec.end(span_end, "screen.offline");
            }
            self.sweep_idx += 1;
            self.next_hour += self.screener.interval_hours;
        }
        records
    }

    /// The hour of the next sweep, if any remain in the window.
    pub fn next_hour(&self) -> Option<f64> {
        (self.next_hour < self.total_hours).then_some(self.next_hour)
    }

    /// Cumulative campaign accounting.
    pub fn stats(&self) -> ScreeningStats {
        self.stats
    }
}

/// Continuous spare-cycle screening at the nominal operating point.
#[derive(Debug, Clone)]
pub struct OnlineScreener {
    /// Coverage schedule (sweeps are ignored: online cannot change f/V/T
    /// under colocated workloads).
    pub schedule: EraSchedule,
    /// Hours between passes over the whole deployed fleet.
    pub interval_hours: f64,
    /// Fraction of the era's op budget available from spare cycles.
    pub ops_fraction: f64,
}

impl Default for OnlineScreener {
    fn default() -> OnlineScreener {
        OnlineScreener {
            schedule: EraSchedule::default_history(),
            interval_hours: 73.0,
            ops_fraction: 0.05,
        }
    }
}

impl OnlineScreener {
    /// One pass's per-machine tasks (every machine deployed at `hour`,
    /// with the era's op budget scaled to spare cycles), folding
    /// plan-skipped machines into `stats`.
    ///
    /// Under [`ScreenPlan::HotOnly`] the pass never walks the fleet:
    /// tasks come from the hot set (ascending machine order, matching the
    /// full walk) and the healthy remainder is a [`FleetTopology::
    /// deployed_cores`] lookup — one screen per core at the nominal
    /// point, zero detections, no randomness.
    fn pass_tasks(
        &self,
        topo: &FleetTopology,
        hour: f64,
        pass: u64,
        shard: Option<(u32, u32)>,
        plan: &ScreenPlan<'_>,
        stats: &mut ScreeningStats,
    ) -> Vec<MachineTask> {
        let month = (hour / 730.0) as u32;
        let mut scaled = self.schedule.era_at(month).clone();
        scaled.ops_per_unit =
            ((scaled.ops_per_unit as f64 * self.ops_fraction).ceil() as u64).max(1);
        let ops_per_screen = scaled.ops_per_unit * scaled.units.len() as u64;
        let era = Arc::new(scaled);
        let task = |machine: u32| MachineTask {
            machine,
            era: Arc::clone(&era),
            sweep: false,
            hour,
            test_id_base: 0x0a11 ^ pass.wrapping_mul(2_654_435_761),
            drain_hours: 0.0,
            method: DetectionMethod::Online,
        };
        match plan {
            ScreenPlan::EveryMachine => topo
                .machines()
                .iter()
                .filter(|m| shard_owns(shard, m.machine) && topo.is_deployed(m.machine, hour))
                .map(|m| task(m.machine))
                .collect(),
            ScreenPlan::HotOnly(hot) => {
                let mut hot_cores = 0u64;
                let tasks: Vec<MachineTask> = hot
                    .iter()
                    .copied()
                    .filter(|&machine| {
                        shard_owns(shard, machine) && topo.is_deployed(machine, hour)
                    })
                    .inspect(|&machine| hot_cores += topo.cores_on(machine))
                    .map(task)
                    .collect();
                // The closed-form remainder is shard-scoped too: ranged
                // deployed-core sums over a machine partition add to the
                // global prefix-sum lookup exactly (same integer cores).
                let clean = match shard {
                    None => topo.deployed_cores(hour) - hot_cores,
                    Some((lo, hi)) => topo.deployed_cores_in_range(lo, hi, hour) - hot_cores,
                };
                stats.core_screens += clean;
                stats.test_ops += clean * ops_per_screen;
                tasks
            }
        }
    }

    /// Runs the campaign over `months`.
    pub fn run(
        &self,
        topo: &FleetTopology,
        pop: &Population,
        months: u32,
        detected: &mut FastSet<CoreUid>,
        log: &mut SignalLog,
    ) -> (Vec<DetectionRecord>, ScreeningStats) {
        let mut campaign = self.campaign(months);
        let records = campaign.step_until(topo, pop, f64::INFINITY, detected, log);
        (records, campaign.stats())
    }

    /// Starts an incremental campaign over `months`; passes fire as
    /// simulated time passes them via [`OnlineCampaign::step_until`].
    pub fn campaign(&self, months: u32) -> OnlineCampaign {
        self.campaign_shard(months, None)
    }

    /// [`OnlineScreener::campaign`] restricted to machines in `shard`:
    /// the pass cadence and test ids stay globally synchronized while
    /// each shard screens only its own machines.
    pub fn campaign_shard(&self, months: u32, shard: Option<(u32, u32)>) -> OnlineCampaign {
        OnlineCampaign {
            screener: self.clone(),
            total_hours: months as f64 * 730.0,
            pass: 0,
            next_hour: self.interval_hours,
            shard,
            stats: ScreeningStats::default(),
        }
    }
}

/// Resumable online-pass cursor (see [`OnlineScreener::campaign`]).
#[derive(Debug, Clone)]
pub struct OnlineCampaign {
    screener: OnlineScreener,
    total_hours: f64,
    pass: u64,
    next_hour: f64,
    shard: Option<(u32, u32)>,
    stats: ScreeningStats,
}

impl OnlineCampaign {
    /// Runs every pass scheduled before `until_hour` (exclusive, and
    /// never past the campaign window), skipping cores in `detected`;
    /// returns the new detections.
    pub fn step_until(
        &mut self,
        topo: &FleetTopology,
        pop: &Population,
        until_hour: f64,
        detected: &mut FastSet<CoreUid>,
        log: &mut SignalLog,
    ) -> Vec<DetectionRecord> {
        self.step_until_traced(
            topo,
            pop,
            until_hour,
            detected,
            log,
            &mut Recorder::disabled(),
        )
    }

    /// [`OnlineCampaign::step_until`] with telemetry: a `screen.online`
    /// span per pass plus per-detection `detect.online` instants.
    pub fn step_until_traced(
        &mut self,
        topo: &FleetTopology,
        pop: &Population,
        until_hour: f64,
        detected: &mut FastSet<CoreUid>,
        log: &mut SignalLog,
        rec: &mut Recorder,
    ) -> Vec<DetectionRecord> {
        let mut records = Vec::new();
        let hot;
        let plan = if per_task_trace(rec) {
            ScreenPlan::EveryMachine
        } else {
            // A superset across this call's passes, as for offline sweeps.
            hot = hot_machines(pop, detected);
            ScreenPlan::HotOnly(&hot)
        };
        while self.next_hour < self.total_hours && self.next_hour < until_hour {
            let tasks = self.screener.pass_tasks(
                topo,
                self.next_hour,
                self.pass,
                self.shard,
                &plan,
                &mut self.stats,
            );
            if !tasks.is_empty() {
                rec.begin(self.next_hour, "screen.online");
            }
            run_machine_tasks(
                topo,
                pop,
                &tasks,
                &mut ScreenSinks {
                    detected: &mut *detected,
                    log: &mut *log,
                    records: &mut records,
                    stats: &mut self.stats,
                },
                rec,
            );
            if !tasks.is_empty() {
                rec.end(self.next_hour, "screen.online");
            }
            self.pass += 1;
            self.next_hour += self.screener.interval_hours;
        }
        records
    }

    /// The hour of the next pass, if any remain in the window.
    pub fn next_hour(&self) -> Option<f64> {
        (self.next_hour < self.total_hours).then_some(self.next_hour)
    }

    /// Cumulative campaign accounting.
    pub fn stats(&self) -> ScreeningStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mercurial_fault::{library, Activation, CoreFaultProfile, Lesion};
    use mercurial_fleet::topology::FleetConfig;

    fn topo(machines: u32, seed: u64) -> FleetTopology {
        FleetTopology::build(FleetConfig::tiny(machines, seed))
    }

    fn hot_core(machine: u32) -> (CoreUid, CoreFaultProfile) {
        (
            CoreUid::new(machine, 0, 0),
            CoreFaultProfile::single(
                "hot-alu",
                FunctionalUnit::ScalarAlu,
                Lesion::FlipBit { bit: 0 },
                Activation::with_prob(1e-3),
            ),
        )
    }

    #[test]
    fn era_schedule_grows_coverage() {
        let sched = EraSchedule::default_history();
        let early = sched.era_at(0);
        let late = sched.era_at(30);
        assert!(late.units.len() > early.units.len());
        assert!(late.ops_per_unit > early.ops_per_unit);
        assert!(!early.units.contains(&FunctionalUnit::CryptoUnit));
        assert_eq!(late.units.len(), FunctionalUnit::ALL.len());
        // Boundary behavior: month 6 switches eras.
        assert_eq!(sched.era_at(5).units.len(), 4);
        assert_eq!(sched.era_at(6).units.len(), 5);
    }

    #[test]
    fn burn_in_catches_hot_manufacturing_defects() {
        let topo = topo(20, 31);
        let pop = Population::with_explicit(31, vec![hot_core(4)]);
        let mut detected = FastSet::default();
        let mut log = SignalLog::new();
        let burnin = BurnIn {
            schedule: EraSchedule::default_history(),
            ops_multiplier: 10,
        };
        let (records, stats) = burnin.run(&topo, &pop, &mut detected, &mut log);
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].core, CoreUid::new(4, 0, 0));
        assert_eq!(records[0].method, DetectionMethod::BurnIn);
        assert!(stats.core_screens > 0);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn burn_in_misses_latent_defects() {
        // §6's core argument for lifecycle testing.
        let topo = topo(20, 32);
        let latent = (
            CoreUid::new(3, 0, 1),
            library::late_onset_muldiv(1000.0, 0.01),
        );
        let pop = Population::with_explicit(32, vec![latent]);
        let mut detected = FastSet::default();
        let mut log = SignalLog::new();
        let burnin = BurnIn {
            schedule: EraSchedule::default_history(),
            ops_multiplier: 100,
        };
        let (records, _) = burnin.run(&topo, &pop, &mut detected, &mut log);
        assert!(records.is_empty(), "latent defect must escape burn-in");
    }

    #[test]
    fn offline_catches_latent_defects_after_onset() {
        let topo = topo(20, 33);
        let onset = 2.0 * 730.0; // manifests in month 2
        let latent = (
            CoreUid::new(3, 0, 1),
            library::late_onset_muldiv(onset, 1e-3),
        );
        let pop = Population::with_explicit(33, vec![latent]);
        let mut detected = FastSet::default();
        let mut log = SignalLog::new();
        let screener = OfflineScreener {
            fraction_per_sweep: 1.0,
            ..OfflineScreener::default()
        };
        let (records, stats) = screener.run(&topo, &pop, 12, &mut detected, &mut log);
        assert_eq!(records.len(), 1);
        assert!(records[0].hour >= onset, "detected before onset?");
        assert!(stats.drained_machine_hours > 0.0);
    }

    #[test]
    fn sweeping_catches_low_frequency_defects_online_misses() {
        // A defect that only fires at the DVFS floor: offline sweeps visit
        // the floor; online screening at nominal never sees it.
        let topo = topo(10, 34);
        let bad = (CoreUid::new(2, 0, 0), library::low_freq_worse_alu(0.9));
        let pop = Population::with_explicit(34, vec![bad.clone()]);

        let mut det_online = FastSet::default();
        let mut log1 = SignalLog::new();
        let online = OnlineScreener::default();
        let (online_records, _) = online.run(&topo, &pop, 12, &mut det_online, &mut log1);

        let mut det_offline = FastSet::default();
        let mut log2 = SignalLog::new();
        let offline = OfflineScreener {
            fraction_per_sweep: 1.0,
            schedule: EraSchedule::frozen(ScreeningEra {
                from_month: 0,
                units: FunctionalUnit::ALL.to_vec(),
                ops_per_unit: 200_000,
                operands: TestSpec::default_operands(),
                sweep_points: true,
            }),
            ..OfflineScreener::default()
        };
        let (offline_records, _) = offline.run(&topo, &pop, 12, &mut det_offline, &mut log2);

        assert!(offline_records.iter().any(|r| r.core == bad.0));
        // The low-frequency defect has base_prob = 0.9/50 = 1.8% at
        // nominal, so online *can* catch it quickly too — make the defect
        // truly floor-only for the contrast:
        let floor_only = (
            CoreUid::new(3, 0, 0),
            CoreFaultProfile::single(
                "floor-only",
                FunctionalUnit::ScalarAlu,
                Lesion::FlipBit { bit: 9 },
                Activation {
                    base_prob: 1e-9,
                    freq: mercurial_fault::FreqResponse::LowFreq {
                        knee_mhz: 1300,
                        floor_mhz: 1200,
                        max_boost: 1e6,
                    },
                    ..Activation::always()
                },
            ),
        );
        let pop2 = Population::with_explicit(35, vec![floor_only.clone()]);
        let mut d1 = FastSet::default();
        let mut d2 = FastSet::default();
        let mut l = SignalLog::new();
        let (on2, _) = online.run(&topo, &pop2, 12, &mut d1, &mut l);
        let (off2, _) = offline.run(&topo, &pop2, 12, &mut d2, &mut l);
        assert!(
            on2.iter().all(|r| r.core != floor_only.0),
            "online cannot see the floor"
        );
        assert!(
            off2.iter().any(|r| r.core == floor_only.0),
            "offline sweep reaches the floor"
        );
        let _ = online_records;
    }

    #[test]
    fn era_gating_delays_unit_coverage() {
        // A crypto-unit defect cannot be caught before month 20 under the
        // default history (crypto tests did not exist yet) — the paper's
        // "zero-day CEEs".
        let topo = topo(10, 36);
        let bad = (CoreUid::new(1, 0, 0), library::self_inverting_aes());
        let pop = Population::with_explicit(36, vec![bad]);
        let mut detected = FastSet::default();
        let mut log = SignalLog::new();
        let screener = OfflineScreener {
            fraction_per_sweep: 1.0,
            ..OfflineScreener::default()
        };
        let (records, _) = screener.run(&topo, &pop, 36, &mut detected, &mut log);
        assert_eq!(records.len(), 1);
        let month = records[0].hour / 730.0;
        assert!(
            month >= 20.0,
            "caught at month {month} before crypto coverage existed"
        );
    }

    #[test]
    fn online_is_cheaper_but_slower_than_offline() {
        let topo = topo(30, 37);
        // A moderate defect: both will find it, offline sooner (bigger
        // budget per screen).
        let bad = (
            CoreUid::new(7, 0, 2),
            CoreFaultProfile::single(
                "moderate",
                FunctionalUnit::ScalarAlu,
                Lesion::FlipBit { bit: 3 },
                Activation::with_prob(2e-5),
            ),
        );
        let pop = Population::with_explicit(37, vec![bad.clone()]);
        let offline = OfflineScreener {
            fraction_per_sweep: 1.0,
            ..OfflineScreener::default()
        };
        let online = OnlineScreener::default();
        let mut d1 = FastSet::default();
        let mut d2 = FastSet::default();
        let mut l = SignalLog::new();
        let (off_rec, off_stats) = offline.run(&topo, &pop, 24, &mut d1, &mut l);
        let (on_rec, on_stats) = online.run(&topo, &pop, 24, &mut d2, &mut l);
        assert!(!off_rec.is_empty());
        assert!(!on_rec.is_empty());
        assert!(
            off_rec[0].hour <= on_rec[0].hour,
            "offline should detect no later"
        );
        assert_eq!(on_stats.drained_machine_hours, 0.0, "online never drains");
        assert!(off_stats.drained_machine_hours > 0.0);
    }

    #[test]
    fn stepped_campaigns_match_batch_runs() {
        // Offline/online: stepping in arbitrary hour increments must
        // reproduce the batch run bit-for-bit (same sweeps, same order).
        let topo = topo(24, 39);
        let defects = vec![
            hot_core(2),
            hot_core(17),
            (
                CoreUid::new(5, 0, 1),
                library::late_onset_muldiv(1.5 * 730.0, 1e-3),
            ),
        ];
        let pop = Population::with_explicit(39, defects);
        let months = 18u32;
        let offline = OfflineScreener {
            fraction_per_sweep: 0.5,
            ..OfflineScreener::default()
        };
        let online = OnlineScreener::default();

        let mut batch_detected = FastSet::default();
        let mut batch_log = SignalLog::new();
        let (batch_off, batch_off_stats) =
            offline.run(&topo, &pop, months, &mut batch_detected, &mut batch_log);
        let (batch_on, batch_on_stats) =
            online.run(&topo, &pop, months, &mut batch_detected, &mut batch_log);

        for step_hours in [73.0, 311.0] {
            let mut detected = FastSet::default();
            let mut log = SignalLog::new();
            let mut off_campaign = offline.campaign(months);
            let mut on_campaign = online.campaign(months);
            let mut off_records = Vec::new();
            let mut on_records = Vec::new();
            // Phase-major like the batch: offline first, then online.
            let mut until = step_hours;
            while off_campaign.next_hour().is_some() {
                off_records.extend(off_campaign.step_until(
                    &topo,
                    &pop,
                    until,
                    &mut detected,
                    &mut log,
                ));
                until += step_hours;
            }
            let mut until = step_hours;
            while on_campaign.next_hour().is_some() {
                on_records.extend(on_campaign.step_until(
                    &topo,
                    &pop,
                    until,
                    &mut detected,
                    &mut log,
                ));
                until += step_hours;
            }
            assert_eq!(
                off_records, batch_off,
                "offline diverges at {step_hours}h steps"
            );
            assert_eq!(
                on_records, batch_on,
                "online diverges at {step_hours}h steps"
            );
            assert_eq!(off_campaign.stats(), batch_off_stats);
            assert_eq!(on_campaign.stats(), batch_on_stats);
            assert_eq!(log.all(), batch_log.all());
        }
    }

    #[test]
    fn burnin_campaign_screens_in_deploy_order() {
        let topo = topo(20, 31);
        let pop = Population::with_explicit(31, vec![hot_core(4), hot_core(11)]);
        let burnin = BurnIn {
            schedule: EraSchedule::default_history(),
            ops_multiplier: 10,
        };
        let mut batch_detected = FastSet::default();
        let mut batch_log = SignalLog::new();
        let (batch_records, batch_stats) =
            burnin.run(&topo, &pop, &mut batch_detected, &mut batch_log);

        let mut campaign = burnin.campaign(&topo);
        let mut detected = FastSet::default();
        let mut log = SignalLog::new();
        let mut records = Vec::new();
        let mut until = 100.0;
        let mut last_hour = f64::NEG_INFINITY;
        while campaign.next_hour().is_some() {
            for r in campaign.step_until(&topo, &pop, until, &mut detected, &mut log) {
                assert!(r.hour >= last_hour, "deploy-hour order violated");
                last_hour = r.hour;
                records.push(r);
            }
            until += 100.0;
        }
        // Same detections and cost as the batch, ordered by deploy hour.
        assert_eq!(campaign.stats(), batch_stats);
        assert_eq!(detected, batch_detected);
        let mut batch_sorted = batch_records;
        batch_sorted.sort_by(|a, b| {
            a.hour
                .partial_cmp(&b.hour)
                .expect("finite hours")
                .then(a.core.as_u64().cmp(&b.core.as_u64()))
        });
        records.sort_by(|a, b| {
            a.hour
                .partial_cmp(&b.hour)
                .expect("finite hours")
                .then(a.core.as_u64().cmp(&b.core.as_u64()))
        });
        assert_eq!(records, batch_sorted);
    }

    #[test]
    fn untraced_fast_plans_match_the_traced_task_walk() {
        // The untraced campaigns skip all-healthy machines via closed-form
        // accounting; a recording recorder forces the per-machine walk.
        // Records, stats (including the f64 drain accumulator), detected
        // sets, and logs must be bit-for-bit identical either way.
        use mercurial_trace::TraceFlags;
        let mut cfg = FleetConfig::tiny(24, 39);
        cfg.rollout_months = 6;
        let topo = FleetTopology::build(cfg);
        let defects = vec![
            hot_core(2),
            hot_core(17),
            (
                CoreUid::new(5, 0, 1),
                library::late_onset_muldiv(1.5 * 730.0, 1e-3),
            ),
            (CoreUid::new(12, 0, 0), library::low_freq_worse_alu(0.9)),
        ];
        let pop = Population::with_explicit(39, defects);
        let months = 18u32;
        let run_all = |traced: bool| {
            let mut rec = if traced {
                Recorder::with_flags(TraceFlags::enabled())
            } else {
                Recorder::disabled()
            };
            let mut detected = FastSet::default();
            let mut log = SignalLog::new();
            let burnin = BurnIn {
                schedule: EraSchedule::default_history(),
                ops_multiplier: 5,
            };
            let offline = OfflineScreener {
                fraction_per_sweep: 0.5,
                ..OfflineScreener::default()
            };
            let online = OnlineScreener::default();
            let mut bc = burnin.campaign(&topo);
            let mut off = offline.campaign(months);
            let mut on = online.campaign(months);
            let mut records = Vec::new();
            let mut until = 73.0;
            while until <= months as f64 * 730.0 + 73.0 {
                records.extend(bc.step_until_traced(
                    &topo,
                    &pop,
                    until,
                    &mut detected,
                    &mut log,
                    &mut rec,
                ));
                records.extend(off.step_until_traced(
                    &topo,
                    &pop,
                    until,
                    &mut detected,
                    &mut log,
                    &mut rec,
                ));
                records.extend(on.step_until_traced(
                    &topo,
                    &pop,
                    until,
                    &mut detected,
                    &mut log,
                    &mut rec,
                ));
                until += 73.0;
            }
            let mut det: Vec<CoreUid> = detected.into_iter().collect();
            det.sort_unstable();
            (records, [bc.stats(), off.stats(), on.stats()], det, log)
        };
        let (r_fast, s_fast, d_fast, l_fast) = run_all(false);
        let (r_traced, s_traced, d_traced, l_traced) = run_all(true);
        assert!(!r_fast.is_empty(), "test needs detections to compare");
        assert_eq!(r_fast, r_traced, "records diverge between plans");
        assert_eq!(s_fast, s_traced, "stats diverge between plans");
        assert_eq!(d_fast, d_traced, "detected sets diverge between plans");
        assert_eq!(l_fast.all(), l_traced.all(), "logs diverge between plans");
    }

    #[test]
    fn sharded_campaigns_union_to_the_full_fleet() {
        // The serve contract: a partition of machine-range shard campaigns
        // must produce exactly the full campaign's detections (as a set —
        // within a sweep, shard-internal order is machine order anyway),
        // the same detected set, the same logs as a multiset, and stats
        // that sum exactly (drain is a constant per machine, so the f64
        // accumulator is exact in any grouping).
        let topo = topo(24, 39);
        let defects = vec![
            hot_core(2),
            hot_core(9),
            hot_core(17),
            (
                CoreUid::new(5, 0, 1),
                library::late_onset_muldiv(1.5 * 730.0, 1e-3),
            ),
            (CoreUid::new(12, 0, 0), library::low_freq_worse_alu(0.9)),
        ];
        let pop = Population::with_explicit(39, defects);
        let months = 18u32;
        let burnin = BurnIn {
            schedule: EraSchedule::default_history(),
            ops_multiplier: 5,
        };
        let offline = OfflineScreener {
            fraction_per_sweep: 0.5,
            ..OfflineScreener::default()
        };
        let online = OnlineScreener::default();

        let run_shard = |shard: Option<(u32, u32)>| {
            let mut detected = FastSet::default();
            let mut log = SignalLog::new();
            let mut bc = burnin.campaign_shard(&topo, shard);
            let mut off = offline.campaign_shard(months, shard);
            let mut on = online.campaign_shard(months, shard);
            let mut records = Vec::new();
            let mut until = 73.0;
            while until <= months as f64 * 730.0 + 73.0 {
                records.extend(bc.step_until(&topo, &pop, until, &mut detected, &mut log));
                records.extend(off.step_until(&topo, &pop, until, &mut detected, &mut log));
                records.extend(on.step_until(&topo, &pop, until, &mut detected, &mut log));
                until += 73.0;
            }
            let mut det: Vec<CoreUid> = detected.into_iter().collect();
            det.sort_unstable();
            (records, [bc.stats(), off.stats(), on.stats()], det, log)
        };
        let canon_records = |records: &[DetectionRecord]| {
            let mut v = records.to_vec();
            v.sort_by(|a, b| a.hour.total_cmp(&b.hour).then(a.core.cmp(&b.core)));
            v
        };
        let canon_log = |log: &SignalLog| {
            let mut v = log.all().to_vec();
            v.sort_by(|a, b| a.hour.total_cmp(&b.hour).then(a.core.cmp(&b.core)));
            v
        };

        let (full_rec, full_stats, full_det, full_log) = run_shard(None);
        assert!(full_rec.len() >= 3, "test needs detections to compare");
        let machines = topo.machines().len() as u32;
        for workers in [1u32, 2, 4] {
            let mut records = Vec::new();
            let mut stats = [ScreeningStats::default(); 3];
            let mut det = Vec::new();
            let mut log = SignalLog::new();
            for w in 0..workers {
                let lo = machines * w / workers;
                let hi = machines * (w + 1) / workers;
                let (r, s, d, l) = run_shard(Some((lo, hi)));
                records.extend(r);
                for (sum, part) in stats.iter_mut().zip(s) {
                    sum.core_screens += part.core_screens;
                    sum.test_ops += part.test_ops;
                    sum.drained_machine_hours += part.drained_machine_hours;
                    sum.detections += part.detections;
                }
                det.extend(d);
                log.append(l);
            }
            det.sort_unstable();
            assert_eq!(
                canon_records(&records),
                canon_records(&full_rec),
                "{workers} shards"
            );
            assert_eq!(stats, full_stats, "{workers} shards");
            assert_eq!(det, full_det, "{workers} shards");
            assert_eq!(canon_log(&log), canon_log(&full_log), "{workers} shards");
        }
    }

    #[test]
    fn detected_cores_are_not_rescreened() {
        let topo = topo(5, 38);
        let bad = hot_core(1);
        let pop = Population::with_explicit(38, vec![bad]);
        let mut detected = FastSet::default();
        let mut log = SignalLog::new();
        let screener = OfflineScreener {
            fraction_per_sweep: 1.0,
            ..OfflineScreener::default()
        };
        let (records, _) = screener.run(&topo, &pop, 12, &mut detected, &mut log);
        assert_eq!(
            records.len(),
            1,
            "exactly one detection despite many sweeps"
        );
    }
}
