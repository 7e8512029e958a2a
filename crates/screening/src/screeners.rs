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

use mercurial_fault::FastSet;
use mercurial_fault::{CoreUid, FunctionalUnit, OperatingPoint};
use mercurial_fleet::population::TestSpec;
use mercurial_fleet::{DeployCursor, FleetTopology};
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
/// deferring the inserts to the caller changes nothing.
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
    method: DetectionMethod,
}

/// One planned sweep/pass: tasks for its "hot" machines — those hosting a
/// mercurial or already-detected core, the only ones whose screening can
/// deviate from closed-form accounting — and the closed-form screens of
/// the all-healthy rest, which need no task.
///
/// Bit-for-bit equality with a per-machine walk holds because clean
/// machines never draw randomness, never detect, and charge
/// order-independent counters (the f64 drain accumulator sums the same
/// per-machine constant the same number of times, so reordering clean
/// relative to hot machines cannot change the float result).
#[derive(Default)]
struct Batch {
    tasks: Vec<MachineTask>,
    /// Core screens of the covered all-healthy machines.
    clean_screens: u64,
    /// Test ops of the covered all-healthy machines.
    clean_ops: u64,
    /// The pass span `(name, start, end)`: present exactly when the batch
    /// covers at least one owned, deployed machine, which is also when its
    /// `screen.*` counters are charged.
    span: Option<(&'static str, f64, f64)>,
}

/// The machine range `[lo, hi)` covering every machine id — the shard a
/// whole-fleet campaign owns. A campaign skips machines outside its shard
/// entirely — tasks, closed-form accounting, and drain charges — so a
/// partition of shards sums to the whole-fleet campaign exactly (every
/// machine is owned by exactly one shard and machines are independent).
const ALL_MACHINES: (u32, u32) = (0, u32::MAX);

/// The sorted set of machines hosting a mercurial or detected core — the
/// only machines whose screening can deviate from closed-form accounting.
/// The population's machines are sorted once at seeding, so this sorts
/// only the detected machines and merges the two lists.
fn hot_machines(pop: &Population, detected: &FastSet<CoreUid>) -> Vec<u32> {
    let mercurial = pop.mercurial_machines();
    let mut flagged: Vec<u32> = detected.iter().map(|c| c.machine).collect();
    flagged.sort_unstable();
    flagged.dedup();
    let mut hot = Vec::with_capacity(mercurial.len() + flagged.len());
    let (mut i, mut j) = (0, 0);
    while let (Some(&a), Some(&b)) = (mercurial.get(i), flagged.get(j)) {
        hot.push(a.min(b));
        i += usize::from(a <= b);
        j += usize::from(b <= a);
    }
    hot.extend_from_slice(&mercurial[i..]);
    hot.extend_from_slice(&flagged[j..]);
    hot
}

/// The hot set as a machine-id bitmap, for O(1) membership while burn-in
/// walks machines in deploy order rather than id order. A plan sets the
/// bits of its hot list and clears the same bits afterwards, so the
/// bitmap costs O(hot machines) a plan, never a fleet-sized clear.
#[derive(Debug, Clone)]
struct HotMask {
    words: Vec<u64>,
}

impl HotMask {
    fn new(machines: usize) -> HotMask {
        HotMask {
            words: vec![0; machines.div_ceil(64)],
        }
    }

    /// Sets (`on`) or clears the bits of `hot`. Ids outside the fleet are
    /// skipped: no planner ever asks about them.
    fn set(&mut self, hot: &[u32], on: bool) {
        for &m in hot {
            if let Some(word) = self.words.get_mut(m as usize / 64) {
                let bit = 1u64 << (m % 64);
                *word = if on { *word | bit } else { *word & !bit };
            }
        }
    }

    fn contains(&self, machine: u32) -> bool {
        self.words[machine as usize / 64] >> (machine % 64) & 1 == 1
    }
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

/// Screens a batch's tasks in order, merging each result as it lands,
/// and charges the batch's clean remainder.
///
/// Machines own disjoint core sets and `screen_machine` reads `detected`
/// as a per-batch snapshot (a batch visits each machine at most once), so
/// a detection on one machine never changes what another sees.
fn run_machine_tasks(
    topo: &FleetTopology,
    pop: &Population,
    batch: &Batch,
    sinks: &mut ScreenSinks<'_>,
    rec: &mut Recorder,
) {
    if let Some((name, start, _)) = batch.span {
        rec.begin(start, name);
    }
    // Sort the detected snapshot once per batch (and only for a batch
    // with tasks): each task then slices out its machine's run with two
    // binary searches instead of hashing every core of its machine.
    let mut snapshot: Vec<CoreUid> = Vec::new();
    if !batch.tasks.is_empty() {
        snapshot.extend(sinks.detected.iter().copied());
        snapshot.sort_unstable();
    }
    // The three screen.* counters are bumped once per batch, not once per
    // task: a per-task `counter_add` turns the merge loop into metric-map
    // lookups that dwarf the screening work itself. u64 sums are exactly
    // associative, so the batch totals are bit-identical.
    let before = *sinks.stats;
    sinks.stats.core_screens += batch.clean_screens;
    sinks.stats.test_ops += batch.clean_ops;
    for task in &batch.tasks {
        let from = snapshot.partition_point(|c| c.machine < task.machine);
        let to = from + snapshot[from..].partition_point(|c| c.machine == task.machine);
        let detected_on_machine = &snapshot[from..to];
        let newly = screen_machine(
            topo,
            pop,
            task.machine,
            &task.era,
            task.sweep,
            task.hour,
            task.test_id_base,
            detected_on_machine,
            sinks.stats,
        );
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
    if let Some((name, _, end)) = batch.span {
        let after = *sinks.stats;
        rec.counter_add(
            "screen.core_screens",
            after.core_screens - before.core_screens,
        );
        rec.counter_add("screen.test_ops", after.test_ops - before.test_ops);
        rec.counter_add("screen.detections", after.detections - before.detections);
        rec.end(end, name);
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

/// The month whose era screens a machine deployed at `hour`.
fn deploy_month(hour: f64) -> u32 {
    (hour / 730.0) as u32
}

impl BurnIn {
    /// Plans burn-in for due machines given as `(deploy month, machines)`
    /// runs, in order: a task per hot machine at its deploy hour,
    /// closed-form accounting for the rest (every core, three sweep
    /// points, zero detections). The month picks the era, so a run's
    /// clean cores are summed and charged once (exact: the sums are
    /// `u64`), and a machine's deploy hour is read only when it is hot.
    /// The caller sets the span.
    fn plan<M: IntoIterator<Item = u32>>(
        &self,
        topo: &FleetTopology,
        runs: impl IntoIterator<Item = (u32, M)>,
        hot: &HotMask,
    ) -> Batch {
        let mut batch = Batch::default();
        for (month, machines) in runs {
            let era = self.schedule.era_at(month);
            let ops_per_unit = era.ops_per_unit * self.ops_multiplier.max(1);
            let mut clean_cores = 0u64;
            for machine in machines {
                if hot.contains(machine) {
                    batch.tasks.push(MachineTask {
                        machine,
                        era: Arc::new(ScreeningEra {
                            ops_per_unit,
                            ..era.clone()
                        }),
                        sweep: true,
                        hour: topo.deploy_hour(machine),
                        test_id_base: 0xb1b1 ^ machine as u64,
                        method: DetectionMethod::BurnIn,
                    });
                } else {
                    clean_cores += topo.cores_on(machine);
                }
            }
            let screens = clean_cores * 3;
            batch.clean_screens += screens;
            batch.clean_ops += screens * ops_per_unit * era.units.len() as u64;
        }
        batch
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
        let mut hot = HotMask::new(topo.machine_count() as usize);
        hot.set(&hot_machines(pop, detected), true);
        let n = topo.machine_count();
        let runs = (0..n).map(|m| (deploy_month(topo.deploy_hour(m)), [m]));
        let mut batch = self.plan(topo, runs, &hot);
        if n > 0 {
            batch.span = Some((
                "screen.burnin",
                topo.deploy_hour(0),
                topo.deploy_hour(n - 1),
            ));
        }
        run_machine_tasks(
            topo,
            pop,
            &batch,
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
        self.campaign_shard(topo, ALL_MACHINES)
    }

    /// [`BurnIn::campaign`] restricted to machines `[lo, hi)` — the
    /// per-worker half of the serve split. A partition of shard
    /// campaigns screens every machine exactly once, in the same
    /// per-machine order and with the same test ids as the full campaign.
    pub fn campaign_shard(&self, topo: &FleetTopology, shard: (u32, u32)) -> BurnInCampaign {
        let mut campaign = BurnInCampaign {
            screener: self.clone(),
            shard,
            next: 0,
            next_hour: None,
            hot: HotMask::new(topo.machine_count() as usize),
            stats: ScreeningStats::default(),
        };
        campaign.seek(topo, 0);
        campaign
    }
}

/// Resumable burn-in cursor (see [`BurnIn::campaign`]).
///
/// Unlike the batch [`BurnIn::run`] — which screens in machine order with
/// one frozen `detected` snapshot — the campaign screens machines in
/// deploy-hour order and refreshes the snapshot every step, so it
/// interleaves correctly with an epoch-stepped simulation. It walks the
/// topology's deploy order in place, skipping machines outside its
/// shard and reading a deploy hour only at deploy-month boundaries, for
/// hot machines and for the span's ends, so every step must get the
/// topology the campaign started on.
#[derive(Debug, Clone)]
pub struct BurnInCampaign {
    screener: BurnIn,
    shard: (u32, u32),
    /// Deploy-order position of the next unscreened owned machine (the
    /// order's length once every owned machine is screened).
    next: usize,
    /// The deploy hour at `next`, if any owned machine is left.
    next_hour: Option<f64>,
    /// Scratch membership bitmap, all clear between steps.
    hot: HotMask,
    stats: ScreeningStats,
}

impl BurnInCampaign {
    /// Screens every machine whose deploy hour lies before `until_hour`
    /// (exclusive) and has not been screened yet, skipping cores in
    /// `detected`; returns the new detections.
    ///
    /// An enabled `rec` gets a `screen.burnin` span over the due batch
    /// plus per-detection `detect.burnin` instants.
    pub fn step_until(
        &mut self,
        topo: &FleetTopology,
        pop: &Population,
        until_hour: f64,
        detected: &mut FastSet<CoreUid>,
        log: &mut SignalLog,
        rec: &mut Recorder,
    ) -> Vec<DetectionRecord> {
        if self.next_hour.is_none_or(|h| h >= until_hour) {
            return Vec::new();
        }
        let order = topo.deploy_order();
        let end =
            self.next + order[self.next..].partition_point(|&m| topo.deploy_hour(m) < until_hour);
        let (lo, hi) = self.shard;
        let owned = move |m: &u32| (lo..hi).contains(m);
        let due = &order[self.next..end];
        // Split the due stretch into deploy-month runs by binary search:
        // the order is sorted by deploy hour, so each run's end costs
        // O(log n) hour reads and its machines none.
        let mut at = 0;
        let runs = std::iter::from_fn(|| {
            let &first = due.get(at)?;
            let month = deploy_month(topo.deploy_hour(first));
            let len = due[at..].partition_point(|&m| deploy_month(topo.deploy_hour(m)) <= month);
            let run = &due[at..at + len];
            at += len;
            Some((month, run.iter().copied().filter(owned)))
        });
        let hot = hot_machines(pop, detected);
        self.hot.set(&hot, true);
        let mut batch = self.screener.plan(topo, runs, &self.hot);
        self.hot.set(&hot, false);
        // `next` is owned and due, so the span's two ends exist.
        let last = due
            .iter()
            .rev()
            .find(|m| owned(m))
            .expect("an owned due machine");
        let first = self.next_hour.expect("an owned due machine");
        batch.span = Some(("screen.burnin", first, topo.deploy_hour(*last)));
        self.seek(topo, end);
        let mut records = Vec::new();
        run_machine_tasks(
            topo,
            pop,
            &batch,
            &mut ScreenSinks {
                detected: &mut *detected,
                log: &mut *log,
                records: &mut records,
                stats: &mut self.stats,
            },
            rec,
        );
        records
    }

    /// The deploy hour of the next unscreened machine, if any remain.
    pub fn next_hour(&self) -> Option<f64> {
        self.next_hour
    }

    /// Moves `next` to the first owned machine at or after deploy-order
    /// position `from`.
    fn seek(&mut self, topo: &FleetTopology, from: usize) {
        let (lo, hi) = self.shard;
        let order = topo.deploy_order();
        self.next = order[from..]
            .iter()
            .position(|m| (lo..hi).contains(m))
            .map_or(order.len(), |k| from + k);
        self.next_hour = order.get(self.next).map(|&m| topo.deploy_hour(m));
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
    /// Plans one sweep over the rotating fleet subset deployed at `hour`,
    /// charging every covered machine's drain to `stats`.
    fn plan(
        &self,
        topo: &FleetTopology,
        hour: f64,
        sweep_idx: u64,
        (lo, hi): (u32, u32),
        hot: &[u32],
        stats: &mut ScreeningStats,
    ) -> Batch {
        let mut batch = Batch::default();
        let n_machines = u64::from(topo.machine_count());
        if n_machines == 0 {
            return batch;
        }
        // Clamped so a sweep never visits a machine twice (a duplicate
        // would see a stale per-batch detected-snapshot).
        let per_sweep = ((n_machines as f64 * self.fraction_per_sweep).ceil() as u64)
            .max(1)
            .min(n_machines);
        let month = (hour / 730.0) as u32;
        let era = Arc::new(self.schedule.era_at(month).clone());
        let points = if era.sweep_points { 3u64 } else { 1u64 };
        let ops_per_screen = era.ops_per_unit * era.units.len() as u64;
        // Rotate deterministically through the fleet: the sweep covers ids
        // `[start, start + per_sweep)` modulo the fleet, which is at most
        // two ascending segments, visited in rotation order. The rotation
        // arithmetic is global so every shard agrees on which machines
        // this sweep visits; a shard then clips the segments to its own.
        let start = (sweep_idx * per_sweep) % n_machines;
        let end = start + per_sweep;
        let segments = [
            (start, end.min(n_machines)),
            (0, end.saturating_sub(n_machines)),
        ];
        for (from, to) in segments {
            let (from, to) = (from.max(lo.into()), to.min(hi.into()));
            if from >= to {
                continue;
            }
            // Hot machines are sorted, so one pointer walks them beside
            // the segment instead of a search per machine.
            let mut h = hot.partition_point(|&m| u64::from(m) < from);
            let hours = &topo.deploy_hours_by_machine()[from as usize..to as usize];
            for (machine, &deploy_hour) in (from as u32..).zip(hours) {
                if deploy_hour > hour {
                    continue;
                }
                batch.span = Some((
                    "screen.offline",
                    hour,
                    hour + self.drain_hours_per_machine.max(0.0),
                ));
                // One addition per machine: `k * d` can round differently.
                stats.drained_machine_hours += self.drain_hours_per_machine;
                while hot.get(h).is_some_and(|&m| m < machine) {
                    h += 1;
                }
                if hot.get(h) == Some(&machine) {
                    batch.tasks.push(MachineTask {
                        machine,
                        era: Arc::clone(&era),
                        sweep: era.sweep_points,
                        hour,
                        test_id_base: 0x0ff1 ^ sweep_idx.wrapping_mul(65_537),
                        method: DetectionMethod::Offline,
                    });
                } else {
                    let screens = topo.cores_on(machine) * points;
                    batch.clean_screens += screens;
                    batch.clean_ops += screens * ops_per_screen;
                }
            }
        }
        batch
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
        let records = campaign.step_until(
            topo,
            pop,
            f64::INFINITY,
            detected,
            log,
            &mut Recorder::disabled(),
        );
        (records, campaign.stats())
    }

    /// Starts an incremental campaign over `months`; sweeps fire as
    /// simulated time passes them via [`OfflineCampaign::step_until`].
    pub fn campaign(&self, months: u32) -> OfflineCampaign {
        self.campaign_shard(months, ALL_MACHINES)
    }

    /// [`OfflineScreener::campaign`] restricted to machines in `shard`:
    /// the sweep rotation stays globally synchronized (same `sweep_idx`,
    /// same test ids) while each shard screens only its own machines.
    pub fn campaign_shard(&self, months: u32, shard: (u32, u32)) -> OfflineCampaign {
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
    shard: (u32, u32),
    stats: ScreeningStats,
}

impl OfflineCampaign {
    /// Runs every sweep scheduled before `until_hour` (exclusive, and
    /// never past the campaign window), skipping cores in `detected`;
    /// returns the new detections.
    ///
    /// An enabled `rec` gets a `screen.offline` span per sweep that
    /// covers a machine (spanning its drain window) plus per-detection
    /// `detect.offline` instants.
    pub fn step_until(
        &mut self,
        topo: &FleetTopology,
        pop: &Population,
        until_hour: f64,
        detected: &mut FastSet<CoreUid>,
        log: &mut SignalLog,
        rec: &mut Recorder,
    ) -> Vec<DetectionRecord> {
        let mut records = Vec::new();
        // `hot` stays a superset across this call's sweeps: new detections
        // land on machines that host a mercurial core and are therefore
        // already in it.
        let hot = hot_machines(pop, detected);
        while self.next_hour < self.total_hours && self.next_hour < until_hour {
            let batch = self.screener.plan(
                topo,
                self.next_hour,
                self.sweep_idx,
                self.shard,
                &hot,
                &mut self.stats,
            );
            run_machine_tasks(
                topo,
                pop,
                &batch,
                &mut ScreenSinks {
                    detected: &mut *detected,
                    log: &mut *log,
                    records: &mut records,
                    stats: &mut self.stats,
                },
                rec,
            );
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
    /// Plans one pass over every machine deployed at `hour`, with the
    /// era's op budget scaled to spare cycles; `deployed` is the owned
    /// deployed-core count at `hour`.
    ///
    /// The pass never walks the fleet: tasks come from the hot set
    /// (ascending machine order) and the healthy remainder is `deployed`
    /// minus the hot machines' cores — one screen per core at the
    /// nominal point, zero detections, no randomness.
    fn plan(
        &self,
        topo: &FleetTopology,
        hour: f64,
        pass: u64,
        (lo, hi): (u32, u32),
        deployed: u64,
        hot: &[u32],
    ) -> Batch {
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
            method: DetectionMethod::Online,
        };
        let mut hot_cores = 0u64;
        let tasks: Vec<MachineTask> = hot
            .iter()
            .copied()
            .filter(|&machine| (lo..hi).contains(&machine) && topo.is_deployed(machine, hour))
            .inspect(|&machine| hot_cores += topo.cores_on(machine))
            .map(task)
            .collect();
        let clean = deployed - hot_cores;
        Batch {
            tasks,
            clean_screens: clean,
            clean_ops: clean * ops_per_screen,
            // Every machine has at least one core (scenario validation
            // rejects zero sockets and zero cores per socket), so owned
            // deployed cores > 0 exactly when the pass covers a machine.
            span: (deployed > 0).then_some(("screen.online", hour, hour)),
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
        let records = campaign.step_until(
            topo,
            pop,
            f64::INFINITY,
            detected,
            log,
            &mut Recorder::disabled(),
        );
        (records, campaign.stats())
    }

    /// Starts an incremental campaign over `months`; passes fire as
    /// simulated time passes them via [`OnlineCampaign::step_until`].
    pub fn campaign(&self, months: u32) -> OnlineCampaign {
        self.campaign_shard(months, ALL_MACHINES)
    }

    /// [`OnlineScreener::campaign`] restricted to machines in `shard`:
    /// the pass cadence and test ids stay globally synchronized while
    /// each shard screens only its own machines.
    pub fn campaign_shard(&self, months: u32, shard: (u32, u32)) -> OnlineCampaign {
        OnlineCampaign {
            screener: self.clone(),
            total_hours: months as f64 * 730.0,
            pass: 0,
            next_hour: self.interval_hours,
            shard,
            deploy: DeployCursor::default(),
            deployed_cores: 0,
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
    shard: (u32, u32),
    /// Walks the deploy order as passes advance; each machine is added
    /// to `deployed_cores` once per run.
    deploy: DeployCursor,
    /// Cores on owned machines deployed by the last pass's hour.
    deployed_cores: u64,
    stats: ScreeningStats,
}

impl OnlineCampaign {
    /// Runs every pass scheduled before `until_hour` (exclusive, and
    /// never past the campaign window), skipping cores in `detected`;
    /// returns the new detections.
    ///
    /// An enabled `rec` gets a `screen.online` span per pass that covers
    /// a machine plus per-detection `detect.online` instants.
    pub fn step_until(
        &mut self,
        topo: &FleetTopology,
        pop: &Population,
        until_hour: f64,
        detected: &mut FastSet<CoreUid>,
        log: &mut SignalLog,
        rec: &mut Recorder,
    ) -> Vec<DetectionRecord> {
        let mut records = Vec::new();
        // A superset across this call's passes, as for offline sweeps.
        let hot = hot_machines(pop, detected);
        let (lo, hi) = self.shard;
        while self.next_hour < self.total_hours && self.next_hour < until_hour {
            for &m in self.deploy.advance(topo, self.next_hour) {
                if (lo..hi).contains(&m) {
                    self.deployed_cores += topo.cores_on(m);
                }
            }
            let batch = self.screener.plan(
                topo,
                self.next_hour,
                self.pass,
                self.shard,
                self.deployed_cores,
                &hot,
            );
            run_machine_tasks(
                topo,
                pop,
                &batch,
                &mut ScreenSinks {
                    detected: &mut *detected,
                    log: &mut *log,
                    records: &mut records,
                    stats: &mut self.stats,
                },
                rec,
            );
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
                    &mut Recorder::disabled(),
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
                    &mut Recorder::disabled(),
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
            for r in campaign.step_until(
                &topo,
                &pop,
                until,
                &mut detected,
                &mut log,
                &mut Recorder::disabled(),
            ) {
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
    fn recording_changes_nothing_a_campaign_screens() {
        // One plan whatever the recorder: a campaign stepped with an
        // enabled recorder returns the same records, stats (including the
        // f64 drain accumulator) and signal log as a disabled one, and the
        // recorder's screen.* counters equal the campaign totals. Machines
        // 20..24 host no mercurial core: that shard must still emit its
        // pass spans and counters.
        use mercurial_trace::{EventKind, TraceLevel};
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
        let burnin = BurnIn {
            schedule: EraSchedule::default_history(),
            ops_multiplier: 5,
        };
        let offline = OfflineScreener {
            fraction_per_sweep: 0.5,
            ..OfflineScreener::default()
        };
        let online = OnlineScreener::default();
        let cold = (20, 24);
        let run = |screener: &str, shard: (u32, u32), rec: &mut Recorder| {
            let mut detected = FastSet::default();
            let mut log = SignalLog::new();
            let mut bc = burnin.campaign_shard(&topo, shard);
            let mut off = offline.campaign_shard(months, shard);
            let mut on = online.campaign_shard(months, shard);
            let mut records = Vec::new();
            let mut until = 73.0;
            while until <= months as f64 * 730.0 + 73.0 {
                let (d, l) = (&mut detected, &mut log);
                records.extend(match screener {
                    "burnin" => bc.step_until(&topo, &pop, until, d, l, rec),
                    "offline" => off.step_until(&topo, &pop, until, d, l, rec),
                    _ => on.step_until(&topo, &pop, until, d, l, rec),
                });
                until += 73.0;
            }
            let stats = match screener {
                "burnin" => bc.stats(),
                "offline" => off.stats(),
                _ => on.stats(),
            };
            (records, stats, log)
        };
        for (screener, span) in [
            ("burnin", "screen.burnin"),
            ("offline", "screen.offline"),
            ("online", "screen.online"),
        ] {
            for shard in [ALL_MACHINES, cold] {
                let case = format!("{screener} {shard:?}");
                let (want_records, want_stats, want_log) =
                    run(screener, shard, &mut Recorder::disabled());
                let mut rec = Recorder::new(TraceLevel::Record);
                let (records, stats, log) = run(screener, shard, &mut rec);
                assert_eq!(records, want_records, "{case}: records");
                assert_eq!(stats, want_stats, "{case}: stats");
                assert_eq!(log.all(), want_log.all(), "{case}: signal log");
                assert_eq!(records.is_empty(), shard == cold, "{case}: detections");
                assert!(stats.core_screens > 0, "{case}: nothing screened");
                let trace = rec.finish();
                let counter = |name| trace.metrics.counter(name);
                assert_eq!(counter("screen.core_screens"), stats.core_screens, "{case}");
                assert_eq!(counter("screen.test_ops"), stats.test_ops, "{case}");
                assert_eq!(counter("screen.detections"), stats.detections, "{case}");
                let spans = |kind| {
                    trace
                        .events
                        .iter()
                        .filter(|e| e.name == span && e.kind == kind)
                        .count()
                };
                assert!(spans(EventKind::Begin) > 0, "{case}: no pass span");
                assert_eq!(spans(EventKind::Begin), spans(EventKind::End), "{case}");
            }
        }
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

        let run_shard = |shard: (u32, u32)| {
            let mut detected = FastSet::default();
            let mut log = SignalLog::new();
            let mut bc = burnin.campaign_shard(&topo, shard);
            let mut off = offline.campaign_shard(months, shard);
            let mut on = online.campaign_shard(months, shard);
            let rec = &mut Recorder::disabled();
            let mut records = Vec::new();
            let mut until = 73.0;
            while until <= months as f64 * 730.0 + 73.0 {
                records.extend(bc.step_until(&topo, &pop, until, &mut detected, &mut log, rec));
                records.extend(off.step_until(&topo, &pop, until, &mut detected, &mut log, rec));
                records.extend(on.step_until(&topo, &pop, until, &mut detected, &mut log, rec));
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

        let (full_rec, full_stats, full_det, full_log) = run_shard(ALL_MACHINES);
        assert!(full_rec.len() >= 3, "test needs detections to compare");
        let machines = topo.machine_count();
        for workers in [1u32, 2, 4] {
            let mut records = Vec::new();
            let mut stats = [ScreeningStats::default(); 3];
            let mut det = Vec::new();
            let mut log = SignalLog::new();
            for w in 0..workers {
                let lo = machines * w / workers;
                let hi = machines * (w + 1) / workers;
                let (r, s, d, l) = run_shard((lo, hi));
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
    fn online_core_screens_match_a_naive_per_pass_scan_during_rollout() {
        // The online campaign's deployed-core count is carried by a
        // deploy cursor instead of a per-pass scan; each shard's screens
        // must equal a per-pass walk over its owned deployed machines
        // (a detected core is skipped, a dormant mercurial one screened).
        let topo = FleetTopology::build(FleetConfig {
            machines: 60,
            sockets_per_machine: 2,
            products: mercurial_fleet::CpuProduct::default_catalog(),
            rollout_months: 6,
            seed: 41,
        });
        let dormant = (CoreUid::new(7, 1, 0), library::late_onset_muldiv(1e9, 1e-3));
        let pop = Population::with_explicit(41, vec![dormant]);
        let pre_detected = CoreUid::new(31, 0, 2);
        let months = 9u32;
        let online = OnlineScreener::default();
        let machines = topo.machine_count();
        for workers in [1u32, 2, 3] {
            for w in 0..workers {
                let (lo, hi) = (machines * w / workers, machines * (w + 1) / workers);
                let mut detected: FastSet<CoreUid> = [pre_detected].into_iter().collect();
                let mut campaign = online.campaign_shard(months, (lo, hi));
                let mut until = 0.0;
                while campaign.next_hour().is_some() {
                    until += 100.0;
                    let rec = &mut Recorder::disabled();
                    let log = &mut SignalLog::new();
                    let found = campaign.step_until(&topo, &pop, until, &mut detected, log, rec);
                    assert!(found.is_empty(), "no core can be detected here");
                }
                let mut naive = 0u64;
                let mut hour = online.interval_hours;
                while hour < months as f64 * 730.0 {
                    for m in (lo..hi).filter(|&m| topo.is_deployed(m, hour)) {
                        naive += topo.cores_on(m) - u64::from(m == pre_detected.machine);
                    }
                    hour += online.interval_hours;
                }
                assert!(naive > 0);
                assert_eq!(
                    campaign.stats().core_screens,
                    naive,
                    "shard [{lo}, {hi}) of {workers}"
                );
            }
        }
    }

    #[test]
    fn offline_screens_match_a_naive_per_machine_walk() {
        // The offline planner merge-walks at most two rotation segments
        // clipped to the shard; each shard's screens, test ops and drain
        // must equal a walk over every rotation slot (a detected core is
        // skipped, a dormant mercurial one screened at every point). The
        // pre-detected core sits on a machine with no mercurial core, so
        // that machine is hot only through `detected`.
        let topo = FleetTopology::build(FleetConfig {
            machines: 60,
            sockets_per_machine: 2,
            products: mercurial_fleet::CpuProduct::default_catalog(),
            rollout_months: 6,
            seed: 43,
        });
        let dormant = (CoreUid::new(7, 1, 0), library::late_onset_muldiv(1e9, 1e-3));
        let pop = Population::with_explicit(43, vec![dormant]);
        let pre_detected = CoreUid::new(58, 0, 2);
        assert_eq!(pop.mercurial_on(pre_detected.machine).count(), 0);
        let months = 20u32;
        // 9 machines a sweep: the rotation wraps past machine 59.
        let offline = OfflineScreener {
            fraction_per_sweep: 0.15,
            ..OfflineScreener::default()
        };
        let machines = u64::from(topo.machine_count());
        let per_sweep = (machines as f64 * offline.fraction_per_sweep).ceil() as u64;
        assert_eq!(per_sweep, 9);
        let mut wrapped = false;
        for workers in [1u32, 2, 3] {
            for w in 0..workers {
                let lo = machines as u32 * w / workers;
                let hi = machines as u32 * (w + 1) / workers;
                let mut detected: FastSet<CoreUid> = [pre_detected].into_iter().collect();
                let mut campaign = offline.campaign_shard(months, (lo, hi));
                let mut until = 0.0;
                while campaign.next_hour().is_some() {
                    until += 100.0;
                    let rec = &mut Recorder::disabled();
                    let log = &mut SignalLog::new();
                    let found = campaign.step_until(&topo, &pop, until, &mut detected, log, rec);
                    assert!(found.is_empty(), "no core can be detected here");
                }
                let mut naive = ScreeningStats::default();
                let (mut hour, mut sweep) = (offline.interval_hours, 0u64);
                while hour < months as f64 * 730.0 {
                    let era = offline.schedule.era_at((hour / 730.0) as u32);
                    let points = if era.sweep_points { 3 } else { 1 };
                    let ops_per_screen = era.ops_per_unit * era.units.len() as u64;
                    for k in 0..per_sweep {
                        let slot = sweep * per_sweep + k;
                        wrapped |= slot % machines < k;
                        let m = (slot % machines) as u32;
                        if !(lo..hi).contains(&m) || !topo.is_deployed(m, hour) {
                            continue;
                        }
                        let screens =
                            (topo.cores_on(m) - u64::from(m == pre_detected.machine)) * points;
                        naive.core_screens += screens;
                        naive.test_ops += screens * ops_per_screen;
                        naive.drained_machine_hours += offline.drain_hours_per_machine;
                    }
                    hour += offline.interval_hours;
                    sweep += 1;
                }
                assert!(naive.core_screens > 0);
                assert_eq!(campaign.stats(), naive, "shard [{lo}, {hi}) of {workers}");
            }
        }
        assert!(wrapped, "some sweep must wrap the rotation");
    }

    #[test]
    fn an_empty_fleet_screens_nothing() {
        let topo = topo(0, 1);
        let pop = Population::seed_from(&topo);
        let burnin = BurnIn {
            schedule: EraSchedule::default_history(),
            ops_multiplier: 10,
        };
        let mut detected = FastSet::default();
        let mut log = SignalLog::new();
        let rec = &mut Recorder::disabled();
        let mut bc = burnin.campaign(&topo);
        assert_eq!(bc.next_hour(), None);
        assert!(bc
            .step_until(&topo, &pop, f64::INFINITY, &mut detected, &mut log, rec)
            .is_empty());
        assert_eq!(bc.stats(), ScreeningStats::default());
        let (records, stats) = burnin.run(&topo, &pop, &mut detected, &mut log);
        assert!(records.is_empty());
        assert_eq!(stats, ScreeningStats::default());
        let offline = OfflineScreener::default();
        let (records, stats) = offline.run(&topo, &pop, 12, &mut detected, &mut log);
        assert!(records.is_empty());
        assert_eq!(stats, ScreeningStats::default());
        let online = OnlineScreener::default();
        let (records, stats) = online.run(&topo, &pop, 12, &mut detected, &mut log);
        assert!(records.is_empty());
        assert_eq!(stats, ScreeningStats::default());
        assert!(log.is_empty());
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
