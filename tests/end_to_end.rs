//! Cross-crate integration: the inject → detect → quarantine → mitigate
//! story, end to end, spanning every crate in the workspace.

use mercurial::prelude::*;
use mercurial::trace::Recorder;
use mercurial_fault::{library, Injector};
use mercurial_isolation::csr::Task;
use mercurial_isolation::{CapacityLedger, CsrSimulator, SafeTaskPolicy, TaskUnitProfile};
use mercurial_mitigation::{dmr, tmr, ChecksummedStore, CostMeter};
use mercurial_screening::chipscreen::ChipScreen;
use mercurial_simcpu::{CoreConfig, Reg, SimCore};

/// A defective core is detected by the corpus screen, quarantined through
/// the registry, surgically removed from a running OS model, and its
/// machine's capacity ledger updated — one flow across four crates.
#[test]
fn detect_quarantine_remove_account() {
    // 1. Detection (screening + simcpu + corpus + fault).
    let profile = library::vector_copy_coupled(0.5);
    let uid = CoreUid::new(12, 0, 3);
    let mut core = SimCore::new(
        CoreConfig {
            uid,
            ..CoreConfig::default()
        },
        Some(Injector::new(5, profile)),
    );
    let screen = ChipScreen::new(3);
    let report = screen.screen(&mut core);
    assert!(report.failed(), "the defective core must be indicted");

    // 2. Quarantine (isolation).
    let mut registry = QuarantineRegistry::new();
    let rec = &mut Recorder::disabled();
    registry
        .mark_suspect(uid, 100.0, report.summary(), rec)
        .unwrap();
    registry
        .quarantine(uid, 101.0, "corpus screen failed", rec)
        .unwrap();
    registry.confirm(uid, 102.0, "reproduced 3x", rec).unwrap();
    assert!(!registry.is_schedulable(uid));

    // 3. Core surprise removal from the running machine.
    let mut os = CsrSimulator::new(12, 0, 8, 16);
    for t in 0..24 {
        os.spawn(Task::unpinned(t));
    }
    let outcome = os.remove_core(3);
    assert!(outcome.killed.is_empty());
    assert!(os.irqs_consistent());
    assert_eq!(os.online_cores(), 7);

    // 4. Capacity accounting.
    let mut ledger = CapacityLedger::new(8);
    ledger.remove_core(uid, 8, 102.0, rec);
    assert_eq!(ledger.lost_on(12), 1);
    assert_eq!(ledger.pool().effective_cores, 7);
    assert_eq!(ledger.pool().heterogeneous_machines, 1);
}

/// Redundant execution masks a mercurial core's wrong answers: the same
/// simulated-core computation is run under DMR and TMR and the corruption
/// never escapes.
#[test]
fn redundancy_masks_simulated_cee() {
    let program = mercurial_simcpu::assemble(
        "li x1, 123456
         li x2, 789
         mul x3, x1, x2
         out x3
         halt",
    )
    .unwrap();
    let correct = 123456u64 * 789;

    // A pool of 6 cores; core 0 has a hot multiplier defect.
    let run_on = |core_idx: usize| {
        let profile = library::late_onset_muldiv(0.0, 1.0);
        let injector = if core_idx == 0 {
            Some(Injector::new(9, profile))
        } else {
            None
        };
        let mut core = SimCore::new(
            CoreConfig {
                uid: CoreUid::new(0, 0, core_idx as u16),
                ..CoreConfig::default()
            },
            injector,
        );
        let mut mem = mercurial_simcpu::Memory::new(1 << 10);
        core.run(&program, &mut mem).expect("program halts");
        core.output()[0]
    };

    // DMR: pair (0,1) disagrees (core 0 lies), pair (2,3) agrees.
    let mut meter = CostMeter::default();
    let value = dmr(run_on, 3, &mut meter).expect("a healthy pair exists");
    assert_eq!(value, correct);
    assert_eq!(meter.retries, 1);

    // TMR over cores {0,1,2}: the defective core is outvoted.
    let mut meter = CostMeter::default();
    let voted = tmr(run_on, &mut meter).expect("majority exists");
    assert_eq!(voted.value, correct);
    assert!(!voted.unanimous, "the corruption was outvoted, not absent");
}

/// The fleet pipeline's confirmed cores can be fed straight into the
/// safe-task policy: stranded capacity is partially recovered.
#[test]
fn pipeline_feeds_safe_task_recovery() {
    let scenario = Scenario::small(91);
    let experiment = FleetExperiment::build(&scenario);
    let defective_sets: Vec<Vec<FunctionalUnit>> = experiment
        .population()
        .mercurial_cores()
        .map(|c| c.profile.afflicted_units())
        .collect();
    if defective_sets.is_empty() {
        return; // tiny fleet may have no defects at this seed
    }
    let policy = SafeTaskPolicy;
    let mix = vec![
        (
            TaskUnitProfile::new(
                "scalar",
                vec![
                    FunctionalUnit::ScalarAlu,
                    FunctionalUnit::LoadStore,
                    FunctionalUnit::BranchUnit,
                    FunctionalUnit::AddressGen,
                ],
                false,
            ),
            0.6,
        ),
        (
            TaskUnitProfile::new(
                "vector",
                vec![FunctionalUnit::VectorPipe, FunctionalUnit::Fma],
                false,
            ),
            0.4,
        ),
    ];
    let recovered = policy.capacity_recovered(&mix, &defective_sets);
    assert!(
        (0.0..=1.0).contains(&recovered),
        "recovery fraction {recovered} out of range"
    );
}

/// A checksummed store refuses data corrupted by a defective simulated
/// core's copy path — mitigation catching what isolation has not yet.
#[test]
fn e2e_store_refuses_simulated_corruption() {
    let profile = library::string_bitflip(13, 1.0);
    let mut core = SimCore::new(CoreConfig::default(), Some(Injector::new(3, profile)));
    let program = mercurial_simcpu::assemble("memcpy x1, x2, x3\nhalt").unwrap();
    let payload: Vec<u8> = (0..64).collect();

    let mut store = ChecksummedStore::new();
    let mut mem = mercurial_simcpu::Memory::new(1 << 12);
    mem.write_bytes(256, &payload).unwrap();
    core.set_reg(Reg(1), 1024);
    core.set_reg(Reg(2), 256);
    core.set_reg(Reg(3), 64);
    core.run(&program, &mut mem).unwrap();
    let copied = mem.read_bytes(1024, 64).unwrap();
    assert_ne!(copied, payload, "the stuck bit must corrupt the copy");
    let err = store
        .put_via("rec", &payload, |_| copied.clone())
        .unwrap_err();
    assert_eq!(err, mercurial_mitigation::StoreError::CorruptOnWrite);
    assert!(store.is_empty(), "nothing corrupt was persisted");
}

/// Metrics close the loop: the pipeline's detections produce a sane
/// incidence estimate with an interval covering ground truth.
#[test]
fn metrics_close_the_loop() {
    let scenario = Scenario::small(92);
    let outcome = mercurial::pipeline::PipelineRun::execute(&scenario);
    let machines = scenario.fleet.machines as u64;
    let detected_machines: std::collections::HashSet<u32> =
        outcome.detections.iter().map(|d| d.core.machine).collect();
    let est = mercurial_metrics::wilson_interval(detected_machines.len() as u64, machines, 1.96);
    // The interval is a statement about detections; it must be well-formed
    // and the per-thousand rate in the paper's ballpark.
    assert!(est.lo <= est.rate && est.rate <= est.hi);
    assert!(est.per_thousand() < 20.0);
}
