//! Property-based tests on the quarantine state machine and CSR model.

use mercurial_fault::CoreUid;
use mercurial_isolation::csr::Task;
use mercurial_isolation::{CoreState, CsrSimulator, QuarantineRegistry};
use mercurial_trace::Recorder;
use proptest::prelude::*;

/// The operations a fuzzer can throw at the registry.
#[derive(Debug, Clone, Copy)]
enum Op {
    Suspect,
    Quarantine,
    Confirm,
    Exonerate,
    Restore,
    Retire,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Suspect),
        Just(Op::Quarantine),
        Just(Op::Confirm),
        Just(Op::Exonerate),
        Just(Op::Restore),
        Just(Op::Retire),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under arbitrary operation sequences the registry never reaches an
    /// inconsistent state: history length equals accepted transitions,
    /// retired cores never leave Retired, and schedulability matches the
    /// state exactly.
    #[test]
    fn quarantine_state_machine_is_sound(ops in proptest::collection::vec(arb_op(), 0..64)) {
        let core = CoreUid::new(1, 0, 0);
        let mut reg = QuarantineRegistry::new();
        let rec = &mut Recorder::disabled();
        let mut accepted = 0usize;
        let mut was_retired = false;
        for (i, op) in ops.iter().enumerate() {
            let hour = i as f64;
            let result = match op {
                Op::Suspect => reg.mark_suspect(core, hour, "fuzz", rec),
                Op::Quarantine => reg.quarantine(core, hour, "fuzz", rec),
                Op::Confirm => reg.confirm(core, hour, "fuzz", rec),
                Op::Exonerate => reg.exonerate(core, hour, "fuzz", rec),
                Op::Restore => reg.restore(core, hour, "fuzz", rec),
                Op::Retire => reg.retire(core, hour, "fuzz", rec),
            };
            if result.is_ok() {
                accepted += 1;
            }
            if was_retired {
                prop_assert!(result.is_err(), "nothing is legal after Retired");
            }
            if reg.state(core) == CoreState::Retired {
                was_retired = true;
            }
            // Schedulability is exactly Healthy-or-Suspect.
            prop_assert_eq!(
                reg.is_schedulable(core),
                matches!(reg.state(core), CoreState::Healthy | CoreState::Suspect)
            );
        }
        prop_assert_eq!(reg.history(core).len(), accepted);
        // The audit trail is contiguous: each transition starts where the
        // previous ended.
        for w in reg.history(core).windows(2) {
            prop_assert_eq!(w[0].to, w[1].from);
        }
    }

    /// CSR conserves tasks: whatever mix of spawns and removals, no
    /// unpinned task is ever lost, and IRQs never point at dead cores.
    #[test]
    fn csr_conserves_tasks(
        cores in 2u16..8,
        spawns in proptest::collection::vec(any::<bool>(), 1..40),
        remove_count in 1u16..4,
    ) {
        let mut os = CsrSimulator::new(0, 0, cores, 2 * cores as u32);
        let mut pinned_spawned = 0usize;
        let mut unpinned_spawned = 0usize;
        for (i, &pin) in spawns.iter().enumerate() {
            let task = if pin {
                Task::pinned(i as u64, (i as u16) % cores)
            } else {
                Task::unpinned(i as u64)
            };
            if os.spawn(task).is_some() {
                if pin {
                    pinned_spawned += 1;
                } else {
                    unpinned_spawned += 1;
                }
            }
        }
        let mut killed_total = 0usize;
        let removals = remove_count.min(cores - 1);
        for c in 0..removals {
            let outcome = os.remove_core(c);
            killed_total += outcome.killed.len();
            prop_assert!(os.irqs_consistent());
        }
        // Unpinned tasks survive every removal; only pinned ones can die.
        prop_assert!(killed_total <= pinned_spawned);
        prop_assert_eq!(
            os.total_tasks(),
            pinned_spawned + unpinned_spawned - killed_total
        );
    }
}
