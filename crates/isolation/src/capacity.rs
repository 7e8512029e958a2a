//! Capacity accounting for a pool of no-longer-identical machines.
//!
//! §6.1: isolating a core "undermines a scheduler assumption that all
//! machines of a specific type have identical resources". The ledger
//! tracks nominal vs. effective core counts so the scheduler
//! (and the capacity-planning experiments) can reason about how much the
//! fleet has actually lost to quarantine — and how much a false-positive-
//! happy detector would cost.

use mercurial_fault::CoreUid;
use mercurial_trace::Recorder;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Aggregate capacity numbers for a pool.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolCapacity {
    /// Cores the hardware nominally provides.
    pub nominal_cores: u64,
    /// Cores currently schedulable.
    pub effective_cores: u64,
    /// Cores lost to quarantine/retirement.
    pub lost_cores: u64,
    /// Machines whose effective count differs from nominal (the scheduler
    /// can no longer treat them as identical).
    pub heterogeneous_machines: u64,
}

impl PoolCapacity {
    /// Fraction of nominal capacity still available.
    pub fn availability(&self) -> f64 {
        if self.nominal_cores == 0 {
            return 1.0;
        }
        self.effective_cores as f64 / self.nominal_cores as f64
    }
}

/// Tracks a pool's lost cores against its nominal total.
///
/// The ledger keeps no per-machine table: a machine's nominal core count
/// is the topology's, so the caller, which holds the topology, passes it
/// to [`CapacityLedger::remove_core`]. Aggregates
/// ([`CapacityLedger::pool`]) are maintained incrementally so the
/// closed-loop driver can read them every epoch without an O(machines)
/// walk — at fleet-study scale (10⁶ machines × hundreds of epochs) the
/// walk was the single largest cost in the loop.
#[derive(Debug, Clone)]
pub struct CapacityLedger {
    /// The cores out of service, in [`CoreUid`] order, so one machine's
    /// losses are a contiguous range.
    lost: BTreeSet<CoreUid>,
    /// Running totals, updated on every remove/restore; always equal to
    /// what a full walk of the set would produce.
    nominal_total: u64,
    lost_total: u64,
    heterogeneous: u64,
}

impl CapacityLedger {
    /// Creates a ledger for a pool of `nominal_cores` cores, none lost.
    pub fn new(nominal_cores: u64) -> CapacityLedger {
        CapacityLedger {
            lost: BTreeSet::new(),
            nominal_total: nominal_cores,
            lost_total: 0,
            heterogeneous: 0,
        }
    }

    /// Cores of `machine` currently out of service.
    pub fn lost_on(&self, machine: u32) -> u64 {
        let first = CoreUid::new(machine, 0, 0);
        let last = CoreUid::new(machine, u8::MAX, u16::MAX);
        self.lost.range(first..=last).count() as u64
    }

    /// Records a core as removed from service at `hour`, with a
    /// `capacity.core_removed` instant plus counter. `nominal` is the
    /// core count of the core's machine.
    ///
    /// Idempotent: removing the same core twice counts (and is announced)
    /// once.
    ///
    /// # Panics
    ///
    /// Panics if the machine's losses would exceed `nominal`.
    pub fn remove_core(&mut self, core: CoreUid, nominal: u64, hour: f64, rec: &mut Recorder) {
        let newly = self.lost.insert(core);
        let lost = self.lost_on(core.machine);
        assert!(
            lost <= nominal,
            "machine {} lost more cores than it has",
            core.machine
        );
        if newly {
            self.lost_total += 1;
            if lost == 1 {
                self.heterogeneous += 1;
            }
            rec.instant(hour, "capacity.core_removed", Some(core.as_u64()), 0.0);
            rec.counter_add("capacity.cores_removed", 1);
        }
    }

    /// Returns a core to service at `hour`, with a
    /// `capacity.core_restored` instant plus counter when the core was
    /// actually out of service.
    pub fn restore_core(&mut self, core: CoreUid, hour: f64, rec: &mut Recorder) {
        if self.lost.remove(&core) {
            self.lost_total -= 1;
            if self.lost_on(core.machine) == 0 {
                self.heterogeneous -= 1;
            }
            rec.instant(hour, "capacity.core_restored", Some(core.as_u64()), 0.0);
            rec.counter_add("capacity.cores_restored", 1);
        }
    }

    /// Aggregates the pool. O(1): reads the maintained running totals.
    pub fn pool(&self) -> PoolCapacity {
        PoolCapacity {
            nominal_cores: self.nominal_total,
            effective_cores: self.nominal_total - self.lost_total,
            lost_cores: self.lost_total,
            heterogeneous_machines: self.heterogeneous,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_aggregates() {
        let mut ledger = CapacityLedger::new(640);
        let rec = &mut Recorder::disabled();
        ledger.remove_core(CoreUid::new(3, 0, 5), 64, 0.0, rec);
        ledger.remove_core(CoreUid::new(3, 1, 9), 64, 0.0, rec);
        ledger.remove_core(CoreUid::new(7, 0, 0), 64, 0.0, rec);
        let pool = ledger.pool();
        assert_eq!(pool.nominal_cores, 640);
        assert_eq!(pool.lost_cores, 3);
        assert_eq!(pool.effective_cores, 637);
        assert_eq!(pool.heterogeneous_machines, 2);
        assert!((pool.availability() - 637.0 / 640.0).abs() < 1e-12);
        assert_eq!(ledger.lost_on(3), 2);
        assert_eq!(ledger.lost_on(4), 0);
    }

    #[test]
    fn removal_is_idempotent_and_restorable() {
        let mut ledger = CapacityLedger::new(8);
        let rec = &mut Recorder::disabled();
        let core = CoreUid::new(1, 0, 2);
        ledger.remove_core(core, 8, 0.0, rec);
        ledger.remove_core(core, 8, 0.0, rec);
        assert_eq!(ledger.lost_on(1), 1);
        assert_eq!(ledger.pool().effective_cores, 7);
        ledger.restore_core(core, 0.0, rec);
        assert_eq!(ledger.lost_on(1), 0);
        assert_eq!(ledger.pool().effective_cores, 8);
        assert_eq!(ledger.pool().heterogeneous_machines, 0);
    }

    #[test]
    fn machines_far_apart_and_restoring_an_unlost_core() {
        let mut ledger = CapacityLedger::new(32 + 64 + 16);
        let rec = &mut Recorder::disabled();
        ledger.remove_core(CoreUid::new(1_000, 1, 7), 32, 2.0, rec);
        ledger.remove_core(CoreUid::new(3, 0, 0), 64, 3.0, rec);
        assert_eq!(ledger.lost_on(1_000), 1);
        assert_eq!(ledger.lost_on(3), 1);
        assert_eq!(ledger.lost_on(500), 0);
        let pool = ledger.pool();
        assert_eq!(pool.lost_cores, 2);
        assert_eq!(pool.effective_cores, 110);
        assert_eq!(pool.heterogeneous_machines, 2);
        // Restoring a core that was never removed is a no-op.
        ledger.restore_core(CoreUid::new(70_000, 0, 0), 4.0, rec);
        assert_eq!(ledger.pool(), pool);
    }

    #[test]
    #[should_panic(expected = "lost more cores than it has")]
    fn a_machine_without_cores_cannot_lose_one() {
        CapacityLedger::new(0).remove_core(
            CoreUid::new(9, 0, 0),
            0,
            0.0,
            &mut Recorder::disabled(),
        );
    }

    #[test]
    #[should_panic(expected = "lost more cores than it has")]
    fn losing_more_cores_than_nominal_panics() {
        let mut ledger = CapacityLedger::new(1);
        let rec = &mut Recorder::disabled();
        ledger.remove_core(CoreUid::new(0, 0, 0), 1, 0.0, rec);
        ledger.remove_core(CoreUid::new(0, 0, 1), 1, 0.0, rec);
    }

    #[test]
    fn empty_pool_is_fully_available() {
        assert_eq!(CapacityLedger::new(0).pool().availability(), 1.0);
    }
}
