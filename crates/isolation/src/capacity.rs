//! Capacity accounting for a pool of no-longer-identical machines.
//!
//! §6.1: isolating a core "undermines a scheduler assumption that all
//! machines of a specific type have identical resources". The ledger
//! tracks nominal vs. effective core counts per machine so the scheduler
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

/// Tracks per-machine nominal and lost cores.
///
/// Aggregates ([`CapacityLedger::pool`]) are maintained incrementally so
/// the closed-loop driver can read them every epoch without an
/// O(machines) walk — at fleet-study scale (10⁶ machines × hundreds of
/// epochs) the walk was the single largest cost in the loop.
#[derive(Debug, Clone, Default)]
pub struct CapacityLedger {
    /// Nominal cores indexed by machine id; 0 means "not registered".
    /// Machine ids are dense, so registering a fleet in id order is a
    /// sequential fill.
    nominal: Vec<u32>,
    /// The cores out of service, in [`CoreUid`] order, so one machine's
    /// losses are a contiguous range.
    lost: BTreeSet<CoreUid>,
    /// Running totals, updated on every register/remove/restore; always
    /// equal to what a full walk of the table and set would produce.
    nominal_total: u64,
    lost_total: u64,
    heterogeneous: u64,
}

impl CapacityLedger {
    /// Creates an empty ledger.
    pub fn new() -> CapacityLedger {
        CapacityLedger::default()
    }

    /// Creates an empty ledger with room for machine ids `0..machines`,
    /// so registering a whole fleet never reallocates.
    pub fn with_capacity(machines: usize) -> CapacityLedger {
        CapacityLedger {
            nominal: Vec::with_capacity(machines),
            ..CapacityLedger::default()
        }
    }

    /// Registers a machine with its nominal core count. Re-registering
    /// replaces the previous count; a count of 0 leaves the machine
    /// unregistered.
    ///
    /// # Panics
    ///
    /// Panics if `cores` does not fit in a `u32`.
    pub fn register_machine(&mut self, machine: u32, cores: u64) {
        let cores = u32::try_from(cores).expect("a machine's core count fits in u32");
        let ix = machine as usize;
        if ix >= self.nominal.len() {
            self.nominal.resize(ix + 1, 0);
        }
        let old = std::mem::replace(&mut self.nominal[ix], cores);
        self.nominal_total = self.nominal_total - u64::from(old) + u64::from(cores);
    }

    /// Registered nominal cores of a machine (0 if unregistered).
    fn nominal_of(&self, machine: u32) -> u64 {
        self.nominal
            .get(machine as usize)
            .map_or(0, |&n| u64::from(n))
    }

    /// Cores of `machine` currently out of service.
    fn lost_on(&self, machine: u32) -> u64 {
        let first = CoreUid::new(machine, 0, 0);
        let last = CoreUid::new(machine, u8::MAX, u16::MAX);
        self.lost.range(first..=last).count() as u64
    }

    /// Records a core as removed from service at `hour`, with a
    /// `capacity.core_removed` instant plus counter.
    ///
    /// Idempotent: removing the same core twice counts (and is announced)
    /// once.
    ///
    /// # Panics
    ///
    /// Panics if the machine was never registered or the loss would
    /// exceed its nominal count.
    pub fn remove_core(&mut self, core: CoreUid, hour: f64, rec: &mut Recorder) {
        let nominal = self.nominal_of(core.machine);
        assert!(nominal > 0, "machine {} not registered", core.machine);
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

    /// Effective core count of one machine.
    pub fn effective_of(&self, machine: u32) -> u64 {
        self.nominal_of(machine) - self.lost_on(machine)
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
        let mut ledger = CapacityLedger::new();
        let rec = &mut Recorder::disabled();
        for m in 0..10 {
            ledger.register_machine(m, 64);
        }
        ledger.remove_core(CoreUid::new(3, 0, 5), 0.0, rec);
        ledger.remove_core(CoreUid::new(3, 1, 9), 0.0, rec);
        ledger.remove_core(CoreUid::new(7, 0, 0), 0.0, rec);
        let pool = ledger.pool();
        assert_eq!(pool.nominal_cores, 640);
        assert_eq!(pool.lost_cores, 3);
        assert_eq!(pool.effective_cores, 637);
        assert_eq!(pool.heterogeneous_machines, 2);
        assert!((pool.availability() - 637.0 / 640.0).abs() < 1e-12);
    }

    #[test]
    fn removal_is_idempotent_and_restorable() {
        let mut ledger = CapacityLedger::new();
        let rec = &mut Recorder::disabled();
        ledger.register_machine(1, 8);
        let core = CoreUid::new(1, 0, 2);
        ledger.remove_core(core, 0.0, rec);
        ledger.remove_core(core, 0.0, rec);
        assert_eq!(ledger.effective_of(1), 7);
        ledger.restore_core(core, 0.0, rec);
        assert_eq!(ledger.effective_of(1), 8);
        assert_eq!(ledger.pool().heterogeneous_machines, 0);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn unregistered_machine_panics() {
        CapacityLedger::new().remove_core(CoreUid::new(9, 0, 0), 0.0, &mut Recorder::disabled());
    }

    #[test]
    fn sparse_out_of_order_and_repeated_registration() {
        let mut ledger = CapacityLedger::new();
        let rec = &mut Recorder::disabled();
        ledger.register_machine(1_000, 48);
        ledger.register_machine(3, 64);
        ledger.register_machine(1_000, 32);
        ledger.register_machine(500, 16);
        assert_eq!(ledger.pool().nominal_cores, 32 + 64 + 16);
        assert_eq!(ledger.effective_of(1_000), 32);
        assert_eq!(ledger.effective_of(4), 0, "a gap id is unregistered");
        ledger.remove_core(CoreUid::new(1_000, 1, 7), 2.0, rec);
        ledger.remove_core(CoreUid::new(3, 0, 0), 3.0, rec);
        assert_eq!(ledger.effective_of(1_000), 31);
        assert_eq!(ledger.effective_of(3), 63);
        assert_eq!(ledger.effective_of(500), 16);
        let pool = ledger.pool();
        assert_eq!(pool.lost_cores, 2);
        assert_eq!(pool.effective_cores, 110);
        assert_eq!(pool.heterogeneous_machines, 2);
        // Restoring a core of an id past the table is a no-op.
        ledger.restore_core(CoreUid::new(70_000, 0, 0), 4.0, rec);
        assert_eq!(ledger.pool(), pool);
        assert_eq!(ledger.effective_of(70_000), 0);
    }

    #[test]
    #[should_panic(expected = "not registered")]
    fn removal_past_the_end_of_the_table_panics() {
        let mut ledger = CapacityLedger::new();
        ledger.register_machine(2, 8);
        ledger.remove_core(CoreUid::new(9_999, 0, 0), 0.0, &mut Recorder::disabled());
    }

    #[test]
    #[should_panic(expected = "lost more cores than it has")]
    fn losing_more_cores_than_nominal_panics() {
        let mut ledger = CapacityLedger::new();
        let rec = &mut Recorder::disabled();
        ledger.register_machine(0, 1);
        ledger.remove_core(CoreUid::new(0, 0, 0), 0.0, rec);
        ledger.remove_core(CoreUid::new(0, 0, 1), 0.0, rec);
    }

    #[test]
    fn empty_pool_is_fully_available() {
        assert_eq!(CapacityLedger::new().pool().availability(), 1.0);
    }
}
