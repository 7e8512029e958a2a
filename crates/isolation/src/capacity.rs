//! Capacity accounting for a pool of no-longer-identical machines.
//!
//! §6.1: isolating a core "undermines a scheduler assumption that all
//! machines of a specific type have identical resources". The ledger
//! tracks nominal vs. effective core counts per machine so the scheduler
//! (and the capacity-planning experiments) can reason about how much the
//! fleet has actually lost to quarantine — and how much a false-positive-
//! happy detector would cost.

use mercurial_fault::{CoreUid, FastMap, FastSet};
use mercurial_trace::Recorder;
use serde::{Deserialize, Serialize};

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
    nominal: FastMap<u32, u64>,
    lost: FastMap<u32, FastSet<CoreUid>>,
    /// Running totals, updated on every register/remove/restore; always
    /// equal to what a full walk of the maps would produce.
    nominal_total: u64,
    lost_total: u64,
    heterogeneous: u64,
}

impl CapacityLedger {
    /// Creates an empty ledger.
    pub fn new() -> CapacityLedger {
        CapacityLedger::default()
    }

    /// Creates an empty ledger with room for `machines` registrations, so
    /// registering a whole fleet never rehashes.
    pub fn with_capacity(machines: usize) -> CapacityLedger {
        CapacityLedger {
            nominal: FastMap::with_capacity_and_hasher(machines, Default::default()),
            ..CapacityLedger::default()
        }
    }

    /// Registers a machine with its nominal core count. Re-registering
    /// replaces the previous count.
    pub fn register_machine(&mut self, machine: u32, cores: u64) {
        if let Some(old) = self.nominal.insert(machine, cores) {
            self.nominal_total -= old;
        }
        self.nominal_total += cores;
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
        let nominal = *self
            .nominal
            .get(&core.machine)
            .unwrap_or_else(|| panic!("machine {} not registered", core.machine));
        let set = self.lost.entry(core.machine).or_default();
        let newly = set.insert(core);
        assert!(
            set.len() as u64 <= nominal,
            "machine {} lost more cores than it has",
            core.machine
        );
        if newly {
            self.lost_total += 1;
            if set.len() == 1 {
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
        if let Some(set) = self.lost.get_mut(&core.machine) {
            if set.remove(&core) {
                self.lost_total -= 1;
                if set.is_empty() {
                    self.heterogeneous -= 1;
                }
                rec.instant(hour, "capacity.core_restored", Some(core.as_u64()), 0.0);
                rec.counter_add("capacity.cores_restored", 1);
            }
        }
    }

    /// Effective core count of one machine.
    pub fn effective_of(&self, machine: u32) -> u64 {
        let nominal = self.nominal.get(&machine).copied().unwrap_or(0);
        let lost = self.lost.get(&machine).map(|s| s.len() as u64).unwrap_or(0);
        nominal - lost
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
    fn empty_pool_is_fully_available() {
        assert_eq!(CapacityLedger::new().pool().availability(), 1.0);
    }
}
