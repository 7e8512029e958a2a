//! Fleet topology: machines, sockets, cores, deployment cohorts.

use crate::product::CpuProduct;
use mercurial_fault::{CoreUid, StreamFamily};
use serde::{Deserialize, Serialize};

/// Static fleet configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of machines.
    pub machines: u32,
    /// Sockets per machine.
    pub sockets_per_machine: u8,
    /// The product catalog machines are drawn from (weighted).
    pub products: Vec<CpuProduct>,
    /// Months over which the fleet was deployed (cohorts spread uniformly;
    /// 0 means everything deployed at hour 0).
    pub rollout_months: u32,
    /// Master seed for population sampling.
    pub seed: u64,
}

impl FleetConfig {
    /// A small default fleet: 20,000 machines, 2 sockets, rolled out over
    /// a year — big enough to show "a few mercurial cores per several
    /// thousand machines" with real counts, small enough for a laptop.
    pub fn default_fleet() -> FleetConfig {
        FleetConfig {
            machines: 20_000,
            sockets_per_machine: 2,
            products: CpuProduct::default_catalog(),
            rollout_months: 12,
            seed: 0x5eed,
        }
    }

    /// A miniature fleet for unit tests.
    pub fn tiny(machines: u32, seed: u64) -> FleetConfig {
        FleetConfig {
            machines,
            sockets_per_machine: 1,
            products: CpuProduct::default_catalog(),
            rollout_months: 0,
            seed,
        }
    }
}

/// Resolved per-machine facts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineInfo {
    /// Machine index.
    pub machine: u32,
    /// Index into the product catalog.
    pub product: usize,
    /// Hour (from window start) the machine entered service.
    pub deploy_hour: f64,
}

/// The materialized fleet: every machine's product and deployment time.
#[derive(Debug, Clone)]
pub struct FleetTopology {
    config: FleetConfig,
    machines: Vec<MachineInfo>,
    total_cores: u64,
    /// Machine ids sorted by `(deploy_hour, machine)`. Deployment is
    /// monotone — machines never undeploy — so "which machines are in
    /// service at `hour`" is a prefix of this order: a binary search for
    /// one-off lookups, a [`DeployCursor`] for time walking forward.
    deploy_order: Vec<u32>,
    /// `deploy_hours[i]` is the deploy hour of `deploy_order[i]`, so
    /// walks along the deploy order read memory sequentially.
    deploy_hours: Vec<f64>,
    /// `deploy_cores[i]` is the core count of `deploy_order[i]`.
    deploy_cores: Vec<u32>,
}

/// A forward-only walk over [`FleetTopology::deploy_order`]: each
/// [`DeployCursor::advance`] yields the machines whose deploy hour has
/// been reached since the previous call, so a run that steps time
/// forward visits every machine exactly once instead of rescanning the
/// fleet per epoch.
#[derive(Debug, Clone, Copy, Default)]
pub struct DeployCursor {
    /// Machines already yielded (a prefix length of the deploy order).
    next: usize,
}

impl DeployCursor {
    /// Advances to `hour` and returns the newly deployed machines
    /// (`deploy_hour <= hour`, the [`FleetTopology::is_deployed`]
    /// predicate) in deploy order, with their core counts beside them.
    /// `hour` must not move backwards.
    pub fn advance<'t>(&mut self, topo: &'t FleetTopology, hour: f64) -> (&'t [u32], &'t [u32]) {
        let start = self.next;
        let due = topo.deploy_hours[start..]
            .iter()
            .take_while(|&&h| h <= hour)
            .count();
        self.next = start + due;
        (
            &topo.deploy_order[start..self.next],
            &topo.deploy_cores[start..self.next],
        )
    }
}

impl FleetTopology {
    /// Materializes a topology from configuration (deterministic in the
    /// seed).
    ///
    /// # Panics
    ///
    /// Panics if the catalog is empty or all weights are zero.
    pub fn build(config: FleetConfig) -> FleetTopology {
        assert!(!config.products.is_empty(), "need at least one product");
        let total_weight: f64 = config.products.iter().map(|p| p.fleet_weight).sum();
        assert!(total_weight > 0.0, "product weights must not all be zero");
        let streams = StreamFamily::new(config.seed, 0x746f, 0);
        let mut machines = Vec::with_capacity(config.machines as usize);
        let mut total_cores = 0u64;
        for m in 0..config.machines {
            let mut rng = streams.rng(m as u64);
            // Weighted product draw.
            let mut pick = rng.next_uniform() * total_weight;
            let mut product = 0;
            for (i, p) in config.products.iter().enumerate() {
                if pick < p.fleet_weight {
                    product = i;
                    break;
                }
                pick -= p.fleet_weight;
                product = i;
            }
            let deploy_hour = if config.rollout_months == 0 {
                0.0
            } else {
                rng.next_uniform() * config.rollout_months as f64 * 730.0
            };
            total_cores += config.products[product].cores_per_socket as u64
                * config.sockets_per_machine as u64;
            machines.push(MachineInfo {
                machine: m,
                product,
                deploy_hour,
            });
        }
        // Deploy hours are finite and >= +0.0, and for such floats the bit
        // patterns order like the values, so `(bits, machine)` packed into
        // one integer sorts exactly as `(deploy_hour, machine)`. The keys
        // are unique, so an unstable sort yields the one permutation, and
        // the core count riding in the low 32 bits never decides an order.
        let sockets = u32::from(config.sockets_per_machine);
        let mut keys: Vec<u128> = machines
            .iter()
            .map(|m| {
                debug_assert!(m.deploy_hour.is_finite() && m.deploy_hour.is_sign_positive());
                let cores = u32::from(config.products[m.product].cores_per_socket) * sockets;
                (u128::from(m.deploy_hour.to_bits()) << 64)
                    | (u128::from(m.machine) << 32)
                    | u128::from(cores)
            })
            .collect();
        keys.sort_unstable();
        let deploy_order = keys.iter().map(|&k| (k >> 32) as u32).collect();
        let deploy_hours = keys
            .iter()
            .map(|&k| f64::from_bits((k >> 64) as u64))
            .collect();
        let deploy_cores = keys.iter().map(|&k| k as u32).collect();
        FleetTopology {
            config,
            machines,
            total_cores,
            deploy_order,
            deploy_hours,
            deploy_cores,
        }
    }

    /// The configuration this topology was built from.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Per-machine facts.
    pub fn machines(&self) -> &[MachineInfo] {
        &self.machines
    }

    /// A machine's product.
    pub fn product_of(&self, machine: u32) -> &CpuProduct {
        &self.config.products[self.machines[machine as usize].product]
    }

    /// Total cores across the fleet.
    pub fn total_cores(&self) -> u64 {
        self.total_cores
    }

    /// Iterates every core UID of a machine.
    pub fn cores_of(&self, machine: u32) -> impl Iterator<Item = CoreUid> + '_ {
        let cores = self.product_of(machine).cores_per_socket;
        let sockets = self.config.sockets_per_machine;
        (0..sockets).flat_map(move |s| (0..cores).map(move |c| CoreUid::new(machine, s, c)))
    }

    /// A machine's age in hours at fleet time `hour` (0 if not yet
    /// deployed).
    pub fn age_hours(&self, machine: u32, hour: f64) -> f64 {
        (hour - self.machines[machine as usize].deploy_hour).max(0.0)
    }

    /// Whether the machine is in service at fleet time `hour`.
    pub fn is_deployed(&self, machine: u32, hour: f64) -> bool {
        hour >= self.machines[machine as usize].deploy_hour
    }

    /// Number of cores on a machine.
    pub fn cores_on(&self, machine: u32) -> u64 {
        self.product_of(machine).cores_per_socket as u64 * self.config.sockets_per_machine as u64
    }

    /// Machine ids in `(deploy_hour, machine)` order.
    pub fn deploy_order(&self) -> &[u32] {
        &self.deploy_order
    }

    /// Deploy hours in deploy order: `deploy_hours()[i]` belongs to
    /// `deploy_order()[i]` (ascending).
    pub fn deploy_hours(&self) -> &[f64] {
        &self.deploy_hours
    }

    /// Core counts in deploy order: `deploy_cores()[i]` is
    /// [`FleetTopology::cores_on`] of `deploy_order()[i]`.
    pub fn deploy_cores(&self) -> &[u32] {
        &self.deploy_cores
    }

    /// Machines in service at fleet time `hour` (binary search over the
    /// deploy order — O(log machines), not a fleet scan).
    pub fn deployed_count(&self, hour: f64) -> u64 {
        self.deploy_hours.partition_point(|&h| h <= hour) as u64
    }

    /// The hour at (and after) which every machine is in service; 0 for
    /// an empty fleet.
    pub fn rollout_end_hour(&self) -> f64 {
        self.deploy_hours.last().copied().unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let a = FleetTopology::build(FleetConfig::tiny(100, 7));
        let b = FleetTopology::build(FleetConfig::tiny(100, 7));
        assert_eq!(a.machines(), b.machines());
        let c = FleetTopology::build(FleetConfig::tiny(100, 8));
        assert_ne!(a.machines(), c.machines());
    }

    #[test]
    fn product_mix_roughly_matches_weights() {
        let topo = FleetTopology::build(FleetConfig::tiny(10_000, 3));
        let mut counts = vec![0u32; topo.config().products.len()];
        for m in topo.machines() {
            counts[m.product] += 1;
        }
        for (i, p) in topo.config().products.iter().enumerate() {
            let share = counts[i] as f64 / 10_000.0;
            assert!(
                (share - p.fleet_weight).abs() < 0.03,
                "product {i}: share {share} vs weight {}",
                p.fleet_weight
            );
        }
    }

    #[test]
    fn cohorts_spread_over_rollout() {
        let mut cfg = FleetConfig::tiny(1000, 4);
        cfg.rollout_months = 10;
        let topo = FleetTopology::build(cfg);
        let early = topo.deployed_count(730.0); // end of month 1
        let late = topo.deployed_count(7300.0); // end of month 10
        assert!(early > 30 && early < 300, "early = {early}");
        assert_eq!(late, 1000);
    }

    #[test]
    fn core_iteration_matches_totals() {
        let topo = FleetTopology::build(FleetConfig::tiny(50, 5));
        let counted: u64 = (0..50).map(|m| topo.cores_of(m).count() as u64).sum();
        assert_eq!(counted, topo.total_cores());
    }

    #[test]
    fn deployed_counts_match_naive_scans() {
        let mut cfg = FleetConfig::tiny(500, 9);
        cfg.rollout_months = 8;
        let topo = FleetTopology::build(cfg);
        for hour in [0.0, 1.0, 365.0, 730.0, 2500.0, 5840.0, 1e6] {
            let naive = topo
                .machines()
                .iter()
                .filter(|m| m.deploy_hour <= hour)
                .count() as u64;
            assert_eq!(topo.deployed_count(hour), naive, "hour {hour}");
        }
    }

    #[test]
    fn deploy_cursor_yields_each_machine_once_as_it_deploys() {
        let mut cfg = FleetConfig::tiny(500, 9);
        cfg.rollout_months = 8;
        let topo = FleetTopology::build(cfg);
        let mut cursor = DeployCursor::default();
        let mut seen = vec![false; 500];
        for hour in [0.0, 0.0, 1.0, 365.0, 730.0, 2500.0, 5840.0, 1e6, 1e6] {
            for &m in cursor.advance(&topo, hour).0 {
                assert!(!seen[m as usize], "machine {m} yielded twice");
                seen[m as usize] = true;
            }
            for m in 0..500u32 {
                assert_eq!(seen[m as usize], topo.is_deployed(m, hour), "hour {hour}");
            }
        }
        let key = |m: u32| (topo.machines()[m as usize].deploy_hour, m);
        assert!(topo
            .deploy_order()
            .windows(2)
            .all(|w| key(w[0]) < key(w[1])));
    }

    #[test]
    fn deploy_arrays_match_the_machine_table() {
        let mut cfg = FleetConfig::default_fleet();
        cfg.machines = 2_000;
        cfg.seed = 17;
        let topo = FleetTopology::build(cfg);
        assert_eq!(topo.deploy_hours().len(), 2_000);
        assert_eq!(topo.deploy_cores().len(), 2_000);
        for (i, &m) in topo.deploy_order().iter().enumerate() {
            let hour = topo.deploy_hours()[i];
            assert_eq!(
                hour.to_bits(),
                topo.machines()[m as usize].deploy_hour.to_bits()
            );
            assert_eq!(
                u64::from(topo.deploy_cores()[i]),
                topo.cores_on(m),
                "machine {m}"
            );
        }
        assert!(topo.deploy_hours()[0] < topo.rollout_end_hour());
        let core_counts: std::collections::BTreeSet<u32> =
            topo.deploy_cores().iter().copied().collect();
        assert!(core_counts.len() > 1, "the fleet must mix core counts");
    }

    #[test]
    fn rollout_end_hour_is_the_last_deploy() {
        let mut cfg = FleetConfig::tiny(200, 11);
        cfg.rollout_months = 6;
        let topo = FleetTopology::build(cfg);
        let max = topo
            .machines()
            .iter()
            .map(|m| m.deploy_hour)
            .fold(0.0, f64::max);
        assert_eq!(topo.rollout_end_hour(), max);
        assert_eq!(topo.deployed_count(max), 200);
        assert!(topo.deployed_count(max - 1e-6) < 200);
        let flat = FleetTopology::build(FleetConfig::tiny(10, 1));
        assert_eq!(flat.rollout_end_hour(), 0.0);
    }

    #[test]
    fn cores_on_matches_iteration() {
        let mut cfg = FleetConfig::tiny(40, 13);
        cfg.sockets_per_machine = 2;
        let topo = FleetTopology::build(cfg);
        for m in 0..40 {
            assert_eq!(topo.cores_on(m), topo.cores_of(m).count() as u64);
        }
    }

    #[test]
    fn age_accounts_for_deployment() {
        let mut cfg = FleetConfig::tiny(10, 6);
        cfg.rollout_months = 12;
        let topo = FleetTopology::build(cfg);
        let dh = topo.machines()[3].deploy_hour;
        assert_eq!(topo.age_hours(3, dh - 1.0), 0.0);
        assert!((topo.age_hours(3, dh + 100.0) - 100.0).abs() < 1e-9);
    }
}
