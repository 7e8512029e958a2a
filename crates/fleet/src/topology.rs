//! Fleet topology: machines, sockets, cores, deployment cohorts.

use crate::product::CpuProduct;
use mercurial_fault::{CoreUid, StreamFamily};
use serde::{Deserialize, Serialize};

/// Static fleet configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
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

/// The materialized fleet: every machine's product and deployment time,
/// one column per fact, indexed by machine id.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetTopology {
    config: FleetConfig,
    /// `product[m]` is machine `m`'s index into the catalog.
    product: Vec<u8>,
    /// `deploy_hour[m]` is the hour (from window start) machine `m`
    /// entered service: the only copy of the hour.
    deploy_hour: Vec<f64>,
    /// Machine ids sorted by `(deploy_hour, machine)`. Deployment is
    /// monotone — machines never undeploy — so "which machines are in
    /// service at `hour`" is a prefix of this order, found by a binary
    /// search that reads each probe's hour through the order.
    deploy_order: Vec<u32>,
    /// Cores on one machine of each catalog product (sockets × cores
    /// per socket), indexed like the catalog.
    product_cores: Vec<u64>,
    total_cores: u64,
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
    /// predicate) in deploy order. `hour` must not move backwards.
    pub fn advance<'t>(&mut self, topo: &'t FleetTopology, hour: f64) -> &'t [u32] {
        let start = self.next;
        self.next = topo.deployed_prefix(start, hour);
        &topo.deploy_order[start..self.next]
    }
}

impl FleetTopology {
    /// Materializes a topology from configuration (deterministic in the
    /// seed).
    ///
    /// # Panics
    ///
    /// Panics if the catalog is empty, lists more than 256 products (a
    /// machine's product index is one byte), or all weights are zero.
    pub fn build(config: FleetConfig) -> FleetTopology {
        assert!(!config.products.is_empty(), "need at least one product");
        assert!(
            config.products.len() <= 256,
            "at most 256 products, got {}",
            config.products.len()
        );
        let total_weight: f64 = config.products.iter().map(|p| p.fleet_weight).sum();
        assert!(total_weight > 0.0, "product weights must not all be zero");
        let sockets = u64::from(config.sockets_per_machine);
        let product_cores: Vec<u64> = config
            .products
            .iter()
            .map(|p| u64::from(p.cores_per_socket) * sockets)
            .collect();
        let streams = StreamFamily::new(config.seed, 0x746f, 0);
        let n = config.machines as usize;
        let mut products = Vec::with_capacity(n);
        let mut hours = Vec::with_capacity(n);
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
            total_cores += product_cores[product];
            products.push(product as u8);
            hours.push(deploy_hour);
        }
        // Deploy hours are finite and >= +0.0, and for such floats the bit
        // patterns order like the values, so `(bits, machine)` packed into
        // one integer sorts exactly as `(deploy_hour, machine)`. The keys
        // are unique, so an unstable sort yields the one permutation. The
        // keys are dropped before `build` returns.
        let mut keys: Vec<u128> = hours
            .iter()
            .zip(0u32..)
            .map(|(&h, m)| {
                debug_assert!(h.is_finite() && h.is_sign_positive());
                (u128::from(h.to_bits()) << 32) | u128::from(m)
            })
            .collect();
        keys.sort_unstable();
        let deploy_order = keys.iter().map(|&k| k as u32).collect();
        FleetTopology {
            config,
            product: products,
            deploy_hour: hours,
            deploy_order,
            product_cores,
            total_cores,
        }
    }

    /// The configuration this topology was built from.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Number of machines.
    pub fn machine_count(&self) -> u32 {
        self.product.len() as u32
    }

    /// A machine's index into the product catalog.
    pub fn product_index(&self, machine: u32) -> usize {
        usize::from(self.product[machine as usize])
    }

    /// Every machine's catalog index, indexed by machine id.
    pub fn product_indices(&self) -> &[u8] {
        &self.product
    }

    /// A machine's product.
    pub fn product_of(&self, machine: u32) -> &CpuProduct {
        &self.config.products[self.product_index(machine)]
    }

    /// Hour (from window start) the machine entered service.
    pub fn deploy_hour(&self, machine: u32) -> f64 {
        self.deploy_hour[machine as usize]
    }

    /// Every machine's deploy hour, indexed by machine id.
    pub fn deploy_hours_by_machine(&self) -> &[f64] {
        &self.deploy_hour
    }

    /// Total cores across the fleet.
    pub fn total_cores(&self) -> u64 {
        self.total_cores
    }

    /// Heap bytes of the per-machine columns (product, deploy hour,
    /// deploy order), from their lengths.
    pub fn column_bytes(&self) -> usize {
        std::mem::size_of_val(&self.product[..])
            + std::mem::size_of_val(&self.deploy_hour[..])
            + std::mem::size_of_val(&self.deploy_order[..])
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
        (hour - self.deploy_hour(machine)).max(0.0)
    }

    /// Whether the machine is in service at fleet time `hour`.
    pub fn is_deployed(&self, machine: u32, hour: f64) -> bool {
        hour >= self.deploy_hour(machine)
    }

    /// Number of cores on a machine.
    pub fn cores_on(&self, machine: u32) -> u64 {
        self.product_cores[self.product_index(machine)]
    }

    /// Machine ids in `(deploy_hour, machine)` order.
    pub fn deploy_order(&self) -> &[u32] {
        &self.deploy_order
    }

    /// Length of the deploy-order prefix in service at `hour`, searched
    /// from position `from` on (every machine before `from` must be in
    /// service at `hour`).
    fn deployed_prefix(&self, from: usize, hour: f64) -> usize {
        from + self.deploy_order[from..].partition_point(|&m| self.deploy_hour(m) <= hour)
    }

    /// Machines in service at fleet time `hour` (binary search over the
    /// deploy order — O(log machines), not a fleet scan).
    pub fn deployed_count(&self, hour: f64) -> u64 {
        self.deployed_prefix(0, hour) as u64
    }

    /// The hour at (and after) which every machine is in service; 0 for
    /// an empty fleet.
    pub fn rollout_end_hour(&self) -> f64 {
        self.deploy_order
            .last()
            .map_or(0.0, |&m| self.deploy_hour(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_is_deterministic() {
        let a = FleetTopology::build(FleetConfig::tiny(100, 7));
        let b = FleetTopology::build(FleetConfig::tiny(100, 7));
        assert_eq!(a, b);
        let c = FleetTopology::build(FleetConfig::tiny(100, 8));
        assert_ne!(a.product_indices(), c.product_indices());
    }

    #[test]
    fn product_mix_roughly_matches_weights() {
        let topo = FleetTopology::build(FleetConfig::tiny(10_000, 3));
        let mut counts = vec![0u32; topo.config().products.len()];
        for &p in topo.product_indices() {
            counts[usize::from(p)] += 1;
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
                .deploy_hours_by_machine()
                .iter()
                .filter(|&&h| h <= hour)
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
            for &m in cursor.advance(&topo, hour) {
                assert!(!seen[m as usize], "machine {m} yielded twice");
                seen[m as usize] = true;
            }
            for m in 0..500u32 {
                assert_eq!(seen[m as usize], topo.is_deployed(m, hour), "hour {hour}");
            }
        }
        let key = |m: u32| (topo.deploy_hour(m), m);
        assert!(topo
            .deploy_order()
            .windows(2)
            .all(|w| key(w[0]) < key(w[1])));
    }

    #[test]
    fn columns_hold_one_narrow_entry_per_machine() {
        let mut cfg = FleetConfig::default_fleet();
        cfg.machines = 2_000;
        cfg.seed = 17;
        let topo = FleetTopology::build(cfg);
        assert_eq!(topo.machine_count(), 2_000);
        assert_eq!(topo.product_indices().len(), 2_000);
        assert_eq!(topo.deploy_hours_by_machine().len(), 2_000);
        assert_eq!(topo.deploy_order().len(), 2_000);
        assert_eq!(topo.column_bytes(), 2_000 * (1 + 8 + 4));
        let mut sorted = topo.deploy_order().to_vec();
        sorted.sort_unstable();
        assert!(sorted.iter().copied().eq(0..2_000), "a permutation");
        let core_counts: std::collections::BTreeSet<u64> =
            (0..2_000).map(|m| topo.cores_on(m)).collect();
        assert!(core_counts.len() > 1, "the fleet must mix core counts");
        assert_eq!(
            (0..2_000).map(|m| topo.cores_on(m)).sum::<u64>(),
            topo.total_cores()
        );
    }

    #[test]
    fn rollout_end_hour_is_the_last_deploy() {
        let mut cfg = FleetConfig::tiny(200, 11);
        cfg.rollout_months = 6;
        let topo = FleetTopology::build(cfg);
        let max = topo
            .deploy_hours_by_machine()
            .iter()
            .copied()
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
        let dh = topo.deploy_hour(3);
        assert_eq!(topo.age_hours(3, dh - 1.0), 0.0);
        assert!((topo.age_hours(3, dh + 100.0) - 100.0).abs() < 1e-9);
    }
}
