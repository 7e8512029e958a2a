//! The build draws every machine's product, deploy hour and workload
//! class and every core's defect coin from counter streams. The build
//! mixes each stream family's fixed key parts once, tests the coin as an
//! integer threshold and sorts the deploy order on packed integer keys.
//! Each test here replays the build as first written — a fresh
//! `from_parts` stream per machine or core, the float coin, a comparator
//! sort — and requires the same bits. A shard's population, seeded over
//! its machine range alone, must be exactly its slice of the fleet's.
//! The topology keeps each fact in its own column and walks the deploy
//! order by binary search; the reference keeps them per machine and
//! walks linearly.

use mercurial_fault::{library, CoreFaultProfile, CoreUid, CounterRng};
use mercurial_fleet::sim::shard_ranges;
use mercurial_fleet::topology::{DeployCursor, FleetConfig, FleetTopology};
use mercurial_fleet::{CpuProduct, FleetSim, Population, SimConfig, WorkloadClass};

/// A rolling-out fleet whose products run 100× the catalog's defect
/// rates, so a few thousand machines carry hundreds of mercurial cores.
fn rollout_fleet(seed: u64) -> FleetConfig {
    let mut products = CpuProduct::default_catalog();
    for p in &mut products {
        p.mercurial_rate_per_core *= 100.0;
    }
    FleetConfig {
        machines: 4_000,
        sockets_per_machine: 2,
        products,
        rollout_months: 18,
        seed,
    }
}

const SEEDS: [u64; 2] = [0x5eed, 24_301];

/// One machine as the reference build resolves it.
struct RefMachine {
    product: usize,
    deploy_hour: f64,
}

fn reference_topology(config: &FleetConfig) -> (Vec<RefMachine>, Vec<u32>) {
    let total_weight: f64 = config.products.iter().map(|p| p.fleet_weight).sum();
    let mut machines = Vec::new();
    for m in 0..config.machines {
        let mut rng = CounterRng::from_parts(config.seed, m as u64, 0x746f, 0);
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
        machines.push(RefMachine {
            product,
            deploy_hour,
        });
    }
    let mut order: Vec<u32> = (0..config.machines).collect();
    order.sort_by(|&a, &b| {
        machines[a as usize]
            .deploy_hour
            .partial_cmp(&machines[b as usize].deploy_hour)
            .expect("deploy hours are finite")
            .then(a.cmp(&b))
    });
    (machines, order)
}

fn reference_population(topo: &FleetTopology) -> Vec<(CoreUid, CoreFaultProfile)> {
    let seed = topo.config().seed;
    let mut mercurial = Vec::new();
    let mut draw_id = 0u64;
    for m in 0..topo.machine_count() {
        let rate = topo.product_of(m).mercurial_rate_per_core;
        for uid in topo.cores_of(m) {
            let coin = CounterRng::from_parts(seed, uid.as_u64(), 0x6d65, 0).uniform_at(0);
            if coin < rate {
                mercurial.push((uid, library::sample_profile(seed, draw_id)));
            }
            draw_id += 1;
        }
    }
    mercurial
}

fn reference_workloads(workloads: &[(WorkloadClass, f64)], topo: &FleetTopology) -> Vec<usize> {
    let seed = topo.config().seed;
    let total: f64 = workloads.iter().map(|(_, w)| w).sum();
    (0..topo.machine_count())
        .map(|machine| {
            let mut pick =
                CounterRng::from_parts(seed, machine as u64, 0x776f, 0).uniform_at(0) * total;
            for (i, (_, w)) in workloads.iter().enumerate() {
                if pick < *w {
                    return i;
                }
                pick -= w;
            }
            workloads.len() - 1
        })
        .collect()
}

#[test]
fn topology_matches_the_reference_build() {
    for seed in SEEDS {
        let flat = FleetConfig {
            rollout_months: 0,
            ..rollout_fleet(seed)
        };
        for config in [rollout_fleet(seed), flat] {
            let topo = FleetTopology::build(config.clone());
            let (machines, order) = reference_topology(&config);
            assert_eq!(topo.machine_count() as usize, machines.len(), "seed {seed}");
            for (m, expected) in (0u32..).zip(&machines) {
                let cores = u64::from(config.products[expected.product].cores_per_socket)
                    * u64::from(config.sockets_per_machine);
                assert_eq!(topo.product_index(m), expected.product, "seed {seed}, {m}");
                assert_eq!(
                    topo.deploy_hour(m).to_bits(),
                    expected.deploy_hour.to_bits(),
                    "seed {seed}, machine {m}"
                );
                assert_eq!(topo.cores_on(m), cores, "seed {seed}, machine {m}");
            }
            assert_eq!(topo.deploy_order(), &order[..], "seed {seed}");
        }
    }
}

#[test]
fn deploy_cursor_matches_the_linear_walk() {
    // Every epoch hour of a 36-month run at the default 73-hour epoch,
    // plus every 97th machine's own deploy hour, ascending with repeats:
    // a deploy hour is in service at that hour.
    let epoch_hours = SimConfig::default().epoch_hours;
    for seed in SEEDS {
        let flat = FleetConfig {
            rollout_months: 0,
            ..rollout_fleet(seed)
        };
        for config in [rollout_fleet(seed), flat] {
            let topo = FleetTopology::build(config.clone());
            let (machines, order) = reference_topology(&config);
            let mut hours: Vec<f64> = (0u32..)
                .map(|e| f64::from(e) * epoch_hours)
                .take_while(|&h| h <= 36.0 * 730.0)
                .chain(machines.iter().step_by(97).map(|m| m.deploy_hour))
                .collect();
            hours.sort_by(f64::total_cmp);
            let (mut cursor, mut next) = (DeployCursor::default(), 0);
            for hour in hours {
                let start = next;
                while order
                    .get(next)
                    .is_some_and(|&m| machines[m as usize].deploy_hour <= hour)
                {
                    next += 1;
                }
                let got = cursor.advance(&topo, hour);
                assert_eq!(got, &order[start..next], "seed {seed}, hour {hour}");
                assert_eq!(topo.deployed_count(hour), next as u64, "hour {hour}");
            }
            assert_eq!(next, order.len(), "seed {seed}: every machine deploys");
        }
    }
}

#[test]
fn population_matches_the_reference_coins() {
    for seed in SEEDS {
        let topo = FleetTopology::build(rollout_fleet(seed));
        let expected = reference_population(&topo);
        assert!(expected.len() > 100, "seed {seed}: {} hits", expected.len());
        let pop = Population::seed_from(&topo);
        let got: Vec<(CoreUid, CoreFaultProfile)> = pop
            .mercurial_cores()
            .map(|c| (c.uid, c.profile.clone()))
            .collect();
        assert_eq!(got, expected, "seed {seed}");
    }
}

#[test]
fn workload_assignment_matches_the_reference_draw() {
    for seed in SEEDS {
        let topo = FleetTopology::build(rollout_fleet(seed));
        let pop = Population::with_explicit(seed, Vec::new());
        let mix = WorkloadClass::default_mix();
        let expected = reference_workloads(&mix, &topo);
        let sim = FleetSim::new(topo, pop, SimConfig::default());
        let got: Vec<usize> = (0..expected.len() as u32)
            .map(|m| sim.class_of(m))
            .collect();
        assert_eq!(got, expected, "seed {seed}");
        assert!(
            (0..sim.class_count()).all(|c| got.contains(&c)),
            "every class must be drawn"
        );
    }
}

fn cores_and_profiles(pop: &Population) -> Vec<(CoreUid, CoreFaultProfile)> {
    pop.mercurial_cores()
        .map(|c| (c.uid, c.profile.clone()))
        .collect()
}

#[test]
fn shard_populations_union_to_the_fleet_population() {
    let tiny = FleetConfig {
        machines: 3,
        ..rollout_fleet(0x5eed)
    };
    let fleets = SEEDS.iter().map(|&seed| rollout_fleet(seed)).chain([tiny]);
    for config in fleets {
        let topo = FleetTopology::build(config.clone());
        let machines = config.machines;
        let full = cores_and_profiles(&Population::seed_from(&topo));
        for workers in [1, 2, 3, 4, 7] {
            let mut union = Vec::new();
            for (lo, hi) in shard_ranges(machines, workers) {
                let shard = cores_and_profiles(&Population::seed_range(&topo, lo, hi));
                assert!(
                    shard.iter().all(|(uid, _)| (lo..hi).contains(&uid.machine)),
                    "seed {}: shard [{lo}, {hi}) drew outside its range",
                    config.seed
                );
                union.extend(shard);
            }
            // Equal profiles pin each shard's `draw_id` offset: the
            // profile is drawn by the core's fleet-wide index.
            assert_eq!(
                union, full,
                "seed {}, {machines} machines, {workers} workers",
                config.seed
            );
        }
    }
}

#[test]
fn odd_socket_widths_match_the_reference_coins() {
    // The catalog's 24-, 32- and 48-core sockets fill whole eight-core
    // lane groups; 7 and 13 cores a socket leave a tail of 7 and 5.
    for seed in SEEDS {
        let mut config = rollout_fleet(seed);
        config.products.truncate(2);
        for (product, cores) in config.products.iter_mut().zip([7, 13]) {
            product.cores_per_socket = cores;
            product.mercurial_rate_per_core *= 10.0;
        }
        let topo = FleetTopology::build(config.clone());
        let expected = reference_population(&topo);
        assert!(expected.len() > 100, "seed {seed}: {} hits", expected.len());
        let full = cores_and_profiles(&Population::seed_from(&topo));
        assert_eq!(full, expected, "seed {seed}");
        for workers in [1, 2, 3, 4, 7] {
            let union: Vec<_> = shard_ranges(config.machines, workers)
                .into_iter()
                .flat_map(|(lo, hi)| cores_and_profiles(&Population::seed_range(&topo, lo, hi)))
                .collect();
            assert_eq!(union, full, "seed {seed}, {workers} workers");
        }
    }
}
