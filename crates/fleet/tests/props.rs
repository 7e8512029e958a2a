//! Property-based tests on the fleet simulator's statistical machinery.

use mercurial_fault::{CounterRng, OperatingPoint};
use mercurial_fleet::population::TestSpec;
use mercurial_fleet::sim::poisson;
use mercurial_fleet::topology::{FleetConfig, FleetTopology};
use mercurial_fleet::Population;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Poisson draws are non-negative and roughly mean-lambda over a batch.
    #[test]
    fn poisson_sane(seed in any::<u64>(), lambda in 0.01f64..200.0) {
        let mut rng = CounterRng::new(seed);
        let n = 2_000;
        let sum: u64 = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
        let mean = sum as f64 / n as f64;
        // Loose 6-sigma band on the sample mean.
        let tol = 6.0 * (lambda / n as f64).sqrt() + 0.05;
        prop_assert!((mean - lambda).abs() < tol, "lambda {lambda}, mean {mean}");
    }

    /// Topology construction is a pure function of the config.
    #[test]
    fn topology_deterministic(machines in 1u32..200, seed in any::<u64>()) {
        let a = FleetTopology::build(FleetConfig::tiny(machines, seed));
        let b = FleetTopology::build(FleetConfig::tiny(machines, seed));
        prop_assert_eq!(a.product_indices(), b.product_indices());
        prop_assert_eq!(a.deploy_hours_by_machine(), b.deploy_hours_by_machine());
        prop_assert_eq!(a.deploy_order(), b.deploy_order());
        prop_assert_eq!(a.total_cores(), b.total_cores());
    }

    /// Detection probability is monotone in the op budget and bounded.
    #[test]
    fn detection_probability_monotone_in_ops(
        seed in any::<u64>(),
        draw in 0u64..500,
        ops_small in 1u64..10_000,
    ) {
        let uid = mercurial_fault::CoreUid::new(1, 0, 0);
        let profile = mercurial_fault::library::sample_profile(seed, draw);
        let pop = Population::with_explicit(seed, vec![(uid, profile)]);
        let spec_small = TestSpec::uniform(ops_small, OperatingPoint::NOMINAL);
        let spec_large = TestSpec::uniform(ops_small * 16, OperatingPoint::NOMINAL);
        // Mature age so latent defects are active.
        let age = 10.0 * 365.25 * 24.0;
        let p_small = pop.detection_probability(uid, &spec_small, age);
        let p_large = pop.detection_probability(uid, &spec_large, age);
        prop_assert!((0.0..=1.0).contains(&p_small));
        prop_assert!((0.0..=1.0).contains(&p_large));
        prop_assert!(p_large >= p_small - 1e-12);
    }

    /// Screening a healthy core can never fail, under any spec.
    #[test]
    fn healthy_cores_never_indicted(
        seed in any::<u64>(),
        ops in 1u64..10_000_000,
        test_id in any::<u64>(),
    ) {
        let pop = Population::with_explicit(seed, vec![]);
        let uid = mercurial_fault::CoreUid::new(3, 1, 7);
        let spec = TestSpec::uniform(ops, OperatingPoint::NOMINAL);
        prop_assert!(!pop.screen_core(uid, &spec, 1000.0, test_id));
    }
}
