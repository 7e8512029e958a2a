//! Ground truth: which cores are mercurial, and the fault oracle.
//!
//! [`Population::seed_from`] walks every core of a topology and flips a
//! per-product-rate Bernoulli coin; afflicted cores get a randomized
//! profile from the `mercurial-fault` archetype library. The result is the
//! simulation's *ground truth* — §1's "a few mercurial cores per several
//! thousand machines" as actual, enumerable cores.
//!
//! The **fault oracle** methods ([`Population::screen_core`],
//! [`Population::unit_rates`]) answer the only question hardware ever
//! answers: "did this batch of operations miscompute?". Screeners and the
//! workload engine are built on them; neither gets to peek at the profile
//! itself (that privilege is reserved to experiment ground-truth scoring).

use crate::topology::FleetTopology;
use mercurial_fault::{
    library, Coin, CoreFaultProfile, CoreUid, CounterRng, FunctionalUnit, OperatingPoint,
    StreamFamily,
};
use std::collections::BTreeMap;

/// One mercurial core: identity plus ground-truth profile.
#[derive(Debug, Clone, PartialEq)]
pub struct MercurialCore {
    /// The core.
    pub uid: CoreUid,
    /// Its defect profile.
    pub profile: CoreFaultProfile,
}

/// A batch test description: how many operations hit each unit, with what
/// operands, at what operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct TestSpec {
    /// Operations per functional unit (indexed by [`FunctionalUnit::index`]).
    pub unit_ops: [u64; 9],
    /// Representative operands (the defect's data-pattern gate sees these;
    /// activation probability is averaged over them).
    pub operands: Vec<u64>,
    /// Operating point during the test.
    pub point: OperatingPoint,
}

impl TestSpec {
    /// The classic test-pattern operand set: zeros, ones, checkerboards,
    /// and a walking-bit sample.
    pub fn default_operands() -> Vec<u64> {
        vec![
            0,
            u64::MAX,
            0xaaaa_aaaa_aaaa_aaaa,
            0x5555_5555_5555_5555,
            0x0102_0408_1020_4080,
            0xdead_beef_cafe_f00d,
        ]
    }

    /// A uniform spec: `ops` operations on every unit at `point`.
    pub fn uniform(ops: u64, point: OperatingPoint) -> TestSpec {
        TestSpec {
            unit_ops: [ops; 9],
            operands: TestSpec::default_operands(),
            point,
        }
    }
}

/// The fleet's mercurial-core ground truth and fault oracle.
#[derive(Debug, Clone)]
pub struct Population {
    mercurial: BTreeMap<CoreUid, MercurialCore>,
    seed: u64,
}

impl Population {
    /// Samples the population for a topology (deterministic in the
    /// topology's seed): [`Population::seed_range`] over every machine.
    pub fn seed_from(topo: &FleetTopology) -> Population {
        Population::seed_range(topo, 0, topo.machines().len() as u32)
    }

    /// Samples only the mercurial cores on machines `[lo, hi)`: exactly
    /// the cores of [`Population::seed_from`] that lie in the range, with
    /// the same profiles. A core's coin is keyed by its uid and its
    /// profile by its `draw_id`, the core's index in the fleet's
    /// machine/socket/core order, so the walk starts at the prefix sum of
    /// cores below `lo` and draws nothing outside the range. A served
    /// worker seeds its own shard this way.
    pub fn seed_range(topo: &FleetTopology, lo: u32, hi: u32) -> Population {
        let Some(range) = topo.machines().get(lo as usize..hi as usize) else {
            panic!(
                "machine range [{lo}, {hi}) outside a {}-machine fleet",
                topo.machines().len()
            );
        };
        let seed = topo.config().seed;
        // One coin per core, `uniform_at(0) < rate` on the core's
        // `(seed, uid, 0x6d65, 0)` stream: the three fixed key parts are
        // mixed once, and the coin is the equivalent integer test. Cores
        // are walked in `cores_of` order with plain loops, which the
        // compiler keeps tighter than the `flat_map` (~5 vs ~6.5 ns a
        // core at 1M machines on a 2-vCPU x86-64 VM).
        let coins = StreamFamily::new(seed, 0x6d65, 0);
        let mut mercurial = BTreeMap::new();
        let mut draw_id: u64 = (0..lo).map(|m| topo.cores_on(m)).sum();
        for m in range {
            let product = topo.product_of(m.machine);
            let coin = Coin::new(product.mercurial_rate_per_core);
            let cores = product.cores_per_socket;
            for s in 0..topo.config().sockets_per_machine {
                for c in 0..cores {
                    let uid = CoreUid::new(m.machine, s, c);
                    if coin.hits(coins.rng(uid.as_u64()).at(0)) {
                        let profile = library::sample_profile(seed, draw_id);
                        mercurial.insert(uid, MercurialCore { uid, profile });
                    }
                    draw_id += 1;
                }
            }
        }
        Population { mercurial, seed }
    }

    /// A population with explicitly placed defects (for tests and the
    /// case-study experiments).
    pub fn with_explicit(seed: u64, cores: Vec<(CoreUid, CoreFaultProfile)>) -> Population {
        Population {
            mercurial: cores
                .into_iter()
                .map(|(uid, profile)| (uid, MercurialCore { uid, profile }))
                .collect(),
            seed,
        }
    }

    /// Number of mercurial cores.
    pub fn count(&self) -> usize {
        self.mercurial.len()
    }

    /// Iterates the mercurial cores (ground truth).
    pub fn mercurial_cores(&self) -> impl Iterator<Item = &MercurialCore> {
        self.mercurial.values()
    }

    /// The mercurial cores on one machine, in ascending [`CoreUid`] order
    /// (a `BTreeMap` range — O(log n + hits), not a population scan).
    pub fn mercurial_on(&self, machine: u32) -> impl Iterator<Item = &MercurialCore> {
        self.mercurial
            .range(CoreUid::new(machine, 0, 0)..=CoreUid::new(machine, u8::MAX, u16::MAX))
            .map(|(_, core)| core)
    }

    /// Ground truth: is this core mercurial?
    pub fn is_mercurial(&self, uid: CoreUid) -> bool {
        self.mercurial.contains_key(&uid)
    }

    /// Ground truth: the core's profile, if mercurial.
    pub fn profile_of(&self, uid: CoreUid) -> Option<&CoreFaultProfile> {
        self.mercurial.get(&uid).map(|m| &m.profile)
    }

    /// Per-operation corruption probability on each unit for a core under
    /// the given conditions (averaged over the spec's operands). All zeros
    /// for healthy cores.
    pub fn unit_rates(
        &self,
        uid: CoreUid,
        operands: &[u64],
        point: OperatingPoint,
        age_hours: f64,
    ) -> [f64; 9] {
        let mut rates = [0.0f64; 9];
        let Some(core) = self.mercurial.get(&uid) else {
            return rates;
        };
        for lesion in &core.profile.lesions {
            let mean_p = if operands.is_empty() {
                lesion.activation.probability(point, 0, age_hours)
            } else {
                operands
                    .iter()
                    .map(|&op| lesion.activation.probability(point, op, age_hours))
                    .sum::<f64>()
                    / operands.len() as f64
            };
            let slot = &mut rates[lesion.unit.index()];
            // Independent lesions compose as 1 - Π(1 - p).
            *slot = 1.0 - (1.0 - *slot) * (1.0 - mean_p);
        }
        rates
    }

    /// Runs an analytic screening test against a core: returns `true` if
    /// the test *fails* (at least one corruption fired during the batch).
    ///
    /// Deterministic in `(population seed, core, test_id)` so screening
    /// schedules are replayable; distinct `test_id`s are fresh draws, so
    /// retesting a flaky core behaves like production retesting.
    pub fn screen_core(&self, uid: CoreUid, spec: &TestSpec, age_hours: f64, test_id: u64) -> bool {
        let p = self.detection_probability(uid, spec, age_hours);
        if p <= 0.0 {
            return false;
        }
        CounterRng::from_parts(self.seed, uid.as_u64(), 0x7363, test_id).uniform_at(0) < p
    }

    /// The probability that [`Population::screen_core`] fails for this
    /// core and spec: `1 - Π_unit (1 - r_u)^ops_u`.
    pub fn detection_probability(&self, uid: CoreUid, spec: &TestSpec, age_hours: f64) -> f64 {
        if !self.is_mercurial(uid) {
            return 0.0;
        }
        let rates = self.unit_rates(uid, &spec.operands, spec.point, age_hours);
        let mut p_clean = 1.0f64;
        for unit in FunctionalUnit::ALL {
            let r = rates[unit.index()];
            let ops = spec.unit_ops[unit.index()];
            if r > 0.0 && ops > 0 {
                p_clean *= (1.0 - r).powf(ops as f64);
            }
        }
        1.0 - p_clean
    }

    /// The population's seed (used to key derived random streams).
    pub fn seed(&self) -> u64 {
        self.seed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::FleetConfig;
    use mercurial_fault::{Activation, Lesion};

    fn big_topo(seed: u64) -> FleetTopology {
        let mut cfg = FleetConfig::default_fleet();
        cfg.seed = seed;
        FleetTopology::build(cfg)
    }

    #[test]
    fn incidence_matches_the_paper_scale() {
        // §1: "a few mercurial cores per several thousand machines".
        let topo = big_topo(11);
        let pop = Population::seed_from(&topo);
        let per_thousand = pop.count() as f64 / (topo.config().machines as f64 / 1000.0);
        assert!(
            (0.2..=5.0).contains(&per_thousand),
            "{} mercurial cores in {} machines ({per_thousand}/1000)",
            pop.count(),
            topo.config().machines
        );
    }

    #[test]
    fn seeding_is_deterministic() {
        let topo = big_topo(12);
        let a = Population::seed_from(&topo);
        let b = Population::seed_from(&topo);
        assert_eq!(a.count(), b.count());
        let ka: Vec<CoreUid> = a.mercurial_cores().map(|c| c.uid).collect();
        let kb: Vec<CoreUid> = b.mercurial_cores().map(|c| c.uid).collect();
        assert_eq!(ka, kb);
    }

    #[test]
    fn mercurial_on_selects_one_machine_in_uid_order() {
        let profile = |name: &str| {
            CoreFaultProfile::single(
                name,
                FunctionalUnit::ScalarAlu,
                Lesion::FlipBit { bit: 0 },
                Activation::always(),
            )
        };
        let pop = Population::with_explicit(
            3,
            vec![
                (CoreUid::new(9, 1, 2), profile("a")),
                (CoreUid::new(2, 0, 5), profile("b")),
                (CoreUid::new(9, 0, 7), profile("c")),
                (CoreUid::new(10, 0, 0), profile("d")),
            ],
        );
        let on9: Vec<CoreUid> = pop.mercurial_on(9).map(|c| c.uid).collect();
        assert_eq!(on9, vec![CoreUid::new(9, 0, 7), CoreUid::new(9, 1, 2)]);
        assert_eq!(pop.mercurial_on(2).count(), 1);
        assert_eq!(pop.mercurial_on(3).count(), 0);
        // Every machine's slice unions back to the full population.
        let total: usize = (0..=10).map(|m| pop.mercurial_on(m).count()).sum();
        assert_eq!(total, pop.count());
    }

    #[test]
    fn healthy_cores_never_fail_screens() {
        let pop = Population::with_explicit(1, vec![]);
        let spec = TestSpec::uniform(1_000_000, OperatingPoint::NOMINAL);
        for i in 0..100 {
            assert!(!pop.screen_core(CoreUid::new(i, 0, 0), &spec, 0.0, i as u64));
        }
    }

    #[test]
    fn hot_defect_always_caught_with_enough_ops() {
        let uid = CoreUid::new(5, 0, 2);
        let profile = CoreFaultProfile::single(
            "hot",
            FunctionalUnit::ScalarAlu,
            Lesion::FlipBit { bit: 1 },
            Activation::with_prob(0.01),
        );
        let pop = Population::with_explicit(2, vec![(uid, profile)]);
        let spec = TestSpec::uniform(10_000, OperatingPoint::NOMINAL);
        assert!(pop.detection_probability(uid, &spec, 0.0) > 0.999999);
        assert!(pop.screen_core(uid, &spec, 0.0, 0));
    }

    #[test]
    fn rare_defect_escapes_small_tests_at_the_expected_rate() {
        let uid = CoreUid::new(6, 0, 0);
        let profile = CoreFaultProfile::single(
            "rare",
            FunctionalUnit::Fma,
            Lesion::CorruptValue,
            Activation::with_prob(1e-5),
        );
        let pop = Population::with_explicit(3, vec![(uid, profile)]);
        // 10_000 FMA ops → detection prob ≈ 1 - e^{-0.1} ≈ 0.095.
        let spec = TestSpec {
            unit_ops: {
                let mut v = [0u64; 9];
                v[FunctionalUnit::Fma.index()] = 10_000;
                v
            },
            operands: TestSpec::default_operands(),
            point: OperatingPoint::NOMINAL,
        };
        let p = pop.detection_probability(uid, &spec, 0.0);
        assert!((p - 0.095).abs() < 0.01, "p = {p}");
        let detections = (0..2000)
            .filter(|&t| pop.screen_core(uid, &spec, 0.0, t))
            .count();
        let rate = detections as f64 / 2000.0;
        assert!((rate - p).abs() < 0.03, "empirical {rate} vs analytic {p}");
    }

    #[test]
    fn unit_rates_respect_data_patterns() {
        let uid = CoreUid::new(7, 0, 0);
        let profile = library::data_pattern_vector(0.5);
        let pop = Population::with_explicit(4, vec![(uid, profile)]);
        // All-zero operands never satisfy PopcountAtLeast(40).
        let low = pop.unit_rates(uid, &[0, 1, 2], OperatingPoint::NOMINAL, 0.0);
        assert_eq!(low[FunctionalUnit::VectorPipe.index()], 0.0);
        let high = pop.unit_rates(uid, &[u64::MAX], OperatingPoint::NOMINAL, 0.0);
        assert!(high[FunctionalUnit::VectorPipe.index()] > 0.4);
    }

    #[test]
    fn latent_cores_fail_nothing_before_onset() {
        let uid = CoreUid::new(8, 0, 0);
        let profile = library::late_onset_muldiv(1000.0, 0.5);
        let pop = Population::with_explicit(5, vec![(uid, profile)]);
        let spec = TestSpec::uniform(100_000, OperatingPoint::NOMINAL);
        assert_eq!(pop.detection_probability(uid, &spec, 500.0), 0.0);
        assert!(pop.detection_probability(uid, &spec, 1500.0) > 0.99);
    }

    #[test]
    fn unit_rates_compose_multiple_lesions() {
        let uid = CoreUid::new(9, 0, 0);
        let profile = CoreFaultProfile::new(
            "two",
            vec![
                mercurial_fault::FaultLesion {
                    unit: FunctionalUnit::ScalarAlu,
                    lesion: Lesion::FlipBit { bit: 0 },
                    activation: Activation::with_prob(0.1),
                },
                mercurial_fault::FaultLesion {
                    unit: FunctionalUnit::ScalarAlu,
                    lesion: Lesion::FlipBit { bit: 1 },
                    activation: Activation::with_prob(0.2),
                },
            ],
        );
        let pop = Population::with_explicit(6, vec![(uid, profile)]);
        let rates = pop.unit_rates(uid, &[0], OperatingPoint::NOMINAL, 0.0);
        assert!((rates[FunctionalUnit::ScalarAlu.index()] - 0.28).abs() < 1e-9);
    }
}
