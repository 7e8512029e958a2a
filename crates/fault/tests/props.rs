//! Property-based tests on the fault model's core invariants.

use mercurial_fault::rng::mix64;
use mercurial_fault::{
    library, Activation, Coin, CoreFaultProfile, CoreUid, CounterRng, FunctionalUnit, Injector,
    Lesion, OpContext, OperatingPoint, StreamFamily,
};
use proptest::prelude::*;

fn arb_unit() -> impl Strategy<Value = FunctionalUnit> {
    (0..FunctionalUnit::ALL.len()).prop_map(|i| FunctionalUnit::ALL[i])
}

/// The stream key as first written: the four parts mixed and XORed in
/// one expression. [`StreamFamily`] and [`CounterRng::from_parts`] must
/// reproduce it bit for bit.
fn reference_key(seed: u64, a: u64, b: u64, c: u64) -> u64 {
    mix64(seed)
        ^ mix64(a.wrapping_mul(0xd6e8_feb8_6659_fd93))
        ^ mix64(b.wrapping_mul(0xa076_1d64_78bd_642f))
        ^ mix64(c.wrapping_mul(0xe703_7ed1_a0b4_28db))
}

/// The float coin: the draw's uniform `(raw >> 11)·2⁻⁵³` below `p`.
fn float_coin(raw: u64, p: f64) -> bool {
    ((raw >> 11) as f64 * (1.0 / (1u64 << 53) as f64)) < p
}

/// Raw draws on both sides of `p`'s integer threshold (where one exists),
/// plus the extremes.
fn boundary_raws(p: f64) -> Vec<u64> {
    let mut raws = vec![0, 0x7ff, u64::MAX, u64::MAX - 0x7ff, 1 << 63];
    let scaled = p * (1u64 << 53) as f64;
    if scaled.is_finite() && (1.0..(1u64 << 53) as f64).contains(&scaled) {
        let t = scaled.ceil() as u64;
        for top in [t - 1, t, t + 1] {
            raws.extend([top << 11, (top << 11) | 0x7ff]);
        }
    }
    raws
}

#[test]
fn coin_matches_the_float_coin_on_edge_rates() {
    let step = 1.0 / (1u64 << 53) as f64;
    let rates = [
        0.0,
        -0.0,
        1.0,
        6e-6,
        2.5e-5,
        step,
        3.0 * step,
        12345.0 * step,
        0.5,
        1.0 - step,
        f64::MIN_POSITIVE / 2.0,
        f64::from_bits(1),
        f64::NAN,
        -f64::NAN,
        -1e-9,
        -1.0,
        f64::NEG_INFINITY,
        1.0 + 1e-9,
        2.0,
        1e300,
        f64::INFINITY,
    ];
    for p in rates {
        let coin = Coin::new(p);
        for raw in boundary_raws(p) {
            assert_eq!(coin.hits(raw), float_coin(raw, p), "p {p:e}, raw {raw:#x}");
        }
    }
}

fn arb_point() -> impl Strategy<Value = OperatingPoint> {
    (800u32..4000, 600u32..1200, -20i32..110).prop_map(|(f, v, t)| OperatingPoint::new(f, v, t))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Activation probabilities are always valid probabilities.
    #[test]
    fn activation_probability_in_unit_interval(
        base in 0.0f64..2.0,
        point in arb_point(),
        operand in any::<u64>(),
        age in 0.0f64..1e6,
    ) {
        let a = Activation { base_prob: base, ..Activation::always() };
        let p = a.probability(point, operand, age);
        prop_assert!((0.0..=1.0).contains(&p), "p = {p}");
    }

    /// The injector is a pure function of (seed, context): two injectors
    /// with the same seed and profile agree on every operation.
    #[test]
    fn injector_is_deterministic(
        seed in any::<u64>(),
        unit in arb_unit(),
        ops in proptest::collection::vec((any::<u64>(), any::<u64>()), 1..64),
    ) {
        let profile = CoreFaultProfile::single(
            "p",
            unit,
            Lesion::CorruptValue,
            Activation::with_prob(0.37),
        );
        let mut a = Injector::new(seed, profile.clone());
        let mut b = Injector::new(seed, profile);
        for (i, &(operand, correct)) in ops.iter().enumerate() {
            let ctx = OpContext::nominal(CoreUid::new(1, 0, 0), unit, operand, i as u64);
            prop_assert_eq!(a.apply(ctx, correct), b.apply(ctx, correct));
        }
    }

    /// Lesions on one unit never corrupt operations on another.
    #[test]
    fn lesions_are_unit_local(
        afflicted in arb_unit(),
        executed in arb_unit(),
        correct in any::<u64>(),
        seq in any::<u64>(),
    ) {
        prop_assume!(afflicted != executed);
        let profile = CoreFaultProfile::single(
            "local",
            afflicted,
            Lesion::XorMask { mask: u64::MAX },
            Activation::always(),
        );
        let mut inj = Injector::new(1, profile);
        let ctx = OpContext::nominal(CoreUid::new(0, 0, 0), executed, 0, seq);
        let out = inj.apply(ctx, correct);
        prop_assert_eq!(out.value, correct);
        prop_assert!(!out.corrupted());
    }

    /// Deterministic lesions produce a stable wrong answer: applying the
    /// same operation twice (same seq) yields identical output.
    #[test]
    fn deterministic_lesions_have_stable_signatures(
        bit in 0u8..64,
        correct in any::<u64>(),
        seq in any::<u64>(),
    ) {
        let profile = CoreFaultProfile::single(
            "stable",
            FunctionalUnit::ScalarAlu,
            Lesion::FlipBit { bit },
            Activation::always(),
        );
        let ctx = OpContext::nominal(CoreUid::new(0, 0, 0), FunctionalUnit::ScalarAlu, 0, seq);
        let mut a = Injector::new(9, profile.clone());
        let mut b = Injector::new(9, profile);
        prop_assert_eq!(a.apply(ctx, correct).value, b.apply(ctx, correct).value);
    }

    /// Sampled profiles are well-formed: non-empty, probabilities valid,
    /// and the profile name comes from the archetype list.
    #[test]
    fn sampled_profiles_are_well_formed(seed in any::<u64>(), id in 0u64..10_000) {
        let p = library::sample_profile(seed, id);
        prop_assert!(!p.lesions.is_empty());
        prop_assert!(library::ARCHETYPES.contains(&p.name.as_str()));
        for l in &p.lesions {
            prop_assert!(l.activation.base_prob >= 0.0 && l.activation.base_prob <= 1.0);
            prop_assert!(l.activation.aging.onset_hours >= 0.0);
        }
    }

    /// Counter RNG streams with different ids never alias over a window.
    #[test]
    fn rng_streams_decorrelate(seed in any::<u64>(), a in any::<u64>(), b in any::<u64>()) {
        prop_assume!(a != b);
        let ra = CounterRng::from_parts(seed, a, 0, 0);
        let rb = CounterRng::from_parts(seed, b, 0, 0);
        let collisions = (0..64).filter(|&c| ra.at(c) == rb.at(c)).count();
        prop_assert_eq!(collisions, 0);
    }

    /// A stream family's member is the stream `from_parts` keys, and both
    /// derive the key exactly as the four-part reference does.
    #[test]
    fn stream_family_members_are_from_parts_streams(
        seed in any::<u64>(),
        a in any::<u64>(),
        b in any::<u64>(),
        c in any::<u64>(),
    ) {
        let member = StreamFamily::new(seed, b, c).rng(a);
        prop_assert_eq!(member, CounterRng::from_parts(seed, a, b, c));
        prop_assert_eq!(member, CounterRng::new(reference_key(seed, a, b, c)));
    }

    /// The integer coin is the float coin on random draws and rates,
    /// rates given as arbitrary bit patterns (NaN, infinities,
    /// subnormals and negatives included) or uniform in `[0, 1)`.
    #[test]
    fn coin_matches_the_float_coin(
        raw in any::<u64>(),
        bits in any::<u64>(),
        unit in 0.0f64..1.0,
    ) {
        for p in [f64::from_bits(bits), unit] {
            let coin = Coin::new(p);
            prop_assert_eq!(coin.hits(raw), float_coin(raw, p), "p {:e}, raw {:#x}", p, raw);
            for edge in boundary_raws(p) {
                prop_assert_eq!(coin.hits(edge), float_coin(edge, p), "p {:e}, raw {:#x}", p, edge);
            }
        }
        // On a live stream, too.
        let rng = CounterRng::new(raw);
        prop_assert_eq!(Coin::new(unit).hits(rng.at(0)), rng.uniform_at(0) < unit);
    }
}
