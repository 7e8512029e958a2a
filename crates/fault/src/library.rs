//! A catalog of named fault profiles reproducing the paper's case studies.
//!
//! §2 lists "some specific examples where we have seen CEE"; each function
//! here builds a [`CoreFaultProfile`] with that example's observable
//! behavior. The fleet sampler mixes these archetypes (with randomized
//! parameters) when seeding mercurial cores into a simulated population.

use crate::activation::{Activation, AgingModel, DataPattern, FreqResponse};
use crate::lesion::{Lesion, LockFailureMode};
use crate::profile::{CoreFaultProfile, FaultLesion};
use crate::rng::CounterRng;
use crate::unit::FunctionalUnit;

/// §2: "A deterministic AES mis-computation, which was 'self-inverting':
/// encrypting and decrypting on the same core yielded the identity function,
/// but decryption elsewhere yielded gibberish."
///
/// The lesion XORs a fixed mask into one round of the crypto unit's data
/// path, identically for the encrypt and decrypt directions, so the two
/// passes cancel on the defective core only. Activation is `always`: the
/// paper calls this case *deterministic*.
pub fn self_inverting_aes() -> CoreFaultProfile {
    CoreFaultProfile::single(
        "self-inverting-aes",
        FunctionalUnit::CryptoUnit,
        Lesion::RoundXor {
            mask_hi: 0x0000_0400_0000_0000,
            mask_lo: 0x0000_0000_0002_0000,
        },
        Activation::always(),
    )
}

/// §2: "Repeated bit-flips in strings, at a particular bit position (which
/// stuck out as unlikely to be coding bugs)."
///
/// A stuck-at defect in the vector pipe (string/copy operations execute
/// there), firing intermittently.
pub fn string_bitflip(bit: u8, rate: f64) -> CoreFaultProfile {
    CoreFaultProfile::single(
        "string-bitflip",
        FunctionalUnit::VectorPipe,
        Lesion::StuckBit {
            bit: bit & 63,
            value: true,
        },
        Activation::with_prob(rate),
    )
}

/// §2: "Violations of lock semantics leading to application data corruption
/// and crashes."
pub fn lock_violator(rate: f64) -> CoreFaultProfile {
    CoreFaultProfile::single(
        "lock-violator",
        FunctionalUnit::Atomics,
        Lesion::LockViolation {
            mode: LockFailureMode::PhantomSuccess,
        },
        Activation::with_prob(rate),
    )
}

/// §5: "the same mercurial core manifests CEEs both with certain data-copy
/// operations and with certain vector operations … both kinds of operations
/// share the same hardware logic."
///
/// A single vector-pipe profile with two lesions: a copy-corruption lesion
/// and a lane corruption for explicit vector ops. Because the simulated ISA
/// routes both instruction families through the vector pipe, one physical
/// defect disrupts both — and a "small code change" that switches a library
/// from scalar to vector copies suddenly exposes it.
pub fn vector_copy_coupled(rate: f64) -> CoreFaultProfile {
    CoreFaultProfile::new(
        "vector-copy-coupled",
        vec![
            FaultLesion {
                unit: FunctionalUnit::VectorPipe,
                lesion: Lesion::CorruptCopy {
                    stride: 8,
                    offset: 3,
                    mask: 0x0000_0000_0100_0000,
                },
                activation: Activation::with_prob(rate),
            },
            FaultLesion {
                unit: FunctionalUnit::VectorPipe,
                lesion: Lesion::FlipBit { bit: 24 },
                activation: Activation::with_prob(rate),
            },
        ],
    )
}

/// §5: a strongly frequency-sensitive defect — fails under turbo.
pub fn freq_sensitive_fma(rate_at_turbo: f64) -> CoreFaultProfile {
    CoreFaultProfile::single(
        "freq-sensitive-fma",
        FunctionalUnit::Fma,
        Lesion::CorruptValue,
        Activation {
            base_prob: rate_at_turbo / 100.0,
            freq: FreqResponse::HighFreq {
                knee_mhz: 2600,
                sat_mhz: 3200,
                max_boost: 100.0,
            },
            ..Activation::always()
        },
    )
}

/// §5: the surprising case — *lower* frequency increases the failure rate,
/// because DVFS drops voltage along with frequency.
pub fn low_freq_worse_alu(rate_at_floor: f64) -> CoreFaultProfile {
    CoreFaultProfile::single(
        "low-freq-worse-alu",
        FunctionalUnit::ScalarAlu,
        Lesion::FlipBit { bit: 13 },
        Activation {
            base_prob: rate_at_floor / 50.0,
            freq: FreqResponse::LowFreq {
                knee_mhz: 2200,
                floor_mhz: 1200,
                max_boost: 50.0,
            },
            ..Activation::always()
        },
    )
}

/// §2/§6: a defect that stays latent until well into the core's service
/// life, then degrades — the reason "testing becomes part of the full
/// lifecycle of a CPU".
pub fn late_onset_muldiv(onset_hours: f64, rate: f64) -> CoreFaultProfile {
    CoreFaultProfile::single(
        "late-onset-muldiv",
        FunctionalUnit::MulDiv,
        Lesion::XorMask { mask: 0x8000_0000 },
        Activation {
            base_prob: rate,
            aging: AgingModel {
                onset_hours,
                growth_per_year: 3.0,
            },
            ..Activation::always()
        },
    )
}

/// §2: data-pattern-dependent corruption — fires only on high-toggle
/// operands (a voltage-droop-like trigger).
pub fn data_pattern_vector(rate: f64) -> CoreFaultProfile {
    CoreFaultProfile::single(
        "data-pattern-vector",
        FunctionalUnit::VectorPipe,
        Lesion::FlipBit { bit: 51 },
        Activation {
            base_prob: rate,
            pattern: DataPattern::PopcountAtLeast(40),
            ..Activation::always()
        },
    )
}

/// §2: "Corruption of kernel state resulting in process and kernel crashes"
/// — a control-path defect in address generation that mostly produces loud
/// failures (segfaults, machine checks) rather than silent corruption.
pub fn addressgen_crasher(rate: f64) -> CoreFaultProfile {
    CoreFaultProfile::single(
        "addressgen-crasher",
        FunctionalUnit::AddressGen,
        Lesion::FlipBit { bit: 33 },
        Activation::with_prob(rate),
    )
}

/// §2: "Data corruptions exhibited by various load, store … operations."
pub fn loadstore_corruptor(rate: f64) -> CoreFaultProfile {
    CoreFaultProfile::single(
        "loadstore-corruptor",
        FunctionalUnit::LoadStore,
        Lesion::CorruptValue,
        Activation::with_prob(rate),
    )
}

/// The archetype identifiers in the catalog, for samplers and reports.
pub const ARCHETYPES: [&str; 10] = [
    "self-inverting-aes",
    "string-bitflip",
    "lock-violator",
    "vector-copy-coupled",
    "freq-sensitive-fma",
    "low-freq-worse-alu",
    "late-onset-muldiv",
    "data-pattern-vector",
    "addressgen-crasher",
    "loadstore-corruptor",
];

/// Samples a randomized mercurial-core profile.
///
/// Draws an archetype and then randomizes its key parameters: the
/// per-operation rate is **log-uniform over six decades** (1e-9 .. 1e-3),
/// reproducing §2's "corruption rates vary by many orders of magnitude …
/// across defective cores"; onset ages for latent defects are spread over
/// the first four years of service.
pub fn sample_profile(seed: u64, draw_id: u64) -> CoreFaultProfile {
    let mut rng = CounterRng::from_parts(seed, draw_id, 0x9e37, 0);
    let rate = 10f64.powf(-9.0 + 6.0 * rng.next_uniform());
    let archetype = ARCHETYPES[rng.next_below(ARCHETYPES.len() as u64) as usize];
    let mut profile = match archetype {
        "self-inverting-aes" => {
            // Randomize the round mask so distinct cores have distinct
            // signatures; keep it deterministic (always fires) as in §2.
            let hi = rng.next_u64();
            let lo = rng.next_u64();
            CoreFaultProfile::single(
                "self-inverting-aes",
                FunctionalUnit::CryptoUnit,
                Lesion::RoundXor {
                    mask_hi: hi,
                    mask_lo: lo | 1,
                },
                Activation::always(),
            )
        }
        "string-bitflip" => string_bitflip(rng.next_below(64) as u8, rate),
        "lock-violator" => lock_violator(rate),
        "vector-copy-coupled" => vector_copy_coupled(rate),
        "freq-sensitive-fma" => freq_sensitive_fma((rate * 100.0).min(1.0)),
        "low-freq-worse-alu" => low_freq_worse_alu((rate * 50.0).min(1.0)),
        "late-onset-muldiv" => {
            let onset = rng.next_uniform() * 4.0 * 365.25 * 24.0;
            late_onset_muldiv(onset, rate)
        }
        "data-pattern-vector" => data_pattern_vector(rate),
        "addressgen-crasher" => addressgen_crasher(rate),
        "loadstore-corruptor" => loadstore_corruptor(rate),
        _ => unreachable!("archetype list and match arms agree"),
    };
    // A minority of sampled defects are additionally latent even when the
    // archetype itself is not aging-specific (§6: "some cores only become
    // defective after considerable time has passed").
    if profile.name != "late-onset-muldiv" && rng.next_bool(0.25) {
        let onset = rng.next_uniform() * 3.0 * 365.25 * 24.0;
        for l in &mut profile.lesions {
            l.activation.aging = AgingModel {
                onset_hours: onset,
                growth_per_year: 2.0,
            };
        }
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_covers_every_paper_case() {
        // One profile per §2/§5 case study, each touching the right unit.
        assert!(self_inverting_aes().afflicts(FunctionalUnit::CryptoUnit));
        assert!(string_bitflip(7, 0.01).afflicts(FunctionalUnit::VectorPipe));
        assert!(lock_violator(0.01).afflicts(FunctionalUnit::Atomics));
        assert!(vector_copy_coupled(0.01).afflicts(FunctionalUnit::VectorPipe));
        assert!(freq_sensitive_fma(0.5).afflicts(FunctionalUnit::Fma));
        assert!(low_freq_worse_alu(0.5).afflicts(FunctionalUnit::ScalarAlu));
        assert!(late_onset_muldiv(100.0, 0.1).afflicts(FunctionalUnit::MulDiv));
        assert!(data_pattern_vector(0.1).afflicts(FunctionalUnit::VectorPipe));
        assert!(addressgen_crasher(0.1).afflicts(FunctionalUnit::AddressGen));
        assert!(loadstore_corruptor(0.1).afflicts(FunctionalUnit::LoadStore));
    }

    #[test]
    fn self_inverting_profile_is_deterministic_and_self_inverting() {
        let p = self_inverting_aes();
        assert_eq!(p.lesions.len(), 1);
        assert!(p.lesions[0].lesion.is_self_inverting());
        assert_eq!(p.lesions[0].activation.base_prob, 1.0);
    }

    #[test]
    fn sampler_is_deterministic() {
        for id in 0..20 {
            assert_eq!(sample_profile(99, id), sample_profile(99, id));
        }
        assert_ne!(sample_profile(99, 0), sample_profile(100, 0));
    }

    #[test]
    fn sampler_spans_orders_of_magnitude() {
        // §2: "corruption rates vary by many orders of magnitude".
        let mut min_rate = f64::INFINITY;
        let mut max_rate = 0.0f64;
        for id in 0..500 {
            let p = sample_profile(7, id);
            for l in &p.lesions {
                if l.activation.base_prob < 1.0 {
                    min_rate = min_rate.min(l.activation.base_prob);
                    max_rate = max_rate.max(l.activation.base_prob);
                }
            }
        }
        assert!(
            max_rate / min_rate > 1e3,
            "spread was only {:.1e}x",
            max_rate / min_rate
        );
    }

    #[test]
    fn sampler_hits_every_archetype() {
        let mut seen = std::collections::HashSet::new();
        for id in 0..400 {
            seen.insert(sample_profile(3, id).name.clone());
        }
        for a in ARCHETYPES {
            assert!(seen.contains(a), "archetype {a} never sampled");
        }
    }

    #[test]
    fn some_sampled_profiles_are_latent() {
        let mut latent = 0;
        for id in 0..300 {
            if sample_profile(5, id).is_latent(0.0) {
                latent += 1;
            }
        }
        // Roughly 25% latency plus the late-onset archetype.
        assert!(latent > 30, "only {latent} latent profiles out of 300");
    }
}
