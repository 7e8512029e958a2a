//! Activation: when a lesion fires.
//!
//! The paper is emphatic that CEE rates are not constants: "Corruption rates
//! vary by many orders of magnitude … across defective cores, and for any
//! given core can be highly dependent on workload and on f, V, T" (§2);
//! failures "mostly appear non-deterministically at variable rate", cores
//! "often get worse with time", "we have some evidence that aging is a
//! factor" (§2), and defects can stay latent — "some cores only become
//! defective after considerable time has passed" (§6). [`Activation`]
//! captures all of these as a per-operation firing probability modulated by
//! operating point, data pattern, and age.

use crate::oppoint::OperatingPoint;
use serde::{Deserialize, Serialize};

/// How the firing probability responds to clock frequency.
///
/// §5: "some mercurial core CEE rates are strongly frequency-sensitive,
/// some aren't", and "lower frequency sometimes (surprisingly) increases the
/// failure rate".
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FreqResponse {
    /// No frequency dependence.
    Insensitive,
    /// Fails more as frequency rises above a knee (classic timing-margin
    /// defect): multiplier grows linearly from 0 at `knee_mhz` to
    /// `max_boost` at `sat_mhz`.
    HighFreq {
        /// Frequency at which the defect starts to matter.
        knee_mhz: u32,
        /// Frequency at which the boost saturates.
        sat_mhz: u32,
        /// Multiplier at saturation (>= 1).
        max_boost: f64,
    },
    /// Fails more as frequency *drops* below a knee — the paper's surprising
    /// case, arising because DVFS lowers voltage along with frequency and
    /// some defects are voltage-margin limited.
    LowFreq {
        /// Frequency below which the defect worsens.
        knee_mhz: u32,
        /// Frequency at which the boost saturates.
        floor_mhz: u32,
        /// Multiplier at the floor (>= 1).
        max_boost: f64,
    },
    /// Fails only inside a frequency band (resonance-like behavior).
    Band {
        /// Lower band edge.
        lo_mhz: u32,
        /// Upper band edge.
        hi_mhz: u32,
        /// Multiplier inside the band.
        boost: f64,
    },
}

impl FreqResponse {
    /// The rate multiplier at a given frequency. Always >= 0; equals 1.0 in
    /// the defect's comfortable region.
    pub fn multiplier(&self, freq_mhz: u32) -> f64 {
        match *self {
            FreqResponse::Insensitive => 1.0,
            FreqResponse::HighFreq {
                knee_mhz,
                sat_mhz,
                max_boost,
            } => {
                if freq_mhz <= knee_mhz {
                    1.0
                } else if freq_mhz >= sat_mhz {
                    max_boost
                } else {
                    let t = (freq_mhz - knee_mhz) as f64 / (sat_mhz - knee_mhz).max(1) as f64;
                    1.0 + t * (max_boost - 1.0)
                }
            }
            FreqResponse::LowFreq {
                knee_mhz,
                floor_mhz,
                max_boost,
            } => {
                if freq_mhz >= knee_mhz {
                    1.0
                } else if freq_mhz <= floor_mhz {
                    max_boost
                } else {
                    let t = (knee_mhz - freq_mhz) as f64 / (knee_mhz - floor_mhz).max(1) as f64;
                    1.0 + t * (max_boost - 1.0)
                }
            }
            FreqResponse::Band {
                lo_mhz,
                hi_mhz,
                boost,
            } => {
                if (lo_mhz..=hi_mhz).contains(&freq_mhz) {
                    boost
                } else {
                    1.0
                }
            }
        }
    }
}

/// Operand-data predicates gating activation (§2: "data patterns can affect
/// corruption rates, but it's often hard for us to tell").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DataPattern {
    /// Fires regardless of operand data.
    Any,
    /// Fires only when the operand's popcount is at least the threshold
    /// (heavily switching datapaths draw more current — a classic
    /// voltage-droop trigger).
    PopcountAtLeast(u32),
    /// Fires only when the masked operand bits equal the given value.
    MaskedEquals {
        /// The bits that matter.
        mask: u64,
        /// Their required value.
        value: u64,
    },
    /// Fires only when adjacent bytes of the operand differ everywhere
    /// (maximal toggling between byte lanes).
    AllBytesDistinctFromNeighbors,
}

impl DataPattern {
    /// Whether the operand satisfies the pattern.
    pub fn matches(&self, operand: u64) -> bool {
        match *self {
            DataPattern::Any => true,
            DataPattern::PopcountAtLeast(k) => operand.count_ones() >= k,
            DataPattern::MaskedEquals { mask, value } => operand & mask == value & mask,
            DataPattern::AllBytesDistinctFromNeighbors => {
                let b = operand.to_le_bytes();
                b.windows(2).all(|w| w[0] != w[1])
            }
        }
    }
}

/// Aging behavior: latent onset and progressive degradation.
///
/// §2: mercurial cores "can manifest long after initial installation" and
/// "often get worse with time". §4 makes *age until onset* one of the
/// candidate metrics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AgingModel {
    /// Core age (hours of service) before the defect can fire at all.
    /// Zero means the defect is present from manufacturing.
    pub onset_hours: f64,
    /// Per-year multiplicative growth of the firing rate after onset
    /// (1.0 = stable; 2.0 = doubles every year of service).
    pub growth_per_year: f64,
}

impl AgingModel {
    /// A defect present and stable from day one.
    pub const FROM_BIRTH: AgingModel = AgingModel {
        onset_hours: 0.0,
        growth_per_year: 1.0,
    };

    /// Rate multiplier at a given age; zero before onset.
    pub fn multiplier(&self, age_hours: f64) -> f64 {
        if age_hours < self.onset_hours {
            return 0.0;
        }
        let years_past_onset = (age_hours - self.onset_hours) / (365.25 * 24.0);
        self.growth_per_year.max(0.0).powf(years_past_onset)
    }

    /// Whether the defect has manifested at the given age.
    pub fn is_active(&self, age_hours: f64) -> bool {
        age_hours >= self.onset_hours
    }
}

/// The full activation model for one lesion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Activation {
    /// Baseline per-operation firing probability at nominal conditions.
    pub base_prob: f64,
    /// Frequency response of the firing rate.
    pub freq: FreqResponse,
    /// Voltage below which the rate is boosted by `low_voltage_boost`.
    pub low_voltage_knee_mv: u32,
    /// Multiplier applied below the voltage knee.
    pub low_voltage_boost: f64,
    /// Temperature above which the rate is boosted by `high_temp_boost`.
    pub high_temp_knee_c: i32,
    /// Multiplier applied above the temperature knee.
    pub high_temp_boost: f64,
    /// Operand-data gate.
    pub pattern: DataPattern,
    /// Aging behavior.
    pub aging: AgingModel,
}

impl Activation {
    /// A defect that fires on every matching operation from day one —
    /// useful for the deterministic case studies (§2: "in just a few cases,
    /// we can reproduce the errors deterministically").
    pub fn always() -> Activation {
        Activation {
            base_prob: 1.0,
            freq: FreqResponse::Insensitive,
            low_voltage_knee_mv: 0,
            low_voltage_boost: 1.0,
            high_temp_knee_c: i32::MAX,
            high_temp_boost: 1.0,
            pattern: DataPattern::Any,
            aging: AgingModel::FROM_BIRTH,
        }
    }

    /// An unconditional defect firing with the given probability.
    pub fn with_prob(p: f64) -> Activation {
        Activation {
            base_prob: p,
            ..Activation::always()
        }
    }

    /// The effective firing probability for one operation.
    ///
    /// Combines the baseline with the (f, V, T) multipliers and the aging
    /// multiplier, clamped to `[0, 1]`; returns 0 when the data pattern does
    /// not match.
    pub fn probability(&self, point: OperatingPoint, operand: u64, age_hours: f64) -> f64 {
        if !self.pattern.matches(operand) {
            return 0.0;
        }
        let mut p = self.base_prob * self.freq.multiplier(point.freq_mhz);
        if point.voltage_mv < self.low_voltage_knee_mv {
            p *= self.low_voltage_boost;
        }
        if point.temp_c > self.high_temp_knee_c {
            p *= self.high_temp_boost;
        }
        p *= self.aging.multiplier(age_hours);
        p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NOM: OperatingPoint = OperatingPoint::NOMINAL;

    #[test]
    fn always_fires_unconditionally() {
        let a = Activation::always();
        assert_eq!(a.probability(NOM, 0xdead, 0.0), 1.0);
        assert_eq!(a.probability(NOM, 0, 1e6), 1.0);
    }

    #[test]
    fn high_freq_response_monotone_up() {
        let f = FreqResponse::HighFreq {
            knee_mhz: 2000,
            sat_mhz: 3000,
            max_boost: 100.0,
        };
        assert_eq!(f.multiplier(1500), 1.0);
        assert_eq!(f.multiplier(2000), 1.0);
        let mid = f.multiplier(2500);
        assert!(mid > 1.0 && mid < 100.0);
        assert_eq!(f.multiplier(3000), 100.0);
        assert_eq!(f.multiplier(4000), 100.0);
    }

    #[test]
    fn low_freq_response_is_the_surprising_one() {
        // Paper §5: "lower frequency sometimes (surprisingly) increases the
        // failure rate."
        let f = FreqResponse::LowFreq {
            knee_mhz: 2200,
            floor_mhz: 1200,
            max_boost: 50.0,
        };
        assert!(f.multiplier(1200) > f.multiplier(2600));
        assert_eq!(f.multiplier(2600), 1.0);
        assert_eq!(f.multiplier(1000), 50.0);
    }

    #[test]
    fn band_response() {
        let f = FreqResponse::Band {
            lo_mhz: 1800,
            hi_mhz: 2200,
            boost: 7.0,
        };
        assert_eq!(f.multiplier(2000), 7.0);
        assert_eq!(f.multiplier(1799), 1.0);
        assert_eq!(f.multiplier(2201), 1.0);
    }

    #[test]
    fn data_patterns() {
        assert!(DataPattern::Any.matches(0));
        assert!(DataPattern::PopcountAtLeast(4).matches(0b1111));
        assert!(!DataPattern::PopcountAtLeast(5).matches(0b1111));
        let m = DataPattern::MaskedEquals {
            mask: 0xff,
            value: 0xab,
        };
        assert!(m.matches(0x1234_56ab));
        assert!(!m.matches(0x1234_56ac));
        assert!(DataPattern::AllBytesDistinctFromNeighbors.matches(0x0102_0304_0506_0708));
        assert!(!DataPattern::AllBytesDistinctFromNeighbors.matches(0x0101_0304_0506_0708));
    }

    #[test]
    fn aging_latent_then_grows() {
        let a = AgingModel {
            onset_hours: 1000.0,
            growth_per_year: 2.0,
        };
        assert_eq!(a.multiplier(999.0), 0.0);
        assert!(!a.is_active(999.0));
        assert!(a.is_active(1000.0));
        assert!((a.multiplier(1000.0) - 1.0).abs() < 1e-12);
        let one_year = 1000.0 + 365.25 * 24.0;
        assert!((a.multiplier(one_year) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn probability_combines_factors() {
        let a = Activation {
            base_prob: 0.001,
            freq: FreqResponse::HighFreq {
                knee_mhz: 2000,
                sat_mhz: 3000,
                max_boost: 10.0,
            },
            low_voltage_knee_mv: 800,
            low_voltage_boost: 5.0,
            high_temp_knee_c: 80,
            high_temp_boost: 3.0,
            pattern: DataPattern::Any,
            aging: AgingModel::FROM_BIRTH,
        };
        // Nominal: frequency 2600 gives a partial boost.
        let p_nom = a.probability(NOM, 0, 0.0);
        assert!(p_nom > 0.001 && p_nom < 0.01);
        // Hot, starved, fast: all boosts compound.
        let p_worst = a.probability(OperatingPoint::new(3200, 750, 95), 0, 0.0);
        assert!((p_worst - 0.001 * 10.0 * 5.0 * 3.0).abs() < 1e-9);
        // Clamped to 1.
        let a1 = Activation {
            base_prob: 0.5,
            ..a
        };
        assert_eq!(
            a1.probability(OperatingPoint::new(3200, 750, 95), 0, 0.0),
            1.0
        );
    }

    #[test]
    fn probability_zero_when_pattern_misses() {
        let a = Activation {
            pattern: DataPattern::PopcountAtLeast(60),
            ..Activation::always()
        };
        assert_eq!(a.probability(NOM, 0b1010, 0.0), 0.0);
        assert_eq!(a.probability(NOM, u64::MAX, 0.0), 1.0);
    }

    #[test]
    fn zero_growth_never_returns_from_zero() {
        // With growth 0 the multiplier is 1 exactly at onset and 0
        // strictly after: onset is its only zero-to-non-zero edge.
        let a = AgingModel {
            onset_hours: 100.0,
            growth_per_year: 0.0,
        };
        assert_eq!(a.multiplier(99.0), 0.0);
        assert_eq!(a.multiplier(100.0), 1.0);
        assert_eq!(a.multiplier(100.1), 0.0);
        assert_eq!(a.multiplier(1e6), 0.0);
    }

    #[test]
    fn probability_zero_before_onset() {
        let a = Activation {
            aging: AgingModel {
                onset_hours: 500.0,
                growth_per_year: 1.0,
            },
            ..Activation::always()
        };
        assert_eq!(a.probability(NOM, 0, 100.0), 0.0);
        assert_eq!(a.probability(NOM, 0, 501.0), 1.0);
    }
}
