//! Core fault profiles: the complete defect description of one core.
//!
//! §1: CEEs "typically afflict specific cores on multi-core CPUs, rather
//! than the entire chip". A [`CoreFaultProfile`] is therefore attached to a
//! single [`CoreUid`]; healthy cores simply have no profile.

use crate::activation::Activation;
use crate::lesion::Lesion;
use crate::unit::FunctionalUnit;
use serde::{Deserialize, Serialize};

/// A fleet-unique core identifier: `(machine, socket, core-on-socket)`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct CoreUid {
    /// Machine index within the fleet.
    pub machine: u32,
    /// Socket index within the machine.
    pub socket: u8,
    /// Core index within the socket.
    pub core: u16,
}

impl CoreUid {
    /// Creates a core identifier.
    pub fn new(machine: u32, socket: u8, core: u16) -> CoreUid {
        CoreUid {
            machine,
            socket,
            core,
        }
    }

    /// A stable 64-bit encoding, used to key deterministic random streams.
    pub fn as_u64(self) -> u64 {
        ((self.machine as u64) << 32) | ((self.socket as u64) << 16) | self.core as u64
    }

    /// Inverse of [`CoreUid::as_u64`].
    pub fn from_u64(v: u64) -> CoreUid {
        CoreUid {
            machine: (v >> 32) as u32,
            socket: ((v >> 16) & 0xff) as u8,
            core: (v & 0xffff) as u16,
        }
    }
}

impl std::fmt::Display for CoreUid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}s{}c{}", self.machine, self.socket, self.core)
    }
}

/// One defect: a lesion on a unit with an activation model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultLesion {
    /// The afflicted functional unit.
    pub unit: FunctionalUnit,
    /// What the unit does when the defect fires.
    pub lesion: Lesion,
    /// When the defect fires.
    pub activation: Activation,
}

/// The complete fault description of one mercurial core.
///
/// Most mercurial cores have a single lesion; the §5 shared-hardware cases
/// naturally appear as a single [`FaultLesion`] on
/// [`FunctionalUnit::VectorPipe`] (which also serves copies), but profiles
/// with several independent lesions are supported because the paper reports
/// cores exhibiting "both wrong results and exceptions".
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreFaultProfile {
    /// A human-readable name for the defect (from the [`crate::library`]
    /// catalog, or synthesized by the fleet sampler).
    pub name: String,
    /// The individual defects.
    pub lesions: Vec<FaultLesion>,
}

impl CoreFaultProfile {
    /// Creates a profile from its parts.
    pub fn new(name: impl Into<String>, lesions: Vec<FaultLesion>) -> CoreFaultProfile {
        CoreFaultProfile {
            name: name.into(),
            lesions,
        }
    }

    /// A profile with one lesion.
    pub fn single(
        name: impl Into<String>,
        unit: FunctionalUnit,
        lesion: Lesion,
        activation: Activation,
    ) -> CoreFaultProfile {
        CoreFaultProfile::new(
            name,
            vec![FaultLesion {
                unit,
                lesion,
                activation,
            }],
        )
    }

    /// The lesions afflicting a given unit.
    pub fn lesions_on(&self, unit: FunctionalUnit) -> impl Iterator<Item = &FaultLesion> {
        self.lesions.iter().filter(move |l| l.unit == unit)
    }

    /// Whether any lesion afflicts the given unit.
    pub fn afflicts(&self, unit: FunctionalUnit) -> bool {
        self.lesions.iter().any(|l| l.unit == unit)
    }

    /// The set of afflicted units (deduplicated, stable order).
    pub fn afflicted_units(&self) -> Vec<FunctionalUnit> {
        let mut units: Vec<FunctionalUnit> = self.lesions.iter().map(|l| l.unit).collect();
        units.sort_unstable();
        units.dedup();
        units
    }

    /// Whether the whole profile is still latent (no lesion has reached its
    /// onset age).
    pub fn is_latent(&self, age_hours: f64) -> bool {
        self.lesions
            .iter()
            .all(|l| !l.activation.aging.is_active(age_hours))
    }

    /// The earliest onset age over all lesions, in hours.
    pub fn earliest_onset_hours(&self) -> f64 {
        self.lesions
            .iter()
            .map(|l| l.activation.aging.onset_hours)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::AgingModel;

    fn lesion(unit: FunctionalUnit, onset: f64) -> FaultLesion {
        FaultLesion {
            unit,
            lesion: Lesion::FlipBit { bit: 5 },
            activation: Activation {
                aging: AgingModel {
                    onset_hours: onset,
                    growth_per_year: 1.0,
                },
                ..Activation::always()
            },
        }
    }

    #[test]
    fn core_uid_u64_roundtrip() {
        let uid = CoreUid::new(123_456, 3, 77);
        assert_eq!(CoreUid::from_u64(uid.as_u64()), uid);
    }

    #[test]
    fn core_uid_u64_is_injective_on_components() {
        let a = CoreUid::new(1, 0, 0).as_u64();
        let b = CoreUid::new(0, 1, 0).as_u64();
        let c = CoreUid::new(0, 0, 1).as_u64();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
    }

    #[test]
    fn display_format() {
        assert_eq!(CoreUid::new(9, 1, 30).to_string(), "m9s1c30");
    }

    #[test]
    fn afflicted_units_dedup() {
        let p = CoreFaultProfile::new(
            "multi",
            vec![
                lesion(FunctionalUnit::VectorPipe, 0.0),
                lesion(FunctionalUnit::VectorPipe, 0.0),
                lesion(FunctionalUnit::ScalarAlu, 0.0),
            ],
        );
        assert_eq!(
            p.afflicted_units(),
            vec![FunctionalUnit::ScalarAlu, FunctionalUnit::VectorPipe]
        );
        assert!(p.afflicts(FunctionalUnit::VectorPipe));
        assert!(!p.afflicts(FunctionalUnit::Fma));
    }

    #[test]
    fn latency_and_onset() {
        let p = CoreFaultProfile::new(
            "latent",
            vec![
                lesion(FunctionalUnit::Fma, 2000.0),
                lesion(FunctionalUnit::MulDiv, 500.0),
            ],
        );
        assert!(p.is_latent(100.0));
        assert!(!p.is_latent(600.0));
        assert_eq!(p.earliest_onset_hours(), 500.0);
    }

    #[test]
    fn lesions_on_filters() {
        let p = CoreFaultProfile::new(
            "x",
            vec![
                lesion(FunctionalUnit::Fma, 0.0),
                lesion(FunctionalUnit::MulDiv, 0.0),
            ],
        );
        assert_eq!(p.lesions_on(FunctionalUnit::Fma).count(), 1);
        assert_eq!(p.lesions_on(FunctionalUnit::CryptoUnit).count(), 0);
    }
}
