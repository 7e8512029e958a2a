//! Human triage: turning suspects into confessions.
//!
//! §6: "The humans running our production services identify a lot of
//! suspect cores, in the course of incident triage, debugging, and so
//! forth. In our recent experience, roughly half of these human-identified
//! suspects are actually proven, on deeper investigation, to be mercurial
//! cores — we must extract 'confessions' via further testing (often after
//! first developing a new automatable test). The other half is a mix of
//! false accusations and limited reproducibility."
//!
//! [`HumanTriage`] models that pipeline: a suspect goes through a deep,
//! sweep-everything investigation with a large op budget; a real defect
//! confesses with high (but not certain — "limited reproducibility")
//! probability, and an innocent core is exonerated.

use crate::screeners::{DetectionMethod, DetectionRecord};
use mercurial_fault::{CoreUid, FunctionalUnit};
use mercurial_fleet::population::TestSpec;
use mercurial_fleet::{FleetTopology, Population};
use serde::{Deserialize, Serialize};

/// Outcome of investigating one suspect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TriageOutcome {
    /// Deep testing reproduced the defect: a confession.
    Confirmed,
    /// Testing could not reproduce anything (either a false accusation or
    /// a defect below the investigation's sensitivity floor).
    NotReproduced,
}

/// Aggregate triage statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TriageStats {
    /// Suspects investigated.
    pub investigated: u64,
    /// Confessions extracted.
    pub confirmed: u64,
    /// Investigations that found nothing.
    pub not_reproduced: u64,
    /// Of the confirmed, how many were genuinely mercurial (ground truth).
    pub confirmed_true: u64,
    /// Of the not-reproduced, how many were genuinely mercurial (missed!).
    pub missed_true: u64,
}

impl TriageStats {
    /// The fraction of investigated suspects that confessed — the paper's
    /// "roughly half".
    pub fn confirmation_rate(&self) -> f64 {
        if self.investigated == 0 {
            0.0
        } else {
            self.confirmed as f64 / self.investigated as f64
        }
    }
}

/// The human investigation pipeline.
#[derive(Debug, Clone)]
pub struct HumanTriage {
    /// Test operations per unit in a deep investigation (humans write new
    /// tests until something gives — this is a big budget).
    pub deep_ops_per_unit: u64,
    /// Independent investigation sessions before giving up.
    pub sessions: u32,
}

impl Default for HumanTriage {
    fn default() -> HumanTriage {
        HumanTriage {
            deep_ops_per_unit: 5_000_000,
            sessions: 3,
        }
    }
}

impl HumanTriage {
    /// Investigates one suspect at fleet time `hour`.
    ///
    /// The investigation sweeps every unit at several operating points
    /// with the full operand bank, `sessions` times over. A healthy core
    /// can never confess (screens are exact); a defective one confesses
    /// unless its rate is below the sensitivity floor — the paper's
    /// "limited reproducibility".
    pub fn investigate(
        &self,
        topo: &FleetTopology,
        pop: &Population,
        core: CoreUid,
        hour: f64,
        case_id: u64,
    ) -> TriageOutcome {
        let age = topo.age_hours(core.machine, hour);
        let curve = &topo.product_of(core.machine).dvfs;
        let points = [
            curve.max_point(65),
            curve.min_point(65),
            curve.max_point(92),
        ];
        for session in 0..self.sessions {
            for (pi, &point) in points.iter().enumerate() {
                let spec = TestSpec {
                    unit_ops: [self.deep_ops_per_unit; 9],
                    operands: TestSpec::default_operands(),
                    point,
                };
                let test_id = case_id
                    .wrapping_mul(31)
                    .wrapping_add(session as u64 * 7 + pi as u64)
                    ^ 0x7472_6961;
                if pop.screen_core(core, &spec, age, test_id) {
                    return TriageOutcome::Confirmed;
                }
            }
        }
        TriageOutcome::NotReproduced
    }

    /// Investigates a batch of suspects, scoring against ground truth.
    ///
    /// Returns detection records for the confirmed cores plus statistics.
    pub fn investigate_all(
        &self,
        topo: &FleetTopology,
        pop: &Population,
        suspects: &[(CoreUid, f64)],
    ) -> (Vec<DetectionRecord>, TriageStats) {
        let mut stats = TriageStats::default();
        let mut records = Vec::new();
        for (i, &(core, hour)) in suspects.iter().enumerate() {
            stats.investigated += 1;
            match self.investigate(topo, pop, core, hour, i as u64) {
                TriageOutcome::Confirmed => {
                    stats.confirmed += 1;
                    if pop.is_mercurial(core) {
                        stats.confirmed_true += 1;
                    }
                    records.push(DetectionRecord {
                        core,
                        hour,
                        method: DetectionMethod::Triage,
                    });
                }
                TriageOutcome::NotReproduced => {
                    stats.not_reproduced += 1;
                    if pop.is_mercurial(core) {
                        stats.missed_true += 1;
                    }
                }
            }
        }
        (records, stats)
    }

    /// The smallest per-op rate an investigation can reproduce with ~95%
    /// probability (its sensitivity floor).
    pub fn sensitivity_floor(&self) -> f64 {
        let total_ops = self.deep_ops_per_unit as f64 * 9.0 * 3.0 * self.sessions as f64;
        -((1.0 - 0.95f64).ln()) / total_ops
    }
}

/// Confirms unit coverage constants stay in sync with the fault model.
const _: () = assert!(FunctionalUnit::ALL.len() == 9);

#[cfg(test)]
mod tests {
    use super::*;
    use mercurial_fault::{library, Activation, CoreFaultProfile, Lesion};
    use mercurial_fleet::topology::FleetConfig;

    fn topo(seed: u64) -> FleetTopology {
        FleetTopology::build(FleetConfig::tiny(50, seed))
    }

    #[test]
    fn innocent_cores_never_confess() {
        let topo = topo(41);
        let pop = Population::with_explicit(41, vec![]);
        let triage = HumanTriage::default();
        for i in 0..20 {
            let outcome = triage.investigate(&topo, &pop, CoreUid::new(i, 0, 0), 100.0, i as u64);
            assert_eq!(outcome, TriageOutcome::NotReproduced);
        }
    }

    #[test]
    fn hot_defects_confess() {
        let topo = topo(42);
        let bad = CoreUid::new(5, 0, 1);
        let pop = Population::with_explicit(42, vec![(bad, library::string_bitflip(7, 1e-4))]);
        let triage = HumanTriage::default();
        assert_eq!(
            triage.investigate(&topo, &pop, bad, 100.0, 0),
            TriageOutcome::Confirmed
        );
    }

    #[test]
    fn ultra_rare_defects_have_limited_reproducibility() {
        let topo = topo(43);
        let bad = CoreUid::new(5, 0, 1);
        let profile = CoreFaultProfile::single(
            "ghost",
            FunctionalUnit::ScalarAlu,
            Lesion::FlipBit { bit: 2 },
            Activation::with_prob(1e-12),
        );
        let pop = Population::with_explicit(43, vec![(bad, profile)]);
        let triage = HumanTriage::default();
        let confessions = (0..20)
            .filter(|&c| triage.investigate(&topo, &pop, bad, 100.0, c) == TriageOutcome::Confirmed)
            .count();
        assert!(confessions < 5, "a 1e-12 defect should rarely reproduce");
    }

    #[test]
    fn mixed_suspect_batch_yields_partial_confirmation() {
        // Half real suspects, half false accusations → confirmation rate
        // lands near the real fraction (the paper's "roughly half").
        let topo = topo(44);
        let mut cores = Vec::new();
        let mut suspects = Vec::new();
        for i in 0..10 {
            let uid = CoreUid::new(i, 0, 0);
            cores.push((uid, library::string_bitflip((i % 8) as u8, 1e-4)));
            suspects.push((uid, 100.0));
        }
        for i in 10..20 {
            suspects.push((CoreUid::new(i, 0, 0), 100.0)); // innocent
        }
        let pop = Population::with_explicit(44, cores);
        let triage = HumanTriage::default();
        let (records, stats) = triage.investigate_all(&topo, &pop, &suspects);
        assert_eq!(stats.investigated, 20);
        assert!(
            (0.4..=0.6).contains(&stats.confirmation_rate()),
            "confirmation rate {}",
            stats.confirmation_rate()
        );
        assert_eq!(
            stats.confirmed_true, stats.confirmed,
            "no false confessions"
        );
        assert_eq!(records.len(), stats.confirmed as usize);
    }

    #[test]
    fn sensitivity_floor_is_tiny() {
        let triage = HumanTriage::default();
        assert!(triage.sensitivity_floor() < 1e-8);
    }
}
