//! Differential execution: a generated program versus a fault library.
//!
//! Each run pits a fresh fault-injected *suspect* [`SimCore`] against a
//! fresh clean *reference* through the screening crate's
//! [`DivergenceFinder`], which names the first divergent pc, instruction,
//! and functional unit. Cores are constructed per run — never reused —
//! because a core's injector draw sequence (`op_seq`) survives `reset()`;
//! fresh cores make every comparison a pure function of its arguments,
//! which the parallel campaign's determinism contract requires.

use crate::gen::FuzzProgram;
use mercurial_fault::rng::stream_key;
use mercurial_fault::{CoreFaultProfile, Injector};
use mercurial_fault::{CoreUid, OperatingPoint};
use mercurial_screening::{Divergence, DivergenceFinder};
use mercurial_simcpu::unitmap::unit_of;
use mercurial_simcpu::{CoreConfig, Memory, SimCore, StepOutcome, Trap};

/// Execution conditions for a differential comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffConfig {
    /// Operating point both cores run at.
    pub point: OperatingPoint,
    /// Core age in hours (aging-gated lesions).
    pub age_hours: f64,
    /// Lockstep step bound (defends against corrupted infinite loops).
    pub max_steps: u64,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            point: OperatingPoint::NOMINAL,
            age_hours: 1.0,
            max_steps: 200_000,
        }
    }
}

/// Builds the suspect core for `(campaign seed, program index, profile slot)`.
fn suspect_core(
    fp: &FuzzProgram,
    profile: &CoreFaultProfile,
    seed: u64,
    profile_slot: u64,
    cfg: &DiffConfig,
) -> SimCore {
    let inj_seed = stream_key(seed, fp.index, profile_slot, 0xD1FF);
    let config = CoreConfig {
        uid: CoreUid::new(0, 0, 0),
        point: cfg.point,
        age_hours: cfg.age_hours,
        seed: inj_seed,
        ..CoreConfig::default()
    };
    SimCore::new(config, Some(Injector::new(inj_seed, profile.clone())))
}

/// Runs one differential comparison.
///
/// Pure in its arguments: the injector and core seeds are derived from
/// `(seed, fp.index, profile_slot)`, so the verdict does not depend on
/// how many comparisons ran before this one or on which thread.
pub fn run_differential(
    fp: &FuzzProgram,
    profile: &CoreFaultProfile,
    seed: u64,
    profile_slot: u64,
    cfg: &DiffConfig,
) -> Divergence {
    let mut suspect = suspect_core(fp, profile, seed, profile_slot, cfg);
    let mut reference = SimCore::new(
        CoreConfig {
            point: cfg.point,
            age_hours: cfg.age_hours,
            ..CoreConfig::default()
        },
        None,
    );
    let finder = DivergenceFinder {
        max_steps: cfg.max_steps,
        mem_size: fp.mem_size,
    };
    finder.compare(&mut suspect, &mut reference, &fp.program, &fp.init_mem)
}

/// What a healthy core does with a program: golden outputs plus the
/// per-unit dynamic operation histogram the distiller needs.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthyRun {
    /// Instructions retired.
    pub instructions: u64,
    /// Values emitted by `out`.
    pub outputs: Vec<u64>,
    /// Retired instructions per functional unit (indexed by
    /// [`mercurial_fault::FunctionalUnit::index`]).
    pub unit_ops: [u64; 9],
}

/// Executes `fp` on a healthy core, tallying per-unit retired ops.
///
/// Returns `Err` if the program traps — generated programs never should,
/// but the campaign treats a trap as "invalid program, discard" rather
/// than a panic so a generator regression cannot take the fleet down.
pub fn healthy_run(fp: &FuzzProgram, cfg: &DiffConfig) -> Result<HealthyRun, Trap> {
    let mut core = SimCore::new(
        CoreConfig {
            point: cfg.point,
            age_hours: cfg.age_hours,
            ..CoreConfig::default()
        },
        None,
    );
    let mut mem = Memory::new(fp.mem_size);
    for (addr, bytes) in &fp.init_mem {
        mem.write_bytes(*addr, bytes)?;
    }
    let mut unit_ops = [0u64; 9];
    for _ in 0..cfg.max_steps {
        let pc = core.pc() as usize;
        let inst = fp.program.insts.get(pc).copied();
        match core.step(&fp.program, &mut mem)? {
            StepOutcome::Running => {
                if let Some(inst) = inst {
                    unit_ops[unit_of(&inst).index()] += 1;
                }
            }
            StepOutcome::Halted => {
                if let Some(inst) = inst {
                    unit_ops[unit_of(&inst).index()] += 1;
                }
                return Ok(HealthyRun {
                    instructions: core.stats().instructions,
                    outputs: core.output().to_vec(),
                    unit_ops,
                });
            }
        }
    }
    Err(Trap::FuelExhausted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, GenConfig};
    use mercurial_fault::{library, FunctionalUnit};

    #[test]
    fn healthy_programs_never_trap_or_diverge() {
        let gcfg = GenConfig::default();
        let dcfg = DiffConfig::default();
        for i in 0..48 {
            let fp = generate(0xcafe, i, &gcfg);
            let run = healthy_run(&fp, &dcfg)
                .unwrap_or_else(|t| panic!("program {i} trapped healthy: {t}"));
            assert!(!run.outputs.is_empty(), "program {i} emitted no output");
            // A benign (empty) fault profile must produce no divergence.
            let clean = CoreFaultProfile::new("empty", vec![]);
            let d = run_differential(&fp, &clean, 0xcafe, 0, &dcfg);
            assert_eq!(d, Divergence::None, "program {i}");
        }
    }

    #[test]
    fn hot_lesion_is_caught_differentially() {
        let gcfg = GenConfig::default();
        let dcfg = DiffConfig::default();
        let profile = library::loadstore_corruptor(1.0);
        let caught = (0..8).any(|i| {
            let fp = generate(0xbeef, i, &gcfg);
            run_differential(&fp, &profile, 0xbeef, 0, &dcfg).indicts()
        });
        assert!(caught, "a hot load/store corruptor must be caught quickly");
    }

    #[test]
    fn differential_is_order_independent() {
        let gcfg = GenConfig::default();
        let dcfg = DiffConfig::default();
        let fp = generate(5, 2, &gcfg);
        let profile = library::string_bitflip(11, 1.0);
        let first = run_differential(&fp, &profile, 5, 3, &dcfg);
        // Interleave unrelated work; the verdict must not move.
        let other = generate(5, 9, &gcfg);
        let _ = run_differential(&other, &profile, 5, 1, &dcfg);
        let second = run_differential(&fp, &profile, 5, 3, &dcfg);
        assert_eq!(first, second);
    }

    #[test]
    fn unit_histogram_counts_focus_units() {
        let gcfg = GenConfig::default();
        let dcfg = DiffConfig::default();
        let fp = generate(77, 0, &gcfg);
        let run = healthy_run(&fp, &dcfg).unwrap();
        let total: u64 = run.unit_ops.iter().sum();
        assert_eq!(total, run.instructions);
        assert!(run.unit_ops[FunctionalUnit::ScalarAlu.index()] > 0);
    }
}
