//! A multi-core chip: several [`SimCore`]s over shared [`Memory`].
//!
//! The paper's central observation is that "typically just one core fails,
//! often consistently" on a multi-core part (§2). A [`Chip`] is built from a
//! core count and an optional map of fault profiles — normally zero or one
//! entries — and offers two execution modes:
//!
//! * [`Chip::run_core`]: run one program to completion on one core (how
//!   screeners test cores one at a time);
//! * [`Chip::run_interleaved`]: step all cores round-robin over shared
//!   memory (how lock-torture corpus kernels expose defective atomics).

use crate::exec::{CoreConfig, SimCore, StepOutcome};
use crate::isa::Program;
use crate::mem::Memory;
use crate::trap::Trap;
use mercurial_fault::{CoreFaultProfile, CoreUid, Injector, OperatingPoint};

/// Chip-wide configuration.
#[derive(Debug, Clone)]
pub struct ChipConfig {
    /// Number of cores.
    pub cores: u16,
    /// Shared memory size in bytes.
    pub mem_size: usize,
    /// Machine index used in the cores' [`CoreUid`]s.
    pub machine: u32,
    /// Socket index used in the cores' [`CoreUid`]s.
    pub socket: u8,
    /// Injection seed shared by all cores (streams are decorrelated by
    /// core uid).
    pub seed: u64,
    /// Operating point applied to every core initially.
    pub point: OperatingPoint,
    /// Per-run instruction budget for each core.
    pub fuel: u64,
    /// Probability an injected corruption raises a machine check.
    pub mce_on_fire_prob: f64,
}

impl Default for ChipConfig {
    fn default() -> ChipConfig {
        ChipConfig {
            cores: 4,
            mem_size: 1 << 20,
            machine: 0,
            socket: 0,
            seed: 0,
            point: OperatingPoint::NOMINAL,
            fuel: 10_000_000,
            mce_on_fire_prob: 0.0,
        }
    }
}

/// The final status of one core in an interleaved run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreRunStatus {
    /// The core halted normally.
    Halted,
    /// The core trapped.
    Trapped(Trap),
    /// The core was still running when the step budget expired.
    OutOfSteps,
}

/// A multi-core chip with shared memory.
pub struct Chip {
    cores: Vec<SimCore>,
    mem: Memory,
}

impl Chip {
    /// Builds a chip; `profiles` assigns fault profiles to core indices.
    pub fn new(config: ChipConfig, profiles: Vec<(u16, CoreFaultProfile)>) -> Chip {
        let mut cores = Vec::with_capacity(config.cores as usize);
        for idx in 0..config.cores {
            let uid = CoreUid::new(config.machine, config.socket, idx);
            let injector = profiles
                .iter()
                .find(|(i, _)| *i == idx)
                .map(|(_, p)| Injector::new(config.seed, p.clone()));
            cores.push(SimCore::new(
                CoreConfig {
                    uid,
                    point: config.point,
                    age_hours: 0.0,
                    fuel: config.fuel,
                    mce_on_fire_prob: config.mce_on_fire_prob,
                    seed: config.seed,
                },
                injector,
            ));
        }
        Chip {
            cores,
            mem: Memory::new(config.mem_size),
        }
    }

    /// Shared memory (e.g. to stage program inputs).
    pub fn mem(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Immutable view of a core.
    pub fn core(&self, idx: u16) -> &SimCore {
        &self.cores[idx as usize]
    }

    /// Runs `prog` to completion on core `idx` against shared memory.
    ///
    /// The core is reset first; its output buffer holds the results.
    pub fn run_core(&mut self, idx: u16, prog: &Program) -> Result<(), Trap> {
        let core = &mut self.cores[idx as usize];
        core.reset();
        core.run(prog, &mut self.mem).map(|_| ())
    }

    /// Steps every non-finished core round-robin until all halt/trap or
    /// `max_steps` rounds elapse. Returns per-core statuses.
    ///
    /// Each core runs its own program (commonly the same source assembled
    /// once, parameterized through registers).
    pub fn run_interleaved(&mut self, programs: &[Program], max_steps: u64) -> Vec<CoreRunStatus> {
        assert_eq!(
            programs.len(),
            self.cores.len(),
            "one program per core (clone the Program for SPMD runs)"
        );
        let n = self.cores.len();
        let mut status: Vec<Option<CoreRunStatus>> = vec![None; n];
        for core in &mut self.cores {
            core.reset();
        }
        for _ in 0..max_steps {
            let mut all_done = true;
            for i in 0..n {
                if status[i].is_some() {
                    continue;
                }
                all_done = false;
                match self.cores[i].step(&programs[i], &mut self.mem) {
                    Ok(StepOutcome::Running) => {}
                    Ok(StepOutcome::Halted) => status[i] = Some(CoreRunStatus::Halted),
                    Err(trap) => status[i] = Some(CoreRunStatus::Trapped(trap)),
                }
            }
            if all_done {
                break;
            }
        }
        status
            .into_iter()
            .map(|s| s.unwrap_or(CoreRunStatus::OutOfSteps))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;
    use mercurial_fault::{Activation, FunctionalUnit, Lesion};

    #[test]
    fn only_the_mercurial_core_miscomputes() {
        // §1: defects "typically afflict specific cores … rather than the
        // entire chip". Same program, four cores, one defective.
        let profile = CoreFaultProfile::single(
            "bad-mul",
            FunctionalUnit::MulDiv,
            Lesion::XorMask { mask: 0xf00 },
            Activation::always(),
        );
        let mut chip = Chip::new(ChipConfig::default(), vec![(2, profile)]);
        let prog = assemble(
            "li x1, 6
             li x2, 7
             mul x3, x1, x2
             out x3
             halt",
        )
        .unwrap();
        let mut results = Vec::new();
        for idx in 0..4 {
            chip.run_core(idx, &prog).unwrap();
            results.push(chip.core(idx).output()[0]);
        }
        assert_eq!(results[0], 42);
        assert_eq!(results[1], 42);
        assert_eq!(results[2], 42 ^ 0xf00);
        assert_eq!(results[3], 42);
    }

    #[test]
    fn interleaved_counter_increments_atomically() {
        // Four cores each xadd 1000 times; a healthy chip totals 4000.
        let src = "li x1, 128
                   li x2, 1
                   li x3, 1000
                   loop:
                   xadd x4, x1, x2
                   addi x3, x3, -1
                   bnz x3, loop
                   halt";
        let prog = assemble(src).unwrap();
        let mut chip = Chip::new(ChipConfig::default(), vec![]);
        let programs = vec![prog; 4];
        let status = chip.run_interleaved(&programs, 1_000_000);
        assert!(status.iter().all(|s| *s == CoreRunStatus::Halted));
        assert_eq!(chip.mem().read_u64(128).unwrap(), 4000);
    }

    #[test]
    fn spinlock_torture_with_phantom_success_corrupts() {
        // A spinlock guarding a non-atomic read-modify-write. With a
        // defective CAS (phantom success) two cores enter the critical
        // section at once and increments get lost — the paper's
        // "violations of lock semantics leading to application data
        // corruption" (§2).
        let src = "li x1, 128        ; lock word
                   li x5, 256        ; protected counter
                   li x6, 500        ; iterations
                   li x2, 0          ; expected = unlocked
                   li x3, 1          ; new = locked
                   acquire:
                   cas x4, x1, x2, x3
                   bne x4, x2, acquire
                   ld x7, x5, 0      ; critical section: racy increment
                   addi x7, x7, 1
                   st x7, x5, 0
                   st x2, x1, 0      ; release
                   addi x6, x6, -1
                   bnz x6, acquire
                   halt";
        let prog = assemble(src).unwrap();

        // Healthy chip: the total is exact.
        let mut good = Chip::new(ChipConfig::default(), vec![]);
        let status = good.run_interleaved(&vec![prog.clone(); 4], 10_000_000);
        assert!(status.iter().all(|s| *s == CoreRunStatus::Halted));
        assert_eq!(good.mem().read_u64(256).unwrap(), 2000);

        // One core with a lock-violating atomics unit: increments get lost.
        let profile = CoreFaultProfile::single(
            "locks",
            FunctionalUnit::Atomics,
            Lesion::LockViolation {
                mode: mercurial_fault::LockFailureMode::PhantomSuccess,
            },
            Activation::with_prob(0.2),
        );
        let mut bad = Chip::new(
            ChipConfig {
                seed: 7,
                ..ChipConfig::default()
            },
            vec![(1, profile)],
        );
        let status = bad.run_interleaved(&vec![prog; 4], 10_000_000);
        assert!(status
            .iter()
            .all(|s| matches!(s, CoreRunStatus::Halted | CoreRunStatus::Trapped(_))));
        let total = bad.mem().read_u64(256).unwrap();
        assert!(total < 2000, "lost updates expected, got {total}");
    }

    #[test]
    fn run_interleaved_reports_out_of_steps() {
        let prog = assemble("spin: jmp spin").unwrap();
        let mut chip = Chip::new(
            ChipConfig {
                cores: 1,
                ..ChipConfig::default()
            },
            vec![],
        );
        let status = chip.run_interleaved(&[prog], 100);
        assert_eq!(status, vec![CoreRunStatus::OutOfSteps]);
    }

    #[test]
    #[should_panic(expected = "one program per core")]
    fn interleaved_requires_program_per_core() {
        let prog = assemble("halt").unwrap();
        let mut chip = Chip::new(ChipConfig::default(), vec![]);
        let _ = chip.run_interleaved(&[prog], 10);
    }
}
