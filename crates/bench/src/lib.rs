//! # mercurial-bench
//!
//! Experiment binaries regenerating the paper's figure and quantitative
//! claims, one per experiment in EXPERIMENTS.md (`cargo run --release -p
//! mercurial-bench --bin <id>`). The ones that measure cost commit their
//! numbers as `BENCH_*.json` through [`write_bench_json`].
//!
//! Every bench times through this crate: [`interleave`] samples arms
//! that are compared with each other, and [`timed`] times a section run
//! once.
#![warn(missing_docs)]

use mercurial::pipeline::median;
use mercurial_prof::Prof;
use std::time::Instant;

/// A named arm for [`interleave`]; the name is its profiler phase.
pub type Arm<'a> = (&'static str, &'a mut dyn FnMut());

/// Runs `f` once inside `prof`'s phase `phase`; returns its result and
/// its wall-clock seconds.
pub fn timed<R>(prof: &Prof, phase: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = prof.scope(phase, f);
    (out, start.elapsed().as_secs_f64())
}

/// Times each of the K `arms` once per round for `rounds` rounds. Round
/// `r` starts at a rotating arm and goes on in order, backwards in every
/// other block of K rounds, so over each 2K rounds every arm runs first,
/// and right after each other arm, equally often: host drift and the
/// state one arm leaves for the next land on all arms alike.
pub fn interleave(prof: &Prof, rounds: usize, arms: &mut [Arm<'_>]) -> Rounds {
    let k = arms.len();
    let mut secs = vec![Vec::with_capacity(rounds); k];
    for r in 0..rounds {
        let back = (r / k) % 2 == 1;
        for i in (0..k).map(|j| (r + if back { k - 1 - j } else { j }) % k) {
            let (phase, arm) = &mut arms[i];
            secs[i].push(timed(prof, phase, arm).1);
        }
    }
    Rounds { secs }
}

/// The samples [`interleave`] took: one wall-clock reading per arm and
/// round, in seconds.
#[derive(Debug, Clone)]
pub struct Rounds {
    secs: Vec<Vec<f64>>,
}

/// An arm's median, fastest and slowest sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The median sample.
    pub median: f64,
    /// The fastest sample.
    pub min: f64,
    /// The slowest sample.
    pub max: f64,
}

impl Rounds {
    /// Arm `arm`'s median, fastest and slowest sample, in seconds.
    pub fn spread(&self, arm: usize) -> Spread {
        let s = &self.secs[arm];
        Spread {
            median: median(s).expect("rounds > 0"),
            min: s.iter().copied().fold(f64::INFINITY, f64::min),
            max: s.iter().copied().fold(0.0, f64::max),
        }
    }

    /// The median over rounds of arm `arm`'s time over arm `base`'s in
    /// the same round: the paired estimator every on/off gate reads.
    pub fn ratio(&self, arm: usize, base: usize) -> f64 {
        let ratios: Vec<f64> = self.secs[arm]
            .iter()
            .zip(&self.secs[base])
            .map(|(a, b)| a / b)
            .collect();
        median(&ratios).expect("rounds > 0")
    }
}

/// Runs `smoke` when the command line holds `--smoke` (the contract
/// checks `make ci` runs), else `full` (the timed run that writes the
/// experiment's baseline).
pub fn smoke_or_full(smoke: fn(), full: fn()) {
    if std::env::args().any(|a| a == "--smoke") {
        smoke()
    } else {
        full()
    }
}

/// Chooses experiment scale from the `MERCURIAL_SCALE` environment
/// variable: `paper` (20,000 machines, 36 months — minutes of runtime) or
/// anything else / unset for the laptop-friendly demo scale.
pub fn scenario_from_env(seed: u64) -> mercurial::Scenario {
    match std::env::var("MERCURIAL_SCALE").as_deref() {
        Ok("paper") => {
            let mut s = mercurial::Scenario::default_paper();
            s.fleet.seed = seed;
            s
        }
        _ => mercurial::Scenario::demo(seed),
    }
}

/// The committed `scenarios/paper.json` when it is present (runs from the
/// repo), else [`scenario_from_env`] at `fallback_seed`.
///
/// # Panics
///
/// If `scenarios/paper.json` exists but is not a valid scenario.
pub fn paper_scenario(fallback_seed: u64) -> mercurial::Scenario {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios/paper.json");
    match std::fs::read_to_string(path) {
        Ok(json) => mercurial::Scenario::from_json(&json).expect("scenarios/paper.json parses"),
        Err(_) => scenario_from_env(fallback_seed),
    }
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Writes one `BENCH_*.json` under the shared [`BenchMeta`] envelope.
///
/// `body` is the experiment's own `"key": value` lines (no outer
/// braces) — the envelope contributes schema, experiment id, git
/// commit, host fingerprint, timestamp, reps, and the bench's own
/// wall-clock phase breakdown from `prof`, so all baselines stay
/// machine-comparable under one schema. Benches write before they check
/// their acceptance bars, so a failing run still records what it
/// measured.
///
/// [`BenchMeta`]: mercurial_prof::BenchMeta
pub fn write_bench_json(
    path: &str,
    experiment: &str,
    reps: u64,
    profile: &mercurial_prof::SelfProfile,
    body: &str,
) {
    let meta = mercurial_prof::BenchMeta::capture(experiment, reps, profile);
    std::fs::write(path, meta.envelope(body))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_balances_first_arms_and_predecessors() {
        let log = std::cell::RefCell::new(String::new());
        let push = |c| {
            let log = &log;
            move || log.borrow_mut().push(c)
        };
        let (mut a, mut b, mut c) = (push('a'), push('b'), push('c'));
        let arms: &mut [Arm] = &mut [("a", &mut a), ("b", &mut b), ("c", &mut c)];
        let rounds = interleave(&Prof::disabled(), 6, arms);
        assert_eq!(log.into_inner(), "abc bca cab cba acb bac".replace(' ', ""));
        let s = rounds.spread(1);
        assert!(s.min <= s.median && s.median <= s.max);
        assert_eq!(rounds.ratio(2, 2), 1.0);
    }

    #[test]
    fn env_default_is_demo_scale() {
        let s = scenario_from_env(1);
        assert!(s.fleet.machines <= 2_000);
    }
}
