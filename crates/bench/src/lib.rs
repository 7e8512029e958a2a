//! # mercurial-bench
//!
//! Experiment binaries regenerating the paper's figure and quantitative
//! claims, one per experiment in EXPERIMENTS.md (`cargo run --release -p
//! mercurial-bench --bin <id>`). The ones that measure cost commit their
//! numbers as `BENCH_*.json` through [`write_bench_json`].
#![warn(missing_docs)]

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
/// machine-comparable under one schema.
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
    fn env_default_is_demo_scale() {
        let s = scenario_from_env(1);
        assert!(s.fleet.machines <= 2_000);
    }
}
