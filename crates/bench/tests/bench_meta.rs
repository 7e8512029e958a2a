//! Every committed `BENCH_*.json` baseline must carry the shared
//! [`BenchMeta`] envelope: one schema across all six experiments, so
//! any tool that compares baselines can trust the provenance fields
//! (commit, host, timestamp, reps, phase breakdown) to be present and
//! uniformly shaped.
//!
//! [`BenchMeta`]: mercurial_prof::BenchMeta

use mercurial_prof::{BenchMeta, BENCH_META_SCHEMA};

const BASELINES: [(&str, &str); 6] = [
    ("BENCH_overheads.json", "e7_overheads"),
    ("BENCH_observe.json", "e16_observe"),
    ("BENCH_study.json", "e18_study"),
    ("BENCH_serve.json", "e19_serve"),
    ("BENCH_frontier.json", "e20_frontier"),
    ("BENCH_audit.json", "e21_audit"),
];

#[test]
fn all_committed_baselines_parse_under_one_envelope_schema() {
    for (file, experiment) in BASELINES {
        let path = format!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../{}"), file);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{file}: cannot read committed baseline: {e}"));
        let meta = BenchMeta::from_bench_json(&text)
            .unwrap_or_else(|e| panic!("{file}: envelope rejected: {e}"));
        assert_eq!(meta.schema, BENCH_META_SCHEMA, "{file}: schema");
        assert_eq!(meta.experiment, experiment, "{file}: experiment id");
        assert_eq!(meta.git_commit.len(), 40, "{file}: commit sha");
        assert!(meta.reps >= 1, "{file}: reps");
        assert!(
            meta.timestamp.ends_with('Z') && meta.timestamp.len() == 20,
            "{file}: timestamp {}",
            meta.timestamp
        );
        assert!(
            !meta.phases.is_empty(),
            "{file}: envelope must carry a phase breakdown"
        );
    }
}
