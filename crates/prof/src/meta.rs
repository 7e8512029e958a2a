//! [`BenchMeta`]: the shared envelope every `BENCH_*.json` embeds, so
//! perf numbers from different PRs, hosts, and experiments are
//! machine-comparable. One schema string, one capture path, one
//! validator — bench binaries only differ in their body fields.

use serde::{Deserialize, Serialize};

use crate::report::SelfProfile;

/// Schema identifier; bump the `/vN` suffix on breaking shape changes.
pub const BENCH_META_SCHEMA: &str = "mercurial-bench-meta/v1";

/// Where a measurement ran: enough to judge whether two numbers are
/// comparable, not enough to identify a person.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostInfo {
    pub os: String,
    pub arch: String,
    pub cpus: u64,
    pub hostname: String,
}

/// One phase line of the wall-clock breakdown carried in the envelope.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetaPhase {
    pub stack: String,
    pub wall_ms: f64,
    pub calls: u64,
}

/// The envelope itself. Every field is provenance: *what* ran (schema,
/// experiment), *on which code* (git commit), *where* (host), *when*
/// (timestamp), *how hard* (reps), and *where the time went* (phases).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchMeta {
    pub schema: String,
    pub experiment: String,
    pub git_commit: String,
    /// Whether tracked files differed from `git_commit` when the numbers
    /// were taken (`None` where git could not say). Envelopes written
    /// before the field existed parse as `None`.
    #[serde(default)]
    pub git_dirty: Option<bool>,
    pub host: HostInfo,
    pub timestamp: String,
    pub reps: u64,
    pub phases: Vec<MetaPhase>,
}

impl BenchMeta {
    /// Capture the envelope for `experiment` on this host, folding the
    /// measured profile into per-phase wall lines.
    pub fn capture(experiment: &str, reps: u64, profile: &SelfProfile) -> BenchMeta {
        BenchMeta {
            schema: BENCH_META_SCHEMA.to_string(),
            experiment: experiment.to_string(),
            git_commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
            git_dirty: git_dirty(),
            host: HostInfo {
                os: std::env::consts::OS.to_string(),
                arch: std::env::consts::ARCH.to_string(),
                cpus: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
                hostname: hostname().unwrap_or_else(|| "unknown".to_string()),
            },
            timestamp: iso8601_utc_now(),
            reps,
            phases: profile
                .entries()
                .into_iter()
                .map(|e| MetaPhase {
                    stack: e.stack,
                    wall_ms: e.wall_ns as f64 / 1e6,
                    calls: e.calls,
                })
                .collect(),
        }
    }

    /// Wrap bench body fields in the envelope. `body` is the inner
    /// `"key": value` lines of the result object (no braces), as the
    /// bench writers already format them.
    pub fn envelope(&self, body: &str) -> String {
        let meta = serde_json::to_string_pretty(self).expect("meta serializes");
        let meta_indented = meta.replace('\n', "\n  ");
        let body = body.trim().trim_end_matches(',');
        format!("{{\n  \"meta\": {meta_indented},\n  {body}\n}}\n")
    }

    /// Parse a `BENCH_*.json` file and validate its envelope: the file
    /// must be a JSON object with a `meta` field that deserializes under
    /// the current schema string.
    pub fn from_bench_json(text: &str) -> Result<BenchMeta, String> {
        let value: serde::Value =
            serde_json::from_str(text).map_err(|e| format!("not valid JSON: {e}"))?;
        let obj = value
            .as_object()
            .ok_or_else(|| "top level is not an object".to_string())?;
        let (_, meta) = obj
            .iter()
            .find(|(k, _)| k == "meta")
            .ok_or_else(|| "missing \"meta\" envelope".to_string())?;
        let meta = BenchMeta::from_value(meta).map_err(|e| format!("bad meta shape: {}", e.0))?;
        if meta.schema != BENCH_META_SCHEMA {
            return Err(format!(
                "schema mismatch: {} (expected {BENCH_META_SCHEMA})",
                meta.schema
            ));
        }
        Ok(meta)
    }
}

/// Current commit, read straight from `.git` (no subprocess): follow
/// `HEAD`'s symref into its loose ref file, falling back to
/// `packed-refs`, walking up from the working directory to find the
/// repository root.
fn git_commit() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    let git = loop {
        let candidate = dir.join(".git");
        if candidate.is_dir() {
            break candidate;
        }
        if !dir.pop() {
            return None;
        }
    };
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(refname) = head.strip_prefix("ref: ") else {
        return Some(head.to_string()); // detached HEAD: bare sha
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(refname)) {
        return Some(sha.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with('^'))
        .find_map(|l| {
            let (sha, name) = l.split_once(' ')?;
            (name == refname).then(|| sha.to_string())
        })
}

/// Whether a tracked file differs from `HEAD`, from `git status
/// --porcelain --untracked-files=no` (any output line is a change).
fn git_dirty() -> Option<bool> {
    let out = std::process::Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    out.status.success().then_some(!out.stdout.is_empty())
}

fn hostname() -> Option<String> {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .map(|s| s.trim().to_string())
        .or_else(|| std::env::var("HOSTNAME").ok())
        .filter(|s| !s.is_empty())
}

/// `YYYY-MM-DDTHH:MM:SSZ` from the system clock, via the standard
/// days-to-civil conversion — no date dependency for one timestamp.
fn iso8601_utc_now() -> String {
    let secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let (days, rem) = (secs / 86_400, secs % 86_400);
    let (hh, mm, ss) = (rem / 3_600, (rem / 60) % 60, rem % 60);
    // Howard Hinnant's civil_from_days, shifted to the 0000-03-01 era.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}Z")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Prof;

    #[test]
    fn envelope_round_trips_through_the_validator() {
        let p = Prof::enabled();
        {
            let _run = p.span("run");
            let _sim = p.span("sim");
        }
        let meta = BenchMeta::capture("e99_test", 3, &p.finish());
        let json = meta.envelope("\"corruptions\": 42,\n  \"wall_ms\": 1.5");
        let parsed = BenchMeta::from_bench_json(&json).expect("validator accepts own output");
        assert_eq!(parsed, meta);
        assert_eq!(parsed.experiment, "e99_test");
        assert_eq!(parsed.phases[0].stack, "run");
        assert_eq!(parsed.phases[1].stack, "run;sim");
        // The body fields survive as ordinary JSON alongside the meta.
        let v: serde::Value = serde_json::from_str(&json).unwrap();
        let obj = v.as_object().unwrap();
        assert!(obj.iter().any(|(k, _)| k == "corruptions"));
    }

    #[test]
    fn validator_rejects_missing_or_foreign_envelopes() {
        assert!(BenchMeta::from_bench_json("{\"corruptions\": 1}")
            .unwrap_err()
            .contains("missing"));
        assert!(BenchMeta::from_bench_json("[1,2]")
            .unwrap_err()
            .contains("object"));
        let p = Prof::disabled();
        let mut meta = BenchMeta::capture("x", 1, &p.finish());
        meta.schema = "mercurial-bench-meta/v0".to_string();
        let json = meta.envelope("\"a\": 1");
        assert!(BenchMeta::from_bench_json(&json)
            .unwrap_err()
            .contains("schema"));
    }

    #[test]
    fn validator_accepts_envelopes_without_the_dirty_stamp() {
        let meta = BenchMeta::capture("x", 1, &Prof::disabled().finish());
        let json = meta.envelope("\"a\": 1");
        let old = json
            .lines()
            .filter(|l| !l.contains("\"git_dirty\""))
            .collect::<Vec<_>>()
            .join("\n");
        assert_ne!(old, json.trim_end(), "the stamp was written");
        let parsed = BenchMeta::from_bench_json(&old).expect("an older envelope");
        assert_eq!(parsed.git_dirty, None);
        assert_eq!(parsed.git_commit, meta.git_commit);
    }

    #[test]
    fn capture_stamps_commit_host_and_time() {
        let meta = BenchMeta::capture("e0", 1, &Prof::disabled().finish());
        let in_checkout = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .stderr(std::process::Stdio::null())
            .output()
            .is_ok_and(|out| out.status.success());
        if in_checkout {
            // Inside a checkout the commit must resolve to a 40-hex sha.
            assert_eq!(meta.git_commit.len(), 40, "commit: {}", meta.git_commit);
            assert!(meta.git_dirty.is_some(), "git answers inside the repo");
            assert!(meta.git_commit.chars().all(|c| c.is_ascii_hexdigit()));
        } else {
            // An exported tree (`git archive`) has no history to stamp.
            assert_eq!(meta.git_commit, "unknown");
            assert_eq!(meta.git_dirty, None);
        }
        assert!(meta.timestamp.ends_with('Z') && meta.timestamp.len() == 20);
        assert!(meta.host.cpus > 0);
        assert!(meta.phases.is_empty(), "disabled profile carries no phases");
    }

    #[test]
    fn civil_date_conversion_matches_known_epochs() {
        // Spot-check the hand-rolled conversion against known instants
        // by reusing it through a fixed seconds value.
        let fmt = |secs: u64| {
            let (days, rem) = (secs / 86_400, secs % 86_400);
            let (hh, mm, ss) = (rem / 3_600, (rem / 60) % 60, rem % 60);
            let z = days as i64 + 719_468;
            let era = z.div_euclid(146_097);
            let doe = z.rem_euclid(146_097);
            let yoe = (doe - doe / 1_460 + doe / 36_524 - doe / 146_096) / 365;
            let y = yoe + era * 400;
            let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
            let mp = (5 * doy + 2) / 153;
            let d = doy - (153 * mp + 2) / 5 + 1;
            let m = if mp < 10 { mp + 3 } else { mp - 9 };
            let y = if m <= 2 { y + 1 } else { y };
            format!("{y:04}-{m:02}-{d:02}T{hh:02}:{mm:02}:{ss:02}Z")
        };
        assert_eq!(fmt(0), "1970-01-01T00:00:00Z");
        assert_eq!(fmt(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(fmt(1_754_611_200), "2025-08-08T00:00:00Z");
    }
}
