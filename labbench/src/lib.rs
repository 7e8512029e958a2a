//! # labbench
//!
//! The lab's benchmark: four workloads driven through the lab's public
//! crate APIs, host-time end-to-end metrics from untraced runs, and a
//! separate traced run that times each layer with the benchmark's own
//! spans. See `README.md` in this directory for the workloads, the
//! layer → metric map and how to compare two commits.

pub mod spans;
pub mod workloads;

/// An end-to-end or per-layer metric: name and unit.
pub type MetricDef = (&'static str, &'static str);

/// End-to-end metrics, reported from untraced runs. `failed_frac` is
/// printed beside them but travels in the result's `failed`/`attempted`
/// fields, since a healthy run reads exactly 0.
pub const END_TO_END: [MetricDef; 4] = [
    ("total_s", "s"),
    ("setup_s", "s"),
    ("machine_months_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics in the result line, reported from the traced run: the
/// layer times and per-unit costs an optimisation is most likely to move.
/// A layer that does no work in a workload reads 0 there.
pub const PER_LAYER: [MetricDef; 24] = [
    // core::experiment
    ("experiment.build_s", "s"),
    // core::shardloop worker
    ("shard.new_s", "s"),
    ("shard.step_s", "s"),
    ("shard.epoch_p95_ms", "ms"),
    ("fleet.step_s", "s"),
    ("screen.online_s", "s"),
    ("fleet.ns_per_raw_signal", "ns"),
    ("screen.ns_per_core_screen", "ns"),
    // core::shardloop aggregator
    ("agg.begin_s", "s"),
    ("agg.ingest_s", "s"),
    ("agg.finish_s", "s"),
    ("score.ns_per_signal", "ns"),
    ("watch.eval_s", "s"),
    // fleet batch and core::pipeline
    ("fleet.run_s", "s"),
    ("pipeline.complete_s", "s"),
    // trace and audit
    ("trace.export_s", "s"),
    ("audit.fold_s", "s"),
    ("audit.report_s", "s"),
    ("trace.on_off_ratio", "ratio"),
    // serve
    ("serve.io_s", "s"),
    ("serve.codec_s", "s"),
    ("serve.workers_s", "s"),
    ("serve.ms_per_epoch", "ms"),
    // the traced run itself
    ("traced.overhead_ratio", "ratio"),
];

/// The rest of what the traced run records: the layers' counts, minor
/// phases and the run's own coverage. They are printed as lines and kept
/// in the result file, but left out of the result line to keep it short.
pub const LAYER_EXTRA: [MetricDef; 25] = [
    ("experiment.mercurial_cores", "count"),
    ("shard.epoch_p50_ms", "ms"),
    ("screen.offline_s", "s"),
    ("screen.burnin_s", "s"),
    ("fleet.raw_signals", "count"),
    ("fleet.evidence_signals", "count"),
    ("fleet.corruptions", "count"),
    ("screen.core_screens", "count"),
    ("screen.test_ops", "count"),
    ("screen.detections", "count"),
    ("screen.detections_per_mscreen", "1/Mscreen"),
    ("agg.new_s", "s"),
    ("agg.quarantines", "count"),
    ("agg.restores", "count"),
    ("agg.confirm_frac", "ratio"),
    ("fleet.signals", "count"),
    ("pipeline.detections", "count"),
    ("pipeline.ns_per_signal", "ns"),
    ("fig1.derive_s", "s"),
    ("trace.events", "count"),
    ("trace.jsonl_bytes", "bytes"),
    ("audit.decisions", "count"),
    ("serve.evidence_frames", "count"),
    ("traced.total_s", "s"),
    ("traced.named_frac", "ratio"),
];

/// Metrics as one compact JSON object, `{name: {"value", "unit"}}`. Values
/// are float literals with every digit (`{:?}`); non-finite ones read 0.
pub fn metrics_json(metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// The result line the benchmark prints last.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(metrics)
    )
}

#[cfg(not(target_os = "linux"))]
compile_error!("labbench reads Linux's per-process CPU clock and VmHWM");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Host CPU seconds this process has used so far: user and system time of
/// all its threads, live and exited. On a shared VM, time the hypervisor
/// steals stretches wall clock by 2–3× in bursts; the kernel accounts it
/// apart (paravirt steal time), so this clock counts only the lab's work.
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) for the whole call, and the clock id is one
    // Linux always provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Time elapsed on both clocks: process CPU seconds (what the end-to-end
/// metrics report) and wall seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Elapsed {
    pub cpu_s: f64,
    pub wall_s: f64,
}

impl std::ops::Add for Elapsed {
    type Output = Elapsed;
    fn add(self, o: Elapsed) -> Elapsed {
        Elapsed {
            cpu_s: self.cpu_s + o.cpu_s,
            wall_s: self.wall_s + o.wall_s,
        }
    }
}

/// A stopwatch over both clocks.
#[derive(Debug, Clone, Copy)]
pub struct Watch {
    cpu_s: f64,
    wall: std::time::Instant,
}

impl Watch {
    /// Starts the watch now.
    pub fn start() -> Watch {
        Watch {
            cpu_s: process_cpu_s(),
            wall: std::time::Instant::now(),
        }
    }

    /// Time since the watch started.
    pub fn elapsed(&self) -> Elapsed {
        Elapsed {
            cpu_s: process_cpu_s() - self.cpu_s,
            wall_s: self.wall.elapsed().as_secs_f64(),
        }
    }
}

/// FNV-1a over everything a run produced: the outcome digest two runs of
/// the same inputs must agree on, within a commit and across commits that
/// declare no re-pin.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds a string and a separator, so field boundaries count.
    pub fn field(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile, by the same exclusive method as Python's
/// `statistics.quantiles(xs, n=4)`; a single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let m = len + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn digest_separates_fields() {
        let (mut a, mut b) = (Digest::default(), Digest::default());
        a.field("ab");
        a.field("c");
        b.field("a");
        b.field("bc");
        assert_ne!(a.hex(), b.hex());
    }
}
