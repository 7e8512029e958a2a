//! Counters, gauges, and log-bucketed histograms.
//!
//! Metrics are keyed by `&'static str` in `BTreeMap`s so readouts iterate
//! in a deterministic (lexicographic) order regardless of insertion order.
//! Histograms use fixed log10 bucketing so two histograms built from the
//! same samples in any grouping merge to identical state.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Mutex, PoisonError};

/// Buckets per decade for [`LogHistogram`].
const PER_DECADE: usize = 8;
/// Lowest decade covered (10^-9); positive samples below it count as
/// underflow and are reported at `min`.
const MIN_DECADE: i32 = -9;
/// Number of decades covered: 10^-9 ..= 10^12.
const DECADES: usize = 21;
/// Total bucket count.
const BUCKETS: usize = PER_DECADE * DECADES;

/// Fixed-layout log10-bucketed histogram with deterministic merge.
///
/// Tracks exact `count`, `sum`, `min`, `max` alongside the buckets, so
/// single-sample and narrow distributions report exact quantiles (the
/// bucket-midpoint estimate is clamped to `[min, max]`).
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    buckets: Vec<u64>,
    /// Samples exactly equal to zero (common for "no corruptions this epoch").
    zeros: u64,
    /// Positive samples below the smallest bucket.
    underflow: u64,
    /// Samples at or above the largest bucket, plus non-finite/negative junk.
    overflow: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: vec![0; BUCKETS],
            zeros: 0,
            underflow: 0,
            overflow: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl LogHistogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_index(v: f64) -> Option<usize> {
        // Caller guarantees v > 0 and finite.
        let pos = (v.log10() - MIN_DECADE as f64) * PER_DECADE as f64;
        if pos < 0.0 {
            return None; // underflow
        }
        let idx = pos.floor() as usize;
        if idx >= BUCKETS {
            None // overflow (caller distinguishes by sign of pos)
        } else {
            Some(idx)
        }
    }

    /// Record one sample. Negative and non-finite samples count toward
    /// `count` (as overflow) but are excluded from min/max/sum bookkeeping
    /// only when non-finite.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        if !v.is_finite() {
            self.overflow += 1;
            return;
        }
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v == 0.0 {
            self.zeros += 1;
        } else if v < 0.0 {
            // Out-of-model for a log histogram; lump with underflow so the
            // quantile walk still reports it near `min`.
            self.underflow += 1;
        } else {
            match Self::bucket_index(v) {
                Some(i) => self.buckets[i] += 1,
                None if v < 1.0 => self.underflow += 1,
                None => self.overflow += 1,
            }
        }
    }

    /// Total number of samples observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all finite samples.
    pub fn sum(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum
        }
    }

    /// Smallest finite sample, if any.
    pub fn min(&self) -> Option<f64> {
        if self.min.is_finite() {
            Some(self.min)
        } else {
            None
        }
    }

    /// Largest finite sample, if any.
    pub fn max(&self) -> Option<f64> {
        if self.max.is_finite() {
            Some(self.max)
        } else {
            None
        }
    }

    /// Quantile estimate for `q` in `[0, 1]`; `None` on an empty histogram
    /// or one that only ever saw non-finite samples.
    ///
    /// Walks the cumulative bucket counts and returns the geometric
    /// midpoint of the target bucket, clamped to the exact `[min, max]`
    /// range — so single-sample and single-bucket histograms are exact and
    /// estimates never interpolate across decades no sample landed in.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        // `count > 0` with no finite extremes means every sample was
        // NaN/∞: there is no finite range to estimate within, so report
        // "no data" rather than fabricate a zero.
        let (Some(lo), Some(hi)) = (self.min(), self.max()) else {
            return None;
        };
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based.
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        let clamp = |v: f64| v.clamp(lo, hi);
        let mut seen = self.zeros;
        if target <= seen {
            return Some(clamp(0.0));
        }
        seen += self.underflow;
        if target <= seen {
            return Some(clamp(lo));
        }
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if target <= seen {
                let mid = 10f64.powf(MIN_DECADE as f64 + (i as f64 + 0.5) / PER_DECADE as f64);
                return Some(clamp(mid));
            }
        }
        Some(clamp(hi))
    }

    /// Median estimate.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th percentile estimate.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Merge another histogram into this one. Because the bucket layout is
    /// fixed, merging is exact: `merge(a, b)` equals observing all of `a`'s
    /// and `b`'s samples into one histogram.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.zeros += other.zeros;
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// The `&'static str` for a metric name built at run time. Each distinct
/// name is leaked once and shared by every later call, so repeated runs in
/// one process never grow the leak past one copy per name.
pub fn intern(name: &str) -> &'static str {
    static POOL: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());
    // The pool only ever holds whole leaked names, so a panic elsewhere
    // while it was locked leaves nothing half-written.
    let mut pool = POOL.lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(&hit) = pool.get(name) {
        return hit;
    }
    let leaked: &'static str = Box::leak(name.into());
    pool.insert(leaked);
    leaked
}

/// Deterministically ordered set of counters, gauges, and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricSet {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, LogHistogram>,
}

impl MetricSet {
    /// New empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to a monotonic counter.
    pub fn counter_add(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    /// Set a gauge to its latest sampled value.
    pub fn gauge_set(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Record a histogram sample.
    pub fn observe(&mut self, name: &'static str, sample: f64) {
        self.histograms.entry(name).or_default().observe(sample);
    }

    /// Counter readout (deterministic order).
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(k, v)| (*k, *v))
    }

    /// Gauge readout (deterministic order). Gauges hold the last value
    /// written in merge order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(k, v)| (*k, *v))
    }

    /// Histogram readout (deterministic order).
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &LogHistogram)> + '_ {
        self.histograms.iter().map(|(k, v)| (*k, v))
    }

    /// Look up one counter (0 if never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Look up one gauge.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Look up one histogram.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Merge a shard's metrics into this set: counters sum, gauges take the
    /// incoming (later-in-merge-order) value, histograms merge exactly.
    pub fn merge(&mut self, other: &MetricSet) {
        for (name, v) in other.counters.iter() {
            *self.counters.entry(name).or_insert(0) += v;
        }
        for (name, v) in other.gauges.iter() {
            self.gauges.insert(name, *v);
        }
        for (name, h) in other.histograms.iter() {
            self.histograms.entry(name).or_default().merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_equal_names_returns_one_copy() {
        let a = intern(&format!("test.intern.{}", "name"));
        let b = intern(&String::from("test.intern.name"));
        assert!(std::ptr::eq(a, b));
        assert_eq!(a, "test.intern.name");
        assert!(!std::ptr::eq(a, intern("test.intern.other")));
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = LogHistogram::new();
        h.observe(73.0);
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(73.0));
        }
        assert_eq!(h.sum(), 73.0);
    }

    #[test]
    fn zeros_and_quantiles() {
        let mut h = LogHistogram::new();
        for _ in 0..9 {
            h.observe(0.0);
        }
        h.observe(100.0);
        assert_eq!(h.p50(), Some(0.0));
        // p99 targets rank ceil(0.99*10)=10 → the 100.0 sample's bucket,
        // clamped into [0, 100].
        let p99 = h.p99().unwrap();
        assert!(p99 > 0.0 && p99 <= 100.0, "p99={p99}");
    }

    #[test]
    fn quantile_estimate_within_bucket_error() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.observe(i as f64);
        }
        let p50 = h.p50().unwrap();
        // 8 buckets/decade → worst-case ratio error 10^(1/8) ≈ 1.33.
        assert!((p50 / 500.0) > 0.7 && (p50 / 500.0) < 1.4, "p50={p50}");
        let p99 = h.p99().unwrap();
        assert!((p99 / 990.0) > 0.7 && (p99 / 990.0) < 1.4, "p99={p99}");
    }

    #[test]
    fn merge_matches_single_histogram() {
        let mut all = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for i in 0..100 {
            let v = (i as f64) * 0.37 + 0.001;
            all.observe(v);
            if i % 2 == 0 {
                a.observe(v)
            } else {
                b.observe(v)
            }
        }
        a.merge(&b);
        // Bucket counts, extremes, and quantiles merge exactly; the sum is
        // only approximately equal (float addition is not associative).
        assert_eq!(a.count(), all.count());
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), all.quantile(q));
        }
        assert!((a.sum() - all.sum()).abs() < 1e-9 * all.sum().abs());
    }

    #[test]
    fn all_zero_histogram_quantiles_are_exactly_zero() {
        let mut h = LogHistogram::new();
        for _ in 0..7 {
            h.observe(0.0);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(0.0));
        }
        assert_eq!(h.min(), Some(0.0));
        assert_eq!(h.max(), Some(0.0));
    }

    #[test]
    fn single_bucket_histogram_does_not_interpolate_across_empty_decades() {
        // Nine zeros and five samples in one bucket: every quantile must
        // land either exactly at 0 or inside the populated bucket's
        // clamped range — never in the empty decades between them.
        let mut h = LogHistogram::new();
        for _ in 0..9 {
            h.observe(0.0);
        }
        for _ in 0..5 {
            h.observe(100.0);
        }
        assert_eq!(h.p50(), Some(0.0));
        // Rank 14 of 14 → the 100.0 bucket; its geometric midpoint
        // (≈115.5) clamps to the exact max.
        assert_eq!(h.p95(), Some(100.0));
        assert_eq!(h.p99(), Some(100.0));
    }

    #[test]
    fn identical_samples_are_exact_at_every_quantile() {
        let mut h = LogHistogram::new();
        for _ in 0..100 {
            h.observe(73.0);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(73.0));
        }
    }

    #[test]
    fn non_finite_only_histogram_has_no_quantiles() {
        let mut h = LogHistogram::new();
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        // Previously this fabricated Some(0.0) from the missing extremes.
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn extreme_samples_land_in_under_overflow() {
        let mut h = LogHistogram::new();
        h.observe(1e-30);
        h.observe(1e30);
        assert_eq!(h.count(), 2);
        assert_eq!(h.min(), Some(1e-30));
        assert_eq!(h.max(), Some(1e30));
        // Quantiles stay inside the observed range.
        let p50 = h.p50().unwrap();
        assert!((1e-30..=1e30).contains(&p50));
    }

    #[test]
    fn metric_set_merge_semantics() {
        let mut a = MetricSet::new();
        a.counter_add("ops", 3);
        a.gauge_set("cap", 0.9);
        a.observe("lat", 10.0);
        let mut b = MetricSet::new();
        b.counter_add("ops", 4);
        b.gauge_set("cap", 0.8);
        b.observe("lat", 20.0);
        a.merge(&b);
        assert_eq!(a.counter("ops"), 7);
        assert_eq!(a.gauge("cap"), Some(0.8)); // last write wins
        assert_eq!(a.histogram("lat").unwrap().count(), 2);
        assert_eq!(a.counter("missing"), 0);
    }
}
