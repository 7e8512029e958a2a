//! Per-epoch time series for the closed-loop pipeline.
//!
//! The open-loop pipeline only reports end-of-window aggregates; the
//! closed-loop driver (§6.1 operationally: detect → quarantine →
//! reschedule, every epoch) needs to show *when* capacity was surrendered
//! and *when* corruption stopped. [`EpochSeries`] records one point per
//! simulation epoch: schedulable capacity (with and without safe-task
//! recovery), the corruption drawn during the epoch, and how many
//! ground-truth mercurial cores were still in service.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

/// One epoch's worth of closed-loop telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochPoint {
    /// Epoch index from the start of the window.
    pub epoch: u32,
    /// Fleet hour at the start of the epoch.
    pub hour: f64,
    /// Schedulable fraction of nominal capacity (quarantined and
    /// confirmed cores removed).
    pub capacity: f64,
    /// Capacity counting the partial recovery from unit-aware safe-task
    /// placement on confirmed cores (§6.1). Always ≥ `capacity`.
    pub capacity_with_safetask: f64,
    /// Corruption events drawn during this epoch (residual corrupt-ops).
    pub corrupt_ops: u64,
    /// Ground-truth mercurial cores still deployed and in service at the
    /// start of the epoch.
    pub active_mercurial: u64,
}

/// One workload class's share of one epoch's telemetry. All counts are
/// integers so per-class sums are exact and order-independent — the same
/// totals at any shard fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ClassPoint {
    /// Corruption events attributed to this class during the epoch.
    pub corrupt_ops: u64,
    /// Corruptions caught (application checks plus the class's mitigation
    /// policy) during the epoch.
    pub caught: u64,
    /// User-visible reports escalated from this class during the epoch.
    pub user_reports: u64,
    /// Extra operations the class's mitigation policy executed this epoch
    /// (redundant executions plus compare/checksum steps).
    pub overhead_ops: u64,
}

/// A closed-loop run's per-epoch telemetry, in epoch order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochSeries {
    epoch_hours: f64,
    points: Vec<EpochPoint>,
    /// Workload class names, set once when per-class attribution is on.
    /// Empty for legacy runs: every rendered surface is then byte-for-byte
    /// what it was before classes existed.
    #[serde(default)]
    class_names: Vec<String>,
    /// One row per epoch, one [`ClassPoint`] per class (same order as
    /// `class_names`). Parallel to `points` when class attribution is on.
    #[serde(default)]
    class_points: Vec<Vec<ClassPoint>>,
}

impl EpochSeries {
    /// Creates an empty series with the given epoch length.
    ///
    /// # Panics
    ///
    /// Panics unless `epoch_hours` is positive and finite.
    pub fn new(epoch_hours: f64) -> EpochSeries {
        assert!(
            epoch_hours > 0.0 && epoch_hours.is_finite(),
            "epoch length must be positive and finite"
        );
        EpochSeries {
            epoch_hours,
            points: Vec::new(),
            class_names: Vec::new(),
            class_points: Vec::new(),
        }
    }

    /// Turn on per-class attribution: every subsequent epoch must push a
    /// matching [`push_classes`](EpochSeries::push_classes) row. Call
    /// before the first epoch.
    pub fn set_class_names(&mut self, names: Vec<String>) {
        self.class_names = names;
    }

    /// Workload class names (empty for legacy runs).
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// Per-epoch per-class points: `class_points()[epoch][class]`.
    pub fn class_points(&self) -> &[Vec<ClassPoint>] {
        &self.class_points
    }

    /// Appends the per-class breakdown for the epoch just pushed.
    ///
    /// # Panics
    ///
    /// Panics if the row's width disagrees with the registered class
    /// names.
    pub fn push_classes(&mut self, row: Vec<ClassPoint>) {
        assert_eq!(
            row.len(),
            self.class_names.len(),
            "class row width must match registered class names"
        );
        self.class_points.push(row);
    }

    /// Total corruption attributed to one class over the window.
    pub fn class_total_corrupt_ops(&self, class: usize) -> u64 {
        self.class_points
            .iter()
            .filter_map(|row| row.get(class))
            .map(|c| c.corrupt_ops)
            .sum()
    }

    /// Total mitigation overhead operations one class paid over the
    /// window.
    pub fn class_total_overhead_ops(&self, class: usize) -> u64 {
        self.class_points
            .iter()
            .filter_map(|row| row.get(class))
            .map(|c| c.overhead_ops)
            .sum()
    }

    /// Appends the next epoch's point (epoch index and hour are derived
    /// from the current length).
    pub fn push(
        &mut self,
        capacity: f64,
        capacity_with_safetask: f64,
        corrupt_ops: u64,
        active_mercurial: u64,
    ) {
        let epoch = self.points.len() as u32;
        self.points.push(EpochPoint {
            epoch,
            hour: epoch as f64 * self.epoch_hours,
            capacity,
            capacity_with_safetask,
            corrupt_ops,
            active_mercurial,
        });
    }

    /// The epoch length in hours.
    pub fn epoch_hours(&self) -> f64 {
        self.epoch_hours
    }

    /// All points, in epoch order.
    pub fn points(&self) -> &[EpochPoint] {
        &self.points
    }

    /// Number of recorded epochs.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no epoch has been recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The lowest schedulable capacity over the window (the trough the
    /// capacity planner must provision for).
    pub fn min_capacity(&self) -> f64 {
        self.points.iter().map(|p| p.capacity).fold(1.0, f64::min)
    }

    /// Total corruption drawn over the window (the residual the closed
    /// loop is trying to shrink).
    pub fn total_corrupt_ops(&self) -> u64 {
        self.points.iter().map(|p| p.corrupt_ops).sum()
    }

    /// Corruption drawn at or after `hour` — the tail the loop failed to
    /// prevent once detection had a chance to act.
    pub fn corrupt_ops_from(&self, hour: f64) -> u64 {
        self.points
            .iter()
            .filter(|p| p.hour >= hour)
            .map(|p| p.corrupt_ops)
            .sum()
    }

    /// Emits `epoch,hour,capacity,capacity_with_safetask,corrupt_ops,active_mercurial` CSV.
    ///
    /// When per-class attribution is on, each class appends four more
    /// columns (`<class>.corrupt_ops,<class>.caught,<class>.user_reports,<class>.overhead_ops`);
    /// with no classes registered the output is byte-for-byte the legacy
    /// format.
    pub fn to_csv(&self) -> String {
        // A row is ~50 bytes, plus ~12 a class cell.
        let row_bytes = 50 + 12 * 4 * self.class_names.len();
        let mut out = String::with_capacity(row_bytes * (self.points.len() + 1));
        out.push_str("epoch,hour,capacity,capacity_with_safetask,corrupt_ops,active_mercurial");
        for name in &self.class_names {
            let _ = write!(
                out,
                ",{name}.corrupt_ops,{name}.caught,{name}.user_reports,{name}.overhead_ops"
            );
        }
        out.push('\n');
        for (i, p) in self.points.iter().enumerate() {
            let _ = write!(
                out,
                "{},{:.1},{:.8},{:.8},{},{}",
                p.epoch,
                p.hour,
                p.capacity,
                p.capacity_with_safetask,
                p.corrupt_ops,
                p.active_mercurial
            );
            if !self.class_names.is_empty() {
                let row = self.class_points.get(i).map_or(&[][..], Vec::as_slice);
                for c in 0..self.class_names.len() {
                    let cp = row.get(c).copied().unwrap_or_default();
                    let _ = write!(
                        out,
                        ",{},{},{},{}",
                        cp.corrupt_ops, cp.caught, cp.user_reports, cp.overhead_ops
                    );
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders a fixed-width per-class summary table (whole-window totals
    /// per class), or an empty string when no classes are registered.
    pub fn render_class_table(&self) -> String {
        if self.class_names.is_empty() {
            return String::new();
        }
        let width = self
            .class_names
            .iter()
            .map(|n| n.len())
            .max()
            .unwrap_or(0)
            .max("class".len());
        let mut out = format!(
            "{:<width$}  {:>12}  {:>12}  {:>12}  {:>14}\n",
            "class", "corrupt_ops", "caught", "user_reports", "overhead_ops"
        );
        for (c, name) in self.class_names.iter().enumerate() {
            let (mut caught, mut reports) = (0u64, 0u64);
            for row in &self.class_points {
                if let Some(cp) = row.get(c) {
                    caught += cp.caught;
                    reports += cp.user_reports;
                }
            }
            out.push_str(&format!(
                "{:<width$}  {:>12}  {:>12}  {:>12}  {:>14}\n",
                name,
                self.class_total_corrupt_ops(c),
                caught,
                reports,
                self.class_total_overhead_ops(c)
            ));
        }
        out
    }

    /// Renders an ASCII strip chart of capacity loss (1 − capacity, so a
    /// flat baseline means nothing was quarantined) and residual
    /// corruption, bucketed into at most `rows` rows.
    pub fn render(&self, rows: usize) -> String {
        if self.points.is_empty() {
            // Keep the summary header shape even with nothing recorded so
            // consumers that read the first line see the same format.
            return format!(
                "closed-loop epochs (capacity trough {:.4}%, residual corrupt-ops {})\n\
                 (no epochs recorded)\n",
                100.0 * self.min_capacity(),
                self.total_corrupt_ops()
            );
        }
        let rows = rows.max(1).min(self.points.len());
        let per_row = self.points.len().div_ceil(rows);
        let max_loss = self
            .points
            .iter()
            .map(|p| 1.0 - p.capacity)
            .fold(1e-12, f64::max);
        let mut out = format!(
            "closed-loop epochs (capacity trough {:.4}%, residual corrupt-ops {})\n",
            100.0 * self.min_capacity(),
            self.total_corrupt_ops()
        );
        for chunk in self.points.chunks(per_row) {
            let loss = chunk.iter().map(|p| 1.0 - p.capacity).fold(0.0, f64::max);
            let ops: u64 = chunk.iter().map(|p| p.corrupt_ops).sum();
            let active = chunk.last().expect("non-empty chunk").active_mercurial;
            let bar = "█".repeat(((loss / max_loss) * 30.0).round() as usize);
            out.push_str(&format!(
                "h{:>7.0} loss {:>8.5}% |{:<30}| ops {:>9}  active {}\n",
                chunk[0].hour,
                100.0 * loss,
                bar,
                ops,
                active
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> EpochSeries {
        let mut s = EpochSeries::new(73.0);
        s.push(1.0, 1.0, 50, 4);
        s.push(0.999, 0.9995, 30, 3);
        s.push(0.998, 0.999, 0, 0);
        s
    }

    #[test]
    fn push_derives_epoch_and_hour() {
        let s = series();
        assert_eq!(s.len(), 3);
        assert_eq!(s.points()[2].epoch, 2);
        assert!((s.points()[2].hour - 146.0).abs() < 1e-12);
    }

    #[test]
    fn aggregates() {
        let s = series();
        assert!((s.min_capacity() - 0.998).abs() < 1e-12);
        assert_eq!(s.total_corrupt_ops(), 80);
        assert_eq!(s.corrupt_ops_from(73.0), 30);
        assert_eq!(s.corrupt_ops_from(1e9), 0);
    }

    #[test]
    fn csv_has_one_row_per_epoch() {
        let s = series();
        assert_eq!(s.to_csv().lines().count(), 4);
        assert!(s.to_csv().starts_with("epoch,hour,"));
    }

    #[test]
    fn render_buckets_to_requested_rows() {
        let mut s = EpochSeries::new(73.0);
        for i in 0..100 {
            s.push(1.0 - i as f64 * 1e-5, 1.0, i, 1);
        }
        let chart = s.render(10);
        assert_eq!(chart.lines().count(), 11); // header + 10 buckets
    }

    #[test]
    fn empty_series_renders_header_and_placeholder() {
        let s = EpochSeries::new(73.0);
        let chart = s.render(5);
        assert_eq!(
            chart,
            "closed-loop epochs (capacity trough 100.0000%, residual corrupt-ops 0)\n\
             (no epochs recorded)\n"
        );
        // The summary header line has the same shape as a populated render.
        assert!(chart.starts_with("closed-loop epochs (capacity trough"));
    }

    #[test]
    fn empty_series_aggregates_and_csv() {
        let s = EpochSeries::new(73.0);
        assert!(s.is_empty());
        assert_eq!(s.min_capacity(), 1.0, "trough of nothing is full capacity");
        assert_eq!(s.total_corrupt_ops(), 0);
        assert_eq!(
            s.to_csv(),
            "epoch,hour,capacity,capacity_with_safetask,corrupt_ops,active_mercurial\n"
        );
    }

    #[test]
    fn single_epoch_renders_one_bucket() {
        let mut s = EpochSeries::new(73.0);
        s.push(0.999, 1.0, 7, 2);
        // Any requested row count clamps to the single available epoch.
        for rows in [0, 1, 5] {
            let chart = s.render(rows);
            assert_eq!(chart.lines().count(), 2, "header + 1 bucket (rows={rows})");
            assert!(chart.contains("ops         7"));
        }
        assert_eq!(s.to_csv().lines().count(), 2);
        assert_eq!(
            s.to_csv().lines().nth(1).unwrap(),
            "0,0.0,0.99900000,1.00000000,7,2"
        );
    }

    #[test]
    fn render_zero_rows_clamps_to_one() {
        let s = series();
        let chart = s.render(0);
        assert_eq!(chart.lines().count(), 2, "all epochs collapse into 1 row");
        assert!(
            chart.contains("ops        80"),
            "bucket sums all corrupt-ops"
        );
    }

    #[test]
    fn safetask_capacity_at_least_base() {
        for p in series().points() {
            assert!(p.capacity_with_safetask >= p.capacity);
        }
    }

    #[test]
    #[should_panic(expected = "epoch length")]
    fn zero_epoch_hours_panics() {
        EpochSeries::new(0.0);
    }

    fn cp(corrupt_ops: u64, caught: u64, user_reports: u64, overhead_ops: u64) -> ClassPoint {
        ClassPoint {
            corrupt_ops,
            caught,
            user_reports,
            overhead_ops,
        }
    }

    #[test]
    fn class_csv_is_pinned_for_empty_series() {
        // Classes registered but no epochs: header carries the class
        // columns, nothing else.
        let mut s = EpochSeries::new(73.0);
        s.set_class_names(vec!["db".into(), "web".into()]);
        assert_eq!(
            s.to_csv(),
            "epoch,hour,capacity,capacity_with_safetask,corrupt_ops,active_mercurial,\
             db.corrupt_ops,db.caught,db.user_reports,db.overhead_ops,\
             web.corrupt_ops,web.caught,web.user_reports,web.overhead_ops\n"
        );
        // And with no classes at all the legacy header is untouched.
        assert_eq!(
            EpochSeries::new(73.0).to_csv(),
            "epoch,hour,capacity,capacity_with_safetask,corrupt_ops,active_mercurial\n"
        );
    }

    #[test]
    fn class_csv_is_pinned_for_single_epoch() {
        let mut s = EpochSeries::new(73.0);
        s.set_class_names(vec!["db".into()]);
        s.push(0.999, 1.0, 7, 2);
        s.push_classes(vec![cp(7, 3, 1, 4000)]);
        assert_eq!(
            s.to_csv().lines().nth(1).unwrap(),
            "0,0.0,0.99900000,1.00000000,7,2,7,3,1,4000"
        );
    }

    #[test]
    fn class_csv_is_pinned_for_many_classes() {
        let mut s = EpochSeries::new(73.0);
        s.set_class_names(vec!["a".into(), "b".into(), "c".into()]);
        s.push(1.0, 1.0, 6, 4);
        s.push_classes(vec![cp(1, 0, 0, 10), cp(2, 1, 0, 20), cp(3, 2, 1, 30)]);
        s.push(0.999, 1.0, 9, 4);
        s.push_classes(vec![cp(2, 1, 1, 10), cp(3, 2, 0, 20), cp(4, 3, 2, 30)]);
        let csv = s.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "epoch,hour,capacity,capacity_with_safetask,corrupt_ops,active_mercurial,\
             a.corrupt_ops,a.caught,a.user_reports,a.overhead_ops,\
             b.corrupt_ops,b.caught,b.user_reports,b.overhead_ops,\
             c.corrupt_ops,c.caught,c.user_reports,c.overhead_ops"
        );
        assert_eq!(
            lines[1],
            "0,0.0,1.00000000,1.00000000,6,4,1,0,0,10,2,1,0,20,3,2,1,30"
        );
        assert_eq!(
            lines[2],
            "1,73.0,0.99900000,1.00000000,9,4,2,1,1,10,3,2,0,20,4,3,2,30"
        );
        // Per-class totals are the column sums.
        assert_eq!(s.class_total_corrupt_ops(0), 3);
        assert_eq!(s.class_total_corrupt_ops(2), 7);
        assert_eq!(s.class_total_overhead_ops(1), 40);
        let table = s.render_class_table();
        assert!(table.starts_with("class"));
        assert_eq!(table.lines().count(), 4);
    }

    #[test]
    fn class_row_width_must_match_names() {
        let mut s = EpochSeries::new(73.0);
        s.set_class_names(vec!["a".into(), "b".into()]);
        s.push(1.0, 1.0, 0, 0);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            s.push_classes(vec![cp(0, 0, 0, 0)])
        }));
        assert!(r.is_err(), "short class row must panic");
    }

    #[test]
    fn legacy_series_json_without_class_fields_still_parses() {
        let s = series();
        let mut v = s.to_value();
        if let serde::Value::Object(entries) = &mut v {
            entries.retain(|(k, _)| k != "class_names" && k != "class_points");
        }
        let back = EpochSeries::from_value(&v).expect("legacy series parses");
        assert_eq!(back, s);
        assert!(back.class_names().is_empty());
    }
}
