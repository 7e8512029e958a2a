//! The decision ledger: every operational decision, in time order.
//!
//! The ledger is *derived from the trace*, never recorded independently:
//! one filter over the instant-event stream picks out the decision
//! vocabulary (ground-truth onsets, signal ingests, suspect flags,
//! quarantines, deep-check verdicts, exonerations, restores, retirements,
//! watch-rule firings, mitigation escalations). Because the in-loop path
//! scans the buffered [`Trace`] and the replay path parses the exported
//! JSONL of that same trace — and the JSONL number format is exact
//! shortest-roundtrip — the two ledgers are byte-for-byte identical by
//! construction, at any worker count.

use mercurial_trace::export::{push_num, push_u64, read_jsonl, HourCache, JsonlLine, JsonlMetric};
use mercurial_trace::{EventKind, Trace};

/// Canonical names of the eight fleet signal kinds, indexed by the
/// scoreboard's dense kind index (the payload of a `score.signal`
/// instant). Order must match `mercurial_fleet::SignalKind` /
/// `mercurial_screening`'s `kind_index`.
pub const SIGNAL_KIND_NAMES: [&str; 8] = [
    "app-checksum-mismatch",
    "process-crash",
    "kernel-crash",
    "machine-check",
    "sanitizer-hit",
    "replica-divergence",
    "user-report",
    "screener-failure",
];

/// Decode a `score.signal` payload into a kind name; out-of-table values
/// (a forward-compatibility guard, not an expected case) render as
/// `kind-<n>`.
pub fn signal_kind_name(value: f64) -> String {
    let ix = value as usize;
    if ix < SIGNAL_KIND_NAMES.len() && (value - ix as f64).abs() < f64::EPSILON {
        SIGNAL_KIND_NAMES[ix].to_string()
    } else {
        format!("kind-{value}")
    }
}

/// One kind of operational decision the closed loop makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Decision {
    /// Ground-truth lesion onset (not a decision — the thing decisions are
    /// scored against; kept in the ledger so case files show cause before
    /// effect).
    Onset,
    /// A signal was ingested by the scoreboard (value = dense kind index).
    Signal,
    /// First signal ever attributed to a core.
    FirstSignal,
    /// The core crossed the recidivism predicate (value = suspicion).
    Recidivist,
    /// The registry flagged the core suspect.
    Suspect,
    /// The core was pulled from service.
    Quarantine,
    /// A deep check / screen reproduced the defect.
    Confirm,
    /// A deep check found nothing; the core was cleared.
    Exonerate,
    /// The core was returned to the schedulable pool.
    Restore,
    /// The core was permanently removed.
    Retire,
    /// A deep-check verdict was delivered (the triage instant).
    DeepCheck,
    /// A watch rule fired (value = rule index in the scenario rule set).
    Alert,
    /// Per-class mitigation escalated (value = workload-class index).
    Escalate,
}

/// Every decision kind, in ledger-report order.
pub const ALL_DECISIONS: [Decision; 13] = [
    Decision::Onset,
    Decision::Signal,
    Decision::FirstSignal,
    Decision::Recidivist,
    Decision::Suspect,
    Decision::Quarantine,
    Decision::Confirm,
    Decision::Exonerate,
    Decision::Restore,
    Decision::Retire,
    Decision::DeepCheck,
    Decision::Alert,
    Decision::Escalate,
];

impl Decision {
    /// The trace event name this decision is derived from.
    pub fn event_name(self) -> &'static str {
        match self {
            Decision::Onset => "gt.onset",
            Decision::Signal => "score.signal",
            Decision::FirstSignal => "score.first_signal",
            Decision::Recidivist => "score.recidivist",
            Decision::Suspect => "core.suspect",
            Decision::Quarantine => "core.quarantine",
            Decision::Confirm => "core.confirm",
            Decision::Exonerate => "core.exonerate",
            Decision::Restore => "core.restore",
            Decision::Retire => "core.retire",
            Decision::DeepCheck => "detect.triage",
            Decision::Alert => "alert.fired",
            Decision::Escalate => "mitigation.escalated",
        }
    }

    /// The inverse of [`Decision::event_name`] — the ledger's event filter.
    pub fn from_event_name(name: &str) -> Option<Decision> {
        Some(match name {
            "gt.onset" => Decision::Onset,
            "score.signal" => Decision::Signal,
            "score.first_signal" => Decision::FirstSignal,
            "score.recidivist" => Decision::Recidivist,
            "core.suspect" => Decision::Suspect,
            "core.quarantine" => Decision::Quarantine,
            "core.confirm" => Decision::Confirm,
            "core.exonerate" => Decision::Exonerate,
            "core.restore" => Decision::Restore,
            "core.retire" => Decision::Retire,
            "detect.triage" => Decision::DeepCheck,
            "alert.fired" => Decision::Alert,
            "mitigation.escalated" => Decision::Escalate,
            _ => return None,
        })
    }

    /// Short stable token used in ledger JSONL lines.
    pub fn code(self) -> &'static str {
        match self {
            Decision::Onset => "onset",
            Decision::Signal => "signal",
            Decision::FirstSignal => "first-signal",
            Decision::Recidivist => "recidivist",
            Decision::Suspect => "suspect",
            Decision::Quarantine => "quarantine",
            Decision::Confirm => "confirm",
            Decision::Exonerate => "exonerate",
            Decision::Restore => "restore",
            Decision::Retire => "retire",
            Decision::DeepCheck => "deep-check",
            Decision::Alert => "alert",
            Decision::Escalate => "escalate",
        }
    }

    /// Human stage label for case-file chains: the incident-timeline
    /// vocabulary ([`mercurial_trace::stage_label`]) where it applies, the
    /// ledger code otherwise — so case files and `mercurial-lab trace`
    /// timelines describe the same life with the same words.
    pub fn stage(self) -> &'static str {
        mercurial_trace::stage_label(self.event_name()).unwrap_or_else(|| self.code())
    }
}

/// One appended ledger record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerEntry {
    /// Simulation hour of the decision.
    pub hour: f64,
    /// What was decided.
    pub decision: Decision,
    /// Packed `CoreUid` when the decision concerns one core (alerts and
    /// escalations are fleet-level).
    pub core: Option<u64>,
    /// Decision payload: kind index for [`Decision::Signal`], suspicion
    /// for [`Decision::Recidivist`], rule index for [`Decision::Alert`],
    /// class index for [`Decision::Escalate`]; 0.0 otherwise.
    pub value: f64,
}

/// The append-only decision ledger plus the two ground-truth-adjacent
/// series the scorer needs: the `fleet.active_mercurial` gauge (for
/// alert-justification) and the `gt.mercurial_cores` counter (for
/// conservation checks).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionLedger {
    /// Decisions in simulation-time order: stable-sorted by hour, trace
    /// emission order breaking ties. Emission order alone is not canonical
    /// — a sharded fleet emits per-shard time-ordered streams whose
    /// concatenation depends on the worker count — but the time-sorted
    /// ledger is identical at any sharding because same-hour decisions are
    /// always produced by the (deterministic) aggregator in one order.
    pub entries: Vec<LedgerEntry>,
    /// `(hour, value)` samples of the `fleet.active_mercurial` gauge,
    /// stable-sorted by hour like `entries`.
    pub active_mercurial: Vec<(f64, f64)>,
    /// Final `gt.mercurial_cores` counter (0 when ground truth was not
    /// recorded, e.g. tracing off).
    pub gt_count: u64,
}

impl DecisionLedger {
    /// Build the ledger from a buffered in-loop trace.
    pub fn from_trace(trace: &Trace) -> DecisionLedger {
        let mut ledger = DecisionLedger {
            gt_count: trace.metrics.counter("gt.mercurial_cores"),
            ..DecisionLedger::default()
        };
        for e in &trace.events {
            ledger.ingest_event(e.kind, e.name, e.hour, e.core, e.value);
        }
        ledger.canonicalize();
        ledger
    }

    /// Time-order the ledger (stable, so per-core causal chains — which
    /// always carry non-decreasing hours — keep their emission order on
    /// ties). Both construction paths end here, and `to_jsonl` output is
    /// already canonical, so re-parsing is a no-op sort.
    fn canonicalize(&mut self) {
        // One `u128` key an entry, `(total-order hour, emission index)`:
        // an unstable sort of distinct keys is the stable `total_cmp`
        // sort, without moving whole entries while sorting.
        let mut keys: Vec<u128> = (self.entries.iter().enumerate())
            .map(|(ix, e)| u128::from(total_order_key(e.hour)) << 64 | ix as u128)
            .collect();
        keys.sort_unstable();
        // Move each entry to its sorted slot in place, one cycle of
        // the permutation at a time (a second entry list would be
        // fresh pages to fault in); a placed slot's key becomes its
        // own index.
        for start in 0..keys.len() {
            if keys[start] as u64 as usize == start {
                continue;
            }
            let first = self.entries[start];
            let mut slot = start;
            loop {
                let from = keys[slot] as u64 as usize;
                keys[slot] = slot as u128;
                if from == start {
                    self.entries[slot] = first;
                    break;
                }
                self.entries[slot] = self.entries[from];
                slot = from;
            }
        }
        self.active_mercurial.sort_by(|a, b| a.0.total_cmp(&b.0));
    }

    /// Ledgers one event: a decision instant, or a
    /// `fleet.active_mercurial` sample.
    fn ingest_event(
        &mut self,
        kind: EventKind,
        name: &str,
        hour: f64,
        core: Option<u64>,
        value: f64,
    ) {
        match kind {
            EventKind::Instant => {
                if let Some(decision) = Decision::from_event_name(name) {
                    self.entries.push(LedgerEntry {
                        hour,
                        decision,
                        core,
                        value,
                    });
                }
            }
            EventKind::Gauge if name == "fleet.active_mercurial" => {
                self.active_mercurial.push((hour, value));
            }
            _ => {}
        }
    }

    /// Rebuild the ledger offline from an exported trace JSONL file — the
    /// replay path of `mercurial-lab audit --trace`: a fold over
    /// [`read_jsonl`]'s lines, the same events and counter
    /// [`DecisionLedger::from_trace`] reads.
    ///
    /// # Errors
    ///
    /// Reports the first malformed line, 1-indexed.
    pub fn from_trace_jsonl(text: &str) -> Result<DecisionLedger, String> {
        let mut ledger = DecisionLedger::default();
        for line in read_jsonl(text) {
            match line? {
                JsonlLine::Event(e) => {
                    ledger.ingest_event(e.kind, &e.name, e.hour, e.core, e.value)
                }
                JsonlLine::Metric(name, JsonlMetric::Counter(n))
                    if name == "gt.mercurial_cores" =>
                {
                    ledger.gt_count = n;
                }
                JsonlLine::Metric(..) => {}
            }
        }
        ledger.canonicalize();
        Ok(ledger)
    }

    /// Canonical ledger JSONL — one decision per line:
    /// `{"h":<hour>,"d":"<code>"[,"core":<u64>][,"v":<value>]}` ("v"
    /// omitted when 0.0). This is the byte string the replay-parity
    /// acceptance check compares. Numbers go through the trace JSONL
    /// exporter's writer, which is what makes replayed-and-re-exported
    /// ledgers byte-identical to in-loop ones.
    pub fn to_jsonl(&self) -> String {
        // A typical line is ~65 bytes.
        let mut out = String::with_capacity(self.entries.len() * 66);
        let mut hours = HourCache::default();
        for e in &self.entries {
            out.push_str("{\"h\":");
            hours.push(&mut out, e.hour);
            out.push_str(",\"d\":\"");
            out.push_str(e.decision.code());
            out.push('"');
            if let Some(core) = e.core {
                out.push_str(",\"core\":");
                push_u64(&mut out, core);
            }
            if e.value != 0.0 {
                out.push_str(",\"v\":");
                push_num(&mut out, e.value);
            }
            out.push_str("}\n");
        }
        out
    }

    /// Number of ledger entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no decision was recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Count of one decision kind.
    pub fn count_of(&self, decision: Decision) -> usize {
        self.entries
            .iter()
            .filter(|e| e.decision == decision)
            .count()
    }

    /// Latest `fleet.active_mercurial` sample at or before `hour` (the
    /// last one in emission order when several share that hour), or 0
    /// before the first sample — "did the fleet still harbor known
    /// mercurial cores when this alert fired?". A binary search of the
    /// hour-sorted samples.
    pub fn active_mercurial_at(&self, hour: f64) -> f64 {
        let after = self.active_mercurial.partition_point(|(h, _)| *h <= hour);
        after
            .checked_sub(1)
            .map_or(0.0, |last| self.active_mercurial[last].1)
    }
}

/// `hour`'s place in `f64::total_cmp` order, as an unsigned integer.
fn total_order_key(hour: f64) -> u64 {
    let bits = hour.to_bits();
    // Negative values count down from the sign bit; positive ones sit
    // above it.
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mercurial_trace::{Recorder, TraceLevel};

    fn sample_trace() -> Trace {
        let mut r = Recorder::new(TraceLevel::Record);
        r.instant(10.0, "gt.onset", Some(7), 0.0);
        r.counter_add("gt.mercurial_cores", 1);
        r.instant(50.0, "score.signal", Some(7), 3.0);
        r.instant(50.0, "score.first_signal", Some(7), 0.0);
        r.instant(60.0, "score.signal", Some(7), 0.0);
        r.instant(60.0, "score.recidivist", Some(7), 0.25);
        r.instant(90.0, "core.suspect", Some(7), 0.0);
        r.instant(90.0, "core.quarantine", Some(7), 0.0);
        r.gauge(90.0, "fleet.active_mercurial", 1.0);
        r.instant(120.0, "detect.triage", Some(7), 0.0);
        r.instant(120.0, "core.confirm", Some(7), 0.0);
        r.gauge(120.0, "fleet.active_mercurial", 0.0);
        r.instant(130.0, "alert.fired", None, 2.0);
        r.instant(140.0, "mitigation.escalated", None, 1.0);
        // Names outside the decision vocabulary are not ledgered.
        r.instant(55.0, "sim.first_corruption", Some(7), 0.0);
        r.gauge(55.0, "capacity.availability", 1.0);
        r.finish()
    }

    #[test]
    fn ledger_filters_decision_vocabulary() {
        let ledger = DecisionLedger::from_trace(&sample_trace());
        assert_eq!(ledger.len(), 11);
        assert_eq!(ledger.gt_count, 1);
        assert_eq!(ledger.count_of(Decision::Signal), 2);
        assert_eq!(ledger.count_of(Decision::Alert), 1);
        assert_eq!(ledger.active_mercurial, vec![(90.0, 1.0), (120.0, 0.0)]);
        // The out-of-vocabulary events were dropped.
        assert!(ledger.entries.iter().all(|e| e.hour != 55.0));
    }

    #[test]
    fn replayed_ledger_is_byte_identical() {
        let trace = sample_trace();
        let in_loop = DecisionLedger::from_trace(&trace);
        let replayed = DecisionLedger::from_trace_jsonl(&trace.to_jsonl()).unwrap();
        assert_eq!(in_loop, replayed);
        assert_eq!(in_loop.to_jsonl(), replayed.to_jsonl());
    }

    #[test]
    fn ledger_jsonl_format_is_stable() {
        let ledger = DecisionLedger::from_trace(&sample_trace());
        let jsonl = ledger.to_jsonl();
        let first = jsonl.lines().next().unwrap();
        assert_eq!(first, "{\"h\":10,\"d\":\"onset\",\"core\":7}");
        assert!(jsonl.contains("{\"h\":50,\"d\":\"signal\",\"core\":7,\"v\":3}"));
        // Zero payloads omit "v" (the kind-0 signal).
        assert!(jsonl.contains("{\"h\":60,\"d\":\"signal\",\"core\":7}"));
        assert!(jsonl.contains("{\"h\":130,\"d\":\"alert\",\"v\":2}"));
    }

    #[test]
    fn active_mercurial_lookup_is_latest_at_or_before() {
        let ledger = DecisionLedger::from_trace(&sample_trace());
        assert_eq!(ledger.active_mercurial_at(89.0), 0.0);
        assert_eq!(ledger.active_mercurial_at(90.0), 1.0);
        assert_eq!(ledger.active_mercurial_at(119.0), 1.0);
        assert_eq!(ledger.active_mercurial_at(500.0), 0.0);
    }

    #[test]
    fn active_mercurial_search_matches_the_linear_scan() {
        let linear = |ledger: &DecisionLedger, hour: f64| {
            ledger
                .active_mercurial
                .iter()
                .take_while(|(h, _)| *h <= hour)
                .last()
                .map_or(0.0, |(_, v)| *v)
        };
        // Samples that share an hour, runs of one hour, gaps.
        let hours = [
            0.0, 73.0, 73.0, 146.0, 146.0, 146.0, 219.0, 8_760.5, 8_761.0,
        ];
        for n in 0..=hours.len() {
            let ledger = DecisionLedger {
                active_mercurial: (hours[..n].iter().enumerate())
                    .map(|(i, &h)| (h, 1.0 + i as f64))
                    .collect(),
                ..DecisionLedger::default()
            };
            let mut probes = vec![-1.0, -0.0, 1e9];
            for &h in &hours[..n] {
                probes.extend([h, h - 0.5, h + 0.5, f64::from_bits(h.to_bits() + 1)]);
            }
            for hour in probes {
                assert_eq!(
                    ledger.active_mercurial_at(hour),
                    linear(&ledger, hour),
                    "{n} samples, hour {hour}"
                );
            }
        }
    }

    #[test]
    fn canonical_order_is_the_stable_total_order_sort() {
        // Signed zeros, ties and a shuffle long enough for many cycles.
        let mut hours = vec![5.0, -0.0, 0.0, 5.0, -3.0, 0.0, -0.0, 1e-300, -3.0, 4.5, 5.0];
        hours.extend((0..300).map(|i| (i * 7_919 % 53) as f64 / 2.0));
        let mut ledger = DecisionLedger {
            entries: (hours.iter().enumerate())
                .map(|(i, &hour)| LedgerEntry {
                    hour,
                    decision: Decision::Signal,
                    core: Some(i as u64),
                    value: 0.0,
                })
                .collect(),
            ..DecisionLedger::default()
        };
        let mut want = ledger.entries.clone();
        want.sort_by(|a, b| a.hour.total_cmp(&b.hour));
        ledger.canonicalize();
        assert_eq!(ledger.entries, want);
        assert!(ledger
            .entries
            .iter()
            .zip(&want)
            .all(|(a, b)| a.hour.to_bits() == b.hour.to_bits()));
    }

    #[test]
    fn decision_names_roundtrip() {
        for d in ALL_DECISIONS {
            assert_eq!(Decision::from_event_name(d.event_name()), Some(d));
            assert!(!d.code().is_empty());
            assert!(!d.stage().is_empty());
        }
        assert_eq!(Decision::from_event_name("loop.epoch"), None);
        // Timeline vocabulary is reused where it exists.
        assert_eq!(Decision::Onset.stage(), "onset");
        assert_eq!(Decision::DeepCheck.stage(), "detect(triage)");
        assert_eq!(Decision::Alert.stage(), "alert");
    }

    #[test]
    fn ledger_is_time_sorted_regardless_of_emission_order() {
        // A sharded fleet interleaves per-shard streams differently at
        // different worker counts; the canonical ledger must not care.
        let mut r = Recorder::new(TraceLevel::Record);
        r.instant(10.0, "gt.onset", Some(1), 0.0);
        r.instant(70.0, "score.signal", Some(2), 1.0); // shard B, late emission
        r.instant(40.0, "score.signal", Some(1), 1.0); // shard A, emitted after
        r.instant(40.0, "score.first_signal", Some(1), 0.0);
        let ledger = DecisionLedger::from_trace(&r.finish());
        let hours: Vec<f64> = ledger.entries.iter().map(|e| e.hour).collect();
        assert_eq!(hours, vec![10.0, 40.0, 40.0, 70.0]);
        // Stable: the same-hour signal/first-signal pair kept its order.
        assert_eq!(ledger.entries[1].decision, Decision::Signal);
        assert_eq!(ledger.entries[2].decision, Decision::FirstSignal);
    }

    #[test]
    fn kind_names_decode() {
        assert_eq!(signal_kind_name(3.0), "machine-check");
        assert_eq!(signal_kind_name(0.0), "app-checksum-mismatch");
        assert_eq!(signal_kind_name(7.0), "screener-failure");
        assert_eq!(signal_kind_name(42.0), "kind-42");
    }
}
