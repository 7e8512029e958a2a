//! Per-core recidivism tracking.
//!
//! §6: "Recidivism — repeated signals from the same core — increases our
//! confidence that a core is mercurial." The scoreboard keeps a Beta
//! posterior per core over "this core's signals are defect-driven" and
//! surfaces the cores whose evidence has crossed a threshold.
//!
//! The prior is deliberately skeptical: one crash means nothing (software
//! bugs dominate — §1: silent failures "were typically obscured by the
//! undiagnosed software bugs that we always assume lurk within a code base
//! at scale"); five signals on the same core in a week means a lot.

use mercurial_fault::{CoreUid, FastMap};
use mercurial_fleet::{Signal, SignalKind};
use mercurial_trace::Recorder;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Number of [`SignalKind`] variants (the width of the per-core count
/// table).
const SIGNAL_KINDS: usize = 8;

/// Dense index of a signal kind into the per-core count table.
fn kind_index(kind: SignalKind) -> usize {
    match kind {
        SignalKind::AppChecksumMismatch => 0,
        SignalKind::ProcessCrash => 1,
        SignalKind::KernelCrash => 2,
        SignalKind::MachineCheckEvent => 3,
        SignalKind::SanitizerHit => 4,
        SignalKind::ReplicaDivergence => 5,
        SignalKind::UserReport => 6,
        SignalKind::ScreenerFailure => 7,
    }
}

/// How much one signal of each kind moves the evidence, by
/// [`kind_index`].
const KIND_WEIGHTS: [f64; SIGNAL_KINDS] = [
    1.5, // AppChecksumMismatch
    0.4, // ProcessCrash: crashes are mostly software
    0.7, // KernelCrash
    2.0, // MachineCheckEvent
    1.0, // SanitizerHit
    2.0, // ReplicaDivergence: two replicas disagreeing is strong
    1.0, // UserReport
    4.0, // ScreenerFailure: a controlled test failed, near-proof
];

/// Evidence against one core.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreScore {
    /// The core.
    pub core: CoreUid,
    /// Signals attributed to this core, indexed by [`kind_index`]. A
    /// dense table instead of a map: the scoreboard ingests every signal
    /// the fleet emits, and at fleet-study scale the per-signal map
    /// overhead (hashing plus a heap allocation per accused core)
    /// dominated the driver loop. `u32` keeps the row at 64 bytes; one
    /// core would need 4.3e9 signals (~100 GB of signal log) to overflow.
    counts: [u32; SIGNAL_KINDS],
    /// Hour of the first signal.
    pub first_hour: f64,
    /// Hour of the most recent signal.
    pub last_hour: f64,
    /// Weighted evidence (signal kinds carry different weight: a machine
    /// check on a specific core is stronger evidence than a process crash).
    pub evidence: f64,
}

impl CoreScore {
    /// The score after one signal of kind `kind` (a [`kind_index`]) at
    /// `hour`: what any core's first signal leaves. The evidence is
    /// `0.0 + weight`, which is `weight` exactly for a positive weight.
    fn first(core: CoreUid, kind: usize, hour: f64) -> CoreScore {
        let mut counts = [0; SIGNAL_KINDS];
        counts[kind] = 1;
        CoreScore {
            core,
            counts,
            first_hour: hour,
            last_hour: hour,
            evidence: KIND_WEIGHTS[kind],
        }
    }

    /// Signals of one kind attributed to this core.
    pub fn count_of(&self, kind: SignalKind) -> u64 {
        u64::from(self.counts[kind_index(kind)])
    }

    /// Total signals against this core.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|&c| u64::from(c)).sum()
    }

    /// Whether the core has repeated signals (the recidivism predicate).
    pub fn is_recidivist(&self) -> bool {
        self.total() >= 2
    }

    /// Suspicion in `[0, 1)`: a saturating transform of the evidence,
    /// `1 - exp(-evidence / 3)` — 0 for no evidence, ≈0.6 at 3 weighted
    /// signals, ≈0.96 at 10.
    pub fn suspicion(&self) -> f64 {
        suspicion_of(self.evidence)
    }
}

/// The saturating evidence transform behind [`CoreScore::suspicion`].
fn suspicion_of(evidence: f64) -> f64 {
    1.0 - (-evidence / 3.0).exp()
}

/// Rows per block of the score slab. A block is allocated once at its
/// full capacity and never grown, so rows never move and growth never
/// copies the slab (a flat `Vec`'s last doubling holds the old and new
/// buffers live together). 1024 rows × 64 bytes = 64 KiB stays below
/// glibc's default 128 KiB mmap threshold; 4096-row blocks measured a
/// higher peak RSS on small runs.
const BLOCK_ROWS: usize = 1024;
// One row is 64 bytes: the per-core footprint the block size assumes.
const _: () = assert!(std::mem::size_of::<CoreScore>() == 64);

/// Tag bit of an index value that names a first-sighting slot rather
/// than a row.
const SINGLETON: u32 = 1 << 31;

/// The fleet-wide per-core scoreboard, in two tiers.
///
/// At fleet-study scale almost every accused core is accused once, so a
/// core's first signal keeps only what its row would be built from: the
/// hour and the kind, in two columns (9 bytes). Its second signal
/// promotes it to a [`CoreScore`] row, built bit for bit as if the row
/// had existed from the first; so does a first signal that alone reaches
/// the armed threshold, so the watchlist names rows only. Rows live in a
/// slab of fixed 1024-row blocks in promotion order; one map indexes
/// both tiers. A promoted core's slot stays in the columns, unused.
#[derive(Debug, Clone, Default)]
pub struct Scoreboard {
    /// Each accused core's row number, or its first-sighting slot tagged
    /// with [`SINGLETON`].
    index: FastMap<CoreUid, u32>,
    /// Row `ix` is `rows[ix / BLOCK_ROWS][ix % BLOCK_ROWS]`.
    rows: Vec<Vec<CoreScore>>,
    /// Hour of each first sighting, by slot.
    first_hours: Vec<f64>,
    /// [`kind_index`] of each first sighting, by slot.
    first_kinds: Vec<u8>,
    /// Armed suspicion threshold, if any (see [`Scoreboard::arm`]).
    armed: Option<f64>,
    /// Cores whose suspicion has ever reached the armed threshold.
    /// Evidence is monotone non-decreasing, so this is always a superset
    /// of the cores currently at or above it — which lets
    /// [`Scoreboard::armed_suspects_excluding`] skip the fleet-wide scan.
    watchlist: BTreeSet<CoreUid>,
}

/// Appends `score` to the slab and returns its row number.
fn push_row(rows: &mut Vec<Vec<CoreScore>>, score: CoreScore) -> u32 {
    let ix = rows
        .last()
        .map_or(0, |b| (rows.len() - 1) * BLOCK_ROWS + b.len());
    if ix.is_multiple_of(BLOCK_ROWS) {
        rows.push(Vec::with_capacity(BLOCK_ROWS));
    }
    rows.last_mut().expect("the new row's block").push(score);
    u32::try_from(ix)
        .ok()
        .filter(|&ix| ix < SINGLETON)
        .expect("fewer than 2^31 rows")
}

/// Most suspicious first, ties by core.
fn ranked(mut out: Vec<CoreScore>) -> Vec<CoreScore> {
    out.sort_by(|a, b| {
        b.suspicion()
            .partial_cmp(&a.suspicion())
            .expect("suspicion is finite")
            .then(a.core.cmp(&b.core))
    });
    out
}

impl Scoreboard {
    /// Creates an empty scoreboard.
    pub fn new() -> Scoreboard {
        Scoreboard::default()
    }

    /// Ingests one signal. An enabled `rec` gets a `score.first_signal`
    /// instant the first time a core is accused and a `score.recidivist`
    /// instant when it crosses the recidivism predicate (second signal).
    pub fn ingest(&mut self, signal: &Signal, rec: &mut Recorder) {
        let kind = kind_index(signal.kind);
        let fresh = u32::try_from(self.first_hours.len())
            .ok()
            .filter(|&slot| slot < SINGLETON)
            .expect("fewer than 2^31 first sightings")
            | SINGLETON;
        let value = self.index.entry(signal.core).or_insert(fresh);
        if *value == fresh {
            rec.instant(
                signal.hour,
                "score.first_signal",
                Some(signal.core.as_u64()),
                0.0,
            );
            match self.armed {
                Some(threshold) if suspicion_of(KIND_WEIGHTS[kind]) >= threshold => {
                    let first = CoreScore::first(signal.core, kind, signal.hour);
                    *value = push_row(&mut self.rows, first);
                    self.watchlist.insert(signal.core);
                }
                _ => {
                    self.first_hours.push(signal.hour);
                    self.first_kinds.push(kind as u8);
                }
            }
            return;
        }
        if *value & SINGLETON != 0 {
            let slot = (*value & !SINGLETON) as usize;
            let first = CoreScore::first(
                signal.core,
                usize::from(self.first_kinds[slot]),
                self.first_hours[slot],
            );
            *value = push_row(&mut self.rows, first);
        }
        let ix = *value as usize;
        let entry = &mut self.rows[ix / BLOCK_ROWS][ix % BLOCK_ROWS];
        let count = &mut entry.counts[kind];
        *count = count
            .checked_add(1)
            .expect("per-kind signal count fits u32");
        entry.first_hour = entry.first_hour.min(signal.hour);
        entry.last_hour = entry.last_hour.max(signal.hour);
        let before = entry.evidence;
        entry.evidence += KIND_WEIGHTS[kind];
        // Watch only the first crossing. "Crossed before" is read from
        // the evidence before this signal, not recomputed by subtracting
        // the weight back out: `(a + w) - w` need not equal `a`.
        if let Some(threshold) = self.armed {
            if entry.suspicion() >= threshold && suspicion_of(before) < threshold {
                self.watchlist.insert(signal.core);
            }
        }
        if entry.total() == 2 {
            rec.instant(
                signal.hour,
                "score.recidivist",
                Some(signal.core.as_u64()),
                entry.suspicion(),
            );
        }
    }

    /// Ingests a batch, then bumps the `score.signals_ingested` counter
    /// once for the whole batch.
    ///
    /// An auditing recorder also gets decision provenance: before each
    /// signal is ingested, a `score.signal` instant whose value is the
    /// dense [`kind_index`] of the signal kind. The audit ledger decodes
    /// the index back into the canonical kind name, giving per-kind
    /// precision/recall without widening the trace schema. Only the audit
    /// layer pays for this firehose; a recording recorder keeps just the
    /// first-signal/recidivist milestones.
    pub fn ingest_all<'a>(
        &mut self,
        signals: impl IntoIterator<Item = &'a Signal>,
        rec: &mut Recorder,
    ) {
        let provenance = rec.audits();
        let mut n = 0u64;
        for s in signals {
            if provenance {
                rec.instant(
                    s.hour,
                    "score.signal",
                    Some(s.core.as_u64()),
                    kind_index(s.kind) as f64,
                );
            }
            self.ingest(s, rec);
            n += 1;
        }
        rec.counter_add("score.signals_ingested", n);
    }

    /// The score for one core, if any signal has been seen.
    pub fn score(&self, core: CoreUid) -> Option<CoreScore> {
        self.index.get(&core).map(|&v| self.score_at(core, v))
    }

    /// The score behind index value `v` of `core`.
    fn score_at(&self, core: CoreUid, v: u32) -> CoreScore {
        if v & SINGLETON != 0 {
            let slot = (v & !SINGLETON) as usize;
            CoreScore::first(
                core,
                usize::from(self.first_kinds[slot]),
                self.first_hours[slot],
            )
        } else {
            self.row(v).clone()
        }
    }

    /// Row `ix` of the slab.
    fn row(&self, ix: u32) -> &CoreScore {
        let ix = ix as usize;
        &self.rows[ix / BLOCK_ROWS][ix % BLOCK_ROWS]
    }

    /// Every row, in promotion order.
    fn all_rows(&self) -> impl Iterator<Item = &CoreScore> {
        self.rows.iter().flatten()
    }

    /// The cores still at their first sighting whose one signal alone
    /// reaches `threshold`, with their index values.
    fn singletons_reaching(&self, threshold: f64) -> impl Iterator<Item = (CoreUid, u32)> + '_ {
        let reaches = KIND_WEIGHTS.map(|w| suspicion_of(w) >= threshold);
        self.index.iter().filter_map(move |(&core, &v)| {
            let slot = (v & !SINGLETON) as usize;
            (v & SINGLETON != 0 && reaches[usize::from(self.first_kinds[slot])])
                .then_some((core, v))
        })
    }

    /// Cores whose suspicion exceeds `threshold`, most suspicious first.
    pub fn suspects(&self, threshold: f64) -> Vec<CoreScore> {
        self.suspects_excluding(threshold, |_| false)
    }

    /// Like [`Scoreboard::suspects`], but skipping cores for which
    /// `exclude` returns `true` (already detected, quarantined, or
    /// previously triaged). Order is identical: most suspicious first,
    /// ties by core.
    pub fn suspects_excluding(
        &self,
        threshold: f64,
        exclude: impl Fn(CoreUid) -> bool,
    ) -> Vec<CoreScore> {
        let rows = self
            .all_rows()
            .filter(|s| s.suspicion() >= threshold)
            .cloned();
        let singletons = self
            .singletons_reaching(threshold)
            .map(|(core, v)| self.score_at(core, v));
        ranked(
            rows.chain(singletons)
                .filter(|s| !exclude(s.core))
                .collect(),
        )
    }

    /// Arms a suspicion threshold: from now on the scoreboard keeps a
    /// watchlist of every core whose suspicion has reached it, so
    /// [`Scoreboard::armed_suspects_excluding`] can answer without
    /// scanning every accused core. Existing scores are backfilled, and
    /// first sightings that already reach it are promoted to rows.
    pub fn arm(&mut self, threshold: f64) {
        self.armed = Some(threshold);
        let crossing: Vec<(CoreUid, u32)> = self.singletons_reaching(threshold).collect();
        for (core, v) in crossing {
            let first = self.score_at(core, v);
            let row = push_row(&mut self.rows, first);
            self.index.insert(core, row);
        }
        self.watchlist = self
            .all_rows()
            .filter(|s| s.suspicion() >= threshold)
            .map(|s| s.core)
            .collect();
    }

    /// [`Scoreboard::suspects_excluding`] at the armed threshold, served
    /// from the watchlist's rows: identical output (same filter
    /// predicate, same total sort order), but O(watchlist) instead of
    /// O(cores accused).
    ///
    /// # Panics
    ///
    /// Panics if [`Scoreboard::arm`] has not been called.
    pub fn armed_suspects_excluding(&self, exclude: impl Fn(CoreUid) -> bool) -> Vec<CoreScore> {
        let threshold = self.armed.expect("scoreboard is armed");
        ranked(
            self.watchlist
                .iter()
                .map(|core| self.row(self.index[core]))
                .filter(|s| s.suspicion() >= threshold && !exclude(s.core))
                .cloned()
                .collect(),
        )
    }

    /// Number of cores with any signal.
    pub fn cores_seen(&self) -> usize {
        self.index.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(core: CoreUid, kind: SignalKind, hour: f64) -> Signal {
        Signal {
            hour,
            core,
            kind,
            caused_by_cee: true,
        }
    }

    #[test]
    fn single_crash_is_weak_evidence() {
        let mut b = Scoreboard::new();
        let rec = &mut Recorder::disabled();
        let core = CoreUid::new(1, 0, 0);
        b.ingest(&sig(core, SignalKind::ProcessCrash, 10.0), rec);
        let s = b.score(core).unwrap();
        assert!(!s.is_recidivist());
        assert!(s.suspicion() < 0.2, "suspicion {}", s.suspicion());
    }

    #[test]
    fn screener_failure_is_strong_evidence() {
        let mut b = Scoreboard::new();
        let rec = &mut Recorder::disabled();
        let core = CoreUid::new(1, 0, 0);
        b.ingest(&sig(core, SignalKind::ScreenerFailure, 10.0), rec);
        assert!(b.score(core).unwrap().suspicion() > 0.7);
    }

    #[test]
    fn recidivism_accumulates() {
        let mut b = Scoreboard::new();
        let rec = &mut Recorder::disabled();
        let core = CoreUid::new(2, 1, 5);
        for i in 0..5 {
            b.ingest(&sig(core, SignalKind::AppChecksumMismatch, i as f64), rec);
        }
        let s = b.score(core).unwrap();
        assert!(s.is_recidivist());
        assert!(s.suspicion() > 0.9);
        assert_eq!(s.total(), 5);
        assert_eq!(s.first_hour, 0.0);
        assert_eq!(s.last_hour, 4.0);
    }

    #[test]
    fn suspects_sorted_by_suspicion() {
        let mut b = Scoreboard::new();
        let rec = &mut Recorder::disabled();
        let weak = CoreUid::new(1, 0, 0);
        let strong = CoreUid::new(2, 0, 0);
        b.ingest(&sig(weak, SignalKind::ProcessCrash, 0.0), rec);
        for i in 0..4 {
            b.ingest(&sig(strong, SignalKind::MachineCheckEvent, i as f64), rec);
        }
        let suspects = b.suspects(0.0);
        assert_eq!(suspects[0].core, strong);
        assert_eq!(b.suspects(0.9).len(), 1);
    }

    #[test]
    fn suspects_excluding_preserves_order() {
        let mut b = Scoreboard::new();
        let rec = &mut Recorder::disabled();
        let a = CoreUid::new(1, 0, 0);
        let c = CoreUid::new(2, 0, 0);
        let d = CoreUid::new(3, 0, 0);
        for core in [a, c, d] {
            for i in 0..4 {
                b.ingest(&sig(core, SignalKind::MachineCheckEvent, i as f64), rec);
            }
        }
        let all = b.suspects(0.5);
        assert_eq!(all.len(), 3);
        let filtered = b.suspects_excluding(0.5, |core| core == c);
        assert_eq!(
            filtered.iter().map(|s| s.core).collect::<Vec<_>>(),
            vec![a, d]
        );
    }

    #[test]
    fn armed_watchlist_matches_the_full_scan() {
        let mut armed = Scoreboard::new();
        armed.arm(0.5);
        let mut plain = Scoreboard::new();
        let rec = &mut Recorder::disabled();
        // A spread of strengths: some cross 0.5, some never do, one is
        // excluded at query time.
        for (m, n, kind) in [
            (1u32, 1, SignalKind::ProcessCrash),
            (2, 4, SignalKind::MachineCheckEvent),
            (3, 2, SignalKind::UserReport),
            (4, 1, SignalKind::ScreenerFailure),
            (5, 3, SignalKind::AppChecksumMismatch),
        ] {
            for i in 0..n {
                let s = sig(CoreUid::new(m, 0, 0), kind, i as f64);
                armed.ingest(&s, rec);
                plain.ingest(&s, rec);
            }
        }
        let exclude = |core: CoreUid| core.machine == 4;
        let fast: Vec<CoreUid> = armed
            .armed_suspects_excluding(exclude)
            .iter()
            .map(|s| s.core)
            .collect();
        let slow: Vec<CoreUid> = plain
            .suspects_excluding(0.5, exclude)
            .iter()
            .map(|s| s.core)
            .collect();
        assert_eq!(fast, slow);
        assert!(!fast.is_empty());

        // Arming after the fact backfills the same watchlist.
        let mut late = plain.clone();
        late.arm(0.5);
        let backfilled: Vec<CoreUid> = late
            .armed_suspects_excluding(exclude)
            .iter()
            .map(|s| s.core)
            .collect();
        assert_eq!(backfilled, slow);
    }

    #[test]
    fn cores_seen_counts_distinct() {
        let mut b = Scoreboard::new();
        let rec = &mut Recorder::disabled();
        b.ingest(
            &sig(CoreUid::new(1, 0, 0), SignalKind::UserReport, 0.0),
            rec,
        );
        b.ingest(
            &sig(CoreUid::new(1, 0, 0), SignalKind::UserReport, 1.0),
            rec,
        );
        b.ingest(
            &sig(CoreUid::new(2, 0, 0), SignalKind::UserReport, 2.0),
            rec,
        );
        assert_eq!(b.cores_seen(), 2);
    }
}
