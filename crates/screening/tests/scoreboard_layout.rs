//! The scoreboard's layout (a first-sighting tier of hour and kind
//! columns, promoted to fixed blocks of rows behind one core → entry
//! index) must answer every query exactly as a plain map from core to
//! score does. `MapBoard` below is that map-of-rows scoreboard, kept here
//! as the reference; seeded and hand-built streams drive both, and every
//! score, suspect list, armed watchlist answer and trace instant is
//! compared.

use mercurial_fault::{CoreUid, CounterRng, FastMap};
use mercurial_fleet::{Signal, SignalKind};
use mercurial_screening::{CoreScore, Scoreboard};
use mercurial_trace::Recorder;
use std::collections::BTreeSet;

const KINDS: [SignalKind; 8] = [
    SignalKind::AppChecksumMismatch,
    SignalKind::ProcessCrash,
    SignalKind::KernelCrash,
    SignalKind::MachineCheckEvent,
    SignalKind::SanitizerHit,
    SignalKind::ReplicaDivergence,
    SignalKind::UserReport,
    SignalKind::ScreenerFailure,
];

fn kind_index(kind: SignalKind) -> usize {
    KINDS.iter().position(|&k| k == kind).expect("listed kind")
}

fn kind_weight(kind: SignalKind) -> f64 {
    match kind {
        SignalKind::ScreenerFailure => 4.0,
        SignalKind::MachineCheckEvent => 2.0,
        SignalKind::AppChecksumMismatch => 1.5,
        SignalKind::ReplicaDivergence => 2.0,
        SignalKind::SanitizerHit => 1.0,
        SignalKind::UserReport => 1.0,
        SignalKind::KernelCrash => 0.7,
        SignalKind::ProcessCrash => 0.4,
    }
}

#[derive(Debug, Clone)]
struct MapScore {
    core: CoreUid,
    counts: [u64; 8],
    first_hour: f64,
    last_hour: f64,
    evidence: f64,
}

impl MapScore {
    fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    fn suspicion(&self) -> f64 {
        suspicion(self.evidence)
    }
}

/// The reference: one map entry per accused core, scanned in full for
/// every query, with the watchlist re-inserted on every signal at or
/// above the armed threshold.
#[derive(Debug, Clone, Default)]
struct MapBoard {
    scores: FastMap<CoreUid, MapScore>,
    armed: Option<f64>,
    watchlist: BTreeSet<CoreUid>,
}

impl MapBoard {
    fn ingest(&mut self, signal: &Signal, rec: &mut Recorder) {
        let mut is_new = false;
        let entry = self.scores.entry(signal.core).or_insert_with(|| {
            is_new = true;
            MapScore {
                core: signal.core,
                counts: [0; 8],
                first_hour: signal.hour,
                last_hour: signal.hour,
                evidence: 0.0,
            }
        });
        entry.counts[kind_index(signal.kind)] += 1;
        entry.first_hour = entry.first_hour.min(signal.hour);
        entry.last_hour = entry.last_hour.max(signal.hour);
        entry.evidence += kind_weight(signal.kind);
        if self.armed.is_some_and(|t| entry.suspicion() >= t) {
            self.watchlist.insert(signal.core);
        }
        if is_new {
            rec.instant(
                signal.hour,
                "score.first_signal",
                Some(signal.core.as_u64()),
                0.0,
            );
        } else if entry.total() == 2 {
            rec.instant(
                signal.hour,
                "score.recidivist",
                Some(signal.core.as_u64()),
                entry.suspicion(),
            );
        }
    }

    fn suspects_excluding(
        &self,
        threshold: f64,
        exclude: impl Fn(CoreUid) -> bool,
    ) -> Vec<CoreUid> {
        ranked(
            self.scores
                .values()
                .filter(|s| s.suspicion() >= threshold && !exclude(s.core))
                .collect(),
        )
    }

    fn armed_suspects_excluding(&self, exclude: impl Fn(CoreUid) -> bool) -> Vec<CoreUid> {
        let threshold = self.armed.expect("armed");
        ranked(
            self.watchlist
                .iter()
                .map(|core| &self.scores[core])
                .filter(|s| s.suspicion() >= threshold && !exclude(s.core))
                .collect(),
        )
    }

    fn arm(&mut self, threshold: f64) {
        self.armed = Some(threshold);
        self.watchlist = self
            .scores
            .values()
            .filter(|s| s.suspicion() >= threshold)
            .map(|s| s.core)
            .collect();
    }
}

/// Most suspicious first, ties by core.
fn ranked(mut out: Vec<&MapScore>) -> Vec<CoreUid> {
    out.sort_by(|a, b| {
        b.suspicion()
            .partial_cmp(&a.suspicion())
            .expect("finite")
            .then(a.core.cmp(&b.core))
    });
    out.iter().map(|s| s.core).collect()
}

fn cores(list: Vec<CoreScore>) -> Vec<CoreUid> {
    list.iter().map(|s| s.core).collect()
}

/// Every score field for field, bit for bit.
fn assert_same_scores(board: &Scoreboard, reference: &MapBoard) {
    assert_eq!(board.cores_seen(), reference.scores.len(), "cores_seen");
    for (core, want) in &reference.scores {
        let got = board.score(*core).expect("every accused core is scored");
        assert_eq!(got.core, want.core);
        for kind in KINDS {
            assert_eq!(
                got.count_of(kind),
                want.counts[kind_index(kind)],
                "{core} {kind:?}"
            );
        }
        assert_eq!(got.total(), want.total(), "{core} total");
        assert_eq!(got.first_hour.to_bits(), want.first_hour.to_bits());
        assert_eq!(got.last_hour.to_bits(), want.last_hour.to_bits());
        assert_eq!(got.evidence.to_bits(), want.evidence.to_bits(), "{core}");
        assert_eq!(got.suspicion().to_bits(), want.suspicion().to_bits());
    }
}

/// Cores signalled with these kinds, in order, land exactly on a
/// threshold crossing: 0.7 + 2.0.
const EXACT: [SignalKind; 2] = [SignalKind::KernelCrash, SignalKind::MachineCheckEvent];

/// Cores signalled with these kinds, in order, end where subtracting the
/// last weight back out does not give the evidence before it:
/// `(a + 1.5) - 1.5` lands one ulp above `a` = 4.0 + 2.0 + 0.7 + 0.4,
/// and that ulp moves the suspicion.
const LATE: [SignalKind; 5] = [
    SignalKind::ScreenerFailure,
    SignalKind::ReplicaDivergence,
    SignalKind::KernelCrash,
    SignalKind::ProcessCrash,
    SignalKind::AppChecksumMismatch,
];

/// Evidence after `kinds`, summed in order as the scoreboard sums it.
fn evidence_of(kinds: &[SignalKind]) -> f64 {
    kinds.iter().fold(0.0, |e, &k| e + kind_weight(k))
}

fn suspicion(evidence: f64) -> f64 {
    1.0 - (-evidence / 3.0).exp()
}

/// A seeded stream over more than three slab blocks of distinct cores:
/// a wide set of one-off noise cores, a narrow set of recidivists, every
/// kind, hours out of order, plus cores signalled [`EXACT`] and
/// [`LATE`].
fn stream(seed: u64) -> Vec<Signal> {
    let mut rng = CounterRng::new(seed);
    let mut out = Vec::new();
    for i in 0..16_000u32 {
        let machine = if rng.next_below(4) == 0 {
            rng.next_below(60) as u32
        } else {
            100 + rng.next_below(5_000) as u32
        };
        let core = CoreUid::new(machine, rng.next_below(2) as u8, rng.next_below(3) as u16);
        out.push(Signal {
            hour: rng.next_uniform() * 10_000.0,
            core,
            kind: KINDS[rng.next_below(8) as usize],
            caused_by_cee: false,
        });
        if i % 1_000 == 0 {
            for (socket, kinds) in [&EXACT[..], &LATE[..]].into_iter().enumerate() {
                let core = CoreUid::new(20_000 + i, socket as u8, 0);
                for &kind in kinds {
                    out.push(Signal {
                        hour: f64::from(i),
                        core,
                        kind,
                        caused_by_cee: true,
                    });
                }
            }
        }
    }
    out
}

#[test]
fn slab_scoreboard_matches_the_map_reference() {
    let boundary = suspicion(evidence_of(&EXACT));
    // A scoreboard that took "crossed before" from the evidence minus the
    // last weight would think the `LATE` cores had already crossed this
    // threshold before their last signal, and never watch them.
    let subtracted = evidence_of(&LATE) - kind_weight(LATE[4]);
    let just_above = suspicion(subtracted);
    assert!(suspicion(evidence_of(&LATE[..4])) < just_above);
    let thresholds = [0.0, 0.3, 0.6, boundary, just_above, 0.9];
    let exclude = |core: CoreUid| core.machine % 7 == 3;
    let signals = stream(24);

    let mut board = Scoreboard::new();
    let mut reference = MapBoard::default();
    let mut armed: Vec<(Scoreboard, MapBoard)> = thresholds
        .iter()
        .map(|&t| {
            let mut b = Scoreboard::new();
            b.arm(t);
            let mut r = MapBoard::default();
            r.arm(t);
            (b, r)
        })
        .collect();
    let mut rec = Recorder::new(mercurial_trace::TraceLevel::Record);
    let mut reference_rec = Recorder::new(mercurial_trace::TraceLevel::Record);
    let quiet = &mut Recorder::disabled();
    for (i, s) in signals.iter().enumerate() {
        board.ingest(s, &mut rec);
        reference.ingest(s, &mut reference_rec);
        for (b, r) in &mut armed {
            b.ingest(s, quiet);
            r.ingest(s, quiet);
        }
        if i % 4_000 == 3_999 {
            for ((b, r), &t) in armed.iter().zip(&thresholds) {
                let want = r.suspects_excluding(t, exclude);
                assert_eq!(r.armed_suspects_excluding(exclude), want, "t={t}");
                assert_eq!(cores(b.armed_suspects_excluding(exclude)), want, "t={t}");
            }
        }
    }
    assert!(
        board.cores_seen() > 3 * 1024,
        "{} cores",
        board.cores_seen()
    );
    assert!(board.suspects(0.0).iter().any(|s| s.total() > 2));
    for kind in KINDS {
        assert!(signals.iter().any(|s| s.kind == kind), "{kind:?} drawn");
    }

    assert_same_scores(&board, &reference);
    let events = rec.take_events();
    assert!(events.iter().any(|e| e.name == "score.recidivist"));
    assert_eq!(events, reference_rec.take_events(), "score instants");

    for &t in &thresholds {
        assert_eq!(
            cores(board.suspects(t)),
            reference.suspects_excluding(t, |_| false),
            "suspects({t})"
        );
        assert_eq!(
            cores(board.suspects_excluding(t, exclude)),
            reference.suspects_excluding(t, exclude),
            "suspects_excluding({t})"
        );
    }
    let at_boundary = board
        .suspects(boundary)
        .iter()
        .filter(|s| s.evidence == evidence_of(&EXACT))
        .count();
    assert!(
        at_boundary >= 16,
        "{at_boundary} cores exactly at the boundary"
    );

    // Armed before ingest (the watchlist grows per signal) and after it
    // (the watchlist is backfilled from the stored rows).
    for ((b, r), &t) in armed.iter().zip(&thresholds) {
        assert_same_scores(b, r);
        let want = reference.suspects_excluding(t, exclude);
        assert_eq!(r.armed_suspects_excluding(exclude), want, "t={t}");
        assert_eq!(cores(b.armed_suspects_excluding(exclude)), want, "t={t}");
        let mut late = board.clone();
        late.arm(t);
        assert_same_scores(&late, &reference);
        assert_eq!(cores(late.armed_suspects_excluding(exclude)), want, "t={t}");
    }
}

fn sig(machine: u32, kind: SignalKind, hour: f64) -> Signal {
    Signal {
        hour,
        core: CoreUid::new(machine, 0, 0),
        kind,
        caused_by_cee: false,
    }
}

/// Every query of `board` against `reference` at `threshold`: scores
/// bit for bit, suspect lists, and the armed answer if armed.
fn assert_same_answers(board: &Scoreboard, reference: &MapBoard, threshold: f64) {
    assert_same_scores(board, reference);
    let exclude = |core: CoreUid| core.machine % 5 == 2;
    for excluded in [false, true] {
        let ex = |core| excluded && exclude(core);
        assert_eq!(
            cores(board.suspects_excluding(threshold, ex)),
            reference.suspects_excluding(threshold, ex),
            "suspects_excluding({threshold})"
        );
        if reference.armed.is_some() {
            assert_eq!(
                cores(board.armed_suspects_excluding(ex)),
                reference.armed_suspects_excluding(ex),
                "armed at {threshold}"
            );
        }
    }
}

/// Every kind once on a core of its own, and every ordered pair of kinds
/// on a core of its own, hours out of order in half the pairs: first
/// sightings that stay single, and promotions at the second accusation
/// whose first hour comes from either signal.
fn singles_and_pairs() -> Vec<Signal> {
    let mut out = Vec::new();
    let mut machine = 0;
    for (i, &a) in KINDS.iter().enumerate() {
        out.push(sig(machine, a, 10.0 + i as f64));
        machine += 1;
        for (j, &b) in KINDS.iter().enumerate() {
            let (h1, h2) = if (i + j) % 2 == 0 {
                (5.0, 7.5)
            } else {
                (7.5, 5.0)
            };
            out.push(sig(machine, a, h1));
            out.push(sig(machine, b, h2));
            machine += 1;
        }
    }
    out
}

#[test]
fn first_sightings_promote_bit_for_bit_armed_early_late_or_never() {
    // Thresholds a single signal of some kind reaches exactly, one only a
    // `ScreenerFailure` (weight 4, suspicion 0.736) reaches alone, and
    // ones nothing single reaches.
    let heavy = suspicion(kind_weight(SignalKind::ScreenerFailure));
    assert!(heavy > 0.73 && heavy < 0.74, "{heavy}");
    let thresholds = [
        0.0,
        suspicion(kind_weight(SignalKind::ProcessCrash)),
        suspicion(kind_weight(SignalKind::MachineCheckEvent)),
        0.7,
        heavy,
        0.9,
    ];
    let signals = singles_and_pairs();
    // A third signal on every core, after any late arm: a row promoted by
    // `arm` must take it once.
    let third: Vec<Signal> = signals
        .iter()
        .map(|s| sig(s.core.machine, SignalKind::KernelCrash, 20.0))
        .collect();
    for &t in &thresholds {
        let mut unarmed = Scoreboard::new();
        let mut unarmed_ref = MapBoard::default();
        let mut armed = Scoreboard::new();
        armed.arm(t);
        let mut armed_ref = MapBoard::default();
        armed_ref.arm(t);
        let mut rec = Recorder::new(mercurial_trace::TraceLevel::Record);
        let mut reference_rec = Recorder::new(mercurial_trace::TraceLevel::Record);
        for s in &signals {
            unarmed.ingest(s, &mut rec);
            unarmed_ref.ingest(s, &mut reference_rec);
            armed.ingest(s, &mut rec);
            armed_ref.ingest(s, &mut reference_rec);
            // An armed board serves a core that crosses on its first
            // signal at once.
            assert_eq!(
                cores(armed.armed_suspects_excluding(|_| false)),
                armed_ref.armed_suspects_excluding(|_| false),
                "t={t}"
            );
        }
        assert_eq!(rec.take_events(), reference_rec.take_events(), "t={t}");
        assert_same_answers(&unarmed, &unarmed_ref, t);
        assert_same_answers(&armed, &armed_ref, t);

        let mut late = unarmed.clone();
        late.arm(t);
        let mut late_ref = unarmed_ref.clone();
        late_ref.arm(t);
        assert_same_answers(&late, &late_ref, t);
        for s in &third {
            late.ingest(s, &mut rec);
            late_ref.ingest(s, &mut reference_rec);
            armed.ingest(s, &mut rec);
            armed_ref.ingest(s, &mut reference_rec);
        }
        assert_eq!(rec.take_events(), reference_rec.take_events(), "t={t}");
        assert_same_answers(&late, &late_ref, t);
        assert_same_answers(&armed, &armed_ref, t);
    }
}

#[test]
fn a_first_sighting_scores_and_ranks_like_a_row() {
    let mut board = Scoreboard::new();
    let rec = &mut Recorder::disabled();
    let heavy = sig(1, SignalKind::ScreenerFailure, 3.5);
    let light = sig(2, SignalKind::ProcessCrash, 1.25);
    board.ingest(&heavy, rec);
    board.ingest(&light, rec);

    let score = board.score(heavy.core).expect("accused once");
    assert_eq!(score.core, heavy.core);
    assert_eq!(score.count_of(SignalKind::ScreenerFailure), 1);
    assert_eq!(score.total(), 1);
    assert!(!score.is_recidivist());
    assert_eq!(score.first_hour, 3.5);
    assert_eq!(score.last_hour, 3.5);
    assert_eq!(score.evidence.to_bits(), (0.0 + 4.0f64).to_bits());
    assert!(board.score(CoreUid::new(3, 0, 0)).is_none());

    // The unarmed board's suspect lists include first sightings at or
    // above the threshold, ranked with the rows.
    let suspects = board.suspects(0.7);
    assert_eq!(suspects, vec![score.clone()]);
    assert_eq!(cores(board.suspects(0.0)), vec![heavy.core, light.core]);
    assert!(board
        .suspects_excluding(0.7, |c| c == heavy.core)
        .is_empty());

    // A recidivist outranks it once its evidence is higher.
    for h in [0.0, 1.0] {
        board.ingest(&sig(4, SignalKind::MachineCheckEvent, h), rec);
        board.ingest(&sig(4, SignalKind::ReplicaDivergence, h), rec);
    }
    assert_eq!(
        cores(board.suspects(0.7)),
        vec![CoreUid::new(4, 0, 0), heavy.core]
    );
    assert_eq!(board.cores_seen(), 3);
}
