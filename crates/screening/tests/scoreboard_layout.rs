//! The scoreboard's slab layout (fixed blocks of rows behind a core →
//! row index) must answer every query exactly as a plain map from core
//! to score does. `MapBoard` below is that map-of-rows scoreboard, kept
//! here as the reference; one seeded stream drives both, and every score,
//! suspect list, armed watchlist answer and trace instant is compared.

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

fn cores(list: Vec<&CoreScore>) -> Vec<CoreUid> {
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
        assert_eq!(cores(late.armed_suspects_excluding(exclude)), want, "t={t}");
    }
}
