//! The wire protocol: one message per frame.
//!
//! Two logical channels share one TCP connection:
//!
//! * the **lockstep channel** (`Config`/`Cmd` down, `Report`/`Bye` up) —
//!   reliable by construction, it carries the closed-loop state machine;
//! * the **telemetry channel** (`Evidence`/`Trace` up) — the
//!   suspect-signal and trace stream the link-impairment model is allowed
//!   to mangle, exactly like the lossy monitoring path of a real fleet.
//!
//! `Evidence`, the one bulk payload, travels as a fixed-width binary
//! record; every other message is JSON. As JSON, evidence was most of the
//! bytes a served run moved: at 200k machines and two workers, 6.5 MB
//! over 720 frames, ~118 B a signal, each built and parsed through a
//! `Value` tree. On a 2-vCPU x86-64 VM the server's codec time fell from
//! ~0.11 to ~0.02 s of CPU with the binary body, and evidence to 1.0 MB.
//! The body (tag `0xFF`, which no UTF-8 and therefore no JSON text
//! starts with) is:
//!
//! ```text
//! 0xFF | worker u32 | epoch u32 | count u32 | count × signal record
//! signal record (18 B) = hour f64 bits u64 | CoreUid::as_u64 u64 | kind u8 | cee u8
//! ```
//!
//! All integers are little-endian. The decoder checks the length against
//! the count, the kind index, the cee byte and the uid encoding, so a
//! malformed body is `InvalidData`, never a panic. The low-volume
//! messages stay JSON: their types already carry serde derives for
//! scenario and report persistence, and a readable frame is worth more
//! there than a few bytes.

use std::io::{self, Read, Write};

use mercurial::fault::CoreUid;
use mercurial::shardloop::{EpochCommands, ShardEpochReport};
use mercurial_fleet::{Signal, SignalKind, SignalLog};
use mercurial_prof::{Prof, ProfileEntry};
use serde::{Deserialize, Serialize};

use crate::frame::{read_frame, write_frame};

/// Protocol revision; bumped on any wire-visible change.
pub const PROTO_VERSION: u32 = 2;

/// One worker counter at end of run (worker-side metric names are a fixed
/// compile-time set, shipped by value because `MetricSet` interns
/// `&'static str` keys).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Metric name.
    pub name: String,
    /// Final counter value.
    pub value: u64,
}

/// One worker gauge at end of run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeEntry {
    /// Metric name.
    pub name: String,
    /// Last-written value.
    pub value: f64,
}

/// Every message that can cross the socket.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Message {
    /// Worker → server, first frame after connecting.
    Hello {
        /// The worker's [`PROTO_VERSION`]; mismatches abort the handshake.
        proto: u32,
    },
    /// Server → worker: the run configuration and this worker's shard.
    Config {
        /// Full scenario as JSON (workers build their shard's experiment
        /// from it, so determinism needs no shared filesystem).
        scenario: String,
        /// This worker's index (also its report order).
        worker: u32,
        /// First owned machine.
        lo: u32,
        /// One past the last owned machine.
        hi: u32,
    },
    /// Server → worker: one epoch's restore/quarantine commands.
    Cmd {
        /// The epoch commands (worker asserts the epoch matches its own).
        cmds: EpochCommands,
    },
    /// Worker → server: the epoch's suspect-signal batch (the impairable
    /// telemetry frame, split out of the report). The one message with a
    /// binary body: 13 header bytes plus 18 bytes a signal.
    Evidence {
        /// Originating worker.
        worker: u32,
        /// Epoch the signals were drawn in.
        epoch: u32,
        /// The signals.
        log: SignalLog,
    },
    /// Worker → server: the epoch's lockstep report (evidence emptied —
    /// it travels in the [`Message::Evidence`] frame).
    Report {
        /// The shard's epoch report (boxed: it dwarfs the other variants).
        report: Box<ShardEpochReport>,
    },
    /// Worker → server: trace events drained since the last epoch,
    /// streamed through the standard JSONL sink.
    Trace {
        /// Originating worker.
        worker: u32,
        /// Zero or more complete JSONL lines (may be empty).
        jsonl: String,
    },
    /// Server → worker: the run is over; send your tail and hang up.
    Fin,
    /// Worker → server: end-of-run metric readout (counters sum across
    /// workers; histograms are aggregator-side by design, so none ship).
    Bye {
        /// Final counters.
        counters: Vec<CounterEntry>,
        /// Final gauges.
        gauges: Vec<GaugeEntry>,
        /// The worker's wall-clock phase profile (empty unless the
        /// worker process profiles, i.e. `MERCURIAL_PROF` is set). The
        /// server absorbs these in worker-index order — the same merge
        /// discipline as trace shards — and the payload is write-only
        /// observability, so shipping it cannot perturb outcomes.
        #[serde(default)]
        profile: Vec<ProfileEntry>,
    },
}

/// Serialize and frame one message, with phase attribution
/// (`serve.encode` / `serve.io`); returns the frame's wire size (header +
/// payload) for throughput accounting. The caller flushes.
///
/// # Errors
///
/// Propagates the writer's I/O error.
pub fn send(w: &mut impl Write, msg: &Message, prof: &Prof) -> io::Result<u64> {
    let body = {
        let _p = prof.span("serve.encode");
        match msg {
            Message::Evidence { worker, epoch, log } => encode_evidence(*worker, *epoch, log)?,
            _ => serde_json::to_string(msg)
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
                .into_bytes(),
        }
    };
    let _p = prof.span("serve.io");
    write_frame(w, &body)?;
    Ok(4 + body.len() as u64)
}

/// Read and decode one message with phase attribution (`serve.io` /
/// `serve.decode`), and the frame's wire size (header + payload) for
/// throughput accounting; `Ok(None)` on clean EOF.
///
/// # Errors
///
/// Propagates the reader's I/O error; malformed payloads are
/// `InvalidData`.
pub fn recv(r: &mut impl Read, prof: &Prof) -> io::Result<Option<(Message, u64)>> {
    let payload = {
        let _p = prof.span("serve.io");
        match read_frame(r)? {
            Some(p) => p,
            None => return Ok(None),
        }
    };
    let _p = prof.span("serve.decode");
    let size = 4 + payload.len() as u64;
    let msg = if payload.first() == Some(&EVIDENCE_TAG) {
        decode_evidence(&payload)?
    } else {
        let text = String::from_utf8(payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
    };
    Ok(Some((msg, size)))
}

/// First byte of a binary `Evidence` body. `0xFF` never occurs in UTF-8,
/// so it cannot start a JSON frame.
const EVIDENCE_TAG: u8 = 0xFF;

/// Tag, worker, epoch and signal count.
const EVIDENCE_HEADER_BYTES: usize = 1 + 4 + 4 + 4;

/// Hour bits, core uid, kind index and cee flag.
const SIGNAL_RECORD_BYTES: usize = 8 + 8 + 1 + 1;

fn encode_evidence(worker: u32, epoch: u32, log: &SignalLog) -> io::Result<Vec<u8>> {
    let count = u32::try_from(log.len()).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "evidence batch exceeds u32 signals",
        )
    })?;
    let mut body = Vec::with_capacity(EVIDENCE_HEADER_BYTES + SIGNAL_RECORD_BYTES * log.len());
    body.push(EVIDENCE_TAG);
    body.extend_from_slice(&worker.to_le_bytes());
    body.extend_from_slice(&epoch.to_le_bytes());
    body.extend_from_slice(&count.to_le_bytes());
    for s in log.all() {
        body.extend_from_slice(&s.hour.to_bits().to_le_bytes());
        body.extend_from_slice(&s.core.as_u64().to_le_bytes());
        // The kind's index in `SignalKind::ALL`, its declaration order.
        body.push(s.kind as u8);
        body.push(u8::from(s.caused_by_cee));
    }
    Ok(body)
}

fn decode_evidence(body: &[u8]) -> io::Result<Message> {
    let bad =
        |what: String| io::Error::new(io::ErrorKind::InvalidData, format!("evidence: {what}"));
    let Some(header) = body.get(..EVIDENCE_HEADER_BYTES) else {
        return Err(bad(format!("{}-byte body has no header", body.len())));
    };
    let word = |at: usize| u32::from_le_bytes(header[at..at + 4].try_into().expect("4 bytes"));
    let (worker, epoch, count) = (word(1), word(5), word(9));
    let records = &body[EVIDENCE_HEADER_BYTES..];
    if records.len() as u64 != u64::from(count) * SIGNAL_RECORD_BYTES as u64 {
        return Err(bad(format!(
            "{count} signals need {} record bytes, body has {}",
            u64::from(count) * SIGNAL_RECORD_BYTES as u64,
            records.len()
        )));
    }
    let mut log = SignalLog::with_capacity(count as usize);
    for r in records.chunks_exact(SIGNAL_RECORD_BYTES) {
        let hour = f64::from_bits(u64::from_le_bytes(r[..8].try_into().expect("8 bytes")));
        let uid = u64::from_le_bytes(r[8..16].try_into().expect("8 bytes"));
        let core = CoreUid::from_u64(uid);
        if core.as_u64() != uid {
            return Err(bad(format!("core uid {uid:#x} is not a CoreUid encoding")));
        }
        let Some(&kind) = SignalKind::ALL.get(r[16] as usize) else {
            return Err(bad(format!("signal kind index {}", r[16])));
        };
        let caused_by_cee = match r[17] {
            0 => false,
            1 => true,
            b => return Err(bad(format!("cee byte {b}"))),
        };
        log.push(Signal {
            hour,
            core,
            kind,
            caused_by_cee,
        });
    }
    Ok(Message::Evidence { worker, epoch, log })
}

/// A protocol-sequence violation (the peer sent something the state
/// machine cannot accept here).
pub fn proto_err(what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("protocol error: {what}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(hour: f64, core: CoreUid, kind: SignalKind, caused_by_cee: bool) -> Signal {
        Signal {
            hour,
            core,
            kind,
            caused_by_cee,
        }
    }

    /// A signal's fields with the hour as bits, so NaN payloads and the
    /// sign of zero compare exactly.
    fn bits(s: &Signal) -> (u64, CoreUid, SignalKind, bool) {
        (s.hour.to_bits(), s.core, s.kind, s.caused_by_cee)
    }

    fn framed(body: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_frame(&mut buf, body).unwrap();
        buf
    }

    #[test]
    fn messages_roundtrip_through_frames() {
        let mut log = SignalLog::new();
        log.push(signal(
            12.5,
            CoreUid::new(4, 1, 3),
            SignalKind::ProcessCrash,
            false,
        ));
        log.push(signal(
            13.25,
            CoreUid::new(9, 0, 2),
            SignalKind::ScreenerFailure,
            true,
        ));
        let msgs = vec![
            Message::Hello {
                proto: PROTO_VERSION,
            },
            Message::Config {
                scenario: "{\"k\": 1}".to_string(),
                worker: 2,
                lo: 500,
                hi: 1000,
            },
            Message::Cmd {
                cmds: EpochCommands {
                    epoch: 7,
                    restores: vec![CoreUid::new(3, 0, 1)],
                    quarantines: vec![CoreUid::new(9, 1, 0)],
                    policy_changes: Vec::new(),
                },
            },
            Message::Evidence {
                worker: 1,
                epoch: 7,
                log,
            },
            Message::Trace {
                worker: 0,
                jsonl: "{\"h\":0,\"k\":\"B\",\"n\":\"loop.epoch\"}\n".to_string(),
            },
            Message::Fin,
            Message::Bye {
                counters: vec![CounterEntry {
                    name: "sim.corruptions".to_string(),
                    value: 42,
                }],
                gauges: Vec::new(),
                profile: vec![ProfileEntry {
                    stack: "shard.epoch;fleet.step".to_string(),
                    wall_ns: 1_234,
                    calls: 7,
                }],
            },
        ];
        let mut buf = Vec::new();
        for m in &msgs {
            send(&mut buf, m, &Prof::disabled()).unwrap();
        }
        let mut r = buf.as_slice();
        for m in &msgs {
            let (back, _) = recv(&mut r, &Prof::disabled())
                .unwrap()
                .expect("frame present");
            // Message lacks PartialEq (SignalLog payloads are big); compare
            // through the serialized form, which is what the wire carries.
            assert_eq!(
                serde_json::to_string(&back).unwrap(),
                serde_json::to_string(m).unwrap()
            );
        }
        assert!(recv(&mut r, &Prof::disabled()).unwrap().is_none());
    }

    #[test]
    fn evidence_roundtrips_bit_exact() {
        let hours = [
            f64::from_bits(0x7ff8_0000_dead_beef), // quiet NaN with a payload
            f64::from_bits(0xfff0_0000_0000_0001), // negative signalling NaN
            -0.0,
            0.0,
            f64::from_bits(1), // smallest subnormal
            f64::MIN_POSITIVE / 3.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            26_279.999_999_999_996,
        ];
        let cores = [
            CoreUid::new(0, 0, 0),
            CoreUid::new(u32::MAX, u8::MAX, u16::MAX),
            CoreUid::new(199_999, 1, 47),
        ];
        let mut log = SignalLog::new();
        for (i, &hour) in hours.iter().enumerate() {
            for kind in SignalKind::ALL {
                for cee in [false, true] {
                    log.push(signal(hour, cores[i % cores.len()], kind, cee));
                }
            }
        }
        for (worker, epoch, log) in [(3, 431, log), (u32::MAX, u32::MAX, SignalLog::new())] {
            let mut buf = Vec::new();
            let size = send(
                &mut buf,
                &Message::Evidence {
                    worker,
                    epoch,
                    log: log.clone(),
                },
                &Prof::disabled(),
            )
            .unwrap();
            assert_eq!(size, 4 + 13 + 18 * log.len() as u64);
            assert_eq!(size, buf.len() as u64);
            let Some((
                Message::Evidence {
                    worker: w,
                    epoch: e,
                    log: back,
                },
                _,
            )) = recv(&mut buf.as_slice(), &Prof::disabled()).unwrap()
            else {
                panic!("an Evidence frame decodes to Evidence");
            };
            assert_eq!((w, e), (worker, epoch));
            let want: Vec<_> = log.all().iter().map(bits).collect();
            let got: Vec<_> = back.all().iter().map(bits).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn malformed_evidence_is_invalid_data() {
        let record = |kind: u8, cee: u8| {
            let mut r = 5.0f64.to_bits().to_le_bytes().to_vec();
            r.extend_from_slice(&CoreUid::new(7, 1, 2).as_u64().to_le_bytes());
            r.extend_from_slice(&[kind, cee]);
            r
        };
        let body = |count: u32, records: &[Vec<u8>]| {
            let mut b = vec![EVIDENCE_TAG];
            b.extend_from_slice(&1u32.to_le_bytes());
            b.extend_from_slice(&2u32.to_le_bytes());
            b.extend_from_slice(&count.to_le_bytes());
            for r in records {
                b.extend_from_slice(r);
            }
            b
        };
        let mut trailing = body(1, &[record(0, 0)]);
        trailing.push(0);
        let mut bad_uid = body(1, &[record(0, 0)]);
        bad_uid[EVIDENCE_HEADER_BYTES + 8 + 3] = 1; // bits 24..32 of the uid
        let cases = [
            ("tag only", vec![EVIDENCE_TAG]),
            ("truncated header", body(0, &[])[..12].to_vec()),
            ("count above records", body(2, &[record(0, 0)])),
            ("count below records", body(0, &[record(0, 0)])),
            ("huge count", body(u32::MAX, &[record(0, 0)])),
            ("truncated record", body(1, &[record(0, 0)[..17].to_vec()])),
            ("trailing bytes", trailing),
            ("kind 8", body(1, &[record(8, 0)])),
            ("kind 255", body(1, &[record(255, 1)])),
            ("cee 2", body(1, &[record(0, 2)])),
            ("cee 255", body(1, &[record(7, 255)])),
            ("non-canonical uid", bad_uid),
        ];
        for (case, bytes) in cases {
            let err = recv(&mut framed(&bytes).as_slice(), &Prof::disabled()).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}: {err}");
        }
        // The well-formed versions of the same bodies decode.
        for bytes in [body(0, &[]), body(1, &[record(7, 1)])] {
            assert!(recv(&mut framed(&bytes).as_slice(), &Prof::disabled())
                .unwrap()
                .is_some());
        }
    }
}
