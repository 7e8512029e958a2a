//! The fleet-shard worker: one process owning a contiguous machine range,
//! stepping its shard of the closed loop in lockstep with the server.
//!
//! A worker is a thin shell around [`FleetShard`]: receive the epoch's
//! commands, apply them, step, and ship three frames back — the
//! impairable evidence batch (the protocol's one binary frame), the
//! reliable report, and the drained trace events (streamed through the
//! standard [`JsonlStreamSink`], whose writer here backs socket frames
//! instead of a file). Determinism needs nothing beyond the scenario JSON
//! in the config frame: every draw the shard makes is a pure function of
//! `(seed, stream, counter)`.
//!
//! A worker pays for its shard, not the fleet: it builds the whole
//! topology (the noise layer picks machines in the global deploy order)
//! but seeds ground truth only on its own range
//! ([`FleetExperiment::build_shard`]), the same cores and profiles the
//! server's full build holds there.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::TcpStream;

use mercurial::shardloop::FleetShard;
use mercurial::{FleetExperiment, Scenario};
use mercurial_prof::Prof;
use mercurial_trace::{JsonlStreamSink, TraceSink};

use crate::proto::{
    proto_err, recv, send, send_sized, CounterEntry, GaugeEntry, Message, PROTO_VERSION,
};

/// Connect to a server and run the shard it assigns until the run ends.
///
/// # Errors
///
/// Propagates socket I/O errors and protocol violations.
pub fn connect_and_serve(addr: &str) -> io::Result<()> {
    let stream = TcpStream::connect(addr)?;
    run_worker(stream)
}

/// Drive one worker over an established connection: handshake, build the
/// assigned shard's experiment, then lockstep epochs until `Fin`.
///
/// # Errors
///
/// Propagates socket I/O errors and protocol violations.
pub fn run_worker(stream: TcpStream) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);

    send(
        &mut writer,
        &Message::Hello {
            proto: PROTO_VERSION,
        },
    )?;
    writer.flush()?;

    let Some(Message::Config {
        scenario,
        worker,
        lo,
        hi,
    }) = recv(&mut reader)?
    else {
        return Err(proto_err("expected Config after Hello"));
    };
    let scenario =
        Scenario::from_json(&scenario).map_err(|e| proto_err(&format!("bad scenario: {e}")))?;
    if lo > hi || hi > scenario.fleet.machines {
        return Err(proto_err(&format!(
            "shard [{lo}, {hi}) outside a {}-machine fleet",
            scenario.fleet.machines
        )));
    }
    let experiment = FleetExperiment::build_shard(&scenario, lo, hi);
    let mut shard = FleetShard::new(&scenario, &experiment, lo, hi);
    let mut rec = scenario.recorder();
    // The trace channel: the shard's recorder drains through the standard
    // JSONL sink; its writer is the byte buffer each epoch's Trace frame
    // ships.
    let mut sink = JsonlStreamSink::new(Vec::new());
    // Worker processes have no CLI flag path, so wall-clock profiling is
    // inherited from the environment; the profile ships in the `Bye`
    // frame and is write-only observability either way.
    let prof = Prof::from_env();

    serve_epochs(
        &mut reader,
        &mut writer,
        &mut shard,
        &mut rec,
        &mut sink,
        worker,
        &prof,
    )
}

fn serve_epochs(
    reader: &mut impl Read,
    writer: &mut impl Write,
    shard: &mut FleetShard<'_>,
    rec: &mut mercurial_trace::Recorder,
    sink: &mut JsonlStreamSink<Vec<u8>>,
    worker: u32,
    prof: &Prof,
) -> io::Result<()> {
    loop {
        match recv(reader)? {
            Some(Message::Cmd { cmds }) => {
                let epoch = cmds.epoch;
                shard.apply_commands(&cmds);
                let mut report = shard.step_epoch(rec, prof);
                let evidence = std::mem::take(&mut report.evidence);
                send_sized(
                    writer,
                    &Message::Evidence {
                        worker,
                        epoch,
                        log: evidence,
                    },
                    prof,
                )?;
                send_sized(
                    writer,
                    &Message::Report {
                        report: Box::new(report),
                    },
                    prof,
                )?;
                {
                    let _p = prof.span("trace.drain");
                    sink.drain(rec).expect("Vec sink cannot fail");
                }
                let jsonl = String::from_utf8(std::mem::take(sink.get_mut()))
                    .expect("JSONL sink writes UTF-8");
                send_sized(writer, &Message::Trace { worker, jsonl }, prof)?;
                writer.flush()?;
            }
            Some(Message::Fin) => {
                // Tail: remaining trace events, then the metric readout
                // and the worker's phase profile (snapshot before the
                // final sends — they would only add to `serve.*`).
                sink.drain(rec).expect("Vec sink cannot fail");
                let jsonl = String::from_utf8(std::mem::take(sink.get_mut()))
                    .expect("JSONL sink writes UTF-8");
                send_sized(writer, &Message::Trace { worker, jsonl }, prof)?;
                let (counters, gauges) = metric_entries(rec);
                let profile = prof.snapshot().entries();
                send_sized(
                    writer,
                    &Message::Bye {
                        counters,
                        gauges,
                        profile,
                    },
                    prof,
                )?;
                writer.flush()?;
                return Ok(());
            }
            Some(_) => return Err(proto_err("unexpected message in epoch loop")),
            None => return Err(proto_err("server hung up mid-run")),
        }
    }
}

/// Snapshot the worker recorder's metric set for the `Bye` frame.
/// Histograms are asserted empty: every per-run histogram (epoch
/// aggregates, detection latency) is observed aggregator-side precisely
/// so shard workers never need to ship one.
fn metric_entries(rec: &mercurial_trace::Recorder) -> (Vec<CounterEntry>, Vec<GaugeEntry>) {
    let Some(metrics) = rec.metrics() else {
        return (Vec::new(), Vec::new());
    };
    debug_assert_eq!(
        metrics.histograms().count(),
        0,
        "worker-side histograms are not wire-portable; observe them in the aggregator"
    );
    let counters = metrics
        .counters()
        .map(|(name, value)| CounterEntry {
            name: name.to_string(),
            value,
        })
        .collect();
    let gauges = metrics
        .gauges()
        .map(|(name, value)| GaugeEntry {
            name: name.to_string(),
            value,
        })
        .collect();
    (counters, gauges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn config_range_outside_the_fleet_is_a_protocol_error() {
        let scenario = Scenario::demo(7);
        let machines = scenario.fleet.machines;
        for (lo, hi) in [(0, machines + 1), (10, 5)] {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let worker = std::thread::spawn(move || run_worker(TcpStream::connect(addr)?));
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            assert!(matches!(recv(&mut reader), Ok(Some(Message::Hello { .. }))));
            let config = Message::Config {
                scenario: scenario.to_json(),
                worker: 0,
                lo,
                hi,
            };
            send(&mut writer, &config).unwrap();
            writer.flush().unwrap();
            // Hang up, so a worker that accepted the range fails on EOF
            // instead of waiting for a command.
            drop((reader, writer));
            let err = worker.join().unwrap().unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidData,
                "[{lo}, {hi}): {err}"
            );
            assert!(err.to_string().contains("outside"), "[{lo}, {hi}): {err}");
        }
    }
}
