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

use crate::proto::{proto_err, recv, send, CounterEntry, GaugeEntry, Message, PROTO_VERSION};

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

    // The handshake, like the wait for each command below, is not shard
    // work: it goes unprofiled.
    let unprofiled = Prof::disabled();
    send(
        &mut writer,
        &Message::Hello {
            proto: PROTO_VERSION,
        },
        &unprofiled,
    )?;
    writer.flush()?;

    let Some((
        Message::Config {
            scenario,
            worker,
            lo,
            hi,
        },
        _,
    )) = recv(&mut reader, &unprofiled)?
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
    let unprofiled = Prof::disabled();
    loop {
        match recv(reader, &unprofiled)?.map(|(msg, _)| msg) {
            Some(Message::Cmd { cmds }) => {
                let epoch = cmds.epoch;
                // Wire data never reaches the shard's own epoch assert.
                if shard.is_done() {
                    return Err(proto_err(&format!(
                        "command for epoch {epoch} after the window ended"
                    )));
                }
                if epoch != shard.next_epoch() {
                    return Err(proto_err(&format!(
                        "command for epoch {epoch} while epoch {} is due",
                        shard.next_epoch()
                    )));
                }
                shard.apply_commands(&cmds);
                let mut report = shard.step_epoch(rec, prof);
                let evidence = std::mem::take(&mut report.evidence);
                send(
                    writer,
                    &Message::Evidence {
                        worker,
                        epoch,
                        log: evidence,
                    },
                    prof,
                )?;
                send(
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
                send(writer, &Message::Trace { worker, jsonl }, prof)?;
                writer.flush()?;
            }
            Some(Message::Fin) => {
                // Tail: remaining trace events, then the metric readout
                // and the worker's phase profile (snapshot before the
                // final sends — they would only add to `serve.*`).
                sink.drain(rec).expect("Vec sink cannot fail");
                let jsonl = String::from_utf8(std::mem::take(sink.get_mut()))
                    .expect("JSONL sink writes UTF-8");
                send(writer, &Message::Trace { worker, jsonl }, prof)?;
                let (counters, gauges) = metric_entries(rec);
                let profile = prof.snapshot().entries();
                send(
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
/// Histograms are asserted empty: the shard's sim step observes none, and
/// every per-run histogram (epoch aggregates, detection latency) belongs
/// to the aggregator's epoch boundary and finish, so shard workers never
/// need to ship one.
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
    use mercurial::shardloop::EpochCommands;
    use std::net::TcpListener;

    type Worker = std::thread::JoinHandle<io::Result<()>>;

    /// Starts a worker on a loopback connection and sends it the config
    /// for `scenario` over machines `[lo, hi)`; returns the worker thread
    /// and the server's ends of the connection.
    fn configured_worker(
        scenario: &Scenario,
        lo: u32,
        hi: u32,
    ) -> (Worker, BufReader<TcpStream>, BufWriter<TcpStream>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let worker = std::thread::spawn(move || run_worker(TcpStream::connect(addr)?));
        let (stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = BufWriter::new(stream);
        assert!(matches!(
            recv(&mut reader, &Prof::disabled()),
            Ok(Some((Message::Hello { .. }, _)))
        ));
        let config = Message::Config {
            scenario: scenario.to_json(),
            worker: 0,
            lo,
            hi,
        };
        send(&mut writer, &config, &Prof::disabled()).unwrap();
        writer.flush().unwrap();
        (worker, reader, writer)
    }

    fn cmd(epoch: u32) -> Message {
        Message::Cmd {
            cmds: EpochCommands {
                epoch,
                restores: Vec::new(),
                quarantines: Vec::new(),
                policy_changes: Vec::new(),
            },
        }
    }

    #[test]
    fn config_range_outside_the_fleet_is_a_protocol_error() {
        let scenario = Scenario::demo(7);
        let machines = scenario.fleet.machines;
        for (lo, hi) in [(0, machines + 1), (10, 5)] {
            let (worker, reader, writer) = configured_worker(&scenario, lo, hi);
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

    #[test]
    fn out_of_order_command_is_a_protocol_error() {
        // A one-epoch window: the command for epoch 0 is legal, and every
        // later one arrives after the window ended.
        let mut scenario = Scenario::demo(7);
        scenario.sim.months = 1;
        scenario.sim.epoch_hours = 730.0;
        let machines = scenario.fleet.machines;
        for (late, epoch) in [(false, 1), (false, 5), (true, 1)] {
            let case = format!("late {late}, epoch {epoch}");
            let (worker, mut reader, mut writer) = configured_worker(&scenario, 0, machines);
            if late {
                send(&mut writer, &cmd(0), &Prof::disabled()).unwrap();
                writer.flush().unwrap();
                for _ in 0..3 {
                    let frame = recv(&mut reader, &Prof::disabled()).unwrap();
                    assert!(
                        matches!(
                            frame,
                            Some((
                                Message::Evidence { .. }
                                    | Message::Report { .. }
                                    | Message::Trace { .. },
                                _
                            ))
                        ),
                        "{case}: epoch 0 frames"
                    );
                }
            }
            send(&mut writer, &cmd(epoch), &Prof::disabled()).unwrap();
            writer.flush().unwrap();
            // Hang up, so a worker that accepted the command fails on EOF
            // (or a broken pipe) instead of waiting for the next one.
            drop((reader, writer));
            let err = worker.join().unwrap().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{case}: {err}");
            let want = if late {
                "after the window"
            } else {
                "while epoch 0"
            };
            assert!(err.to_string().contains(want), "{case}: {err}");
        }
    }
}
