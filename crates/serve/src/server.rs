//! The scoreboard/watch server: accepts N shard workers, drives the
//! closed loop in lockstep, ingests their telemetry through the
//! impairable link, evaluates alert rules live, and exposes a plain-text
//! Prometheus status endpoint.
//!
//! The server owns everything global — quarantine registry, capacity
//! ledger, scoreboard, deep-check/restore queues, watch engine — via
//! [`FleetAggregator`]; workers own nothing but their machine range. One
//! epoch is one protocol round: broadcast `Cmd`, collect each worker's
//! `Evidence` + `Report` + `Trace` frames in worker-index order, pass the
//! evidence through the [`ImpairedChannel`], ingest. With clean links the
//! outcome is bit-for-bit the in-process [`ClosedLoopDriver`] run — the
//! parity tests pin it — so every divergence measured under impairment is
//! attributable to the link, not the split.
//!
//! [`ClosedLoopDriver`]: mercurial::closedloop::ClosedLoopDriver

use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use mercurial::closedloop::ClosedLoopOutcome;
use mercurial::scenario::ImpairConfig;
use mercurial::shardloop::{
    record_ground_truth_onsets, shard_ranges, watch_engine, FleetAggregator, ShardEpochReport,
};
use mercurial::{FleetExperiment, Scenario};
use mercurial_fleet::SignalLog;
use mercurial_prof::Prof;
use mercurial_trace::export::{metrics_to_prometheus, prom_label_escape};
use mercurial_trace::intern;
use mercurial_watch::{Baseline, RuleSet};

use crate::impair::{ImpairedChannel, LinkStats};
use crate::proto::{proto_err, recv, send, Message, PROTO_VERSION};
use crate::worker::run_worker;

/// Attachments for a served run.
#[derive(Default)]
pub struct ServeOptions<'a> {
    /// Alert rules; `None` falls back to the scenario's `watch` block.
    pub rules: Option<RuleSet>,
    /// Baseline for regression rules.
    pub baseline: Option<&'a Baseline>,
    /// Bind address for the live Prometheus status endpoint (e.g.
    /// `127.0.0.1:9184`); `None` disables it.
    pub status_addr: Option<String>,
    /// Wall-clock phase profiler for the server side. Write-only
    /// observability: readings surface on the status page and in the
    /// final profile, never in the outcome, so a profiled served run
    /// stays bit-for-bit with an unprofiled one.
    pub prof: Option<&'a Prof>,
}

/// Wire throughput counters: every frame the server sends or receives
/// across all worker links, with its size (4-byte header + payload). The
/// status page shows them; the outcome carries the final counts. They
/// are deterministic for a given scenario unless the workers profile
/// (`MERCURIAL_PROF`), whose `Bye` frames then carry wall-clock
/// readings. Operator domain — not part of any outcome digest.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WireStats {
    /// Frames received from workers.
    pub frames_in: u64,
    /// Frames sent to workers.
    pub frames_out: u64,
    /// Bytes received from workers.
    pub bytes_in: u64,
    /// Bytes sent to workers.
    pub bytes_out: u64,
    /// The part of `bytes_in` that arrived in `Evidence` frames.
    pub evidence_bytes_in: u64,
}

/// Everything a served run produced: the ordinary closed-loop outcome
/// plus what the link did on the way.
pub struct ServedOutcome {
    /// The run outcome, same shape as the in-process driver's.
    pub outcome: ClosedLoopOutcome,
    /// Link statistics across all workers' evidence frames.
    pub link: LinkStats,
    /// What crossed the sockets, every frame of every link.
    pub wire: WireStats,
    /// Each worker's streamed trace JSONL, in worker order (empty
    /// strings unless the scenario enables tracing).
    pub worker_traces: Vec<String>,
}

/// One connected worker's framed channels.
struct Link {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// Run the server over an already-bound listener: accept
/// `scenario.serve.workers` workers, drive the run, return the outcome.
/// Worker indices are assigned in connection order.
///
/// # Errors
///
/// Propagates socket I/O errors and protocol violations, and returns
/// an [`io::ErrorKind::InvalidInput`] error for a scenario that fails
/// [`Scenario::validate`] or has `closed_loop.feedback: false` (the served
/// run is the closed loop; its workers only screen with feedback on).
pub fn run_server(
    listener: &TcpListener,
    scenario: &Scenario,
    opts: &ServeOptions<'_>,
) -> io::Result<ServedOutcome> {
    scenario
        .validate()
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
    let workers = scenario.serve.workers;
    if !scenario.closed_loop.feedback {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "closed_loop.feedback must be true to serve the closed loop, got false",
        ));
    }
    let machines = scenario.fleet.machines;
    let ranges = shard_ranges(machines, workers);

    // Handshake every worker before the first epoch: Hello up, Config
    // (scenario + shard range) down.
    let disabled_prof = Prof::disabled();
    let prof = opts.prof.unwrap_or(&disabled_prof);
    let mut wire = WireStats::default();
    let scenario_json = scenario.to_json();
    let mut links = Vec::with_capacity(workers as usize);
    for (w, &(lo, hi)) in ranges.iter().enumerate() {
        let (stream, _) = listener.accept()?;
        stream.set_nodelay(true)?;
        let mut link = Link {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        };
        match recv(&mut link.reader, prof)? {
            Some((Message::Hello { proto }, n)) if proto == PROTO_VERSION => {
                wire.frames_in += 1;
                wire.bytes_in += n;
            }
            Some((Message::Hello { proto }, _)) => {
                return Err(proto_err(&format!(
                    "worker speaks protocol {proto}, server speaks {PROTO_VERSION}"
                )))
            }
            _ => return Err(proto_err("expected Hello")),
        }
        let n = send(
            &mut link.writer,
            &Message::Config {
                scenario: scenario_json.clone(),
                worker: w as u32,
                lo,
                hi,
            },
            prof,
        )?;
        wire.frames_out += 1;
        wire.bytes_out += n;
        link.writer.flush()?;
        links.push(link);
    }

    serve_run(scenario, &mut links, opts, wire)
}

/// The epoch loop over handshaken links.
fn serve_run(
    scenario: &Scenario,
    links: &mut [Link],
    opts: &ServeOptions<'_>,
    mut wire: WireStats,
) -> io::Result<ServedOutcome> {
    let started = Instant::now();
    let disabled_prof = Prof::disabled();
    let prof = opts.prof.unwrap_or(&disabled_prof);
    let experiment = FleetExperiment::build(scenario);
    let engine = watch_engine(scenario, &opts.rules);
    let mut rec = scenario.recorder();
    record_ground_truth_onsets(&experiment, &mut rec);
    let mut agg = FleetAggregator::new(scenario, &experiment, engine);
    let epochs = agg.total_epochs();
    let epoch_hours = agg.epoch_hours();

    let status = opts
        .status_addr
        .as_deref()
        .map(spawn_status_endpoint)
        .transpose()?;
    let mut channel = ImpairedChannel::new(scenario.serve.impair);
    let mut worker_traces = vec![String::new(); links.len()];

    while !agg.is_done() {
        let cmds = agg.begin_epoch(&mut rec, prof);
        let epoch = cmds.epoch;
        // Broadcast: commands address cores by uid, and applying a
        // non-owned core's command is a no-op, so every worker gets the
        // same frame.
        for link in links.iter_mut() {
            let n = send(&mut link.writer, &Message::Cmd { cmds: cmds.clone() }, prof)?;
            wire.frames_out += 1;
            wire.bytes_out += n;
            link.writer.flush()?;
        }
        // Collect in worker-index order — the deterministic merge order
        // the in-process multi-shard path uses.
        let mut reports: Vec<ShardEpochReport> = Vec::with_capacity(links.len());
        for (w, link) in links.iter_mut().enumerate() {
            let (evidence, report, jsonl) =
                recv_epoch_frames(&mut link.reader, w as u32, epoch, prof, &mut wire)?;
            channel.offer(w as u32, epoch, evidence);
            reports.push(report);
            worker_traces[w].push_str(&jsonl);
        }
        // Every frame the link delivers this epoch rides in the first
        // report's evidence slot: the aggregator ingests evidence as one
        // ordered stream, so only the concatenation order matters — and
        // the channel already emits canonical (delayed/duplicated/
        // reordered) arrival order.
        let mut delivered = SignalLog::new();
        for log in channel.drain(epoch) {
            delivered.append(log);
        }
        reports[0].evidence = delivered;
        agg.ingest_reports(reports, &mut rec, prof);

        if let Some(body) = &status {
            let mut s = body.lock().expect("status lock");
            *s = status_body(
                &rec,
                &channel.stats,
                epoch + 1,
                epochs,
                &wire,
                started,
                prof,
            );
        }
    }

    // Wind down: Fin to every worker, absorb their trace tails, metric
    // readouts (counters merge into the server recorder so the final
    // metric set equals the in-process run's), and phase profiles —
    // worker-index order, the same discipline as every other merge.
    for (w, link) in links.iter_mut().enumerate() {
        let n = send(&mut link.writer, &Message::Fin, prof)?;
        wire.frames_out += 1;
        wire.bytes_out += n;
        link.writer.flush()?;
        loop {
            let Some((msg, n)) = recv(&mut link.reader, prof)? else {
                return Err(proto_err("expected Trace/Bye after Fin"));
            };
            wire.frames_in += 1;
            wire.bytes_in += n;
            match msg {
                Message::Trace { jsonl, .. } => worker_traces[w].push_str(&jsonl),
                Message::Bye {
                    counters,
                    gauges,
                    profile,
                } => {
                    for c in counters {
                        rec.counter_add(intern(&c.name), c.value);
                    }
                    for g in gauges {
                        rec.gauge(0.0, intern(&g.name), g.value);
                    }
                    let _w = prof.span("serve.workers");
                    prof.absorb_entries(&profile);
                    break;
                }
                _ => return Err(proto_err("expected Trace/Bye after Fin")),
            }
        }
    }

    let finished = agg.finish(&mut rec, &[], opts.baseline, prof);
    if let Some(body) = &status {
        let mut s = body.lock().expect("status lock");
        *s = status_body(&rec, &channel.stats, epochs, epochs, &wire, started, prof);
    }
    Ok(ServedOutcome {
        outcome: ClosedLoopOutcome {
            pipeline: finished.pipeline,
            series: finished.series,
            epochs,
            epoch_hours,
            trace: rec.finish(),
            watch: finished.watch,
        },
        link: channel.stats,
        wire,
        worker_traces,
    })
}

/// Receive one worker's epoch frames (Evidence, Report, Trace — in that
/// order) and validate their epoch/worker stamps.
fn recv_epoch_frames(
    reader: &mut BufReader<TcpStream>,
    worker: u32,
    epoch: u32,
    prof: &Prof,
    wire: &mut WireStats,
) -> io::Result<(SignalLog, ShardEpochReport, String)> {
    let mut next = |wire: &mut WireStats| -> io::Result<Option<(Message, u64)>> {
        let got = recv(reader, prof)?;
        if let Some((_, n)) = &got {
            wire.frames_in += 1;
            wire.bytes_in += n;
        }
        Ok(got)
    };
    let Some((
        Message::Evidence {
            worker: w,
            epoch: e,
            log,
        },
        n,
    )) = next(wire)?
    else {
        return Err(proto_err("expected Evidence"));
    };
    wire.evidence_bytes_in += n;
    if w != worker || e != epoch {
        return Err(proto_err(&format!(
            "evidence stamped worker {w} epoch {e}, expected {worker}/{epoch}"
        )));
    }
    let Some((Message::Report { report }, _)) = next(wire)? else {
        return Err(proto_err("expected Report"));
    };
    if report.epoch != epoch {
        return Err(proto_err(&format!(
            "report stamped epoch {}, expected {epoch}",
            report.epoch
        )));
    }
    let Some((Message::Trace { jsonl, .. }, _)) = next(wire)? else {
        return Err(proto_err("expected Trace"));
    };
    Ok((log, *report, jsonl))
}

/// The status page: build identity, run progress, runtime wall-clock
/// counters, link statistics, the live phase profile, and the Prometheus
/// rendering of the live metric set. Everything here is operator/
/// wall-clock domain — the page is a read-only window, never an input.
fn status_body(
    rec: &mercurial_trace::Recorder,
    link: &LinkStats,
    done: u32,
    total: u32,
    wire: &WireStats,
    started: Instant,
    prof: &Prof,
) -> String {
    let uptime = started.elapsed().as_secs_f64();
    let frames = wire.frames_in + wire.frames_out;
    let mut out = String::new();
    out.push_str("# mercurial-serve status\n");
    out.push_str(&format!(
        "mercurial_build_info{{version=\"{}\",proto=\"{PROTO_VERSION}\"}} 1\n",
        env!("CARGO_PKG_VERSION")
    ));
    out.push_str(&format!("mercurial_serve_uptime_seconds {uptime:.3}\n"));
    out.push_str(&format!("mercurial_serve_epochs_done {done}\n"));
    out.push_str(&format!("mercurial_serve_epochs_total {total}\n"));
    out.push_str(&format!(
        "mercurial_serve_frames_in_total {}\n",
        wire.frames_in
    ));
    out.push_str(&format!(
        "mercurial_serve_frames_out_total {}\n",
        wire.frames_out
    ));
    out.push_str(&format!(
        "mercurial_serve_bytes_in_total {}\n",
        wire.bytes_in
    ));
    out.push_str(&format!(
        "mercurial_serve_bytes_out_total {}\n",
        wire.bytes_out
    ));
    out.push_str(&format!(
        "mercurial_serve_frames_per_second {:.3}\n",
        if uptime > 0.0 {
            frames as f64 / uptime
        } else {
            0.0
        }
    ));
    out.push_str(&format!("mercurial_serve_link_frames {}\n", link.frames));
    out.push_str(&format!("mercurial_serve_link_dropped {}\n", link.dropped));
    out.push_str(&format!("mercurial_serve_link_delayed {}\n", link.delayed));
    out.push_str(&format!(
        "mercurial_serve_link_duplicated {}\n",
        link.duplicated
    ));
    out.push_str(&format!(
        "mercurial_serve_link_reordered {}\n",
        link.reordered
    ));
    out.push_str(&prof_section(prof));
    if let Some(metrics) = rec.metrics() {
        out.push_str(&audit_section(metrics));
        out.push_str(&metrics_to_prometheus(metrics));
    }
    out
}

/// The wall-clock phase section of the status page: one gauge per phase
/// path from the server's live profile (absent entirely when profiling
/// is off). Phase names are compile-time or wire-interned identifiers,
/// but they pass through the label escaper anyway.
fn prof_section(prof: &Prof) -> String {
    let snapshot = prof.snapshot();
    if snapshot.is_empty() {
        return String::new();
    }
    let mut out = String::from("# TYPE mercurial_prof_phase_wall_ms gauge\n");
    for e in snapshot.entries() {
        out.push_str(&format!(
            "mercurial_prof_phase_wall_ms{{phase=\"{}\"}} {:.3}\n",
            prom_label_escape(&e.stack),
            e.wall_ns as f64 / 1e6
        ));
    }
    out
}

/// The decision-audit section of the status page: per-rule fire counts
/// as one labeled Prometheus family. Rule names are operator input (the
/// watch block names them), so they go through the label escaper.
fn audit_section(metrics: &mercurial_trace::MetricSet) -> String {
    let mut out = String::new();
    for (name, v) in metrics.counters() {
        if let Some(rule) = name
            .strip_prefix("audit.rule.")
            .and_then(|s| s.strip_suffix(".fires"))
        {
            if out.is_empty() {
                out.push_str("# TYPE mercurial_audit_rule_fires counter\n");
            }
            out.push_str(&format!(
                "mercurial_audit_rule_fires{{rule=\"{}\"}} {v}\n",
                prom_label_escape(rule)
            ));
        }
    }
    out
}

/// Serve `GET /metrics`-style requests with the current snapshot body.
/// Hand-rolled HTTP/1.0: read the request head, write one plain-text
/// response, close. The thread is detached and dies with the process.
fn spawn_status_endpoint(addr: &str) -> io::Result<Arc<Mutex<String>>> {
    let listener = TcpListener::bind(addr)?;
    let body = Arc::new(Mutex::new(String::from("# mercurial-serve starting\n")));
    let shared = Arc::clone(&body);
    std::thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(mut stream) = stream else { continue };
            // Drain the request head; content is irrelevant (every path
            // serves the same snapshot).
            let mut buf = [0u8; 1024];
            let _ = std::io::Read::read(&mut stream, &mut buf);
            let snapshot = shared.lock().map(|s| s.clone()).unwrap_or_default();
            let _ = write!(
                stream,
                "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\n\r\n{}",
                snapshot.len(),
                snapshot
            );
            let _ = stream.flush();
        }
    });
    Ok(body)
}

/// Run a complete served topology in one process: bind an ephemeral
/// loopback listener, spawn `scenario.serve.workers` worker threads that
/// connect to it, and drive the server on the calling thread. This is
/// the harness tests and benches use; the CLI's multi-process demo mode
/// runs the same protocol with workers as child processes.
///
/// # Errors
///
/// Propagates socket I/O errors and protocol violations from either
/// side.
pub fn run_served(scenario: &Scenario, opts: &ServeOptions<'_>) -> io::Result<ServedOutcome> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let handles: Vec<_> = (0..scenario.serve.workers)
        .map(|_| {
            std::thread::spawn(move || -> io::Result<()> {
                let stream = TcpStream::connect(addr)?;
                run_worker(stream)
            })
        })
        .collect();
    let out = run_server(&listener, scenario, opts);
    // Closing the listener refuses or resets every connection the server
    // never accepted, so every worker ends and is joined, also when the
    // server failed (a rejected scenario fails before any accept).
    drop(listener);
    for h in handles {
        let worker = h
            .join()
            .map_err(|_| io::Error::other("worker thread panicked"))?;
        if out.is_ok() {
            worker?;
        }
    }
    out
}

/// A convenience for impairment sweeps: run the same scenario served,
/// with `impair` overriding the scenario's `serve.impair` block.
///
/// # Errors
///
/// See [`run_served`].
pub fn run_served_impaired(
    scenario: &Scenario,
    impair: ImpairConfig,
    opts: &ServeOptions<'_>,
) -> io::Result<ServedOutcome> {
    let mut s = scenario.clone();
    s.serve.impair = impair;
    run_served(&s, opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_workers_is_invalid_input() {
        let mut scenario = Scenario::small(7);
        scenario.serve.workers = 0;
        let err = run_served(&scenario, &ServeOptions::default())
            .err()
            .expect("zero workers is rejected");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("serve.workers"), "{err}");
    }

    #[test]
    fn feedback_off_is_invalid_input() {
        let mut scenario = Scenario::small(7);
        scenario.closed_loop.feedback = false;
        let err = run_served(&scenario, &ServeOptions::default())
            .err()
            .expect("an open loop is not served");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("closed_loop.feedback"), "{err}");
    }
}
