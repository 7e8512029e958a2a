//! Status-endpoint and profiler plumbing: the runtime metrics page and
//! the wall-clock phase profile are write-only observability, so turning
//! both on (server-side `Prof` plus `MERCURIAL_PROF` in the workers) must
//! leave a served run bit-identical to the unprofiled in-process
//! reference — while the page itself reports real build/uptime/throughput
//! numbers and the final profile carries the absorbed worker phases.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};

use mercurial::closedloop::ClosedLoopDriver;
use mercurial::Scenario;
use mercurial_prof::Prof;
use mercurial_serve::{run_served, ServeOptions};
use mercurial_trace::export::to_prometheus;

fn scenario(seed: u64, workers: u32) -> Scenario {
    let mut s = Scenario::demo(seed);
    s.closed_loop.feedback = true;
    s.trace.enabled = true;
    s.watch.enabled = true;
    s.serve.workers = workers;
    s
}

/// Reserve a loopback port: bind ephemeral, read the address, release.
/// The status endpoint rebinds it moments later; the window is ours
/// alone in practice because the kernel cycles ephemeral ports.
fn free_addr() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr").to_string();
    drop(listener);
    addr
}

/// One hand-rolled HTTP/1.0 GET against the status endpoint.
fn fetch_status(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect status endpoint");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

#[test]
fn status_page_reports_runtime_metrics_without_moving_the_outcome() {
    // Worker threads inherit profiling from the environment — flip it on
    // so the `Bye` frames carry real phase profiles. The whole point of
    // this test is that none of this observability is sim-visible.
    std::env::set_var("MERCURIAL_PROF", "1");

    let reference = ClosedLoopDriver::execute(&scenario(7, 1));
    let ref_watch = reference.watch.as_ref().expect("watch enabled").render();
    let ref_prom = to_prometheus(&reference.trace);

    let s = scenario(7, 2);
    let status_addr = free_addr();
    let prof = Prof::enabled();
    let opts = ServeOptions {
        status_addr: Some(status_addr.clone()),
        prof: Some(&prof),
        ..ServeOptions::default()
    };
    let served = run_served(&s, &opts).expect("served run");

    // Parity first: profiled server + profiled workers + live status
    // page, and still not one output byte moves.
    let out = &served.outcome;
    assert_eq!(out.pipeline.detections, reference.pipeline.detections);
    assert_eq!(out.pipeline.signals.all(), reference.pipeline.signals.all());
    assert_eq!(out.pipeline.sim_summary, reference.pipeline.sim_summary);
    assert_eq!(out.series, reference.series);
    assert_eq!(
        out.watch.as_ref().expect("watch enabled").render(),
        ref_watch
    );
    assert_eq!(to_prometheus(&out.trace), ref_prom);

    // The endpoint thread outlives the run and serves the final snapshot.
    let page = fetch_status(&status_addr);
    assert!(page.starts_with("HTTP/1.0 200 OK"), "status endpoint up");
    for key in [
        "mercurial_build_info{version=\"",
        "mercurial_serve_uptime_seconds ",
        "mercurial_serve_frames_in_total ",
        "mercurial_serve_frames_out_total ",
        "mercurial_serve_bytes_in_total ",
        "mercurial_serve_bytes_out_total ",
        "mercurial_serve_frames_per_second ",
        "mercurial_prof_phase_wall_ms{phase=\"",
    ] {
        assert!(page.contains(key), "status page missing {key}:\n{page}");
    }
    // The final snapshot is taken after the Fin round: every frame both
    // directions is accounted, and the run is marked complete.
    let field = |name: &str| -> f64 {
        page.lines()
            .find_map(|l| l.strip_prefix(name))
            .unwrap_or_else(|| panic!("field {name} on page"))
            .trim()
            .parse()
            .expect("numeric field")
    };
    assert_eq!(
        field("mercurial_serve_epochs_done "),
        field("mercurial_serve_epochs_total ")
    );
    assert!(field("mercurial_serve_frames_in_total ") > 0.0);
    assert!(field("mercurial_serve_frames_out_total ") > 0.0);
    assert!(
        field("mercurial_serve_bytes_in_total ") > field("mercurial_serve_frames_in_total ") * 4.0,
        "every frame carries a payload beyond its header"
    );

    // The server's own profile measured the protocol, and the workers'
    // profiles were absorbed under `serve.workers` in worker-index order.
    let profile = prof.finish();
    assert!(profile.calls("loop.begin") > 0, "aggregator phases present");
    assert!(profile.calls("serve.io") > 0, "socket I/O attributed");
    assert!(profile.calls("serve.encode") > 0, "encode attributed");
    assert!(profile.calls("serve.decode") > 0, "decode attributed");
    assert_eq!(
        profile.calls("serve.workers"),
        2,
        "one absorption per worker"
    );
    assert!(
        profile.calls("serve.workers;shard.epoch") > 0,
        "worker shard phases ride the Bye frame"
    );
}
