//! E15 — closing the loop: open- vs closed-loop residual corruption.
//!
//! The open-loop pipeline (E1–E13) simulates the whole observation window
//! and only then screens, triages, and quarantines — so a core caught in
//! month 2 keeps corrupting results until month 36. The closed-loop
//! driver interleaves detect → quarantine → reschedule at epoch
//! granularity (§6: detect "as quickly as possible", then quarantine).
//! This experiment runs both on the same scenario and quantifies what the
//! feedback buys (residual corrupt-ops) and what it costs (schedulable
//! capacity surrendered to quarantine, partially recovered by unit-aware
//! safe-task placement).
//!
//! ```text
//! cargo run --release -p mercurial-bench --bin e15_closed_loop
//! ```
//!
//! Tier-1 tests check both acceptance assertions at demo scale
//! (`crates/core/tests/closed_loop.rs`).

use mercurial::closedloop::ClosedLoopDriver;
use mercurial::report::closed_loop_table;

fn main() {
    let mut scenario = mercurial_bench::paper_scenario(0x0e15);
    mercurial_bench::header(&format!(
        "E15 — closed-loop detect → quarantine → reschedule   [{}: {} machines, {} months]",
        scenario.name, scenario.fleet.machines, scenario.sim.months
    ));

    scenario.closed_loop.feedback = false;
    let open = ClosedLoopDriver::execute(&scenario);
    scenario.closed_loop.feedback = true;
    let closed = ClosedLoopDriver::execute(&scenario);

    let open_ops = open.pipeline.sim_summary.corruptions;
    let closed_ops = closed.pipeline.sim_summary.corruptions;
    println!("residual corrupt-ops, open loop:   {open_ops}");
    println!(
        "residual corrupt-ops, closed loop: {closed_ops}  ({:.1}% of open)",
        if open_ops > 0 {
            100.0 * closed_ops as f64 / open_ops as f64
        } else {
            0.0
        }
    );
    let trough = closed.series.min_capacity();
    println!(
        "capacity cost: trough {:.4}% of nominal ({} cores confirmed/quarantined at peak)\n",
        100.0 * trough,
        closed.pipeline.capacity.lost_cores,
    );

    println!("{}", closed_loop_table(&closed));
    println!("{}", closed.series.render(24));
    println!("per-epoch series (CSV):\n{}", closed.series.to_csv());

    // Acceptance: feedback must strictly reduce residual corruption.
    assert!(
        closed_ops < open_ops,
        "acceptance: closed loop ({closed_ops}) must corrupt strictly less than open ({open_ops})"
    );
    // Acceptance: safe-task placement recovers part of the surrendered
    // capacity, never more than nominal.
    let last = closed.series.points().last().expect("non-empty series");
    assert!(
        last.capacity_with_safetask >= last.capacity && last.capacity_with_safetask <= 1.0 + 1e-12,
        "acceptance: safe-task capacity must sit between base capacity and nominal"
    );
}
