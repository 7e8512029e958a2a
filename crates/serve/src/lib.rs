//! # mercurial-serve
//!
//! Fleet-as-a-service: the closed loop split into N fleet-shard
//! **worker** processes and one central **scoreboard/watch server**
//! talking a length-delimited framed protocol over TCP loopback.
//!
//! The paper's detection pipeline is intrinsically a service: screeners
//! and production machines emit signals *somewhere else* than the
//! monitors that act on them, and the path between is a real network
//! with real failure modes. This crate makes that path explicit:
//!
//! * [`frame`] — the `u32`-length-prefixed frame codec, the unit of
//!   atomicity and of impairment;
//! * [`proto`] — the message grammar: a reliable lockstep channel
//!   (`Config`/`Cmd`/`Report`) and an impairable telemetry channel
//!   (`Evidence`/`Trace`) sharing one socket; `Evidence` is a
//!   fixed-width binary record, everything else JSON;
//! * [`worker`] — a thin shell around `FleetShard`: apply commands,
//!   step, ship evidence/report/trace frames;
//! * [`server`] — the authority: `FleetAggregator` plus live watch-rule
//!   evaluation and a hand-rolled Prometheus status endpoint;
//! * [`impair`] — the deterministic per-link impairment model (loss,
//!   delay, duplication, reorder), every decision a pure function of
//!   `(seed, worker, epoch, draw)`;
//! * [`fidelity`] — scoring of what impairment did to the alert readout
//!   (missed / late / spurious) against the clean run.
//!
//! The load-bearing property, pinned by the parity tests: with clean
//! links the served topology reproduces the in-process
//! `ClosedLoopDriver` run **bit-for-bit** at any worker count — the
//! shard-union determinism contract extended across process boundaries.
//! Degradation under impairment is therefore attributable to the link
//! model alone.
#![warn(missing_docs)]

pub mod fidelity;
pub mod frame;
pub mod impair;
pub mod proto;
pub mod server;
pub mod worker;

pub use fidelity::{alert_fidelity, AlertFidelity};
pub use impair::{ImpairedChannel, LinkStats};
pub use server::{run_served, run_server, ServeOptions, ServedOutcome, WireStats};
pub use worker::{connect_and_serve, run_worker};
