//! # mercurial-fleet
//!
//! A discrete-event fleet simulator: the *epidemiology* substrate for
//! *Cores that don't count*. The paper's fleet-level observations are
//! statistical — "a few mercurial cores per several thousand machines"
//! (§1), rates "not uniform across CPU products" (§2), defects that
//! "manifest long after initial installation" (§2) — and the detection and
//! isolation machinery of §6 operates on *signal streams* (crashes,
//! machine checks, checksum mismatches, user reports), not on silicon.
//!
//! This crate produces those signal streams from a configurable simulated
//! fleet:
//!
//! * [`product`] — a CPU-product catalog with per-product mercurial-core
//!   incidence and DVFS curves;
//! * [`topology`] — machines × sockets × cores, deployed in cohorts over
//!   time;
//! * [`population`] — ground-truth seeding of mercurial cores (sampled
//!   from the `mercurial-fault` archetype library), plus the *fault
//!   oracle* interface screeners use to run analytic tests against a core;
//! * [`workload`] — workload classes with per-unit operation mixes and
//!   end-to-end check coverage;
//! * [`signals`] — the signal taxonomy and log;
//! * [`sim`] — the driver that walks simulated time and emits signals,
//!   including background noise uncorrelated with CEEs (software is never
//!   bug-free, which is precisely what makes triage hard — §6 reports that
//!   only about half of human-identified suspects are real).
//! * [`time`] — a small event-queue engine used by the driver.
#![warn(missing_docs)]

pub mod par;
pub mod population;
pub mod product;
pub mod signals;
pub mod sim;
pub mod time;
pub mod topology;
pub mod workload;

pub use population::{MercurialCore, Population};
pub use product::CpuProduct;
pub use signals::{Signal, SignalKind, SignalLog};
pub use sim::{FleetSim, SimConfig, SimState, SimSummary};
pub use time::{EventKind, EventQueue};
pub use topology::{DeployCursor, FleetConfig, FleetTopology};
pub use workload::{TrafficShape, WorkloadClass};
