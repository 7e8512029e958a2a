//! # mercurial-fault
//!
//! Models of *corrupt execution errors* (CEEs) — the silent, intermittent,
//! core-specific computational defects described in "Cores that don't count"
//! (Hochschild et al., HotOS '21).
//!
//! The paper observes that mercurial cores:
//!
//! * afflict **specific cores** on multi-core CPUs, not whole chips (§1);
//! * are correlated with **specific execution units** within a core, so that
//!   seemingly unrelated instructions (e.g. data-copy and vector ops) fail
//!   together because they share hardware (§5);
//! * fail **non-deterministically at variable rate**, with rates spanning
//!   orders of magnitude across cores, workloads and operating points (§2);
//! * are sensitive to **frequency, voltage and temperature** in complex,
//!   sometimes non-monotone ways — "lower frequency sometimes (surprisingly)
//!   increases the failure rate" (§5);
//! * may stay **latent** and only manifest after years of service, and often
//!   **get worse with time** (§2, §4);
//! * can depend on **data patterns** (§2).
//!
//! This crate provides the vocabulary for all of that:
//!
//! * [`unit::FunctionalUnit`] — the execution units faults attach to;
//! * [`lesion::Lesion`] — *what* a defective unit does to a result;
//! * [`activation::Activation`] — *when* the defect fires (operating point,
//!   data patterns, aging, duty cycle);
//! * [`profile::CoreFaultProfile`] — the complete description of one
//!   mercurial core;
//! * [`library`] — a catalog of named profiles reproducing every concrete
//!   case study in §2 of the paper;
//! * [`inject::Injector`] — deterministic, replayable fault application;
//! * [`symptom::SymptomClass`] — the paper's §2 risk taxonomy of outcomes.
//!
//! Everything is deterministic given a seed: activation draws use a
//! counter-based generator keyed on `(seed, core, op-sequence)`, so a fleet
//! simulation can be replayed bit-for-bit regardless of scheduling order.
#![warn(missing_docs)]

pub mod activation;
pub mod fasthash;
pub mod inject;
pub mod lesion;
pub mod library;
pub mod oppoint;
pub mod profile;
pub mod rng;
pub mod symptom;
pub mod unit;

pub use activation::{Activation, AgingModel, DataPattern, FreqResponse};
pub use fasthash::{FastMap, FastSet, FxBuildHasher, FxHasher};
pub use inject::{Injector, OpContext, OpOutcome};
pub use lesion::{Lesion, LockFailureMode};
pub use oppoint::{DvfsCurve, OperatingPoint};
pub use profile::{CoreFaultProfile, CoreUid, FaultLesion};
pub use rng::{coin_kernel, Coin, CounterRng, StreamFamily};
pub use symptom::SymptomClass;
pub use unit::FunctionalUnit;
