//! # mercurial-corpus
//!
//! The test-case corpus. §2 of *Cores that don't count*: "We have a modest
//! corpus of code serving as test cases, selected based on intuition we
//! developed from experience with production incidents … This corpus
//! includes real-code snippets, interesting libraries (e.g., compression,
//! hash, math, cryptography, copying, locking, fork, system calls), and
//! specially-written tests."
//!
//! This crate provides exactly those categories, twice over:
//!
//! * **Native libraries**, implemented from scratch in Rust and verified
//!   against published test vectors: [`aes`] (AES-128/192/256), [`crc`]
//!   (CRC-32/CRC-32C, three implementations), [`hash`] (FNV-1a,
//!   SipHash-2-4, a Murmur3-style finalizer), [`lz`] (an LZ77-class codec),
//!   [`huffman`] (canonical Huffman), [`matmul`] (blocked GEMM plus
//!   Freivalds' checker), [`sort`] (three sorts under one harness),
//!   [`memops`] (checksummed copies), [`float`] (compensated summation /
//!   FMA stress) and [`locks`] (native-thread lock torture). These are the
//!   "interesting libraries" whose self-checking variants live in
//!   `mercurial-mitigation`; E7 (`e7_overheads`) times AES, the codec
//!   and the CRCs against those variants.
//! * **Simulated screening kernels** ([`simprogs`]): specially-written
//!   assembly programs for `mercurial-simcpu`, one or more per functional
//!   unit, each with golden outputs captured from a healthy core. These are
//!   what screeners execute against suspect cores.
#![warn(missing_docs)]

pub mod aes;
pub mod crc;
pub mod float;
pub mod hash;
pub mod huffman;
pub mod locks;
pub mod lz;
pub mod matmul;
pub mod memops;
pub mod simprogs;
pub mod sort;

pub use simprogs::{sim_corpus, ScreenOutcome, SimKernel};
