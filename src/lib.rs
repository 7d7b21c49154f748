//! `ibflow` — umbrella crate for the reproduction of *"Implementing
//! Efficient and Scalable Flow Control Schemes in MPI over InfiniBand"*
//! (Liu & Panda, IPDPS 2004).
//!
//! This crate re-exports the workspace's public surface:
//!
//! * [`ibsim`] — deterministic discrete-event engine whose simulated
//!   processes are stackless coroutines.
//! * [`ibfabric`] — packet-level InfiniBand fabric model with a Verbs-like
//!   API (QPs, CQs, RC transport, RNR NAK, end-to-end credits, RDMA).
//! * [`mpib`] — the MPI library implementing the five flow control schemes
//!   of `FlowControlScheme::ALL`: the paper's three (hardware-based,
//!   user-level static, user-level dynamic) and the companion RDMA eager
//!   channel with a static and a growable ring.
//! * [`nasbench`] — communication-faithful NAS Parallel Benchmark kernels
//!   used for the application-level evaluation.
//!
//! See `README.md` for a quickstart and `DESIGN.md`/`EXPERIMENTS.md` for the
//! system inventory and the per-figure reproduction index.

/// README.md's code samples, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use ibfabric;
pub use ibsim;
pub use mpib;
pub use nasbench;
