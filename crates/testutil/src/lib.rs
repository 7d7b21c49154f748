//! `testutil` — an in-repo replacement for the external `proptest` crate,
//! scoped to exactly what this workspace needs.
//!
//! The repository is a *hermetic* reproduction artifact: `cargo build` and
//! `cargo test` must succeed with no registry access (see DESIGN.md,
//! "Hermetic build"). Rather than stub a network-fetched dev-dependency,
//! [`prop`] provides seeded random case generation, failure-seed
//! reporting, and greedy shrinking for property-based tests.
//!
//! It is deterministic where it matters: property cases derive from
//! [`ibsim::rng::det_rng`] with a printed, overridable seed, so any failure
//! is reproducible from its log line alone.
//!
//! Host wall-clock timing lives in the ledger under `benchmark/` and in
//! `crates/bench/tests/host_floors.rs`, not here.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod prop;

pub use prop::{check, check_with, find_failure, Case, Config, Gen};
