//! `testutil` — in-repo replacements for the external `proptest` and
//! `criterion` crates, scoped to exactly what this workspace needs.
//!
//! The repository is a *hermetic* reproduction artifact: `cargo build` and
//! `cargo test` must succeed with no registry access (see DESIGN.md,
//! "Hermetic build"). Rather than stub network-fetched dev-dependencies,
//! the two capabilities they provided live here:
//!
//! * [`prop`] — seeded random case generation, failure-seed reporting, and
//!   greedy shrinking for property-based tests.
//! * [`mod@bench`] — a wall-clock micro-benchmark harness (warmup + N samples,
//!   median/p10/p90) that writes JSON reports under `bench_results/`.
//!
//! Both are deterministic where it matters: property cases derive from
//! [`ibsim::rng::det_rng`] with a printed, overridable seed, so any failure
//! is reproducible from its log line alone.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bench;
pub mod prop;

pub use bench::Harness;
pub use prop::{check, check_with, find_failure, Case, Config, Gen};
