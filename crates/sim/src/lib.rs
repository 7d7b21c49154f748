//! `ibsim` — a deterministic discrete-event simulation (DES) engine whose
//! simulated processes are stackless coroutines multiplexed on one thread.
//!
//! The engine was built as the substrate for reproducing *"Implementing
//! Efficient and Scalable Flow Control Schemes in MPI over InfiniBand"*
//! (Liu & Panda, IPDPS 2004): MPI ranks are written in a natural blocking
//! style as `async` bodies — rustc compiles each into a resumable state
//! machine — while the network fabric is modelled with closure events on a
//! virtual clock. There is no async runtime: a hand-rolled poll loop
//! ([`Sim::run`]) drives everything, so the workspace stays hermetic and
//! zero-dependency, and a world of hundreds of ranks costs zero OS threads.
//!
//! # Model
//!
//! * **Virtual time** is an integer nanosecond counter ([`SimTime`]); events
//!   are ordered by `(time, sequence)` so execution is fully deterministic.
//! * **The world** is a user-supplied state type `W` (e.g. an InfiniBand
//!   fabric). Events are boxed closures receiving [`Ctx<W>`], which exposes
//!   the world, the clock, and scheduling operations.
//! * **Processes** ([`Sim::spawn`]) are coroutines: each `spawn` stores the
//!   body's `async` state machine, and the poll loop steps exactly one at a
//!   time. Processes interact with the world through [`ProcCtx`], suspend
//!   on [`Waker`] tokens, and advance time explicitly. Suspension points
//!   are only ever [`ProcCtx::park`] and [`ProcCtx::advance`] awaits.
//! * **Uniform handoff**: the poll loop pops the next `(time, seq)` event
//!   and either runs a closure inline or polls the target coroutine —
//!   whether that target is the process that just yielded (self-resume) or
//!   a peer makes no difference in cost: one queue pop plus one poll. Which
//!   coroutine runs when never affects results: virtual-time order is
//!   fixed by the `(time, seq)` queue alone.
//! * **Termination**: [`Sim::run`] returns when every process finished, when
//!   the event queue drains, or when a configured event/time limit fires.
//!   If processes are still parked with an empty queue the run reports a
//!   **deadlock** with a per-process diagnostic — the MPI layer above uses
//!   this to demonstrate the credit-message deadlock the paper's optimistic
//!   scheme avoids.
//!
//! # Example
//!
//! ```
//! use ibsim::{Sim, SimConfig, SimDuration};
//!
//! let mut sim: Sim<u64> = Sim::new(0, SimConfig::default());
//! sim.spawn("worker", |mut p| async move {
//!     p.advance(SimDuration::micros(5)).await;
//!     p.with(|ctx| *ctx.world += ctx.now().as_nanos());
//! });
//! let report = sim.run().unwrap();
//! assert_eq!(report.end_time.as_nanos(), 5_000);
//! assert_eq!(sim.into_world(), 5_000);
//! ```

#![warn(missing_docs)]
#![deny(unsafe_code)]
// A panic in this library turns a typed `SimError` report into a crash,
// and a catch-all arm swallows the next variant a scheme adds: both are
// denied crate-wide, and each audited exception is an
// `#[expect(clippy::…, reason = "…")]` on its statement (DESIGN.md §8).
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::wildcard_enum_match_arm
)]

#[cfg(test)]
mod analyses;
pub mod codec;
mod engine;
mod error;
mod event;
mod process;
mod queue;
pub mod rng;
pub mod stats;
mod time;
mod waker;

pub use engine::{Ctx, FenceAction, RunReport, Sim, SimClock, SimConfig};
pub use error::{DeadlockInfo, SimError};
pub use process::{ProcCtx, ProcId};
pub use time::{SimDuration, SimTime};
pub use waker::Waker;
