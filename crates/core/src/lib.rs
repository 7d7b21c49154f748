//! `mpib` — an MPI implementation over the simulated InfiniBand fabric,
//! reproducing the flow control study of *"Implementing Efficient and
//! Scalable Flow Control Schemes in MPI over InfiniBand"* (Liu & Panda,
//! IPDPS 2004).
//!
//! # Design (paper §3–§5)
//!
//! Messages travel over one Reliable Connection per process pair, all
//! completions reported through a single completion queue per process.
//! Small messages and control messages use the **eager** protocol: the
//! payload is copied into a pre-pinned 2 KB buffer and sent with channel
//! semantics into one of the receiver's pre-posted buffers. Large messages
//! use the **rendezvous** protocol: a `RndzStart` control message, a
//! `RndzReply` carrying the pinned destination's rkey, a zero-copy RDMA
//! WRITE of the data, and a `RndzFin`. Buffer pinning costs are absorbed by
//! a pin-down cache ([`regcache`]). The four MPI communication modes map
//! onto these protocols as the paper's §3.1 describes: standard
//! ([`MpiRank::send`]) picks by size, synchronous ([`MpiRank::ssend`])
//! forces the rendezvous handshake, buffered ([`MpiRank::bsend`]) always
//! completes at the copy, and ready ([`MpiRank::rsend`]) is standard with
//! the caller's posted-receive assertion.
//!
//! Two extensions from the paper's related-work section are included:
//! on-demand connection setup ([`MpiConfig::on_demand_connections`], ref
//! \[23\]), which establishes a connection at its first use through the
//! same path eager setup runs for every pair at t = 0 (both post the
//! receive pool before the handshake, so it advertises the pool as
//! credits; a peer a rank never reaches costs it no connection), and the
//! RDMA-based eager channel ([`FlowControlScheme::RdmaChannel`], ref
//! \[13\]), which RDMA-writes small frames into persistent per-connection
//! rings the receiver polls — dropping small-message latency from ~7.5 µs
//! to ~6.6 µs here (the companion paper reports 6.8). The two combine:
//! the passive side of an on-demand connection learns of it the way a
//! connection manager tells a host, from the fabric's record of the
//! connections made toward its node, which each progress sweep reads
//! before it polls a completion or a ring — so a peer whose first frame
//! is a ring write, which raises no completion, is adopted too.
//!
//! # The three flow control schemes (paper §4)
//!
//! * [`FlowControlScheme::Hardware`] — the MPI layer does no accounting;
//!   every message posts immediately and InfiniBand end-to-end flow control
//!   plus RNR NAK/retry (with infinite retry) protect the receiver.
//! * [`FlowControlScheme::UserStatic`] — credit-based: each connection
//!   starts with `prepost` credits; sends without credits enter a FIFO
//!   **backlog** and are issued as rendezvous when credits return. Credits
//!   return by **piggybacking** on every message and, for asymmetric
//!   patterns, by **explicit credit messages** above a threshold. Credit
//!   messages are *optimistic* (bypass flow control) to avoid deadlock —
//!   or, as the paper's alternative, delivered by RDMA WRITE into a credit
//!   mailbox ([`CreditMsgMode::Rdma`]).
//! * [`FlowControlScheme::UserDynamic`] — static machinery plus feedback:
//!   messages that waited in the backlog are flagged, and a receiver seeing
//!   the flag grows that connection's pre-posted pool (linear growth by
//!   default).
//!
//! # Quickstart
//!
//! ```
//! use mpib::{MpiConfig, MpiWorld, FlowControlScheme};
//! use ibfabric::FabricParams;
//!
//! let cfg = MpiConfig { scheme: FlowControlScheme::UserDynamic, prepost: 4, ..Default::default() };
//! let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
//!     if mpi.rank() == 0 {
//!         mpi.send(b"hello", 1, 99).await;
//!         String::new()
//!     } else {
//!         let (_, data) = mpi.recv(Some(0), Some(99)).await;
//!         String::from_utf8(data.into_vec()).unwrap()
//!     }
//! }).unwrap();
//! assert_eq!(out.results[1], "hello");
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
mod buffers;
mod ckpt;
pub mod collectives;
mod comm;
mod config;
mod conn;
mod fault;
mod progress;
mod pt2pt;
mod rank;
pub mod regcache;
mod requests;
mod scalar;
mod stats;
mod types;
pub mod wire;
mod world;

pub use ckpt::{chaos_context, CkptRun, CkptStart, RestoreOptions, Snapshot, CKPT_FENCE_NOTE};
pub use comm::Comm;
pub use config::{CreditMsgMode, FlowControlScheme, GrowthPolicy, MpiConfig};
pub use fault::FabricFault;
pub use ibfabric::Bytes;
pub use rank::MpiRank;
pub use requests::ReqId;
pub use scalar::{
    decode_extend, decode_into, decode_slice, encode_shared, encode_slice, ReduceOp, Scalar,
};
pub use stats::{ConnStats, RankStats, WorldStats};
pub use types::{Rank, Status, Tag};
pub use wire::{MsgHeader, MsgKind, WireError, HEADER_LEN};
pub use world::{Endpoint, MpiRunError, MpiRunOutput, MpiWorld};
