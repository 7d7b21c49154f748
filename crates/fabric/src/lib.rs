//! `ibfabric` — a packet-timed, message-granular discrete-event model of an
//! InfiniBand fabric exposing a Verbs-like API.
//!
//! Built as the hardware substitute for reproducing *"Implementing Efficient
//! and Scalable Flow Control Schemes in MPI over InfiniBand"* (Liu & Panda,
//! IPDPS 2004): the paper's testbed (Mellanox InfiniHost MT23108 4X HCAs on
//! PCI-X behind one InfiniScale switch) is unavailable, so this crate models
//! the pieces of that hardware the paper's flow control study actually
//! exercises:
//!
//! * **Verbs object model** — HCAs per node, queue pairs ([`QpId`]) with send
//!   and receive queues, completion queues ([`CqId`]) with wakeable waiters,
//!   registered memory regions ([`MrId`]) with access-flag and bounds
//!   checking against the registered length, held on the host only as far
//!   as they have been written ([`Fabric::resident_bytes`]), work requests
//!   and completions ([`SendWr`], [`RecvWr`], [`Cqe`]).
//! * **Reliable Connection transport** — per-QP message sequence numbers,
//!   in-order delivery, go-back-N retransmission, **RNR NAK** generation when
//!   a message finds no posted receive WQE, configurable (including
//!   infinite) RNR retry budget and RNR timer, and **end-to-end flow
//!   control**: ACKs advertise the receiver's free receive-WQE count and the
//!   sender gates send-type messages on those advertised credits, probing
//!   with a single message when it has none.
//! * **Channel and memory semantics** — two-sided send/receive plus one-sided
//!   RDMA WRITE, which bypasses receive WQEs entirely: the two verbs every
//!   flow control scheme the paper evaluates is built from.
//! * **Timing model** — per-packet MTU segmentation, link serialization,
//!   a PCI-X DMA bandwidth bottleneck, switch egress-port occupancy and
//!   cut-through delay, per-WQE and per-packet HCA processing costs. Packet
//!   *timing* is exact under the FCFS port model while data moves at message
//!   granularity (RC never exposes partial messages), keeping the event count
//!   per message O(1).
//!
//! The crate is the world type for an [`ibsim::Sim`]; MPI ranks call the
//! verbs functions ([`post_send`], [`post_recv`], [`Fabric::poll_cq`], …) from
//! within [`ibsim::ProcCtx::with`] blocks, and the fabric schedules its own
//! continuation events on the simulation clock.
//!
//! # Example: ping over RC send/receive
//!
//! ```
//! use ibsim::{Sim, SimConfig};
//! use ibfabric::*;
//!
//! let mut fabric = Fabric::new(FabricParams::mt23108());
//! let a = fabric.add_node();
//! let b = fabric.add_node();
//! let cq_a = fabric.create_cq(a);
//! let cq_b = fabric.create_cq(b);
//! let qp_a = fabric.create_qp(a, cq_a, cq_a, QpAttrs::default());
//! let qp_b = fabric.create_qp(b, cq_b, cq_b, QpAttrs::default());
//! let mr_b = fabric.register(b, 4096, Access::LOCAL_WRITE);
//!
//! let mut sim = Sim::new(fabric, SimConfig::default());
//! sim.with_world(|ctx| {
//!     ctx.world.post_recv(qp_b, RecvWr { wr_id: 1, mr: mr_b, offset: 0, len: 64 }).unwrap();
//!     connect(ctx, qp_a, qp_b);
//!     post_send(ctx, qp_a, SendWr::inline_send(7, b"hi!".to_vec())).unwrap();
//! });
//! sim.run().unwrap();
//! let mut fabric = sim.into_world();
//! let cqes = fabric.poll_cq(cq_b, 16);
//! assert_eq!(cqes.len(), 1);
//! assert_eq!(cqes[0].byte_len, 3);
//! assert_eq!(&fabric.mr_bytes(mr_b)[..3], b"hi!");
//! // 4096 bytes are registered; the host holds the three that landed.
//! assert_eq!(fabric.mr_len(mr_b), 4096);
//! assert_eq!(fabric.resident_bytes(), 3);
//! assert_eq!(fabric.mr_read_vec(mr_b, 0, 5), b"hi!\0\0");
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

mod cq;
mod fabric;
mod fault;
mod mem;
mod net;
mod params;
mod qp;
pub mod snap;
mod stats;
mod transport;
mod wr;

pub use cq::{Cq, CqId};
pub use fabric::{connect, post_recv, post_send, Fabric, NodeId, VerbsError};
pub use fault::{FaultPlan, FlapScope, LinkFaultRates, LinkFlap};
pub use mem::{Access, Bytes, Mr, MrId};
pub use params::FabricParams;
pub use qp::{QpAttrs, QpId, QpState};
pub use snap::{encode_fabric, restore_fabric, CkptBus};
pub use stats::{FabricStats, QpStats};
pub use wr::{Cqe, CqeOpcode, CqeStatus, RecvWr, SendOp, SendWr};
