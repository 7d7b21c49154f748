//! Checkpoint/restart and elastic rank replacement.
//!
//! # The quiesce protocol
//!
//! A checkpoint must capture the world at a point where nothing is in
//! flight: no WQE on a send queue, no message on the wire, no retransmit
//! timer armed, no request half-completed. [`MpiRank::checkpoint`] reaches
//! that point with the same three-phase drain `finalize` uses:
//!
//! 1. **Drain** — wait until this rank's backlogs are empty and no send
//!    transport is pending, then assert the application-level requirements
//!    (no live requests, no posted receives, no unmatched rendezvous).
//! 2. **Barrier** — a world barrier so no peer still needs this rank's
//!    progress engine.
//! 3. **Drain again** — the barrier's own traffic (including detached
//!    rendezvous handshakes) must finish before the world is silent.
//!
//! Each rank then deposits its serialized state on the [`CkptBus`] (at a
//! snapshot epoch), stamps the epoch it is waiting on, and parks at the
//! **checkpoint fence** ([`CKPT_FENCE_NOTE`]). Once every live rank is
//! parked there the event queue drains, [`ibsim::Sim::run_with_fence`]
//! invokes the fence callback, and the driver either *releases* the fence
//! (wakes everyone; the run continues) or *stops* with a [`Snapshot`].
//! A rank that checkpoints under plain [`crate::MpiWorld::run`] — or a
//! world where ranks disagree on how many checkpoints to take — surfaces
//! as a deadlock report at the fence note, not silent corruption.
//!
//! # Byte-identical resume
//!
//! The released and the restored run execute the same event sequence from
//! the fence onward: the fence callback clears every transient waker in
//! both paths (all live ranks are parked at the fence, so every registered
//! CQ waiter and RDMA watcher is stale), the engine's release wakes ranks
//! in process-id order consuming the same event sequence numbers `spawn`
//! consumes in a restored run, and the snapshot carries the scheduler
//! clock, the fabric's state and each rank's protocol state. A run
//! driven through [`crate::MpiWorld::run_with_checkpoints`] with
//! `snapshot_epoch: None` therefore serves as the uninterrupted golden a
//! snapshot → [`crate::MpiWorld::restore`] → resume run is compared
//! against, byte for byte.
//!
//! # What the image holds
//!
//! [`MpiWorld::restore`] builds the nodes and completion queues with
//! `world::bootstrap_fabric`, as a run does. The image holds what that
//! cannot know: every queue pair and region made after it — a
//! connection's endpoints at establishment, the rest at run time —
//! replayed in id order, which connections are established and their
//! dynamic state, and the bytes a resumed run reads — the credit
//! mailboxes, and a slab whose RECV completion is still queued (a peer's
//! phase-3 credit message that landed after this rank's blob, which the
//! released and the restored run then process alike). Other region bytes
//! are dead at a fence (DESIGN.md §12).
//!
//! # Elastic replacement
//!
//! [`RestoreOptions::replace`] models a node killed by the fault plane and
//! hot-swapped. At a quiesce fence a replacement is a restore: every rank,
//! the victim included, is spawned from its own blob onto the rebuilt
//! world, whose QPs the image replays in their connected state and whose
//! regions keep their indices, so the replacement re-seeds its
//! credit and ring ledgers and needs no new handshake. The option marks
//! the world as having rejoined one rank
//! ([`crate::WorldStats::rejoined_ranks`]); the run stays byte-identical
//! to the golden.
//!
//! What is **not** in a snapshot: configuration. [`MpiConfig`],
//! [`FabricParams`] and any [`ibfabric::FaultPlan`] are supplied again at
//! restore; the fabric image carries only the plan's RNG position, keyed
//! by seed, so resuming under the same plan continues its fault stream
//! while a fresh plan (the kill-and-replace scenario) starts its own.

use crate::buffers::{RING_MARKER, RING_MARKER_OFFSET};
use crate::config::MpiConfig;
use crate::conn::{Conn, RxRing};
use crate::rank::{MpiRank, RankSetup, Unexpected};
use crate::regcache::{RegCache, REGCACHE_CAPACITY};
use crate::requests::ReqId;
use crate::types::{CommCtx, Rank, Tag};
use crate::wire::MsgHeader;
use crate::world::{self, Endpoint, MpiRunError, MpiRunOutput, MpiWorld, MAILBOX_BYTES};
use ibfabric::{CkptBus, CqeOpcode, Fabric, FabricParams, MrId, NodeId};
use ibsim::codec::{CodecError, Reader, Writer};
use ibsim::{FenceAction, Sim, SimClock, SimConfig, SimDuration, SimTime};
use std::rc::Rc;

/// Park note every rank uses at the checkpoint fence; the engine treats a
/// drained queue with every live process parked here as a quiesce fence
/// rather than a deadlock.
pub const CKPT_FENCE_NOTE: &str = "checkpoint fence";

/// Snapshot container format: magic, version, and section tags.
const SNAPSHOT_MAGIC: u32 = 0x4942_434B; // "IBCK"
const SNAPSHOT_VERSION: u32 = 5;
const TAG_SNAP_META: u32 = 0xCB01;
const TAG_SNAP_FABRIC: u32 = 0xCB02;
const TAG_SNAP_RANKS: u32 = 0xCB03;

/// Rank blob format: version and section tags.
const RANK_BLOB_VERSION: u32 = 3;
const TAG_RANK: u32 = 0xC4A1;
const TAG_UNEXPECTED: u32 = 0xC4A2;
const TAG_REGCACHE: u32 = 0xC4A3;
const TAG_RANK_STATS: u32 = 0xC4A4;
const TAG_CONNS: u32 = 0xC4A5;
const TAG_APP: u32 = 0xC4A6;
const TAG_LANES: u32 = 0xC4A7;

/// The scheme and effective chaos seed, for assertion messages: when a
/// checkpoint invariant trips under the chaos battery, the report carries
/// everything needed to reproduce the run.
pub fn chaos_context(cfg: &MpiConfig) -> String {
    let seed = std::env::var("IBFLOW_CHAOS_SEED").unwrap_or_else(|_| "unset".into());
    format!("scheme={} IBFLOW_CHAOS_SEED={}", cfg.scheme.label(), seed)
}

/// What a rank body receives when it starts: whether it is resuming from a
/// snapshot, and the application bytes it passed to the checkpoint that
/// produced that snapshot.
#[derive(Debug)]
pub struct CkptStart {
    /// `0` for a fresh run; the snapshot's epoch when resuming, in which
    /// case the body must skip the work already done before that epoch.
    pub resumed_epoch: u64,
    /// The `app_state` bytes this rank passed to
    /// [`MpiRank::checkpoint`] at the snapshot epoch (empty for a fresh
    /// run).
    pub app_state: Vec<u8>,
}

/// A stopped world: the scheduler clock, the fabric image, and one blob
/// per rank, captured at a checkpoint fence. Self-describing and
/// versioned via [`Snapshot::to_bytes`] / [`Snapshot::from_bytes`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// The checkpoint epoch this snapshot was taken at.
    pub epoch: u64,
    /// World size.
    pub nprocs: usize,
    clock: SimClock,
    fabric_image: Vec<u8>,
    rank_blobs: Vec<Vec<u8>>,
}

impl Snapshot {
    /// Virtual time at the snapshot fence.
    pub fn time(&self) -> SimTime {
        self.clock.now
    }

    /// Serializes the snapshot (versioned; see [`Snapshot::from_bytes`]).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(SNAPSHOT_MAGIC);
        w.u32(SNAPSHOT_VERSION);
        w.section(TAG_SNAP_META, |w| {
            w.u64(self.epoch);
            w.usize(self.nprocs);
            w.u64(self.clock.now.as_nanos());
            w.u64(self.clock.seq);
            w.u64(self.clock.events_processed);
        });
        w.section(TAG_SNAP_FABRIC, |w| w.bytes(&self.fabric_image));
        w.section(TAG_SNAP_RANKS, |w| {
            w.usize(self.rank_blobs.len());
            for b in &self.rank_blobs {
                w.bytes(b);
            }
        });
        w.finish()
    }

    /// Parses bytes produced by [`Snapshot::to_bytes`]. Truncation, a bad
    /// magic, or an unknown version surface as typed [`CodecError`]s — an
    /// image from a future format version is rejected, never misread.
    pub fn from_bytes(bytes: &[u8]) -> Result<Snapshot, CodecError> {
        let mut r = Reader::new(bytes);
        let magic = r.u32("snapshot magic")?;
        if magic != SNAPSHOT_MAGIC {
            return Err(CodecError::BadTag {
                context: "snapshot magic",
                want: u64::from(SNAPSHOT_MAGIC),
                got: u64::from(magic),
            });
        }
        let version = r.u32("snapshot version")?;
        if version != SNAPSHOT_VERSION {
            return Err(CodecError::BadTag {
                context: "snapshot version",
                want: u64::from(SNAPSHOT_VERSION),
                got: u64::from(version),
            });
        }
        let mut meta = r.section(TAG_SNAP_META, "snapshot meta")?;
        let epoch = meta.u64("snapshot epoch")?;
        let nprocs = meta.usize("snapshot nprocs")?;
        if nprocs == 0 || nprocs > usize::from(u16::MAX) {
            return Err(CodecError::Overflow {
                context: "snapshot nprocs",
                value: nprocs as u64,
                max: u64::from(u16::MAX),
            });
        }
        let clock = SimClock {
            now: SimTime::from_nanos(meta.u64("snapshot clock.now")?),
            seq: meta.u64("snapshot clock.seq")?,
            events_processed: meta.u64("snapshot clock.events")?,
        };
        meta.done("snapshot meta")?;
        let mut fs = r.section(TAG_SNAP_FABRIC, "snapshot fabric")?;
        let fabric_image = fs.bytes("snapshot fabric image")?;
        fs.done("snapshot fabric")?;
        // A restore builds a connection slot per peer of every rank, and
        // each blob holds a presence byte per peer: a container too short
        // for the world it claims is refused before anything is built.
        let mut rs = r.section(TAG_SNAP_RANKS, "snapshot ranks")?;
        let n = rs.count("snapshot rank count", 8 + (nprocs - 1))?;
        if n != nprocs {
            return Err(CodecError::Overflow {
                context: "snapshot rank count",
                value: n as u64,
                max: nprocs as u64,
            });
        }
        let mut rank_blobs = Vec::with_capacity(n);
        for _ in 0..n {
            rank_blobs.push(rs.bytes("snapshot rank blob")?);
        }
        rs.done("snapshot ranks")?;
        r.done("snapshot")?;
        Ok(Snapshot {
            epoch,
            nprocs,
            clock,
            fabric_image,
            rank_blobs,
        })
    }
}

/// Outcome of a checkpoint-aware run: either the world ran to completion,
/// or it stopped at the requested snapshot epoch.
#[derive(Debug)]
pub enum CkptRun<R> {
    /// Every rank finished; no snapshot was requested (or the requested
    /// epoch was never reached before completion). Boxed: the output
    /// (per-rank stats inline) dwarfs the `Snapshot` variant.
    Completed(Box<MpiRunOutput<R>>),
    /// The run stopped at the snapshot fence; resume it with
    /// [`MpiWorld::restore`].
    Snapshot(Snapshot),
}

impl<R> CkptRun<R> {
    /// Unwraps the completed output.
    ///
    /// # Panics
    /// Panics when the run stopped at a snapshot fence instead.
    pub fn into_completed(self) -> MpiRunOutput<R> {
        match self {
            CkptRun::Completed(out) => *out,
            #[expect(
                clippy::panic,
                reason = "explicit unwrap helper; the variant is part of its contract"
            )]
            CkptRun::Snapshot(s) => panic!("run stopped at snapshot epoch {}", s.epoch),
        }
    }

    /// Unwraps the snapshot.
    ///
    /// # Panics
    /// Panics when the run completed instead of stopping at a fence.
    pub fn into_snapshot(self) -> Snapshot {
        match self {
            #[expect(
                clippy::panic,
                reason = "explicit unwrap helper; the variant is part of its contract"
            )]
            CkptRun::Completed(_) => panic!("run completed without reaching the snapshot epoch"),
            CkptRun::Snapshot(s) => s,
        }
    }
}

/// How to resume a [`Snapshot`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RestoreOptions {
    /// Hot-swap this rank: its coroutine is respawned from its own blob
    /// like every other rank's, and the run reports it as rejoined — the
    /// elastic-replacement model for a node the fault plane killed.
    pub replace: Option<Rank>,
    /// Stop again at this (strictly later) checkpoint epoch, producing a
    /// fresh snapshot — checkpoint ladders.
    pub snapshot_epoch: Option<u64>,
}

impl MpiRank {
    /// Takes a coordinated checkpoint: drains this rank to a stable point
    /// and synchronizes with the world (the quiesce `finalize` runs too),
    /// then parks at the checkpoint fence until the driver releases it (or
    /// stops the run with a snapshot). Returns the completed epoch.
    /// `app_state` is this rank's opaque application payload; it comes back
    /// through [`CkptStart::app_state`] on resume.
    ///
    /// Requirements at the call site (asserted): every non-blocking
    /// request waited on, no posted receives outstanding, and no unmatched
    /// rendezvous pending — an unmatched `RndzStart` leaves its sender
    /// unable to drain, which surfaces as a deadlock at the drain note.
    ///
    /// Only meaningful under [`MpiWorld::run_with_checkpoints`] /
    /// [`MpiWorld::restore`]; under plain [`MpiWorld::run`] the fence is
    /// never released and the run reports a deadlock at
    /// [`CKPT_FENCE_NOTE`].
    pub async fn checkpoint(&mut self, app_state: &[u8]) -> u64 {
        let epoch = self.ckpt_epoch + 1;
        assert!(
            self.posted_recvs.is_empty(),
            "rank {} entered checkpoint epoch {epoch} with posted receives ({})",
            self.rank,
            chaos_context(&self.cfg),
        );
        self.quiesce(["checkpoint: draining backlog", "checkpoint: draining sends"])
            .await;
        // No awaits from here to the park: deposit and stamp atomically
        // with respect to the simulation.
        self.ckpt_epoch = epoch;
        let snapshotting = self
            .proc
            .with(|ctx| ctx.world.ckpt.snapshot_epoch == Some(epoch));
        if snapshotting {
            let blob = self.encode_blob(app_state);
            let rank = self.rank;
            self.proc.with(|ctx| {
                let blobs = &mut ctx.world.ckpt.rank_blobs;
                assert!(
                    rank < blobs.len(),
                    "checkpoint bus not sized for rank {rank}: run under the checkpoint driver"
                );
                blobs[rank] = Some(blob);
            });
        }
        self.proc.with(|ctx| ctx.world.ckpt.pending_epoch = epoch);
        // Spurious wakes re-check and re-park; the fence callback bumps
        // `released_epoch` before waking anyone.
        loop {
            if self.proc.with(|ctx| ctx.world.ckpt.released_epoch >= epoch) {
                break;
            }
            self.proc.park(CKPT_FENCE_NOTE).await;
        }
        epoch
    }

    /// Serializes this rank's protocol state. Called only at a checkpoint
    /// fence, with the drain invariants already holding (asserted).
    fn encode_blob(&self, app_state: &[u8]) -> Vec<u8> {
        let ctx = || chaos_context(&self.cfg);
        assert_eq!(
            self.outstanding_ctrl,
            0,
            "rank {}: control sends outstanding at a checkpoint fence ({})",
            self.rank,
            ctx(),
        );
        assert_eq!(
            self.pending_charge,
            SimDuration::ZERO,
            "rank {}: uncharged software cost at a checkpoint fence ({})",
            self.rank,
            ctx(),
        );
        assert!(
            self.stats.faults.is_empty(),
            "rank {}: snapshot after a fabric fault ({}); checkpoints must precede the kill",
            self.rank,
            ctx(),
        );
        let mut w = Writer::new();
        w.u32(RANK_BLOB_VERSION);
        w.section(TAG_RANK, |w| {
            w.usize(self.rank);
            w.usize(self.size);
            w.u64(self.ckpt_epoch);
            w.u16(self.next_ctx);
            w.usize(self.coll_seq.len());
            for (&c, &s) in &self.coll_seq {
                w.u16(c);
                w.u32(s);
            }
            w.u64(self.rdma_seen);
            w.bool(self.ring_residual);
            // Establishment order matters: the watchlist is polled in
            // insertion order, which on-demand connections make
            // run-dependent — so it is serialized, never re-derived.
            w.usize(self.rdma_watch.len());
            for &p in &self.rdma_watch {
                w.usize(p);
            }
            let (req_slots, req_free) = self.reqs.shape();
            w.u32(req_slots);
            w.usize(req_free.len());
            for s in req_free {
                w.u32(s);
            }
        });
        w.section(TAG_UNEXPECTED, |w| {
            w.usize(self.unexpected.len());
            for u in &self.unexpected {
                match u {
                    Unexpected::Eager {
                        src,
                        tag,
                        comm,
                        data,
                    } => {
                        w.usize(*src);
                        w.i32(*tag);
                        w.u16(*comm);
                        w.bytes(data);
                    }
                    #[expect(
                        clippy::panic,
                        reason = "an unmatched rendezvous start means its sender cannot have drained, so reaching the fence with one is a protocol bug"
                    )]
                    Unexpected::Rndz { src, .. } => {
                        panic!(
                            "rank {}: unmatched rendezvous from rank {src} at a checkpoint \
                             fence ({}); post the matching receive before checkpointing",
                            self.rank,
                            ctx(),
                        )
                    }
                }
            }
        });
        w.section(TAG_REGCACHE, |w| self.regcache.encode(w));
        w.section(TAG_LANES, |w| {
            w.usize(self.landing_lanes.len());
            for &(class_len, mr, claimant) in &self.landing_lanes {
                w.usize(class_len);
                w.u32(mr.as_raw());
                w.u32(claimant.0);
            }
        });
        w.section(TAG_RANK_STATS, |w| {
            w.u64(self.stats.msgs_received.get());
            w.u64(self.stats.eager_bytes.get());
            w.u64(self.stats.rndz_bytes.get());
            w.u64(self.stats.unexpected_msgs.get());
        });
        // A presence byte per peer, each established connection's record
        // after its byte: an unreached peer costs one byte.
        w.section(TAG_CONNS, |w| {
            for peer in (0..self.size).filter(|&p| p != self.rank) {
                w.bool(self.conns[peer].is_some());
                let Some(c) = &self.conns[peer] else {
                    continue;
                };
                assert!(
                    c.backlog.is_empty() && c.optimistic_req.is_none(),
                    "rank {}: connection to {} not drained at a checkpoint fence ({})",
                    self.rank,
                    c.peer,
                    ctx(),
                );
                assert!(
                    !c.failed,
                    "rank {}: connection to {} failed before the checkpoint fence ({})",
                    self.rank,
                    c.peer,
                    ctx(),
                );
                self.assert_rings_consumed(c);
                encode_conn(c, w);
            }
        });
        w.section(TAG_APP, |w| w.bytes(app_state));
        w.finish()
    }

    /// Panics if a ring of `c` holds a frame its poller has not consumed:
    /// the image carries no ring bytes, so the restored run would never
    /// see it.
    fn assert_rings_consumed(&self, c: &Conn) {
        let marked = |bytes: &[u8], slot: u32| {
            let at = slot as usize * self.cfg.buf_size + RING_MARKER_OFFSET;
            bytes.get(at) == Some(&RING_MARKER)
        };
        let unread = self.proc.with(|ctx| {
            let bytes = |g: &RxRing| ctx.world.mr_bytes(g.mr);
            c.rings
                .iter()
                .any(|g| (0..g.slots).any(|slot| marked(bytes(g), slot)))
        });
        assert!(
            !unread,
            "rank {}: unconsumed ring frame from rank {} at a checkpoint fence ({})",
            self.rank,
            c.peer,
            chaos_context(&self.cfg),
        );
    }

    /// Overwrites this (freshly constructed) rank's dynamic state with a
    /// decoded image and returns the application bytes; the image's
    /// connections arrived through [`RankSetup`]. Infallible: every field
    /// was validated by [`decode_rank_blob`] before any coroutine was
    /// spawned.
    pub(crate) fn apply_image(&mut self, img: RankImage) -> Vec<u8> {
        self.ckpt_epoch = img.ckpt_epoch;
        self.next_ctx = img.next_ctx;
        self.coll_seq = img.coll_seq.into_iter().collect();
        self.rdma_seen = img.rdma_seen;
        self.ring_residual = img.ring_residual;
        self.rdma_watch = img.rdma_watch;
        self.reqs.restore_shape(img.req_slots, img.req_free);
        self.unexpected = img
            .unexpected
            .into_iter()
            .map(|(src, tag, comm, data)| Unexpected::Eager {
                src,
                tag,
                comm,
                data,
            })
            .collect();
        self.regcache = img.regcache;
        self.landing_lanes = img.landing_lanes;
        self.stats.msgs_received = img.msgs_received.into();
        self.stats.eager_bytes = img.eager_bytes.into();
        self.stats.rndz_bytes = img.rndz_bytes.into();
        self.stats.unexpected_msgs = img.unexpected_msgs.into();
        img.app_state
    }
}

/// Serializes one connection's dynamic state (field order is the format;
/// [`decode_conn`] mirrors it).
fn encode_conn(c: &Conn, w: &mut Writer) {
    // IBCK v1 interleaves the two credit windows with the fields around
    // them, each in its own order; the order below is the format.
    let (cw, rw) = (&c.credits, &c.ring);
    w.u32(cw.held);
    w.u32(c.send_seq);
    w.u32(c.prepost_target);
    w.u32(c.posted);
    w.u32(cw.pending);
    w.u64(cw.granted_total);
    w.u64(cw.spent_total);
    w.u64(cw.consumed_total);
    w.u64(cw.returned_total);
    w.u64(cw.mailbox_seen);
    w.u64(cw.mailbox_sent_total);
    w.u32(rw.held);
    w.u32(rw.pending);
    w.u64(rw.mailbox_sent_total);
    w.u64(rw.granted_total);
    w.u64(rw.spent_total);
    w.u64(rw.consumed_total);
    w.u64(rw.returned_total);
    w.u64(rw.mailbox_seen);
    w.u32(c.next_deliver_seq);
    w.usize(c.reorder.len());
    for (&seq, (h, payload)) in &c.reorder {
        w.u32(seq);
        #[expect(
            clippy::expect_used,
            reason = "reorder headers came off the wire, so their fields fit by construction"
        )]
        let hb = h.try_encode().expect("reorder header fields fit");
        w.bytes(&hb);
        w.bytes(payload);
    }
    // The live ring generation, then the older ones still draining.
    let (older, live) = c.rings.split_at(c.rings.len() - 1);
    let live = &live[0];
    w.u32(live.mr.as_raw());
    w.u32(live.read_slot);
    w.u32(c.peer_ring.as_raw());
    w.u32(c.ring_write_slot);
    w.u32(live.gen);
    w.u32(live.slots);
    w.u32(c.peer_ring_gen);
    w.u32(c.peer_ring_slots);
    w.u32(c.peer_acked_gen);
    w.usize(older.len());
    for r in older {
        w.u32(r.gen);
        w.u32(r.mr.as_raw());
        w.u32(r.slots);
        w.u32(r.read_slot);
    }
    w.u32(c.ring_full_since_update);
    w.bool(c.ring_backlog_pending);
    w.bool(c.ring_gen_ack_pending);
    w.bool(c.ring_growth_pending);
    // Run-filled statistics only: the ledger-snapshot fields stay zero
    // here; `MpiRank::stats` fills them from the live ledger.
    w.u64(c.stats.msgs_sent.get());
    w.u64(c.stats.eager_sent.get());
    w.u64(c.stats.ring_sent.get());
    w.u64(c.stats.rndz_sent.get());
    w.u64(c.stats.ecm_sent.get());
    w.u64(c.stats.rdma_credit_updates.get());
    w.u64(c.stats.backlogged.get());
    w.u64(c.stats.credits_piggybacked.get());
    w.u64(c.stats.max_posted.get());
    w.u64(c.stats.growth_events.get());
    w.u64(c.stats.ring_growth_events.get());
    w.u64(c.stats.rings_retired.get());
    w.u64(c.stats.ring_generation.get());
}

/// A serialized region handle, held against the restored fabric's region
/// count.
pub(crate) fn mr_id(raw: u32, n_mrs: usize, context: &'static str) -> Result<MrId, CodecError> {
    if (raw as usize) < n_mrs {
        Ok(MrId::from_raw(raw))
    } else {
        Err(CodecError::Overflow {
            context,
            value: u64::from(raw),
            max: (n_mrs as u64).saturating_sub(1),
        })
    }
}

/// What [`node_region`] calls a landing lane it refuses.
const LANE_REFUSALS: [&str; 3] = [
    "landing lane mr",
    "landing lane mr (another node's region)",
    "landing lane len",
];

/// A serialized handle to a region `node` lands `len` bytes of
/// rendezvous data in (a pin-down cache entry or a landing lane): a region
/// of the restored fabric, on `node`, at least `len` long. `contexts` name
/// the refusals: no such region, another node's, too short.
pub(crate) fn node_region(
    fabric: &Fabric,
    node: NodeId,
    raw: u32,
    len: usize,
    contexts: [&'static str; 3],
) -> Result<MrId, CodecError> {
    let mr = mr_id(raw, fabric.mr_count(), contexts[0])?;
    let owner = fabric.mr_node(mr);
    if owner != node {
        return Err(CodecError::BadTag {
            context: contexts[1],
            want: node.index() as u64,
            got: owner.index() as u64,
        });
    }
    if len > fabric.mr_len(mr) {
        return Err(CodecError::Overflow {
            context: contexts[2],
            value: len as u64,
            max: fabric.mr_len(mr) as u64,
        });
    }
    Ok(mr)
}

/// Fills the dynamic state of `c`, as [`Conn::establish`] built it, from
/// its record (mirror of [`encode_conn`]), overwriting every field.
fn decode_conn(
    r: &mut Reader<'_>,
    c: &mut Conn,
    cfg: &MpiConfig,
    fabric: &Fabric,
) -> Result<(), CodecError> {
    let n_mrs = fabric.mr_count();
    c.credits.held = r.u32("conn.credits.held")?;
    c.send_seq = r.u32("conn.send_seq")?;
    // The pool's slots are `0..prepost_target` and the next free one is
    // `prepost_target`: a pool past the slab would post outside it, and
    // more buffers posted than the pool holds is a slot posted twice.
    c.prepost_target = r.u32("conn.prepost_target")?;
    if c.prepost_target > cfg.pool_cap() {
        return Err(CodecError::Overflow {
            context: "conn.prepost_target",
            value: u64::from(c.prepost_target),
            max: u64::from(cfg.pool_cap()),
        });
    }
    c.posted = r.u32("conn.posted")?;
    if c.posted > c.prepost_target {
        return Err(CodecError::Overflow {
            context: "conn.posted",
            value: u64::from(c.posted),
            max: u64::from(c.prepost_target),
        });
    }
    let (credits, ring) = (&mut c.credits, &mut c.ring);
    credits.pending = r.u32("conn.credits.pending")?;
    credits.granted_total = r.u64("conn.credits.granted_total")?;
    credits.spent_total = r.u64("conn.credits.spent_total")?;
    credits.consumed_total = r.u64("conn.credits.consumed_total")?;
    credits.returned_total = r.u64("conn.credits.returned_total")?;
    credits.mailbox_seen = r.u64("conn.credits.mailbox_seen")?;
    credits.mailbox_sent_total = r.u64("conn.credits.mailbox_sent_total")?;
    ring.held = r.u32("conn.ring.held")?;
    ring.pending = r.u32("conn.ring.pending")?;
    ring.mailbox_sent_total = r.u64("conn.ring.mailbox_sent_total")?;
    ring.granted_total = r.u64("conn.ring.granted_total")?;
    ring.spent_total = r.u64("conn.ring.spent_total")?;
    ring.consumed_total = r.u64("conn.ring.consumed_total")?;
    ring.returned_total = r.u64("conn.ring.returned_total")?;
    ring.mailbox_seen = r.u64("conn.ring.mailbox_seen")?;
    // A leaking window would trip the finalize assertion; hostile bytes
    // must surface as a typed error instead.
    if !(credits.conserved() && ring.conserved()) {
        return Err(CodecError::BadTag {
            context: "conn credit windows (not conserved)",
            want: 0,
            got: 1,
        });
    }
    c.next_deliver_seq = r.u32("conn.next_deliver_seq")?;
    let n_reorder = r.count("conn.reorder.count", 4 + 8 + 8)?;
    c.reorder.clear();
    for _ in 0..n_reorder {
        let seq = r.u32("conn.reorder.seq")?;
        let hb = r.bytes("conn.reorder.header")?;
        let h = MsgHeader::decode(&hb).map_err(|_| CodecError::BadTag {
            context: "conn.reorder.header",
            want: 0,
            got: 1,
        })?;
        let payload = r.bytes("conn.reorder.payload")?;
        c.reorder.insert(seq, (h, payload));
    }
    let live_mr = mr_id(r.u32("conn.my_ring")?, n_mrs, "conn.my_ring")?;
    let live_read_slot = r.u32("conn.ring_read_slot")?;
    c.peer_ring = mr_id(r.u32("conn.peer_ring")?, n_mrs, "conn.peer_ring")?;
    c.ring_write_slot = r.u32("conn.ring_write_slot")?;
    let live_gen = r.u32("conn.my_ring_gen")?;
    let live_slots = r.u32("conn.my_ring_slots")?;
    c.peer_ring_gen = r.u32("conn.peer_ring_gen")?;
    c.peer_ring_slots = r.u32("conn.peer_ring_slots")?;
    c.peer_acked_gen = r.u32("conn.peer_acked_gen")?;
    let n_older = r.count("conn.retired.count", 4 * 4)?;
    c.rings.clear();
    for _ in 0..n_older {
        c.rings.push(RxRing {
            gen: r.u32("conn.retired.gen")?,
            mr: mr_id(r.u32("conn.retired.mr")?, n_mrs, "conn.retired.mr")?,
            slots: r.u32("conn.retired.slots")?,
            read_slot: r.u32("conn.retired.read_slot")?,
        });
    }
    c.rings.push(RxRing {
        gen: live_gen,
        mr: live_mr,
        slots: live_slots,
        read_slot: live_read_slot,
    });
    check_ring_geometry(c, cfg, fabric)?;
    c.ring_full_since_update = r.u32("conn.ring_full_since_update")?;
    c.ring_backlog_pending = r.bool("conn.ring_backlog_pending")?;
    c.ring_gen_ack_pending = r.bool("conn.ring_gen_ack_pending")?;
    c.ring_growth_pending = r.bool("conn.ring_growth_pending")?;
    let st = &mut c.stats;
    st.msgs_sent = r.u64("conn.stats")?.into();
    st.eager_sent = r.u64("conn.stats")?.into();
    st.ring_sent = r.u64("conn.stats")?.into();
    st.rndz_sent = r.u64("conn.stats")?.into();
    st.ecm_sent = r.u64("conn.stats")?.into();
    st.rdma_credit_updates = r.u64("conn.stats")?.into();
    st.backlogged = r.u64("conn.stats")?.into();
    st.credits_piggybacked = r.u64("conn.stats")?.into();
    st.max_posted = r.u64("conn.stats")?.into();
    st.growth_events = r.u64("conn.stats")?.into();
    st.ring_growth_events = r.u64("conn.stats")?.into();
    st.rings_retired = r.u64("conn.stats")?.into();
    st.ring_generation = r.u64("conn.stats")?.into();
    Ok(())
}

/// Refuses ring geometry the first ring poll or post would trip over (a
/// cursor read outside its region, a `% 0`). A ring in use — under a ring
/// scheme — has each cursor below its slot count and room for its slots
/// in its region, generations increasing, and older generations only
/// where the ring's cap lies above the bootstrap ring (a ring that may
/// grow); an unused ring keeps the empty geometry [`Conn::establish`]
/// gives it.
fn check_ring_geometry(c: &Conn, cfg: &MpiConfig, fabric: &Fabric) -> Result<(), CodecError> {
    let in_use = cfg.scheme.uses_ring();
    let fits = |mr: MrId, slots: u32, cursor: u32| {
        if in_use {
            cursor < slots
                && (slots as usize)
                    .checked_mul(cfg.buf_size)
                    .is_some_and(|len| len <= fabric.mr_len(mr))
        } else {
            (slots, cursor) == (0, 0)
        }
    };
    let ok = c.rings.iter().all(|g| fits(g.mr, g.slots, g.read_slot))
        && fits(c.peer_ring, c.peer_ring_slots, c.ring_write_slot)
        && c.rings.windows(2).all(|w| w[0].gen < w[1].gen)
        && (c.rings.len() == 1 || (in_use && cfg.ring_cap() > cfg.rdma_ring_slots));
    if ok {
        Ok(())
    } else {
        Err(CodecError::BadTag {
            context: "conn ring geometry",
            want: 0,
            got: 1,
        })
    }
}

/// Fully decoded image of one rank's blob, validated before any coroutine
/// is spawned so a corrupt snapshot surfaces as
/// [`MpiRunError::Snapshot`], never a panic inside the simulation.
pub(crate) struct RankImage {
    ckpt_epoch: u64,
    next_ctx: CommCtx,
    coll_seq: Vec<(CommCtx, u32)>,
    rdma_seen: u64,
    ring_residual: bool,
    rdma_watch: Vec<Rank>,
    req_slots: u32,
    req_free: Vec<u32>,
    unexpected: Vec<(Rank, Tag, CommCtx, Vec<u8>)>,
    regcache: RegCache,
    landing_lanes: Vec<(usize, MrId, ReqId)>,
    msgs_received: u64,
    eager_bytes: u64,
    rndz_bytes: u64,
    unexpected_msgs: u64,
    app_state: Vec<u8>,
}

/// What [`restored_connection`] calls a region it refuses.
const ENDPOINT_REFUSALS: [&str; 3] = [
    "conn endpoint region",
    "conn endpoint region (another node's region)",
    "conn endpoint region len",
];

/// The endpoints of the connection between ranks `pair` on a restored
/// fabric — the first rank's, then the second's — with the first's slab
/// and both mailboxes on their owners' nodes and as long as the
/// connection uses them (the rings are checked with their geometry).
fn restored_connection(
    fabric: &Fabric,
    cfg: &MpiConfig,
    pair: [Rank; 2],
) -> Result<[Endpoint; 2], CodecError> {
    let ends = world::connection(fabric, pair).ok_or(CodecError::BadTag {
        context: "conn (no connected endpoint on the fabric)",
        want: 1,
        got: 0,
    })?;
    let slab = cfg.pool_cap() as usize * cfg.buf_size;
    for (rank, mr, len) in [
        (pair[0], ends[0].slab, slab),
        (pair[0], ends[0].mailbox, MAILBOX_BYTES),
        (pair[1], ends[1].mailbox, MAILBOX_BYTES),
    ] {
        let node = world::node_of(rank);
        node_region(fabric, node, mr.as_raw(), len, ENDPOINT_REFUSALS)?;
    }
    Ok(ends)
}

/// Decodes the blob of the rank `setup` bootstraps, building in `setup`
/// each connection the blob records onto the endpoints the restored
/// fabric holds for it.
fn decode_rank_blob(
    blob: &[u8],
    setup: &mut RankSetup,
    fabric: &Fabric,
) -> Result<RankImage, CodecError> {
    let (rank, size, node, cfg) = (setup.rank, setup.size, setup.node, &setup.cfg);
    let mut r = Reader::new(blob);
    let version = r.u32("rank blob version")?;
    if version != RANK_BLOB_VERSION {
        return Err(CodecError::BadTag {
            context: "rank blob version",
            want: u64::from(RANK_BLOB_VERSION),
            got: u64::from(version),
        });
    }
    let mut rs = r.section(TAG_RANK, "rank blob")?;
    let blob_rank = rs.usize("rank blob rank")?;
    let blob_size = rs.usize("rank blob size")?;
    if blob_rank != rank || blob_size != size {
        return Err(CodecError::BadTag {
            context: "rank blob identity",
            want: rank as u64,
            got: blob_rank as u64,
        });
    }
    let ckpt_epoch = rs.u64("rank blob epoch")?;
    let next_ctx = rs.u16("rank blob next_ctx")?;
    let n_coll = rs.count("rank blob coll_seq.count", 2 + 4)?;
    let mut coll_seq = Vec::with_capacity(n_coll);
    for _ in 0..n_coll {
        let c = rs.u16("rank blob coll_seq.ctx")?;
        let s = rs.u32("rank blob coll_seq.seq")?;
        coll_seq.push((c, s));
    }
    let rdma_seen = rs.u64("rank blob rdma_seen")?;
    let ring_residual = rs.bool("rank blob ring_residual")?;
    let n_watch = rs.count("rank blob rdma_watch.count", 8)?;
    let mut rdma_watch = Vec::with_capacity(n_watch);
    for _ in 0..n_watch {
        let p = rs.usize("rank blob rdma_watch.peer")?;
        if p >= size {
            return Err(CodecError::Overflow {
                context: "rank blob rdma_watch.peer",
                value: p as u64,
                max: size as u64 - 1,
            });
        }
        rdma_watch.push(p);
    }
    let req_slots = rs.u32("rank blob req.slots")?;
    let n_req_free = rs.count("rank blob req.free.count", 4)?;
    if n_req_free != req_slots as usize {
        // A fenced table has zero live requests, so every slot is free.
        return Err(CodecError::Overflow {
            context: "rank blob req.free.count",
            value: n_req_free as u64,
            max: u64::from(req_slots),
        });
    }
    let mut req_free = Vec::with_capacity(n_req_free);
    for _ in 0..n_req_free {
        let s = rs.u32("rank blob req.free.slot")?;
        if s >= req_slots {
            return Err(CodecError::Overflow {
                context: "rank blob req.free.slot",
                value: u64::from(s),
                max: u64::from(req_slots) - 1,
            });
        }
        req_free.push(s);
    }
    rs.done("rank blob")?;

    let mut us = r.section(TAG_UNEXPECTED, "rank blob unexpected")?;
    let n_unexp = us.count("unexpected.count", 8 + 4 + 2 + 8)?;
    let mut unexpected = Vec::with_capacity(n_unexp);
    for _ in 0..n_unexp {
        let src = us.usize("unexpected.src")?;
        if src >= size {
            return Err(CodecError::Overflow {
                context: "unexpected.src",
                value: src as u64,
                max: size as u64 - 1,
            });
        }
        let tag = us.i32("unexpected.tag")?;
        let comm = us.u16("unexpected.comm")?;
        let data = us.bytes("unexpected.data")?;
        unexpected.push((src, tag, comm, data));
    }
    us.done("rank blob unexpected")?;

    let mut gs = r.section(TAG_REGCACHE, "rank blob regcache")?;
    let mut regcache = RegCache::new(node, REGCACHE_CAPACITY);
    regcache.restore(&mut gs, fabric)?;
    gs.done("rank blob regcache")?;

    let mut ls = r.section(TAG_LANES, "rank blob landing lanes")?;
    let n_lanes = ls.count("landing lane count", 8 + 4 + 4)?;
    let mut landing_lanes = Vec::with_capacity(n_lanes);
    for _ in 0..n_lanes {
        let class_len = ls.usize("landing lane len")?;
        let raw = ls.u32("landing lane mr")?;
        let mr = node_region(fabric, node, raw, class_len, LANE_REFUSALS)?;
        // A claimant is only looked up, so any value is safe: one the
        // table does not hold reads as a free lane.
        let claimant = ReqId(ls.u32("landing lane claimant")?);
        landing_lanes.push((class_len, mr, claimant));
    }
    ls.done("rank blob landing lanes")?;

    let mut ss = r.section(TAG_RANK_STATS, "rank blob stats")?;
    let msgs_received = ss.u64("stats.msgs_received")?;
    let eager_bytes = ss.u64("stats.eager_bytes")?;
    let rndz_bytes = ss.u64("stats.rndz_bytes")?;
    let unexpected_msgs = ss.u64("stats.unexpected_msgs")?;
    ss.done("rank blob stats")?;

    let mut cs = r.section(TAG_CONNS, "rank blob conns")?;
    for peer in (0..size).filter(|&p| p != rank) {
        setup.conns[peer] = if cs.bool("conn.present")? {
            let [mine, theirs] = restored_connection(fabric, cfg, [rank, peer])?;
            let mut c = Conn::establish(cfg, peer, &mine, &theirs);
            decode_conn(&mut cs, &mut c, cfg, fabric)?;
            Some(Box::new(c))
        } else {
            None
        };
    }
    cs.done("rank blob conns")?;
    // Only a connection is polled: its ring geometry is the one
    // `check_ring_geometry` held to a ring in use.
    if rdma_watch.iter().any(|&p| setup.conns[p].is_none()) {
        return Err(CodecError::BadTag {
            context: "rank blob rdma_watch.peer (no connection)",
            want: 1,
            got: 0,
        });
    }

    let mut aps = r.section(TAG_APP, "rank blob app")?;
    let app_state = aps.bytes("rank blob app state")?;
    aps.done("rank blob app")?;
    r.done("rank blob")?;

    Ok(RankImage {
        ckpt_epoch,
        next_ctx,
        coll_seq,
        rdma_seen,
        ring_residual,
        rdma_watch,
        req_slots,
        req_free,
        unexpected,
        regcache,
        landing_lanes,
        msgs_received,
        eager_bytes,
        rndz_bytes,
        unexpected_msgs,
        app_state,
    })
}

/// The fence callback of every checkpoint-aware run: release a
/// barrier-only epoch, or — at the requested epoch — build the
/// [`Snapshot`] into `snapshot` and stop.
pub(crate) fn snapshot_or_release(
    world: &mut Fabric,
    clock: SimClock,
    snapshot: &mut Option<Snapshot>,
) -> FenceAction {
    // Every live rank is parked at the fence, so every registered CQ
    // waiter and RDMA watcher is stale; clearing them here (in BOTH
    // paths) keeps the released run and the restored run identical.
    world.clear_transient_wakers();
    let epoch = world.ckpt.pending_epoch;
    if world.ckpt.snapshot_epoch != Some(epoch) {
        world.ckpt.released_epoch = epoch;
        return FenceAction::Continue;
    }
    let n = world.ckpt.rank_blobs.len();
    #[expect(
        clippy::panic,
        reason = "every rank deposits before stamping the epoch it parks on, so a missing blob is a protocol bug"
    )]
    let rank_blobs: Vec<Vec<u8>> = (0..n)
        .map(|i| {
            world.ckpt.rank_blobs[i]
                .take()
                .unwrap_or_else(|| panic!("rank {i} reached snapshot epoch {epoch} without a blob"))
        })
        .collect();
    // The regions the resumed run reads: every credit mailbox, and the
    // slab of a connection whose RECV completion is still queued.
    let mut live = vec![false; world.mr_count()];
    for end in Endpoint::all(world) {
        live[end.mailbox.index()] = true;
    }
    let recvs = world
        .queued_completions()
        .filter(|e| e.opcode == CqeOpcode::RecvComplete);
    for end in recvs.filter_map(|e| Endpoint::of(world, e.qp)) {
        live[end.slab.index()] = true;
    }
    let mut w = Writer::new();
    ibfabric::encode_fabric(world, |mr| live[mr.index()], &mut w);
    *snapshot = Some(Snapshot {
        epoch,
        nprocs: n,
        clock,
        fabric_image: w.finish(),
        rank_blobs,
    });
    FenceAction::Stop
}

/// Each rank's setup, and its decoded image when it is restored.
type Ranks = Vec<(RankSetup, Option<RankImage>)>;

/// [`world::launch`] with the checkpoint fence armed: every rank starts
/// the body from `resumed_epoch`, a restored one after applying its image.
fn launch_fenced<R, F>(
    sim: Sim<Fabric>,
    ranks: Ranks,
    resumed_epoch: u64,
    body: F,
) -> Result<CkptRun<R>, MpiRunError>
where
    R: 'static,
    F: AsyncFn(&mut MpiRank, CkptStart) -> R + 'static,
{
    let body = Rc::new(body);
    world::launch(sim, ranks, true, |sim, i, (setup, image), tx| {
        let body = Rc::clone(&body);
        sim.spawn(format!("rank{i}"), move |proc| async move {
            let mut mpi = MpiRank::new(proc, setup);
            let start = CkptStart {
                resumed_epoch,
                app_state: image.map_or_else(Vec::new, |image| mpi.apply_image(image)),
            };
            let result = (*body)(&mut mpi, start).await;
            mpi.finalize().await;
            let stats = mpi.finish_stats();
            let _ = tx.send((mpi.rank(), result, stats));
        });
    })
}

/// The non-generic half of [`MpiWorld::restore`]: the rebuilt world,
/// its image replayed and patched on, and every rank's decoded blob,
/// checked before anything is spawned.
fn rebuild(
    snapshot: &Snapshot,
    cfg: &MpiConfig,
    params: FabricParams,
    sim_config: SimConfig,
    opts: RestoreOptions,
) -> Result<(Sim<Fabric>, Ranks), MpiRunError> {
    cfg.validate().map_err(MpiRunError::Config)?;
    let nprocs = snapshot.rank_blobs.len();
    if let Some(v) = opts.replace {
        assert!(v < nprocs, "replacement rank {v} out of range");
    }
    if let Some(e) = opts.snapshot_epoch {
        assert!(
            e > snapshot.epoch,
            "next snapshot epoch {e} must exceed the resumed epoch {}",
            snapshot.epoch
        );
    }
    let mut fabric = Fabric::new(params);
    if let Some(plan) = cfg.fault_plan.clone() {
        fabric.set_fault_plan(plan);
    }
    let mut setups = world::bootstrap_fabric(&mut fabric, nprocs, cfg);
    ibfabric::restore_fabric(&mut fabric, &mut Reader::new(&snapshot.fabric_image))?;
    // Decode everything before spawning anything: a corrupt blob is a
    // typed error, never a panic inside a half-built simulation.
    let mut images = Vec::with_capacity(nprocs);
    for (setup, blob) in setups.iter_mut().zip(&snapshot.rank_blobs) {
        images.push(Some(decode_rank_blob(blob, setup, &fabric)?));
    }
    fabric.ckpt = CkptBus {
        released_epoch: snapshot.epoch,
        pending_epoch: snapshot.epoch,
        snapshot_epoch: opts.snapshot_epoch,
        rank_blobs: vec![None; nprocs],
    };
    let sim = Sim::resume(fabric, sim_config, snapshot.clock);
    Ok((sim, setups.into_iter().zip(images).collect()))
}

impl MpiWorld {
    /// Like [`MpiWorld::run`], but checkpoint-aware: rank bodies receive a
    /// [`CkptStart`] (fresh here: epoch 0, empty state) and may call
    /// [`MpiRank::checkpoint`]. With `snapshot_epoch: None` every fence is
    /// released and the run completes — the uninterrupted golden. With
    /// `Some(e)` the run stops at checkpoint epoch `e` and returns the
    /// [`Snapshot`] for [`MpiWorld::restore`].
    pub fn run_with_checkpoints<R, F>(
        nprocs: usize,
        cfg: MpiConfig,
        params: FabricParams,
        sim_config: SimConfig,
        snapshot_epoch: Option<u64>,
        body: F,
    ) -> Result<CkptRun<R>, MpiRunError>
    where
        R: 'static,
        F: AsyncFn(&mut MpiRank, CkptStart) -> R + 'static,
    {
        cfg.validate().map_err(MpiRunError::Config)?;
        let (sim, setups) = world::boot(nprocs, &cfg, params, sim_config);
        sim.with_world(|ctx| {
            ctx.world.ckpt = CkptBus {
                released_epoch: 0,
                pending_epoch: 0,
                snapshot_epoch,
                rank_blobs: vec![None; nprocs],
            }
        });
        let fresh = setups.into_iter().map(|setup| (setup, None)).collect();
        launch_fenced(sim, fresh, 0, body)
    }

    /// Resumes a [`Snapshot`]: builds the world the way a run does
    /// (`world::bootstrap_fabric`), replays the fabric image's queue pairs
    /// and regions and patches their state on, decodes every rank blob
    /// into connections on the restored endpoints (typed
    /// [`MpiRunError::Snapshot`] errors on corruption or on a snapshot of
    /// another world), optionally hot-swaps a killed rank
    /// ([`RestoreOptions::replace`]), and continues the run on the
    /// snapshot's scheduler clock. `cfg` and `params` must match the
    /// original run's; `cfg.fault_plan` may differ (e.g. a kill plan for
    /// the crash leg of a kill-and-replace experiment — a plan with the
    /// snapshotted seed resumes its fault stream, any other starts fresh).
    pub fn restore<R, F>(
        snapshot: &Snapshot,
        cfg: MpiConfig,
        params: FabricParams,
        sim_config: SimConfig,
        opts: RestoreOptions,
        body: F,
    ) -> Result<CkptRun<R>, MpiRunError>
    where
        R: 'static,
        F: AsyncFn(&mut MpiRank, CkptStart) -> R + 'static,
    {
        let (sim, restored) = rebuild(snapshot, &cfg, params, sim_config, opts)?;
        let mut run = launch_fenced(sim, restored, snapshot.epoch, body)?;
        if let CkptRun::Completed(out) = &mut run {
            out.stats.restores = 1;
            out.stats.rejoined_ranks = u64::from(opts.replace.is_some());
        }
        Ok(run)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            epoch: 3,
            nprocs: 2,
            clock: SimClock {
                now: SimTime::from_nanos(12_345),
                seq: 678,
                events_processed: 910,
            },
            fabric_image: vec![1; 16],
            rank_blobs: vec![vec![5; 4], vec![6; 5]],
        }
    }

    #[test]
    fn snapshot_bytes_roundtrip() {
        let s = sample();
        let bytes = s.to_bytes();
        let back = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.time(), SimTime::from_nanos(12_345));
    }

    #[test]
    fn truncated_snapshot_is_a_typed_error() {
        let bytes = sample().to_bytes();
        for cut in [0, 4, 8, bytes.len() / 2, bytes.len() - 1] {
            let err = Snapshot::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::Truncated { .. } | CodecError::BadTag { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
    }

    #[test]
    fn wrong_magic_and_version_are_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[0] ^= 0xFF;
        assert!(matches!(
            Snapshot::from_bytes(&bytes).unwrap_err(),
            CodecError::BadTag {
                context: "snapshot magic",
                ..
            }
        ));
        // One format: a future version and the four this one replaced
        // are all refused by number, never misread.
        for version in [99, 4, 3, 2, 1] {
            let mut bytes = sample().to_bytes();
            bytes[4] = version;
            assert!(matches!(
                Snapshot::from_bytes(&bytes).unwrap_err(),
                CodecError::BadTag {
                    context: "snapshot version",
                    want: 5,
                    ..
                }
            ));
        }
    }

    /// A restore builds a connection slot per peer of every rank of the
    /// world the container claims, so a container whose blobs are too
    /// short for a presence byte per peer each is refused before anything
    /// is built: the rebuild stays within a constant factor of the input,
    /// whatever the container claims.
    #[test]
    fn a_world_its_rank_blobs_cannot_hold_is_refused() {
        let refused = |s: &Snapshot| {
            let err = Snapshot::from_bytes(&s.to_bytes()).unwrap_err();
            assert!(
                matches!(
                    err,
                    CodecError::Truncated {
                        context: "snapshot rank count",
                        ..
                    }
                ),
                "{err}"
            );
        };
        // Two ranks: a presence byte each is the least a blob holds.
        let least = Snapshot {
            rank_blobs: vec![vec![0]; 2],
            ..sample()
        };
        assert_eq!(Snapshot::from_bytes(&least.to_bytes()).unwrap(), least);
        refused(&Snapshot {
            rank_blobs: vec![vec![0], Vec::new()],
            ..sample()
        });
        // 1 000 empty blobs: a container of 8 kB that would build a million
        // connection slots.
        refused(&Snapshot {
            nprocs: 1000,
            rank_blobs: vec![Vec::new(); 1000],
            ..sample()
        });
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.push(0);
        assert!(Snapshot::from_bytes(&bytes).is_err());
    }

    /// The fabric of a 2-rank world under `cfg`, its one connection
    /// established, and rank 0's endpoint and rank 1's.
    fn two_rank_world(cfg: &MpiConfig) -> (Fabric, [Endpoint; 2]) {
        let (sim, _) = world::boot(2, cfg, FabricParams::mt23108(), SimConfig::default());
        let fabric = sim.into_world();
        let ends = world::connection(&fabric, [0, 1]);
        (fabric, ends.expect("eager setup establishes the pair"))
    }

    /// Rank 0's connection record of `c`, decoded into a new connection.
    fn conn_roundtrip(
        c: &Conn,
        cfg: &MpiConfig,
        (fabric, ends): &(Fabric, [Endpoint; 2]),
    ) -> Result<Conn, CodecError> {
        let mut w = Writer::new();
        encode_conn(c, &mut w);
        let bytes = w.finish();
        let mut back = Conn::establish(cfg, 1, &ends[0], &ends[1]);
        decode_conn(&mut Reader::new(&bytes), &mut back, cfg, fabric).map(|()| back)
    }

    #[test]
    fn conn_record_roundtrips_and_rejects_a_leaking_window() {
        let cfg = MpiConfig::scheme(crate::FlowControlScheme::RdmaChannel, 8);
        let world = two_rank_world(&cfg);
        let decoded = |c: &Conn| conn_roundtrip(c, &cfg, &world);
        let ends = &world.1;
        let mut c = Conn::establish(&cfg, 1, &ends[0], &ends[1]);
        // One unit spent (the window's spend is private to `conn.rs`).
        c.credits.held -= 1;
        c.credits.spent_total += 1;
        c.ring.owe(3);
        c.posted = 7;
        let back = decoded(&c).unwrap();
        assert_eq!((back.credits, back.ring), (c.credits, c.ring));
        assert_eq!((back.prepost_target, back.posted), (8, 7));
        // One slot the ledger never saw: a typed error at decode, not a
        // conservation panic at finalize.
        c.ring.held += 1;
        assert!(matches!(decoded(&c), Err(CodecError::BadTag { .. })));
    }

    /// The next slot a pool posts is `prepost_target`, so a record whose
    /// pool reaches past the pool's cap, or that posts more buffers than
    /// its pool holds, is refused at decode.
    #[test]
    fn restored_pool_is_held_to_its_cap() {
        use crate::FlowControlScheme as S;
        for (scheme, cap) in [(S::UserStatic, 8), (S::UserDynamic, 512)] {
            let cfg = MpiConfig::scheme(scheme, 8);
            let world = two_rank_world(&cfg);
            let ends = &world.1;
            let mut c = Conn::establish(&cfg, 1, &ends[0], &ends[1]);
            c.prepost_target = cap;
            c.posted = cap;
            conn_roundtrip(&c, &cfg, &world).expect("a full pool decodes");
            c.posted = cap + 1;
            let err = conn_roundtrip(&c, &cfg, &world).err();
            assert!(
                matches!(
                    err,
                    Some(CodecError::Overflow {
                        context: "conn.posted",
                        ..
                    })
                ),
                "{scheme:?}: {err:?}"
            );
            c.prepost_target = cap + 1;
            let err = conn_roundtrip(&c, &cfg, &world).err();
            assert!(
                matches!(
                    err,
                    Some(CodecError::Overflow {
                        context: "conn.prepost_target",
                        ..
                    })
                ),
                "{scheme:?}: {err:?}"
            );
        }
    }

    /// Ring geometry the first poll or post would trip over — a cursor
    /// outside its region, a `% 0` — is refused at decode, on the live
    /// ring, an older generation and the peer's ring alike.
    #[test]
    fn restored_ring_geometry_is_checked() {
        use crate::FlowControlScheme as S;
        let cfg = MpiConfig::scheme(S::RdmaChannelDyn, 8);
        let mut world = two_rank_world(&cfg);
        let slots = cfg.rdma_ring_slots;
        let grown_len = 2 * slots as usize * cfg.buf_size;
        let grown = world
            .0
            .register(NodeId::from_index(0), grown_len, ibfabric::Access::FULL);
        let ends = world.1;
        // Established, then grown once: generation 0 still drains.
        let honest = || {
            let mut c = Conn::establish(&cfg, 1, &ends[0], &ends[1]);
            c.rings[0].read_slot = slots - 1;
            c.install_grown_ring(grown, 2 * slots);
            c
        };
        let geometry = |c: &Conn| -> Vec<_> {
            c.rings
                .iter()
                .map(|g| (g.gen, g.mr, g.slots, g.read_slot))
                .collect()
        };
        let c = honest();
        let back = conn_roundtrip(&c, &cfg, &world).expect("honest geometry decodes");
        assert_eq!(geometry(&back), geometry(&c));

        type Lie = fn(&mut Conn);
        let lies: [(&str, Lie); 7] = [
            ("live cursor at its slot count", |c| {
                c.rings[1].read_slot = 2 * c.rings[1].slots
            }),
            ("older cursor at its slot count", |c| {
                c.rings[0].read_slot = c.rings[0].slots
            }),
            ("zero slots", |c| {
                (c.rings[1].slots, c.rings[1].read_slot) = (0, 0)
            }),
            ("more slots than the region holds", |c| {
                c.rings[1].slots *= 2
            }),
            ("peer cursor at its slot count", |c| {
                c.ring_write_slot = c.peer_ring_slots
            }),
            ("more peer slots than the region holds", |c| {
                c.peer_ring_slots *= 2
            }),
            ("generations out of order", |c| {
                c.rings[0].gen = c.rings[1].gen
            }),
        ];
        for (lie, apply) in lies {
            let mut c = honest();
            apply(&mut c);
            let err = conn_roundtrip(&c, &cfg, &world).err();
            assert!(
                matches!(
                    err,
                    Some(CodecError::BadTag {
                        context: "conn ring geometry",
                        ..
                    })
                ),
                "{lie}: {err:?}"
            );
        }
        // Only ring growth leaves an older generation behind.
        let fixed = MpiConfig::scheme(S::RdmaChannel, 8);
        assert!(conn_roundtrip(&honest(), &fixed, &world).is_err());

        // A watched peer with no connection — here the rank itself — is
        // refused before any poll.
        let snap = snapshot_after_exchange(&cfg, 16);
        let (fabric, mut setups) = rebuilt(&snap, &cfg);
        let mut blob = snap.rank_blobs[0].clone();
        // Past the version, the section frame, rank, size, epoch and
        // `next_ctx`: the `coll_seq` count and entries, `rdma_seen`,
        // `ring_residual`, then the watchlist count and its first peer.
        let at = 4 + 12 + 3 * 8 + 2;
        let n_coll = u64::from_le_bytes(blob[at..at + 8].try_into().unwrap()) as usize;
        let watch = at + 8 + n_coll * 6 + 8 + 1;
        assert_eq!(
            blob[watch..watch + 16],
            [[1, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0]].concat()
        );
        blob[watch + 8] = 0;
        let err = decode_rank_blob(&blob, &mut setups[0], &fabric).err();
        assert!(
            matches!(
                err,
                Some(CodecError::BadTag {
                    context: "rank blob rdma_watch.peer (no connection)",
                    ..
                })
            ),
            "{err:?}"
        );
    }

    /// The world a restore of `snap` builds: the bootstrap, with the
    /// fabric image patched on.
    fn rebuilt(snap: &Snapshot, cfg: &MpiConfig) -> (Fabric, Vec<RankSetup>) {
        let mut fabric = Fabric::new(FabricParams::mt23108());
        let setups = world::bootstrap_fabric(&mut fabric, snap.nprocs, cfg);
        ibfabric::restore_fabric(&mut fabric, &mut Reader::new(&snap.fabric_image)).unwrap();
        (fabric, setups)
    }

    /// A 2-rank snapshot taken after each rank sent the other `len` bytes.
    fn snapshot_after_exchange(cfg: &MpiConfig, len: usize) -> Snapshot {
        MpiWorld::run_with_checkpoints(
            2,
            cfg.clone(),
            FabricParams::mt23108(),
            SimConfig::default(),
            Some(1),
            async move |mpi: &mut MpiRank, _start: CkptStart| {
                let peer = 1 - mpi.rank();
                let req = mpi.isend(&vec![7u8; len], peer, 1);
                mpi.recv(Some(peer), Some(1)).await;
                mpi.wait(req).await;
                mpi.checkpoint(b"app").await;
            },
        )
        .expect("snapshot run")
        .into_snapshot()
    }

    /// Every eight-byte window of a real rank blob overwritten with a
    /// count no input could back: the decoder returns, having sized
    /// nothing by it — `Ok` where the window was a plain number, a typed
    /// error elsewhere. (Sizing `with_capacity` by such a count aborts the
    /// process.)
    #[test]
    fn hostile_counts_are_refused_before_anything_is_sized() {
        let cfg = MpiConfig::scheme(crate::FlowControlScheme::RdmaChannelDyn, 4);
        let snap = snapshot_after_exchange(&cfg, 16);
        let (fabric, setups) = rebuilt(&snap, &cfg);
        let decode = |blob: &[u8]| {
            let mut setup = RankSetup {
                conns: vec![None, None],
                cfg: cfg.clone(),
                ..setups[0]
            };
            decode_rank_blob(blob, &mut setup, &fabric)
        };
        let blob = &snap.rank_blobs[0];
        decode(blob).expect("the honest blob decodes");

        for claim in [1u64 << 40, u64::MAX] {
            for at in 0..blob.len() - 8 {
                let mut bad = blob.clone();
                bad[at..at + 8].copy_from_slice(&claim.to_le_bytes());
                let _ = decode(&bad);
            }
        }
        // By name: the first count of the blob (`coll_seq`, after the
        // version, the section frame, rank, size, epoch and `next_ctx`) and
        // of a connection record (`reorder`, after both credit windows,
        // the sequence words and the pool).
        let mut bad = blob.clone();
        bad[4 + 12 + 3 * 8 + 2..][..8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = decode(&bad).err().expect("refused");
        assert!(
            matches!(
                err,
                CodecError::Truncated {
                    context: "rank blob coll_seq.count",
                    ..
                }
            ),
            "{err}"
        );
        let [mine, theirs] =
            world::connection(&fabric, [0, 1]).expect("the snapshot's pair is established");
        let mut c = Conn::establish(&cfg, 1, &mine, &theirs);
        let mut w = Writer::new();
        encode_conn(&c, &mut w);
        let mut bad = w.finish();
        let reorder_count = 4 * 5 + 8 * 6 + 4 * 2 + 8 * 6 + 4;
        bad[reorder_count..][..8].copy_from_slice(&(1u64 << 40).to_le_bytes());
        let err = decode_conn(&mut Reader::new(&bad), &mut c, &cfg, &fabric).expect_err("refused");
        assert!(
            matches!(
                err,
                CodecError::Truncated {
                    context: "conn.reorder.count",
                    ..
                }
            ),
            "{err}"
        );
    }

    /// Restores a snapshot taken after a rendezvous each way (both pin-down
    /// caches hold entries) with `lie` applied to rank 0's `TAG_REGCACHE`
    /// section — `used_bytes`, tick and three counters, the entry count at
    /// byte 40, then 36-byte entries: key slot, key len, region id at +16,
    /// length at +20, last use — and returns the refusal. `lie` also sees
    /// the world the restore rebuilds. No rank may run: every lie must be
    /// caught before anything is spawned.
    fn restore_with_regcache_lie(lie: impl FnOnce(&mut [u8], &Fabric)) -> String {
        let cfg = MpiConfig::scheme(crate::FlowControlScheme::UserDynamic, 4);
        let mut snap = snapshot_after_exchange(&cfg, 64 * 1024);
        let (fabric, _) = rebuilt(&snap, &cfg);
        let blob = &mut snap.rank_blobs[0];
        let mut at = 4; // past the blob version; then tag u32 | len u64 | body
        let section = loop {
            let tag = u32::from_le_bytes(blob[at..at + 4].try_into().unwrap());
            let len = u64::from_le_bytes(blob[at + 4..at + 12].try_into().unwrap()) as usize;
            if tag == TAG_REGCACHE {
                break &mut blob[at + 12..at + 12 + len];
            }
            at += 12 + len;
        };
        assert_ne!(section[40..48], [0; 8], "the cache holds entries");
        lie(section, &fabric);
        let refused = MpiWorld::restore(
            &snap,
            cfg,
            FabricParams::mt23108(),
            SimConfig::default(),
            RestoreOptions::default(),
            async |_: &mut MpiRank, _: CkptStart| panic!("a rank ran on a refused snapshot"),
        );
        match refused {
            Err(MpiRunError::Snapshot(e)) => e.to_string(),
            Err(e) => panic!("refused, but not as a bad image: {e}"),
            Ok(_) => panic!("a lying pin-down cache image was restored"),
        }
    }

    #[test]
    fn regcache_entry_naming_a_region_the_fabric_lacks_is_refused() {
        let err = restore_with_regcache_lie(|s, _| s[64..68].copy_from_slice(&77u32.to_le_bytes()));
        assert!(
            err.starts_with("regcache entry mr: value 77 exceeds"),
            "{err}"
        );
    }

    #[test]
    fn regcache_entry_naming_a_peers_region_is_refused() {
        // Rank 1's receive slab: a real region, on the wrong node.
        let err = restore_with_regcache_lie(|s, fabric| {
            let [_, theirs] = world::connection(fabric, [0, 1]).expect("the pair is established");
            s[64..68].copy_from_slice(&theirs.slab.as_raw().to_le_bytes())
        });
        assert!(
            err.starts_with("regcache entry mr (another node's region)"),
            "{err}"
        );
    }

    #[test]
    fn regcache_entry_longer_than_its_region_is_refused() {
        let err = restore_with_regcache_lie(|s, _| {
            s[68..76].copy_from_slice(&(1u64 << 40).to_le_bytes())
        });
        assert!(err.starts_with("regcache entry len: value"), "{err}");
    }

    #[test]
    fn regcache_used_bytes_off_the_sum_of_its_entries_is_refused() {
        // One byte off: eviction's `used_bytes -= len` can underflow.
        let err = restore_with_regcache_lie(|s, _| s[0] ^= 1);
        assert!(err.starts_with("regcache used_bytes (not the sum"), "{err}");
    }

    #[test]
    fn regcache_entry_count_no_input_could_back_is_refused() {
        let err = restore_with_regcache_lie(|s, _| {
            s[40..48].copy_from_slice(&(1u64 << 40).to_le_bytes())
        });
        assert!(err.starts_with("regcache entry count: truncated"), "{err}");
    }

    /// A connection's endpoints come back from the fabric image, so a
    /// slab that holds the posted slots but not the pool they may grow to
    /// is refused at decode, not found by the first post past its end.
    #[test]
    fn restored_endpoint_regions_are_checked() {
        let cfg = MpiConfig::scheme(crate::FlowControlScheme::UserDynamic, 4);
        let mut snap = snapshot_after_exchange(&cfg, 16);
        // Rank 0's slab record: node 0, locally writable, its length.
        let len = (cfg.max_prepost as usize * cfg.buf_size) as u64;
        let access = [ibfabric::Access::LOCAL_WRITE.bits()];
        let record = [&[0; 4][..], &access, &len.to_le_bytes()].concat();
        let image = &mut snap.fabric_image;
        let at = (image.windows(record.len()))
            .position(|w| w == record)
            .expect("rank 0's slab record");
        let posted = (cfg.prepost as usize * cfg.buf_size) as u64;
        image[at + 5..at + 13].copy_from_slice(&posted.to_le_bytes());
        let refused = MpiWorld::restore(
            &snap,
            cfg,
            FabricParams::mt23108(),
            SimConfig::default(),
            RestoreOptions::default(),
            async |_: &mut MpiRank, _: CkptStart| panic!("a rank ran on a refused snapshot"),
        );
        match refused {
            Err(MpiRunError::Snapshot(e)) => {
                assert!(e.to_string().starts_with("conn endpoint region len"), "{e}")
            }
            Err(e) => panic!("refused, but not as a bad image: {e}"),
            Ok(_) => panic!("a slab shorter than its pool was restored"),
        }
    }

    #[test]
    fn chaos_context_names_the_scheme() {
        let cfg = MpiConfig::scheme(crate::FlowControlScheme::RdmaChannel, 8);
        let ctx = chaos_context(&cfg);
        assert!(ctx.contains("scheme=rdma-channel"), "{ctx}");
        assert!(ctx.contains("IBFLOW_CHAOS_SEED="), "{ctx}");
    }
}
