//! The per-process MPI endpoint: state, construction, and shared helpers.

use crate::buffers::slot_recv_wr;
use crate::config::MpiConfig;
use crate::conn::Conn;
use crate::regcache::{RegCache, REGCACHE_CAPACITY};
use crate::requests::ReqTable;
use crate::stats::RankStats;
use crate::types::{CommCtx, Rank, Tag};
use crate::world;
use ibfabric::{CqId, Fabric, NodeId};
use ibsim::{ProcCtx, SimDuration};
use std::collections::{BTreeMap, VecDeque};

/// A message that arrived before a matching receive was posted.
#[derive(Debug)]
pub(crate) enum Unexpected {
    Eager {
        src: Rank,
        tag: Tag,
        comm: CommCtx,
        data: Vec<u8>,
    },
    Rndz {
        src: Rank,
        tag: Tag,
        comm: CommCtx,
        rndz_id: u64,
        data_len: usize,
    },
}

impl Unexpected {
    pub fn envelope(&self) -> (Rank, Tag, CommCtx) {
        match self {
            Unexpected::Eager { src, tag, comm, .. } => (*src, *tag, *comm),
            Unexpected::Rndz { src, tag, comm, .. } => (*src, *tag, *comm),
        }
    }
}

/// Everything the world bootstrap prepares for one rank before its
/// coroutine starts (see [`crate::MpiWorld`]): the [`Conn`] toward each peer
/// it is established with — every peer under eager setup, none on demand,
/// the ones a checkpoint image records on restore.
pub(crate) struct RankSetup {
    pub rank: Rank,
    pub size: usize,
    pub node: NodeId,
    pub cq: CqId,
    pub conns: Vec<Option<Box<Conn>>>,
    pub cfg: MpiConfig,
}

/// One MPI process: the handle rank bodies receive.
///
/// All communication goes through this struct. Methods that block are
/// `async` and block on the *virtual* clock; the rank's coroutine suspends
/// while fabric events flow.
pub struct MpiRank {
    pub(crate) proc: ProcCtx<Fabric>,
    pub(crate) rank: Rank,
    pub(crate) size: usize,
    pub(crate) cfg: MpiConfig,
    pub(crate) node: NodeId,
    pub(crate) cq: CqId,
    /// Per-peer connections, indexed by rank: `None` for the self slot and
    /// for every peer whose connection is not established yet.
    pub(crate) conns: Vec<Option<Box<Conn>>>,
    pub(crate) reqs: ReqTable,
    /// Posted receives in matching order.
    pub(crate) posted_recvs: Vec<crate::requests::ReqId>,
    pub(crate) unexpected: VecDeque<Unexpected>,
    pub(crate) regcache: RegCache,
    /// Landing regions beyond lane 0, as `(size class, region, last
    /// claimant)`: what a second and later concurrent rendezvous of one
    /// (source, size class) lands in while the pin-down cache's region —
    /// lane 0 — is held (`claim_landing_lane`). A lane is free once its
    /// last claimant is no longer a receive in flight into it; nothing
    /// else records occupancy. Host representation of distinct user
    /// buffers and never charged, but part of a checkpoint (the rank
    /// blob's lanes section): no receive is live at a fence, so every lane
    /// is free there, and a restored rank reuses the lanes it registered
    /// instead of registering new ones.
    pub(crate) landing_lanes: Vec<(usize, ibfabric::MrId, crate::requests::ReqId)>,
    pub(crate) stats: RankStats,
    /// Control/eager sends posted whose completions are still outstanding.
    pub(crate) outstanding_ctrl: u64,
    /// Accumulated software cost, charged as process time at the next
    /// blocking point.
    pub(crate) pending_charge: SimDuration,
    /// Next communicator context id this rank will assign (kept in
    /// lockstep across ranks by collective call ordering).
    pub(crate) next_ctx: CommCtx,
    /// Per-communicator collective sequence numbers (tag disambiguation).
    pub(crate) coll_seq: BTreeMap<CommCtx, u32>,
    /// Established peers whose RDMA-fed state (eager ring, credit
    /// mailbox) this rank polls — the O(active) watchlist, maintained on
    /// connection establish/teardown so a progress pass never scans the
    /// whole world.
    pub(crate) rdma_watch: Vec<Rank>,
    /// How many of the links the fabric records for this rank's node
    /// ([`ibfabric::Fabric::links`]) [`MpiRank::adopt_connections`] has
    /// seen. Zero at boot and at restore alike: a link whose peer already
    /// has a connection is passed over.
    pub(crate) links_adopted: usize,
    /// Fabric RDMA-delivery count for this node at the last ring/mailbox
    /// scan; an unchanged count makes an empty poll pass O(1).
    pub(crate) rdma_seen: u64,
    /// A bounded ring drain left frames behind: forces the next scan even
    /// without new deliveries.
    pub(crate) ring_residual: bool,
    /// Reusable CQ drain buffer: a progress sweep polls into it instead
    /// of allocating a batch per poll.
    pub(crate) cq_batch: Vec<ibfabric::Cqe>,
    /// Checkpoint epochs this rank has passed through (see `ckpt.rs`; the
    /// next fence this rank enters is epoch `ckpt_epoch + 1`).
    pub(crate) ckpt_epoch: u64,
}

impl MpiRank {
    pub(crate) fn new(proc: ProcCtx<Fabric>, setup: RankSetup) -> Self {
        let regcache = RegCache::new(setup.node, REGCACHE_CAPACITY);
        let rdma_watch = setup.conns.iter().flatten().map(|c| c.peer).collect();
        MpiRank {
            proc,
            rank: setup.rank,
            size: setup.size,
            node: setup.node,
            cq: setup.cq,
            conns: setup.conns,
            cfg: setup.cfg,
            reqs: ReqTable::default(),
            posted_recvs: Vec::new(),
            unexpected: VecDeque::new(),
            regcache,
            landing_lanes: Vec::new(),
            stats: RankStats::default(),
            outstanding_ctrl: 0,
            pending_charge: SimDuration::ZERO,
            next_ctx: 1,
            coll_seq: BTreeMap::new(),
            rdma_watch,
            links_adopted: 0,
            rdma_seen: 0,
            ring_residual: false,
            cq_batch: Vec::new(),
            ckpt_epoch: 0,
        }
    }

    /// This process's rank in the world.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Number of processes in the world.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Current virtual time.
    pub fn now(&self) -> ibsim::SimTime {
        self.proc.now()
    }

    /// The active configuration.
    pub fn config(&self) -> &MpiConfig {
        &self.cfg
    }

    /// Lets `dt` of virtual time pass, modelling application compute.
    pub async fn compute(&mut self, dt: SimDuration) {
        self.flush_charge().await;
        self.proc.advance(dt).await;
    }

    pub(crate) fn charge(&mut self, dt: SimDuration) {
        self.pending_charge += dt;
    }

    pub(crate) async fn flush_charge(&mut self) {
        if self.pending_charge > SimDuration::ZERO {
            let dt = self.pending_charge;
            self.pending_charge = SimDuration::ZERO;
            self.proc.advance(dt).await;
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "a send establishes its connection first (`issue_send`), and a progress sweep adopts every connection the fabric records for this rank before it dispatches a completion or scans a ring; no code path messages itself, and an out-of-range peer is caller error"
    )]
    pub(crate) fn conn(&self, peer: Rank) -> &Conn {
        self.conns[peer].as_ref().expect("connection established")
    }

    #[expect(clippy::expect_used, reason = "same establishment invariant as `conn`")]
    pub(crate) fn conn_mut(&mut self, peer: Rank) -> &mut Conn {
        self.conns[peer].as_mut().expect("connection established")
    }

    /// True when the connection to `peer` exists and has been torn down
    /// (safe to call with the self rank or an unreached peer, unlike
    /// [`MpiRank::conn`]).
    pub(crate) fn conn_failed(&self, peer: Rank) -> bool {
        self.conns
            .get(peer)
            .and_then(|c| c.as_ref())
            .is_some_and(|c| c.failed)
    }

    /// Establishes the connection to `peer` at its first use; a no-op once
    /// this rank holds one. Eager setup establishes every pair at t = 0
    /// (`world::boot`), so this only does work under on-demand setup
    /// (related work \[23\]): when the fabric holds no connection between
    /// the two, this rank initiates — it runs `world::establish` and pays
    /// the handshake (`connect_cost`). Either way it then adopts what the
    /// fabric holds ([`MpiRank::adopt_connections`]), which covers a
    /// connection `peer` made toward it that no progress sweep has adopted
    /// yet.
    pub(crate) fn ensure_established(&mut self, peer: Rank) {
        if self.conns[peer].is_some() {
            return;
        }
        let (cfg, pair) = (&self.cfg, [self.rank, peer]);
        let connect_cost = self.proc.with(|ctx| {
            world::connection(ctx.world, pair).is_none().then(|| {
                world::establish(ctx, cfg, pair);
                ctx.world.params().connect_cost
            })
        });
        if let Some(cost) = connect_cost {
            self.charge(cost);
        }
        self.adopt_connections();
    }

    /// Adopts the connections the fabric has recorded for this rank's node
    /// since the last call, whichever side made them — the one place a
    /// running rank gets a [`Conn`], and how the passive side of an
    /// on-demand connection learns of it, as a connection manager would
    /// tell it. For each new link whose peer has no connection it reads
    /// both endpoints back, builds this side through [`Conn::establish`]
    /// (adopting the pool `world::establish` posted on its behalf) and
    /// starts watching the peer's ring and mailbox.
    pub(crate) fn adopt_connections(&mut self) {
        let (rank, node) = (self.rank, self.node);
        let MpiRank {
            proc,
            cfg,
            conns,
            rdma_watch,
            links_adopted,
            ..
        } = self;
        proc.with(|ctx| {
            let fabric = &*ctx.world;
            let links = fabric.links(node);
            for &(peer_node, _) in &links[*links_adopted..] {
                let peer = world::rank_of(peer_node);
                if conns[peer].is_some() {
                    continue;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "`ibfabric::connect` records a link only between connected queue pairs, which only `world::establish` connects, each with its endpoint"
                )]
                let [mine, theirs] =
                    world::connection(fabric, [rank, peer]).expect("a link is a connection");
                conns[peer] = Some(Box::new(Conn::establish(cfg, peer, &mine, &theirs)));
                // A peer is watched exactly while it has a live connection,
                // so a new one cannot be on the list yet.
                rdma_watch.push(peer);
            }
            *links_adopted = links.len();
        });
    }

    /// Reposts a consumed slot (same slot index).
    pub(crate) fn repost_slot(&mut self, peer: Rank, slot: u32) {
        if self.conn(peer).failed {
            // The QP is in the error state; a post would be rejected and
            // the buffer can never be consumed again anyway.
            return;
        }
        let cost = self.post_recv_slot(peer, slot);
        self.charge(cost);
    }

    /// Posts slab slot `slot` of the connection from `peer` as a receive
    /// and returns the software post cost, which only a repost charges:
    /// the one post of a receive work request after establishment
    /// (`world::establish` posts the initial pool).
    pub(crate) fn post_recv_slot(&mut self, peer: Rank, slot: u32) -> SimDuration {
        let c = self.conn(peer);
        let (qp, wr) = (c.qp, slot_recv_wr(c.slab, self.cfg.buf_size, peer, slot));
        self.proc.with(|ctx| {
            #[expect(
                clippy::expect_used,
                reason = "the receive queue is sized for the slab and a slot is posted only while free, so a full queue is a bookkeeping bug"
            )]
            ctx.world.post_recv(qp, wr).expect("post_recv");
            ctx.world.params().sw_post_cost
        })
    }

    /// Sum of currently posted receive buffers across all connections
    /// (memory footprint diagnostic for the scalability study).
    pub fn total_posted_buffers(&self) -> u64 {
        self.conns.iter().flatten().map(|c| c.posted as u64).sum()
    }

    /// Send credits currently held toward `peer` (user-level schemes;
    /// always zero under the hardware scheme, and toward a peer with no
    /// established connection). Diagnostic.
    pub fn credits_toward(&self, peer: Rank) -> u32 {
        self.conns[peer].as_ref().map_or(0, |c| c.credits.held)
    }

    /// Snapshot of this rank's statistics: the rank-wide counters, each
    /// connection's live counters with both credit windows' ledger, and
    /// the pin-down cache counters.
    pub fn stats(&self) -> RankStats {
        let conn_stats = |c: &Conn| {
            let mut cs = c.stats.clone();
            let (w, r) = (&c.credits, &c.ring);
            cs.credits_granted.add(w.granted_total);
            cs.credits_spent.add(w.spent_total);
            cs.credits_held.add(u64::from(w.held));
            cs.credits_consumed.add(w.consumed_total);
            cs.credits_returned.add(w.returned_total);
            cs.credits_pending.add(u64::from(w.pending));
            cs.ring_granted.add(r.granted_total);
            cs.ring_spent.add(r.spent_total);
            cs.ring_held.add(u64::from(r.held));
            cs.ring_consumed.add(r.consumed_total);
            cs.ring_returned.add(r.returned_total);
            cs.ring_pending.add(u64::from(r.pending));
            cs
        };
        let mut stats = self.stats.clone();
        stats.conns = self
            .conns
            .iter()
            .map(|conn| conn.as_deref().map(conn_stats).unwrap_or_default())
            .collect();
        stats.regcache_hits.add(self.regcache.hits.get());
        stats.regcache_misses.add(self.regcache.misses.get());
        stats
    }

    /// Fabric failures this rank has observed so far (empty on clean
    /// runs); one entry per torn-down connection, in observation order.
    pub fn faults(&self) -> &[crate::fault::FabricFault] {
        &self.stats.faults
    }

    /// The final [`MpiRank::stats`]. Conservation is asserted here in
    /// every build profile (the per-sweep check is debug-only), so a
    /// release run cannot leak a credit silently.
    pub(crate) fn finish_stats(&self) -> RankStats {
        for c in self.conns.iter().flatten() {
            c.assert_conserved();
        }
        self.stats()
    }

    /// Finalize: drain all outstanding traffic, synchronize with every
    /// other rank, and drain again. Called automatically by the world
    /// wrapper after the rank body returns.
    pub(crate) async fn finalize(&mut self) {
        if !self.stats.faults.is_empty() {
            self.finalize_after_fault().await;
            return;
        }
        self.quiesce(["finalize: draining backlog", "finalize: draining sends"])
            .await;
    }

    /// Brings this rank to a quiet point, parking at `notes[0]` and then
    /// `notes[1]`: drains backlogs and every in-flight send transport
    /// (buffered operations may still be on the wire), asserts that no
    /// request is live, crosses a world barrier so no peer still needs
    /// this rank's progress engine, drains everything the barrier itself
    /// generated, and pays the pending charge. The barrier's sends may
    /// have been credit-converted to rendezvous whose handshakes are still
    /// in flight (a detached request), and abandoning one would leave the
    /// peer waiting for data that never comes. [`MpiRank::finalize`] and
    /// [`MpiRank::checkpoint`] share it.
    pub(crate) async fn quiesce(&mut self, notes: [&'static str; 2]) {
        self.wait_until(
            |r| {
                r.conns.iter().flatten().all(|c| c.backlog.is_empty())
                    && !r.reqs.has_pending_transport()
            },
            notes[0],
        )
        .await;
        assert_eq!(
            self.reqs.live_count(),
            0,
            "rank {} passed `{}` with outstanding requests ({})",
            self.rank,
            notes[0],
            crate::ckpt::chaos_context(&self.cfg),
        );
        let world = crate::comm::Comm::world_internal(self.size);
        crate::collectives::barrier(self, &world).await;
        self.wait_until(
            |r| {
                r.outstanding_ctrl == 0
                    && !r.reqs.has_pending_transport()
                    && r.conns.iter().flatten().all(|c| c.backlog.is_empty())
            },
            notes[1],
        )
        .await;
        self.flush_charge().await;
    }

    /// Finalize after a fabric fault: a torn-down connection cannot carry
    /// the world barrier, so this drains what the surviving connections
    /// still owe and returns. Healthy peers of a faulted rank observe
    /// their own side of the failure (QP errors propagate across the
    /// connection), so in a two-rank world both sides take this path; in
    /// wider worlds a healthy third rank blocked on a faulted one
    /// surfaces as a deadlock report, not a hang or a panic.
    async fn finalize_after_fault(&mut self) {
        self.wait_until(
            |r| {
                r.outstanding_ctrl == 0
                    && !r.reqs.has_pending_transport()
                    && r.conns
                        .iter()
                        .flatten()
                        .all(|c| c.failed || c.backlog.is_empty())
            },
            "finalize: draining after fault",
        )
        .await;
        self.flush_charge().await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unexpected_envelope() {
        let u = Unexpected::Eager {
            src: 3,
            tag: 9,
            comm: 1,
            data: vec![],
        };
        assert_eq!(u.envelope(), (3, 9, 1));
        let u = Unexpected::Rndz {
            src: 2,
            tag: -1,
            comm: 0,
            rndz_id: 5,
            data_len: 10,
        };
        assert_eq!(u.envelope(), (2, -1, 0));
    }

    /// Under on-demand setup a rank holds a connection to each peer it has
    /// reached and to no other: round a 4-rank ring, each rank's two
    /// neighbours, and no connection to the rank opposite.
    #[test]
    fn unreached_peers_hold_no_connection() {
        use crate::{FlowControlScheme, MpiWorld};
        let cfg = MpiConfig {
            on_demand_connections: true,
            ..MpiConfig::scheme(FlowControlScheme::UserStatic, 4)
        };
        let out = MpiWorld::run(4, cfg, ibfabric::FabricParams::mt23108(), async |mpi| {
            let (next, prev) = ((mpi.rank() + 1) % 4, (mpi.rank() + 3) % 4);
            mpi.sendrecv(&[1], next, 0, Some(prev), Some(0)).await;
            mpi.conns.iter().flatten().count()
        })
        .unwrap();
        assert_eq!(out.results, [2; 4]);
    }
}
