//! The fabric world: nodes, verbs objects, and the verbs entry points.

use crate::cq::{Cq, CqId};
use crate::fault::{Fate, FaultPlan};
use crate::mem::{Access, Bytes, Mr, MrId};
use crate::net::Net;
use crate::params::FabricParams;
use crate::qp::{Qp, QpAttrs, QpId, QpState, SendWqe};
use crate::stats::FabricStats;
use crate::transport;
use crate::wr::{Cqe, RecvWr, SendWr};
use ibsim::{Ctx, SimTime, Waker};

/// Handle to a host (one HCA per host on the testbed).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds the id for a dense index. Nodes are numbered in creation
    /// order starting from zero, so harnesses that know their topology
    /// (e.g. the MPI world, which creates one node per rank in rank
    /// order) can name a node without holding the `add_node` handle —
    /// which is what a [`crate::FaultPlan`] built before the fabric
    /// needs to scope a link flap.
    pub fn from_index(i: usize) -> NodeId {
        NodeId(i as u32)
    }
}

/// Per-node HCA resources: host-bus DMA occupancy in each direction plus
/// the RDMA memory watchers the MPI layer uses while blocked.
#[derive(Debug)]
pub(crate) struct Node {
    pub tx_busy_until: SimTime,
    pub rx_busy_until: SimTime,
    pub rdma_watchers: Vec<Waker>,
    /// Cumulative RDMA WRITE payloads applied to this node's memory.
    pub rdma_delivered: u64,
    /// `(peer node, QP)` for each node this node's QPs are connected to:
    /// the lowest-numbered QP that [`connect`] joined to a QP of that node
    /// (see [`Fabric::qp_toward`]).
    pub links: Vec<(NodeId, QpId)>,
}

/// Errors returned synchronously by verbs calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VerbsError {
    /// QP is not in a state that accepts this operation.
    InvalidQpState,
    /// Memory region handle is unknown.
    UnknownMr,
    /// Offset/length fall outside the region.
    OutOfBounds,
    /// The region does not grant the required access.
    AccessDenied,
    /// The region belongs to a different node.
    WrongNode,
}

impl std::fmt::Display for VerbsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            VerbsError::InvalidQpState => "invalid QP state",
            VerbsError::UnknownMr => "unknown memory region",
            VerbsError::OutOfBounds => "offset/length out of bounds",
            VerbsError::AccessDenied => "access denied",
            VerbsError::WrongNode => "memory region owned by another node",
        };
        f.write_str(s)
    }
}

impl std::error::Error for VerbsError {}

/// The simulated fabric: the world type of the enclosing [`ibsim::Sim`].
#[derive(Debug)]
pub struct Fabric {
    pub(crate) params: FabricParams,
    pub(crate) nodes: Vec<Node>,
    pub(crate) qps: Vec<Qp>,
    pub(crate) cqs: Vec<Cq>,
    pub(crate) mrs: Vec<Mr>,
    pub(crate) net: Net,
    pub(crate) fault: Option<FaultPlan>,
    /// Aggregate statistics.
    pub stats: FabricStats,
    /// Checkpoint coordination state shared by the ranks and the fence
    /// callback. Deliberately *not* part of the snapshot image: it is
    /// reconstructed by whoever drives a restore.
    pub ckpt: crate::snap::CkptBus,
}

impl Fabric {
    /// Creates an empty fabric with the given timing model.
    pub fn new(params: FabricParams) -> Self {
        Fabric {
            params,
            nodes: Vec::new(),
            qps: Vec::new(),
            cqs: Vec::new(),
            mrs: Vec::new(),
            net: Net::new(0),
            fault: None,
            stats: FabricStats::default(),
            ckpt: crate::snap::CkptBus::default(),
        }
    }

    /// The timing model in force.
    pub fn params(&self) -> &FabricParams {
        &self.params
    }

    /// Installs a fault-injection plan. Must be called before the
    /// simulation starts; an inert plan ([`FaultPlan::enabled`] false) is
    /// guaranteed invisible to results.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref()
    }

    /// True when an installed plan can actually perturb the fabric — the
    /// gate for every fault draw and for arming ACK-timeout timers (a
    /// timer armed under a perfect fabric would only leave stray no-op
    /// events that stretch the run's quiescence time).
    pub(crate) fn fault_active(&self) -> bool {
        self.fault.as_ref().is_some_and(|p| p.enabled())
    }

    /// The fault plane's verdict on one message launch (always
    /// [`Fate::Deliver`] without an active plan).
    pub(crate) fn fault_fate(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        npkts: usize,
    ) -> Fate {
        match &mut self.fault {
            Some(plan) if plan.enabled() => plan.fate(now, src, dst, npkts, &mut self.stats),
            _ => Fate::Deliver,
        }
    }

    /// Extra injected delay for the next ACK/NAK (zero without an active
    /// plan).
    pub(crate) fn fault_ack_delay(&mut self) -> ibsim::SimDuration {
        match &mut self.fault {
            Some(plan) if plan.enabled() => plan.ack_extra_delay(&mut self.stats),
            _ => ibsim::SimDuration::ZERO,
        }
    }

    /// Adds a host (with its HCA and switch port) to the fabric.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            tx_busy_until: SimTime::ZERO,
            rx_busy_until: SimTime::ZERO,
            rdma_watchers: Vec::new(),
            rdma_delivered: 0,
            links: Vec::new(),
        });
        self.net.add_node();
        id
    }

    /// Number of hosts.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Creates a completion queue on `node`.
    pub fn create_cq(&mut self, node: NodeId) -> CqId {
        let id = CqId(self.cqs.len() as u32);
        self.cqs.push(Cq::new(node));
        id
    }

    /// The first completion queue created on `node`, if any: the one a
    /// process keeping one queue per node polls.
    pub fn node_cq(&self, node: NodeId) -> Option<CqId> {
        let i = self.cqs.iter().position(|cq| cq.node == node)?;
        Some(CqId(i as u32))
    }

    /// Creates an RC queue pair on `node`, with send completions reported
    /// to `send_cq` and receive completions to `recv_cq` (the paper's MPI
    /// design points both at one CQ per process).
    pub fn create_qp(
        &mut self,
        node: NodeId,
        send_cq: CqId,
        recv_cq: CqId,
        attrs: QpAttrs,
    ) -> QpId {
        debug_assert_eq!(
            self.cqs[send_cq.index()].node,
            node,
            "send CQ on wrong node"
        );
        debug_assert_eq!(
            self.cqs[recv_cq.index()].node,
            node,
            "recv CQ on wrong node"
        );
        let id = QpId(self.qps.len() as u32);
        self.qps.push(Qp::new(id, node, send_cq, recv_cq, attrs));
        id
    }

    /// Attaches `regions` to `qp` — verbs' `qp_context`, typed as the
    /// region handles a connection handshake carries: the fabric stores
    /// them, checkpoints and restores them, and never reads them. Whoever
    /// did not create the QP finds them again through
    /// [`Fabric::qp_toward`] and [`Fabric::qp`]`(…).context()`.
    pub fn set_qp_context(&mut self, qp: QpId, regions: &[MrId]) {
        self.qps[qp.index()].context = regions.into();
    }

    /// The QP of `node` that [`connect`] joined to a QP of `peer` (the
    /// lowest-numbered one, should there be several), as a connection
    /// manager tells the passive side which QP a request reached.
    pub fn qp_toward(&self, node: NodeId, peer: NodeId) -> Option<QpId> {
        let links = &self.nodes[node.index()].links;
        links.iter().find(|&&(p, _)| p == peer).map(|&(_, qp)| qp)
    }

    /// The `(peer node, QP)` pairs [`connect`] recorded for `node`, one per
    /// peer in the order each was first connected, whichever side asked:
    /// what a connection manager tells a host about the connections made
    /// toward it. An entry is never removed and its peer never changes, so
    /// a reader that remembers how many it has seen finds the new ones
    /// past that count.
    pub fn links(&self, node: NodeId) -> &[(NodeId, QpId)] {
        &self.nodes[node.index()].links
    }

    /// Records `qp`, connected, under its node and its peer's node.
    pub(crate) fn link(&mut self, qp: QpId) {
        let q = &self.qps[qp.index()];
        let Some(peer) = q.peer else {
            return;
        };
        let peer = self.qps[peer.index()].node;
        let links = &mut self.nodes[q.node.index()].links;
        match links.iter_mut().find(|(p, _)| *p == peer) {
            Some((_, known)) => *known = (*known).min(qp),
            None => links.push((peer, qp)),
        }
    }

    /// Registers (pins) a fresh region of `len` zero bytes on `node`.
    /// Registration allocates nothing: the host materialises a region only
    /// as far as something has been written into it (see [`Mr`]), so `len`
    /// bounds every access without being resident.
    /// The caller is responsible for charging [`FabricParams::reg_cost`]
    /// as process time (the MPI layer's pin-down cache does).
    pub fn register(&mut self, node: NodeId, len: usize, access: Access) -> MrId {
        let id = MrId(self.mrs.len() as u32);
        self.mrs.push(Mr::new(node, access, len));
        id
    }

    /// Registered length of a region: what `offset + len` is checked
    /// against everywhere.
    pub fn mr_len(&self, mr: MrId) -> usize {
        self.mrs[mr.index()].len()
    }

    /// The node a region was registered on (restore drivers check a
    /// serialized handle still names its holder's memory).
    pub fn mr_node(&self, mr: MrId) -> NodeId {
        self.mrs[mr.index()].node
    }

    /// The *materialised extent* of a region: one contiguous slice from
    /// offset 0 to the end of the furthest write so far, at most
    /// [`Fabric::mr_len`] long. Every byte a completion has reported placed
    /// is inside it; the region's remaining bytes are zero and not
    /// resident. Code that reads by `(offset, len)` wants
    /// [`Fabric::mr_read_into`] or [`Fabric::mr_read_vec`], which see the
    /// full registered length.
    pub fn mr_bytes(&self, mr: MrId) -> &[u8] {
        self.mrs[mr.index()].resident()
    }

    /// Mutable view of the whole region, **materialising all of it** —
    /// the only call that does. Kept for tests that fill a region in
    /// place; host software touching its own memory uses
    /// [`Fabric::mr_write`].
    pub fn mr_bytes_mut(&mut self, mr: MrId) -> &mut [u8] {
        self.mrs[mr.index()].materialise_all()
    }

    /// Stores `data` at `offset` of the region (host software touching its
    /// own memory), materialising it up to the end of the write. Panics
    /// when `offset + data.len()` exceeds the registered length.
    pub fn mr_write(&mut self, mr: MrId, offset: usize, data: &[u8]) {
        self.mrs[mr.index()].write(offset, data);
    }

    /// Copies `out.len()` bytes at `offset` of the region into `out`;
    /// bytes never written read as zero and stay unmaterialised. Panics
    /// when `offset + out.len()` exceeds the registered length.
    pub fn mr_read_into(&self, mr: MrId, offset: usize, out: &mut [u8]) {
        self.mrs[mr.index()].read_into(offset, out);
    }

    /// An owned copy of `len` bytes at `offset` of the region, with the
    /// same zero-fill and bounds rule as [`Fabric::mr_read_into`].
    pub fn mr_read_vec(&self, mr: MrId, offset: usize, len: usize) -> Vec<u8> {
        self.mrs[mr.index()].read_vec(offset, len)
    }

    /// Takes the first `len` bytes out of the region (cut or zero-extended
    /// to `len`, bounds rule of [`Fabric::mr_read_vec`]) and leaves it
    /// unmaterialised. Only sound for a region the caller owns whole —
    /// nothing else it holds survives the take. The prefix is handed over:
    /// an owned one moves, and one the HCA placed by reference that is
    /// exactly `len` bytes long comes back as the payload's own allocation,
    /// so a whole RDMA WRITE reaches the taker with no host copy. Only a
    /// prefix of another length is copied.
    pub fn mr_take(&mut self, mr: MrId, len: usize) -> Bytes {
        self.mrs[mr.index()].take_prefix(len)
    }

    /// Bytes registered across all regions: what a real HCA would have
    /// pinned.
    pub fn registered_bytes(&self) -> usize {
        self.mrs.iter().map(Mr::len).sum()
    }

    /// Bytes the host actually holds across all regions (the sum of the
    /// materialised extents): the memory the protocol has touched, which
    /// is the paper's scalability argument made measurable. A payload
    /// placed by reference counts once per region holding it.
    pub fn resident_bytes(&self) -> usize {
        self.mrs.iter().map(|mr| mr.resident().len()).sum()
    }

    /// Number of registered memory regions (restore drivers bounds-check
    /// serialized MR handles against this).
    pub fn mr_count(&self) -> usize {
        self.mrs.len()
    }

    /// Every completion queued across the fabric, queue by queue (what a
    /// checkpoint fence finds still unpolled).
    pub fn queued_completions(&self) -> impl Iterator<Item = &Cqe> {
        self.cqs.iter().flat_map(Cq::entries)
    }

    /// Immutable access to a QP (diagnostics and tests).
    pub fn qp(&self, qp: QpId) -> &Qp {
        &self.qps[qp.index()]
    }

    /// Every QP, in creation order.
    pub fn qps(&self) -> impl ExactSizeIterator<Item = &Qp> {
        self.qps.iter()
    }

    /// Number of QPs created.
    pub fn qp_count(&self) -> usize {
        self.qps.len()
    }

    /// Immutable access to a CQ (diagnostics and tests).
    pub fn cq(&self, cq: CqId) -> &Cq {
        &self.cqs[cq.index()]
    }

    /// Posts a receive work request: validated, then queued FIFO. The
    /// depth of this queue is what ACKs advertise as end-to-end credits.
    pub fn post_recv(&mut self, qp: QpId, wr: RecvWr) -> Result<(), VerbsError> {
        let node = self.qps[qp.index()].node;
        let mr = self.mrs.get(wr.mr.index()).ok_or(VerbsError::UnknownMr)?;
        if mr.node != node {
            return Err(VerbsError::WrongNode);
        }
        if !mr.access.allows(Access::LOCAL_WRITE) {
            return Err(VerbsError::AccessDenied);
        }
        if !mr.check_range(wr.offset, wr.len) {
            return Err(VerbsError::OutOfBounds);
        }
        let q = &mut self.qps[qp.index()];
        if q.state == QpState::Error {
            return Err(VerbsError::InvalidQpState);
        }
        q.rq.push_back(wr);
        q.peak_rq_depth = q.peak_rq_depth.max(q.rq.len());
        Ok(())
    }

    /// Drains up to `max` completions from `cq`.
    pub fn poll_cq(&mut self, cq: CqId, max: usize) -> Vec<Cqe> {
        let mut out = Vec::new();
        self.poll_cq_into(cq, max, &mut out);
        out
    }

    /// Drains up to `max` completions from `cq`, appending them to `out`
    /// (a progress loop passes the same buffer every sweep, so polling
    /// allocates nothing). Returns how many were drained.
    pub fn poll_cq_into(&mut self, cq: CqId, max: usize, out: &mut Vec<Cqe>) -> usize {
        let q = &mut self.cqs[cq.index()];
        for drained in 0..max {
            let Some(c) = q.pop() else {
                return drained;
            };
            out.push(c);
        }
        max
    }

    /// Registers `waker` for a wake when the next completion lands in `cq`.
    pub fn req_notify_cq(&mut self, cq: CqId, waker: Waker) {
        self.cqs[cq.index()].register_waiter(waker);
    }

    /// Registers `waker` for a wake when any RDMA WRITE lands in `node`'s
    /// memory (models the MPI progress engine polling memory for
    /// RDMA-delivered credit updates / RDMA-channel messages).
    pub fn watch_rdma(&mut self, node: NodeId, waker: Waker) {
        let ws = &mut self.nodes[node.index()].rdma_watchers;
        if !ws.contains(&waker) {
            ws.push(waker);
        }
    }

    /// Cumulative count of RDMA WRITE payloads applied to `node`'s memory
    /// (ring frames, credit mailboxes, rendezvous data). Progress engines
    /// compare this against a cached value to skip scanning RDMA-fed state
    /// (eager rings, credit mailboxes) when nothing new can have arrived.
    pub fn rdma_delivered(&self, node: NodeId) -> u64 {
        self.nodes[node.index()].rdma_delivered
    }

    /// Drops every registered CQ waiter and RDMA watcher.
    ///
    /// Called at a checkpoint fence, where every process is parked at the
    /// fence note and the engine is about to wake all of them anyway (or
    /// the run is stopping for a snapshot). Registered wakers are one-shot
    /// hints, so dropping them is semantically free — the owning processes
    /// re-register on their next blocking wait — and it keeps a *released*
    /// world byte-identical to a *restored* one, which necessarily starts
    /// with no registrations.
    pub fn clear_transient_wakers(&mut self) {
        for cq in &mut self.cqs {
            cq.clear_waiters();
        }
        for n in &mut self.nodes {
            n.rdma_watchers.clear();
        }
    }
}

/// Connects two QPs as a reliable connection and exchanges initial
/// end-to-end credits (each side learns how many receives the peer has
/// already posted, as the real connection handshake's `initial credit`
/// field does). Each QP is recorded under its node and its peer's, for
/// [`Fabric::qp_toward`].
pub fn connect(ctx: &mut Ctx<'_, Fabric>, a: QpId, b: QpId) {
    assert_ne!(a, b, "cannot connect a QP to itself");
    {
        let f = &mut ctx.world;
        let rb = f.qps[b.index()].rq.len() as u32;
        let ra = f.qps[a.index()].rq.len() as u32;
        let qa = &mut f.qps[a.index()];
        assert_eq!(qa.state, QpState::Reset, "QP already connected");
        qa.peer = Some(b);
        qa.state = QpState::ReadyToSend;
        qa.adv_credits = rb;
        let qb = &mut f.qps[b.index()];
        assert_eq!(qb.state, QpState::Reset, "QP already connected");
        qb.peer = Some(a);
        qb.state = QpState::ReadyToSend;
        qb.adv_credits = ra;
        f.link(a);
        f.link(b);
    }
    transport::pump(ctx, a);
    transport::pump(ctx, b);
}

/// Posts a send-side work request (two-sided send or RDMA WRITE) and kicks
/// the QP's transmit engine.
pub fn post_send(ctx: &mut Ctx<'_, Fabric>, qp: QpId, wr: SendWr) -> Result<(), VerbsError> {
    {
        let f = &mut ctx.world;
        let q = &mut f.qps[qp.index()];
        if q.state != QpState::ReadyToSend {
            return Err(VerbsError::InvalidQpState);
        }
        let rnr_budget = q.attrs.rnr_retry;
        let retry_budget = q.attrs.retry_cnt;
        q.sq.push_back(SendWqe {
            wr_id: wr.wr_id,
            op: wr.op,
            signaled: wr.signaled,
            rnr_budget,
            retry_budget,
            attempts: 0,
        });
        q.peak_sq_depth = q.peak_sq_depth.max(q.sq.len());
    }
    transport::pump(ctx, qp);
    Ok(())
}

/// Re-export of [`Fabric::post_recv`] as a free function for symmetry with
/// [`post_send`] in calling code that holds a `Ctx`.
pub fn post_recv(ctx: &mut Ctx<'_, Fabric>, qp: QpId, wr: RecvWr) -> Result<(), VerbsError> {
    ctx.world.post_recv(qp, wr)
}
