//! The progress engine: completion dispatch, credit accounting, backlog
//! draining, explicit credit returns, and dynamic pool growth.

use crate::buffers::{decode_wrid, recv_slot_of, WrKind};
use crate::config::{CreditMsgMode, GrowthPolicy};
use crate::rank::{MpiRank, Unexpected};
use crate::requests::{RecvState, ReqId, Request, SendState};
use crate::types::Rank;
use crate::wire::{MsgHeader, MsgKind, HEADER_LEN};
use ibfabric::{CqeOpcode, CqeStatus, SendOp};

/// Frames drained from one connection's rings in one progress pass.
const RING_DRAIN_BURST: u32 = 8;

/// Geometric factor of one ring-growth step (new = old × factor, capped
/// at [`crate::MpiConfig::ring_cap`]).
const RING_GROWTH_FACTOR: u32 = 2;

/// Takes the frame at `offset` of `mr` (a slab slot or a ring slot) out of
/// the region: its decoded header and an owned copy of its payload (which
/// does not allocate when the payload is empty).
fn read_frame(world: &ibfabric::Fabric, mr: ibfabric::MrId, offset: usize) -> (MsgHeader, Vec<u8>) {
    let mut head = [0u8; HEADER_LEN];
    world.mr_read_into(mr, offset, &mut head);
    #[expect(
        clippy::expect_used,
        reason = "frames only ever come from MsgHeader::try_encode, and a ring frame is written whole before its validity marker is set, so a decode failure is a simulator bug"
    )]
    let header = MsgHeader::decode(&head).expect("malformed frame");
    let payload = world.mr_read_vec(mr, offset + HEADER_LEN, header.payload_len as usize);
    (header, payload)
}

impl MpiRank {
    /// One progress sweep: adopt the connections made toward this rank,
    /// drain the CQ, apply flow control bookkeeping, drain backlogs, and
    /// emit credit updates. Returns true if anything happened.
    pub fn progress(&mut self) -> bool {
        let mut any = false;
        let (cq, node) = (self.cq, self.node);
        let mut batch = std::mem::take(&mut self.cq_batch);
        loop {
            // The poll reads the node's link count as well, so a new link
            // costs the sweep one compare to notice, and its connection is
            // adopted before any completion it raised is dispatched or its
            // ring is scanned.
            let (polled, links) = self.proc.with(|ctx| {
                let polled = ctx.world.poll_cq_into(cq, 64, &mut batch);
                (polled, ctx.world.links(node).len())
            });
            if links != self.links_adopted {
                self.adopt_connections();
            }
            if polled == 0 {
                break;
            }
            let poll_cost = self.proc.with(|ctx| ctx.world.params().sw_poll_cost);
            self.charge(poll_cost);
            any = true;
            for cqe in batch.drain(..) {
                self.dispatch_cqe(cqe);
            }
        }
        self.cq_batch = batch;
        // RDMA-fed state (eager-channel rings, credit mailboxes) only
        // needs a scan when an RDMA WRITE actually landed on this node
        // since the last pass: the fabric's per-node delivery counter
        // makes the empty pass O(1) instead of O(world). A bounded ring
        // drain leaves a residual that forces the next scan regardless.
        let channel = self.cfg.scheme.uses_ring();
        let rdma_credits =
            self.cfg.scheme.is_user_level() && self.cfg.credit_msg_mode == CreditMsgMode::Rdma;
        if channel || rdma_credits {
            let node = self.node;
            let delivered = self.proc.with(|ctx| ctx.world.rdma_delivered(node));
            if delivered != self.rdma_seen || self.ring_residual {
                // Snapshot before scanning so a write racing the scan is
                // caught by the next pass rather than lost.
                self.rdma_seen = delivered;
                // RDMA eager-channel rings (companion design [13]).
                if channel {
                    any |= self.poll_rings();
                }
                // RDMA credit mailboxes (paper §7's "RDMA approach").
                if rdma_credits {
                    any |= self.poll_credit_mailboxes();
                }
            }
        }
        // Credits may have arrived: drain backlogs.
        any |= self.drain_backlogs();
        // Return credits that piggybacking didn't carry.
        if self.cfg.scheme.is_user_level() {
            self.emit_credit_updates();
        }
        // Debug builds: every sweep ends with both credit windows of every
        // connection conserved. Release builds compile this away and
        // check once per connection in `finish_stats`.
        if cfg!(debug_assertions) {
            for c in self.conns.iter().flatten() {
                c.assert_conserved();
            }
        }
        any
    }

    fn dispatch_cqe(&mut self, cqe: ibfabric::Cqe) {
        let (kind, value) = decode_wrid(cqe.wr_id);
        if cqe.status != CqeStatus::Success {
            self.handle_failed_cqe(cqe, kind, value);
            return;
        }
        match (cqe.opcode, kind) {
            (CqeOpcode::RecvComplete, WrKind::RecvSlot) => {
                let (peer, slot) = recv_slot_of(value);
                self.handle_incoming(peer, slot, cqe.byte_len);
            }
            (CqeOpcode::SendComplete, WrKind::CtrlSend | WrKind::Ecm) => {
                self.outstanding_ctrl -= 1;
            }
            (CqeOpcode::RdmaWriteComplete, WrKind::RndzWrite) => {
                // Zero-copy data placed: the send buffer is reusable.
                let req = ReqId(value as u32);
                let detached = {
                    let s = self.reqs.send_mut(req);
                    debug_assert_eq!(s.state, SendState::Writing);
                    s.state = SendState::Done;
                    s.detached
                };
                if detached {
                    self.reqs.remove(req);
                }
            }
            (CqeOpcode::RdmaWriteComplete, WrKind::CreditRdma | WrKind::RingWrite) => {
                self.outstanding_ctrl -= 1;
            }
            #[expect(
                clippy::panic,
                reason = "the (opcode, wr-kind) table above is exhaustive for every work request this layer posts; anything else is a simulator bug"
            )]
            (op, k) => panic!("rank {}: unexpected completion {op:?} for {k:?}", self.rank),
        }
    }

    /// A completion reported a non-success status: keep the bookkeeping
    /// the success path would have done (so counters stay balanced), then
    /// record a typed [`crate::FabricFault`] and tear the connection down.
    /// The QP is already in the error state, so every other work request
    /// on it follows as a `WorkRequestFlushed` completion; only the first
    /// failure per connection records a fault and runs the teardown.
    fn handle_failed_cqe(&mut self, cqe: ibfabric::Cqe, kind: WrKind, value: u64) {
        let peer = match kind {
            WrKind::CtrlSend | WrKind::Ecm | WrKind::CreditRdma | WrKind::RingWrite => {
                self.outstanding_ctrl -= 1;
                value as usize
            }
            WrKind::RndzWrite => {
                let req = ReqId(value as u32);
                let dst = self.reqs.send_ref(req).dst;
                self.reqs.fail_send(req);
                dst
            }
            WrKind::RecvSlot => {
                let (peer, _) = recv_slot_of(value);
                // The flushed WQE consumed a posted buffer.
                let c = self.conn_mut(peer);
                c.posted = c.posted.saturating_sub(1);
                peer
            }
        };
        if !self.conn(peer).failed {
            self.stats.faults.push(crate::fault::FabricFault {
                peer,
                opcode: cqe.opcode,
                status: cqe.status,
            });
            self.teardown_conn(peer);
        }
    }

    /// Fails every operation bound to `peer` after its QP entered the
    /// error state: the backlog, live sends and receives, and the posted
    /// match list. Failed receives complete with a zero-length status and
    /// an empty payload so waiting callers unblock without panicking
    /// ([`crate::MpiRank::wait_recv_result`] surfaces the typed error).
    fn teardown_conn(&mut self, peer: Rank) {
        self.conn_mut(peer).failed = true;
        self.conn_mut(peer).optimistic_req = None;
        // A torn-down connection's ring and mailbox never see another
        // delivery; stop polling them.
        self.rdma_watch.retain(|&p| p != peer);
        let backlog: Vec<ReqId> = self.conn_mut(peer).backlog.drain(..).collect();
        for req in backlog {
            self.reqs.fail_send(req);
        }
        for id in self.reqs.live_ids() {
            match self.reqs.get_mut(id) {
                Request::Send(s) if s.dst == peer && s.state != SendState::Done => {
                    self.reqs.fail_send(id);
                }
                Request::Recv(r) if r.src == Some(peer) && r.state != RecvState::Done => {
                    r.fail(peer, r.tag.unwrap_or(0));
                }
                Request::Send(_) | Request::Recv(_) => {}
            }
        }
        // Failed receives no longer participate in matching.
        let reqs = &self.reqs;
        self.posted_recvs
            .retain(|&rid| !matches!(reqs.get(rid), Request::Recv(r) if r.failed));
    }

    /// A message landed in slot `slot` of the connection from `peer`.
    fn handle_incoming(&mut self, peer: Rank, slot: u32, byte_len: usize) {
        self.stats.msgs_received.incr();
        // Read the frame out of the slab.
        let (header, payload) = {
            let (mr, offset) = (self.conn(peer).slab, slot as usize * self.cfg.buf_size);
            self.proc.with(|ctx| read_frame(ctx.world, mr, offset))
        };
        debug_assert_eq!(header.src_rank, peer, "message arrived on wrong connection");
        debug_assert!(
            HEADER_LEN + payload.len() <= byte_len,
            "frame longer than the completion"
        );

        // Credit accounting for the consumed buffer: the receiver half of
        // the metering rule (`conn.rs`, beside the sender half).
        if crate::conn::earns_return(self.cfg.scheme, header.kind) {
            self.conn_mut(peer).credits.owe(1);
        }

        // Repost the slot immediately (paper §3.2).
        self.repost_slot(peer, slot);

        self.gate_and_dispatch(peer, header, payload);
    }

    /// Delivers a frame to the protocol layer in per-connection sequence
    /// order. With the RDMA eager channel, data frames (ring) and control
    /// frames (send/receive) travel on different channels of the same QP,
    /// so a frame can reach software ahead of its predecessor; MPI
    /// matching order requires holding it back.
    fn gate_and_dispatch(&mut self, peer: Rank, header: MsgHeader, payload: Vec<u8>) {
        if !self.cfg.scheme.uses_ring() {
            self.dispatch_frame(peer, header, payload);
            return;
        }
        {
            let c = self.conn_mut(peer);
            if header.seq != c.next_deliver_seq {
                debug_assert!(header.seq > c.next_deliver_seq, "duplicate frame");
                c.reorder.insert(header.seq, (header, payload));
                return;
            }
            c.next_deliver_seq += 1;
        }
        self.dispatch_frame(peer, header, payload);
        loop {
            let next = {
                let c = self.conn_mut(peer);
                let seq = c.next_deliver_seq;
                match c.reorder.remove(&seq) {
                    Some(f) => {
                        c.next_deliver_seq += 1;
                        Some(f)
                    }
                    None => None,
                }
            };
            match next {
                Some((h, p)) => self.dispatch_frame(peer, h, p),
                None => break,
            }
        }
    }

    /// Protocol-level handling of one in-order frame.
    fn dispatch_frame(&mut self, peer: Rank, header: MsgHeader, payload: Vec<u8>) {
        let scheme = self.cfg.scheme;

        // 1. Piggybacked credits (buffer credits and ring-slot returns).
        if scheme.is_user_level() && header.credits > 0 {
            self.conn_mut(peer).credits.grant(u32::from(header.credits));
        }
        if scheme.uses_ring() && header.ring_credits > 0 {
            self.conn_mut(peer)
                .ring
                .grant(u32::from(header.ring_credits));
        }

        // 2. Growth feedback (a no-op where the scheme caps the pool or
        // the ring at its starting size).
        if header.backlog_flag {
            self.grow_pool(peer);
        }
        if header.ring_backlog {
            self.grow_ring(peer);
        }

        // 3. Protocol dispatch.
        match header.kind {
            MsgKind::Eager => {
                let copy_cost = self
                    .proc
                    .with(|ctx| ctx.world.params().copy_time(payload.len()));
                self.charge(copy_cost);
                match self.match_posted(peer, header.tag, header.comm) {
                    Some(req) => self.complete_eager_recv(req, peer, header.tag, payload),
                    None => {
                        self.stats.unexpected_msgs.incr();
                        self.unexpected.push_back(Unexpected::Eager {
                            src: peer,
                            tag: header.tag,
                            comm: header.comm,
                            data: payload,
                        });
                    }
                }
            }
            MsgKind::RndzStart => {
                let data_len = header.data_len as usize;
                match self.match_posted(peer, header.tag, header.comm) {
                    Some(req) => self.accept_rndz(req, peer, header.tag, header.rndz_id, data_len),
                    None => {
                        self.stats.unexpected_msgs.incr();
                        self.unexpected.push_back(Unexpected::Rndz {
                            src: peer,
                            tag: header.tag,
                            comm: header.comm,
                            rndz_id: header.rndz_id,
                            data_len,
                        });
                    }
                }
            }
            MsgKind::RndzReply => self.handle_rndz_reply(peer, &header),
            MsgKind::RndzFin => self.handle_rndz_fin(&header),
            MsgKind::Credit => {
                // Credits were applied in step 1; nothing else to do.
            }
        }
    }

    /// Finds the first posted receive matching `(src, tag, comm)` and
    /// removes it from the posted list.
    fn match_posted(
        &mut self,
        src: Rank,
        tag: crate::types::Tag,
        comm: crate::types::CommCtx,
    ) -> Option<ReqId> {
        let pos = self.posted_recvs.iter().position(|&rid| {
            if let Request::Recv(r) = self.reqs.get(rid) {
                r.comm == comm
                    && crate::pt2pt::wildcard_match(r.src, src)
                    && crate::pt2pt::wildcard_match(r.tag, tag)
            } else {
                false
            }
        })?;
        Some(self.posted_recvs.remove(pos))
    }

    /// Completes an eager receive (payload already copied out of the slab).
    pub(crate) fn complete_eager_recv(
        &mut self,
        req: ReqId,
        src: Rank,
        tag: crate::types::Tag,
        data: Vec<u8>,
    ) {
        let r = self.reqs.recv_mut(req);
        r.status = Some(crate::types::Status {
            source: src,
            tag,
            len: data.len(),
        });
        r.data = Some(data.into());
        r.state = RecvState::Done;
    }

    /// The receiver told us where to put rendezvous data: RDMA-write it,
    /// then send fin (same QP, so ordering guarantees data-before-fin).
    fn handle_rndz_reply(&mut self, peer: Rank, h: &MsgHeader) {
        let req = ReqId(h.rndz_id as u32);
        // A reply can land behind a failure completion in the same poll
        // batch; the teardown already failed this send, and the QP would
        // reject the data write anyway.
        if self.conn(peer).failed {
            return;
        }
        // A reply proves the receiver consumed and reposted our start's
        // buffer: a starved connection may launch its next optimistic
        // start (the end-of-progress backlog drain picks it up).
        if self.conn(peer).optimistic_req == Some(req) {
            self.conn_mut(peer).optimistic_req = None;
        }
        let data = {
            let s = self.reqs.send_mut(req);
            debug_assert_eq!(s.state, SendState::StartSent);
            s.state = SendState::Writing;
            // The WRITE takes the payload: the request needs none of it
            // after this.
            std::mem::take(&mut s.data)
        };
        let len = data.len();
        let op = SendOp::RdmaWrite {
            // The request's payload itself: zero host copies.
            payload: data,
            rkey: ibfabric::MrId::from_raw(h.rkey),
            remote_offset: h.remote_offset as usize,
        };
        // Its completion is tracked by the request, not `outstanding_ctrl`.
        let wr_id = crate::buffers::encode_wrid(WrKind::RndzWrite, req.0 as u64);
        self.post_send_wr(peer, wr_id, op, 2);
        self.stats.rndz_bytes.add(len as u64);
        // Fin rides behind the data on the same QP.
        let mut fin = MsgHeader::new(MsgKind::RndzFin, self.rank);
        fin.rndz_id = h.rndz_id;
        fin.peer_req = h.peer_req;
        self.post_frame(peer, fin, &[], WrKind::CtrlSend);
    }

    /// Data landed (ordering guarantee): the landing region's bytes become
    /// the receive's payload by a take, and the receive completes, which
    /// frees its lane. The WRITE covered the emptied region's whole prefix,
    /// so the HCA model placed it by reference, and the take hands that
    /// allocation to the receive: no host copy on this side (an owned
    /// prefix, e.g. one a restore rebuilt, moves instead).
    fn handle_rndz_fin(&mut self, h: &MsgHeader) {
        let req = ReqId(h.peer_req as u32);
        #[expect(
            clippy::expect_used,
            reason = "accept_rndz claims the landing region before the reply that triggers this fin can exist"
        )]
        let (landing, len) = {
            let r = self.reqs.recv_ref(req);
            if r.failed {
                // Teardown completed this receive while the fin was in the
                // poll batch; the empty-payload outcome stands.
                return;
            }
            debug_assert_eq!(r.state, RecvState::RndzInFlight);
            (r.staging.expect("landing region set"), r.rndz_len)
        };
        let rank = self.rank;
        let data = self.proc.with(|ctx| {
            // Fin rides behind the WRITE on one QP, so the data is placed;
            // an unmaterialised region would read as a payload of zeros.
            let landed = ctx.world.mr_bytes(landing).len();
            assert!(
                landed >= len,
                "rank {rank}: fin for a {len}-byte rendezvous, but only {landed} bytes landed in {landing:?}"
            );
            ctx.world.mr_take(landing, len)
        });
        let r = self.reqs.recv_mut(req);
        r.data = Some(data);
        r.state = RecvState::Done;
    }

    /// The peer's sends waited in its backlog; grow the pool of buffers we
    /// post for it (paper §4.3), up to [`crate::MpiConfig::pool_cap`] — a
    /// no-op under every scheme but the dynamic one, whose cap is the
    /// starting pool.
    fn grow_pool(&mut self, peer: Rank) {
        if self.conn(peer).failed {
            return;
        }
        let old = self.conn(peer).prepost_target;
        let new = match self.cfg.growth {
            GrowthPolicy::Linear(k) => old.saturating_add(k),
            GrowthPolicy::Exponential => old.saturating_mul(2),
        }
        .min(self.cfg.pool_cap());
        if new <= old {
            return;
        }
        let c = self.conn_mut(peer);
        c.prepost_target = new;
        c.stats.growth_events.incr();
        // The slab's free slots are the ones past the old target.
        for slot in old..new {
            self.post_recv_slot(peer, slot);
        }
        let c = self.conn_mut(peer);
        c.posted += new - old;
        c.stats.max_posted.observe(u64::from(c.posted));
        // Newly posted buffers are fresh credits for the peer.
        c.credits.owe(new - old);
    }

    /// Ring growth (the paper's §7 future work, applied to the RDMA eager
    /// channel): the peer's ring-full conversions crossed the threshold,
    /// so register a geometrically larger ring (up to
    /// [`crate::MpiConfig::ring_cap`]), publish its generation/rkey/size
    /// through the credit mailbox (together with the slot-delta grant), and keep the displaced generation polled until
    /// its tail drains. At most one generation switch is in flight per
    /// connection; a trigger arriving mid-switch is remembered and
    /// retried once the acknowledgement lands and the old tail retires.
    fn grow_ring(&mut self, peer: Rank) {
        if self.conn(peer).failed {
            return;
        }
        let max = self.cfg.ring_cap();
        let new_slots = {
            let c = self.conn_mut(peer);
            let (gen, slots) = (c.live_ring().gen, c.live_ring().slots);
            if slots >= max {
                // Capped: from here on the connection behaves like a
                // large static ring.
                c.ring_growth_pending = false;
                return;
            }
            if c.peer_acked_gen < gen || c.rings.len() > 1 {
                c.ring_growth_pending = true;
                return;
            }
            c.ring_growth_pending = false;
            slots.saturating_mul(RING_GROWTH_FACTOR).min(max)
        };
        let len = new_slots as usize * self.cfg.buf_size;
        let node = self.node;
        let (mr, cost) = self.proc.with(|ctx| {
            let mr = ctx.world.register(node, len, ibfabric::Access::FULL);
            (mr, ctx.world.params().reg_cost(len))
        });
        self.charge(cost);
        self.conn_mut(peer).install_grown_ring(mr, new_slots);
        // Publish generation, rkey, size, and the slot-delta grant in one
        // mailbox write so the peer adopts them atomically.
        self.send_rdma_credit_update(peer);
    }

    /// Sends backlogged operations on every connection (see
    /// [`MpiRank::drain_backlog_for`]).
    fn drain_backlogs(&mut self) -> bool {
        let mut any = false;
        for peer in 0..self.size {
            if self.conns[peer].is_some() {
                any |= self.drain_backlog_for(peer);
            }
        }
        any
    }

    /// Emits explicit credit returns for connections whose accumulated
    /// count crossed the threshold and that piggybacking hasn't served.
    /// (The count is cumulative across buffer recycles, so even a
    /// single-buffer connection reaches the threshold; the optimistic
    /// rendezvous conversion covers the window before it does.)
    fn emit_credit_updates(&mut self) {
        let threshold = self.cfg.ecm_threshold.max(1);
        for peer in 0..self.size {
            let Some(c) = self.conns[peer].as_ref() else {
                continue;
            };
            // The ring cadence tracks the connection's *current* ring
            // size, not the configured bootstrap size: after growth a
            // bootstrap-sized cadence would send a mailbox WRITE every
            // couple of drained frames forever.
            let ring_owed =
                self.cfg.scheme.uses_ring() && c.ring.pending >= threshold.min(c.live_ring().slots);
            // An adopted-but-unacknowledged ring generation forces an
            // update out: the peer cannot retire the old ring until the
            // ack word lands in its mailbox.
            let ack_owed = c.ring_gen_ack_pending;
            if c.failed || (c.credits.pending < threshold && !ring_owed && !ack_owed) {
                continue;
            }
            let mode = self.cfg.credit_msg_mode;
            if mode == CreditMsgMode::Rdma {
                self.send_rdma_credit_update(peer);
            } else if mode != CreditMsgMode::NaiveGated || self.conn(peer).credits.held > 0 {
                // An optimistic ECM bypasses flow control entirely (paper
                // §4.2): always postable, so no deadlock. The deliberately
                // broken naive-gated one may only go out on a held credit,
                // and spends it (`conn::spends_credit`); without one it
                // starves — this is how the deadlock demo dies.
                let h = MsgHeader::new(MsgKind::Credit, self.rank);
                self.post_frame(peer, h, &[], WrKind::Ecm);
                self.conn_mut(peer).stats.ecm_sent.incr();
            }
        }
    }

    /// Polls the incoming RDMA eager-channel ring of every *watched*
    /// connection (established peers only — the O(active) watchlist),
    /// each connection's ring generations oldest first: a replaced
    /// generation's frames predate the switch (the sequence gate reorders
    /// across regions either way, but draining the tail early is what lets
    /// the old registration retire). A replaced generation retires once
    /// its markers run dry *and* the peer has acknowledged a later one —
    /// the ack rides the same in-order QP as the ring WRITEs, so once it
    /// has landed no further frame can reach the old region — and a
    /// retirement unblocks a deferred growth retry. Each connection drains
    /// at most `RING_DRAIN_BURST` frames per pass so a hot ring cannot
    /// starve CQ progress or the other rings; leftovers set
    /// `ring_residual`, which forces the next pass to scan again.
    fn poll_rings(&mut self) -> bool {
        let mut any = false;
        let buf_size = self.cfg.buf_size;
        self.ring_residual = false;
        let mut i = 0;
        while i < self.rdma_watch.len() {
            let peer = self.rdma_watch[i];
            i += 1;
            let mut drained = 0;
            let mut g = 0;
            loop {
                if drained >= RING_DRAIN_BURST {
                    self.ring_residual = true;
                    break;
                }
                let (mr, slot, gen, live) = {
                    let c = self.conn(peer);
                    let Some(r) = c.rings.get(g) else {
                        break;
                    };
                    (r.mr, r.read_slot, r.gen, g + 1 == c.rings.len())
                };
                let Some((header, payload)) = self.take_ring_frame(mr, slot as usize * buf_size)
                else {
                    if !live && self.conn(peer).peer_acked_gen > gen {
                        let retry = {
                            let c = self.conn_mut(peer);
                            c.rings.remove(g);
                            c.stats.rings_retired.incr();
                            c.ring_growth_pending
                        };
                        any = true;
                        if retry {
                            self.grow_ring(peer);
                        }
                    } else {
                        g += 1;
                    }
                    continue;
                };
                {
                    let c = self.conn_mut(peer);
                    let r = &mut c.rings[g];
                    r.read_slot = (slot + 1) % r.slots;
                    c.ring.owe(1);
                }
                self.stats.msgs_received.incr();
                self.gate_and_dispatch(peer, header, payload);
                any = true;
                drained += 1;
                if live {
                    // The frame's ring-backlog bit may have grown the ring:
                    // go on at slot 0 of the new generation and leave the
                    // displaced one's remaining frames to the next pass.
                    g = self.conn(peer).rings.len() - 1;
                }
            }
        }
        any
    }

    /// Takes the frame out of the ring slot at `offset` of `mr`, if its
    /// validity marker is set: one world access checks the marker, copies
    /// the payload out of the ring (the one copy this path makes), clears
    /// the marker (the slot is free once the return reaches the sender),
    /// and prices the copy.
    fn take_ring_frame(
        &mut self,
        mr: ibfabric::MrId,
        offset: usize,
    ) -> Option<(MsgHeader, Vec<u8>)> {
        use crate::buffers::{RING_MARKER, RING_MARKER_OFFSET};
        let (header, payload, copy_cost) = self.proc.with(|ctx| {
            // A slot nothing has landed in yet reads as zeros: no marker.
            let mut marker = [0u8];
            ctx.world
                .mr_read_into(mr, offset + RING_MARKER_OFFSET, &mut marker);
            if marker[0] != RING_MARKER {
                return None;
            }
            let (header, payload) = read_frame(ctx.world, mr, offset);
            ctx.world.mr_write(mr, offset + RING_MARKER_OFFSET, &[0]);
            let cost = ctx.world.params().copy_time(HEADER_LEN + payload.len());
            Some((header, payload, cost))
        })?;
        // A short polled-discovery cost (no CQE, no repost) — the source
        // of the RDMA channel's latency advantage.
        self.charge(copy_cost + ibsim::SimDuration::nanos(100));
        Some((header, payload))
    }

    /// Reads the incoming credit mailbox of every watched connection.
    fn poll_credit_mailboxes(&mut self) -> bool {
        let mut any = false;
        let mut i = 0;
        while i < self.rdma_watch.len() {
            let peer = self.rdma_watch[i];
            i += 1;
            let mailbox = self.conn(peer).my_mailbox;
            let (buf_total, ring_total) = self.proc.with(|ctx| {
                let mut b = [0u8; 16];
                ctx.world.mr_read_into(mailbox, 0, &mut b);
                (crate::wire::u64_at(&b, 0), crate::wire::u64_at(&b, 8))
            });
            let c = self.conn_mut(peer);
            any |= c.credits.apply_mailbox(buf_total);
            any |= c.ring.apply_mailbox(ring_total);
            any |= self.poll_ring_growth_words(peer, mailbox);
        }
        any
    }

    /// Reads the growth words of one incoming mailbox: adopts a newly
    /// offered peer ring (higher generation than the one currently
    /// written to) and applies the peer's acknowledgement of our own
    /// offers. Generation 0 is the first ring, so a zeroed mailbox —
    /// all a peer whose ring may not grow ever writes there — is never
    /// adopted; offers are whole-image and monotone, making a duplicated
    /// or overtaken write a no-op.
    fn poll_ring_growth_words(&mut self, peer: Rank, mailbox: ibfabric::MrId) -> bool {
        let (offer_gen, offer_rkey, offer_slots, ack_gen) = self.proc.with(|ctx| {
            let mut b = [0u8; 16];
            ctx.world.mr_read_into(mailbox, 16, &mut b);
            (
                crate::wire::u32_at(&b, 0),
                crate::wire::u32_at(&b, 4),
                crate::wire::u32_at(&b, 8),
                crate::wire::u32_at(&b, 12),
            )
        });
        let mut any = false;
        let retry = {
            let c = self.conn_mut(peer);
            if offer_gen > c.peer_ring_gen {
                // Switch to the new ring: the next frame goes to slot 0
                // of the new region. Credits held against the old ring
                // stay spendable — the grant delta published with the
                // offer raised the window to the new slot count.
                c.peer_ring_gen = offer_gen;
                c.peer_ring = ibfabric::MrId::from_raw(offer_rkey);
                c.peer_ring_slots = offer_slots;
                c.ring_write_slot = 0;
                c.ring_gen_ack_pending = true;
                any = true;
            }
            if ack_gen > c.peer_acked_gen {
                c.peer_acked_gen = ack_gen;
                any = true;
                c.ring_growth_pending
            } else {
                false
            }
        };
        if retry {
            // A growth trigger arrived while the previous switch was
            // still unacknowledged; the ack just landed, so retry it.
            self.grow_ring(peer);
        }
        any
    }
}
