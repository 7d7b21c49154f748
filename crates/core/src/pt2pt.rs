//! Point-to-point operations: eager/rendezvous issue, matching, waiting.

use crate::buffers::WrKind;
use crate::rank::{MpiRank, Unexpected};
use crate::regcache::BufKey;
use crate::requests::{RecvReq, RecvState, ReqId, Request, SendReq, SendState};
use crate::scalar::{decode_into, encode_slice, Scalar};
use crate::types::{CommCtx, Rank, Status, Tag, WORLD_CTX};
use crate::wire::{MsgHeader, MsgKind};
use ibfabric::Bytes;
use std::sync::Arc;

impl MpiRank {
    // ------------------------------------------------------------------
    // Public point-to-point API (world communicator).
    // ------------------------------------------------------------------

    /// Non-blocking send of `data` to `dst` with `tag` on the world
    /// communicator. An eager send that posts at once frames `data`
    /// directly; one that must outlive the call (rendezvous, backlogged or
    /// buffered) copies it once into the buffer the wire carries.
    pub fn isend(&mut self, data: &[u8], dst: Rank, tag: Tag) -> ReqId {
        self.isend_ctx(data, dst, tag, WORLD_CTX)
    }

    /// [`MpiRank::isend`] of a buffer the caller built and gives up: the
    /// wire carries `data` itself, with no copy (an eager frame still
    /// copies it in beside its header, as into the pre-pinned buffer the
    /// eager protocol models).
    pub fn isend_owned(&mut self, data: Arc<[u8]>, dst: Rank, tag: Tag) -> ReqId {
        self.isend_ctx(data, dst, tag, WORLD_CTX)
    }

    /// Synchronous-mode send (`MPI_Ssend`, paper §3.1): completes only
    /// once the receiver has started receiving — implemented, as the
    /// paper describes, by forcing the rendezvous protocol regardless of
    /// message size.
    pub async fn ssend(&mut self, data: &[u8], dst: Rank, tag: Tag) {
        // Rendezvous unconditionally: the reply proves the receiver
        // matched, which is the synchronous-mode guarantee.
        let req = self.start_send(data.into(), dst, tag, WORLD_CTX, true);
        self.wait(req).await;
    }

    /// Buffered-mode send (`MPI_Bsend`, paper §3.1): always returns as
    /// soon as the payload is copied out of the caller's buffer. Small
    /// messages already behave this way; large ones are snapshotted here
    /// (the simulator's stand-in for the attached buffer) and complete in
    /// the background.
    pub async fn bsend(&mut self, data: &[u8], dst: Rank, tag: Tag) {
        let req = self.isend(data, dst, tag);
        // Copy cost for the buffered snapshot of a large payload.
        if data.len() > self.cfg.eager_threshold() {
            let cost = self
                .proc
                .with(|ctx| ctx.world.params().copy_time(data.len()));
            self.charge(cost);
            if let Request::Send(s) = self.reqs.get_mut(req) {
                s.buffered = true;
            }
        }
        self.wait(req).await;
    }

    /// Ready-mode send (`MPI_Rsend`, paper §3.1): the caller asserts the
    /// matching receive is already posted, which makes the eager path
    /// unconditionally safe; semantically identical to [`MpiRank::send`]
    /// here (the assertion is the *application's* contract).
    pub async fn rsend(&mut self, data: &[u8], dst: Rank, tag: Tag) {
        self.send(data, dst, tag).await;
    }

    /// Blocking send (`MPI_Send`): returns when the buffer is reusable —
    /// immediately for eager transfers, after the zero-copy data movement
    /// for rendezvous (including credit-starved conversions).
    pub async fn send(&mut self, data: &[u8], dst: Rank, tag: Tag) {
        let req = self.isend(data, dst, tag);
        self.wait(req).await;
    }

    /// Non-blocking receive (`MPI_Irecv`) with optional source/tag
    /// wildcards. The payload is taken with [`MpiRank::wait_recv`].
    pub fn irecv(&mut self, src: Option<Rank>, tag: Option<Tag>) -> ReqId {
        self.irecv_ctx(src, tag, WORLD_CTX)
    }

    /// Blocking receive returning the status and payload.
    pub async fn recv(&mut self, src: Option<Rank>, tag: Option<Tag>) -> (Status, Bytes) {
        let req = self.irecv(src, tag);
        self.wait_recv(req).await
    }

    /// Blocking receive into an existing buffer; a rendezvous lands in
    /// lane 0 of its (source, size class), which the pin-down cache
    /// memoizes, so iterative applications pin once. Returns the status;
    /// panics if the message is larger than `buf`.
    ///
    /// The copy into `buf` is this call's contract: the payload arrives as
    /// [`Bytes`] (for a rendezvous, the allocation the WRITE placed), and
    /// a caller that wants it in a buffer of its own pays one copy. A
    /// caller that can read it where it landed uses [`MpiRank::recv`].
    pub async fn recv_into(
        &mut self,
        buf: &mut [u8],
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Status {
        let req = self.irecv_ctx(src, tag, WORLD_CTX);
        let (status, data) = self.wait_recv(req).await;
        assert!(
            data.len() <= buf.len(),
            "message ({}) larger than buffer ({})",
            data.len(),
            buf.len()
        );
        buf[..data.len()].copy_from_slice(&data);
        status
    }

    /// Typed send of a scalar slice.
    pub async fn send_scalars<T: Scalar>(&mut self, data: &[T], dst: Rank, tag: Tag) {
        let req = self.isend_scalars(data, dst, tag);
        self.wait(req).await;
    }

    /// Typed non-blocking send of a scalar slice, encoded into a `Vec` and
    /// sent borrowed: an eager send frames it directly, a rendezvous copies
    /// it once. A caller that encodes with [`crate::encode_shared`] and
    /// sends with [`MpiRank::isend_owned`] saves that copy.
    pub fn isend_scalars<T: Scalar>(&mut self, data: &[T], dst: Rank, tag: Tag) -> ReqId {
        let bytes = encode_slice(data);
        self.isend(&bytes, dst, tag)
    }

    /// Typed blocking receive into an existing slice (exact length). The
    /// decode reads the received [`Bytes`] where they landed and is the
    /// only pass over them.
    pub async fn recv_scalars_into<T: Scalar>(
        &mut self,
        out: &mut [T],
        src: Option<Rank>,
        tag: Option<Tag>,
    ) -> Status {
        let req = self.irecv_ctx(src, tag, WORLD_CTX);
        let (status, data) = self.wait_recv(req).await;
        decode_into(&data, out);
        status
    }

    /// Combined send+receive (`MPI_Sendrecv`), deadlock-free.
    pub async fn sendrecv(
        &mut self,
        data: &[u8],
        dst: Rank,
        send_tag: Tag,
        src: Option<Rank>,
        recv_tag: Option<Tag>,
    ) -> (Status, Bytes) {
        let rreq = self.irecv(src, recv_tag);
        let sreq = self.isend(data, dst, send_tag);
        self.wait(sreq).await;
        self.wait_recv(rreq).await
    }

    /// Is a matching message already here? Non-blocking probe.
    pub fn iprobe(&mut self, src: Option<Rank>, tag: Option<Tag>) -> Option<Status> {
        self.progress();
        self.unexpected.iter().find_map(|u| {
            let (usrc, utag, ucomm) = u.envelope();
            if ucomm != WORLD_CTX || !wildcard_match(src, usrc) || !wildcard_match(tag, utag) {
                return None;
            }
            let len = match u {
                Unexpected::Eager { data, .. } => data.len(),
                Unexpected::Rndz { data_len, .. } => *data_len,
            };
            Some(Status {
                source: usrc,
                tag: utag,
                len,
            })
        })
    }

    /// Blocks until `req` completes (`MPI_Wait`) and releases it. For
    /// receives this *discards* the payload — use [`MpiRank::wait_recv`]
    /// to take it.
    pub async fn wait(&mut self, req: ReqId) {
        self.wait_until(|m| m.reqs.get(req).is_done(), "MPI_Wait")
            .await;
        match self.reqs.get_mut(req) {
            Request::Send(s) if s.state == SendState::Done => {
                self.reqs.remove(req);
            }
            Request::Send(s) => {
                // Buffered operation whose transport is still in flight:
                // the progress engine frees the slot later.
                s.detached = true;
            }
            Request::Recv(_) => {
                // Completed receive waited on without `wait_recv`: the
                // request must still be released or finalize would see a
                // leaked slot.
                self.reqs.remove(req);
            }
        }
    }

    /// Blocks until all requests complete (`MPI_Waitall`).
    pub async fn waitall(&mut self, reqs: &[ReqId]) {
        for &r in reqs {
            // Re-polling completed requests is cheap; order is irrelevant.
            match self.reqs.get(r) {
                Request::Send(_) => self.wait(r).await,
                // Waitall discards receive payloads.
                Request::Recv(_) => {
                    let (_s, _d) = self.wait_recv(r).await;
                }
            }
        }
    }

    /// Blocks until the receive completes and returns `(status, payload)`.
    /// A rendezvous payload is the allocation the sender's RDMA WRITE
    /// placed, handed over by reference; an eager one is the bytes copied
    /// out of the eager buffer at match time.
    pub async fn wait_recv(&mut self, req: ReqId) -> (Status, Bytes) {
        let (status, data, _failed) = self.complete_recv(req).await;
        (status, data)
    }

    /// Like [`MpiRank::wait_recv`], but a receive completed by connection
    /// teardown surfaces as a typed [`crate::FabricFault`] instead of an
    /// empty payload. This is the fault-aware receive path: applications
    /// that opt into finite retry budgets use it to distinguish "peer sent
    /// nothing" from "the fabric gave up".
    pub async fn wait_recv_result(
        &mut self,
        req: ReqId,
    ) -> Result<(Status, Bytes), crate::fault::FabricFault> {
        let (status, data, failed) = self.complete_recv(req).await;
        if !failed {
            return Ok((status, data));
        }
        let peer = status.source;
        Err(self
            .stats
            .faults
            .iter()
            .find(|f| f.peer == peer)
            .copied()
            .unwrap_or(crate::fault::FabricFault {
                peer,
                opcode: ibfabric::CqeOpcode::RecvComplete,
                status: ibfabric::CqeStatus::WorkRequestFlushed,
            }))
    }

    /// Waits for the receive `req`, releases it and returns its status,
    /// payload and whether teardown failed it.
    async fn complete_recv(&mut self, req: ReqId) -> (Status, Bytes, bool) {
        // Park notes are static: this is the hottest park site in the
        // whole stack, so no diagnostic string is built per iteration. On
        // deadlock, `MpiWorld::run` reconstructs the fabric-level state
        // (posted recvs, queued sends, in-flight messages per connection)
        // from the torn-down world instead.
        self.wait_until(|m| m.reqs.get(req).is_done(), "MPI_Wait(recv)")
            .await;
        match self.reqs.remove(req) {
            Request::Recv(r) => {
                #[expect(
                    clippy::expect_used,
                    reason = "the wait above only returns once the request is Done, which sets both fields"
                )]
                let status = r.status.expect("done recv has status");
                #[expect(clippy::expect_used, reason = "same Done-state invariant as status")]
                let data = r.data.expect("done recv has data");
                (status, data, r.failed)
            }
            #[expect(
                clippy::panic,
                reason = "passing a send request to a receive wait is caller error with no meaningful recovery"
            )]
            Request::Send(_) => panic!("waiting for a receive on a send request"),
        }
    }

    // ------------------------------------------------------------------
    // Communicator-aware internals (used by Comm and collectives).
    // ------------------------------------------------------------------

    pub(crate) fn isend_ctx<'a>(
        &mut self,
        data: impl Into<Payload<'a>>,
        dst: Rank,
        tag: Tag,
        comm: CommCtx,
    ) -> ReqId {
        self.start_send(data.into(), dst, tag, comm, false)
    }

    /// Creates a send request and routes it through the flow control
    /// scheme; `force_rndz` selects the rendezvous protocol whatever the
    /// size (synchronous mode). Every send, borrowed or owned, enters here.
    fn start_send(
        &mut self,
        data: Payload<'_>,
        dst: Rank,
        tag: Tag,
        comm: CommCtx,
        force_rndz: bool,
    ) -> ReqId {
        assert!(dst < self.size, "rank {dst} out of range");
        assert_ne!(
            dst, self.rank,
            "self-sends are not supported at the transport level"
        );
        let req = self.reqs.insert(Request::Send(SendReq {
            dst,
            tag,
            comm,
            state: SendState::Done, // set properly by issue_send
            data: Arc::default(),
            was_backlogged: false,
            buffered: false,
            detached: false,
            failed: false,
        }));
        self.issue_send(req, data, force_rndz);
        req
    }

    pub(crate) fn irecv_ctx(
        &mut self,
        src: Option<Rank>,
        tag: Option<Tag>,
        comm: CommCtx,
    ) -> ReqId {
        let req = self.reqs.insert(Request::Recv(RecvReq {
            src,
            tag,
            comm,
            state: RecvState::Posted,
            data: None,
            status: None,
            staging: None,
            rndz_len: 0,
            failed: false,
        }));
        // Try the unexpected queue first (arrival order preserves the
        // per-source ordering MPI requires).
        if let Some(pos) = self.unexpected.iter().position(|u| {
            let (usrc, utag, ucomm) = u.envelope();
            ucomm == comm && wildcard_match(src, usrc) && wildcard_match(tag, utag)
        }) {
            #[expect(
                clippy::expect_used,
                reason = "`pos` came from `position` on the same queue with no mutation in between"
            )]
            let u = self.unexpected.remove(pos).expect("position valid");
            match u {
                Unexpected::Eager { src, tag, data, .. } => {
                    self.complete_eager_recv(req, src, tag, data)
                }
                Unexpected::Rndz {
                    src,
                    tag,
                    rndz_id,
                    data_len,
                    ..
                } => self.accept_rndz(req, src, tag, rndz_id, data_len),
            }
        } else if src.is_some_and(|p| self.conn_failed(p)) {
            // Bound to a dead connection and nothing already arrived:
            // nothing ever will. Complete as failed so the caller's wait
            // unblocks (wildcard receives stay posted — another peer may
            // still match them).
            self.reqs
                .recv_mut(req)
                .fail(src.unwrap_or(0), tag.unwrap_or(0));
        } else {
            self.posted_recvs.push(req);
        }
        req
    }

    /// Routes a send request through the active flow control scheme. An
    /// eager frame posted here copies `data` and the request keeps none of
    /// it; every other path outlives this call, so the request keeps
    /// `data` as the buffer the wire will carry.
    fn issue_send(&mut self, req: ReqId, data: Payload<'_>, force_rndz: bool) {
        let (dst, len) = (self.reqs.send_ref(req).dst, data.len());
        self.ensure_established(dst);
        if self.conn(dst).failed {
            self.reqs.fail_send(req);
            return;
        }
        let eager_ok = !force_rndz && len <= self.cfg.eager_threshold();
        if !self.cfg.scheme.is_user_level() {
            // No MPI-level accounting: post immediately; the HCA's
            // end-to-end flow control and RNR retries do the rest.
            if eager_ok {
                self.send_eager(req, &data);
            } else {
                self.reqs.send_mut(req).data = data.into_shared();
                self.start_rndz(req, false);
            }
            return;
        }
        // RDMA eager channel: small frames go through the ring while slots
        // last; a full ring converts the message to rendezvous exactly like
        // credit starvation does.
        let ring = self.cfg.scheme.uses_ring();
        if ring && eager_ok {
            let c = self.conn(dst);
            if c.backlog.is_empty() && c.ring.held > 0 {
                self.send_eager_ring(req, &data);
                return;
            }
            // A starved ring that may grow is the growth signal: count the
            // conversion, and once the count crosses the threshold the next
            // outgoing header carries the ring-backlog bit to the receiver.
            if self.cfg.ring_cap() > self.cfg.rdma_ring_slots && c.ring.held == 0 {
                let threshold = self.cfg.rdma_ring_growth_threshold;
                self.conn_mut(dst).note_ring_full_conversion(threshold);
            }
        }
        // Under the channel, eager-size frames never travel as slab sends:
        // a full ring converts to rendezvous. The *buffering* decision below
        // still follows the size — only the wire protocol changes.
        let eager_wire_ok = eager_ok && !ring;
        let c = self.conn(dst);
        let credit = c.backlog.is_empty() && c.credits.held > 0;
        if credit && eager_wire_ok {
            // The frame posted below spends the credit (`conn::spends_credit`).
            self.send_eager(req, &data);
            return;
        }
        self.reqs.send_mut(req).data = data.into_shared();
        if credit {
            // The start's frame spends the credit.
            if eager_ok {
                // Channel, ring full, buffer credit in hand: the transport
                // converts to rendezvous but the user-visible send stays
                // buffered-eager — three ranks all bursting sends before
                // their receives would otherwise deadlock on each other's
                // handshakes.
                let copy_cost = self
                    .proc
                    .with(|ctx| ctx.world.params().copy_time(crate::wire::HEADER_LEN + len));
                self.charge(copy_cost);
                if let Request::Send(s) = self.reqs.get_mut(req) {
                    s.buffered = true;
                }
            }
            self.start_rndz(req, false);
        } else {
            // No credits (or older sends already queued — MPI ordering): the
            // operation switches to the rendezvous protocol regardless of
            // size (paper §4.2: "when there are no credits, only Rendezvous
            // protocol is used") and joins the backlog. Eager-size payloads
            // are still copied into pre-pinned buffers at post time, so the
            // *user-visible* operation completes immediately (MPICH-lineage
            // eager semantics); only the transport pays the conversion.
            let buffered = eager_ok;
            if buffered {
                let copy_cost = self
                    .proc
                    .with(|ctx| ctx.world.params().copy_time(crate::wire::HEADER_LEN + len));
                self.charge(copy_cost);
            }
            if let Request::Send(s) = self.reqs.get_mut(req) {
                s.state = SendState::Backlogged;
                s.was_backlogged = true;
                s.buffered = buffered;
            }
            self.conn_mut(dst).backlog.push_back(req);
            self.conn_mut(dst).stats.backlogged.incr();
            self.drain_backlog_for(dst);
        }
    }

    /// Eager path: header + payload in one pre-pinned buffer send, framed
    /// from `payload` directly.
    fn send_eager(&mut self, req: ReqId, payload: &[u8]) {
        let (dst, tag, comm, flagged) = {
            let s = self.reqs.send_ref(req);
            (s.dst, s.tag, s.comm, s.was_backlogged)
        };
        let len = payload.len();
        let mut h = MsgHeader::new(MsgKind::Eager, self.rank);
        h.tag = tag;
        h.comm = comm;
        h.payload_len = len as u32;
        h.backlog_flag = flagged;
        let copy_cost = self
            .proc
            .with(|ctx| ctx.world.params().copy_time(crate::wire::HEADER_LEN + len));
        self.charge(copy_cost);
        self.post_frame(dst, h, payload, WrKind::CtrlSend);
        let c = self.conn_mut(dst);
        c.stats.eager_sent.incr();
        self.stats.eager_bytes.add(len as u64);
        self.reqs.send_mut(req).state = SendState::Done;
    }

    /// RDMA eager channel variant of the eager path: the frame is
    /// RDMA-written into the peer's ring instead of posted as a send.
    fn send_eager_ring(&mut self, req: ReqId, payload: &[u8]) {
        let (dst, tag, comm) = {
            let s = self.reqs.send_ref(req);
            (s.dst, s.tag, s.comm)
        };
        let len = payload.len();
        let mut h = MsgHeader::new(MsgKind::Eager, self.rank);
        h.tag = tag;
        h.comm = comm;
        h.payload_len = len as u32;
        self.post_ring_frame(dst, h, payload);
        self.stats.eager_bytes.add(len as u64);
        self.reqs.send_mut(req).state = SendState::Done;
    }

    /// Rendezvous start: pin the user buffer (cache-aware) and send the
    /// envelope. Carries the backlog feedback flag for the dynamic scheme.
    /// `optimistic` marks the credit-less start a starved connection is
    /// allowed to keep in flight.
    pub(crate) fn start_rndz(&mut self, req: ReqId, optimistic: bool) {
        let (dst, tag, comm, len, flagged) = {
            let s = self.reqs.send_ref(req);
            (s.dst, s.tag, s.comm, s.data.len(), s.was_backlogged)
        };
        if optimistic {
            debug_assert!(self.conn(dst).optimistic_req.is_none());
            self.conn_mut(dst).optimistic_req = Some(req);
        }
        // Pin-down cache: charge registration on a miss, keyed by the
        // per-(destination, size-class) send slot — the registered send
        // pools era MPIs kept. Iterative applications hit after the first
        // transfer of each shape; the key is derived purely from
        // simulation-visible identity, never a host address, so hit/miss
        // patterns (and virtual time) are reproducible run-to-run.
        let class_len = len.max(1).next_power_of_two();
        let slot_key = 0x4000_0000_0000 + (dst << 40) + class_len;
        let cost = {
            let regcache = &mut self.regcache;
            self.proc.with(|ctx| {
                let (_, c) = regcache.acquire(
                    ctx.world,
                    BufKey {
                        slot: slot_key,
                        len: class_len,
                    },
                    class_len,
                );
                c
            })
        };
        self.charge(cost);
        let mut h = MsgHeader::new(MsgKind::RndzStart, self.rank);
        h.tag = tag;
        h.comm = comm;
        h.rndz_id = req.0 as u64;
        h.data_len = len as u64;
        h.backlog_flag = flagged;
        h.no_credit = optimistic;
        self.post_frame(dst, h, &[], WrKind::CtrlSend);
        self.conn_mut(dst).stats.rndz_sent.incr();
        self.reqs.send_mut(req).state = SendState::StartSent;
    }

    /// Sends backlogged operations for one connection: normal protocol
    /// while credits allow, then at most one credit-less rendezvous start
    /// whose handshake will bring credits back (paper §4.2's reading of
    /// "when there are no credits, only Rendezvous protocol is used").
    pub(crate) fn drain_backlog_for(&mut self, peer: Rank) -> bool {
        let mut any = false;
        loop {
            let c = self.conn(peer);
            if c.backlog.is_empty() {
                break;
            }
            if c.credits.held > 0 {
                #[expect(
                    clippy::expect_used,
                    reason = "the loop head breaks on an empty backlog before reaching here"
                )]
                let req = self.conn_mut(peer).backlog.pop_front().expect("non-empty");
                // The protocol was decided at issue time: backlogged
                // operations are rendezvous, whatever their size. The
                // start's frame spends the credit.
                self.start_rndz(req, false);
                any = true;
            } else if self.cfg.credit_msg_mode != crate::config::CreditMsgMode::NaiveGated
                && c.optimistic_req.is_none()
            {
                // Zero credits: the paper's "when there are no credits,
                // only Rendezvous protocol is used" — one credit-less
                // start may fly; its handshake returns credits even when
                // the accumulated count at the receiver is still below
                // the explicit-credit threshold. This is the progress
                // guarantee; the deliberately broken NaiveGated mode
                // omits it (and gates credit messages) to demonstrate
                // the deadlock the optimistic design avoids.
                #[expect(
                    clippy::expect_used,
                    reason = "the loop head breaks on an empty backlog before reaching here"
                )]
                let req = self.conn_mut(peer).backlog.pop_front().expect("non-empty");
                self.start_rndz(req, true);
                any = true;
            } else {
                break;
            }
        }
        any
    }

    /// Matches a rendezvous start with a posted receive: pin the
    /// destination, claim a landing lane for it and send the reply
    /// carrying that lane's rkey. The lane is this receive's alone until
    /// it completes, so the bytes fin takes are the bytes this message's
    /// WRITE placed, however many receives from `src` are in flight.
    pub(crate) fn accept_rndz(
        &mut self,
        req: ReqId,
        src: Rank,
        tag: Tag,
        rndz_id: u64,
        data_len: usize,
    ) {
        if self.conn(src).failed {
            // The start arrived, but the connection died before the
            // reply could go out: the handshake can never finish.
            self.reqs.recv_mut(req).fail(src, tag);
            return;
        }
        // Pin-down cache, keyed by a per-(source, size-class) slot —
        // applications and collectives of this era reuse their receive
        // areas, so steady-state rendezvous must not pay registration
        // every time. Like the send side, the key is simulation-visible
        // identity only (never a host address), keeping virtual time
        // reproducible. One acquire per accept is the whole cost model;
        // which lane the bytes land in is below it.
        let class_len = data_len.max(1).next_power_of_two();
        let (lane0, cost) = {
            let key = BufKey {
                slot: 0x8000_0000_0000 + (src << 40) + class_len,
                len: class_len,
            };
            let regcache = &mut self.regcache;
            self.proc
                .with(|ctx| regcache.acquire(ctx.world, key, class_len))
        };
        self.charge(cost);
        let landing = self.claim_landing_lane(req, lane0, class_len);
        if let Request::Recv(r) = self.reqs.get_mut(req) {
            r.state = RecvState::RndzInFlight;
            r.staging = Some(landing);
            r.rndz_len = data_len;
            r.status = Some(Status {
                source: src,
                tag,
                len: data_len,
            });
        }
        let mut h = MsgHeader::new(MsgKind::RndzReply, self.rank);
        h.rndz_id = rndz_id;
        h.peer_req = req.0 as u64;
        h.rkey = landing.as_raw();
        h.remote_offset = 0;
        h.data_len = data_len as u64;
        self.post_frame(src, h, &[], WrKind::CtrlSend);
    }

    /// The landing region for the rendezvous `req` just accepted, held by
    /// no other receive in flight: `lane0` (the pin-down cache's region
    /// for its source and size class) unless an earlier receive's
    /// rendezvous is still landing there, else the first free extra lane
    /// of that size class, else a newly registered one. With at most one
    /// rendezvous in flight per (source, size class) this is `lane0` every
    /// time and registers nothing.
    fn claim_landing_lane(
        &mut self,
        req: ReqId,
        lane0: ibfabric::MrId,
        class_len: usize,
    ) -> ibfabric::MrId {
        if !self.reqs.holds_landing_region(lane0) {
            return lane0;
        }
        let reqs = &self.reqs;
        let free = self
            .landing_lanes
            .iter_mut()
            .find(|&&mut (class, mr, claimant)| {
                class == class_len && !reqs.still_lands_in(claimant, mr)
            });
        if let Some(lane) = free {
            lane.2 = req;
            let mr = lane.1;
            // An extra lane is judged free by its last claimant alone;
            // hold that shortcut to what the live receives say, in every
            // profile: two receives in one region is wrong bytes delivered.
            assert!(
                !self.reqs.holds_landing_region(mr),
                "rank {}: landing region {mr:?} claimed while another receive's rendezvous lands in it",
                self.rank
            );
            return mr;
        }
        let node = self.node;
        let mr = self
            .proc
            .with(|ctx| ctx.world.register(node, class_len, ibfabric::Access::FULL));
        self.landing_lanes.push((class_len, mr, req));
        mr
    }

    /// Suspends the rank until fabric activity can have changed our state.
    ///
    /// Ordering matters to avoid a lost wakeup: the waker is registered
    /// *before* the accumulated software cost is flushed (flushing lets
    /// virtual time pass, during which completions can land). Anything
    /// that arrived during the flush is drained by one more progress
    /// sweep; only a genuinely idle endpoint parks.
    pub(crate) async fn block_for_progress(&mut self, what: &'static str) {
        let w = self.proc.waker();
        let cq = self.cq;
        let node = self.node;
        self.proc.with(|ctx| {
            ctx.world.req_notify_cq(cq, w);
            ctx.world.watch_rdma(node, w);
        });
        self.flush_charge().await;
        if self.progress() {
            // State changed while time passed: let the caller re-check its
            // predicate instead of parking.
            return;
        }
        self.proc.park(what).await;
    }

    /// Spins progress until `pred` holds.
    pub(crate) async fn wait_until(&mut self, pred: impl Fn(&MpiRank) -> bool, what: &'static str) {
        loop {
            self.progress();
            if pred(self) {
                return;
            }
            self.block_for_progress(what).await;
        }
    }
}

/// A send's payload as the caller hands it in: borrowed bytes, copied
/// once if the send must outlive the call, or a buffer the caller gave up,
/// which the wire carries as it is.
pub(crate) enum Payload<'a> {
    Borrowed(&'a [u8]),
    Owned(Arc<[u8]>),
}

impl Payload<'_> {
    /// The buffer the wire carries: the owned one itself, or the one copy
    /// of borrowed bytes.
    fn into_shared(self) -> Arc<[u8]> {
        match self {
            Payload::Borrowed(bytes) => Arc::from(bytes),
            Payload::Owned(bytes) => bytes,
        }
    }
}

impl std::ops::Deref for Payload<'_> {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match self {
            Payload::Borrowed(bytes) => bytes,
            Payload::Owned(bytes) => bytes,
        }
    }
}

impl<'a> From<&'a [u8]> for Payload<'a> {
    fn from(bytes: &'a [u8]) -> Payload<'a> {
        Payload::Borrowed(bytes)
    }
}

impl From<Arc<[u8]>> for Payload<'_> {
    fn from(bytes: Arc<[u8]>) -> Self {
        Payload::Owned(bytes)
    }
}

pub(crate) fn wildcard_match<T: PartialEq>(want: Option<T>, got: T) -> bool {
    match want {
        None => true,
        Some(w) => w == got,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wildcard_semantics() {
        assert!(wildcard_match(None::<i32>, 5));
        assert!(wildcard_match(Some(5), 5));
        assert!(!wildcard_match(Some(4), 5));
    }
}
