//! The Reliable Connection transport state machine.
//!
//! Message-granular go-back-N with packet-accurate timing:
//!
//! * a **pump** launches queued send WQEs subject to the in-flight window
//!   and end-to-end credits (send-type messages only; a sender with zero
//!   advertised credits may keep exactly one *probe* in flight);
//! * a **delivery** event fires when the last packet of a message reaches
//!   the destination HCA; the responder consumes a receive WQE (or answers
//!   **RNR NAK**), charges receiver-side DMA/processing time, then places
//!   data and acknowledges;
//! * **ACKs** are cumulative and advertise the responder's current free
//!   receive-WQE count (IBA end-to-end flow control);
//! * an **RNR NAK** rolls the requester back go-back-N style: every
//!   unacknowledged message at or after the NAKed sequence number returns
//!   to the send queue and is retransmitted after the RNR timer, burning
//!   one unit of the message's retry budget per NAK (a budget of `None`
//!   retries forever, as the paper's hardware-based scheme configures);
//! * under an active [`crate::FaultPlan`], lost messages are recovered by
//!   an **ACK timeout**: the requester arms a timer for its oldest
//!   unacknowledged message, rolls back go-back-N when it expires
//!   (doubling the timeout per consecutive expiry), burns one unit of the
//!   IB-spec `retry_cnt` budget per timeout, and fails the QP with
//!   [`CqeStatus::TransportRetryExceeded`] on exhaustion. Retransmissions
//!   that race a delayed ACK arrive as duplicates and are suppressed at
//!   the responder (re-ACK only — no receive WQE is re-consumed, so
//!   end-to-end credit accounting stays conserved).

use crate::fabric::{Fabric, NodeId};
use crate::fault::Fate;
use crate::mem::Access;
use crate::params::FabricParams;
use crate::qp::{InflightMsg, Qp, QpId, QpState, SendWqe};
use crate::wr::{Cqe, CqeOpcode, CqeStatus, SendOp};
use ibsim::{Ctx, SimDuration, SimTime};

/// Pushes a completion and wakes any CQ waiters. The drained waiter list
/// goes back to the CQ so the next `req_notify_cq` reuses its capacity.
pub(crate) fn push_cqe(ctx: &mut Ctx<'_, Fabric>, cq: crate::cq::CqId, cqe: Cqe) {
    ctx.world.stats.cqes.incr();
    let mut waiters = ctx.world.cqs[cq.index()].push(cqe);
    ctx.wake_all(&mut waiters);
    ctx.world.cqs[cq.index()].recycle_waiters(waiters);
}

/// Launch-eligibility decision for the head of a QP's send queue.
enum PumpDecision {
    Idle,
    WaitBackoff(SimTime),
    Launch,
}

/// Drives a QP's transmit engine: launches as many queued messages as the
/// in-flight window and credit state allow.
pub(crate) fn pump(ctx: &mut Ctx<'_, Fabric>, qp_id: QpId) {
    loop {
        let now = ctx.now();
        let decision = {
            let max_inflight = ctx.world.params.max_inflight_msgs;
            let q = &mut ctx.world.qps[qp_id.index()];
            if q.state != QpState::ReadyToSend {
                PumpDecision::Idle
            } else if let Some(b) = q.backoff_until {
                if now < b {
                    PumpDecision::WaitBackoff(b)
                } else {
                    q.backoff_until = None;
                    continue;
                }
            } else if q.inflight.len() >= max_inflight {
                PumpDecision::Idle // an ACK will re-pump
            } else {
                match q.sq.front() {
                    None => PumpDecision::Idle,
                    Some(head) => {
                        if head.op.is_send() {
                            if q.adv_credits > 0 {
                                q.adv_credits -= 1;
                                PumpDecision::Launch
                            } else if q.unacked_sends == 0 {
                                // Zero-credit probe: IBA permits sending
                                // without credits; the responder answers
                                // RNR NAK if it truly has no buffer.
                                q.stats.zero_credit_probes.incr();
                                PumpDecision::Launch
                            } else {
                                PumpDecision::Idle // wait for a credit update
                            }
                        } else {
                            PumpDecision::Launch // RDMA bypasses credits
                        }
                    }
                }
            }
        };
        match decision {
            PumpDecision::Idle => return,
            PumpDecision::WaitBackoff(b) => {
                let q = &mut ctx.world.qps[qp_id.index()];
                if !q.pump_scheduled {
                    q.pump_scheduled = true;
                    ctx.schedule_at(b, move |c| {
                        c.world.qps[qp_id.index()].pump_scheduled = false;
                        pump(c, qp_id);
                    });
                }
                return;
            }
            PumpDecision::Launch => launch(ctx, qp_id),
        }
    }
}

/// Transmits `bytes` from `src` to `dst`: charges the per-WQE processing
/// cost, segments into MTU packets, occupies the source DMA/link and the
/// destination egress port, and returns `(first, last)` packet arrival
/// instants at the destination HCA.
fn transmit(
    ctx: &mut Ctx<'_, Fabric>,
    src: NodeId,
    dst: NodeId,
    bytes: usize,
) -> (SimTime, SimTime) {
    let now = ctx.now();
    let w = &mut *ctx.world;
    let params = &w.params;
    let mtu = params.mtu;

    // The per-WQE processing cost *occupies* the transmit engine: it is
    // what bounds the small-message rate of the era's HCAs (~300k msg/s).
    let mut cursor = now.max(w.nodes[src.index()].tx_busy_until) + params.wqe_tx_proc;
    let mut first = SimTime::MAX;
    let mut last = SimTime::ZERO;
    // A packet's wire time and its spacing behind the previous packet are
    // divisions by a rate. Every packet but the last carries a full MTU,
    // so a message needs them for two sizes, not once per packet.
    let npkts = params.packets_for(bytes);
    let times = |pkt: usize| {
        let serialize = params.serialize_time(pkt);
        (serialize, serialize.max(params.dma_time(pkt)))
    };
    let tail = times(bytes - (npkts - 1) * mtu);
    let full = if npkts > 1 { times(mtu) } else { tail };
    for i in 1..=npkts {
        // Each packet leaves the source host one spacing after the
        // previous one, then crosses the switch to the egress port.
        let (serialize, spacing) = if i < npkts { full } else { tail };
        cursor += spacing;
        let arrival = w
            .net
            .route_packet(params, dst, cursor + params.pkt_tx_overhead, serialize);
        first = first.min(arrival);
        last = last.max(arrival);
    }
    w.nodes[src.index()].tx_busy_until = cursor;
    (first, last)
}

/// Takes the head WQE of the send queue, assigns it the next MSN, and puts
/// its bytes on the wire.
fn launch(ctx: &mut Ctx<'_, Fabric>, qp_id: QpId) {
    let (msn, body, bytes, dst_qp, src_node, dst_node) = {
        let q = &mut ctx.world.qps[qp_id.index()];
        #[expect(
            clippy::expect_used,
            reason = "pump() only calls launch when the send-queue head exists"
        )]
        let mut wqe = q.sq.pop_front().expect("pump checked head exists");
        wqe.attempts += 1;
        let retransmit = wqe.attempts > 1;
        let msn = q.next_msn;
        q.next_msn += 1;
        let bytes = wqe.op.request_bytes();
        if wqe.op.is_send() {
            q.unacked_sends += 1;
            q.stats.sends_launched.incr();
        } else {
            q.stats.rdma_writes.incr();
        }
        let body = wqe.op.clone();
        q.stats.bytes_launched.add(bytes as u64);
        if retransmit {
            q.stats.retransmissions.incr();
        }
        #[expect(
            clippy::expect_used,
            reason = "the QP state machine only enters ReadyToSend through connect(), which sets the peer"
        )]
        let dst_qp = q.peer.expect("ReadyToSend implies connected");
        let src_node = q.node;
        q.inflight.push_back(InflightMsg { msn, wqe });
        q.stats.peak_inflight.observe(q.inflight.len() as u64);
        if retransmit {
            ctx.world.stats.retransmissions.incr();
        }
        let dst_node = ctx.world.qps[dst_qp.index()].node;
        (msn, body, bytes, dst_qp, src_node, dst_node)
    };
    let (first, last) = transmit(ctx, src_node, dst_node, bytes);
    let npkts = ctx.world.params.packets_for(bytes);
    match ctx.world.fault_fate(ctx.now(), src_node, dst_node, npkts) {
        Fate::Deliver => {
            ctx.schedule_at(last, move |c| deliver(c, dst_qp, msn, body, first));
        }
        // The wire time is spent but the message never arrives; the ACK
        // timeout below recovers it.
        Fate::Drop => {}
    }
    if ctx.world.fault_active() {
        // The recovery window tracks the *oldest* unacknowledged message:
        // (re)base it when this launch is the only one in flight.
        let timeout = {
            let q = &ctx.world.qps[qp_id.index()];
            (q.inflight.len() == 1).then(|| retry_timeout(&ctx.world.params, q.timeout_streak))
        };
        if let Some(t) = timeout {
            ctx.world.qps[qp_id.index()].retry_deadline = last + t;
        }
        arm_retry_timer(ctx, qp_id);
    }
}

/// ACK-timeout span after `streak` consecutive unproductive timeouts:
/// exponential backoff, capped at 64× the base timeout.
fn retry_timeout(params: &FabricParams, streak: u32) -> SimDuration {
    SimDuration::nanos(params.ack_timeout.as_nanos() << streak.min(6))
}

/// Schedules the ACK-timeout timer for `qp_id`'s oldest in-flight message
/// if faults are active and no timer is already in flight.
fn arm_retry_timer(ctx: &mut Ctx<'_, Fabric>, qp_id: QpId) {
    if !ctx.world.fault_active() {
        return;
    }
    let deadline = {
        let q = &mut ctx.world.qps[qp_id.index()];
        if q.retry_armed || q.state != QpState::ReadyToSend || q.inflight.is_empty() {
            return;
        }
        q.retry_armed = true;
        q.retry_deadline
    };
    let at = deadline.max(ctx.now());
    ctx.schedule_at(at, move |c| retry_timer_fired(c, qp_id));
}

/// The ACK-timeout timer fired: either the deadline truly passed (handle
/// the timeout) or ACK progress pushed it out (chase the new horizon).
fn retry_timer_fired(ctx: &mut Ctx<'_, Fabric>, qp_id: QpId) {
    let now = ctx.now();
    let expired = {
        let q = &mut ctx.world.qps[qp_id.index()];
        q.retry_armed = false;
        if q.state != QpState::ReadyToSend || q.inflight.is_empty() {
            return;
        }
        now >= q.retry_deadline
    };
    if expired {
        handle_ack_timeout(ctx, qp_id);
    } else {
        arm_retry_timer(ctx, qp_id);
    }
}

/// The oldest unacknowledged message timed out: go-back-N rollback,
/// transport (`retry_cnt`) budget accounting, and immediate retransmission
/// — the backoff lives in the relaunch deadline, which doubles with each
/// consecutive timeout.
fn handle_ack_timeout(ctx: &mut Ctx<'_, Fabric>, qp_id: QpId) {
    ctx.world.stats.ack_timeouts.incr();
    let exhausted = {
        let q = &mut ctx.world.qps[qp_id.index()];
        q.stats.ack_timeouts.incr();
        q.timeout_streak += 1;
        let Some(oldest) = q.inflight.front().map(|m| m.msn) else {
            return;
        };
        go_back_n(q, oldest, |w| &mut w.retry_budget)
    };
    if exhausted {
        fail_head(ctx, qp_id, CqeStatus::TransportRetryExceeded);
        return;
    }
    pump(ctx, qp_id);
}

/// Go-back-N rollback, shared by the ACK-timeout and RNR NAK paths: every
/// in-flight message at or after `from` returns to the send queue (oldest
/// at the head) and the MSN clock rewinds to `from`. Then one unit of the
/// head's `budget` is burned; returns whether it was already exhausted
/// (a budget of `None` retries forever).
fn go_back_n(q: &mut Qp, from: u64, budget: fn(&mut SendWqe) -> &mut Option<u32>) -> bool {
    while q.inflight.back().is_some_and(|m| m.msn >= from) {
        let Some(m) = q.inflight.pop_back() else {
            break;
        };
        if m.wqe.op.is_send() {
            q.unacked_sends -= 1;
        }
        q.sq.push_front(m.wqe);
    }
    q.next_msn = from;
    match q.sq.front_mut().and_then(|w| budget(w).as_mut()) {
        Some(b) if *b == 0 => true,
        Some(b) => {
            *b -= 1;
            false
        }
        None => false,
    }
}

/// A retry budget ran out: the head WQE completes with `status` and the
/// QP fails, flushing the rest.
fn fail_head(ctx: &mut Ctx<'_, Fabric>, qp_id: QpId, status: CqeStatus) {
    let (send_cq, cqe) = {
        let q = &mut ctx.world.qps[qp_id.index()];
        #[expect(
            clippy::expect_used,
            reason = "a budget is only found exhausted on an existing queue head"
        )]
        let wqe = q.sq.pop_front().expect("head exists");
        (
            q.send_cq,
            Cqe {
                wr_id: wqe.wr_id,
                qp: qp_id,
                opcode: wqe.op.completion_opcode(),
                status,
                byte_len: 0,
            },
        )
    };
    push_cqe(ctx, send_cq, cqe);
    fail_qp(ctx, qp_id);
}

/// Schedules `handle_ack` at the requester after the control-channel
/// delay. The advertised credit count is sampled when the ACK *fires*,
/// not when the delivery completed — mirroring how delayed/coalesced
/// hardware ACKs pick up receive WQEs the consumer reposted in the
/// interim.
fn send_ack(ctx: &mut Ctx<'_, Fabric>, responder: QpId, requester: QpId, msn: u64) {
    let delay = ctx.world.params.ack_latency + ctx.world.fault_ack_delay();
    ctx.schedule_after(delay, move |c| {
        let credits = c.world.qps[responder.index()].rq.len() as u32;
        handle_ack(c, requester, msn, credits);
    });
}

/// The last packet of message `msn` has arrived at `dst_qp`'s HCA.
fn deliver(
    ctx: &mut Ctx<'_, Fabric>,
    dst_qp: QpId,
    msn: u64,
    body: SendOp,
    first_arrival: SimTime,
) {
    let now = ctx.now();
    let (src_qp, expected, state, dst_node) = {
        let q = &ctx.world.qps[dst_qp.index()];
        (q.peer, q.expected_msn, q.state, q.node)
    };
    if state == QpState::Error {
        return;
    }
    let src_qp = match src_qp {
        Some(p) => p,
        None => return,
    };
    if msn != expected {
        if msn < expected {
            // Duplicate of an already-processed message (a go-back-N
            // retransmission raced the original's ACK). Never re-consume
            // a receive WQE or re-place data — credit accounting depends
            // on exactly-once consumption. Re-acknowledge instead.
            ctx.world.stats.dup_suppressed.incr();
            send_ack(ctx, dst_qp, src_qp, msn);
        }
        // msn > expected: a message after a go-back-N point; drop silently,
        // the requester retransmits the whole tail.
        return;
    }

    match body {
        SendOp::Send { payload } => {
            let has_buffer = !ctx.world.qps[dst_qp.index()].rq.is_empty();
            if !has_buffer {
                // Receiver not ready.
                {
                    let q = &mut ctx.world.qps[dst_qp.index()];
                    q.stats.rnr_naks_sent.incr();
                }
                ctx.world.stats.rnr_naks.incr();
                let delay = ctx.world.params.ack_latency + ctx.world.fault_ack_delay();
                ctx.schedule_after(delay, move |c| handle_rnr_nak(c, src_qp, msn));
                return;
            }
            #[expect(
                clippy::expect_used,
                reason = "the RNR branch above already handled the empty receive queue"
            )]
            let (rwqe, recv_cq) = {
                let q = &mut ctx.world.qps[dst_qp.index()];
                (q.rq.pop_front().expect("checked non-empty"), q.recv_cq)
            };
            if rwqe.len < payload.len() {
                // Message too long for the posted buffer: local error at
                // the responder; the requester still sees an ACK (we keep
                // the requester-side QP alive; the MPI layer sizes its
                // buffers so this only happens on misuse).
                ctx.world.qps[dst_qp.index()].expected_msn += 1;
                push_cqe(
                    ctx,
                    recv_cq,
                    Cqe {
                        wr_id: rwqe.wr_id,
                        qp: dst_qp,
                        opcode: CqeOpcode::RecvComplete,
                        status: CqeStatus::LocalLengthError,
                        byte_len: payload.len(),
                    },
                );
                send_ack(ctx, dst_qp, src_qp, msn);
                return;
            }
            ctx.world.qps[dst_qp.index()].expected_msn += 1;
            ctx.world.stats.msgs_delivered.incr();
            ctx.world.stats.bytes_delivered.add(payload.len() as u64);
            let rx_done = charge_rx_kind(ctx, dst_node, first_arrival, now, payload.len(), false);
            ctx.schedule_at(rx_done, move |c| {
                let len = payload.len();
                c.world.mrs[rwqe.mr.index()].place(rwqe.offset, &payload);
                let recv_cq = c.world.qps[dst_qp.index()].recv_cq;
                push_cqe(
                    c,
                    recv_cq,
                    Cqe {
                        wr_id: rwqe.wr_id,
                        qp: dst_qp,
                        opcode: CqeOpcode::RecvComplete,
                        status: CqeStatus::Success,
                        byte_len: len,
                    },
                );
                send_ack(c, dst_qp, src_qp, msn);
            });
        }
        SendOp::RdmaWrite {
            payload,
            rkey,
            remote_offset,
        } => {
            // The rkey names whatever MR the *requester* targeted when it
            // posted the WRITE. Upper layers that re-point a peer at a new
            // region mid-stream (e.g. the MPI ring-growth protocol swaps
            // ring MRs between generations) rely on two properties here:
            // WRITEs on one QP land strictly in post order, so everything
            // posted before the switch targets the old MR and lands before
            // anything posted after it; and a retransmitted WRITE replays
            // against the rkey captured at post time while the msn check
            // above suppresses the duplicate — a duplicate never lands in
            // a region registered after the original was sent.
            let valid = ctx.world.mrs.get(rkey.index()).is_some_and(|mr| {
                mr.node == dst_node
                    && mr.access.allows(Access::REMOTE_WRITE)
                    && mr.check_range(remote_offset, payload.len())
            });
            ctx.world.qps[dst_qp.index()].expected_msn += 1;
            if !valid {
                let delay = ctx.world.params.ack_latency;
                ctx.schedule_after(delay, move |c| remote_access_error(c, src_qp, msn));
                return;
            }
            ctx.world.stats.msgs_delivered.incr();
            ctx.world.stats.bytes_delivered.add(payload.len() as u64);
            let rx_done = charge_rx_kind(ctx, dst_node, first_arrival, now, payload.len(), true);
            ctx.schedule_at(rx_done, move |c| {
                c.world.mrs[rkey.index()].place(remote_offset, &payload);
                c.world.nodes[dst_node.index()].rdma_delivered += 1;
                // The drained list goes back so the next `watch_rdma`
                // reuses its capacity.
                let mut watchers =
                    std::mem::take(&mut c.world.nodes[dst_node.index()].rdma_watchers);
                c.wake_all(&mut watchers);
                c.world.nodes[dst_node.index()].rdma_watchers = watchers;
                send_ack(c, dst_qp, src_qp, msn);
            });
        }
    }
}

/// Charges receiver-side DMA and processing for an arriving message and
/// returns the instant software may observe it. One-sided RDMA arrivals
/// (`rdma`) skip the receive WQE and completion machinery.
fn charge_rx_kind(
    ctx: &mut Ctx<'_, Fabric>,
    node: NodeId,
    first_arrival: SimTime,
    now: SimTime,
    bytes: usize,
    rdma: bool,
) -> SimTime {
    let w = &mut *ctx.world;
    let dma = w.params.dma_time(bytes);
    let n = &mut w.nodes[node.index()];
    // The receive DMA may start once the first packet is in and the
    // engine is free; per-message processing then occupies the engine —
    // the receive-side counterpart of the transmit WQE cost. Software
    // sees the completion a short interrupt latency after the data is
    // placed, independent of the engine finishing its bookkeeping.
    let dma_start = n.rx_busy_until.max(first_arrival);
    let dma_done = (dma_start + dma).max(now);
    let proc = if rdma {
        w.params.rdma_rx_proc
    } else {
        w.params.rx_proc
    };
    n.rx_busy_until = dma_done + proc;
    if rdma {
        // One-sided data is visible the instant the DMA lands: a polling
        // consumer needs no completion entry — the latency edge of
        // RDMA-based message passing.
        dma_done
    } else {
        dma_done + w.params.cqe_latency
    }
}

/// Cumulative acknowledgement for all messages up to `msn`.
fn handle_ack(ctx: &mut Ctx<'_, Fabric>, qp_id: QpId, msn: u64, credits: u32) {
    let now = ctx.now();
    let ack_timeout = ctx.world.params.ack_timeout;
    {
        let q = &mut ctx.world.qps[qp_id.index()];
        if q.state == QpState::Error {
            return;
        }
        q.stats.acks_received.incr();
    }
    // Each completion is pushed as its WQE retires: pushing a CQE reads
    // no QP state, so interleaving it with the pops changes nothing.
    let mut retired = false;
    loop {
        let q = &mut ctx.world.qps[qp_id.index()];
        if q.inflight.front().is_none_or(|front| front.msn > msn) {
            break;
        }
        let Some(m) = q.inflight.pop_front() else {
            break;
        };
        retired = true;
        if m.wqe.op.is_send() {
            q.unacked_sends -= 1;
        }
        if m.wqe.signaled {
            let send_cq = q.send_cq;
            push_cqe(
                ctx,
                send_cq,
                Cqe {
                    wr_id: m.wqe.wr_id,
                    qp: qp_id,
                    opcode: m.wqe.op.completion_opcode(),
                    status: CqeStatus::Success,
                    byte_len: m.wqe.op.request_bytes(),
                },
            );
        }
    }
    let q = &mut ctx.world.qps[qp_id.index()];
    q.adv_credits = credits.saturating_sub(q.unacked_sends);
    if retired {
        // Forward progress: the loss-recovery window restarts for the
        // new oldest unacknowledged message (the in-flight timer event
        // notices the pushed-out deadline and re-arms).
        q.timeout_streak = 0;
        if !q.inflight.is_empty() {
            q.retry_deadline = now + ack_timeout;
        }
    }
    pump(ctx, qp_id);
}

/// Receiver-not-ready NAK for message `msn`: go-back-N rollback, retry
/// budget accounting, and backoff until the RNR timer expires.
fn handle_rnr_nak(ctx: &mut Ctx<'_, Fabric>, qp_id: QpId, msn: u64) {
    let now = ctx.now();
    let rnr_timer = ctx.world.params.rnr_timer;
    let exhausted = {
        let q = &mut ctx.world.qps[qp_id.index()];
        if q.state == QpState::Error {
            return;
        }
        q.stats.rnr_naks_received.incr();
        q.adv_credits = 0;
        go_back_n(q, msn, |w| &mut w.rnr_budget)
    };
    if exhausted {
        fail_head(ctx, qp_id, CqeStatus::RnrRetryExceeded);
        return;
    }
    ctx.world.qps[qp_id.index()].backoff_until = Some(now + rnr_timer);
    pump(ctx, qp_id); // schedules the retry at the backoff horizon
}

/// Remote access failure (bad rkey / bounds / permission): complete the
/// offending WQE with an error and move the QP to the error state.
fn remote_access_error(ctx: &mut Ctx<'_, Fabric>, qp_id: QpId, msn: u64) {
    let completion = {
        let q = &mut ctx.world.qps[qp_id.index()];
        if q.state == QpState::Error {
            return;
        }
        let pos = q.inflight.iter().position(|m| m.msn == msn);
        pos.map(|i| {
            #[expect(
                clippy::expect_used,
                reason = "`i` came from `position` on the same queue with no mutation in between"
            )]
            let m = q.inflight.remove(i).expect("position valid");
            if m.wqe.op.is_send() {
                q.unacked_sends -= 1;
            }
            (
                q.send_cq,
                Cqe {
                    wr_id: m.wqe.wr_id,
                    qp: qp_id,
                    opcode: m.wqe.op.completion_opcode(),
                    status: CqeStatus::RemoteAccessError,
                    byte_len: 0,
                },
            )
        })
    };
    if let Some((cq, cqe)) = completion {
        push_cqe(ctx, cq, cqe);
    }
    fail_qp(ctx, qp_id);
}

/// Moves a QP to the error state, flushes all outstanding work, and tears
/// down the peer end of the connection (after the control-channel delay)
/// so the remote side observes flushed receives instead of waiting forever
/// on a dead QP.
fn fail_qp(ctx: &mut Ctx<'_, Fabric>, qp_id: QpId) {
    let mut flushed: Vec<(crate::cq::CqId, Cqe)> = Vec::new();
    let peer = {
        let q = &mut ctx.world.qps[qp_id.index()];
        if q.state == QpState::Error {
            return; // already failed (a peer teardown raced a local error)
        }
        q.state = QpState::Error;
        q.backoff_until = None;
        // In-flight work first (it is older), then the send queue.
        for w in q.inflight.drain(..).map(|m| m.wqe).chain(q.sq.drain(..)) {
            flushed.push((
                q.send_cq,
                Cqe {
                    wr_id: w.wr_id,
                    qp: qp_id,
                    opcode: w.op.completion_opcode(),
                    status: CqeStatus::WorkRequestFlushed,
                    byte_len: 0,
                },
            ));
        }
        for r in q.rq.drain(..) {
            flushed.push((
                q.recv_cq,
                Cqe {
                    wr_id: r.wr_id,
                    qp: qp_id,
                    opcode: CqeOpcode::RecvComplete,
                    status: CqeStatus::WorkRequestFlushed,
                    byte_len: 0,
                },
            ));
        }
        q.unacked_sends = 0;
        q.peer
    };
    for (cq, cqe) in flushed {
        push_cqe(ctx, cq, cqe);
    }
    if let Some(p) = peer {
        if ctx.world.qps[p.index()].state != QpState::Error {
            let delay = ctx.world.params.ack_latency;
            ctx.schedule_after(delay, move |c| fail_qp(c, p));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibsim::{Sim, SimConfig};
    use std::cell::RefCell;
    use std::rc::Rc;
    use testutil::prop::{check, shrink, Case, Gen};

    /// The two-pass `transmit` this module shipped until the passes were
    /// fused: all departures into a `Vec` first, then every packet through
    /// the switch. Kept as the reference the fused loop is checked against.
    fn transmit_two_pass(
        ctx: &mut Ctx<'_, Fabric>,
        src: NodeId,
        dst: NodeId,
        bytes: usize,
    ) -> (SimTime, SimTime) {
        let now = ctx.now();
        let w = &mut *ctx.world;
        let params = &w.params;
        let mtu = params.mtu;
        let npkts = params.packets_for(bytes);

        let mut cursor = now.max(w.nodes[src.index()].tx_busy_until) + params.wqe_tx_proc;
        let mut departures = Vec::with_capacity(npkts);
        let mut remaining = bytes;
        for _ in 0..npkts {
            let pkt = remaining.min(mtu);
            remaining -= pkt;
            let spacing = params.serialize_time(pkt).max(params.dma_time(pkt));
            cursor += spacing;
            departures.push((cursor + params.pkt_tx_overhead, pkt));
        }
        w.nodes[src.index()].tx_busy_until = cursor;

        let mut first = SimTime::MAX;
        let mut last = SimTime::ZERO;
        for (tx_done, pkt) in departures {
            let arrival = w
                .net
                .route_packet(&w.params, dst, tx_done, w.params.serialize_time(pkt));
            first = first.min(arrival);
            last = last.max(arrival);
        }
        (first, last)
    }

    /// Messages from node 0 to nodes 1 and 2 against pre-loaded transmit
    /// and egress horizons.
    #[derive(Clone, Debug)]
    struct TransmitCase {
        /// `tx_busy_until` of node 0, egress horizons of nodes 1 and 2 (ns).
        horizons: [u64; 3],
        /// `(gap to the previous message in ns, bytes, to node 2?)`; a zero
        /// gap is a back-to-back post in the same instant.
        msgs: Vec<(u64, usize, bool)>,
    }

    fn edge_or_random_size(g: &mut Gen) -> usize {
        const MTU: usize = 2048;
        const EDGES: [usize; 12] = [
            0,
            1,
            MTU - 1,
            MTU,
            MTU + 1,
            2 * MTU - 1,
            2 * MTU,
            2 * MTU + 1,
            32 << 10,
            (256 << 10) + 1,
            4 << 20,
            (4 << 20) + 1,
        ];
        if g.bool() {
            EDGES[g.index(EDGES.len())]
        } else {
            g.usize_in(0..100_000)
        }
    }

    impl Case for TransmitCase {
        fn generate(g: &mut Gen) -> Self {
            TransmitCase {
                horizons: [
                    g.u64_in(0..200_000),
                    g.u64_in(0..200_000),
                    g.u64_in(0..200_000),
                ],
                msgs: g.vec(1..9, |g| {
                    let gap = if g.bool() { 0 } else { g.u64_in(0..100_000) };
                    (gap, edge_or_random_size(g), g.bool())
                }),
            }
        }

        fn shrink(&self) -> Vec<Self> {
            shrink::vec_candidates(&self.msgs, 1, |&(gap, bytes, far)| {
                let mut out: Vec<_> = shrink::u64_toward(gap, 0)
                    .into_iter()
                    .map(|gap| (gap, bytes, far))
                    .collect();
                out.extend(
                    shrink::usize_toward(bytes, 0)
                        .into_iter()
                        .map(|bytes| (gap, bytes, far)),
                );
                out
            })
            .into_iter()
            .map(|msgs| TransmitCase {
                msgs,
                ..self.clone()
            })
            .collect()
        }
    }

    type Transmit = fn(&mut Ctx<'_, Fabric>, NodeId, NodeId, usize) -> (SimTime, SimTime);

    /// Runs the case through `f` and returns, per message, `(first, last)`,
    /// node 0's `tx_busy_until` and both egress horizons right after it.
    fn trace(case: &TransmitCase, f: Transmit) -> Vec<[SimTime; 5]> {
        let mut fabric = Fabric::new(FabricParams::mt23108());
        assert_eq!(fabric.params.mtu, 2048, "edge sizes assume this MTU");
        let nodes = [fabric.add_node(), fabric.add_node(), fabric.add_node()];
        fabric.nodes[0].tx_busy_until = SimTime::from_nanos(case.horizons[0]);
        fabric.net.restore_egress(vec![
            SimTime::ZERO,
            SimTime::from_nanos(case.horizons[1]),
            SimTime::from_nanos(case.horizons[2]),
        ]);
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new(fabric, SimConfig::default());
        sim.with_world(|ctx| {
            let mut at = 0;
            for &(gap, bytes, far) in &case.msgs {
                at += gap;
                let dst = nodes[1 + usize::from(far)];
                let log = Rc::clone(&log);
                ctx.schedule_at(SimTime::from_nanos(at), move |c| {
                    let (first, last) = f(c, nodes[0], dst, bytes);
                    let egress = c.world.net.egress_horizons();
                    log.borrow_mut().push([
                        first,
                        last,
                        c.world.nodes[0].tx_busy_until,
                        egress[1],
                        egress[2],
                    ]);
                });
            }
        });
        sim.run().expect("events only: nothing can deadlock");
        drop(sim);
        Rc::try_unwrap(log).expect("sim dropped").into_inner()
    }

    #[test]
    fn fused_transmit_matches_the_two_pass_reference() {
        check("transport::fused_transmit", 64, |c: &TransmitCase| {
            let fused = trace(c, transmit);
            assert_eq!(fused.len(), c.msgs.len());
            assert_eq!(fused, trace(c, transmit_two_pass));
        });
    }
}
