//! Queue pair state: RC sender and receiver state machines (data side).

// Protocol state is narrowed with `try_from` (surfacing a typed overflow),
// never with a truncating `as`.
#![deny(clippy::cast_possible_truncation)]

use crate::cq::CqId;
use crate::fabric::NodeId;
use crate::mem::MrId;
use crate::stats::QpStats;
use crate::wr::{RecvWr, SendOp};
use ibsim::SimTime;
use std::collections::VecDeque;

/// Handle to a queue pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QpId(pub(crate) u32);

impl QpId {
    /// Dense index (for diagnostics).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs an id from a raw index. Only for unit tests of code that
    /// stores `QpId`s; the id is not valid against any fabric.
    #[doc(hidden)]
    pub fn from_index_for_tests(i: u32) -> QpId {
        QpId(i)
    }
}

/// Queue pair lifecycle state (condensed from the verbs state machine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QpState {
    /// Created, not yet connected.
    Reset,
    /// Connected and able to send/receive.
    ReadyToSend,
    /// A fatal completion occurred; outstanding work flushes with errors.
    Error,
}

/// Creation-time attributes of a queue pair.
#[derive(Clone, Copy, Debug)]
pub struct QpAttrs {
    /// RNR retry budget per message; `None` means retry forever (the
    /// paper's hardware-based scheme sets "retry count to infinite" so the
    /// MPI layer never sees a drop).
    pub rnr_retry: Option<u32>,
    /// Transport (ACK-timeout) retry budget per message — the IB-spec
    /// `retry_cnt`, distinct from `rnr_retry`: it bounds retransmissions
    /// after *lost* messages rather than receiver-not-ready NAKs. `None`
    /// means retry forever. The timeout path only engages under an active
    /// [`crate::FaultPlan`]; a perfect fabric never times out.
    pub retry_cnt: Option<u32>,
}

impl Default for QpAttrs {
    fn default() -> Self {
        // 7 is the verbs encoding for "infinite"; we default to finite
        // but generous budgets and let callers opt into infinity
        // (retry_cnt 7 is the largest finite value the verbs field holds).
        QpAttrs {
            rnr_retry: Some(16),
            retry_cnt: Some(7),
        }
    }
}

/// A send work request queued on a QP, with its retry bookkeeping.
#[derive(Debug)]
pub(crate) struct SendWqe {
    pub wr_id: u64,
    pub op: SendOp,
    pub signaled: bool,
    pub rnr_budget: Option<u32>,
    /// Remaining transport (ACK-timeout) retries; `None` retries forever.
    pub retry_budget: Option<u32>,
    /// How many times this message has been (re)transmitted.
    pub attempts: u32,
}

/// A launched, not-yet-acknowledged message.
#[derive(Debug)]
pub(crate) struct InflightMsg {
    pub msn: u64,
    pub wqe: SendWqe,
}

/// One side of a reliable connection.
#[derive(Debug)]
pub struct Qp {
    pub(crate) id: QpId,
    pub(crate) node: NodeId,
    pub(crate) peer: Option<QpId>,
    pub(crate) send_cq: CqId,
    pub(crate) recv_cq: CqId,
    pub(crate) state: QpState,
    pub(crate) attrs: QpAttrs,
    /// Regions its creator attached ([`crate::Fabric::set_qp_context`]).
    pub(crate) context: Box<[MrId]>,

    // ---- requester (sender) side ----
    /// Posted but not yet launched send work.
    pub(crate) sq: VecDeque<SendWqe>,
    /// Launched, awaiting acknowledgement (ordered by MSN).
    pub(crate) inflight: VecDeque<InflightMsg>,
    /// Next message sequence number to assign.
    pub(crate) next_msn: u64,
    /// Credits the peer advertised, minus our optimistic decrements.
    pub(crate) adv_credits: u32,
    /// Send-type messages in flight (they consume peer receive WQEs).
    pub(crate) unacked_sends: u32,
    /// RNR backoff horizon; no launches before this instant.
    pub(crate) backoff_until: Option<SimTime>,
    /// Whether a pump event is already scheduled for the backoff horizon.
    pub(crate) pump_scheduled: bool,
    /// Whether an ACK-timeout timer event is in flight (only ever armed
    /// while a fault plan is active; see `transport::arm_retry_timer`).
    pub(crate) retry_armed: bool,
    /// Instant at which the oldest unacknowledged message times out.
    pub(crate) retry_deadline: SimTime,
    /// Consecutive ACK timeouts without forward progress (drives the
    /// exponential retransmission backoff).
    pub(crate) timeout_streak: u32,

    // ---- responder (receiver) side ----
    /// Posted receive WQEs, consumed in FIFO order.
    pub(crate) rq: VecDeque<RecvWr>,
    /// Next message sequence number expected from the peer.
    pub(crate) expected_msn: u64,

    /// Peak depth of the software send queue (scalability diagnostics).
    pub(crate) peak_sq_depth: usize,
    /// Peak number of posted receive WQEs.
    pub(crate) peak_rq_depth: usize,

    /// Per-QP statistics.
    pub stats: QpStats,
}

impl Qp {
    pub(crate) fn new(
        id: QpId,
        node: NodeId,
        send_cq: CqId,
        recv_cq: CqId,
        attrs: QpAttrs,
    ) -> Self {
        Qp {
            id,
            node,
            peer: None,
            send_cq,
            recv_cq,
            state: QpState::Reset,
            attrs,
            context: Box::default(),
            sq: VecDeque::new(),
            inflight: VecDeque::new(),
            next_msn: 0,
            adv_credits: 0,
            unacked_sends: 0,
            backoff_until: None,
            pump_scheduled: false,
            retry_armed: false,
            retry_deadline: SimTime::ZERO,
            timeout_streak: 0,
            rq: VecDeque::new(),
            expected_msn: 0,
            peak_sq_depth: 0,
            peak_rq_depth: 0,
            stats: QpStats::default(),
        }
    }

    /// This QP's handle.
    pub fn id(&self) -> QpId {
        self.id
    }

    /// Owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The connected peer, if any.
    pub fn peer(&self) -> Option<QpId> {
        self.peer
    }

    /// Lifecycle state.
    pub fn state(&self) -> QpState {
        self.state
    }

    /// The regions its creator attached with
    /// [`crate::Fabric::set_qp_context`] (none until then).
    pub fn context(&self) -> &[MrId] {
        &self.context
    }

    /// Number of receive WQEs currently posted (the quantity advertised to
    /// the peer as end-to-end credits).
    pub fn posted_recvs(&self) -> usize {
        self.rq.len()
    }

    /// Messages launched and awaiting acknowledgement.
    pub fn inflight_msgs(&self) -> usize {
        self.inflight.len()
    }

    /// Send work posted but not yet launched.
    pub fn queued_sends(&self) -> usize {
        self.sq.len()
    }

    /// Peak software send-queue depth observed.
    pub fn peak_sq_depth(&self) -> usize {
        self.peak_sq_depth
    }

    /// Peak posted-receive depth observed.
    pub fn peak_rq_depth(&self) -> usize {
        self.peak_rq_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_qp_is_reset_and_empty() {
        let qp = Qp::new(QpId(3), NodeId(1), CqId(0), CqId(0), QpAttrs::default());
        assert_eq!(qp.id(), QpId(3));
        assert_eq!(qp.state(), QpState::Reset);
        assert_eq!(qp.posted_recvs(), 0);
        assert_eq!(qp.inflight_msgs(), 0);
        assert_eq!(qp.queued_sends(), 0);
        assert!(qp.peer().is_none());
    }

    #[test]
    fn default_attrs_are_finite_retry() {
        assert_eq!(QpAttrs::default().rnr_retry, Some(16));
        assert_eq!(QpAttrs::default().retry_cnt, Some(7));
    }
}
