//! Work requests and completions.

use crate::mem::MrId;
use crate::qp::QpId;
use std::sync::Arc;

/// The operation carried by a send-side work request.
#[derive(Clone, Debug)]
pub enum SendOp {
    /// Two-sided send (channel semantics): consumes a receive WQE and a
    /// flow control credit at the remote side.
    Send {
        /// Message payload. The poster's snapshot is *shared*, not
        /// re-taken: the send queue, the in-flight (go-back-N replay)
        /// entry and the delivery event all hold this one allocation, and
        /// nothing mutates it, so a retransmission replays the bytes
        /// captured at post time.
        payload: Arc<[u8]>,
    },
    /// One-sided RDMA WRITE (memory semantics): no receive WQE consumed,
    /// invisible to remote software until it looks at memory.
    RdmaWrite {
        /// Payload to place into remote memory.
        payload: Arc<[u8]>,
        /// Remote memory region (the "rkey").
        rkey: MrId,
        /// Byte offset within the remote region.
        remote_offset: usize,
    },
}

impl SendOp {
    /// Bytes this operation moves in the request direction.
    pub fn request_bytes(&self) -> usize {
        match self {
            SendOp::Send { payload } | SendOp::RdmaWrite { payload, .. } => payload.len(),
        }
    }

    /// True for two-sided sends (which consume remote receive WQEs and are
    /// therefore subject to end-to-end credits and RNR NAK).
    pub fn is_send(&self) -> bool {
        matches!(self, SendOp::Send { .. })
    }

    /// The opcode of the send-queue completion that retires this
    /// operation, whatever its status — success, an error, or a flush.
    pub(crate) fn completion_opcode(&self) -> CqeOpcode {
        match self {
            SendOp::Send { .. } => CqeOpcode::SendComplete,
            SendOp::RdmaWrite { .. } => CqeOpcode::RdmaWriteComplete,
        }
    }
}

/// A send-side work request.
#[derive(Clone, Debug)]
pub struct SendWr {
    /// Caller-chosen identifier returned in the matching [`Cqe`].
    pub wr_id: u64,
    /// The operation.
    pub op: SendOp,
    /// Whether a completion should be generated (unsignalled sends save
    /// CQ traffic; the MPI layer signals everything it must reclaim).
    pub signaled: bool,
}

impl SendWr {
    /// Convenience constructor: a signalled two-sided send of `payload`.
    pub fn inline_send(wr_id: u64, payload: Vec<u8>) -> SendWr {
        SendWr {
            wr_id,
            op: SendOp::Send {
                payload: payload.into(),
            },
            signaled: true,
        }
    }

    /// Convenience constructor: a signalled RDMA WRITE.
    pub fn rdma_write(wr_id: u64, payload: Vec<u8>, rkey: MrId, remote_offset: usize) -> SendWr {
        SendWr {
            wr_id,
            op: SendOp::RdmaWrite {
                payload: payload.into(),
                rkey,
                remote_offset,
            },
            signaled: true,
        }
    }
}

/// A receive-side work request: where to place the next incoming send.
#[derive(Clone, Copy, Debug)]
pub struct RecvWr {
    /// Caller-chosen identifier returned in the matching [`Cqe`].
    pub wr_id: u64,
    /// Destination region (must allow [`crate::Access::LOCAL_WRITE`]).
    pub mr: MrId,
    /// Byte offset within the region.
    pub offset: usize,
    /// Capacity in bytes; an arriving message longer than this completes
    /// with a length error.
    pub len: usize,
}

/// What kind of work a completion reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqeOpcode {
    /// A two-sided send was delivered and acknowledged.
    SendComplete,
    /// A message arrived into a posted receive WQE.
    RecvComplete,
    /// An RDMA WRITE was placed and acknowledged.
    RdmaWriteComplete,
}

/// Completion status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CqeStatus {
    /// Operation succeeded.
    Success,
    /// The RNR retry budget was exhausted (receiver never posted a buffer).
    RnrRetryExceeded,
    /// The transport retry budget (`retry_cnt`) was exhausted: the message
    /// was retransmitted after repeated ACK timeouts until the budget ran
    /// out (lost packets / dead link).
    TransportRetryExceeded,
    /// Arriving message was larger than the posted receive buffer.
    LocalLengthError,
    /// Remote access check failed (bad rkey, bounds, or permissions).
    RemoteAccessError,
    /// The work request was flushed because the QP entered the error state.
    WorkRequestFlushed,
}

impl CqeStatus {
    /// Numeric error code, following the `ibv_wc_status` encoding so logs
    /// read like real verbs diagnostics (`IBV_WC_SUCCESS` = 0,
    /// `IBV_WC_LOC_LEN_ERR` = 1, `IBV_WC_WR_FLUSH_ERR` = 5,
    /// `IBV_WC_REM_ACCESS_ERR` = 10, `IBV_WC_RETRY_EXC_ERR` = 12,
    /// `IBV_WC_RNR_RETRY_EXC_ERR` = 13).
    pub fn code(self) -> u32 {
        match self {
            CqeStatus::Success => 0,
            CqeStatus::LocalLengthError => 1,
            CqeStatus::WorkRequestFlushed => 5,
            CqeStatus::RemoteAccessError => 10,
            CqeStatus::TransportRetryExceeded => 12,
            CqeStatus::RnrRetryExceeded => 13,
        }
    }
}

impl std::fmt::Display for CqeStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            CqeStatus::Success => "success",
            CqeStatus::RnrRetryExceeded => "RNR retry exceeded",
            CqeStatus::TransportRetryExceeded => "transport retry exceeded",
            CqeStatus::LocalLengthError => "local length error",
            CqeStatus::RemoteAccessError => "remote access error",
            CqeStatus::WorkRequestFlushed => "work request flushed",
        };
        write!(f, "{s} (wc status {})", self.code())
    }
}

/// A completion queue entry.
#[derive(Clone, Copy, Debug)]
pub struct Cqe {
    /// Identifier from the originating work request.
    pub wr_id: u64,
    /// The QP the work belonged to.
    pub qp: QpId,
    /// What completed.
    pub opcode: CqeOpcode,
    /// Outcome.
    pub status: CqeStatus,
    /// Bytes moved (payload length for receives).
    pub byte_len: usize,
}

impl Cqe {
    /// True when the status is [`CqeStatus::Success`].
    pub fn is_success(&self) -> bool {
        self.status == CqeStatus::Success
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_bytes_by_op() {
        let send = SendWr::inline_send(1, vec![0; 100]);
        assert_eq!(send.op.request_bytes(), 100);
        assert!(send.op.is_send());

        let write = SendWr::rdma_write(2, vec![0; 5000], MrId(0), 0);
        assert_eq!(write.op.request_bytes(), 5000);
        assert!(!write.op.is_send());
    }

    #[test]
    fn status_codes_follow_ibv_wc_encoding() {
        assert_eq!(CqeStatus::Success.code(), 0);
        assert_eq!(CqeStatus::LocalLengthError.code(), 1);
        assert_eq!(CqeStatus::WorkRequestFlushed.code(), 5);
        assert_eq!(CqeStatus::RemoteAccessError.code(), 10);
        assert_eq!(CqeStatus::TransportRetryExceeded.code(), 12);
        assert_eq!(CqeStatus::RnrRetryExceeded.code(), 13);
    }

    #[test]
    fn status_display_names_the_error_and_code() {
        assert_eq!(CqeStatus::Success.to_string(), "success (wc status 0)");
        assert_eq!(
            CqeStatus::RemoteAccessError.to_string(),
            "remote access error (wc status 10)"
        );
        assert_eq!(
            CqeStatus::TransportRetryExceeded.to_string(),
            "transport retry exceeded (wc status 12)"
        );
    }
}
