//! Work-request id encoding and the receive work requests of a
//! connection's buffer slab.

use crate::types::Rank;
use ibfabric::{MrId, RecvWr};

/// Byte offset (within a ring frame) of the validity marker the RDMA
/// eager channel's poller checks; sits in the header's reserved region.
pub(crate) const RING_MARKER_OFFSET: usize = 58;

/// The marker value a freshly written ring frame carries; the poller
/// clears it after consuming the slot.
pub(crate) const RING_MARKER: u8 = 0xAB;

/// What a completed work request was (encoded in the wr_id's top byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum WrKind {
    /// A pre-posted receive buffer; value = the sending peer and the
    /// slot index ([`recv_slot_of`]).
    RecvSlot,
    /// An eager/control send; value = destination rank.
    CtrlSend,
    /// The RDMA write of a rendezvous; value = send request id.
    RndzWrite,
    /// An explicit credit message; value = destination rank.
    Ecm,
    /// An RDMA credit-mailbox update; value = destination rank.
    CreditRdma,
    /// An RDMA eager-channel ring frame; value = destination rank.
    RingWrite,
}

pub(crate) fn encode_wrid(kind: WrKind, value: u64) -> u64 {
    debug_assert!(value < (1u64 << 56));
    let k = match kind {
        WrKind::RecvSlot => 1u64,
        WrKind::CtrlSend => 2,
        WrKind::RndzWrite => 3,
        WrKind::Ecm => 4,
        WrKind::CreditRdma => 5,
        WrKind::RingWrite => 6,
    };
    (k << 56) | value
}

pub(crate) fn decode_wrid(wr_id: u64) -> (WrKind, u64) {
    #[expect(
        clippy::panic,
        reason = "wr_ids only come from encode_wrid; a corrupt kind tag is a simulator bug"
    )]
    let kind = match wr_id >> 56 {
        1 => WrKind::RecvSlot,
        2 => WrKind::CtrlSend,
        3 => WrKind::RndzWrite,
        4 => WrKind::Ecm,
        5 => WrKind::CreditRdma,
        6 => WrKind::RingWrite,
        other => panic!("corrupt wr_id kind {other}"),
    };
    (kind, wr_id & ((1u64 << 56) - 1))
}

/// The receive work request for slot `slot` of a slab of `slot_size`-byte
/// slots in region `mr`, into which `peer` sends: the one shape every
/// receive `mpib` posts takes. Its wr_id names the peer, as every send's
/// names its destination, so a completion says whose connection it
/// belongs to. A connection posts its slots in order — `0..prepost` at
/// establishment, the next ones as its pool grows — and reposts a
/// consumed slot as itself, so the slots it has posted are
/// `0..prepost_target` and the next free one is `prepost_target`.
pub(crate) fn slot_recv_wr(mr: MrId, slot_size: usize, peer: Rank, slot: u32) -> RecvWr {
    RecvWr {
        wr_id: encode_wrid(WrKind::RecvSlot, (peer as u64) << 32 | u64::from(slot)),
        mr,
        offset: slot as usize * slot_size,
        len: slot_size,
    }
}

/// The peer and slot a [`WrKind::RecvSlot`] wr_id value names (inverse of
/// [`slot_recv_wr`]).
pub(crate) fn recv_slot_of(value: u64) -> (Rank, u32) {
    ((value >> 32) as Rank, value as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wrid_roundtrip() {
        for (kind, value) in [
            (WrKind::RecvSlot, 0u64),
            (WrKind::CtrlSend, 7),
            (WrKind::RndzWrite, 123_456),
            (WrKind::Ecm, 3),
            (WrKind::CreditRdma, (1 << 56) - 1),
            (WrKind::RingWrite, 2),
        ] {
            let (k, v) = decode_wrid(encode_wrid(kind, value));
            assert_eq!(k, kind);
            assert_eq!(v, value);
        }
    }

    #[test]
    #[should_panic(expected = "corrupt")]
    fn bad_wrid_panics() {
        let _ = decode_wrid(0);
    }

    #[test]
    fn slab_slots() {
        let wr = slot_recv_wr(MrId::from_index_for_tests(0), 2048, 65_534, 3);
        assert_eq!((wr.offset, wr.len), (3 * 2048, 2048));
        let (kind, value) = decode_wrid(wr.wr_id);
        assert_eq!((kind, recv_slot_of(value)), (WrKind::RecvSlot, (65_534, 3)));
    }
}
