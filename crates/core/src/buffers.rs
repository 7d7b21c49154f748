//! Work-request id encoding and the per-connection receive buffer slab.

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
    /// A pre-posted receive buffer; value = slot index.
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
/// slots in region `mr`: the one shape every receive `mpib` posts takes.
pub(crate) fn slot_recv_wr(mr: MrId, slot_size: usize, slot: u32) -> RecvWr {
    RecvWr {
        wr_id: encode_wrid(WrKind::RecvSlot, u64::from(slot)),
        mr,
        offset: slot as usize * slot_size,
        len: slot_size,
    }
}

/// The pre-pinned receive buffer slab for one connection: `slot_count`
/// fixed-size slots inside one registered region. Slots are posted as
/// receive WQEs and reposted after the progress engine copies them out.
#[derive(Debug)]
pub(crate) struct RecvSlab {
    pub mr: MrId,
    pub slot_size: usize,
    pub slot_count: u32,
    /// Slots currently *not* posted.
    free: Vec<u32>,
}

impl RecvSlab {
    pub fn new(mr: MrId, slot_size: usize, slot_count: u32) -> Self {
        RecvSlab {
            mr,
            slot_size,
            slot_count,
            free: (0..slot_count).rev().collect(),
        }
    }

    pub fn byte_offset(&self, slot: u32) -> usize {
        debug_assert!(slot < self.slot_count);
        slot as usize * self.slot_size
    }

    /// Takes a free slot for posting.
    pub fn take_free(&mut self) -> Option<u32> {
        self.free.pop()
    }

    /// The free-slot stack, bottom to top (checkpoint encode).
    pub fn free_slots(&self) -> &[u32] {
        &self.free
    }

    /// Restores the free-slot stack captured by [`RecvSlab::free_slots`].
    /// Order matters: `take_free` pops, so the stack order decides which
    /// slot the next post uses — part of byte-identical resume.
    pub fn restore_free(&mut self, free: Vec<u32>) {
        debug_assert!(free.iter().all(|&s| s < self.slot_count));
        self.free = free;
    }
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
        let mut slab = RecvSlab::new(MrId::from_index_for_tests(0), 2048, 4);
        assert_eq!(slab.free_slots().len(), 4);
        assert_eq!(slab.take_free(), Some(0), "slots hand out in order");
        assert_eq!(slab.free_slots().len(), 3);
        assert_eq!(slab.byte_offset(3), 3 * 2048);
    }
}
