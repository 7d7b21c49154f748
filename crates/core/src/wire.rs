//! The wire protocol: a fixed 64-byte header in front of every eager
//! payload or control message.
//!
//! The codec is *checked*: fields that do not fit their wire width
//! surface [`WireError::FieldOverflow`] instead of truncating, and
//! malformed bytes surface [`WireError::BadKind`] / [`WireError::ShortHeader`]
//! instead of panicking.

// Protocol state is narrowed with `try_from` (surfacing a typed overflow),
// never with a truncating `as`.
#![deny(clippy::cast_possible_truncation)]

use crate::buffers::{RING_MARKER, RING_MARKER_OFFSET};
use crate::types::{CommCtx, Rank, Tag};
use std::sync::Arc;

/// Serialized header length in bytes.
pub const HEADER_LEN: usize = 64;

/// Errors surfaced by the checked header codec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// A header field's value does not fit its wire width.
    FieldOverflow {
        /// Name of the offending header field.
        field: &'static str,
        /// The value that did not fit.
        value: u64,
        /// Largest value the wire format can carry for this field.
        max: u64,
    },
    /// The kind byte does not name any [`MsgKind`].
    BadKind(u8),
    /// Fewer than [`HEADER_LEN`] bytes were supplied to `decode`.
    ShortHeader {
        /// How many bytes were actually supplied.
        len: usize,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FieldOverflow { field, value, max } => {
                write!(f, "header field `{field}` = {value} exceeds wire max {max}")
            }
            WireError::BadKind(b) => write!(f, "unknown message kind byte {b:#04x}"),
            WireError::ShortHeader { len } => {
                write!(f, "short header: {len} bytes, need {HEADER_LEN}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Message kinds (paper Fig. 1 plus the explicit credit message).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MsgKind {
    /// Eager data: header + payload in one send.
    Eager,
    /// Rendezvous start: envelope + data length; payload stays at sender.
    RndzStart,
    /// Rendezvous reply: receiver's pinned destination (rkey + offset).
    RndzReply,
    /// Rendezvous finish: the RDMA WRITE before it carried the data.
    RndzFin,
    /// Explicit credit message (user-level schemes, asymmetric patterns).
    Credit,
}

impl MsgKind {
    fn to_u8(self) -> u8 {
        match self {
            MsgKind::Eager => 0,
            MsgKind::RndzStart => 1,
            MsgKind::RndzReply => 2,
            MsgKind::RndzFin => 3,
            MsgKind::Credit => 4,
        }
    }

    fn from_u8(v: u8) -> Option<MsgKind> {
        Some(match v {
            0 => MsgKind::Eager,
            1 => MsgKind::RndzStart,
            2 => MsgKind::RndzReply,
            3 => MsgKind::RndzFin,
            4 => MsgKind::Credit,
            _ => return None,
        })
    }
}

/// Reads a little-endian `u16` at `o` without slice-conversion unwraps.
fn u16_at(b: &[u8], o: usize) -> u16 {
    u16::from_le_bytes([b[o], b[o + 1]])
}

/// Reads a little-endian `u32` at `o`.
pub(crate) fn u32_at(b: &[u8], o: usize) -> u32 {
    u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]])
}

/// Reads a little-endian `u64` at `o`.
pub(crate) fn u64_at(b: &[u8], o: usize) -> u64 {
    u64::from_le_bytes([
        b[o],
        b[o + 1],
        b[o + 2],
        b[o + 3],
        b[o + 4],
        b[o + 5],
        b[o + 6],
        b[o + 7],
    ])
}

/// Every field the MPI layer needs to carry per message. Control-only
/// kinds leave the unused fields zero.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MsgHeader {
    /// What this message is.
    pub kind: MsgKind,
    /// Set when the sending operation waited in the backlog queue — the
    /// dynamic scheme's feedback bit (paper §4.3).
    pub backlog_flag: bool,
    /// Set on messages that did not spend a sender-side credit (optimistic
    /// rendezvous starts); the receiver must not credit their buffer back,
    /// or credits would inflate past the pool size.
    pub no_credit: bool,
    /// Set when the sender has accumulated ring-full conversions past the
    /// growth threshold — the RDMA channel's analogue of `backlog_flag`,
    /// asking the receiver to grow the eager ring.
    pub ring_backlog: bool,
    /// Sending rank.
    pub src_rank: Rank,
    /// Communicator context.
    pub comm: CommCtx,
    /// Piggybacked credit return: how many receive buffers the sender (of
    /// this header) has freed and reposted for the destination since its
    /// last update (paper §4.2).
    pub credits: u16,
    /// MPI tag.
    pub tag: Tag,
    /// Eager payload length following the header.
    pub payload_len: u32,
    /// Per-connection send sequence number (debug/ordering assertions).
    pub seq: u32,
    /// Sender-side request id for rendezvous handshakes.
    pub rndz_id: u64,
    /// Receiver-side request id echoed in replies/fins.
    pub peer_req: u64,
    /// RDMA destination region for `RndzReply` (the "rkey").
    pub rkey: u32,
    /// RDMA destination offset for `RndzReply`.
    pub remote_offset: u64,
    /// Full data length of the rendezvous message.
    pub data_len: u64,
    /// Piggybacked RDMA-eager-channel ring-slot returns (companion design
    /// \[13\]); zero unless the channel is enabled.
    pub ring_credits: u16,
}

impl MsgHeader {
    /// A zeroed header of the given kind from the given rank.
    pub fn new(kind: MsgKind, src_rank: Rank) -> Self {
        MsgHeader {
            kind,
            backlog_flag: false,
            no_credit: false,
            ring_backlog: false,
            src_rank,
            comm: 0,
            credits: 0,
            tag: 0,
            payload_len: 0,
            seq: 0,
            rndz_id: 0,
            peer_req: 0,
            rkey: 0,
            remote_offset: 0,
            data_len: 0,
            ring_credits: 0,
        }
    }

    /// Serializes into exactly [`HEADER_LEN`] bytes, or reports the first
    /// field whose value does not fit its wire width.
    pub fn try_encode(&self) -> Result<[u8; HEADER_LEN], WireError> {
        let src = u16::try_from(self.src_rank).map_err(|_| WireError::FieldOverflow {
            field: "src_rank",
            value: self.src_rank as u64,
            max: u64::from(u16::MAX),
        })?;
        let mut b = [0u8; HEADER_LEN];
        b[0] = self.kind.to_u8();
        b[1] = u8::from(self.backlog_flag)
            | u8::from(self.no_credit) << 1
            | u8::from(self.ring_backlog) << 2;
        b[2..4].copy_from_slice(&src.to_le_bytes());
        b[4..6].copy_from_slice(&self.comm.to_le_bytes());
        b[6..8].copy_from_slice(&self.credits.to_le_bytes());
        b[8..12].copy_from_slice(&self.tag.to_le_bytes());
        b[12..16].copy_from_slice(&self.payload_len.to_le_bytes());
        b[16..20].copy_from_slice(&self.seq.to_le_bytes());
        b[20..28].copy_from_slice(&self.rndz_id.to_le_bytes());
        b[28..36].copy_from_slice(&self.peer_req.to_le_bytes());
        b[36..40].copy_from_slice(&self.rkey.to_le_bytes());
        b[40..48].copy_from_slice(&self.remote_offset.to_le_bytes());
        b[48..56].copy_from_slice(&self.data_len.to_le_bytes());
        b[56..58].copy_from_slice(&self.ring_credits.to_le_bytes());
        // 58 is the ring-frame validity marker (set by the ring writer,
        // not part of the logical header); 59..64 reserved.
        Ok(b)
    }

    /// Parses a header from the front of `bytes`.
    pub fn decode(bytes: &[u8]) -> Result<MsgHeader, WireError> {
        if bytes.len() < HEADER_LEN {
            return Err(WireError::ShortHeader { len: bytes.len() });
        }
        Ok(MsgHeader {
            kind: MsgKind::from_u8(bytes[0]).ok_or(WireError::BadKind(bytes[0]))?,
            backlog_flag: bytes[1] & 1 != 0,
            no_credit: bytes[1] & 2 != 0,
            ring_backlog: bytes[1] & 4 != 0,
            src_rank: Rank::from(u16_at(bytes, 2)),
            comm: u16_at(bytes, 4),
            credits: u16_at(bytes, 6),
            tag: i32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
            payload_len: u32_at(bytes, 12),
            seq: u32_at(bytes, 16),
            rndz_id: u64_at(bytes, 20),
            peer_req: u64_at(bytes, 28),
            rkey: u32_at(bytes, 36),
            remote_offset: u64_at(bytes, 40),
            data_len: u64_at(bytes, 48),
            ring_credits: u16_at(bytes, 56),
        })
    }

    /// Builds the full wire message: header followed by `payload`, as the
    /// shared buffer a work request carries.
    pub fn frame(&self, payload: &[u8]) -> Result<Arc<[u8]>, WireError> {
        self.framed(payload, 0)
    }

    /// [`MsgHeader::frame`] for the RDMA eager channel: the frame carries
    /// the validity marker the ring poller checks.
    pub(crate) fn ring_frame(&self, payload: &[u8]) -> Result<Arc<[u8]>, WireError> {
        self.framed(payload, RING_MARKER)
    }

    /// Header (with `marker` in its reserved marker byte) and payload in
    /// one allocation; a `Vec` turned into an `Arc` would allocate and
    /// copy twice.
    fn framed(&self, payload: &[u8], marker: u8) -> Result<Arc<[u8]>, WireError> {
        debug_assert_eq!(u64::from(self.payload_len), payload.len() as u64);
        let mut head = self.try_encode()?;
        head[RING_MARKER_OFFSET] = marker;
        let mut out: Arc<[u8]> = std::iter::repeat_n(0, HEADER_LEN + payload.len()).collect();
        // Freshly built, so unique: `make_mut` hands out the buffer in place.
        let buf = Arc::make_mut(&mut out);
        buf[..HEADER_LEN].copy_from_slice(&head);
        buf[HEADER_LEN..].copy_from_slice(payload);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MsgHeader {
        MsgHeader {
            kind: MsgKind::RndzReply,
            backlog_flag: true,
            no_credit: true,
            ring_backlog: true,
            src_rank: 7,
            comm: 3,
            credits: 12,
            tag: -42,
            payload_len: 100,
            seq: 9999,
            rndz_id: 0xDEAD_BEEF_0123,
            peer_req: 0xFEED_FACE,
            rkey: 77,
            remote_offset: 1 << 33,
            data_len: (1 << 22) + 5,
            ring_credits: 9,
        }
    }

    #[test]
    fn roundtrip_all_fields() {
        let h = sample();
        let bytes = h.try_encode().unwrap();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(MsgHeader::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn roundtrip_every_kind() {
        for kind in [
            MsgKind::Eager,
            MsgKind::RndzStart,
            MsgKind::RndzReply,
            MsgKind::RndzFin,
            MsgKind::Credit,
        ] {
            let h = MsgHeader::new(kind, 3);
            assert_eq!(
                MsgHeader::decode(&h.try_encode().unwrap()).unwrap().kind,
                kind
            );
        }
    }

    #[test]
    fn negative_tags_roundtrip() {
        let mut h = MsgHeader::new(MsgKind::Eager, 0);
        h.tag = i32::MIN;
        assert_eq!(
            MsgHeader::decode(&h.try_encode().unwrap()).unwrap().tag,
            i32::MIN
        );
    }

    #[test]
    fn frame_concatenates() {
        let mut h = MsgHeader::new(MsgKind::Eager, 1);
        h.payload_len = 3;
        let framed = h.frame(&[9, 8, 7]).unwrap();
        assert_eq!(framed.len(), HEADER_LEN + 3);
        assert_eq!(&framed[HEADER_LEN..], &[9, 8, 7]);
        let parsed = MsgHeader::decode(&framed).unwrap();
        assert_eq!(parsed.payload_len, 3);
    }

    #[test]
    fn short_decode_is_an_error() {
        assert_eq!(
            MsgHeader::decode(&[0u8; 10]),
            Err(WireError::ShortHeader { len: 10 })
        );
    }

    #[test]
    fn bad_kind_is_an_error() {
        let mut bytes = sample().try_encode().unwrap();
        bytes[0] = 0xEE;
        assert_eq!(MsgHeader::decode(&bytes), Err(WireError::BadKind(0xEE)));
    }

    #[test]
    fn oversized_rank_is_an_error() {
        let mut h = MsgHeader::new(MsgKind::Eager, 0);
        h.src_rank = usize::from(u16::MAX) + 1;
        assert_eq!(
            h.try_encode(),
            Err(WireError::FieldOverflow {
                field: "src_rank",
                value: u64::from(u16::MAX) + 1,
                max: u64::from(u16::MAX),
            })
        );
    }

    #[test]
    fn max_rank_roundtrips() {
        let h = MsgHeader::new(MsgKind::Eager, usize::from(u16::MAX));
        let back = MsgHeader::decode(&h.try_encode().unwrap()).unwrap();
        assert_eq!(back.src_rank, usize::from(u16::MAX));
    }

    #[test]
    fn decode_ignores_reserved_bytes() {
        let h = sample();
        let mut bytes = h.try_encode().unwrap();
        bytes[58..64].copy_from_slice(&[0xFF; 6]);
        assert_eq!(MsgHeader::decode(&bytes).unwrap(), h);
    }

    #[test]
    fn wire_error_display() {
        let e = WireError::FieldOverflow {
            field: "src_rank",
            value: 70000,
            max: 65535,
        };
        assert!(e.to_string().contains("src_rank"));
        assert!(WireError::BadKind(9).to_string().contains("0x09"));
        assert!(WireError::ShortHeader { len: 3 }.to_string().contains("3"));
    }
}

/// One deliberate violation per enforced clippy lint that has no audited
/// production site. Each sits under an `#[expect]`:
/// once the lint stops firing on the shape it exists for — its
/// `clippy.toml` entry dropped, the lint renamed or narrowed by a new
/// clippy — the expectation goes unfulfilled, which `-D warnings` turns
/// into a failure of the `lint` stage. An expectation is fulfilled at any
/// surrounding level, so that the lints are *denied* here is held
/// separately, by `tests/lint_levels.rs` (DESIGN.md §8).
#[cfg(test)]
mod lint_canary {
    use super::MsgKind;

    #[test]
    fn moved_lints_still_bite() {
        #[expect(
            clippy::disallowed_types,
            reason = "canary: clippy.toml still lists the hash-ordered containers"
        )]
        let unordered = std::collections::HashMap::<u8, u8>::new();
        assert!(unordered.is_empty());

        let wide: u32 = 0x1_0002;
        #[expect(
            clippy::cast_possible_truncation,
            reason = "canary: the lint this file's header denies still fires on a narrowing `as`"
        )]
        let narrow = wide as u16;
        assert_eq!(narrow, 2);

        #[expect(
            clippy::wildcard_enum_match_arm,
            reason = "canary: the lint lib.rs denies still fires on a `_` arm over a protocol enum"
        )]
        let code = match MsgKind::Credit {
            MsgKind::Eager => 0,
            _ => 1,
        };
        assert_eq!(code, 1);
    }
}
