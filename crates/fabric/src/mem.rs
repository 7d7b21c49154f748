//! Registered memory regions with access-flag and bounds checking.

use crate::fabric::NodeId;

/// Handle to a registered memory region.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MrId(pub(crate) u32);

impl MrId {
    /// Dense index (for diagnostics).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw rkey value as carried on the wire in connection handshakes
    /// and rendezvous replies.
    pub fn as_raw(self) -> u32 {
        self.0
    }

    /// Reconstructs a region handle from a wire rkey. The value must have
    /// come from [`MrId::as_raw`]; access checks still apply at use.
    pub fn from_raw(raw: u32) -> MrId {
        MrId(raw)
    }

    /// Constructs an id from a raw index. Only for unit tests of code that
    /// stores `MrId`s; the id is not valid against any fabric.
    #[doc(hidden)]
    pub fn from_index_for_tests(i: u32) -> MrId {
        MrId(i)
    }
}

/// Access flags of a memory region, mirroring the verbs access bits the
/// paper's MPI implementation needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Access(u8);

impl Access {
    /// Local read access only (always granted).
    pub const LOCAL_READ: Access = Access(0);
    /// The HCA may write received data into this region.
    pub const LOCAL_WRITE: Access = Access(1);
    /// Remote peers may RDMA-write into this region.
    pub const REMOTE_WRITE: Access = Access(2);
    /// Remote peers may RDMA-read from this region.
    pub const REMOTE_READ: Access = Access(4);
    /// Everything: local write + remote read/write.
    pub const FULL: Access = Access(7);

    /// Combines two flag sets.
    pub fn union(self, other: Access) -> Access {
        Access(self.0 | other.0)
    }

    /// True if every bit in `needed` is present.
    pub fn allows(self, needed: Access) -> bool {
        self.0 & needed.0 == needed.0
    }

    /// The raw flag bits (checkpoint encode).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds flags from bits captured by [`Access::bits`]. The decoder
    /// validates the range before calling this.
    pub(crate) fn from_bits(bits: u8) -> Access {
        Access(bits)
    }
}

impl std::ops::BitOr for Access {
    type Output = Access;
    fn bitor(self, rhs: Access) -> Access {
        self.union(rhs)
    }
}

/// A registered ("pinned") memory region owned by one node.
///
/// The region is `len` bytes long to every bounds check, but the host only
/// holds the **materialised prefix**: `bytes.len() <= len`, and every byte
/// at or past `bytes.len()` is zero and has never been allocated. Writes
/// grow the prefix to their own end; reads never grow it. Nothing is
/// reserved up front, so a region costs what the protocol has touched, not
/// what it registered (DESIGN.md §9, "Registered vs resident memory").
#[derive(Debug)]
pub struct Mr {
    pub(crate) node: NodeId,
    pub(crate) access: Access,
    len: usize,
    bytes: Vec<u8>,
}

impl Mr {
    /// A region of `len` registered bytes, none of them materialised.
    pub(crate) fn new(node: NodeId, access: Access, len: usize) -> Mr {
        Mr {
            node,
            access,
            len,
            bytes: Vec::new(),
        }
    }

    /// Owning node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Registered length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the region was registered with zero length.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Access flags granted at registration.
    pub fn access(&self) -> Access {
        self.access
    }

    pub(crate) fn check_range(&self, offset: usize, len: usize) -> bool {
        offset.checked_add(len).is_some_and(|end| end <= self.len)
    }

    /// End of `offset..offset + len`, which must lie inside the registered
    /// length: the one bounds check every read and write goes through.
    fn end_of(&self, offset: usize, len: usize) -> usize {
        assert!(
            self.check_range(offset, len),
            "memory region access at {offset}, {len} bytes, outside the {} registered",
            self.len
        );
        offset + len
    }

    /// The materialised prefix.
    pub(crate) fn resident(&self) -> &[u8] {
        &self.bytes
    }

    /// Materialises the whole region and returns it.
    pub(crate) fn materialise_all(&mut self) -> &mut [u8] {
        self.bytes.resize(self.len, 0);
        &mut self.bytes
    }

    /// Stores `data` at `offset`, growing the prefix to the write's end if
    /// it lies beyond. Only a gap between the prefix and `offset` is
    /// zero-filled; the bytes `data` covers are appended, not zeroed first.
    /// A zero-length write materialises nothing.
    pub(crate) fn write(&mut self, offset: usize, data: &[u8]) {
        self.end_of(offset, data.len());
        let have = self.bytes.len();
        // What falls on materialised bytes overwrites them; the rest
        // extends the prefix.
        let (over, append) = data.split_at(have.saturating_sub(offset).min(data.len()));
        self.bytes[offset.min(have)..][..over.len()].copy_from_slice(over);
        if !append.is_empty() {
            if offset > have {
                self.bytes.resize(offset, 0);
            }
            self.bytes.extend_from_slice(append);
        }
    }

    /// The materialised part of `offset..offset + len`; whatever it is
    /// short of `len` lies past the prefix and reads as zero.
    fn resident_part(&self, offset: usize, len: usize) -> &[u8] {
        let end = self.end_of(offset, len);
        let have = self.bytes.len();
        &self.bytes[offset.min(have)..end.min(have)]
    }

    /// Copies `out.len()` bytes at `offset` into `out`.
    pub(crate) fn read_into(&self, offset: usize, out: &mut [u8]) {
        let part = self.resident_part(offset, out.len());
        let (head, tail) = out.split_at_mut(part.len());
        head.copy_from_slice(part);
        tail.fill(0);
    }

    /// An owned copy of `len` bytes at `offset` (empty without allocating
    /// when `len` is zero).
    pub(crate) fn read_vec(&self, offset: usize, len: usize) -> Vec<u8> {
        let part = self.resident_part(offset, len);
        let mut out = Vec::with_capacity(len);
        out.extend_from_slice(part);
        out.resize(len, 0);
        out
    }

    /// Moves the first `len` bytes out of the region instead of copying
    /// them: the returned vector *is* the materialised prefix (cut to
    /// `len`, or zero-extended to it like [`Mr::read_vec`]), and the region
    /// is left unmaterialised — every byte reads as zero again and the next
    /// write starts a fresh prefix. For a region one consumer owns whole,
    /// such as the landing region of one rendezvous receive.
    pub(crate) fn take_prefix(&mut self, len: usize) -> Vec<u8> {
        self.end_of(0, len);
        let mut out = std::mem::take(&mut self.bytes);
        out.resize(len, 0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_flags() {
        let a = Access::LOCAL_WRITE | Access::REMOTE_WRITE;
        assert!(a.allows(Access::LOCAL_WRITE));
        assert!(a.allows(Access::REMOTE_WRITE));
        assert!(!a.allows(Access::REMOTE_READ));
        assert!(a.allows(Access::LOCAL_READ));
        assert!(Access::FULL.allows(a));
    }

    #[test]
    fn range_checks() {
        let mr = Mr::new(NodeId(0), Access::FULL, 100);
        assert!(mr.check_range(0, 100));
        assert!(mr.check_range(99, 1));
        assert!(!mr.check_range(99, 2));
        assert!(!mr.check_range(usize::MAX, 2));
        assert_eq!(mr.len(), 100);
        assert!(!mr.is_empty());
    }

    /// A region of 100 registered bytes holding `fill` in its first
    /// `fill.len()`.
    fn region_holding(fill: &[u8]) -> Mr {
        let mut mr = Mr::new(NodeId(0), Access::FULL, 100);
        mr.write(0, fill);
        mr
    }

    /// After a take the region holds nothing, reads as zero over its whole
    /// registered length, and takes a write like a fresh one.
    fn assert_fresh(mr: &mut Mr) {
        assert!(mr.resident().is_empty());
        assert_eq!(mr.read_vec(0, 100), [0u8; 100]);
        mr.write(3, &[9, 9]);
        assert_eq!(mr.resident(), [0, 0, 0, 9, 9]);
    }

    #[test]
    fn take_prefix_moves_exactly_what_landed() {
        let mut mr = region_holding(&[7; 40]);
        let landed = mr.resident().as_ptr();
        let got = mr.take_prefix(40);
        assert_eq!(got, [7u8; 40]);
        assert_eq!(got.as_ptr(), landed, "a move, not a copy");
        assert_fresh(&mut mr);
    }

    #[test]
    fn take_prefix_cuts_a_longer_stale_prefix() {
        // An earlier, longer payload left 60 bytes; the current one is 25.
        let mut mr = region_holding(&[1; 60]);
        mr.write(0, &[2; 25]);
        assert_eq!(mr.take_prefix(25), [2u8; 25]);
        assert_fresh(&mut mr);
    }

    #[test]
    fn take_prefix_zero_extends_a_shorter_prefix() {
        let mut mr = region_holding(&[5; 10]);
        let got = mr.take_prefix(12);
        assert_eq!(got[..10], [5u8; 10]);
        assert_eq!(got[10..], [0, 0]);
        assert_fresh(&mut mr);
    }

    #[test]
    fn take_prefix_of_zero_bytes_is_empty_and_still_drops_the_prefix() {
        let mut untouched = Mr::new(NodeId(0), Access::FULL, 100);
        assert!(untouched.take_prefix(0).is_empty());
        assert_fresh(&mut untouched);
        let mut stale = region_holding(&[1; 60]);
        assert!(stale.take_prefix(0).is_empty());
        assert_fresh(&mut stale);
    }

    #[test]
    #[should_panic(expected = "outside the 100 registered")]
    fn take_prefix_past_the_registered_length_panics() {
        region_holding(&[1; 60]).take_prefix(101);
    }
}
