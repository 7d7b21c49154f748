//! Registered memory regions with access-flag and bounds checking.

use crate::fabric::NodeId;
use std::sync::Arc;

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
    /// Everything: local write + remote write.
    pub const FULL: Access = Access(3);

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

/// Bytes the holder owns, or bytes it shares by reference: with the
/// allocation the HCA placed them from, or with an `Arc<[u8]>` it was
/// built from. A rendezvous payload reaches the application this way: the
/// receive hands back the RDMA WRITE's own allocation, not a copy of it. Nothing mutates a shared allocation, so
/// sharing it is sound; [`Bytes::into_vec`] is where a copy happens, and
/// only when the bytes are shared.
///
/// # Example
///
/// ```
/// use ibfabric::Bytes;
///
/// let msg = Bytes::from(b"ping".to_vec());
/// assert_eq!(msg, *b"ping");
/// assert_eq!(msg.len(), 4); // reads like the `[u8]` it derefs to
/// assert_eq!(&msg[1..], b"ing");
/// assert_eq!(msg.into_vec(), b"ping"); // a move: these bytes were owned
/// assert!(Bytes::default().is_empty());
///
/// let built: std::sync::Arc<[u8]> = b"pong".as_slice().into();
/// let shared = Bytes::from(std::sync::Arc::clone(&built));
/// assert_eq!(shared.as_ptr(), built.as_ptr()); // adopted, not copied
/// ```
#[derive(Debug, Default)]
pub struct Bytes(Repr);

#[derive(Debug)]
enum Repr {
    Owned(Vec<u8>),
    Shared(Arc<[u8]>),
}

impl Default for Repr {
    fn default() -> Repr {
        Repr::Owned(Vec::new())
    }
}

impl Bytes {
    /// The bytes as a `Vec`: a move when they are owned, a copy when they
    /// are shared.
    pub fn into_vec(self) -> Vec<u8> {
        match self.0 {
            Repr::Owned(bytes) => bytes,
            Repr::Shared(bytes) => bytes.to_vec(),
        }
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Owned(bytes) => bytes,
            Repr::Shared(bytes) => bytes,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(bytes: Vec<u8>) -> Bytes {
        Bytes(Repr::Owned(bytes))
    }
}

/// Adopts the allocation, shared by reference: no copy.
impl From<Arc<[u8]>> for Bytes {
    fn from(bytes: Arc<[u8]>) -> Bytes {
        Bytes(Repr::Shared(bytes))
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        **self == *other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        **self == **other
    }
}

/// Exactly `N` bytes as an array, as from a `Vec<u8>`; bytes of another
/// length come back as the error.
impl<const N: usize> TryFrom<Bytes> for [u8; N] {
    type Error = Bytes;
    fn try_from(bytes: Bytes) -> Result<[u8; N], Bytes> {
        <[u8; N]>::try_from(&*bytes).map_err(|_| bytes)
    }
}

/// A registered ("pinned") memory region owned by one node.
///
/// The region is `len` bytes long to every bounds check, but the host only
/// holds the **materialised prefix**: its length is at most `len`, and
/// every byte at or past it is zero and has never been allocated. Writes
/// grow the prefix to their own end; reads never grow it. Nothing is
/// reserved up front, so a region costs what the protocol has touched, not
/// what it registered (DESIGN.md §9, "Registered vs resident memory").
#[derive(Debug)]
pub struct Mr {
    pub(crate) node: NodeId,
    pub(crate) access: Access,
    len: usize,
    /// The materialised prefix: bytes the host owns, or a payload the HCA
    /// placed by reference and still shares with the work request that
    /// carried it (the first host-side mutation un-shares).
    prefix: Bytes,
}

impl Mr {
    /// A region of `len` registered bytes, none of them materialised.
    pub(crate) fn new(node: NodeId, access: Access, len: usize) -> Mr {
        Mr {
            node,
            access,
            len,
            prefix: Bytes::default(),
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
        &self.prefix
    }

    /// The prefix as bytes the host owns, copying a shared one first
    /// (copy-on-write): every host-side mutation goes through here.
    fn owned(&mut self) -> &mut Vec<u8> {
        if let Repr::Shared(bytes) = &self.prefix.0 {
            self.prefix = Bytes(Repr::Owned(bytes.to_vec()));
        }
        match &mut self.prefix.0 {
            Repr::Owned(bytes) => bytes,
            #[expect(
                clippy::unreachable,
                reason = "a shared prefix was replaced by an owned copy just above"
            )]
            Repr::Shared(_) => unreachable!("un-shared above"),
        }
    }

    /// Materialises the whole region and returns it.
    pub(crate) fn materialise_all(&mut self) -> &mut [u8] {
        let len = self.len;
        let bytes = self.owned();
        bytes.resize(len, 0);
        bytes
    }

    /// Stores `data` at `offset`, growing the prefix to the write's end if
    /// it lies beyond. Only a gap between the prefix and `offset` is
    /// zero-filled; the bytes `data` covers are appended, not zeroed first.
    /// A zero-length write materialises nothing.
    pub(crate) fn write(&mut self, offset: usize, data: &[u8]) {
        self.end_of(offset, data.len());
        let bytes = self.owned();
        let have = bytes.len();
        // What falls on materialised bytes overwrites them; the rest
        // extends the prefix.
        let (over, append) = data.split_at(have.saturating_sub(offset).min(data.len()));
        bytes[offset.min(have)..][..over.len()].copy_from_slice(over);
        if !append.is_empty() {
            if offset > have {
                bytes.resize(offset, 0);
            }
            bytes.extend_from_slice(append);
        }
    }

    /// The HCA places `payload` at `offset`. A payload that starts at
    /// offset 0 and is at least as long as the current prefix overwrites
    /// every materialised byte, so the region adopts it by reference — the
    /// prefix *becomes* the work request's allocation, and no byte is
    /// copied. Anything else (a slot in the middle, a short frame over a
    /// longer prefix, an empty payload) is an ordinary [`Mr::write`].
    pub(crate) fn place(&mut self, offset: usize, payload: &Arc<[u8]>) {
        if offset == 0 && !payload.is_empty() && payload.len() >= self.resident().len() {
            self.end_of(0, payload.len());
            self.prefix = Bytes(Repr::Shared(Arc::clone(payload)));
        } else {
            self.write(offset, payload);
        }
    }

    /// The materialised part of `offset..offset + len`; whatever it is
    /// short of `len` lies past the prefix and reads as zero.
    fn resident_part(&self, offset: usize, len: usize) -> &[u8] {
        let end = self.end_of(offset, len);
        let bytes = self.resident();
        let have = bytes.len();
        &bytes[offset.min(have)..end.min(have)]
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

    /// Takes the first `len` bytes out of the region (cut to `len`, or
    /// zero-extended to it like [`Mr::read_vec`]) and leaves it
    /// unmaterialised — every byte reads as zero again and the next write
    /// starts a fresh prefix. For a region one consumer owns whole, such as
    /// the landing region of one rendezvous receive. The prefix is handed
    /// over, not copied: an owned one moves, and one the HCA placed by
    /// reference that is exactly `len` bytes long comes back as the
    /// payload's own allocation. Only a prefix of another length is copied
    /// (cut or zero-extended).
    pub(crate) fn take_prefix(&mut self, len: usize) -> Bytes {
        self.end_of(0, len);
        let mut out = match std::mem::take(&mut self.prefix).0 {
            Repr::Shared(bytes) if bytes.len() == len => return Bytes(Repr::Shared(bytes)),
            Repr::Shared(bytes) => bytes[..len.min(bytes.len())].to_vec(),
            Repr::Owned(bytes) => bytes,
        };
        out.resize(len, 0);
        out.into()
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
        assert!(a.allows(Access::LOCAL_READ));
        assert!(!Access::LOCAL_WRITE.allows(Access::REMOTE_WRITE));
        assert_eq!(Access::FULL, a);
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

    fn shared(fill: u8, n: usize) -> Arc<[u8]> {
        vec![fill; n].into()
    }

    fn is_shared_with(mr: &Mr, payload: &Arc<[u8]>) -> bool {
        mr.resident().as_ptr() == payload.as_ptr()
    }

    #[test]
    fn place_adopts_a_payload_that_covers_the_whole_prefix() {
        let mut mr = region_holding(&[1; 30]);
        let p = shared(7, 30);
        mr.place(0, &p);
        assert!(is_shared_with(&mr, &p), "equal length covers the prefix");
        let longer = shared(8, 50);
        mr.place(0, &longer);
        assert!(is_shared_with(&mr, &longer));
        assert_eq!(
            mr.read_vec(0, 100)[..51],
            [[8u8; 50].as_slice(), &[0]].concat()
        );
    }

    #[test]
    fn place_writes_what_does_not_cover_the_prefix() {
        let short = shared(2, 10);
        let mut mr = region_holding(&[1; 30]);
        mr.place(0, &short);
        assert!(
            !is_shared_with(&mr, &short),
            "a short payload leaves bytes behind it"
        );
        assert_eq!(mr.resident(), [[2u8; 10].as_slice(), &[1; 20]].concat());

        let mut fresh = Mr::new(NodeId(0), Access::FULL, 100);
        let p = shared(3, 10);
        fresh.place(5, &p);
        assert!(!is_shared_with(&fresh, &p), "only offset 0 is a prefix");
        assert_eq!(fresh.resident(), [[0u8; 5].as_slice(), &[3; 10]].concat());

        let mut untouched = Mr::new(NodeId(0), Access::FULL, 100);
        untouched.place(0, &shared(0, 0));
        assert!(
            untouched.resident().is_empty(),
            "an empty payload materialises nothing"
        );
    }

    #[test]
    fn host_mutation_unshares_and_leaves_the_payload_alone() {
        let p = shared(4, 20);
        let mut mr = Mr::new(NodeId(0), Access::FULL, 100);
        mr.place(0, &p);
        assert!(is_shared_with(&mr, &p));
        mr.write(18, &[9, 9, 9]);
        assert!(!is_shared_with(&mr, &p));
        assert_eq!(mr.resident(), [[4u8; 18].as_slice(), &[9; 3]].concat());
        assert_eq!(*p, [4u8; 20], "the payload is never written through");

        let q = shared(5, 30);
        mr.place(0, &q);
        assert!(is_shared_with(&mr, &q));
        assert!(mr.materialise_all()[..30].iter().all(|&b| b == 5));
        assert!(!is_shared_with(&mr, &q));
        assert_eq!(mr.resident().len(), 100);
        assert_eq!(*q, [5u8; 30]);
    }

    #[test]
    fn take_prefix_hands_over_a_shared_prefix_of_exactly_its_length() {
        let p = shared(6, 40);
        let mut mr = Mr::new(NodeId(0), Access::FULL, 100);
        mr.place(0, &p);
        let got = mr.take_prefix(40);
        assert_eq!(got.as_ptr(), p.as_ptr(), "handed over, not copied");
        assert_eq!(Arc::strong_count(&p), 2, "the taker holds it now");
        assert_fresh(&mut mr);
        drop(got);
        assert_eq!(Arc::strong_count(&p), 1);
    }

    #[test]
    fn take_prefix_of_another_length_copies_and_drops_the_reference() {
        let p = shared(6, 40);
        let mut mr = Mr::new(NodeId(0), Access::FULL, 100);
        mr.place(0, &p);
        let got = mr.take_prefix(25);
        assert_eq!(got, [6u8; 25]);
        assert_ne!(got.as_ptr(), p.as_ptr());
        assert_eq!(Arc::strong_count(&p), 1, "the region let go of the payload");
        assert_fresh(&mut mr);
        mr.place(0, &p);
        let longer = mr.take_prefix(44);
        assert_ne!(longer.as_ptr(), p.as_ptr());
        assert_eq!(longer[38..], [6, 6, 0, 0, 0, 0]);
        assert_eq!(Arc::strong_count(&p), 1);
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
