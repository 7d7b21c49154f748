//! Non-blocking request table.

use crate::types::{CommCtx, Rank, Status, Tag};
use std::sync::Arc;

/// Handle to a non-blocking operation, returned by `isend`/`irecv` and
/// consumed by `wait`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ReqId(pub(crate) u32);

/// Send-side protocol state.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub(crate) enum SendState {
    /// Waiting in the backlog for credits.
    Backlogged,
    /// Rendezvous start sent; waiting for the receiver's reply.
    StartSent,
    /// RDMA write posted; waiting for its local completion.
    Writing,
    /// Buffer reusable; operation complete.
    Done,
}

#[derive(Debug)]
pub(crate) struct SendReq {
    pub dst: Rank,
    pub tag: Tag,
    pub comm: CommCtx,
    pub state: SendState,
    /// Payload of a send that outlives its call — rendezvous, backlogged
    /// or buffered: the `Arc<[u8]>` the caller handed over, or the one
    /// snapshot of a borrowed buffer (the simulator's stand-in for the
    /// pinned user buffer). The rendezvous WRITE takes it, and every later
    /// holder — in-flight entry, delivery event, landing region, the
    /// receiver's payload — shares that allocation; nothing mutates it.
    /// Empty (`Arc::default`, no allocation) for an eager send that posted
    /// at once, whose frame copied the caller's bytes, and once the WRITE
    /// has taken it.
    pub data: Arc<[u8]>,
    /// Whether this operation passed through the backlog (sets the
    /// feedback flag on its rendezvous start).
    pub was_backlogged: bool,
    /// Eager-size operations are *buffered*: the payload is copied into a
    /// pre-pinned buffer at post time, so the user-visible operation
    /// completes immediately even if the transport later runs it through
    /// the backlog as a rendezvous (MPICH-lineage eager semantics).
    pub buffered: bool,
    /// The caller already waited on a buffered request; the progress
    /// engine frees the slot when the transport catches up.
    pub detached: bool,
    /// The connection failed before the transport finished: the operation
    /// reached `Done` through teardown, not delivery.
    pub failed: bool,
}

/// Receive-side protocol state.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub(crate) enum RecvState {
    /// Posted, not yet matched.
    Posted,
    /// Matched a rendezvous start; reply sent; waiting for data + fin.
    RndzInFlight,
    /// Payload available.
    Done,
}

#[derive(Debug)]
pub(crate) struct RecvReq {
    pub src: Option<Rank>,
    pub tag: Option<Tag>,
    pub comm: CommCtx,
    pub state: RecvState,
    /// Completed payload.
    pub data: Option<ibfabric::Bytes>,
    pub status: Option<Status>,
    /// Landing region of the rendezvous this receive accepted: the RDMA
    /// WRITE lands in it and fin hands the placed bytes over into `data`.
    /// While the state is `RndzInFlight` the region is this receive's alone
    /// (`ReqTable::holds_landing_region` is how a lane is known busy).
    pub staging: Option<ibfabric::MrId>,
    /// Expected rendezvous length (set when matched).
    pub rndz_len: usize,
    /// The connection failed before data arrived: `Done` with an empty
    /// payload and a zero-length status, set by teardown.
    pub failed: bool,
}

impl RecvReq {
    /// Completes this receive as failed: a zero-length status from
    /// `source` and an empty payload, so a waiting caller unblocks
    /// ([`crate::MpiRank::wait_recv_result`] surfaces the typed error).
    pub fn fail(&mut self, source: Rank, tag: Tag) {
        self.state = RecvState::Done;
        self.failed = true;
        self.status = Some(Status {
            source,
            tag,
            len: 0,
        });
        self.data = Some(ibfabric::Bytes::default());
    }
}

#[derive(Debug)]
pub(crate) enum Request {
    Send(SendReq),
    Recv(RecvReq),
}

impl Request {
    /// User-visible completion (buffer reusable).
    pub fn is_done(&self) -> bool {
        match self {
            Request::Send(s) => s.state == SendState::Done || s.buffered,
            Request::Recv(r) => r.state == RecvState::Done,
        }
    }
}

/// True when `r` is a receive whose rendezvous is in flight into `mr`.
fn lands_in(r: &Request, mr: ibfabric::MrId) -> bool {
    matches!(r, Request::Recv(r) if r.state == RecvState::RndzInFlight && r.staging == Some(mr))
}

/// Slab of live requests.
#[derive(Debug, Default)]
pub(crate) struct ReqTable {
    slots: Vec<Option<Request>>,
    free: Vec<u32>,
}

impl ReqTable {
    pub fn insert(&mut self, req: Request) -> ReqId {
        match self.free.pop() {
            Some(i) => {
                debug_assert!(self.slots[i as usize].is_none());
                self.slots[i as usize] = Some(req);
                ReqId(i)
            }
            None => {
                self.slots.push(Some(req));
                ReqId((self.slots.len() - 1) as u32)
            }
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "request ids are handed out by insert and invalidated only by remove; a stale id is a protocol-layer bug, not a recoverable condition"
    )]
    pub fn get(&self, id: ReqId) -> &Request {
        self.slots[id.0 as usize]
            .as_ref()
            .expect("stale request id")
    }

    #[expect(clippy::expect_used, reason = "same slot-liveness invariant as `get`")]
    pub fn get_mut(&mut self, id: ReqId) -> &mut Request {
        self.slots[id.0 as usize]
            .as_mut()
            .expect("stale request id")
    }

    pub fn remove(&mut self, id: ReqId) -> Request {
        #[expect(
            clippy::expect_used,
            reason = "a double free means the protocol layer completed one request twice; continuing would corrupt the slab"
        )]
        let req = self.slots[id.0 as usize]
            .take()
            .expect("double free of request");
        self.free.push(id.0);
        req
    }

    /// The send half of `id`. The wire protocol stamps request ids into
    /// headers by role (rndz_id = sender side, peer_req = receiver side),
    /// so a role mismatch is a protocol bug.
    pub fn send_ref(&self, id: ReqId) -> &SendReq {
        match self.get(id) {
            Request::Send(s) => s,
            #[expect(
                clippy::panic,
                reason = "header role fields guarantee the variant; see method doc"
            )]
            Request::Recv(_) => panic!("request {id:?} is a recv, expected a send"),
        }
    }

    /// Mutable send half of `id` (same invariant as [`ReqTable::send_ref`]).
    pub fn send_mut(&mut self, id: ReqId) -> &mut SendReq {
        match self.get_mut(id) {
            Request::Send(s) => s,
            #[expect(
                clippy::panic,
                reason = "header role fields guarantee the variant; see send_ref"
            )]
            Request::Recv(_) => panic!("request {id:?} is a recv, expected a send"),
        }
    }

    /// Completes the send `id` as failed, releasing it if its owner
    /// already let go of it (a detached buffered send).
    pub fn fail_send(&mut self, id: ReqId) {
        let s = self.send_mut(id);
        s.state = SendState::Done;
        s.failed = true;
        if s.detached {
            self.remove(id);
        }
    }

    /// The recv half of `id` (same invariant as [`ReqTable::send_ref`]).
    pub fn recv_ref(&self, id: ReqId) -> &RecvReq {
        match self.get(id) {
            Request::Recv(r) => r,
            #[expect(
                clippy::panic,
                reason = "header role fields guarantee the variant; see send_ref"
            )]
            Request::Send(_) => panic!("request {id:?} is a send, expected a recv"),
        }
    }

    /// Mutable recv half of `id` (same invariant as [`ReqTable::send_ref`]).
    pub fn recv_mut(&mut self, id: ReqId) -> &mut RecvReq {
        match self.get_mut(id) {
            Request::Recv(r) => r,
            #[expect(
                clippy::panic,
                reason = "header role fields guarantee the variant; see send_ref"
            )]
            Request::Send(_) => panic!("request {id:?} is a send, expected a recv"),
        }
    }

    pub fn live_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Ids of every live request (teardown sweeps these to fail requests
    /// bound to a dead connection).
    pub fn live_ids(&self) -> Vec<ReqId> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| ReqId(i as u32)))
            .collect()
    }

    /// True while a receive whose rendezvous is in flight lands in `mr`.
    /// Lane occupancy is derived from the live receives and nothing else,
    /// so a lane is free the moment its receive completes — at fin, on
    /// failure or on teardown.
    pub fn holds_landing_region(&self, mr: ibfabric::MrId) -> bool {
        self.slots.iter().flatten().any(|r| lands_in(r, mr))
    }

    /// [`ReqTable::holds_landing_region`] for a region whose last claimant
    /// is known: only `claimant` can still be landing in it, so one slot
    /// decides (a retired or re-used slot reads as "no").
    pub fn still_lands_in(&self, claimant: ReqId, mr: ibfabric::MrId) -> bool {
        self.slots
            .get(claimant.0 as usize)
            .and_then(Option::as_ref)
            .is_some_and(|r| lands_in(r, mr))
    }

    /// The table's allocation shape — total slot count plus the free-slot
    /// stack, bottom to top. Only meaningful when the table is empty
    /// (checkpoint fences require `live_count() == 0`); the shape still
    /// matters because `insert` pops the free stack, so a restored table
    /// must hand out the same [`ReqId`]s the uninterrupted run would.
    pub fn shape(&self) -> (u32, Vec<u32>) {
        debug_assert_eq!(self.live_count(), 0, "shape of a non-empty table");
        (self.slots.len() as u32, self.free.clone())
    }

    /// Rebuilds an empty table with the shape captured by
    /// [`ReqTable::shape`].
    pub fn restore_shape(&mut self, slot_count: u32, free: Vec<u32>) {
        debug_assert_eq!(
            slot_count as usize,
            free.len(),
            "empty table: every slot free"
        );
        debug_assert!(free.iter().all(|&s| s < slot_count));
        self.slots = (0..slot_count).map(|_| None).collect();
        self.free = free;
    }

    /// True while any send operation's *transport* is still outstanding
    /// (backlogged, handshaking, or writing).
    pub fn has_pending_transport(&self) -> bool {
        self.slots.iter().flatten().any(|r| match r {
            Request::Send(s) => s.state != SendState::Done,
            Request::Recv(_) => false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn send_req() -> Request {
        Request::Send(SendReq {
            dst: 1,
            tag: 0,
            comm: 0,
            state: SendState::Done,
            data: Arc::default(),
            was_backlogged: false,
            buffered: false,
            detached: false,
            failed: false,
        })
    }

    #[test]
    fn insert_get_remove_reuses_slots() {
        let mut t = ReqTable::default();
        let a = t.insert(send_req());
        let b = t.insert(send_req());
        assert_ne!(a, b);
        assert_eq!(t.live_count(), 2);
        assert!(t.get(a).is_done());
        t.remove(a);
        assert_eq!(t.live_count(), 1);
        let c = t.insert(send_req());
        assert_eq!(c, a, "freed slot is reused");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_remove_panics() {
        let mut t = ReqTable::default();
        let a = t.insert(send_req());
        t.remove(a);
        t.remove(a);
    }
}
