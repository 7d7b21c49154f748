//! Per-connection state: credits, the backlog queue, the receive slab,
//! and the RDMA credit mailbox.

// Protocol state is narrowed with `try_from` (surfacing a typed overflow),
// never with a truncating `as`.
#![deny(clippy::cast_possible_truncation)]

use crate::buffers::RecvSlab;
use crate::requests::ReqId;
use crate::stats::ConnStats;
use crate::types::Rank;
use ibfabric::{MrId, QpId};
use std::collections::VecDeque;

/// One credit window of a connection, seen from one endpoint: the units
/// (receive buffers, or eager-ring slots) this endpoint may still consume
/// at the peer, and the units it owes back for what the peer consumed
/// here. Two local invariants hold between any two calls, regardless of
/// what is in flight on the wire (see [`CreditWindow::conserved`]).
///
/// Fields are crate-visible for the snapshot codec and diagnostics;
/// everything else moves them only through the methods below.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct CreditWindow {
    /// Units at the peer this endpoint may still consume.
    pub held: u32,
    /// Units owed to the peer that no return path has carried yet.
    pub pending: u32,
    /// Cumulative units ever granted to this endpoint: the initial window
    /// plus every piggybacked / explicit / mailbox return.
    pub granted_total: u64,
    /// Cumulative units this endpoint has spent sending.
    pub spent_total: u64,
    /// Cumulative peer-owed units accrued by this endpoint: units the
    /// peer consumed here plus window growth.
    pub consumed_total: u64,
    /// Cumulative units this endpoint has returned to the peer.
    pub returned_total: u64,
    /// Last cumulative value read from this endpoint's mailbox word.
    pub mailbox_seen: u64,
    /// Cumulative units returned via the peer's mailbox word.
    pub mailbox_sent_total: u64,
}

impl CreditWindow {
    /// Applies `n` granted units (initial window or a return). Returns
    /// for optimistically-borrowed buffers are spendable like any other:
    /// settling them against the loan would permanently starve a
    /// one-directional flow (each handshake's return would vanish into
    /// the debt), so the float is allowed to exceed the pool by the one
    /// in-flight loan and the hardware flow control absorbs the transient.
    pub fn grant(&mut self, n: u32) {
        self.held += n;
        self.granted_total += u64::from(n);
    }

    /// Spends one unit.
    pub fn spend(&mut self) {
        debug_assert!(self.held > 0, "spending from an empty credit window");
        self.held -= 1;
        self.spent_total += 1;
    }

    /// Records `n` peer-owed units: buffers or slots the peer consumed
    /// here and that are free again, or fresh grants from window growth.
    /// They stay pending until a return path takes them.
    pub fn owe(&mut self, n: u32) {
        self.pending += n;
        self.consumed_total += u64::from(n);
    }

    /// Takes the pending return for piggybacking onto an outgoing header,
    /// clamped to the wire field width; the remainder stays pending.
    pub fn take_piggyback(&mut self) -> u16 {
        let n = u16::try_from(self.pending).unwrap_or(u16::MAX);
        self.pending -= u32::from(n);
        self.returned_total += u64::from(n);
        n
    }

    /// Takes the whole pending return for a mailbox write and yields the
    /// cumulative count to publish there.
    pub fn take_mailbox_return(&mut self) -> u64 {
        self.mailbox_sent_total += u64::from(self.pending);
        self.returned_total += u64::from(self.pending);
        self.pending = 0;
        self.mailbox_sent_total
    }

    /// Applies the cumulative count read from this endpoint's mailbox
    /// word, granting only what is new: a duplicated or overtaken write
    /// is a no-op. Returns true when units were granted.
    pub fn apply_mailbox(&mut self, cumulative: u64) -> bool {
        if cumulative <= self.mailbox_seen {
            return false;
        }
        // Clamped to the window's width; any remainder stays unseen.
        let delta = u32::try_from(cumulative - self.mailbox_seen).unwrap_or(u32::MAX);
        self.mailbox_seen += u64::from(delta);
        self.grant(delta);
        true
    }

    /// Both conservation invariants: every unit granted is either spent
    /// or still held, and every unit owed is either returned or still
    /// pending. (A global `held <= pool` bound deliberately does NOT
    /// hold: each optimistic rendezvous loan permanently floats one
    /// credit, see [`CreditWindow::grant`].)
    pub fn conserved(&self) -> bool {
        // Checked: snapshot decoding asks this of untrusted totals.
        self.spent_total.checked_add(u64::from(self.held)) == Some(self.granted_total)
            && self.returned_total.checked_add(u64::from(self.pending)) == Some(self.consumed_total)
    }
}

/// A ring generation the receiver has replaced but not yet retired: in-
/// flight WRITEs against the old rkey still land here and are drained in
/// arrival order until the sender acknowledges the switch.
#[derive(Debug)]
pub(crate) struct RetiredRing {
    /// Generation number of the retired ring (always < `my_ring_gen`).
    pub gen: u32,
    /// The old ring's region (still registered; WRITEs must land).
    pub mr: MrId,
    /// Slot count of the retired ring.
    pub slots: u32,
    /// Next slot to read while the tail drains.
    pub read_slot: u32,
}

/// One endpoint's state for its connection to a single peer.
#[derive(Debug)]
pub(crate) struct Conn {
    pub peer: Rank,
    pub qp: QpId,
    /// False until the connection handshake ran (on-demand mode starts
    /// false; eager mode connects everything during init).
    pub established: bool,
    /// True once a failed completion tore this connection down: the QP is
    /// in the error state, every bound request has been failed, and no
    /// further work may be posted (see `progress.rs::teardown_conn`).
    pub failed: bool,

    /// Receive-buffer credit window (user-level schemes): `held` gates
    /// sends toward the peer, `pending` counts buffers consumed and
    /// reposted here plus dynamic pool growth.
    pub credits: CreditWindow,
    /// Eager-ring slot window (ring schemes; all zero otherwise): `held`
    /// gates ring frames toward the peer, `pending` counts frames drained
    /// from this endpoint's ring plus ring growth.
    pub ring: CreditWindow,

    // ---- sending toward the peer (user-level schemes) ----
    /// Send requests waiting for credits, FIFO.
    pub backlog: VecDeque<ReqId>,
    /// The one credit-less *optimistic* rendezvous start allowed in flight
    /// (its handshake brings credits back even from a fully starved
    /// connection; the hardware's RNR retry is the backstop if the
    /// receiver is truly out of buffers).
    pub optimistic_req: Option<ReqId>,
    /// Per-connection send sequence (stamped into every header).
    pub send_seq: u32,

    // ---- receiving from the peer ----
    /// The pre-pinned buffer slab.
    pub slab: RecvSlab,
    /// How many buffers should currently be posted (the dynamic scheme
    /// grows this; static/hardware keep it at `prepost`).
    pub prepost_target: u32,
    /// Buffers actually posted right now.
    pub posted: u32,

    // ---- RDMA credit mailboxes (CreditMsgMode::Rdma) ----
    /// Region the *peer* writes cumulative credit counts into; this
    /// endpoint polls it during progress.
    pub my_mailbox: MrId,
    /// Region at the peer this endpoint RDMA-writes its cumulative
    /// returned-credit counters into.
    pub peer_mailbox: MrId,

    // ---- RDMA eager channel (companion design [13]) ----
    /// Next sequence number to *deliver* (cross-channel ordering gate).
    pub next_deliver_seq: u32,
    /// Frames that arrived ahead of `next_deliver_seq`.
    pub reorder: std::collections::BTreeMap<u32, (crate::wire::MsgHeader, Vec<u8>)>,
    /// Ring this endpoint polls for frames the peer RDMA-writes.
    pub my_ring: MrId,
    /// Next ring slot to read.
    pub ring_read_slot: u32,
    /// The peer's ring this endpoint writes into.
    pub peer_ring: MrId,
    /// Next slot to write at the peer.
    pub ring_write_slot: u32,

    // ---- dynamic ring growth (RdmaChannelDyn) ----
    /// Generation of `my_ring`. Generation 0 is the bootstrap ring laid
    /// out by `world.rs`; each growth registers a fresh region and bumps
    /// this.
    pub my_ring_gen: u32,
    /// Slot count of `my_ring` (replaces `cfg.rdma_ring_slots` once
    /// growth is possible).
    pub my_ring_slots: u32,
    /// Generation of `peer_ring` as adopted from the mailbox.
    pub peer_ring_gen: u32,
    /// Slot count of `peer_ring`.
    pub peer_ring_slots: u32,
    /// Highest generation the peer has acknowledged writing into (read
    /// from the mailbox ack word). Old rings retire only once this
    /// passes their generation.
    pub peer_acked_gen: u32,
    /// Replaced-but-not-drained ring generations, oldest first. Growth is
    /// deferred while non-empty, so this holds at most one entry.
    pub retired_rings: Vec<RetiredRing>,
    /// Ring-full eager→rendezvous conversions since the last growth
    /// signal left this endpoint (the sender-side trigger counter).
    pub ring_full_since_update: u32,
    /// Set when `ring_full_since_update` crossed the growth threshold;
    /// cleared when the ring-backlog bit leaves on a header.
    pub ring_backlog_pending: bool,
    /// Set when this endpoint adopted a new peer ring and owes the peer
    /// an ack write; forces the next mailbox update out.
    pub ring_gen_ack_pending: bool,
    /// Set when growth was triggered while a previous growth was still
    /// draining (or its ack outstanding); retried once the ack arrives.
    pub ring_growth_pending: bool,

    /// Statistics for this connection.
    pub stats: ConnStats,
}

impl Conn {
    #[expect(
        clippy::too_many_arguments,
        reason = "world-bootstrap wiring: all six handles come from the deterministic layout"
    )]
    pub fn new(
        peer: Rank,
        qp: QpId,
        slab: RecvSlab,
        prepost: u32,
        my_mailbox: MrId,
        peer_mailbox: MrId,
        my_ring: MrId,
        peer_ring: MrId,
    ) -> Self {
        Conn {
            peer,
            qp,
            established: false,
            failed: false,
            credits: CreditWindow::default(),
            ring: CreditWindow::default(),
            backlog: VecDeque::new(),
            optimistic_req: None,
            send_seq: 0,
            slab,
            prepost_target: prepost,
            posted: 0,
            my_mailbox,
            peer_mailbox,
            next_deliver_seq: 0,
            reorder: std::collections::BTreeMap::new(),
            my_ring,
            ring_read_slot: 0,
            peer_ring,
            ring_write_slot: 0,
            my_ring_gen: 0,
            my_ring_slots: 0,
            peer_ring_gen: 0,
            peer_ring_slots: 0,
            peer_acked_gen: 0,
            retired_rings: Vec::new(),
            ring_full_since_update: 0,
            ring_backlog_pending: false,
            ring_gen_ack_pending: false,
            ring_growth_pending: false,
            stats: ConnStats::default(),
        }
    }

    /// Records one ring-full eager→rendezvous conversion; once the count
    /// crosses `threshold` the ring-backlog bit is armed for the next
    /// outgoing header and the counter restarts.
    pub fn note_ring_full_conversion(&mut self, threshold: u32) {
        self.ring_full_since_update += 1;
        if self.ring_full_since_update >= threshold.max(1) {
            self.ring_full_since_update = 0;
            self.ring_backlog_pending = true;
        }
    }

    /// Swaps a freshly registered, larger region in as the live receive
    /// ring: bumps the generation, resets the read cursor, and grants the
    /// extra slots to the peer through the ring window (they ride
    /// the same mailbox write that publishes the new ring, so the grant
    /// and the rkey arrive atomically). Returns the displaced generation,
    /// which the caller MUST pass to [`Conn::stage_retired_ring`] and then
    /// publish via the mailbox — in-flight WRITEs against the old rkey
    /// still land there and would be lost otherwise.
    #[must_use = "the displaced ring still holds in-flight frames; stage it for draining"]
    pub fn install_grown_ring(&mut self, mr: MrId, slots: u32) -> RetiredRing {
        debug_assert!(slots > self.my_ring_slots, "ring growth must grow");
        let old = RetiredRing {
            gen: self.my_ring_gen,
            mr: self.my_ring,
            slots: self.my_ring_slots,
            read_slot: self.ring_read_slot,
        };
        let delta = slots - self.my_ring_slots;
        self.my_ring = mr;
        self.my_ring_gen += 1;
        self.my_ring_slots = slots;
        self.ring_read_slot = 0;
        self.ring.owe(delta);
        self.stats.ring_growth_events.incr();
        self.stats
            .ring_generation
            .observe(u64::from(self.my_ring_gen));
        old
    }

    /// Queues the displaced ring generation for tail draining; it retires
    /// once the peer acknowledges the switch and its markers run dry.
    pub fn stage_retired_ring(&mut self, old: RetiredRing) {
        debug_assert!(old.gen < self.my_ring_gen);
        self.retired_rings.push(old);
    }

    /// Panics unless both windows are conserved. The progress engine
    /// calls this after every sweep in debug builds; `finish_stats` calls
    /// it once per connection in every build.
    pub fn assert_conserved(&self) {
        assert!(
            self.credits.conserved(),
            "credit leak toward peer {}: {:?}",
            self.peer,
            self.credits
        );
        assert!(
            self.ring.conserved(),
            "ring-slot leak toward peer {}: {:?}",
            self.peer,
            self.ring
        );
    }

    /// Stamps and returns the next send sequence number.
    pub fn next_seq(&mut self) -> u32 {
        let s = self.send_seq;
        self.send_seq = self.send_seq.wrapping_add(1);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ibfabric::QpId;
    use testutil::prop::{check, shrink, Case, Gen};

    fn conn() -> Conn {
        Conn::new(
            1,
            QpId::from_index_for_tests(0),
            RecvSlab::new(MrId::from_index_for_tests(0), 2048, 8),
            4,
            MrId::from_index_for_tests(1),
            MrId::from_index_for_tests(2),
            MrId::from_index_for_tests(3),
            MrId::from_index_for_tests(4),
        )
    }

    #[derive(Clone, Copy, Debug)]
    enum Op {
        Grant(u32),
        Spend,
        Owe(u32),
        TakePiggyback,
        TakeMailboxReturn,
        /// Mailbox word read `advance` past the last value seen.
        ApplyMailbox(u64),
    }

    #[derive(Clone, Debug)]
    struct WindowOps(Vec<Op>);

    impl Case for WindowOps {
        fn generate(g: &mut Gen) -> Self {
            WindowOps(g.vec(1..200, |g| match g.index(6) {
                0 => Op::Grant(g.u32_in(0..64)),
                1 => Op::Spend,
                // Large enough that a few in a row overflow the u16
                // piggyback field.
                2 => Op::Owe(g.u32_in(0..100_000)),
                3 => Op::TakePiggyback,
                4 => Op::TakeMailboxReturn,
                _ => Op::ApplyMailbox(g.u64_in(0..64)),
            }))
        }

        fn shrink(&self) -> Vec<Self> {
            shrink::vec_candidates(&self.0, 1, |_| Vec::new())
                .into_iter()
                .map(WindowOps)
                .collect()
        }
    }

    #[test]
    fn credit_window_ops_keep_both_invariants() {
        check::<WindowOps>("credit_window_ops_keep_both_invariants", 300, |case| {
            let mut w = CreditWindow::default();
            for &op in &case.0 {
                let before = w;
                match op {
                    Op::Grant(n) => {
                        w.grant(n);
                        assert_eq!(w.held, before.held + n);
                    }
                    Op::Spend if before.held == 0 => {}
                    Op::Spend => {
                        w.spend();
                        assert_eq!(w.held, before.held - 1);
                    }
                    Op::Owe(n) => {
                        w.owe(n);
                        assert_eq!(w.pending, before.pending + n);
                    }
                    Op::TakePiggyback => {
                        // Clamped to the wire field; the rest stays owed.
                        let n = u32::from(w.take_piggyback());
                        assert_eq!(n, before.pending.min(u32::from(u16::MAX)));
                        assert_eq!(w.pending, before.pending - n);
                    }
                    Op::TakeMailboxReturn => {
                        let published = w.take_mailbox_return();
                        assert_eq!(
                            published,
                            before.mailbox_sent_total + u64::from(before.pending)
                        );
                        assert_eq!(w.pending, 0);
                    }
                    Op::ApplyMailbox(advance) => {
                        let cumulative = before.mailbox_seen + advance;
                        assert_eq!(w.apply_mailbox(cumulative), advance > 0);
                        assert_eq!(u64::from(w.held), u64::from(before.held) + advance);
                        // A duplicated or overtaken write grants nothing.
                        let applied = w;
                        assert!(!w.apply_mailbox(cumulative));
                        assert!(!w.apply_mailbox(cumulative.saturating_sub(1)));
                        assert_eq!(w, applied);
                    }
                }
                assert!(w.conserved(), "{op:?} broke conservation: {w:?}");
            }
            // A unit that bypasses the methods is what the check catches.
            w.held += 1;
            assert!(!w.conserved());
        });
    }

    #[test]
    fn ring_full_conversions_arm_the_backlog_bit_at_threshold() {
        let mut c = conn();
        for _ in 0..4 {
            c.note_ring_full_conversion(5);
            assert!(!c.ring_backlog_pending);
        }
        c.note_ring_full_conversion(5);
        assert!(c.ring_backlog_pending);
        assert_eq!(c.ring_full_since_update, 0);
        // A zero threshold still behaves (floored at 1).
        c.ring_backlog_pending = false;
        c.note_ring_full_conversion(0);
        assert!(c.ring_backlog_pending);
    }

    #[test]
    fn seq_increments() {
        let mut c = conn();
        assert_eq!(c.next_seq(), 0);
        assert_eq!(c.next_seq(), 1);
        assert_eq!(c.next_seq(), 2);
    }
}
