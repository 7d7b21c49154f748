//! Per-connection state: credits, the backlog queue, the receive slab,
//! and the RDMA credit mailbox — and the two calls that post onto a
//! connection (`post_frame`, on the slab or the ring lane, and
//! `send_rdma_credit_update`), the only code that consumes a credit
//! window. Paper §4.2's rule, that a credit consumed reaches the peer, is
//! held here by privacy: the consume operations are private to this
//! module, and each is reached only inside a call that posts what it took.
//! Both post through `post_send_wr`, the one place `mpib` posts a send
//! work request.

// Protocol state is narrowed with `try_from` (surfacing a typed overflow),
// never with a truncating `as`.
#![deny(clippy::cast_possible_truncation)]

use crate::buffers::{encode_wrid, WrKind};
use crate::config::{CreditMsgMode, FlowControlScheme, MpiConfig};
use crate::rank::MpiRank;
use crate::requests::ReqId;
use crate::stats::ConnStats;
use crate::types::Rank;
use crate::wire::{MsgHeader, MsgKind};
use crate::world::{mailbox_mr_for, qp_id_for, ring_mr_for, slab_mr_for};
use ibfabric::{MrId, QpId, SendOp, SendWr};
use std::collections::VecDeque;
use std::sync::Arc;

/// One credit window of a connection, seen from one endpoint: the units
/// (receive buffers, or eager-ring slots) this endpoint may still consume
/// at the peer, and the units it owes back for what the peer consumed
/// here. Two local invariants hold between any two calls, regardless of
/// what is in flight on the wire (see [`CreditWindow::conserved`]).
///
/// Fields are crate-visible for the snapshot codec and diagnostics;
/// everything else moves them only through the methods below. The three
/// that consume — `spend`, `take_piggyback`, `take_mailbox_return` — are
/// private to this module: [`Conn::stamp`] and [`Conn::mailbox_image`]
/// alone reach them, and only the calls that post their result reach
/// those (`tests/lint_levels.rs` holds the privacy).
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
    fn spend(&mut self) {
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
    fn take_piggyback(&mut self) -> u16 {
        let n = u16::try_from(self.pending).unwrap_or(u16::MAX);
        self.pending -= u32::from(n);
        self.returned_total += u64::from(n);
        n
    }

    /// Takes the whole pending return for a mailbox write and yields the
    /// cumulative count to publish there.
    fn take_mailbox_return(&mut self) -> u64 {
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

/// Paper §4.2's metering rule, sender half: whether a frame posted as a
/// send spends one of the sender's buffer credits. Only under a
/// user-level scheme, and only for the kinds the receiver credits back
/// ([`earns_return`]) — less the optimistic rendezvous start, which
/// borrows instead (`no_credit`) — plus the explicit credit message of the
/// deliberately broken `NaiveGated` mode, which is gated like data. A
/// ring frame spends a ring slot instead, always.
pub(crate) fn spends_credit(scheme: FlowControlScheme, mode: CreditMsgMode, h: &MsgHeader) -> bool {
    scheme.is_user_level()
        && match h.kind {
            MsgKind::Eager => true,
            MsgKind::RndzStart => !h.no_credit,
            MsgKind::Credit => mode == CreditMsgMode::NaiveGated,
            MsgKind::RndzReply | MsgKind::RndzFin => false,
        }
}

/// The receiver half: whether a frame consumed from the slab earns its
/// sender a credit return. Optimistic starts count too: they *borrowed* a
/// credit the sender did not have, and returning it lets a starved
/// connection recover instead of degrading permanently (at most one loan
/// is outstanding per connection, so credits exceed the pool only
/// transiently and the hardware flow control absorbs it).
pub(crate) fn earns_return(scheme: FlowControlScheme, kind: MsgKind) -> bool {
    scheme.is_user_level() && matches!(kind, MsgKind::Eager | MsgKind::RndzStart)
}

/// One generation of the receive ring the peer RDMA-writes frames into.
/// A replaced generation stays polled: in-flight WRITEs against its rkey
/// still land there and are drained in arrival order until the sender
/// acknowledges the switch.
#[derive(Debug)]
pub(crate) struct RxRing {
    /// Generation 0 is the bootstrap ring laid out by `world.rs`; each
    /// growth registers a fresh region one generation higher.
    pub gen: u32,
    /// The ring's region (WRITEs against its rkey land here).
    pub mr: MrId,
    /// Slot count (replaces `cfg.rdma_ring_slots` once growth is
    /// possible).
    pub slots: u32,
    /// Next slot to read.
    pub read_slot: u32,
}

/// One endpoint's state for its connection to a single peer. It exists
/// once the connection is established ([`Conn::establish`]); until then
/// the rank holds no `Conn` for that peer at all.
#[derive(Debug)]
pub(crate) struct Conn {
    pub peer: Rank,
    pub qp: QpId,
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
    /// The pre-pinned buffer slab: `max_prepost` slots of `buf_size`
    /// bytes (see `buffers::slot_recv_wr`).
    pub slab: MrId,
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
    /// The generations of the ring this endpoint polls for frames the
    /// peer RDMA-writes, oldest first; the last is the live ring. Growth
    /// is deferred while an older generation remains, so this holds at
    /// most two.
    pub rings: Vec<RxRing>,
    /// The peer's ring this endpoint writes into.
    pub peer_ring: MrId,
    /// Next slot to write at the peer.
    pub ring_write_slot: u32,

    // ---- dynamic ring growth (RdmaChannelDyn) ----
    /// Generation of `peer_ring` as adopted from the mailbox.
    pub peer_ring_gen: u32,
    /// Slot count of `peer_ring`.
    pub peer_ring_slots: u32,
    /// Highest generation the peer has acknowledged writing into (read
    /// from the mailbox ack word). Old rings retire only once this
    /// passes their generation.
    pub peer_acked_gen: u32,
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
    /// The connection of rank `i` toward rank `j` in an `n`-rank world,
    /// established: its verbs handles from the deterministic layout
    /// (`world.rs`), the receive slots `0..prepost` that `world::establish`
    /// posted into its QP adopted, the matching buffer credits granted and,
    /// under the ring schemes, the bootstrap ring window open on both
    /// sides (generation 0). The one constructor: no connection exists
    /// before it is established. A checkpoint restore overwrites the
    /// dynamic fields from the rank's blob.
    pub fn establish(n: usize, cfg: &MpiConfig, i: Rank, j: Rank) -> Self {
        let mut c = Conn {
            peer: j,
            qp: qp_id_for(n, i, j),
            failed: false,
            credits: CreditWindow::default(),
            ring: CreditWindow::default(),
            backlog: VecDeque::new(),
            optimistic_req: None,
            send_seq: 0,
            slab: slab_mr_for(n, i, j),
            prepost_target: cfg.prepost,
            posted: cfg.prepost,
            my_mailbox: mailbox_mr_for(n, i, j),
            peer_mailbox: mailbox_mr_for(n, j, i),
            next_deliver_seq: 0,
            reorder: std::collections::BTreeMap::new(),
            rings: vec![RxRing {
                gen: 0,
                mr: ring_mr_for(n, i, j),
                slots: 0,
                read_slot: 0,
            }],
            peer_ring: ring_mr_for(n, j, i),
            ring_write_slot: 0,
            peer_ring_gen: 0,
            peer_ring_slots: 0,
            peer_acked_gen: 0,
            ring_full_since_update: 0,
            ring_backlog_pending: false,
            ring_gen_ack_pending: false,
            ring_growth_pending: false,
            stats: ConnStats::default(),
        };
        c.credits.grant(cfg.prepost);
        c.stats.max_posted.observe(u64::from(cfg.prepost));
        if cfg.scheme.uses_ring() {
            c.ring.grant(cfg.rdma_ring_slots);
            c.rings[0].slots = cfg.rdma_ring_slots;
            c.peer_ring_slots = cfg.rdma_ring_slots;
        }
        c
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

    /// The ring generation the peer is currently told to write into.
    pub fn live_ring(&self) -> &RxRing {
        #[expect(
            clippy::expect_used,
            reason = "`rings` starts with the bootstrap ring and only ever retires older generations"
        )]
        self.rings.last().expect("a live ring")
    }

    /// Pushes a freshly registered, larger region as the live receive
    /// ring, one generation up with its read cursor at slot 0, and grants
    /// the extra slots to the peer through the ring window (they ride the
    /// same mailbox write that publishes the new ring, so the grant and
    /// the rkey arrive atomically). The displaced generation stays in
    /// `rings`, polled until its tail drains. The caller publishes the
    /// switch with [`MpiRank::send_rdma_credit_update`].
    pub fn install_grown_ring(&mut self, mr: MrId, slots: u32) {
        let live = self.live_ring();
        debug_assert!(slots > live.slots, "ring growth must grow");
        let (gen, delta) = (live.gen + 1, slots - live.slots);
        self.rings.push(RxRing {
            gen,
            mr,
            slots,
            read_slot: 0,
        });
        self.ring.owe(delta);
        self.stats.ring_growth_events.incr();
        self.stats.ring_generation.observe(u64::from(gen));
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

    /// Stamps and returns the next send sequence number ([`Conn::stamp`]
    /// alone takes one: under the ring schemes a number no frame carries
    /// would stall the peer's in-order delivery gate).
    fn next_seq(&mut self) -> u32 {
        let s = self.send_seq;
        self.send_seq = self.send_seq.wrapping_add(1);
        s
    }

    /// Stamps `h` for posting toward the peer and returns it: spends the
    /// unit the frame consumes there (a ring slot for a ring frame, else a
    /// buffer credit where [`spends_credit`] says so), piggybacks both
    /// pending returns, moves the armed ring-backlog bit onto it and stamps
    /// the next sequence number. Only [`MpiRank::post_frame`] calls it, so
    /// everything it takes leaves on the frame it posts.
    fn stamp(
        &mut self,
        mut h: MsgHeader,
        scheme: FlowControlScheme,
        mode: CreditMsgMode,
        ring_frame: bool,
    ) -> MsgHeader {
        if ring_frame {
            self.ring.spend();
        } else if spends_credit(scheme, mode, &h) {
            self.credits.spend();
        }
        if scheme.is_user_level() {
            h.credits = self.credits.take_piggyback();
            self.stats.credits_piggybacked.add(u64::from(h.credits));
            // An optimistic ECM bypasses flow control only to carry returns.
            debug_assert!(
                h.kind != MsgKind::Credit || mode != CreditMsgMode::Optimistic || h.credits > 0,
                "an optimistic credit message carries no credits"
            );
        }
        if scheme.uses_ring() {
            h.ring_credits = self.ring.take_piggyback();
        }
        // The armed ring-backlog bit rides whatever frame leaves next.
        if self.ring_backlog_pending {
            self.ring_backlog_pending = false;
            h.ring_backlog = true;
        }
        h.seq = self.next_seq();
        h
    }

    /// The image of this endpoint's credit mailbox at the peer: takes both
    /// windows' whole pending returns as cumulative counts and, for a ring
    /// that may grow (`growth`), adds the growth words — the offered ring
    /// (generation, rkey, slot count) and the highest peer generation
    /// adopted (the ack, which this write settles). Only
    /// [`MpiRank::send_rdma_credit_update`] calls it, and posts the image.
    fn mailbox_image(&mut self, growth: bool) -> Arc<[u8]> {
        if growth {
            self.ring_gen_ack_pending = false;
        }
        let mut image = [0u8; 32];
        image[..8].copy_from_slice(&self.credits.take_mailbox_return().to_le_bytes());
        image[8..16].copy_from_slice(&self.ring.take_mailbox_return().to_le_bytes());
        let live = self.live_ring();
        image[16..20].copy_from_slice(&live.gen.to_le_bytes());
        image[20..24].copy_from_slice(&live.mr.as_raw().to_le_bytes());
        image[24..28].copy_from_slice(&live.slots.to_le_bytes());
        image[28..].copy_from_slice(&self.peer_ring_gen.to_le_bytes());
        Arc::from(&image[..if growth { 32 } else { 16 }])
    }
}

impl MpiRank {
    /// Stamps `header` toward `peer` ([`Conn::stamp`]: the unit the frame
    /// consumes, both piggybacks, the sequence number) and posts it with
    /// `payload` on `lane`: as a send into the peer's receive slab, its
    /// completion tagged `lane`, or — for [`WrKind::RingWrite`] — as an
    /// RDMA WRITE into the next slot of the peer's eager ring.
    pub(crate) fn post_frame(
        &mut self,
        peer: Rank,
        header: MsgHeader,
        payload: &[u8],
        lane: WrKind,
    ) {
        let ring = lane == WrKind::RingWrite;
        let (scheme, mode) = (self.cfg.scheme, self.cfg.credit_msg_mode);
        let header = self.conn_mut(peer).stamp(header, scheme, mode, ring);
        if self.conn(peer).failed {
            // Dropped, not queued: the peer is unreachable and the error
            // QP would reject the post. Callers learn the outcome through
            // the request's `failed` flag, set by teardown.
            return;
        }
        #[expect(
            clippy::expect_used,
            reason = "src_rank < nprocs <= u16::MAX is asserted at world bootstrap, so framing cannot overflow a field"
        )]
        let frame = if ring {
            header.ring_frame(payload)
        } else {
            header.frame(payload)
        }
        .expect("header fields fit");
        let op = if ring {
            let buf_size = self.cfg.buf_size;
            let c = self.conn_mut(peer);
            // Per-connection slot count: growth re-sizes the peer's ring
            // at run time, so the config value is only the initial size.
            let slot = c.ring_write_slot;
            c.ring_write_slot = (slot + 1) % c.peer_ring_slots;
            SendOp::RdmaWrite {
                payload: frame,
                rkey: c.peer_ring,
                remote_offset: slot as usize * buf_size,
            }
        } else {
            SendOp::Send { payload: frame }
        };
        self.post_send_wr(peer, encode_wrid(lane, peer as u64), op, 1);
        self.outstanding_ctrl += 1;
    }

    /// RDMA credit path: writes [`Conn::mailbox_image`] — the cumulative
    /// returns, plus the growth words when the ring may grow — into the
    /// peer's mailbox. Cumulative counters and whole-image words make every
    /// write idempotent, so a retransmitted or overtaken update is harmless.
    pub(crate) fn send_rdma_credit_update(&mut self, peer: Rank) {
        let growth = self.cfg.ring_cap() > self.cfg.rdma_ring_slots;
        let c = self.conn_mut(peer);
        let op = SendOp::RdmaWrite {
            payload: c.mailbox_image(growth),
            rkey: c.peer_mailbox,
            remote_offset: 0,
        };
        c.stats.rdma_credit_updates.incr();
        self.post_send_wr(peer, encode_wrid(WrKind::CreditRdma, peer as u64), op, 1);
        self.outstanding_ctrl += 1;
    }

    /// Posts `op` toward `peer` as one signaled send work request tagged
    /// `wr_id`, charges `posts` software post costs (a rendezvous WRITE
    /// charges two) and counts the message sent: the one post of a send
    /// work request in `mpib`.
    pub(crate) fn post_send_wr(&mut self, peer: Rank, wr_id: u64, op: SendOp, posts: u64) {
        let qp = self.conn(peer).qp;
        let cost = self.proc.with(|ctx| {
            #[expect(
                clippy::expect_used,
                reason = "callers post only on a healthy established QP, and credits, ring slots, the request table and the finalize drain bound its send queue, so a rejected post is a simulator bug"
            )]
            ibfabric::post_send(
                ctx,
                qp,
                SendWr {
                    wr_id,
                    op,
                    signaled: true,
                },
            )
            .expect("post_send");
            ctx.world.params().sw_post_cost * posts
        });
        self.charge(cost);
        self.conn_mut(peer).stats.msgs_sent.incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::prop::{check, shrink, Case, Gen};

    /// A user-static connection with its initial grant taken back, so
    /// each test starts from empty windows.
    fn conn() -> Conn {
        let cfg = MpiConfig::scheme(FlowControlScheme::UserStatic, 4);
        let mut c = Conn::establish(2, &cfg, 0, 1);
        c.credits = CreditWindow::default();
        c
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

    /// Both halves of the metering rule over every frame the protocol can
    /// post, and what the stamp takes for each: exactly the unit the rule
    /// names, plus both piggybacks, with both windows conserved.
    #[test]
    fn metering_rule_over_every_kind_scheme_and_credit_mode() {
        use CreditMsgMode as M;
        use FlowControlScheme as S;
        use MsgKind as K;
        for scheme in S::ALL {
            let user = scheme != S::Hardware;
            for mode in [M::Optimistic, M::Rdma, M::NaiveGated] {
                for kind in [K::Eager, K::RndzStart, K::RndzReply, K::RndzFin, K::Credit] {
                    for no_credit in [false, true] {
                        let case = format!("{scheme:?} {mode:?} {kind:?} no_credit={no_credit}");
                        let mut h = MsgHeader::new(kind, 0);
                        h.no_credit = no_credit;
                        let spends = spends_credit(scheme, mode, &h);
                        let earns = earns_return(scheme, kind);
                        let table = match kind {
                            K::Eager => true,
                            K::RndzStart => !no_credit,
                            K::Credit => mode == M::NaiveGated,
                            K::RndzReply | K::RndzFin => false,
                        };
                        assert_eq!(spends, user && table, "{case}");
                        assert_eq!(
                            earns,
                            user && matches!(kind, K::Eager | K::RndzStart),
                            "{case}"
                        );
                        // A spent credit comes back, except the one the
                        // deliberately broken gated ECM spends; a return
                        // without a spend is the optimistic loan.
                        if spends && !earns {
                            assert!(kind == K::Credit && mode == M::NaiveGated, "{case}");
                        }
                        if earns && !spends {
                            assert!(kind == K::RndzStart && no_credit, "{case}");
                        }

                        let mut c = conn();
                        c.credits.grant(1);
                        c.credits.owe(2);
                        c.ring.grant(1);
                        c.ring.owe(3);
                        let slab = c.stamp(h, scheme, mode, false);
                        assert_eq!(c.credits.held, u32::from(!spends), "{case}");
                        assert_eq!(c.ring.held, 1, "{case}");
                        assert_eq!(slab.credits, if user { 2 } else { 0 }, "{case}");
                        assert_eq!(slab.ring_credits, if scheme.uses_ring() { 3 } else { 0 });
                        c.credits.owe(1);
                        let ring = c.stamp(h, scheme, mode, true);
                        assert_eq!(c.ring.held, 0, "a ring frame spends a ring slot: {case}");
                        assert_eq!(c.credits.held, u32::from(!spends), "{case}");
                        assert_eq!((slab.seq, ring.seq), (0, 1));
                        c.assert_conserved();
                    }
                }
            }
        }
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
