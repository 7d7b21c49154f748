//! MPI-layer statistics: the raw material for the paper's Tables 1 and 2,
//! plus the credit-conservation ledger and fault records the chaos battery
//! asserts on in release builds.

use crate::fault::FabricFault;
use ibsim::stats::{Counter, Peak};

/// Per-connection counters at one endpoint.
#[derive(Clone, Debug, Default)]
pub struct ConnStats {
    /// Messages of any kind sent to the peer (data + control).
    pub msgs_sent: Counter,
    /// Eager data messages sent.
    pub eager_sent: Counter,
    /// Eager frames sent through the RDMA ring channel (design \[13\]).
    pub ring_sent: Counter,
    /// Rendezvous operations started.
    pub rndz_sent: Counter,
    /// Explicit credit messages sent (Table 1 numerator).
    pub ecm_sent: Counter,
    /// Credit updates written via RDMA (RDMA credit mode).
    pub rdma_credit_updates: Counter,
    /// Send operations that had to wait in the backlog queue.
    pub backlogged: Counter,
    /// Credits returned to the peer by piggybacking.
    pub credits_piggybacked: Counter,
    /// Maximum buffers ever posted for this connection (Table 2).
    pub max_posted: Peak,
    /// Pool-growth events triggered by backlog feedback (dynamic scheme).
    pub growth_events: Counter,
    /// Ring-growth events: larger rings registered and published through
    /// the mailbox ([`crate::FlowControlScheme::RdmaChannelDyn`]).
    pub ring_growth_events: Counter,
    /// Old ring generations fully drained and retired after a growth.
    pub rings_retired: Counter,
    /// Highest ring generation this endpoint's receive ring reached.
    pub ring_generation: Peak,

    // ---- conservation ledger snapshot (copied from `Conn` at finish,
    //      so release builds can assert what debug builds check every
    //      progress sweep) ----
    /// Cumulative credits granted by the peer (initial pool + returns).
    pub credits_granted: Counter,
    /// Cumulative credits spent sending.
    pub credits_spent: Counter,
    /// Credits still held when the rank finished.
    pub credits_held: Counter,
    /// Cumulative peer-owed credits accrued (buffers consumed + growth).
    pub credits_consumed: Counter,
    /// Cumulative credits returned to the peer.
    pub credits_returned: Counter,
    /// Credits still owed (accrued but unreturned) when the rank finished.
    pub credits_pending: Counter,

    // ---- ring-slot ledger snapshot (RDMA eager channel; all zero for
    //      the send/recv schemes) ----
    /// Cumulative ring slots granted by the peer (initial ring + returns).
    pub ring_granted: Counter,
    /// Cumulative ring slots spent on ring frames.
    pub ring_spent: Counter,
    /// Ring slots still held when the rank finished.
    pub ring_held: Counter,
    /// Cumulative peer-owed ring slots accrued (ring frames consumed).
    pub ring_consumed: Counter,
    /// Cumulative ring slots returned to the peer.
    pub ring_returned: Counter,
    /// Ring slots still owed (accrued but unreturned) at finish.
    pub ring_pending: Counter,
}

impl ConnStats {
    /// Both local conservation invariants, checked against the final
    /// ledger snapshot: every credit granted was spent or is still held,
    /// and every credit owed was returned or is still pending. Holds for
    /// a zeroed (self-slot or hardware-scheme) entry trivially.
    pub fn ledger_conserved(&self) -> bool {
        self.credits_granted.get() == self.credits_spent.get() + self.credits_held.get()
            && self.credits_consumed.get()
                == self.credits_returned.get() + self.credits_pending.get()
            && self.ring_granted.get() == self.ring_spent.get() + self.ring_held.get()
            && self.ring_consumed.get() == self.ring_returned.get() + self.ring_pending.get()
    }
}

/// Per-rank statistics (all connections plus rank-wide counters).
#[derive(Clone, Debug, Default)]
pub struct RankStats {
    /// One entry per peer (the self entry stays zeroed).
    pub conns: Vec<ConnStats>,
    /// Messages received and processed by the progress engine.
    pub msgs_received: Counter,
    /// Eager payload bytes sent.
    pub eager_bytes: Counter,
    /// Rendezvous payload bytes sent.
    pub rndz_bytes: Counter,
    /// Messages that arrived with no matching posted receive.
    pub unexpected_msgs: Counter,
    /// Pin-down cache hits.
    pub regcache_hits: Counter,
    /// Pin-down cache misses (registrations performed).
    pub regcache_misses: Counter,
    /// Fabric failures this rank observed, in the order the progress
    /// engine tore the affected connections down (empty on clean runs).
    pub faults: Vec<FabricFault>,
}

impl RankStats {
    /// Total explicit credit messages sent by this rank.
    pub fn total_ecm(&self) -> u64 {
        self.conns.iter().map(|c| c.ecm_sent.get()).sum()
    }

    /// Total messages sent by this rank (data + control).
    pub fn total_msgs_sent(&self) -> u64 {
        self.conns.iter().map(|c| c.msgs_sent.get()).sum()
    }

    /// Largest per-connection posted-buffer peak at this rank (Table 2).
    pub fn max_posted_any_conn(&self) -> u64 {
        self.conns
            .iter()
            .map(|c| c.max_posted.get())
            .max()
            .unwrap_or(0)
    }
}

/// World-level aggregation across ranks, used by the reporting harness.
#[derive(Clone, Debug, Default)]
pub struct WorldStats {
    /// Per-rank statistics.
    pub ranks: Vec<RankStats>,
    /// Checkpoint restores this world has been through (0 for a run
    /// started fresh, `n` when the driver resumed it from a snapshot `n`
    /// times).
    pub restores: u64,
    /// Ranks that rejoined the world as elastic replacements (fresh state
    /// re-seeded from survivors' snapshots).
    pub rejoined_ranks: u64,
}

impl WorldStats {
    /// Average explicit credit messages per connection per process
    /// (Table 1, column "# ECM Msg").
    pub fn avg_ecm_per_connection(&self) -> f64 {
        let nranks = self.ranks.len().max(1);
        let conns = (nranks * nranks.saturating_sub(1)).max(1);
        let total: u64 = self.ranks.iter().map(|r| r.total_ecm()).sum();
        total as f64 / conns as f64
    }

    /// Average total messages per connection per process
    /// (Table 1, column "# Total Msg").
    pub fn avg_msgs_per_connection(&self) -> f64 {
        let nranks = self.ranks.len().max(1);
        let conns = (nranks * nranks.saturating_sub(1)).max(1);
        let total: u64 = self.ranks.iter().map(|r| r.total_msgs_sent()).sum();
        total as f64 / conns as f64
    }

    /// Maximum posted buffers for any connection at any process (Table 2).
    pub fn max_posted_buffers(&self) -> u64 {
        self.ranks
            .iter()
            .map(|r| r.max_posted_any_conn())
            .max()
            .unwrap_or(0)
    }

    /// True when every connection's final credit ledger is conserved —
    /// the release-build form of the per-sweep debug assertion, used by
    /// the chaos battery to prove fault recovery never leaked a credit.
    pub fn all_ledgers_conserved(&self) -> bool {
        self.ranks
            .iter()
            .all(|r| r.conns.iter().all(|c| c.ledger_conserved()))
    }

    /// Total fabric faults observed across all ranks.
    pub fn total_faults(&self) -> usize {
        self.ranks.iter().map(|r| r.faults.len()).sum()
    }

    /// One-line recovery summary: every counter an operator reads first
    /// when judging whether a faulty or restored run healed itself. The
    /// transport-level half comes from the fabric's aggregate statistics.
    pub fn summary_line(&self, fabric: &ibfabric::FabricStats) -> String {
        format!(
            "recovery: retransmissions={} ack_timeouts={} rnr_naks={} dup_suppressed={} \
             faults_observed={} restores={} rejoined_ranks={} ledgers_conserved={}",
            fabric.retransmissions.get(),
            fabric.ack_timeouts.get(),
            fabric.rnr_naks.get(),
            fabric.dup_suppressed.get(),
            self.total_faults(),
            self.restores,
            self.rejoined_ranks,
            self.all_ledgers_conserved(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_extractors() {
        let mut ws = WorldStats {
            ranks: vec![
                RankStats {
                    conns: vec![ConnStats::default(); 2],
                    ..Default::default()
                };
                2
            ],
            ..Default::default()
        };
        ws.ranks[0].conns[1].ecm_sent.add(4);
        ws.ranks[0].conns[1].msgs_sent.add(10);
        ws.ranks[1].conns[0].msgs_sent.add(30);
        ws.ranks[1].conns[0].max_posted.observe(63);
        ws.ranks[0].conns[1].max_posted.observe(7);
        // 2 ranks -> 2 directed connections.
        assert!((ws.avg_ecm_per_connection() - 2.0).abs() < 1e-12);
        assert!((ws.avg_msgs_per_connection() - 20.0).abs() < 1e-12);
        assert_eq!(ws.max_posted_buffers(), 63);
    }

    #[test]
    fn empty_world_is_safe() {
        let ws = WorldStats::default();
        assert_eq!(ws.avg_ecm_per_connection(), 0.0);
        assert_eq!(ws.max_posted_buffers(), 0);
    }
}
