//! Fabric-level and per-QP statistics.

use ibsim::stats::{Counter, Peak};

/// Per-QP transport statistics.
#[derive(Clone, Debug, Default)]
pub struct QpStats {
    /// Two-sided send messages launched (including retransmissions).
    pub sends_launched: Counter,
    /// RDMA write messages launched.
    pub rdma_writes: Counter,
    /// Payload bytes launched in the request direction (incl. retransmits).
    pub bytes_launched: Counter,
    /// Messages retransmitted after an RNR NAK (go-back-N re-launches).
    pub retransmissions: Counter,
    /// RNR NAKs this QP *generated* as a responder.
    pub rnr_naks_sent: Counter,
    /// RNR NAKs this QP *received* as a requester.
    pub rnr_naks_received: Counter,
    /// ACKs received.
    pub acks_received: Counter,
    /// Messages launched with zero advertised credits (probes).
    pub zero_credit_probes: Counter,
    /// ACK timeouts suffered as a requester (each triggers a go-back-N
    /// retransmission and burns one unit of the message's `retry_cnt`).
    pub ack_timeouts: Counter,
    /// Peak messages in flight at once.
    pub peak_inflight: Peak,
}

/// Aggregate fabric statistics.
#[derive(Clone, Debug, Default)]
pub struct FabricStats {
    /// Total messages delivered to responders.
    pub msgs_delivered: Counter,
    /// Total payload bytes delivered.
    pub bytes_delivered: Counter,
    /// Total RNR NAKs generated fabric-wide.
    pub rnr_naks: Counter,
    /// Total retransmitted messages fabric-wide.
    pub retransmissions: Counter,
    /// Total completions generated.
    pub cqes: Counter,
    /// Messages lost to injected packet drops (fault plan).
    pub msgs_dropped: Counter,
    /// Messages lost to injected packet corruption (fault plan).
    pub msgs_corrupted: Counter,
    /// Messages lost inside scheduled link-flap windows (also counted in
    /// `msgs_dropped`).
    pub flap_drops: Counter,
    /// ACK/NAK control packets given extra injected delay (fault plan).
    pub acks_delayed: Counter,
    /// ACK timeouts fabric-wide (go-back-N recovery events).
    pub ack_timeouts: Counter,
    /// Duplicate deliveries suppressed at responders (a retransmitted
    /// message whose original already arrived is re-ACKed without
    /// consuming a receive WQE, keeping credit ledgers conserved).
    pub dup_suppressed: Counter,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_zero() {
        let s = QpStats::default();
        assert_eq!(s.sends_launched.get(), 0);
        assert_eq!(s.peak_inflight.get(), 0);
        let f = FabricStats::default();
        assert_eq!(f.msgs_delivered.get(), 0);
    }
}
