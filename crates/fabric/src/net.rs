//! Link and switch occupancy model.
//!
//! The testbed topology is N hosts on one crossbar switch. Each host has a
//! full-duplex link: an *ingress* port (host → switch) whose occupancy is
//! tracked by the sender node's transmit resource, and an *egress* port
//! (switch → host) tracked here. Packets cut through the switch after a
//! fixed crossing delay and then serialize on the destination's egress
//! port in FCFS order — which is where incast contention (e.g. the NAS
//! all-to-alls) shows up.

use crate::fabric::NodeId;
use crate::params::FabricParams;
use ibsim::{SimDuration, SimTime};

/// Per-destination egress port occupancy.
#[derive(Debug)]
pub struct Net {
    egress_busy_until: Vec<SimTime>,
}

impl Net {
    pub(crate) fn new(nodes: usize) -> Self {
        Net {
            egress_busy_until: vec![SimTime::ZERO; nodes],
        }
    }

    pub(crate) fn add_node(&mut self) {
        self.egress_busy_until.push(SimTime::ZERO);
    }

    /// Routes one packet that finished serializing out of the source host
    /// at `tx_done`, destined for `dst`, and takes `serialize` (its
    /// [`FabricParams::serialize_time`], which the caller computes once
    /// per packet size) to cross the egress port. Returns the instant the
    /// packet has fully arrived at the destination HCA.
    pub(crate) fn route_packet(
        &mut self,
        params: &FabricParams,
        dst: NodeId,
        tx_done: SimTime,
        serialize: SimDuration,
    ) -> SimTime {
        let sw_in = tx_done + params.prop_delay + params.switch_delay;
        let busy = &mut self.egress_busy_until[dst.index()];
        let egress_start = sw_in.max(*busy);
        let egress_done = egress_start + serialize;
        *busy = egress_done;
        egress_done + params.prop_delay
    }

    /// All egress horizons in node order (checkpoint encode).
    pub(crate) fn egress_horizons(&self) -> &[SimTime] {
        &self.egress_busy_until
    }

    /// Replaces the egress horizons (checkpoint restore). The caller has
    /// already recreated the nodes, so the lengths must agree.
    pub(crate) fn restore_egress(&mut self, horizons: Vec<SimTime>) {
        debug_assert_eq!(horizons.len(), self.egress_busy_until.len());
        self.egress_busy_until = horizons;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_packet_timing() {
        let params = FabricParams::mt23108();
        let mut net = Net::new(2);
        let t0 = SimTime::from_nanos(1_000);
        let arrival = net.route_packet(&params, NodeId(1), t0, params.serialize_time(1024));
        let expect = t0
            + params.prop_delay
            + params.switch_delay
            + params.serialize_time(1024)
            + params.prop_delay;
        assert_eq!(arrival, expect);
    }

    #[test]
    fn egress_contention_serializes() {
        let params = FabricParams::mt23108();
        let mut net = Net::new(3);
        let t0 = SimTime::from_nanos(0);
        // Two packets from different sources to node 2 at the same instant:
        // the second serializes after the first on the shared egress port.
        let serialize = params.serialize_time(2048);
        let a1 = net.route_packet(&params, NodeId(2), t0, serialize);
        let a2 = net.route_packet(&params, NodeId(2), t0, serialize);
        assert!(a2 > a1);
        assert_eq!(
            a2.since(a1),
            serialize,
            "second packet delayed by exactly one serialization"
        );
        // A packet to a different node is unaffected.
        let b = net.route_packet(&params, NodeId(1), t0, serialize);
        assert_eq!(b, a1);
    }
}
