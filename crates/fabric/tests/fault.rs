//! Integration tests for the fault-injection plane and the transport's
//! recovery machinery: ACK-timeout retransmission, retry exhaustion,
//! duplicate suppression, and the guarantee that an inert plan perturbs
//! nothing.

use ibfabric::*;
use ibsim::{Sim, SimConfig, SimDuration, SimTime};

/// Two connected nodes with a fault plan installed before the clock
/// starts; the plan builder gets the node ids so tests can scope flaps
/// to a single link direction.
struct FaultPair {
    sim: Sim<Fabric>,
    cq_a: CqId,
    cq_b: CqId,
    qp_a: QpId,
    qp_b: QpId,
    mr_b: MrId,
}

fn fault_pair(
    params: FabricParams,
    attrs: QpAttrs,
    preposted_b: usize,
    plan: impl FnOnce(NodeId, NodeId) -> Option<FaultPlan>,
) -> FaultPair {
    let mut fabric = Fabric::new(params);
    let node_a = fabric.add_node();
    let node_b = fabric.add_node();
    if let Some(p) = plan(node_a, node_b) {
        fabric.set_fault_plan(p);
    }
    let cq_a = fabric.create_cq(node_a);
    let cq_b = fabric.create_cq(node_b);
    let qp_a = fabric.create_qp(node_a, cq_a, cq_a, attrs);
    let qp_b = fabric.create_qp(node_b, cq_b, cq_b, attrs);
    let mr_b = fabric.register(node_b, 1 << 20, Access::FULL);
    for i in 0..preposted_b {
        fabric
            .post_recv(
                qp_b,
                RecvWr {
                    wr_id: 1000 + i as u64,
                    mr: mr_b,
                    offset: i * 4096,
                    len: 4096,
                },
            )
            .unwrap();
    }
    let sim = Sim::new(fabric, SimConfig::default());
    sim.with_world(|ctx| connect(ctx, qp_a, qp_b));
    FaultPair {
        sim,
        cq_a,
        cq_b,
        qp_a,
        qp_b,
        mr_b,
    }
}

/// An inert plan (all rates zero, no windows) must not change virtual
/// time by a nanosecond: the retry timers it would arm are gated on
/// `enabled()`, which is what keeps every golden byte-identical.
#[test]
fn inert_plan_leaves_timing_untouched() {
    let run = |with_plan: bool| -> (SimTime, usize) {
        let mut p = fault_pair(FabricParams::mt23108(), QpAttrs::default(), 8, |_, _| {
            with_plan.then(|| FaultPlan::new(99))
        });
        p.sim.with_world(|ctx| {
            for i in 0..8u64 {
                post_send(ctx, p.qp_a, SendWr::inline_send(i, vec![i as u8; 512])).unwrap();
            }
        });
        let report = p.sim.run().unwrap();
        let mut f = p.sim.into_world();
        let recvs = f.poll_cq(p.cq_b, 64).len();
        (report.end_time, recvs)
    };
    let (t_clean, n_clean) = run(false);
    let (t_inert, n_inert) = run(true);
    assert_eq!(n_clean, 8);
    assert_eq!(t_clean, t_inert, "inert fault plan changed virtual time");
    assert_eq!(n_clean, n_inert);
}

/// A message lost inside a link-flap window is recovered by the ACK
/// timeout: the requester retransmits after the timer fires and the
/// payload lands once the window closes.
#[test]
fn flap_window_loss_recovers_via_ack_timeout() {
    let mut p = fault_pair(FabricParams::mt23108(), QpAttrs::default(), 4, |a, b| {
        Some(FaultPlan::new(7).with_flap(LinkFlap {
            scope: FlapScope::Link { src: a, dst: b },
            from: SimTime::ZERO,
            until: SimTime::from_nanos(100_000),
        }))
    });
    p.sim.with_world(|ctx| {
        post_send(ctx, p.qp_a, SendWr::inline_send(1, vec![0xAB; 900])).unwrap();
    });
    p.sim.run().unwrap();
    let mut f = p.sim.into_world();

    let recvs = f.poll_cq(p.cq_b, 16);
    assert_eq!(recvs.len(), 1, "payload never recovered");
    assert!(recvs[0].is_success());
    assert_eq!(&f.mr_bytes(p.mr_b)[..900], &[0xAB; 900][..]);
    let sends = f.poll_cq(p.cq_a, 16);
    assert_eq!(sends.len(), 1);
    assert!(sends[0].is_success());

    assert!(f.stats.flap_drops.get() >= 1, "flap never dropped anything");
    assert!(f.qp(p.qp_a).stats.ack_timeouts.get() >= 1);
    assert!(f.qp(p.qp_a).stats.retransmissions.get() >= 1);
    assert_eq!(f.qp(p.qp_a).state(), QpState::ReadyToSend);
}

/// With every packet dropped and a finite `retry_cnt`, the requester
/// burns its budget and fails the QP with `TransportRetryExceeded`; the
/// peer QP follows into the error state and flushes its receives.
#[test]
fn retry_exhaustion_fails_both_qps_with_typed_status() {
    let attrs = QpAttrs {
        retry_cnt: Some(2),
        ..QpAttrs::default()
    };
    let mut p = fault_pair(FabricParams::mt23108(), attrs, 2, |_, _| {
        Some(FaultPlan::new(11).with_drop(1.0))
    });
    p.sim.with_world(|ctx| {
        post_send(ctx, p.qp_a, SendWr::inline_send(1, vec![1u8; 256])).unwrap();
    });
    p.sim.run().unwrap();
    let mut f = p.sim.into_world();

    let sends = f.poll_cq(p.cq_a, 16);
    assert_eq!(sends.len(), 1);
    assert_eq!(sends[0].wr_id, 1);
    assert_eq!(sends[0].status, CqeStatus::TransportRetryExceeded);
    assert_eq!(
        sends[0].status.to_string(),
        "transport retry exceeded (wc status 12)"
    );
    // Budget 2 => original + 2 retries, failing on the third timeout.
    assert_eq!(f.qp(p.qp_a).stats.ack_timeouts.get(), 3);
    assert_eq!(f.qp(p.qp_a).stats.retransmissions.get(), 2);
    assert_eq!(f.qp(p.qp_a).state(), QpState::Error);
    assert_eq!(f.qp(p.qp_b).state(), QpState::Error);

    // The peer's posted receives flushed.
    let recvs = f.poll_cq(p.cq_b, 16);
    assert_eq!(recvs.len(), 2);
    for c in &recvs {
        assert_eq!(c.status, CqeStatus::WorkRequestFlushed);
    }
}

/// An ACK delayed past the ACK timeout makes the requester retransmit a
/// message the responder already delivered: the duplicate must be
/// re-ACKed without consuming a second receive WQE.
#[test]
fn duplicate_delivery_is_suppressed() {
    let mut p = fault_pair(FabricParams::mt23108(), QpAttrs::default(), 4, |_, _| {
        Some(FaultPlan::new(3).with_ack_delay(1.0, SimDuration::micros(400)))
    });
    p.sim.with_world(|ctx| {
        post_send(ctx, p.qp_a, SendWr::inline_send(5, vec![9u8; 128])).unwrap();
    });
    p.sim.run().unwrap();
    let mut f = p.sim.into_world();

    let recvs = f.poll_cq(p.cq_b, 16);
    assert_eq!(recvs.len(), 1, "duplicate consumed a second receive WQE");
    assert!(recvs[0].is_success());
    let sends = f.poll_cq(p.cq_a, 16);
    assert_eq!(sends.len(), 1);
    assert!(sends[0].is_success());

    assert!(f.stats.acks_delayed.get() >= 1);
    assert!(f.stats.dup_suppressed.get() >= 1);
    assert!(f.qp(p.qp_a).stats.ack_timeouts.get() >= 1);
    assert_eq!(f.stats.msgs_delivered.get(), 1, "duplicate double-counted");
}

/// Random per-link drop with infinite retry budgets: every message still
/// gets through (possibly late), nothing is double-delivered, and the
/// recovery counters light up. Exercises drop + corruption + duplicate
/// suppression together under the seeded RNG.
#[test]
fn lossy_link_delivers_everything_exactly_once() {
    let attrs = QpAttrs {
        retry_cnt: None, // retry forever
        ..QpAttrs::default()
    };
    let n = 24usize;
    let mut p = fault_pair(FabricParams::mt23108(), attrs, n, |_, _| {
        Some(FaultPlan::new(0xD1CE).with_drop(0.12).with_corrupt(0.05))
    });
    p.sim.with_world(|ctx| {
        for i in 0..n as u64 {
            post_send(
                ctx,
                p.qp_a,
                SendWr::inline_send(i, vec![i as u8; 200 + i as usize]),
            )
            .unwrap();
        }
    });
    p.sim.run().unwrap();
    let mut f = p.sim.into_world();

    let recvs = f.poll_cq(p.cq_b, 64);
    assert_eq!(recvs.len(), n, "lost or duplicated deliveries");
    for (i, c) in recvs.iter().enumerate() {
        assert!(c.is_success());
        assert_eq!(c.wr_id, 1000 + i as u64, "delivery order violated");
        assert_eq!(c.byte_len, 200 + i);
    }
    let sends = f.poll_cq(p.cq_a, 64);
    assert_eq!(sends.len(), n);
    assert!(sends.iter().all(Cqe::is_success));
    assert_eq!(f.stats.msgs_delivered.get(), n as u64);
    assert!(f.stats.msgs_dropped.get() + f.stats.msgs_corrupted.get() >= 1);
    assert!(f.qp(p.qp_a).stats.retransmissions.get() >= 1);
    assert_eq!(f.qp(p.qp_a).state(), QpState::ReadyToSend);
}
