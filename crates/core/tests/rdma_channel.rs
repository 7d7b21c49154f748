//! The RDMA-based eager channel (the paper's companion design [13]):
//! correctness, ordering across channels, flow control, and the latency
//! advantage over the send/receive-based design.

use ibfabric::FabricParams;
use mpib::{CreditMsgMode, FlowControlScheme, MpiConfig, MpiWorld};

fn channel_cfg(ring_slots: u32) -> MpiConfig {
    MpiConfig {
        rdma_ring_slots: ring_slots,
        ..MpiConfig::scheme(FlowControlScheme::RdmaChannel, 10)
    }
}

#[test]
fn roundtrip_over_the_ring() {
    let out = MpiWorld::run(2, channel_cfg(8), FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            mpi.send(b"ring ping", 1, 1).await;
            let (_, d) = mpi.recv(Some(1), Some(2)).await;
            d
        } else {
            let (_, d) = mpi.recv(Some(0), Some(1)).await;
            assert_eq!(d, b"ring ping");
            mpi.send(b"ring pong", 0, 2).await;
            d
        }
    })
    .unwrap();
    assert_eq!(out.results[0], b"ring pong");
    // Frames travelled through the ring, not the receive queues.
    assert!(out.stats.ranks[0].conns[1].ring_sent.get() >= 1);
    assert_eq!(out.stats.ranks[0].conns[1].eager_sent.get(), 0);
}

#[test]
fn ordering_and_integrity_through_ring_wraparound() {
    // Far more messages than ring slots: slots recycle many times and the
    // credit mailbox keeps the sender fed.
    let count = 200u32;
    let out = MpiWorld::run(
        2,
        channel_cfg(4),
        FabricParams::mt23108(),
        async move |mpi| {
            if mpi.rank() == 0 {
                for i in 0..count {
                    mpi.send(&i.to_le_bytes(), 1, 0).await;
                }
                Vec::new()
            } else {
                let mut got = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    let (_, d) = mpi.recv(Some(0), Some(0)).await;
                    got.push(u32::from_le_bytes(d.try_into().unwrap()));
                }
                got
            }
        },
    )
    .unwrap();
    assert_eq!(out.results[1], (0..count).collect::<Vec<u32>>());
}

#[test]
fn mixed_ring_and_rendezvous_traffic_stays_ordered() {
    // Alternate small (ring) and large (rendezvous via control channel)
    // messages on the same tag: the per-connection sequence gate must
    // deliver them in send order.
    let out = MpiWorld::run(2, channel_cfg(8), FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            for i in 0..20usize {
                let size = if i % 2 == 0 { 16 } else { 5000 };
                let payload = vec![i as u8; size];
                mpi.send(&payload, 1, 3).await;
            }
            true
        } else {
            for i in 0..20usize {
                let (st, d) = mpi.recv(Some(0), Some(3)).await;
                let expect = if i % 2 == 0 { 16 } else { 5000 };
                assert_eq!(st.len, expect, "message {i} out of order");
                assert!(d.iter().all(|&b| b == i as u8), "message {i} corrupted");
            }
            true
        }
    })
    .unwrap();
    assert!(out.results.iter().all(|&b| b));
}

#[test]
fn ring_full_converts_to_rendezvous() {
    // A burst bigger than the ring with a sleeping receiver: the overflow
    // converts to rendezvous (backlogged) instead of overwriting slots.
    let out = MpiWorld::run(2, channel_cfg(4), FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            let reqs: Vec<_> = (0..20u32)
                .map(|i| mpi.isend(&i.to_le_bytes(), 1, 0))
                .collect();
            mpi.waitall(&reqs).await;
            0
        } else {
            mpi.compute(ibsim::SimDuration::millis(1)).await;
            let mut sum = 0u64;
            for _ in 0..20 {
                let (_, d) = mpi.recv(Some(0), Some(0)).await;
                sum += u32::from_le_bytes(d.try_into().unwrap()) as u64;
            }
            sum
        }
    })
    .unwrap();
    assert_eq!(out.results[1], (0..20).sum::<u32>() as u64);
    let c = &out.stats.ranks[0].conns[1];
    assert!(c.ring_sent.get() >= 4, "the ring took the first burst");
    assert!(
        c.rndz_sent.get() >= 1,
        "overflow must convert to rendezvous"
    );
}

#[test]
fn latency_beats_send_recv_design() {
    // The headline claim of the companion design [13]: ~6.8us vs ~7.5us.
    let lat = |cfg: MpiConfig| -> f64 {
        let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
            let peer = 1 - mpi.rank();
            let mut total = 0u64;
            let iters = 40;
            for it in 0..4 + iters {
                let t0 = mpi.now();
                if mpi.rank() == 0 {
                    mpi.send(&[0u8; 4], peer, 1).await;
                    let _ = mpi.recv(Some(peer), Some(1)).await;
                } else {
                    let _ = mpi.recv(Some(peer), Some(1)).await;
                    mpi.send(&[0u8; 4], peer, 1).await;
                }
                if it >= 4 {
                    total += mpi.now().since(t0).as_nanos();
                }
            }
            total as f64 / (2.0 * iters as f64) / 1000.0
        })
        .unwrap();
        out.results[0]
    };
    let send_recv = lat(MpiConfig::scheme(FlowControlScheme::UserStatic, 100));
    let ring = lat(channel_cfg(32));
    assert!(
        ring < send_recv - 0.4,
        "RDMA channel ({ring:.2}us) should clearly beat send/recv ({send_recv:.2}us)"
    );
    assert!(
        (6.2..7.4).contains(&ring),
        "RDMA channel latency {ring:.2}us should land near the paper's 6.8us"
    );
}

/// RdmaChannelDyn with explicit growth knobs: a small bootstrap ring so
/// bursts starve it quickly, and a low feedback threshold so the growth
/// trigger fires within one round.
fn dyn_cfg(initial: u32, max: u32, threshold: u32) -> MpiConfig {
    MpiConfig {
        rdma_ring_slots: initial,
        rdma_ring_max_slots: max,
        rdma_ring_growth_threshold: threshold,
        ..MpiConfig::scheme(FlowControlScheme::RdmaChannelDyn, 4)
    }
}

#[test]
fn dynamic_ring_grows_under_burst_and_retires_the_old_generation() {
    // Repeated bursts against a 2-slot ring: conversions cross the
    // threshold, the receiver grows the ring through the mailbox, the
    // sender adopts it, and the displaced generation drains and retires.
    // Delivery stays exactly-once and in order across every switch.
    let rounds = 8u32;
    let per_round = 30u32;
    let out = MpiWorld::run(
        2,
        dyn_cfg(2, 64, 3),
        FabricParams::mt23108(),
        async move |mpi| {
            if mpi.rank() == 0 {
                let mut next = 0u32;
                for _ in 0..rounds {
                    let reqs: Vec<_> = (0..per_round)
                        .map(|_| {
                            let r = mpi.isend(&next.to_le_bytes(), 1, 0);
                            next += 1;
                            r
                        })
                        .collect();
                    mpi.waitall(&reqs).await;
                }
                Vec::new()
            } else {
                let mut got = Vec::with_capacity((rounds * per_round) as usize);
                for _ in 0..rounds * per_round {
                    let (_, d) = mpi.recv(Some(0), Some(0)).await;
                    got.push(u32::from_le_bytes(d.try_into().unwrap()));
                }
                got
            }
        },
    )
    .unwrap();
    assert_eq!(
        out.results[1],
        (0..rounds * per_round).collect::<Vec<u32>>(),
        "every message exactly once, in order, across generation switches"
    );
    // The receiver of the burst owns the ring that grows.
    let rc = &out.stats.ranks[1].conns[0];
    assert!(
        rc.ring_growth_events.get() >= 1,
        "the burst must trigger at least one ring growth"
    );
    assert!(
        rc.rings_retired.get() >= 1,
        "a displaced generation must drain and retire"
    );
    assert!(rc.ring_generation.get() >= 1);
    // The quiet direction never grows.
    assert_eq!(out.stats.ranks[0].conns[1].ring_generation.get(), 0);
    assert!(
        out.stats.all_ledgers_conserved(),
        "growth must conserve the ring and buffer ledgers"
    );
    // The grown ring carries traffic again after the conversion storm.
    assert!(out.stats.ranks[0].conns[1].ring_sent.get() > 2);
}

#[test]
fn ring_growth_is_monotone_and_capped_at_max_slots() {
    // From 2 slots at factor 2 with an 8-slot cap only generations 1
    // (4 slots) and 2 (8 slots) can exist, no matter how hard the
    // sender keeps starving the ring.
    let rounds = 10u32;
    let per_round = 40u32;
    let out = MpiWorld::run(
        2,
        dyn_cfg(2, 8, 1),
        FabricParams::mt23108(),
        async move |mpi| {
            if mpi.rank() == 0 {
                let mut next = 0u32;
                for _ in 0..rounds {
                    let reqs: Vec<_> = (0..per_round)
                        .map(|_| {
                            let r = mpi.isend(&next.to_le_bytes(), 1, 0);
                            next += 1;
                            r
                        })
                        .collect();
                    mpi.waitall(&reqs).await;
                }
                0u64
            } else {
                let mut sum = 0u64;
                for _ in 0..rounds * per_round {
                    let (_, d) = mpi.recv(Some(0), Some(0)).await;
                    sum += u64::from(u32::from_le_bytes(d.try_into().unwrap()));
                }
                sum
            }
        },
    )
    .unwrap();
    let n = u64::from(rounds * per_round);
    assert_eq!(out.results[1], n * (n - 1) / 2);
    let rc = &out.stats.ranks[1].conns[0];
    assert!(rc.ring_growth_events.get() >= 1);
    assert!(
        rc.ring_generation.get() <= 2,
        "growth past rdma_ring_max_slots must not happen (reached generation {})",
        rc.ring_generation.get()
    );
    // Monotone: every growth event bumps the generation by exactly one,
    // so the peak generation equals the event count.
    assert_eq!(rc.ring_growth_events.get(), rc.ring_generation.get());
    assert!(out.stats.all_ledgers_conserved());
}

#[test]
fn config_validation_guards_prerequisites() {
    let bad = MpiConfig {
        credit_msg_mode: CreditMsgMode::Optimistic,
        ..MpiConfig::scheme(FlowControlScheme::RdmaChannel, 10)
    };
    assert!(matches!(
        MpiWorld::run(2, bad, FabricParams::mt23108(), async |_| ()),
        Err(mpib::MpiRunError::Config(_))
    ));
}

#[test]
fn collectives_work_over_the_channel() {
    use mpib::collectives::{allreduce_scalars, alltoall_scalars};
    use mpib::{Comm, ReduceOp};
    let out = MpiWorld::run(4, channel_cfg(16), FabricParams::mt23108(), async |mpi| {
        let world = Comm::world(mpi);
        let me = world.my_rank(mpi) as u32;
        let sums = allreduce_scalars(mpi, &world, ReduceOp::Sum, &[me as f64]).await;
        let t = alltoall_scalars(mpi, &world, &[me * 4, me * 4 + 1, me * 4 + 2, me * 4 + 3]).await;
        (sums[0], t)
    })
    .unwrap();
    for (me, (sum, t)) in out.results.iter().enumerate() {
        assert_eq!(*sum, 6.0);
        let expect: Vec<u32> = (0..4).map(|src| src * 4 + me as u32).collect();
        assert_eq!(t, &expect);
    }
}
