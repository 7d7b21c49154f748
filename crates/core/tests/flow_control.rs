//! Behavioural tests of the flow control schemes: credit accounting,
//! backlog, explicit credit messages, dynamic growth, the optimistic /
//! RDMA / naive-gated credit paths, and hardware RNR behaviour.

use ibfabric::FabricParams;
use ibsim::{SimConfig, SimTime};
use mpib::{CreditMsgMode, FlowControlScheme, GrowthPolicy, MpiConfig, MpiRunError, MpiWorld};

/// A one-way burst larger than the prepost pool: sender blasts `count`
/// small messages, receiver consumes them only afterwards.
fn burst_run(cfg: MpiConfig, count: u32) -> mpib::MpiRunOutput<u64> {
    MpiWorld::run(2, cfg, FabricParams::mt23108(), async move |mpi| {
        if mpi.rank() == 0 {
            let reqs: Vec<_> = (0..count)
                .map(|i| mpi.isend(&i.to_le_bytes(), 1, 0))
                .collect();
            mpi.waitall(&reqs).await;
            0
        } else {
            // Let the burst pile up before consuming anything.
            mpi.compute(ibsim::SimDuration::millis(1)).await;
            let mut sum = 0u64;
            for _ in 0..count {
                let (_, d) = mpi.recv(Some(0), Some(0)).await;
                sum += u32::from_le_bytes(d.try_into().unwrap()) as u64;
            }
            sum
        }
    })
    .unwrap()
}

#[test]
fn static_scheme_backlogs_when_credits_exhausted() {
    let cfg = MpiConfig::scheme(FlowControlScheme::UserStatic, 4);
    let out = burst_run(cfg, 40);
    assert_eq!(out.results[1], (0..40).sum::<u32>() as u64);
    let c = &out.stats.ranks[0].conns[1];
    assert!(
        c.backlogged.get() >= 30,
        "most of the burst should backlog, got {}",
        c.backlogged.get()
    );
    // The static pool never grows.
    assert_eq!(out.stats.ranks[1].conns[0].max_posted.get(), 4);
    assert_eq!(out.stats.ranks[1].conns[0].growth_events.get(), 0);
    // User-level flow control protects the receiver from the data burst;
    // only the occasional optimistic rendezvous start may RNR while the
    // receiver is away (the paper's hardware backstop).
    assert!(
        out.fabric.stats.rnr_naks.get() < 25,
        "user-level scheme should not RNR per message: {}",
        out.fabric.stats.rnr_naks.get()
    );
}

#[test]
fn dynamic_scheme_grows_pool_under_pressure() {
    let cfg = MpiConfig {
        growth: GrowthPolicy::Linear(2),
        ..MpiConfig::scheme(FlowControlScheme::UserDynamic, 4)
    };
    let out = burst_run(cfg, 60);
    assert_eq!(out.results[1], (0..60).sum::<u32>() as u64);
    let recv_conn = &out.stats.ranks[1].conns[0];
    assert!(
        recv_conn.growth_events.get() >= 1,
        "feedback must trigger growth"
    );
    assert!(
        recv_conn.max_posted.get() > 4,
        "pool should grow beyond the initial 4, got {}",
        recv_conn.max_posted.get()
    );
    assert!(out.fabric.stats.rnr_naks.get() < 25);
}

#[test]
fn exponential_growth_grows_faster() {
    let lin = {
        let cfg = MpiConfig {
            growth: GrowthPolicy::Linear(1),
            ..MpiConfig::scheme(FlowControlScheme::UserDynamic, 2)
        };
        burst_run(cfg, 60).stats.ranks[1].conns[0].max_posted.get()
    };
    let exp = {
        let cfg = MpiConfig {
            growth: GrowthPolicy::Exponential,
            ..MpiConfig::scheme(FlowControlScheme::UserDynamic, 2)
        };
        burst_run(cfg, 60).stats.ranks[1].conns[0].max_posted.get()
    };
    assert!(
        exp >= lin,
        "exponential ({exp}) should reach at least linear ({lin})"
    );
}

#[test]
fn hardware_scheme_relies_on_rnr() {
    let cfg = MpiConfig::scheme(FlowControlScheme::Hardware, 2);
    let out = burst_run(cfg, 40);
    assert_eq!(out.results[1], (0..40).sum::<u32>() as u64);
    // No MPI-level machinery fired...
    let c = &out.stats.ranks[0].conns[1];
    assert_eq!(c.backlogged.get(), 0);
    assert_eq!(c.ecm_sent.get(), 0);
    // ...so the fabric had to throttle with RNR NAKs and retries.
    assert!(
        out.fabric.stats.rnr_naks.get() > 0,
        "a 40-message burst into 2 buffers must RNR under the hardware scheme"
    );
    assert!(out.fabric.stats.retransmissions.get() > 0);
}

#[test]
fn asymmetric_pattern_triggers_explicit_credit_messages() {
    // One-way traffic with the receiver never sending data back: credits
    // can only return via explicit credit messages.
    let cfg = MpiConfig::scheme(FlowControlScheme::UserStatic, 8);
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            for i in 0..100u32 {
                mpi.send(&i.to_le_bytes(), 1, 0).await;
            }
        } else {
            for _ in 0..100 {
                let _ = mpi.recv(Some(0), Some(0)).await;
            }
        }
    })
    .unwrap();
    let ecm = out.stats.ranks[1].conns[0].ecm_sent.get();
    assert!(ecm >= 5, "asymmetric flow needs ECMs, got {ecm}");
    assert_eq!(out.fabric.stats.rnr_naks.get(), 0);
}

#[test]
fn symmetric_pattern_needs_no_explicit_credit_messages() {
    // Ping-pong: every message can piggyback credits.
    let cfg = MpiConfig::scheme(FlowControlScheme::UserStatic, 8);
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        let peer = 1 - mpi.rank();
        for i in 0..100u32 {
            if mpi.rank() == 0 {
                mpi.send(&i.to_le_bytes(), peer, 0).await;
                let _ = mpi.recv(Some(peer), Some(0)).await;
            } else {
                let _ = mpi.recv(Some(peer), Some(0)).await;
                mpi.send(&i.to_le_bytes(), peer, 0).await;
            }
        }
    })
    .unwrap();
    let total_ecm: u64 = out.stats.ranks.iter().map(|r| r.total_ecm()).sum();
    assert_eq!(
        total_ecm, 0,
        "symmetric traffic should piggyback everything"
    );
}

#[test]
fn rdma_credit_mode_replaces_explicit_messages() {
    let cfg = MpiConfig {
        credit_msg_mode: CreditMsgMode::Rdma,
        ..MpiConfig::scheme(FlowControlScheme::UserStatic, 8)
    };
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            for i in 0..100u32 {
                mpi.send(&i.to_le_bytes(), 1, 0).await;
            }
        } else {
            for _ in 0..100 {
                let _ = mpi.recv(Some(0), Some(0)).await;
            }
        }
    })
    .unwrap();
    let r1 = &out.stats.ranks[1].conns[0];
    assert_eq!(r1.ecm_sent.get(), 0, "RDMA mode sends no credit messages");
    assert!(
        r1.rdma_credit_updates.get() >= 5,
        "credits must flow via RDMA writes, got {}",
        r1.rdma_credit_updates.get()
    );
}

#[test]
fn naive_gated_credit_messages_deadlock() {
    // The design the paper's optimistic scheme exists to avoid: if credit
    // messages are themselves credit-gated, a fully starved pair of
    // one-way flows wedges. (Both backlogs want credits; neither receiver
    // can tell the other about freed buffers.)
    let cfg = MpiConfig {
        credit_msg_mode: CreditMsgMode::NaiveGated,
        ecm_threshold: 2,
        ..MpiConfig::scheme(FlowControlScheme::UserStatic, 2)
    };
    // Also disable the optimistic rendezvous fallback by making messages
    // too small... the fallback is structural, so instead the deadlock is
    // demonstrated at the protocol level: both sides post a burst, then
    // only afterwards try to receive — with gated ECMs *and* an occupied
    // optimistic slot in both directions, drains starve.
    let result = MpiWorld::run_with_limits(
        2,
        cfg,
        FabricParams::mt23108(),
        SimConfig {
            max_time: SimTime::from_nanos(50_000_000),
            ..Default::default()
        },
        async |mpi| {
            let peer = 1 - mpi.rank();
            let reqs: Vec<_> = (0..30u32)
                .map(|i| mpi.isend(&i.to_le_bytes(), peer, 0))
                .collect();
            mpi.waitall(&reqs).await;
            for _ in 0..30 {
                let _ = mpi.recv(Some(peer), Some(0)).await;
            }
        },
    );
    match result {
        Err(MpiRunError::Sim(_)) => {} // deadlock or time-limit: wedged
        Ok(out) => {
            // If it completed, the optimistic rendezvous fallback saved
            // it — verify the gated path really starved ECMs.
            let total_ecm: u64 = out.stats.ranks.iter().map(|r| r.total_ecm()).sum();
            assert_eq!(total_ecm, 0, "gated mode should rarely manage to send ECMs");
        }
        Err(e) => panic!("unexpected error {e}"),
    }
}

#[test]
fn optimistic_mode_survives_the_same_pattern() {
    // Same bidirectional burst, written safely (receives pre-posted, as
    // MPI requires when sends may run synchronous): the optimistic credit
    // path keeps both backlogs draining.
    let cfg = MpiConfig {
        credit_msg_mode: CreditMsgMode::Optimistic,
        ecm_threshold: 2,
        ..MpiConfig::scheme(FlowControlScheme::UserStatic, 2)
    };
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        let peer = 1 - mpi.rank();
        let rreqs: Vec<_> = (0..30).map(|_| mpi.irecv(Some(peer), Some(0))).collect();
        let sreqs: Vec<_> = (0..30u32)
            .map(|i| mpi.isend(&i.to_le_bytes(), peer, 0))
            .collect();
        mpi.waitall(&sreqs).await;
        let mut sum = 0u64;
        for r in rreqs {
            let (_, d) = mpi.wait_recv(r).await;
            sum += u32::from_le_bytes(d.try_into().unwrap()) as u64;
        }
        sum
    })
    .unwrap();
    assert_eq!(out.results[0], (0..30).sum::<u32>() as u64);
    assert_eq!(out.results[1], (0..30).sum::<u32>() as u64);
}

#[test]
fn small_sends_are_buffered_but_large_sends_are_synchronous() {
    // Eager-size sends complete at post even when credit-starved (the
    // payload was copied into a pre-pinned buffer), so an exchange of
    // small bursts is safe...
    let cfg = MpiConfig::scheme(FlowControlScheme::UserStatic, 2);
    let out = MpiWorld::run(2, cfg.clone(), FabricParams::mt23108(), async |mpi| {
        let peer = 1 - mpi.rank();
        let reqs: Vec<_> = (0..30u32)
            .map(|i| mpi.isend(&i.to_le_bytes(), peer, 0))
            .collect();
        mpi.waitall(&reqs).await;
        let mut sum = 0u64;
        for _ in 0..30 {
            let (_, d) = mpi.recv(Some(peer), Some(0)).await;
            sum += u32::from_le_bytes(d.try_into().unwrap()) as u64;
        }
        sum
    })
    .unwrap();
    assert_eq!(out.results[0], (0..30).sum::<u32>() as u64);
    // ...but rendezvous-size sends only complete when matched, so the
    // same *unsafe* shape with large messages wedges — MPI semantics
    // never guarantee buffering.
    let result = MpiWorld::run_with_limits(
        2,
        cfg,
        FabricParams::mt23108(),
        SimConfig {
            max_time: SimTime::from_nanos(100_000_000),
            ..Default::default()
        },
        async |mpi| {
            let peer = 1 - mpi.rank();
            let big = vec![0u8; 64 * 1024];
            let reqs: Vec<_> = (0..4).map(|_| mpi.isend(&big, peer, 0)).collect();
            mpi.waitall(&reqs).await;
            for _ in 0..4 {
                let _ = mpi.recv(Some(peer), Some(0)).await;
            }
        },
    );
    assert!(
        matches!(result, Err(MpiRunError::Sim(_))),
        "unsafe large-message program must wedge"
    );
}

#[test]
fn prepost_one_works_under_all_schemes() {
    // The paper's extreme case (Fig. 10): a single pre-posted buffer.
    for scheme in FlowControlScheme::ALL {
        let cfg = MpiConfig::scheme(scheme, 1);
        let out = burst_run(cfg, 25);
        assert_eq!(out.results[1], (0..25).sum::<u32>() as u64, "{scheme:?}");
    }
}

/// `MpiRank::stats` read inside the body is the live report: the
/// per-connection counters and ledger are already there, not zeros
/// waiting for the final report.
#[test]
fn stats_read_in_the_body_are_live() {
    let cfg = MpiConfig::scheme(FlowControlScheme::UserStatic, 2);
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        for i in 0..20u32 {
            if mpi.rank() == 0 {
                mpi.send(&i.to_le_bytes(), 1, 0).await;
            } else {
                mpi.recv(Some(0), Some(0)).await;
            }
        }
        let s = mpi.stats();
        let conserved = s.conns.iter().all(|c| c.ledger_conserved());
        (s.total_msgs_sent(), s.max_posted_any_conn(), conserved)
    })
    .unwrap();
    for (live, last) in out.results.iter().zip(&out.stats.ranks) {
        let &(sent, posted, conserved) = live;
        assert!(sent > 0 && sent <= last.total_msgs_sent(), "{live:?}");
        assert_eq!(posted, 2, "{live:?}");
        assert!(conserved, "{live:?}");
    }
}

#[test]
fn credit_conservation_at_quiescence() {
    // After a run drains, for every user-level connection:
    //   sender credits + receiver's unreturned count == receiver's pool.
    let cfg = MpiConfig::scheme(FlowControlScheme::UserStatic, 6);
    let out = MpiWorld::run(3, cfg, FabricParams::mt23108(), async |mpi| {
        let me = mpi.rank();
        // Safe shape: receives pre-posted before the send storm.
        let rreqs: Vec<_> = (0..(mpi.size() - 1) * 20)
            .map(|_| mpi.irecv(None, Some(0)))
            .collect();
        let mut sreqs = Vec::new();
        for peer in 0..mpi.size() {
            if peer != me {
                for i in 0..20u32 {
                    sreqs.push(mpi.isend(&i.to_le_bytes(), peer, 0));
                }
            }
        }
        mpi.waitall(&sreqs).await;
        for r in rreqs {
            let _ = mpi.wait_recv(r).await;
        }
        // Report (credits toward each peer) at the end of the body.
        (0..mpi.size())
            .map(|p| {
                if p == mpi.rank() {
                    0
                } else {
                    mpi.credits_toward(p)
                }
            })
            .collect::<Vec<u32>>()
    })
    .unwrap();
    // Quiescent invariant, checked loosely from outside: a connection's
    // credits may exceed its pool only by the optimistic-start loans it
    // took (each borrowed buffer is credited back without a matching
    // spend, and at most one loan is in flight at a time, so the float
    // stays small and the hardware flow control absorbs it).
    for (rank, credits) in out.results.iter().enumerate() {
        for (peer, &c) in credits.iter().enumerate() {
            assert!(
                c <= 6 + 4,
                "rank {rank} holds {c} credits toward {peer}: float exceeds pool + plausible loans"
            );
        }
    }
}

#[test]
fn on_demand_connections_establish_lazily() {
    let cfg = MpiConfig {
        on_demand_connections: true,
        ..MpiConfig::scheme(FlowControlScheme::UserStatic, 4)
    };
    let out = MpiWorld::run(4, cfg, FabricParams::mt23108(), async |mpi| {
        // Ring traffic only: each rank talks to exactly two neighbours,
        // so the two diagonal connections stay cold.
        let right = (mpi.rank() + 1) % mpi.size();
        let left = (mpi.rank() + mpi.size() - 1) % mpi.size();
        let (_, d) = mpi
            .sendrecv(&[mpi.rank() as u8], right, 0, Some(left), Some(0))
            .await;
        (d[0] as usize, mpi.total_posted_buffers())
    })
    .unwrap();
    for (me, &(from, posted)) in out.results.iter().enumerate() {
        assert_eq!(from, (me + 3) % 4);
        // Only 2 of 3 possible connections were established: 2 * 4 buffers.
        assert_eq!(
            posted, 8,
            "rank {me} should only post buffers for live connections"
        );
    }
}

#[test]
fn always_connected_posts_everything() {
    let cfg = MpiConfig {
        on_demand_connections: false,
        ..MpiConfig::scheme(FlowControlScheme::UserStatic, 4)
    };
    let out = MpiWorld::run(4, cfg, FabricParams::mt23108(), async |mpi| {
        let right = (mpi.rank() + 1) % mpi.size();
        let left = (mpi.rank() + mpi.size() - 1) % mpi.size();
        let _ = mpi.sendrecv(&[0u8], right, 0, Some(left), Some(0)).await;
        mpi.total_posted_buffers()
    })
    .unwrap();
    for &posted in &out.results {
        assert_eq!(posted, 12, "eager mode pre-posts for all 3 peers");
    }
}

/// The two communication shapes the setup-equivalence test runs. Rank 0
/// speaks first in both, so under on-demand setup it is the initiator
/// and rank 1 the passive side.
#[derive(Clone, Copy, Debug)]
enum SetupShape {
    /// Rank 0 posts 32 sends at once; rank 1 receives them as they come.
    InitiatorBurst,
    /// Rank 0 sends one message, then receives 60 from rank 1, which
    /// sends them in bursts of 5 with 50 µs of compute between bursts:
    /// the passive side's credits come back only through the returns
    /// rank 0 sends (by ECM or into rank 1's mailbox).
    PassiveStream,
}

fn setup_shape_run(cfg: MpiConfig, shape: SetupShape) -> mpib::MpiRunOutput<()> {
    let params = FabricParams {
        connect_cost: ibsim::SimDuration::ZERO,
        ..FabricParams::mt23108()
    };
    MpiWorld::run(2, cfg, params, async move |mpi| match (shape, mpi.rank()) {
        (SetupShape::InitiatorBurst, 0) => {
            let reqs: Vec<_> = (0..32u32)
                .map(|i| mpi.isend(&i.to_le_bytes(), 1, 0))
                .collect();
            mpi.waitall(&reqs).await;
        }
        (SetupShape::InitiatorBurst, _) => {
            for _ in 0..32 {
                mpi.recv(Some(0), Some(0)).await;
            }
        }
        (SetupShape::PassiveStream, 0) => {
            mpi.send(&[0], 1, 0).await;
            for _ in 0..60 {
                mpi.recv(Some(1), Some(1)).await;
            }
        }
        (SetupShape::PassiveStream, _) => {
            mpi.recv(Some(0), Some(0)).await;
            for burst in 0..12u8 {
                let reqs: Vec<_> = (0..5u8).map(|k| mpi.isend(&[burst, k], 0, 1)).collect();
                mpi.waitall(&reqs).await;
                mpi.compute(ibsim::SimDuration::micros(50)).await;
            }
        }
    })
    .unwrap()
}

/// Eager setup is on-demand setup with every pair touched at t = 0: with
/// a free handshake the two are indistinguishable, down to the event
/// count and every counter. Both paths post the pool before connecting,
/// so the handshake advertises it and no first send goes out as a
/// zero-credit probe; and the passive side watches the initiator's
/// mailbox from its first completion on, so RDMA credit returns reach it.
#[test]
fn on_demand_setup_with_a_free_handshake_is_eager_setup() {
    // `validate` rejects on-demand setup under the ring schemes.
    for scheme in FlowControlScheme::ALL
        .into_iter()
        .filter(|s| !s.uses_ring())
    {
        for credit_msg_mode in [CreditMsgMode::Optimistic, CreditMsgMode::Rdma] {
            for shape in [SetupShape::InitiatorBurst, SetupShape::PassiveStream] {
                let eager = MpiConfig {
                    credit_msg_mode,
                    ..MpiConfig::scheme(scheme, 10)
                };
                let on_demand = MpiConfig {
                    on_demand_connections: true,
                    ..eager.clone()
                };
                let (a, b) = (
                    setup_shape_run(eager, shape),
                    setup_shape_run(on_demand, shape),
                );
                let case = format!("{scheme:?} / {credit_msg_mode:?} / {shape:?}");
                assert_eq!(a.end_time, b.end_time, "{case}: end time");
                assert_eq!(a.events, b.events, "{case}: events");
                assert_eq!(
                    format!("{:?}", a.stats.ranks),
                    format!("{:?}", b.stats.ranks),
                    "{case}: MPI-layer statistics"
                );
                assert_eq!(
                    format!("{:?}", a.fabric.stats),
                    format!("{:?}", b.fabric.stats),
                    "{case}: fabric statistics"
                );
                // Both QPs of the one connection, as each run created them.
                for (setup, out) in [("eager", &a), ("on-demand", &b)] {
                    assert_eq!(out.fabric.qp_count(), 2, "{case}: {setup} setup");
                    for qp in out.fabric.qps() {
                        assert_eq!(
                            qp.stats.zero_credit_probes.get(),
                            0,
                            "{case}: {setup} setup probed {:?} with zero credits",
                            qp.id()
                        );
                    }
                }
            }
        }
    }
}

/// Every rank `isend`s 40 messages round a ring of `nprocs` ranks, then
/// receives its neighbour's 40 after a pause. Every seventh message is 8×
/// the others — past the eager threshold, so it goes as a rendezvous.
fn twin_run(cfg: MpiConfig, nprocs: usize) -> mpib::MpiRunOutput<usize> {
    const SMALL: usize = 300;
    MpiWorld::run(nprocs, cfg, FabricParams::mt23108(), async move |mpi| {
        let n = mpi.size();
        let (next, prev) = ((mpi.rank() + 1) % n, (mpi.rank() + n - 1) % n);
        let len = |i: u8| if i % 7 == 6 { 8 * SMALL } else { SMALL };
        let reqs: Vec<_> = (0..40u8)
            .map(|i| mpi.isend(&vec![i; len(i)], next, 0))
            .collect();
        mpi.compute(ibsim::SimDuration::micros(30)).await;
        let mut received = 0;
        for i in 0..40u8 {
            let (_, d) = mpi.recv(Some(prev), Some(0)).await;
            assert!(d.len() == len(i) && d.iter().all(|&b| b == i));
            received += d.len();
        }
        mpi.waitall(&reqs).await;
        received
    })
    .unwrap()
}

/// A static scheme is its dynamic twin with the growth cap at the
/// starting size: the static ring is the growable ring capped at the
/// bootstrap ring, the static pool the growable pool capped at `prepost`.
/// The twins run the same protocol down to the event count, the virtual
/// end time and every counter of both layers.
#[test]
fn static_schemes_are_their_dynamic_twins_at_the_cap() {
    use FlowControlScheme::*;
    for nprocs in [2, 3, 4] {
        for prepost in [2, 5, 16] {
            let ring = MpiConfig::scheme(RdmaChannel, prepost);
            let pool = MpiConfig {
                max_prepost: prepost,
                ..MpiConfig::scheme(UserStatic, prepost)
            };
            let pairs = [
                (
                    ring.clone(),
                    MpiConfig {
                        rdma_ring_max_slots: ring.rdma_ring_slots,
                        ..MpiConfig::scheme(RdmaChannelDyn, prepost)
                    },
                ),
                (
                    pool.clone(),
                    MpiConfig {
                        scheme: UserDynamic,
                        ..pool
                    },
                ),
            ];
            for (fixed, capped) in pairs {
                let case = format!("{:?} at {nprocs} ranks, pre-post {prepost}", capped.scheme);
                let (a, b) = (twin_run(fixed, nprocs), twin_run(capped, nprocs));
                // Not vacuous: the window starves, so small messages
                // convert to rendezvous (five of the 40 are large) and the
                // growth feedback fires — at the cap, to no effect.
                let to_next = &b.stats.ranks[0].conns[1];
                assert!(to_next.rndz_sent.get() > 5, "{case}: nothing converted");
                assert!(to_next.backlogged.get() > 0, "{case}: nothing backlogged");
                assert_eq!(a.results, b.results, "{case}: bytes received");
                assert_eq!(a.end_time, b.end_time, "{case}: end time");
                assert_eq!(a.events, b.events, "{case}: events");
                assert_eq!(
                    format!("{:?}", a.stats.ranks),
                    format!("{:?}", b.stats.ranks),
                    "{case}: MPI-layer statistics"
                );
                assert_eq!(
                    format!("{:?}", a.fabric.stats),
                    format!("{:?}", b.fabric.stats),
                    "{case}: fabric statistics"
                );
            }
        }
    }
}
