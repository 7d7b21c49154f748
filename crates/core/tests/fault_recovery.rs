//! MPI-layer fault recovery: typed fault surfacing (no panics), teardown
//! semantics, transparency of inert plans, and a seeded property test
//! that the credit-conservation ledger survives RNR go-back-N storms and
//! injected packet loss.

use ibfabric::{CqeStatus, FabricParams, FaultPlan};
use mpib::{FlowControlScheme, MpiConfig, MpiWorld};
use testutil::prop::{check, shrink, Case, Gen};

/// Every packet dropped and a finite retry budget: the transport gives
/// up, the progress engine tears the connection down, and both ranks
/// finish with typed faults instead of panicking or hanging — over
/// send/receive and over the RDMA eager channel, under eager and
/// on-demand setup alike. On demand, the passive side's only completions
/// from its peer are the flushed receives, and under the ring schemes the
/// lost send was a ring write, so that side's connection must have been
/// adopted from the fabric before the flush is dispatched.
#[test]
fn retry_exhaustion_surfaces_typed_faults_without_panicking() {
    for scheme in FlowControlScheme::ALL
        .into_iter()
        .filter(|s| s.uses_ring() || *s == FlowControlScheme::UserStatic)
    {
        for on_demand_connections in [false, true] {
            retry_exhaustion(MpiConfig {
                retry_cnt: Some(1),
                fault_plan: Some(FaultPlan::new(42).with_drop(1.0)),
                on_demand_connections,
                ..MpiConfig::scheme(scheme, 4)
            });
        }
    }
}

fn retry_exhaustion(cfg: MpiConfig) {
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            mpi.send(b"doomed", 1, 7).await;
            String::from("sent")
        } else {
            let req = mpi.irecv(Some(0), Some(7));
            match mpi.wait_recv_result(req).await {
                Ok(_) => String::from("delivered"),
                Err(fault) => fault.to_string(),
            }
        }
    })
    .expect("a faulted run still completes with Ok");

    // The eager send is buffered: rank 0's user-visible operation
    // completed even though the transport never got the bytes across.
    assert_eq!(out.results[0], "sent");
    // Rank 1 saw the typed fault, not an empty success.
    assert!(
        out.results[1].starts_with("connection to rank 0 failed"),
        "unexpected recv outcome: {}",
        out.results[1]
    );
    assert!(out.results[1].contains("flushed") || out.results[1].contains("retry"));

    // Both ranks recorded the fault against each other.
    assert_eq!(out.stats.ranks[0].faults.len(), 1);
    assert_eq!(out.stats.ranks[0].faults[0].peer, 1);
    assert_eq!(
        out.stats.ranks[0].faults[0].status,
        CqeStatus::TransportRetryExceeded
    );
    assert_eq!(out.stats.ranks[1].faults.len(), 1);
    assert_eq!(out.stats.ranks[1].faults[0].peer, 0);
    assert_eq!(
        out.stats.ranks[1].faults[0].status,
        CqeStatus::WorkRequestFlushed
    );
    // Teardown kept the ledgers balanced.
    assert!(out.stats.all_ledgers_conserved());
    assert!(out.fabric.stats.ack_timeouts.get() >= 2);
}

/// Sends issued *after* a connection died complete immediately as failed
/// operations; receives bound to the dead peer unblock with the typed
/// fault instead of waiting forever.
#[test]
fn operations_after_teardown_fail_fast() {
    let cfg = MpiConfig {
        retry_cnt: Some(0),
        fault_plan: Some(FaultPlan::new(9).with_drop(1.0)),
        ..MpiConfig::scheme(FlowControlScheme::UserStatic, 2)
    };
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            mpi.send(b"first", 1, 1).await;
            // Wait until the fault lands (iprobe drives the progress
            // engine), then keep sending into the void.
            while mpi.faults().is_empty() {
                mpi.iprobe(Some(1), None);
                mpi.compute(ibsim::SimDuration::micros(50)).await;
            }
            mpi.send(b"second", 1, 2).await;
            mpi.send(&vec![7u8; 100_000], 1, 3).await; // rendezvous-sized
            mpi.faults().len()
        } else {
            let req = mpi.irecv(Some(0), Some(1));
            let err = mpi.wait_recv_result(req).await.expect_err("conn must fail");
            assert_eq!(err.peer, 0);
            // A receive posted after the teardown fails fast too.
            let req = mpi.irecv(Some(0), Some(2));
            assert!(mpi.wait_recv_result(req).await.is_err());
            mpi.faults().len()
        }
    })
    .expect("faulted run completes");
    assert_eq!(out.results, vec![1, 1]);
    assert!(out.stats.all_ledgers_conserved());
}

/// An installed-but-inert fault plan must not move virtual time at the
/// MPI level either: same workload, byte-identical end time.
#[test]
fn inert_plan_is_transparent_at_mpi_level() {
    let run = |plan: Option<FaultPlan>| {
        let cfg = MpiConfig {
            fault_plan: plan,
            ..MpiConfig::scheme(FlowControlScheme::UserDynamic, 2)
        };
        let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
            if mpi.rank() == 0 {
                for i in 0..12u8 {
                    mpi.send(&vec![i; 64 + 173 * i as usize], 1, i32::from(i))
                        .await;
                }
            } else {
                for i in 0..12u8 {
                    let (_, data) = mpi.recv(Some(0), Some(i32::from(i))).await;
                    assert_eq!(data.len(), 64 + 173 * i as usize);
                }
            }
        })
        .unwrap();
        (out.end_time, out.events)
    };
    let clean = run(None);
    let inert = run(Some(FaultPlan::new(123)));
    assert_eq!(clean, inert, "inert plan perturbed the simulation");
}

/// Moderate random loss with infinite retry budgets: every payload still
/// arrives intact, no faults are recorded, and the ledgers balance.
#[test]
fn lossy_fabric_with_infinite_retry_delivers_everything() {
    for scheme in FlowControlScheme::ALL {
        let cfg = MpiConfig {
            fault_plan: Some(FaultPlan::new(0xBEEF).with_drop(0.05).with_corrupt(0.02)),
            ..MpiConfig::scheme(scheme, 3)
        };
        let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
            if mpi.rank() == 0 {
                for i in 0..16u8 {
                    mpi.send(&vec![i ^ 0x5A; 100 + 400 * i as usize], 1, i32::from(i))
                        .await;
                }
            } else {
                for i in 0..16u8 {
                    let (status, data) = mpi.recv(Some(0), Some(i32::from(i))).await;
                    assert_eq!(status.len, 100 + 400 * i as usize);
                    assert!(data.iter().all(|&b| b == i ^ 0x5A), "payload corrupted");
                }
            }
        })
        .unwrap_or_else(|e| panic!("{} run failed: {e}", scheme.label()));
        assert_eq!(out.stats.total_faults(), 0, "{}", scheme.label());
        assert!(out.stats.all_ledgers_conserved(), "{}", scheme.label());
        assert!(
            out.fabric.stats.msgs_dropped.get() + out.fabric.stats.msgs_corrupted.get() >= 1,
            "{}: the plan never fired — the test is vacuous",
            scheme.label()
        );
    }
}

// ---------------------------------------------------------------------
// Property: the credit ledger is conserved under RNR storms and loss.
// ---------------------------------------------------------------------

#[derive(Clone, Debug)]
struct StormCase {
    scheme_idx: usize,
    /// Tiny pools (1..4) force RNR NAK storms and backlog conversions.
    prepost: u32,
    nmsgs: usize,
    max_size: usize,
    /// Packet drop probability in thousandths (0..=30 -> 0%..3%).
    drop_milli: u32,
    seed: u64,
}

impl Case for StormCase {
    fn generate(g: &mut Gen) -> Self {
        StormCase {
            scheme_idx: g.index(FlowControlScheme::ALL.len()),
            prepost: g.u32_in(1..4),
            nmsgs: g.usize_in(4..24),
            max_size: g.usize_in(16..6000),
            drop_milli: g.u32_in(0..31),
            seed: g.u64_in(0..u64::MAX),
        }
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for v in shrink::usize_toward(self.scheme_idx, 0) {
            out.push(StormCase {
                scheme_idx: v,
                ..self.clone()
            });
        }
        for v in shrink::usize_toward(self.nmsgs, 4) {
            out.push(StormCase {
                nmsgs: v,
                ..self.clone()
            });
        }
        for v in shrink::usize_toward(self.max_size, 16) {
            out.push(StormCase {
                max_size: v,
                ..self.clone()
            });
        }
        for v in shrink::u32_toward(self.drop_milli, 0) {
            out.push(StormCase {
                drop_milli: v,
                ..self.clone()
            });
        }
        out
    }
}

#[test]
fn credit_ledger_conserved_under_rnr_storms_and_loss() {
    check::<StormCase>("fault::ledger_conservation", 20, |c| {
        let cfg = MpiConfig {
            fault_plan: Some(FaultPlan::new(c.seed).with_drop(f64::from(c.drop_milli) / 1000.0)),
            ..MpiConfig::scheme(FlowControlScheme::ALL[c.scheme_idx], c.prepost)
        };
        let nmsgs = c.nmsgs;
        let max_size = c.max_size;
        let out = MpiWorld::run(2, cfg, FabricParams::ideal(), async move |mpi| {
            if mpi.rank() == 0 {
                // Flood without ever receiving: piggyback returns have no
                // traffic to ride, so explicit credit machinery and the
                // optimistic rendezvous loan both get exercised.
                for i in 0..nmsgs {
                    let len = 1 + (i * 997) % max_size;
                    let fill = (i * 31 % 251) as u8;
                    mpi.send(&vec![fill; len], 1, i as i32).await;
                }
            } else {
                for i in 0..nmsgs {
                    let (status, data) = mpi.recv(Some(0), Some(i as i32)).await;
                    let len = 1 + (i * 997) % max_size;
                    let fill = (i * 31 % 251) as u8;
                    assert_eq!(status.len, len);
                    assert!(data.iter().all(|&b| b == fill), "payload mangled");
                }
            }
        })
        .expect("infinite-retry run must complete");
        assert_eq!(out.stats.total_faults(), 0);
        assert!(
            out.stats.all_ledgers_conserved(),
            "credit ledger leaked under scheme {:?}",
            FlowControlScheme::ALL[c.scheme_idx]
        );
    });
}
