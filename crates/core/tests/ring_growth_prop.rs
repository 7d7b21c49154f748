//! Seeded property tests: dynamic ring growth under an adversarial
//! fault plane. Dropped and duplicated mailbox writes (the versioned
//! RingUpdates travel as RDMA WRITEs, so the transport retransmits lost
//! ones and MSN tracking suppresses the duplicates), ring WRITEs racing
//! the generation switch, and growth triggered mid-flap must all
//! preserve exactly-once in-order delivery, keep the ring and buffer
//! ledgers conserved, and never grow past `rdma_ring_max_slots` — with
//! the connection established at t = 0 or at the sender's first use.
//!
//! Reproduce a failure with `IBFLOW_PROP_SEED=<seed>`; failing cases
//! shrink toward a benign fabric and a minimal workload first.

use ibfabric::{FabricParams, FaultPlan, FlapScope, LinkFlap, NodeId};
use ibsim::{SimDuration, SimTime};
use mpib::{FlowControlScheme, MpiConfig, MpiWorld};
use testutil::prop::{check, shrink, Case, Gen};

#[derive(Clone, Debug)]
struct GrowthChaosCase {
    /// Fault-plan seed (independent of the harness case seed).
    seed: u64,
    /// Per-packet drop probability in permille (0..=15 → 0%..1.5%).
    drop_permille: u32,
    /// Delay 2% of ACKs by 250 µs — past the mt23108 ACK timeout, so
    /// spurious retransmissions duplicate in-flight WRITEs.
    ack_delay: bool,
    /// Take the receiver's links down for a 300 µs window mid-run, so
    /// growth triggers and ring updates race the outage.
    flap: bool,
    /// Burst rounds and messages per round.
    rounds: u32,
    per_round: u32,
    /// Growth knobs: bootstrap size, hard cap, feedback threshold.
    initial_slots: u32,
    max_slots: u32,
    threshold: u32,
    /// Connect on demand: the receiver adopts the connection the sender's
    /// first ring write travels on.
    on_demand: bool,
}

impl Case for GrowthChaosCase {
    fn generate(g: &mut Gen) -> Self {
        let initial_slots = g.u32_in(2..5);
        // Sometimes cap == initial: growth is then a no-op by cap and
        // the run must behave like the static ring.
        let max_slots = match g.index(4) {
            0 => initial_slots,
            _ => initial_slots + g.u32_in(1..31),
        };
        GrowthChaosCase {
            seed: g.u64_in(0..u64::MAX),
            drop_permille: g.u32_in(0..16),
            ack_delay: g.bool(),
            flap: g.bool(),
            rounds: g.u32_in(2..5),
            per_round: g.u32_in(10..31),
            initial_slots,
            max_slots,
            threshold: g.u32_in(1..5),
            on_demand: g.bool(),
        }
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for v in shrink::u32_toward(self.drop_permille, 0) {
            out.push(GrowthChaosCase {
                drop_permille: v,
                ..self.clone()
            });
        }
        for v in shrink::bool_toward_false(self.ack_delay) {
            out.push(GrowthChaosCase {
                ack_delay: v,
                ..self.clone()
            });
        }
        for v in shrink::bool_toward_false(self.flap) {
            out.push(GrowthChaosCase {
                flap: v,
                ..self.clone()
            });
        }
        for v in shrink::u32_toward(self.rounds, 2) {
            out.push(GrowthChaosCase {
                rounds: v,
                ..self.clone()
            });
        }
        for v in shrink::u32_toward(self.per_round, 10) {
            out.push(GrowthChaosCase {
                per_round: v,
                ..self.clone()
            });
        }
        for v in shrink::u32_toward(self.max_slots, self.initial_slots) {
            out.push(GrowthChaosCase {
                max_slots: v,
                ..self.clone()
            });
        }
        for v in shrink::bool_toward_false(self.on_demand) {
            out.push(GrowthChaosCase {
                on_demand: v,
                ..self.clone()
            });
        }
        out
    }
}

impl GrowthChaosCase {
    fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed).with_drop(f64::from(self.drop_permille) / 1000.0);
        if self.ack_delay {
            plan = plan.with_ack_delay(0.02, SimDuration::micros(250));
        }
        if self.flap {
            plan = plan.with_flap(LinkFlap {
                scope: FlapScope::Node(NodeId::from_index(1)),
                from: SimTime::from_nanos(200_000),
                until: SimTime::from_nanos(500_000),
            });
        }
        plan
    }

    fn config(&self) -> MpiConfig {
        MpiConfig {
            rdma_ring_slots: self.initial_slots,
            rdma_ring_max_slots: self.max_slots,
            rdma_ring_growth_threshold: self.threshold,
            fault_plan: Some(self.plan()),
            on_demand_connections: self.on_demand,
            ..MpiConfig::scheme(FlowControlScheme::RdmaChannelDyn, 4)
        }
    }

    /// Generations reachable before the cap: how often the slot count
    /// can double (the default growth factor) before reaching the cap.
    fn max_generations(&self) -> u64 {
        let mut slots = self.initial_slots;
        let mut gens = 0;
        while slots < self.max_slots {
            slots = slots.saturating_mul(2).min(self.max_slots);
            gens += 1;
        }
        gens
    }
}

#[test]
fn ring_growth_survives_the_chaos_fault_plane() {
    check::<GrowthChaosCase>("ring_growth::chaos", 20, |c| {
        let rounds = c.rounds;
        let per_round = c.per_round;
        let out = MpiWorld::run(2, c.config(), FabricParams::mt23108(), async move |mpi| {
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
        })
        .unwrap_or_else(|e| panic!("chaos growth run failed: {e} ({c:?})"));

        // Exactly-once, in-order delivery across drops, duplicate
        // WRITEs, flaps, and every generation switch.
        assert_eq!(
            out.results[1],
            (0..rounds * per_round).collect::<Vec<u32>>(),
            "delivery diverged under {c:?}"
        );
        // Infinite retry budgets: the fabric is waited out, never failed.
        assert_eq!(out.stats.total_faults(), 0, "unexpected fault under {c:?}");
        // Ring + buffer ledgers conserved through every transition.
        assert!(out.stats.all_ledgers_conserved(), "ledger leak under {c:?}");
        // Growth is monotone (each event bumps the generation once) and
        // hard-capped at `rdma_ring_max_slots`.
        let rc = &out.stats.ranks[1].conns[0];
        assert_eq!(rc.ring_growth_events.get(), rc.ring_generation.get());
        assert!(
            rc.ring_generation.get() <= c.max_generations(),
            "grew past the cap under {c:?}: generation {} > {}",
            rc.ring_generation.get(),
            c.max_generations()
        );
        // A cap at the bootstrap size disables growth entirely.
        if c.max_slots == c.initial_slots {
            assert_eq!(rc.ring_growth_events.get(), 0);
        }
    });
}
