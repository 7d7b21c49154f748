//! Determinism regression: two identically-configured runs of the same
//! SPMD body must produce bit-identical outcomes — event counts, virtual
//! end time, per-rank results, and every statistics counter. This is the
//! behavioural backstop for `clippy.toml`'s `disallowed-types` (DESIGN.md
//! §8): a stray `HashMap` iteration or wall-clock read anywhere on the
//! hot path shows up here as a run-to-run diff.

use ibfabric::FabricParams;
use ibsim::SimDuration;
use mpib::collectives::allreduce_scalars;
use mpib::{Comm, FlowControlScheme, GrowthPolicy, MpiConfig, MpiRunOutput, ReduceOp};

/// A mixed workload touching every subsystem the determinism rules guard:
/// lazy (on-demand) connection establishment, eager and rendezvous paths
/// (the latter through the registration cache), dynamic pool growth, and
/// collectives (the per-communicator sequence map).
fn workload(cfg: MpiConfig) -> MpiRunOutput<u64> {
    mpib::MpiWorld::run(4, cfg, FabricParams::mt23108(), async |mpi| {
        let n = mpi.size();
        let me = mpi.rank();
        // Stagger ranks so arrival order depends on simulated time, not
        // host scheduling.
        mpi.compute(SimDuration::micros(3 * me as u64)).await;

        // Eager burst around a ring (exercises credits + backlog).
        let next = (me + 1) % n;
        let prev = (me + n - 1) % n;
        let reqs: Vec<_> = (0..24u32)
            .map(|i| mpi.isend(&i.to_le_bytes(), next, 1))
            .collect();
        let mut acc = 0u64;
        for _ in 0..24 {
            let (_, d) = mpi.recv(Some(prev), Some(1)).await;
            acc += u64::from(u32::from_le_bytes(d.try_into().unwrap()));
        }
        mpi.waitall(&reqs).await;

        // One large message per ring hop: rendezvous + regcache traffic.
        let big = vec![me as u8; 64 * 1024];
        let r = mpi.isend(&big, next, 2);
        let (_, d) = mpi.recv(Some(prev), Some(2)).await;
        acc += d.iter().map(|&b| u64::from(b)).sum::<u64>();
        mpi.wait(r).await;

        // A collective to drive the per-communicator sequence numbers.
        let comm = Comm::world(mpi);
        allreduce_scalars(mpi, &comm, ReduceOp::Sum, &[acc]).await[0]
    })
    .unwrap()
}

fn assert_identical(a: &MpiRunOutput<u64>, b: &MpiRunOutput<u64>) {
    assert_eq!(a.end_time, b.end_time, "virtual end times diverged");
    assert_eq!(a.events, b.events, "event counts diverged");
    assert_eq!(a.results, b.results, "per-rank results diverged");
    // The stats structs are plain counters; their Debug rendering is a
    // deep, field-by-field comparison.
    assert_eq!(
        format!("{:?}", a.stats),
        format!("{:?}", b.stats),
        "MPI-layer statistics diverged"
    );
    assert_eq!(
        format!("{:?}", a.fabric.stats),
        format!("{:?}", b.fabric.stats),
        "fabric statistics diverged"
    );
}

#[test]
fn identical_runs_are_bit_identical_dynamic() {
    let cfg = MpiConfig {
        growth: GrowthPolicy::Linear(2),
        on_demand_connections: true,
        ..MpiConfig::scheme(FlowControlScheme::UserDynamic, 4)
    };
    let a = workload(cfg.clone());
    let b = workload(cfg);
    assert_identical(&a, &b);
}

#[test]
fn identical_runs_are_bit_identical_static() {
    let cfg = MpiConfig::scheme(FlowControlScheme::UserStatic, 8);
    let a = workload(cfg.clone());
    let b = workload(cfg);
    assert_identical(&a, &b);
}
