//! Cross-crate integration: the umbrella crate's public surface drives
//! fabric, MPI, and application kernels together.

use ibflow::ibfabric::FabricParams;
use ibflow::ibsim::SimDuration;
use ibflow::mpib::collectives::{allreduce_scalars, barrier};
use ibflow::mpib::{Comm, FlowControlScheme, MpiConfig, MpiWorld, ReduceOp};
use ibflow::nasbench::common::Kernel;
use ibflow::nasbench::{run_kernel, NasClass};

#[test]
fn umbrella_reexports_compose() {
    let cfg = MpiConfig::scheme(FlowControlScheme::UserDynamic, 4);
    let out = MpiWorld::run(4, cfg, FabricParams::mt23108(), async |mpi| {
        let world = Comm::world(mpi);
        barrier(mpi, &world).await;
        let s = allreduce_scalars(mpi, &world, ReduceOp::Sum, &[mpi.rank() as f64]).await;
        mpi.compute(SimDuration::micros(5)).await;
        s[0]
    })
    .unwrap();
    assert!(out.results.iter().all(|&v| v == 6.0));
}

#[test]
fn every_kernel_under_every_scheme_at_test_class() {
    for kernel in Kernel::ALL {
        let procs = if kernel.needs_square_procs() { 4 } else { 8 };
        for scheme in FlowControlScheme::ALL {
            let cfg = MpiConfig::scheme(scheme, 4);
            let out = MpiWorld::run(procs, cfg, FabricParams::mt23108(), async move |mpi| {
                run_kernel(mpi, kernel, NasClass::Test).await
            })
            .unwrap_or_else(|e| panic!("{kernel:?}/{scheme:?}: {e}"));
            assert!(out.results[0].verified, "{kernel:?}/{scheme:?}");
        }
    }
}

#[test]
fn fabric_stats_surface_through_umbrella() {
    // A hardware-scheme burst into a tiny pool must surface RNR activity
    // through the re-exported fabric statistics.
    let cfg = MpiConfig::scheme(FlowControlScheme::Hardware, 1);
    let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async |mpi| {
        if mpi.rank() == 0 {
            let reqs: Vec<_> = (0..30u32)
                .map(|i| mpi.isend(&i.to_le_bytes(), 1, 0))
                .collect();
            mpi.waitall(&reqs).await;
        } else {
            mpi.compute(SimDuration::millis(1)).await;
            for _ in 0..30 {
                let _ = mpi.recv(Some(0), Some(0)).await;
            }
        }
    })
    .unwrap();
    assert!(out.fabric.stats.rnr_naks.get() > 0);
    assert!(out.fabric.stats.msgs_delivered.get() >= 30);
    assert_eq!(
        out.fabric.stats.retransmissions.get(),
        out.fabric.stats.rnr_naks.get()
    );
}

#[test]
fn sixteen_rank_world_runs_bt() {
    // The paper's BT/SP configuration: 16 processes.
    let cfg = MpiConfig::scheme(FlowControlScheme::UserDynamic, 8);
    let out = MpiWorld::run(16, cfg, FabricParams::mt23108(), async |mpi| {
        run_kernel(mpi, Kernel::Bt, NasClass::Test).await
    })
    .unwrap();
    assert!(out.results.iter().all(|r| r.verified));
    let ck = out.results[0].checksum.to_bits();
    assert!(out.results.iter().all(|r| r.checksum.to_bits() == ck));
}

#[test]
fn ring_of_256_ranks_on_one_os_thread() {
    // Ranks are coroutines, not threads: a 256-rank world must complete
    // a verified ring exchange entirely on the calling thread. Each rank
    // tells its right neighbour who it is and checks what it hears from
    // the left.
    let n = 256usize;
    let caller = std::thread::current().id();
    let cfg = MpiConfig::scheme(FlowControlScheme::UserDynamic, 4);
    let out = MpiWorld::run(n, cfg, FabricParams::ideal(), async move |mpi| {
        let me = mpi.rank();
        let right = (me + 1) % n;
        let left = (me + n - 1) % n;
        mpi.send(&(me as u32).to_le_bytes(), right, 7).await;
        let (_, d) = mpi.recv(Some(left), Some(7)).await;
        assert_eq!(u32::from_le_bytes(d.try_into().unwrap()) as usize, left);
        std::thread::current().id()
    })
    .unwrap();
    assert_eq!(out.results.len(), n);
    assert!(
        out.results.iter().all(|&t| t == caller),
        "every rank must run on the caller's OS thread"
    );
}

#[test]
fn ideal_fabric_params_also_work() {
    // The protocol logic must be timing-model independent.
    let cfg = MpiConfig::scheme(FlowControlScheme::UserStatic, 2);
    let out = MpiWorld::run(2, cfg, FabricParams::ideal(), async |mpi| {
        if mpi.rank() == 0 {
            mpi.send(&vec![9u8; 50_000], 1, 1).await;
            0
        } else {
            let (st, d) = mpi.recv(Some(0), Some(1)).await;
            assert!(d.iter().all(|&b| b == 9));
            st.len
        }
    })
    .unwrap();
    assert_eq!(out.results[1], 50_000);
}
