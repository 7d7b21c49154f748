//! Checkpoint/restart end-to-end: snapshot → restore → resume must be
//! byte-identical to the uninterrupted run, across every flow control
//! scheme; elastic rank replacement (kill-and-replace) must also land on
//! the golden byte-for-byte; a restored world must heal under chaos and
//! surface typed faults under a lethal plan.

use ibfabric::{FabricParams, FaultPlan};
use ibsim::SimDuration;
use mpib::{
    CkptRun, CkptStart, FlowControlScheme, MpiConfig, MpiRank, MpiRunOutput, MpiWorld,
    RestoreOptions, Snapshot,
};

const EPOCHS: u64 = 3;
const NPROCS: usize = 4;

/// A checkpoint-aware SPMD body: each epoch runs an eager burst plus one
/// rendezvous-sized hop around the ring, then takes a coordinated
/// checkpoint carrying the running checksum as application state. On
/// resume it re-seeds the checksum and skips the epochs already done.
async fn body(mpi: &mut MpiRank, start: CkptStart) -> u64 {
    let n = mpi.size();
    let me = mpi.rank();
    let next = (me + 1) % n;
    let prev = (me + n - 1) % n;
    let mut done = start.resumed_epoch;
    let mut acc = if done == 0 {
        0u64
    } else {
        u64::from_le_bytes(start.app_state.as_slice().try_into().unwrap())
    };
    while done < EPOCHS {
        let e = done + 1;
        mpi.compute(SimDuration::micros(me as u64 + e)).await;
        let reqs: Vec<_> = (0..6u32)
            .map(|i| mpi.isend(&(i + 100 * e as u32).to_le_bytes(), next, e as i32))
            .collect();
        for _ in 0..6 {
            let (_, d) = mpi.recv(Some(prev), Some(e as i32)).await;
            acc += u64::from(u32::from_le_bytes(d.try_into().unwrap()));
        }
        mpi.waitall(&reqs).await;
        // One rendezvous-sized message per epoch: regcache + RDMA path.
        let big = vec![(me as u8) ^ (e as u8); 48 * 1024];
        let r = mpi.isend(&big, next, 1000 + e as i32);
        let (_, d) = mpi.recv(Some(prev), Some(1000 + e as i32)).await;
        acc += d.iter().map(|&b| u64::from(b)).sum::<u64>();
        mpi.wait(r).await;
        let stamped = mpi.checkpoint(&acc.to_le_bytes()).await;
        assert_eq!(stamped, e, "checkpoint epochs must advance one at a time");
        done = e;
    }
    acc
}

fn cfg_for(scheme: FlowControlScheme) -> MpiConfig {
    MpiConfig::scheme(scheme, 4)
}

fn golden(cfg: MpiConfig) -> MpiRunOutput<u64> {
    match MpiWorld::run_with_checkpoints(
        NPROCS,
        cfg,
        FabricParams::mt23108(),
        Default::default(),
        None,
        body,
    )
    .expect("golden run")
    {
        CkptRun::Completed(out) => *out,
        CkptRun::Snapshot(_) => unreachable!("no snapshot requested"),
    }
}

fn snapshot_at(cfg: MpiConfig, epoch: u64) -> Snapshot {
    match MpiWorld::run_with_checkpoints(
        NPROCS,
        cfg,
        FabricParams::mt23108(),
        Default::default(),
        Some(epoch),
        body,
    )
    .expect("snapshot run")
    {
        CkptRun::Snapshot(s) => s,
        CkptRun::Completed(_) => panic!("run completed before the snapshot epoch"),
    }
}

/// Byte-identity: everything except the restore provenance counters —
/// down to the regions the run registered, which no timing shows when
/// a registration is not charged.
fn assert_matches_golden<R: PartialEq + std::fmt::Debug>(
    scheme: FlowControlScheme,
    g: &MpiRunOutput<R>,
    r: &MpiRunOutput<R>,
) {
    let tag = scheme.label();
    assert_eq!(g.end_time, r.end_time, "{tag}: virtual end times diverged");
    assert_eq!(g.events, r.events, "{tag}: event counts diverged");
    assert_eq!(g.results, r.results, "{tag}: per-rank results diverged");
    assert_eq!(
        format!("{:?}", g.stats.ranks),
        format!("{:?}", r.stats.ranks),
        "{tag}: MPI-layer statistics diverged"
    );
    assert_eq!(
        format!("{:?}", g.fabric.stats),
        format!("{:?}", r.fabric.stats),
        "{tag}: fabric statistics diverged"
    );
    assert_eq!(
        (g.fabric.mr_count(), g.fabric.registered_bytes()),
        (r.fabric.mr_count(), r.fabric.registered_bytes()),
        "{tag}: registered regions diverged"
    );
    assert!(r.stats.all_ledgers_conserved(), "{tag}: ledger leaked");
}

/// Snapshot at every epoch, restore, resume: byte-identical to the
/// uninterrupted golden for all five schemes, under eager and on-demand
/// connection setup — on demand, the rebuilt world differs most from the
/// fence, since its bootstrap leaves every QP in Reset. The snapshot also
/// survives a serialization round trip before the restore.
#[test]
fn restore_and_resume_is_byte_identical_across_schemes() {
    let on_demand = FlowControlScheme::ALL.into_iter().map(|scheme| MpiConfig {
        on_demand_connections: true,
        ..cfg_for(scheme)
    });
    for cfg in FlowControlScheme::ALL
        .map(cfg_for)
        .into_iter()
        .chain(on_demand)
    {
        let scheme = cfg.scheme;
        let g = golden(cfg.clone());
        assert_eq!(g.stats.restores, 0);
        for epoch in 1..EPOCHS {
            let snap = snapshot_at(cfg.clone(), epoch);
            assert_eq!(snap.epoch, epoch);
            assert!(snap.time() > ibsim::SimTime::ZERO);
            let bytes = snap.to_bytes();
            // A snapshot costs what the protocol touched (under 1% of what
            // it registered); any dense region encoding is over 100%.
            assert!(
                bytes.len() < g.fabric.registered_bytes() / 32,
                "{}: {} snapshot bytes for {} registered",
                scheme.label(),
                bytes.len(),
                g.fabric.registered_bytes()
            );
            let snap = Snapshot::from_bytes(&bytes).expect("snapshot round trip");
            let out = MpiWorld::restore(
                &snap,
                cfg.clone(),
                FabricParams::mt23108(),
                Default::default(),
                RestoreOptions::default(),
                body,
            )
            .expect("restore")
            .into_completed();
            assert_eq!(out.stats.restores, 1);
            assert_eq!(out.stats.rejoined_ranks, 0);
            assert_matches_golden(scheme, &g, &out);
        }
    }
}

/// A ring halo with one checkpoint between its two exchanges: each rank
/// trades a byte with its right neighbour, checkpoints, then trades one
/// with its left neighbour.
async fn halo(mpi: &mut MpiRank, start: CkptStart) -> u64 {
    let (n, me) = (mpi.size(), mpi.rank());
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
    let acc = if start.resumed_epoch == 0 {
        let (_, d) = mpi
            .sendrecv(&[me as u8], next, 0, Some(prev), Some(0))
            .await;
        let acc = u64::from(d[0]);
        mpi.checkpoint(&acc.to_le_bytes()).await;
        acc
    } else {
        u64::from_le_bytes(start.app_state.as_slice().try_into().unwrap())
    };
    let (_, d) = mpi
        .sendrecv(&[me as u8], prev, 1, Some(next), Some(1))
        .await;
    acc * 256 + u64::from(d[0])
}

/// A wide on-demand world checkpoints and restores byte-identically, and
/// it and its image hold only the connections that exist. Round a ring of
/// N ranks each rank reaches its two neighbours and, through the
/// checkpoint's dissemination barrier, the ranks a power of two away:
/// 2·log2 N − 1 peers — 15 of 255 at N = 256, 3 840 directed connections,
/// and 11 of 63 at N = 64, 704. Each registers its slab, mailbox and
/// ring, so a ring scheme holds a ring only toward the peers it reached.
/// Each costs the image its queue pair and three regions in the fabric
/// image and its record in a rank blob; a rank costs its node, queue and
/// fixed sections, and an unreached peer one presence byte. A queue pair
/// or a region for an unreached peer — 65 280 queue pairs at N = 256 —
/// would take the image past the bound (11 094 869 B when every pair had
/// its queue pairs).
#[test]
fn wide_on_demand_world_restores_and_its_image_skips_unreached_peers() {
    wide_on_demand_world(FlowControlScheme::UserDynamic, 256);
    wide_on_demand_world(FlowControlScheme::RdmaChannelDyn, 64);
}

fn wide_on_demand_world(scheme: FlowControlScheme, n: usize) {
    assert!(n.is_power_of_two());
    let cfg = MpiConfig {
        on_demand_connections: true,
        ..cfg_for(scheme)
    };
    let run = |snapshot_epoch| {
        MpiWorld::run_with_checkpoints(
            n,
            cfg.clone(),
            FabricParams::mt23108(),
            Default::default(),
            snapshot_epoch,
            halo,
        )
        .expect("on-demand run")
    };
    let g = run(None).into_completed();
    let bytes = run(Some(1)).into_snapshot().to_bytes();
    let tag = format!("{} at {n} ranks", scheme.label());
    let conns = g.fabric.qp_count();
    let peers = 2 * n.trailing_zeros() as usize - 1;
    assert_eq!(
        conns,
        peers * n,
        "{tag}: one queue pair per directed connection"
    );
    let per_conn =
        cfg.max_prepost as usize * cfg.buf_size + 32 + cfg.rdma_ring_slots as usize * cfg.buf_size;
    assert_eq!(
        g.fabric.registered_bytes(),
        conns * per_conn,
        "{tag}: a slab, a mailbox and a ring per directed connection"
    );
    assert!(
        bytes.len() < 768 * conns + 1024 * n,
        "{tag}: {} bytes of snapshot for {conns} connections",
        bytes.len()
    );
    let snap = Snapshot::from_bytes(&bytes).expect("snapshot round trip");
    let out = MpiWorld::restore(
        &snap,
        cfg,
        FabricParams::mt23108(),
        Default::default(),
        RestoreOptions::default(),
        halo,
    )
    .expect("restore")
    .into_completed();
    assert_matches_golden(scheme, &g, &out);
}

/// Two rendezvous of one size class in flight from one source at once:
/// the second lands in a landing lane past the pin-down cache's region.
/// Rank 0 sends a pair before the checkpoint and another after it, so the
/// restored rank must remember the lane it registered before the fence —
/// registering another would leave the run's timing alone (a lane's
/// registration is not charged) and its registered memory one region up.
#[test]
fn restored_rank_reuses_its_landing_lanes() {
    let pairs = async |mpi: &mut MpiRank, start: CkptStart| -> u64 {
        let mut sum = match start.app_state.try_into() {
            Ok(bytes) => u64::from_le_bytes(bytes),
            Err(_) => 0,
        };
        for epoch in start.resumed_epoch..2 {
            let tags = [10 * epoch as i32, 10 * epoch as i32 + 1];
            if mpi.rank() == 0 {
                let reqs = tags.map(|t| mpi.isend(&vec![t as u8 + 1; 48 * 1024], 1, t));
                mpi.waitall(&reqs).await;
            } else {
                let reqs = tags.map(|t| mpi.irecv(Some(0), Some(t)));
                for r in reqs {
                    sum += mpi
                        .wait_recv(r)
                        .await
                        .1
                        .iter()
                        .map(|&b| u64::from(b))
                        .sum::<u64>();
                }
            }
            if epoch == 0 {
                mpi.checkpoint(&sum.to_le_bytes()).await;
            }
        }
        sum
    };
    let scheme = FlowControlScheme::UserStatic;
    let run = |epoch| {
        MpiWorld::run_with_checkpoints(
            2,
            cfg_for(scheme),
            FabricParams::mt23108(),
            Default::default(),
            epoch,
            pairs,
        )
        .expect("landing-lane run")
    };
    let CkptRun::Completed(g) = run(None) else {
        unreachable!("no snapshot requested")
    };
    let CkptRun::Snapshot(snap) = run(Some(1)) else {
        panic!("run completed before the snapshot epoch")
    };
    let out = MpiWorld::restore(
        &snap,
        cfg_for(scheme),
        FabricParams::mt23108(),
        Default::default(),
        RestoreOptions::default(),
        pairs,
    )
    .expect("landing-lane restore")
    .into_completed();
    assert_eq!(g.results[1], 48 * 1024 * (1 + 2 + 11 + 12));
    assert_matches_golden(scheme, &g, &out);
}

/// Elastic replacement: the fault plane kills a node after the snapshot;
/// a fresh rank takes its place — QPs re-established through the normal
/// connection path, ledgers re-seeded from the snapshot — and the world
/// completes byte-identical to the uninterrupted golden.
#[test]
fn kill_and_replace_matches_golden() {
    for scheme in [
        FlowControlScheme::UserDynamic,
        FlowControlScheme::RdmaChannelDyn,
    ] {
        let g = golden(cfg_for(scheme));
        let snap = snapshot_at(cfg_for(scheme), 2);
        for victim in [0, NPROCS - 1] {
            let out = MpiWorld::restore(
                &snap,
                cfg_for(scheme),
                FabricParams::mt23108(),
                Default::default(),
                RestoreOptions {
                    replace: Some(victim),
                    snapshot_epoch: None,
                },
                body,
            )
            .expect("replacement restore")
            .into_completed();
            assert_eq!(out.stats.rejoined_ranks, 1);
            assert_matches_golden(scheme, &g, &out);
            let line = out.stats.summary_line(&out.fabric.stats);
            assert!(line.contains("restores=1"), "{line}");
            assert!(line.contains("rejoined_ranks=1"), "{line}");
            assert!(line.contains("ledgers_conserved=true"), "{line}");
        }
    }
}

/// Checkpoint ladder: snapshot at epoch 1, resume into a run that stops
/// again at epoch 2, resume that, and still land on the golden.
#[test]
fn snapshot_ladder_converges_on_golden() {
    let scheme = FlowControlScheme::UserStatic;
    let g = golden(cfg_for(scheme));
    let first = snapshot_at(cfg_for(scheme), 1);
    let second = match MpiWorld::restore(
        &first,
        cfg_for(scheme),
        FabricParams::mt23108(),
        Default::default(),
        RestoreOptions {
            replace: None,
            snapshot_epoch: Some(2),
        },
        body,
    )
    .expect("ladder restore")
    {
        CkptRun::Snapshot(s) => s,
        CkptRun::Completed(_) => panic!("ladder run completed before epoch 2"),
    };
    assert_eq!(second.epoch, 2);
    assert!(second.time() > first.time());
    // The rung snapshot must equal the one taken directly from a fresh
    // run: the fence is a true fixpoint of the simulation.
    let direct = snapshot_at(cfg_for(scheme), 2);
    assert_eq!(second.to_bytes(), direct.to_bytes(), "ladder rung diverged");
    let out = MpiWorld::restore(
        &second,
        cfg_for(scheme),
        FabricParams::mt23108(),
        Default::default(),
        RestoreOptions::default(),
        body,
    )
    .expect("final restore")
    .into_completed();
    assert_matches_golden(scheme, &g, &out);
}

/// A restored world dropped into a lossy fabric (infinite retry budget)
/// still completes with the right answers and balanced ledgers: the
/// snapshot carried enough transport state for recovery to work.
#[test]
fn restored_world_heals_under_packet_loss() {
    let scheme = FlowControlScheme::UserDynamic;
    let g = golden(cfg_for(scheme));
    let snap = snapshot_at(cfg_for(scheme), 1);
    let cfg = MpiConfig {
        fault_plan: Some(FaultPlan::new(0xD1CE).with_drop(0.04).with_corrupt(0.02)),
        ..cfg_for(scheme)
    };
    let out = MpiWorld::restore(
        &snap,
        cfg,
        FabricParams::mt23108(),
        Default::default(),
        RestoreOptions::default(),
        body,
    )
    .expect("chaos restore")
    .into_completed();
    // Same answers, degraded timing: the plan arms ACK timers, so no
    // byte-identity claim — correctness and conservation only.
    assert_eq!(out.results, g.results, "healed run produced wrong answers");
    assert_eq!(out.stats.total_faults(), 0);
    assert!(out.stats.all_ledgers_conserved());
    assert!(
        out.fabric.stats.msgs_dropped.get() + out.fabric.stats.msgs_corrupted.get() >= 1,
        "the plan never fired — the test is vacuous"
    );
    assert!(out.fabric.stats.retransmissions.get() >= 1);
}

/// A lethal plan after restore: the transport exhausts its retry budget,
/// both ranks observe typed faults (no panics, no hangs), and the
/// teardown keeps the ledgers balanced. The summary line tells the whole
/// story: a restored world that observed faults.
#[test]
fn lethal_plan_after_restore_surfaces_typed_faults() {
    let cfg = MpiConfig {
        retry_cnt: Some(1),
        ..MpiConfig::scheme(FlowControlScheme::UserStatic, 4)
    };
    // Epoch 1 is clean traffic + checkpoint; epoch 2 (after restore, under
    // the lethal plan) is written fault-tolerantly.
    let two_epoch = async |mpi: &mut MpiRank, start: CkptStart| -> usize {
        if start.resumed_epoch == 0 {
            if mpi.rank() == 0 {
                mpi.send(b"clean", 1, 1).await;
            } else {
                let (_, d) = mpi.recv(Some(0), Some(1)).await;
                assert_eq!(d, b"clean");
            }
            mpi.checkpoint(b"").await;
        }
        if mpi.rank() == 0 {
            mpi.send(b"doomed", 1, 2).await;
            // iprobe drives the progress engine until the fault lands.
            while mpi.faults().is_empty() {
                mpi.iprobe(Some(1), None);
                mpi.compute(SimDuration::micros(50)).await;
            }
        } else {
            let req = mpi.irecv(Some(0), Some(2));
            mpi.wait_recv_result(req)
                .await
                .expect_err("the lethal plan must kill the connection");
        }
        mpi.faults().len()
    };
    let snap = match MpiWorld::run_with_checkpoints(
        2,
        cfg.clone(),
        FabricParams::mt23108(),
        Default::default(),
        Some(1),
        two_epoch,
    )
    .expect("snapshot run")
    {
        CkptRun::Snapshot(s) => s,
        CkptRun::Completed(_) => panic!("run completed before the snapshot epoch"),
    };
    let lethal = MpiConfig {
        fault_plan: Some(FaultPlan::new(7).with_drop(1.0)),
        ..cfg
    };
    let out = MpiWorld::restore(
        &snap,
        lethal,
        FabricParams::mt23108(),
        Default::default(),
        RestoreOptions::default(),
        two_epoch,
    )
    .expect("a faulted run still completes with Ok")
    .into_completed();
    assert_eq!(out.results, vec![1, 1]);
    assert_eq!(out.stats.total_faults(), 2);
    assert!(out.stats.all_ledgers_conserved());
    let line = out.stats.summary_line(&out.fabric.stats);
    assert!(line.contains("faults_observed=2"), "{line}");
    assert!(line.contains("restores=1"), "{line}");
}

/// `checkpoint()` under the plain (fence-less) runner must surface as a
/// deadlock report naming the checkpoint fence — never silent corruption.
#[test]
fn checkpoint_under_plain_run_reports_the_fence() {
    let err = MpiWorld::run(
        2,
        MpiConfig::scheme(FlowControlScheme::UserStatic, 4),
        FabricParams::mt23108(),
        async |mpi| {
            mpi.checkpoint(b"").await;
        },
    )
    .expect_err("the fence is never released under MpiWorld::run");
    let msg = err.to_string();
    assert!(msg.contains(mpib::CKPT_FENCE_NOTE), "{msg}");
}

/// Ranks disagreeing on the epoch count park at different notes and are
/// reported as a deadlock, not silently checkpointed.
#[test]
fn uneven_checkpoint_counts_are_a_deadlock() {
    let err = MpiWorld::run_with_checkpoints(
        2,
        MpiConfig::scheme(FlowControlScheme::UserStatic, 4),
        FabricParams::mt23108(),
        Default::default(),
        None,
        async |mpi: &mut MpiRank, _start: CkptStart| {
            if mpi.rank() == 0 {
                mpi.checkpoint(b"").await;
            }
        },
    )
    .map(|_| ())
    .expect_err("rank 1 never reaches the fence");
    let msg = err.to_string();
    assert!(
        msg.contains("deadlock") || msg.contains("Deadlock"),
        "{msg}"
    );
}
