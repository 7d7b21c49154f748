//! Property: snapshot → restore → resume is byte-identical to the
//! uninterrupted run at *arbitrary* quiesce points under an *arbitrary*
//! fault plan drawn from a drop / corrupt / ack-delay / link-flap grid.
//! All three legs (golden, snapshot, restore) share the same seeded plan;
//! the snapshot carries the plan's RNG position, so the restored leg
//! resumes the exact fault stream the golden experienced — any
//! serialization gap in transport, credit, ring, or RNG state shows up
//! here as a byte diff.

use ibfabric::{FabricParams, FaultPlan, FlapScope, LinkFlap, NodeId};
use ibsim::{SimDuration, SimTime};
use mpib::{
    CkptRun, CkptStart, FlowControlScheme, MpiConfig, MpiRank, MpiRunOutput, MpiWorld,
    RestoreOptions, Snapshot,
};
use testutil::prop::{check, shrink, Case, Gen};

const NPROCS: usize = 3;
const EPOCHS: u64 = 3;

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
        let reqs: Vec<_> = (0..4u32)
            .map(|i| mpi.isend(&(i + 10 * e as u32).to_le_bytes(), next, e as i32))
            .collect();
        for _ in 0..4 {
            let (_, d) = mpi.recv(Some(prev), Some(e as i32)).await;
            acc += u64::from(u32::from_le_bytes(d.try_into().unwrap()));
        }
        mpi.waitall(&reqs).await;
        let big = vec![(me as u8).wrapping_add(e as u8); 24 * 1024];
        let r = mpi.isend(&big, next, 1000 + e as i32);
        let (_, d) = mpi.recv(Some(prev), Some(1000 + e as i32)).await;
        acc += d.iter().map(|&b| u64::from(b)).sum::<u64>();
        mpi.wait(r).await;
        assert_eq!(mpi.checkpoint(&acc.to_le_bytes()).await, e);
        done = e;
    }
    acc
}

#[derive(Clone, Debug)]
struct CkptCase {
    scheme_idx: usize,
    /// Quiesce point the snapshot is taken at (1..EPOCHS).
    snap_epoch: u64,
    /// Packet drop probability in thousandths (0..=25 -> 0%..2.5%).
    drop_milli: u32,
    /// Corruption probability in thousandths (0..=10 -> 0%..1%).
    corrupt_milli: u32,
    /// ACK delay probability in thousandths (0..=100 -> 0%..10%).
    ack_delay_milli: u32,
    /// Extra ACK latency when the delay fires, in microseconds.
    ack_delay_us: u64,
    /// Flapped node (silenced both directions), or none.
    flap_node: Option<usize>,
    /// Flap window start / length in microseconds.
    flap_from_us: u64,
    flap_len_us: u64,
    seed: u64,
}

impl CkptCase {
    fn plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::new(self.seed)
            .with_drop(f64::from(self.drop_milli) / 1000.0)
            .with_corrupt(f64::from(self.corrupt_milli) / 1000.0)
            .with_ack_delay(
                f64::from(self.ack_delay_milli) / 1000.0,
                SimDuration::micros(self.ack_delay_us),
            );
        if let Some(node) = self.flap_node {
            plan = plan.with_flap(LinkFlap {
                scope: FlapScope::Node(NodeId::from_index(node)),
                from: SimTime::from_nanos(self.flap_from_us * 1000),
                until: SimTime::from_nanos((self.flap_from_us + self.flap_len_us) * 1000),
            });
        }
        plan
    }

    fn cfg(&self) -> MpiConfig {
        MpiConfig {
            fault_plan: Some(self.plan()),
            ..MpiConfig::scheme(FlowControlScheme::ALL[self.scheme_idx], 4)
        }
    }
}

impl Case for CkptCase {
    fn generate(g: &mut Gen) -> Self {
        CkptCase {
            scheme_idx: g.index(FlowControlScheme::ALL.len()),
            snap_epoch: u64::from(g.u32_in(1..EPOCHS as u32)),
            drop_milli: g.u32_in(0..26),
            corrupt_milli: g.u32_in(0..11),
            ack_delay_milli: g.u32_in(0..101),
            ack_delay_us: u64::from(g.u32_in(1..20)),
            flap_node: if g.index(2) == 0 {
                Some(g.index(NPROCS))
            } else {
                None
            },
            flap_from_us: u64::from(g.u32_in(5..120)),
            flap_len_us: u64::from(g.u32_in(1..60)),
            seed: g.u64_in(0..u64::MAX),
        }
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        for v in shrink::usize_toward(self.scheme_idx, 0) {
            out.push(CkptCase {
                scheme_idx: v,
                ..self.clone()
            });
        }
        if self.flap_node.is_some() {
            out.push(CkptCase {
                flap_node: None,
                ..self.clone()
            });
        }
        for v in shrink::u32_toward(self.drop_milli, 0) {
            out.push(CkptCase {
                drop_milli: v,
                ..self.clone()
            });
        }
        for v in shrink::u32_toward(self.corrupt_milli, 0) {
            out.push(CkptCase {
                corrupt_milli: v,
                ..self.clone()
            });
        }
        for v in shrink::u32_toward(self.ack_delay_milli, 0) {
            out.push(CkptCase {
                ack_delay_milli: v,
                ..self.clone()
            });
        }
        out
    }
}

fn complete(run: Result<CkptRun<u64>, mpib::MpiRunError>, leg: &str) -> MpiRunOutput<u64> {
    match run.unwrap_or_else(|e| panic!("{leg} leg failed: {e}")) {
        CkptRun::Completed(out) => *out,
        CkptRun::Snapshot(s) => panic!("{leg} leg stopped at epoch {}", s.epoch),
    }
}

#[test]
fn restore_is_byte_identical_under_fault_grid() {
    check::<CkptCase>("ckpt::fault_grid_identity", 20, |c| {
        let golden = complete(
            MpiWorld::run_with_checkpoints(
                NPROCS,
                c.cfg(),
                FabricParams::mt23108(),
                Default::default(),
                None,
                body,
            ),
            "golden",
        );
        let snap = match MpiWorld::run_with_checkpoints(
            NPROCS,
            c.cfg(),
            FabricParams::mt23108(),
            Default::default(),
            Some(c.snap_epoch),
            body,
        )
        .unwrap_or_else(|e| panic!("snapshot leg failed: {e}"))
        {
            CkptRun::Snapshot(s) => s,
            CkptRun::Completed(_) => panic!("snapshot leg completed before epoch {}", c.snap_epoch),
        };
        // The image must survive its own serialization.
        let snap = Snapshot::from_bytes(&snap.to_bytes()).expect("snapshot round trip");
        let restored = complete(
            MpiWorld::restore(
                &snap,
                c.cfg(),
                FabricParams::mt23108(),
                Default::default(),
                RestoreOptions::default(),
                body,
            ),
            "restore",
        );
        assert_eq!(golden.end_time, restored.end_time, "end times diverged");
        assert_eq!(golden.events, restored.events, "event counts diverged");
        assert_eq!(golden.results, restored.results, "results diverged");
        assert_eq!(
            format!("{:?}", golden.stats.ranks),
            format!("{:?}", restored.stats.ranks),
            "MPI statistics diverged"
        );
        assert_eq!(
            format!("{:?}", golden.fabric.stats),
            format!("{:?}", restored.fabric.stats),
            "fabric statistics diverged"
        );
        assert!(restored.stats.all_ledgers_conserved(), "ledger leaked");
        assert_eq!(restored.stats.restores, 1);
    });
}
