//! `ckpt_ladder`: snapshot → encode/decode → restore, per scheme, on the
//! checkpoint-aware CG kernel at 4 ranks. `mpib::ckpt`, `ibfabric::snap`
//! and `ibsim::codec` do most of the work here and none elsewhere.

use crate::common::{Digest, Rep, Scale, Workload, SCHEMES};
use crate::trace::Tracer;
use crate::wl_pt2pt::probe_worlds;
use ibfabric::{FabricParams, FaultPlan};
use ibsim::SimDuration;
use mpib::{
    CkptRun, CkptStart, FlowControlScheme, MpiConfig, MpiRank, MpiRunError, MpiRunOutput, MpiWorld,
    RestoreOptions, Snapshot,
};
use nasbench::{cg, KernelOutput, NasClass};
use std::collections::BTreeMap;

const NPROCS: usize = 4;
const PREPOST: u32 = 4;
/// The Test-class CG checkpoints after each of its two outer iterations;
/// the ladder snapshots at the first.
const SNAP_EPOCH: u64 = 1;
/// Legs per ladder: golden, run-to-snapshot, codec round trip, resume,
/// kill-and-replace, lossy resume.
const LEGS: u64 = 6;

pub struct CkptLadder {
    seed: u64,
    ladders: usize,
}

impl CkptLadder {
    pub fn new(seed: u64, scale: Scale) -> CkptLadder {
        CkptLadder {
            seed,
            ladders: scale.pick(4, 1),
        }
    }
}

async fn body(mpi: &mut MpiRank, start: CkptStart) -> KernelOutput {
    cg::run_with_ckpt(mpi, NasClass::Test, start).await
}

/// Everything byte-identity covers, folded into one digest.
fn run_digest(out: &MpiRunOutput<KernelOutput>) -> u64 {
    let mut d = Digest::new();
    d.u64(out.end_time.as_nanos());
    d.u64(out.events);
    for r in &out.results {
        d.u64(r.checksum.to_bits());
        d.u64(r.time.as_nanos());
        d.u64(u64::from(r.verified));
    }
    d.debug(&out.stats.ranks);
    d.debug(&out.fabric.stats);
    d.0
}

type Run = Result<CkptRun<KernelOutput>, MpiRunError>;

fn completed(run: Run) -> Result<MpiRunOutput<KernelOutput>, String> {
    match run {
        Ok(CkptRun::Completed(out)) => Ok(*out),
        Ok(CkptRun::Snapshot(s)) => Err(format!("stopped at epoch {}", s.epoch)),
        Err(e) => Err(e.to_string()),
    }
}

impl CkptLadder {
    /// One scheme's ladder. Each leg is one op; a leg that cannot run
    /// because an earlier one failed counts as failed too.
    fn ladder(&self, tr: &mut Tracer, rep: &mut Rep, scheme: FlowControlScheme) {
        rep.ops += LEGS;
        rep.count("ckpt.ladders", 1);
        let mut legs_done = 0;
        if let Err(e) = self.legs(tr, rep, scheme, &mut legs_done) {
            rep.fail_if(true, LEGS - legs_done, || {
                format!("ckpt_ladder/{}: {e}", scheme.label())
            });
        }
    }

    /// The six legs in order, stopping at the first that fails.
    fn legs(
        &self,
        tr: &mut Tracer,
        rep: &mut Rep,
        scheme: FlowControlScheme,
        legs_done: &mut u64,
    ) -> Result<(), String> {
        let label = scheme.label();
        let cfg = || MpiConfig::scheme(scheme, PREPOST);
        let params = FabricParams::mt23108;
        let attrs = || format!("nprocs={NPROCS} scheme={label} prepost={PREPOST}");

        // 1. golden: every fence released.
        let (golden, ns) = tr.span("mpib.world_run", attrs, |_| {
            completed(MpiWorld::run_with_checkpoints(
                NPROCS,
                cfg(),
                params(),
                Default::default(),
                None,
                body,
            ))
        });
        rep.host("ckpt.golden", ns);
        let golden = golden?;
        if !golden.results.iter().all(|r| r.verified) {
            return Err("golden CG failed verification".into());
        }
        let golden_digest = run_digest(&golden);
        let checksum = golden.results[0].checksum.to_bits();
        rep.sim_ns += golden.end_time.as_nanos();
        rep.digest.u64(golden_digest);
        rep.fabric_stats(&golden.fabric.stats);
        rep.count("ibsim.events", golden.events);
        *legs_done += 1;

        // 2. run to the snapshot fence.
        let (snap, ns) = tr.span("ckpt.run_to_snapshot", attrs, |_| {
            MpiWorld::run_with_checkpoints(
                NPROCS,
                cfg(),
                params(),
                Default::default(),
                Some(SNAP_EPOCH),
                body,
            )
        });
        rep.host("ckpt.run_to_snapshot", ns);
        let snap = match snap {
            Ok(CkptRun::Snapshot(s)) => s,
            Ok(CkptRun::Completed(_)) => return Err("completed before the fence".into()),
            Err(e) => return Err(e.to_string()),
        };
        *legs_done += 1;

        // 3. codec round trip; the restores below run from the decoded
        // image, so a lossy decode shows as drift from the golden run.
        let (bytes, ns) = tr.span("ckpt.encode", attrs, |_| snap.to_bytes());
        rep.host("ckpt.encode", ns);
        let (decoded, ns) = tr.span("ckpt.decode", attrs, |_| Snapshot::from_bytes(&bytes));
        rep.host("ckpt.decode", ns);
        let snap = decoded.map_err(|e| format!("snapshot bytes did not decode: {e}"))?;
        rep.count("ckpt.snapshot_bytes", bytes.len() as u64);
        rep.digest.bytes(&bytes);
        *legs_done += 1;

        // 4–6. restores: plain resume, kill-and-replace, lossy resume.
        let lossy_cfg = MpiConfig {
            fault_plan: Some(
                FaultPlan::new(self.seed)
                    .with_drop(0.008)
                    .with_corrupt(0.004)
                    .with_ack_delay(0.01, SimDuration::micros(40)),
            ),
            ..cfg()
        };
        let replace = RestoreOptions {
            replace: Some(NPROCS - 1),
            snapshot_epoch: None,
        };
        for (bucket, cfg, opts) in [
            ("ckpt.resume", cfg(), RestoreOptions::default()),
            ("ckpt.replace", cfg(), replace),
            ("ckpt.lossy", lossy_cfg, RestoreOptions::default()),
        ] {
            let (out, ns) = tr.span(
                "ckpt.restore",
                || format!("{} leg={bucket}", attrs()),
                |_| {
                    completed(MpiWorld::restore(
                        &snap,
                        cfg,
                        params(),
                        Default::default(),
                        opts,
                        body,
                    ))
                },
            );
            rep.host(bucket, ns);
            let out = out.map_err(|e| format!("{bucket}: {e}"))?;
            rep.sim_ns += out.end_time.as_nanos();
            rep.count("ibsim.events", out.events);
            rep.fabric_stats(&out.fabric.stats);
            let ok = if bucket == "ckpt.lossy" {
                rep.digest.u64(run_digest(&out));
                out.results
                    .iter()
                    .all(|r| r.verified && r.checksum.to_bits() == checksum)
                    && out.stats.total_faults() == 0
            } else {
                run_digest(&out) == golden_digest
                    && out.stats.rejoined_ranks == u64::from(opts.replace.is_some())
            };
            if !(ok && out.stats.all_ledgers_conserved()) {
                return Err(format!("{bucket}: drifted from the golden run"));
            }
            *legs_done += 1;
        }
        Ok(())
    }
}

impl Workload for CkptLadder {
    fn probes(&mut self, tr: &mut Tracer, n: usize) -> BTreeMap<String, f64> {
        // Two of a ladder's legs bootstrap a world; restores rebuild
        // theirs from the image instead.
        probe_worlds(tr, &[(NPROCS, PREPOST, 2 * self.ladders)], n)
    }

    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::new();
        for _ in 0..self.ladders {
            for scheme in SCHEMES {
                self.ladder(tr, &mut rep, scheme);
            }
        }
        rep
    }
}
