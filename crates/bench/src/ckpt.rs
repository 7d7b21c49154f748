//! Checkpoint/restart ladder: snapshot → kill → restore across every
//! flow control scheme, driving the NAS CG kernel's checkpoint-aware
//! variant over the fault plane.
//!
//! Each scheme runs four legs from one snapshot taken at a configurable
//! checkpoint epoch (`IBFLOW_CKPT_EPOCH`, default the first outer CG
//! iteration):
//!
//! 1. **golden** — the uninterrupted run (fences released every epoch).
//! 2. **resume** — snapshot serialized to bytes, parsed back, restored,
//!    resumed: must be *byte-identical* to the golden (virtual end time,
//!    event count, per-rank results, every statistics counter).
//! 3. **kill-and-replace** — the fault plane kills one rank after the
//!    snapshot; a replacement rank is restored from the victim's blob, its
//!    QPs and ledgers re-seeded from the snapshot: still byte-identical.
//! 4. **chaos soak** — the same snapshot resumed into a lossy fabric
//!    (drops, corruption, delayed ACKs, infinite retry): the kernel must
//!    still verify with the golden checksum and conserved ledgers.
//!
//! Every assertion message carries the scheme, the effective
//! `IBFLOW_CHAOS_SEED`, and the effective `IBFLOW_CKPT_EPOCH`, so a
//! failure under non-default knobs is reproducible from the log line
//! alone.
//!
//! [`ckpt_scaling`] runs the first two legs of the same body at 4 to 64
//! ranks and reports what the world registered, what it held resident and
//! what its snapshot weighs: the checkpoint follows the resident curve,
//! not the registered one.

use crate::report::table;
use ibfabric::{FabricParams, FaultPlan};
use ibsim::SimDuration;
use mpib::{
    CkptRun, CkptStart, FlowControlScheme, MpiConfig, MpiRank, MpiRunError, MpiRunOutput, MpiWorld,
    RestoreOptions, Snapshot,
};
use nasbench::common::KernelOutput;
use nasbench::{cg, NasClass};

/// Ranks in the CG world.
pub const NPROCS: usize = 4;

/// Default checkpoint epoch the snapshot is taken at (the Test-class CG
/// runs two outer iterations, checkpointing after each).
pub const SNAP_EPOCH: u64 = 1;

/// Reads the ladder's snapshot epoch from `IBFLOW_CKPT_EPOCH`; defaults
/// to [`SNAP_EPOCH`] when unset or empty. The Test-class CG checkpoints
/// after each of its two outer iterations, so `1` and `2` are the valid
/// quiesce points.
///
/// # Panics
///
/// Panics on anything else — a typo silently falling back to the
/// default would mislabel a whole ladder run.
pub fn snap_epoch_from_env() -> u64 {
    let raw = std::env::var("IBFLOW_CKPT_EPOCH").unwrap_or_default();
    if raw.is_empty() {
        return SNAP_EPOCH;
    }
    match raw.trim().parse::<u64>() {
        Ok(e) if (1..=2).contains(&e) => e,
        _ => panic!("unrecognized IBFLOW_CKPT_EPOCH={raw:?}: expected 1 or 2"),
    }
}

/// The observable outcome of one scheme's snapshot-kill-restore ladder.
pub struct CkptLadderRun {
    /// Scheme under test.
    pub scheme: FlowControlScheme,
    /// Golden (uninterrupted) virtual completion time, µs.
    pub golden_end_us: f64,
    /// CG checksum bits from the golden run (identical on every rank).
    pub checksum_bits: u64,
    /// Serialized snapshot size, bytes.
    pub snapshot_bytes: usize,
    /// Order-sensitive digest of the serialized snapshot.
    pub snapshot_digest: u64,
    /// Did snapshot → restore → resume land on the golden byte-for-byte?
    pub resume_identical: bool,
    /// Did kill-and-replace land on the golden byte-for-byte?
    pub replace_identical: bool,
    /// Recovery summary line of the replacement leg.
    pub replace_summary: String,
    /// Chaos-soak virtual completion time, µs (degraded vs golden).
    pub chaos_end_us: f64,
    /// Messages the chaos leg retransmitted while healing.
    pub chaos_retransmissions: u64,
    /// Injected drops + corruptions the chaos leg absorbed.
    pub chaos_injected: u64,
    /// Did every leg keep every credit ledger conserved?
    pub ledger_ok: bool,
}

/// FNV-1a over bytes, the workspace's standard order-sensitive digest
/// (the chaos soak's too).
pub(crate) const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

pub(crate) fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

pub(crate) fn fnv_u64(h: u64, v: u64) -> u64 {
    fnv_bytes(h, &v.to_le_bytes())
}

/// Everything byte-identity covers, folded into one digest: virtual end
/// time, event count, per-rank kernel outputs, and the full per-rank
/// statistics (the ledger snapshots included).
fn run_digest(out: &MpiRunOutput<KernelOutput>) -> u64 {
    let mut h = FNV_OFFSET;
    h = fnv_u64(h, out.end_time.as_nanos());
    h = fnv_u64(h, out.events);
    for r in &out.results {
        h = fnv_u64(h, r.checksum.to_bits());
        h = fnv_u64(h, r.time.as_nanos());
        h = fnv_u64(h, u64::from(r.verified));
    }
    h = fnv_bytes(h, format!("{:?}", out.stats.ranks).as_bytes());
    h = fnv_bytes(h, format!("{:?}", out.fabric.stats).as_bytes());
    h
}

async fn body(mpi: &mut MpiRank, start: CkptStart) -> KernelOutput {
    cg::run_with_ckpt(mpi, NasClass::Test, start).await
}

fn complete(
    run: Result<CkptRun<KernelOutput>, MpiRunError>,
    ctx: &str,
) -> MpiRunOutput<KernelOutput> {
    match run.unwrap_or_else(|e| panic!("{ctx}: run failed: {e}")) {
        CkptRun::Completed(out) => *out,
        CkptRun::Snapshot(s) => panic!("{ctx}: run stopped at epoch {}", s.epoch),
    }
}

/// The legs every ladder starts with: the uninterrupted golden, the run
/// to the snapshot fence, the codec round trip, and the plain resume.
struct Resumed {
    golden: MpiRunOutput<KernelOutput>,
    golden_digest: u64,
    /// The snapshot as serialized, and as decoded from those bytes (what
    /// every restore runs from).
    snap_bytes: Vec<u8>,
    snap: Snapshot,
    resumed: MpiRunOutput<KernelOutput>,
    /// Did the resumed run land on the golden byte-for-byte? (Asserted.)
    resume_identical: bool,
}

/// Runs golden → snapshot → round trip → resume for one world.
///
/// # Panics
///
/// Panics if a leg fails to complete, the golden fails verification, or
/// the resumed run drifts from the golden by even one byte.
fn snapshot_and_resume(nprocs: usize, cfg: &MpiConfig, snap_epoch: u64, ctx: &str) -> Resumed {
    let params = FabricParams::mt23108;
    let run_to = |epoch| {
        MpiWorld::run_with_checkpoints(
            nprocs,
            cfg.clone(),
            params(),
            Default::default(),
            epoch,
            body,
        )
    };
    let golden = complete(run_to(None), ctx);
    assert!(
        golden.results.iter().all(|r| r.verified),
        "{ctx}: golden CG failed verification"
    );
    let golden_digest = run_digest(&golden);

    let snap = match run_to(Some(snap_epoch))
        .unwrap_or_else(|e| panic!("{ctx}: snapshot leg failed: {e}"))
    {
        CkptRun::Snapshot(s) => s,
        CkptRun::Completed(_) => panic!("{ctx}: run completed before epoch {snap_epoch}"),
    };
    let snap_bytes = snap.to_bytes();
    let snap = Snapshot::from_bytes(&snap_bytes)
        .unwrap_or_else(|e| panic!("{ctx}: snapshot bytes did not round-trip: {e}"));

    let resumed = complete(
        MpiWorld::restore(
            &snap,
            cfg.clone(),
            params(),
            Default::default(),
            RestoreOptions::default(),
            body,
        ),
        ctx,
    );
    let resume_identical = run_digest(&resumed) == golden_digest;
    assert!(
        resume_identical,
        "{ctx}: snapshot -> restore -> resume drifted from the golden run"
    );
    Resumed {
        golden,
        golden_digest,
        snap_bytes,
        snap,
        resumed,
        resume_identical,
    }
}

/// Runs one scheme's full ladder and asserts the robustness contract.
///
/// # Panics
///
/// Panics if any leg fails to complete, the resume or kill-and-replace
/// leg drifts from the golden by even one byte, the chaos leg loses the
/// checksum, or any ledger leaks. Messages name the scheme and seed.
pub fn run_one(scheme: FlowControlScheme, seed: u64, snap_epoch: u64) -> CkptLadderRun {
    let ctx = format!(
        "ckpt/{} (IBFLOW_CHAOS_SEED={seed:#x} IBFLOW_CKPT_EPOCH={snap_epoch})",
        scheme.label()
    );
    let cfg = || MpiConfig::scheme(scheme, 4);
    let params = FabricParams::mt23108;

    let Resumed {
        golden,
        golden_digest,
        snap_bytes,
        snap,
        resumed,
        resume_identical,
    } = snapshot_and_resume(NPROCS, &cfg(), snap_epoch, &ctx);
    let checksum_bits = golden.results[0].checksum.to_bits();

    let replaced = complete(
        MpiWorld::restore(
            &snap,
            cfg(),
            params(),
            Default::default(),
            RestoreOptions {
                replace: Some(NPROCS - 1),
                snapshot_epoch: None,
            },
            body,
        ),
        &ctx,
    );
    let replace_identical = run_digest(&replaced) == golden_digest;
    assert!(
        replace_identical,
        "{ctx}: kill-and-replace drifted from the golden run"
    );
    assert_eq!(replaced.stats.rejoined_ranks, 1, "{ctx}");
    let replace_summary = replaced.stats.summary_line(&replaced.fabric.stats);

    let chaos_cfg = MpiConfig {
        fault_plan: Some(
            FaultPlan::new(seed)
                .with_drop(0.008)
                .with_corrupt(0.004)
                .with_ack_delay(0.01, SimDuration::micros(40)),
        ),
        ..cfg()
    };
    let chaos = complete(
        MpiWorld::restore(
            &snap,
            chaos_cfg,
            params(),
            Default::default(),
            RestoreOptions::default(),
            body,
        ),
        &ctx,
    );
    assert!(
        chaos
            .results
            .iter()
            .all(|r| r.verified && r.checksum.to_bits() == checksum_bits),
        "{ctx}: chaos-soaked resume lost the kernel checksum"
    );
    assert_eq!(
        chaos.stats.total_faults(),
        0,
        "{ctx}: infinite retry budgets must absorb every injected loss"
    );
    let chaos_injected =
        chaos.fabric.stats.msgs_dropped.get() + chaos.fabric.stats.msgs_corrupted.get();

    let ledger_ok = golden.stats.all_ledgers_conserved()
        && resumed.stats.all_ledgers_conserved()
        && replaced.stats.all_ledgers_conserved()
        && chaos.stats.all_ledgers_conserved();
    assert!(ledger_ok, "{ctx}: a credit ledger leaked");

    CkptLadderRun {
        scheme,
        golden_end_us: golden.end_time.as_micros_f64(),
        checksum_bits,
        snapshot_bytes: snap_bytes.len(),
        snapshot_digest: fnv_bytes(FNV_OFFSET, &snap_bytes),
        resume_identical,
        replace_identical,
        replace_summary,
        chaos_end_us: chaos.end_time.as_micros_f64(),
        chaos_retransmissions: chaos.fabric.stats.retransmissions.get(),
        chaos_injected,
        ledger_ok,
    }
}

/// Runs the full ladder — every scheme — fanned out over the [`ibpool`]
/// worker pool. Results come back in submission order, so the report is
/// byte-identical at any `IBFLOW_JOBS` width.
pub fn ckpt_ladder(seed: u64, snap_epoch: u64) -> Vec<CkptLadderRun> {
    let jobs: Vec<ibpool::Job<'_, CkptLadderRun>> = FlowControlScheme::ALL
        .into_iter()
        .map(|scheme| {
            ibpool::job(format!("ckpt/{}", scheme.label()), move || {
                run_one(scheme, seed, snap_epoch)
            })
        })
        .collect();
    ibpool::run_batch(jobs)
}

/// World sizes of the checkpoint-size sweep.
pub const SCALING_NPROCS: [usize; 5] = [4, 8, 16, 32, 64];

/// Schemes of the checkpoint-size sweep: one that receives into pre-posted
/// slabs and one that receives into RDMA rings.
pub const SCALING_SCHEMES: [FlowControlScheme; 2] =
    [FlowControlScheme::Hardware, FlowControlScheme::RdmaChannel];

/// One world of the checkpoint-size sweep: what it registered, what it
/// held resident, and what its snapshot weighs.
pub struct CkptScalingRun {
    /// World size.
    pub nprocs: usize,
    /// Scheme under test.
    pub scheme: FlowControlScheme,
    /// Bytes registered across the golden run's fabric when it ended.
    pub registered_bytes: usize,
    /// Bytes that fabric held resident.
    pub resident_bytes: usize,
    /// Serialized snapshot size, bytes.
    pub snapshot_bytes: usize,
    /// Did snapshot → restore → resume land on the golden byte-for-byte?
    pub resume_identical: bool,
}

/// Checkpoint size against world size: golden, snapshot at [`SNAP_EPOCH`],
/// codec round trip and plain resume of the ladder's CG body at each of
/// [`SCALING_NPROCS`] under each of [`SCALING_SCHEMES`], one [`ibpool`]
/// job per world. Registered memory grows with N², the snapshot with what
/// the connections carried.
///
/// # Panics
///
/// As [`run_one`], for the legs it runs.
pub fn ckpt_scaling() -> Vec<CkptScalingRun> {
    let jobs: Vec<ibpool::Job<'_, CkptScalingRun>> = SCALING_NPROCS
        .into_iter()
        .flat_map(|nprocs| SCALING_SCHEMES.map(|scheme| (nprocs, scheme)))
        .map(|(nprocs, scheme)| {
            let ctx = format!("ckpt_scaling/{}x{nprocs}", scheme.label());
            ibpool::job(ctx.clone(), move || {
                let r =
                    snapshot_and_resume(nprocs, &MpiConfig::scheme(scheme, 4), SNAP_EPOCH, &ctx);
                assert!(
                    r.golden.stats.all_ledgers_conserved()
                        && r.resumed.stats.all_ledgers_conserved(),
                    "{ctx}: a credit ledger leaked"
                );
                CkptScalingRun {
                    nprocs,
                    scheme,
                    registered_bytes: r.golden.fabric.registered_bytes(),
                    resident_bytes: r.golden.fabric.resident_bytes(),
                    snapshot_bytes: r.snap_bytes.len(),
                    resume_identical: r.resume_identical,
                }
            })
        })
        .collect();
    ibpool::run_batch(jobs)
}

/// Formats the size sweep as the table the `ckpt-scaling` experiment prints.
pub fn ckpt_scaling_table(runs: &[CkptScalingRun]) -> String {
    let data: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.nprocs.to_string(),
                r.scheme.label().to_string(),
                r.registered_bytes.to_string(),
                r.resident_bytes.to_string(),
                r.snapshot_bytes.to_string(),
                if r.resume_identical { "ok" } else { "DRIFT" }.to_string(),
            ]
        })
        .collect();
    table(
        &[
            "N",
            "scheme",
            "registered(B)",
            "resident(B)",
            "snap(B)",
            "resume",
        ],
        &data,
    )
}

/// Formats the ladder as the table the `ckpt` experiment prints.
pub fn ckpt_table(runs: &[CkptLadderRun]) -> String {
    let data: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.scheme.label().to_string(),
                format!("{:.1}", r.golden_end_us),
                r.snapshot_bytes.to_string(),
                if r.resume_identical { "ok" } else { "DRIFT" }.to_string(),
                if r.replace_identical { "ok" } else { "DRIFT" }.to_string(),
                format!("{:.1}", r.chaos_end_us),
                r.chaos_retransmissions.to_string(),
                if r.ledger_ok { "ok" } else { "LEAK" }.to_string(),
            ]
        })
        .collect();
    table(
        &[
            "scheme",
            "golden(us)",
            "snap(B)",
            "resume",
            "replace",
            "chaos(us)",
            "retx",
            "ledger",
        ],
        &data,
    )
}

/// Renders the ladder and the size sweep as stable JSON for the golden
/// snapshot: fixed field order, fixed float precision, hex digests.
pub fn ckpt_json(runs: &[CkptLadderRun], scaling: &[CkptScalingRun]) -> String {
    let mut out = String::from("{\n  \"ckpt_ladder\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"scheme\": \"{}\", \"golden_end_us\": {:.3}, \
             \"checksum\": \"{:016x}\", \"snapshot_bytes\": {}, \
             \"snapshot_digest\": \"{:016x}\", \"resume\": \"{}\", \
             \"replace\": \"{}\", \"chaos_end_us\": {:.3}, \
             \"chaos_retransmissions\": {}, \"chaos_injected\": {}, \
             \"ledger\": \"{}\"}}{}\n",
            r.scheme.label(),
            r.golden_end_us,
            r.checksum_bits,
            r.snapshot_bytes,
            r.snapshot_digest,
            if r.resume_identical { "ok" } else { "DRIFT" },
            if r.replace_identical { "ok" } else { "DRIFT" },
            r.chaos_end_us,
            r.chaos_retransmissions,
            r.chaos_injected,
            if r.ledger_ok { "ok" } else { "LEAK" },
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"ckpt_scaling\": [\n");
    for (i, r) in scaling.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"nprocs\": {}, \"scheme\": \"{}\", \"registered_bytes\": {}, \
             \"resident_bytes\": {}, \"snapshot_bytes\": {}, \"resume\": \"{}\"}}{}\n",
            r.nprocs,
            r.scheme.label(),
            r.registered_bytes,
            r.resident_bytes,
            r.snapshot_bytes,
            if r.resume_identical { "ok" } else { "DRIFT" },
            if i + 1 < scaling.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive() {
        let a = fnv_bytes(FNV_OFFSET, &[1, 2]);
        let b = fnv_bytes(FNV_OFFSET, &[2, 1]);
        assert_ne!(a, b);
    }
}
