//! Checkpoint-ladder regression tests: the snapshot-kill-restore battery
//! must render byte-identical reports at any pool width (every leg is
//! driven by the deterministic sim, never by host state), and the
//! default-seed ladder is pinned by a golden snapshot.
//!
//! The snapshot lives at `bench_results/golden/ckpt.json`. After an
//! *intentional* behaviour change (checkpoint format bump, CG kernel
//! change, scheme timing change), regenerate it with
//!
//! ```sh
//! IBFLOW_UPDATE_GOLDEN=1 cargo test -p ibflow-bench --test ckpt
//! ```
//!
//! and commit the diff alongside the change that explains it.

mod common;

use ibflow_bench::chaos::DEFAULT_SEED;
use ibflow_bench::ckpt::{ckpt_json, ckpt_ladder, ckpt_scaling, SNAP_EPOCH};

/// One test fn (not several) so the `IBFLOW_JOBS` writes can't race
/// within this test binary.
#[test]
fn ckpt_ladder_is_deterministic_and_matches_golden() {
    std::env::set_var(ibpool::JOBS_ENV, "1");
    let runs = ckpt_ladder(DEFAULT_SEED, SNAP_EPOCH);
    let scaling = ckpt_scaling();
    let serial = ckpt_json(&runs, &scaling);
    std::env::set_var(ibpool::JOBS_ENV, "4");
    let both = || ckpt_json(&ckpt_ladder(DEFAULT_SEED, SNAP_EPOCH), &ckpt_scaling());
    let parallel = both();
    let parallel_again = both();
    std::env::remove_var(ibpool::JOBS_ENV);

    assert_eq!(
        serial, parallel,
        "ckpt ladder differs between IBFLOW_JOBS=1 and =4"
    );
    assert_eq!(
        parallel, parallel_again,
        "ckpt ladder differs between two identical IBFLOW_JOBS=4 runs"
    );

    // `run_one` already asserts byte-identity per scheme; pin the
    // aggregate shape here so a silently-skipped leg can't hide.
    assert_eq!(runs.len(), 5, "one ladder per scheme");
    assert!(runs
        .iter()
        .all(|r| r.resume_identical && r.replace_identical));
    assert!(runs.iter().all(|r| r.ledger_ok), "a credit ledger leaked");
    assert!(
        runs.iter().all(|r| r.snapshot_bytes > 0),
        "an empty snapshot serialized"
    );
    // The size sweep: every world resumed, and a snapshot is a bounded
    // record per directed connection — its queue pair's and its
    // endpoint's state, plus the few live bytes a fence leaves. It follows
    // neither the memory the world held resident (dead at a fence) nor
    // the memory it registered, which any dense encoding would exceed.
    assert_eq!(scaling.len(), 10, "five world sizes under two schemes");
    for r in &scaling {
        assert!(r.resume_identical, "{}x{}", r.scheme.label(), r.nprocs);
        let connections = r.nprocs * (r.nprocs - 1);
        assert!(
            r.snapshot_bytes < 2048 * connections && r.snapshot_bytes < r.registered_bytes / 32,
            "{}x{}: {} snapshot bytes, {} resident, {} registered",
            r.scheme.label(),
            r.nprocs,
            r.snapshot_bytes,
            r.resident_bytes,
            r.registered_bytes
        );
    }
    // The chaos leg must actually exercise recovery on top of the
    // restored state — a quiet soak would mean the plan stopped firing.
    assert!(
        runs.iter().all(|r| r.chaos_injected > 0),
        "a chaos soak injected no faults"
    );
    assert!(
        runs.iter().map(|r| r.chaos_retransmissions).sum::<u64>() > 0,
        "no chaos soak ever retransmitted"
    );
    // The replacement leg's recovery summary must report the restore
    // and the rejoined rank.
    for r in &runs {
        assert!(
            r.replace_summary.contains("restores=1")
                && r.replace_summary.contains("rejoined_ranks=1")
                && r.replace_summary.contains("ledgers_conserved=true"),
            "summary line missing recovery counters: {}",
            r.replace_summary
        );
    }

    common::check_golden("ckpt", &serial);
}
