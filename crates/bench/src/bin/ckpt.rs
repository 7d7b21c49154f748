//! Checkpoint/restart ladder: snapshot → kill → restore of the NAS CG
//! kernel across all five flow control schemes, with an elastic
//! kill-and-replace leg and a chaos-soaked resume leg per scheme.
//! The chaos seed comes from `IBFLOW_CHAOS_SEED` (default `0xC4A055ED`)
//! and the snapshot epoch from `IBFLOW_CKPT_EPOCH` (default `1`, the
//! first outer CG iteration); identical knobs give byte-identical output
//! at any `IBFLOW_JOBS` width. Then the checkpoint-size sweep: the same
//! body's snapshot at 4 to 64 ranks, against what the world registered.
use ibflow_bench::chaos::seed_from_env;
use ibflow_bench::ckpt::{
    ckpt_ladder, ckpt_scaling, ckpt_scaling_table, ckpt_table, snap_epoch_from_env, NPROCS,
};

fn main() {
    let seed = seed_from_env();
    let epoch = snap_epoch_from_env();
    println!(
        "Checkpoint ladder — {NPROCS}-rank NAS CG snapshot at epoch {epoch}, \
         restore / replace / chaos-soak per scheme (seed {seed:#x})\n"
    );
    let runs = ckpt_ladder(seed, epoch);
    print!("{}", ckpt_table(&runs));
    println!();
    for r in &runs {
        println!("{}: {}", r.scheme.label(), r.replace_summary);
    }
    println!(
        "\nall restores byte-identical to the uninterrupted goldens; \
         replacement ranks rejoined; all credit ledgers conserved"
    );
    println!("\nCheckpoint size vs world size — snapshot at epoch 1, resumed\n");
    print!("{}", ckpt_scaling_table(&ckpt_scaling()));
}
