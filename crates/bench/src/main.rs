//! `ibflow-bench <name>` prints one experiment of
//! [`ibflow_bench::EXPERIMENTS`], `ibflow-bench list` prints the names,
//! and `ibflow-bench all` runs the paper rows and writes
//! `bench_results/experiments.md` (byte-identical at any `IBFLOW_JOBS`).
//!
//! `IBFLOW_CLASS=test|w|a` scales the NAS rows, `IBFLOW_CHAOS_SEED` seeds
//! the fault plans, `IBFLOW_CKPT_EPOCH=1|2` picks the ladder's snapshot.

#![expect(
    clippy::disallowed_types,
    reason = "a driver: the wall clock only times `all` for the operator, never an experiment's bytes"
)]

use ibflow_bench::experiments::{render_all, Inputs, EXPERIMENTS};
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!("usage: ibflow-bench <experiment> | list | all\n\nexperiments:");
    for e in EXPERIMENTS {
        eprintln!("  {}", e.name);
    }
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [arg] = args.as_slice() else {
        return usage();
    };
    match arg.as_str() {
        "list" => {
            for e in EXPERIMENTS {
                println!("{}", e.name);
            }
        }
        "all" => {
            let t0 = Instant::now();
            let inputs = Inputs::from_env();
            println!(
                "running {} experiments (NAS class {:?}) across {} worker(s)...",
                EXPERIMENTS.iter().filter(|e| e.paper).count(),
                inputs.class,
                ibpool::worker_count()
            );
            let out = render_all(&inputs);
            std::fs::create_dir_all("bench_results").expect("mkdir bench_results");
            std::fs::write("bench_results/experiments.md", out).expect("write results");
            println!(
                "wrote bench_results/experiments.md; done in {:?} (wall)",
                t0.elapsed()
            );
        }
        name => {
            let Some(e) = EXPERIMENTS.iter().find(|e| e.name == name) else {
                eprintln!("unknown experiment {name:?}\n");
                return usage();
            };
            let inputs = Inputs::from_env();
            println!("{}\n", e.heading(&inputs));
            print!("{}", (e.render)(&inputs));
        }
    }
    ExitCode::SUCCESS
}
