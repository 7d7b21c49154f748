//! `ibflow-ledger`: the repo's benchmark (see `benchmark/README.md`).
//!
//! With `--workload` it is a worker: one workload, one process, one
//! thread, no `ibpool`. Without, it orchestrates: one worker process per
//! workload, per set; optional traced pass; comparison and ledger.
//!
//! All wall-clock and allocator code of the benchmark lives in this
//! `bin/` tree, which simlint's `no-wall-clock` rule exempts.

mod catalog;
mod common;
mod derive;
mod json;
mod orchestrate;
mod rungs;
mod trace;
mod wl_ckpt;
mod wl_fabric;
mod wl_nas;
mod wl_pt2pt;
mod wl_sim;
mod worker;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

const USAGE: &str = "usage:
  ibflow-ledger [--seed N] [--sets K] [--traced] [--seconds S] [--out FILE]
      run every workload (one process each); K sets; optional traced pass
  ibflow-ledger --check
      tiny sizes: schema against BENCHMARK.json, correctness, digests
  ibflow-ledger --workload NAME --seed N --seconds S --trace 0|1
      one workload (what the driver of BENCHMARK.json runs)
  ibflow-ledger compare A.json B.json
      paired comparison of two result files
  ibflow-ledger --emit-benchmark-json
      print the contents of BENCHMARK.json";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&argv) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ibflow-ledger: {e}");
            ExitCode::from(2)
        }
    }
}

fn dispatch(argv: &[String]) -> Result<ExitCode, String> {
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv else {
            return Err(format!("compare takes two files\n{USAGE}"));
        };
        return orchestrate::compare(a, b);
    }
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = catalog::RUN_SECONDS as f64;
    let mut trace = false;
    let mut tiny = false;
    let mut out = None;
    let mut sets = 1usize;
    let mut check = false;
    let mut args = argv.iter();
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => workload = Some(value("a name")?),
            "--seed" => seed = parse(&value("a number")?)?,
            "--seconds" => seconds = parse(&value("a number")?)?,
            "--trace" => trace = parse::<u8>(&value("0 or 1")?)? != 0,
            "--traced" => trace = true,
            "--tiny" => tiny = true,
            "--out" => out = Some(value("a path")?),
            "--sets" => sets = parse(&value("a number")?)?,
            "--check" => check = true,
            "--emit-benchmark-json" => {
                print!("{}", catalog::benchmark_json().render_pretty());
                return Ok(ExitCode::SUCCESS);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    if let Some(workload) = workload {
        worker::run(&worker::Args {
            workload,
            seed,
            seconds,
            traced: trace,
            tiny,
            out,
        })?;
        return Ok(ExitCode::SUCCESS);
    }
    if check {
        return orchestrate::check(seed);
    }
    orchestrate::full(&orchestrate::FullArgs {
        seed,
        sets,
        traced: trace,
        seconds,
        out,
    })
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse().map_err(|_| format!("bad number {s:?}"))
}
