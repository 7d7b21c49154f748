//! Everything above a single worker: running the sets, the traced pass,
//! `--check`, result files, the comparison rule and `ledger.md`.

use crate::catalog::{self, END_TO_END, WORKLOADS};
use crate::common::{kernel_key, quartiles};
use crate::json::Json;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

const RAW_DIR: &str = "benchmark/results/raw";
const LEDGER_MD: &str = "benchmark/results/ledger.md";
/// Workloads whose inputs depend on `--seed`.
const SEEDED: [&str; 4] = ["sim_raw", "fabric_raw", "credit_starved", "ckpt_ladder"];

pub struct FullArgs {
    pub seed: u64,
    pub sets: usize,
    pub traced: bool,
    pub seconds: f64,
    pub out: Option<String>,
}

struct WorkerRun {
    record: Json,
    stdout: String,
}

/// Runs one worker process to completion and reads its record back.
fn run_worker(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    tiny: bool,
    tag: &str,
) -> Result<WorkerRun, String> {
    std::fs::create_dir_all(RAW_DIR).map_err(|e| format!("{RAW_DIR}: {e}"))?;
    let out_path = format!("{RAW_DIR}/{tag}-{workload}.json");
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--out", &out_path])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }]);
    if tiny {
        cmd.arg("--tiny");
    }
    let output = cmd.output().map_err(|e| format!("spawn worker: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if !output.status.success() {
        return Err(format!(
            "worker {workload} exited with {}:\n{stdout}{}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let text = std::fs::read_to_string(&out_path).map_err(|e| format!("{out_path}: {e}"))?;
    Ok(WorkerRun {
        record: Json::parse(&text).map_err(|e| format!("{out_path}: {e}"))?,
        stdout,
    })
}

/// One pass over every workload; the entry appended to a result file.
fn run_set(seed: u64, seconds: f64, traced: bool, tag: &str) -> Result<Json, String> {
    let mut workloads = Json::obj();
    for (name, _) in WORKLOADS {
        eprintln!("[{tag}] {name} ...");
        let run = run_worker(name, seed, seconds, traced, false, tag)?;
        print!("{}", run.stdout);
        workloads.set(name, run.record);
    }
    let mut set = Json::obj();
    set.set("seed", seed)
        .set("traced", traced)
        .set("seconds", seconds)
        .set(
            "host_parallelism",
            std::thread::available_parallelism().map_or(0, |n| n.get()) as u64,
        )
        .set("workloads", workloads);
    Ok(set)
}

fn workload<'a>(set: &'a Json, name: &str) -> Option<&'a Json> {
    set.get("workloads")?.get(name)
}

fn e2e(set: &Json, wl: &str, metric: &str) -> Option<f64> {
    workload(set, wl)?
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Share by which `b` is worse than `a` for a metric of this direction.
fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    let delta = if better == "lower" { b - a } else { a - b };
    delta / a.abs().max(f64::MIN_POSITIVE)
}

/// Exact agreement of every sim output of two records of one workload.
fn sim_mismatches(a: &Json, b: &Json) -> Vec<String> {
    let mut out = Vec::new();
    for key in ["sim_digest", "sim_time_ms", "ops_per_rep", "counts"] {
        if a.get(key) != b.get(key) {
            out.push(key.to_string());
        }
    }
    out
}

/// Prints whether two sets of the same code agree: every end-to-end
/// metric within its own bound, every sim output exactly. Returns false
/// on any disagreement.
fn print_agreement(title: &str, a: &Json, b: &Json, check_e2e: bool) -> bool {
    println!("\n## {title}");
    let mut ok = true;
    for (wl, _) in WORKLOADS {
        let (Some(ra), Some(rb)) = (workload(a, wl), workload(b, wl)) else {
            continue;
        };
        let mut cells = Vec::new();
        if check_e2e {
            for (metric, _, better, bound) in END_TO_END {
                let (Some(va), Some(vb)) = (e2e(a, wl, metric), e2e(b, wl, metric)) else {
                    continue;
                };
                let drift = worse_by(va, vb, better).abs();
                let verdict = if drift <= bound { "ok" } else { "DIFFERS" };
                ok &= drift <= bound;
                cells.push(format!(
                    "{metric} {:+.2}% {verdict}",
                    (vb / va - 1.0) * 100.0
                ));
            }
        }
        let mismatched = sim_mismatches(ra, rb);
        ok &= mismatched.is_empty();
        cells.push(if mismatched.is_empty() {
            "sim outputs identical".to_string()
        } else {
            format!("SIM OUTPUTS DIFFER: {}", mismatched.join(", "))
        });
        println!("{wl:<15} {}", cells.join(" | "));
    }
    ok
}

fn any_failed(set: &Json) -> bool {
    WORKLOADS.iter().any(|(wl, _)| {
        workload(set, wl)
            .and_then(|r| r.get("failed"))
            .and_then(Json::as_f64)
            .is_none_or(|f| f > 0.0)
    })
}

/// `ledger.md`: one row per workload splitting the rep wall by layer.
fn render_ledger(traced: &Json) -> String {
    let mut md = String::from(
        "# Ledger: where a rep's host wall goes\n\n\
         One row per workload, from the traced run (median over traced reps). Host\n\
         seconds and share of `wall_s`. `_est` columns are estimated from the rung\n\
         below (`sim_raw` → `fabric_raw` → pt2pt → `nas_w`), as is `mpib` on the\n\
         `nas_w` and `ckpt_ladder` rows; the remainder column of each row is\n\
         marked `*`. `unattributed` is rep wall outside every measured run plus\n\
         anything the capped estimates left over.\n\n\
         | workload | wall_s | set-up | ibsim_est | ibfabric_est | mpib | app | unattributed |\n\
         |---|---|---|---|---|---|---|---|\n",
    );
    for (wl, _) in WORKLOADS {
        let Some(l) = workload(traced, wl).and_then(|r| r.get("ledger")) else {
            continue;
        };
        let wall = l.num("wall_s").unwrap_or(0.0);
        let cell = |key: &str, remainder: bool| {
            let v = l.num(key).unwrap_or(0.0);
            format!(
                "{v:.4} ({:.1}%){}",
                v / wall.max(f64::MIN_POSITIVE) * 100.0,
                if remainder { " *" } else { "" }
            )
        };
        let pt2pt = matches!(wl, "eager_small" | "credit_starved" | "rndv_large");
        let upper = matches!(wl, "nas_w" | "ckpt_ladder");
        let _ = writeln!(
            md,
            "| `{wl}` | {wall:.4} | {} | {} | {} | {} | {} | {} |",
            cell("setup_s", false),
            cell("ibsim_s", false),
            cell("ibfabric_s", wl == "fabric_raw"),
            cell("mpib_s", pt2pt),
            cell("app_s", upper),
            cell("unattributed_s", false),
        );
    }
    md.push_str("\nPer-kernel rows of `nas_w` (host ms per rep; `app_share_est` = share no comms change can touch):\n\n| kernel | wall_ms | events | host_ns_per_event | app_share_est |\n|---|---|---|---|---|\n");
    if let Some(pl) = workload(traced, "nas_w").and_then(|r| r.get("per_layer")) {
        let v = |name: String| {
            pl.get(&name)
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        for k in nasbench::Kernel::ALL.map(kernel_key) {
            let _ = writeln!(
                md,
                "| {k} | {:.1} | {:.0} | {:.0} | {:.2} |",
                v(format!("nasbench.wall_ms.{k}")),
                v(format!("nasbench.events.{k}")),
                v(format!("nasbench.host_ns_per_event.{k}")),
                v(format!("nasbench.app_share_est.{k}")),
            );
        }
    }
    md
}

pub fn full(args: &FullArgs) -> Result<ExitCode, String> {
    let mut sets = Vec::new();
    for k in 0..args.sets {
        sets.push(run_set(
            args.seed,
            args.seconds,
            false,
            &format!("set{}", k + 1),
        )?);
    }
    let mut ok = !sets.iter().any(any_failed);
    if let [a, b, ..] = sets.as_slice() {
        ok &= print_agreement("set 1 vs set 2 (same code, same seed)", a, b, true);
    }
    if args.traced {
        let traced = run_set(args.seed, args.seconds, true, "traced")?;
        ok &= !any_failed(&traced);
        if let Some(first) = sets.first() {
            ok &= print_agreement(
                "untraced vs traced (sim outputs only)",
                first,
                &traced,
                false,
            );
        }
        for (wl, _) in WORKLOADS {
            let overhead = workload(&traced, wl)
                .and_then(|r| {
                    r.get("per_layer")?
                        .get("trace.overhead_frac")?
                        .get("value")?
                        .as_f64()
                })
                .unwrap_or(f64::NAN);
            let verdict = if overhead < 0.05 {
                "ok"
            } else {
                "TOO HIGH: traced shares not trusted"
            };
            println!("{wl:<15} trace.overhead_frac {overhead:+.4} {verdict}");
        }
        let md = render_ledger(&traced);
        println!("\n{md}");
        std::fs::write(LEDGER_MD, &md).map_err(|e| format!("{LEDGER_MD}: {e}"))?;
        sets.push(traced);
    }
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| format!("{RAW_DIR}/latest.json"));
    // Appending lets parent and change alternate set by set into two files.
    let mut runs: Vec<Json> = std::fs::read_to_string(&path)
        .ok()
        .and_then(|t| Json::parse(&t).ok())
        .map(|j| {
            j.get("runs")
                .map(|r| r.as_arr().to_vec())
                .unwrap_or_default()
        })
        .unwrap_or_default();
    runs.extend(sets);
    let mut file = Json::obj();
    file.set("schema", 1u64).set("runs", runs);
    std::fs::write(&path, file.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
    println!("\nresults: {path}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Validates a worker's last stdout line against `BENCHMARK.json`.
fn check_result_line(stdout: &str, spec: &Json, traced: bool) -> Result<(), String> {
    let line = stdout.lines().last().ok_or("worker printed nothing")?;
    let result = Json::parse(line).map_err(|e| format!("last line is not JSON: {e}"))?;
    let keys: Vec<&str> = result
        .as_obj()
        .map(|m| m.keys().map(String::as_str).collect())
        .unwrap_or_default();
    if keys != ["attempted", "correct", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if result.get("correct") != Some(&Json::Bool(true)) || result.num("failed")? != 0.0 {
        return Err(format!("not correct: {line}"));
    }
    let section = if traced { "per_layer" } else { "end_to_end" };
    let want = spec.get(section).map(Json::as_arr).unwrap_or_default();
    let got = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("no metrics")?;
    if got.len() != want.len() {
        return Err(format!(
            "{} metrics, {section} names {}",
            got.len(),
            want.len()
        ));
    }
    for m in want {
        let name = m.get("name").and_then(Json::as_str).unwrap_or("");
        let unit = m.get("unit").and_then(Json::as_str);
        let Some(v) = got.get(name) else {
            return Err(format!("metric {name} missing"));
        };
        if v.get("unit").and_then(Json::as_str) != unit || v.num("value").is_err() {
            return Err(format!(
                "metric {name}: bad unit or value in {}",
                v.render()
            ));
        }
    }
    Ok(())
}

pub fn check(seed: u64) -> Result<ExitCode, String> {
    let spec_text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repo root): {e}"))?;
    let spec = Json::parse(&spec_text)?;
    if spec != catalog::benchmark_json() {
        return Err("BENCHMARK.json differs from the harness's catalog; \
                    regenerate it with --emit-benchmark-json"
            .into());
    }
    println!("BENCHMARK.json matches the catalog");
    for (wl, _) in WORKLOADS {
        let plain = run_worker(wl, seed, 0.0, false, true, "check")?;
        check_result_line(&plain.stdout, &spec, false).map_err(|e| format!("{wl}: {e}"))?;
        let traced = run_worker(wl, seed, 0.0, true, true, "check-traced")?;
        check_result_line(&traced.stdout, &spec, true).map_err(|e| format!("{wl} traced: {e}"))?;
        let mismatched = sim_mismatches(&plain.record, &traced.record);
        if !mismatched.is_empty() {
            return Err(format!("{wl}: traced run changed {mismatched:?}"));
        }
        let mut note = "";
        if SEEDED.contains(&wl) {
            let other = run_worker(wl, seed + 1, 0.0, false, true, "check-seed")?;
            if other.record.get("sim_digest") == plain.record.get("sim_digest") {
                return Err(format!(
                    "{wl}: a different --seed left sim_digest unchanged"
                ));
            }
            note = ", seed changes digest";
        }
        println!(
            "{wl:<15} ok: schema, checks, digest repeats{note} ({})",
            plain
                .record
                .get("sim_digest")
                .and_then(Json::as_str)
                .unwrap_or("?")
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn untraced_runs(file: &Json) -> Vec<&Json> {
    file.get("runs")
        .map(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter(|r| r.get("traced") == Some(&Json::Bool(false)))
        .collect()
}

/// The guide's rule for a later PR: pairs of parent (A) and change (B)
/// runs, wins out of pairs, medians and quartiles, one row per workload
/// and metric. A gain needs nine tenths of the pairs and a median shift
/// beyond A's own quartile spread; a regression is a median worse by
/// more than the bound; a spread wider than the bound is `unresolved`
/// unless every B run beats every A run.
pub fn compare(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let load = |p: &str| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (fa, fb) = (load(a_path)?, load(b_path)?);
    let (ra, rb) = (untraced_runs(&fa), untraced_runs(&fb));
    let pairs = ra.len().min(rb.len());
    if pairs == 0 {
        return Err("no untraced runs to pair".into());
    }
    println!(
        "A = {a_path} ({} runs), B = {b_path} ({} runs), {pairs} pairs",
        ra.len(),
        rb.len()
    );
    if pairs < 10 {
        println!("note: fewer than ten pairs; no gain can be claimed from this comparison");
    }
    println!(
        "| workload | metric | A median [q1, q3] | B median [q1, q3] | B wins/pairs | verdict |"
    );
    println!("|---|---|---|---|---|---|");
    let mut regressed = false;
    for (wl, _) in WORKLOADS {
        for (metric, _, better, bound) in END_TO_END {
            let series = |runs: &[&Json]| -> Vec<f64> {
                runs.iter()
                    .take(pairs)
                    .filter_map(|r| e2e(r, wl, metric))
                    .collect()
            };
            let (va, vb) = (series(&ra), series(&rb));
            if va.len() != pairs || vb.len() != pairs {
                continue;
            }
            let (a1, a2, a3) = quartiles(&va);
            let (b1, b2, b3) = quartiles(&vb);
            let wins = va
                .iter()
                .zip(&vb)
                .filter(|(a, b)| worse_by(**a, **b, better) < 0.0)
                .count();
            let ties = va.iter().zip(&vb).filter(|(a, b)| a == b).count();
            let spread = (a3 - a1).abs();
            let worse = worse_by(a2, b2, better);
            let b_dominates = vb
                .iter()
                .all(|b| va.iter().all(|a| worse_by(*a, *b, better) < 0.0));
            let verdict = if worse > bound {
                regressed = true;
                "REGRESSION"
            } else if pairs >= 10
                && wins * 10 >= (pairs - ties) * 9
                && wins > 0
                && (b2 - a2).abs() > spread
            {
                "gain"
            } else if spread / a2.abs().max(f64::MIN_POSITIVE) > bound && !b_dominates {
                "unresolved"
            } else {
                "no regression"
            };
            println!(
                "| {wl} | {metric} | {a2:.6} [{a1:.6}, {a3:.6}] | {b2:.6} [{b1:.6}, {b3:.6}] | {wins}/{pairs} | {verdict} |"
            );
        }
    }
    println!("\nsim outputs (must match exactly unless the change is meant to alter the model):");
    let mut sim_differs = false;
    for (wl, _) in WORKLOADS {
        let (Some(a), Some(b)) = (workload(ra[0], wl), workload(rb[0], wl)) else {
            continue;
        };
        if a.get("seed") != b.get("seed") {
            println!("{wl:<15} seeds differ; not compared");
            continue;
        }
        let mismatched = sim_mismatches(a, b);
        sim_differs |= !mismatched.is_empty();
        println!(
            "{wl:<15} {}",
            if mismatched.is_empty() {
                "identical".to_string()
            } else {
                format!("DIFFER: {}", mismatched.join(", "))
            }
        );
    }
    Ok(if regressed || sim_differs {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}
