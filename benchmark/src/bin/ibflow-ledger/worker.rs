//! One workload in one process on one thread: set-up, timed reps, checks,
//! and the result record.

use crate::catalog::{self, END_TO_END};
use crate::common::{median, quartiles, Rep, Scale, Workload};
use crate::derive::{self, Inputs};
use crate::json::Json;
use crate::trace::{self, Tracer};
use crate::wl_pt2pt::Pt2pt;
use crate::{rungs, wl_ckpt, wl_fabric, wl_nas, wl_sim};
use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up lasts at least this long: probes, then discarded warm-up reps.
const WARMUP_SECONDS: f64 = 2.5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub tiny: bool,
    /// Where to write the full record (the orchestrator reads it back).
    pub out: Option<String>,
}

fn make(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "sim_raw" => Box::new(wl_sim::SimRaw::new(seed, scale)),
        "fabric_raw" => Box::new(wl_fabric::FabricRaw::new(seed, scale)),
        "eager_small" => Box::new(Pt2pt::eager_small(scale)),
        "credit_starved" => Box::new(Pt2pt::credit_starved(seed, scale)),
        "rndv_large" => Box::new(Pt2pt::rndv_large(scale)),
        "nas_w" => Box::new(wl_nas::NasW::new(scale)),
        "ckpt_ladder" => Box::new(wl_ckpt::CkptLadder::new(seed, scale)),
        _ => return None,
    })
}

/// One timed rep with its wall and allocation counts.
struct Timed {
    rep: Rep,
    wall_ns: f64,
    traced: bool,
    allocs: u64,
    alloc_bytes: u64,
}

fn timed_rep(wl: &mut dyn Workload, tr: &mut Tracer, idx: u32, traced: bool) -> Timed {
    tr.on = traced;
    tr.rep = idx;
    trace::set_alloc_counting(traced);
    let (a0, b0) = trace::alloc_counters();
    let t0 = Instant::now();
    let rep = wl.rep(tr);
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let (a1, b1) = trace::alloc_counters();
    trace::set_alloc_counting(false);
    tr.on = false;
    Timed {
        rep,
        wall_ns,
        traced,
        allocs: a1 - a0,
        alloc_bytes: b1 - b0,
    }
}

/// Median per host-ns bucket over `reps`.
fn host_medians<'a>(reps: impl Iterator<Item = &'a Rep> + Clone) -> BTreeMap<String, f64> {
    let mut keys: Vec<&String> = reps.clone().flat_map(|r| r.host_ns.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .map(|k| {
            let samples: Vec<f64> = reps
                .clone()
                .map(|r| r.host_ns.get(k).copied().unwrap_or(0) as f64)
                .collect();
            (k.clone(), median(&samples))
        })
        .collect()
}

pub fn run(args: &Args) -> Result<(), String> {
    let start = Instant::now();
    let scale = Scale { tiny: args.tiny };
    let mut wl = make(&args.workload, args.seed, scale)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let mut tr = Tracer::new(start);

    // Set-up: probes, the rungs below this workload (traced runs only),
    // and the discarded warm-up reps.
    tr.on = args.traced;
    let probes = wl.probes(&mut tr, scale.pick(10, 1));
    let rung = if args.traced {
        rungs::run(&args.workload, &mut tr, scale)
    } else {
        rungs::Rung::default()
    };
    // Warm up for at least WARMUP_SECONDS, so that set-up is long enough
    // to time steadily and caches, heap and lazy set-up have settled.
    let warmup = timed_rep(wl.as_mut(), &mut tr, 0, false);
    while !args.tiny && start.elapsed().as_secs_f64() < WARMUP_SECONDS {
        timed_rep(wl.as_mut(), &mut tr, 0, false);
    }
    let setup_s = start.elapsed().as_secs_f64();

    // Timed reps. A traced run alternates untraced and traced reps, so
    // the tracing overhead is a paired difference inside one process.
    // At least 5 timed reps, or 3 untraced + 3 traced.
    let min_reps = if args.traced { 6 } else { 5 };
    let min_reps = scale.pick(min_reps, 2);
    let measure = Instant::now();
    let mut reps: Vec<Timed> = Vec::new();
    while reps.len() < min_reps
        || (measure.elapsed().as_secs_f64() < args.seconds && reps.len() < 10_000)
    {
        let idx = reps.len() as u32 + 1;
        let traced = args.traced && idx % 2 == 0;
        reps.push(timed_rep(wl.as_mut(), &mut tr, idx, traced));
    }

    // Checks: every op's own check, and every rep's sim outputs against
    // the first's (the warm-up included).
    let reference = warmup.rep.digest;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut failures: Vec<String> = Vec::new();
    for (n, t) in reps.iter().enumerate() {
        attempted += t.rep.ops;
        if t.rep.digest != reference || t.rep.counts != warmup.rep.counts {
            failed += t.rep.ops;
            failures.push(format!("rep {}: sim_digest differs from rep 0", n + 1));
        } else {
            failed += t.rep.failed;
        }
        failures.extend(t.rep.failures.iter().cloned());
    }
    failures.truncate(8);

    let walls = |traced: bool| -> Vec<f64> {
        reps.iter()
            .filter(|t| t.traced == traced)
            .map(|t| t.wall_ns)
            .collect()
    };
    let plain = walls(false);
    let ops = warmup.rep.ops;
    let (w1, w2, w3) = quartiles(&plain);
    let rates: Vec<f64> = plain.iter().map(|w| ops as f64 * 1e9 / w).collect();
    let (r1, r2, r3) = quartiles(&rates);

    let mut record = Json::obj();
    record
        .set("workload", args.workload.as_str())
        .set("seed", args.seed)
        .set("traced", args.traced)
        .set("tiny", args.tiny)
        .set("timed_reps", plain.len() as u64)
        .set("ops_per_rep", ops)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("fail_frac", failed as f64 / attempted.max(1) as f64)
        .set("sim_digest", format!("{:016x}", reference.0))
        .set("sim_time_ms", warmup.rep.sim_ns as f64 / 1e6)
        .set(
            "failures",
            failures
                .iter()
                .map(|f| Json::from(f.as_str()))
                .collect::<Vec<_>>(),
        )
        .set(
            "rep_wall_s",
            plain
                .iter()
                .map(|w| Json::from(w / 1e9))
                .collect::<Vec<_>>(),
        );
    let mut counts = Json::obj();
    for (k, v) in &warmup.rep.counts {
        counts.set(k, *v);
    }
    record.set("counts", counts);

    let peak_rss_mb = trace::peak_rss_mb();
    let mut end_to_end = Json::obj();
    for (name, unit, _, _) in END_TO_END {
        let (value, q1, q3) = match name {
            "ops_per_s" => (r2, r1, r3),
            "wall_s" => (w2 / 1e9, w1 / 1e9, w3 / 1e9),
            "setup_s" => (setup_s, setup_s, setup_s),
            "peak_rss_mb" => (peak_rss_mb, peak_rss_mb, peak_rss_mb),
            other => unreachable!("catalog names an end-to-end metric {other} the worker lacks"),
        };
        let mut m = Json::obj();
        m.set("value", value)
            .set("unit", unit)
            .set("q1", q1)
            .set("q3", q3);
        end_to_end.set(name, m);
    }
    record.set("end_to_end", end_to_end.clone());

    let mut per_layer = Json::obj();
    if args.traced {
        let traced_walls = walls(true);
        let traced_reps = || reps.iter().filter(|t| t.traced).map(|t| &t.rep);
        let mut host = host_medians(traced_reps());
        let mut counts = warmup.rep.counts.clone();
        rung.merge_into(&mut host, &mut counts);
        let inputs = Inputs {
            workload: &args.workload,
            host: &host,
            counts: &counts,
            probes: &probes,
            wall_ns: median(&traced_walls),
            ops,
            sim_ns: warmup.rep.sim_ns,
        };
        let mut values = derive::per_layer(&inputs);
        let n_traced = traced_walls.len().max(1) as f64;
        let per_op = |total: u64| total as f64 / n_traced / ops.max(1) as f64;
        values.insert(
            "alloc.count_per_op".into(),
            per_op(reps.iter().filter(|t| t.traced).map(|t| t.allocs).sum()),
        );
        values.insert(
            "alloc.bytes_per_op".into(),
            per_op(
                reps.iter()
                    .filter(|t| t.traced)
                    .map(|t| t.alloc_bytes)
                    .sum(),
            ),
        );
        // Paired: each traced rep against the untraced rep just before it,
        // so slow drift of the host cancels.
        let pair_ratios: Vec<f64> = reps
            .chunks_exact(2)
            .map(|pair| pair[1].wall_ns / pair[0].wall_ns - 1.0)
            .collect();
        values.insert("trace.overhead_frac".into(), median(&pair_ratios));
        for l in catalog::per_layer() {
            let mut m = Json::obj();
            m.set("value", values.get(&l.name).copied().unwrap_or(0.0))
                .set("unit", l.unit);
            per_layer.set(&l.name, m);
        }
        record.set("per_layer", per_layer.clone());

        let row = derive::ledger(&inputs);
        let mut ledger = Json::obj();
        ledger
            .set("wall_s", inputs.wall_ns / 1e9)
            .set("setup_s", row.setup / 1e9)
            .set("ibsim_s", row.ibsim / 1e9)
            .set("ibfabric_s", row.ibfabric / 1e9)
            .set("mpib_s", row.mpib / 1e9)
            .set("app_s", row.app / 1e9)
            .set("unattributed_s", row.unattributed / 1e9);
        record.set("ledger", ledger);
        let mut span_totals = Json::obj();
        // Per span name over the traced reps: median total and self ns.
        let per_rep: Vec<_> = reps
            .iter()
            .zip(1u32..)
            .filter(|(t, _)| t.traced)
            .map(|(_, idx)| tr.totals(idx))
            .collect();
        for name in per_rep.first().into_iter().flat_map(|r| r.keys()) {
            let column = |pick: fn(&(u64, u64)) -> u64| -> Vec<f64> {
                per_rep
                    .iter()
                    .filter_map(|r| r.get(name).map(|e| pick(e) as f64))
                    .collect()
            };
            let mut s = Json::obj();
            s.set("total_ms", median(&column(|e| e.0)) / 1e6)
                .set("self_ms", median(&column(|e| e.1)) / 1e6);
            span_totals.set(name, s);
        }
        record.set("spans", span_totals);
        let dir = "benchmark/results/raw";
        std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        let path = format!("{dir}/spans-{}.jsonl", args.workload);
        std::fs::write(&path, tr.render_jsonl()).map_err(|e| format!("{path}: {e}"))?;
    }

    // Every metric by name with its unit, then the one-line result.
    println!(
        "# {} seed={} traced={} timed_reps={} ops_per_rep={ops} sim_digest={:016x}",
        args.workload,
        args.seed,
        args.traced,
        plain.len(),
        reference.0
    );
    let shown = if args.traced { &per_layer } else { &end_to_end };
    let mut metrics = Json::obj();
    for (name, m) in shown.as_obj().into_iter().flatten() {
        let (value, unit) = (
            m.num("value")?,
            m.get("unit").and_then(Json::as_str).unwrap_or(""),
        );
        println!("{name} {value} {unit}");
        let mut v = Json::obj();
        v.set("value", value).set("unit", unit);
        metrics.set(name, v);
    }
    println!(
        "fail_frac {} frac ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    );
    for f in &failures {
        println!("FAILED: {f}");
    }
    if let Some(path) = &args.out {
        std::fs::write(path, record.render_pretty()).map_err(|e| format!("{path}: {e}"))?;
    }

    let mut line = Json::obj();
    line.set("correct", failed == 0)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("metrics", metrics);
    println!("{}", line.render());
    Ok(())
}
