//! Runs the entire reproduction battery — every figure and table — and
//! writes the results under `bench_results/`.
//!
//! The nine targets (Fig 2, Figs 3–8, the NAS battery backing Figs 9/10
//! and Tables 1/2, and the checkpoint ladder) run as [`ibpool`] jobs, so
//! the battery is
//! parallel across targets as well as within each target's sweep.
//! Sections are assembled in submission order, so `experiments.md` is
//! byte-identical at any `IBFLOW_JOBS` setting; only the wall-clock
//! numbers printed (and recorded in `target_times.json`) vary.
use ibflow_bench::figures::*;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished target: its rendered markdown sections plus wall time.
struct TargetOut {
    sections: Vec<String>,
    wall_ns: u64,
}

fn section(title: &str, body: &str) -> String {
    format!("## {title}\n\n```\n{body}```\n\n")
}

fn timed(f: impl FnOnce() -> Vec<String>) -> TargetOut {
    let t0 = Instant::now();
    let sections = f();
    TargetOut {
        sections,
        wall_ns: t0.elapsed().as_nanos() as u64,
    }
}

fn main() {
    let t0 = Instant::now();
    let class = ibflow_bench::nas_class_from_env();
    let workers = ibpool::worker_count();
    println!("running 9 targets (NAS class {class:?}) across {workers} worker(s)...");

    let mut names = vec!["fig2_latency".to_string()];
    let mut jobs: Vec<ibpool::Job<'_, TargetOut>> = vec![ibpool::job("target/fig2", move || {
        timed(|| {
            vec![section(
                "Figure 2 — MPI latency (us), pre-post = 100",
                &fig2_table(&fig2_latency()),
            )]
        })
    })];
    for (name, size, prepost, blocking) in [
        (
            "Figure 3 — bandwidth, 4 B, pre-post 100, blocking",
            4usize,
            100u32,
            true,
        ),
        (
            "Figure 4 — bandwidth, 4 B, pre-post 100, non-blocking",
            4,
            100,
            false,
        ),
    ] {
        names.push(name.split(' ').take(2).collect::<Vec<_>>().join("_"));
        jobs.push(ibpool::job(format!("target/{name}"), move || {
            timed(|| {
                vec![section(
                    name,
                    &bandwidth_table(&bandwidth_figure(size, prepost, blocking)),
                )]
            })
        }));
    }
    // Figs 5/6 run the five-way sweep: the window overruns the pre-post
    // depth there, so the dynamically-grown ring rides along as a fifth
    // column next to the static ring it fixes.
    for (name, blocking) in [
        ("Figure 5 — bandwidth, 4 B, pre-post 10, blocking", true),
        (
            "Figure 6 — bandwidth, 4 B, pre-post 10, non-blocking",
            false,
        ),
    ] {
        names.push(name.split(' ').take(2).collect::<Vec<_>>().join("_"));
        jobs.push(ibpool::job(format!("target/{name}"), move || {
            timed(|| {
                vec![section(
                    name,
                    &bandwidth_table_dyn(&bandwidth_figure_dyn(4, 10, blocking)),
                )]
            })
        }));
    }
    for (name, size, prepost, blocking) in [
        (
            "Figure 7 — bandwidth, 32 KB, pre-post 10, blocking",
            32768usize,
            10u32,
            true,
        ),
        (
            "Figure 8 — bandwidth, 32 KB, pre-post 10, non-blocking",
            32768,
            10,
            false,
        ),
    ] {
        names.push(name.split(' ').take(2).collect::<Vec<_>>().join("_"));
        jobs.push(ibpool::job(format!("target/{name}"), move || {
            timed(|| {
                vec![section(
                    name,
                    &bandwidth_table(&bandwidth_figure(size, prepost, blocking)),
                )]
            })
        }));
    }
    names.push("nas_battery".to_string());
    jobs.push(ibpool::job("target/nas_battery", move || {
        timed(|| {
            let runs = nas_battery(class);
            assert!(runs.iter().all(|r| r.verified), "every kernel must verify");
            vec![
                section(
                    &format!("Figure 9 — NAS runtimes, pre-post = 100 (class {class:?})"),
                    &fig9_table(&runs),
                ),
                section(
                    "Figure 10 — degradation, pre-post 100 -> 1",
                    &fig10_table(&runs),
                ),
                section(
                    "Table 1 — explicit credit messages (user-level static)",
                    &table1(&runs),
                ),
                section(
                    "Table 2 — max posted buffers (user-level dynamic, start = 1)",
                    &table2(&runs),
                ),
            ]
        })
    }));
    // The checkpoint ladder nests its own pool batch (one job per
    // scheme); each batch gets its own scoped threads, so nesting can't
    // deadlock, and results stay in submission order either way.
    names.push("ckpt_ladder".to_string());
    jobs.push(ibpool::job("target/ckpt_ladder", move || {
        timed(|| {
            let seed = ibflow_bench::chaos::seed_from_env();
            let epoch = ibflow_bench::ckpt::snap_epoch_from_env();
            let runs = ibflow_bench::ckpt::ckpt_ladder(seed, epoch);
            vec![
                section(
                    "Checkpoint ladder — CG snapshot / restore / replace / chaos-soak",
                    &ibflow_bench::ckpt::ckpt_table(&runs),
                ),
                section(
                    "Checkpoint size vs world size — CG snapshot / resume",
                    &ibflow_bench::ckpt::ckpt_scaling_table(&ibflow_bench::ckpt::ckpt_scaling()),
                ),
            ]
        })
    }));

    let outs = ibpool::run_batch(jobs);

    // Static-analysis wall time rides along in target_times.json so lint
    // throughput regressions show up next to the experiment timings. Runs
    // after the pool drains (single-threaded, and not a markdown section:
    // experiments.md stays byte-identical across IBFLOW_JOBS settings).
    let lint_t0 = Instant::now();
    let lint = simlint::lint_tree(std::path::Path::new(".")).expect("lint workspace");
    let lint_ns = lint_t0.elapsed().as_nanos() as u64;
    assert!(
        lint.is_clean(),
        "workspace lint regressed:\n{}",
        simlint::render_human(&lint)
    );

    let total_ns = t0.elapsed().as_nanos() as u64;

    let mut out = String::new();
    for t in &outs {
        for s in &t.sections {
            out.push_str(s);
        }
    }
    for (name, t) in names.iter().zip(&outs) {
        println!("  {name:<24} {:>10.3}s", t.wall_ns as f64 / 1e9);
    }
    println!("  {:<24} {:>10.3}s", "simlint", lint_ns as f64 / 1e9);

    std::fs::create_dir_all("bench_results").expect("mkdir bench_results");
    std::fs::write("bench_results/experiments.md", &out).expect("write results");

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"group\": \"all_experiments\",");
    let _ = writeln!(json, "  \"class\": \"{class:?}\",");
    let _ = writeln!(json, "  \"jobs\": {workers},");
    let _ = writeln!(json, "  \"total_wall_ns\": {total_ns},");
    let _ = writeln!(json, "  \"targets\": [");
    for (name, t) in names.iter().zip(&outs) {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"wall_ns\": {}}},",
            t.wall_ns
        );
    }
    let _ = writeln!(
        json,
        "    {{\"name\": \"simlint\", \"wall_ns\": {lint_ns}}}"
    );
    json.push_str("  ]\n}\n");
    std::fs::write("bench_results/target_times.json", json).expect("write target times");

    println!(
        "wrote bench_results/experiments.md + target_times.json; done in {:?} (wall)",
        t0.elapsed()
    );
}
