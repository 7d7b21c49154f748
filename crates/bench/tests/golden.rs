//! Golden-output regression test: the paper-reproduction pipeline's
//! *virtual-time* results are fully deterministic, so a byte-for-byte
//! snapshot comparison catches any behavioural drift in the simulator,
//! fabric, MPI layer, or kernels — not just shape violations.
//!
//! The snapshot lives at `bench_results/golden/fig2_table1.json`.
//! After an *intentional* behaviour change, regenerate it with
//!
//! ```sh
//! IBFLOW_UPDATE_GOLDEN=1 cargo test -p ibflow-bench --test golden
//! ```
//!
//! and commit the diff alongside the change that explains it.
//!
//! The committed snapshot was generated under the thread-per-rank
//! runtime and has been left untouched across the coroutine-runtime
//! rewrite: this test passing *is* the proof that the two runtimes
//! produce byte-identical results.

use ibflow_bench::figures::{bandwidth_figure, fig2_latency};
use ibflow_bench::nas::run_nas;
use ibflow_bench::DYN_SCHEMES;
use mpib::FlowControlScheme;
use nasbench::common::Kernel;
use nasbench::NasClass;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_results/golden/fig2_table1.json")
}

fn dyn_golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../bench_results/golden/fig56_dyn.json")
}

/// Renders the snapshot. All numbers are formatted with fixed precision
/// so the byte comparison is stable across platforms (the underlying
/// values are exact virtual-time results, not wall-clock measurements).
fn render() -> String {
    let mut out = String::new();
    out.push_str("{\n  \"fig2_latency_us\": [\n");
    let rows = fig2_latency();
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"size\": {}, \"hardware\": {:.4}, \"user_static\": {:.4}, \"user_dynamic\": {:.4}, \"rdma_channel\": {:.4}}}{}\n",
            r.size,
            r.us[0],
            r.us[1],
            r.us[2],
            r.us[3],
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"table1_ecm\": [\n");
    for (i, &kernel) in Kernel::ALL.iter().enumerate() {
        let r = run_nas(kernel, NasClass::Test, FlowControlScheme::UserStatic, 100);
        assert!(r.verified, "{} failed verification", kernel.name());
        out.push_str(&format!(
            "    {{\"app\": \"{}\", \"ecm_per_conn\": {:.4}, \"msgs_per_conn\": {:.4}, \"time_ms\": {:.6}, \"checksum\": {:.9e}}}{}\n",
            kernel.name(),
            r.ecm_per_conn,
            r.msgs_per_conn,
            r.time_ms,
            r.checksum,
            if i + 1 < Kernel::ALL.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders the five-way Figs 5/6 snapshot: the full bandwidth grid at
/// pre-post 10, where the dynamically-grown ring rides as a fifth
/// column next to the static ring whose starvation cliff it closes.
fn render_fig56_dyn() -> String {
    let mut out = String::from("{\n");
    for (i, (key, blocking)) in [("fig5_bw_mbps", true), ("fig6_bw_mbps", false)]
        .into_iter()
        .enumerate()
    {
        out.push_str(&format!("  \"{key}\": [\n"));
        let rows = bandwidth_figure(&DYN_SCHEMES, 4, 10, blocking);
        for (j, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"window\": {}, \"hardware\": {:.4}, \"user_static\": {:.4}, \
                 \"user_dynamic\": {:.4}, \"rdma_channel\": {:.4}, \"rdma_channel_dyn\": {:.4}}}{}\n",
                r.window,
                r.mbps[0],
                r.mbps[1],
                r.mbps[2],
                r.mbps[3],
                r.mbps[4],
                if j + 1 < rows.len() { "," } else { "" }
            ));
        }
        out.push_str(&format!("  ]{}\n", if i == 0 { "," } else { "" }));
    }
    out.push_str("}\n");
    out
}

#[test]
fn five_way_bandwidth_matches_golden_snapshot() {
    let path = dyn_golden_path();
    let got = render_fig56_dyn();
    if std::env::var("IBFLOW_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("fig56_dyn golden snapshot updated: {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             IBFLOW_UPDATE_GOLDEN=1 cargo test -p ibflow-bench --test golden",
            path.display()
        )
    });
    assert!(
        got == want,
        "five-way bandwidth results drifted from the golden snapshot.\n\
         If this change is intentional, regenerate with\n\
         IBFLOW_UPDATE_GOLDEN=1 cargo test -p ibflow-bench --test golden\n\
         and commit the new snapshot.\n--- got ---\n{got}\n--- want ---\n{want}"
    );
}

#[test]
fn virtual_time_results_match_golden_snapshot() {
    let path = golden_path();
    let got = render();
    if std::env::var("IBFLOW_UPDATE_GOLDEN").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &got).unwrap();
        eprintln!("golden snapshot updated: {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             IBFLOW_UPDATE_GOLDEN=1 cargo test -p ibflow-bench --test golden",
            path.display()
        )
    });
    assert!(
        got == want,
        "virtual-time results drifted from the golden snapshot.\n\
         If this change is intentional, regenerate with\n\
         IBFLOW_UPDATE_GOLDEN=1 cargo test -p ibflow-bench --test golden\n\
         and commit the new snapshot.\n--- got ---\n{got}\n--- want ---\n{want}"
    );
}
