//! Golden-output regression test: the paper-reproduction pipeline's
//! *virtual-time* results are fully deterministic, so a byte-for-byte
//! snapshot comparison catches any behavioural drift in the simulator,
//! fabric, MPI layer, or kernels — not just shape violations.
//!
//! The snapshot lives at `bench_results/golden/figures.json`: Fig 2, the
//! Figs 5/6 bandwidth grid and Table 1. After an *intentional* behaviour
//! change, regenerate it with
//!
//! ```sh
//! IBFLOW_UPDATE_GOLDEN=1 cargo test -p ibflow-bench --test golden
//! ```
//!
//! and commit the diff alongside the change that explains it.

mod common;

use ibflow_bench::figures::{bandwidth_figure, fig2_latency};
use ibflow_bench::nas::run_nas;
use mpib::FlowControlScheme;
use nasbench::common::Kernel;
use nasbench::NasClass;

/// `"name": [...]` with one row per `(first value, cells)`: the `first`
/// field, then each scheme's cell under its label. All numbers are
/// formatted with fixed precision so the byte comparison is stable across
/// platforms (the values are exact virtual-time results, not wall-clock
/// measurements).
fn scheme_rows<T: std::fmt::Display>(name: &str, first: &str, rows: &[(T, &[f64])]) -> String {
    let rows: Vec<String> = rows
        .iter()
        .map(|(value, cells)| {
            let schemes = FlowControlScheme::ALL
                .iter()
                .zip(*cells)
                .map(|(s, x)| format!(", \"{}\": {x:.4}", s.label().replace('-', "_")));
            format!("{{\"{first}\": {value}{}}}", schemes.collect::<String>())
        })
        .collect();
    format!("  \"{name}\": [\n    {}\n  ]", rows.join(",\n    "))
}

fn render() -> String {
    let fig2 = fig2_latency();
    let fig2: Vec<_> = fig2.iter().map(|r| (r.size, &r.us[..])).collect();
    let mut sections = vec![scheme_rows("fig2_latency_us", "size", &fig2)];
    for (name, blocking) in [("fig5_bw_mbps", true), ("fig6_bw_mbps", false)] {
        let rows = bandwidth_figure(4, 10, blocking);
        let rows: Vec<_> = rows.iter().map(|r| (r.window, &r.mbps[..])).collect();
        sections.push(scheme_rows(name, "window", &rows));
    }
    let table1: Vec<String> = Kernel::ALL
        .iter()
        .map(|&kernel| {
            let r = run_nas(kernel, NasClass::Test, FlowControlScheme::UserStatic, 100);
            assert!(r.verified, "{} failed verification", kernel.name());
            format!(
                "{{\"app\": \"{}\", \"ecm_per_conn\": {:.4}, \"msgs_per_conn\": {:.4}, \"time_ms\": {:.6}, \"checksum\": {:.9e}}}",
                kernel.name(),
                r.ecm_per_conn,
                r.msgs_per_conn,
                r.time_ms,
                r.checksum,
            )
        })
        .collect();
    sections.push(format!(
        "  \"table1_ecm\": [\n    {}\n  ]",
        table1.join(",\n    ")
    ));
    format!("{{\n{}\n}}\n", sections.join(",\n"))
}

#[test]
fn virtual_time_results_match_golden_snapshot() {
    common::check_golden("figures", &render());
}
