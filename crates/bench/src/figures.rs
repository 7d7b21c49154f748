//! One function per table/figure of the paper: each returns the rows the
//! corresponding [`EXPERIMENTS`](crate::EXPERIMENTS) row prints, so integration tests can assert the
//! paper's *shape* claims against the exact data the harness reports.
//!
//! Every sweep fans its independent simulations out over the
//! [`ibpool`] worker pool (`IBFLOW_JOBS` controls the width). Each
//! simulation is a closed deterministic world, and the pool returns
//! results in submission order, so the rows — and therefore every table,
//! figure, and golden snapshot — are byte-identical at any job count.

use crate::micro::{bandwidth_test, latency_test, MicroParams};
use crate::nas::{pool_memory, run_nas, NasRun, PoolMemory};
use crate::report::table;
use ibfabric::FabricParams;
use mpib::FlowControlScheme;
use nasbench::common::Kernel;
use nasbench::NasClass;

/// Message sizes for the latency figure.
pub const FIG2_SIZES: [usize; 8] = [4, 16, 64, 256, 1024, 1984, 4096, 16384];

/// Window sizes for the bandwidth figures.
pub const BW_WINDOWS: [u32; 7] = [1, 4, 8, 16, 32, 64, 100];

/// Fig 2 — one-way latency (µs) per message size per scheme.
pub struct Fig2Row {
    /// Message size in bytes.
    pub size: usize,
    /// Latency per scheme, in [`FlowControlScheme::ALL`] order.
    pub us: [f64; FlowControlScheme::ALL.len()],
}

/// Runs the Fig 2 sweep (pre-post 100, blocking ping-pong); one pool job
/// per (size, scheme) cell.
pub fn fig2_latency() -> Vec<Fig2Row> {
    let jobs: Vec<ibpool::Job<'_, f64>> = FIG2_SIZES
        .iter()
        .flat_map(|&size| {
            FlowControlScheme::ALL.into_iter().map(move |scheme| {
                ibpool::job(format!("fig2/size={size}/{}", scheme.label()), move || {
                    latency_test(
                        &MicroParams::new(scheme, 100),
                        size,
                        FabricParams::mt23108(),
                    )
                })
            })
        })
        .collect();
    let us = ibpool::run_batch(jobs);
    FIG2_SIZES
        .iter()
        .enumerate()
        .map(|(r, &size)| Fig2Row {
            size,
            us: std::array::from_fn(|i| us[FlowControlScheme::ALL.len() * r + i]),
        })
        .collect()
}

/// Formats Fig 2 rows.
pub fn fig2_table(rows: &[Fig2Row]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.size.to_string()];
            row.extend(r.us.iter().map(|v| format!("{v:.2}")));
            row
        })
        .collect();
    scheme_table(&["size(B)"], "us", &[], &data)
}

/// A table headed by the `lead` columns, then one column per scheme
/// headed by its label (with `(unit)` unless `unit` is empty), then the
/// `trail` columns.
fn scheme_table(lead: &[&str], unit: &str, trail: &[&str], data: &[Vec<String>]) -> String {
    let schemes = FlowControlScheme::ALL.map(|s| match unit {
        "" => s.label().to_string(),
        _ => format!("{}({unit})", s.label()),
    });
    let headers: Vec<&str> = lead
        .iter()
        .copied()
        .chain(schemes.iter().map(String::as_str))
        .chain(trail.iter().copied())
        .collect();
    table(&headers, data)
}
/// One bandwidth-figure row: MB/s per scheme at one window size.
pub struct BwRow {
    /// Window size (messages per burst).
    pub window: u32,
    /// Bandwidth per scheme, in [`FlowControlScheme::ALL`] order, MB/s.
    pub mbps: Vec<f64>,
}

/// Runs one of the bandwidth figures (Figs 3–8 are parameterizations of
/// this sweep); one pool job per (window, scheme) cell. In Figs 5/6 the
/// window overruns the pre-post depth: the static ring (sized to the
/// pre-post depth) starves and the grown ring is the fix.
pub fn bandwidth_figure(size: usize, prepost: u32, blocking: bool) -> Vec<BwRow> {
    let jobs: Vec<ibpool::Job<'_, f64>> = BW_WINDOWS
        .iter()
        .flat_map(|&window| {
            FlowControlScheme::ALL.into_iter().map(move |scheme| {
                ibpool::job(
                    format!("bw/size={size}/pp={prepost}/w={window}/{}", scheme.label()),
                    move || {
                        let p = MicroParams {
                            iters: 20,
                            warmup: 4,
                            ..MicroParams::new(scheme, prepost)
                        };
                        bandwidth_test(&p, size, window, blocking, FabricParams::mt23108()).mb_per_s
                    },
                )
            })
        })
        .collect();
    let mbps = ibpool::run_batch(jobs);
    BW_WINDOWS
        .into_iter()
        .zip(mbps.chunks(FlowControlScheme::ALL.len()))
        .map(|(window, cells)| BwRow {
            window,
            mbps: cells.to_vec(),
        })
        .collect()
}

/// Formats bandwidth rows.
pub fn bandwidth_table(rows: &[BwRow]) -> String {
    let data: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            let mut row = vec![r.window.to_string()];
            row.extend(r.mbps.iter().map(|v| format!("{v:.3}")));
            row
        })
        .collect();
    scheme_table(&["window"], "MB/s", &[], &data)
}

/// Fig 9 / Fig 10 / Tables 1–2 all come from the same application runs;
/// this sweep runs every kernel under every scheme at both pre-post
/// depths.
pub fn nas_battery(class: NasClass) -> Vec<NasRun> {
    let mut jobs: Vec<ibpool::Job<'_, NasRun>> = Vec::new();
    for kernel in Kernel::ALL {
        for prepost in [100u32, 1] {
            for scheme in FlowControlScheme::ALL {
                jobs.push(ibpool::job(
                    format!("nas/{}/{}/pp={prepost}", kernel.name(), scheme.label()),
                    move || run_nas(kernel, class, scheme, prepost),
                ));
            }
        }
    }
    ibpool::run_batch(jobs)
}

/// Extracts one run from a battery.
pub fn pick(runs: &[NasRun], kernel: Kernel, scheme: FlowControlScheme, prepost: u32) -> &NasRun {
    runs.iter()
        .find(|r| r.kernel == kernel && r.scheme == scheme && r.prepost == prepost)
        .expect("battery is complete")
}

/// Fig 9 — NAS runtimes at pre-post 100, then user-static's overhead
/// over hardware.
pub fn fig9_table(runs: &[NasRun]) -> String {
    let data: Vec<Vec<String>> = Kernel::ALL
        .iter()
        .map(|&k| {
            let ms = |scheme| pick(runs, k, scheme, 100).time_ms;
            let mut row = vec![k.name().to_string(), k.paper_procs().to_string()];
            row.extend(FlowControlScheme::ALL.map(|s| format!("{:.2}", ms(s))));
            let (hw, us) = (
                ms(FlowControlScheme::Hardware),
                ms(FlowControlScheme::UserStatic),
            );
            row.push(format!("{:+.1}%", (us / hw - 1.0) * 100.0));
            row
        })
        .collect();
    scheme_table(&["app", "procs"], "ms", &["static vs hw"], &data)
}

/// Fig 10 — percentage degradation going from pre-post 100 to 1. The
/// rdma-channel column shows the static ring's starvation at a 1-deep
/// ring, the rdma-channel-dyn column shows ring growth recovering most
/// of it.
pub fn fig10_table(runs: &[NasRun]) -> String {
    let data: Vec<Vec<String>> = Kernel::ALL
        .iter()
        .map(|&k| {
            let mut row = vec![k.name().to_string()];
            row.extend(FlowControlScheme::ALL.map(|scheme| {
                let base = pick(runs, k, scheme, 100).time_ms;
                let one = pick(runs, k, scheme, 1).time_ms;
                format!("{:+.1}%", (one / base - 1.0) * 100.0)
            }));
            row
        })
        .collect();
    scheme_table(&["app"], "", &[], &data)
}

/// Table 1 — explicit credit messages, user-level static at pre-post 100.
pub fn table1(runs: &[NasRun]) -> String {
    let data: Vec<Vec<String>> = Kernel::ALL
        .iter()
        .map(|&k| {
            let r = pick(runs, k, FlowControlScheme::UserStatic, 100);
            let pct = if r.msgs_per_conn > 0.0 {
                r.ecm_per_conn / r.msgs_per_conn * 100.0
            } else {
                0.0
            };
            vec![
                k.name().to_string(),
                format!("{:.1}", r.ecm_per_conn),
                format!("{:.0}", r.msgs_per_conn),
                format!("{pct:.1}%"),
            ]
        })
        .collect();
    table(
        &["app", "# ECM msg/conn", "# total msg/conn", "ECM share"],
        &data,
    )
}

/// Table 2 — maximum posted buffers, user-level dynamic starting from 1.
pub fn table2(runs: &[NasRun]) -> String {
    let data: Vec<Vec<String>> = Kernel::ALL
        .iter()
        .map(|&k| {
            let r = pick(runs, k, FlowControlScheme::UserDynamic, 1);
            vec![k.name().to_string(), r.max_posted.to_string()]
        })
        .collect();
    table(&["app", "max posted buffers"], &data)
}

/// [`pool_memory`] of SP on its 16 ranks under every scheme at both
/// pre-post depths: the rows of [`resident_memory_table`].
pub fn resident_memory_sweep(class: NasClass) -> Vec<(FlowControlScheme, u32, PoolMemory)> {
    let mut rows = Vec::new();
    for prepost in [100u32, 1] {
        for scheme in FlowControlScheme::ALL {
            rows.push((
                scheme,
                prepost,
                pool_memory(Kernel::Sp, class, scheme, prepost),
            ));
        }
    }
    rows
}

/// Registered vs resident receive memory per connection, as the markdown
/// table EXPERIMENTS.md carries next to Table 2 (a test holds the two
/// equal).
pub fn resident_memory_table(rows: &[(FlowControlScheme, u32, PoolMemory)]) -> String {
    let kib = |bytes: usize| format!("{:.1}", bytes as f64 / 1024.0);
    let mib = |bytes: usize| format!("{:.1}", bytes as f64 / (1024.0 * 1024.0));
    let mut out = String::from(
        "| scheme | pre-post | registered / conn (KiB) | resident / conn, mean (KiB) | resident, busiest conn (KiB) | fabric registered (MiB) | fabric resident (MiB) |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for (scheme, prepost, m) in rows {
        out.push_str(&format!(
            "| {} | {prepost} | {} | {} | {} | {} | {} |\n",
            scheme.label(),
            kib(m.registered),
            kib(m.resident_total / m.connections),
            kib(m.resident_max),
            mib(m.fabric_registered),
            mib(m.fabric_resident),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_shape_schemes_comparable() {
        let rows = fig2_latency();
        for r in &rows {
            let base = r.us[0];
            // The three send/recv schemes stay within a few percent of
            // each other at every size (paper Fig 2).
            for &v in &r.us[1..3] {
                assert!(
                    (v - base).abs() / base < 0.06,
                    "size {}: latencies {:?} should be within a few percent",
                    r.size,
                    r.us
                );
            }
        }
        // Latency grows with size; the rendezvous knee is visible.
        assert!(rows.last().unwrap().us[0] > rows[0].us[0] * 3.0);
    }

    #[test]
    fn fig2_shape_rdma_channel_wins_small_messages() {
        // The headline claim from the companion design [13]: polled ring
        // delivery (no CQE, no repost) beats the send/recv path by the
        // paper family's 6.8-vs-7.5 µs margin. Pin it: rdma-channel 4 B
        // latency is at least 5% below ALL three send/recv schemes.
        let rows = fig2_latency();
        let r = rows.iter().find(|r| r.size == 4).expect("4 B row");
        let rc = r.us[3];
        for (i, &sr) in r.us[..3].iter().enumerate() {
            assert!(
                rc <= sr * 0.95,
                "4 B: rdma-channel ({rc:.3} us) must beat {} ({sr:.3} us) by >=5%",
                FlowControlScheme::ALL[i].label()
            );
        }
    }

    #[test]
    fn fig3_fig4_shape_all_comparable_at_pp100() {
        for blocking in [true, false] {
            let rows = bandwidth_figure(4, 100, blocking);
            for r in &rows {
                let max = r.mbps[..3].iter().cloned().fold(0.0, f64::max);
                let min = r.mbps[..3].iter().cloned().fold(f64::INFINITY, f64::min);
                assert!(
                    max / min < 1.1,
                    "window {} (blocking={blocking}): send/recv schemes should be comparable, got {:?}",
                    r.window,
                    r.mbps
                );
                // The RDMA channel is at least competitive at 4 B.
                assert!(
                    r.mbps[3] > min * 0.9,
                    "window {} (blocking={blocking}): rdma-channel should not collapse, got {:?}",
                    r.window,
                    r.mbps
                );
            }
        }
    }

    #[test]
    fn fig5_fig6_shape_static_worst_beyond_prepost() {
        for blocking in [true, false] {
            let rows = bandwidth_figure(4, 10, blocking);
            for r in rows.iter().filter(|r| r.window > 10) {
                let &[hw, stat, dyn_, _rc, _rc_dyn] = &r.mbps[..] else {
                    panic!("five schemes, five columns: {:?}", r.mbps)
                };
                assert!(
                    stat < hw && stat < dyn_,
                    "window {} (blocking={blocking}): static ({stat:.2}) must be worst of {:?}",
                    r.window,
                    r.mbps
                );
                if r.window >= 32 {
                    assert!(
                        dyn_ > stat * 1.2,
                        "window {}: dynamic must clearly beat static ({dyn_:.2} vs {stat:.2})",
                        r.window
                    );
                }
            }
            // Within the pre-posted window the send/recv schemes are
            // comparable.
            for r in rows.iter().filter(|r| r.window <= 8) {
                let max = r.mbps[..3].iter().cloned().fold(0.0, f64::max);
                let min = r.mbps[..3].iter().cloned().fold(f64::INFINITY, f64::min);
                assert!(
                    max / min < 1.1,
                    "window {} should be scheme-insensitive",
                    r.window
                );
            }
        }
    }

    #[test]
    fn fig5_fig6_shape_dyn_ring_closes_the_starvation_cliff() {
        for blocking in [true, false] {
            let rows = bandwidth_figure(4, 10, blocking);
            for r in rows.iter().filter(|r| r.window > 10) {
                let &[_hw, _stat, _dyn_buf, rc_static, rc_dyn] = &r.mbps[..] else {
                    panic!("five schemes, five columns: {:?}", r.mbps)
                };
                // The static ring's starvation cliff stays visible: with
                // 10 slots, every frame past the ring converts to
                // rendezvous and bandwidth collapses...
                assert!(
                    rc_static < rc_dyn * 0.75,
                    "window {} (blocking={blocking}): the static ring's cliff should be \
                     visible next to the grown ring ({rc_static:.3} vs {rc_dyn:.3})",
                    r.window
                );
                // ...while the grown ring never does worse than the
                // static ring it replaces (the headline pin).
                assert!(
                    rc_dyn >= rc_static,
                    "window {} (blocking={blocking}): growth must not lose to the static \
                     ring ({rc_dyn:.3} vs {rc_static:.3})",
                    r.window
                );
            }
            // Within the pre-posted window growth never triggers, so the
            // two ring schemes measure the same protocol.
            for r in rows.iter().filter(|r| r.window <= 8) {
                assert!(
                    (r.mbps[4] - r.mbps[3]).abs() / r.mbps[3] < 0.02,
                    "window {} (blocking={blocking}): an idle growth path must not cost \
                     bandwidth ({:.3} vs {:.3})",
                    r.window,
                    r.mbps[4],
                    r.mbps[3]
                );
            }
            // At the deepest window the pp10 grown ring lands within 5%
            // of a ring that was statically sized for the burst
            // (rdma-channel at pre-post 100): growth fully closes the
            // gap, it does not merely soften it.
            let p = MicroParams {
                iters: 20,
                warmup: 4,
                ..MicroParams::new(FlowControlScheme::RdmaChannel, 100)
            };
            let large = bandwidth_test(&p, 4, 100, blocking, FabricParams::mt23108()).mb_per_s;
            let dyn100 = rows.last().unwrap().mbps[4];
            assert!(
                dyn100 >= large * 0.95,
                "blocking={blocking}: pp10 grown ring ({dyn100:.3}) should match a \
                 statically large ring ({large:.3}) within 5%"
            );
        }
    }

    #[test]
    fn fig7_fig8_shape_rendezvous_insensitive_and_overlap_wins() {
        let blocking = bandwidth_figure(32 * 1024, 10, true);
        let nonblocking = bandwidth_figure(32 * 1024, 10, false);
        for (b, nb) in blocking.iter().zip(&nonblocking) {
            // All send/recv schemes comparable in each mode (rendezvous
            // handshakes keep the pattern symmetric)...
            for rows in [b, nb] {
                let max = rows.mbps[..3].iter().cloned().fold(0.0, f64::max);
                let min = rows.mbps[..3].iter().cloned().fold(f64::INFINITY, f64::min);
                assert!(max / min < 1.15, "window {}: {:?}", rows.window, rows.mbps);
            }
            // ...and non-blocking clearly beats blocking at real windows.
            if b.window >= 4 {
                assert!(
                    nb.mbps[0] > b.mbps[0] * 1.15,
                    "window {}: overlap should win ({} vs {})",
                    b.window,
                    nb.mbps[0],
                    b.mbps[0]
                );
            }
        }
    }
}
