//! Wall-clock benches (in-repo harness): one bench per table/figure of
//! the paper. Results land in `bench_results/paper.json`.
//!
//! Each bench runs a scaled-down version of the corresponding experiment
//! end-to-end through the simulator (wall-clock time here measures the
//! simulator; the *virtual-time* results the paper reports come from the
//! `ibflow-bench fig*`/`table*` experiments and are deterministic). Together they keep
//! the full reproduction pipeline exercised and performance-tracked.

use ibfabric::FabricParams;
use ibflow_bench::micro::{bandwidth_test, latency_test, MicroParams};
use ibflow_bench::nas::run_nas;
use ibflow_bench::SCHEMES;
use mpib::FlowControlScheme;
use nasbench::common::Kernel;
use nasbench::NasClass;
use testutil::Harness;

fn quick(scheme: FlowControlScheme, prepost: u32) -> MicroParams {
    MicroParams {
        iters: 5,
        warmup: 1,
        ..MicroParams::new(scheme, prepost)
    }
}

fn main() {
    let mut h = Harness::new("paper").with_samples(1, 5);

    // Figure 2 — latency test per scheme.
    for scheme in SCHEMES {
        h.bench(&format!("fig2_latency/{}", scheme.label()), move || {
            latency_test(&quick(scheme, 100), 4, FabricParams::mt23108());
        });
    }

    // Figures 3–4 — small-message bandwidth with ample buffers.
    for blocking in [true, false] {
        let name = if blocking { "blocking" } else { "nonblocking" };
        h.bench(&format!("fig3_fig4_bw_pp100/{name}"), move || {
            bandwidth_test(
                &quick(FlowControlScheme::UserStatic, 100),
                4,
                32,
                blocking,
                FabricParams::mt23108(),
            );
        });
    }

    // Figures 5–6 — the flow control stress point (window > pre-post).
    for scheme in SCHEMES {
        h.bench(
            &format!("fig5_fig6_bw_pp10_window64/{}", scheme.label()),
            move || {
                bandwidth_test(&quick(scheme, 10), 4, 64, false, FabricParams::mt23108());
            },
        );
    }

    // Figures 7–8 — large-message rendezvous bandwidth.
    for blocking in [true, false] {
        let name = if blocking { "blocking" } else { "nonblocking" };
        h.bench(&format!("fig7_fig8_bw_32k/{name}"), move || {
            bandwidth_test(
                &quick(FlowControlScheme::UserStatic, 10),
                32 * 1024,
                8,
                blocking,
                FabricParams::mt23108(),
            );
        });
    }

    // Figure 9 — NAS kernels under each scheme (test class).
    for kernel in [Kernel::Is, Kernel::Lu, Kernel::Cg] {
        for scheme in SCHEMES {
            h.bench(
                &format!("fig9_nas_pp100/{}_{}", kernel.name(), scheme.label()),
                move || {
                    run_nas(kernel, NasClass::Test, scheme, 100);
                },
            );
        }
    }

    // Figure 10 — the pre-post = 1 extreme.
    for scheme in SCHEMES {
        h.bench(&format!("fig10_nas_pp1/LU_{}", scheme.label()), move || {
            run_nas(Kernel::Lu, NasClass::Test, scheme, 1);
        });
    }

    // Table 1 — explicit credit message accounting (static scheme).
    h.bench("table1_ecm/LU_user_static", || {
        let r = run_nas(
            Kernel::Lu,
            NasClass::Test,
            FlowControlScheme::UserStatic,
            100,
        );
        assert!(r.ecm_per_conn >= 0.0);
    });

    // Table 2 — dynamic pool growth tracking.
    h.bench("table2_max_buffers/LU_user_dynamic", || {
        let r = run_nas(
            Kernel::Lu,
            NasClass::Test,
            FlowControlScheme::UserDynamic,
            1,
        );
        assert!(r.max_posted >= 1);
    });

    h.finish();
}
