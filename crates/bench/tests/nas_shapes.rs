//! Shape assertions for the paper's application-level results (Figures
//! 9–10, Tables 1–2), run at class W — the same configuration `ibflow-bench`
//! runs by default, so these tests pin exactly what EXPERIMENTS.md reports.

use ibflow_bench::nas::{run_nas, NasRun};
use mpib::FlowControlScheme;
use nasbench::common::Kernel;
use nasbench::NasClass;

fn run(kernel: Kernel, scheme: FlowControlScheme, prepost: u32) -> NasRun {
    let r = run_nas(kernel, NasClass::W, scheme, prepost);
    assert!(r.verified, "{kernel:?}/{scheme:?}/pp{prepost} must verify");
    r
}

#[test]
fn fig9_shape_schemes_comparable_at_pp100() {
    // Paper: with 100 pre-posted buffers the three schemes are within
    // 2-3% for every application (LU's user-level ECM overhead is the
    // only systematic cost).
    for kernel in [Kernel::Is, Kernel::Ft, Kernel::Cg, Kernel::Mg, Kernel::Lu] {
        let hw = run(kernel, FlowControlScheme::Hardware, 100).time_ms;
        let st = run(kernel, FlowControlScheme::UserStatic, 100).time_ms;
        let dy = run(kernel, FlowControlScheme::UserDynamic, 100).time_ms;
        for (name, t) in [("static", st), ("dynamic", dy)] {
            let delta = (t / hw - 1.0).abs();
            assert!(
                delta < 0.03,
                "{kernel:?}: {name} within 3% of hardware ({t:.2} vs {hw:.2})"
            );
        }
        // LU: the user-level schemes pay the explicit-credit-message tax,
        // so hardware is (slightly) ahead.
        if kernel == Kernel::Lu {
            assert!(st >= hw, "LU: hardware must not lose to static");
        }
    }
}

#[test]
fn fig10_shape_insensitive_kernels() {
    // Paper: IS, FT, SP and BT degrade at most ~2% going to one buffer.
    for kernel in [Kernel::Ft, Kernel::Bt] {
        for scheme in FlowControlScheme::ALL {
            let base = run(kernel, scheme, 100).time_ms;
            let one = run(kernel, scheme, 1).time_ms;
            let drop = one / base - 1.0;
            assert!(
                drop < 0.03,
                "{kernel:?}/{scheme:?}: {:.1}% degradation should be negligible",
                drop * 100.0
            );
        }
    }
}

#[test]
fn fig10_shape_lu_static_vs_dynamic() {
    // Paper: at pre-post 1, user-level static's largest drop is LU
    // (~13%), while the dynamic scheme adapts and loses almost nothing.
    let st100 = run(Kernel::Lu, FlowControlScheme::UserStatic, 100).time_ms;
    let st1 = run(Kernel::Lu, FlowControlScheme::UserStatic, 1).time_ms;
    let static_drop = st1 / st100 - 1.0;
    assert!(
        (0.05..0.35).contains(&static_drop),
        "LU static degradation {:.1}% should land near the paper's 13%",
        static_drop * 100.0
    );

    let dy100 = run(Kernel::Lu, FlowControlScheme::UserDynamic, 100).time_ms;
    let dy1 = run(Kernel::Lu, FlowControlScheme::UserDynamic, 1).time_ms;
    let dynamic_drop = dy1 / dy100 - 1.0;
    assert!(
        dynamic_drop < static_drop / 1.5,
        "dynamic ({:.1}%) must adapt away most of static's drop ({:.1}%)",
        dynamic_drop * 100.0,
        static_drop * 100.0
    );
}

#[test]
fn fig10_shape_dyn_ring_recovers_lu() {
    // The static ring's worst application number is LU at pre-post 1: a
    // 1-deep (floored to 2-slot) ring converts almost every eager send
    // to rendezvous, the application-level face of the Figs 5/6
    // starvation cliff (~+34% at class W). Ring growth must recover most
    // of it while leaving the application results bit-identical.
    let rc100 = run(Kernel::Lu, FlowControlScheme::RdmaChannel, 100);
    let rc1 = run(Kernel::Lu, FlowControlScheme::RdmaChannel, 1);
    let static_drop = rc1.time_ms / rc100.time_ms - 1.0;
    assert!(
        static_drop > 0.2,
        "LU static-ring degradation {:.1}% should show the starvation cliff",
        static_drop * 100.0
    );

    let dy100 = run(Kernel::Lu, FlowControlScheme::RdmaChannelDyn, 100);
    let dy1 = run(Kernel::Lu, FlowControlScheme::RdmaChannelDyn, 1);
    let dyn_drop = dy1.time_ms / dy100.time_ms - 1.0;
    assert!(
        dyn_drop < static_drop / 2.5,
        "ring growth ({:.1}%) must recover most of the static ring's drop ({:.1}%)",
        dyn_drop * 100.0,
        static_drop * 100.0
    );
    assert!(
        dyn_drop < 0.15,
        "LU under the grown ring should stay within 15% of its pre-post-100 time, got {:.1}%",
        dyn_drop * 100.0
    );

    // Growth must never change what the application computes.
    assert_eq!(rc1.checksum.to_bits(), dy1.checksum.to_bits());
    assert_eq!(dy100.checksum.to_bits(), dy1.checksum.to_bits());
}

#[test]
fn fig10_shape_cg_static_drop() {
    // Paper: CG's static drop is ~6%.
    let base = run(Kernel::Cg, FlowControlScheme::UserStatic, 100).time_ms;
    let one = run(Kernel::Cg, FlowControlScheme::UserStatic, 1).time_ms;
    let drop = one / base - 1.0;
    assert!(
        (0.02..0.20).contains(&drop),
        "CG static degradation {:.1}% should be visible but moderate",
        drop * 100.0
    );
}

#[test]
fn table1_shape_lu_is_the_ecm_outlier() {
    // Paper Table 1: LU's explicit credit messages are ~18% of its
    // traffic; every other kernel is at (or near) zero.
    let lu = run(Kernel::Lu, FlowControlScheme::UserStatic, 100);
    let share = lu.ecm_per_conn / lu.msgs_per_conn;
    assert!(
        (0.08..0.30).contains(&share),
        "LU ECM share {:.1}% should be in the paper's ~18% regime",
        share * 100.0
    );
    for kernel in [Kernel::Is, Kernel::Ft, Kernel::Cg, Kernel::Mg] {
        let r = run(kernel, FlowControlScheme::UserStatic, 100);
        assert!(
            r.ecm_per_conn < 1.0,
            "{kernel:?} should need (almost) no explicit credit messages, got {:.1}/conn",
            r.ecm_per_conn
        );
    }
}

#[test]
fn table2_shape_lu_needs_the_most_buffers() {
    // Paper Table 2: the dynamic scheme grows LU's pool far beyond every
    // other kernel's (63 vs <= 7 on the testbed; the ordering is the
    // reproducible claim).
    let lu = run(Kernel::Lu, FlowControlScheme::UserDynamic, 1).max_posted;
    for kernel in [Kernel::Ft, Kernel::Cg, Kernel::Mg] {
        let other = run(kernel, FlowControlScheme::UserDynamic, 1).max_posted;
        assert!(
            lu > other,
            "LU ({lu}) must need more dynamic buffers than {kernel:?} ({other})"
        );
        assert!(
            other <= 8,
            "{kernel:?} should stay under ~8 buffers, got {other}"
        );
    }
}

#[test]
fn checksums_scheme_invariant_at_class_w() {
    // The flow control scheme must never change application results.
    for kernel in [Kernel::Lu, Kernel::Cg] {
        let a = run(kernel, FlowControlScheme::Hardware, 100).checksum;
        let b = run(kernel, FlowControlScheme::UserStatic, 1).checksum;
        let c = run(kernel, FlowControlScheme::UserDynamic, 1).checksum;
        assert_eq!(a.to_bits(), b.to_bits(), "{kernel:?}");
        assert_eq!(b.to_bits(), c.to_bits(), "{kernel:?}");
    }
}

#[test]
fn resident_memory_follows_the_posted_pool_and_matches_experiments_md() {
    use ibflow_bench::figures::{resident_memory_sweep, resident_memory_table};
    let rows = resident_memory_sweep(NasClass::W);
    // The table in EXPERIMENTS.md is this sweep's rendering, verbatim.
    let table = resident_memory_table(&rows);
    assert!(
        include_str!("../../../EXPERIMENTS.md").contains(&table),
        "EXPERIMENTS.md is stale; paste the table printed by \
         `cargo run --release -p ibflow-bench -- resident-memory`:\n{table}"
    );
    // The paper's scalability argument, on the host: what a connection
    // costs is what its traffic touched, a few percent of the megabyte
    // registered for it, under every scheme and pre-post depth.
    for (scheme, prepost, m) in &rows {
        assert!(
            m.resident_max * 20 < m.registered,
            "{scheme:?}/pp{prepost}: busiest connection holds {} of {} bytes",
            m.resident_max,
            m.registered
        );
        assert!(m.fabric_resident * 20 < m.fabric_registered);
    }
    // Dynamic from one buffer: the busiest connection's resident memory is
    // the pool it grew to (Table 2) plus its 32-byte credit mailbox.
    let posted = run(Kernel::Sp, FlowControlScheme::UserDynamic, 1).max_posted as usize;
    let (_, _, m) = rows
        .iter()
        .find(|(s, pp, _)| *s == FlowControlScheme::UserDynamic && *pp == 1)
        .expect("sweep is complete");
    assert!(
        m.resident_max <= posted * 2048 + 32,
        "busiest connection holds {} bytes with at most {posted} buffers posted",
        m.resident_max
    );
}
