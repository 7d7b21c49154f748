//! End-to-end kernel runs over the simulated cluster: verification,
//! sequential cross-checks, determinism across flow control schemes.

use ibfabric::FabricParams;
use mpib::{FlowControlScheme, MpiConfig, MpiWorld};
use nasbench::{common::Kernel, run_kernel, KernelOutput, NasClass};

fn run_once(kernel: Kernel, procs: usize, cfg: MpiConfig) -> KernelOutput {
    let out = MpiWorld::run(procs, cfg, FabricParams::mt23108(), async move |mpi| {
        run_kernel(mpi, kernel, NasClass::Test).await
    })
    .unwrap_or_else(|e| panic!("{kernel:?} run failed: {e}"));
    // Every rank must agree on the checksum bitwise.
    let ck0 = out.results[0].checksum.to_bits();
    for r in &out.results {
        assert_eq!(
            r.checksum.to_bits(),
            ck0,
            "{kernel:?} checksum differs across ranks"
        );
    }
    out.results[0].clone()
}

#[test]
fn all_kernels_verify_at_test_class() {
    for kernel in Kernel::ALL {
        let procs = if kernel.needs_square_procs() { 4 } else { 8 };
        let cfg = MpiConfig::scheme(FlowControlScheme::UserDynamic, 8);
        let out = run_once(kernel, procs, cfg);
        assert!(out.verified, "{} failed verification", out.name);
        assert!(out.checksum.is_finite());
        assert!(out.time.as_nanos() > 0, "{} timed section empty", out.name);
    }
}

#[test]
fn checksums_identical_across_schemes() {
    // The flow control scheme must not change computed results — only
    // timing. This is the strongest whole-stack correctness check.
    for kernel in Kernel::ALL {
        let procs = if kernel.needs_square_procs() { 4 } else { 8 };
        let mut sums = Vec::new();
        for scheme in FlowControlScheme::ALL {
            let out = run_once(kernel, procs, MpiConfig::scheme(scheme, 4));
            sums.push(out.checksum.to_bits());
        }
        assert_eq!(sums[0], sums[1], "{kernel:?}: hardware vs static");
        assert_eq!(sums[1], sums[2], "{kernel:?}: static vs dynamic");
    }
}

#[test]
fn lu_matches_sequential_reference_bitwise() {
    let cfg = nasbench::lu::LuConfig::for_class(NasClass::Test);
    let expect = nasbench::lu::sequential_checksum(cfg);
    for procs in [2usize, 4, 8] {
        let out = run_once(Kernel::Lu, procs, MpiConfig::default());
        // The parallel wavefront performs the identical per-point float
        // ops; only the final reduction order differs across process
        // counts, so allow a tiny tolerance.
        assert!(
            (out.checksum - expect).abs() < 1e-6 * expect.abs(),
            "LU parallel ({}) vs sequential ({expect}) at {procs} procs",
            out.checksum
        );
    }
}

#[test]
fn cg_matches_sequential_reference() {
    let cfg = nasbench::cg::CgConfig::for_class(NasClass::Test);
    let expect = nasbench::cg::sequential_zeta(cfg);
    let out = run_once(Kernel::Cg, 8, MpiConfig::default());
    // Checksum is zeta (reduced); iteration math matches up to reduction
    // rounding.
    assert!(
        (out.checksum - expect).abs() < 1e-6 * expect.abs(),
        "CG zeta parallel {} vs sequential {expect}",
        out.checksum
    );
}

#[test]
fn kernels_run_at_prepost_one() {
    // The paper's extreme configuration must still verify for every
    // kernel under every scheme.
    for kernel in [Kernel::Lu, Kernel::Mg, Kernel::Is] {
        for scheme in FlowControlScheme::ALL {
            let mut cfg = MpiConfig::scheme(scheme, 1);
            if scheme == FlowControlScheme::UserDynamic {
                cfg.prepost = 1;
            }
            let out = run_once(kernel, 8, cfg);
            assert!(out.verified, "{kernel:?} under {scheme:?} at prepost=1");
        }
    }
}

#[test]
fn lu_is_the_ecm_outlier() {
    // Table 1's shape at Test scale: under the static scheme LU's
    // asymmetric wavefront generates explicit credit messages while a
    // symmetric kernel (MG) generates almost none.
    let cfg = MpiConfig::scheme(FlowControlScheme::UserStatic, 16);
    let lu = MpiWorld::run(8, cfg.clone(), FabricParams::mt23108(), async |mpi| {
        run_kernel(mpi, Kernel::Lu, NasClass::Test).await;
        mpi.stats().total_ecm()
    })
    .unwrap();
    let mg = MpiWorld::run(8, cfg, FabricParams::mt23108(), async |mpi| {
        run_kernel(mpi, Kernel::Mg, NasClass::Test).await;
        mpi.stats().total_ecm()
    })
    .unwrap();
    let lu_ecm: u64 = lu.stats.ranks.iter().map(|r| r.total_ecm()).sum();
    let mg_ecm: u64 = mg.stats.ranks.iter().map(|r| r.total_ecm()).sum();
    assert!(lu_ecm > 0, "LU must need explicit credit messages");
    assert!(
        lu_ecm > 10 * mg_ecm.max(1),
        "LU ({lu_ecm}) should dwarf MG ({mg_ecm}) in ECM count"
    );
    // The in-body reading is live: it already counts the kernel's ECMs,
    // and finalize's drain can only add to them.
    let (lu_live, mg_live) = (
        lu.results.iter().sum::<u64>(),
        mg.results.iter().sum::<u64>(),
    );
    assert!(
        lu_live > 10 * mg_live.max(1) && lu_live <= lu_ecm && mg_live <= mg_ecm,
        "in-body ECM counts LU {lu_live} / MG {mg_live}, final {lu_ecm} / {mg_ecm}"
    );
}

#[test]
fn lu_grows_the_largest_dynamic_pool() {
    // Table 2's shape: starting from one buffer, the dynamic scheme grows
    // LU's pool far beyond CG's.
    let cfg = MpiConfig::scheme(FlowControlScheme::UserDynamic, 1);
    let run = |kernel: Kernel| {
        MpiWorld::run(8, cfg.clone(), FabricParams::mt23108(), async move |mpi| {
            run_kernel(mpi, kernel, NasClass::Test).await;
        })
        .unwrap()
        .stats
        .max_posted_buffers()
    };
    let lu = run(Kernel::Lu);
    let cg = run(Kernel::Cg);
    assert!(lu >= 2 * cg, "LU pool ({lu}) should dwarf CG's ({cg})");
}

/// Bit-exact fingerprints of every kernel, captured at the commit before
/// the host-side loops were restructured (ISSUE 17): per kernel × class ×
/// scheme at pre-post 1 on the paper's process counts, the reduced
/// checksum's bits, the timed virtual span, the world's end time and its
/// event count — the tier-1-reachable form of the `nas_w` `sim_digest`
/// that `benchmark/` computes. A host-side optimisation must leave every
/// row alone: a changed payload byte or `charge_flops` argument moves
/// virtual time, a reordered floating-point sum moves the checksum.
#[rustfmt::skip]
const FINGERPRINTS: &[(Kernel, NasClass, FlowControlScheme, u64, u64, u64, u64)] = &[
    (Kernel::Is, NasClass::Test, FlowControlScheme::Hardware, 0x41f000515be00000, 634793, 754651, 2754),
    (Kernel::Is, NasClass::Test, FlowControlScheme::UserDynamic, 0x41f000515be00000, 1766176, 1889487, 3491),
    (Kernel::Is, NasClass::W, FlowControlScheme::Hardware, 0x42400295e3800000, 50134660, 50250600, 16978),
    (Kernel::Is, NasClass::W, FlowControlScheme::UserDynamic, 0x42400295e3800000, 49995032, 50129566, 17397),
    (Kernel::Ft, NasClass::Test, FlowControlScheme::Hardware, 0x408138188ef4873b, 269555, 385495, 1768),
    (Kernel::Ft, NasClass::Test, FlowControlScheme::UserDynamic, 0x408138188ef4873b, 1081460, 1258963, 2406),
    (Kernel::Ft, NasClass::W, FlowControlScheme::Hardware, 0xc0b51b1e8817e096, 12818503, 12934443, 3632),
    (Kernel::Ft, NasClass::W, FlowControlScheme::UserDynamic, 0xc0b51b1e8817e096, 12815503, 12992453, 3604),
    (Kernel::Lu, NasClass::Test, FlowControlScheme::Hardware, 0x401320ded6659c6a, 878493, 1012829, 3702),
    (Kernel::Lu, NasClass::Test, FlowControlScheme::UserDynamic, 0x401320ded6659c6a, 1884370, 2045105, 5931),
    (Kernel::Lu, NasClass::W, FlowControlScheme::Hardware, 0x3f77ac8a24945548, 29309099, 29451208, 20993),
    (Kernel::Lu, NasClass::W, FlowControlScheme::UserDynamic, 0x3f77ac8a24945548, 30853513, 31014248, 23944),
    (Kernel::Cg, NasClass::Test, FlowControlScheme::Hardware, 0x4043ef63e26592f2, 1132057, 1248957, 8008),
    (Kernel::Cg, NasClass::Test, FlowControlScheme::UserDynamic, 0x4043ef63e26592f2, 1592456, 1708396, 8821),
    (Kernel::Cg, NasClass::W, FlowControlScheme::Hardware, 0x404368960856c596, 12424273, 12544463, 36610),
    (Kernel::Cg, NasClass::W, FlowControlScheme::UserDynamic, 0x404368960856c596, 12755191, 12895176, 38579),
    (Kernel::Mg, NasClass::Test, FlowControlScheme::Hardware, 0xbd04000000000000, 1554687, 1694664, 8145),
    (Kernel::Mg, NasClass::Test, FlowControlScheme::UserDynamic, 0xbd04000000000000, 2145947, 2281120, 8505),
    (Kernel::Mg, NasClass::W, FlowControlScheme::Hardware, 0x3ffbbb9db9963000, 32234144, 32354571, 27453),
    (Kernel::Mg, NasClass::W, FlowControlScheme::UserDynamic, 0x3ffbbb9db9963000, 32765339, 32884156, 28059),
    (Kernel::Bt, NasClass::Test, FlowControlScheme::Hardware, 0x40e6496c2a4830de, 695368, 882214, 4240),
    (Kernel::Bt, NasClass::Test, FlowControlScheme::UserDynamic, 0x40e6496c2a4830de, 983818, 1300446, 5229),
    (Kernel::Bt, NasClass::W, FlowControlScheme::Hardware, 0x41a4fbae453ee188, 22532136, 22746934, 9187),
    (Kernel::Bt, NasClass::W, FlowControlScheme::UserDynamic, 0x41a4fbae453ee188, 22675539, 22985940, 9839),
    (Kernel::Sp, NasClass::Test, FlowControlScheme::Hardware, 0x40c1de1213441dd0, 274151, 462543, 4264),
    (Kernel::Sp, NasClass::Test, FlowControlScheme::UserDynamic, 0x40c1de1213441dd0, 587367, 971320, 5160),
    (Kernel::Sp, NasClass::W, FlowControlScheme::Hardware, 0x4180c956c2d44588, 2089115, 2289520, 6973),
    (Kernel::Sp, NasClass::W, FlowControlScheme::UserDynamic, 0x4180c956c2d44588, 2217453, 2531858, 7593),
];

#[test]
fn kernel_fingerprints_are_pinned() {
    for &(kernel, class, scheme, checksum, time_ns, end_ns, events) in FINGERPRINTS {
        let out = MpiWorld::run(
            kernel.paper_procs(),
            MpiConfig::scheme(scheme, 1),
            FabricParams::mt23108(),
            async move |mpi| run_kernel(mpi, kernel, class).await,
        )
        .unwrap_or_else(|e| panic!("{kernel:?}/{class:?}/{scheme:?} run failed: {e}"));
        for r in &out.results {
            assert!(r.verified, "{kernel:?}/{class:?}/{scheme:?} not verified");
            assert_eq!(
                r.checksum.to_bits(),
                checksum,
                "{kernel:?}/{class:?}/{scheme:?}: checksum bits moved"
            );
        }
        // The closing barrier releases ranks at different instants, so
        // the timed span is rank 0's.
        assert_eq!(
            out.results[0].time.as_nanos(),
            time_ns,
            "{kernel:?}/{class:?}/{scheme:?}: timed span moved"
        );
        assert_eq!(
            (out.end_time.as_nanos(), out.events),
            (end_ns, events),
            "{kernel:?}/{class:?}/{scheme:?}: end time or event count moved"
        );
    }
}
