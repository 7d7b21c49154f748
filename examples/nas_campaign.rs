//! Runs a NAS kernel under every flow control scheme and prints the
//! paper-style comparison: runtime, explicit credit messages, dynamic
//! buffer growth, and fabric-level RNR activity.
//!
//! Run with: `cargo run --release --example nas_campaign [KERNEL] [PREPOST]`
//! e.g.      `cargo run --release --example nas_campaign LU 1`
//! Kernels: IS FT LU CG MG BT SP (default LU). Default pre-post: 1.

use ibflow::ibfabric::FabricParams;
use ibflow::mpib::{FlowControlScheme, MpiConfig, MpiWorld};
use ibflow::nasbench::common::Kernel;
use ibflow::nasbench::{run_kernel, NasClass};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kernel = args
        .get(1)
        .map(|s| Kernel::from_name(s).expect("unknown kernel (IS FT LU CG MG BT SP)"))
        .unwrap_or(Kernel::Lu);
    let prepost: u32 = args
        .get(2)
        .map(|s| s.parse().expect("prepost"))
        .unwrap_or(1);
    let procs = kernel.paper_procs();

    println!(
        "NAS {} (class W) on {procs} simulated nodes, pre-post = {prepost} buffers/connection\n",
        kernel.name()
    );
    println!(
        "{:>16} {:>10} {:>9} {:>10} {:>8} {:>8} {:>6}",
        "scheme", "time (ms)", "verified", "ECM/conn", "maxbuf", "RNR", "retx"
    );

    for scheme in FlowControlScheme::ALL {
        let cfg = MpiConfig::scheme(scheme, prepost);
        let out = MpiWorld::run(procs, cfg, FabricParams::mt23108(), async move |mpi| {
            run_kernel(mpi, kernel, NasClass::W).await
        })
        .expect("kernel run");
        let k = &out.results[0];
        println!(
            "{:>16} {:>10.2} {:>9} {:>10.1} {:>8} {:>8} {:>6}",
            scheme.label(),
            out.results
                .iter()
                .map(|r| r.time.as_secs_f64() * 1e3)
                .fold(0.0, f64::max),
            k.verified,
            out.stats.avg_ecm_per_connection(),
            out.stats.max_posted_buffers(),
            out.fabric.stats.rnr_naks.get(),
            out.fabric.stats.retransmissions.get(),
        );
    }
    println!(
        "\nTry `LU 1` (the paper's outlier: credit messages + pool growth) vs \
         `FT 1` (large-message rendezvous: insensitive to buffering)."
    );
}
