//! NAS application harness (paper §6.3): runs each kernel under a given
//! flow control scheme and pre-post depth, collecting runtime, explicit
//! credit message counts (Table 1) and dynamic buffer peaks (Table 2).

use ibfabric::{FabricParams, MrId};
use mpib::{Endpoint, FlowControlScheme, MpiConfig, MpiRunOutput, MpiWorld};
use nasbench::common::{Kernel, KernelOutput};
use nasbench::{run_kernel, NasClass};

/// One application run's harvest.
#[derive(Clone, Debug)]
pub struct NasRun {
    /// Kernel name.
    pub kernel: Kernel,
    /// Scheme under test.
    pub scheme: FlowControlScheme,
    /// Pre-posted buffers per connection at start.
    pub prepost: u32,
    /// Whether the kernel's distributed verification passed.
    pub verified: bool,
    /// Global checksum (must be identical across schemes).
    pub checksum: f64,
    /// Timed-section virtual time in milliseconds (ranks are
    /// barrier-synchronized; the max is reported).
    pub time_ms: f64,
    /// Average explicit credit messages per connection per process
    /// (Table 1).
    pub ecm_per_conn: f64,
    /// Average total messages per connection per process (Table 1).
    pub msgs_per_conn: f64,
    /// Maximum posted buffers on any connection at any process (Table 2).
    pub max_posted: u64,
    /// RNR NAKs the fabric generated (hardware-scheme diagnostics).
    pub rnr_naks: u64,
    /// Fabric-level message retransmissions.
    pub retransmissions: u64,
}

fn run_world(
    kernel: Kernel,
    class: NasClass,
    scheme: FlowControlScheme,
    prepost: u32,
) -> MpiRunOutput<KernelOutput> {
    let procs = kernel.paper_procs();
    let cfg = MpiConfig::scheme(scheme, prepost);
    MpiWorld::run(procs, cfg, FabricParams::mt23108(), async move |mpi| {
        run_kernel(mpi, kernel, class).await
    })
    .unwrap_or_else(|e| panic!("{kernel:?}/{scheme:?}/prepost={prepost} failed: {e}"))
}

/// Receive memory that establishment pins per directed connection —
/// the slab of `max_prepost` buffers, the credit mailbox and the eager
/// ring — as registered and as actually resident when the run ended.
/// Registered is what the HCA would have pinned whatever the traffic;
/// resident is what the protocol touched, i.e. what the paper's dynamic
/// scheme argues a connection should cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolMemory {
    /// Directed connections established (`n (n - 1)` under eager setup).
    pub connections: usize,
    /// Bytes registered per connection (identical for all of them).
    pub registered: usize,
    /// Resident bytes summed over all connections.
    pub resident_total: usize,
    /// Resident bytes of the connection that touched the most.
    pub resident_max: usize,
    /// Bytes registered across the whole fabric: the above plus what was
    /// registered after establishment (rendezvous landing regions, grown
    /// rings).
    pub fabric_registered: usize,
    /// Bytes resident across the whole fabric.
    pub fabric_resident: usize,
}

/// Runs `kernel` like [`run_nas`] and measures the receive memory each
/// connection pinned at establishment afterwards.
pub fn pool_memory(
    kernel: Kernel,
    class: NasClass,
    scheme: FlowControlScheme,
    prepost: u32,
) -> PoolMemory {
    let fabric = run_world(kernel, class, scheme, prepost).fabric;
    // Each connection's endpoint on each side: its slab, mailbox and ring.
    let pools: Vec<[MrId; 3]> = Endpoint::all(&fabric)
        .map(|e| [e.slab, e.mailbox, e.ring])
        .collect();
    let resident: Vec<usize> = pools
        .iter()
        .map(|pool| pool.iter().map(|&mr| fabric.mr_bytes(mr).len()).sum())
        .collect();
    PoolMemory {
        connections: pools.len(),
        registered: pools[0].iter().map(|&mr| fabric.mr_len(mr)).sum(),
        resident_total: resident.iter().sum(),
        resident_max: resident.iter().copied().max().unwrap_or(0),
        fabric_registered: fabric.registered_bytes(),
        fabric_resident: fabric.resident_bytes(),
    }
}

/// Runs `kernel` at `class` under `scheme`/`prepost` on the paper's
/// process count for that kernel.
pub fn run_nas(kernel: Kernel, class: NasClass, scheme: FlowControlScheme, prepost: u32) -> NasRun {
    let out = run_world(kernel, class, scheme, prepost);
    let k0 = &out.results[0];
    for r in &out.results {
        assert_eq!(
            r.checksum.to_bits(),
            k0.checksum.to_bits(),
            "{kernel:?}: ranks disagree on checksum"
        );
    }
    NasRun {
        kernel,
        scheme,
        prepost,
        verified: out.results.iter().all(|r| r.verified),
        checksum: k0.checksum,
        time_ms: out
            .results
            .iter()
            .map(|r| r.time.as_secs_f64() * 1e3)
            .fold(0.0, f64::max),
        ecm_per_conn: out.stats.avg_ecm_per_connection(),
        msgs_per_conn: out.stats.avg_msgs_per_connection(),
        max_posted: out.stats.max_posted_buffers(),
        rnr_naks: out.fabric.stats.rnr_naks.get(),
        retransmissions: out.fabric.stats.retransmissions.get(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_runs_one_kernel() {
        let r = run_nas(
            Kernel::Is,
            NasClass::Test,
            FlowControlScheme::UserDynamic,
            8,
        );
        assert!(r.verified);
        assert!(r.time_ms > 0.0);
        assert!(r.msgs_per_conn > 0.0);
    }
}
