//! Chaos battery regression tests: same-seed runs must render
//! byte-identical reports at any pool width (the fault plan draws only
//! from the sim-owned RNG, never from host state), and the default-seed
//! battery is pinned by a golden counter snapshot.
//!
//! The snapshot lives at `bench_results/golden/chaos.json`. After an
//! *intentional* behaviour change, regenerate it with
//!
//! ```sh
//! IBFLOW_UPDATE_GOLDEN=1 cargo test -p ibflow-bench --test chaos
//! ```
//!
//! and commit the diff alongside the change that explains it.

mod common;

use ibflow_bench::chaos::{chaos_battery, chaos_json, ChaosRun, DEFAULT_SEED};
use mpib::FlowControlScheme;

/// One test fn (not several) so the `IBFLOW_JOBS` writes can't race
/// within this test binary.
#[test]
fn chaos_battery_is_deterministic_and_matches_golden() {
    std::env::set_var(ibpool::JOBS_ENV, "1");
    let runs = chaos_battery(DEFAULT_SEED);
    let serial = chaos_json(&runs);
    std::env::set_var(ibpool::JOBS_ENV, "4");
    let parallel = chaos_json(&chaos_battery(DEFAULT_SEED));
    let parallel_again = chaos_json(&chaos_battery(DEFAULT_SEED));
    std::env::remove_var(ibpool::JOBS_ENV);

    assert_eq!(
        serial, parallel,
        "chaos battery differs between IBFLOW_JOBS=1 and =4"
    );
    assert_eq!(
        parallel, parallel_again,
        "chaos battery differs between two identical IBFLOW_JOBS=4 runs"
    );

    // The battery must actually exercise the recovery machinery: a quiet
    // report would mean the fault plans silently stopped firing.
    let sum = |f: fn(&ChaosRun) -> u64| runs.iter().map(f).sum::<u64>();
    assert!(sum(|r| r.dropped) > 0, "no packet ever dropped");
    assert!(sum(|r| r.flap_drops) > 0, "flap window never fired");
    assert!(
        sum(|r| r.ack_timeouts) > 0,
        "no go-back-N recovery happened"
    );
    assert!(sum(|r| r.retransmissions) > 0, "nothing was retransmitted");
    assert!(sum(|r| r.rnr_naks) > 0, "bursts never overran the pool");
    assert!(sum(|r| r.dup_suppressed) > 0, "no duplicate was suppressed");
    assert!(runs.iter().all(|r| r.ledger_ok), "a credit ledger leaked");

    let rows_of = |scheme: FlowControlScheme| -> Vec<&ChaosRun> {
        let rows: Vec<_> = runs.iter().filter(|r| r.scheme == scheme).collect();
        assert_eq!(rows.len(), 3, "one {} run per chaos level", scheme.label());
        rows
    };

    // The RDMA-channel rows must exercise their own recovery story:
    // retransmitted RDMA WRITEs into the ring get duplicate-suppressed
    // (the storm level's delayed ACKs guarantee spurious retransmits),
    // and ring-slot conservation held on every run (ledger_ok above
    // covers the ring ledger too).
    let rc = rows_of(FlowControlScheme::RdmaChannel);
    assert!(
        rc.iter().map(|r| r.retransmissions).sum::<u64>() > 0,
        "rdma-channel rows never retransmitted"
    );
    assert!(
        rc.iter().map(|r| r.dup_suppressed).sum::<u64>() > 0,
        "no retransmitted RDMA WRITE was duplicate-suppressed on the channel"
    );

    // The dynamic-ring rows must actually exercise growth under fire:
    // every level grows at least once, displaced generations drain and
    // retire, and no other scheme ever grows a ring.
    let dyn_rows = rows_of(FlowControlScheme::RdmaChannelDyn);
    assert!(
        dyn_rows.iter().all(|r| r.ring_growth > 0),
        "every dynamic-ring chaos level must trigger ring growth"
    );
    assert!(
        dyn_rows.iter().map(|r| r.rings_retired).sum::<u64>() > 0,
        "no displaced ring generation ever retired under chaos"
    );
    assert!(
        runs.iter()
            .filter(|r| r.scheme != FlowControlScheme::RdmaChannelDyn)
            .all(|r| r.ring_growth == 0 && r.rings_retired == 0),
        "a scheme without ring growth grew a ring"
    );
    // Every level retransmits into the growing ring (the rdma-channel
    // rows pin duplicate *suppression*; whether a dyn-row retransmission
    // also races its own ACK into a duplicate is seed-dependent).
    assert!(
        dyn_rows.iter().all(|r| r.retransmissions > 0),
        "a dynamic-ring chaos level never retransmitted"
    );

    common::check_golden("chaos", &serial);
}
