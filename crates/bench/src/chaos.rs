//! Chaos battery: soak runs of every flow control scheme under
//! escalating seeded fault plans.
//!
//! Each run is a 3-rank ring of `sendrecv` exchanges with pattern-filled,
//! verified payloads mixing eager and rendezvous sizes, driven over a
//! lossy fabric with infinite retry budgets. The battery asserts the
//! robustness contract end to end: every run completes, every payload
//! arrives intact, no faults are recorded, every rank's credit ledger is
//! conserved (buffer credits and, under the RDMA channel, ring slots),
//! and — because the fault plan draws from the sim-owned RNG — the full
//! counter report is byte-identical for identical seeds at any
//! `IBFLOW_JOBS` width. Under the RDMA channel the delayed-ACK levels
//! additionally force retransmitted RDMA WRITEs into the ring, whose
//! duplicates the transport's MSN tracking must suppress; under the grown
//! ring they race ring growth and old-generation draining against drops,
//! duplicated WRITEs, delayed ACKs and the storm's link flap.

use crate::ckpt::{fnv_bytes, fnv_u64, FNV_OFFSET};
use crate::report::table;
use ibfabric::{FabricParams, FaultPlan, FlapScope, LinkFlap, NodeId};
use ibsim::{SimDuration, SimTime};
use mpib::{FlowControlScheme, MpiConfig, MpiWorld};

/// Default battery seed; override per run with `IBFLOW_CHAOS_SEED`.
pub const DEFAULT_SEED: u64 = 0xC4A0_55ED;

/// Ranks in the ring.
pub const NPROCS: usize = 3;

/// Ring exchanges per run.
pub const ITERS: usize = 24;

/// Payload sizes cycled through the ring: small/medium eager, just below
/// the eager threshold, and two rendezvous sizes.
const SIZES: [usize; 6] = [48, 512, 1777, 3000, 12000, 240];

/// Back-to-back small sends per burst phase — more than the 2-deep
/// receive pool, so bursts overrun it by design.
const BURST: usize = 5;

/// One escalation step of the battery.
pub struct ChaosLevel {
    /// Display name.
    pub name: &'static str,
    /// Per-message drop probability.
    pub drop: f64,
    /// Per-message corruption probability.
    pub corrupt: f64,
    /// Probability that an ACK/NAK is delayed.
    pub ack_delay: f64,
    /// Extra delay for delayed ACKs, µs.
    pub ack_delay_us: u64,
    /// Whether to flap one node's links mid-run.
    pub flap: bool,
}

/// The escalation ladder: light background loss, a lossy fabric with
/// delayed ACKs (forcing duplicate suppression), and a storm that also
/// takes one node's links down for a window mid-run.
pub const LEVELS: [ChaosLevel; 3] = [
    ChaosLevel {
        name: "drizzle",
        drop: 0.002,
        corrupt: 0.0,
        ack_delay: 0.0,
        ack_delay_us: 0,
        flap: false,
    },
    ChaosLevel {
        name: "squall",
        drop: 0.01,
        corrupt: 0.005,
        ack_delay: 0.01,
        ack_delay_us: 30,
        flap: false,
    },
    // The storm's ACK delay exceeds the mt23108 ACK timeout (150 µs), so
    // delayed ACKs force spurious retransmissions whose duplicates the
    // responder must suppress.
    ChaosLevel {
        name: "storm",
        drop: 0.03,
        corrupt: 0.01,
        ack_delay: 0.02,
        ack_delay_us: 250,
        flap: true,
    },
];

impl ChaosLevel {
    /// Builds the fault plan for this level. The flap takes down every
    /// link of the last ring rank (the MPI world creates one fabric node
    /// per rank in rank order) for a 300 µs window after the ring has
    /// built up steady-state traffic.
    pub fn plan(&self, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new(seed)
            .with_drop(self.drop)
            .with_corrupt(self.corrupt);
        if self.ack_delay > 0.0 {
            plan = plan.with_ack_delay(self.ack_delay, SimDuration::micros(self.ack_delay_us));
        }
        if self.flap {
            plan = plan.with_flap(LinkFlap {
                scope: FlapScope::Node(NodeId::from_index(NPROCS - 1)),
                from: SimTime::from_nanos(200_000),
                until: SimTime::from_nanos(500_000),
            });
        }
        plan
    }
}

/// The observable outcome of one (level, scheme) soak run.
pub struct ChaosRun {
    /// Level name.
    pub level: &'static str,
    /// Scheme under test.
    pub scheme: FlowControlScheme,
    /// Virtual completion time, µs.
    pub end_us: f64,
    /// Order-sensitive digest of every verified payload on every rank.
    pub checksum: u64,
    /// Fabric-wide injected-drop count.
    pub dropped: u64,
    /// Fabric-wide injected-corruption count.
    pub corrupted: u64,
    /// Messages lost inside the flap window.
    pub flap_drops: u64,
    /// Go-back-N recovery events.
    pub ack_timeouts: u64,
    /// Retransmitted messages (RNR and timeout recovery combined).
    pub retransmissions: u64,
    /// RNR NAKs generated fabric-wide.
    pub rnr_naks: u64,
    /// Duplicate deliveries suppressed at responders.
    pub dup_suppressed: u64,
    /// ACK/NAK packets given extra injected delay.
    pub acks_delayed: u64,
    /// Ring growth events across all ranks (dynamic ring scheme only;
    /// zero for every other scheme).
    pub ring_growth: u64,
    /// Displaced ring generations drained and retired across all ranks.
    pub rings_retired: u64,
    /// Did every rank's credit ledger balance after the run?
    pub ledger_ok: bool,
}

/// Runs one (level, scheme) soak and asserts the robustness contract.
///
/// # Panics
///
/// Panics if the run fails to complete, a payload arrives mangled, a
/// fabric fault is recorded (infinite retry budgets must absorb every
/// injected loss), or a credit ledger leaks. Every message names the
/// level, the scheme, and the effective `IBFLOW_CHAOS_SEED`, so a
/// failure under a non-default seed is reproducible from the log alone.
pub fn run_one(level: &ChaosLevel, scheme: FlowControlScheme, seed: u64) -> ChaosRun {
    let ctx = format!(
        "chaos {}/{} (IBFLOW_CHAOS_SEED={seed:#x})",
        level.name,
        scheme.label()
    );
    let cfg = MpiConfig {
        fault_plan: Some(level.plan(seed)),
        ..MpiConfig::scheme(scheme, 2)
    };
    let body_ctx = ctx.clone();
    let out = MpiWorld::run(NPROCS, cfg, FabricParams::mt23108(), async move |mpi| {
        let me = mpi.rank();
        let dst = (me + 1) % NPROCS;
        let src = (me + NPROCS - 1) % NPROCS;
        let mut digest = FNV_OFFSET;
        for i in 0..ITERS {
            let len = SIZES[i % SIZES.len()];
            let fill = ((i * 37 + me * 11 + 5) % 251) as u8;
            let expect_fill = ((i * 37 + src * 11 + 5) % 251) as u8;
            let (status, data) = mpi
                .sendrecv(&vec![fill; len], dst, i as i32, Some(src), Some(i as i32))
                .await;
            assert_eq!(
                status.len, len,
                "{body_ctx}: rank {me} iter {i}: wrong length"
            );
            assert!(
                data.iter().all(|&b| b == expect_fill),
                "{body_ctx}: rank {me} iter {i}: payload mangled in transit"
            );
            digest = fnv_u64(digest, status.source as u64);
            digest = fnv_u64(digest, len as u64);
            digest = fnv_bytes(digest, &[expect_fill]);
            // Every fourth exchange, burst past the 2-deep receive pool so
            // the hardware scheme takes RNR NAKs and the user-level
            // schemes exercise backlog/credit starvation under loss.
            if i % 4 == 3 {
                for b in 0..BURST {
                    mpi.send(&[fill ^ 0xFF; 96], dst, 1000 + b as i32).await;
                }
                for b in 0..BURST {
                    let (_, burst_data) = mpi.recv(Some(src), Some(1000 + b as i32)).await;
                    assert!(
                        burst_data.iter().all(|&x| x == expect_fill ^ 0xFF),
                        "{body_ctx}: rank {me} iter {i}: burst payload mangled"
                    );
                    digest = fnv_u64(digest, burst_data.len() as u64);
                }
            }
        }
        digest
    })
    .unwrap_or_else(|e| panic!("{ctx}: run failed: {e}"));

    assert_eq!(
        out.stats.total_faults(),
        0,
        "{ctx}: infinite retry budgets must absorb every loss"
    );
    let ledger_ok = out.stats.all_ledgers_conserved();
    assert!(ledger_ok, "{ctx}: credit ledger leaked");
    let checksum = out
        .results
        .iter()
        .fold(FNV_OFFSET, |h, &rank_digest| fnv_u64(h, rank_digest));
    let conn_sum = |get: fn(&mpib::ConnStats) -> u64| {
        out.stats
            .ranks
            .iter()
            .flat_map(|r| r.conns.iter())
            .map(get)
            .sum::<u64>()
    };
    let f = &out.fabric.stats;
    ChaosRun {
        level: level.name,
        scheme,
        end_us: out.end_time.as_micros_f64(),
        checksum,
        dropped: f.msgs_dropped.get(),
        corrupted: f.msgs_corrupted.get(),
        flap_drops: f.flap_drops.get(),
        ack_timeouts: f.ack_timeouts.get(),
        retransmissions: f.retransmissions.get(),
        rnr_naks: f.rnr_naks.get(),
        dup_suppressed: f.dup_suppressed.get(),
        acks_delayed: f.acks_delayed.get(),
        ring_growth: conn_sum(|c| c.ring_growth_events.get()),
        rings_retired: conn_sum(|c| c.rings_retired.get()),
        ledger_ok,
    }
}

/// Runs the full battery — every level under every scheme — fanned out
/// over the [`ibpool`] worker pool. Results come back in submission
/// order, so the report is byte-identical at any `IBFLOW_JOBS` width.
pub fn chaos_battery(seed: u64) -> Vec<ChaosRun> {
    let jobs: Vec<ibpool::Job<'_, ChaosRun>> = LEVELS
        .iter()
        .flat_map(|level| {
            FlowControlScheme::ALL.into_iter().map(move |scheme| {
                ibpool::job(
                    format!("chaos/{}/{}", level.name, scheme.label()),
                    move || run_one(level, scheme, seed),
                )
            })
        })
        .collect();
    ibpool::run_batch(jobs)
}

/// Formats the battery as the table the `chaos` experiment prints.
pub fn chaos_table(runs: &[ChaosRun]) -> String {
    let data: Vec<Vec<String>> = runs
        .iter()
        .map(|r| {
            vec![
                r.level.to_string(),
                r.scheme.label().to_string(),
                format!("{:.1}", r.end_us),
                r.dropped.to_string(),
                r.corrupted.to_string(),
                r.flap_drops.to_string(),
                r.ack_timeouts.to_string(),
                r.retransmissions.to_string(),
                r.rnr_naks.to_string(),
                r.dup_suppressed.to_string(),
                if r.ledger_ok { "ok" } else { "LEAK" }.to_string(),
            ]
        })
        .collect();
    table(
        &[
            "level", "scheme", "end(us)", "drop", "corrupt", "flap", "timeout", "retx", "rnr",
            "dup", "ledger",
        ],
        &data,
    )
}

/// Renders the battery as stable JSON for the golden snapshot: fixed
/// field order, fixed float precision, hex checksum.
pub fn chaos_json(runs: &[ChaosRun]) -> String {
    let mut out = String::from("{\n  \"chaos_battery\": [\n");
    for (i, r) in runs.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"level\": \"{}\", \"scheme\": \"{}\", \"end_us\": {:.3}, \
             \"checksum\": \"{:016x}\", \"dropped\": {}, \"corrupted\": {}, \
             \"flap_drops\": {}, \"ack_timeouts\": {}, \"retransmissions\": {}, \
             \"rnr_naks\": {}, \"dup_suppressed\": {}, \"acks_delayed\": {}, \
             \"ring_growth\": {}, \"rings_retired\": {}, \"ledger\": \"{}\"}}{}\n",
            r.level,
            r.scheme.label(),
            r.end_us,
            r.checksum,
            r.dropped,
            r.corrupted,
            r.flap_drops,
            r.ack_timeouts,
            r.retransmissions,
            r.rnr_naks,
            r.dup_suppressed,
            r.acks_delayed,
            r.ring_growth,
            r.rings_retired,
            if r.ledger_ok { "ok" } else { "LEAK" },
            if i + 1 < runs.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Reads the battery seed from `IBFLOW_CHAOS_SEED` (decimal or `0x` hex),
/// defaulting to [`DEFAULT_SEED`].
///
/// # Panics
///
/// Panics on an unparsable value — a typo silently falling back to the
/// default would mislabel the whole battery.
pub fn seed_from_env() -> u64 {
    let raw = std::env::var("IBFLOW_CHAOS_SEED").unwrap_or_default();
    if raw.is_empty() {
        return DEFAULT_SEED;
    }
    let parsed = raw
        .strip_prefix("0x")
        .map_or_else(|| raw.parse(), |hex| u64::from_str_radix(hex, 16));
    parsed.unwrap_or_else(|_| panic!("unparsable IBFLOW_CHAOS_SEED={raw:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_escalate() {
        for w in LEVELS.windows(2) {
            assert!(w[0].drop < w[1].drop, "drop rates must escalate");
        }
        assert!(LEVELS.iter().all(|l| l.drop < 0.2), "soak, not a massacre");
    }

    #[test]
    fn plans_are_enabled_and_seeded() {
        for level in &LEVELS {
            let p = level.plan(7);
            assert!(p.enabled(), "{}: inert plan", level.name);
            assert_eq!(p.seed(), 7);
        }
    }
}
