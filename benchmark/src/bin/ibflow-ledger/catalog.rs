//! The benchmark's contract in one place: workloads with their reasons,
//! end-to-end metrics with their bounds, per-layer metric names with their
//! units. `BENCHMARK.json` is generated from this (`--emit-benchmark-json`)
//! and `--check` fails if the two ever differ.

use crate::common::{kernel_key, SCHEMES};
use crate::json::Json;
use crate::{wl_fabric, wl_sim};
use nasbench::Kernel;

pub const RUN_SECONDS: u64 = 10;

pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "sim_raw",
        "ibsim alone (call/handoff/xproc/ranks64/deepq legs): the only place an event-queue or dispatch change shows undiluted",
    ),
    (
        "fabric_raw",
        "verbs calls on Sim<Fabric>, no mpib: per-packet and per-byte floor under every MPI number, plus the RNR and go-back-N recovery paths",
    ),
    (
        "eager_small",
        "2-rank 4 B windowed isend/irecv at pre-post 100, five schemes: the mpib eager fast path, bytes negligible (paper Figs 3/4)",
    ),
    (
        "credit_starved",
        "same body at pre-post 10 and 1 with seeded burst lengths: backlog, ECMs, RNR retry, ring-full conversion and ring growth (Figs 5/6)",
    ),
    (
        "rndv_large",
        "same body at 32 KB and 256 KB: rendezvous plus MTU-segmented RDMA, bytes dominate, scheme-independent by design (Figs 7/8)",
    ),
    (
        "nas_w",
        "what users wait for: 7 NAS kernels x pre-post {100,1} x 5 schemes at class W on 8/16 ranks; wide worlds, collectives, real arithmetic",
    ),
    (
        "ckpt_ladder",
        "snapshot, encode/decode, resume, kill-and-replace and lossy resume per scheme: mpib::ckpt, ibfabric::snap and ibsim::codec, used nowhere else",
    ),
];

/// `(name, unit, better, bound)`. The bounds follow the noise measured on
/// the 2-core sandbox this was built on, not a wish: ten runs of one binary
/// spread (quartile distance ÷ median) 3-6% on `wall_s` in quiet phases and
/// up to 13% in busy ones, whatever statistic summarises the reps, so a
/// tighter bound would refuse innocent changes. `peak_rss_mb` repeats to
/// 0.4% but is chaotic in the heap layout: a few bytes more at start-up can
/// cost `ckpt_ladder` one more 12 MB region (70 against 82 MB). README,
/// "Noise".
pub const END_TO_END: [(&str, &str, &str, f64); 4] = [
    ("ops_per_s", "1/s", "higher", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.2),
];

pub struct LayerMetric {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Every per-layer metric, in reporting order. Units say which clock a
/// number is on: plain `ns`/`ms` are host time, `sim_*` is modelled time.
pub fn per_layer() -> Vec<LayerMetric> {
    let mut out = Vec::new();
    let mut add = |name: String, unit, better| out.push(LayerMetric { name, unit, better });
    let schemes = SCHEMES.map(|s| s.label());
    let kernels = Kernel::ALL.map(kernel_key);

    add("sim_time_ms".into(), "sim_ms", "lower");
    for leg in wl_sim::LEGS {
        add(format!("ibsim.host_ns_per_action.{leg}"), "ns", "lower");
    }
    add("ibsim.events".into(), "count", "lower");
    add("ibsim.events_per_op".into(), "count", "lower");
    add("ibsim.share_est".into(), "frac", "lower");
    add("ibsim.setup_ms".into(), "ms", "lower");

    for leg in wl_fabric::LEGS {
        add(format!("ibfabric.host_ns_per_wr.{leg}"), "ns", "lower");
    }
    for leg in wl_fabric::LEGS {
        add(format!("ibfabric.events_per_wr.{leg}"), "count", "lower");
    }
    add("ibfabric.host_ns_per_byte.write4m".into(), "ns", "lower");
    for c in [
        "msgs_delivered",
        "bytes_delivered",
        "cqes",
        "rnr_naks",
        "retransmissions",
        "ack_timeouts",
        "dup_suppressed",
    ] {
        add(format!("ibfabric.{c}"), "count", "lower");
    }
    add("ibfabric.wire_msgs_per_op".into(), "count", "lower");
    add("ibfabric.setup_ms".into(), "ms", "lower");

    for (stem, unit) in [
        ("host_ns_per_msg", "ns"),
        ("events_per_msg", "count"),
        ("sim_us_per_msg", "sim_us"),
        ("self_ns_per_msg_est", "ns"),
        ("ecm_per_msg", "count"),
        ("backlogged_per_msg", "count"),
    ] {
        for s in schemes {
            add(format!("mpib.{stem}.{s}"), unit, "lower");
        }
    }
    add("mpib.rdma_credit_updates".into(), "count", "lower");
    add("mpib.max_posted".into(), "count", "lower");
    add("mpib.ring_generation".into(), "count", "lower");
    for world in [
        "2x100", "2x10", "2x1", "4x4", "8x100", "8x1", "16x100", "16x1",
    ] {
        add(format!("mpib.bootstrap_ms.{world}"), "ms", "lower");
    }

    for (stem, unit) in [
        ("wall_ms", "ms"),
        ("events", "count"),
        ("host_ns_per_event", "ns"),
        ("sim_ms", "sim_ms"),
        ("bytes_delivered", "bytes"),
    ] {
        for k in &kernels {
            add(format!("nasbench.{stem}.{k}"), unit, "lower");
        }
    }
    for k in &kernels {
        add(format!("nasbench.app_share_est.{k}"), "frac", "higher");
    }

    add("ckpt.snapshot_bytes".into(), "bytes", "lower");
    for leg in ["encode", "decode", "resume", "replace"] {
        add(format!("ckpt.{leg}_ms"), "ms", "lower");
    }
    add("ckpt.mb_per_s".into(), "MB/s", "higher");

    add("alloc.count_per_op".into(), "count", "lower");
    add("alloc.bytes_per_op".into(), "bytes", "lower");
    add("trace.overhead_frac".into(), "frac", "lower");
    out
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let mut root = Json::obj();
    root.set(
        "command",
        vec![Json::from("bash"), Json::from("benchmark/run.sh")],
    );
    root.set("paths", vec![Json::from("benchmark")]);
    root.set("run_seconds", RUN_SECONDS);
    root.set(
        "workloads",
        WORKLOADS
            .iter()
            .map(|(name, why)| {
                let mut w = Json::obj();
                w.set("name", *name).set("why", *why);
                w
            })
            .collect::<Vec<_>>(),
    );
    root.set(
        "end_to_end",
        END_TO_END
            .iter()
            .map(|(name, unit, better, bound)| {
                let mut m = Json::obj();
                m.set("name", *name)
                    .set("unit", *unit)
                    .set("better", *better)
                    .set("bound", *bound);
                m
            })
            .collect::<Vec<_>>(),
    );
    root.set(
        "per_layer",
        per_layer()
            .iter()
            .map(|l| {
                let mut m = Json::obj();
                m.set("name", l.name.as_str())
                    .set("unit", l.unit)
                    .set("better", l.better);
                m
            })
            .collect::<Vec<_>>(),
    );
    root
}
