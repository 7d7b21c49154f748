//! From a run's buckets to the named per-layer metrics and the ledger row.
//!
//! Inputs are medians over reps of the host-ns buckets, the exact counts
//! of one rep, and the set-up probes. A metric whose inputs a workload
//! does not produce reads 0 there. Where a layer cannot be wrapped from
//! outside, its cost is estimated from the rung below (`sim_raw` →
//! `fabric_raw` → pt2pt → `nas_w`); those metrics end in `_est`.

use crate::common::{kernel_key, SCHEMES};
use crate::{wl_fabric, wl_sim};
use nasbench::Kernel;
use std::collections::BTreeMap;

pub struct Inputs<'a> {
    pub workload: &'a str,
    /// Median host ns per bucket (this workload's reps over the rungs').
    pub host: &'a BTreeMap<String, f64>,
    /// Exact counts per rep (likewise).
    pub counts: &'a BTreeMap<String, u64>,
    pub probes: &'a BTreeMap<String, f64>,
    pub wall_ns: f64,
    pub ops: u64,
    pub sim_ns: u64,
}

impl Inputs<'_> {
    fn h(&self, key: &str) -> f64 {
        self.host.get(key).copied().unwrap_or(0.0)
    }

    fn c(&self, key: &str) -> f64 {
        self.counts.get(key).copied().unwrap_or(0) as f64
    }

    fn sum_h(&self, prefix: &str) -> f64 {
        self.host
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    fn sum_c(&self, prefix: &str) -> f64 {
        self.counts
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, &v)| v as f64)
            .sum()
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Unit costs taken from the rungs below the workload.
struct Rungs {
    /// Engine ns per action, two ranks / wide worlds.
    action_2: f64,
    action_64: f64,
    /// `send64` host ns and events per work request.
    wr_ns: f64,
    wr_events: f64,
    /// `write4m` host ns per payload byte.
    byte_ns: f64,
    byte_events: f64,
}

impl Rungs {
    fn of(i: &Inputs<'_>) -> Rungs {
        Rungs {
            action_2: ratio(i.h("leg.xproc"), i.c("actions.xproc")),
            action_64: ratio(i.h("leg.ranks64"), i.c("actions.ranks64")),
            wr_ns: ratio(i.h("leg.send64"), i.c("wrs.send64")),
            wr_events: ratio(i.c("events.send64"), i.c("wrs.send64")),
            byte_ns: ratio(i.h("leg.write4m"), i.c("bytes.write4m")),
            byte_events: ratio(i.c("events.write4m"), i.c("bytes.write4m")),
        }
    }

    /// Engine ns per action for this workload's world width.
    fn action(&self, workload: &str) -> f64 {
        if workload == "nas_w" {
            self.action_64
        } else {
            self.action_2
        }
    }
}

/// All per-layer metrics except the three the worker adds itself
/// (`alloc.*`, `trace.overhead_frac`).
pub fn per_layer(i: &Inputs<'_>) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let r = Rungs::of(i);
    let wire = i.c("ibfabric.msgs_delivered") + i.c("ibfabric.retransmissions");

    m.insert("sim_time_ms".into(), i.sim_ns as f64 / 1e6);
    for leg in wl_sim::LEGS {
        m.insert(
            format!("ibsim.host_ns_per_action.{leg}"),
            ratio(i.h(&format!("leg.{leg}")), i.c(&format!("actions.{leg}"))),
        );
    }
    m.insert("ibsim.events".into(), i.c("ibsim.events"));
    m.insert(
        "ibsim.events_per_op".into(),
        ratio(i.c("ibsim.events"), i.ops as f64),
    );
    m.insert(
        "ibsim.share_est".into(),
        ledger(i).ibsim / i.wall_ns.max(1.0),
    );

    for leg in wl_fabric::LEGS {
        let wrs = i.c(&format!("wrs.{leg}"));
        m.insert(
            format!("ibfabric.host_ns_per_wr.{leg}"),
            ratio(i.h(&format!("leg.{leg}")), wrs),
        );
        m.insert(
            format!("ibfabric.events_per_wr.{leg}"),
            ratio(i.c(&format!("events.{leg}")), wrs),
        );
    }
    m.insert("ibfabric.host_ns_per_byte.write4m".into(), r.byte_ns);
    for c in [
        "msgs_delivered",
        "bytes_delivered",
        "cqes",
        "rnr_naks",
        "retransmissions",
        "ack_timeouts",
        "dup_suppressed",
    ] {
        m.insert(format!("ibfabric.{c}"), i.c(&format!("ibfabric.{c}")));
    }
    m.insert(
        "ibfabric.wire_msgs_per_op".into(),
        ratio(wire, i.ops as f64),
    );

    for s in SCHEMES.map(|s| s.label()) {
        let msgs = i.c(&format!("mpib.msgs.{s}"));
        let per_msg = ratio(i.h(&format!("mpib.wall.{s}")), msgs);
        let wire_per_msg = ratio(i.c(&format!("mpib.wire.{s}")), msgs);
        m.insert(format!("mpib.host_ns_per_msg.{s}"), per_msg);
        m.insert(
            format!("mpib.events_per_msg.{s}"),
            ratio(i.c(&format!("mpib.events.{s}")), msgs),
        );
        m.insert(
            format!("mpib.sim_us_per_msg.{s}"),
            ratio(i.c(&format!("mpib.sim_ns.{s}")), msgs) / 1e3,
        );
        m.insert(
            format!("mpib.self_ns_per_msg_est.{s}"),
            if msgs > 0.0 {
                per_msg - wire_per_msg * r.wr_ns
            } else {
                0.0
            },
        );
        m.insert(
            format!("mpib.ecm_per_msg.{s}"),
            ratio(i.c(&format!("mpib.ecm.{s}")), msgs),
        );
        m.insert(
            format!("mpib.backlogged_per_msg.{s}"),
            ratio(i.c(&format!("mpib.backlogged.{s}")), msgs),
        );
    }
    for c in ["rdma_credit_updates", "max_posted", "ring_generation"] {
        m.insert(format!("mpib.{c}"), i.c(&format!("mpib.{c}")));
    }
    for (k, v) in i.probes.iter().filter(|(k, _)| !k.starts_with("probe.")) {
        m.insert(k.clone(), *v);
    }

    // Host ns per event on the eager fast path: what a NAS event would
    // cost if it were all communication.
    let eager_ns_per_event = ratio(i.sum_h("mpib.wall."), i.sum_c("mpib.events."));
    for k in Kernel::ALL {
        let key = kernel_key(k);
        let wall = i.h(&format!("nas.wall.{key}"));
        let events = i.c(&format!("nas.events.{key}"));
        m.insert(format!("nasbench.wall_ms.{key}"), wall / 1e6);
        m.insert(format!("nasbench.events.{key}"), events);
        m.insert(
            format!("nasbench.host_ns_per_event.{key}"),
            ratio(wall, events),
        );
        m.insert(
            format!("nasbench.sim_ms.{key}"),
            i.c(&format!("nas.sim_ns.{key}")) / 1e6,
        );
        m.insert(
            format!("nasbench.bytes_delivered.{key}"),
            i.c(&format!("nas.bytes.{key}")),
        );
        let bootstrap_ns: f64 = [100, 1]
            .iter()
            .map(|pp| {
                let probe = format!("mpib.bootstrap_ms.{}x{pp}", k.paper_procs());
                i.probes.get(&probe).copied().unwrap_or(0.0) * 1e6 * SCHEMES.len() as f64
            })
            .sum();
        m.insert(
            format!("nasbench.app_share_est.{key}"),
            if wall > 0.0 {
                (1.0 - (bootstrap_ns + events * eager_ns_per_event) / wall).max(0.0)
            } else {
                0.0
            },
        );
    }

    // Per ladder: the buckets and the byte count sum over a rep's ladders.
    let ladders = i.c("ckpt.ladders").max(1.0);
    m.insert(
        "ckpt.snapshot_bytes".into(),
        i.c("ckpt.snapshot_bytes") / ladders,
    );
    for leg in ["encode", "decode", "resume", "replace"] {
        m.insert(
            format!("ckpt.{leg}_ms"),
            i.h(&format!("ckpt.{leg}")) / ladders / 1e6,
        );
    }
    m.insert(
        "ckpt.mb_per_s".into(),
        // Bytes through encode and decode per host second, in MB/s.
        ratio(
            2.0 * i.c("ckpt.snapshot_bytes") * 1e3,
            i.h("ckpt.encode") + i.h("ckpt.decode"),
        ),
    );
    m
}

/// One row of `ledger.md`: a rep's wall split by layer, in host ns.
#[derive(Default)]
pub struct LedgerRow {
    pub setup: f64,
    pub ibsim: f64,
    pub ibfabric: f64,
    pub mpib: f64,
    pub app: f64,
    pub unattributed: f64,
}

/// Splits the median rep wall. Measured parts are taken as they are;
/// estimated parts are capped at what is left, in the order set-up, app,
/// `ibsim`, `ibfabric`, `mpib`; the layer that can only be a remainder
/// (`mpib` under the harness's own bodies, the kernels' arithmetic under
/// `nas_w`/`ckpt_ladder`) gets what remains of the runs, and whatever the
/// runs do not cover is `unattributed`. Nothing is ever negative.
pub fn ledger(i: &Inputs<'_>) -> LedgerRow {
    let r = Rungs::of(i);
    let mut row = LedgerRow::default();
    let mut left = i.wall_ns;
    let mut take = |want: f64| {
        let got = want.clamp(0.0, left.max(0.0));
        left -= got;
        got
    };
    let events = i.c("ibsim.events");
    let wire = i.c("ibfabric.msgs_delivered") + i.c("ibfabric.retransmissions");
    let bytes = i.c("ibfabric.bytes_delivered");
    // The fabric's own cost per WR and per byte: the rung's cost less the
    // engine actions inside it.
    let wr_self = (r.wr_ns - r.wr_events * r.action_2).max(0.0);
    let byte_self = (r.byte_ns - r.byte_events * r.action_2).max(0.0);
    let fabric_est = wire * wr_self + bytes * byte_self;
    let engine_est = events * r.action(i.workload);

    match i.workload {
        "sim_raw" => {
            row.setup = take(i.h("setup.ibsim"));
            row.ibsim = take(i.sum_h("leg."));
        }
        "fabric_raw" => {
            row.setup = take(i.h("setup.ibfabric"));
            let runs = i.sum_h("leg.");
            row.ibsim = take(engine_est.min(runs));
            row.ibfabric = take(runs - row.ibsim);
        }
        "eager_small" | "credit_starved" | "rndv_large" => {
            let runs = i.sum_h("mpib.wall.");
            row.setup = take(i.probes.get("probe.rep_setup_ms").copied().unwrap_or(0.0) * 1e6);
            row.app = take(i.h("body.self"));
            row.ibsim = take(engine_est);
            row.ibfabric = take(fabric_est);
            row.mpib = take(runs - row.setup - row.app - row.ibsim - row.ibfabric);
        }
        _ => {
            let runs = i.sum_h("nas.wall.") + i.sum_h("ckpt.");
            row.setup = take(i.probes.get("probe.rep_setup_ms").copied().unwrap_or(0.0) * 1e6);
            row.ibsim = take(engine_est);
            row.ibfabric = take(fabric_est);
            // Per wire message, what `mpib` itself cost on the eager rung;
            // plus the codec, which is `mpib::ckpt` end to end.
            let self_per_msg = ratio(i.sum_h("mpib.wall."), i.sum_c("mpib.wire.")) - r.wr_ns;
            row.mpib = take(wire * self_per_msg.max(0.0) + i.h("ckpt.encode") + i.h("ckpt.decode"));
            row.app = take(runs - row.setup - row.ibsim - row.ibfabric - row.mpib);
        }
    }
    row.unattributed = left.max(0.0);
    row
}
