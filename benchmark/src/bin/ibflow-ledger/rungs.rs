//! The rungs below a workload, run briefly inside a traced run.
//!
//! A layer that cannot be wrapped from outside (`ibsim` inside a fabric
//! run, `ibfabric` inside an MPI run) is costed from the rung below:
//! `sim_raw` → `fabric_raw` → pt2pt → `nas_w`. Each traced process
//! measures those rungs itself, with shorter legs of the same code the
//! rung's own workload runs, so its estimates never depend on another
//! process's numbers.

use crate::common::{median, Rep, Scale, SCHEMES};
use crate::trace::Tracer;
use crate::wl_pt2pt::{record_run, run_case, RecvStyle};
use crate::{wl_fabric, wl_sim};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Median host ns and exact counts of the rungs' legs.
#[derive(Default)]
pub struct Rung {
    host: BTreeMap<String, f64>,
    counts: BTreeMap<String, u64>,
}

/// Keys that describe one leg or one scheme (as opposed to a whole rep's
/// totals, which a rung must never add to).
const LEG_KEYS: [&str; 12] = [
    "leg.",
    "actions.",
    "wrs.",
    "bytes.",
    "events.",
    "mpib.wall.",
    "mpib.msgs.",
    "mpib.events.",
    "mpib.sim_ns.",
    "mpib.wire.",
    "mpib.ecm.",
    "mpib.backlogged.",
];

impl Rung {
    /// Adds the rung's per-leg keys where the workload has none itself.
    pub fn merge_into(&self, host: &mut BTreeMap<String, f64>, counts: &mut BTreeMap<String, u64>) {
        let leg_key = |k: &str| LEG_KEYS.iter().any(|p| k.starts_with(p));
        // A workload that runs MPI worlds itself owns every `mpib.` key.
        let owns_mpib = host.keys().any(|k| k.starts_with("mpib.wall."));
        let wanted = |k: &str| leg_key(k) && !(owns_mpib && k.starts_with("mpib."));
        for (k, v) in self.host.iter().filter(|(k, _)| wanted(k)) {
            host.entry(k.clone()).or_insert(*v);
        }
        for (k, v) in self.counts.iter().filter(|(k, _)| wanted(k)) {
            counts.entry(k.clone()).or_insert(*v);
        }
    }
}

/// Which rungs sit below `workload`: `(ibsim, ibfabric, mpib)`.
fn below(workload: &str) -> (bool, bool, bool) {
    match workload {
        "sim_raw" => (false, false, false),
        "fabric_raw" => (true, false, false),
        "eager_small" | "credit_starved" | "rndv_large" => (true, true, false),
        _ => (true, true, true),
    }
}

pub fn run(workload: &str, tr: &mut Tracer, scale: Scale) -> Rung {
    let (ibsim, ibfabric, mpib) = below(workload);
    let bursts: Rc<[u32]> = vec![64; scale.pick(400, 4)].into();
    let passes: Vec<Rep> = (0..3)
        .map(|_| {
            let mut rep = Rep::new();
            if ibsim {
                let n = scale.pick(1_000_000, 4_000);
                let run = wl_sim::leg_interleaved(tr, 2, n / 2);
                wl_sim::record_leg(&mut rep, "xproc", &run);
                let run = wl_sim::leg_interleaved(tr, 64, n / 64);
                wl_sim::record_leg(&mut rep, "ranks64", &run);
            }
            if ibfabric {
                let run = wl_fabric::leg_send64(tr, "send64", scale.pick(1500, 4), None);
                wl_fabric::record_leg(&mut rep, "send64", &run);
                let run = wl_fabric::leg_write4m(tr, scale.pick(16, 1));
                wl_fabric::record_leg(&mut rep, "write4m", &run);
            }
            if mpib {
                let msgs = bursts.iter().map(|&n| u64::from(n)).sum();
                for scheme in SCHEMES {
                    let run = run_case(tr, scheme, 100, 4, &bursts, RecvStyle::Posted);
                    record_run(&mut rep, "rung", scheme, msgs, run);
                }
            }
            rep
        })
        .collect();
    let mut rung = Rung {
        counts: passes[0].counts.clone(),
        ..Rung::default()
    };
    for key in passes[0].host_ns.keys() {
        let samples: Vec<f64> = passes
            .iter()
            .map(|r| r.host_ns.get(key).copied().unwrap_or(0) as f64)
            .collect();
        rung.host.insert(key.clone(), median(&samples));
    }
    rung
}
