//! Types shared by every workload: the per-rep record, the order-sensitive
//! digest, seeded input generation and small statistics.

use crate::trace::Tracer;
use ibfabric::FabricStats;
use ibsim::rng::det_rng;
use mpib::FlowControlScheme;
use nasbench::Kernel;
use std::collections::BTreeMap;

pub const SCHEMES: [FlowControlScheme; 5] = [
    FlowControlScheme::Hardware,
    FlowControlScheme::UserStatic,
    FlowControlScheme::UserDynamic,
    FlowControlScheme::RdmaChannel,
    FlowControlScheme::RdmaChannelDyn,
];

/// A kernel's name as it appears in metric names (`is`, `ft`, ...).
pub fn kernel_key(k: Kernel) -> String {
    k.name().to_lowercase()
}

/// FNV-1a over 64-bit words: order-sensitive. A workload folds every
/// *sim* output of a rep into one: end times, event counts, statistics,
/// checksums. Host-only optimisations must leave it unchanged.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0000_0100_0000_01B3);
    }

    /// Eight bytes per step (a 13 MB snapshot goes through here), then the
    /// tail and the length.
    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.u64(u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")));
        }
        for &b in words.remainder() {
            self.u64(u64::from(b));
        }
        self.u64(bytes.len() as u64);
    }

    pub fn debug(&mut self, v: &impl std::fmt::Debug) {
        self.bytes(format!("{v:?}").as_bytes());
    }
}

/// What one rep did. Counts are exact and must repeat; `host_ns` buckets
/// are wall-clock and are reported as medians over reps.
pub struct Rep {
    /// Ops attempted, counted from the harness's own loop bounds.
    pub ops: u64,
    pub failed: u64,
    /// Sum of `end_time` over the rep's runs (sim).
    pub sim_ns: u64,
    pub digest: Digest,
    pub counts: BTreeMap<String, u64>,
    pub host_ns: BTreeMap<String, u64>,
    /// First few failure descriptions, for the log.
    pub failures: Vec<String>,
}

impl Rep {
    pub fn new() -> Rep {
        Rep {
            ops: 0,
            failed: 0,
            sim_ns: 0,
            digest: Digest::new(),
            counts: BTreeMap::new(),
            host_ns: BTreeMap::new(),
            failures: Vec::new(),
        }
    }

    pub fn count(&mut self, key: &str, v: u64) {
        *self.counts.entry(key.to_string()).or_insert(0) += v;
    }

    /// Peak-style counters keep the maximum instead of the sum.
    pub fn peak(&mut self, key: &str, v: u64) {
        let e = self.counts.entry(key.to_string()).or_insert(0);
        *e = (*e).max(v);
    }

    pub fn host(&mut self, key: &str, ns: u64) {
        *self.host_ns.entry(key.to_string()).or_insert(0) += ns;
    }

    /// Marks `n` ops failed when `bad`, keeping the reason.
    pub fn fail_if(&mut self, bad: bool, n: u64, why: impl FnOnce() -> String) {
        if bad {
            self.failed += n;
            if self.failures.len() < 8 {
                self.failures.push(why());
            }
        }
    }

    /// Folds a run's fabric statistics into the counts and the digest.
    pub fn fabric_stats(&mut self, s: &FabricStats) {
        self.count("ibfabric.msgs_delivered", s.msgs_delivered.get());
        self.count("ibfabric.bytes_delivered", s.bytes_delivered.get());
        self.count("ibfabric.cqes", s.cqes.get());
        self.count("ibfabric.rnr_naks", s.rnr_naks.get());
        self.count("ibfabric.retransmissions", s.retransmissions.get());
        self.count("ibfabric.ack_timeouts", s.ack_timeouts.get());
        self.count("ibfabric.dup_suppressed", s.dup_suppressed.get());
        self.digest.debug(s);
    }
}

/// A workload: set-up probes plus a repeatable rep.
pub trait Workload {
    /// Runs each world-construction probe this workload's rep depends on
    /// `n` times and returns the per-layer medians in ms, keyed by metric.
    fn probes(&mut self, tr: &mut Tracer, n: usize) -> BTreeMap<String, f64>;
    /// One closed-loop pass over the workload's inputs.
    fn rep(&mut self, tr: &mut Tracer) -> Rep;
}

/// Full sizes, or the `--check` sizes that finish in well under a second.
#[derive(Clone, Copy)]
pub struct Scale {
    pub tiny: bool,
}

impl Scale {
    pub fn pick<T>(self, full: T, tiny: T) -> T {
        if self.tiny {
            tiny
        } else {
            full
        }
    }
}

/// `copies` of each value of `values`, shuffled by `(seed, stream)`. The
/// multiset is fixed, so total work does not depend on the seed; only the
/// order does.
pub fn shuffled<T: Copy>(values: &[T], copies: usize, seed: u64, stream: u64) -> Vec<T> {
    let mut out: Vec<T> = values
        .iter()
        .flat_map(|&v| std::iter::repeat_n(v, copies))
        .collect();
    let mut rng = det_rng(seed, stream);
    for i in (1..out.len()).rev() {
        let j = rng.gen_u64_below(i as u64 + 1) as usize;
        out.swap(i, j);
    }
    out
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// `(q1, median, q3)` by linear interpolation between order statistics;
/// zeros for an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0, 0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}
