//! Property-based tests spanning the whole stack: arbitrary workloads
//! through the fabric + MPI layer must preserve MPI semantics under every
//! flow control scheme and configuration.
//!
//! Runs under the in-repo harness (`testutil::prop`): every failure prints
//! a base seed (`IBFLOW_PROP_SEED=...`) and a greedily minimized input.

use ibflow::ibfabric::FabricParams;
use ibflow::mpib::{CreditMsgMode, FlowControlScheme, GrowthPolicy, MpiConfig, MpiWorld};
use testutil::prop::{check, shrink, Case, Gen};

const CASES: u32 = 24;

/// The send/receive schemes: the generators below draw credit modes
/// (`Optimistic`) that `validate` rejects under the ring schemes.
fn schemes() -> Vec<FlowControlScheme> {
    FlowControlScheme::ALL
        .into_iter()
        .filter(|s| !s.uses_ring())
        .collect()
}

fn gen_scheme(g: &mut Gen) -> FlowControlScheme {
    let schemes = schemes();
    schemes[g.index(schemes.len())]
}

/// Shrinks a scheme toward the front of [`schemes`] (hardware first).
fn shrink_scheme(s: FlowControlScheme) -> Vec<FlowControlScheme> {
    let mut schemes = schemes();
    let idx = schemes.iter().position(|&x| x == s).expect("known scheme");
    schemes.truncate(idx);
    schemes
}

/// Any mix of message sizes (eager and rendezvous), sent in order on
/// one tag, arrives intact and in order — whatever the scheme,
/// pre-post depth, or credit path.
#[derive(Clone, Debug)]
struct IntegrityCase {
    sizes: Vec<usize>,
    scheme: FlowControlScheme,
    credit_mode: CreditMsgMode,
    prepost: u32,
    ecm_threshold: u32,
}

impl Case for IntegrityCase {
    fn generate(g: &mut Gen) -> Self {
        IntegrityCase {
            sizes: g.vec(1..25, |g| g.usize_in(0..6000)),
            scheme: gen_scheme(g),
            credit_mode: if g.bool() {
                CreditMsgMode::Optimistic
            } else {
                CreditMsgMode::Rdma
            },
            prepost: g.u32_in(1..12),
            ecm_threshold: g.u32_in(1..8),
        }
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<Self> = Vec::new();
        for sizes in shrink::vec_candidates(&self.sizes, 1, |&n| shrink::usize_toward(n, 0)) {
            out.push(IntegrityCase {
                sizes,
                ..self.clone()
            });
        }
        for scheme in shrink_scheme(self.scheme) {
            out.push(IntegrityCase {
                scheme,
                ..self.clone()
            });
        }
        if self.credit_mode == CreditMsgMode::Rdma {
            out.push(IntegrityCase {
                credit_mode: CreditMsgMode::Optimistic,
                ..self.clone()
            });
        }
        for prepost in shrink::u32_toward(self.prepost, 1) {
            out.push(IntegrityCase {
                prepost,
                ..self.clone()
            });
        }
        for ecm_threshold in shrink::u32_toward(self.ecm_threshold, 1) {
            out.push(IntegrityCase {
                ecm_threshold,
                ..self.clone()
            });
        }
        out
    }
}

#[test]
fn payload_integrity_and_ordering() {
    check(
        "payload_integrity_and_ordering",
        CASES,
        |c: &IntegrityCase| {
            let cfg = MpiConfig {
                credit_msg_mode: c.credit_mode,
                ecm_threshold: c.ecm_threshold,
                ..MpiConfig::scheme(c.scheme, c.prepost)
            };
            let sizes = c.sizes.clone();
            let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async move |mpi| {
                if mpi.rank() == 0 {
                    for (i, &n) in sizes.iter().enumerate() {
                        let payload: Vec<u8> = (0..n).map(|b| ((b + i) % 251) as u8).collect();
                        mpi.send(&payload, 1, 5).await;
                    }
                    true
                } else {
                    for (i, &n) in sizes.iter().enumerate() {
                        let (st, data) = mpi.recv(Some(0), Some(5)).await;
                        assert_eq!(st.len, n, "message {i} length");
                        for (b, &v) in data.iter().enumerate() {
                            assert_eq!(v, ((b + i) % 251) as u8, "message {i} byte {b}");
                        }
                    }
                    true
                }
            })
            .expect("run failed");
            assert!(out.results.iter().all(|&ok| ok));
        },
    );
}

/// Results and virtual end-times are bit-deterministic for a fixed
/// configuration.
#[derive(Clone, Debug)]
struct DeterminismCase {
    scheme: FlowControlScheme,
    prepost: u32,
    count: u32,
}

impl Case for DeterminismCase {
    fn generate(g: &mut Gen) -> Self {
        DeterminismCase {
            scheme: gen_scheme(g),
            prepost: g.u32_in(1..10),
            count: g.u32_in(1..30),
        }
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<Self> = Vec::new();
        for scheme in shrink_scheme(self.scheme) {
            out.push(DeterminismCase { scheme, ..*self });
        }
        for prepost in shrink::u32_toward(self.prepost, 1) {
            out.push(DeterminismCase { prepost, ..*self });
        }
        for count in shrink::u32_toward(self.count, 1) {
            out.push(DeterminismCase { count, ..*self });
        }
        out
    }
}

#[test]
fn determinism() {
    check("determinism", CASES, |c: &DeterminismCase| {
        let count = c.count;
        let run = || {
            let cfg = MpiConfig::scheme(c.scheme, c.prepost);
            MpiWorld::run(3, cfg, FabricParams::mt23108(), async move |mpi| {
                let me = mpi.rank();
                let next = (me + 1) % 3;
                let prev = (me + 2) % 3;
                let mut acc = me as u64;
                for i in 0..count {
                    let (_, d) = mpi
                        .sendrecv(
                            &acc.to_le_bytes(),
                            next,
                            i as i32,
                            Some(prev),
                            Some(i as i32),
                        )
                        .await;
                    acc = acc
                        .wrapping_mul(31)
                        .wrapping_add(u64::from_le_bytes(d.try_into().unwrap()));
                }
                acc
            })
            .expect("run failed")
        };
        let a = run();
        let b = run();
        assert_eq!(a.results, b.results);
        assert_eq!(a.end_time, b.end_time);
        assert_eq!(a.events, b.events);
    });
}

/// The flow control scheme never changes computed results, only
/// timing (the paper's comparisons rely on this).
#[derive(Clone, Debug)]
struct InvarianceCase {
    sizes: Vec<usize>,
    prepost: u32,
}

impl Case for InvarianceCase {
    fn generate(g: &mut Gen) -> Self {
        InvarianceCase {
            sizes: g.vec(1..12, |g| g.usize_in(1..4000)),
            prepost: g.u32_in(1..8),
        }
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<Self> = Vec::new();
        for sizes in shrink::vec_candidates(&self.sizes, 1, |&n| shrink::usize_toward(n, 1)) {
            out.push(InvarianceCase {
                sizes,
                ..self.clone()
            });
        }
        for prepost in shrink::u32_toward(self.prepost, 1) {
            out.push(InvarianceCase {
                prepost,
                ..self.clone()
            });
        }
        out
    }
}

#[test]
fn scheme_invariance() {
    check("scheme_invariance", CASES, |c: &InvarianceCase| {
        let mut sums = Vec::new();
        for scheme in schemes() {
            let sizes = c.sizes.clone();
            let out = MpiWorld::run(
                2,
                MpiConfig::scheme(scheme, c.prepost),
                FabricParams::mt23108(),
                async move |mpi| {
                    if mpi.rank() == 0 {
                        for &n in &sizes {
                            let payload: Vec<u8> = (0..n).map(|b| (b % 17) as u8).collect();
                            mpi.send(&payload, 1, 0).await;
                        }
                        0u64
                    } else {
                        let mut h = 0u64;
                        for _ in &sizes {
                            let (_, d) = mpi.recv(Some(0), Some(0)).await;
                            for &v in d.iter() {
                                h = h.wrapping_mul(131).wrapping_add(v as u64);
                            }
                        }
                        h
                    }
                },
            )
            .expect("run failed");
            sums.push(out.results[1]);
        }
        assert_eq!(sums[0], sums[1]);
        assert_eq!(sums[1], sums[2]);
    });
}

/// The dynamic scheme's pool never exceeds the configured cap, for
/// any growth policy and pressure level.
#[derive(Clone, Debug)]
struct GrowthCase {
    burst: u32,
    increment: u32,
    exponential: bool,
    max_prepost: u32,
}

impl Case for GrowthCase {
    fn generate(g: &mut Gen) -> Self {
        GrowthCase {
            burst: g.u32_in(10..80),
            increment: g.u32_in(1..9),
            exponential: g.bool(),
            max_prepost: g.u32_in(4..24),
        }
    }

    fn shrink(&self) -> Vec<Self> {
        let mut out: Vec<Self> = Vec::new();
        for burst in shrink::u32_toward(self.burst, 10) {
            out.push(GrowthCase { burst, ..*self });
        }
        for increment in shrink::u32_toward(self.increment, 1) {
            out.push(GrowthCase { increment, ..*self });
        }
        for exponential in shrink::bool_toward_false(self.exponential) {
            out.push(GrowthCase {
                exponential,
                ..*self
            });
        }
        for max_prepost in shrink::u32_toward(self.max_prepost, 4) {
            out.push(GrowthCase {
                max_prepost,
                ..*self
            });
        }
        out
    }
}

#[test]
fn dynamic_growth_respects_cap() {
    check("dynamic_growth_respects_cap", CASES, |c: &GrowthCase| {
        let cfg = MpiConfig {
            growth: if c.exponential {
                GrowthPolicy::Exponential
            } else {
                GrowthPolicy::Linear(c.increment)
            },
            max_prepost: c.max_prepost,
            ..MpiConfig::scheme(FlowControlScheme::UserDynamic, 2)
        };
        let burst = c.burst;
        let out = MpiWorld::run(2, cfg, FabricParams::mt23108(), async move |mpi| {
            if mpi.rank() == 0 {
                let reqs: Vec<_> = (0..burst)
                    .map(|i| mpi.isend(&i.to_le_bytes(), 1, 0))
                    .collect();
                mpi.waitall(&reqs).await;
            } else {
                mpi.compute(ibflow::ibsim::SimDuration::millis(1)).await;
                for _ in 0..burst {
                    let _ = mpi.recv(Some(0), Some(0)).await;
                }
            }
        })
        .expect("run failed");
        let peak = out.stats.max_posted_buffers();
        assert!(
            peak <= c.max_prepost as u64,
            "peak {peak} exceeds cap {}",
            c.max_prepost
        );
    });
}
