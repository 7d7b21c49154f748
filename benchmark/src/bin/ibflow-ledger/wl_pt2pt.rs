//! `eager_small`, `credit_starved`, `rndv_large`: one two-rank body —
//! bursts of `isend`/`irecv`, an ack per burst — under parameters that put
//! the same `mpib`/`ibfabric` code on its fast path, its credit-starved
//! slow paths, and its byte-dominated rendezvous path.

use crate::common::{median, ms, shuffled, Rep, Scale, Workload, SCHEMES};
use crate::trace::{BodyClock, Tracer};
use ibfabric::FabricParams;
use mpib::{FlowControlScheme, MpiConfig, MpiRunOutput, MpiWorld};
use std::collections::BTreeMap;
use std::rc::Rc;

const TAG_DATA: i32 = 7;
const TAG_ACK: i32 = 8;

/// One `(prepost, message size, burst sequence)` the five schemes run.
struct Case {
    prepost: u32,
    size: usize,
    bursts: Rc<[u32]>,
    /// Receive side: `irecv` × burst then wait, or one blocking `recv` at
    /// a time.
    recv: RecvStyle,
}

#[derive(Clone, Copy, PartialEq)]
pub enum RecvStyle {
    Posted,
    /// One receive outstanding at a time. `credit_starved` needs this:
    /// `mpib` stages every rendezvous from one source and size class in
    /// one region, so with several such receives posted the payloads of
    /// back-to-back credit-starved conversions overwrite each other
    /// before copy-out (seen on `rdma-channel-dyn` at the seed commit;
    /// see README, "Defect found"). A workload may contain no failing op,
    /// so until that is fixed the receiver here matches one at a time.
    Blocking,
}

pub struct Pt2pt {
    name: &'static str,
    cases: Vec<Case>,
}

impl Pt2pt {
    /// 4 B, window 64, pre-post 100: credits never run out (Figs 3/4).
    pub fn eager_small(scale: Scale) -> Pt2pt {
        Pt2pt {
            name: "eager_small",
            cases: vec![Case {
                prepost: 100,
                size: 4,
                bursts: vec![64; scale.pick(2400, 12)].into(),
                recv: RecvStyle::Posted,
            }],
        }
    }

    /// The same body with pre-post 10 and 1 and seeded burst lengths from
    /// {25, 50, 100, 200}: backlog, ECMs, RNR NAK + retry, ring-full
    /// conversion, ring growth (Figs 5/6). Every burst length appears
    /// equally often, so the message count does not depend on the seed.
    pub fn credit_starved(seed: u64, scale: Scale) -> Pt2pt {
        let copies = scale.pick(150, 1);
        let case = |prepost, stream| Case {
            prepost,
            size: 4,
            bursts: shuffled(&[25, 50, 100, 200], copies, seed, stream).into(),
            recv: RecvStyle::Blocking,
        };
        Pt2pt {
            name: "credit_starved",
            cases: vec![case(10, 0xC5), case(1, 0xC6)],
        }
    }

    /// Window 16, pre-post 10, 32 KB and 256 KB: rendezvous handshake plus
    /// MTU-segmented RDMA; scheme-independent by design (Figs 7/8).
    pub fn rndv_large(scale: Scale) -> Pt2pt {
        let case = |size, rounds| Case {
            prepost: 10,
            size,
            bursts: vec![16; rounds].into(),
            recv: RecvStyle::Posted,
        };
        Pt2pt {
            name: "rndv_large",
            cases: vec![
                case(32 << 10, scale.pick(600, 3)),
                case(256 << 10, scale.pick(60, 1)),
            ],
        }
    }
}

/// Every `STAMP_EVERY`th byte of a message carries the low byte of its
/// sequence number, and its first four bytes the whole number; the rest
/// keeps the buffer's fill. Checking the stamps catches a lost, stale,
/// reordered or misplaced payload at sub-packet granularity without the
/// harness spending more host time on a 256 KB message than `mpib` does.
const STAMP_EVERY: usize = 1024;
const FILL: u8 = 0xA5;

fn stamp(msg: &mut [u8], seq: u32) {
    for b in msg.iter_mut().step_by(STAMP_EVERY) {
        *b = seq as u8;
    }
    msg[..4].copy_from_slice(&seq.to_le_bytes());
}

fn message_ok(data: &[u8], size: usize, seq: u32) -> bool {
    data.len() == size
        && data[..4] == seq.to_le_bytes()
        && data
            .iter()
            .step_by(STAMP_EVERY)
            .skip(1)
            .all(|&b| b == seq as u8)
}

/// One run of the body: the output (per-rank bad-message counts as
/// results), its host ns, and the ranks' summed `body.self` ns.
pub struct CaseRun {
    pub out: Result<MpiRunOutput<u64>, String>,
    pub ns: u64,
    pub body_ns: u64,
}

pub fn run_case(
    tr: &mut Tracer,
    scheme: FlowControlScheme,
    prepost: u32,
    size: usize,
    bursts: &Rc<[u32]>,
    recv: RecvStyle,
) -> CaseRun {
    let clock = BodyClock::new(tr.on);
    let body_clock = clock.clone();
    let bursts = Rc::clone(bursts);
    let (out, ns) = tr.span(
        "mpib.world_run",
        || {
            format!(
                "nprocs=2 scheme={} prepost={prepost} size={size}",
                scheme.label()
            )
        },
        |tr| {
            let out = MpiWorld::run(
                2,
                MpiConfig::scheme(scheme, prepost),
                FabricParams::mt23108(),
                async move |mpi| {
                    let clock = &body_clock;
                    let peer = 1 - mpi.rank();
                    let widest = bursts.iter().copied().max().unwrap_or(0) as usize;
                    let mut buf = vec![FILL; if mpi.rank() == 0 { widest * size } else { 0 }];
                    let mut got = Vec::with_capacity(widest);
                    let (mut seq, mut bad) = (0u32, 0u64);
                    for &n in bursts.iter() {
                        if mpi.rank() == 0 {
                            clock.section(|| {
                                for (msg, s) in buf.chunks_exact_mut(size).zip(seq..seq + n) {
                                    stamp(msg, s);
                                }
                            });
                            let reqs: Vec<_> = buf
                                .chunks_exact(size)
                                .take(n as usize)
                                .map(|m| mpi.isend(m, peer, TAG_DATA))
                                .collect();
                            mpi.waitall(&reqs).await;
                            let (_, ack) = mpi.recv(Some(peer), Some(TAG_ACK)).await;
                            bad += u64::from(ack != (seq + n).to_le_bytes());
                        } else {
                            got.clear();
                            if recv == RecvStyle::Posted {
                                let reqs: Vec<_> = (0..n)
                                    .map(|_| mpi.irecv(Some(peer), Some(TAG_DATA)))
                                    .collect();
                                for r in reqs {
                                    got.push(mpi.wait_recv(r).await);
                                }
                            } else {
                                for _ in 0..n {
                                    got.push(mpi.recv(Some(peer), Some(TAG_DATA)).await);
                                }
                            }
                            bad += clock.section(|| {
                                got.iter()
                                    .zip(seq..)
                                    .filter(|((st, data), s)| {
                                        st.source != peer
                                            || st.tag != TAG_DATA
                                            || !message_ok(data, size, *s)
                                    })
                                    .count() as u64
                            });
                            mpi.send(&(seq + n).to_le_bytes(), peer, TAG_ACK).await;
                        }
                        seq += n;
                    }
                    bad
                },
            );
            tr.aggregate("body.self", clock.total_ns());
            out.map_err(|e| e.to_string())
        },
    );
    CaseRun {
        out,
        ns,
        body_ns: clock.total_ns(),
    }
}

/// Folds one two-rank run into `rep` under its scheme's keys.
pub fn record_run(rep: &mut Rep, what: &str, scheme: FlowControlScheme, msgs: u64, run: CaseRun) {
    let label = scheme.label();
    rep.ops += msgs;
    rep.host(&format!("mpib.wall.{label}"), run.ns);
    rep.host("body.self", run.body_ns);
    rep.count(&format!("mpib.msgs.{label}"), msgs);
    let out = match run.out {
        Ok(out) => out,
        Err(e) => {
            rep.fail_if(true, msgs, || format!("{what}/{label}: {e}"));
            return;
        }
    };
    let bad: u64 = out.results.iter().sum();
    rep.fail_if(bad > 0, bad.min(msgs), || {
        format!("{what}/{label}: {bad} payload/order mismatches")
    });
    rep.fail_if(!out.stats.all_ledgers_conserved(), msgs, || {
        format!("{what}/{label}: a credit ledger is not conserved")
    });
    rep.sim_ns += out.end_time.as_nanos();
    rep.digest.u64(out.end_time.as_nanos());
    rep.digest.u64(out.events);
    rep.digest.debug(&out.stats.ranks);
    rep.fabric_stats(&out.fabric.stats);
    rep.count("ibsim.events", out.events);
    rep.count(&format!("mpib.events.{label}"), out.events);
    rep.count(&format!("mpib.sim_ns.{label}"), out.end_time.as_nanos());
    let fs = &out.fabric.stats;
    rep.count(
        &format!("mpib.wire.{label}"),
        fs.msgs_delivered.get() + fs.retransmissions.get(),
    );
    for conn in out.stats.ranks.iter().flat_map(|r| &r.conns) {
        rep.count(&format!("mpib.ecm.{label}"), conn.ecm_sent.get());
        rep.count(&format!("mpib.backlogged.{label}"), conn.backlogged.get());
        rep.count("mpib.rdma_credit_updates", conn.rdma_credit_updates.get());
        rep.peak("mpib.max_posted", conn.max_posted.get());
        rep.peak("mpib.ring_generation", conn.ring_generation.get());
    }
}

/// Median host ms of `n` empty-body runs of `(nprocs, cfg)`: what
/// constructing, connecting and finalizing that world costs.
pub fn bootstrap_probe(tr: &mut Tracer, nprocs: usize, cfg: &MpiConfig, n: usize) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|_| {
            let (out, ns) = tr.span(
                "mpib.bootstrap_probe",
                || {
                    format!(
                        "nprocs={nprocs} scheme={} prepost={}",
                        cfg.scheme.label(),
                        cfg.prepost
                    )
                },
                |_| MpiWorld::run(nprocs, cfg.clone(), FabricParams::mt23108(), async |_| ()),
            );
            out.expect("an empty-body world runs to completion");
            ms(ns)
        })
        .collect();
    median(&samples)
}

/// Probes every `(nprocs, prepost)` × scheme in `worlds` (with how many
/// runs of each a rep makes). Returns `mpib.bootstrap_ms.<n>x<pp>` (mean
/// over the schemes) and `probe.rep_setup_ms`, the bootstrap a whole rep
/// pays.
pub fn probe_worlds(
    tr: &mut Tracer,
    worlds: &[(usize, u32, usize)],
    n: usize,
) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut rep_setup = 0.0;
    for &(nprocs, prepost, runs_per_scheme) in worlds {
        let per_scheme: Vec<f64> = SCHEMES
            .iter()
            .map(|&s| bootstrap_probe(tr, nprocs, &MpiConfig::scheme(s, prepost), n))
            .collect();
        let total: f64 = per_scheme.iter().sum();
        rep_setup += total * runs_per_scheme as f64;
        out.insert(
            format!("mpib.bootstrap_ms.{nprocs}x{prepost}"),
            total / per_scheme.len() as f64,
        );
    }
    out.insert("probe.rep_setup_ms".to_string(), rep_setup);
    out
}

impl Workload for Pt2pt {
    fn probes(&mut self, tr: &mut Tracer, n: usize) -> BTreeMap<String, f64> {
        let mut worlds: Vec<(usize, u32, usize)> = Vec::new();
        for c in &self.cases {
            match worlds.iter_mut().find(|w| w.1 == c.prepost) {
                Some(w) => w.2 += 1,
                None => worlds.push((2, c.prepost, 1)),
            }
        }
        probe_worlds(tr, &worlds, n)
    }

    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::new();
        for case in &self.cases {
            let msgs: u64 = case.bursts.iter().map(|&n| u64::from(n)).sum();
            for scheme in SCHEMES {
                let run = run_case(tr, scheme, case.prepost, case.size, &case.bursts, case.recv);
                record_run(&mut rep, self.name, scheme, msgs, run);
            }
        }
        rep
    }
}
