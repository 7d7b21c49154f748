//! `fabric_raw`: `Sim<Fabric>` and verbs calls only, no `mpib`. Two
//! coroutines drive one reliable connection the way a verbs consumer does:
//! post, poll the CQ, arm a notification and park when it is empty.

use crate::common::{median, ms, Rep, Scale, Workload};
use crate::trace::{SampledClock, Tracer};
use ibfabric::{
    connect, post_send, Access, CqId, CqeOpcode, Fabric, FabricParams, FaultPlan, MrId, QpAttrs,
    QpId, RecvWr, SendOp, SendWr,
};
use ibsim::{ProcCtx, Sim, SimConfig, SimDuration};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

pub const LEGS: [&str; 4] = ["send64", "write4m", "rnr_storm", "gbn_lossy"];

const MSG: usize = 64;
const WINDOW: usize = 64;
const WRITE_BYTES: usize = 4 << 20;
const RNR_BURST: usize = 16;
/// How long the `rnr_storm` receiver leaves its RQ empty each round:
/// several RNR timers (120 µs on the MT23108 preset).
const RNR_DELAY: SimDuration = SimDuration::micros(400);

pub struct FabricRaw {
    seed: u64,
    send_rounds: usize,
    writes: usize,
    rnr_rounds: usize,
    lossy_rounds: usize,
}

impl FabricRaw {
    pub fn new(seed: u64, scale: Scale) -> FabricRaw {
        FabricRaw {
            seed,
            send_rounds: scale.pick(6500, 20),
            writes: scale.pick(330, 1),
            rnr_rounds: scale.pick(16_000, 10),
            lossy_rounds: scale.pick(4500, 20),
        }
    }
}

#[derive(Clone, Copy)]
struct Pair {
    cq_a: CqId,
    cq_b: CqId,
    qp_a: QpId,
    qp_b: QpId,
    mr_b: MrId,
}

/// What the two coroutines observed; folded into the rep afterwards.
#[derive(Default)]
struct Seen {
    completed: u64,
    bad: u64,
    first_bad: Option<String>,
}

impl Seen {
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.bad += 1;
            self.first_bad.get_or_insert_with(why);
        }
    }
}

type Shared = Rc<RefCell<Seen>>;

fn recv_wr(pair: &Pair, slot: usize) -> RecvWr {
    RecvWr {
        wr_id: slot as u64,
        mr: pair.mr_b,
        offset: slot * MSG,
        len: MSG,
    }
}

/// `Fabric::new` + create/register/post: everything before `Sim::new`.
fn build_fabric(plan: Option<FaultPlan>, preposted: usize, mr_len: usize) -> (Fabric, Pair) {
    let mut fabric = Fabric::new(FabricParams::mt23108());
    if let Some(plan) = plan {
        fabric.set_fault_plan(plan);
    }
    let a = fabric.add_node();
    let b = fabric.add_node();
    let cq_a = fabric.create_cq(a);
    let cq_b = fabric.create_cq(b);
    // Retry forever, as the MPI layer configures its QPs: the recovery
    // legs must finish their finite work whatever the fabric does.
    let attrs = QpAttrs {
        rnr_retry: None,
        retry_cnt: None,
        ..QpAttrs::default()
    };
    let pair = Pair {
        cq_a,
        cq_b,
        qp_a: fabric.create_qp(a, cq_a, cq_a, attrs),
        qp_b: fabric.create_qp(b, cq_b, cq_b, attrs),
        mr_b: fabric.register(b, mr_len, Access::FULL),
    };
    for slot in 0..preposted {
        fabric
            .post_recv(pair.qp_b, recv_wr(&pair, slot))
            .expect("prepost into a fresh RQ");
    }
    (fabric, pair)
}

fn payload64(seq: u64) -> Vec<u8> {
    let mut p = vec![seq as u8; MSG];
    p[..8].copy_from_slice(&seq.to_le_bytes());
    p
}

/// Polls `cq`; when it is empty, arms a notification and parks. Returns
/// the completions of the first non-empty poll.
async fn next_cqes(p: &mut ProcCtx<Fabric>, cq: CqId, polls: &SampledClock) -> Vec<ibfabric::Cqe> {
    loop {
        let waker = p.waker();
        let cqes = p.with(|ctx| {
            let cqes = polls.call(|| ctx.world.poll_cq(cq, WINDOW));
            if cqes.is_empty() {
                ctx.world.req_notify_cq(cq, waker);
            }
            cqes
        });
        if !cqes.is_empty() {
            return cqes;
        }
        p.park("fabric_raw: CQ empty").await;
    }
}

/// Posts `burst` sends per round and waits for every send completion
/// before the next round (a windowed sender).
async fn windowed_sender(
    mut p: ProcCtx<Fabric>,
    pair: Pair,
    burst: usize,
    rounds: usize,
    polls: Rc<SampledClock>,
    seen: Shared,
) {
    let mut seq = 0u64;
    let mut acked = 0u64;
    for _ in 0..rounds {
        p.with(|ctx| {
            for _ in 0..burst {
                post_send(ctx, pair.qp_a, SendWr::inline_send(seq, payload64(seq)))
                    .expect("post_send on a connected QP");
                seq += 1;
            }
        });
        while acked < seq {
            for c in next_cqes(&mut p, pair.cq_a, &polls).await {
                let mut s = seen.borrow_mut();
                s.check(
                    c.is_success() && c.opcode == CqeOpcode::SendComplete && c.wr_id == acked,
                    || format!("send completion {c:?}, expected wr_id {acked}"),
                );
                s.completed += 1;
                acked += 1;
            }
        }
    }
}

/// Consumes `total` receives in order, checking each payload in the MR and
/// re-posting its slot (unless `repost` is off: `rnr_storm` posts late).
async fn receiver(
    p: &mut ProcCtx<Fabric>,
    pair: Pair,
    next: &mut u64,
    total: u64,
    repost: bool,
    polls: &SampledClock,
    seen: &Shared,
) {
    let until = *next + total;
    while *next < until {
        for c in next_cqes(p, pair.cq_b, polls).await {
            let slot = c.wr_id as usize;
            let got = p.with(|ctx| {
                let bytes = &ctx.world.mr_bytes(pair.mr_b)[slot * MSG..(slot + 1) * MSG];
                let got = bytes == payload64(*next).as_slice();
                if repost {
                    ctx.world
                        .post_recv(pair.qp_b, recv_wr(&pair, slot))
                        .expect("repost a consumed slot");
                }
                got
            });
            seen.borrow_mut().check(
                got && c.is_success() && c.opcode == CqeOpcode::RecvComplete && c.byte_len == MSG,
                || format!("recv completion {c:?}: payload or order wrong at seq {next}"),
            );
            *next += 1;
        }
    }
}

/// One leg's run: the fabric afterwards and what the procs saw.
pub struct LegRun {
    /// Virtual end time and events processed (zeros if the run failed).
    pub end_ns: u64,
    pub events: u64,
    pub fabric: Fabric,
    pub wrs: u64,
    pub bytes: u64,
    pub bad: u64,
    pub first_bad: Option<String>,
    pub setup_ns: u64,
    pub run_ns: u64,
    pub poll_ns: u64,
}

fn run_leg(
    tr: &mut Tracer,
    leg: &'static str,
    wrs: u64,
    bytes: u64,
    build: impl FnOnce(Rc<SampledClock>, Shared) -> Sim<Fabric>,
) -> LegRun {
    let polls = Rc::new(SampledClock::new(if tr.on { 16 } else { 0 }));
    let seen: Shared = Rc::default();
    let (mut sim, setup_ns) = tr.span(
        "ibfabric.setup",
        || format!("leg={leg}"),
        |_| build(Rc::clone(&polls), Rc::clone(&seen)),
    );
    let (report, run_ns) = tr.span(
        "ibsim.run",
        || format!("leg={leg}"),
        |tr| {
            let report = sim.run();
            tr.aggregate("ibfabric.poll_cq", polls.estimate_ns());
            report
        },
    );
    let mut seen = std::mem::take(&mut *seen.borrow_mut());
    let (end_ns, events) = match report {
        Ok(r) => (r.end_time.as_nanos(), r.events_processed),
        Err(e) => {
            seen.check(false, || format!("{leg}: {e}"));
            (0, 0)
        }
    };
    let completed = seen.completed;
    seen.check(completed == wrs, || {
        format!("{leg}: {completed} of {wrs} work requests completed")
    });
    LegRun {
        end_ns,
        events,
        fabric: sim.into_world(),
        wrs,
        bytes,
        bad: seen.bad,
        first_bad: seen.first_bad,
        setup_ns,
        run_ns,
        poll_ns: polls.estimate_ns(),
    }
}

/// Windowed 64 B SEND/RECV with re-posted receives; with a fault plan it
/// is the `gbn_lossy` leg.
pub fn leg_send64(
    tr: &mut Tracer,
    leg: &'static str,
    rounds: usize,
    plan: Option<FaultPlan>,
) -> LegRun {
    let wrs = (rounds * WINDOW) as u64;
    run_leg(tr, leg, wrs, wrs * MSG as u64, |polls, seen| {
        // Two windows deep: the sender waits for a whole window's ACKs, so
        // the RQ never runs dry and this leg sees no RNR NAK.
        let (fabric, pair) = build_fabric(plan, 2 * WINDOW, 2 * WINDOW * MSG);
        let mut sim = Sim::new(fabric, SimConfig::default());
        sim.with_world(|ctx| connect(ctx, pair.qp_a, pair.qp_b));
        let (polls_b, seen_b) = (Rc::clone(&polls), Rc::clone(&seen));
        sim.spawn("sender", move |p| {
            windowed_sender(p, pair, WINDOW, rounds, polls, seen)
        });
        sim.spawn("receiver", move |mut p| async move {
            let mut next = 0;
            receiver(&mut p, pair, &mut next, wrs, true, &polls_b, &seen_b).await;
        });
        sim
    })
}

/// `writes` sequential 4 MiB RDMA WRITEs (~2k packets each), each checked
/// in the destination region.
pub fn leg_write4m(tr: &mut Tracer, writes: usize) -> LegRun {
    run_leg(
        tr,
        "write4m",
        writes as u64,
        (writes * WRITE_BYTES) as u64,
        |polls, seen| {
            let (fabric, pair) = build_fabric(None, 0, WRITE_BYTES);
            let mut sim = Sim::new(fabric, SimConfig::default());
            sim.with_world(|ctx| connect(ctx, pair.qp_a, pair.qp_b));
            // Two payloads built once: the leg measures the fabric's
            // per-byte cost, not the harness filling 4 MiB per op.
            let payloads: [Arc<[u8]>; 2] = [0x5Au8, 0xA5].map(|b| vec![b; WRITE_BYTES].into());
            sim.spawn("writer", move |mut p| async move {
                for i in 0..writes {
                    let payload = Arc::clone(&payloads[i % 2]);
                    p.with(|ctx| {
                        let wr = SendWr {
                            wr_id: i as u64,
                            op: SendOp::RdmaWrite {
                                payload,
                                rkey: pair.mr_b,
                                remote_offset: 0,
                            },
                            signaled: true,
                        };
                        post_send(ctx, pair.qp_a, wr).expect("post_send on a connected QP");
                    });
                    let cqes = next_cqes(&mut p, pair.cq_a, &polls).await;
                    let placed = p.with(|ctx| *ctx.world.mr_bytes(pair.mr_b) == *payloads[i % 2]);
                    let mut s = seen.borrow_mut();
                    s.check(
                        placed
                            && cqes.len() == 1
                            && cqes[0].is_success()
                            && cqes[0].opcode == CqeOpcode::RdmaWriteComplete,
                        || format!("write {i}: completions {cqes:?}, placed={placed}"),
                    );
                    s.completed += 1;
                }
            });
            sim
        },
    )
}

/// Bursts of sends into an empty RQ; the receiver posts late, so every
/// burst goes through RNR NAK and timed retry.
pub fn leg_rnr_storm(tr: &mut Tracer, rounds: usize) -> LegRun {
    let wrs = (rounds * RNR_BURST) as u64;
    run_leg(tr, "rnr_storm", wrs, wrs * MSG as u64, |polls, seen| {
        let (fabric, pair) = build_fabric(None, 0, RNR_BURST * MSG);
        let mut sim = Sim::new(fabric, SimConfig::default());
        sim.with_world(|ctx| connect(ctx, pair.qp_a, pair.qp_b));
        let (polls_b, seen_b) = (Rc::clone(&polls), Rc::clone(&seen));
        sim.spawn("sender", move |p| {
            windowed_sender(p, pair, RNR_BURST, rounds, polls, seen)
        });
        sim.spawn("receiver", move |mut p| async move {
            let mut next = 0;
            for _ in 0..rounds {
                p.advance(RNR_DELAY).await;
                p.with(|ctx| {
                    for slot in 0..RNR_BURST {
                        ctx.world
                            .post_recv(pair.qp_b, recv_wr(&pair, slot))
                            .expect("late post into an empty RQ");
                    }
                });
                let burst = RNR_BURST as u64;
                receiver(&mut p, pair, &mut next, burst, false, &polls_b, &seen_b).await;
            }
        });
        sim
    })
}

impl FabricRaw {
    fn leg(&self, tr: &mut Tracer, leg: &str) -> LegRun {
        match leg {
            "send64" => leg_send64(tr, "send64", self.send_rounds, None),
            "write4m" => leg_write4m(tr, self.writes),
            "rnr_storm" => leg_rnr_storm(tr, self.rnr_rounds),
            "gbn_lossy" => {
                let plan = FaultPlan::new(self.seed)
                    .with_drop(0.01)
                    .with_ack_delay(0.01, SimDuration::micros(200));
                leg_send64(tr, "gbn_lossy", self.lossy_rounds, Some(plan))
            }
            other => unreachable!("unknown fabric_raw leg {other}"),
        }
    }
}

impl Workload for FabricRaw {
    fn probes(&mut self, tr: &mut Tracer, n: usize) -> BTreeMap<String, f64> {
        let samples: Vec<f64> = (0..n)
            .map(|_| {
                let ((), ns) = tr.span("ibfabric.setup", String::new, |_| {
                    let (fabric, pair) = build_fabric(None, 2 * WINDOW, 2 * WINDOW * MSG);
                    let sim = Sim::new(fabric, SimConfig::default());
                    sim.with_world(|ctx| connect(ctx, pair.qp_a, pair.qp_b));
                    std::hint::black_box(&sim);
                });
                ms(ns)
            })
            .collect();
        BTreeMap::from([("ibfabric.setup_ms".to_string(), median(&samples))])
    }

    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::new();
        for leg in LEGS {
            let run = self.leg(tr, leg);
            record_leg(&mut rep, leg, &run);
            let stats = &run.fabric.stats;
            // Each leg must take the path it is here for.
            let (rnr, retx) = (stats.rnr_naks.get(), stats.retransmissions.get());
            let on_path = match leg {
                "send64" | "write4m" => rnr == 0 && retx == 0,
                "rnr_storm" => rnr > 0,
                _ => retx > 0 && stats.ack_timeouts.get() > 0,
            };
            rep.fail_if(!on_path, run.wrs, || {
                format!("fabric_raw/{leg}: off its path (rnr_naks={rnr}, retransmissions={retx})")
            });
        }
        rep
    }
}

/// Folds one fabric leg into `rep` (also used by the `ibfabric` rung).
pub fn record_leg(rep: &mut Rep, leg: &str, run: &LegRun) {
    rep.ops += run.wrs;
    rep.fail_if(run.bad > 0, run.bad.min(run.wrs), || {
        format!(
            "fabric_raw/{leg}: {}",
            run.first_bad.clone().unwrap_or_default()
        )
    });
    rep.sim_ns += run.end_ns;
    rep.digest.u64(run.end_ns);
    rep.digest.u64(run.events);
    rep.fabric_stats(&run.fabric.stats);
    rep.count(&format!("wrs.{leg}"), run.wrs);
    rep.count(&format!("bytes.{leg}"), run.bytes);
    rep.count(&format!("events.{leg}"), run.events);
    rep.count("ibsim.events", run.events);
    rep.host(&format!("leg.{leg}"), run.run_ns);
    rep.host("setup.ibfabric", run.setup_ns);
    rep.host("ibfabric.poll_cq", run.poll_ns);
}
