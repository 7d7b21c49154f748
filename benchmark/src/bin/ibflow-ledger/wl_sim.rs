//! `sim_raw`: the engine alone. Five legs use the one event queue in
//! different ways, so a queue or dispatch change that helps one shape and
//! costs another shows as such.

use crate::common::{median, ms, shuffled, Rep, Scale, Workload};
use crate::trace::Tracer;
use ibsim::{Ctx, ProcCtx, RunReport, Sim, SimConfig, SimDuration, SimTime, Waker};
use std::collections::BTreeMap;

pub const LEGS: [&str; 5] = ["call", "handoff", "xproc", "ranks64", "deepq"];

/// Link/DMA-like latencies of the fabric model (ns): the deltas real
/// traffic puts in the queue are a handful of fixed values like these.
const DEEPQ_DELTAS: [u32; 5] = [130, 260, 520, 1040, 4160];
const DEEPQ_PROCS: usize = 64;
const DEEPQ_TIMERS: usize = 64;

pub struct SimRaw {
    /// Actions per leg (approximate; each leg rounds to its own shape).
    n: u64,
    /// Seeded order in which `deepq` chains draw their deltas.
    deltas: Vec<u32>,
}

impl SimRaw {
    pub fn new(seed: u64, scale: Scale) -> SimRaw {
        SimRaw {
            n: scale.pick(4_500_000, 40_000),
            deltas: shuffled(&DEEPQ_DELTAS, 1024, seed, 0x51),
        }
    }
}

/// One leg's outcome: the engine's report, the actions the harness
/// expected from its loop bounds, and an order-sensitive leg digest.
pub struct LegRun {
    pub report: RunReport,
    pub expected: u64,
    pub extra_digest: u64,
    pub setup_ns: u64,
    pub run_ns: u64,
}

fn run_leg<W: 'static>(
    tr: &mut Tracer,
    build: impl FnOnce() -> Sim<W>,
    expected: u64,
    finish: impl FnOnce(W) -> u64,
) -> LegRun {
    let (mut sim, setup_ns) = tr.span("ibsim.setup", String::new, |_| build());
    let (report, run_ns) = tr.span("ibsim.run", String::new, |_| sim.run());
    let report = report.expect("sim_raw legs cannot deadlock or hit a limit");
    LegRun {
        report,
        expected,
        extra_digest: finish(sim.into_world()),
        setup_ns,
        run_ns,
    }
}

struct Chain {
    fired: u64,
    limit: u64,
}

/// A closure-event chain drained under one borrow of the scheduler.
pub fn leg_call(tr: &mut Tracer, n: u64) -> LegRun {
    fn tick(c: &mut Ctx<'_, Chain>) {
        c.world.fired += 1;
        if c.world.fired < c.world.limit {
            c.schedule_after(SimDuration::nanos(1), tick);
        }
    }
    run_leg(
        tr,
        || {
            let sim = Sim::new(Chain { fired: 0, limit: n }, SimConfig::default());
            sim.with_world(|ctx| ctx.schedule_at(SimTime::ZERO, tick));
            sim
        },
        n,
        |w| w.fired,
    )
}

/// `procs` coroutines advancing on interleaved schedules: with one proc
/// every resume is a self-resume, with more every resume changes process.
pub fn leg_interleaved(tr: &mut Tracer, procs: u64, n_per_proc: u64) -> LegRun {
    run_leg(
        tr,
        || {
            let mut sim: Sim<()> = Sim::new((), SimConfig::default());
            for phase in 0..procs {
                sim.spawn(format!("p{phase}"), move |mut p| async move {
                    p.advance(SimDuration::nanos(phase + 1)).await;
                    for _ in 0..n_per_proc {
                        p.advance(SimDuration::nanos(procs)).await;
                    }
                });
            }
            sim
        },
        // Per proc: the spawn resume, the phase advance, the loop.
        procs * (n_per_proc + 2),
        |()| 0,
    )
}

struct DeepQ {
    deltas: Vec<u32>,
    /// Per timer chain: fires left, cursor into `deltas`.
    chains: Vec<(u64, usize)>,
    /// Per proc: chains still running, and who to wake at zero.
    live: Vec<usize>,
    wakers: Vec<Option<Waker>>,
    fired: u64,
    order: u64,
}

fn deepq_fire(c: &mut Ctx<'_, DeepQ>, id: usize) {
    let w = &mut *c.world;
    w.fired += 1;
    w.order = w.order.wrapping_mul(31).wrapping_add(id as u64);
    let (left, cursor) = &mut w.chains[id];
    *left -= 1;
    if *left > 0 {
        let d = w.deltas[*cursor % w.deltas.len()];
        *cursor += 1;
        c.schedule_after(SimDuration::nanos(u64::from(d)), move |c| deepq_fire(c, id));
    } else {
        let owner = id / DEEPQ_TIMERS;
        w.live[owner] -= 1;
        if w.live[owner] == 0 {
            let waker = w.wakers[owner].expect("owner registered before arming timers");
            c.wake(waker);
        }
    }
}

async fn deepq_proc(mut p: ProcCtx<DeepQ>, owner: usize) {
    let waker = p.waker();
    p.with(|ctx| {
        ctx.world.wakers[owner] = Some(waker);
        for t in 0..DEEPQ_TIMERS {
            let id = owner * DEEPQ_TIMERS + t;
            let d = ctx.world.deltas[id % ctx.world.deltas.len()];
            ctx.schedule_after(SimDuration::nanos(u64::from(d)), move |c| deepq_fire(c, id));
        }
    });
    while p.with(|ctx| ctx.world.live[owner] > 0) {
        p.park("deepq: timers outstanding").await;
    }
}

/// 64 procs each keeping 64 self-rearming timers outstanding: the queue
/// holds ~4k entries at a handful of distinct deltas, as under real
/// traffic, instead of the depth-1 queue of the other legs.
pub fn leg_deepq(tr: &mut Tracer, deltas: &[u32], fires_per_chain: u64) -> LegRun {
    let chains = DEEPQ_PROCS * DEEPQ_TIMERS;
    run_leg(
        tr,
        || {
            let world = DeepQ {
                deltas: deltas.to_vec(),
                // Chains start at spread-out cursors so neighbours differ.
                chains: (0..chains).map(|id| (fires_per_chain, id * 7)).collect(),
                live: vec![DEEPQ_TIMERS; DEEPQ_PROCS],
                wakers: vec![None; DEEPQ_PROCS],
                fired: 0,
                order: 0,
            };
            let mut sim = Sim::new(world, SimConfig::default());
            for owner in 0..DEEPQ_PROCS {
                sim.spawn(format!("dq{owner}"), move |p| deepq_proc(p, owner));
            }
            sim
        },
        // Every timer fire, plus each proc's spawn resume and final wake.
        chains as u64 * fires_per_chain + 2 * DEEPQ_PROCS as u64,
        |w| w.order ^ w.fired,
    )
}

impl SimRaw {
    fn leg(&self, tr: &mut Tracer, leg: &str) -> LegRun {
        let n = self.n;
        match leg {
            "call" => leg_call(tr, n),
            "handoff" => leg_interleaved(tr, 1, n),
            "xproc" => leg_interleaved(tr, 2, n / 2),
            "ranks64" => leg_interleaved(tr, 64, n / 64),
            "deepq" => leg_deepq(
                tr,
                &self.deltas,
                (n / (DEEPQ_PROCS * DEEPQ_TIMERS) as u64).max(2),
            ),
            other => unreachable!("unknown sim_raw leg {other}"),
        }
    }
}

impl Workload for SimRaw {
    fn probes(&mut self, tr: &mut Tracer, n: usize) -> BTreeMap<String, f64> {
        let samples: Vec<f64> = (0..n)
            .map(|_| {
                let ((), ns) = tr.span("ibsim.setup", String::new, |_| {
                    let mut sim: Sim<()> = Sim::new((), SimConfig::default());
                    for i in 0..64 {
                        sim.spawn(format!("p{i}"), |_p| async {});
                    }
                    std::hint::black_box(&sim);
                });
                ms(ns)
            })
            .collect();
        BTreeMap::from([("ibsim.setup_ms".to_string(), median(&samples))])
    }

    fn rep(&mut self, tr: &mut Tracer) -> Rep {
        let mut rep = Rep::new();
        for leg in LEGS {
            let run = self.leg(tr, leg);
            record_leg(&mut rep, leg, &run);
        }
        rep
    }
}

/// Folds one engine leg into `rep` (also used by the `ibsim` rung).
pub fn record_leg(rep: &mut Rep, leg: &str, run: &LegRun) {
    rep.ops += run.expected;
    rep.fail_if(
        run.report.events_processed != run.expected,
        run.expected,
        || {
            format!(
                "sim_raw/{leg}: {} events processed, {} actions scheduled",
                run.report.events_processed, run.expected
            )
        },
    );
    rep.sim_ns += run.report.end_time.as_nanos();
    rep.digest.u64(run.report.end_time.as_nanos());
    rep.digest.u64(run.report.events_processed);
    rep.digest.u64(run.extra_digest);
    rep.count(&format!("actions.{leg}"), run.expected);
    rep.count("ibsim.events", run.report.events_processed);
    rep.host(&format!("leg.{leg}"), run.run_ns);
    rep.host("setup.ibsim", run.setup_ns);
}
