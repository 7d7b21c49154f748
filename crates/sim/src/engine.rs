//! The simulation kernel: event queue, scheduling context, and the
//! poll-loop executor that steps coroutine processes.
//!
//! Execution is single-threaded: [`Sim::run`] drains the `(time, seq)`
//! event queue on the caller's thread, running `Call` closures inline and
//! resuming processes by polling their state machines directly. A process
//! is a stackless coroutine (an `async` body compiled to a resumable state
//! machine by rustc), so "handing the baton" to any process — itself or a
//! peer — is one queue pop plus one `Future::poll` call: no channels, no
//! context switches, no OS threads. Virtual-time order is fully determined
//! by the `(time, seq)` event queue, so result bytes cannot depend on how
//! the poll loop interleaves the coroutines.

use crate::error::{DeadlockInfo, SimError};
use crate::event::{Entry, EventKind};
use crate::process::{ProcCtx, ProcId, ProcSlot, ProcStatus};
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};
use crate::waker::Waker;
use std::cell::{RefCell, RefMut};
use std::future::Future;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

/// Limits and knobs for a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Abort the run after this many processed events (livelock guard).
    pub max_events: u64,
    /// Abort the run if virtual time passes this horizon.
    pub max_time: SimTime,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_events: u64::MAX,
            max_time: SimTime::MAX,
        }
    }
}

/// Scheduler state shared by the poll loop, event closures, and processes.
pub(crate) struct Sched<W> {
    pub(crate) now: SimTime,
    seq: u64,
    queue: EventQueue<W>,
    pub(crate) procs: Vec<ProcSlot>,
    events_processed: u64,
}

impl<W> Sched<W> {
    fn push(&mut self, time: SimTime, kind: EventKind<W>) {
        debug_assert!(time >= self.now, "event scheduled in the past");
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry { time, seq, kind });
    }

    /// Pops and runs ready `Call` events inline, stopping at the first
    /// event that requires the executor: a process resume, an empty queue,
    /// or a configured limit.
    fn drain_calls(&mut self, world: &mut W, config: &SimConfig) -> KernelStep {
        loop {
            match self.queue.pop() {
                None => return KernelStep::QueueEmpty,
                Some(entry) => {
                    // Limits are checked *before* counting the event, so an
                    // `EventLimitExceeded` reports exactly the configured
                    // limit rather than limit + 1.
                    if self.events_processed >= config.max_events {
                        return KernelStep::EventLimit(self.events_processed, self.now);
                    }
                    if entry.time > config.max_time {
                        return KernelStep::TimeLimit(entry.time);
                    }
                    self.events_processed += 1;
                    self.now = entry.time;
                    match entry.kind {
                        EventKind::Call(f) => f(&mut Ctx { world, sched: self }),
                        EventKind::Resume(p) => {
                            let slot = &mut self.procs[p.0];
                            slot.resume_pending = false;
                            if matches!(slot.status, ProcStatus::Done) {
                                continue; // stale resume for a finished process
                            }
                            slot.status = ProcStatus::Running;
                            return KernelStep::Handoff(p);
                        }
                    }
                }
            }
        }
    }

    /// Schedule a `Resume` for `proc` at `time` unless one is already
    /// pending or the process is done.
    pub(crate) fn wake_at(&mut self, proc_id: ProcId, time: SimTime) {
        let slot = &mut self.procs[proc_id.0];
        if slot.resume_pending || matches!(slot.status, ProcStatus::Done) {
            return;
        }
        slot.resume_pending = true;
        self.push(time, EventKind::Resume(proc_id));
    }

    /// Clears any pending-resume marker for `proc` (used by
    /// [`ProcCtx::advance`], which must schedule its own wake even if a
    /// waker fired during the process's current slice).
    pub(crate) fn clear_resume_pending(&mut self, proc_id: ProcId) {
        self.procs[proc_id.0].resume_pending = false;
    }
}

/// What [`Sched::drain_calls`] stopped on; everything except `Handoff`
/// is a terminal condition the executor resolves into a run result.
enum KernelStep {
    Handoff(ProcId),
    QueueEmpty,
    EventLimit(u64, SimTime),
    TimeLimit(SimTime),
}

/// The full world + scheduler state behind one `RefCell`; borrowed briefly
/// by the poll loop to drain events and by processes inside `with` blocks,
/// never across a coroutine suspension point.
pub(crate) struct State<W> {
    pub(crate) world: W,
    pub(crate) sched: Sched<W>,
}

pub(crate) struct Shared<W> {
    pub(crate) state: RefCell<State<W>>,
    /// Run limits; read-only after construction.
    pub(crate) config: SimConfig,
}

impl<W> Shared<W> {
    pub(crate) fn lock(&self) -> RefMut<'_, State<W>> {
        self.state.borrow_mut()
    }
}

/// Mutable view handed to event closures and to process `with` blocks:
/// the world plus scheduling operations, pinned at the current instant.
pub struct Ctx<'a, W> {
    /// The user world (e.g. the InfiniBand fabric).
    pub world: &'a mut W,
    pub(crate) sched: &'a mut Sched<W>,
}

impl<W> Ctx<'_, W> {
    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Schedule `f` to run against the world at absolute time `time`
    /// (must not be in the past).
    pub fn schedule_at(&mut self, time: SimTime, f: impl FnOnce(&mut Ctx<'_, W>) + 'static) {
        self.sched.push(time, EventKind::Call(Box::new(f)));
    }

    /// Schedule `f` to run `delay` from now.
    pub fn schedule_after(
        &mut self,
        delay: SimDuration,
        f: impl FnOnce(&mut Ctx<'_, W>) + 'static,
    ) {
        let t = self.sched.now + delay;
        self.schedule_at(t, f);
    }

    /// Wake the process behind `waker` at the current instant.
    /// No-op if the process already finished or a wake is pending.
    pub fn wake(&mut self, waker: Waker) {
        let t = self.sched.now;
        self.sched.wake_at(waker.proc_id, t);
    }

    /// Drain and wake every waker in `wakers`.
    pub fn wake_all(&mut self, wakers: &mut Vec<Waker>) {
        for w in wakers.drain(..) {
            let t = self.sched.now;
            self.sched.wake_at(w.proc_id, t);
        }
    }
}

/// A report from a completed run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual time when the last event was processed.
    pub end_time: SimTime,
    /// Total events processed by the poll loop.
    pub events_processed: u64,
    /// Number of processes that ran to completion.
    pub procs_finished: usize,
    /// True when [`Sim::run_with_fence`] stopped at a quiesce fence
    /// instead of running every process to completion.
    pub stopped_at_fence: bool,
}

/// The scheduler counters a checkpoint must capture so a resumed run
/// replays the exact `(time, seq)` event order of the original.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimClock {
    /// Virtual time at the fence.
    pub now: SimTime,
    /// Next event sequence number the scheduler would assign.
    pub seq: u64,
    /// Events processed so far.
    pub events_processed: u64,
}

/// What a fence callback tells [`Sim::run_with_fence`] to do once the
/// world has drained to a quiesce fence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FenceAction {
    /// Release the fence: wake every parked process at the fence instant
    /// and keep running.
    Continue,
    /// Stop the run at the fence (checkpoint-and-exit). Parked coroutines
    /// are dropped with the simulation.
    Stop,
}

/// An open quiesce window: every live process, parked at a fence, in
/// process-id order. Only [`Sim::resume_world`] and [`Sim::abort_quiesce`]
/// close it. Dropped open, it would leave the whole world parked forever,
/// so its `Drop` panics — in every build, unless the thread is already
/// unwinding (a fence callback that panicked), where a second panic would
/// abort the process and bury the first one's message.
#[must_use = "a quiesce window is closed only by resume_world or abort_quiesce"]
struct Quiesce {
    procs: Vec<ProcId>,
}

impl Quiesce {
    /// Closes the window, handing back its processes.
    fn close(mut self) -> Vec<ProcId> {
        let procs = std::mem::take(&mut self.procs);
        std::mem::forget(self);
        procs
    }
}

impl Drop for Quiesce {
    #[expect(
        clippy::panic,
        reason = "drop-bomb: the one exit the type system cannot forbid is a guard dropped open, which would park the world forever"
    )]
    fn drop(&mut self) {
        if !std::thread::panicking() {
            panic!("quiesce window dropped without resume_world or abort_quiesce");
        }
    }
}

/// A process coroutine: the pinned state machine the executor polls.
type Task = Pin<Box<dyn Future<Output = ()>>>;

/// A deterministic discrete-event simulation over a world `W`.
///
/// See the [crate docs](crate) for the execution model.
pub struct Sim<W: 'static> {
    shared: Rc<Shared<W>>,
    /// One slot per process, indexed by `ProcId`. `None` while the task is
    /// checked out for polling or after it completed/panicked.
    tasks: Vec<Option<Task>>,
}

impl<W: 'static> Sim<W> {
    /// Creates a simulation owning `world`.
    pub fn new(world: W, config: SimConfig) -> Self {
        let start = SimClock {
            now: SimTime::ZERO,
            seq: 0,
            events_processed: 0,
        };
        Self::resume(world, config, start)
    }

    /// Rebuilds a simulation from a checkpointed world and the scheduler
    /// clock captured at the fence.
    ///
    /// The event queue starts empty: at a quiesce fence every in-flight
    /// event has drained, so the only state the scheduler carries across
    /// a snapshot is the `(now, seq, events_processed)` triple. Processes
    /// respawned afterwards consume sequence numbers starting at
    /// `clock.seq` — exactly the numbers the fence release would have
    /// assigned in the uninterrupted run, which is what makes a restored
    /// run byte-identical to one that never stopped.
    pub fn resume(world: W, config: SimConfig, clock: SimClock) -> Self {
        Sim {
            shared: Rc::new(Shared {
                state: RefCell::new(State {
                    world,
                    sched: Sched {
                        now: clock.now,
                        seq: clock.seq,
                        queue: EventQueue::new(),
                        procs: Vec::new(),
                        events_processed: clock.events_processed,
                    },
                }),
                config,
            }),
            tasks: Vec::new(),
        }
    }

    /// Runs `f` against the world before (or between) runs, e.g. for setup.
    pub fn with_world<R>(&self, f: impl FnOnce(&mut Ctx<'_, W>) -> R) -> R {
        let mut st = self.shared.lock();
        let State { world, sched } = &mut *st;
        f(&mut Ctx { world, sched })
    }

    /// Spawns a simulated process. `body` receives the process handle and
    /// returns its coroutine — an `async move` block whose suspension
    /// points ([`ProcCtx::park`], [`ProcCtx::advance`]) are where the
    /// executor interleaves it with other processes. It starts at virtual
    /// time zero (or at the instant `run` reaches its first resume).
    pub fn spawn<F, Fut>(&mut self, name: impl Into<String>, body: F) -> ProcId
    where
        F: FnOnce(ProcCtx<W>) -> Fut,
        Fut: Future<Output = ()> + 'static,
    {
        let name = name.into();
        let id = {
            let mut st = self.shared.lock();
            let id = ProcId(st.sched.procs.len());
            st.sched.procs.push(ProcSlot {
                name: name.clone(),
                status: ProcStatus::Parked,
                resume_pending: true,
                park_note: "not yet started",
            });
            let t = st.sched.now;
            st.sched.push(t, EventKind::Resume(id));
            id
        };
        let ctx = ProcCtx::new(id, name, Rc::clone(&self.shared));
        self.tasks.push(Some(Box::pin(body(ctx))));
        debug_assert_eq!(self.tasks.len(), self.shared.lock().sched.procs.len());
        id
    }

    /// Runs the event loop until every process finished and the queue is
    /// empty, or a limit/deadlock/panic stops it. All processes are
    /// stepped on the calling thread.
    pub fn run(&mut self) -> Result<RunReport, SimError> {
        self.run_loop(None::<(&str, fn(&mut W, SimClock) -> FenceAction)>)
    }

    /// Like [`Sim::run`], but recognises a *quiesce fence*: whenever the
    /// event queue drains and every live process is parked with
    /// `fence_note`, the world is fully quiescent — no packet, timer or
    /// wake is in flight anywhere — and `fence` is invoked against it
    /// with the scheduler clock. [`FenceAction::Continue`] releases the
    /// fence (every process is woken at the fence instant, in process-id
    /// order); [`FenceAction::Stop`] ends the run at the fence.
    ///
    /// A drained queue with a *mix* of fence and non-fence park notes is
    /// still a deadlock: some process is stuck for a reason the fence
    /// protocol does not explain.
    ///
    /// The fence check only runs in the queue-empty (i.e. end-of-run or
    /// fence) state, never per event.
    pub fn run_with_fence(
        &mut self,
        fence_note: &'static str,
        fence: impl FnMut(&mut W, SimClock) -> FenceAction,
    ) -> Result<RunReport, SimError> {
        self.run_loop(Some((fence_note, fence)))
    }

    /// The poll loop behind [`Sim::run`] (`fence` = `None`) and
    /// [`Sim::run_with_fence`]; `fence` is looked at only once the queue
    /// has drained. Generic over the callback so each caller gets its own
    /// copy, as when the loop was written out twice: measured on
    /// `sim_raw`, a shared `&mut dyn FnMut` copy ran 1–2% behind the
    /// parent and `#[inline(always)]` 10–16% behind; this form is level.
    fn run_loop<F>(&mut self, mut fence: Option<(&'static str, F)>) -> Result<RunReport, SimError>
    where
        F: FnMut(&mut W, SimClock) -> FenceAction,
    {
        let mut cx = Context::from_waker(std::task::Waker::noop());
        loop {
            let step = {
                let mut st = self.shared.lock();
                let State { world, sched } = &mut *st;
                sched.drain_calls(world, &self.shared.config)
            };
            match step {
                KernelStep::Handoff(p) => {
                    // The borrow is released: polling re-enters the state
                    // through `ProcCtx::with` from inside the coroutine.
                    let mut task = match self.tasks[p.0].take() {
                        Some(t) => t,
                        // A task can only be absent if a previous `run`
                        // errored out mid-poll; treat the stale resume
                        // like one for a finished process.
                        None => continue,
                    };
                    match catch_unwind(AssertUnwindSafe(|| task.as_mut().poll(&mut cx))) {
                        Ok(Poll::Pending) => self.tasks[p.0] = Some(task),
                        Ok(Poll::Ready(())) => {
                            self.shared.lock().sched.procs[p.0].status = ProcStatus::Done;
                        }
                        Err(payload) => {
                            return Err(SimError::ProcPanicked {
                                name: self.proc_name(p),
                                message: panic_message(&*payload),
                            });
                        }
                    }
                }
                KernelStep::QueueEmpty => {
                    if let Some((fence_note, fence)) = &mut fence {
                        let at_fence = {
                            let st = self.shared.lock();
                            let mut live = 0usize;
                            let mut fenced = 0usize;
                            for p in &st.sched.procs {
                                if !matches!(p.status, ProcStatus::Done) {
                                    live += 1;
                                    if p.park_note == *fence_note {
                                        fenced += 1;
                                    }
                                }
                            }
                            live > 0 && live == fenced
                        };
                        if at_fence {
                            let window = self.begin_quiesce();
                            let action = {
                                let mut st = self.shared.lock();
                                let State { world, sched } = &mut *st;
                                let clock = SimClock {
                                    now: sched.now,
                                    seq: sched.seq,
                                    events_processed: sched.events_processed,
                                };
                                fence(world, clock)
                            };
                            match action {
                                FenceAction::Continue => {
                                    self.resume_world(window);
                                    continue;
                                }
                                FenceAction::Stop => return Ok(self.abort_quiesce(window)),
                            }
                        }
                    }
                    let st = self.shared.lock();
                    let parked: Vec<(String, String)> = st
                        .sched
                        .procs
                        .iter()
                        .filter(|p| !matches!(p.status, ProcStatus::Done))
                        .map(|p| (p.name.clone(), p.park_note.to_string()))
                        .collect();
                    if parked.is_empty() {
                        return Ok(RunReport {
                            end_time: st.sched.now,
                            events_processed: st.sched.events_processed,
                            procs_finished: st.sched.procs.len(),
                            stopped_at_fence: false,
                        });
                    }
                    return Err(SimError::Deadlock(DeadlockInfo {
                        at: st.sched.now,
                        parked,
                    }));
                }
                KernelStep::EventLimit(events, at) => {
                    return Err(SimError::EventLimitExceeded { events, at });
                }
                KernelStep::TimeLimit(at) => return Err(SimError::TimeLimitExceeded { at }),
            }
        }
    }

    /// Opens a quiesce window at a fence: records every live (parked)
    /// process, in process-id order, in a [`Quiesce`] guard that only
    /// [`Sim::resume_world`] (release the fence) or [`Sim::abort_quiesce`]
    /// (end the run at it) consumes.
    fn begin_quiesce(&mut self) -> Quiesce {
        let st = self.shared.lock();
        let procs = st
            .sched
            .procs
            .iter()
            .enumerate()
            .filter(|(_, p)| !matches!(p.status, ProcStatus::Done))
            .map(|(i, p)| {
                debug_assert!(
                    matches!(p.status, ProcStatus::Parked) && !p.resume_pending,
                    "quiesce fence with a runnable process"
                );
                ProcId(i)
            })
            .collect();
        Quiesce { procs }
    }

    /// Releases a quiesce fence: wakes every recorded process at the
    /// fence instant, in process-id order. The wakes consume consecutive
    /// sequence numbers — the same numbers `spawn` would consume for the
    /// same processes in a restored run, so released and restored worlds
    /// replay identically.
    fn resume_world(&mut self, window: Quiesce) {
        let mut st = self.shared.lock();
        let now = st.sched.now;
        for p in window.close() {
            st.sched.wake_at(p, now);
        }
    }

    /// Ends the run at a quiesce fence (the checkpoint-and-exit path);
    /// the recorded processes stay parked and drop with the simulation.
    fn abort_quiesce(&mut self, window: Quiesce) -> RunReport {
        let procs = window.close();
        let st = self.shared.lock();
        debug_assert!(!procs.is_empty());
        RunReport {
            end_time: st.sched.now,
            events_processed: st.sched.events_processed,
            procs_finished: st.sched.procs.len() - procs.len(),
            stopped_at_fence: true,
        }
    }

    fn proc_name(&self, p: ProcId) -> String {
        self.shared
            .lock()
            .sched
            .procs
            .get(p.0)
            .map_or_else(|| "<kernel>".to_string(), |slot| slot.name.clone())
    }

    /// Consumes the simulation and returns the world (for post-run
    /// inspection of statistics).
    #[expect(
        clippy::panic,
        reason = "every process coroutine was just dropped, so the Rc must be unique; a leak here is unrecoverable"
    )]
    pub fn into_world(self) -> W {
        // Suspended coroutines hold `Rc` clones of the shared state;
        // dropping them (their destructors run right here, on this thread)
        // releases every outstanding reference.
        drop(self.tasks);
        Rc::try_unwrap(self.shared)
            .unwrap_or_else(|_| panic!("outstanding references to simulation state"))
            .state
            .into_inner()
            .world
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sim_finishes_immediately() {
        let mut sim: Sim<()> = Sim::new((), SimConfig::default());
        let report = sim.run().unwrap();
        assert_eq!(report.end_time, SimTime::ZERO);
        assert_eq!(report.procs_finished, 0);
    }

    #[test]
    fn scheduled_events_run_in_order() {
        let mut sim: Sim<Vec<u64>> = Sim::new(Vec::new(), SimConfig::default());
        sim.with_world(|ctx| {
            ctx.schedule_at(SimTime::from_nanos(20), |c| {
                c.world.push(c.now().as_nanos())
            });
            ctx.schedule_at(SimTime::from_nanos(10), |c| {
                c.world.push(c.now().as_nanos());
                // Nested scheduling from inside an event.
                c.schedule_after(SimDuration::nanos(5), |c2| {
                    c2.world.push(c2.now().as_nanos())
                });
            });
        });
        sim.run().unwrap();
        assert_eq!(sim.into_world(), vec![10, 15, 20]);
    }

    #[test]
    fn process_advances_time() {
        let mut sim: Sim<u64> = Sim::new(0, SimConfig::default());
        sim.spawn("p", |mut p| async move {
            p.advance(SimDuration::micros(1)).await;
            p.advance(SimDuration::micros(2)).await;
            p.with(|ctx| *ctx.world = ctx.now().as_nanos());
        });
        let report = sim.run().unwrap();
        assert_eq!(report.end_time.as_nanos(), 3_000);
        assert_eq!(sim.into_world(), 3_000);
    }

    #[test]
    fn two_processes_interleave_deterministically() {
        let mut sim: Sim<Vec<(usize, u64)>> = Sim::new(Vec::new(), SimConfig::default());
        for id in 0..2usize {
            sim.spawn(format!("p{id}"), move |mut p| async move {
                for step in 0..3u64 {
                    p.advance(SimDuration::nanos(10 + id as u64)).await;
                    p.with(|ctx| {
                        let t = ctx.now().as_nanos();
                        ctx.world.push((id, t));
                    });
                    let _ = step;
                }
            });
        }
        sim.run().unwrap();
        let trace = sim.into_world();
        // p0 ticks at 10,20,30; p1 at 11,22,33 — ordered by time.
        assert_eq!(
            trace,
            vec![(0, 10), (1, 11), (0, 20), (1, 22), (0, 30), (1, 33)]
        );
    }

    #[test]
    fn waker_roundtrip() {
        // World holds an optional waker plus a flag; one process parks on the
        // flag, an event sets it and wakes.
        struct W {
            flag: bool,
            waiter: Option<Waker>,
            observed_at: u64,
        }
        let mut sim: Sim<W> = Sim::new(
            W {
                flag: false,
                waiter: None,
                observed_at: 0,
            },
            SimConfig::default(),
        );
        sim.with_world(|ctx| {
            ctx.schedule_at(SimTime::from_nanos(500), |c| {
                c.world.flag = true;
                if let Some(w) = c.world.waiter.take() {
                    c.wake(w);
                }
            });
        });
        sim.spawn("waiter", |mut p| async move {
            let waker = p.waker();
            loop {
                let ready = p.with(|ctx| {
                    if ctx.world.flag {
                        true
                    } else {
                        ctx.world.waiter = Some(waker);
                        false
                    }
                });
                if ready {
                    break;
                }
                p.park("waiting for flag").await;
            }
            p.with(|ctx| ctx.world.observed_at = ctx.now().as_nanos());
        });
        sim.run().unwrap();
        assert_eq!(sim.into_world().observed_at, 500);
    }

    #[test]
    fn deadlock_is_detected_and_reported() {
        let mut sim: Sim<()> = Sim::new((), SimConfig::default());
        sim.spawn("stuck", |mut p| async move {
            p.park("waiting for a message that never comes").await;
        });
        match sim.run() {
            Err(SimError::Deadlock(info)) => {
                assert_eq!(info.parked.len(), 1);
                assert_eq!(info.parked[0].0, "stuck");
                assert!(info.parked[0].1.contains("never comes"));
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn process_panic_is_reported() {
        let mut sim: Sim<()> = Sim::new((), SimConfig::default());
        sim.spawn("bug", |_p| async move { panic!("intentional test panic") });
        match sim.run() {
            Err(SimError::ProcPanicked { name, message }) => {
                assert_eq!(name, "bug");
                assert!(message.contains("intentional"), "{message}");
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn event_limit_guards_livelock() {
        let mut sim: Sim<()> = Sim::new(
            (),
            SimConfig {
                max_events: 100,
                ..Default::default()
            },
        );
        // A self-perpetuating timer chain.
        sim.with_world(|ctx| {
            fn tick(c: &mut Ctx<'_, ()>) {
                c.schedule_after(SimDuration::nanos(1), tick);
            }
            ctx.schedule_at(SimTime::ZERO, tick);
        });
        match sim.run() {
            // The limit reports the configured ceiling, not ceiling + 1.
            Err(SimError::EventLimitExceeded { events, .. }) => assert_eq!(events, 100),
            other => panic!("expected event limit, got {other:?}"),
        }
    }

    #[test]
    fn time_limit_guards_runaway_clock() {
        let mut sim: Sim<()> = Sim::new(
            (),
            SimConfig {
                max_time: SimTime::from_nanos(50),
                ..Default::default()
            },
        );
        sim.spawn("slow", |mut p| async move {
            p.advance(SimDuration::nanos(200)).await;
        });
        assert!(matches!(sim.run(), Err(SimError::TimeLimitExceeded { .. })));
    }

    #[test]
    fn spawned_after_run_does_not_hang_into_world() {
        // `into_world` without `run` must drop suspended coroutines cleanly.
        let mut sim: Sim<u32> = Sim::new(7, SimConfig::default());
        sim.spawn("never-ran", |mut p| async move {
            p.advance(SimDuration::nanos(1)).await;
        });
        assert_eq!(sim.into_world(), 7);
    }

    #[test]
    fn into_world_without_run_drops_many_procs_cleanly() {
        // Same as above, but with enough processes that a leaked coroutine
        // would keep an `Rc` alive and fail the unwrap.
        let mut sim: Sim<u32> = Sim::new(3, SimConfig::default());
        for i in 0..8 {
            sim.spawn(format!("idle{i}"), |mut p| async move {
                p.advance(SimDuration::nanos(1)).await;
                p.park("never woken").await;
            });
        }
        assert_eq!(sim.into_world(), 3);
    }

    #[test]
    fn panic_while_holding_baton_mid_handoff_is_reported() {
        // "parked" yields first and the executor resumes "bomb", which
        // panics mid-step. The panic must surface as `ProcPanicked` with
        // the panicking process's name attached.
        let mut sim: Sim<()> = Sim::new((), SimConfig::default());
        sim.spawn(
            "parked",
            |mut p| async move { p.park("waiting forever").await },
        );
        sim.spawn("bomb", |mut p| async move {
            p.advance(SimDuration::nanos(1)).await;
            panic!("boom in direct handoff");
        });
        match sim.run() {
            Err(SimError::ProcPanicked { name, message }) => {
                assert_eq!(name, "bomb");
                assert!(message.contains("boom"), "{message}");
            }
            other => panic!("expected panic report, got {other:?}"),
        }
    }

    #[test]
    fn deadlock_reports_every_parked_process_with_note() {
        // When the *last runnable* process parks and the queue drains, the
        // deadlock report must cover all parked processes with the notes
        // they recorded themselves.
        let mut sim: Sim<()> = Sim::new((), SimConfig::default());
        sim.spawn(
            "alice",
            |mut p| async move { p.park("waiting for bob").await },
        );
        sim.spawn("bob", |mut p| async move {
            p.advance(SimDuration::nanos(5)).await;
            p.park("waiting for alice").await;
        });
        sim.spawn("carol", |mut p| async move {
            p.advance(SimDuration::nanos(9)).await;
            p.park("waiting for the fabric").await;
        });
        match sim.run() {
            Err(SimError::Deadlock(info)) => {
                assert_eq!(info.at, SimTime::from_nanos(9));
                assert_eq!(
                    info.parked,
                    vec![
                        ("alice".to_string(), "waiting for bob".to_string()),
                        ("bob".to_string(), "waiting for alice".to_string()),
                        ("carol".to_string(), "waiting for the fabric".to_string()),
                    ]
                );
            }
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn finishing_process_hands_baton_to_peer() {
        // "short" finishes while "long" still has work: the executor must
        // keep stepping "long" to completion.
        let mut sim: Sim<Vec<&'static str>> = Sim::new(Vec::new(), SimConfig::default());
        sim.spawn("short", |mut p| async move {
            p.advance(SimDuration::nanos(1)).await;
            p.with(|ctx| ctx.world.push("short"));
        });
        sim.spawn("long", |mut p| async move {
            p.advance(SimDuration::nanos(2)).await;
            p.advance(SimDuration::nanos(10)).await;
            p.with(|ctx| ctx.world.push("long"));
        });
        let report = sim.run().unwrap();
        assert_eq!(report.end_time.as_nanos(), 12);
        assert_eq!(report.procs_finished, 2);
        assert_eq!(sim.into_world(), vec!["short", "long"]);
    }

    #[test]
    fn many_processes_complete() {
        let mut sim: Sim<u64> = Sim::new(0, SimConfig::default());
        for i in 0..32u64 {
            sim.spawn(format!("p{i}"), move |mut p| async move {
                p.advance(SimDuration::nanos(i + 1)).await;
                p.with(|ctx| *ctx.world += 1);
            });
        }
        let report = sim.run().unwrap();
        assert_eq!(report.procs_finished, 32);
        assert_eq!(sim.into_world(), 32);
    }

    const FENCE: &str = "ckpt fence";

    /// World for the fence tests: a release epoch the fence callback
    /// bumps, plus an op trace for byte-identity comparisons.
    #[derive(Clone, Default, PartialEq, Debug)]
    struct FenceWorld {
        released: u64,
        trace: Vec<(usize, u64, u64)>, // (proc, round, time)
    }

    fn spawn_fence_procs(sim: &mut Sim<FenceWorld>, start_round: u64) {
        for id in 0..3usize {
            sim.spawn(format!("p{id}"), move |mut p| async move {
                for round in start_round..3 {
                    p.advance(SimDuration::nanos(10 + id as u64 * round)).await;
                    p.with(|c| {
                        let t = c.now().as_nanos();
                        c.world.trace.push((id, round, t));
                    });
                    let epoch = round + 1;
                    while p.with(|c| c.world.released < epoch) {
                        p.park(FENCE).await;
                    }
                }
            });
        }
    }

    #[test]
    fn fence_fires_once_per_epoch_and_releases_the_world() {
        let mut sim: Sim<FenceWorld> = Sim::new(FenceWorld::default(), SimConfig::default());
        spawn_fence_procs(&mut sim, 0);
        let mut fence_clocks = Vec::new();
        let report = sim
            .run_with_fence(FENCE, |w, clock| {
                w.released += 1;
                fence_clocks.push(clock);
                FenceAction::Continue
            })
            .unwrap();
        assert!(!report.stopped_at_fence);
        assert_eq!(report.procs_finished, 3);
        assert_eq!(fence_clocks.len(), 3, "one fence per round");
        let w = sim.into_world();
        assert_eq!(w.trace.len(), 9);
        // Clocks are strictly increasing across fences.
        assert!(fence_clocks.windows(2).all(|p| p[0].now < p[1].now));
    }

    #[test]
    fn fence_stop_ends_the_run_at_the_fence() {
        let mut sim: Sim<FenceWorld> = Sim::new(FenceWorld::default(), SimConfig::default());
        spawn_fence_procs(&mut sim, 0);
        let mut stop_clock = None;
        let report = sim
            .run_with_fence(FENCE, |w, clock| {
                if w.released == 1 {
                    stop_clock = Some(clock);
                    return FenceAction::Stop;
                }
                w.released += 1;
                FenceAction::Continue
            })
            .unwrap();
        assert!(report.stopped_at_fence);
        assert_eq!(report.procs_finished, 0, "everyone is parked at the fence");
        let clock = stop_clock.unwrap();
        assert_eq!(report.end_time, clock.now);
        // The stop fires at the second fence: rounds 0 and 1 ran.
        assert_eq!(sim.into_world().trace.len(), 6);
    }

    #[test]
    #[should_panic(expected = "quiesce window dropped without resume_world or abort_quiesce")]
    fn a_quiesce_window_dropped_open_panics() {
        let mut sim: Sim<FenceWorld> = Sim::new(FenceWorld::default(), SimConfig::default());
        drop(sim.begin_quiesce());
    }

    #[test]
    fn a_panicking_fence_callback_surfaces_its_own_message() {
        let mut sim: Sim<FenceWorld> = Sim::new(FenceWorld::default(), SimConfig::default());
        spawn_fence_procs(&mut sim, 0);
        // The window is open while the callback runs; its guard drops
        // during the unwind and must not panic a second time, which would
        // abort the process instead of reporting this message.
        let payload = catch_unwind(AssertUnwindSafe(|| {
            sim.run_with_fence(FENCE, |_, _| panic!("fence callback failed"))
        }))
        .unwrap_err();
        assert_eq!(panic_message(&*payload), "fence callback failed");
    }

    #[test]
    fn resumed_run_is_identical_to_uninterrupted_run() {
        // Uninterrupted run: all three rounds with fences released.
        let mut golden: Sim<FenceWorld> = Sim::new(FenceWorld::default(), SimConfig::default());
        spawn_fence_procs(&mut golden, 0);
        let golden_report = golden
            .run_with_fence(FENCE, |w, _| {
                w.released += 1;
                FenceAction::Continue
            })
            .unwrap();
        let golden_world = golden.into_world();

        // Checkpoint run: stop at the second fence (after round 1).
        let mut first: Sim<FenceWorld> = Sim::new(FenceWorld::default(), SimConfig::default());
        spawn_fence_procs(&mut first, 0);
        let mut snap = None;
        first
            .run_with_fence(FENCE, |w, clock| {
                if w.released == 1 {
                    snap = Some((w.clone(), clock));
                    return FenceAction::Stop;
                }
                w.released += 1;
                FenceAction::Continue
            })
            .unwrap();
        let (mut world, clock) = snap.unwrap();

        // Restore: the world resumes exactly where the snapshot was taken;
        // respawned bodies fast-forward past the completed rounds. The
        // release the stopped fence never performed happens on the first
        // fence of the resumed run (same epoch, same instant).
        world.released += 1;
        let mut resumed = Sim::resume(world, SimConfig::default(), clock);
        spawn_fence_procs(&mut resumed, 2);
        let resumed_report = resumed
            .run_with_fence(FENCE, |w, _| {
                w.released += 1;
                FenceAction::Continue
            })
            .unwrap();
        let resumed_world = resumed.into_world();

        assert_eq!(resumed_world.trace, golden_world.trace);
        assert_eq!(resumed_report.end_time, golden_report.end_time);
        assert_eq!(
            resumed_report.events_processed,
            golden_report.events_processed
        );
    }

    #[test]
    fn mixed_park_notes_still_deadlock_under_a_fence_run() {
        let mut sim: Sim<()> = Sim::new((), SimConfig::default());
        sim.spawn("fenced", |mut p| async move { p.park(FENCE).await });
        sim.spawn("stuck", |mut p| async move {
            p.park("waiting for a message that never comes").await
        });
        match sim.run_with_fence(FENCE, |_, _| FenceAction::Continue) {
            Err(SimError::Deadlock(info)) => assert_eq!(info.parked.len(), 2),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn fence_run_without_fences_matches_plain_run() {
        let mut sim: Sim<u64> = Sim::new(0, SimConfig::default());
        sim.spawn("p", |mut p| async move {
            p.advance(SimDuration::micros(1)).await;
            p.with(|ctx| *ctx.world = ctx.now().as_nanos());
        });
        let report = sim
            .run_with_fence(FENCE, |_, _| FenceAction::Continue)
            .unwrap();
        assert!(!report.stopped_at_fence);
        assert_eq!(report.end_time.as_nanos(), 1_000);
        assert_eq!(sim.into_world(), 1_000);
    }

    #[test]
    fn hundreds_of_ranks_on_one_thread() {
        // The point of the coroutine runtime: a wide world needs no OS
        // threads at all. Every process records the thread it ran on; all
        // must equal the thread driving `run`.
        let runner = std::thread::current().id();
        let mut sim: Sim<(u64, bool)> = Sim::new((0, true), SimConfig::default());
        for i in 0..256u64 {
            sim.spawn(format!("p{i}"), move |mut p| async move {
                p.advance(SimDuration::nanos(i % 7 + 1)).await;
                let same = std::thread::current().id() == runner;
                p.with(|ctx| {
                    ctx.world.0 += 1;
                    ctx.world.1 &= same;
                });
            });
        }
        let report = sim.run().unwrap();
        assert_eq!(report.procs_finished, 256);
        let (count, all_on_runner) = sim.into_world();
        assert_eq!(count, 256);
        assert!(all_on_runner, "a coroutine ran off the executor thread");
    }
}
