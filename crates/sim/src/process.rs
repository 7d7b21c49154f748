//! Simulated processes: resumable state machines stepped by the poll loop.
//!
//! A process body is an `async` block — rustc compiles it into a stackless
//! coroutine whose suspension points are exactly the [`ProcCtx::park`] and
//! [`ProcCtx::advance`] awaits. Parking is therefore just "return
//! `Pending` after recording a note", and resuming is one `poll` call from
//! the executor ([`crate::Sim::run`]): no threads, no channels, no context
//! switches, for self-resume and cross-process handoff alike.

use crate::engine::{Ctx, Shared, State};
use crate::time::{SimDuration, SimTime};
use crate::waker::Waker;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::task::{Context, Poll};

/// Identifier of a simulated process (dense index, spawn order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub(crate) usize);

impl ProcId {
    /// Dense index of this process (spawn order).
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug)]
pub(crate) enum ProcStatus {
    Running,
    Parked,
    Done,
}

pub(crate) struct ProcSlot {
    pub name: String,
    pub status: ProcStatus,
    pub resume_pending: bool,
    /// Last park note; `&'static str` so the park hot path allocates
    /// nothing (deadlock diagnostics copy it into `String`s on failure).
    pub park_note: &'static str,
}

/// Handle a process body uses to interact with the simulation.
///
/// All world access goes through [`ProcCtx::with`]; time passes only through
/// [`ProcCtx::advance`] or by suspending in [`ProcCtx::park`] until a
/// [`Waker`] fires.
pub struct ProcCtx<W: 'static> {
    id: ProcId,
    name: String,
    shared: Rc<Shared<W>>,
    local_now: SimTime,
}

impl<W: 'static> ProcCtx<W> {
    pub(crate) fn new(id: ProcId, name: String, shared: Rc<Shared<W>>) -> Self {
        // A process spawned mid-run starts at the instant of its spawn;
        // its first resume event carries the same timestamp.
        let local_now = shared.lock().sched.now;
        ProcCtx {
            id,
            name,
            shared,
            local_now,
        }
    }

    /// This process's identifier.
    #[inline]
    pub fn id(&self) -> ProcId {
        self.id
    }

    /// The name given at spawn time.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Current virtual time (equals the global clock whenever this process
    /// is running).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.local_now
    }

    /// A wake token other code (typically stored in the world) can use to
    /// unpark this process.
    #[inline]
    pub fn waker(&self) -> Waker {
        Waker { proc_id: self.id }
    }

    /// Runs `f` with exclusive access to the world and scheduler.
    /// The closure runs at the current instant and consumes no virtual time.
    pub fn with<R>(&self, f: impl FnOnce(&mut Ctx<'_, W>) -> R) -> R {
        let mut st = self.shared.lock();
        let State { world, sched } = &mut *st;
        debug_assert_eq!(
            sched.now, self.local_now,
            "process clock diverged from global clock"
        );
        f(&mut Ctx { world, sched })
    }

    /// Suspends until some [`Waker`] for this process fires. `note` is
    /// shown in deadlock diagnostics; it is a `&'static str` so parking
    /// performs no allocation (this is the hottest handoff path in the
    /// simulator). Wakes may be spurious; callers re-check their condition
    /// in a loop.
    pub fn park(&mut self, note: &'static str) -> impl Future<Output = ()> + '_ {
        Park {
            proc: self,
            note,
            yielded: false,
        }
    }

    /// Lets `dt` of virtual time pass for this process (models compute or
    /// software overhead). Other processes and fabric events run in the
    /// meantime. Whether the next resume is this process again (self-resume)
    /// or a peer, the cost is identical: one queue push/pop and one poll.
    pub fn advance(&mut self, dt: SimDuration) -> impl Future<Output = ()> + '_ {
        Advance {
            proc: self,
            dt,
            wake_at: None,
        }
    }
}

/// Future behind [`ProcCtx::park`]: first poll records the park note and
/// suspends; the next poll (the executor dispatched a `Resume` event for
/// this process) syncs the local clock and completes.
struct Park<'a, W: 'static> {
    proc: &'a mut ProcCtx<W>,
    note: &'static str,
    yielded: bool,
}

impl<W> Future for Park<'_, W> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        if !this.yielded {
            this.yielded = true;
            let mut st = this.proc.shared.lock();
            let slot = &mut st.sched.procs[this.proc.id.0];
            slot.status = ProcStatus::Parked;
            slot.park_note = this.note;
            Poll::Pending
        } else {
            let st = this.proc.shared.lock();
            this.proc.local_now = st.sched.now;
            Poll::Ready(())
        }
    }
}

/// Future behind [`ProcCtx::advance`]: the first poll schedules this
/// process's own wake at `now + dt` and suspends; later polls complete once
/// the clock reached the wake time, re-parking on spurious early resumes
/// (a waker that fired during the process's last slice).
struct Advance<'a, W: 'static> {
    proc: &'a mut ProcCtx<W>,
    dt: SimDuration,
    wake_at: Option<SimTime>,
}

impl<W> Future for Advance<'_, W> {
    type Output = ();

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<()> {
        let this = self.get_mut();
        match this.wake_at {
            None => {
                if this.dt == SimDuration::ZERO {
                    return Poll::Ready(());
                }
                // We are running, so `local_now` equals the global clock
                // (the same invariant `with` debug-asserts).
                let wake_at = this.proc.local_now + this.dt;
                this.wake_at = Some(wake_at);
                let mut st = this.proc.shared.lock();
                // No resume of ours can be pending while we run — except a
                // waker that fired during this slice; clearing the marker
                // lets `wake_at` schedule unconditionally, and the stale
                // early resume (if any) is absorbed by the re-park arm
                // below.
                st.sched.clear_resume_pending(this.proc.id);
                st.sched.wake_at(this.proc.id, wake_at);
                let slot = &mut st.sched.procs[this.proc.id.0];
                slot.status = ProcStatus::Parked;
                slot.park_note = "advancing clock";
                Poll::Pending
            }
            Some(wake_at) => {
                let mut st = this.proc.shared.lock();
                let now = st.sched.now;
                if now < wake_at {
                    // Spurious early wake (a stale resume sorted first):
                    // re-park; our own scheduled resume is still queued.
                    let slot = &mut st.sched.procs[this.proc.id.0];
                    slot.status = ProcStatus::Parked;
                    slot.park_note = "advancing clock";
                    Poll::Pending
                } else {
                    drop(st);
                    this.proc.local_now = now;
                    Poll::Ready(())
                }
            }
        }
    }
}
