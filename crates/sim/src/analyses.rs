//! Every exit from a quiesce window, walked through the public fence API.
//! At each fence `run_with_fence` opens a window (a `Quiesce` guard) and
//! must close it on the way out — released on `Continue`, ended on
//! `Stop`. A guard dropped open panics with "quiesce window dropped
//! without resume_world or abort_quiesce", so a path that forgot to close
//! its window fails these runs instead of parking the world forever.

mod tests {
    use crate::{FenceAction, ProcCtx, Sim, SimConfig, SimDuration};

    const FENCE: &str = "quiesce fence";
    const ROUNDS: u64 = 2;

    /// A release epoch the fence callback bumps, and every `(process,
    /// instant)` at which a fenced process woke past a fence.
    #[derive(Default)]
    struct World {
        released: u64,
        woke: Vec<(usize, u64)>,
    }

    /// `fenced` processes that each run `ROUNDS` rounds ending at a fence,
    /// plus `finishers` that end before the first fence.
    fn world(fenced: usize, finishers: usize) -> Sim<World> {
        let mut sim = Sim::new(World::default(), SimConfig::default());
        for id in 0..fenced {
            sim.spawn(
                format!("fenced{id}"),
                move |mut p: ProcCtx<World>| async move {
                    for epoch in 1..=ROUNDS {
                        p.advance(SimDuration::nanos(id as u64 + 1)).await;
                        while p.with(|c| c.world.released < epoch) {
                            p.park(FENCE).await;
                        }
                        p.with(|c| {
                            let t = c.now().as_nanos();
                            c.world.woke.push((id, t));
                        });
                    }
                },
            );
        }
        for id in 0..finishers {
            sim.spawn(
                format!("finisher{id}"),
                |mut p: ProcCtx<World>| async move {
                    p.advance(SimDuration::nanos(1)).await;
                },
            );
        }
        sim
    }

    #[test]
    fn quiesce_released_is_clean() {
        let mut sim = world(3, 0);
        let mut fences = Vec::new();
        let report = sim
            .run_with_fence(FENCE, |w, clock| {
                w.released += 1;
                fences.push(clock.now.as_nanos());
                FenceAction::Continue
            })
            .unwrap();
        assert!(!report.stopped_at_fence);
        assert_eq!(report.procs_finished, 3);
        assert_eq!(fences.len(), ROUNDS as usize, "one window per round");
        // Each release wakes every recorded process at the fence instant,
        // in process-id order.
        let expected: Vec<(usize, u64)> = fences
            .iter()
            .flat_map(|&t| (0..3).map(move |id| (id, t)))
            .collect();
        assert_eq!(sim.into_world().woke, expected);
    }

    #[test]
    fn quiesce_aborted_is_clean() {
        let mut sim = world(2, 1);
        let mut stopped_at = None;
        let report = sim
            .run_with_fence(FENCE, |_, clock| {
                stopped_at = Some(clock.now);
                FenceAction::Stop
            })
            .unwrap();
        assert!(report.stopped_at_fence);
        assert_eq!(report.procs_finished, 1, "only the finisher is done");
        assert_eq!(Some(report.end_time), stopped_at);
        // The parked processes stay parked and drop with the simulation.
        assert!(sim.into_world().woke.is_empty());
    }

    #[test]
    fn quiesce_branch_where_both_arms_close_is_clean() {
        // Stop at fence `stop_at`, releasing every fence before it; at
        // `ROUNDS` no fence stops and the run ends on its own.
        for stop_at in 0..=ROUNDS {
            let mut sim = world(3, 0);
            let mut seen = 0;
            let report = sim
                .run_with_fence(FENCE, |w, _| {
                    seen += 1;
                    if seen > stop_at {
                        return FenceAction::Stop;
                    }
                    w.released += 1;
                    FenceAction::Continue
                })
                .unwrap();
            assert_eq!(
                report.stopped_at_fence,
                stop_at < ROUNDS,
                "stop_at={stop_at}"
            );
            assert_eq!(seen, (stop_at + 1).min(ROUNDS), "stop_at={stop_at}");
            let released = usize::try_from(stop_at).unwrap();
            assert_eq!(
                sim.into_world().woke.len(),
                3 * released,
                "stop_at={stop_at}"
            );
        }
    }
}
