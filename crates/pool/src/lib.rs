//! `ibpool` — a scoped worker-pool batch runner for the experiment battery.
//!
//! The reproduction pipeline is a bag of *independent, deterministic*
//! simulations (every figure row is its own [`Sim`](../ibsim) world), so the
//! battery parallelizes trivially: run the jobs on a few OS threads and
//! reassemble the results **in submission order**. Because each job is a
//! closed virtual-time computation, the output bytes are identical at any
//! worker count — parallelism changes only wall-clock time.
//!
//! The pool is hermetic (no rayon/crossbeam): plain `std::thread::scope`
//! workers pulling job indices off an atomic counter. Jobs may borrow from
//! the caller's stack (the scope outlives them), results come back in the
//! order the jobs were submitted, and the first panicking job (lowest
//! submission index among observed panics) is re-raised on the caller with
//! its job label attached.
//!
//! Worker count: `IBFLOW_JOBS=<n>` forces exactly `n` workers (an explicit
//! request may oversubscribe the host); when unset or unparsable the pool
//! uses [`std::thread::available_parallelism`]. A batch never spawns more
//! workers than it has jobs, and a single-worker batch runs inline on the
//! caller's thread (no spawn at all).

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![expect(
    clippy::disallowed_methods,
    reason = "the one crate that owns OS threads and their locks; no simulated process runs on this side of a job boundary"
)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker count.
pub const JOBS_ENV: &str = "IBFLOW_JOBS";

/// One labelled unit of work; build with [`job`].
pub struct Job<'scope, T> {
    label: String,
    run: Box<dyn FnOnce() -> T + Send + 'scope>,
}

/// Wraps a closure and a diagnostic label into a [`Job`]. The label is
/// reported if the job panics (`pool job '<label>' panicked: ...`).
pub fn job<'scope, T>(
    label: impl Into<String>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> Job<'scope, T> {
    Job {
        label: label.into(),
        run: Box::new(f),
    }
}

/// The worker count [`run_batch`] will use: `IBFLOW_JOBS` if set to a
/// positive integer, otherwise the host's available parallelism.
pub fn worker_count() -> usize {
    match std::env::var(JOBS_ENV) {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => default_workers(),
        },
        Err(_) => default_workers(),
    }
}

fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `jobs` across [`worker_count`] threads; see [`run_batch_with`].
pub fn run_batch<T: Send>(jobs: Vec<Job<'_, T>>) -> Vec<T> {
    let workers = worker_count();
    run_batch_with(jobs, workers)
}

/// Runs `jobs` across at most `workers` threads and returns the results in
/// submission-index order.
///
/// If any job panics, the batch stops handing out new jobs, already-running
/// jobs finish, and the panic of the lowest-indexed failed job is re-raised
/// here with its label. With `workers <= 1` (or a single job) everything
/// runs inline on the caller's thread in submission order.
pub fn run_batch_with<T: Send>(jobs: Vec<Job<'_, T>>, workers: usize) -> Vec<T> {
    let n = jobs.len();
    let workers = workers.min(n);
    if workers <= 1 {
        return jobs
            .into_iter()
            .map(|j| {
                let label = j.label;
                match catch_unwind(AssertUnwindSafe(j.run)) {
                    Ok(v) => v,
                    Err(payload) => panic!("pool job '{label}' panicked: {}", message(&*payload)),
                }
            })
            .collect();
    }

    // Each slot is claimed by exactly one worker (the atomic counter hands
    // out each index once), so the per-slot mutexes are never contended;
    // they exist only to satisfy the borrow checker without `unsafe`.
    let pending: Vec<Mutex<Option<Job<'_, T>>>> =
        jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    // Lowest-submission-index panic wins, so the re-raised error does not
    // depend on worker interleaving when several jobs fail.
    let first_panic: Mutex<Option<(usize, String, String)>> = Mutex::new(None);

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n || failed.load(Ordering::Relaxed) {
                    break;
                }
                let Job { label, run } = pending[i]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("job slot claimed twice");
                match catch_unwind(AssertUnwindSafe(run)) {
                    Ok(v) => {
                        *results[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(v);
                    }
                    Err(payload) => {
                        failed.store(true, Ordering::Relaxed);
                        let mut slot = first_panic.lock().unwrap_or_else(|e| e.into_inner());
                        if slot.as_ref().is_none_or(|(j, _, _)| i < *j) {
                            *slot = Some((i, label, message(&*payload)));
                        }
                    }
                }
            });
        }
    });

    if let Some((_, label, msg)) = first_panic.into_inner().unwrap_or_else(|e| e.into_inner()) {
        panic!("pool job '{label}' panicked: {msg}");
    }
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("job finished without result or panic")
        })
        .collect()
}

fn message(payload: &(dyn std::any::Any + Send)) -> String {
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
    use std::time::Duration;

    #[test]
    fn preserves_submission_order() {
        // Later-submitted jobs finish first (reverse-staggered sleeps), but
        // results still come back in submission order.
        let jobs: Vec<Job<'_, usize>> = (0..16)
            .map(|i| {
                job(format!("j{i}"), move || {
                    std::thread::sleep(Duration::from_millis((16 - i) as u64));
                    i
                })
            })
            .collect();
        let out = run_batch_with(jobs, 8);
        assert_eq!(out, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn borrows_from_caller_stack() {
        let base = [10usize, 20, 30];
        let jobs: Vec<Job<'_, usize>> = base.iter().map(|v| job("borrow", move || v + 1)).collect();
        assert_eq!(run_batch_with(jobs, 2), vec![11, 21, 31]);
    }

    #[test]
    fn jobs_eq_one_runs_inline() {
        let here = std::thread::current().id();
        let jobs = vec![
            job("a", move || std::thread::current().id() == here),
            job("b", move || std::thread::current().id() == here),
        ];
        assert_eq!(run_batch_with(jobs, 1), vec![true, true]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let out: Vec<u8> = run_batch_with(Vec::new(), 4);
        assert!(out.is_empty());
    }

    #[test]
    fn panic_carries_job_label_parallel() {
        let jobs = vec![
            job("fine", || 1u32),
            job("boom", || panic!("intentional pool test panic")),
            job("also-fine", || 3u32),
        ];
        let err = catch_unwind(AssertUnwindSafe(|| run_batch_with(jobs, 3))).unwrap_err();
        let msg = message(&*err);
        assert!(msg.contains("pool job 'boom' panicked"), "{msg}");
        assert!(msg.contains("intentional pool test panic"), "{msg}");
    }

    #[test]
    fn panic_carries_job_label_inline() {
        let jobs = vec![job("solo", || -> u32 { panic!("inline failure") })];
        let err = catch_unwind(AssertUnwindSafe(|| run_batch_with(jobs, 1))).unwrap_err();
        let msg = message(&*err);
        assert!(msg.contains("pool job 'solo' panicked"), "{msg}");
        assert!(msg.contains("inline failure"), "{msg}");
    }

    #[test]
    fn lowest_index_panic_wins() {
        // Both jobs panic; job 0 sleeps so job 1's panic lands first in
        // wall time, yet the reported label must still be job 0's.
        let jobs: Vec<Job<'_, ()>> = vec![
            job("first", || {
                std::thread::sleep(Duration::from_millis(30));
                panic!("first boom");
            }),
            job("second", || panic!("second boom")),
        ];
        let err = catch_unwind(AssertUnwindSafe(|| run_batch_with(jobs, 2))).unwrap_err();
        let msg = message(&*err);
        assert!(msg.contains("'first'"), "{msg}");
    }

    #[test]
    fn worker_count_floor_is_one() {
        let jobs = vec![job("z", || 9u8)];
        assert_eq!(run_batch_with(jobs, 0), vec![9]);
    }
}
