//! A std-only scoped thread pool with work stealing.
//!
//! Jobs are identified by index (`0..jobs`). Each worker owns a deque
//! seeded round-robin; it pops its own work from the front and, when
//! empty, steals from the *back* of a sibling's deque — the classic
//! Chase–Lev discipline (here with plain mutexed deques, which is fine
//! because simulation jobs are coarse: milliseconds to seconds each,
//! so queue contention is negligible).
//!
//! Results return as a `Vec` indexed by job — callers never observe
//! completion order, which is the first half of the runner's
//! determinism story (the second half is grid-order aggregation).
//!
//! [`execute_with_progress`] additionally exposes which worker ran each
//! job ([`WorkerCtx`]) and keeps a caller-owned [`PoolProgress`] updated
//! live (completed-job and per-worker steal counts), which is what the
//! runner's heartbeat reads while a sweep is in flight.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Locks a queue even if a sibling worker died while holding it — the
/// protected data (a deque of job indices) has no invariant a panic
/// could break, so poisoning is noise here, not a safety signal.
fn lock_queue(queue: &Mutex<VecDeque<usize>>) -> std::sync::MutexGuard<'_, VecDeque<usize>> {
    queue.lock().unwrap_or_else(|e| e.into_inner())
}

/// The identity of the worker executing a job.
#[derive(Debug, Clone, Copy)]
pub struct WorkerCtx {
    /// Worker index, `0..workers`. Worker 0 is the caller's thread when
    /// the pool runs inline (one thread or at most one job).
    pub worker: usize,
}

/// Live progress shared between the pool and an observer (heartbeat)
/// thread. Purely observational: nothing in here influences job order
/// or results.
#[derive(Debug)]
pub struct PoolProgress {
    /// Jobs completed so far.
    pub completed: AtomicUsize,
    /// Per-worker count of jobs obtained by stealing from a sibling.
    pub steals: Vec<AtomicU64>,
}

impl PoolProgress {
    /// Progress tracker for `workers` workers (see [`workers_for`]).
    pub fn new(workers: usize) -> Self {
        PoolProgress {
            completed: AtomicUsize::new(0),
            steals: (0..workers.max(1)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Total steals across all workers.
    pub fn total_steals(&self) -> u64 {
        self.steals.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    /// Per-worker steal counts as a plain vector.
    pub fn steal_counts(&self) -> Vec<u64> {
        self.steals
            .iter()
            .map(|s| s.load(Ordering::Relaxed))
            .collect()
    }
}

/// How many workers `execute` actually spawns for a given request.
pub fn workers_for(threads: usize, jobs: usize) -> usize {
    threads.min(jobs).max(1)
}

/// Runs `jobs` closures on `threads` workers and returns their results
/// indexed by job number.
///
/// `threads == 1` (or a single job) runs inline on the caller's thread
/// with no spawning at all. Panics in a job propagate to the caller.
///
/// # Examples
///
/// ```
/// use rfd_runner::pool::execute;
///
/// let squares = execute(4, 10, |i| i * i);
/// assert_eq!(squares[7], 49);
/// ```
pub fn execute<T, F>(threads: usize, jobs: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    execute_with_progress(threads, jobs, None, |_ctx, job| run(job))
}

/// Like [`execute`], but hands each job its [`WorkerCtx`] and, when
/// `progress` is given, updates it live as jobs finish.
///
/// Each job runs inside `catch_unwind`: a panicking job never kills its
/// worker, never poisons a sibling's deque, and never strands queued
/// jobs — **every** job executes, and only after all workers have
/// drained does the pool re-raise the panic of the lowest-indexed
/// failed job (deterministic regardless of completion order). Callers
/// that must survive job panics wrap jobs in their own supervision
/// (see `supervisor`); bare closures keep panic-propagation semantics.
///
/// # Panics
///
/// Panics if `threads` is zero, if `progress` was sized for fewer
/// workers than [`workers_for`] resolves to, or (after all jobs have
/// run) if a job panicked.
pub fn execute_with_progress<T, F>(
    threads: usize,
    jobs: usize,
    progress: Option<&PoolProgress>,
    run: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(WorkerCtx, usize) -> T + Sync,
{
    assert!(threads > 0, "pool needs at least one thread");
    if let Some(progress) = progress {
        assert!(
            progress.steals.len() >= workers_for(threads, jobs),
            "PoolProgress sized for {} workers, pool resolves to {}",
            progress.steals.len(),
            workers_for(threads, jobs)
        );
    }
    let complete_one = || {
        if let Some(progress) = progress {
            progress.completed.fetch_add(1, Ordering::Relaxed);
        }
    };
    let run_caught = |ctx: WorkerCtx, j: usize| -> std::thread::Result<T> {
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| run(ctx, j)));
        complete_one();
        outcome
    };
    if threads == 1 || jobs <= 1 {
        let ctx = WorkerCtx { worker: 0 };
        return resolve((0..jobs).map(|j| Some(run_caught(ctx, j))).collect());
    }
    let workers = workers_for(threads, jobs);

    // Round-robin initial distribution: worker w gets jobs w, w+n, w+2n…
    // With grid-ordered jobs this spreads each series across workers.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| Mutex::new((w..jobs).step_by(workers).collect()))
        .collect();

    let mut results: Vec<Option<std::thread::Result<T>>> = (0..jobs).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for me in 0..workers {
            let queues = &queues;
            let run_caught = &run_caught;
            handles.push(scope.spawn(move || {
                let ctx = WorkerCtx { worker: me };
                let mut done: Vec<(usize, std::thread::Result<T>)> = Vec::new();
                loop {
                    // Own work first (front), then steal (back). The own
                    // queue's lock is released before a victim's is
                    // taken: two idle workers each holding their own
                    // and wanting the other's would deadlock.
                    let mut stolen = false;
                    let own = lock_queue(&queues[me]).pop_front();
                    let job = own.or_else(|| {
                        (1..workers)
                            .map(|k| (me + k) % workers)
                            .find_map(|v| lock_queue(&queues[v]).pop_back())
                            .inspect(|_| stolen = true)
                    });
                    match job {
                        Some(j) => {
                            if stolen {
                                rfd_obs::inc("runner.steals");
                                if let Some(progress) = progress {
                                    progress.steals[me].fetch_add(1, Ordering::Relaxed);
                                }
                            }
                            done.push((j, run_caught(ctx, j)));
                        }
                        None => return done,
                    }
                }
            }));
        }
        for handle in handles {
            for (j, value) in handle.join().expect("worker thread panicked") {
                results[j] = Some(value);
            }
        }
    });
    resolve(results)
}

/// Unwraps per-job outcomes, re-raising the panic of the lowest-indexed
/// failed job once every job has run.
fn resolve<T>(mut results: Vec<Option<std::thread::Result<T>>>) -> Vec<T> {
    if let Some(slot) = results.iter_mut().find(|r| matches!(r, Some(Err(_)))) {
        if let Some(Err(payload)) = slot.take() {
            panic::resume_unwind(payload);
        }
    }
    results
        .into_iter()
        .enumerate()
        .map(|(j, r)| match r {
            Some(Ok(value)) => value,
            _ => panic!("job {j} never ran"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_are_indexed_by_job() {
        for threads in [1, 2, 4, 7] {
            let out = execute(threads, 23, |i| i * 3);
            assert_eq!(out, (0..23).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
        execute(4, 50, |i| counters[i].fetch_add(1, Ordering::SeqCst));
        assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn stealing_rebalances_skewed_work() {
        // Front-loaded jobs land on worker 0 (round-robin is by index,
        // but make job 0 slow); siblings must steal the rest.
        let out = execute(3, 12, |i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            i
        });
        assert_eq!(out.len(), 12);
    }

    #[test]
    fn zero_jobs_is_fine() {
        assert!(execute(4, 0, |i| i).is_empty());
    }

    #[test]
    fn more_threads_than_jobs() {
        assert_eq!(execute(16, 3, |i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    #[should_panic]
    fn job_panics_propagate() {
        execute(2, 4, |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn panicking_job_does_not_stop_siblings_or_poison_deques() {
        // A panicking job must leave its worker alive and its siblings'
        // deques usable: every other job still runs exactly once, and
        // progress counts all of them, at any thread count.
        for threads in [1, 2, 8] {
            let jobs = 24;
            let ran: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
            let progress = PoolProgress::new(workers_for(threads, jobs));
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                execute_with_progress(threads, jobs, Some(&progress), |_ctx, j| {
                    ran[j].fetch_add(1, Ordering::SeqCst);
                    if j == 5 {
                        panic!("job 5 exploded");
                    }
                    j
                })
            }));
            assert!(outcome.is_err(), "threads={threads}: panic must propagate");
            for (j, count) in ran.iter().enumerate() {
                assert_eq!(
                    count.load(Ordering::SeqCst),
                    1,
                    "threads={threads} job={j} must run exactly once"
                );
            }
            assert_eq!(progress.completed.load(Ordering::SeqCst), jobs);
        }
    }

    #[test]
    fn lowest_indexed_panic_wins_deterministically() {
        // With several panicking jobs, the propagated payload is always
        // the lowest-indexed one, independent of completion order.
        for threads in [1, 4] {
            let payload = std::panic::catch_unwind(AssertUnwindSafe(|| {
                execute(threads, 16, |j| {
                    if j == 3 || j == 11 {
                        panic!("job {j} failed");
                    }
                    j
                })
            }))
            .unwrap_err();
            let message = payload.downcast_ref::<String>().unwrap();
            assert_eq!(message, "job 3 failed", "threads={threads}");
        }
    }

    #[test]
    fn progress_counts_every_completion() {
        for threads in [1, 3] {
            let progress = PoolProgress::new(workers_for(threads, 17));
            let out = execute_with_progress(threads, 17, Some(&progress), |ctx, job| {
                assert!(ctx.worker < workers_for(threads, 17));
                job
            });
            assert_eq!(out.len(), 17);
            assert_eq!(progress.completed.load(Ordering::SeqCst), 17);
        }
    }

    #[test]
    fn inline_pool_reports_worker_zero() {
        let out = execute_with_progress(1, 5, None, |ctx, job| (ctx.worker, job));
        assert_eq!(out, (0..5).map(|j| (0, j)).collect::<Vec<_>>());
    }

    #[test]
    fn steals_recorded_when_work_is_skewed() {
        // Worker 0 sleeps on its first job; with 2 workers and heavily
        // front-loaded cost the sibling must steal at least once.
        let progress = PoolProgress::new(2);
        execute_with_progress(2, 8, Some(&progress), |_ctx, job| {
            if job == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            job
        });
        assert!(progress.total_steals() > 0, "{:?}", progress.steal_counts());
    }

    /// Two workers that run dry together each try to steal from the
    /// other; neither may hold its own queue's lock while it does.
    #[test]
    fn idle_workers_do_not_deadlock_stealing_from_each_other() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..50_000 {
                execute(2, 2, |i| i);
            }
            let _ = done_tx.send(());
        });
        assert!(
            done_rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .is_ok(),
            "the pool deadlocked"
        );
    }
}
