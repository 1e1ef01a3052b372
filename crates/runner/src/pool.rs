//! A std-only scoped thread pool fed by one shared job counter.
//!
//! Jobs are identified by index (`0..jobs`). Each worker claims the
//! next unclaimed index from one atomic cursor until none is left —
//! simulation jobs are coarse (milliseconds to seconds each), so one
//! counter balances them as well as per-worker queues would, with
//! nothing to lock.
//!
//! Results return as a `Vec` indexed by job — callers never observe
//! completion order, which is the first half of the runner's
//! determinism story (the second half is the caller folding in grid
//! order).

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Runs `jobs` closures on up to `threads` workers and returns their
/// results indexed by job number. Each call gets `(worker, job)`, where
/// `worker` is the executing worker's index, below `threads`.
///
/// `threads == 1` (or at most one job) runs inline on the caller's
/// thread as worker 0, with no spawning at all.
///
/// Each job runs inside `catch_unwind`: a panicking job never kills its
/// worker and never strands the jobs after it — **every** job executes,
/// and only then does the pool re-raise the panic of the lowest-indexed
/// failed job (deterministic regardless of completion order). Callers
/// that must survive job panics wrap jobs in their own supervision
/// (see `supervisor`); bare closures keep panic-propagation semantics.
///
/// # Panics
///
/// Panics if `threads` is zero, or (after all jobs have run) if a job
/// panicked.
///
/// # Examples
///
/// ```
/// use rfd_runner::pool::execute;
///
/// let squares = execute(4, 10, |_worker, i| i * i);
/// assert_eq!(squares[7], 49);
/// ```
pub fn execute<T, F>(threads: usize, jobs: usize, run: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    assert!(threads > 0, "pool needs at least one thread");
    let run_caught = |worker, job| panic::catch_unwind(AssertUnwindSafe(|| run(worker, job)));
    if threads == 1 || jobs <= 1 {
        return resolve((0..jobs).map(|job| run_caught(0, job)).collect());
    }
    let cursor = AtomicUsize::new(0);
    let mut done: Vec<(usize, thread::Result<T>)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..threads.min(jobs))
            .map(|worker| {
                let (cursor, run_caught) = (&cursor, &run_caught);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let job = cursor.fetch_add(1, Ordering::Relaxed);
                        if job >= jobs {
                            return done;
                        }
                        done.push((job, run_caught(worker, job)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("worker thread panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(job, _)| job);
    resolve(done.into_iter().map(|(_, outcome)| outcome).collect())
}

/// Unwraps per-job outcomes in job order, re-raising the panic of the
/// lowest-indexed failed job.
fn resolve<T>(outcomes: Vec<thread::Result<T>>) -> Vec<T> {
    outcomes
        .into_iter()
        .map(|outcome| outcome.unwrap_or_else(|payload| panic::resume_unwind(payload)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_indexed_by_job() {
        for threads in [1, 2, 4, 7] {
            let out = execute(threads, 23, |_, i| i * 3);
            assert_eq!(out, (0..23).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once_on_a_worker_in_range() {
        for threads in [1, 3] {
            let counters: Vec<AtomicUsize> = (0..50).map(|_| AtomicUsize::new(0)).collect();
            execute(threads, 50, |worker, i| {
                assert!(worker < threads);
                counters[i].fetch_add(1, Ordering::SeqCst)
            });
            assert!(counters.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        assert!(execute(4, 0, |_, i| i).is_empty());
    }

    #[test]
    fn more_threads_than_jobs() {
        assert_eq!(execute(16, 3, |_, i| i + 1), vec![1, 2, 3]);
    }

    #[test]
    fn inline_pool_reports_worker_zero() {
        let out = execute(1, 5, |worker, job| (worker, job));
        assert_eq!(out, (0..5).map(|j| (0, j)).collect::<Vec<_>>());
    }

    #[test]
    fn panicking_job_strands_nothing() {
        // A panicking job must leave its worker alive: every other job
        // still runs exactly once, at any thread count.
        for threads in [1, 2, 8] {
            let jobs = 24;
            let ran: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                execute(threads, jobs, |_, j| {
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
        }
    }

    #[test]
    fn lowest_indexed_panic_wins_deterministically() {
        // With several panicking jobs, the propagated payload is always
        // the lowest-indexed one, independent of completion order.
        for threads in [1, 4] {
            let payload = panic::catch_unwind(AssertUnwindSafe(|| {
                execute(threads, 16, |_, j| {
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

    /// Termination canary: many tiny pools, each of whose workers runs
    /// out of jobs at nearly the same instant, all finish.
    #[test]
    fn many_tiny_pools_terminate() {
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            for _ in 0..50_000 {
                execute(2, 2, |_, i| i);
            }
            let _ = done_tx.send(());
        });
        assert!(
            done_rx
                .recv_timeout(std::time::Duration::from_secs(60))
                .is_ok(),
            "the pool did not terminate"
        );
    }
}
