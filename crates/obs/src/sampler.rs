//! One observer thread for the periodic consumers of a piece of work.
//!
//! A [`Sampler`] holds consumers registered as `(period, callback)`.
//! [`Sampler::run`] runs the work on the caller's thread while a single
//! scoped thread calls each consumer with `last = false` whenever that
//! consumer's own period has elapsed. Once the work returns — or
//! unwinds — every consumer gets exactly one more call with
//! `last = true`, and the thread is joined before `run` returns (or
//! re-raises the panic). With no consumer registered, `run` is a plain
//! call: no thread is spawned.
//!
//! ```
//! use std::sync::atomic::{AtomicUsize, Ordering};
//! use std::time::Duration;
//!
//! let finals = AtomicUsize::new(0);
//! let mut sampler = rfd_obs::Sampler::new();
//! sampler.every(Duration::from_millis(5), |last| {
//!     if last {
//!         finals.fetch_add(1, Ordering::Relaxed);
//!     }
//! });
//! assert_eq!(sampler.run(|| 6 * 7), 42);
//! assert_eq!(finals.load(Ordering::Relaxed), 1);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

type Consumer<'a> = (Duration, Box<dyn FnMut(bool) + Send + 'a>);

/// Periodic observers of one piece of work (see the module docs).
#[derive(Default)]
pub struct Sampler<'a> {
    consumers: Vec<Consumer<'a>>,
}

impl fmt::Debug for Sampler<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let periods: Vec<Duration> = self.consumers.iter().map(|(period, _)| *period).collect();
        f.debug_struct("Sampler")
            .field("periods", &periods)
            .finish()
    }
}

impl<'a> Sampler<'a> {
    /// A sampler with no consumers.
    pub fn new() -> Self {
        Sampler::default()
    }

    /// Registers `consumer`, called with `last = false` every `period`
    /// while the work runs and once with `last = true` after it ends.
    pub fn every(&mut self, period: Duration, consumer: impl FnMut(bool) + Send + 'a) -> &mut Self {
        self.consumers.push((period, Box::new(consumer)));
        self
    }

    /// Runs `work` on the caller's thread under observation and returns
    /// its result; a panic in `work` reaches the caller after the final
    /// consumer calls.
    pub fn run<R>(self, work: impl FnOnce() -> R) -> R {
        if self.consumers.is_empty() {
            return work();
        }
        let stop = AtomicBool::new(false);
        thread::scope(|scope| {
            let observer = scope.spawn(|| observe(self.consumers, &stop));
            // Dropped on return and on unwind alike; the scope then joins
            // the observer, which makes the final calls on its way out.
            let _stop = Stop {
                stop: &stop,
                observer: observer.thread().clone(),
            };
            work()
        })
    }
}

/// Raises the stop flag and wakes the observer when dropped.
struct Stop<'a> {
    stop: &'a AtomicBool,
    observer: Thread,
}

impl Drop for Stop<'_> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.observer.unpark();
    }
}

fn observe(mut consumers: Vec<Consumer<'_>>, stop: &AtomicBool) {
    let started = Instant::now();
    let mut due: Vec<Instant> = consumers
        .iter()
        .map(|(period, _)| started + *period)
        .collect();
    // Acquire pairs with `Stop`'s release: the final calls see every
    // write the work made before it returned.
    while !stop.load(Ordering::Acquire) {
        let now = Instant::now();
        for ((period, consumer), at) in consumers.iter_mut().zip(&mut due) {
            if now >= *at {
                consumer(false);
                *at = now + *period;
            }
        }
        let next = due.iter().min().expect("at least one consumer");
        thread::park_timeout(next.saturating_duration_since(Instant::now()));
    }
    for (_, consumer) in &mut consumers {
        consumer(true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;

    /// Counts one consumer's periodic calls and final calls, and flags
    /// any call that comes after the final one or before the work ended.
    #[derive(Default)]
    struct Calls {
        ticks: AtomicUsize,
        finals: AtomicUsize,
        misordered: AtomicBool,
    }

    impl Calls {
        fn record(&self, last: bool, work_done: &AtomicBool) {
            if self.finals.load(Ordering::SeqCst) > 0 {
                self.misordered.store(true, Ordering::SeqCst);
            }
            if last {
                if !work_done.load(Ordering::SeqCst) {
                    self.misordered.store(true, Ordering::SeqCst);
                }
                self.finals.fetch_add(1, Ordering::SeqCst);
            } else {
                self.ticks.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    #[test]
    fn consumers_fire_at_their_own_cadence_and_end_with_one_final_call() {
        let (fast, slow) = (Calls::default(), Calls::default());
        let work_done = AtomicBool::new(false);
        let mut sampler = Sampler::new();
        sampler
            .every(Duration::from_millis(2), |last| {
                fast.record(last, &work_done)
            })
            .every(Duration::from_millis(100), |last| {
                slow.record(last, &work_done)
            });
        let out = sampler.run(|| {
            thread::sleep(Duration::from_millis(400));
            work_done.store(true, Ordering::SeqCst);
            "done"
        });
        assert_eq!(out, "done");
        let slow_ticks = slow.ticks.load(Ordering::SeqCst);
        assert!((1..=4).contains(&slow_ticks), "slow ticked {slow_ticks}×");
        assert!(fast.ticks.load(Ordering::SeqCst) > slow_ticks);
        for calls in [&fast, &slow] {
            assert_eq!(calls.finals.load(Ordering::SeqCst), 1);
            assert!(!calls.misordered.load(Ordering::SeqCst));
        }
    }

    #[test]
    fn a_panicking_work_still_gets_its_final_calls_and_propagates() {
        let finals = AtomicUsize::new(0);
        let mut sampler = Sampler::new();
        for period in [Duration::from_millis(1), Duration::from_secs(3600)] {
            sampler.every(period, |last| {
                if last {
                    finals.fetch_add(1, Ordering::SeqCst);
                }
            });
        }
        let payload = catch_unwind(AssertUnwindSafe(|| {
            sampler.run::<()>(|| panic!("work failed"))
        }))
        .unwrap_err();
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"work failed"));
        assert_eq!(finals.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn without_consumers_the_work_just_runs() {
        assert_eq!(Sampler::new().run(|| 42), 42);
    }
}
