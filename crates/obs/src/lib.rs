//! # rfd-obs — std-only observability for the RFD reproduction
//!
//! The sweep engine runs thousands of simulations across a thread pool;
//! this crate makes that visible without perturbing it:
//!
//! * [`span`] — hierarchical wall-clock spans (with optional sim-time
//!   annotation) recorded into per-thread buffers;
//! * [`counter`] / [`histogram`] — named counters and log₂-bucketed
//!   histograms, dumpable as a JSON summary;
//! * flight recorder — a bounded per-thread ring of the most recent
//!   span/mark events, dumped on panic or on an anomaly hook
//!   ([`dump_flight`], [`install_panic_hook`]);
//! * [`write_trace`] — a Chrome trace-event JSON exporter
//!   (`traceEvents` with `ph:"B"/"E"/"C"` records) openable in
//!   Perfetto / `chrome://tracing`;
//! * [`Sampler`] — one observer thread calling periodic consumers
//!   (heartbeats, telemetry) while a piece of work runs.
//!
//! ## Non-perturbation contract
//!
//! Recording is **off by default** and every entry point starts with a
//! single relaxed atomic load, so instrumented hot paths cost nothing
//! measurable when observability is disabled. When enabled, the layer
//! only *observes* — it never feeds wall-clock time, thread identity or
//! any other nondeterministic value back into the simulation, so
//! simulator output is byte-identical with observability on or off (the
//! workspace asserts this end-to-end in `tests/obs_e2e.rs`).
//!
//! ```
//! rfd_obs::enable();
//! {
//!     let mut s = rfd_obs::span("doc.work");
//!     s.sim_time_us(1_500_000); // annotate with simulated time
//!     rfd_obs::inc("doc.widgets");
//!     rfd_obs::observe("doc.sizes", 4096);
//! }
//! let summary = rfd_obs::summary_json();
//! assert!(summary.contains("doc.widgets"));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod export;
mod flight;
pub mod json;
mod metrics;
mod registry;
mod report;
mod sampler;
mod span;

pub use export::{render_trace, summary_json, write_trace};
pub use flight::{dump_flight, install_panic_hook, set_flight_path};
pub use metrics::{percentile_from_buckets, Counter, Gauge, Histogram};
pub use report::{render_report, ReportError};
pub use sampler::Sampler;
pub use span::SpanGuard;

use std::sync::atomic::Ordering;

/// Turns recording on (idempotent). Until this is called every
/// instrumentation entry point is a near-free no-op.
pub fn enable() {
    registry::global().enabled.store(true, Ordering::SeqCst);
}

/// Turns recording off again. Existing data stays until [`reset`].
pub fn disable() {
    registry::global().enabled.store(false, Ordering::SeqCst);
}

/// Whether recording is currently on.
#[inline]
pub fn is_enabled() -> bool {
    registry::global().enabled.load(Ordering::Relaxed)
}

/// Drops all recorded counters, histograms, spans and flight events.
/// Thread-local handle caches refresh automatically (generation check),
/// so this is safe to call between runs or tests.
pub fn reset() {
    registry::global().reset();
}

/// A handle to the named counter, registering it on first use. The
/// handle is cheap to clone and increments with one atomic add — cache
/// it in hot loops.
pub fn counter(name: &'static str) -> Counter {
    registry::global().counter(name)
}

/// A handle to the named gauge, registering it on first use. Unlike a
/// counter a gauge is a *level* — it can be set outright or moved in
/// either direction (queue depths, slot occupancy).
pub fn gauge(name: &'static str) -> Gauge {
    registry::global().gauge(name)
}

/// A handle to the named log₂-bucketed histogram, registering it on
/// first use.
pub fn histogram(name: &'static str) -> Histogram {
    registry::global().histogram(name)
}

/// Adds 1 to the named counter (no-op while disabled). Uses a
/// thread-local handle cache, so casual call sites stay one-liners.
#[inline]
pub fn inc(name: &'static str) {
    add(name, 1);
}

/// Adds `n` to the named counter (no-op while disabled).
#[inline]
pub fn add(name: &'static str, n: u64) {
    if is_enabled() {
        span::with_tls(|tls| tls.counter(name).add(n));
    }
}

/// Records one sample into the named histogram (no-op while disabled).
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if is_enabled() {
        span::with_tls(|tls| tls.histogram(name).observe(value));
    }
}

/// Sets the named gauge to `value` (no-op while disabled).
#[inline]
pub fn gauge_set(name: &'static str, value: i64) {
    if is_enabled() {
        span::with_tls(|tls| tls.gauge(name).set(value));
    }
}

/// Moves the named gauge by signed `delta` (no-op while disabled).
#[inline]
pub fn gauge_add(name: &'static str, delta: i64) {
    if is_enabled() {
        span::with_tls(|tls| tls.gauge(name).add(delta));
    }
}

/// Starts a wall-clock span; the guard records it when dropped. A no-op
/// guard is returned while disabled.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    SpanGuard::start(name)
}

/// Records an instantaneous point event (it lands in the flight
/// recorder ring and the trace). No-op while disabled.
#[inline]
pub fn mark(name: &'static str) {
    span::record_mark(name);
}

#[cfg(test)]
mod tests {
    use super::*;

    // The global registry is process-wide; tests that toggle it are
    // serialised through this lock.
    pub(crate) static GLOBAL_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_by_default_and_cheap() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        disable();
        reset();
        inc("test.never");
        observe("test.never_h", 7);
        let s = span("test.never_span");
        drop(s);
        mark("test.never_mark");
        enable();
        let json = summary_json();
        disable();
        reset();
        assert!(!json.contains("test.never"), "{json}");
    }

    #[test]
    fn enable_records_and_reset_clears() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        reset();
        enable();
        inc("test.a");
        inc("test.a");
        add("test.a", 3);
        observe("test.h", 1024);
        {
            let mut s = span("test.s");
            s.sim_time_us(42);
        }
        mark("test.m");
        let json = summary_json();
        assert!(json.contains("\"test.a\":5"), "{json}");
        assert!(json.contains("test.h"), "{json}");
        assert!(json.contains("test.s"), "{json}");
        reset();
        let json = summary_json();
        disable();
        reset();
        assert!(!json.contains("test.a"), "{json}");
    }

    #[test]
    fn gauges_record_levels_and_respect_enable() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        disable();
        reset();
        gauge_set("test.g", 9);
        enable();
        let json = summary_json();
        assert!(
            !json.contains("test.g"),
            "disabled gauge writes must drop: {json}"
        );
        gauge_set("test.g", 9);
        gauge_add("test.g", 3);
        gauge_add("test.g", -5);
        let json = summary_json();
        disable();
        reset();
        assert!(json.contains("\"test.g\":7"), "{json}");
    }

    #[test]
    fn counter_handles_survive_reset_via_generation() {
        let _guard = GLOBAL_TEST_LOCK.lock().unwrap();
        reset();
        enable();
        inc("test.gen");
        reset();
        // After a reset the TLS cache must re-register, not write into
        // a detached counter.
        inc("test.gen");
        let json = summary_json();
        disable();
        reset();
        assert!(json.contains("\"test.gen\":1"), "{json}");
    }
}
