//! Live per-shard telemetry: periodic JSONL snapshots and a final
//! Prometheus-style text exposition.
//!
//! [`crate::engine::run_with_telemetry`] registers its telemetry
//! callback, beside the heartbeat, on one [`rfd_obs::Sampler`]: at the
//! configured wall-clock interval the observer thread reads the shared
//! per-shard gauges and latency histograms and hands the callback one
//! [`ShardSnapshot`] row per shard (the heartbeat renders its line from
//! the same rows). Workers never block on telemetry: everything the
//! sampler reads is a relaxed atomic or a lock-free histogram bucket,
//! and the decision stream is untouched — the aggregate report is
//! byte-identical with telemetry on or off (tested).
//!
//! Latency percentiles are *interval deltas*: the sampler keeps the
//! previous bucket counts per shard and feeds the difference to
//! [`rfd_obs::percentile_from_buckets`], so `p50_ns`/`p99_ns` describe
//! the decisions made since the previous tick, not the whole run.

use std::fmt::Write as _;

use rfd_obs::percentile_from_buckets;

use crate::report::FirehoseReport;

/// One shard's state at one sampling tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardSnapshot {
    /// Tick number (0-based; every shard shares the tick's `seq`).
    pub seq: u64,
    /// Wall-clock seconds since the run started.
    pub elapsed_secs: f64,
    /// Latest simulated instant the generator has emitted, µs.
    pub sim_us: u64,
    /// Which shard this row describes.
    pub shard: usize,
    /// Updates processed so far (cumulative). Advances at the worker's
    /// batch boundaries, together with `suppressions` and
    /// `live_entries`; exact once the run has ended.
    pub processed: u64,
    /// Updates processed since the previous tick.
    pub processed_delta: u64,
    /// `processed_delta` per wall-clock second of the interval.
    pub rate_per_sec: f64,
    /// Entries pushed over the cut-off so far (cumulative).
    pub suppressions: u64,
    /// Fraction of this run's updates so far that caused a
    /// suppression (`suppressions / processed`, two readings of the
    /// same batch boundary; 0 before any update).
    pub suppression_ratio: f64,
    /// Current ingest-queue depth (backpressure signal).
    pub queue_depth: usize,
    /// Deepest the queue has ever been.
    pub max_queue_depth: usize,
    /// Times the generator has blocked pushing to this shard.
    pub push_waits: u64,
    /// Damper slots currently live in the shard's state table.
    pub live_entries: u64,
    /// Median decision latency over this interval, nanoseconds.
    pub p50_ns: f64,
    /// 99th-percentile decision latency over this interval, ns.
    pub p99_ns: f64,
}

impl ShardSnapshot {
    /// The snapshot as one JSON object (one JSONL line, no newline).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"seq\": {}, \"elapsed_ms\": {}, \"sim_us\": {}, \"shard\": {}, \
             \"processed\": {}, \"processed_delta\": {}, \"rate_per_sec\": {:.0}, \
             \"suppressions\": {}, \"suppression_ratio\": {:.6}, \
             \"queue_depth\": {}, \"max_queue_depth\": {}, \"push_waits\": {}, \
             \"live_entries\": {}, \"p50_ns\": {:.0}, \"p99_ns\": {:.0}}}",
            self.seq,
            (self.elapsed_secs * 1000.0) as u64,
            self.sim_us,
            self.shard,
            self.processed,
            self.processed_delta,
            self.rate_per_sec,
            self.suppressions,
            self.suppression_ratio,
            self.queue_depth,
            self.max_queue_depth,
            self.push_waits,
            self.live_entries,
            self.p50_ns,
            self.p99_ns,
        )
    }
}

/// Per-shard delta tracker the sampler owns: previous cumulative
/// counters and histogram buckets, so each tick reports what happened
/// *since the last one*.
#[derive(Debug, Default, Clone)]
pub struct DeltaTracker {
    prev_processed: u64,
    prev_elapsed: f64,
    prev_buckets: Vec<(u64, u64)>,
}

impl DeltaTracker {
    /// A tracker with no history (the first tick reports totals).
    pub fn new() -> Self {
        DeltaTracker::default()
    }

    /// Computes this interval's processed delta, rate, and latency
    /// percentiles, then advances the stored history.
    ///
    /// `buckets` are the shard histogram's cumulative non-empty
    /// `(floor, count)` pairs ([`rfd_obs::Histogram::nonzero_buckets`]).
    pub fn advance(
        &mut self,
        processed: u64,
        elapsed_secs: f64,
        buckets: &[(u64, u64)],
    ) -> (u64, f64, f64, f64) {
        let delta = processed.saturating_sub(self.prev_processed);
        let dt = (elapsed_secs - self.prev_elapsed).max(1e-9);
        let rate = delta as f64 / dt;
        let diff = diff_buckets(buckets, &self.prev_buckets);
        let p50 = percentile_from_buckets(&diff, 50.0);
        let p99 = percentile_from_buckets(&diff, 99.0);
        self.prev_processed = processed;
        self.prev_elapsed = elapsed_secs;
        self.prev_buckets = buckets.to_vec();
        (delta, rate, p50, p99)
    }
}

/// Subtracts the previous cumulative bucket counts from the current
/// ones. Both inputs are `(floor, count)` pairs in ascending floor
/// order; counts only ever grow, so the difference is the interval's
/// sample set.
fn diff_buckets(now: &[(u64, u64)], prev: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::with_capacity(now.len());
    let mut pi = 0;
    for &(floor, count) in now {
        while pi < prev.len() && prev[pi].0 < floor {
            pi += 1;
        }
        let before = if pi < prev.len() && prev[pi].0 == floor {
            prev[pi].1
        } else {
            0
        };
        let delta = count.saturating_sub(before);
        if delta > 0 {
            out.push((floor, delta));
        }
    }
    out
}

/// Renders the final report as a Prometheus text exposition
/// (`--prom PATH`): aggregate counters, per-shard execution gauges,
/// and the cross-shard decision-latency summary.
pub fn prometheus_exposition(report: &FirehoseReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP rfd_firehose_updates_total Route updates ingested."
    );
    let _ = writeln!(out, "# TYPE rfd_firehose_updates_total counter");
    let _ = writeln!(
        out,
        "rfd_firehose_updates_total {}",
        report.aggregate.updates
    );
    for (name, help, kind, value) in [
        (
            "rfd_firehose_suppressions_total",
            "Entries newly pushed over the cut-off threshold.",
            "counter",
            report.aggregate.suppressions,
        ),
        (
            "rfd_firehose_reuses_total",
            "Reuse-timer checks that released a suppressed entry.",
            "counter",
            report.aggregate.reuses,
        ),
        (
            "rfd_firehose_reuse_deferrals_total",
            "Reuse-timer checks that found the entry recharged.",
            "counter",
            report.aggregate.reuse_deferrals,
        ),
        (
            "rfd_firehose_evictions_total",
            "Forgettable entries dropped by the periodic sweep.",
            "counter",
            report.aggregate.evictions,
        ),
        (
            "rfd_firehose_penalty_milli_total",
            "Nominal penalty charged, integer milli-units.",
            "counter",
            report.aggregate.penalty_milli,
        ),
        (
            "rfd_firehose_suppressed_at_end",
            "Entries still suppressed when the stream ended.",
            "gauge",
            report.aggregate.suppressed_at_end,
        ),
        (
            "rfd_firehose_live_entries",
            "Damping-state entries live when the stream ended.",
            "gauge",
            report.aggregate.live_entries,
        ),
    ] {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
        let _ = writeln!(out, "{name} {value}");
    }
    let _ = writeln!(
        out,
        "# HELP rfd_firehose_shard_processed_total Updates processed per shard."
    );
    let _ = writeln!(out, "# TYPE rfd_firehose_shard_processed_total counter");
    for (i, p) in report.shard_perf.iter().enumerate() {
        let _ = writeln!(
            out,
            "rfd_firehose_shard_processed_total{{shard=\"{i}\"}} {}",
            p.processed
        );
    }
    let _ = writeln!(
        out,
        "# HELP rfd_firehose_shard_max_queue_depth Deepest the shard's ingest queue got."
    );
    let _ = writeln!(out, "# TYPE rfd_firehose_shard_max_queue_depth gauge");
    for (i, p) in report.shard_perf.iter().enumerate() {
        let _ = writeln!(
            out,
            "rfd_firehose_shard_max_queue_depth{{shard=\"{i}\"}} {}",
            p.max_queue_depth
        );
    }
    let _ = writeln!(
        out,
        "# HELP rfd_firehose_shard_push_waits_total Generator backpressure blocks per shard."
    );
    let _ = writeln!(out, "# TYPE rfd_firehose_shard_push_waits_total counter");
    for (i, p) in report.shard_perf.iter().enumerate() {
        let _ = writeln!(
            out,
            "rfd_firehose_shard_push_waits_total{{shard=\"{i}\"}} {}",
            p.push_waits
        );
    }
    let _ = writeln!(
        out,
        "# HELP rfd_firehose_decision_latency_ns Per-decision latency, nanoseconds."
    );
    let _ = writeln!(out, "# TYPE rfd_firehose_decision_latency_ns summary");
    for q in [50.0, 90.0, 99.0] {
        let _ = writeln!(
            out,
            "rfd_firehose_decision_latency_ns{{quantile=\"{}\"}} {:.0}",
            q / 100.0,
            report.decision_ns.percentile(q)
        );
    }
    let _ = writeln!(
        out,
        "rfd_firehose_decision_latency_ns_sum {}",
        report.decision_ns.sum()
    );
    let _ = writeln!(
        out,
        "rfd_firehose_decision_latency_ns_count {}",
        report.decision_ns.count()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(seq: u64, shard: usize) -> ShardSnapshot {
        ShardSnapshot {
            seq,
            elapsed_secs: 1.5,
            sim_us: 42,
            shard,
            processed: 100,
            processed_delta: 40,
            rate_per_sec: 26.7,
            suppressions: 3,
            suppression_ratio: 0.03,
            queue_depth: 2,
            max_queue_depth: 9,
            push_waits: 1,
            live_entries: 17,
            p50_ns: 120.0,
            p99_ns: 900.0,
        }
    }

    #[test]
    fn json_line_is_parseable_and_complete() {
        let line = snap(3, 1).to_json_line();
        let doc = rfd_obs::json::parse(&line).expect("snapshot line parses");
        for key in [
            "seq",
            "elapsed_ms",
            "sim_us",
            "shard",
            "processed",
            "processed_delta",
            "rate_per_sec",
            "suppressions",
            "suppression_ratio",
            "queue_depth",
            "max_queue_depth",
            "push_waits",
            "live_entries",
            "p50_ns",
            "p99_ns",
        ] {
            assert!(doc.get(key).is_some(), "missing {key} in {line}");
        }
        assert_eq!(
            doc.get("seq").and_then(rfd_obs::json::Value::as_u64),
            Some(3)
        );
        assert_eq!(
            doc.get("shard").and_then(rfd_obs::json::Value::as_u64),
            Some(1)
        );
        assert_eq!(
            doc.get("elapsed_ms").and_then(rfd_obs::json::Value::as_u64),
            Some(1500)
        );
    }

    #[test]
    fn delta_tracker_reports_interval_deltas() {
        let mut t = DeltaTracker::new();
        let (delta, rate, p50, _) = t.advance(100, 1.0, &[(64, 100)]);
        assert_eq!(delta, 100);
        assert!((rate - 100.0).abs() < 1e-6);
        assert!(p50 >= 64.0, "first tick sees the full history");
        // Second tick: 50 more samples, all in the 128-bucket.
        let (delta, rate, p50, p99) = t.advance(150, 2.0, &[(64, 100), (128, 50)]);
        assert_eq!(delta, 50);
        assert!((rate - 50.0).abs() < 1e-6);
        assert!(
            (128.0..256.0).contains(&p50),
            "interval percentile must ignore the old 64-bucket: {p50}"
        );
        assert!(p99 >= p50);
        // Idle interval: nothing new.
        let (delta, _, p50, p99) = t.advance(150, 3.0, &[(64, 100), (128, 50)]);
        assert_eq!(delta, 0);
        assert_eq!((p50, p99), (0.0, 0.0), "no samples, no percentiles");
    }

    #[test]
    fn diff_buckets_handles_disappearing_prefixes() {
        // prev has a floor that `now` lacks (cannot happen live, but
        // the diff must not panic or underflow).
        let d = diff_buckets(&[(8, 5)], &[(4, 2), (8, 3)]);
        assert_eq!(d, vec![(8, 2)]);
        let d = diff_buckets(&[(4, 2), (16, 1)], &[(4, 2)]);
        assert_eq!(d, vec![(16, 1)]);
        assert!(diff_buckets(&[], &[(4, 2)]).is_empty());
    }

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let report = crate::report::test_demo_report();
        let text = prometheus_exposition(&report);
        for needle in [
            "# TYPE rfd_firehose_updates_total counter",
            "rfd_firehose_updates_total 1000",
            "rfd_firehose_suppressions_total 10",
            "rfd_firehose_shard_processed_total{shard=\"0\"} 600",
            "rfd_firehose_shard_processed_total{shard=\"1\"} 400",
            "rfd_firehose_shard_max_queue_depth{shard=\"0\"} 12",
            "rfd_firehose_decision_latency_ns{quantile=\"0.5\"}",
            "rfd_firehose_decision_latency_ns_count 4",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(
                value.parse::<f64>().is_ok(),
                "unparseable sample value in {line}"
            );
        }
    }
}
