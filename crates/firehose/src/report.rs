//! The firehose run report: partition-invariant decision aggregates
//! plus performance measurements.
//!
//! The report is split deliberately. The [`Aggregate`] section is a
//! pure function of (seed, workload, damping parameters) — identical
//! for every shard count — and is what the
//! determinism e2e test and the CI smoke job diff. The perf section
//! (throughput, decision-latency percentiles, queue gauges) measures
//! the machine and is *expected* to vary run to run.

use std::fmt::Write as _;

use rfd_obs::Histogram;

/// Partition-invariant decision counts, summed across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Aggregate {
    /// Updates ingested (every one charges a damper).
    pub updates: u64,
    /// Entries newly pushed over the cut-off threshold.
    pub suppressions: u64,
    /// Reuse-timer checks that released a suppressed entry.
    pub reuses: u64,
    /// Reuse-timer checks that found the entry recharged and
    /// rescheduled (the paper's secondary-charging signature).
    pub reuse_deferrals: u64,
    /// Forgettable entries dropped by the periodic sweep.
    pub evictions: u64,
    /// Nominal penalty charged, in integer milli-units (f64 sums would
    /// depend on shard interleaving; integers are order-free).
    pub penalty_milli: u64,
    /// Entries still suppressed when the stream ended.
    pub suppressed_at_end: u64,
    /// Damping-state entries still live when the stream ended.
    pub live_entries: u64,
}

impl Aggregate {
    /// Element-wise sum (merging shard aggregates).
    pub fn merge(&mut self, other: &Aggregate) {
        self.updates += other.updates;
        self.suppressions += other.suppressions;
        self.reuses += other.reuses;
        self.reuse_deferrals += other.reuse_deferrals;
        self.evictions += other.evictions;
        self.penalty_milli += other.penalty_milli;
        self.suppressed_at_end += other.suppressed_at_end;
        self.live_entries += other.live_entries;
    }

    /// The `(field, value)` rows, in a stable order.
    pub fn rows(&self) -> [(&'static str, u64); 8] {
        [
            ("updates", self.updates),
            ("suppressions", self.suppressions),
            ("reuses", self.reuses),
            ("reuse_deferrals", self.reuse_deferrals),
            ("evictions", self.evictions),
            ("penalty_milli", self.penalty_milli),
            ("suppressed_at_end", self.suppressed_at_end),
            ("live_entries", self.live_entries),
        ]
    }
}

/// Per-shard execution measurements (not partition-invariant).
#[derive(Debug, Clone, Default)]
pub struct ShardPerf {
    /// Updates this shard processed.
    pub processed: u64,
    /// Deepest its ingest queue ever got.
    pub max_queue_depth: usize,
    /// Times the generator blocked pushing to this shard
    /// (backpressure events).
    pub push_waits: u64,
    /// Always 0: workers no longer recover from panics. Kept only
    /// because the perf ledger still reads it; remove it with that
    /// reader.
    pub recovered_panics: u64,
}

/// The full result of one firehose run.
#[derive(Debug, Clone)]
pub struct FirehoseReport {
    /// Workload name (`poisson` / `flap-storm`).
    pub workload: &'static str,
    /// Shard count the run executed with.
    pub shards: usize,
    /// Master seed.
    pub seed: u64,
    /// Partition-invariant decision aggregate.
    pub aggregate: Aggregate,
    /// Per-shard perf rows.
    pub shard_perf: Vec<ShardPerf>,
    /// Wall-clock duration of the run, seconds.
    pub elapsed_secs: f64,
    /// Updates processed per wall-clock second (all shards together).
    pub updates_per_sec: f64,
    /// `updates_per_sec / shards` — the sustained per-worker rate
    /// (on a single-core box the distinction from "per core" is moot;
    /// see the BENCH caveats).
    pub updates_per_sec_per_shard: f64,
    /// Decision-latency histogram: nanoseconds from the end of a
    /// worker's previous decision to the end of this one (one clock
    /// read per update), so it covers the whole per-update worker loop
    /// and its mean is the reciprocal of a busy shard's rate. Queue
    /// waits fall between samples, not in them.
    pub decision_ns: Histogram,
}

impl FirehoseReport {
    /// The canonical string the determinism contract is checked
    /// against: every aggregate row, nothing timing-dependent.
    pub fn aggregate_signature(&self) -> String {
        let mut out = String::new();
        for (field, value) in self.aggregate.rows() {
            let _ = writeln!(out, "aggregate,{field},{value}");
        }
        out
    }

    /// The machine-readable CSV report (stdout of `rfd firehose`):
    /// `section,field,value` rows — aggregate first, then perf, then
    /// one row group per shard.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("section,field,value\n");
        out.push_str(&self.aggregate_signature());
        let _ = writeln!(out, "perf,workload,{}", self.workload);
        let _ = writeln!(out, "perf,shards,{}", self.shards);
        let _ = writeln!(out, "perf,seed,{}", self.seed);
        let _ = writeln!(out, "perf,elapsed_secs,{:.3}", self.elapsed_secs);
        let _ = writeln!(out, "perf,updates_per_sec,{:.0}", self.updates_per_sec);
        let _ = writeln!(
            out,
            "perf,updates_per_sec_per_shard,{:.0}",
            self.updates_per_sec_per_shard
        );
        let _ = writeln!(
            out,
            "perf,decision_p50_ns,{:.0}",
            self.decision_ns.percentile(50.0)
        );
        let _ = writeln!(
            out,
            "perf,decision_p99_ns,{:.0}",
            self.decision_ns.percentile(99.0)
        );
        let _ = writeln!(out, "perf,decision_mean_ns,{:.0}", self.decision_ns.mean());
        for (i, p) in self.shard_perf.iter().enumerate() {
            let _ = writeln!(out, "shard{i},processed,{}", p.processed);
            let _ = writeln!(out, "shard{i},max_queue_depth,{}", p.max_queue_depth);
            let _ = writeln!(out, "shard{i},push_waits,{}", p.push_waits);
        }
        out
    }

    /// The same report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"workload\": \"{}\",", self.workload);
        let _ = writeln!(out, "  \"shards\": {},", self.shards);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        out.push_str("  \"aggregate\": {");
        for (i, (field, value)) in self.aggregate.rows().into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{field}\": {value}");
        }
        out.push_str("},\n");
        out.push_str("  \"perf\": {");
        let _ = write!(
            out,
            "\"elapsed_secs\": {:.3}, \"updates_per_sec\": {:.0}, \
             \"updates_per_sec_per_shard\": {:.0}, \"decision_p50_ns\": {:.0}, \
             \"decision_p99_ns\": {:.0}, \"decision_mean_ns\": {:.0}",
            self.elapsed_secs,
            self.updates_per_sec,
            self.updates_per_sec_per_shard,
            self.decision_ns.percentile(50.0),
            self.decision_ns.percentile(99.0),
            self.decision_ns.mean()
        );
        out.push_str("},\n  \"shard_perf\": [");
        for (i, p) in self.shard_perf.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"processed\": {}, \"max_queue_depth\": {}, \"push_waits\": {}}}",
                p.processed, p.max_queue_depth, p.push_waits
            );
        }
        out.push_str("]\n}\n");
        out
    }
}

/// A small fixed report for rendering tests (shared with the telemetry
/// module's Prometheus-exposition tests).
#[cfg(test)]
pub(crate) fn test_demo_report() -> FirehoseReport {
    let decision_ns = Histogram::standalone();
    for v in [100u64, 200, 400, 800] {
        decision_ns.observe(v);
    }
    FirehoseReport {
        workload: "poisson",
        shards: 2,
        seed: 7,
        aggregate: Aggregate {
            updates: 1000,
            suppressions: 10,
            reuses: 4,
            reuse_deferrals: 2,
            evictions: 3,
            penalty_milli: 500_000,
            suppressed_at_end: 6,
            live_entries: 40,
        },
        shard_perf: vec![
            ShardPerf {
                processed: 600,
                max_queue_depth: 12,
                push_waits: 1,
                ..ShardPerf::default()
            },
            ShardPerf {
                processed: 400,
                max_queue_depth: 3,
                push_waits: 0,
                ..ShardPerf::default()
            },
        ],
        elapsed_secs: 0.5,
        updates_per_sec: 2000.0,
        updates_per_sec_per_shard: 1000.0,
        decision_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use super::test_demo_report as demo_report;

    #[test]
    fn merge_sums_every_field() {
        let mut a = Aggregate {
            updates: 1,
            suppressions: 2,
            reuses: 3,
            reuse_deferrals: 4,
            evictions: 5,
            penalty_milli: 6,
            suppressed_at_end: 7,
            live_entries: 8,
        };
        a.merge(&a.clone());
        assert_eq!(
            a.rows().map(|(_, v)| v),
            [2, 4, 6, 8, 10, 12, 14, 16],
            "every field doubled"
        );
    }

    #[test]
    fn signature_contains_only_aggregate_rows() {
        let sig = demo_report().aggregate_signature();
        assert!(sig.lines().all(|l| l.starts_with("aggregate,")), "{sig}");
        assert!(sig.contains("aggregate,updates,1000"));
        assert!(sig.contains("aggregate,penalty_milli,500000"));
        assert!(!sig.contains("elapsed"), "timing must not leak in: {sig}");
    }

    #[test]
    fn csv_has_all_sections() {
        let csv = demo_report().to_csv();
        assert!(csv.starts_with("section,field,value\n"));
        for needle in [
            "aggregate,suppressions,10",
            "perf,updates_per_sec,2000",
            "shard0,max_queue_depth,12",
            "shard1,push_waits,0",
        ] {
            assert!(csv.contains(needle), "missing {needle} in:\n{csv}");
        }
    }

    #[test]
    fn json_is_well_formed_enough_to_reparse() {
        let json = demo_report().to_json();
        // The obs crate ships a strict JSON parser; use it as the oracle.
        let doc = rfd_obs::json::parse(&json).expect("report JSON parses");
        assert_eq!(
            doc.get("aggregate")
                .and_then(|a| a.get("updates"))
                .and_then(rfd_obs::json::Value::as_u64),
            Some(1000)
        );
        assert_eq!(
            doc.get("shard_perf")
                .and_then(rfd_obs::json::Value::as_array)
                .map(<[_]>::len),
            Some(2)
        );
    }
}
