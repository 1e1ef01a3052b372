//! The sharded ingest engine: one generator thread feeding W shard
//! workers through bounded SPSC queues.
//!
//! The generator performs the k-way session merge ([`Firehose`]) and
//! routes each update by `shard_hash(key) % shards` into that shard's
//! pending buffer, handed over `BATCH` updates at a time; each worker
//! owns a [`ShardState`] and drains its queue by the same batch, so no
//! step between the merge and the store costs a lock, a wake or a
//! shared-counter write per update. Because the merge is
//! globally time-ordered and routing is a pure function of the key,
//! every worker sees its keys' updates in the same order regardless of
//! the shard count — the aggregate decision report is identical for
//! `--shards 1`, `2` or `8` on the same seed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use rfd_core::{DampingParams, DecayMode};
use rfd_obs::{Histogram, Sampler};
use rfd_sim::{SimDuration, SimTime};

use crate::queue::SpscQueue;
use crate::report::{Aggregate, FirehoseReport, ShardPerf};
use crate::shard::{ShardOptions, ShardState};
use crate::telemetry::{DeltaTracker, ShardSnapshot};
use crate::workload::{shard_hash, Firehose, Update, WorkloadSpec};

/// Updates per hand-off, in both directions: the generator pushes a
/// shard's pending buffer when it holds this many, and a worker drains
/// at most this many per lock acquisition.
const BATCH: usize = 256;

/// Everything one engine run needs.
#[derive(Debug, Clone)]
pub struct FirehoseConfig {
    /// The synthetic workload to generate.
    pub spec: WorkloadSpec,
    /// Number of shard workers (and queues).
    pub shards: usize,
    /// Damping parameters every shard applies.
    pub params: DampingParams,
    /// Reuse/sweep boundary granularity in simulated time (default
    /// 10 s, the engine's historical hard-coded value).
    pub reuse_tick: SimDuration,
    /// Eviction sweeps run every this many reuse ticks (default 30).
    pub evict_every: u64,
    /// Penalty decay mode: exact `exp()` (the default, bit-identical
    /// to per-key [`Damper`](rfd_core::Damper)s) or bucketed
    /// fixed-point table lookup.
    pub decay: DecayMode,
    /// Stderr heartbeat period; `None` disables the monitor.
    pub heartbeat: Option<Duration>,
    /// Capacity of each shard's ingest queue.
    pub queue_capacity: usize,
}

impl FirehoseConfig {
    /// A config with engine defaults (1 shard, Cisco parameters, 10 s
    /// reuse tick, eviction every 30 ticks, exact decay, no heartbeat,
    /// 1024-slot queues).
    pub fn new(spec: WorkloadSpec) -> Self {
        FirehoseConfig {
            spec,
            shards: 1,
            params: DampingParams::cisco(),
            reuse_tick: ShardState::TICK,
            evict_every: ShardState::EVICT_EVERY,
            decay: DecayMode::Exact,
            heartbeat: None,
            queue_capacity: 1024,
        }
    }

    /// The per-shard state options this config implies.
    pub fn shard_options(&self) -> ShardOptions {
        ShardOptions {
            params: self.params,
            reuse_tick: self.reuse_tick,
            evict_every: self.evict_every,
            decay: self.decay,
        }
    }

    /// Checks the config is runnable.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on a degenerate workload spec,
    /// zero shards, a zero-capacity queue, a zero reuse tick, or a
    /// zero eviction period.
    pub fn validate(&self) -> Result<(), String> {
        self.spec.validate()?;
        if self.shards == 0 {
            return Err("shards must be at least 1".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue capacity must be at least 1".into());
        }
        if self.reuse_tick == SimDuration::ZERO {
            return Err("reuse tick must be positive".into());
        }
        if self.evict_every == 0 {
            return Err("eviction period must be at least 1 tick".into());
        }
        Ok(())
    }
}

/// Per-shard gauges shared between a worker and the observers (the
/// heartbeat and the telemetry callback). Workers write them
/// with relaxed operations at batch boundaries only — `processed`,
/// `suppressions` and `live_entries` advance together, once per drained
/// batch — so observation never perturbs the decision stream and the
/// three are readings of one instant.
#[derive(Debug, Default)]
struct ShardGauges {
    processed: AtomicU64,
    suppressions: AtomicU64,
    live_entries: AtomicU64,
}

/// Runs the firehose to completion and reports.
///
/// # Errors
///
/// Returns the [`FirehoseConfig::validate`] message on a bad config.
///
/// # Panics
///
/// Propagates panics from shard workers (a worker dying is a bug, not a
/// result).
pub fn run(config: &FirehoseConfig) -> Result<FirehoseReport, String> {
    run_with_telemetry(config, None)
}

/// Like [`run`], with an optional live-telemetry callback: every
/// `interval` of wall-clock time it receives one [`ShardSnapshot`] row
/// per shard, plus one final tick when the run ends (so even a
/// sub-interval run yields a complete snapshot set).
///
/// Telemetry is observation only — the aggregate report is identical
/// with or without it (tested).
///
/// # Errors
///
/// Returns the [`FirehoseConfig::validate`] message on a bad config.
///
/// # Panics
///
/// Propagates panics from shard workers, as [`run`] does.
#[allow(clippy::type_complexity)]
pub fn run_with_telemetry(
    config: &FirehoseConfig,
    telemetry: Option<(Duration, &mut (dyn FnMut(&[ShardSnapshot]) + Send))>,
) -> Result<FirehoseReport, String> {
    config.validate()?;
    let started = Instant::now();
    let hose = Firehose::new(&config.spec);
    let end = hose.end();
    let queues: Vec<SpscQueue<Update>> = (0..config.shards)
        .map(|_| SpscQueue::new(config.queue_capacity))
        .collect();
    let gauges: Vec<ShardGauges> = (0..config.shards).map(|_| ShardGauges::default()).collect();
    // One latency histogram per shard (the telemetry sampler reads
    // interval deltas per shard); the report's cross-shard histogram
    // is their exact bucket-wise merge.
    let shard_hists: Vec<Histogram> = (0..config.shards)
        .map(|_| Histogram::standalone())
        .collect();
    // Latest simulated instant the generator has emitted, in µs — the
    // heartbeat's progress signal (duration is simulated time, so wall
    // clock says nothing about how far along the run is).
    let sim_now_us = AtomicU64::new(0);
    let observed = Observed {
        started,
        sim_now_us: &sim_now_us,
        gauges: &gauges,
        queues: &queues,
        hists: &shard_hists,
    };
    let mut sampler = Sampler::new();
    if let Some(period) = config.heartbeat {
        let (observed, total_us) = (&observed, config.spec.duration.as_micros());
        let mut trackers = vec![DeltaTracker::new(); config.shards];
        sampler.every(period, move |last| {
            if !last {
                let rows = observed.rows(0, &mut trackers);
                eprintln!("{}", format_firehose_heartbeat(&rows, total_us));
            }
        });
    }
    if let Some((interval, sink)) = telemetry {
        let observed = &observed;
        let mut trackers = vec![DeltaTracker::new(); config.shards];
        let mut seq = 0;
        sampler.every(interval, move |_| {
            sink(&observed.rows(seq, &mut trackers));
            seq += 1;
        });
    }

    let aggregates: Vec<Aggregate> = sampler.run(|| {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..config.shards)
                .map(|i| {
                    let queue = &queues[i];
                    let gauge = &gauges[i];
                    let hist = shard_hists[i].clone();
                    let options = config.shard_options();
                    scope.spawn(move || shard_worker(queue, options, &hist, end, gauge))
                })
                .collect();

            let mut pending: Vec<Vec<Update>> = (0..config.shards)
                .map(|_| Vec::with_capacity(BATCH))
                .collect();
            for update in hose {
                let shard = (shard_hash(update.key()) % config.shards as u64) as usize;
                sim_now_us.store(update.at.as_micros(), Ordering::Relaxed);
                let buffer = &mut pending[shard];
                buffer.push(update);
                if buffer.len() == BATCH {
                    queues[shard].push_batch(buffer);
                }
            }
            for (queue, rest) in queues.iter().zip(&mut pending) {
                queue.push_batch(rest);
                queue.close();
            }
            workers
                .into_iter()
                .map(|h| h.join().expect("shard worker died"))
                .collect()
        })
    });

    let elapsed = started.elapsed().as_secs_f64();
    let mut aggregate = Aggregate::default();
    for shard_agg in &aggregates {
        aggregate.merge(shard_agg);
    }
    let decision_ns = Histogram::standalone();
    for hist in &shard_hists {
        decision_ns.merge_from(hist);
    }
    let shard_perf: Vec<ShardPerf> = (0..config.shards)
        .map(|i| ShardPerf {
            processed: gauges[i].processed.load(Ordering::Relaxed),
            max_queue_depth: queues[i].max_depth(),
            push_waits: queues[i].push_waits(),
            ..ShardPerf::default()
        })
        .collect();
    // The hand-off stays amortised: a shard's queue is locked for a
    // push once per `BATCH` updates (plus the tail) and once more per
    // backpressure wait — never once per update.
    for (queue, perf) in queues.iter().zip(&shard_perf) {
        debug_assert!(
            queue.batches() <= perf.processed / BATCH as u64 + perf.push_waits + 1,
            "{} moves for {} updates and {} waits",
            queue.batches(),
            perf.processed,
            perf.push_waits
        );
    }
    let updates_per_sec = aggregate.updates as f64 / elapsed.max(1e-9);
    Ok(FirehoseReport {
        workload: config.spec.kind.name(),
        shards: config.shards,
        seed: config.spec.seed,
        aggregate,
        shard_perf,
        elapsed_secs: elapsed,
        updates_per_sec,
        updates_per_sec_per_shard: updates_per_sec / config.shards as f64,
        decision_ns,
    })
}

/// One shard worker: drain a batch, apply it, repeat.
fn shard_worker(
    queue: &SpscQueue<Update>,
    options: ShardOptions,
    decision_ns: &Histogram,
    end: SimTime,
    gauge: &ShardGauges,
) -> Aggregate {
    let mut state = ShardState::with_options(options);
    let mut batch: Vec<Update> = Vec::with_capacity(BATCH);
    while queue.pop_batch(&mut batch, BATCH) {
        // One clock read per decision: each is timed from the end of
        // the one before. The stamp is taken afresh after `pop_batch`
        // returns, so an empty-queue wait is never recorded as decision
        // latency.
        let mut stamp = Instant::now();
        for &update in &batch {
            state.apply(update);
            let now = Instant::now();
            decision_ns.observe((now - stamp).as_nanos() as u64);
            stamp = now;
        }
        // Batch-boundary gauge refresh for the observers: cheap relaxed
        // writes once per drained batch, never per update.
        gauge
            .processed
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        batch.clear();
        gauge
            .suppressions
            .store(state.aggregate().suppressions, Ordering::Relaxed);
        gauge
            .live_entries
            .store(state.live_entries() as u64, Ordering::Relaxed);
    }
    state.finish(end)
}

/// What the observers read while a run is in flight.
struct Observed<'a> {
    started: Instant,
    sim_now_us: &'a AtomicU64,
    gauges: &'a [ShardGauges],
    queues: &'a [SpscQueue<Update>],
    hists: &'a [Histogram],
}

impl Observed<'_> {
    /// One [`ShardSnapshot`] row per shard, shard 0 first; `trackers`
    /// (one per shard) turn the cumulative readings into this
    /// interval's deltas.
    fn rows(&self, seq: u64, trackers: &mut [DeltaTracker]) -> Vec<ShardSnapshot> {
        let elapsed_secs = self.started.elapsed().as_secs_f64();
        let sim_us = self.sim_now_us.load(Ordering::Relaxed);
        (self.gauges.iter().zip(self.queues).zip(self.hists))
            .zip(trackers)
            .enumerate()
            .map(|(shard, (((gauge, queue), hist), tracker))| {
                let processed = gauge.processed.load(Ordering::Relaxed);
                let suppressions = gauge.suppressions.load(Ordering::Relaxed);
                let (processed_delta, rate_per_sec, p50_ns, p99_ns) =
                    tracker.advance(processed, elapsed_secs, &hist.nonzero_buckets());
                ShardSnapshot {
                    seq,
                    elapsed_secs,
                    sim_us,
                    shard,
                    processed,
                    processed_delta,
                    rate_per_sec,
                    suppressions,
                    suppression_ratio: if processed > 0 {
                        suppressions as f64 / processed as f64
                    } else {
                        0.0
                    },
                    queue_depth: queue.depth(),
                    max_queue_depth: queue.max_depth(),
                    push_waits: queue.push_waits(),
                    live_entries: gauge.live_entries.load(Ordering::Relaxed),
                    p50_ns,
                    p99_ns,
                }
            })
            .collect()
    }
}

/// One heartbeat line from one tick's rows: updates processed and
/// rate, simulated-time progress with wall-clock ETA, and per-shard
/// queue depths.
fn format_firehose_heartbeat(rows: &[ShardSnapshot], total_us: u64) -> String {
    let processed: u64 = rows.iter().map(|r| r.processed).sum();
    let (sim_now_us, elapsed_secs) = (rows[0].sim_us, rows[0].elapsed_secs);
    let frac = if total_us == 0 {
        1.0
    } else {
        (sim_now_us as f64 / total_us as f64).min(1.0)
    };
    let rate = processed as f64 / elapsed_secs.max(1e-9);
    let eta = if frac > 0.0 {
        format!("{:.1}s", (elapsed_secs / frac - elapsed_secs).max(0.0))
    } else {
        "?".to_owned()
    };
    let depths = rows
        .iter()
        .map(|r| r.queue_depth.to_string())
        .collect::<Vec<_>>()
        .join("/");
    format!(
        "firehose: {processed} updates ({rate:.0}/s) sim {:.0}% eta {eta} queues {depths}",
        frac * 100.0
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WorkloadKind;
    use rfd_sim::SimDuration;

    fn config(shards: usize, kind: WorkloadKind) -> FirehoseConfig {
        FirehoseConfig {
            shards,
            ..FirehoseConfig::new(WorkloadSpec {
                peers: 6,
                prefixes: 32,
                rate: 40.0,
                duration: SimDuration::from_secs(1800),
                kind,
                seed: 11,
            })
        }
    }

    #[test]
    fn aggregates_are_shard_count_invariant() {
        for kind in [WorkloadKind::Poisson, WorkloadKind::FlapStorm] {
            let one = run(&config(1, kind)).expect("runs");
            let four = run(&config(4, kind)).expect("runs");
            assert_eq!(one.aggregate, four.aggregate, "{kind:?}");
            assert!(
                one.aggregate.updates > 1000,
                "{kind:?}: too small to mean much"
            );
        }
    }

    #[test]
    fn flap_storm_exercises_every_decision_path() {
        // Suppressed storms need ~45 simulated minutes to decay to
        // release and ~60 to eviction; give the run three hours.
        let mut cfg = config(2, WorkloadKind::FlapStorm);
        cfg.spec.duration = SimDuration::from_secs(3 * 3600);
        let report = run(&cfg).expect("runs");
        let agg = report.aggregate;
        assert!(agg.suppressions > 0, "{agg:?}");
        assert!(agg.reuses > 0, "{agg:?}");
        assert!(agg.evictions > 0, "{agg:?}");
        assert!(report.decision_ns.count() == agg.updates);
        assert_eq!(
            report.shard_perf.iter().map(|p| p.processed).sum::<u64>(),
            agg.updates
        );
    }

    /// Batched hand-off loses and double-counts nothing: whatever the
    /// shard count and however small the queue (1 and 7 neither reach
    /// nor divide `BATCH`), every generated update is decided, counted
    /// and timed exactly once. Every run also passes `run`'s debug
    /// assertion that queue moves stay within
    /// `updates / BATCH + push_waits + 1` per shard.
    #[test]
    fn batched_hand_off_accounts_for_every_update() {
        let base = |shards, queue_capacity| {
            // ~24k updates: several batches for every shard of 8.
            let mut cfg = config(shards, WorkloadKind::Poisson);
            cfg.spec.duration = SimDuration::from_secs(600);
            cfg.queue_capacity = queue_capacity;
            cfg
        };
        let generated = Firehose::new(&base(1, 1).spec).count() as u64;
        let reference = run(&base(1, 1024)).expect("runs").aggregate;
        assert_eq!(reference.updates, generated);
        for shards in [1, 2, 8] {
            for queue_capacity in [1, 7, 1024] {
                let report = run(&base(shards, queue_capacity)).expect("runs");
                let label = format!("shards {shards} capacity {queue_capacity}");
                assert_eq!(report.aggregate, reference, "{label}");
                let processed: Vec<u64> = report.shard_perf.iter().map(|p| p.processed).collect();
                assert_eq!(processed.iter().sum::<u64>(), generated, "{label}");
                assert_eq!(report.decision_ns.count(), generated, "{label}");
                assert!(
                    processed.iter().any(|n| n % BATCH as u64 != 0),
                    "{label}: every shard ended on a full batch, the tail flush went untested"
                );
                for perf in &report.shard_perf {
                    assert!(perf.max_queue_depth <= queue_capacity, "{label}");
                }
            }
        }
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        let ok = config(1, WorkloadKind::Poisson);
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.shards = 0;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.queue_capacity = 0;
        assert!(bad.validate().is_err());
        let mut bad = ok.clone();
        bad.reuse_tick = SimDuration::ZERO;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.evict_every = 0;
        assert!(bad.validate().is_err());
        let mut bad = config(1, WorkloadKind::Poisson);
        bad.spec.rate = -1.0;
        assert!(run(&bad).is_err());
    }

    /// The shard-count-invariance contract holds in bucketed decay
    /// mode too: quantised decay is still a pure function of each
    /// key's own update stream.
    #[test]
    fn bucketed_mode_is_shard_count_invariant() {
        let bucketed = |shards| {
            let mut cfg = config(shards, WorkloadKind::FlapStorm);
            cfg.decay = DecayMode::Bucketed;
            cfg
        };
        let one = run(&bucketed(1)).expect("runs");
        let four = run(&bucketed(4)).expect("runs");
        assert_eq!(one.aggregate_signature(), four.aggregate_signature());
        assert!(one.aggregate.suppressions > 0, "storm must damp");
    }

    /// A coarser sweep cadence is visible in the aggregate (fewer or
    /// equal evictions by run end), but stays shard-count invariant.
    #[test]
    fn custom_boundary_knobs_are_honoured_and_invariant() {
        let coarse = |shards| {
            let mut cfg = config(shards, WorkloadKind::FlapStorm);
            cfg.spec.duration = SimDuration::from_secs(3 * 3600);
            cfg.reuse_tick = SimDuration::from_secs(60);
            cfg.evict_every = 60;
            cfg
        };
        let one = run(&coarse(1)).expect("runs");
        let three = run(&coarse(3)).expect("runs");
        assert_eq!(one.aggregate, three.aggregate);
        let mut default_cfg = config(1, WorkloadKind::FlapStorm);
        default_cfg.spec.duration = SimDuration::from_secs(3 * 3600);
        let default_run = run(&default_cfg).expect("runs");
        // 1 h eviction cadence vs 5 min: strictly less sweep work has
        // happened by the end of the run.
        assert!(
            one.aggregate.evictions <= default_run.aggregate.evictions,
            "coarse cadence evicted more ({} > {})",
            one.aggregate.evictions,
            default_run.aggregate.evictions
        );
        assert!(default_run.aggregate.evictions > 0);
    }

    #[test]
    fn heartbeat_format_is_stable() {
        let row = |shard, processed, queue_depth| ShardSnapshot {
            elapsed_secs: 2.0,
            sim_us: 600_000_000,
            shard,
            processed,
            queue_depth,
            ..ShardSnapshot::default()
        };
        let line = format_firehose_heartbeat(&[row(0, 3000, 3), row(1, 2000, 0)], 1_200_000_000);
        assert_eq!(
            line,
            "firehose: 5000 updates (2500/s) sim 50% eta 2.0s queues 3/0"
        );
        let idle = ShardSnapshot {
            sim_us: 0,
            ..row(0, 0, 1)
        };
        let line = format_firehose_heartbeat(&[idle], 100);
        assert!(line.contains("eta ?"), "{line}");
    }

    #[test]
    fn telemetry_ticks_cover_every_shard_and_reconcile_with_the_report() {
        let mut ticks: Vec<Vec<ShardSnapshot>> = Vec::new();
        let cfg = config(3, WorkloadKind::FlapStorm);
        let mut sink = |rows: &[ShardSnapshot]| ticks.push(rows.to_vec());
        let report =
            run_with_telemetry(&cfg, Some((Duration::from_millis(1), &mut sink))).expect("runs");
        assert!(!ticks.is_empty(), "at least the final tick must fire");
        for rows in &ticks {
            assert_eq!(rows.len(), 3, "one row per shard per tick");
            for (i, row) in rows.iter().enumerate() {
                assert_eq!(row.shard, i);
                assert_eq!(row.seq, rows[0].seq, "all rows of a tick share seq");
            }
        }
        // The final tick fires after the workers have drained, so its
        // cumulative counters equal the report's.
        let last = ticks.last().unwrap();
        assert_eq!(
            last.iter().map(|r| r.processed).sum::<u64>(),
            report.aggregate.updates
        );
        assert_eq!(
            last.iter().map(|r| r.suppressions).sum::<u64>(),
            report.aggregate.suppressions
        );
        assert_eq!(
            last.iter().map(|r| r.live_entries).sum::<u64>(),
            report.aggregate.live_entries
        );
        // Cumulative counters never move backwards across ticks.
        for shard in 0..3 {
            let series: Vec<u64> = ticks.iter().map(|rows| rows[shard].processed).collect();
            assert!(series.windows(2).all(|w| w[0] <= w[1]), "{series:?}");
        }
    }

    /// The telemetry side of the non-perturbation contract: sampling
    /// must not change a single decision, at one shard or several.
    #[test]
    fn telemetry_does_not_perturb_the_aggregate() {
        for shards in [1, 2] {
            let plain = run(&config(shards, WorkloadKind::FlapStorm)).expect("runs");
            let sampled = run_with_telemetry(
                &config(shards, WorkloadKind::FlapStorm),
                Some((Duration::from_millis(1), &mut |_: &[ShardSnapshot]| {})),
            )
            .expect("runs");
            assert_eq!(
                plain.aggregate_signature(),
                sampled.aggregate_signature(),
                "telemetry perturbed the run at shards={shards}"
            );
            assert_eq!(plain.decision_ns.count(), sampled.decision_ns.count());
        }
    }

    #[test]
    fn per_shard_histograms_merge_into_the_report_total() {
        let report = run(&config(4, WorkloadKind::Poisson)).expect("runs");
        assert_eq!(
            report.decision_ns.count(),
            report.aggregate.updates,
            "merged histogram covers every decision exactly once"
        );
        assert!(report.decision_ns.sum() > 0);
    }

    #[test]
    fn heartbeat_monitor_runs_and_stops() {
        let mut cfg = config(2, WorkloadKind::Poisson);
        cfg.heartbeat = Some(Duration::from_millis(1));
        let report = run(&cfg).expect("runs");
        assert!(report.aggregate.updates > 0);
    }
}
