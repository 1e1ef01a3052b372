//! Per-layer probes. Every layer is measured from outside: a probe
//! times calls into the layer's public functions, on inputs taken from
//! the workload's own traced pass where the workload exercises the
//! layer and from a small reference input where it does not (so every
//! row is a real measurement on every workload; the README lists which
//! rows are which). Probes run alone, with warm caches: their
//! `share_est` rows are estimates, not attributions.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use rfd_bgp::{
    snapshot, Network, NetworkConfig, PathTable, PenaltyFilter, Policy, ProtocolOptions, Route,
    Router, RouterConfig, RouterOutput, Snapshot, UpdateMessage,
};
use rfd_core::{DamperStore, DampingParams, FlapPattern, UpdateKind};
use rfd_experiments::pick_isp;
use rfd_firehose::{Firehose, FirehoseConfig, FirehoseReport};
use rfd_metrics::{
    ConvergenceTracker, MessageCounter, NullSink, SuppressionStats, TraceEvent, TraceSink,
    UpdateBins, VecSink,
};
use rfd_sim::{DetRng, SimDuration, SimTime, TimerWheel};
use rfd_topology::{mesh_torus, partition, NodeId};

use crate::span::Spans;
use crate::stats::Summary;
use crate::workloads::{des_run, measured_cells, DesRun, Rep, Workload, THREADS};

/// One per-layer row: name, unit, value.
pub type Row = (&'static str, &'static str, f64);

fn ns_per(op_count: usize, started: Instant) -> f64 {
    started.elapsed().as_nanos() as f64 / op_count.max(1) as f64
}

// ---- bgp.network, topology ----------------------------------------------

/// Rows read off a finished DES repetition and its spans.
pub fn network_rows(run: &DesRun, rep: &Rep, spans: &Spans, rows: &mut Vec<Row>) {
    let run_s = rep.run.wall_s;
    let events = run.report.events_processed as f64;
    let windows = run.net.windows() as f64;
    let shards = run.net.shard_count() as f64;
    rows.extend([
        ("bgp.network.new_s", "s", spans.seconds("bgp.network.new")),
        (
            "bgp.network.warm_up_s",
            "s",
            spans.seconds("bgp.network.warm_up"),
        ),
        ("bgp.network.run_s", "s", run_s),
        ("bgp.network.events", "count", events),
        ("bgp.network.events_per_s", "1/s", events / run_s),
        ("bgp.network.ns_per_event", "ns", run_s * 1e9 / events),
        (
            "bgp.network.dropped",
            "count",
            run.net.dropped_messages() as f64,
        ),
        ("bgp.network.windows", "count", windows),
        ("bgp.network.events_per_window", "count", events / windows),
        (
            "bgp.network.stall_share",
            "ratio",
            run.run_stall_s / (run_s * shards),
        ),
        (
            "topology.generators.build_s",
            "s",
            spans.seconds("topology.build"),
        ),
        (
            "topology.partition.cut_fraction",
            "ratio",
            partition(&run.input.graph, THREADS).cut_fraction(&run.input.graph),
        ),
    ]);
}

// ---- sim.wheel ----------------------------------------------------------

/// Timer-wheel operations at a BGP delay mix (link delays, MRAI holds,
/// reuse timers) with `population` timers pending.
pub fn wheel_rows(population: usize, events: u64, run_s: f64, rows: &mut Vec<Row>) {
    const BLOCK: usize = 256;
    const BLOCKS: usize = 800;
    let mut rng = DetRng::from_seed_and_label(1, "ledger-wheel");
    let mut delay = move || {
        let (lo_ms, hi_ms) = match rng.below(10) {
            0..=5 => (10, 500),
            6..=8 => (22_500, 30_000),
            _ => (600_000, 2_400_000),
        };
        rng.duration_between(
            SimDuration::from_millis(lo_ms),
            SimDuration::from_millis(hi_ms),
        )
    };
    let mut wheel: TimerWheel<u32> = TimerWheel::new();
    let mut key = 0u64;
    let mut now = SimTime::ZERO;
    for _ in 0..population.max(BLOCK) {
        key += 1;
        wheel.schedule_keyed(now + delay(), key, 0);
    }
    let (mut pop_ns, mut schedule_ns, mut cancel_ns) = (0u128, 0u128, 0u128);
    let mut ids = Vec::with_capacity(BLOCK);
    for _ in 0..BLOCKS {
        let delays: Vec<SimDuration> = (0..2 * BLOCK).map(|_| delay()).collect();
        let started = Instant::now();
        for _ in 0..BLOCK {
            let (at, _, event) = wheel.pop_keyed().expect("the population never drains");
            now = at;
            black_box(event);
        }
        pop_ns += started.elapsed().as_nanos();
        let started = Instant::now();
        for d in &delays[..BLOCK] {
            key += 1;
            black_box(wheel.schedule_keyed(now + *d, key, 0));
        }
        schedule_ns += started.elapsed().as_nanos();
        ids.clear();
        for d in &delays[BLOCK..] {
            key += 1;
            ids.push(wheel.schedule_keyed(now + *d, key, 0));
        }
        let started = Instant::now();
        for &id in &ids {
            black_box(wheel.cancel(id));
        }
        cancel_ns += started.elapsed().as_nanos();
    }
    let ops = (BLOCK * BLOCKS) as f64;
    let (schedule, pop) = (schedule_ns as f64 / ops, pop_ns as f64 / ops);
    rows.extend([
        ("sim.wheel.schedule_ns", "ns", schedule),
        ("sim.wheel.pop_ns", "ns", pop),
        ("sim.wheel.cancel_ns", "ns", cancel_ns as f64 / ops),
        (
            "sim.wheel.share_est",
            "ratio",
            (schedule + pop) * events as f64 / (run_s * 1e9),
        ),
    ]);
}

// ---- bgp.router ---------------------------------------------------------

/// A lone router with `peers` neighbours, each of which has announced a
/// two-hop route to AS 1000 (the set-up `benches/decision.rs` uses).
struct RouterRig {
    table: PathTable,
    router: Router,
    rng: DetRng,
    policy: Policy,
    /// Two routes peer 1 alternates between, so every update changes
    /// attributes and the decision process has work.
    short: Route,
    long: Route,
}

impl RouterRig {
    fn new(peers: usize, damping: bool) -> RouterRig {
        let config = RouterConfig {
            damping: damping.then(DampingParams::cisco),
            filter: PenaltyFilter::Plain,
            mrai: SimDuration::from_secs(30),
            mrai_jitter: (0.75, 1.0),
            protocol: ProtocolOptions::default(),
        };
        let mut table = PathTable::new();
        let peer_ids = (1..=peers as u32).map(NodeId::new).collect();
        let router = Router::new(NodeId::new(0), peer_ids, false, config, &mut table);
        let base = table.originate(NodeId::new(1000));
        let via999 = table.prepend(base, NodeId::new(999));
        let mut rig = RouterRig {
            long: table.prepend(via999, NodeId::new(1)),
            short: table.prepend(base, NodeId::new(1)),
            table,
            router,
            rng: DetRng::from_seed(1),
            policy: Policy::ShortestPath,
        };
        for p in 1..=peers as u32 {
            let route = rig.table.prepend(base, NodeId::new(p));
            rig.update(SimTime::ZERO, p, &UpdateMessage::announce(route));
        }
        rig
    }

    fn update(&mut self, now: SimTime, peer: u32, msg: &UpdateMessage) -> RouterOutput {
        let mut out = RouterOutput::default();
        self.router.handle_update(
            now,
            NodeId::new(peer),
            msg,
            &mut self.table,
            &mut self.rng,
            &self.policy,
            &mut out,
        );
        out
    }

    /// Steady-state `handle_update`: peer 1 flips its route every
    /// 200 ms, damping on, MRAI timers left pending.
    fn handle_update_ns(&mut self, iterations: usize) -> f64 {
        let mut now = SimTime::from_secs(1);
        let started = Instant::now();
        for i in 0..iterations {
            now += SimDuration::from_millis(200);
            let route = if i % 2 == 0 { self.long } else { self.short };
            black_box(
                self.update(now, 1, &UpdateMessage::announce(route))
                    .sends
                    .len(),
            );
        }
        ns_per(iterations, started)
    }

    /// MRAI expiries that flush a held announcement: each round flips
    /// the best route twice inside one MRAI window (the second flip is
    /// held behind a timer per peer), then fires the timers.
    fn mrai_expiry_ns(&mut self, rounds: usize) -> f64 {
        let mut now = SimTime::from_secs(1);
        let (mut fired, mut spent_ns) = (0usize, 0u128);
        for _ in 0..rounds {
            now += SimDuration::from_secs(40);
            self.update(now, 1, &UpdateMessage::announce(self.long));
            now += SimDuration::from_millis(200);
            let held = self.update(now, 1, &UpdateMessage::announce(self.short));
            let started = Instant::now();
            for &(peer, prefix, at) in &held.mrai_timers {
                let mut out = RouterOutput::default();
                self.router.on_mrai_expiry(
                    at,
                    peer,
                    prefix,
                    &mut self.table,
                    &mut self.rng,
                    &self.policy,
                    &mut out,
                );
                black_box(out.sends.len());
            }
            spent_ns += started.elapsed().as_nanos();
            fired += held.mrai_timers.len();
            now += SimDuration::from_secs(40);
        }
        assert!(fired > 0, "the MRAI probe armed no timer");
        spent_ns as f64 / fired as f64
    }

    /// Reuse timers that release a suppressed entry: each round every
    /// peer flaps until its entry is suppressed, then the armed timers
    /// fire at their deadlines.
    fn reuse_timer_ns(&mut self, peers: u32, rounds: usize) -> f64 {
        let mut now = SimTime::from_secs(1);
        let (mut fired, mut spent_ns) = (0usize, 0u128);
        for _ in 0..rounds {
            let mut armed = Vec::new();
            for p in 1..=peers {
                let base = self.table.originate(NodeId::new(1000));
                let route = self.table.prepend(base, NodeId::new(p));
                for _ in 0..8 {
                    now += SimDuration::from_secs(1);
                    let down = self.update(now, p, &UpdateMessage::withdraw());
                    now += SimDuration::from_secs(1);
                    let up = self.update(now, p, &UpdateMessage::announce(route));
                    let timers: Vec<_> = down
                        .reuse_timers
                        .into_iter()
                        .chain(up.reuse_timers)
                        .collect();
                    if !timers.is_empty() {
                        armed.extend(timers);
                        break;
                    }
                }
            }
            armed.sort_by_key(|&(_, _, at)| at);
            let started = Instant::now();
            for &(peer, prefix, at) in &armed {
                let mut out = RouterOutput::default();
                self.router.on_reuse_timer(
                    at,
                    peer,
                    prefix,
                    &mut self.table,
                    &mut self.rng,
                    &self.policy,
                    &mut out,
                );
                black_box(out.sends.len());
                now = now.max(at);
            }
            spent_ns += started.elapsed().as_nanos();
            fired += armed.len();
        }
        assert!(fired > 0, "the reuse probe armed no timer");
        spent_ns as f64 / fired as f64
    }
}

pub fn router_rows(updates: u64, run_s: f64, rows: &mut Vec<Row>) {
    let p4 = RouterRig::new(4, true).handle_update_ns(200_000);
    rows.extend([
        ("bgp.router.handle_update_ns", "ns", p4),
        (
            "bgp.router.handle_update_64p_ns",
            "ns",
            RouterRig::new(64, true).handle_update_ns(50_000),
        ),
        (
            "bgp.router.mrai_expiry_ns",
            "ns",
            RouterRig::new(4, false).mrai_expiry_ns(20_000),
        ),
        (
            "bgp.router.reuse_timer_ns",
            "ns",
            RouterRig::new(64, true).reuse_timer_ns(64, 100),
        ),
        (
            "bgp.router.share_est",
            "ratio",
            p4 * updates as f64 / (run_s * 1e9),
        ),
    ]);
}

// ---- bgp.intern ---------------------------------------------------------

/// Interner operations replayed over the paths a finished run interned.
pub fn intern_rows(table: &PathTable, run_s: f64, rows: &mut Vec<Row>) {
    const MAX_PATHS: usize = 200_000;
    let paths: Vec<&[NodeId]> = table
        .paths()
        .filter(|p| p.len() >= 2)
        .take(MAX_PATHS)
        .collect();
    let stats = table.stats();
    let lookups = (stats.hits + stats.misses) as f64;
    let hit_ratio = stats.hits as f64 / lookups;

    // Every path is `head` prepended to its tail: intern the tails,
    // then time the prepends — first pass misses, second pass hits.
    let mut replay = PathTable::new();
    let tails: Vec<(Route, NodeId)> = paths
        .iter()
        .map(|p| (replay.from_path(&p[1..]), p[0]))
        .collect();
    let pass = |replay: &mut PathTable| {
        let started = Instant::now();
        for &(tail, head) in &tails {
            black_box(replay.prepend(tail, head));
        }
        ns_per(tails.len(), started)
    };
    let miss_ns = pass(&mut replay);
    let hit_ns = pass(&mut replay);
    let prepend_ns = hit_ratio * hit_ns + (1.0 - hit_ratio) * miss_ns;

    let routes: Vec<(Route, NodeId)> = paths
        .iter()
        .map(|p| (replay.from_path(p), p[p.len() / 2]))
        .collect();
    let started = Instant::now();
    for &(route, member) in &routes {
        black_box(replay.contains(route, member));
        black_box(replay.contains(route, NodeId::new(u32::MAX)));
    }
    let contains_ns = ns_per(2 * routes.len(), started);

    rows.extend([
        ("bgp.intern.prepend_ns", "ns", prepend_ns),
        ("bgp.intern.contains_ns", "ns", contains_ns),
        ("bgp.intern.hit_ratio", "ratio", hit_ratio),
        ("bgp.intern.paths", "count", stats.distinct as f64),
        ("bgp.intern.bytes", "bytes", stats.bytes as f64),
        (
            "bgp.intern.share_est",
            "ratio",
            prepend_ns * lookups / (run_s * 1e9),
        ),
    ]);
}

// ---- core.store, firehose -----------------------------------------------

/// The damper store fed straight from the workload's generator (no
/// queue, keys resolved to slots beforehand), and the generator alone.
pub fn firehose_rows(
    config: &FirehoseConfig,
    report: &FirehoseReport,
    run_s: f64,
    rows: &mut Vec<Row>,
) {
    const MAX_UPDATES: usize = 600_000;
    let started = Instant::now();
    let generated = Firehose::new(&config.spec).count();
    let generate_ns = ns_per(generated, started);

    let updates: Vec<_> = Firehose::new(&config.spec).take(MAX_UPDATES).collect();
    let end = updates.last().expect("the firehose generated updates").at;
    let charge_ns = |mut store: DamperStore| {
        let mut index: HashMap<u64, u32> = HashMap::new();
        let resolved: Vec<(u32, SimTime, UpdateKind)> = updates
            .iter()
            .map(|u| {
                let slot = *index
                    .entry(u.key())
                    .or_insert_with(|| store.insert(u.key()));
                (slot, u.at, u.kind)
            })
            .collect();
        let started = Instant::now();
        for &(slot, at, kind) in &resolved {
            black_box(store.record_update(slot, at, kind));
        }
        (ns_per(resolved.len(), started), store, index)
    };
    let (charge_bucketed_ns, ..) = charge_ns(DamperStore::bucketed_default(config.params));
    let (charge_exact_ns, mut store, index) = charge_ns(DamperStore::exact(config.params));

    // Reuse checks at the deadline, on the entries the stream
    // suppressed plus enough forced ones to time a few thousand.
    for &slot in index.values().take(4096) {
        store.charge_raw(slot, end, 2.0 * config.params.cutoff_threshold());
    }
    let due: Vec<(u32, SimTime)> = index
        .values()
        .filter_map(|&slot| Some((slot, store.reuse_deadline(slot)?)))
        .collect();
    let started = Instant::now();
    for &(slot, at) in &due {
        black_box(store.on_reuse_due(slot, at));
    }
    let reuse_due_ns = ns_per(due.len(), started);

    let entries = store.len();
    let long_after = end + SimDuration::from_secs(1_000_000);
    let started = Instant::now();
    black_box(store.sweep_forgettable(long_after, |_, _| {}));
    let sweep_ns_per_entry = ns_per(entries, started);

    let agg = &report.aggregate;
    let perf = &report.shard_perf;
    let busy_ns = run_s * 1e9;
    rows.extend([
        ("core.store.charge_exact_ns", "ns", charge_exact_ns),
        ("core.store.charge_bucketed_ns", "ns", charge_bucketed_ns),
        ("core.store.reuse_due_ns", "ns", reuse_due_ns),
        ("core.store.sweep_ns_per_entry", "ns", sweep_ns_per_entry),
        ("core.store.live_entries", "count", agg.live_entries as f64),
        ("core.store.evictions", "count", agg.evictions as f64),
        (
            "core.store.share_est",
            "ratio",
            charge_exact_ns * agg.updates as f64 / busy_ns,
        ),
        ("firehose.workload.generate_ns", "ns", generate_ns),
        (
            "firehose.workload.share_est",
            "ratio",
            generate_ns * agg.updates as f64 / busy_ns,
        ),
        (
            "firehose.queue.push_waits",
            "count",
            perf.iter().map(|p| p.push_waits).sum::<u64>() as f64,
        ),
        (
            "firehose.queue.max_depth",
            "count",
            perf.iter().map(|p| p.max_queue_depth).max().unwrap_or(0) as f64,
        ),
        (
            "firehose.shard.decision_p50_ns",
            "ns",
            report.decision_ns.percentile(50.0),
        ),
        (
            "firehose.shard.decision_p99_ns",
            "ns",
            report.decision_ns.percentile(99.0),
        ),
        (
            "firehose.shard.decision_mean_ns",
            "ns",
            report.decision_ns.mean(),
        ),
        (
            "firehose.shard.suppressions",
            "count",
            agg.suppressions as f64,
        ),
        ("firehose.shard.reuses", "count", agg.reuses as f64),
        ("firehose.shard.evictions", "count", agg.evictions as f64),
    ]);
}

// ---- metrics.sink -------------------------------------------------------

fn replay_ns<S: TraceSink>(mut sink: S, events: &[TraceEvent]) -> f64 {
    let started = Instant::now();
    for e in events {
        sink.record(e.at, e.kind);
    }
    sink.finish();
    let ns = ns_per(events.len(), started);
    black_box(sink.retained_events());
    ns
}

/// The run's recorded events replayed into the buffering sink and into
/// the streaming aggregators, plus the whole-run cost of buffering:
/// `vec_run_s` (the untraced median with `VecSink`) over one more run
/// of the same input with `NullSink`.
pub fn sink_rows(
    workload: &Workload,
    seed: u64,
    run: &DesRun,
    vec_run_s: f64,
    rows: &mut Vec<Row>,
) {
    let events = run.net.trace().events();
    let vec_ns = replay_ns(VecSink::new(), events);
    let streaming = (
        ConvergenceTracker::new(),
        MessageCounter::new(),
        UpdateBins::default(),
        SuppressionStats::new(),
    );
    let streaming_ns = replay_ns(streaming, events);
    let mut off = Spans::new(false);
    let (null_rep, _) = des_run(
        workload.des_input(seed),
        NullSink::new(),
        Instant::now(),
        &mut off,
    );
    rows.extend([
        ("metrics.sink.vec_ns_per_event", "ns", vec_ns),
        ("metrics.sink.streaming_ns_per_event", "ns", streaming_ns),
        ("metrics.sink.retained_events", "count", events.len() as f64),
        (
            "metrics.sink.run_ratio",
            "ratio",
            vec_run_s / null_rep.run.wall_s,
        ),
        (
            "metrics.sink.share_est",
            "ratio",
            vec_ns * events.len() as f64 / (vec_run_s * 1e9),
        ),
    ]);
}

// ---- bgp.snapshot -------------------------------------------------------

/// Warm-state capture/write and read/resume on a warm torus (no
/// workload pays for snapshots today, so this moves no end-to-end row).
pub fn snapshot_rows(side: usize, scratch: &Path, rows: &mut Vec<Row>) {
    let graph = mesh_torus(side, side);
    let isp = NodeId::new(42);
    let config = NetworkConfig::paper_full_damping(7);
    let key = snapshot::fingerprints(&graph, &[isp], &config);
    let mut net = Network::new(&graph, isp, config.clone());
    net.warm_up();
    let path = scratch.join("probe.snap");
    let (mut write_ms, mut read_ms, mut bytes) = (Vec::new(), Vec::new(), 0);
    for _ in 0..5 {
        let started = Instant::now();
        let snap = Snapshot::capture(&mut net, key).expect("capture a warm network");
        bytes = snap.write(&path).expect("write the snapshot");
        write_ms.push(started.elapsed().as_secs_f64() * 1e3);

        let started = Instant::now();
        let loaded = Snapshot::read(&path).expect("read the snapshot back");
        let mut resumed = Network::new(&graph, isp, config.clone());
        loaded
            .resume_into(&mut resumed, &key)
            .expect("resume from the snapshot");
        read_ms.push(started.elapsed().as_secs_f64() * 1e3);
        black_box(resumed.events_processed());
    }
    std::fs::remove_file(&path).expect("remove the probe snapshot");
    rows.extend([
        (
            "bgp.snapshot.capture_write_ms",
            "ms",
            Summary::of(&write_ms).median,
        ),
        (
            "bgp.snapshot.read_resume_ms",
            "ms",
            Summary::of(&read_ms).median,
        ),
        ("bgp.snapshot.bytes", "bytes", bytes as f64),
    ]);
}

// ---- runner, experiments ------------------------------------------------

/// Pool, journal and per-cell set-up cost of the sweep `workload`
/// (`fig8_sweep` itself, or its quick size as the reference).
pub fn sweep_rows(workload: &Workload, seed: u64, scratch: &Path, rows: &mut Vec<Row>) {
    const PAIRS: usize = 3;
    let journal = scratch.join("probe-journal");
    let (mut with, mut without, mut cpu, mut cells) = (Vec::new(), Vec::new(), Vec::new(), 0);
    let timed = |dir: Option<&Path>| {
        if let Some(dir) = dir {
            std::fs::create_dir_all(dir).expect("create the journal directory");
        }
        let opts = workload.sweep_options(seed, dir.map(Path::to_path_buf));
        let meter = crate::workloads::Meter::start();
        let sweep = workload.run_sweep(&opts);
        let region = meter.stop();
        if let Some(dir) = dir {
            std::fs::remove_dir_all(dir).expect("remove the journal directory");
        }
        (region, measured_cells(&sweep, &opts))
    };
    for pair in 0..PAIRS {
        // Alternate which side of the pair runs first.
        for journaled in [pair % 2 == 0, pair % 2 != 0] {
            let (region, n) = timed(journaled.then_some(journal.as_path()));
            if journaled {
                cpu.push(region.cpu_s / (region.wall_s * THREADS as f64));
                with.push(region.wall_s);
                cells = n;
            } else {
                without.push(region.wall_s);
            }
        }
    }
    let wall_s = Summary::of(&with).median;

    // Per-cell set-up share, single-threaded: the grid's cells run here
    // one by one with construction + warm-up timed apart from the run.
    let opts = workload.sweep_options(seed, None);
    let (mut setup_s, mut total_s) = (0.0, 0.0);
    for (kind, cell_seed, graph) in workload.sweep_graphs(&opts) {
        let isp = pick_isp(&graph, cell_seed);
        let mut configs = vec![NetworkConfig::paper_full_damping(cell_seed)];
        if matches!(kind, rfd_experiments::TopologyKind::Mesh { .. }) {
            configs.push(NetworkConfig::paper_no_damping(cell_seed));
        }
        for config in configs {
            for pulses in 0..=opts.max_pulses {
                let started = Instant::now();
                let mut net =
                    Network::new_with_sink(&graph, isp, config.clone(), SuppressionStats::new());
                net.warm_up();
                setup_s += started.elapsed().as_secs_f64();
                black_box(net.run_pulses(
                    FlapPattern::paper_default(pulses),
                    SimDuration::from_secs(100),
                ));
                total_s += started.elapsed().as_secs_f64();
            }
        }
    }
    rows.extend([
        (
            "runner.pool.cpu_utilisation",
            "ratio",
            Summary::of(&cpu).median,
        ),
        ("runner.cells", "count", cells as f64),
        ("runner.cells_per_s", "1/s", cells as f64 / wall_s),
        (
            "runner.journal.delta_s",
            "s",
            wall_s - Summary::of(&without).median,
        ),
        (
            "experiments.sweep.setup_share_est",
            "ratio",
            setup_s / total_s,
        ),
    ]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn router_probes_arm_and_fire_their_timers() {
        assert!(RouterRig::new(4, true).handle_update_ns(200) > 0.0);
        assert!(RouterRig::new(4, false).mrai_expiry_ns(20) > 0.0);
        assert!(RouterRig::new(8, true).reuse_timer_ns(8, 3) > 0.0);
    }

    #[test]
    fn wheel_probe_keeps_its_population() {
        let mut rows = Vec::new();
        wheel_rows(1000, 1000, 1.0, &mut rows);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|&(_, _, v)| v > 0.0));
    }
}
