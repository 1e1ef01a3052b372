//! The ISSUE-9 sharded-engine benchmark: full paper workloads on the
//! two scale topologies (a 40×40 torus and a 10,000-node BA graph) at
//! 1, 2 and 4 simulation shards.
//!
//! Besides the criterion wall-time rows, each configuration prints an
//! `events/sec` line with the engine's own counters (events processed,
//! barrier windows, cumulative barrier-stall time). On a single-core
//! container the shard workers time-slice one CPU, so sharding cannot
//! beat the sequential engine on wall time here; the interesting
//! outputs are the protocol overhead (windows, stall) and the proof
//! that the 10k-node run completes under the sharded engine at all.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rfd_bgp::{Network, NetworkConfig};
use rfd_topology::{internet_like, mesh_torus, Graph, NodeId};

fn run_and_report(label: &str, g: &Graph, isp: NodeId, pulses: usize, shards: usize) -> usize {
    let mut config = NetworkConfig::paper_full_damping(7);
    config.sim_shards = shards;
    let started = std::time::Instant::now();
    let mut net = Network::new(g, isp, config);
    let report = net.run_paper_workload(pulses);
    let wall = started.elapsed();
    let events = net.events_processed();
    eprintln!(
        "{label}/shards{shards}: {events} events in {:.3}s = {:.0} events/sec, \
         {} windows, barrier stall {:.3}s",
        wall.as_secs_f64(),
        events as f64 / wall.as_secs_f64(),
        net.windows(),
        net.barrier_stall().as_secs_f64(),
    );
    report.message_count
}

fn bench_sharded_runs(c: &mut Criterion) {
    let torus = mesh_torus(40, 40);
    let mut group = c.benchmark_group("sharded_torus40x40");
    group.sample_size(10);
    for shards in [1usize, 2, 4] {
        group.bench_function(&format!("full_damping_3_shards{shards}")[..], |b| {
            b.iter(|| {
                black_box(run_and_report(
                    "torus40x40",
                    &torus,
                    NodeId::new(42),
                    3,
                    shards,
                ))
            });
        });
    }
    group.finish();

    // The scale acceptance run: a 10k-node BA graph under full damping.
    // One pulse keeps a sample under a minute on one core; the BA hub
    // structure still forces heavy path exploration through the cut
    // edges (the FNV partition cuts most links at these shard counts).
    let ba = internet_like(10_000, 2, 11);
    let mut group = c.benchmark_group("sharded_ba10000");
    group.sample_size(2);
    for shards in [1usize, 2, 4] {
        group.bench_function(&format!("full_damping_1_shards{shards}")[..], |b| {
            b.iter(|| black_box(run_and_report("ba10000", &ba, NodeId::new(0), 1, shards)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sharded_runs);
criterion_main!(benches);
