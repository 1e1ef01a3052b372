//! The ISSUE-4 benchmark: streaming sink dispatch versus the buffered
//! `Vec<TraceEvent>` pipeline. `sink/record/*` measures raw per-event
//! cost of each sink shape on a synthetic stream; `torus10x10/*`
//! measures the end-to-end effect on a full damped pulse run.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rfd_bgp::{Network, NetworkConfig};
use rfd_metrics::{
    ConvergenceTracker, MessageCounter, NullSink, SuppressionStats, TraceEventKind, TraceSink,
    VecSink,
};
use rfd_sim::{SimDuration, SimTime};
use rfd_topology::{mesh_torus, NodeId};

/// A deterministic stream shaped like real simulation traffic: mostly
/// update send/receive pairs, with periodic penalty samples and
/// suppression lifecycle events.
fn synthetic_stream(n: usize) -> Vec<(SimTime, TraceEventKind)> {
    let mut out = Vec::with_capacity(n);
    let mut t = SimTime::ZERO;
    out.push((
        t,
        TraceEventKind::OriginFlap {
            prefix: 0,
            up: true,
        },
    ));
    for i in 0..n - 1 {
        t += SimDuration::from_micros(50_000 * ((i % 3) as u64));
        let node = (i % 16) as u32;
        let peer = ((i + 1) % 16) as u32;
        out.push((
            t,
            match i % 10 {
                0..=3 => TraceEventKind::UpdateSent {
                    from: node,
                    to: peer,
                    withdrawal: i % 2 == 0,
                },
                4..=7 => TraceEventKind::UpdateReceived {
                    from: peer,
                    to: node,
                    withdrawal: i % 2 == 0,
                },
                8 => TraceEventKind::PenaltySample {
                    node,
                    peer,
                    prefix: 0,
                    value: 900.0 + (i % 100) as f64,
                    charge: 1000.0,
                    suppressed: i % 4 == 0,
                },
                _ => {
                    if i % 20 == 9 {
                        TraceEventKind::Suppressed {
                            node,
                            peer,
                            prefix: 0,
                        }
                    } else {
                        TraceEventKind::Reused {
                            node,
                            peer,
                            prefix: 0,
                            noisy: i % 2 == 0,
                        }
                    }
                }
            },
        ));
    }
    out
}

fn drive<S: TraceSink>(mut sink: S, stream: &[(SimTime, TraceEventKind)]) -> S {
    for (at, kind) in stream {
        sink.record(*at, *kind);
    }
    sink.finish();
    sink
}

fn bench_sink_record(c: &mut Criterion) {
    let stream = synthetic_stream(10_000);
    let mut group = c.benchmark_group("sink/record_10k");
    group.bench_function("vec", |b| {
        b.iter(|| black_box(drive(VecSink::new(), &stream).len()));
    });
    group.bench_function("null", |b| {
        b.iter(|| black_box(drive(NullSink::new(), &stream).seen()));
    });
    group.bench_function("aggregate_tuple3", |b| {
        b.iter(|| {
            let sink = (
                ConvergenceTracker::new(),
                MessageCounter::new(),
                SuppressionStats::new(),
            );
            let (conv, msgs, stats) = drive(sink, &stream);
            black_box((
                conv.convergence_time(),
                msgs.message_count(),
                stats.ever_suppressed_entries(),
            ))
        });
    });
    group.finish();
}

fn bench_network_end_to_end(c: &mut Criterion) {
    let g = mesh_torus(10, 10);
    let mut group = c.benchmark_group("torus10x10");
    group.sample_size(10);
    group.bench_function("damped_3pulses/vec_sink", |b| {
        b.iter(|| {
            let mut net = Network::new(&g, NodeId::new(42), NetworkConfig::paper_full_damping(7));
            let report = net.run_paper_workload(3);
            black_box((report.message_count, net.trace().len()))
        });
    });
    group.bench_function("damped_3pulses/aggregate_sink", |b| {
        b.iter(|| {
            let mut net = Network::new_with_sink(
                &g,
                NodeId::new(42),
                NetworkConfig::paper_full_damping(7),
                SuppressionStats::new(),
            );
            let report = net.run_paper_workload(3);
            black_box((
                report.message_count,
                net.into_sink().ever_suppressed_entries(),
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_sink_record, bench_network_end_to_end);
criterion_main!(benches);
