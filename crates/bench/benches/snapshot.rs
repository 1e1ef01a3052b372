//! The ISSUE-10 snapshot benchmark: warm-state capture/write and
//! read/restore latency plus file size on the two scale topologies,
//! and the warm-fork saving on a fig8-style quick sweep grid.
//!
//! Each configuration prints a `snapshot:` line with the file size and
//! one-shot save/restore wall times, and the sweep section prints
//! cold-vs-forked wall times. On this 1-vCPU container the warm-fork
//! saving is exactly the warm-up fraction of each cell's wall time; it
//! grows with topology size and shrinks as the measured pulse count
//! grows.

use std::time::Instant;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rfd_bgp::{snapshot, Network, NetworkConfig, Snapshot};
use rfd_experiments::{measure_sweep, SeriesSpec, SweepOptions, TopologyKind};
use rfd_topology::{internet_like, mesh_torus, Graph, NodeId};

fn scratch(label: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("rfd-bench-{}-{label}.snap", std::process::id()))
}

/// One explicit save/restore round-trip with its own timers; returns
/// (warm network, on-disk bytes) so criterion loops can reuse them.
fn report_save_restore(label: &str, g: &Graph, isp: NodeId) -> (Network, u64) {
    let config = NetworkConfig::paper_full_damping(7);
    let key = snapshot::fingerprints(g, &[isp], &config);
    let mut net = Network::new(g, isp, config.clone());
    let warm_started = Instant::now();
    net.warm_up();
    let warm = warm_started.elapsed();

    let path = scratch(label);
    let save_started = Instant::now();
    let snap = Snapshot::capture(&mut net, key).expect("capture");
    let bytes = snap.write(&path).expect("write");
    let save = save_started.elapsed();

    let restore_started = Instant::now();
    let loaded = Snapshot::read(&path).expect("read");
    let mut resumed = Network::new(g, isp, config);
    loaded.resume_into(&mut resumed, &key).expect("resume");
    let restore = restore_started.elapsed();
    std::fs::remove_file(&path).ok();

    eprintln!(
        "snapshot {label}: {bytes} bytes, warm-up {:.1} ms, save {:.1} ms, restore {:.1} ms",
        warm.as_secs_f64() * 1e3,
        save.as_secs_f64() * 1e3,
        restore.as_secs_f64() * 1e3,
    );
    (net, bytes)
}

fn bench_save_restore(c: &mut Criterion) {
    let quick = std::env::args().any(|a| a == "--quick");
    let topologies: Vec<(&str, Graph, NodeId)> = if quick {
        vec![("torus8x8", mesh_torus(8, 8), NodeId::new(42))]
    } else {
        vec![
            ("torus40x40", mesh_torus(40, 40), NodeId::new(42)),
            ("ba2000", internet_like(2000, 2, 11), NodeId::new(0)),
        ]
    };
    for (label, g, isp) in &topologies {
        let (mut net, _) = report_save_restore(label, g, *isp);
        let config = NetworkConfig::paper_full_damping(7);
        let key = snapshot::fingerprints(g, &[*isp], &config);
        let path = scratch(&format!("crit-{label}"));

        let mut group = c.benchmark_group(&format!("snapshot_{label}")[..]);
        group.sample_size(10);
        group.bench_function("capture_write", |b| {
            b.iter(|| {
                let snap = Snapshot::capture(&mut net, key).expect("capture");
                black_box(snap.write(&path).expect("write"))
            });
        });
        let snap = Snapshot::capture(&mut net, key).expect("capture");
        snap.write(&path).expect("write");
        group.bench_function("read_restore", |b| {
            b.iter(|| {
                let loaded = Snapshot::read(&path).expect("read");
                let mut resumed = Network::new(g, *isp, config.clone());
                loaded.resume_into(&mut resumed, &key).expect("resume");
                black_box(resumed.events_processed())
            });
        });
        group.finish();
        std::fs::remove_file(&path).ok();
    }

    report_warm_fork_sweep();
}

/// The warm-fork saving on a fig8-style grid: three damping variants
/// per (topology, seed), so two of every three warm-ups are forkable.
fn report_warm_fork_sweep() {
    let kind = TopologyKind::Mesh {
        width: 5,
        height: 5,
    };
    let opts = |warm_fork| SweepOptions {
        max_pulses: 5,
        seeds: vec![1],
        threads: 1,
        warm_fork,
        ..SweepOptions::default()
    };
    let specs = || {
        vec![
            SeriesSpec::by_seed("undamped", kind, NetworkConfig::paper_no_damping),
            SeriesSpec::by_seed("damped", kind, NetworkConfig::paper_full_damping),
            SeriesSpec::by_seed("rcn", kind, NetworkConfig::paper_rcn_damping),
        ]
    };
    let cold_started = Instant::now();
    let cold = measure_sweep("bench-cold", specs(), &opts(false));
    let cold_wall = cold_started.elapsed();
    let forked_started = Instant::now();
    let forked = measure_sweep("bench-forked", specs(), &opts(true));
    let forked_wall = forked_started.elapsed();
    assert_eq!(
        cold.convergence_table().to_csv(),
        forked.convergence_table().to_csv(),
        "warm-fork must not move the CSV"
    );
    eprintln!(
        "warm-fork sweep (mesh 5x5, 3 variants, pulses 0..=5): cold {:.2} s, forked {:.2} s, \
         speedup {:.2}x",
        cold_wall.as_secs_f64(),
        forked_wall.as_secs_f64(),
        cold_wall.as_secs_f64() / forked_wall.as_secs_f64(),
    );
}

criterion_group!(benches, bench_save_restore);
criterion_main!(benches);
