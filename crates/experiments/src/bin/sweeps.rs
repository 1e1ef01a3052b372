//! Regenerates the technical-report \[15\] parameter studies: flapping
//! interval, topology size, and damping-parameter presets.

use rfd_core::DampingParams;
use rfd_experiments::figures::report15::{
    interval_sweep, interval_table, parameter_sweep, parameter_table, size_sweep, size_table,
};
use rfd_experiments::output::{banner, obs_init, publish_csv, quick_flag, runner_config};
use rfd_experiments::TopologyKind;
use rfd_sim::SimDuration;

fn main() {
    banner(
        "Sweeps [15]",
        "flapping interval, topology size, damping parameters",
    );
    let _obs = obs_init("sweeps");
    let quick = quick_flag();
    let kind = TopologyKind::experiment_mesh(quick);
    let seeds: &[u64] = if quick { &[1] } else { &[1, 2, 3] };

    eprintln!("-- flapping interval (3 pulses, full Cisco damping) --");
    let intervals = [
        SimDuration::from_secs(15),
        SimDuration::from_secs(30),
        SimDuration::from_secs(60),
        SimDuration::from_secs(120),
        SimDuration::from_secs(300),
        SimDuration::from_mins(25),
    ];
    let exec = runner_config();
    let points = interval_sweep(kind, 3, &intervals, seeds, &exec);
    let table = interval_table(&points);
    publish_csv("sweep_interval", &table);

    eprintln!("\n-- topology size (1 pulse) --");
    let sizes: &[(usize, usize)] = if quick {
        &[(3, 3), (5, 5)]
    } else {
        &[(4, 4), (6, 6), (8, 8), (10, 10), (12, 12)]
    };
    let points = size_sweep(sizes, 1, seeds, &exec);
    let table = size_table(&points);
    publish_csv("sweep_size", &table);

    eprintln!("\n-- damping parameter presets (3 pulses) --");
    let presets = [
        ("cisco", DampingParams::cisco()),
        ("juniper", DampingParams::juniper()),
        ("ripe229-aggressive", DampingParams::ripe229_aggressive()),
    ];
    let points = parameter_sweep(kind, &presets, 3, seeds, &exec);
    let table = parameter_table(&points);
    publish_csv("sweep_params", &table);
}
