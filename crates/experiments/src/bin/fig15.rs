//! Regenerates Figure 15: impact of the no-valley routing policy on
//! damping convergence (208-node Internet-derived topology).

use rfd_experiments::figures::fig15::{
    figure15, figure15_on, mean_convergence, INTENDED, NO_POLICY, WITH_POLICY,
};
use std::process::ExitCode;

use rfd_experiments::output::{
    banner, obs_init, publish_csv, quick_flag, sweep_exit_code, sweep_options,
};
use rfd_experiments::TopologyKind;
use rfd_metrics::AsciiChart;

fn main() -> ExitCode {
    banner("Figure 15", "impact of routing policy (208-node Internet)");
    let _obs = obs_init("fig15");
    let opts = sweep_options();
    let sweep = if quick_flag() {
        figure15_on(&opts, TopologyKind::Internet { nodes: 60, m: 2 })
    } else {
        figure15(&opts)
    };
    let table = sweep.convergence_table();
    let curves: Vec<(&str, Vec<(f64, f64)>)> = sweep
        .series
        .iter()
        .map(|s| {
            let pts: Vec<(f64, f64)> = s
                .points
                .iter()
                .map(|p| (p.pulses as f64, p.convergence_secs))
                .collect();
            (s.label.as_str(), pts)
        })
        .collect();
    let refs: Vec<(&str, &[(f64, f64)])> = curves.iter().map(|(l, v)| (*l, v.as_slice())).collect();
    eprintln!("{}", AsciiChart::new(66, 16).render(&refs));
    for label in [WITH_POLICY, NO_POLICY, INTENDED] {
        if let Some(mean) = mean_convergence(&sweep, label) {
            eprintln!("mean convergence, {label}: {mean:.0}s");
        }
    }
    publish_csv("fig15", &table);
    sweep_exit_code(&sweep)
}
