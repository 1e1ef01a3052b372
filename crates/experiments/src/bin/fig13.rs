//! Regenerates Figure 13: convergence time versus number of pulses,
//! with RCN-enhanced damping added to the Figure 8 series.

use rfd_experiments::figures::fig13_14::figure13_14;
use std::process::ExitCode;

use rfd_experiments::output::{banner, obs_init, publish_csv, sweep_exit_code, sweep_options};
use rfd_metrics::AsciiChart;

fn main() -> ExitCode {
    banner("Figure 13", "convergence time vs pulses, with RCN");
    let _obs = obs_init("fig13");
    let sweep = figure13_14(&sweep_options());
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
    publish_csv("fig13", &table);
    sweep_exit_code(&sweep)
}
