//! Regenerates Figure 8: convergence time versus number of pulses —
//! no damping, full damping (mesh & Internet-derived) and the
//! intended-behaviour calculation.

use rfd_experiments::figures::fig8_9::{critical_point, figure8_9, FULL_DAMPING_MESH};
use std::process::ExitCode;

use rfd_experiments::output::{banner, obs_init, publish_csv, sweep_exit_code, sweep_options};
use rfd_metrics::AsciiChart;

fn main() -> ExitCode {
    banner("Figure 8", "convergence time vs number of pulses");
    let _obs = obs_init("fig8");
    let sweep = figure8_9(&sweep_options());
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
    if let Some(nh) = critical_point(&sweep, FULL_DAMPING_MESH, 0.30) {
        eprintln!("critical point N_h (mesh, 30% band): {nh}");
    }
    publish_csv("fig8", &table);
    sweep_exit_code(&sweep)
}
