//! Regenerates Figure 3: damping penalty versus time under a few route
//! flaps (Cisco defaults), including the suppression span.

use rfd_experiments::figures::fig3::figure3;
use rfd_experiments::output::{banner, obs_init, publish_csv};
use rfd_metrics::AsciiChart;

fn main() {
    banner("Figure 3", "damping penalty under a few flaps");
    let _obs = obs_init("fig3");
    let fig = figure3();
    eprintln!(
        "cut-off {} / reuse {} — peak {:.0}",
        fig.params.cutoff_threshold(),
        fig.params.reuse_threshold(),
        fig.peak
    );
    for (from, to) in &fig.suppressed_spans {
        eprintln!("suppressed from {from:.0}s to {to:.0}s");
    }
    let cutoff: Vec<(f64, f64)> = fig
        .curve
        .iter()
        .map(|&(t, _)| (t, fig.params.cutoff_threshold()))
        .collect();
    let reuse: Vec<(f64, f64)> = fig
        .curve
        .iter()
        .map(|&(t, _)| (t, fig.params.reuse_threshold()))
        .collect();
    eprintln!(
        "{}",
        AsciiChart::new(72, 18).render(&[
            ("penalty", &fig.curve),
            ("cut-off", &cutoff),
            ("reuse", &reuse),
        ])
    );
    let table = fig.render();
    eprintln!("{} curve points (penalty vs time)", table.row_count());
    publish_csv("fig3", &table);
}
