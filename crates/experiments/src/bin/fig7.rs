//! Regenerates Figure 7: simulated penalty at a router 7 hops from the
//! flapping link after a single flap — path exploration crosses the
//! cut-off, secondary charging re-crosses it during release.

use rfd_experiments::figures::fig7::{figure7, figure7_with};
use rfd_experiments::output::{banner, obs_init, publish_csv, quick_flag};
use rfd_experiments::TopologyKind;
use rfd_metrics::AsciiChart;

fn main() {
    banner(
        "Figure 7",
        "penalty at a remote router after one flap (100-node mesh)",
    );
    let _obs = obs_init("fig7");
    let fig = if quick_flag() {
        figure7_with(
            TopologyKind::Mesh {
                width: 6,
                height: 6,
            },
            1,
            4,
        )
    } else {
        figure7()
    };
    eprintln!("{}", fig.summary());
    eprintln!(
        "thresholds: cut-off {}, reuse {}; ceiling {} (§5.2: peak stays far below)",
        fig.params.cutoff_threshold(),
        fig.params.reuse_threshold(),
        fig.params.penalty_ceiling()
    );
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
    publish_csv("fig7", &table);
}
