//! Regenerates Figure 10 (a–f): update series (5-second bins) and
//! damped-link count for n = 1, 3, 5 pulses on the 100-node mesh,
//! annotated with the Figure 4 state classification.

use rfd_experiments::figures::fig10::{figure10, figure10_with};
use rfd_experiments::output::{banner, obs_init, publish_csv, quick_flag};
use rfd_experiments::TopologyKind;
use rfd_metrics::AsciiChart;

fn main() {
    banner(
        "Figure 10",
        "update series & damped link count for n = 1, 3, 5",
    );
    let _obs = obs_init("fig10");
    let fig = if quick_flag() {
        figure10_with(
            TopologyKind::Mesh {
                width: 5,
                height: 5,
            },
            &[1, 3],
            1,
        )
    } else {
        figure10()
    };
    for panel in &fig.panels {
        eprintln!(
            "n = {}: {} updates, convergence {:.0}s, peak damped links {}",
            panel.pulses, panel.messages, panel.convergence_secs, panel.peak_damped
        );
        eprintln!("  states: {}", panel.states_summary());
        let updates: Vec<(f64, f64)> = panel
            .update_series
            .iter()
            .map(|&(t, c)| (t, c as f64))
            .collect();
        eprintln!("  update series (5 s bins):");
        eprintln!(
            "{}",
            AsciiChart::new(66, 10).render_one("updates", &updates)
        );
        let damped: Vec<(f64, f64)> = panel
            .damped_links
            .iter()
            .map(|&(t, v)| (t, v as f64))
            .collect();
        eprintln!("  damped links:");
        eprintln!("{}", AsciiChart::new(66, 10).render_one("damped", &damped));
        let table = panel.render();
        publish_csv(&format!("fig10_n{}", panel.pulses), &table);
    }
}
