//! Failure injection beyond the paper: flap an **interior** link
//! instead of the origin's access link. Damping applies to the transit
//! routes crossing the link; path diversity around it determines how
//! much of the network falsely suppresses.

use rfd_bgp::{Network, NetworkConfig};
use rfd_core::{FlapPattern, FlapSchedule};
use rfd_experiments::output::{banner, obs_init, publish_csv, quick_flag};
use rfd_experiments::{pick_isp, TopologyKind};
use rfd_metrics::{fmt_f64, Table};
use rfd_sim::SimDuration;

fn main() {
    banner(
        "Link failure",
        "interior-link flapping under full damping (extension)",
    );
    let _obs = obs_init("link_failure");
    let kind = TopologyKind::experiment_mesh(quick_flag());
    let seed = 1u64;
    let graph = kind.build(seed);
    let isp = pick_isp(&graph, seed);

    let mut table = Table::new(vec![
        "pulses",
        "convergence (s)",
        "updates",
        "dropped",
        "suppressed entries",
    ]);
    for pulses in [1usize, 3, 5] {
        let mut net = Network::new(&graph, isp, NetworkConfig::paper_full_damping(seed));
        net.warm_up();
        // Flap a link adjacent to the ISP: it carries transit for the
        // origin's prefix.
        let neighbor = *graph.neighbors(isp).first().expect("isp has neighbours");
        let schedule = FlapSchedule::from(FlapPattern::paper_default(pulses));
        let report = net.run_link_schedule(isp, neighbor, &schedule, SimDuration::from_secs(100));
        eprintln!(
            "pulses {pulses}: convergence {:.0}s, {} updates, {} dropped in flight, {} entries suppressed",
            report.convergence_time.as_secs_f64(),
            report.message_count,
            net.dropped_messages(),
            net.trace().ever_suppressed_entries(),
        );
        table.add_row(vec![
            pulses.to_string(),
            fmt_f64(report.convergence_time.as_secs_f64(), 1),
            report.message_count.to_string(),
            net.dropped_messages().to_string(),
            net.trace().ever_suppressed_entries().to_string(),
        ]);
    }
    eprintln!();
    publish_csv("link_failure", &table);
}
