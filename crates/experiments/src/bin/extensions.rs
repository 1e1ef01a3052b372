//! Regenerates the extension studies: §6's heterogeneous-parameter
//! secondary charging (no path exploration involved) and the tech
//! report's partial-deployment sweep.

use rfd_experiments::figures::extensions::{
    deployment_table, heterogeneous_params_demo, partial_deployment_sweep, prefix_interference,
};
use rfd_experiments::output::{banner, obs_init, publish_csv, quick_flag, runner_config};
use rfd_experiments::TopologyKind;

fn main() {
    banner(
        "Extensions",
        "heterogeneous parameters & partial deployment",
    );
    let _obs = obs_init("extensions");

    eprintln!("-- §6 heterogeneous parameters (4-node line, zero path exploration) --");
    for (label, rcn) in [("plain damping", false), ("RCN-enhanced", true)] {
        let demo = heterogeneous_params_demo(4, rcn);
        eprintln!(
            "{label}: Y recharged {} time(s) after flapping stopped; X reused at {:.0}s, Y at {:.0}s; convergence {:.0}s",
            demo.recharges_at_y, demo.x_reused_at, demo.y_reused_at, demo.convergence_secs
        );
    }

    eprintln!("\n-- multi-prefix interference (storm on one of two prefixes) --");
    let kind_small = if quick_flag() {
        TopologyKind::Mesh {
            width: 4,
            height: 4,
        }
    } else {
        TopologyKind::Mesh {
            width: 8,
            height: 8,
        }
    };
    let r = prefix_interference(kind_small, 5, 2);
    eprintln!(
        "flapping prefix: {} entries suppressed; stable prefix: {} suppressed, routable throughout: {}; {} updates",
        r.flapping_suppressed, r.stable_suppressed, r.stable_always_routable, r.messages
    );

    eprintln!("\n-- partial deployment (1 pulse) --");
    let kind = TopologyKind::experiment_mesh(quick_flag());
    let seeds: &[u64] = if quick_flag() { &[1] } else { &[1, 2, 3] };
    let points = partial_deployment_sweep(
        kind,
        &[0.0, 0.25, 0.5, 0.75, 1.0],
        1,
        seeds,
        &runner_config(),
    );
    let table = deployment_table(&points);
    publish_csv("extensions_partial_deployment", &table);
}
