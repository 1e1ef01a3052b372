//! Multi-prefix isolation: RFC 2439 damping state is per
//! (peer, prefix), so one customer's flapping must never degrade
//! another customer's stable prefix — even when both cross the same
//! routers, links and MRAI machinery.
//!
//! Two origin ASes attach to the same mesh; origin 0 flaps hard while
//! origin 1 stays up. We check that suppression hits prefix 0 only and
//! count the collateral messages prefix 1 experiences.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example multi_prefix
//! ```

use route_flap_damping::bgp::{Network, NetworkConfig};
use route_flap_damping::damping::FlapPattern;
use route_flap_damping::metrics::TraceEventKind;
use route_flap_damping::sim::SimDuration;
use route_flap_damping::topology::{mesh_torus, NodeId};

fn main() {
    let mesh = mesh_torus(8, 8);
    let isps = [NodeId::new(9), NodeId::new(54)];
    let mut net = Network::new_multi(&mesh, &isps, NetworkConfig::paper_full_damping(21));
    net.warm_up();
    let flapping = net.origins()[0];
    let stable = net.origins()[1];
    println!(
        "two origins: {} (flapping, via {}) and {} (stable, via {})",
        flapping.prefix, flapping.isp, stable.prefix, stable.isp
    );

    let storm = FlapPattern::paper_default(6);
    let report = net.run_schedules(&[(0, &storm)], SimDuration::from_secs(100));
    println!(
        "storm of 6 pulses on {}: {} updates, converged {:.0} s after the last announcement",
        flapping.prefix,
        report.message_count,
        report.convergence_time.as_secs_f64()
    );

    let mut suppressed = [0usize; 2];
    for e in net.trace().iter() {
        if let TraceEventKind::Suppressed { prefix, .. } = e.kind {
            if prefix == flapping.prefix.id() {
                suppressed[0] += 1;
            } else {
                suppressed[1] += 1;
            }
        }
    }
    println!(
        "entries suppressed: {} for the flapping prefix, {} for the stable one",
        suppressed[0], suppressed[1]
    );
    assert_eq!(suppressed[1], 0, "damping is per (peer, prefix)");

    // The stable prefix still routes everywhere.
    let all_routed = mesh
        .nodes()
        .all(|id| net.router(id).best_for(stable.prefix).is_some());
    println!(
        "stable prefix routable from every node throughout: {}",
        if all_routed { "yes" } else { "NO (bug!)" }
    );
}
