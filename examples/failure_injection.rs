//! Failure injection: flap an *interior* link instead of the origin's
//! access link. RFC 2439's original motivation was exactly this — a
//! bouncing session looks like a flapping route to everyone routing
//! through it — and the same reuse-timer interactions follow.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example failure_injection
//! ```

use route_flap_damping::bgp::{Network, NetworkConfig};
use route_flap_damping::damping::FlapPattern;
use route_flap_damping::metrics::export_trace;
use route_flap_damping::sim::SimDuration;
use route_flap_damping::topology::{mesh_torus, NodeId};

fn main() {
    let mesh = mesh_torus(8, 8);
    let isp = NodeId::new(27);
    let mut net = Network::new(&mesh, isp, NetworkConfig::paper_full_damping(33));
    net.warm_up();
    // Bounce a link adjacent to the ISP: it carries transit for the
    // origin's prefix.
    let victim = *mesh.neighbors(isp).first().expect("isp has neighbours");
    println!("bouncing interior link {isp}–{victim} four times (the origin itself never flaps)");
    let pulses = FlapPattern::paper_default(4);
    let report = net.run_link_schedule(isp, victim, pulses, SimDuration::from_secs(100));
    println!(
        "{} updates, {} lost in flight on the dying link, converged {:.0} s after the link stabilised",
        report.message_count,
        net.dropped_messages(),
        report.convergence_time.as_secs_f64()
    );
    println!(
        "{} RIB-IN entries were suppressed even though the destination never flapped",
        net.trace().ever_suppressed_entries()
    );
    let (noisy, silent) = net.trace().reuse_counts();
    println!("reuse timers: {noisy} noisy / {silent} silent");

    // Everything recovered?
    let all_routed = mesh.nodes().all(|id| net.router(id).best().is_some());
    println!(
        "every node routed again at quiescence: {}",
        if all_routed { "yes" } else { "NO (bug!)" }
    );

    // Persist the full trace for the CLI's trace-stats / external tools.
    let path = std::env::temp_dir().join("failure_injection.trace");
    if std::fs::write(&path, export_trace(net.trace())).is_ok() {
        println!(
            "trace written to {} — inspect with `rfd trace-stats`",
            path.display()
        );
    }
}
