//! Multi-prefix output pins. Every other golden is single-prefix; these
//! hold the per-(peer, prefix) RIB storage and the decision process to
//! the exact output of a 16-origin run with two flapping prefixes.

use rfd_bgp::{Network, NetworkConfig, Policy, LEAD_IN};
use rfd_core::FlapPattern;
use rfd_sim::RunOutcome;
use rfd_topology::{internet_like, NodeId, Relationships};

/// Runs 16 origins on `internet_like(60, 2, 5)` with prefixes 0 and 1
/// flapping; returns (events processed, messages, FNV-1a of the
/// exported trace).
fn pins(config: impl FnOnce(&rfd_topology::Graph) -> NetworkConfig) -> (u64, usize, u64) {
    let graph = internet_like(60, 2, 5);
    let isps: Vec<NodeId> = (0..16).map(|i| NodeId::new(i * 7 % 60)).collect();
    let mut net = Network::new_multi(&graph, &isps, config(&graph));
    net.warm_up();
    let flaps = FlapPattern::paper_default(3);
    let report = net.run_schedules(&[(0, &flaps), (1, &flaps)], LEAD_IN);
    assert_eq!(report.outcome, RunOutcome::Quiescent);
    let trace = rfd_snap::fnv1a(rfd_metrics::export_trace(net.trace()).as_bytes());
    (report.events_processed, report.message_count, trace)
}

#[test]
fn multi_prefix_output_is_pinned() {
    let full = pins(|_| NetworkConfig::paper_full_damping(9));
    assert_eq!(full, (5109, 3502, 521738108908035), "full damping");
    let rcn = pins(|graph| NetworkConfig {
        policy: Policy::NoValley(Relationships::infer_by_degree(graph, 0.25)),
        ..NetworkConfig::paper_rcn_damping(9)
    });
    assert_eq!(rcn, (3900, 2891, 209194905913251117), "RCN, no-valley");
}
