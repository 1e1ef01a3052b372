//! Facade-level integration tests for multi-origin workloads and
//! protocol knobs.

use route_flap_damping::bgp::{Network, NetworkConfig, ProtocolOptions, LEAD_IN};
use route_flap_damping::damping::FlapPattern;
use route_flap_damping::sim::{RunOutcome, SimDuration};
use route_flap_damping::topology::{mesh_torus, NodeId};

#[test]
fn wrate_network_run_quiesces_and_recovers() {
    let graph = mesh_torus(5, 5);
    let config = NetworkConfig {
        protocol: ProtocolOptions {
            withdrawal_pacing: true,
            ..ProtocolOptions::default()
        },
        ..NetworkConfig::paper_full_damping(6)
    };
    let mut net = Network::new(&graph, NodeId::new(7), config);
    let report = net.run_paper_workload(3);
    assert_eq!(report.outcome, RunOutcome::Quiescent);
    for id in graph.nodes() {
        assert!(net.router(id).best().is_some());
    }
}

#[test]
fn no_loop_avoidance_network_still_converges() {
    let graph = mesh_torus(4, 4);
    let config = NetworkConfig {
        protocol: ProtocolOptions {
            sender_side_loop_avoidance: false,
            ..ProtocolOptions::default()
        },
        ..NetworkConfig::paper_full_damping(8)
    };
    let mut net = Network::new(&graph, NodeId::new(2), config);
    let report = net.run_paper_workload(2);
    assert_eq!(report.outcome, RunOutcome::Quiescent);
    assert!(report.message_count > 0);
    for id in graph.nodes() {
        assert!(net.router(id).best().is_some());
    }
}

#[test]
fn quantised_reuse_network_matches_exact_structure() {
    let graph = mesh_torus(4, 4);
    let run = |granularity: Option<SimDuration>| {
        let config = NetworkConfig {
            protocol: ProtocolOptions {
                reuse_granularity: granularity,
                ..ProtocolOptions::default()
            },
            ..NetworkConfig::paper_full_damping(12)
        };
        let mut net = Network::new(&graph, NodeId::new(9), config);
        let report = net.run_paper_workload(3);
        (report, net.trace().ever_suppressed_entries())
    };
    let (exact, exact_suppressed) = run(None);
    let (quant, quant_suppressed) = run(Some(SimDuration::from_secs(30)));
    assert_eq!(exact.outcome, RunOutcome::Quiescent);
    assert_eq!(quant.outcome, RunOutcome::Quiescent);
    // The charging-phase suppressions are identical; releases shifted
    // by quantisation can add or drop a few late (secondary-charging)
    // suppressions, so the totals only need to agree approximately.
    let diff = exact_suppressed.abs_diff(quant_suppressed);
    assert!(
        diff <= exact_suppressed / 5 + 2,
        "{exact_suppressed} vs {quant_suppressed}"
    );
    // Convergence stays in the same regime.
    let ratio = quant.convergence_time.as_secs_f64() / exact.convergence_time.as_secs_f64();
    assert!((0.4..2.5).contains(&ratio), "ratio {ratio}");
}

#[test]
fn three_origins_all_recover_after_mixed_storms() {
    let graph = mesh_torus(5, 5);
    let isps = [NodeId::new(0), NodeId::new(12), NodeId::new(24)];
    let mut net = Network::new_multi(&graph, &isps, NetworkConfig::paper_full_damping(10));
    net.warm_up();
    let s0 = FlapPattern::paper_default(1);
    let s1 = FlapPattern::paper_default(4);
    let s2 = FlapPattern::new(2, SimDuration::from_secs(20));
    let report = net.run_schedules(&[(0, &s0), (1, &s1), (2, &s2)], LEAD_IN);
    assert_eq!(report.outcome, RunOutcome::Quiescent);
    for att in net.origins().to_vec() {
        for id in graph.nodes() {
            assert!(
                net.router(id).best_for(att.prefix).is_some(),
                "node {id} lost {}",
                att.prefix
            );
        }
    }
}
