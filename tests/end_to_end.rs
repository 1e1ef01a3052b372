//! End-to-end integration tests across the workspace crates, asserting
//! the paper's headline claims on reduced-size topologies.

use route_flap_damping::bgp::{Network, NetworkConfig};
use route_flap_damping::damping::{intended_behavior, DampingParams, FlapPattern};
use route_flap_damping::metrics::{DampingState, StateClassifier};
use route_flap_damping::sim::SimDuration;
use route_flap_damping::topology::{internet_like, mesh_torus, NodeId};

fn mesh_net(config: NetworkConfig) -> Network {
    Network::new(&mesh_torus(6, 6), NodeId::new(21), config)
}

#[test]
fn single_flap_false_suppression_and_long_convergence() {
    // §1: "a single route withdrawal followed by a re-announcement …
    // triggered route suppression" far away, and convergence stretches
    // to the better part of an hour.
    let mut no_damp = mesh_net(NetworkConfig::paper_no_damping(1));
    let baseline = no_damp.run_paper_workload(1);

    let mut damp = mesh_net(NetworkConfig::paper_full_damping(1));
    let damped = damp.run_paper_workload(1);

    assert!(damp.trace().ever_suppressed_entries() > 10);
    assert!(
        damped.convergence_time.as_secs_f64() > 20.0 * baseline.convergence_time.as_secs_f64(),
        "damped {} vs baseline {}",
        damped.convergence_time,
        baseline.convergence_time
    );
}

#[test]
fn releasing_dominates_single_flap_episode() {
    // §5.3: the releasing period accounts for the majority of the
    // episode after one pulse; charging is a small fraction.
    let mut net = mesh_net(NetworkConfig::paper_full_damping(2));
    net.run_paper_workload(1);
    let classifier = StateClassifier::default();
    let charging = classifier.time_in(net.trace(), DampingState::Charging);
    let releasing = classifier.time_in(net.trace(), DampingState::Releasing);
    let suppression = classifier.time_in(net.trace(), DampingState::Suppression);
    assert!(
        releasing + suppression > charging * 5,
        "charging {charging}, rest {}",
        releasing + suppression
    );
}

#[test]
fn secondary_charging_extends_some_reuse_timer() {
    // §4.2: updates triggered by route reuse recharge other routers'
    // suppressed entries.
    let mut net = mesh_net(NetworkConfig::paper_full_damping(3));
    net.run_paper_workload(1);
    let stop = net.trace().final_announcement_at().expect("flapped");
    let recharged = net
        .trace()
        .iter()
        .filter(|e| match e.kind {
            route_flap_damping::metrics::TraceEventKind::PenaltySample {
                charge,
                suppressed,
                ..
            } => e.at > stop && suppressed && charge > 0.0,
            _ => false,
        })
        .count();
    assert!(recharged > 0, "no secondary charging observed");
}

#[test]
fn path_exploration_never_reaches_the_ceiling() {
    // §5.2: "In simulations we never observed any penalty value close
    // to 12000."
    let mut net = mesh_net(NetworkConfig::paper_full_damping(4));
    net.run_paper_workload(1);
    let peak = net.trace().peak_penalty();
    assert!(peak > 2000.0, "exploration did cross the cut-off: {peak}");
    assert!(peak < 9000.0, "peak {peak} implausibly near the ceiling");
}

#[test]
fn many_pulses_follow_intended_behavior() {
    // §4.4: past the critical point, the muffling effect makes
    // convergence match the single-router calculation.
    let pulses = 10;
    let mut net = mesh_net(NetworkConfig::paper_full_damping(5));
    let report = net.run_paper_workload(pulses);
    let intended = intended_behavior(
        &DampingParams::cisco(),
        FlapPattern::paper_default(pulses),
        SimDuration::from_secs(120),
    );
    let measured = report.convergence_time.as_secs_f64();
    let predicted = intended.convergence_time.as_secs_f64();
    assert!(
        (measured - predicted).abs() / predicted < 0.35,
        "measured {measured}s vs intended {predicted}s"
    );
}

#[test]
fn rcn_eliminates_false_suppression() {
    // §6.2: with RCN, one or two flaps suppress nothing at all.
    for pulses in 1..=2 {
        let mut net = mesh_net(NetworkConfig::paper_rcn_damping(6));
        net.run_paper_workload(pulses);
        assert_eq!(
            net.trace().ever_suppressed_entries(),
            0,
            "pulses={pulses}: RCN must not suppress"
        );
    }
    // …and three flaps suppress exactly as the parameters specify.
    let mut net = mesh_net(NetworkConfig::paper_rcn_damping(6));
    net.run_paper_workload(3);
    assert!(net.trace().ever_suppressed_entries() > 0);
}

#[test]
fn damping_caps_messages_under_persistent_flapping() {
    // §3: after suppression at the ISP, "the message count is expected
    // to be almost constant".
    let count = |pulses: usize, config: NetworkConfig| {
        let mut net = mesh_net(config);
        net.run_paper_workload(pulses).message_count as f64
    };
    let growth_damped = count(10, NetworkConfig::paper_full_damping(7))
        - count(6, NetworkConfig::paper_full_damping(7));
    let growth_plain = count(10, NetworkConfig::paper_no_damping(7))
        - count(6, NetworkConfig::paper_no_damping(7));
    assert!(
        growth_damped < 0.25 * growth_plain,
        "damped growth {growth_damped} vs plain {growth_plain}"
    );
}

#[test]
fn internet_topology_shows_the_same_qualitative_behavior() {
    let graph = internet_like(50, 2, 8);
    // Attach to a hub: the effect needs path diversity around the ISP
    // (a leaf attachment sees little exploration — §7 discusses how
    // fewer alternate paths mean fewer false suppressions).
    let isp = NodeId::new(0);
    let mut plain = Network::new(&graph, isp, NetworkConfig::paper_no_damping(9));
    let base = plain.run_paper_workload(1);
    let mut damped = Network::new(&graph, isp, NetworkConfig::paper_full_damping(9));
    let with = damped.run_paper_workload(1);
    assert!(with.convergence_time > base.convergence_time * 5);
    assert!(damped.trace().ever_suppressed_entries() > 0);
}
