//! Property-based integration tests: protocol invariants that must
//! hold across random small topologies, seeds, pulse counts and
//! damping configurations.

use proptest::prelude::*;
use route_flap_damping::bgp::{DampingDeployment, Network, NetworkConfig, PenaltyFilter};
use route_flap_damping::damping::DampingParams;
use route_flap_damping::metrics::TraceEventKind;
use route_flap_damping::sim::RunOutcome;
use route_flap_damping::topology::{internet_like, mesh_torus, ring, Graph, NodeId};

#[derive(Debug, Clone, Copy)]
enum Topo {
    Mesh(usize, usize),
    Ring(usize),
    Internet(usize),
}

impl Topo {
    fn build(self, seed: u64) -> Graph {
        match self {
            Topo::Mesh(w, h) => mesh_torus(w, h),
            Topo::Ring(n) => ring(n),
            Topo::Internet(n) => internet_like(n, 2, seed),
        }
    }
}

fn topo_strategy() -> impl Strategy<Value = Topo> {
    prop_oneof![
        (3usize..6, 3usize..5).prop_map(|(w, h)| Topo::Mesh(w, h)),
        (4usize..10).prop_map(Topo::Ring),
        (8usize..24).prop_map(Topo::Internet),
    ]
}

fn filter_strategy() -> impl Strategy<Value = PenaltyFilter> {
    prop_oneof![
        Just(PenaltyFilter::Plain),
        Just(PenaltyFilter::Rcn),
        Just(PenaltyFilter::Selective),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every configuration quiesces, every sent update is received, and
    /// after the final announcement the whole network ends up with a
    /// route to the origin.
    #[test]
    fn runs_quiesce_and_recover(
        topo in topo_strategy(),
        seed in 0u64..1000,
        pulses in 0usize..5,
        damped in any::<bool>(),
        filter in filter_strategy(),
    ) {
        let graph = topo.build(seed);
        let isp = NodeId::new((seed % graph.node_count() as u64) as u32);
        let config = NetworkConfig {
            seed,
            damping: if damped {
                DampingDeployment::Full(DampingParams::cisco())
            } else {
                DampingDeployment::Off
            },
            filter: if damped { filter } else { PenaltyFilter::Plain },
            ..NetworkConfig::default()
        };
        let mut net = Network::new(&graph, isp, config);
        let report = net.run_paper_workload(pulses);
        prop_assert_eq!(report.outcome, RunOutcome::Quiescent);

        // Conservation: sends == receives overall.
        let sent = net.trace().iter().filter(|e| e.is_update_sent()).count();
        let received = net.trace().iter().filter(|e| e.is_update_received()).count();
        prop_assert_eq!(sent, received);

        // Recovery: the link ends up, so every node must route again.
        for id in graph.nodes() {
            prop_assert!(
                net.router(id).best().is_some(),
                "node {} lost the route permanently", id
            );
        }
    }

    /// Without damping nothing is ever suppressed and no reuse timers
    /// exist.
    #[test]
    fn no_damping_never_suppresses(
        seed in 0u64..500,
        pulses in 1usize..5,
    ) {
        let graph = mesh_torus(4, 4);
        let mut net = Network::new(&graph, NodeId::new(1), NetworkConfig::paper_no_damping(seed));
        net.run_paper_workload(pulses);
        prop_assert_eq!(net.trace().ever_suppressed_entries(), 0);
        let (noisy, silent) = net.trace().reuse_counts();
        prop_assert_eq!((noisy, silent), (0, 0));
    }

    /// Suppression and reuse events pair up: an entry is never reused
    /// without having been suppressed, and never suppressed twice
    /// without an intervening reuse.
    #[test]
    fn suppress_reuse_alternate(
        seed in 0u64..500,
        pulses in 1usize..5,
    ) {
        let graph = mesh_torus(4, 4);
        let mut net = Network::new(&graph, NodeId::new(9), NetworkConfig::paper_full_damping(seed));
        net.run_paper_workload(pulses);
        let mut state: std::collections::HashMap<(u32, u32), bool> =
            std::collections::HashMap::new();
        for e in net.trace().iter() {
            match e.kind {
                TraceEventKind::Suppressed { node, peer, .. } => {
                    let s = state.entry((node, peer)).or_insert(false);
                    prop_assert!(!*s, "double suppression at ({node},{peer})");
                    *s = true;
                }
                TraceEventKind::Reused { node, peer, .. } => {
                    let s = state.entry((node, peer)).or_insert(false);
                    prop_assert!(*s, "reuse without suppression at ({node},{peer})");
                    *s = false;
                }
                _ => {}
            }
        }
    }

    /// RCN never converges slower than plain damping by more than
    /// noise; below the suppression trigger (3 pulses with Cisco
    /// defaults) it suppresses nothing at all. (At ≥ 3 pulses RCN may
    /// suppress *more* entries than plain damping — plain's early false
    /// suppression swallows updates, the same reason §6.2 gives for its
    /// lower message count.)
    #[test]
    fn rcn_dominates_plain(
        seed in 0u64..200,
        pulses in 1usize..4,
    ) {
        let graph = mesh_torus(4, 4);
        let isp = NodeId::new(6);
        let mut plain = Network::new(&graph, isp, NetworkConfig::paper_full_damping(seed));
        let p = plain.run_paper_workload(pulses);
        let mut rcn = Network::new(&graph, isp, NetworkConfig::paper_rcn_damping(seed));
        let r = rcn.run_paper_workload(pulses);
        if pulses < 3 {
            prop_assert_eq!(rcn.trace().ever_suppressed_entries(), 0);
        }
        prop_assert!(
            r.convergence_time.as_secs_f64()
                <= p.convergence_time.as_secs_f64() + 300.0,
            "rcn {} vs plain {}",
            r.convergence_time,
            p.convergence_time
        );
    }

    /// Penalty samples never exceed the RFC 2439 ceiling.
    #[test]
    fn penalties_respect_ceiling(
        seed in 0u64..300,
        pulses in 1usize..6,
    ) {
        let graph = mesh_torus(4, 4);
        let mut net = Network::new(&graph, NodeId::new(3), NetworkConfig::paper_full_damping(seed));
        net.run_paper_workload(pulses);
        let ceiling = DampingParams::cisco().penalty_ceiling();
        prop_assert!(net.trace().peak_penalty() <= ceiling + 1e-6);
    }
}
