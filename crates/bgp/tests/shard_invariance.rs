//! Property tests for the sharded engine's byte-determinism contract:
//! on arbitrary small topologies, seeds and workloads, a sharded run
//! must equal the single-shard run exactly — same report numbers, same
//! trace event sequence, event for event.
//!
//! The unit tests in `network.rs` pin specific scenarios; these
//! randomize across the dimensions an adversary would probe: topology
//! family (cut-edge patterns differ wildly between a ring and a BA
//! hub), ISP placement (origin on a cut edge or not), shard counts
//! beyond the node count, damping off, plain and under RCN, shortest-path
//! and no-valley routing, and multi-pulse workloads that keep
//! cross-shard traffic alive across many barrier windows. The window
//! count is compared too: the plan depends neither on the layout nor on
//! how messages cross it.

use proptest::prelude::*;
use rfd_bgp::{Network, NetworkConfig, PenaltyFilter, Policy};
use rfd_metrics::TraceEvent;
use rfd_sim::SimDuration;
use rfd_topology::{internet_like, mesh_torus, ring, NodeId, Relationships};

/// A randomly chosen small topology (kept small: every case runs the
/// full workload twice).
#[derive(Debug, Clone, Copy)]
enum Topo {
    Ring(usize),
    Torus(usize, usize),
    Internet(usize, u64),
}

impl Topo {
    fn build(self) -> rfd_topology::Graph {
        match self {
            Topo::Ring(n) => ring(n),
            Topo::Torus(w, h) => mesh_torus(w, h),
            Topo::Internet(n, seed) => internet_like(n, 2, seed),
        }
    }
}

fn topo_strategy() -> impl Strategy<Value = Topo> {
    prop_oneof![
        (4usize..10).prop_map(Topo::Ring),
        ((2usize..5), (2usize..5)).prop_map(|(w, h)| Topo::Torus(w, h)),
        ((6usize..16), 0u64..1000).prop_map(|(n, s)| Topo::Internet(n, s)),
    ]
}

/// One scenario: everything about a run except the shard count.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    topo: Topo,
    isp_pick: usize,
    seed: u64,
    damping: bool,
    /// RCN instead of plain charging (only with damping on).
    rcn: bool,
    no_valley: bool,
    pulses: usize,
}

/// Everything observable about a run that the contract pins.
fn run_once(sc: Scenario, shards: usize) -> (usize, SimDuration, u64, u64, u64, Vec<TraceEvent>) {
    let graph = sc.topo.build();
    let isp = NodeId::new((sc.isp_pick % graph.node_count()) as u32);
    let mut cfg = if sc.damping {
        NetworkConfig::paper_full_damping(sc.seed)
    } else {
        NetworkConfig::paper_no_damping(sc.seed)
    };
    if sc.damping && sc.rcn {
        cfg.filter = PenaltyFilter::Rcn;
    }
    if sc.no_valley {
        cfg.policy = Policy::NoValley(Relationships::infer_by_degree(&graph, 0.25));
    }
    cfg.sim_shards = shards;
    let mut net = Network::new(&graph, isp, cfg);
    let report = net.run_paper_workload(sc.pulses);
    (
        report.message_count,
        report.convergence_time,
        report.events_processed,
        net.dropped_messages(),
        net.windows(),
        net.trace().events().to_vec(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Sharded == single-shard on arbitrary small scenarios, at 2, 8
    /// and one more shard count.
    #[test]
    fn sharded_run_equals_single_shard_run(
        topo in topo_strategy(),
        isp_pick in 0usize..64,
        seed in 1u64..10_000,
        damping in any::<bool>(),
        rcn in any::<bool>(),
        no_valley in any::<bool>(),
        pulses in 1usize..3,
        extra in 3usize..8,
    ) {
        let sc = Scenario { topo, isp_pick, seed, damping, rcn, no_valley, pulses };
        let reference = run_once(sc, 1);
        for shards in [2, 8, extra] {
            let sharded = run_once(sc, shards);
            prop_assert_eq!(
                &reference.5, &sharded.5,
                "trace diverged: {:?} shards {}", sc, shards
            );
            prop_assert_eq!(reference.0, sharded.0, "message count");
            prop_assert_eq!(reference.1, sharded.1, "convergence time");
            prop_assert_eq!(reference.2, sharded.2, "events processed");
            prop_assert_eq!(reference.3, sharded.3, "dropped messages");
            prop_assert_eq!(reference.4, sharded.4, "windows: {:?} shards {}", sc, shards);
        }
    }
}
