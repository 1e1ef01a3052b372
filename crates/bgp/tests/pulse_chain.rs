//! A pulse chain's forks against fresh runs: for every pulse count a
//! [`PulseChain`] is asked for, the fork's report and full trace must
//! equal those of `new` + `warm_up` + `run_pulses(n)` on a fresh
//! network — under every protocol variant the sweeps use, on the
//! paper's links and on slow ones (whose wide windows often straddle a
//! withdrawal), with a horizon that stops the run mid-flapping, and
//! with repeated counts (unit tests in `network.rs` add event budgets).

use proptest::prelude::*;
use rfd_bgp::{Network, NetworkConfig, PenaltyFilter, Policy, PulseChain, RunReport, LEAD_IN};
use rfd_core::FlapPattern;
use rfd_metrics::TraceEvent;
use rfd_sim::{SimDuration, SimTime};
use rfd_topology::{internet_like, mesh_torus, Graph, NodeId, Relationships};

/// The protocol variants of the paper's sweeps and knob studies.
const VARIANTS: [&str; 7] = [
    "no damping",
    "cisco",
    "rcn",
    "selective",
    "no-valley",
    "wrate",
    "reuse granularity",
];

fn config(variant: &str, graph: &Graph, seed: u64) -> NetworkConfig {
    let mut config = NetworkConfig::paper_full_damping(seed);
    match variant {
        "no damping" => config = NetworkConfig::paper_no_damping(seed),
        "cisco" => {}
        "rcn" => config = NetworkConfig::paper_rcn_damping(seed),
        "selective" => config.filter = PenaltyFilter::Selective,
        "no-valley" => {
            config.policy = Policy::NoValley(Relationships::infer_by_degree(graph, 0.25))
        }
        "wrate" => config.protocol.withdrawal_pacing = true,
        "reuse granularity" => {
            config.protocol.reuse_granularity = Some(SimDuration::from_secs(10));
        }
        other => unreachable!("unknown variant {other}"),
    }
    config
}

#[derive(Debug, Clone)]
struct Case {
    graph: Graph,
    isp: NodeId,
    variant: &'static str,
    /// Link delays in seconds: the paper's 10–500 ms, or slow links.
    delays: (f64, f64),
    seed: u64,
    interval: SimDuration,
    pulses: Vec<usize>,
    /// A horizon this far past the end of the warm-up, if any.
    horizon: Option<SimDuration>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let graph = prop_oneof![
        (3usize..6, 3usize..6).prop_map(|(w, h)| (mesh_torus(w, h), 0u64)),
        (8usize..30, any::<u64>()).prop_map(|(n, seed)| (internet_like(n, 2, seed), seed)),
    ];
    let horizon = prop_oneof![
        Just(None),
        (100u64..1500).prop_map(|s| Some(SimDuration::from_secs(s))),
    ];
    (
        graph,
        0usize..VARIANTS.len(),
        prop_oneof![Just((0.01, 0.5)), Just((5.0, 10.0))],
        any::<u64>(),
        10u64..=120,
        prop::collection::vec(0usize..=6, 1..8),
        horizon,
    )
        .prop_map(
            |((graph, _), variant, delays, seed, interval, mut pulses, horizon)| {
                pulses.sort_unstable();
                let isp = NodeId::new((seed % graph.node_count() as u64) as u32);
                Case {
                    graph,
                    isp,
                    variant: VARIANTS[variant],
                    delays,
                    seed: seed % 1000,
                    interval: SimDuration::from_secs(interval),
                    pulses,
                    horizon,
                }
            },
        )
}

impl Case {
    /// A warmed-up network under the case's horizon.
    fn network(&self) -> Network {
        let mut config = config(self.variant, &self.graph, self.seed);
        let (lo, hi) = self.delays;
        config.delay_range = (
            SimDuration::from_secs_f64(lo),
            SimDuration::from_secs_f64(hi),
        );
        if let Some(past_warm_up) = self.horizon {
            let mut probe = Network::new(&self.graph, self.isp, config.clone());
            probe.warm_up();
            config.horizon = probe.now().since(SimTime::ZERO) + past_warm_up;
        }
        let mut network = Network::new(&self.graph, self.isp, config);
        network.warm_up();
        network
    }

    fn fresh(&self, pulses: usize) -> (RunReport, Vec<TraceEvent>) {
        let mut network = self.network();
        let report = network.run_pulses(FlapPattern::new(pulses, self.interval), LEAD_IN);
        (report, network.trace().iter().collect::<Vec<_>>())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Every fork of a chain equals the fresh run of its pulse count:
    /// all four report fields and the whole trace.
    #[test]
    fn every_fork_equals_a_fresh_run(case in case_strategy()) {
        let mut chain = PulseChain::new(case.network(), case.interval, LEAD_IN);
        for &n in &case.pulses {
            let (report, trace) = chain.run(n);
            let (fresh_report, fresh_trace) = case.fresh(n);
            prop_assert_eq!(&report, &fresh_report, "n={} in {:?}", n, case.pulses);
            prop_assert!(
                trace.iter().eq(fresh_trace.iter().copied()),
                "n={n}: the fork's trace differs from the fresh run's ({} vs {} events)",
                trace.len(),
                fresh_trace.len()
            );
        }
    }
}

/// The same count twice forks the same run.
#[test]
fn the_same_count_twice_forks_the_same_run() {
    let graph = mesh_torus(4, 4);
    let mut network = Network::new(&graph, NodeId::new(5), NetworkConfig::paper_full_damping(3));
    network.warm_up();
    let mut chain = PulseChain::new(network, FlapPattern::DEFAULT_INTERVAL, LEAD_IN);
    let (report, trace) = chain.run(3);
    let first = (report, trace.iter().collect::<Vec<_>>());
    assert!(first.0.message_count > 0 && trace.ever_suppressed_entries() > 0);
    let (report, trace) = chain.run(3);
    assert_eq!((report, trace.iter().collect::<Vec<_>>()), first);
}

/// A chain asked for fewer pulses than it already injected refuses.
#[test]
#[should_panic(expected = "must not decrease")]
fn pulse_counts_must_not_decrease() {
    let graph = mesh_torus(3, 3);
    let mut network = Network::new(&graph, NodeId::new(0), NetworkConfig::paper_no_damping(1));
    network.warm_up();
    let mut chain = PulseChain::new(network, FlapPattern::DEFAULT_INTERVAL, LEAD_IN);
    chain.run(2);
    chain.run(1);
}
