//! Experiment scenario builders (paper §5.1).
//!
//! "Two types of network topologies are used: mesh topologies and
//! Internet-derived topologies. … Given a network topology, we randomly
//! select a node to be the ispAS and attach an originAS to it."

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use rfd_bgp::{DampingDeployment, Network, NetworkConfig, PenaltyFilter, RunReport, Snapshot};
use rfd_metrics::{SuppressionStats, TraceSink};
use rfd_sim::{DetRng, SimDuration};
use rfd_topology::{internet_like, mesh_torus, Graph, NodeId, Relationships};

/// Which topology family an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyKind {
    /// A `width × height` torus ("mesh"); the paper uses 10×10.
    Mesh {
        /// Grid width.
        width: usize,
        /// Grid height.
        height: usize,
    },
    /// Internet-like preferential-attachment graph; the paper uses 100
    /// and (for the policy experiment) 208 nodes.
    Internet {
        /// Number of ASes.
        nodes: usize,
        /// Attachment degree.
        m: usize,
    },
}

impl TopologyKind {
    /// The paper's 100-node mesh.
    pub const PAPER_MESH: TopologyKind = TopologyKind::Mesh {
        width: 10,
        height: 10,
    };

    /// The paper's 100-node Internet-derived topology (our BA stand-in).
    pub const PAPER_INTERNET: TopologyKind = TopologyKind::Internet { nodes: 100, m: 2 };

    /// The §7 policy experiment's 208-node Internet-derived topology.
    pub const PAPER_INTERNET_208: TopologyKind = TopologyKind::Internet { nodes: 208, m: 2 };

    /// The mesh the experiments run on: [`Self::PAPER_MESH`], or 5×5
    /// for `--quick` smoke runs.
    pub const fn experiment_mesh(quick: bool) -> TopologyKind {
        let (width, height) = (5, 5);
        if quick {
            TopologyKind::Mesh { width, height }
        } else {
            TopologyKind::PAPER_MESH
        }
    }

    /// Builds the graph (Internet graphs are wired from `seed`).
    pub fn build(&self, seed: u64) -> Graph {
        match *self {
            TopologyKind::Mesh { width, height } => mesh_torus(width, height),
            TopologyKind::Internet { nodes, m } => internet_like(nodes, m, seed),
        }
    }

    /// Short label for report tables.
    pub fn label(&self) -> String {
        match *self {
            TopologyKind::Mesh { width, height } => format!("mesh {}x{}", width, height),
            TopologyKind::Internet { nodes, .. } => format!("Internet {nodes}"),
        }
    }
}

/// Picks the ispAS uniformly from the base graph, derived from the
/// experiment seed (§5.1: "we randomly select a node to be the ispAS").
pub fn pick_isp(graph: &Graph, seed: u64) -> NodeId {
    let mut rng = DetRng::from_seed_and_label(seed, "isp-selection");
    NodeId::new(rng.below(graph.node_count()) as u32)
}

/// Degree-heuristic relationship labelling for policy runs (§7).
pub fn infer_relationships(graph: &Graph) -> Relationships {
    Relationships::infer_by_degree(graph, 0.25)
}

/// Builds, warms up and runs one workload; returns the report and the
/// network (whose trace holds the detailed series).
pub fn run_workload(
    kind: TopologyKind,
    config: NetworkConfig,
    pulses: usize,
) -> (RunReport, Network) {
    let seed = config.seed;
    run_workload_on(kind, seed, pulses, move |_| config)
}

/// Like [`run_workload`], but the configuration may depend on the built
/// graph — needed for policies that carry a relationship labelling of
/// that specific graph (§7).
pub fn run_workload_on(
    kind: TopologyKind,
    seed: u64,
    pulses: usize,
    make_config: impl FnOnce(&Graph) -> NetworkConfig,
) -> (RunReport, Network) {
    run_workload_pattern(
        kind,
        seed,
        rfd_core::FlapPattern::paper_default(pulses),
        make_config,
    )
}

/// The most general workload runner: any flap pattern, graph-dependent
/// configuration. (The interval studies of technical report \[15\] vary
/// the pattern itself.)
pub fn run_workload_pattern(
    kind: TopologyKind,
    seed: u64,
    pattern: rfd_core::FlapPattern,
    make_config: impl FnOnce(&Graph) -> NetworkConfig,
) -> (RunReport, Network) {
    let graph = kind.build(seed);
    let isp = pick_isp(&graph, seed);
    let config = make_config(&graph);
    let mut network = Network::new(&graph, isp, config);
    network.warm_up();
    let report = network.run_pulses(pattern, SimDuration::from_secs(100));
    (report, network)
}

/// [`run_pattern_metrics`] for the paper's default flap pattern, cold
/// and unaudited.
pub fn run_cell_metrics(
    kind: TopologyKind,
    seed: u64,
    pulses: usize,
    make_config: impl FnOnce(&Graph) -> NetworkConfig,
) -> rfd_runner::RunMetrics {
    let pattern = rfd_core::FlapPattern::paper_default(pulses);
    run_pattern_metrics(kind, seed, pattern, make_config, None, &[])
}

/// Runs one grid cell's workload and extracts the metrics the runner
/// journals and aggregates: build the network, fork it from `warm`'s
/// donor snapshot or warm it up, attach the timer-interaction ledger
/// when `ledger_keys` names any (peer, prefix), run `pattern`.
///
/// Grid cells stream into an aggregate-only sink
/// ([`rfd_metrics::SuppressionStats`]): per-cell memory stays O(1) in
/// the event count and no `Vec<TraceEvent>` is ever retained
/// (asserted). Ledger records stream into a
/// [`rfd_core::CountingLedger`] — O(1) memory, and deliberately *not*
/// part of [`rfd_runner::RunMetrics`]: a sweep's CSVs are
/// byte-identical with the ledger on or off, forked or cold (tested at
/// the sweep layer).
pub fn run_pattern_metrics(
    kind: TopologyKind,
    seed: u64,
    pattern: rfd_core::FlapPattern,
    make_config: impl FnOnce(&Graph) -> NetworkConfig,
    warm: Option<&WarmCache>,
    ledger_keys: &[(u32, u32)],
) -> rfd_runner::RunMetrics {
    let graph = kind.build(seed);
    let isp = pick_isp(&graph, seed);
    let config = make_config(&graph);
    let mut network = match warm.and_then(|cache| cache.fork(&graph, isp, &config)) {
        Some(forked) => {
            rfd_obs::inc("runner.cell.warm_forks");
            forked
        }
        None => {
            let mut cold = Network::new_with_sink(&graph, isp, config, SuppressionStats::new());
            cold.warm_up();
            cold
        }
    };
    if !ledger_keys.is_empty() {
        network.set_ledger(
            rfd_core::LedgerFilter::keys(ledger_keys.iter().copied()),
            Box::new(rfd_core::CountingLedger::new()),
        );
    }
    let report = network.run_pulses(pattern, SimDuration::from_secs(100));
    let stats = network.into_sink();
    assert_eq!(
        stats.retained_events(),
        0,
        "aggregate-only grid cells must not retain trace events"
    );
    rfd_runner::RunMetrics {
        convergence_secs: report.convergence_time.as_secs_f64(),
        messages: report.message_count as f64,
        suppressed: stats.ever_suppressed_entries() as f64,
    }
}

/// Sweep-wide cache of warm snapshots for `--warm-fork`, keyed by the
/// *flow* fingerprint (topology + seed + everything that shapes the
/// warm-up flow; damping parameters excluded — see
/// [`rfd_bgp::snapshot::fingerprints`]).
///
/// Grid cells that share a (topology, seed) pair also share a flow
/// fingerprint, so the first cell to arrive warms one donor network and
/// every damping-parameter variant forks from its snapshot instead of
/// re-running the warm-up. Each slot is an `OnceLock`, so concurrent
/// workers block on the single warmer rather than warming redundantly;
/// a failed warm-up is cached as `None` and every cell on that slot
/// falls back to a cold start.
#[derive(Debug, Default)]
pub struct WarmCache {
    slots: Mutex<HashMap<u64, WarmSlot>>,
}

/// One flow-fingerprint slot: settled exactly once, to the donor
/// snapshot on success or `None` when the warm-up failed.
type WarmSlot = Arc<OnceLock<Option<Arc<Snapshot>>>>;

impl WarmCache {
    /// An empty cache; one per sweep.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of donor snapshots currently cached (warmed slots only).
    pub fn len(&self) -> usize {
        let slots = self.slots.lock().expect("warm cache poisoned");
        slots.values().filter(|s| s.get().is_some()).count()
    }

    /// True when no donor has been warmed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A network for `config` seeded from the warm donor of its flow
    /// fingerprint, warming the donor on first use; `None` when the
    /// capture or the fork failed and the cell must start cold — the
    /// answer is never wrong, only slower.
    ///
    /// The donor runs the cell's own configuration normalised exactly
    /// the way the flow fingerprint is computed (damping off, plain
    /// filter, no reuse granularity) — the warm-up flow never consults
    /// any of those, so the fork is byte-equivalent to a cold start
    /// (property-tested at the rfd-bgp layer, and the sweep CSVs are
    /// diffed cold-vs-forked in CI).
    fn fork(
        &self,
        graph: &Graph,
        isp: NodeId,
        config: &NetworkConfig,
    ) -> Option<Network<SuppressionStats>> {
        let key = rfd_bgp::snapshot::fingerprints(graph, &[isp], config);
        let slot = {
            let mut slots = self.slots.lock().expect("warm cache poisoned");
            slots.entry(key.flow_fp).or_default().clone()
        };
        let donor = slot.get_or_init(|| {
            let mut donor_cfg = config.clone();
            donor_cfg.damping = DampingDeployment::Off;
            donor_cfg.filter = PenaltyFilter::Plain;
            donor_cfg.protocol.reuse_granularity = None;
            let donor_key = rfd_bgp::snapshot::fingerprints(graph, &[isp], &donor_cfg);
            debug_assert_eq!(
                donor_key.flow_fp, key.flow_fp,
                "flow normalisation must be idempotent"
            );
            let mut donor = Network::new_with_sink(graph, isp, donor_cfg, SuppressionStats::new());
            donor.warm_up();
            Snapshot::capture(&mut donor, donor_key).ok().map(Arc::new)
        });
        // A refused fork may leave partially-restored state behind, so
        // the half-forked network is dropped, never reused.
        let mut network =
            Network::new_with_sink(graph, isp, config.clone(), SuppressionStats::new());
        donor.as_deref()?.fork_into(&mut network, &key).ok()?;
        Some(network)
    }
}

// The runner moves whole simulations across threads: the network (its
// event queue included) and the graphs it is built from must be `Send`.
// Compile-time proof — if a future change adds an `Rc` or a raw pointer
// to any of these, this stops building.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Network>();
    assert_send::<Network<SuppressionStats>>();
    assert_send::<Graph>();
    assert_send::<RunReport>();
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_topologies_have_paper_sizes() {
        assert_eq!(TopologyKind::PAPER_MESH.build(1).node_count(), 100);
        assert_eq!(TopologyKind::PAPER_INTERNET.build(1).node_count(), 100);
        assert_eq!(TopologyKind::PAPER_INTERNET_208.build(1).node_count(), 208);
    }

    #[test]
    fn isp_selection_is_seeded_and_in_range() {
        let g = TopologyKind::PAPER_MESH.build(1);
        let a = pick_isp(&g, 42);
        let b = pick_isp(&g, 42);
        assert_eq!(a, b);
        assert!(a.index() < g.node_count());
        // Different seeds eventually pick different nodes.
        let picks: std::collections::HashSet<_> = (0..20).map(|s| pick_isp(&g, s)).collect();
        assert!(picks.len() > 3);
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(TopologyKind::PAPER_MESH.label(), "mesh 10x10");
        assert_eq!(TopologyKind::PAPER_INTERNET_208.label(), "Internet 208");
    }

    #[test]
    fn run_workload_round_trip() {
        let (report, network) = run_workload(
            TopologyKind::Mesh {
                width: 3,
                height: 3,
            },
            NetworkConfig::paper_no_damping(7),
            1,
        );
        assert!(report.message_count > 0);
        assert_eq!(report.message_count, network.trace().message_count());
    }

    #[test]
    fn forked_cells_match_cold_cells_and_share_one_donor() {
        let kind = TopologyKind::Mesh {
            width: 4,
            height: 4,
        };
        let pattern = rfd_core::FlapPattern::paper_default(2);
        let cache = WarmCache::new();
        assert!(cache.is_empty());
        let configs: [fn(u64) -> NetworkConfig; 3] = [
            NetworkConfig::paper_full_damping,
            NetworkConfig::paper_no_damping,
            NetworkConfig::paper_rcn_damping,
        ];
        for make in configs {
            let cold = run_pattern_metrics(kind, 5, pattern, |_| make(5), None, &[]);
            let forked = run_pattern_metrics(kind, 5, pattern, |_| make(5), Some(&cache), &[]);
            assert_eq!(cold.convergence_secs, forked.convergence_secs);
            assert_eq!(cold.messages, forked.messages);
            assert_eq!(cold.suppressed, forked.suppressed);
        }
        // All three variants share one (topology, seed) flow, hence one donor.
        assert_eq!(cache.len(), 1);
    }

    /// The pre-streaming pipeline: buffer the whole event history in a
    /// [`rfd_metrics::VecSink`] and derive every metric by post-hoc
    /// trace scans.
    fn run_pattern_metrics_full(
        kind: TopologyKind,
        seed: u64,
        pattern: rfd_core::FlapPattern,
        make_config: impl FnOnce(&Graph) -> NetworkConfig,
    ) -> rfd_runner::RunMetrics {
        let (_report, network) = run_workload_pattern(kind, seed, pattern, make_config);
        let trace = network.trace();
        rfd_runner::RunMetrics {
            convergence_secs: trace.convergence_time().as_secs_f64(),
            messages: trace.message_count() as f64,
            suppressed: trace.ever_suppressed_entries() as f64,
        }
    }

    #[test]
    fn streaming_and_full_trace_cell_metrics_agree() {
        let kind = TopologyKind::Mesh {
            width: 4,
            height: 4,
        };
        for pulses in [1, 3] {
            let pattern = rfd_core::FlapPattern::paper_default(pulses);
            let full_damping = |_: &Graph| NetworkConfig::paper_full_damping(5);
            let streaming = run_pattern_metrics(kind, 5, pattern, full_damping, None, &[]);
            let full = run_pattern_metrics_full(kind, 5, pattern, full_damping);
            assert_eq!(streaming.convergence_secs, full.convergence_secs);
            assert_eq!(streaming.messages, full.messages);
            assert_eq!(streaming.suppressed, full.suppressed);
        }
    }
}
