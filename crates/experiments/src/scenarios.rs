//! Experiment scenario builders (paper §5.1).
//!
//! "Two types of network topologies are used: mesh topologies and
//! Internet-derived topologies. … Given a network topology, we randomly
//! select a node to be the ispAS and attach an originAS to it."

use rfd_bgp::{Network, NetworkConfig, PulseChain, RunReport, LEAD_IN};
use rfd_metrics::{SuppressionStats, TraceSink};
use rfd_sim::{DetRng, RunOutcome, SimDuration};
use rfd_topology::{clique, internet_like, line, mesh_torus, ring, Graph, NodeId, Relationships};

use crate::args::CliError;

/// A topology an experiment runs on: one of the paper's two families,
/// or one of the small graphs `rfd run` also takes. The command line
/// names one as `KIND:SIZE` ([`TopologyKind::parse`]).
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
    /// A cycle of `nodes` nodes.
    Ring {
        /// Number of nodes.
        nodes: usize,
    },
    /// A path of `nodes` nodes.
    Line {
        /// Number of nodes.
        nodes: usize,
    },
    /// A complete graph on `nodes` nodes.
    Clique {
        /// Number of nodes.
        nodes: usize,
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

    /// Parses a `KIND:SIZE` spec: `mesh:WxH` (alias `torus`),
    /// `internet:N` (alias `ba`, attachment degree 2), `ring:N`,
    /// `line:N` or `clique:N`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed specs and on sizes
    /// the generator cannot build: a mesh needs W, H >= 1, an Internet
    /// graph N >= 3 (it attaches each new node to 2 earlier ones), a
    /// ring N >= 3, a line or clique N >= 1; and no graph may hold more
    /// nodes (W × H for a mesh) than a `NodeId` addresses, `u32::MAX`.
    pub fn parse(spec: &str) -> Result<Self, CliError> {
        let (kind, size) = spec
            .split_once(':')
            .ok_or_else(|| CliError(format!("topology must look like kind:size, got `{spec}`")))?;
        let parse_n = |s: &str| {
            s.parse::<usize>()
                .map_err(|_| CliError(format!("bad size `{s}` in `{spec}`")))
        };
        let parsed = match kind {
            // `torus` is an alias for `mesh` (the paper's mesh *is* a
            // torus), `ba` for `internet` (Barabási–Albert).
            "mesh" | "torus" => {
                let (w, h) = size
                    .split_once('x')
                    .ok_or_else(|| CliError(format!("{kind} needs WxH, got `{size}`")))?;
                TopologyKind::Mesh {
                    width: parse_n(w)?,
                    height: parse_n(h)?,
                }
            }
            "internet" | "ba" => TopologyKind::Internet {
                nodes: parse_n(size)?,
                m: 2,
            },
            "ring" => TopologyKind::Ring {
                nodes: parse_n(size)?,
            },
            "line" => TopologyKind::Line {
                nodes: parse_n(size)?,
            },
            "clique" => TopologyKind::Clique {
                nodes: parse_n(size)?,
            },
            other => {
                return Err(CliError(format!(
                    "unknown topology kind `{other}` (mesh|torus|internet|ba|ring|line|clique)"
                )))
            }
        };
        let (buildable, least, nodes) = match parsed {
            TopologyKind::Mesh { width, height } => (
                width >= 1 && height >= 1,
                "W, H >= 1",
                width.checked_mul(height),
            ),
            TopologyKind::Internet { nodes, .. } | TopologyKind::Ring { nodes } => {
                (nodes >= 3, "N >= 3", Some(nodes))
            }
            TopologyKind::Line { nodes } | TopologyKind::Clique { nodes } => {
                (nodes >= 1, "N >= 1", Some(nodes))
            }
        };
        if !buildable {
            return Err(CliError(format!(
                "topology `{spec}` is too small: {kind} needs {least}"
            )));
        }
        if nodes.is_none_or(|n| n > u32::MAX as usize) {
            return Err(CliError(format!(
                "topology `{spec}` is too large: at most {} nodes",
                u32::MAX
            )));
        }
        Ok(parsed)
    }

    /// Builds the graph (Internet graphs are wired from `seed`).
    pub fn build(&self, seed: u64) -> Graph {
        match *self {
            TopologyKind::Mesh { width, height } => mesh_torus(width, height),
            TopologyKind::Internet { nodes, m } => internet_like(nodes, m, seed),
            TopologyKind::Ring { nodes } => ring(nodes),
            TopologyKind::Line { nodes } => line(nodes),
            TopologyKind::Clique { nodes } => clique(nodes),
        }
    }

    /// Short label for report tables.
    pub fn label(&self) -> String {
        match *self {
            TopologyKind::Mesh { width, height } => format!("mesh {}x{}", width, height),
            TopologyKind::Internet { nodes, .. } => format!("Internet {nodes}"),
            TopologyKind::Ring { nodes } => format!("ring {nodes}"),
            TopologyKind::Line { nodes } => format!("line {nodes}"),
            TopologyKind::Clique { nodes } => format!("clique {nodes}"),
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

/// Builds, warms up and runs the paper's `pulses`-pulse workload on
/// the graph `kind` builds from `config.seed`; returns the report and
/// the network (whose trace holds the detailed series).
pub fn run_workload(
    kind: TopologyKind,
    config: NetworkConfig,
    pulses: usize,
) -> (RunReport, Network) {
    let graph = kind.build(config.seed);
    let isp = pick_isp(&graph, config.seed);
    let mut network = Network::new(&graph, isp, config);
    network.warm_up();
    let report = network.run_pulses(rfd_core::FlapPattern::paper_default(pulses), LEAD_IN);
    (report, network)
}

/// Builds and warms up the network of one sweep chain — a series'
/// topology, configuration and flap interval at one seed — and starts
/// its [`PulseChain`].
///
/// Chains stream into an aggregate-only sink
/// ([`rfd_metrics::SuppressionStats`]): per-cell memory stays O(1) in
/// the event count and no `Vec<TraceEvent>` is ever retained
/// (asserted by [`cell_metrics`]).
pub(crate) fn pulse_chain(
    kind: TopologyKind,
    seed: u64,
    interval: SimDuration,
    make_config: impl FnOnce(&Graph) -> NetworkConfig,
) -> PulseChain<SuppressionStats> {
    let graph = kind.build(seed);
    let isp = pick_isp(&graph, seed);
    let config = make_config(&graph);
    let mut network = Network::new_with_sink(&graph, isp, config, SuppressionStats::new());
    network.warm_up();
    PulseChain::new(network, interval, LEAD_IN)
}

/// Extracts the metrics the runner journals and aggregates from one
/// grid cell's run, a [`PulseChain::run`].
///
/// # Panics
///
/// Panics, failing the cell, if the run stopped before quiescence (the
/// horizon or the event budget cut it off): its metrics would describe
/// a run that never finished.
pub(crate) fn cell_metrics(
    (report, stats): (RunReport, &SuppressionStats),
) -> rfd_runner::RunMetrics {
    assert!(
        report.outcome == RunOutcome::Quiescent,
        "the run stopped early ({:?}) after {} events",
        report.outcome,
        report.events_processed
    );
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
    fn streaming_and_full_trace_cell_metrics_agree() {
        let kind = TopologyKind::Mesh {
            width: 4,
            height: 4,
        };
        let interval = rfd_core::FlapPattern::DEFAULT_INTERVAL;
        let full_damping = |_: &Graph| NetworkConfig::paper_full_damping(5);
        let mut chain = pulse_chain(kind, 5, interval, full_damping);
        for pulses in [1, 3] {
            let streaming = cell_metrics(chain.run(pulses));
            // The pre-streaming pipeline: buffer the whole event history
            // and derive every metric by post-hoc trace scans.
            let (_, network) = run_workload(kind, NetworkConfig::paper_full_damping(5), pulses);
            let trace = network.trace();
            assert_eq!(
                streaming.convergence_secs,
                trace.convergence_time().as_secs_f64()
            );
            assert_eq!(streaming.messages, trace.message_count() as f64);
            assert_eq!(streaming.suppressed, trace.ever_suppressed_entries() as f64);
        }
    }
}
