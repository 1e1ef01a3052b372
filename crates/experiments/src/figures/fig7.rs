//! Figure 7: simulated penalty over time at a router far from the
//! flapping link, after a **single** route flap — showing path
//! exploration charging past the cut-off and secondary charging pushing
//! the penalty back up during the releasing period.
//!
//! Also checks the §5.2 claim: path exploration alone never drives any
//! penalty anywhere near the 12 000 needed for an hour-long
//! suppression.

use std::collections::HashMap;

use rfd_bgp::NetworkConfig;
use rfd_core::DampingParams;
use rfd_metrics::{PenaltyPoint, Table, TraceEventKind};
use rfd_sim::SimDuration;

use super::decay_curve;
use crate::scenarios::{pick_isp, run_workload, TopologyKind};

/// The reproduced Figure 7 data.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Observed router (raw id).
    pub node: u32,
    /// Peer whose RIB-IN entry is plotted.
    pub peer: u32,
    /// Hop distance of the observed router from the origin AS.
    pub distance: usize,
    /// `(seconds since first flap, penalty)` curve.
    pub curve: Vec<(f64, f64)>,
    /// Peak penalty of this entry.
    pub peak: f64,
    /// Highest penalty sampled anywhere in the network.
    pub network_peak: f64,
    /// Number of charges this entry received *while suppressed* —
    /// secondary charging events extending its reuse timer.
    pub recharges_while_suppressed: usize,
    /// Total convergence time of the run, seconds.
    pub convergence_secs: f64,
    /// The damping parameters (for threshold lines).
    pub params: DampingParams,
}

/// Runs the paper's Figure 7 setup: 100-node mesh, full Cisco-default
/// damping, one pulse; observes a router `target_distance` hops from
/// the origin (the paper uses 7).
pub fn figure7() -> Fig7Result {
    figure7_with(TopologyKind::PAPER_MESH, 1, 7)
}

/// Parameterised variant.
///
/// # Panics
///
/// Panics if the run produces no penalty samples (damping disabled or
/// no flaps).
pub fn figure7_with(kind: TopologyKind, seed: u64, target_distance: usize) -> Fig7Result {
    let config = NetworkConfig::paper_full_damping(seed);
    let params = DampingParams::cisco();
    let (report, network) = run_workload(kind, config, 1);

    // Hop distances from the origin: rebuild the base graph the same
    // way the scenario did and measure from the ISP (+1 for the origin
    // link).
    let base = kind.build(seed);
    let isp = pick_isp(&base, seed);
    let dist_from_isp = base.bfs_distances(isp);

    let trace = network.trace();
    let first_flap = trace.first_flap_at().expect("one pulse was injected");

    // Collect samples per (node, peer) entry.
    let mut samples: HashMap<(u32, u32), Vec<PenaltyPoint>> = HashMap::new();
    for e in trace.iter() {
        if let TraceEventKind::PenaltySample {
            node,
            peer,
            prefix: _,
            value,
            charge,
            suppressed,
        } = e.kind
        {
            samples.entry((node, peer)).or_default().push(PenaltyPoint {
                at: e.at,
                value,
                charge,
                suppressed,
            });
        }
    }
    assert!(!samples.is_empty(), "no penalty samples recorded");

    let node_distance = |node: u32| -> usize {
        dist_from_isp
            .get(node as usize)
            .copied()
            .flatten()
            .map(|d| d + 1)
            .unwrap_or(0) // the origin node itself
    };

    // Pick the entry at the distance closest to the target with the
    // highest peak penalty.
    let (&(node, peer), entry_samples) = samples
        .iter()
        .min_by(|(a_key, a_s), (b_key, b_s)| {
            let da = node_distance(a_key.0).abs_diff(target_distance);
            let db = node_distance(b_key.0).abs_diff(target_distance);
            let peak = |s: &[PenaltyPoint]| s.iter().map(|p| p.value).fold(0.0f64, f64::max);
            da.cmp(&db)
                .then(peak(b_s).partial_cmp(&peak(a_s)).expect("finite penalties"))
                .then(a_key.cmp(b_key))
        })
        .expect("non-empty samples");

    let points: Vec<_> = entry_samples.iter().map(|p| (p.at, p.value)).collect();
    let end = trace
        .last_update_at()
        .unwrap_or(first_flap)
        .saturating_add(SimDuration::from_secs(600));
    let curve = decay_curve(&points, &params, end, SimDuration::from_secs(10))
        .into_iter()
        .map(|(t, v)| (t.saturating_since(first_flap).as_secs_f64(), v))
        .collect();

    let recharges_while_suppressed = entry_samples
        .iter()
        .filter(|s| s.suppressed && s.charge > 0.0)
        .count();

    Fig7Result {
        node,
        peer,
        distance: node_distance(node),
        curve,
        peak: points.iter().map(|p| p.1).fold(0.0, f64::max),
        network_peak: trace.peak_penalty(),
        recharges_while_suppressed,
        convergence_secs: report.convergence_time.as_secs_f64(),
        params,
    }
}

impl Fig7Result {
    /// Renders the curve as a two-column table.
    pub fn render(&self) -> Table {
        let mut t = Table::new(vec!["time (s)", "penalty"]);
        for &(secs, v) in &self.curve {
            t.add_row(vec![format!("{secs:.0}"), format!("{v:.1}")]);
        }
        t
    }

    /// One-line summary for `rfd figure fig7`'s header.
    pub fn summary(&self) -> String {
        format!(
            "entry AS{}<-AS{} at distance {}: peak {:.0}, {} recharges while suppressed, network peak {:.0}, convergence {:.0}s",
            self.node,
            self.peer,
            self.distance,
            self.peak,
            self.recharges_while_suppressed,
            self.network_peak,
            self.convergence_secs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flap_triggers_false_suppression_far_away() {
        let fig = figure7_with(
            TopologyKind::Mesh {
                width: 6,
                height: 6,
            },
            3,
            4,
        );
        // Path exploration amplified the single flap enough to cross
        // the cut-off at the observed entry.
        assert!(
            fig.peak > fig.params.cutoff_threshold(),
            "peak {} at distance {}",
            fig.peak,
            fig.distance
        );
        assert!(fig.distance >= 2, "observer is remote");
        // §5.2: nowhere near the 12 000 ceiling.
        assert!(
            fig.network_peak < 12_000.0 * 0.75,
            "network peak {}",
            fig.network_peak
        );
        // Convergence far exceeds a no-damping run.
        assert!(fig.convergence_secs > 600.0);
    }

    #[test]
    fn curve_starts_at_first_flap() {
        let fig = figure7_with(TopologyKind::experiment_mesh(true), 1, 3);
        assert!(!fig.curve.is_empty());
        // First charge happens within the charging period (well under
        // 300 s of the flap).
        assert!(fig.curve[0].0 < 300.0, "first sample at {}", fig.curve[0].0);
    }
}
