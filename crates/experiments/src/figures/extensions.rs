//! Extensions beyond the paper's figures, from its §6/§7 discussion and
//! the authors' technical report \[15\]:
//!
//! * **heterogeneous parameters** — §6's example of secondary charging
//!   *without* path exploration: on a line topology (no alternate
//!   paths), a router with more aggressive parameters than its upstream
//!   gets its reuse timer recharged by the upstream's reuse
//!   announcement;
//! * **partial deployment** — damping enabled on a fraction of routers.

use rfd_bgp::{DampingDeployment, Network, NetworkConfig, PenaltyFilter, LEAD_IN};
use rfd_core::{DampingParams, FlapPattern};
use rfd_metrics::TraceEventKind;
use rfd_sim::SimDuration;
use rfd_topology::{line, NodeId};

use crate::scenarios::TopologyKind;
use crate::sweep::{measure_sweep, PulseSweep, SeriesSpec, SweepOptions};

/// Outcome of the heterogeneous-parameter demonstration.
#[derive(Debug, Clone)]
pub struct HeterogeneousResult {
    /// Charges received by Y's suppressed entry after flapping stopped
    /// (secondary charging events).
    pub recharges_at_y: usize,
    /// When X's entry (upstream, default parameters) was finally
    /// reused, seconds since first flap.
    pub x_reused_at: f64,
    /// When Y's entry (aggressive parameters) was finally reused.
    pub y_reused_at: f64,
    /// Total convergence time, seconds.
    pub convergence_secs: f64,
}

/// Runs §6's example: a 4-node line `0–1–2–3` with the origin attached
/// to node 3. All routers use Cisco defaults except **Y = node 1**,
/// which uses aggressive parameters (longer half-life, non-zero
/// re-announcement penalty). **X = node 2** is Y's upstream. There are
/// no alternate paths, so any reuse-timer extension at Y is pure timer
/// interaction, not path exploration.
pub fn heterogeneous_params_demo(pulses: usize, rcn: bool) -> HeterogeneousResult {
    let base = line(4);
    let aggressive = DampingParams::builder()
        .reannouncement_penalty(1000.0)
        .half_life(SimDuration::from_mins(30))
        .build()
        .expect("valid aggressive parameters");
    // Per-node table: nodes 0..=3 plus the appended origin (index 4).
    let mut per_node = vec![Some(DampingParams::cisco()); 5];
    per_node[1] = Some(aggressive);
    let config = NetworkConfig {
        seed: 9,
        damping: DampingDeployment::PerNode(per_node),
        filter: if rcn {
            PenaltyFilter::Rcn
        } else {
            PenaltyFilter::Plain
        },
        ..NetworkConfig::default()
    };
    let isp = NodeId::new(3);
    let mut network = Network::new(&base, isp, config);
    network.warm_up();
    let report = network.run_pulses(FlapPattern::paper_default(pulses), LEAD_IN);
    let trace = network.trace();
    let start = trace.first_flap_at().expect("flaps injected");
    let stop = trace.final_announcement_at().expect("flaps end");
    let rel = |t: rfd_sim::SimTime| t.saturating_since(start).as_secs_f64();

    // Y = node 1's entry for X = peer 2: count real charges landing on
    // the suppressed entry after flapping stopped.
    let y_samples = trace.penalty_samples(1, 2, 0);
    let recharges_at_y = y_samples
        .iter()
        .filter(|s| s.at > stop && s.suppressed && s.charge > 0.0)
        .count();
    let reused_at = |node: u32, peer: u32| {
        trace
            .iter()
            .filter(|e| {
                matches!(e.kind, TraceEventKind::Reused { node: n, peer: p, .. }
                    if n == node && p == peer)
            })
            .last()
            .map(|e| rel(e.at))
            .unwrap_or(0.0)
    };
    HeterogeneousResult {
        recharges_at_y,
        x_reused_at: reused_at(2, 3),
        y_reused_at: reused_at(1, 2),
        convergence_secs: report.convergence_time.as_secs_f64(),
    }
}

/// Outcome of the multi-prefix interference experiment.
#[derive(Debug, Clone, Copy)]
pub struct InterferenceResult {
    /// Entries suppressed for the flapping prefix.
    pub flapping_suppressed: usize,
    /// Entries suppressed for the stable prefix (must be zero —
    /// RFC 2439 state is per (peer, prefix)).
    pub stable_suppressed: usize,
    /// Total updates during the storm.
    pub messages: usize,
    /// Whether the stable prefix stayed routable at every node.
    pub stable_always_routable: bool,
}

/// Two origins on the same topology; one flaps `pulses` times, the
/// other stays up. Measures the collateral impact on the stable prefix
/// (there should be none: damping and MRAI state are per prefix).
pub fn prefix_interference(kind: TopologyKind, pulses: usize, seed: u64) -> InterferenceResult {
    let graph = kind.build(seed);
    let isp_a = crate::scenarios::pick_isp(&graph, seed);
    let isp_b = crate::scenarios::pick_isp(&graph, seed.wrapping_add(1));
    let mut net = Network::new_multi(
        &graph,
        &[isp_a, isp_b],
        NetworkConfig::paper_full_damping(seed),
    );
    net.warm_up();
    let flapping = net.origins()[0].prefix;
    let stable = net.origins()[1].prefix;
    let pattern = FlapPattern::paper_default(pulses);
    let report = net.run_schedules(&[(0, &pattern)], LEAD_IN);
    let mut flapping_suppressed = 0;
    let mut stable_suppressed = 0;
    for e in net.trace().iter() {
        if let TraceEventKind::Suppressed { prefix, .. } = e.kind {
            if prefix == flapping.id() {
                flapping_suppressed += 1;
            } else if prefix == stable.id() {
                stable_suppressed += 1;
            }
        }
    }
    let stable_always_routable = graph
        .nodes()
        .all(|id| net.router(id).best_for(stable).is_some());
    InterferenceResult {
        flapping_suppressed,
        stable_suppressed,
        messages: report.message_count,
        stable_always_routable,
    }
}

/// Sweeps the damping deployment fraction on the given topology with
/// `pulses` pulses: one series per fraction ("deployment" journal).
pub fn partial_deployment_sweep(
    kind: TopologyKind,
    fractions: &[f64],
    pulses: usize,
    opts: &SweepOptions,
) -> PulseSweep {
    let specs = fractions
        .iter()
        .map(|&fraction| {
            let label = format!("deployed={:.0}%", fraction * 100.0);
            SeriesSpec::by_seed(&label, kind, move |seed| NetworkConfig {
                seed,
                damping: DampingDeployment::Partial {
                    params: DampingParams::cisco(),
                    fraction,
                },
                ..NetworkConfig::default()
            })
        })
        .collect();
    measure_sweep("deployment", specs, &[pulses], opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggressive_downstream_is_recharged_by_upstream_reuse() {
        // Four pulses suppress every entry on the line; X (Cisco)
        // releases first, its announcement recharges Y (aggressive) —
        // secondary charging with zero path exploration.
        let demo = heterogeneous_params_demo(4, false);
        assert!(
            demo.recharges_at_y >= 1,
            "expected Y to be recharged: {demo:?}"
        );
        assert!(
            demo.y_reused_at > demo.x_reused_at,
            "Y must outlast X: {demo:?}"
        );
        assert!(demo.convergence_secs > demo.x_reused_at);
    }

    #[test]
    fn rcn_limits_recharging_to_one_per_flap() {
        let plain = heterogeneous_params_demo(4, false);
        let rcn = heterogeneous_params_demo(4, true);
        // Under RCN a root cause charges at most once, so Y sees at
        // most one post-flap charge (the never-before-seen final Up
        // cause attached to X's reuse announcement).
        assert!(rcn.recharges_at_y <= plain.recharges_at_y);
        assert!(rcn.recharges_at_y <= 1, "{rcn:?}");
    }

    #[test]
    fn deployment_fraction_zero_behaves_like_no_damping() {
        // Averaged over seeds: whether false suppression lands on
        // last-resort paths (and so stalls convergence) varies per seed.
        let opts = SweepOptions {
            seeds: vec![1, 2, 4],
            threads: 1,
            ..SweepOptions::default()
        };
        let mesh = TopologyKind::Mesh {
            width: 4,
            height: 4,
        };
        let sweep = partial_deployment_sweep(mesh, &[0.0, 1.0], 1, &opts);
        let [none, full] = [0, 1].map(|i| sweep.series[i].points[0]);
        assert_eq!(none.suppressed, 0.0);
        assert!(none.convergence_secs < 300.0);
        // Full deployment after one pulse: false suppression appears
        // and convergence grows by an order of magnitude.
        assert!(full.suppressed > 0.0);
        assert!(full.convergence_secs > none.convergence_secs * 3.0);
    }

    #[test]
    fn stable_prefix_is_unaffected_by_a_storm() {
        let r = prefix_interference(
            TopologyKind::Mesh {
                width: 4,
                height: 4,
            },
            4,
            5,
        );
        assert!(r.flapping_suppressed > 0, "{r:?}");
        assert_eq!(r.stable_suppressed, 0, "{r:?}");
        assert!(r.stable_always_routable);
    }
}
