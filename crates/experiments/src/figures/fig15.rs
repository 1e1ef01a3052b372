//! Figure 15: impact of routing policy on damping dynamics — the
//! no-valley policy versus unrestricted shortest-path on a 208-node
//! Internet-derived topology, against the intended behaviour.
//!
//! §7: policy reduces the number of alternate paths explored, hence
//! fewer false suppressions, hence less secondary charging — the
//! convergence curve moves toward (but does not reach) the intended
//! one.

use rfd_bgp::{NetworkConfig, Policy};
use rfd_core::DampingParams;

use crate::scenarios::{infer_relationships, TopologyKind};
use crate::sweep::{
    calculation_series, estimate_t_up, measure_sweep, PulseSweep, SeriesSpec, SweepOptions,
};

/// Legend labels.
pub const WITH_POLICY: &str = "With Policy";
/// Unrestricted shortest-path.
pub const NO_POLICY: &str = "No policy";
/// Closed-form intended behaviour.
pub const INTENDED: &str = "Intended (calculation)";

/// Runs the Figure 15 sweep on the paper's 208-node topology.
pub fn figure15(opts: &SweepOptions) -> PulseSweep {
    figure15_on(opts, TopologyKind::PAPER_INTERNET_208)
}

/// Parameterised variant. Both measured series run as one grid
/// ("fig15") so policy and no-policy cells share the thread pool.
pub fn figure15_on(opts: &SweepOptions, kind: TopologyKind) -> PulseSweep {
    let specs = vec![
        SeriesSpec::on_graph(WITH_POLICY, kind, |graph, seed| NetworkConfig {
            policy: Policy::NoValley(infer_relationships(graph)),
            ..NetworkConfig::paper_full_damping(seed)
        }),
        SeriesSpec::by_seed(NO_POLICY, kind, NetworkConfig::paper_full_damping),
    ];
    let mut sweep = measure_sweep("fig15", specs, &opts.pulse_counts(), opts);
    let t_up = estimate_t_up(kind, opts);
    let mut intended = calculation_series(&DampingParams::cisco(), opts.max_pulses, t_up);
    intended.label = INTENDED.to_owned();
    sweep.series.push(intended);
    sweep
}

/// Mean convergence over `n = 1..=max` for one series (comparison
/// metric used by `rfd sweep --figure fig15` and tests).
pub fn mean_convergence(sweep: &PulseSweep, label: &str) -> Option<f64> {
    let s = sweep.series(label)?;
    let pts: Vec<f64> = s
        .points
        .iter()
        .filter(|p| p.pulses >= 1)
        .map(|p| p.convergence_secs)
        .collect();
    if pts.is_empty() {
        None
    } else {
        Some(pts.iter().sum::<f64>() / pts.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_moves_convergence_toward_intended() {
        let opts = SweepOptions {
            max_pulses: 3,
            seeds: vec![4],
            ..SweepOptions::default()
        };
        // A smaller Internet graph keeps the test quick; the effect is
        // structural, not size-bound.
        let sweep = figure15_on(&opts, TopologyKind::Internet { nodes: 60, m: 2 });
        let with = mean_convergence(&sweep, WITH_POLICY).unwrap();
        let without = mean_convergence(&sweep, NO_POLICY).unwrap();
        let intended = mean_convergence(&sweep, INTENDED).unwrap();
        // Policy reduces (or at worst does not worsen) the excess
        // convergence delay over the intended behaviour.
        let excess_with = (with - intended).max(0.0);
        let excess_without = (without - intended).max(0.0);
        assert!(
            excess_with <= excess_without * 1.05 + 30.0,
            "with policy {with}s, without {without}s, intended {intended}s"
        );
    }

    #[test]
    fn all_series_present() {
        let opts = SweepOptions {
            max_pulses: 1,
            seeds: vec![1],
            ..SweepOptions::default()
        };
        let sweep = figure15_on(&opts, TopologyKind::Internet { nodes: 20, m: 2 });
        for label in [WITH_POLICY, NO_POLICY, INTENDED] {
            assert!(sweep.series(label).is_some(), "missing {label}");
        }
    }
}
