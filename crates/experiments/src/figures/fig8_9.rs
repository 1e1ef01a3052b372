//! Figures 8 and 9: convergence time and message count versus the
//! number of pulses — no damping vs full damping on mesh and
//! Internet-derived topologies, against the intended-behaviour
//! calculation.
//!
//! The paper's headline result lives here: for a small number of
//! pulses the measured damping convergence far exceeds the calculated
//! (intended) curve; past the critical point `N_h` the two coincide
//! (muffling makes the ispAS reuse timer the last one standing).

use rfd_bgp::NetworkConfig;

use crate::scenarios::TopologyKind;
use crate::sweep::{measure_pulse_figure, measure_sweep, PulseSweep, SeriesSpec, SweepOptions};

/// Series labels (matching the paper's legends).
pub const NO_DAMPING_MESH: &str = "No Damping (simulation, mesh)";
/// Full damping on the mesh topology.
pub const FULL_DAMPING_MESH: &str = "Full Damping (simulation, mesh)";
/// Full damping on the Internet-derived topology.
pub const FULL_DAMPING_INTERNET: &str = "Full Damping (simulation, Internet)";
/// The intended-behaviour closed form.
pub const CALCULATION: &str = "Full Damping (calculation)";

/// Runs the Figure 8/9 sweep (both figures share the same runs; 8
/// reads convergence time, 9 reads message count).
pub fn figure8_9(opts: &SweepOptions) -> PulseSweep {
    figure8_9_on(opts, TopologyKind::PAPER_MESH, TopologyKind::PAPER_INTERNET)
}

/// The three measured series of Figures 8/9 as one runner grid (shared
/// by Figures 13/14, which extend the grid with an RCN series).
pub fn measured_specs(mesh: TopologyKind, internet: TopologyKind) -> Vec<SeriesSpec<'static>> {
    vec![
        SeriesSpec::by_seed(NO_DAMPING_MESH, mesh, NetworkConfig::paper_no_damping),
        SeriesSpec::by_seed(FULL_DAMPING_MESH, mesh, NetworkConfig::paper_full_damping),
        SeriesSpec::by_seed(
            FULL_DAMPING_INTERNET,
            internet,
            NetworkConfig::paper_full_damping,
        ),
    ]
}

/// The full-damping series of Figures 8/9 with reuse timers quantised
/// to `granularity` — the routers run the bucketed damper hot path
/// ([`DamperStore::bucketed`](rfd_core::DamperStore::bucketed)) instead
/// of exact per-touch `exp()`. Quantisation moves releases by up to one
/// granularity tick, so this sweep pins its **own** golden rather than
/// the exact one.
pub fn bucketed_specs(
    mesh: TopologyKind,
    internet: TopologyKind,
    granularity: rfd_sim::SimDuration,
) -> Vec<SeriesSpec<'static>> {
    let quantised = move |seed| {
        let mut config = NetworkConfig::paper_full_damping(seed);
        config.protocol.reuse_granularity = Some(granularity);
        config
    };
    vec![
        SeriesSpec::by_seed(FULL_DAMPING_MESH, mesh, quantised),
        SeriesSpec::by_seed(FULL_DAMPING_INTERNET, internet, quantised),
    ]
}

/// Runs the bucketed-mode Figure 8 sweep as its own grid
/// ("fig8-9-bucketed", so journals never mix with the exact sweep).
pub fn figure8_9_bucketed_on(
    opts: &SweepOptions,
    mesh: TopologyKind,
    internet: TopologyKind,
    granularity: rfd_sim::SimDuration,
) -> PulseSweep {
    measure_sweep(
        "fig8-9-bucketed",
        bucketed_specs(mesh, internet, granularity),
        &opts.pulse_counts(),
        opts,
    )
}

/// Parameterised variant for reduced-size tests and benches. All
/// measured series run as a single grid ("fig8-9") so the thread pool
/// spans series and seeds at once; the calculation reads `t_up` from
/// the grid's no-damping `n = 1` cells.
pub fn figure8_9_on(opts: &SweepOptions, mesh: TopologyKind, internet: TopologyKind) -> PulseSweep {
    measure_pulse_figure(
        "fig8-9",
        measured_specs(mesh, internet),
        NO_DAMPING_MESH,
        opts,
    )
}

/// Finds the measured critical point `N_h`: the smallest `n ≥ 1` from
/// which the measured full-damping curve stays within `tolerance`
/// (relative) of the calculation for all larger `n`.
pub fn critical_point(sweep: &PulseSweep, measured_label: &str, tolerance: f64) -> Option<usize> {
    let measured = sweep.series(measured_label)?;
    let calc = sweep.series(CALCULATION)?;
    let max_n = measured.points.last()?.pulses;
    let within = |n: usize| -> bool {
        match (measured.at(n), calc.at(n)) {
            (Some(m), Some(c)) => {
                let denom = c.convergence_secs.max(1.0);
                (m.convergence_secs - c.convergence_secs).abs() / denom <= tolerance
            }
            _ => false,
        }
    };
    (1..=max_n).find(|&start| (start..=max_n).all(within))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced-size end-to-end check of the paper's shape claims.
    /// (Full sizes run in `rfd sweep`; this keeps `cargo test`
    /// minutes-fast.)
    #[test]
    fn shape_matches_paper() {
        let opts = SweepOptions {
            max_pulses: 6,
            seeds: vec![2],
            ..SweepOptions::default()
        };
        let sweep = figure8_9_on(
            &opts,
            TopologyKind::experiment_mesh(true),
            TopologyKind::Internet { nodes: 25, m: 2 },
        );

        let no_damp = sweep.series(NO_DAMPING_MESH).unwrap();
        let damp = sweep.series(FULL_DAMPING_MESH).unwrap();
        let calc = sweep.series(CALCULATION).unwrap();

        // No damping: short convergence, message count grows with n.
        for p in &no_damp.points {
            assert!(
                p.convergence_secs < 300.0,
                "n={}: {}",
                p.pulses,
                p.convergence_secs
            );
        }
        assert!(no_damp.at(6).unwrap().messages > no_damp.at(1).unwrap().messages);

        // Full damping at small n: much longer than both no-damping and
        // the intended behaviour (false suppression + secondary
        // charging).
        let m1 = damp.at(1).unwrap().convergence_secs;
        assert!(m1 > 10.0 * no_damp.at(1).unwrap().convergence_secs);
        assert!(m1 > calc.at(1).unwrap().convergence_secs + 600.0);

        // Damping caps the message count at large n relative to no
        // damping growth: with suppression at the ispAS, additional
        // pulses stop adding full floods.
        let growth_damp = damp.at(6).unwrap().messages - damp.at(4).unwrap().messages;
        let growth_nodamp = no_damp.at(6).unwrap().messages - no_damp.at(4).unwrap().messages;
        assert!(
            growth_damp < growth_nodamp,
            "damped growth {growth_damp} vs undamped {growth_nodamp}"
        );
    }

    /// Under a topology override the calculation's `t_up` is the
    /// overriding topology's no-damping `n = 1` convergence, read from
    /// the grid; when that cell fails, every calculated point is marked
    /// failed instead of the sweep panicking on a NaN.
    #[test]
    fn calculation_reads_t_up_from_the_grid() {
        let torus = TopologyKind::Mesh {
            width: 6,
            height: 6,
        };
        let opts = SweepOptions {
            max_pulses: 2,
            seeds: vec![1],
            topology: Some(torus),
            ..SweepOptions::default()
        };
        let sweep = figure8_9(&opts);
        let no_damping = sweep.series(NO_DAMPING_MESH).unwrap().at(1).unwrap();
        let calc = sweep.series(CALCULATION).unwrap();
        assert_eq!(
            calc.at(1).unwrap().convergence_secs,
            no_damping.convergence_secs
        );
        let estimate = crate::sweep::estimate_t_up(torus, &opts);
        assert_eq!(calc.at(2).unwrap().convergence_secs, estimate.as_secs_f64());

        let chaos = format!("panic@{NO_DAMPING_MESH}|n=1|seed=1");
        let opts = SweepOptions {
            chaos: rfd_runner::ChaosPlan::parse(&chaos).unwrap(),
            ..opts
        };
        let sweep = figure8_9(&opts);
        let calc = sweep.series(CALCULATION).unwrap();
        assert!(calc.points.iter().all(|p| p.failed_seeds == 1));
        assert!(sweep.convergence_table().to_csv().contains(",FAILED:1\n"));
    }

    #[test]
    fn critical_point_detection() {
        use crate::sweep::{SweepPoint, SweepSeries};
        let mk = |label: &str, vals: &[f64]| SweepSeries {
            label: label.into(),
            points: vals
                .iter()
                .enumerate()
                .map(|(n, &v)| SweepPoint {
                    pulses: n,
                    convergence_secs: v,
                    convergence_std: 0.0,
                    messages: 0.0,
                    suppressed: 0.0,
                    failed_seeds: 0,
                })
                .collect(),
        };
        let sweep = PulseSweep {
            series: vec![
                mk(
                    FULL_DAMPING_MESH,
                    &[0.0, 5000.0, 4000.0, 3000.0, 2020.0, 2500.0],
                ),
                mk(CALCULATION, &[0.0, 30.0, 30.0, 2000.0, 2000.0, 2500.0]),
            ],
            failures: Vec::new(),
        };
        // From n=4 on, measured is within 10% of calculated.
        assert_eq!(critical_point(&sweep, FULL_DAMPING_MESH, 0.1), Some(4));
        assert_eq!(critical_point(&sweep, "missing", 0.1), None);
    }
}
