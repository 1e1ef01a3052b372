//! Parameter studies from the authors' technical report \[15\] ("BGP
//! Dynamics during Route Flap Damping", USC-CSD 03-805), which §5.1
//! summarises: "we report more simulation results from using different
//! damping parameters, flapping intervals, topology sizes, and partial
//! deployment of damping. Though varying different factors results in
//! different values …, the overall trend is the same."
//!
//! Three sweeps (partial deployment lives in
//! [`crate::figures::extensions`]):
//!
//! * flapping interval — how fast must a route flap for damping to
//!   engage;
//! * topology size — the interactions are scale-driven, not
//!   size-driven;
//! * damping parameters — vendor presets change thresholds, not the
//!   phenomenon.
//!
//! Each is one [`measure_sweep`] grid at a single pulse count, one
//! series per axis value; `rfd figure sweeps` renders it with
//! [`crate::sweep::study_table`].

use rfd_bgp::{DampingDeployment, NetworkConfig};
use rfd_core::{intended_behavior, DampingParams, FlapPattern};
use rfd_sim::SimDuration;

use crate::scenarios::TopologyKind;
use crate::sweep::{measure_sweep, PulseSweep, SeriesSpec, SweepOptions};

/// Sweeps the flapping interval at a fixed pulse count under full Cisco
/// damping: one series per interval ("report15-interval" journal).
pub fn interval_sweep(
    kind: TopologyKind,
    pulses: usize,
    intervals: &[SimDuration],
    opts: &SweepOptions,
) -> PulseSweep {
    let specs = intervals
        .iter()
        .map(|&interval| {
            let label = format!("interval={}s", interval.as_secs_f64());
            SeriesSpec::by_seed(&label, kind, NetworkConfig::paper_full_damping).every(interval)
        })
        .collect();
    measure_sweep("report15-interval", specs, &[pulses], opts)
}

/// The §3 model's convergence time for `pulses` flaps `interval` apart
/// under Cisco defaults (60 s damping-free convergence), seconds — what
/// the interval sweep is read against.
pub fn intended_secs(pulses: usize, interval: SimDuration) -> f64 {
    let pattern = FlapPattern::new(pulses, interval);
    intended_behavior(&DampingParams::cisco(), pattern, SimDuration::from_secs(60))
        .convergence_time
        .as_secs_f64()
}

/// Sweeps `width × height` mesh sizes at a fixed workload under full
/// damping: one series per size ("report15-size" journal).
pub fn size_sweep(sizes: &[(usize, usize)], pulses: usize, opts: &SweepOptions) -> PulseSweep {
    let specs = sizes
        .iter()
        .map(|&(width, height)| {
            let kind = TopologyKind::Mesh { width, height };
            let label = format!("mesh-{width}x{height}");
            SeriesSpec::by_seed(&label, kind, NetworkConfig::paper_full_damping)
        })
        .collect();
    measure_sweep("report15-size", specs, &[pulses], opts)
}

/// Compares damping parameter presets on the same workload: one series
/// per preset ("report15-params" journal).
pub fn parameter_sweep(
    kind: TopologyKind,
    presets: &[(&str, DampingParams)],
    pulses: usize,
    opts: &SweepOptions,
) -> PulseSweep {
    let specs = presets
        .iter()
        .map(|&(label, params)| {
            SeriesSpec::by_seed(label, kind, move |seed| NetworkConfig {
                seed,
                damping: DampingDeployment::Full(params),
                ..NetworkConfig::default()
            })
        })
        .collect();
    measure_sweep("report15-params", specs, &[pulses], opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepPoint;

    const SMALL: TopologyKind = TopologyKind::Mesh {
        width: 4,
        height: 4,
    };

    fn seeds(seeds: &[u64]) -> SweepOptions {
        SweepOptions {
            seeds: seeds.to_vec(),
            threads: 1,
            ..SweepOptions::default()
        }
    }

    /// Series `i`'s one point.
    fn at(sweep: &PulseSweep, i: usize) -> &SweepPoint {
        &sweep.series[i].points[0]
    }

    #[test]
    fn slow_flapping_avoids_suppression() {
        let intervals = [SimDuration::from_secs(60), SimDuration::from_mins(25)];
        let sweep = interval_sweep(SMALL, 3, &intervals, &seeds(&[1]));
        assert_eq!(sweep.series[1].label, "interval=1500s");
        let (fast, slow) = (at(&sweep, 0), at(&sweep, 1));
        // Fast flapping suppresses; 25-minute gaps decay away.
        assert!(fast.suppressed > 0.0);
        assert!(
            slow.suppressed < fast.suppressed,
            "slow flapping must suppress less: {sweep:?}"
        );
        assert!(slow.convergence_secs < fast.convergence_secs);
        // Intended model agrees: suppression-free at 25-minute gaps.
        assert!(intended_secs(3, intervals[1]) < 120.0);
        assert!(intended_secs(3, intervals[0]) > 1200.0);
    }

    #[test]
    fn size_sweep_trend_is_stable() {
        let sweep = size_sweep(&[(3, 3), (5, 5)], 1, &seeds(&[2]));
        assert_eq!(sweep.series[0].label, "mesh-3x3");
        // More nodes, more messages; per-node suppression of the same
        // order (the phenomenon is not a small-network artefact).
        assert!(at(&sweep, 1).messages > at(&sweep, 0).messages);
        assert!(at(&sweep, 1).suppressed / 25.0 > 0.5);
    }

    #[test]
    fn juniper_suppresses_differently_than_cisco() {
        let presets = [
            ("cisco", DampingParams::cisco()),
            ("juniper", DampingParams::juniper()),
        ];
        let sweep = parameter_sweep(SMALL, &presets, 2, &seeds(&[3]));
        assert_eq!(sweep.series.len(), 2);
        // Both engage damping for 2 fast pulses (exploration helps),
        // with different magnitudes — the trend, not the values, is
        // shared (tech report's conclusion).
        assert!(sweep.series.iter().all(|s| s.points[0].messages > 0.0));
        assert_ne!(
            (at(&sweep, 0).convergence_secs * 10.0).round(),
            (at(&sweep, 1).convergence_secs * 10.0).round(),
            "presets should not coincide exactly"
        );
    }
}
