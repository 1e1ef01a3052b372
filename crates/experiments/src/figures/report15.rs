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

use rfd_bgp::{DampingDeployment, NetworkConfig};
use rfd_core::{intended_behavior, DampingParams, FlapPattern};
use rfd_metrics::{fmt_f64, Table};
use rfd_runner::{run_grid, RunGrid, RunnerConfig};
use rfd_sim::SimDuration;

use crate::scenarios::{run_pattern_metrics, TopologyKind};

/// One row of the flapping-interval sweep.
#[derive(Debug, Clone, Copy)]
pub struct IntervalPoint {
    /// Gap between consecutive flap events, seconds.
    pub interval_secs: f64,
    /// Measured convergence time, seconds.
    pub convergence_secs: f64,
    /// Measured message count.
    pub messages: f64,
    /// Entries ever suppressed.
    pub suppressed: f64,
    /// The §3 model's reuse delay for this interval, seconds.
    pub intended_secs: f64,
}

/// Sweeps the flapping interval at a fixed pulse count. One grid
/// series per interval ("report15-interval" journal).
pub fn interval_sweep(
    kind: TopologyKind,
    pulses: usize,
    intervals: &[SimDuration],
    seeds: &[u64],
    exec: &RunnerConfig,
) -> Vec<IntervalPoint> {
    let params = DampingParams::cisco();
    let mut grid = RunGrid::new("report15-interval")
        .pulses(vec![pulses])
        .seeds(seeds.to_vec());
    for &interval in intervals {
        grid = grid.series(format!("interval={}s", interval.as_secs_f64()), interval);
    }
    let results = run_grid(&grid, exec, |&interval, cell| {
        run_pattern_metrics(
            kind,
            cell.seed,
            FlapPattern::new(cell.pulses, interval),
            |_| NetworkConfig::paper_full_damping(cell.seed),
        )
    });
    let results = crate::sweep::grid_results_or_exit(results);
    intervals
        .iter()
        .enumerate()
        .map(|(si, &interval)| {
            let stats = results.point_stats(si, 0);
            let intended = intended_behavior(
                &params,
                FlapPattern::new(pulses, interval),
                SimDuration::from_secs(60),
            );
            IntervalPoint {
                interval_secs: interval.as_secs_f64(),
                convergence_secs: stats.convergence.mean(),
                messages: stats.messages.mean(),
                suppressed: stats.suppressed.mean(),
                intended_secs: intended.convergence_time.as_secs_f64(),
            }
        })
        .collect()
}

/// Renders an interval sweep.
pub fn interval_table(points: &[IntervalPoint]) -> Table {
    let mut t = Table::new(vec![
        "interval (s)",
        "convergence (s)",
        "updates",
        "suppressed entries",
        "intended (s)",
    ]);
    for p in points {
        t.add_row(vec![
            fmt_f64(p.interval_secs, 0),
            fmt_f64(p.convergence_secs, 1),
            fmt_f64(p.messages, 1),
            fmt_f64(p.suppressed, 1),
            fmt_f64(p.intended_secs, 1),
        ]);
    }
    t
}

/// One row of the topology-size sweep.
#[derive(Debug, Clone, Copy)]
pub struct SizePoint {
    /// Number of nodes.
    pub nodes: usize,
    /// Measured convergence time, seconds.
    pub convergence_secs: f64,
    /// Measured message count.
    pub messages: f64,
    /// Entries ever suppressed, normalised by node count.
    pub suppressed_per_node: f64,
}

/// Sweeps mesh sizes at a fixed workload. One grid series per size
/// ("report15-size" journal).
pub fn size_sweep(
    sizes: &[(usize, usize)],
    pulses: usize,
    seeds: &[u64],
    exec: &RunnerConfig,
) -> Vec<SizePoint> {
    let mut grid = RunGrid::new("report15-size")
        .pulses(vec![pulses])
        .seeds(seeds.to_vec());
    for &(w, h) in sizes {
        grid = grid.series(
            format!("mesh-{w}x{h}"),
            TopologyKind::Mesh {
                width: w,
                height: h,
            },
        );
    }
    let results = run_grid(&grid, exec, |&kind, cell| {
        run_pattern_metrics(
            kind,
            cell.seed,
            FlapPattern::paper_default(cell.pulses),
            |_| NetworkConfig::paper_full_damping(cell.seed),
        )
    });
    let results = crate::sweep::grid_results_or_exit(results);
    sizes
        .iter()
        .enumerate()
        .map(|(si, &(w, h))| {
            let stats = results.point_stats(si, 0);
            SizePoint {
                nodes: w * h,
                convergence_secs: stats.convergence.mean(),
                messages: stats.messages.mean(),
                suppressed_per_node: stats.suppressed.mean() / (w * h) as f64,
            }
        })
        .collect()
}

/// Renders a size sweep.
pub fn size_table(points: &[SizePoint]) -> Table {
    let mut t = Table::new(vec![
        "nodes",
        "convergence (s)",
        "updates",
        "suppressed / node",
    ]);
    for p in points {
        t.add_row(vec![
            p.nodes.to_string(),
            fmt_f64(p.convergence_secs, 1),
            fmt_f64(p.messages, 1),
            fmt_f64(p.suppressed_per_node, 2),
        ]);
    }
    t
}

/// One row of the parameter sweep.
#[derive(Debug, Clone)]
pub struct ParamPoint {
    /// Preset label.
    pub label: String,
    /// Measured convergence time, seconds.
    pub convergence_secs: f64,
    /// Measured message count.
    pub messages: f64,
    /// Entries ever suppressed.
    pub suppressed: f64,
}

/// Compares damping parameter presets on the same workload. One grid
/// series per preset ("report15-params" journal).
pub fn parameter_sweep(
    kind: TopologyKind,
    presets: &[(&str, DampingParams)],
    pulses: usize,
    seeds: &[u64],
    exec: &RunnerConfig,
) -> Vec<ParamPoint> {
    let mut grid = RunGrid::new("report15-params")
        .pulses(vec![pulses])
        .seeds(seeds.to_vec());
    for (label, params) in presets {
        grid = grid.series(*label, *params);
    }
    let results = run_grid(&grid, exec, |params: &DampingParams, cell| {
        run_pattern_metrics(
            kind,
            cell.seed,
            FlapPattern::paper_default(cell.pulses),
            |_| NetworkConfig {
                seed: cell.seed,
                damping: DampingDeployment::Full(*params),
                ..NetworkConfig::default()
            },
        )
    });
    let results = crate::sweep::grid_results_or_exit(results);
    presets
        .iter()
        .enumerate()
        .map(|(si, (label, _))| {
            let stats = results.point_stats(si, 0);
            ParamPoint {
                label: (*label).to_owned(),
                convergence_secs: stats.convergence.mean(),
                messages: stats.messages.mean(),
                suppressed: stats.suppressed.mean(),
            }
        })
        .collect()
}

/// Renders a parameter sweep.
pub fn parameter_table(points: &[ParamPoint]) -> Table {
    let mut t = Table::new(vec![
        "preset",
        "convergence (s)",
        "updates",
        "suppressed entries",
    ]);
    for p in points {
        t.add_row(vec![
            p.label.clone(),
            fmt_f64(p.convergence_secs, 1),
            fmt_f64(p.messages, 1),
            fmt_f64(p.suppressed, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: TopologyKind = TopologyKind::Mesh {
        width: 4,
        height: 4,
    };

    #[test]
    fn slow_flapping_avoids_suppression() {
        let points = interval_sweep(
            SMALL,
            3,
            &[SimDuration::from_secs(60), SimDuration::from_mins(25)],
            &[1],
            &RunnerConfig::sequential(),
        );
        // Fast flapping suppresses; 25-minute gaps decay away.
        assert!(points[0].suppressed > 0.0);
        assert!(
            points[1].suppressed < points[0].suppressed,
            "slow flapping must suppress less: {points:?}"
        );
        assert!(points[1].convergence_secs < points[0].convergence_secs);
        // Intended model agrees: suppression-free at 25-minute gaps.
        assert!(points[1].intended_secs < 120.0);
    }

    #[test]
    fn size_sweep_trend_is_stable() {
        let points = size_sweep(&[(3, 3), (5, 5)], 1, &[2], &RunnerConfig::sequential());
        assert_eq!(points[0].nodes, 9);
        assert_eq!(points[1].nodes, 25);
        // More nodes, more messages; per-node suppression of the same
        // order (the phenomenon is not a small-network artefact).
        assert!(points[1].messages > points[0].messages);
        assert!(points[1].suppressed_per_node > 0.5);
    }

    #[test]
    fn juniper_suppresses_differently_than_cisco() {
        let presets = [
            ("cisco", DampingParams::cisco()),
            ("juniper", DampingParams::juniper()),
        ];
        let points = parameter_sweep(SMALL, &presets, 2, &[3], &RunnerConfig::sequential());
        assert_eq!(points.len(), 2);
        // Both engage damping for 2 fast pulses (exploration helps),
        // with different magnitudes — the trend, not the values, is
        // shared (tech report's conclusion).
        assert!(points.iter().all(|p| p.messages > 0.0));
        assert_ne!(
            (points[0].convergence_secs * 10.0).round(),
            (points[1].convergence_secs * 10.0).round(),
            "presets should not coincide exactly"
        );
    }

    #[test]
    fn tables_render() {
        let it = interval_table(&[IntervalPoint {
            interval_secs: 60.0,
            convergence_secs: 100.0,
            messages: 5.0,
            suppressed: 1.0,
            intended_secs: 90.0,
        }]);
        assert!(it.to_string().contains("60"));
        let st = size_table(&[SizePoint {
            nodes: 100,
            convergence_secs: 1.0,
            messages: 2.0,
            suppressed_per_node: 3.0,
        }]);
        assert!(st.to_string().contains("100"));
        let pt = parameter_table(&[ParamPoint {
            label: "x".into(),
            convergence_secs: 1.0,
            messages: 2.0,
            suppressed: 3.0,
        }]);
        assert!(pt.to_string().contains('x'));
    }
}
