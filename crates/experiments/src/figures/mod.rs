//! Per-figure and per-table reproductions.
//!
//! One module per evaluation artefact of the paper; every module
//! exposes a `figure*()` / `table*()` entry point returning a
//! structured result with `render()` (plain text) and CSV accessors,
//! which `rfd figure` and `rfd sweep` print and save.

pub mod extensions;
pub mod fig10;
pub mod fig13_14;
pub mod fig15;
pub mod fig3;
pub mod fig7;
pub mod fig8_9;
pub mod knobs;
pub mod report15;
pub mod table1;

use rfd_core::DampingParams;
use rfd_sim::{SimDuration, SimTime};

/// Expands `(time, penalty)` charge points into the plotted sawtooth
/// of Figures 3 and 7: between points (and after the last one, up to
/// `until`) the value decays exponentially, sampled every `step`.
///
/// # Panics
///
/// Panics if `step` is zero.
pub(crate) fn decay_curve(
    points: &[(SimTime, f64)],
    params: &DampingParams,
    until: SimTime,
    step: SimDuration,
) -> Vec<(SimTime, f64)> {
    assert!(!step.is_zero(), "step must be positive");
    let mut out = Vec::new();
    for (i, &(at, value)) in points.iter().enumerate() {
        out.push((at, value));
        let segment_end = points.get(i + 1).map(|n| n.0).unwrap_or(until).max(at);
        let mut t = at + step;
        while t < segment_end {
            out.push((t, value * params.decay_factor(t - at)));
            t += step;
        }
    }
    if let Some(&(at, value)) = points.last() {
        if until > at {
            out.push((until, value * params.decay_factor(until - at)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn decay_curve_keeps_charge_points_and_halves_per_half_life() {
        let params = DampingParams::cisco();
        let points = [(t(0), 1000.0), (t(120), 1900.0)];
        let curve = decay_curve(&points, &params, t(240), SimDuration::from_secs(30));
        // 0,30,60,90 + 120,150,180,210 + 240.
        assert_eq!(curve.len(), 9);
        assert!(curve.contains(&(t(0), 1000.0)) && curve.contains(&(t(120), 1900.0)));
        for w in curve[4..].windows(2) {
            assert!(w[1].1 < w[0].1, "decay is strictly decreasing");
        }
        let halved = decay_curve(
            &[(t(0), 2000.0)],
            &params,
            t(900),
            SimDuration::from_secs(100),
        );
        let (last_t, last_v) = *halved.last().unwrap();
        assert_eq!(last_t, t(900));
        assert!((last_v - 1000.0).abs() < 1e-9);
    }
}
