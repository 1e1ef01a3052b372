//! Figure 3: the damping penalty of a single RIB-IN entry responding
//! to a few route flaps (Cisco default parameters) — a pure
//! single-damper trace, no network involved.

use rfd_core::{Damper, DampingParams, ReuseCheck, UpdateKind};
use rfd_metrics::Table;
use rfd_sim::{SimDuration, SimTime};

use super::decay_curve;

/// The reproduced Figure 3 data.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// The parameters used (Cisco defaults).
    pub params: DampingParams,
    /// The plotted penalty curve `(seconds, penalty)`.
    pub curve: Vec<(f64, f64)>,
    /// Spans during which the route was suppressed, in seconds.
    pub suppressed_spans: Vec<(f64, f64)>,
    /// Peak penalty reached.
    pub peak: f64,
}

/// The flap script: four pulses at the paper's 60-second event spacing,
/// then silence — enough to cross the cut-off and decay back through
/// the reuse threshold within the figure's 2640-second x-axis.
pub fn figure3() -> Fig3Result {
    figure3_with(DampingParams::cisco(), 4, SimDuration::from_secs(2640))
}

/// Parameterised variant (used by the ablation benches).
pub fn figure3_with(params: DampingParams, pulses: u64, until: SimDuration) -> Fig3Result {
    let mut damper = Damper::new(params);
    let mut points = Vec::new();
    let mut spans = Vec::new();
    let mut suppressed_since = None;
    for pulse in 0..pulses {
        for (secs, kind) in [
            (pulse * 120, UpdateKind::Withdrawal),
            (pulse * 120 + 60, UpdateKind::ReAnnouncement),
        ] {
            let at = SimTime::from_secs(secs);
            points.push((at, damper.record_update(at, kind).penalty));
            match (suppressed_since, damper.is_suppressed()) {
                (None, true) => suppressed_since = Some(at),
                (Some(from), false) => {
                    spans.push((from, at));
                    suppressed_since = None;
                }
                _ => {}
            }
        }
    }
    // Walk the reuse timer so the last suppression span has an end.
    if let Some(from) = suppressed_since {
        let last_event = points.last().expect("suppressed by a charge").0;
        let mut due = damper.reuse_at(last_event).expect("suppressed");
        while let ReuseCheck::StillSuppressed { retry_at } = damper.on_reuse_due(due) {
            due = retry_at;
        }
        spans.push((from, due));
    }
    let curve = decay_curve(
        &points,
        &params,
        SimTime::ZERO + until,
        SimDuration::from_secs(10),
    )
    .into_iter()
    .map(|(t, v)| (t.as_secs_f64(), v))
    .collect();
    let suppressed_spans = spans
        .into_iter()
        .map(|(a, b)| (a.as_secs_f64(), b.as_secs_f64()))
        .collect();
    Fig3Result {
        params,
        curve,
        suppressed_spans,
        peak: points.iter().map(|p| p.1).fold(0.0, f64::max),
    }
}

impl Fig3Result {
    /// Renders the curve as a two-column table (gnuplot-ready).
    pub fn render(&self) -> Table {
        let mut t = Table::new(vec!["time (s)", "penalty"]);
        for &(secs, v) in &self.curve {
            t.add_row(vec![format!("{secs:.0}"), format!("{v:.1}")]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crosses_cutoff_and_decays_through_reuse() {
        let fig = figure3();
        assert!(
            fig.peak > fig.params.cutoff_threshold(),
            "peak {} must cross the cut-off",
            fig.peak
        );
        assert!(fig.peak < fig.params.penalty_ceiling());
        // The curve ends below the reuse threshold (fully decayed).
        let last = fig.curve.last().unwrap().1;
        assert!(last < fig.params.reuse_threshold(), "ends at {last}");
        // Exactly one suppression episode, ending before the x-axis
        // does.
        assert_eq!(fig.suppressed_spans.len(), 1);
        let (from, to) = fig.suppressed_spans[0];
        assert!(from < to && to < 2640.0);
    }

    #[test]
    fn suppression_starts_at_third_withdrawal() {
        let fig = figure3();
        // Third withdrawal is at t = 240 s.
        assert_eq!(fig.suppressed_spans[0].0, 240.0);
    }

    #[test]
    fn curve_is_piecewise_decaying_between_charges() {
        let fig = figure3();
        // Between charge instants (multiples of 60), values decrease.
        for w in fig.curve.windows(2) {
            let (t0, v0) = w[0];
            let (t1, v1) = w[1];
            let crosses_charge = (t0 / 60.0).floor() != (t1 / 60.0).floor() && t1 <= 420.0;
            if !crosses_charge {
                assert!(v1 <= v0 + 1e-9, "at {t0}->{t1}: {v0} -> {v1}");
            }
        }
    }

    #[test]
    fn juniper_variant_differs() {
        let j = figure3_with(DampingParams::juniper(), 4, SimDuration::from_secs(2640));
        let c = figure3();
        assert!(
            j.peak > c.peak,
            "PA=1000 charges more: {} vs {}",
            j.peak,
            c.peak
        );
    }
}
