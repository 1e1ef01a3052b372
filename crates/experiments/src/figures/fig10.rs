//! Figure 10: update series (5-second bins) and damped-link count over
//! time for n = 1, 3 and 5 pulses on the 100-node mesh — the panels
//! that make charging, suppression, releasing, muffling and strong
//! secondary charging visible. The Figure 4 state classification is
//! computed alongside.

use rfd_bgp::NetworkConfig;
use rfd_metrics::{bin_events, DampingState, StateClassifier, StateSpan, Table};
use rfd_sim::{SimDuration, SimTime};

use crate::scenarios::{run_workload, TopologyKind};

/// One panel (one pulse count) of Figure 10.
#[derive(Debug, Clone)]
pub struct Fig10Panel {
    /// Pulse count `n`.
    pub pulses: usize,
    /// `(seconds since first flap, updates in bin)` — 5-second bins.
    pub update_series: Vec<(f64, usize)>,
    /// `(seconds since first flap, suppressed links)` step samples.
    pub damped_links: Vec<(f64, i64)>,
    /// Figure 4 state spans, shifted to seconds since first flap.
    pub states: Vec<(DampingState, f64, f64)>,
    /// Convergence time, seconds.
    pub convergence_secs: f64,
    /// Message count.
    pub messages: usize,
    /// Peak damped-link count.
    pub peak_damped: i64,
}

/// The reproduced Figure 10 (all requested panels).
#[derive(Debug, Clone)]
pub struct Fig10Result {
    /// One panel per pulse count.
    pub panels: Vec<Fig10Panel>,
}

/// Runs the paper's panels (n = 1, 3, 5) on the 100-node mesh.
pub fn figure10() -> Fig10Result {
    figure10_with(TopologyKind::PAPER_MESH, &[1, 3, 5], 1)
}

/// Parameterised variant.
pub fn figure10_with(kind: TopologyKind, pulse_counts: &[usize], seed: u64) -> Fig10Result {
    let panels = pulse_counts
        .iter()
        .map(|&n| run_panel(kind, n, seed))
        .collect();
    Fig10Result { panels }
}

fn run_panel(kind: TopologyKind, pulses: usize, seed: u64) -> Fig10Panel {
    let (report, network) = run_workload(kind, NetworkConfig::paper_full_damping(seed), pulses);
    let trace = network.trace();
    let start = trace.first_flap_at().unwrap_or(SimTime::ZERO);
    let end = trace
        .last_update_at()
        .unwrap_or(start)
        .saturating_add(SimDuration::from_secs(600));
    let rel = |t: SimTime| t.saturating_since(start).as_secs_f64();

    let update_series = bin_events(&trace.update_times(), SimDuration::from_secs(5), start, end)
        .into_iter()
        .map(|(t, c)| (rel(t), c))
        .collect();

    let damped = trace.damped_link_series();
    let damped_links = damped
        .sampled(start, end, SimDuration::from_secs(5))
        .into_iter()
        .map(|(t, v)| (rel(t), v))
        .collect();

    let states = StateClassifier::default()
        .classify(trace)
        .into_iter()
        .map(|StateSpan { state, from, to }| (state, rel(from), rel(to)))
        .collect();

    Fig10Panel {
        pulses,
        update_series,
        damped_links,
        states,
        convergence_secs: report.convergence_time.as_secs_f64(),
        messages: report.message_count,
        peak_damped: damped.max_value(),
    }
}

impl Fig10Panel {
    /// Renders the two series side by side (time, updates, damped).
    pub fn render(&self) -> Table {
        let mut t = Table::new(vec!["time (s)", "updates/5s", "damped links"]);
        for (i, &(secs, updates)) in self.update_series.iter().enumerate() {
            let damped = self
                .damped_links
                .get(i)
                .map(|&(_, v)| v.to_string())
                .unwrap_or_else(|| "-".into());
            t.add_row(vec![format!("{secs:.0}"), updates.to_string(), damped]);
        }
        t
    }

    /// Renders the state spans.
    pub fn states_summary(&self) -> String {
        self.states
            .iter()
            .map(|(s, from, to)| format!("{s} [{from:.0}s, {to:.0}s]"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: TopologyKind = TopologyKind::experiment_mesh(true);

    #[test]
    fn single_pulse_panel_shows_four_states() {
        let fig = figure10_with(SMALL, &[1], 3);
        let panel = &fig.panels[0];
        assert!(panel.peak_damped > 0, "false suppression occurred");
        let states: Vec<DampingState> = panel.states.iter().map(|&(s, _, _)| s).collect();
        // Charging first, at least one suppression gap, then releasing.
        assert_eq!(states.first(), Some(&DampingState::Charging));
        assert!(
            states.contains(&DampingState::Suppression),
            "states: {states:?}"
        );
        assert!(
            states.contains(&DampingState::Releasing),
            "states: {states:?}"
        );
    }

    #[test]
    fn releasing_accounts_for_most_convergence_after_one_pulse() {
        // §5.3: "the releasing period accounts for about 70% of total
        // convergence time" — we assert the weaker, robust form: the
        // post-charging phases dominate.
        let fig = figure10_with(SMALL, &[1], 3);
        let panel = &fig.panels[0];
        let charging_end = panel
            .states
            .iter()
            .find(|(s, _, _)| *s == DampingState::Charging)
            .map(|&(_, _, to)| to)
            .expect("charging span exists");
        assert!(
            charging_end < 0.3 * panel.convergence_secs,
            "charging {charging_end}s of {}s",
            panel.convergence_secs
        );
    }

    #[test]
    fn more_pulses_more_damped_links_until_muffled() {
        let fig = figure10_with(SMALL, &[1, 3], 3);
        let one = &fig.panels[0];
        let three = &fig.panels[1];
        assert!(three.peak_damped >= one.peak_damped);
        assert!(three.messages > one.messages);
    }

    #[test]
    fn update_series_sums_to_message_count() {
        let fig = figure10_with(SMALL, &[2], 5);
        let panel = &fig.panels[0];
        let binned: usize = panel.update_series.iter().map(|&(_, c)| c).sum();
        assert_eq!(binned, panel.messages);
    }
}
