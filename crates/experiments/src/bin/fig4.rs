//! Regenerates Figure 4: the four-state damping process of a network
//! episode (charging → suppression → releasing → converged, with
//! secondary charging able to re-enter suppression). The states are
//! reconstructed from the trace of a single-pulse run and printed as a
//! timeline.

use rfd_bgp::NetworkConfig;
use rfd_experiments::output::{banner, obs_init, publish_csv, quick_flag};
use rfd_experiments::{run_workload, TopologyKind};
use rfd_metrics::{DampingState, StateClassifier, Table};

fn main() {
    banner(
        "Figure 4",
        "four-state damping process (reconstructed from an n = 1 trace)",
    );
    let _obs = obs_init("fig4");
    let kind = TopologyKind::experiment_mesh(quick_flag());
    let (report, network) = run_workload(kind, NetworkConfig::paper_full_damping(1), 1);
    let trace = network.trace();
    let start = trace.first_flap_at().expect("one pulse injected");
    let classifier = StateClassifier::default();
    let spans = classifier.classify(trace);

    let mut table = Table::new(vec!["state", "from (s)", "to (s)", "duration (s)"]);
    let total = report.convergence_time.as_secs_f64().max(1.0);
    eprintln!("episode timeline (seconds since first flap):");
    for span in &spans {
        let from = span.from.saturating_since(start).as_secs_f64();
        let to = span.to.saturating_since(start).as_secs_f64();
        // A proportional bar makes the timeline legible at a glance.
        let bar_len = (((to - from) / total) * 48.0).round() as usize;
        eprintln!(
            "  {:<12} {:>7.0} → {:>7.0}  {}",
            span.state.to_string(),
            from,
            to,
            "#".repeat(bar_len.max(1))
        );
        table.add_row(vec![
            span.state.to_string(),
            format!("{from:.0}"),
            format!("{to:.0}"),
            format!("{:.0}", to - from),
        ]);
    }
    let suppressions = classifier.suppression_periods(trace);
    eprintln!(
        "\n{} suppression period(s){}",
        suppressions,
        if suppressions > 1 {
            " — secondary charging re-entered suppression (the paper's dashed arrow)"
        } else {
            ""
        }
    );
    let releasing = classifier.time_in(trace, DampingState::Releasing);
    let charging = classifier.time_in(trace, DampingState::Charging);
    eprintln!(
        "charging {:.0} s, releasing {:.0} s of a {:.0} s episode",
        charging.as_secs_f64(),
        releasing.as_secs_f64(),
        report.convergence_time.as_secs_f64()
    );
    publish_csv("fig4", &table);
}
