//! `rfd explain` — replay a run with the timer-interaction ledger
//! focused on one (peer, prefix) key and narrate its damping lifecycle.
//!
//! The ledger (see `rfd_core::ledger`) streams every decision the
//! paper's timer-interaction analysis is about: penalty charges with
//! before/after values, cut-off crossings, reuse-timer arms, deferrals
//! and releases, MRAI holds. This module turns that stream into the
//! two artifacts the CLI exposes:
//!
//! * a human-readable timeline (`t=520.0s  node 3  flap #3 ...`), and
//! * deterministic machine JSON (`--json`), byte-stable for golden
//!   diffs — all times are integer microseconds of simulated time and
//!   floats use Rust's shortest round-trip formatting.
//!
//! A note on the key: `peer` is the other end of the session the event
//! concerns. For damping events (charge, suppress, reuse) that is the
//! router the flapping route was *learned from*; for MRAI events it is
//! the router the deferred update was *headed to*. Watching one peer
//! therefore shows both sides of the timer interaction around it.

use std::fmt::Write as _;

use rfd_core::{LedgerEvent, LedgerFilter, LedgerRecord, UpdateKind};
use rfd_metrics::NullSink;
use rfd_sim::{SimDuration, SimTime};

use crate::cli::{CliError, ExplainCommand, RunPlan};

/// The outcome of a focused replay: the filtered ledger stream plus
/// enough scenario context to render it.
#[derive(Debug)]
pub struct ExplainReport {
    /// Ledger records for the watched key, in emission order.
    pub records: Vec<LedgerRecord>,
    /// The watched peer (resolved: `--peer` or the origin AS).
    pub peer: u32,
    /// The watched prefix id.
    pub prefix: u32,
    /// The origin AS appended by the workload.
    pub origin: u32,
    /// The flapping ISP node.
    pub isp: u32,
    /// Node count of the simulated graph (origin included).
    pub nodes: usize,
    /// Link count of the simulated graph.
    pub links: usize,
    /// Pulses replayed.
    pub pulses: usize,
    /// Pulse interval.
    pub interval: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Cut-off threshold when damping is on.
    pub cutoff: Option<f64>,
    /// Reuse threshold when damping is on.
    pub reuse: Option<f64>,
}

/// Replays the run described by `cmd` with the ledger focused on its
/// (peer, prefix) key and collects the records.
///
/// The replay is bit-identical to the equivalent `rfd run` (same seed,
/// same topology, same event order); the ledger only observes — the
/// non-perturbation contract is tested at the network layer.
///
/// # Errors
///
/// Returns [`CliError`] when `--isp`, `--peer` or `--node` name nodes
/// outside the graph or `--prefix` a prefix the run does not
/// originate, and the run's refusal when it stopped before quiescence.
pub fn replay(cmd: &ExplainCommand) -> Result<ExplainReport, Box<dyn std::error::Error>> {
    let opts = &cmd.run;
    let plan = RunPlan::new(opts)?;
    let (_, mut net, (peer, origin)) = plan.execute(NullSink::new(), |net| {
        let origin = net.origin().raw();
        // The origin AS is appended after the graph, so ids run 0..=origin.
        let node_count = origin as usize + 1;
        let peer = cmd.peer.unwrap_or(origin);
        if peer as usize >= node_count {
            return Err(CliError(format!(
                "--peer {peer} outside the {node_count}-node network"
            )));
        }
        if let Some(node) = cmd.node.filter(|&node| node as usize >= node_count) {
            return Err(CliError(format!(
                "--node {node} outside the {node_count}-node network"
            )));
        }
        // Origin `i` originates prefix `i`.
        let prefixes = net.origins().len();
        if cmd.prefix as usize >= prefixes {
            return Err(CliError(format!(
                "--prefix {} outside the {prefixes}-prefix run",
                cmd.prefix
            )));
        }
        net.set_ledger(LedgerFilter::keys([(peer, cmd.prefix)]));
        Ok((peer, origin))
    })?;
    let mut records = net.take_ledger();
    if let Some(node) = cmd.node {
        records.retain(|r| r.node == node);
    }
    Ok(ExplainReport {
        records,
        peer,
        prefix: cmd.prefix,
        origin,
        isp: plan.isp.raw(),
        nodes: origin as usize + 1,
        links: plan.graph.link_count(),
        pulses: opts.pulses,
        interval: opts.interval,
        seed: opts.seed,
        cutoff: opts.damping.as_ref().map(|p| p.cutoff_threshold()),
        reuse: opts.damping.as_ref().map(|p| p.reuse_threshold()),
    })
}

fn kind_name(kind: UpdateKind) -> &'static str {
    match kind {
        UpdateKind::Withdrawal => "withdrawal",
        UpdateKind::ReAnnouncement => "re-announcement",
        UpdateKind::AttributeChange => "attribute change",
        UpdateKind::Duplicate => "duplicate",
    }
}

fn secs(at: SimTime) -> f64 {
    at.as_secs_f64()
}

/// Renders the human-readable timeline.
pub fn render_timeline(report: &ExplainReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "damping lifecycle of (peer {}, prefix {}) — origin AS {}, flapping ISP {}, \
         {} nodes / {} links, {} pulses at {:.0} s, seed {}",
        report.peer,
        report.prefix,
        report.origin,
        report.isp,
        report.nodes,
        report.links,
        report.pulses,
        report.interval.as_secs_f64(),
        report.seed,
    );
    match (report.cutoff, report.reuse) {
        (Some(cutoff), Some(reuse)) => {
            let _ = writeln!(out, "thresholds: cut-off {cutoff:.0}, reuse {reuse:.0}");
        }
        _ => {
            let _ = writeln!(out, "damping off — only MRAI events can appear");
        }
    }
    if report.records.is_empty() {
        let _ = writeln!(
            out,
            "no ledger records: this key saw no damping or pacing decisions"
        );
        return out;
    }
    let _ = writeln!(out);
    for r in &report.records {
        let when = format!("t={:>8.1}s", secs(r.at));
        let who = format!("node {:>3}", r.node);
        let what = match r.event {
            LedgerEvent::Decay { from, to, idle } => format!(
                "penalty decayed {from:.1} -> {to:.1} over {:.1} s idle",
                idle.as_secs_f64()
            ),
            LedgerEvent::Charge {
                kind,
                before,
                after,
                flap,
                crossed_cutoff,
            } => {
                let crossing = if crossed_cutoff {
                    "; crossed the cut-off"
                } else {
                    ""
                };
                format!(
                    "flap #{flap} ({}): penalty {before:.1} -> {after:.1}{crossing}",
                    kind_name(kind)
                )
            }
            LedgerEvent::Suppressed { penalty, reuse_at } => format!(
                "route suppressed at penalty {penalty:.1}; projected reuse t={:.1}s",
                secs(reuse_at)
            ),
            LedgerEvent::ReuseArmed { due } => {
                format!("reuse timer armed for t={:.1}s", secs(due))
            }
            LedgerEvent::ReuseDeferred { penalty, retry_at } => format!(
                "reuse timer fired: penalty {penalty:.1} still above the reuse \
                 threshold; deferred to t={:.1}s",
                secs(retry_at)
            ),
            LedgerEvent::Released { penalty, noisy } => format!(
                "reuse timer fired: penalty {penalty:.1} below the reuse threshold; \
                 route released ({})",
                if noisy {
                    "noisy: re-announced downstream"
                } else {
                    "silent: nothing left to announce"
                }
            ),
            LedgerEvent::ReuseStale => {
                "stale reuse timer ignored (entry no longer suppressed)".to_owned()
            }
            LedgerEvent::MraiDeferred {
                ready_at,
                held_for,
                withdrawal,
            } => format!(
                "MRAI holds the {} {:.1} s (peer ready at t={:.1}s)",
                if withdrawal {
                    "withdrawal"
                } else {
                    "announcement"
                },
                held_for.as_secs_f64(),
                secs(ready_at)
            ),
            LedgerEvent::MraiFlushed { withdrawal } => format!(
                "MRAI timer fired: deferred {} flushed",
                if withdrawal {
                    "withdrawal"
                } else {
                    "announcement"
                }
            ),
        };
        let _ = writeln!(out, "{when}  {who}  {what}");
    }
    out
}

/// Formats an `f64` as a JSON number (Rust's shortest round-trip
/// representation — deterministic for a given value).
fn json_f64(v: f64) -> String {
    format!("{v}")
}

fn json_event(event: &LedgerEvent) -> String {
    match *event {
        LedgerEvent::Decay { from, to, idle } => format!(
            "\"event\": \"decay\", \"from\": {}, \"to\": {}, \"idle_us\": {}",
            json_f64(from),
            json_f64(to),
            idle.as_micros()
        ),
        LedgerEvent::Charge {
            kind,
            before,
            after,
            flap,
            crossed_cutoff,
        } => format!(
            "\"event\": \"charge\", \"kind\": \"{}\", \"before\": {}, \"after\": {}, \
             \"flap\": {}, \"crossed_cutoff\": {}",
            kind_name(kind),
            json_f64(before),
            json_f64(after),
            flap,
            crossed_cutoff
        ),
        LedgerEvent::Suppressed { penalty, reuse_at } => format!(
            "\"event\": \"suppressed\", \"penalty\": {}, \"reuse_at_us\": {}",
            json_f64(penalty),
            reuse_at.as_micros()
        ),
        LedgerEvent::ReuseArmed { due } => {
            format!(
                "\"event\": \"reuse_armed\", \"due_us\": {}",
                due.as_micros()
            )
        }
        LedgerEvent::ReuseDeferred { penalty, retry_at } => format!(
            "\"event\": \"reuse_deferred\", \"penalty\": {}, \"retry_at_us\": {}",
            json_f64(penalty),
            retry_at.as_micros()
        ),
        LedgerEvent::Released { penalty, noisy } => format!(
            "\"event\": \"released\", \"penalty\": {}, \"noisy\": {}",
            json_f64(penalty),
            noisy
        ),
        LedgerEvent::ReuseStale => "\"event\": \"reuse_stale\"".to_owned(),
        LedgerEvent::MraiDeferred {
            ready_at,
            held_for,
            withdrawal,
        } => format!(
            "\"event\": \"mrai_deferred\", \"ready_at_us\": {}, \"held_for_us\": {}, \
             \"withdrawal\": {}",
            ready_at.as_micros(),
            held_for.as_micros(),
            withdrawal
        ),
        LedgerEvent::MraiFlushed { withdrawal } => {
            format!("\"event\": \"mrai_flushed\", \"withdrawal\": {withdrawal}")
        }
    }
}

/// Renders the machine-readable JSON document (one record per line —
/// diffable, and every line after the preamble is a self-contained
/// object).
pub fn render_json(report: &ExplainReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema\": \"rfd-explain-v1\",");
    let _ = writeln!(
        out,
        "  \"key\": {{ \"peer\": {}, \"prefix\": {} }},",
        report.peer, report.prefix
    );
    let _ = write!(
        out,
        "  \"scenario\": {{ \"nodes\": {}, \"links\": {}, \"origin\": {}, \"isp\": {}, \
         \"pulses\": {}, \"interval_us\": {}, \"seed\": {}",
        report.nodes,
        report.links,
        report.origin,
        report.isp,
        report.pulses,
        report.interval.as_micros(),
        report.seed
    );
    if let (Some(cutoff), Some(reuse)) = (report.cutoff, report.reuse) {
        let _ = write!(
            out,
            ", \"cutoff\": {}, \"reuse\": {}",
            json_f64(cutoff),
            json_f64(reuse)
        );
    }
    out.push_str(" },\n");
    let _ = writeln!(out, "  \"records\": [");
    let last = report.records.len().saturating_sub(1);
    for (i, r) in report.records.iter().enumerate() {
        let comma = if i == last { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{ \"at_us\": {}, \"node\": {}, {} }}{comma}",
            r.at.as_micros(),
            r.node,
            json_event(&r.event)
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::parse_explain_command;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    fn line_scenario() -> ExplainCommand {
        // line:4 with the ISP forced to node 3 (the end the origin AS
        // attaches to) and enough pulses to suppress under Cisco
        // defaults.
        parse_explain_command(&args(
            "--topology line:4 --isp 3 --pulses 4 --interval 120 --seed 1",
        ))
        .unwrap()
    }

    #[test]
    fn replay_collects_a_suppression_lifecycle_for_the_origin() {
        let report = replay(&line_scenario()).unwrap();
        assert_eq!(report.peer, report.origin, "--peer defaults to origin");
        assert_eq!(report.prefix, 0);
        assert!(
            report
                .records
                .iter()
                .any(|r| matches!(r.event, LedgerEvent::Suppressed { .. })),
            "four 120 s pulses suppress the origin entry under Cisco defaults"
        );
        assert!(
            report.records.windows(2).all(|w| w[0].at <= w[1].at),
            "timeline is time-ordered"
        );
        assert!(
            report.records.iter().all(|r| r.peer == report.peer),
            "only the watched key is recorded"
        );
    }

    #[test]
    fn replay_is_deterministic() {
        let a = replay(&line_scenario()).unwrap();
        let b = replay(&line_scenario()).unwrap();
        assert_eq!(a.records, b.records);
        assert_eq!(render_json(&a), render_json(&b));
    }

    #[test]
    fn node_filter_and_range_checks() {
        let mut cmd = line_scenario();
        cmd.node = Some(0);
        let report = replay(&cmd).unwrap();
        assert!(report.records.is_empty() || report.records.iter().all(|r| r.node == 0));
        cmd.node = Some(999);
        assert!(replay(&cmd).is_err());
        cmd.node = None;
        cmd.peer = Some(999);
        assert!(replay(&cmd).is_err());
    }

    #[test]
    fn json_is_valid_enough_to_round_trip_counts() {
        let report = replay(&line_scenario()).unwrap();
        let json = render_json(&report);
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("]\n}\n"));
        assert_eq!(
            json.matches("\"at_us\"").count(),
            report.records.len(),
            "one record object per ledger record"
        );
        assert!(json.contains("\"schema\": \"rfd-explain-v1\""));
        // Balanced braces — cheap structural sanity without a parser.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn timeline_mentions_the_crossing_and_release() {
        let report = replay(&line_scenario()).unwrap();
        let text = render_timeline(&report);
        assert!(text.contains("crossed the cut-off"));
        assert!(text.contains("route suppressed"));
        assert!(text.contains("reuse timer armed"));
    }
}
