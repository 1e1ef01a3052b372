//! Protocol-knob ablations: how WRATE (withdrawal pacing), sender-side
//! loop avoidance, and reuse-timer quantisation move the paper's two
//! metrics. None of these exist in the paper's setup (its SSFNet
//! defaults are: withdrawals immediate, loop avoidance on, exact
//! timers); they are the knobs a deployment would actually turn.

use rfd_bgp::{NetworkConfig, ProtocolOptions};
use rfd_sim::SimDuration;

use crate::scenarios::TopologyKind;
use crate::sweep::{measure_sweep, PulseSweep, SeriesSpec, SweepOptions};

/// The compared configurations.
pub fn knob_configs() -> Vec<(&'static str, ProtocolOptions)> {
    vec![
        ("paper defaults", ProtocolOptions::default()),
        (
            "WRATE (paced withdrawals)",
            ProtocolOptions {
                withdrawal_pacing: true,
                ..ProtocolOptions::default()
            },
        ),
        (
            "no sender-side loop avoidance",
            ProtocolOptions {
                sender_side_loop_avoidance: false,
                ..ProtocolOptions::default()
            },
        ),
        (
            "reuse timers quantised to 60 s",
            ProtocolOptions {
                reuse_granularity: Some(SimDuration::from_secs(60)),
                ..ProtocolOptions::default()
            },
        ),
    ]
}

/// Runs the comparison: `pulses` pulses at `interval` under full
/// Cisco-default damping, one series per knob configuration.
pub fn knob_comparison(
    kind: TopologyKind,
    pulses: usize,
    interval: SimDuration,
    opts: &SweepOptions,
) -> PulseSweep {
    knob_comparison_with(kind, pulses, interval, opts, true)
}

/// Like [`knob_comparison`] with damping switchable — WRATE's pure
/// flap-absorption effect is only visible undamped (under damping,
/// fewer charges mean less false suppression, which *increases*
/// propagation; the two effects confound).
pub fn knob_comparison_with(
    kind: TopologyKind,
    pulses: usize,
    interval: SimDuration,
    opts: &SweepOptions,
    damped: bool,
) -> PulseSweep {
    let base = match damped {
        true => NetworkConfig::paper_full_damping,
        false => NetworkConfig::paper_no_damping,
    };
    let specs = knob_configs()
        .into_iter()
        .map(|(label, protocol)| {
            SeriesSpec::by_seed(label, kind, move |seed| NetworkConfig {
                protocol,
                ..base(seed)
            })
            .every(interval)
        })
        .collect();
    // The grid name encodes the workload so different invocations never
    // share a journal file.
    let name = format!(
        "knobs-n{pulses}-i{}-{}",
        interval.as_secs_f64(),
        if damped { "damped" } else { "undamped" }
    );
    measure_sweep(&name, specs, &[pulses], opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::SweepPoint;

    const SMALL: TopologyKind = TopologyKind::Mesh {
        width: 4,
        height: 4,
    };

    fn seed(seed: u64) -> SweepOptions {
        SweepOptions {
            seeds: vec![seed],
            threads: 1,
            ..SweepOptions::default()
        }
    }

    fn by_label<'a>(sweep: &'a PulseSweep, needle: &str) -> &'a SweepPoint {
        let series = sweep.series.iter().find(|s| s.label.contains(needle));
        &series.expect("config present").points[0]
    }

    #[test]
    fn wrate_absorbs_fast_flaps() {
        // 10-second pulses sit inside the 30-second MRAI: with WRATE
        // whole withdraw/re-announce pairs coalesce away upstream, so
        // fewer updates cross the network. Measured undamped — under
        // damping the message-count effect is confounded by false
        // suppression (see knob_comparison_with docs).
        let sweep = knob_comparison_with(SMALL, 4, SimDuration::from_secs(10), &seed(3), false);
        let base = by_label(&sweep, "paper defaults");
        let wrate = by_label(&sweep, "WRATE");
        assert!(
            wrate.messages < base.messages,
            "WRATE {} vs default {}",
            wrate.messages,
            base.messages
        );
    }

    #[test]
    fn disabling_loop_avoidance_costs_messages() {
        let sweep = knob_comparison(SMALL, 1, SimDuration::from_secs(60), &seed(3));
        let base = by_label(&sweep, "paper defaults");
        let noloop = by_label(&sweep, "no sender-side");
        assert!(
            noloop.messages > base.messages,
            "no-avoidance {} vs default {}",
            noloop.messages,
            base.messages
        );
    }

    #[test]
    fn quantised_reuse_still_converges() {
        let sweep = knob_comparison(SMALL, 3, SimDuration::from_secs(60), &seed(3));
        let base = by_label(&sweep, "paper defaults");
        let quant = by_label(&sweep, "quantised");
        // Same suppression structure; convergence within the same
        // order (quantisation delays each release by < 1 tick, but the
        // butterfly effect on the network forbids an exact bound).
        assert!(quant.suppressed > 0.0);
        assert!(quant.convergence_secs > 0.5 * base.convergence_secs);
        assert!(quant.convergence_secs < 3.0 * base.convergence_secs + 300.0);
    }
}
