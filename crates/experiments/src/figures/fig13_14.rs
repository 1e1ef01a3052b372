//! Figures 13 and 14: the Figure 8/9 sweeps with **RCN-enhanced
//! damping** added. With RCN, convergence no longer overshoots at small
//! `n` (it tracks the calculation), suppression begins exactly at the
//! pulse the parameters specify, and the message count stays bounded —
//! at the cost of slightly *more* messages than plain damping (no
//! premature false suppression to swallow updates).

use rfd_bgp::NetworkConfig;

use crate::figures::fig8_9::{measured_specs, NO_DAMPING_MESH};
use crate::scenarios::TopologyKind;
use crate::sweep::{measure_pulse_figure, PulseSweep, SeriesSpec, SweepOptions};

/// Legend label for the RCN series.
pub const DAMPING_AND_RCN: &str = "Damping and RCN";

/// Runs the Figure 13/14 sweep on the paper topologies.
pub fn figure13_14(opts: &SweepOptions) -> PulseSweep {
    figure13_14_on(opts, TopologyKind::PAPER_MESH, TopologyKind::PAPER_INTERNET)
}

/// Parameterised variant. The Figure 8/9 measured series plus the RCN
/// series run as a single grid ("fig13-14"); the calculation is
/// appended last (paper legend order: simulations, RCN, calculation).
pub fn figure13_14_on(
    opts: &SweepOptions,
    mesh: TopologyKind,
    internet: TopologyKind,
) -> PulseSweep {
    let mut specs = measured_specs(mesh, internet);
    specs.push(SeriesSpec::by_seed(
        DAMPING_AND_RCN,
        mesh,
        NetworkConfig::paper_rcn_damping,
    ));
    measure_pulse_figure("fig13-14", specs, NO_DAMPING_MESH, opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::fig8_9::{CALCULATION, FULL_DAMPING_MESH};

    #[test]
    fn rcn_restores_intended_behaviour() {
        let opts = SweepOptions {
            max_pulses: 4,
            seeds: vec![2],
            ..SweepOptions::default()
        };
        let mesh = TopologyKind::experiment_mesh(true);
        let sweep = figure13_14_on(&opts, mesh, TopologyKind::Internet { nodes: 25, m: 2 });
        let rcn = sweep.series(DAMPING_AND_RCN).unwrap();
        let plain = sweep.series(FULL_DAMPING_MESH).unwrap();
        let calc = sweep.series(CALCULATION).unwrap();

        // n = 1, 2: no suppression under RCN → fast convergence, while
        // plain damping overshoots by tens of minutes.
        for n in 1..=2 {
            let r = rcn.at(n).unwrap().convergence_secs;
            let p = plain.at(n).unwrap().convergence_secs;
            assert!(r < 300.0, "n={n}: RCN converged in {r}s");
            assert!(p > r + 600.0, "n={n}: plain {p}s vs RCN {r}s");
        }

        // n = 3: suppression triggers as designed; RCN tracks the
        // calculation within 25%.
        let r3 = rcn.at(3).unwrap().convergence_secs;
        let c3 = calc.at(3).unwrap().convergence_secs;
        assert!(
            (r3 - c3).abs() / c3 < 0.25,
            "n=3: RCN {r3}s vs calculated {c3}s"
        );
    }

    #[test]
    fn rcn_message_count_stays_bounded() {
        let opts = SweepOptions {
            max_pulses: 5,
            seeds: vec![2],
            ..SweepOptions::default()
        };
        let mesh = TopologyKind::Mesh {
            width: 4,
            height: 4,
        };
        let sweep = figure13_14_on(&opts, mesh, TopologyKind::Internet { nodes: 16, m: 2 });
        let rcn = sweep.series(DAMPING_AND_RCN).unwrap();
        // Once ispAS suppresses (n >= 3), extra pulses add only the
        // origin-link updates, not another network-wide flood.
        let growth = rcn.at(5).unwrap().messages - rcn.at(4).unwrap().messages;
        let early_growth = rcn.at(2).unwrap().messages - rcn.at(1).unwrap().messages;
        assert!(
            growth < early_growth,
            "late growth {growth} vs early {early_growth}"
        );
    }
}
