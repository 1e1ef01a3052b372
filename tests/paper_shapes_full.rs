//! Full paper-scale shape assertions (100-node mesh, the exact sizes
//! the paper evaluates). All five run in the default suite: together
//! they take about 9 s under the debug profile on a 2-vCPU machine.
//!
//! The reduced-size versions of the same claims also run (see
//! `rfd-experiments` unit tests and `tests/end_to_end.rs`).

use route_flap_damping::bgp::NetworkConfig;
use route_flap_damping::damping::{intended_behavior, DampingParams, FlapPattern};
use route_flap_damping::experiments::figures::fig13_14::{figure13_14, DAMPING_AND_RCN};
use route_flap_damping::experiments::figures::fig15::{figure15, NO_POLICY, WITH_POLICY};
use route_flap_damping::experiments::figures::fig8_9::{
    figure8_9, CALCULATION, FULL_DAMPING_MESH, NO_DAMPING_MESH,
};
use route_flap_damping::experiments::{
    run_workload, SweepOptions, SweepPoint, SweepSeries, TopologyKind,
};
use route_flap_damping::sim::SimDuration;

#[test]
fn figure8_full_scale_shape() {
    let opts = SweepOptions {
        max_pulses: 10,
        seeds: vec![1, 2, 3],
        ..SweepOptions::default()
    };
    let sweep = figure8_9(&opts);
    let no_damp = sweep.series(NO_DAMPING_MESH).unwrap();
    let damp = sweep.series(FULL_DAMPING_MESH).unwrap();
    let calc = sweep.series(CALCULATION).unwrap();

    // No damping: sub-5-minute convergence at every pulse count.
    for p in &no_damp.points {
        assert!(p.convergence_secs < 300.0, "n={}", p.pulses);
    }
    // Small n: measured exceeds intended by at least 30 minutes.
    for n in 1..=3 {
        let m = damp.at(n).unwrap().convergence_secs;
        let c = calc.at(n).unwrap().convergence_secs;
        assert!(m > c + 1800.0, "n={n}: {m} vs {c}");
    }
    // The critical point: at n = 5 the measured curve first touches the
    // calculation (paper's N_h = 5). Allow a generous band.
    let m5 = damp.at(5).unwrap().convergence_secs;
    let c5 = calc.at(5).unwrap().convergence_secs;
    assert!(
        (m5 - c5).abs() / c5 < 0.25,
        "n=5: measured {m5} vs calculated {c5}"
    );
    // At n = 10 the two agree.
    let m10 = damp.at(10).unwrap().convergence_secs;
    let c10 = calc.at(10).unwrap().convergence_secs;
    assert!((m10 - c10).abs() / c10 < 0.25, "n=10: {m10} vs {c10}");
}

#[test]
fn single_flap_full_scale_matches_paper_magnitudes() {
    // The paper's single-pulse numbers on the 100-node mesh: several
    // hundred falsely damped links (they report ~275 of a 400 bound)
    // and convergence near 5000 s.
    let (report, network) = run_workload(
        TopologyKind::PAPER_MESH,
        NetworkConfig::paper_full_damping(1),
        1,
    );
    let damped = network.trace().ever_suppressed_entries();
    assert!(
        (150..=400).contains(&damped),
        "damped entries {damped} out of the paper's range"
    );
    let conv = report.convergence_time.as_secs_f64();
    assert!(
        (2500.0..=8000.0).contains(&conv),
        "convergence {conv} outside the paper's magnitude"
    );
    // §5.2: nothing anywhere near the 12 000 ceiling.
    assert!(network.trace().peak_penalty() < 9000.0);
}

#[test]
fn rcn_full_scale_tracks_calculation() {
    for pulses in [1usize, 3, 6, 10] {
        let (report, network) = run_workload(
            TopologyKind::PAPER_MESH,
            NetworkConfig::paper_rcn_damping(1),
            pulses,
        );
        let intended = intended_behavior(
            &DampingParams::cisco(),
            FlapPattern::paper_default(pulses),
            SimDuration::from_secs(140),
        );
        let measured = report.convergence_time.as_secs_f64();
        let predicted = intended.convergence_time.as_secs_f64();
        assert!(
            (measured - predicted).abs() <= 0.15 * predicted + 120.0,
            "pulses={pulses}: RCN {measured} vs intended {predicted}"
        );
        if pulses < 3 {
            assert_eq!(network.trace().ever_suppressed_entries(), 0);
        }
    }
}

/// One metric of a series at pulse count `n`.
fn at(series: &SweepSeries, n: usize, metric: fn(&SweepPoint) -> f64) -> f64 {
    metric(series.at(n).unwrap())
}

/// Figures 9, 13 and 14 at paper scale (the default seeds 1, 2, 3 and
/// n = 0..=10): damping caps the mesh's messages from n = 5 on, below
/// the undamped count from n = 2; RCN converges as calculated from
/// n = 3 on but sends more than plain damping.
#[test]
fn figures9_13_14_full_scale_shape() {
    let opts = SweepOptions::default();
    let sweep = figure13_14(&opts);
    let no_damp = sweep.series(NO_DAMPING_MESH).unwrap();
    let damp = sweep.series(FULL_DAMPING_MESH).unwrap();
    let rcn = sweep.series(DAMPING_AND_RCN).unwrap();
    let calc = sweep.series(CALCULATION).unwrap();
    let messages = |p: &SweepPoint| p.messages;
    let convergence = |p: &SweepPoint| p.convergence_secs;

    let cap = at(damp, 5, messages);
    for n in 2..=opts.max_pulses {
        let (undamped, damped) = (at(no_damp, n, messages), at(damp, n, messages));
        // Fig. 9: damping saves messages from the second pulse on.
        assert!(undamped > damped, "n={n}: {undamped} vs {damped} messages");
        // Fig. 9: from n = 5 the damped count sits at its cap.
        if n >= 5 {
            assert!(
                (damped - cap).abs() <= 0.02 * cap,
                "n={n}: {damped} vs cap {cap}"
            );
        }
        // Fig. 14: RCN sends more than plain damping.
        let with_rcn = at(rcn, n, messages);
        assert!(
            with_rcn > damped,
            "n={n}: RCN {with_rcn} vs {damped} messages"
        );
        // Fig. 13: from n = 3 RCN converges within one MRAI (30 s) of
        // the calculation.
        if n >= 3 {
            let (r, c) = (at(rcn, n, convergence), at(calc, n, convergence));
            assert!(
                (r - c).abs() <= 30.0,
                "n={n}: RCN {r} s vs calculated {c} s"
            );
        }
    }
}

/// Figure 15 at paper scale: on the 208-node Internet graph, the
/// no-valley policy converges faster than shortest-path routing at
/// every pulse count.
#[test]
fn figure15_full_scale_shape() {
    let opts = SweepOptions::default();
    let sweep = figure15(&opts);
    let (policy, none) = (
        sweep.series(WITH_POLICY).unwrap(),
        sweep.series(NO_POLICY).unwrap(),
    );
    let convergence = |p: &SweepPoint| p.convergence_secs;
    for n in 1..=opts.max_pulses {
        let (with, without) = (at(policy, n, convergence), at(none, n, convergence));
        assert!(with < without, "n={n}: with policy {with} s vs {without} s");
    }
}
