//! Regenerates every table and figure in one go (pass `--quick` for a
//! reduced-size smoke run). Prints a per-artefact summary and writes
//! all CSVs under `results/`.

use std::process::ExitCode;
use std::time::Instant;

use rfd_experiments::figures::extensions::{
    deployment_table, heterogeneous_params_demo, partial_deployment_sweep,
};
use rfd_experiments::figures::fig10::{figure10, figure10_with};
use rfd_experiments::figures::fig13_14::figure13_14;
use rfd_experiments::figures::fig15::{figure15, figure15_on};
use rfd_experiments::figures::fig3::figure3;
use rfd_experiments::figures::fig7::{figure7, figure7_with};
use rfd_experiments::figures::fig8_9::figure8_9;
use rfd_experiments::figures::table1::table1;
use rfd_experiments::output::{
    banner, obs_init, quick_flag, report_sweep_failures, runner_config, save_csv, sweep_options,
};
use rfd_experiments::TopologyKind;

fn step(label: &str, f: impl FnOnce()) {
    let start = Instant::now();
    eprint!("{label:<12}… ");
    f();
    eprintln!("done in {:.1}s", start.elapsed().as_secs_f64());
}

fn main() -> ExitCode {
    banner("run_all", "regenerate every table and figure");
    let _obs = obs_init("run_all");
    let quick = quick_flag();
    let opts = sweep_options();
    let mut any_failed = false;

    step("Table 1", || {
        save_csv("table1", &table1().render());
    });
    step("Figure 3", || {
        save_csv("fig3", &figure3().render());
    });
    step("Figure 4", || {
        // The Figure 4 state timeline is derived from the same n = 1
        // run as Figure 10; regenerate its CSV via the classifier.
        use rfd_metrics::{StateClassifier, Table};
        let kind = TopologyKind::experiment_mesh(quick);
        let (_, network) =
            rfd_experiments::run_workload(kind, rfd_bgp::NetworkConfig::paper_full_damping(1), 1);
        let trace = network.trace();
        let start = trace.first_flap_at().expect("pulse injected");
        let mut table = Table::new(vec!["state", "from (s)", "to (s)"]);
        for span in StateClassifier::default().classify(trace) {
            table.add_row(vec![
                span.state.to_string(),
                format!("{:.0}", span.from.saturating_since(start).as_secs_f64()),
                format!("{:.0}", span.to.saturating_since(start).as_secs_f64()),
            ]);
        }
        save_csv("fig4", &table);
    });
    step("Figure 7", || {
        let fig = if quick {
            figure7_with(
                TopologyKind::Mesh {
                    width: 6,
                    height: 6,
                },
                1,
                4,
            )
        } else {
            figure7()
        };
        save_csv("fig7", &fig.render());
    });
    step("Figures 8/9", || {
        let sweep = figure8_9(&opts);
        any_failed |= report_sweep_failures(&sweep);
        save_csv("fig8", &sweep.convergence_table());
        save_csv("fig9", &sweep.message_table());
    });
    step("Figure 10", || {
        let fig = if quick {
            figure10_with(
                TopologyKind::Mesh {
                    width: 5,
                    height: 5,
                },
                &[1, 3],
                1,
            )
        } else {
            figure10()
        };
        for panel in &fig.panels {
            save_csv(&format!("fig10_n{}", panel.pulses), &panel.render());
        }
    });
    step("Figs 13/14", || {
        let sweep = figure13_14(&opts);
        any_failed |= report_sweep_failures(&sweep);
        save_csv("fig13", &sweep.convergence_table());
        save_csv("fig14", &sweep.message_table());
    });
    step("Figure 15", || {
        let sweep = if quick {
            figure15_on(&opts, TopologyKind::Internet { nodes: 60, m: 2 })
        } else {
            figure15(&opts)
        };
        any_failed |= report_sweep_failures(&sweep);
        save_csv("fig15", &sweep.convergence_table());
    });
    step("Extensions", || {
        let _ = heterogeneous_params_demo(4, false);
        let _ = heterogeneous_params_demo(4, true);
        let kind = TopologyKind::experiment_mesh(quick);
        let points = partial_deployment_sweep(kind, &[0.0, 0.5, 1.0], 1, &[1], &runner_config());
        save_csv("extensions_partial_deployment", &deployment_table(&points));
    });
    step("Sweeps [15]", || {
        use rfd_experiments::figures::report15::*;
        use rfd_sim::SimDuration;
        let kind = TopologyKind::experiment_mesh(quick);
        let intervals = [
            SimDuration::from_secs(30),
            SimDuration::from_secs(60),
            SimDuration::from_secs(120),
            SimDuration::from_mins(25),
        ];
        let points = interval_sweep(kind, 3, &intervals, &[1], &runner_config());
        save_csv("sweep_interval", &interval_table(&points));
        let sizes: &[(usize, usize)] = if quick {
            &[(3, 3), (5, 5)]
        } else {
            &[(4, 4), (6, 6), (8, 8), (10, 10)]
        };
        let points = size_sweep(sizes, 1, &[1], &runner_config());
        save_csv("sweep_size", &size_table(&points));
        let presets = [
            ("cisco", rfd_core::DampingParams::cisco()),
            ("juniper", rfd_core::DampingParams::juniper()),
            (
                "ripe229-aggressive",
                rfd_core::DampingParams::ripe229_aggressive(),
            ),
        ];
        let points = parameter_sweep(kind, &presets, 3, &[1], &runner_config());
        save_csv("sweep_params", &parameter_table(&points));
    });
    if any_failed {
        eprintln!(
            "\nartefacts regenerated under results/ with FAILED cells — re-run with --resume"
        );
    } else {
        eprintln!("\nall artefacts regenerated under results/");
    }
    if any_failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
