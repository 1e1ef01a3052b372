//! `rfd figure NAME` and `rfd sweep` — the paper's artefacts as
//! commands.
//!
//! Each artefact chooses its parameters (full and `--quick` sizes) in
//! exactly one function here and narrates on stderr: banners, ASCII
//! charts, summaries. Its tables go to stdout as CSV and are saved
//! under [`results_dir`]. `rfd figure all` calls the very same
//! functions, the three pulse grids included, and only saves. The
//! measurement itself lives in [`rfd_experiments::figures`]. Every
//! grid — pulse figure or study — runs under the command's
//! [`SweepOptions`], and `Context` adds up its failed cells, so the
//! command exits 1 after one.

use std::cell::Cell;

use rfd_bgp::{Network, NetworkConfig};
use rfd_core::{DampingParams, FlapPattern, FlapSchedule};
use rfd_experiments::figures::{self, extensions, fig15, fig8_9, knobs, report15};
use rfd_experiments::output::{results_dir, save_csv};
use rfd_experiments::{
    pick_isp, run_workload, study_table, Column, PulseSweep, SweepOptions, SweepPoint, SweepSeries,
    TopologyKind,
};
use rfd_metrics::{fmt_f64, AsciiChart, DampingState, StateClassifier, Table};
use rfd_sim::SimDuration;

/// Which pulse grid `rfd sweep --figure` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepFigure {
    /// Figures 8 and 9 (convergence / messages vs pulses).
    Fig8_9,
    /// Figures 13 and 14 (the above plus RCN).
    Fig13_14,
    /// Figure 15 (routing policy).
    Fig15,
}

impl SweepFigure {
    /// Every grid, in the order `rfd figure all` runs them.
    pub const ALL: [SweepFigure; 3] = [Self::Fig8_9, Self::Fig13_14, Self::Fig15];

    /// The `--figure` value.
    pub fn name(self) -> &'static str {
        match self {
            Self::Fig8_9 => "fig8-9",
            Self::Fig13_14 => "fig13-14",
            Self::Fig15 => "fig15",
        }
    }

    /// The CSVs the grid saves: convergence time, then message count
    /// (Figure 15 plots convergence only).
    pub fn csv_names(self) -> &'static [&'static str] {
        match self {
            Self::Fig8_9 => &["fig8", "fig9"],
            Self::Fig13_14 => &["fig13", "fig14"],
            Self::Fig15 => &["fig15"],
        }
    }
}

/// How one command regenerates artefacts.
struct Context {
    /// `--quick`: reduced sizes.
    quick: bool,
    /// Grid axes and execution options.
    opts: SweepOptions,
    /// Print each table's CSV on stdout too (every command but `all`).
    stdout: bool,
    /// Grid cells that failed so far (their points read `FAILED:k`).
    failed: Cell<usize>,
}

impl Context {
    /// Shows `table` on stderr and, unless under `all`, its CSV on
    /// stdout.
    fn show(&self, table: &Table) {
        eprintln!("{table}");
        if self.stdout {
            print!("{}", table.to_csv());
        }
    }

    /// [`Self::show`], then saves `table` as `<name>.csv`.
    fn publish(&self, name: &str, table: &Table) {
        self.show(table);
        eprintln!("\nsaved {}", save_csv(name, table).display());
    }

    /// Publishes a study as `<name>.csv`, rendered with `columns`, and
    /// counts its failed cells.
    fn publish_study(&self, name: &str, sweep: &PulseSweep, columns: &[Column<'_>]) {
        self.publish(name, &study_table(sweep, columns));
        self.count_failures(sweep);
    }

    /// Reports a grid's failed cells on stderr and adds them to
    /// [`Self::failed`].
    fn count_failures(&self, sweep: &PulseSweep) {
        if !sweep.failures.is_empty() {
            eprint!("{}", rfd_runner::render_failure_report(&sweep.failures));
        }
        self.failed.set(self.failed.get() + sweep.failures.len());
    }

    /// The mesh the single-run artefacts use at this size.
    fn mesh(&self) -> TopologyKind {
        TopologyKind::experiment_mesh(self.quick)
    }
}

/// Measured columns the study tables share: means to one decimal.
const CONVERGENCE: Column =
    Column::Measured("convergence (s)", &|_, p| fmt_f64(p.convergence_secs, 1));
const UPDATES: Column = Column::Measured("updates", &|_, p| fmt_f64(p.messages, 1));
const SUPPRESSED: Column = Column::Measured("suppressed entries", &|_, p| fmt_f64(p.suppressed, 1));

/// A `side × side` torus.
fn square(side: usize) -> TopologyKind {
    TopologyKind::Mesh {
        width: side,
        height: side,
    }
}

/// A penalty curve against the cut-off and reuse thresholds.
fn threshold_chart(curve: &[(f64, f64)], params: &DampingParams) -> String {
    let level = |v| curve.iter().map(|&(t, _)| (t, v)).collect::<Vec<_>>();
    let [cutoff, reuse] = [params.cutoff_threshold(), params.reuse_threshold()].map(level);
    let series = [("penalty", curve), ("cut-off", &cutoff), ("reuse", &reuse)];
    let chart = AsciiChart::new(72, 18).render(&series);
    format!("{chart}\n{} curve points (penalty vs time)", curve.len())
}

/// Convergence time versus pulses, one curve per series.
fn convergence_chart(sweep: &PulseSweep) -> String {
    let curve = |s: &SweepSeries| -> Vec<(f64, f64)> {
        s.points
            .iter()
            .map(|p| (p.pulses as f64, p.convergence_secs))
            .collect()
    };
    let curves: Vec<_> = sweep
        .series
        .iter()
        .map(|s| (s.label.as_str(), curve(s)))
        .collect();
    let refs: Vec<(&str, &[(f64, f64)])> = curves.iter().map(|(l, v)| (*l, v.as_slice())).collect();
    AsciiChart::new(66, 16).render(&refs)
}

/// An `rfd figure` artefact: name, heading, and the function that
/// regenerates it.
type Figure = (&'static str, &'static str, fn(&Context));

/// Every `rfd figure NAME` but `all`, in the order `all` runs them.
#[rustfmt::skip]
const FIGURES: [Figure; 9] = [
    ("table1", "Table 1 — default damping parameters", table1),
    ("fig3", "Figure 3 — damping penalty under a few flaps", fig3),
    ("fig4", "Figure 4 — four-state damping process (reconstructed from an n = 1 trace)", fig4),
    ("fig7", "Figure 7 — penalty at a remote router after one flap (100-node mesh)", fig7),
    ("fig10", "Figure 10 — update series & damped link count for n = 1, 3, 5", fig10),
    ("extensions", "Extensions — heterogeneous parameters & partial deployment", extensions),
    ("sweeps", "Sweeps [15] — flapping interval, topology size, damping parameters", sweeps),
    ("link_failure", "Link failure — interior-link flapping under full damping (extension)", link_failure),
    ("knobs", "Knobs — protocol-option ablations under full damping", knobs),
];

/// Every `rfd figure` name: the artefacts, then `all`.
pub fn names() -> impl Iterator<Item = &'static str> {
    FIGURES.iter().map(|&(name, ..)| name).chain(["all"])
}

/// Runs `rfd figure NAME` (one of [`names`]); returns how many grid
/// cells failed.
pub fn regenerate(name: &str, quick: bool, opts: SweepOptions) -> usize {
    let all = name == "all";
    let cx = Context {
        quick,
        opts,
        stdout: !all,
        failed: Cell::new(0),
    };
    for (_, heading, run) in FIGURES.iter().filter(|f| all || f.0 == name) {
        eprintln!("== {heading} ==");
        if quick {
            eprintln!("(quick mode: reduced sizes)");
        }
        eprintln!();
        run(&cx);
    }
    if all {
        for grid in SweepFigure::ALL {
            sweep_grid(grid, &cx);
        }
        eprintln!(
            "\nall artefacts regenerated under {}",
            results_dir().display()
        );
    }
    cx.failed.get()
}

/// Runs `rfd sweep --figure`; returns how many grid cells failed.
pub fn sweep(figure: SweepFigure, quick: bool, opts: SweepOptions) -> usize {
    let cx = Context {
        quick,
        opts,
        stdout: true,
        failed: Cell::new(0),
    };
    sweep_grid(figure, &cx);
    cx.failed.get()
}

/// One pulse grid: the paper topologies (Figure 15 shrinks to a 60-node
/// graph under `--quick`), a convergence chart and the figure's own
/// summary on stderr, both tables on stdout, the figure's CSVs saved.
fn sweep_grid(figure: SweepFigure, cx: &Context) {
    let opts = &cx.opts;
    eprintln!(
        "{} — {} thread(s), {} seed(s), pulses 0..={}{}",
        figure.name(),
        match opts.threads {
            0 => "all".to_owned(),
            n => n.to_string(),
        },
        opts.seeds.len(),
        opts.max_pulses,
        if opts.resume { ", resuming" } else { "" },
    );
    let sweep = match figure {
        SweepFigure::Fig8_9 => figures::fig8_9::figure8_9(opts),
        SweepFigure::Fig13_14 => figures::fig13_14::figure13_14(opts),
        SweepFigure::Fig15 if cx.quick => {
            fig15::figure15_on(opts, TopologyKind::Internet { nodes: 60, m: 2 })
        }
        SweepFigure::Fig15 => fig15::figure15(opts),
    };
    eprintln!("{}", convergence_chart(&sweep));
    match figure {
        SweepFigure::Fig8_9 => {
            if let Some(nh) = fig8_9::critical_point(&sweep, fig8_9::FULL_DAMPING_MESH, 0.30) {
                eprintln!("critical point N_h (mesh, 30% band): {nh}");
            }
        }
        SweepFigure::Fig13_14 => {}
        SweepFigure::Fig15 => {
            for label in [fig15::WITH_POLICY, fig15::NO_POLICY, fig15::INTENDED] {
                if let Some(mean) = fig15::mean_convergence(&sweep, label) {
                    eprintln!("mean convergence, {label}: {mean:.0}s");
                }
            }
        }
    }
    let tables = [sweep.convergence_table(), sweep.message_table()];
    for (i, table) in tables.iter().enumerate() {
        match figure.csv_names().get(i) {
            Some(name) => cx.publish(name, table),
            None => cx.show(table),
        }
    }
    cx.count_failures(&sweep);
}

fn table1(cx: &Context) {
    cx.publish("table1", &figures::table1::table1().render());
}

fn fig3(cx: &Context) {
    let fig = figures::fig3::figure3();
    let params = &fig.params;
    eprintln!(
        "cut-off {} / reuse {} — peak {:.0}",
        params.cutoff_threshold(),
        params.reuse_threshold(),
        fig.peak
    );
    for (from, to) in &fig.suppressed_spans {
        eprintln!("suppressed from {from:.0}s to {to:.0}s");
    }
    eprintln!("{}", threshold_chart(&fig.curve, params));
    cx.publish("fig3", &fig.render());
}

/// The four states are reconstructed from the trace of a single-pulse
/// run and printed as a timeline.
fn fig4(cx: &Context) {
    let (report, network) = run_workload(cx.mesh(), NetworkConfig::paper_full_damping(1), 1);
    let trace = network.trace();
    let start = trace.first_flap_at().expect("one pulse injected");
    let classifier = StateClassifier::default();
    let mut table = Table::new(vec!["state", "from (s)", "to (s)", "duration (s)"]);
    let total = report.convergence_time.as_secs_f64().max(1.0);
    eprintln!("episode timeline (seconds since first flap):");
    for span in &classifier.classify(trace) {
        let from = span.from.saturating_since(start).as_secs_f64();
        let to = span.to.saturating_since(start).as_secs_f64();
        // A proportional bar makes the timeline legible at a glance.
        let bar_len = (((to - from) / total) * 48.0).round() as usize;
        let (state, bar) = (span.state.to_string(), "#".repeat(bar_len.max(1)));
        eprintln!("  {state:<12} {from:>7.0} → {to:>7.0}  {bar}");
        let cells = [from, to, to - from].map(|secs| format!("{secs:.0}"));
        table.add_row([state].into_iter().chain(cells).collect());
    }
    let suppressions = classifier.suppression_periods(trace);
    eprintln!(
        "\n{suppressions} suppression period(s){}",
        if suppressions > 1 {
            " — secondary charging re-entered suppression (the paper's dashed arrow)"
        } else {
            ""
        }
    );
    let time_in = |state| classifier.time_in(trace, state).as_secs_f64();
    eprintln!(
        "charging {:.0} s, releasing {:.0} s of a {:.0} s episode",
        time_in(DampingState::Charging),
        time_in(DampingState::Releasing),
        report.convergence_time.as_secs_f64()
    );
    cx.publish("fig4", &table);
}

fn fig7(cx: &Context) {
    let fig = if cx.quick {
        figures::fig7::figure7_with(square(6), 1, 4)
    } else {
        figures::fig7::figure7()
    };
    let params = &fig.params;
    eprintln!("{}", fig.summary());
    eprintln!(
        "thresholds: cut-off {}, reuse {}; ceiling {} (§5.2: peak stays far below)",
        params.cutoff_threshold(),
        params.reuse_threshold(),
        params.penalty_ceiling()
    );
    eprintln!("{}", threshold_chart(&fig.curve, params));
    cx.publish("fig7", &fig.render());
}

/// One panel per pulse count, annotated with the Figure 4 states.
fn fig10(cx: &Context) {
    let fig = if cx.quick {
        figures::fig10::figure10_with(square(5), &[1, 3], 1)
    } else {
        figures::fig10::figure10()
    };
    let chart =
        |name: &str, points: Vec<(f64, f64)>| AsciiChart::new(66, 10).render_one(name, &points);
    for panel in &fig.panels {
        eprintln!(
            "n = {}: {} updates, convergence {:.0}s, peak damped links {}",
            panel.pulses, panel.messages, panel.convergence_secs, panel.peak_damped
        );
        eprintln!("  states: {}", panel.states_summary());
        let updates = panel.update_series.iter().map(|&(t, c)| (t, c as f64));
        eprintln!(
            "  update series (5 s bins):\n{}",
            chart("updates", updates.collect())
        );
        let damped = panel.damped_links.iter().map(|&(t, v)| (t, v as f64));
        eprintln!("  damped links:\n{}", chart("damped", damped.collect()));
        cx.publish(&format!("fig10_n{}", panel.pulses), &panel.render());
    }
}

/// §6's heterogeneous-parameter secondary charging (no path
/// exploration involved), multi-prefix interference, and the tech
/// report's partial-deployment sweep.
fn extensions(cx: &Context) {
    eprintln!("-- §6 heterogeneous parameters (4-node line, zero path exploration) --");
    for (label, rcn) in [("plain damping", false), ("RCN-enhanced", true)] {
        let demo = extensions::heterogeneous_params_demo(4, rcn);
        eprintln!(
            "{label}: Y recharged {} time(s) after flapping stopped; X reused at {:.0}s, Y at {:.0}s; convergence {:.0}s",
            demo.recharges_at_y, demo.x_reused_at, demo.y_reused_at, demo.convergence_secs
        );
    }

    eprintln!("\n-- multi-prefix interference (storm on one of two prefixes) --");
    let side = if cx.quick { 4 } else { 8 };
    let r = extensions::prefix_interference(square(side), 5, 2);
    eprintln!(
        "flapping prefix: {} entries suppressed; stable prefix: {} suppressed, routable throughout: {}; {} updates",
        r.flapping_suppressed, r.stable_suppressed, r.stable_always_routable, r.messages
    );

    eprintln!("\n-- partial deployment (1 pulse) --");
    let fractions = [0.0, 0.25, 0.5, 0.75, 1.0];
    let sweep = extensions::partial_deployment_sweep(cx.mesh(), &fractions, 1, &cx.opts);
    let deployed = |i: usize| format!("{:.0}", fractions[i] * 100.0);
    let suppressed = |_, p: &SweepPoint| fmt_f64(p.suppressed, 1);
    let columns = [
        Column::Given("deployed %", &deployed),
        CONVERGENCE,
        UPDATES,
        Column::Measured("entries suppressed", &suppressed),
    ];
    cx.publish_study("extensions_partial_deployment", &sweep, &columns);
}

/// The technical-report \[15\] parameter studies: flapping interval,
/// topology size, and damping-parameter presets.
fn sweeps(cx: &Context) {
    let kind = cx.mesh();

    eprintln!("-- flapping interval (3 pulses, full Cisco damping) --");
    let intervals = [15, 30, 60, 120, 300, 1500].map(SimDuration::from_secs);
    let sweep = report15::interval_sweep(kind, 3, &intervals, &cx.opts);
    let interval = |i: usize| fmt_f64(intervals[i].as_secs_f64(), 0);
    let intended = |i: usize| fmt_f64(report15::intended_secs(3, intervals[i]), 1);
    let columns = [
        Column::Given("interval (s)", &interval),
        CONVERGENCE,
        UPDATES,
        SUPPRESSED,
        Column::Given("intended (s)", &intended),
    ];
    cx.publish_study("sweep_interval", &sweep, &columns);

    eprintln!("\n-- topology size (1 pulse) --");
    let sizes: &[(usize, usize)] = if cx.quick {
        &[(3, 3), (5, 5)]
    } else {
        &[(4, 4), (6, 6), (8, 8), (10, 10), (12, 12)]
    };
    let sweep = report15::size_sweep(sizes, 1, &cx.opts);
    let nodes = |i: usize| sizes[i].0 * sizes[i].1;
    let per_node = |i, p: &SweepPoint| fmt_f64(p.suppressed / nodes(i) as f64, 2);
    let columns = [
        Column::Given("nodes", &|i| nodes(i).to_string()),
        CONVERGENCE,
        UPDATES,
        Column::Measured("suppressed / node", &per_node),
    ];
    cx.publish_study("sweep_size", &sweep, &columns);

    eprintln!("\n-- damping parameter presets (3 pulses) --");
    let presets = [
        ("cisco", DampingParams::cisco()),
        ("juniper", DampingParams::juniper()),
        ("ripe229-aggressive", DampingParams::ripe229_aggressive()),
    ];
    let sweep = report15::parameter_sweep(kind, &presets, 3, &cx.opts);
    let preset = |i: usize| presets[i].0.to_owned();
    let columns = [
        Column::Given("preset", &preset),
        CONVERGENCE,
        UPDATES,
        SUPPRESSED,
    ];
    cx.publish_study("sweep_params", &sweep, &columns);
}

/// Failure injection beyond the paper: flap an **interior** link
/// instead of the origin's access link. Damping applies to the transit
/// routes crossing the link; path diversity around it determines how
/// much of the network falsely suppresses.
fn link_failure(cx: &Context) {
    let seed = 1u64;
    let graph = cx.mesh().build(seed);
    let isp = pick_isp(&graph, seed);
    // A link adjacent to the ISP carries transit for the origin's prefix.
    let neighbor = *graph.neighbors(isp).first().expect("isp has neighbours");
    let mut table = Table::new(vec![
        "pulses",
        "convergence (s)",
        "updates",
        "dropped",
        "suppressed entries",
    ]);
    for pulses in [1usize, 3, 5] {
        let mut net = Network::new(&graph, isp, NetworkConfig::paper_full_damping(seed));
        net.warm_up();
        let schedule = FlapSchedule::from(FlapPattern::paper_default(pulses));
        let report = net.run_link_schedule(isp, neighbor, &schedule, SimDuration::from_secs(100));
        let (dropped, suppressed) = (
            net.dropped_messages(),
            net.trace().ever_suppressed_entries(),
        );
        let convergence = report.convergence_time.as_secs_f64();
        eprintln!(
            "pulses {pulses}: convergence {convergence:.0}s, {} updates, {dropped} dropped in flight, {suppressed} entries suppressed",
            report.message_count,
        );
        table.add_row(vec![
            pulses.to_string(),
            fmt_f64(convergence, 1),
            report.message_count.to_string(),
            dropped.to_string(),
            suppressed.to_string(),
        ]);
    }
    eprintln!();
    cx.publish("link_failure", &table);
}

/// WRATE, sender-side loop avoidance and reuse-timer quantisation
/// against the paper defaults, on seed 1.
fn knobs(cx: &Context) {
    let opts = SweepOptions {
        seeds: vec![1],
        ..cx.opts.clone()
    };
    for (pulses, interval) in [(1usize, 60u64), (4, 10)] {
        eprintln!("-- {pulses} pulse(s), {interval} s interval --");
        let interval_d = SimDuration::from_secs(interval);
        let sweep = knobs::knob_comparison(cx.mesh(), pulses, interval_d, &opts);
        // One seed: the counts print as the integers they are.
        let label = |i: usize| sweep.series[i].label.clone();
        let updates = |_, p: &SweepPoint| fmt_f64(p.messages, 0);
        let suppressed = |_, p: &SweepPoint| fmt_f64(p.suppressed, 0);
        let columns = [
            Column::Given("configuration", &label),
            CONVERGENCE,
            Column::Measured("updates", &updates),
            Column::Measured("suppressed entries", &suppressed),
        ];
        let name = format!("knobs_p{pulses}_i{interval}");
        cx.publish_study(&name, &sweep, &columns);
        eprintln!();
    }
}
