//! Series × pulse-count × seed grids: the one measurement path behind
//! Figures 8, 9, 13, 14 and 15 (convergence time and message count
//! versus number of pulses) and every one-pulse-count study (the tech
//! report's interval, size and parameter sweeps, partial deployment,
//! the protocol knobs).
//!
//! The sweep owns the grid: [`measure_sweep`] enumerates every (series ×
//! pulse-count × seed) cell, keys it, chains each (series, seed) over
//! its pulse counts and folds the results, and [`rfd_runner`] only runs
//! the chains, on a shared-counter thread pool, optionally journaled
//! under `results/` for `--resume`. A chain builds and warms up its
//! network once and forks one run per pulse count
//! ([`rfd_bgp::PulseChain`]), so the flapping prefix that an `n`-pulse
//! run shares with the `(n − 1)`-pulse run is simulated once.
//! Output is byte-identical for any thread count (see the runner crate's
//! determinism contract). The pulse figures render with
//! [`PulseSweep::convergence_table`]/[`PulseSweep::message_table`], the
//! studies with [`study_table`]; both mark a point whose seeds failed
//! `FAILED:k` instead of printing the survivors' mean.

use std::path::PathBuf;

use rfd_bgp::NetworkConfig;
use rfd_core::{intended_behavior, DampingParams, FlapPattern};
use rfd_metrics::{fmt_f64, RunningStats, Table};
use rfd_runner::{
    hash_params, run_chains, CellFailure, ChaosPlan, GridFingerprint, RunMetrics, RunnerConfig,
};
use rfd_sim::SimDuration;
use rfd_topology::Graph;

use crate::scenarios::{cell_metrics, pulse_chain, run_workload, TopologyKind};

/// One measured point of a sweep (averaged over seeds).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// Number of pulses `n`.
    pub pulses: usize,
    /// Mean convergence time, seconds.
    pub convergence_secs: f64,
    /// Sample standard deviation of the convergence time across seeds
    /// (0 for single-seed sweeps and for calculated series).
    pub convergence_std: f64,
    /// Mean message count.
    pub messages: f64,
    /// Mean count of entries ever suppressed (NaN for calculated
    /// series).
    pub suppressed: f64,
    /// Seeds at this point whose cells failed (panic / journal
    /// error). The means above cover the surviving seeds only,
    /// and tables mark the point instead of printing a silent number.
    pub failed_seeds: usize,
}

/// One labelled curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSeries {
    /// Legend label (matches the paper's).
    pub label: String,
    /// One point per pulse count of the grid, in grid order.
    pub points: Vec<SweepPoint>,
}

impl SweepSeries {
    /// The point for a given pulse count.
    pub fn at(&self, pulses: usize) -> Option<&SweepPoint> {
        self.points.iter().find(|p| p.pulses == pulses)
    }
}

/// A full sweep: several series over the same pulse counts.
#[derive(Debug, Clone, PartialEq)]
pub struct PulseSweep {
    /// The curves.
    pub series: Vec<SweepSeries>,
    /// Cells quarantined by the runner (empty for a clean sweep). A
    /// sweep with failures still renders every series — with failed
    /// points marked — but callers must report these and exit non-zero.
    pub failures: Vec<CellFailure>,
}

impl PulseSweep {
    /// Looks a series up by label.
    pub fn series(&self, label: &str) -> Option<&SweepSeries> {
        self.series.iter().find(|s| s.label == label)
    }

    /// Renders convergence times as a table (one column per series) —
    /// the data of Figures 8/13/15.
    pub fn convergence_table(&self) -> Table {
        self.metric_table(|p| p.convergence_secs)
    }

    /// Renders message counts as a table — the data of Figures 9/14.
    pub fn message_table(&self) -> Table {
        self.metric_table(|p| p.messages)
    }

    fn metric_table(&self, metric: impl Fn(&SweepPoint) -> f64) -> Table {
        let mut headers = vec!["pulses".to_owned()];
        headers.extend(self.series.iter().map(|s| s.label.clone()));
        let mut table = Table::new(headers);
        let max_n = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|p| p.pulses))
            .max()
            .unwrap_or(0);
        for n in 0..=max_n {
            let mut row = vec![n.to_string()];
            for s in &self.series {
                row.push(match s.at(n) {
                    Some(p) => marked(p, || fmt_f64(metric(p), 1)),
                    None => "-".to_owned(),
                });
            }
            table.add_row(row);
        }
        table
    }
}

/// A measured cell as printed: `FAILED:k` where `k` seeds of the point
/// failed, never a silent mean of the survivors; otherwise `clean()`.
fn marked(point: &SweepPoint, clean: impl FnOnce() -> String) -> String {
    if point.failed_seeds > 0 {
        format!("FAILED:{}", point.failed_seeds)
    } else {
        clean()
    }
}

/// One column of a [`study_table`]: its header and how row `i` (series
/// `i`) renders.
pub enum Column<'a> {
    /// A value the study gives — the row's axis value or a model
    /// prediction — printed even where the row's cells failed.
    Given(&'a str, &'a dyn Fn(usize) -> String),
    /// A value read from the row's measured point: `FAILED:k` where `k`
    /// of its seeds failed.
    Measured(&'a str, &'a dyn Fn(usize, &SweepPoint) -> String),
}

impl std::fmt::Debug for Column<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (Column::Given(header, _) | Column::Measured(header, _)) = self;
        write!(f, "Column({header:?})")
    }
}

/// Renders a study — series measured at one pulse count — as one row
/// per series, one cell per column.
pub fn study_table(sweep: &PulseSweep, columns: &[Column<'_>]) -> Table {
    let headers = columns.iter().map(|c| match c {
        Column::Given(header, _) | Column::Measured(header, _) => *header,
    });
    let mut table = Table::new(headers.collect());
    for (i, series) in sweep.series.iter().enumerate() {
        for point in &series.points {
            let cells = columns.iter().map(|c| match c {
                Column::Given(_, cell) => cell(i),
                Column::Measured(_, cell) => marked(point, || cell(i, point)),
            });
            table.add_row(cells.collect());
        }
    }
    table
}

/// Sweep configuration: the grid axes plus how to execute it.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Largest pulse count of the pulse figures (the paper plots
    /// `0..=10`; see [`SweepOptions::pulse_counts`]).
    pub max_pulses: usize,
    /// Seeds averaged per point.
    pub seeds: Vec<u64>,
    /// Worker threads for the run grid; 0 means "all available cores".
    pub threads: usize,
    /// Journal completed runs under this directory (typically
    /// `results/`); `None` disables journaling.
    pub journal_dir: Option<PathBuf>,
    /// With a journal: skip cells already journaled instead of starting
    /// over (`--resume`).
    pub resume: bool,
    /// Deterministic fault injection (`RFD_CHAOS`; empty in normal
    /// operation).
    pub chaos: ChaosPlan,
    /// Run every series on this topology instead of its own
    /// (`--topology torus:RxC|ba:N` on `rfd sweep`). Folded into the
    /// journal fingerprint: an overridden sweep never resumes a
    /// default-topology journal.
    pub topology: Option<TopologyKind>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            max_pulses: 10,
            seeds: vec![1, 2, 3],
            threads: 0,
            journal_dir: None,
            resume: false,
            chaos: ChaosPlan::none(),
            topology: None,
        }
    }
}

impl SweepOptions {
    /// The defaults `--quick` lowers to (5 pulses, seed 1); also the
    /// cheap variant unit tests use.
    pub fn quick() -> Self {
        SweepOptions {
            max_pulses: 5,
            seeds: vec![1],
            ..SweepOptions::default()
        }
    }

    /// The pulse axis of the pulse figures: `0..=max_pulses`.
    pub fn pulse_counts(&self) -> Vec<usize> {
        (0..=self.max_pulses).collect()
    }
}

/// A boxed per-cell configuration builder: given the built graph and the
/// cell's seed, produce the network configuration.
type ConfigFn<'a> = Box<dyn Fn(&Graph, u64) -> NetworkConfig + Send + Sync + 'a>;

/// One series of a sweep grid: a label, a topology, a configuration
/// builder (which may inspect the built graph, for relationship-carrying
/// policies, §7) and the gap between flap events.
pub struct SeriesSpec<'a> {
    /// Legend label (matches the paper's).
    pub label: String,
    /// Topology family this series runs on.
    pub kind: TopologyKind,
    /// Gap between consecutive flap events (the paper's 60 s unless
    /// [`SeriesSpec::every`] sets it).
    pub interval: SimDuration,
    make: ConfigFn<'a>,
}

impl std::fmt::Debug for SeriesSpec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeriesSpec")
            .field("label", &self.label)
            .field("kind", &self.kind)
            .field("interval", &self.interval)
            .finish_non_exhaustive()
    }
}

impl<'a> SeriesSpec<'a> {
    /// A series whose configuration depends only on the seed.
    pub fn by_seed(
        label: &str,
        kind: TopologyKind,
        make: impl Fn(u64) -> NetworkConfig + Send + Sync + 'a,
    ) -> Self {
        Self::on_graph(label, kind, move |_, seed| make(seed))
    }

    /// A series whose configuration may also inspect the built graph.
    pub fn on_graph(
        label: &str,
        kind: TopologyKind,
        make: impl Fn(&Graph, u64) -> NetworkConfig + Send + Sync + 'a,
    ) -> Self {
        SeriesSpec {
            label: label.to_owned(),
            kind,
            interval: FlapPattern::DEFAULT_INTERVAL,
            make: Box::new(make),
        }
    }

    /// Flaps every `interval` instead of the paper's 60 s. Like the
    /// configuration, the interval is not in the journal fingerprint:
    /// the label or grid name must tell intervals apart.
    pub fn every(self, interval: SimDuration) -> Self {
        SeriesSpec { interval, ..self }
    }
}

/// Runs a whole sweep grid — every series × pulse count × seed — through
/// the [`rfd_runner`] pool and folds the results into a [`PulseSweep`].
/// The pulse figures pass [`SweepOptions::pulse_counts`]; a study passes
/// its one count. Seeds and execution come from `opts`.
///
/// The grid is enumerated here, in grid order: series-major, then pulse
/// count, then seed. Cell `i` is journaled under
/// `<label>|n=<pulses>|seed=<seed>`, and each point folds its seeds in
/// that order, so the means are bit-identical for any thread count.
/// The runner schedules one chain per (series, seed), which runs that
/// pair's pulse counts in ascending order on one warmed-up network.
///
/// `name` names the journal file (`results/<name>.runs.jsonl`) when
/// journaling is enabled; figures sharing runs (Figures 8 and 9 read
/// the same grid) share a name, so one journal serves both.
///
/// Individual cell failures do not abort the sweep — they surface in
/// [`PulseSweep::failures`] with their points marked; a cell whose run
/// the horizon or the event budget stopped before quiescence is one.
/// Exits the process with a message on journal setup errors (resume
/// fingerprint mismatch, unwritable `results/`, …).
pub fn measure_sweep(
    name: &str,
    specs: Vec<SeriesSpec<'_>>,
    pulses: &[usize],
    opts: &SweepOptions,
) -> PulseSweep {
    run_grid(name, specs, pulses, opts).0
}

/// A pulse figure: [`measure_sweep`] over [`SweepOptions::pulse_counts`]
/// plus the §3 calculation series (Cisco parameters), whose `t_up` is
/// the mean `n = 1` convergence time of the grid's own `t_up_series`
/// (a no-damping series) — summed in seed order and divided like
/// [`estimate_t_up`], so it equals that estimate on the same topology,
/// bit for bit. If any of those cells failed, every calculated point
/// is marked failed too.
pub(crate) fn measure_pulse_figure(
    name: &str,
    specs: Vec<SeriesSpec<'_>>,
    t_up_series: &str,
    opts: &SweepOptions,
) -> PulseSweep {
    let series = specs
        .iter()
        .position(|s| s.label == t_up_series)
        .unwrap_or_else(|| panic!("no series {t_up_series:?} to read t_up from"));
    let pulses = opts.pulse_counts();
    let (mut sweep, metrics) = run_grid(name, specs, &pulses, opts);
    let k = opts.seeds.len();
    // Without an n = 1 cell (max_pulses 0) no calculated point needs t_up.
    let t_up = match pulses.iter().position(|&n| n == 1) {
        Some(pi) => {
            let runs = &metrics[(series * pulses.len() + pi) * k..][..k];
            mean_secs(runs.iter().map(|m| m.convergence_secs))
        }
        None => Ok(SimDuration::ZERO),
    };
    let params = DampingParams::cisco();
    sweep.series.push(match t_up {
        Ok(t_up) => calculation_series(&params, opts.max_pulses, t_up),
        Err(failed_seeds) => {
            let mut calc = calculation_series(&params, opts.max_pulses, SimDuration::ZERO);
            for point in &mut calc.points {
                point.failed_seeds = failed_seeds;
            }
            calc
        }
    });
    sweep
}

/// Runs the grid; returns the folded sweep and every cell's metrics in
/// grid order.
fn run_grid(
    name: &str,
    mut specs: Vec<SeriesSpec<'_>>,
    pulses: &[usize],
    opts: &SweepOptions,
) -> (PulseSweep, Vec<RunMetrics>) {
    if let Some(kind) = opts.topology {
        for spec in &mut specs {
            spec.kind = kind;
        }
    }
    let seeds = &opts.seeds;
    let cells: Vec<(&SeriesSpec, usize, u64)> = specs
        .iter()
        .flat_map(|spec| {
            pulses
                .iter()
                .flat_map(move |&n| seeds.iter().map(move |&seed| (spec, n, seed)))
        })
        .collect();
    let keys: Vec<String> = cells
        .iter()
        .map(|(spec, n, seed)| format!("{}|n={n}|seed={seed}", spec.label))
        .collect();
    // The fingerprint salt folds in what the axes can't see: which
    // topology each series runs on (the damping parameters and the flap
    // interval live in the spec; the label names the profile).
    let labels: Vec<&str> = specs.iter().map(|s| s.label.as_str()).collect();
    let salt_parts: Vec<String> = specs
        .iter()
        .flat_map(|s| [s.label.clone(), format!("{:?}", s.kind)])
        .collect();
    let salt = hash_params(salt_parts.iter().map(String::as_str));
    let fingerprint = GridFingerprint::new(name, &labels, pulses, seeds, salt);
    let config = RunnerConfig {
        threads: opts.threads,
        journal_dir: opts.journal_dir.clone(),
        resume: opts.resume,
        chaos: opts.chaos.clone(),
    };
    // Cell `i` belongs to point `i / seeds.len()`: series-major, then
    // pulse count. Chain `c` is series `c / k` at seed `c % k`, over
    // its pulse counts in ascending order.
    let k = seeds.len();
    let chains: Vec<Vec<usize>> = (0..specs.len() * k)
        .map(|c| {
            let first = c / k * pulses.len() * k + c % k;
            let mut chain: Vec<usize> = (0..pulses.len()).map(|pi| first + pi * k).collect();
            chain.sort_by_key(|&i| cells[i].1);
            chain
        })
        .collect();
    let cells = &cells;
    let (metrics, failures) = run_chains(&fingerprint, &keys, &chains, &config, |c| {
        let (spec, seed) = (&specs[c / k], seeds[c % k]);
        let mut chain = pulse_chain(spec.kind, seed, spec.interval, |g| (spec.make)(g, seed));
        move |i| cell_metrics(chain.run(cells[i].1))
    })
    .unwrap_or_else(|e| crate::output::exit_with(&e.to_string()));

    let mut failed = vec![0; specs.len() * pulses.len()];
    for failure in &failures {
        failed[failure.index / k] += 1;
    }
    let series = specs
        .iter()
        .enumerate()
        .map(|(si, spec)| SweepSeries {
            label: spec.label.clone(),
            points: (0..pulses.len())
                .map(|pi| {
                    let point = si * pulses.len() + pi;
                    let runs = &metrics[point * k..(point + 1) * k];
                    fold_seeds(pulses[pi], runs, failed[point])
                })
                .collect(),
        })
        .collect();
    (PulseSweep { series, failures }, metrics)
}

/// One point's seeds, folded in seed order. NaN metrics — including the
/// [`RunMetrics::FAILED`] sentinel of a failed cell — are skipped, so
/// failed seeds leave holes instead of poisoning the means.
fn fold_seeds(pulses: usize, runs: &[RunMetrics], failed_seeds: usize) -> SweepPoint {
    let (mut convergence, mut messages, mut suppressed) = Default::default();
    let push = |stats: &mut RunningStats, value: f64| {
        if !value.is_nan() {
            stats.push(value);
        }
    };
    for m in runs {
        push(&mut convergence, m.convergence_secs);
        push(&mut messages, m.messages);
        push(&mut suppressed, m.suppressed);
    }
    SweepPoint {
        pulses,
        convergence_secs: convergence.mean(),
        convergence_std: convergence.std_dev(),
        messages: messages.mean(),
        suppressed: suppressed.mean(),
        failed_seeds,
    }
}

/// The §3 "Full Damping (calculation)" series: intended convergence
/// time from the closed-form model. `t_up` is the damping-free
/// convergence time of a single announcement (measure it with a
/// no-damping run, or pass an estimate).
pub fn calculation_series(
    params: &DampingParams,
    max_pulses: usize,
    t_up: SimDuration,
) -> SweepSeries {
    let points = (0..=max_pulses)
        .map(|n| {
            let b = intended_behavior(params, FlapPattern::paper_default(n), t_up);
            SweepPoint {
                pulses: n,
                convergence_secs: b.convergence_time.as_secs_f64(),
                convergence_std: 0.0,
                // Message and suppression counts have no closed form
                // (§3); mark as NaN so tables render "-".
                messages: f64::NAN,
                suppressed: f64::NAN,
                failed_seeds: 0,
            }
        })
        .collect();
    SweepSeries {
        label: "Full Damping (calculation)".to_owned(),
        points,
    }
}

/// Estimates `t_up` as the measured no-damping convergence time of a
/// single pulse on the given topology (averaged over the sweep seeds).
pub fn estimate_t_up(kind: TopologyKind, opts: &SweepOptions) -> SimDuration {
    let runs = opts.seeds.iter().map(|&seed| {
        let (report, _) = run_workload(kind, NetworkConfig::paper_no_damping(seed), 1);
        report.convergence_time.as_secs_f64()
    });
    mean_secs(runs).expect("fresh runs do not fail")
}

/// The mean of `secs` as a duration: summed in order from 0.0, then
/// divided by the count. `Err(k)` when `k` of them are NaN (failed
/// cells).
fn mean_secs(secs: impl Iterator<Item = f64>) -> Result<SimDuration, usize> {
    let (mut total, mut count, mut failed) = (0.0, 0, 0);
    for s in secs {
        total += s;
        count += 1;
        failed += usize::from(s.is_nan());
    }
    match failed {
        0 => Ok(SimDuration::from_secs_f64(total / count as f64)),
        k => Err(k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_runner::Record;

    const TINY: TopologyKind = TopologyKind::Mesh {
        width: 3,
        height: 3,
    };

    fn point(pulses: usize, convergence_secs: f64, failed_seeds: usize) -> SweepPoint {
        SweepPoint {
            pulses,
            convergence_secs,
            convergence_std: 0.0,
            messages: 2.0 * convergence_secs,
            suppressed: 3.0,
            failed_seeds,
        }
    }

    #[test]
    fn calculation_series_matches_analytic_shape() {
        let s = calculation_series(&DampingParams::cisco(), 6, SimDuration::from_secs(30));
        // n=1,2: just t_up; n>=3: dominated by the reuse delay.
        assert_eq!(s.at(1).unwrap().convergence_secs, 30.0);
        assert_eq!(s.at(2).unwrap().convergence_secs, 30.0);
        assert!(s.at(3).unwrap().convergence_secs > 1200.0);
        assert!(s.at(4).unwrap().convergence_secs >= s.at(3).unwrap().convergence_secs);
        assert!(s.at(3).unwrap().messages.is_nan());
    }

    #[test]
    fn tables_render_all_series() {
        let sweep = PulseSweep {
            series: vec![
                SweepSeries {
                    label: "A".into(),
                    points: vec![point(0, 1.0, 0)],
                },
                calculation_series(&DampingParams::cisco(), 0, SimDuration::ZERO),
            ],
            failures: Vec::new(),
        };
        let conv = sweep.convergence_table().to_string();
        assert!(conv.contains('A') && conv.contains("calculation"));
        let msg = sweep.message_table().to_string();
        assert!(msg.contains('-'), "NaN message counts render as -");
        assert!(sweep.series("A").is_some());
        assert!(sweep.series("missing").is_none());
    }

    #[test]
    fn failed_points_are_marked_in_tables() {
        let sweep = PulseSweep {
            series: vec![SweepSeries {
                label: "A".into(),
                points: vec![point(0, 1.0, 0), point(1, 5.0, 2)],
            }],
            failures: Vec::new(),
        };
        let csv = sweep.convergence_table().to_csv();
        assert!(csv.contains("FAILED:2"), "{csv}");
        assert!(!csv.contains("5.0"), "failed means are not printed: {csv}");
        assert!(sweep.message_table().to_csv().contains("FAILED:2"));
    }

    /// A study row whose seeds failed keeps its given values and marks
    /// every measured one.
    #[test]
    fn study_table_marks_failed_rows_and_keeps_given_columns() {
        let sweep = PulseSweep {
            series: ["a", "b"]
                .into_iter()
                .zip([0, 1])
                .map(|(label, failed)| SweepSeries {
                    label: label.into(),
                    points: vec![point(3, 7.0, failed)],
                })
                .collect(),
            failures: Vec::new(),
        };
        let keys = ["15", "60"];
        let table = study_table(
            &sweep,
            &[
                Column::Given("interval (s)", &|i| keys[i].to_owned()),
                Column::Measured("convergence (s)", &|_, p| fmt_f64(p.convergence_secs, 1)),
                Column::Measured("per node", &|i, p| {
                    fmt_f64(p.suppressed / (i + 1) as f64, 2)
                }),
                Column::Given("model", &|i| format!("m{i}")),
            ],
        );
        assert_eq!(
            table.to_csv(),
            "interval (s),convergence (s),per node,model\n\
             15,7.0,3.00,m0\n\
             60,FAILED:1,FAILED:1,m1\n"
        );
    }

    #[test]
    fn estimate_t_up_is_positive_and_small() {
        let t_up = estimate_t_up(TINY, &SweepOptions::quick());
        assert!(t_up > SimDuration::ZERO);
        assert!(t_up < SimDuration::from_secs(300));
    }

    /// A sweep's journal lives in a fresh directory under the system
    /// temp dir; returns the sweep and the journal's lines.
    fn journaled(
        name: &str,
        specs: Vec<SeriesSpec<'_>>,
        pulses: &[usize],
        opts: SweepOptions,
    ) -> (PulseSweep, Vec<String>) {
        let dir = std::env::temp_dir().join(format!("rfd-sweep-{name}-{}", std::process::id()));
        let opts = SweepOptions {
            threads: 1,
            journal_dir: Some(dir.clone()),
            ..opts
        };
        let sweep = measure_sweep(name, specs, pulses, &opts);
        let text = std::fs::read_to_string(rfd_runner::journal_path(&dir, name)).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        (sweep, text.lines().map(str::to_owned).collect())
    }

    /// The salt is the series' labels and topologies, as it always
    /// was, so an existing pulse-grid journal still resumes: the header
    /// is the line earlier versions wrote for this grid.
    #[test]
    fn pulse_grid_journal_header_is_unchanged() {
        let opts = SweepOptions {
            seeds: vec![1],
            ..SweepOptions::default()
        };
        let spec = SeriesSpec::by_seed("damped", TINY, NetworkConfig::paper_full_damping);
        let (_, lines) = journaled("hdr", vec![spec], &[0], opts);
        assert_eq!(
            lines[0],
            r#"{"journal":"rfd-runs/v2","grid":"hdr","series":1,"pulses":1,"seeds":1,"cells":1,"param_hash":"9046e71507873d3b"}"#
        );
    }

    /// On one thread, cells run and journal chain by chain — series-
    /// major, then seed, then pulse count — under
    /// `<label>|n=<pulses>|seed=<seed>` keys; a failed seed leaves a
    /// hole in its point, not a NaN mean, and the rest of its chain
    /// still runs.
    #[test]
    fn cells_journal_in_chain_order_and_failed_seeds_are_skipped() {
        let failed_key = "b|n=2|seed=1";
        let opts = SweepOptions {
            seeds: vec![1, 2],
            chaos: ChaosPlan::parse(&format!("panic@{failed_key}")).unwrap(),
            ..SweepOptions::default()
        };
        let specs = vec![
            SeriesSpec::by_seed("a", TINY, NetworkConfig::paper_no_damping),
            SeriesSpec::by_seed("b", TINY, NetworkConfig::paper_full_damping),
        ];
        let (sweep, lines) = journaled("order", specs, &[1, 2], opts);
        let records: Vec<_> = lines[1..]
            .iter()
            .map(|line| rfd_runner::parse_record(line).unwrap())
            .collect();
        let keys: Vec<&str> = records
            .iter()
            .map(|r| match r {
                Record::Run { key, .. } | Record::Failure { key, .. } => key.as_str(),
                Record::Header(_) => panic!("a second header"),
            })
            .collect();
        let mut expected = Vec::new();
        for label in ["a", "b"] {
            for seed in [1, 2] {
                for n in [1, 2] {
                    expected.push(format!("{label}|n={n}|seed={seed}"));
                }
            }
        }
        assert_eq!(keys, expected);

        assert_eq!(sweep.failures.len(), 1);
        assert_eq!(
            (sweep.failures[0].index, sweep.failures[0].key.as_str()),
            (6, failed_key)
        );
        let point = sweep.series("b").unwrap().at(2).unwrap();
        assert_eq!(point.failed_seeds, 1);
        let Record::Run {
            metrics: survivor, ..
        } = records[7]
        else {
            panic!("b|n=2|seed=2 did not complete");
        };
        assert_eq!(point.convergence_secs, survivor.convergence_secs);
        assert_eq!(point.messages, survivor.messages);
        assert_eq!(sweep.series("b").unwrap().at(1).unwrap().failed_seeds, 0);
    }

    /// A cell whose run the horizon cuts off mid-flapping fails — it
    /// reads `FAILED:1` and is journaled as a failure — while the
    /// zero-pulse cell of the same chain, which ends at once, does not.
    #[test]
    fn a_cell_stopped_by_the_horizon_fails() {
        let opts = SweepOptions {
            seeds: vec![1],
            ..SweepOptions::default()
        };
        // The warm-up ends within seconds; the second pulse's
        // re-announcement comes 280 s after it.
        let cut = SeriesSpec::by_seed("cut", TINY, |seed| NetworkConfig {
            horizon: SimDuration::from_secs(250),
            ..NetworkConfig::paper_no_damping(seed)
        });
        let (sweep, lines) = journaled("cut", vec![cut], &[0, 2], opts);
        let points = &sweep.series[0].points;
        assert_eq!((points[0].failed_seeds, points[1].failed_seeds), (0, 1));
        assert_eq!(sweep.failures.len(), 1);
        assert!(
            sweep.failures[0]
                .message
                .contains("stopped early (HorizonReached)"),
            "{}",
            sweep.failures[0].message
        );
        assert!(sweep.convergence_table().to_csv().contains("2,FAILED:1"));
        assert!(matches!(
            rfd_runner::parse_record(&lines[2]),
            Some(Record::Failure { key, .. }) if key == "cut|n=2|seed=1"
        ));
    }

    /// Both CSVs of a three-series, 0..=2-pulse sweep over [`TINY`] —
    /// what the byte-identity contracts below compare.
    fn tiny_csvs(name: &str, opts: SweepOptions) -> (String, String) {
        let specs = vec![
            SeriesSpec::by_seed("undamped", TINY, NetworkConfig::paper_no_damping),
            SeriesSpec::by_seed("damped", TINY, NetworkConfig::paper_full_damping),
            SeriesSpec::by_seed("rcn", TINY, NetworkConfig::paper_rcn_damping),
        ];
        let opts = SweepOptions {
            max_pulses: 2,
            ..opts
        };
        let sweep = measure_sweep(name, specs, &opts.pulse_counts(), &opts);
        (
            sweep.convergence_table().to_csv(),
            sweep.message_table().to_csv(),
        )
    }

    /// The runner's headline guarantee, exercised end-to-end on real
    /// simulations: a 3-series × 3-seed pulse sweep renders *byte-
    /// identical* CSV tables whether it runs on one thread or four.
    #[test]
    fn sweep_is_byte_identical_across_thread_counts() {
        let on = |threads| SweepOptions {
            threads,
            ..SweepOptions::default()
        };
        assert_eq!(tiny_csvs("det-check", on(1)), tiny_csvs("det-check", on(4)));
    }

    #[test]
    fn measure_sweep_batches_multiple_series_in_one_grid() {
        let opts = SweepOptions {
            max_pulses: 2,
            seeds: vec![1, 2],
            ..SweepOptions::default()
        };
        let sweep = measure_sweep(
            "multi",
            vec![
                SeriesSpec::by_seed("a", TINY, NetworkConfig::paper_no_damping),
                SeriesSpec::by_seed("b", TINY, NetworkConfig::paper_full_damping),
            ],
            &opts.pulse_counts(),
            &opts,
        );
        assert_eq!(sweep.series.len(), 2);
        assert_eq!(sweep.series[1].label, "b");
        let a = &sweep.series[0];
        assert_eq!(a.points.len(), 3, "one point per pulse count");
        assert_eq!(a.at(0).unwrap().messages, 0.0);
        assert!(a.at(2).unwrap().messages > a.at(1).unwrap().messages);
        assert_eq!(
            a.at(2).unwrap().suppressed,
            0.0,
            "undamped never suppresses"
        );
        // Multi-seed points carry a spread.
        assert!(a.at(1).unwrap().convergence_std >= 0.0);
    }
}
