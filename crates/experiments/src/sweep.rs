//! Pulse-count sweeps: the machinery behind Figures 8, 9, 13, 14
//! and 15 (convergence time and message count versus number of pulses).
//!
//! Measurement goes through [`rfd_runner`]: every (series × pulse-count
//! × seed) cell becomes a grid job, executed on a shared-counter thread
//! pool and optionally journaled under `results/` for `--resume`.
//! Output is byte-identical for any thread count (see the runner crate's
//! determinism contract).

use std::path::PathBuf;

use rfd_bgp::NetworkConfig;
use rfd_core::{intended_behavior, DampingParams, FlapPattern};
use rfd_metrics::{fmt_f64, Table};
use rfd_runner::{
    hash_params, run_grid, CellFailure, ChaosPlan, GridResults, RunGrid, RunnerConfig, RunnerError,
};
use rfd_sim::SimDuration;
use rfd_topology::Graph;

use crate::scenarios::{run_pattern_metrics, run_workload, TopologyKind, WarmCache};

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
    /// Seeds at this point whose cells failed (panic / timeout /
    /// journal error). The means above cover the surviving seeds only,
    /// and tables mark the point instead of printing a silent number.
    pub failed_seeds: usize,
}

/// One labelled curve.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSeries {
    /// Legend label (matches the paper's).
    pub label: String,
    /// Points for `n = 0..=max`.
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
        self.metric_table(|p| p.convergence_secs, "convergence time (s)")
    }

    /// Renders message counts as a table — the data of Figures 9/14.
    pub fn message_table(&self) -> Table {
        self.metric_table(|p| p.messages, "updates")
    }

    fn metric_table(&self, metric: impl Fn(&SweepPoint) -> f64, _unit: &str) -> Table {
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
                    // Failed cells are marked, never silently absent:
                    // the suffix counts the seeds that failed there.
                    Some(p) if p.failed_seeds > 0 => format!("FAILED:{}", p.failed_seeds),
                    Some(p) => fmt_f64(metric(p), 1),
                    None => "-".to_owned(),
                });
            }
            table.add_row(row);
        }
        table
    }
}

/// Sweep configuration: the grid axes plus how to execute it.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Largest pulse count (the paper plots `0..=10`).
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
    /// Period between progress heartbeat lines on stderr; `None` (the
    /// default, and what tests use) keeps the sweep silent.
    pub heartbeat: Option<std::time::Duration>,
    /// Per-cell wall-clock budget; exceeding it flags the cell and
    /// dumps the observability flight recorder.
    pub cell_budget: Option<std::time::Duration>,
    /// Extra attempts for panicked / timed-out cells (`--retries N`).
    pub retries: u32,
    /// Resume a journal even when its grid fingerprint doesn't match
    /// (`--resume-force`).
    pub resume_force: bool,
    /// Deterministic fault injection (hidden `--chaos` / `RFD_CHAOS`
    /// knob; empty in normal operation).
    pub chaos: ChaosPlan,
    /// (peer, prefix) keys to audit with the timer-interaction ledger
    /// in every cell (`--ledger P:X`); empty means off. Records stream
    /// into a counting sink and never reach the journals or tables —
    /// the sweep's CSVs are byte-identical either way (tested).
    pub ledger_keys: Vec<(u32, u32)>,
    /// Run every series on this topology instead of its own
    /// (`--topology torus:RxC|ba:N` on `rfd sweep`). Folded into the
    /// journal fingerprint: an overridden sweep never resumes a
    /// default-topology journal.
    pub topology: Option<TopologyKind>,
    /// Warm one donor network per (topology, seed) flow and fork every
    /// damping-parameter variant from its snapshot instead of repeating
    /// the warm-up (`--warm-fork`). Byte-identical CSVs either way
    /// (tested, and diffed in CI); folded into the journal fingerprint
    /// so forked and cold journals never resume each other.
    pub warm_fork: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            max_pulses: 10,
            seeds: vec![1, 2, 3],
            threads: 0,
            journal_dir: None,
            resume: false,
            heartbeat: None,
            cell_budget: None,
            retries: 0,
            resume_force: false,
            chaos: ChaosPlan::none(),
            ledger_keys: Vec::new(),
            topology: None,
            warm_fork: false,
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

    /// The runner configuration these options resolve to.
    pub fn runner_config(&self) -> RunnerConfig {
        RunnerConfig {
            threads: self.threads,
            journal_dir: self.journal_dir.clone(),
            resume: self.resume,
            resume_force: self.resume_force,
            heartbeat: self.heartbeat,
            cell_budget: self.cell_budget,
            retries: self.retries,
            chaos: self.chaos.clone(),
        }
    }
}

/// A boxed per-cell configuration builder: given the built graph and the
/// cell's seed, produce the network configuration.
type ConfigFn<'a> = Box<dyn Fn(&Graph, u64) -> NetworkConfig + Send + Sync + 'a>;

/// One series of a sweep grid: a label, a topology, and a configuration
/// builder (which may inspect the built graph, for relationship-carrying
/// policies, §7).
pub struct SeriesSpec<'a> {
    /// Legend label (matches the paper's).
    pub label: String,
    /// Topology family this series runs on.
    pub kind: TopologyKind,
    make: ConfigFn<'a>,
}

impl std::fmt::Debug for SeriesSpec<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SeriesSpec")
            .field("label", &self.label)
            .field("kind", &self.kind)
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
        SeriesSpec {
            label: label.to_owned(),
            kind,
            make: Box::new(move |_, seed| make(seed)),
        }
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
            make: Box::new(make),
        }
    }
}

/// Runs a whole sweep grid — every series × pulse count × seed — through
/// the [`rfd_runner`] pool and folds the results into a [`PulseSweep`].
///
/// `name` names the journal file (`results/<name>.runs.jsonl`) when
/// journaling is enabled; figures sharing runs (Figures 8 and 9 read
/// the same grid) share a name, so one journal serves both.
///
/// Individual cell failures do not abort the sweep — they surface in
/// [`PulseSweep::failures`] with their points marked. Exits the process
/// with a message on journal setup errors ([`RunnerError`]); use
/// [`try_measure_sweep`] to handle those yourself.
pub fn measure_sweep(name: &str, specs: Vec<SeriesSpec<'_>>, opts: &SweepOptions) -> PulseSweep {
    match try_measure_sweep(name, specs, opts) {
        Ok(sweep) => sweep,
        Err(e) => exit_runner_error(&e),
    }
}

/// Reports a grid-level runner error on stderr and exits non-zero — the
/// artefact commands' "fail with a message, never panic" path for
/// journal setup problems (resume mismatch, unwritable `results/`, …).
pub fn exit_runner_error(e: &RunnerError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(2);
}

/// Unwraps a [`run_grid`] outcome for the non-pulse-sweep experiment
/// grids (tech-report tables): exits with a message on grid-level
/// errors, and prints a failure report when any cell was quarantined so
/// holes in the tables are never silent.
pub fn grid_results_or_exit(outcome: Result<GridResults, RunnerError>) -> GridResults {
    let results = outcome.unwrap_or_else(|e| exit_runner_error(&e));
    if !results.failures().is_empty() {
        eprint!("{}", rfd_runner::render_failure_report(results.failures()));
    }
    results
}

/// Like [`measure_sweep`], but surfaces grid-level errors (journal I/O,
/// resume fingerprint mismatch) instead of exiting.
///
/// # Errors
///
/// Returns the [`RunnerError`] from [`run_grid`]; cell-level failures
/// are *not* errors (see [`PulseSweep::failures`]).
pub fn try_measure_sweep(
    name: &str,
    mut specs: Vec<SeriesSpec<'_>>,
    opts: &SweepOptions,
) -> Result<PulseSweep, RunnerError> {
    if let Some(kind) = opts.topology {
        for spec in &mut specs {
            spec.kind = kind;
        }
    }
    // The fingerprint salt folds in what the axes can't see: which
    // topology each series runs on (the damping parameters live in the
    // config closure; the label names the profile).
    let mut salt_parts: Vec<String> = specs
        .iter()
        .flat_map(|s| [s.label.clone(), format!("{:?}", s.kind)])
        .collect();
    // Warm-forked sweeps produce the same bytes as cold ones, but the
    // execution strategy is still part of the journal's identity: a
    // resumed sweep must re-run cells the way the journal says they ran.
    if opts.warm_fork {
        salt_parts.push("warm-fork".to_owned());
    }
    let mut grid = RunGrid::new(name)
        .pulses((0..=opts.max_pulses).collect())
        .seeds(opts.seeds.clone())
        .param_salt(hash_params(salt_parts.iter().map(String::as_str)));
    for spec in specs {
        let label = spec.label.clone();
        grid = grid.series(label, spec);
    }
    let warm_cache = opts.warm_fork.then(WarmCache::new);
    let results = run_grid(&grid, &opts.runner_config(), |spec: &SeriesSpec, cell| {
        run_pattern_metrics(
            spec.kind,
            cell.seed,
            FlapPattern::paper_default(cell.pulses),
            |g| (spec.make)(g, cell.seed),
            warm_cache.as_ref(),
            &opts.ledger_keys,
        )
    })?;

    let series = results
        .series_labels()
        .iter()
        .enumerate()
        .map(|(si, label)| SweepSeries {
            label: label.clone(),
            points: results
                .pulse_list()
                .iter()
                .enumerate()
                .map(|(pi, &n)| {
                    let stats = results.point_stats(si, pi);
                    SweepPoint {
                        pulses: n,
                        convergence_secs: stats.convergence.mean(),
                        convergence_std: stats.convergence.std_dev(),
                        messages: stats.messages.mean(),
                        failed_seeds: results.point_failed(si, pi),
                    }
                })
                .collect(),
        })
        .collect();
    Ok(PulseSweep {
        series,
        failures: results.failures().to_vec(),
    })
}

/// Journal-friendly grid name derived from a label: lowercase, with
/// runs of non-alphanumerics collapsed to single dashes.
pub fn grid_slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c.to_ascii_lowercase());
        } else if !out.ends_with('-') && !out.is_empty() {
            out.push('-');
        }
    }
    out.trim_end_matches('-').to_owned()
}

/// Runs one series: the workload for every pulse count, averaged over
/// seeds. `make_config` receives the seed.
pub fn measure_series(
    label: &str,
    kind: TopologyKind,
    opts: &SweepOptions,
    make_config: impl Fn(u64) -> NetworkConfig + Send + Sync,
) -> SweepSeries {
    measure_series_on(label, kind, opts, move |_, seed| make_config(seed))
}

/// Like [`measure_series`], but the configuration may depend on the
/// built graph (for relationship-carrying policies, §7).
pub fn measure_series_on(
    label: &str,
    kind: TopologyKind,
    opts: &SweepOptions,
    make_config: impl Fn(&Graph, u64) -> NetworkConfig + Send + Sync,
) -> SweepSeries {
    let specs = vec![SeriesSpec::on_graph(label, kind, make_config)];
    measure_sweep(&grid_slug(label), specs, opts)
        .series
        .into_iter()
        .next()
        .expect("one spec yields one series")
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
                // Message count has no closed form (§3); mark as NaN so
                // tables render "-".
                messages: f64::NAN,
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
    let mut total = 0.0;
    for &seed in &opts.seeds {
        let (report, _) = run_workload(kind, NetworkConfig::paper_no_damping(seed), 1);
        total += report.convergence_time.as_secs_f64();
    }
    SimDuration::from_secs_f64(total / opts.seeds.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: TopologyKind = TopologyKind::Mesh {
        width: 3,
        height: 3,
    };

    #[test]
    fn measure_series_covers_all_pulse_counts() {
        let opts = SweepOptions {
            max_pulses: 2,
            seeds: vec![1],
            ..SweepOptions::default()
        };
        let s = measure_series("No Damping", TINY, &opts, NetworkConfig::paper_no_damping);
        assert_eq!(s.points.len(), 3);
        assert_eq!(s.at(0).unwrap().messages, 0.0);
        assert!(s.at(1).unwrap().messages > 0.0);
        assert!(s.at(2).unwrap().messages > s.at(1).unwrap().messages);
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
                    points: vec![SweepPoint {
                        pulses: 0,
                        convergence_secs: 1.0,
                        convergence_std: 0.0,
                        messages: 2.0,
                        failed_seeds: 0,
                    }],
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
                points: vec![
                    SweepPoint {
                        pulses: 0,
                        convergence_secs: 1.0,
                        convergence_std: 0.0,
                        messages: 2.0,
                        failed_seeds: 0,
                    },
                    SweepPoint {
                        pulses: 1,
                        convergence_secs: 5.0,
                        convergence_std: 0.0,
                        messages: 9.0,
                        failed_seeds: 2,
                    },
                ],
            }],
            failures: Vec::new(),
        };
        let csv = sweep.convergence_table().to_csv();
        assert!(csv.contains("FAILED:2"), "{csv}");
        assert!(!csv.contains("5.0"), "failed means are not printed: {csv}");
        assert!(sweep.message_table().to_csv().contains("FAILED:2"));
    }

    #[test]
    fn estimate_t_up_is_positive_and_small() {
        let t_up = estimate_t_up(TINY, &SweepOptions::quick());
        assert!(t_up > SimDuration::ZERO);
        assert!(t_up < SimDuration::from_secs(300));
    }

    #[test]
    fn grid_slug_normalises_labels() {
        assert_eq!(
            grid_slug("Full Damping (simulation, mesh)"),
            "full-damping-simulation-mesh"
        );
        assert_eq!(grid_slug("No policy"), "no-policy");
        assert_eq!(grid_slug("--x--"), "x");
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
        let sweep = measure_sweep(name, specs, &opts);
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

    /// The snapshot subsystem's warm-fork contract at the sweep layer:
    /// forking every damping variant from one warm donor per
    /// (topology, seed) renders byte-identical CSVs to cold-starting
    /// every cell, sequentially and under a parallel pool.
    #[test]
    fn sweep_is_byte_identical_with_and_without_warm_fork() {
        for threads in [1, 2] {
            let with = |warm_fork| SweepOptions {
                seeds: vec![1, 2],
                threads,
                warm_fork,
                ..SweepOptions::default()
            };
            assert_eq!(
                tiny_csvs("fork-check", with(false)),
                tiny_csvs("fork-check", with(true)),
                "warm-fork perturbed a CSV at threads={threads}"
            );
        }
    }

    /// The ledger's non-perturbation contract at the sweep layer:
    /// auditing every cell's (peer, prefix) keys must leave the CSVs
    /// byte-identical, sequentially and under a parallel pool, on cold
    /// cells and on warm-forked ones (the two compose).
    #[test]
    fn sweep_is_byte_identical_with_and_without_ledger() {
        // Watch every plausible peer of the origin entry plus one key
        // that never matches — emission on hit and the filter miss
        // branch are both exercised.
        let keys: Vec<(u32, u32)> = (0..32).map(|peer| (peer, 0)).collect();
        for threads in [1, 2] {
            let with = |ledger_keys, warm_fork| SweepOptions {
                seeds: vec![1, 2],
                threads,
                ledger_keys,
                warm_fork,
                ..SweepOptions::default()
            };
            let plain = tiny_csvs("ledger-check", with(Vec::new(), false));
            for warm_fork in [false, true] {
                let audited = tiny_csvs("ledger-check", with(keys.clone(), warm_fork));
                let what = format!("threads={threads}, warm_fork={warm_fork}");
                assert_eq!(plain, audited, "ledger perturbed a CSV at {what}");
            }
        }
    }

    #[test]
    fn measure_sweep_batches_multiple_series_in_one_grid() {
        let opts = SweepOptions {
            max_pulses: 1,
            seeds: vec![1, 2],
            ..SweepOptions::default()
        };
        let sweep = measure_sweep(
            "multi",
            vec![
                SeriesSpec::by_seed("a", TINY, NetworkConfig::paper_no_damping),
                SeriesSpec::by_seed("b", TINY, NetworkConfig::paper_full_damping),
            ],
            &opts,
        );
        assert_eq!(sweep.series.len(), 2);
        assert_eq!(sweep.series[0].label, "a");
        assert_eq!(sweep.series[1].points.len(), 2);
        // Multi-seed points carry a spread.
        assert!(sweep.series[0].at(1).unwrap().convergence_std >= 0.0);
    }
}
