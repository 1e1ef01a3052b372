//! # rfd-runner — parallel, deterministic, resumable experiment execution
//!
//! Every figure in the paper is a mean over many independent simulation
//! runs (scenario × pulse count × seed). Those runs are embarrassingly
//! parallel; this crate fans them out without giving up the repo's
//! reproducibility guarantees.
//!
//! ## Architecture
//!
//! * [`RunGrid`] (grid.rs) — a declarative grid of *series × pulse
//!   counts × seeds*, enumerated in a fixed **grid order** that gives
//!   every cell a stable index, journal key, and a
//!   [`GridFingerprint`] identifying the grid as a whole;
//! * [`pool`] — a std-only scoped thread pool fed by one atomic job
//!   counter; results come back indexed by job, hiding completion
//!   order, and a panicking job never strands its siblings;
//! * [`supervisor`] (supervisor.rs) — per-cell panic containment
//!   (`catch_unwind`);
//! * [`chaos`] (chaos.rs) — deterministic panic *injection*
//!   (`RFD_CHAOS=panic@KEY`) that the e2e tests and CI use to prove
//!   containment and resume;
//! * [`Journal`] (journal.rs) — a JSON-lines record of completed runs
//!   under `results/`, flushed per line and integrity-checked on
//!   resume, so an interrupted or partially failed sweep resumes
//!   instead of recomputing;
//! * [`run_grid`] — the orchestrator: skips journaled cells, executes
//!   the rest on the pool under supervision, commits results by grid
//!   index, and returns [`GridResults`] whose aggregation pushes seeds
//!   into one [`rfd_metrics::RunningStats`] each, in grid order.
//!
//! ## Determinism contract
//!
//! Output must be **byte-identical across thread counts**. Three
//! mechanisms combine to guarantee it:
//!
//! 1. each cell's seed comes from its grid position (either an explicit
//!    per-position seed list or [`RunGrid::seed_range`] deriving seeds
//!    via `DetRng::from_seed_and_label`), never from execution order;
//! 2. the pool returns results indexed by cell, and [`GridResults`]
//!    stores them in grid order;
//! 3. aggregation ([`GridResults::point_stats`]) folds per-seed metrics
//!    in grid order, so even floating-point rounding is identical run
//!    to run.
//!
//! ## Fault tolerance contract
//!
//! A sweep **finishes** even when individual cells fail. A panicking or
//! journal-I/O-failed cell is quarantined as a
//! [`CellFailure`]: its metrics slot holds the all-NaN
//! [`RunMetrics::FAILED`] sentinel (aggregation skips NaN, so failures
//! leave holes, not poison), the journal carries a failure record, and
//! [`GridResults::failures`] reports every one so the caller can print
//! a report and exit non-zero. Re-running with resume executes exactly
//! the failed/missing cells; because cells are pure functions of their
//! grid position, the healed output is byte-identical to a run that
//! never failed. For the same reason a failed cell is never retried in
//! the same run — a deterministic panic would only recur.
//!
//! ```
//! use rfd_runner::{run_grid, RunGrid, RunMetrics, RunnerConfig};
//!
//! let grid = RunGrid::new("doc")
//!     .series("mesh", 4u64)
//!     .pulses(vec![1, 2])
//!     .seed_range(7, 3);
//! let exec = |scale: &u64, cell: &rfd_runner::Cell| RunMetrics {
//!     convergence_secs: (cell.pulses as f64) * (*scale as f64),
//!     messages: cell.seed as f64,
//!     suppressed: 0.0,
//! };
//! let seq = run_grid(&grid, &RunnerConfig::sequential(), exec).unwrap();
//! let par = run_grid(&grid, &RunnerConfig::with_threads(4), exec).unwrap();
//! assert_eq!(seq.metrics(), par.metrics());
//! assert!(seq.failures().is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
mod grid;
mod journal;
pub mod pool;
pub mod supervisor;

pub use chaos::ChaosPlan;
pub use grid::{hash_params, Cell, GridFingerprint, GridSeries, RunGrid};
pub use journal::{
    journal_path, parse_line, parse_line_meta, parse_record, Journal, Record, ResumeState, RunMeta,
    RunMetrics,
};
pub use supervisor::{render_failure_report, CellFailure, FailKind};

use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rfd_metrics::RunningStats;

/// An error that aborts a whole grid run (as opposed to a
/// [`CellFailure`], which quarantines one cell and lets the sweep
/// finish).
#[derive(Debug)]
pub enum RunnerError {
    /// Filesystem error creating or reading the journal.
    Io(io::Error),
    /// Resume was pointed at a journal written by a different grid
    /// (boxed to keep the common `Ok`/`Io` paths small).
    JournalMismatch(Box<JournalMismatch>),
}

/// Details of a [`RunnerError::JournalMismatch`].
#[derive(Debug)]
pub struct JournalMismatch {
    /// The journal file in question.
    pub path: PathBuf,
    /// Fingerprint of the grid being resumed.
    pub expected: GridFingerprint,
    /// Fingerprint found in the journal header.
    pub found: GridFingerprint,
}

impl fmt::Display for RunnerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunnerError::Io(e) => write!(f, "journal I/O error: {e}"),
            RunnerError::JournalMismatch(m) => write!(
                f,
                "journal {} was written by {}, but this sweep is {}; \
                 re-run without --resume to start fresh, or pass --resume-force to splice anyway",
                m.path.display(),
                m.found,
                m.expected,
            ),
        }
    }
}

impl std::error::Error for RunnerError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunnerError::Io(e) => Some(e),
            RunnerError::JournalMismatch(_) => None,
        }
    }
}

impl From<io::Error> for RunnerError {
    fn from(e: io::Error) -> Self {
        RunnerError::Io(e)
    }
}

/// How a grid should be executed.
#[derive(Debug, Clone, Default)]
pub struct RunnerConfig {
    /// Worker threads; 0 means "all available cores".
    pub threads: usize,
    /// Where to journal completed runs; `None` disables journaling.
    pub journal_dir: Option<PathBuf>,
    /// When journaling: load the existing journal and skip completed
    /// cells instead of truncating and starting over.
    pub resume: bool,
    /// Resume even when the journal's grid fingerprint doesn't match
    /// this grid (normally refused with
    /// [`RunnerError::JournalMismatch`]).
    pub resume_force: bool,
    /// Period between progress heartbeat lines on stderr; `None` (the
    /// default) keeps the runner silent.
    pub heartbeat: Option<Duration>,
    /// Deterministic fault-injection plan (tests and `RFD_CHAOS`; empty
    /// in normal operation).
    pub chaos: ChaosPlan,
}

impl RunnerConfig {
    /// Single-threaded, no journal — bit-reference configuration.
    pub fn sequential() -> Self {
        RunnerConfig {
            threads: 1,
            ..Default::default()
        }
    }

    /// `n` worker threads (0 = all cores), no journal.
    pub fn with_threads(n: usize) -> Self {
        RunnerConfig {
            threads: n,
            ..Default::default()
        }
    }

    /// Enables journaling under `dir`.
    pub fn journal_to(mut self, dir: impl Into<PathBuf>) -> Self {
        self.journal_dir = Some(dir.into());
        self
    }

    /// Sets resume mode (only meaningful with a journal directory).
    pub fn resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Overrides the resume fingerprint check (see
    /// [`RunnerConfig::resume_force`]).
    pub fn resume_force(mut self, force: bool) -> Self {
        self.resume_force = force;
        self
    }

    /// Emits a progress line on stderr every `period` while a grid runs.
    pub fn heartbeat(mut self, period: Duration) -> Self {
        self.heartbeat = Some(period);
        self
    }

    /// Installs a deterministic fault-injection plan.
    pub fn chaos(mut self, plan: ChaosPlan) -> Self {
        self.chaos = plan;
        self
    }

    /// The concrete thread count this config resolves to.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Per-(series, pulse-count) aggregates over the seed axis.
#[derive(Debug, Clone, PartialEq)]
pub struct PointStats {
    /// Convergence-time statistics across seeds.
    pub convergence: RunningStats,
    /// Message-count statistics across seeds.
    pub messages: RunningStats,
    /// Suppressed-entry statistics across seeds.
    pub suppressed: RunningStats,
}

/// Completed grid: every cell's metrics, in grid order, plus any
/// quarantined cell failures.
#[derive(Debug, Clone)]
pub struct GridResults {
    cells: Vec<Cell>,
    metrics: Vec<RunMetrics>,
    failed: Vec<bool>,
    failures: Vec<CellFailure>,
    skipped_journal_lines: usize,
    series_labels: Vec<String>,
    pulse_list: Vec<usize>,
    seeds_len: usize,
}

impl GridResults {
    /// All cells, in grid order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Per-cell metrics, parallel to [`GridResults::cells`]. Failed
    /// cells hold [`RunMetrics::FAILED`].
    pub fn metrics(&self) -> &[RunMetrics] {
        &self.metrics
    }

    /// Every quarantined cell failure, in grid order. Empty for a clean
    /// run.
    pub fn failures(&self) -> &[CellFailure] {
        &self.failures
    }

    /// Whether the cell at `index` (grid order) failed.
    pub fn is_failed(&self, index: usize) -> bool {
        self.failed[index]
    }

    /// Damaged journal lines skipped while resuming (0 for a fresh or
    /// intact journal).
    pub fn skipped_journal_lines(&self) -> usize {
        self.skipped_journal_lines
    }

    /// Series labels, in grid order.
    pub fn series_labels(&self) -> &[String] {
        &self.series_labels
    }

    /// The pulse-count axis.
    pub fn pulse_list(&self) -> &[usize] {
        &self.pulse_list
    }

    /// Metrics for one (series, pulse-count) point, in seed order.
    pub fn point_metrics(&self, series: usize, pulse_index: usize) -> &[RunMetrics] {
        let start = (series * self.pulse_list.len() + pulse_index) * self.seeds_len;
        &self.metrics[start..start + self.seeds_len]
    }

    /// How many seeds failed at one (series, pulse-count) point.
    pub fn point_failed(&self, series: usize, pulse_index: usize) -> usize {
        let start = (series * self.pulse_list.len() + pulse_index) * self.seeds_len;
        self.failed[start..start + self.seeds_len]
            .iter()
            .filter(|&&f| f)
            .count()
    }

    /// Aggregates one (series, pulse-count) point over its seeds,
    /// folding in grid order for bit-reproducible statistics. NaN
    /// metrics — including the [`RunMetrics::FAILED`] sentinel — are
    /// skipped, so failed cells leave holes instead of poisoning the
    /// aggregates.
    pub fn point_stats(&self, series: usize, pulse_index: usize) -> PointStats {
        let mut convergence = RunningStats::new();
        let mut messages = RunningStats::new();
        let mut suppressed = RunningStats::new();
        for m in self.point_metrics(series, pulse_index) {
            if !m.convergence_secs.is_nan() {
                convergence.push(m.convergence_secs);
            }
            if !m.messages.is_nan() {
                messages.push(m.messages);
            }
            if !m.suppressed.is_nan() {
                suppressed.push(m.suppressed);
            }
        }
        PointStats {
            convergence,
            messages,
            suppressed,
        }
    }
}

/// Executes every cell of `grid` and returns the results in grid order.
///
/// Cells already present in the journal (when `config.resume`) are not
/// re-executed; their journaled metrics are spliced into place, which
/// reproduces the exact output of an uninterrupted run because floats
/// are journaled in shortest-round-trip form. Cells whose last journal
/// record is a *failure* are re-run.
///
/// Individual cell faults — panics, journal-write errors — do **not**
/// abort the run: the cell is quarantined (see
/// [`GridResults::failures`]) and every other cell still executes.
///
/// # Errors
///
/// [`RunnerError::Io`] on filesystem errors setting up the journal,
/// and [`RunnerError::JournalMismatch`] when resuming a journal that
/// was written by a different grid (unless `config.resume_force`).
pub fn run_grid<S, F>(
    grid: &RunGrid<S>,
    config: &RunnerConfig,
    exec: F,
) -> Result<GridResults, RunnerError>
where
    S: Sync,
    F: Fn(&S, &Cell) -> RunMetrics + Sync,
{
    let cells = grid.cells();
    let fingerprint = grid.fingerprint();

    let (journal, resume_state) = match &config.journal_dir {
        Some(dir) if config.resume => {
            let (journal, state) = Journal::resume(dir, &fingerprint, config.resume_force)?;
            (Some(journal), state)
        }
        Some(dir) => (
            Some(Journal::create(dir, &fingerprint)?),
            ResumeState::default(),
        ),
        None => (None, ResumeState::default()),
    };
    if resume_state.skipped_lines > 0 {
        eprintln!(
            "rfd-runner: journal carried {} damaged line(s); the affected cells will re-run",
            resume_state.skipped_lines
        );
    }
    if !resume_state.failed.is_empty() {
        eprintln!(
            "rfd-runner: {} previously failed cell(s) will be retried",
            resume_state.failed.len()
        );
    }

    // Splice journaled results in by grid position; queue the rest
    // (including previously failed cells, which are *not* completed).
    let mut metrics: Vec<Option<RunMetrics>> = vec![None; cells.len()];
    let mut pending: Vec<usize> = Vec::new();
    for cell in &cells {
        match resume_state.completed.get(&cell.key()) {
            Some(m) => metrics[cell.index] = Some(*m),
            None => pending.push(cell.index),
        }
    }

    let journal = journal.as_ref();
    let threads = config.effective_threads();
    let total = pending.len();
    let failed = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let started = Instant::now();
    let mut sampler = rfd_obs::Sampler::new();
    if let Some(period) = config.heartbeat {
        let (completed, failed) = (&completed, &failed);
        sampler.every(period, move |last| {
            if !last {
                let done = completed.load(Ordering::Relaxed);
                let elapsed = started.elapsed().as_secs_f64();
                let failed = failed.load(Ordering::Relaxed);
                eprintln!("{}", format_heartbeat(done, total, elapsed, failed));
            }
        });
    }

    let run_cell = |worker: usize, i: usize| {
        let cell = &cells[pending[i]];
        let key = cell.key();
        let scenario = &grid.series_list()[cell.series].scenario;
        let obs_span = rfd_obs::span("runner.cell");
        let supervised = supervisor::supervise(cell.index, &key, &config.chaos, &failed, || {
            exec(scenario, cell)
        });
        drop(obs_span);
        let supervised = match supervised {
            Ok(s) => s,
            Err(failure) => {
                if let Some(journal) = journal {
                    if let Err(e) =
                        journal.record_failure(&failure.key, failure.kind, &failure.message)
                    {
                        eprintln!("rfd-runner: could not journal failure for {key}: {e}");
                    }
                }
                return Err(failure);
            }
        };
        rfd_obs::inc("runner.cells_completed");
        rfd_obs::observe("runner.cell_us", supervised.duration.as_micros() as u64);
        if let Some(journal) = journal {
            let meta = RunMeta {
                duration_secs: supervised.duration.as_secs_f64(),
                thread: worker as u64,
            };
            if let Err(e) = journal.record_with(&key, &supervised.value, Some(&meta)) {
                // A cell whose result can't be journaled is a cell
                // failure, not a process panic: the sweep finishes
                // and resume re-runs it.
                return Err(supervisor::fail_cell(
                    &failed,
                    CellFailure {
                        index: cell.index,
                        key,
                        kind: FailKind::JournalIo,
                        message: e.to_string(),
                    },
                ));
            }
        }
        Ok(supervised.value)
    };
    let fresh = sampler.run(|| {
        pool::execute(threads, total, |worker, i| {
            let outcome = run_cell(worker, i);
            completed.fetch_add(1, Ordering::Relaxed);
            outcome
        })
    });

    let mut failed = vec![false; cells.len()];
    let mut failures = Vec::new();
    for (&slot, outcome) in pending.iter().zip(fresh) {
        match outcome {
            Ok(m) => metrics[slot] = Some(m),
            Err(failure) => {
                metrics[slot] = Some(RunMetrics::FAILED);
                failed[slot] = true;
                failures.push(failure);
            }
        }
    }
    failures.sort_by_key(|f| f.index);

    Ok(GridResults {
        metrics: metrics
            .into_iter()
            .map(|m| m.expect("cell executed"))
            .collect(),
        cells,
        failed,
        failures,
        skipped_journal_lines: resume_state.skipped_lines,
        series_labels: grid.series_list().iter().map(|s| s.label.clone()).collect(),
        pulse_list: grid.pulse_list().to_vec(),
        seeds_len: grid.seed_list().len(),
    })
}

/// One heartbeat progress line: cells done/total, elapsed wall-clock,
/// an ETA extrapolated from the per-cell running mean, and — only when
/// something went wrong — the failed cell count.
pub fn format_heartbeat(done: usize, total: usize, elapsed_secs: f64, failed: usize) -> String {
    let eta = if done > 0 && done < total {
        let per_cell = elapsed_secs / done as f64;
        format!("{:.1}s", per_cell * (total - done) as f64)
    } else if done >= total {
        "0.0s".to_owned()
    } else {
        "?".to_owned()
    };
    let pct = (done * 100).checked_div(total).unwrap_or(100);
    let mut line =
        format!("rfd-runner: {done}/{total} cells ({pct}%), elapsed {elapsed_secs:.1}s, eta {eta}");
    if failed > 0 {
        line.push_str(&format!(", failed {failed}"));
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn demo_grid() -> RunGrid<f64> {
        RunGrid::new("lib-test")
            .series("alpha", 2.0)
            .series("beta", 3.0)
            .pulses(vec![1, 4, 9])
            .seeds(vec![10, 20, 30])
    }

    fn demo_exec(scale: &f64, cell: &Cell) -> RunMetrics {
        // Deterministic function of (scenario, cell) only.
        RunMetrics {
            convergence_secs: scale * cell.pulses as f64 + (cell.seed as f64).sqrt(),
            messages: (cell.seed * cell.pulses as u64) as f64,
            suppressed: (cell.seed % 7) as f64,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rfd-runner-lib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let grid = demo_grid();
        let reference = run_grid(&grid, &RunnerConfig::sequential(), demo_exec).unwrap();
        for threads in [2, 4, 8] {
            let parallel =
                run_grid(&grid, &RunnerConfig::with_threads(threads), demo_exec).unwrap();
            assert_eq!(reference.metrics(), parallel.metrics(), "threads={threads}");
            // Aggregates must match bit-for-bit, not just approximately.
            for s in 0..2 {
                for p in 0..3 {
                    assert_eq!(
                        format!("{:?}", reference.point_stats(s, p)),
                        format!("{:?}", parallel.point_stats(s, p)),
                    );
                }
            }
        }
    }

    #[test]
    fn point_metrics_slice_by_grid_position() {
        let grid = demo_grid();
        let r = run_grid(&grid, &RunnerConfig::sequential(), demo_exec).unwrap();
        // Series 1 ("beta"), pulses index 2 (9 pulses), all three seeds.
        let pts = r.point_metrics(1, 2);
        assert_eq!(pts.len(), 3);
        assert_eq!(pts[0].messages, (10 * 9) as f64);
        assert_eq!(pts[2].messages, (30 * 9) as f64);
        let stats = r.point_stats(1, 2);
        assert_eq!(stats.convergence.count(), 3);
    }

    #[test]
    fn resume_skips_journaled_cells_and_reproduces_output() {
        let dir = tmp_dir("resume");
        let grid = demo_grid();
        let full = run_grid(
            &grid,
            &RunnerConfig::sequential().journal_to(&dir),
            demo_exec,
        )
        .unwrap();

        // Truncate the journal to simulate a sweep killed partway:
        // keep the header plus six records.
        let path = journal_path(&dir, grid.name());
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: Vec<&str> = text.lines().take(7).collect();
        std::fs::write(&path, format!("{}\n", kept.join("\n"))).unwrap();

        // Resume: journaled cells must not re-execute.
        let executed = AtomicUsize::new(0);
        let resumed = run_grid(
            &grid,
            &RunnerConfig::with_threads(4).journal_to(&dir).resume(true),
            |scale: &f64, cell: &Cell| {
                executed.fetch_add(1, Ordering::SeqCst);
                demo_exec(scale, cell)
            },
        )
        .unwrap();
        assert_eq!(executed.load(Ordering::SeqCst), grid.cell_count() - 6);
        assert_eq!(resumed.metrics(), full.metrics());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_resume_journal_is_truncated_and_all_cells_run() {
        let dir = tmp_dir("fresh");
        let grid = demo_grid();
        run_grid(
            &grid,
            &RunnerConfig::sequential().journal_to(&dir),
            demo_exec,
        )
        .unwrap();
        let executed = AtomicUsize::new(0);
        run_grid(
            &grid,
            &RunnerConfig::sequential().journal_to(&dir),
            |scale: &f64, cell: &Cell| {
                executed.fetch_add(1, Ordering::SeqCst);
                demo_exec(scale, cell)
            },
        )
        .unwrap();
        assert_eq!(executed.load(Ordering::SeqCst), grid.cell_count());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn effective_threads_resolves_zero_to_cores() {
        assert!(RunnerConfig::default().effective_threads() >= 1);
        assert_eq!(RunnerConfig::with_threads(3).effective_threads(), 3);
    }

    #[test]
    fn journal_starts_with_header_and_lines_carry_meta() {
        let dir = tmp_dir("meta-wiring");
        let grid = demo_grid();
        run_grid(
            &grid,
            &RunnerConfig::with_threads(2).journal_to(&dir),
            demo_exec,
        )
        .unwrap();
        let text = std::fs::read_to_string(journal_path(&dir, grid.name())).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            parse_record(lines.next().unwrap()),
            Some(Record::Header(grid.fingerprint()))
        );
        for line in lines {
            let (_, _, meta) = parse_line_meta(line).expect("line parses");
            let meta = meta.expect("meta recorded");
            assert!(meta.duration_secs >= 0.0);
            assert!((meta.thread as usize) < 2);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_run_completes_and_reproduces_reference() {
        // The heartbeat is observational: output unchanged.
        let grid = demo_grid();
        let reference = run_grid(&grid, &RunnerConfig::sequential(), demo_exec).unwrap();
        let config = RunnerConfig::with_threads(2).heartbeat(Duration::from_millis(5));
        let observed = run_grid(&grid, &config, |scale: &f64, cell: &Cell| {
            std::thread::sleep(Duration::from_millis(1));
            demo_exec(scale, cell)
        })
        .unwrap();
        assert_eq!(reference.metrics(), observed.metrics());
        assert!(observed.failures().is_empty());
    }

    #[test]
    fn format_heartbeat_reports_progress_and_eta() {
        let line = format_heartbeat(10, 40, 5.0, 0);
        assert_eq!(
            line,
            "rfd-runner: 10/40 cells (25%), elapsed 5.0s, eta 15.0s"
        );
        assert!(format_heartbeat(0, 40, 1.0, 0).contains("eta ?"));
        assert!(format_heartbeat(40, 40, 9.0, 0).contains("eta 0.0s"));
        assert!(format_heartbeat(0, 0, 0.0, 0).contains("(100%)"));
    }

    #[test]
    fn format_heartbeat_appends_the_failed_count_only_when_nonzero() {
        assert_eq!(
            format_heartbeat(10, 40, 5.0, 1),
            "rfd-runner: 10/40 cells (25%), elapsed 5.0s, eta 15.0s, failed 1"
        );
    }

    #[test]
    fn panicking_cell_is_quarantined_and_the_rest_complete() {
        let grid = demo_grid();
        let reference = run_grid(&grid, &RunnerConfig::sequential(), demo_exec).unwrap();
        let bad_key = "beta|n=4|seed=20";
        for threads in [1, 2] {
            let out = run_grid(
                &grid,
                &RunnerConfig::with_threads(threads),
                |scale: &f64, cell: &Cell| {
                    if cell.key() == bad_key {
                        panic!("injected failure");
                    }
                    demo_exec(scale, cell)
                },
            )
            .unwrap();
            assert_eq!(out.failures().len(), 1, "threads={threads}");
            let failure = &out.failures()[0];
            assert_eq!(failure.key, bad_key);
            assert_eq!(failure.kind, FailKind::Panic);
            for (i, (got, want)) in out.metrics().iter().zip(reference.metrics()).enumerate() {
                if i == failure.index {
                    assert!(got.convergence_secs.is_nan());
                    assert!(out.is_failed(i));
                } else {
                    assert_eq!(got, want, "threads={threads} cell={i}");
                    assert!(!out.is_failed(i));
                }
            }
        }
    }

    #[test]
    fn resume_reruns_exactly_the_failed_cells() {
        let dir = tmp_dir("rerun-failed");
        let grid = demo_grid();
        let reference = run_grid(&grid, &RunnerConfig::sequential(), demo_exec).unwrap();
        let key = "beta|n=9|seed=30";

        let chaotic = RunnerConfig::sequential()
            .journal_to(&dir)
            .chaos(ChaosPlan::parse(&format!("panic@{key}")).unwrap());
        let broken = run_grid(&grid, &chaotic, demo_exec).unwrap();
        assert_eq!(broken.failures().len(), 1);
        assert_eq!(broken.point_failed(1, 2), 1);
        // Failed points aggregate over the surviving seeds, not NaN
        // poison.
        assert_eq!(broken.point_stats(1, 2).convergence.count(), 2);

        // Resume without chaos: only the failed cell re-executes, and
        // the healed results equal an uninterrupted run's exactly.
        let executed = AtomicUsize::new(0);
        let healed = run_grid(
            &grid,
            &RunnerConfig::sequential().journal_to(&dir).resume(true),
            |scale: &f64, cell: &Cell| {
                executed.fetch_add(1, Ordering::SeqCst);
                demo_exec(scale, cell)
            },
        )
        .unwrap();
        assert_eq!(executed.load(Ordering::SeqCst), 1);
        assert!(healed.failures().is_empty());
        assert_eq!(healed.metrics(), reference.metrics());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_a_foreign_journal_unless_forced() {
        let dir = tmp_dir("foreign");
        let grid = demo_grid();
        run_grid(
            &grid,
            &RunnerConfig::sequential().journal_to(&dir),
            demo_exec,
        )
        .unwrap();

        // Same name, different parameters: refused.
        let salted = demo_grid().param_salt(99);
        let err = run_grid(
            &salted,
            &RunnerConfig::sequential().journal_to(&dir).resume(true),
            demo_exec,
        )
        .unwrap_err();
        assert!(matches!(err, RunnerError::JournalMismatch(_)));
        assert!(err.to_string().contains("--resume-force"), "{err}");

        // Forced: resumes anyway (keys match, so nothing re-runs).
        let executed = AtomicUsize::new(0);
        run_grid(
            &salted,
            &RunnerConfig::sequential()
                .journal_to(&dir)
                .resume(true)
                .resume_force(true),
            |scale: &f64, cell: &Cell| {
                executed.fetch_add(1, Ordering::SeqCst);
                demo_exec(scale, cell)
            },
        )
        .unwrap();
        assert_eq!(executed.load(Ordering::SeqCst), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
