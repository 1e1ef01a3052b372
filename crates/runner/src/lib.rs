//! # rfd-runner — parallel, deterministic, resumable experiment execution
//!
//! Every figure in the paper is a mean over many independent simulation
//! runs (scenario × pulse count × seed). Those runs are embarrassingly
//! parallel; this crate fans them out without giving up the repo's
//! reproducibility guarantees. It runs keyed cells; the sweep owns the
//! grid: the caller enumerates the cells, keys them and folds their
//! results (`rfd-experiments`' `measure_sweep` does all three), and
//! the runner only executes them.
//!
//! ## Architecture
//!
//! * [`run_cells`] — the one entry point: given the grid's
//!   [`GridFingerprint`] (grid.rs), the cell keys in grid order and an
//!   `exec(index)` closure, it skips journaled cells, executes the
//!   rest on the pool under supervision and returns every cell's
//!   metrics by index;
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
//!   instead of recomputing.
//!
//! ## Determinism contract
//!
//! Output must be **byte-identical across thread counts**. Three
//! mechanisms combine to guarantee it:
//!
//! 1. a cell is a pure function of its index — the caller derives its
//!    seed and scenario from its grid position, never from execution
//!    order;
//! 2. the pool returns results indexed by job, and [`run_cells`]
//!    returns them in cell order;
//! 3. the caller folds per-seed metrics in cell order, so even
//!    floating-point rounding is identical run to run.
//!
//! ## Fault tolerance contract
//!
//! A sweep **finishes** even when individual cells fail. A panicking or
//! journal-I/O-failed cell is quarantined as a [`CellFailure`]: its
//! metrics slot holds the all-NaN [`RunMetrics::FAILED`] sentinel, the
//! journal carries a failure record, and [`run_cells`] returns every
//! failure so the caller can mark its points, print a report and exit
//! non-zero. Re-running with resume executes exactly the
//! failed/missing cells; because cells are pure functions of their
//! index, the healed output is byte-identical to a run that never
//! failed. For the same reason a failed cell is never retried in the
//! same run — a deterministic panic would only recur.
//!
//! ```
//! use rfd_runner::{run_cells, GridFingerprint, RunMetrics, RunnerConfig};
//!
//! let pulses = [1, 2];
//! let grid = GridFingerprint::new("doc", &["mesh"], &pulses, &[7], 0);
//! let keys: Vec<String> = pulses.iter().map(|n| format!("mesh|n={n}|seed=7")).collect();
//! let exec = |i: usize| RunMetrics {
//!     convergence_secs: pulses[i] as f64 * 4.0,
//!     messages: 7.0,
//!     suppressed: 0.0,
//! };
//! let on = |threads| RunnerConfig { threads, ..RunnerConfig::default() };
//! let (seq, failures) = run_cells(&grid, &keys, &on(1), exec).unwrap();
//! let (par, _) = run_cells(&grid, &keys, &on(4), exec).unwrap();
//! assert_eq!(seq, par);
//! assert_eq!(seq[1].convergence_secs, 8.0);
//! assert!(failures.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
mod grid;
mod journal;
pub mod pool;
pub mod supervisor;

pub use chaos::ChaosPlan;
pub use grid::{hash_params, GridFingerprint};
pub use journal::{journal_path, parse_record, Journal, Record, ResumeState, RunMeta, RunMetrics};
pub use supervisor::{render_failure_report, CellFailure, FailKind};

use std::fmt;
use std::io;
use std::path::PathBuf;

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
                 re-run without --resume to start fresh",
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
    /// Deterministic fault-injection plan (tests and `RFD_CHAOS`; empty
    /// in normal operation).
    pub chaos: ChaosPlan,
}

impl RunnerConfig {
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

/// Executes the cells `keys` of the grid `fingerprint` and returns each
/// cell's metrics in index order, plus the quarantined failures sorted
/// by index. Cell `i` runs as `exec(i)` and is journaled under
/// `keys[i]`.
///
/// Cells already present in the journal (when `config.resume`) are not
/// re-executed; their journaled metrics are spliced into place, which
/// reproduces the exact output of an uninterrupted run because floats
/// are journaled in shortest-round-trip form. Cells whose last journal
/// record is a *failure* are re-run.
///
/// Individual cell faults — panics, journal-write errors — do **not**
/// abort the run: the cell's slot holds [`RunMetrics::FAILED`], its
/// [`CellFailure`] is returned, and every other cell still executes.
///
/// # Errors
///
/// [`RunnerError::Io`] on filesystem errors setting up the journal,
/// and [`RunnerError::JournalMismatch`] when resuming a journal that
/// was written by a different grid.
pub fn run_cells<F>(
    fingerprint: &GridFingerprint,
    keys: &[String],
    config: &RunnerConfig,
    exec: F,
) -> Result<(Vec<RunMetrics>, Vec<CellFailure>), RunnerError>
where
    F: Fn(usize) -> RunMetrics + Sync,
{
    let (journal, resume_state) = match &config.journal_dir {
        Some(dir) if config.resume => {
            let (journal, state) = Journal::resume(dir, fingerprint)?;
            (Some(journal), state)
        }
        Some(dir) => (
            Some(Journal::create(dir, fingerprint)?),
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

    // Splice journaled results in by index; queue the rest (including
    // previously failed cells, which are *not* completed).
    let mut metrics = vec![RunMetrics::FAILED; keys.len()];
    let mut pending: Vec<usize> = Vec::new();
    for (index, key) in keys.iter().enumerate() {
        match resume_state.completed.get(key) {
            Some(m) => metrics[index] = *m,
            None => pending.push(index),
        }
    }

    let journal = journal.as_ref();
    let threads = config.effective_threads();
    let fresh = pool::execute(threads, pending.len(), |worker, i| {
        let index = pending[i];
        let key = &keys[index];
        let obs_span = rfd_obs::span("runner.cell");
        let supervised = supervisor::supervise(index, key, &config.chaos, || exec(index));
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
            if let Err(e) = journal.record_with(key, &supervised.value, Some(&meta)) {
                // A cell whose result can't be journaled is a cell
                // failure, not a process panic: the sweep finishes
                // and resume re-runs it.
                return Err(supervisor::fail_cell(CellFailure {
                    index,
                    key: key.clone(),
                    kind: FailKind::JournalIo,
                    message: e.to_string(),
                }));
            }
        }
        Ok(supervised.value)
    });

    let mut failures = Vec::new();
    for (&index, outcome) in pending.iter().zip(fresh) {
        match outcome {
            Ok(m) => metrics[index] = m,
            Err(failure) => failures.push(failure),
        }
    }
    failures.sort_by_key(|f| f.index);
    Ok((metrics, failures))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// The test grid: two series (each a scale factor) × three pulse
    /// counts × three seeds = 18 cells.
    const SERIES: [(&str, f64); 2] = [("alpha", 2.0), ("beta", 3.0)];
    const PULSES: [usize; 3] = [1, 4, 9];
    const SEEDS: [u64; 3] = [10, 20, 30];
    const CELLS: usize = 18;

    /// Cell `i`'s series, pulse count and seed, in grid order.
    fn cell(i: usize) -> ((&'static str, f64), usize, u64) {
        (SERIES[i / 9], PULSES[i / 3 % 3], SEEDS[i % 3])
    }

    fn keys() -> Vec<String> {
        (0..CELLS)
            .map(|i| {
                let ((label, _), n, seed) = cell(i);
                format!("{label}|n={n}|seed={seed}")
            })
            .collect()
    }

    fn fingerprint(salt: u64) -> GridFingerprint {
        GridFingerprint::new("lib-test", &SERIES.map(|s| s.0), &PULSES, &SEEDS, salt)
    }

    /// A fake executor: a deterministic function of the cell index only.
    fn demo_exec(i: usize) -> RunMetrics {
        let ((_, scale), n, seed) = cell(i);
        RunMetrics {
            convergence_secs: scale * n as f64 + (seed as f64).sqrt(),
            messages: (seed * n as u64) as f64,
            suppressed: (seed % 7) as f64,
        }
    }

    fn config(threads: usize, journal: Option<&Path>, resume: bool) -> RunnerConfig {
        RunnerConfig {
            threads,
            journal_dir: journal.map(Path::to_path_buf),
            resume,
            chaos: ChaosPlan::none(),
        }
    }

    fn run(
        config: &RunnerConfig,
        exec: impl Fn(usize) -> RunMetrics + Sync,
    ) -> (Vec<RunMetrics>, Vec<CellFailure>) {
        run_cells(&fingerprint(0), &keys(), config, exec).unwrap()
    }

    /// `demo_exec`, counting its calls in `executed`.
    fn counting(executed: &AtomicUsize) -> impl Fn(usize) -> RunMetrics + Sync + '_ {
        move |i| {
            executed.fetch_add(1, Ordering::SeqCst);
            demo_exec(i)
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rfd-runner-lib-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let (reference, failures) = run(&config(1, None, false), demo_exec);
        assert!(failures.is_empty());
        assert_eq!(reference.len(), CELLS);
        assert_eq!(reference[17], demo_exec(17), "metrics come back by index");
        for threads in [2, 4, 8] {
            let (parallel, _) = run(&config(threads, None, false), demo_exec);
            assert_eq!(reference, parallel, "threads={threads}");
        }
    }

    #[test]
    fn resume_skips_journaled_cells_and_reproduces_output() {
        let dir = tmp_dir("resume");
        let (full, _) = run(&config(1, Some(&dir), false), demo_exec);

        // Truncate the journal to simulate a sweep killed partway:
        // keep the header plus six records.
        let path = journal_path(&dir, "lib-test");
        let text = std::fs::read_to_string(&path).unwrap();
        let kept: Vec<&str> = text.lines().take(7).collect();
        std::fs::write(&path, format!("{}\n", kept.join("\n"))).unwrap();

        // Resume: journaled cells must not re-execute.
        let executed = AtomicUsize::new(0);
        let (resumed, _) = run(&config(4, Some(&dir), true), counting(&executed));
        assert_eq!(executed.load(Ordering::SeqCst), CELLS - 6);
        assert_eq!(resumed, full);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn without_resume_journal_is_truncated_and_all_cells_run() {
        let dir = tmp_dir("fresh");
        run(&config(1, Some(&dir), false), demo_exec);
        let executed = AtomicUsize::new(0);
        run(&config(1, Some(&dir), false), counting(&executed));
        assert_eq!(executed.load(Ordering::SeqCst), CELLS);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn effective_threads_resolves_zero_to_cores() {
        assert!(RunnerConfig::default().effective_threads() >= 1);
        assert_eq!(config(3, None, false).effective_threads(), 3);
    }

    #[test]
    fn journal_starts_with_header_and_lines_carry_meta() {
        let dir = tmp_dir("meta-wiring");
        run(&config(2, Some(&dir), false), demo_exec);
        let text = std::fs::read_to_string(journal_path(&dir, "lib-test")).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            parse_record(lines.next().unwrap()),
            Some(Record::Header(fingerprint(0)))
        );
        let mut runs = 0;
        for line in lines {
            let Some(Record::Run { meta, .. }) = parse_record(line) else {
                panic!("not a run record: {line}");
            };
            let meta = meta.expect("meta recorded");
            assert!(meta.duration_secs >= 0.0);
            assert!((meta.thread as usize) < 2);
            runs += 1;
        }
        assert_eq!(runs, CELLS);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panicking_cell_is_quarantined_and_the_rest_complete() {
        let (reference, _) = run(&config(1, None, false), demo_exec);
        let bad_key = "beta|n=4|seed=20";
        let all = keys();
        for threads in [1, 2] {
            let (metrics, failures) = run(&config(threads, None, false), |i| {
                if all[i] == bad_key {
                    panic!("injected failure");
                }
                demo_exec(i)
            });
            assert_eq!(failures.len(), 1, "threads={threads}");
            let failure = &failures[0];
            assert_eq!(failure.key, bad_key);
            assert_eq!(failure.kind, FailKind::Panic);
            for (i, (got, want)) in metrics.iter().zip(&reference).enumerate() {
                if i == failure.index {
                    assert!(got.convergence_secs.is_nan());
                } else {
                    assert_eq!(got, want, "threads={threads} cell={i}");
                }
            }
        }
    }

    #[test]
    fn resume_reruns_exactly_the_failed_cells() {
        let dir = tmp_dir("rerun-failed");
        let (reference, _) = run(&config(1, None, false), demo_exec);
        let key = "beta|n=9|seed=30";

        let chaotic = RunnerConfig {
            chaos: ChaosPlan::parse(&format!("panic@{key}")).unwrap(),
            ..config(1, Some(&dir), false)
        };
        let (_, failures) = run(&chaotic, demo_exec);
        assert_eq!(failures.len(), 1);
        assert_eq!(failures[0].index, CELLS - 1);

        // Resume without chaos: only the failed cell re-executes, and
        // the healed results equal an uninterrupted run's exactly.
        let executed = AtomicUsize::new(0);
        let (healed, failures) = run(&config(1, Some(&dir), true), counting(&executed));
        assert_eq!(executed.load(Ordering::SeqCst), 1);
        assert!(failures.is_empty());
        assert_eq!(healed, reference);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_a_foreign_journal() {
        let dir = tmp_dir("foreign");
        run(&config(1, Some(&dir), false), demo_exec);

        // Same name, different parameters: refused before any cell
        // runs, and the journal is left as it was.
        let before = std::fs::read(journal_path(&dir, "lib-test")).unwrap();
        let executed = AtomicUsize::new(0);
        let err = run_cells(
            &fingerprint(99),
            &keys(),
            &config(1, Some(&dir), true),
            counting(&executed),
        )
        .unwrap_err();
        assert!(matches!(err, RunnerError::JournalMismatch(_)));
        assert!(err.to_string().contains("re-run without --resume"), "{err}");
        assert_eq!(executed.load(Ordering::SeqCst), 0);
        assert_eq!(
            std::fs::read(journal_path(&dir, "lib-test")).unwrap(),
            before
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
