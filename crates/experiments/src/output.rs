//! Shared output plumbing for the `rfd figure` and `rfd sweep` commands:
//! the flags they share, where their CSVs go, and observability.
//!
//! ## stdout / stderr discipline
//!
//! Everything a script might parse — CSV tables — goes to **stdout**;
//! every human-facing line (banners, pretty tables, ASCII charts,
//! progress, "saved …" notes) goes to **stderr**. Piping any artefact
//! command therefore yields clean machine-readable output:
//!
//! ```text
//! rfd figure fig3 --quick > fig3.csv   # CSV only; narrative on the terminal
//! ```
//!
//! ## Observability
//!
//! `--obs[=PATH]` turns the [`rfd_obs`] recording layer on. [`obs_begin`] resolves the
//! destination and enables recording; the [`ObsSession`] it returns
//! writes the Chrome-trace/summary file when the run ends.

use std::fs;
use std::path::PathBuf;

use rfd_metrics::Table;
use rfd_runner::ChaosPlan;

use crate::args::{self, CliError, Flag, Parsed, Takes};
use crate::sweep::SweepOptions;

/// Reports a fatal I/O problem on stderr and exits non-zero: the
/// artefact commands' "fail with a message, never panic" path for
/// everything outside the supervised cells.
pub fn exit_with(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Where result CSVs and sweep journals go (`results/` under the
/// working directory, or `$RFD_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("RFD_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Writes a table as `results/<name>.csv` and reports the path. Exits
/// with a message if the directory or file cannot be written.
pub fn save_csv(name: &str, table: &Table) -> PathBuf {
    let dir = results_dir();
    fs::create_dir_all(&dir)
        .unwrap_or_else(|e| exit_with(&format!("cannot create {}: {e}", dir.display())));
    let path = dir.join(format!("{name}.csv"));
    fs::write(&path, table.to_csv())
        .unwrap_or_else(|e| exit_with(&format!("cannot write {}: {e}", path.display())));
    path
}

/// The execution flags: the whole table of `rfd figure NAME`, and the
/// base of `rfd sweep`.
#[rustfmt::skip]
pub const EXEC: args::Table = args::Table { command: "rfd figure NAME", base: None, flags: &[
    Flag::switch("--quick", "reduced sizes: 5 pulses, 1 seed by default"),
    Flag::value("--threads", "N", "grid worker threads (default 0: all cores)"),
    Flag::switch("--resume", "skip cells already journaled under results/"),
    OBS,
] };

/// `--obs[=PATH]`, wherever a run can be observed.
#[rustfmt::skip]
pub const OBS: Flag =
    Flag::new("--obs", Takes::OptionalEq("PATH"), "record spans/counters to a Chrome-trace JSON");

/// The fault plan `RFD_CHAOS` asks for (see [`ChaosPlan::parse`]) — an
/// injection plan must never silently no-op, so a malformed variable
/// is an error.
pub fn chaos_from_env() -> Result<ChaosPlan, CliError> {
    ChaosPlan::from_env().map_err(|e| CliError(format!("RFD_CHAOS: {e}")))
}

/// Reads [`OBS`]: `None` off, `Some(None)` on at the default
/// destination, `Some(Some(path))` on at `path`.
pub fn obs(p: &Parsed<'_>) -> Option<Option<PathBuf>> {
    p.has("--obs").then(|| p.get("--obs").map(PathBuf::from))
}

/// What the [`EXEC`] flags of a command line resolve to.
#[derive(Debug, Clone)]
pub struct Exec {
    /// `--quick`: callers pick reduced topology sizes.
    pub quick: bool,
    /// The `--obs` request (see [`obs`]).
    pub obs: Option<Option<PathBuf>>,
    /// [`SweepOptions::quick`] under `--quick`, else the default, with
    /// every execution flag applied and journaling under [`results_dir`].
    pub opts: SweepOptions,
}

/// Reads every [`EXEC`] flag; the [`CliError`] names the offending one.
pub fn exec_flags(p: &Parsed<'_>) -> Result<Exec, CliError> {
    let quick = p.has("--quick");
    Ok(Exec {
        quick,
        obs: obs(p),
        opts: SweepOptions {
            threads: p.parse("--threads")?.unwrap_or(0),
            resume: p.has("--resume"),
            journal_dir: Some(results_dir()),
            ..if quick {
                SweepOptions::quick()
            } else {
                SweepOptions::default()
            }
        },
    })
}

/// Resolves an `--obs` request (`results/<default_name>.trace.json` is
/// the default destination). When observability is on: enables
/// recording and returns the session whose end writes the trace.
pub fn obs_begin(request: &Option<Option<PathBuf>>, default_name: &str) -> Option<ObsSession> {
    let request = request.clone()?;
    let path = request.unwrap_or_else(|| results_dir().join(format!("{default_name}.trace.json")));
    rfd_obs::enable();
    eprintln!("obs: recording to {}", path.display());
    Some(ObsSession(path))
}

/// An observed run; dropping it writes the Chrome-trace/summary file
/// (a failed write is reported on stderr, never a panic).
#[derive(Debug)]
#[must_use = "the trace is written when the session is dropped: bind it for the whole run"]
pub struct ObsSession(PathBuf);

impl Drop for ObsSession {
    fn drop(&mut self) {
        match rfd_obs::write_trace(&self.0) {
            Ok(()) => eprintln!("obs: trace written to {}", self.0.display()),
            Err(e) => eprintln!("obs: failed to write {}: {e}", self.0.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One test covers both env behaviours: parallel tests must not
    /// race on the process-wide environment.
    #[test]
    fn results_dir_env_and_save_csv() {
        let dir = std::env::temp_dir().join(format!("rfd-csv-test-{}", std::process::id()));
        std::env::set_var("RFD_RESULTS_DIR", &dir);
        assert_eq!(results_dir(), dir);
        let mut t = Table::new(vec!["a"]);
        t.add_row(vec!["1".into()]);
        let path = save_csv("unit", &t);
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "a\n1\n");
        std::env::remove_var("RFD_RESULTS_DIR");
        assert_eq!(results_dir(), PathBuf::from("results"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
