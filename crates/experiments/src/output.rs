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
//! `--obs[=PATH]` (or the `RFD_OBS` environment variable) turns the
//! [`rfd_obs`] recording layer on. [`obs_begin`] resolves the
//! destination, enables recording, installs the panic hook and points
//! the flight recorder next to the trace; the [`ObsSession`] it returns
//! writes the Chrome-trace/summary file when the run ends.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Duration;

use rfd_metrics::Table;
use rfd_runner::ChaosPlan;

use crate::args::{self, wall_clock, CliError, Flag, Parsed, Takes};
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
    Flag::switch("--resume-force", "resume despite a grid-fingerprint mismatch"),
    Flag::value("--retries", "N", "re-run a failed cell N times before quarantine"),
    Flag::value("--cell-budget", "SECS", "wall-clock budget per cell"),
    CHAOS,
    OBS,
] };

/// The hidden fault-injection knob (see [`ChaosPlan::parse`]).
pub const CHAOS: Flag = Flag::value("--chaos", "SPEC", "deterministic fault injection").hidden();

/// `--obs[=PATH]`, wherever a run can be observed.
#[rustfmt::skip]
pub const OBS: Flag =
    Flag::new("--obs", Takes::OptionalEq("PATH"), "record spans/counters to a Chrome-trace JSON");

/// Reads [`CHAOS`]: absent means the empty plan.
pub fn chaos(p: &Parsed<'_>) -> Result<ChaosPlan, CliError> {
    p.get("--chaos").map_or(Ok(ChaosPlan::none()), |spec| {
        ChaosPlan::parse(spec).map_err(|e| CliError(format!("--chaos: {e}")))
    })
}

/// The plan in force: the `--chaos` flag's, else `RFD_CHAOS`'s — an
/// injection plan must never silently no-op, so a malformed variable
/// is an error.
pub fn chaos_or_env(flag: ChaosPlan) -> Result<ChaosPlan, CliError> {
    if !flag.is_empty() {
        return Ok(flag);
    }
    ChaosPlan::from_env()
        .map(Option::unwrap_or_default)
        .map_err(|e| CliError(format!("RFD_CHAOS: {e}")))
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
    /// every execution flag applied, journaling under [`results_dir`]
    /// and a progress heartbeat on stderr.
    pub opts: SweepOptions,
}

/// How often sweeps report progress on stderr.
const HEARTBEAT_PERIOD: Duration = Duration::from_secs(10);

/// Reads every [`EXEC`] flag; the [`CliError`] names the offending one.
pub fn exec_flags(p: &Parsed<'_>) -> Result<Exec, CliError> {
    let quick = p.has("--quick");
    let resume_force = p.has("--resume-force");
    Ok(Exec {
        quick,
        obs: obs(p),
        opts: SweepOptions {
            threads: p.parse("--threads")?.unwrap_or(0),
            resume: resume_force || p.has("--resume"),
            resume_force,
            retries: p.parse("--retries")?.unwrap_or(0),
            cell_budget: p.positive_secs("--cell-budget")?.map(wall_clock),
            chaos: chaos(p)?,
            journal_dir: Some(results_dir()),
            heartbeat: Some(HEARTBEAT_PERIOD),
            ..if quick {
                SweepOptions::quick()
            } else {
                SweepOptions::default()
            }
        },
    })
}

/// The `RFD_OBS` environment variable as an observability request:
/// unset / empty / `0` → off, `1` → on at the default destination,
/// anything else → on at that path.
fn obs_env() -> Option<Option<PathBuf>> {
    match std::env::var("RFD_OBS") {
        Ok(v) if v.is_empty() || v == "0" => None,
        Ok(v) if v == "1" => Some(None),
        Ok(v) => Some(Some(PathBuf::from(v))),
        Err(_) => None,
    }
}

/// The flight-recorder dump path that goes with a trace destination:
/// `fig8.trace.json` → `fig8.flightrec.json`.
pub fn flight_path_for(trace: &Path) -> PathBuf {
    let name = trace
        .file_name()
        .and_then(|s| s.to_str())
        .unwrap_or("obs.trace.json");
    let base = name
        .strip_suffix(".trace.json")
        .or_else(|| name.strip_suffix(".json"))
        .unwrap_or(name);
    trace.with_file_name(format!("{base}.flightrec.json"))
}

/// Resolves an `--obs` request (`RFD_OBS` is the fallback, and
/// `results/<default_name>.trace.json` the default destination). When
/// observability is on: enables recording, installs the panic hook,
/// points the flight recorder next to the trace, and returns the
/// session whose end writes the trace.
pub fn obs_begin(request: &Option<Option<PathBuf>>, default_name: &str) -> Option<ObsSession> {
    let request = request.clone().or_else(obs_env)?;
    let path = request.unwrap_or_else(|| results_dir().join(format!("{default_name}.trace.json")));
    rfd_obs::enable();
    rfd_obs::install_panic_hook();
    rfd_obs::set_flight_path(flight_path_for(&path));
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

    #[test]
    fn flight_path_derives_from_trace_path() {
        assert_eq!(
            flight_path_for(Path::new("results/fig8.trace.json")),
            PathBuf::from("results/fig8.flightrec.json")
        );
        assert_eq!(
            flight_path_for(Path::new("custom.json")),
            PathBuf::from("custom.flightrec.json")
        );
        assert_eq!(
            flight_path_for(Path::new("bare")),
            PathBuf::from("bare.flightrec.json")
        );
    }
}
