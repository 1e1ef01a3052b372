//! `ledger` — the repository's one performance ledger.
//!
//! With `--workload NAME` it measures that workload in this process and
//! prints one JSON result line (the `BENCHMARK.json` contract). Without
//! it, it runs every workload, each in a child process of its own, and
//! prints and optionally writes the full set. See the README beside
//! this crate for the metrics, the workloads and how to read them.

mod alloc;
mod compare;
mod expected;
mod json;
mod placement;
mod probes;
mod procfs;
mod run;
mod span;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use compare::{ResultFile, WorkloadResult};
use json::Value;
use workloads::{Size, Workload, NAMES};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "\
usage: ledger [--quick] [--seed N] [--seconds S] [--out FILE] [--trace-out DIR]
       ledger --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--trace-out FILE]
       ledger --aa [--quick] [--seed N] [--seconds S]
       ledger --bless [--quick] [--seed N] [--seconds S]
       ledger --compare OLD.json NEW.json";

/// Seed the committed pins and baseline were measured on.
const DEFAULT_SEED: u64 = 7;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    detail: bool,
    bless: bool,
    aa: bool,
    out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                let v = value("a whole number")?;
                args.seed = Some(
                    v.parse()
                        .map_err(|_| format!("--seed {v}: not a whole number"))?,
                );
            }
            "--seconds" => {
                let v = value("a duration in seconds")?;
                let s: f64 = v
                    .parse()
                    .map_err(|_| format!("--seconds {v}: not a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds {v}: must be positive"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: expected 0 or 1")),
                }
            }
            "--quick" => args.quick = true,
            "--detail" => args.detail = true,
            "--bless" => args.bless = true,
            "--aa" => args.aa = true,
            "--out" => args.out = Some(value("a file")?.into()),
            "--trace-out" => args.trace_out = Some(value("a path")?.into()),
            "--compare" => {
                args.compare = Some((value("two files")?.into(), value("two files")?.into()))
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

impl Args {
    fn size(&self) -> Size {
        if self.quick {
            Size::Quick
        } else {
            Size::Full
        }
    }

    fn seed(&self) -> u64 {
        self.seed.unwrap_or(DEFAULT_SEED)
    }

    /// Measuring time per child process: the contract's `run_seconds`
    /// at full size, a fiftieth of it for `--quick`.
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(if self.quick { 0.3 } else { 15.0 })
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some((old, new)) = &args.compare {
        compare_files(old, new)
    } else if let Some(name) = &args.workload {
        one_workload(name, &args)
    } else if args.aa {
        a_a(&args)
    } else {
        full_set(&args).map(|set| set.workloads.iter().all(|w| w.ops_failed == 0))
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}

// ---- one workload, this process ------------------------------------------

/// A fresh directory next to the executable — inside the build
/// directory, which every checkout ignores — that the caller owns.
fn scratch_dir(label: &str) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?
        .join(format!("ledger-scratch-{}-{label}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn one_workload(name: &str, args: &Args) -> Result<bool, String> {
    let workload = Workload::by_name(name, args.size()).ok_or(format!(
        "unknown workload `{name}` (one of {})",
        NAMES.join(", ")
    ))?;
    // Before any other thread exists: threads inherit the confinement.
    if workload.one_core() {
        placement::pin_to_current_core()?;
    }
    let scratch = scratch_dir(name)?;
    let outcome = if args.trace {
        let (outcome, spans) = run::per_layer(&workload, args.seed(), args.seconds(), &scratch);
        if let Some(path) = &args.trace_out {
            std::fs::write(path, spans.chrome_trace(workload.name))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        }
        outcome
    } else {
        run::end_to_end(&workload, args.seed(), args.seconds(), args.bless, &scratch)
    };
    std::fs::remove_dir_all(&scratch)
        .map_err(|e| format!("cannot remove {}: {e}", scratch.display()))?;

    if args.bless && outcome.correct() && workload.sequential_twin().is_none() {
        // More pins than a run of the contract's length ever reaches
        // would only be noise in the diff.
        let mut reps = outcome.rep_stats.clone();
        reps.truncate(64);
        let pins = expected::Pins {
            seed: args.seed(),
            reps,
        };
        let path = expected::path(&workload);
        std::fs::write(&path, pins.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "blessed {} repetitions into {}",
            pins.reps.len(),
            path.display()
        );
    }
    for note in &outcome.notes {
        eprintln!("{name}: {note}");
    }
    let mut line = outcome.contract_json();
    if let (true, Value::Object(members)) = (args.detail, &mut line) {
        let rows = outcome.rows.iter().map(compare::row_to_json).collect();
        members.insert("rows".to_owned(), Value::Array(rows));
        members.insert("exact".to_owned(), compare::stats_to_json(&outcome.exact));
        let notes = outcome.notes.iter().map(|n| json::text(n)).collect();
        members.insert("notes".to_owned(), Value::Array(notes));
    }
    println!("{}", json::emit(&line));
    Ok(outcome.correct())
}

// ---- every workload, a child each -----------------------------------------

/// What a child's `--detail` line carries.
struct ChildResult {
    attempted: u64,
    failed: u64,
    rows: Vec<run::Row>,
    exact: workloads::Stats,
    notes: Vec<String>,
}

fn run_child(
    name: &str,
    args: &Args,
    trace: bool,
    trace_out: Option<&Path>,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate the executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name, "--detail"])
        .args(["--seed", &args.seed().to_string()])
        .args(["--seconds", &args.seconds().to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        command.arg("--quick");
    }
    if args.bless {
        command.arg("--bless");
    }
    if let Some(path) = trace_out {
        command.arg("--trace-out").arg(path);
    }
    let output = command
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child for {name}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or(format!(
        "{name}: the child printed no result ({})",
        output.status
    ))?;
    let detail = json::parse(line).map_err(|e| format!("{name}: {e}"))?;
    let count = |key: &str| {
        detail
            .get(key)
            .and_then(Value::as_u64)
            .ok_or(format!("{name}: no `{key}`"))
    };
    let rows = detail
        .get("rows")
        .and_then(Value::as_array)
        .ok_or(format!("{name}: no `rows`"))?;
    Ok(ChildResult {
        attempted: count("attempted")?,
        failed: count("failed")?,
        rows: rows
            .iter()
            .map(compare::row_from_json)
            .collect::<Result<_, _>>()?,
        exact: compare::stats_from_json(detail.get("exact"))?,
        notes: compare::notes_from_json(detail.get("notes")),
    })
}

/// One workload of a set: an untraced child, then a traced one
/// (`--bless` needs only the first).
fn run_children(name: &str, args: &Args) -> Result<WorkloadResult, String> {
    let untraced = run_child(name, args, false, None)?;
    let mut result = WorkloadResult {
        name: name.to_owned(),
        ops_attempted: untraced.attempted,
        ops_failed: untraced.failed,
        end_to_end: untraced.rows,
        per_layer: Vec::new(),
        exact: untraced.exact,
        notes: untraced.notes,
    };
    if !args.bless {
        let trace_out = args
            .trace_out
            .as_ref()
            .map(|dir| dir.join(format!("{name}.trace.json")));
        let traced = run_child(name, args, true, trace_out.as_deref())?;
        result.ops_attempted += traced.attempted;
        result.ops_failed += traced.failed;
        result.per_layer = traced.rows;
        result.notes.extend(traced.notes);
        if traced.exact != result.exact {
            result.ops_failed += 1;
            let note = "the traced child's exact counts differ from the untraced child's";
            result.notes.push(note.to_owned());
        }
    }
    Ok(result)
}

/// Runs `names` in order.
fn run_set(names: &[&str], args: &Args) -> ResultFile {
    let mut workloads = Vec::new();
    for &name in names {
        eprintln!("ledger: {name}");
        // A child that died is one failed operation with no rows.
        workloads.push(run_children(name, args).unwrap_or_else(|e| WorkloadResult {
            name: name.to_owned(),
            ops_attempted: 1,
            ops_failed: 1,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            exact: workloads::Stats::new(),
            notes: vec![e],
        }));
    }
    // Report in the canonical order whatever order they ran in.
    workloads.sort_by_key(|w| NAMES.iter().position(|n| *n == w.name));
    ResultFile {
        quick: args.quick,
        seed: args.seed(),
        seconds: args.seconds(),
        cores: std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        workloads,
    }
}

fn print_set(set: &ResultFile) {
    println!(
        "# {} set, seed {}, {} s per process, {} cores",
        if set.quick { "quick" } else { "full-size" },
        set.seed,
        set.seconds,
        set.cores
    );
    for w in &set.workloads {
        println!(
            "\n## {}  ops_attempted {}  ops_failed {}",
            w.name, w.ops_attempted, w.ops_failed
        );
        println!(
            "{:<38} {:>10} {:>16} {:>14} {:>14} {:>4}",
            "metric", "unit", "value", "q1", "q3", "n"
        );
        for row in w.end_to_end.iter().chain(&w.per_layer) {
            let (q1, q3, n) = row
                .summary
                .map_or(("-".into(), "-".into(), "-".into()), |s| {
                    (stats::sig5(s.q1), stats::sig5(s.q3), s.n.to_string())
                });
            println!(
                "{:<38} {:>10} {:>16} {:>14} {:>14} {:>4}",
                row.name,
                row.unit,
                stats::sig5(row.value),
                q1,
                q3,
                n
            );
        }
        for note in &w.notes {
            println!("note: {note}");
        }
    }
}

fn full_set(args: &Args) -> Result<ResultFile, String> {
    if let Some(dir) = &args.trace_out {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let set = run_set(&NAMES, args);
    print_set(&set);
    if let Some(path) = &args.out {
        std::fs::write(path, set.to_json())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(set)
}

// ---- comparing sets --------------------------------------------------------

fn bounds() -> Result<Vec<compare::Bound>, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    compare::bounds_from_benchmark_json(&text)
}

fn compare_files(old: &Path, new: &Path) -> Result<bool, String> {
    let load = |path: &Path| {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        ResultFile::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let comparison = compare::compare(&load(old)?, &load(new)?, &bounds()?)?;
    print!("{}", comparison.table);
    println!(
        "{} regression(s), {} unresolved",
        comparison.regressions, comparison.unresolved
    );
    Ok(comparison.regressions == 0)
}

/// Two full sets of this binary, the second in reverse workload order.
/// They must agree within every bound, in both directions, and on
/// every exact count.
fn a_a(args: &Args) -> Result<bool, String> {
    let bounds = bounds()?;
    let first = run_set(&NAMES, args);
    let mut reversed = NAMES;
    reversed.reverse();
    let second = run_set(&reversed, args);

    let forward = compare::compare(&first, &second, &bounds)?;
    let backward = compare::compare(&second, &first, &bounds)?;
    println!("# A/A: second set against the first\n{}", forward.table);
    println!("# A/A: first set against the second\n{}", backward.table);
    let mut disagreements = forward.regressions + backward.regressions;
    println!("# spread of each set's own repetitions, and the exact counts");
    for (a, b) in first.workloads.iter().zip(&second.workloads) {
        let same = a.exact == b.exact && a.ops_failed == 0 && b.ops_failed == 0;
        println!(
            "{:<18} exact counts {}: {:?}",
            a.name,
            if same { "identical" } else { "DIFFER" },
            a.exact
        );
        disagreements += usize::from(!same);
        for row in a.end_to_end.iter().filter(|r| r.summary.is_some()) {
            let spread = row.summary.map_or(0.0, |s| s.spread());
            println!(
                "{:<18} {:<18} spread {:.4} over n={}",
                a.name,
                row.name,
                spread,
                row.summary.map_or(0, |s| s.n)
            );
        }
    }
    println!(
        "{disagreements} disagreement(s), {} unresolved",
        forward.unresolved.max(backward.unresolved)
    );
    Ok(disagreements == 0)
}
