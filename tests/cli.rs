//! End-to-end tests of the `rfd` CLI binary (spawned as a real
//! process via the path Cargo provides in `CARGO_BIN_EXE_rfd`).

use std::path::PathBuf;
use std::process::Command;

fn rfd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rfd"))
}

/// A fresh, empty scratch directory for one test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rfd-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn run_ok(args: &[&str]) -> String {
    let out = rfd().args(args).output().expect("binary runs");
    assert!(
        out.status.success(),
        "rfd {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn help_prints_usage() {
    let text = run_ok(&["help"]);
    assert!(text.contains("USAGE"));
    assert!(text.contains("trace-stats"));
}

#[test]
fn no_args_fails_with_usage() {
    let out = rfd().output().unwrap();
    assert!(!out.status.success());
}

#[test]
fn unknown_command_fails() {
    // `table1` is `rfd figure table1` now; `snapshot` is gone.
    for command in ["frobnicate", "table1", "snapshot"] {
        let out = rfd().arg(command).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "rfd {command}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
    }
}

#[test]
fn table1_matches_paper() {
    let results = temp_dir("table1");
    let out = rfd()
        .args(["figure", "table1"])
        .env("RFD_RESULTS_DIR", &results)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    for needle in ["Withdrawal Penalty", "1000", "2000", "3000", "750"] {
        assert!(text.contains(needle), "missing {needle}");
    }
    // stdout is the CSV that was saved: a header and eight
    // three-column rows, nothing else.
    assert_eq!(text.lines().count(), 8, "{text}");
    assert!(text.lines().all(|l| l.split(',').count() == 3), "{text}");
    let saved = std::fs::read_to_string(results.join("table1.csv")).expect("table1.csv");
    assert_eq!(saved, text);
    let _ = std::fs::remove_dir_all(results);
}

#[test]
fn intended_reports_trigger_pulse() {
    let text = run_ok(&["intended", "--pulses", "5"]);
    assert!(text.contains("suppression triggered at pulse 3"));
    let text = run_ok(&["intended", "--pulses", "1"]);
    assert!(text.contains("never triggered"));
}

#[test]
fn run_and_trace_stats_round_trip() {
    let trace_path =
        std::env::temp_dir().join(format!("rfd-cli-test-{}.trace", std::process::id()));
    let trace_str = trace_path.to_str().unwrap();
    let text = run_ok(&[
        "run",
        "--topology",
        "mesh:4x4",
        "--pulses",
        "2",
        "--seed",
        "5",
        "--states",
        "--trace",
        trace_str,
    ]);
    assert!(text.contains("converged"));
    assert!(text.contains("states:"));
    assert!(text.contains("charging"));
    // The exported bytes of this run (1,574 events), pinned when the
    // trace was a `Vec<TraceEvent>`: the packed stream must export
    // exactly what the unpacked one did.
    let exported = std::fs::read(&trace_path).unwrap();
    assert_eq!(rfd_snap::fnv1a(&exported), 0xb335_9290_375d_5dbe);

    let stats = run_ok(&["trace-stats", trace_str]);
    assert!(stats.contains("events"));
    assert!(stats.contains("messages:"));
    // The stats recomputed from the exported trace agree with the run's
    // own numbers: both lines carry the suppression summary.
    assert!(stats.contains("entries ever suppressed"));
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn run_rejects_bad_flags() {
    // A command line the flag tables refuse exits 2 with one `error:`
    // line naming the problem (several once died with a panic and a
    // backtrace), before any cell runs: `rfd sweep` and `rfd figure`
    // never run a sweep other than the one asked for.
    let scratch = temp_dir("refused");
    let results = scratch.join("results");
    for (line, needle) in [
        ("run --pulses banana", "bad --pulses value `banana`"),
        (
            "intended --interval -5",
            "--interval must be a positive number of seconds, got `-5`",
        ),
        (
            "run --interval 1e300",
            "--interval must be a positive number of seconds, got `1e300`",
        ),
        ("run --sim-shards 2", "unknown flag `--sim-shards`"),
        ("run --snapshot s", "unknown flag `--snapshot`"),
        ("run --resume", "unknown flag `--resume`"),
        ("run --chaos kill@checkpoint", "unknown flag `--chaos`"),
        ("sweep --warm-fork", "unknown flag `--warm-fork`"),
        ("sweep --quik", "unknown flag `--quik`"),
        ("sweep --quick --threads", "--threads needs a value"),
        ("sweep --sim-shards 2", "unknown flag `--sim-shards`"),
        ("sweep --quick=yes", "--quick takes no value"),
        ("sweep --chaos panic@x", "unknown flag `--chaos`"),
        ("sweep --retries 1", "unknown flag `--retries`"),
        ("sweep --cell-budget 1", "unknown flag `--cell-budget`"),
        ("firehose --chaos panic@shard0", "unknown flag `--chaos`"),
        ("firehose --telemetry t", "unknown flag `--telemetry`"),
        (
            "firehose --telemetry-interval 1",
            "unknown flag `--telemetry-interval`",
        ),
        ("firehose --prom m", "unknown flag `--prom`"),
        ("firehose --heartbeat 1", "unknown flag `--heartbeat`"),
        ("figure fig3 --quik", "unknown flag `--quik`"),
        ("figure fig99", "unknown figure `fig99` (table1|fig3|"),
        ("figure", "|link_failure|knobs|all)"),
        ("figure fig8", "run `rfd sweep --figure fig8-9`"),
        ("figure fig14", "run `rfd sweep --figure fig13-14`"),
        // Sizes the generators cannot build, refused before a cell runs.
        (
            "run --topology ring:2",
            "`ring:2` is too small: ring needs N >= 3",
        ),
        (
            "topology --kind ba:2",
            "`ba:2` is too small: ba needs N >= 3",
        ),
        (
            "sweep --quick --no-journal --topology ba:2",
            "`ba:2` is too small: ba needs N >= 3",
        ),
        // Sizes no `NodeId` can address, refused before anything is
        // allocated.
        (
            "run --topology ring:5000000000",
            "`ring:5000000000` is too large: at most 4294967295 nodes",
        ),
        (
            "topology --kind mesh:4294967296x4294967296",
            "is too large: at most 4294967295 nodes",
        ),
        (
            "sweep --quick --no-journal --topology torus:70000x70000",
            "is too large: at most 4294967295 nodes",
        ),
        // An ISP outside the graph is a refused command line too.
        (
            "run --topology mesh:3x3 --isp 99",
            "--isp 99 outside the 9-node graph",
        ),
        (
            "explain --topology mesh:3x3 --isp 99",
            "--isp 99 outside the 9-node graph",
        ),
    ] {
        let out = rfd()
            .args(line.split(' '))
            .env("RFD_RESULTS_DIR", &results)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "rfd {line}: {stderr}");
        assert!(out.stdout.is_empty(), "rfd {line} printed a CSV");
        assert_eq!(stderr.lines().count(), 1, "rfd {line}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(needle),
            "{stderr}"
        );
    }
    // A fault plan other than `panic@KEY` is refused the same way.
    let out = rfd()
        .args(["sweep", "--quick"])
        .env("RFD_CHAOS", "hang=1@x")
        .env("RFD_RESULTS_DIR", &results)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: RFD_CHAOS: bad chaos spec: `hang=1@x` is not panic@CELL-KEY"),
        "{stderr}"
    );
    let refused = "a refused command line must not run a cell";
    assert!(!results.exists(), "{refused}");
    let _ = std::fs::remove_dir_all(scratch);
    let out = rfd()
        .args(["run", "--damping", "off", "--filter", "rcn"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires damping"));
}

/// `rfd sweep` journals and saves under `$RFD_RESULTS_DIR`, like every
/// other artefact command, and leaves the working directory alone.
#[test]
fn sweep_writes_under_the_results_dir() {
    let (cwd, results) = (temp_dir("sweep-cwd"), temp_dir("sweep-results"));
    let out = rfd()
        .args("sweep --max-pulses 1 --seeds 1 --threads 1".split(' '))
        .env("RFD_RESULTS_DIR", &results)
        .current_dir(&cwd)
        .output()
        .expect("rfd runs");
    assert!(out.status.success(), "{out:?}");
    for file in ["fig8-9.runs.jsonl", "fig8.csv", "fig9.csv"] {
        assert!(
            results.join(file).is_file(),
            "{file} not under the results dir"
        );
    }
    assert!(!cwd.join("results").exists(), "rfd sweep wrote ./results");
    let _ = std::fs::remove_dir_all(cwd);
    let _ = std::fs::remove_dir_all(results);
}

/// A damaged journal line is skipped and counted, never fatal — even
/// one nested 200,000 brackets deep, which once overflowed the stack.
#[test]
fn resume_skips_a_deeply_nested_journal_line() {
    let results = temp_dir("deep-journal");
    let sweep = |extra: &[&str]| {
        let out = rfd()
            .args(["sweep", "--quick", "--threads", "1"])
            .args(extra)
            .env("RFD_RESULTS_DIR", &results)
            .output()
            .expect("rfd runs");
        assert!(out.status.success(), "{out:?}");
        out
    };
    let clean = sweep(&[]);
    let journal = results.join("fig8-9.runs.jsonl");
    let mut text = std::fs::read_to_string(&journal).expect("journal written");
    text.push_str(&"[".repeat(200_000));
    text.push('\n');
    std::fs::write(&journal, text).unwrap();
    let resumed = sweep(&["--resume"]);
    assert_eq!(resumed.stdout, clean.stdout, "resume moved the CSV");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("journal carried 1 damaged line(s)"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(results);
}

/// A journal whose header line is torn names no grid, so `--resume`
/// must refuse it rather than splice its cells into whatever sweep is
/// asked for: here a 4x4 torus's cells into the default 5x5 mesh's
/// table.
#[test]
fn resume_refuses_a_journal_whose_header_is_damaged() {
    let results = temp_dir("torn-header");
    let sweep = |extra: &[&str]| {
        rfd()
            .args(["sweep", "--quick", "--threads", "1"])
            .args(extra)
            .env("RFD_RESULTS_DIR", &results)
            .output()
            .expect("rfd runs")
    };
    assert!(sweep(&["--topology", "torus:4x4"]).status.success());
    let journal = results.join("fig8-9.runs.jsonl");
    let text = std::fs::read_to_string(&journal).expect("journal written");
    let (_, cells) = text.split_once('\n').unwrap();
    let torn = format!("{{\"journal\":\"rfd-runs/v2\",\"grid\":\"fig8-9\",#\n{cells}");
    std::fs::write(&journal, &torn).unwrap();
    let csv = std::fs::read(results.join("fig8.csv")).unwrap();

    let resumed = sweep(&["--resume"]);
    assert_eq!(resumed.status.code(), Some(2), "{resumed:?}");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(
        stderr.contains("does not start with an intact header"),
        "{stderr}"
    );
    assert!(stderr.contains("re-run without --resume"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&journal).unwrap(), torn);
    assert_eq!(std::fs::read(results.join("fig8.csv")).unwrap(), csv);
    let _ = std::fs::remove_dir_all(results);
}

#[test]
fn topology_generates_parseable_edge_list() {
    let text = run_ok(&["topology", "--kind", "ring:6"]);
    let ring = route_flap_damping::topology::ring(6);
    assert_eq!(text, route_flap_damping::topology::to_edge_list(&ring));
}

#[test]
fn rcn_run_converges_quickly() {
    let text = run_ok(&[
        "run",
        "--topology",
        "mesh:4x4",
        "--pulses",
        "1",
        "--filter",
        "rcn",
        "--seed",
        "3",
    ]);
    assert!(text.contains("0 entries suppressed"), "{text}");
}

/// A run the horizon cuts off has no convergence time: `run` and
/// `explain` fail, naming the outcome and the horizon, and print none.
#[test]
fn a_run_the_horizon_cuts_off_fails() {
    for command in ["run", "explain"] {
        let out = rfd()
            .args([command, "--topology", "mesh:3x3", "--pulses", "820"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "rfd {command}: {stderr}");
        assert!(
            stderr.contains("(HorizonReached, horizon 100000 s)"),
            "{stderr}"
        );
        assert!(!String::from_utf8_lossy(&out.stdout).contains("converged"));
    }
}
