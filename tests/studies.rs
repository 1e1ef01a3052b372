//! The one-pulse-count studies behind `rfd figure sweeps`, `extensions`
//! and `knobs` (the tech report's interval, size and parameter sweeps,
//! partial deployment, the protocol knobs), pinned byte for byte, and
//! the failure contract every grid shares through `measure_sweep`: a
//! failed cell is marked `FAILED:k`, fails the command, and `--resume`
//! — at another thread count — heals it to the clean bytes.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// The committed CSVs of the full-size study commands.
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/crates/experiments/tests/golden"
);

/// A study cell of the interval sweep (60 s gaps, 3 pulses, seed 1) —
/// present at full size and under `--quick`.
const CHAOS_KEY: &str = "panic@interval=60s|n=3|seed=1";

/// A fresh, empty results directory for one test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rfd-studies-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// `rfd figure ARGS` writing under `results`, with an optional fault
/// plan.
fn figure(results: &Path, args: &[&str], chaos: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_rfd"));
    cmd.arg("figure")
        .args(args)
        .env("RFD_RESULTS_DIR", results)
        .env_remove("RFD_CHAOS");
    if let Some(plan) = chaos {
        cmd.env("RFD_CHAOS", plan);
    }
    cmd.output().expect("binary runs")
}

fn read(dir: &Path, name: &str) -> String {
    let path = dir.join(format!("{name}.csv"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Asserts each named CSV under `results` equals its golden.
fn assert_golden(results: &Path, names: &[&str]) {
    for name in names {
        assert_eq!(
            read(results, name),
            read(Path::new(GOLDEN), name),
            "{name}.csv moved from its golden"
        );
    }
}

#[test]
fn study_csvs_match_the_goldens() {
    let results = temp_dir("golden");
    for (command, names) in [
        (
            "sweeps",
            &["sweep_interval", "sweep_size", "sweep_params"][..],
        ),
        ("extensions", &["extensions_partial_deployment"]),
        ("knobs", &["knobs_p1_i60", "knobs_p4_i10"]),
    ] {
        let out = figure(&results, &[command, "--threads", "2"], None);
        assert!(out.status.success(), "rfd figure {command}: {out:?}");
        assert_golden(&results, names);
    }
    let _ = std::fs::remove_dir_all(results);
}

#[test]
fn a_failed_study_cell_fails_the_command_and_resume_heals_it() {
    let results = temp_dir("chaos");
    let sweeps = ["sweep_interval", "sweep_size", "sweep_params"];
    let out = figure(&results, &["sweeps", "--threads", "1"], Some(CHAOS_KEY));
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("FAILURE REPORT"));
    // The 60 s row keeps its axis and model values; its measured cells
    // are marked instead of holding the two surviving seeds' mean.
    let golden = read(Path::new(GOLDEN), "sweep_interval");
    let row = golden.lines().find(|l| l.starts_with("60,")).unwrap();
    let cells: Vec<&str> = row.split(',').collect();
    let marked = format!("60,FAILED:1,FAILED:1,FAILED:1,{}", cells[4]);
    let csv = read(&results, "sweep_interval");
    assert_eq!(csv, golden.replace(row, &marked), "{csv}");
    assert_golden(&results, &sweeps[1..]);

    let out = figure(&results, &["sweeps", "--threads", "2", "--resume"], None);
    assert!(out.status.success(), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("1 previously failed cell(s)"));
    assert_golden(&results, &sweeps);

    // `all` carries the study's failure to its exit status too.
    let quick = temp_dir("chaos-all");
    let out = figure(
        &quick,
        &["all", "--quick", "--threads", "2"],
        Some(CHAOS_KEY),
    );
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(read(&quick, "sweep_interval").contains("\n60,FAILED:1,"));
    let _ = std::fs::remove_dir_all(results);
    let _ = std::fs::remove_dir_all(quick);
}
