//! End-to-end tests of the `rfd` CLI binary (spawned as a real
//! process via the path Cargo provides in `CARGO_BIN_EXE_rfd`).

use std::process::Command;

fn rfd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rfd"))
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
    let out = rfd().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn table1_matches_paper() {
    let text = run_ok(&["table1"]);
    for needle in ["Withdrawal Penalty", "1000", "2000", "3000", "750"] {
        assert!(text.contains(needle), "missing {needle}");
    }
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
    // line naming the flag and the value (all but the first once died
    // with a panic and a backtrace).
    for args in [
        ["run", "--pulses", "banana"],
        ["sweep", "--cell-budget", "-1"],
        ["intended", "--interval", "-5"],
        ["run", "--interval", "1e300"],
        ["run", "--sim-shards", "65536"],
    ] {
        let out = rfd().args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "rfd {args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "rfd {args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{stderr}");
        assert!(
            stderr.contains(args[1]) && stderr.contains(args[2]),
            "{stderr}"
        );
    }
    let out = rfd()
        .args(["run", "--damping", "off", "--filter", "rcn"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires damping"));
}

#[test]
fn topology_generates_parseable_edge_list() {
    let text = run_ok(&["topology", "--kind", "ring:6"]);
    let graph = route_flap_damping::topology::parse_edge_list(&text).expect("valid edge list");
    assert_eq!(graph.node_count(), 6);
    assert_eq!(graph.link_count(), 6);
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
