//! End-to-end tests of `rfd explain`: the golden-JSON contract and the
//! human timeline, exercised through the real binary.
//!
//! The golden file (`tests/golden/explain_fig8.json`) pins the full
//! timer-interaction timeline of one (peer, prefix) entry in the
//! Figure 8 mesh scenario — every charge, every threshold crossing,
//! the reuse-timer fire times and each MRAI deferral. Any change to
//! the simulator's event order, penalty arithmetic or ledger emission
//! shows up here as a byte-level diff.

use std::process::Command;

/// The scenario the golden file was generated from.
const FIG8_ARGS: &[&str] = &[
    "explain",
    "--topology",
    "mesh:3x3",
    "--pulses",
    "3",
    "--interval",
    "120",
    "--seed",
    "2",
    "--peer",
    "3",
];

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
fn explain_json_matches_the_committed_golden() {
    let mut args = FIG8_ARGS.to_vec();
    args.push("--json");
    let live = run_ok(&args);
    let golden = include_str!("golden/explain_fig8.json");
    assert_eq!(
        live,
        golden,
        "`rfd explain --json` no longer reproduces tests/golden/explain_fig8.json; \
         if the simulator's behaviour changed intentionally, regenerate the golden \
         with: rfd {} --json > tests/golden/explain_fig8.json",
        FIG8_ARGS.join(" ")
    );
}

#[test]
fn explain_timeline_narrates_the_suppression() {
    let text = run_ok(FIG8_ARGS);
    for needle in [
        "damping lifecycle of (peer 3, prefix 0)",
        "thresholds: cut-off 2000, reuse 750",
        "crossed the cut-off",
        "route suppressed",
        "reuse timer armed",
        "MRAI holds the announcement",
        "MRAI timer fired: deferred announcement flushed",
        "route released",
    ] {
        assert!(text.contains(needle), "timeline is missing {needle:?}");
    }
}

#[test]
fn explain_json_is_machine_parseable_line_shapes() {
    let mut args = FIG8_ARGS.to_vec();
    args.push("--json");
    let live = run_ok(&args);
    // Every record line is a self-contained object with the keyed
    // preamble; cheap schema smoke without a JSON parser.
    let records: Vec<&str> = live
        .lines()
        .filter(|l| l.trim_start().starts_with("{ \"at_us\""))
        .collect();
    assert!(records.len() > 20, "expected a rich timeline");
    for line in records {
        assert!(line.contains("\"node\":"), "record missing node: {line}");
        assert!(line.contains("\"event\":"), "record missing event: {line}");
    }
    assert!(live.contains("\"schema\": \"rfd-explain-v1\""));
}

#[test]
fn explain_respects_node_filter_and_rejects_bad_keys() {
    let mut args = FIG8_ARGS.to_vec();
    args.extend(["--node", "4", "--json"]);
    let live = run_ok(&args);
    for line in live.lines().filter(|l| l.contains("\"at_us\"")) {
        assert!(line.contains("\"node\": 4"), "foreign node in {line}");
    }
    let out = rfd()
        .args(["explain", "--peer", "9999"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "out-of-range --peer must fail");
}

/// A prefix the run does not originate is refused like an out-of-range
/// peer or node (exit 2, naming the flag), not narrated as a key that
/// saw no damping decisions.
#[test]
fn explain_refuses_a_prefix_the_run_does_not_have() {
    let out = rfd()
        .args(["explain", "--topology", "line:4", "--isp", "3"])
        .args(["--pulses", "4", "--interval", "120", "--prefix", "7"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--prefix 7 outside the 1-prefix run"),
        "{stderr}"
    );
}

#[test]
fn explain_refuses_the_run_flags_it_would_ignore() {
    for flag in ["--obs", "--trace=t.txt", "--states"] {
        let out = rfd().args(["explain", flag]).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{stderr}"
        );
    }
}

#[test]
fn explain_defaults_to_the_origin_entry() {
    let text = run_ok(&[
        "explain",
        "--topology",
        "line:4",
        "--isp",
        "3",
        "--pulses",
        "4",
        "--interval",
        "120",
    ]);
    // line:4 appends the origin AS as node 4; its entry at the ISP
    // suppresses on the 5th charge under Cisco defaults.
    assert!(text.contains("damping lifecycle of (peer 4, prefix 0)"));
    assert!(text.contains("route suppressed"));
}
