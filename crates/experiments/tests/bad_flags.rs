//! An experiment binary never runs a sweep other than the one asked
//! for: a flag it does not know, a missing value or an out-of-range
//! value exits 2 with one `error:` line naming the flag, before any
//! cell runs. (Before ISSUE 14 `fig8 --quik --threads` ran the
//! full-size sweep on all cores and exited 0.)

use std::process::Command;

#[test]
fn fig8_refuses_what_it_does_not_understand() {
    let results = std::env::temp_dir().join(format!("rfd-bad-flags-{}", std::process::id()));
    for (args, needle) in [
        (&["--quik"][..], "unknown flag `--quik`"),
        (&["--quick", "--threads"], "--threads needs a value"),
        (&["--sim-shards=0"], "--sim-shards must be at least 1"),
        (&["--sim-shards=65536"], "--sim-shards must be at most"),
        (&["--quick=yes"], "--quick takes no value"),
        (&["--cell-budget", "-1"], "--cell-budget must be a positive"),
        (&["--chaos", "explode@x"], "unknown fault `explode`"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig8"))
            .args(args)
            .env("RFD_RESULTS_DIR", &results)
            .output()
            .expect("fig8 runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "fig8 {args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "fig8 {args:?} printed a CSV");
        assert_eq!(stderr.lines().count(), 1, "fig8 {args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(needle),
            "{stderr}"
        );
    }
    assert!(
        !results.exists(),
        "a refused command line must not run a cell"
    );
}
