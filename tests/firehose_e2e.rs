//! End-to-end tests of `rfd firehose`: the shard-count determinism
//! contract, checked through the real binary exactly the way the CI
//! smoke job checks it — by diffing the `aggregate,` rows of the CSV
//! report across shard counts.

use std::process::Command;

fn firehose_csv(extra: &[&str]) -> String {
    let mut args = vec![
        "firehose",
        "--peers",
        "6",
        "--prefixes",
        "64",
        "--rate",
        "40",
        "--duration",
        "10800",
        "--seed",
        "11",
    ];
    args.extend_from_slice(extra);
    let out = Command::new(env!("CARGO_BIN_EXE_rfd"))
        .args(&args)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "rfd {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn aggregate_rows(csv: &str) -> Vec<&str> {
    let rows: Vec<&str> = csv
        .lines()
        .filter(|l| l.starts_with("aggregate,"))
        .collect();
    assert_eq!(rows.len(), 8, "unexpected aggregate section:\n{csv}");
    rows
}

fn field(csv: &str, name: &str) -> u64 {
    let prefix = format!("aggregate,{name},");
    csv.lines()
        .find_map(|l| l.strip_prefix(prefix.as_str()))
        .unwrap_or_else(|| panic!("no {name} row in:\n{csv}"))
        .parse()
        .expect("integer aggregate value")
}

#[test]
fn aggregates_identical_across_shard_counts() {
    let one = firehose_csv(&["--workload", "flap-storm", "--shards", "1"]);
    let two = firehose_csv(&["--workload", "flap-storm", "--shards", "2"]);
    let eight = firehose_csv(&["--workload", "flap-storm", "--shards", "8"]);
    assert_eq!(aggregate_rows(&one), aggregate_rows(&two));
    assert_eq!(aggregate_rows(&one), aggregate_rows(&eight));
    // The run must actually exercise the decision machinery, or the
    // equality above proves nothing.
    assert!(field(&one, "updates") > 1000);
    assert!(field(&one, "suppressions") > 0);
    assert!(field(&one, "reuses") > 0);
    assert!(field(&one, "evictions") > 0);

    let poisson_one = firehose_csv(&["--workload", "poisson", "--shards", "1"]);
    let poisson_four = firehose_csv(&["--workload", "poisson", "--shards", "4"]);
    assert_eq!(aggregate_rows(&poisson_one), aggregate_rows(&poisson_four));
}

#[test]
fn json_report_parses_and_matches_csv_aggregate() {
    let csv = firehose_csv(&["--workload", "poisson", "--shards", "2"]);
    let json = firehose_csv(&["--workload", "poisson", "--shards", "2", "--format", "json"]);
    let doc = route_flap_damping::obs::json::parse(&json).expect("JSON report parses");
    let agg = doc.get("aggregate").expect("aggregate object");
    for name in [
        "updates",
        "suppressions",
        "reuses",
        "reuse_deferrals",
        "evictions",
        "penalty_milli",
        "suppressed_at_end",
        "live_entries",
    ] {
        assert_eq!(
            agg.get(name)
                .and_then(route_flap_damping::obs::json::Value::as_u64),
            Some(field(&csv, name)),
            "JSON/CSV disagree on {name}"
        );
    }
}

#[test]
fn heartbeat_run_succeeds_with_narrative_on_stderr() {
    let out = Command::new(env!("CARGO_BIN_EXE_rfd"))
        .args([
            "firehose",
            "--peers",
            "4",
            "--prefixes",
            "32",
            "--rate",
            "200",
            "--duration",
            "600",
            "--workload",
            "poisson",
            "--shards",
            "2",
            "--heartbeat",
            "0.001",
        ])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(
        stderr.contains("firehose:"),
        "no narrative on stderr:\n{stderr}"
    );
}

#[test]
fn telemetry_files_are_written_and_do_not_perturb_the_report() {
    use route_flap_damping::obs::json;

    let dir = std::env::temp_dir().join(format!("rfd-telemetry-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let jsonl = dir.join("shards.jsonl");
    let prom = dir.join("metrics.prom");

    for shards in ["1", "2"] {
        let plain = firehose_csv(&["--workload", "flap-storm", "--shards", shards]);
        let observed = firehose_csv(&[
            "--workload",
            "flap-storm",
            "--shards",
            shards,
            "--telemetry",
            jsonl.to_str().unwrap(),
            "--telemetry-interval",
            "0.01",
            "--prom",
            prom.to_str().unwrap(),
        ]);
        // The non-perturbation contract, end to end: the decision
        // aggregate is identical with the observers on or off.
        assert_eq!(
            aggregate_rows(&plain),
            aggregate_rows(&observed),
            "telemetry perturbed the {shards}-shard aggregate"
        );

        let shard_count: usize = shards.parse().unwrap();
        let text = std::fs::read_to_string(&jsonl).expect("telemetry JSONL written");
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines.len() >= shard_count,
            "expected at least one tick of {shard_count} rows:\n{text}"
        );
        assert_eq!(lines.len() % shard_count, 0, "partial tick in:\n{text}");
        let mut seen_shards = vec![false; shard_count];
        for line in &lines {
            let row = json::parse(line).expect("telemetry line parses as JSON");
            for key in [
                "seq",
                "elapsed_ms",
                "sim_us",
                "shard",
                "processed",
                "processed_delta",
                "rate_per_sec",
                "suppressions",
                "suppression_ratio",
                "queue_depth",
                "max_queue_depth",
                "push_waits",
                "live_entries",
                "p50_ns",
                "p99_ns",
            ] {
                assert!(row.get(key).is_some(), "missing {key} in line: {line}");
            }
            let shard = row
                .get("shard")
                .and_then(json::Value::as_u64)
                .expect("integer shard id") as usize;
            assert!(shard < shard_count, "shard id out of range: {line}");
            seen_shards[shard] = true;
        }
        assert!(
            seen_shards.iter().all(|&s| s),
            "not every shard reported: {seen_shards:?}"
        );
        // The final tick is emitted after the workers join, so its
        // cumulative counters reconcile exactly with the report.
        let last_tick = &lines[lines.len() - shard_count..];
        let final_processed: u64 = last_tick
            .iter()
            .map(|l| {
                json::parse(l)
                    .unwrap()
                    .get("processed")
                    .and_then(json::Value::as_u64)
                    .unwrap()
            })
            .sum();
        assert_eq!(final_processed, field(&plain, "updates"));

        let prom_text = std::fs::read_to_string(&prom).expect("prom exposition written");
        assert!(
            prom_text.contains(&format!(
                "rfd_firehose_updates_total {}",
                field(&plain, "updates")
            )),
            "exposition disagrees with the report:\n{prom_text}"
        );
        for needle in [
            "# TYPE rfd_firehose_updates_total counter",
            "# TYPE rfd_firehose_live_entries gauge",
            "rfd_firehose_shard_processed_total{shard=\"0\"}",
            "rfd_firehose_decision_latency_ns{quantile=\"0.99\"}",
            "rfd_firehose_decision_latency_ns_count",
        ] {
            assert!(prom_text.contains(needle), "missing {needle}:\n{prom_text}");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn firehose_rejects_bad_flags() {
    let out = Command::new(env!("CARGO_BIN_EXE_rfd"))
        .args(["firehose", "--workload", "tsunami"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown workload"));
}
