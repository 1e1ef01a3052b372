//! Hostile command lines (ROADMAP 4(d), CLI flags): random token
//! vectors — declared flags in both spellings, undeclared flags, empty
//! strings, replacement characters and control bytes, huge, negative
//! and NaN numbers — go to every `parse_*` entry point, `rfd figure`'s
//! included. Each must return `Ok` or a `CliError` with a message; none
//! may panic. And every topology spec the parser accepts builds.

use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use proptest::prelude::*;
use route_flap_damping::cli::{
    parse_explain_command, parse_figure_command, parse_firehose_command, parse_intended_command,
    parse_run_options, parse_sweep_command, parse_topology_command, CliError, EXPLAIN, FIREHOSE,
    INTENDED, RUN, SWEEP, TABLES, TOPOLOGY,
};
use route_flap_damping::experiments::args::Table;
use route_flap_damping::experiments::output::EXEC;
use route_flap_damping::experiments::TopologyKind;

#[rustfmt::skip]
const VALUES: &[&str] = &[
    // numbers: small, negative, sub-microsecond, overflowing every integer and duration
    "", " ", "0", "1", "3", "-1", "-5", "0.000001", "1e-9", "1e-400", "1e300", "-1e300", "NaN",
    "inf", "-inf", "65535", "65536", "4294967296", "9223372036854775807", "18446744073709551616",
    // values some flag accepts, and near misses
    "mesh:3x3", "torus:0x0", "ba:20", "ba:", "ring:18446744073709551616", ":", "off", "cisco",
    "juniper", "rcn", "novalley", "poisson", "bucketed", "json", "fig15", "1,2", "1,x", ",", "4:1",
    "4:",
    // not flags, not values
    "-", "--", "-h", "=", "--=", "--quik", "--no-such-flag", "--seed\n1", "\0",
    "\u{fffd}\u{fffd}", "\u{202e}--seed", "ünï©ødé",
];

/// Spells `pieces` as a command line for `table`: mostly its own flags
/// as `--flag value`, `--flag=value` or bare, now and then a bare value
/// or a flag of some other table.
fn line_for(table: &Table, pieces: &[(u8, u32, u32)]) -> Vec<String> {
    let own: Vec<&str> = table.all_flags().map(|f| f.name).collect();
    let any: Vec<&str> = TABLES
        .iter()
        .flat_map(|t| t.all_flags())
        .map(|f| f.name)
        .collect();
    let mut line = Vec::new();
    for &(shape, f, v) in pieces {
        let flag = own[f as usize % own.len()];
        let value = VALUES[v as usize % VALUES.len()];
        match shape {
            0..=2 => line.extend([flag.to_owned(), value.to_owned()]),
            3 => line.push(format!("{flag}={value}")),
            4 | 5 => line.push(flag.to_owned()),
            6 => line.push(value.to_owned()),
            _ => line.push(any[f as usize % any.len()].to_owned()),
        }
    }
    line
}

static ACCEPTED: AtomicUsize = AtomicUsize::new(0);

fn settled<T>(result: Result<T, CliError>) -> Result<(), TestCaseError> {
    match result {
        Ok(_) => {
            ACCEPTED.fetch_add(1, Relaxed);
        }
        Err(e) => prop_assert!(!e.0.is_empty(), "an error must say something"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10_000))]

    fn every_command_line_settles(
        pieces in collection::vec((0u8..8, any::<u32>(), any::<u32>()), 1..7),
    ) {
        let line = |table: &Table| line_for(table, &pieces);
        let after = |verb: &str, table: &Table| {
            let mut words = vec![verb.to_owned()];
            words.extend(line(table));
            words
        };
        settled(parse_run_options(&line(&RUN)))?;
        settled(parse_explain_command(&line(&EXPLAIN)))?;
        settled(parse_sweep_command(&line(&SWEEP)))?;
        settled(parse_firehose_command(&line(&FIREHOSE)))?;
        settled(parse_intended_command(&line(&INTENDED)))?;
        settled(parse_topology_command(&line(&TOPOLOGY)))?;
        settled(parse_figure_command(&after("fig3", &EXEC)))?;
        settled(parse_figure_command(&line(&EXEC)))?;
    }
}

/// Runs the 10k cases, then checks the pool is not all noise: a share
/// of the lines is accepted, so every getter behind a successful
/// tokenization runs too.
#[test]
fn no_command_line_panics_a_parser() {
    every_command_line_settles();
    assert!(ACCEPTED.load(Relaxed) > 1_000, "{ACCEPTED:?} accepted");
}

/// Every kind × every size in `0..=16`: a spec parses exactly when its
/// sizes reach the kind's minimum, the refusal names that minimum, and
/// a spec that parses builds without panicking.
#[test]
fn a_topology_spec_that_parses_builds() {
    for (kind, least) in [
        ("mesh", 1),
        ("torus", 1),
        ("internet", 3),
        ("ba", 3),
        ("ring", 3),
        ("line", 1),
        ("clique", 1),
    ] {
        let mesh = kind == "mesh" || kind == "torus";
        for a in 0..=16usize {
            for b in if mesh { 0..=16 } else { 0..=0 } {
                let spec = if mesh {
                    format!("{kind}:{a}x{b}")
                } else {
                    format!("{kind}:{a}")
                };
                let smallest = if mesh { a.min(b) } else { a };
                match TopologyKind::parse(&spec) {
                    Ok(parsed) => {
                        assert!(smallest >= least, "{spec} accepted");
                        for seed in [1, 7] {
                            parsed.build(seed);
                        }
                    }
                    Err(e) => {
                        assert!(smallest < least, "{spec} refused: {}", e.0);
                        assert!(e.0.contains(&format!(">= {least}")), "{}", e.0);
                    }
                }
            }
        }
    }
}

/// A graph no `NodeId` can address is refused at parse time, before
/// anything is allocated for it; the largest addressable sizes parse.
/// (Only parsed here: building them would exhaust memory.)
#[test]
fn a_topology_no_node_id_can_address_is_refused() {
    let limit = u32::MAX as usize;
    for spec in [
        format!("mesh:{}x{}", 1usize << 32, 1usize << 32),
        format!("mesh:{}x{}", limit + 2, limit),
        format!("torus:{}x1", limit + 1),
        "torus:70000x70000".to_owned(),
        format!("ring:{}", limit + 1),
        format!("ba:{}", usize::MAX),
        format!("line:{}", limit + 1),
        format!("clique:{}", limit + 1),
    ] {
        let err = TopologyKind::parse(&spec).expect_err(&spec);
        assert!(
            err.0.contains(&format!("at most {limit} nodes")),
            "{spec}: {}",
            err.0
        );
    }
    for spec in [
        format!("ring:{limit}"),
        format!("mesh:{limit}x1"),
        "mesh:65535x65537".to_owned(),
    ] {
        assert!(TopologyKind::parse(&spec).is_ok(), "{spec}");
    }
}

/// A pulse train whose last flap lies past the default horizon, or
/// whose 2n flaps exceed the event budget, is refused at parse time,
/// before any flap is injected; the error names the largest count that
/// fits, which parses.
#[test]
fn a_pulse_train_past_the_horizon_is_refused() {
    type Parse = fn(&[String]) -> Result<(), CliError>;
    let run: Parse = |a| parse_run_options(a).map(drop);
    let explain: Parse = |a| parse_explain_command(a).map(drop);
    let sweep: Parse = |a| parse_sweep_command(a).map(drop);
    let intended: Parse = |a| parse_intended_command(a).map(drop);
    let words = |line: &str| line.split(' ').map(str::to_owned).collect::<Vec<_>>();
    for (parse, line, fits) in [
        (run, "--interval 10000000000000 --pulses 2", "0"),
        (run, "--pulses 3000000000", "833"),
        (explain, "--pulses 834", "833"),
        (sweep, "--max-pulses 100000000000", "833"),
        (intended, "--pulses 4294967296", "833"),
        (intended, "--interval 10000000000000 --pulses 1000", "0"),
        (run, BUDGET_BUSTER, "250000000"),
        (explain, BUDGET_BUSTER, "250000000"),
        (intended, BUDGET_BUSTER, "250000000"),
    ] {
        let err = parse(&words(line)).expect_err(line);
        assert!(
            err.0.contains(&format!("at most {fits} pulses fit")),
            "{line}: {}",
            err.0
        );
        let largest = format!("{} {fits}", line.rsplit_once(' ').unwrap().0);
        assert!(parse(&words(&largest)).is_ok(), "{largest}");
    }
}

/// 10^10 pulses one microsecond apart fit the horizon; only the event
/// budget (2n flaps, at most 5·10^8 events) refuses them.
const BUDGET_BUSTER: &str = "--interval 0.000001 --pulses 10000000000";

/// The binary turns that refusal into exit 2, naming the budget,
/// for `rfd run` and `rfd intended` alike, without injecting a flap.
#[test]
fn a_pulse_train_past_the_event_budget_exits_2() {
    for command in ["run", "intended"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_rfd"))
            .arg(command)
            .args(BUDGET_BUSTER.split(' '))
            .output()
            .expect("rfd runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "rfd {command}: {stderr}");
        assert!(
            stderr.contains("past the 500000000-event budget; at most 250000000 pulses fit"),
            "rfd {command}: {stderr}"
        );
    }
}
