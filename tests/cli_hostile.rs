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
    parse_run_options, parse_sweep_command, parse_topology_command, CliError, TopologySpec,
    EXPLAIN, FIREHOSE, INTENDED, RUN, SWEEP, TABLES, TOPOLOGY,
};
use route_flap_damping::experiments::args::Table;
use route_flap_damping::experiments::output::EXEC;

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
                match TopologySpec::parse(&spec) {
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
