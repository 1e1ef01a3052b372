//! Command-line interface plumbing for the `rfd` binary.
//!
//! Every subcommand declares its flags as one
//! [`rfd_experiments::args::Table`]; the `parse_*` functions here are
//! table look-ups plus the cross-flag checks, and [`usage`] renders the
//! same tables. Parsing lives in the library so it is unit-testable;
//! the binary in `src/bin/rfd.rs` only dispatches.

use std::path::PathBuf;

use rfd_bgp::{DampingDeployment, NetworkConfig, PenaltyFilter, Policy, ProtocolOptions};
use rfd_core::DampingParams;
use rfd_experiments::args::{self, render_usage, Flag, Parsed, Table};
use rfd_experiments::output::{exec_flags, obs, Exec, EXEC, OBS};
use rfd_experiments::scenarios::{infer_relationships, TopologyKind};
use rfd_experiments::SweepOptions;
use rfd_sim::SimDuration;
use rfd_topology::Graph;

use crate::figure::{self, SweepFigure};
pub use rfd_experiments::args::CliError;

/// A parsed topology specification, e.g. `mesh:10x10`, `internet:100`,
/// `ring:8`, `line:5`, `clique:6`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// `mesh:WxH`
    Mesh(usize, usize),
    /// `internet:N`
    Internet(usize),
    /// `ring:N`
    Ring(usize),
    /// `line:N`
    Line(usize),
    /// `clique:N`
    Clique(usize),
}

impl TopologySpec {
    /// Parses a spec string.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on malformed specs and on sizes
    /// the generator cannot build: a mesh needs W, H >= 1, an Internet
    /// graph N >= 3 (it attaches each new node to 2 earlier ones), a
    /// ring N >= 3, a line or clique N >= 1.
    pub fn parse(spec: &str) -> Result<Self, CliError> {
        let (kind, size) = spec
            .split_once(':')
            .ok_or_else(|| CliError(format!("topology must look like kind:size, got `{spec}`")))?;
        let parse_n = |s: &str| {
            s.parse::<usize>()
                .map_err(|_| CliError(format!("bad size `{s}` in `{spec}`")))
        };
        let parsed = match kind {
            // `torus` is an alias for `mesh` (the paper's mesh *is* a
            // torus), `ba` for `internet` (Barabási–Albert).
            "mesh" | "torus" => {
                let (w, h) = size
                    .split_once('x')
                    .ok_or_else(|| CliError(format!("{kind} needs WxH, got `{size}`")))?;
                TopologySpec::Mesh(parse_n(w)?, parse_n(h)?)
            }
            "internet" | "ba" => TopologySpec::Internet(parse_n(size)?),
            "ring" => TopologySpec::Ring(parse_n(size)?),
            "line" => TopologySpec::Line(parse_n(size)?),
            "clique" => TopologySpec::Clique(parse_n(size)?),
            other => {
                return Err(CliError(format!(
                    "unknown topology kind `{other}` (mesh|torus|internet|ba|ring|line|clique)"
                )))
            }
        };
        let (buildable, least) = match parsed {
            TopologySpec::Mesh(w, h) => (w >= 1 && h >= 1, "W, H >= 1"),
            TopologySpec::Internet(n) | TopologySpec::Ring(n) => (n >= 3, "N >= 3"),
            TopologySpec::Line(n) | TopologySpec::Clique(n) => (n >= 1, "N >= 1"),
        };
        if !buildable {
            return Err(CliError(format!(
                "topology `{spec}` is too small: {kind} needs {least}"
            )));
        }
        Ok(parsed)
    }

    /// Builds the graph (Internet graphs use `seed`).
    pub fn build(self, seed: u64) -> Graph {
        match self {
            TopologySpec::Mesh(w, h) => rfd_topology::mesh_torus(w, h),
            TopologySpec::Internet(n) => rfd_topology::internet_like(n, 2, seed),
            TopologySpec::Ring(n) => rfd_topology::ring(n),
            TopologySpec::Line(n) => rfd_topology::line(n),
            TopologySpec::Clique(n) => rfd_topology::clique(n),
        }
    }
}

/// Options for `rfd run`.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Topology to simulate on.
    pub topology: TopologySpec,
    /// ISP node (None = seeded random pick).
    pub isp: Option<u32>,
    /// Number of pulses.
    pub pulses: usize,
    /// Gap between flap events.
    pub interval: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Damping preset (`None` = off).
    pub damping: Option<DampingParams>,
    /// Penalty filter.
    pub filter: PenaltyFilter,
    /// Use the no-valley policy.
    pub no_valley: bool,
    /// Write the full trace here.
    pub trace_out: Option<String>,
    /// Print the state classification.
    pub states: bool,
    /// Protocol knobs (WRATE, loop avoidance, reuse quantisation).
    pub protocol: ProtocolOptions,
    /// Observability request: `None` off, `Some(None)` on at the
    /// default destination, `Some(Some(path))` on at `path`.
    pub obs: Option<Option<PathBuf>>,
}

/// The flags of `rfd run` (and of every command that embeds a run).
#[rustfmt::skip]
pub const RUN: Table = Table { command: "rfd run", base: None, flags: &[
    Flag::value("--topology", "KIND:SIZE", "topology (default mesh:10x10)"),
    Flag::value("--isp", "N", "ISP node index (default: seeded random pick)"),
    Flag::value("--pulses", "N", "number of pulses (default 1)"),
    Flag::value("--interval", "SECS", "gap between flap events (default 60)"),
    Flag::value("--seed", "N", "master seed (default 1)"),
    Flag::value("--damping", "off|cisco|juniper|ripe229", "Table 1 preset (default cisco)"),
    Flag::value("--filter", "plain|rcn|selective", "penalty filter (default plain)"),
    Flag::value("--policy", "shortest|novalley", "routing policy (default shortest)"),
    Flag::value("--trace", "FILE", "write the full event trace to FILE"),
    Flag::switch("--states", "print the charging/suppression/releasing spans"),
    Flag::switch("--wrate", "pace withdrawals with MRAI too"),
    Flag::switch("--no-loop-avoidance", "turn sender-side loop avoidance off"),
    Flag::value("--reuse-granularity", "SECS", "quantise reuse timers to SECS ticks"),
    OBS,
] };

/// The Table 1 presets by CLI name (`rfd intended` takes the first two).
fn presets() -> [(&'static str, DampingParams); 3] {
    [
        ("cisco", DampingParams::cisco()),
        ("juniper", DampingParams::juniper()),
        ("ripe229", DampingParams::ripe229_aggressive()),
    ]
}

/// Parses the arguments of `rfd run` (everything after the subcommand)
/// against [`RUN`]; the [`CliError`] names the offending flag.
pub fn parse_run_options(args: &[String]) -> Result<RunOptions, CliError> {
    run_options(&args::parse(&RUN, args)?)
}

/// Reads the [`RUN`] flags of any table that embeds them.
fn run_options(p: &Parsed<'_>) -> Result<RunOptions, CliError> {
    let [cisco, juniper, ripe229] = presets().map(|(name, params)| (name, Some(params)));
    let filters = [
        ("plain", PenaltyFilter::Plain),
        ("rcn", PenaltyFilter::Rcn),
        ("selective", PenaltyFilter::Selective),
    ];
    let opts = RunOptions {
        topology: match p.get("--topology") {
            Some(spec) => TopologySpec::parse(spec)?,
            None => TopologySpec::Mesh(10, 10),
        },
        isp: p.parse("--isp")?,
        pulses: p.parse("--pulses")?.unwrap_or(1),
        interval: p
            .positive_secs("--interval")?
            .unwrap_or(SimDuration::from_secs(60)),
        seed: p.parse("--seed")?.unwrap_or(1),
        damping: p
            .one_of("--damping", &[("off", None), cisco, juniper, ripe229])?
            .unwrap_or(cisco.1),
        filter: p
            .one_of("--filter", &filters)?
            .unwrap_or(PenaltyFilter::Plain),
        no_valley: p.one_of("--policy", &[("shortest", false), ("novalley", true)])? == Some(true),
        trace_out: p.get("--trace").map(str::to_owned),
        states: p.has("--states"),
        protocol: ProtocolOptions {
            withdrawal_pacing: p.has("--wrate"),
            sender_side_loop_avoidance: !p.has("--no-loop-avoidance"),
            reuse_granularity: p.positive_secs("--reuse-granularity")?,
        },
        obs: obs(p),
    };
    if opts.filter != PenaltyFilter::Plain && opts.damping.is_none() {
        return Err(CliError(
            "--filter rcn|selective requires damping to be enabled".into(),
        ));
    }
    Ok(opts)
}

/// A parsed `rfd explain` invocation: a normal run, replayed with the
/// damping ledger focused on one (peer, prefix) key.
#[derive(Debug, Clone)]
pub struct ExplainCommand {
    /// The run to replay (same flags as `rfd run`).
    pub run: RunOptions,
    /// Peer whose damping entries to audit (`None` = the origin AS,
    /// resolved once the network is built).
    pub peer: Option<u32>,
    /// Prefix id to audit (the paper's workloads use prefix 0).
    pub prefix: u32,
    /// Restrict the timeline to this observing router.
    pub node: Option<u32>,
    /// Emit machine-readable JSON instead of the human timeline.
    pub json: bool,
}

/// The flags of `rfd explain`: the audited key plus every [`RUN`] flag
/// (the replayed run must be describable exactly).
#[rustfmt::skip]
pub const EXPLAIN: Table = Table { command: "rfd explain", base: Some(&RUN), flags: &[
    Flag::value("--peer", "N", "peer whose entry to audit (default: origin AS)"),
    Flag::value("--prefix", "N", "prefix id to audit (default 0)"),
    Flag::value("--node", "N", "only this observing router's records"),
    Flag::switch("--json", "machine-readable JSON instead of the timeline"),
] };

/// Parses the arguments of `rfd explain` against [`EXPLAIN`]; the
/// [`CliError`] names the offending flag.
pub fn parse_explain_command(args: &[String]) -> Result<ExplainCommand, CliError> {
    let p = args::parse(&EXPLAIN, args)?;
    Ok(ExplainCommand {
        run: run_options(&p)?,
        peer: p.parse("--peer")?,
        prefix: p.parse("--prefix")?.unwrap_or(0),
        node: p.parse("--node")?,
        json: p.has("--json"),
    })
}

/// A parsed `rfd sweep` invocation.
#[derive(Debug, Clone)]
pub struct SweepCommand {
    /// Which figure to regenerate.
    pub figure: SweepFigure,
    /// Grid axes and execution options (threads, journal, resume).
    pub opts: SweepOptions,
    /// `--quick`: lower defaults (5 pulses, seed 1); Figure 15 also runs
    /// on a 60-node graph.
    pub quick: bool,
    /// Observability request: `None` off, `Some(None)` on at the
    /// default destination, `Some(Some(path))` on at `path`.
    pub obs: Option<Option<PathBuf>>,
}

/// Maps a `--topology` spec onto a sweep-capable [`TopologyKind`]: only
/// the paper's two families run whole pulse grids, so torus/mesh and
/// ba/internet are accepted and the micro-topology gallery is not.
fn sweep_topology(spec: &TopologySpec) -> Result<TopologyKind, CliError> {
    match *spec {
        TopologySpec::Mesh(width, height) => Ok(TopologyKind::Mesh { width, height }),
        TopologySpec::Internet(nodes) => Ok(TopologyKind::Internet { nodes, m: 2 }),
        _ => Err(CliError(
            "sweep topologies are torus:RxC (mesh:WxH) or ba:N (internet:N)".into(),
        )),
    }
}

/// The flags of `rfd sweep`: the grid's axes plus the [`EXEC`] flags
/// of `rfd figure`.
#[rustfmt::skip]
pub const SWEEP: Table = Table { command: "rfd sweep", base: Some(&EXEC), flags: &[
    Flag::value("--figure", "fig8-9|fig13-14|fig15", "grid to run (default fig8-9)"),
    Flag::value("--max-pulses", "N", "largest pulse count (default 10)"),
    Flag::value("--seeds", "A,B,C", "seeds averaged per point (default 1,2,3)"),
    Flag::switch("--no-journal", "do not journal cells under results/"),
    Flag::value("--topology", "torus:RxC|ba:N", "run every series on this topology"),
] };

/// Parses the arguments of `rfd sweep` against [`SWEEP`]; the
/// [`CliError`] names the offending flag.
pub fn parse_sweep_command(args: &[String]) -> Result<SweepCommand, CliError> {
    let p = args::parse(&SWEEP, args)?;
    let exec = exec_flags(&p)?;
    let figure = p.one_of("--figure", &SweepFigure::ALL.map(|f| (f.name(), f)))?;
    let seeds = match p.get("--seeds") {
        Some(list) => list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse()
                    .map_err(|_| CliError(format!("bad seed `{s}` in --seeds")))
            })
            .collect::<Result<Vec<u64>, _>>()?,
        None => exec.opts.seeds,
    };
    Ok(SweepCommand {
        figure: figure.unwrap_or(SweepFigure::Fig8_9),
        quick: exec.quick,
        obs: exec.obs,
        opts: SweepOptions {
            max_pulses: p.parse("--max-pulses")?.unwrap_or(exec.opts.max_pulses),
            seeds,
            journal_dir: exec.opts.journal_dir.filter(|_| !p.has("--no-journal")),
            topology: p
                .get("--topology")
                .map(|spec| sweep_topology(&TopologySpec::parse(spec)?))
                .transpose()?,
            ..exec.opts
        },
    })
}

/// Parses `rfd figure NAME` plus its [`EXEC`] flags into the
/// artefact's name (one of [`figure::names`]) and the flags; the
/// [`CliError`] names an unknown figure, pointing a pulse-grid figure
/// at `rfd sweep`, or the offending flag.
pub fn parse_figure_command(args: &[String]) -> Result<(&'static str, Exec), CliError> {
    let names = figure::names().collect::<Vec<_>>().join("|");
    let (name, rest) = args
        .split_first()
        .ok_or_else(|| CliError(format!("figure needs a NAME ({names})")))?;
    let grid = SweepFigure::ALL
        .into_iter()
        .find(|g| g.csv_names().contains(&name.as_str()));
    let unknown = || match grid {
        Some(grid) => CliError(format!(
            "`{name}` is a pulse grid: run `rfd sweep --figure {}`",
            grid.name()
        )),
        None => CliError(format!("unknown figure `{name}` ({names})")),
    };
    let name = figure::names().find(|n| n == name).ok_or_else(unknown)?;
    Ok((name, exec_flags(&args::parse(&EXEC, rest)?)?))
}

/// Output format of the `rfd firehose` report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReportFormat {
    /// `section,field,value` CSV rows.
    Csv,
    /// One JSON object.
    Json,
}

/// A parsed `rfd firehose` invocation.
#[derive(Debug, Clone)]
pub struct FirehoseCommand {
    /// Engine configuration (workload, shards, params).
    pub config: rfd_firehose::FirehoseConfig,
    /// How the report is printed on stdout.
    pub format: ReportFormat,
}

/// The flags of `rfd firehose`.
#[rustfmt::skip]
pub const FIREHOSE: Table = Table { command: "rfd firehose", base: None, flags: &[
    Flag::value("--peers", "N", "peers in the key space (default 16)"),
    Flag::value("--prefixes", "N", "prefixes per peer (default 1024)"),
    Flag::value("--rate", "R", "updates per simulated second (default 200)"),
    Flag::value("--duration", "SIM_SECS", "simulated seconds to stream (default 3600)"),
    Flag::value("--workload", "poisson|flap-storm", "update mix (default flap-storm)"),
    Flag::value("--seed", "N", "workload seed (default 1)"),
    Flag::value("--shards", "N", "damping shards (default 1)"),
    Flag::value("--params", "cisco|juniper|ripe229", "damping preset (default cisco)"),
    Flag::value("--queue-capacity", "N", "per-shard ingest queue bound"),
    Flag::value("--reuse-tick", "SIM_SECS", "reuse-list tick (default 10)"),
    Flag::value("--evict-every", "TICKS", "sweep decayed entries every TICKS (default 30)"),
    Flag::value("--decay", "exact|bucketed", "penalty decay arithmetic (default exact)"),
    Flag::value("--format", "csv|json", "report format on stdout (default csv)"),
] };

/// Parses the arguments of `rfd firehose` against [`FIREHOSE`]; the
/// [`CliError`] names the offending flag, or is the engine's own
/// refusal of the resulting config.
pub fn parse_firehose_command(args: &[String]) -> Result<FirehoseCommand, CliError> {
    use rfd_firehose::{FirehoseConfig, WorkloadKind, WorkloadSpec};
    let p = args::parse(&FIREHOSE, args)?;
    let mut config = FirehoseConfig::new(WorkloadSpec {
        peers: p.parse("--peers")?.unwrap_or(16),
        prefixes: p.parse("--prefixes")?.unwrap_or(1024),
        rate: p.parse("--rate")?.unwrap_or(200.0),
        duration: p
            .positive_secs("--duration")?
            .unwrap_or(SimDuration::from_secs(3600)),
        kind: match p.get("--workload") {
            Some(name) => WorkloadKind::parse(name).map_err(CliError)?,
            None => WorkloadKind::FlapStorm,
        },
        seed: p.parse("--seed")?.unwrap_or(1),
    });
    config.shards = p.parse("--shards")?.unwrap_or(config.shards);
    config.params = p.one_of("--params", &presets())?.unwrap_or(config.params);
    config.queue_capacity = p
        .parse("--queue-capacity")?
        .unwrap_or(config.queue_capacity);
    config.reuse_tick = p
        .positive_secs("--reuse-tick")?
        .unwrap_or(config.reuse_tick);
    config.evict_every = p.parse("--evict-every")?.unwrap_or(config.evict_every);
    let decay = [
        ("exact", rfd_core::DecayMode::Exact),
        ("bucketed", rfd_core::DecayMode::Bucketed),
    ];
    config.decay = p.one_of("--decay", &decay)?.unwrap_or(config.decay);
    config.validate().map_err(CliError)?;
    let format = [("csv", ReportFormat::Csv), ("json", ReportFormat::Json)];
    Ok(FirehoseCommand {
        config,
        format: p.one_of("--format", &format)?.unwrap_or(ReportFormat::Csv),
    })
}

/// The flags of `rfd intended`.
#[rustfmt::skip]
pub const INTENDED: Table = Table { command: "rfd intended", base: None, flags: &[
    Flag::value("--pulses", "N", "number of pulses (default 3)"),
    Flag::value("--interval", "SECS", "gap between flap events (default 60)"),
    Flag::value("--params", "cisco|juniper", "damping preset (default cisco)"),
] };

/// Parses the arguments of `rfd intended` against [`INTENDED`] into
/// (pulses, interval, preset); the [`CliError`] names the offending flag.
pub fn parse_intended_command(
    args: &[String],
) -> Result<(usize, SimDuration, DampingParams), CliError> {
    let p = args::parse(&INTENDED, args)?;
    let [cisco, juniper, _] = presets();
    Ok((
        p.parse("--pulses")?.unwrap_or(3),
        p.positive_secs("--interval")?
            .unwrap_or(SimDuration::from_secs(60)),
        p.one_of("--params", &[cisco, juniper])?.unwrap_or(cisco.1),
    ))
}

/// The flags of `rfd topology`.
#[rustfmt::skip]
pub const TOPOLOGY: Table = Table { command: "rfd topology", base: None, flags: &[
    Flag::value("--kind", "KIND:SIZE", "the graph to generate").required(),
    Flag::value("--seed", "N", "seed for internet/ba graphs (default 1)"),
    Flag::value("--out", "FILE", "write the edge list to FILE, not stdout"),
] };

/// Parses the arguments of `rfd topology` against [`TOPOLOGY`] into
/// (graph, seed, output file); the [`CliError`] names the offending flag.
pub fn parse_topology_command(
    args: &[String],
) -> Result<(TopologySpec, u64, Option<String>), CliError> {
    let p = args::parse(&TOPOLOGY, args)?;
    Ok((
        TopologySpec::parse(p.get("--kind").expect("required by the table"))?,
        p.parse("--seed")?.unwrap_or(1),
        p.get("--out").map(str::to_owned),
    ))
}

/// Builds the [`NetworkConfig`] for parsed run options against a built
/// graph.
pub fn network_config(opts: &RunOptions, graph: &Graph) -> NetworkConfig {
    NetworkConfig {
        seed: opts.seed,
        protocol: opts.protocol,
        damping: match opts.damping {
            Some(p) => DampingDeployment::Full(p),
            None => DampingDeployment::Off,
        },
        filter: opts.filter,
        policy: if opts.no_valley {
            Policy::NoValley(infer_relationships(graph))
        } else {
            Policy::ShortestPath
        },
        ..NetworkConfig::default()
    }
}

const fn flagless(command: &'static str) -> Table {
    Table {
        command,
        base: None,
        flags: &[],
    }
}

/// Every command line this workspace accepts, in `rfd help` order.
#[rustfmt::skip]
pub const TABLES: [&Table; 10] = [
    &RUN, &EXPLAIN, &EXEC, &SWEEP, &FIREHOSE, &INTENDED, &TOPOLOGY, &flagless("rfd trace-stats FILE"),
    &flagless("rfd obs-report FILE"), &flagless("rfd help"),
];

/// The top-level usage text: [`TABLES`] rendered, then the notes.
pub fn usage() -> String {
    format!(
        "rfd — route flap damping simulator (reproduction of ICDCS 2005)\n\nUSAGE:\n{}\n{NOTES}",
        render_usage(&TABLES)
    )
}

const NOTES: &str = "\
FIGURES: NAME is table1 fig3 fig4 fig7 fig10 extensions sweeps link_failure
  knobs, or all: every CSV, the three sweeps' included, none on stdout.
  CSVs and journals go under results/ (or $RFD_RESULTS_DIR).
TOPOLOGIES: mesh:10x10 (alias torus:10x10), internet:100 (alias ba:100),
  ring:8, line:5, clique:6
EXPLAIN: replays a run with the timer-interaction ledger focused on
  one (peer, prefix) entry and prints its damping lifecycle — charges,
  threshold crossings, reuse-timer arms/deferrals, MRAI holds.
  `--peer` defaults to the origin AS; `--json` for machine output.
OBSERVABILITY: --obs records spans/counters to a
  Chrome-trace JSON under results/; inspect with `rfd obs-report` or
  load into Perfetto (ui.perfetto.dev).
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    /// Asserts that `parse` refuses every `|`-separated command line.
    fn all_rejected<T>(parse: fn(&[String]) -> Result<T, CliError>, lines: &str) {
        for line in lines.split('|') {
            assert!(parse(&args(line)).is_err(), "`{line}` must be rejected");
        }
    }

    /// Every flag of every table: shown in `rfd help` (and nothing else
    /// is), accepted as `--flag value` and as `--flag=value`, and named
    /// by its own missing-value error.
    #[test]
    fn every_flag_of_every_table_renders_and_parses_in_both_spellings() {
        use rfd_experiments::args::Takes;
        let help = usage();
        for (table, flag) in TABLES
            .iter()
            .flat_map(|t| t.all_flags().map(move |f| (t, f)))
        {
            let name = flag.name;
            let rows = table.all_flags().filter(|f| f.name == name).count();
            assert_eq!(rows, 1, "{name} in `{}`", table.command);
            let shown = help.lines().any(|l| l.trim_start().starts_with(name));
            assert!(shown, "{name} in the rendered usage");
            // Each line also carries the table's other required flags.
            let got = |tokens: &[&str]| {
                let needed = table.all_flags().filter(|f| f.required && f.name != name);
                let needed = needed.map(|f| format!("{}=v", f.name));
                let line: Vec<String> =
                    needed.chain(tokens.iter().map(|t| t.to_string())).collect();
                args::parse(table, &line).map(|p| p.get(name).map(str::to_owned))
            };
            let v = Ok(Some("v".to_owned()));
            let joined = got(&[&format!("{name}=v")]);
            match flag.takes {
                Takes::Value(_) => {
                    assert_eq!((got(&[name, "v"]), joined), (v.clone(), v));
                    let missing = CliError(format!("{name} needs a value"));
                    assert_eq!(got(&[name]), Err(missing));
                }
                Takes::OptionalEq(_) => assert_eq!((got(&[name]), joined), (Ok(None), v)),
                Takes::Nothing => {
                    assert_eq!(got(&[name]), Ok(None));
                    assert!(joined.unwrap_err().0.starts_with(name));
                }
            }
        }
        assert_eq!(help.lines().find(|l| l.chars().count() > 80), None);
        let declared = |w: &str| TABLES.iter().any(|t| t.all_flags().any(|f| f.name == w));
        for word in help.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
            let flag_like = word.starts_with("--");
            assert!(
                !flag_like || declared(word),
                "`rfd help` shows undeclared {word}"
            );
        }
    }

    /// ISSUE 14's hostile seconds: every seconds-valued flag refuses
    /// them by name (three of these lines panicked before).
    #[test]
    fn seconds_valued_flags_refuse_unrepresentable_values() {
        for secs in ["-1", "0", "1e300", "NaN", "inf", "1e-9"] {
            let refused = |result: Result<(), CliError>, flag: &str| {
                let err = result.unwrap_err().0;
                assert!(err.contains(flag) && err.contains(secs), "{err}");
            };
            for flag in ["--interval", "--reuse-granularity"] {
                let line = args(&format!("{flag} {secs}"));
                refused(parse_run_options(&line).map(drop), flag);
            }
            for flag in ["--duration", "--reuse-tick"] {
                let line = args(&format!("{flag} {secs}"));
                refused(parse_firehose_command(&line).map(drop), flag);
            }
            let line = args(&format!("--interval {secs}"));
            refused(parse_intended_command(&line).map(drop), "--interval");
        }
    }

    #[test]
    fn intended_and_topology_commands_parse() {
        let cmd = parse_intended_command(&args("--pulses 5 --interval 30 --params juniper"));
        let thirty = SimDuration::from_secs(30);
        assert_eq!(cmd, Ok((5, thirty, DampingParams::juniper())));
        assert_eq!(parse_intended_command(&[]).unwrap().0, 3);
        all_rejected(
            parse_intended_command,
            "--params ripe229 | --pulses x | --bogus",
        );

        let cmd = parse_topology_command(&args("--kind ring:6 --seed 4 --out g.txt"));
        assert_eq!(cmd, Ok((TopologySpec::Ring(6), 4, Some("g.txt".into()))));
        all_rejected(parse_topology_command, " | --kind blob:3 | --seed 1");
    }

    #[test]
    fn topology_specs_parse() {
        for (spec, parsed) in [
            ("mesh:10x10", TopologySpec::Mesh(10, 10)),
            ("internet:208", TopologySpec::Internet(208)),
            ("ring:8", TopologySpec::Ring(8)),
        ] {
            assert_eq!(TopologySpec::parse(spec), Ok(parsed));
        }
        for bad in ["mesh:10", "blob:3", "mesh"] {
            assert!(TopologySpec::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn topology_aliases_parse() {
        let (torus, ba) = (TopologySpec::Mesh(6, 7), TopologySpec::Internet(2000));
        assert_eq!(TopologySpec::parse("torus:6x7"), Ok(torus));
        assert_eq!(TopologySpec::parse("ba:2000"), Ok(ba));
        assert!(TopologySpec::parse("torus:6").is_err());
    }

    #[test]
    fn sweep_topology_override_parses() {
        let topology = |line| parse_sweep_command(&args(line)).map(|cmd| cmd.opts.topology);
        let (width, height) = (5, 8);
        let torus = TopologyKind::Mesh { width, height };
        assert_eq!(topology("--topology torus:5x8").unwrap(), Some(torus));
        let ba = TopologyKind::Internet { nodes: 500, m: 2 };
        assert_eq!(topology("--topology ba:500").unwrap(), Some(ba));
        assert!(topology("--topology ring:8").is_err());
        assert_eq!(topology("").unwrap(), None);
    }

    #[test]
    fn topology_specs_build() {
        assert_eq!(TopologySpec::Mesh(3, 3).build(1).node_count(), 9);
        assert_eq!(TopologySpec::Internet(20).build(1).node_count(), 20);
        assert_eq!(TopologySpec::Line(4).build(1).link_count(), 3);
        assert_eq!(TopologySpec::Clique(4).build(1).link_count(), 6);
    }

    #[test]
    fn run_options_defaults_and_overrides() {
        let opts = parse_run_options(&args(
            "--topology ring:6 --pulses 3 --seed 9 --damping juniper --filter rcn --states",
        ))
        .unwrap();
        assert_eq!(opts.topology, TopologySpec::Ring(6));
        assert_eq!(opts.pulses, 3);
        assert_eq!(opts.seed, 9);
        assert_eq!(opts.damping, Some(DampingParams::juniper()));
        assert_eq!(opts.filter, PenaltyFilter::Rcn);
        assert!(opts.states);
        assert!(!opts.no_valley);
    }

    #[test]
    fn bad_flags_are_rejected() {
        let lines = "--bogus | --pulses | --pulses x | --interval -5 | --damping never \
                     | --states=yes | stray";
        all_rejected(parse_run_options, lines);
    }

    #[test]
    fn protocol_knob_flags_parse() {
        let opts =
            parse_run_options(&args("--wrate --no-loop-avoidance --reuse-granularity 15")).unwrap();
        assert!(opts.protocol.withdrawal_pacing);
        assert!(!opts.protocol.sender_side_loop_avoidance);
        assert_eq!(
            opts.protocol.reuse_granularity,
            Some(SimDuration::from_secs(15))
        );
        all_rejected(
            parse_run_options,
            "--reuse-granularity nope | --reuse-granularity -2",
        );
    }

    #[test]
    fn explain_command_parses_key_and_run_flags() {
        let cmd = parse_explain_command(&args(
            "--peer 4 --prefix 1 --json --topology line:4 --pulses 3 --seed 7",
        ))
        .unwrap();
        assert_eq!(cmd.peer, Some(4));
        assert_eq!(cmd.prefix, 1);
        assert_eq!(cmd.node, None);
        assert!(cmd.json);
        assert_eq!(cmd.run.topology, TopologySpec::Line(4));
        assert_eq!(cmd.run.pulses, 3);
        assert_eq!(cmd.run.seed, 7);
    }

    #[test]
    fn explain_command_defaults_to_origin_and_prefix_zero() {
        let cmd = parse_explain_command(&args("")).unwrap();
        assert_eq!(cmd.peer, None, "origin is resolved at replay time");
        assert_eq!(cmd.prefix, 0);
        assert!(!cmd.json);
    }

    #[test]
    fn explain_command_rejects_bad_input() {
        all_rejected(
            parse_explain_command,
            "--peer | --peer x | --bogus | --pulses nope",
        );
    }

    #[test]
    fn filter_requires_damping() {
        let e = parse_run_options(&args("--damping off --filter rcn")).unwrap_err();
        assert!(e.to_string().contains("requires damping"));
    }

    #[test]
    fn sweep_command_parses_runner_flags() {
        let cmd = parse_sweep_command(&args(
            "--figure fig13-14 --threads 4 --resume --max-pulses 6 --seeds 1,2,3",
        ))
        .unwrap();
        assert_eq!(cmd.figure, SweepFigure::Fig13_14);
        assert_eq!(cmd.opts.threads, 4);
        assert!(cmd.opts.resume);
        assert_eq!(cmd.opts.max_pulses, 6);
        assert_eq!(cmd.opts.seeds, vec![1, 2, 3]);
        assert_eq!(cmd.opts.journal_dir, Some(PathBuf::from("results")));
        assert!(!cmd.quick);
    }

    #[test]
    fn sweep_command_defaults_and_quick() {
        let cmd = parse_sweep_command(&[]).unwrap();
        assert_eq!(cmd.figure, SweepFigure::Fig8_9);
        assert_eq!(cmd.opts.threads, 0);
        assert!(!cmd.opts.resume);

        let quick = parse_sweep_command(&args("--quick --no-journal")).unwrap();
        assert!(quick.quick);
        assert!(quick.opts.max_pulses <= 5);
        assert_eq!(quick.opts.seeds.len(), 1);
        assert_eq!(quick.opts.journal_dir, None);
    }

    #[test]
    fn obs_flag_parses_in_run_and_sweep() {
        let run = |line| parse_run_options(&args(line)).unwrap().obs;
        let sweep = |line| parse_sweep_command(&args(line)).unwrap().obs;
        let at = |path| Some(Some(PathBuf::from(path)));
        assert_eq!(run(""), None);
        assert_eq!(run("--obs"), Some(None));
        assert_eq!(run("--obs=/tmp/t.trace.json"), at("/tmp/t.trace.json"));
        assert_eq!(sweep("--quick --obs=x.json"), at("x.json"));
        assert_eq!(sweep("--obs"), Some(None));
    }

    #[test]
    fn sweep_command_rejects_bad_input() {
        let lines = "--figure fig99 | --threads many | --seeds 1,x | --seeds | --bogus \
                     | --full-traces | --ledger 24:0";
        all_rejected(parse_sweep_command, lines);
    }

    /// `--resume` is the one fault-tolerance flag; chaos comes only
    /// from `RFD_CHAOS`, never from a flag.
    #[test]
    fn sweep_command_parses_fault_tolerance_flags() {
        let cmd = parse_sweep_command(&args("--quick --resume")).unwrap();
        assert!(cmd.opts.resume);
        assert!(parse_sweep_command(&args("--chaos panic@a|n=1|seed=1")).is_err());
    }

    #[test]
    fn firehose_command_defaults_and_overrides() {
        use rfd_firehose::WorkloadKind;
        let cmd = parse_firehose_command(&[]).unwrap();
        assert_eq!(cmd.config.shards, 1);
        assert_eq!(cmd.config.spec.kind, WorkloadKind::FlapStorm);
        assert_eq!(cmd.format, ReportFormat::Csv);
        assert_eq!(cmd.config.reuse_tick, SimDuration::from_secs(10));
        assert_eq!(cmd.config.evict_every, 30);
        assert_eq!(cmd.config.decay, rfd_core::DecayMode::Exact);

        let cmd = parse_firehose_command(&args(
            "--peers 8 --prefixes 64 --rate 50 --duration 600 --workload poisson \
             --seed 9 --shards 4 --params juniper --queue-capacity 32 \
             --reuse-tick 5 --evict-every 12 --decay bucketed --format json",
        ))
        .unwrap();
        assert_eq!(cmd.config.reuse_tick, SimDuration::from_secs(5));
        assert_eq!(cmd.config.evict_every, 12);
        assert_eq!(cmd.config.decay, rfd_core::DecayMode::Bucketed);
        assert_eq!(cmd.config.spec.peers, 8);
        assert_eq!(cmd.config.spec.prefixes, 64);
        assert_eq!(cmd.config.spec.rate, 50.0);
        assert_eq!(cmd.config.spec.duration, SimDuration::from_secs(600));
        assert_eq!(cmd.config.spec.kind, WorkloadKind::Poisson);
        assert_eq!(cmd.config.spec.seed, 9);
        assert_eq!(cmd.config.shards, 4);
        assert_eq!(cmd.config.params, DampingParams::juniper());
        assert_eq!(cmd.config.queue_capacity, 32);
        assert_eq!(cmd.format, ReportFormat::Json);
    }

    #[test]
    fn firehose_command_rejects_bad_input() {
        // `--peers 0` parses and then fails engine validation.
        let lines = "--bogus | --peers | --peers many | --peers 0 | --peers 4294967297 \
                     | --workload tsunami | --duration -3 | --shards 0 | --params never \
                     | --format yaml | --chaos panic@shard0 | --reuse-tick 0 \
                     | --reuse-tick soon | --evict-every 0 | --decay fuzzy";
        all_rejected(parse_firehose_command, lines);
    }

    #[test]
    fn config_construction() {
        let opts = parse_run_options(&args("--topology internet:30 --policy novalley")).unwrap();
        let graph = opts.topology.build(opts.seed);
        let config = network_config(&opts, &graph);
        assert!(config.policy.is_no_valley());
        config.validate().unwrap();
    }
}
