//! `rfd` — command-line front end for the route-flap-damping
//! reproduction: run workloads, regenerate the paper's tables and
//! figures, evaluate the intended-behaviour model, generate topologies.

use std::process::ExitCode;

use route_flap_damping::bgp::RunReport;
use route_flap_damping::cli::{
    parse_explain_command, parse_figure_command, parse_firehose_command, parse_intended_command,
    parse_run_options, parse_sweep_command, parse_topology_command, usage, CliError, ReportFormat,
    RunPlan,
};
use route_flap_damping::damping::{intended_behavior, FlapPattern};
use route_flap_damping::experiments::output::{chaos_from_env, obs_begin};
use route_flap_damping::metrics::{
    export_trace, StateClassifier, StateSpan, SuppressionStats, Trace,
};
use route_flap_damping::sim::SimDuration;
use route_flap_damping::topology::to_edge_list;
use route_flap_damping::{explain, figure};

fn main() -> ExitCode {
    // Lossy, not `args()`: a non-UTF-8 argument must reach the flag
    // tables and be refused by name, not panic here.
    let args: Vec<String> = std::env::args_os()
        .skip(1)
        .map(|a| a.to_string_lossy().into_owned())
        .collect();
    let Some((command, rest)) = args.split_first() else {
        print!("{}", usage());
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "run" => cmd_run(rest),
        "explain" => cmd_explain(rest),
        "figure" => cmd_figure(rest),
        "sweep" => cmd_sweep(rest),
        "firehose" => cmd_firehose(rest),
        "intended" => cmd_intended(rest),
        "topology" => cmd_topology(rest),
        "trace-stats" => cmd_trace_stats(rest),
        "obs-report" => cmd_obs_report(rest),
        "help" | "--help" | "-h" => {
            print!("{}", usage());
            Ok(())
        }
        other => Err(CliError(format!("unknown command `{other}`\n\n{}", usage())).into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            // A command line the flag tables refuse exits 2; a run that
            // failed exits 1.
            if e.is::<CliError>() {
                ExitCode::from(2)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

type CmdResult = Result<(), Box<dyn std::error::Error>>;

fn cmd_run(args: &[String]) -> CmdResult {
    let opts = parse_run_options(args)?;
    let plan = RunPlan::new(&opts)?;
    let _obs = obs_begin(&opts.obs, "run");
    println!(
        "topology {} nodes / {} links, ISP {}, {} pulses at {:.0} s, damping {}",
        plan.graph.node_count(),
        plan.graph.link_count(),
        plan.isp,
        opts.pulses,
        opts.interval.as_secs_f64(),
        match (&opts.damping, opts.filter) {
            (None, _) => "off".to_owned(),
            (Some(_), f) => format!("on ({f:?})"),
        },
    );
    let summary = |report: &RunReport,
                   suppressed: usize,
                   (noisy, silent): (usize, usize),
                   peak: f64| {
        println!(
            "converged {:.1} s after the final announcement; {} updates observed",
            report.convergence_time.as_secs_f64(),
            report.message_count
        );
        println!(
            "{suppressed} entries suppressed; reuse timers: {noisy} noisy / {silent} silent; peak penalty {peak:.0}",
        );
    };
    // Only buffer the full event history when something downstream
    // (state spans, `--trace`) actually scans it; a plain run streams
    // into an O(1)-space aggregate sink.
    if opts.trace_out.is_none() && !opts.states {
        let (report, net, ()) = plan.execute(SuppressionStats::new(), |_| Ok(()))?;
        let stats = net.into_sink();
        summary(
            &report,
            stats.ever_suppressed_entries(),
            stats.reuse_counts(),
            stats.peak_penalty(),
        );
        return Ok(());
    }
    let (report, net, ()) = plan.execute(Trace::new(), |_| Ok(()))?;
    let trace = net.into_sink();
    summary(
        &report,
        trace.ever_suppressed_entries(),
        trace.reuse_counts(),
        trace.peak_penalty(),
    );
    if opts.states {
        println!();
        print_states(&trace, &StateClassifier::default().classify(&trace));
    }
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, export_trace(&trace))
            .map_err(|e| format!("cannot write trace file {path}: {e}"))?;
        println!("trace written to {path} ({} events)", trace.len());
    }
    Ok(())
}

fn cmd_explain(args: &[String]) -> CmdResult {
    let cmd = parse_explain_command(args)?;
    let report = explain::replay(&cmd)?;
    // Narrative goes to stderr so `--json` leaves a pure document on
    // stdout (golden diffs, jq).
    eprintln!(
        "replayed {} pulses on {} nodes (seed {}); {} ledger records for (peer {}, prefix {})",
        report.pulses,
        report.nodes,
        report.seed,
        report.records.len(),
        report.peer,
        report.prefix
    );
    if cmd.json {
        print!("{}", explain::render_json(&report));
    } else {
        print!("{}", explain::render_timeline(&report));
    }
    Ok(())
}

fn cmd_figure(args: &[String]) -> CmdResult {
    let (name, mut exec) = parse_figure_command(args)?;
    exec.opts.chaos = chaos_from_env()?;
    let _obs = obs_begin(&exec.obs, name);
    failed_cells(figure::regenerate(name, exec.quick, exec.opts))
}

fn cmd_sweep(args: &[String]) -> CmdResult {
    let mut cmd = parse_sweep_command(args)?;
    cmd.opts.chaos = chaos_from_env()?;
    let _obs = obs_begin(&cmd.obs, "sweep");
    failed_cells(figure::sweep(cmd.figure, cmd.quick, cmd.opts))
}

/// Failed grid cells fail the command once every table is out: the CSVs
/// mark them FAILED, and `--resume` re-runs only them.
fn failed_cells(failed: usize) -> CmdResult {
    match failed {
        0 => Ok(()),
        n => Err(
            format!("{n} sweep cell(s) failed — CSV marks them FAILED; re-run with --resume")
                .into(),
        ),
    }
}

fn cmd_firehose(args: &[String]) -> CmdResult {
    let cmd = parse_firehose_command(args)?;
    // Narrative on stderr; stdout carries only the report so
    // `rfd firehose … > report.csv` stays machine-parseable.
    eprintln!(
        "firehose: {} workload, {} peers × {} prefixes, {:.0} updates/sim-s \
         for {:.0} sim-s, {} shard(s), seed {}",
        cmd.config.spec.kind.name(),
        cmd.config.spec.peers,
        cmd.config.spec.prefixes,
        cmd.config.spec.rate,
        cmd.config.spec.duration.as_secs_f64(),
        cmd.config.shards,
        cmd.config.spec.seed,
    );
    let report = route_flap_damping::firehose::run(&cmd.config)?;
    eprintln!(
        "firehose: {} updates in {:.2} s wall ({:.0}/s), p50 {:.0} ns / p99 {:.0} ns per decision",
        report.aggregate.updates,
        report.elapsed_secs,
        report.updates_per_sec,
        report.decision_ns.percentile(50.0),
        report.decision_ns.percentile(99.0),
    );
    match cmd.format {
        ReportFormat::Csv => print!("{}", report.to_csv()),
        ReportFormat::Json => print!("{}", report.to_json()),
    }
    Ok(())
}

fn cmd_intended(args: &[String]) -> CmdResult {
    let (pulses, interval, params) = parse_intended_command(args)?;
    let b = intended_behavior(
        &params,
        FlapPattern::new(pulses, interval),
        SimDuration::ZERO,
    );
    println!(
        "{pulses} pulses at {:.0} s intervals (cut-off {}, reuse {}):",
        interval.as_secs_f64(),
        params.cutoff_threshold(),
        params.reuse_threshold()
    );
    match b.suppression_pulse {
        Some(p) => println!("  suppression triggered at pulse {p}"),
        None => println!("  suppression never triggered"),
    }
    println!("  final penalty {:.1}", b.final_penalty);
    println!(
        "  reuse delay after the final announcement: {:.1} s",
        b.reuse_delay.as_secs_f64()
    );
    Ok(())
}

fn cmd_trace_stats(args: &[String]) -> CmdResult {
    let path = args.first().ok_or("trace-stats needs a trace file")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read trace file {path}: {e}"))?;
    let trace = route_flap_damping::metrics::parse_trace(&text)?;
    println!("{} events", trace.len());
    println!(
        "messages: {} (convergence {:.1} s after the final announcement)",
        trace.message_count(),
        trace.convergence_time().as_secs_f64()
    );
    let (noisy, silent) = trace.reuse_counts();
    println!(
        "suppression: {} entries ever suppressed; reuses {} noisy / {} silent; peak penalty {:.0}",
        trace.ever_suppressed_entries(),
        noisy,
        silent,
        trace.peak_penalty()
    );
    let spans = StateClassifier::default().classify(&trace);
    if !spans.is_empty() {
        print_states(&trace, &spans);
    }
    Ok(())
}

/// Prints the charging/suppression/releasing spans of a trace, in
/// seconds since its first flap.
fn print_states(trace: &Trace, spans: &[StateSpan]) {
    println!("states:");
    let start = trace.first_flap_at();
    for span in spans {
        let rel = |t: route_flap_damping::sim::SimTime| {
            start.map_or(0.0, |s| t.saturating_since(s).as_secs_f64())
        };
        println!(
            "  {:<12} {:>8.0} s → {:>8.0} s",
            span.state.to_string(),
            rel(span.from),
            rel(span.to)
        );
    }
}

fn cmd_obs_report(args: &[String]) -> CmdResult {
    let path = args.first().ok_or("obs-report needs an obs trace file")?;
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read obs trace {path}: {e}"))?;
    let report =
        route_flap_damping::obs::render_report(&text).map_err(|e| format!("{path}: {e}"))?;
    print!("{report}");
    Ok(())
}

fn cmd_topology(args: &[String]) -> CmdResult {
    let (kind, seed, out) = parse_topology_command(args)?;
    let graph = kind.build(seed);
    let text = to_edge_list(&graph);
    match out {
        Some(path) => {
            std::fs::write(&path, &text)
                .map_err(|e| format!("cannot write topology file {path}: {e}"))?;
            println!(
                "{} nodes / {} links written to {path}",
                graph.node_count(),
                graph.link_count()
            );
        }
        None => print!("{text}"),
    }
    Ok(())
}
