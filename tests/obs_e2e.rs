//! End-to-end contract of the observability layer: recording must not
//! perturb simulation results (byte-identical CSV with obs on/off and
//! across thread counts), and an observed sweep must yield a valid
//! Chrome-trace file with spans from every instrumented layer.
//!
//! Everything lives in ONE test: the obs registry is process-global, so
//! parallel tests in this binary would race on enable/reset.

use route_flap_damping::experiments::figures::fig8_9;
use route_flap_damping::experiments::{SweepOptions, TopologyKind};
use route_flap_damping::{bgp, obs, runner, topology};

fn opts(threads: usize) -> SweepOptions {
    SweepOptions {
        threads,
        max_pulses: 3,
        seeds: vec![1],
        ..SweepOptions::quick()
    }
}

#[test]
fn obs_and_threads_do_not_perturb_results_and_trace_is_valid() {
    let mesh = TopologyKind::Mesh {
        width: 4,
        height: 4,
    };
    let internet = TopologyKind::Internet { nodes: 20, m: 2 };

    // Reference: observability off, single thread.
    obs::reset();
    obs::disable();
    let reference = fig8_9::figure8_9_on(&opts(1), mesh, internet);
    let ref_convergence = reference.convergence_table().to_csv();
    let ref_messages = reference.message_table().to_csv();

    // Observed: recording on, two threads. Results must not move by a
    // single byte — obs only watches, it never feeds back.
    obs::reset();
    obs::enable();
    let observed = fig8_9::figure8_9_on(&opts(2), mesh, internet);
    let trace = obs::render_trace();
    obs::disable();
    obs::reset();
    assert_eq!(
        observed.convergence_table().to_csv(),
        ref_convergence,
        "convergence CSV must be byte-identical with obs on and 2 threads"
    );
    assert_eq!(
        observed.message_table().to_csv(),
        ref_messages,
        "message CSV must be byte-identical with obs on and 2 threads"
    );

    // The trace parses as JSON and carries spans from all four
    // instrumented layers: sim engine, BGP network, damper, runner.
    let value = obs::json::parse(&trace).expect("trace is valid JSON");
    let events = value
        .get("traceEvents")
        .and_then(|e| e.as_array())
        .expect("traceEvents array");
    assert!(!events.is_empty(), "traceEvents must not be empty");
    let names: std::collections::BTreeSet<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(|n| n.as_str()))
        .collect();
    for layer_span in ["sim.run", "bgp.warmup", "damper.charge", "runner.cell"] {
        assert!(
            names.contains(layer_span),
            "trace missing span {layer_span}; saw {names:?}"
        );
    }
    let counters = value
        .get("counters")
        .and_then(|c| c.as_object())
        .expect("counters section");
    assert!(counters.contains_key("sim.events"));
    assert!(counters.contains_key("bgp.decisions"));
    assert!(counters.contains_key("damper.charges"));
    assert!(counters.contains_key("runner.cells_completed"));
    let histograms = value
        .get("histograms")
        .and_then(|h| h.as_object())
        .expect("histograms section");
    assert!(histograms.contains_key("runner.cell_us"));

    // The same file pretty-prints through the report path.
    let report = obs::render_report(&trace).expect("report renders");
    assert!(report.contains("sim.run"));
    assert!(report.contains("counters:"));

    // Chaos section: supervised-cell fault counters. A panic plan on
    // one cell yields exactly one panic and one failure.
    obs::reset();
    obs::enable();
    let victim = "Full Damping (simulation, mesh)|n=2|seed=1";
    let chaotic = fig8_9::figure8_9_on(
        &SweepOptions {
            chaos: runner::ChaosPlan::parse(&format!("panic@{victim}")).unwrap(),
            ..opts(2)
        },
        mesh,
        internet,
    );
    assert_eq!(chaotic.failures.len(), 1);
    let trace = obs::render_trace();
    obs::disable();
    obs::reset();
    let value = obs::json::parse(&trace).expect("chaos trace is valid JSON");
    let counters = value
        .get("counters")
        .and_then(|c| c.as_object())
        .expect("counters section");
    let counter = |name: &str| {
        counters
            .get(name)
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("counter {name} missing; saw {:?}", counters.keys()))
    };
    assert_eq!(counter("runner.cell.panics"), 1.0);
    assert_eq!(counter("runner.cell.failures"), 1.0);

    // `bgp.intern.bytes` adds each new path's growth: a table's `stats().bytes`.
    obs::reset();
    obs::enable();
    let mut table = bgp::PathTable::new();
    let origin = table.originate(topology::NodeId::new(0));
    for fan in 1..200 {
        table.prepend(origin, topology::NodeId::new(fan));
    }
    let counted = obs::counter("bgp.intern.bytes").get();
    obs::disable();
    obs::reset();
    assert_eq!(counted, table.stats().bytes as u64);
}
