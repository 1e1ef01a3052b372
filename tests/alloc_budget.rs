//! The allocation budgets of building, running and forking a network.
//!
//! A build allocates per table, not per wheel slot or per router list;
//! after warm-up, handling a BGP update (or forking a pulse chain)
//! should touch the allocator only when a buffer kept for the whole run
//! grows. This file holds exactly one `#[test]`: the counter below is
//! process-wide, and a sibling test on another thread would count too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use route_flap_damping::bgp::{Network, NetworkConfig, PulseChain, LEAD_IN};
use route_flap_damping::damping::FlapPattern;
use route_flap_damping::experiments::{pick_isp, TopologyKind};
use route_flap_damping::metrics::{NullSink, SuppressionStats};
use route_flap_damping::sim::RunOutcome;
use route_flap_damping::topology::{mesh_torus, NodeId};

// Relaxed: a statistic that publishes no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocator calls per BGP update over the measured phase of a 12x12
/// torus, full Cisco damping, 3 pulses, nothing retained.
fn allocs_per_update() -> f64 {
    let graph = mesh_torus(12, 12);
    let config = NetworkConfig::paper_full_damping(7);
    let mut net = Network::new_with_sink(&graph, NodeId::new(0), config, NullSink::new());
    net.warm_up();
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = net.run_pulses(FlapPattern::paper_default(3), LEAD_IN);
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(report.outcome, RunOutcome::Quiescent);
    assert!(
        report.message_count > 1_000,
        "{} updates",
        report.message_count
    );
    allocs as f64 / report.message_count as f64
}

#[test]
fn steady_state_event_path_stays_off_the_allocator() {
    // Measured: 463 calls for the 101 routers of the Fig. 8 mesh, damped
    // (seed 1): a link table, two RIB tables and a damper row array per
    // router. A per-peer, per-column or per-wheel-slot vector would add
    // one per router or hundreds per warm-up (1,381 when there were).
    let graph = TopologyKind::PAPER_MESH.build(1);
    let config = NetworkConfig::paper_full_damping(1);
    let before = ALLOCS.load(Ordering::Relaxed);
    let sink = SuppressionStats::new();
    let mut net = Network::new_with_sink(&graph, pick_isp(&graph, 1), config, sink);
    net.warm_up();
    let build = ALLOCS.load(Ordering::Relaxed) - before;
    let routers = graph.node_count() as u64 + 1;
    assert!(
        build <= 5 * routers,
        "Network::new + warm_up made {build} allocator calls for {routers} routers \
         (budget 5 per router). A router keeps its peers, session flags and fan-out \
         order in one link table and its damper store in one row array, and the timer \
         wheel keeps its slot lists in one block arena"
    );

    // Measured: 0.00126 — buffers kept for the run (delivery clamps, the
    // `RouterOutput` vectors) growing, never a per-event or per-window
    // allocation (the run has about as many windows as updates, so one
    // would add about 1; per-slot wheel vectors added 0.055).
    let got = allocs_per_update();
    assert!(
        got <= 0.0025,
        "{got:.5} allocations per update (budget 0.0025). One of the per-event \
         mechanisms regressed: the reused `RouterOutput` (`State::handle`/`apply_output`), \
         the timer wheel's block arena, `PathTable`'s cells and cell index growing once \
         per new path (`cons`), or the SipHash-free `MixMap`s growing where they should \
         be warm"
    );

    // A pulse chain over n = 0..=10 on the Fig. 8 mesh, seed 1, with
    // plain damping and with the RCN filter. Measured from the second
    // fork on: 1-24 calls damped, 1-79 with RCN (mostly the filter state
    // of entries the fork itself creates); the first fork clones the
    // network (414 and 1,138 calls).
    for (series, config) in [
        ("damped", NetworkConfig::paper_full_damping(1)),
        ("rcn", NetworkConfig::paper_rcn_damping(1)),
    ] {
        let forks = chain_fork_allocs(config);
        assert!(
            forks[1..].iter().all(|&calls| calls <= 100),
            "{series}: allocator calls per fork {forks:?} (budget 100 from fork 1 on). \
             `PulseChain::run` should refill its spare network with `clone_from`, every \
             `clone_fields!` type in it should refill its buffers in place, and the \
             damper rows and RCN histories should clone with their source's capacity"
        );
    }
}

/// Allocator calls of each fork of a pulse chain over n = 0..=10 on the
/// Fig. 8 mesh, seed 1.
fn chain_fork_allocs(config: NetworkConfig) -> Vec<u64> {
    let graph = TopologyKind::PAPER_MESH.build(1);
    let sink = SuppressionStats::new();
    let mut net = Network::new_with_sink(&graph, pick_isp(&graph, 1), config, sink);
    net.warm_up();
    let interval = FlapPattern::DEFAULT_INTERVAL;
    let mut chain = PulseChain::new(net, interval, LEAD_IN);
    let mut forks = Vec::new();
    for pulses in 0..=10 {
        let before = ALLOCS.load(Ordering::Relaxed);
        assert_eq!(chain.run(pulses).0.outcome, RunOutcome::Quiescent);
        forks.push(ALLOCS.load(Ordering::Relaxed) - before);
    }
    forks
}
