//! The steady-state event path's allocation budget.
//!
//! After warm-up, handling a BGP update (or forking a pulse chain)
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
    // Measured: 0.058 — buffers kept for the run (delivery clamps, the
    // `RouterOutput` vectors) growing, never a per-event or per-window
    // allocation (the run has about as many windows as updates, so one
    // would add about 1).
    let got = allocs_per_update();
    assert!(
        got <= 0.1,
        "{got:.3} allocations per update (budget 0.1). One of the per-event \
         mechanisms regressed: the reused `RouterOutput` (`State::handle`/`apply_output`), \
         `PathTable`'s cells and cell index growing once per new path (`cons`), \
         or the SipHash-free `MixMap`s growing where they should be warm"
    );

    // A pulse chain over n = 0..=10 on the Fig. 8 mesh, seed 1, with
    // plain damping and with the RCN filter. Measured from the fourth
    // fork on: 9-35 calls damped (1,300+ as clones); 12-57 with RCN from
    // the fifth (1,560-1,890 while its histories refilled by cloning).
    // RCN's fork 3 makes 111, 96 of them timer-wheel slot vectors
    // growing to new peaks, so its budget starts one fork later.
    for (series, config, first) in [
        ("damped", NetworkConfig::paper_full_damping(1), 3),
        ("rcn", NetworkConfig::paper_rcn_damping(1), 4),
    ] {
        let forks = chain_fork_allocs(config);
        assert!(
            forks[first..].iter().all(|&calls| calls <= 100),
            "{series}: allocator calls per fork {forks:?} (budget 100 from fork {first} \
             on). `PulseChain::run` should refill its spare network with `clone_from`, and \
             every `clone_fields!` type in it should refill its buffers in place"
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
