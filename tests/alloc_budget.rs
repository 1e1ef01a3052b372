//! The steady-state event path's allocation budget.
//!
//! After warm-up, handling a BGP update should touch the allocator only
//! when a buffer that is kept for the whole run grows; and building a
//! network should allocate what is network-wide once, not once per
//! shard. This file holds exactly one `#[test]`: the counters below are
//! process-wide, and a sibling test running on another thread would be
//! counted too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use route_flap_damping::bgp::{Network, NetworkConfig, Policy};
use route_flap_damping::damping::FlapPattern;
use route_flap_damping::metrics::NullSink;
use route_flap_damping::sim::{RunOutcome, SimDuration};
use route_flap_damping::topology::{internet_like, mesh_torus, NodeId, Relationships};

// Relaxed: statistics that publish no other data.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested (a `realloc` counts its whole new size).
static BYTES: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller's `layout` obligations pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
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
fn allocs_per_update(sim_shards: usize) -> f64 {
    let graph = mesh_torus(12, 12);
    let config = NetworkConfig {
        sim_shards,
        ..NetworkConfig::paper_full_damping(7)
    };
    let mut net = Network::new_with_sink(&graph, NodeId::new(0), config, NullSink::new());
    net.warm_up();
    let before = ALLOCS.load(Ordering::Relaxed);
    let report = net.run_pulses(FlapPattern::paper_default(3), SimDuration::from_secs(100));
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(report.outcome, RunOutcome::Quiescent);
    assert!(
        report.message_count > 1_000,
        "{} updates",
        report.message_count
    );
    allocs as f64 / report.message_count as f64
}

/// Bytes `Network::new` allocates for a 300-node BA graph under
/// no-valley routing (the relationship map is the large network-wide
/// item: one entry per link).
fn construction_bytes(sim_shards: usize) -> u64 {
    let graph = internet_like(300, 2, 1);
    let config = NetworkConfig {
        sim_shards,
        policy: Policy::NoValley(Relationships::infer_by_degree(&graph, 0.25)),
        ..NetworkConfig::paper_full_damping(7)
    };
    let before = BYTES.load(Ordering::Relaxed);
    let net = Network::new_with_sink(&graph, NodeId::new(0), config, NullSink::new());
    let bytes = BYTES.load(Ordering::Relaxed) - before;
    assert_eq!(net.shard_count(), sim_shards);
    bytes
}

#[test]
fn steady_state_event_path_stays_off_the_allocator() {
    // Measured when the budgets were set: 0.060, 0.086 and 0.160 — about
    // 75 allocations per extra shard, the same at 1 pulse and at 12:
    // buffers kept for the run (delivery clamps, the window trace
    // vector, the `RouterOutput` vectors) growing once per shard, never
    // a per-window allocation (the run has about as many windows as
    // updates, so one would add about 1). (0.088 and 0.173 while each
    // shard had its own `PathTable` and a cross-shard wire format;
    // 0.222 at two shards while each had an mpsc channel pair; 2.37 and
    // 4.25 before the event path stopped allocating.)
    for (sim_shards, budget) in [(1, 0.1), (2, 0.12), (8, 0.2)] {
        let got = allocs_per_update(sim_shards);
        assert!(
            got <= budget,
            "{got:.3} allocations per update at sim_shards = {sim_shards} (budget {budget}). \
             One of the per-event mechanisms regressed: the shard's reused \
             `RouterOutput` (`Shard::handle`/`apply_output`), `PathTable`'s chained \
             dedup and scratch-buffer loop check (`intern`/`from_path`), or the \
             SipHash-free `MixMap`s growing where they should be warm — or, above one \
             shard, a send allocating on its way to another shard's queue \
             (`Shard::transmit`) or the window loop (`Coordinator::run`) allocating \
             per window"
        );
    }

    // What the network has one of is allocated once, whatever the shard
    // count: a shard adds its empty timer wheel and little else (6.8 kB
    // measured; 20.5 kB while every shard cloned the relationship map,
    // which put a 20,000-shard no-valley ba:2000 run at 2.1 GiB).
    let (one, many) = (construction_bytes(1), construction_bytes(2_000));
    assert!(
        many <= one + 2_000 * 10_000,
        "`Network::new` allocates {many} bytes at 2,000 shards against {one} at one — over \
         10,000 per shard: something network-wide (the policy's relationship map, the \
         path table, the origins, a node map) is being copied into every shard again"
    );
}
