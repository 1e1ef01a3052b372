//! Contracts of the snapshot subsystem, which captures only quiescent
//! networks:
//!
//! * **Warm-boundary round trip** — a network captured after warm-up,
//!   written, read back and restored into a fresh network runs its
//!   workload to the same trace, report, drop count and window count
//!   as the straight run, over random topologies, seeds, damping
//!   variants, policies and pulse counts.
//! * **Refusal** — a network with pending events is refused at capture;
//!   truncated files, bit flips, fingerprint mismatches and hash-valid
//!   crafted payloads are refused with an error, never a panic or a
//!   wrong answer.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rfd_bgp::{snapshot, Network, NetworkConfig, Policy, Snapshot, SnapshotError, LEAD_IN};
use rfd_core::FlapPattern;
use rfd_metrics::TraceEvent;
use rfd_sim::{RunOutcome, SimDuration, SimTime};
use rfd_snap::{Decoder, SnapError};
use rfd_topology::{internet_like, mesh_torus, ring, NodeId, Relationships};

static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique scratch path (tests run in one process; the pid + counter
/// keeps parallel test binaries apart).
fn scratch(tag: &str) -> PathBuf {
    let n = FILE_SEQ.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rfd-snapshot-test-{}-{tag}-{n}.snap",
        std::process::id()
    ))
}

#[derive(Debug, Clone, Copy)]
enum Topo {
    Ring(usize),
    Torus(usize, usize),
    Internet(usize, u64),
}

impl Topo {
    fn build(self) -> rfd_topology::Graph {
        match self {
            Topo::Ring(n) => ring(n),
            Topo::Torus(w, h) => mesh_torus(w, h),
            Topo::Internet(n, seed) => internet_like(n, 2, seed),
        }
    }
}

fn topo_strategy() -> impl Strategy<Value = Topo> {
    prop_oneof![
        (4usize..9).prop_map(Topo::Ring),
        ((2usize..4), (2usize..4)).prop_map(|(w, h)| Topo::Torus(w, h)),
        ((6usize..12), 0u64..1000).prop_map(|(n, s)| Topo::Internet(n, s)),
    ]
}

fn config_for(seed: u64, variant: usize) -> NetworkConfig {
    match variant % 3 {
        0 => NetworkConfig::paper_full_damping(seed),
        1 => NetworkConfig::paper_no_damping(seed),
        _ => NetworkConfig::paper_rcn_damping(seed),
    }
}

/// Everything observable that the round-trip contract pins.
#[derive(Debug, PartialEq)]
struct Observed {
    messages: usize,
    convergence: SimDuration,
    events: u64,
    outcome: RunOutcome,
    dropped: u64,
    windows: u64,
    trace: Vec<TraceEvent>,
}

/// Runs `pattern` on a warmed-up `net` and records what it observed.
fn run_workload(mut net: Network, pattern: FlapPattern) -> Observed {
    let report = net.run_pulses(pattern, LEAD_IN);
    Observed {
        messages: report.message_count,
        convergence: report.convergence_time,
        events: report.events_processed,
        outcome: report.outcome,
        dropped: net.dropped_messages(),
        windows: net.windows(),
        trace: net.trace().iter().collect::<Vec<_>>(),
    }
}

/// Writes `snap` to a scratch file and reads it back.
fn through_a_file(snap: &Snapshot, tag: &str) -> Snapshot {
    let path = scratch(tag);
    snap.write(&path).expect("write snapshot");
    let loaded = Snapshot::read(&path).expect("read snapshot");
    std::fs::remove_file(&path).ok();
    loaded
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Capture after warm-up → write → read → restore into a fresh
    /// network → run the workload equals the straight run, byte for
    /// byte, window count included.
    #[test]
    fn warm_snapshot_round_trip_is_byte_identical(
        topo in topo_strategy(),
        isp_pick in 0usize..64,
        seed in 1u64..10_000,
        variant in 0usize..3,
        no_valley in any::<bool>(),
        pulses in 1usize..3,
    ) {
        let graph = topo.build();
        let isp = NodeId::new((isp_pick % graph.node_count()) as u32);
        let mut cfg = config_for(seed, variant);
        if no_valley {
            cfg.policy = Policy::NoValley(Relationships::infer_by_degree(&graph, 0.25));
        }
        let key = snapshot::fingerprints(&graph, &[isp], &cfg);
        let pattern = FlapPattern::paper_default(pulses);

        let mut warm = Network::new(&graph, isp, cfg.clone());
        warm.warm_up();
        let snap = Snapshot::capture(&warm, key).expect("a warm network is quiescent");
        let straight = run_workload(warm, pattern);

        let mut restored = Network::new(&graph, isp, cfg);
        through_a_file(&snap, "round-trip")
            .resume_into(&mut restored, &key)
            .expect("resume");
        prop_assert_eq!(straight, run_workload(restored, pattern));
    }
}

fn small_scenario() -> (rfd_topology::Graph, NodeId, NetworkConfig) {
    (
        mesh_torus(3, 3),
        NodeId::new(4),
        NetworkConfig::paper_full_damping(7),
    )
}

/// A warm snapshot written to disk for the corruption tests.
fn warm_snapshot_file(tag: &str) -> PathBuf {
    let (graph, isp, cfg) = small_scenario();
    let key = snapshot::fingerprints(&graph, &[isp], &cfg);
    let mut net = Network::new(&graph, isp, cfg);
    net.warm_up();
    let snap = Snapshot::capture(&net, key).expect("capture");
    let path = scratch(tag);
    snap.write(&path).expect("write");
    path
}

/// A run the horizon cut between two pulses still has events queued:
/// capture refuses it and names how many.
#[test]
fn capture_refuses_a_horizon_cut_network() {
    let (graph, isp, cfg) = small_scenario();
    let mut net = Network::new(&graph, isp, cfg.clone());
    net.warm_up();
    let horizon = net.now().since(SimTime::ZERO) + SimDuration::from_secs(160);
    let cfg = NetworkConfig { horizon, ..cfg };
    let key = snapshot::fingerprints(&graph, &[isp], &cfg);
    let mut net = Network::new(&graph, isp, cfg);
    let report = net.run_paper_workload(3);
    assert_eq!(report.outcome, RunOutcome::HorizonReached);
    let err = Snapshot::capture(&net, key).expect_err("pending events must be refused");
    let SnapshotError::NotQuiescent { pending } = err else {
        panic!("unexpected error: {err}");
    };
    assert!(pending > 0);
    assert!(err
        .to_string()
        .contains(&format!("{pending} pending events")));
}

#[test]
fn truncated_snapshot_is_refused() {
    let path = warm_snapshot_file("truncate");
    let bytes = std::fs::read(&path).expect("read back");
    for keep in [0, 7, 28, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..keep]).expect("truncate");
        let err = Snapshot::read(&path).expect_err("truncated file must be refused");
        assert!(
            matches!(
                err,
                SnapshotError::Snap(SnapError::Truncated { .. } | SnapError::BadMagic { .. })
            ),
            "unexpected error for keep={keep}: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bit_flipped_snapshot_is_refused() {
    let path = warm_snapshot_file("bitflip");
    let bytes = std::fs::read(&path).expect("read back");
    // Flip one bit in the payload body and one in the trailing hash.
    for pos in [bytes.len() / 2, bytes.len() - 3] {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x10;
        std::fs::write(&path, &corrupt).expect("corrupt");
        let err = Snapshot::read(&path).expect_err("bit-flipped file must be refused");
        assert!(
            matches!(err, SnapshotError::Snap(SnapError::HashMismatch { .. })),
            "unexpected error for pos={pos}: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn config_mismatch_is_refused() {
    let path = warm_snapshot_file("mismatch");
    let snap = Snapshot::read(&path).expect("read");
    std::fs::remove_file(&path).ok();

    // Same topology, different seed: the config fingerprint differs and
    // resume must refuse rather than continue a wrong run.
    let (graph, isp, mut cfg) = small_scenario();
    cfg.seed = 8;
    let other_key = snapshot::fingerprints(&graph, &[isp], &cfg);
    let mut net = Network::new(&graph, isp, cfg);
    let err = snap
        .resume_into(&mut net, &other_key)
        .expect_err("mismatched config must be refused");
    assert!(
        matches!(err, SnapshotError::ConfigMismatch { .. }),
        "unexpected error: {err}"
    );
    let rendered = err.to_string();
    assert!(
        rendered.contains(&format!("{:#018x}", snap.key.config_fp)),
        "error must name the mismatching fingerprint: {rendered}"
    );
}

/// The payload of a fully damped network captured right after warm-up.
fn warm_payload(graph: &rfd_topology::Graph, isps: &[NodeId]) -> Vec<u8> {
    let cfg = NetworkConfig::paper_full_damping(5);
    let key = snapshot::fingerprints(graph, isps, &cfg);
    let mut net = Network::new_multi(graph, isps, cfg);
    net.warm_up();
    let path = scratch("pin");
    Snapshot::capture(&net, key)
        .expect("capture")
        .write(&path)
        .expect("write");
    let payload = rfd_snap::read_file(&path).expect("read back").payload;
    std::fs::remove_file(&path).ok();
    payload
}

/// The path interner's cons cells and map, and the router's
/// per-prefix storage, are invisible to the file format: the warm
/// state of a fixed network has a pinned length and hash. Format
/// version 5 has no pending-event section and no warm flag. The
/// eight-origin case pins the multi-prefix encode order (ascending
/// prefix id within each router).
#[test]
fn checkpoint_bytes_are_pinned() {
    let torus = mesh_torus(6, 6);
    let internet = internet_like(60, 2, 5);
    let eight: Vec<NodeId> = (0..8).map(|i| NodeId::new(i * 7)).collect();
    let cases: [(&rfd_topology::Graph, &[NodeId], usize, u64); 2] = [
        (&torus, &[NodeId::new(0)], 21_758, 0x4eac_7975_66ec_68c7),
        (&internet, &eight, 195_289, 0xefaf_ab17_546f_6001),
    ];
    for (graph, isps, len, pinned) in cases {
        let payload = warm_payload(graph, isps);
        assert_eq!(
            (payload.len(), rfd_snap::fnv1a(&payload)),
            (len, pinned),
            "snapshot payload changed: {} origins",
            isps.len()
        );
    }
}

/// Byte offsets of the fields the crafted payloads below overwrite,
/// found by walking the layout `Snapshot::capture` writes for a
/// network without damping: the header, the path table, then router
/// 0's charging flag, down flags, (absent) damper store and first
/// prefix.
struct Landmarks {
    /// Per interned path: the offset of its first hop, and its hops.
    paths: Vec<(usize, Vec<u32>)>,
    /// A path of two hops or more that no other path extends (nothing
    /// else changes with its head): its first hop's offset, its origin.
    leaf: (usize, u32),
    prefix_id: usize,
    /// The first rib-in entry's route id sits 10 bytes past this.
    rib_in_width: usize,
    best_route_id: usize,
    /// The id of a path through router 0.
    looped_path: u32,
}

fn put(bytes: &mut [u8], at: usize, new: &[u8]) {
    bytes[at..at + new.len()].copy_from_slice(new);
}

fn skip_rib_in(d: &mut Decoder<'_>) -> Result<(), SnapError> {
    d.option("route", |d| d.u32("route id"))?;
    d.option("damper slot", |d| d.u32("damper slot"))?;
    d.bool("suppressed")?;
    for filter in ["rcn", "selective", "last root cause"] {
        assert_eq!(d.u8(filter)?, 0, "no {filter}");
    }
    d.u64("charges")?;
    Ok(())
}

fn landmarks(payload: &[u8]) -> Result<Landmarks, SnapError> {
    let mut d = Decoder::new(payload);
    let at = |d: &Decoder<'_>| payload.len() - d.remaining();
    d.u64("now")?;
    d.bool("warmed up")?;
    for _ in 0..5 {
        d.u64("counter")?;
    }
    // A path's first hop sits past its 8-byte hop count.
    let paths = d.seq("paths", |d| {
        Ok((at(d) + 8, d.seq("hops", |d| d.u32("hop"))?))
    })?;
    let extended = |p: &[u32]| paths.iter().any(|(_, q)| q.get(1..) == Some(p));
    let leaf = paths.iter().find(|(_, p)| p.len() >= 2 && !extended(p));
    let leaf = leaf.map(|(at, p)| (*at, p[p.len() - 1]));
    let looped = paths.iter().position(|(_, p)| p.contains(&0));
    d.usize("routers")?;
    d.bool("charging")?;
    d.seq("down", |d| d.bool("down"))?;
    assert_eq!(d.u8("damper store")?, 0, "no damper store");
    assert!(d.usize("prefixes")? > 0, "router 0 knows prefix 0");
    let prefix_id = at(&d);
    d.u32("prefix id")?;
    d.bool("originated")?;
    let rib_in_width = at(&d);
    let tags = &payload[rib_in_width + 8..rib_in_width + 10];
    assert_eq!(tags, [1, 1], "router 0 holds a route from its first peer");
    d.seq("rib-in", |d| d.option("rib-in entry", skip_rib_in))?;
    assert_eq!(d.u8("best")?, 1, "router 0 has a best route");
    d.option("learned from", |d| d.u32("learned from"))?;
    Ok(Landmarks {
        paths,
        leaf: leaf.expect("warm-up prepends"),
        prefix_id,
        rib_in_width,
        best_route_id: at(&d),
        looped_path: looped.expect("router 0 advertised a path") as u32,
    })
}

/// Hash-valid payloads a hostile file could carry: each must be refused
/// with an error, not allocated, indexed or asserted on.
#[test]
fn crafted_payloads_are_refused() {
    let graph = mesh_torus(3, 3);
    let isp = NodeId::new(4);
    let cfg = NetworkConfig::paper_no_damping(7);
    let key = snapshot::fingerprints(&graph, &[isp], &cfg);
    let mut net = Network::new(&graph, isp, cfg.clone());
    net.warm_up();
    let path = scratch("hostile");
    Snapshot::capture(&net, key)
        .expect("capture")
        .write(&path)
        .expect("write");
    let payload = rfd_snap::read_file(&path).expect("read back").payload;
    let marks = landmarks(&payload).expect("walk the payload");
    // (what is crafted, how, what the refusal says)
    type Craft = fn(&mut Vec<u8>, &Landmarks);
    let cases: [(&str, Craft, &str); 8] = [
        (
            "prefix id 2^32 - 1",
            |b, m| put(b, m.prefix_id, &u32::MAX.to_le_bytes()),
            "invalid prefix id",
        ),
        (
            "route id 2^32 - 1",
            |b, m| put(b, m.best_route_id, &u32::MAX.to_le_bytes()),
            "invalid route id",
        ),
        (
            "path 1 repeats path 0",
            |b, m| put(b, m.paths[1].0, &m.paths[0].1[0].to_le_bytes()),
            "repeated path",
        ),
        (
            "path loops through its own head",
            |b, m| put(b, m.leaf.0, &m.leaf.1.to_le_bytes()),
            "looped",
        ),
        (
            "path listed before its tail",
            |b, m| put(b, m.leaf.0 + 4, &u32::MAX.to_le_bytes()),
            "before its tail",
        ),
        (
            "rib-in one entry short",
            |b, m| {
                let at = m.rib_in_width;
                let width = u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
                put(b, at, &(width - 1).to_le_bytes())
            },
            "rib-in width",
        ),
        (
            "rib-in route through router 0",
            |b, m| put(b, m.rib_in_width + 10, &m.looped_path.to_le_bytes()),
            "rib-in route through the router",
        ),
        (
            "damper slot 0 on a router that does not damp",
            |b, m| {
                let at = m.rib_in_width + 14;
                assert_eq!(b[at], 0, "the undamped entry has no slot");
                b.splice(at..=at, [1, 0, 0, 0, 0]);
            },
            "rib-in damper slot not held for its entry",
        ),
    ];
    for (what, craft, refusal) in cases {
        let mut crafted = payload.clone();
        craft(&mut crafted, &marks);
        assert_ne!(crafted, payload, "{what}: nothing changed");
        rfd_snap::write_atomic(&path, key.config_fp, &crafted).expect("rewrite");
        let snap = Snapshot::read(&path).expect("the container itself is valid");
        let mut target = Network::new(&graph, isp, cfg.clone());
        let err = snap
            .resume_into(&mut target, &key)
            .expect_err("a crafted payload must be refused");
        assert!(
            err.to_string().contains(refusal),
            "{what}: unexpected error: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// Where router 0's damper store and its first two RIB-IN entries'
/// damper slots sit in the payload of a damped network.
struct StoreLandmarks {
    /// Slots in the store (all occupied after warm-up).
    slots: u32,
    /// Offset of the store's flag bytes.
    flags: usize,
    /// Offset of the store's free-list length.
    free_len: usize,
    /// Offset and value of the damper slot of router 0's first two
    /// entries.
    entry_slots: [(usize, u32); 2],
}

fn store_landmarks(payload: &[u8]) -> Result<StoreLandmarks, SnapError> {
    let mut d = Decoder::new(payload);
    let at = |d: &Decoder<'_>| payload.len() - d.remaining();
    d.u64("now")?;
    d.bool("warmed up")?;
    for _ in 0..5 {
        d.u64("counter")?;
    }
    for _ in 0..d.usize("paths")? {
        d.seq("hops", |d| d.u32("hop"))?;
    }
    d.usize("routers")?;
    d.bool("charging")?;
    d.seq("down", |d| d.bool("down"))?;
    assert_eq!(d.u8("damper store")?, 1, "router 0 damps");
    let slots = d.seq("keys", |d| d.u64("key"))?.len() as u32;
    d.seq("penalty", |d| d.u64("penalty"))?;
    d.seq("anchor", |d| d.u64("anchor"))?;
    let flags = at(&d) + 8;
    d.seq("flags", |d| d.u8("flag"))?;
    d.seq("reuse deadlines", |d| d.u64("deadline"))?;
    let free_len = at(&d);
    assert!(d.seq("free", |d| d.u32("free"))?.is_empty(), "no free slot");
    assert!(d.usize("prefixes")? > 0, "router 0 knows prefix 0");
    d.u32("prefix id")?;
    d.bool("originated")?;
    let mut entry_slots = Vec::new();
    d.seq("rib-in", |d| {
        d.option("rib-in entry", |d| {
            d.option("route", |d| d.u32("route id"))?;
            let slot_at = at(d) + 1;
            let slot = d.option("damper slot", |d| d.u32("damper slot"))?;
            entry_slots.push((slot_at, slot.expect("a damped entry has a slot")));
            d.bool("suppressed")?;
            for filter in ["rcn", "selective", "last root cause"] {
                assert_eq!(d.u8(filter)?, 0, "no {filter}");
            }
            d.u64("charges")
        })
    })?;
    Ok(StoreLandmarks {
        slots,
        flags,
        free_len,
        entry_slots: [entry_slots[0], entry_slots[1]],
    })
}

/// A RIB-IN entry's damper slot must be one the restored store holds
/// for that entry's (peer, prefix): an out-of-range slot, a free slot
/// and another entry's slot are each refused with an error, where they
/// used to restore and panic (or charge the wrong key) on the next
/// update.
#[test]
fn crafted_damper_slots_are_refused() {
    let (graph, isp, cfg) = small_scenario();
    let key = snapshot::fingerprints(&graph, &[isp], &cfg);
    let path = warm_snapshot_file("slots");
    let payload = rfd_snap::read_file(&path).expect("read back").payload;
    let marks = store_landmarks(&payload).expect("walk the payload");
    type Craft = fn(&mut Vec<u8>, &StoreLandmarks);
    let cases: [(&str, Craft); 3] = [
        ("an out-of-range slot", |b, m| {
            put(b, m.entry_slots[0].0, &m.slots.to_le_bytes())
        }),
        ("another entry's slot", |b, m| {
            put(b, m.entry_slots[0].0, &m.entry_slots[1].1.to_le_bytes())
        }),
        ("a free slot", |b, m| {
            let slot = m.entry_slots[0].1;
            b[m.flags + slot as usize] = 0;
            put(b, m.free_len, &1u64.to_le_bytes());
            let list = m.free_len + 8;
            b.splice(list..list, slot.to_le_bytes());
        }),
    ];
    for (what, craft) in cases {
        let mut crafted = payload.clone();
        craft(&mut crafted, &marks);
        rfd_snap::write_atomic(&path, key.config_fp, &crafted).expect("rewrite");
        let snap = Snapshot::read(&path).expect("the container itself is valid");
        let mut target = Network::new(&graph, isp, cfg.clone());
        let err = snap
            .resume_into(&mut target, &key)
            .expect_err("a crafted payload must be refused");
        assert!(
            err.to_string()
                .contains("rib-in damper slot not held for its entry"),
            "{what}: unexpected error: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}
