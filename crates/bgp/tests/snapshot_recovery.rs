//! Crash-recovery and warm-fork contracts for the snapshot subsystem:
//!
//! * **Kill-resume byte-identity** — a run that checkpoints
//!   periodically, is killed at an arbitrary checkpoint, and resumes
//!   from the snapshot file must produce the same trace, report, and
//!   drop counters as the uninterrupted run, over random topologies,
//!   seeds, damping variants, policies and pulse counts.
//! * **Warm-fork equality** — forking damping-parameter variants from
//!   one warm snapshot must equal cold starts of those variants.
//! * **Corruption refusal** — truncated files, bit flips, and
//!   fingerprint mismatches are refused with the right error, never a
//!   wrong answer.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::prelude::*;
use rfd_bgp::{snapshot, Network, NetworkConfig, Policy, Snapshot, SnapshotError};
use rfd_core::{FlapPattern, FlapSchedule};
use rfd_metrics::TraceEvent;
use rfd_sim::SimDuration;
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

const LEAD_IN: SimDuration = SimDuration::from_secs(100);

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

/// Everything observable that the recovery contract pins.
struct Observed {
    messages: usize,
    convergence: SimDuration,
    events: u64,
    dropped: u64,
    trace: Vec<TraceEvent>,
}

fn observe(net: &Network, report: &rfd_bgp::RunReport) -> Observed {
    Observed {
        messages: report.message_count,
        convergence: report.convergence_time,
        events: report.events_processed,
        dropped: net.dropped_messages(),
        trace: net.trace().events().to_vec(),
    }
}

fn assert_same(a: &Observed, b: &Observed, what: &str) {
    assert_eq!(a.trace, b.trace, "{what}: trace diverged");
    assert_eq!(a.messages, b.messages, "{what}: message count");
    assert_eq!(a.convergence, b.convergence, "{what}: convergence time");
    assert_eq!(a.events, b.events, "{what}: events processed");
    assert_eq!(a.dropped, b.dropped, "{what}: dropped messages");
}

/// The straight (uninterrupted) run.
fn run_straight(
    graph: &rfd_topology::Graph,
    isp: NodeId,
    cfg: &NetworkConfig,
    schedule: &FlapSchedule,
) -> Observed {
    let mut net = Network::new(graph, isp, cfg.clone());
    net.warm_up();
    let report = net.run_schedules(&[(0, schedule)], LEAD_IN);
    observe(&net, &report)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Checkpoint → kill → restore-from-file → run-to-end equals the
    /// uninterrupted run, byte for byte. The window count is pinned
    /// too, against the same run resumed in memory: a checkpoint pause
    /// ends a window early, so the count depends on where the run was
    /// cut, but never on whether it continued in memory or from a file.
    #[test]
    fn kill_resume_is_byte_identical(
        topo in topo_strategy(),
        isp_pick in 0usize..64,
        seed in 1u64..10_000,
        variant in 0usize..3,
        no_valley in any::<bool>(),
        pulses in 1usize..3,
        every_secs in 20u64..90,
        kill_pick in 0usize..16,
    ) {
        let graph = topo.build();
        let isp = NodeId::new((isp_pick % graph.node_count()) as u32);
        let mut cfg = config_for(seed, variant);
        if no_valley {
            cfg.policy = Policy::NoValley(Relationships::infer_by_degree(&graph, 0.25));
        }
        let key = snapshot::fingerprints(&graph, &[isp], &cfg);
        let schedule = FlapSchedule::from(FlapPattern::paper_default(pulses));

        let reference = run_straight(&graph, isp, &cfg, &schedule);

        // The same run again, checkpointing every `every_secs` and
        // "killed" after checkpoint `kill_pick` (or after the last one,
        // if the run ends sooner); the pauses themselves and the
        // in-memory continuation must not perturb anything.
        let mut net = Network::new(&graph, isp, cfg.clone());
        net.warm_up();
        let mut snaps = Vec::new();
        let report = net.run_schedules_with_checkpoints(
            &[(0, &schedule)],
            LEAD_IN,
            SimDuration::from_secs(every_secs),
            |n| {
                snaps.push(Snapshot::capture(n, key).expect("capture"));
                snaps.len() <= kill_pick
            },
        );
        let report = if snaps.len() > kill_pick { net.resume() } else { report };
        assert_same(&reference, &observe(&net, &report), "checkpointed run");
        prop_assume!(!snaps.is_empty());

        // The kill: all later state is gone; only the snapshot file
        // survives.
        let path = scratch("resume");
        snaps.last().expect("checked above").write(&path).expect("write snapshot");
        let loaded = Snapshot::read(&path).expect("read snapshot");
        std::fs::remove_file(&path).ok();

        let mut resumed = Network::new(&graph, isp, cfg.clone());
        loaded.resume_into(&mut resumed, &key).expect("resume");
        let report = resumed.resume();
        assert_same(&reference, &observe(&resumed, &report), "resumed run");
        prop_assert_eq!(resumed.windows(), net.windows(), "windows");
    }

    /// Forking a damping-parameter variant from a warm flow-matched
    /// snapshot equals a cold start of that variant.
    #[test]
    fn warm_fork_equals_cold_start(
        topo in topo_strategy(),
        isp_pick in 0usize..64,
        seed in 1u64..10_000,
        donor_variant in 0usize..3,
        fork_variant in 0usize..3,
    ) {
        let graph = topo.build();
        let isp = NodeId::new((isp_pick % graph.node_count()) as u32);
        let schedule = FlapSchedule::from(FlapPattern::paper_default(2));

        let donor_cfg = config_for(seed, donor_variant);
        let donor_key = snapshot::fingerprints(&graph, &[isp], &donor_cfg);
        let mut donor = Network::new(&graph, isp, donor_cfg);
        donor.warm_up();
        let snap = Snapshot::capture(&mut donor, donor_key).expect("capture");
        prop_assert!(snap.is_warm());

        let fork_cfg = config_for(seed, fork_variant);
        let fork_key = snapshot::fingerprints(&graph, &[isp], &fork_cfg);
        let mut forked = Network::new(&graph, isp, fork_cfg.clone());
        snap.fork_into(&mut forked, &fork_key).expect("fork");
        let report = forked.run_schedules(&[(0, &schedule)], LEAD_IN);

        let cold = run_straight(&graph, isp, &fork_cfg, &schedule);
        assert_same(&cold, &observe(&forked, &report), "forked run");
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
fn warm_snapshot_file(tag: &str) -> (PathBuf, snapshot::SnapshotKey) {
    let (graph, isp, cfg) = small_scenario();
    let key = snapshot::fingerprints(&graph, &[isp], &cfg);
    let mut net = Network::new(&graph, isp, cfg);
    net.warm_up();
    let snap = Snapshot::capture(&mut net, key).expect("capture");
    let path = scratch(tag);
    snap.write(&path).expect("write");
    (path, key)
}

#[test]
fn truncated_snapshot_is_refused() {
    let (path, _) = warm_snapshot_file("truncate");
    let bytes = std::fs::read(&path).expect("read back");
    for keep in [0, 7, 36, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..keep]).expect("truncate");
        let err = Snapshot::read(&path).expect_err("truncated file must be refused");
        assert!(
            matches!(
                err,
                SnapshotError::Snap(
                    rfd_snap::SnapError::Truncated { .. } | rfd_snap::SnapError::BadMagic { .. }
                )
            ),
            "unexpected error for keep={keep}: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bit_flipped_snapshot_is_refused() {
    let (path, _) = warm_snapshot_file("bitflip");
    let bytes = std::fs::read(&path).expect("read back");
    // Flip one bit in the payload body and one in the trailing hash.
    for pos in [bytes.len() / 2, bytes.len() - 3] {
        let mut corrupt = bytes.clone();
        corrupt[pos] ^= 0x10;
        std::fs::write(&path, &corrupt).expect("corrupt");
        let err = Snapshot::read(&path).expect_err("bit-flipped file must be refused");
        assert!(
            matches!(
                err,
                SnapshotError::Snap(rfd_snap::SnapError::HashMismatch { .. })
            ),
            "unexpected error for pos={pos}: {err}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn config_mismatch_is_refused() {
    let (path, _) = warm_snapshot_file("mismatch");
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

#[test]
fn mid_run_snapshot_cannot_fork() {
    let (graph, isp, cfg) = small_scenario();
    let key = snapshot::fingerprints(&graph, &[isp], &cfg);
    let schedule = FlapSchedule::from(FlapPattern::paper_default(1));

    let mut net = Network::new(&graph, isp, cfg.clone());
    net.warm_up();
    let mut snaps = Vec::new();
    net.run_schedules_with_checkpoints(
        &[(0, &schedule)],
        LEAD_IN,
        SimDuration::from_secs(30),
        |n| {
            snaps.push(Snapshot::capture(n, key).expect("capture"));
            true
        },
    );
    let snap = snaps.first().expect("at least one checkpoint");
    assert!(!snap.is_warm());

    let mut target = Network::new(&graph, isp, cfg);
    let err = snap
        .fork_into(&mut target, &key)
        .expect_err("mid-run snapshot must not seed a variant");
    assert!(
        matches!(err, SnapshotError::NotWarm),
        "unexpected error: {err}"
    );
}

/// The payload of the first checkpoint (at 120 s) of a fully damped
/// run that flaps origin 0 three times.
fn first_checkpoint_payload(graph: &rfd_topology::Graph, isps: &[NodeId]) -> Vec<u8> {
    let schedule = FlapSchedule::from(FlapPattern::paper_default(3));
    let cfg = NetworkConfig::paper_full_damping(5);
    let key = snapshot::fingerprints(graph, isps, &cfg);
    let mut net = Network::new_multi(graph, isps, cfg);
    net.warm_up();
    let mut first = None;
    net.run_schedules_with_checkpoints(
        &[(0, &schedule)],
        LEAD_IN,
        SimDuration::from_secs(120),
        |n| {
            first = Some(Snapshot::capture(n, key).expect("capture"));
            false
        },
    );
    let path = scratch("pin");
    first
        .expect("a checkpoint at 120 s")
        .write(&path)
        .expect("write");
    let payload = rfd_snap::read_file(&path).expect("read back").payload;
    std::fs::remove_file(&path).ok();
    payload
}

/// The path interner's hasher and collision chain, and the router's
/// per-prefix storage, are invisible to the file format: the first
/// checkpoint of a fixed run has a pinned length and hash. Format
/// version 4 writes one simulation state, with no shard count and the
/// clock and processed count only in the header (24 bytes fewer than
/// version 3). The eight-origin case pins the multi-prefix encode order
/// (ascending prefix id within each router).
#[test]
fn checkpoint_bytes_are_pinned() {
    let torus = mesh_torus(6, 6);
    let internet = internet_like(60, 2, 5);
    let eight: Vec<NodeId> = (0..8).map(|i| NodeId::new(i * 7)).collect();
    let cases: [(&rfd_topology::Graph, &[NodeId], usize, u64); 2] = [
        (&torus, &[NodeId::new(0)], 41_856, 0xe739_e5c3_d726_b1a2),
        (&internet, &eight, 229_963, 0xbe80_bd85_337c_5501),
    ];
    for (graph, isps, len, pinned) in cases {
        let payload = first_checkpoint_payload(graph, isps);
        assert_eq!(
            (payload.len(), rfd_snap::fnv1a(&payload)),
            (len, pinned),
            "snapshot payload changed: {} origins",
            isps.len()
        );
    }
}

/// Offset of the first router's first prefix id in the payload of a
/// network without damping — the layout `Snapshot::capture`
/// writes: header, path table, then per router its charging flag,
/// down flags, damper store (absent) and prefix count.
fn first_prefix_id_offset(payload: &[u8]) -> Result<usize, rfd_snap::SnapError> {
    let mut d = rfd_snap::Decoder::new(payload);
    d.bool("warm")?;
    d.u64("now")?;
    d.bool("warmed up")?;
    for _ in 0..5 {
        d.u64("counter")?;
    }
    for _ in 0..d.usize("paths")? {
        for _ in 0..d.usize("hops")? {
            d.u32("hop")?;
        }
    }
    d.usize("routers")?;
    d.bool("charging")?;
    d.seq("down", |d| d.bool("down"))?;
    assert_eq!(d.u8("damper store")?, 0, "no damper store");
    assert!(d.usize("prefixes")? > 0, "router 0 knows prefix 0");
    Ok(payload.len() - d.remaining())
}

/// A router's prefix table is indexed by prefix id, so a crafted
/// checkpoint naming prefix 2³² − 1 in a one-origin network must be
/// refused as corrupt — not allocated, and not a panic.
#[test]
fn out_of_range_prefix_id_is_refused() {
    let graph = mesh_torus(3, 3);
    let isp = NodeId::new(4);
    let cfg = NetworkConfig::paper_no_damping(7);
    let key = snapshot::fingerprints(&graph, &[isp], &cfg);
    let mut net = Network::new(&graph, isp, cfg.clone());
    net.warm_up();
    let path = scratch("hostile-prefix");
    Snapshot::capture(&mut net, key)
        .expect("capture")
        .write(&path)
        .expect("write");
    let mut payload = rfd_snap::read_file(&path).expect("read back").payload;
    let at = first_prefix_id_offset(&payload).expect("walk the payload");
    assert_eq!(payload[at..at + 4], 0u32.to_le_bytes());
    payload[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    rfd_snap::write_atomic(&path, key.config_fp, key.flow_fp, &payload).expect("rewrite");
    let crafted = Snapshot::read(&path).expect("the container itself is valid");
    std::fs::remove_file(&path).ok();

    let mut target = Network::new(&graph, isp, cfg);
    let err = crafted
        .resume_into(&mut target, &key)
        .expect_err("an out-of-range prefix id must be refused");
    assert!(
        matches!(
            err,
            SnapshotError::Snap(rfd_snap::SnapError::PayloadExhausted {
                context: "prefix id out of range"
            })
        ),
        "unexpected error: {err}"
    );
}

#[test]
fn inspect_reports_fingerprints_without_restoring() {
    let (path, key) = warm_snapshot_file("inspect");
    let info = snapshot::inspect(&path).expect("inspect");
    assert_eq!(info.config_fp, key.config_fp);
    assert_eq!(info.flow_fp, key.flow_fp);
    std::fs::remove_file(&path).ok();
}
