//! Crash-safe warm-state snapshots: checkpoint/restore for [`Network`].
//!
//! A snapshot serialises the **complete** mutable simulation state —
//! the network's interned path table (once), then per shard its routers
//! (RIBs, MRAI pacing, damper stores, RCN/selective filters), pending
//! timer-wheel events in canonical `(time, key)` order, per-node RNG
//! streams and TCP-ordering clamps, and last the coordinator's
//! aggregator sinks — into a
//! fingerprinted binary container (see [`rfd_snap`]) written with a
//! temp-file + atomic-rename protocol, so a process killed mid-write
//! can never leave a half snapshot behind.
//!
//! Two restore modes exist, gated by two fingerprints:
//!
//! * **Resume** ([`Snapshot::resume_into`]) requires the *config*
//!   fingerprint to match: the full topology + [`NetworkConfig`]. A run
//!   that checkpoints at sim-time `T`, is killed, and resumes produces
//!   CSV/trace/ledger output **byte-identical** to an uninterrupted
//!   run, at any shard count (checkpoint pauses land on conservative
//!   window boundaries, and window segmentation is invisible: event pop
//!   order is the pure `(time, key)` order, per-node RNG draws follow
//!   each node's own event order, and cross-shard messages always land
//!   beyond the lookahead).
//! * **Fork** ([`Snapshot::fork_into`]) requires only the *flow*
//!   fingerprint — everything **except** the damping deployment,
//!   penalty filter, and reuse-timer quantisation — plus the snapshot's
//!   *warm* flag. Warm-up traffic is damping-invariant (charging is
//!   disabled, penalties zero, filters pristine), so one warmed network
//!   can be snapshotted once per `(topology, seed)` and forked into
//!   every damping-parameter variant of a sweep, skipping the repeated
//!   warm-up. Forked runs are byte-identical to cold starts of the
//!   same variant.
//!
//! **Not captured** (rebuilt or irrelevant on restore): decay tables
//! and damping parameters, the policy, origins and node → shard maps
//! (all derived from config), the path interner's dedup/memo caches and
//! hit counters (caches never influence which id a path interns to),
//! and the `EpochBarrier` (fresh per drive; the `windows` counter is
//! carried). Messages in flight between shards need no section of their
//! own: they are pending events on the receiver's queue.

use std::path::Path;

use rfd_core::{
    DamperStore, DamperStoreState, LedgerSink, LinkStatus, RcnChargePolicy, RcnFilter, RootCause,
    SelectiveFilter,
};
use rfd_metrics::TraceSink;
use rfd_sim::{DetRng, ShardEngine, SimTime};
use rfd_snap::{ContainerInfo, Decoder, Encoder, Fingerprint, SnapError};
use rfd_topology::{Graph, NodeId};

use super::{NetEvent, Network, Shard};
use crate::config::{DampingDeployment, NetworkConfig, PenaltyFilter};
use crate::intern::PathTable;
use crate::message::{Prefix, UpdateMessage, UpdatePayload};
use crate::rib::{BestRoute, RibInEntry};
use crate::router::{damper_key, prefix_entry, MraiPeer, PrefixState, Router};

/// The two fingerprints a snapshot is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotKey {
    /// Full-configuration fingerprint: topology, attachments, and every
    /// [`NetworkConfig`] field. Gates [`Snapshot::resume_into`].
    pub config_fp: u64,
    /// Flow fingerprint: like `config_fp` but with the damping
    /// deployment, penalty filter, and reuse quantisation normalised
    /// away. Gates [`Snapshot::fork_into`].
    pub flow_fp: u64,
}

/// Computes the [`SnapshotKey`] for a network built over `base` with
/// origins attached to `isps` under `config`. Compute it from the same
/// inputs handed to [`Network::new_multi`] — the snapshot machinery
/// never re-derives it.
pub fn fingerprints(base: &Graph, isps: &[NodeId], config: &NetworkConfig) -> SnapshotKey {
    let config_fp = fingerprint_of(base, isps, config);
    let mut flow = config.clone();
    flow.damping = DampingDeployment::Off;
    flow.filter = PenaltyFilter::Plain;
    flow.protocol.reuse_granularity = None;
    let flow_fp = fingerprint_of(base, isps, &flow);
    SnapshotKey { config_fp, flow_fp }
}

fn fingerprint_of(base: &Graph, isps: &[NodeId], config: &NetworkConfig) -> u64 {
    let mut fp = Fingerprint::new();
    fp.u64(base.node_count() as u64);
    for node in base.nodes() {
        let neighbors = base.neighbors(node);
        fp.u64(neighbors.len() as u64);
        for &n in neighbors {
            fp.u64(u64::from(n.raw()));
        }
    }
    fp.u64(isps.len() as u64);
    for &isp in isps {
        fp.u64(u64::from(isp.raw()));
    }
    // The config structs all derive Debug with every field rendered;
    // hashing the rendering tracks future config additions for free
    // (changing any field, or adding one, changes the fingerprint).
    // The policy is hashed separately in canonical link order: its
    // relationship map is a `HashMap`, whose Debug order is not stable
    // across processes — and a kill-resume fingerprint must be.
    let mut canon = config.clone();
    let policy = std::mem::take(&mut canon.policy);
    fp.str(&format!("{canon:?}"));
    match &policy {
        crate::policy::Policy::ShortestPath => {
            fp.u64(0);
        }
        crate::policy::Policy::NoValley(rel) => {
            fp.u64(1);
            for node in base.nodes() {
                for &n in base.neighbors(node) {
                    fp.u64(match rel.classify(node, n) {
                        rfd_topology::Relationship::Customer => 2,
                        rfd_topology::Relationship::Peer => 3,
                        rfd_topology::Relationship::Provider => 4,
                    });
                }
            }
        }
    }
    fp.finish()
}

/// Why a snapshot could not be taken, written, read, or restored.
#[derive(Debug)]
pub enum SnapshotError {
    /// Container-level failure: I/O, truncation, corruption, bad
    /// magic/version (from [`rfd_snap`]).
    Snap(SnapError),
    /// Resume refused: the snapshot was taken under a different full
    /// configuration.
    ConfigMismatch {
        /// Fingerprint of the configuration being restored into.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
    /// Fork refused: the snapshot's topology/seed/flow parameters
    /// differ from the fork target's.
    FlowMismatch {
        /// Flow fingerprint of the fork target.
        expected: u64,
        /// Flow fingerprint recorded in the snapshot.
        found: u64,
    },
    /// Fork refused: the snapshot was not taken at the warm boundary
    /// (damping state is live, so it cannot seed a parameter variant).
    NotWarm,
    /// The network's trace or ledger sink does not support
    /// checkpointing (e.g. streaming aggregators that fold into
    /// irrecoverable state).
    UnsupportedSink(&'static str),
    /// The payload decoded cleanly but its shape disagrees with the
    /// target network (shard or router counts) — indicates an internal
    /// bug, since the fingerprints matched.
    Shape(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Snap(e) => write!(f, "{e}"),
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot config fingerprint {found:#018x} does not match this \
                 run's {expected:#018x}: refusing to resume (different topology, \
                 seed, or parameters)"
            ),
            SnapshotError::FlowMismatch { expected, found } => write!(
                f,
                "snapshot flow fingerprint {found:#018x} does not match this \
                 run's {expected:#018x}: refusing to fork (different topology, \
                 seed, or non-damping parameters)"
            ),
            SnapshotError::NotWarm => write!(
                f,
                "snapshot was not taken at the warm boundary: refusing to fork \
                 live damping state into a parameter variant"
            ),
            SnapshotError::UnsupportedSink(what) => {
                write!(f, "the {what} does not support snapshotting")
            }
            SnapshotError::Shape(what) => write!(
                f,
                "snapshot shape mismatch ({what}) despite matching fingerprints \
                 — this is a bug"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Snap(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SnapError> for SnapshotError {
    fn from(e: SnapError) -> Self {
        SnapshotError::Snap(e)
    }
}

/// A captured simulation state, ready to write to disk or restore into
/// a freshly constructed [`Network`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// The fingerprints the snapshot is keyed by.
    pub key: SnapshotKey,
    /// The serialised state.
    payload: Vec<u8>,
}

impl Snapshot {
    /// Serialises the network's complete mutable state. Takes `&mut`
    /// because pending timer-wheel events are drained and re-scheduled
    /// (the wheel has no iterator); the network is unchanged
    /// afterwards. Call only at a drive boundary (after
    /// [`Network::warm_up`], between workloads, or inside a
    /// [`Network::run_schedules_with_checkpoints`] pause) — mid-window
    /// capture is impossible by construction since no `&mut Network`
    /// escapes a window.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::UnsupportedSink`] when the trace or ledger sink
    /// cannot checkpoint its state.
    pub fn capture<S: TraceSink>(
        net: &mut Network<S>,
        key: SnapshotKey,
    ) -> Result<Snapshot, SnapshotError> {
        let mut enc = Encoder::new();
        enc.bool(net.warm_boundary);
        enc.u64(net.now().as_micros());
        enc.bool(net.warmed_up);
        enc.u64(net.rc_seq);
        enc.u64(net.inj_seq);
        enc.u64(net.coord.processed);
        enc.u64(net.windows);
        enc.u64(net.measured_base);
        let table = &net.shared.path_table;
        enc.usize(table.distinct());
        for path in table.paths() {
            enc.usize(path.len());
            for hop in path {
                enc.u32(hop.raw());
            }
        }
        enc.usize(net.shards.len());
        for (shard, queue) in net.shards.iter().zip(&mut net.shared.queues) {
            encode_shard(&mut enc, shard, queue);
        }
        let conv = net
            .coord
            .conv
            .export_snapshot()
            .ok_or(SnapshotError::UnsupportedSink("convergence tracker"))?;
        enc.bytes(&conv);
        let msgs = net
            .coord
            .msgs
            .export_snapshot()
            .ok_or(SnapshotError::UnsupportedSink("message counter"))?;
        enc.bytes(&msgs);
        let sink = net
            .coord
            .sink
            .export_snapshot()
            .ok_or_else(|| SnapshotError::UnsupportedSink(std::any::type_name::<S>()))?;
        enc.bytes(&sink);
        let ledger = net
            .coord
            .ledger
            .export_snapshot()
            .ok_or(SnapshotError::UnsupportedSink("ledger sink"))?;
        enc.bytes(&ledger);
        Ok(Snapshot {
            key,
            payload: enc.into_bytes(),
        })
    }

    /// Whether the snapshot was taken at the warm boundary (eligible
    /// for [`Snapshot::fork_into`]).
    pub fn is_warm(&self) -> bool {
        Decoder::new(&self.payload)
            .bool("warm flag")
            .unwrap_or(false)
    }

    /// The simulated instant the snapshot was taken at.
    pub fn sim_time(&self) -> SimTime {
        let mut dec = Decoder::new(&self.payload);
        let _ = dec.bool("warm flag");
        SimTime::from_micros(dec.u64("sim time").unwrap_or(0))
    }

    /// Serialised payload size in bytes (container overhead excluded).
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// Writes the snapshot to `path` via temp file + atomic rename;
    /// returns the file's total byte length. A kill at any instant
    /// leaves either no file, the previous complete snapshot, or the
    /// new complete snapshot — never a torn one.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Snap`] on I/O failure.
    pub fn write(&self, path: &Path) -> Result<u64, SnapshotError> {
        let len =
            rfd_snap::write_atomic(path, self.key.config_fp, self.key.flow_fp, &self.payload)?;
        rfd_obs::inc("snapshot.saves");
        rfd_obs::add("snapshot.bytes", len);
        Ok(len)
    }

    /// Reads and validates a snapshot file (magic, version, and content
    /// hash are all checked; truncated or bit-flipped files are
    /// refused).
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Snap`] on I/O failure or a corrupt container.
    pub fn read(path: &Path) -> Result<Snapshot, SnapshotError> {
        let c = rfd_snap::read_file(path)?;
        Ok(Snapshot {
            key: SnapshotKey {
                config_fp: c.config_fp,
                flow_fp: c.flow_fp,
            },
            payload: c.payload,
        })
    }

    /// Restores the snapshot into a freshly constructed network of the
    /// **same full configuration** (same [`fingerprints`] inputs).
    /// After this, the run continues exactly as the snapshotted one
    /// would have: identical traces, ledger records, and report.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ConfigMismatch`] when `key.config_fp` differs
    /// from the snapshot's; decode/shape errors on corrupt payloads.
    pub fn resume_into<S: TraceSink>(
        &self,
        net: &mut Network<S>,
        key: &SnapshotKey,
    ) -> Result<(), SnapshotError> {
        if key.config_fp != self.key.config_fp {
            return Err(SnapshotError::ConfigMismatch {
                expected: key.config_fp,
                found: self.key.config_fp,
            });
        }
        self.restore(net, false)?;
        rfd_obs::inc("snapshot.restores");
        Ok(())
    }

    /// Seeds a freshly constructed **damping-parameter variant** from a
    /// warm snapshot: flow state (RIBs, MRAI pacing, RNG streams, path
    /// tables, clocks) is imported; damping state is rebuilt pristine
    /// under the target's own configuration. The variant then behaves
    /// byte-identically to a cold start that did its own warm-up.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::FlowMismatch`] when `key.flow_fp` differs from
    /// the snapshot's; [`SnapshotError::NotWarm`] when the snapshot was
    /// not taken at the warm boundary.
    pub fn fork_into<S: TraceSink>(
        &self,
        net: &mut Network<S>,
        key: &SnapshotKey,
    ) -> Result<(), SnapshotError> {
        if key.flow_fp != self.key.flow_fp {
            return Err(SnapshotError::FlowMismatch {
                expected: key.flow_fp,
                found: self.key.flow_fp,
            });
        }
        if !self.is_warm() {
            return Err(SnapshotError::NotWarm);
        }
        self.restore(net, true)?;
        rfd_obs::inc("snapshot.forks");
        Ok(())
    }

    fn restore<S: TraceSink>(&self, net: &mut Network<S>, fork: bool) -> Result<(), SnapshotError> {
        let mut dec = Decoder::new(&self.payload);
        let warm = dec.bool("warm flag")?;
        let _sim_time = dec.u64("sim time")?;
        let warmed_up = dec.bool("warmed-up flag")?;
        let rc_seq = dec.u64("rc seq")?;
        let inj_seq = dec.u64("injector seq")?;
        let processed = dec.u64("processed count")?;
        let windows = dec.u64("window count")?;
        let measured_base = dec.u64("measured base")?;
        let n_paths = dec.usize("path count")?;
        let mut paths: Vec<Vec<NodeId>> = Vec::with_capacity(n_paths.min(dec.remaining()));
        for _ in 0..n_paths {
            let hops = dec.usize("path length")?;
            let mut path = Vec::with_capacity(hops.min(dec.remaining()));
            for _ in 0..hops {
                path.push(NodeId::new(dec.u32("path hop")?));
            }
            paths.push(path);
        }
        net.shared.path_table = PathTable::rebuild(paths);
        let n_shards = dec.usize("shard count")?;
        if n_shards != net.shards.len() {
            return Err(SnapshotError::Shape("shard count"));
        }
        let table = &net.shared.path_table;
        let origins = net.shared.origins.len();
        for (shard, queue) in net.shards.iter_mut().zip(&mut net.shared.queues) {
            restore_shard(shard, queue, table, origins, &mut dec, fork)?;
        }
        let conv = dec.bytes("convergence tracker snapshot")?;
        let msgs = dec.bytes("message counter snapshot")?;
        let sink = dec.bytes("trace sink snapshot")?;
        let ledger = dec.bytes("ledger sink snapshot")?;
        if !fork {
            if !net.coord.conv.import_snapshot(conv) {
                return Err(SnapshotError::UnsupportedSink("convergence tracker"));
            }
            if !net.coord.msgs.import_snapshot(msgs) {
                return Err(SnapshotError::UnsupportedSink("message counter"));
            }
            if !net.coord.sink.import_snapshot(sink) {
                return Err(SnapshotError::UnsupportedSink(std::any::type_name::<S>()));
            }
            if !net.coord.ledger.import_snapshot(ledger) {
                return Err(SnapshotError::UnsupportedSink("ledger sink"));
            }
        }
        if !dec.is_done() {
            return Err(SnapshotError::Shape("trailing payload bytes"));
        }
        net.warm_boundary = warm;
        net.warmed_up = warmed_up;
        net.rc_seq = rc_seq;
        net.inj_seq = inj_seq;
        net.coord.processed = processed;
        net.windows = windows;
        net.measured_base = measured_base;
        Ok(())
    }
}

/// Reads a snapshot file's header and integrity metadata without
/// restoring it (the `rfd snapshot inspect` backend). The content hash
/// is verified.
///
/// # Errors
///
/// [`SnapshotError::Snap`] on I/O failure or a corrupt container.
pub fn inspect(path: &Path) -> Result<ContainerInfo, SnapshotError> {
    Ok(rfd_snap::inspect_file(path)?)
}

fn encode_shard(enc: &mut Encoder, shard: &Shard, queue: &mut ShardEngine<NetEvent>) {
    assert!(
        shard.traces.is_empty() && shard.ledger.is_empty(),
        "snapshot capture outside a drive boundary (window buffers not flushed)"
    );
    enc.usize(shard.routers.len());
    for router in &shard.routers {
        router.encode_snapshot(enc);
    }
    enc.seq(&shard.delay_rngs, encode_rng);
    enc.seq(&shard.mrai_rngs, encode_rng);
    enc.seq(&shard.seqs, |e, s| e.u64(*s));
    let mut delivery: Vec<((u32, u32), SimTime)> = shard
        .last_delivery
        .iter()
        .map(|(&link, &at)| (link, at))
        .collect();
    delivery.sort_unstable_by_key(|&(link, _)| link);
    enc.seq(&delivery, |e, &((a, b), at)| {
        e.u32(a);
        e.u32(b);
        e.u64(at.as_micros());
    });
    let mut down: Vec<(u32, u32)> = shard.down_links.iter().copied().collect();
    down.sort_unstable();
    enc.seq(&down, |e, &(a, b)| {
        e.u32(a);
        e.u32(b);
    });
    enc.u64(shard.dropped);
    enc.bool(shard.muted);
    enc.u64(shard.discarded);
    enc.u64(queue.now().as_micros());
    enc.u64(queue.processed());
    // Drain-and-reschedule: pop order is the pure `(time, key)` order,
    // so re-inserting in that same order reproduces identical behaviour
    // (wheel-internal slot ids are never observable).
    let events = queue.drain_pending();
    enc.usize(events.len());
    for (at, key, event) in &events {
        enc.u64(at.as_micros());
        enc.u64(*key);
        encode_event(enc, event);
    }
}

fn restore_shard(
    shard: &mut Shard,
    queue: &mut ShardEngine<NetEvent>,
    table: &PathTable,
    origins: usize,
    dec: &mut Decoder<'_>,
    fork: bool,
) -> Result<(), SnapshotError> {
    let n_routers = dec.usize("router count")?;
    if n_routers != shard.routers.len() {
        return Err(SnapshotError::Shape("router count"));
    }
    for router in &mut shard.routers {
        router.apply_snapshot(dec, table, origins, fork)?;
    }
    let delay_states = dec.seq("delay rng states", decode_rng)?;
    if delay_states.len() != shard.delay_rngs.len() {
        return Err(SnapshotError::Shape("delay rng count"));
    }
    shard.delay_rngs = delay_states;
    let mrai_states = dec.seq("mrai rng states", decode_rng)?;
    if mrai_states.len() != shard.mrai_rngs.len() {
        return Err(SnapshotError::Shape("mrai rng count"));
    }
    shard.mrai_rngs = mrai_states;
    let seqs = dec.seq("event seqs", |d| d.u64("event seq"))?;
    if seqs.len() != shard.seqs.len() {
        return Err(SnapshotError::Shape("event seq count"));
    }
    shard.seqs = seqs;
    shard.last_delivery = dec
        .seq("delivery clamps", |d| {
            let a = d.u32("delivery link")?;
            let b = d.u32("delivery link")?;
            let at = SimTime::from_micros(d.u64("delivery instant")?);
            Ok(((a, b), at))
        })?
        .into_iter()
        .collect();
    shard.down_links = dec
        .seq("down links", |d| {
            Ok((d.u32("down link")?, d.u32("down link")?))
        })?
        .into_iter()
        .collect();
    shard.dropped = dec.u64("dropped count")?;
    shard.muted = dec.bool("muted flag")?;
    shard.discarded = dec.u64("discarded count")?;
    let now = SimTime::from_micros(dec.u64("engine clock")?);
    let engine_processed = dec.u64("engine processed")?;
    let n_events = dec.usize("pending event count")?;
    let mut events = Vec::with_capacity(n_events.min(dec.remaining()));
    for _ in 0..n_events {
        let at = SimTime::from_micros(dec.u64("event time")?);
        let key = dec.u64("event key")?;
        let event = decode_event(dec, table, origins)?;
        events.push((at, key, event));
    }
    queue.set_clock(now, engine_processed);
    queue.restore_pending(events);
    Ok(())
}

fn encode_rng(enc: &mut Encoder, rng: &DetRng) {
    for word in rng.state() {
        enc.u64(word);
    }
}

fn decode_rng(dec: &mut Decoder<'_>) -> Result<DetRng, SnapError> {
    let mut state = [0u64; 4];
    for word in &mut state {
        *word = dec.u64("rng state word")?;
    }
    Ok(DetRng::from_state(state))
}

fn encode_event(enc: &mut Encoder, event: &NetEvent) {
    match *event {
        NetEvent::Deliver { from, to, msg } => {
            enc.u8(0);
            enc.u32(from.raw());
            enc.u32(to.raw());
            enc.u32(msg.prefix.id());
            match msg.payload {
                UpdatePayload::Announce(route) => {
                    enc.u8(1);
                    enc.u32(route.id().raw());
                }
                UpdatePayload::Withdraw => enc.u8(0),
            }
            enc.option(msg.root_cause.as_ref(), encode_root_cause);
            enc.option(msg.degraded.as_ref(), |e, d| e.bool(*d));
        }
        NetEvent::MraiExpiry { node, peer, prefix } => {
            enc.u8(1);
            enc.u32(node.raw());
            enc.u32(peer.raw());
            enc.u32(prefix.id());
        }
        NetEvent::ReuseTimer { node, peer, prefix } => {
            enc.u8(2);
            enc.u32(node.raw());
            enc.u32(peer.raw());
            enc.u32(prefix.id());
        }
        NetEvent::OriginLink { origin, up, rc } => {
            enc.u8(3);
            enc.usize(origin);
            enc.bool(up);
            enc.option(rc.as_ref(), encode_root_cause);
        }
        NetEvent::LinkSession {
            node,
            peer,
            up,
            rc,
            primary,
        } => {
            enc.u8(4);
            enc.u32(node.raw());
            enc.u32(peer.raw());
            enc.bool(up);
            enc.option(rc.as_ref(), encode_root_cause);
            enc.bool(primary);
        }
    }
}

/// Reads a prefix id, refusing one outside the network's `0..origins`
/// (a router's prefix table is indexed by it).
fn decode_prefix(
    dec: &mut Decoder<'_>,
    origins: usize,
    context: &'static str,
) -> Result<Prefix, SnapError> {
    let id = dec.u32(context)?;
    if id as usize >= origins {
        return Err(SnapError::PayloadExhausted {
            context: "prefix id out of range",
        });
    }
    Ok(Prefix::new(id))
}

fn decode_event(
    dec: &mut Decoder<'_>,
    table: &PathTable,
    origins: usize,
) -> Result<NetEvent, SnapError> {
    match dec.u8("event tag")? {
        0 => {
            let from = NodeId::new(dec.u32("deliver from")?);
            let to = NodeId::new(dec.u32("deliver to")?);
            let prefix = decode_prefix(dec, origins, "deliver prefix")?;
            let payload = if dec.u8("deliver payload tag")? == 1 {
                UpdatePayload::Announce(table.route_by_id(dec.u32("deliver route id")?))
            } else {
                UpdatePayload::Withdraw
            };
            let root_cause = dec.option("deliver root cause", decode_root_cause)?;
            let degraded = dec.option("deliver degraded", |d| d.bool("deliver degraded"))?;
            Ok(NetEvent::Deliver {
                from,
                to,
                msg: UpdateMessage {
                    prefix,
                    payload,
                    root_cause,
                    degraded,
                },
            })
        }
        1 => Ok(NetEvent::MraiExpiry {
            node: NodeId::new(dec.u32("mrai node")?),
            peer: NodeId::new(dec.u32("mrai peer")?),
            prefix: decode_prefix(dec, origins, "mrai prefix")?,
        }),
        2 => Ok(NetEvent::ReuseTimer {
            node: NodeId::new(dec.u32("reuse node")?),
            peer: NodeId::new(dec.u32("reuse peer")?),
            prefix: decode_prefix(dec, origins, "reuse prefix")?,
        }),
        3 => Ok(NetEvent::OriginLink {
            origin: dec.usize("origin index")?,
            up: dec.bool("origin status")?,
            rc: dec.option("origin root cause", decode_root_cause)?,
        }),
        4 => Ok(NetEvent::LinkSession {
            node: NodeId::new(dec.u32("session node")?),
            peer: NodeId::new(dec.u32("session peer")?),
            up: dec.bool("session status")?,
            rc: dec.option("session root cause", decode_root_cause)?,
            primary: dec.bool("session primary")?,
        }),
        _ => Err(SnapError::PayloadExhausted {
            context: "unknown event tag",
        }),
    }
}

// ---------------------------------------------------------------------------
// Router capture and restore
// ---------------------------------------------------------------------------
//
// Routes are written as raw interned path ids and resolved against the
// restored [`PathTable`]; everything derivable from configuration
// (damping params, decay tables, the ledger filter) is rebuilt at
// construction time and never serialised.

/// Writes a root cause as (link a, link b, status, seq).
fn encode_root_cause(enc: &mut Encoder, rc: &RootCause) {
    enc.u32(rc.link.0);
    enc.u32(rc.link.1);
    enc.bool(rc.status == LinkStatus::Up);
    enc.u64(rc.seq);
}

/// Reads a root cause written by [`encode_root_cause`].
fn decode_root_cause(dec: &mut Decoder<'_>) -> Result<RootCause, SnapError> {
    let a = dec.u32("root-cause link")?;
    let b = dec.u32("root-cause link")?;
    let up = dec.bool("root-cause status")?;
    let seq = dec.u64("root-cause seq")?;
    let status = if up { LinkStatus::Up } else { LinkStatus::Down };
    Ok(RootCause::new((a, b), status, seq))
}

fn encode_store_state(enc: &mut Encoder, st: &DamperStoreState) {
    enc.seq(&st.keys, |e, v| e.u64(*v));
    enc.seq(&st.penalty, |e, v| e.u64(*v));
    enc.seq(&st.anchor, |e, v| e.u64(*v));
    enc.seq(&st.flags, |e, v| e.u8(*v));
    enc.seq(&st.reuse_deadline, |e, v| e.u64(*v));
    enc.seq(&st.free, |e, v| e.u32(*v));
}

fn decode_store_state(dec: &mut Decoder<'_>) -> Result<DamperStoreState, SnapError> {
    Ok(DamperStoreState {
        keys: dec.seq("store keys", |d| d.u64("store key"))?,
        penalty: dec.seq("store penalty", |d| d.u64("store penalty"))?,
        anchor: dec.seq("store anchor", |d| d.u64("store anchor"))?,
        flags: dec.seq("store flags", |d| d.u8("store flag"))?,
        reuse_deadline: dec.seq("store reuse deadlines", |d| d.u64("store reuse deadline"))?,
        free: dec.seq("store free list", |d| d.u32("store free slot"))?,
    })
}

fn encode_rib_in(enc: &mut Encoder, entry: &RibInEntry) {
    enc.option(entry.route.as_ref(), |e, r| e.u32(r.id().raw()));
    enc.option(entry.damper_slot.as_ref(), |e, s| e.u32(*s));
    enc.bool(entry.suppressed);
    enc.option(entry.rcn.as_ref(), |e, rcn| {
        e.usize(rcn.history().capacity());
        e.u8(match rcn.policy() {
            RcnChargePolicy::ByRootCause => 0,
            RcnChargePolicy::ByUpdateKind => 1,
        });
        let history: Vec<RootCause> = rcn.history().entries().copied().collect();
        e.seq(&history, encode_root_cause);
    });
    enc.option(entry.selective.as_ref(), |e, s| e.u64(s.skipped()));
    enc.option(entry.last_rc.as_ref(), encode_root_cause);
    enc.u64(entry.charges);
}

fn decode_rib_in(dec: &mut Decoder<'_>, table: &PathTable) -> Result<RibInEntry, SnapError> {
    let route = dec
        .option("rib-in route", |d| d.u32("rib-in route id"))?
        .map(|raw| table.route_by_id(raw));
    let damper_slot = dec.option("rib-in damper slot", |d| d.u32("rib-in damper slot"))?;
    let suppressed = dec.bool("rib-in suppressed")?;
    let rcn = dec.option("rib-in rcn", |d| {
        let capacity = d.usize("rcn capacity")?;
        let policy = match d.u8("rcn policy")? {
            0 => RcnChargePolicy::ByRootCause,
            _ => RcnChargePolicy::ByUpdateKind,
        };
        let history = d.seq("rcn history", decode_root_cause)?;
        Ok(Box::new(RcnFilter::restore(capacity, policy, history)))
    })?;
    let selective = dec.option("rib-in selective", |d| {
        Ok(SelectiveFilter::from_skipped(d.u64("selective skipped")?))
    })?;
    let last_rc = dec.option("rib-in last rc", decode_root_cause)?;
    let charges = dec.u64("rib-in charges")?;
    Ok(RibInEntry {
        route,
        damper_slot,
        suppressed,
        rcn,
        selective,
        last_rc,
        charges,
    })
}

fn encode_mrai(enc: &mut Encoder, m: &MraiPeer) {
    enc.u64(m.ready_at.as_micros());
    enc.bool(m.dirty);
    enc.bool(m.timer_pending);
    enc.option(m.last_announced_len.as_ref(), |e, l| {
        e.usize(usize::from(*l))
    });
}

fn decode_mrai(dec: &mut Decoder<'_>) -> Result<MraiPeer, SnapError> {
    Ok(MraiPeer {
        ready_at: SimTime::from_micros(dec.u64("mrai ready-at")?),
        dirty: dec.bool("mrai dirty")?,
        timer_pending: dec.bool("mrai timer-pending")?,
        last_announced_len: dec.option("mrai last announced len", |d| {
            let len = d.usize("mrai last announced len")?;
            u16::try_from(len).map_err(|_| SnapError::PayloadExhausted {
                context: "mrai last announced len",
            })
        })?,
    })
}

impl Router {
    /// Serialises all mutable router state into `enc`.
    fn encode_snapshot(&self, enc: &mut Encoder) {
        enc.bool(self.charging_enabled);
        enc.seq(&self.down, |e, d| e.bool(*d));
        let store_state = self.damper_store.as_ref().map(DamperStore::export_state);
        enc.option(store_state.as_ref(), encode_store_state);
        enc.usize(self.known_prefixes().count());
        for (id, state) in self.prefixes.iter().enumerate() {
            let Some(state) = state else { continue };
            enc.u32(id as u32);
            enc.bool(state.originated);
            enc.seq(&state.peers, |e, p| {
                e.option(p.rib_in.as_ref(), encode_rib_in)
            });
            enc.option(state.best.as_ref(), |e, b| {
                e.option(b.learned_from.as_ref(), |e, n| e.u32(n.raw()));
                e.u32(b.route.id().raw());
            });
            enc.seq(&state.peers, |e, p| {
                e.option(p.rib_out.as_ref(), |e, r| e.u32(r.id().raw()));
            });
            enc.seq(&state.peers, |e, p| encode_mrai(e, &p.mrai));
            enc.option(state.current_rc.as_ref(), encode_root_cause);
        }
    }

    /// Restores state written by [`Router::encode_snapshot`] into a
    /// freshly constructed router (same peer set; for `fork == false`,
    /// same full configuration).
    ///
    /// With `fork == true` the damping-related state is *not* imported:
    /// the router keeps the damper store its own (variant) configuration
    /// built, and every restored RIB-IN entry gets a freshly allocated
    /// damper slot and pristine filters — valid only for warm snapshots,
    /// where penalties are zero and filters are untouched, so a forked
    /// run is indistinguishable from a cold start of the variant.
    ///
    /// # Panics
    ///
    /// Panics when the decoded shape disagrees with this router's peer
    /// set or damping deployment — the config fingerprint check on the
    /// snapshot file makes that unreachable short of an internal bug.
    /// A prefix id outside the network's `0..origins` is an error: the
    /// prefix table is indexed by it.
    fn apply_snapshot(
        &mut self,
        dec: &mut Decoder<'_>,
        table: &PathTable,
        origins: usize,
        fork: bool,
    ) -> Result<(), SnapError> {
        let n = self.slots.len();
        self.charging_enabled = dec.bool("router charging flag")?;
        let down = dec.seq("router down flags", |d| d.bool("down flag"))?;
        assert_eq!(down.len(), n, "snapshot peer count mismatch");
        self.down = down;
        let store_state = dec.option("router damper store", decode_store_state)?;
        if !fork {
            match (self.damper_store.as_mut(), store_state) {
                (Some(store), Some(state)) => store
                    .import_state(state)
                    .expect("hash-valid snapshot holds a consistent damper store"),
                (None, None) => {}
                _ => panic!("snapshot damping deployment mismatch at router {}", self.id),
            }
        }
        self.prefixes.clear();
        let n_prefixes = dec.usize("router prefix count")?;
        for _ in 0..n_prefixes {
            let prefix = decode_prefix(dec, origins, "prefix id")?;
            let mut state = PrefixState::new(n);
            state.originated = dec.bool("prefix originated")?;
            let rib_in = dec.seq("prefix rib-in", |d| {
                d.option("rib-in entry", |d| decode_rib_in(d, table))
            })?;
            assert_eq!(rib_in.len(), n, "snapshot rib-in width mismatch");
            for (slot, entry) in rib_in.into_iter().enumerate() {
                let Some(entry) = entry else { continue };
                state.peers[slot].rib_in = Some(if fork {
                    let damper_slot = self
                        .damper_store
                        .as_mut()
                        .map(|s| s.insert(damper_key(self.slots[slot], prefix)));
                    let mut fresh = RibInEntry::new(damper_slot, self.config.filter);
                    fresh.route = entry.route;
                    fresh.last_rc = entry.last_rc;
                    fresh
                } else {
                    entry
                });
            }
            state.best = dec.option("prefix best", |d| {
                let learned_from = d
                    .option("best learned-from", |d| d.u32("best learned-from"))?
                    .map(NodeId::new);
                let route = table.route_by_id(d.u32("best route id")?);
                Ok(BestRoute {
                    learned_from,
                    route,
                })
            })?;
            let rib_out = dec.seq("prefix rib-out", |d| {
                Ok(d.option("rib-out route", |d| d.u32("rib-out route id"))?
                    .map(|raw| table.route_by_id(raw)))
            })?;
            assert_eq!(rib_out.len(), n, "snapshot rib-out width mismatch");
            let mrai = dec.seq("prefix mrai", decode_mrai)?;
            assert_eq!(mrai.len(), n, "snapshot mrai width mismatch");
            for (p, (rib_out, mrai)) in state.peers.iter_mut().zip(rib_out.into_iter().zip(mrai)) {
                p.rib_out = rib_out;
                p.mrai = mrai;
            }
            state.current_rc = dec.option("prefix current rc", decode_root_cause)?;
            *prefix_entry(&mut self.prefixes, prefix) = Some(state);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_naming_an_unknown_prefix_are_refused() {
        // Deliver, MRAI expiry and reuse timer all carry two node ids,
        // then the prefix id: prefix 3 of a three-origin network.
        for tag in 0..3 {
            let mut enc = Encoder::new();
            enc.u8(tag);
            for word in [0, 1, 3] {
                enc.u32(word);
            }
            let bytes = enc.into_bytes();
            let err = decode_event(&mut Decoder::new(&bytes), &PathTable::new(), 3);
            assert!(
                matches!(
                    err,
                    Err(SnapError::PayloadExhausted {
                        context: "prefix id out of range"
                    })
                ),
                "tag {tag}: {err:?}"
            );
        }
    }
}
