//! Snapshots of a quiescent [`Network`].
//!
//! A snapshot serialises the complete mutable state of a network whose
//! event queue is empty — before a run, after [`Network::warm_up`], or
//! after a workload ran to quiescence: the run counters and the clock,
//! the interned path table, every router (RIBs, MRAI pacing, damper
//! stores, RCN/selective filters) with its RNG streams and sequence
//! number, the TCP-ordering clamps and down links, and last the two
//! metric aggregators and the trace, in [`export_trace`]'s line format
//! (a snapshot holds a default `Network`, whose sink is a [`VecSink`]).
//! The state goes into a fingerprinted binary container (see
//! [`rfd_snap`]) written with a temp-file + atomic-rename protocol, so
//! a process killed mid-write can never leave a half snapshot behind.
//!
//! [`Snapshot::resume_into`] restores it into a freshly built network
//! of the same configuration — the config fingerprint (full topology +
//! [`NetworkConfig`]) must match — and the restored network then runs
//! any workload exactly as the captured one would: identical traces,
//! ledger records and report. A network with pending events (one the
//! horizon or the event budget stopped) is refused at capture, so the
//! format has no event codec.
//!
//! **Not captured** (rebuilt or irrelevant on restore): decay tables
//! and damping parameters, the policy and origins (all derived from
//! config), and the path interner's cell index and hit counters
//! (rebuilt from the path list, which is in id order).

use std::path::Path;

use rfd_core::{
    DamperStore, DamperStoreState, LinkStatus, RcnChargePolicy, RcnFilter, RootCause,
    RootCauseHistory, SelectiveFilter,
};
use rfd_metrics::{export_trace, parse_trace, ConvergenceTracker, MessageCounter, VecSink};
use rfd_sim::{DetRng, SimTime};
use rfd_snap::{Decoder, Encoder, Fingerprint, SnapError};
use rfd_topology::{Graph, NodeId};

use super::{Network, State};
use crate::config::NetworkConfig;
use crate::intern::{PathTable, Route};
use crate::message::Prefix;
use crate::rib::{BestRoute, FilterState, RibInEntry};
use crate::router::{damper_key, MraiPeer, PeerSlot, PrefixHead, Router};

/// The fingerprint a snapshot is keyed by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotKey {
    /// Full-configuration fingerprint: topology, attachments, and every
    /// [`NetworkConfig`] field. Gates [`Snapshot::resume_into`].
    pub config_fp: u64,
}

/// Computes the [`SnapshotKey`] for a network built over `base` with
/// origins attached to `isps` under `config`. Compute it from the same
/// inputs handed to [`Network::new_multi`] — the snapshot machinery
/// never re-derives it.
pub fn fingerprints(base: &Graph, isps: &[NodeId], config: &NetworkConfig) -> SnapshotKey {
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
    // across processes — and a fingerprint written to a file must be.
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
    SnapshotKey {
        config_fp: fp.finish(),
    }
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
    /// Capture refused: events are still pending (the horizon or the
    /// event budget stopped the run before it quiesced).
    NotQuiescent {
        /// Events on the queue.
        pending: usize,
    },
    /// The network's ledger holds records (they are never
    /// checkpointed).
    UnsupportedSink(&'static str),
    /// The payload decoded cleanly but does not fit the target network:
    /// a count, width or damping deployment that disagrees with it, or
    /// a path table no run could have interned.
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
            SnapshotError::NotQuiescent { pending } => write!(
                f,
                "cannot snapshot a network with {pending} pending events: \
                 capture before a run or after one reached quiescence"
            ),
            SnapshotError::UnsupportedSink(what) => {
                write!(f, "the {what} does not support snapshotting")
            }
            SnapshotError::Shape(what) => {
                write!(f, "snapshot payload does not fit this network: {what}")
            }
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
    /// The fingerprint the snapshot is keyed by.
    pub key: SnapshotKey,
    /// The serialised state.
    payload: Vec<u8>,
}

impl Snapshot {
    /// Serialises the network's complete mutable state.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::NotQuiescent`] when events are pending;
    /// [`SnapshotError::UnsupportedSink`] when the ledger holds records
    /// (drain it with [`Network::take_ledger`] first).
    pub fn capture(net: &Network, key: SnapshotKey) -> Result<Snapshot, SnapshotError> {
        let pending = net.state.queue.len();
        if pending > 0 {
            return Err(SnapshotError::NotQuiescent { pending });
        }
        let mut enc = Encoder::new();
        enc.u64(net.now().as_micros());
        enc.bool(net.warmed_up);
        enc.u64(net.rc_seq);
        enc.u64(net.inj_seq);
        enc.u64(net.events_processed());
        enc.u64(net.state.windows);
        enc.u64(net.measured_base);
        encode_state(&mut enc, &net.state)?;
        Ok(Snapshot {
            key,
            payload: enc.into_bytes(),
        })
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
        let len = rfd_snap::write_atomic(path, self.key.config_fp, &self.payload)?;
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
            },
            payload: c.payload,
        })
    }

    /// Restores the snapshot into a freshly constructed network of the
    /// **same full configuration** (same [`fingerprints`] inputs).
    /// After this, the network runs exactly as the captured one would
    /// have: identical traces, ledger records, and report.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ConfigMismatch`] when `key.config_fp` differs
    /// from the snapshot's; decode/shape errors on corrupt payloads (a
    /// refused restore may leave the network half-restored: rebuild
    /// it).
    pub fn resume_into(&self, net: &mut Network, key: &SnapshotKey) -> Result<(), SnapshotError> {
        if key.config_fp != self.key.config_fp {
            return Err(SnapshotError::ConfigMismatch {
                expected: key.config_fp,
                found: self.key.config_fp,
            });
        }
        let mut dec = Decoder::new(&self.payload);
        let now = SimTime::from_micros(dec.u64("sim time")?);
        let warmed_up = dec.bool("warmed-up flag")?;
        let rc_seq = dec.u64("rc seq")?;
        let inj_seq = dec.u64("injector seq")?;
        let processed = dec.u64("processed count")?;
        let windows = dec.u64("window count")?;
        let measured_base = dec.u64("measured base")?;
        restore_state(&mut net.state, &mut dec)?;
        if !dec.is_done() {
            return Err(SnapshotError::Shape("trailing payload bytes"));
        }
        net.state.queue.set_clock(now, processed);
        net.warmed_up = warmed_up;
        net.rc_seq = rc_seq;
        net.inj_seq = inj_seq;
        net.state.windows = windows;
        net.measured_base = measured_base;
        rfd_obs::inc("snapshot.restores");
        Ok(())
    }
}

/// Writes the one simulation state: path table, routers and their
/// per-node streams, link state, then the aggregators and the trace.
fn encode_state(enc: &mut Encoder, state: &State<VecSink>) -> Result<(), SnapshotError> {
    let table = &state.path_table;
    enc.usize(table.distinct());
    for route in (0..table.distinct() as u32).map_while(|raw| table.route_by_id(raw)) {
        enc.usize(route.len());
        for hop in table.hops(route) {
            enc.u32(hop.raw());
        }
    }
    enc.usize(state.routers.len());
    for router in &state.routers {
        router.encode_snapshot(enc);
    }
    enc.seq(&state.delay_rngs, encode_rng);
    enc.seq(&state.mrai_rngs, encode_rng);
    enc.seq(&state.seqs, |e, s| e.u64(*s));
    let mut delivery: Vec<((u32, u32), SimTime)> = state
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
    let mut down: Vec<(u32, u32)> = state.down_links.iter().copied().collect();
    down.sort_unstable();
    enc.seq(&down, |e, &(a, b)| {
        e.u32(a);
        e.u32(b);
    });
    enc.u64(state.dropped);
    enc.bool(state.muted);
    enc.u64(state.discarded);
    enc.bytes(&state.conv.export_state());
    enc.bytes(&state.msgs.export_state());
    enc.bytes(export_trace(&state.sink).as_bytes());
    // Ledger records are not checkpointed: the section stays empty.
    if !state.ledger.is_empty() {
        return Err(SnapshotError::UnsupportedSink("non-empty ledger"));
    }
    enc.bytes(&[]);
    Ok(())
}

/// Reads what [`encode_state`] wrote into a freshly built state of the
/// same shape.
fn restore_state(state: &mut State<VecSink>, dec: &mut Decoder<'_>) -> Result<(), SnapshotError> {
    let paths = dec.seq("path count", |d| {
        d.seq("path length", |d| Ok(NodeId::new(d.u32("path hop")?)))
    })?;
    state.path_table = PathTable::rebuild(paths).ok_or(SnapshotError::Shape(
        "path table lists an empty, over-long, looped or repeated path, or one before its tail",
    ))?;
    let table = &state.path_table;
    let origins = state.origins.len();
    let n_routers = dec.usize("router count")?;
    if n_routers != state.routers.len() {
        return Err(SnapshotError::Shape("router count"));
    }
    for router in &mut state.routers {
        router.apply_snapshot(dec, table, origins)?;
    }
    let delay_states = dec.seq("delay rng states", decode_rng)?;
    if delay_states.len() != state.delay_rngs.len() {
        return Err(SnapshotError::Shape("delay rng count"));
    }
    state.delay_rngs = delay_states;
    let mrai_states = dec.seq("mrai rng states", decode_rng)?;
    if mrai_states.len() != state.mrai_rngs.len() {
        return Err(SnapshotError::Shape("mrai rng count"));
    }
    state.mrai_rngs = mrai_states;
    let seqs = dec.seq("event seqs", |d| d.u64("event seq"))?;
    if seqs.len() != state.seqs.len() {
        return Err(SnapshotError::Shape("event seq count"));
    }
    state.seqs = seqs;
    state.last_delivery = dec
        .seq("delivery clamps", |d| {
            let a = d.u32("delivery link")?;
            let b = d.u32("delivery link")?;
            let at = SimTime::from_micros(d.u64("delivery instant")?);
            Ok(((a, b), at))
        })?
        .into_iter()
        .collect();
    state.down_links = dec
        .seq("down links", |d| {
            Ok((d.u32("down link")?, d.u32("down link")?))
        })?
        .into_iter()
        .collect();
    state.dropped = dec.u64("dropped count")?;
    state.muted = dec.bool("muted flag")?;
    state.discarded = dec.u64("discarded count")?;
    state.conv = ConvergenceTracker::import_state(dec.bytes("convergence tracker snapshot")?)?;
    state.msgs = MessageCounter::import_state(dec.bytes("message counter snapshot")?)?;
    state.sink = decode_trace(dec.bytes("trace sink snapshot")?)?;
    if !dec.bytes("ledger snapshot")?.is_empty() {
        return Err(SnapshotError::UnsupportedSink("non-empty ledger"));
    }
    Ok(())
}

/// Reads the trace section: [`export_trace`]'s line format.
fn decode_trace(bytes: &[u8]) -> Result<VecSink, SnapError> {
    std::str::from_utf8(bytes)
        .ok()
        .and_then(|text| parse_trace(text).ok())
        .ok_or(invalid("trace sink snapshot"))
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

// ---------------------------------------------------------------------------
// Router capture and restore
// ---------------------------------------------------------------------------
//
// Routes are written as raw interned path ids and resolved against the
// restored [`PathTable`]; everything derivable from configuration
// (damping params, decay tables, the ledger filter) is rebuilt at
// construction time and never serialised.

/// A decode error naming what failed to decode.
fn invalid(context: &'static str) -> SnapError {
    SnapError::Invalid { context }
}

/// Resolves a raw path id against the restored table.
fn route_of(table: &PathTable, raw: u32) -> Result<Route, SnapError> {
    table.route_by_id(raw).ok_or(invalid("route id"))
}

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
    let cold = entry.filters.as_deref();
    enc.option(entry.route.as_ref(), |e, r| e.u32(r.id().raw()));
    enc.option(entry.damper_slot().as_ref(), |e, s| e.u32(*s));
    enc.bool(entry.suppressed);
    enc.option(cold.and_then(|c| c.rcn.as_ref()), |e, rcn| {
        e.usize(rcn.history().capacity());
        e.u8(match rcn.policy() {
            RcnChargePolicy::ByRootCause => 0,
            RcnChargePolicy::ByUpdateKind => 1,
        });
        let history: Vec<RootCause> = rcn.history().entries().copied().collect();
        e.seq(&history, encode_root_cause);
    });
    enc.option(cold.and_then(|c| c.selective.as_ref()), |e, s| {
        e.u64(s.skipped())
    });
    enc.option(cold.and_then(|c| c.last_rc.as_ref()), encode_root_cause);
    enc.u64(u64::from(entry.charges));
}

fn decode_rib_in(dec: &mut Decoder<'_>, table: &PathTable) -> Result<RibInEntry, SnapError> {
    let route = dec.option("rib-in route", |d| {
        route_of(table, d.u32("rib-in route id")?)
    })?;
    let slot = dec.option("rib-in damper slot", |d| {
        RibInEntry::pack_slot(d.u32("rib-in damper slot")?).ok_or(invalid("rib-in damper slot"))
    })?;
    let suppressed = dec.bool("rib-in suppressed")?;
    let rcn = dec.option("rib-in rcn", |d| {
        // Every RCN filter the network builds has the default
        // capacity; anything else would be asserted on or allocated.
        let capacity = d.usize("rcn capacity")?;
        if capacity == 0 || capacity > RootCauseHistory::DEFAULT_CAPACITY {
            return Err(invalid("rcn capacity"));
        }
        let policy = match d.u8("rcn policy")? {
            0 => RcnChargePolicy::ByRootCause,
            _ => RcnChargePolicy::ByUpdateKind,
        };
        let history = d.seq("rcn history", decode_root_cause)?;
        Ok(RcnFilter::restore(capacity, policy, history))
    })?;
    let selective = dec.option("rib-in selective", |d| {
        Ok(SelectiveFilter::from_skipped(d.u64("selective skipped")?))
    })?;
    let last_rc = dec.option("rib-in last rc", decode_root_cause)?;
    let charges =
        u32::try_from(dec.u64("rib-in charges")?).map_err(|_| invalid("rib-in charges"))?;
    let filters = FilterState {
        rcn,
        selective,
        last_rc,
    };
    Ok(RibInEntry {
        route,
        slot,
        suppressed,
        charges,
        filters: filters.boxed(),
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
            u16::try_from(len).map_err(|_| invalid("mrai last announced len"))
        })?,
    })
}

impl Router {
    /// Serialises all mutable router state into `enc`.
    fn encode_snapshot(&self, enc: &mut Encoder) {
        enc.bool(self.charging_enabled);
        enc.seq(&self.links, |e, l| e.bool(l.down));
        let store_state = self.damper_store.as_ref().map(DamperStore::export_state);
        enc.option(store_state.as_ref(), encode_store_state);
        enc.usize(self.known_prefixes().count());
        for prefix in self.known_prefixes() {
            let id = prefix.id() as usize;
            let head = &self.heads[id];
            let row = &self.rib[id * self.links.len()..][..self.links.len()];
            enc.u32(prefix.id());
            enc.bool(head.originated);
            enc.seq(row, |e, p| e.option(p.rib_in.as_ref(), encode_rib_in));
            enc.option(head.best.as_ref(), |e, b| {
                e.option(b.learned_from.as_ref(), |e, n| e.u32(n.raw()));
                e.u32(b.route.id().raw());
            });
            enc.seq(row, |e, p| {
                e.option(p.rib_out.as_ref(), |e, id| e.u32(id.raw()));
            });
            enc.seq(row, |e, p| encode_mrai(e, &p.mrai));
            enc.option(head.current_rc.as_ref(), encode_root_cause);
        }
    }

    /// Restores state written by [`Router::encode_snapshot`] into a
    /// freshly constructed router of the same configuration. A payload
    /// that disagrees with this router's peer set or damping
    /// deployment, names a prefix outside the network's `0..origins`
    /// (the prefix tables are indexed by it) or a path the table does not
    /// hold, puts a route containing this router in RIB-IN (the
    /// decision process does not loop-check), or gives a RIB-IN entry a
    /// damper slot the restored store does not hold for that entry's
    /// (peer, prefix) — free, out of range, another entry's, or on a
    /// router that does not damp — is refused.
    fn apply_snapshot(
        &mut self,
        dec: &mut Decoder<'_>,
        table: &PathTable,
        origins: usize,
    ) -> Result<(), SnapshotError> {
        let n = self.links.len();
        let width = |len: usize, what| {
            if len == n {
                Ok(())
            } else {
                Err(SnapshotError::Shape(what))
            }
        };
        self.charging_enabled = dec.bool("router charging flag")?;
        let down = dec.seq("router down flags", |d| d.bool("down flag"))?;
        width(down.len(), "router peer count")?;
        for (link, down) in self.links.iter_mut().zip(down) {
            link.down = down;
        }
        let store_state = dec.option("router damper store", decode_store_state)?;
        match (self.damper_store.as_mut(), store_state) {
            (Some(store), Some(state)) => store
                .import_state(state)
                .map_err(|_| SnapshotError::Shape("inconsistent damper store"))?,
            (None, None) => {}
            _ => return Err(SnapshotError::Shape("router damping deployment")),
        }
        self.heads.clear();
        self.rib.clear();
        self.reserve_prefixes(origins);
        let n_prefixes = dec.usize("router prefix count")?;
        for _ in 0..n_prefixes {
            let id = dec.u32("prefix id")?;
            if id as usize >= origins {
                return Err(invalid("prefix id").into());
            }
            let id = id as usize;
            let originated = dec.bool("prefix originated")?;
            let rib_in = dec.seq("prefix rib-in", |d| {
                d.option("rib-in entry", |d| decode_rib_in(d, table))
            })?;
            width(rib_in.len(), "rib-in width")?;
            for (entry, link) in rib_in.iter().zip(&self.links) {
                let Some(slot) = entry.as_ref().and_then(RibInEntry::damper_slot) else {
                    continue;
                };
                let held = self.damper_store.as_ref().and_then(|s| s.occupant(slot));
                if held != Some(damper_key(link.peer, Prefix::new(id as u32))) {
                    return Err(invalid("rib-in damper slot not held for its entry").into());
                }
            }
            let mut routes = rib_in.iter().flatten().filter_map(|e| e.route);
            if routes.any(|r| table.contains(r, self.id())) {
                return Err(invalid("rib-in route through the router").into());
            }
            let best = dec.option("prefix best", |d| {
                let learned_from = d
                    .option("best learned-from", |d| d.u32("best learned-from"))?
                    .map(NodeId::new);
                let route = route_of(table, d.u32("best route id")?)?;
                Ok(BestRoute {
                    learned_from,
                    route,
                })
            })?;
            let rib_out = dec.seq("prefix rib-out", |d| {
                d.option("rib-out route", |d| {
                    Ok(route_of(table, d.u32("rib-out route id")?)?.id())
                })
            })?;
            width(rib_out.len(), "rib-out width")?;
            let mrai = dec.seq("prefix mrai", decode_mrai)?;
            width(mrai.len(), "mrai width")?;
            let row = &mut self.rib[id * n..][..n];
            for (p, ((rib_in, rib_out), mrai)) in row
                .iter_mut()
                .zip(rib_in.into_iter().zip(rib_out).zip(mrai))
            {
                *p = PeerSlot {
                    rib_in,
                    rib_out,
                    mrai,
                };
            }
            self.heads[id] = PrefixHead {
                best,
                current_rc: dec.option("prefix current rc", decode_root_cause)?,
                originated,
                known: true,
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace section that is not UTF-8 or not the line format is a
    /// decode error.
    #[test]
    fn a_bad_trace_section_is_a_decode_error() {
        for bad in [&b"0 flap 0 down\n\xff\n"[..], b"0 unknownkind 1 2\n"] {
            assert!(matches!(
                decode_trace(bad),
                Err(SnapError::Invalid {
                    context: "trace sink snapshot"
                })
            ));
        }
    }

    /// Values the entry's narrowed fields cannot hold are refused, never
    /// truncated: damper slot `u32::MAX` and a charge count past
    /// `u32::MAX`. The largest values that fit still decode.
    #[test]
    fn rib_in_refuses_a_crafted_slot_or_charge_count() {
        let entry = |slot: u32, charges: u64| {
            let mut enc = Encoder::new();
            enc.u8(0); // no route
            enc.option(Some(&slot), |e, s| e.u32(*s));
            enc.bool(false);
            enc.u8(0); // no RCN filter, selective filter or last root cause
            enc.u8(0);
            enc.u8(0);
            enc.u64(charges);
            enc.into_bytes()
        };
        let decode = |bytes: Vec<u8>| decode_rib_in(&mut Decoder::new(&bytes), &PathTable::new());
        for (bytes, context) in [
            (entry(u32::MAX, 0), "rib-in damper slot"),
            (entry(0, u64::from(u32::MAX) + 1), "rib-in charges"),
        ] {
            let err = decode(bytes);
            assert!(
                matches!(err, Err(SnapError::Invalid { context: c }) if c == context),
                "{context}: {err:?}"
            );
        }
        let fits = decode(entry(u32::MAX - 1, u64::from(u32::MAX))).expect("fits");
        assert_eq!(fits.damper_slot(), Some(u32::MAX - 1));
        assert_eq!(fits.charges, u32::MAX);
    }

    /// A crafted RCN history capacity is refused, neither asserted on
    /// (zero) nor allocated (huge).
    #[test]
    fn rib_in_refuses_a_crafted_rcn_capacity() {
        for capacity in [0, usize::MAX] {
            let mut enc = Encoder::new();
            enc.u8(0); // no route
            enc.u8(0); // no damper slot
            enc.bool(false);
            enc.u8(1); // an RCN filter
            enc.usize(capacity);
            enc.u8(0);
            enc.usize(0);
            let bytes = enc.into_bytes();
            let err = decode_rib_in(&mut Decoder::new(&bytes), &PathTable::new());
            assert!(
                matches!(
                    err,
                    Err(SnapError::Invalid {
                        context: "rcn capacity"
                    })
                ),
                "capacity {capacity}: {err:?}"
            );
        }
    }
}
