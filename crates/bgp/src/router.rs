//! The BGP router model.
//!
//! Each router implements the receive → damp → select → advertise
//! pipeline of Figure 2, independently **per prefix** (RFC 2439
//! damping state is per (peer, prefix) pair):
//!
//! 1. an incoming update charges the (peer, prefix) damping penalty
//!    (through the RCN or selective filter when deployed) and updates
//!    the RIB-IN (a looped path enters it as a withdrawal);
//! 2. the decision process picks the best usable route (suppressed
//!    entries are ineligible);
//! 3. if the best route changed, the RIB-OUT is synchronised with every
//!    peer: withdrawals go out immediately, announcements are paced by
//!    the per-(peer, prefix) MRAI timer and coalesced while it runs.
//!
//! Reuse timers are delivered back to the network harness; a released
//! route re-enters the decision process, which makes the reuse *noisy*
//! (best route changes, updates sent) or *silent* (no change) — the
//! distinction at the centre of the paper's timer-interaction analysis
//! (Figures 5 and 6).
//!
//! ## Storage layout
//!
//! Prefix ids are dense (`0..origins`) and the peer set is fixed at
//! construction, so a router keeps two flat tables and no per-prefix
//! allocation. The 64-byte per-(prefix, peer) slots (RIB-IN entry,
//! RIB-OUT path id, MRAI pacing) sit in one table indexed
//! `prefix × peers + slot`; the per-prefix heads (originated flag, best
//! route, root cause to stamp) sit in a dense table beside it, so a
//! handler reads the head and the slot as two independent loads rather
//! than a pointer chase. `Network` sizes both once from its origin
//! count; a standalone router grows them on the first update for a new
//! prefix. Slot order is ascending `NodeId` (a once-built sorted peer
//! index), so the decision process visits candidates lowest peer first,
//! and head order is ascending prefix id. Routes are interned [`Route`]
//! handles (see [`crate::intern`]); the [`PathTable`] is threaded
//! through every handler so the hot path never clones a path vector.

use std::sync::Arc;

use rfd_core::{
    DamperStore, DampingParams, LedgerEvent, LedgerFilter, LedgerRecord, RelativePreference,
    ReuseCheck, RootCause, UpdateKind,
};
use rfd_metrics::TraceEventKind;
use rfd_sim::{DetRng, SimDuration, SimTime};
use rfd_topology::NodeId;

use crate::config::{PenaltyFilter, ProtocolOptions};
use crate::intern::{PathId, PathTable, Route};
use crate::message::{Prefix, UpdateMessage, UpdatePayload};
use crate::policy::Policy;
use crate::rib::{BestRoute, RibInEntry};

/// Per-router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Damping parameters; `None` disables damping at this router.
    pub damping: Option<DampingParams>,
    /// Penalty filter in front of the damper.
    pub filter: PenaltyFilter,
    /// Base MRAI.
    pub mrai: SimDuration,
    /// Multiplicative MRAI jitter range.
    pub mrai_jitter: (f64, f64),
    /// Protocol-behaviour knobs (WRATE, loop avoidance, reuse
    /// quantisation).
    pub protocol: ProtocolOptions,
}

/// Effects produced by handling one event at a router; the network
/// harness turns them into scheduled events and trace records.
#[derive(Debug, Default)]
pub struct RouterOutput {
    /// Messages to put on the wire, in order.
    pub sends: Vec<(NodeId, UpdateMessage)>,
    /// `(peer, prefix, at)`: schedule an MRAI-expiry callback.
    pub mrai_timers: Vec<(NodeId, Prefix, SimTime)>,
    /// `(peer, prefix, at)`: schedule a reuse-timer callback.
    pub reuse_timers: Vec<(NodeId, Prefix, SimTime)>,
    /// Trace events to record at the current instant.
    pub traces: Vec<TraceEventKind>,
    /// Damping-lifecycle ledger records (empty unless a
    /// [`LedgerFilter`] is installed and matched).
    pub ledger: Vec<LedgerRecord>,
}

rfd_sim::clone_fields!(impl Clone for RouterOutput { sends, mrai_timers, reuse_timers, traces, ledger });

impl RouterOutput {
    /// Appends one ledger record for `node`'s `(peer, prefix)` entry.
    fn record(&mut self, at: SimTime, node: u32, peer: NodeId, prefix: Prefix, event: LedgerEvent) {
        self.ledger.push(LedgerRecord {
            at,
            node,
            peer: peer.raw(),
            prefix: prefix.id(),
            event,
        });
    }
}

/// Rounds a deadline up to the next multiple of `granularity`
/// (identity when `None`) — RFC 2439's reuse-list quantisation.
fn quantize_up(at: SimTime, granularity: Option<SimDuration>) -> SimTime {
    match granularity {
        None => at,
        Some(g) => {
            let g_us = g.as_micros();
            let ticks = at.as_micros().div_ceil(g_us);
            SimTime::from_micros(ticks * g_us)
        }
    }
}

/// Per-(peer, prefix) advertisement pacing state.
#[derive(Debug, Clone, Default)]
pub(crate) struct MraiPeer {
    /// Earliest instant the next announcement may be sent.
    pub(crate) ready_at: SimTime,
    /// An advertisement is owed once the timer allows it.
    pub(crate) dirty: bool,
    /// An expiry callback is already scheduled.
    pub(crate) timer_pending: bool,
    /// Path length of the last announcement sent (drives the
    /// selective-damping `degraded` attribute).
    pub(crate) last_announced_len: Option<u16>,
}

/// One peer's share of a prefix's state.
#[derive(Debug, Default)]
pub(crate) struct PeerSlot {
    /// Latest route from the peer, with damping state (`None` until the
    /// peer first sends an update for this prefix).
    pub(crate) rib_in: Option<RibInEntry>,
    /// Path of the last route advertised to the peer (`None`: nothing
    /// advertised or withdrawn). The id fixes the rest of the route.
    pub(crate) rib_out: Option<PathId>,
    /// MRAI pacing toward the peer.
    pub(crate) mrai: MraiPeer,
}

rfd_sim::clone_fields!(impl Clone for PeerSlot { rib_in, rib_out, mrai });

/// The per-prefix head: what the decision process selected and how to
/// stamp it.
#[derive(Debug, Clone, Default)]
pub(crate) struct PrefixHead {
    /// The selected best route.
    pub(crate) best: Option<BestRoute>,
    /// Root cause to stamp on outgoing updates for this prefix.
    pub(crate) current_rc: Option<RootCause>,
    /// This router originates the prefix.
    pub(crate) originated: bool,
    /// The router has state for the prefix: it originates it or has
    /// received an update for it.
    pub(crate) known: bool,
}

/// A single BGP router.
#[derive(Debug)]
pub struct Router {
    id: NodeId,
    /// Neighbour set in construction order (fan-out order).
    peers: Vec<NodeId>,
    /// The same peers sorted ascending: `slots[i]` is the peer of slot
    /// `i`, looked up by binary search.
    pub(crate) slots: Vec<NodeId>,
    /// Per-prefix heads, indexed by prefix id.
    pub(crate) heads: Vec<PrefixHead>,
    /// Per-(prefix, peer) slots, indexed `prefix × slots.len() + slot`.
    pub(crate) rib: Vec<PeerSlot>,
    config: RouterConfig,
    pub(crate) charging_enabled: bool,
    /// Per slot: session currently down (failure injection); no
    /// messages are sent to a down peer.
    pub(crate) down: Vec<bool>,
    /// This router's own single-hop route, interned once.
    self_route: Route,
    /// Central damping state for every (peer, prefix) entry: dense SoA
    /// arrays in place of per-entry state machines. `None` when this
    /// router does not damp. Exact mode unless the reuse-granularity
    /// knob is set, in which case penalty decay is bucketed to the same
    /// tick.
    pub(crate) damper_store: Option<DamperStore>,
    /// The damping-lifecycle ledger's watched key set; `None` (the
    /// default) keeps every emission site to a single branch.
    ledger: Option<Arc<LedgerFilter>>,
}

rfd_sim::clone_fields!(impl Clone for Router {
    id, peers, slots, heads, rib, config, charging_enabled, down, self_route, damper_store, ledger,
});

/// Packs a (peer, prefix) pair into the damper store's slot key.
pub(crate) fn damper_key(peer: NodeId, prefix: Prefix) -> u64 {
    (u64::from(peer.raw()) << 32) | u64::from(prefix.id())
}

// Every handler takes (now, event args…, table, rng, policy, out): the
// path table and RNG are threaded explicitly instead of hiding them in
// shared cells, which puts some signatures past clippy's argument
// count.
#[allow(clippy::too_many_arguments)]
impl Router {
    /// Creates a router with the given neighbour set. When `originates`
    /// is true the router originates [`Prefix::ORIGIN`] (nothing is
    /// advertised until [`Router::kickoff`]); further prefixes can be
    /// added with [`Router::originate`].
    pub fn new(
        id: NodeId,
        peers: Vec<NodeId>,
        originates: bool,
        config: RouterConfig,
        table: &mut PathTable,
    ) -> Self {
        let mut slots = peers.clone();
        slots.sort_unstable();
        slots.dedup();
        let n = slots.len();
        let self_route = table.originate(id);
        let damper_store = config.damping.map(|params| {
            match config.protocol.reuse_granularity {
                // Exact decay: bit-identical to the per-entry `Damper`.
                None => DamperStore::exact(params),
                // The quantised-reuse knob also buckets penalty decay
                // to the same tick (table lookups instead of `exp`).
                Some(g) => DamperStore::bucketed(params, g, 4096),
            }
        });
        let mut router = Router {
            id,
            peers,
            slots,
            heads: Vec::new(),
            rib: Vec::new(),
            config,
            charging_enabled: true,
            down: vec![false; n],
            self_route,
            damper_store,
            ledger: None,
        };
        if originates {
            router.originate(Prefix::ORIGIN);
        }
        router
    }

    /// The slot index of `peer`, if it is a neighbour.
    fn slot_of(&self, peer: NodeId) -> Option<usize> {
        self.slots.binary_search(&peer).ok()
    }

    /// The head of `prefix`, if this router has state for it.
    fn head(&self, prefix: Prefix) -> Option<&PrefixHead> {
        self.heads.get(prefix.id() as usize).filter(|h| h.known)
    }

    /// Sizes both tables exactly for prefix ids `0..prefixes`, so they
    /// never grow (nor round up) mid-run.
    pub(crate) fn reserve_prefixes(&mut self, prefixes: usize) {
        let more = prefixes.saturating_sub(self.heads.len());
        self.heads.reserve_exact(more);
        self.rib.reserve_exact(more * self.slots.len());
        self.grow_to(prefixes);
    }

    /// Grows both tables (amortised) to hold prefix ids `0..prefixes`.
    fn grow_to(&mut self, prefixes: usize) {
        if prefixes > self.heads.len() {
            self.heads.resize_with(prefixes, PrefixHead::default);
            let slots = prefixes * self.slots.len();
            self.rib.resize_with(slots, PeerSlot::default);
        }
    }

    /// The table index of `prefix`, creating its (empty) state.
    fn touch(&mut self, prefix: Prefix) -> usize {
        let i = prefix.id() as usize;
        self.grow_to(i + 1);
        self.heads[i].known = true;
        i
    }

    /// The table index of `prefix`, which the caller's event says this
    /// router has state for.
    fn known(&self, prefix: Prefix) -> usize {
        assert!(self.head(prefix).is_some(), "no state for {prefix}");
        prefix.id() as usize
    }

    /// Registers this router as the originator of `prefix`.
    pub fn originate(&mut self, prefix: Prefix) {
        let i = self.touch(prefix);
        self.heads[i].originated = true;
        self.heads[i].best = Some(BestRoute {
            learned_from: None,
            route: self.self_route,
        });
    }

    /// This router's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// This router's neighbour set.
    pub fn peers(&self) -> &[NodeId] {
        &self.peers
    }

    /// Whether this router originates the default experiment prefix.
    pub fn originates(&self) -> bool {
        self.head(Prefix::ORIGIN).is_some_and(|h| h.originated)
    }

    /// The best route for the default experiment prefix.
    pub fn best(&self) -> Option<&BestRoute> {
        self.best_for(Prefix::ORIGIN)
    }

    /// The best route for `prefix`, if any.
    pub fn best_for(&self, prefix: Prefix) -> Option<&BestRoute> {
        self.head(prefix)?.best.as_ref()
    }

    /// Prefixes this router has state for, in ascending id order.
    pub fn known_prefixes(&self) -> impl Iterator<Item = Prefix> + '_ {
        let known = self.heads.iter().enumerate().filter(|(_, h)| h.known);
        known.map(|(i, _)| Prefix::new(i as u32))
    }

    /// Enables or disables penalty charging (used to warm the network
    /// up without poisoning penalties; see `Network::warm_up`).
    pub fn set_charging(&mut self, enabled: bool) {
        self.charging_enabled = enabled;
    }

    /// Installs (or removes) the damping-lifecycle ledger's key filter.
    /// With a filter installed, handlers push [`LedgerRecord`]s for
    /// matching (peer, prefix) keys into [`RouterOutput::ledger`].
    pub fn set_ledger_filter(&mut self, filter: Option<Arc<LedgerFilter>>) {
        self.ledger = filter;
    }

    /// Whether the ledger watches `(peer, prefix)` — the one branch the
    /// hot path pays when the ledger is off.
    #[inline]
    fn ledger_watches(&self, peer: NodeId, prefix: Prefix) -> bool {
        match &self.ledger {
            None => false,
            Some(filter) => filter.matches(peer.raw(), prefix.id()),
        }
    }

    /// Read access to the RIB-IN entry for the default prefix.
    pub fn rib_in(&self, peer: NodeId) -> Option<&RibInEntry> {
        self.rib_in_for(Prefix::ORIGIN, peer)
    }

    /// Read access to the RIB-IN entry for one (peer, prefix).
    pub fn rib_in_for(&self, prefix: Prefix, peer: NodeId) -> Option<&RibInEntry> {
        let i = self.head(prefix).map(|_| prefix.id() as usize)?;
        self.rib[i * self.slots.len() + self.slot_of(peer)?]
            .rib_in
            .as_ref()
    }

    /// Number of currently suppressed RIB-IN entries across all
    /// prefixes.
    pub fn suppressed_entries(&self) -> usize {
        let entries = self.rib.iter().filter_map(|p| p.rib_in.as_ref());
        entries.filter(|e| e.is_suppressed()).count()
    }

    /// Whether the session to `peer` is currently down.
    pub fn session_is_down(&self, peer: NodeId) -> bool {
        self.slot_of(peer).is_some_and(|slot| self.down[slot])
    }

    /// Advertises every originated/known prefix to all peers (used once
    /// at start-of-world for originating routers).
    pub fn kickoff(
        &mut self,
        now: SimTime,
        table: &mut PathTable,
        rng: &mut DetRng,
        policy: &Policy,
        out: &mut RouterOutput,
    ) {
        for i in 0..self.heads.len() {
            if self.heads[i].known {
                self.sync_all_peers(now, Prefix::new(i as u32), table, rng, policy, out);
            }
        }
    }

    /// Handles one received update message.
    pub fn handle_update(
        &mut self,
        now: SimTime,
        from: NodeId,
        msg: &UpdateMessage,
        table: &mut PathTable,
        rng: &mut DetRng,
        policy: &Policy,
        out: &mut RouterOutput,
    ) {
        let slot = self
            .slot_of(from)
            .unwrap_or_else(|| panic!("router {} received update from non-peer {from}", self.id));
        let prefix = msg.prefix;
        let watched = self.ledger_watches(from, prefix);
        let config_filter = self.config.filter;
        let node = self.id.raw();
        let record = |out: &mut RouterOutput, event| out.record(now, node, from, prefix, event);
        let at = self.touch(prefix) * self.slots.len() + slot;
        // Disjoint field borrows: the damper store and the slot table
        // are mutated side by side below.
        let damper_store = &mut self.damper_store;
        let entry = self.rib[at].rib_in.get_or_insert_with(|| {
            let damper_slot = damper_store
                .as_mut()
                .map(|store| store.insert(damper_key(from, prefix)));
            RibInEntry::new(damper_slot, config_filter)
        });

        // Classify relative to the currently held route. A route whose
        // path contains this AS is unusable (RFC 4271 treats it as a
        // withdrawal); sender-side loop avoidance means these are rare.
        let (new_route, kind) = match msg.payload {
            UpdatePayload::Withdraw => {
                if entry.route.is_none() {
                    return; // spurious withdrawal: ignored, no penalty
                }
                (None, UpdateKind::Withdrawal)
            }
            UpdatePayload::Announce(route) if table.contains(route, self.id) => {
                if entry.route.is_none() {
                    return;
                }
                (None, UpdateKind::Withdrawal)
            }
            UpdatePayload::Announce(route) => {
                let had = entry.route.is_some();
                let same = entry.route == Some(route);
                (Some(route), UpdateKind::classify_announcement(had, same))
            }
        };

        // Charge the damping penalty (RFC 2439: every update for the
        // entry charges — unless a filter intervenes).
        if self.charging_enabled {
            if let Some(damper_slot) = entry.damper_slot() {
                let store = damper_store.as_mut().expect("damper slot implies store");
                let params: DampingParams = *store.params();
                let filters = entry.filters.as_deref_mut();
                let (rcn, sel) =
                    filters.map_or((None, None), |f| (f.rcn.as_mut(), f.selective.as_mut()));
                let amount = if let Some(rcn) = rcn {
                    rcn.charge_for(kind, msg.root_cause, &params)
                } else if let Some(sel) = sel {
                    let pref = match msg.degraded {
                        Some(true) => RelativePreference::Degraded,
                        Some(false) => RelativePreference::Improved,
                        None => RelativePreference::Unknown,
                    };
                    sel.charge_for(kind, pref, &params)
                } else {
                    kind.penalty(&params)
                };
                // Ledger: report the lazy decay the charge is about to
                // fold in, then the charge itself with before/after
                // values. All of it is gated on the preselected key set
                // so the unwatched hot path computes nothing extra.
                let before = watched.then(|| {
                    let (anchor, stored) = store.stored_penalty(damper_slot);
                    let decayed = store.penalty_at(damper_slot, now);
                    if now > anchor && stored > 0.0 {
                        record(
                            out,
                            LedgerEvent::Decay {
                                from: stored,
                                to: decayed,
                                idle: now.since(anchor),
                            },
                        );
                    }
                    decayed
                });
                let outcome = store.charge_raw(damper_slot, now, amount);
                entry.suppressed = store.is_suppressed(damper_slot);
                entry.charges = entry.charges.saturating_add(1);
                if let Some(before) = before {
                    record(
                        out,
                        LedgerEvent::Charge {
                            kind,
                            before,
                            after: outcome.penalty,
                            flap: u64::from(entry.charges),
                            crossed_cutoff: outcome.newly_suppressed,
                        },
                    );
                }
                out.traces.push(TraceEventKind::PenaltySample {
                    node: self.id.raw(),
                    peer: from.raw(),
                    prefix: prefix.id(),
                    value: outcome.penalty,
                    charge: amount,
                    suppressed: entry.suppressed,
                });
                if outcome.newly_suppressed {
                    out.traces.push(TraceEventKind::Suppressed {
                        node: self.id.raw(),
                        peer: from.raw(),
                        prefix: prefix.id(),
                    });
                    let due = outcome
                        .reuse_at
                        .expect("newly suppressed entries have a deadline");
                    let armed = quantize_up(due, self.config.protocol.reuse_granularity);
                    if watched {
                        record(
                            out,
                            LedgerEvent::Suppressed {
                                penalty: outcome.penalty,
                                reuse_at: due,
                            },
                        );
                        record(out, LedgerEvent::ReuseArmed { due: armed });
                    }
                    out.reuse_timers.push((from, prefix, armed));
                }
            }
        }

        // Install the route and remember its root cause.
        entry.route = new_route;
        if msg.root_cause.is_some() {
            entry.filters.get_or_insert_with(Box::default).last_rc = msg.root_cause;
        }

        self.reselect(now, prefix, msg.root_cause, table, rng, policy, out);
    }

    /// Handles loss of the session to `peer` (the shared link went
    /// down). The peer's routes are implicitly withdrawn for **every**
    /// prefix — and, per RFC 2439, those withdrawals charge the damping
    /// penalty like any other; our own advertisements over the dead
    /// link are forgotten.
    ///
    /// `rc` is the root cause stamped for the link event (RCN
    /// deployments).
    pub fn on_session_down(
        &mut self,
        now: SimTime,
        peer: NodeId,
        rc: Option<RootCause>,
        table: &mut PathTable,
        rng: &mut DetRng,
        policy: &Policy,
        out: &mut RouterOutput,
    ) {
        let slot = self
            .slot_of(peer)
            .unwrap_or_else(|| panic!("session event for non-peer {peer}"));
        self.down[slot] = true;
        for i in 0..self.heads.len() {
            if !self.heads[i].known {
                continue;
            }
            // Nothing stays advertised over a dead session.
            let p = &mut self.rib[i * self.slots.len() + slot];
            p.rib_out = None;
            p.mrai.dirty = false;
            let prefix = Prefix::new(i as u32);
            // The peer's routes vanish: synthesize the implicit
            // withdrawal through the normal pipeline (damping charge +
            // reselection).
            let mut msg = UpdateMessage::withdraw().with_root_cause(rc);
            msg.prefix = prefix;
            self.handle_update(now, peer, &msg, table, rng, policy, out);
        }
    }

    /// Handles recovery of the session to `peer`: re-advertises
    /// whatever export policy dictates over the fresh session, for
    /// every prefix.
    pub fn on_session_up(
        &mut self,
        now: SimTime,
        peer: NodeId,
        rc: Option<RootCause>,
        table: &mut PathTable,
        rng: &mut DetRng,
        policy: &Policy,
        out: &mut RouterOutput,
    ) {
        let slot = self
            .slot_of(peer)
            .unwrap_or_else(|| panic!("session event for non-peer {peer}"));
        self.down[slot] = false;
        for i in 0..self.heads.len() {
            if !self.heads[i].known {
                continue;
            }
            // Updates triggered by the restored session carry its root
            // cause.
            if rc.is_some() {
                self.heads[i].current_rc = rc;
            }
            self.sync_peer(now, Prefix::new(i as u32), peer, table, rng, policy, out);
        }
    }

    /// Handles an MRAI expiry callback for `(peer, prefix)`.
    pub fn on_mrai_expiry(
        &mut self,
        now: SimTime,
        peer: NodeId,
        prefix: Prefix,
        table: &mut PathTable,
        rng: &mut DetRng,
        policy: &Policy,
        out: &mut RouterOutput,
    ) {
        let watched = self.ledger_watches(peer, prefix);
        let slot = self
            .slot_of(peer)
            .expect("MRAI timer for unknown peer/prefix");
        let at = self.known(prefix) * self.slots.len() + slot;
        let m = &mut self.rib[at].mrai;
        m.timer_pending = false;
        if m.dirty {
            let sends_before = out.sends.len();
            self.sync_peer(now, prefix, peer, table, rng, policy, out);
            // Ledger: a deferred change going out now is an MRAI flush
            // (nothing sent means WRATE coalescing absorbed the flap).
            if watched {
                if let Some((_, msg)) = out.sends[sends_before..].iter().find(|(to, _)| *to == peer)
                {
                    out.record(
                        now,
                        self.id.raw(),
                        peer,
                        prefix,
                        LedgerEvent::MraiFlushed {
                            withdrawal: msg.is_withdrawal(),
                        },
                    );
                }
            }
        }
    }

    /// Handles a reuse-timer callback for the entry of `prefix` learned
    /// from `peer`.
    pub fn on_reuse_timer(
        &mut self,
        now: SimTime,
        peer: NodeId,
        prefix: Prefix,
        table: &mut PathTable,
        rng: &mut DetRng,
        policy: &Policy,
        out: &mut RouterOutput,
    ) {
        let watched = self.ledger_watches(peer, prefix);
        let node = self.id.raw();
        let record = |out: &mut RouterOutput, event| out.record(now, node, peer, prefix, event);
        let slot = self.slot_of(peer).expect("reuse timer for unknown peer");
        let i = self.known(prefix);
        let damper_store = &mut self.damper_store;
        let entry = self.rib[i * self.slots.len() + slot]
            .rib_in
            .as_mut()
            .expect("reuse timer for unknown peer");
        let Some(damper_slot) = entry.damper_slot() else {
            return;
        };
        let store = damper_store.as_mut().expect("damper slot implies store");
        if !store.is_suppressed(damper_slot) {
            // Stale timer (entry already released): cancelled by doing
            // nothing.
            if watched {
                record(out, LedgerEvent::ReuseStale);
            }
            return;
        }
        let penalty_at_check = if watched {
            store.penalty_at(damper_slot, now)
        } else {
            0.0
        };
        match store.on_reuse_due(damper_slot, now) {
            ReuseCheck::StillSuppressed { retry_at } => {
                // Charges since suppression pushed the deadline out —
                // re-arm (this is how secondary charging extends reuse
                // timers).
                let armed = quantize_up(retry_at, self.config.protocol.reuse_granularity);
                if watched {
                    record(
                        out,
                        LedgerEvent::ReuseDeferred {
                            penalty: penalty_at_check,
                            retry_at: armed,
                        },
                    );
                    record(out, LedgerEvent::ReuseArmed { due: armed });
                }
                out.reuse_timers.push((peer, prefix, armed));
            }
            ReuseCheck::Released => {
                let reuse_rc = entry.filters.as_ref().and_then(|f| f.last_rc);
                // Sync the mirror before the decision process reads it.
                entry.suppressed = false;
                let new_best = self.decide(i, table, policy);
                let noisy = new_best != self.heads[i].best;
                if watched {
                    record(
                        out,
                        LedgerEvent::Released {
                            penalty: penalty_at_check,
                            noisy,
                        },
                    );
                }
                out.traces.push(TraceEventKind::Reused {
                    node: self.id.raw(),
                    peer: peer.raw(),
                    prefix: prefix.id(),
                    noisy,
                });
                if noisy {
                    // The released route wins (Figure 6): announce it,
                    // carrying the root cause it arrived with.
                    self.adopt(new_best, reuse_rc, i, out);
                    self.sync_all_peers(now, prefix, table, rng, policy, out);
                }
                // Silent expiry (Figure 5): nothing to do.
            }
        }
    }

    /// Re-runs the decision process for `prefix`; on a best-route
    /// change, records it, adopts `trigger_rc` as the root cause for
    /// outgoing updates, and synchronises every peer.
    fn reselect(
        &mut self,
        now: SimTime,
        prefix: Prefix,
        trigger_rc: Option<RootCause>,
        table: &mut PathTable,
        rng: &mut DetRng,
        policy: &Policy,
        out: &mut RouterOutput,
    ) {
        let i = prefix.id() as usize;
        let new_best = self.decide(i, table, policy);
        if new_best == self.heads[i].best {
            return;
        }
        self.adopt(new_best, trigger_rc, i, out);
        self.sync_all_peers(now, prefix, table, rng, policy, out);
    }

    /// Installs a changed best route for prefix `i` and records the
    /// change.
    fn adopt(
        &mut self,
        best: Option<BestRoute>,
        rc: Option<RootCause>,
        i: usize,
        out: &mut RouterOutput,
    ) {
        self.heads[i].best = best;
        self.heads[i].current_rc = rc;
        out.traces.push(TraceEventKind::BestRouteChanged {
            node: self.id.raw(),
            unreachable: best.is_none(),
            path_len: best.map_or(0, |b| b.route.len() as u32),
        });
    }

    /// The decision process for prefix `i`: the best usable route by
    /// (policy class, path length, lowest peer id). A self-originated
    /// route always wins. Slots are visited in ascending peer order. No
    /// candidate is loop-checked: `handle_update` turns an announcement
    /// containing this router into a withdrawal and the snapshot decoder
    /// refuses one, so RIB-IN never holds a loop.
    fn decide(&self, i: usize, table: &PathTable, policy: &Policy) -> Option<BestRoute> {
        rfd_obs::inc("bgp.decisions");
        if self.heads[i].originated {
            return Some(BestRoute {
                learned_from: None,
                route: self.self_route,
            });
        }
        let row = &self.rib[i * self.slots.len()..][..self.slots.len()];
        let mut best: Option<((u8, usize, usize), BestRoute)> = None;
        for (p, &peer) in row.iter().zip(&self.slots) {
            let Some(route) = p.rib_in.as_ref().and_then(RibInEntry::usable_route) else {
                continue;
            };
            debug_assert!(
                !table.contains(route, self.id),
                "RIB-IN holds a looped route"
            );
            let class = policy.preference_class(self.id, peer);
            let rank = (class, route.len(), peer.index());
            if best.is_none_or(|(best_rank, _)| rank < best_rank) {
                let candidate = BestRoute {
                    learned_from: Some(peer),
                    route,
                };
                best = Some((rank, candidate));
            }
        }
        best.map(|(_, b)| b)
    }

    /// The route this router would advertise to `to` right now, after
    /// policy export rules and sender-side loop avoidance; `None` means
    /// "nothing" (and implies a withdrawal if something was advertised
    /// before).
    fn export_route(
        id: NodeId,
        head: &PrefixHead,
        to: NodeId,
        table: &mut PathTable,
        policy: &Policy,
        protocol: &ProtocolOptions,
    ) -> Option<Route> {
        let best = head.best.as_ref()?;
        if protocol.sender_side_loop_avoidance && table.contains(best.route, to) {
            return None; // receiver is on the path; it would reject
        }
        if !policy.may_export(id, best.learned_from, to) {
            return None;
        }
        Some(match best.learned_from {
            None => best.route,
            Some(_) => table.prepend(best.route, id),
        })
    }

    fn sync_all_peers(
        &mut self,
        now: SimTime,
        prefix: Prefix,
        table: &mut PathTable,
        rng: &mut DetRng,
        policy: &Policy,
        out: &mut RouterOutput,
    ) {
        // Index loop instead of iterating (and cloning) `self.peers`:
        // sync_peer needs `&mut self`.
        for i in 0..self.peers.len() {
            let peer = self.peers[i];
            self.sync_peer(now, prefix, peer, table, rng, policy, out);
        }
    }

    /// Brings RIB-OUT for `(peer, prefix)` in line with the current
    /// best route: withdrawals immediately, announcements under MRAI
    /// pacing.
    fn sync_peer(
        &mut self,
        now: SimTime,
        prefix: Prefix,
        peer: NodeId,
        table: &mut PathTable,
        rng: &mut DetRng,
        policy: &Policy,
        out: &mut RouterOutput,
    ) {
        let watched = self.ledger_watches(peer, prefix);
        let node = self.id.raw();
        let record = |out: &mut RouterOutput, event| out.record(now, node, peer, prefix, event);
        let slot = self.slot_of(peer).expect("sync with non-peer");
        if self.down[slot] {
            return; // dead session: nothing can be sent
        }
        let i = self.known(prefix);
        let head = &self.heads[i];
        let desired = Self::export_route(self.id, head, peer, table, policy, &self.config.protocol);
        let p = &mut self.rib[i * self.slots.len() + slot];
        let m = &mut p.mrai;
        if desired.map(Route::id) == p.rib_out {
            m.dirty = false;
            return;
        }
        match desired {
            None => {
                // Withdrawals are rate-limited only under the WRATE
                // option (SSFNet defaults to immediate, as does the
                // paper's setup).
                if self.config.protocol.withdrawal_pacing && now < m.ready_at {
                    m.dirty = true;
                    if watched {
                        record(
                            out,
                            LedgerEvent::MraiDeferred {
                                ready_at: m.ready_at,
                                held_for: m.ready_at.since(now),
                                withdrawal: true,
                            },
                        );
                    }
                    if !m.timer_pending {
                        m.timer_pending = true;
                        out.mrai_timers.push((peer, prefix, m.ready_at));
                    }
                    return;
                }
                m.dirty = false;
                if self.config.protocol.withdrawal_pacing {
                    let (jlo, jhi) = self.config.mrai_jitter;
                    m.ready_at = now + self.config.mrai.mul_f64(rng.uniform(jlo, jhi));
                }
                p.rib_out = None;
                let mut msg = UpdateMessage::withdraw().with_root_cause(head.current_rc);
                msg.prefix = prefix;
                out.sends.push((peer, msg));
            }
            Some(route) => {
                if now >= m.ready_at {
                    let len = u16::try_from(route.len()).expect("route lengths are u16");
                    let degraded = m.last_announced_len.map(|prev| len > prev);
                    m.last_announced_len = Some(len);
                    let (jlo, jhi) = self.config.mrai_jitter;
                    m.ready_at = now + self.config.mrai.mul_f64(rng.uniform(jlo, jhi));
                    m.dirty = false;
                    p.rib_out = Some(route.id());
                    let mut msg = UpdateMessage::announce(route)
                        .with_root_cause(head.current_rc)
                        .with_degraded(degraded);
                    msg.prefix = prefix;
                    out.sends.push((peer, msg));
                } else {
                    // Owe an advertisement; coalesce behind the timer.
                    m.dirty = true;
                    if watched {
                        record(
                            out,
                            LedgerEvent::MraiDeferred {
                                ready_at: m.ready_at,
                                held_for: m.ready_at.since(now),
                                withdrawal: false,
                            },
                        );
                    }
                    if !m.timer_pending {
                        m.timer_pending = true;
                        out.mrai_timers.push((peer, prefix, m.ready_at));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_core::{DampingParams, LinkStatus, SelectiveFilter};

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn plain_config(damping: bool) -> RouterConfig {
        RouterConfig {
            damping: damping.then(DampingParams::cisco),
            filter: PenaltyFilter::Plain,
            mrai: SimDuration::from_secs(30),
            mrai_jitter: (1.0, 1.0),
            protocol: ProtocolOptions::default(),
        }
    }

    fn rng() -> DetRng {
        DetRng::from_seed(7)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn announce_from(tb: &mut PathTable, origin: u32) -> UpdateMessage {
        UpdateMessage::announce(tb.originate(n(origin)))
    }

    #[test]
    fn originator_kickoff_announces_to_all() {
        let mut tb = PathTable::new();
        let mut r = Router::new(n(0), vec![n(1), n(2)], true, plain_config(false), &mut tb);
        let mut out = RouterOutput::default();
        r.kickoff(t(0), &mut tb, &mut rng(), &Policy::ShortestPath, &mut out);
        assert_eq!(out.sends.len(), 2);
        assert!(out.sends.iter().all(|(_, m)| !m.is_withdrawal()));
        // Second kickoff is a no-op (RIB-OUT already in sync).
        let mut out2 = RouterOutput::default();
        r.kickoff(t(1), &mut tb, &mut rng(), &Policy::ShortestPath, &mut out2);
        assert!(out2.sends.is_empty());
    }

    #[test]
    fn spurious_withdrawal_ignored() {
        let mut tb = PathTable::new();
        let mut r = Router::new(n(1), vec![n(0)], false, plain_config(true), &mut tb);
        let mut out = RouterOutput::default();
        r.handle_update(
            t(0),
            n(0),
            &UpdateMessage::withdraw(),
            &mut tb,
            &mut rng(),
            &Policy::ShortestPath,
            &mut out,
        );
        assert!(out.sends.is_empty() && out.traces.is_empty());
        assert_eq!(
            r.rib_in(n(0)).map(|e| e.route),
            Some(None),
            "entry exists but holds no route"
        );
    }

    #[test]
    fn no_valley_policy_limits_export() {
        // 1 is a leaf customer of hub 0 (star graph); 1 also peers…
        // build: 0-1, 0-2, 1-3 relationships via degree: 0 has degree 2,
        // 1 degree 2, 2,3 degree 1. Core decile → 0,1 peers.
        let mut g = rfd_topology::Graph::with_nodes(4);
        g.add_link(n(0), n(1));
        g.add_link(n(0), n(2));
        g.add_link(n(1), n(3));
        let policy = Policy::NoValley(rfd_topology::Relationships::infer_by_degree(&g, 0.25));
        // Router 1 peers with 0, provides for 3.
        let mut tb = PathTable::new();
        let mut r = Router::new(n(1), vec![n(0), n(3)], false, plain_config(false), &mut tb);
        let mut rng = rng();
        let mut out = RouterOutput::default();
        // Learn a route from peer 0 (provider/peer relationship).
        let via0 = {
            let base = tb.originate(n(9));
            tb.prepend(base, n(0))
        };
        r.handle_update(
            t(0),
            n(0),
            &UpdateMessage::announce(via0),
            &mut tb,
            &mut rng,
            &policy,
            &mut out,
        );
        // Exported to customer 3 only — and 0 is on the path anyway.
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].0, n(3));
    }

    #[test]
    fn session_down_withdraws_and_charges() {
        let mut tb = PathTable::new();
        let mut r = Router::new(n(1), vec![n(0), n(2)], false, plain_config(true), &mut tb);
        let policy = Policy::ShortestPath;
        let mut rng = rng();
        let mut out = RouterOutput::default();
        let msg = announce_from(&mut tb, 0);
        r.handle_update(t(0), n(0), &msg, &mut tb, &mut rng, &policy, &mut out);
        assert!(r.best().is_some());

        let mut out = RouterOutput::default();
        r.on_session_down(t(10), n(0), None, &mut tb, &mut rng, &policy, &mut out);
        assert!(r.session_is_down(n(0)));
        assert!(r.best().is_none(), "session loss withdraws the route");
        // The loss charged the damping penalty like a withdrawal.
        let charged = out.traces.iter().any(
            |tr| matches!(tr, TraceEventKind::PenaltySample { charge, .. } if *charge == 1000.0),
        );
        assert!(charged, "session loss must charge the withdrawal penalty");
        // Downstream peer 2 was told.
        assert!(out
            .sends
            .iter()
            .any(|(to, m)| *to == n(2) && m.is_withdrawal()));
        // Nothing goes to the dead peer itself.
        assert!(out.sends.iter().all(|(to, _)| *to != n(0)));
    }

    #[test]
    fn session_up_readvertises() {
        // Router 1 originates nothing but hears a route from peer 2;
        // the 0–1 session bounces and must be resynchronised.
        let mut tb = PathTable::new();
        let mut r = Router::new(n(1), vec![n(0), n(2)], false, plain_config(false), &mut tb);
        let policy = Policy::ShortestPath;
        let mut rng = rng();
        let mut out = RouterOutput::default();
        let via2 = {
            let base = tb.originate(n(9));
            tb.prepend(base, n(2))
        };
        r.handle_update(
            t(0),
            n(2),
            &UpdateMessage::announce(via2),
            &mut tb,
            &mut rng,
            &policy,
            &mut out,
        );
        assert!(
            out.sends.iter().any(|(to, _)| *to == n(0)),
            "advertised to 0"
        );

        let mut out = RouterOutput::default();
        r.on_session_down(t(5), n(0), None, &mut tb, &mut rng, &policy, &mut out);
        // While down, best changes don't reach peer 0.
        let mut out = RouterOutput::default();
        let via2_long = {
            let base = tb.originate(n(9));
            let via8 = tb.prepend(base, n(8));
            tb.prepend(via8, n(2))
        };
        r.handle_update(
            t(6),
            n(2),
            &UpdateMessage::announce(via2_long),
            &mut tb,
            &mut rng,
            &policy,
            &mut out,
        );
        assert!(out.sends.iter().all(|(to, _)| *to != n(0)));

        // On recovery the fresh session gets the current best.
        let mut out = RouterOutput::default();
        r.on_session_up(t(60), n(0), None, &mut tb, &mut rng, &policy, &mut out);
        assert!(!r.session_is_down(n(0)));
        assert_eq!(out.sends.len(), 1);
        assert_eq!(out.sends[0].0, n(0));
        assert!(!out.sends[0].1.is_withdrawal());
    }

    #[test]
    fn session_down_when_no_route_is_quiet() {
        let mut tb = PathTable::new();
        let mut r = Router::new(n(1), vec![n(0)], false, plain_config(true), &mut tb);
        // Give the router prefix state without a route from peer 0.
        let mut out = RouterOutput::default();
        r.handle_update(
            t(0),
            n(0),
            &UpdateMessage::withdraw(),
            &mut tb,
            &mut rng(),
            &Policy::ShortestPath,
            &mut out,
        );
        let mut out = RouterOutput::default();
        r.on_session_down(
            t(1),
            n(0),
            None,
            &mut tb,
            &mut rng(),
            &Policy::ShortestPath,
            &mut out,
        );
        assert!(out.sends.is_empty());
        assert!(out.traces.is_empty(), "no route held → no charge");
    }

    #[test]
    fn repeated_session_flaps_suppress_like_route_flaps() {
        // RFC 2439's original motivation: a bouncing session is a
        // flapping route.
        let mut tb = PathTable::new();
        let mut r = Router::new(n(1), vec![n(0), n(2)], false, plain_config(true), &mut tb);
        let policy = Policy::ShortestPath;
        let mut rng = rng();
        let mut suppressed = false;
        for k in 0..4u64 {
            let mut out = RouterOutput::default();
            let msg = announce_from(&mut tb, 0);
            r.handle_update(t(k * 120), n(0), &msg, &mut tb, &mut rng, &policy, &mut out);
            let mut out = RouterOutput::default();
            r.on_session_down(
                t(k * 120 + 60),
                n(0),
                None,
                &mut tb,
                &mut rng,
                &policy,
                &mut out,
            );
            suppressed |= !out.reuse_timers.is_empty();
            let mut out = RouterOutput::default();
            r.on_session_up(
                t(k * 120 + 61),
                n(0),
                None,
                &mut tb,
                &mut rng,
                &policy,
                &mut out,
            );
        }
        assert!(suppressed, "repeated session loss must trip the cut-off");
        assert!(r.rib_in(n(0)).unwrap().is_suppressed());
    }

    // ---- damping-lifecycle ledger ----

    fn ledger_on(r: &mut Router, peer: u32) {
        r.set_ledger_filter(Some(Arc::new(LedgerFilter::keys([(
            peer,
            Prefix::ORIGIN.id(),
        )]))));
    }

    #[test]
    fn ledger_records_suppression_lifecycle() {
        let mut tb = PathTable::new();
        let mut r = Router::new(n(1), vec![n(0), n(2)], false, plain_config(true), &mut tb);
        ledger_on(&mut r, 0);
        let policy = Policy::ShortestPath;
        let mut rng = rng();
        let mut records = Vec::new();
        let mut reuse_at = None;
        for pulse in 0..3u64 {
            let mut out = RouterOutput::default();
            let msg = announce_from(&mut tb, 0);
            r.handle_update(
                t(pulse * 120),
                n(0),
                &msg,
                &mut tb,
                &mut rng,
                &policy,
                &mut out,
            );
            records.append(&mut out.ledger);
            let mut out = RouterOutput::default();
            r.handle_update(
                t(pulse * 120 + 60),
                n(0),
                &UpdateMessage::withdraw(),
                &mut tb,
                &mut rng,
                &policy,
                &mut out,
            );
            if let Some(&(_, _, at)) = out.reuse_timers.first() {
                reuse_at = Some(at);
            }
            records.append(&mut out.ledger);
        }
        // Every record carries the watched key.
        assert!(records
            .iter()
            .all(|rec| rec.node == 1 && rec.peer == 0 && rec.prefix == Prefix::ORIGIN.id()));
        // Six charges (3 announcements + 3 withdrawals), 1-based flap
        // indices, before/after consistent, only the last crosses the
        // cut-off.
        let charges: Vec<_> = records
            .iter()
            .filter_map(|rec| match rec.event {
                LedgerEvent::Charge {
                    before,
                    after,
                    flap,
                    crossed_cutoff,
                    ..
                } => Some((before, after, flap, crossed_cutoff)),
                _ => None,
            })
            .collect();
        assert_eq!(charges.len(), 6);
        for (i, &(before, after, flap, crossed)) in charges.iter().enumerate() {
            assert_eq!(flap, i as u64 + 1);
            assert!(after >= before, "charges never shrink the penalty");
            assert_eq!(crossed, i == 5, "only the third withdrawal crosses");
        }
        // Decay records shrink the stored value over idle time.
        assert!(records.iter().any(|rec| matches!(
            rec.event,
            LedgerEvent::Decay { from, to, idle } if to < from && !idle.is_zero()
        )));
        // Suppression, then an armed reuse timer, close the stream.
        let tail: Vec<_> = records.iter().rev().take(2).collect();
        assert!(matches!(tail[1].event, LedgerEvent::Suppressed { .. }));
        assert!(matches!(tail[0].event, LedgerEvent::ReuseArmed { .. }));

        // Secondary charging while suppressed (announce, withdraw,
        // announce) pushes the release past the armed deadline; then
        // walk the reuse timer to release. The final record must be a
        // noisy release.
        for (at, announce) in [(400, true), (410, false), (420, true)] {
            let mut out = RouterOutput::default();
            let msg = if announce {
                announce_from(&mut tb, 0)
            } else {
                UpdateMessage::withdraw()
            };
            r.handle_update(t(at), n(0), &msg, &mut tb, &mut rng, &policy, &mut out);
            records.append(&mut out.ledger);
        }
        let mut due = reuse_at.expect("suppressed");
        for _ in 0..8 {
            let mut out = RouterOutput::default();
            r.on_reuse_timer(
                due,
                n(0),
                Prefix::ORIGIN,
                &mut tb,
                &mut rng,
                &policy,
                &mut out,
            );
            let next = out.reuse_timers.first().map(|&(_, _, at)| at);
            records.append(&mut out.ledger);
            match next {
                Some(at) => due = at,
                None => break,
            }
        }
        let last = records.last().expect("records");
        assert!(
            matches!(last.event, LedgerEvent::Released { noisy: true, penalty } if penalty > 0.0),
            "{last:?}"
        );
        // A deferred check (secondary charging from the t=400 announce)
        // must have logged itself before releasing.
        assert!(records
            .iter()
            .any(|rec| matches!(rec.event, LedgerEvent::ReuseDeferred { .. })));
        assert!(
            r.rib_in(n(0)).unwrap().filters.is_none(),
            "plain damping boxes nothing"
        );
    }

    #[test]
    fn ledger_is_silent_without_filter_or_match() {
        let mut tb = PathTable::new();
        let mut r = Router::new(n(1), vec![n(0), n(2)], false, plain_config(true), &mut tb);
        let policy = Policy::ShortestPath;
        let mut rng = rng();
        let mut out = RouterOutput::default();
        let msg = announce_from(&mut tb, 0);
        r.handle_update(t(0), n(0), &msg, &mut tb, &mut rng, &policy, &mut out);
        assert!(out.ledger.is_empty(), "no filter installed");
        // A filter watching a different peer stays silent too.
        ledger_on(&mut r, 7);
        let mut out = RouterOutput::default();
        r.handle_update(
            t(10),
            n(0),
            &UpdateMessage::withdraw(),
            &mut tb,
            &mut rng,
            &policy,
            &mut out,
        );
        assert!(out.ledger.is_empty(), "unmatched key");
    }

    #[test]
    fn ledger_records_mrai_deferral_and_flush() {
        // A better route inside peer 2's MRAI window is held for it,
        // while peer 0 (never announced to) hears it at once and peer 3
        // (now on the path) gets a withdrawal. The ledger watches 2.
        let mut tb = PathTable::new();
        let mut r = Router::new(
            n(1),
            vec![n(0), n(2), n(3)],
            false,
            plain_config(false),
            &mut tb,
        );
        ledger_on(&mut r, 2);
        let policy = Policy::ShortestPath;
        let mut rng = rng();
        let mut out = RouterOutput::default();
        let long = {
            let base = tb.originate(n(9));
            let via5 = tb.prepend(base, n(5));
            tb.prepend(via5, n(0))
        };
        r.handle_update(
            t(0),
            n(0),
            &UpdateMessage::announce(long),
            &mut tb,
            &mut rng,
            &policy,
            &mut out,
        );
        let short = {
            let base = tb.originate(n(9));
            tb.prepend(base, n(3))
        };
        let mut out = RouterOutput::default();
        r.handle_update(
            t(5),
            n(3),
            &UpdateMessage::announce(short),
            &mut tb,
            &mut rng,
            &policy,
            &mut out,
        );
        let deferred: Vec<_> = out
            .ledger
            .iter()
            .filter_map(|rec| match rec.event {
                LedgerEvent::MraiDeferred {
                    ready_at,
                    held_for,
                    withdrawal,
                } => Some((rec.peer, ready_at, held_for, withdrawal)),
                _ => None,
            })
            .collect();
        assert_eq!(
            deferred,
            vec![(2, t(30), SimDuration::from_secs(25), false)],
            "the t=5 change toward peer 2 is held until the t=30 MRAI"
        );
        let sent: Vec<_> = out
            .sends
            .iter()
            .map(|(to, m)| (to.raw(), m.is_withdrawal()))
            .collect();
        assert_eq!(sent, [(0, false), (3, true)]);
        let mut out = RouterOutput::default();
        r.on_mrai_expiry(
            t(30),
            n(2),
            Prefix::ORIGIN,
            &mut tb,
            &mut rng,
            &policy,
            &mut out,
        );
        assert!(
            out.ledger
                .iter()
                .any(|rec| matches!(rec.event, LedgerEvent::MraiFlushed { withdrawal: false })),
            "{:?}",
            out.ledger
        );
        assert_eq!(out.sends.len(), 1, "the held announcement goes out");
    }

    // ---- penalty filters ----

    fn filtered_router(filter: PenaltyFilter, tb: &mut PathTable) -> Router {
        let config = RouterConfig {
            filter,
            ..plain_config(true)
        };
        Router::new(n(1), vec![n(0), n(2)], false, config, tb)
    }

    /// Under RCN a noisy reuse stamps the announcements it triggers with
    /// the root cause the released entry last arrived with, not the
    /// prefix's current one.
    #[test]
    fn rcn_noisy_reuse_restamps_the_entrys_last_root_cause() {
        let mut tb = PathTable::new();
        let mut r = filtered_router(PenaltyFilter::Rcn, &mut tb);
        let (policy, mut rng) = (Policy::ShortestPath, rng());
        let rc = |status, seq| Some(RootCause::new((0, 9), status, seq));
        // Three pulses with fresh root causes suppress the entry at
        // t=300; a fourth announcement arrives while it is suppressed.
        let mut out = RouterOutput::default();
        for k in 0..7u64 {
            let msg = match k % 2 {
                0 => announce_from(&mut tb, 0).with_root_cause(rc(LinkStatus::Up, k)),
                _ => UpdateMessage::withdraw().with_root_cause(rc(LinkStatus::Down, k)),
            };
            r.handle_update(t(k * 60), n(0), &msg, &mut tb, &mut rng, &policy, &mut out);
        }
        assert_eq!(r.heads[0].current_rc, rc(LinkStatus::Down, 5));
        let mut due = out.reuse_timers.last().map(|&(_, _, at)| at);
        while let Some(at) = due {
            out = RouterOutput::default();
            r.on_reuse_timer(
                at,
                n(0),
                Prefix::ORIGIN,
                &mut tb,
                &mut rng,
                &policy,
                &mut out,
            );
            due = out.reuse_timers.first().map(|&(_, _, at)| at);
        }
        let sent: Vec<_> = out
            .sends
            .iter()
            .map(|(to, m)| (*to, m.root_cause))
            .collect();
        assert_eq!(sent, [(n(2), rc(LinkStatus::Up, 6))], "a noisy release");
    }

    /// Selective damping charges nothing for a degraded re-announcement
    /// and counts the skip, which only the snapshot reads.
    #[test]
    fn selective_skips_degraded_announcements() {
        let mut tb = PathTable::new();
        let mut r = filtered_router(PenaltyFilter::Selective, &mut tb);
        let (policy, mut rng) = (Policy::ShortestPath, rng());
        let (short, far) = (tb.originate(n(0)), tb.originate(n(9)));
        let long = tb.prepend(far, n(0));
        let mut charges = Vec::new();
        for (at, route, degraded) in [
            (0, short, None),
            (10, long, Some(true)),
            (20, short, Some(false)),
        ] {
            let mut out = RouterOutput::default();
            let msg = UpdateMessage::announce(route).with_degraded(degraded);
            r.handle_update(t(at), n(0), &msg, &mut tb, &mut rng, &policy, &mut out);
            charges.extend(out.traces.iter().filter_map(|tr| match tr {
                TraceEventKind::PenaltySample { charge, .. } => Some(*charge),
                _ => None,
            }));
        }
        // Only the improving change pays the attribute-change penalty.
        assert_eq!(charges, [0.0, 0.0, 500.0]);
        let entry = r.rib_in(n(0)).expect("entry");
        let selective = entry.filters.as_ref().and_then(|f| f.selective.as_ref());
        assert_eq!(selective.map(SelectiveFilter::skipped), Some(1));
    }

    // ---- protocol knobs ----

    fn config_with(protocol: ProtocolOptions, damping: bool) -> RouterConfig {
        RouterConfig {
            damping: damping.then(DampingParams::cisco),
            filter: PenaltyFilter::Plain,
            mrai: SimDuration::from_secs(30),
            mrai_jitter: (1.0, 1.0),
            protocol,
        }
    }

    #[test]
    fn wrate_paces_withdrawals() {
        let protocol = ProtocolOptions {
            withdrawal_pacing: true,
            ..ProtocolOptions::default()
        };
        let mut tb = PathTable::new();
        let mut r = Router::new(
            n(1),
            vec![n(0), n(2)],
            false,
            config_with(protocol, false),
            &mut tb,
        );
        let policy = Policy::ShortestPath;
        let mut rng = rng();
        let mut out = RouterOutput::default();
        let msg = announce_from(&mut tb, 0);
        r.handle_update(t(0), n(0), &msg, &mut tb, &mut rng, &policy, &mut out);
        assert_eq!(out.sends.len(), 1, "announce to 2");
        // Withdraw within the MRAI window: deferred under WRATE.
        let mut out = RouterOutput::default();
        r.handle_update(
            t(5),
            n(0),
            &UpdateMessage::withdraw(),
            &mut tb,
            &mut rng,
            &policy,
            &mut out,
        );
        assert!(out.sends.is_empty(), "withdrawal must wait for the MRAI");
        assert_eq!(out.mrai_timers.len(), 1);
        let (peer, prefix, at) = out.mrai_timers[0];
        assert_eq!(at, t(30));
        let mut out = RouterOutput::default();
        r.on_mrai_expiry(t(30), peer, prefix, &mut tb, &mut rng, &policy, &mut out);
        assert_eq!(out.sends.len(), 1);
        assert!(out.sends[0].1.is_withdrawal());
    }

    #[test]
    fn wrate_coalesces_flap_into_nothing() {
        // Withdraw + re-announce within one MRAI window: under WRATE
        // the downstream peer sees *neither* (the flap is absorbed).
        let protocol = ProtocolOptions {
            withdrawal_pacing: true,
            ..ProtocolOptions::default()
        };
        let mut tb = PathTable::new();
        let mut r = Router::new(
            n(1),
            vec![n(0), n(2)],
            false,
            config_with(protocol, false),
            &mut tb,
        );
        let policy = Policy::ShortestPath;
        let mut rng = rng();
        let mut out = RouterOutput::default();
        let msg = announce_from(&mut tb, 0);
        r.handle_update(t(0), n(0), &msg, &mut tb, &mut rng, &policy, &mut out);
        let mut out = RouterOutput::default();
        r.handle_update(
            t(3),
            n(0),
            &UpdateMessage::withdraw(),
            &mut tb,
            &mut rng,
            &policy,
            &mut out,
        );
        assert!(out.sends.is_empty());
        let mut out = RouterOutput::default();
        let msg = announce_from(&mut tb, 0);
        r.handle_update(t(6), n(0), &msg, &mut tb, &mut rng, &policy, &mut out);
        assert!(out.sends.is_empty());
        // MRAI expiry: desired == current (the same route is back) → no
        // message at all.
        let mut out = RouterOutput::default();
        r.on_mrai_expiry(
            t(30),
            n(2),
            Prefix::ORIGIN,
            &mut tb,
            &mut rng,
            &policy,
            &mut out,
        );
        assert!(out.sends.is_empty(), "flap absorbed by WRATE coalescing");
    }

    #[test]
    fn without_loop_avoidance_looped_routes_are_sent() {
        let protocol = ProtocolOptions {
            sender_side_loop_avoidance: false,
            ..ProtocolOptions::default()
        };
        let mut tb = PathTable::new();
        let mut r = Router::new(
            n(1),
            vec![n(0), n(2)],
            false,
            config_with(protocol, false),
            &mut tb,
        );
        let policy = Policy::ShortestPath;
        let mut rng = rng();
        let mut out = RouterOutput::default();
        let msg = announce_from(&mut tb, 0);
        r.handle_update(t(0), n(0), &msg, &mut tb, &mut rng, &policy, &mut out);
        // Plain BGP-4: the route is advertised back toward peer 0's
        // side too (path [1, 0]) — receivers do the loop detection.
        let to_zero: Vec<_> = out.sends.iter().filter(|(to, _)| *to == n(0)).collect();
        assert_eq!(to_zero.len(), 1, "looped advertisement is sent");
        match to_zero[0].1.payload {
            UpdatePayload::Announce(route) => assert!(tb.contains(route, n(0))),
            UpdatePayload::Withdraw => panic!("expected announcement"),
        }
    }

    #[test]
    fn reuse_granularity_quantizes_deadlines() {
        let g = SimDuration::from_secs(100);
        let protocol = ProtocolOptions {
            reuse_granularity: Some(g),
            ..ProtocolOptions::default()
        };
        let mut tb = PathTable::new();
        let mut r = Router::new(
            n(1),
            vec![n(0), n(2)],
            false,
            config_with(protocol, true),
            &mut tb,
        );
        let policy = Policy::ShortestPath;
        let mut rng = rng();
        let mut due = None;
        for pulse in 0..3u64 {
            let mut out = RouterOutput::default();
            let msg = announce_from(&mut tb, 0);
            r.handle_update(
                t(pulse * 120),
                n(0),
                &msg,
                &mut tb,
                &mut rng,
                &policy,
                &mut out,
            );
            let mut out = RouterOutput::default();
            r.handle_update(
                t(pulse * 120 + 60),
                n(0),
                &UpdateMessage::withdraw(),
                &mut tb,
                &mut rng,
                &policy,
                &mut out,
            );
            if let Some(&(_, _, at)) = out.reuse_timers.first() {
                due = Some(at);
            }
        }
        let due = due.expect("suppressed");
        assert_eq!(
            due.as_micros() % g.as_micros(),
            0,
            "deadline {due} not on the {g} grid"
        );
        // Firing at the quantised instant still releases (it is never
        // earlier than the exact deadline).
        let mut out = RouterOutput::default();
        r.on_reuse_timer(
            due,
            n(0),
            Prefix::ORIGIN,
            &mut tb,
            &mut rng,
            &policy,
            &mut out,
        );
        assert!(!r.rib_in(n(0)).unwrap().is_suppressed());
    }

    #[test]
    fn quantize_up_math() {
        let g = Some(SimDuration::from_secs(10));
        assert_eq!(quantize_up(t(0), g), t(0));
        assert_eq!(quantize_up(t(1), g), t(10));
        assert_eq!(quantize_up(t(10), g), t(10));
        assert_eq!(quantize_up(t(11), g), t(20));
        assert_eq!(quantize_up(t(7), None), t(7));
    }

    // ---- multi-prefix behaviour ----

    fn announce_prefix(tb: &mut PathTable, origin: u32, prefix: Prefix) -> UpdateMessage {
        let mut m = UpdateMessage::announce(tb.originate(n(origin)));
        m.prefix = prefix;
        m
    }

    #[test]
    fn damping_state_is_per_prefix() {
        // Flapping prefix A from peer 0 must not suppress prefix B from
        // the same peer.
        let mut tb = PathTable::new();
        let mut r = Router::new(n(1), vec![n(0), n(2)], false, plain_config(true), &mut tb);
        let policy = Policy::ShortestPath;
        let mut rng = rng();
        let pfx_a = Prefix::new(10);
        let pfx_b = Prefix::new(11);
        let mut out = RouterOutput::default();
        let msg = announce_prefix(&mut tb, 0, pfx_b);
        r.handle_update(t(0), n(0), &msg, &mut tb, &mut rng, &policy, &mut out);
        for k in 0..3u64 {
            let mut out = RouterOutput::default();
            let msg = announce_prefix(&mut tb, 0, pfx_a);
            r.handle_update(
                t(k * 120 + 1),
                n(0),
                &msg,
                &mut tb,
                &mut rng,
                &policy,
                &mut out,
            );
            let mut w = UpdateMessage::withdraw();
            w.prefix = pfx_a;
            let mut out = RouterOutput::default();
            r.handle_update(
                t(k * 120 + 61),
                n(0),
                &w,
                &mut tb,
                &mut rng,
                &policy,
                &mut out,
            );
        }
        assert!(r.rib_in_for(pfx_a, n(0)).unwrap().is_suppressed());
        assert!(!r.rib_in_for(pfx_b, n(0)).unwrap().is_suppressed());
        assert_eq!(r.suppressed_entries(), 1);
        // Prefix B still routes.
        assert!(r.best_for(pfx_b).is_some());
        assert!(r.best_for(pfx_a).is_none());
    }

    #[test]
    fn mrai_is_per_prefix() {
        // Announcing prefix A must not delay prefix B's announcements
        // to the same peer.
        let mut tb = PathTable::new();
        let mut r = Router::new(n(1), vec![n(0), n(2)], false, plain_config(false), &mut tb);
        let policy = Policy::ShortestPath;
        let mut rng = rng();
        let pfx_a = Prefix::new(10);
        let pfx_b = Prefix::new(11);
        let mut out = RouterOutput::default();
        let msg = announce_prefix(&mut tb, 0, pfx_a);
        r.handle_update(t(0), n(0), &msg, &mut tb, &mut rng, &policy, &mut out);
        assert_eq!(out.sends.len(), 1, "prefix A announced to peer 2");
        let mut out = RouterOutput::default();
        let msg = announce_prefix(&mut tb, 0, pfx_b);
        r.handle_update(t(1), n(0), &msg, &mut tb, &mut rng, &policy, &mut out);
        assert_eq!(
            out.sends.len(),
            1,
            "prefix B goes out immediately despite A's fresh MRAI"
        );
        assert!(out.mrai_timers.is_empty());
    }

    #[test]
    fn session_down_withdraws_every_prefix() {
        let mut tb = PathTable::new();
        let mut r = Router::new(n(1), vec![n(0), n(2)], false, plain_config(true), &mut tb);
        let policy = Policy::ShortestPath;
        let mut rng = rng();
        let pfx_a = Prefix::new(10);
        let pfx_b = Prefix::new(11);
        let mut out = RouterOutput::default();
        let msg = announce_prefix(&mut tb, 0, pfx_a);
        r.handle_update(t(0), n(0), &msg, &mut tb, &mut rng, &policy, &mut out);
        let mut out = RouterOutput::default();
        let msg = announce_prefix(&mut tb, 0, pfx_b);
        r.handle_update(t(1), n(0), &msg, &mut tb, &mut rng, &policy, &mut out);
        let mut out = RouterOutput::default();
        r.on_session_down(t(10), n(0), None, &mut tb, &mut rng, &policy, &mut out);
        assert!(r.best_for(pfx_a).is_none());
        assert!(r.best_for(pfx_b).is_none());
        // Two withdrawals went to peer 2 (one per prefix).
        let withdrawals = out
            .sends
            .iter()
            .filter(|(to, m)| *to == n(2) && m.is_withdrawal())
            .count();
        assert_eq!(withdrawals, 2);
    }

    #[test]
    fn per_peer_state_stays_compact() {
        assert!(std::mem::size_of::<RibInEntry>() <= 40);
        assert!(std::mem::size_of::<MraiPeer>() <= 16);
        // The flat table holds PeerSlot × peers × prefixes: one cache
        // line per slot.
        assert!(std::mem::size_of::<PeerSlot>() <= 64);
        assert!(std::mem::size_of::<PrefixHead>() <= 56);
    }

    #[test]
    fn multi_origination() {
        let mut tb = PathTable::new();
        let mut r = Router::new(n(0), vec![n(1)], true, plain_config(false), &mut tb);
        r.originate(Prefix::new(5));
        let (policy, mut rng) = (Policy::ShortestPath, rng());
        let mut out = RouterOutput::default();
        r.kickoff(t(0), &mut tb, &mut rng, &policy, &mut out);
        assert_eq!(out.sends.len(), 2, "one announcement per originated prefix");
        let prefixes: std::collections::BTreeSet<_> =
            out.sends.iter().map(|(_, m)| m.prefix).collect();
        assert!(prefixes.contains(&Prefix::ORIGIN));
        assert!(prefixes.contains(&Prefix::new(5)));
        // Prefix 2 arrives after 5: known ids still ascend, and the ids
        // the router has no state for (1, 3, 4, 99) stay unknown.
        let msg = announce_prefix(&mut tb, 1, Prefix::new(2));
        r.handle_update(t(1), n(1), &msg, &mut tb, &mut rng, &policy, &mut out);
        let ids: Vec<u32> = r.known_prefixes().map(Prefix::id).collect();
        assert_eq!(ids, [0, 2, 5]);
        for unknown in [1, 3, 99].map(Prefix::new) {
            assert!(r.best_for(unknown).is_none() && r.rib_in_for(unknown, n(1)).is_none());
        }
        assert!(r.best_for(Prefix::new(2)).is_some());
    }
}
