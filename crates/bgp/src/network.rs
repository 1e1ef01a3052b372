//! The whole-network simulation harness.
//!
//! [`Network`] builds one [`Router`] per topology node, appends the
//! origin AS (Figure 1: `originAS` attached to a chosen `ispAS`),
//! partitions the routers into [`NetworkConfig::sim_shards`]
//! conservative simulation shards, injects the paper's pulse workload
//! on the origin link, and streams every trace event into a pluggable
//! [`TraceSink`] (default: [`VecSink`], the full [`rfd_metrics::Trace`];
//! sweeps plug in O(1)-memory aggregators).
//!
//! # Sharded execution
//!
//! Routers are assigned to shards by the deterministic FNV partition
//! ([`rfd_topology::shard_of`]). A shard owns what is *partitioned*: its
//! routers, one pair of RNG streams *per node* (`delays/<id>`,
//! `mrai/<id>`) — so a node's random draws depend only on its own event
//! order, never on which shard it shares with whom — the per-node
//! sequence numbers, delivery clamps and window buffers. What the
//! network has one of (the [`PathTable`], the [`Policy`], the origins,
//! the node → shard maps and the shards' [`ShardEngine`] queues side by
//! side) is held once and lent to whichever shard is running its
//! window. A [`Route`](crate::intern::Route) handle is therefore valid
//! at every router, and an update crossing a shard boundary is the same
//! [`NetEvent::Deliver`] a local one is, scheduled on the receiver's
//! queue. Shards advance in lock-step windows of `lookahead = min link
//! delay` planned by an [`EpochBarrier`]; the result is byte-identical
//! at any shard count — a tested contract, the same way the sweep
//! runner proves thread-count invariance.
//!
//! There is one window loop (`Coordinator::run`) and one thread of
//! control: plan a window, run it on every shard in turn on the
//! caller's thread, merge traces and ledger records in `(time, key)`
//! order. Sharding partitions *state*, not work — parallelism comes
//! from the sweep runner's cell pool one level up — so a shard that
//! panics is an ordinary panic of the caller.
//!
//! A run has three phases:
//!
//! 1. **warm-up** — the origin announces its prefix and the network
//!    converges with penalty charging disabled ("before the simulation
//!    starts, every node learns a stable route to the originAS", §5.1);
//! 2. **flapping** — `n` pulses (withdrawal, announcement 60 s later) on
//!    the `[originAS, ispAS]` link, charging enabled;
//! 3. **drain** — the run continues to quiescence: every pending update,
//!    MRAI and reuse timer fires (silent reuse timers do not affect the
//!    metrics, matching the paper's footnote 3).

use rfd_core::{
    FlapPattern, LedgerFilter, LedgerRecord, LedgerSink, LinkStatus, NullLedger, RootCause,
};
use rfd_metrics::{ConvergenceTracker, MessageCounter, Trace, TraceEventKind, TraceSink, VecSink};
use rfd_sim::{
    event_key, DetRng, EpochBarrier, RunOutcome, ShardEngine, SimDuration, SimTime, WindowPlan,
    INJECTOR_SRC,
};
use rfd_snap::{MixMap, MixSet};
use rfd_topology::{Graph, NodeId};

use crate::config::NetworkConfig;
use crate::intern::PathTable;
use crate::message::{Prefix, UpdateMessage};
use crate::policy::Policy;
use crate::router::{Router, RouterConfig, RouterOutput};

#[path = "snapshot.rs"]
pub mod snapshot;

/// Events exchanged through the simulation shards.
#[derive(Debug, Clone, Copy)]
pub enum NetEvent {
    /// Delivery of an update message to `to`.
    Deliver {
        /// Sending router.
        from: NodeId,
        /// Receiving router.
        to: NodeId,
        /// The message.
        msg: UpdateMessage,
    },
    /// Per-(peer, prefix) MRAI expiry callback.
    MraiExpiry {
        /// Router owning the timer.
        node: NodeId,
        /// The peer the timer paces.
        peer: NodeId,
        /// The prefix the timer paces.
        prefix: Prefix,
    },
    /// Reuse-timer callback for the entry of `prefix` that `node`
    /// learned from `peer`.
    ReuseTimer {
        /// Router owning the suppressed entry.
        node: NodeId,
        /// The peer the entry belongs to.
        peer: NodeId,
        /// The suppressed prefix.
        prefix: Prefix,
    },
    /// Status change of an origin link (the flap workload). The root
    /// cause is stamped when the event is injected so the handling
    /// shard needs no global sequence state.
    OriginLink {
        /// Index into the network's origin list.
        origin: usize,
        /// New link status.
        up: bool,
        /// Root cause (present when RCN is deployed).
        rc: Option<RootCause>,
    },
    /// One endpoint's view of an interior link status change (failure
    /// injection): the session to `peer` resets. A flap of link `a`–`b`
    /// is injected as two of these — one per endpoint, on the
    /// endpoint's own shard.
    LinkSession {
        /// The endpoint handling this event.
        node: NodeId,
        /// The peer at the other end of the link.
        peer: NodeId,
        /// New link status.
        up: bool,
        /// Root cause shared by both endpoint events.
        rc: Option<RootCause>,
        /// True on exactly one of the two endpoint events; the primary
        /// emits the single `LinkFlap` trace event.
        primary: bool,
    },
}

/// Summary of one simulation run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The paper's convergence-time metric.
    pub convergence_time: SimDuration,
    /// The paper's message-count metric.
    pub message_count: usize,
    /// Engine events processed during the measured phase.
    pub events_processed: u64,
    /// How the run ended (should be `Quiescent`).
    pub outcome: RunOutcome,
}

/// One origin AS attached to the network (Figure 1's originAS/ispAS
/// pair); the network supports several, each originating its own
/// prefix.
#[derive(Debug, Clone, Copy)]
pub struct OriginAttachment {
    /// The appended origin node.
    pub node: NodeId,
    /// The ISP it attaches to.
    pub isp: NodeId,
    /// The prefix it originates.
    pub prefix: Prefix,
}

fn norm_link(a: NodeId, b: NodeId) -> (u32, u32) {
    let (x, y) = (a.raw(), b.raw());
    if x < y {
        (x, y)
    } else {
        (y, x)
    }
}

/// What the network has one of, lent to whichever shard is running
/// its window.
struct Shared {
    /// Every distinct AS path, once: a [`Route`] handle is valid at
    /// every router, whatever shard it is on.
    ///
    /// [`Route`]: crate::intern::Route
    path_table: PathTable,
    policy: Policy,
    origins: Vec<OriginAttachment>,
    delay_range: (SimDuration, SimDuration),
    /// Raw node id → owning shard.
    node_shard: Vec<u16>,
    /// Raw node id → index into its shard's `routers`.
    node_local: Vec<u32>,
    /// One event queue per shard, by shard id. They sit side by side
    /// here so that a send is a `schedule` on the receiver's queue
    /// whichever shard the receiver is on: a wheel pops in pure
    /// `(time, key)` order whatever the insertion order, and a delivery
    /// lands at `now + delay ≥ now + lookahead`, at or after the end of
    /// the window being run (`ShardEngine::schedule` debug-asserts it is
    /// not behind the receiver's clock).
    queues: Vec<ShardEngine<NetEvent>>,
}

/// One simulation shard: the routers it owns and their per-node RNG
/// streams, sequence numbers and delivery clamps. Everything
/// network-wide, its event queue included, comes in as a [`Shared`].
struct Shard {
    id: usize,
    /// Local routers in ascending global id order.
    routers: Vec<Router>,
    /// Per local node: message-delay stream (`delays/<id>`).
    delay_rngs: Vec<DetRng>,
    /// Per local node: MRAI-jitter stream (`mrai/<id>`).
    mrai_rngs: Vec<DetRng>,
    /// Per local node: next canonical event sequence number.
    seqs: Vec<u64>,
    /// Per directed link out of this shard's nodes: the latest delivery
    /// instant scheduled so far. BGP sessions run over TCP, so updates
    /// between two peers arrive in the order they were sent — later
    /// messages are clamped to arrive strictly after earlier ones
    /// (without this, a withdrawal can be overtaken by an older
    /// announcement and install a permanently stale route). The sender
    /// owns the slot, so cross-shard links need no shared state.
    last_delivery: MixMap<(u32, u32), SimTime>,
    /// This shard's view of interior links currently down. Both
    /// endpoints process their own `LinkSession` event, so every shard
    /// that can receive over the link knows its status.
    down_links: MixSet<(u32, u32)>,
    /// Messages dropped on dead links.
    dropped: u64,
    /// True during warm-up: traces and ledger records are discarded.
    muted: bool,
    /// Trace events discarded while muted.
    discarded: u64,
    /// The current window's output, which the coordinator drains at
    /// the barrier (the buffers are cleared, never dropped, so a run
    /// allocates them once): trace events and ledger records in
    /// processing order — which is `(time, key)` order, pops are
    /// monotone.
    traces: Vec<(SimTime, u64, TraceEventKind)>,
    ledger: Vec<(SimTime, u64, LedgerRecord)>,
    /// The one [`RouterOutput`] every event of this shard is handled
    /// through: [`Shard::handle`] takes it, the router fills it,
    /// [`Shard::apply_output`] drains it and hands it back.
    out: RouterOutput,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("id", &self.id)
            .field("routers", &self.routers.len())
            .finish()
    }
}

impl Shard {
    fn local(&self, net: &Shared, node: NodeId) -> usize {
        debug_assert_eq!(net.node_shard[node.index()] as usize, self.id);
        net.node_local[node.index()] as usize
    }

    /// Next canonical event key for an event created by local `node`.
    fn next_key(&mut self, net: &Shared, node: NodeId) -> u64 {
        let l = self.local(net, node);
        let seq = self.seqs[l];
        self.seqs[l] += 1;
        event_key(node.raw(), seq)
    }

    /// Buffers one trace event under the processing event's `(at, key)`
    /// identity (discarded while muted).
    fn emit(&mut self, at: SimTime, key: u64, kind: TraceEventKind) {
        if self.muted {
            self.discarded += 1;
        } else {
            self.traces.push((at, key, kind));
        }
    }

    /// Delivery instant for a message sent now on `from → to`:
    /// `now + random delay`, pushed past any earlier in-flight message
    /// on the same directed link (TCP ordering). The delay comes from
    /// the *sender's* stream, so the draw order is the sender's event
    /// order — shard-layout invariant.
    fn delivery_at(&mut self, net: &Shared, now: SimTime, from: NodeId, to: NodeId) -> SimTime {
        let l = self.local(net, from);
        let (lo, hi) = net.delay_range;
        let natural = now + self.delay_rngs[l].duration_between(lo, hi);
        let slot = self
            .last_delivery
            .entry((from.raw(), to.raw()))
            .or_insert(SimTime::ZERO);
        let at = if natural > *slot {
            natural
        } else {
            *slot + SimDuration::from_micros(1)
        };
        *slot = at;
        at
    }

    /// Sends one update, tracing it under `emit_key`, the identity of
    /// the event being processed (for trace ordering).
    fn send(
        &mut self,
        net: &mut Shared,
        now: SimTime,
        emit_key: u64,
        from: NodeId,
        to: NodeId,
        msg: UpdateMessage,
    ) {
        self.emit(
            now,
            emit_key,
            TraceEventKind::UpdateSent {
                from: from.raw(),
                to: to.raw(),
                withdrawal: msg.is_withdrawal(),
            },
        );
        self.transmit(net, now, from, to, msg);
    }

    /// Puts one update on the wire: a delivery event on the queue of
    /// the receiver's shard, this one or another.
    fn transmit(
        &mut self,
        net: &mut Shared,
        now: SimTime,
        from: NodeId,
        to: NodeId,
        msg: UpdateMessage,
    ) {
        let at = self.delivery_at(net, now, from, to);
        let key = self.next_key(net, from);
        let dest = net.node_shard[to.index()] as usize;
        net.queues[dest].schedule(at, key, NetEvent::Deliver { from, to, msg });
    }

    /// Turns what a router produced into trace events, ledger records
    /// and scheduled events, leaving `out` empty in `self.out` for the
    /// next event.
    fn apply_output(
        &mut self,
        net: &mut Shared,
        now: SimTime,
        key: u64,
        node: NodeId,
        mut out: RouterOutput,
    ) {
        rfd_obs::add("bgp.updates_sent", out.sends.len() as u64);
        rfd_obs::add("bgp.mrai_scheduled", out.mrai_timers.len() as u64);
        for kind in out.traces.drain(..) {
            self.emit(now, key, kind);
        }
        for record in out.ledger.drain(..) {
            if !self.muted {
                self.ledger.push((now, key, record));
            }
        }
        for (to, msg) in out.sends.drain(..) {
            self.send(net, now, key, node, to, msg);
        }
        for (peer, prefix, at) in out.mrai_timers.drain(..) {
            let k = self.next_key(net, node);
            net.queues[self.id].schedule(at, k, NetEvent::MraiExpiry { node, peer, prefix });
        }
        for (peer, prefix, at) in out.reuse_timers.drain(..) {
            let k = self.next_key(net, node);
            net.queues[self.id].schedule(at, k, NetEvent::ReuseTimer { node, peer, prefix });
        }
        self.out = out;
    }

    fn handle(&mut self, net: &mut Shared, at: SimTime, key: u64, event: NetEvent) {
        match event {
            NetEvent::Deliver { from, to, msg } => {
                if self.down_links.contains(&norm_link(from, to)) {
                    // The session died while this message was in
                    // flight: TCP loses it.
                    self.dropped += 1;
                    return;
                }
                rfd_obs::inc("bgp.updates_received");
                self.emit(
                    at,
                    key,
                    TraceEventKind::UpdateReceived {
                        from: from.raw(),
                        to: to.raw(),
                        withdrawal: msg.is_withdrawal(),
                    },
                );
                let l = self.local(net, to);
                let mut out = std::mem::take(&mut self.out);
                self.routers[l].handle_update(
                    at,
                    from,
                    &msg,
                    &mut net.path_table,
                    &mut self.mrai_rngs[l],
                    &net.policy,
                    &mut out,
                );
                self.apply_output(net, at, key, to, out);
            }
            NetEvent::MraiExpiry { node, peer, prefix } => {
                rfd_obs::inc("bgp.mrai_expiries");
                let l = self.local(net, node);
                let mut out = std::mem::take(&mut self.out);
                self.routers[l].on_mrai_expiry(
                    at,
                    peer,
                    prefix,
                    &mut net.path_table,
                    &mut self.mrai_rngs[l],
                    &net.policy,
                    &mut out,
                );
                self.apply_output(net, at, key, node, out);
            }
            NetEvent::ReuseTimer { node, peer, prefix } => {
                let l = self.local(net, node);
                let mut out = std::mem::take(&mut self.out);
                self.routers[l].on_reuse_timer(
                    at,
                    peer,
                    prefix,
                    &mut net.path_table,
                    &mut self.mrai_rngs[l],
                    &net.policy,
                    &mut out,
                );
                self.apply_output(net, at, key, node, out);
            }
            NetEvent::OriginLink { origin, up, rc } => {
                let attachment = net.origins[origin];
                self.emit(
                    at,
                    key,
                    TraceEventKind::OriginFlap {
                        prefix: attachment.prefix.id(),
                        up,
                    },
                );
                let mut msg = if up {
                    UpdateMessage::announce(net.path_table.originate(attachment.node))
                        .with_root_cause(rc)
                } else {
                    UpdateMessage::withdraw().with_root_cause(rc)
                };
                msg.prefix = attachment.prefix;
                self.send(net, at, key, attachment.node, attachment.isp, msg);
            }
            NetEvent::LinkSession {
                node,
                peer,
                up,
                rc,
                primary,
            } => {
                if primary {
                    self.emit(
                        at,
                        key,
                        TraceEventKind::LinkFlap {
                            a: node.raw(),
                            b: peer.raw(),
                            up,
                        },
                    );
                }
                let link = norm_link(node, peer);
                if up {
                    self.down_links.remove(&link);
                } else {
                    self.down_links.insert(link);
                }
                let l = self.local(net, node);
                let mut out = std::mem::take(&mut self.out);
                if up {
                    self.routers[l].on_session_up(
                        at,
                        peer,
                        rc,
                        &mut net.path_table,
                        &mut self.mrai_rngs[l],
                        &net.policy,
                        &mut out,
                    );
                } else {
                    self.routers[l].on_session_down(
                        at,
                        peer,
                        rc,
                        &mut net.path_table,
                        &mut self.mrai_rngs[l],
                        &net.policy,
                        &mut out,
                    );
                }
                self.apply_output(net, at, key, node, out);
            }
        }
    }

    /// Runs one window: processes every event of this shard's queue
    /// strictly before `end`, leaving the output in `traces` and
    /// `ledger`, which the coordinator has drained. Returns the number
    /// of events processed.
    fn run_window(&mut self, net: &mut Shared, end: SimTime) -> u64 {
        let before = net.queues[self.id].processed();
        while let Some((at, key, event)) = net.queues[self.id].pop_before(end) {
            self.handle(net, at, key, event);
        }
        net.queues[self.id].processed() - before
    }

    /// Runs the origin's kickoff announcement through this shard's
    /// machinery (warm-up priming). Mirrors the workload injection
    /// path: only the resulting sends are scheduled.
    fn kickoff_origin(&mut self, net: &mut Shared, origin: NodeId) {
        let l = self.local(net, origin);
        let mut out = RouterOutput::default();
        self.routers[l].kickoff(
            SimTime::ZERO,
            &mut net.path_table,
            &mut self.mrai_rngs[l],
            &net.policy,
            &mut out,
        );
        for (to, msg) in out.sends {
            self.transmit(net, SimTime::ZERO, origin, to, msg);
        }
    }
}

/// The coordinator's half of a run: everything the window loop touches
/// except the shards and the [`Shared`] state, which
/// [`Coordinator::run`] is handed; it steps the shards one after
/// another on the caller's thread.
struct Coordinator<S> {
    /// Per-window merge scratch, kept across windows like the shards'
    /// own buffers.
    traces: Vec<(SimTime, u64, TraceEventKind)>,
    records: Vec<(SimTime, u64, LedgerRecord)>,
    /// The pluggable trace observer for the measured phase.
    sink: S,
    /// Always-on headline aggregators: [`RunReport`] fields come from
    /// these, whatever sink is plugged in.
    conv: ConvergenceTracker,
    msgs: MessageCounter,
    /// The damping-lifecycle ledger consumer ([`NullLedger`] until a
    /// filter is installed with `Network::set_ledger`).
    ledger: Box<dyn LedgerSink>,
    /// Total events processed over the network's lifetime.
    processed: u64,
}

impl<S: TraceSink> Coordinator<S> {
    /// The window loop. Each iteration plans a window from the earliest
    /// pending event on any queue, runs it on every shard in turn, and
    /// feeds the shards' trace events and ledger records to the
    /// consumers in canonical order.
    fn run(
        &mut self,
        barrier: &mut EpochBarrier,
        shards: &mut [Shard],
        net: &mut Shared,
    ) -> RunOutcome {
        let run_start = self.processed;
        loop {
            let min_next = net
                .queues
                .iter_mut()
                .filter_map(ShardEngine::next_time)
                .min();
            let end = match barrier.plan(min_next, self.processed - run_start) {
                WindowPlan::Run { end } => end,
                WindowPlan::Done(outcome) => return outcome,
            };
            for shard in shards.iter_mut() {
                self.processed += shard.run_window(net, end);
                self.traces.append(&mut shard.traces);
                self.records.append(&mut shard.ledger);
            }
            // The sorts are stable, so events of one processing step
            // keep their emission order; keys are unique per step, so
            // cross-shard ties cannot occur.
            self.traces.sort_by_key(|&(at, key, _)| (at, key));
            for (at, _, kind) in self.traces.drain(..) {
                self.conv.record(at, kind);
                self.msgs.record(at, kind);
                self.sink.record(at, kind);
            }
            self.records.sort_by_key(|&(at, key, _)| (at, key));
            for (_, _, record) in self.records.drain(..) {
                self.ledger.record(record);
            }
        }
    }
}

/// A simulated BGP network running the paper's workload.
///
/// The sink type parameter selects how trace events are observed during
/// the measured phase: the default [`VecSink`] buffers the full
/// [`Trace`] (figures replaying history need it), while aggregate-only
/// sinks ([`rfd_metrics::SuppressionStats`], tuples of trackers, …)
/// keep per-run memory O(1) in the event count. [`RunReport`] fields
/// come from built-in aggregators either way.
pub struct Network<S: TraceSink = VecSink> {
    shards: Vec<Shard>,
    shared: Shared,
    coord: Coordinator<S>,
    horizon: SimTime,
    rcn_enabled: bool,
    /// Root-cause sequence numbers, stamped at injection time.
    rc_seq: u64,
    /// Canonical key sequence for injected (primed) events.
    inj_seq: u64,
    /// Synchronization windows executed over the network's lifetime.
    windows: u64,
    warmed_up: bool,
    /// True exactly between the end of [`Network::warm_up`] and the
    /// first workload injection: a snapshot taken here is *warm* —
    /// penalties zero, filters pristine — and eligible for forking
    /// into damping-parameter variants (see [`snapshot`]).
    warm_boundary: bool,
    /// Lifetime processed count at the instant the current measured
    /// workload was primed; every [`RunReport`] counts
    /// `processed - measured_base`, so a cut- or killed-and-resumed run
    /// reports the same as an uninterrupted one.
    measured_base: u64,
}

impl<S: TraceSink> std::fmt::Debug for Network<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("shards", &self.shards)
            .field("origins", &self.shared.origins)
            .field("retained_events", &self.coord.sink.retained_events())
            .field("warmed_up", &self.warmed_up)
            .finish()
    }
}

impl Network<VecSink> {
    /// Builds a network over `base` with the origin AS attached to
    /// `isp` (Figure 1), under the given configuration, buffering the
    /// full trace.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`NetworkConfig::validate`]) or `isp` is out of range.
    pub fn new(base: &Graph, isp: NodeId, config: NetworkConfig) -> Self {
        Network::new_multi(base, &[isp], config)
    }

    /// Builds a network with one origin AS per entry of `isps`: origin
    /// `i` is appended as a new node attached to `isps[i]` and
    /// originates [`Prefix::new`]`(i)`. (So the single-origin
    /// [`Network::new`] yields [`Prefix::ORIGIN`].) The full trace is
    /// buffered.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`NetworkConfig::validate`]), `isps` is empty, or an ISP is out
    /// of range.
    pub fn new_multi(base: &Graph, isps: &[NodeId], config: NetworkConfig) -> Self {
        Network::new_multi_with_sink(base, isps, config, VecSink::new())
    }

    /// The trace recorded so far (measured phase only; warm-up records
    /// nothing).
    pub fn trace(&self) -> &Trace {
        &self.coord.sink
    }
}

impl<S: TraceSink> Network<S> {
    /// Like [`Network::new`], but observing the measured phase through
    /// `sink` instead of buffering a [`Trace`].
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`NetworkConfig::validate`]) or `isp` is out of range.
    pub fn new_with_sink(base: &Graph, isp: NodeId, config: NetworkConfig, sink: S) -> Self {
        Network::new_multi_with_sink(base, &[isp], config, sink)
    }

    /// Like [`Network::new_multi`], but observing the measured phase
    /// through `sink`.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`NetworkConfig::validate`]), `isps` is empty, or an ISP is out
    /// of range.
    pub fn new_multi_with_sink(
        base: &Graph,
        isps: &[NodeId],
        mut config: NetworkConfig,
        sink: S,
    ) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid configuration: {e}"));
        assert!(!isps.is_empty(), "need at least one origin attachment");
        // The clone is necessary: origin nodes are appended below, and
        // the caller keeps `base` (the same graph is reused across sweep
        // cells). The policy, in contrast, is ours to keep — take it.
        let mut graph = base.clone();
        let mut policy = std::mem::take(&mut config.policy);
        let mut origins = Vec::with_capacity(isps.len());
        for (i, &isp) in isps.iter().enumerate() {
            assert!(
                isp.index() < base.node_count(),
                "isp {isp} outside the base graph"
            );
            let origin = graph.add_node();
            graph.add_link(origin, isp);
            // Under policy routing, each origin AS is a *customer* of
            // its ISP (Figure 1: "a customer network, the originAS, is
            // connected to a router in its provider network, the
            // ispAS") — label the appended link accordingly so the
            // origin's announcements climb the hierarchy.
            if let Policy::NoValley(rel) = &mut policy {
                rel.set_provider(rfd_topology::Link::new(origin, isp), isp);
            }
            origins.push(OriginAttachment {
                node: origin,
                isp,
                prefix: Prefix::new(i as u32),
            });
        }

        let mut deploy_rng = DetRng::from_seed_and_label(config.seed, "damping-deployment");
        let damping = config.damping.resolve(graph.node_count(), &mut deploy_rng);

        // Deterministic FNV partition over the full graph, appended
        // origins included.
        let n_shards = config.sim_shards;
        let node_shard: Vec<u16> = graph
            .nodes()
            .map(|n| rfd_topology::shard_of(n, n_shards))
            .collect();
        let mut node_local = vec![0u32; graph.node_count()];
        let mut shard_sizes = vec![0u32; n_shards];
        for (i, &s) in node_shard.iter().enumerate() {
            node_local[i] = shard_sizes[s as usize];
            shard_sizes[s as usize] += 1;
        }

        let mut shards: Vec<Shard> = (0..n_shards)
            .map(|id| Shard {
                id,
                routers: Vec::with_capacity(shard_sizes[id] as usize),
                delay_rngs: Vec::with_capacity(shard_sizes[id] as usize),
                mrai_rngs: Vec::with_capacity(shard_sizes[id] as usize),
                seqs: vec![0; shard_sizes[id] as usize],
                last_delivery: MixMap::default(),
                down_links: MixSet::default(),
                dropped: 0,
                // Warm-up runs muted; `warm_up` lifts the mute once the
                // network has converged.
                muted: true,
                discarded: 0,
                traces: Vec::new(),
                ledger: Vec::new(),
                out: RouterOutput::default(),
            })
            .collect();

        let mut path_table = PathTable::new();
        for id in graph.nodes() {
            let shard = &mut shards[node_shard[id.index()] as usize];
            let peers: Vec<NodeId> = graph.neighbors(id).to_vec();
            let rc = RouterConfig {
                damping: damping[id.index()],
                filter: config.filter,
                mrai: config.mrai,
                mrai_jitter: config.mrai_jitter,
                protocol: config.protocol,
            };
            let mut router = Router::new(id, peers, false, rc, &mut path_table);
            if let Some(att) = origins.iter().find(|a| a.node == id) {
                router.originate(att.prefix);
            }
            router.set_charging(false); // warm-up first
            shard.routers.push(router);
            shard.delay_rngs.push(DetRng::from_seed_and_label(
                config.seed,
                &format!("delays/{}", id.raw()),
            ));
            shard.mrai_rngs.push(DetRng::from_seed_and_label(
                config.seed,
                &format!("mrai/{}", id.raw()),
            ));
        }

        Network {
            shared: Shared {
                path_table,
                policy,
                origins,
                delay_range: config.delay_range,
                node_shard,
                node_local,
                queues: (0..n_shards).map(|_| ShardEngine::new()).collect(),
            },
            coord: Coordinator {
                traces: Vec::new(),
                records: Vec::new(),
                sink,
                conv: ConvergenceTracker::new(),
                msgs: MessageCounter::new(),
                ledger: Box::new(NullLedger),
                processed: 0,
            },
            shards,
            horizon: SimTime::ZERO + config.horizon,
            rcn_enabled: config.filter == crate::config::PenaltyFilter::Rcn,
            rc_seq: 0,
            inj_seq: 0,
            windows: 0,
            warmed_up: false,
            warm_boundary: false,
            measured_base: 0,
        }
    }

    /// The first origin AS id (the appended node).
    pub fn origin(&self) -> NodeId {
        self.shared.origins[0].node
    }

    /// The first origin's ISP AS id.
    pub fn isp(&self) -> NodeId {
        self.shared.origins[0].isp
    }

    /// All origin attachments.
    pub fn origins(&self) -> &[OriginAttachment] {
        &self.shared.origins
    }

    /// Current simulated time: the instant of the last processed event.
    pub fn now(&self) -> SimTime {
        self.shared
            .queues
            .iter()
            .map(ShardEngine::now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Number of simulation shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Synchronization windows executed so far. A window is one
    /// lookahead (the minimum link delay) wide, so it covers few
    /// events: 1.9–9.1 on the perf ledger's workloads.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Total events processed over the network's lifetime (warm-up
    /// included).
    pub fn events_processed(&self) -> u64 {
        self.coord.processed
    }

    /// Always zero: every shard's window runs on the caller's thread,
    /// so nothing waits at a barrier. Kept because the perf ledger
    /// calls it; its `bgp.network.stall_share` row reads 0 until a
    /// `[benchmark]` PR (ROADMAP item 1) drops both.
    pub fn barrier_stall(&self) -> std::time::Duration {
        std::time::Duration::ZERO
    }

    /// Read access to the measured-phase sink.
    pub fn sink(&self) -> &S {
        &self.coord.sink
    }

    /// Consumes the network, finishing and yielding the sink (pending
    /// aggregator state flushes; `metrics.sink.*` obs counters fire).
    pub fn into_sink(mut self) -> S {
        self.coord.ledger.finish();
        self.coord.sink.finish();
        self.coord.sink
    }

    /// Installs the damping-lifecycle ledger: every router starts
    /// checking `filter` at its emission sites, and matching records
    /// stream into `sink` during the measured phase (warm-up records
    /// are dropped, like trace events).
    ///
    /// Keep a [`rfd_core::SharedLedger`] clone to read the records back
    /// after the run.
    pub fn set_ledger(&mut self, filter: LedgerFilter, sink: Box<dyn LedgerSink>) {
        let filter = std::sync::Arc::new(filter);
        for shard in &mut self.shards {
            for router in &mut shard.routers {
                router.set_ledger_filter(Some(std::sync::Arc::clone(&filter)));
            }
        }
        self.coord.ledger = sink;
    }

    /// Finishes and detaches the ledger sink, restoring the off state.
    pub fn clear_ledger(&mut self) {
        for shard in &mut self.shards {
            for router in &mut shard.routers {
                router.set_ledger_filter(None);
            }
        }
        self.coord.ledger.finish();
        self.coord.ledger = Box::new(NullLedger);
    }

    /// Read access to a router (for tests and inspection).
    pub fn router(&self, id: NodeId) -> &Router {
        let shard = &self.shards[self.shard_index(id)];
        &shard.routers[self.shared.node_local[id.index()] as usize]
    }

    /// Read access to the network's AS-path interner, at any shard
    /// count (resolve any router's [`Route`] handles, inspect
    /// [`PathTable::stats`]).
    ///
    /// [`Route`]: crate::intern::Route
    pub fn path_table(&self) -> &PathTable {
        &self.shared.path_table
    }

    /// Total suppressed RIB-IN entries across the network.
    pub fn suppressed_entries(&self) -> usize {
        self.shards
            .iter()
            .flat_map(|s| s.routers.iter())
            .map(Router::suppressed_entries)
            .sum()
    }

    /// Messages lost on links that went down while they were in flight.
    pub fn dropped_messages(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped).sum()
    }

    fn shard_index(&self, node: NodeId) -> usize {
        self.shared.node_shard[node.index()] as usize
    }

    /// Injects one coordinator event onto the owning shard's queue
    /// under the next injector key.
    fn prime(&mut self, at: SimTime, owner: NodeId, event: NetEvent) {
        let key = event_key(INJECTOR_SRC, self.inj_seq);
        self.inj_seq += 1;
        self.warm_boundary = false;
        let s = self.shard_index(owner);
        self.shared.queues[s].schedule(at, key, event);
    }

    fn next_root_cause(&mut self, link: (u32, u32), up: bool) -> Option<RootCause> {
        if !self.rcn_enabled {
            return None;
        }
        self.rc_seq += 1;
        Some(RootCause::new(
            link,
            if up { LinkStatus::Up } else { LinkStatus::Down },
            self.rc_seq,
        ))
    }

    /// Runs every shard to completion under the conservative barrier
    /// protocol ([`Coordinator::run`] is the loop), at any shard count
    /// on the caller's thread.
    fn drive(&mut self) -> RunOutcome {
        let obs_span = rfd_obs::is_enabled().then(|| rfd_obs::span("sim.run"));
        let budget = EpochBarrier::DEFAULT_EVENT_BUDGET;
        // The conservative window width is the minimum link delay.
        let lookahead = self.shared.delay_range.0;
        let mut barrier = EpochBarrier::new(lookahead, self.horizon, budget);
        let before = self.coord.processed;
        let outcome = self
            .coord
            .run(&mut barrier, &mut self.shards, &mut self.shared);
        self.windows += barrier.windows();
        rfd_obs::add("sim.events", self.coord.processed - before);
        if let Some(mut span) = obs_span {
            span.sim_time_us(self.now().as_micros());
        }
        outcome
    }

    /// The report of the measured workload so far.
    fn report(&self, outcome: RunOutcome) -> RunReport {
        RunReport {
            convergence_time: self.coord.conv.convergence_time(),
            message_count: self.coord.msgs.message_count(),
            events_processed: self.coord.processed - self.measured_base,
            outcome,
        }
    }

    /// Phase 1: the origin announces its prefix and the network
    /// converges with penalty charging disabled. Warm-up events are
    /// discarded at the shards: nothing reaches the measured-phase sink
    /// or the headline aggregators.
    ///
    /// # Panics
    ///
    /// Panics if the network fails to reach quiescence (horizon or
    /// budget hit — a configuration pathology).
    pub fn warm_up(&mut self) -> &mut Self {
        let _obs_span = rfd_obs::span("bgp.warmup");
        assert!(!self.warmed_up, "warm_up may only run once");
        for i in 0..self.shared.origins.len() {
            let origin = self.shared.origins[i].node;
            let s = self.shard_index(origin);
            self.shards[s].kickoff_origin(&mut self.shared, origin);
        }
        let outcome = self.drive();
        assert_eq!(outcome, RunOutcome::Quiescent, "warm-up failed to converge");
        for att in &self.shared.origins {
            assert!(
                self.shards
                    .iter()
                    .flat_map(|s| s.routers.iter())
                    .all(|r| r.best_for(att.prefix).is_some()),
                "warm-up left some router without a route to {}",
                att.prefix
            );
        }
        for shard in &mut self.shards {
            for r in &mut shard.routers {
                r.set_charging(true);
            }
        }
        assert_eq!(
            self.coord.sink.retained_events(),
            0,
            "warm-up must not retain trace events"
        );
        let discarded: u64 = self.shards.iter().map(|s| s.discarded).sum();
        rfd_obs::add("bgp.warmup_events_discarded", discarded);
        for shard in &mut self.shards {
            shard.muted = false;
        }
        self.warmed_up = true;
        self.warm_boundary = true;
        self
    }

    /// Phase 2+3: injects `pattern` on the origin link starting
    /// `lead_in` after the current clock, then runs to quiescence.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Network::warm_up`].
    pub fn run_pulses(&mut self, pattern: FlapPattern, lead_in: SimDuration) -> RunReport {
        self.run_schedule(&rfd_core::FlapSchedule::from(pattern), lead_in)
    }

    /// Like [`Network::run_pulses`], but with an arbitrary
    /// [`rfd_core::FlapSchedule`] (randomised gaps, bursts, …) on the
    /// origin link.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Network::warm_up`].
    pub fn run_schedule(
        &mut self,
        schedule: &rfd_core::FlapSchedule,
        lead_in: SimDuration,
    ) -> RunReport {
        self.run_schedules(&[(0, schedule)], lead_in)
    }

    /// Runs several origin-link schedules simultaneously (multi-origin
    /// workloads): each `(origin index, schedule)` pair flaps that
    /// origin's access link, all offsets measured from the same start.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Network::warm_up`] or an origin index
    /// is out of range.
    pub fn run_schedules(
        &mut self,
        schedules: &[(usize, &rfd_core::FlapSchedule)],
        lead_in: SimDuration,
    ) -> RunReport {
        self.prime_schedules(schedules, lead_in);
        let outcome = self.drive();
        self.report(outcome)
    }

    /// Injects every flap event of `schedules` up-front (so a snapshot
    /// taken mid-run carries the rest of the workload in its event
    /// wheels) and marks the start of the measured phase.
    fn prime_schedules(
        &mut self,
        schedules: &[(usize, &rfd_core::FlapSchedule)],
        lead_in: SimDuration,
    ) {
        assert!(self.warmed_up, "call warm_up() before running a workload");
        self.measured_base = self.coord.processed;
        let start = self.now() + lead_in;
        for &(origin, schedule) in schedules {
            assert!(
                origin < self.shared.origins.len(),
                "origin index {origin} out of range"
            );
            let att = self.shared.origins[origin];
            for &(offset, status) in schedule.events() {
                let at = start + offset.since(SimTime::ZERO);
                let up = status == rfd_core::LinkStatus::Up;
                // §6.1: the detecting endpoint stamps a fresh root
                // cause {[ispAS originAS], status, seq}.
                let rc = self.next_root_cause((att.isp.raw(), att.node.raw()), up);
                self.prime(at, att.node, NetEvent::OriginLink { origin, up, rc });
            }
        }
    }

    /// Like [`Network::run_schedules`], but pausing every `every` of
    /// simulated time to hand `&mut self` to `checkpoint` (typically
    /// [`snapshot::Snapshot::capture`] + a file write). The pauses land
    /// on conservative window boundaries and are **byte-neutral**: the
    /// traces, ledger records, and report are identical to an
    /// uninterrupted [`Network::run_schedules`] call. Return `false`
    /// from `checkpoint` to abandon the run early (the report then
    /// carries [`RunOutcome::HorizonReached`]).
    ///
    /// # Panics
    ///
    /// Panics if called before [`Network::warm_up`] or `every` is zero.
    pub fn run_schedules_with_checkpoints(
        &mut self,
        schedules: &[(usize, &rfd_core::FlapSchedule)],
        lead_in: SimDuration,
        every: SimDuration,
        checkpoint: impl FnMut(&mut Network<S>) -> bool,
    ) -> RunReport {
        self.prime_schedules(schedules, lead_in);
        self.drive_with_checkpoints(every, checkpoint)
    }

    /// Continues a restored run (see [`snapshot::Snapshot::resume_into`])
    /// to quiescence, with the same periodic-checkpoint contract as
    /// [`Network::run_schedules_with_checkpoints`]. The report covers
    /// the *whole* measured workload — including the events processed
    /// before the snapshot was taken — so a killed-and-resumed run
    /// reports exactly what the uninterrupted run would have.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Network::warm_up`] or `every` is zero.
    pub fn resume_with_checkpoints(
        &mut self,
        every: SimDuration,
        checkpoint: impl FnMut(&mut Network<S>) -> bool,
    ) -> RunReport {
        assert!(self.warmed_up, "resume requires a warmed-up network");
        self.drive_with_checkpoints(every, checkpoint)
    }

    /// Continues a restored run (see [`snapshot::Snapshot::resume_into`])
    /// straight to quiescence, with no further checkpoints. The report
    /// covers the whole measured workload, as for
    /// [`Network::resume_with_checkpoints`].
    ///
    /// # Panics
    ///
    /// Panics if called before [`Network::warm_up`].
    pub fn resume(&mut self) -> RunReport {
        assert!(self.warmed_up, "resume requires a warmed-up network");
        let outcome = self.drive();
        self.report(outcome)
    }

    fn drive_with_checkpoints(
        &mut self,
        every: SimDuration,
        mut checkpoint: impl FnMut(&mut Network<S>) -> bool,
    ) -> RunReport {
        assert!(!every.is_zero(), "checkpoint interval must be positive");
        let horizon = self.horizon;
        let mut next_cp = self.now() + every;
        let outcome = loop {
            let cap = next_cp.min(horizon);
            match self.drive_until(cap) {
                RunOutcome::HorizonReached if cap < horizon => {
                    if !checkpoint(self) {
                        break RunOutcome::HorizonReached;
                    }
                    next_cp += every;
                }
                other => break other,
            }
        };
        self.report(outcome)
    }

    /// Advances the simulation until quiescence or until every event at
    /// or before `cap` has been processed, whichever comes first, by
    /// temporarily lowering the horizon. Window segmentation does not
    /// affect results (pop order is the pure `(time, key)` order and
    /// cross-shard messages always land beyond the lookahead), so
    /// splitting a run at `cap` is invisible in every output.
    fn drive_until(&mut self, cap: SimTime) -> RunOutcome {
        let saved = self.horizon;
        self.horizon = cap.min(saved);
        let out = self.drive();
        self.horizon = saved;
        out
    }

    /// Flaps an **interior** link per `schedule` (failure injection):
    /// both endpoint sessions reset on each down event and re-advertise
    /// on each up event; in-flight messages on the dead link are lost.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Network::warm_up`], or if `a`–`b` is
    /// not a link of the network.
    pub fn run_link_schedule(
        &mut self,
        a: NodeId,
        b: NodeId,
        schedule: &rfd_core::FlapSchedule,
        lead_in: SimDuration,
    ) -> RunReport {
        assert!(self.warmed_up, "call warm_up() before running a workload");
        assert!(
            a.index() < self.shared.node_shard.len() && self.router(a).peers().contains(&b),
            "{a}–{b} is not a link of this network"
        );
        self.measured_base = self.coord.processed;
        let start = self.now() + lead_in;
        for &(offset, status) in schedule.events() {
            let at = start + offset.since(SimTime::ZERO);
            let up = status == rfd_core::LinkStatus::Up;
            let rc = self.next_root_cause(norm_link(a, b), up);
            self.prime(
                at,
                a,
                NetEvent::LinkSession {
                    node: a,
                    peer: b,
                    up,
                    rc,
                    primary: true,
                },
            );
            self.prime(
                at,
                b,
                NetEvent::LinkSession {
                    node: b,
                    peer: a,
                    up,
                    rc,
                    primary: false,
                },
            );
        }
        let outcome = self.drive();
        self.report(outcome)
    }

    /// Convenience: warm up and run the paper's default workload of
    /// `pulses` pulses at 60-second intervals.
    pub fn run_paper_workload(&mut self, pulses: usize) -> RunReport {
        if !self.warmed_up {
            self.warm_up();
        }
        self.run_pulses(
            FlapPattern::paper_default(pulses),
            SimDuration::from_secs(100),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_topology::{line, mesh_torus, ring};

    fn small_cfg(seed: u64) -> NetworkConfig {
        NetworkConfig::paper_no_damping(seed)
    }

    #[test]
    fn warm_up_gives_every_node_a_route() {
        let g = ring(8);
        let mut net = Network::new(&g, NodeId::new(3), small_cfg(1));
        net.warm_up();
        for id in 0..8u32 {
            let best = net.router(NodeId::new(id)).best();
            assert!(best.is_some(), "node {id} has no route");
        }
        assert_eq!(net.trace().len(), 0, "warm-up trace is discarded");
    }

    #[test]
    fn warm_up_routes_are_shortest_paths() {
        let g = mesh_torus(4, 4);
        let isp = NodeId::new(5);
        let mut net = Network::new(&g, isp, small_cfg(2));
        net.warm_up();
        let dist = g.bfs_distances(isp);
        for id in net_nodes(&g) {
            let best = net.router(id).best().expect("warmed up");
            // Path: [peer, ..., isp, origin] → hops to origin =
            // path length; BFS distance + 1 (origin link) + 1 for the
            // self hop... path len counts ASes from the advertising
            // peer to the origin inclusive.
            let hops_via_path = best.route.len();
            let expect = dist[id.index()].unwrap() + 1; // to isp, then origin
            assert_eq!(
                hops_via_path,
                expect,
                "node {id}: path {} vs bfs {expect}",
                net.path_table().display(best.route)
            );
        }
    }

    fn net_nodes(g: &Graph) -> Vec<NodeId> {
        g.nodes().collect()
    }

    #[test]
    fn single_pulse_without_damping_converges_fast() {
        let g = mesh_torus(4, 4);
        let mut net = Network::new(&g, NodeId::new(0), small_cfg(3));
        let report = net.run_paper_workload(1);
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        assert!(report.message_count > 0);
        // Without damping, convergence after the final announcement is
        // a few MRAI rounds at most.
        assert!(
            report.convergence_time < SimDuration::from_secs(300),
            "took {}",
            report.convergence_time
        );
        assert_eq!(net.suppressed_entries(), 0);
    }

    #[test]
    fn message_count_grows_with_pulses_without_damping() {
        let g = mesh_torus(3, 3);
        let count = |n: usize| {
            let mut net = Network::new(&g, NodeId::new(4), small_cfg(17));
            net.run_paper_workload(n).message_count
        };
        let one = count(1);
        let three = count(3);
        let five = count(5);
        assert!(one < three && three < five, "{one} {three} {five}");
    }

    #[test]
    fn zero_pulses_is_a_no_op() {
        let g = ring(5);
        let mut net = Network::new(&g, NodeId::new(0), small_cfg(4));
        let report = net.run_paper_workload(0);
        assert_eq!(report.message_count, 0);
        assert_eq!(report.convergence_time, SimDuration::ZERO);
    }

    #[test]
    fn damping_suppresses_origin_entry_on_third_pulse() {
        // On a line there are no alternate paths, so no path
        // exploration: only the ispAS entry charges, exactly like the
        // analytic model — suppression on pulse 3 (§5.2).
        let g = line(4);
        let isp = NodeId::new(3);
        let mut net = Network::new(&g, isp, NetworkConfig::paper_full_damping(5));
        net.warm_up();

        let two = net.run_pulses(FlapPattern::paper_default(2), SimDuration::from_secs(100));
        assert_eq!(two.outcome, RunOutcome::Quiescent);
        assert_eq!(
            net.trace().ever_suppressed_entries(),
            0,
            "two pulses must not suppress anywhere"
        );

        let mut net = Network::new(&g, isp, NetworkConfig::paper_full_damping(5));
        net.warm_up();
        let three = net.run_pulses(FlapPattern::paper_default(3), SimDuration::from_secs(100));
        assert_eq!(three.outcome, RunOutcome::Quiescent);
        let origin = net.origin();
        let entry_suppressions: Vec<_> = net
            .trace()
            .events()
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    rfd_metrics::TraceEventKind::Suppressed { node, peer, .. }
                        if node == isp.raw() && peer == origin.raw()
                )
            })
            .collect();
        assert_eq!(
            entry_suppressions.len(),
            1,
            "third pulse suppresses the [originAS, ispAS] entry"
        );
        // Convergence is dominated by the reuse delay: > 20 minutes.
        assert!(
            three.convergence_time > SimDuration::from_mins(20),
            "took {}",
            three.convergence_time
        );
    }

    #[test]
    fn aggregate_sink_runs_retain_nothing_and_match_vec_sink() {
        let g = mesh_torus(3, 3);
        let cfg = || NetworkConfig::paper_full_damping(11);
        let mut vec_net = Network::new(&g, NodeId::new(2), cfg());
        let vec_report = vec_net.run_paper_workload(2);

        let mut agg_net = Network::new_with_sink(
            &g,
            NodeId::new(2),
            cfg(),
            rfd_metrics::SuppressionStats::new(),
        );
        let agg_report = agg_net.run_paper_workload(2);
        assert_eq!(
            agg_net.sink().retained_events(),
            0,
            "aggregates buffer nothing"
        );

        // Identical seeds, identical reports — the sink never touches
        // the RNG streams; report fields come from the built-in
        // aggregators and match the post-hoc trace scans.
        assert_eq!(agg_report.message_count, vec_report.message_count);
        assert_eq!(agg_report.convergence_time, vec_report.convergence_time);
        let trace = vec_net.trace();
        assert_eq!(vec_report.message_count, trace.message_count());
        assert_eq!(vec_report.convergence_time, trace.convergence_time());
        let stats = agg_net.into_sink();
        assert_eq!(
            stats.ever_suppressed_entries(),
            trace.ever_suppressed_entries()
        );
        assert_eq!(stats.reuse_counts(), trace.reuse_counts());
        assert_eq!(stats.peak_penalty(), trace.peak_penalty());
    }

    #[test]
    fn warm_up_with_aggregate_sink_retains_nothing() {
        let g = ring(6);
        let mut net = Network::new_with_sink(
            &g,
            NodeId::new(1),
            small_cfg(4),
            rfd_metrics::NullSink::new(),
        );
        net.warm_up();
        assert_eq!(net.sink().retained_events(), 0);
        assert_eq!(
            net.sink().seen(),
            0,
            "warm-up events bypass the sink entirely"
        );
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let g = mesh_torus(3, 3);
        let run = || {
            let mut net = Network::new(&g, NodeId::new(2), NetworkConfig::paper_full_damping(11));
            let r = net.run_paper_workload(2);
            (r.message_count, r.convergence_time, net.trace().len())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn seed_changes_timings() {
        let g = mesh_torus(3, 3);
        let run = |seed| {
            let mut net = Network::new(&g, NodeId::new(2), small_cfg(seed));
            net.run_paper_workload(1).convergence_time
        };
        // Different seeds draw different delays; convergence times are
        // extremely unlikely to coincide to the microsecond.
        assert_ne!(run(100), run(200));
    }

    /// The sharded-engine contract: identical results — report fields
    /// and the complete trace event sequence — at any shard count.
    #[test]
    fn sharded_runs_are_identical_across_shard_counts() {
        let g = mesh_torus(4, 4);
        let run = |shards: usize| {
            let mut cfg = NetworkConfig::paper_full_damping(11);
            cfg.sim_shards = shards;
            let mut net = Network::new(&g, NodeId::new(2), cfg);
            let report = net.run_paper_workload(3);
            let events: Vec<rfd_metrics::TraceEvent> = net.trace().events().to_vec();
            (
                report.message_count,
                report.convergence_time,
                report.events_processed,
                net.windows(),
                net.dropped_messages(),
                net.suppressed_entries(),
                events,
            )
        };
        let one = run(1);
        assert!(!one.6.is_empty(), "the reference run must trace something");
        assert_eq!(one, run(2), "2 shards diverged from 1");
        assert_eq!(one, run(8), "8 shards diverged from 1");
    }

    /// A horizon that cuts the run between two pulses, with updates in
    /// flight: every output is identical at any shard count, a second
    /// `resume` under the same horizon is a no-op, and once the horizon
    /// lifts the run finishes exactly like an uninterrupted one — the
    /// messages routed but not yet delivered at the cutoff were parked,
    /// not lost.
    #[test]
    fn horizon_cutoff_parks_in_flight_messages_at_any_shard_count() {
        let g = mesh_torus(4, 4);
        let isp = NodeId::new(2);
        let cfg = |shards: usize| {
            let mut cfg = NetworkConfig::paper_full_damping(11);
            cfg.sim_shards = shards;
            cfg
        };
        let far = SimTime::ZERO + cfg(1).horizon;
        let (warm_end, uncut) = {
            let mut net = Network::new(&g, isp, cfg(1));
            net.warm_up();
            let warm_end = net.now();
            let report = net.run_paper_workload(3);
            (
                warm_end,
                (report.message_count, net.trace().events().to_vec()),
            )
        };
        // 100 s lead-in, withdrawal, announcement 60 s later; cut 300 ms
        // after it, inside the 10–500 ms link-delay range.
        let cut = SimDuration::from_secs(160) + SimDuration::from_millis(300);
        let run = |shards: usize| {
            let mut cfg = cfg(shards);
            cfg.horizon = warm_end.since(SimTime::ZERO) + cut;
            let mut net = Network::new(&g, isp, cfg);
            let first = net.run_paper_workload(3);
            assert_eq!(first.outcome, RunOutcome::HorizonReached);
            let at_cut = (
                first.events_processed,
                net.events_processed(),
                net.windows(),
                net.dropped_messages(),
                net.trace().events().to_vec(),
            );
            let again = net.resume();
            assert_eq!(again.outcome, RunOutcome::HorizonReached);
            assert_eq!(
                at_cut,
                (
                    again.events_processed,
                    net.events_processed(),
                    net.windows(),
                    net.dropped_messages(),
                    net.trace().events().to_vec(),
                ),
                "a second resume under the same horizon must change nothing"
            );
            net.horizon = far;
            let rest = net.resume();
            assert_eq!(rest.outcome, RunOutcome::Quiescent);
            let finished = (rest.message_count, net.trace().events().to_vec());
            (at_cut, finished)
        };
        let one = run(1);
        let (_, _, _, dropped, events) = &one.0;
        let sent = events.iter().filter(|e| e.is_update_sent()).count() as u64;
        let received = events.iter().filter(|e| e.is_update_received()).count() as u64;
        assert!(
            sent > received + dropped,
            "the cut must catch updates in flight"
        );
        assert_eq!(one.1, uncut, "the cut-and-resumed run diverged");
        assert_eq!(one, run(2), "2 shards diverged from 1");
        assert_eq!(one, run(8), "8 shards diverged from 1");
    }

    /// A panic inside a shard must end the run with a panic at every
    /// shard count, never a hang (the thread and timeout here are the
    /// test's own: the run itself has one thread of control).
    #[test]
    fn shard_panic_propagates_instead_of_hanging() {
        for shards in [1, 2, 8] {
            let (done_tx, done_rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let mut cfg = small_cfg(3);
                cfg.sim_shards = shards;
                let mut net = Network::new(&mesh_torus(4, 4), NodeId::new(0), cfg);
                net.warm_up();
                let (at, owner) = (net.now() + SimDuration::from_secs(1), net.origin());
                // There is no origin 99: the owning shard panics on it.
                let event = NetEvent::OriginLink {
                    origin: 99,
                    up: false,
                    rc: None,
                };
                net.prime(at, owner, event);
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| net.resume()));
                let _ = done_tx.send(run.is_err());
            });
            assert_eq!(
                done_rx.recv_timeout(std::time::Duration::from_secs(10)),
                Ok(true),
                "sim_shards = {shards}: the run must panic, not hang"
            );
        }
    }

    /// Same contract under RCN damping (root causes are stamped at
    /// injection time; their dedup must not depend on the partition).
    #[test]
    fn sharded_rcn_runs_are_identical_across_shard_counts() {
        let g = mesh_torus(3, 3);
        let run = |shards: usize| {
            let mut cfg = NetworkConfig::paper_rcn_damping(7);
            cfg.sim_shards = shards;
            let mut net = Network::new(&g, NodeId::new(4), cfg);
            let report = net.run_paper_workload(3);
            (
                report.message_count,
                report.convergence_time,
                report.events_processed,
                net.trace().events().to_vec(),
            )
        };
        assert_eq!(run(1), run(3));
    }

    /// Interior link failure with in-flight loss, across shard counts:
    /// exercises the split `LinkSession` events and per-shard
    /// `down_links` views.
    #[test]
    fn sharded_link_schedule_is_identical_across_shard_counts() {
        let g = mesh_torus(3, 3);
        let run = |shards: usize| {
            let mut cfg = NetworkConfig::paper_no_damping(9);
            cfg.sim_shards = shards;
            let mut net = Network::new(&g, NodeId::new(0), cfg);
            net.warm_up();
            let mut events = Vec::new();
            for k in 0..12u64 {
                events.push((
                    SimTime::from_micros(k * 150_000),
                    if k % 2 == 0 {
                        rfd_core::LinkStatus::Down
                    } else {
                        rfd_core::LinkStatus::Up
                    },
                ));
            }
            let schedule = rfd_core::FlapSchedule::new(events);
            let report = net.run_link_schedule(
                NodeId::new(1),
                NodeId::new(2),
                &schedule,
                SimDuration::from_secs(10),
            );
            (
                report.message_count,
                report.events_processed,
                net.dropped_messages(),
                net.trace().events().to_vec(),
            )
        };
        let one = run(1);
        assert!(one.2 > 0, "the workload must lose something in flight");
        assert_eq!(one, run(2));
        assert_eq!(one, run(5));
    }

    /// More shards than nodes: empty shards must be harmless.
    #[test]
    fn more_shards_than_meaningful_partitions_is_fine() {
        let g = ring(4);
        let mut cfg = small_cfg(6);
        cfg.sim_shards = 12;
        let mut net = Network::new(&g, NodeId::new(1), cfg);
        let report = net.run_paper_workload(1);
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        assert!(report.message_count > 0);
        assert_eq!(net.shard_count(), 12);
    }

    /// A shard count no thread pool could serve (one thread per shard
    /// aborted the process here): 20,000 shards, at most ten of them
    /// holding a router, reproduce the one-shard run.
    #[test]
    fn twenty_thousand_shards_match_one() {
        let g = mesh_torus(3, 3);
        let run = |shards: usize| {
            let mut cfg = NetworkConfig::paper_full_damping(5);
            cfg.sim_shards = shards;
            let mut net = Network::new(&g, NodeId::new(4), cfg);
            let report = net.run_paper_workload(1);
            assert_eq!(net.shard_count(), shards);
            (
                report.message_count,
                report.convergence_time,
                report.events_processed,
                net.dropped_messages(),
                net.trace().events().to_vec(),
            )
        };
        let one = run(1);
        assert!(one.0 > 0, "the reference run must send something");
        assert_eq!(one, run(20_000));
    }

    #[test]
    fn interior_link_flap_damps_transit_routes() {
        // Flap a mesh link repeatedly: entries for routes through it
        // get suppressed even though the origin never flapped.
        let g = mesh_torus(4, 4);
        let isp = NodeId::new(0);
        let mut net = Network::new(&g, isp, NetworkConfig::paper_full_damping(3));
        net.warm_up();
        // Pick a link on the shortest-path tree near the ISP.
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let schedule = rfd_core::FlapSchedule::from(FlapPattern::paper_default(4));
        let report = net.run_link_schedule(a, b, &schedule, SimDuration::from_secs(50));
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        assert!(report.message_count > 0);
        assert!(
            net.trace().ever_suppressed_entries() > 0,
            "transit flapping must trigger damping somewhere"
        );
        // Everybody recovers a route once the link stays up.
        for id in g.nodes() {
            assert!(net.router(id).best().is_some(), "node {id} recovered");
        }
    }

    #[test]
    fn in_flight_messages_are_lost_on_session_death() {
        // Rapid flapping makes some messages cross a dying link.
        let g = mesh_torus(3, 3);
        let mut net = Network::new(&g, NodeId::new(0), NetworkConfig::paper_no_damping(9));
        net.warm_up();
        let mut events = Vec::new();
        for k in 0..8u64 {
            events.push((
                SimTime::from_micros(k * 400_000),
                if k % 2 == 0 {
                    rfd_core::LinkStatus::Down
                } else {
                    rfd_core::LinkStatus::Up
                },
            ));
        }
        let schedule = rfd_core::FlapSchedule::new(events);
        let report = net.run_link_schedule(
            NodeId::new(1),
            NodeId::new(2),
            &schedule,
            SimDuration::from_secs(10),
        );
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        // Sent == received + dropped.
        let sent = net
            .trace()
            .events()
            .iter()
            .filter(|e| e.is_update_sent())
            .count() as u64;
        let received = net
            .trace()
            .events()
            .iter()
            .filter(|e| e.is_update_received())
            .count() as u64;
        assert_eq!(sent, received + net.dropped_messages());
    }

    /// A link-failure run cut at the horizon and finished with
    /// `resume` reports the measured workload's events, exactly as the
    /// uncut run does — never the warm-up's.
    #[test]
    fn link_schedule_resume_reports_measured_events_only() {
        let g = mesh_torus(4, 4);
        let (isp, a, b) = (NodeId::new(2), NodeId::new(5), NodeId::new(6));
        let schedule = rfd_core::FlapSchedule::from(FlapPattern::paper_default(3));
        let lead_in = SimDuration::from_secs(100);
        for shards in [1, 2] {
            let mut cfg = NetworkConfig::paper_full_damping(11);
            cfg.sim_shards = shards;
            let far = SimTime::ZERO + cfg.horizon;
            let mut net = Network::new(&g, isp, cfg.clone());
            net.warm_up();
            let warm_end = net.now().since(SimTime::ZERO);
            let uncut = net.run_link_schedule(a, b, &schedule, lead_in);
            assert_eq!(uncut.outcome, RunOutcome::Quiescent);

            cfg.horizon = warm_end + SimDuration::from_secs(160);
            let mut net = Network::new(&g, isp, cfg);
            net.warm_up();
            let first = net.run_link_schedule(a, b, &schedule, lead_in);
            assert_eq!(first.outcome, RunOutcome::HorizonReached);
            assert!(first.events_processed < uncut.events_processed);
            net.horizon = far;
            let rest = net.resume();
            assert_eq!(rest.outcome, RunOutcome::Quiescent);
            assert_eq!(
                (rest.events_processed, rest.message_count),
                (uncut.events_processed, uncut.message_count),
                "sim_shards = {shards}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not a link")]
    fn flapping_a_non_link_panics() {
        let g = mesh_torus(3, 3);
        let mut net = Network::new(&g, NodeId::new(0), NetworkConfig::paper_no_damping(1));
        net.warm_up();
        // 0 and 4 are diagonal — not adjacent in the torus.
        net.run_link_schedule(
            NodeId::new(0),
            NodeId::new(4),
            &rfd_core::FlapSchedule::from(FlapPattern::paper_default(1)),
            SimDuration::from_secs(1),
        );
    }

    #[test]
    fn randomized_schedule_runs_to_quiescence() {
        let g = mesh_torus(4, 4);
        let mut net = Network::new(&g, NodeId::new(5), NetworkConfig::paper_full_damping(13));
        net.warm_up();
        let mut rng = rfd_sim::DetRng::from_seed(77);
        let schedule = rfd_core::FlapSchedule::randomized(
            4,
            SimDuration::from_secs(20),
            SimDuration::from_secs(120),
            &mut rng,
        );
        let report = net.run_schedule(&schedule, SimDuration::from_secs(100));
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        assert!(report.message_count > 0);
    }

    #[test]
    fn multi_origin_routes_independently() {
        // Two origins on opposite corners; flap only origin 0 — origin
        // 1's prefix must stay perfectly stable.
        let g = mesh_torus(4, 4);
        let isps = [NodeId::new(0), NodeId::new(10)];
        let mut net = Network::new_multi(&g, &isps, NetworkConfig::paper_full_damping(7));
        net.warm_up();
        assert_eq!(net.origins().len(), 2);
        let pfx0 = net.origins()[0].prefix;
        let pfx1 = net.origins()[1].prefix;
        // Every base node routes to both prefixes after warm-up.
        for id in g.nodes() {
            assert!(net.router(id).best_for(pfx0).is_some());
            assert!(net.router(id).best_for(pfx1).is_some());
        }
        let schedule = rfd_core::FlapSchedule::from(FlapPattern::paper_default(3));
        let report = net.run_schedules(&[(0, &schedule)], SimDuration::from_secs(100));
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        // Damping engaged for prefix 0 only.
        let trace = net.trace();
        let suppressed_pfx: std::collections::BTreeSet<u32> = trace
            .events()
            .iter()
            .filter_map(|e| match e.kind {
                rfd_metrics::TraceEventKind::Suppressed { prefix, .. } => Some(prefix),
                _ => None,
            })
            .collect();
        assert!(suppressed_pfx.contains(&pfx0.id()));
        assert!(
            !suppressed_pfx.contains(&pfx1.id()),
            "the stable prefix must never be suppressed"
        );
        // Both prefixes routable at the end.
        for id in g.nodes() {
            assert!(net.router(id).best_for(pfx0).is_some());
            assert!(net.router(id).best_for(pfx1).is_some());
        }
    }

    #[test]
    fn two_origins_flapping_concurrently() {
        let g = mesh_torus(4, 4);
        let isps = [NodeId::new(2), NodeId::new(13)];
        let mut net = Network::new_multi(&g, &isps, NetworkConfig::paper_full_damping(8));
        net.warm_up();
        let s0 = rfd_core::FlapSchedule::from(FlapPattern::paper_default(2));
        let s1 = rfd_core::FlapSchedule::from(FlapPattern::paper_default(4));
        let report = net.run_schedules(&[(0, &s0), (1, &s1)], SimDuration::from_secs(100));
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        assert!(report.message_count > 0);
        // Full recovery for both prefixes.
        for att in net.origins().to_vec() {
            for id in g.nodes() {
                assert!(
                    net.router(id).best_for(att.prefix).is_some(),
                    "node {id} lost {}",
                    att.prefix
                );
            }
        }
    }

    /// Multi-origin workloads across shard counts: kickoffs and pulse
    /// schedules on different origins must interleave identically.
    #[test]
    fn sharded_multi_origin_runs_are_identical_across_shard_counts() {
        let g = mesh_torus(4, 4);
        let run = |shards: usize| {
            let mut cfg = NetworkConfig::paper_full_damping(8);
            cfg.sim_shards = shards;
            let mut net = Network::new_multi(&g, &[NodeId::new(2), NodeId::new(13)], cfg);
            net.warm_up();
            let s0 = rfd_core::FlapSchedule::from(FlapPattern::paper_default(2));
            let s1 = rfd_core::FlapSchedule::from(FlapPattern::paper_default(4));
            let report = net.run_schedules(&[(0, &s0), (1, &s1)], SimDuration::from_secs(100));
            (
                report.message_count,
                report.convergence_time,
                report.events_processed,
                net.trace().events().to_vec(),
            )
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn ledger_streams_lifecycle_without_perturbing_the_run() {
        let g = line(4);
        let isp = NodeId::new(3);
        // Reference run, ledger off.
        let mut plain = Network::new(&g, isp, NetworkConfig::paper_full_damping(5));
        let plain_report = plain.run_paper_workload(3);
        // Identical run with the ledger focused on the [originAS →
        // ispAS] entry.
        let mut net = Network::new(&g, isp, NetworkConfig::paper_full_damping(5));
        net.warm_up();
        let origin = net.origin();
        let shared = rfd_core::SharedLedger::new(rfd_core::VecLedger::new());
        net.set_ledger(
            rfd_core::LedgerFilter::keys([(origin.raw(), Prefix::ORIGIN.id())]),
            Box::new(shared.clone()),
        );
        let report = net.run_pulses(FlapPattern::paper_default(3), SimDuration::from_secs(100));
        assert_eq!(report.message_count, plain_report.message_count);
        assert_eq!(report.convergence_time, plain_report.convergence_time);
        assert_eq!(report.events_processed, plain_report.events_processed);

        let ledger = shared.lock();
        let records = ledger.records();
        assert!(!records.is_empty());
        // Only the ISP holds that (peer, prefix) entry.
        assert!(records
            .iter()
            .all(|r| r.node == isp.raw() && r.peer == origin.raw()));
        assert!(
            records.windows(2).all(|w| w[0].at <= w[1].at),
            "records stream in time order"
        );
        let suppressed = records
            .iter()
            .filter(|r| matches!(r.event, rfd_core::LedgerEvent::Suppressed { .. }))
            .count();
        let released = records
            .iter()
            .filter(|r| matches!(r.event, rfd_core::LedgerEvent::Released { .. }))
            .count();
        assert_eq!(suppressed, 1, "third pulse suppresses the entry once");
        assert_eq!(released, 1, "the reuse timer eventually releases it");
    }

    #[test]
    fn ledger_drops_warm_up_records() {
        let g = mesh_torus(3, 3);
        let mut net = Network::new(&g, NodeId::new(2), NetworkConfig::paper_full_damping(11));
        let shared = rfd_core::SharedLedger::new(rfd_core::VecLedger::new());
        net.set_ledger(rfd_core::LedgerFilter::all(), Box::new(shared.clone()));
        net.warm_up();
        assert_eq!(
            shared.lock().records().len(),
            0,
            "warm-up must not reach the ledger sink"
        );
        net.run_pulses(FlapPattern::paper_default(1), SimDuration::from_secs(100));
        assert!(
            !shared.lock().records().is_empty(),
            "the measured phase streams records"
        );
    }

    /// The ledger stream must also be partition-invariant (records
    /// merge at barriers in canonical order).
    #[test]
    fn sharded_ledger_stream_is_identical_across_shard_counts() {
        let g = line(4);
        let isp = NodeId::new(3);
        let run = |shards: usize| {
            let mut cfg = NetworkConfig::paper_full_damping(5);
            cfg.sim_shards = shards;
            let mut net = Network::new(&g, isp, cfg);
            net.warm_up();
            let origin = net.origin();
            let shared = rfd_core::SharedLedger::new(rfd_core::VecLedger::new());
            net.set_ledger(
                rfd_core::LedgerFilter::keys([(origin.raw(), Prefix::ORIGIN.id())]),
                Box::new(shared.clone()),
            );
            net.run_pulses(FlapPattern::paper_default(3), SimDuration::from_secs(100));
            let ledger = shared.lock();
            let rendered: Vec<String> = ledger.records().iter().map(|r| format!("{r:?}")).collect();
            rendered
        };
        let one = run(1);
        assert!(!one.is_empty());
        assert_eq!(one, run(2));
    }

    #[test]
    #[should_panic(expected = "warm_up")]
    fn pulses_before_warm_up_panic() {
        let g = ring(4);
        let mut net = Network::new(&g, NodeId::new(0), small_cfg(1));
        net.run_pulses(FlapPattern::paper_default(1), SimDuration::from_secs(1));
    }
}
