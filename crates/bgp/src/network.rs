//! The whole-network simulation harness.
//!
//! [`Network`] builds one [`Router`] per topology node, appends the
//! origin AS (Figure 1: `originAS` attached to a chosen `ispAS`),
//! injects the paper's pulse workload on the origin link, and streams
//! every trace event into a pluggable [`TraceSink`] (default:
//! [`VecSink`], the full [`rfd_metrics::Trace`]; sweeps plug in
//! O(1)-memory aggregators).
//!
//! # Execution
//!
//! Every pending event of the network sits in one [`EventQueue`], which
//! pops in `(time, key)` order. The key ([`event_key`]) packs the node
//! that created the event with that node's own sequence number, so the
//! order is a pure function of the model. Each node draws its message
//! delays and MRAI jitter from its own RNG streams (`delays/<id>`,
//! `mrai/<id>`), which keeps every draw tied to that node's event order.
//! Because pops are already canonical, trace events and ledger records
//! go straight to their consumers as the routers produce them. The loop
//! advances the queue in windows one minimum link delay wide and
//! enforces the horizon and the event budget, the budget counted over
//! the whole measured run. Parallelism lives one level up, in the sweep
//! runner's pool.
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
//!
//! # Pulse chains
//!
//! Up to the `n`-th withdrawal, an `n`-pulse run is the `(n − 1)`-pulse
//! run, event for event. A [`PulseChain`] runs that shared prefix once:
//! it advances one warmed-up network pulse by pulse, and for each pulse
//! count asked for it forks the network and drains the fork. A fork's
//! report and trace equal those of a fresh network running the same
//! pulses (`tests/pulse_chain.rs` checks it; the unit tests below check
//! it under a small event budget).

use std::fmt::Write as _;

use rfd_core::{FlapPattern, LedgerFilter, LedgerRecord, LinkStatus, RootCause};
use rfd_metrics::{ConvergenceTracker, MessageCounter, Trace, TraceEventKind, TraceSink, VecSink};
use rfd_sim::{event_key, DetRng, EventQueue, RunOutcome, SimDuration, SimTime, INJECTOR_SRC};
use rfd_snap::{MixMap, MixSet};
use rfd_topology::{Graph, NodeId};

use crate::config::NetworkConfig;
use crate::intern::PathTable;
use crate::message::{Prefix, UpdateMessage};
use crate::policy::Policy;
use crate::router::{Router, RouterConfig, RouterOutput};

#[path = "snapshot.rs"]
pub mod snapshot;

/// Cap on the events of one measured run (and of the warm-up): a guard
/// against runaway models, lowered only by tests. The flaps a workload
/// injects are events too, so a pulse train of more than half this many
/// pulses can never finish.
pub const EVENT_BUDGET: u64 = 500_000_000;

/// The gap between the end of the warm-up and the first withdrawal of
/// every workload.
pub const LEAD_IN: SimDuration = SimDuration::from_secs(100);

/// Events on the network's queue.
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
    /// cause is stamped when the event is injected.
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
    /// is injected as two of these, one per endpoint.
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
#[derive(Debug, Clone, PartialEq)]
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

/// Everything the event loop touches: the routers and their per-node
/// state, what the network has one of, the event queue, and the
/// consumers of what the routers produce.
struct State<S> {
    /// One router per node, indexed by node id.
    routers: Vec<Router>,
    /// Per node: message-delay stream (`delays/<id>`).
    delay_rngs: Vec<DetRng>,
    /// Per node: MRAI-jitter stream (`mrai/<id>`).
    mrai_rngs: Vec<DetRng>,
    /// Per node: next canonical event sequence number.
    seqs: Vec<u64>,
    /// Every distinct AS path, once.
    path_table: PathTable,
    policy: Policy,
    origins: Vec<OriginAttachment>,
    delay_range: (SimDuration, SimDuration),
    /// Per directed link: the latest delivery instant scheduled so far.
    /// BGP sessions run over TCP, so updates between two peers arrive
    /// in the order they were sent — later messages are clamped to
    /// arrive strictly after earlier ones (without this, a withdrawal
    /// can be overtaken by an older announcement and install a
    /// permanently stale route).
    last_delivery: MixMap<(u32, u32), SimTime>,
    /// Interior links currently down.
    down_links: MixSet<(u32, u32)>,
    /// Messages dropped on dead links.
    dropped: u64,
    /// True during warm-up: traces and ledger records are discarded.
    muted: bool,
    /// Trace events discarded while muted.
    discarded: u64,
    queue: EventQueue<NetEvent>,
    /// The last instant whose events run (from
    /// [`NetworkConfig::horizon`]).
    horizon: SimTime,
    /// Cap on the events one run processes, counted from the start of
    /// the measured workload (or of the warm-up).
    budget: u64,
    /// Windows executed over the network's lifetime.
    windows: u64,
    /// The one [`RouterOutput`] every event is handled through:
    /// [`State::handle`] takes it, the router fills it,
    /// [`State::apply_output`] drains it and hands it back.
    out: RouterOutput,
    /// The pluggable trace observer for the measured phase.
    sink: S,
    /// Always-on headline aggregators: [`RunReport`] fields come from
    /// these, whatever sink is plugged in.
    conv: ConvergenceTracker,
    msgs: MessageCounter,
    /// Damping-lifecycle records of the measured phase (empty unless a
    /// filter is installed with `Network::set_ledger`).
    ledger: Vec<LedgerRecord>,
}

rfd_sim::clone_fields!(impl<S: Clone> Clone for State<S> {
    routers, delay_rngs, mrai_rngs, seqs, path_table, policy, origins, delay_range,
    last_delivery, down_links, dropped, muted, discarded, queue, horizon, budget, windows,
    out, sink, conv, msgs, ledger,
});

impl<S: TraceSink> State<S> {
    /// Schedules an event created by `src` under `src`'s next
    /// canonical key.
    fn schedule(&mut self, at: SimTime, src: NodeId, event: NetEvent) {
        let seq = &mut self.seqs[src.index()];
        let key = event_key(src.raw(), *seq);
        *seq += 1;
        self.queue.schedule(at, key, event);
    }

    /// Feeds one trace event to the consumers (discarded while muted).
    fn emit(&mut self, at: SimTime, kind: TraceEventKind) {
        if self.muted {
            self.discarded += 1;
        } else {
            self.conv.record(at, kind);
            self.msgs.record(at, kind);
            self.sink.record(at, kind);
        }
    }

    /// Traces one update and puts it on the wire.
    fn send(&mut self, now: SimTime, from: NodeId, to: NodeId, msg: UpdateMessage) {
        self.emit(
            now,
            TraceEventKind::UpdateSent {
                from: from.raw(),
                to: to.raw(),
                withdrawal: msg.is_withdrawal(),
            },
        );
        self.transmit(now, from, to, msg);
    }

    /// Puts one update on the wire: a delivery event at `now + random
    /// delay`, pushed past any earlier in-flight message on the same
    /// directed link (TCP ordering). The delay comes from the *sender's*
    /// stream.
    fn transmit(&mut self, now: SimTime, from: NodeId, to: NodeId, msg: UpdateMessage) {
        let (lo, hi) = self.delay_range;
        let natural = now + self.delay_rngs[from.index()].duration_between(lo, hi);
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
        self.schedule(at, from, NetEvent::Deliver { from, to, msg });
    }

    /// Turns what a router produced into trace events, ledger records
    /// and scheduled events, leaving `out` empty in `self.out` for the
    /// next event.
    fn apply_output(&mut self, now: SimTime, node: NodeId, mut out: RouterOutput) {
        rfd_obs::add("bgp.updates_sent", out.sends.len() as u64);
        rfd_obs::add("bgp.mrai_scheduled", out.mrai_timers.len() as u64);
        for kind in out.traces.drain(..) {
            self.emit(now, kind);
        }
        if self.muted {
            out.ledger.clear();
        } else {
            self.ledger.append(&mut out.ledger);
        }
        for (to, msg) in out.sends.drain(..) {
            self.send(now, node, to, msg);
        }
        for (peer, prefix, at) in out.mrai_timers.drain(..) {
            self.schedule(at, node, NetEvent::MraiExpiry { node, peer, prefix });
        }
        for (peer, prefix, at) in out.reuse_timers.drain(..) {
            self.schedule(at, node, NetEvent::ReuseTimer { node, peer, prefix });
        }
        self.out = out;
    }

    /// Lends `node`'s router, with its MRAI stream, the path table, the
    /// policy and the reused output buffer, to `f`, then applies what
    /// the router produced.
    fn step(
        &mut self,
        at: SimTime,
        node: NodeId,
        f: impl FnOnce(&mut Router, &mut PathTable, &mut DetRng, &Policy, &mut RouterOutput),
    ) {
        let mut out = std::mem::take(&mut self.out);
        let i = node.index();
        f(
            &mut self.routers[i],
            &mut self.path_table,
            &mut self.mrai_rngs[i],
            &self.policy,
            &mut out,
        );
        self.apply_output(at, node, out);
    }

    fn handle(&mut self, at: SimTime, event: NetEvent) {
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
                    TraceEventKind::UpdateReceived {
                        from: from.raw(),
                        to: to.raw(),
                        withdrawal: msg.is_withdrawal(),
                    },
                );
                self.step(at, to, |r, table, rng, policy, out| {
                    r.handle_update(at, from, &msg, table, rng, policy, out);
                });
            }
            NetEvent::MraiExpiry { node, peer, prefix } => {
                rfd_obs::inc("bgp.mrai_expiries");
                self.step(at, node, |r, table, rng, policy, out| {
                    r.on_mrai_expiry(at, peer, prefix, table, rng, policy, out);
                });
            }
            NetEvent::ReuseTimer { node, peer, prefix } => {
                self.step(at, node, |r, table, rng, policy, out| {
                    r.on_reuse_timer(at, peer, prefix, table, rng, policy, out);
                });
            }
            NetEvent::OriginLink { origin, up, rc } => {
                let attachment = self.origins[origin];
                self.emit(
                    at,
                    TraceEventKind::OriginFlap {
                        prefix: attachment.prefix.id(),
                        up,
                    },
                );
                let mut msg = if up {
                    UpdateMessage::announce(self.path_table.originate(attachment.node))
                        .with_root_cause(rc)
                } else {
                    UpdateMessage::withdraw().with_root_cause(rc)
                };
                msg.prefix = attachment.prefix;
                self.send(at, attachment.node, attachment.isp, msg);
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
                self.step(at, node, |r, table, rng, policy, out| {
                    if up {
                        r.on_session_up(at, peer, rc, table, rng, policy, out);
                    } else {
                        r.on_session_down(at, peer, rc, table, rng, policy, out);
                    }
                });
            }
        }
    }

    /// The window loop. A window starts at the earliest pending event
    /// `t0` and runs every event before `min(t0 + lookahead, horizon +
    /// 1 µs)`, the lookahead being the minimum link delay; both sums
    /// saturate. Capping one past the horizon makes it exact: an event
    /// at the horizon runs, a later one stays queued (an event at
    /// [`SimTime::MAX`] lies beyond any horizon). Before each window the
    /// run stops if the queue is empty, then if `t0` is beyond the
    /// horizon, then if the budget is spent on the events processed
    /// since `base`. Given a `pause`, it returns `None` before the first
    /// window that would reach past it, so every window so far falls
    /// where it falls in a run that had an event at `pause` all along.
    fn run(&mut self, base: u64, pause: Option<SimTime>) -> Option<RunOutcome> {
        let cap = self.horizon.saturating_add(SimDuration::from_micros(1));
        loop {
            let Some(t0) = self.queue.next_time() else {
                return pause.is_none().then_some(RunOutcome::Quiescent);
            };
            let end = t0.saturating_add(self.delay_range.0).min(cap);
            if pause.is_some_and(|p| end > p) {
                return None;
            }
            if t0 >= cap {
                return Some(RunOutcome::HorizonReached);
            }
            if self.queue.processed() - base >= self.budget {
                return Some(RunOutcome::BudgetExhausted);
            }
            self.windows += 1;
            while let Some((at, _, event)) = self.queue.pop_before(end) {
                self.handle(at, event);
            }
        }
    }

    /// Runs the origin's kickoff announcement (warm-up priming). Mirrors
    /// the workload injection path: only the resulting sends are
    /// scheduled.
    fn kickoff_origin(&mut self, origin: NodeId) {
        let mut out = RouterOutput::default();
        self.routers[origin.index()].kickoff(
            SimTime::ZERO,
            &mut self.path_table,
            &mut self.mrai_rngs[origin.index()],
            &self.policy,
            &mut out,
        );
        for (to, msg) in out.sends {
            self.transmit(SimTime::ZERO, origin, to, msg);
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
///
/// A clone is an independent copy of the whole simulation, pending
/// events and path table included (`clone_from` reuses old buffers).
pub struct Network<S: TraceSink = VecSink> {
    state: State<S>,
    rcn_enabled: bool,
    /// Root-cause sequence numbers, stamped at injection time.
    rc_seq: u64,
    /// Canonical key sequence for injected (primed) events.
    inj_seq: u64,
    warmed_up: bool,
    /// Lifetime processed count at the instant the current measured
    /// workload was primed: the event budget and every [`RunReport`]
    /// count from here, so a pulse-chain fork reports what a fresh run
    /// does.
    measured_base: u64,
    /// Where the measured workload's flap offsets count from.
    start: SimTime,
    /// The measured workload's flap trains (room for one per origin).
    trains: Vec<Train>,
}

rfd_sim::clone_fields!(impl<S: TraceSink + Clone> Clone for Network<S> {
    state, rcn_enabled, rc_seq, inj_seq, warmed_up, measured_base, start, trains,
});

/// A link a measured workload flaps: the access link of the origin
/// with this index, or an interior link whose two sessions both reset.
#[derive(Debug, Clone, Copy)]
enum FlapLink {
    Origin(usize),
    Interior(NodeId, NodeId),
}

/// One link's flaps in a measured workload, injected pulse by pulse.
#[derive(Debug, Clone, Copy)]
struct Train {
    link: FlapLink,
    pattern: FlapPattern,
    /// Pulses injected so far.
    primed: usize,
    /// Next injector sequence number and last root-cause number.
    seq: u64,
    rc: u64,
}

impl<S: TraceSink> std::fmt::Debug for Network<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("routers", &self.state.routers.len())
            .field("origins", &self.state.origins)
            .field("retained_events", &self.state.sink.retained_events())
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
        &self.state.sink
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
        // Origin `i` is node `base + i`, linked to its ISP only. The
        // graph is read, not copied (the caller reuses it across sweep
        // cells); the policy, in contrast, is ours to keep — take it.
        let mut policy = std::mem::take(&mut config.policy);
        let mut origins = Vec::with_capacity(isps.len());
        for (i, &isp) in isps.iter().enumerate() {
            assert!(
                isp.index() < base.node_count(),
                "isp {isp} outside the base graph"
            );
            let origin = u32::try_from(base.node_count() + i).expect("node ids fit in u32");
            let origin = NodeId::new(origin);
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

        let nodes = base.node_count() + origins.len();
        let mut deploy_rng = DetRng::from_seed_and_label(config.seed, "damping-deployment");
        let damping = config.damping.resolve(nodes, &mut deploy_rng);

        let mut routers = Vec::with_capacity(nodes);
        let mut delay_rngs = Vec::with_capacity(nodes);
        let mut mrai_rngs = Vec::with_capacity(nodes);
        let mut path_table = PathTable::new();
        let mut label = String::new();
        for id in (0..nodes as u32).map(NodeId::new) {
            // The neighbour order of the base graph with each origin
            // appended at its ISP, as adding the links would have made it:
            // it is the fan-out order, which fixes the MRAI jitter draws.
            let inner: &[NodeId] = if id.index() < base.node_count() {
                base.neighbors(id)
            } else {
                &[]
            };
            let attached = origins.iter().filter_map(|a| {
                if a.isp == id {
                    Some(a.node)
                } else {
                    (a.node == id).then_some(a.isp)
                }
            });
            let peers = inner.iter().copied().chain(attached);
            let rc = RouterConfig {
                damping: damping[id.index()],
                filter: config.filter,
                mrai: config.mrai,
                mrai_jitter: config.mrai_jitter,
                protocol: config.protocol,
            };
            let mut router = Router::with_peers(id, peers, rc, &mut path_table);
            router.reserve_prefixes(origins.len());
            if let Some(att) = origins.iter().find(|a| a.node == id) {
                router.originate(att.prefix);
            }
            router.set_charging(false); // warm-up first
            routers.push(router);
            for (stream, rngs) in [("delays", &mut delay_rngs), ("mrai", &mut mrai_rngs)] {
                label.clear();
                write!(label, "{stream}/{}", id.raw()).expect("writing to a String");
                rngs.push(DetRng::from_seed_and_label(config.seed, &label));
            }
        }

        Network {
            state: State {
                routers,
                delay_rngs,
                mrai_rngs,
                seqs: vec![0; nodes],
                path_table,
                policy,
                origins,
                delay_range: config.delay_range,
                last_delivery: MixMap::default(),
                down_links: MixSet::default(),
                dropped: 0,
                // Warm-up runs muted; `warm_up` lifts the mute once the
                // network has converged.
                muted: true,
                discarded: 0,
                queue: EventQueue::new(),
                horizon: SimTime::ZERO + config.horizon,
                budget: EVENT_BUDGET,
                windows: 0,
                out: RouterOutput::default(),
                sink,
                conv: ConvergenceTracker::new(),
                msgs: MessageCounter::new(),
                ledger: Vec::new(),
            },
            rcn_enabled: config.filter == crate::config::PenaltyFilter::Rcn,
            rc_seq: 0,
            inj_seq: 0,
            warmed_up: false,
            measured_base: 0,
            start: SimTime::ZERO,
            trains: Vec::with_capacity(isps.len()),
        }
    }

    /// The first origin AS id (the appended node).
    pub fn origin(&self) -> NodeId {
        self.state.origins[0].node
    }

    /// The first origin's ISP AS id.
    pub fn isp(&self) -> NodeId {
        self.state.origins[0].isp
    }

    /// All origin attachments.
    pub fn origins(&self) -> &[OriginAttachment] {
        &self.state.origins
    }

    /// Current simulated time: the instant of the last processed event.
    pub fn now(&self) -> SimTime {
        self.state.queue.now()
    }

    /// Always 1. Kept only because the perf ledger still calls it; a
    /// `[benchmark]` PR (ROADMAP item 1(b)) drops the call and then
    /// this method.
    pub fn shard_count(&self) -> usize {
        1
    }

    /// Windows executed so far. A window is one lookahead (the minimum
    /// link delay) wide, so it covers few events: 1.9–9.1 on the perf
    /// ledger's workloads.
    pub fn windows(&self) -> u64 {
        self.state.windows
    }

    /// Total events processed over the network's lifetime (warm-up
    /// included).
    pub fn events_processed(&self) -> u64 {
        self.state.queue.processed()
    }

    /// Always zero: the run has one thread of control, so nothing waits
    /// at a barrier. Kept only because the perf ledger calls it; its
    /// `bgp.network.stall_share` row reads 0 until a `[benchmark]` PR
    /// (ROADMAP item 1(b)) drops both.
    pub fn barrier_stall(&self) -> std::time::Duration {
        std::time::Duration::ZERO
    }

    /// Read access to the measured-phase sink.
    pub fn sink(&self) -> &S {
        &self.state.sink
    }

    /// Consumes the network, finishing and yielding the sink (pending
    /// aggregator state flushes; `metrics.sink.*` obs counters fire).
    pub fn into_sink(mut self) -> S {
        self.state.sink.finish();
        self.state.sink
    }

    /// Installs the damping-lifecycle ledger: every router starts
    /// checking `filter` at its emission sites, and the network buffers
    /// matching records of the measured phase (warm-up records are
    /// dropped, like trace events) until [`take_ledger`](Self::take_ledger).
    pub fn set_ledger(&mut self, filter: LedgerFilter) {
        let filter = std::sync::Arc::new(filter);
        for router in &mut self.state.routers {
            router.set_ledger_filter(Some(std::sync::Arc::clone(&filter)));
        }
    }

    /// Removes the ledger filter, restoring the off state, and returns
    /// the buffered records in emission order.
    pub fn take_ledger(&mut self) -> Vec<LedgerRecord> {
        for router in &mut self.state.routers {
            router.set_ledger_filter(None);
        }
        std::mem::take(&mut self.state.ledger)
    }

    /// Read access to a router (for tests and inspection).
    pub fn router(&self, id: NodeId) -> &Router {
        &self.state.routers[id.index()]
    }

    /// Read access to the network's AS-path interner (resolve any
    /// router's [`Route`] handles, inspect [`PathTable::stats`]).
    ///
    /// [`Route`]: crate::intern::Route
    pub fn path_table(&self) -> &PathTable {
        &self.state.path_table
    }

    /// Total suppressed RIB-IN entries across the network.
    pub fn suppressed_entries(&self) -> usize {
        self.state
            .routers
            .iter()
            .map(Router::suppressed_entries)
            .sum()
    }

    /// Messages lost on links that went down while they were in flight.
    pub fn dropped_messages(&self) -> u64 {
        self.state.dropped
    }

    /// Runs to just before the earliest withdrawal still to inject and
    /// injects that pulse. The pause rule of [`State::run`] keeps every
    /// window where it falls with the whole workload queued up front.
    /// False once every pulse is in, or if the horizon or the event
    /// budget stops the run first (a drain then reports that stop).
    fn prime_next_pulse(&mut self) -> bool {
        let trains = self.trains.iter().enumerate();
        let pending = trains.filter(|(_, t)| t.primed < t.pattern.pulses());
        let Some((i, _)) = pending.min_by_key(|(_, t)| t.pattern.pulse(t.primed).0) else {
            return false;
        };
        let mut train = self.trains[i];
        let (down, up) = train.pattern.pulse(train.primed);
        if self.drive(Some(self.start + down)).is_some() {
            return false;
        }
        for (offset, up) in [(down, false), (up, true)] {
            let at = self.start + offset;
            match train.link {
                FlapLink::Origin(origin) => {
                    let att = self.state.origins[origin];
                    // §6.1: the detecting endpoint stamps a fresh root
                    // cause {[ispAS originAS], status, seq}.
                    let rc = self.root_cause(&mut train, (att.isp.raw(), att.node.raw()), up);
                    self.inject(at, &mut train, NetEvent::OriginLink { origin, up, rc });
                }
                FlapLink::Interior(a, b) => {
                    let rc = self.root_cause(&mut train, norm_link(a, b), up);
                    for (node, peer, primary) in [(a, b, true), (b, a, false)] {
                        let event = NetEvent::LinkSession {
                            node,
                            peer,
                            up,
                            rc,
                            primary,
                        };
                        self.inject(at, &mut train, event);
                    }
                }
            }
        }
        train.primed += 1;
        self.trains[i] = train;
        true
    }

    /// Injects one event of `train` under its next injector key.
    fn inject(&mut self, at: SimTime, train: &mut Train, event: NetEvent) {
        let key = event_key(INJECTOR_SRC, train.seq);
        train.seq += 1;
        self.state.queue.schedule(at, key, event);
    }

    fn root_cause(&self, train: &mut Train, link: (u32, u32), up: bool) -> Option<RootCause> {
        let status = if up { LinkStatus::Up } else { LinkStatus::Down };
        self.rcn_enabled.then(|| {
            train.rc += 1;
            RootCause::new(link, status, train.rc)
        })
    }

    /// Runs the queue until it drains or the horizon or event budget
    /// stops it — or, given a `pause`, until the next window would
    /// reach past it (`None`).
    fn drive(&mut self, pause: Option<SimTime>) -> Option<RunOutcome> {
        let obs_span = rfd_obs::is_enabled().then(|| rfd_obs::span("sim.run"));
        let before = self.events_processed();
        let outcome = self.state.run(self.measured_base, pause);
        rfd_obs::add("sim.events", self.events_processed() - before);
        if let Some(mut span) = obs_span {
            span.sim_time_us(self.now().as_micros());
        }
        outcome
    }

    /// Phase 3: runs the primed workload to quiescence (or until the
    /// horizon or the event budget stops it) and reports it.
    fn drain(&mut self) -> RunReport {
        let outcome = self
            .drive(None)
            .expect("only a pause leaves a run without an outcome");
        self.report(outcome)
    }

    /// The report of the measured workload so far.
    fn report(&self, outcome: RunOutcome) -> RunReport {
        RunReport {
            convergence_time: self.state.conv.convergence_time(),
            message_count: self.state.msgs.message_count(),
            events_processed: self.events_processed() - self.measured_base,
            outcome,
        }
    }

    /// Phase 1: the origin announces its prefix and the network
    /// converges with penalty charging disabled. Warm-up events are
    /// discarded as they are produced: nothing reaches the
    /// measured-phase sink or the headline aggregators.
    ///
    /// # Panics
    ///
    /// Panics if the network fails to reach quiescence (horizon or
    /// budget hit — a configuration pathology).
    pub fn warm_up(&mut self) -> &mut Self {
        let _obs_span = rfd_obs::span("bgp.warmup");
        assert!(!self.warmed_up, "warm_up may only run once");
        for i in 0..self.state.origins.len() {
            let origin = self.state.origins[i].node;
            self.state.kickoff_origin(origin);
        }
        assert_eq!(
            self.drive(None),
            Some(RunOutcome::Quiescent),
            "warm-up failed to converge"
        );
        for att in &self.state.origins {
            assert!(
                self.state
                    .routers
                    .iter()
                    .all(|r| r.best_for(att.prefix).is_some()),
                "warm-up left some router without a route to {}",
                att.prefix
            );
        }
        for r in &mut self.state.routers {
            r.set_charging(true);
        }
        assert_eq!(
            self.state.sink.retained_events(),
            0,
            "warm-up must not retain trace events"
        );
        rfd_obs::add("bgp.warmup_events_discarded", self.state.discarded);
        self.state.muted = false;
        self.warmed_up = true;
        self
    }

    /// Phase 2+3: injects `pattern` on the origin link starting
    /// `lead_in` after the current clock, then runs to quiescence.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Network::warm_up`].
    pub fn run_pulses(&mut self, pattern: FlapPattern, lead_in: SimDuration) -> RunReport {
        self.run_schedules(&[(0, &pattern)], lead_in)
    }

    /// Runs several origin-link flap patterns simultaneously
    /// (multi-origin workloads): each `(origin index, pattern)` pair
    /// flaps that origin's access link, all offsets measured from the
    /// same start.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Network::warm_up`] or an origin index
    /// is out of range.
    pub fn run_schedules(
        &mut self,
        patterns: &[(usize, &FlapPattern)],
        lead_in: SimDuration,
    ) -> RunReport {
        for &(origin, _) in patterns {
            assert!(
                origin < self.state.origins.len(),
                "origin index {origin} out of range"
            );
        }
        let trains = patterns
            .iter()
            .map(|&(o, pattern)| (FlapLink::Origin(o), *pattern));
        self.start_measured(lead_in, trains);
        while self.prime_next_pulse() {}
        self.drain()
    }

    /// Starts the measured phase with `trains`, their offsets counted
    /// from `lead_in` after now. Each train gets the injector keys and
    /// root-cause numbers that injecting every train up front, train
    /// after train, would give it.
    fn start_measured(
        &mut self,
        lead_in: SimDuration,
        trains: impl IntoIterator<Item = (FlapLink, FlapPattern)>,
    ) {
        assert!(self.warmed_up, "call warm_up() before running a workload");
        self.measured_base = self.events_processed();
        self.start = self.now() + lead_in;
        self.trains.clear();
        for (link, pattern) in trains {
            let (seq, rc) = (self.inj_seq, self.rc_seq);
            let flaps = 2 * pattern.pulses() as u64;
            self.inj_seq += flaps * (1 + u64::from(matches!(link, FlapLink::Interior(..))));
            self.rc_seq += flaps * u64::from(self.rcn_enabled);
            self.trains.push(Train {
                link,
                pattern,
                primed: 0,
                seq,
                rc,
            });
        }
    }

    /// Flaps an **interior** link per `pattern` (failure injection):
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
        pattern: FlapPattern,
        lead_in: SimDuration,
    ) -> RunReport {
        assert!(
            a.index() < self.state.routers.len() && self.router(a).peers().any(|p| p == b),
            "{a}–{b} is not a link of this network"
        );
        self.start_measured(lead_in, [(FlapLink::Interior(a, b), pattern)]);
        while self.prime_next_pulse() {}
        self.drain()
    }

    /// Convenience: warm up and run the paper's default workload of
    /// `pulses` pulses at 60-second intervals.
    pub fn run_paper_workload(&mut self, pulses: usize) -> RunReport {
        if !self.warmed_up {
            self.warm_up();
        }
        self.run_pulses(FlapPattern::paper_default(pulses), LEAD_IN)
    }
}

/// One warmed-up network shared by every pulse count of a sweep: pulse
/// `k` flaps at the offsets [`FlapPattern::pulse`] gives it, counted
/// from `lead_in` after the clock at [`PulseChain::new`], exactly as
/// [`Network::run_pulses`] with [`FlapPattern::new`]`(n, interval)`
/// would inject it.
///
/// [`PulseChain::run`] injects pulses into the shared network up to
/// pulse `n` with a fresh run's injection loop, then forks the network
/// and drains the fork, whose report and sink equal those of a fresh
/// `new` + `warm_up` + `run_pulses(n)`. The first fork clones the
/// network; every later one refills that spare in place (`clone_from`).
/// A fork borrows the shared network's [`PathTable`] (moved in and
/// back, never cloned), so later path ids differ from a fresh run's. No
/// output depends on a path id (see the `intern` module's note).
#[derive(Debug)]
pub struct PulseChain<S: TraceSink + Clone = VecSink> {
    network: Network<S>,
    /// The network the last fork ran on (`None` before the first).
    spare: Option<Network<S>>,
}

impl<S: TraceSink + Clone> PulseChain<S> {
    /// Starts the measured phase of a warmed-up network.
    ///
    /// # Panics
    ///
    /// Panics if the network is not warmed up.
    pub fn new(mut network: Network<S>, interval: SimDuration, lead_in: SimDuration) -> Self {
        network.start_measured(
            lead_in,
            [(FlapLink::Origin(0), FlapPattern::new(0, interval))],
        );
        PulseChain {
            network,
            spare: None,
        }
    }

    /// Runs the `pulses`-pulse workload on a fork of the chain and
    /// returns its report and its finished sink, which the next call
    /// overwrites.
    ///
    /// # Panics
    ///
    /// Panics if `pulses` is below the pulse count of an earlier call,
    /// or if an earlier call panicked (its fork took the path table
    /// down with it; drop the chain and start a new one).
    pub fn run(&mut self, pulses: usize) -> (RunReport, &S) {
        assert!(
            self.network.state.path_table.stats().distinct > 0,
            "a pulse chain is unusable after a panicked run"
        );
        let train = &mut self.network.trains[0];
        assert!(
            pulses >= train.primed,
            "pulse counts must not decrease along a chain ({pulses} after {})",
            train.primed
        );
        train.pattern = FlapPattern::new(pulses, train.pattern.interval());
        while self.network.prime_next_pulse() {}
        let table = std::mem::take(&mut self.network.state.path_table);
        if let Some(spare) = &mut self.spare {
            spare.clone_from(&self.network);
        }
        let fork = self.spare.get_or_insert_with(|| self.network.clone());
        fork.state.path_table = table;
        let report = fork.drain();
        self.network.state.path_table = std::mem::take(&mut fork.state.path_table);
        fork.state.sink.finish();
        (report, &fork.state.sink)
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

        let two = net.run_pulses(FlapPattern::paper_default(2), LEAD_IN);
        assert_eq!(two.outcome, RunOutcome::Quiescent);
        assert_eq!(
            net.trace().ever_suppressed_entries(),
            0,
            "two pulses must not suppress anywhere"
        );

        let mut net = Network::new(&g, isp, NetworkConfig::paper_full_damping(5));
        net.warm_up();
        let three = net.run_pulses(FlapPattern::paper_default(3), LEAD_IN);
        assert_eq!(three.outcome, RunOutcome::Quiescent);
        let origin = net.origin();
        let entry_suppressions: Vec<_> = net
            .trace()
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

    /// The horizon is inclusive: a withdrawal exactly at it runs, one
    /// a microsecond past it stays queued, and either way the run
    /// reports the horizon, not quiescence.
    #[test]
    fn an_event_exactly_at_the_horizon_runs() {
        let g = mesh_torus(3, 3);
        let cfg = NetworkConfig::paper_full_damping(5);
        let flap = {
            let mut net = Network::new(&g, NodeId::new(2), cfg.clone());
            net.warm_up();
            net.now().since(SimTime::ZERO) + LEAD_IN
        };
        for (horizon, ran) in [(flap, 1), (flap - SimDuration::from_micros(1), 0)] {
            let mut cfg = cfg.clone();
            cfg.horizon = horizon;
            let mut net = Network::new(&g, NodeId::new(2), cfg);
            net.warm_up();
            let report = net.run_pulses(FlapPattern::paper_default(1), LEAD_IN);
            assert_eq!(report.outcome, RunOutcome::HorizonReached);
            assert_eq!(report.events_processed, ran, "horizon {horizon}");
        }
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
        let pattern = FlapPattern::paper_default(4);
        let report = net.run_link_schedule(a, b, pattern, SimDuration::from_secs(50));
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
        let report = net.run_link_schedule(
            NodeId::new(1),
            NodeId::new(2),
            FlapPattern::new(4, SimDuration::from_millis(400)),
            SimDuration::from_secs(10),
        );
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        // Sent == received + dropped.
        let sent = net.trace().iter().filter(|e| e.is_update_sent()).count() as u64;
        let received = net
            .trace()
            .iter()
            .filter(|e| e.is_update_received())
            .count() as u64;
        assert_eq!(sent, received + net.dropped_messages());
    }

    /// A link-failure run reports the measured workload's events,
    /// never the warm-up's, whether it quiesces or the horizon cuts it.
    #[test]
    fn link_schedule_reports_measured_events_only() {
        let g = mesh_torus(4, 4);
        let (isp, a, b) = (NodeId::new(2), NodeId::new(5), NodeId::new(6));
        let pattern = FlapPattern::paper_default(3);
        let cfg = NetworkConfig::paper_full_damping(11);
        let run = |horizon| {
            let mut cfg = cfg.clone();
            cfg.horizon = horizon;
            let mut net = Network::new(&g, isp, cfg);
            net.warm_up();
            let (warm, warm_end) = (net.events_processed(), net.now().since(SimTime::ZERO));
            let report = net.run_link_schedule(a, b, pattern, LEAD_IN);
            assert_eq!(report.events_processed, net.events_processed() - warm);
            (report, warm_end)
        };
        let (uncut, warm_end) = run(cfg.horizon);
        assert_eq!(uncut.outcome, RunOutcome::Quiescent);
        let (cut, _) = run(warm_end + SimDuration::from_secs(160));
        assert_eq!(cut.outcome, RunOutcome::HorizonReached);
        assert!(0 < cut.events_processed && cut.events_processed < uncut.events_processed);
    }

    /// Under an event budget that stops runs mid-flapping, every fork
    /// of a pulse chain stops where a fresh run stops, with the same
    /// report and trace: the budget counts from the measured start, not
    /// from the fork.
    #[test]
    fn pulse_chain_forks_stop_where_fresh_runs_exhaust_the_budget() {
        let g = mesh_torus(4, 4);
        let interval = FlapPattern::DEFAULT_INTERVAL;
        let warmed = |budget: u64| {
            let mut net = Network::new(&g, NodeId::new(5), NetworkConfig::paper_full_damping(7));
            net.warm_up();
            net.state.budget = budget;
            net
        };
        let fresh = |budget: u64, pulses: usize| {
            let mut net = warmed(budget);
            let report = net.run_pulses(FlapPattern::new(pulses, interval), LEAD_IN);
            (report, net.trace().iter().collect::<Vec<_>>())
        };
        let uncut = fresh(EVENT_BUDGET, 5).0;
        assert_eq!(uncut.outcome, RunOutcome::Quiescent);
        for budget in [
            1,
            uncut.events_processed / 4,
            uncut.events_processed * 3 / 4,
        ] {
            let mut chain = PulseChain::new(warmed(budget), interval, LEAD_IN);
            let mut stopped = 0;
            for pulses in [0, 1, 3, 5] {
                let (report, sink) = chain.run(pulses);
                stopped += usize::from(report.outcome == RunOutcome::BudgetExhausted);
                assert_eq!(
                    (report, sink.iter().collect::<Vec<_>>()),
                    fresh(budget, pulses),
                    "budget {budget}, {pulses} pulses"
                );
            }
            assert!(stopped > 0, "budget {budget} stopped no run");
        }
    }

    /// Pulses go onto the queue as the run reaches them: at each pause
    /// before a withdrawal, 10,000 pulses queue what 10 do.
    #[test]
    fn the_queue_holds_one_pulse_ahead_of_the_clock() {
        let queued_at_pauses = |pulses| {
            let mut net = Network::new(&line(2), NodeId::new(1), small_cfg(6));
            net.warm_up();
            let pattern = FlapPattern::new(pulses, SimDuration::from_secs(1));
            net.start_measured(LEAD_IN, [(FlapLink::Origin(0), pattern)]);
            let mut queued = Vec::new();
            while net.prime_next_pulse() {
                queued.push(net.state.queue.len());
            }
            queued
        };
        let (short, long) = (queued_at_pauses(10), queued_at_pauses(10_000));
        assert_eq!((long.len(), &long[..10]), (10_000, &short[..]));
        assert_eq!(long.iter().max(), short.iter().max());
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
            FlapPattern::paper_default(1),
            SimDuration::from_secs(1),
        );
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
        let pattern = FlapPattern::paper_default(3);
        let report = net.run_schedules(&[(0, &pattern)], LEAD_IN);
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        // Damping engaged for prefix 0 only.
        let trace = net.trace();
        let suppressed_pfx: std::collections::BTreeSet<u32> = trace
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
        let s0 = FlapPattern::paper_default(2);
        let s1 = FlapPattern::paper_default(4);
        let report = net.run_schedules(&[(0, &s0), (1, &s1)], LEAD_IN);
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
        net.set_ledger(rfd_core::LedgerFilter::keys([(
            origin.raw(),
            Prefix::ORIGIN.id(),
        )]));
        let report = net.run_pulses(FlapPattern::paper_default(3), LEAD_IN);
        assert_eq!(report, plain_report);

        let records = net.take_ledger();
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
        net.set_ledger(rfd_core::LedgerFilter::all());
        net.warm_up();
        assert!(
            net.state.ledger.is_empty(),
            "warm-up must not reach the ledger"
        );
        net.run_pulses(FlapPattern::paper_default(1), LEAD_IN);
        assert!(
            !net.take_ledger().is_empty(),
            "the measured phase buffers records"
        );
        assert!(
            net.take_ledger().is_empty(),
            "take_ledger drains the buffer"
        );
    }

    /// Watching every key emits on every damping decision of a dense
    /// full-damping run; the report and the full trace must still equal
    /// the ledger-off run's.
    #[test]
    fn ledger_on_every_key_leaves_report_and_trace_unchanged() {
        let g = mesh_torus(4, 4);
        let isp = NodeId::new(5);
        let run = |audit: bool| {
            let mut net = Network::new(&g, isp, NetworkConfig::paper_full_damping(3));
            net.warm_up();
            if audit {
                net.set_ledger(rfd_core::LedgerFilter::all());
            }
            let report = net.run_pulses(FlapPattern::paper_default(4), LEAD_IN);
            let records = net.take_ledger().len();
            (report, net.trace().iter().collect::<Vec<_>>(), records)
        };
        let (plain_report, plain_trace, none) = run(false);
        let (report, trace, records) = run(true);
        assert_eq!(none, 0);
        assert!(records > 0, "the audited run emitted nothing");
        assert_eq!(report, plain_report);
        assert_eq!(trace, plain_trace);
    }

    #[test]
    fn snapshot_refuses_a_network_holding_ledger_records() {
        let g = mesh_torus(3, 3);
        let cfg = NetworkConfig::paper_full_damping(11);
        let key = crate::snapshot::fingerprints(&g, &[NodeId::new(2)], &cfg);
        let mut net = Network::new(&g, NodeId::new(2), cfg);
        net.warm_up();
        net.set_ledger(rfd_core::LedgerFilter::all());
        net.run_pulses(FlapPattern::paper_default(1), LEAD_IN);
        assert!(matches!(
            crate::Snapshot::capture(&net, key),
            Err(crate::SnapshotError::UnsupportedSink(_))
        ));
        assert!(!net.take_ledger().is_empty());
        crate::Snapshot::capture(&net, key).expect("an emptied ledger captures");
    }

    #[test]
    #[should_panic(expected = "warm_up")]
    fn pulses_before_warm_up_panic() {
        let g = ring(4);
        let mut net = Network::new(&g, NodeId::new(0), small_cfg(1));
        net.run_pulses(FlapPattern::paper_default(1), SimDuration::from_secs(1));
    }
}
