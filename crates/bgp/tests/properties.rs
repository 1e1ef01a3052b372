//! Property-based tests for the router state machine: invariants that
//! must hold under arbitrary update sequences.

use proptest::prelude::*;
use rfd_bgp::{
    Network, NetworkConfig, PathTable, PenaltyFilter, Policy, Prefix, Route, Router, RouterConfig,
    RouterOutput, UpdateMessage, UpdatePayload,
};
use rfd_core::DampingParams;
use rfd_sim::{DetRng, RunOutcome, SimDuration, SimTime};
use rfd_topology::{internet_like, mesh_torus, Graph, Link, NodeId, Relationship, Relationships};

const ORIGIN: u32 = 100;
/// The router under test.
const ROUTER: u32 = 50;

/// One scripted stimulus to a router.
#[derive(Debug, Clone)]
enum Stimulus {
    /// Announcement from peer `p` with a path of the given shape.
    Announce { peer: u32, via: u32, prefix: u32 },
    /// Withdrawal from peer `p`.
    Withdraw { peer: u32, prefix: u32 },
    /// Session of peer `p` goes down.
    SessionDown { peer: u32 },
    /// Session of peer `p` comes back.
    SessionUp { peer: u32 },
}

fn stimulus_strategy(peers: u32, prefixes: u32) -> impl Strategy<Value = Stimulus> {
    let peer = 0..peers;
    prop_oneof![
        (peer.clone(), 0u32..5, 0..prefixes).prop_map(|(peer, via, prefix)| Stimulus::Announce {
            peer,
            via,
            prefix
        }),
        (peer.clone(), 0..prefixes).prop_map(|(peer, prefix)| Stimulus::Withdraw { peer, prefix }),
        peer.clone().prop_map(|peer| Stimulus::SessionDown { peer }),
        peer.prop_map(|peer| Stimulus::SessionUp { peer }),
    ]
}

fn route_via(table: &mut PathTable, peer: u32, via: u32) -> Route {
    // Distinct intermediate hops per `via` make attribute changes; all
    // end at ORIGIN and start at the announcing peer. `via == 4` runs
    // through the router under test (a loop it must treat as a
    // withdrawal).
    let mut r = table.originate(NodeId::new(ORIGIN));
    if via > 0 {
        let hop = if via == 4 { ROUTER } else { ORIGIN + via };
        r = table.prepend(r, NodeId::new(hop));
    }
    table.prepend(r, NodeId::new(peer))
}

fn build_router(table: &mut PathTable, damping: bool, peers: u32) -> Router {
    let config = RouterConfig {
        damping: damping.then(DampingParams::cisco),
        filter: PenaltyFilter::Plain,
        mrai: SimDuration::from_secs(30),
        mrai_jitter: (0.75, 1.0),
        protocol: rfd_bgp::ProtocolOptions::default(),
    };
    Router::new(
        NodeId::new(ROUTER),
        (0..peers).map(NodeId::new).collect(),
        false,
        config,
        table,
    )
}

/// Drives the script through the router, delivering timer callbacks by
/// always firing the earliest pending timer before the next stimulus,
/// and calls `check` after every handler call. A visible effect of the
/// drive: a sent message or a session bounce marker (session resets
/// legitimately repeat advertisements).
#[derive(Debug, Clone)]
enum Effect {
    Send(SimTime, NodeId, UpdateMessage),
    SessionReset(NodeId),
}

fn drive(
    router: &mut Router,
    table: &mut PathTable,
    script: &[(u64, Stimulus)],
    policy: &Policy,
    check: &mut dyn FnMut(&Router, &PathTable),
) -> Vec<Effect> {
    let mut rng = DetRng::from_seed(11);
    let mut sends = Vec::new();
    let mut timers: Vec<(SimTime, bool, NodeId, Prefix)> = Vec::new(); // (at, is_reuse, peer, prefix)
    let mut now = SimTime::ZERO;
    let handle_out = |out: RouterOutput,
                      timers: &mut Vec<(SimTime, bool, NodeId, Prefix)>,
                      sends: &mut Vec<Effect>,
                      at: SimTime| {
        for (to, msg) in out.sends {
            sends.push(Effect::Send(at, to, msg));
        }
        for (peer, prefix, t) in out.mrai_timers {
            timers.push((t, false, peer, prefix));
        }
        for (peer, prefix, t) in out.reuse_timers {
            timers.push((t, true, peer, prefix));
        }
    };
    for (gap, stim) in script {
        now += SimDuration::from_secs(*gap);
        // Fire due timers first, earliest first.
        timers.sort_by_key(|&(t, ..)| t);
        while let Some(&(t, is_reuse, peer, prefix)) = timers.first() {
            if t > now {
                break;
            }
            timers.remove(0);
            let mut out = RouterOutput::default();
            if is_reuse {
                router.on_reuse_timer(t, peer, prefix, table, &mut rng, policy, &mut out);
            } else {
                router.on_mrai_expiry(t, peer, prefix, table, &mut rng, policy, &mut out);
            }
            handle_out(out, &mut timers, &mut sends, t);
            check(router, table);
            timers.sort_by_key(|&(t, ..)| t);
        }
        let mut out = RouterOutput::default();
        match *stim {
            Stimulus::Announce { peer, via, prefix } => {
                if !router.session_is_down(NodeId::new(peer)) {
                    let mut msg = UpdateMessage::announce(route_via(table, peer, via));
                    msg.prefix = Prefix::new(prefix);
                    router.handle_update(
                        now,
                        NodeId::new(peer),
                        &msg,
                        table,
                        &mut rng,
                        policy,
                        &mut out,
                    );
                }
            }
            Stimulus::Withdraw { peer, prefix } => {
                if !router.session_is_down(NodeId::new(peer)) {
                    let mut msg = UpdateMessage::withdraw();
                    msg.prefix = Prefix::new(prefix);
                    router.handle_update(
                        now,
                        NodeId::new(peer),
                        &msg,
                        table,
                        &mut rng,
                        policy,
                        &mut out,
                    );
                }
            }
            Stimulus::SessionDown { peer } => {
                if !router.session_is_down(NodeId::new(peer)) {
                    sends.push(Effect::SessionReset(NodeId::new(peer)));
                    router.on_session_down(
                        now,
                        NodeId::new(peer),
                        None,
                        table,
                        &mut rng,
                        policy,
                        &mut out,
                    );
                }
            }
            Stimulus::SessionUp { peer } => {
                if router.session_is_down(NodeId::new(peer)) {
                    sends.push(Effect::SessionReset(NodeId::new(peer)));
                    router.on_session_up(
                        now,
                        NodeId::new(peer),
                        None,
                        table,
                        &mut rng,
                        policy,
                        &mut out,
                    );
                }
            }
        }
        handle_out(out, &mut timers, &mut sends, now);
        check(router, table);
    }
    sends
}

/// Stimuli, each after a gap in seconds.
type Script = Vec<(u64, Stimulus)>;

/// Scripts of up to 240 stimuli, `0..max_gap` seconds apart.
fn script_strategy(peers: u32, prefixes: u32, max_gap: u64) -> impl Strategy<Value = Script> {
    proptest::collection::vec((0..max_gap, stimulus_strategy(peers, prefixes)), 1..240)
}

/// Asserts that each prefix's best route is the argmin of its usable
/// RIB-IN entries by (preference class, path length, peer id), ranked
/// naively here rather than by the router's own scan.
fn best_is_the_naive_argmin(
    router: &Router,
    table: &PathTable,
    policy: &Policy,
    peers: u32,
    prefixes: u32,
) {
    let me = router.id();
    for prefix in (0..prefixes).map(Prefix::new) {
        let usable = (0..peers).map(NodeId::new).filter_map(|peer| {
            let route = router.rib_in_for(prefix, peer)?.usable_route()?;
            assert!(!table.contains(route, me), "RIB-IN holds a loop");
            let rank = (policy.preference_class(me, peer), route.len(), peer.raw());
            Some((rank, peer, route))
        });
        let naive = usable
            .min_by_key(|&(rank, ..)| rank)
            .map(|(_, p, r)| (Some(p), r));
        let best = router.best_for(prefix).map(|b| (b.learned_from, b.route));
        assert_eq!(best, naive, "best route for {prefix}");
    }
}

/// Peers 0 and 3 are customers of the router, peer 1 its provider and
/// peer 2 a settlement-free peer: all three preference classes.
fn mixed_relationships() -> Policy {
    let mut rel = Relationships::all_peers();
    let me = NodeId::new(ROUTER);
    for (peer, provider) in [(0, me), (1, NodeId::new(1)), (3, me)] {
        rel.set_provider(Link::new(me, NodeId::new(peer)), provider);
    }
    Policy::NoValley(rel)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The router never sends to a peer whose session is down, never
    /// announces a route containing the receiver, and never announces a
    /// route containing itself twice.
    #[test]
    fn sends_are_well_formed(script in script_strategy(3, 1, 200)) {
        let mut table = PathTable::new();
        let mut router = build_router(&mut table, true, 3);
        let policy = Policy::ShortestPath;
        let effects = drive(&mut router, &mut table, &script, &policy, &mut |_, _| {});
        for e in &effects {
            let Effect::Send(_, to, msg) = e else { continue };
            if let UpdatePayload::Announce(route) = msg.payload {
                prop_assert!(
                    !table.contains(route, *to),
                    "announced {} to {to}",
                    table.display(route)
                );
                prop_assert_eq!(route.head(), NodeId::new(50), "paths start with self");
            }
        }
    }

    /// MRAI: announcements to one (peer, prefix) are spaced by at least
    /// the minimum jittered interval (0.75 × 30 s); withdrawals are
    /// exempt.
    #[test]
    fn announcements_respect_mrai(script in script_strategy(3, 1, 200)) {
        let mut table = PathTable::new();
        let mut router = build_router(&mut table, false, 3);
        let policy = Policy::ShortestPath;
        let effects = drive(&mut router, &mut table, &script, &policy, &mut |_, _| {});
        let min_gap = SimDuration::from_secs_f64(30.0 * 0.75);
        let mut last: std::collections::HashMap<(u32, u32), SimTime> =
            std::collections::HashMap::new();
        for e in &effects {
            let Effect::Send(at, to, msg) = e else { continue };
            if msg.is_withdrawal() {
                continue;
            }
            let key = (to.raw(), msg.prefix.id());
            if let Some(prev) = last.get(&key) {
                let gap = at.saturating_since(*prev);
                prop_assert!(
                    gap >= min_gap,
                    "announcements to {to} only {gap} apart"
                );
            }
            last.insert(key, *at);
        }
    }

    /// No two consecutive identical messages to the same peer (RIB-OUT
    /// diffing prevents duplicates).
    #[test]
    fn no_duplicate_adjacent_sends(script in script_strategy(3, 1, 200)) {
        let mut table = PathTable::new();
        let mut router = build_router(&mut table, true, 3);
        let policy = Policy::ShortestPath;
        let effects = drive(&mut router, &mut table, &script, &policy, &mut |_, _| {});
        let mut last: std::collections::HashMap<u32, UpdateMessage> =
            std::collections::HashMap::new();
        for e in &effects {
            match e {
                // Session bounces legitimately repeat advertisements.
                Effect::SessionReset(peer) => {
                    last.remove(&peer.raw());
                }
                Effect::Send(_, to, msg) => {
                    if let Some(prev) = last.get(&to.raw()) {
                        let same_payload =
                            prev.payload == msg.payload && prev.prefix == msg.prefix;
                        prop_assert!(
                            !same_payload,
                            "duplicate send to {to}: {:?}",
                            msg.payload
                        );
                    }
                    last.insert(to.raw(), *msg);
                }
            }
        }
    }

    /// The best route is always derived from a live, usable entry: if
    /// the router has a best route via peer p, then p's entry holds
    /// exactly that route and is not suppressed.
    #[test]
    fn best_is_consistent_with_rib(script in script_strategy(3, 1, 200)) {
        let mut table = PathTable::new();
        let mut router = build_router(&mut table, true, 3);
        let policy = Policy::ShortestPath;
        drive(&mut router, &mut table, &script, &policy, &mut |_, _| {});
        if let Some(best) = router.best() {
            let peer = best.learned_from.expect("router 50 originates nothing");
            let entry = router.rib_in(peer).expect("entry exists");
            prop_assert!(!entry.is_suppressed());
            prop_assert_eq!(entry.route, Some(best.route));
        }
    }

    /// The decision process against a naive model: a damped router over
    /// four peers and two prefixes, under shortest path and under a
    /// no-valley relationship set, checked after every handler call
    /// (reuse timers included). Flaps come fast enough to suppress, and
    /// a last stimulus a day later fires every pending timer first.
    #[test]
    fn best_route_matches_a_naive_decision_model(mut script in script_strategy(4, 2, 20)) {
        script.push((86_400, Stimulus::SessionUp { peer: 0 }));
        for policy in [Policy::ShortestPath, mixed_relationships()] {
            let mut table = PathTable::new();
            let mut router = build_router(&mut table, true, 4);
            let mut check = |r: &Router, t: &PathTable| best_is_the_naive_argmin(r, t, &policy, 4, 2);
            drive(&mut router, &mut table, &script, &policy, &mut check);
        }
    }

    /// Suppressed entries always release eventually: after firing every
    /// pending reuse timer far in the future, nothing stays suppressed.
    #[test]
    fn suppression_always_ends(script in script_strategy(3, 1, 200)) {
        let mut table = PathTable::new();
        let mut router = build_router(&mut table, true, 3);
        let policy = Policy::ShortestPath;
        drive(&mut router, &mut table, &script, &policy, &mut |_, _| {});
        // Fast-forward: fire reuse timers until no entry is suppressed.
        // The RFC ceiling bounds suppression to the max hold-down, so
        // two hours from "now" everything must be releasable.
        let mut rng = DetRng::from_seed(5);
        let far = SimTime::from_secs(1_000_000);
        for peer in [0u32, 1, 2] {
            let peer = NodeId::new(peer);
            if router
                .rib_in(peer)
                .is_some_and(|e| e.is_suppressed())
            {
                let mut out = RouterOutput::default();
                router.on_reuse_timer(
                    far,
                    peer,
                    Prefix::ORIGIN,
                    &mut table,
                    &mut rng,
                    &policy,
                    &mut out,
                );
                prop_assert!(
                    !router.rib_in(peer).unwrap().is_suppressed(),
                    "entry for {peer} still suppressed at t=1e6"
                );
            }
        }
    }
}

/// A base graph: an Internet-like graph of 10–80 nodes or a torus from
/// 3×3 to 8×8.
fn base_graph() -> impl Strategy<Value = Graph> {
    prop_oneof![
        (10usize..81, any::<u64>()).prop_map(|(n, seed)| internet_like(n, 2, seed)),
        (3usize..9, 3usize..9).prop_map(|(w, h)| mesh_torus(w, h)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Warm-up against its closed form under shortest-path routing
    /// (ROADMAP 3(a)): with 1–8 origins on random ISPs and no damping,
    /// every base-graph router r ends warm-up with, for each origin's
    /// prefix, a best route one hop longer than its BFS distance d to
    /// that origin's ISP, learned from its lowest-id neighbour at
    /// distance d − 1 (the ISP learns it from the origin). Every
    /// neighbour q of r then holds r's route with r prepended — or no
    /// route from r when q is on r's path.
    #[test]
    fn warm_up_converges_to_shortest_paths(
        graph in base_graph(),
        picks in collection::vec(any::<u32>(), 1..9),
        seed in any::<u64>(),
    ) {
        let n = graph.node_count() as u32;
        let isps: Vec<NodeId> = picks.iter().map(|&p| NodeId::new(p % n)).collect();
        let mut net = Network::new_multi(&graph, &isps, NetworkConfig::paper_no_damping(seed));
        net.warm_up();
        let table = net.path_table();
        for origin in net.origins() {
            let p = origin.prefix;
            let dist = graph.bfs_distances(origin.isp);
            for r in graph.nodes() {
                let d = dist[r.index()].expect("base graphs are connected");
                let best = net.router(r).best_for(p).expect("warm-up routes every router");
                prop_assert_eq!(best.route.len(), d + 1, "{} to {}", r, p);
                let closer = graph.neighbors(r).iter().filter(|q| dist[q.index()] == d.checked_sub(1));
                let from = if d == 0 { origin.node } else { *closer.min().unwrap() };
                prop_assert_eq!(best.learned_from, Some(from), "{} to {}", r, p);
                for &q in net.router(r).peers() {
                    let held = net.router(q).rib_in_for(p, r).and_then(|e| e.route);
                    if table.contains(best.route, q) {
                        prop_assert_eq!(held, None, "{} holds {}'s route to {}", q, r, p);
                    } else {
                        let held = held.expect("the neighbour holds r's route");
                        prop_assert_eq!(held.head(), r);
                        prop_assert!(table.hops(held).skip(1).eq(table.hops(best.route)));
                    }
                }
            }
        }
    }
}

/// The stable no-valley (Gao–Rexford) assignment of the route `origin`
/// announces over `graph` labelled by `rel`: for every node, the best
/// route's length and the neighbour it is learned from, or `None` for
/// the origin itself and for nodes no valley-free path reaches. A
/// router ranks routes by preference class (customer, peer, provider),
/// then length, then the lowest neighbour id, and exports peer- and
/// provider-learned routes to its customers only. Three phases:
///
/// 1. customer routes climb customer→provider links from the origin
///    (a BFS);
/// 2. a router without one takes one peer hop from a neighbour that
///    holds one;
/// 3. every remaining router takes its provider's length + 1, computed
///    down provider→customer links (a Dijkstra over the mixed starting
///    lengths of phases 1 and 2).
fn no_valley_oracle(
    graph: &Graph,
    rel: &Relationships,
    origin: NodeId,
) -> Vec<Option<(usize, NodeId)>> {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, VecDeque};
    use Relationship::{Customer, Peer, Provider};

    // Each node's route as (preference class, length); the origin's own
    // is a customer route of length 0.
    let mut route: Vec<Option<(u8, usize)>> = vec![None; graph.node_count()];
    route[origin.index()] = Some((0, 0));
    // The length of the route `q` offers `r` in preference class
    // `class`, if no-valley export lets it offer one.
    let offer = |route: &[Option<(u8, usize)>], r: NodeId, q: NodeId, class: u8| {
        let (q_class, len) = route[q.index()]?;
        let exported = match class {
            0 => rel.classify(r, q) == Customer && q_class == 0,
            1 => rel.classify(r, q) == Peer && q_class == 0,
            _ => rel.classify(r, q) == Provider,
        };
        exported.then_some(len + 1)
    };

    let mut queue = VecDeque::from([origin]);
    while let Some(u) = queue.pop_front() {
        for &v in graph.neighbors(u) {
            if route[v.index()].is_none() {
                if let Some(len) = offer(&route, v, u, 0) {
                    route[v.index()] = Some((0, len));
                    queue.push_back(v);
                }
            }
        }
    }
    for r in graph.nodes() {
        if route[r.index()].is_none() {
            let peer_len = graph.neighbors(r).iter();
            let peer_len = peer_len.filter_map(|&q| offer(&route, r, q, 1)).min();
            route[r.index()] = peer_len.map(|len| (1, len));
        }
    }
    let mut heap: BinaryHeap<_> = graph
        .nodes()
        .filter_map(|u| Some(Reverse((route[u.index()]?.1, u))))
        .collect();
    while let Some(Reverse((len, u))) = heap.pop() {
        if route[u.index()].map(|(_, l)| l) != Some(len) {
            continue;
        }
        for &v in graph.neighbors(u) {
            let settled = route[v.index()].is_some_and(|(c, l)| c < 2 || l <= len + 1);
            if !settled && offer(&route, v, u, 2).is_some() {
                route[v.index()] = Some((2, len + 1));
                heap.push(Reverse((len + 1, v)));
            }
        }
    }
    graph
        .nodes()
        .map(|r| {
            let (class, len) = route[r.index()].filter(|_| r != origin)?;
            let from = graph.neighbors(r).iter().copied();
            let from = from
                .filter(|&q| offer(&route, r, q, class) == Some(len))
                .min();
            Some((len, from.expect("a best route is learned from a neighbour")))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Warm-up against its closed form under no-valley routing
    /// (ROADMAP 3(a)): with 1–64 origins on random ISPs of an
    /// Internet-like graph labelled as `infer_relationships` labels it,
    /// and no damping, every base-graph router ends warm-up on the
    /// stable Gao–Rexford assignment: its best route to each origin's
    /// prefix has the oracle's length and is learned from the oracle's
    /// neighbour.
    #[test]
    fn warm_up_converges_to_the_no_valley_assignment(
        n in 10usize..81,
        graph_seed in any::<u64>(),
        picks in collection::vec(any::<u32>(), 1..65),
        seed in any::<u64>(),
    ) {
        let graph = internet_like(n, 2, graph_seed);
        let rel = Relationships::infer_by_degree(&graph, 0.25);
        let isps: Vec<NodeId> = picks.iter().map(|&p| NodeId::new(p % n as u32)).collect();
        let config = NetworkConfig {
            policy: Policy::NoValley(rel.clone()),
            ..NetworkConfig::paper_no_damping(seed)
        };
        let mut net = Network::new_multi(&graph, &isps, config);
        net.warm_up();
        // The graph as `Network::new_multi` extends it: each origin is
        // appended as a customer of its ISP.
        let (mut full, mut rel) = (graph.clone(), rel);
        for origin in net.origins() {
            prop_assert_eq!(full.add_node(), origin.node);
            full.add_link(origin.node, origin.isp);
            rel.set_provider(Link::new(origin.node, origin.isp), origin.isp);
        }
        for origin in net.origins() {
            let p = origin.prefix;
            let oracle = no_valley_oracle(&full, &rel, origin.node);
            for r in graph.nodes() {
                let best = net.router(r).best_for(p).map(|b| (b.route.len(), b.learned_from));
                let expect = oracle[r.index()].map(|(len, from)| (len, Some(from)));
                prop_assert_eq!(best, expect, "{} to {}", r, p);
            }
        }
    }
}

/// `horizon: SimDuration::MAX` means "no horizon": it validates, and the
/// run must end by draining its queues, not by overflowing the window
/// arithmetic — with the same report as under the default horizon.
#[test]
fn a_run_without_a_horizon_ends_quiescent() {
    let graph = mesh_torus(4, 4);
    let run = |horizon| {
        let config = NetworkConfig {
            horizon,
            ..NetworkConfig::paper_full_damping(3)
        };
        let mut net = Network::new(&graph, NodeId::new(5), config);
        let report = net.run_paper_workload(3);
        assert_eq!(report.outcome, RunOutcome::Quiescent);
        (report.message_count, report.convergence_time, net.windows())
    };
    let bounded = run(NetworkConfig::paper_full_damping(3).horizon);
    assert_eq!(run(SimDuration::MAX), bounded);
}
