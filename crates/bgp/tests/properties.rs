//! Property-based tests for the router state machine: invariants that
//! must hold under arbitrary update sequences.

use proptest::prelude::*;
use rfd_bgp::{
    Network, NetworkConfig, PathTable, PenaltyFilter, Policy, Prefix, Route, Router, RouterConfig,
    RouterOutput, UpdateMessage, UpdatePayload,
};
use rfd_core::DampingParams;
use rfd_sim::{DetRng, RunOutcome, SimDuration, SimTime};
use rfd_topology::{mesh_torus, NodeId};

const ORIGIN: u32 = 100;

/// One scripted stimulus to a router.
#[derive(Debug, Clone)]
enum Stimulus {
    /// Announcement from peer `p` with a path of the given shape.
    Announce { peer: u32, via: u32 },
    /// Withdrawal from peer `p`.
    Withdraw { peer: u32 },
    /// Session of peer `p` goes down.
    SessionDown { peer: u32 },
    /// Session of peer `p` comes back.
    SessionUp { peer: u32 },
}

fn stimulus_strategy(peers: u32) -> impl Strategy<Value = Stimulus> {
    let peer = 0..peers;
    prop_oneof![
        (peer.clone(), 0u32..4).prop_map(|(peer, via)| Stimulus::Announce { peer, via }),
        peer.clone().prop_map(|peer| Stimulus::Withdraw { peer }),
        peer.clone().prop_map(|peer| Stimulus::SessionDown { peer }),
        peer.prop_map(|peer| Stimulus::SessionUp { peer }),
    ]
}

fn route_via(table: &mut PathTable, peer: u32, via: u32) -> Route {
    // Distinct intermediate hops per `via` make attribute changes; all
    // end at ORIGIN and start at the announcing peer.
    let mut r = table.originate(NodeId::new(ORIGIN));
    if via > 0 {
        r = table.prepend(r, NodeId::new(ORIGIN + via));
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
        NodeId::new(50),
        (0..peers).map(NodeId::new).collect(),
        false,
        config,
        table,
    )
}

/// Drives the script through the router, delivering timer callbacks by
/// always firing the earliest pending timer before the next stimulus.
/// A visible effect of the drive: a sent message or a session bounce
/// marker (session resets legitimately repeat advertisements).
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
) -> (Vec<Effect>, usize) {
    let mut rng = DetRng::from_seed(11);
    let mut sends = Vec::new();
    let mut timers: Vec<(SimTime, bool, NodeId, Prefix)> = Vec::new(); // (at, is_reuse, peer, prefix)
    let mut reuses = 0;
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
                reuses += 1;
                router.on_reuse_timer(t, peer, prefix, table, &mut rng, policy, &mut out);
            } else {
                router.on_mrai_expiry(t, peer, prefix, table, &mut rng, policy, &mut out);
            }
            handle_out(out, &mut timers, &mut sends, t);
            timers.sort_by_key(|&(t, ..)| t);
        }
        let mut out = RouterOutput::default();
        match *stim {
            Stimulus::Announce { peer, via } => {
                if !router.session_is_down(NodeId::new(peer)) {
                    let msg = UpdateMessage::announce(route_via(table, peer, via));
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
            Stimulus::Withdraw { peer } => {
                if !router.session_is_down(NodeId::new(peer)) {
                    router.handle_update(
                        now,
                        NodeId::new(peer),
                        &UpdateMessage::withdraw(),
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
    }
    (sends, reuses)
}

fn script_strategy() -> impl Strategy<Value = Vec<(u64, Stimulus)>> {
    proptest::collection::vec((0u64..200, stimulus_strategy(3)), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The router never sends to a peer whose session is down, never
    /// announces a route containing the receiver, and never announces a
    /// route containing itself twice.
    #[test]
    fn sends_are_well_formed(script in script_strategy()) {
        let mut table = PathTable::new();
        let mut router = build_router(&mut table, true, 3);
        let policy = Policy::ShortestPath;
        let (effects, _) = drive(&mut router, &mut table, &script, &policy);
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
    fn announcements_respect_mrai(script in script_strategy()) {
        let mut table = PathTable::new();
        let mut router = build_router(&mut table, false, 3);
        let policy = Policy::ShortestPath;
        let (effects, _) = drive(&mut router, &mut table, &script, &policy);
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
    fn no_duplicate_adjacent_sends(script in script_strategy()) {
        let mut table = PathTable::new();
        let mut router = build_router(&mut table, true, 3);
        let policy = Policy::ShortestPath;
        let (effects, _) = drive(&mut router, &mut table, &script, &policy);
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
    fn best_is_consistent_with_rib(script in script_strategy()) {
        let mut table = PathTable::new();
        let mut router = build_router(&mut table, true, 3);
        let policy = Policy::ShortestPath;
        let _ = drive(&mut router, &mut table, &script, &policy);
        if let Some(best) = router.best() {
            let peer = best.learned_from.expect("router 50 originates nothing");
            let entry = router.rib_in(peer).expect("entry exists");
            prop_assert!(!entry.is_suppressed());
            prop_assert_eq!(entry.route, Some(best.route));
        }
    }

    /// Suppressed entries always release eventually: after firing every
    /// pending reuse timer far in the future, nothing stays suppressed.
    #[test]
    fn suppression_always_ends(script in script_strategy()) {
        let mut table = PathTable::new();
        let mut router = build_router(&mut table, true, 3);
        let policy = Policy::ShortestPath;
        let _ = drive(&mut router, &mut table, &script, &policy);
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
