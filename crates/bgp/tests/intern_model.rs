//! Model-based tests for the AS-path interner: a [`PathTable`] driven
//! by random operation sequences must agree, observation for
//! observation, with a naive reference model that stores every path as
//! a plain `Vec<NodeId>`.
//!
//! The model checks the semantics the router relies on:
//!
//! * equality of [`Route`] handles ⇔ equality of the underlying paths
//!   (hash-consing must neither merge distinct paths nor split equal
//!   ones);
//! * `contains` ⇔ naive membership scan (loop detection), also when
//!   node ids collide mod 64 so that every suffix's bloom passes;
//! * `prepend` ⇔ pushing onto the front of the vector;
//! * `from_path` of any suffix (truncation re-interning) resolves back
//!   to exactly that suffix;
//! * `len`, `head`, `origin`, and `hops` agree with the vector;
//! * a route's id is its path's first-seen index, and every path's
//!   tail has a smaller id — the order `PathTable::rebuild` and the
//!   snapshot path list rely on.

use proptest::prelude::*;
use rfd_bgp::{PathTable, Route};
use rfd_topology::NodeId;

/// One operation against both the table and the reference model.
#[derive(Debug, Clone)]
enum Op {
    /// Start a fresh route at the given origin.
    Originate(u32),
    /// Prepend a node to route `slot % live_routes` (skipped when it
    /// would create a loop — the table panics on loops by contract,
    /// which `loops_panic` covers separately).
    Prepend { slot: usize, node: u32 },
    /// Re-intern the trailing `keep` hops of route `slot` via
    /// `from_path` (route truncation as a damping filter might do).
    Truncate { slot: usize, keep: usize },
}

/// The `i`-th node id a script draws: three per bloom bit, so
/// membership tests keep passing the bloom and are settled by the walk.
fn node(i: u32) -> NodeId {
    NodeId::new(i % 8 + 64 * (i / 8))
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u32..24).prop_map(Op::Originate),
        (any::<usize>(), 0u32..24).prop_map(|(slot, node)| Op::Prepend { slot, node }),
        (any::<usize>(), 1usize..8).prop_map(|(slot, keep)| Op::Truncate { slot, keep }),
    ]
}

/// Applies the script, returning parallel vectors of interned routes
/// and their reference paths (index i of one corresponds to index i of
/// the other).
fn run_script(table: &mut PathTable, script: &[Op]) -> (Vec<Route>, Vec<Vec<NodeId>>) {
    let mut routes: Vec<Route> = Vec::new();
    let mut model: Vec<Vec<NodeId>> = Vec::new();
    for op in script {
        match *op {
            Op::Originate(origin) => {
                routes.push(table.originate(node(origin)));
                model.push(vec![node(origin)]);
            }
            Op::Prepend { slot, node: drawn } => {
                if routes.is_empty() {
                    continue;
                }
                let i = slot % routes.len();
                let node = node(drawn);
                if model[i].contains(&node) {
                    continue; // would loop: the table panics by contract
                }
                routes.push(table.prepend(routes[i], node));
                let mut path = vec![node];
                path.extend_from_slice(&model[i]);
                model.push(path);
            }
            Op::Truncate { slot, keep } => {
                if routes.is_empty() {
                    continue;
                }
                let i = slot % routes.len();
                let start = model[i].len().saturating_sub(keep);
                let suffix = &model[i][start..];
                routes.push(table.from_path(suffix));
                model.push(suffix.to_vec());
            }
        }
    }
    (routes, model)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every observation on an interned route matches the vector model.
    #[test]
    fn table_agrees_with_naive_model(script in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut table = PathTable::new();
        let (routes, model) = run_script(&mut table, &script);
        for (route, path) in routes.iter().zip(&model) {
            prop_assert_eq!(table.hops(*route).collect::<Vec<_>>(), path.clone());
            prop_assert_eq!(route.len(), path.len());
            prop_assert_eq!(route.head(), path[0]);
            prop_assert_eq!(route.origin(), *path.last().unwrap());
            // Membership agrees for drawn ids, undrawn ids on the same
            // bloom bits (walked to the origin) and ids on other bits.
            for node in (0..32).map(node).chain((8..16).map(NodeId::new)) {
                prop_assert_eq!(
                    table.contains(*route, node),
                    path.contains(&node),
                    "contains({}, {node})",
                    table.display(*route)
                );
            }
        }
    }

    /// Handle equality is path equality: hash-consing maps equal paths
    /// to the same `PathId` and distinct paths to distinct ids.
    #[test]
    fn handle_equality_is_path_equality(script in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut table = PathTable::new();
        let (routes, model) = run_script(&mut table, &script);
        for i in 0..routes.len() {
            for j in (i + 1)..routes.len() {
                prop_assert_eq!(
                    routes[i].id() == routes[j].id(),
                    model[i] == model[j],
                    "routes {} and {} disagree with the model",
                    table.display(routes[i]),
                    table.display(routes[j])
                );
            }
        }
    }

    /// Ids are dense first-seen indices: whichever operation first
    /// produced a path, `id().raw()` is the number of distinct paths
    /// seen before it, every path's tail has a smaller id, and
    /// `paths()` lists them in that order.
    #[test]
    fn ids_are_first_seen_indices(script in proptest::collection::vec(op_strategy(), 1..80)) {
        let mut table = PathTable::new();
        let (routes, model) = run_script(&mut table, &script);
        // `prepend` interns nothing the model does not also record, so
        // first occurrences in `model` are first interns in the table.
        let mut first_seen: Vec<&[NodeId]> = Vec::new();
        for (route, path) in routes.iter().zip(&model) {
            let index = match first_seen.iter().position(|p| *p == path.as_slice()) {
                Some(index) => index,
                None => {
                    first_seen.push(path);
                    first_seen.len() - 1
                }
            };
            prop_assert_eq!(route.id().raw() as usize, index, "{}", table.display(*route));
        }
        for (id, path) in first_seen.iter().enumerate().filter(|(_, p)| p.len() > 1) {
            let tail = table.from_path(&path[1..]);
            prop_assert!((tail.id().raw() as usize) < id, "{}", table.display(tail));
        }
        prop_assert_eq!(table.paths().collect::<Vec<_>>(), first_seen);
    }

    /// Interning is idempotent and the table never double-counts:
    /// re-interning every produced path changes nothing.
    #[test]
    fn reintern_is_stable(script in proptest::collection::vec(op_strategy(), 1..40)) {
        let mut table = PathTable::new();
        let (routes, model) = run_script(&mut table, &script);
        let distinct_before = table.stats().distinct;
        for (route, path) in routes.iter().zip(&model) {
            let again = table.from_path(path);
            prop_assert_eq!(again, *route);
        }
        prop_assert_eq!(table.stats().distinct, distinct_before,
            "re-interning known paths must not grow the table");
    }
}

#[test]
#[should_panic(expected = "loop")]
fn loops_panic() {
    let mut table = PathTable::new();
    table.from_path(&[NodeId::new(1), NodeId::new(2), NodeId::new(1)]);
}
