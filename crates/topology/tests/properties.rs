//! Property-based tests for topology generation and relationship
//! inference.

use proptest::prelude::*;
use rfd_topology::{internet_like, mesh_torus, Graph, NodeId, Relationships};

fn arbitrary_connected_graph() -> impl Strategy<Value = Graph> {
    // Build a random tree (guarantees connectivity) plus random extra
    // links.
    (2usize..40, any::<u64>(), 0usize..30).prop_map(|(n, seed, extra)| {
        let mut g = Graph::with_nodes(n);
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for i in 1..n {
            let parent = (next() % i as u64) as u32;
            g.add_link(NodeId::new(i as u32), NodeId::new(parent));
        }
        for _ in 0..extra {
            let a = (next() % n as u64) as u32;
            let b = (next() % n as u64) as u32;
            if a != b {
                g.add_link(NodeId::new(a), NodeId::new(b));
            }
        }
        g
    })
}

proptest! {
    /// Every torus is 4-regular (dims ≥ 3), vertex-count exact, and
    /// connected.
    #[test]
    fn torus_invariants(w in 3usize..12, h in 3usize..12) {
        let g = mesh_torus(w, h);
        prop_assert_eq!(g.node_count(), w * h);
        prop_assert_eq!(g.link_count(), 2 * w * h);
        prop_assert!(g.nodes().all(|n| g.degree(n) == 4));
        prop_assert!(g.is_connected());
    }

    /// BA graphs are connected, have the requested size, and minimum
    /// degree ≥ m.
    #[test]
    fn internet_like_invariants(n in 5usize..120, m in 1usize..4, seed in any::<u64>()) {
        prop_assume!(n > m);
        let g = internet_like(n, m, seed);
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(g.is_connected());
        prop_assert!(g.nodes().all(|v| g.degree(v) >= m.min(n - 1)));
    }

    /// Relationship inference on arbitrary connected graphs yields an
    /// acyclic provider hierarchy with full valley-free reachability
    /// from every source.
    #[test]
    fn relationships_sound(g in arbitrary_connected_graph(), tol in 0.0f64..1.0) {
        let rel = Relationships::infer_by_degree(&g, tol);
        prop_assert!(rel.provider_dag_is_acyclic(&g));
        for src in g.nodes().take(5) {
            let reach = rel.valley_free_reachable(&g, src);
            prop_assert!(
                reach.iter().all(|&r| r),
                "src {src} cannot reach everyone"
            );
        }
    }

    /// BFS distances satisfy the triangle property along links:
    /// adjacent nodes differ by at most 1.
    #[test]
    fn bfs_is_metric_like(g in arbitrary_connected_graph()) {
        let src = NodeId::new(0);
        let dist = g.bfs_distances(src);
        for link in g.links() {
            let da = dist[link.a().index()].expect("connected");
            let db = dist[link.b().index()].expect("connected");
            prop_assert!(da.abs_diff(db) <= 1, "{} vs {}", da, db);
        }
    }
}
