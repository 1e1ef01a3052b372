//! Topology generators.
//!
//! The paper evaluates on two families (§5.1):
//!
//! * **mesh** — "a 2-dimensional grid in which nodes at opposite edges
//!   are connected, so that all nodes are topologically equal" — i.e. a
//!   torus ([`mesh_torus`]);
//! * **Internet-derived** — an AS graph with "long-tailed distribution
//!   of node degree". Offline we cannot read 2003 BGP table dumps, so
//!   [`internet_like`] generates a preferential-attachment
//!   (Barabási–Albert) graph, which has the same long-tailed degree
//!   property (see DESIGN.md, substitutions).
//!
//! The rest of the gallery (ring, line, clique, star, Erdős–Rényi) backs
//! unit tests and micro-scenarios such as the silent/noisy reuse-timer
//! examples of Figures 5 and 6.

use rfd_sim::DetRng;

use crate::graph::{Graph, NodeId};

/// A `width × height` grid with opposite edges joined (a torus). Every
/// node has degree 4 (for dimensions ≥ 3); the paper's mesh topology.
///
/// A 10×10 torus gives the paper's 100-node / 200-link mesh.
///
/// # Panics
///
/// Panics if either dimension is zero.
///
/// # Examples
///
/// ```
/// use rfd_topology::mesh_torus;
///
/// let g = mesh_torus(10, 10);
/// assert_eq!(g.node_count(), 100);
/// assert_eq!(g.link_count(), 200);
/// assert!(g.nodes().all(|n| g.degree(n) == 4));
/// ```
pub fn mesh_torus(width: usize, height: usize) -> Graph {
    assert!(width > 0 && height > 0, "mesh dimensions must be positive");
    let mut g = Graph::with_nodes(width * height);
    let id = |x: usize, y: usize| NodeId::new((y * width + x) as u32);
    for y in 0..height {
        for x in 0..width {
            if width > 1 {
                g.add_link(id(x, y), id((x + 1) % width, y));
            }
            if height > 1 {
                g.add_link(id(x, y), id(x, (y + 1) % height));
            }
        }
    }
    g
}

/// Barabási–Albert preferential attachment: starts from a small clique
/// and attaches each new node to `m` existing nodes with probability
/// proportional to their degree. Produces the long-tailed degree
/// distribution of Internet AS graphs.
///
/// # Panics
///
/// Panics if `n < m + 1` or `m == 0`.
///
/// # Examples
///
/// ```
/// use rfd_topology::internet_like;
///
/// let g = internet_like(100, 2, 42);
/// assert_eq!(g.node_count(), 100);
/// assert!(g.is_connected());
/// ```
pub fn internet_like(n: usize, m: usize, seed: u64) -> Graph {
    assert!(m > 0, "attachment degree must be positive");
    assert!(n > m, "need more nodes ({n}) than attachment degree ({m})");
    let mut rng = DetRng::from_seed_and_label(seed, "topology/internet-like");
    let mut g = Graph::with_nodes(n);
    // Seed clique of m+1 nodes.
    for i in 0..=(m as u32) {
        for j in (i + 1)..=(m as u32) {
            g.add_link(NodeId::new(i), NodeId::new(j));
        }
    }
    // Endpoint pool: each node appears once per incident link, so
    // sampling uniformly from the pool is degree-proportional sampling.
    // The final pool holds two entries per link (~2·n·m); reserving it
    // up front keeps 10k+-node generation free of reallocation churn.
    let mut pool: Vec<NodeId> = Vec::with_capacity(2 * (m * (m + 1) / 2 + (n - m - 1) * m));
    pool.extend(g.links().iter().flat_map(|l| [l.a(), l.b()]));
    let mut targets = Vec::with_capacity(m);
    for v in (m + 1)..n {
        let v = NodeId::new(v as u32);
        targets.clear();
        while targets.len() < m {
            let candidate = pool[rng.below(pool.len())];
            if candidate != v && !targets.contains(&candidate) {
                targets.push(candidate);
            }
        }
        for &t in &targets {
            g.add_link(v, t);
            pool.push(v);
            pool.push(t);
        }
    }
    g
}

/// A cycle of `n` nodes.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn ring(n: usize) -> Graph {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut g = Graph::with_nodes(n);
    for i in 0..n {
        g.add_link(NodeId::new(i as u32), NodeId::new(((i + 1) % n) as u32));
    }
    g
}

/// A path of `n` nodes.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn line(n: usize) -> Graph {
    assert!(n > 0, "a line needs at least one node");
    let mut g = Graph::with_nodes(n);
    for i in 1..n {
        g.add_link(NodeId::new((i - 1) as u32), NodeId::new(i as u32));
    }
    g
}

/// The complete graph on `n` nodes.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn clique(n: usize) -> Graph {
    assert!(n > 0, "a clique needs at least one node");
    let mut g = Graph::with_nodes(n);
    for i in 0..n as u32 {
        for j in (i + 1)..n as u32 {
            g.add_link(NodeId::new(i), NodeId::new(j));
        }
    }
    g
}

/// A star: node 0 is the hub.
///
/// # Panics
///
/// Panics if `n < 2`.
pub fn star(n: usize) -> Graph {
    assert!(n >= 2, "a star needs at least 2 nodes");
    let mut g = Graph::with_nodes(n);
    for i in 1..n as u32 {
        g.add_link(NodeId::new(0), NodeId::new(i));
    }
    g
}

/// Erdős–Rényi G(n, p), retried until connected (up to 64 attempts).
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`, or if no connected sample is found
/// in 64 attempts (p too small for n).
pub fn erdos_renyi_connected(n: usize, p: f64, seed: u64) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be within [0,1], got {p}");
    let mut rng = DetRng::from_seed_and_label(seed, "topology/erdos-renyi");
    for _ in 0..64 {
        let mut g = Graph::with_nodes(n);
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if rng.next_f64() < p {
                    g.add_link(NodeId::new(i), NodeId::new(j));
                }
            }
        }
        if g.is_connected() {
            return g;
        }
    }
    panic!("no connected G({n}, {p}) sample in 64 attempts");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn torus_is_regular_and_connected() {
        for (w, h) in [(3, 3), (4, 5), (10, 10)] {
            let g = mesh_torus(w, h);
            assert_eq!(g.node_count(), w * h);
            assert_eq!(g.link_count(), 2 * w * h);
            assert!(g.nodes().all(|n| g.degree(n) == 4), "{w}x{h}");
            assert!(g.is_connected());
        }
    }

    #[test]
    fn paper_mesh_dimensions() {
        // §5.1: topology size of 100 nodes; §5.3: 200 links, damped link
        // count bounded by 400.
        let g = mesh_torus(10, 10);
        assert_eq!(g.node_count(), 100);
        assert_eq!(g.link_count(), 200);
    }

    #[test]
    fn torus_nodes_topologically_equal() {
        // All nodes have the same eccentricity (vertex-transitive).
        let g = mesh_torus(5, 5);
        let ecc: Vec<_> = g.nodes().map(|n| g.eccentricity(n).unwrap()).collect();
        assert!(ecc.iter().all(|&e| e == ecc[0]));
        assert_eq!(ecc[0], 4); // 2 + 2 wrap-around hops
    }

    #[test]
    fn degenerate_torus_small() {
        let g = mesh_torus(2, 2);
        assert_eq!(g.node_count(), 4);
        assert!(g.is_connected());
        // 2x2 torus collapses duplicate wrap links; degree 2 each.
        assert!(g.nodes().all(|n| g.degree(n) == 2));
    }

    #[test]
    fn internet_like_has_long_tail() {
        let g = internet_like(208, 2, 7);
        assert_eq!(g.node_count(), 208);
        assert!(g.is_connected());
        let max_deg = g.nodes().map(|n| g.degree(n)).max().unwrap();
        let min_deg = g.nodes().map(|n| g.degree(n)).min().unwrap();
        assert!(min_deg >= 2);
        assert!(
            max_deg >= 5 * min_deg,
            "expected hubs: max degree {max_deg} vs min {min_deg}"
        );
        // Most nodes are low degree (long tail).
        let low = g.nodes().filter(|&n| g.degree(n) <= 4).count();
        assert!(low * 2 > g.node_count());
    }

    #[test]
    fn internet_like_scales_to_ten_thousand_nodes() {
        // Scale smoke test for the ba:10000 workloads: generation
        // must stay O(n·m) and the long-tail shape must survive. Runs
        // in well under a second even on one debug-profile core.
        let g = internet_like(10_000, 2, 11);
        assert_eq!(g.node_count(), 10_000);
        assert_eq!(g.link_count(), 3 + (10_000 - 3) * 2);
        assert!(g.is_connected());
        let max_deg = g.nodes().map(|n| g.degree(n)).max().unwrap();
        assert!(max_deg >= 100, "expected large hubs, max degree {max_deg}");
    }

    #[test]
    fn internet_like_is_deterministic_per_seed() {
        assert_eq!(internet_like(50, 2, 9), internet_like(50, 2, 9));
        assert_ne!(internet_like(50, 2, 9), internet_like(50, 2, 10));
    }

    #[test]
    fn gallery_shapes() {
        let r = ring(6);
        assert!(r.nodes().all(|n| r.degree(n) == 2));
        assert!(r.is_connected());

        let l = line(5);
        assert_eq!(l.link_count(), 4);
        assert_eq!(l.eccentricity(rfd(0)), Some(4));

        let c = clique(5);
        assert_eq!(c.link_count(), 10);
        assert!(c.nodes().all(|n| c.degree(n) == 4));

        let s = star(5);
        assert_eq!(s.degree(rfd(0)), 4);
        assert!(s.nodes().skip(1).all(|n| s.degree(n) == 1));
    }

    fn rfd(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn erdos_renyi_connected_and_seeded() {
        let g = erdos_renyi_connected(30, 0.2, 3);
        assert!(g.is_connected());
        assert_eq!(g, erdos_renyi_connected(30, 0.2, 3));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mesh_panics() {
        mesh_torus(0, 5);
    }

    #[test]
    #[should_panic(expected = "more nodes")]
    fn ba_needs_enough_nodes() {
        internet_like(2, 2, 0);
    }
}
