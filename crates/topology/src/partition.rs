//! Deterministic node-to-shard partitioning for the sharded simulation
//! engine.
//!
//! The partition is a pure function of the node id — FNV-1a over the
//! raw `u32`, reduced modulo the shard count — so it does not depend on
//! iteration order, topology generator internals, or the machine
//! running it. That property is load-bearing: the sharded engine's
//! byte-determinism contract says the same seed must produce the same
//! run at any `--sim-shards`, which requires every process to agree on
//! where each node lives.
//!
//! FNV blocks trade balance quality for stability: a graph-aware
//! min-cut partitioner would cut fewer edges but would have to be
//! re-derived (and re-verified deterministic) every time the topology
//! changes. The [`Partition`] report carries the cut-edge count so the
//! cost is visible instead of hidden.

use crate::graph::{Graph, NodeId};

/// Identifies one shard of a partitioned simulation.
pub type ShardId = u16;

/// Maps a node to its shard: FNV-1a over the little-endian bytes of the
/// raw node id, modulo `n_shards`.
///
/// # Panics
///
/// Panics if `n_shards` is zero.
pub fn shard_of(node: NodeId, n_shards: usize) -> ShardId {
    assert!(n_shards > 0, "partition needs at least one shard");
    let h = rfd_snap::fnv1a(&node.raw().to_le_bytes());
    (h % n_shards as u64) as ShardId
}

/// A node-to-shard assignment with its quality report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `shard_of[node.index()]` is the node's shard.
    pub shard_of: Vec<ShardId>,
    /// Nodes per shard.
    pub sizes: Vec<usize>,
    /// Number of links whose endpoints land on different shards —
    /// every one of them is a cross-shard mailbox hop at runtime.
    pub cut_edges: usize,
}

impl Partition {
    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.sizes.len()
    }

    /// Fraction of links cut, in `[0, 1]`; zero for a link-free graph.
    pub fn cut_fraction(&self, graph: &Graph) -> f64 {
        if graph.link_count() == 0 {
            0.0
        } else {
            self.cut_edges as f64 / graph.link_count() as f64
        }
    }
}

/// Partitions `graph` into `n_shards` deterministic FNV blocks and
/// reports shard sizes and the cut-edge count.
///
/// # Panics
///
/// Panics if `n_shards` is zero.
pub fn partition(graph: &Graph, n_shards: usize) -> Partition {
    assert!(n_shards > 0, "partition needs at least one shard");
    let shard_of_vec: Vec<ShardId> = graph.nodes().map(|n| shard_of(n, n_shards)).collect();
    let mut sizes = vec![0usize; n_shards];
    for &s in &shard_of_vec {
        sizes[s as usize] += 1;
    }
    let cut_edges = graph
        .links()
        .iter()
        .filter(|l| shard_of_vec[l.a().index()] != shard_of_vec[l.b().index()])
        .count();
    Partition {
        shard_of: shard_of_vec,
        sizes,
        cut_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{internet_like, mesh_torus};

    #[test]
    fn single_shard_cuts_nothing() {
        let g = mesh_torus(4, 4);
        let p = partition(&g, 1);
        assert_eq!(p.sizes, vec![16]);
        assert_eq!(p.cut_edges, 0);
        assert_eq!(p.cut_fraction(&g), 0.0);
    }

    #[test]
    fn partition_is_a_pure_function_of_node_ids() {
        // Same node ids in two structurally different graphs must land
        // on the same shards: the assignment ignores the topology.
        let torus = mesh_torus(5, 5);
        let ba = internet_like(25, 2, 9);
        for shards in [2usize, 3, 8] {
            let pa = partition(&torus, shards);
            let pb = partition(&ba, shards);
            assert_eq!(pa.shard_of, pb.shard_of, "shards={shards}");
            // And repeated evaluation is identical.
            assert_eq!(pa, partition(&torus, shards));
        }
    }

    #[test]
    fn every_shard_gets_nodes_on_reasonable_sizes() {
        let g = internet_like(400, 2, 1);
        for shards in [2usize, 4, 8] {
            let p = partition(&g, shards);
            assert_eq!(p.n_shards(), shards);
            assert_eq!(p.sizes.iter().sum::<usize>(), g.node_count());
            for (i, &size) in p.sizes.iter().enumerate() {
                assert!(size > 0, "shard {i} of {shards} is empty");
            }
        }
    }

    #[test]
    fn cut_edges_count_cross_shard_links_exactly() {
        let g = mesh_torus(4, 4);
        let p = partition(&g, 4);
        let manual = g
            .links()
            .iter()
            .filter(|l| shard_of(l.a(), 4) != shard_of(l.b(), 4))
            .count();
        assert_eq!(p.cut_edges, manual);
        assert!(p.cut_edges > 0, "a 4-way torus split must cut something");
        assert!(p.cut_fraction(&g) <= 1.0);
    }
}
