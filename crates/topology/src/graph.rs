//! Undirected simple graphs over dense node indices.

use std::collections::VecDeque;
use std::fmt;

/// Identifier of a node (an autonomous system in the BGP experiments).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw index as `u32` (used by the RCN root-cause encoding).
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AS{}", self.0)
    }
}

/// An undirected link, stored with endpoints in ascending order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Link {
    a: NodeId,
    b: NodeId,
}

impl Link {
    /// Creates a link; endpoint order is normalised.
    ///
    /// # Panics
    ///
    /// Panics on self-loops.
    pub fn new(a: NodeId, b: NodeId) -> Self {
        assert_ne!(a, b, "self-loops are not allowed");
        if a < b {
            Link { a, b }
        } else {
            Link { a: b, b: a }
        }
    }

    /// The lower-indexed endpoint.
    pub fn a(self) -> NodeId {
        self.a
    }

    /// The higher-indexed endpoint.
    pub fn b(self) -> NodeId {
        self.b
    }

    /// Both endpoints.
    pub fn endpoints(self) -> (NodeId, NodeId) {
        (self.a, self.b)
    }

    /// Whether `n` is one of the endpoints.
    pub fn touches(self, n: NodeId) -> bool {
        self.a == n || self.b == n
    }

    /// The other endpoint, if `n` is an endpoint.
    pub fn other(self, n: NodeId) -> Option<NodeId> {
        if n == self.a {
            Some(self.b)
        } else if n == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

impl fmt::Display for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} {}]", self.a, self.b)
    }
}

/// An undirected simple graph.
///
/// # Examples
///
/// ```
/// use rfd_topology::{Graph, NodeId};
///
/// let mut g = Graph::with_nodes(3);
/// g.add_link(NodeId::new(0), NodeId::new(1));
/// g.add_link(NodeId::new(1), NodeId::new(2));
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// assert!(g.is_connected());
/// assert_eq!(g.bfs_distances(NodeId::new(0))[2], Some(2));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Graph {
    adjacency: Vec<Vec<NodeId>>,
    links: Vec<Link>,
}

impl Graph {
    /// Creates a graph with `n` isolated nodes.
    pub fn with_nodes(n: usize) -> Self {
        Graph {
            adjacency: vec![Vec::new(); n],
            links: Vec::new(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.adjacency.len() as u32).map(NodeId::new)
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Appends an isolated node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.adjacency.len() as u32);
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds an undirected link. Returns `true` if the link was new.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, or on a self-loop.
    pub fn add_link(&mut self, a: NodeId, b: NodeId) -> bool {
        assert!(
            a.index() < self.node_count() && b.index() < self.node_count(),
            "link endpoint out of range: {a}-{b} in a {}-node graph",
            self.node_count()
        );
        let link = Link::new(a, b);
        if self.has_link(a, b) {
            return false;
        }
        self.adjacency[a.index()].push(b);
        self.adjacency[b.index()].push(a);
        self.links.push(link);
        true
    }

    /// Whether an `a`–`b` link exists.
    pub fn has_link(&self, a: NodeId, b: NodeId) -> bool {
        self.adjacency
            .get(a.index())
            .is_some_and(|adj| adj.contains(&b))
    }

    /// Neighbours of `n`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `n` is out of range.
    pub fn neighbors(&self, n: NodeId) -> &[NodeId] {
        &self.adjacency[n.index()]
    }

    /// Degree of `n`.
    pub fn degree(&self, n: NodeId) -> usize {
        self.adjacency[n.index()].len()
    }

    /// Breadth-first hop distances from `source`; `None` for unreachable
    /// nodes.
    pub fn bfs_distances(&self, source: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.node_count()];
        let mut queue = VecDeque::new();
        dist[source.index()] = Some(0);
        queue.push_back(source);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].expect("queued nodes have distances");
            for &v in self.neighbors(u) {
                if dist[v.index()].is_none() {
                    dist[v.index()] = Some(du + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Whether every node is reachable from every other (true for the
    /// empty graph and single nodes).
    pub fn is_connected(&self) -> bool {
        match self.nodes().next() {
            None => true,
            Some(first) => self.bfs_distances(first).iter().all(|d| d.is_some()),
        }
    }

    /// Degree histogram: `hist[d]` = number of nodes with degree `d`.
    pub fn degree_histogram(&self) -> Vec<usize> {
        let max = self.nodes().map(|n| self.degree(n)).max().unwrap_or(0);
        let mut hist = vec![0usize; max + 1];
        for n in self.nodes() {
            hist[self.degree(n)] += 1;
        }
        hist
    }

    /// Maximum over nodes of the BFS distance from `source` (graph
    /// eccentricity of `source`); `None` if some node is unreachable.
    pub fn eccentricity(&self, source: NodeId) -> Option<usize> {
        let d = self.bfs_distances(source);
        d.iter()
            .copied()
            .collect::<Option<Vec<_>>>()?
            .into_iter()
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn link_normalises_endpoints() {
        let l = Link::new(n(5), n(2));
        assert_eq!(l.a(), n(2));
        assert_eq!(l.b(), n(5));
        assert_eq!(l, Link::new(n(2), n(5)));
        assert!(l.touches(n(5)));
        assert_eq!(l.other(n(2)), Some(n(5)));
        assert_eq!(l.other(n(9)), None);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        Link::new(n(1), n(1));
    }

    #[test]
    fn add_link_is_idempotent() {
        let mut g = Graph::with_nodes(3);
        assert!(g.add_link(n(0), n(1)));
        assert!(!g.add_link(n(1), n(0)), "duplicate in reverse order");
        assert_eq!(g.link_count(), 1);
        assert_eq!(g.degree(n(0)), 1);
    }

    #[test]
    fn bfs_on_path_graph() {
        let mut g = Graph::with_nodes(4);
        g.add_link(n(0), n(1));
        g.add_link(n(1), n(2));
        g.add_link(n(2), n(3));
        let d = g.bfs_distances(n(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
        assert_eq!(g.eccentricity(n(0)), Some(3));
        assert_eq!(g.eccentricity(n(1)), Some(2));
    }

    #[test]
    fn disconnected_graph_detected() {
        let mut g = Graph::with_nodes(4);
        g.add_link(n(0), n(1));
        g.add_link(n(2), n(3));
        assert!(!g.is_connected());
        assert_eq!(g.bfs_distances(n(0))[2], None);
        assert_eq!(g.eccentricity(n(0)), None);
    }

    #[test]
    fn empty_and_singleton_connected() {
        assert!(Graph::with_nodes(0).is_connected());
        assert!(Graph::with_nodes(1).is_connected());
    }

    #[test]
    fn degree_histogram_counts() {
        let mut g = Graph::with_nodes(4); // star around 0
        g.add_link(n(0), n(1));
        g.add_link(n(0), n(2));
        g.add_link(n(0), n(3));
        assert_eq!(g.degree_histogram(), vec![0, 3, 0, 1]);
    }

    #[test]
    fn add_node_extends_graph() {
        let mut g = Graph::with_nodes(1);
        let added = g.add_node();
        assert_eq!(added, n(1));
        g.add_link(n(0), added);
        assert!(g.is_connected());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_link_panics() {
        let mut g = Graph::with_nodes(2);
        g.add_link(n(0), n(7));
    }
}
