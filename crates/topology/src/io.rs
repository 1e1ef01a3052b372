//! Plain-text edge-list serialisation.
//!
//! Format: first line `nodes <n>`, then one `a b` pair per line
//! (whitespace-separated node indices, in link insertion order).
//! `rfd topology` writes this format; nothing in the workspace reads it.

use std::fmt::Write as _;

use crate::graph::Graph;

/// Serialises a graph to the edge-list format.
///
/// # Examples
///
/// ```
/// use rfd_topology::{line, to_edge_list};
///
/// assert_eq!(to_edge_list(&line(3)), "nodes 3\n0 1\n1 2\n");
/// ```
pub fn to_edge_list(graph: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "nodes {}", graph.node_count());
    for link in graph.links() {
        let _ = writeln!(out, "{} {}", link.a().raw(), link.b().raw());
    }
    out
}
