//! Plain-text edge-list serialisation.
//!
//! Format: first line `nodes <n>`, then one `a b` pair per line
//! (whitespace-separated node indices). Lines starting with `#` are
//! comments. `rfd topology` writes this format. No command reads one:
//! [`parse_edge_list`] serves round-trip tests and library callers.

use std::fmt::Write as _;
use std::num::ParseIntError;

use crate::graph::{Graph, NodeId};

/// Error from [`parse_edge_list`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseGraphError {
    /// The `nodes <n>` header line is missing or malformed.
    MissingHeader,
    /// The header declares more nodes than a [`NodeId`] can address
    /// (more than `u32::MAX`) or than this process can allocate.
    TooManyNodes {
        /// The declared node count.
        nodes: usize,
    },
    /// A line did not contain exactly two node indices.
    MalformedLine {
        /// 1-based line number.
        line: usize,
    },
    /// An index failed to parse or was out of range.
    BadIndex {
        /// 1-based line number.
        line: usize,
    },
}

impl std::fmt::Display for ParseGraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseGraphError::MissingHeader => write!(f, "missing `nodes <n>` header"),
            ParseGraphError::TooManyNodes { nodes } => write!(
                f,
                "`nodes {nodes}` is more nodes than can be addressed (at most {}) or allocated",
                u32::MAX
            ),
            ParseGraphError::MalformedLine { line } => {
                write!(f, "line {line}: expected two node indices")
            }
            ParseGraphError::BadIndex { line } => {
                write!(f, "line {line}: invalid or out-of-range node index")
            }
        }
    }
}

impl std::error::Error for ParseGraphError {}

impl From<(usize, ParseIntError)> for ParseGraphError {
    fn from((line, _): (usize, ParseIntError)) -> Self {
        ParseGraphError::BadIndex { line }
    }
}

/// Serialises a graph to the edge-list format.
///
/// # Examples
///
/// ```
/// use rfd_topology::{line, parse_edge_list, to_edge_list};
///
/// let g = line(3);
/// let text = to_edge_list(&g);
/// let back = parse_edge_list(&text)?;
/// assert_eq!(g, back);
/// # Ok::<(), rfd_topology::ParseGraphError>(())
/// ```
pub fn to_edge_list(graph: &Graph) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "nodes {}", graph.node_count());
    for link in graph.links() {
        let _ = writeln!(out, "{} {}", link.a().raw(), link.b().raw());
    }
    out
}

/// Parses the edge-list format produced by [`to_edge_list`].
///
/// # Errors
///
/// Returns [`ParseGraphError`] on a missing header, a node count that
/// cannot be addressed or allocated, a malformed line, or an
/// out-of-range index.
pub fn parse_edge_list(text: &str) -> Result<Graph, ParseGraphError> {
    let mut graph: Option<Graph> = None;
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match &mut graph {
            None => {
                let n = line
                    .strip_prefix("nodes")
                    .map(str::trim)
                    .ok_or(ParseGraphError::MissingHeader)?
                    .parse::<usize>()
                    .map_err(|_| ParseGraphError::MissingHeader)?;
                let too_many = ParseGraphError::TooManyNodes { nodes: n };
                if n > u32::MAX as usize {
                    return Err(too_many);
                }
                graph = Some(Graph::try_with_nodes(n).map_err(|_| too_many)?);
            }
            Some(g) => {
                let mut parts = line.split_whitespace();
                let (Some(a), Some(b), None) = (parts.next(), parts.next(), parts.next()) else {
                    return Err(ParseGraphError::MalformedLine { line: line_no });
                };
                let a: u32 = a.parse().map_err(|e| (line_no, e))?;
                let b: u32 = b.parse().map_err(|e| (line_no, e))?;
                if a as usize >= g.node_count() || b as usize >= g.node_count() || a == b {
                    return Err(ParseGraphError::BadIndex { line: line_no });
                }
                g.add_link(NodeId::new(a), NodeId::new(b));
            }
        }
    }
    graph.ok_or(ParseGraphError::MissingHeader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{internet_like, mesh_torus};

    #[test]
    fn round_trip_mesh() {
        let g = mesh_torus(4, 4);
        let parsed = parse_edge_list(&to_edge_list(&g)).unwrap();
        assert_eq!(g, parsed);
    }

    #[test]
    fn round_trip_internet() {
        let g = internet_like(40, 2, 13);
        let parsed = parse_edge_list(&to_edge_list(&g)).unwrap();
        assert_eq!(g, parsed);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# a comment\n\nnodes 3\n0 1\n# another\n1 2\n";
        let g = parse_edge_list(text).unwrap();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 2);
    }

    #[test]
    fn missing_header_rejected() {
        assert_eq!(
            parse_edge_list("0 1\n"),
            Err(ParseGraphError::MissingHeader)
        );
        assert_eq!(parse_edge_list(""), Err(ParseGraphError::MissingHeader));
    }

    #[test]
    fn malformed_line_rejected() {
        assert_eq!(
            parse_edge_list("nodes 3\n0 1 2\n"),
            Err(ParseGraphError::MalformedLine { line: 2 })
        );
        assert_eq!(
            parse_edge_list("nodes 3\n0\n"),
            Err(ParseGraphError::MalformedLine { line: 2 })
        );
    }

    #[test]
    fn bad_index_rejected() {
        assert_eq!(
            parse_edge_list("nodes 2\n0 5\n"),
            Err(ParseGraphError::BadIndex { line: 2 })
        );
        assert_eq!(
            parse_edge_list("nodes 2\n1 1\n"),
            Err(ParseGraphError::BadIndex { line: 2 })
        );
        assert_eq!(
            parse_edge_list("nodes 2\n0 x\n"),
            Err(ParseGraphError::BadIndex { line: 2 })
        );
    }

    /// A count no `NodeId` can address is refused before anything is
    /// allocated for it.
    #[test]
    fn unaddressable_node_counts_rejected() {
        for nodes in [u64::MAX, u64::from(u32::MAX) + 1] {
            assert_eq!(
                parse_edge_list(&format!("nodes {nodes}")),
                Err(ParseGraphError::TooManyNodes {
                    nodes: nodes as usize
                })
            );
        }
    }

    #[test]
    fn error_messages_are_informative() {
        let e = ParseGraphError::MalformedLine { line: 7 };
        assert!(e.to_string().contains("line 7"));
    }
}
