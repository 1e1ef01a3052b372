//! # rfd-topology — network topologies for the damping experiments
//!
//! Graphs, generators and AS-relationship labellings used by the
//! reproduction of *Timer Interaction in Route Flap Damping*:
//!
//! * [`Graph`], [`NodeId`], [`Link`] — the base undirected graph;
//! * [`mesh_torus`] — the paper's mesh (10×10 torus = 100 nodes,
//!   200 links, all nodes topologically equal);
//! * [`internet_like`] — preferential-attachment stand-in for the
//!   Internet-derived AS graph (long-tailed degree distribution);
//! * [`ring`], [`line`](fn@line), [`clique`], [`star`], [`erdos_renyi_connected`]
//!   — micro-topology gallery for tests and scenarios;
//! * [`Relationships`] — customer/provider/peer labels for the
//!   no-valley policy experiment (§7);
//! * [`to_edge_list`] — the plain-text edge list `rfd topology` prints.
//!
//! # Examples
//!
//! ```
//! use rfd_topology::{mesh_torus, NodeId, Relationships};
//!
//! let mesh = mesh_torus(10, 10);
//! assert_eq!((mesh.node_count(), mesh.link_count()), (100, 200));
//!
//! // the torus wraps: node 0 neighbours node 9 across the edge
//! assert!(mesh.has_link(NodeId::new(0), NodeId::new(9)));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod generators;
mod graph;
mod io;
mod partition;
mod relationships;

pub use generators::{clique, erdos_renyi_connected, internet_like, line, mesh_torus, ring, star};
pub use graph::{Graph, Link, NodeId};
pub use io::to_edge_list;
pub use partition::{partition, Partition};
pub use relationships::{Relationship, Relationships};
