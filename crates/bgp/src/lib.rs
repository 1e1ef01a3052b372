//! # rfd-bgp — the BGP-4 protocol model
//!
//! A path-vector protocol implementation in the style of the SSFNet BGP
//! model the paper simulated with, bound to the [`rfd_sim`] event
//! engine:
//!
//! * [`UpdateMessage`] / [`Route`] — announcements, withdrawals, AS
//!   paths, and the optional RCN / selective-damping attributes;
//! * [`Router`] — RIB-IN / Local-RIB / RIB-OUT, the decision process,
//!   per-peer MRAI pacing, damping with pluggable penalty filters and
//!   reuse timers;
//! * [`Policy`] — shortest-path and no-valley (Gao–Rexford) routing;
//! * [`Network`] — the Figure 1 experiment harness: a topology plus an
//!   origin AS attached to a chosen ISP AS, warm-up, injection of
//!   [`rfd_core::FlapPattern`] pulse trains on origin or interior
//!   links, and trace capture.
//!
//! # Examples
//!
//! Run one pulse over a small mesh with full Cisco-default damping:
//!
//! ```
//! use rfd_bgp::{Network, NetworkConfig};
//! use rfd_topology::{mesh_torus, NodeId};
//!
//! let mesh = mesh_torus(3, 3);
//! let mut net = Network::new(&mesh, NodeId::new(4), NetworkConfig::paper_full_damping(42));
//! let report = net.run_paper_workload(1);
//! assert!(report.message_count > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod config;
mod intern;
mod message;
mod network;
mod policy;
mod rib;
mod router;

pub use config::{ConfigError, DampingDeployment, NetworkConfig, PenaltyFilter, ProtocolOptions};
pub use intern::{InternStats, PathId, PathTable, Route};
pub use message::{Prefix, UpdateMessage, UpdatePayload};
pub use network::snapshot::{self, Snapshot, SnapshotError, SnapshotKey};
pub use network::{
    NetEvent, Network, OriginAttachment, PulseChain, RunReport, EVENT_BUDGET, LEAD_IN,
};
pub use policy::Policy;
pub use rib::{BestRoute, RibInEntry};
pub use router::{Router, RouterConfig, RouterOutput};
