//! # route-flap-damping — reproduction of *Timer Interaction in Route
//! Flap Damping* (ICDCS 2005)
//!
//! This crate is the façade over the workspace that reproduces Zhang,
//! Pei, Massey & Zhang's study of BGP route flap damping: the RFC 2439
//! damping algorithm, the previously-unknown reuse-timer interactions
//! (*secondary charging* and *muffling*) that distort its behaviour in a
//! network, and the Root-Cause-Notification fix that restores the
//! intended behaviour.
//!
//! The member crates, re-exported here as modules:
//!
//! * [`sim`] — deterministic discrete-event engine (SSFNet-core
//!   substitute);
//! * [`damping`] — RFC 2439 damping, the RCN and selective filters, the
//!   paper's pulse workload (`FlapPattern`) and the §3
//!   intended-behaviour model;
//! * [`topology`] — torus meshes, Internet-like graphs, AS
//!   relationships;
//! * [`bgp`] — the path-vector protocol, routers, policies and the
//!   network harness;
//! * [`metrics`] — traces, update series, damped-link counts, the
//!   four-state classifier;
//! * [`runner`] — deterministic parallel job-grid execution with
//!   journaling and resume;
//! * [`firehose`] — sharded route-update ingest harness: synthetic
//!   firehose workloads, partitioned damping state, throughput and
//!   decision-latency measurement with a shard-count-invariant
//!   aggregate report;
//! * [`obs`] — std-only observability: spans, counters, histograms
//!   and Chrome-trace export (off unless enabled);
//! * [`experiments`] — one entry point per table/figure of the paper.
//!
//! # Quickstart
//!
//! Flap a route three times against a mesh with Cisco-default damping
//! and watch convergence get dominated by reuse timers:
//!
//! ```
//! use route_flap_damping::bgp::{Network, NetworkConfig};
//! use route_flap_damping::topology::{mesh_torus, NodeId};
//!
//! let mesh = mesh_torus(5, 5);
//! let mut net = Network::new(&mesh, NodeId::new(12), NetworkConfig::paper_full_damping(7));
//! let report = net.run_paper_workload(3);
//! // Three pulses trip the Cisco cut-off: convergence is dominated by
//! // reuse timers, not by propagation.
//! assert!(report.convergence_time.as_secs_f64() > 600.0);
//! ```
//!
//! The `rfd` binary runs every scenario: `rfd run` and `rfd explain`
//! ([`cli`], [`explain`]) for one workload, and `rfd figure NAME` and
//! `rfd sweep --figure` ([`figure`]) for the paper's evaluation
//! artefacts.

#![warn(missing_docs)]

pub mod cli;
pub mod explain;
pub mod figure;

pub use rfd_bgp as bgp;
pub use rfd_core as damping;
pub use rfd_experiments as experiments;
pub use rfd_firehose as firehose;
pub use rfd_metrics as metrics;
pub use rfd_obs as obs;
pub use rfd_runner as runner;
pub use rfd_sim as sim;
pub use rfd_topology as topology;
