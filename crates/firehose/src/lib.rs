//! rfd-firehose: a sharded route-update ingest harness.
//!
//! The crates below this one answer *what does damping decide*; this
//! crate answers *how fast can a damping implementation decide it, and
//! does sharding the state change any answer*. It synthesises a
//! deterministic firehose of route updates ([`workload`]), partitions
//! the damping state across worker threads behind bounded queues
//! ([`queue`], [`shard`]), and measures sustained throughput and
//! per-decision latency while asserting a strong contract: the
//! aggregate decision report — suppressions, reuses, deferrals,
//! evictions, total nominal penalty — is *identical* for every shard
//! count on the same seed ([`engine`]).
//!
//! ```no_run
//! use rfd_firehose::{run, FirehoseConfig, WorkloadKind, WorkloadSpec};
//! use rfd_sim::SimDuration;
//!
//! let spec = WorkloadSpec {
//!     peers: 16,
//!     prefixes: 1024,
//!     rate: 200.0,
//!     duration: SimDuration::from_secs(3600),
//!     kind: WorkloadKind::FlapStorm,
//!     seed: 42,
//! };
//! let report = run(&FirehoseConfig::new(spec)).unwrap();
//! println!("{}", report.to_csv());
//! ```

#![warn(missing_docs)]

pub mod engine;
pub mod queue;
pub mod report;
pub mod shard;
pub mod telemetry;
pub mod workload;

pub use engine::{run, run_with_telemetry, FirehoseConfig};
pub use report::{Aggregate, FirehoseReport, ShardPerf};
pub use shard::{ShardOptions, ShardState};
pub use telemetry::{prometheus_exposition, ShardSnapshot};
pub use workload::{pack_key, shard_hash, Firehose, Update, WorkloadKind, WorkloadSpec};
