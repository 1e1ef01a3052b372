//! Synthetic route-update workloads: N concurrent peer-session streams
//! merged into one globally time-ordered firehose.
//!
//! Each peer session draws from its own [`DetRng`] stream (derived from
//! the master seed and the peer's label), so the update sequence a
//! session emits depends only on the seed — never on how many shards
//! consume it or how fast they drain. The generator performs a k-way
//! heap merge over the sessions, yielding updates in global `(time,
//! peer)` order; restricted to any single (peer, prefix) key, the
//! sequence is therefore identical for every shard count, which is the
//! foundation of the engine's determinism contract.
//!
//! Two workload shapes (Papadimitriou & Cabellos motivate sustained,
//! messy churn rather than clean pulse trains):
//!
//! * [`WorkloadKind::Poisson`] — every session emits a homogeneous
//!   Poisson stream over uniformly chosen prefixes with a fixed update
//!   kind mix; the steady "background churn" of a busy session.
//! * [`WorkloadKind::FlapStorm`] — sessions alternate between
//!   heavy-tailed idle gaps and concentrated storms: a Pareto-length
//!   burst of alternating withdraw/re-announce updates against a single
//!   prefix. Storms drive entries deep into suppression; the long key
//!   quiet times afterwards exercise reuse release and forgotten-state
//!   eviction.

use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

use rfd_core::UpdateKind;
use rfd_sim::{DetRng, SimDuration, SimTime};

/// One route update on the firehose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Update {
    /// Simulated arrival instant.
    pub at: SimTime,
    /// Originating peer session.
    pub peer: u32,
    /// Affected prefix.
    pub prefix: u32,
    /// How the update relates to the previously held route.
    pub kind: UpdateKind,
}

impl Update {
    /// The (peer, prefix) damping-state key, packed into a `u64`.
    pub fn key(&self) -> u64 {
        pack_key(self.peer, self.prefix)
    }
}

/// Packs a (peer, prefix) pair into the canonical `u64` state key.
pub fn pack_key(peer: u32, prefix: u32) -> u64 {
    (u64::from(peer) << 32) | u64::from(prefix)
}

/// FNV-1a hash of a state key; the engine routes `hash % shards`.
#[inline]
pub fn shard_hash(key: u64) -> u64 {
    rfd_snap::fnv1a(&key.to_le_bytes())
}

/// The statistical shape of the generated firehose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Homogeneous Poisson churn over uniform prefixes.
    Poisson,
    /// Heavy-tailed flap storms against single prefixes, separated by
    /// Pareto-distributed idle gaps.
    FlapStorm,
}

impl WorkloadKind {
    /// Parses a CLI workload name.
    ///
    /// # Errors
    ///
    /// Returns the offending string on unknown names.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "poisson" => Ok(WorkloadKind::Poisson),
            "flap-storm" => Ok(WorkloadKind::FlapStorm),
            other => Err(format!("unknown workload `{other}` (poisson|flap-storm)")),
        }
    }

    /// The CLI name of the workload.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::Poisson => "poisson",
            WorkloadKind::FlapStorm => "flap-storm",
        }
    }
}

/// Everything the generator needs to synthesise a firehose.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    /// Number of concurrent peer sessions.
    pub peers: u32,
    /// Prefix universe per session.
    pub prefixes: u32,
    /// Target aggregate update rate, in updates per *simulated* second.
    pub rate: f64,
    /// Simulated span the firehose covers.
    pub duration: SimDuration,
    /// Statistical shape.
    pub kind: WorkloadKind,
    /// Master seed; every session derives its own stream from it.
    pub seed: u64,
}

impl WorkloadSpec {
    /// Checks the spec is generatable.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on empty dimensions or
    /// non-positive rate/duration.
    pub fn validate(&self) -> Result<(), String> {
        if self.peers == 0 {
            return Err("peers must be at least 1".into());
        }
        if self.prefixes == 0 {
            return Err("prefixes must be at least 1".into());
        }
        if !(self.rate.is_finite() && self.rate > 0.0) {
            return Err(format!("rate must be positive, got {}", self.rate));
        }
        if self.duration.is_zero() {
            return Err("duration must be positive".into());
        }
        Ok(())
    }
}

/// Mean flap-storm burst length (updates); the Pareto tail stretches
/// far beyond it.
const STORM_MIN_LEN: f64 = 4.0;
/// Pareto shape for storm lengths and idle gaps; 1.5 keeps a finite
/// mean with a heavy tail.
const PARETO_ALPHA: f64 = 1.5;
/// In-storm update spacing bounds (seconds).
const STORM_GAP_SECS: (f64, f64) = (0.5, 3.0);
/// Floor on the idle gap between a session's storms (seconds).
const IDLE_MIN_SECS: f64 = 30.0;

/// Pareto draw with minimum `x_min` and shape [`PARETO_ALPHA`].
fn pareto(rng: &mut DetRng, x_min: f64) -> f64 {
    // Inverse CDF: x_min · (1 − u)^(−1/α); u < 1 so the result is finite.
    x_min * (1.0 - rng.next_f64()).powf(-1.0 / PARETO_ALPHA)
}

/// Exponential inter-arrival draw for a Poisson process of rate `rate`.
fn exponential(rng: &mut DetRng, rate: f64) -> f64 {
    -(1.0 - rng.next_f64()).ln() / rate
}

#[derive(Debug)]
enum SessionState {
    Poisson,
    /// Mid-storm against `prefix`: `remaining` updates left, next one a
    /// withdrawal iff `withdraw`.
    Storm {
        prefix: u32,
        remaining: u32,
        withdraw: bool,
    },
}

/// One peer's update stream.
#[derive(Debug)]
struct PeerSession {
    peer: u32,
    rng: DetRng,
    next_at: SimTime,
    state: SessionState,
    prefixes: u32,
    /// Per-session target rate (updates per simulated second).
    rate: f64,
}

impl PeerSession {
    fn new(spec: &WorkloadSpec, peer: u32) -> Self {
        let rng = DetRng::from_seed_and_label(spec.seed, &format!("firehose.peer[{peer}]"));
        let mut session = PeerSession {
            peer,
            rng,
            next_at: SimTime::ZERO,
            state: SessionState::Poisson,
            prefixes: spec.prefixes,
            rate: spec.rate / f64::from(spec.peers),
        };
        match spec.kind {
            WorkloadKind::Poisson => {
                let gap = exponential(&mut session.rng, session.rate);
                session.next_at = SimTime::from_secs_f64(gap);
            }
            WorkloadKind::FlapStorm => {
                // Start idle so sessions desynchronise before their
                // first storm.
                let gap = session.idle_gap();
                session.begin_storm();
                session.next_at = SimTime::from_secs_f64(gap);
            }
        }
        session
    }

    /// Idle gap sized so the session's long-run rate tracks `rate`:
    /// cycle length = mean storm updates / rate, minus the storm span.
    fn idle_gap(&mut self) -> f64 {
        let mean_storm = STORM_MIN_LEN * PARETO_ALPHA / (PARETO_ALPHA - 1.0);
        let mean_storm_span = (mean_storm - 1.0) * (STORM_GAP_SECS.0 + STORM_GAP_SECS.1) / 2.0;
        let cycle = mean_storm / self.rate;
        let base = (cycle - mean_storm_span).max(IDLE_MIN_SECS);
        // Pareto around the base keeps the mean near it while giving
        // some sessions the very long quiet times that let suppressed
        // keys decay all the way to release and eviction.
        pareto(&mut self.rng, base * (PARETO_ALPHA - 1.0) / PARETO_ALPHA)
    }

    fn begin_storm(&mut self) {
        let len = pareto(&mut self.rng, STORM_MIN_LEN).min(400.0) as u32;
        let prefix = self.rng.below(self.prefixes as usize) as u32;
        self.state = SessionState::Storm {
            prefix,
            remaining: len.max(2),
            withdraw: true,
        };
    }

    /// Emits the update due at `next_at` and schedules the following one.
    fn emit(&mut self) -> Update {
        let at = self.next_at;
        match &mut self.state {
            SessionState::Poisson => {
                let prefix = self.rng.below(self.prefixes as usize) as u32;
                // Fixed churn mix: withdrawals dominate penalty, the
                // announcement kinds exercise the other charge paths.
                let kind = match self.rng.next_f64() {
                    p if p < 0.40 => UpdateKind::Withdrawal,
                    p if p < 0.75 => UpdateKind::ReAnnouncement,
                    p if p < 0.95 => UpdateKind::AttributeChange,
                    _ => UpdateKind::Duplicate,
                };
                let gap = exponential(&mut self.rng, self.rate);
                self.next_at = at + SimDuration::from_secs_f64(gap);
                Update {
                    at,
                    peer: self.peer,
                    prefix,
                    kind,
                }
            }
            SessionState::Storm {
                prefix,
                remaining,
                withdraw,
            } => {
                let update = Update {
                    at,
                    peer: self.peer,
                    prefix: *prefix,
                    kind: if *withdraw {
                        UpdateKind::Withdrawal
                    } else {
                        UpdateKind::ReAnnouncement
                    },
                };
                *withdraw = !*withdraw;
                *remaining -= 1;
                if *remaining == 0 {
                    let gap = self.idle_gap();
                    self.begin_storm();
                    self.next_at = at + SimDuration::from_secs_f64(gap);
                } else {
                    let gap = self.rng.uniform(STORM_GAP_SECS.0, STORM_GAP_SECS.1);
                    self.next_at = at + SimDuration::from_secs_f64(gap);
                }
                update
            }
        }
    }
}

/// The merged firehose: an iterator over all sessions' updates in
/// global `(time, peer)` order, ending at the spec's duration.
#[derive(Debug)]
pub struct Firehose {
    sessions: Vec<PeerSession>,
    // Min-heap on (next event time, peer id): peer ids are unique, so
    // the merge order is total and deterministic.
    heap: BinaryHeap<Reverse<(SimTime, u32)>>,
    end: SimTime,
}

impl Firehose {
    /// Builds the merged stream for a validated spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`] — callers
    /// validate at the configuration boundary.
    pub fn new(spec: &WorkloadSpec) -> Self {
        spec.validate().expect("workload spec validated upstream");
        let sessions: Vec<PeerSession> = (0..spec.peers)
            .map(|peer| PeerSession::new(spec, peer))
            .collect();
        let end = SimTime::ZERO + spec.duration;
        let heap = sessions
            .iter()
            .filter(|s| s.next_at <= end)
            .map(|s| Reverse((s.next_at, s.peer)))
            .collect();
        Firehose {
            sessions,
            heap,
            end,
        }
    }

    /// The simulated end of the stream.
    pub fn end(&self) -> SimTime {
        self.end
    }
}

impl Iterator for Firehose {
    type Item = Update;

    fn next(&mut self) -> Option<Update> {
        // Overwrite the top in place: one sift when the guard drops,
        // where pop-then-push would pay two.
        let mut top = self.heap.peek_mut()?;
        let peer = top.0 .1;
        let session = &mut self.sessions[peer as usize];
        let update = session.emit();
        if session.next_at <= self.end {
            *top = Reverse((session.next_at, peer));
        } else {
            PeekMut::pop(top);
        }
        Some(update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: WorkloadKind) -> WorkloadSpec {
        WorkloadSpec {
            peers: 4,
            prefixes: 16,
            rate: 20.0,
            duration: SimDuration::from_secs(600),
            kind,
            seed: 7,
        }
    }

    #[test]
    fn stream_is_time_ordered_and_bounded() {
        for kind in [WorkloadKind::Poisson, WorkloadKind::FlapStorm] {
            let hose = Firehose::new(&spec(kind));
            let end = hose.end();
            let mut last = SimTime::ZERO;
            let mut count = 0usize;
            for u in hose {
                assert!(u.at >= last, "{kind:?}: time went backwards");
                assert!(u.at <= end, "{kind:?}: update past the end");
                assert!(u.peer < 4 && u.prefix < 16);
                last = u.at;
                count += 1;
            }
            assert!(count > 100, "{kind:?}: only {count} updates");
        }
    }

    #[test]
    fn same_seed_same_stream() {
        for kind in [WorkloadKind::Poisson, WorkloadKind::FlapStorm] {
            let a: Vec<Update> = Firehose::new(&spec(kind)).collect();
            let b: Vec<Update> = Firehose::new(&spec(kind)).collect();
            assert_eq!(a, b, "{kind:?}");
        }
    }

    /// The merge as it was first written — pop the earliest session,
    /// push it back — kept as the reference `Firehose::next`'s in-place
    /// top replacement is pinned against.
    fn pop_push_merge(spec: &WorkloadSpec) -> Vec<Update> {
        let Firehose {
            mut sessions,
            mut heap,
            end,
        } = Firehose::new(spec);
        let mut out = Vec::new();
        while let Some(Reverse((_, peer))) = heap.pop() {
            let session = &mut sessions[peer as usize];
            out.push(session.emit());
            if session.next_at <= end {
                heap.push(Reverse((session.next_at, peer)));
            }
        }
        out
    }

    #[test]
    fn one_sift_merge_yields_the_pop_push_stream() {
        for kind in [WorkloadKind::Poisson, WorkloadKind::FlapStorm] {
            // The small spec, and one dense enough at µs resolution
            // that different peers collide on the same instant.
            let dense = match kind {
                WorkloadKind::Poisson => WorkloadSpec {
                    peers: 64,
                    rate: 100_000.0,
                    duration: SimDuration::from_millis(100),
                    ..spec(kind)
                },
                WorkloadKind::FlapStorm => WorkloadSpec {
                    peers: 1024,
                    rate: 1000.0,
                    duration: SimDuration::from_secs(400),
                    ..spec(kind)
                },
            };
            let mut ties = 0usize;
            for s in [spec(kind), dense] {
                let got: Vec<Update> = Firehose::new(&s).collect();
                assert_eq!(got, pop_push_merge(&s), "{kind:?}");
                ties += got
                    .windows(2)
                    .filter(|w| w[0].at == w[1].at && w[0].peer != w[1].peer)
                    .inspect(|w| assert!(w[0].peer < w[1].peer, "tie broken by peer id"))
                    .count();
            }
            assert!(
                ties > 0,
                "{kind:?}: the dense spec produced no equal-time tie"
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<Update> = Firehose::new(&spec(WorkloadKind::Poisson)).collect();
        let mut other = spec(WorkloadKind::Poisson);
        other.seed = 8;
        let b: Vec<Update> = Firehose::new(&other).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn poisson_rate_is_roughly_honoured() {
        let s = WorkloadSpec {
            rate: 50.0,
            duration: SimDuration::from_secs(2000),
            ..spec(WorkloadKind::Poisson)
        };
        let count = Firehose::new(&s).count() as f64;
        let expected = 50.0 * 2000.0;
        assert!(
            (count / expected - 1.0).abs() < 0.1,
            "got {count}, expected ~{expected}"
        );
    }

    #[test]
    fn storms_concentrate_on_single_prefixes() {
        // Within a storm the same key flaps withdraw/announce; verify a
        // session produces runs of identical (peer, prefix) pairs.
        let updates: Vec<Update> = Firehose::new(&spec(WorkloadKind::FlapStorm)).collect();
        let mut best_run = 0usize;
        let mut run = 0usize;
        let mut prev: Option<u64> = None;
        for u in updates.iter().filter(|u| u.peer == 0) {
            if prev == Some(u.key()) {
                run += 1;
            } else {
                run = 1;
                prev = Some(u.key());
            }
            best_run = best_run.max(run);
        }
        assert!(best_run >= 4, "longest same-key run {best_run}");
    }

    #[test]
    fn spec_validation_rejects_degenerate_inputs() {
        let ok = spec(WorkloadKind::Poisson);
        assert!(ok.validate().is_ok());
        assert!(WorkloadSpec { peers: 0, ..ok }.validate().is_err());
        assert!(WorkloadSpec { prefixes: 0, ..ok }.validate().is_err());
        assert!(WorkloadSpec { rate: 0.0, ..ok }.validate().is_err());
        assert!(WorkloadSpec {
            duration: SimDuration::ZERO,
            ..ok
        }
        .validate()
        .is_err());
    }

    #[test]
    fn workload_kind_parses() {
        assert_eq!(WorkloadKind::parse("poisson"), Ok(WorkloadKind::Poisson));
        assert_eq!(
            WorkloadKind::parse("flap-storm"),
            Ok(WorkloadKind::FlapStorm)
        );
        assert!(WorkloadKind::parse("tsunami").is_err());
        assert_eq!(WorkloadKind::FlapStorm.name(), "flap-storm");
    }

    #[test]
    fn key_packing_round_trips() {
        let k = pack_key(3, 0xdead_beef);
        assert_eq!(k >> 32, 3);
        assert_eq!(k & 0xffff_ffff, 0xdead_beef);
        // Distinct keys hash apart often enough to spread shards.
        let hashes: std::collections::HashSet<u64> =
            (0..64u32).map(|p| shard_hash(pack_key(1, p)) % 8).collect();
        assert!(hashes.len() > 1);
    }
}
