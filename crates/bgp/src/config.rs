//! Simulation configuration.

use std::fmt;

use rfd_core::DampingParams;
use rfd_sim::{DetRng, SimDuration};

use crate::policy::Policy;

/// How damping is deployed across the network.
#[derive(Debug, Clone, Default)]
pub enum DampingDeployment {
    /// No router damps (the "No Damping" baseline).
    #[default]
    Off,
    /// Every router damps with the same parameters ("Full Damping").
    Full(DampingParams),
    /// Each router damps independently with probability `fraction`
    /// (partial-deployment extension from the authors' tech report).
    Partial {
        /// Shared parameters for the deploying routers.
        params: DampingParams,
        /// Fraction of routers that deploy damping, in `[0, 1]`.
        fraction: f64,
    },
    /// Explicit per-node parameters (`None` = no damping at that node);
    /// drives the heterogeneous-parameter experiments of §6.
    PerNode(Vec<Option<DampingParams>>),
}

impl DampingDeployment {
    /// Resolves the deployment into one entry per node.
    ///
    /// # Panics
    ///
    /// Panics if a `PerNode` vector length mismatches `nodes`, or a
    /// `Partial` fraction is outside `[0, 1]`.
    pub fn resolve(&self, nodes: usize, rng: &mut DetRng) -> Vec<Option<DampingParams>> {
        match self {
            DampingDeployment::Off => vec![None; nodes],
            DampingDeployment::Full(p) => vec![Some(*p); nodes],
            DampingDeployment::Partial { params, fraction } => {
                assert!(
                    (0.0..=1.0).contains(fraction),
                    "deployment fraction {fraction} outside [0, 1]"
                );
                (0..nodes)
                    .map(|_| rng.chance(*fraction).then_some(*params))
                    .collect()
            }
            DampingDeployment::PerNode(v) => {
                assert_eq!(
                    v.len(),
                    nodes,
                    "per-node damping vector length {} != node count {nodes}",
                    v.len()
                );
                v.clone()
            }
        }
    }

    /// True if at least one router can damp under this deployment.
    pub fn any_enabled(&self) -> bool {
        match self {
            DampingDeployment::Off => false,
            DampingDeployment::Full(_) => true,
            DampingDeployment::Partial { fraction, .. } => *fraction > 0.0,
            DampingDeployment::PerNode(v) => v.iter().any(Option::is_some),
        }
    }
}

/// Protocol-behaviour knobs that real BGP implementations expose;
/// defaults match SSFNet/the paper's setup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolOptions {
    /// Rate-limit withdrawals through the MRAI like announcements
    /// (the "WRATE" option debated in RFC 4271; SSFNet defaults to
    /// off, and so does the paper's setup).
    pub withdrawal_pacing: bool,
    /// Do not advertise a route to a peer that appears in its AS path
    /// (it would reject it anyway). Disabling reproduces plain BGP-4,
    /// where such updates are sent, counted, and — under RFC 2439 —
    /// *charged* at the receiver.
    pub sender_side_loop_avoidance: bool,
    /// Quantise reuse-timer deadlines up to multiples of this tick
    /// (RFC 2439 §4.8.7 reuse-list style); `None` = exact timers.
    pub reuse_granularity: Option<SimDuration>,
}

impl Default for ProtocolOptions {
    fn default() -> Self {
        ProtocolOptions {
            withdrawal_pacing: false,
            sender_side_loop_avoidance: true,
            reuse_granularity: None,
        }
    }
}

/// Which penalty filter sits in front of the dampers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PenaltyFilter {
    /// Plain RFC 2439: every update charges.
    #[default]
    Plain,
    /// RCN-enhanced damping (§6): charge once per root cause.
    Rcn,
    /// Simplified selective damping (Mao et al.): skip degrading
    /// announcements.
    Selective,
}

/// Error from [`NetworkConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid network configuration: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Full configuration of a simulated network.
#[derive(Debug, Clone)]
pub struct NetworkConfig {
    /// Master seed; everything stochastic derives from it.
    pub seed: u64,
    /// Damping deployment.
    pub damping: DampingDeployment,
    /// Penalty filter (plain / RCN / selective).
    pub filter: PenaltyFilter,
    /// Routing policy.
    pub policy: Policy,
    /// Base minimum route advertisement interval (announcement pacing).
    /// SSFNet's default of 30 seconds.
    pub mrai: SimDuration,
    /// MRAI jitter range as multiplicative factors (Cisco-style
    /// `[0.75, 1.0]`).
    pub mrai_jitter: (f64, f64),
    /// Per-message delivery delay range (propagation + processing).
    pub delay_range: (SimDuration, SimDuration),
    /// Protocol-behaviour knobs (WRATE, loop avoidance, reuse
    /// quantisation).
    pub protocol: ProtocolOptions,
    /// Safety horizon for a run (simulated seconds after which the run
    /// is cut off).
    pub horizon: SimDuration,
    /// Ignored: the simulator runs one event queue. Kept only because
    /// the perf ledger still assigns it, until a `[benchmark]` PR
    /// (ROADMAP item 1(b)) drops that line and then this field; keeping
    /// it also keeps snapshot fingerprints, which hash this struct's
    /// `Debug` rendering, unchanged.
    pub sim_shards: usize,
}

impl Default for NetworkConfig {
    fn default() -> Self {
        NetworkConfig {
            seed: 1,
            damping: DampingDeployment::Off,
            filter: PenaltyFilter::Plain,
            policy: Policy::ShortestPath,
            mrai: SimDuration::from_secs(30),
            mrai_jitter: (0.75, 1.0),
            delay_range: (SimDuration::from_millis(10), SimDuration::from_millis(500)),
            protocol: ProtocolOptions::default(),
            horizon: SimDuration::from_secs(100_000),
            sim_shards: 1,
        }
    }
}

impl NetworkConfig {
    /// The paper's headline configuration: full damping with Cisco
    /// defaults, plain filter, shortest-path policy.
    pub fn paper_full_damping(seed: u64) -> Self {
        NetworkConfig {
            seed,
            damping: DampingDeployment::Full(DampingParams::cisco()),
            ..NetworkConfig::default()
        }
    }

    /// The "No Damping" baseline.
    pub fn paper_no_damping(seed: u64) -> Self {
        NetworkConfig {
            seed,
            ..NetworkConfig::default()
        }
    }

    /// RCN-enhanced damping (§6).
    pub fn paper_rcn_damping(seed: u64) -> Self {
        NetworkConfig {
            seed,
            damping: DampingDeployment::Full(DampingParams::cisco()),
            filter: PenaltyFilter::Rcn,
            ..NetworkConfig::default()
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on inverted ranges, a non-plain filter
    /// without damping, or invalid damping parameters.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let (jlo, jhi) = self.mrai_jitter;
        if !(jlo.is_finite() && jhi.is_finite() && 0.0 < jlo && jlo <= jhi) {
            return Err(ConfigError(format!(
                "mrai_jitter must satisfy 0 < lo <= hi, got ({jlo}, {jhi})"
            )));
        }
        if self.delay_range.0 > self.delay_range.1 {
            return Err(ConfigError("delay_range inverted".into()));
        }
        if self.delay_range.0.is_zero() {
            return Err(ConfigError(
                "minimum delay must be positive (zero-delay loops)".into(),
            ));
        }
        if let Some(g) = self.protocol.reuse_granularity {
            if g.is_zero() {
                return Err(ConfigError(
                    "reuse_granularity must be positive when set".into(),
                ));
            }
        }
        if self.filter != PenaltyFilter::Plain && !self.damping.any_enabled() {
            return Err(ConfigError(
                "an RCN/selective filter requires damping to be deployed".into(),
            ));
        }
        let check = |p: &DampingParams| p.validate().map_err(|e| ConfigError(e.to_string()));
        match &self.damping {
            DampingDeployment::Off => {}
            DampingDeployment::Full(p) => check(p)?,
            DampingDeployment::Partial { params, fraction } => {
                check(params)?;
                if !(0.0..=1.0).contains(fraction) {
                    return Err(ConfigError(format!(
                        "deployment fraction {fraction} outside [0, 1]"
                    )));
                }
            }
            DampingDeployment::PerNode(v) => {
                for p in v.iter().flatten() {
                    check(p)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        NetworkConfig::paper_full_damping(1).validate().unwrap();
        NetworkConfig::paper_no_damping(1).validate().unwrap();
        NetworkConfig::paper_rcn_damping(1).validate().unwrap();
    }

    #[test]
    fn filter_without_damping_rejected() {
        let cfg = NetworkConfig {
            filter: PenaltyFilter::Rcn,
            ..NetworkConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn inverted_ranges_rejected() {
        let cfg = NetworkConfig {
            mrai_jitter: (1.0, 0.5),
            ..NetworkConfig::paper_full_damping(1)
        };
        assert!(cfg.validate().is_err());
        let cfg = NetworkConfig {
            delay_range: (SimDuration::from_secs(2), SimDuration::from_secs(1)),
            ..NetworkConfig::paper_full_damping(1)
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn zero_delay_rejected() {
        let cfg = NetworkConfig {
            delay_range: (SimDuration::ZERO, SimDuration::from_secs(1)),
            ..NetworkConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn deployment_resolution() {
        let mut rng = DetRng::from_seed(1);
        let off = DampingDeployment::Off.resolve(4, &mut rng);
        assert!(off.iter().all(Option::is_none));
        assert!(!DampingDeployment::Off.any_enabled());

        let full = DampingDeployment::Full(DampingParams::cisco()).resolve(4, &mut rng);
        assert!(full.iter().all(Option::is_some));

        let partial = DampingDeployment::Partial {
            params: DampingParams::cisco(),
            fraction: 0.5,
        };
        let resolved = partial.resolve(1000, &mut rng);
        let enabled = resolved.iter().filter(|o| o.is_some()).count();
        assert!((300..700).contains(&enabled), "got {enabled}");
        assert!(partial.any_enabled());
    }

    #[test]
    fn partial_resolution_is_deterministic() {
        let d = DampingDeployment::Partial {
            params: DampingParams::cisco(),
            fraction: 0.3,
        };
        let a = d.resolve(100, &mut DetRng::from_seed(9));
        let b = d.resolve(100, &mut DetRng::from_seed(9));
        assert_eq!(
            a.iter().map(Option::is_some).collect::<Vec<_>>(),
            b.iter().map(Option::is_some).collect::<Vec<_>>()
        );
    }

    #[test]
    #[should_panic(expected = "length")]
    fn per_node_length_mismatch_panics() {
        let mut rng = DetRng::from_seed(1);
        DampingDeployment::PerNode(vec![None; 3]).resolve(5, &mut rng);
    }
}
