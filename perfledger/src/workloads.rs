//! The seven workloads. Each repetition has a set-up region and a
//! measured region; both are calls into the program's public functions,
//! timed from here. All inputs derive from the repetition's seed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rfd_bgp::{Network, NetworkConfig, RunReport};
use rfd_core::{FlapPattern, FlapSchedule};
use rfd_experiments::figures::fig8_9;
use rfd_experiments::{PulseSweep, SweepOptions, TopologyKind};
use rfd_firehose::{Firehose, FirehoseConfig, FirehoseReport, WorkloadKind, WorkloadSpec};
use rfd_metrics::{TraceSink, VecSink};
use rfd_sim::{DetRng, RunOutcome, SimDuration};
use rfd_topology::{internet_like, mesh_torus, Graph, NodeId};

use crate::span::Spans;
use crate::{alloc, procfs};

/// Every workload, in the order a full set runs them. Why each is here
/// is recorded in `BENCHMARK.json` and the README.
pub const NAMES: [&str; 7] = [
    "fig8_sweep",
    "torus40_damped",
    "ba10000_damped",
    "ba10000_shards2",
    "multi_prefix_256",
    "firehose_poisson",
    "firehose_storm",
];

/// Busy threads a workload may use: the sweep pool, or the sharded DES.
/// The firehose adds one producer to its one shard.
pub const THREADS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    /// The same workloads at a size a CI job can afford.
    Quick,
}

/// Cost of one timed region.
#[derive(Debug, Clone, Copy, Default)]
pub struct Region {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

pub struct Meter {
    cpu_s: f64,
    allocs: (u64, u64),
    started: Instant,
}

impl Meter {
    /// Reads the clocks innermost-last so the wall clock brackets only
    /// the measured calls.
    pub fn start() -> Meter {
        let cpu_s = procfs::cpu_seconds();
        let allocs = alloc::totals();
        Meter {
            cpu_s,
            allocs,
            started: Instant::now(),
        }
    }

    pub fn stop(self) -> Region {
        let wall_s = self.started.elapsed().as_secs_f64();
        let allocs = alloc::totals();
        Region {
            wall_s,
            cpu_s: procfs::cpu_seconds() - self.cpu_s,
            allocs: allocs.0 - self.allocs.0,
            alloc_bytes: allocs.1 - self.allocs.1,
        }
    }
}

/// Exact simulated statistics of one repetition, by name. A change
/// that only speeds the simulator up leaves them identical.
pub type Stats = BTreeMap<String, u64>;

fn stats<const N: usize>(pairs: [(&str, u64); N]) -> Stats {
    pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect()
}

/// One repetition's measurements.
#[derive(Debug, Clone)]
pub struct Rep {
    pub setup_s: f64,
    pub run: Region,
    /// Route updates handled in the measured region.
    pub updates: u64,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub stats: Stats,
}

/// What a repetition leaves behind for the per-layer probes.
pub enum Artefacts {
    Des(Box<DesRun>),
    Sweep,
    Firehose {
        config: FirehoseConfig,
        report: Box<FirehoseReport>,
    },
}

/// A finished DES run with the inputs that produced it.
pub struct DesRun<S: TraceSink = VecSink> {
    pub input: DesInput,
    pub net: Network<S>,
    pub report: RunReport,
    /// Barrier stall accumulated by the measured region alone.
    pub run_stall_s: f64,
}

/// Inputs of one DES run.
pub struct DesInput {
    pub graph: Graph,
    pub isps: Vec<NodeId>,
    pub config: NetworkConfig,
    /// Origins `0..flapping` flap; the rest stay up.
    pub flapping: usize,
    pub pulses: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Sweep,
    Torus,
    Ba { shards: usize },
    MultiPrefix,
    Firehose(WorkloadKind),
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub size: Size,
    kind: Kind,
}

/// 52 bits of a 64-bit hash: exact in the `f64` a JSON number holds.
fn hash52(text: &str) -> u64 {
    rfd_snap::fnv1a(text.as_bytes()) >> 12
}

impl Workload {
    pub fn by_name(name: &str, size: Size) -> Option<Workload> {
        let name = *NAMES.iter().find(|n| **n == name)?;
        let kind = match name {
            "fig8_sweep" => Kind::Sweep,
            "torus40_damped" => Kind::Torus,
            "ba10000_damped" => Kind::Ba { shards: 1 },
            "ba10000_shards2" => Kind::Ba { shards: THREADS },
            "multi_prefix_256" => Kind::MultiPrefix,
            "firehose_poisson" => Kind::Firehose(WorkloadKind::Poisson),
            "firehose_storm" => Kind::Firehose(WorkloadKind::FlapStorm),
            _ => unreachable!("{name} is in NAMES"),
        };
        Some(Workload { name, size, kind })
    }

    /// The sequential-engine workload whose statistics this one must
    /// reproduce, if it is a sharded run of the same input.
    pub fn sequential_twin(&self) -> Option<Workload> {
        match self.kind {
            Kind::Ba { shards } if shards > 1 => Workload::by_name("ba10000_damped", self.size),
            _ => None,
        }
    }

    /// Whether the workload's threads are confined to one core unless
    /// the caller asks otherwise: the sharded DES, whose two-core time
    /// is the host's wake-up latency (see [`crate::placement`]).
    pub fn one_core(&self) -> bool {
        matches!(self.kind, Kind::Ba { shards } if shards > 1)
    }

    /// Whether the measured region runs on one thread.
    pub fn single_threaded(&self) -> bool {
        matches!(
            self.kind,
            Kind::Torus | Kind::MultiPrefix | Kind::Ba { shards: 1 }
        )
    }

    fn pick<T>(&self, full: T, quick: T) -> T {
        match self.size {
            Size::Full => full,
            Size::Quick => quick,
        }
    }

    /// Runs one repetition on inputs generated from `seed`. `scratch`
    /// is a directory this process owns.
    pub fn rep(&self, seed: u64, spans: &mut Spans, scratch: &Path) -> (Rep, Artefacts) {
        match self.kind {
            Kind::Sweep => self.sweep_rep(seed, spans, scratch),
            Kind::Firehose(kind) => self.firehose_rep(kind, seed, spans),
            _ => {
                let (mut rep, run) = spans.scope("rep", |spans| {
                    let started = Instant::now();
                    let input = spans.scope("topology.build", |_| self.des_input(seed));
                    des_run(input, VecSink::new(), started, spans)
                });
                let trace = run.net.trace();
                let (noisy, silent) = trace.reuse_counts();
                rep.stats.extend(stats([
                    ("ever_suppressed", trace.ever_suppressed_entries() as u64),
                    ("noisy_reuses", noisy as u64),
                    ("silent_reuses", silent as u64),
                ]));
                (rep, Artefacts::Des(Box::new(run)))
            }
        }
    }

    // ---- DES workloads -------------------------------------------------

    /// Generates the topology and configuration of a DES workload.
    ///
    /// # Panics
    ///
    /// Panics when called on the sweep or a firehose workload.
    pub fn des_input(&self, seed: u64) -> DesInput {
        let mut config = NetworkConfig::paper_full_damping(seed);
        let one = |graph, isp, pulses, config| DesInput {
            graph,
            isps: vec![NodeId::new(isp)],
            config,
            flapping: 1,
            pulses,
        };
        match self.kind {
            Kind::Torus => {
                let side = self.pick(40, 12);
                one(mesh_torus(side, side), 42, 3, config)
            }
            Kind::Ba { shards } => {
                config.sim_shards = shards;
                one(
                    internet_like(self.pick(10_000, 1000), 2, seed),
                    0,
                    1,
                    config,
                )
            }
            Kind::MultiPrefix => {
                let graph = internet_like(200, 2, seed);
                let mut rng = DetRng::from_seed_and_label(seed, "ledger-isps");
                let prefixes = self.pick(256, 64);
                let isps = (0..prefixes)
                    .map(|_| NodeId::new(rng.below(graph.node_count()) as u32))
                    .collect();
                DesInput {
                    graph,
                    isps,
                    config,
                    flapping: prefixes / 16,
                    pulses: 3,
                }
            }
            Kind::Sweep | Kind::Firehose(_) => panic!("{} is not a DES workload", self.name),
        }
    }

    // ---- fig8 sweep ----------------------------------------------------

    fn sweep_kinds(&self) -> (TopologyKind, TopologyKind) {
        self.pick(
            (TopologyKind::PAPER_MESH, TopologyKind::PAPER_INTERNET),
            (
                TopologyKind::Mesh {
                    width: 5,
                    height: 5,
                },
                TopologyKind::Internet { nodes: 25, m: 2 },
            ),
        )
    }

    pub fn sweep_options(&self, seed: u64, journal_dir: Option<PathBuf>) -> SweepOptions {
        SweepOptions {
            max_pulses: 10,
            seeds: vec![seed, seed + 1, seed + 2],
            threads: THREADS,
            journal_dir,
            ..SweepOptions::default()
        }
    }

    pub fn run_sweep(&self, opts: &SweepOptions) -> PulseSweep {
        let (mesh, internet) = self.sweep_kinds();
        fig8_9::figure8_9_on(opts, mesh, internet)
    }

    /// The grid's topologies, one pair per seed. The sweep builds its
    /// own per cell; generating them here is the sweep's input check.
    pub fn sweep_graphs(&self, opts: &SweepOptions) -> Vec<(TopologyKind, u64, Graph)> {
        let (mesh, internet) = self.sweep_kinds();
        opts.seeds
            .iter()
            .flat_map(|&s| [(mesh, s, mesh.build(s)), (internet, s, internet.build(s))])
            .collect()
    }

    fn sweep_rep(&self, seed: u64, spans: &mut Spans, scratch: &Path) -> (Rep, Artefacts) {
        let journal = scratch.join("journal");
        let rep = spans.scope("rep", |spans| {
            let started = Instant::now();
            let opts = spans.scope("sweep.setup", |_| {
                std::fs::create_dir_all(&journal).expect("create the journal directory");
                let opts = self.sweep_options(seed, Some(journal.clone()));
                for (_, _, graph) in self.sweep_graphs(&opts) {
                    assert!(graph.is_connected(), "generated a disconnected topology");
                }
                opts
            });
            let setup_s = started.elapsed().as_secs_f64();
            let meter = Meter::start();
            let sweep = spans.scope("experiments.figure8_9", |_| self.run_sweep(&opts));
            let run = meter.stop();
            spans.scope("report", |_| {
                let measured = || {
                    sweep
                        .series
                        .iter()
                        .filter(|s| s.label != fig8_9::CALCULATION)
                };
                let per_point = opts.seeds.len();
                let cells = measured_cells(&sweep, &opts) as u64;
                let updates: f64 = measured()
                    .flat_map(|s| &s.points)
                    .map(|p| p.messages * (per_point - p.failed_seeds) as f64)
                    .sum();
                let failed = sweep.failures.len() as u64;
                let stats = stats([
                    ("cells", cells),
                    ("failed_cells", failed),
                    ("updates", updates.round() as u64),
                    (
                        "convergence_csv_fnv52",
                        hash52(&sweep.convergence_table().to_csv()),
                    ),
                    ("message_csv_fnv52", hash52(&sweep.message_table().to_csv())),
                ]);
                Rep {
                    setup_s,
                    run,
                    updates: updates.round() as u64,
                    ops_attempted: cells,
                    ops_failed: failed,
                    stats,
                }
            })
        });
        std::fs::remove_dir_all(&journal).expect("remove the journal directory");
        (rep, Artefacts::Sweep)
    }

    // ---- firehose ------------------------------------------------------

    pub fn firehose_config(&self, kind: WorkloadKind, seed: u64) -> FirehoseConfig {
        let (peers, prefixes, rate, secs) = match kind {
            WorkloadKind::Poisson => (64, 4096, 2000.0, 1200),
            WorkloadKind::FlapStorm => (1024, 1024, 240.0, 7200),
        };
        FirehoseConfig::new(WorkloadSpec {
            peers,
            prefixes,
            rate,
            duration: SimDuration::from_secs(self.pick(secs, secs / 10)),
            kind,
            seed,
        })
    }

    fn firehose_rep(&self, kind: WorkloadKind, seed: u64, spans: &mut Spans) -> (Rep, Artefacts) {
        spans.scope("rep", |spans| {
            let started = Instant::now();
            // The generator's own count is what the engine must report
            // having ingested; producing it is this workload's set-up.
            let (config, generated) = spans.scope("firehose.setup", |_| {
                let config = self.firehose_config(kind, seed);
                config.validate().expect("firehose config is valid");
                let generated = Firehose::new(&config.spec).count() as u64;
                (config, generated)
            });
            let setup_s = started.elapsed().as_secs_f64();
            let meter = Meter::start();
            let report = spans.scope("firehose.run", |_| {
                rfd_firehose::run(&config).expect("validated above")
            });
            let run = meter.stop();
            spans.scope("report", |_| {
                let recovered: u64 = report.shard_perf.iter().map(|p| p.recovered_panics).sum();
                let lost = report.aggregate.updates != generated;
                let mut stats = stats(report.aggregate.rows());
                stats.insert("generated".to_owned(), generated);
                let rep = Rep {
                    setup_s,
                    run,
                    updates: report.aggregate.updates,
                    ops_attempted: report.shards as u64,
                    ops_failed: u64::from(recovered > 0 || lost),
                    stats,
                };
                let report = Box::new(report);
                (rep, Artefacts::Firehose { config, report })
            })
        })
    }
}

/// Grid cells behind `sweep`'s measured series (the calculated curve
/// runs no cell).
pub fn measured_cells(sweep: &PulseSweep, opts: &SweepOptions) -> usize {
    let measured = sweep
        .series
        .iter()
        .filter(|s| s.label != fig8_9::CALCULATION);
    measured.map(|s| s.points.len() * opts.seeds.len()).sum()
}

/// Builds, warms up and runs one DES input, observing through `sink`.
/// `started` is when this repetition's set-up began (topology
/// generation has already run).
pub fn des_run<S: TraceSink>(
    input: DesInput,
    sink: S,
    started: Instant,
    spans: &mut Spans,
) -> (Rep, DesRun<S>) {
    let mut net = spans.scope("bgp.network.new", |_| {
        Network::new_multi_with_sink(&input.graph, &input.isps, input.config.clone(), sink)
    });
    spans.scope("bgp.network.warm_up", |_| {
        net.warm_up();
    });
    let setup_s = started.elapsed().as_secs_f64();

    let schedule = FlapSchedule::from(FlapPattern::paper_default(input.pulses));
    let schedules: Vec<_> = (0..input.flapping).map(|i| (i, &schedule)).collect();
    let warm_stall = net.barrier_stall();
    let meter = Meter::start();
    let report = spans.scope("bgp.network.run", |_| {
        net.run_schedules(&schedules, SimDuration::from_secs(100))
    });
    let run = meter.stop();
    let run_stall_s = (net.barrier_stall() - warm_stall).as_secs_f64();

    let rep = spans.scope("report", |_| {
        let stats = stats([
            ("events_processed", report.events_processed),
            ("message_count", report.message_count as u64),
            ("convergence_us", report.convergence_time.as_micros()),
            ("dropped", net.dropped_messages()),
            ("windows", net.windows()),
        ]);
        Rep {
            setup_s,
            run,
            updates: report.message_count as u64,
            ops_attempted: 1,
            ops_failed: u64::from(report.outcome != RunOutcome::Quiescent),
            stats,
        }
    });
    let run = DesRun {
        input,
        net,
        report,
        run_stall_s,
    };
    (rep, run)
}
