//! One workload, one process: the repetition loop behind the
//! end-to-end rows, and the traced pass plus probes behind the
//! per-layer rows.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use crate::expected::Pins;
use crate::json::{self, Value};
use crate::probes;
use crate::procfs;
use crate::span::Spans;
use crate::stats::{mean, Summary};
use crate::workloads::{Artefacts, Rep, Size, Stats, Workload};

/// Fewest repetitions a run reports a median of.
const MIN_REPS: usize = 3;

/// One reported number. `summary` carries the spread when the value is
/// a statistic of several repetitions.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub name: String,
    pub unit: String,
    pub value: f64,
    pub summary: Option<Summary>,
}

impl Row {
    fn single(name: &str, unit: &str, value: f64) -> Row {
        Row {
            name: name.to_owned(),
            unit: unit.to_owned(),
            value,
            summary: None,
        }
    }

    fn median(name: &str, unit: &str, values: &[f64]) -> Row {
        let summary = Summary::of(values);
        Row {
            summary: Some(summary),
            ..Row::single(name, unit, summary.median)
        }
    }
}

/// What one process measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub rows: Vec<Row>,
    /// Exact counts of repetition 0 (always the run's own seed), which
    /// two runs of one binary must reproduce bit for bit.
    pub exact: Stats,
    /// Why operations failed.
    pub notes: Vec<String>,
    /// Statistics of every repetition, for `--bless`.
    pub rep_stats: Vec<Stats>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The contract's result object: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_json(&self) -> Value {
        let metrics = self.rows.iter().map(|r| {
            let metric =
                json::object([("value", json::num(r.value)), ("unit", json::text(&r.unit))]);
            (r.name.as_str(), metric)
        });
        json::object([
            ("correct", Value::Bool(self.correct())),
            ("attempted", json::count(self.attempted)),
            ("failed", json::count(self.failed)),
            ("metrics", json::object(metrics)),
        ])
    }
}

/// Repetition 0 runs the run's own seed; later ones draw fresh inputs,
/// so a run's medians describe the workload rather than one graph.
fn rep_seed(seed: u64, index: usize) -> u64 {
    seed.wrapping_add((index as u64).wrapping_mul(1_000_003))
}

/// Repetitions and their bookkeeping.
struct Loop<'a> {
    workload: &'a Workload,
    scratch: &'a Path,
    pins: Option<Pins>,
    seed: u64,
    reps: Vec<Rep>,
    panicked: u64,
    notes: Vec<String>,
}

impl<'a> Loop<'a> {
    fn new(workload: &'a Workload, seed: u64, scratch: &'a Path, check_pins: bool) -> Loop<'a> {
        Loop {
            workload,
            scratch,
            pins: if check_pins {
                Pins::load(workload)
            } else {
                None
            },
            seed,
            reps: Vec::new(),
            panicked: 0,
            notes: Vec::new(),
        }
    }

    /// Runs one repetition on `rep_seed`, checks its statistics against
    /// pin `pin_index` if there is one, and records it. A panic inside
    /// the program is a failed operation, not a crash of the ledger.
    fn run(&mut self, rep_seed: u64, pin_index: usize, spans: &mut Spans) -> Option<Artefacts> {
        let workload = self.workload;
        let scratch = self.scratch;
        let attempt = catch_unwind(AssertUnwindSafe(|| workload.rep(rep_seed, spans, scratch)));
        let Ok((mut rep, artefacts)) = attempt else {
            self.panicked += 1;
            self.notes
                .push(format!("repetition on seed {rep_seed} panicked"));
            return None;
        };
        let mut problems = Vec::new();
        if rep.ops_failed > 0 {
            problems.push(format!(
                "{} of {} operations failed",
                rep.ops_failed, rep.ops_attempted
            ));
        }
        if let Some(pins) = &self.pins {
            problems.extend(pins.check(self.seed, pin_index, &rep.stats).err());
        }
        if !problems.is_empty() {
            rep.ops_failed = rep.ops_attempted;
            self.notes.extend(
                problems
                    .into_iter()
                    .map(|p| format!("seed {rep_seed}: {p}")),
            );
        }
        self.reps.push(rep);
        Some(artefacts)
    }

    /// The sharded DES must reproduce the sequential engine's
    /// statistics; where no pin says what those are, run the twin on
    /// repetition 0's input. Call after the measuring is done (and the
    /// peak resident size read): the twin allocates a network too.
    fn check_twin(&mut self) {
        let pinned = self
            .pins
            .as_ref()
            .is_some_and(|p| p.seed == self.seed && !p.reps.is_empty());
        let Some(twin) = self.workload.sequential_twin().filter(|_| !pinned) else {
            return;
        };
        let (twin_rep, _) = twin.rep(self.seed, &mut Spans::new(false), self.scratch);
        let first = &mut self.reps[0];
        if twin_rep.stats != first.stats {
            first.ops_failed = first.ops_attempted;
            self.notes.push(format!(
                "seed {}: statistics {:?} differ from {}'s {:?}",
                self.seed, first.stats, twin.name, twin_rep.stats
            ));
        }
    }

    fn wall(&self) -> Vec<f64> {
        self.reps.iter().map(|r| r.run.wall_s).collect()
    }

    fn ops(&self) -> (u64, u64) {
        let attempted: u64 = self.reps.iter().map(|r| r.ops_attempted).sum();
        let failed: u64 = self.reps.iter().map(|r| r.ops_failed).sum();
        (attempted + self.panicked, failed + self.panicked)
    }

    fn exact(&self) -> Stats {
        let first = &self.reps[0];
        let mut exact = first.stats.clone();
        // Work stealing and channel timing move allocations between
        // runs of a threaded workload; one thread repeats exactly.
        if self.workload.single_threaded() {
            exact.insert("allocs".to_owned(), first.run.allocs);
        }
        exact
    }
}

/// Untraced repetitions for `seconds`; the six end-to-end rows.
///
/// # Panics
///
/// Panics if every repetition panicked (there is nothing to report).
pub fn end_to_end(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    bless: bool,
    scratch: &Path,
) -> Outcome {
    let mut lp = Loop::new(workload, seed, scratch, !bless);
    let mut spans = Spans::new(false);
    let started = Instant::now();
    let mut tries = 0;
    // The high-water mark after the first repetition alone: what one
    // run of the workload on the run's own seed needs. Read later it
    // would be the largest of however many inputs time allowed.
    let mut peak_rss_mib = None;
    while tries < MIN_REPS || started.elapsed().as_secs_f64() < seconds {
        lp.run(rep_seed(seed, tries), tries, &mut spans);
        if lp.reps.len() == 1 {
            peak_rss_mib.get_or_insert_with(procfs::peak_rss_mib);
        }
        tries += 1;
    }
    let peak_rss_mib =
        peak_rss_mib.unwrap_or_else(|| panic!("every repetition panicked: {:?}", lp.notes));
    lp.check_twin();

    let reps = &lp.reps;
    let updates: u64 = reps.iter().map(|r| r.updates).sum();
    let allocs: u64 = reps.iter().map(|r| r.run.allocs).sum();
    let pick = |f: fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let cpu = pick(|r| r.run.cpu_s);
    let rows = vec![
        Row::median("wall_s", "s", &lp.wall()),
        // CPU time comes in 10 ms ticks: the mean over repetitions
        // resolves finer than any one reading, a median would not.
        Row {
            value: mean(&cpu),
            ..Row::median("cpu_s", "s", &cpu)
        },
        Row::median(
            "updates_per_s",
            "updates/s",
            &pick(|r| r.updates as f64 / r.run.wall_s),
        ),
        Row::single("peak_rss_mb", "MiB", peak_rss_mib),
        Row::single("allocs_per_update", "count", allocs as f64 / updates as f64),
        Row::median("setup_s", "s", &pick(|r| r.setup_s)),
    ];
    let (attempted, failed) = lp.ops();
    Outcome {
        attempted,
        failed,
        rows,
        exact: lp.exact(),
        rep_stats: reps.iter().map(|r| r.stats.clone()).collect(),
        notes: lp.notes,
    }
}

/// Untraced and traced repetitions of the run's own seed in
/// alternation (their medians give the tracing overhead), then every
/// probe on what the last traced pass left behind; the per-layer rows.
/// Returns that pass's recorder too, for `--trace-out`.
///
/// # Panics
///
/// Panics if a repetition panicked: the probes need its artefacts.
pub fn per_layer(workload: &Workload, seed: u64, seconds: f64, scratch: &Path) -> (Outcome, Spans) {
    let mut lp = Loop::new(workload, seed, scratch, true);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut last = None;
    let started = Instant::now();
    while traced.len() < MIN_REPS || started.elapsed().as_secs_f64() < seconds / 3.0 {
        // Alternate which of the pair runs first, so neither side
        // always inherits the other's warm heap.
        for tracing in [traced.len() % 2 == 1, traced.len() % 2 == 0] {
            let mut spans = Spans::new(tracing);
            let artefacts = lp.run(seed, 0, &mut spans).expect("a repetition panicked");
            let rep = lp.reps.last().expect("just pushed").clone();
            if tracing {
                traced.push(rep.run.wall_s);
                last = Some((artefacts, spans, rep));
            } else {
                untraced.push(rep.run.wall_s);
            }
        }
    }
    lp.check_twin();
    let (own, mut spans, traced_rep) = last.expect("at least one pair ran");
    let untraced_wall_s = Summary::of(&untraced).median;
    let overhead = Summary::of(&traced).median / untraced_wall_s;
    let alloc_mb = traced_rep.run.alloc_bytes as f64 / (1 << 20) as f64;
    let traced = traced_rep;

    // Inputs for layers this workload does not exercise: the quick
    // size of a workload that does, with spans of its own.
    let reference = |name: &str| {
        let w = Workload::by_name(name, Size::Quick).expect("a known workload");
        let mut spans = Spans::new(true);
        let (rep, artefacts) = w.rep(seed, &mut spans, scratch);
        (w, rep, artefacts, spans)
    };
    let (own_des, own_fire) = match own {
        Artefacts::Des(run) => (Some(run), None),
        Artefacts::Firehose { config, report } => (None, Some((config, report))),
        Artefacts::Sweep => (None, None),
    };
    let mut rows: Vec<probes::Row> = Vec::new();
    let (des_w, des_rep, des, des_wall_s) = match own_des {
        Some(run) => {
            probes::network_rows(&run, &traced, &spans, &mut rows);
            (*workload, traced.clone(), run, untraced_wall_s)
        }
        None => match reference("torus40_damped") {
            (w, rep, Artefacts::Des(run), ref_spans) => {
                probes::network_rows(&run, &rep, &ref_spans, &mut rows);
                let wall_s = rep.run.wall_s;
                (w, rep, run, wall_s)
            }
            _ => unreachable!("torus40_damped is a DES workload"),
        },
    };
    let (fire_rep, fire_config, fire_report) = match own_fire {
        Some((config, report)) => (traced.clone(), config, report),
        None => match reference("firehose_storm") {
            (_, rep, Artefacts::Firehose { config, report }, _) => (rep, config, report),
            _ => unreachable!("firehose_storm is a firehose workload"),
        },
    };
    let sweep_w = match workload.name {
        "fig8_sweep" => *workload,
        _ => Workload::by_name("fig8_sweep", Size::Quick).expect("a known workload"),
    };

    let run_s = des_rep.run.wall_s;
    let nodes = des.input.graph.node_count() + des.input.isps.len();
    spans.scope("probe.sim.wheel", |_| {
        probes::wheel_rows(
            nodes * des.input.isps.len(),
            des.report.events_processed,
            run_s,
            &mut rows,
        )
    });
    spans.scope("probe.bgp.router", |_| {
        probes::router_rows(des_rep.updates, run_s, &mut rows)
    });
    spans.scope("probe.bgp.intern", |_| {
        probes::intern_rows(des.net.path_table(), run_s, &mut rows)
    });
    spans.scope("probe.metrics.sink", |_| {
        probes::sink_rows(&des_w, seed, &des, des_wall_s, &mut rows)
    });
    spans.scope("probe.firehose", |_| {
        probes::firehose_rows(&fire_config, &fire_report, fire_rep.run.wall_s, &mut rows)
    });
    let side = match workload.size {
        Size::Full => 40,
        Size::Quick => 12,
    };
    spans.scope("probe.bgp.snapshot", |_| {
        probes::snapshot_rows(side, scratch, &mut rows)
    });
    spans.scope("probe.runner", |_| {
        probes::sweep_rows(&sweep_w, seed, scratch, &mut rows)
    });

    let mut out: Vec<Row> = rows
        .iter()
        .map(|&(name, unit, value)| Row::single(name, unit, value))
        .collect();
    out.push(Row::single("trace_overhead_ratio", "ratio", overhead));
    out.push(Row::single("alloc_mb", "MiB", alloc_mb));
    let (attempted, failed) = lp.ops();
    let outcome = Outcome {
        attempted,
        failed,
        rows: out,
        exact: lp.exact(),
        rep_stats: Vec::new(),
        notes: lp.notes,
    };
    (outcome, spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::NAMES;

    fn scratch(label: &str) -> std::path::PathBuf {
        crate::scratch_dir(label).unwrap()
    }

    /// Every workload, at its quick size, still produces the committed
    /// statistics — the check CI can afford on every change.
    #[test]
    fn quick_repetitions_reproduce_their_pins() {
        let scratch = scratch("pins");
        for name in NAMES {
            let workload = Workload::by_name(name, Size::Quick).unwrap();
            let pins = Pins::load(&workload).unwrap_or_else(|| panic!("{name} has no quick pins"));
            let (rep, _) = workload.rep(pins.seed, &mut Spans::new(false), &scratch);
            assert_eq!(rep.ops_failed, 0, "{name}");
            assert!(rep.updates > 0 && rep.run.wall_s > 0.0, "{name}");
            assert_eq!(pins.check(pins.seed, 0, &rep.stats), Ok(()), "{name}");
        }
        std::fs::remove_dir_all(&scratch).unwrap();
    }

    /// Names of one list of `BENCHMARK.json`, sorted.
    fn declared(list: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let root = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = root.get(list).unwrap().as_array().unwrap().iter();
        let mut names: Vec<String> = names
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_owned())
            .collect();
        names.sort();
        names
    }

    /// The result line's keys, and its metric names sorted.
    fn printed(outcome: &Outcome) -> (Vec<String>, Vec<String>) {
        let line = json::parse(&json::emit(&outcome.contract_json())).unwrap();
        let keys = |v: &Value| v.as_object().unwrap().keys().cloned().collect::<Vec<_>>();
        (keys(&line), keys(line.get("metrics").unwrap()))
    }

    #[test]
    fn both_modes_print_exactly_what_benchmark_json_declares() {
        let scratch = scratch("contract");
        let workload = Workload::by_name("torus40_damped", Size::Quick).unwrap();
        let untraced = end_to_end(&workload, 3, 0.05, false, &scratch);
        let (traced, spans) = per_layer(&workload, 3, 0.05, &scratch);
        std::fs::remove_dir_all(&scratch).unwrap();

        assert!(untraced.correct() && untraced.attempted >= MIN_REPS as u64);
        let (keys, metrics) = printed(&untraced);
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(metrics, declared("end_to_end"));

        assert!(traced.correct());
        assert_eq!(printed(&traced).1, declared("per_layer"));
        assert!(
            traced.rows.iter().all(|r| r.value.is_finite()),
            "{:?}",
            traced.rows
        );
        assert!(spans.seconds("bgp.network.run") > 0.0 && spans.seconds("probe.sim.wheel") > 0.0);
        assert_eq!(declared("workloads"), {
            let mut names = NAMES.map(str::to_owned).to_vec();
            names.sort();
            names
        });
    }

    #[test]
    fn later_repetitions_draw_other_seeds() {
        assert_eq!(rep_seed(7, 0), 7);
        assert_ne!(rep_seed(7, 1), rep_seed(8, 0));
        assert_ne!(rep_seed(7, 1), rep_seed(7, 2));
    }
}
