//! The result file a full set writes, and the comparison of two of
//! them against the bounds `BENCHMARK.json` fixes.

use std::fmt::Write as _;

use crate::json::{self, Value};
use crate::run::Row;
use crate::stats::{sig5, Summary};
use crate::workloads::Stats;

pub const SCHEMA: &str = "rfd-perfledger-v1";

/// Everything one workload reported in a set.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    pub name: String,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub end_to_end: Vec<Row>,
    pub per_layer: Vec<Row>,
    pub exact: Stats,
    pub notes: Vec<String>,
}

/// One full set of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultFile {
    pub quick: bool,
    pub seed: u64,
    pub seconds: f64,
    /// `available_parallelism` of the machine that measured.
    pub cores: u64,
    pub workloads: Vec<WorkloadResult>,
}

pub fn row_to_json(row: &Row) -> Value {
    let mut members = vec![
        ("name", json::text(&row.name)),
        ("unit", json::text(&row.unit)),
        ("value", json::num(row.value)),
    ];
    if let Some(s) = row.summary {
        members.extend([
            ("median", json::num(s.median)),
            ("q1", json::num(s.q1)),
            ("q3", json::num(s.q3)),
            ("n", json::count(s.n as u64)),
        ]);
    }
    json::object(members)
}

pub fn row_from_json(value: &Value) -> Result<Row, String> {
    let text = |key: &str| {
        let found = value.get(key).and_then(Value::as_str);
        found
            .map(str::to_owned)
            .ok_or(format!("row without `{key}`"))
    };
    let number = |key: &str| value.get(key).and_then(Value::as_f64);
    let summary = match (number("median"), number("q1"), number("q3"), number("n")) {
        (Some(median), Some(q1), Some(q3), Some(n)) => Some(Summary {
            median,
            q1,
            q3,
            n: n as usize,
        }),
        _ => None,
    };
    Ok(Row {
        name: text("name")?,
        unit: text("unit")?,
        // A non-finite value was written as `null`.
        value: number("value").unwrap_or(f64::NAN),
        summary,
    })
}

fn rows_from_json(value: &Value, key: &str) -> Result<Vec<Row>, String> {
    let rows = value
        .get(key)
        .and_then(Value::as_array)
        .ok_or(format!("no `{key}`"))?;
    rows.iter().map(row_from_json).collect()
}

pub fn stats_to_json(stats: &Stats) -> Value {
    json::object(stats.iter().map(|(k, v)| (k.as_str(), json::count(*v))))
}

pub fn stats_from_json(value: Option<&Value>) -> Result<Stats, String> {
    let members = value.and_then(Value::as_object).ok_or("no exact counts")?;
    members
        .iter()
        .map(|(k, v)| {
            Ok((
                k.clone(),
                v.as_u64().ok_or(format!("`{k}` is not a count"))?,
            ))
        })
        .collect()
}

pub fn notes_from_json(value: Option<&Value>) -> Vec<String> {
    let notes = value.and_then(Value::as_array).unwrap_or(&[]);
    notes
        .iter()
        .filter_map(Value::as_str)
        .map(str::to_owned)
        .collect()
}

impl ResultFile {
    pub fn to_json(&self) -> String {
        let workloads = self.workloads.iter().map(|w| {
            json::object([
                ("workload", json::text(&w.name)),
                ("ops_attempted", json::count(w.ops_attempted)),
                ("ops_failed", json::count(w.ops_failed)),
                (
                    "end_to_end",
                    Value::Array(w.end_to_end.iter().map(row_to_json).collect()),
                ),
                (
                    "per_layer",
                    Value::Array(w.per_layer.iter().map(row_to_json).collect()),
                ),
                ("exact", stats_to_json(&w.exact)),
                (
                    "notes",
                    Value::Array(w.notes.iter().map(|n| json::text(n)).collect()),
                ),
            ])
        });
        json::emit_pretty(&json::object([
            ("schema", json::text(SCHEMA)),
            ("quick", Value::Bool(self.quick)),
            ("seed", json::count(self.seed)),
            ("seconds", json::num(self.seconds)),
            ("cores", json::count(self.cores)),
            ("workloads", Value::Array(workloads.collect())),
        ]))
    }

    pub fn parse(text: &str) -> Result<ResultFile, String> {
        let root = json::parse(text).map_err(|e| e.to_string())?;
        if root.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} file"));
        }
        let count = |key: &str| {
            root.get(key)
                .and_then(Value::as_u64)
                .ok_or(format!("no `{key}`"))
        };
        let workloads = root
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("no `workloads`")?;
        let workloads = workloads
            .iter()
            .map(|w| {
                let count = |key: &str| {
                    w.get(key)
                        .and_then(Value::as_u64)
                        .ok_or(format!("no `{key}`"))
                };
                Ok(WorkloadResult {
                    name: w
                        .get("workload")
                        .and_then(Value::as_str)
                        .ok_or("no `workload`")?
                        .to_owned(),
                    ops_attempted: count("ops_attempted")?,
                    ops_failed: count("ops_failed")?,
                    end_to_end: rows_from_json(w, "end_to_end")?,
                    per_layer: rows_from_json(w, "per_layer")?,
                    exact: stats_from_json(w.get("exact"))?,
                    notes: notes_from_json(w.get("notes")),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(ResultFile {
            quick: matches!(root.get("quick"), Some(Value::Bool(true))),
            seed: count("seed")?,
            seconds: root
                .get("seconds")
                .and_then(Value::as_f64)
                .ok_or("no `seconds`")?,
            cores: count("cores")?,
            workloads,
        })
    }
}

/// Direction and regression bound of one end-to-end metric, as
/// `BENCHMARK.json` fixes them.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// Reads the `end_to_end` list of `BENCHMARK.json`.
pub fn bounds_from_benchmark_json(text: &str) -> Result<Vec<Bound>, String> {
    let root = json::parse(text).map_err(|e| e.to_string())?;
    let metrics = root
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or("no `end_to_end`")?;
    metrics
        .iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Value::as_str)
                    .ok_or(format!("metric without `{key}`"))
            };
            Ok(Bound {
                name: text("name")?.to_owned(),
                lower_is_better: match text("better")? {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("`better` is `{other}`")),
                },
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("metric without `bound`")?,
            })
        })
        .collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regression,
    /// The quartile spread is wider than the bound and the two sides'
    /// quartile ranges overlap: the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regression => "regression",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `new` is than `old`, as a share of `old`; negative
/// when it is better.
pub fn worsening(old: f64, new: f64, lower_is_better: bool) -> f64 {
    let change = (new - old) / old.abs();
    if lower_is_better {
        change
    } else {
        -change
    }
}

/// The verdict on one (workload, metric) pair. `failures_rose` — the
/// new side failed a larger share of its operations — counts as missing
/// every bound.
pub fn verdict(old: &Row, new: &Row, bound: &Bound, failures_rose: bool) -> Verdict {
    if failures_rose {
        return Verdict::Regression;
    }
    let (wide, overlap) = match (old.summary, new.summary) {
        (Some(o), Some(n)) => (
            o.spread().max(n.spread()) > bound.bound,
            o.q1 <= n.q3 && n.q1 <= o.q3,
        ),
        _ => (false, false),
    };
    if wide && overlap {
        Verdict::Unresolved
    } else if worsening(old.value, new.value, bound.lower_is_better) > bound.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

fn failure_share(w: &WorkloadResult) -> f64 {
    w.ops_failed as f64 / w.ops_attempted.max(1) as f64
}

/// The comparison table and whether anything regressed.
pub struct Comparison {
    pub table: String,
    pub regressions: usize,
    pub unresolved: usize,
}

/// Compares two sets row by row.
///
/// # Errors
///
/// Refuses a quick set against a full-size one, and sets that do not
/// hold the same workloads.
pub fn compare(old: &ResultFile, new: &ResultFile, bounds: &[Bound]) -> Result<Comparison, String> {
    if old.quick != new.quick {
        return Err("one file is a --quick set and the other is full-size".to_owned());
    }
    let mut table = format!(
        "{:<18} {:<18} {:>12} {:>23} {:>12} {:>23} {:>8} {:>6}  {}\n",
        "workload",
        "metric",
        "old",
        "old q1..q3",
        "new",
        "new q1..q3",
        "new/old",
        "bound",
        "verdict"
    );
    let (mut regressions, mut unresolved) = (0, 0);
    for o in &old.workloads {
        let n = new
            .workloads
            .iter()
            .find(|w| w.name == o.name)
            .ok_or(format!("no `{}` in the new file", o.name))?;
        let failures_rose = failure_share(n) > failure_share(o);
        if failures_rose {
            writeln!(
                table,
                "{:<18} failed operations rose: {}/{} -> {}/{}",
                o.name, o.ops_failed, o.ops_attempted, n.ops_failed, n.ops_attempted
            )
            .unwrap();
        }
        for bound in bounds {
            let find =
                |w: &WorkloadResult| w.end_to_end.iter().find(|r| r.name == bound.name).cloned();
            let (Some(old_row), Some(new_row)) = (find(o), find(n)) else {
                return Err(format!(
                    "`{}` has no `{}` row on both sides",
                    o.name, bound.name
                ));
            };
            let verdict = verdict(&old_row, &new_row, bound, failures_rose);
            regressions += usize::from(verdict == Verdict::Regression);
            unresolved += usize::from(verdict == Verdict::Unresolved);
            let quartiles = |r: &Row| {
                r.summary.map_or("-".to_owned(), |s| {
                    format!("{}..{}", sig5(s.q1), sig5(s.q3))
                })
            };
            writeln!(
                table,
                "{:<18} {:<18} {:>12} {:>23} {:>12} {:>23} {:>8.4} {:>6.2}  {}",
                o.name,
                bound.name,
                sig5(old_row.value),
                quartiles(&old_row),
                sig5(new_row.value),
                quartiles(&new_row),
                new_row.value / old_row.value,
                bound.bound,
                verdict.label(),
            )
            .unwrap();
        }
    }
    Ok(Comparison {
        table,
        regressions,
        unresolved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(value: f64, q1: f64, q3: f64) -> Row {
        Row {
            name: "wall_s".to_owned(),
            unit: "s".to_owned(),
            value,
            summary: Some(Summary {
                median: value,
                q1,
                q3,
                n: 9,
            }),
        }
    }

    fn bound(lower_is_better: bool) -> Bound {
        Bound {
            name: "wall_s".to_owned(),
            lower_is_better,
            bound: 0.10,
        }
    }

    #[test]
    fn verdicts() {
        let old = row(1.00, 0.99, 1.01);
        // Within the bound, tight runs.
        assert_eq!(
            verdict(&old, &row(1.05, 1.04, 1.06), &bound(true), false),
            Verdict::Ok
        );
        // An improvement is never a regression.
        assert_eq!(
            verdict(&old, &row(0.50, 0.49, 0.51), &bound(true), false),
            Verdict::Ok
        );
        // Worse by more than the bound, tight runs.
        assert_eq!(
            verdict(&old, &row(1.20, 1.19, 1.21), &bound(true), false),
            Verdict::Regression
        );
        // The same numbers are an improvement when higher is better...
        assert_eq!(
            verdict(&old, &row(1.20, 1.19, 1.21), &bound(false), false),
            Verdict::Ok
        );
        // ...and a fall is then the regression.
        assert_eq!(
            verdict(&old, &row(0.80, 0.79, 0.81), &bound(false), false),
            Verdict::Regression
        );
        // Spread wider than the bound and overlapping quartiles: cannot tell.
        assert_eq!(
            verdict(&old, &row(1.20, 0.95, 1.40), &bound(true), false),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&old, &row(1.02, 0.90, 1.15), &bound(true), false),
            Verdict::Unresolved
        );
        // Wide but clear of the other side: resolved.
        assert_eq!(
            verdict(&old, &row(2.00, 1.70, 2.30), &bound(true), false),
            Verdict::Regression
        );
        // More failed operations miss every bound, whatever the timing.
        assert_eq!(
            verdict(&old, &row(0.50, 0.49, 0.51), &bound(true), true),
            Verdict::Regression
        );
    }

    #[test]
    fn single_values_are_never_unresolved() {
        let single = |value| Row {
            summary: None,
            ..row(value, 0.0, 0.0)
        };
        assert_eq!(
            verdict(&single(1.0), &single(1.04), &bound(true), false),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&single(1.0), &single(1.2), &bound(true), false),
            Verdict::Regression
        );
    }

    fn file(wall: Row, failed: u64) -> ResultFile {
        ResultFile {
            quick: false,
            seed: 7,
            seconds: 10.0,
            cores: 2,
            workloads: vec![WorkloadResult {
                name: "torus40_damped".to_owned(),
                ops_attempted: 40,
                ops_failed: failed,
                end_to_end: vec![wall],
                per_layer: vec![Row {
                    name: "sim.wheel.pop_ns".to_owned(),
                    unit: "ns".to_owned(),
                    value: 41.5,
                    summary: None,
                }],
                exact: Stats::from([("events_processed".to_owned(), 175_119)]),
                notes: vec!["a note".to_owned()],
            }],
        }
    }

    #[test]
    fn result_file_round_trips() {
        let f = file(row(0.19, 0.18, 0.2), 0);
        assert_eq!(ResultFile::parse(&f.to_json()), Ok(f));
        assert!(ResultFile::parse("{\"schema\": \"other\"}").is_err());
    }

    #[test]
    fn compare_counts_regressions_and_failed_ops_and_refuses_quick_against_full() {
        let bounds = [bound(true)];
        let base = file(row(1.0, 0.99, 1.01), 0);
        let same = compare(&base, &file(row(1.01, 1.0, 1.02), 0), &bounds).unwrap();
        assert_eq!((same.regressions, same.unresolved), (0, 0));
        let slower = compare(&base, &file(row(1.3, 1.29, 1.31), 0), &bounds).unwrap();
        assert_eq!(slower.regressions, 1);
        let failing = compare(&base, &file(row(1.0, 0.99, 1.01), 1), &bounds).unwrap();
        assert_eq!(failing.regressions, 1);
        let mut quick = base.clone();
        quick.quick = true;
        assert!(compare(&base, &quick, &bounds).is_err());
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let text = r#"{"end_to_end": [
            {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
            {"name": "updates_per_s", "unit": "updates/s", "better": "higher", "bound": 0.15}]}"#;
        let bounds = bounds_from_benchmark_json(text).unwrap();
        assert_eq!(bounds[0], bound(true));
        assert!(!bounds[1].lower_is_better);
        assert!(bounds_from_benchmark_json("{}").is_err());
    }
}
