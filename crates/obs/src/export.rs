//! Chrome trace-event export and the counters/histograms JSON summary.
//!
//! [`write_trace`] emits one JSON object with a `traceEvents` array in
//! the Chrome trace-event format — `ph:"B"`/`"E"` duration records per
//! span, `ph:"i"` instants for marks and `ph:"C"` counter records — so
//! the file opens directly in Perfetto or `chrome://tracing`. The same
//! object carries `counters`, `histograms` and `spans` summary sections
//! (extra top-level keys are ignored by trace viewers), which is what
//! `rfd obs-report` pretty-prints.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

use crate::json::quote;
use crate::registry::{self, lock_unpoisoned};
use crate::span::SpanRecord;

fn push_span_args(out: &mut String, record: &SpanRecord) {
    if let Some(sim_us) = record.sim_us {
        let _ = write!(out, ",\"args\":{{\"sim_us\":{sim_us}}}");
    }
}

/// Appends the `ph:"B"/"E"/"i"` records of one thread, properly nested.
///
/// Records arrive in completion order (children complete before
/// parents). Re-sorting by `(start, -dur)` yields begin order; a stack
/// of pending end-times then interleaves the `E` records so every
/// `B`/`E` pair nests correctly even without viewer-side sorting.
fn push_thread_events(out: &mut String, tid: usize, records: &[SpanRecord], first: &mut bool) {
    let mut sorted: Vec<&SpanRecord> = records.iter().collect();
    sorted.sort_by_key(|r| (r.start_us, std::cmp::Reverse(r.dur_us.unwrap_or(0))));

    let mut sep = |out: &mut String| {
        if !*first {
            out.push_str(",\n");
        }
        *first = false;
    };
    // Stack of (name, end_us) for open B records.
    let mut open: Vec<(&'static str, u64)> = Vec::new();
    let close_through = |out: &mut String,
                         open: &mut Vec<(&'static str, u64)>,
                         now: u64,
                         sep: &mut dyn FnMut(&mut String)| {
        while let Some(&(name, end)) = open.last() {
            if end > now {
                break;
            }
            open.pop();
            sep(out);
            let _ = write!(
                out,
                "{{\"name\":{},\"ph\":\"E\",\"ts\":{end},\"pid\":1,\"tid\":{tid}}}",
                quote(name)
            );
        }
    };
    for r in sorted {
        close_through(out, &mut open, r.start_us, &mut sep);
        match r.dur_us {
            Some(dur) => {
                sep(out);
                let _ = write!(
                    out,
                    "{{\"name\":{},\"ph\":\"B\",\"ts\":{},\"pid\":1,\"tid\":{tid}",
                    quote(r.name),
                    r.start_us
                );
                push_span_args(out, r);
                out.push('}');
                open.push((r.name, r.start_us + dur));
            }
            None => {
                sep(out);
                let _ = write!(
                    out,
                    "{{\"name\":{},\"ph\":\"i\",\"ts\":{},\"pid\":1,\"tid\":{tid},\"s\":\"t\"}}",
                    quote(r.name),
                    r.start_us
                );
            }
        }
    }
    close_through(out, &mut open, u64::MAX, &mut sep);
}

/// Per-span-name aggregates across all threads.
fn span_aggregates() -> std::collections::BTreeMap<&'static str, (u64, u64, u64)> {
    let mut agg: std::collections::BTreeMap<&'static str, (u64, u64, u64)> = Default::default();
    for buf in registry::global().thread_bufs() {
        let events = lock_unpoisoned(&buf.events);
        for r in &events.spans {
            if let Some(dur) = r.dur_us {
                let entry = agg.entry(r.name).or_insert((0, 0, 0));
                entry.0 += 1;
                entry.1 += dur;
                entry.2 = entry.2.max(dur);
            }
        }
    }
    agg
}

/// The summary sections (`counters`, `histograms`, `spans`, `meta`) as
/// the body of a JSON object — without the surrounding braces, so it
/// can be embedded into the trace file or wrapped standalone.
fn summary_body() -> String {
    let reg = registry::global();
    let mut out = String::new();

    out.push_str("\"counters\":{");
    let counters = lock_unpoisoned(&reg.counters);
    for (i, (name, c)) in counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", quote(name), c.get());
    }
    drop(counters);
    out.push_str("},\n\"gauges\":{");
    let gauges = lock_unpoisoned(&reg.gauges);
    for (i, (name, g)) in gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", quote(name), g.get());
    }
    drop(gauges);
    out.push_str("},\n\"histograms\":{");
    let histograms = lock_unpoisoned(&reg.histograms);
    for (i, (name, h)) in histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"count\":{},\"sum\":{},\"buckets\":[",
            quote(name),
            h.count(),
            h.sum()
        );
        for (j, (floor, count)) in h.nonzero_buckets().into_iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{floor},{count}]");
        }
        out.push_str("]}");
    }
    drop(histograms);
    out.push_str("},\n\"spans\":{");
    for (i, (name, (count, total_us, max_us))) in span_aggregates().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{}:{{\"count\":{count},\"total_us\":{total_us},\"max_us\":{max_us}}}",
            quote(name)
        );
    }
    out.push_str("},\n\"meta\":{");
    let bufs = reg.thread_bufs();
    let dropped: u64 = bufs
        .iter()
        .map(|b| lock_unpoisoned(&b.events).dropped)
        .sum();
    let _ = write!(
        out,
        "\"threads\":{},\"dropped_spans\":{dropped}",
        bufs.len()
    );
    out.push('}');
    out
}

/// The counters/histograms/span-aggregate summary as one JSON object.
pub fn summary_json() -> String {
    format!("{{{}}}", summary_body())
}

/// Renders the full observability file: Chrome `traceEvents` plus the
/// summary sections.
pub fn render_trace() -> String {
    let reg = registry::global();
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    for buf in reg.thread_bufs() {
        let events = lock_unpoisoned(&buf.events);
        push_thread_events(&mut out, buf.tid, &events.spans, &mut first);
    }
    // Counter final values as ph:"C" records on a synthetic tid.
    let now = reg.now_us();
    let counters = lock_unpoisoned(&reg.counters);
    for (name, c) in counters.iter() {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":{},\"ph\":\"C\",\"ts\":{now},\"pid\":1,\"tid\":0,\"args\":{{\"value\":{}}}}}",
            quote(name),
            c.get()
        );
    }
    drop(counters);
    out.push_str("\n],\n");
    out.push_str(&summary_body());
    out.push_str("}\n");
    out
}

/// Writes the observability file (trace + summary) to `path`, creating
/// parent directories.
///
/// # Errors
///
/// Any I/O error from creating directories or writing the file.
pub fn write_trace(path: &Path) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, render_trace())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn nested_spans_emit_balanced_b_e_pairs() {
        let records = vec![
            // Child completes first (recorded first), parent second.
            SpanRecord {
                name: "child",
                start_us: 10,
                dur_us: Some(5),
                sim_us: None,
            },
            SpanRecord {
                name: "parent",
                start_us: 0,
                dur_us: Some(100),
                sim_us: Some(7),
            },
            SpanRecord {
                name: "mark",
                start_us: 50,
                dur_us: None,
                sim_us: None,
            },
        ];
        let mut out = String::new();
        let mut first = true;
        push_thread_events(&mut out, 3, &records, &mut first);
        let json = format!("[{}]", out);
        let parsed = parse(&json).expect("valid JSON");
        let Value::Array(events) = parsed else {
            panic!("expected array")
        };
        let seq: Vec<(String, String)> = events
            .iter()
            .map(|e| {
                (
                    e.get("name").unwrap().as_str().unwrap().to_owned(),
                    e.get("ph").unwrap().as_str().unwrap().to_owned(),
                )
            })
            .collect();
        assert_eq!(
            seq,
            vec![
                ("parent".into(), "B".into()),
                ("child".into(), "B".into()),
                ("child".into(), "E".into()),
                ("mark".into(), "i".into()),
                ("parent".into(), "E".into()),
            ]
        );
        // The sim-time annotation rides on the parent's B record.
        let parent_b = &events[0];
        assert_eq!(
            parent_b
                .get("args")
                .and_then(|a| a.get("sim_us"))
                .and_then(Value::as_f64),
            Some(7.0)
        );
    }

    #[test]
    fn full_trace_renders_valid_json() {
        let _guard = crate::tests::GLOBAL_TEST_LOCK.lock().unwrap();
        crate::reset();
        crate::enable();
        {
            let _outer = crate::span("export.outer");
            let _inner = crate::span("export.inner");
            crate::inc("export.counter");
            crate::gauge_set("export.gauge", -4);
            crate::observe("export.hist", 33);
        }
        let text = render_trace();
        crate::disable();
        crate::reset();
        let parsed = parse(&text).expect("valid JSON");
        let events = parsed.get("traceEvents").expect("traceEvents key");
        let Value::Array(events) = events else {
            panic!("traceEvents must be an array")
        };
        assert!(!events.is_empty());
        assert!(parsed
            .get("counters")
            .and_then(|c| c.get("export.counter"))
            .is_some());
        assert_eq!(
            parsed
                .get("gauges")
                .and_then(|g| g.get("export.gauge"))
                .and_then(crate::json::Value::as_f64),
            Some(-4.0)
        );
        assert!(parsed
            .get("histograms")
            .and_then(|h| h.get("export.hist"))
            .is_some());
        assert!(parsed
            .get("spans")
            .and_then(|s| s.get("export.outer"))
            .is_some());
        // Counters appear as ph:"C" records too.
        assert!(events.iter().any(|e| {
            e.get("ph").and_then(Value::as_str) == Some("C")
                && e.get("name").and_then(Value::as_str) == Some("export.counter")
        }));
    }
}
