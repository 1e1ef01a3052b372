//! The harness's own in-memory span recorder. Spans wrap the calls
//! this benchmark makes into each layer's public functions; nothing
//! inside the program is instrumented. Written out at exit as
//! Chrome-trace JSON.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
}

/// Recorder for one workload's traced pass. A disabled recorder runs
/// the wrapped closure and records nothing, so untraced repetitions go
/// through the same code.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, child of the innermost
    /// open span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in the first span called `name`, or 0 if none.
    pub fn seconds(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .find(|s| s.name == name)
            .map_or(0.0, |s| (s.end_ns - s.start_ns) as f64 / 1e9)
    }

    /// Chrome-trace JSON (`ph: "X"` complete events, µs). `args` carry
    /// the span's own index, its parent's, its self time and the
    /// workload id the spans share.
    pub fn chrome_trace(&self, workload: &str) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::from("{\"traceEvents\":[");
        for (i, (s, self_ns)) in self.spans.iter().zip(&selfs).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"self_us\":{:.3},\"workload\":\"{workload}\"}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                *self_ns as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of each span: its duration minus the part of that interval
/// its direct children cover. Children of one parent never overlap
/// (they come from nested `scope` calls on one thread).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            selfs[p] = selfs[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span("rep", 0, 100, None),
            span("setup", 10, 40, Some(0)),
            span("new", 15, 25, Some(1)),
            span("run", 50, 90, Some(0)),
        ];
        // rep: 100 - (30 + 40); setup: 30 - 10; grandchildren count once.
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn scopes_nest_and_a_disabled_recorder_records_nothing() {
        let mut on = Spans::new(true);
        let got = on.scope("outer", |s| {
            s.scope("inner", |_| 7) + s.scope("second", |_| 1)
        });
        assert_eq!(got, 8);
        let parents: Vec<_> = on.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![("outer", None), ("inner", Some(0)), ("second", Some(0))]
        );
        assert!(on.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let trace = rfd_obs::json::parse(&on.chrome_trace("w")).expect("valid JSON");
        assert_eq!(
            trace.get("traceEvents").unwrap().as_array().unwrap().len(),
            3
        );

        let mut off = Spans::new(false);
        assert_eq!(off.scope("outer", |s| s.scope("inner", |_| 7)), 7);
        assert!(off.spans().is_empty());
    }
}
