//! Trace serialisation: a line-oriented text format for external
//! analysis (gnuplot, pandas, …) that round-trips losslessly.
//!
//! One event per line:
//!
//! ```text
//! <time_us> <kind> <fields…>
//! ```
//!
//! Kinds: `flap <prefix> up|down`, `linkflap <a> <b> up|down`,
//! `sent <from> <to> A|W`, `recv <from> <to> A|W`,
//! `best <node> reachable|unreachable <path_len>`,
//! `suppress <node> <peer> <prefix>`,
//! `reuse <node> <peer> <prefix> noisy|silent`,
//! `penalty <node> <peer> <prefix> <value> <charge> 0|1`.

use std::fmt::Write as _;

use rfd_sim::SimTime;

use crate::events::TraceEventKind;
use crate::trace::Trace;

/// Error from [`parse_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct ParseTraceError {
    /// 1-based line number.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseTraceError {}

/// Serialises a trace to the line format.
pub fn export_trace(trace: &Trace) -> String {
    let mut out = String::new();
    for e in trace.iter() {
        let t = e.at.as_micros();
        match e.kind {
            TraceEventKind::OriginFlap { prefix, up } => {
                let _ = writeln!(out, "{t} flap {prefix} {}", updown(up));
            }
            TraceEventKind::LinkFlap { a, b, up } => {
                let _ = writeln!(out, "{t} linkflap {a} {b} {}", updown(up));
            }
            TraceEventKind::UpdateSent {
                from,
                to,
                withdrawal,
            } => {
                let _ = writeln!(out, "{t} sent {from} {to} {}", aw(withdrawal));
            }
            TraceEventKind::UpdateReceived {
                from,
                to,
                withdrawal,
            } => {
                let _ = writeln!(out, "{t} recv {from} {to} {}", aw(withdrawal));
            }
            TraceEventKind::BestRouteChanged {
                node,
                unreachable,
                path_len,
            } => {
                let _ = writeln!(
                    out,
                    "{t} best {node} {} {path_len}",
                    if unreachable {
                        "unreachable"
                    } else {
                        "reachable"
                    }
                );
            }
            TraceEventKind::Suppressed { node, peer, prefix } => {
                let _ = writeln!(out, "{t} suppress {node} {peer} {prefix}");
            }
            TraceEventKind::Reused {
                node,
                peer,
                prefix,
                noisy,
            } => {
                let _ = writeln!(
                    out,
                    "{t} reuse {node} {peer} {prefix} {}",
                    if noisy { "noisy" } else { "silent" }
                );
            }
            TraceEventKind::PenaltySample {
                node,
                peer,
                prefix,
                value,
                charge,
                suppressed,
            } => {
                let _ = writeln!(
                    out,
                    "{t} penalty {node} {peer} {prefix} {value} {charge} {}",
                    u8::from(suppressed)
                );
            }
        }
    }
    out
}

fn updown(up: bool) -> &'static str {
    if up {
        "up"
    } else {
        "down"
    }
}

fn aw(withdrawal: bool) -> &'static str {
    if withdrawal {
        "W"
    } else {
        "A"
    }
}

/// Parses the line format back into a trace.
///
/// # Errors
///
/// Returns [`ParseTraceError`] with the offending line on any malformed
/// input (including out-of-order timestamps).
pub fn parse_trace(text: &str) -> Result<Trace, ParseTraceError> {
    let mut trace = Trace::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |reason: &str| ParseTraceError {
            line: line_no,
            reason: reason.to_owned(),
        };
        let mut parts = line.split_whitespace();
        let at: u64 = parts
            .next()
            .ok_or_else(|| err("missing timestamp"))?
            .parse()
            .map_err(|_| err("bad timestamp"))?;
        let at = SimTime::from_micros(at);
        let kind = parts.next().ok_or_else(|| err("missing kind"))?;
        let next_u32 = |parts: &mut std::str::SplitWhitespace<'_>| -> Result<u32, ParseTraceError> {
            parts
                .next()
                .ok_or_else(|| err("missing field"))?
                .parse()
                .map_err(|_| err("bad integer field"))
        };
        let event = match kind {
            "flap" => {
                let prefix = next_u32(&mut parts)?;
                TraceEventKind::OriginFlap {
                    prefix,
                    up: parse_updown(parts.next(), &err)?,
                }
            }
            "linkflap" => {
                let a = next_u32(&mut parts)?;
                let b = next_u32(&mut parts)?;
                TraceEventKind::LinkFlap {
                    a,
                    b,
                    up: parse_updown(parts.next(), &err)?,
                }
            }
            "sent" | "recv" => {
                let from = next_u32(&mut parts)?;
                let to = next_u32(&mut parts)?;
                let withdrawal = match parts.next() {
                    Some("W") => true,
                    Some("A") => false,
                    _ => return Err(err("expected A or W")),
                };
                if kind == "sent" {
                    TraceEventKind::UpdateSent {
                        from,
                        to,
                        withdrawal,
                    }
                } else {
                    TraceEventKind::UpdateReceived {
                        from,
                        to,
                        withdrawal,
                    }
                }
            }
            "best" => {
                let node = next_u32(&mut parts)?;
                let unreachable = match parts.next() {
                    Some("unreachable") => true,
                    Some("reachable") => false,
                    _ => return Err(err("expected reachable|unreachable")),
                };
                let path_len = next_u32(&mut parts)?;
                TraceEventKind::BestRouteChanged {
                    node,
                    unreachable,
                    path_len,
                }
            }
            "suppress" => TraceEventKind::Suppressed {
                node: next_u32(&mut parts)?,
                peer: next_u32(&mut parts)?,
                prefix: next_u32(&mut parts)?,
            },
            "reuse" => {
                let node = next_u32(&mut parts)?;
                let peer = next_u32(&mut parts)?;
                let prefix = next_u32(&mut parts)?;
                let noisy = match parts.next() {
                    Some("noisy") => true,
                    Some("silent") => false,
                    _ => return Err(err("expected noisy|silent")),
                };
                TraceEventKind::Reused {
                    node,
                    peer,
                    prefix,
                    noisy,
                }
            }
            "penalty" => {
                let node = next_u32(&mut parts)?;
                let peer = next_u32(&mut parts)?;
                let prefix = next_u32(&mut parts)?;
                let value: f64 = parts
                    .next()
                    .ok_or_else(|| err("missing value"))?
                    .parse()
                    .map_err(|_| err("bad value"))?;
                let charge: f64 = parts
                    .next()
                    .ok_or_else(|| err("missing charge"))?
                    .parse()
                    .map_err(|_| err("bad charge"))?;
                let suppressed = match parts.next() {
                    Some("1") => true,
                    Some("0") => false,
                    _ => return Err(err("expected 0|1")),
                };
                TraceEventKind::PenaltySample {
                    node,
                    peer,
                    prefix,
                    value,
                    charge,
                    suppressed,
                }
            }
            other => return Err(err(&format!("unknown kind {other}"))),
        };
        if parts.next().is_some() {
            return Err(err("trailing fields"));
        }
        if trace.last_at().is_some_and(|last| at < last) {
            return Err(err("timestamps must be non-decreasing"));
        }
        trace.record(at, event);
    }
    Ok(trace)
}

fn parse_updown(
    field: Option<&str>,
    err: &impl Fn(&str) -> ParseTraceError,
) -> Result<bool, ParseTraceError> {
    match field {
        Some("up") => Ok(true),
        Some("down") => Ok(false),
        _ => Err(err("expected up|down")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn full_trace() -> Trace {
        let mut tr = Trace::new();
        tr.record(
            t(0),
            TraceEventKind::OriginFlap {
                prefix: 0,
                up: false,
            },
        );
        tr.record(
            t(1),
            TraceEventKind::UpdateSent {
                from: 0,
                to: 1,
                withdrawal: true,
            },
        );
        tr.record(
            t(2),
            TraceEventKind::UpdateReceived {
                from: 0,
                to: 1,
                withdrawal: true,
            },
        );
        tr.record(
            t(2),
            TraceEventKind::PenaltySample {
                node: 1,
                peer: 0,
                prefix: 0,
                value: 1000.0,
                charge: 1000.0,
                suppressed: false,
            },
        );
        tr.record(
            t(2),
            TraceEventKind::BestRouteChanged {
                node: 1,
                unreachable: true,
                path_len: 0,
            },
        );
        tr.record(
            t(3),
            TraceEventKind::Suppressed {
                node: 1,
                peer: 0,
                prefix: 0,
            },
        );
        tr.record(
            t(4),
            TraceEventKind::LinkFlap {
                a: 3,
                b: 4,
                up: true,
            },
        );
        tr.record(
            t(900),
            TraceEventKind::Reused {
                node: 1,
                peer: 0,
                prefix: 0,
                noisy: false,
            },
        );
        tr
    }

    #[test]
    fn round_trip_preserves_everything() {
        let original = full_trace();
        let text = export_trace(&original);
        let parsed = parse_trace(&text).unwrap();
        assert_eq!(parsed.len(), original.len());
        for (a, b) in original.iter().zip(parsed.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let text = "# comment\n\n0 flap 0 down\n";
        let tr = parse_trace(text).unwrap();
        assert_eq!(tr.len(), 1);
    }

    #[test]
    fn malformed_lines_report_position() {
        for (text, needle) in [
            ("x flap 0 down", "bad timestamp"),
            ("0 flap 0 sideways", "up|down"),
            ("0 sent 1 2 X", "A or W"),
            ("0 unknownkind", "unknown kind"),
            ("0 reuse 1 2 0 noisy extra", "trailing"),
            ("5000000 flap 0 down\n0 flap 0 up", "non-decreasing"),
            ("0 penalty 1 2 0 3.0 bad 0", "bad charge"),
            ("0 flap 0 down\n\u{fffd}\n", "bad timestamp"),
            ("0 unknownkind 1 2\n", "unknown kind"),
            ("0 suppress 1 2 0 extra\n", "trailing"),
        ] {
            let e = parse_trace(text).unwrap_err();
            assert!(e.reason.contains(needle), "{text:?} gave {e}");
        }
    }

    #[test]
    fn a_line_back_in_time_is_an_error_not_a_panic() {
        let e = parse_trace("10 flap 0 down\n10 sent 1 2 W\n9 recv 1 2 W\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.reason.contains("non-decreasing"), "{e}");
        // Beyond the packed header's gap field, and back again.
        let far = 1u64 << 40;
        let e = parse_trace(&format!(
            "0 flap 0 down\n{far} flap 0 up\n{} recv 1 2 A\n",
            far - 1
        ))
        .unwrap_err();
        assert_eq!(e.line, 3);
    }

    #[test]
    fn error_line_numbers_are_one_based() {
        let e = parse_trace("0 flap 0 down\nbroken").unwrap_err();
        assert_eq!(e.line, 2);
    }
}
