//! JSON emit for the ledger's files. Parsing reuses `rfd_obs::json`;
//! this is the matching writer over the same [`Value`].

use std::collections::BTreeMap;

pub use rfd_obs::json::{parse, Value};

pub fn num(n: f64) -> Value {
    Value::Num(n)
}

pub fn count(n: u64) -> Value {
    Value::Num(n as f64)
}

pub fn text(s: &str) -> Value {
    Value::Str(s.to_owned())
}

pub fn object<K: Into<String>>(members: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// Compact one-line rendering. Non-finite numbers become `null`
/// (JSON has no spelling for them).
pub fn emit(value: &Value) -> String {
    let mut out = String::new();
    write(value, None, 0, &mut out);
    out
}

/// Indented rendering for files people read and diff.
pub fn emit_pretty(value: &Value) -> String {
    let mut out = String::new();
    write(value, Some(1), 0, &mut out);
    out.push('\n');
    out
}

fn newline(indent: Option<usize>, depth: usize, out: &mut String) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write(value: &Value, indent: Option<usize>, depth: usize, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
        Value::Num(_) => out.push_str("null"),
        Value::Str(s) => write_str(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                newline(indent, depth + 1, out);
                write(item, indent, depth + 1, out);
            }
            if !items.is_empty() {
                newline(indent, depth, out);
            }
            out.push(']');
        }
        Value::Object(map) => write_object(map, indent, depth, out),
    }
}

fn write_object(
    map: &BTreeMap<String, Value>,
    indent: Option<usize>,
    depth: usize,
    out: &mut String,
) {
    out.push('{');
    for (i, (key, item)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        newline(indent, depth + 1, out);
        write_str(key, out);
        out.push(':');
        if indent.is_some() {
            out.push(' ');
        }
        write(item, indent, depth + 1, out);
    }
    if !map.is_empty() {
        newline(indent, depth, out);
    }
    out.push('}');
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_then_parse_is_the_identity() {
        let value = object([
            ("name", text("a \"quoted\"\\ line\nbreak\ttab \u{1} µs")),
            ("n", count(175_119)),
            ("x", num(0.000_123_456_789)),
            ("neg", num(-2.5e-7)),
            ("flag", Value::Bool(true)),
            ("nothing", Value::Null),
            (
                "list",
                Value::Array(vec![num(1.0), Value::Array(vec![]), object::<&str>([])]),
            ),
        ]);
        assert_eq!(parse(&emit(&value)).unwrap(), value);
        assert_eq!(parse(&emit_pretty(&value)).unwrap(), value);
        assert!(!emit(&value).contains('\n'));
    }

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(
            emit(&Value::Array(vec![num(f64::NAN), num(f64::INFINITY)])),
            "[null,null]"
        );
    }
}
