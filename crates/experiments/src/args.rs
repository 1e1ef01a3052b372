//! One command-line grammar for every front end.
//!
//! A command declares a `const` [`Table`] of [`Flag`] rows; [`parse`]
//! is the only tokenizer (`--flag value` and `--flag=value` alike;
//! unknown flags, missing values and values handed to switches are
//! refused by name); the typed getters on [`Parsed`] read the result;
//! [`render_usage`] prints the same tables as help text. Adding a flag
//! is one row plus one getter call — a getter asked for a name that is
//! not in its table panics, so help and parser cannot drift apart.

use std::fmt;
use std::str::FromStr;

use rfd_sim::SimDuration;

/// A CLI usage error: one line naming the offending flag.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// What a flag takes after its name; the string is the placeholder the
/// usage text shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Takes {
    /// Nothing: a switch.
    Nothing,
    /// One value, as the next token or after `=`.
    Value(&'static str),
    /// An optional value, accepted only after `=` (`--obs[=PATH]`).
    OptionalEq(&'static str),
}

/// One row of a flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, dashes included.
    pub name: &'static str,
    /// Whether and how it takes a value.
    pub takes: Takes,
    /// One-line help.
    pub help: &'static str,
    /// [`parse`] refuses a command line without it.
    pub required: bool,
}

impl Flag {
    /// An optional flag; given twice, its last occurrence wins.
    pub const fn new(name: &'static str, takes: Takes, help: &'static str) -> Flag {
        Flag {
            name,
            takes,
            help,
            required: false,
        }
    }

    /// A switch.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag::new(name, Takes::Nothing, help)
    }

    /// A flag with a value, shown as `placeholder` in the usage text.
    pub const fn value(name: &'static str, placeholder: &'static str, help: &'static str) -> Flag {
        Flag::new(name, Takes::Value(placeholder), help)
    }

    /// The same flag, mandatory.
    pub const fn required(mut self) -> Flag {
        self.required = true;
        self
    }

    /// The flag as the usage text spells it: `--threads N`, `--obs[=PATH]`.
    fn spelled(&self) -> String {
        match self.takes {
            Takes::Nothing => self.name.to_owned(),
            Takes::Value(v) => format!("{} {v}", self.name),
            Takes::OptionalEq(v) => format!("{}[={v}]", self.name),
        }
    }
}

/// A command's flags: its own rows plus, optionally, every row of
/// another table (`rfd run` and `rfd explain` take every `SCENARIO` flag).
#[derive(Debug, Clone, Copy)]
pub struct Table {
    /// How the command is invoked, positional arguments included.
    pub command: &'static str,
    /// The command's own flags.
    pub flags: &'static [Flag],
    /// A table whose flags this command also accepts.
    pub base: Option<&'static Table>,
}

impl Table {
    /// Every flag the command accepts: its own, then its base's.
    pub fn all_flags(&self) -> impl Iterator<Item = &'static Flag> {
        let inherited = self.base.into_iter().flat_map(|b| b.flags);
        self.flags.iter().chain(inherited)
    }

    fn find(&self, name: &str) -> Option<&'static Flag> {
        self.all_flags().find(|f| f.name == name)
    }
}

/// A command line tokenized against a [`Table`].
#[derive(Debug, Clone)]
pub struct Parsed<'a> {
    table: &'static Table,
    hits: Vec<(&'static str, Option<&'a str>)>,
}

/// Tokenizes `args` against `table`. The [`CliError`] names the token on
/// an unknown flag, a missing value or a value handed to a switch, and
/// the flag when a required one is absent.
pub fn parse<'a>(table: &'static Table, args: &'a [String]) -> Result<Parsed<'a>, CliError> {
    let mut hits = Vec::new();
    let mut it = args.iter();
    while let Some(token) = it.next() {
        let (name, inline) = match token.split_once('=') {
            Some((name, value)) => (name, Some(value)),
            None => (token.as_str(), None),
        };
        let flag = table
            .find(name)
            .ok_or_else(|| CliError(format!("unknown flag `{token}`")))?;
        let value = match (flag.takes, inline) {
            (Takes::Nothing, Some(_)) => {
                return Err(CliError(format!("{name} takes no value, got `{token}`")))
            }
            (Takes::Value(_), None) => {
                let next = it.next().map(String::as_str);
                Some(next.ok_or_else(|| CliError(format!("{name} needs a value")))?)
            }
            _ => inline,
        };
        hits.push((flag.name, value));
    }
    let given = |f: &&Flag| hits.iter().any(|(name, _)| *name == f.name);
    if let Some(missing) = table.all_flags().find(|f| f.required && !given(f)) {
        let (command, flag) = (table.command, missing.spelled());
        return Err(CliError(format!("`{command}` needs {flag}")));
    }
    Ok(Parsed { table, hits })
}

impl<'a> Parsed<'a> {
    /// The table row for `name`. Panics when there is none: a flag read
    /// but never declared would be an "unknown flag" for every user.
    fn flag(&self, name: &str) -> &'static Flag {
        let found = self.table.find(name);
        found.unwrap_or_else(|| panic!("{name} is not in the `{}` flag table", self.table.command))
    }

    /// The values of the occurrences of `name`, in order.
    fn hits(&self, name: &str) -> impl Iterator<Item = Option<&'a str>> + '_ {
        let name = self.flag(name).name;
        let of_flag = self.hits.iter().filter(move |(hit, _)| *hit == name);
        of_flag.map(|&(_, value)| value)
    }

    /// True when the flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.hits(name).next().is_some()
    }

    /// The value of the flag's last occurrence.
    pub fn get(&self, name: &str) -> Option<&'a str> {
        self.hits(name).last().flatten()
    }

    /// The flag's value parsed as `T`; the [`CliError`] names the flag,
    /// the value and `T`'s own parse error.
    pub fn parse<T: FromStr<Err: fmt::Display>>(&self, name: &str) -> Result<Option<T>, CliError> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|e| format!("bad {name} value `{v}`: {e}"))
        };
        self.get(name).map(parse).transpose().map_err(CliError)
    }

    /// The flag's value looked up in `choices`, which must be the
    /// `a|b|c` list its table placeholder shows; the [`CliError`] names
    /// the flag, the value and the choices.
    pub fn one_of<T: Clone>(
        &self,
        name: &str,
        choices: &[(&str, T)],
    ) -> Result<Option<T>, CliError> {
        let names: Vec<&str> = choices.iter().map(|(c, _)| *c).collect();
        let names = names.join("|");
        debug_assert!(
            matches!(self.flag(name).takes, Takes::Value(p) if p == names),
            "{name}: the table placeholder must list exactly `{names}`"
        );
        let pick = |v| match choices.iter().find(|(c, _)| *c == v) {
            Some((_, t)) => Ok(t.clone()),
            None => Err(CliError(format!("unknown {name} value `{v}` ({names})"))),
        };
        self.get(name).map(pick).transpose()
    }

    /// The flag's value as a duration in seconds: finite, positive and
    /// representable (a whole number of microseconds in `1..u64::MAX`);
    /// the [`CliError`] names the flag and the value.
    pub fn positive_secs(&self, name: &str) -> Result<Option<SimDuration>, CliError> {
        let Some(secs) = self.parse::<f64>(name)? else {
            return Ok(None);
        };
        let micros = (secs * 1e6).round();
        if secs.is_finite() && micros >= 1.0 && micros < u64::MAX as f64 {
            return Ok(Some(SimDuration::from_micros(micros as u64)));
        }
        let v = self.get(name).unwrap_or_default();
        Err(CliError(format!(
            "{name} must be a positive number of seconds, got `{v}`"
        )))
    }
}

/// Renders the tables as usage text: per command a synopsis wrapped at
/// 78 columns, then one help line per flag of its own. Optional flags
/// are bracketed, and a base table shows as "any `<base>` flag".
pub fn render_usage(tables: &[&Table]) -> String {
    let mut out = String::new();
    for table in tables {
        let words = table.flags.iter().map(|f| {
            if f.required {
                f.spelled()
            } else {
                format!("[{}]", f.spelled())
            }
        });
        let base = table.base.map(|b| format!("[any `{}` flag]", b.command));
        let mut line = format!("  {}", table.command);
        for word in words.chain(base) {
            if line.len() + 1 + word.len() > 78 {
                out.push_str(&line);
                line = format!("\n{:1$}", "", table.command.len() + 2);
            }
            line.push(' ');
            line.push_str(&word);
        }
        out.push_str(&line);
        out.push('\n');
        for f in table.flags {
            out.push_str(&format!("      {:<26} {}\n", f.spelled(), f.help));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: Table = Table {
        command: "base",
        flags: &[Flag::value("--n", "N", "a number")],
        base: None,
    };
    const DEMO: Table = Table {
        command: "demo",
        flags: &[
            Flag::switch("--fast", "go fast"),
            Flag::new("--obs", Takes::OptionalEq("PATH"), "record"),
            Flag::value("--mode", "a|b", "a choice"),
        ],
        base: Some(&BASE),
    };

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn last_occurrence_wins_and_errors_name_the_flag() {
        let a = args("--n 1 --fast --n=2 --obs=x.json --obs");
        let p = parse(&DEMO, &a).unwrap();
        assert_eq!(p.parse::<u32>("--n"), Ok(Some(2)));
        assert!(p.has("--fast") && p.has("--obs") && !p.has("--mode"));
        assert_eq!(p.get("--obs"), None, "the bare --obs came last");
        for (line, message) in [
            ("--nope", "unknown flag `--nope`"),
            ("stray", "unknown flag `stray`"),
            ("--n", "--n needs a value"),
            ("--fast=1", "--fast takes no value, got `--fast=1`"),
            ("--n x", "bad --n value `x`: invalid digit found in string"),
            ("--mode c", "unknown --mode value `c` (a|b)"),
        ] {
            let a = args(line);
            let read = |p: Parsed<'_>| {
                p.one_of("--mode", &[("a", 1), ("b", 2)])?;
                p.parse::<u32>("--n")
            };
            assert_eq!(
                parse(&DEMO, &a).and_then(read),
                Err(CliError(message.into()))
            );
        }
    }

    #[test]
    fn positive_secs_rounds_to_whole_microseconds() {
        let secs = |v: &str| {
            let a = ["--n".to_owned(), v.to_owned()];
            parse(&DEMO, &a).unwrap().positive_secs("--n")
        };
        assert_eq!(secs("1.5"), Ok(Some(SimDuration::from_millis(1500))));
        assert_eq!(secs("0.000001"), Ok(Some(SimDuration::from_micros(1))));
        let message = "--n must be a positive number of seconds, got `4e-7`";
        assert_eq!(secs("4e-7"), Err(CliError(message.into())));
    }

    #[test]
    #[should_panic(expected = "is not in the `demo` flag table")]
    fn reading_an_undeclared_flag_is_a_bug() {
        let _ = parse(&DEMO, &[]).unwrap().has("--undeclared");
    }
}
