//! Pinned simulated statistics: `expected/<workload>[.quick].json`
//! holds, for one seed, the exact statistics of each repetition. A run
//! on that seed must reproduce them; `--bless` rewrites them.

use std::path::PathBuf;

use crate::json::{self, Value};
use crate::workloads::{Size, Stats, Workload};

#[derive(Debug, Clone, PartialEq)]
pub struct Pins {
    pub seed: u64,
    /// Statistics of repetition 0, 1, … in order.
    pub reps: Vec<Stats>,
}

/// Where `workload`'s pins live. A sharded run must produce its
/// sequential twin's statistics, so it checks against the twin's file
/// and has none of its own.
pub fn path(workload: &Workload) -> PathBuf {
    let pinned = workload.sequential_twin().unwrap_or(*workload);
    let suffix = match workload.size {
        Size::Full => "",
        Size::Quick => ".quick",
    };
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("expected")
        .join(format!("{}{suffix}.json", pinned.name))
}

impl Pins {
    /// The committed pins of `workload`, or `None` when there is no
    /// file yet (before the first `--bless`).
    ///
    /// # Panics
    ///
    /// Panics on a file that exists but does not parse: a damaged pin
    /// must not read as "nothing to check".
    pub fn load(workload: &Workload) -> Option<Pins> {
        let path = path(workload);
        let text = std::fs::read_to_string(&path).ok()?;
        Some(Pins::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
    }

    pub fn parse(text: &str) -> Result<Pins, String> {
        let root = json::parse(text).map_err(|e| e.to_string())?;
        let seed = root.get("seed").and_then(Value::as_u64).ok_or("no seed")?;
        let reps = root
            .get("reps")
            .and_then(Value::as_array)
            .ok_or("no reps")?;
        let reps = reps
            .iter()
            .map(|rep| {
                let members = rep.as_object().ok_or("a rep is not an object")?;
                members
                    .iter()
                    .map(|(name, value)| {
                        let value = value.as_u64().ok_or(format!("`{name}` is not a count"))?;
                        Ok((name.clone(), value))
                    })
                    .collect::<Result<Stats, String>>()
            })
            .collect::<Result<Vec<Stats>, String>>()?;
        Ok(Pins { seed, reps })
    }

    pub fn to_json(&self) -> String {
        let reps = self
            .reps
            .iter()
            .map(|stats| json::object(stats.iter().map(|(k, v)| (k.as_str(), json::count(*v)))))
            .collect();
        json::emit_pretty(&json::object([
            ("seed", json::count(self.seed)),
            ("reps", Value::Array(reps)),
        ]))
    }

    /// Compares repetition `index` of a run on `seed` with its pin.
    /// Repetitions beyond the pinned ones, and other seeds, have
    /// nothing to compare.
    pub fn check(&self, seed: u64, index: usize, stats: &Stats) -> Result<(), String> {
        match self.reps.get(index) {
            Some(pinned) if seed == self.seed && pinned != stats => Err(format!(
                "rep {index} statistics {stats:?} differ from the pinned {pinned:?}"
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pins() -> Pins {
        let rep = |events, messages| {
            Stats::from([
                ("events_processed".to_owned(), events),
                ("message_count".to_owned(), messages),
            ])
        };
        Pins {
            seed: 7,
            reps: vec![rep(175_119, 118_076), rep(205_368, 138_242)],
        }
    }

    #[test]
    fn file_round_trips() {
        assert_eq!(Pins::parse(&pins().to_json()), Ok(pins()));
    }

    #[test]
    fn damaged_files_are_errors() {
        assert!(Pins::parse("{\"seed\": 7}").is_err());
        assert!(Pins::parse("{\"seed\": 7, \"reps\": [{\"events_processed\": -1}]}").is_err());
        assert!(Pins::parse("{\"seed\": 7, \"reps\": [3]}").is_err());
    }

    #[test]
    fn only_pinned_reps_of_the_pinned_seed_are_compared() {
        let pins = pins();
        let good = pins.reps[1].clone();
        let mut bad = good.clone();
        *bad.get_mut("message_count").unwrap() += 1;
        assert!(pins.check(7, 1, &good).is_ok());
        assert!(pins.check(7, 1, &bad).is_err());
        assert!(pins.check(8, 1, &bad).is_ok());
        assert!(pins.check(7, 2, &bad).is_ok());
    }
}
