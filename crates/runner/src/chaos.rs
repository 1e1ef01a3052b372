//! Deterministic fault injection for the runner.
//!
//! A [`ChaosPlan`] names grid cells (by journal key) that panic instead
//! of executing. Faults are *deterministic* — the same plan against the
//! same grid panics the same cells on every run — which is what lets the
//! end-to-end tests and the CI chaos job prove containment and resume
//! instead of hoping for them.
//!
//! Plans come from the `RFD_CHAOS` environment variable, one
//! `panic@KEY` fault per `;`-separated part:
//!
//! ```text
//! panic@damped|n=1|seed=2
//! panic@damped|n=1|seed=2;panic@undamped|n=3|seed=1
//! ```

/// A deterministic fault-injection plan (empty by default: no faults).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChaosPlan {
    keys: Vec<String>,
}

impl ChaosPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        ChaosPlan::default()
    }

    /// Whether the cell with journal key `key` is to panic.
    pub fn panics(&self, key: &str) -> bool {
        self.keys.iter().any(|k| k == key)
    }

    /// Parses a `;`-separated list of `panic@KEY` faults.
    ///
    /// # Errors
    ///
    /// Names the first part that is not `panic@KEY` with a non-empty
    /// key.
    pub fn parse(spec: &str) -> Result<ChaosPlan, String> {
        let mut plan = ChaosPlan::default();
        for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            match part.split_once('@') {
                Some(("panic", key)) if !key.is_empty() => plan.keys.push(key.to_owned()),
                _ => {
                    return Err(format!(
                        "bad chaos spec: `{part}` is not panic@CELL-KEY (the only fault)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// The plan requested by the `RFD_CHAOS` environment variable
    /// (empty when unset or blank).
    ///
    /// # Errors
    ///
    /// The [`ChaosPlan::parse`] error when the variable is set but
    /// malformed — chaos specs fail loudly, never silently no-op.
    pub fn from_env() -> Result<ChaosPlan, String> {
        std::env::var("RFD_CHAOS").map_or(Ok(ChaosPlan::none()), |spec| ChaosPlan::parse(&spec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_panic_faults() {
        let plan = ChaosPlan::parse("panic@a|n=1|seed=2; panic@b|n=0|seed=1").expect("valid spec");
        assert!(plan.panics("a|n=1|seed=2"));
        assert!(plan.panics("b|n=0|seed=1"));
        assert!(!plan.panics("unlisted"));
    }

    #[test]
    fn keys_may_contain_pipes_and_spaces() {
        let key = "Full Damping (simulation, mesh)|n=2|seed=1";
        let plan = ChaosPlan::parse(&format!("panic@{key}")).unwrap();
        assert!(plan.panics(key));
    }

    #[test]
    fn rejects_everything_but_panic_at_key() {
        for bad in [
            "panic",
            "panic@",
            "explode@cell",
            "hang=1@x",
            "shortwrite@cell",
            "panic*2@cell",
        ] {
            let err = ChaosPlan::parse(&format!("panic@ok;{bad}")).expect_err(bad);
            let says = format!("bad chaos spec: `{bad}` is not panic@CELL-KEY");
            assert!(err.starts_with(&says), "{bad}: {err}");
        }
    }

    #[test]
    fn empty_spec_is_no_faults() {
        assert_eq!(ChaosPlan::parse(""), Ok(ChaosPlan::none()));
        assert_eq!(ChaosPlan::parse(" ; ;"), Ok(ChaosPlan::none()));
        assert!(!ChaosPlan::none().panics("x"));
    }
}
