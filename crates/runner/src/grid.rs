//! Grid identity: the fingerprint a journal's header line carries.
//!
//! The runner itself sees only keyed cells; the caller owns the grid
//! (`rfd-experiments`' sweep enumerates *series × pulse counts × seeds*)
//! and names it with a [`GridFingerprint`], so `--resume` can refuse a
//! journal that some other grid wrote.

use std::fmt;

use rfd_snap::Fingerprint;

/// FNV-1a hash of a sequence of string parts (with separators, so
/// `["ab","c"]` and `["a","bc"]` differ). Callers fold
/// scenario-defining parameters into a grid's fingerprint salt with
/// this, making the journal fingerprint sensitive to RFD/BGP
/// configuration that the grid axes alone can't see.
pub fn hash_params<'a>(parts: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h = Fingerprint::new();
    for part in parts {
        h.bytes(&[0x1f]).bytes(part.as_bytes());
    }
    h.finish()
}

/// The identity of a grid, written as the journal's header line and
/// checked on `--resume`: a journal may only resume the grid that wrote
/// it (same name, same axis shapes, same parameter hash).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridFingerprint {
    /// Grid name (also the journal file stem).
    pub grid: String,
    /// Number of series.
    pub series: usize,
    /// Number of pulse counts.
    pub pulses: usize,
    /// Number of seeds.
    pub seeds: usize,
    /// Total cell count.
    pub cells: usize,
    /// FNV-1a hash over name, series labels, pulse values, seed values
    /// and the caller-supplied parameter salt.
    pub param_hash: u64,
}

impl GridFingerprint {
    /// The fingerprint of the grid `name` = `labels` × `pulses` ×
    /// `seeds`, with `salt` folding in what the axes can't see
    /// (typically via [`hash_params`]).
    ///
    /// # Examples
    ///
    /// ```
    /// use rfd_runner::GridFingerprint;
    ///
    /// let fp = GridFingerprint::new("demo", &["mesh", "internet"], &[1, 2, 3], &[11, 12], 0);
    /// assert_eq!((fp.series, fp.pulses, fp.seeds, fp.cells), (2, 3, 2, 12));
    /// let salted = GridFingerprint::new("demo", &["mesh", "internet"], &[1, 2, 3], &[11, 12], 7);
    /// assert_ne!(fp.param_hash, salted.param_hash);
    /// ```
    pub fn new(name: &str, labels: &[&str], pulses: &[usize], seeds: &[u64], salt: u64) -> Self {
        let mut h = Fingerprint::new();
        h.bytes(name.as_bytes());
        for label in labels {
            h.bytes(b"\x1fseries\x1f").bytes(label.as_bytes());
        }
        for &n in pulses {
            h.bytes(b"\x1fpulses\x1f").u64(n as u64);
        }
        for &seed in seeds {
            h.bytes(b"\x1fseed\x1f").u64(seed);
        }
        h.bytes(b"\x1fsalt\x1f").u64(salt);
        GridFingerprint {
            grid: name.to_owned(),
            series: labels.len(),
            pulses: pulses.len(),
            seeds: seeds.len(),
            cells: labels.len() * pulses.len() * seeds.len(),
            param_hash: h.finish(),
        }
    }
}

impl fmt::Display for GridFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grid '{}' ({} series x {} pulses x {} seeds = {} cells, params {:016x})",
            self.grid, self.series, self.pulses, self.seeds, self.cells, self.param_hash
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(name: &str, seeds: &[u64], salt: u64) -> GridFingerprint {
        GridFingerprint::new(name, &["a", "b"], &[1, 5], seeds, salt)
    }

    #[test]
    fn fingerprints_are_stable_and_shape_sensitive() {
        let base = fp("g", &[100, 200, 300], 0);
        assert_eq!(
            base,
            fp("g", &[100, 200, 300], 0),
            "fingerprint must be pure"
        );
        assert_eq!((base.series, base.pulses, base.seeds), (2, 2, 3));
        assert_eq!(base.cells, 12);

        // Any identity change moves the parameter hash.
        for other in [
            fp("other", &[100, 200, 300], 0),
            fp("g", &[100, 200, 301], 0),
            fp("g", &[100, 200, 300], 7),
        ] {
            assert_ne!(base.param_hash, other.param_hash, "{other}");
        }
    }

    #[test]
    fn hash_params_separates_parts() {
        assert_ne!(hash_params(["ab", "c"]), hash_params(["a", "bc"]));
        assert_ne!(hash_params(["x"]), hash_params(["x", ""]));
        assert_eq!(hash_params(["x", "y"]), hash_params(["x", "y"]));
    }
}
