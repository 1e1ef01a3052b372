//! Declarative run grids.
//!
//! A [`RunGrid`] is the cartesian product *series × pulse-counts ×
//! seeds*, enumerated in a fixed **grid order** (series-major, then
//! pulse count, then seed position). Grid order is the backbone of the
//! runner's determinism: every cell has a stable index, results are
//! committed by that index, and aggregation folds in that order — so
//! output is byte-identical no matter how many threads executed the
//! cells or in what order they completed.

use std::fmt;

use rfd_sim::DetRng;
use rfd_snap::Fingerprint;

/// FNV-1a hash of a sequence of string parts (with separators, so
/// `["ab","c"]` and `["a","bc"]` differ). Callers fold
/// scenario-defining parameters into a grid's [`RunGrid::param_salt`]
/// with this, making the journal fingerprint sensitive to RFD/BGP
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
/// it (same name, same axis shapes, same parameter hash) unless the
/// caller forces it.
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

impl fmt::Display for GridFingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grid '{}' ({} series x {} pulses x {} seeds = {} cells, params {:016x})",
            self.grid, self.series, self.pulses, self.seeds, self.cells, self.param_hash
        )
    }
}

/// One row of a grid: a labelled scenario payload.
#[derive(Debug, Clone)]
pub struct GridSeries<S> {
    /// Display label; also part of each cell's journal key.
    pub label: String,
    /// Caller-defined scenario description (topology kind, damping
    /// parameters, …) handed back to the executor for each cell.
    pub scenario: S,
}

/// A declarative experiment grid: scenarios × pulse counts × seeds.
///
/// # Examples
///
/// ```
/// use rfd_runner::RunGrid;
///
/// let grid = RunGrid::new("demo")
///     .series("mesh", 0.25)
///     .series("internet", 0.5)
///     .pulses(vec![1, 2, 3])
///     .seeds(vec![11, 12]);
/// assert_eq!(grid.cell_count(), 2 * 3 * 2);
/// let cells = grid.cells();
/// assert_eq!(cells[0].label, "mesh");
/// assert_eq!((cells[0].pulses, cells[0].seed), (1, 11));
/// // Grid order: seeds vary fastest, then pulses, then series.
/// assert_eq!((cells[1].pulses, cells[1].seed), (1, 12));
/// assert_eq!(cells[2].pulses, 2);
/// assert_eq!(cells[6].label, "internet");
/// ```
#[derive(Debug, Clone)]
pub struct RunGrid<S> {
    name: String,
    series: Vec<GridSeries<S>>,
    pulses: Vec<usize>,
    seeds: Vec<u64>,
    param_salt: u64,
}

/// One grid position: everything an executor needs to run it and the
/// journal needs to identify it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Position in grid order (0-based, dense).
    pub index: usize,
    /// Index into the grid's series list.
    pub series: usize,
    /// Label of the owning series.
    pub label: String,
    /// Number of up/down pulses to inject.
    pub pulses: usize,
    /// Simulation seed for this cell.
    pub seed: u64,
    /// Position of `seed` in the grid's seed list.
    pub seed_index: usize,
}

impl Cell {
    /// Stable journal key identifying this cell within its grid.
    pub fn key(&self) -> String {
        format!("{}|n={}|seed={}", self.label, self.pulses, self.seed)
    }
}

impl<S> RunGrid<S> {
    /// An empty grid with the given name (used for journal file names).
    pub fn new(name: impl Into<String>) -> Self {
        RunGrid {
            name: name.into(),
            series: Vec::new(),
            pulses: Vec::new(),
            seeds: Vec::new(),
            param_salt: 0,
        }
    }

    /// Folds scenario-defining parameters that the grid axes can't see
    /// (damping profiles, topology kinds, …) into the grid's
    /// fingerprint, typically via [`hash_params`]. Two grids with equal
    /// axes but different salts refuse to resume each other's journals.
    pub fn param_salt(mut self, salt: u64) -> Self {
        self.param_salt = salt;
        self
    }

    /// The journal-integrity fingerprint of this grid (see
    /// [`GridFingerprint`]).
    pub fn fingerprint(&self) -> GridFingerprint {
        let mut h = Fingerprint::new();
        h.bytes(self.name.as_bytes());
        for series in &self.series {
            h.bytes(b"\x1fseries\x1f").bytes(series.label.as_bytes());
        }
        for &pulses in &self.pulses {
            h.bytes(b"\x1fpulses\x1f").u64(pulses as u64);
        }
        for &seed in &self.seeds {
            h.bytes(b"\x1fseed\x1f").u64(seed);
        }
        h.bytes(b"\x1fsalt\x1f").u64(self.param_salt);
        GridFingerprint {
            grid: self.name.clone(),
            series: self.series.len(),
            pulses: self.pulses.len(),
            seeds: self.seeds.len(),
            cells: self.cell_count(),
            param_hash: h.finish(),
        }
    }

    /// Appends a labelled scenario series.
    pub fn series(mut self, label: impl Into<String>, scenario: S) -> Self {
        self.series.push(GridSeries {
            label: label.into(),
            scenario,
        });
        self
    }

    /// Sets the pulse-count axis.
    pub fn pulses(mut self, pulses: Vec<usize>) -> Self {
        self.pulses = pulses;
        self
    }

    /// Sets the seed axis explicitly. The *same* seed list is applied to
    /// every series, so paired comparisons (with/without a policy, say)
    /// see identical topologies and flap timings.
    pub fn seeds(mut self, seeds: Vec<u64>) -> Self {
        self.seeds = seeds;
        self
    }

    /// Sets the seed axis to `n` seeds derived from `base` by grid
    /// position: seed *i* is `DetRng::from_seed_and_label(base,
    /// "seed[i]")`. Statistically independent replicas, reproducible
    /// from a single number.
    pub fn seed_range(self, base: u64, n: usize) -> Self {
        let seeds = (0..n)
            .map(|i| DetRng::from_seed_and_label(base, &format!("seed[{i}]")).next_u64())
            .collect();
        self.seeds(seeds)
    }

    /// The grid's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The series axis.
    pub fn series_list(&self) -> &[GridSeries<S>] {
        &self.series
    }

    /// The pulse-count axis.
    pub fn pulse_list(&self) -> &[usize] {
        &self.pulses
    }

    /// The seed axis.
    pub fn seed_list(&self) -> &[u64] {
        &self.seeds
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.series.len() * self.pulses.len() * self.seeds.len()
    }

    /// Whether the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.cell_count() == 0
    }

    /// All cells in grid order (series-major, then pulses, then seeds).
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::with_capacity(self.cell_count());
        for (si, series) in self.series.iter().enumerate() {
            for &pulses in &self.pulses {
                for (ki, &seed) in self.seeds.iter().enumerate() {
                    out.push(Cell {
                        index: out.len(),
                        series: si,
                        label: series.label.clone(),
                        pulses,
                        seed,
                        seed_index: ki,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> RunGrid<u8> {
        RunGrid::new("g")
            .series("a", 1)
            .series("b", 2)
            .pulses(vec![1, 5])
            .seeds(vec![100, 200, 300])
    }

    #[test]
    fn cells_enumerate_in_grid_order() {
        let cells = grid().cells();
        assert_eq!(cells.len(), 12);
        // Dense, stable indices.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Seeds fastest, then pulses, then series.
        assert_eq!(
            cells
                .iter()
                .map(|c| (c.series, c.pulses, c.seed))
                .take(4)
                .collect::<Vec<_>>(),
            vec![(0, 1, 100), (0, 1, 200), (0, 1, 300), (0, 5, 100)]
        );
        assert_eq!(cells[6].series, 1);
        assert_eq!(cells[6].label, "b");
    }

    #[test]
    fn keys_identify_cells_uniquely() {
        let cells = grid().cells();
        let mut keys: Vec<_> = cells.iter().map(Cell::key).collect();
        assert_eq!(keys[0], "a|n=1|seed=100");
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), cells.len());
    }

    #[test]
    fn seed_range_is_deterministic_and_distinct() {
        let a = RunGrid::<u8>::new("x").seed_range(42, 5);
        let b = RunGrid::<u8>::new("y").seed_range(42, 5);
        assert_eq!(a.seed_list(), b.seed_list());
        assert_eq!(a.seed_list().len(), 5);
        let mut sorted = a.seed_list().to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "derived seeds must be distinct");

        let c = RunGrid::<u8>::new("z").seed_range(43, 5);
        assert_ne!(a.seed_list(), c.seed_list());
    }

    #[test]
    fn fingerprints_are_stable_and_shape_sensitive() {
        let base = grid().fingerprint();
        assert_eq!(base, grid().fingerprint(), "fingerprint must be pure");
        assert_eq!((base.series, base.pulses, base.seeds), (2, 2, 3));
        assert_eq!(base.cells, 12);

        // Any identity change moves the parameter hash.
        let renamed = RunGrid::new("other")
            .series("a", 1)
            .series("b", 2)
            .pulses(vec![1, 5])
            .seeds(vec![100, 200, 300]);
        assert_ne!(base.param_hash, renamed.fingerprint().param_hash);
        assert_ne!(
            base.param_hash,
            grid().seeds(vec![100, 200, 301]).fingerprint().param_hash
        );
        assert_ne!(
            base.param_hash,
            grid().param_salt(7).fingerprint().param_hash
        );
    }

    #[test]
    fn hash_params_separates_parts() {
        assert_ne!(hash_params(["ab", "c"]), hash_params(["a", "bc"]));
        assert_ne!(hash_params(["x"]), hash_params(["x", ""]));
        assert_eq!(hash_params(["x", "y"]), hash_params(["x", "y"]));
    }

    #[test]
    fn empty_axes_yield_empty_grid() {
        let g = RunGrid::<u8>::new("e").series("only", 0);
        assert!(g.is_empty());
        assert!(g.cells().is_empty());
    }
}
