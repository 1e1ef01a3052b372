//! Precomputed decay arrays — RFC 2439 §4.8.6's implementation
//! strategy.
//!
//! Real routers avoid calling `exp()` on every update by quantising
//! time into ticks and looking the decay factor up in a precomputed
//! array. The paper-figure simulation uses exact decay
//! ([`crate::Penalty`]); this table is what [`crate::DamperStore`]'s
//! bucketed mode (the firehose's hot path) decays with, and lets
//! downstream users reproduce vendor-quantised behaviour. The tests
//! bound the quantisation error against the exact exponential; the
//! ledger's `core.store.charge_exact_ns` / `charge_bucketed_ns` rows
//! carry the exact-vs-table cost comparison.

use rfd_sim::SimDuration;

use crate::params::DampingParams;

/// Strength-reduced unsigned division by a fixed divisor.
///
/// Quantising a timestamp to a tick index is one u64 division — tens of
/// cycles on most cores, and the damper hot path pays it on every
/// touch. The divisor is fixed at table-construction time, so the
/// Granlund–Montgomery "round-up" method applies: precompute
/// `magic = ⌊2⁶⁴/d⌋ + 1` once, then `n / d == (n · magic) >> 64` for
/// every `n` below a divisor-dependent bound (a 128-bit multiply and a
/// shift). Past the bound — sim times of centuries for microsecond
/// divisors — it falls back to real division, so the result is exact
/// for **all** inputs (a property test pins this against `/`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct TickDiv {
    divisor: u64,
    magic: u64,
    /// `(n * magic) >> 64` is exact for all `n < bound`.
    bound: u64,
}

impl TickDiv {
    pub(crate) fn new(divisor: u64) -> Self {
        assert!(divisor > 0, "divisor must be positive");
        if divisor == 1 {
            return TickDiv {
                divisor,
                magic: 0,
                bound: 0,
            };
        }
        let two64 = 1u128 << 64;
        let magic = (two64 / divisor as u128 + 1) as u64;
        // magic · d = 2⁶⁴ + e with 0 < e ≤ d; the shortcut is exact
        // while n · e < 2⁶⁴.
        let e = magic as u128 * divisor as u128 - two64;
        let bound = (two64 / e).min(u64::MAX as u128) as u64;
        TickDiv {
            divisor,
            magic,
            bound,
        }
    }

    /// `n / divisor`, exactly.
    #[inline]
    pub(crate) fn div(&self, n: u64) -> u64 {
        if n < self.bound {
            ((n as u128 * self.magic as u128) >> 64) as u64
        } else if self.divisor == 1 {
            n
        } else {
            n / self.divisor
        }
    }

    pub(crate) fn divisor(&self) -> u64 {
        self.divisor
    }
}

/// A quantised decay table.
///
/// `factors[i]` is the decay over `i` ticks; durations are rounded to
/// the nearest tick, and durations beyond the table reuse the last
/// entry multiplicatively (whole-table chunks), exactly as the RFC's
/// "decay array" scheme suggests.
///
/// # Examples
///
/// ```
/// use rfd_core::{DampingParams, DecayTable};
/// use rfd_sim::SimDuration;
///
/// let params = DampingParams::cisco();
/// let table = DecayTable::new(&params, SimDuration::from_secs(5), 720);
/// // One half-life (900 s) decays to ~0.5 within quantisation error.
/// let f = table.decay_factor(SimDuration::from_mins(15));
/// assert!((f - 0.5).abs() < 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct DecayTable {
    tick_div: TickDiv,
    factors: Vec<f64>,
}

impl DecayTable {
    /// Builds a table with `entries` ticks of granularity `tick`.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero or `entries` is zero.
    pub fn new(params: &DampingParams, tick: SimDuration, entries: usize) -> Self {
        assert!(!tick.is_zero(), "tick must be positive");
        assert!(entries > 0, "table needs at least one entry");
        let per_tick = params.decay_factor(tick);
        let mut factors = Vec::with_capacity(entries + 1);
        factors.push(1.0);
        for i in 1..=entries {
            factors.push(factors[i - 1] * per_tick);
        }
        DecayTable {
            tick_div: TickDiv::new(tick.as_micros()),
            factors,
        }
    }

    /// The strength-reduced divider for this table's tick, shared with
    /// the SoA store so timestamp quantisation never pays a hardware
    /// divide.
    pub(crate) fn tick_div(&self) -> TickDiv {
        self.tick_div
    }

    /// Number of table entries (excluding the implicit factor 1.0).
    fn len(&self) -> usize {
        self.factors.len() - 1
    }

    /// Decay factor over `dt`, quantised to the nearest tick.
    pub fn decay_factor(&self, dt: SimDuration) -> f64 {
        let div = &self.tick_div;
        self.factor_at_ticks(div.div(dt.as_micros() + div.divisor() / 2))
    }

    /// Decay factor over a whole number of ticks.
    ///
    /// The common case (within the table) is a single indexed load;
    /// durations beyond the table raise the last entry to the number of
    /// whole-table chunks with `powi` instead of the old O(chunks)
    /// multiplication loop.
    #[inline]
    fn factor_at_ticks(&self, ticks: u64) -> f64 {
        let max = self.len() as u64;
        if ticks <= max {
            return self.factors[ticks as usize];
        }
        // `chunks` whole-table hops land the remainder in 1..=max, the
        // same split the old subtraction loop produced.
        let chunks = (ticks - 1) / max;
        let rem = ticks - chunks * max;
        let chunks = chunks.min(i32::MAX as u64) as i32;
        self.factors[max as usize].powi(chunks) * self.factors[rem as usize]
    }

    /// Fixed-point decay: `milli` (milli-units of penalty) decayed over
    /// `ticks`, rounded to the nearest milli-unit. The hot-path form
    /// used by the SoA damper store — integer in, integer out, so
    /// aggregation over shards stays order-free.
    #[inline]
    pub fn decay_milli(&self, milli: u64, ticks: u64) -> u64 {
        if ticks == 0 || milli == 0 {
            return milli;
        }
        let decayed = milli as f64 * self.factor_at_ticks(ticks);
        // floor(x + 0.5) == x.round() whenever adding 0.5 to x is
        // exact, which holds for all x < 2^24 — realistic penalty
        // ceilings are a few million milli-units. The `as` truncation
        // avoids `round()`'s libm call on targets without a native
        // round instruction; absurd ceilings keep the exact path.
        if decayed < (1u64 << 24) as f64 {
            (decayed + 0.5) as u64
        } else {
            decayed.round() as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfd_sim::SimTime;

    fn cisco() -> DampingParams {
        DampingParams::cisco()
    }

    #[test]
    fn matches_exact_at_tick_multiples() {
        let params = cisco();
        let table = DecayTable::new(&params, SimDuration::from_secs(10), 1000);
        for ticks in [0u64, 1, 7, 90, 900] {
            let dt = SimDuration::from_secs(ticks * 10);
            let exact = params.decay_factor(dt);
            let quant = table.decay_factor(dt);
            assert!(
                (exact - quant).abs() < 1e-9,
                "{ticks} ticks: {exact} vs {quant}"
            );
        }
    }

    #[test]
    fn quantisation_error_bounded_by_half_tick() {
        let params = cisco();
        let tick = SimDuration::from_secs(5);
        let table = DecayTable::new(&params, tick, 2000);
        // Worst-case relative error is the decay over half a tick.
        let bound = 1.0 - params.decay_factor(tick / 2) + 1e-12;
        for secs in (1u64..3600).step_by(17) {
            let dt = SimDuration::from_secs(secs) + SimDuration::from_millis(secs % 997);
            let exact = params.decay_factor(dt);
            let quant = table.decay_factor(dt);
            let rel = (exact - quant).abs() / exact;
            assert!(rel <= bound, "dt={dt}: rel err {rel} > bound {bound}");
        }
    }

    #[test]
    fn long_silences_chunk_through_the_table() {
        let params = cisco();
        let table = DecayTable::new(&params, SimDuration::from_secs(60), 10);
        // 2 hours with a 10-minute table: 12 chunks.
        let dt = SimDuration::from_mins(120);
        let exact = params.decay_factor(dt);
        let quant = table.decay_factor(dt);
        assert!((exact - quant).abs() / exact < 1e-9);
    }

    #[test]
    fn powi_chunking_matches_exact_for_very_long_durations() {
        // Durations hundreds of table-lengths out: the `powi` chunk
        // computation must agree with the closed-form exponential (the
        // old multiplication loop was O(chunks); the factor itself must
        // not change beyond float noise).
        let params = cisco();
        let tick = SimDuration::from_secs(30);
        let table = DecayTable::new(&params, tick, 16);
        for hours in [1u64, 5, 24, 96, 720] {
            let dt = SimDuration::from_secs(hours * 3600);
            let exact = params.decay_factor(dt);
            let quant = table.decay_factor(dt);
            if exact < 1e-300 {
                // Both underflow together far past any realistic horizon.
                assert!(quant < 1e-290, "{hours}h: {quant}");
                continue;
            }
            let rel = (exact - quant).abs() / exact;
            assert!(rel < 1e-6, "{hours}h: {exact} vs {quant} (rel {rel})");
        }
    }

    #[test]
    fn chunk_split_matches_the_old_subtraction_loop() {
        // The remainder index must stay in 1..=len for beyond-table
        // ticks, exactly as the old `while ticks > max` loop left it.
        let params = cisco();
        let table = DecayTable::new(&params, SimDuration::from_secs(10), 8);
        for ticks in 1u64..200 {
            let fast = table.factor_at_ticks(ticks);
            // Reference: the pre-rewrite subtraction loop.
            let max = table.len() as u64;
            let mut t = ticks;
            let mut factor = 1.0;
            while t > max {
                factor *= table.factor_at_ticks(max);
                t -= max;
            }
            let slow = factor * table.factor_at_ticks(t);
            assert!(
                (fast - slow).abs() / slow < 1e-12,
                "ticks={ticks}: {fast} vs {slow}"
            );
        }
    }

    #[test]
    fn decay_milli_rounds_to_nearest_milliunit() {
        let params = cisco();
        let table = DecayTable::new(&params, SimDuration::from_secs(1), 4000);
        let milli = 1_000_000u64; // penalty 1000.000
        let decayed = table.decay_milli(milli, 900);
        let expect = (milli as f64 * table.factor_at_ticks(900)).round() as u64;
        assert_eq!(decayed, expect);
        assert_eq!(table.decay_milli(milli, 0), milli);
        assert_eq!(table.decay_milli(0, 900), 0);
    }

    #[test]
    fn usable_as_penalty_substitute() {
        // A damping loop computed with the table stays within 1% of the
        // exact penalty for realistic workloads.
        let params = cisco();
        let table = DecayTable::new(&params, SimDuration::from_secs(1), 4000);
        let charges = [(0u64, 1000.0), (120, 1000.0), (247, 500.0), (360, 1000.0)];
        let mut exact = crate::Penalty::new();
        let mut quant = 0.0f64;
        let mut last = SimDuration::ZERO;
        for &(secs, amount) in &charges {
            let at = SimTime::from_secs(secs);
            exact.charge(at, amount, &params);
            let dt = SimDuration::from_secs(secs) - last;
            quant = quant * table.decay_factor(dt) + amount;
            last = SimDuration::from_secs(secs);
        }
        let e = exact.value_at(SimTime::from_secs(360), &params);
        assert!((e - quant).abs() / e < 0.01, "{e} vs {quant}");
    }

    #[test]
    fn tick_div_matches_hardware_division_everywhere() {
        // Exactness over awkward divisors and boundary dividends,
        // including values past each divisor's fast-path bound (the
        // fallback must kick in seamlessly).
        let divisors = [
            1u64,
            2,
            3,
            7,
            10,
            1_000,
            999_983,
            1_000_000,
            60_000_000,
            u64::MAX,
        ];
        for &d in &divisors {
            let td = TickDiv::new(d);
            assert_eq!(td.divisor(), d);
            let mut probes = vec![
                0u64,
                1,
                d - 1,
                d,
                d.saturating_add(1),
                u64::MAX,
                u64::MAX - 1,
            ];
            // A cheap LCG walk over the full u64 range.
            let mut x = 0x9e3779b97f4a7c15u64;
            for _ in 0..10_000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                probes.push(x);
            }
            for &n in &probes {
                assert_eq!(td.div(n), n / d, "{n} / {d}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn tick_div_rejects_zero() {
        TickDiv::new(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_tick_panics() {
        DecayTable::new(&cisco(), SimDuration::ZERO, 10);
    }

    #[test]
    #[should_panic(expected = "entry")]
    fn empty_table_panics() {
        DecayTable::new(&cisco(), SimDuration::from_secs(1), 0);
    }
}
