//! Seed aggregation for multi-seed experiment summaries.

/// Single-pass streaming statistics: count, mean, variance (via the
/// centred second moment `m2`), min and max, updated with Welford's
/// method. Sweeps push each cell's metric in grid order, so the bits
/// do not depend on which thread finished first.
///
/// # Examples
///
/// ```
/// use rfd_metrics::RunningStats;
///
/// let mut s = RunningStats::new();
/// for v in [1.0, 2.0, 3.0, 4.0] {
///     s.push(v);
/// }
/// assert_eq!(s.count(), 4);
/// assert_eq!(s.mean(), 2.5);
/// assert_eq!((s.min(), s.max()), (1.0, 4.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        RunningStats::default()
    }

    /// Adds one observation (Welford's update).
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN — NaN would silently poison every
    /// downstream aggregate.
    pub fn push(&mut self, value: f64) {
        assert!(!value.is_nan(), "RunningStats::push: NaN observation");
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `NaN` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.mean
        }
    }

    /// Sample standard deviation (n−1 denominator); 0 for fewer than two
    /// observations, `NaN` when empty.
    pub fn std_dev(&self) -> f64 {
        match self.count {
            0 => f64::NAN,
            1 => 0.0,
            n => (self.m2 / (n - 1) as f64).sqrt(),
        }
    }

    /// Smallest observation; `NaN` when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation; `NaN` when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9 * (1.0 + a.abs().max(b.abs()))
    }

    #[test]
    fn matches_two_pass_mean_and_std_dev() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = RunningStats::new();
        xs.iter().for_each(|&v| s.push(v));
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / (n - 1.0);
        assert_eq!(s.count(), 8);
        assert!(close(s.mean(), mean) && close(s.std_dev(), var.sqrt()));
        assert!(close(s.std_dev(), (32.0f64 / 7.0).sqrt()));
        assert_eq!((s.min(), s.max()), (2.0, 9.0));
    }

    #[test]
    fn empty_reports_nan() {
        let s = RunningStats::new();
        assert!(s.mean().is_nan());
        assert!(s.std_dev().is_nan());
    }

    #[test]
    fn single_observation() {
        let mut s = RunningStats::new();
        s.push(3.5);
        assert_eq!(s.count(), 1);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.std_dev(), 0.0);
        assert_eq!((s.min(), s.max()), (3.5, 3.5));
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_observation_rejected() {
        RunningStats::new().push(f64::NAN);
    }
}
