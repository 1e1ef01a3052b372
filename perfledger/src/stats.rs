//! Median and quartiles of a sample.

/// Median, quartiles and size of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `values` (any order). Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` — the rule the acceptance
    /// check uses — and collapse to the single value for one sample.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample or a NaN.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a sample"));
        let n = v.len();
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        let quantile = |i: usize| {
            if n == 1 {
                return v[0];
            }
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median,
            q1: quantile(1),
            q3: quantile(3),
            n,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// `x` to five significant digits, for tables whose columns hold
/// microseconds and millions alike.
pub fn sig5(x: f64) -> String {
    if x == 0.0 || !x.is_finite() {
        return x.to_string();
    }
    let decimals = (4 - x.abs().log10().floor() as i32).max(0) as usize;
    format!("{x:.decimals$}")
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn odd_sample() {
        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 1.5, 4.5, 5));
    }

    #[test]
    fn even_sample_matches_python_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.median, s.q1, s.q3), (5.5, 2.75, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn two_samples_extrapolate_like_python() {
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]);
        assert_eq!((s.median, s.q1, s.q3), (1.5, 0.75, 2.25));
    }

    #[test]
    fn five_significant_digits() {
        assert_eq!(sig5(1_578_546.252), "1578546");
        assert_eq!(sig5(0.335_812_3), "0.33581");
        assert_eq!(sig5(0.000_143_219), "0.00014322");
        assert_eq!(sig5(-41.765_62), "-41.766");
        assert_eq!(sig5(0.0), "0");
    }

    #[test]
    fn one_sample_collapses() {
        let s = Summary::of(&[7.5]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (7.5, 7.5, 7.5, 1));
    }
}
