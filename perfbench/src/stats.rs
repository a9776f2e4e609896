//! Order statistics for repeated measurements: median, quartiles, min–max and
//! the tail-percentile rule (report the highest percentile that still has
//! at least ten samples beyond it).

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `(min, max)` of `values`.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
}

/// The three quartiles of `values`, as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of nothing");
    let s = sorted(values);
    let n = s.len();
    if n == 1 {
        return [s[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    })
}

/// A tail percentile chosen by the ten-samples-beyond rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    /// The percentile actually reported, in `(0, 100)`.
    pub percentile: f64,
    pub n: usize,
}

/// The `want`-th percentile (e.g. 99.0) of `values`, lowered until at
/// least ten samples lie beyond it. With twenty samples or fewer that
/// percentile would lie below the median: no tail is resolvable and the
/// median is reported instead.
pub fn tail(values: &[f64], want: f64) -> Tail {
    assert!(!values.is_empty(), "tail of nothing");
    let s = sorted(values);
    let n = s.len();
    if n <= 20 {
        return Tail { value: median(values), percentile: 50.0, n };
    }
    let wanted = ((want / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1;
    let idx = wanted.min(n - 11);
    Tail { value: s[idx], percentile: 100.0 * (idx + 1) as f64 / n as f64, n }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a measurement series"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn min_max_of_a_series() {
        assert_eq!(min_max(&[2.0, 1.0, 4.0]), (1.0, 4.0));
        assert_eq!(min_max(&[3.0]), (3.0, 3.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3.1, 2.9, 3.4, 3.0], n=4)
        let q = quartiles(&[3.1, 2.9, 3.4, 3.0]);
        assert!((q[0] - 2.925).abs() < 1e-12 && (q[1] - 3.05).abs() < 1e-12, "{q:?}");
        assert!((q[2] - 3.325).abs() < 1e-12, "{q:?}");
        // statistics.quantiles([1, 2], n=4) extrapolates past the ends.
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 is index 989, exactly ten beyond it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 99.0);
        assert_eq!((t.value, t.n), (990.0, 1000));
        assert!((t.percentile - 99.0).abs() < 1e-9);
        // 100 samples cannot resolve p99: fall back to the 90th.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 99.0);
        assert_eq!(t.value, 90.0);
        assert!((t.percentile - 90.0).abs() < 1e-9);
        // Twenty samples or fewer: the median.
        let t = tail(&[5.0, 1.0, 3.0], 99.0);
        assert_eq!((t.value, t.percentile), (3.0, 50.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!((tail(&v, 99.0).value, tail(&v, 99.0).percentile), (10.5, 50.0));
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&v, 99.0).value, 11.0, "21 samples resolve exactly the median");
    }
}
