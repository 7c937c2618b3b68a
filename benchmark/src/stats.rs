//! The benchmark's own arithmetic: medians, quantiles and the highest
//! percentile a sample supports.

/// Sorted copy of `values`.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]` of an ascending slice.
fn quantile_sorted(v: &[f64], q: f64) -> f64 {
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    quantile_sorted(&sorted(values), 0.5)
}

/// Smallest and largest value.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    let v = sorted(values);
    (v[0], v[v.len() - 1])
}

/// The highest percentile with at least ten samples beyond it, capped at
/// `cap` (e.g. 99.0): returns `(percentile, value)`. With `m` samples the
/// value is the order statistic with exactly ten samples beyond it;
/// below 20 samples no tail is supported and the median is returned.
pub fn supported_tail(values: &[f64], cap: f64) -> (f64, f64) {
    let v = sorted(values);
    let m = v.len();
    if m < 20 {
        return (50.0, quantile_sorted(&v, 0.5));
    }
    let supported = 100.0 * (m - 10) as f64 / m as f64;
    if supported >= cap {
        (cap, quantile_sorted(&v, cap / 100.0))
    } else {
        (supported, v[m - 11])
    }
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so the
/// number is the one the benchmark driver computes; with three values
/// they are the smallest and the largest.
pub fn iqr_share(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let at = |k: usize| {
        // Position k(n+1)/4 on a 1-based scale, clamped into the sample.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(3) - at(1)) / quantile_sorted(&v, 0.5).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile_sorted(&[0.0, 10.0], 0.25), 2.5);
        assert_eq!(min_max(&[2.0, -1.0, 5.0]), (-1.0, 5.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 1024 samples support p99 (10.24 beyond).
        let v: Vec<f64> = (0..1024).map(f64::from).collect();
        let (p, x) = supported_tail(&v, 99.0);
        assert_eq!(p, 99.0);
        assert!((x - 1012.77).abs() < 0.01, "{x}");
        // 100 samples support p90 only: the 90th order statistic.
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(supported_tail(&v, 99.0), (90.0, 89.0));
        // 48 samples: p79.17, value = v[37].
        let v: Vec<f64> = (0..48).map(f64::from).collect();
        let (p, x) = supported_tail(&v, 90.0);
        assert!((p - 79.1667).abs() < 0.001);
        assert_eq!(x, 37.0);
        // Too few samples: the median.
        assert_eq!(supported_tail(&[1.0, 2.0, 3.0], 99.0), (50.0, 2.0));
    }

    #[test]
    fn iqr_share_matches_python_exclusive_quartiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((iqr_share(&[1.0, 2.0, 4.0, 8.0, 16.0]) - 10.5 / 4.0).abs() < 1e-12);
        // Three values: the quartiles are the extremes. One value: no spread.
        assert!((iqr_share(&[9.0, 10.0, 12.0]) - 0.3).abs() < 1e-12);
        assert_eq!(iqr_share(&[5.0]), 0.0);
    }
}
