//! Descriptive statistics used by the benchmark harness (median selection
//! step with IQR error bars for Figure 5, averaged F1 curves with IQR shading
//! for Figures 7 and 9).

/// Arithmetic mean of a slice; returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample standard deviation (n-1 denominator); 0 for fewer than two values.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Linear-interpolated percentile, `q` in `[0, 100]`.
///
/// # Panics
/// Panics on an empty slice or an out-of-range `q`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&q), "q must be within [0, 100]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Median (50th percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Interquartile range `(p25, p75)`.
pub fn iqr(xs: &[f64]) -> (f64, f64) {
    (percentile(xs, 25.0), percentile(xs, 75.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample std of this classic example is ~2.138.
        assert!((std_dev(&xs) - 2.138).abs() < 0.01);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
        assert_eq!(std_dev(&[3.0]), 0.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn percentile_endpoints() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile(&xs, 0.0), 10.0);
        assert_eq!(percentile(&xs, 100.0), 40.0);
    }

    #[test]
    fn iqr_of_uniform_sequence() {
        let xs: Vec<f64> = (1..=9).map(|x| x as f64).collect();
        let (lo, hi) = iqr(&xs);
        assert_eq!(lo, 3.0);
        assert_eq!(hi, 7.0);
    }

    #[test]
    fn summary_fields_consistent() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        let (p25, p75) = iqr(&xs);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(median(&xs), 3.0);
        assert!(p25 <= median(&xs) && median(&xs) <= p75);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_rejects_empty() {
        percentile(&[], 50.0);
    }
}
