//! Fixed-bucket latency histograms with deterministic bucket math.
//!
//! All values are integers (durations in microseconds) and every derived
//! statistic — including the p50/p99 summaries — is computed with integer
//! arithmetic over fixed bucket bounds, so a histogram is a pure function of
//! the observation multiset: no float accumulation order, no
//! environment-dependent rounding.

/// Fixed-bucket histogram over `u64` values. Bucket `i` counts observations
/// `v <= bounds[i]` (the first bucket they fit); values above the last bound
/// land in an implicit overflow bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    counts: Vec<u64>,
    overflow: u64,
    total: u64,
    min: u64,
    max: u64,
}

/// Default latency bounds: log-linear buckets from 1 µs to ~17 s — each
/// power-of-two octave is subdivided into 4 equal integer steps, so a
/// reported quantile's upper bound is within 25% of the true value (vs 100%
/// for pure powers of two). Fixed so every histogram buckets identically.
pub fn default_latency_bounds() -> Vec<u64> {
    let mut bounds = vec![1u64, 2, 3, 4];
    let mut octave = 4u64;
    while octave < 1 << 24 {
        let step = octave / 4;
        for k in 1..=4 {
            bounds.push(octave + k * step);
        }
        octave *= 2;
    }
    bounds
}

impl Histogram {
    pub fn new(bounds: Vec<u64>) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        let n = bounds.len();
        Self {
            bounds,
            counts: vec![0; n],
            overflow: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    pub fn with_default_bounds() -> Self {
        Self::new(default_latency_bounds())
    }

    pub fn observe(&mut self, v: u64) {
        match self.bounds.iter().position(|&b| v <= b) {
            Some(i) => self.counts[i] += 1,
            None => self.overflow += 1,
        }
        self.total += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn total(&self) -> u64 {
        self.total
    }

    pub fn min(&self) -> u64 {
        if self.total == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Quantile estimate as the upper bound of the first bucket whose
    /// cumulative count reaches `ceil(q_num/q_den * total)`, clamped to the
    /// observed maximum so no quantile exceeds `max()`. Integer math only;
    /// `quantile(1, 2)` is the p50 estimate, `quantile(99, 100)` p99.
    /// Observations past the last bound report the true maximum.
    pub fn quantile(&self, q_num: u64, q_den: u64) -> u64 {
        assert!(q_den > 0 && q_num <= q_den);
        if self.total == 0 {
            return 0;
        }
        let rank = self.total.saturating_mul(q_num).div_ceil(q_den).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return self.bounds[i].min(self.max);
            }
        }
        self.max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(1, 2)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(99, 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_use_integer_bucket_math() {
        let mut h = Histogram::new(vec![10, 100, 1000]);
        for _ in 0..50 {
            h.observe(5);
        }
        for _ in 0..49 {
            h.observe(50);
        }
        h.observe(5000); // overflow
        assert_eq!(h.total(), 100);
        assert_eq!(h.p50(), 10); // rank 50 lands in the first bucket
        assert_eq!(h.quantile(99, 100), 100); // rank 99 in the second
        assert_eq!(h.quantile(1, 1), 5000); // overflow reports the true max
        assert_eq!(h.min(), 5);
        assert_eq!(h.max(), 5000);
    }

    #[test]
    fn histogram_is_a_pure_function_of_the_observation_multiset() {
        let mut a = Histogram::with_default_bounds();
        let mut b = Histogram::with_default_bounds();
        for v in [3u64, 900, 17, 17, 250_000] {
            a.observe(v);
        }
        for v in [250_000u64, 17, 3, 900, 17] {
            b.observe(v);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn empty_quantile_is_zero() {
        let h = Histogram::with_default_bounds();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn default_bounds_are_log_linear_and_strictly_increasing() {
        let bounds = default_latency_bounds();
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(bounds.first().copied(), Some(1));
        assert_eq!(bounds.last().copied(), Some(1 << 24));
        // 4 subdivisions per octave: each bound is at most 1.25× the
        // previous one (from 4 up), so a quantile's reported upper bound
        // over-states the true value by at most 25%.
        for w in bounds.windows(2) {
            if w[0] >= 4 {
                assert!(w[1] * 4 <= w[0] * 5, "gap too wide: {} -> {}", w[0], w[1]);
            }
        }
        // The motivating case: a true ~5100 µs median must report within
        // ~20%, not the old power-of-two 8192.
        let mut h = Histogram::with_default_bounds();
        for _ in 0..100 {
            h.observe(5100);
        }
        h.observe(9000);
        assert_eq!(h.p50(), 5120);
    }

    #[test]
    fn quantile_at_exact_bucket_boundary_reports_that_bound() {
        let mut h = Histogram::new(vec![10, 100, 1000]);
        // A value exactly on a bound belongs to that bucket (`v <= b`).
        h.observe(10);
        h.observe(100);
        assert_eq!(h.quantile(1, 2), 10); // rank 1 of 2
        assert_eq!(h.quantile(1, 1), 100); // rank 2 of 2
    }

    #[test]
    fn all_overflow_quantiles_report_true_max_not_a_bound() {
        let mut h = Histogram::new(vec![10, 100]);
        h.observe(5000);
        h.observe(7000);
        // Every rank falls past the last bound: the overflow bucket must
        // report the observed maximum, never a fabricated bound.
        assert_eq!(h.p50(), 7000);
        assert_eq!(h.p99(), 7000);
        assert_eq!(h.quantile(1, 1), h.max());
    }

    #[test]
    fn quantiles_are_clamped_to_the_observed_max() {
        let mut h = Histogram::new(vec![10, 100, 1000]);
        h.observe(5);
        h.observe(50);
        h.observe(500);
        // The highest non-empty bucket's bound (1000) over-states the
        // largest observation; the quantile reports the maximum instead.
        assert_eq!(h.quantile(1, 1), 500);
        assert_eq!(h.max(), 500);
        assert_eq!(h.p50(), 100);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn quantiles_lie_between_min_and_max(
                values in proptest::collection::vec(0u64..40_000_000, 1..64)
            ) {
                let mut h = Histogram::with_default_bounds();
                for &v in &values {
                    h.observe(v);
                }
                let (p50, p99) = (h.p50(), h.p99());
                prop_assert!(h.min() <= p50, "min {} > p50 {}", h.min(), p50);
                prop_assert!(p50 <= p99, "p50 {} > p99 {}", p50, p99);
                prop_assert!(p99 <= h.max(), "p99 {} > max {}", p99, h.max());
            }
        }
    }
}
