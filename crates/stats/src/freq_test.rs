//! The frequency-based skew test from Appendix A of the paper.
//!
//! A class distribution `p ∈ Δ_k` is declared *imbalanced* when
//! `min_i p_i < 1 / (m·k)` for a multiplicative threshold `m ≥ 1`. Given an
//! empirical count vector `C` with `n = Σ_i C_i`, the worst-case false
//! discovery rate of declaring "imbalanced" when `φ(C) = min_i C_i ≤ t` is
//! bounded by
//!
//! ```text
//! p-value ≤ k · P[ Binomial(n, 1/(m·k)) ≤ min_i C_i ]
//! ```
//!
//! which is exactly the quantity the paper's prototype computes as
//! `k * scipy.stats.binom.cdf(min(C), n, 1/(m*k))`.

use crate::numeric::binomial_cdf;

/// Computes the Appendix-A p-value bound for the observed class counts.
///
/// * `counts` — per-class label counts collected so far. Classes the user has
///   defined but not yet labeled count as zeros and *should be included*: a
///   zero count is the strongest possible evidence of imbalance once `n` is
///   large.
/// * `m` — multiplicative threshold (`m = 1` means "any class rarer than the
///   perfectly balanced share" counts as imbalanced); the paper also
///   evaluates `m = 1.5`, which requires a larger imbalance ratio before the
///   distribution qualifies as skewed.
///
/// Returns a value in `[0, 1]` (the bound is clamped; the raw bound
/// `k * cdf` can exceed 1 when there is no evidence of skew).
pub fn frequency_test_p_value(counts: &[u64], m: f64) -> f64 {
    assert!(!counts.is_empty(), "counts must be non-empty");
    assert!(m >= 1.0, "multiplicative threshold m must be >= 1");
    let k = counts.len() as u64;
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return 1.0;
    }
    let min_count = *counts.iter().min().expect("non-empty");
    let p = 1.0 / (m * k as f64);
    (k as f64 * binomial_cdf(min_count, n, p)).min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_counts_are_not_skewed() {
        let counts = vec![50, 50, 50, 50];
        assert!(frequency_test_p_value(&counts, 1.0) > 0.05);
        assert!(frequency_test_p_value(&counts, 1.0) > 0.001);
    }

    #[test]
    fn missing_class_with_many_labels_is_skewed() {
        // 300 labels, one class never observed: strong evidence of imbalance.
        let counts = vec![150, 100, 50, 0];
        assert!(frequency_test_p_value(&counts, 1.0) <= 0.001);
    }

    #[test]
    fn missing_class_with_few_labels_is_not_skewed() {
        // Only 6 labels over 4 classes: a zero count is expected by chance.
        let counts = vec![3, 2, 1, 0];
        assert!(frequency_test_p_value(&counts, 1.0) > 0.001);
    }

    #[test]
    fn slight_imbalance_never_flagged_even_with_many_labels() {
        // The key property from Section 3.1: a 51/49-style split is NOT
        // declared skewed by the frequency test (at the paper's strict
        // alpha = 0.001) even with a large sample, unlike Anderson–Darling
        // whose p-value shrinks toward zero with n.
        let counts = vec![5_100u64, 4_900];
        let p = frequency_test_p_value(&counts, 1.0);
        assert!(
            p > 0.001,
            "frequency test must not flag near-balanced data at alpha=0.001: p={p}"
        );
        // With any threshold m > 1/(2*0.49) the minority share (0.49) sits
        // above 1/(m*k), so the bound stays at ~1 even in the limit of
        // infinite labels.
        let huge: Vec<u64> = vec![510_000, 490_000];
        let p_m15 = frequency_test_p_value(&huge, 1.5);
        assert!(
            p_m15 > 0.9,
            "with m=1.5 a 51/49 split must never look skewed: p={p_m15}"
        );
    }

    #[test]
    fn larger_m_raises_the_bar_for_declaring_skew() {
        // Larger m shrinks the reference frequency 1/(m·k), so the binomial
        // mean drops and the observed minimum count looks *less* surprising:
        // the p-value bound grows and skew is declared later. (m is a lower
        // bound on the imbalance ratio a distribution must exceed to count as
        // skewed.)
        let counts = vec![60, 30, 8, 2];
        let p_m1 = frequency_test_p_value(&counts, 1.0);
        let p_m15 = frequency_test_p_value(&counts, 1.5);
        assert!(
            p_m15 >= p_m1,
            "larger m should not decrease the p-value: {p_m15} vs {p_m1}"
        );
    }

    #[test]
    fn p_value_clamped_to_one() {
        let counts = vec![2, 2, 2, 2, 2, 2, 2, 2, 2, 2];
        let p = frequency_test_p_value(&counts, 1.0);
        assert!(p <= 1.0);
    }

    #[test]
    fn zero_total_count_returns_one() {
        assert_eq!(frequency_test_p_value(&[0, 0, 0], 1.0), 1.0);
    }

    #[test]
    fn p_value_decreases_as_evidence_accumulates() {
        // Same proportions (Zipf-ish), growing n: the bound should shrink.
        let small: Vec<u64> = vec![20, 6, 3, 1];
        let large: Vec<u64> = small.iter().map(|c| c * 20).collect();
        let p_small = frequency_test_p_value(&small, 1.0);
        let p_large = frequency_test_p_value(&large, 1.0);
        assert!(p_large < p_small);
    }

    #[test]
    #[should_panic(expected = "m must be >= 1")]
    fn rejects_invalid_threshold() {
        frequency_test_p_value(&[1, 2, 3], 0.5);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty_counts() {
        frequency_test_p_value(&[], 1.0);
    }

    #[test]
    fn matches_formula_directly() {
        // p-value = k * P[Binomial(n, 1/(mk)) <= min(C)]
        let counts = vec![40u64, 25, 10, 5];
        let n: u64 = counts.iter().sum();
        let k = counts.len() as f64;
        let expected = (k * crate::numeric::binomial_cdf(5, n, 1.0 / k)).min(1.0);
        let got = frequency_test_p_value(&counts, 1.0);
        assert!((expected - got).abs() < 1e-12);
    }
}
