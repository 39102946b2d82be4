//! `ve-stats` — statistical primitives used by VOCALExplore's Active Learning
//! Manager.
//!
//! This crate implements the two skew-detection tests described in Section 3.1
//! and Appendix A of the paper:
//!
//! * the **k-sample Anderson–Darling test** ([`k_sample_anderson_darling`])
//!   used by `VE-sample` to decide whether the label distribution collected so
//!   far is sufficiently skewed to justify switching from random sampling to
//!   active learning (switch when `p <= 0.001`), and
//! * the **frequency-based binomial test** ([`frequency_test_p_value`]) from
//!   Appendix A, whose p-value is bounded by
//!   `k * P[Binomial(n, 1/(m*k)) <= min_i C_i]`.
//!
//! It also provides supporting numerics (binomial CDF, ln-gamma, normal
//! sampling via Box–Muller) and the Zipfian class-frequency generator used to
//! construct the K20 (skew) dataset, plus descriptive statistics
//! ([`describe`]) used throughout the benchmark harness.

pub mod anderson_darling;
pub mod describe;
pub mod distributions;
pub mod freq_test;
pub mod numeric;
pub mod skew;

pub use anderson_darling::{k_sample_anderson_darling, AndersonDarlingResult};
pub use describe::{iqr, mean, median, percentile, std_dev};
pub use distributions::{zipf_frequencies, BoxMuller, Zipf};
pub use freq_test::frequency_test_p_value;
pub use numeric::{binomial_cdf, binomial_pmf, ln_beta, ln_gamma, regularized_incomplete_beta};
pub use skew::{s_max, SkewDetector, SkewTest};
