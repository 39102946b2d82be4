//! `ve-al` — acquisition functions and the `VE-sample` selection policy.
//!
//! The Active Learning Manager must decide, at every `Explore` call, which
//! video segments the user should label next (Section 3.1). This crate
//! implements the candidate acquisition functions the paper evaluates:
//!
//! * [`random_selection`] — uniform sampling over unlabeled candidates; the
//!   cheap baseline that needs no features at all,
//! * [`coreset_selection`] — the greedy k-center Coreset algorithm
//!   (Sener & Savarese 2018), a density/diversity-based function,
//! * [`cluster_margin_selection`] — Cluster-Margin (Citovsky et al. 2021),
//!   combining margin-based uncertainty with cluster-based diversity; the
//!   prototype's default active-learning function; its margin stage
//!   ([`margin_pool`]) and its diversity stages
//!   ([`cluster_margin_from_pool`]) also run apart, so a caller can prepare
//!   the pool ahead of the call that picks from it,
//! * [`uncertainty_selection`] — the rare-category sampler of Mullapudi et
//!   al. 2021 used for `Explore(label=a)` calls: most-confident positives
//!   while the class is rare, most-uncertain once it is common,
//!
//! and the policy that picks among them:
//!
//! * [`VeSample`] — starts with Random, watches the label histogram with a
//!   skew detector (Anderson–Darling or the Appendix-A frequency test), and
//!   latches onto the configured active-learning function once skew is
//!   detected.

pub mod cluster_margin;
pub mod coreset;
pub mod random;
pub mod sketch;
pub mod uncertainty;
pub mod ve_sample;

pub use cluster_margin::{
    cluster_margin_from_pool, cluster_margin_selection, cluster_margin_selection_with_sweeps,
    kmeans_fit, margin_pool, ClusterMarginConfig, KMeansFit,
};
pub use coreset::{coreset_selection, greedy_k_center};
pub use random::random_selection;
pub use sketch::{ClusterSketch, ClusterSketchConfig};
pub use uncertainty::{uncertainty_selection, uncertainty_selection_from_probs};
pub use ve_sample::{AcquisitionKind, VeSample, VeSampleConfig};
