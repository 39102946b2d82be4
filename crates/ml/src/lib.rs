//! `ve-ml` — the model substrate for VOCALExplore.
//!
//! The paper's Model Manager trains *linear models* on top of pretrained
//! feature vectors (Section 3.2: "training a linear model on pretrained
//! features is an accepted technique for training domain-specific models").
//! This crate provides everything that substrate needs:
//!
//! * a small dense-matrix module ([`tensor`]) sized for the 10²–10³ × 10²
//!   problems the ALM trains at each iteration,
//! * multinomial logistic regression ([`linear::SoftmaxModel`]) for
//!   single-label datasets (Deer, K20, K20-skew, Bears) and one-vs-rest
//!   logistic regression ([`linear::OneVsRestModel`]) for multi-label
//!   datasets (Charades verbs, BDD objects); [`linear::Targets`] and
//!   [`linear::TrainedModel`] are the one place that picks between them, so
//!   callers train, predict and score without branching on the task,
//! * evaluation metrics ([`metrics`]) — macro F1 is the paper's primary
//!   quality metric,
//! * k-fold cross-validation ([`crossval`]; stratified for single-label,
//!   round-robin for multi-label targets) used by the rising bandit to
//!   estimate feature quality when no validation set exists, and
//! * exponential weighted moving-average smoothing ([`ewma`]) used to smooth
//!   noisy per-step model quality (Section 3.2.4).

pub mod block;
pub mod crossval;
pub mod ewma;
pub mod linear;
pub mod metrics;
pub mod scaler;
pub mod tensor;

pub use block::{
    argmax_chunked, argmax_chunked_filtered, dot_fast, sq_norm, FeatureBlock, FeatureBlockBuilder,
};
pub use crossval::{
    cross_validate, cross_validate_multilabel, cross_validate_round, stratified_k_fold,
    CrossValConfig, FoldAssignment,
};
pub use ewma::Ewma;
pub use linear::{Classifier, OneVsRestModel, SoftmaxModel, Targets, TrainConfig, TrainedModel};
pub use metrics::{
    accuracy, confusion_matrix, macro_f1, macro_f1_multilabel, per_class_f1, ClassificationReport,
};
pub use scaler::{ScalerMoments, StandardScaler};
pub use tensor::Matrix;
