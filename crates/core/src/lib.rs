//! `vocalexplore` — the VOCALExplore system: pay-as-you-go video data
//! exploration and model building.
//!
//! This crate assembles the substrates (`ve-vidsim`, `ve-features`,
//! `ve-storage`, `ve-ml`, `ve-stats`, `ve-al`, `ve-bandit`, `ve-sched`) into
//! the system described in the paper:
//!
//! * the user-facing API of Table 1 — [`VocalExplore::add_video`],
//!   [`VocalExplore::watch`], [`VocalExplore::explore`],
//!   [`VocalExplore::add_label`] — exposed by [`system::VocalExplore`];
//! * the **Feature Manager** ([`feature_manager::FeatureManager`]) that
//!   extracts (simulated) pretrained embeddings on demand and caches them in
//!   the storage manager;
//! * the **Model Manager** ([`model_manager::ModelManager`]) that trains one
//!   linear model per candidate feature and serves predictions from the most
//!   recently trained model;
//! * the **Active Learning Manager** ([`alm::ActiveLearningManager`]) that
//!   selects which segments the user labels next (`VE-sample`) and which
//!   feature extractor to converge on (rising bandit); and
//! * the **session engine** ([`harness`]) that drives labeling sessions
//!   with an oracle user through one iteration loop on an inline or
//!   threaded `ve_sched::Executor`, accounts user-visible latency per
//!   scheduling strategy (modeled, and measured on the threaded executor),
//!   and measures macro F1 on a held-out evaluation set — the machinery
//!   behind every figure and table reproduction in `ve-bench`.
//!
//! # Quickstart
//!
//! ```
//! use vocalexplore::prelude::*;
//!
//! // Point VOCALExplore at a (synthetic) video corpus and explore.
//! let dataset = Dataset::scaled(DatasetName::Deer, 0.05, 7);
//! let mut system = VocalExplore::new(VocalExploreConfig::for_dataset(&dataset, 7));
//! for clip in dataset.train.videos() {
//!     system.add_video(clip.clone());
//! }
//! let batch = system.explore(5, 1.0, None);
//! assert_eq!(batch.segments.len(), 5);
//! // The user labels what they saw...
//! for seg in &batch.segments {
//!     system.add_label(seg.vid, seg.range, vec![0]);
//! }
//! ```

pub mod acquisition_index;
pub mod alm;
pub mod api;
pub mod config;
pub mod degradation;
pub mod feature_manager;
pub mod harness;
pub mod model_manager;
pub mod observability;
pub mod report;
pub mod system;

pub use acquisition_index::{AcquisitionIndex, AcquisitionIndexStats};
pub use alm::{ActiveLearningManager, ProbCacheStats};
pub use api::{ExploreBatch, Prediction, SegmentRef};
pub use config::{
    CostModel, FeatureSelectionPolicy, PreprocessPolicy, SamplingPolicy, VocalExploreConfig,
};
pub use degradation::Degradation;
pub use feature_manager::{ExtractionError, FeatureManager};
pub use harness::{IterationRecord, SessionConfig, SessionOutcome, SessionRunner};
pub use model_manager::{InferenceError, ModelManager, TrainError, TrainingStats};
pub use observability::{Obs, ObsHandle, SessionEvent};
pub use report::{detect_session_anomalies, retry_storms, DiagnosticBundle};
pub use system::VocalExplore;

/// Convenience re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::api::{ExploreBatch, Prediction, SegmentRef};
    pub use crate::config::{
        CostModel, FeatureSelectionPolicy, PreprocessPolicy, SamplingPolicy, VocalExploreConfig,
    };
    pub use crate::harness::{IterationRecord, SessionConfig, SessionOutcome, SessionRunner};
    pub use crate::observability::{Obs, ObsHandle, SessionEvent};
    pub use crate::report::{detect_session_anomalies, DiagnosticBundle};
    pub use crate::system::VocalExplore;
    pub use ve_al::AcquisitionKind;
    pub use ve_bandit::RisingBanditConfig;
    pub use ve_features::ExtractorId;
    pub use ve_sched::SchedulerStrategy;
    pub use ve_vidsim::{Dataset, DatasetName, GroundTruthOracle, NoisyOracle, Oracle, TimeRange};
}
