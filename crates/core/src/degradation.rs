//! Graceful-degradation ledger.
//!
//! Every fault the system absorbs instead of aborting is recorded as a
//! [`Degradation`] so session outcomes state exactly what was lost. The
//! ledger is append-only and drained once per report; entries are recorded in
//! a deterministic order (iteration-major, submission order within an
//! iteration), so two runs with the same seed and fault plan produce
//! bit-identical ledgers at any worker/thread count.

use ve_features::ExtractorId;
use ve_vidsim::VideoId;

/// One absorbed fault: what failed, where, and what the system served
/// instead. `Ord` (variant-major, then fields) gives degradations a stable
/// place in the observability event plane's canonical order.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Degradation {
    /// A training request exhausted its retry budget. The previous model
    /// version (if any) kept serving predictions for the iteration.
    TrainingFailed {
        /// Session iteration of the failed request.
        iteration: u32,
        /// Extractor whose model was not retrained.
        extractor: ExtractorId,
    },
    /// Feature extraction for a video permanently failed; the video stays
    /// `pending` in the acquisition index and selection proceeds over the
    /// covered pool.
    ExtractionGaveUp {
        /// Session iteration the extraction belonged to.
        iteration: u32,
        /// Extractor that could not produce the features.
        extractor: ExtractorId,
        /// Video left unextracted.
        vid: VideoId,
    },
    /// Lazily-extended selection candidates whose extraction failed; the
    /// batch was chosen from the remaining covered pool.
    CandidatesLost {
        /// Session iteration of the selection call.
        iteration: u32,
        /// Number of candidate videos dropped from the pool.
        videos: usize,
    },
    /// Batch inference failed, so a probability-based acquisition function
    /// fell back to coverage-only (greedy k-center) selection for the call.
    CoverageFallback {
        /// Session iteration of the selection call.
        iteration: u32,
        /// Extractor whose batch-inference backend failed.
        extractor: ExtractorId,
    },
    /// Row inference failed for a segment of a user-facing batch; the whole
    /// batch was served without predictions.
    PredictionDropped {
        /// Session iteration the prediction belonged to.
        iteration: u32,
        /// Video of the lowest failing segment.
        vid: VideoId,
    },
}
