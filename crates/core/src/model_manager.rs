//! The Model Manager (MM).
//!
//! "The MM trains models using the user-specified labels and performs
//! inference on these models to return predictions. [...] Our prototype MM
//! maintains one model per feature extractor. The MM trains a new model
//! whenever requested to do so by the ALM and is non-blocking: while a new
//! model is training, the MM serves requests for labels using the previously
//! trained model" (Section 2.3).

#![allow(clippy::disallowed_types)] // HashMap by design: order-exposing uses are policed by ve-lint nondeterministic-iteration

use crate::api::Prediction;
use crate::config::VocalExploreConfig;
use crate::feature_manager::FeatureManager;
use crate::observability::{ObsHandle, SessionEvent};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::Arc;
use ve_features::ExtractorId;
use ve_ml::{
    Classifier, CrossValConfig, FeatureBlock, FeatureBlockBuilder, ScalerMoments, StandardScaler,
    Targets, TrainedModel,
};
use ve_sched::fault::{FaultInjector, FaultSite};
use ve_storage::{LabelRecord, ModelRegistry};
use ve_vidsim::{TaskKind, TimeRange, VideoCorpus, VideoId};

/// Training failed after exhausting the retry budget (injected
/// training-backend fault). The previous model version, if any, remains
/// published and keeps serving predictions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainError {
    /// Extractor whose training request failed.
    pub extractor: ExtractorId,
    /// Session iteration the request belonged to.
    pub iteration: u32,
    /// Attempts consumed before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "training {:?} failed at iteration {} after {} attempts",
            self.extractor, self.iteration, self.attempts
        )
    }
}

impl std::error::Error for TrainError {}

/// Inference failed after exhausting the retry budget (injected
/// inference-backend fault).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InferenceError {
    /// Row inference for one segment failed.
    Row {
        /// Extractor the prediction was requested from.
        extractor: ExtractorId,
        /// Segment video.
        vid: VideoId,
        /// Attempts consumed before giving up.
        attempts: u32,
    },
    /// The batch scoring backend failed for an extractor/model version.
    Batch {
        /// Extractor the batch scoring was requested from.
        extractor: ExtractorId,
        /// Registry version of the model the batch would have used.
        model_version: u64,
        /// Attempts consumed before giving up.
        attempts: u32,
    },
}

impl std::fmt::Display for InferenceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InferenceError::Row {
                extractor,
                vid,
                attempts,
            } => write!(
                f,
                "row inference with {extractor:?} failed for video {} after {attempts} attempts",
                vid.0
            ),
            InferenceError::Batch {
                extractor,
                model_version,
                attempts,
            } => write!(
                f,
                "batch inference with {extractor:?} (model v{model_version}) failed after {attempts} attempts"
            ),
        }
    }
}

impl std::error::Error for InferenceError {}

/// Empty targets of the task's kind: the one place a [`TaskKind`] picks
/// between single-label (softmax) and multi-label (one-vs-rest) training,
/// prediction and scoring.
pub fn task_targets(task: TaskKind) -> Targets {
    match task {
        TaskKind::SingleLabel => Targets::Single(Vec::new()),
        TaskKind::MultiLabel => Targets::Multi(Vec::new()),
    }
}

/// One prediction per class of `probs`, sorted by decreasing probability.
fn sorted_predictions(probs: &[f32]) -> Vec<Prediction> {
    let mut predictions: Vec<Prediction> = probs
        .iter()
        .enumerate()
        .map(|(class, &probability)| Prediction { class, probability })
        .collect();
    // `total_cmp` keeps the task path panic-free: `predict_batch` runs
    // inside an executor-submitted closure, where a NaN probability must
    // degrade to a deterministic (if useless) order, not poison the task.
    predictions.sort_by(|a, b| b.probability.total_cmp(&a.probability));
    predictions
}

/// A published model together with the scaler fitted on its training data.
#[derive(Debug, Clone)]
pub struct FittedModel {
    /// Feature standardizer fitted on the training features.
    pub scaler: StandardScaler,
    /// The trained classifier.
    pub model: TrainedModel,
}

impl FittedModel {
    /// Raw class probabilities of the rows `rows` of `block` (the
    /// acquisition index's block; selections pass their eligible rows, so
    /// nothing is copied out first), one probability row per entry of
    /// `rows`, in that order. Scored with
    /// [`TrainedModel::predict_proba_rows`], the kernel
    /// [`ModelManager::predict_batch`] serves with, so each row is
    /// bit-identical to per-row `Classifier::predict_proba` at any thread
    /// count and does not depend on which other rows share the call.
    pub fn predict_proba_rows(&self, block: &FeatureBlock, rows: &[usize]) -> FeatureBlock {
        FeatureBlock::from_matrix(self.model.predict_proba_rows(&self.scaler, block, rows))
    }
}

/// Counters of how training requests were satisfied (exposed for tests and
/// the training benchmark).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainingStats {
    /// Models trained from scratch (cold starts, including warm-state seeds).
    pub cold_trains: u64,
    /// Models fine-tuned from the previous iteration's weights.
    pub warm_trains: u64,
    /// Examples consumed by the most recent training call (for warm updates
    /// this is `replay + Δ`, the point of the `warm-start/v1` contract).
    pub last_examples: usize,
}

/// Maximum number of older examples a warm update replays, sampled at
/// deterministic even strides over the accumulated training set. It bounds
/// per-train cost at O(Δ + `REPLAY_CAP`) instead of O(total labels).
const REPLAY_CAP: usize = 64;

/// Per-extractor carry-over state of the warm-started trainer: the
/// accumulated usable training set, its running scaler moments, and the last
/// trained weights to fine-tune from.
struct WarmState {
    /// Feature dimensionality the state was seeded with (a mismatch forces a
    /// cold restart).
    dim: usize,
    /// Every usable training row consumed so far, unscaled, in label-record
    /// order.
    examples: Vec<Vec<f32>>,
    /// Targets parallel to `examples`.
    targets: Targets,
    /// Running scaler moments over `examples` (O(Δ·dim) per update).
    moments: ScalerMoments,
    /// Label records already consumed from the label list.
    consumed: usize,
    /// Weights of the most recent model, the warm-start initializer.
    model: TrainedModel,
}

/// How a warm training request was resolved.
enum WarmOutcome {
    /// Fine-tuned and published.
    Published,
    /// No usable warm state — the caller must run the cold path (which
    /// re-seeds the state on success).
    ColdStart,
}

/// Model Manager: one (versioned) linear model per candidate feature
/// extractor.
pub struct ModelManager {
    config: VocalExploreConfig,
    registry: RwLock<ModelRegistry<FittedModel>>,
    warm: Mutex<HashMap<ExtractorId, WarmState>>,
    stats: Mutex<TrainingStats>,
    /// Deterministic fault injector shared with the rest of the system
    /// ([`crate::VocalExploreConfig::fault_plan`]); `None` in production runs.
    fault: Option<Arc<FaultInjector>>,
    /// Event recorder; `None` until the owning system installs one.
    obs: Option<ObsHandle>,
}

impl ModelManager {
    /// Creates an empty model manager.
    pub fn new(config: VocalExploreConfig) -> Self {
        Self {
            config,
            registry: RwLock::new(ModelRegistry::new()),
            warm: Mutex::new(HashMap::new()),
            stats: Mutex::new(TrainingStats::default()),
            fault: None,
            obs: None,
        }
    }

    /// Installs the observability recorder. Training attempts, published
    /// versions, and CV evaluations are recorded as deterministic events;
    /// every training attempt shares the per-`(iteration, extractor)` fault
    /// fate, so the recorded attempts are the same on any executor.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = Some(obs);
    }

    fn record(&self, event: SessionEvent) {
        if let Some(obs) = &self.obs {
            obs.record(event);
        }
    }

    /// Installs (or clears) the shared fault injector. Training and inference
    /// consult it through [`VocalExploreConfig::retry`]-bounded gates.
    pub fn set_fault_injector(&mut self, fault: Option<Arc<FaultInjector>>) {
        self.fault = fault;
    }

    /// Decision key for a training request: one fate per
    /// `(iteration, extractor)` pair, so every retry of the request replays
    /// the identical schedule.
    fn train_key(extractor: ExtractorId, iteration: u32) -> u64 {
        (u64::from(iteration) << 3) | extractor.index() as u64
    }

    /// Consults the injector for attempts `0..retry.max_attempts` at one
    /// site/key. `Ok` as soon as an attempt is allowed through;
    /// `Err(attempts)` when the whole budget was burned.
    fn fault_gate(&self, site: FaultSite, key: u64) -> Result<(), u32> {
        let Some(inj) = &self.fault else {
            return Ok(());
        };
        inj.gate(site, key, &self.config.retry)
    }

    /// Counters of how training requests were satisfied so far.
    pub fn training_stats(&self) -> TrainingStats {
        *self.stats.lock()
    }

    /// Whether a trained model exists for the extractor.
    pub fn has_model(&self, extractor: ExtractorId) -> bool {
        self.registry.read().has_model(extractor)
    }

    /// Number of models published so far (all extractors, all versions).
    pub fn models_trained(&self) -> usize {
        self.registry.read().total_published()
    }

    /// Assembles the training set for an extractor from the label records:
    /// one feature row and target per record with a feature, skipping
    /// single-label records without a class.
    fn training_set(
        &self,
        extractor: ExtractorId,
        corpus: &VideoCorpus,
        fm: &FeatureManager,
        labels: &[LabelRecord],
    ) -> (Vec<Vec<f32>>, Targets) {
        let mut features = Vec::with_capacity(labels.len());
        let mut targets = task_targets(self.config.task);
        for record in labels {
            let Some(fv) = fm.feature_for(extractor, corpus, record.vid, &record.range) else {
                continue;
            };
            if targets.push(&record.classes) {
                features.push(fv.data);
            }
        }
        (features, targets)
    }

    /// Trains and publishes a new model for the extractor using all labels
    /// collected so far. Returns `false` when there are not yet enough labels
    /// (fewer than two distinct classes for single-label tasks, or fewer than
    /// two records overall).
    ///
    /// The call fine-tunes the previous weights on the Δ new labels plus at
    /// most `REPLAY_CAP` older examples. It falls back to a cold fit from
    /// scratch on the first trainable call, a rewound label list, a
    /// feature-dimension change, or a task change. Warm-started weights
    /// follow the `warm-start/v1` tolerance contract: they are a
    /// deterministic function of the training-call history (bit-identical
    /// across runs and thread counts) but not bit-identical to a cold fit;
    /// model quality must stay within the tolerance the tests pin.
    ///
    /// Errors when the fault injector fails the `(iteration, extractor)`
    /// training request at every attempt of the retry budget. On error
    /// nothing is published: the registry keeps serving the previous version.
    pub fn train(
        &self,
        extractor: ExtractorId,
        corpus: &VideoCorpus,
        fm: &FeatureManager,
        labels: &[LabelRecord],
        iteration: u32,
    ) -> Result<bool, TrainError> {
        self.config
            .retry
            .run(|attempt| self.train_attempt(extractor, corpus, fm, labels, iteration, attempt))
            .1
    }

    /// One attempt of [`ModelManager::train`], for a caller that runs its
    /// own retry loop (the session engine's retryable training task):
    /// consults the injector exactly once at `attempt`, records the attempt,
    /// and trains only when that attempt is allowed through.
    pub fn train_attempt(
        &self,
        extractor: ExtractorId,
        corpus: &VideoCorpus,
        fm: &FeatureManager,
        labels: &[LabelRecord],
        iteration: u32,
        attempt: u32,
    ) -> Result<bool, TrainError> {
        let failed = self.fault.as_ref().is_some_and(|inj| {
            inj.should_fail(
                FaultSite::Training,
                Self::train_key(extractor, iteration),
                attempt,
            )
        });
        self.record(SessionEvent::TrainAttempt {
            extractor,
            iteration,
            attempt,
            ok: !failed,
        });
        if failed {
            return Err(TrainError {
                extractor,
                iteration,
                attempts: attempt + 1,
            });
        }
        if let WarmOutcome::Published = self.warm_update(extractor, corpus, fm, labels, iteration) {
            return Ok(true);
        }
        let (features, targets) = self.training_set(extractor, corpus, fm, labels);
        if features.len() < 2 {
            return Ok(false);
        }
        let (scaled, scaler) = StandardScaler::fit_transform(&features);
        let Some(model) = TrainedModel::fit(
            &scaled,
            &targets,
            self.config.num_classes,
            &self.config.train,
        ) else {
            return Ok(false);
        };
        {
            let mut stats = self.stats.lock();
            stats.cold_trains += 1;
            stats.last_examples = features.len();
        }
        let dim = features[0].len();
        let mut moments = ScalerMoments::new(dim);
        moments.update(&features);
        self.warm.lock().insert(
            extractor,
            WarmState {
                dim,
                examples: features.clone(),
                targets,
                moments,
                consumed: labels.len(),
                model: model.clone(),
            },
        );
        let version = self
            .registry
            .write()
            .publish(extractor, Arc::new(FittedModel { scaler, model }));
        self.record(SessionEvent::TrainCompleted {
            extractor,
            iteration,
            version,
        });
        Ok(true)
    }

    /// Attempts a warm (fine-tuning) update for the extractor. Only runs when
    /// a previous warm state exists and is compatible with the new Δ labels;
    /// every incompatibility (rewound label list, changed feature geometry,
    /// task mismatch) discards the state and reports
    /// [`WarmOutcome::ColdStart`] so the caller re-seeds from scratch.
    fn warm_update(
        &self,
        extractor: ExtractorId,
        corpus: &VideoCorpus,
        fm: &FeatureManager,
        labels: &[LabelRecord],
        iteration: u32,
    ) -> WarmOutcome {
        let mut states = self.warm.lock();
        let Some(state) = states.get_mut(&extractor) else {
            return WarmOutcome::ColdStart;
        };
        if labels.len() < state.consumed {
            states.remove(&extractor);
            return WarmOutcome::ColdStart;
        }
        // Collect the Δ usable examples with the exact filtering rules of
        // `training_set` so cold and warm consume the same record stream.
        let (d_features, d_targets) =
            self.training_set(extractor, corpus, fm, &labels[state.consumed..]);
        if d_features.iter().any(|f| f.len() != state.dim) {
            states.remove(&extractor);
            return WarmOutcome::ColdStart;
        }
        let old_len = state.examples.len();
        state.moments.update(&d_features);
        state.examples.extend(d_features);
        state.targets.append(d_targets);
        state.consumed = labels.len();
        // Fine-tune set: a deterministic evenly-strided replay sample over
        // the older examples (bounded by `REPLAY_CAP`) plus every Δ example,
        // ascending — per-train cost is O(REPLAY_CAP + Δ) regardless of how
        // many labels the session has accumulated.
        let mut idx: Vec<usize> = if old_len <= REPLAY_CAP {
            (0..old_len).collect()
        } else {
            (0..REPLAY_CAP).map(|i| i * old_len / REPLAY_CAP).collect()
        };
        idx.extend(old_len..state.examples.len());
        let scaler = state.moments.scaler();
        let tune: Vec<Vec<f32>> = idx
            .iter()
            .map(|&i| scaler.transform(&state.examples[i]))
            .collect();
        let Some(model) = state.model.fit_warm(
            &tune,
            &state.targets.select(&idx),
            self.config.num_classes,
            &self.config.train,
        ) else {
            states.remove(&extractor);
            return WarmOutcome::ColdStart;
        };
        state.model = model.clone();
        drop(states);
        {
            let mut stats = self.stats.lock();
            stats.warm_trains += 1;
            stats.last_examples = idx.len();
        }
        let version = self
            .registry
            .write()
            .publish(extractor, Arc::new(FittedModel { scaler, model }));
        self.record(SessionEvent::TrainCompleted {
            extractor,
            iteration,
            version,
        });
        WarmOutcome::Published
    }

    /// Decision key for a row-inference request: one fate per
    /// `(vid, range.start, extractor)` triple.
    fn row_key(extractor: ExtractorId, vid: VideoId, range: &TimeRange) -> u64 {
        (vid.0 << 3 | extractor.index() as u64) ^ range.start.to_bits().rotate_left(17)
    }

    /// Predictions for one video segment from the latest model of the given
    /// extractor, sorted by decreasing probability. Empty when no model has
    /// been trained yet or the video is unknown. Errors when the fault
    /// injector fails this segment's inference at every attempt of the
    /// retry budget.
    ///
    /// The per-row oracle [`ModelManager::predict_batch`] is tested against;
    /// every caller outside tests serves whole batches.
    #[cfg(test)]
    pub fn predict(
        &self,
        extractor: ExtractorId,
        corpus: &VideoCorpus,
        fm: &FeatureManager,
        vid: VideoId,
        range: &TimeRange,
    ) -> Result<Vec<Prediction>, InferenceError> {
        let Some(fitted) = self.registry.read().latest(extractor) else {
            return Ok(Vec::new());
        };
        self.fault_gate(
            FaultSite::RowInference,
            Self::row_key(extractor, vid, range),
        )
        .map_err(|attempts| InferenceError::Row {
            extractor,
            vid,
            attempts,
        })?;
        let Some(fv) = fm.feature_for(extractor, corpus, vid, range) else {
            return Ok(Vec::new());
        };
        let scaled = fitted.scaler.transform(&fv.data);
        Ok(sorted_predictions(&fitted.model.predict_proba(&scaled)))
    }

    /// Predictions for a whole batch of segments from the latest model of the
    /// given extractor, each sorted by decreasing probability; empty for a
    /// segment whose video is unknown, and for every segment when no model
    /// exists. This is the one serving path: `Explore`, `Watch` and the
    /// session engine all call it for their whole batch.
    ///
    /// Segments are visited in order on the calling thread, each through
    /// its row-inference fault gate and then its feature lookup
    /// (extracting on demand). Every segment is visited even after a
    /// failure, so a batch extracts, and charges GPU seconds for, exactly
    /// the videos a loop of per-segment lookups would. The resolved
    /// rows are then scored with one [`TrainedModel::predict_proba_rows`]
    /// call. When any segment's inference exhausts its retry budget the
    /// whole batch errors with the failure at the **lowest segment index**.
    pub fn predict_batch(
        &self,
        extractor: ExtractorId,
        corpus: &VideoCorpus,
        fm: &FeatureManager,
        segments: &[(VideoId, TimeRange)],
    ) -> Result<Vec<Vec<Prediction>>, InferenceError> {
        let Some(fitted) = self.registry.read().latest(extractor) else {
            return Ok(segments.iter().map(|_| Vec::new()).collect());
        };
        let mut first_error = None;
        let mut features = FeatureBlockBuilder::with_capacity(segments.len(), fitted.model.dim());
        let resolved: Vec<Option<usize>> = segments
            .iter()
            .map(|(vid, range)| {
                if let Err(attempts) = self.fault_gate(
                    FaultSite::RowInference,
                    Self::row_key(extractor, *vid, range),
                ) {
                    first_error.get_or_insert(InferenceError::Row {
                        extractor,
                        vid: *vid,
                        attempts,
                    });
                    return None;
                }
                fm.with_video_features(extractor, corpus, *vid, |entry| {
                    entry.window_for(range).map(|i| {
                        features.push_row(entry.row(i));
                        features.len() - 1
                    })
                })
                .flatten()
            })
            .collect();
        if let Some(error) = first_error {
            return Err(error);
        }
        let features = features.build();
        let rows: Vec<usize> = (0..features.rows()).collect();
        let probs = fitted
            .model
            .predict_proba_rows(&fitted.scaler, &features, &rows);
        Ok(resolved
            .into_iter()
            .map(|row| row.map_or_else(Vec::new, |r| sorted_predictions(probs.row(r))))
            .collect())
    }

    /// Consults the injector for the batch-probability backend of this
    /// extractor, keyed on the latest published model version (so a retrain
    /// heals a previously failing batch path and vice versa). The ALM calls
    /// this before scoring candidates with the model from
    /// [`ModelManager::latest_versioned`]. `Ok` when no model
    /// exists — there is nothing to infer with.
    pub fn batch_inference_gate(&self, extractor: ExtractorId) -> Result<(), InferenceError> {
        let Some(model_version) = self.registry.read().latest_version(extractor) else {
            return Ok(());
        };
        self.fault_gate(
            FaultSite::BatchInference,
            (model_version << 3) | extractor.index() as u64,
        )
        .map_err(|attempts| InferenceError::Batch {
            extractor,
            model_version,
            attempts,
        })
    }

    /// The latest published model for an extractor with its registry
    /// version, read under one registry lock. Candidate scoring — the ALM's
    /// visible selection path and its prefetch alike — goes through this one
    /// read, so a probability row is always tagged with the version that
    /// produced it.
    pub fn latest_versioned(&self, extractor: ExtractorId) -> Option<(u64, Arc<FittedModel>)> {
        self.registry.read().latest_versioned(extractor)
    }

    /// Cross-validated macro-F1 estimates of the candidate extractors'
    /// quality on the labels collected so far (the rising bandit's reward
    /// signal for one round), as `(extractor, score)` pairs in candidate
    /// order. A candidate is left out while there are too few labels to
    /// build its folds.
    ///
    /// Each candidate's training set is built on the calling thread, in
    /// candidate order (on-demand extraction charges the feature manager in
    /// that order); then every candidate's fold models are fitted in one
    /// [`ve_ml::cross_validate_round`] fan-out over the compute threads. Each
    /// score is bit-identical to cross-validating its candidate alone.
    ///
    /// A single-label estimate is expressed on the same scale as the
    /// held-out evaluation metric — macro F1 over the **full vocabulary** —
    /// by treating classes that do not yet have enough labels to participate
    /// in the stratified folds as contributing an F1 of 0. This keeps the
    /// reward *rising* as labels accumulate (more classes become learnable),
    /// which is the behaviour the rising-bandit assumptions rely on; scoring
    /// only the already-covered classes would instead start near 1 and drift
    /// downward as the problem grows harder.
    pub fn evaluate_round(
        &self,
        candidates: &[ExtractorId],
        corpus: &VideoCorpus,
        fm: &FeatureManager,
        labels: &[LabelRecord],
    ) -> Vec<(ExtractorId, f64)> {
        let cfg = CrossValConfig {
            train: self.config.train,
            ..CrossValConfig::default()
        };
        let sets: Vec<(ExtractorId, Vec<Vec<f32>>, Targets)> = candidates
            .iter()
            .map(|&extractor| {
                let (features, targets) = self.training_set(extractor, corpus, fm, labels);
                (extractor, features, targets)
            })
            .filter(|(_, features, _)| features.len() >= 6)
            .collect();
        let problems: Vec<(&[Vec<f32>], &Targets)> = sets
            .iter()
            .map(|(_, features, targets)| (features.as_slice(), targets))
            .collect();
        let scores = ve_ml::cross_validate_round(&problems, self.config.num_classes, &cfg);
        sets.iter()
            .zip(scores)
            .filter_map(|((extractor, _, targets), score)| {
                let score = match targets {
                    Targets::Single(single) => {
                        let kept = self.kept_classes(single, &cfg);
                        score? * kept as f64 / self.config.num_classes as f64
                    }
                    Targets::Multi(_) => score?,
                };
                // The score is a pure function of (labels, extractor,
                // config), so its bits belong in the deterministic plane.
                self.record(SessionEvent::EvaluationCompleted {
                    extractor: *extractor,
                    score_bits: score.to_bits(),
                });
                Some((*extractor, score))
            })
            .collect()
    }

    /// Number of classes with enough single-label instances to join the
    /// stratified folds.
    fn kept_classes(&self, labels: &[usize], cfg: &CrossValConfig) -> usize {
        let mut per_class = vec![0usize; self.config.num_classes];
        for &c in labels {
            per_class[c] += 1;
        }
        per_class
            .iter()
            .filter(|&&n| n >= cfg.min_instances_per_class.max(cfg.folds))
            .count()
    }

    /// [`ModelManager::evaluate_round`] for a single extractor.
    #[cfg(test)]
    pub(crate) fn evaluate_cv(
        &self,
        extractor: ExtractorId,
        corpus: &VideoCorpus,
        fm: &FeatureManager,
        labels: &[LabelRecord],
    ) -> Option<f64> {
        let round = self.evaluate_round(&[extractor], corpus, fm, labels);
        round.first().map(|&(_, score)| score)
    }

    /// The latest fitted model for an extractor, if any (used by the harness
    /// to evaluate on the held-out set).
    pub fn latest(&self, extractor: ExtractorId) -> Option<Arc<FittedModel>> {
        self.registry.read().latest(extractor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ve_features::FeatureSimulator;
    use ve_storage::StorageManager;
    use ve_vidsim::{Dataset, DatasetName, GroundTruthOracle, Oracle};

    fn setup(n_videos: usize) -> (Dataset, FeatureManager, ModelManager, Vec<LabelRecord>) {
        let ds = Dataset::scaled(DatasetName::Deer, 0.15, 21);
        let sim = FeatureSimulator::new(DatasetName::Deer, 9, 21);
        let fm = FeatureManager::new(sim, StorageManager::new());
        let cfg = VocalExploreConfig::for_dataset(&ds, 21);
        let mm = ModelManager::new(cfg);
        let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
        let mut labels = Vec::new();
        for clip in ds.train.videos().iter().take(n_videos) {
            let range = TimeRange::new(0.0, 1.0);
            let classes = oracle.label(&ds.train, clip.id, &range);
            labels.push(LabelRecord {
                vid: clip.id,
                range,
                classes,
                iteration: 0,
            });
        }
        (ds, fm, mm, labels)
    }

    #[test]
    fn refuses_to_train_with_too_few_labels() {
        let (ds, fm, mm, labels) = setup(1);
        assert!(!mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 0)
            .unwrap());
        assert!(!mm.has_model(ExtractorId::R3d));
    }

    #[test]
    fn trains_and_predicts() {
        let (ds, fm, mm, labels) = setup(60);
        assert!(mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 1)
            .unwrap());
        assert!(mm.has_model(ExtractorId::R3d));
        assert_eq!(mm.models_trained(), 1);
        let clip = &ds.train.videos()[70];
        let preds = mm
            .predict(
                ExtractorId::R3d,
                &ds.train,
                &fm,
                clip.id,
                &TimeRange::new(0.0, 1.0),
            )
            .unwrap();
        assert_eq!(preds.len(), 9, "one probability per vocabulary class");
        // Sorted by decreasing probability and sums to ~1.
        assert!(preds
            .windows(2)
            .all(|w| w[0].probability >= w[1].probability));
        let total: f32 = preds.iter().map(|p| p.probability).sum();
        assert!((total - 1.0).abs() < 1e-3);
    }

    #[test]
    fn predictions_empty_without_model() {
        let (ds, fm, mm, _) = setup(10);
        let clip = &ds.train.videos()[0];
        assert!(mm
            .predict(
                ExtractorId::Mvit,
                &ds.train,
                &fm,
                clip.id,
                &TimeRange::new(0.0, 1.0)
            )
            .unwrap()
            .is_empty());
        assert!(mm.latest_versioned(ExtractorId::Mvit).is_none());
    }

    #[test]
    fn predict_batch_matches_single_segment_predictions() {
        let (ds, fm, mm, labels) = setup(60);
        assert!(mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 1)
            .unwrap());
        let segments: Vec<(VideoId, TimeRange)> = ds
            .train
            .videos()
            .iter()
            .skip(60)
            .take(6)
            .map(|c| (c.id, TimeRange::new(0.0, 1.0)))
            .collect();
        let batch = mm
            .predict_batch(ExtractorId::R3d, &ds.train, &fm, &segments)
            .unwrap();
        assert_eq!(batch.len(), segments.len());
        for (preds, (vid, range)) in batch.iter().zip(&segments) {
            assert_eq!(
                preds,
                &mm.predict(ExtractorId::R3d, &ds.train, &fm, *vid, range)
                    .unwrap()
            );
        }
        // Without a model every segment gets an empty prediction list.
        let empty = mm
            .predict_batch(ExtractorId::Clip, &ds.train, &fm, &segments)
            .unwrap();
        assert!(empty.iter().all(|p| p.is_empty()));
    }

    #[test]
    fn predict_batch_under_row_faults_matches_a_per_segment_loop() {
        use ve_sched::fault::{FaultPlan, FaultRule};
        // A permanent row-inference plan fails some segments at every
        // attempt. The segments' videos are not extracted yet, so every
        // lookup that passes its gate extracts on demand and charges GPU
        // seconds: the batch must visit every segment, like a loop of
        // per-segment `predict` calls, and surface the lowest failing index.
        let plan = FaultPlan::new(5).with_rule(FaultSite::RowInference, FaultRule::permanent(0.5));
        let faulted = || {
            let (ds, fm, mut mm, labels) = setup(60);
            assert!(mm
                .train(ExtractorId::R3d, &ds.train, &fm, &labels, 1)
                .unwrap());
            mm.set_fault_injector(Some(Arc::new(FaultInjector::new(plan.clone()))));
            (ds, fm, mm)
        };
        let segments_of = |ds: &Dataset| -> Vec<(VideoId, TimeRange)> {
            ds.train
                .videos()
                .iter()
                .skip(60)
                .take(12)
                .map(|c| (c.id, TimeRange::new(0.0, 1.0)))
                .collect()
        };

        let (ds, fm, mm) = faulted();
        let segments = segments_of(&ds);
        let before = fm.gpu_seconds_spent();
        let oracle: Vec<Result<Vec<Prediction>, InferenceError>> = segments
            .iter()
            .map(|(vid, range)| mm.predict(ExtractorId::R3d, &ds.train, &fm, *vid, range))
            .collect();
        let oracle_gpu = fm.gpu_seconds_spent() - before;
        let failed: Vec<usize> = (0..oracle.len()).filter(|&i| oracle[i].is_err()).collect();
        assert!(
            failed.len() >= 2,
            "the plan must fail two segments, so the lowest index is the one to surface: {failed:?}"
        );
        let lowest = oracle[failed[0]].clone().unwrap_err();
        assert!(oracle_gpu > 0.0);

        let (ds, fm, mut mm) = faulted();
        let before = fm.gpu_seconds_spent();
        let batch = mm.predict_batch(ExtractorId::R3d, &ds.train, &fm, &segments);
        assert_eq!(batch, Err(lowest));
        assert_eq!(
            (fm.gpu_seconds_spent() - before).to_bits(),
            oracle_gpu.to_bits(),
            "the batch must extract exactly the videos the per-segment loop extracts"
        );

        // Fault-free, the batch equals the per-segment predictions.
        mm.set_fault_injector(None);
        let batch = mm
            .predict_batch(ExtractorId::R3d, &ds.train, &fm, &segments)
            .unwrap();
        for (preds, (vid, range)) in batch.iter().zip(&segments) {
            assert_eq!(
                preds,
                &mm.predict(ExtractorId::R3d, &ds.train, &fm, *vid, range)
                    .unwrap()
            );
        }
    }

    #[test]
    fn cv_estimate_orders_extractors_by_signal() {
        let (ds, fm, mm, labels) = setup(90);
        let good = mm
            .evaluate_cv(ExtractorId::R3d, &ds.train, &fm, &labels)
            .unwrap();
        let bad = mm
            .evaluate_cv(ExtractorId::Random, &ds.train, &fm, &labels)
            .unwrap();
        assert!(good > bad, "R3D ({good:.3}) must beat Random ({bad:.3})");
    }

    #[test]
    fn cv_returns_none_with_too_few_labels() {
        let (ds, fm, mm, labels) = setup(3);
        assert!(mm
            .evaluate_cv(ExtractorId::R3d, &ds.train, &fm, &labels)
            .is_none());
    }

    /// The per-extractor loop `evaluate_round` replaced: each candidate
    /// cross-validated alone with [`ve_ml::cross_validate`] or
    /// [`ve_ml::cross_validate_multilabel`], then the kept-class scaling.
    fn per_extractor_oracle(
        mm: &ModelManager,
        candidates: &[ExtractorId],
        corpus: &VideoCorpus,
        fm: &FeatureManager,
        labels: &[LabelRecord],
    ) -> Vec<(ExtractorId, u64)> {
        let cfg = CrossValConfig {
            train: mm.config.train,
            ..CrossValConfig::default()
        };
        let classes = mm.config.num_classes;
        candidates
            .iter()
            .filter_map(|&e| {
                let (features, targets) = mm.training_set(e, corpus, fm, labels);
                if features.len() < 6 {
                    return None;
                }
                let score = match &targets {
                    Targets::Single(ys) => {
                        let kept = (0..classes)
                            .filter(|&c| ys.iter().filter(|&&y| y == c).count() >= 3)
                            .count();
                        ve_ml::cross_validate(&features, ys, classes, &cfg)? * kept as f64
                            / classes as f64
                    }
                    Targets::Multi(sets) => {
                        ve_ml::cross_validate_multilabel(&features, sets, classes, &cfg)?
                    }
                };
                Some((e, score.to_bits()))
            })
            .collect()
    }

    /// `evaluate_round` against [`per_extractor_oracle`] for every label
    /// set, on rounds of 0, 1 and 5 candidates in scrambled order, at 1 and 4
    /// compute threads; the round's `EvaluationCompleted` events carry the
    /// same pairs in the same order.
    fn assert_round_matches_oracle(
        ds: &Dataset,
        fm: &FeatureManager,
        mut mm: ModelManager,
        label_sets: &[(&str, Vec<LabelRecord>, bool)],
    ) {
        let obs = crate::observability::Obs::new(true);
        mm.set_obs(Arc::clone(&obs));
        let rounds = [
            Vec::new(),
            vec![ExtractorId::Clip],
            vec![
                ExtractorId::Mvit,
                ExtractorId::Random,
                ExtractorId::R3d,
                ExtractorId::ClipPooled,
                ExtractorId::Clip,
            ],
        ];
        let _guard = ve_sched::parallel::test_parallelism_guard();
        for (name, labels, scored) in label_sets {
            let want = per_extractor_oracle(&mm, &rounds[2], &ds.train, fm, labels);
            assert_eq!(!want.is_empty(), *scored, "{name}: {want:?}");
            for threads in [1, 4] {
                ve_sched::parallel::set_parallelism(threads);
                for round in &rounds {
                    let before = obs.events().len();
                    let got: Vec<(ExtractorId, u64)> = mm
                        .evaluate_round(round, &ds.train, fm, labels)
                        .into_iter()
                        .map(|(e, s)| (e, s.to_bits()))
                        .collect();
                    let expected: Vec<(ExtractorId, u64)> = round
                        .iter()
                        .filter_map(|e| want.iter().find(|(w, _)| w == e).copied())
                        .collect();
                    let context = format!("{name}, round {round:?}, {threads} threads");
                    assert_eq!(got, expected, "{context}");
                    let recorded: Vec<(ExtractorId, u64)> = obs.events()[before..]
                        .iter()
                        .filter_map(|(_, event)| match event {
                            SessionEvent::EvaluationCompleted {
                                extractor,
                                score_bits,
                            } => Some((*extractor, *score_bits)),
                            _ => None,
                        })
                        .collect();
                    assert_eq!(recorded, expected, "{context}: events");
                }
            }
        }
        ve_sched::parallel::set_parallelism(0);
    }

    #[test]
    fn single_label_round_matches_the_per_extractor_loop() {
        let (ds, fm, mut mm, labels) = setup(90);
        mm.config.train.epochs = 20;
        let majority = labels[0].classes[0];
        let one_class: Vec<LabelRecord> = labels
            .iter()
            .filter(|r| r.classes[0] == majority)
            .cloned()
            .collect();
        assert!(one_class.len() >= 6);
        let label_sets = [
            ("too few labels", labels[..5].to_vec(), false),
            ("one kept class", one_class, false),
            ("ninety labels", labels, true),
        ];
        assert_round_matches_oracle(&ds, &fm, mm, &label_sets);
    }

    #[test]
    fn multi_label_round_matches_the_per_extractor_loop() {
        let ds = Dataset::scaled(DatasetName::Bdd, 0.3, 9);
        let sim = FeatureSimulator::new(DatasetName::Bdd, 6, 9);
        let fm = FeatureManager::new(sim, StorageManager::new());
        let mut cfg = VocalExploreConfig::for_dataset(&ds, 9);
        cfg.train.epochs = 20;
        let mm = ModelManager::new(cfg);
        let oracle = GroundTruthOracle::new(TaskKind::MultiLabel);
        let labels: Vec<LabelRecord> = ds
            .train
            .videos()
            .iter()
            .take(40)
            .map(|clip| {
                let range = TimeRange::new(0.0, 1.5);
                LabelRecord {
                    vid: clip.id,
                    range,
                    classes: oracle.label(&ds.train, clip.id, &range),
                    iteration: 0,
                }
            })
            .collect();
        let label_sets = [
            ("too few labels", labels[..5].to_vec(), false),
            ("forty labels", labels, true),
        ];
        assert_round_matches_oracle(&ds, &fm, mm, &label_sets);
    }

    #[test]
    fn multilabel_training_and_prediction() {
        let ds = Dataset::scaled(DatasetName::Bdd, 0.3, 9);
        let sim = FeatureSimulator::new(DatasetName::Bdd, 6, 9);
        let fm = FeatureManager::new(sim, StorageManager::new());
        let cfg = VocalExploreConfig::for_dataset(&ds, 9);
        let mm = ModelManager::new(cfg);
        let oracle = GroundTruthOracle::new(TaskKind::MultiLabel);
        let labels: Vec<LabelRecord> = ds
            .train
            .videos()
            .iter()
            .take(80)
            .map(|clip| {
                let range = TimeRange::new(0.0, 1.5);
                LabelRecord {
                    vid: clip.id,
                    range,
                    classes: oracle.label(&ds.train, clip.id, &range),
                    iteration: 0,
                }
            })
            .collect();
        assert!(mm
            .train(ExtractorId::Clip, &ds.train, &fm, &labels, 0)
            .unwrap());
        let clip = &ds.train.videos()[90];
        let preds = mm
            .predict(
                ExtractorId::Clip,
                &ds.train,
                &fm,
                clip.id,
                &TimeRange::new(0.0, 1.5),
            )
            .unwrap();
        assert_eq!(preds.len(), 6);
        // Multi-label probabilities need not sum to one.
        assert!(preds.iter().all(|p| (0.0..=1.0).contains(&p.probability)));
        assert!(mm
            .evaluate_cv(ExtractorId::Clip, &ds.train, &fm, &labels)
            .is_some());
    }

    #[test]
    fn retraining_publishes_new_version() {
        let (ds, fm, mm, labels) = setup(60);
        assert!(mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 0)
            .unwrap());
        assert!(mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 1)
            .unwrap());
        assert_eq!(mm.models_trained(), 2);
        assert!(mm.latest(ExtractorId::R3d).is_some());
    }

    #[test]
    fn warm_training_fine_tunes_with_bounded_examples() {
        let (ds, fm, mm, labels) = setup(90);
        assert!(mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels[..70], 0)
            .unwrap());
        let after_cold = mm.training_stats();
        assert_eq!((after_cold.cold_trains, after_cold.warm_trains), (1, 0));
        assert!(mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 1)
            .unwrap());
        let stats = mm.training_stats();
        assert_eq!((stats.cold_trains, stats.warm_trains), (1, 1));
        // Warm update consumed replay (≤ 64) + Δ (20 records), not all 90.
        assert!(
            stats.last_examples <= REPLAY_CAP + 20,
            "warm update must be O(REPLAY_CAP + Δ), consumed {}",
            stats.last_examples
        );
        assert_eq!(mm.models_trained(), 2);
    }

    #[test]
    fn warm_training_is_deterministic() {
        // warm-start/v1: the weights are a deterministic function of the
        // training-call history.
        let probes: Vec<Vec<Prediction>> = (0..2)
            .map(|_| {
                let (ds, fm, mm, labels) = setup(90);
                assert!(mm
                    .train(ExtractorId::R3d, &ds.train, &fm, &labels[..60], 0)
                    .unwrap());
                assert!(mm
                    .train(ExtractorId::R3d, &ds.train, &fm, &labels[..75], 1)
                    .unwrap());
                assert!(mm
                    .train(ExtractorId::R3d, &ds.train, &fm, &labels, 2)
                    .unwrap());
                let clip = &ds.train.videos()[95];
                mm.predict(
                    ExtractorId::R3d,
                    &ds.train,
                    &fm,
                    clip.id,
                    &TimeRange::new(0.0, 1.0),
                )
                .unwrap()
            })
            .collect();
        assert_eq!(probes[0], probes[1]);
    }

    #[test]
    fn failed_train_leaves_the_warm_state_untouched() {
        use ve_sched::fault::{FaultPlan, FaultRule};
        // One manager's middle request fails at every attempt; the other
        // never sees it. The failure must consume no labels from the warm
        // state, so the next warm update fine-tunes on the same Δ and the two
        // managers end bit-identical.
        let (ds, fm, mut faulted, labels) = setup(90);
        let (_, _, clean, _) = setup(90);
        let probe = |mm: &ModelManager| {
            let clip = &ds.train.videos()[95];
            mm.predict(
                ExtractorId::R3d,
                &ds.train,
                &fm,
                clip.id,
                &TimeRange::new(0.0, 1.0),
            )
            .unwrap()
        };
        for mm in [&faulted, &clean] {
            assert!(mm
                .train(ExtractorId::R3d, &ds.train, &fm, &labels[..50], 0)
                .unwrap());
        }
        faulted.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultPlan::uniform(
            1,
            FaultRule::permanent(1.0),
        )))));
        assert!(faulted
            .train(ExtractorId::R3d, &ds.train, &fm, &labels[..70], 1)
            .is_err());
        faulted.set_fault_injector(None);
        for mm in [&faulted, &clean] {
            assert!(mm
                .train(ExtractorId::R3d, &ds.train, &fm, &labels, 2)
                .unwrap());
        }
        assert_eq!(faulted.training_stats(), clean.training_stats());
        assert_eq!(faulted.training_stats().warm_trains, 1);
        assert_eq!(probe(&faulted), probe(&clean));
    }

    #[test]
    fn warm_quality_stays_within_tolerance_of_cold() {
        // warm-start/v1 pins quality, not bits: after the same label stream,
        // the fine-tuned model's held-out accuracy must stay within 0.15 of
        // the from-scratch model's.
        let (ds, fm, cold_mm, labels) = setup(90);
        assert!(cold_mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 0)
            .unwrap());
        let (_, _, warm_mm, _) = setup(90);
        assert!(warm_mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels[..50], 0)
            .unwrap());
        for (i, upto) in [60, 70, 80, 90].into_iter().enumerate() {
            assert!(warm_mm
                .train(
                    ExtractorId::R3d,
                    &ds.train,
                    &fm,
                    &labels[..upto],
                    i as u32 + 1
                )
                .unwrap());
        }
        let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
        let accuracy = |mm: &ModelManager| {
            let clips: Vec<_> = ds.train.videos().iter().skip(90).take(40).collect();
            let correct = clips
                .iter()
                .filter(|clip| {
                    let range = TimeRange::new(0.0, 1.0);
                    let truth = oracle.label(&ds.train, clip.id, &range);
                    let preds = mm
                        .predict(ExtractorId::R3d, &ds.train, &fm, clip.id, &range)
                        .unwrap();
                    preds.first().map(|p| p.class) == truth.first().copied()
                })
                .count();
            correct as f64 / clips.len() as f64
        };
        let cold = accuracy(&cold_mm);
        let warm = accuracy(&warm_mm);
        assert!(
            warm >= cold - 0.15,
            "warm accuracy {warm:.3} fell more than 0.15 below cold {cold:.3}"
        );
    }

    #[test]
    fn warm_state_survives_empty_delta_and_rewinds_to_cold() {
        let (ds, fm, mm, labels) = setup(70);
        assert!(mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 0)
            .unwrap());
        // No new labels: replay-only fine-tune still publishes a version.
        assert!(mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 1)
            .unwrap());
        assert_eq!(mm.training_stats().warm_trains, 1);
        // A rewound (shorter) label list discards the state and cold-starts.
        assert!(mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels[..40], 2)
            .unwrap());
        let stats = mm.training_stats();
        assert_eq!((stats.cold_trains, stats.warm_trains), (2, 1));
        assert_eq!(mm.models_trained(), 3);
    }
}
