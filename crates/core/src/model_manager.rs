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
    Classifier, CrossValConfig, OneVsRestModel, ScalerMoments, SoftmaxModel, StandardScaler,
    TrainedModel,
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

/// A published model together with the scaler fitted on its training data.
#[derive(Debug, Clone)]
pub struct FittedModel {
    /// Feature standardizer fitted on the training features.
    pub scaler: StandardScaler,
    /// The trained classifier.
    pub model: TrainedModel,
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
    /// Feature dimensionality the state was seeded with (a mismatch — e.g. a
    /// replaced store entry with different geometry — forces a cold restart).
    dim: usize,
    /// Every usable training row consumed so far, unscaled, in label-record
    /// order.
    examples: Vec<Vec<f32>>,
    /// Single-label targets parallel to `examples` (empty for multi-label).
    single: Vec<usize>,
    /// Multi-label targets parallel to `examples` (empty for single-label).
    multi: Vec<Vec<usize>>,
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
    /// Event/metrics recorder; `None` until the owning system installs one.
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

    /// Assembles the training set for an extractor from the label records.
    /// Returns `(features, single_label_targets, multi_label_targets)`; the
    /// unused target vector is empty depending on the task kind.
    fn training_set(
        &self,
        extractor: ExtractorId,
        corpus: &VideoCorpus,
        fm: &FeatureManager,
        labels: &[LabelRecord],
    ) -> (Vec<Vec<f32>>, Vec<usize>, Vec<Vec<usize>>) {
        let mut features = Vec::with_capacity(labels.len());
        let mut single = Vec::new();
        let mut multi = Vec::new();
        for record in labels {
            let Some(fv) = fm.feature_for(extractor, corpus, record.vid, &record.range) else {
                continue;
            };
            match self.config.task {
                TaskKind::SingleLabel => {
                    let Some(&class) = record.classes.first() else {
                        continue;
                    };
                    features.push(fv.data);
                    single.push(class);
                }
                TaskKind::MultiLabel => {
                    features.push(fv.data);
                    multi.push(record.classes.clone());
                }
            }
        }
        (features, single, multi)
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
        cv_f1: Option<f64>,
    ) -> Result<bool, TrainError> {
        self.config
            .retry
            .run(|attempt| {
                self.train_attempt(extractor, corpus, fm, labels, iteration, cv_f1, attempt)
            })
            .1
    }

    /// One attempt of [`ModelManager::train`], for a caller that runs its
    /// own retry loop (the session engine's retryable training task):
    /// consults the injector exactly once at `attempt`, records the attempt,
    /// and trains only when that attempt is allowed through.
    #[allow(clippy::too_many_arguments)] // `train`'s arguments plus the attempt index
    pub fn train_attempt(
        &self,
        extractor: ExtractorId,
        corpus: &VideoCorpus,
        fm: &FeatureManager,
        labels: &[LabelRecord],
        iteration: u32,
        cv_f1: Option<f64>,
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
        if let WarmOutcome::Published =
            self.warm_update(extractor, corpus, fm, labels, iteration, cv_f1)
        {
            return Ok(true);
        }
        let (features, single, multi) = self.training_set(extractor, corpus, fm, labels);
        if features.len() < 2 {
            return Ok(false);
        }
        let (scaled, scaler) = StandardScaler::fit_transform(&features);
        let model = match self.config.task {
            TaskKind::SingleLabel => {
                let distinct: std::collections::HashSet<usize> = single.iter().copied().collect();
                if distinct.len() < 2 {
                    return Ok(false);
                }
                TrainedModel::Softmax(SoftmaxModel::fit(
                    &scaled,
                    &single,
                    self.config.num_classes,
                    &self.config.train,
                ))
            }
            TaskKind::MultiLabel => TrainedModel::OneVsRest(OneVsRestModel::fit(
                &scaled,
                &multi,
                self.config.num_classes,
                &self.config.train,
            )),
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
                single,
                multi,
                moments,
                consumed: labels.len(),
                model: model.clone(),
            },
        );
        let version = self.registry.write().publish(
            extractor,
            features.len(),
            iteration,
            cv_f1,
            Arc::new(FittedModel { scaler, model }),
        );
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
        cv_f1: Option<f64>,
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
        let (d_features, d_single, d_multi) =
            self.training_set(extractor, corpus, fm, &labels[state.consumed..]);
        if d_features.iter().any(|f| f.len() != state.dim) {
            states.remove(&extractor);
            return WarmOutcome::ColdStart;
        }
        let old_len = state.examples.len();
        state.moments.update(&d_features);
        state.examples.extend(d_features);
        state.single.extend(d_single);
        state.multi.extend(d_multi);
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
        let model = match (&state.model, self.config.task) {
            (TrainedModel::Softmax(init), TaskKind::SingleLabel) => {
                let targets: Vec<usize> = idx.iter().map(|&i| state.single[i]).collect();
                TrainedModel::Softmax(SoftmaxModel::fit_warm(
                    &tune,
                    &targets,
                    self.config.num_classes,
                    &self.config.train,
                    init,
                ))
            }
            (TrainedModel::OneVsRest(init), TaskKind::MultiLabel) => {
                let targets: Vec<Vec<usize>> =
                    idx.iter().map(|&i| state.multi[i].clone()).collect();
                TrainedModel::OneVsRest(OneVsRestModel::fit_warm(
                    &tune,
                    &targets,
                    self.config.num_classes,
                    &self.config.train,
                    init,
                ))
            }
            _ => {
                states.remove(&extractor);
                return WarmOutcome::ColdStart;
            }
        };
        state.model = model.clone();
        let trained_on = state.examples.len();
        drop(states);
        {
            let mut stats = self.stats.lock();
            stats.warm_trains += 1;
            stats.last_examples = idx.len();
        }
        let version = self.registry.write().publish(
            extractor,
            trained_on,
            iteration,
            cv_f1,
            Arc::new(FittedModel { scaler, model }),
        );
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

    /// Predictions for a video segment from the latest model of the given
    /// extractor, sorted by decreasing probability. Empty when no model has
    /// been trained yet or the video is unknown.
    ///
    /// Errors when the fault injector fails this segment's inference at every
    /// attempt of the retry budget.
    pub fn predict(
        &self,
        extractor: ExtractorId,
        corpus: &VideoCorpus,
        fm: &FeatureManager,
        vid: VideoId,
        range: &TimeRange,
    ) -> Result<Vec<Prediction>, InferenceError> {
        let Some((_, fitted)) = self.registry.read().latest(extractor) else {
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
        let probs = fitted.model.predict_proba(&scaled);
        let mut predictions: Vec<Prediction> = probs
            .iter()
            .enumerate()
            .map(|(class, &probability)| Prediction { class, probability })
            .collect();
        // `total_cmp` keeps the task path panic-free: `predict` runs inside
        // executor-submitted closures, where a NaN probability must degrade
        // to a deterministic (if useless) order, not poison the task.
        predictions.sort_by(|a, b| b.probability.total_cmp(&a.probability));
        Ok(predictions)
    }

    /// Predictions for a whole batch of segments from the latest model of the
    /// given extractor (one `T_i` per segment, fanned out across the
    /// data-parallel workers — each segment is coarse enough to be worth a
    /// task by itself). Output is position-ordered and identical at any
    /// thread count. Returns empty prediction lists when no model exists.
    ///
    /// When any segment's inference exhausts its retry budget the whole batch
    /// errors with the failure at the **lowest segment index** — fault
    /// decisions are pure per segment, so which error surfaces does not
    /// depend on worker scheduling.
    pub fn predict_batch(
        &self,
        extractor: ExtractorId,
        corpus: &VideoCorpus,
        fm: &FeatureManager,
        segments: &[(VideoId, TimeRange)],
    ) -> Result<Vec<Vec<Prediction>>, InferenceError> {
        if !self.has_model(extractor) {
            return Ok(segments.iter().map(|_| Vec::new()).collect());
        }
        ve_sched::parallel::par_map_tasks(segments.len(), |i| {
            let (vid, range) = &segments[i];
            self.predict(extractor, corpus, fm, *vid, range)
        })
        .into_iter()
        .collect()
    }

    /// Consults the injector for the batch-probability backend of this
    /// extractor, keyed on the latest published model version (so a retrain
    /// heals a previously failing batch path and vice versa). The ALM calls
    /// this before [`ModelManager::predict_proba_batch`]. `Ok` when no model
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

    /// Raw class probabilities for a batch of already-extracted feature
    /// vectors (used by the acquisition functions). Returns one probability
    /// row per candidate as a contiguous block, or an empty block when no
    /// model has been trained yet. Rows are scored in parallel across the
    /// scheduler's data-parallel workers; output is identical at any thread
    /// count.
    pub fn predict_proba_batch(
        &self,
        extractor: ExtractorId,
        features: &ve_ml::FeatureBlock,
    ) -> ve_ml::FeatureBlock {
        let Some((_, fitted)) = self.registry.read().latest(extractor) else {
            return ve_ml::FeatureBlock::empty(0);
        };
        let rows = ve_sched::parallel::par_map(features.rows(), |i| {
            fitted
                .model
                .predict_proba(&fitted.scaler.transform(features.row(i)))
        });
        let mut out =
            ve_ml::FeatureBlockBuilder::with_capacity(features.rows(), fitted.model.num_classes());
        for row in &rows {
            out.push_row(row);
        }
        out.build()
    }

    /// Cross-validated macro-F1 estimate of the extractor's quality on the
    /// labels collected so far (the rising bandit's reward signal). Returns
    /// `None` while there are too few labels to build stratified folds.
    ///
    /// The estimate is expressed on the same scale as the held-out evaluation
    /// metric — macro F1 over the **full vocabulary** — by treating classes
    /// that do not yet have enough labels to participate in the stratified
    /// folds as contributing an F1 of 0. This keeps the reward *rising* as
    /// labels accumulate (more classes become learnable), which is the
    /// behaviour the rising-bandit assumptions rely on; scoring only the
    /// already-covered classes would instead start near 1 and drift downward
    /// as the problem grows harder.
    pub fn evaluate_cv(
        &self,
        extractor: ExtractorId,
        corpus: &VideoCorpus,
        fm: &FeatureManager,
        labels: &[LabelRecord],
    ) -> Option<f64> {
        let (features, single, multi) = self.training_set(extractor, corpus, fm, labels);
        if features.len() < 6 {
            return None;
        }
        let score = match self.config.task {
            TaskKind::SingleLabel => {
                let cfg = CrossValConfig {
                    train: self.config.train,
                    ..CrossValConfig::default()
                };
                let kept = {
                    let mut per_class = vec![0usize; self.config.num_classes];
                    for &c in &single {
                        per_class[c] += 1;
                    }
                    per_class
                        .iter()
                        .filter(|&&n| n >= cfg.min_instances_per_class.max(cfg.folds))
                        .count()
                };
                ve_ml::cross_validate(&features, &single, self.config.num_classes, &cfg)
                    .map(|score| score * kept as f64 / self.config.num_classes as f64)
            }
            TaskKind::MultiLabel => self.multilabel_cv(&features, &multi),
        };
        if let Some(s) = score {
            // The score is a pure function of (labels, extractor, config), so
            // its bits belong in the deterministic plane.
            self.record(SessionEvent::EvaluationCompleted {
                extractor,
                score_bits: s.to_bits(),
            });
        }
        score
    }

    /// Simple 3-fold CV for multi-label tasks (no stratification; folds are
    /// assigned round-robin which is adequate because every class appears in
    /// many records).
    fn multilabel_cv(&self, features: &[Vec<f32>], targets: &[Vec<usize>]) -> Option<f64> {
        const FOLDS: usize = 3;
        let n = features.len();
        if n < FOLDS * 2 {
            return None;
        }
        let mut scores = Vec::new();
        for fold in 0..FOLDS {
            let mut train_x = Vec::new();
            let mut train_y = Vec::new();
            let mut test_x = Vec::new();
            let mut test_y = Vec::new();
            for i in 0..n {
                if i % FOLDS == fold {
                    test_x.push(features[i].clone());
                    test_y.push(targets[i].clone());
                } else {
                    train_x.push(features[i].clone());
                    train_y.push(targets[i].clone());
                }
            }
            if train_x.is_empty() || test_x.is_empty() {
                continue;
            }
            let (scaled_train, scaler) = StandardScaler::fit_transform(&train_x);
            let model = OneVsRestModel::fit(
                &scaled_train,
                &train_y,
                self.config.num_classes,
                &self.config.train,
            );
            let preds: Vec<Vec<usize>> = test_x
                .iter()
                .map(|x| {
                    let probs = model.predict_proba(&scaler.transform(x));
                    probs
                        .iter()
                        .enumerate()
                        .filter(|(_, &p)| p >= 0.5)
                        .map(|(c, _)| c)
                        .collect()
                })
                .collect();
            scores.push(ve_ml::macro_f1_multilabel(
                &test_y,
                &preds,
                self.config.num_classes,
            ));
        }
        if scores.is_empty() {
            None
        } else {
            // ve-lint: allow(float-reduction-order) -- fold scores accumulate in fixed fold order (Vec iteration)
            Some(scores.iter().sum::<f64>() / scores.len() as f64)
        }
    }

    /// The latest fitted model for an extractor, if any (used by the harness
    /// to evaluate on the held-out set).
    pub fn latest(&self, extractor: ExtractorId) -> Option<Arc<FittedModel>> {
        self.registry.read().latest(extractor).map(|(_, m)| m)
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
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 0, None)
            .unwrap());
        assert!(!mm.has_model(ExtractorId::R3d));
    }

    #[test]
    fn trains_and_predicts() {
        let (ds, fm, mm, labels) = setup(60);
        assert!(mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 1, None)
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
        assert!(mm
            .predict_proba_batch(
                ExtractorId::Mvit,
                &ve_ml::FeatureBlock::from_nested(&[vec![0.0; 64]])
            )
            .is_empty());
    }

    #[test]
    fn predict_batch_matches_single_segment_predictions() {
        let (ds, fm, mm, labels) = setup(60);
        assert!(mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 1, None)
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
            .train(ExtractorId::Clip, &ds.train, &fm, &labels, 0, None)
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
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 0, Some(0.4))
            .unwrap());
        assert!(mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 1, Some(0.5))
            .unwrap());
        assert_eq!(mm.models_trained(), 2);
        assert!(mm.latest(ExtractorId::R3d).is_some());
    }

    #[test]
    fn warm_training_fine_tunes_with_bounded_examples() {
        let (ds, fm, mm, labels) = setup(90);
        assert!(mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels[..70], 0, None)
            .unwrap());
        let after_cold = mm.training_stats();
        assert_eq!((after_cold.cold_trains, after_cold.warm_trains), (1, 0));
        assert!(mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 1, None)
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
                    .train(ExtractorId::R3d, &ds.train, &fm, &labels[..60], 0, None)
                    .unwrap());
                assert!(mm
                    .train(ExtractorId::R3d, &ds.train, &fm, &labels[..75], 1, None)
                    .unwrap());
                assert!(mm
                    .train(ExtractorId::R3d, &ds.train, &fm, &labels, 2, None)
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
                .train(ExtractorId::R3d, &ds.train, &fm, &labels[..50], 0, None)
                .unwrap());
        }
        faulted.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultPlan::uniform(
            1,
            FaultRule::permanent(1.0),
        )))));
        assert!(faulted
            .train(ExtractorId::R3d, &ds.train, &fm, &labels[..70], 1, None)
            .is_err());
        faulted.set_fault_injector(None);
        for mm in [&faulted, &clean] {
            assert!(mm
                .train(ExtractorId::R3d, &ds.train, &fm, &labels, 2, None)
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
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 0, None)
            .unwrap());
        let (_, _, warm_mm, _) = setup(90);
        assert!(warm_mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels[..50], 0, None)
            .unwrap());
        for (i, upto) in [60, 70, 80, 90].into_iter().enumerate() {
            assert!(warm_mm
                .train(
                    ExtractorId::R3d,
                    &ds.train,
                    &fm,
                    &labels[..upto],
                    i as u32 + 1,
                    None
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
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 0, None)
            .unwrap());
        // No new labels: replay-only fine-tune still publishes a version.
        assert!(mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels, 1, None)
            .unwrap());
        assert_eq!(mm.training_stats().warm_trains, 1);
        // A rewound (shorter) label list discards the state and cold-starts.
        assert!(mm
            .train(ExtractorId::R3d, &ds.train, &fm, &labels[..40], 2, None)
            .unwrap());
        let stats = mm.training_stats();
        assert_eq!((stats.cold_trains, stats.warm_trains), (2, 1));
        assert_eq!(mm.models_trained(), 3);
    }
}
