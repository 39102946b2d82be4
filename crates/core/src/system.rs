//! The user-facing VOCALExplore system (Table 1 API).
//!
//! [`VocalExplore`] wires the Storage, Feature, Model, and Active Learning
//! managers together behind the four API calls of the paper: `AddVideo`,
//! `Watch`, `Explore`, and `AddLabel`. The facade's own calls run their
//! tasks on the calling thread; the session engine ([`crate::harness`])
//! drives the same pieces — selection, inference, the deferred
//! training/evaluation work, eager extraction — on a `ve_sched::Executor`
//! to account visible latency per scheduling strategy.

use crate::alm::{ActiveLearningManager, SelectionStats};
use crate::api::{ExploreBatch, SegmentRef};
use crate::config::{VocalExploreConfig, MIN_LABELS_FOR_PREDICTIONS};
use crate::degradation::Degradation;
use crate::feature_manager::FeatureManager;
use crate::model_manager::{InferenceError, ModelManager};
use crate::observability::{Obs, ObsHandle, SessionEvent};
use std::sync::Arc;
use ve_al::AcquisitionKind;
use ve_features::{ExtractorId, FeatureSimulator};
use ve_obs::TaskLabel;
use ve_sched::fault::FaultInjector;
use ve_sched::{Executor, Priority};
use ve_storage::{LabelRecord, StorageManager};
use ve_vidsim::{ClassId, TimeRange, VideoClip, VideoCorpus, VideoId};

/// The VOCALExplore system.
///
/// The corpus and the Feature and Model managers are held behind `Arc` so
/// executor tasks (inference, evaluation, training, eager extraction) can
/// hold clones of them on worker threads; both managers use interior
/// locking and are safe to share. The ALM stays owned — all selection (and
/// its RNG) runs on the calling thread.
pub struct VocalExplore {
    config: VocalExploreConfig,
    corpus: Arc<VideoCorpus>,
    storage: StorageManager,
    fm: Arc<FeatureManager>,
    mm: Arc<ModelManager>,
    alm: ActiveLearningManager,
    iteration: u32,
    labels_at_last_training: usize,
    /// Shared deterministic fault injector (built from
    /// [`VocalExploreConfig::fault_plan`]); `None` in production runs.
    fault: Option<Arc<FaultInjector>>,
    /// Observability recorder: the deterministic event plane, shared with
    /// the feature/model/AL managers. The degradation ledger is a drain view
    /// over this plane.
    obs: ObsHandle,
}

impl VocalExplore {
    /// Creates a system for the configured dataset characteristics.
    pub fn new(config: VocalExploreConfig) -> Self {
        ve_sched::parallel::set_parallelism(config.compute_threads);
        let storage = StorageManager::new();
        let simulator = FeatureSimulator::new(config.dataset, config.num_classes, config.seed);
        let fault = config
            .fault_plan
            .clone()
            .map(|plan| Arc::new(FaultInjector::new(plan)));
        let obs = Obs::new(config.observability);
        let mut fm = FeatureManager::new(simulator, storage.clone());
        fm.set_fault_injector(fault.clone(), config.retry);
        fm.set_obs(Arc::clone(&obs));
        let fm = Arc::new(fm);
        let mut mm = ModelManager::new(config.clone());
        mm.set_fault_injector(fault.clone());
        mm.set_obs(Arc::clone(&obs));
        let mm = Arc::new(mm);
        let mut alm = ActiveLearningManager::new(config.clone());
        alm.set_obs(Arc::clone(&obs));
        Self {
            config,
            corpus: Arc::new(VideoCorpus::new()),
            storage,
            fm,
            mm,
            alm,
            iteration: 0,
            labels_at_last_training: 0,
            fault,
            obs,
        }
    }

    /// The shared fault injector, when a fault plan is configured (exposed
    /// for tests and the chaos harness).
    pub fn fault_injector(&self) -> Option<&Arc<FaultInjector>> {
        self.fault.as_ref()
    }

    /// Drains the absorbed-fault ledger accumulated since the last drain, in
    /// deterministic recording order. This is a cursor view over the
    /// observability event plane: degradations are recorded there (always,
    /// even with sinks disabled) and materialized into the legacy
    /// `Vec<Degradation>` shape here.
    pub fn drain_degradations(&mut self) -> Vec<Degradation> {
        self.obs.drain_degradations()
    }

    /// The observability recorder (the deterministic event ledger).
    pub fn obs(&self) -> &ObsHandle {
        &self.obs
    }

    /// Records a degradation the caller absorbed on the system's behalf
    /// (the session engine routes eager-extraction give-ups through here so
    /// the ledger view stays complete and ordered).
    pub fn record_degradation(&mut self, degradation: Degradation) {
        self.obs.record_degradation(degradation);
    }

    /// The system configuration.
    pub fn config(&self) -> &VocalExploreConfig {
        &self.config
    }

    /// The video corpus registered so far.
    pub fn corpus(&self) -> &VideoCorpus {
        &self.corpus
    }

    /// The feature manager (exposed for the experiment harness).
    pub fn feature_manager(&self) -> &FeatureManager {
        &self.fm
    }

    /// Shared handle to the feature manager (for executor task closures).
    pub fn feature_manager_arc(&self) -> Arc<FeatureManager> {
        Arc::clone(&self.fm)
    }

    /// The model manager (exposed for the experiment harness).
    pub fn model_manager(&self) -> &ModelManager {
        &self.mm
    }

    /// The active learning manager (exposed for the experiment harness).
    pub fn alm(&self) -> &ActiveLearningManager {
        &self.alm
    }

    /// Number of labels collected so far.
    pub fn label_count(&self) -> usize {
        self.storage.with_labels(|l| l.len())
    }

    /// Per-class label counts over the vocabulary.
    pub fn class_counts(&self) -> Vec<u64> {
        self.storage
            .with_labels(|l| l.class_counts(self.config.num_classes))
    }

    /// All label records collected so far.
    pub fn label_records(&self) -> Vec<LabelRecord> {
        self.storage.with_labels(|l| l.records().to_vec())
    }

    /// `AddVideo(path)`: registers a video and returns its id. The corpus
    /// holds its metadata (path, duration, start time).
    pub fn add_video(&mut self, clip: VideoClip) -> VideoId {
        Arc::make_mut(&mut self.corpus).add_with_id(clip)
    }

    /// `Watch(vid, start, end)`: returns the stream of segments in the window
    /// with the current model's predictions attached.
    pub fn watch(&mut self, vid: VideoId, start: f64, end: f64, clip_len: f64) -> ExploreBatch {
        assert!(clip_len > 0.0, "clip length must be positive");
        let Some(clip) = self.corpus.get(vid) else {
            return ExploreBatch::default();
        };
        let end = end.min(clip.duration);
        let mut segments = Vec::new();
        let mut t = start.max(0.0);
        while t < end {
            let range = TimeRange::new(t, (t + clip_len).min(end));
            segments.push((vid, range));
            t += clip_len;
        }
        ExploreBatch {
            segments: self.serve_predictions(&Executor::inline(), &segments, 0.0),
            acquisition: None,
            stats: None,
        }
    }

    /// `Explore(B, t, label)`: returns `budget` system-selected segments of
    /// duration `clip_len`, with predictions attached.
    pub fn explore(
        &mut self,
        budget: usize,
        clip_len: f64,
        target_label: Option<ClassId>,
    ) -> ExploreBatch {
        assert!(clip_len > 0.0, "clip length must be positive");
        // Keep models and feature selection up to date before sampling, on
        // the calling thread (the Serial schedule).
        let executor = Executor::inline();
        self.process_pending_work_on(&executor, 0.0);
        let (picks, stats) = self.sample_segments(budget, clip_len, target_label);
        ExploreBatch {
            segments: self.serve_predictions(&executor, &picks, 0.0),
            acquisition: Some(stats.acquisition),
            stats: Some(stats),
        }
    }

    /// The selection step of `Explore` alone: advances the iteration counter
    /// and picks `budget` segments, without running the deferred
    /// training/evaluation work and without attaching predictions. The
    /// session engine calls this directly — it places the deferred work by
    /// strategy and serves the batch on its own executor.
    pub fn sample_segments(
        &mut self,
        budget: usize,
        clip_len: f64,
        target_label: Option<ClassId>,
    ) -> (Vec<(VideoId, TimeRange)>, SelectionStats) {
        assert!(clip_len > 0.0, "clip length must be positive");
        self.iteration += 1;
        // Events recorded from here attribute to the new iteration; the
        // deferred work for the labels so far ran (Serial) or will run
        // (labeling window) before this bump, so it is tagged with the
        // iteration whose labels it serves (see the `observability` docs).
        self.obs.set_iteration(self.iteration);
        // The ALM's persistent acquisition index tracks the feature-bearing
        // pool by itself (via the feature store's change log), so no
        // per-call pool snapshot is assembled here anymore.
        let (picks, stats) = self.alm.select_segments(
            &self.corpus,
            &self.fm,
            &self.mm,
            &self.storage.labels_snapshot(),
            budget,
            clip_len,
            target_label,
        );
        self.obs.record(SessionEvent::SelectionCompleted {
            batch: picks.len() as u32,
            videos_extracted_for_call: stats.videos_extracted_for_call as u32,
            candidates_lost: stats.candidates_lost as u32,
            coverage_fallback: stats.coverage_fallback,
        });
        if stats.candidates_lost > 0 {
            self.obs.record_degradation(Degradation::CandidatesLost {
                iteration: self.iteration,
                videos: stats.candidates_lost,
            });
        }
        if stats.coverage_fallback {
            self.obs.record_degradation(Degradation::CoverageFallback {
                iteration: self.iteration,
                extractor: self.alm.current_extractor(),
            });
        }
        (picks, stats)
    }

    /// `AddLabel(vid, start, end, label)`: records the user's label(s) for a
    /// segment.
    pub fn add_label(&mut self, vid: VideoId, range: TimeRange, classes: Vec<ClassId>) {
        let iteration = self.iteration;
        self.storage.with_labels_mut(|l| {
            l.add(LabelRecord {
                vid,
                range,
                classes,
                iteration,
            })
        });
        self.obs.record(SessionEvent::LabelAdded { vid });
        let counts = self.class_counts();
        self.alm.observe_labels(&counts);
    }

    /// Runs the deferred work on the calling thread; see
    /// [`VocalExplore::process_pending_work_on`]. Returns the number of
    /// `T_e` scores produced.
    pub fn process_pending_work(&mut self) -> usize {
        self.process_pending_work_on(&Executor::inline(), 0.0)
    }

    /// Runs the deferred work the Task Scheduler would run in the background:
    /// while the rising bandit still scores extractors, one `T_e` evaluation
    /// task for the whole round — it sleeps `k · T_e` for the `k` candidates
    /// and cross-validates all of them in one
    /// [`ModelManager::evaluate_round`] — joined and fed to the bandit; then,
    /// when labels have arrived since the last published model, one
    /// retryable `T_m` training task for the extractor used for predictions.
    /// Every task is submitted to `executor` at `Normal` priority and sleeps
    /// its modeled cost at `time_scale` (0 sleeps nothing). A training
    /// request that exhausts the retry budget keeps the previous model
    /// version serving and is recorded as [`Degradation::TrainingFailed`].
    /// After a published model, the ALM prepares the next selection's
    /// candidates with it ([`ActiveLearningManager::prefetch_candidates`]:
    /// the predicted eligible rows, their probabilities and Cluster-Margin's
    /// picks among them, stamped with what the prediction assumed) on the
    /// calling thread — no task, no modeled cost, no index mutation. Returns
    /// the number of `T_e` scores produced.
    pub fn process_pending_work_on(&mut self, executor: &Executor, time_scale: f64) -> usize {
        let labels = self.storage.labels_snapshot();
        if labels.len() < MIN_LABELS_FOR_PREDICTIONS {
            return 0;
        }
        let iteration = self.iteration;
        let candidates = self.alm.evaluation_candidates();
        let scores: Vec<(ExtractorId, f64)> = if candidates.is_empty() {
            Vec::new()
        } else {
            let round_secs = candidates.len() as f64 * self.config.costs.eval_secs;
            let ((mm, fm, corpus), labels) = (self.task_context(), Arc::clone(&labels));
            executor
                .submit_with_handle_labeled(
                    Priority::Normal,
                    TaskLabel::new("eval", iteration),
                    move || {
                        sleep_scaled(round_secs, time_scale);
                        mm.evaluate_round(&candidates, &corpus, &fm, labels.records())
                    },
                )
                .join()
                .expect("evaluation task must not panic")
        };
        self.alm.observe_feature_scores(&scores);

        if labels.len() > self.labels_at_last_training {
            let extractor = self.alm.current_extractor();
            let train_secs = self.config.costs.train_secs(labels.len());
            let ((mm, fm, corpus), task_labels) = (self.task_context(), Arc::clone(&labels));
            let training = executor.submit_retryable_labeled(
                Priority::Normal,
                TaskLabel::new("train", iteration),
                self.config.retry.with_time_scale(time_scale),
                move |attempt| {
                    sleep_scaled(train_secs, time_scale);
                    mm.train_attempt(
                        extractor,
                        &corpus,
                        &fm,
                        task_labels.records(),
                        iteration,
                        attempt,
                    )
                },
            );
            match training.join_task() {
                Ok(true) => {
                    self.labels_at_last_training = labels.len();
                    // Prepare the next selection's likely candidates with
                    // the model just published, on this thread: in the
                    // labeling window under VE-partial/VE-full, inside the
                    // call under Serial.
                    self.alm.prefetch_candidates(&self.mm);
                }
                Ok(false) => {}
                // A failed train keeps serving the previously published
                // model version (if any) — record the loss and move on.
                Err(_) => self.obs.record_degradation(Degradation::TrainingFailed {
                    iteration,
                    extractor,
                }),
            }
        }
        scores.len()
    }

    /// The shared handles an executor task closure needs.
    fn task_context(&self) -> (Arc<ModelManager>, Arc<FeatureManager>, Arc<VideoCorpus>) {
        (
            Arc::clone(&self.mm),
            Arc::clone(&self.fm),
            Arc::clone(&self.corpus),
        )
    }

    /// The videos the next eager-extraction round would process: up to
    /// `max_videos` corpus videos not yet covered by the primary extractor,
    /// in corpus order. The session engine submits one background `T_f⁻`
    /// task per planned video.
    pub fn eager_plan(&self, max_videos: usize) -> Vec<VideoId> {
        if max_videos == 0 {
            return Vec::new();
        }
        let primary = self.alm.current_extractor();
        let covered: std::collections::HashSet<VideoId> =
            self.fm.videos_with_features(primary).into_iter().collect();
        self.corpus
            .videos()
            .iter()
            .filter(|clip| !covered.contains(&clip.id))
            .take(max_videos)
            .map(|clip| clip.id)
            .collect()
    }

    /// Current acquisition function.
    pub fn current_acquisition(&self) -> AcquisitionKind {
        self.alm.current_acquisition()
    }

    /// The extractor currently used for predictions.
    pub fn current_extractor(&self) -> ExtractorId {
        self.alm.current_extractor()
    }

    /// Whether `Explore`/`Watch` will attach predictions right now (enough
    /// labels collected and a model trained for the current extractor).
    pub fn predictions_ready(&self) -> bool {
        self.label_count() >= MIN_LABELS_FOR_PREDICTIONS
            && self.mm.has_model(self.alm.current_extractor())
    }

    /// Serves a batch with the current model's predictions attached: one
    /// `Critical` `infer` task on `executor` sleeps the modeled `B · T_i` at
    /// `time_scale` and scores every segment with
    /// [`ModelManager::predict_batch`]. No task runs while predictions are
    /// not ready. Degraded serving: a failed inference returns the batch
    /// without predictions (recording the lowest failing segment) rather
    /// than failing the call.
    pub(crate) fn serve_predictions(
        &mut self,
        executor: &Executor,
        segments: &[(VideoId, TimeRange)],
        time_scale: f64,
    ) -> Vec<SegmentRef> {
        let mut predictions = vec![Vec::new(); segments.len()];
        if self.predictions_ready() {
            let extractor = self.alm.current_extractor();
            let infer_secs = segments.len() as f64 * self.config.costs.infer_secs;
            let ((mm, fm, corpus), batch) = (self.task_context(), segments.to_vec());
            let inference = executor.submit_with_handle_labeled(
                Priority::Critical,
                TaskLabel::new("infer", self.iteration),
                move || {
                    sleep_scaled(infer_secs, time_scale);
                    mm.predict_batch(extractor, &corpus, &fm, &batch)
                },
            );
            match inference.join().expect("inference task must not panic") {
                Ok(served) => predictions = served,
                Err(InferenceError::Row { vid, .. }) => {
                    self.obs.record_degradation(Degradation::PredictionDropped {
                        iteration: self.iteration,
                        vid,
                    })
                }
                Err(_) => {}
            }
        }
        self.obs.record(SessionEvent::PredictionsServed {
            segments: segments.len() as u32,
            predicted: predictions.iter().filter(|p| !p.is_empty()).count() as u32,
        });
        segments
            .iter()
            .zip(predictions)
            .map(|(&(vid, range), predictions)| SegmentRef {
                vid,
                range,
                predictions,
            })
            .collect()
    }
}

/// Sleeps `modeled_secs * time_scale` wall-clock seconds (no-op at scale 0):
/// how a measured run turns a modeled cost into real time.
pub(crate) fn sleep_scaled(modeled_secs: f64, time_scale: f64) {
    let wall = modeled_secs * time_scale;
    if wall > 0.0 {
        std::thread::sleep(std::time::Duration::from_secs_f64(wall));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FeatureSelectionPolicy, SamplingPolicy};
    use ve_vidsim::{Dataset, DatasetName, GroundTruthOracle, Oracle, TaskKind};

    fn small_system(seed: u64) -> (Dataset, VocalExplore) {
        let dataset = Dataset::scaled(DatasetName::Deer, 0.08, seed);
        let config = VocalExploreConfig::for_dataset(&dataset, seed)
            .with_feature_selection(FeatureSelectionPolicy::Fixed(ExtractorId::R3d))
            .with_extra_candidates(5);
        let mut system = VocalExplore::new(config);
        for clip in dataset.train.videos() {
            system.add_video(clip.clone());
        }
        (dataset, system)
    }

    #[test]
    fn add_video_registers_metadata() {
        let (dataset, system) = small_system(1);
        assert_eq!(system.corpus().len(), dataset.train.len());
        assert_eq!(system.label_count(), 0);
    }

    #[test]
    fn explore_returns_requested_batch_without_predictions_initially() {
        let (_, mut system) = small_system(2);
        let batch = system.explore(5, 1.0, None);
        assert_eq!(batch.len(), 5);
        assert_eq!(batch.acquisition, Some(AcquisitionKind::Random));
        assert!(batch.segments.iter().all(|s| s.predictions.is_empty()));
    }

    #[test]
    fn predictions_appear_after_min_labels() {
        let (dataset, mut system) = small_system(3);
        let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
        // Label a couple of batches with ground truth.
        for _ in 0..4 {
            let batch = system.explore(5, 1.0, None);
            for seg in &batch.segments {
                let classes = oracle.label(&dataset.train, seg.vid, &seg.range);
                system.add_label(seg.vid, seg.range, classes);
            }
        }
        let batch = system.explore(5, 1.0, None);
        assert!(
            batch.segments.iter().any(|s| !s.predictions.is_empty()),
            "after {} labels the system should return predictions",
            system.label_count()
        );
        // Predictions form a distribution over the vocabulary.
        let seg = batch
            .segments
            .iter()
            .find(|s| !s.predictions.is_empty())
            .unwrap();
        assert_eq!(seg.predictions.len(), 9);
    }

    #[test]
    fn watch_returns_consecutive_segments() {
        let (_, mut system) = small_system(4);
        let vid = system.corpus().ids()[0];
        let batch = system.watch(vid, 0.0, 4.0, 1.0);
        assert_eq!(batch.len(), 4);
        for (i, seg) in batch.segments.iter().enumerate() {
            assert_eq!(seg.range.start, i as f64);
        }
        // Watching an unknown video yields an empty batch.
        assert!(system.watch(VideoId(999_999), 0.0, 5.0, 1.0).is_empty());
    }

    #[test]
    fn labels_are_not_resampled_by_explore() {
        let (dataset, mut system) = small_system(5);
        let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
        let mut labeled: std::collections::HashSet<(VideoId, i64)> =
            std::collections::HashSet::new();
        for _ in 0..6 {
            let batch = system.explore(5, 1.0, None);
            for seg in &batch.segments {
                let key = (seg.vid, (seg.range.start * 1000.0) as i64);
                assert!(
                    !labeled.contains(&key),
                    "segment {key:?} was offered for labeling twice"
                );
                labeled.insert(key);
                let classes = oracle.label(&dataset.train, seg.vid, &seg.range);
                system.add_label(seg.vid, seg.range, classes);
            }
        }
    }

    #[test]
    fn eager_extraction_grows_the_feature_pool() {
        let (_, system) = small_system(6);
        let extractor = system.current_extractor();
        let covered = |system: &VocalExplore| {
            system
                .feature_manager()
                .videos_with_features(extractor)
                .len()
        };
        assert_eq!(covered(&system), 0);
        let extract = |system: &VocalExplore, plan: &[VideoId]| {
            plan.iter()
                .map(|&vid| {
                    let clip = system.corpus().get(vid).unwrap();
                    system
                        .feature_manager()
                        .ensure_clip(extractor, clip)
                        .unwrap()
                })
                .sum::<f64>()
        };
        let plan = system.eager_plan(10);
        assert!(extract(&system, &plan) > 0.0);
        assert_eq!(covered(&system), 10);
        // The next plan skips the already-covered videos.
        let next = system.eager_plan(10);
        assert!(next.iter().all(|vid| !plan.contains(vid)));
        extract(&system, &next);
        assert_eq!(covered(&system), 20);
    }

    #[test]
    fn skewed_labels_switch_the_acquisition_function() {
        let (dataset, _) = (Dataset::scaled(DatasetName::Deer, 0.08, 7), ());
        let config = VocalExploreConfig::for_dataset(&dataset, 7)
            .with_feature_selection(FeatureSelectionPolicy::Fixed(ExtractorId::R3d))
            .with_sampling(SamplingPolicy::default())
            .with_extra_candidates(5);
        let mut system = VocalExplore::new(config);
        for clip in dataset.train.videos() {
            system.add_video(clip.clone());
        }
        let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
        for _ in 0..12 {
            let batch = system.explore(5, 1.0, None);
            for seg in &batch.segments {
                let classes = oracle.label(&dataset.train, seg.vid, &seg.range);
                system.add_label(seg.vid, seg.range, classes);
            }
            if system.current_acquisition() != AcquisitionKind::Random {
                break;
            }
        }
        assert_eq!(
            system.current_acquisition(),
            AcquisitionKind::ClusterMargin,
            "the Deer label distribution is skewed enough to trigger the switch"
        );
    }

    #[test]
    #[should_panic(expected = "clip length must be positive")]
    fn explore_rejects_zero_clip_length() {
        let (_, mut system) = small_system(8);
        system.explore(5, 0.0, None);
    }

    #[test]
    fn training_faults_degrade_to_unpredicted_serving_and_are_recorded() {
        use crate::degradation::Degradation;
        use ve_sched::fault::{FaultPlan, FaultRule, FaultSite};
        let dataset = Dataset::scaled(DatasetName::Deer, 0.08, 9);
        let config = VocalExploreConfig::for_dataset(&dataset, 9)
            .with_feature_selection(FeatureSelectionPolicy::Fixed(ExtractorId::R3d))
            .with_extra_candidates(5)
            .with_fault_plan(
                FaultPlan::new(9).with_rule(FaultSite::Training, FaultRule::permanent(1.0)),
            );
        let mut system = VocalExplore::new(config);
        for clip in dataset.train.videos() {
            system.add_video(clip.clone());
        }
        let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
        for _ in 0..4 {
            let batch = system.explore(5, 1.0, None);
            assert_eq!(batch.len(), 5, "selection proceeds under training faults");
            for seg in &batch.segments {
                let classes = oracle.label(&dataset.train, seg.vid, &seg.range);
                system.add_label(seg.vid, seg.range, classes);
            }
        }
        let batch = system.explore(5, 1.0, None);
        assert!(
            batch.segments.iter().all(|s| s.predictions.is_empty()),
            "no model was ever published, so serving degrades to no predictions"
        );
        let degradations = system.drain_degradations();
        assert!(
            degradations
                .iter()
                .any(|d| matches!(d, Degradation::TrainingFailed { .. })),
            "failed trains must be recorded, got {degradations:?}"
        );
        assert!(
            system.drain_degradations().is_empty(),
            "drain empties the ledger"
        );
        assert!(system.fault_injector().unwrap().total_injected() > 0);
    }
}
