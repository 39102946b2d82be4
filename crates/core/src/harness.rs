//! The session engine: oracle-driven labeling sessions with per-iteration
//! F1 measurement and visible-latency accounting.
//!
//! Every figure and table in the paper's evaluation (Section 5) is produced
//! by running labeling sessions of the same shape: `Explore(B = 5, t = 1 s)`
//! is called repeatedly, an oracle user labels the returned segments (taking
//! `T_user = 10 s` each), and after every iteration the macro F1 of a model
//! trained on the labels so far is measured on a held-out evaluation set.
//! [`SessionRunner`] implements that loop on top of [`crate::VocalExplore`]
//! and records one [`IterationRecord`] per step.
//!
//! # One loop, two executors
//!
//! Serial, `VE-partial`, and `VE-full` run the same tasks (`T_s`, `T_i`,
//! `T_e`, `T_m`, `T_f⁻`); they differ only in *when* each task runs relative
//! to the user's labeling window (Section 4). The loop submits every task to
//! a [`ve_sched::Executor`] at the Task Scheduler's priority (`Critical`
//! inference, `Normal` evaluation and training, `Background` eager
//! extraction):
//!
//! * [`SessionRunner::run`] uses [`Executor::inline`], which runs each task
//!   on the session thread, and reports the analytic latency
//!   (`ve_sched::iteration_latency` over the observed task counts) only.
//! * [`SessionRunner::run_measured`] uses a pool of `executor_workers`
//!   threads and sleeps every modeled cost at `time_scale` on the thread that
//!   runs it (GPU extraction sleeps inside the Feature Manager), so visible
//!   latency is also *measured*: wall-clock divided by `time_scale`.
//!
//! # Iteration order (both modes)
//!
//! 1. Serial only: the deferred work for the labels so far, inside the
//!    visible window.
//! 2. `sample_segments`, then one `Critical` inference task for the whole
//!    batch (it sleeps `B · T_i`; a failed segment drops the batch's
//!    predictions).
//! 3. The oracle labels the batch.
//! 4. Every value the record reports is read here — extractors, bandit
//!    state, `S_max`, analytic costs — along with the model whose F1 it
//!    reports, so the window's deferred work cannot shift any of them.
//! 5. `VE-full` only: one `Background` eager-extraction task per planned
//!    video.
//! 6. `VE-partial`/`VE-full`, except after the last labels: the deferred
//!    work, in the labeling window — while the bandit has not converged,
//!    one `T_e` task that cross-validates the round's `k` candidates (it
//!    sleeps `k · T_e`), then one `T_m` training task, then (on the session
//!    thread, after a published model) the ALM's prefetch: the next
//!    selection's predicted candidates, their probabilities and
//!    Cluster-Margin's picks among them, which the next call returns when
//!    the user labeled the last picks and nothing else moved. Under Serial the same
//!    work runs in step 1, inside the visible window.
//! 7. Think time (measured mode), the `wait_idle` barrier (work past the
//!    window is *spill*, never charged to the next call), eager give-ups
//!    recorded in submission order, then F1.
//!
//! Every window ends at the barrier, so both modes — at any
//! `executor_workers` / `compute_threads` — produce the same labels, record
//! fields, degradation sequence, and canonical event ledger.

#![allow(clippy::disallowed_types)] // HashMap by design: order-exposing uses are policed by ve-lint nondeterministic-iteration

use crate::alm::{ProbCacheStats, SelectionStats};
use crate::config::{PreprocessPolicy, VocalExploreConfig};
use crate::degradation::Degradation;
use crate::model_manager::{task_targets, FittedModel, TrainingStats};
use crate::observability::SessionEvent;
use crate::system::{sleep_scaled, VocalExplore};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};
use ve_al::AcquisitionKind;
use ve_features::ExtractorId;
use ve_ml::Classifier;
use ve_obs::{PhaseTiming, TaskLabel, TaskTiming};
use ve_sched::{
    iteration_latency, Executor, ExecutorStats, IterationCosts, IterationLatency, Priority,
    SchedulerStrategy,
};
use ve_stats::{median, s_max};
use ve_storage::LabelRecord;
use ve_vidsim::{
    Dataset, DatasetName, GroundTruthOracle, NoisyOracle, Oracle, TaskKind, TimeRange, VideoClip,
    VideoCorpus, VideoId,
};

/// Number of videos the `VE-full` labeling window can cover with eager
/// `T_f⁻` extraction: the window time left after the queued background work,
/// divided by the per-video cost across all surviving candidate features,
/// capped at the prototype's 50-video guardrail.
fn eager_video_budget(
    latency: &IterationLatency,
    per_video_extract: f64,
    candidate_features: usize,
) -> usize {
    let budget_secs = (latency.labeling_secs - latency.background_secs).max(0.0);
    let per_video_all = per_video_extract * candidate_features.max(1) as f64;
    let videos = (budget_secs / per_video_all.max(1e-9)).floor() as usize;
    videos.min(50)
}

/// Configuration of one labeling session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Dataset to generate.
    pub dataset: DatasetName,
    /// Fraction of the paper's corpus size to generate (1.0 = full size).
    pub scale: f64,
    /// RNG seed (corpus generation, sampling, simulation).
    pub seed: u64,
    /// Number of `Explore` iterations to run.
    pub iterations: usize,
    /// Segments labeled per iteration (`B`).
    pub batch_size: usize,
    /// Segment duration in seconds (`t`).
    pub clip_len: f64,
    /// Fraction of oracle labels randomly corrupted (Figure 9 uses 0.05,
    /// 0.10, 0.20).
    pub label_noise: f64,
    /// Evaluate macro F1 on the held-out set every `eval_every` iterations
    /// (1 = every iteration).
    pub eval_every: usize,
    /// The system configuration (sampling policy, feature policy, strategy,
    /// cost model, ...).
    pub system: VocalExploreConfig,
}

impl SessionConfig {
    /// A session with the paper's defaults (`B = 5`, `t = 1 s`, 100
    /// iterations, no label noise) at the given corpus scale.
    pub fn new(dataset: DatasetName, scale: f64, seed: u64) -> Self {
        let spec = ve_vidsim::DatasetSpec::paper(dataset);
        let system = VocalExploreConfig::new(dataset, spec.num_classes, spec.task, seed);
        Self {
            dataset,
            scale,
            seed,
            iterations: 100,
            batch_size: 5,
            clip_len: 1.0,
            label_noise: 0.0,
            eval_every: 1,
            system,
        }
    }

    /// Overrides the number of iterations.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Overrides the label-noise fraction.
    pub fn with_noise(mut self, noise: f64) -> Self {
        self.label_noise = noise;
        self
    }

    /// Overrides the evaluation cadence.
    pub fn with_eval_every(mut self, eval_every: usize) -> Self {
        self.eval_every = eval_every.max(1);
        self
    }

    /// Replaces the system configuration (keeping dataset characteristics).
    pub fn with_system(mut self, system: VocalExploreConfig) -> Self {
        self.system = system;
        self
    }
}

/// One row of a session trace.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Total labels collected after this iteration.
    pub labels_total: usize,
    /// Acquisition function that produced this iteration's batch.
    pub acquisition: AcquisitionKind,
    /// Number of candidate extractors still alive after this iteration.
    pub active_extractors: usize,
    /// The extractor selection, once the bandit has converged.
    pub selected_extractor: Option<ExtractorId>,
    /// The extractor used for predictions this iteration.
    pub current_extractor: ExtractorId,
    /// Label-diversity metric `S_max` (fraction of labels from the most-seen
    /// class; lower is more diverse).
    pub s_max: f64,
    /// Macro F1 on the held-out evaluation set (when evaluated this
    /// iteration).
    pub macro_f1: Option<f64>,
    /// Visible latency of this iteration (seconds).
    pub visible_latency_secs: f64,
    /// Cumulative visible latency including preprocessing (seconds).
    pub cumulative_visible_latency_secs: f64,
    /// Measured visible latency in virtual seconds (wall-clock from the
    /// start of the `Explore` call to the batch with predictions, divided
    /// by `time_scale`); `None` for [`SessionRunner::run`].
    pub measured_visible_secs: Option<f64>,
    /// Wall-clock seconds the boundary barrier waited *beyond* the labeling
    /// window for background work to drain; `None` for
    /// [`SessionRunner::run`].
    pub spill_wall_secs: Option<f64>,
}

/// The outcome of a full session.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// Per-iteration trace.
    pub records: Vec<IterationRecord>,
    /// Preprocessing time charged before the first iteration (seconds).
    pub preprocessing_secs: f64,
    /// The iteration at which the rising bandit converged, if it did.
    pub feature_selected_at: Option<usize>,
    /// The extractor finally used for predictions.
    pub final_extractor: ExtractorId,
    /// Every label the session collected, in the order the user produced
    /// them.
    pub labels: Vec<LabelRecord>,
    /// Every fault the session absorbed instead of aborting (empty without a
    /// configured fault plan), in deterministic recording order.
    pub degradations: Vec<Degradation>,
    /// The deterministic event ledger in canonical order (see
    /// `crate::observability`).
    pub events: Vec<(u32, SessionEvent)>,
    /// Executor counters at the end of the session.
    pub executor: ExecutorStats,
    /// How the session's training requests were satisfied: cold fits
    /// (first trainable call or a `warm-start/v1` fallback) versus warm
    /// fine-tunes. Deterministic, so equal between [`SessionRunner::run`]
    /// and [`SessionRunner::run_measured`].
    pub training: TrainingStats,
    /// Where the session's Cluster-Margin and Uncertainty selections got
    /// their probability rows: served from the prefetch or scored on the
    /// spot, and how many Cluster-Margin calls returned the prefetch's
    /// prepared picks (`pools_served`). Deterministic, so equal between
    /// [`SessionRunner::run`] and [`SessionRunner::run_measured`].
    pub prob_cache: ProbCacheStats,
    /// Timing plane: one span per executor task (queue wait, run time,
    /// worker), joined to the event plane by label/iteration. Wall-clock
    /// facts only — never part of determinism assertions. Empty for
    /// [`SessionRunner::run`] and when `VocalExploreConfig::observability`
    /// is off.
    pub timings: Vec<TaskTiming>,
    /// Timing plane: per-iteration session-thread phases (`select`,
    /// `visible`, `think`, `spill`); empty whenever `timings` is.
    pub phases: Vec<PhaseTiming>,
}

fn micros(d: Duration) -> u64 {
    d.as_micros() as u64
}

/// [`median`], or `None` for no values.
fn median_or_none(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| median(values))
}

impl SessionOutcome {
    /// The last measured macro F1.
    pub fn final_f1(&self) -> f64 {
        self.records
            .iter()
            .rev()
            .find_map(|r| r.macro_f1)
            .unwrap_or(0.0)
    }

    /// Mean macro F1 over the last `k` evaluated iterations.
    pub fn mean_f1_last(&self, k: usize) -> f64 {
        let scores: Vec<f64> = self
            .records
            .iter()
            .rev()
            .filter_map(|r| r.macro_f1)
            .take(k)
            .collect();
        if scores.is_empty() {
            0.0
        } else {
            // ve-lint: allow(float-reduction-order) -- Vec iteration order is fixed
            scores.iter().sum::<f64>() / scores.len() as f64
        }
    }

    /// Mean macro F1 across every evaluated iteration (the paper's
    /// "average F1 after 100 Explore steps" for Figure 2).
    pub fn mean_f1(&self) -> f64 {
        let scores: Vec<f64> = self.records.iter().filter_map(|r| r.macro_f1).collect();
        if scores.is_empty() {
            0.0
        } else {
            // ve-lint: allow(float-reduction-order) -- Vec iteration order is fixed
            scores.iter().sum::<f64>() / scores.len() as f64
        }
    }

    /// Total visible latency including preprocessing (seconds).
    pub fn cumulative_visible_latency(&self) -> f64 {
        self.records
            .last()
            .map(|r| r.cumulative_visible_latency_secs)
            .unwrap_or(self.preprocessing_secs)
    }

    /// `S_max` of the final iteration.
    pub fn final_s_max(&self) -> f64 {
        self.records.last().map(|r| r.s_max).unwrap_or(0.0)
    }

    /// Median modeled visible latency per iteration (virtual seconds; the
    /// mean of the two middle values for an even count); 0 without records.
    pub fn median_modeled_visible(&self) -> f64 {
        let modeled: Vec<f64> = self
            .records
            .iter()
            .map(|r| r.visible_latency_secs)
            .collect();
        median_or_none(&modeled).unwrap_or(0.0)
    }

    /// Median measured visible latency per iteration (virtual seconds; the
    /// mean of the two middle values for an even count); `None` unless the
    /// session ran measured.
    pub fn median_measured_visible(&self) -> Option<f64> {
        let measured = self.records.iter().map(|r| r.measured_visible_secs);
        median_or_none(&measured.collect::<Option<Vec<_>>>()?)
    }

    /// Total measured visible latency (virtual seconds); `None` unless the
    /// session ran measured.
    pub fn total_measured_visible(&self) -> Option<f64> {
        // ve-lint: allow(float-reduction-order) -- Vec iteration order is fixed
        self.records.iter().map(|r| r.measured_visible_secs).sum()
    }

    /// Total wall-clock the boundary barriers waited beyond the labeling
    /// windows; `None` unless the session ran measured.
    pub fn total_spill_wall(&self) -> Option<f64> {
        // ve-lint: allow(float-reduction-order) -- Vec iteration order is fixed
        self.records.iter().map(|r| r.spill_wall_secs).sum()
    }
}

/// Drives oracle-labeled sessions.
pub struct SessionRunner {
    config: SessionConfig,
    dataset: Dataset,
}

impl SessionRunner {
    /// Generates the dataset and prepares a runner.
    pub fn new(config: SessionConfig) -> Self {
        let dataset = Dataset::scaled(config.dataset, config.scale, config.seed);
        Self { config, dataset }
    }

    /// Runs the session with every task on the session thread and returns
    /// its trace; latency is the analytic model's only.
    pub fn run(&self) -> SessionOutcome {
        self.run_on(&Executor::inline(), None)
    }

    /// Runs the session on a pool of `executor_workers` threads with every
    /// modeled cost slept at `time_scale`, measuring visible latency next to
    /// the analytic model's.
    pub fn run_measured(&self) -> SessionOutcome {
        let executor = Executor::new(self.config.system.executor_workers.max(1));
        executor.set_timing_enabled(self.config.system.observability);
        self.run_on(&executor, Some(self.config.system.time_scale))
    }

    /// The iteration loop (see the module docs for its order). `time_scale`
    /// is `Some` exactly when modeled costs are slept and wall-clock is
    /// measured.
    fn run_on(&self, executor: &Executor, time_scale: Option<f64>) -> SessionOutcome {
        let cfg = &self.config;
        let strategy = cfg.system.strategy;
        let scale = time_scale.unwrap_or(0.0);
        let mut system = VocalExplore::new(cfg.system.clone());
        for clip in self.dataset.train.videos() {
            system.add_video(clip.clone());
        }
        let fm = system.feature_manager_arc();
        fm.set_latency_scale(time_scale);

        let oracle: Box<dyn Oracle> = if cfg.label_noise > 0.0 {
            Box::new(NoisyOracle::new(
                GroundTruthOracle::new(cfg.system.task),
                cfg.label_noise,
                cfg.system.num_classes,
                cfg.seed ^ 0xBAD_5EED,
            ))
        } else {
            Box::new(GroundTruthOracle::new(cfg.system.task))
        };

        // Preprocessing charge for the baselines that extract features from
        // every video before exploration starts (analytic in both modes).
        let preprocessing_secs = self.preprocessing_cost(&system);
        let window_wall = cfg.batch_size as f64 * cfg.system.t_user * scale;

        let mut records = Vec::with_capacity(cfg.iterations);
        let mut degradations = Vec::new();
        let mut cumulative_visible = preprocessing_secs;
        let mut feature_selected_at = None;
        let mut eval_cache: HashMap<(ExtractorId, VideoId), Vec<f32>> = HashMap::new();
        // The pool the next `Explore` call selects from, for the extractor
        // current at the time: the covered set before the window's deferred
        // work, plus the videos planned for eager extraction.
        let mut pool_before: HashSet<VideoId> = fm
            .videos_with_features(system.current_extractor())
            .into_iter()
            .collect();

        for iteration in 1..=cfg.iterations {
            let tag = iteration as u32;
            // ---- 1–2. Visible phase: the Explore call.
            // ve-lint: allow(wall-clock-in-logic) -- measurement is the product: this timer *is* the reported visible latency
            let visible_timer = Instant::now();
            if strategy == SchedulerStrategy::Serial {
                system.process_pending_work_on(executor, scale);
            }
            // `T_s` per segment; lazy candidate extraction inside sleeps its
            // scaled GPU cost, so it lands in the visible window.
            sleep_scaled(cfg.batch_size as f64 * cfg.system.costs.select_secs, scale);
            let (picks, stats) = system.sample_segments(cfg.batch_size, cfg.clip_len, None);
            let timing = executor.timing();
            timing.record_phase("select", tag, micros(visible_timer.elapsed()));
            // Delivered to the (simulated) user.
            drop(system.serve_predictions(executor, &picks, scale));
            let visible_wall = visible_timer.elapsed();
            timing.record_phase("visible", tag, micros(visible_wall));

            // ---- 3. The user labels the batch (oracle).
            for &(vid, range) in &picks {
                let classes = oracle.label(&self.dataset.train, vid, &range);
                system.add_label(vid, range, classes);
            }

            // ---- 4. Everything the record reports, before any deferred
            // work of this window runs.
            // ve-lint: allow(wall-clock-in-logic) -- measurement is the product: times the labeling window budget
            let window_timer = Instant::now();
            let current_extractor = system.current_extractor();
            let active = system.alm().active_extractors();
            let selected_extractor = system.alm().selected_extractor();
            if feature_selected_at.is_none() && selected_extractor.is_some() {
                feature_selected_at = Some(iteration);
            }
            let labels_total = system.label_count();
            let s_max = s_max(&system.class_counts());
            let costs = self.iteration_costs(&system, &pool_before, &picks, &stats);
            let latency = iteration_latency(strategy, &costs);
            cumulative_visible += latency.visible_secs;
            let model = system.model_manager().latest(current_extractor);

            // ---- 5. VE-full: the labeling window's eager `T_f⁻` tasks.
            let eager_videos = if strategy == SchedulerStrategy::VeFull {
                system.eager_plan(eager_video_budget(&latency, costs.t_extract, active.len()))
            } else {
                Vec::new()
            };
            pool_before = fm
                .videos_with_features(current_extractor)
                .into_iter()
                .collect();
            pool_before.extend(eager_videos.iter().copied());
            let eager_handles: Vec<_> = eager_videos
                .iter()
                .filter_map(|&vid| system.corpus().get(vid).cloned())
                .map(|clip| {
                    let (fm, extractors) = (Arc::clone(&fm), active.clone());
                    executor.submit_with_handle_labeled(
                        Priority::Background,
                        TaskLabel::new("eager", tag),
                        move || {
                            // A permanently failed extraction leaves the
                            // video pending; the rest of the round proceeds.
                            let gave_up: Vec<ExtractorId> = extractors
                                .into_iter()
                                .filter(|&e| fm.ensure_clip(e, &clip).is_err())
                                .collect();
                            (clip.id, gave_up)
                        },
                    )
                })
                .collect();

            // ---- 6. The deferred work overlaps the labeling window; none
            // runs after the last labels (no `Explore` is left to serve).
            if strategy != SchedulerStrategy::Serial && iteration < cfg.iterations {
                system.process_pending_work_on(executor, scale);
            }

            // ---- 7. Whatever window time the work above did not consume
            // is pure think time; background work past it is spill.
            let spent = window_timer.elapsed().as_secs_f64();
            if spent < window_wall {
                std::thread::sleep(Duration::from_secs_f64(window_wall - spent));
            }
            timing.record_phase("think", tag, micros(window_timer.elapsed()));
            // ve-lint: allow(wall-clock-in-logic) -- measurement is the product: times barrier spill beyond the window
            let barrier_timer = Instant::now();
            executor.wait_idle();
            let spill_wall = barrier_timer.elapsed();
            timing.record_phase("spill", tag, micros(spill_wall));
            for handle in eager_handles {
                let (vid, gave_up) = handle.join().expect("eager task must not panic");
                for extractor in gave_up {
                    system.record_degradation(Degradation::ExtractionGaveUp {
                        iteration: tag,
                        extractor,
                        vid,
                    });
                }
            }
            degradations.extend(system.drain_degradations());

            let macro_f1 = if iteration % cfg.eval_every == 0 || iteration == cfg.iterations {
                let sim = fm.simulator();
                model.and_then(|m| {
                    held_out_f1(
                        &m,
                        &self.dataset.eval,
                        cfg.system.task,
                        cfg.clip_len,
                        |clip, range| {
                            eval_cache
                                .entry((current_extractor, clip.id))
                                .or_insert_with(|| sim.extract(current_extractor, clip, range).data)
                                .clone()
                        },
                    )
                })
            } else {
                None
            };
            records.push(IterationRecord {
                iteration,
                labels_total,
                acquisition: stats.acquisition,
                active_extractors: active.len(),
                selected_extractor,
                current_extractor,
                s_max,
                macro_f1,
                visible_latency_secs: latency.visible_secs,
                cumulative_visible_latency_secs: cumulative_visible,
                measured_visible_secs: time_scale.map(|s| visible_wall.as_secs_f64() / s),
                spill_wall_secs: time_scale.map(|_| spill_wall.as_secs_f64()),
            });
        }

        fm.set_latency_scale(None);
        SessionOutcome {
            records,
            preprocessing_secs,
            feature_selected_at,
            final_extractor: system.current_extractor(),
            labels: system.label_records(),
            degradations,
            events: system.obs().canonical_events(),
            executor: executor.stats(),
            training: system.model_manager().training_stats(),
            prob_cache: system.alm().prob_cache_stats(),
            timings: executor.timing().tasks(),
            phases: executor.timing().phases(),
        }
    }

    /// The analytic per-iteration cost vector (Section 4's `T_*` terms) of
    /// one completed `Explore` call: the batch videos missing from the pool
    /// it selected from, the extra candidates the selection extracted beyond
    /// them, the per-video extraction estimate for the now-current
    /// extractor, and the number of features still under evaluation.
    fn iteration_costs(
        &self,
        system: &VocalExplore,
        pool_before: &HashSet<VideoId>,
        picks: &[(VideoId, TimeRange)],
        stats: &SelectionStats,
    ) -> IterationCosts {
        let cfg = system.config();
        let per_video_extract = self
            .dataset
            .train
            .videos()
            .first()
            .map(|clip| {
                system
                    .feature_manager()
                    .extraction_cost(system.current_extractor(), clip)
            })
            .unwrap_or(0.25);
        let batch_videos: HashSet<VideoId> = picks.iter().map(|&(vid, _)| vid).collect();
        // ve-lint: allow(nondeterministic-iteration) -- counting matching elements; the count is order-insensitive
        let videos_needing_extraction = batch_videos
            .iter()
            .filter(|vid| !pool_before.contains(vid))
            .count();
        IterationCosts {
            batch_size: self.config.batch_size,
            t_select: cfg.costs.select_secs,
            t_extract: per_video_extract,
            videos_needing_extraction,
            extra_candidates: stats
                .videos_extracted_for_call
                .saturating_sub(videos_needing_extraction),
            t_infer: cfg.costs.infer_secs,
            t_train: cfg.costs.train_secs(system.label_count()),
            t_eval: cfg.costs.eval_secs,
            features_under_evaluation: if system.alm().selected_extractor().is_some() {
                0
            } else {
                system.alm().active_extractors().len()
            },
            t_user: cfg.t_user,
        }
    }

    /// Preprocessing cost for the `*-PP` baselines: extract the relevant
    /// features from every training video before the first iteration.
    fn preprocessing_cost(&self, system: &VocalExplore) -> f64 {
        if self.config.system.preprocess != PreprocessPolicy::AllVideos {
            return 0.0;
        }
        let extractors = system.alm().active_extractors();
        self.dataset
            .train
            .videos()
            .iter()
            .map(|clip| {
                extractors
                    .iter()
                    .map(|&e| system.feature_manager().extraction_cost(e, clip))
                    // ve-lint: allow(float-reduction-order) -- Vec iteration order is fixed
                    .sum::<f64>()
            })
            // ve-lint: allow(float-reduction-order) -- slice iteration order is fixed
            .sum::<f64>()
    }
}

/// Macro F1 of `fitted` on the held-out `eval` corpus, over one window per
/// video: the `clip_len` seconds from the floor of its midpoint, which keeps
/// evaluation cheap while covering every video. `features` supplies a
/// window's unscaled feature vector. Single-label truth is the class of the
/// segment at the window's midpoint (videos without one are skipped);
/// multi-label truth is every class in the window. `None` when no window
/// has a truth label.
pub fn held_out_f1(
    fitted: &FittedModel,
    eval: &VideoCorpus,
    task: TaskKind,
    clip_len: f64,
    mut features: impl FnMut(&VideoClip, &TimeRange) -> Vec<f32>,
) -> Option<f64> {
    let mut truth = task_targets(task);
    let mut predicted = Vec::new();
    for clip in eval.videos() {
        let mid = (clip.duration / 2.0).floor();
        let range = TimeRange::new(mid, (mid + clip_len).min(clip.duration));
        let classes = match task {
            TaskKind::SingleLabel => clip
                .segment_at(range.midpoint())
                .and_then(|s| s.primary_class())
                .into_iter()
                .collect(),
            TaskKind::MultiLabel => clip.classes_in(&range),
        };
        if truth.push(&classes) {
            let x = fitted.scaler.transform(&features(clip, &range));
            predicted.push(fitted.model.predict_labels(&x));
        }
    }
    (!truth.is_empty()).then(|| truth.macro_f1(&predicted, fitted.model.num_classes()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FeatureSelectionPolicy, SamplingPolicy};
    use ve_bandit::RisingBanditConfig;

    fn quick_session(dataset: DatasetName, seed: u64) -> SessionConfig {
        let mut cfg = SessionConfig::new(dataset, 0.08, seed)
            .with_iterations(8)
            .with_eval_every(4);
        // Keep debug-mode tests fast: fixed feature, modest training budget.
        cfg.system = cfg
            .system
            .with_feature_selection(FeatureSelectionPolicy::Fixed(ExtractorId::R3d))
            .with_extra_candidates(5);
        cfg.system.train.epochs = 40;
        cfg
    }

    #[test]
    fn session_produces_one_record_per_iteration() {
        let runner = SessionRunner::new(quick_session(DatasetName::Deer, 1));
        let outcome = runner.run();
        assert_eq!(outcome.records.len(), 8);
        assert_eq!(outcome.records.last().unwrap().labels_total, 40);
        assert!(outcome.records.iter().any(|r| r.macro_f1.is_some()));
        // Cumulative latency is non-decreasing.
        let mut prev = 0.0;
        for r in &outcome.records {
            assert!(r.cumulative_visible_latency_secs >= prev);
            prev = r.cumulative_visible_latency_secs;
        }
    }

    #[test]
    fn f1_improves_with_labels_on_deer() {
        let mut cfg = quick_session(DatasetName::Deer, 2)
            .with_iterations(14)
            .with_eval_every(13);
        cfg.system.strategy = SchedulerStrategy::VeFull;
        let runner = SessionRunner::new(cfg);
        let outcome = runner.run();
        // With only ~70 labels on a heavily skewed 9-class dataset and a
        // 30-video eval split, several rare classes are absent from both the
        // training labels and the eval set, so macro F1 over the full
        // vocabulary is capped well below 1. Chance level (predicting the
        // majority class) is ~0.05 here; require a clear margin above it.
        let final_f1 = outcome.final_f1();
        assert!(
            final_f1 > 0.12,
            "with ~70 ground-truth labels the R3D model should beat chance: {final_f1}"
        );
    }

    #[test]
    fn preprocessing_policy_charges_upfront_latency() {
        let mut cfg = quick_session(DatasetName::Deer, 3);
        cfg.system = cfg.system.with_preprocess(PreprocessPolicy::AllVideos);
        cfg.system.strategy = SchedulerStrategy::Serial;
        let runner = SessionRunner::new(cfg);
        let outcome = runner.run();
        assert!(outcome.preprocessing_secs > 0.0);
        assert!(outcome.cumulative_visible_latency() >= outcome.preprocessing_secs);
    }

    #[test]
    fn ve_full_has_lower_visible_latency_than_serial() {
        let mk = |strategy| {
            let mut cfg = quick_session(DatasetName::Deer, 4);
            cfg.system.strategy = strategy;
            SessionRunner::new(cfg).run().cumulative_visible_latency()
        };
        let serial = mk(SchedulerStrategy::Serial);
        let partial = mk(SchedulerStrategy::VePartial);
        let full = mk(SchedulerStrategy::VeFull);
        assert!(
            serial > partial,
            "serial {serial} should exceed partial {partial}"
        );
        assert!(
            partial > full,
            "partial {partial} should exceed full {full}"
        );
    }

    #[test]
    fn random_baseline_records_random_acquisition() {
        let mut cfg = quick_session(DatasetName::K20, 5);
        cfg.system = cfg
            .system
            .with_sampling(SamplingPolicy::Fixed(AcquisitionKind::Random));
        let runner = SessionRunner::new(cfg);
        let outcome = runner.run();
        assert!(outcome
            .records
            .iter()
            .all(|r| r.acquisition == AcquisitionKind::Random));
    }

    #[test]
    fn outcome_helpers() {
        let runner = SessionRunner::new(quick_session(DatasetName::Bears, 6));
        let outcome = runner.run();
        assert!(outcome.mean_f1() >= 0.0);
        assert!(outcome.mean_f1_last(3) >= 0.0);
        assert!(outcome.final_s_max() > 0.0);
        assert_eq!(outcome.final_extractor, ExtractorId::R3d);
    }

    #[test]
    fn visible_latency_medians_average_the_two_middle_values() {
        let mut outcome = SessionRunner::new(quick_session(DatasetName::Bears, 6)).run();
        outcome.records.truncate(4);
        for (record, secs) in outcome.records.iter_mut().zip([4.0, 1.0, 3.0, 2.0]) {
            record.visible_latency_secs = secs;
            record.measured_visible_secs = Some(10.0 * secs);
        }
        assert_eq!(outcome.median_modeled_visible(), 2.5);
        assert_eq!(outcome.median_measured_visible(), Some(25.0));
        outcome.records[0].measured_visible_secs = None;
        assert_eq!(outcome.median_measured_visible(), None);
        outcome.records.clear();
        assert_eq!(outcome.median_modeled_visible(), 0.0);
        assert_eq!(outcome.median_measured_visible(), None);
    }

    fn measured_config(strategy: SchedulerStrategy, seed: u64, time_scale: f64) -> SessionConfig {
        let mut cfg = quick_session(DatasetName::Deer, seed).with_eval_every(1000);
        cfg.system = cfg
            .system
            .with_strategy(strategy)
            .with_compute_threads(1)
            .with_time_scale(time_scale);
        cfg
    }

    #[test]
    fn async_engine_matches_synchronous_path_label_sequence() {
        // At compute_threads = 1 the measured (executor-backed) path must
        // produce the exact label/selection sequence of the inline path, for
        // every strategy.
        for strategy in SchedulerStrategy::all() {
            let runner = SessionRunner::new(measured_config(strategy, 11, 1e-4));
            let (inline, measured) = (runner.run(), runner.run_measured());
            assert_eq!(
                measured.labels, inline.labels,
                "label sequences diverged under {strategy}"
            );
            assert_eq!(measured.final_extractor, inline.final_extractor);
            assert_eq!(measured.records.len(), inline.records.len());
            for (m, s) in measured.records.iter().zip(&inline.records) {
                assert_eq!(m.acquisition, s.acquisition, "{strategy}");
                assert_eq!(m.labels_total, s.labels_total, "{strategy}");
            }
        }
    }

    #[test]
    fn async_engine_is_deterministic_across_executor_workers() {
        let mk = |workers: usize| {
            let mut cfg = measured_config(SchedulerStrategy::VeFull, 12, 1e-4);
            cfg.system = cfg.system.with_executor_workers(workers);
            SessionRunner::new(cfg).run_measured()
        };
        let one = mk(1);
        let four = mk(4);
        assert_eq!(one.labels, four.labels, "worker count changed selections");
        let acq = |o: &SessionOutcome| o.records.iter().map(|r| r.acquisition).collect::<Vec<_>>();
        assert_eq!(acq(&one), acq(&four));
    }

    #[test]
    fn measured_run_matches_inline_run_with_bandit_feature_selection() {
        // The bandit flips `current_extractor` as CV scores arrive; every
        // record value must be read before the window's deferred work, or
        // the eager budgets (and then the selections) drift.
        let mut cfg = SessionConfig::new(DatasetName::Deer, 0.06, 21)
            .with_iterations(6)
            .with_eval_every(1000);
        cfg.system = cfg
            .system
            .with_strategy(SchedulerStrategy::VeFull)
            .with_extra_candidates(5)
            .with_compute_threads(1)
            .with_time_scale(1e-4);
        cfg.system.train.epochs = 30;
        let runner = SessionRunner::new(cfg);
        let (inline, measured) = (runner.run(), runner.run_measured());
        assert_eq!(measured.labels, inline.labels);
        assert_eq!(measured.feature_selected_at, inline.feature_selected_at);
        assert_eq!(measured.final_extractor, inline.final_extractor);
        assert_eq!(measured.events, inline.events);
    }

    #[test]
    fn executor_counters_converge_and_tasks_actually_ran() {
        let runner = SessionRunner::new(measured_config(SchedulerStrategy::VeFull, 13, 1e-4));
        for (out, measured) in [(runner.run(), false), (runner.run_measured(), true)] {
            assert_eq!(
                out.executor.pending(),
                0,
                "every submitted task must have completed by the end"
            );
            assert_eq!(out.executor.failed, 0);
            assert!(
                out.executor.submitted > 0,
                "VE-full must have submitted real tasks (training + eager T_f⁻)"
            );
            assert_eq!(out.records.len(), 8);
            // Wall-clock fields exist exactly when the run measured them.
            let timed = out
                .records
                .iter()
                .filter(|r| r.measured_visible_secs.is_some());
            assert_eq!(timed.count(), if measured { 8 } else { 0 });
            assert_eq!(out.phases.is_empty(), !measured);
        }
    }

    #[test]
    fn measured_run_serves_each_batch_with_one_infer_task() {
        let out =
            SessionRunner::new(measured_config(SchedulerStrategy::VeFull, 15, 1e-4)).run_measured();
        assert_eq!(out.executor.submitted, out.timings.len() as u64);
        let served: HashSet<u32> = out
            .events
            .iter()
            .filter_map(|(iteration, event)| match event {
                SessionEvent::PredictionsServed { predicted, .. } if *predicted > 0 => {
                    Some(*iteration)
                }
                _ => None,
            })
            .collect();
        assert!(!served.is_empty(), "the session must serve predictions");
        for iteration in 1..=out.records.len() as u32 {
            let spans = out
                .timings
                .iter()
                .filter(|t| t.label.kind == "infer" && t.label.iteration == iteration)
                .count();
            assert_eq!(
                spans,
                usize::from(served.contains(&iteration)),
                "infer spans at iteration {iteration}"
            );
        }
    }

    #[test]
    fn measured_run_scores_each_bandit_round_with_one_eval_task() {
        // A short horizon makes the bandit converge inside the session, so
        // the rounds before convergence and the silence after it both show.
        let mut cfg = measured_config(SchedulerStrategy::VePartial, 19, 1e-4).with_iterations(10);
        cfg.system = cfg
            .system
            .with_feature_selection(FeatureSelectionPolicy::Bandit(RisingBanditConfig {
                horizon: 4,
                warmup: 2,
                ..RisingBanditConfig::default()
            }))
            .with_compute_threads(2);
        cfg.system.train.epochs = 20;
        let min_labels = cfg.system.min_labels_for_predictions;
        let out = SessionRunner::new(cfg).run_measured();
        assert_eq!(out.executor.submitted, out.timings.len() as u64);
        let converged_at = out.feature_selected_at.expect("the bandit must converge");
        assert!(
            converged_at < out.records.len(),
            "no iteration after convergence"
        );
        let mut rounds = 0;
        for record in &out.records {
            // VE-partial runs iteration i's deferred work after its record
            // is read and never after the last labels.
            let has_candidates = record.iteration < out.records.len()
                && record.labels_total >= min_labels
                && record.selected_extractor.is_none();
            let spans = out
                .timings
                .iter()
                .filter(|t| t.label.kind == "eval" && t.label.iteration == record.iteration as u32)
                .count();
            assert_eq!(
                spans,
                usize::from(has_candidates),
                "eval spans at iteration {}",
                record.iteration
            );
            rounds += spans;
        }
        assert!(rounds >= 2, "the session must run bandit rounds: {rounds}");
    }

    #[test]
    fn measured_visible_latency_orders_strategies_like_the_model() {
        // Smoke-level ordering check; the root integration test asserts the
        // tolerance against the analytic model. The time scale must be coarse
        // enough that scaled task costs dominate the real in-process compute:
        // measured virtual seconds are wall-clock divided by the scale, so a
        // coarser scale leaves the (cost-derived) signal unchanged while
        // dividing debug-mode compute noise. A shortened think time keeps the
        // wall-clock of the test in check.
        let run = |strategy| {
            let mut cfg = measured_config(strategy, 14, 3e-2).with_iterations(6);
            cfg.system.t_user = 4.0;
            SessionRunner::new(cfg).run_measured()
        };
        let serial = run(SchedulerStrategy::Serial);
        let partial = run(SchedulerStrategy::VePartial);
        let full = run(SchedulerStrategy::VeFull);
        let total = |o: &SessionOutcome| o.total_measured_visible().unwrap();
        let (s, p, f) = (total(&serial), total(&partial), total(&full));
        assert!(s > p, "Serial ({s:.1}s) must exceed VE-partial ({p:.1}s)");
        assert!(p > f, "VE-partial ({p:.1}s) must exceed VE-full ({f:.1}s)");
        // The model agrees on the ordering.
        assert!(serial.cumulative_visible_latency() > partial.cumulative_visible_latency());
        assert!(partial.cumulative_visible_latency() > full.cumulative_visible_latency());
    }
}
