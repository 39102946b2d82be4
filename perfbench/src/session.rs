//! One simulated user driving the Table-1 API in a closed loop.
//!
//! The user has zero think time: the next `Explore` is sent only after the
//! previous batch was labeled and the labeling window's background work
//! finished. Every call is timed from here, around the public API, so the
//! program under test is unchanged. The feature manager's latency scale is
//! never set, so no modeled sleep is timed: all measured time is computed
//! time, and modeled GPU seconds are read separately from
//! `FeatureManager::gpu_seconds_spent`.

use crate::trace::{offset_ns, Tracer};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use ve_features::ExtractorId;
use ve_ml::Classifier;
use ve_sched::{Executor, Priority};
use ve_vidsim::{Dataset, DatasetName, GroundTruthOracle, Oracle, TaskKind, TimeRange, VideoId};
use vocalexplore::alm::SelectionStats;
use vocalexplore::{
    AcquisitionIndexStats, FeatureSelectionPolicy, Prediction, ProbCacheStats, TrainingStats,
    VocalExplore, VocalExploreConfig,
};

/// Segments per `Explore` call (`B`).
pub const BATCH: usize = 5;
/// Segment duration in seconds (`t`).
pub const CLIP_LEN: f64 = 1.0;
/// `Explore` calls per session (the paper's session length).
pub const ITERATIONS: usize = 100;
/// Set-ups timed per session. One set-up takes about a millisecond, so a
/// single sample per session would be mostly scheduling noise.
pub const SETUP_REPEATS: usize = 10;

/// How the labeling window and the visible call are composed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// VE-partial: visible = selection + inference; the window runs the
    /// deferred training inline.
    Lazy,
    /// VE-full: as `Lazy`, plus eager extraction on background executor
    /// tasks during the window.
    Eager,
    /// Serial: visible = `explore()` itself, deferred work included.
    Serial,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub dataset: DatasetName,
    pub shape: Shape,
    /// Rising-bandit feature selection over every extractor (else fixed R3D).
    pub bandit: bool,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "lazy-deer",
        dataset: DatasetName::Deer,
        shape: Shape::Lazy,
        bandit: false,
    },
    Workload {
        name: "eager-deer",
        dataset: DatasetName::Deer,
        shape: Shape::Eager,
        bandit: false,
    },
    Workload {
        name: "bandit-k20skew",
        dataset: DatasetName::K20Skew,
        shape: Shape::Serial,
        bandit: true,
    },
];

/// One session's settings.
pub struct SessionSpec<'a> {
    pub workload: Workload,
    /// Corpus and system seed.
    pub seed: u64,
    /// Session index within the run (tags the spans).
    pub index: u32,
    pub compute_threads: usize,
    pub observability: bool,
    /// Executor for the eager shape's background tasks.
    pub executor: Option<&'a Executor>,
}

/// What one session measured and checked.
#[derive(Debug, Default)]
pub struct SessionOut {
    /// Every timed set-up, in seconds.
    pub setup_s: Vec<f64>,
    pub session_s: f64,
    /// Visible computed latency of every `Explore`, in ms.
    pub explore_ms: Vec<f64>,
    /// `Explore` calls that returned fewer than `BATCH` segments.
    pub short_batches: u64,
    /// Eager tasks submitted to the executor.
    pub tasks_submitted: u64,
    /// Eager tasks that panicked or whose extraction gave up.
    pub tasks_failed: u64,
    /// Degradations the system recorded, plus inference errors absorbed by
    /// the decomposed visible path.
    pub degradations: u64,
    /// Correctness violations (an empty list is a pass).
    pub violations: Vec<String>,
    pub label_digest: u64,
    pub final_macro_f1: f64,
    pub gpu_session_s: f64,
    pub gpu_visible_s: f64,
    pub lazy_videos: u64,
    pub lazy_gpu_s: f64,
    pub index: Option<AcquisitionIndexStats>,
    pub cache: ProbCacheStats,
    pub training: TrainingStats,
    pub evaluations: u64,
    /// Iteration at which the bandit converged (0 without a bandit).
    pub converged_at: u64,
    pub active_extractors_final: usize,
    pub eager_videos: u64,
    pub obs_events: usize,
}

impl SessionOut {
    /// Operations attempted: `Explore` calls plus eager tasks.
    pub fn attempted_ops(&self) -> u64 {
        self.explore_ms.len() as u64 + self.tasks_submitted
    }

    /// Operations that failed: short batches, failed tasks, degradations.
    pub fn failed_ops(&self) -> u64 {
        self.short_batches + self.tasks_failed + self.degradations
    }
}

/// Seed of session `index` of a run started with `seed` (SplitMix64).
pub fn session_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed.wrapping_add(index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Videos eagerly extracted per labeling window: enough to cover the corpus
/// a quarter of the way into the session.
pub fn eager_budget(corpus_len: usize) -> usize {
    corpus_len.div_ceil(ITERATIONS / 4)
}

/// FNV-1a digest of the label sequence, in the order the user produced it.
fn label_digest(system: &VocalExplore) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for r in system.label_records() {
        eat(r.vid.0);
        eat(r.range.start.to_bits());
        eat(r.range.end.to_bits());
        eat(u64::from(r.iteration));
        for &c in &r.classes {
            eat(c as u64);
        }
    }
    h
}

/// Held-out macro F1 of the final model, computed as the experiment harness
/// does: the middle window of every evaluation video.
fn final_macro_f1(system: &VocalExplore, dataset: &Dataset) -> Option<f64> {
    let extractor = system.current_extractor();
    let fitted = system.model_manager().latest(extractor)?;
    let sim = system.feature_manager().simulator();
    let mut y_true = Vec::new();
    let mut y_pred = Vec::new();
    for clip in dataset.eval.videos() {
        let mid = (clip.duration / 2.0).floor();
        let range = TimeRange::new(mid, (mid + CLIP_LEN).min(clip.duration));
        let Some(truth) = clip
            .segment_at(range.midpoint())
            .and_then(|s| s.primary_class())
        else {
            continue;
        };
        let features = sim.extract(extractor, clip, &range).data;
        y_pred.push(fitted.model.predict(&fitted.scaler.transform(&features)));
        y_true.push(truth);
    }
    (!y_true.is_empty()).then(|| ve_ml::macro_f1(&y_true, &y_pred, system.config().num_classes))
}

/// Runs one session of `ITERATIONS` closed-loop `Explore` calls.
///
/// With the tracer on, every call becomes a span and the serial shape is
/// decomposed into `process_pending_work`, `sample_segments` and
/// `predict_batch`; with it off, the serial shape calls `explore()` exactly
/// as a user does.
pub fn run_session(spec: &SessionSpec, tracer: &mut Tracer) -> SessionOut {
    let wl = spec.workload;
    let session = spec.index;
    let dataset = Dataset::scaled(wl.dataset, 1.0, spec.seed);
    assert_eq!(dataset.spec.task, TaskKind::SingleLabel);
    let oracle = GroundTruthOracle::new(dataset.spec.task);
    let policy = if wl.bandit {
        FeatureSelectionPolicy::default()
    } else {
        FeatureSelectionPolicy::Fixed(ExtractorId::R3d)
    };
    let mut config = VocalExploreConfig::for_dataset(&dataset, spec.seed)
        .with_feature_selection(policy)
        .with_compute_threads(spec.compute_threads)
        .with_observability(spec.observability);
    if let Some(exec) = spec.executor {
        config = config.with_executor_workers(exec.workers());
    }
    let decompose = wl.shape != Shape::Serial || tracer.is_on();
    let mut out = SessionOut::default();

    // --- Set-up: `VocalExplore::new` plus `add_video` of the corpus, timed
    // `SETUP_REPEATS` times; the last system is the one the session uses.
    let mut kept = None;
    for repeat in 1..=SETUP_REPEATS {
        let start = Instant::now();
        let span = if repeat == SETUP_REPEATS {
            tracer.open("setup", 0, session, 0, start)
        } else {
            0
        };
        let mut system = VocalExplore::new(config.clone());
        for clip in dataset.train.videos() {
            if span == 0 {
                system.add_video(clip.clone());
            } else {
                tracer.span("add_video", span, session, 0, || {
                    system.add_video(clip.clone())
                });
            }
        }
        let end = Instant::now();
        tracer.close(span, end);
        out.setup_s.push((end - start).as_secs_f64());
        kept = Some(system);
    }
    let mut system = kept.expect("at least one set-up");

    let eager_per_window = eager_budget(system.corpus().len());
    let stamps: Arc<Mutex<Vec<(u64, u64, u64)>>> = Arc::default();
    let task_errors = Arc::new(AtomicU64::new(0));
    let exec_before = spec.executor.map(Executor::stats);
    let mut offered: HashSet<(VideoId, u64)> = HashSet::new();
    let mut converged_at = None;

    let session_start = Instant::now();
    for iteration in 1..=ITERATIONS as u32 {
        // --- Visible: the `Explore` call.
        let t0 = Instant::now();
        let iter_span = tracer.open("iteration", 0, session, iteration, t0);
        let explore_span = tracer.open("explore", iter_span, session, iteration, t0);
        let gpu_before = system.feature_manager().gpu_seconds_spent();
        let (picks, predictions, stats): (Vec<(VideoId, TimeRange)>, Vec<Vec<Prediction>>, _) =
            if decompose {
                if wl.shape == Shape::Serial {
                    out.evaluations += tracer.span(
                        "process_pending_work",
                        explore_span,
                        session,
                        iteration,
                        || system.process_pending_work() as u64,
                    );
                }
                let (picks, stats) =
                    tracer.span("sample_segments", explore_span, session, iteration, || {
                        system.sample_segments(BATCH, CLIP_LEN, None)
                    });
                let predictions = if system.predictions_ready() {
                    let result =
                        tracer.span("predict_batch", explore_span, session, iteration, || {
                            system.model_manager().predict_batch(
                                system.current_extractor(),
                                system.corpus(),
                                system.feature_manager(),
                                &picks,
                            )
                        });
                    result.unwrap_or_else(|_| {
                        out.degradations += 1;
                        Vec::new()
                    })
                } else {
                    Vec::new()
                };
                (picks, predictions, Some(stats))
            } else {
                let batch = system.explore(BATCH, CLIP_LEN, None);
                let picks = batch.segments.iter().map(|s| (s.vid, s.range)).collect();
                let predictions = batch.segments.into_iter().map(|s| s.predictions).collect();
                (picks, predictions, batch.stats)
            };
        let t1 = Instant::now();
        tracer.close(explore_span, t1);
        out.explore_ms.push((t1 - t0).as_secs_f64() * 1e3);
        if picks.len() != BATCH {
            out.short_batches += 1;
        }
        out.gpu_visible_s += system.feature_manager().gpu_seconds_spent() - gpu_before;
        if let Some(SelectionStats {
            videos_extracted_for_call,
            extraction_secs,
            ..
        }) = stats
        {
            out.lazy_videos += videos_extracted_for_call as u64;
            out.lazy_gpu_s += extraction_secs;
        }
        check_batch(
            iteration,
            &picks,
            &predictions,
            &mut offered,
            &mut out.violations,
        );

        // --- Labeling window: eager background tasks (VE-full), the user's
        // labels, the deferred training, then the barrier.
        if let Some(exec) = spec.executor {
            let fm = system.feature_manager_arc();
            for vid in system.eager_plan(eager_per_window) {
                let clip = system
                    .corpus()
                    .get(vid)
                    .expect("planned from the corpus")
                    .clone();
                let (fm, stamps, errors) = (
                    Arc::clone(&fm),
                    Arc::clone(&stamps),
                    Arc::clone(&task_errors),
                );
                let (origin, traced) = (tracer.origin(), tracer.is_on());
                let submit = traced.then(Instant::now);
                exec.submit(Priority::Background, move || {
                    let start = submit.map(|_| Instant::now());
                    if fm.ensure_clip(ExtractorId::R3d, &clip).is_err() {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                    if let (Some(submit), Some(start)) = (submit, start) {
                        let end = Instant::now();
                        if let Ok(mut s) = stamps.lock() {
                            s.push((
                                offset_ns(origin, submit),
                                offset_ns(origin, start),
                                offset_ns(origin, end),
                            ));
                        }
                    }
                });
                out.eager_videos += 1;
            }
        }
        for (vid, range) in &picks {
            let classes = oracle.label(&dataset.train, *vid, range);
            tracer.span("add_label", iter_span, session, iteration, || {
                system.add_label(*vid, *range, classes)
            });
        }
        if wl.shape != Shape::Serial {
            out.evaluations += tracer.span(
                "process_pending_work",
                iter_span,
                session,
                iteration,
                || system.process_pending_work() as u64,
            );
        }
        if let Some(exec) = spec.executor {
            tracer.span("wait_idle", iter_span, session, iteration, || {
                exec.wait_idle()
            });
            if tracer.is_on() {
                let drained = std::mem::take(&mut *stamps.lock().expect("stamp lock"));
                let origin = tracer.origin();
                for (submit, start, end) in drained {
                    let at = |ns| origin + std::time::Duration::from_nanos(ns);
                    let (submit, start, end) = (at(submit), at(start), at(end));
                    tracer.record(
                        "sched_queue_wait",
                        iter_span,
                        session,
                        iteration,
                        submit,
                        start,
                    );
                    tracer.record("eager_task", iter_span, session, iteration, start, end);
                }
            }
        }
        tracer.close(iter_span, Instant::now());
        if converged_at.is_none() && wl.bandit && system.alm().selected_extractor().is_some() {
            converged_at = Some(iteration);
        }
    }
    out.session_s = session_start.elapsed().as_secs_f64();

    // --- Post-session readings (untimed).
    if let (Some(exec), Some(before)) = (spec.executor, exec_before) {
        let after = exec.stats();
        out.tasks_submitted = after.submitted - before.submitted;
        out.tasks_failed = after.failed - before.failed + task_errors.load(Ordering::Relaxed);
    }
    out.degradations += system.drain_degradations().len() as u64;
    out.label_digest = label_digest(&system);
    out.gpu_session_s = system.feature_manager().gpu_seconds_spent();
    match final_macro_f1(&system, &dataset) {
        Some(f1) => out.final_macro_f1 = f1,
        None => out.violations.push("no model was trained".into()),
    }
    out.index = system.alm().index_stats();
    out.cache = system.alm().prob_cache_stats();
    out.training = system.model_manager().training_stats();
    out.converged_at =
        converged_at.map_or(if wl.bandit { ITERATIONS as u64 + 1 } else { 0 }, u64::from);
    out.active_extractors_final = system.alm().active_extractors().len();
    out.obs_events = system.obs().canonical_events().len();
    out
}

/// Checks one `Explore` result: `B` segments, none offered before in this
/// session, and every prediction row a distribution.
fn check_batch(
    iteration: u32,
    picks: &[(VideoId, TimeRange)],
    predictions: &[Vec<Prediction>],
    offered: &mut HashSet<(VideoId, u64)>,
    violations: &mut Vec<String>,
) {
    if picks.len() != BATCH {
        violations.push(format!(
            "short batch at iteration {iteration}: {} segments",
            picks.len()
        ));
    }
    for (vid, range) in picks {
        if !offered.insert((*vid, range.start.to_bits())) {
            violations.push(format!("segment {vid:?}@{} offered twice", range.start));
        }
    }
    for row in predictions.iter().filter(|row| !row.is_empty()) {
        let sum: f64 = row.iter().map(|p| f64::from(p.probability)).sum();
        // Probabilities are `f32`: a softmax over n classes normalises by
        // an `f32` sum, so its rows can miss 1 by about n epsilons.
        let tolerance = 1e-6_f64.max(row.len() as f64 * f64::from(f32::EPSILON));
        if (sum - 1.0).abs() > tolerance {
            violations.push(format!(
                "prediction row sums to {sum} at iteration {iteration}"
            ));
        }
    }
}
