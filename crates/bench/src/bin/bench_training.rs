//! Iterated-session training + inference benchmark: writes
//! `BENCH_training.json`.
//!
//! Measures the amortized per-iteration cost of model training (`T_m`) plus
//! candidate-set inference over a long exploration session — the two
//! per-iteration costs that, before warm-started training and the
//! model-version-aware `ProbabilityCache`, scaled with *total* session labels
//! rather than with the per-iteration Δ. Three variants run the same
//! label-and-train schedule (train every [`TRAIN_CADENCE`]nd iteration, so
//! iterations between trains see an unchanged model version):
//!
//! * **baseline** — from-scratch training, probability cache disabled: what
//!   every iteration used to pay.
//! * **cached** — from-scratch training with the cache enabled. Selections
//!   must be **bit-identical** to the baseline (asserted before any timing
//!   is reported); only inference on cache hits gets cheaper.
//! * **warm** — warm-started training (`warm-start/v1` tolerance contract:
//!   fine-tune on Δ + bounded replay) plus the cache. Selections may differ
//!   from cold-start — the contract pins model *quality* instead, asserted
//!   against the baseline's held-out accuracy.
//!
//! The headline acceptance number: with warm + cache, the per-iteration
//! training+selection cost around iteration 50 stays within 1.5× of the cost
//! around iteration 5, while the baseline grows monotonically with the label
//! count.
//!
//! ```text
//! cargo run --release -p ve-bench --bin bench_training [-- --quick]
//! ```
//!
//! `--quick` runs fewer iterations and skips the flatness assertion (the
//! cache-hit-rate and bit-identity assertions always run; CI relies on the
//! emitted `cache_hit_rate` being positive).

use std::time::Instant;
use ve_al::AcquisitionKind;
use ve_bench::emit::Artifact;
use ve_features::{ExtractorId, FeatureSimulator};
use ve_obs::json::Json;
use ve_storage::{LabelRecord, LabelStore, StorageManager};
use ve_vidsim::{Dataset, DatasetName, GroundTruthOracle, Oracle, TaskKind, TimeRange, VideoId};
use vocalexplore::alm::ActiveLearningManager;
use vocalexplore::config::{FeatureSelectionPolicy, SamplingPolicy, VocalExploreConfig};
use vocalexplore::feature_manager::FeatureManager;
use vocalexplore::model_manager::ModelManager;
use vocalexplore::WarmStartConfig;

const EXTRACTOR: ExtractorId = ExtractorId::Mvit;
const BUDGET: usize = 5;
const CLIP_LEN: f64 = 1.0;
const SEED_LABELS: usize = 30;
/// Train every 2nd iteration: alternate iterations see an unchanged model
/// version, which is where the probability cache serves hits.
const TRAIN_CADENCE: usize = 2;
/// Window width for the early/late amortized-cost medians.
const WINDOW: usize = 6;

struct Fixture {
    dataset: Dataset,
    fm: FeatureManager,
    config: VocalExploreConfig,
    windows: usize,
}

struct SessionResult {
    /// Per-iteration `t_train + t_select` in nanoseconds.
    iter_ns: Vec<f64>,
    picks: Vec<Vec<(VideoId, TimeRange)>>,
    cache: vocalexplore::ProbCacheStats,
    training: vocalexplore::TrainingStats,
    /// Top-1 accuracy of the final model on a fixed held-out probe set.
    accuracy: f64,
}

/// Builds an eager-covered fixture (every train video extracted) with the
/// requested cache/warm-start knobs.
fn fixture(prob_cache: bool, warm: bool) -> Fixture {
    let dataset = Dataset::scaled(DatasetName::Deer, 0.224, 17);
    let mut config = VocalExploreConfig::for_dataset(&dataset, 17)
        .with_sampling(SamplingPolicy::Fixed(AcquisitionKind::ClusterMargin))
        .with_feature_selection(FeatureSelectionPolicy::Fixed(EXTRACTOR))
        .with_extra_candidates(0)
        .with_prob_cache(prob_cache)
        .with_warm_start(WarmStartConfig {
            enabled: warm,
            replay_cap: 64,
        });
    config.train.epochs = 40;
    let fm = FeatureManager::new(
        FeatureSimulator::with_dim(
            DatasetName::Deer,
            config.num_classes,
            17,
            config.feature_dim,
        ),
        StorageManager::new(),
    );
    let mut windows = 0usize;
    for clip in dataset.train.videos() {
        fm.ensure_clip(EXTRACTOR, clip).unwrap();
        windows += clip.num_windows(CLIP_LEN);
    }
    Fixture {
        dataset,
        fm,
        config,
        windows,
    }
}

/// Runs one labeling session, timing `t_train + t_select` per iteration.
/// Every variant consumes the identical label schedule up front (seed labels,
/// oracle labels on its own picks) so cold variants stay bit-comparable.
fn run_session(fx: &Fixture, iterations: usize) -> SessionResult {
    let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
    let mut labels = LabelStore::new();
    for clip in fx.dataset.train.videos().iter().take(SEED_LABELS) {
        let range = TimeRange::new(0.0, CLIP_LEN);
        labels.add(LabelRecord {
            vid: clip.id,
            range,
            classes: oracle.label(&fx.dataset.train, clip.id, &range),
            iteration: 0,
        });
    }
    let mm = ModelManager::new(fx.config.clone());
    mm.train(
        EXTRACTOR,
        &fx.dataset.train,
        &fx.fm,
        labels.records(),
        0,
        None,
    )
    .unwrap();
    let mut alm = ActiveLearningManager::new(fx.config.clone());
    let mut iter_ns = Vec::with_capacity(iterations);
    let mut picks_log = Vec::with_capacity(iterations);
    for i in 0..iterations {
        let start = Instant::now();
        if i % TRAIN_CADENCE == 1 {
            mm.train(
                EXTRACTOR,
                &fx.dataset.train,
                &fx.fm,
                labels.records(),
                i as u32,
                None,
            )
            .unwrap();
        }
        let (picks, _) = alm.select_segments(
            &fx.dataset.train,
            &fx.fm,
            &mm,
            &labels,
            BUDGET,
            CLIP_LEN,
            None,
        );
        iter_ns.push(start.elapsed().as_nanos() as f64);
        for &(vid, range) in &picks {
            labels.add(LabelRecord {
                vid,
                range,
                classes: oracle.label(&fx.dataset.train, vid, &range),
                iteration: i as u32,
            });
        }
        picks_log.push(picks);
    }
    // Held-out probe: a fixed window on 40 videos past the seed region.
    let probes: Vec<_> = fx
        .dataset
        .train
        .videos()
        .iter()
        .skip(100)
        .take(40)
        .collect();
    let correct = probes
        .iter()
        .filter(|clip| {
            let range = TimeRange::new(0.0, CLIP_LEN);
            let truth = oracle.label(&fx.dataset.train, clip.id, &range);
            let preds = mm
                .predict(EXTRACTOR, &fx.dataset.train, &fx.fm, clip.id, &range)
                .unwrap();
            preds.first().map(|p| p.class) == truth.first().copied()
        })
        .count();
    SessionResult {
        iter_ns,
        picks: picks_log,
        cache: alm.prob_cache_stats(),
        training: mm.training_stats(),
        accuracy: correct as f64 / probes.len() as f64,
    }
}

/// Median `t_train + t_select` over `WINDOW` iterations starting at `from`.
fn window_median(iter_ns: &[f64], from: usize) -> f64 {
    let to = (from + WINDOW).min(iter_ns.len());
    ve_stats::median(&iter_ns[from.min(to)..to])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let iterations = if quick { 12 } else { 50 };
    // Early window straddles iteration 5 (index 4); the late window is the
    // session tail, ending at iteration 50 in the full run.
    let early_at = 2;
    let late_at = iterations - WINDOW;

    let fx_baseline = fixture(false, false);
    let pool_windows = fx_baseline.windows;
    let baseline = run_session(&fx_baseline, iterations);
    let cached = run_session(&fixture(true, false), iterations);
    let warm = run_session(&fixture(true, true), iterations);

    // Bit-identical contract: the cache must not change a single selection.
    assert_eq!(
        baseline.picks, cached.picks,
        "probability cache changed cold-model selections"
    );
    // A silently-dead cache fails the benchmark (and CI).
    let cache_total = cached.cache.hit_rows + cached.cache.miss_rows;
    assert!(cache_total > 0, "cache never consulted");
    let hit_rate = cached.cache.hit_rows as f64 / cache_total as f64;
    assert!(hit_rate > 0.0, "cache hit rate must be positive");
    // warm-start/v1: fine-tuning actually happened, with bounded quality
    // drift against the from-scratch baseline.
    assert!(warm.training.warm_trains > 0, "no warm update ran");
    assert!(
        warm.accuracy >= baseline.accuracy - 0.15,
        "warm accuracy {:.3} fell more than 0.15 below cold {:.3}",
        warm.accuracy,
        baseline.accuracy
    );

    let early_base = window_median(&baseline.iter_ns, early_at);
    let late_base = window_median(&baseline.iter_ns, late_at);
    let early_warm = window_median(&warm.iter_ns, early_at);
    let late_warm = window_median(&warm.iter_ns, late_at);
    let growth_base = late_base / early_base;
    let growth_warm = late_warm / early_warm;
    if !quick {
        // The headline acceptance bar: amortized per-iteration T_m +
        // inference stays flat under warm + cache while the from-scratch
        // baseline keeps growing with the label count.
        assert!(
            growth_warm <= 1.5,
            "warm+cache cost grew {growth_warm:.2}x from iteration 5 to {iterations}"
        );
        assert!(
            growth_base > growth_warm,
            "baseline growth {growth_base:.2}x should exceed warm growth {growth_warm:.2}x"
        );
    }

    let mean = |ns: &[f64]| ns.iter().sum::<f64>() / ns.len() as f64;
    for (name, s) in [
        ("baseline", &baseline),
        ("cached", &cached),
        ("warm", &warm),
    ] {
        eprintln!(
            "{name:>9}: mean {:>8.3} ms/iter, early {:>8.3} ms, late {:>8.3} ms, \
             accuracy {:.3}, cache {}h/{}m, trains {}c/{}w",
            mean(&s.iter_ns) / 1e6,
            window_median(&s.iter_ns, early_at) / 1e6,
            window_median(&s.iter_ns, late_at) / 1e6,
            s.accuracy,
            s.cache.hit_rows,
            s.cache.miss_rows,
            s.training.cold_trains,
            s.training.warm_trains,
        );
    }

    let variant_value = |s: &SessionResult| {
        Json::obj([
            ("mean_ns_per_iter", Json::f64(mean(&s.iter_ns), 0)),
            (
                "early_window_median_ns",
                Json::f64(window_median(&s.iter_ns, early_at), 0),
            ),
            (
                "late_window_median_ns",
                Json::f64(window_median(&s.iter_ns, late_at), 0),
            ),
            (
                "growth",
                Json::f64(
                    window_median(&s.iter_ns, late_at) / window_median(&s.iter_ns, early_at),
                    2,
                ),
            ),
            ("cache_hit_rows", Json::u64(s.cache.hit_rows)),
            ("cache_miss_rows", Json::u64(s.cache.miss_rows)),
            ("cold_trains", Json::u64(s.training.cold_trains)),
            ("warm_trains", Json::u64(s.training.warm_trains)),
            ("holdout_accuracy", Json::f64(s.accuracy, 4)),
        ])
    };
    Artifact::new("vocalexplore/bench_training/v1", quick)
        .field("budget", Json::usize(BUDGET))
        .field("iterations", Json::usize(iterations))
        .field("seed_labels", Json::usize(SEED_LABELS))
        .field("train_cadence", Json::usize(TRAIN_CADENCE))
        .field("pool_windows", Json::usize(pool_windows))
        .field(
            "determinism",
            Json::obj([
                (
                    "prob_cache",
                    Json::str("bit-identical (cached picks asserted equal to baseline)"),
                ),
                (
                    "warm_start",
                    Json::str("warm-start/v1 tolerance (holdout accuracy within 0.15 of cold)"),
                ),
            ]),
        )
        .field("cache_hit_rate", Json::f64(hit_rate, 4))
        .field("baseline_growth", Json::f64(growth_base, 2))
        .field("warm_cached_growth", Json::f64(growth_warm, 2))
        .field(
            "variants",
            Json::obj([
                ("baseline_cold_nocache", variant_value(&baseline)),
                ("cached_cold", variant_value(&cached)),
                ("warm_cached", variant_value(&warm)),
            ]),
        )
        .write("BENCH_training.json");
}
