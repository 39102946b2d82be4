//! Iterated-session training + inference benchmark: writes
//! `BENCH_training.json`.
//!
//! Measures the amortized per-iteration cost of model training (`T_m`) plus
//! Cluster-Margin selection (candidate inference included) over a long
//! exploration session that trains after every labeled batch, as every
//! session does. Two variants run the same label-and-train schedule:
//!
//! * **cold** — a fresh `ModelManager` for every train, so every train
//!   refits all labels from scratch and its cost grows with the label count.
//! * **warm** — the system's training path, warm-started training
//!   (`warm-start/v1` tolerance contract: fine-tune on Δ + bounded replay).
//!   Selections may differ from cold — the contract pins model *quality*
//!   instead, asserted against the cold variant's held-out accuracy.
//!
//! The headline acceptance number: warm per-iteration training+selection
//! cost around iteration 50 stays within 1.5× of the cost around iteration
//! 5, and the cold variant grows faster.
//!
//! ```text
//! cargo run --release -p ve-bench --bin bench_training [-- --quick]
//! ```
//!
//! `--quick` runs fewer iterations and skips the growth assertions (the
//! accuracy-tolerance assertion always runs).

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
use vocalexplore::TrainingStats;

const EXTRACTOR: ExtractorId = ExtractorId::Mvit;
const BUDGET: usize = 5;
const CLIP_LEN: f64 = 1.0;
const SEED_LABELS: usize = 30;
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
    /// Cold fits and warm fine-tunes summed over every train.
    training: TrainingStats,
    /// Top-1 accuracy of the final model on a fixed held-out probe set.
    accuracy: f64,
}

/// Builds an eager-covered fixture (every train video extracted).
fn fixture() -> Fixture {
    let dataset = Dataset::scaled(DatasetName::Deer, 0.224, 17);
    let mut config = VocalExploreConfig::for_dataset(&dataset, 17)
        .with_sampling(SamplingPolicy::Fixed(AcquisitionKind::ClusterMargin))
        .with_feature_selection(FeatureSelectionPolicy::Fixed(EXTRACTOR))
        .with_extra_candidates(0);
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
/// Both variants consume the same label schedule (seed labels, then oracle
/// labels on their own picks). `cold` swaps in a fresh `ModelManager` before
/// every train.
fn run_session(fx: &Fixture, iterations: usize, cold: bool) -> SessionResult {
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
    let mut mm = ModelManager::new(fx.config.clone());
    let mut training = TrainingStats::default();
    let mut alm = ActiveLearningManager::new(fx.config.clone());
    let mut iter_ns = Vec::with_capacity(iterations);
    for i in 0..iterations {
        if cold {
            mm = ModelManager::new(fx.config.clone());
        }
        let before = mm.training_stats();
        let start = Instant::now();
        mm.train(
            EXTRACTOR,
            &fx.dataset.train,
            &fx.fm,
            labels.records(),
            i as u32,
        )
        .unwrap();
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
        let after = mm.training_stats();
        training.cold_trains += after.cold_trains - before.cold_trains;
        training.warm_trains += after.warm_trains - before.warm_trains;
        for &(vid, range) in &picks {
            labels.add(LabelRecord {
                vid,
                range,
                classes: oracle.label(&fx.dataset.train, vid, &range),
                iteration: i as u32,
            });
        }
    }
    // Held-out probe: a fixed window on 40 videos past the seed region.
    let probes: Vec<(VideoId, TimeRange)> = fx
        .dataset
        .train
        .videos()
        .iter()
        .skip(100)
        .take(40)
        .map(|clip| (clip.id, TimeRange::new(0.0, CLIP_LEN)))
        .collect();
    let predictions = mm
        .predict_batch(EXTRACTOR, &fx.dataset.train, &fx.fm, &probes)
        .unwrap();
    let correct = probes
        .iter()
        .zip(&predictions)
        .filter(|((vid, range), preds)| {
            let truth = oracle.label(&fx.dataset.train, *vid, range);
            preds.first().map(|p| p.class) == truth.first().copied()
        })
        .count();
    SessionResult {
        iter_ns,
        training,
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

    let fx = fixture();
    let cold = run_session(&fx, iterations, true);
    let warm = run_session(&fx, iterations, false);

    // warm-start/v1: fine-tuning actually happened, with bounded quality
    // drift against the from-scratch variant.
    assert_eq!(
        cold.training.warm_trains, 0,
        "a fresh manager cannot fine-tune"
    );
    assert!(warm.training.warm_trains > 0, "no warm update ran");
    assert!(
        warm.accuracy >= cold.accuracy - 0.15,
        "warm accuracy {:.3} fell more than 0.15 below cold {:.3}",
        warm.accuracy,
        cold.accuracy
    );

    let growth = |s: &SessionResult| {
        window_median(&s.iter_ns, late_at) / window_median(&s.iter_ns, early_at)
    };
    let growth_cold = growth(&cold);
    let growth_warm = growth(&warm);
    if !quick {
        // The headline acceptance bar: amortized per-iteration T_m +
        // selection stays flat under warm-started training while cold
        // refits keep growing with the label count.
        assert!(
            growth_warm <= 1.5,
            "warm cost grew {growth_warm:.2}x from iteration 5 to {iterations}"
        );
        assert!(
            growth_cold > growth_warm,
            "cold growth {growth_cold:.2}x should exceed warm growth {growth_warm:.2}x"
        );
    }

    let mean = |ns: &[f64]| ns.iter().sum::<f64>() / ns.len() as f64;
    for (name, s) in [("cold", &cold), ("warm", &warm)] {
        eprintln!(
            "{name:>4}: mean {:>8.3} ms/iter, early {:>8.3} ms, late {:>8.3} ms, \
             accuracy {:.3}, trains {}c/{}w",
            mean(&s.iter_ns) / 1e6,
            window_median(&s.iter_ns, early_at) / 1e6,
            window_median(&s.iter_ns, late_at) / 1e6,
            s.accuracy,
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
            ("growth", Json::f64(growth(s), 2)),
            ("cold_trains", Json::u64(s.training.cold_trains)),
            ("warm_trains", Json::u64(s.training.warm_trains)),
            ("holdout_accuracy", Json::f64(s.accuracy, 4)),
        ])
    };
    Artifact::new("vocalexplore/bench_training/v2", quick)
        .field("budget", Json::usize(BUDGET))
        .field("iterations", Json::usize(iterations))
        .field("seed_labels", Json::usize(SEED_LABELS))
        .field("pool_windows", Json::usize(fx.windows))
        .field(
            "determinism",
            Json::obj([(
                "warm_start",
                Json::str(
                    "warm-start/v1, the default training path: tolerance (holdout accuracy within 0.15 of cold)",
                ),
            )]),
        )
        .field("cold_growth", Json::f64(growth_cold, 2))
        .field("warm_growth", Json::f64(growth_warm, 2))
        .field(
            "variants",
            Json::obj([("cold", variant_value(&cold)), ("warm", variant_value(&warm))]),
        )
        .write("BENCH_training.json");
}
