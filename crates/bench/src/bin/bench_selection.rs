//! Iterated-session selection benchmark: writes `BENCH_selection.json`.
//!
//! Measures the amortized per-iteration cost of active-learning sample
//! selection (`T_s`) over a realistic exploration session — many small,
//! similar `Explore` steps against an eager-covered pool — comparing:
//!
//! * **incremental** — one persistent ALM whose `AcquisitionIndex` carries
//!   candidate rows, label masks, coreset coverage, and the cluster sketch
//!   across iterations (this is what the system runs); versus
//! * **from-scratch** — a fresh ALM constructed at every iteration, whose
//!   first selection builds all of that state by replaying the feature
//!   store's whole change log (what every `Explore` call used to pay
//!   before the index existed).
//!
//! Both paths must produce identical pick sequences (asserted before any
//! timing is reported) — the benchmark doubles as a large-scale check of the
//! index determinism contract.
//!
//! ```text
//! cargo run --release -p ve-bench --bin bench_selection [-- --quick]
//! ```
//!
//! `--quick` runs the 2k-window pool only, with fewer iterations; skipped
//! entries are emitted as `null`.

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

const EXTRACTOR: ExtractorId = ExtractorId::Mvit;
const BUDGET: usize = 5;
const CLIP_LEN: f64 = 1.0;
const SEED_LABELS: usize = 30;

struct Pool {
    /// Human-readable label keyed into the JSON ("2000", "20000").
    name: &'static str,
    /// Source dataset (10-second clips, so ~10 one-second windows each).
    dataset: DatasetName,
    /// Corpus scale producing roughly `name` one-second windows.
    scale: f64,
}

struct SessionResult {
    windows: usize,
    mean_ns: f64,
    median_ns: f64,
    picks: Vec<Vec<(VideoId, TimeRange)>>,
}

struct Fixture {
    dataset: Dataset,
    fm: FeatureManager,
    mm: ModelManager,
    config: VocalExploreConfig,
    windows: usize,
    /// The seed labels every session starts from.
    seed: LabelStore,
}

/// Builds an eager-covered fixture: every train video extracted, a seed label
/// set collected, and one model trained on it (so Cluster-Margin pays real
/// margin computation). Training happens here, once: warm start would make
/// a second train fine-tune the first model, so each session would score
/// with a different one.
fn fixture(pool: &Pool, kind: AcquisitionKind) -> Fixture {
    let dataset = Dataset::scaled(pool.dataset, pool.scale, 17);
    let mut config = VocalExploreConfig::for_dataset(&dataset, 17)
        .with_sampling(SamplingPolicy::Fixed(kind))
        .with_feature_selection(FeatureSelectionPolicy::Fixed(EXTRACTOR))
        .with_extra_candidates(0);
    config.train.epochs = 40;
    let fm = FeatureManager::new(
        FeatureSimulator::new(pool.dataset, config.num_classes, 17),
        StorageManager::new(),
    );
    let mut windows = 0usize;
    for clip in dataset.train.videos() {
        fm.ensure_clip(EXTRACTOR, clip).unwrap();
        windows += clip.num_windows(CLIP_LEN);
    }
    let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
    let mut seed = LabelStore::new();
    for clip in dataset.train.videos().iter().take(SEED_LABELS) {
        let range = TimeRange::new(0.0, CLIP_LEN);
        seed.add(LabelRecord {
            vid: clip.id,
            range,
            classes: oracle.label(&dataset.train, clip.id, &range),
            iteration: 0,
        });
    }
    let mm = ModelManager::new(config.clone());
    mm.train(EXTRACTOR, &dataset.train, &fm, seed.records(), 0)
        .unwrap();
    Fixture {
        dataset,
        fm,
        mm,
        config,
        windows,
        seed,
    }
}

/// Runs one labeling session, timing only the selection calls.
/// `incremental = false` constructs a fresh ALM inside the timed region of
/// every iteration, so the from-scratch variant pays its index construction
/// where the old per-call assembly used to happen.
fn run_session(fx: &Fixture, iterations: usize, incremental: bool) -> SessionResult {
    let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
    let mut labels = fx.seed.clone();
    let mut alm = ActiveLearningManager::new(fx.config.clone());
    let mut times = Vec::with_capacity(iterations);
    let mut picks_log = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        let start = Instant::now();
        let picks = if incremental {
            let (picks, _) = alm.select_segments(
                &fx.dataset.train,
                &fx.fm,
                &fx.mm,
                &labels,
                BUDGET,
                CLIP_LEN,
                None,
            );
            picks
        } else {
            let mut fresh = ActiveLearningManager::new(fx.config.clone());
            let (picks, _) = fresh.select_segments(
                &fx.dataset.train,
                &fx.fm,
                &fx.mm,
                &labels,
                BUDGET,
                CLIP_LEN,
                None,
            );
            picks
        };
        times.push(start.elapsed().as_nanos() as f64);
        for &(vid, range) in &picks {
            labels.add(LabelRecord {
                vid,
                range,
                classes: oracle.label(&fx.dataset.train, vid, &range),
                iteration: 0,
            });
        }
        picks_log.push(picks);
    }
    SessionResult {
        windows: fx.windows,
        mean_ns: times.iter().sum::<f64>() / times.len() as f64,
        median_ns: ve_stats::median(&times),
        picks: picks_log,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let pools: &[Pool] = if quick {
        &[Pool {
            name: "2000",
            dataset: DatasetName::Deer,
            scale: 0.224,
        }]
    } else {
        &[
            Pool {
                name: "2000",
                dataset: DatasetName::Deer,
                scale: 0.224,
            },
            // Deer tops out below 9k windows, so the 20k pool comes from the
            // K20-sized corpus (13,326 videos at full scale).
            Pool {
                name: "20000",
                dataset: DatasetName::K20,
                scale: 0.15,
            },
        ]
    };
    let iterations = if quick { 12 } else { 50 };
    let kinds = [
        ("coreset", AcquisitionKind::Coreset),
        ("cluster_margin", AcquisitionKind::ClusterMargin),
    ];

    // entry[(pool, kind)] = (windows, from_scratch_mean, incremental_mean,
    //                        from_scratch_median, incremental_median)
    let mut entries: Vec<(String, String, usize, f64, f64, f64, f64)> = Vec::new();
    for pool in pools {
        for (kind_name, kind) in kinds {
            let fx = fixture(pool, kind);
            let incremental = run_session(&fx, iterations, true);
            let scratch = run_session(&fx, iterations, false);
            assert_eq!(
                incremental.picks, scratch.picks,
                "incremental and from-scratch selections diverged \
                 (pool {}, {kind_name})",
                pool.name
            );
            eprintln!(
                "pool {:>6} ({} windows) {kind_name:>14}: from-scratch {:>10.3} ms/iter, \
                 incremental {:>8.3} ms/iter, speedup {:>5.1}x",
                pool.name,
                incremental.windows,
                scratch.mean_ns / 1e6,
                incremental.mean_ns / 1e6,
                scratch.mean_ns / incremental.mean_ns,
            );
            entries.push((
                pool.name.to_string(),
                kind_name.to_string(),
                incremental.windows,
                scratch.mean_ns,
                incremental.mean_ns,
                scratch.median_ns,
                incremental.median_ns,
            ));
        }
    }

    let lookup = |pool: &str, kind: &str| {
        entries
            .iter()
            .find(|(p, k, ..)| p == pool && k == kind)
            .cloned()
    };
    let pools_value = Json::obj(["2000", "20000"].map(|pool| {
        (
            pool,
            Json::obj(["coreset", "cluster_margin"].map(|kind| {
                let entry = lookup(pool, kind);
                let e = entry.as_ref();
                (
                    kind,
                    Json::obj([
                        ("windows", e.map_or(Json::Null, |e| Json::usize(e.2))),
                        (
                            "from_scratch_mean_ns_per_iter",
                            Json::opt_f64(e.map(|e| e.3), 0),
                        ),
                        (
                            "incremental_mean_ns_per_iter",
                            Json::opt_f64(e.map(|e| e.4), 0),
                        ),
                        (
                            "from_scratch_median_ns_per_iter",
                            Json::opt_f64(e.map(|e| e.5), 0),
                        ),
                        (
                            "incremental_median_ns_per_iter",
                            Json::opt_f64(e.map(|e| e.6), 0),
                        ),
                        ("speedup", Json::opt_f64(e.map(|e| e.3 / e.4), 1)),
                    ]),
                )
            })),
        )
    }));

    Artifact::new("vocalexplore/bench_selection/v1", quick)
        .field("budget", Json::usize(BUDGET))
        .field("iterations", Json::usize(iterations))
        .field("seed_labels", Json::usize(SEED_LABELS))
        .field("pools", pools_value)
        .write("BENCH_selection.json");
}
