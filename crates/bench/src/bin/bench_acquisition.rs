//! Machine-readable acquisition benchmarks: writes `BENCH_acquisition.json`.
//!
//! Times the hot acquisition kernels (coreset and k-means Cluster-Margin) at
//! growing candidate-pool sizes, so future PRs can track the perf trajectory
//! from a stable JSON artifact:
//!
//! ```text
//! cargo run --release -p ve-bench --bin bench_acquisition [-- --quick]
//! ```
//!
//! `--quick` skips the 20k pools.
//!
//! The `inference` section times candidate probability inference at the
//! Cluster-Margin shape (2,000 rows × 512 dims, 9 and 20 classes): the
//! per-row path (`scaler.transform` + `Classifier::predict_proba` per row,
//! rows fanned out with `par_map`) against the batched
//! `TrainedModel::predict_proba_rows`, with their ratio as `speedup`. Both
//! outputs are checked bit-identical before timing.
//!
//! `kmeans_sweeps` counts the k-means assignment sweeps (an exact work
//! counter, not a timing) on fixed simulator features: the R3D embeddings
//! of every window of a scaled Deer training corpus (~2,000 rows, the
//! default candidate cap), in corpus order. `sketch_fit` is the default
//! `ClusterSketch` fit over them; `margin_pool` is default Cluster-Margin's
//! diversity stage over all of them, scored by a model fitted on the first
//! `SWEEP_LABELS` windows' ground-truth classes. The default sketch fit
//! stops at its cap before it converges, so `sketch_fit_to_fixed_point`
//! refits the same input with a cap of `SKETCH_SWEEP_CAP` sweeps, enough to
//! reach the fixed point: a fit that ran every sweep up to its cap would
//! read the cap there. Both modes compute the section.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use ve_al::{
    cluster_margin_selection, cluster_margin_selection_with_sweeps, coreset_selection,
    ClusterMarginConfig, ClusterSketch, ClusterSketchConfig,
};
use ve_bench::emit::Artifact;
use ve_features::simulator::DEFAULT_SIM_DIM;
use ve_features::{ExtractorId, FeatureSimulator};
use ve_ml::{
    Classifier, FeatureBlock, FeatureBlockBuilder, StandardScaler, Targets, TrainConfig,
    TrainedModel,
};
use ve_obs::json::Json;
use ve_vidsim::{Dataset, DatasetName};

const DIM: usize = 64;
const BUDGET: usize = 5;

/// Candidate rows and feature dimensionality of the inference timings.
const INFER_ROWS: usize = 2_000;
const INFER_DIM: usize = 512;

/// Deer corpus scale of the sweep-counter features (~2,000 windows).
const SWEEP_SCALE: f64 = 0.224;
/// Labeled windows behind the sweep counters' margin model.
const SWEEP_LABELS: usize = 30;
/// Sweep cap of the `sketch_fit_to_fixed_point` refit, well past the sweep
/// at which the assignment repeats.
const SKETCH_SWEEP_CAP: usize = 100;

fn make_pool(n: usize, seed: u64) -> (FeatureBlock, FeatureBlock) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut feats = Vec::with_capacity(n * DIM);
    for _ in 0..n * DIM {
        feats.push(rng.gen::<f32>() * 2.0 - 1.0);
    }
    let mut probs = Vec::with_capacity(n * 2);
    for _ in 0..n {
        let a: f32 = rng.gen();
        probs.push(a);
        probs.push(1.0 - a);
    }
    (
        FeatureBlock::from_vec(n, DIM, feats),
        FeatureBlock::from_vec(n, 2, probs),
    )
}

/// Median wall-clock nanoseconds of `runs` executions of `f`.
fn median_ns<R>(runs: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_nanos() as f64
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
    times[times.len() / 2]
}

/// A softmax model over `classes` classes fitted on `block`'s first rows,
/// with its scaler.
fn inference_model(block: &FeatureBlock, classes: usize) -> (StandardScaler, TrainedModel) {
    let rows: Vec<Vec<f32>> = (0..200).map(|r| block.row(r).to_vec()).collect();
    let (scaled, scaler) = StandardScaler::fit_transform(&rows);
    let labels = Targets::Single((0..rows.len()).map(|r| r % classes).collect());
    let cfg = TrainConfig {
        epochs: 5,
        ..TrainConfig::default()
    };
    let model = TrainedModel::fit(&scaled, &labels, classes, &cfg).expect("several classes");
    (scaler, model)
}

/// Median ns of the per-row and the batched inference paths over the
/// candidate rows of `block`, plus their ratio.
fn inference_timings(block: &FeatureBlock, classes: usize, runs: usize) -> Json {
    let (scaler, model) = inference_model(block, classes);
    // Unsorted, as the acquisition index's eligible rows are after masking.
    let rows: Vec<usize> = (0..block.rows()).map(|i| (i * 7) % block.rows()).collect();
    let per_row = || {
        let probs = ve_sched::parallel::par_map(rows.len(), |i| {
            model.predict_proba(&scaler.transform(block.row(rows[i])))
        });
        let mut out = FeatureBlockBuilder::with_capacity(rows.len(), classes);
        for p in &probs {
            out.push_row(p);
        }
        out.build()
    };
    let batched = || FeatureBlock::from_matrix(model.predict_proba_rows(&scaler, block, &rows));
    let bits =
        |b: &FeatureBlock| -> Vec<u32> { b.as_slice().iter().map(|v| v.to_bits()).collect() };
    assert_eq!(
        bits(&per_row()),
        bits(&batched()),
        "batched inference must be bit-identical to the per-row path"
    );
    let per_row_ns = median_ns(runs, per_row);
    let batched_ns = median_ns(runs, batched);
    eprintln!(
        "inference {classes:>2} classes: per-row {:.3} ms, batched {:.3} ms",
        per_row_ns / 1e6,
        batched_ns / 1e6
    );
    Json::obj([
        ("per_row_ns", Json::f64(per_row_ns, 0)),
        ("batched_ns", Json::f64(batched_ns, 0)),
        ("speedup", Json::f64(per_row_ns / batched_ns, 3)),
    ])
}

/// The `kmeans_sweeps` section (see the module docs).
fn kmeans_sweeps() -> Json {
    let dataset = Dataset::scaled(DatasetName::Deer, SWEEP_SCALE, 17);
    let num_classes = dataset.vocabulary.len();
    let sim = FeatureSimulator::with_dim(DatasetName::Deer, num_classes, 17, DEFAULT_SIM_DIM);
    let mut feats = FeatureBlockBuilder::with_capacity(0, DEFAULT_SIM_DIM);
    let mut classes = Vec::new();
    for clip in dataset.train.videos() {
        for (v, seg) in sim
            .extract_clip(ExtractorId::R3d, clip)
            .iter()
            .zip(&clip.segments)
        {
            feats.push_row(&v.data);
            classes.push(seg.primary_class());
        }
    }
    let block = feats.build();
    let (rows, labels): (Vec<Vec<f32>>, Vec<usize>) = (0..SWEEP_LABELS)
        .filter_map(|r| classes[r].map(|c| (block.row(r).to_vec(), c)))
        .unzip();
    let (scaled, scaler) = StandardScaler::fit_transform(&rows);
    let targets = Targets::Single(labels);
    let model = TrainedModel::fit(&scaled, &targets, num_classes, &TrainConfig::default())
        .expect("the labeled windows span several classes");
    let candidates: Vec<usize> = (0..block.rows()).collect();
    let probs = FeatureBlock::from_matrix(model.predict_proba_rows(&scaler, &block, &candidates));
    let sketch_fit = ClusterSketch::build(&block, ClusterSketchConfig::default()).fit_sweeps();
    let sketch_fit_to_fixed_point = ClusterSketch::build(
        &block,
        ClusterSketchConfig {
            kmeans_iters: SKETCH_SWEEP_CAP,
            ..ClusterSketchConfig::default()
        },
    )
    .fit_sweeps();
    let (_, margin_pool) = cluster_margin_selection_with_sweeps(
        &block,
        &candidates,
        &probs,
        BUDGET,
        &ClusterMarginConfig::default(),
    );
    eprintln!(
        "kmeans sweeps over {} windows: sketch fit {sketch_fit} \
         ({sketch_fit_to_fixed_point} to its fixed point), margin pool {margin_pool}",
        block.rows()
    );
    Json::obj([
        ("rows", Json::usize(block.rows())),
        ("sketch_fit", Json::usize(sketch_fit)),
        (
            "sketch_fit_to_fixed_point",
            Json::usize(sketch_fit_to_fixed_point),
        ),
        ("margin_pool", Json::usize(margin_pool)),
    ])
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let pools: &[usize] = if quick {
        &[1_000, 5_000]
    } else {
        &[1_000, 5_000, 20_000]
    };

    let mut coreset_fields = Vec::new();
    let mut cm_fields = Vec::new();
    for &n in pools {
        let (feats, probs) = make_pool(n, 7);
        let labeled_idx: Vec<usize> = (0..20).collect();
        let labeled = feats.gather(&labeled_idx);
        let runs = if n >= 20_000 { 5 } else { 9 };
        let coreset_ns = median_ns(runs, || coreset_selection(&feats, &labeled, BUDGET));
        let candidates: Vec<usize> = (0..n).collect();
        let cm_ns = median_ns(runs, || {
            cluster_margin_selection(
                &feats,
                &candidates,
                &probs,
                BUDGET,
                &ClusterMarginConfig::default(),
            )
        });
        eprintln!(
            "pool {n:>6}: coreset {:.2} ms, cluster_margin {:.2} ms",
            coreset_ns / 1e6,
            cm_ns / 1e6
        );
        coreset_fields.push((n.to_string(), Json::f64(coreset_ns, 0)));
        cm_fields.push((n.to_string(), Json::f64(cm_ns, 0)));
    }

    let mut rng = StdRng::seed_from_u64(11);
    let infer_block = FeatureBlock::from_vec(
        INFER_ROWS,
        INFER_DIM,
        (0..INFER_ROWS * INFER_DIM)
            .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
            .collect(),
    );
    let inference = Json::obj([
        ("rows", Json::usize(INFER_ROWS)),
        ("dim", Json::usize(INFER_DIM)),
        ("9", inference_timings(&infer_block, 9, 21)),
        ("20", inference_timings(&infer_block, 20, 21)),
    ]);

    Artifact::new("vocalexplore/bench_acquisition/v3", quick)
        .field("dim", Json::usize(DIM))
        .field("budget", Json::usize(BUDGET))
        .field(
            "median_ns",
            Json::obj([
                ("coreset", Json::obj(coreset_fields)),
                ("cluster_margin", Json::obj(cm_fields)),
            ]),
        )
        .field("inference", inference)
        .field("kmeans_sweeps", kmeans_sweeps())
        .write("BENCH_acquisition.json");
}
