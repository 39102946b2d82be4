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

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use ve_al::{cluster_margin_selection, coreset_selection, ClusterMarginConfig};
use ve_bench::emit::Artifact;
use ve_ml::FeatureBlock;
use ve_obs::json::Json;

const DIM: usize = 64;
const BUDGET: usize = 5;

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
        let cm_ns = median_ns(runs, || {
            cluster_margin_selection(&feats, &probs, BUDGET, &ClusterMarginConfig::default())
        });
        eprintln!(
            "pool {n:>6}: coreset {:.2} ms, cluster_margin {:.2} ms",
            coreset_ns / 1e6,
            cm_ns / 1e6
        );
        coreset_fields.push((n.to_string(), Json::f64(coreset_ns, 0)));
        cm_fields.push((n.to_string(), Json::f64(cm_ns, 0)));
    }

    Artifact::new("vocalexplore/bench_acquisition/v2", quick)
        .field("dim", Json::usize(DIM))
        .field("budget", Json::usize(BUDGET))
        .field(
            "median_ns",
            Json::obj([
                ("coreset", Json::obj(coreset_fields)),
                ("cluster_margin", Json::obj(cm_fields)),
            ]),
        )
        .write("BENCH_acquisition.json");
}
