//! Machine-readable acquisition benchmarks: writes `BENCH_acquisition.json`.
//!
//! Times the hot acquisition kernels at growing candidate-pool sizes and, for
//! HAC, against the seed repository's recompute-everything implementation, so
//! future PRs can track the perf trajectory from a stable JSON artifact:
//!
//! ```text
//! cargo run --release -p ve-bench --bin bench_acquisition [-- --quick]
//! ```
//!
//! `--quick` skips the (slow, ~tens of seconds) naive-HAC baseline and the
//! 20k pools; the emitted JSON marks skipped entries with `null`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::Instant;
use ve_al::{
    cluster_margin_selection, coreset_selection, hac_average_linkage, ClusterMarginConfig,
};
use ve_bench::emit::Artifact;
use ve_ml::FeatureBlock;
use ve_obs::json::Json;

const DIM: usize = 64;
const BUDGET: usize = 5;
const HAC_N: usize = 1_000;
const HAC_TARGET: usize = 50;

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

/// The seed implementation of average-linkage HAC, kept verbatim as the
/// benchmark baseline: recomputes every cluster-pair distance from member
/// pairs on every merge scan (O(n³)–O(n⁴) distance evaluations per run).
fn naive_hac(points: &FeatureBlock, num_clusters: usize) -> Vec<usize> {
    let n = points.rows();
    let target = num_clusters.min(n);
    let sq = |a: &[f32], b: &[f32]| -> f32 {
        a.iter()
            .zip(b)
            .map(|(x, y)| {
                let d = x - y;
                d * d
            })
            .sum()
    };
    let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let mut active: Vec<bool> = vec![true; n];
    let mut num_active = n;
    while num_active > target {
        let mut best = (usize::MAX, usize::MAX, f64::INFINITY);
        for i in 0..n {
            if !active[i] {
                continue;
            }
            for j in (i + 1)..n {
                if !active[j] {
                    continue;
                }
                let mut total = 0.0f64;
                for &a in &members[i] {
                    for &b in &members[j] {
                        total += sq(points.row(a), points.row(b)) as f64;
                    }
                }
                let d = total / (members[i].len() * members[j].len()) as f64;
                if d < best.2 {
                    best = (i, j, d);
                }
            }
        }
        let (i, j, _) = best;
        if i == usize::MAX {
            break;
        }
        let moved = std::mem::take(&mut members[j]);
        members[i].extend(moved);
        active[j] = false;
        num_active -= 1;
    }
    let mut assignment = vec![0usize; n];
    let mut next = 0usize;
    for (ci, cluster) in members.iter().enumerate() {
        if !active[ci] {
            continue;
        }
        for &p in cluster {
            assignment[p] = next;
        }
        next += 1;
    }
    assignment
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

    let (hac_points, _) = make_pool(HAC_N, 11);
    let hac_ns = median_ns(3, || hac_average_linkage(&hac_points, HAC_TARGET));
    eprintln!("hac (Lance-Williams) n={HAC_N}: {:.2} ms", hac_ns / 1e6);
    let naive_ns = if quick {
        None
    } else {
        // Sanity-check equivalence on the benchmark input, then time the
        // seed implementation once (it is far too slow to repeat).
        let fast = hac_average_linkage(&hac_points, HAC_TARGET);
        let start = Instant::now();
        let slow = naive_hac(&hac_points, HAC_TARGET);
        let ns = start.elapsed().as_nanos() as f64;
        assert_eq!(fast, slow, "optimized HAC must match the seed selection");
        eprintln!("hac (seed baseline)  n={HAC_N}: {:.2} ms", ns / 1e6);
        Some(ns)
    };
    let speedup = naive_ns.map(|n| n / hac_ns);
    if let Some(s) = speedup {
        eprintln!("hac speedup: {s:.1}x");
    }

    Artifact::new("vocalexplore/bench_acquisition/v1", quick)
        .field("dim", Json::usize(DIM))
        .field("budget", Json::usize(BUDGET))
        .field(
            "median_ns",
            Json::obj([
                ("coreset", Json::obj(coreset_fields)),
                ("cluster_margin", Json::obj(cm_fields)),
                (
                    "hac_lance_williams",
                    Json::obj([(HAC_N.to_string(), Json::f64(hac_ns, 0))]),
                ),
                (
                    "hac_seed_baseline",
                    Json::obj([(HAC_N.to_string(), Json::opt_f64(naive_ns, 0))]),
                ),
            ]),
        )
        .field("hac_target_clusters", Json::usize(HAC_TARGET))
        .field("hac_speedup_vs_seed", Json::opt_f64(speedup, 1))
        .write("BENCH_acquisition.json");
}
