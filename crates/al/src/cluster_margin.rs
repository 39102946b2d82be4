//! Cluster-Margin sampling (Citovsky et al., NeurIPS 2021) — the prototype's
//! default active-learning acquisition function.
//!
//! Cluster-Margin combines uncertainty and diversity: take the `k_m · B`
//! unlabeled candidates with the smallest prediction margin (difference
//! between the top-two class probabilities), group them into clusters in
//! feature space, and pick candidates round-robin across clusters in
//! ascending-cluster-size order so no single dense region dominates the
//! batch. The original paper clusters once with HAC; this implementation
//! uses a small deterministic k-means over the margin-filtered set, which
//! serves the same purpose at VOCALExplore's candidate-set sizes. The
//! candidates are rows of a larger block (the acquisition index's); only
//! the margin-filtered pool is gathered into its own contiguous
//! [`FeatureBlock`], so the k-means assign step is one blocked, parallel
//! nearest-centroid sweep.

use ve_ml::{argmax_chunked, FeatureBlock, FeatureBlockBuilder};

/// Configuration for Cluster-Margin.
#[derive(Debug, Clone, Copy)]
pub struct ClusterMarginConfig {
    /// Margin-pool multiplier: the `k_m · budget` lowest-margin candidates
    /// enter the clustering stage (paper uses a pool ~10× the batch).
    pub margin_pool_multiplier: usize,
    /// Number of clusters used for the diversity stage, as a multiple of the
    /// budget (clamped to the pool size).
    pub clusters_per_budget: usize,
    /// k-means iterations (small and fixed; exactness is not required).
    pub kmeans_iters: usize,
}

impl Default for ClusterMarginConfig {
    fn default() -> Self {
        Self {
            margin_pool_multiplier: 10,
            clusters_per_budget: 2,
            kmeans_iters: 10,
        }
    }
}

/// Selects `budget` candidates with Cluster-Margin sampling and returns
/// their positions in `candidates`.
///
/// * `block`, `candidates` — the candidates are the rows `candidates` of
///   `block` (any order, duplicates allowed); only the margin pool's rows are
///   ever copied out of `block`.
/// * `probs` — per-candidate class-probability block from the latest model
///   (`candidates.len()` rows, in `candidates` order). When the model has not
///   been trained yet (empty block, or fewer than two probability columns),
///   the margin stage degenerates to treating every candidate as maximally
///   uncertain, leaving a purely diversity-driven selection.
///
/// # Panics
/// Panics if `probs` is non-empty but has a different row count than
/// `candidates`, or a candidate row is out of range.
pub fn cluster_margin_selection(
    block: &FeatureBlock,
    candidates: &[usize],
    probs: &FeatureBlock,
    budget: usize,
    cfg: &ClusterMarginConfig,
) -> Vec<usize> {
    let n = candidates.len();
    if n == 0 || budget == 0 {
        return Vec::new();
    }
    if !probs.is_empty() {
        assert_eq!(probs.rows(), n, "probability rows must match candidates");
    }

    // Stage 1: margin filtering.
    let margins = margins_of(probs, n);
    let pool_size = (cfg.margin_pool_multiplier.max(1) * budget).min(n);
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| margins[a].partial_cmp(&margins[b]).expect("NaN margin"));
    let pool: Vec<usize> = order.into_iter().take(pool_size).collect();

    // Stage 2: cluster the pool for diversity. The pool rows are gathered
    // into their own contiguous block once; every k-means pass then streams
    // that block.
    let k = (cfg.clusters_per_budget.max(1) * budget)
        .min(pool.len())
        .max(1);
    let pool_rows: Vec<usize> = pool.iter().map(|&p| candidates[p]).collect();
    let pool_block = block.gather(&pool_rows);
    let assignments = kmeans_assign(&pool_block, k, cfg.kmeans_iters);

    // Stage 3: round-robin over clusters, ascending by cluster size, picking
    // the lowest-margin unpicked member of each cluster.
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (pool_pos, &cand_idx) in pool.iter().enumerate() {
        clusters[assignments[pool_pos]].push(cand_idx);
    }
    for cluster in &mut clusters {
        cluster.sort_by(|&a, &b| margins[a].partial_cmp(&margins[b]).expect("NaN margin"));
    }
    clusters.retain(|c| !c.is_empty());
    clusters.sort_by_key(|c| c.len());

    round_robin(&clusters, budget.min(pool.len()))
}

/// Ascending-size round-robin pick of up to `take` members.
pub(crate) fn round_robin(clusters: &[Vec<usize>], take: usize) -> Vec<usize> {
    let mut selected = Vec::with_capacity(take);
    let mut cursor = vec![0usize; clusters.len()];
    while selected.len() < take {
        let mut progressed = false;
        for (ci, cluster) in clusters.iter().enumerate() {
            if selected.len() >= take {
                break;
            }
            if cursor[ci] < cluster.len() {
                selected.push(cluster[cursor[ci]]);
                cursor[ci] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    selected
}

/// Per-candidate margins from a probability block; rows with fewer than two
/// classes (or a missing model) count as maximally uncertain (margin 0).
pub(crate) fn margins_of(probs: &FeatureBlock, n: usize) -> Vec<f64> {
    if probs.is_empty() || probs.dim() < 2 {
        return vec![0.0; n];
    }
    (0..n).map(|i| margin(probs.row(i))).collect()
}

/// Margin of a probability vector: difference between its two largest values.
/// A vector with fewer than two entries is treated as fully confident (its
/// single probability is the margin).
fn margin(p: &[f32]) -> f64 {
    let mut top = f32::NEG_INFINITY;
    let mut second = 0.0f32;
    for &v in p {
        if v > top {
            second = if top.is_finite() { top } else { 0.0 };
            top = v;
        } else if v > second {
            second = v;
        }
    }
    if !top.is_finite() {
        return 0.0;
    }
    (top - second).max(0.0) as f64
}

/// Deterministic k-means over a contiguous pool block; returns the cluster
/// assignment of each pool row. Initial centroids are chosen by a
/// farthest-point sweep (k-means++ without randomness) starting from row 0;
/// ties in both initialization and assignment go to the first (lowest) index.
fn kmeans_assign(pool: &FeatureBlock, k: usize, iters: usize) -> Vec<usize> {
    kmeans_fit(pool, k, iters).1
}

/// Deterministic k-means returning both the fitted centroids and the cluster
/// assignment of every pool row. The centroids are what the cluster-sketch
/// candidate reducer keeps alive across `Explore` calls (new rows are
/// assigned incrementally with [`FeatureBlock::nearest_rows`]); the
/// assignment alone is what [`cluster_margin_selection`]'s diversity stage
/// consumes. Identical arithmetic to the original `kmeans_assign`, so either
/// entry point produces the same clustering.
pub fn kmeans_fit(pool: &FeatureBlock, k: usize, iters: usize) -> (FeatureBlock, Vec<usize>) {
    let n = pool.rows();
    let k = k.min(n).max(1);
    if pool.dim() == 0 {
        // Degenerate zero-dimensional features: every distance is 0, so all
        // rows belong to the first centroid (first-index-wins), matching the
        // seed behaviour.
        return (FeatureBlock::empty(0), vec![0; n]);
    }

    // Farthest-point initialization: maintain, for every row, its squared
    // distance to the nearest chosen centroid; each step adds the first row
    // attaining the maximum (chunk-parallel argmax, first index wins). One
    // parallel distance pass per chosen centroid instead of the seed's
    // O(centroids · pool²) rescans.
    let mut centroid_rows = vec![0usize];
    let mut init_min = vec![0.0f32; n];
    pool.sq_distances_to(pool.row(0), &mut init_min);
    while centroid_rows.len() < k {
        let best = argmax_chunked(&init_min).unwrap_or(0);
        if centroid_rows.contains(&best) {
            break;
        }
        centroid_rows.push(best);
        pool.min_sq_distances_update(pool.row(best), &mut init_min);
    }

    let dim = pool.dim();
    let mut centroids = pool.gather(&centroid_rows);
    let mut assignment = vec![0usize; n];

    for _ in 0..iters.max(1) {
        // Assign: one blocked, parallel nearest-centroid sweep.
        assignment = pool.nearest_rows(&centroids);
        // Update.
        let mut sums = vec![0.0f32; centroids.rows() * dim];
        let mut counts = vec![0usize; centroids.rows()];
        for (pos, &a) in assignment.iter().enumerate() {
            counts[a] += 1;
            let row = pool.row(pos);
            let acc = &mut sums[a * dim..(a + 1) * dim];
            for (s, &v) in acc.iter_mut().zip(row) {
                *s += v;
            }
        }
        let mut next = FeatureBlockBuilder::with_capacity(centroids.rows(), dim);
        for (ci, chunk) in sums.chunks(dim.max(1)).enumerate().take(centroids.rows()) {
            if counts[ci] > 0 {
                let inv = 1.0 / counts[ci] as f32;
                let row: Vec<f32> = chunk.iter().map(|s| s * inv).collect();
                next.push_row(&row);
            } else {
                next.push_row(centroids.row(ci));
            }
        }
        centroids = next.build();
    }
    (centroids, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(rows: &[Vec<f32>]) -> FeatureBlock {
        FeatureBlock::from_nested(rows)
    }

    /// Every row of `b`, in order: the candidate set of a whole block.
    fn all(b: &FeatureBlock) -> Vec<usize> {
        (0..b.rows()).collect()
    }

    /// Candidates in two well-separated clusters with synthetic class
    /// probabilities: cluster A is certain, cluster B is uncertain.
    fn setup() -> (FeatureBlock, FeatureBlock) {
        let mut feats = Vec::new();
        let mut probs = Vec::new();
        for i in 0..10 {
            feats.push(vec![0.0 + i as f32 * 0.01, 0.0]);
            probs.push(vec![0.95, 0.05]); // confident
        }
        for i in 0..10 {
            feats.push(vec![10.0 + i as f32 * 0.01, 0.0]);
            probs.push(vec![0.52, 0.48]); // uncertain
        }
        (block(&feats), block(&probs))
    }

    #[test]
    fn prefers_low_margin_candidates() {
        let (feats, probs) = setup();
        // Use a margin pool of 2 × budget = 10 so the margin filter actually
        // bites with only 20 candidates (with the default 10× multiplier the
        // pool would be the whole candidate set).
        let cfg = ClusterMarginConfig {
            margin_pool_multiplier: 2,
            ..ClusterMarginConfig::default()
        };
        let picks = cluster_margin_selection(&feats, &all(&feats), &probs, 5, &cfg);
        assert_eq!(picks.len(), 5);
        // Every pick must come from the uncertain cluster (indices 10..20):
        // the 10 lowest-margin candidates are exactly those.
        assert!(
            picks.iter().all(|&i| i >= 10),
            "all picks should be uncertain: {picks:?}"
        );
    }

    #[test]
    fn spreads_picks_across_clusters_when_margins_tie() {
        // All candidates equally uncertain -> diversity stage should spread
        // selections across the two spatial clusters.
        let mut feats = Vec::new();
        for i in 0..10 {
            feats.push(vec![0.0 + i as f32 * 0.01, 0.0]);
        }
        for i in 0..10 {
            feats.push(vec![10.0 + i as f32 * 0.01, 0.0]);
        }
        let probs = block(&vec![vec![0.5, 0.5]; 20]);
        // One cluster per budget slot: with k = 4 over two well-separated
        // blobs each blob owns at least one cluster, so the round-robin
        // stage *must* span both (at k = 2×budget the spread depends on how
        // k-means tie-breaks split the blobs, which is not a property worth
        // pinning down).
        let cfg = ClusterMarginConfig {
            clusters_per_budget: 1,
            ..ClusterMarginConfig::default()
        };
        let feats = block(&feats);
        let picks = cluster_margin_selection(&feats, &all(&feats), &probs, 4, &cfg);
        let left = picks.iter().filter(|&&i| i < 10).count();
        let right = picks.len() - left;
        assert!(
            left >= 1 && right >= 1,
            "picks should span both clusters: {picks:?}"
        );
    }

    /// Candidates given as rows of a larger block select exactly what the
    /// same candidates gathered into their own block select.
    #[test]
    fn candidate_rows_select_like_a_gathered_block() {
        let rows: Vec<Vec<f32>> = (0..60)
            .map(|i| vec![(i as f32 * 0.37).sin() * 5.0, (i as f32 * 0.11).cos()])
            .collect();
        let big = block(&rows);
        let candidates: Vec<usize> = (0..40).map(|i| (i * 23 + 7) % 60).rev().collect();
        let probs = block(
            &(0..candidates.len())
                .map(|i| {
                    let p = (i as f32 * 0.53).sin() * 0.5 + 0.5;
                    vec![p, 1.0 - p]
                })
                .collect::<Vec<_>>(),
        );
        let gathered = big.gather(&candidates);
        let cfg = ClusterMarginConfig {
            margin_pool_multiplier: 3,
            ..ClusterMarginConfig::default()
        };
        assert_eq!(
            cluster_margin_selection(&big, &candidates, &probs, 6, &cfg),
            cluster_margin_selection(&gathered, &all(&gathered), &probs, 6, &cfg)
        );
    }

    #[test]
    fn works_without_model_probabilities() {
        let (feats, _) = setup();
        let picks = cluster_margin_selection(
            &feats,
            &all(&feats),
            &FeatureBlock::empty(0),
            6,
            &ClusterMarginConfig::default(),
        );
        assert_eq!(picks.len(), 6);
        let unique: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(unique.len(), picks.len());
    }

    #[test]
    fn budget_larger_than_pool() {
        let (feats, probs) = setup();
        let picks = cluster_margin_selection(
            &feats,
            &all(&feats),
            &probs,
            100,
            &ClusterMarginConfig::default(),
        );
        assert_eq!(picks.len(), 20);
    }

    #[test]
    fn empty_inputs() {
        assert!(cluster_margin_selection(
            &FeatureBlock::empty(2),
            &[],
            &FeatureBlock::empty(2),
            5,
            &ClusterMarginConfig::default()
        )
        .is_empty());
        let (feats, probs) = setup();
        assert!(cluster_margin_selection(
            &feats,
            &all(&feats),
            &probs,
            0,
            &ClusterMarginConfig::default()
        )
        .is_empty());
    }

    #[test]
    fn zero_dimensional_features_do_not_panic() {
        // Regression: the k-means update used to rebuild an empty centroid
        // set for dim-0 blocks and panic in the next assignment pass.
        let feats = FeatureBlock::from_vec(6, 0, Vec::new());
        let picks = cluster_margin_selection(
            &feats,
            &all(&feats),
            &FeatureBlock::empty(0),
            3,
            &ClusterMarginConfig::default(),
        );
        assert_eq!(picks.len(), 3);
        let unique: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(unique.len(), picks.len());
    }

    #[test]
    fn margin_computation() {
        assert!((margin(&[0.7, 0.2, 0.1]) - 0.5).abs() < 1e-6);
        assert!((margin(&[0.5, 0.5]) - 0.0).abs() < 1e-6);
        // Single-entry vectors are treated as fully confident.
        assert!((margin(&[1.0]) - 1.0).abs() < 1e-6);
        // Empty vectors are treated as maximally uncertain.
        assert_eq!(margin(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "probability rows must match")]
    fn rejects_mismatched_probs() {
        cluster_margin_selection(
            &block(&[vec![0.0, 1.0], vec![1.0, 0.0]]),
            &[0, 1],
            &block(&[vec![0.5, 0.5]]),
            1,
            &ClusterMarginConfig::default(),
        );
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]
            #[test]
            fn valid_unique_selections(
                n in 1usize..40,
                budget in 1usize..10,
                seed_vals in proptest::collection::vec(-5.0f32..5.0, 40 * 3),
            ) {
                let feats: Vec<Vec<f32>> = (0..n)
                    .map(|i| seed_vals[i * 3..i * 3 + 3].to_vec())
                    .collect();
                let feats = FeatureBlock::from_nested(&feats);
                let picks = cluster_margin_selection(
                    &feats,
                    &all(&feats),
                    &FeatureBlock::empty(0),
                    budget,
                    &ClusterMarginConfig::default(),
                );
                prop_assert!(picks.len() <= budget.min(n));
                let unique: std::collections::HashSet<_> = picks.iter().collect();
                prop_assert_eq!(unique.len(), picks.len());
                prop_assert!(picks.iter().all(|&i| i < n));
            }
        }
    }
}
