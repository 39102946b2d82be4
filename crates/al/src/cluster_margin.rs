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
//!
//! Each stage does only the work that can change its output. The margin
//! pool is a partial select on the total key `(margin, candidate position)`
//! followed by a sort of the pool alone, which yields exactly the prefix of
//! a stable full sort by margin (ties included). k-means stops at its fixed
//! point: once a sweep's assignment repeats the previous one, every later
//! sweep would repeat it too, so the result equals the one the full
//! iteration cap would return.
//!
//! The selection draws no randomness: its picks are a function of the
//! candidates' rows and probabilities alone, so a caller that knows the
//! next call's candidates and model can select ahead of time and serve the
//! picks inside the call.

use ve_ml::{max_index, FeatureBlock, FeatureBlockBuilder};

/// Configuration for Cluster-Margin.
#[derive(Debug, Clone, Copy)]
pub struct ClusterMarginConfig {
    /// Margin-pool multiplier: the `k_m · budget` lowest-margin candidates
    /// enter the clustering stage (paper uses a pool ~10× the batch).
    pub margin_pool_multiplier: usize,
    /// Number of clusters used for the diversity stage, as a multiple of the
    /// budget (clamped to the pool size).
    pub clusters_per_budget: usize,
    /// Cap on the k-means sweeps; the fit exits earlier at its fixed point
    /// (see [`kmeans_fit`]), with the result the capped loop would return.
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
    cluster_margin_selection_with_sweeps(block, candidates, probs, budget, cfg).0
}

/// [`cluster_margin_selection`] that also reports the k-means sweeps its
/// diversity stage ran (0 when nothing was selected): the work counter the
/// acquisition benchmark commits.
pub fn cluster_margin_selection_with_sweeps(
    block: &FeatureBlock,
    candidates: &[usize],
    probs: &FeatureBlock,
    budget: usize,
    cfg: &ClusterMarginConfig,
) -> (Vec<usize>, usize) {
    let n = candidates.len();
    if n == 0 || budget == 0 {
        return (Vec::new(), 0);
    }
    if !probs.is_empty() {
        assert_eq!(probs.rows(), n, "probability rows must match candidates");
    }
    // Stage 1: the positions of the `k_m · budget` lowest-margin
    // candidates, ascending by `(margin, position)`.
    let pool_size = (cfg.margin_pool_multiplier.max(1) * budget).min(n);
    let pool = lowest_margins(&margins_of(probs, n), pool_size);

    // Stage 2: cluster the pool for diversity. The pool rows are gathered
    // into their own contiguous block once; every k-means pass then streams
    // that block.
    let pool_rows: Vec<usize> = pool.iter().map(|&p| candidates[p]).collect();
    let k = (cfg.clusters_per_budget.max(1) * budget)
        .min(pool.len())
        .max(1);
    let fit = kmeans_fit(&block.gather(&pool_rows), k, cfg.kmeans_iters);

    // Stage 3: round-robin over clusters, ascending by cluster size, picking
    // the lowest-margin unpicked member of each cluster. Members arrive in
    // pool order, which is already ascending by margin.
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (&candidate, &cluster) in pool.iter().zip(&fit.assignment) {
        clusters[cluster].push(candidate);
    }
    clusters.retain(|c| !c.is_empty());
    clusters.sort_by_key(|c| c.len());

    (round_robin(&clusters, budget.min(pool.len())), fit.sweeps)
}

/// The positions of the `take` smallest margins, ascending by
/// `(margin, position)`: the first `take` entries of a stable sort by
/// margin, found with a partial select so only the pool itself is sorted.
fn lowest_margins(margins: &[f64], take: usize) -> Vec<usize> {
    let key = |&a: &usize, &b: &usize| {
        margins[a]
            .partial_cmp(&margins[b])
            .expect("NaN margin")
            .then(a.cmp(&b))
    };
    if take == 0 {
        return Vec::new();
    }
    let mut order: Vec<usize> = (0..margins.len()).collect();
    if take < order.len() {
        order.select_nth_unstable_by(take - 1, key);
        order.truncate(take);
    }
    order.sort_unstable_by(key);
    order
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

/// A fitted deterministic k-means (see [`kmeans_fit`]).
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansFit {
    /// The fitted centroids (empty for zero-dimensional pools).
    pub centroids: FeatureBlock,
    /// Cluster id of every pool row.
    pub assignment: Vec<usize>,
    /// Assignment sweeps run: at most the iteration cap, fewer when the fit
    /// reached its fixed point first (0 for zero-dimensional pools).
    pub sweeps: usize,
}

/// Deterministic k-means over a contiguous pool block, returning the fitted
/// centroids and the cluster assignment of every pool row. Initial
/// centroids are chosen by a farthest-point sweep (k-means++ without
/// randomness) starting from row 0; ties in both initialization and
/// assignment go to the first (lowest) index. The centroids are what the
/// cluster-sketch candidate reducer keeps alive across `Explore` calls (new
/// rows are assigned incrementally with [`FeatureBlock::nearest_rows`]); the
/// assignment alone is what [`cluster_margin_selection`]'s diversity stage
/// consumes.
///
/// `max_iters` caps the assign/update sweeps. The loop exits as soon as a
/// sweep's assignment equals the previous sweep's: each centroid update is a
/// function of the assignment alone (an empty cluster keeps its centroid),
/// so the update would reproduce the current centroids bit for bit and
/// every later sweep would repeat the same assignment. The result is the
/// one the full `max_iters` loop returns.
pub fn kmeans_fit(pool: &FeatureBlock, k: usize, max_iters: usize) -> KMeansFit {
    let n = pool.rows();
    let k = k.min(n).max(1);
    if pool.dim() == 0 {
        // Degenerate zero-dimensional features: every distance is 0, so all
        // rows belong to the first centroid (first-index-wins), matching the
        // seed behaviour.
        return KMeansFit {
            centroids: FeatureBlock::empty(0),
            assignment: vec![0; n],
            sweeps: 0,
        };
    }

    // Farthest-point initialization: maintain, for every row, its squared
    // distance to the nearest chosen centroid; each step adds the first row
    // attaining the maximum (ascending argmax, first index wins). One
    // parallel distance pass per chosen centroid instead of the seed's
    // O(centroids · pool²) rescans.
    let mut centroid_rows = vec![0usize];
    let mut init_min = vec![0.0f32; n];
    pool.sq_distances_to(pool.row(0), &mut init_min);
    while centroid_rows.len() < k {
        let best = max_index(&init_min).unwrap_or(0);
        if centroid_rows.contains(&best) {
            break;
        }
        centroid_rows.push(best);
        pool.min_sq_distances_update(pool.row(best), &mut init_min);
    }

    let dim = pool.dim();
    let mut centroids = pool.gather(&centroid_rows);
    let mut assignment: Vec<usize> = Vec::new();
    let cap = max_iters.max(1);
    for sweep in 1..=cap {
        // Assign: one blocked, parallel nearest-centroid sweep.
        let next = pool.nearest_rows(&centroids);
        if sweep > 1 && next == assignment {
            return KMeansFit {
                centroids,
                assignment,
                sweeps: sweep,
            };
        }
        assignment = next;
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
        let mut updated = FeatureBlockBuilder::with_capacity(centroids.rows(), dim);
        for (ci, chunk) in sums.chunks(dim).enumerate() {
            if counts[ci] > 0 {
                let inv = 1.0 / counts[ci] as f32;
                let row: Vec<f32> = chunk.iter().map(|s| s * inv).collect();
                updated.push_row(&row);
            } else {
                updated.push_row(centroids.row(ci));
            }
        }
        centroids = updated.build();
    }
    KMeansFit {
        centroids,
        assignment,
        sweeps: cap,
    }
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

    /// k-means that always runs every sweep up to the cap, with no
    /// fixed-point exit: the oracle [`kmeans_fit`] must match bit for bit.
    fn kmeans_fixed_sweeps(
        pool: &FeatureBlock,
        k: usize,
        iters: usize,
    ) -> (FeatureBlock, Vec<usize>) {
        let n = pool.rows();
        let k = k.min(n).max(1);
        if pool.dim() == 0 {
            return (FeatureBlock::empty(0), vec![0; n]);
        }
        let mut centroid_rows = vec![0usize];
        let mut init_min = vec![0.0f32; n];
        pool.sq_distances_to(pool.row(0), &mut init_min);
        while centroid_rows.len() < k {
            let best = max_index(&init_min).unwrap_or(0);
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
            assignment = pool.nearest_rows(&centroids);
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

    /// Cluster-Margin with a stable full sort of every margin, a stable
    /// per-cluster margin sort and the fixed-sweep k-means: the selection
    /// oracle.
    fn full_sort_selection(
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
        let margins = margins_of(probs, n);
        let pool_size = (cfg.margin_pool_multiplier.max(1) * budget).min(n);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| margins[a].partial_cmp(&margins[b]).expect("NaN margin"));
        let pool: Vec<usize> = order.into_iter().take(pool_size).collect();
        let k = (cfg.clusters_per_budget.max(1) * budget)
            .min(pool.len())
            .max(1);
        let pool_rows: Vec<usize> = pool.iter().map(|&p| candidates[p]).collect();
        let assignments = kmeans_fixed_sweeps(&block.gather(&pool_rows), k, cfg.kmeans_iters).1;
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

    /// `n` rows of `dim` dims: blobs around `blobs` random centres when
    /// `blobs > 0`, uniform noise otherwise.
    fn random_pool(
        rng: &mut rand::rngs::StdRng,
        n: usize,
        dim: usize,
        blobs: usize,
    ) -> FeatureBlock {
        use rand::Rng;
        let centres: Vec<Vec<f32>> = (0..blobs.max(1))
            .map(|_| (0..dim).map(|_| rng.gen::<f32>() * 20.0 - 10.0).collect())
            .collect();
        let data: Vec<f32> = (0..n)
            .flat_map(|r| {
                let centre = if blobs > 0 {
                    &centres[r % blobs]
                } else {
                    &centres[0]
                };
                let spread = if blobs > 0 { 0.5 } else { 10.0 };
                centre
                    .iter()
                    .map(|&c| c + (rng.gen::<f32>() - 0.5) * spread)
                    .collect::<Vec<_>>()
            })
            .collect();
        FeatureBlock::from_vec(n, dim, data)
    }

    fn bits(b: &FeatureBlock) -> Vec<u32> {
        b.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    fn assert_fit_matches_oracle(pool: &FeatureBlock, k: usize, cap: usize, case: &str) {
        let fit = kmeans_fit(pool, k, cap);
        let (centroids, assignment) = kmeans_fixed_sweeps(pool, k, cap);
        assert_eq!(fit.assignment, assignment, "{case}: assignment");
        assert_eq!(
            fit.centroids.rows(),
            centroids.rows(),
            "{case}: centroid rows"
        );
        assert_eq!(
            bits(&fit.centroids),
            bits(&centroids),
            "{case}: centroid bits"
        );
        assert!(
            fit.sweeps <= cap.max(1),
            "{case}: {} sweeps over cap {cap}",
            fit.sweeps
        );
    }

    #[test]
    fn kmeans_fit_matches_the_fixed_sweep_oracle() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(41);
        let mut early_exits = 0;
        for case in 0..30 {
            let n = 1 + case * 7 % 90;
            let dim = 1 + case % 6;
            let pool = random_pool(&mut rng, n, dim, case % 5);
            for cap in [1, 4, 10] {
                for k in [1, 3, 10, n, n + 3] {
                    assert_fit_matches_oracle(
                        &pool,
                        k,
                        cap,
                        &format!("case {case} k {k} cap {cap}"),
                    );
                    early_exits += usize::from(kmeans_fit(&pool, k, cap).sweeps < cap);
                }
            }
        }
        assert!(
            early_exits > 0,
            "no case reached its fixed point before the cap"
        );
    }

    #[test]
    fn kmeans_fit_matches_the_oracle_on_duplicates_and_degenerate_pools() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(43);
        // Every row repeated: several centroids start on equal points.
        let base = random_pool(&mut rng, 12, 3, 3);
        let dup_rows: Vec<usize> = (0..36).map(|r| r % 12).collect();
        let dups = base.gather(&dup_rows);
        // One point repeated: k collapses to a single centroid.
        let same = FeatureBlock::from_nested(&vec![vec![1.5f32, -2.0]; 9]);
        // Zero-dimensional rows.
        let empty_dim = FeatureBlock::from_vec(6, 0, Vec::new());
        for cap in [1, 4, 10] {
            for k in [1, 4, 12, 36, 50] {
                assert_fit_matches_oracle(&dups, k, cap, &format!("dups k {k} cap {cap}"));
                assert_fit_matches_oracle(&same, k, cap, &format!("same k {k} cap {cap}"));
                assert_fit_matches_oracle(&empty_dim, k, cap, &format!("dim0 k {k} cap {cap}"));
            }
        }
        assert_eq!(kmeans_fit(&empty_dim, 3, 10).sweeps, 0);
        // A single point is its own fixed point after one repeat.
        assert_eq!(kmeans_fit(&same, 4, 10).sweeps, 2);
    }

    #[test]
    fn selection_matches_the_full_sort_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(47);
        for case in 0..40 {
            let rows = 20 + case * 13 % 150;
            let block = random_pool(&mut rng, rows, 4, case % 4);
            // Candidates in scrambled order with duplicates.
            let n = 1 + case * 11 % rows;
            let candidates: Vec<usize> = (0..n).map(|i| (i * 37 + case) % rows).collect();
            // Quantized probabilities: many tied margins.
            let levels = 1 + case % 4;
            let probs: Vec<Vec<f32>> = (0..n)
                .map(|_| {
                    let p = 0.5 + rng.gen_range(0..levels) as f32 * 0.1;
                    vec![p, 1.0 - p, 0.0]
                })
                .collect();
            let probs = FeatureBlock::from_nested(&probs);
            for budget in [1, 3, 5, 40] {
                for cfg in [
                    ClusterMarginConfig::default(),
                    ClusterMarginConfig {
                        margin_pool_multiplier: 2,
                        clusters_per_budget: 1,
                        kmeans_iters: 4,
                    },
                ] {
                    for p in [&probs, &FeatureBlock::empty(0)] {
                        assert_eq!(
                            cluster_margin_selection(&block, &candidates, p, budget, &cfg),
                            full_sort_selection(&block, &candidates, p, budget, &cfg),
                            "case {case} budget {budget} cfg {cfg:?} probs {}",
                            p.rows()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn lowest_margins_is_the_stable_sort_prefix() {
        let margins = [0.3, 0.0, 0.1, 0.0, 0.3, 0.1, 0.0, 0.2];
        let mut stable: Vec<usize> = (0..margins.len()).collect();
        stable.sort_by(|&a, &b| margins[a].partial_cmp(&margins[b]).unwrap());
        for take in 0..=margins.len() {
            assert_eq!(
                lowest_margins(&margins, take),
                stable[..take],
                "take {take}"
            );
        }
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
