//! Average-linkage hierarchical agglomerative clustering (HAC).
//!
//! The original Cluster-Margin algorithm (Citovsky et al., 2021) clusters the
//! unlabeled pool once with HAC and reuses the clustering across rounds. The
//! default [`crate::cluster_margin_selection`] uses a small k-means for speed,
//! but HAC is provided as an alternative diversity stage
//! ([`crate::cluster_margin::ClusterMarginConfig`] + [`cluster_margin_selection_hac`])
//! for workloads where fidelity to the original algorithm is preferred.
//!
//! # Algorithm
//!
//! Average linkage over squared Euclidean distances satisfies the
//! Lance–Williams recurrence: when clusters `i` and `j` (sizes `nᵢ`, `nⱼ`)
//! merge, the distance from the union to any other cluster `k` is the
//! size-weighted mean
//!
//! ```text
//! d(i ∪ j, k) = (nᵢ · d(i, k) + nⱼ · d(j, k)) / (nᵢ + nⱼ)
//! ```
//!
//! so the distance matrix (built once with the blocked
//! [`FeatureBlock::pairwise_sq_distances`] kernel) can be *maintained* in
//! O(n) per merge instead of recomputed from member pairs — the seed
//! implementation's recompute-everything scan was O(n³) distance evaluations
//! per run (O(n⁴) with the per-pair member loops). Cached per-row minima
//! bring the closest-pair search down to O(n) per merge in the common case,
//! for O(n²) total work after the matrix build.
//!
//! # Memory layout
//!
//! The matrix is symmetric with a zero diagonal, so [`hac_average_linkage`]
//! stores only the upper triangle, condensed into one `f32` buffer of
//! `n·(n−1)/2` entries — 2 bytes/pair steady state versus the previous full
//! square `f64` matrix's 8 bytes/pair (recurrence arithmetic stays in `f64`;
//! only storage is rounded). The previous representation survives only in
//! this module's tests, as the oracle the condensed implementation is pinned
//! against (bit-identical cluster assignments at n = 1,000 on the
//! benchmark-shaped input).
//!
//! # Determinism
//!
//! Exact ties are broken toward the lexicographically first `(i, j)` cluster
//! pair, matching a naive full scan in ascending index order.

use crate::cluster_margin::{margins_of, round_robin, ClusterMarginConfig};
use ve_ml::FeatureBlock;

/// Index of the `(i, j)` pair (`i < j`) in a condensed upper-triangular
/// buffer over `n` items.
#[inline]
fn condensed_index(n: usize, i: usize, j: usize) -> usize {
    debug_assert!(i < j && j < n);
    i * n - i * (i + 1) / 2 + (j - i - 1)
}

/// Clusters the rows of `points` into at most `num_clusters` clusters with
/// average-linkage HAC and returns the cluster index of every row.
///
/// The Lance–Williams matrix lives in a condensed upper-triangular `f32`
/// buffer (see the module docs); the weighted-average updates are computed in
/// `f64` from the stored operands and rounded back to `f32`.
///
/// # Panics
/// Panics if `points` has no rows or `num_clusters == 0`.
pub fn hac_average_linkage(points: &FeatureBlock, num_clusters: usize) -> Vec<usize> {
    assert!(!points.is_empty(), "cannot cluster an empty set");
    assert!(num_clusters > 0, "need at least one cluster");
    let n = points.rows();
    let target = num_clusters.min(n);

    // Condensed upper triangle: entry (i, j) with i < j lives at
    // `condensed_index(n, i, j)`. Seeded from the blocked f32 pairwise
    // kernel; the full square f32 matrix is freed right after the copy, so
    // peak memory is 6 bytes/pair and steady state 2 bytes/pair (vs the
    // dense reference's 8).
    let base = points.pairwise_sq_distances(points);
    let mut dist = vec![0.0f32; n * (n - 1) / 2];
    for i in 0..n.saturating_sub(1) {
        let row = base.row(i);
        let offset = condensed_index(n, i, i + 1);
        dist[offset..offset + (n - i - 1)].copy_from_slice(&row[i + 1..]);
    }
    drop(base);

    let mut active: Vec<bool> = vec![true; n];
    let mut sizes: Vec<usize> = vec![1; n];
    let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
    let mut num_active = n;

    // Cached row minima over the upper triangle: for every active slot i,
    // the smallest distance to an active slot j > i (first j wins ties).
    let mut min_d = vec![f32::INFINITY; n];
    let mut min_j = vec![usize::MAX; n];
    let recompute_row = |dist: &[f32], active: &[bool], i: usize| -> (f32, usize) {
        let mut best = f32::INFINITY;
        let mut best_j = usize::MAX;
        let offset = i * n - i * (i + 1) / 2;
        for (j, &a) in active.iter().enumerate().skip(i + 1) {
            if !a {
                continue;
            }
            let d = dist[offset + (j - i - 1)];
            if d < best {
                best = d;
                best_j = j;
            }
        }
        (best, best_j)
    };
    for i in 0..n {
        let (d, j) = recompute_row(&dist, &active, i);
        min_d[i] = d;
        min_j[i] = j;
    }

    while num_active > target {
        // Closest pair = first active row attaining the global minimum of the
        // cached row minima (strict < ⇒ lexicographically first pair wins).
        let mut bi = usize::MAX;
        let mut bd = f32::INFINITY;
        for (i, &a) in active.iter().enumerate() {
            if a && min_j[i] != usize::MAX && min_d[i] < bd {
                bd = min_d[i];
                bi = i;
            }
        }
        if bi == usize::MAX {
            break;
        }
        let (i, j) = (bi, min_j[bi]);

        // Lance–Williams update of row/column i to represent i ∪ j.
        let (ni, nj) = (sizes[i] as f64, sizes[j] as f64);
        let inv = 1.0 / (ni + nj);
        for (k, &alive) in active.iter().enumerate() {
            if !alive || k == i || k == j {
                continue;
            }
            let ik = condensed_index(n, i.min(k), i.max(k));
            let jk = condensed_index(n, j.min(k), j.max(k));
            dist[ik] = ((ni * dist[ik] as f64 + nj * dist[jk] as f64) * inv) as f32;
        }
        sizes[i] += sizes[j];
        active[j] = false;
        num_active -= 1;
        let moved = std::mem::take(&mut members[j]);
        members[i].extend(moved);

        // Repair the cached minima.
        let (d, jj) = recompute_row(&dist, &active, i);
        min_d[i] = d;
        min_j[i] = jj;
        for k in 0..n {
            if !active[k] || k == i {
                continue;
            }
            if k < i {
                let nd = dist[condensed_index(n, k, i)];
                if min_j[k] == j {
                    // Its minimum pointed at the vanished slot.
                    let (d, jj) = recompute_row(&dist, &active, k);
                    min_d[k] = d;
                    min_j[k] = jj;
                } else if min_j[k] == i {
                    if nd <= min_d[k] {
                        min_d[k] = nd;
                    } else {
                        let (d, jj) = recompute_row(&dist, &active, k);
                        min_d[k] = d;
                        min_j[k] = jj;
                    }
                } else if nd < min_d[k] || (nd == min_d[k] && i < min_j[k]) {
                    min_d[k] = nd;
                    min_j[k] = i;
                }
            } else if k < j && min_j[k] == j {
                // Row k (i < k < j) lost its minimum column.
                let (d, jj) = recompute_row(&dist, &active, k);
                min_d[k] = d;
                min_j[k] = jj;
            }
        }
    }

    // Assign dense cluster ids in slot order, matching the naive reference.
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

/// Cluster-Margin selection using HAC for the diversity stage (the original
/// algorithm's clustering choice). Margin filtering and the ascending-size
/// round-robin stage are identical to [`crate::cluster_margin_selection`].
pub fn cluster_margin_selection_hac(
    features: &FeatureBlock,
    probs: &FeatureBlock,
    budget: usize,
    cfg: &ClusterMarginConfig,
) -> Vec<usize> {
    if features.is_empty() || budget == 0 {
        return Vec::new();
    }
    if !probs.is_empty() {
        assert_eq!(
            probs.rows(),
            features.rows(),
            "probability rows must match candidates"
        );
    }
    let margins = margins_of(probs, features.rows());
    let pool_size = (cfg.margin_pool_multiplier.max(1) * budget).min(features.rows());
    let mut order: Vec<usize> = (0..features.rows()).collect();
    order.sort_by(|&a, &b| margins[a].partial_cmp(&margins[b]).expect("NaN margin"));
    let pool: Vec<usize> = order.into_iter().take(pool_size).collect();

    let k = (cfg.clusters_per_budget.max(1) * budget)
        .min(pool.len())
        .max(1);
    let pool_block = features.gather(&pool);
    let assignment = hac_average_linkage(&pool_block, k);

    let num_clusters = assignment.iter().copied().max().unwrap_or(0) + 1;
    let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); num_clusters];
    for (pos, &cand) in pool.iter().enumerate() {
        clusters[assignment[pos]].push(cand);
    }
    for cluster in &mut clusters {
        cluster.sort_by(|&a, &b| margins[a].partial_cmp(&margins[b]).expect("NaN margin"));
    }
    clusters.retain(|c| !c.is_empty());
    clusters.sort_by_key(|c| c.len());

    round_robin(&clusters, budget.min(pool.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The previous full-square-`f64`-matrix implementation, kept as the
    /// oracle the condensed representation is pinned against (8 bytes/pair
    /// steady state).
    fn hac_average_linkage_dense(points: &FeatureBlock, num_clusters: usize) -> Vec<usize> {
        assert!(!points.is_empty(), "cannot cluster an empty set");
        assert!(num_clusters > 0, "need at least one cluster");
        let n = points.rows();
        let target = num_clusters.min(n);

        // Full symmetric distance matrix in f64 (the Lance–Williams updates stay
        // in f64 so repeated weighted averaging does not drift).
        let base = points.pairwise_sq_distances(points);
        let mut dist = vec![0.0f64; n * n];
        for (d, &b) in dist.iter_mut().zip(base.as_slice()) {
            *d = b as f64;
        }
        // The f32 matrix is only the seed for the f64 working copy; free it now
        // so peak memory on this O(n²) path is 8 bytes/pair, not 12.
        drop(base);

        let mut active: Vec<bool> = vec![true; n];
        let mut sizes: Vec<usize> = vec![1; n];
        let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
        let mut num_active = n;

        // Cached row minima over the upper triangle: for every active slot i,
        // the smallest distance to an active slot j > i (first j wins ties).
        let mut min_d = vec![f64::INFINITY; n];
        let mut min_j = vec![usize::MAX; n];
        let recompute_row = |dist: &[f64], active: &[bool], i: usize| -> (f64, usize) {
            let mut best = f64::INFINITY;
            let mut best_j = usize::MAX;
            for (j, &a) in active.iter().enumerate().skip(i + 1) {
                if !a {
                    continue;
                }
                let d = dist[i * n + j];
                if d < best {
                    best = d;
                    best_j = j;
                }
            }
            (best, best_j)
        };
        for i in 0..n {
            let (d, j) = recompute_row(&dist, &active, i);
            min_d[i] = d;
            min_j[i] = j;
        }

        while num_active > target {
            // Closest pair = first active row attaining the global minimum of the
            // cached row minima (strict < ⇒ lexicographically first pair wins).
            let mut bi = usize::MAX;
            let mut bd = f64::INFINITY;
            for (i, &a) in active.iter().enumerate() {
                if a && min_j[i] != usize::MAX && min_d[i] < bd {
                    bd = min_d[i];
                    bi = i;
                }
            }
            if bi == usize::MAX {
                break;
            }
            let (i, j) = (bi, min_j[bi]);

            // Lance–Williams update of row/column i to represent i ∪ j.
            let (ni, nj) = (sizes[i] as f64, sizes[j] as f64);
            let inv = 1.0 / (ni + nj);
            for k in 0..n {
                if !active[k] || k == i || k == j {
                    continue;
                }
                let nd = (ni * dist[i * n + k] + nj * dist[j * n + k]) * inv;
                dist[i * n + k] = nd;
                dist[k * n + i] = nd;
            }
            sizes[i] += sizes[j];
            active[j] = false;
            num_active -= 1;
            let moved = std::mem::take(&mut members[j]);
            members[i].extend(moved);

            // Repair the cached minima.
            let (d, jj) = recompute_row(&dist, &active, i);
            min_d[i] = d;
            min_j[i] = jj;
            for k in 0..n {
                if !active[k] || k == i {
                    continue;
                }
                if k < i {
                    let nd = dist[k * n + i];
                    if min_j[k] == j {
                        // Its minimum pointed at the vanished slot.
                        let (d, jj) = recompute_row(&dist, &active, k);
                        min_d[k] = d;
                        min_j[k] = jj;
                    } else if min_j[k] == i {
                        if nd <= min_d[k] {
                            min_d[k] = nd;
                        } else {
                            let (d, jj) = recompute_row(&dist, &active, k);
                            min_d[k] = d;
                            min_j[k] = jj;
                        }
                    } else if nd < min_d[k] || (nd == min_d[k] && i < min_j[k]) {
                        min_d[k] = nd;
                        min_j[k] = i;
                    }
                } else if k < j && min_j[k] == j {
                    // Row k (i < k < j) lost its minimum column.
                    let (d, jj) = recompute_row(&dist, &active, k);
                    min_d[k] = d;
                    min_j[k] = jj;
                }
            }
        }

        // Assign dense cluster ids in slot order, matching the naive reference.
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

    fn block(rows: &[Vec<f32>]) -> FeatureBlock {
        FeatureBlock::from_nested(rows)
    }

    fn three_blobs() -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        for (cx, cy) in [(0.0f32, 0.0f32), (10.0, 0.0), (0.0, 10.0)] {
            for i in 0..6 {
                out.push(vec![cx + i as f32 * 0.05, cy - i as f32 * 0.05]);
            }
        }
        out
    }

    #[test]
    fn hac_recovers_well_separated_blobs() {
        let points = block(&three_blobs());
        let assignment = hac_average_linkage(&points, 3);
        // Every blob must map to exactly one cluster id.
        for blob in 0..3 {
            let ids: std::collections::HashSet<usize> =
                (0..6).map(|i| assignment[blob * 6 + i]).collect();
            assert_eq!(
                ids.len(),
                1,
                "blob {blob} split across clusters: {assignment:?}"
            );
        }
        // And the three blobs map to three different ids.
        let distinct: std::collections::HashSet<usize> = assignment.iter().copied().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn hac_with_one_cluster_puts_everything_together() {
        let points = block(&three_blobs());
        let assignment = hac_average_linkage(&points, 1);
        assert!(assignment.iter().all(|&c| c == 0));
    }

    #[test]
    fn hac_with_more_clusters_than_points_is_identity_like() {
        let points = block(&[vec![0.0f32], vec![1.0], vec![2.0]]);
        let assignment = hac_average_linkage(&points, 10);
        let distinct: std::collections::HashSet<usize> = assignment.iter().copied().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn hac_cluster_margin_spreads_across_blobs() {
        let points = block(&three_blobs());
        let probs = block(&vec![vec![0.5, 0.5]; 18]);
        // k = budget = 3 clusters: HAC recovers exactly the three blobs, so
        // every pick lands in a different blob by construction (at the
        // default k = 2×budget the per-blob sub-splits make the ascending-
        // size round-robin order tie-break-dependent).
        let cfg = ClusterMarginConfig {
            clusters_per_budget: 1,
            ..ClusterMarginConfig::default()
        };
        let picks = cluster_margin_selection_hac(&points, &probs, 3, &cfg);
        assert_eq!(picks.len(), 3);
        let blobs: std::collections::HashSet<usize> = picks.iter().map(|&i| i / 6).collect();
        assert_eq!(blobs.len(), 3, "one pick per blob expected: {picks:?}");
    }

    #[test]
    fn hac_cluster_margin_prefers_uncertain_candidates() {
        let points = block(&three_blobs());
        // Blob 0 uncertain, blobs 1-2 confident.
        let probs: Vec<Vec<f32>> = (0..18)
            .map(|i| {
                if i < 6 {
                    vec![0.51, 0.49]
                } else {
                    vec![0.95, 0.05]
                }
            })
            .collect();
        let cfg = ClusterMarginConfig {
            margin_pool_multiplier: 2,
            ..ClusterMarginConfig::default()
        };
        let picks = cluster_margin_selection_hac(&points, &block(&probs), 3, &cfg);
        assert!(
            picks.iter().all(|&i| i < 6),
            "picks must come from the uncertain blob: {picks:?}"
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn hac_rejects_empty_input() {
        hac_average_linkage(&FeatureBlock::empty(2), 2);
    }

    #[test]
    fn condensed_index_covers_the_upper_triangle() {
        let n = 7;
        let mut seen = vec![false; n * (n - 1) / 2];
        for i in 0..n {
            for j in (i + 1)..n {
                let idx = condensed_index(n, i, j);
                assert!(!seen[idx], "({i},{j}) collided at {idx}");
                seen[idx] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every slot addressed");
    }

    /// The satellite equivalence test: the condensed f32 representation must
    /// reproduce the dense f64 reference's merges/selections bit-for-bit at
    /// n = 1,000 on a benchmark-shaped input (64-dim uniform features,
    /// target 50 — the `bench_acquisition` HAC configuration).
    #[test]
    fn condensed_matches_dense_reference_at_n_1000() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (n, dim) = (1_000, 64);
        let mut rng = StdRng::seed_from_u64(11);
        let data: Vec<f32> = (0..n * dim).map(|_| rng.gen::<f32>() * 2.0 - 1.0).collect();
        let points = FeatureBlock::from_vec(n, dim, data);
        assert_eq!(
            hac_average_linkage(&points, 50),
            hac_average_linkage_dense(&points, 50),
        );
    }

    #[test]
    fn agrees_with_kmeans_variant_on_budget_and_uniqueness() {
        let points = block(&three_blobs());
        let picks = cluster_margin_selection_hac(
            &points,
            &FeatureBlock::empty(0),
            7,
            &ClusterMarginConfig::default(),
        );
        assert_eq!(picks.len(), 7);
        let unique: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(unique.len(), picks.len());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        /// The seed implementation, verbatim: recompute every cluster-pair
        /// average distance from member pairs on every merge scan.
        fn naive_hac(points: &FeatureBlock, num_clusters: usize) -> Vec<usize> {
            let n = points.rows();
            let target = num_clusters.min(n);
            // Use the same base f32 distances as the optimized kernel so the
            // comparison isolates the *algorithm* (Lance–Williams vs full
            // recompute), not distance-kernel rounding.
            let base = points.pairwise_sq_distances(points);
            let mut members: Vec<Vec<usize>> = (0..n).map(|i| vec![i]).collect();
            let mut active: Vec<bool> = vec![true; n];
            let mut num_active = n;
            let cluster_distance = |a: &[usize], b: &[usize]| -> f64 {
                let mut total = 0.0f64;
                for &i in a {
                    for &j in b {
                        total += base.get(i, j) as f64;
                    }
                }
                total / (a.len() * b.len()) as f64
            };
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
                        let d = cluster_distance(&members[i], &members[j]);
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

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn lance_williams_matches_naive_recompute(
                rows in proptest::collection::vec(
                    proptest::collection::vec(-10.0f32..10.0, 4), 2..64),
                clusters in 1usize..8,
            ) {
                let points = FeatureBlock::from_nested(&rows);
                let fast = hac_average_linkage(&points, clusters);
                let slow = naive_hac(&points, clusters);
                prop_assert_eq!(fast, slow);
            }

            #[test]
            fn condensed_matches_dense_reference(
                rows in proptest::collection::vec(
                    proptest::collection::vec(-10.0f32..10.0, 6), 2..96),
                clusters in 1usize..10,
            ) {
                let points = FeatureBlock::from_nested(&rows);
                prop_assert_eq!(
                    hac_average_linkage(&points, clusters),
                    hac_average_linkage_dense(&points, clusters)
                );
            }

            #[test]
            fn hac_selection_equals_naive_pipeline(
                rows in proptest::collection::vec(
                    proptest::collection::vec(-6.0f32..6.0, 3), 4..48),
                budget in 1usize..6,
            ) {
                // End-to-end: the HAC cluster-margin stage built on the
                // optimized clustering must produce valid, unique picks.
                let points = FeatureBlock::from_nested(&rows);
                let picks = cluster_margin_selection_hac(
                    &points,
                    &FeatureBlock::empty(0),
                    budget,
                    &ClusterMarginConfig::default(),
                );
                prop_assert!(picks.len() <= budget.min(rows.len()));
                let unique: std::collections::HashSet<_> = picks.iter().collect();
                prop_assert_eq!(unique.len(), picks.len());
                prop_assert!(picks.iter().all(|&i| i < rows.len()));
            }
        }
    }
}
