//! The greedy Coreset (k-center) acquisition function of Sener & Savarese
//! (ICLR 2018).
//!
//! At each of `budget` steps the candidate farthest (in feature space) from
//! the already-covered set — labeled points plus previously selected
//! candidates — is picked. This is the density-based, diversity-seeking
//! baseline the paper's `VE-sample` can switch to, and the ALM executes
//! exactly `B` max-distance computations per `Explore` call (Section 4,
//! Baseline cost model).
//!
//! The distance scans run on [`FeatureBlock`]'s contiguous kernels: the
//! initial coverage pass is one blocked `candidates × labeled` sweep and each
//! selection step is one parallel `‖x_i − pick‖²` pass using cached squared
//! norms, so a 20k-window pool stays well under the interactivity budget.

use ve_ml::{max_index_filtered, FeatureBlock};

/// Selects `budget` candidate indices with the greedy k-center rule.
///
/// * `candidates` — feature block of the unlabeled pool (one row per
///   window).
/// * `labeled` — feature block of already-labeled segments (may be empty;
///   the first pick is then the candidate farthest from the pool centroid,
///   which avoids an arbitrary dependence on input order).
///
/// # Determinism and tie-breaking
///
/// Selection is fully deterministic: each step scans candidates in ascending
/// index order and takes the first candidate attaining the maximum coverage
/// distance (**first index wins** on exact ties). Zero-length candidate sets
/// (no rows, or a `budget` of 0) are skipped cleanly and return an empty
/// selection; degenerate zero-dimensional feature blocks select the first
/// `budget` indices in order (every distance ties at 0 and first-index-wins
/// applies).
///
/// # Panics
/// Panics if `labeled` is non-empty and its dimensionality differs from
/// `candidates`.
pub fn coreset_selection(
    candidates: &FeatureBlock,
    labeled: &FeatureBlock,
    budget: usize,
) -> Vec<usize> {
    if candidates.is_empty() || budget == 0 {
        return Vec::new();
    }
    if !labeled.is_empty() {
        assert_eq!(
            labeled.dim(),
            candidates.dim(),
            "labeled dimensions do not match candidates"
        );
    }

    // min_dist[i] = squared distance from candidate i to the covered set.
    let mut min_dist: Vec<f32> = if labeled.is_empty() {
        // Seed with distance to the candidate centroid so the first pick is
        // the most "extreme" point rather than whatever appears first.
        // `centroid()` is only `None` for an empty block, which was handled
        // above.
        let centroid = candidates.centroid().expect("non-empty candidate block");
        let mut out = vec![0.0f32; candidates.rows()];
        candidates.sq_distances_to(&centroid, &mut out);
        out
    } else {
        candidates.min_sq_distances_to_block(labeled)
    };

    let eligible: Vec<usize> = (0..candidates.rows()).collect();
    greedy_k_center(candidates, &mut min_dist, &eligible, budget)
}

/// The greedy k-center loop over an externally maintained coverage vector —
/// the incremental entry point used by the ALM's persistent
/// `AcquisitionIndex`.
///
/// * `coverage` — `coverage[i]` is the squared distance from candidate `i` to
///   the covered set (labeled anchors accumulated across iterations, or the
///   centroid seeding when no anchor exists yet). The caller owns this state:
///   maintaining it across `Explore` calls and updating it only for the Δ new
///   anchors (via [`FeatureBlock::min_sq_distances_update`]) is what turns
///   the per-call O(n·L) anchor scan into O(n·Δ). The vector is mutated in
///   place by the selection's own picks, so pass a scratch copy when the
///   persistent state must not absorb them.
/// * `eligible` — ascending candidate indices the selection may pick from
///   (the cluster-sketch reduction, with labeled windows masked out).
///   Coverage updates still run over *all* rows, so the greedy geometry is
///   unchanged by the reduction.
///
/// Equivalence: with `eligible = 0..rows` and `coverage` equal to what
/// [`coreset_selection`] computes from its `labeled` block, the selections
/// are bit-identical (each step is the same first-index-wins argmax over the
/// same values followed by the same parallel coverage update) — property
/// tests pin this.
///
/// # Panics
/// Panics if `coverage.len() != candidates.rows()` or an eligible index is
/// out of range.
pub fn greedy_k_center(
    candidates: &FeatureBlock,
    coverage: &mut [f32],
    eligible: &[usize],
    budget: usize,
) -> Vec<usize> {
    assert_eq!(
        coverage.len(),
        candidates.rows(),
        "coverage length must match candidates"
    );
    let take = budget.min(eligible.len());
    let mut selected = Vec::with_capacity(take);
    let mut picked = vec![false; candidates.rows()];
    for _ in 0..take {
        // Pick the first eligible candidate with the largest distance to the
        // covered set (ascending scan, first index wins ties).
        let Some(best) = max_index_filtered(coverage, eligible, &picked) else {
            break;
        };
        selected.push(best);
        picked[best] = true;
        // Update coverage distances with one parallel pass.
        candidates.min_sq_distances_update(candidates.row(best), coverage);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three tight clusters far apart; coreset should cover all three before
    /// revisiting any cluster.
    fn clustered_candidates() -> Vec<Vec<f32>> {
        let mut out = Vec::new();
        for (cx, cy) in [(0.0, 0.0), (10.0, 0.0), (0.0, 10.0)] {
            for i in 0..5 {
                out.push(vec![cx + i as f32 * 0.01, cy - i as f32 * 0.01]);
            }
        }
        out
    }

    fn block(rows: &[Vec<f32>]) -> FeatureBlock {
        FeatureBlock::from_nested(rows)
    }

    fn cluster_of(idx: usize) -> usize {
        idx / 5
    }

    #[test]
    fn covers_distinct_clusters_first() {
        let candidates = block(&clustered_candidates());
        let picks = coreset_selection(&candidates, &FeatureBlock::empty(2), 3);
        assert_eq!(picks.len(), 3);
        let clusters: std::collections::HashSet<usize> =
            picks.iter().map(|&i| cluster_of(i)).collect();
        assert_eq!(
            clusters.len(),
            3,
            "each pick should come from a different cluster"
        );
    }

    #[test]
    fn respects_already_labeled_points() {
        let candidates = block(&clustered_candidates());
        // Cluster 0 is already labeled; the first two picks must come from
        // clusters 1 and 2.
        let labeled = block(&[vec![0.0, 0.0]]);
        let picks = coreset_selection(&candidates, &labeled, 2);
        let clusters: std::collections::HashSet<usize> =
            picks.iter().map(|&i| cluster_of(i)).collect();
        assert!(
            !clusters.contains(&0),
            "cluster 0 is already covered: {picks:?}"
        );
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn no_duplicate_selections() {
        let candidates = block(&clustered_candidates());
        let picks = coreset_selection(&candidates, &FeatureBlock::empty(2), 15);
        let unique: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(unique.len(), picks.len());
        assert_eq!(picks.len(), 15);
    }

    #[test]
    fn budget_capped_by_pool_size() {
        let candidates = block(&[vec![0.0, 0.0], vec![1.0, 1.0]]);
        assert_eq!(
            coreset_selection(&candidates, &FeatureBlock::empty(2), 10).len(),
            2
        );
    }

    #[test]
    fn empty_inputs() {
        assert!(coreset_selection(&FeatureBlock::empty(3), &FeatureBlock::empty(3), 5).is_empty());
        assert!(coreset_selection(&block(&[vec![1.0]]), &FeatureBlock::empty(1), 0).is_empty());
    }

    #[test]
    fn deterministic() {
        let candidates = block(&clustered_candidates());
        assert_eq!(
            coreset_selection(&candidates, &FeatureBlock::empty(2), 4),
            coreset_selection(&candidates, &FeatureBlock::empty(2), 4)
        );
    }

    #[test]
    fn exact_ties_pick_the_first_index() {
        // Four identical points: every coverage distance ties, so the
        // documented first-index-wins rule must pick 0, 1, 2 in order.
        let candidates = block(&vec![vec![1.0, 1.0]; 4]);
        let picks = coreset_selection(&candidates, &FeatureBlock::empty(2), 3);
        assert_eq!(picks, vec![0, 1, 2]);
    }

    #[test]
    fn zero_dimensional_features_select_in_index_order() {
        // A regression test for centroid seeding on degenerate blocks: no
        // dimensions means every distance is 0; selection must not panic and
        // must fall back to index order.
        let candidates = FeatureBlock::from_vec(5, 0, Vec::new());
        let picks = coreset_selection(&candidates, &FeatureBlock::empty(0), 3);
        assert_eq!(picks, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "labeled dimensions")]
    fn rejects_mismatched_labeled_dims() {
        coreset_selection(&block(&[vec![1.0, 2.0]]), &block(&[vec![1.0]]), 1);
    }

    #[test]
    fn greedy_k_center_with_full_eligibility_matches_coreset_selection() {
        let candidates = block(&clustered_candidates());
        let labeled = block(&[vec![0.0, 0.0], vec![10.0, 0.0]]);
        let reference = coreset_selection(&candidates, &labeled, 4);
        let mut coverage = candidates.min_sq_distances_to_block(&labeled);
        let eligible: Vec<usize> = (0..candidates.rows()).collect();
        let incremental = greedy_k_center(&candidates, &mut coverage, &eligible, 4);
        assert_eq!(incremental, reference);
    }

    #[test]
    fn greedy_k_center_restricts_picks_to_eligible_set() {
        let candidates = block(&clustered_candidates());
        let mut coverage = {
            let centroid = candidates.centroid().unwrap();
            let mut out = vec![0.0f32; candidates.rows()];
            candidates.sq_distances_to(&centroid, &mut out);
            out
        };
        // Only cluster 1 (indices 5..10) is eligible.
        let eligible: Vec<usize> = (5..10).collect();
        let picks = greedy_k_center(&candidates, &mut coverage, &eligible, 3);
        assert_eq!(picks.len(), 3);
        assert!(picks.iter().all(|&i| (5..10).contains(&i)), "{picks:?}");
        let unique: std::collections::HashSet<_> = picks.iter().collect();
        assert_eq!(unique.len(), picks.len());
        // Budget larger than the eligible set is capped by it.
        let mut coverage2 = vec![1.0f32; candidates.rows()];
        assert_eq!(
            greedy_k_center(&candidates, &mut coverage2, &[2, 7], 10).len(),
            2
        );
        assert!(greedy_k_center(&candidates, &mut coverage2, &[], 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "coverage length")]
    fn greedy_k_center_rejects_short_coverage() {
        let candidates = block(&clustered_candidates());
        greedy_k_center(&candidates, &mut [0.0; 3], &[0], 1);
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;
        use ve_ml::tensor::squared_distance;

        /// Reference implementation: the seed repository's scalar
        /// `Vec<Vec<f32>>` loops, kept verbatim as the behavioural oracle for
        /// the blocked kernels.
        fn naive_coreset(
            candidates: &[Vec<f32>],
            labeled: &[Vec<f32>],
            budget: usize,
        ) -> Vec<usize> {
            if candidates.is_empty() || budget == 0 {
                return Vec::new();
            }
            let dim = candidates[0].len();
            let mut min_dist: Vec<f32> = if labeled.is_empty() {
                let mut centroid = vec![0.0f32; dim];
                for c in candidates {
                    for (s, &v) in centroid.iter_mut().zip(c) {
                        *s += v;
                    }
                }
                let inv = 1.0 / candidates.len() as f32;
                for s in &mut centroid {
                    *s *= inv;
                }
                candidates
                    .iter()
                    .map(|c| squared_distance(c, &centroid))
                    .collect()
            } else {
                candidates
                    .iter()
                    .map(|c| {
                        labeled
                            .iter()
                            .map(|l| squared_distance(c, l))
                            .fold(f32::INFINITY, f32::min)
                    })
                    .collect()
            };
            let mut selected = Vec::new();
            for _ in 0..budget.min(candidates.len()) {
                let mut best = usize::MAX;
                let mut best_dist = f32::NEG_INFINITY;
                for (i, &d) in min_dist.iter().enumerate() {
                    if selected.contains(&i) {
                        continue;
                    }
                    if d > best_dist {
                        best_dist = d;
                        best = i;
                    }
                }
                if best == usize::MAX {
                    break;
                }
                selected.push(best);
                for (i, d) in min_dist.iter_mut().enumerate() {
                    let nd = squared_distance(&candidates[i], &candidates[best]);
                    if nd < *d {
                        *d = nd;
                    }
                }
            }
            selected
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            #[test]
            fn selections_are_valid_indices_and_unique(
                points in proptest::collection::vec(
                    proptest::collection::vec(-10.0f32..10.0, 3), 1..40),
                budget in 0usize..10,
            ) {
                let picks = coreset_selection(&FeatureBlock::from_nested(&points), &FeatureBlock::empty(3), budget);
                prop_assert!(picks.len() <= budget.min(points.len()));
                let unique: std::collections::HashSet<_> = picks.iter().collect();
                prop_assert_eq!(unique.len(), picks.len());
                prop_assert!(picks.iter().all(|&i| i < points.len()));
            }

            #[test]
            fn blocked_kernels_select_exactly_like_the_naive_reference(
                grid_points in proptest::collection::vec(
                    proptest::collection::vec(-32i32..33, 5), 1..64),
                grid_labeled in proptest::collection::vec(
                    proptest::collection::vec(-32i32..33, 5), 1..6),
                budget in 1usize..12,
            ) {
                // Coordinates are quarter-integer grid points, so every
                // squared distance is exactly representable in f32 along
                // *both* computation paths (the naive subtract-square loop
                // and the blocked ‖a‖²+‖b‖²−2a·b identity) — the equality
                // below tests the selection algorithm, not accumulation
                // rounding. `labeled` is non-empty so the (f64-accumulated)
                // centroid seeding path, which is deliberately not
                // bit-comparable to the f32 reference, stays out of scope;
                // it has its own deterministic unit tests above.
                let to_f32 = |g: &Vec<Vec<i32>>| -> Vec<Vec<f32>> {
                    g.iter()
                        .map(|row| row.iter().map(|&v| v as f32 * 0.25).collect())
                        .collect()
                };
                let points = to_f32(&grid_points);
                let labeled = to_f32(&grid_labeled);
                let fast = coreset_selection(
                    &FeatureBlock::from_nested(&points),
                    &FeatureBlock::from_nested(&labeled),
                    budget,
                );
                let slow = naive_coreset(&points, &labeled, budget);
                prop_assert_eq!(fast, slow);
            }
        }
    }
}
