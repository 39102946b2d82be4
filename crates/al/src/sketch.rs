//! The cluster-sketch candidate reducer.
//!
//! When eager extraction has covered tens of thousands of candidate windows,
//! running the margin/uncertainty stages over every window at every `Explore`
//! call stops being interactive. The ALM used to bound that work by shuffling
//! the candidate list and truncating it to 2,000 windows — cheap, but blind:
//! a random truncation can drop entire regions of feature space, and it
//! consumed RNG state, coupling selections to call history.
//!
//! [`ClusterSketch`] replaces that cap with a structure-aware reduction that
//! is a *pure function of the candidate index contents*:
//!
//! 1. **Fit**: deterministic k-means ([`crate::cluster_margin::kmeans_fit`])
//!    over a fixed prefix of the index rows produces `k` centroids; the fit
//!    stops at its fixed point, at most `kmeans_iters` sweeps.
//! 2. **Assign**: every candidate row maps to its nearest centroid
//!    (first-index-wins ties). New rows appended by incremental ingest are
//!    assigned on arrival — O(Δ · k · d) per call, not O(n · k · d). A merge
//!    splice that inserts rows at or after a saturated fit prefix keeps the
//!    centroids: [`ClusterSketch::splice`] moves the kept assignments to
//!    their new positions and assigns only the inserted rows. A prefix
//!    change (rows inserted inside the fit prefix, or growth while the
//!    prefix is still short) calls for a refit, which the owner triggers by
//!    dropping the sketch.
//! 3. **Reduce**: when the unmasked candidate count exceeds the cap, pick
//!    representatives round-robin across clusters in ascending-size order
//!    (smallest clusters first, members in ascending row order), so every
//!    region keeps proportional-but-bounded representation instead of
//!    surviving by lottery. The round-robin is computed in closed form:
//!    each cluster's quota is the number of full rounds it takes part in,
//!    plus one for the first clusters in the partial last round, and one
//!    ascending pass over the rows emits each cluster's first `quota`
//!    unmasked members.
//!
//! # Determinism
//!
//! Every stage builds on the thread-count-independent kernels of
//! [`ve_ml::FeatureBlock`] and breaks ties toward the first index, so the
//! reduction is bit-identical at any parallelism setting, and identical
//! whether the sketch was grown incrementally or rebuilt from scratch over
//! the same rows.

use crate::cluster_margin::kmeans_fit;
use ve_ml::FeatureBlock;

/// Parameters of the sketch (fixed defaults documented in the ROADMAP).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterSketchConfig {
    /// Rows the k-means fit runs over: the first `min(prefix_rows, n)` rows
    /// of the candidate index in canonical order.
    pub prefix_rows: usize,
    /// Number of centroids.
    pub clusters: usize,
    /// Cap on the fit's k-means sweeps; the fit exits earlier at its fixed
    /// point, with the result the capped loop would return.
    pub kmeans_iters: usize,
}

impl Default for ClusterSketchConfig {
    fn default() -> Self {
        Self {
            prefix_rows: 1024,
            clusters: 64,
            kmeans_iters: 4,
        }
    }
}

/// A persistent clustering of a growing candidate block (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSketch {
    config: ClusterSketchConfig,
    centroids: FeatureBlock,
    /// Cluster id of every assigned row (`assignments.len()` rows assigned).
    assignments: Vec<usize>,
    /// Rows the centroids were fitted over (`min(prefix_rows, n at fit)`).
    prefix_len: usize,
    /// k-means sweeps the fit ran.
    fit_sweeps: usize,
}

impl ClusterSketch {
    /// Fits centroids over the block's prefix and assigns every row.
    ///
    /// # Panics
    /// Panics if the block is empty.
    pub fn build(block: &FeatureBlock, config: ClusterSketchConfig) -> Self {
        assert!(!block.is_empty(), "cannot sketch an empty candidate block");
        let prefix_len = config.prefix_rows.max(1).min(block.rows());
        let prefix: Vec<usize> = (0..prefix_len).collect();
        let fit = kmeans_fit(
            &block.gather(&prefix),
            config.clusters.max(1),
            config.kmeans_iters.max(1),
        );
        let mut sketch = Self {
            config,
            centroids: fit.centroids,
            assignments: Vec::with_capacity(block.rows()),
            prefix_len,
            fit_sweeps: fit.sweeps,
        };
        sketch.extend(block);
        sketch
    }

    /// The sketch parameters.
    pub fn config(&self) -> &ClusterSketchConfig {
        &self.config
    }

    /// Rows assigned so far.
    pub fn assigned_rows(&self) -> usize {
        self.assignments.len()
    }

    /// Rows the centroids were fitted over.
    pub fn prefix_len(&self) -> usize {
        self.prefix_len
    }

    /// k-means sweeps the fit ran (at most `kmeans_iters`).
    pub fn fit_sweeps(&self) -> usize {
        self.fit_sweeps
    }

    /// Number of fitted centroids.
    pub fn clusters(&self) -> usize {
        self.centroids.rows().max(1)
    }

    /// Assigns the rows appended to `block` since the last `build`/`extend`.
    /// Per-row assignments are pure functions of (row, centroids), so
    /// extending incrementally or rebuilding over the same rows yields
    /// identical assignments.
    ///
    /// # Panics
    /// Panics if `block` has fewer rows than are already assigned (the index
    /// only ever grows between refits).
    pub fn extend(&mut self, block: &FeatureBlock) {
        let assigned = self.assignments.len();
        assert!(
            block.rows() >= assigned,
            "candidate block shrank under the sketch"
        );
        if block.rows() == assigned {
            return;
        }
        if self.centroids.is_empty() || block.dim() == 0 {
            // Degenerate zero-dimensional features: every distance ties at 0,
            // first centroid wins.
            self.assignments.resize(block.rows(), 0);
            return;
        }
        let fresh: Vec<usize> = (assigned..block.rows()).collect();
        self.assignments
            .extend(block.gather(&fresh).nearest_rows(&self.centroids));
    }

    /// Carries the sketch across a merge splice of its block. `old_row[i]` is
    /// the pre-splice position of `block`'s row `i`, `None` for a row the
    /// splice inserted. Rows with an assignment keep it; inserted rows, and
    /// old rows appended since the last `build`/`extend` (not yet assigned),
    /// are assigned against the current centroids — O(Δ · k · d).
    ///
    /// The caller keeps the sketch only when the splice left the fit prefix
    /// in place (see module docs); the centroids are then the ones a fresh
    /// [`ClusterSketch::build`] over `block` would fit, and since every
    /// assignment is a pure function of (row, centroids), the result equals
    /// that fresh build.
    ///
    /// # Panics
    /// Panics if `old_row.len()` differs from `block.rows()`.
    pub fn splice(&mut self, block: &FeatureBlock, old_row: &[Option<usize>]) {
        assert_eq!(old_row.len(), block.rows(), "one old position per row");
        let kept: Vec<Option<usize>> = old_row
            .iter()
            .map(|old| old.and_then(|o| self.assignments.get(o).copied()))
            .collect();
        let fresh: Vec<usize> = (0..block.rows()).filter(|&r| kept[r].is_none()).collect();
        let mut fresh_assignments = if fresh.is_empty() {
            Vec::new()
        } else if self.centroids.is_empty() || block.dim() == 0 {
            // Degenerate zero-dimensional features (see `extend`).
            vec![0; fresh.len()]
        } else {
            block.gather(&fresh).nearest_rows(&self.centroids)
        }
        .into_iter();
        self.assignments = kept
            .into_iter()
            .map(|k| k.unwrap_or_else(|| fresh_assignments.next().expect("one per fresh row")))
            .collect();
    }

    /// Reduces the unmasked rows to at most `cap` representatives, returned
    /// in ascending row order: clusters are visited round-robin in
    /// ascending-(size, id) order and each contributes its unmasked members
    /// in ascending row order, so small/rare regions are fully kept while
    /// dense regions are subsampled.
    ///
    /// The round-robin is not simulated. Every cluster takes part in the
    /// first `levels` rounds (fewer if it runs out of members first), and
    /// the partial round after them gives one more member to the first
    /// clusters, in visiting order, that still have one. That fixes each
    /// cluster's quota, and since members go in ascending row order, one
    /// ascending pass emits the selection already sorted.
    ///
    /// # Panics
    /// Panics if `masked.len()` differs from the assigned row count.
    pub fn reduce(&self, masked: &[bool], cap: usize) -> Vec<usize> {
        assert_eq!(
            masked.len(),
            self.assignments.len(),
            "mask length must match assigned rows"
        );
        let mut sizes = vec![0usize; self.clusters()];
        for (&cluster, &m) in self.assignments.iter().zip(masked) {
            if !m {
                sizes[cluster] += 1;
            }
        }
        // Visiting order: ascending (size, id) over non-empty clusters.
        let mut order: Vec<usize> = (0..sizes.len()).filter(|&c| sizes[c] > 0).collect();
        order.sort_by_key(|&c| sizes[c]);
        let take = cap.min(sizes.iter().sum::<usize>());

        // Complete rounds while the budget covers them, then the partial one.
        let mut quota = vec![0usize; sizes.len()];
        let (mut levels, mut left) = (0usize, take);
        for (i, &c) in order.iter().enumerate() {
            let active = order.len() - i;
            let round_cost = (sizes[c] - levels) * active;
            if round_cost > left {
                levels += left / active;
                left %= active;
                break;
            }
            levels = sizes[c];
            left -= round_cost;
        }
        for &c in &order {
            quota[c] = sizes[c].min(levels);
            if sizes[c] > levels && left > 0 {
                quota[c] += 1;
                left -= 1;
            }
        }

        let mut selected = Vec::with_capacity(take);
        for (row, (&cluster, &m)) in self.assignments.iter().zip(masked).enumerate() {
            if !m && quota[cluster] > 0 {
                quota[cluster] -= 1;
                selected.push(row);
            }
        }
        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(per_blob: usize) -> FeatureBlock {
        let mut rows = Vec::new();
        for (cx, cy) in [(0.0f32, 0.0f32), (20.0, 0.0), (0.0, 20.0)] {
            for i in 0..per_blob {
                rows.push(vec![cx + (i % 7) as f32 * 0.05, cy - (i % 5) as f32 * 0.05]);
            }
        }
        FeatureBlock::from_nested(&rows)
    }

    fn cfg(prefix: usize, k: usize) -> ClusterSketchConfig {
        ClusterSketchConfig {
            prefix_rows: prefix,
            clusters: k,
            kmeans_iters: 4,
        }
    }

    #[test]
    fn incremental_extend_matches_fresh_build() {
        let full = blobs(40); // 120 rows
                              // Grow a copy of the block row by row in two stages.
        let mut growing = FeatureBlock::empty(2);
        for r in 0..80 {
            growing.push_row(full.row(r));
        }
        let mut sketch = ClusterSketch::build(&growing, cfg(48, 6));
        for r in 80..full.rows() {
            growing.push_row(full.row(r));
        }
        sketch.extend(&growing);
        let fresh = ClusterSketch::build(&full, cfg(48, 6));
        assert_eq!(sketch.assignments, fresh.assignments);
        assert_eq!(sketch.prefix_len, fresh.prefix_len);
        let masked = vec![false; full.rows()];
        assert_eq!(sketch.reduce(&masked, 30), fresh.reduce(&masked, 30));
    }

    #[test]
    fn splice_matches_fresh_build() {
        // Old block: blobs with every third row past the prefix held back;
        // the splice inserts the held-back rows at their canonical places.
        let full = blobs(40); // 120 rows
        let prefix = 48;
        let held_back = |r: usize| r >= prefix && r.is_multiple_of(3);
        let old_rows: Vec<usize> = (0..full.rows()).filter(|&r| !held_back(r)).collect();
        let old_block = full.gather(&old_rows);
        // Assign only part of the old block: the rows past 70 stand for a
        // tail append the sketch has not been extended over yet.
        let mut sketch = ClusterSketch::build(
            &old_block.gather(&(0..70).collect::<Vec<_>>()),
            cfg(prefix, 6),
        );
        assert_eq!(sketch.assigned_rows(), 70);
        let old_row: Vec<Option<usize>> = (0..full.rows())
            .map(|r| old_rows.iter().position(|&o| o == r))
            .collect();
        sketch.splice(&full, &old_row);
        let fresh = ClusterSketch::build(&full, cfg(prefix, 6));
        assert_eq!(sketch, fresh);
        let masked: Vec<bool> = (0..full.rows()).map(|r| r % 4 == 1).collect();
        assert_eq!(sketch.reduce(&masked, 30), fresh.reduce(&masked, 30));
    }

    #[test]
    fn reduce_spans_all_blobs_and_respects_cap() {
        let block = blobs(50);
        // Prefix spans all three blobs so every region owns a centroid.
        let sketch = ClusterSketch::build(&block, cfg(150, 6));
        let masked = vec![false; block.rows()];
        let reduced = sketch.reduce(&masked, 12);
        assert_eq!(reduced.len(), 12);
        assert!(reduced.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
        let blobs_hit: std::collections::HashSet<usize> = reduced.iter().map(|&r| r / 50).collect();
        assert_eq!(blobs_hit.len(), 3, "every blob keeps representation");
    }

    #[test]
    fn reduce_skips_masked_rows_and_handles_small_pools() {
        let block = blobs(4);
        let sketch = ClusterSketch::build(&block, cfg(8, 3));
        let mut masked = vec![false; block.rows()];
        for m in masked.iter_mut().take(4) {
            *m = true; // whole first blob labeled
        }
        let reduced = sketch.reduce(&masked, 100);
        assert_eq!(reduced.len(), 8, "cap above pool returns all unmasked");
        assert!(reduced.iter().all(|&r| r >= 4));
        assert!(sketch.reduce(&vec![true; block.rows()], 5).is_empty());
    }

    #[test]
    fn rare_clusters_survive_reduction() {
        // One singleton far away plus a dense blob: ascending-size
        // round-robin must keep the singleton in any non-trivial cap.
        let mut rows = vec![vec![100.0f32, 100.0]];
        for i in 0..200 {
            rows.push(vec![(i % 14) as f32 * 0.01, 0.0]);
        }
        let block = FeatureBlock::from_nested(&rows);
        let sketch = ClusterSketch::build(&block, cfg(128, 4));
        let reduced = sketch.reduce(&vec![false; block.rows()], 10);
        assert!(
            reduced.contains(&0),
            "the outlier cluster must survive: {reduced:?}"
        );
    }

    #[test]
    fn identical_across_thread_counts() {
        // 36,000 rows: assigning the rows past the prefix to 16 centroids
        // of 2 dims reaches the fan-out threshold.
        let block = blobs(12_000);
        let masked: Vec<bool> = (0..block.rows()).map(|r| r % 11 == 0).collect();
        let _guard = ve_sched::parallel::test_parallelism_guard();
        ve_sched::parallel::set_parallelism(1);
        let single = ClusterSketch::build(&block, cfg(256, 16));
        let single_reduced = single.reduce(&masked, 64);
        ve_sched::parallel::set_parallelism(8);
        let multi = ClusterSketch::build(&block, cfg(256, 16));
        let multi_reduced = multi.reduce(&masked, 64);
        ve_sched::parallel::set_parallelism(0);
        assert_eq!(single.assignments, multi.assignments);
        assert_eq!(single_reduced, multi_reduced);
    }

    /// The round-robin simulated over per-cluster member lists, then
    /// sorted: the oracle [`ClusterSketch::reduce`] must match.
    fn round_robin_reduce(
        assignments: &[usize],
        clusters: usize,
        masked: &[bool],
        cap: usize,
    ) -> Vec<usize> {
        let mut clusters: Vec<Vec<usize>> = vec![Vec::new(); clusters];
        for (row, &cluster) in assignments.iter().enumerate() {
            if !masked[row] {
                clusters[cluster].push(row);
            }
        }
        clusters.retain(|c| !c.is_empty());
        clusters.sort_by_key(|c| c.len());
        let total: usize = clusters.iter().map(|c| c.len()).sum::<usize>();
        let take = cap.min(total);
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
        selected.sort_unstable();
        selected
    }

    /// A sketch with the given assignments over `k` (dummy) centroids.
    fn sketch_with(assignments: Vec<usize>, k: usize) -> ClusterSketch {
        ClusterSketch {
            config: cfg(1, k),
            centroids: FeatureBlock::from_vec(k, 1, (0..k).map(|c| c as f32).collect()),
            assignments,
            prefix_len: 1,
            fit_sweeps: 1,
        }
    }

    #[test]
    fn quota_reduce_matches_the_round_robin_oracle() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(53);
        let mut cases = 0;
        for case in 0..60 {
            let k = 1 + case % 9;
            let n = case * 5 % 120;
            let assignments: Vec<usize> = match case % 4 {
                // Random clusters.
                0 => (0..n).map(|_| rng.gen_range(0..k)).collect(),
                // Equal-size clusters.
                1 => (0..n).map(|r| r % k).collect(),
                // Skewed sizes, with the high ids left empty.
                2 => (0..n).map(|r| (r * r) % k / 2).collect(),
                // Contiguous runs.
                _ => (0..n).map(|r| r * k / n.max(1)).collect(),
            };
            let sketch = sketch_with(assignments.clone(), k);
            for mask_every in [0usize, 2, 3, 7] {
                let masked: Vec<bool> = (0..n)
                    .map(|r| mask_every > 0 && (r + case) % mask_every == 0)
                    .collect();
                for cap in [0, 1, 2, k, k + 1, 2 * k + 1, n / 3, n / 2, n, n + 5] {
                    assert_eq!(
                        sketch.reduce(&masked, cap),
                        round_robin_reduce(&assignments, k, &masked, cap),
                        "case {case} mask {mask_every} cap {cap}"
                    );
                    cases += 1;
                }
            }
        }
        assert!(cases > 0);
        // Fitted sketches too: real assignments over real clusters.
        let block = blobs(30);
        let sketch = ClusterSketch::build(&block, cfg(60, 7));
        let masked: Vec<bool> = (0..block.rows()).map(|r| r % 5 == 2).collect();
        for cap in 0..=block.rows() {
            assert_eq!(
                sketch.reduce(&masked, cap),
                round_robin_reduce(&sketch.assignments, sketch.clusters(), &masked, cap),
                "fitted cap {cap}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "empty candidate block")]
    fn rejects_empty_block() {
        ClusterSketch::build(&FeatureBlock::empty(2), ClusterSketchConfig::default());
    }
}
