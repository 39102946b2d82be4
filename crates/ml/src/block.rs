//! Contiguous feature blocks and the vectorized distance kernels built on
//! them.
//!
//! The acquisition functions (`ve-al`) and batch inference (`vocalexplore`'s
//! Model Manager) scan tens of thousands of feature vectors per `Explore`
//! call. Storing those vectors as `Vec<Vec<f32>>` scatters every row behind a
//! pointer, defeats hardware prefetching, and forces scalar per-pair distance
//! loops. [`FeatureBlock`] fixes the layout: one row-major [`Matrix`] holding
//! all rows plus cached squared norms, so that
//!
//! * a squared Euclidean distance becomes
//!   `‖a − b‖² = ‖a‖² + ‖b‖² − 2·a·b` — one fused dot product over
//!   contiguous memory instead of a subtract-square-accumulate loop,
//! * one-vs-all distance scans ([`FeatureBlock::sq_distances_to`]) stream the
//!   block once and parallelize across `ve-sched`'s data-parallel helper, and
//! * all-pairs scans ([`FeatureBlock::pairwise_sq_distances`]) proceed in
//!   row blocks that stay cache-resident.
//!
//! # Determinism contract
//!
//! Every kernel here produces bit-identical output regardless of the
//! configured thread count (`ve_sched::parallel::set_parallelism`): each
//! chunk writes a disjoint output region, and no per-element result depends
//! on where a chunk ends. Selection tie-breaks in `ve-al` (always "first
//! index wins") are therefore stable across machines and configurations.
//!
//! Each kernel states its work to `ve-sched` — rows times multiply-adds
//! per row — and `ve_sched::parallel` alone decides whether it runs inline
//! or fans out. That moves no output either.

use crate::tensor::Matrix;
use ve_sched::parallel::par_chunks_mut;

/// A contiguous, row-major block of feature vectors with cached squared
/// norms.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureBlock {
    data: Matrix,
    sq_norms: Vec<f32>,
}

impl FeatureBlock {
    /// Wraps a row-major matrix, caching per-row squared norms.
    pub fn from_matrix(data: Matrix) -> Self {
        let sq_norms = (0..data.rows()).map(|r| sq_norm(data.row(r))).collect();
        Self { data, sq_norms }
    }

    /// Builds a block from row slices.
    ///
    /// # Panics
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        Self::from_matrix(Matrix::from_rows(rows))
    }

    /// Builds a block from nested vectors (the legacy `&[Vec<f32>]`
    /// representation).
    ///
    /// # Panics
    /// Panics if the rows have differing lengths.
    pub fn from_nested(rows: &[Vec<f32>]) -> Self {
        let refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
        Self::from_rows(&refs)
    }

    /// Builds a block from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * dim`.
    pub fn from_vec(rows: usize, dim: usize, data: Vec<f32>) -> Self {
        Self::from_matrix(Matrix::from_vec(rows, dim, data))
    }

    /// An empty block of the given dimensionality.
    pub fn empty(dim: usize) -> Self {
        Self {
            data: Matrix::zeros(0, dim),
            sq_norms: Vec::new(),
        }
    }

    /// Number of rows (feature vectors).
    pub fn rows(&self) -> usize {
        self.data.rows()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.data.cols()
    }

    /// Whether the block holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows() == 0
    }

    /// Zero-copy view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        self.data.row(r)
    }

    /// Cached `‖row r‖²`.
    pub fn sq_norm(&self, r: usize) -> f32 {
        self.sq_norms[r]
    }

    /// The underlying matrix.
    pub fn matrix(&self) -> &Matrix {
        &self.data
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        self.data.as_slice()
    }

    /// Iterates over row views.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.rows()).map(move |r| self.row(r))
    }

    /// Appends one row to the block, updating the cached norms. This is the
    /// ingest path of persistent candidate indexes (the ALM's
    /// `AcquisitionIndex`), which grow a long-lived block incrementally
    /// instead of rebuilding it from scratch every call.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from the block's dimensionality.
    pub fn push_row(&mut self, row: &[f32]) {
        self.data.push_row(row);
        self.sq_norms.push(sq_norm(row));
    }

    /// Reserves capacity for `additional` more rows.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.data.reserve_rows(additional);
        self.sq_norms.reserve(additional);
    }

    /// Copies the selected rows into a new block (row `k` of the result is
    /// `self.row(idx[k])`).
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn gather(&self, idx: &[usize]) -> Self {
        let dim = self.dim();
        let mut data = Vec::with_capacity(idx.len() * dim);
        let mut sq_norms = Vec::with_capacity(idx.len());
        for &i in idx {
            data.extend_from_slice(self.row(i));
            sq_norms.push(self.sq_norms[i]);
        }
        Self {
            data: Matrix::from_vec(idx.len(), dim, data),
            sq_norms,
        }
    }

    /// The per-dimension mean of all rows (the centroid), or `None` for an
    /// empty block.
    pub fn centroid(&self) -> Option<Vec<f32>> {
        if self.is_empty() {
            return None;
        }
        let dim = self.dim();
        let mut sums = vec![0.0f64; dim];
        for row in self.iter_rows() {
            for (s, &v) in sums.iter_mut().zip(row) {
                *s += v as f64;
            }
        }
        let inv = 1.0 / self.rows() as f64;
        Some(sums.iter().map(|&s| (s * inv) as f32).collect())
    }

    /// Writes `‖row_i − q‖²` for every row into `out`, using the cached norm
    /// identity. Results are clamped at zero (the identity can go slightly
    /// negative in floating point). Parallel across rows for large blocks.
    ///
    /// # Panics
    /// Panics if `q.len() != dim` or `out.len() != rows`.
    pub fn sq_distances_to(&self, q: &[f32], out: &mut [f32]) {
        assert_eq!(q.len(), self.dim(), "query dimension mismatch");
        assert_eq!(out.len(), self.rows(), "output length mismatch");
        let q_sq = sq_norm(q);
        let work = out.len().saturating_mul(self.dim());
        par_chunks_mut(out, work, |start, piece| {
            for (k, d) in piece.iter_mut().enumerate() {
                let r = start + k;
                let dot_rq = dot_fast(self.row(r), q);
                *d = (self.sq_norms[r] + q_sq - 2.0 * dot_rq).max(0.0);
            }
        });
    }

    /// Lowers `min_dist[i]` to `‖row_i − q‖²` wherever the new distance is
    /// smaller — the coreset coverage update — in one parallel pass.
    ///
    /// # Panics
    /// Panics if `q.len() != dim` or `min_dist.len() != rows`.
    pub fn min_sq_distances_update(&self, q: &[f32], min_dist: &mut [f32]) {
        assert_eq!(q.len(), self.dim(), "query dimension mismatch");
        assert_eq!(min_dist.len(), self.rows(), "output length mismatch");
        let q_sq = sq_norm(q);
        let work = min_dist.len().saturating_mul(self.dim());
        par_chunks_mut(min_dist, work, |start, piece| {
            for (k, d) in piece.iter_mut().enumerate() {
                let r = start + k;
                let nd = (self.sq_norms[r] + q_sq - 2.0 * dot_fast(self.row(r), q)).max(0.0);
                if nd < *d {
                    *d = nd;
                }
            }
        });
    }

    /// For every row, the minimum squared distance to any row of `others`
    /// (`f32::INFINITY` when `others` is empty). One blocked, parallel scan.
    ///
    /// # Panics
    /// Panics if the dimensionalities differ.
    pub fn min_sq_distances_to_block(&self, others: &FeatureBlock) -> Vec<f32> {
        assert_eq!(self.dim(), others.dim(), "dimension mismatch");
        let mut out = vec![f32::INFINITY; self.rows()];
        if others.is_empty() {
            return out;
        }
        let work = self.rows().saturating_mul(others.rows() * self.dim());
        par_chunks_mut(&mut out, work, |start, piece| {
            for (k, d) in piece.iter_mut().enumerate() {
                let r = start + k;
                let row = self.row(r);
                let r_sq = self.sq_norms[r];
                let mut best = f32::INFINITY;
                for o in 0..others.rows() {
                    let nd =
                        (r_sq + others.sq_norms[o] - 2.0 * dot_fast(row, others.row(o))).max(0.0);
                    if nd < best {
                        best = nd;
                    }
                }
                *d = best;
            }
        });
        out
    }

    /// The full `self.rows() × other.rows()` matrix of squared distances,
    /// computed block-by-block with the norm identity. Parallel across rows
    /// of `self`.
    ///
    /// # Panics
    /// Panics if the dimensionalities differ.
    pub fn pairwise_sq_distances(&self, other: &FeatureBlock) -> Matrix {
        assert_eq!(self.dim(), other.dim(), "dimension mismatch");
        let (n, m) = (self.rows(), other.rows());
        // One preallocated flat buffer, filled in place by disjoint chunks —
        // no per-row allocations and no second copy into the Matrix.
        let mut data = vec![0.0f32; n * m];
        if m > 0 {
            let work = data.len().saturating_mul(self.dim());
            par_chunks_mut(&mut data, work, |start, piece| {
                for (k, d) in piece.iter_mut().enumerate() {
                    let idx = start + k;
                    let (i, j) = (idx / m, idx % m);
                    *d = (self.sq_norms[i] + other.sq_norms[j]
                        - 2.0 * dot_fast(self.row(i), other.row(j)))
                    .max(0.0);
                }
            });
        }
        Matrix::from_vec(n, m, data)
    }

    /// For every row, the index of the nearest row of `centroids` (ties:
    /// first index wins) — the k-means assignment step, parallel across rows.
    ///
    /// # Panics
    /// Panics if the dimensionalities differ or `centroids` is empty.
    pub fn nearest_rows(&self, centroids: &FeatureBlock) -> Vec<usize> {
        assert_eq!(self.dim(), centroids.dim(), "dimension mismatch");
        assert!(!centroids.is_empty(), "need at least one centroid");
        let mut out = vec![0usize; self.rows()];
        let work = self.rows().saturating_mul(centroids.rows() * self.dim());
        par_chunks_mut(&mut out, work, |start, piece| {
            for (k, best) in piece.iter_mut().enumerate() {
                let r = start + k;
                let row = self.row(r);
                let r_sq = self.sq_norms[r];
                let mut best_d = f32::INFINITY;
                for c in 0..centroids.rows() {
                    let d = (r_sq + centroids.sq_norms[c] - 2.0 * dot_fast(row, centroids.row(c)))
                        .max(0.0);
                    if d < best_d {
                        best_d = d;
                        *best = c;
                    }
                }
            }
        });
        out
    }
}

/// Incremental builder used when rows arrive one at a time (candidate
/// assembly in the ALM).
#[derive(Debug, Clone)]
pub struct FeatureBlockBuilder {
    dim: Option<usize>,
    data: Vec<f32>,
    rows: usize,
}

impl FeatureBlockBuilder {
    /// An empty builder; the dimensionality is fixed by the first row pushed.
    pub fn new() -> Self {
        Self {
            dim: None,
            data: Vec::new(),
            rows: 0,
        }
    }

    /// A builder expecting `rows` rows of `dim` values (pre-allocates).
    pub fn with_capacity(rows: usize, dim: usize) -> Self {
        Self {
            dim: Some(dim),
            data: Vec::with_capacity(rows * dim),
            rows: 0,
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if `row.len()` differs from previously pushed rows.
    pub fn push_row(&mut self, row: &[f32]) {
        match self.dim {
            None => self.dim = Some(row.len()),
            Some(d) => assert_eq!(row.len(), d, "ragged rows"),
        }
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether no rows have been pushed.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Finalizes into a block (dimension 0 if no rows were pushed).
    pub fn build(self) -> FeatureBlock {
        let dim = self.dim.unwrap_or(0);
        FeatureBlock::from_vec(self.rows, dim, self.data)
    }
}

impl Default for FeatureBlockBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// First-index-wins argmax over `values` (`None` when empty or when every
/// value is `-∞`): an ascending scan with strict `>` replacement.
///
/// This is the per-step selection scan of the greedy acquisition kernels
/// (coreset's farthest-point step, k-means++ seeding). One compare per value
/// stays far below `ve_sched`'s fan-out threshold for any pool this system
/// builds, so it always runs on the calling thread.
pub fn max_index(values: &[f32]) -> Option<usize> {
    let mut best = None;
    let mut best_v = f32::NEG_INFINITY;
    for (i, &v) in values.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = Some(i);
        }
    }
    best
}

/// [`max_index`] restricted to the `eligible` positions (ascending unique
/// indices into `values`), skipping positions where `excluded` is set.
/// Returns the winning *value index*, honoring first-eligible-wins ties.
///
/// # Panics
/// Panics if an eligible index is out of range of `values` or `excluded`.
pub fn max_index_filtered(values: &[f32], eligible: &[usize], excluded: &[bool]) -> Option<usize> {
    let mut best = None;
    let mut best_v = f32::NEG_INFINITY;
    let mut consider = |i: usize| {
        if !excluded[i] && values[i] > best_v {
            best_v = values[i];
            best = Some(i);
        }
    };
    if eligible.len() == values.len() {
        // `eligible` holds ascending unique indices into `values`, so a full
        // count means it is exactly 0..n: skip the index indirection (the
        // common case for from-scratch callers like `coreset_selection`).
        (0..values.len()).for_each(&mut consider);
    } else {
        eligible.iter().for_each(|&i| consider(i));
    }
    best
}

/// Chunked dot product: eight independent accumulators let the compiler keep
/// eight FMA/SIMD chains in flight instead of one serial add chain. The
/// `chunks_exact` walk is bounds-check-free, which is what lets LLVM
/// vectorize the body.
#[inline]
pub fn dot_fast(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    const LANES: usize = 8;
    let mut acc = [0.0f32; LANES];
    let a_chunks = a.chunks_exact(LANES);
    let b_chunks = b.chunks_exact(LANES);
    let mut tail = 0.0f32;
    for (x, y) in a_chunks.remainder().iter().zip(b_chunks.remainder()) {
        tail += x * y;
    }
    for (xs, ys) in a_chunks.zip(b_chunks) {
        for l in 0..LANES {
            acc[l] += xs[l] * ys[l];
        }
    }
    let mut total = tail;
    for lane in acc {
        total += lane;
    }
    total
}

/// `‖x‖²` with the same chunked accumulation as [`dot_fast`].
#[inline]
pub fn sq_norm(x: &[f32]) -> f32 {
    dot_fast(x, x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::squared_distance;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_block(n: usize, dim: usize, seed: u64) -> (Vec<Vec<f32>>, FeatureBlock) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<f32>> = (0..n)
            .map(|_| (0..dim).map(|_| rng.gen::<f32>() * 4.0 - 2.0).collect())
            .collect();
        let block = FeatureBlock::from_nested(&rows);
        (rows, block)
    }

    #[test]
    fn rows_round_trip_and_norms_cached() {
        let (rows, block) = random_block(17, 9, 1);
        assert_eq!(block.rows(), 17);
        assert_eq!(block.dim(), 9);
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(block.row(i), r.as_slice());
            let expected: f32 = r.iter().map(|v| v * v).sum();
            assert!((block.sq_norm(i) - expected).abs() <= 1e-4 * expected.abs().max(1.0));
        }
    }

    #[test]
    fn dot_fast_matches_naive() {
        let (rows, _) = random_block(2, 131, 2);
        let naive: f32 = rows[0].iter().zip(&rows[1]).map(|(x, y)| x * y).sum();
        let fast = dot_fast(&rows[0], &rows[1]);
        assert!((naive - fast).abs() <= 1e-3, "{naive} vs {fast}");
    }

    #[test]
    fn sq_distances_to_matches_scalar_loop() {
        let (rows, block) = random_block(40, 33, 3);
        let q: Vec<f32> = rows[7].iter().map(|v| v + 0.25).collect();
        let mut out = vec![0.0f32; 40];
        block.sq_distances_to(&q, &mut out);
        for (i, r) in rows.iter().enumerate() {
            let naive = squared_distance(r, &q);
            assert!(
                (out[i] - naive).abs() <= 1e-3 * naive.max(1.0),
                "row {i}: {} vs {naive}",
                out[i]
            );
        }
    }

    #[test]
    fn distance_to_self_is_zero_after_clamp() {
        let (rows, block) = random_block(8, 64, 4);
        let mut out = vec![0.0f32; 8];
        block.sq_distances_to(&rows[3], &mut out);
        assert!(
            out[3] >= 0.0 && out[3] <= 1e-3,
            "self distance ~0, got {}",
            out[3]
        );
    }

    #[test]
    fn pairwise_matches_scalar_loops() {
        let (rows, block) = random_block(12, 21, 5);
        let (other_rows, other) = random_block(9, 21, 6);
        let d = block.pairwise_sq_distances(&other);
        assert_eq!(d.rows(), 12);
        assert_eq!(d.cols(), 9);
        for (i, row) in rows.iter().enumerate() {
            for (j, other_row) in other_rows.iter().enumerate() {
                let naive = squared_distance(row, other_row);
                assert!(
                    (d.get(i, j) - naive).abs() <= 1e-3 * naive.max(1.0),
                    "({i},{j}): {} vs {naive}",
                    d.get(i, j)
                );
            }
        }
    }

    #[test]
    fn min_update_and_block_min_agree_with_naive() {
        let (rows, block) = random_block(30, 17, 7);
        let (label_rows, labels) = random_block(5, 17, 8);
        let mins = block.min_sq_distances_to_block(&labels);
        for (i, r) in rows.iter().enumerate() {
            let naive = label_rows
                .iter()
                .map(|l| squared_distance(r, l))
                .fold(f32::INFINITY, f32::min);
            assert!((mins[i] - naive).abs() <= 1e-3 * naive.max(1.0));
        }
        // min_sq_distances_update lowers entries only.
        let mut running = vec![f32::INFINITY; 30];
        for l in &label_rows {
            block.min_sq_distances_update(l, &mut running);
        }
        for (a, b) in running.iter().zip(&mins) {
            assert!((a - b).abs() <= 1e-3 * b.max(1.0));
        }
    }

    #[test]
    fn nearest_rows_ties_prefer_first_index() {
        // Two identical centroids: every point must map to centroid 0.
        let block = FeatureBlock::from_nested(&[vec![1.0, 0.0], vec![0.0, 1.0]]);
        let centroids = FeatureBlock::from_nested(&[vec![0.5, 0.5], vec![0.5, 0.5]]);
        assert_eq!(block.nearest_rows(&centroids), vec![0, 0]);
    }

    #[test]
    fn gather_and_centroid() {
        let (rows, block) = random_block(10, 4, 9);
        let sub = block.gather(&[3, 3, 7]);
        assert_eq!(sub.rows(), 3);
        assert_eq!(sub.row(0), rows[3].as_slice());
        assert_eq!(sub.row(1), rows[3].as_slice());
        assert_eq!(sub.row(2), rows[7].as_slice());
        let c = block.centroid().unwrap();
        for d in 0..4 {
            let mean: f32 = rows.iter().map(|r| r[d]).sum::<f32>() / 10.0;
            assert!((c[d] - mean).abs() < 1e-4);
        }
        assert!(FeatureBlock::empty(4).centroid().is_none());
    }

    #[test]
    fn builder_accumulates_rows() {
        let mut b = FeatureBlockBuilder::new();
        assert!(b.is_empty());
        b.push_row(&[1.0, 2.0]);
        b.push_row(&[3.0, 4.0]);
        assert_eq!(b.len(), 2);
        let block = b.build();
        assert_eq!(block.rows(), 2);
        assert_eq!(block.row(1), &[3.0, 4.0]);
        assert_eq!(FeatureBlockBuilder::new().build().rows(), 0);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        // Enough rows that the scan reaches the fan-out threshold.
        let rows = ve_sched::parallel::MIN_PARALLEL_WORK / 32;
        let (_, block) = random_block(rows, 32, 10);
        let q: Vec<f32> = (0..32).map(|i| i as f32 * 0.1).collect();
        let mut single = vec![0.0f32; rows];
        let mut multi = vec![0.0f32; rows];
        let _guard = ve_sched::parallel::test_parallelism_guard();
        ve_sched::parallel::set_parallelism(1);
        block.sq_distances_to(&q, &mut single);
        ve_sched::parallel::set_parallelism(8);
        block.sq_distances_to(&q, &mut multi);
        ve_sched::parallel::set_parallelism(0);
        assert_eq!(
            single.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
            multi.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
        );
    }

    /// Every distance kernel, run on `block` against `others` (same dim).
    fn kernel_bits(block: &FeatureBlock, others: &FeatureBlock) -> Vec<Vec<u32>> {
        let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        let q = others.row(0);
        let mut dists = vec![0.0f32; block.rows()];
        block.sq_distances_to(q, &mut dists);
        let mut mins = vec![f32::INFINITY; block.rows()];
        block.min_sq_distances_update(q, &mut mins);
        block.min_sq_distances_update(others.row(1), &mut mins);
        vec![
            bits(&dists),
            bits(&mins),
            bits(&block.min_sq_distances_to_block(others)),
            bits(block.pairwise_sq_distances(others).as_slice()),
            block
                .nearest_rows(others)
                .into_iter()
                .map(|c| c as u32)
                .collect(),
        ]
    }

    /// Scans just under and at the fan-out threshold give the same bits at
    /// one thread (always inline) and at four (inline below, fanned out at
    /// and above).
    #[test]
    fn kernels_identical_at_the_work_threshold_edges() {
        use ve_sched::parallel::MIN_PARALLEL_WORK;
        let dim = 64;
        // 32 centroids: a nearest-row scan costs 32 · 64 per row.
        let (_, others) = random_block(32, dim, 21);
        let per_row = others.rows() * dim;
        let at = MIN_PARALLEL_WORK / per_row;
        for rows in [
            at - 1,
            at,
            MIN_PARALLEL_WORK / dim - 1,
            MIN_PARALLEL_WORK / dim,
        ] {
            let (_, block) = random_block(rows, dim, rows as u64);
            let _guard = ve_sched::parallel::test_parallelism_guard();
            ve_sched::parallel::set_parallelism(1);
            let single = kernel_bits(&block, &others);
            ve_sched::parallel::set_parallelism(4);
            let multi = kernel_bits(&block, &others);
            ve_sched::parallel::set_parallelism(0);
            assert!(single == multi, "kernels differ at {rows} rows");
        }
    }

    #[test]
    fn push_row_grows_block_and_caches_norms() {
        let mut block = FeatureBlock::empty(3);
        block.reserve_rows(2);
        block.push_row(&[1.0, 2.0, 2.0]);
        block.push_row(&[0.0, 3.0, 4.0]);
        assert_eq!(block.rows(), 2);
        assert_eq!(block.row(1), &[0.0, 3.0, 4.0]);
        assert_eq!(block.sq_norm(0), 9.0);
        assert_eq!(block.sq_norm(1), 25.0);
        // Pushed rows behave exactly like built rows in the kernels.
        let rebuilt = FeatureBlock::from_nested(&[vec![1.0, 2.0, 2.0], vec![0.0, 3.0, 4.0]]);
        assert_eq!(block, rebuilt);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn push_row_rejects_wrong_dim() {
        FeatureBlock::empty(3).push_row(&[1.0]);
    }

    #[test]
    fn max_index_matches_sequential_scan() {
        let (_, block) = random_block(1, 9_001, 12);
        let values = block.row(0);
        let seq = values
            .iter()
            .enumerate()
            .fold((None, f32::NEG_INFINITY), |(best, bv), (i, &v)| {
                if v > bv {
                    (Some(i), v)
                } else {
                    (best, bv)
                }
            })
            .0;
        assert_eq!(max_index(values), seq);
        assert_eq!(max_index(&[]), None);
        assert_eq!(max_index(&[f32::NEG_INFINITY]), None);
        // Ties pick the first index.
        let tied = vec![7.0f32; 10_000];
        assert_eq!(max_index(&tied), Some(0));
    }

    #[test]
    fn argmax_filtered_respects_eligibility_and_exclusion() {
        let values = [1.0f32, 9.0, 3.0, 9.0, 2.0];
        let all: Vec<usize> = (0..5).collect();
        let mut excluded = vec![false; 5];
        assert_eq!(max_index_filtered(&values, &all, &excluded), Some(1));
        excluded[1] = true;
        assert_eq!(max_index_filtered(&values, &all, &excluded), Some(3));
        // Restricting eligibility skips the global maximum.
        assert_eq!(
            max_index_filtered(&values, &[0, 2, 4], &[false; 5]),
            Some(2)
        );
        assert_eq!(max_index_filtered(&values, &[], &excluded), None);
    }

    #[test]
    fn argmax_identical_across_thread_counts() {
        let (_, block) = random_block(1, 30_000, 13);
        let values = block.row(0);
        let eligible: Vec<usize> = (0..values.len()).step_by(3).collect();
        let excluded = vec![false; values.len()];
        let _guard = ve_sched::parallel::test_parallelism_guard();
        ve_sched::parallel::set_parallelism(1);
        let single = (
            max_index(values),
            max_index_filtered(values, &eligible, &excluded),
        );
        ve_sched::parallel::set_parallelism(8);
        let multi = (
            max_index(values),
            max_index_filtered(values, &eligible, &excluded),
        );
        ve_sched::parallel::set_parallelism(0);
        assert_eq!(single, multi);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn builder_rejects_ragged_rows() {
        let mut b = FeatureBlockBuilder::new();
        b.push_row(&[1.0]);
        b.push_row(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn distance_rejects_bad_query_dim() {
        let (_, block) = random_block(4, 8, 11);
        let mut out = vec![0.0; 4];
        block.sq_distances_to(&[1.0, 2.0], &mut out);
    }
}
