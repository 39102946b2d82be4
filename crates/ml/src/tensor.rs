//! A minimal row-major dense matrix used by the linear models.
//!
//! The Model Manager's training problems are small (a few hundred labeled
//! clips × a few hundred feature dimensions), so a straightforward dense
//! representation with cache-friendly row-major loops is all that is needed —
//! no BLAS dependency.

/// Row-major dense matrix of `f32`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a zero-filled `rows × cols` matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer does not match shape");
        Self { rows, cols, data }
    }

    /// Creates a matrix whose rows are copies of the given slices.
    ///
    /// # Panics
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            assert_eq!(row.len(), cols, "ragged rows");
            data.extend_from_slice(row);
        }
        Self {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Immutable view of row `r`.
    pub fn row(&self, r: usize) -> &[f32] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Element accessor.
    pub fn get(&self, r: usize, c: usize) -> f32 {
        self.data[r * self.cols + c]
    }

    /// Element mutator.
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        self.data[r * self.cols + c] = v;
    }

    /// Appends one row to the matrix.
    ///
    /// # Panics
    /// Panics if `row.len() != cols`.
    pub fn push_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.cols, "row length does not match columns");
        self.data.extend_from_slice(row);
        self.rows += 1;
    }

    /// Reserves capacity for `additional` more rows.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.data.reserve(additional * self.cols);
    }

    /// Flat row-major data.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Matrix–vector product `self · x`.
    ///
    /// # Panics
    /// Panics if `x.len() != cols`.
    pub fn matvec(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.cols, "dimension mismatch");
        let mut out = vec![0.0f32; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            *o = dot(self.row(r), x);
        }
        out
    }

    /// Scales every element in place.
    pub fn scale(&mut self, s: f32) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Adds `other * s` element-wise in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn axpy(&mut self, s: f32, other: &Matrix) {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += s * b;
        }
    }

    /// Squared Frobenius norm.
    pub fn frobenius_sq(&self) -> f32 {
        self.data.iter().map(|v| v * v).sum()
    }
}

/// Width of one class lane in [`LaneMatrix`].
const LANE: usize = 4;

/// One lane: four consecutive classes' values for a single feature.
pub(crate) type Lane = [f32; LANE];

/// Most lanes a kernel pass keeps in registers. Wider class counts run as
/// consecutive blocks; each class's reduction stays within one block, so
/// the split never changes a result.
const MAX_BLOCK: usize = 10;

/// Rows one sweep of [`LaneMatrix::logits_rows_into`] scores together.
pub(crate) const ROWS: usize = 4;

/// Most lanes [`LaneMatrix::logits_rows_into`] keeps per sweep: `ROWS ×
/// MAX_ROWS_BLOCK` lane accumulators plus one block of weights fit in
/// sixteen vector registers.
const MAX_ROWS_BLOCK: usize = 3;

/// Calls `$this.$kernel::<W>($args)` with `W == $width`, for any width in
/// `1..=MAX_BLOCK`.
macro_rules! with_block_width {
    ($width:expr, $this:ident.$kernel:ident($($arg:expr),*)) => {
        match $width {
            1 => $this.$kernel::<1>($($arg),*),
            2 => $this.$kernel::<2>($($arg),*),
            3 => $this.$kernel::<3>($($arg),*),
            4 => $this.$kernel::<4>($($arg),*),
            5 => $this.$kernel::<5>($($arg),*),
            6 => $this.$kernel::<6>($($arg),*),
            7 => $this.$kernel::<7>($($arg),*),
            8 => $this.$kernel::<8>($($arg),*),
            9 => $this.$kernel::<9>($($arg),*),
            _ => $this.$kernel::<MAX_BLOCK>($($arg),*),
        }
    };
}

/// Class-minor weights of a linear model while SGD trains it: `dim` rows,
/// each holding every class's weight for one feature as zero-padded
/// [`Lane`]s, so one example's logits (and its gradient update) for all
/// classes advance together in register lanes.
///
/// **Bit-identity contract.** Every per-class value is computed with the
/// same IEEE operations, in the same order, as the class-major scalar loop
/// over a [`Matrix`]: a logit adds `w[c][d] * x[d]` in ascending `d` from
/// `-0.0` (the start value of `f32: Sum`, as in [`dot`]), and each gradient
/// element adds `err * x[d]` per example in call order. Multiply and add
/// stay separate operations (no `mul_add`), and no sum is split or
/// reassociated. Padded lanes hold zero weight and must be given zero error.
#[derive(Debug)]
pub(crate) struct LaneMatrix {
    lanes: usize,
    data: Vec<Lane>,
}

impl LaneMatrix {
    /// A zero `dim × classes` matrix.
    pub(crate) fn zeros(dim: usize, classes: usize) -> Self {
        let lanes = classes.div_ceil(LANE);
        Self {
            lanes,
            data: vec![[0.0; LANE]; dim * lanes],
        }
    }

    /// Transposes class-major `weights` (`classes × dim`) in.
    pub(crate) fn from_matrix(weights: &Matrix) -> Self {
        let mut out = Self::zeros(weights.cols(), weights.rows());
        let lanes = out.lanes;
        for c in 0..weights.rows() {
            for (row, &w) in out.data.chunks_exact_mut(lanes).zip(weights.row(c)) {
                row[c / LANE][c % LANE] = w;
            }
        }
        out
    }

    /// Transposes the first `classes` classes out, class-major.
    pub(crate) fn to_matrix(&self, classes: usize) -> Matrix {
        let dim = self.data.len() / self.lanes;
        let mut out = Matrix::zeros(classes, dim);
        for c in 0..classes {
            for (w, row) in out
                .row_mut(c)
                .iter_mut()
                .zip(self.data.chunks_exact(self.lanes))
            {
                *w = row[c / LANE][c % LANE];
            }
        }
        out
    }

    /// Number of lanes per feature row.
    pub(crate) fn lanes(&self) -> usize {
        self.lanes
    }

    /// Resets every element to zero.
    pub(crate) fn clear(&mut self) {
        self.data.fill([0.0; LANE]);
    }

    /// Writes `W · x` for every class into `out` (`lanes()` long).
    pub(crate) fn logits_into(&self, x: &[f32], out: &mut [Lane]) {
        assert_eq!(out.len(), self.lanes, "logit buffer must span every lane");
        let mut l0 = 0;
        while l0 < self.lanes {
            let width = (self.lanes - l0).min(MAX_BLOCK);
            with_block_width!(width, self.logits_block(x, l0, out));
            l0 += width;
        }
    }

    fn logits_block<const W: usize>(&self, x: &[f32], l0: usize, out: &mut [Lane]) {
        let mut acc = [[-0.0f32; LANE]; W];
        for (row, &xd) in self.data.chunks_exact(self.lanes).zip(x) {
            for (a, w) in acc.iter_mut().zip(&row[l0..l0 + W]) {
                for k in 0..LANE {
                    a[k] += w[k] * xd;
                }
            }
        }
        out[l0..l0 + W].copy_from_slice(&acc);
    }

    /// [`LaneMatrix::logits_into`] for many rows at once: `xs` holds the
    /// rows back to back (`dim` values each) and `out` receives `lanes()`
    /// lanes per row, in row order. Each sweep over the weights serves
    /// [`ROWS`] rows, so every weight lane loaded feeds several rows; every
    /// logit is bit-identical to `logits_into`'s for its row.
    pub(crate) fn logits_rows_into(&self, xs: &[f32], out: &mut [Lane]) {
        let dim = self.data.len() / self.lanes;
        let n = out.len() / self.lanes;
        assert_eq!(
            out.len(),
            n * self.lanes,
            "logit buffer must span every lane"
        );
        assert_eq!(xs.len(), n * dim, "one feature row per logit row");
        for r0 in (0..n).step_by(ROWS) {
            let r1 = (r0 + ROWS).min(n);
            let xs = &xs[r0 * dim..r1 * dim];
            let out = &mut out[r0 * self.lanes..r1 * self.lanes];
            match r1 - r0 {
                1 => self.logits_rows_group::<1>(xs, out),
                2 => self.logits_rows_group::<2>(xs, out),
                3 => self.logits_rows_group::<3>(xs, out),
                _ => self.logits_rows_group::<ROWS>(xs, out),
            }
        }
    }

    fn logits_rows_group<const R: usize>(&self, xs: &[f32], out: &mut [Lane]) {
        let mut l0 = 0;
        while l0 < self.lanes {
            let width = (self.lanes - l0).min(MAX_ROWS_BLOCK);
            match width {
                1 => self.logits_rows_block::<R, 1>(xs, l0, out),
                2 => self.logits_rows_block::<R, 2>(xs, l0, out),
                _ => self.logits_rows_block::<R, MAX_ROWS_BLOCK>(xs, l0, out),
            }
            l0 += width;
        }
    }

    /// Lanes `l0..l0 + W` of `R` rows' logits. Per logit the operations are
    /// `logits_block`'s: `-0.0`, then `+= w[c][d] * x[d]` in ascending `d`.
    fn logits_rows_block<const R: usize, const W: usize>(
        &self,
        xs: &[f32],
        l0: usize,
        out: &mut [Lane],
    ) {
        let dim = xs.len() / R;
        let x: [&[f32]; R] = std::array::from_fn(|r| &xs[r * dim..][..dim]);
        let mut acc = [[[-0.0f32; LANE]; W]; R];
        for d in 0..dim {
            let w = &self.data[d * self.lanes + l0..][..W];
            for (acc, x) in acc.iter_mut().zip(&x) {
                let xd = x[d];
                for (a, w) in acc.iter_mut().zip(w) {
                    for k in 0..LANE {
                        a[k] += w[k] * xd;
                    }
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            out[r * self.lanes + l0..][..W].copy_from_slice(acc);
        }
    }

    /// Adds the outer product `err ⊗ x` (`err` is `lanes()` long).
    pub(crate) fn add_outer(&mut self, err: &[Lane], x: &[f32]) {
        assert_eq!(err.len(), self.lanes, "error buffer must span every lane");
        let mut l0 = 0;
        while l0 < self.lanes {
            let width = (self.lanes - l0).min(MAX_BLOCK);
            with_block_width!(width, self.add_outer_block(err, x, l0));
            l0 += width;
        }
    }

    fn add_outer_block<const W: usize>(&mut self, err: &[Lane], x: &[f32], l0: usize) {
        let mut block = [[0.0f32; LANE]; W];
        block.copy_from_slice(&err[l0..l0 + W]);
        for (row, &xd) in self.data.chunks_exact_mut(self.lanes).zip(x) {
            for (g, e) in row[l0..l0 + W].iter_mut().zip(&block) {
                for k in 0..LANE {
                    g[k] += e[k] * xd;
                }
            }
        }
    }

    /// Scales every element in place, as [`Matrix::scale`].
    pub(crate) fn scale(&mut self, s: f32) {
        for lane in &mut self.data {
            for v in lane {
                *v *= s;
            }
        }
    }

    /// Adds `other * s` element-wise in place, as [`Matrix::axpy`].
    pub(crate) fn axpy(&mut self, s: f32, other: &LaneMatrix) {
        assert_eq!(self.data.len(), other.data.len(), "shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            for k in 0..LANE {
                a[k] += s * b[k];
            }
        }
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics (in debug builds) if the slices differ in length.
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Squared Euclidean distance between two vectors.
pub fn squared_distance(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Euclidean distance between two vectors.
pub fn distance(a: &[f32], b: &[f32]) -> f32 {
    squared_distance(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_content() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert!(m.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_round_trip() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        assert_eq!(m.get(1, 0), 3.0);
    }

    #[test]
    fn matvec_identity_like() {
        let m = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]);
        assert_eq!(m.matvec(&[2.0, 3.0]), vec![2.0, 3.0, 5.0]);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::from_rows(&[&[10.0, 20.0]]);
        a.axpy(0.5, &b);
        assert_eq!(a.row(0), &[6.0, 12.0]);
        a.scale(2.0);
        assert_eq!(a.row(0), &[12.0, 24.0]);
    }

    #[test]
    fn frobenius_norm() {
        let m = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(m.frobenius_sq(), 25.0);
    }

    #[test]
    fn distances() {
        assert_eq!(squared_distance(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(distance(&[0.0, 0.0], &[3.0, 4.0]), 5.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    /// Class counts past `MAX_BLOCK` lanes run as several blocks; every
    /// count up to 50 (13 lanes, two blocks) must match the class-major
    /// kernels bit for bit.
    #[test]
    fn lane_kernels_match_class_major_kernels_across_blocks() {
        let dim = 5;
        let x: Vec<f32> = (0..dim).map(|d| d as f32 * 0.37 - 0.9).collect();
        for classes in 1..=50 {
            let w: Vec<f32> = (0..classes * dim)
                .map(|i| (i as f32 * 0.61).sin())
                .collect();
            let weights = Matrix::from_vec(classes, dim, w);
            let lanes = LaneMatrix::from_matrix(&weights);
            assert_eq!(lanes.to_matrix(classes), weights);

            let mut logits = vec![[0.0; LANE]; lanes.lanes()];
            lanes.logits_into(&x, &mut logits);
            let logits = &logits.as_flattened()[..classes];
            let expected = weights.matvec(&x);
            assert_eq!(
                logits.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expected.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "{classes} classes"
            );

            let mut err = vec![[0.0; LANE]; lanes.lanes()];
            err.as_flattened_mut()[..classes].copy_from_slice(&expected);
            let mut grad = LaneMatrix::zeros(dim, classes);
            grad.add_outer(&err, &x);
            grad.add_outer(&err, &x);
            let mut reference = Matrix::zeros(classes, dim);
            for _ in 0..2 {
                for (c, &e) in expected.iter().enumerate() {
                    for (g, &xv) in reference.row_mut(c).iter_mut().zip(&x) {
                        *g += e * xv;
                    }
                }
            }
            assert_eq!(grad.to_matrix(classes), reference, "{classes} classes");
        }
    }

    /// The batched logits pass must equal `logits_into` row by row, bit
    /// for bit, for every row-group remainder and every lane-block split up
    /// to 13 lanes; an all-`-0.0` row keeps the `-0.0` start value.
    #[test]
    fn batched_logits_match_per_row_logits() {
        let dim = 7;
        for classes in 1..=50 {
            let w: Vec<f32> = (0..classes * dim)
                .map(|i| (i as f32 * 0.43).cos())
                .collect();
            let lanes = LaneMatrix::from_matrix(&Matrix::from_vec(classes, dim, w));
            for n in 0..=9 {
                let mut xs: Vec<f32> = (0..n * dim)
                    .map(|i| (i as f32 * 0.29).sin() * 3.0)
                    .collect();
                if n > 0 {
                    xs[..dim].fill(-0.0);
                }
                let mut out = vec![[f32::NAN; LANE]; n * lanes.lanes()];
                lanes.logits_rows_into(&xs, &mut out);
                for r in 0..n {
                    let mut expected = vec![[0.0; LANE]; lanes.lanes()];
                    lanes.logits_into(&xs[r * dim..(r + 1) * dim], &mut expected);
                    let got = &out[r * lanes.lanes()..(r + 1) * lanes.lanes()];
                    assert_eq!(
                        got.as_flattened()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        expected
                            .as_flattened()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<_>>(),
                        "{classes} classes, {n} rows, row {r}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "buffer does not match shape")]
    fn from_vec_rejects_bad_shape() {
        Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn matvec_rejects_bad_dims() {
        Matrix::zeros(2, 3).matvec(&[1.0, 2.0]);
    }
}
