//! Feature standardization.
//!
//! Linear probes on pretrained embeddings are sensitive to per-dimension
//! scale. The Model Manager standardizes features (zero mean, unit variance
//! per dimension, computed on the training split only) before fitting, which
//! also keeps the SGD learning-rate defaults stable across the very different
//! embedding geometries produced by different feature extractors.

/// Per-dimension standardizer (z-score).
#[derive(Debug, Clone, PartialEq)]
pub struct StandardScaler {
    mean: Vec<f32>,
    std: Vec<f32>,
}

impl StandardScaler {
    /// Fits the scaler on the given rows.
    ///
    /// Dimensions with zero variance are left unscaled (std treated as 1) so
    /// constant features do not blow up to NaN.
    ///
    /// # Panics
    /// Panics if `rows` is empty or ragged.
    pub fn fit(rows: &[Vec<f32>]) -> Self {
        assert!(!rows.is_empty(), "cannot fit scaler on empty data");
        let dim = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == dim), "ragged rows");
        let n = rows.len() as f64;
        let mut mean = vec![0.0f64; dim];
        for row in rows {
            for (m, &v) in mean.iter_mut().zip(row) {
                *m += v as f64;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var = vec![0.0f64; dim];
        for row in rows {
            for ((v, &x), m) in var.iter_mut().zip(row).zip(&mean) {
                let d = x as f64 - m;
                *v += d * d;
            }
        }
        let std: Vec<f32> = var
            .iter()
            .map(|&v| {
                let s = (v / n).sqrt();
                if s < 1e-8 {
                    1.0
                } else {
                    s as f32
                }
            })
            .collect();
        Self {
            mean: mean.iter().map(|&m| m as f32).collect(),
            std,
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }

    /// Transforms a single vector.
    pub fn transform(&self, x: &[f32]) -> Vec<f32> {
        let mut out = vec![0.0; x.len()];
        self.transform_into(x, &mut out);
        out
    }

    /// Transforms a single vector into `out`, with the same arithmetic as
    /// [`StandardScaler::transform`] and no allocation.
    ///
    /// # Panics
    /// Panics if `x` or `out` does not match the scaler's dimensionality.
    pub fn transform_into(&self, x: &[f32], out: &mut [f32]) {
        assert_eq!(x.len(), self.mean.len(), "dimension mismatch");
        assert_eq!(out.len(), self.mean.len(), "dimension mismatch");
        for (((o, &v), &m), &s) in out.iter_mut().zip(x).zip(&self.mean).zip(&self.std) {
            *o = (v - m) / s;
        }
    }

    /// Transforms a batch of vectors.
    pub fn transform_batch(&self, rows: &[Vec<f32>]) -> Vec<Vec<f32>> {
        rows.iter().map(|r| self.transform(r)).collect()
    }

    /// Convenience: fit on `rows` and return the transformed rows plus the
    /// fitted scaler.
    pub fn fit_transform(rows: &[Vec<f32>]) -> (Vec<Vec<f32>>, Self) {
        let scaler = Self::fit(rows);
        (scaler.transform_batch(rows), scaler)
    }
}

/// Running per-dimension moments (count, sum, sum of squares in `f64`) from
/// which a [`StandardScaler`] can be derived at any point.
///
/// The warm-started Model Manager feeds each iteration's Δ new training rows
/// into the accumulator instead of re-fitting the scaler on the full training
/// set, so the scaler update is O(Δ · dim) rather than O(total · dim). The
/// derived statistics use the one-pass variance formula; they agree with the
/// two-pass [`StandardScaler::fit`] up to floating-point rounding, which is
/// covered by the warm-start tolerance contract (`warm-start/v1`), not the
/// bit-identical one.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalerMoments {
    count: f64,
    sum: Vec<f64>,
    sumsq: Vec<f64>,
}

impl ScalerMoments {
    /// An empty accumulator for `dim`-dimensional rows.
    pub fn new(dim: usize) -> Self {
        Self {
            count: 0.0,
            sum: vec![0.0; dim],
            sumsq: vec![0.0; dim],
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.sum.len()
    }

    /// Rows absorbed so far.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Absorbs one row.
    ///
    /// # Panics
    /// Panics on a dimension mismatch.
    pub fn update_row(&mut self, row: &[f32]) {
        assert_eq!(row.len(), self.sum.len(), "dimension mismatch");
        self.count += 1.0;
        for ((s, q), &v) in self.sum.iter_mut().zip(&mut self.sumsq).zip(row) {
            let v = v as f64;
            *s += v;
            *q += v * v;
        }
    }

    /// Absorbs a batch of rows.
    pub fn update(&mut self, rows: &[Vec<f32>]) {
        for row in rows {
            self.update_row(row);
        }
    }

    /// Derives the scaler for the rows absorbed so far, with the same
    /// zero-variance floor as [`StandardScaler::fit`].
    ///
    /// # Panics
    /// Panics when no row has been absorbed yet.
    pub fn scaler(&self) -> StandardScaler {
        assert!(self.count > 0.0, "cannot derive a scaler from zero rows");
        let n = self.count;
        let mean: Vec<f32> = self.sum.iter().map(|&s| (s / n) as f32).collect();
        let std: Vec<f32> = self
            .sumsq
            .iter()
            .zip(&self.sum)
            .map(|(&q, &s)| {
                let m = s / n;
                let var = (q / n - m * m).max(0.0);
                let sd = var.sqrt();
                if sd < 1e-8 {
                    1.0
                } else {
                    sd as f32
                }
            })
            .collect();
        StandardScaler { mean, std }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_transform_zero_mean_unit_variance() {
        let rows = vec![
            vec![1.0, 10.0],
            vec![2.0, 20.0],
            vec![3.0, 30.0],
            vec![4.0, 40.0],
        ];
        let (out, _scaler) = StandardScaler::fit_transform(&rows);
        let n = out.len() as f32;
        for d in 0..2 {
            let mean: f32 = out.iter().map(|r| r[d]).sum::<f32>() / n;
            let var: f32 = out.iter().map(|r| (r[d] - mean).powi(2)).sum::<f32>() / n;
            assert!(mean.abs() < 1e-5, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-4, "var {var}");
        }
    }

    #[test]
    fn constant_dimension_is_left_alone() {
        let rows = vec![vec![5.0, 1.0], vec![5.0, 2.0], vec![5.0, 3.0]];
        let (out, _) = StandardScaler::fit_transform(&rows);
        assert!(out.iter().all(|r| r[0].is_finite()));
        assert!((out[0][0] - 0.0).abs() < 1e-6);
    }

    #[test]
    fn transform_uses_training_statistics() {
        let rows = vec![vec![0.0], vec![10.0]];
        let scaler = StandardScaler::fit(&rows);
        // mean 5, std 5 -> 20 maps to 3.
        assert!((scaler.transform(&[20.0])[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn rejects_empty_input() {
        StandardScaler::fit(&[]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_dimension_on_transform() {
        let scaler = StandardScaler::fit(&[vec![1.0, 2.0]]);
        scaler.transform(&[1.0]);
    }

    #[test]
    fn moments_scaler_matches_two_pass_fit() {
        let rows: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![i as f32 * 0.7 - 3.0, (i % 7) as f32 * 10.0, 5.0])
            .collect();
        let two_pass = StandardScaler::fit(&rows);
        let mut moments = ScalerMoments::new(3);
        moments.update(&rows);
        let one_pass = moments.scaler();
        assert_eq!(moments.count(), 40);
        for probe in [&rows[0], &rows[17], &rows[39]] {
            for (a, b) in two_pass
                .transform(probe)
                .iter()
                .zip(one_pass.transform(probe))
            {
                assert!((a - b).abs() < 1e-4, "two-pass {a} vs one-pass {b}");
            }
        }
    }

    #[test]
    fn moments_are_order_and_batching_invariant() {
        let rows: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32, -(i as f32) * 2.0]).collect();
        let mut all_at_once = ScalerMoments::new(2);
        all_at_once.update(&rows);
        let mut incremental = ScalerMoments::new(2);
        incremental.update(&rows[..7]);
        incremental.update(&rows[7..]);
        assert_eq!(all_at_once, incremental);
    }

    #[test]
    #[should_panic(expected = "zero rows")]
    fn moments_reject_empty_scaler_derivation() {
        ScalerMoments::new(2).scaler();
    }
}
