//! Linear classifiers: multinomial logistic regression (softmax) and
//! one-vs-rest binary logistic regression.
//!
//! These are the domain-specific models VOCALExplore's Model Manager trains on
//! top of pretrained feature vectors. The paper's prototype trains "linear
//! models" (Section 3.1 problem statement and Section 5 implementation
//! details); single-label tasks (Deer activities, K20, Bears) use a softmax
//! model while multi-label tasks (Charades verbs, BDD objects) use one
//! binary head per class.
//!
//! [`Targets`] and [`TrainedModel`] are the one place that split lives: the
//! targets' variant is the task kind, and `TrainedModel::{fit, fit_warm,
//! predict_labels}` plus [`Targets::macro_f1`] pick the model, the decision
//! rule and the metric from it, so callers never branch on the task.

use crate::block::FeatureBlock;
use crate::metrics::{macro_f1, macro_f1_multilabel};
use crate::scaler::StandardScaler;
use crate::tensor::{dot, Lane, LaneMatrix, Matrix, ROWS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Per-example class targets of a single- or multi-label task. The variant
/// is the task kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Targets {
    /// Exactly one class per example (softmax).
    Single(Vec<usize>),
    /// Zero or more classes per example (independent sigmoid per class).
    Multi(Vec<Vec<usize>>),
}

impl Targets {
    /// Number of examples.
    pub fn len(&self) -> usize {
        match self {
            Targets::Single(labels) => labels.len(),
            Targets::Multi(sets) => sets.len(),
        }
    }

    /// Whether there are no examples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one example labeled `classes`. A single-label example takes
    /// the first class; with none it is not appended and `false` is
    /// returned, so the caller drops its features too.
    pub fn push(&mut self, classes: &[usize]) -> bool {
        match self {
            Targets::Single(labels) => match classes.first() {
                Some(&class) => labels.push(class),
                None => return false,
            },
            Targets::Multi(sets) => sets.push(classes.to_vec()),
        }
        true
    }

    /// Appends every example of `other`.
    ///
    /// # Panics
    /// Panics when `other` is of the other task kind.
    pub fn append(&mut self, other: Targets) {
        match (self, other) {
            (Targets::Single(labels), Targets::Single(more)) => labels.extend(more),
            (Targets::Multi(sets), Targets::Multi(more)) => sets.extend(more),
            _ => panic!("target kind mismatch"),
        }
    }

    /// The targets of examples `idx`, in that order.
    pub fn select(&self, idx: &[usize]) -> Targets {
        match self {
            Targets::Single(labels) => Targets::Single(idx.iter().map(|&i| labels[i]).collect()),
            Targets::Multi(sets) => Targets::Multi(idx.iter().map(|&i| sets[i].clone()).collect()),
        }
    }

    /// Macro F1 over the full vocabulary of `predicted` (one
    /// [`TrainedModel::predict_labels`] set per example) against these
    /// targets: [`macro_f1`] for single-label targets, where each set holds
    /// exactly one class, and [`macro_f1_multilabel`] otherwise.
    pub fn macro_f1(&self, predicted: &[Vec<usize>], num_classes: usize) -> f64 {
        match self {
            Targets::Single(labels) => {
                let predicted: Vec<usize> = predicted.iter().map(|set| set[0]).collect();
                macro_f1(labels, &predicted, num_classes)
            }
            Targets::Multi(sets) => macro_f1_multilabel(sets, predicted, num_classes),
        }
    }
}

/// Training hyperparameters for the linear models.
///
/// The defaults are tuned for the small training sets the ALM sees during
/// exploration (tens to a few hundred labeled clips): full-batch-ish SGD with
/// a moderate learning rate, light L2, and early stopping on the training
/// loss plateau.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Maximum number of passes over the training data.
    pub epochs: usize,
    /// Learning rate for SGD.
    pub learning_rate: f32,
    /// L2 regularization strength (applied to weights, not the bias).
    pub l2: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Seed for mini-batch shuffling and weight initialization.
    pub seed: u64,
    /// Stop early when the relative improvement of the epoch loss drops below
    /// this tolerance.
    pub tolerance: f64,
    /// Epoch budget of warm-started fine-tuning passes
    /// ([`SoftmaxModel::fit_warm`] / [`OneVsRestModel::fit_warm`]): starting
    /// from a previous model's weights needs far fewer passes than the
    /// from-scratch budget.
    pub warm_epochs: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 120,
            learning_rate: 0.5,
            l2: 1e-4,
            batch_size: 64,
            seed: 0,
            tolerance: 1e-4,
            warm_epochs: 30,
        }
    }
}

/// A trained classifier that outputs a probability distribution (or a set of
/// independent probabilities for multi-label tasks) over the vocabulary.
pub trait Classifier: Send + Sync {
    /// Per-class probabilities for a single feature vector.
    fn predict_proba(&self, x: &[f32]) -> Vec<f32>;

    /// Number of classes in the vocabulary.
    fn num_classes(&self) -> usize;

    /// Feature dimensionality the model was trained on.
    fn dim(&self) -> usize;

    /// Index of the most probable class.
    fn predict(&self, x: &[f32]) -> usize {
        let probs = self.predict_proba(x);
        argmax(&probs)
    }
}

/// Multinomial logistic regression trained with mini-batch SGD.
#[derive(Debug, Clone)]
pub struct SoftmaxModel {
    /// `num_classes × dim` weight matrix.
    weights: Matrix,
    /// Per-class bias.
    bias: Vec<f32>,
    dim: usize,
    num_classes: usize,
}

impl SoftmaxModel {
    /// Trains a softmax model.
    ///
    /// * `features` — one row per labeled clip.
    /// * `labels` — class index per clip (must be `< num_classes`).
    /// * `num_classes` — size of the vocabulary. The paper initializes the
    ///   model with the full vocabulary even before every class has labels,
    ///   so `num_classes` may exceed the number of distinct observed labels.
    ///
    /// # Panics
    /// Panics if `features` is empty, rows have inconsistent lengths, or a
    /// label is out of range.
    pub fn fit(
        features: &[Vec<f32>],
        labels: &[usize],
        num_classes: usize,
        cfg: &TrainConfig,
    ) -> Self {
        Self::fit_impl(features, labels, num_classes, cfg, cfg.epochs, None)
    }

    /// Fine-tunes `init`'s weights on (typically a small subset of) the
    /// training data for `cfg.warm_epochs` passes instead of training from
    /// zeros for `cfg.epochs` — the Model Manager's warm-start path. With a
    /// zero warm-epoch budget the init model is returned unchanged.
    ///
    /// # Panics
    /// Panics on the same invalid inputs as [`SoftmaxModel::fit`], or when
    /// `init` does not match `num_classes` / the feature dimensionality.
    pub fn fit_warm(
        features: &[Vec<f32>],
        labels: &[usize],
        num_classes: usize,
        cfg: &TrainConfig,
        init: &SoftmaxModel,
    ) -> Self {
        assert_eq!(init.num_classes, num_classes, "init class-count mismatch");
        assert!(!features.is_empty(), "cannot train on an empty set");
        assert_eq!(init.dim, features[0].len(), "init dimension mismatch");
        Self::fit_impl(
            features,
            labels,
            num_classes,
            cfg,
            cfg.warm_epochs,
            Some((&init.weights, &init.bias)),
        )
    }

    /// The `num_classes × dim` weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The per-class bias.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    fn fit_impl(
        features: &[Vec<f32>],
        labels: &[usize],
        num_classes: usize,
        cfg: &TrainConfig,
        epochs: usize,
        init: Option<(&Matrix, &[f32])>,
    ) -> Self {
        assert!(!features.is_empty(), "cannot train on an empty set");
        assert_eq!(features.len(), labels.len(), "features/labels mismatch");
        assert!(num_classes >= 2, "need at least two classes");
        let dim = features[0].len();
        assert!(
            features.iter().all(|f| f.len() == dim),
            "inconsistent feature dimensions"
        );
        assert!(
            labels.iter().all(|&l| l < num_classes),
            "label out of range"
        );

        let (weights, bias) = sgd(features, num_classes, cfg, epochs, init, true, |i, z| {
            softmax_in_place(z);
            let loss = -(z[labels[i]].max(1e-12) as f64).ln();
            for (c, p) in z.iter_mut().enumerate() {
                *p -= if c == labels[i] { 1.0 } else { 0.0 };
            }
            loss
        });

        Self {
            weights,
            bias,
            dim,
            num_classes,
        }
    }
}

impl Classifier for SoftmaxModel {
    fn predict_proba(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        let mut logits = self.weights.matvec(x);
        for (l, b) in logits.iter_mut().zip(&self.bias) {
            *l += b;
        }
        softmax(&logits)
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

/// One-vs-rest logistic regression for multi-label tasks. Each class gets an
/// independent binary head; `predict_proba` returns per-class sigmoid
/// probabilities (not a distribution).
#[derive(Debug, Clone)]
pub struct OneVsRestModel {
    /// `num_classes × dim` weight matrix.
    weights: Matrix,
    bias: Vec<f32>,
    dim: usize,
    num_classes: usize,
}

impl OneVsRestModel {
    /// Trains one binary logistic head per class.
    ///
    /// * `label_sets` — for each example, the set of positive class indices.
    ///
    /// # Panics
    /// Panics on empty input, ragged features, or out-of-range labels.
    pub fn fit(
        features: &[Vec<f32>],
        label_sets: &[Vec<usize>],
        num_classes: usize,
        cfg: &TrainConfig,
    ) -> Self {
        Self::fit_impl(features, label_sets, num_classes, cfg, cfg.epochs, None)
    }

    /// Fine-tunes `init`'s heads for `cfg.warm_epochs` passes instead of
    /// training from zeros — the multi-label side of the Model Manager's
    /// warm-start path.
    ///
    /// # Panics
    /// Panics on the same invalid inputs as [`OneVsRestModel::fit`], or when
    /// `init` does not match `num_classes` / the feature dimensionality.
    pub fn fit_warm(
        features: &[Vec<f32>],
        label_sets: &[Vec<usize>],
        num_classes: usize,
        cfg: &TrainConfig,
        init: &OneVsRestModel,
    ) -> Self {
        assert_eq!(init.num_classes, num_classes, "init class-count mismatch");
        assert!(!features.is_empty(), "cannot train on an empty set");
        assert_eq!(init.dim, features[0].len(), "init dimension mismatch");
        Self::fit_impl(
            features,
            label_sets,
            num_classes,
            cfg,
            cfg.warm_epochs,
            Some((&init.weights, &init.bias)),
        )
    }

    /// The `num_classes × dim` weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// The per-class bias.
    pub fn bias(&self) -> &[f32] {
        &self.bias
    }

    fn fit_impl(
        features: &[Vec<f32>],
        label_sets: &[Vec<usize>],
        num_classes: usize,
        cfg: &TrainConfig,
        epochs: usize,
        init: Option<(&Matrix, &[f32])>,
    ) -> Self {
        assert!(!features.is_empty(), "cannot train on an empty set");
        assert_eq!(features.len(), label_sets.len());
        assert!(num_classes >= 1);
        let dim = features[0].len();
        assert!(features.iter().all(|f| f.len() == dim));
        assert!(label_sets
            .iter()
            .all(|ls| ls.iter().all(|&l| l < num_classes)));

        // Dense 0/1 targets per class.
        let n = features.len();
        let mut targets = vec![vec![0.0f32; n]; num_classes];
        for (i, ls) in label_sets.iter().enumerate() {
            for &c in ls {
                targets[c][i] = 1.0;
            }
        }

        let (weights, bias) = sgd(features, num_classes, cfg, epochs, init, false, |i, z| {
            for (c, v) in z.iter_mut().enumerate() {
                *v = sigmoid(*v) - targets[c][i];
            }
            0.0
        });

        Self {
            weights,
            bias,
            dim,
            num_classes,
        }
    }
}

impl Classifier for OneVsRestModel {
    fn predict_proba(&self, x: &[f32]) -> Vec<f32> {
        assert_eq!(x.len(), self.dim, "feature dimension mismatch");
        (0..self.num_classes)
            .map(|c| sigmoid(dot(self.weights.row(c), x) + self.bias[c]))
            .collect()
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn dim(&self) -> usize {
        self.dim
    }
}

/// A trained model of either kind, as stored by the Model Manager.
#[derive(Debug, Clone)]
pub enum TrainedModel {
    /// Single-label softmax model.
    Softmax(SoftmaxModel),
    /// Multi-label one-vs-rest model.
    OneVsRest(OneVsRestModel),
}

impl TrainedModel {
    /// Trains from scratch the model `targets` call for: softmax for
    /// single-label targets, one-vs-rest for multi-label ones. `None` when
    /// single-label targets hold fewer than two distinct classes.
    ///
    /// # Panics
    /// Panics on the invalid inputs [`SoftmaxModel::fit`] and
    /// [`OneVsRestModel::fit`] reject.
    pub fn fit(
        features: &[Vec<f32>],
        targets: &Targets,
        num_classes: usize,
        cfg: &TrainConfig,
    ) -> Option<Self> {
        Some(match targets {
            Targets::Single(labels) => {
                let first = *labels.first()?;
                if labels.iter().all(|&l| l == first) {
                    return None;
                }
                TrainedModel::Softmax(SoftmaxModel::fit(features, labels, num_classes, cfg))
            }
            Targets::Multi(sets) => {
                TrainedModel::OneVsRest(OneVsRestModel::fit(features, sets, num_classes, cfg))
            }
        })
    }

    /// Fine-tunes this model on `targets` for `cfg.warm_epochs` passes (see
    /// [`SoftmaxModel::fit_warm`]). `None` when the model kind does not match
    /// the targets' task kind, so the caller trains from scratch instead.
    ///
    /// # Panics
    /// Panics on the invalid inputs the per-kind `fit_warm` rejects.
    pub fn fit_warm(
        &self,
        features: &[Vec<f32>],
        targets: &Targets,
        num_classes: usize,
        cfg: &TrainConfig,
    ) -> Option<Self> {
        Some(match (self, targets) {
            (TrainedModel::Softmax(init), Targets::Single(labels)) => TrainedModel::Softmax(
                SoftmaxModel::fit_warm(features, labels, num_classes, cfg, init),
            ),
            (TrainedModel::OneVsRest(init), Targets::Multi(sets)) => TrainedModel::OneVsRest(
                OneVsRestModel::fit_warm(features, sets, num_classes, cfg, init),
            ),
            _ => return None,
        })
    }

    /// The predicted label set of one feature vector: the most probable
    /// class for a softmax model, every class with probability `>= 0.5` for
    /// a one-vs-rest model.
    pub fn predict_labels(&self, x: &[f32]) -> Vec<usize> {
        match self {
            TrainedModel::Softmax(m) => vec![m.predict(x)],
            TrainedModel::OneVsRest(m) => m
                .predict_proba(x)
                .iter()
                .enumerate()
                .filter(|(_, &p)| p >= 0.5)
                .map(|(c, _)| c)
                .collect(),
        }
    }

    /// Class probabilities of `block.row(rows[i])` for every `i`, each row
    /// standardized by `scaler`: a `rows.len() × num_classes` matrix, row
    /// `i` bit-identical to `self.predict_proba(&scaler.transform(block.row(rows[i])))`.
    ///
    /// This is the batched inference path for candidate scoring and picks.
    /// The class-major weights are transposed once per call into the
    /// lane-blocked layout, and `ROWS` rows share each sweep over them.
    /// The call states its work to `ve_sched::parallel::par_chunks_mut` as
    /// rows × dim × classes multiply-adds, which decides whether row ranges
    /// fan out; every row is scored independently, so the result is
    /// identical at any thread count.
    ///
    /// # Panics
    /// Panics if the scaler or the block does not match the model's
    /// dimensionality, or a row index is out of range.
    pub fn predict_proba_rows(
        &self,
        scaler: &StandardScaler,
        block: &FeatureBlock,
        rows: &[usize],
    ) -> Matrix {
        let (weights, bias, softmax) = match self {
            TrainedModel::Softmax(m) => (&m.weights, &m.bias, true),
            TrainedModel::OneVsRest(m) => (&m.weights, &m.bias, false),
        };
        let (classes, dim) = (weights.rows(), weights.cols());
        assert_eq!(scaler.dim(), dim, "scaler dimension mismatch");
        assert_eq!(block.dim(), dim, "feature dimension mismatch");
        let lanes = LaneMatrix::from_matrix(weights);
        let mut out = vec![0.0f32; rows.len() * classes];
        let mut out_rows: Vec<&mut [f32]> = out.chunks_mut(classes.max(1)).collect();
        let work = rows.len().saturating_mul(dim * classes);
        ve_sched::parallel::par_chunks_mut(&mut out_rows, work, |start, piece| {
            let mut xs = vec![0.0f32; ROWS * dim];
            let mut z = vec![Lane::default(); ROWS * lanes.lanes()];
            let ids = &rows[start..start + piece.len()];
            for (ids, piece) in ids.chunks(ROWS).zip(piece.chunks_mut(ROWS)) {
                let (xs, z) = (
                    &mut xs[..ids.len() * dim],
                    &mut z[..ids.len() * lanes.lanes()],
                );
                for (i, &r) in ids.iter().enumerate() {
                    scaler.transform_into(block.row(r), &mut xs[i * dim..(i + 1) * dim]);
                }
                lanes.logits_rows_into(xs, z);
                for (p, z) in piece.iter_mut().zip(z.chunks_exact(lanes.lanes())) {
                    p.copy_from_slice(&z.as_flattened()[..classes]);
                    for (l, b) in p.iter_mut().zip(bias) {
                        *l += b;
                    }
                    if softmax {
                        softmax_in_place(p);
                    } else {
                        for v in p.iter_mut() {
                            *v = sigmoid(*v);
                        }
                    }
                }
            }
        });
        Matrix::from_vec(rows.len(), classes, out)
    }
}

impl Classifier for TrainedModel {
    fn predict_proba(&self, x: &[f32]) -> Vec<f32> {
        match self {
            TrainedModel::Softmax(m) => m.predict_proba(x),
            TrainedModel::OneVsRest(m) => m.predict_proba(x),
        }
    }

    fn num_classes(&self) -> usize {
        match self {
            TrainedModel::Softmax(m) => m.num_classes(),
            TrainedModel::OneVsRest(m) => m.num_classes(),
        }
    }

    fn dim(&self) -> usize {
        match self {
            TrainedModel::Softmax(m) => m.dim(),
            TrainedModel::OneVsRest(m) => m.dim(),
        }
    }
}

/// Mini-batch SGD shared by both linear models, on the class-minor
/// [`LaneMatrix`] kernel. Starts from `init` (or zeros) and returns the
/// class-major weights and the bias.
///
/// `per_example(i, z)` receives example `i`'s logits plus bias in `z`
/// (`num_classes` long), overwrites them with the per-class error
/// `∂loss/∂z`, and returns the example's loss. With `early_stop`, training
/// ends once the mean epoch loss improves by less than `cfg.tolerance`
/// relative to the previous epoch.
fn sgd(
    features: &[Vec<f32>],
    num_classes: usize,
    cfg: &TrainConfig,
    epochs: usize,
    init: Option<(&Matrix, &[f32])>,
    early_stop: bool,
    mut per_example: impl FnMut(usize, &mut [f32]) -> f64,
) -> (Matrix, Vec<f32>) {
    let dim = features[0].len();
    let (mut weights, mut bias) = match init {
        Some((w, b)) => (LaneMatrix::from_matrix(w), b.to_vec()),
        None => (
            LaneMatrix::zeros(dim, num_classes),
            vec![0.0f32; num_classes],
        ),
    };
    let mut grad_w = LaneMatrix::zeros(dim, num_classes);
    let mut grad_b = vec![0.0f32; num_classes];
    let mut z = vec![Lane::default(); weights.lanes()];
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let n = features.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut prev_loss = f64::INFINITY;

    for _epoch in 0..epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        for chunk in order.chunks(cfg.batch_size.max(1)) {
            // Accumulate gradients over the mini-batch.
            grad_w.clear();
            grad_b.fill(0.0);
            for &i in chunk {
                let x = &features[i];
                weights.logits_into(x, &mut z);
                let (err, padding) = z.as_flattened_mut().split_at_mut(num_classes);
                for (l, b) in err.iter_mut().zip(&bias) {
                    *l += b;
                }
                epoch_loss += per_example(i, err);
                for (g, e) in grad_b.iter_mut().zip(err.iter()) {
                    *g += e;
                }
                padding.fill(0.0);
                grad_w.add_outer(&z, x);
            }
            let scale = cfg.learning_rate / chunk.len() as f32;
            // L2 shrink (weights only).
            if cfg.l2 > 0.0 {
                weights.scale(1.0 - cfg.learning_rate * cfg.l2);
            }
            weights.axpy(-scale, &grad_w);
            for (b, g) in bias.iter_mut().zip(&grad_b) {
                *b -= scale * g;
            }
        }
        if early_stop {
            let epoch_loss = epoch_loss / n as f64;
            if (prev_loss - epoch_loss).abs() < cfg.tolerance * prev_loss.abs().max(1e-9) {
                break;
            }
            prev_loss = epoch_loss;
        }
    }
    (weights.to_matrix(num_classes), bias)
}

/// Numerically stable softmax.
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    let mut probs = logits.to_vec();
    softmax_in_place(&mut probs);
    probs
}

/// [`softmax`] over `z`, overwriting the logits with the probabilities.
fn softmax_in_place(z: &mut [f32]) {
    // ve-lint: allow(float-reduction-order) -- max is order-insensitive (commutative and associative)
    let max = z.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    for v in z.iter_mut() {
        *v = (*v - max).exp();
    }
    // ve-lint: allow(float-reduction-order) -- slice iteration order is fixed
    let sum: f32 = z.iter().sum::<f32>();
    for v in z.iter_mut() {
        *v /= sum;
    }
}

/// Logistic sigmoid.
pub fn sigmoid(z: f32) -> f32 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// Index of the largest element (first on ties).
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &v) in xs.iter().enumerate().skip(1) {
        if v > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// The scalar class-major softmax the lane kernel must reproduce.
    fn reference_softmax(logits: &[f32]) -> Vec<f32> {
        let max = logits.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits.iter().map(|&l| (l - max).exp()).collect();
        let sum: f32 = exps.iter().sum::<f32>();
        exps.iter().map(|e| e / sum).collect()
    }

    /// The scalar class-major `SoftmaxModel` training loop the lane kernel
    /// must reproduce bit for bit. Returns the weights, the bias and the
    /// number of epochs run.
    fn reference_softmax_fit(
        features: &[Vec<f32>],
        labels: &[usize],
        num_classes: usize,
        cfg: &TrainConfig,
        epochs: usize,
        init: Option<(Matrix, Vec<f32>)>,
    ) -> (Matrix, Vec<f32>, usize) {
        let dim = features[0].len();
        let (mut weights, mut bias) =
            init.unwrap_or_else(|| (Matrix::zeros(num_classes, dim), vec![0.0f32; num_classes]));
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let n = features.len();
        let mut order: Vec<usize> = (0..n).collect();
        let mut prev_loss = f64::INFINITY;
        let mut epochs_run = 0;

        for _epoch in 0..epochs {
            epochs_run += 1;
            order.shuffle(&mut rng);
            let mut epoch_loss = 0.0f64;
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                // Accumulate gradients over the mini-batch.
                let mut grad_w = Matrix::zeros(num_classes, dim);
                let mut grad_b = vec![0.0f32; num_classes];
                for &i in chunk {
                    let x = &features[i];
                    let mut logits = weights.matvec(x);
                    for (l, b) in logits.iter_mut().zip(&bias) {
                        *l += b;
                    }
                    let probs = reference_softmax(&logits);
                    epoch_loss += -(probs[labels[i]].max(1e-12) as f64).ln();
                    for c in 0..num_classes {
                        let err = probs[c] - if c == labels[i] { 1.0 } else { 0.0 };
                        grad_b[c] += err;
                        let row = grad_w.row_mut(c);
                        for (g, &xv) in row.iter_mut().zip(x.iter()) {
                            *g += err * xv;
                        }
                    }
                }
                let scale = cfg.learning_rate / chunk.len() as f32;
                // L2 shrink (weights only).
                if cfg.l2 > 0.0 {
                    weights.scale(1.0 - cfg.learning_rate * cfg.l2);
                }
                weights.axpy(-scale, &grad_w);
                for (b, g) in bias.iter_mut().zip(&grad_b) {
                    *b -= scale * g;
                }
            }
            let epoch_loss = epoch_loss / n as f64;
            if (prev_loss - epoch_loss).abs() < cfg.tolerance * prev_loss.abs().max(1e-9) {
                break;
            }
            prev_loss = epoch_loss;
        }
        (weights, bias, epochs_run)
    }

    /// The scalar class-major `OneVsRestModel` training loop the lane kernel
    /// must reproduce bit for bit.
    fn reference_one_vs_rest_fit(
        features: &[Vec<f32>],
        label_sets: &[Vec<usize>],
        num_classes: usize,
        cfg: &TrainConfig,
        epochs: usize,
        init: Option<(Matrix, Vec<f32>)>,
    ) -> (Matrix, Vec<f32>) {
        let dim = features[0].len();
        // Dense 0/1 targets per class.
        let n = features.len();
        let mut targets = vec![vec![0.0f32; n]; num_classes];
        for (i, ls) in label_sets.iter().enumerate() {
            for &c in ls {
                targets[c][i] = 1.0;
            }
        }

        let (mut weights, mut bias) =
            init.unwrap_or_else(|| (Matrix::zeros(num_classes, dim), vec![0.0f32; num_classes]));
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..n).collect();

        for _epoch in 0..epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(cfg.batch_size.max(1)) {
                let mut grad_w = Matrix::zeros(num_classes, dim);
                let mut grad_b = vec![0.0f32; num_classes];
                for &i in chunk {
                    let x = &features[i];
                    for c in 0..num_classes {
                        let z = dot(weights.row(c), x) + bias[c];
                        let p = sigmoid(z);
                        let err = p - targets[c][i];
                        grad_b[c] += err;
                        let row = grad_w.row_mut(c);
                        for (g, &xv) in row.iter_mut().zip(x.iter()) {
                            *g += err * xv;
                        }
                    }
                }
                let scale = cfg.learning_rate / chunk.len() as f32;
                if cfg.l2 > 0.0 {
                    weights.scale(1.0 - cfg.learning_rate * cfg.l2);
                }
                weights.axpy(-scale, &grad_w);
                for (b, g) in bias.iter_mut().zip(&grad_b) {
                    *b -= scale * g;
                }
            }
        }
        (weights, bias)
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Features in [-2, 2) with about one entry in eight an exact `+0.0` or
    /// `-0.0`.
    fn signed_zero_features(n: usize, dim: usize, rng: &mut StdRng) -> Vec<Vec<f32>> {
        (0..n)
            .map(|_| {
                (0..dim)
                    .map(|_| match rng.gen_range(0..16u32) {
                        0 => 0.0,
                        1 => -0.0,
                        _ => rng.gen::<f32>() * 4.0 - 2.0,
                    })
                    .collect()
            })
            .collect()
    }

    /// One oracle case per (class count, dim): every lane count and padding
    /// for class counts up to 40, each dim, and the batch size, `l2` and
    /// early-stop settings cycling so every dim meets every batch size.
    fn oracle_cases(classes: std::ops::RangeInclusive<usize>) -> Vec<(usize, usize, TrainConfig)> {
        const DIMS: [usize; 4] = [1, 3, 64, 131];
        const N: usize = 70;
        const BATCHES: [usize; 4] = [1, 7, 64, N + 5];
        let mut cases = Vec::new();
        for k in classes {
            for (di, &dim) in DIMS.iter().enumerate() {
                let cfg = TrainConfig {
                    epochs: 4,
                    warm_epochs: 2,
                    batch_size: BATCHES[(k + di) % 4],
                    l2: if (k / 4 + di) % 2 == 0 { 0.0 } else { 1e-3 },
                    tolerance: if (k + di / 2) % 2 == 0 { 0.0 } else { 0.2 },
                    seed: (k * 10 + di) as u64,
                    ..TrainConfig::default()
                };
                cases.push((k, dim, cfg));
            }
        }
        cases
    }

    #[test]
    fn softmax_lane_kernel_matches_reference_bit_for_bit() {
        let (mut stopped_early, mut ran_all) = (0, 0);
        for (classes, dim, cfg) in oracle_cases(2..=40) {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed);
            let xs = signed_zero_features(70, dim, &mut rng);
            let ys: Vec<usize> = (0..xs.len()).map(|_| rng.gen_range(0..classes)).collect();
            let case = format!("classes {classes} dim {dim} cfg {cfg:?}");

            let (ref_w, ref_b, epochs_run) =
                reference_softmax_fit(&xs, &ys, classes, &cfg, cfg.epochs, None);
            if epochs_run < cfg.epochs {
                stopped_early += 1;
            } else {
                ran_all += 1;
            }
            let cold = SoftmaxModel::fit(&xs, &ys, classes, &cfg);
            assert_eq!(
                bits(cold.weights().as_slice()),
                bits(ref_w.as_slice()),
                "{case}"
            );
            assert_eq!(bits(cold.bias()), bits(&ref_b), "{case}");

            let half = xs.len() / 2;
            let (warm_w, warm_b, _) = reference_softmax_fit(
                &xs[half..],
                &ys[half..],
                classes,
                &cfg,
                cfg.warm_epochs,
                Some((ref_w, ref_b)),
            );
            let warm = SoftmaxModel::fit_warm(&xs[half..], &ys[half..], classes, &cfg, &cold);
            assert_eq!(
                bits(warm.weights().as_slice()),
                bits(warm_w.as_slice()),
                "warm {case}"
            );
            assert_eq!(bits(warm.bias()), bits(&warm_b), "warm {case}");
        }
        assert!(
            stopped_early > 0 && ran_all > 0,
            "{stopped_early} early, {ran_all} full"
        );
    }

    #[test]
    fn one_vs_rest_lane_kernel_matches_reference_bit_for_bit() {
        for (classes, dim, cfg) in oracle_cases(1..=40) {
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x0f5);
            let xs = signed_zero_features(70, dim, &mut rng);
            let ls: Vec<Vec<usize>> = (0..xs.len())
                .map(|_| {
                    let mut set: Vec<usize> = (0..classes)
                        .filter(|_| rng.gen_range(0..4u32) == 0)
                        .collect();
                    set.dedup();
                    set
                })
                .collect();
            let case = format!("classes {classes} dim {dim} cfg {cfg:?}");

            let (ref_w, ref_b) =
                reference_one_vs_rest_fit(&xs, &ls, classes, &cfg, cfg.epochs, None);
            let cold = OneVsRestModel::fit(&xs, &ls, classes, &cfg);
            assert_eq!(
                bits(cold.weights().as_slice()),
                bits(ref_w.as_slice()),
                "{case}"
            );
            assert_eq!(bits(cold.bias()), bits(&ref_b), "{case}");

            let half = xs.len() / 2;
            let (warm_w, warm_b) = reference_one_vs_rest_fit(
                &xs[half..],
                &ls[half..],
                classes,
                &cfg,
                cfg.warm_epochs,
                Some((ref_w, ref_b)),
            );
            let warm = OneVsRestModel::fit_warm(&xs[half..], &ls[half..], classes, &cfg, &cold);
            assert_eq!(
                bits(warm.weights().as_slice()),
                bits(warm_w.as_slice()),
                "warm {case}"
            );
            assert_eq!(bits(warm.bias()), bits(&warm_b), "warm {case}");
        }
    }

    /// `predict_proba_rows` must reproduce the per-row path,
    /// `predict_proba(&scaler.transform(row))`, bit for bit: softmax and
    /// one-vs-rest heads, 1..=40 classes (one to three lane blocks of the
    /// batched sweep, with remainders), every row-group remainder, both
    /// sides of the fan-out work threshold (511, 512 and 513 rows of 512
    /// dims and 4 classes straddle 2²⁰ multiply-adds), repeated and
    /// unsorted row indices, `±0.0` features and zero-variance scaler
    /// dimensions, at one and at four workers.
    #[test]
    fn predict_proba_rows_matches_per_row_predict_proba_bit_for_bit() {
        const BLOCK_ROWS: usize = 97;
        const SHORT: [usize; 6] = [0, 1, 3, 4, 5, 7];
        const LONG: [usize; 4] = [511, 512, 513, 2000];
        // Unsorted, and repeated: the last index repeats the first, and
        // lists longer than the block wrap around it.
        let row_list = |len: usize| -> Vec<usize> {
            let mut rows: Vec<usize> = (0..len).map(|i| (i * 37 + 11) % BLOCK_ROWS).collect();
            if len >= 2 {
                rows[len - 1] = rows[0];
            }
            rows
        };
        let models = |classes: usize, dim: usize, rng: &mut StdRng| -> [TrainedModel; 2] {
            let mut weights = || {
                let w: Vec<f32> = (0..classes * dim)
                    .map(|_| rng.gen::<f32>() * 2.0 - 1.0)
                    .collect();
                let bias: Vec<f32> = (0..classes).map(|_| rng.gen::<f32>() * 6.0 - 3.0).collect();
                (Matrix::from_vec(classes, dim, w), bias)
            };
            let (w, b) = weights();
            let softmax = TrainedModel::Softmax(SoftmaxModel {
                weights: w,
                bias: b,
                dim,
                num_classes: classes,
            });
            let (w, b) = weights();
            let one_vs_rest = TrainedModel::OneVsRest(OneVsRestModel {
                weights: w,
                bias: b,
                dim,
                num_classes: classes,
            });
            [softmax, one_vs_rest]
        };
        let check = |classes: usize, dim: usize, lens: &[usize]| {
            let mut rng = StdRng::seed_from_u64((classes * 1000 + dim) as u64);
            let block = FeatureBlock::from_nested(&signed_zero_features(BLOCK_ROWS, dim, &mut rng));
            // Every other dimension is constant in the scaler's training
            // rows (zero variance, so its std is taken as 1), and the
            // constant is 0 in half of them, so `±0.0` features keep their
            // sign through standardization.
            let mut train = signed_zero_features(20, dim, &mut rng);
            for row in &mut train {
                for (d, v) in row.iter_mut().enumerate() {
                    if d % 2 == 1 {
                        *v = if d % 4 == 1 { 0.0 } else { 0.75 };
                    }
                }
            }
            let scaler = StandardScaler::fit(&train);
            for model in models(classes, dim, &mut rng) {
                for &len in lens {
                    let rows = row_list(len);
                    let probs = model.predict_proba_rows(&scaler, &block, &rows);
                    assert_eq!((probs.rows(), probs.cols()), (len, classes));
                    for (i, &r) in rows.iter().enumerate() {
                        let expected = model.predict_proba(&scaler.transform(block.row(r)));
                        assert_eq!(
                            bits(probs.row(i)),
                            bits(&expected),
                            "{classes} classes, dim {dim}, {len} rows, row {i}"
                        );
                    }
                }
            }
        };
        let _guard = ve_sched::parallel::test_parallelism_guard();
        for threads in [1, 4] {
            ve_sched::parallel::set_parallelism(threads);
            for classes in 1..=40 {
                for dim in [1, 3, 64, 131, 512] {
                    check(classes, dim, &SHORT);
                }
            }
            // One, two and three lane blocks with a remainder block each;
            // (9, 512) and (13, 64) at 2,000 rows fan out, and (4, 512)
            // crosses the fan-out threshold at 512 rows.
            assert_eq!(512 * 512 * 4, ve_sched::parallel::MIN_PARALLEL_WORK);
            for (classes, dim) in [(1, 131), (9, 512), (13, 64), (40, 3), (4, 512)] {
                check(classes, dim, &LONG);
            }
        }
        ve_sched::parallel::set_parallelism(0);
    }

    #[test]
    fn softmax_matches_reference_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(21);
        for k in 1..=40 {
            let logits: Vec<f32> = (0..k).map(|_| rng.gen::<f32>() * 60.0 - 30.0).collect();
            assert_eq!(bits(&softmax(&logits)), bits(&reference_softmax(&logits)));
        }
    }

    fn blob_dataset(
        n_per_class: usize,
        centers: &[[f32; 2]],
        noise: f32,
        seed: u64,
    ) -> (Vec<Vec<f32>>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..n_per_class {
                let dx: f32 = rng.gen::<f32>() * 2.0 - 1.0;
                let dy: f32 = rng.gen::<f32>() * 2.0 - 1.0;
                xs.push(vec![center[0] + noise * dx, center[1] + noise * dy]);
                ys.push(c);
            }
        }
        (xs, ys)
    }

    #[test]
    fn softmax_sums_to_one_and_orders_correctly() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_handles_large_logits() {
        let p = softmax(&[1000.0, 0.0]);
        assert!(p[0] > 0.999 && p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn sigmoid_symmetry_and_range() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
        assert!((sigmoid(3.0) + sigmoid(-3.0) - 1.0).abs() < 1e-6);
        assert!(sigmoid(-100.0) >= 0.0 && sigmoid(100.0) <= 1.0);
    }

    #[test]
    fn argmax_first_on_ties() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax(&[5.0]), 0);
    }

    #[test]
    fn softmax_model_learns_separable_blobs() {
        let (xs, ys) = blob_dataset(60, &[[0.0, 0.0], [4.0, 4.0], [-4.0, 4.0]], 0.7, 1);
        let model = SoftmaxModel::fit(&xs, &ys, 3, &TrainConfig::default());
        let correct = xs
            .iter()
            .zip(&ys)
            .filter(|(x, &y)| model.predict(x) == y)
            .count();
        assert!(
            correct as f64 / xs.len() as f64 > 0.95,
            "accuracy {}",
            correct as f64 / xs.len() as f64
        );
    }

    #[test]
    fn softmax_model_with_unobserved_classes() {
        // The vocabulary has 5 classes but only 2 appear in the labels; the
        // model must still output a 5-way distribution.
        let (xs, ys) = blob_dataset(30, &[[0.0, 0.0], [5.0, 5.0]], 0.5, 2);
        let model = SoftmaxModel::fit(&xs, &ys, 5, &TrainConfig::default());
        let probs = model.predict_proba(&xs[0]);
        assert_eq!(probs.len(), 5);
        assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(
            model.predict(&xs[0]) < 2,
            "should predict an observed class"
        );
    }

    #[test]
    fn softmax_probabilities_track_confidence() {
        let (xs, ys) = blob_dataset(50, &[[0.0, 0.0], [6.0, 0.0]], 0.5, 3);
        let model = SoftmaxModel::fit(&xs, &ys, 2, &TrainConfig::default());
        // A point far on class 1's side should get a confident class-1 score.
        let p = model.predict_proba(&[6.0, 0.0]);
        assert!(p[1] > 0.9, "p={p:?}");
        // The midpoint should be uncertain.
        let p_mid = model.predict_proba(&[3.0, 0.0]);
        assert!(p_mid[0] > 0.2 && p_mid[0] < 0.8, "p_mid={p_mid:?}");
    }

    #[test]
    fn one_vs_rest_learns_independent_labels() {
        // Label 0 active when x > 0, label 1 active when y > 0.
        let mut rng = StdRng::seed_from_u64(4);
        let mut xs = Vec::new();
        let mut ls = Vec::new();
        for _ in 0..400 {
            let x: f32 = rng.gen::<f32>() * 4.0 - 2.0;
            let y: f32 = rng.gen::<f32>() * 4.0 - 2.0;
            let mut labels = Vec::new();
            if x > 0.0 {
                labels.push(0);
            }
            if y > 0.0 {
                labels.push(1);
            }
            xs.push(vec![x, y]);
            ls.push(labels);
        }
        let model = OneVsRestModel::fit(&xs, &ls, 2, &TrainConfig::default());
        let p = model.predict_proba(&[1.5, -1.5]);
        assert!(p[0] > 0.7 && p[1] < 0.3, "p={p:?}");
        let p = model.predict_proba(&[-1.5, 1.5]);
        assert!(p[0] < 0.3 && p[1] > 0.7, "p={p:?}");
    }

    #[test]
    fn trained_model_enum_dispatch() {
        let (xs, ys) = blob_dataset(20, &[[0.0, 0.0], [5.0, 5.0]], 0.5, 5);
        let m = TrainedModel::Softmax(SoftmaxModel::fit(&xs, &ys, 2, &TrainConfig::default()));
        assert_eq!(m.num_classes(), 2);
        assert_eq!(m.dim(), 2);
        assert_eq!(m.predict_proba(&xs[0]).len(), 2);
    }

    #[test]
    fn targets_push_select_and_append() {
        let mut single = Targets::Single(Vec::new());
        assert!(single.push(&[2, 0]));
        assert!(!single.push(&[]), "a single-label example needs a class");
        assert!(single.push(&[1]));
        assert_eq!(single, Targets::Single(vec![2, 1]));
        let mut multi = Targets::Multi(Vec::new());
        assert!(multi.push(&[]) && multi.push(&[0, 3]));
        multi.append(Targets::Multi(vec![vec![1]]));
        assert_eq!(multi.len(), 3);
        assert_eq!(
            multi.select(&[2, 0, 2]),
            Targets::Multi(vec![vec![1], vec![], vec![1]])
        );
        assert_eq!(single.select(&[1]), Targets::Single(vec![1]));
    }

    #[test]
    #[should_panic(expected = "target kind mismatch")]
    fn targets_append_rejects_the_other_kind() {
        Targets::Single(vec![0]).append(Targets::Multi(vec![vec![0]]));
    }

    #[test]
    fn trained_model_fit_matches_the_per_kind_fits() {
        let (xs, ys) = blob_dataset(20, &[[0.0, 0.0], [5.0, 5.0]], 0.5, 11);
        let ls: Vec<Vec<usize>> = ys.iter().map(|&y| vec![y]).collect();
        let cfg = TrainConfig::default();
        let weights = |m: &TrainedModel| match m {
            TrainedModel::Softmax(m) => bits(m.weights().as_slice()),
            TrainedModel::OneVsRest(m) => bits(m.weights().as_slice()),
        };

        let single = Targets::Single(ys.clone());
        let soft = TrainedModel::fit(&xs, &single, 3, &cfg).unwrap();
        let soft_ref = SoftmaxModel::fit(&xs, &ys, 3, &cfg);
        assert_eq!(weights(&soft), bits(soft_ref.weights().as_slice()));
        let multi = Targets::Multi(ls.clone());
        let ovr = TrainedModel::fit(&xs, &multi, 3, &cfg).unwrap();
        let ovr_ref = OneVsRestModel::fit(&xs, &ls, 3, &cfg);
        assert_eq!(weights(&ovr), bits(ovr_ref.weights().as_slice()));

        let one_class = Targets::Single(vec![1; xs.len()]);
        assert!(TrainedModel::fit(&xs, &one_class, 3, &cfg).is_none());

        let warm = soft.fit_warm(
            &xs[5..],
            &single.select(&(5..xs.len()).collect::<Vec<_>>()),
            3,
            &cfg,
        );
        let warm_ref = SoftmaxModel::fit_warm(&xs[5..], &ys[5..], 3, &cfg, &soft_ref);
        assert_eq!(weights(&warm.unwrap()), bits(warm_ref.weights().as_slice()));
        assert!(soft.fit_warm(&xs, &multi, 3, &cfg).is_none());
        assert!(ovr.fit_warm(&xs, &single, 3, &cfg).is_none());
    }

    #[test]
    fn predict_labels_is_argmax_or_the_half_threshold() {
        let (xs, ys) = blob_dataset(20, &[[0.0, 0.0], [5.0, 5.0]], 0.5, 12);
        let cfg = TrainConfig::default();
        let soft = TrainedModel::fit(&xs, &Targets::Single(ys.clone()), 3, &cfg).unwrap();
        let sets: Vec<Vec<usize>> = ys
            .iter()
            .map(|&y| if y == 1 { vec![0, 1] } else { vec![] })
            .collect();
        let ovr = TrainedModel::fit(&xs, &Targets::Multi(sets), 3, &cfg).unwrap();
        for x in &xs {
            assert_eq!(soft.predict_labels(x), vec![soft.predict(x)]);
            let probs = ovr.predict_proba(x);
            let expected: Vec<usize> = (0..3).filter(|&c| probs[c] >= 0.5).collect();
            assert_eq!(ovr.predict_labels(x), expected);
        }
        assert_eq!(ovr.predict_labels(&[5.0, 5.0]), vec![0, 1]);
        assert!(ovr.predict_labels(&[0.0, 0.0]).is_empty());
    }

    #[test]
    fn targets_macro_f1_dispatches_on_the_task_kind() {
        let predicted = vec![vec![0], vec![1], vec![1]];
        assert_eq!(
            Targets::Single(vec![0, 0, 1]).macro_f1(&predicted, 3),
            macro_f1(&[0, 0, 1], &[0, 1, 1], 3)
        );
        let truth = vec![vec![0], vec![1, 2], vec![]];
        assert_eq!(
            Targets::Multi(truth.clone()).macro_f1(&predicted, 3),
            macro_f1_multilabel(&truth, &predicted, 3)
        );
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn fit_rejects_empty_training_set() {
        SoftmaxModel::fit(&[], &[], 2, &TrainConfig::default());
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn fit_rejects_out_of_range_label() {
        SoftmaxModel::fit(
            &[vec![0.0, 1.0], vec![1.0, 0.0]],
            &[0, 5],
            2,
            &TrainConfig::default(),
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (xs, ys) = blob_dataset(30, &[[0.0, 0.0], [3.0, 3.0]], 1.0, 6);
        let cfg = TrainConfig::default();
        let a = SoftmaxModel::fit(&xs, &ys, 2, &cfg);
        let b = SoftmaxModel::fit(&xs, &ys, 2, &cfg);
        assert_eq!(a.predict_proba(&xs[0]), b.predict_proba(&xs[0]));
    }

    #[test]
    fn warm_fit_with_zero_epochs_returns_init_unchanged() {
        let (xs, ys) = blob_dataset(30, &[[0.0, 0.0], [4.0, 4.0]], 0.7, 7);
        let cfg = TrainConfig::default();
        let cold = SoftmaxModel::fit(&xs, &ys, 2, &cfg);
        let frozen = TrainConfig {
            warm_epochs: 0,
            ..cfg
        };
        let warm = SoftmaxModel::fit_warm(&xs, &ys, 2, &frozen, &cold);
        assert_eq!(warm.weights().as_slice(), cold.weights().as_slice());
        assert_eq!(warm.bias(), cold.bias());
    }

    #[test]
    fn warm_fit_is_deterministic_and_keeps_accuracy() {
        let (xs, ys) = blob_dataset(50, &[[0.0, 0.0], [5.0, 5.0], [-5.0, 5.0]], 0.7, 8);
        let cfg = TrainConfig::default();
        // Cold model on the first two thirds, warm fine-tune on a small
        // mixed subset including the last third.
        let split = xs.len() * 2 / 3;
        let cold = SoftmaxModel::fit(&xs[..split], &ys[..split], 3, &cfg);
        let tune_x: Vec<Vec<f32>> = xs[split - 20..].to_vec();
        let tune_y: Vec<usize> = ys[split - 20..].to_vec();
        let a = SoftmaxModel::fit_warm(&tune_x, &tune_y, 3, &cfg, &cold);
        let b = SoftmaxModel::fit_warm(&tune_x, &tune_y, 3, &cfg, &cold);
        assert_eq!(
            a.predict_proba(&xs[0]),
            b.predict_proba(&xs[0]),
            "warm fit must be deterministic given seed and init"
        );
        let accuracy = |m: &SoftmaxModel| {
            xs.iter()
                .zip(&ys)
                .filter(|(x, &y)| m.predict(x) == y)
                .count() as f64
                / xs.len() as f64
        };
        assert!(
            accuracy(&a) > 0.9,
            "warm fine-tune must not destroy the separable-blob fit: {}",
            accuracy(&a)
        );
    }

    #[test]
    fn one_vs_rest_warm_fit_refines_heads() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut xs = Vec::new();
        let mut ls = Vec::new();
        for _ in 0..300 {
            let x: f32 = rng.gen::<f32>() * 4.0 - 2.0;
            let y: f32 = rng.gen::<f32>() * 4.0 - 2.0;
            let mut labels = Vec::new();
            if x > 0.0 {
                labels.push(0);
            }
            if y > 0.0 {
                labels.push(1);
            }
            xs.push(vec![x, y]);
            ls.push(labels);
        }
        let cfg = TrainConfig::default();
        let cold = OneVsRestModel::fit(&xs[..200], &ls[..200], 2, &cfg);
        let warm = OneVsRestModel::fit_warm(&xs[180..], &ls[180..], 2, &cfg, &cold);
        let p = warm.predict_proba(&[1.5, -1.5]);
        assert!(p[0] > 0.7 && p[1] < 0.3, "p={p:?}");
    }

    #[test]
    #[should_panic(expected = "init dimension mismatch")]
    fn warm_fit_rejects_dimension_mismatch() {
        let (xs, ys) = blob_dataset(10, &[[0.0, 0.0], [4.0, 4.0]], 0.5, 10);
        let cfg = TrainConfig::default();
        let cold = SoftmaxModel::fit(&xs, &ys, 2, &cfg);
        SoftmaxModel::fit_warm(&[vec![0.0; 3]], &[0], 2, &cfg, &cold);
    }
}
