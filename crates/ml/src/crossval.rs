//! Stratified k-fold cross-validation.
//!
//! Section 3.2.4: because the user has no labeled validation set at the start
//! of exploration, the ALM estimates the quality of each candidate feature by
//! building three train/test splits over the labels collected so far and
//! averaging macro F1 across them. The prototype "only evaluates k-fold
//! validation over classes with at least three labeled instances to ensure
//! each class is present in each training and test split" — that filter is
//! implemented here as `min_instances_per_class`.
//!
//! Multi-label targets have no single class to stratify on, so
//! [`cross_validate_multilabel`] assigns folds round-robin instead.

use crate::linear::{Classifier, OneVsRestModel, SoftmaxModel, TrainConfig, TrainedModel};
use crate::metrics::{macro_f1, macro_f1_multilabel};
use crate::scaler::StandardScaler;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration for cross-validated feature-quality estimation.
#[derive(Debug, Clone, Copy)]
pub struct CrossValConfig {
    /// Number of folds (paper default: 3).
    pub folds: usize,
    /// Classes with fewer labeled instances than this are excluded from the
    /// CV estimate (paper default: 3).
    pub min_instances_per_class: usize,
    /// Seed used for shuffling within each class.
    pub seed: u64,
    /// Training configuration for the per-fold models.
    pub train: TrainConfig,
}

impl Default for CrossValConfig {
    fn default() -> Self {
        Self {
            folds: 3,
            min_instances_per_class: 3,
            seed: 0,
            train: TrainConfig::default(),
        }
    }
}

/// The per-example fold assignment produced by [`stratified_k_fold`].
#[derive(Debug, Clone)]
pub struct FoldAssignment {
    /// `fold[i]` is the fold index of retained example `i`, or `None` if the
    /// example was excluded because its class had too few instances.
    pub fold: Vec<Option<usize>>,
    /// Classes that had enough instances to participate.
    pub kept_classes: Vec<usize>,
}

/// Assigns examples to `folds` stratified folds, excluding classes with fewer
/// than `min_instances` examples.
pub fn stratified_k_fold(
    labels: &[usize],
    num_classes: usize,
    folds: usize,
    min_instances: usize,
    seed: u64,
) -> FoldAssignment {
    assert!(folds >= 2, "need at least two folds");
    let mut per_class: Vec<Vec<usize>> = vec![Vec::new(); num_classes];
    for (i, &l) in labels.iter().enumerate() {
        assert!(l < num_classes, "label out of range");
        per_class[l].push(i);
    }
    let kept_classes: Vec<usize> = (0..num_classes)
        .filter(|&c| per_class[c].len() >= min_instances.max(folds))
        .collect();

    let mut fold = vec![None; labels.len()];
    let mut rng = StdRng::seed_from_u64(seed);
    for &c in &kept_classes {
        let mut idxs = per_class[c].clone();
        idxs.shuffle(&mut rng);
        for (j, &i) in idxs.iter().enumerate() {
            fold[i] = Some(j % folds);
        }
    }
    FoldAssignment { fold, kept_classes }
}

/// Cross-validated macro-F1 estimate of model quality on the given features
/// and single-label targets.
///
/// Returns `None` when fewer than two classes have enough instances to
/// stratify — the signal the bandit uses to skip evaluation at very early
/// iterations.
pub fn cross_validate(
    features: &[Vec<f32>],
    labels: &[usize],
    num_classes: usize,
    cfg: &CrossValConfig,
) -> Option<f64> {
    assert_eq!(features.len(), labels.len());
    if features.is_empty() {
        return None;
    }
    let assignment = stratified_k_fold(
        labels,
        num_classes,
        cfg.folds,
        cfg.min_instances_per_class,
        cfg.seed,
    );
    if assignment.kept_classes.len() < 2 {
        return None;
    }

    // Remap kept classes to a dense range so the per-fold models do not carry
    // unused heads for excluded classes.
    let mut class_map = vec![usize::MAX; num_classes];
    for (dense, &c) in assignment.kept_classes.iter().enumerate() {
        class_map[c] = dense;
    }
    let dense_classes = assignment.kept_classes.len();

    // Each fold trains an independent model, so the folds fan out across
    // `ve-sched`'s coarse task helper; results are collected in fold order
    // (and every per-fold model seeds its own RNG from the config), so the
    // score is identical at any thread count.
    let fold_scores = ve_sched::parallel::par_map_tasks(cfg.folds, |f| {
        let mut train_x: Vec<Vec<f32>> = Vec::new();
        let mut train_y: Vec<usize> = Vec::new();
        let mut test_x: Vec<Vec<f32>> = Vec::new();
        let mut test_y: Vec<usize> = Vec::new();
        for (i, assigned) in assignment.fold.iter().enumerate() {
            let Some(fold) = assigned else { continue };
            let dense = class_map[labels[i]];
            if *fold == f {
                test_x.push(features[i].clone());
                test_y.push(dense);
            } else {
                train_x.push(features[i].clone());
                train_y.push(dense);
            }
        }
        if test_x.is_empty() || train_x.is_empty() {
            return None;
        }
        let distinct_train: std::collections::HashSet<usize> = train_y.iter().copied().collect();
        if distinct_train.len() < 2 {
            return None;
        }
        let model = SoftmaxModel::fit(&train_x, &train_y, dense_classes, &cfg.train);
        let preds: Vec<usize> = test_x.iter().map(|x| model.predict(x)).collect();
        Some(macro_f1(&test_y, &preds, dense_classes))
    });
    let scores: Vec<f64> = fold_scores.into_iter().flatten().collect();
    if scores.is_empty() {
        None
    } else {
        // ve-lint: allow(float-reduction-order) -- scores keep fixed fold order (Vec iteration)
        Some(scores.iter().sum::<f64>() / scores.len() as f64)
    }
}

/// Cross-validated macro-F1 estimate of a one-vs-rest model on the given
/// features and multi-label targets.
///
/// Folds are unstratified: example `i` is tested in fold `i % cfg.folds`,
/// which is adequate because every class appears in many records. Each fold
/// standardizes its training features with its own [`StandardScaler`], and
/// the estimate is the mean of the fold scores in fold order. Returns `None`
/// with fewer than two examples per fold.
pub fn cross_validate_multilabel(
    features: &[Vec<f32>],
    label_sets: &[Vec<usize>],
    num_classes: usize,
    cfg: &CrossValConfig,
) -> Option<f64> {
    assert!(cfg.folds >= 2, "need at least two folds");
    assert_eq!(features.len(), label_sets.len());
    let n = features.len();
    if n < cfg.folds * 2 {
        return None;
    }
    let mut scores = Vec::new();
    for fold in 0..cfg.folds {
        let mut train_x = Vec::new();
        let mut train_y = Vec::new();
        let mut test_x = Vec::new();
        let mut test_y = Vec::new();
        for i in 0..n {
            if i % cfg.folds == fold {
                test_x.push(features[i].clone());
                test_y.push(label_sets[i].clone());
            } else {
                train_x.push(features[i].clone());
                train_y.push(label_sets[i].clone());
            }
        }
        let (scaled_train, scaler) = StandardScaler::fit_transform(&train_x);
        let model = TrainedModel::OneVsRest(OneVsRestModel::fit(
            &scaled_train,
            &train_y,
            num_classes,
            &cfg.train,
        ));
        let preds: Vec<Vec<usize>> = test_x
            .iter()
            .map(|x| model.predict_labels(&scaler.transform(x)))
            .collect();
        scores.push(macro_f1_multilabel(&test_y, &preds, num_classes));
    }
    // ve-lint: allow(float-reduction-order) -- fold scores accumulate in fixed fold order (Vec iteration)
    Some(scores.iter().sum::<f64>() / scores.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

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
    fn stratified_folds_balance_classes() {
        let labels = vec![0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1];
        let a = stratified_k_fold(&labels, 2, 3, 3, 7);
        assert_eq!(a.kept_classes, vec![0, 1]);
        // Every fold must contain both classes.
        for f in 0..3 {
            for c in 0..2 {
                let count = labels
                    .iter()
                    .enumerate()
                    .filter(|(i, &l)| l == c && a.fold[*i] == Some(f))
                    .count();
                assert!(count >= 1, "fold {f} missing class {c}");
            }
        }
    }

    #[test]
    fn classes_below_threshold_are_excluded() {
        let labels = vec![0, 0, 0, 0, 1, 1, 1, 1, 2];
        let a = stratified_k_fold(&labels, 3, 3, 3, 0);
        assert_eq!(a.kept_classes, vec![0, 1]);
        assert!(a.fold[8].is_none(), "lone class-2 example must be excluded");
    }

    #[test]
    fn cross_validate_separable_data_scores_high() {
        let (xs, ys) = blob_dataset(30, &[[0.0, 0.0], [6.0, 6.0]], 0.5, 11);
        let score = cross_validate(&xs, &ys, 2, &CrossValConfig::default()).unwrap();
        assert!(score > 0.9, "score={score}");
    }

    #[test]
    fn cross_validate_random_features_scores_low() {
        // Labels are independent of the features: CV F1 should hover near
        // chance level for 2 classes (≈0.5) or below.
        let mut rng = StdRng::seed_from_u64(13);
        let xs: Vec<Vec<f32>> = (0..120)
            .map(|_| vec![rng.gen::<f32>(), rng.gen::<f32>()])
            .collect();
        let ys: Vec<usize> = (0..120).map(|i| i % 2).collect();
        let score = cross_validate(&xs, &ys, 2, &CrossValConfig::default()).unwrap();
        assert!(score < 0.75, "score={score}");
    }

    #[test]
    fn cross_validate_informative_beats_random_features() {
        let (xs_good, ys) = blob_dataset(40, &[[0.0, 0.0], [5.0, 5.0], [-5.0, 5.0]], 0.8, 17);
        let mut rng = StdRng::seed_from_u64(18);
        let xs_bad: Vec<Vec<f32>> = (0..xs_good.len())
            .map(|_| vec![rng.gen::<f32>(), rng.gen::<f32>()])
            .collect();
        let cfg = CrossValConfig::default();
        let good = cross_validate(&xs_good, &ys, 3, &cfg).unwrap();
        let bad = cross_validate(&xs_bad, &ys, 3, &cfg).unwrap();
        assert!(
            good > bad + 0.2,
            "informative features should clearly win: {good} vs {bad}"
        );
    }

    #[test]
    fn cross_validate_returns_none_with_single_class() {
        let xs = vec![vec![0.0, 1.0]; 10];
        let ys = vec![0usize; 10];
        assert!(cross_validate(&xs, &ys, 3, &CrossValConfig::default()).is_none());
    }

    #[test]
    fn cross_validate_returns_none_with_too_few_labels() {
        let xs = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let ys = vec![0usize, 1];
        assert!(cross_validate(&xs, &ys, 3, &CrossValConfig::default()).is_none());
    }

    #[test]
    fn cross_validate_empty_returns_none() {
        assert!(cross_validate(&[], &[], 3, &CrossValConfig::default()).is_none());
    }

    #[test]
    fn parallel_folds_match_single_threaded_score() {
        let (xs, ys) = blob_dataset(25, &[[0.0, 0.0], [4.0, 4.0], [-4.0, 4.0]], 0.9, 23);
        let cfg = CrossValConfig::default();
        let _guard = ve_sched::parallel::test_parallelism_guard();
        ve_sched::parallel::set_parallelism(1);
        let single = cross_validate(&xs, &ys, 3, &cfg).unwrap();
        for threads in [2, 4] {
            ve_sched::parallel::set_parallelism(threads);
            let multi = cross_validate(&xs, &ys, 3, &cfg).unwrap();
            assert_eq!(single.to_bits(), multi.to_bits(), "{threads} threads");
        }
        ve_sched::parallel::set_parallelism(0);
    }

    /// Label 0 when x > 0, label 1 when y > 0.
    fn quadrant_dataset(n: usize, seed: u64) -> (Vec<Vec<f32>>, Vec<Vec<usize>>) {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let (x, y) = (rng.gen::<f32>() * 4.0 - 2.0, rng.gen::<f32>() * 4.0 - 2.0);
                let labels = [(x > 0.0, 0), (y > 0.0, 1)]
                    .into_iter()
                    .filter_map(|(on, c)| on.then_some(c))
                    .collect();
                (vec![x, y], labels)
            })
            .unzip()
    }

    #[test]
    fn multilabel_cross_validate_separable_data_scores_high() {
        let (xs, ls) = quadrant_dataset(120, 31);
        let score = cross_validate_multilabel(&xs, &ls, 2, &CrossValConfig::default()).unwrap();
        assert!(score > 0.85, "score={score}");
    }

    #[test]
    fn multilabel_cross_validate_needs_two_examples_per_fold() {
        let (xs, ls) = quadrant_dataset(6, 32);
        let cfg = CrossValConfig::default();
        assert!(cross_validate_multilabel(&xs[..5], &ls[..5], 2, &cfg).is_none());
        assert!(cross_validate_multilabel(&xs, &ls, 2, &cfg).is_some());
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn stratified_k_fold_rejects_one_fold() {
        stratified_k_fold(&[0, 1], 2, 1, 1, 0);
    }
}
