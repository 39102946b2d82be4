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
//!
//! The bandit scores every surviving extractor on each round, so the unit of
//! work is a *round*: [`cross_validate_round`] takes one problem per
//! candidate feature and fits all of their fold models in one fan-out over
//! the compute threads. [`cross_validate`] and [`cross_validate_multilabel`]
//! are its one-problem calls, and every estimate is bit-identical to
//! scoring its problem alone, at any thread count.

use crate::linear::{Classifier, OneVsRestModel, SoftmaxModel, Targets, TrainConfig, TrainedModel};
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
/// and single-label targets: a one-problem [`cross_validate_round`].
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
    let targets = Targets::Single(labels.to_vec());
    only_score(cross_validate_round(
        &[(features, &targets)],
        num_classes,
        cfg,
    ))
}

/// Cross-validated macro-F1 estimate of a one-vs-rest model on the given
/// features and multi-label targets: a one-problem [`cross_validate_round`].
///
/// Folds are unstratified: example `i` is tested in fold `i % cfg.folds`,
/// which is adequate because every class appears in many records. Each fold
/// standardizes its training features with its own [`StandardScaler`].
/// Returns `None` with fewer than two examples per fold.
pub fn cross_validate_multilabel(
    features: &[Vec<f32>],
    label_sets: &[Vec<usize>],
    num_classes: usize,
    cfg: &CrossValConfig,
) -> Option<f64> {
    let targets = Targets::Multi(label_sets.to_vec());
    only_score(cross_validate_round(
        &[(features, &targets)],
        num_classes,
        cfg,
    ))
}

fn only_score(scores: Vec<Option<f64>>) -> Option<f64> {
    scores.into_iter().next().flatten()
}

/// Cross-validates a whole round of problems — one `(features, targets)`
/// pair per candidate feature — and returns one estimate per problem, in
/// problem order.
///
/// Every (problem, fold) model is independent, so all of them fan out
/// through **one** `ve-sched` [`par_map_tasks`](ve_sched::parallel::par_map_tasks)
/// call: a compute thread that finishes one fold takes the next, whichever
/// problem it belongs to. Each problem's fold scores are then averaged in
/// fold order, and every fold model seeds its own RNG from the config, so
/// each estimate is bit-identical to cross-validating that problem alone, at
/// any thread count.
///
/// Single-label problems use [`stratified_k_fold`] over classes with at
/// least `min_instances_per_class` examples, remapped to a dense class
/// range, and score `None` with fewer than two such classes. Multi-label
/// problems use round-robin folds and score `None` with fewer than two
/// examples per fold.
///
/// # Panics
/// Panics when a problem's features and targets differ in length, or when
/// `cfg.folds < 2`.
pub fn cross_validate_round(
    problems: &[(&[Vec<f32>], &Targets)],
    num_classes: usize,
    cfg: &CrossValConfig,
) -> Vec<Option<f64>> {
    let plans: Vec<Option<FoldPlan>> = problems
        .iter()
        .map(|&(features, targets)| FoldPlan::new(features, targets, num_classes, cfg))
        .collect();
    score_plans(&plans, cfg)
}

/// How one problem's examples split into folds.
enum Folds<'a> {
    /// Single-label: `assignment` over the kept classes, which `class_map`
    /// renumbers densely (excluded classes map to `usize::MAX`).
    Stratified {
        labels: &'a [usize],
        assignment: FoldAssignment,
        class_map: Vec<usize>,
    },
    /// Multi-label: example `i` is tested in fold `i % folds`.
    RoundRobin {
        label_sets: &'a [Vec<usize>],
        num_classes: usize,
    },
}

/// One problem, ready for its fold models to be fitted.
struct FoldPlan<'a> {
    features: &'a [Vec<f32>],
    folds: Folds<'a>,
}

impl<'a> FoldPlan<'a> {
    /// The problem's fold plan, or `None` when it cannot be scored.
    fn new(
        features: &'a [Vec<f32>],
        targets: &'a Targets,
        num_classes: usize,
        cfg: &CrossValConfig,
    ) -> Option<Self> {
        assert!(cfg.folds >= 2, "need at least two folds");
        assert_eq!(features.len(), targets.len());
        match targets {
            Targets::Single(labels) => {
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
                Self::stratified(features, labels, assignment, num_classes)
            }
            Targets::Multi(label_sets) => (features.len() >= cfg.folds * 2).then_some(Self {
                features,
                folds: Folds::RoundRobin {
                    label_sets,
                    num_classes,
                },
            }),
        }
    }

    /// A single-label plan over a given fold assignment; `None` with fewer
    /// than two kept classes.
    fn stratified(
        features: &'a [Vec<f32>],
        labels: &'a [usize],
        assignment: FoldAssignment,
        num_classes: usize,
    ) -> Option<Self> {
        if assignment.kept_classes.len() < 2 {
            return None;
        }
        // Remap kept classes to a dense range so the per-fold models do not
        // carry unused heads for excluded classes.
        let mut class_map = vec![usize::MAX; num_classes];
        for (dense, &c) in assignment.kept_classes.iter().enumerate() {
            class_map[c] = dense;
        }
        Some(Self {
            features,
            folds: Folds::Stratified {
                labels,
                assignment,
                class_map,
            },
        })
    }

    /// Fits fold `f`'s model on the other folds and returns its macro F1 on
    /// fold `f`. A stratified fold scores `None` when its test set is empty
    /// or its training set holds fewer than two classes.
    fn fold_score(&self, f: usize, cfg: &CrossValConfig) -> Option<f64> {
        let features = self.features;
        match &self.folds {
            Folds::Stratified {
                labels,
                assignment,
                class_map,
            } => {
                let dense_classes = assignment.kept_classes.len();
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
                let distinct_train: std::collections::HashSet<usize> =
                    train_y.iter().copied().collect();
                if distinct_train.len() < 2 {
                    return None;
                }
                let model = SoftmaxModel::fit(&train_x, &train_y, dense_classes, &cfg.train);
                let preds: Vec<usize> = test_x.iter().map(|x| model.predict(x)).collect();
                Some(macro_f1(&test_y, &preds, dense_classes))
            }
            Folds::RoundRobin {
                label_sets,
                num_classes,
            } => {
                let mut train_x = Vec::new();
                let mut train_y = Vec::new();
                let mut test_x = Vec::new();
                let mut test_y = Vec::new();
                for (i, (x, y)) in features.iter().zip(label_sets.iter()).enumerate() {
                    if i % cfg.folds == f {
                        test_x.push(x.clone());
                        test_y.push(y.clone());
                    } else {
                        train_x.push(x.clone());
                        train_y.push(y.clone());
                    }
                }
                let (scaled_train, scaler) = StandardScaler::fit_transform(&train_x);
                let model = TrainedModel::OneVsRest(OneVsRestModel::fit(
                    &scaled_train,
                    &train_y,
                    *num_classes,
                    &cfg.train,
                ));
                let preds: Vec<Vec<usize>> = test_x
                    .iter()
                    .map(|x| model.predict_labels(&scaler.transform(x)))
                    .collect();
                Some(macro_f1_multilabel(&test_y, &preds, *num_classes))
            }
        }
    }
}

/// Fits every (plan, fold) model in one fan-out and averages each plan's
/// fold scores in fold order; `None` for a missing plan or one whose folds
/// all scored `None`.
fn score_plans(plans: &[Option<FoldPlan>], cfg: &CrossValConfig) -> Vec<Option<f64>> {
    let jobs: Vec<(&FoldPlan, usize)> = plans
        .iter()
        .flatten()
        .flat_map(|plan| (0..cfg.folds).map(move |f| (plan, f)))
        .collect();
    let mut fold_scores = ve_sched::parallel::par_map_tasks(jobs.len(), |j| {
        let (plan, f) = jobs[j];
        plan.fold_score(f, cfg)
    })
    .into_iter();
    plans
        .iter()
        .map(|plan| {
            plan.as_ref()?;
            let scores: Vec<f64> = fold_scores.by_ref().take(cfg.folds).flatten().collect();
            if scores.is_empty() {
                None
            } else {
                // ve-lint: allow(float-reduction-order) -- scores keep fixed fold order (Vec iteration)
                Some(scores.iter().sum::<f64>() / scores.len() as f64)
            }
        })
        .collect()
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

    /// The per-problem fold loop of [`cross_validate`] before rounds
    /// existed: each fold fitted in turn, scores averaged in fold order.
    fn oracle_single(
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
        oracle_stratified(features, labels, &assignment, num_classes, cfg)
    }

    /// [`oracle_single`] over a given fold assignment.
    fn oracle_stratified(
        features: &[Vec<f32>],
        labels: &[usize],
        assignment: &FoldAssignment,
        num_classes: usize,
        cfg: &CrossValConfig,
    ) -> Option<f64> {
        if assignment.kept_classes.len() < 2 {
            return None;
        }
        let mut class_map = vec![usize::MAX; num_classes];
        for (dense, &c) in assignment.kept_classes.iter().enumerate() {
            class_map[c] = dense;
        }
        let dense_classes = assignment.kept_classes.len();
        let mut scores = Vec::new();
        for f in 0..cfg.folds {
            let (mut train_x, mut train_y, mut test_x, mut test_y) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
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
            let mut distinct_train = train_y.clone();
            distinct_train.sort_unstable();
            distinct_train.dedup();
            if test_x.is_empty() || distinct_train.len() < 2 {
                continue;
            }
            let model = SoftmaxModel::fit(&train_x, &train_y, dense_classes, &cfg.train);
            let preds: Vec<usize> = test_x.iter().map(|x| model.predict(x)).collect();
            scores.push(macro_f1(&test_y, &preds, dense_classes));
        }
        if scores.is_empty() {
            return None;
        }
        let mut sum = 0.0;
        for s in &scores {
            sum += s;
        }
        Some(sum / scores.len() as f64)
    }

    /// The per-problem fold loop of [`cross_validate_multilabel`] before
    /// rounds existed.
    fn oracle_multilabel(
        features: &[Vec<f32>],
        label_sets: &[Vec<usize>],
        num_classes: usize,
        cfg: &CrossValConfig,
    ) -> Option<f64> {
        let n = features.len();
        if n < cfg.folds * 2 {
            return None;
        }
        let mut sum = 0.0;
        for fold in 0..cfg.folds {
            let (mut train_x, mut train_y, mut test_x, mut test_y) =
                (Vec::new(), Vec::new(), Vec::new(), Vec::new());
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
            let model = OneVsRestModel::fit(&scaled_train, &train_y, num_classes, &cfg.train);
            let preds: Vec<Vec<usize>> = test_x
                .iter()
                .map(|x| {
                    TrainedModel::OneVsRest(model.clone()).predict_labels(&scaler.transform(x))
                })
                .collect();
            sum += macro_f1_multilabel(&test_y, &preds, num_classes);
        }
        Some(sum / cfg.folds as f64)
    }

    fn oracle(features: &[Vec<f32>], targets: &Targets, num_classes: usize) -> Option<f64> {
        let cfg = CrossValConfig::default();
        match targets {
            Targets::Single(labels) => oracle_single(features, labels, num_classes, &cfg),
            Targets::Multi(sets) => oracle_multilabel(features, sets, num_classes, &cfg),
        }
    }

    /// Problems whose fold scores are far from 0 and 1, enough of them that
    /// summing some problem's folds out of order changes its bits; plus every
    /// way a problem scores `None`.
    fn single_label_problems() -> Vec<(Vec<Vec<f32>>, Targets)> {
        let noisy = |n, seed| {
            let (xs, ys) = blob_dataset(n, &[[0.0, 0.0], [2.0, 2.0], [-2.0, 2.0]], 2.5, seed);
            (xs, Targets::Single(ys))
        };
        let mut out: Vec<_> = (0..24).map(|k| noisy(10 + k, 40 + k as u64)).collect();
        // Too few labels: no class reaches three instances.
        out.push((
            vec![vec![0.0, 1.0], vec![1.0, 0.0]],
            Targets::Single(vec![0, 1]),
        ));
        // Fewer than two kept classes.
        out.push((vec![vec![0.5, 0.5]; 9], Targets::Single(vec![2; 9])));
        // No examples at all.
        out.push((Vec::new(), Targets::Single(Vec::new())));
        out
    }

    fn multi_label_problems() -> Vec<(Vec<Vec<f32>>, Targets)> {
        let mut out: Vec<_> = [24, 31, 40, 55]
            .into_iter()
            .enumerate()
            .map(|(k, n)| {
                let (mut xs, ls) = quadrant_dataset(n, 70 + k as u64);
                let mut rng = StdRng::seed_from_u64(80 + k as u64);
                for x in &mut xs {
                    x[0] += rng.gen::<f32>() * 3.0 - 1.5;
                }
                (xs, Targets::Multi(ls))
            })
            .collect();
        // Fewer than two examples per fold.
        let (xs, ls) = quadrant_dataset(5, 90);
        out.push((xs, Targets::Multi(ls)));
        out
    }

    /// Checks `cross_validate_round` against the per-problem oracle on
    /// rounds of 0, 1 and 5 problems drawn in a scrambled order, at 1 and 4
    /// threads.
    fn assert_rounds_match_oracle(problems: &[(Vec<Vec<f32>>, Targets)], num_classes: usize) {
        let expected: Vec<Option<u64>> = problems
            .iter()
            .map(|(xs, t)| oracle(xs, t, num_classes).map(f64::to_bits))
            .collect();
        assert!(
            expected.iter().filter(|e| e.is_some()).count() >= 3,
            "the fixture must hold scorable problems"
        );
        let n = problems.len();
        let rounds: [Vec<usize>; 3] = [
            Vec::new(),
            vec![n - 1],
            (0..5).map(|k| (k * 3 + 2) % n).collect(),
        ];
        let _guard = ve_sched::parallel::test_parallelism_guard();
        for threads in [1, 4] {
            ve_sched::parallel::set_parallelism(threads);
            for round in &rounds {
                let batch: Vec<(&[Vec<f32>], &Targets)> = round
                    .iter()
                    .map(|&p| (problems[p].0.as_slice(), &problems[p].1))
                    .collect();
                let got: Vec<Option<u64>> =
                    cross_validate_round(&batch, num_classes, &CrossValConfig::default())
                        .into_iter()
                        .map(|s| s.map(f64::to_bits))
                        .collect();
                let want: Vec<Option<u64>> = round.iter().map(|&p| expected[p]).collect();
                assert_eq!(got, want, "round {round:?} at {threads} threads");
            }
        }
        ve_sched::parallel::set_parallelism(0);
    }

    #[test]
    fn single_label_round_matches_per_problem_oracle() {
        let problems = single_label_problems();
        assert_rounds_match_oracle(&problems, 3);
        // The one-problem call is the same round.
        for (xs, t) in &problems {
            let Targets::Single(ys) = t else {
                unreachable!()
            };
            assert_eq!(
                cross_validate(xs, ys, 3, &CrossValConfig::default()).map(f64::to_bits),
                oracle(xs, t, 3).map(f64::to_bits)
            );
        }
    }

    #[test]
    fn multi_label_round_matches_per_problem_oracle() {
        let problems = multi_label_problems();
        assert_rounds_match_oracle(&problems, 2);
        for (xs, t) in &problems {
            let Targets::Multi(ls) = t else {
                unreachable!()
            };
            assert_eq!(
                cross_validate_multilabel(xs, ls, 2, &CrossValConfig::default()).map(f64::to_bits),
                oracle(xs, t, 2).map(f64::to_bits)
            );
        }
    }

    #[test]
    fn a_fold_with_one_training_class_is_left_out_of_the_mean() {
        // Stratified folds always train on every kept class, so the guard is
        // reached only through a hand-made assignment: class 1 sits entirely
        // in fold 0, whose training set is then class 0 alone.
        let (xs, ys) = blob_dataset(6, &[[0.0, 0.0], [2.0, 2.0]], 2.5, 5);
        let fold = |assign: &dyn Fn(usize, usize) -> usize| FoldAssignment {
            fold: ys
                .iter()
                .enumerate()
                .map(|(i, &y)| Some(assign(i, y)))
                .collect(),
            kept_classes: vec![0, 1],
        };
        let cfg = CrossValConfig::default();
        let partial = fold(&|i, y| if y == 1 { 0 } else { i % 3 });
        let none = fold(&|_, y| y);
        for (assignment, scored) in [(partial, true), (none, false)] {
            let want = oracle_stratified(&xs, &ys, &assignment, 2, &cfg);
            assert_eq!(want.is_some(), scored);
            let plan = FoldPlan::stratified(&xs, &ys, assignment, 2);
            assert_eq!(plan.as_ref().unwrap().fold_score(0, &cfg), None);
            let got = score_plans(&[plan], &cfg);
            assert_eq!(got[0].map(f64::to_bits), want.map(f64::to_bits));
        }
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn stratified_k_fold_rejects_one_fold() {
        stratified_k_fold(&[0, 1], 2, 1, 1, 0);
    }
}
