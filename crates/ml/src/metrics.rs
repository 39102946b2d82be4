//! Classification metrics. The paper evaluates every experiment with the
//! **macro F1 score** computed over a held-out evaluation set (Section 5,
//! Metrics), and the ALM internally estimates feature quality with macro F1
//! over cross-validation splits.

/// Confusion matrix for a single-label task: `matrix[true][pred]`.
pub fn confusion_matrix(y_true: &[usize], y_pred: &[usize], num_classes: usize) -> Vec<Vec<usize>> {
    assert_eq!(y_true.len(), y_pred.len(), "length mismatch");
    let mut m = vec![vec![0usize; num_classes]; num_classes];
    for (&t, &p) in y_true.iter().zip(y_pred) {
        assert!(t < num_classes && p < num_classes, "class out of range");
        m[t][p] += 1;
    }
    m
}

/// Per-class precision, recall, and F1 for a single-label task.
///
/// Classes with no true and no predicted instances get an F1 of 0, matching
/// scikit-learn's `f1_score(average=None, zero_division=0)` convention that
/// the paper's prototype relies on (macro F1 over the *full* vocabulary, even
/// when some classes have no labels yet).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassificationReport {
    /// Per-class precision.
    pub precision: Vec<f64>,
    /// Per-class recall.
    pub recall: Vec<f64>,
    /// Per-class F1.
    pub f1: Vec<f64>,
    /// Per-class support (number of true instances).
    pub support: Vec<usize>,
}

impl ClassificationReport {
    /// Macro-averaged F1 across all classes.
    pub fn macro_f1(&self) -> f64 {
        if self.f1.is_empty() {
            return 0.0;
        }
        // ve-lint: allow(float-reduction-order) -- per-class scores are in fixed class order
        self.f1.iter().sum::<f64>() / self.f1.len() as f64
    }

    /// Macro F1 restricted to classes with at least one true instance.
    pub fn macro_f1_present_classes(&self) -> f64 {
        let present: Vec<f64> = self
            .f1
            .iter()
            .zip(&self.support)
            .filter(|(_, &s)| s > 0)
            .map(|(&f, _)| f)
            .collect();
        if present.is_empty() {
            0.0
        } else {
            // ve-lint: allow(float-reduction-order) -- per-class scores are in fixed class order
            present.iter().sum::<f64>() / present.len() as f64
        }
    }
}

/// Builds a [`ClassificationReport`] from single-label predictions.
pub fn per_class_f1(
    y_true: &[usize],
    y_pred: &[usize],
    num_classes: usize,
) -> ClassificationReport {
    let cm = confusion_matrix(y_true, y_pred, num_classes);
    let mut precision = vec![0.0; num_classes];
    let mut recall = vec![0.0; num_classes];
    let mut f1 = vec![0.0; num_classes];
    let mut support = vec![0usize; num_classes];
    for c in 0..num_classes {
        let tp = cm[c][c] as f64;
        let fp: f64 = (0..num_classes)
            .filter(|&t| t != c)
            .map(|t| cm[t][c] as f64)
            // ve-lint: allow(float-reduction-order) -- range iteration order is fixed
            .sum::<f64>();
        let fn_: f64 = (0..num_classes)
            .filter(|&p| p != c)
            .map(|p| cm[c][p] as f64)
            // ve-lint: allow(float-reduction-order) -- range iteration order is fixed
            .sum::<f64>();
        support[c] = cm[c].iter().sum::<usize>();
        precision[c] = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
        recall[c] = if tp + fn_ > 0.0 { tp / (tp + fn_) } else { 0.0 };
        f1[c] = if precision[c] + recall[c] > 0.0 {
            2.0 * precision[c] * recall[c] / (precision[c] + recall[c])
        } else {
            0.0
        };
    }
    ClassificationReport {
        precision,
        recall,
        f1,
        support,
    }
}

/// Macro F1 over the full vocabulary for a single-label task.
pub fn macro_f1(y_true: &[usize], y_pred: &[usize], num_classes: usize) -> f64 {
    per_class_f1(y_true, y_pred, num_classes).macro_f1()
}

/// Simple accuracy for a single-label task.
pub fn accuracy(y_true: &[usize], y_pred: &[usize]) -> f64 {
    assert_eq!(y_true.len(), y_pred.len());
    if y_true.is_empty() {
        return 0.0;
    }
    let correct = y_true.iter().zip(y_pred).filter(|(t, p)| t == p).count();
    correct as f64 / y_true.len() as f64
}

/// Macro F1 for a multi-label task. `y_true` / `y_pred` hold, per example,
/// the set of positive class indices (predictions as
/// [`crate::linear::TrainedModel::predict_labels`] yields them).
pub fn macro_f1_multilabel(
    y_true: &[Vec<usize>],
    y_pred: &[Vec<usize>],
    num_classes: usize,
) -> f64 {
    assert_eq!(y_true.len(), y_pred.len(), "length mismatch");
    let mut tp = vec![0.0f64; num_classes];
    let mut fp = vec![0.0f64; num_classes];
    let mut fn_ = vec![0.0f64; num_classes];
    for (truth, pred) in y_true.iter().zip(y_pred) {
        for c in 0..num_classes {
            let t = truth.contains(&c);
            let p = pred.contains(&c);
            match (t, p) {
                (true, true) => tp[c] += 1.0,
                (false, true) => fp[c] += 1.0,
                (true, false) => fn_[c] += 1.0,
                (false, false) => {}
            }
        }
    }
    let mut total = 0.0;
    for c in 0..num_classes {
        let prec = if tp[c] + fp[c] > 0.0 {
            tp[c] / (tp[c] + fp[c])
        } else {
            0.0
        };
        let rec = if tp[c] + fn_[c] > 0.0 {
            tp[c] / (tp[c] + fn_[c])
        } else {
            0.0
        };
        total += if prec + rec > 0.0 {
            2.0 * prec * rec / (prec + rec)
        } else {
            0.0
        };
    }
    total / num_classes as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_matrix_basic() {
        let cm = confusion_matrix(&[0, 1, 1, 2], &[0, 1, 0, 2], 3);
        assert_eq!(cm[0][0], 1);
        assert_eq!(cm[1][1], 1);
        assert_eq!(cm[1][0], 1);
        assert_eq!(cm[2][2], 1);
    }

    #[test]
    fn perfect_predictions_give_f1_one() {
        let y = vec![0, 1, 2, 0, 1, 2];
        assert!((macro_f1(&y, &y, 3) - 1.0).abs() < 1e-12);
        assert!((accuracy(&y, &y) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn all_wrong_predictions_give_f1_zero() {
        let y_true = vec![0, 0, 1, 1];
        let y_pred = vec![1, 1, 0, 0];
        assert!(macro_f1(&y_true, &y_pred, 2) < 1e-12);
    }

    #[test]
    fn macro_f1_penalizes_ignoring_minority_class() {
        // Predicting the majority class everywhere: class 1 recall = 0.
        let y_true = vec![0, 0, 0, 0, 0, 0, 0, 0, 1, 1];
        let y_pred = vec![0; 10];
        let f1 = macro_f1(&y_true, &y_pred, 2);
        // Class 0: P=0.8, R=1.0 -> F1≈0.889. Class 1: 0. Macro ≈ 0.444.
        assert!((f1 - 0.4444).abs() < 0.01, "f1={f1}");
        // Accuracy looks deceptively high.
        assert!((accuracy(&y_true, &y_pred) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn unlabeled_vocabulary_classes_drag_macro_f1_down() {
        // Vocabulary of 4 classes, but only classes 0 and 1 appear.
        let y_true = vec![0, 0, 1, 1];
        let y_pred = vec![0, 0, 1, 1];
        let report = per_class_f1(&y_true, &y_pred, 4);
        assert!((report.macro_f1() - 0.5).abs() < 1e-12);
        assert!((report.macro_f1_present_classes() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn report_precision_recall_values() {
        let y_true = vec![0, 0, 1, 1, 1];
        let y_pred = vec![0, 1, 1, 1, 0];
        let r = per_class_f1(&y_true, &y_pred, 2);
        assert!((r.precision[0] - 0.5).abs() < 1e-12);
        assert!((r.recall[0] - 0.5).abs() < 1e-12);
        assert!((r.precision[1] - 2.0 / 3.0).abs() < 1e-12);
        assert!((r.recall[1] - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(r.support, vec![2, 3]);
    }

    #[test]
    fn multilabel_macro_f1_basic() {
        let y_true = vec![vec![0, 1], vec![1], vec![], vec![0]];
        let y_pred = vec![vec![0, 1], vec![1], vec![], vec![0]];
        assert!((macro_f1_multilabel(&y_true, &y_pred, 2) - 1.0).abs() < 1e-12);

        // Class 0: tp=0 → F1 0. Class 1: P=R=0.5 → F1 0.5. Macro = 0.25.
        let y_pred_bad = vec![vec![1], vec![0], vec![0], vec![1]];
        assert!((macro_f1_multilabel(&y_true, &y_pred_bad, 2) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn multilabel_partial_overlap() {
        let y_true = vec![vec![0, 1], vec![0]];
        let y_pred = vec![vec![0], vec![0, 1]];
        // Class 0: tp=2, fp=0, fn=0 -> F1 = 1.
        // Class 1: tp=0, fp=1, fn=1 -> F1 = 0.
        let f1 = macro_f1_multilabel(&y_true, &y_pred, 2);
        assert!((f1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn accuracy_of_empty_is_zero() {
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn confusion_matrix_rejects_mismatched_lengths() {
        confusion_matrix(&[0, 1], &[0], 2);
    }

    #[test]
    #[should_panic(expected = "class out of range")]
    fn confusion_matrix_rejects_out_of_range() {
        confusion_matrix(&[0, 3], &[0, 1], 2);
    }
}
