//! Oracle labelers.
//!
//! The paper's evaluation "simulate\[s\] a labeling task by creating an oracle
//! 'user' that labels video segments with their ground-truth labels"
//! (Section 5). [`GroundTruthOracle`] implements that user; [`NoisyOracle`]
//! randomly corrupts a configurable fraction of labels for the Section 5.5
//! label-quality experiment (Figure 9: 5 %, 10 %, 20 % noise).

use crate::corpus::VideoCorpus;
use crate::types::{ClassId, TaskKind, TimeRange, VideoId};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A (simulated) user that can label a video segment.
pub trait Oracle: Send + Sync {
    /// Returns the activity labels for the given video segment, or an empty
    /// vector if the video is unknown or nothing is present.
    fn label(&self, corpus: &VideoCorpus, vid: VideoId, range: &TimeRange) -> Vec<ClassId>;

    /// Simulated wall-clock seconds the user needs to watch and label one
    /// segment (`T_user` in Section 4; the paper's experiments use 10 s).
    fn seconds_per_label(&self) -> f64 {
        10.0
    }
}

/// Labels segments with their exact ground truth.
#[derive(Debug, Clone)]
pub struct GroundTruthOracle {
    task: TaskKind,
    seconds_per_label: f64,
}

impl GroundTruthOracle {
    /// Creates an oracle for the given task kind with the paper's default
    /// labeling time of 10 seconds per segment.
    pub fn new(task: TaskKind) -> Self {
        Self {
            task,
            seconds_per_label: 10.0,
        }
    }

    /// Overrides the simulated labeling time.
    pub fn with_seconds_per_label(mut self, secs: f64) -> Self {
        assert!(secs >= 0.0);
        self.seconds_per_label = secs;
        self
    }

    /// The task kind this oracle labels for.
    pub fn task(&self) -> TaskKind {
        self.task
    }
}

impl Oracle for GroundTruthOracle {
    fn label(&self, corpus: &VideoCorpus, vid: VideoId, range: &TimeRange) -> Vec<ClassId> {
        let Some(clip) = corpus.get(vid) else {
            return Vec::new();
        };
        let classes = clip.classes_in(range);
        match self.task {
            // For single-label tasks the user reports the dominant activity:
            // the class of the segment containing the midpoint of the window.
            TaskKind::SingleLabel => clip
                .segment_at(range.midpoint().min(clip.duration - 1e-9))
                .and_then(|s| s.primary_class())
                .map(|c| vec![c])
                .unwrap_or_else(|| classes.into_iter().take(1).collect()),
            TaskKind::MultiLabel => classes,
        }
    }

    fn seconds_per_label(&self) -> f64 {
        self.seconds_per_label
    }
}

/// Wraps another oracle and randomly corrupts a fraction of its answers.
///
/// For single-label answers the corrupted label is replaced by a uniformly
/// random different class; for multi-label answers each corrupted answer has
/// one class flipped (added if absent, removed if present).
pub struct NoisyOracle<O: Oracle> {
    inner: O,
    noise: f64,
    num_classes: usize,
    rng: Mutex<StdRng>,
}

impl<O: Oracle> NoisyOracle<O> {
    /// Creates a noisy oracle flipping labels with probability `noise`.
    ///
    /// # Panics
    /// Panics if `noise` is outside `[0, 1]` or `num_classes < 2`.
    pub fn new(inner: O, noise: f64, num_classes: usize, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&noise), "noise must be in [0, 1]");
        assert!(num_classes >= 2, "need at least two classes to corrupt");
        Self {
            inner,
            noise,
            num_classes,
            rng: Mutex::new(StdRng::seed_from_u64(seed)),
        }
    }

    /// The configured corruption probability.
    pub fn noise(&self) -> f64 {
        self.noise
    }
}

impl<O: Oracle> Oracle for NoisyOracle<O> {
    fn label(&self, corpus: &VideoCorpus, vid: VideoId, range: &TimeRange) -> Vec<ClassId> {
        let truth = self.inner.label(corpus, vid, range);
        let mut rng = self.rng.lock();
        if rng.gen::<f64>() >= self.noise {
            return truth;
        }
        // Corrupt the answer.
        if truth.len() <= 1 {
            // Single-label (or empty): replace with a different random class.
            let current = truth.first().copied();
            loop {
                let candidate = rng.gen_range(0..self.num_classes);
                if Some(candidate) != current {
                    return vec![candidate];
                }
            }
        }
        // Multi-label: flip one random class.
        let mut corrupted = truth.clone();
        let flip = rng.gen_range(0..self.num_classes);
        if let Some(pos) = corrupted.iter().position(|&c| c == flip) {
            corrupted.remove(pos);
        } else {
            corrupted.push(flip);
        }
        corrupted
    }

    fn seconds_per_label(&self) -> f64 {
        self.inner.seconds_per_label()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{Dataset, DatasetName};

    fn deer() -> Dataset {
        Dataset::scaled(DatasetName::Deer, 0.1, 1)
    }

    #[test]
    fn ground_truth_oracle_returns_segment_class() {
        let ds = deer();
        let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
        let vid = ds.train.videos()[0].id;
        let labels = oracle.label(&ds.train, vid, &TimeRange::new(0.0, 1.0));
        assert_eq!(labels.len(), 1);
        let truth = ds.train.videos()[0].segments[0].classes.clone();
        assert_eq!(labels, truth);
    }

    #[test]
    fn ground_truth_oracle_unknown_video_is_empty() {
        let ds = deer();
        let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
        assert!(oracle
            .label(&ds.train, VideoId(9_999_999), &TimeRange::new(0.0, 1.0))
            .is_empty());
    }

    #[test]
    fn multilabel_oracle_returns_all_present_classes() {
        let ds = Dataset::scaled(DatasetName::Bdd, 0.2, 2);
        let oracle = GroundTruthOracle::new(TaskKind::MultiLabel);
        let clip = &ds.train.videos()[0];
        let whole = TimeRange::new(0.0, clip.duration);
        let labels = oracle.label(&ds.train, clip.id, &whole);
        assert_eq!(labels, clip.classes_in(&whole));
    }

    #[test]
    fn default_labeling_time_is_ten_seconds() {
        let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
        assert_eq!(oracle.seconds_per_label(), 10.0);
        let fast = GroundTruthOracle::new(TaskKind::SingleLabel).with_seconds_per_label(2.0);
        assert_eq!(fast.seconds_per_label(), 2.0);
    }

    #[test]
    fn zero_noise_oracle_matches_ground_truth() {
        let ds = deer();
        let truth = GroundTruthOracle::new(TaskKind::SingleLabel);
        let noisy = NoisyOracle::new(GroundTruthOracle::new(TaskKind::SingleLabel), 0.0, 9, 3);
        for v in ds.train.videos().iter().take(20) {
            let r = TimeRange::new(0.0, 1.0);
            assert_eq!(
                noisy.label(&ds.train, v.id, &r),
                truth.label(&ds.train, v.id, &r)
            );
        }
    }

    #[test]
    fn noisy_oracle_flips_roughly_the_configured_fraction() {
        let ds = deer();
        let truth = GroundTruthOracle::new(TaskKind::SingleLabel);
        let noisy = NoisyOracle::new(GroundTruthOracle::new(TaskKind::SingleLabel), 0.2, 9, 5);
        let mut flipped = 0;
        let mut total = 0;
        for v in ds.train.videos() {
            for s in 0..v.num_windows(1.0) {
                let r = TimeRange::new(s as f64, s as f64 + 1.0);
                let t = truth.label(&ds.train, v.id, &r);
                let n = noisy.label(&ds.train, v.id, &r);
                total += 1;
                if t != n {
                    flipped += 1;
                }
            }
        }
        let rate = flipped as f64 / total as f64;
        assert!(
            (rate - 0.2).abs() < 0.05,
            "flip rate {rate} should be near 0.2 over {total} labels"
        );
    }

    #[test]
    fn corrupted_single_label_is_always_a_different_class() {
        let ds = deer();
        let truth = GroundTruthOracle::new(TaskKind::SingleLabel);
        let noisy = NoisyOracle::new(GroundTruthOracle::new(TaskKind::SingleLabel), 1.0, 9, 7);
        for v in ds.train.videos().iter().take(30) {
            let r = TimeRange::new(2.0, 3.0);
            let t = truth.label(&ds.train, v.id, &r);
            let n = noisy.label(&ds.train, v.id, &r);
            assert_ne!(t, n, "with 100% noise every label must change");
            assert!(n[0] < 9);
        }
    }

    #[test]
    #[should_panic(expected = "noise must be in [0, 1]")]
    fn rejects_invalid_noise() {
        NoisyOracle::new(GroundTruthOracle::new(TaskKind::SingleLabel), 1.5, 4, 0);
    }
}
