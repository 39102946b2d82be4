//! The model registry: metadata for every trained model plus the in-memory
//! handle of the most recent model per feature extractor.
//!
//! The paper's Model Manager "maintains one model per feature extractor" and
//! is non-blocking: "while a new model is training, the MM serves requests
//! for labels using the previously trained model" (Section 2.3). The registry
//! is the piece of state that makes that possible — model training tasks
//! publish here, inference reads the latest published handle.

#![allow(clippy::disallowed_types)] // HashMap by design: order-exposing uses are policed by ve-lint nondeterministic-iteration

use std::collections::HashMap;
use std::sync::Arc;
use ve_features::ExtractorId;

/// Metadata about one trained model version.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelRecord {
    /// Monotonically increasing model version (unique across extractors).
    pub version: u64,
    /// Which feature extractor the model consumes.
    pub extractor: ExtractorId,
    /// How many labels were available when training started.
    pub trained_on_labels: usize,
    /// Exploration iteration at which training was scheduled.
    pub iteration: u32,
    /// Cross-validated macro F1 at training time, if evaluated.
    pub cv_f1: Option<f64>,
}

/// Registry of trained models. Generic over the model handle type so the
/// storage crate does not depend on the model implementation.
#[derive(Debug)]
pub struct ModelRegistry<M> {
    latest: HashMap<ExtractorId, (ModelRecord, Arc<M>)>,
    history: Vec<ModelRecord>,
    /// Per-extractor index into the history: every version ever published for
    /// that extractor, ascending. Keeps per-extractor lookups (latest version,
    /// publication count, history walks) O(1)/O(own-history) instead of
    /// scanning the global record list.
    by_extractor: HashMap<ExtractorId, Vec<u64>>,
    next_version: u64,
}

impl<M> Default for ModelRegistry<M> {
    fn default() -> Self {
        Self {
            latest: HashMap::new(),
            history: Vec::new(),
            by_extractor: HashMap::new(),
            next_version: 0,
        }
    }
}

impl<M> ModelRegistry<M> {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a newly trained model for an extractor and returns its
    /// assigned version. The previous model for that extractor (if any) is
    /// replaced but its record remains in the history.
    pub fn publish(
        &mut self,
        extractor: ExtractorId,
        trained_on_labels: usize,
        iteration: u32,
        cv_f1: Option<f64>,
        model: Arc<M>,
    ) -> u64 {
        let version = self.next_version;
        self.next_version += 1;
        let record = ModelRecord {
            version,
            extractor,
            trained_on_labels,
            iteration,
            cv_f1,
        };
        self.history.push(record.clone());
        self.by_extractor
            .entry(extractor)
            .or_default()
            .push(version);
        self.latest.insert(extractor, (record, model));
        version
    }

    /// The version of the most recently published model for an extractor
    /// (O(1)).
    pub fn latest_version(&self, extractor: ExtractorId) -> Option<u64> {
        self.latest.get(&extractor).map(|(rec, _)| rec.version)
    }

    /// Every version ever published for an extractor, ascending (retired
    /// models included — retirement drops the handle, not the history).
    pub fn versions_for(&self, extractor: ExtractorId) -> &[u64] {
        self.by_extractor
            .get(&extractor)
            .map_or(&[], |versions| versions.as_slice())
    }

    /// The most recently published model for an extractor.
    pub fn latest(&self, extractor: ExtractorId) -> Option<(&ModelRecord, Arc<M>)> {
        self.latest
            .get(&extractor)
            .map(|(rec, model)| (rec, Arc::clone(model)))
    }

    /// Whether any model has been published for the extractor.
    pub fn has_model(&self, extractor: ExtractorId) -> bool {
        self.latest.contains_key(&extractor)
    }

    /// Every record ever published, in version order.
    pub fn history(&self) -> &[ModelRecord] {
        &self.history
    }

    /// Number of models ever published.
    pub fn total_published(&self) -> usize {
        self.history.len()
    }

    /// Removes the published model for an extractor (used when the bandit
    /// eliminates a feature), keeping its history.
    pub fn retire(&mut self, extractor: ExtractorId) -> bool {
        self.latest.remove(&extractor).is_some()
    }

    /// How "stale" the latest model of an extractor is, measured in labels
    /// collected since it was trained.
    pub fn staleness(&self, extractor: ExtractorId, current_labels: usize) -> Option<usize> {
        self.latest
            .get(&extractor)
            .map(|(rec, _)| current_labels.saturating_sub(rec.trained_on_labels))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stand-in model type for tests.
    #[derive(Debug, PartialEq)]
    struct DummyModel(u32);

    #[test]
    fn publish_and_fetch_latest() {
        let mut r: ModelRegistry<DummyModel> = ModelRegistry::new();
        assert!(!r.has_model(ExtractorId::R3d));
        let v0 = r.publish(ExtractorId::R3d, 10, 2, Some(0.5), Arc::new(DummyModel(1)));
        let v1 = r.publish(ExtractorId::R3d, 15, 3, Some(0.6), Arc::new(DummyModel(2)));
        assert_eq!((v0, v1), (0, 1));
        let (rec, model) = r.latest(ExtractorId::R3d).unwrap();
        assert_eq!(rec.version, 1);
        assert_eq!(rec.trained_on_labels, 15);
        assert_eq!(*model, DummyModel(2));
        assert_eq!(r.total_published(), 2);
    }

    #[test]
    fn versions_are_global_across_extractors() {
        let mut r: ModelRegistry<DummyModel> = ModelRegistry::new();
        r.publish(ExtractorId::R3d, 5, 1, None, Arc::new(DummyModel(1)));
        let v = r.publish(ExtractorId::Clip, 5, 1, None, Arc::new(DummyModel(2)));
        assert_eq!(v, 1);
        assert!(r.has_model(ExtractorId::R3d) && r.has_model(ExtractorId::Clip));
    }

    #[test]
    fn staleness_tracks_label_growth() {
        let mut r: ModelRegistry<DummyModel> = ModelRegistry::new();
        r.publish(ExtractorId::Mvit, 20, 4, None, Arc::new(DummyModel(1)));
        assert_eq!(r.staleness(ExtractorId::Mvit, 25), Some(5));
        assert_eq!(r.staleness(ExtractorId::Mvit, 20), Some(0));
        assert_eq!(r.staleness(ExtractorId::Mvit, 10), Some(0), "saturating");
        assert_eq!(r.staleness(ExtractorId::R3d, 25), None);
    }

    #[test]
    fn versions_stay_globally_monotonic_across_interleaved_extractors() {
        // Regression test for the per-extractor index: version numbers must
        // stay globally monotonic no matter how publishes interleave across
        // extractors (with retirement in between), and the per-extractor
        // index must partition the global history without gaps or reuse.
        let mut r: ModelRegistry<DummyModel> = ModelRegistry::new();
        let extractors = [
            ExtractorId::R3d,
            ExtractorId::Clip,
            ExtractorId::R3d,
            ExtractorId::Mvit,
            ExtractorId::Clip,
            ExtractorId::R3d,
        ];
        for (i, &e) in extractors.iter().enumerate() {
            let v = r.publish(e, i, i as u32, None, Arc::new(DummyModel(i as u32)));
            assert_eq!(v, i as u64, "publish {i} must get the next global version");
            if i == 3 {
                r.retire(ExtractorId::Clip);
            }
        }
        // Global history is strictly increasing.
        assert!(r
            .history()
            .windows(2)
            .all(|w| w[1].version == w[0].version + 1));
        // Per-extractor views agree with the history and stay ascending.
        assert_eq!(r.versions_for(ExtractorId::R3d), &[0, 2, 5]);
        assert_eq!(r.versions_for(ExtractorId::Clip), &[1, 4]);
        assert_eq!(r.versions_for(ExtractorId::Mvit), &[3]);
        assert!(r.versions_for(ExtractorId::Random).is_empty());
        // `latest_version` is the tail of the per-extractor index.
        assert_eq!(r.latest_version(ExtractorId::R3d), Some(5));
        assert_eq!(r.latest_version(ExtractorId::Clip), Some(4));
        assert_eq!(r.latest_version(ExtractorId::Random), None);
        // A fresh publish after retirement continues the global counter.
        let v = r.publish(ExtractorId::Clip, 9, 9, None, Arc::new(DummyModel(9)));
        assert_eq!(v, 6);
        assert_eq!(r.versions_for(ExtractorId::Clip), &[1, 4, 6]);
    }

    #[test]
    fn retire_removes_latest_but_keeps_history() {
        let mut r: ModelRegistry<DummyModel> = ModelRegistry::new();
        r.publish(
            ExtractorId::Random,
            5,
            1,
            Some(0.1),
            Arc::new(DummyModel(1)),
        );
        assert!(r.retire(ExtractorId::Random));
        assert!(!r.retire(ExtractorId::Random));
        assert!(!r.has_model(ExtractorId::Random));
        assert_eq!(r.history().len(), 1);
    }
}
