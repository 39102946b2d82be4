//! The model registry: the in-memory handle of the most recent model per
//! feature extractor, with a version number that is unique across
//! extractors.
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

/// Registry of trained models. Generic over the model handle type so the
/// storage crate does not depend on the model implementation.
#[derive(Debug)]
pub struct ModelRegistry<M> {
    /// Latest `(version, handle)` per extractor.
    latest: HashMap<ExtractorId, (u64, Arc<M>)>,
    next_version: u64,
}

impl<M> Default for ModelRegistry<M> {
    fn default() -> Self {
        Self {
            latest: HashMap::new(),
            next_version: 0,
        }
    }
}

impl<M> ModelRegistry<M> {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes a newly trained model for an extractor, replacing the
    /// previous one, and returns its version: globally monotonic across
    /// extractors.
    pub fn publish(&mut self, extractor: ExtractorId, model: Arc<M>) -> u64 {
        let version = self.next_version;
        self.next_version += 1;
        self.latest.insert(extractor, (version, model));
        version
    }

    /// The version of the most recently published model for an extractor.
    pub fn latest_version(&self, extractor: ExtractorId) -> Option<u64> {
        self.latest.get(&extractor).map(|(version, _)| *version)
    }

    /// The most recently published model for an extractor.
    pub fn latest(&self, extractor: ExtractorId) -> Option<Arc<M>> {
        self.latest
            .get(&extractor)
            .map(|(_, model)| Arc::clone(model))
    }

    /// The most recently published model for an extractor together with its
    /// version, read in one lookup so the two always belong together.
    pub fn latest_versioned(&self, extractor: ExtractorId) -> Option<(u64, Arc<M>)> {
        self.latest
            .get(&extractor)
            .map(|(version, model)| (*version, Arc::clone(model)))
    }

    /// Whether any model has been published for the extractor.
    pub fn has_model(&self, extractor: ExtractorId) -> bool {
        self.latest.contains_key(&extractor)
    }

    /// Number of models ever published.
    pub fn total_published(&self) -> usize {
        self.next_version as usize
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
        let v0 = r.publish(ExtractorId::R3d, Arc::new(DummyModel(1)));
        let v1 = r.publish(ExtractorId::R3d, Arc::new(DummyModel(2)));
        assert_eq!((v0, v1), (0, 1));
        assert_eq!(*r.latest(ExtractorId::R3d).unwrap(), DummyModel(2));
        assert_eq!(r.latest_version(ExtractorId::R3d), Some(1));
        assert_eq!(r.total_published(), 2);
    }

    #[test]
    fn latest_versioned_pairs_the_model_with_its_version() {
        let mut r: ModelRegistry<DummyModel> = ModelRegistry::new();
        assert!(r.latest_versioned(ExtractorId::R3d).is_none());
        r.publish(ExtractorId::R3d, Arc::new(DummyModel(1)));
        let v = r.publish(ExtractorId::Clip, Arc::new(DummyModel(2)));
        let (version, model) = r.latest_versioned(ExtractorId::Clip).unwrap();
        assert_eq!((version, &*model), (v, &DummyModel(2)));
        assert_eq!(r.latest_versioned(ExtractorId::R3d).unwrap().0, 0);
    }

    #[test]
    fn versions_are_global_across_extractors() {
        let mut r: ModelRegistry<DummyModel> = ModelRegistry::new();
        r.publish(ExtractorId::R3d, Arc::new(DummyModel(1)));
        let v = r.publish(ExtractorId::Clip, Arc::new(DummyModel(2)));
        assert_eq!(v, 1);
        assert!(r.has_model(ExtractorId::R3d) && r.has_model(ExtractorId::Clip));
    }

    #[test]
    fn versions_stay_globally_monotonic_across_interleaved_extractors() {
        // Version numbers must stay globally monotonic no matter how
        // publishes interleave across extractors, and `latest_version` must
        // track each extractor's most recent publish.
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
            let v = r.publish(e, Arc::new(DummyModel(i as u32)));
            assert_eq!(v, i as u64, "publish {i} must get the next global version");
            assert_eq!(r.latest_version(e), Some(v));
        }
        assert_eq!(r.latest_version(ExtractorId::R3d), Some(5));
        assert_eq!(r.latest_version(ExtractorId::Clip), Some(4));
        assert_eq!(r.latest_version(ExtractorId::Mvit), Some(3));
        assert_eq!(r.latest_version(ExtractorId::Random), None);
        assert_eq!(r.total_published(), 6);
        // A later publish continues the global counter.
        let v = r.publish(ExtractorId::Clip, Arc::new(DummyModel(9)));
        assert_eq!(v, 6);
        assert_eq!(r.latest_version(ExtractorId::Clip), Some(6));
    }
}
