//! `ve-storage` — the Storage Manager (SM).
//!
//! The paper's SM "stores and retrieves all persisted data, which includes
//! video metadata (e.g., path, duration, start time), labels, features, and
//! models" (Section 2.3) and is built from off-the-shelf components (DuckDB
//! for metadata and labels, Parquet files for feature vectors, PyTorch
//! checkpoints for models). This crate builds the same component as a small
//! embedded store so the repository is self-contained:
//!
//! * [`VideoMetadataStore`] — the video catalog (`AddVideo` rows),
//! * [`LabelStore`] — user-provided labels with their time spans,
//! * [`FeatureStore`] — per-extractor feature vectors keyed by
//!   `(extractor, video)`, the equivalent of the paper's Parquet files,
//! * [`ModelRegistry`] — trained-model metadata plus in-memory handles to the
//!   most recent model per extractor.
//!
//! Everything lives in memory. The catalog, label and feature stores sit
//! behind the [`StorageManager`] facade, which is cheap to clone and safe to
//! share across the Task Scheduler's worker threads: every clone reads and
//! writes the same state.

pub mod feature_store;
pub mod labels;
pub mod metadata;
pub mod model_registry;

pub use feature_store::{FeatureStore, FeatureStoreChange, VideoFeatures};
pub use labels::{LabelRecord, LabelStore};
pub use metadata::{VideoMetadataStore, VideoRecord};
pub use model_registry::{ModelRecord, ModelRegistry};

use parking_lot::RwLock;
use std::sync::Arc;

/// Facade bundling the individual stores, mirroring the paper's SM component.
#[derive(Debug, Clone, Default)]
pub struct StorageManager {
    inner: Arc<RwLock<StorageInner>>,
}

#[derive(Debug, Default)]
struct StorageInner {
    metadata: VideoMetadataStore,
    labels: LabelStore,
    features: FeatureStore,
}

impl StorageManager {
    /// Creates an empty storage manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs a closure with read access to the video catalog.
    pub fn with_metadata<R>(&self, f: impl FnOnce(&VideoMetadataStore) -> R) -> R {
        f(&self.inner.read().metadata)
    }

    /// Runs a closure with write access to the video catalog.
    pub fn with_metadata_mut<R>(&self, f: impl FnOnce(&mut VideoMetadataStore) -> R) -> R {
        f(&mut self.inner.write().metadata)
    }

    /// Runs a closure with read access to the label store.
    pub fn with_labels<R>(&self, f: impl FnOnce(&LabelStore) -> R) -> R {
        f(&self.inner.read().labels)
    }

    /// Runs a closure with write access to the label store.
    pub fn with_labels_mut<R>(&self, f: impl FnOnce(&mut LabelStore) -> R) -> R {
        f(&mut self.inner.write().labels)
    }

    /// Runs a closure with read access to the feature store.
    pub fn with_features<R>(&self, f: impl FnOnce(&FeatureStore) -> R) -> R {
        f(&self.inner.read().features)
    }

    /// Runs a closure with write access to the feature store.
    pub fn with_features_mut<R>(&self, f: impl FnOnce(&mut FeatureStore) -> R) -> R {
        f(&mut self.inner.write().features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ve_features::ExtractorId;
    use ve_vidsim::{TimeRange, VideoId};

    #[test]
    fn clones_share_one_store() {
        let sm = StorageManager::new();
        let worker = sm.clone();
        worker.with_metadata_mut(|m| {
            m.insert(VideoRecord {
                vid: VideoId(1),
                path: "a.mp4".into(),
                duration: 10.0,
                start_timestamp: 0.0,
            })
        });
        worker.with_labels_mut(|l| {
            l.add(LabelRecord {
                vid: VideoId(1),
                range: TimeRange::new(0.0, 1.0),
                classes: vec![2],
                iteration: 0,
            })
        });
        worker.with_features_mut(|f| {
            f.put(
                ExtractorId::R3d,
                VideoId(1),
                vec![ve_features::FeatureVector {
                    extractor: ExtractorId::R3d,
                    vid: VideoId(1),
                    range: TimeRange::new(0.0, 1.0),
                    data: vec![0.5, -0.25, 1.0],
                }],
            )
        });

        // Writes through the worker's clone are visible through the original.
        let path = sm.with_metadata(|m| m.get(VideoId(1)).map(|r| r.path.clone()));
        let labels = sm.with_labels(|l| l.records().to_vec());
        let row = sm.with_features(|f| {
            f.get(ExtractorId::R3d, VideoId(1))
                .map(|v| v.row(0).to_vec())
        });
        assert_eq!(path.as_deref(), Some("a.mp4"));
        assert_eq!(labels.len(), 1);
        assert_eq!(labels[0].classes, vec![2]);
        assert_eq!(row, Some(vec![0.5, -0.25, 1.0]));

        // And the facade can be shared with worker threads.
        fn shareable<T: Send + Sync>(_: &T) {}
        shareable(&sm);
    }
}
