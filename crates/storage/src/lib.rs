//! `ve-storage` — the Storage Manager (SM).
//!
//! The paper's SM "stores and retrieves all persisted data, which includes
//! video metadata (e.g., path, duration, start time), labels, features, and
//! models" (Section 2.3) and is built from off-the-shelf components (DuckDB
//! for metadata and labels, Parquet files for feature vectors, PyTorch
//! checkpoints for models). This crate builds the same component as a small
//! embedded store so the repository is self-contained. Video metadata (path,
//! duration, start time) lives in the session's `VideoCorpus`, which holds
//! every `AddVideo` clip; this crate keeps the rest:
//!
//! * [`LabelStore`] — user-provided labels with their time spans,
//! * [`FeatureStore`] — per-extractor feature vectors keyed by
//!   `(extractor, video)`, the equivalent of the paper's Parquet files,
//! * [`ModelRegistry`] — the in-memory handle and version of the most recent
//!   model per extractor.
//!
//! Everything lives in memory. The label and feature stores sit
//! behind the [`StorageManager`] facade, which is cheap to clone and safe to
//! share across the Task Scheduler's worker threads: every clone reads and
//! writes the same state. The label store is copy-on-write:
//! [`StorageManager::labels_snapshot`] hands out the current store without
//! copying it, and a later write copies it only while a snapshot is alive.

pub mod feature_store;
pub mod labels;
pub mod model_registry;

pub use feature_store::{FeatureStore, VideoFeatures};
pub use labels::{LabelRecord, LabelStore};
pub use model_registry::ModelRegistry;

use parking_lot::RwLock;
use std::sync::Arc;

/// Facade bundling the individual stores, mirroring the paper's SM component.
#[derive(Debug, Clone, Default)]
pub struct StorageManager {
    inner: Arc<RwLock<StorageInner>>,
}

#[derive(Debug, Default)]
struct StorageInner {
    labels: Arc<LabelStore>,
    features: FeatureStore,
}

impl StorageManager {
    /// Creates an empty storage manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs a closure with read access to the label store.
    pub fn with_labels<R>(&self, f: impl FnOnce(&LabelStore) -> R) -> R {
        f(&self.inner.read().labels)
    }

    /// Runs a closure with write access to the label store. The store is
    /// copied first only if a [`Self::labels_snapshot`] still shares it.
    pub fn with_labels_mut<R>(&self, f: impl FnOnce(&mut LabelStore) -> R) -> R {
        f(Arc::make_mut(&mut self.inner.write().labels))
    }

    /// The label store as it is now, shared rather than copied: later
    /// writes leave the snapshot unchanged. Unlike [`Self::with_labels`], no
    /// lock is held while the snapshot is in use, so its holder may write
    /// features meanwhile.
    pub fn labels_snapshot(&self) -> Arc<LabelStore> {
        Arc::clone(&self.inner.read().labels)
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
        worker.with_labels_mut(|l| {
            l.add(LabelRecord {
                vid: VideoId(1),
                range: TimeRange::new(0.0, 1.0),
                classes: vec![2],
                iteration: 0,
            })
        });
        worker.with_features_mut(|f| {
            f.insert(
                ExtractorId::R3d,
                VideoId(1),
                &[ve_features::FeatureVector {
                    extractor: ExtractorId::R3d,
                    vid: VideoId(1),
                    range: TimeRange::new(0.0, 1.0),
                    data: vec![0.5, -0.25, 1.0],
                }],
            )
        });

        // Writes through the worker's clone are visible through the original.
        let labels = sm.with_labels(|l| l.records().to_vec());
        let row = sm.with_features(|f| {
            f.get(ExtractorId::R3d, VideoId(1))
                .map(|v| v.row(0).to_vec())
        });
        assert_eq!(labels.len(), 1);
        assert_eq!(labels[0].classes, vec![2]);
        assert_eq!(row, Some(vec![0.5, -0.25, 1.0]));

        // A snapshot keeps its contents across later writes.
        let snapshot = sm.labels_snapshot();
        sm.with_labels_mut(|l| {
            l.add(LabelRecord {
                vid: VideoId(2),
                range: TimeRange::new(0.0, 1.0),
                classes: vec![0],
                iteration: 1,
            })
        });
        assert_eq!(snapshot.len(), 1);
        assert_eq!(sm.with_labels(|l| l.len()), 2);
        assert_eq!(sm.labels_snapshot().len(), 2);

        // And the facade can be shared with worker threads.
        fn shareable<T: Send + Sync>(_: &T) {}
        shareable(&sm);
    }
}
