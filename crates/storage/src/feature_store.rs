//! The feature store: per-extractor feature vectors keyed by video.
//!
//! The paper's prototype stores feature vectors in Parquet files, one row per
//! `(fid, vid, start, end, vector)`. This store keeps the same logical layout
//! in memory, but physically each `(extractor, video)` entry is one
//! contiguous row-major [`FeatureBlock`] plus the per-window time ranges —
//! the in-memory analogue of a columnar Parquet row group. The ALM's
//! candidate assembly and the Model Manager's batch inference read rows as
//! zero-copy `&[f32]` views straight out of the block instead of cloning
//! `Vec<f32>`s out of a pointer-chasing `Vec<FeatureVector>`.

#![allow(clippy::disallowed_types)] // HashMap by design: order-exposing uses are policed by ve-lint nondeterministic-iteration

use std::collections::HashMap;
use ve_features::{ExtractorId, FeatureVector};
use ve_ml::{FeatureBlock, FeatureBlockBuilder};
use ve_vidsim::{TimeRange, VideoId};

/// All feature windows of one video under one extractor, stored contiguously.
#[derive(Debug, Clone)]
pub struct VideoFeatures {
    /// Which extractor produced the vectors.
    pub extractor: ExtractorId,
    /// Source video.
    pub vid: VideoId,
    ranges: Vec<TimeRange>,
    block: FeatureBlock,
}

impl VideoFeatures {
    /// Builds the contiguous representation from per-window vectors.
    ///
    /// # Panics
    /// Panics if the vectors have inconsistent dimensionalities.
    pub fn from_vectors(extractor: ExtractorId, vid: VideoId, vectors: &[FeatureVector]) -> Self {
        let mut builder = FeatureBlockBuilder::new();
        let mut ranges = Vec::with_capacity(vectors.len());
        for v in vectors {
            builder.push_row(&v.data);
            ranges.push(v.range);
        }
        Self {
            extractor,
            vid,
            ranges,
            block: builder.build(),
        }
    }

    /// Number of stored windows.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the video has no windows.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Time range of window `i`.
    pub fn range(&self, i: usize) -> &TimeRange {
        &self.ranges[i]
    }

    /// All window ranges, in storage order.
    pub fn ranges(&self) -> &[TimeRange] {
        &self.ranges
    }

    /// Zero-copy view of window `i`'s embedding.
    pub fn row(&self, i: usize) -> &[f32] {
        self.block.row(i)
    }

    /// The contiguous block of all windows.
    pub fn block(&self) -> &FeatureBlock {
        &self.block
    }

    /// Index of the first window overlapping `range`, falling back to the
    /// last window (mirroring the Feature Manager's window-snap behaviour);
    /// `None` only when the video has no windows at all.
    pub fn window_for(&self, range: &TimeRange) -> Option<usize> {
        if self.ranges.is_empty() {
            return None;
        }
        self.ranges
            .iter()
            .position(|r| r.overlaps(range))
            .or(Some(self.ranges.len() - 1))
    }

    /// Reconstructs the legacy owned representation (used by snapshot
    /// encoding and tests).
    pub fn to_vectors(&self) -> Vec<FeatureVector> {
        (0..self.len())
            .map(|i| FeatureVector {
                extractor: self.extractor,
                vid: self.vid,
                range: self.ranges[i],
                data: self.row(i).to_vec(),
            })
            .collect()
    }

    /// Bytes of embedding payload held by this entry.
    pub fn payload_bytes(&self) -> usize {
        std::mem::size_of_val(self.block.as_slice())
    }
}

/// One mutation of the [`FeatureStore`], as recorded in its change log.
///
/// Consumers that maintain derived state over the store (the ALM's
/// `AcquisitionIndex`) replay these events instead of re-scanning every
/// entry: an `Upsert` with `replaced == false` is a pure addition that can be
/// ingested incrementally, while a replacement or an extractor drop
/// invalidates whatever was derived from the overwritten rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureStoreChange {
    /// `(extractor, vid)` was inserted (`replaced == false`) or overwritten
    /// (`replaced == true`).
    Upsert {
        /// Extractor whose entry changed.
        extractor: ExtractorId,
        /// Video whose entry changed.
        vid: VideoId,
        /// Whether an existing entry was overwritten.
        replaced: bool,
    },
    /// Every entry of one extractor was removed.
    DropExtractor {
        /// The dropped extractor.
        extractor: ExtractorId,
    },
}

/// In-memory feature-vector store with a change log.
///
/// The store's *generation* is the number of mutations applied so far; the
/// change log records each one. [`FeatureStore::changes_since`] lets derived
/// indexes catch up in O(Δ) instead of re-scanning the whole store.
#[derive(Debug, Clone, Default)]
pub struct FeatureStore {
    by_key: HashMap<(ExtractorId, VideoId), VideoFeatures>,
    log: Vec<FeatureStoreChange>,
}

impl FeatureStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The store's generation: the number of mutations applied so far. Each
    /// mutation appends one [`FeatureStoreChange`] to the log, so a consumer
    /// holding generation `g` can replay `changes_since(g)` to catch up.
    pub fn generation(&self) -> u64 {
        self.log.len() as u64
    }

    /// The mutations applied since generation `gen` (oldest first).
    ///
    /// # Panics
    /// Panics if `gen` is newer than the store's current generation.
    pub fn changes_since(&self, gen: u64) -> &[FeatureStoreChange] {
        &self.log[gen as usize..]
    }

    /// Stores (replacing) the vectors of one video for one extractor,
    /// converting to the contiguous block representation.
    pub fn put(&mut self, extractor: ExtractorId, vid: VideoId, vectors: Vec<FeatureVector>) {
        let replaced = self
            .by_key
            .insert(
                (extractor, vid),
                VideoFeatures::from_vectors(extractor, vid, &vectors),
            )
            .is_some();
        self.log.push(FeatureStoreChange::Upsert {
            extractor,
            vid,
            replaced,
        });
    }

    /// Stores an already-built contiguous entry.
    pub fn put_block(&mut self, features: VideoFeatures) {
        let (extractor, vid) = (features.extractor, features.vid);
        let replaced = self.by_key.insert((extractor, vid), features).is_some();
        self.log.push(FeatureStoreChange::Upsert {
            extractor,
            vid,
            replaced,
        });
    }

    /// Returns the contiguous windows of one video for one extractor, if
    /// extracted.
    pub fn get(&self, extractor: ExtractorId, vid: VideoId) -> Option<&VideoFeatures> {
        self.by_key.get(&(extractor, vid))
    }

    /// Whether features for `(extractor, vid)` are available.
    pub fn contains(&self, extractor: ExtractorId, vid: VideoId) -> bool {
        self.by_key.contains_key(&(extractor, vid))
    }

    /// Videos that have features extracted for the given extractor, sorted.
    pub fn videos_with_features(&self, extractor: ExtractorId) -> Vec<VideoId> {
        let mut ids: Vec<VideoId> = self
            .by_key
            .keys()
            .filter(|(e, _)| *e == extractor)
            .map(|(_, v)| *v)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Number of `(extractor, video)` entries.
    pub fn len(&self) -> usize {
        self.by_key.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.by_key.is_empty()
    }

    /// Total number of stored vectors across all entries.
    pub fn total_vectors(&self) -> usize {
        // ve-lint: allow(nondeterministic-iteration) -- integer sum over every value; order-insensitive
        self.by_key.values().map(|v| v.len()).sum::<usize>()
    }

    /// Approximate resident bytes of the stored vectors (data payloads only),
    /// which the eager-extraction guardrail can use to cap background work.
    pub fn approx_bytes(&self) -> usize {
        // ve-lint: allow(nondeterministic-iteration) -- integer sum over every value; order-insensitive
        self.by_key
            .values()
            .map(|v| v.payload_bytes())
            .sum::<usize>()
    }

    /// Drops every vector belonging to an extractor (used when the rising
    /// bandit eliminates a candidate feature and its storage can be
    /// reclaimed).
    pub fn drop_extractor(&mut self, extractor: ExtractorId) -> usize {
        let before = self.by_key.len();
        self.by_key.retain(|(e, _), _| *e != extractor);
        let dropped = before - self.by_key.len();
        if dropped > 0 {
            self.log
                .push(FeatureStoreChange::DropExtractor { extractor });
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ve_vidsim::TimeRange;

    fn fv(e: ExtractorId, vid: u64, start: f64, dim: usize) -> FeatureVector {
        FeatureVector {
            extractor: e,
            vid: VideoId(vid),
            range: TimeRange::new(start, start + 1.0),
            data: vec![start as f32; dim],
        }
    }

    #[test]
    fn put_get_and_contains() {
        let mut s = FeatureStore::new();
        s.put(
            ExtractorId::R3d,
            VideoId(1),
            vec![fv(ExtractorId::R3d, 1, 0.0, 4)],
        );
        assert!(s.contains(ExtractorId::R3d, VideoId(1)));
        assert!(!s.contains(ExtractorId::Mvit, VideoId(1)));
        assert_eq!(s.get(ExtractorId::R3d, VideoId(1)).unwrap().len(), 1);
        assert!(s.get(ExtractorId::R3d, VideoId(2)).is_none());
    }

    #[test]
    fn entries_are_contiguous_blocks_with_zero_copy_rows() {
        let mut s = FeatureStore::new();
        s.put(
            ExtractorId::R3d,
            VideoId(1),
            vec![
                fv(ExtractorId::R3d, 1, 0.0, 3),
                fv(ExtractorId::R3d, 1, 1.0, 3),
            ],
        );
        let entry = s.get(ExtractorId::R3d, VideoId(1)).unwrap();
        assert_eq!(entry.block().rows(), 2);
        assert_eq!(entry.block().dim(), 3);
        // Rows are views into one flat buffer.
        assert_eq!(entry.row(0), &[0.0, 0.0, 0.0]);
        assert_eq!(entry.row(1), &[1.0, 1.0, 1.0]);
        assert_eq!(entry.block().as_slice(), &[0.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        assert_eq!(*entry.range(1), TimeRange::new(1.0, 2.0));
    }

    #[test]
    fn window_lookup_prefers_overlap_then_falls_back_to_last() {
        let mut s = FeatureStore::new();
        s.put(
            ExtractorId::Clip,
            VideoId(3),
            vec![
                fv(ExtractorId::Clip, 3, 0.0, 2),
                fv(ExtractorId::Clip, 3, 1.0, 2),
                fv(ExtractorId::Clip, 3, 2.0, 2),
            ],
        );
        let entry = s.get(ExtractorId::Clip, VideoId(3)).unwrap();
        assert_eq!(entry.window_for(&TimeRange::new(1.2, 1.8)), Some(1));
        // Beyond the last window: snap to the last.
        assert_eq!(entry.window_for(&TimeRange::new(50.0, 51.0)), Some(2));
    }

    #[test]
    fn round_trips_to_legacy_vectors() {
        let vectors = vec![
            fv(ExtractorId::Mvit, 7, 0.0, 5),
            fv(ExtractorId::Mvit, 7, 1.0, 5),
        ];
        let entry = VideoFeatures::from_vectors(ExtractorId::Mvit, VideoId(7), &vectors);
        assert_eq!(entry.to_vectors(), vectors);
    }

    #[test]
    fn videos_with_features_is_sorted_per_extractor() {
        let mut s = FeatureStore::new();
        for vid in [5u64, 1, 3] {
            s.put(
                ExtractorId::Clip,
                VideoId(vid),
                vec![fv(ExtractorId::Clip, vid, 0.0, 4)],
            );
        }
        s.put(
            ExtractorId::R3d,
            VideoId(9),
            vec![fv(ExtractorId::R3d, 9, 0.0, 4)],
        );
        assert_eq!(
            s.videos_with_features(ExtractorId::Clip),
            vec![VideoId(1), VideoId(3), VideoId(5)]
        );
        assert_eq!(s.videos_with_features(ExtractorId::R3d), vec![VideoId(9)]);
    }

    #[test]
    fn aggregates_and_drop_extractor() {
        let mut s = FeatureStore::new();
        s.put(
            ExtractorId::R3d,
            VideoId(1),
            vec![
                fv(ExtractorId::R3d, 1, 0.0, 8),
                fv(ExtractorId::R3d, 1, 1.0, 8),
            ],
        );
        s.put(
            ExtractorId::Mvit,
            VideoId(1),
            vec![fv(ExtractorId::Mvit, 1, 0.0, 8)],
        );
        assert_eq!(s.len(), 2);
        assert_eq!(s.total_vectors(), 3);
        assert_eq!(s.approx_bytes(), 3 * 8 * 4);
        assert_eq!(s.drop_extractor(ExtractorId::R3d), 1);
        assert_eq!(s.total_vectors(), 1);
        assert!(!s.contains(ExtractorId::R3d, VideoId(1)));
    }

    #[test]
    fn put_replaces_existing_entry() {
        let mut s = FeatureStore::new();
        s.put(
            ExtractorId::R3d,
            VideoId(1),
            vec![fv(ExtractorId::R3d, 1, 0.0, 4)],
        );
        s.put(
            ExtractorId::R3d,
            VideoId(1),
            vec![
                fv(ExtractorId::R3d, 1, 0.0, 4),
                fv(ExtractorId::R3d, 1, 1.0, 4),
            ],
        );
        assert_eq!(s.get(ExtractorId::R3d, VideoId(1)).unwrap().len(), 2);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn change_log_records_upserts_and_drops() {
        let mut s = FeatureStore::new();
        assert_eq!(s.generation(), 0);
        s.put(
            ExtractorId::R3d,
            VideoId(1),
            vec![fv(ExtractorId::R3d, 1, 0.0, 4)],
        );
        s.put(
            ExtractorId::R3d,
            VideoId(2),
            vec![fv(ExtractorId::R3d, 2, 0.0, 4)],
        );
        assert_eq!(s.generation(), 2);
        assert_eq!(
            s.changes_since(0),
            &[
                FeatureStoreChange::Upsert {
                    extractor: ExtractorId::R3d,
                    vid: VideoId(1),
                    replaced: false,
                },
                FeatureStoreChange::Upsert {
                    extractor: ExtractorId::R3d,
                    vid: VideoId(2),
                    replaced: false,
                },
            ]
        );
        // A consumer that caught up sees only the delta.
        let caught_up = s.generation();
        s.put(
            ExtractorId::R3d,
            VideoId(1),
            vec![fv(ExtractorId::R3d, 1, 0.0, 4)],
        );
        assert_eq!(
            s.changes_since(caught_up),
            &[FeatureStoreChange::Upsert {
                extractor: ExtractorId::R3d,
                vid: VideoId(1),
                replaced: true,
            }]
        );
        s.drop_extractor(ExtractorId::R3d);
        assert_eq!(
            s.changes_since(s.generation() - 1),
            &[FeatureStoreChange::DropExtractor {
                extractor: ExtractorId::R3d,
            }]
        );
        // Dropping an extractor with no entries records nothing.
        let gen = s.generation();
        assert_eq!(s.drop_extractor(ExtractorId::R3d), 0);
        assert_eq!(s.generation(), gen);
    }

    #[test]
    fn put_block_logs_like_put() {
        let mut s = FeatureStore::new();
        let entry = VideoFeatures::from_vectors(
            ExtractorId::Clip,
            VideoId(4),
            &[fv(ExtractorId::Clip, 4, 0.0, 2)],
        );
        s.put_block(entry.clone());
        s.put_block(entry);
        assert_eq!(
            s.changes_since(0),
            &[
                FeatureStoreChange::Upsert {
                    extractor: ExtractorId::Clip,
                    vid: VideoId(4),
                    replaced: false,
                },
                FeatureStoreChange::Upsert {
                    extractor: ExtractorId::Clip,
                    vid: VideoId(4),
                    replaced: true,
                },
            ]
        );
    }

    #[test]
    fn empty_store() {
        let s = FeatureStore::new();
        assert!(s.is_empty());
        assert_eq!(s.total_vectors(), 0);
        assert_eq!(
            s.videos_with_features(ExtractorId::R3d),
            Vec::<VideoId>::new()
        );
    }
}
