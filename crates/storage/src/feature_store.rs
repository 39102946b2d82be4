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

use std::collections::hash_map::Entry;
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
}

/// In-memory, insert-only feature-vector store with a change log.
///
/// The paper's Feature Manager extracts a video's features once and caches
/// them for every later use, so an entry, once inserted, is never overwritten
/// or removed. The change log is the insertion order of the keys; the store's
/// *generation* is its length. [`FeatureStore::changes_since`] lets derived
/// indexes catch up in O(Δ) instead of re-scanning the whole store, and
/// nothing they derived from an earlier entry can go stale.
#[derive(Debug, Clone, Default)]
pub struct FeatureStore {
    by_key: HashMap<(ExtractorId, VideoId), VideoFeatures>,
    log: Vec<(ExtractorId, VideoId)>,
}

impl FeatureStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The store's generation: the number of entries inserted so far. A
    /// consumer holding generation `g` can replay `changes_since(g)` to
    /// catch up.
    pub fn generation(&self) -> u64 {
        self.log.len() as u64
    }

    /// The keys inserted since generation `gen`, oldest first.
    ///
    /// # Panics
    /// Panics if `gen` is newer than the store's current generation.
    pub fn changes_since(&self, gen: u64) -> &[(ExtractorId, VideoId)] {
        &self.log[gen as usize..]
    }

    /// Stores the vectors of one video for one extractor in the contiguous
    /// block representation, unless the key already has an entry: the
    /// existing entry is kept, nothing is logged, and `false` is returned.
    pub fn insert(
        &mut self,
        extractor: ExtractorId,
        vid: VideoId,
        vectors: &[FeatureVector],
    ) -> bool {
        match self.by_key.entry((extractor, vid)) {
            Entry::Occupied(_) => false,
            Entry::Vacant(slot) => {
                slot.insert(VideoFeatures::from_vectors(extractor, vid, vectors));
                self.log.push((extractor, vid));
                true
            }
        }
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
        assert!(s.insert(
            ExtractorId::R3d,
            VideoId(1),
            &[fv(ExtractorId::R3d, 1, 0.0, 4)],
        ));
        assert!(s.contains(ExtractorId::R3d, VideoId(1)));
        assert!(!s.contains(ExtractorId::Mvit, VideoId(1)));
        assert_eq!(s.get(ExtractorId::R3d, VideoId(1)).unwrap().len(), 1);
        assert!(s.get(ExtractorId::R3d, VideoId(2)).is_none());
    }

    #[test]
    fn entries_are_contiguous_blocks_with_zero_copy_rows() {
        let mut s = FeatureStore::new();
        s.insert(
            ExtractorId::R3d,
            VideoId(1),
            &[
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
        s.insert(
            ExtractorId::Clip,
            VideoId(3),
            &[
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
    fn videos_with_features_is_sorted_per_extractor() {
        let mut s = FeatureStore::new();
        for vid in [5u64, 1, 3] {
            s.insert(
                ExtractorId::Clip,
                VideoId(vid),
                &[fv(ExtractorId::Clip, vid, 0.0, 4)],
            );
        }
        s.insert(
            ExtractorId::R3d,
            VideoId(9),
            &[fv(ExtractorId::R3d, 9, 0.0, 4)],
        );
        assert_eq!(
            s.videos_with_features(ExtractorId::Clip),
            vec![VideoId(1), VideoId(3), VideoId(5)]
        );
        assert_eq!(s.videos_with_features(ExtractorId::R3d), vec![VideoId(9)]);
    }

    #[test]
    fn a_second_insert_keeps_the_first_entry() {
        let mut s = FeatureStore::new();
        assert!(s.insert(
            ExtractorId::R3d,
            VideoId(1),
            &[fv(ExtractorId::R3d, 1, 0.0, 4)],
        ));
        let gen = s.generation();
        assert!(!s.insert(
            ExtractorId::R3d,
            VideoId(1),
            &[
                fv(ExtractorId::R3d, 1, 2.0, 4),
                fv(ExtractorId::R3d, 1, 3.0, 4),
            ],
        ));
        let entry = s.get(ExtractorId::R3d, VideoId(1)).unwrap();
        assert_eq!(entry.len(), 1);
        assert_eq!(entry.row(0), &[0.0; 4]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.generation(), gen, "a kept entry logs nothing");
    }

    #[test]
    fn change_log_records_insertions_in_order() {
        let mut s = FeatureStore::new();
        assert_eq!(s.generation(), 0);
        for (e, vid) in [
            (ExtractorId::R3d, 2),
            (ExtractorId::Clip, 2),
            (ExtractorId::R3d, 1),
        ] {
            s.insert(e, VideoId(vid), &[fv(e, vid, 0.0, 4)]);
        }
        assert_eq!(s.generation(), 3);
        assert_eq!(
            s.changes_since(0),
            &[
                (ExtractorId::R3d, VideoId(2)),
                (ExtractorId::Clip, VideoId(2)),
                (ExtractorId::R3d, VideoId(1)),
            ]
        );
        // A consumer that caught up sees only the delta.
        let caught_up = s.generation();
        s.insert(
            ExtractorId::R3d,
            VideoId(1),
            &[fv(ExtractorId::R3d, 1, 0.0, 4)],
        );
        s.insert(
            ExtractorId::Mvit,
            VideoId(1),
            &[fv(ExtractorId::Mvit, 1, 0.0, 4)],
        );
        assert_eq!(
            s.changes_since(caught_up),
            &[(ExtractorId::Mvit, VideoId(1))]
        );
    }

    #[test]
    fn empty_store() {
        let s = FeatureStore::new();
        assert!(s.is_empty());
        assert_eq!(s.generation(), 0);
        assert_eq!(
            s.videos_with_features(ExtractorId::R3d),
            Vec::<VideoId>::new()
        );
    }
}
