//! The persistent candidate index behind active-learning selection.
//!
//! Before this subsystem existed, every active `Explore` call re-assembled
//! its candidate set from zero: scan every pooled video, row-copy every
//! unlabeled window's embedding into a fresh block, rebuild the labeled
//! anchor block from every label record, and — when the pool outgrew 2,000
//! windows — shuffle-truncate it at random. Under `VE-full`, where eager
//! extraction grows the feature-bearing pool to tens of thousands of windows,
//! that per-call work dominated the *measured* sample-selection latency
//! (`T_s`) even though each iteration differs from the previous one by only a
//! handful of new videos and labels.
//!
//! [`AcquisitionIndex`] makes selection incremental across iterations:
//!
//! * **Candidate state** — one long-lived [`FeatureBlock`] plus parallel
//!   window metadata, in *canonical order* (videos ascending by id, windows
//!   in time order). New extractions are discovered through the
//!   [`ve_storage::FeatureStore`] change log (generation counter) and
//!   ingested as O(Δ) appends (or a single merge splice when a video id
//!   lands mid-index); freshly labeled windows are masked in place instead
//!   of being filtered out by a full re-scan.
//! * **Coreset coverage state** — the minimum squared distance from every
//!   candidate to the labeled anchor set is maintained across calls and
//!   updated only for the Δ new anchors via
//!   [`FeatureBlock::min_sq_distances_update`], turning the per-call O(n·L)
//!   anchor sweep into O(n·Δ).
//! * **Cluster-sketch reduction** — when the unmasked pool exceeds the
//!   configured cap, a [`ve_al::ClusterSketch`] (k-means centroids fitted
//!   over a fixed index prefix, per-row assignments maintained
//!   incrementally) picks a structure-aware candidate subset, replacing the
//!   old blind shuffle-truncate.
//!
//! # Determinism and invalidation contract
//!
//! Every piece of index state is a pure function of *(store contents for the
//! index's extractor, corpus membership, the label list, clip length)* — not
//! of the call history that produced it. Incrementally grown state is
//! bit-identical to a freshly constructed index at the same inputs, at any
//! `compute_threads` setting; the property tests in
//! `tests/acquisition_index_equivalence.rs` drive randomized
//! extract/label/explore interleavings to pin this. The feature store is
//! insert-only, so a row, once ingested, never changes its features: a
//! fresh index replays the store's whole change log through the same
//! ingest that later syncs use, and no store event can make ingested state
//! stale. The rules that keep the contract cheap to uphold:
//!
//! * an index serves one `(extractor, clip length)` pair; the ALM constructs
//!   a new one when either changes;
//! * store entries whose video is not (yet) in the corpus stay pending and
//!   are retried every sync;
//! * the sketch survives an ingest (tail append or merge splice) whose
//!   first new row lands at or after its saturated fit prefix: a fresh fit
//!   would see the same prefix rows, so the centroids carry over and only
//!   the new rows need assigning. Anything else discards it, and the next
//!   over-cap call refits from the current rows (same result a fresh index
//!   would produce);
//! * anchors ingest lazily (only coreset calls pay for them), but always
//!   catch up to the full label list before selection.

#![allow(clippy::disallowed_types)] // HashMap by design: order-exposing uses are policed by ve-lint nondeterministic-iteration

use crate::feature_manager::FeatureManager;
use std::collections::HashMap;
use ve_al::{ClusterSketch, ClusterSketchConfig};
use ve_features::ExtractorId;
use ve_ml::{FeatureBlock, FeatureBlockBuilder};
use ve_storage::LabelStore;
use ve_vidsim::{TimeRange, VideoCorpus, VideoId};

/// Diagnostic counters of the index (exposed through the ALM for tests and
/// benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AcquisitionIndexStats {
    /// Candidate windows held (masked ones included).
    pub rows: usize,
    /// Windows still selectable (not labeled).
    pub unmasked_rows: usize,
    /// Videos ingested.
    pub videos: usize,
    /// Labeled anchor rows ingested for coreset coverage.
    pub anchors: usize,
    /// Whether a cluster sketch is currently alive.
    pub sketch_built: bool,
    /// [`ClusterSketch::build`] calls (k-means fits) over the index's
    /// lifetime. Deterministic work, but a function of call history: a
    /// from-scratch index at the same inputs may read lower.
    pub sketch_builds: u64,
}

/// One video's windows collected from the feature store, staged for ingest.
struct StagedVideo {
    vid: VideoId,
    ranges: Vec<TimeRange>,
    masked: Vec<bool>,
    block: FeatureBlock,
    coverage: Vec<f32>,
}

/// Persistent candidate-window index owned by the Active Learning Manager
/// (see module docs).
pub struct AcquisitionIndex {
    extractor: ExtractorId,
    clip_len: f64,
    candidate_cap: usize,
    sketch_config: ClusterSketchConfig,
    /// Store generation the index has caught up to.
    store_gen: u64,
    /// Label records already applied to the mask.
    labels_masked: usize,
    /// Label records already ingested as coverage anchors.
    anchors_ingested: usize,
    /// Window metadata, parallel to the block's rows.
    meta: Vec<(VideoId, TimeRange)>,
    /// Candidate embeddings, one row per window, canonical order.
    block: FeatureBlock,
    /// `true` = labeled (not selectable).
    masked: Vec<bool>,
    unmasked: usize,
    /// Row span of each ingested video: `vid -> (start, len)`.
    video_rows: HashMap<VideoId, (usize, usize)>,
    /// Ingested videos in canonical (ascending) order.
    video_order: Vec<VideoId>,
    /// Store entries whose video was not in the corpus at ingest time.
    pending_corpus: Vec<VideoId>,
    /// Labeled anchor rows (label-record order).
    anchors: FeatureBlock,
    /// Min squared distance from each row to the anchor set (∞ before any
    /// anchor exists).
    coverage: Vec<f32>,
    sketch: Option<ClusterSketch>,
    /// See [`AcquisitionIndexStats::sketch_builds`].
    sketch_builds: u64,
    /// Row-identity epoch: 1 for the layout the index is constructed with,
    /// plus one per [`Self::merge`] splice, which moves existing rows. Tail
    /// appends leave every earlier row in place and do not count. Reported
    /// by the `IndexIngest` event, so a session's ledger shows how often
    /// selection lost its row positions.
    epoch: u64,
}

impl AcquisitionIndex {
    /// An empty index for one `(extractor, clip_len)` pair; the first
    /// [`AcquisitionIndex::sync`] populates it by replaying the store's
    /// whole change log.
    pub fn new(extractor: ExtractorId, clip_len: f64, candidate_cap: usize) -> Self {
        Self {
            extractor,
            clip_len,
            candidate_cap: candidate_cap.max(1),
            sketch_config: ClusterSketchConfig::default(),
            store_gen: 0,
            labels_masked: 0,
            anchors_ingested: 0,
            meta: Vec::new(),
            block: FeatureBlock::empty(0),
            masked: Vec::new(),
            unmasked: 0,
            video_rows: HashMap::new(),
            video_order: Vec::new(),
            pending_corpus: Vec::new(),
            anchors: FeatureBlock::empty(0),
            coverage: Vec::new(),
            sketch: None,
            sketch_builds: 0,
            epoch: 1,
        }
    }

    /// Current row-identity epoch (see the `epoch` field docs).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The extractor whose features the index holds.
    pub fn extractor(&self) -> ExtractorId {
        self.extractor
    }

    /// Whether the index serves this `(extractor, clip_len)` pair.
    pub fn matches(&self, extractor: ExtractorId, clip_len: f64) -> bool {
        self.extractor == extractor && self.clip_len == clip_len
    }

    /// Candidate windows held (masked included).
    pub fn rows(&self) -> usize {
        self.meta.len()
    }

    /// Selectable (unlabeled) windows.
    pub fn unmasked_rows(&self) -> usize {
        self.unmasked
    }

    /// Ingested videos.
    pub fn video_count(&self) -> usize {
        self.video_order.len()
    }

    /// O(1) membership test — the candidate-assembly fix for the old
    /// O(n²) `pool.contains(vid)` scans.
    pub fn contains_video(&self, vid: VideoId) -> bool {
        self.video_rows.contains_key(&vid)
    }

    /// The candidate block (canonical row order).
    pub fn block(&self) -> &FeatureBlock {
        &self.block
    }

    /// Window metadata of row `row`.
    pub fn meta_at(&self, row: usize) -> (VideoId, TimeRange) {
        self.meta[row]
    }

    /// Diagnostic counters.
    pub fn stats(&self) -> AcquisitionIndexStats {
        AcquisitionIndexStats {
            rows: self.rows(),
            unmasked_rows: self.unmasked,
            videos: self.video_count(),
            anchors: self.anchors.rows(),
            sketch_built: self.sketch.is_some(),
            sketch_builds: self.sketch_builds,
        }
    }

    /// Catches the index up to the store's change log and the label list:
    /// ingests the videos extracted for its extractor since the last sync
    /// (O(Δ) appends in the common case), retries corpus-pending entries,
    /// and masks freshly labeled windows.
    pub fn sync(
        &mut self,
        fm: &FeatureManager,
        corpus: &VideoCorpus,
        labels: &LabelStore,
    ) -> &mut Self {
        let (gen, changes) = fm.store_changes_since(self.store_gen);
        self.store_gen = gen;
        let mut queue = std::mem::take(&mut self.pending_corpus);
        queue.extend(
            changes
                .into_iter()
                .filter(|&(extractor, _)| extractor == self.extractor)
                .map(|(_, vid)| vid),
        );
        self.ingest(queue, fm, corpus, labels);
        self.sync_masks(labels);
        self
    }

    /// Collects one video's windows from the store (the entry exists: ingest
    /// feeds come from the change log, so this is a cache hit). Window
    /// enumeration and labeled-window handling replicate the old per-call
    /// assembly exactly, except labeled windows are kept with their mask set
    /// instead of skipped.
    fn collect_video(
        &self,
        fm: &FeatureManager,
        corpus: &VideoCorpus,
        labels: &LabelStore,
        vid: VideoId,
    ) -> Option<StagedVideo> {
        let clip = corpus.get(vid)?;
        let windows = clip.num_windows(self.clip_len);
        fm.with_video_features(self.extractor, corpus, vid, |entry| {
            let mut ranges = Vec::new();
            let mut masked = Vec::new();
            let mut rows = FeatureBlockBuilder::new();
            for w in 0..windows {
                let range =
                    TimeRange::new(w as f64 * self.clip_len, (w + 1) as f64 * self.clip_len);
                if let Some(i) = entry.window_for(&range) {
                    ranges.push(range);
                    masked.push(labels.is_labeled(vid, &range));
                    rows.push_row(entry.row(i));
                }
            }
            StagedVideo {
                vid,
                ranges,
                masked,
                block: rows.build(),
                coverage: Vec::new(),
            }
        })
    }

    /// Ingests a batch of videos: tail-append when every new id sorts after
    /// the existing ones (the common case — eager extraction walks the corpus
    /// in order), one merge splice otherwise. Videos missing from the corpus
    /// go to the pending list; already-ingested ids are skipped.
    fn ingest(
        &mut self,
        mut vids: Vec<VideoId>,
        fm: &FeatureManager,
        corpus: &VideoCorpus,
        labels: &LabelStore,
    ) {
        vids.sort_unstable();
        vids.dedup();
        let mut staged: Vec<StagedVideo> = Vec::new();
        for vid in vids {
            if self.video_rows.contains_key(&vid) {
                continue;
            }
            match self.collect_video(fm, corpus, labels, vid) {
                Some(item) => staged.push(item),
                None => self.pending_corpus.push(vid),
            }
        }
        if staged.is_empty() {
            return;
        }

        // Establish (or check) the embedding dimensionality.
        if let Some(dim) = staged
            .iter()
            .find(|i| !i.block.is_empty())
            .map(|i| i.block.dim())
        {
            if self.block.rows() == 0 {
                if self.block.dim() != dim {
                    self.block = FeatureBlock::empty(dim);
                }
            } else {
                assert_eq!(
                    dim,
                    self.block.dim(),
                    "extractor dimensionality changed mid-session"
                );
            }
        }

        // Coverage of the new rows against the anchors ingested so far: one
        // blocked pass per video, O(Δrows · anchors · dim).
        for item in &mut staged {
            item.coverage = if self.anchors.rows() == 0 {
                vec![f32::INFINITY; item.block.rows()]
            } else {
                item.block.min_sq_distances_to_block(&self.anchors)
            };
        }

        let tail_append = self
            .video_order
            .last()
            .is_none_or(|&last| last < staged[0].vid);
        if tail_append {
            self.append(staged);
        } else {
            self.merge(staged);
        }
    }

    /// O(Δ) append of videos that all sort after the current tail.
    fn append(&mut self, staged: Vec<StagedVideo>) {
        self.retain_sketch_past(self.meta.len());
        for item in staged {
            let start = self.meta.len();
            let rows = item.block.rows();
            self.block.reserve_rows(rows);
            for r in 0..rows {
                self.block.push_row(item.block.row(r));
                self.meta.push((item.vid, item.ranges[r]));
            }
            self.unmasked += item.masked.iter().filter(|&&m| !m).count();
            self.masked.extend(item.masked);
            self.coverage.extend(item.coverage);
            self.video_rows.insert(item.vid, (start, rows));
            self.video_order.push(item.vid);
        }
        // Kept sketches assign the appended rows on the next over-cap call.
    }

    /// Keeps the sketch through an ingest whose first new row lands at
    /// `first_new_row` only if a fresh fit over the grown index would use
    /// the same prefix rows: the prefix is saturated and lies wholly before
    /// the new rows. Otherwise drops it so the next over-cap call refits.
    fn retain_sketch_past(&mut self, first_new_row: usize) {
        let full = self.sketch_config.prefix_rows;
        if self
            .sketch
            .as_ref()
            .is_some_and(|s| s.prefix_len() < full || first_new_row < s.prefix_len())
        {
            self.sketch = None;
        }
    }

    /// Merge splice for out-of-order video ids: rebuilds the row arrays once
    /// by walking old and new videos in ascending id order (O(n + Δ) copies,
    /// no distance work). Derived per-row state (mask, coverage, a kept
    /// sketch's assignments) moves with its rows, so only the new rows are
    /// assigned.
    fn merge(&mut self, staged: Vec<StagedVideo>) {
        let dim = if self.block.dim() > 0 {
            self.block.dim()
        } else {
            staged
                .iter()
                .find(|i| !i.block.is_empty())
                .map_or(0, |i| i.block.dim())
        };
        let added_rows: usize = staged.iter().map(|i| i.block.rows()).sum::<usize>();
        let total_rows = self.meta.len() + added_rows;
        let mut data: Vec<f32> = Vec::with_capacity(total_rows * dim);
        let mut meta = Vec::with_capacity(total_rows);
        let mut masked = Vec::with_capacity(total_rows);
        let mut coverage = Vec::with_capacity(total_rows);
        let mut video_rows = HashMap::with_capacity(self.video_order.len() + staged.len());
        let mut video_order = Vec::with_capacity(self.video_order.len() + staged.len());
        // Pre-splice position of every merged row (`None` for new rows).
        let mut old_row: Vec<Option<usize>> = Vec::with_capacity(total_rows);
        let mut first_new_row = None;

        let mut old = self.video_order.iter().copied().peekable();
        let mut new = staged.into_iter().peekable();
        loop {
            let take_old = match (old.peek(), new.peek()) {
                (Some(&o), Some(n)) => o < n.vid,
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            if take_old {
                let vid = old.next().expect("peeked");
                let (start, len) = self.video_rows[&vid];
                data.extend_from_slice(&self.block.as_slice()[start * dim..(start + len) * dim]);
                meta.extend_from_slice(&self.meta[start..start + len]);
                masked.extend_from_slice(&self.masked[start..start + len]);
                coverage.extend_from_slice(&self.coverage[start..start + len]);
                old_row.extend((start..start + len).map(Some));
                video_rows.insert(vid, (meta.len() - len, len));
                video_order.push(vid);
            } else {
                let item = new.next().expect("peeked");
                let len = item.block.rows();
                first_new_row.get_or_insert(meta.len());
                old_row.resize(old_row.len() + len, None);
                data.extend_from_slice(item.block.as_slice());
                for r in 0..len {
                    meta.push((item.vid, item.ranges[r]));
                }
                masked.extend_from_slice(&item.masked);
                coverage.extend_from_slice(&item.coverage);
                video_rows.insert(item.vid, (meta.len() - len, len));
                video_order.push(item.vid);
            }
        }

        self.block = FeatureBlock::from_vec(total_rows, dim, data);
        self.unmasked = masked.iter().filter(|&&m| !m).count();
        self.meta = meta;
        self.masked = masked;
        self.coverage = coverage;
        self.video_rows = video_rows;
        self.video_order = video_order;
        self.retain_sketch_past(first_new_row.unwrap_or(total_rows));
        if let Some(sketch) = &mut self.sketch {
            sketch.splice(&self.block, &old_row);
        }
        self.epoch += 1;
    }

    /// Masks windows covered by label records not yet applied (O(Δlabels ·
    /// windows-per-video) instead of the old full re-scan).
    fn sync_masks(&mut self, labels: &LabelStore) {
        let records = labels.records();
        for r in &records[self.labels_masked.min(records.len())..] {
            if let Some(&(start, len)) = self.video_rows.get(&r.vid) {
                for row in start..start + len {
                    if !self.masked[row] && self.meta[row].1.overlaps(&r.range) {
                        self.masked[row] = true;
                        self.unmasked -= 1;
                    }
                }
            }
        }
        self.labels_masked = records.len();
    }

    /// Ingests label records not yet represented in the coverage state: one
    /// anchor row lookup per new label (extracting the labeled video on
    /// demand, exactly like the old per-call labeled-block assembly) plus one
    /// O(n) coverage update per new anchor. Only coreset calls pay this.
    pub fn sync_anchors(&mut self, fm: &FeatureManager, corpus: &VideoCorpus, labels: &LabelStore) {
        let records = labels.records();
        for r in &records[self.anchors_ingested.min(records.len())..] {
            let row = fm
                .with_video_features(self.extractor, corpus, r.vid, |entry| {
                    entry.window_for(&r.range).map(|i| entry.row(i).to_vec())
                })
                .flatten();
            if let Some(row) = row {
                if self.anchors.rows() == 0 && self.anchors.dim() != row.len() {
                    self.anchors = FeatureBlock::empty(row.len());
                }
                self.anchors.push_row(&row);
                if !self.coverage.is_empty() {
                    self.block.min_sq_distances_update(&row, &mut self.coverage);
                }
            }
        }
        self.anchors_ingested = records.len();
    }

    /// Writes into `out` the coverage vector a selection call should
    /// consume: a scratch copy of the persistent anchor coverage (the call's
    /// own greedy picks must not leak into cross-iteration state), or the
    /// centroid seeding when no anchor exists yet (matching
    /// [`ve_al::coreset_selection`] with an empty labeled block). The buffer
    /// is caller-owned, so the ALM reuses one scratch allocation across
    /// `select_segments` calls.
    ///
    /// # Panics
    /// Panics on an empty index.
    pub fn coverage_for_call_into(&self, out: &mut Vec<f32>) {
        if self.anchors.rows() == 0 {
            let centroid = self.block.centroid().expect("non-empty index");
            out.clear();
            out.resize(self.block.rows(), 0.0);
            self.block.sq_distances_to(&centroid, out);
        } else {
            out.clear();
            out.extend_from_slice(&self.coverage);
        }
    }

    /// The rows a selection call may pick from, ascending: every unmasked row
    /// when the pool fits under the candidate cap, otherwise the cluster
    /// sketch's structure-aware reduction (building or extending the sketch
    /// on demand).
    pub fn eligible_rows(&mut self) -> Vec<usize> {
        if self.unmasked > self.candidate_cap {
            match &mut self.sketch {
                Some(sketch) => sketch.extend(&self.block),
                None => {
                    self.sketch = Some(ClusterSketch::build(&self.block, self.sketch_config));
                    self.sketch_builds += 1;
                }
            }
        }
        self.eligible_rows_over(&self.masked, self.unmasked)
            .expect("the sketch covers every row")
    }

    /// The rows [`Self::eligible_rows`] would return once `rows` are masked
    /// too, without touching the index: the ALM's prediction of the next
    /// call's candidates, with the last call's picks labeled. `None` when
    /// the answer needs a sketch the index has not built or extended yet
    /// (see [`Self::reduction_ready`]).
    ///
    /// # Panics
    /// Panics if a row is out of range.
    pub(crate) fn eligible_rows_masking(&self, rows: &[usize]) -> Option<Vec<usize>> {
        let mut masked = self.masked.clone();
        let mut unmasked = self.unmasked;
        for &row in rows {
            if !std::mem::replace(&mut masked[row], true) {
                unmasked -= 1;
            }
        }
        self.eligible_rows_over(&masked, unmasked)
    }

    /// Whether [`Self::eligible_rows`] would only read the index: the pool
    /// fits under the cap, or the sketch is alive and covers every row.
    pub(crate) fn reduction_ready(&self) -> bool {
        self.unmasked <= self.candidate_cap || self.covering_sketch().is_some()
    }

    /// The clip length the index's windows span.
    pub(crate) fn clip_len(&self) -> f64 {
        self.clip_len
    }

    /// Whether row `row` is labeled (not selectable).
    pub(crate) fn is_masked(&self, row: usize) -> bool {
        self.masked[row]
    }

    /// The sketch, if it is alive and has assigned every row.
    fn covering_sketch(&self) -> Option<&ClusterSketch> {
        self.sketch
            .as_ref()
            .filter(|s| s.assigned_rows() == self.rows())
    }

    /// The eligible rows under `masked` (one entry per row, `unmasked` of
    /// them unset), or `None` when over the cap without a covering sketch.
    fn eligible_rows_over(&self, masked: &[bool], unmasked: usize) -> Option<Vec<usize>> {
        if unmasked <= self.candidate_cap {
            return Some((0..masked.len()).filter(|&r| !masked[r]).collect());
        }
        Some(self.covering_sketch()?.reduce(masked, self.candidate_cap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ve_features::FeatureSimulator;
    use ve_storage::StorageManager;
    use ve_vidsim::{Dataset, DatasetName};

    const EXTRACTOR: ExtractorId = ExtractorId::Mvit;

    /// A sketch small enough that a few Deer videos saturate its prefix.
    fn small_index() -> AcquisitionIndex {
        let mut index = AcquisitionIndex::new(EXTRACTOR, 1.0, 16);
        index.sketch_config = ClusterSketchConfig {
            prefix_rows: 32,
            clusters: 4,
            kmeans_iters: 4,
        };
        index
    }

    struct Fixture {
        dataset: Dataset,
        fm: FeatureManager,
        labels: LabelStore,
        /// Train video ids, ascending.
        vids: Vec<VideoId>,
    }

    impl Fixture {
        fn new() -> Self {
            let dataset = Dataset::scaled(DatasetName::Deer, 0.1, 5);
            let fm = FeatureManager::new(
                FeatureSimulator::with_dim(DatasetName::Deer, 4, 5, 8),
                StorageManager::new(),
            );
            let mut vids: Vec<VideoId> = dataset.train.videos().iter().map(|c| c.id).collect();
            vids.sort_unstable();
            Self {
                dataset,
                fm,
                labels: LabelStore::new(),
                vids,
            }
        }

        fn extract(&self, vids: impl IntoIterator<Item = VideoId>) {
            for vid in vids {
                let clip = self.dataset.train.get(vid).expect("train video");
                self.fm.ensure_clip(EXTRACTOR, clip).unwrap();
            }
        }

        fn sync(&self, index: &mut AcquisitionIndex) {
            index.sync(&self.fm, &self.dataset.train, &self.labels);
        }

        /// Syncs `index`, selects, and checks both the eligible rows and the
        /// sketch against a from-scratch index over the same store.
        fn sync_and_check(&self, index: &mut AcquisitionIndex) {
            self.sync(index);
            let mut fresh = self.fresh();
            assert_eq!(index.eligible_rows(), fresh.eligible_rows());
            assert_eq!(index.sketch, fresh.sketch);
        }

        /// A from-scratch index that has built its sketch.
        fn fresh(&self) -> AcquisitionIndex {
            let mut fresh = small_index();
            self.sync(&mut fresh);
            fresh.eligible_rows();
            assert_eq!(fresh.stats().sketch_builds, 1);
            fresh
        }

        /// Every other video of the first 40, ingested as tail appends,
        /// with the sketch built over them.
        fn seeded_index(&self) -> AcquisitionIndex {
            let mut index = small_index();
            self.extract(self.vids[..40].iter().step_by(2).copied());
            self.sync_and_check(&mut index);
            assert!(index.rows() > 2 * index.sketch_config.prefix_rows);
            assert_eq!(index.stats().sketch_builds, 1);
            index
        }

        /// Held-back (odd-position) videos that sort before the index tail
        /// and whose rows land past its fit prefix.
        fn past_prefix(&self, index: &AcquisitionIndex) -> Vec<VideoId> {
            let boundary = index.meta_at(index.sketch_config.prefix_rows).0;
            self.vids[..39]
                .iter()
                .skip(1)
                .step_by(2)
                .copied()
                .filter(|&vid| vid > boundary)
                .collect()
        }
    }

    #[test]
    fn merges_past_the_saturated_prefix_keep_the_sketch() {
        let fx = Fixture::new();
        let mut index = fx.seeded_index();
        let splices = fx.past_prefix(&index);
        assert!(splices.len() >= 5, "{splices:?}");
        for vid in splices {
            let epoch = index.epoch();
            fx.extract([vid]);
            fx.sync_and_check(&mut index);
            assert_eq!(index.epoch(), epoch + 1, "video {vid:?} was merged");
            assert_eq!(index.stats().sketch_builds, 1);
        }
    }

    #[test]
    fn a_merge_inside_the_prefix_refits() {
        let fx = Fixture::new();
        let mut index = fx.seeded_index();
        fx.extract([fx.vids[1]]);
        fx.sync_and_check(&mut index);
        assert_eq!(index.stats().sketch_builds, 2);
    }

    #[test]
    fn a_merge_assigns_tail_rows_appended_since_the_last_selection() {
        let fx = Fixture::new();
        let mut index = fx.seeded_index();
        fx.extract([fx.vids[45]]);
        fx.sync(&mut index);
        let sketch = index
            .sketch
            .as_ref()
            .expect("a tail append keeps the sketch");
        assert!(
            sketch.assigned_rows() < index.rows(),
            "tail not yet assigned"
        );
        fx.extract([fx.past_prefix(&index)[0]]);
        fx.sync(&mut index);
        assert_eq!(index.sketch, fx.fresh().sketch);
        assert_eq!(index.stats().sketch_builds, 1);
    }
}
