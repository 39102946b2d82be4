//! The Feature Manager (FM).
//!
//! "The FM returns feature representations of video segments. These feature
//! vectors are used by the ALM to decide which video segments the user should
//! label as well as by the Model Manager to perform training and inference"
//! (Section 2.3). The FM extracts features lazily — only for the videos a
//! caller asks about — caches everything in the storage manager, and keeps a
//! running total of the simulated GPU seconds it has spent, which the latency
//! accounting uses.

use crate::observability::{ObsHandle, SessionEvent};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use ve_features::{ExtractorId, FeatureSimulator, FeatureVector};
use ve_sched::fault::{FaultInjector, FaultSite};
use ve_sched::RetryPolicy;
use ve_storage::StorageManager;
use ve_vidsim::{TimeRange, VideoClip, VideoCorpus, VideoId};

/// Typed extraction failure: the (simulated) GPU backend failed every attempt
/// the retry budget allowed for one `(extractor, vid)` operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtractionError {
    /// Extractor whose backend failed.
    pub extractor: ExtractorId,
    /// Video whose extraction gave up.
    pub vid: VideoId,
    /// Attempts consumed before giving up.
    pub attempts: u32,
}

impl std::fmt::Display for ExtractionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "GPU extraction of {:?} features for video {} failed after {} attempts",
            self.extractor, self.vid.0, self.attempts
        )
    }
}

impl std::error::Error for ExtractionError {}

/// Feature Manager: lazy, cached feature extraction with cost accounting.
pub struct FeatureManager {
    simulator: FeatureSimulator,
    storage: StorageManager,
    gpu_seconds: Mutex<f64>,
    /// When non-zero (stored as `f64` bits), every cache-missing extraction
    /// sleeps `cost * scale` wall-clock seconds on the calling thread, so
    /// a measured session run can *measure* the Table-3 GPU costs instead
    /// of modeling them. Zero (the default) disables the sleep entirely.
    latency_scale_bits: AtomicU64,
    /// Deterministic GPU-fault injection; `None` disables it.
    fault: Option<Arc<FaultInjector>>,
    /// Attempts and virtual-time backoff the extraction retry loop uses when
    /// a fault is injected. Backoff sleeps only when latency simulation is
    /// on, and never affects fault decisions.
    retry: RetryPolicy,
    /// Event recorder; `None` until the owning system installs one.
    obs: Option<ObsHandle>,
}

impl FeatureManager {
    /// Creates a feature manager backed by the given simulator and storage.
    pub fn new(simulator: FeatureSimulator, storage: StorageManager) -> Self {
        Self {
            simulator,
            storage,
            gpu_seconds: Mutex::new(0.0),
            latency_scale_bits: AtomicU64::new(0),
            fault: None,
            retry: RetryPolicy::none(),
            obs: None,
        }
    }

    /// Installs the observability recorder. `Extracted` events are recorded
    /// by the unique publish winner of each `(extractor, clip)` — exactly
    /// once per clip, on any path and at any thread count — so the event
    /// plane stays deterministic even though *call* counts are not.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = Some(obs);
    }

    /// Installs a deterministic fault injector (and the retry budget its
    /// failures are retried under) for the `FeatureExtraction` site.
    pub fn set_fault_injector(&mut self, fault: Option<Arc<FaultInjector>>, retry: RetryPolicy) {
        self.fault = fault;
        self.retry = retry;
    }

    /// The simulator in use (exposes extractor specs and profiles).
    pub fn simulator(&self) -> &FeatureSimulator {
        &self.simulator
    }

    /// Enables (scale > 0) or disables (`None` / 0) wall-clock simulation of
    /// GPU extraction latency: each cache-missing extraction sleeps
    /// `extraction_cost * scale` real seconds on the thread performing it.
    /// The sleep lands wherever the extraction actually runs — on a
    /// background executor worker for eager `T_f⁻` tasks (hidden from the
    /// user), or on the API calling thread for lazy extraction (visible).
    pub fn set_latency_scale(&self, scale: Option<f64>) {
        let bits = scale.filter(|s| *s > 0.0).unwrap_or(0.0).to_bits();
        self.latency_scale_bits.store(bits, Ordering::Relaxed);
    }

    /// The configured wall-clock latency scale, if enabled.
    pub fn latency_scale(&self) -> Option<f64> {
        let scale = f64::from_bits(self.latency_scale_bits.load(Ordering::Relaxed));
        (scale > 0.0).then_some(scale)
    }

    /// Total simulated GPU seconds spent on extraction so far.
    pub fn gpu_seconds_spent(&self) -> f64 {
        *self.gpu_seconds.lock()
    }

    /// Whether features for `(extractor, vid)` are already cached.
    pub fn has_features(&self, extractor: ExtractorId, vid: VideoId) -> bool {
        self.storage.with_features(|f| f.contains(extractor, vid))
    }

    /// Atomic snapshot of the feature store's change log: the current
    /// generation plus every `(extractor, video)` key inserted since `gen`,
    /// read under one lock acquisition so a consumer can catch up without
    /// missing (or double-seeing) concurrent extractions. This is the ALM's
    /// `AcquisitionIndex` ingest feed.
    pub fn store_changes_since(&self, gen: u64) -> (u64, Vec<(ExtractorId, VideoId)>) {
        self.storage
            .with_features(|f| (f.generation(), f.changes_since(gen).to_vec()))
    }

    /// Videos with cached features for the given extractor.
    pub fn videos_with_features(&self, extractor: ExtractorId) -> Vec<VideoId> {
        self.storage
            .with_features(|f| f.videos_with_features(extractor))
    }

    /// Stable fault-decision key for one `(extractor, vid)` operation.
    fn fault_key(extractor: ExtractorId, vid: VideoId) -> u64 {
        (vid.0 << 3) | extractor.index() as u64
    }

    /// Runs the deterministic GPU-fault retry loop for one extraction.
    /// Attempt numbering restarts at zero per call, so a given
    /// `(extractor, vid)` either always succeeds within the budget or always
    /// gives up — a pure constant of the fault plan, at any thread count.
    /// The virtual-time backoff sleeps only when latency simulation is on
    /// (decisions are unaffected).
    fn extraction_gate(&self, extractor: ExtractorId, vid: VideoId) -> Result<(), ExtractionError> {
        let Some(inj) = &self.fault else {
            return Ok(());
        };
        let key = Self::fault_key(extractor, vid);
        let policy = self
            .retry
            .with_time_scale(self.latency_scale().unwrap_or(0.0));
        inj.gate(FaultSite::FeatureExtraction, key, &policy)
            .map_err(|attempts| ExtractionError {
                extractor,
                vid,
                attempts,
            })
    }

    /// Ensures features for one whole clip are extracted (no-op if cached).
    /// Returns the GPU seconds this call actually spent (0 on a cache hit),
    /// or a typed error when the (injected) GPU fault outlasted the retry
    /// budget — in which case nothing is published or charged, and the video
    /// stays pending for future calls.
    ///
    /// Safe to call concurrently for the same `(extractor, clip)`: the
    /// simulator is deterministic, so racing extractions produce identical
    /// vectors, and only the thread that actually publishes the entry is
    /// charged for the GPU time.
    pub fn ensure_clip(
        &self,
        extractor: ExtractorId,
        clip: &VideoClip,
    ) -> Result<f64, ExtractionError> {
        if self.has_features(extractor, clip.id) {
            return Ok(0.0);
        }
        self.extraction_gate(extractor, clip.id)?;
        let vectors = self.simulator.extract_clip(extractor, clip);
        let cost = self.simulator.extraction_seconds(extractor, clip);
        if let Some(scale) = self.latency_scale() {
            // The simulated GPU is busy for `cost` seconds before the
            // features become available; scaled down to wall-clock so a
            // measured session run can measure it.
            std::thread::sleep(std::time::Duration::from_secs_f64(cost * scale));
        }
        let inserted = self
            .storage
            .with_features_mut(|f| f.insert(extractor, clip.id, &vectors));
        if !inserted {
            return Ok(0.0);
        }
        *self.gpu_seconds.lock() += cost;
        if let Some(obs) = &self.obs {
            obs.record(SessionEvent::Extracted {
                extractor,
                vid: clip.id,
            });
        }
        Ok(cost)
    }

    /// Returns the cached feature vector covering `range` within `vid`,
    /// extracting the whole clip on demand if necessary. Returns `None` when
    /// the video is unknown to the corpus, or when its extraction permanently
    /// failed (graceful degradation: the caller proceeds without the
    /// feature, and the video stays pending).
    pub fn feature_for(
        &self,
        extractor: ExtractorId,
        corpus: &VideoCorpus,
        vid: VideoId,
        range: &TimeRange,
    ) -> Option<FeatureVector> {
        self.with_video_features(extractor, corpus, vid, |entry| {
            entry.window_for(range).map(|i| FeatureVector {
                extractor,
                vid,
                range: *entry.range(i),
                data: entry.row(i).to_vec(),
            })
        })
        .flatten()
    }

    /// Runs `f` over the contiguous feature windows of a video (extracting on
    /// demand), without copying any embedding data out of the store. Returns
    /// `None` when the video is unknown to the corpus or its extraction
    /// permanently failed (the feature is simply absent — callers degrade).
    ///
    /// This is the hot-path accessor: the ALM's candidate assembly and batch
    /// prediction read rows as zero-copy views from inside the closure.
    pub fn with_video_features<R>(
        &self,
        extractor: ExtractorId,
        corpus: &VideoCorpus,
        vid: VideoId,
        f: impl FnOnce(&ve_storage::VideoFeatures) -> R,
    ) -> Option<R> {
        let clip = corpus.get(vid)?;
        // A permanently failed extraction leaves the store entry absent, so
        // the closure never runs and the caller sees `None` — that absence
        // *is* the degradation contract.
        let _ = self.ensure_clip(extractor, clip);
        self.storage.with_features(|s| s.get(extractor, vid).map(f))
    }

    /// The per-clip extraction cost for an extractor (used by the scheduler's
    /// cost accounting even when the extraction itself is skipped).
    pub fn extraction_cost(&self, extractor: ExtractorId, clip: &VideoClip) -> f64 {
        self.simulator.extraction_seconds(extractor, clip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ve_vidsim::{Dataset, DatasetName};

    fn setup() -> (Dataset, FeatureManager) {
        let ds = Dataset::scaled(DatasetName::Deer, 0.05, 5);
        let sim = FeatureSimulator::new(DatasetName::Deer, 9, 5);
        let fm = FeatureManager::new(sim, StorageManager::new());
        (ds, fm)
    }

    #[test]
    fn extraction_is_cached_and_costed_once() {
        let (ds, fm) = setup();
        let clip = &ds.train.videos()[0];
        assert!(!fm.has_features(ExtractorId::R3d, clip.id));
        let c1 = fm.ensure_clip(ExtractorId::R3d, clip).unwrap();
        assert!(c1 > 0.0);
        let c2 = fm.ensure_clip(ExtractorId::R3d, clip).unwrap();
        assert_eq!(c2, 0.0, "second extraction must be a cache hit");
        assert!((fm.gpu_seconds_spent() - c1).abs() < 1e-12);
        assert!(fm.has_features(ExtractorId::R3d, clip.id));
    }

    #[test]
    fn feature_for_returns_window_overlapping_vector() {
        let (ds, fm) = setup();
        let clip = &ds.train.videos()[0];
        let fv = fm
            .feature_for(
                ExtractorId::Mvit,
                &ds.train,
                clip.id,
                &TimeRange::new(3.2, 4.2),
            )
            .unwrap();
        assert!(fv.range.overlaps(&TimeRange::new(3.2, 4.2)));
        assert_eq!(fv.vid, clip.id);
    }

    #[test]
    fn feature_for_unknown_video_is_none() {
        let (ds, fm) = setup();
        assert!(fm
            .feature_for(
                ExtractorId::Mvit,
                &ds.train,
                VideoId(999_999),
                &TimeRange::new(0.0, 1.0)
            )
            .is_none());
    }

    #[test]
    fn concurrent_extraction_of_one_clip_is_charged_once() {
        let (ds, fm) = setup();
        let fm = std::sync::Arc::new(fm);
        let clip = ds.train.videos()[0].clone();
        let expected = fm.extraction_cost(ExtractorId::R3d, &clip);
        let total: f64 = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let fm = std::sync::Arc::clone(&fm);
                    let clip = clip.clone();
                    scope.spawn(move || fm.ensure_clip(ExtractorId::R3d, &clip).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert!(
            (total - expected).abs() < 1e-12,
            "exactly one racer may be charged: total {total}, per-clip {expected}"
        );
        assert!((fm.gpu_seconds_spent() - expected).abs() < 1e-12);
    }

    #[test]
    fn latency_scale_round_trip_and_sleep() {
        let (ds, fm) = setup();
        assert_eq!(fm.latency_scale(), None);
        fm.set_latency_scale(Some(1e-3));
        assert_eq!(fm.latency_scale(), Some(1e-3));
        let clip = &ds.train.videos()[0];
        let cost = fm.extraction_cost(ExtractorId::R3d, clip);
        let start = std::time::Instant::now();
        fm.ensure_clip(ExtractorId::R3d, clip).unwrap();
        assert!(start.elapsed().as_secs_f64() >= cost * 1e-3 * 0.5);
        // Cache hits never sleep.
        let start = std::time::Instant::now();
        fm.ensure_clip(ExtractorId::R3d, clip).unwrap();
        assert!(start.elapsed().as_secs_f64() < 0.05);
        fm.set_latency_scale(None);
        assert_eq!(fm.latency_scale(), None);
    }

    #[test]
    fn transient_faults_succeed_within_the_retry_budget() {
        use ve_sched::fault::{FaultPlan, FaultRule};
        let (ds, mut fm) = setup();
        // Every attempt below index 2 fails; budget of 3 always succeeds.
        fm.set_fault_injector(
            Some(Arc::new(FaultInjector::new(FaultPlan::uniform(
                13,
                FaultRule::transient(1.0, 2),
            )))),
            RetryPolicy::new(3, 0.0, 1.0),
        );
        let clip = &ds.train.videos()[0];
        let cost = fm.ensure_clip(ExtractorId::R3d, clip).unwrap();
        assert!(cost > 0.0, "transient faults are invisible to the caller");
        assert!(fm.has_features(ExtractorId::R3d, clip.id));
    }

    #[test]
    fn permanent_fault_leaves_video_pending_and_uncharged() {
        use ve_sched::fault::{FaultPlan, FaultRule};
        let (ds, mut fm) = setup();
        fm.set_fault_injector(
            Some(Arc::new(FaultInjector::new(FaultPlan::uniform(
                13,
                FaultRule::permanent(1.0),
            )))),
            RetryPolicy::new(2, 0.0, 1.0),
        );
        let clip = &ds.train.videos()[0];
        let err = fm.ensure_clip(ExtractorId::R3d, clip).unwrap_err();
        assert_eq!(err.attempts, 2);
        assert_eq!(err.vid, clip.id);
        assert!(!fm.has_features(ExtractorId::R3d, clip.id));
        assert_eq!(fm.gpu_seconds_spent(), 0.0, "failed work is not charged");
        // The degraded accessors see an absent feature, not a panic.
        assert!(fm
            .feature_for(
                ExtractorId::R3d,
                &ds.train,
                clip.id,
                &TimeRange::new(0.0, 1.0)
            )
            .is_none());
        // Retrying replays the identical decision: still failing.
        assert!(fm.ensure_clip(ExtractorId::R3d, clip).is_err());
    }

    #[test]
    fn per_extractor_costs_differ() {
        let (ds, fm) = setup();
        let clip = &ds.train.videos()[0];
        assert!(
            fm.extraction_cost(ExtractorId::Mvit, clip)
                > fm.extraction_cost(ExtractorId::R3d, clip)
        );
    }
}
