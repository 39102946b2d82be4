//! The `AcquisitionIndex` determinism contract, proven end to end.
//!
//! The ALM's persistent candidate index promises that incremental syncing
//! (change-log ingest, in-place label masking, Δ-anchor coverage updates,
//! sketch reuse) produces **bit-identical selections** to a freshly
//! constructed index at the same store/label state, at any
//! `compute_threads` setting.
//! These property tests drive randomized interleavings of *extract*, *label*,
//! *train*, and *explore* events against two managers:
//!
//! * the **incremental** ALM lives across the whole interleaving, growing its
//!   index call over call;
//! * the **from-scratch** oracle is a brand-new ALM constructed at every
//!   explore event, whose first selection builds the candidate state from
//!   the store's whole change log and the full label list.
//!
//! Both must return the same picks and the same selection stats, for
//! Coreset, Cluster-Margin, and rare-class Uncertainty, with the candidate
//! cap set low enough that the cluster-sketch reduction is exercised too.
//!
//! The prefetch interleavings add the ALM's probability prefetch
//! (`prefetch_candidates`) at random points, next to the events that must
//! invalidate it: merge-splicing ingests, label masks, retrains, failed
//! trains, and extractor and clip-length switches. Their oracle is a
//! from-scratch ALM that never prefetches, so a prefetch served or dropped
//! must leave the picks bit for bit as they were.
//!
//! The prepared-pool interleavings follow the labeling window of a
//! session: the user labels the last call's picks, a retrain publishes, and
//! the prefetch runs the next Cluster-Margin call ahead of time, keeping
//! its picks. Around that they place every event that must make the next
//! call refuse the prepared picks: other labels or one pick fewer,
//! ingests, a lazy extension inside the call, a retrain, clip-length and
//! extractor switches, a budget change, and a targeted call. The same
//! oracle must agree with every pick, served prepared or not.

use proptest::prelude::*;
use std::sync::Arc;
use ve_al::AcquisitionKind;
use ve_features::{ExtractorId, FeatureSimulator};
use ve_storage::{LabelRecord, LabelStore, StorageManager};
use ve_vidsim::{Dataset, DatasetName, GroundTruthOracle, Oracle, TaskKind, TimeRange, VideoId};
use vocalexplore::alm::{ActiveLearningManager, SelectionStats};
use vocalexplore::config::{FeatureSelectionPolicy, SamplingPolicy, VocalExploreConfig};
use vocalexplore::feature_manager::FeatureManager;
use vocalexplore::model_manager::ModelManager;
use vocalexplore::ProbCacheStats;

use ve_sched::fault::{FaultInjector, FaultPlan, FaultRule, FaultSite};

const EXTRACTOR: ExtractorId = ExtractorId::Mvit;
const BUDGET: usize = 3;
const CLIP_LEN: f64 = 1.0;
/// Low cap so the sketch reduction participates in most interleavings.
const CAP: usize = 16;

fn dataset() -> &'static Dataset {
    static DATASET: std::sync::OnceLock<Dataset> = std::sync::OnceLock::new();
    DATASET.get_or_init(|| Dataset::scaled(DatasetName::Deer, 0.1, 5))
}

fn config(kind: AcquisitionKind) -> VocalExploreConfig {
    let mut cfg = VocalExploreConfig::for_dataset(dataset(), 5)
        .with_sampling(SamplingPolicy::Fixed(kind))
        .with_feature_selection(FeatureSelectionPolicy::Fixed(EXTRACTOR))
        // `extra_candidates_x = 0` keeps the lazy-extension RNG out of the
        // picture: a freshly constructed oracle ALM has a fresh RNG, so the
        // equivalence statement is about the deterministic index path.
        .with_extra_candidates(0)
        .with_candidate_cap(CAP);
    cfg.train.epochs = 20;
    cfg
}

/// One step of a randomized session. The `(code, arg)` pairs produced by
/// proptest map onto these.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// Extract features for the next `n` corpus videos.
    Extract(usize),
    /// Label one currently unlabeled window (video chosen by `arg`).
    Label(usize),
    /// Train the model on the labels collected so far.
    Train,
    /// Run one `Explore` selection and compare incremental vs from-scratch.
    Explore,
}

fn decode(events: &[(usize, usize)]) -> Vec<Event> {
    let mut out = Vec::with_capacity(events.len() + 3);
    // Guarantee a feature-bearing pool before the first selection so the
    // active path never falls back to RNG-driven random sampling.
    out.push(Event::Extract(BUDGET + 1));
    out.push(Event::Explore);
    for &(code, arg) in events {
        out.push(match code {
            0 => Event::Extract(1 + arg % 3),
            1 => Event::Label(arg),
            2 => Event::Explore,
            _ => Event::Train,
        });
    }
    out.push(Event::Explore);
    out
}

/// Picks the next `n` corpus videos to extract, walking the corpus with a
/// position-dependent stride so video ids arrive **out of order**: most
/// ingests land before the index tail, forcing the `AcquisitionIndex` merge
/// splice (not just the O(Δ) tail append) under the equivalence oracle.
fn extraction_plan<'a>(
    dataset: &'a Dataset,
    extracted: &[VideoId],
    n: usize,
) -> Vec<&'a ve_vidsim::VideoClip> {
    let videos = dataset.train.videos();
    let total = videos.len();
    let done: std::collections::HashSet<VideoId> = extracted.iter().copied().collect();
    let mut plan = Vec::with_capacity(n);
    // A stride coprime with most corpus sizes scatters the walk; the offset
    // shifts with how much is already extracted so successive events visit
    // different regions.
    let stride = 7;
    let offset = (extracted.len() * 13) % total.max(1);
    let mut probe = offset;
    for _ in 0..total {
        if plan.len() == n {
            break;
        }
        let clip = &videos[probe];
        if !done.contains(&clip.id) && !plan.iter().any(|c: &&ve_vidsim::VideoClip| c.id == clip.id)
        {
            plan.push(clip);
        }
        probe = (probe + stride) % total;
    }
    // The strided walk visits only one stride-coset when the stride divides
    // the corpus size; top up with a plain scan so `n` is always honored.
    for clip in videos {
        if plan.len() == n {
            break;
        }
        if !done.contains(&clip.id) && !plan.iter().any(|c: &&ve_vidsim::VideoClip| c.id == clip.id)
        {
            plan.push(clip);
        }
    }
    plan
}

/// Runs one interleaving. Panics (failing the property) if any explore's
/// picks or stats diverge between the incremental ALM and a freshly built
/// one.
fn run_interleaving(kind: AcquisitionKind, target: Option<usize>, events: &[Event]) {
    let dataset = dataset();
    let cfg = config(kind);
    let fm = FeatureManager::new(
        FeatureSimulator::new(DatasetName::Deer, cfg.num_classes, 5),
        StorageManager::new(),
    );
    let mm = ModelManager::new(cfg.clone());
    let mut labels = LabelStore::new();
    let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
    let mut incremental = ActiveLearningManager::new(cfg.clone());
    let mut extracted: Vec<VideoId> = Vec::new();

    for &event in events {
        match event {
            Event::Extract(n) => {
                for clip in extraction_plan(dataset, &extracted, n) {
                    fm.ensure_clip(EXTRACTOR, clip).unwrap();
                    extracted.push(clip.id);
                }
            }
            Event::Label(arg) => {
                if extracted.is_empty() {
                    continue;
                }
                let vid = extracted[arg % extracted.len()];
                let clip = dataset.train.get(vid).expect("extracted from corpus");
                let window = (0..clip.num_windows(CLIP_LEN))
                    .map(|w| TimeRange::new(w as f64 * CLIP_LEN, (w + 1) as f64 * CLIP_LEN))
                    .find(|range| !labels.is_labeled(vid, range));
                if let Some(range) = window {
                    labels.add(LabelRecord {
                        vid,
                        range,
                        classes: oracle.label(&dataset.train, vid, &range),
                        iteration: 0,
                    });
                }
            }
            Event::Train => {
                mm.train(EXTRACTOR, &dataset.train, &fm, labels.records(), 0)
                    .unwrap();
            }
            Event::Explore => {
                let (picks, stats) = incremental.select_segments(
                    &dataset.train,
                    &fm,
                    &mm,
                    &labels,
                    BUDGET,
                    CLIP_LEN,
                    target,
                );
                // From-scratch oracle: a new ALM whose index replays the
                // store's whole change log and the full label list.
                let mut fresh = ActiveLearningManager::new(cfg.clone());
                let (fresh_picks, fresh_stats) = fresh.select_segments(
                    &dataset.train,
                    &fm,
                    &mm,
                    &labels,
                    BUDGET,
                    CLIP_LEN,
                    target,
                );
                assert_eq!(
                    picks, fresh_picks,
                    "incremental selection diverged from a from-scratch ALM ({kind:?})"
                );
                assert_eq!(stats, fresh_stats, "selection stats diverged ({kind:?})");
                assert_eq!(stats.acquisition, kind, "active path must not fall back");
            }
        }
    }
}

fn event_strategy() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..4, 0usize..17), 6..18)
}

proptest! {
    // 3 × 20 cases ≥ 50 randomized interleavings.
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn coreset_incremental_matches_from_scratch(events in event_strategy()) {
        let events = decode(&events);
        run_interleaving(AcquisitionKind::Coreset, None, &events);
    }

    #[test]
    fn cluster_margin_incremental_matches_from_scratch(events in event_strategy()) {
        let events = decode(&events);
        run_interleaving(AcquisitionKind::ClusterMargin, None, &events);
    }

    #[test]
    fn uncertainty_incremental_matches_from_scratch(events in event_strategy()) {
        let events = decode(&events);
        // `Explore(label = 2)` forces the rare-class uncertainty sampler
        // regardless of the configured policy.
        run_interleaving(AcquisitionKind::Uncertainty, Some(2), &events);
    }
}

/// The interleavings above keep every kernel call under
/// `ve_sched::parallel::MIN_PARALLEL_WORK`, so they run inline at any thread
/// count. This Cluster-Margin call scores enough eligible rows that its
/// batched inference states at least that much work and fans out at four
/// workers; its picks must equal the inline call's.
#[test]
fn cluster_margin_picks_identical_across_compute_threads_past_the_work_threshold() {
    use ve_sched::parallel::{set_parallelism, test_parallelism_guard, MIN_PARALLEL_WORK};
    let _guard = test_parallelism_guard();
    let dataset = Dataset::scaled(DatasetName::Deer, 0.25, 5);
    // Every unmasked row is eligible: no sketch reduction caps the pool.
    let cfg = config(AcquisitionKind::ClusterMargin).with_candidate_cap(1_000_000);
    let fm = FeatureManager::new(
        FeatureSimulator::new(DatasetName::Deer, cfg.num_classes, 5),
        StorageManager::new(),
    );
    let mut labels = LabelStore::new();
    let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
    for (i, clip) in dataset.train.videos().iter().enumerate() {
        fm.ensure_clip(EXTRACTOR, clip).unwrap();
        if i % 8 == 0 {
            let range = TimeRange::new(0.0, CLIP_LEN);
            labels.add(LabelRecord {
                vid: clip.id,
                range,
                classes: oracle.label(&dataset.train, clip.id, &range),
                iteration: 0,
            });
        }
    }
    let mm = ModelManager::new(cfg.clone());
    assert!(mm
        .train(EXTRACTOR, &dataset.train, &fm, labels.records(), 0)
        .unwrap());
    let select = |threads: usize| {
        set_parallelism(threads);
        let mut alm = ActiveLearningManager::new(cfg.clone());
        let (picks, stats) =
            alm.select_segments(&dataset.train, &fm, &mm, &labels, BUDGET, CLIP_LEN, None);
        assert_eq!(stats.acquisition, AcquisitionKind::ClusterMargin);
        (picks, alm.index_stats().expect("index built").unmasked_rows)
    };
    let (single, eligible) = select(1);
    let work = eligible * fm.simulator().dim(EXTRACTOR) * cfg.num_classes;
    assert!(
        work >= MIN_PARALLEL_WORK,
        "{eligible} eligible rows state {work} multiply-adds, under the fan-out threshold"
    );
    let (multi, _) = select(4);
    set_parallelism(0);
    assert_eq!(single, multi, "thread count changed Cluster-Margin picks");
}

/// The probability-row counter behind `prob_cache_stats`: with a model,
/// every Cluster-Margin or Uncertainty call adds exactly its eligible-row
/// count to `miss_rows`; Coreset, Random and calls before the first model add
/// nothing, and `hit_rows` and `invalidations` stay 0.
#[test]
fn miss_rows_count_the_eligible_rows_of_each_probability_selection() {
    let dataset = dataset();
    let cfg = config(AcquisitionKind::ClusterMargin);
    let fm = FeatureManager::new(
        FeatureSimulator::new(DatasetName::Deer, cfg.num_classes, 5),
        StorageManager::new(),
    );
    let mm = ModelManager::new(cfg.clone());
    let mut labels = LabelStore::new();
    let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
    let mut alm = ActiveLearningManager::new(cfg.clone());

    let mut extracted: Vec<VideoId> = Vec::new();
    for clip in extraction_plan(dataset, &extracted, 12) {
        fm.ensure_clip(EXTRACTOR, clip).unwrap();
        extracted.push(clip.id);
    }
    let label = |labels: &mut LabelStore, vid: VideoId| {
        let range = TimeRange::new(0.0, CLIP_LEN);
        labels.add(LabelRecord {
            vid,
            range,
            classes: oracle.label(&dataset.train, vid, &range),
            iteration: 0,
        });
    };
    for &vid in extracted.iter().take(8) {
        label(&mut labels, vid);
    }

    // Before the first model there is nothing to infer with.
    for target in [None, Some(2)] {
        alm.select_segments(&dataset.train, &fm, &mm, &labels, BUDGET, CLIP_LEN, target);
        assert_eq!(alm.prob_cache_stats(), ProbCacheStats::default());
    }

    // With a model, each call adds its own eligible rows, retrain or not.
    let mut expected = 0;
    for (iteration, target) in [None, Some(2), None, None].into_iter().enumerate() {
        if iteration % 2 == 0 {
            assert!(mm
                .train(
                    EXTRACTOR,
                    &dataset.train,
                    &fm,
                    labels.records(),
                    iteration as u32,
                )
                .unwrap());
        }
        let (_, stats) =
            alm.select_segments(&dataset.train, &fm, &mm, &labels, BUDGET, CLIP_LEN, target);
        assert_ne!(stats.acquisition, AcquisitionKind::Coreset, "no fallback");
        let unmasked = alm.index_stats().expect("index built").unmasked_rows;
        expected += unmasked.min(CAP) as u64;
        assert_eq!(
            alm.prob_cache_stats(),
            ProbCacheStats {
                miss_rows: expected,
                ..ProbCacheStats::default()
            }
        );
        label(&mut labels, extracted[8 + iteration]);
    }

    // Coreset and Random infer nothing, even with a model.
    for kind in [AcquisitionKind::Coreset, AcquisitionKind::Random] {
        let mut other = ActiveLearningManager::new(config(kind));
        let (_, stats) =
            other.select_segments(&dataset.train, &fm, &mm, &labels, BUDGET, CLIP_LEN, None);
        assert_eq!(stats.acquisition, kind);
        assert_eq!(other.prob_cache_stats(), ProbCacheStats::default());
    }
}

/// The extractors the prefetch interleavings switch between.
const SWITCHED: [ExtractorId; 2] = [ExtractorId::Mvit, ExtractorId::R3d];

/// One step of a randomized prefetch session.
#[derive(Debug, Clone, Copy)]
enum PrefetchEvent {
    /// Extract features for the next `n` corpus videos (both extractors).
    Extract(usize),
    /// Label one currently unlabeled window (video chosen by `arg`).
    Label(usize),
    /// Train the current extractor's model. The fault plan fails about one
    /// request in three (all attempts), which keeps the previous version
    /// serving.
    Train,
    /// Score the last selection's candidates with the latest model.
    Prefetch,
    /// Feed the bandit scores that make the other extractor current.
    SwitchExtractor,
    /// Toggle the clip length of later selections between 1 s and 2 s.
    SwitchClip,
    /// Select, and compare against a from-scratch ALM.
    Explore,
}

fn decode_prefetch(events: &[(usize, usize)]) -> Vec<PrefetchEvent> {
    use PrefetchEvent::*;
    let mut out = vec![Extract(BUDGET + 1), Train, Explore];
    for &(code, arg) in events {
        out.push(match code {
            0 => Extract(1 + arg % 3),
            1 => Label(arg),
            2 | 3 => Explore,
            4 => Train,
            5 | 6 => Prefetch,
            7 => SwitchExtractor,
            _ => SwitchClip,
        });
    }
    out.extend([Train, Prefetch, Explore]);
    out
}

/// Runs one prefetch interleaving and returns the ALM's probability-row
/// counters after each explore. Panics if any explore's picks or stats
/// diverge from a from-scratch ALM that never prefetches.
fn run_prefetch_interleaving(
    kind: AcquisitionKind,
    target: Option<usize>,
    events: &[PrefetchEvent],
) -> Vec<ProbCacheStats> {
    let dataset = dataset();
    // The incremental ALM follows the bandit's current extractor; the
    // oracle is pinned to whichever extractor is current at each explore.
    let cfg = config(kind).with_feature_selection(FeatureSelectionPolicy::default());
    let fm = FeatureManager::new(
        FeatureSimulator::new(DatasetName::Deer, cfg.num_classes, 5),
        StorageManager::new(),
    );
    let mut mm = ModelManager::new(cfg.clone());
    mm.set_fault_injector(Some(Arc::new(FaultInjector::new(
        FaultPlan::new(11).with_rule(FaultSite::Training, FaultRule::permanent(0.7)),
    ))));
    let mut labels = LabelStore::new();
    let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
    let mut incremental = ActiveLearningManager::new(cfg.clone());
    let mut extracted: Vec<VideoId> = Vec::new();
    let (mut clip_len, mut trains, mut switches) = (CLIP_LEN, 0u32, 0usize);
    let mut after_explores = Vec::new();

    for &event in events {
        match event {
            PrefetchEvent::Extract(n) => {
                for clip in extraction_plan(dataset, &extracted, n) {
                    for extractor in SWITCHED {
                        fm.ensure_clip(extractor, clip).unwrap();
                    }
                    extracted.push(clip.id);
                }
            }
            PrefetchEvent::Label(arg) => {
                let vid = extracted[arg % extracted.len()];
                let clip = dataset.train.get(vid).expect("extracted from corpus");
                let window = (0..clip.num_windows(CLIP_LEN))
                    .map(|w| TimeRange::new(w as f64 * CLIP_LEN, (w + 1) as f64 * CLIP_LEN))
                    .find(|range| !labels.is_labeled(vid, range));
                if let Some(range) = window {
                    labels.add(LabelRecord {
                        vid,
                        range,
                        classes: oracle.label(&dataset.train, vid, &range),
                        iteration: 0,
                    });
                }
            }
            PrefetchEvent::Train => {
                trains += 1;
                // A failed request publishes nothing: the prefetch it
                // follows stays valid.
                let _ = mm.train(
                    incremental.current_extractor(),
                    &dataset.train,
                    &fm,
                    labels.records(),
                    trains,
                );
            }
            PrefetchEvent::Prefetch => incremental.prefetch_candidates(&mm),
            PrefetchEvent::SwitchExtractor => {
                switches += 1;
                let (low, high) = if switches % 2 == 1 {
                    (0.2, 0.8)
                } else {
                    (0.8, 0.2)
                };
                incremental.observe_feature_scores(&[(SWITCHED[0], low), (SWITCHED[1], high)]);
            }
            PrefetchEvent::SwitchClip => {
                clip_len = if clip_len == CLIP_LEN {
                    2.0 * CLIP_LEN
                } else {
                    CLIP_LEN
                };
            }
            PrefetchEvent::Explore => {
                let current = incremental.current_extractor();
                let (picks, stats) = incremental.select_segments(
                    &dataset.train,
                    &fm,
                    &mm,
                    &labels,
                    BUDGET,
                    clip_len,
                    target,
                );
                let mut fresh = ActiveLearningManager::new(
                    cfg.clone()
                        .with_feature_selection(FeatureSelectionPolicy::Fixed(current)),
                );
                let (fresh_picks, fresh_stats) = fresh.select_segments(
                    &dataset.train,
                    &fm,
                    &mm,
                    &labels,
                    BUDGET,
                    clip_len,
                    target,
                );
                assert_eq!(
                    picks, fresh_picks,
                    "prefetched selection diverged from a from-scratch ALM ({kind:?}, {current:?}, clip {clip_len})"
                );
                assert_eq!(stats, fresh_stats, "selection stats diverged ({kind:?})");
                assert_eq!(stats.acquisition, kind, "active path must not fall back");
                assert_eq!(
                    fresh.prob_cache_stats().hit_rows,
                    0,
                    "the oracle never prefetches"
                );
                after_explores.push(incremental.prob_cache_stats());
            }
        }
    }
    after_explores
}

fn prefetch_event_strategy() -> impl Strategy<Value = Vec<(usize, usize)>> {
    proptest::collection::vec((0usize..9, 0usize..17), 6..22)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn cluster_margin_with_prefetches_matches_from_scratch(events in prefetch_event_strategy()) {
        let events = decode_prefetch(&events);
        run_prefetch_interleaving(AcquisitionKind::ClusterMargin, None, &events);
    }

    #[test]
    fn uncertainty_with_prefetches_matches_from_scratch(events in prefetch_event_strategy()) {
        let events = decode_prefetch(&events);
        run_prefetch_interleaving(AcquisitionKind::Uncertainty, Some(2), &events);
    }
}

/// A fixed interleaving whose explores never label the last picks, so no
/// prefetch's stamp holds: each one is dropped as exactly one invalidation,
/// whether merge splices and other labels, a retrain, a clip-length switch
/// or an extractor switch broke it, and the call scores its own rows.
/// Train requests 1 and 4 (MViT) fail under the fault plan; the others
/// publish.
#[test]
fn prefetched_rows_are_served_and_invalidated_as_specified() {
    use PrefetchEvent::*;
    let events = [
        Extract(6),
        Label(0),
        Label(1),
        Label(2),
        Label(3),
        Train,
        Train,
        Explore,
        // 1: merge splices and other labels after the prefetch.
        Label(4),
        Train,
        Prefetch,
        Extract(3),
        Label(5),
        Explore,
        // 2: a failed train keeps the model, but another window is labeled.
        Prefetch,
        Label(6),
        Train,
        Explore,
        // 3: stale after a retrain.
        Prefetch,
        Train,
        Explore,
        // 4: dropped with the index at another clip length.
        Prefetch,
        SwitchClip,
        Explore,
        // 5: dropped with the index for another extractor.
        Prefetch,
        SwitchExtractor,
        Explore,
        // 6: the new extractor's first model, the picks still unlabeled.
        Label(7),
        Train,
        Prefetch,
        Explore,
    ];
    let stats = run_prefetch_interleaving(AcquisitionKind::ClusterMargin, None, &events);
    assert_eq!(stats.len(), 7);
    assert_eq!(stats[0].hit_rows, 0, "nothing was prefetched yet");
    for (step, pair) in stats.windows(2).enumerate() {
        let (before, after) = (pair[0], pair[1]);
        let served = after.hit_rows - before.hit_rows;
        let dropped = after.invalidations - before.invalidations;
        assert!(served == 0 && dropped == 1, "step {}: {after:?}", step + 1);
    }
}

/// One step of a prepared-pool session. The prefetch predicts that the user
/// labels the last call's picks; these events keep or break that guess.
#[derive(Debug, Clone, Copy)]
enum PoolEvent {
    /// Extract features for the next `n` corpus videos (tail appends and
    /// merge splices).
    Extract(usize),
    /// The user labels every pick of the last call.
    LabelPicks,
    /// The user labels every pick of the last call but one.
    LabelPicksButOne,
    /// The user labels one unlabeled window that was not picked (video
    /// chosen by `arg`).
    LabelOther(usize),
    /// Train the current extractor's model.
    Train,
    /// A training request that fails every attempt: the model version stays.
    FailedTrain,
    /// Prepare the next call's candidates with the latest model.
    Prefetch,
    /// Feed the bandit scores that make the other extractor current.
    SwitchExtractor,
    /// Toggle the clip length of later calls between 1 s and 2 s.
    SwitchClip,
    /// Set the budget of later calls.
    Budget(usize),
    /// An untargeted Cluster-Margin call, compared against a from-scratch
    /// ALM.
    Explore,
    /// A targeted (Uncertainty) call, compared likewise.
    Targeted,
}

/// How a prepared-pool session is set up.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PoolSetup {
    /// Both switched extractors extracted, the bandit picking between them,
    /// no lazy extension, the low test cap (the sketch reduces).
    Eager,
    /// `Eager` without a cap: every unmasked row is eligible, so no sketch
    /// state can refuse a pool and each stamp field stands alone.
    Uncapped,
    /// One extractor, `extra_candidates_x = 8`, and feature extraction that
    /// fails permanently for about half the videos: calls keep extending
    /// their pool lazily while fewer than `budget + 8` videos extracted.
    Lazy,
}

/// Runs one prepared-pool session and returns the ALM's counters and the
/// selection stats after each call. Every call's picks must equal those of
/// a from-scratch ALM that never prefetches, pinned to the current
/// extractor and extending nothing lazily, over the same store and labels.
fn run_pool_interleaving(
    setup: PoolSetup,
    events: &[PoolEvent],
) -> Vec<(ProbCacheStats, SelectionStats)> {
    let dataset = dataset();
    let kind = AcquisitionKind::ClusterMargin;
    let base = match setup {
        PoolSetup::Eager => config(kind),
        PoolSetup::Uncapped => config(kind).with_candidate_cap(1_000_000),
        PoolSetup::Lazy => config(kind).with_extra_candidates(8),
    };
    let cfg = match setup {
        PoolSetup::Lazy => base.clone(),
        _ => base
            .clone()
            .with_feature_selection(FeatureSelectionPolicy::default()),
    };
    let mut fm = FeatureManager::new(
        FeatureSimulator::new(DatasetName::Deer, cfg.num_classes, 5),
        StorageManager::new(),
    );
    let extractors: &[ExtractorId] = match setup {
        PoolSetup::Eager | PoolSetup::Uncapped => &SWITCHED,
        PoolSetup::Lazy => {
            fm.set_fault_injector(
                Some(Arc::new(FaultInjector::new(FaultPlan::new(3).with_rule(
                    FaultSite::FeatureExtraction,
                    FaultRule::permanent(0.5),
                )))),
                ve_sched::RetryPolicy::none(),
            );
            &[EXTRACTOR]
        }
    };
    let mut mm = ModelManager::new(cfg.clone());
    let mut labels = LabelStore::new();
    let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
    let mut incremental = ActiveLearningManager::new(cfg.clone());
    let mut extracted: Vec<VideoId> = Vec::new();
    let mut last_picks: Vec<(VideoId, TimeRange)> = Vec::new();
    let (mut clip_len, mut budget, mut trains, mut switches) = (CLIP_LEN, BUDGET, 0u32, 0usize);
    let mut after_calls = Vec::new();
    let label = |labels: &mut LabelStore, vid: VideoId, range: TimeRange| {
        if !labels.is_labeled(vid, &range) {
            labels.add(LabelRecord {
                vid,
                range,
                classes: oracle.label(&dataset.train, vid, &range),
                iteration: 0,
            });
        }
    };

    for &event in events {
        match event {
            PoolEvent::Extract(n) => {
                let mut tried: Vec<VideoId> = extracted.clone();
                let mut added = 0;
                while added < n {
                    let Some(clip) = extraction_plan(dataset, &tried, 1).pop() else {
                        break;
                    };
                    tried.push(clip.id);
                    if extractors.iter().all(|&e| fm.ensure_clip(e, clip).is_ok()) {
                        extracted.push(clip.id);
                        added += 1;
                    }
                }
            }
            PoolEvent::LabelPicks => {
                for &(vid, range) in &last_picks {
                    label(&mut labels, vid, range);
                }
            }
            PoolEvent::LabelPicksButOne => {
                for &(vid, range) in last_picks.iter().skip(1) {
                    label(&mut labels, vid, range);
                }
            }
            PoolEvent::LabelOther(arg) => {
                let vid = extracted[arg % extracted.len()];
                let clip = dataset.train.get(vid).expect("extracted from corpus");
                let window = (0..clip.num_windows(CLIP_LEN))
                    .map(|w| TimeRange::new(w as f64 * CLIP_LEN, (w + 1) as f64 * CLIP_LEN))
                    .find(|range| {
                        !labels.is_labeled(vid, range)
                            && !last_picks
                                .iter()
                                .any(|(v, r)| *v == vid && r.overlaps(range))
                    });
                if let Some(range) = window {
                    label(&mut labels, vid, range);
                }
            }
            PoolEvent::Train | PoolEvent::FailedTrain => {
                trains += 1;
                let failing = matches!(event, PoolEvent::FailedTrain);
                if failing {
                    mm.set_fault_injector(Some(Arc::new(FaultInjector::new(
                        FaultPlan::new(13)
                            .with_rule(FaultSite::Training, FaultRule::permanent(1.0)),
                    ))));
                }
                let extractor = incremental.current_extractor();
                let version = mm.latest_versioned(extractor).map(|(v, _)| v);
                let published = mm
                    .train(extractor, &dataset.train, &fm, labels.records(), trains)
                    .unwrap_or(false);
                let after = mm.latest_versioned(extractor).map(|(v, _)| v);
                if failing {
                    mm.set_fault_injector(None);
                    assert!(!published && after == version, "a failed train publishes");
                }
            }
            PoolEvent::Prefetch => incremental.prefetch_candidates(&mm),
            PoolEvent::SwitchExtractor => {
                switches += 1;
                let (low, high) = if switches % 2 == 1 {
                    (0.2, 0.8)
                } else {
                    (0.8, 0.2)
                };
                incremental.observe_feature_scores(&[(SWITCHED[0], low), (SWITCHED[1], high)]);
            }
            PoolEvent::SwitchClip => {
                clip_len = if clip_len == CLIP_LEN {
                    2.0 * CLIP_LEN
                } else {
                    CLIP_LEN
                };
            }
            PoolEvent::Budget(b) => budget = b,
            PoolEvent::Explore | PoolEvent::Targeted => {
                let target = matches!(event, PoolEvent::Targeted).then_some(2);
                let current = incremental.current_extractor();
                let (picks, stats) = incremental.select_segments(
                    &dataset.train,
                    &fm,
                    &mm,
                    &labels,
                    budget,
                    clip_len,
                    target,
                );
                let mut fresh = ActiveLearningManager::new(
                    base.clone()
                        .with_extra_candidates(0)
                        .with_feature_selection(FeatureSelectionPolicy::Fixed(current)),
                );
                let (fresh_picks, fresh_stats) = fresh.select_segments(
                    &dataset.train,
                    &fm,
                    &mm,
                    &labels,
                    budget,
                    clip_len,
                    target,
                );
                assert_eq!(
                    picks, fresh_picks,
                    "prepared-pool selection diverged from a from-scratch ALM ({event:?}, {current:?}, clip {clip_len}, budget {budget})"
                );
                assert_eq!(stats.acquisition, fresh_stats.acquisition);
                assert_eq!(stats.coverage_fallback, fresh_stats.coverage_fallback);
                if setup != PoolSetup::Lazy {
                    assert_eq!(stats, fresh_stats, "selection stats diverged");
                }
                assert_eq!(
                    fresh.prob_cache_stats().hit_rows,
                    0,
                    "the oracle never prefetches"
                );
                last_picks = picks;
                after_calls.push((incremental.prob_cache_stats(), stats));
            }
        }
    }
    after_calls
}

fn decode_pool(events: &[(usize, usize)]) -> Vec<PoolEvent> {
    use PoolEvent::*;
    let mut out = vec![Extract(6), LabelOther(0), LabelOther(1), Train, Explore];
    for &(code, arg) in events {
        match code {
            0 => out.push(Extract(1 + arg % 2)),
            // The labeling window of a session.
            1..=3 => out.extend([LabelPicks, Train, Prefetch]),
            4 => out.push(LabelPicksButOne),
            5 => out.push(LabelOther(arg)),
            6 => out.push(FailedTrain),
            7 => out.push(SwitchExtractor),
            8 => out.push(SwitchClip),
            9 => out.push(Budget(2 + arg % 3)),
            10 => out.push(Targeted),
            11 => out.push(Prefetch),
            12 => out.push(Train),
            _ => out.push(Explore),
        }
    }
    out.extend([LabelPicks, Train, Prefetch, Explore]);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    #[test]
    fn prepared_pools_match_from_scratch(
        events in proptest::collection::vec((0usize..16, 0usize..17), 6..24)
    ) {
        run_pool_interleaving(PoolSetup::Eager, &decode_pool(&events));
    }

    #[test]
    fn uncapped_prepared_pools_match_from_scratch(
        events in proptest::collection::vec((0usize..16, 0usize..17), 6..24)
    ) {
        run_pool_interleaving(PoolSetup::Uncapped, &decode_pool(&events));
    }
}

/// Each way the labeling window can keep or break the prefetch's guess,
/// with the counters each call must move: a pool served only where the
/// stamp holds, and a dropped prefetch everywhere else.
#[test]
fn prepared_pools_are_served_only_where_the_stamp_holds() {
    use PoolEvent::*;
    let window = [LabelPicks, Train, Prefetch];
    let steps: Vec<(&str, Vec<PoolEvent>)> = vec![
        ("the user labels the picks", vec![Explore]),
        (
            "one pick fewer",
            vec![LabelPicksButOne, Train, Prefetch, Explore],
        ),
        (
            "one pick fewer, another window instead",
            vec![LabelPicksButOne, LabelOther(3), Train, Prefetch, Explore],
        ),
        (
            "as many other windows instead",
            vec![
                LabelOther(5),
                LabelOther(6),
                LabelOther(7),
                Train,
                Prefetch,
                Explore,
            ],
        ),
        (
            "the picks and another window",
            vec![LabelPicks, LabelOther(4), Train, Prefetch, Explore],
        ),
        ("an ingest after the window", vec![Extract(2), Explore]),
        ("a retrain after the window", vec![Train, Explore]),
        ("a failed train", vec![FailedTrain, Explore]),
        ("a clip-length switch", vec![SwitchClip, Explore]),
        ("the picks at the new clip length", vec![Explore]),
        ("a budget change", vec![Budget(4), Explore]),
        ("a targeted call", vec![Targeted]),
        ("a bandit extractor switch", vec![SwitchExtractor, Explore]),
        ("the new extractor's first pool", vec![Explore]),
    ];
    let mut events = vec![
        Extract(12),
        LabelOther(0),
        LabelOther(1),
        LabelOther(2),
        Train,
        Explore,
    ];
    for (_, step) in &steps {
        if !matches!(step[0], LabelPicksButOne | LabelOther(_) | LabelPicks) {
            events.extend(window);
        }
        events.extend(step.iter().copied());
    }
    for setup in [PoolSetup::Eager, PoolSetup::Uncapped] {
        let stats: Vec<ProbCacheStats> = run_pool_interleaving(setup, &events)
            .into_iter()
            .map(|(counters, _)| counters)
            .collect();
        assert_eq!(stats.len(), steps.len() + 1);
        for ((name, _), pair) in steps.iter().zip(stats.windows(2)) {
            let (before, after) = (pair[0], pair[1]);
            let pools = after.pools_served - before.pools_served;
            let served = after.hit_rows - before.hit_rows;
            let dropped = after.invalidations - before.invalidations;
            let expected = match *name {
                "the user labels the picks"
                | "a failed train"
                | "the picks at the new clip length"
                | "the new extractor's first pool" => (1, true, 0),
                _ => (0, false, 1),
            };
            assert_eq!(
                (pools, served > 0, dropped),
                expected,
                "{setup:?}, {name}: {after:?}"
            );
        }
    }
}

/// A lazy extension inside the call adds rows the prediction did not see,
/// so the call must not pick from the prepared pool, yet its picks match a
/// from-scratch ALM over the store the extension left.
#[test]
fn a_lazy_extension_inside_the_call_refuses_the_pool() {
    use PoolEvent::*;
    let mut events = vec![
        Extract(4),
        LabelOther(0),
        LabelOther(1),
        LabelOther(2),
        Train,
        Explore,
    ];
    for _ in 0..4 {
        events.extend([LabelPicks, Train, Prefetch, Explore]);
    }
    let calls = run_pool_interleaving(PoolSetup::Lazy, &events);
    let mut extended = 0;
    for (step, pair) in calls.windows(2).enumerate() {
        let ((before, _), (after, stats)) = (pair[0], pair[1]);
        if stats.videos_extracted_for_call > 0 {
            extended += 1;
            assert_eq!(
                after.pools_served,
                before.pools_served,
                "call {}: {calls:?}",
                step + 1
            );
        }
    }
    assert!(extended > 0, "no call after a prefetch extended: {calls:?}");
}
