//! The Active Learning Manager (ALM, Section 3).
//!
//! The ALM owns the two selection problems VOCALExplore solves on the fly:
//!
//! 1. **Acquisition-function selection** — the [`ve_al::VeSample`] policy
//!    (or a fixed baseline function) decides whether the next batch is chosen
//!    by cheap random sampling or by an active-learning function, and
//!    [`ActiveLearningManager::select_segments`] executes that choice over
//!    the unlabeled portion of the corpus.
//! 2. **Feature-extractor selection** — a [`ve_bandit::RisingBandit`] over
//!    the candidate extractors, fed with cross-validated macro F1 after each
//!    labeling iteration, eliminates extractors until one remains.
//!
//! Cluster-Margin and Uncertainty score their candidates with the current
//! model. Each retrain publishes a new model version, so that work would
//! otherwise run from scratch inside every visible `Explore` call. Instead,
//! the deferred work prepares the next call's candidates with the freshly
//! trained model ([`ActiveLearningManager::prefetch_candidates`], the
//! *prefetch*), in the labeling window under `VE-partial`/`VE-full`. It
//! predicts the next call's eligible rows — the last call's picks are what
//! the user labels next — scores them, and runs Cluster-Margin over them,
//! keeping its picks together with a stamp of what the prediction assumed.
//! When the stamp still holds, the next Cluster-Margin call returns those
//! picks as they are; otherwise the call takes the prefetched rows by
//! window identity and scores only the rows they lack. Every row still
//! comes from [`ve_ml::TrainedModel::predict_proba_rows`] and the selection
//! is deterministic, so the picks are bit-identical to scoring every row
//! and selecting on the spot ([`ProbCacheStats`] counts where the rows came
//! from).

use crate::acquisition_index::{AcquisitionIndex, AcquisitionIndexStats};
use crate::config::{FeatureSelectionPolicy, SamplingPolicy, VocalExploreConfig};
use crate::feature_manager::FeatureManager;
use crate::model_manager::{FittedModel, ModelManager};
use crate::observability::{ObsHandle, SessionEvent};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;
use ve_al::{
    cluster_margin_selection, greedy_k_center, random_selection, uncertainty_selection_from_probs,
    AcquisitionKind, ClusterMarginConfig, VeSample,
};
use ve_bandit::RisingBandit;
use ve_features::ExtractorId;
use ve_ml::FeatureBlock;
use ve_storage::LabelStore;
use ve_vidsim::{ClassId, TimeRange, VideoCorpus, VideoId};

/// Statistics about the most recent selection (used for latency accounting).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectionStats {
    /// Acquisition function that produced the batch (after any
    /// coverage-only degradation — see `coverage_fallback`).
    pub acquisition: AcquisitionKind,
    /// Number of sampled videos whose features had to be extracted to serve
    /// the current call (0 under `VE-full`, where eager extraction already
    /// covered them).
    pub videos_extracted_for_call: usize,
    /// GPU seconds spent on those extractions.
    pub extraction_secs: f64,
    /// Lazily-extended candidate videos whose extraction permanently failed;
    /// selection proceeded over the remaining covered pool.
    pub candidates_lost: usize,
    /// Whether a probability-based acquisition fell back to coverage-only
    /// (coreset) selection because batch inference permanently failed.
    pub coverage_fallback: bool,
}

/// Where the candidate probability rows of Cluster-Margin and Uncertainty
/// selections came from. After each retrain the deferred work scores the
/// next selection's predicted candidates with the new model
/// ([`ActiveLearningManager::prefetch_candidates`]) and selects among them;
/// the next selection returns those picks when the prediction held, and
/// otherwise serves the rows it finds there and scores only the rest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbCacheStats {
    /// Rows served from the prefetch.
    pub hit_rows: u64,
    /// Cluster-Margin calls that returned the prefetch's prepared picks,
    /// its stamp holding: they skipped the eligible-row reduction, the
    /// probability join and all of Cluster-Margin (their rows count as
    /// served). The name dates from when the prefetch prepared only the
    /// margin pool; it is kept so the latency benchmark's schema and its
    /// contract rule stay as they are.
    pub pools_served: u64,
    /// Rows scored by the selection itself: their window was not
    /// prefetched, or no valid prefetch existed.
    pub miss_rows: u64,
    /// Prefetches dropped unused: replaced by a newer prefetch, dropped with
    /// an index replaced for another extractor or clip length, or found
    /// stale (another model version) by the selection that would have
    /// served them.
    pub invalidations: u64,
}

/// Window identity of an index row: its video and the bits of its start
/// time. Index rows and eligible rows are in canonical order (videos
/// ascending by id, windows in time order) and window starts are
/// non-negative, so keys of ascending rows ascend too, and a merge-join
/// finds a window again after merge splices have renumbered the rows.
type WindowKey = (VideoId, u64);

fn window_key((vid, range): (VideoId, TimeRange)) -> WindowKey {
    (vid, range.start.to_bits())
}

/// What a prefetch assumed about the next selection. While every field
/// still holds ([`Stamp::holds`]), that selection's eligible rows are the
/// predicted ones, so their probabilities and Cluster-Margin picks are the
/// ones prepared.
#[derive(Debug, Clone)]
struct Stamp {
    /// Registry version of the model that scored the rows (unique across
    /// extractors).
    model_version: u64,
    /// The index's extractor and clip length.
    extractor: ExtractorId,
    clip_len: f64,
    /// Index rows then: an ingest or a lazy extension changes the count.
    rows: usize,
    /// Unmasked index rows then, the picks among them.
    unmasked: usize,
    /// The last selection's pick rows: the windows the user labels next.
    picks: Vec<usize>,
    /// The last selection's budget, at which the picks were prepared.
    budget: usize,
}

impl Stamp {
    /// Whether a selection of `budget` under the model `model_version` over
    /// `index` would see exactly the predicted eligible rows: the same model,
    /// index and rows, exactly the picks newly masked, the same budget, and
    /// a reduction that needs no sketch work.
    fn holds(&self, index: &AcquisitionIndex, model_version: Option<u64>, budget: usize) -> bool {
        model_version == Some(self.model_version)
            && index.matches(self.extractor, self.clip_len)
            && index.rows() == self.rows
            && index.unmasked_rows() + self.picks.len() == self.unmasked
            && self.picks.iter().all(|&row| index.is_masked(row))
            && budget == self.budget
            && index.reduction_ready()
    }
}

/// The next selection's candidates, prepared while the user labels.
struct Prefetch {
    stamp: Stamp,
    /// Window identity of each predicted eligible row, ascending.
    keys: Vec<WindowKey>,
    /// One probability row per key.
    probs: FeatureBlock,
    /// Index rows Cluster-Margin picks from the predicted rows at the
    /// stamp's budget, in pick order.
    selection: Vec<usize>,
}

/// The last Cluster-Margin or Uncertainty selection, which the next
/// prefetch predicts from.
struct LastSelection {
    /// Index rows picked.
    picks: Vec<usize>,
    budget: usize,
}

/// The Active Learning Manager.
pub struct ActiveLearningManager {
    config: VocalExploreConfig,
    sampling: SamplingState,
    features: FeatureState,
    /// Persistent candidate state for active-learning selection, kept alive
    /// across `Explore` calls and synced incrementally from the feature
    /// store's change log (`None` until the first active selection; replaced
    /// when the extractor or clip length changes).
    index: Option<AcquisitionIndex>,
    /// The last Cluster-Margin or Uncertainty selection (`None` after any
    /// other active selection): what the next prefetch predicts from.
    last_selection: Option<LastSelection>,
    /// Candidates prepared for the next selection, if any.
    prefetch: Option<Prefetch>,
    prob_stats: ProbCacheStats,
    /// Reused allocation for the per-call coreset-coverage copy consumed by
    /// `greedy_k_center` (the call's greedy picks must not leak into the
    /// persistent coverage, but the buffer itself can live across calls).
    coverage_scratch: Vec<f32>,
    rng: StdRng,
    /// Event recorder; `None` until the owning system installs one.
    obs: Option<ObsHandle>,
}

enum SamplingState {
    Fixed(AcquisitionKind),
    VeSample(VeSample),
}

enum FeatureState {
    Fixed(ExtractorId),
    Bandit {
        bandit: RisingBandit<ExtractorId>,
        /// Last observed CV score per extractor (used to pick the extractor
        /// for predictions before the bandit converges).
        last_scores: Vec<(ExtractorId, f64)>,
    },
}

impl ActiveLearningManager {
    /// Creates an ALM from the system configuration.
    pub fn new(config: VocalExploreConfig) -> Self {
        let sampling = match config.sampling {
            SamplingPolicy::Fixed(kind) => SamplingState::Fixed(kind),
            SamplingPolicy::VeSample(cfg) => SamplingState::VeSample(VeSample::new(cfg)),
        };
        let features = match config.feature_selection {
            FeatureSelectionPolicy::Fixed(e) => FeatureState::Fixed(e),
            FeatureSelectionPolicy::Bandit(cfg) => FeatureState::Bandit {
                bandit: RisingBandit::new(ExtractorId::all().to_vec(), cfg),
                last_scores: Vec::new(),
            },
        };
        let rng = StdRng::seed_from_u64(config.seed ^ 0xA11C_E5ED);
        Self {
            config,
            sampling,
            features,
            index: None,
            last_selection: None,
            prefetch: None,
            prob_stats: ProbCacheStats::default(),
            coverage_scratch: Vec::new(),
            rng,
            obs: None,
        }
    }

    /// Installs the observability recorder. Index ingests are recorded as
    /// deterministic events: they happen on the session thread during
    /// `select_segments`, so their deltas are pure functions of the
    /// session's inputs on either engine.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = Some(obs);
    }

    /// Where the probability rows of selections so far came from (see
    /// [`ProbCacheStats`]).
    pub fn prob_cache_stats(&self) -> ProbCacheStats {
        self.prob_stats
    }

    /// Prepares the next selection's candidates with the latest model for
    /// the current extractor. The deferred work calls this right after a
    /// retrain publishes a new model. It predicts the next selection's
    /// eligible rows as the index's own reduction with the last
    /// Cluster-Margin or Uncertainty selection's picks masked (the windows
    /// the user labels next), scores them, and runs Cluster-Margin over them
    /// at the last budget, keeping its picks with a stamp of those
    /// assumptions. A no-op when no such selection preceded, the index
    /// serves another extractor, no model exists, or nothing would stay
    /// eligible. A prefetch still unused is replaced (counted as an
    /// invalidation).
    ///
    /// Nothing here mutates the index (no sync, no sketch work, no
    /// events): the next selection checks the stamp after its own sync.
    pub fn prefetch_candidates(&mut self, mm: &ModelManager) {
        let extractor = self.current_extractor();
        let (Some(index), Some(last)) = (self.index.as_ref(), self.last_selection.as_ref()) else {
            return;
        };
        if index.extractor() != extractor {
            return;
        }
        let Some((model_version, fitted)) = mm.latest_versioned(extractor) else {
            return;
        };
        let Some(eligible) = index
            .eligible_rows_masking(&last.picks)
            .filter(|rows| !rows.is_empty())
        else {
            return;
        };
        let probs = fitted.predict_proba_rows(index.block(), &eligible);
        let selection = cluster_margin_selection(
            index.block(),
            &eligible,
            &probs,
            last.budget,
            &ClusterMarginConfig::default(),
        )
        .into_iter()
        .map(|i| eligible[i])
        .collect();
        let prefetch = Prefetch {
            stamp: Stamp {
                model_version,
                extractor,
                clip_len: index.clip_len(),
                rows: index.rows(),
                unmasked: index.unmasked_rows(),
                picks: last.picks.clone(),
                budget: last.budget,
            },
            keys: eligible
                .iter()
                .map(|&row| window_key(index.meta_at(row)))
                .collect(),
            probs,
            selection,
        };
        if self.prefetch.replace(prefetch).is_some() {
            self.prob_stats.invalidations += 1;
        }
    }

    /// Diagnostic counters of the persistent acquisition index, once an
    /// active selection has built it.
    pub fn index_stats(&self) -> Option<AcquisitionIndexStats> {
        self.index.as_ref().map(AcquisitionIndex::stats)
    }

    /// The acquisition function the next untargeted `Explore` call will use.
    pub fn current_acquisition(&self) -> AcquisitionKind {
        match &self.sampling {
            SamplingState::Fixed(kind) => *kind,
            SamplingState::VeSample(policy) => policy.current(),
        }
    }

    /// Whether `VE-sample` has switched to active learning.
    pub fn has_switched_to_active(&self) -> bool {
        match &self.sampling {
            SamplingState::Fixed(kind) => *kind != AcquisitionKind::Random,
            SamplingState::VeSample(policy) => policy.has_switched(),
        }
    }

    /// Candidate extractors still under consideration.
    pub fn active_extractors(&self) -> Vec<ExtractorId> {
        match &self.features {
            FeatureState::Fixed(e) => vec![*e],
            FeatureState::Bandit { bandit, .. } => bandit.active_arms(),
        }
    }

    /// The extractor the ALM has converged on, if selection finished.
    pub fn selected_extractor(&self) -> Option<ExtractorId> {
        match &self.features {
            FeatureState::Fixed(e) => Some(*e),
            FeatureState::Bandit { bandit, .. } => bandit.selected(),
        }
    }

    /// The extractor used for predictions and active-learning features *right
    /// now*: the selected one once converged, otherwise the alive extractor
    /// with the best smoothed CV score so far (falling back to MViT before
    /// any score exists).
    pub fn current_extractor(&self) -> ExtractorId {
        match &self.features {
            FeatureState::Fixed(e) => *e,
            FeatureState::Bandit {
                bandit,
                last_scores,
            } => {
                if let Some(sel) = bandit.selected() {
                    return sel;
                }
                let alive = bandit.active_arms();
                last_scores
                    .iter()
                    .filter(|(e, _)| alive.contains(e))
                    .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("finite score"))
                    .map(|(e, _)| *e)
                    .unwrap_or(ExtractorId::Mvit)
            }
        }
    }

    /// Bandit snapshots (bounds per arm) for diagnostics, or `None` when the
    /// feature policy is fixed.
    pub fn bandit_snapshots(&self) -> Option<Vec<ve_bandit::ArmSnapshot<ExtractorId>>> {
        match &self.features {
            FeatureState::Bandit { bandit, .. } => Some(bandit.snapshots()),
            _ => None,
        }
    }

    /// Observes the per-class label counts after a batch and updates the
    /// acquisition policy. Returns the function the *next* batch will use.
    pub fn observe_labels(&mut self, class_counts: &[u64]) -> AcquisitionKind {
        match &mut self.sampling {
            SamplingState::Fixed(kind) => *kind,
            SamplingState::VeSample(policy) => policy.observe(class_counts),
        }
    }

    /// The extractors the next feature-evaluation step would score: the
    /// bandit's live arms, or nothing once it has converged (or the policy is
    /// fixed). The deferred work scores them all in one `T_e` executor task
    /// per round.
    pub fn evaluation_candidates(&self) -> Vec<ExtractorId> {
        match &self.features {
            FeatureState::Fixed(_) => Vec::new(),
            FeatureState::Bandit { bandit, .. } => {
                if bandit.is_converged() {
                    Vec::new()
                } else {
                    bandit.active_arms()
                }
            }
        }
    }

    /// Feeds one round of CV scores (produced by
    /// [`ModelManager::evaluate_round`] over
    /// [`ActiveLearningManager::evaluation_candidates`], possibly on an
    /// executor worker thread) into the rising bandit. Empty score sets are
    /// ignored.
    pub fn observe_feature_scores(&mut self, scores: &[(ExtractorId, f64)]) {
        let FeatureState::Bandit {
            bandit,
            last_scores,
        } = &mut self.features
        else {
            return;
        };
        if scores.is_empty() || bandit.is_converged() {
            return;
        }
        bandit.observe(scores);
        *last_scores = scores.to_vec();
    }

    /// Selects `budget` unlabeled segments of duration `clip_len` for the
    /// user to label, together with selection statistics for latency
    /// accounting.
    ///
    /// * `target_label` — when the user called `Explore(label = a)`, the
    ///   rare-class uncertainty sampler is used for that class.
    ///
    /// Active selections draw their candidates from the persistent
    /// [`AcquisitionIndex`], which tracks every video the feature store
    /// covers for the current extractor (under `VE-full` that is the eagerly
    /// extracted set; under the lazy strategies the ALM extends it by `X`
    /// videos on the spot).
    #[allow(clippy::too_many_arguments)]
    pub fn select_segments(
        &mut self,
        corpus: &VideoCorpus,
        fm: &FeatureManager,
        mm: &ModelManager,
        labels: &LabelStore,
        budget: usize,
        clip_len: f64,
        target_label: Option<ClassId>,
    ) -> (Vec<(VideoId, TimeRange)>, SelectionStats) {
        let acquisition = match target_label {
            Some(_) => AcquisitionKind::Uncertainty,
            None => self.current_acquisition(),
        };
        match acquisition {
            AcquisitionKind::Random => {
                let picks = self.random_segments(corpus, labels, budget, clip_len);
                (
                    picks,
                    SelectionStats {
                        acquisition,
                        videos_extracted_for_call: 0,
                        extraction_secs: 0.0,
                        candidates_lost: 0,
                        coverage_fallback: false,
                    },
                )
            }
            _ => self.active_segments(
                corpus,
                fm,
                mm,
                labels,
                budget,
                clip_len,
                acquisition,
                target_label,
            ),
        }
    }

    /// Random sampling over unlabeled windows (metadata only, no features).
    fn random_segments(
        &mut self,
        corpus: &VideoCorpus,
        labels: &LabelStore,
        budget: usize,
        clip_len: f64,
    ) -> Vec<(VideoId, TimeRange)> {
        let windows = unlabeled_windows(corpus, labels, clip_len);
        random_selection(windows.len(), budget, &mut self.rng)
            .into_iter()
            .map(|i| windows[i])
            .collect()
    }

    /// Makes the index serve `(extractor, clip_len)`, constructing a new one
    /// when the current one serves another pair. The new index may reuse a
    /// window start with other features (another clip length cuts other
    /// windows), so a prefetch scored over the old index is dropped.
    /// The last selection's row numbers die here either way: the caller
    /// syncs the index next.
    fn ensure_index(&mut self, extractor: ExtractorId, clip_len: f64) -> &mut AcquisitionIndex {
        self.last_selection = None;
        if !self
            .index
            .as_ref()
            .is_some_and(|ix| ix.matches(extractor, clip_len))
        {
            self.index = Some(AcquisitionIndex::new(
                extractor,
                clip_len,
                self.config.candidate_cap,
            ));
            if self.prefetch.take().is_some() {
                self.prob_stats.invalidations += 1;
            }
        }
        self.index.as_mut().expect("index just ensured")
    }

    /// Active-learning selection over the persistent acquisition index.
    ///
    /// Instead of re-assembling the candidate set from every pooled video on
    /// each call, the index is synced incrementally: new extractions arrive
    /// through the feature store's change log, freshly labeled windows are
    /// masked in place, and the coreset coverage state absorbs only the Δ new
    /// anchors. The old 2,000-window shuffle-truncate cap is replaced by the
    /// index's deterministic cluster-sketch reduction.
    #[allow(clippy::too_many_arguments)]
    fn active_segments(
        &mut self,
        corpus: &VideoCorpus,
        fm: &FeatureManager,
        mm: &ModelManager,
        labels: &LabelStore,
        budget: usize,
        clip_len: f64,
        acquisition: AcquisitionKind,
        target_label: Option<ClassId>,
    ) -> (Vec<(VideoId, TimeRange)>, SelectionStats) {
        let extractor = self.current_extractor();
        self.ensure_index(extractor, clip_len);
        let rows_before = self
            .index
            .as_ref()
            .expect("index just ensured")
            .stats()
            .rows;
        self.index
            .as_mut()
            .expect("index just ensured")
            .sync(fm, corpus, labels);

        // Lazy extension: when the feature-bearing pool is too small (lazy
        // strategies), extract X more randomly chosen videos on the spot and
        // pull them into this call's candidates. Membership tests hit the
        // index's hash map — O(1) per video instead of the old O(pool) scan.
        let mut extraction_secs = 0.0;
        let mut extracted_videos = 0;
        let mut candidates_lost = 0;
        let desired = budget + self.config.extra_candidates_x;
        if self.index.as_ref().expect("index ensured").video_count() < desired {
            let index = self.index.as_ref().expect("index ensured");
            let missing = desired - index.video_count();
            let mut unexplored: Vec<VideoId> = corpus
                .ids()
                .into_iter()
                .filter(|vid| !index.contains_video(*vid))
                .collect();
            unexplored.shuffle(&mut self.rng);
            for vid in unexplored.into_iter().take(missing) {
                if let Some(clip) = corpus.get(vid) {
                    // A permanently failed extraction leaves the video
                    // `pending` in the index; selection proceeds over the
                    // covered pool and the loss is reported in the stats.
                    match fm.ensure_clip(extractor, clip) {
                        Ok(cost) => {
                            if cost > 0.0 {
                                extracted_videos += 1;
                                extraction_secs += cost;
                            }
                        }
                        Err(_) => candidates_lost += 1,
                    }
                }
            }
            self.index
                .as_mut()
                .expect("index ensured")
                .sync(fm, corpus, labels);
        }

        if let Some(obs) = &self.obs {
            let index = self.index.as_ref().expect("index ensured");
            obs.record(SessionEvent::IndexIngest {
                rows_added: (index.stats().rows - rows_before) as u64,
                epoch: index.epoch(),
            });
        }

        if self.index.as_ref().expect("index ensured").unmasked_rows() == 0 {
            let picks = self.random_segments(corpus, labels, budget, clip_len);
            return (
                picks,
                SelectionStats {
                    acquisition: AcquisitionKind::Random,
                    videos_extracted_for_call: extracted_videos,
                    extraction_secs,
                    candidates_lost,
                    coverage_fallback: false,
                },
            );
        }

        // Graceful degradation: when the batch-probability backend for the
        // current model exhausts its retry budget, probability-based
        // acquisitions fall back to coverage-only (coreset) selection for
        // this call.
        let mut coverage_fallback = false;
        let acquisition = match acquisition {
            kind @ (AcquisitionKind::ClusterMargin | AcquisitionKind::Uncertainty) => {
                if mm.batch_inference_gate(extractor).is_err() {
                    coverage_fallback = true;
                    AcquisitionKind::Coreset
                } else {
                    kind
                }
            }
            other => other,
        };

        // Coreset coverage must absorb all labels collected so far before
        // the eligible set is frozen (anchor lookups may extract labeled
        // videos on demand; those extractions join the *next* call's
        // candidates via the change log, exactly like the old per-call
        // labeled-block assembly).
        if acquisition == AcquisitionKind::Coreset {
            self.index
                .as_mut()
                .expect("index ensured")
                .sync_anchors(fm, corpus, labels);
        }

        let index = self.index.as_mut().expect("index ensured");
        let rows: Vec<usize> = match acquisition {
            AcquisitionKind::Coreset => {
                let eligible = index.eligible_rows();
                // Scratch coverage: the persistent state tracks labeled
                // anchors only; this call's own greedy picks must not leak
                // into the next iteration. The buffer is reused across calls.
                let mut coverage = std::mem::take(&mut self.coverage_scratch);
                index.coverage_for_call_into(&mut coverage);
                let picks = greedy_k_center(index.block(), &mut coverage, &eligible, budget);
                self.coverage_scratch = coverage;
                picks
            }
            AcquisitionKind::ClusterMargin => {
                let latest = mm.latest_versioned(extractor);
                let version = latest.as_ref().map(|(version, _)| *version);
                if let Some(prepared) = self
                    .prefetch
                    .take_if(|p| p.stamp.holds(index, version, budget))
                {
                    // The eligible rows and the index block are the
                    // predicted ones, so the prepared picks are this call's.
                    self.prob_stats.hit_rows += prepared.keys.len() as u64;
                    self.prob_stats.pools_served += 1;
                    prepared.selection
                } else {
                    let eligible = index.eligible_rows();
                    let probs = candidate_probs(
                        index,
                        latest,
                        &eligible,
                        self.prefetch.take(),
                        &mut self.prob_stats,
                    );
                    cluster_margin_selection(
                        index.block(),
                        &eligible,
                        &probs,
                        budget,
                        &ClusterMarginConfig::default(),
                    )
                    .into_iter()
                    .map(|i| eligible[i])
                    .collect()
                }
            }
            AcquisitionKind::Uncertainty => {
                let class = target_label.expect("uncertainty sampling needs a target label");
                let eligible = index.eligible_rows();
                let probs = candidate_probs(
                    index,
                    mm.latest_versioned(extractor),
                    &eligible,
                    self.prefetch.take(),
                    &mut self.prob_stats,
                );
                let (n_pos, n_neg) = labels.positive_negative_counts(class);
                uncertainty_selection_from_probs(
                    &probs,
                    class,
                    eligible.len(),
                    n_pos,
                    n_neg,
                    budget,
                )
                .into_iter()
                .map(|i| eligible[i])
                .collect()
            }
            // `select_segments` routes Random to `random_segments` before
            // ever reaching the active path.
            AcquisitionKind::Random => {
                unreachable!("random sampling never reaches active_segments")
            }
        };

        let picks = rows.iter().map(|&row| index.meta_at(row)).collect();
        if matches!(
            acquisition,
            AcquisitionKind::ClusterMargin | AcquisitionKind::Uncertainty
        ) {
            self.last_selection = Some(LastSelection {
                picks: rows,
                budget,
            });
        }
        (
            picks,
            SelectionStats {
                acquisition,
                videos_extracted_for_call: extracted_videos,
                extraction_secs,
                candidates_lost,
                coverage_fallback,
            },
        )
    }
}

/// Probability rows of the `eligible` rows of `index` under `latest`, the
/// latest model for the index's extractor and its registry version, one row
/// per entry, in order; an empty block while no model exists. A `prefetch`
/// scored by that same model version (versions are unique across
/// extractors) serves every window it holds, found by a merge-join on
/// window identity: the feature store is insert-only, so a window's
/// features never change, and `ensure_index` drops the prefetch with its
/// index. The remaining rows are scored in one
/// [`FittedModel::predict_proba_rows`] call. Any other prefetch is dropped
/// as an invalidation.
fn candidate_probs(
    index: &AcquisitionIndex,
    latest: Option<(u64, Arc<FittedModel>)>,
    eligible: &[usize],
    prefetch: Option<Prefetch>,
    stats: &mut ProbCacheStats,
) -> FeatureBlock {
    let prefetch = match prefetch {
        Some(p) if latest.as_ref().map(|(version, _)| *version) == Some(p.stamp.model_version) => {
            Some(p)
        }
        stale => {
            stats.invalidations += u64::from(stale.is_some());
            None
        }
    };
    let Some((_, fitted)) = latest else {
        return FeatureBlock::empty(0);
    };
    let Some(prefetch) = prefetch else {
        stats.miss_rows += eligible.len() as u64;
        return fitted.predict_proba_rows(index.block(), eligible);
    };
    // For each eligible row, the prefetch row holding its window, if any.
    let mut served: Vec<Option<usize>> = Vec::with_capacity(eligible.len());
    let mut misses: Vec<usize> = Vec::new();
    let mut next = 0;
    for &row in eligible {
        let key = window_key(index.meta_at(row));
        while next < prefetch.keys.len() && prefetch.keys[next] < key {
            next += 1;
        }
        if prefetch.keys.get(next) == Some(&key) {
            served.push(Some(next));
            next += 1;
        } else {
            served.push(None);
            misses.push(row);
        }
    }
    stats.hit_rows += (eligible.len() - misses.len()) as u64;
    stats.miss_rows += misses.len() as u64;
    let fresh = fitted.predict_proba_rows(index.block(), &misses);
    let classes = prefetch.probs.dim();
    let mut data = Vec::with_capacity(eligible.len() * classes);
    let mut fresh_rows = fresh.iter_rows();
    for from in served {
        data.extend_from_slice(match from {
            Some(r) => prefetch.probs.row(r),
            None => fresh_rows.next().expect("one scored row per miss"),
        });
    }
    FeatureBlock::from_vec(eligible.len(), classes, data)
}

/// All unlabeled `(vid, window)` pairs in the corpus.
fn unlabeled_windows(
    corpus: &VideoCorpus,
    labels: &LabelStore,
    clip_len: f64,
) -> Vec<(VideoId, TimeRange)> {
    let mut out = Vec::new();
    for clip in corpus.videos() {
        for w in 0..clip.num_windows(clip_len) {
            let range = TimeRange::new(w as f64 * clip_len, (w + 1) as f64 * clip_len);
            if !labels.is_labeled(clip.id, &range) {
                out.push((clip.id, range));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FeatureSelectionPolicy, SamplingPolicy};
    use ve_features::FeatureSimulator;
    use ve_storage::{LabelRecord, StorageManager};
    use ve_vidsim::{Dataset, DatasetName, GroundTruthOracle, Oracle, TaskKind};

    struct Fixture {
        dataset: Dataset,
        fm: FeatureManager,
        mm: ModelManager,
        labels: LabelStore,
        config: VocalExploreConfig,
    }

    fn fixture(seed: u64) -> Fixture {
        let dataset = Dataset::scaled(DatasetName::Deer, 0.1, seed);
        let sim = FeatureSimulator::new(DatasetName::Deer, 9, seed);
        let fm = FeatureManager::new(sim, StorageManager::new());
        let config = VocalExploreConfig::for_dataset(&dataset, seed).with_extra_candidates(10);
        let mm = ModelManager::new(config.clone());
        Fixture {
            dataset,
            fm,
            mm,
            labels: LabelStore::new(),
            config,
        }
    }

    fn label_some(fx: &mut Fixture, n: usize) {
        let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
        for clip in fx.dataset.train.videos().iter().take(n) {
            let range = TimeRange::new(0.0, 1.0);
            fx.labels.add(LabelRecord {
                vid: clip.id,
                range,
                classes: oracle.label(&fx.dataset.train, clip.id, &range),
                iteration: 0,
            });
        }
    }

    #[test]
    fn starts_with_random_and_selects_unlabeled_segments() {
        let fx = fixture(1);
        let mut alm = ActiveLearningManager::new(fx.config.clone());
        assert_eq!(alm.current_acquisition(), AcquisitionKind::Random);
        let (picks, stats) =
            alm.select_segments(&fx.dataset.train, &fx.fm, &fx.mm, &fx.labels, 5, 1.0, None);
        assert_eq!(picks.len(), 5);
        assert_eq!(stats.acquisition, AcquisitionKind::Random);
        assert_eq!(
            stats.extraction_secs, 0.0,
            "random sampling needs no features"
        );
        assert!(
            alm.index_stats().is_none(),
            "random sampling must not build the acquisition index"
        );
        // Segments must be unlabeled and distinct.
        let unique: std::collections::HashSet<_> = picks
            .iter()
            .map(|(v, r)| (*v, (r.start * 10.0) as i64))
            .collect();
        assert_eq!(unique.len(), picks.len());
        for (vid, range) in &picks {
            assert!(!fx.labels.is_labeled(*vid, range));
        }
    }

    #[test]
    fn switches_to_active_learning_on_skewed_labels() {
        let fx = fixture(2);
        let mut alm = ActiveLearningManager::new(fx.config.clone());
        // Feed heavily skewed label counts (Deer-like).
        for step in 1..=10u64 {
            alm.observe_labels(&[12 * step, step, 1, 0, 0, 0, 0, 0, 0]);
        }
        assert!(alm.has_switched_to_active());
        assert_eq!(alm.current_acquisition(), AcquisitionKind::ClusterMargin);
    }

    #[test]
    fn active_selection_extracts_extra_candidates_when_pool_is_small() {
        let mut fx = fixture(3);
        // Labels exist but nothing has been extracted yet: the index starts
        // empty and lazy active learning must extract X candidate videos on
        // the spot.
        label_some(&mut fx, 30);
        let mut alm = ActiveLearningManager::new(fx.config.clone().with_sampling(
            crate::config::SamplingPolicy::Fixed(AcquisitionKind::ClusterMargin),
        ));
        let (picks, stats) =
            alm.select_segments(&fx.dataset.train, &fx.fm, &fx.mm, &fx.labels, 5, 1.0, None);
        assert_eq!(picks.len(), 5);
        assert_eq!(stats.acquisition, AcquisitionKind::ClusterMargin);
        assert!(
            stats.videos_extracted_for_call > 0,
            "lazy AL must extract X videos"
        );
        assert!(stats.extraction_secs > 0.0);
        let stats = alm
            .index_stats()
            .expect("active selection builds the index");
        assert_eq!(
            stats.videos,
            5 + fx.config.extra_candidates_x,
            "index covers exactly the lazily extracted pool"
        );
    }

    #[test]
    fn ve_full_pool_avoids_new_extraction() {
        let mut fx = fixture(4);
        label_some(&mut fx, 30);
        // Pre-extract a pool of videos (as eager extraction would).
        let extractor = ExtractorId::Mvit;
        let pool: Vec<VideoId> = fx
            .dataset
            .train
            .videos()
            .iter()
            .skip(30)
            .take(20)
            .map(|c| {
                fx.fm.ensure_clip(extractor, c).unwrap();
                c.id
            })
            .collect();
        let mut cfg = fx.config.clone();
        cfg.extra_candidates_x = 0;
        let mut alm = ActiveLearningManager::new(
            cfg.with_sampling(crate::config::SamplingPolicy::Fixed(
                AcquisitionKind::Coreset,
            ))
            .with_feature_selection(crate::config::FeatureSelectionPolicy::Fixed(extractor)),
        );
        let (picks, stats) =
            alm.select_segments(&fx.dataset.train, &fx.fm, &fx.mm, &fx.labels, 5, 1.0, None);
        assert_eq!(picks.len(), 5);
        assert_eq!(stats.videos_extracted_for_call, 0);
        assert_eq!(stats.extraction_secs, 0.0);
        // Picks must come from the eagerly covered pool (the only videos the
        // acquisition index has ingested).
        for (vid, _) in &picks {
            assert!(pool.contains(vid));
        }
    }

    #[test]
    fn feature_evaluation_feeds_the_bandit_and_converges() {
        let mut fx = fixture(5);
        label_some(&mut fx, 80);
        let mut alm = ActiveLearningManager::new(fx.config.clone());
        assert_eq!(alm.active_extractors().len(), 5);
        // Run enough evaluation steps for warm-up plus elimination.
        let mut converged_at = None;
        for step in 0..60 {
            let scores: Vec<(ExtractorId, f64)> = alm
                .evaluation_candidates()
                .into_iter()
                .filter_map(|e| {
                    fx.mm
                        .evaluate_cv(e, &fx.dataset.train, &fx.fm, fx.labels.records())
                        .map(|score| (e, score))
                })
                .collect();
            alm.observe_feature_scores(&scores);
            if step == 0 {
                assert_eq!(scores.len(), 5, "all extractors evaluated initially");
            }
            if alm.selected_extractor().is_some() {
                converged_at = Some(step);
                break;
            }
        }
        let selected = alm.selected_extractor().expect("bandit should converge");
        assert!(
            matches!(selected, ExtractorId::R3d | ExtractorId::Mvit),
            "Deer should select a video model, got {selected}"
        );
        assert!(converged_at.unwrap() <= 50);
        assert_eq!(alm.current_extractor(), selected);
    }

    #[test]
    fn targeted_explore_uses_uncertainty_sampling() {
        let mut fx = fixture(6);
        label_some(&mut fx, 30);
        fx.mm
            .train(
                ExtractorId::Mvit,
                &fx.dataset.train,
                &fx.fm,
                fx.labels.records(),
                0,
            )
            .unwrap();
        let mut alm = ActiveLearningManager::new(fx.config.clone());
        let (picks, stats) = alm.select_segments(
            &fx.dataset.train,
            &fx.fm,
            &fx.mm,
            &fx.labels,
            5,
            1.0,
            Some(2),
        );
        assert_eq!(stats.acquisition, AcquisitionKind::Uncertainty);
        assert_eq!(picks.len(), 5);
    }

    fn bits(block: &FeatureBlock) -> Vec<u32> {
        block.as_slice().iter().map(|p| p.to_bits()).collect()
    }

    /// Syncs the ALM's index the way a selection does, scores its eligible
    /// rows through `candidate_probs` — the prefetch included — and checks
    /// every row against a fresh `predict_proba_rows` call bit for bit.
    /// Returns the rows served from the prefetch.
    fn served_rows_match_fresh_scoring(
        alm: &mut ActiveLearningManager,
        fx: &Fixture,
        clip_len: f64,
    ) -> u64 {
        let extractor = alm.current_extractor();
        let index = alm.ensure_index(extractor, clip_len);
        index.sync(&fx.fm, &fx.dataset.train, &fx.labels);
        let eligible = index.eligible_rows();
        let index = alm.index.as_ref().expect("index ensured");
        let hits_before = alm.prob_stats.hit_rows;
        let served = candidate_probs(
            index,
            fx.mm.latest_versioned(extractor),
            &eligible,
            alm.prefetch.take(),
            &mut alm.prob_stats,
        );
        let (_, fitted) = fx.mm.latest_versioned(extractor).expect("a model");
        let fresh = fitted.predict_proba_rows(index.block(), &eligible);
        assert_eq!(served.rows(), eligible.len());
        assert_eq!(bits(&served), bits(&fresh), "a served row differs");
        // The next prefetch predicts this call's rows: no picks to mask.
        alm.last_selection = Some(LastSelection {
            picks: Vec::new(),
            budget: 5,
        });
        alm.prob_stats.hit_rows - hits_before
    }

    #[test]
    fn every_served_row_equals_fresh_scoring() {
        let mut fx = fixture(8);
        let extractor = ExtractorId::Mvit;
        let mut vids: Vec<VideoId> = fx.dataset.train.videos().iter().map(|c| c.id).collect();
        vids.sort_unstable();
        let extract = |fx: &Fixture, vids: &[VideoId]| {
            for &vid in vids {
                let clip = fx.dataset.train.get(vid).expect("train video");
                fx.fm.ensure_clip(extractor, clip).unwrap();
            }
        };
        let mut round = 0;
        let mut train = |fx: &Fixture| {
            round += 1;
            let records = fx.labels.records();
            assert!(fx
                .mm
                .train(extractor, &fx.dataset.train, &fx.fm, records, round)
                .unwrap());
        };
        let evens: Vec<VideoId> = vids[..30].iter().step_by(2).copied().collect();
        extract(&fx, &evens);
        label_some(&mut fx, 12);
        let mut alm = ActiveLearningManager::new(
            fx.config
                .clone()
                .with_sampling(SamplingPolicy::Fixed(AcquisitionKind::ClusterMargin))
                .with_feature_selection(FeatureSelectionPolicy::Fixed(extractor)),
        );
        train(&fx);
        assert_eq!(served_rows_match_fresh_scoring(&mut alm, &fx, 1.0), 0);

        // Same model version: every still-eligible row is served.
        alm.prefetch_candidates(&fx.mm);
        assert!(served_rows_match_fresh_scoring(&mut alm, &fx, 1.0) > 0);

        // Merge splices renumber the rows; window identity still finds them.
        train(&fx);
        alm.prefetch_candidates(&fx.mm);
        let odds: Vec<VideoId> = vids[1..30].iter().step_by(2).copied().collect();
        extract(&fx, &odds);
        let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
        for &vid in &odds[..4] {
            let range = TimeRange::new(1.0, 2.0);
            fx.labels.add(LabelRecord {
                vid,
                range,
                classes: oracle.label(&fx.dataset.train, vid, &range),
                iteration: 1,
            });
        }
        let epoch = alm.index.as_ref().expect("built").epoch();
        assert!(served_rows_match_fresh_scoring(&mut alm, &fx, 1.0) > 0);
        assert!(alm.index.as_ref().expect("built").epoch() > epoch, "merged");

        // A retrain after the prefetch makes it stale.
        alm.prefetch_candidates(&fx.mm);
        train(&fx);
        let stats = alm.prob_cache_stats();
        assert_eq!(served_rows_match_fresh_scoring(&mut alm, &fx, 1.0), 0);
        assert_eq!(
            alm.prob_cache_stats().invalidations,
            stats.invalidations + 1
        );

        // A replaced index (another clip length) drops the prefetch: its
        // window starts may name other windows.
        alm.prefetch_candidates(&fx.mm);
        assert_eq!(served_rows_match_fresh_scoring(&mut alm, &fx, 2.0), 0);
        assert_eq!(
            alm.prob_cache_stats().invalidations,
            stats.invalidations + 2
        );

        // The new index's own prefetch is served.
        alm.prefetch_candidates(&fx.mm);
        assert!(served_rows_match_fresh_scoring(&mut alm, &fx, 2.0) > 0);

        // An unused prefetch replaced by a newer one is an invalidation too.
        alm.prefetch_candidates(&fx.mm);
        alm.prefetch_candidates(&fx.mm);
        assert_eq!(
            alm.prob_cache_stats().invalidations,
            stats.invalidations + 3
        );
    }

    const POOL_BUDGET: usize = 5;

    /// Labels `picks` with their ground truth, as the user labels a batch.
    fn label_picks(fx: &mut Fixture, picks: &[(VideoId, TimeRange)], iteration: u32) {
        let oracle = GroundTruthOracle::new(TaskKind::SingleLabel);
        for &(vid, range) in picks {
            fx.labels.add(LabelRecord {
                vid,
                range,
                classes: oracle.label(&fx.dataset.train, vid, &range),
                iteration,
            });
        }
    }

    fn retrain(fx: &Fixture, round: u32) {
        let records = fx.labels.records();
        assert!(fx
            .mm
            .train(ExtractorId::Mvit, &fx.dataset.train, &fx.fm, records, round)
            .unwrap());
    }

    fn pool_config(fx: &Fixture) -> VocalExploreConfig {
        fx.config
            .clone()
            .with_extra_candidates(0)
            .with_candidate_cap(16)
            .with_sampling(SamplingPolicy::Fixed(AcquisitionKind::ClusterMargin))
            .with_feature_selection(FeatureSelectionPolicy::Fixed(ExtractorId::Mvit))
    }

    /// An ALM over 8 extracted MViT videos, capped at 16 candidates so the
    /// sketch reduces, after one Cluster-Margin call whose picks the user
    /// labeled, a retrain and a prefetch: the labeling window of a session.
    fn prepared_pool(fx: &mut Fixture) -> ActiveLearningManager {
        for clip in fx.dataset.train.videos().iter().take(8) {
            fx.fm.ensure_clip(ExtractorId::Mvit, clip).unwrap();
        }
        label_some(fx, 4);
        retrain(fx, 1);
        let mut alm = ActiveLearningManager::new(pool_config(fx));
        let (picks, _) = alm.select_segments(
            &fx.dataset.train,
            &fx.fm,
            &fx.mm,
            &fx.labels,
            POOL_BUDGET,
            1.0,
            None,
        );
        assert_eq!(picks.len(), POOL_BUDGET);
        label_picks(fx, &picks, 1);
        retrain(fx, 2);
        alm.prefetch_candidates(&fx.mm);
        assert!(alm.prefetch.is_some());
        alm
    }

    /// Runs the next Cluster-Margin call and checks its picks against an ALM
    /// that never prefetches; returns the pools served by the call.
    fn next_call_matches_fresh(alm: &mut ActiveLearningManager, fx: &Fixture) -> u64 {
        let served = alm.prob_cache_stats().pools_served;
        let select = |alm: &mut ActiveLearningManager| {
            alm.select_segments(
                &fx.dataset.train,
                &fx.fm,
                &fx.mm,
                &fx.labels,
                POOL_BUDGET,
                1.0,
                None,
            )
        };
        let (picks, stats) = select(alm);
        let (fresh_picks, fresh_stats) = select(&mut ActiveLearningManager::new(pool_config(fx)));
        assert_eq!(picks, fresh_picks);
        assert_eq!(stats, fresh_stats);
        alm.prob_cache_stats().pools_served - served
    }

    #[test]
    fn a_prepared_pool_is_served_only_while_every_stamp_field_holds() {
        let mut fx = fixture(9);
        let mut alm = prepared_pool(&mut fx);
        let index = alm.index.as_mut().expect("built");
        index.sync(&fx.fm, &fx.dataset.train, &fx.labels);
        assert!(index.unmasked_rows() > 16, "the sketch reduces");
        let version = fx
            .mm
            .latest_versioned(ExtractorId::Mvit)
            .map(|(version, _)| version);
        let stamp = alm.prefetch.as_ref().expect("prepared").stamp.clone();
        let index = alm.index.as_ref().expect("built");
        assert!(stamp.holds(index, version, POOL_BUDGET));

        let unmasked_row = (0..index.rows())
            .find(|&row| !index.is_masked(row))
            .expect("an unmasked row");
        let broken = [
            (
                "model_version",
                Stamp {
                    model_version: stamp.model_version + 1,
                    ..stamp.clone()
                },
            ),
            (
                "extractor",
                Stamp {
                    extractor: ExtractorId::R3d,
                    ..stamp.clone()
                },
            ),
            (
                "clip_len",
                Stamp {
                    clip_len: 2.0,
                    ..stamp.clone()
                },
            ),
            (
                "rows",
                Stamp {
                    rows: stamp.rows + 1,
                    ..stamp.clone()
                },
            ),
            (
                "unmasked",
                Stamp {
                    unmasked: stamp.unmasked + 1,
                    ..stamp.clone()
                },
            ),
            (
                "picks, one fewer",
                Stamp {
                    picks: stamp.picks[1..].to_vec(),
                    ..stamp.clone()
                },
            ),
            (
                "picks, one not labeled",
                Stamp {
                    picks: [&[unmasked_row], &stamp.picks[1..]].concat(),
                    ..stamp.clone()
                },
            ),
            (
                "budget",
                Stamp {
                    budget: stamp.budget + 1,
                    ..stamp.clone()
                },
            ),
        ];
        for (field, broken) in &broken {
            assert!(
                !broken.holds(index, version, POOL_BUDGET),
                "a broken {field} still holds"
            );
        }
        // The call's own model and budget.
        assert!(!stamp.holds(index, version.map(|v| v + 1), POOL_BUDGET));
        assert!(!stamp.holds(index, None, POOL_BUDGET));
        assert!(!stamp.holds(index, version, POOL_BUDGET + 1));

        let before = alm.prob_cache_stats();
        assert_eq!(next_call_matches_fresh(&mut alm, &fx), 1);
        let after = alm.prob_cache_stats();
        assert_eq!(after.miss_rows, before.miss_rows, "nothing scored");
        assert_eq!(after.hit_rows - before.hit_rows, 16, "every row served");
    }

    /// The oracle for the next call of `budget`: Cluster-Margin over the
    /// call's own eligible rows, every row scored fresh by the latest model.
    fn fresh_selection(
        alm: &mut ActiveLearningManager,
        fx: &Fixture,
        budget: usize,
    ) -> Vec<(VideoId, TimeRange)> {
        let index = alm.index.as_mut().expect("built");
        index.sync(&fx.fm, &fx.dataset.train, &fx.labels);
        let eligible = index.eligible_rows();
        let (_, fitted) = fx.mm.latest_versioned(ExtractorId::Mvit).expect("a model");
        let probs = fitted.predict_proba_rows(index.block(), &eligible);
        let cfg = ClusterMarginConfig::default();
        cluster_margin_selection(index.block(), &eligible, &probs, budget, &cfg)
            .into_iter()
            .map(|i| index.meta_at(eligible[i]))
            .collect()
    }

    /// Runs the next Cluster-Margin call of `budget`, checks its picks
    /// against [`fresh_selection`] and returns whether the prefetch served
    /// it.
    fn served_call_matches_oracle(
        alm: &mut ActiveLearningManager,
        fx: &Fixture,
        budget: usize,
    ) -> bool {
        let expected = fresh_selection(alm, fx, budget);
        let served = alm.prob_cache_stats().pools_served;
        let (picks, _) = alm.select_segments(
            &fx.dataset.train,
            &fx.fm,
            &fx.mm,
            &fx.labels,
            budget,
            1.0,
            None,
        );
        assert_eq!(picks, expected);
        alm.prob_cache_stats().pools_served > served
    }

    #[test]
    fn served_picks_equal_a_fresh_selection() {
        let prepared = || {
            let mut fx = fixture(11);
            let alm = prepared_pool(&mut fx);
            (fx, alm)
        };
        let (fx, mut alm) = prepared();
        assert!(served_call_matches_oracle(&mut alm, &fx, POOL_BUDGET));

        // A budget change: the picks were prepared at the last budget.
        let (fx, mut alm) = prepared();
        assert!(!served_call_matches_oracle(&mut alm, &fx, POOL_BUDGET - 1));

        // An ingest after the prefetch adds rows the prediction did not see.
        let (fx, mut alm) = prepared();
        let clip = &fx.dataset.train.videos()[8];
        fx.fm.ensure_clip(ExtractorId::Mvit, clip).unwrap();
        assert!(!served_call_matches_oracle(&mut alm, &fx, POOL_BUDGET));
    }

    #[test]
    fn a_dropped_sketch_refuses_the_pool() {
        let mut fx = fixture(10);
        let mut alm = prepared_pool(&mut fx);
        // A video too short for one window ingests no rows, but a tail
        // append past an unsaturated fit prefix drops the sketch.
        let mut short = fx.dataset.train.videos()[0].clone();
        short.duration = 0.5;
        short.segments.truncate(1);
        short.segments[0].range = TimeRange::new(0.0, 0.5);
        let vid = fx.dataset.train.add(short);
        let clip = fx.dataset.train.get(vid).expect("just added").clone();
        fx.fm.ensure_clip(ExtractorId::Mvit, &clip).unwrap();
        let index = alm.index.as_mut().expect("built");
        let videos = index.video_count();
        index.sync(&fx.fm, &fx.dataset.train, &fx.labels);
        assert_eq!(index.video_count(), videos + 1);
        assert!(!index.reduction_ready(), "the sketch was dropped");
        let version = fx
            .mm
            .latest_versioned(ExtractorId::Mvit)
            .map(|(version, _)| version);
        let stamp = alm.prefetch.as_ref().expect("prepared").stamp.clone();
        let index = alm.index.as_ref().expect("built");
        let other_fields_hold = index.rows() == stamp.rows
            && index.unmasked_rows() + stamp.picks.len() == stamp.unmasked;
        assert!(other_fields_hold);
        assert!(!stamp.holds(index, version, POOL_BUDGET));

        assert_eq!(next_call_matches_fresh(&mut alm, &fx), 0);
        assert!(alm.index_stats().expect("built").sketch_built);
    }

    #[test]
    fn fixed_feature_policy_reports_single_extractor() {
        let fx = fixture(7);
        let alm = ActiveLearningManager::new(fx.config.clone().with_feature_selection(
            crate::config::FeatureSelectionPolicy::Fixed(ExtractorId::Clip),
        ));
        assert_eq!(alm.active_extractors(), vec![ExtractorId::Clip]);
        assert_eq!(alm.selected_extractor(), Some(ExtractorId::Clip));
        assert_eq!(alm.current_extractor(), ExtractorId::Clip);
        assert!(alm.bandit_snapshots().is_none());
    }
}
