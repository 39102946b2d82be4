//! Session-level proof of the `ProbabilityCache` bit-identical contract.
//!
//! The unit tests and the `acquisition_index_equivalence` properties pin the
//! cache at the selection-call level; these tests pin it end to end: two
//! complete measured `SessionRunner` sessions — identical except that one runs
//! with the probability cache enabled (the default) and one with it disabled
//! — must produce the **same label sequence and the same per-iteration
//! acquisition sequence**, for Coreset, Cluster-Margin, and rare-class
//! Uncertainty selection, at `compute_threads` 1 and 4.
//!
//! The cached sessions additionally assert that the cache actually
//! participated (hit or miss rows observed) wherever a model exists, so the
//! equivalence statement is never satisfied vacuously by a dead cache.

use ve_al::AcquisitionKind;
use ve_features::ExtractorId;
use ve_sched::SchedulerStrategy;
use ve_vidsim::DatasetName;
use vocalexplore::config::{FeatureSelectionPolicy, SamplingPolicy};
use vocalexplore::{SessionConfig, SessionOutcome, SessionRunner};

/// A small measured session: fixed extractor, VE-full, fine time scale so
/// the run is dominated by real compute, 6 iterations.
fn session_config(
    kind: AcquisitionKind,
    target: Option<usize>,
    compute_threads: usize,
    prob_cache: bool,
) -> SessionConfig {
    let mut cfg = SessionConfig::new(DatasetName::Deer, 0.08, 19)
        .with_iterations(6)
        .with_eval_every(1000);
    if let Some(class) = target {
        cfg = cfg.with_target_label(class);
    }
    cfg.system = cfg
        .system
        .with_sampling(SamplingPolicy::Fixed(kind))
        .with_feature_selection(FeatureSelectionPolicy::Fixed(ExtractorId::R3d))
        .with_strategy(SchedulerStrategy::VeFull)
        .with_extra_candidates(5)
        .with_compute_threads(compute_threads)
        .with_time_scale(1e-4)
        .with_prob_cache(prob_cache);
    cfg.system.train.epochs = 30;
    cfg
}

fn acquisitions(outcome: &SessionOutcome) -> Vec<AcquisitionKind> {
    outcome.records.iter().map(|r| r.acquisition).collect()
}

fn assert_cache_equivalence(kind: AcquisitionKind, target: Option<usize>) {
    // `compute_threads` is process-wide (set at system construction), so the
    // guard serializes against every other test mutating it.
    let _guard = ve_sched::parallel::test_parallelism_guard();
    for threads in [1usize, 4] {
        let cached = SessionRunner::new(session_config(kind, target, threads, true)).run_measured();
        let uncached =
            SessionRunner::new(session_config(kind, target, threads, false)).run_measured();
        ve_sched::parallel::set_parallelism(0);
        assert_eq!(
            cached.labels, uncached.labels,
            "{kind:?}: cache changed the label sequence at {threads} compute threads"
        );
        assert_eq!(
            acquisitions(&cached),
            acquisitions(&uncached),
            "{kind:?}: cache changed the acquisition sequence at {threads} threads"
        );
        assert_eq!(cached.final_extractor, uncached.final_extractor);
        if kind != AcquisitionKind::Coreset {
            // The equivalence must not hold vacuously: the inference-driven
            // acquisitions have to route probability rows through the cache.
            let stats = cached.prob_cache;
            assert!(
                stats.hit_rows + stats.miss_rows > 0,
                "{kind:?}: cache never consulted at {threads} threads"
            );
        }
        let off = uncached.prob_cache;
        assert_eq!(off.hit_rows + off.miss_rows, 0, "disabled cache must idle");
    }
}

#[test]
fn coreset_sessions_identical_with_and_without_cache() {
    // Coreset never consults the cache (no inference), but the session still
    // exercises the scratch-buffer reuse and the invalidate-on-index-replace
    // path; picks must be unaffected either way.
    assert_cache_equivalence(AcquisitionKind::Coreset, None);
}

#[test]
fn cluster_margin_sessions_identical_with_and_without_cache() {
    assert_cache_equivalence(AcquisitionKind::ClusterMargin, None);
}

#[test]
fn uncertainty_sessions_identical_with_and_without_cache() {
    // `Explore(label = 2)` routes every call through the rare-class
    // uncertainty sampler regardless of the configured sampling policy.
    assert_cache_equivalence(AcquisitionKind::Uncertainty, Some(2));
}
