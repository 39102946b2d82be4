//! Trace equivalence: the deterministic event plane (`ve-obs`) is a pure
//! function of the session's inputs.
//!
//! Three contracts:
//!
//! 1. **Inline/threaded equivalence** — `SessionRunner::run` (every task on
//!    the session thread) and `SessionRunner::run_measured` (a worker pool,
//!    modeled costs slept) with the same config produce the same labels,
//!    records, canonical event ledger, degradation sequence, and cold/warm
//!    training counts, for every scheduling strategy (and a preprocessing
//!    baseline) at every tested `executor_workers × compute_threads`; the
//!    threaded run's timing plane holds one span per submitted task.
//! 2. **Parallelism invariance** — under faults, the threaded ledger is
//!    bit-identical across worker/thread counts.
//! 3. **Chaos reconciliation** — under injected training faults, the event
//!    plane and the scheduler's counters tell the same story: re-run
//!    `TrainAttempt`s equal `ExecutorStats::retried`, `TrainingFailed`
//!    degradation events equal `gave_up`, and the `Degraded` events are
//!    exactly the outcome's degradation ledger.

mod common;

use vocalexplore::prelude::*;
use vocalexplore::Degradation;

use ve_sched::fault::{FaultPlan, FaultRule, FaultSite};

fn base_config(seed: u64, iterations: usize) -> SessionConfig {
    let mut cfg = SessionConfig::new(DatasetName::Deer, 0.08, seed)
        .with_iterations(iterations)
        .with_eval_every(1000);
    cfg.system = cfg
        .system
        .with_feature_selection(FeatureSelectionPolicy::Fixed(ExtractorId::R3d))
        .with_extra_candidates(5)
        .with_compute_threads(1)
        .with_time_scale(1e-4);
    cfg.system.train.epochs = 40;
    cfg
}

#[test]
fn sync_and_async_ledgers_are_identical_for_every_strategy() {
    let mut configs: Vec<(String, SessionConfig)> = SchedulerStrategy::all()
        .into_iter()
        .map(|strategy| {
            let mut cfg = base_config(29, 6);
            cfg.system = cfg.system.with_strategy(strategy);
            (strategy.to_string(), cfg)
        })
        .collect();
    let mut pp = base_config(29, 6);
    pp.system = pp
        .system
        .with_strategy(SchedulerStrategy::Serial)
        .with_preprocess(PreprocessPolicy::AllVideos);
    configs.push(("Serial-PP".to_string(), pp));
    for (name, cfg) in configs {
        let inline = SessionRunner::new(cfg.clone()).run();
        assert!(
            !inline.events.is_empty(),
            "instrumentation must actually record events under {name}"
        );
        assert!(
            inline.training.cold_trains >= 1 && inline.training.warm_trains >= 1,
            "the session must exercise both the cold seed and the warm path under {name}: {:?}",
            inline.training
        );
        for (workers, threads) in [(1, 1), (1, 4), (4, 1), (4, 4)] {
            let mut threaded = cfg.clone();
            threaded.system = threaded
                .system
                .with_executor_workers(workers)
                .with_compute_threads(threads);
            let measured = SessionRunner::new(threaded).run_measured();
            let context = format!("{name} at workers={workers} threads={threads}");
            common::assert_same_session(&inline, &measured, &context);
            // `wait_idle` returns only after every span is recorded, so the
            // timing plane holds exactly one span per submitted task.
            assert_eq!(
                measured.timings.len() as u64,
                measured.executor.submitted,
                "timing spans must equal submitted tasks ({context})"
            );
        }
    }
}

#[test]
fn sync_and_async_ledgers_are_identical_for_a_bandit_session() {
    // The rising bandit (the default feature policy) scores its candidates
    // in one `eval` task per round, which the fixed-R3D configs above never
    // submit; VE-full runs it beside the window's eager extraction.
    let mut cfg = base_config(29, 6);
    cfg.system = cfg
        .system
        .with_strategy(SchedulerStrategy::VeFull)
        .with_feature_selection(FeatureSelectionPolicy::default());
    let inline = SessionRunner::new(cfg.clone()).run();
    let evaluations = inline
        .events
        .iter()
        .filter(|(_, e)| matches!(e, SessionEvent::EvaluationCompleted { .. }))
        .count();
    assert!(evaluations >= 5, "the session must score bandit rounds");
    for (workers, threads) in [(1, 1), (1, 4), (4, 1), (4, 4)] {
        let mut threaded = cfg.clone();
        threaded.system = threaded
            .system
            .with_executor_workers(workers)
            .with_compute_threads(threads);
        let measured = SessionRunner::new(threaded).run_measured();
        let context = format!("bandit at workers={workers} threads={threads}");
        common::assert_same_session(&inline, &measured, &context);
        assert_eq!(
            measured.timings.len() as u64,
            measured.executor.submitted,
            "timing spans must equal submitted tasks ({context})"
        );
        assert!(
            measured.timings.iter().any(|t| t.label.kind == "eval"),
            "the threaded run must submit eval tasks ({context})"
        );
    }
}

#[test]
fn async_ledger_is_invariant_across_parallelism() {
    let plan = FaultPlan::new(7)
        .with_rule(FaultSite::FeatureExtraction, FaultRule::permanent(0.2))
        .with_rule(FaultSite::Training, FaultRule::permanent(0.3))
        .with_rule(FaultSite::BatchInference, FaultRule::permanent(0.3))
        .with_rule(FaultSite::RowInference, FaultRule::permanent(0.1));
    let run = |workers: usize, threads: usize| {
        let mut cfg = base_config(17, 6);
        cfg.system = cfg
            .system
            .with_strategy(SchedulerStrategy::VeFull)
            .with_fault_plan(plan.clone())
            .with_executor_workers(workers)
            .with_compute_threads(threads);
        SessionRunner::new(cfg).run_measured()
    };
    let reference = run(1, 1);
    assert!(!reference.events.is_empty());
    for (workers, threads) in [(1, 4), (4, 1), (4, 4)] {
        let other = run(workers, threads);
        assert_eq!(
            other.events, reference.events,
            "canonical ledger diverged at workers={workers} threads={threads}"
        );
    }
}

#[test]
fn chaos_fault_events_reconcile_with_executor_counters() {
    // Training always fails: every retryable training task burns its full
    // attempt budget and gives up. The event plane must agree with the
    // executor's counters exactly.
    let plan = FaultPlan::new(3).with_rule(FaultSite::Training, FaultRule::permanent(1.0));
    let mut cfg = base_config(11, 6);
    cfg.system = cfg
        .system
        .with_strategy(SchedulerStrategy::VePartial)
        .with_fault_plan(plan);
    let out = SessionRunner::new(cfg).run_measured();

    let reruns = out
        .events
        .iter()
        .filter(|(_, e)| matches!(e, SessionEvent::TrainAttempt { attempt, .. } if *attempt >= 1))
        .count() as u64;
    assert!(reruns > 0, "the storm must force retries");
    assert_eq!(
        reruns, out.executor.retried,
        "re-run TrainAttempt events must equal the executor's retried counter"
    );

    let gave_up_events = out
        .events
        .iter()
        .filter(|(_, e)| {
            matches!(
                e,
                SessionEvent::Degraded(Degradation::TrainingFailed { .. })
            )
        })
        .count() as u64;
    assert_eq!(
        gave_up_events, out.executor.gave_up,
        "TrainingFailed events must equal the executor's gave_up counter"
    );

    // The legacy degradation ledger is a view over the event plane: the
    // Degraded events are exactly the outcome's degradations (as multisets;
    // the canonical ledger reorders within an iteration).
    let mut from_events: Vec<String> = out
        .events
        .iter()
        .filter_map(|(_, e)| match e {
            SessionEvent::Degraded(d) => Some(format!("{d:?}")),
            _ => None,
        })
        .collect();
    from_events.sort();
    let mut from_ledger: Vec<String> = out.degradations.iter().map(|d| format!("{d:?}")).collect();
    from_ledger.sort();
    assert_eq!(from_events, from_ledger);
}
