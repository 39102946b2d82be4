//! Chaos properties of the fault-injection and recovery layer.
//!
//! Three contracts, asserted over randomized-but-seeded fault schedules:
//!
//! 1. **Fault transparency** — a plan whose `fail_limit` is below the retry
//!    budget (`FaultPlan::transparent_under`) must produce a session whose
//!    label/selection sequence is bit-identical to a fault-free run, for
//!    every scheduling strategy.
//! 2. **Determinism** — with permanent faults in play, the same
//!    `(seed, FaultPlan)` must produce bit-identical labels, selections,
//!    degradation ledgers, and retry counters at any `executor_workers` /
//!    `compute_threads` setting.
//! 3. **No hang** — `wait_idle` (exercised at every iteration boundary of
//!    a measured run) converges under fault storms; sessions finish with
//!    zero pending tasks.
//!
//! Under permanent faults, the inline run (`SessionRunner::run`) and the
//! threaded run (`SessionRunner::run_measured`) must also absorb the same
//! faults in the same order and end with the same cold/warm training
//! counts: a failed train publishes nothing and leaves the warm state alone.

mod common;

use vocalexplore::prelude::*;
use vocalexplore::Degradation;

use ve_sched::fault::{FaultPlan, FaultRule, FaultSite};
use ve_sched::RetryPolicy;

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
fn transient_faults_within_the_retry_budget_are_invisible() {
    // Aggressive per-attempt failure probability, but every operation is
    // guaranteed to succeed by its third attempt — below the default retry
    // budget, so the plan is provably transparent.
    let plan = FaultPlan::uniform(42, FaultRule::transient(0.9, 2));
    assert!(plan.transparent_under(3));
    for strategy in SchedulerStrategy::all() {
        let mut oracle_cfg = base_config(31, 6);
        oracle_cfg.system = oracle_cfg.system.with_strategy(strategy);
        let mut faulted_cfg = oracle_cfg.clone();
        faulted_cfg.system = faulted_cfg.system.with_fault_plan(plan.clone());
        assert_eq!(faulted_cfg.system.retry.max_attempts, 3, "default budget");

        let oracle = SessionRunner::new(oracle_cfg).run();
        let faulted = SessionRunner::new(faulted_cfg.clone()).run();
        assert_eq!(
            faulted.labels, oracle.labels,
            "transient faults changed the label sequence under {strategy}"
        );
        assert_eq!(faulted.final_extractor, oracle.final_extractor);
        let acq = |o: &SessionOutcome| o.records.iter().map(|r| r.acquisition).collect::<Vec<_>>();
        assert_eq!(acq(&faulted), acq(&oracle), "{strategy}");
        assert!(
            faulted.degradations.is_empty(),
            "a transparent plan must absorb nothing permanently under {strategy}: {:?}",
            faulted.degradations
        );

        // A threaded run absorbs the same transient storm to the same
        // final state.
        let measured = SessionRunner::new(faulted_cfg).run_measured();
        assert_eq!(
            measured.labels, oracle.labels,
            "threaded transient-fault labels diverged under {strategy}"
        );
        assert!(measured.degradations.is_empty(), "{strategy}");
    }
}

#[test]
fn permanent_faults_degrade_identically_at_any_parallelism() {
    // Moderate permanent fault rates at every site: some extractions give
    // up, some trainings fail, some inference falls back — and all of it
    // must replay bit-identically at any worker/thread count.
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
    assert!(
        !reference.degradations.is_empty(),
        "the schedule must actually degrade something"
    );
    for (workers, threads) in [(1, 4), (4, 1), (4, 4)] {
        let other = run(workers, threads);
        assert_eq!(
            other.labels, reference.labels,
            "labels diverged at workers={workers} threads={threads}"
        );
        assert_eq!(
            other.degradations, reference.degradations,
            "degradation ledger diverged at workers={workers} threads={threads}"
        );
        assert_eq!(
            (other.executor.retried, other.executor.gave_up),
            (reference.executor.retried, reference.executor.gave_up),
            "retry counters diverged at workers={workers} threads={threads}"
        );
        assert_eq!(other.executor.pending(), 0);
    }
}

#[test]
fn async_engine_matches_synchronous_path_under_permanent_faults() {
    let plan = FaultPlan::new(23)
        .with_rule(FaultSite::FeatureExtraction, FaultRule::permanent(0.25))
        .with_rule(FaultSite::Training, FaultRule::permanent(0.4))
        .with_rule(FaultSite::BatchInference, FaultRule::permanent(0.4))
        .with_rule(FaultSite::RowInference, FaultRule::permanent(0.15));
    for strategy in SchedulerStrategy::all() {
        let mut cfg = base_config(19, 6);
        cfg.system = cfg
            .system
            .with_strategy(strategy)
            .with_fault_plan(plan.clone());
        let inline = SessionRunner::new(cfg.clone()).run();
        for (workers, threads) in [(1, 1), (1, 4), (4, 1), (4, 4)] {
            let mut threaded = cfg.clone();
            threaded.system = threaded
                .system
                .with_executor_workers(workers)
                .with_compute_threads(threads);
            common::assert_same_session(
                &inline,
                &SessionRunner::new(threaded).run_measured(),
                &format!("{strategy} at workers={workers} threads={threads}"),
            );
        }
    }
}

#[test]
fn fault_storm_does_not_hang_the_session_engine() {
    // Near-certain permanent failure at every site with a tight retry
    // budget: the engine must still terminate every iteration barrier and
    // finish with nothing pending.
    let plan = FaultPlan::uniform(99, FaultRule::permanent(0.9));
    let mut cfg = base_config(13, 5);
    cfg.system = cfg
        .system
        .with_strategy(SchedulerStrategy::VeFull)
        .with_fault_plan(plan)
        .with_retry(RetryPolicy::new(2, 0.01, 2.0))
        .with_executor_workers(4);
    let out = SessionRunner::new(cfg).run_measured();
    assert_eq!(out.records.len(), 5, "every iteration must complete");
    assert_eq!(out.executor.pending(), 0, "no task may be left behind");
    assert!(
        !out.degradations.is_empty(),
        "a 0.9 permanent storm must be absorbed somewhere"
    );
}

#[test]
fn training_faults_exercise_executor_retry_counters() {
    // Training always fails: the executor's retryable task burns the full
    // budget (bumping `retried` per re-run and `gave_up` on exhaustion) and
    // every failed train is recorded as a degradation while the session
    // keeps serving.
    let plan = FaultPlan::new(3).with_rule(FaultSite::Training, FaultRule::permanent(1.0));
    let mut cfg = base_config(11, 6);
    cfg.system = cfg
        .system
        .with_strategy(SchedulerStrategy::VePartial)
        .with_fault_plan(plan);
    let out = SessionRunner::new(cfg).run_measured();
    assert!(
        out.executor.retried > 0,
        "failed attempts must be retried: {:?}",
        out.executor
    );
    assert!(
        out.executor.gave_up > 0,
        "exhausted budgets must be counted: {:?}",
        out.executor
    );
    assert_eq!(out.executor.pending(), 0);
    assert!(out
        .degradations
        .iter()
        .any(|d| matches!(d, Degradation::TrainingFailed { .. })));
    assert!(
        out.records.len() == 6,
        "the session must run to completion without a trained model"
    );
}

#[test]
fn failed_trains_leave_the_warm_path_deterministic() {
    // Permanent training faults in the middle of the session: each failed
    // request publishes nothing and leaves the warm state alone, so the
    // next train fine-tunes on the labels the failure skipped. The inline
    // and threaded runs must still agree on everything, cold/warm counts
    // included, at every parallelism.
    let plan = FaultPlan::new(7).with_rule(FaultSite::Training, FaultRule::permanent(0.4));
    for strategy in SchedulerStrategy::all() {
        let mut cfg = base_config(19, 8);
        cfg.system = cfg
            .system
            .with_strategy(strategy)
            .with_fault_plan(plan.clone());
        let inline = SessionRunner::new(cfg.clone()).run();
        let trains: Vec<bool> = inline
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                SessionEvent::TrainCompleted { .. } => Some(true),
                SessionEvent::Degraded(Degradation::TrainingFailed { .. }) => Some(false),
                _ => None,
            })
            .collect();
        assert!(
            trains.windows(2).any(|w| w == [false, true]),
            "the plan must fail a train that a later train follows under {strategy}: {trains:?}"
        );
        assert_eq!(
            inline.training.cold_trains + inline.training.warm_trains,
            trains.iter().filter(|&&ok| ok).count() as u64,
            "only published models count as trains under {strategy}"
        );
        assert_eq!(
            inline.training.cold_trains, 1,
            "a failed train must not force a cold refit under {strategy}"
        );
        for (workers, threads) in [(1, 1), (1, 4), (4, 1), (4, 4)] {
            let mut threaded = cfg.clone();
            threaded.system = threaded
                .system
                .with_executor_workers(workers)
                .with_compute_threads(threads);
            common::assert_same_session(
                &inline,
                &SessionRunner::new(threaded).run_measured(),
                &format!("{strategy} at workers={workers} threads={threads}"),
            );
        }
    }
}
