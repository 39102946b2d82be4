//! Stress tests for the priority executor: concurrent submitters, priority
//! ordering under contention, panic storms, and counter convergence.

// Raw threads on purpose: these tests hammer the executor *from outside* it,
// which is exactly what the disallowed-methods rule forbids in product code.
#![allow(clippy::disallowed_methods)]

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;
use ve_sched::{Executor, Priority, RetryPolicy, TaskFailure};

const PRIORITIES: [Priority; 3] = [Priority::Critical, Priority::Normal, Priority::Background];

#[test]
fn mixed_priority_flood_from_many_submitters_runs_every_job() {
    const SUBMITTERS: usize = 8;
    const JOBS_PER_SUBMITTER: usize = 250;

    let ex = Arc::new(Executor::new(4));
    let ran = Arc::new(AtomicUsize::new(0));
    let start = Arc::new(Barrier::new(SUBMITTERS));

    let handles: Vec<_> = (0..SUBMITTERS)
        .map(|s| {
            let ex = Arc::clone(&ex);
            let ran = Arc::clone(&ran);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for j in 0..JOBS_PER_SUBMITTER {
                    let ran = Arc::clone(&ran);
                    ex.submit(PRIORITIES[(s + j) % 3], move || {
                        ran.fetch_add(1, Ordering::SeqCst);
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    ex.wait_idle();
    let total = (SUBMITTERS * JOBS_PER_SUBMITTER) as u64;
    assert_eq!(ran.load(Ordering::SeqCst) as u64, total);
    let stats = ex.stats();
    assert_eq!(stats.submitted, total);
    assert_eq!(
        stats.completed, total,
        "counters must converge after a flood"
    );
    assert_eq!(stats.failed, 0);
}

#[test]
fn priority_classes_never_invert_under_a_single_worker() {
    // Gate the only worker so every submission (from several racing threads)
    // is queued before anything executes; execution order then equals queue
    // order, which must be Critical, then Normal, then Background.
    let ex = Arc::new(Executor::new(1));
    let gate = Arc::new(AtomicBool::new(false));
    {
        let gate = Arc::clone(&gate);
        ex.submit(Priority::Critical, move || {
            while !gate.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
    }

    let order: Arc<Mutex<Vec<Priority>>> = Arc::new(Mutex::new(Vec::new()));
    let start = Arc::new(Barrier::new(3));
    let handles: Vec<_> = (0..3)
        .map(|s| {
            let ex = Arc::clone(&ex);
            let order = Arc::clone(&order);
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                for j in 0..30 {
                    // Each submitter interleaves all three classes.
                    let priority = PRIORITIES[(s + j) % 3];
                    let order = Arc::clone(&order);
                    ex.submit(priority, move || {
                        order.lock().unwrap().push(priority);
                    });
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    gate.store(true, Ordering::SeqCst);
    ex.wait_idle();

    let order = order.lock().unwrap();
    assert_eq!(order.len(), 90);
    let boundary_ok = order.windows(2).all(|w| w[0] <= w[1]);
    assert!(
        boundary_ok,
        "priority classes inverted in execution order: {order:?}"
    );
}

#[test]
fn stats_converge_when_jobs_panic_under_load() {
    const SUBMITTERS: usize = 4;
    const JOBS_PER_SUBMITTER: usize = 100;

    let ex = Arc::new(Executor::new(3));
    let succeeded = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..SUBMITTERS)
        .map(|s| {
            let ex = Arc::clone(&ex);
            let succeeded = Arc::clone(&succeeded);
            std::thread::spawn(move || {
                for j in 0..JOBS_PER_SUBMITTER {
                    let succeeded = Arc::clone(&succeeded);
                    if j % 10 == 3 {
                        ex.submit(PRIORITIES[(s + j) % 3], || panic!("storm"));
                    } else {
                        ex.submit(PRIORITIES[(s + j) % 3], move || {
                            succeeded.fetch_add(1, Ordering::SeqCst);
                        });
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    ex.wait_idle();
    let total = (SUBMITTERS * JOBS_PER_SUBMITTER) as u64;
    let panicked = (SUBMITTERS * JOBS_PER_SUBMITTER / 10) as u64;
    let stats = ex.stats();
    assert_eq!(stats.submitted, total);
    assert_eq!(stats.completed, total);
    assert_eq!(stats.failed, panicked);
    assert_eq!(succeeded.load(Ordering::SeqCst) as u64, total - panicked);
    assert_eq!(stats.succeeded(), total - panicked);
}

#[test]
fn retry_storm_converges_at_one_and_eight_workers() {
    // Every job fails a known number of attempts before succeeding; the
    // retry budget always covers it, so the storm must finish with no
    // give-ups and an exactly predictable `retried` counter — at any
    // worker count.
    const JOBS: u64 = 200;
    let policy = RetryPolicy::new(4, 0.0, 2.0);
    for workers in [1usize, 8] {
        let ex = Executor::new(workers);
        let handles: Vec<_> = (0..JOBS)
            .map(|i| {
                ex.submit_retryable(PRIORITIES[(i % 3) as usize], policy, move |attempt| {
                    // Job i needs `i % 4` failed attempts before succeeding
                    // (0..=3, always within the 4-attempt budget).
                    if u64::from(attempt) < i % 4 {
                        Err(format!("transient #{attempt}"))
                    } else {
                        Ok(i * i)
                    }
                })
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            let i = i as u64;
            assert_eq!(handle.join_task().unwrap(), i * i, "workers={workers}");
        }
        ex.wait_idle();
        let stats = ex.stats();
        let expected_retries: u64 = (0..JOBS).map(|i| i % 4).sum();
        assert_eq!(stats.submitted, JOBS, "workers={workers}");
        assert_eq!(stats.completed, JOBS, "workers={workers}");
        assert_eq!(
            stats.failed, 0,
            "retries are not panics (workers={workers})"
        );
        assert_eq!(stats.retried, expected_retries, "workers={workers}");
        assert_eq!(stats.gave_up, 0, "workers={workers}");
    }
}

#[test]
fn give_up_storm_with_panics_converges_and_never_hangs() {
    // A mixed flood: a third of the jobs exhaust their retry budget, a
    // tenth panic outright, the rest succeed first try. Counters must
    // converge exactly and the drain barrier must return promptly.
    const JOBS: u64 = 300;
    let policy = RetryPolicy::new(3, 0.0, 2.0);
    for workers in [1usize, 8] {
        let ex = Arc::new(Executor::new(workers));
        let mut doomed = Vec::new();
        let mut fine = Vec::new();
        for i in 0..JOBS {
            if i % 10 == 7 {
                ex.submit(PRIORITIES[(i % 3) as usize], || panic!("storm"));
            } else if i % 3 == 0 {
                doomed.push(ex.submit_retryable::<u64, _, _>(
                    PRIORITIES[(i % 3) as usize],
                    policy,
                    move |attempt| Err(format!("permanent #{attempt}")),
                ));
            } else {
                fine.push(ex.submit_retryable::<_, String, _>(
                    PRIORITIES[(i % 3) as usize],
                    policy,
                    move |_| Ok(i),
                ));
            }
        }
        assert!(
            ex.wait_for(Duration::from_secs(30)),
            "the flood must drain (workers={workers})"
        );
        let doomed_count = doomed.len() as u64;
        for handle in doomed {
            match handle.join_task() {
                Err(TaskFailure::GaveUp { attempts, .. }) => assert_eq!(attempts, 3),
                other => panic!("expected give-up, got {other:?} (workers={workers})"),
            }
        }
        for handle in fine {
            assert!(handle.join_task().is_ok(), "workers={workers}");
        }
        let panicked = (0..JOBS).filter(|i| i % 10 == 7).count() as u64;
        let stats = ex.stats();
        assert_eq!(stats.submitted, JOBS, "workers={workers}");
        assert_eq!(stats.completed, JOBS, "workers={workers}");
        assert_eq!(stats.failed, panicked, "workers={workers}");
        // Each doomed job burns attempts 0..3: two re-runs, one give-up.
        assert_eq!(stats.retried, doomed_count * 2, "workers={workers}");
        assert_eq!(stats.gave_up, doomed_count, "workers={workers}");
        assert_eq!(stats.pending(), 0, "workers={workers}");
    }
}

#[test]
fn handles_resolve_under_concurrent_load() {
    let ex = Arc::new(Executor::new(4));
    let handles: Vec<_> = (0..200u64)
        .map(|i| ex.submit_with_handle(PRIORITIES[(i % 3) as usize], move || i * i))
        .collect();
    for (i, handle) in handles.into_iter().enumerate() {
        assert_eq!(handle.join().unwrap(), (i * i) as u64);
    }
    ex.wait_idle();
    assert_eq!(ex.stats().failed, 0);
}

/// One storm of transient, permanent, single-attempt, panicking-retryable,
/// and plain panicking jobs; returns every handle's rendered result in
/// submission order plus the settled counters.
fn storm_on(ex: &Executor) -> (Vec<String>, [u64; 5]) {
    let policy = RetryPolicy::new(3, 0.0, 2.0);
    let mut results = Vec::new();
    let mut handles = Vec::new();
    for i in 0..120u64 {
        let priority = PRIORITIES[(i % 3) as usize];
        match i % 6 {
            0 => ex.submit(priority, || panic!("plain storm")),
            1 => handles.push(ex.submit_retryable(
                priority,
                RetryPolicy::none(),
                move |attempt| -> Result<u64, String> { Err(format!("once #{attempt}")) },
            )),
            2 => handles.push(ex.submit_retryable(priority, policy, move |attempt| {
                if attempt == 1 {
                    panic!("attempt {attempt} exploded");
                }
                Err(format!("before panic #{attempt}"))
            })),
            3 => handles.push(ex.submit_retryable(priority, policy, move |attempt| {
                Err(format!("permanent #{attempt}"))
            })),
            _ => handles.push(ex.submit_retryable(priority, policy, move |attempt| {
                if u64::from(attempt) < i % 3 {
                    Err(format!("transient #{attempt}"))
                } else {
                    Ok(i)
                }
            })),
        }
    }
    ex.wait_idle();
    for handle in handles {
        results.push(format!("{:?}", handle.join_task()));
    }
    let s = ex.stats();
    (
        results,
        [s.submitted, s.completed, s.failed, s.retried, s.gave_up],
    )
}

#[test]
fn inline_executor_matches_a_worker_pool_on_a_retry_and_panic_storm() {
    let inline = Executor::inline();
    assert_eq!(inline.workers(), 0);
    let (inline_results, inline_counters) = storm_on(&inline);
    let (pool_results, pool_counters) = storm_on(&Executor::new(4));
    assert_eq!(inline_results, pool_results);
    assert_eq!(inline_counters, pool_counters);
    // 20 plain panics plus 20 retryable jobs that panic on their retry;
    // re-runs: one per panicking job, two per permanent job, one or two per
    // transient job; single-attempt failures are `Failed`, not give-ups.
    assert_eq!(inline_counters, [120, 120, 40, 20 + 40 + 60, 20]);
}
