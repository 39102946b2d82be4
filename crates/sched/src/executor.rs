//! A small priority-aware worker pool for running real (in-process) tasks.
//!
//! The paper's prototype runs feature extraction, training, and evaluation on
//! a limited pool of compute resources ("only a subset of submitted tasks can
//! execute at once"). This executor reproduces that constraint with a fixed
//! number of worker threads pulling closures from a shared priority queue:
//! critical work always runs before normal work, which runs before
//! background (eager) work.
//!
//! The executor is what the session engine in `ve-core` submits every task
//! to: inference, evaluation, training, and eager extraction. A pool built
//! with [`Executor::new`] runs them on worker threads, so visible latency is
//! measured from their actual completion times; [`Executor::inline`] runs
//! each job on the submitting thread through the same wrapper, for the
//! fast modeled-latency runs and the synchronous facade.
//!
//! # Counter semantics
//!
//! All counters live under the same mutex as the job queues, so observers
//! never see a torn state:
//!
//! * `submitted` is incremented **before** the job is pushed (in the same
//!   critical section), so `submitted >= completed` always holds and a job is
//!   never runnable without having been counted.
//! * `completed` counts every job that finished running, **including jobs
//!   that panicked**; `failed` counts the panicked subset. A panicking job
//!   therefore never wedges [`Executor::wait_idle`].
//! * Workers mark themselves in-flight while holding the lock as they pop,
//!   so "queues empty" and "nothing running" are checked atomically.

use crate::task::Priority;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use ve_obs::timing::{QueueClass, TaskLabel, TaskTiming, TimingPlane};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A queued closure plus the metadata the timing plane needs to attribute
/// it: the deterministic span id (submission counter), the submitter's
/// label, and when it entered the queue.
struct QueuedJob {
    job: Job,
    span: u64,
    label: TaskLabel,
    class: QueueClass,
    submit_us: u64,
}

/// The executor's `Priority` rendered into `ve-obs`'s scheduler-agnostic
/// queue classes (`ve-obs` sits below `ve-sched` in the dependency graph).
pub fn queue_class(priority: Priority) -> QueueClass {
    match priority {
        Priority::Critical => QueueClass::Critical,
        Priority::Normal => QueueClass::Normal,
        Priority::Background => QueueClass::Background,
    }
}

#[derive(Default)]
struct State {
    critical: VecDeque<QueuedJob>,
    normal: VecDeque<QueuedJob>,
    background: VecDeque<QueuedJob>,
    shutdown: bool,
    submitted: u64,
    completed: u64,
    failed: u64,
    retried: u64,
    gave_up: u64,
    in_flight: usize,
    /// Cumulative wall microseconds jobs spent queued before a worker picked
    /// them up (timing plane; never consulted by logic).
    queue_wait_us: u64,
    /// Per-priority queue-depth high-water marks (critical/normal/background).
    depth_hwm: [u64; 3],
}

impl State {
    fn push(&mut self, priority: Priority, job: QueuedJob) {
        let depth = match priority {
            Priority::Critical => {
                self.critical.push_back(job);
                self.critical.len()
            }
            Priority::Normal => {
                self.normal.push_back(job);
                self.normal.len()
            }
            Priority::Background => {
                self.background.push_back(job);
                self.background.len()
            }
        } as u64;
        let slot = &mut self.depth_hwm[queue_class(priority).index()];
        if *slot < depth {
            *slot = depth;
        }
    }

    fn pop(&mut self) -> Option<QueuedJob> {
        self.critical
            .pop_front()
            .or_else(|| self.normal.pop_front())
            .or_else(|| self.background.pop_front())
    }

    fn queued(&self) -> usize {
        self.critical.len() + self.normal.len() + self.background.len()
    }

    /// Nothing queued and nothing running: every submitted job has completed.
    fn is_drained(&self) -> bool {
        self.queued() == 0 && self.in_flight == 0
    }
}

struct Inner {
    state: Mutex<State>,
    /// Workers wait here for new jobs (or shutdown).
    available: Condvar,
    /// `wait_idle`/`wait_for` callers wait here; notified whenever a worker
    /// finishes the last outstanding job.
    drained: Condvar,
    /// Wall-clock timing plane: per-task submit/start/end records joined to
    /// the deterministic event plane by span id.
    plane: TimingPlane,
}

/// Counters describing executor activity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutorStats {
    /// Jobs submitted since creation.
    pub submitted: u64,
    /// Jobs that have finished running (including panicked jobs).
    pub completed: u64,
    /// Jobs that panicked while running (a subset of `completed`).
    pub failed: u64,
    /// Failed attempts that were retried inside retryable jobs (see
    /// [`Executor::submit_retryable`]); one increment per re-run attempt.
    pub retried: u64,
    /// Retryable jobs that exhausted their [`RetryPolicy`] budget.
    pub gave_up: u64,
    /// Cumulative wall microseconds jobs spent queued before starting.
    /// Timing-plane data: varies run to run and must never feed logic or
    /// determinism assertions.
    pub queue_wait_us: u64,
    /// Queue-depth high-water marks per priority
    /// (critical/normal/background). Deterministic only under a single
    /// worker; treat as timing-plane data.
    pub depth_hwm: [u64; 3],
}

impl ExecutorStats {
    /// Jobs submitted but not yet finished.
    pub fn pending(&self) -> u64 {
        self.submitted - self.completed
    }

    /// Jobs that finished without panicking.
    pub fn succeeded(&self) -> u64 {
        self.completed - self.failed
    }

    /// The counters as `(name, value)` pairs in stable name order — the
    /// export hook diagnostic bundles and bench artifacts serialize from,
    /// so every consumer names the counters identically.
    pub fn export_kv(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("completed", self.completed),
            ("depth_hwm_background", self.depth_hwm[2]),
            ("depth_hwm_critical", self.depth_hwm[0]),
            ("depth_hwm_normal", self.depth_hwm[1]),
            ("failed", self.failed),
            ("gave_up", self.gave_up),
            ("queue_wait_us", self.queue_wait_us),
            ("retried", self.retried),
            ("submitted", self.submitted),
        ]
    }
}

/// Error returned by [`TaskHandle::join`] when the job panicked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanicked {
    /// The panic payload rendered as a string (when it was a `&str`/`String`).
    pub message: String,
}

impl std::fmt::Display for JobPanicked {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "executor job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanicked {}

struct HandleShared<T> {
    result: Mutex<Option<Result<T, JobPanicked>>>,
    done: Condvar,
}

/// Handle to a job submitted with [`Executor::submit_with_handle`]; resolves
/// to the closure's return value (or the panic that killed it).
pub struct TaskHandle<T> {
    shared: Arc<HandleShared<T>>,
}

impl<T> TaskHandle<T> {
    /// Blocks until the job has run and returns its result. A panicking job
    /// yields `Err(JobPanicked)` instead of wedging the caller.
    pub fn join(self) -> Result<T, JobPanicked> {
        let mut slot = self.shared.result.lock();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            self.shared.done.wait(&mut slot);
        }
    }

    /// Non-blocking variant of [`TaskHandle::join`]: returns `None` while the
    /// job has not finished yet.
    pub fn try_join(&self) -> Option<Result<T, JobPanicked>> {
        self.shared.result.lock().take()
    }

    /// Whether the job has finished (its result may already have been taken).
    pub fn is_finished(&self) -> bool {
        self.shared.result.lock().is_some()
    }
}

/// Retry behavior for a fallible job: how many attempts it gets and how long
/// (in *virtual* seconds, converted to wall time via `time_scale`) the worker
/// backs off between them. The backoff schedule is a pure function of the
/// attempt index, so retries replay deterministically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts a job gets (minimum 1).
    pub max_attempts: u32,
    /// Virtual seconds to wait before the first retry.
    pub backoff_base_secs: f64,
    /// Multiplier applied to the backoff for each further retry.
    pub backoff_factor: f64,
    /// Wall seconds per virtual second of backoff; `0.0` disables sleeping
    /// (decisions are unaffected — backoff only shapes measured latency).
    pub time_scale: f64,
}

impl RetryPolicy {
    /// A single attempt, no retries, no backoff.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            backoff_base_secs: 0.0,
            backoff_factor: 1.0,
            time_scale: 0.0,
        }
    }

    /// `max_attempts` attempts with exponential virtual-time backoff.
    pub fn new(max_attempts: u32, backoff_base_secs: f64, backoff_factor: f64) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            backoff_base_secs,
            backoff_factor,
            time_scale: 0.0,
        }
    }

    /// Sets the virtual→wall conversion used when a worker actually sleeps.
    pub fn with_time_scale(mut self, time_scale: f64) -> Self {
        self.time_scale = time_scale;
        self
    }

    /// Virtual seconds of backoff before retry number `retry` (1-based).
    pub fn backoff_secs(&self, retry: u32) -> f64 {
        if retry == 0 {
            return 0.0;
        }
        self.backoff_base_secs * self.backoff_factor.powi(retry as i32 - 1)
    }

    /// The retry loop: calls `attempt` with the 0-based attempt index until
    /// it succeeds or `max_attempts` (at least 1) attempts have failed,
    /// sleeping the scaled backoff between attempts. Returns the number of
    /// attempts consumed together with the last attempt's result.
    pub fn run<T, E>(&self, mut attempt: impl FnMut(u32) -> Result<T, E>) -> (u32, Result<T, E>) {
        let max = self.max_attempts.max(1);
        let mut consumed = 0;
        loop {
            let result = attempt(consumed);
            consumed += 1;
            if result.is_ok() || consumed >= max {
                return (consumed, result);
            }
            let wall = self.backoff_secs(consumed) * self.time_scale;
            if wall > 0.0 {
                std::thread::sleep(Duration::from_secs_f64(wall));
            }
        }
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// Why a retryable job (see [`Executor::submit_retryable`]) did not produce a
/// value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskFailure<E> {
    /// The job panicked; panics are bugs, not transient faults, so they are
    /// never retried.
    Panicked(JobPanicked),
    /// The job failed on its only allowed attempt (`max_attempts == 1`).
    Failed(E),
    /// The job failed on every attempt and exhausted its retry budget.
    GaveUp {
        /// Attempts consumed (equals the policy's `max_attempts`).
        attempts: u32,
        /// The error from the final attempt.
        error: E,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for TaskFailure<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskFailure::Panicked(p) => write!(f, "{p}"),
            TaskFailure::Failed(e) => write!(f, "task failed: {e}"),
            TaskFailure::GaveUp { attempts, error } => {
                write!(f, "task gave up after {attempts} attempts: {error}")
            }
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for TaskFailure<E> {}

impl<T, E> TaskHandle<Result<T, TaskFailure<E>>> {
    /// Joins a retryable task: panics, typed failures, and give-ups all
    /// arrive as [`TaskFailure`] instead of a bare [`JobPanicked`].
    pub fn join_task(self) -> Result<T, TaskFailure<E>> {
        match self.join() {
            Ok(inner) => inner,
            Err(panicked) => Err(TaskFailure::Panicked(panicked)),
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Priority-aware thread-pool executor.
pub struct Executor {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
}

impl Executor {
    /// Starts an executor with `workers` threads.
    ///
    /// # Panics
    /// Panics if `workers == 0`.
    pub fn new(workers: usize) -> Self {
        assert!(workers > 0, "need at least one worker");
        let mut executor = Self::inline();
        for i in 0..workers {
            let inner = Arc::clone(&executor.inner);
            executor.workers.push(
                std::thread::Builder::new()
                    .name(format!("ve-sched-worker-{i}"))
                    .spawn(move || worker_loop(inner, i))
                    .expect("spawn worker"),
            );
        }
        executor
    }

    /// An executor with no threads: every submitted job runs to completion
    /// on the submitting thread before `submit` returns, through the same
    /// wrapper the pool's workers use (panic capture, counters, timing
    /// span), so handles, counters, and retries behave exactly as on a pool.
    pub fn inline() -> Self {
        Self {
            inner: Arc::new(Inner {
                state: Mutex::new(State::default()),
                available: Condvar::new(),
                drained: Condvar::new(),
                plane: TimingPlane::new(),
            }),
            workers: Vec::new(),
        }
    }

    /// Number of worker threads (0 for [`Executor::inline`]).
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The executor's wall-clock timing plane. Session runners drain task
    /// timings from here and benchmarks join them to the event plane by
    /// span id.
    pub fn timing(&self) -> &TimingPlane {
        &self.inner.plane
    }

    /// Enables or disables timing-plane capture (counters in
    /// [`ExecutorStats`] are always maintained; they are a handful of adds
    /// under a lock already held).
    pub fn set_timing_enabled(&self, on: bool) {
        self.inner.plane.set_enabled(on);
    }

    /// Submits a closure at the given priority. Panics inside the job are
    /// caught by the worker and surfaced in [`ExecutorStats::failed`].
    pub fn submit<F>(&self, priority: Priority, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.submit_labeled(priority, TaskLabel::unlabeled(), job)
    }

    /// [`Executor::submit`] with a timing-plane label attributing the task
    /// to a session phase and iteration.
    pub fn submit_labeled<F>(&self, priority: Priority, label: TaskLabel, job: F)
    where
        F: FnOnce() + Send + 'static,
    {
        let submit_us = self.inner.plane.now_us();
        let mut state = self.inner.state.lock();
        // `submitted` is bumped before the push, inside the same critical
        // section — see the module docs on counter semantics.
        state.submitted += 1;
        let queued = QueuedJob {
            job: Box::new(job),
            span: state.submitted,
            label,
            class: queue_class(priority),
            submit_us,
        };
        if self.workers.is_empty() {
            // Inline: the caller is the worker, and runs the job outside
            // the lock.
            state.in_flight += 1;
            drop(state);
            run_job(&self.inner, queued, 0);
            return;
        }
        state.push(priority, queued);
        drop(state);
        self.inner.available.notify_one();
    }

    /// Submits a closure and returns a [`TaskHandle`] that resolves to its
    /// return value. A panic inside the job is stored in the handle **and**
    /// re-raised to the worker so it is counted in [`ExecutorStats::failed`].
    pub fn submit_with_handle<T, F>(&self, priority: Priority, job: F) -> TaskHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_with_handle_labeled(priority, TaskLabel::unlabeled(), job)
    }

    /// [`Executor::submit_with_handle`] with a timing-plane label.
    pub fn submit_with_handle_labeled<T, F>(
        &self,
        priority: Priority,
        label: TaskLabel,
        job: F,
    ) -> TaskHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let shared = Arc::new(HandleShared {
            result: Mutex::new(None),
            done: Condvar::new(),
        });
        let slot = Arc::clone(&shared);
        self.submit_labeled(priority, label, move || {
            let result = catch_unwind(AssertUnwindSafe(job)).map_err(|payload| JobPanicked {
                message: panic_message(payload.as_ref()),
            });
            let panicked = result.as_ref().err().map(|p| p.message.clone());
            *slot.result.lock() = Some(result);
            slot.done.notify_all();
            if let Some(message) = panicked {
                // Re-raise so the worker loop counts this job as failed; the
                // handle already holds the error, so nothing is lost.
                std::panic::resume_unwind(Box::new(message));
            }
        });
        TaskHandle { shared }
    }

    /// Submits a fallible job that is retried in place under `policy`: the
    /// closure receives the 0-based attempt index, failed attempts back off
    /// for a deterministic virtual-time delay (scaled by the policy's
    /// `time_scale`), and the handle resolves to the first success or a
    /// [`TaskFailure`] describing why the job gave up.
    ///
    /// All attempts run inside **one** executor job, so `submitted`/
    /// `completed` count the operation once and [`Executor::wait_idle`]
    /// converges exactly as for plain jobs; `retried` counts every re-run
    /// attempt and `gave_up` counts exhausted budgets. A panicking attempt is
    /// never retried — panics are bugs, not transient faults — and is both
    /// stored in the handle and re-raised so the worker counts it in
    /// [`ExecutorStats::failed`].
    pub fn submit_retryable<T, E, F>(
        &self,
        priority: Priority,
        policy: RetryPolicy,
        job: F,
    ) -> TaskHandle<Result<T, TaskFailure<E>>>
    where
        T: Send + 'static,
        E: Send + 'static,
        F: FnMut(u32) -> Result<T, E> + Send + 'static,
    {
        self.submit_retryable_labeled(priority, TaskLabel::unlabeled(), policy, job)
    }

    /// [`Executor::submit_retryable`] with a timing-plane label; the whole
    /// retry sequence is one span.
    pub fn submit_retryable_labeled<T, E, F>(
        &self,
        priority: Priority,
        label: TaskLabel,
        policy: RetryPolicy,
        mut job: F,
    ) -> TaskHandle<Result<T, TaskFailure<E>>>
    where
        T: Send + 'static,
        E: Send + 'static,
        F: FnMut(u32) -> Result<T, E> + Send + 'static,
    {
        let inner = Arc::clone(&self.inner);
        // The handle wrapper catches a panicking attempt (never retried),
        // stores it, and re-raises it so the worker counts the job failed.
        self.submit_with_handle_labeled(priority, label, move || {
            let (attempts, result) = policy.run(|attempt| {
                if attempt > 0 {
                    inner.state.lock().retried += 1;
                }
                job(attempt)
            });
            result.map_err(|error| {
                if policy.max_attempts <= 1 {
                    TaskFailure::Failed(error)
                } else {
                    inner.state.lock().gave_up += 1;
                    TaskFailure::GaveUp { attempts, error }
                }
            })
        })
    }

    /// Blocks until every submitted job has completed (including jobs that
    /// panic — see [`ExecutorStats::failed`]).
    pub fn wait_idle(&self) {
        let mut state = self.inner.state.lock();
        while !state.is_drained() {
            self.inner.drained.wait(&mut state);
        }
    }

    /// Like [`Executor::wait_idle`], but gives up after `timeout`. Returns
    /// `true` when the executor drained, `false` on timeout.
    pub fn wait_for(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.state.lock();
        while !state.is_drained() {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            self.inner.drained.wait_for(&mut state, deadline - now);
        }
        true
    }

    /// Current counters (read atomically under the queue lock).
    pub fn stats(&self) -> ExecutorStats {
        let state = self.inner.state.lock();
        ExecutorStats {
            submitted: state.submitted,
            completed: state.completed,
            failed: state.failed,
            retried: state.retried,
            gave_up: state.gave_up,
            queue_wait_us: state.queue_wait_us,
            depth_hwm: state.depth_hwm,
        }
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.inner.state.lock().shutdown = true;
        self.inner.available.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: Arc<Inner>, worker: usize) {
    loop {
        let queued = {
            let mut state = inner.state.lock();
            loop {
                if let Some(queued) = state.pop() {
                    // Marked in-flight under the same lock as the pop, so
                    // `is_drained` can never miss a running job.
                    state.in_flight += 1;
                    break Some(queued);
                }
                if state.shutdown {
                    break None;
                }
                inner.available.wait(&mut state);
            }
        };
        let Some(queued) = queued else { return };
        run_job(&inner, queued, worker);
    }
}

/// Runs one in-flight job with no executor lock held: catches its panic,
/// settles the counters, and records its timing span. Shared by the pool's
/// workers and the inline executor.
fn run_job(inner: &Inner, queued: QueuedJob, worker: usize) {
    let start_us = inner.plane.now_us();
    let outcome = catch_unwind(AssertUnwindSafe(queued.job));
    let end_us = inner.plane.now_us();
    {
        let mut state = inner.state.lock();
        state.in_flight -= 1;
        state.completed += 1;
        state.queue_wait_us += start_us.saturating_sub(queued.submit_us);
        if outcome.is_err() {
            state.failed += 1;
        }
        if state.is_drained() {
            inner.drained.notify_all();
        }
    }
    // Recorded after the queue lock is released: the timing plane has its
    // own lock and the two must never nest.
    inner.plane.record_task(TaskTiming {
        span: queued.span,
        label: queued.label,
        class: queued.class,
        worker,
        submit_us: queued.submit_us,
        start_us,
        end_us,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Mutex as StdMutex;

    #[test]
    fn runs_all_submitted_jobs() {
        let ex = Executor::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            ex.submit(Priority::Normal, move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        ex.wait_idle();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        let stats = ex.stats();
        assert_eq!(stats.submitted, 100);
        assert_eq!(stats.completed, 100);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.pending(), 0);
        assert_eq!(stats.succeeded(), 100);
    }

    #[test]
    fn critical_jobs_run_before_background_jobs() {
        // Single worker so execution order equals queue order.
        let ex = Executor::new(1);
        let order = Arc::new(StdMutex::new(Vec::new()));
        // Block the worker briefly so all submissions are queued before any
        // execution starts.
        let gate = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            ex.submit(Priority::Critical, move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        }
        for i in 0..3 {
            let order = Arc::clone(&order);
            ex.submit(Priority::Background, move || {
                order.lock().unwrap().push(format!("bg-{i}"));
            });
        }
        for i in 0..3 {
            let order = Arc::clone(&order);
            ex.submit(Priority::Critical, move || {
                order.lock().unwrap().push(format!("crit-{i}"));
            });
        }
        gate.store(true, Ordering::SeqCst);
        ex.wait_idle();
        let order = order.lock().unwrap().clone();
        assert_eq!(
            order,
            vec!["crit-0", "crit-1", "crit-2", "bg-0", "bg-1", "bg-2"],
            "critical work must preempt queued background work"
        );
    }

    #[test]
    fn drop_joins_workers_cleanly() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let ex = Executor::new(2);
            for _ in 0..10 {
                let c = Arc::clone(&counter);
                ex.submit(Priority::Normal, move || {
                    c.fetch_add(1, Ordering::SeqCst);
                });
            }
            ex.wait_idle();
        } // drop here
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn rejects_zero_workers() {
        Executor::new(0);
    }

    #[test]
    fn panicking_job_does_not_deadlock_wait_idle() {
        // Regression: the seed executor's worker died with its job, never
        // bumping `completed`, so `wait_idle` spun forever.
        let ex = Executor::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        ex.submit(Priority::Normal, || panic!("job exploded"));
        for _ in 0..5 {
            let ran = Arc::clone(&ran);
            ex.submit(Priority::Normal, move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        ex.wait_idle(); // must return, not hang
        assert_eq!(ran.load(Ordering::SeqCst), 5);
        let stats = ex.stats();
        assert_eq!(stats.submitted, 6);
        assert_eq!(stats.completed, 6, "panicked jobs still count as completed");
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.succeeded(), 5);
    }

    #[test]
    fn worker_survives_a_panic_and_keeps_serving() {
        // Single worker: if the panic killed the thread, the follow-up job
        // could never run.
        let ex = Executor::new(1);
        let ran = Arc::new(AtomicBool::new(false));
        ex.submit(Priority::Normal, || panic!("first job dies"));
        {
            let ran = Arc::clone(&ran);
            ex.submit(Priority::Normal, move || ran.store(true, Ordering::SeqCst));
        }
        ex.wait_idle();
        assert!(ran.load(Ordering::SeqCst));
        assert_eq!(ex.stats().failed, 1);
    }

    #[test]
    fn submitted_is_visible_before_the_job_runs() {
        // `submit` bumps `submitted` before pushing, under the queue lock.
        let ex = Executor::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            ex.submit(Priority::Normal, move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        }
        ex.submit(Priority::Normal, || {});
        let stats = ex.stats();
        assert_eq!(stats.submitted, 2);
        assert!(stats.completed <= 1);
        assert_eq!(stats.pending(), stats.submitted - stats.completed);
        gate.store(true, Ordering::SeqCst);
        ex.wait_idle();
        assert_eq!(ex.stats().pending(), 0);
    }

    #[test]
    fn wait_for_times_out_then_succeeds() {
        let ex = Executor::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            ex.submit(Priority::Normal, move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        }
        assert!(
            !ex.wait_for(Duration::from_millis(20)),
            "gated job cannot drain within the timeout"
        );
        gate.store(true, Ordering::SeqCst);
        assert!(ex.wait_for(Duration::from_secs(10)));
        assert_eq!(ex.stats().completed, 1);
    }

    #[test]
    fn wait_idle_with_no_work_returns_immediately() {
        let ex = Executor::new(2);
        ex.wait_idle();
        assert!(ex.wait_for(Duration::from_millis(1)));
        assert_eq!(
            ex.stats(),
            ExecutorStats {
                submitted: 0,
                completed: 0,
                failed: 0,
                retried: 0,
                gave_up: 0,
                queue_wait_us: 0,
                depth_hwm: [0, 0, 0],
            }
        );
    }

    #[test]
    fn depth_high_water_marks_track_per_priority_queues() {
        // Single worker blocked on a gate: everything queued after the gate
        // job piles up and the high-water marks see the full depth.
        let ex = Executor::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        {
            let gate = Arc::clone(&gate);
            ex.submit(Priority::Critical, move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
            });
        }
        for _ in 0..3 {
            ex.submit(Priority::Normal, || {});
        }
        for _ in 0..2 {
            ex.submit(Priority::Background, || {});
        }
        gate.store(true, Ordering::SeqCst);
        ex.wait_idle();
        let stats = ex.stats();
        // The gate job may or may not have been popped before the others
        // were pushed, so critical saw depth 0 or 1; the blocked queues saw
        // their full depth.
        assert!(stats.depth_hwm[0] <= 1);
        assert_eq!(stats.depth_hwm[1], 3, "{:?}", stats.depth_hwm);
        assert_eq!(stats.depth_hwm[2], 2, "{:?}", stats.depth_hwm);
    }

    #[test]
    fn timing_plane_records_labeled_spans_with_queue_wait() {
        let ex = Executor::new(2);
        let h1 =
            ex.submit_with_handle_labeled(Priority::Normal, TaskLabel::new("train", 3), || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        let h2 =
            ex.submit_with_handle_labeled(Priority::Critical, TaskLabel::new("infer", 3), || {});
        h1.join().unwrap();
        h2.join().unwrap();
        ex.wait_idle();
        let tasks = ex.timing().tasks();
        assert_eq!(tasks.len(), 2);
        let train = tasks.iter().find(|t| t.label.kind == "train").unwrap();
        assert_eq!(train.label.iteration, 3);
        assert_eq!(train.class, QueueClass::Normal);
        assert!(train.end_us >= train.start_us + 1_000, "{train:?}");
        assert!(train.start_us >= train.submit_us);
        // Span ids are the submission counter: unique and deterministic.
        let mut spans: Vec<u64> = tasks.iter().map(|t| t.span).collect();
        spans.sort_unstable();
        assert_eq!(spans, vec![1, 2]);
        // Cumulative queue wait is the sum over recorded tasks.
        let sum: u64 = tasks.iter().map(|t| t.queue_wait_us()).sum();
        assert_eq!(ex.stats().queue_wait_us, sum);
    }

    #[test]
    fn disabled_timing_plane_keeps_counters_but_drops_spans() {
        let ex = Executor::new(1);
        ex.set_timing_enabled(false);
        ex.submit(Priority::Normal, || {});
        ex.wait_idle();
        assert!(ex.timing().tasks().is_empty());
        assert_eq!(ex.stats().completed, 1);
        assert_eq!(ex.stats().depth_hwm[1], 1);
    }

    #[test]
    fn handle_returns_the_job_result() {
        let ex = Executor::new(2);
        let handle = ex.submit_with_handle(Priority::Critical, || 6 * 7);
        assert_eq!(handle.join().unwrap(), 42);
        ex.wait_idle();
        assert_eq!(ex.stats().failed, 0);
    }

    #[test]
    fn handle_surfaces_a_panic_as_error_and_counts_it_failed() {
        let ex = Executor::new(2);
        let handle = ex.submit_with_handle(Priority::Normal, || -> usize {
            panic!("typed job exploded");
        });
        let err = handle.join().unwrap_err();
        assert!(err.message.contains("typed job exploded"), "{err}");
        ex.wait_idle();
        let stats = ex.stats();
        assert_eq!(
            stats.failed, 1,
            "handle jobs re-raise so workers count them"
        );
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn try_join_reports_progress() {
        let ex = Executor::new(1);
        let gate = Arc::new(AtomicBool::new(false));
        let handle = {
            let gate = Arc::clone(&gate);
            ex.submit_with_handle(Priority::Normal, move || {
                while !gate.load(Ordering::SeqCst) {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                "done"
            })
        };
        assert!(!handle.is_finished());
        assert!(handle.try_join().is_none());
        gate.store(true, Ordering::SeqCst);
        ex.wait_idle();
        assert!(handle.is_finished());
        assert_eq!(handle.try_join().unwrap().unwrap(), "done");
    }

    #[test]
    fn workers_accessor() {
        assert_eq!(Executor::new(3).workers(), 3);
    }

    #[test]
    fn retryable_job_succeeds_after_transient_failures() {
        let ex = Executor::new(2);
        let handle =
            ex.submit_retryable(Priority::Normal, RetryPolicy::new(4, 0.0, 1.0), |attempt| {
                if attempt < 2 {
                    Err("flaky")
                } else {
                    Ok(attempt)
                }
            });
        assert_eq!(handle.join_task().unwrap(), 2);
        ex.wait_idle();
        let stats = ex.stats();
        assert_eq!(stats.submitted, 1, "all attempts run inside one job");
        assert_eq!(stats.completed, 1);
        assert_eq!(stats.failed, 0);
        assert_eq!(stats.retried, 2);
        assert_eq!(stats.gave_up, 0);
    }

    #[test]
    fn retryable_job_gives_up_when_budget_is_exhausted() {
        let ex = Executor::new(1);
        let handle = ex.submit_retryable(
            Priority::Normal,
            RetryPolicy::new(3, 0.0, 1.0),
            |_attempt| -> Result<(), &'static str> { Err("always broken") },
        );
        match handle.join_task() {
            Err(TaskFailure::GaveUp { attempts, error }) => {
                assert_eq!(attempts, 3);
                assert_eq!(error, "always broken");
            }
            other => panic!("expected GaveUp, got {other:?}"),
        }
        ex.wait_idle();
        let stats = ex.stats();
        assert_eq!(stats.retried, 2, "two re-run attempts before giving up");
        assert_eq!(stats.gave_up, 1);
        assert_eq!(stats.failed, 0, "typed failure is not a panic");
    }

    #[test]
    fn single_attempt_policy_reports_failed_not_gave_up() {
        let ex = Executor::new(1);
        let handle = ex.submit_retryable(
            Priority::Normal,
            RetryPolicy::none(),
            |_| -> Result<(), &'static str> { Err("no retries allowed") },
        );
        assert!(matches!(
            handle.join_task(),
            Err(TaskFailure::Failed("no retries allowed"))
        ));
        ex.wait_idle();
        let stats = ex.stats();
        assert_eq!(stats.retried, 0);
        assert_eq!(stats.gave_up, 0);
    }

    #[test]
    fn retryable_job_panic_is_not_retried_and_counts_failed() {
        let ex = Executor::new(2);
        let attempts = Arc::new(AtomicUsize::new(0));
        let handle = {
            let attempts = Arc::clone(&attempts);
            ex.submit_retryable(
                Priority::Normal,
                RetryPolicy::new(5, 0.0, 1.0),
                move |_| -> Result<(), &'static str> {
                    attempts.fetch_add(1, Ordering::SeqCst);
                    panic!("attempt exploded");
                },
            )
        };
        match handle.join_task() {
            Err(TaskFailure::Panicked(p)) => assert!(p.message.contains("attempt exploded")),
            other => panic!("expected Panicked, got {other:?}"),
        }
        ex.wait_idle();
        assert_eq!(attempts.load(Ordering::SeqCst), 1, "panics are not retried");
        let stats = ex.stats();
        assert_eq!(stats.failed, 1);
        assert_eq!(stats.retried, 0);
        assert_eq!(stats.gave_up, 0);
    }

    #[test]
    fn backoff_schedule_is_a_pure_function_of_the_attempt() {
        let policy = RetryPolicy::new(4, 0.5, 2.0);
        assert_eq!(policy.backoff_secs(0), 0.0);
        assert_eq!(policy.backoff_secs(1), 0.5);
        assert_eq!(policy.backoff_secs(2), 1.0);
        assert_eq!(policy.backoff_secs(3), 2.0);
        assert_eq!(RetryPolicy::none().backoff_secs(1), 0.0);
    }

    #[test]
    fn retry_run_reports_attempts_and_the_last_result() {
        let policy = RetryPolicy::new(4, 0.0, 2.0);
        // Success at attempt k reports k + 1 attempts.
        for k in 0..4u32 {
            let (attempts, result) = policy.run(|attempt| {
                if attempt < k {
                    Err(attempt)
                } else {
                    Ok(attempt)
                }
            });
            assert_eq!((attempts, result), (k + 1, Ok(k)));
        }
        // Exhaustion reports `max_attempts` and the last error.
        let mut seen = Vec::new();
        let (attempts, result) = policy.run(|attempt| -> Result<(), u32> {
            seen.push(attempt);
            Err(attempt * 10)
        });
        assert_eq!((attempts, result), (4, Err(30)));
        assert_eq!(seen, vec![0, 1, 2, 3]);
        // Between attempts it sleeps `backoff_secs(retry) * time_scale`:
        // 0.01 s + 0.02 s before the second and third attempts.
        let start = Instant::now();
        let (attempts, _) = RetryPolicy::new(3, 0.01, 2.0)
            .with_time_scale(1.0)
            .run(|_| -> Result<(), ()> { Err(()) });
        assert_eq!(attempts, 3);
        assert!(start.elapsed() >= Duration::from_millis(30));
    }

    #[test]
    fn retry_run_with_zero_max_attempts_behaves_as_one() {
        let policy = RetryPolicy {
            max_attempts: 0,
            ..RetryPolicy::none()
        };
        let mut calls = 0;
        let (attempts, result) = policy.run(|_| -> Result<(), ()> {
            calls += 1;
            Err(())
        });
        assert_eq!((attempts, result, calls), (1, Err(()), 1));
    }

    #[test]
    fn inline_executor_runs_jobs_on_the_caller_and_counts_them() {
        let ex = Executor::inline();
        let caller = std::thread::current().id();
        let handle = ex.submit_with_handle_labeled(
            Priority::Background,
            TaskLabel::new("eager", 2),
            move || std::thread::current().id() == caller,
        );
        assert!(handle.is_finished(), "the job ran before submit returned");
        assert!(handle.join().unwrap());
        ex.submit(Priority::Normal, || panic!("inline job exploded"));
        ex.wait_idle();
        let stats = ex.stats();
        assert_eq!((stats.submitted, stats.completed, stats.failed), (2, 2, 1));
        assert_eq!(stats.depth_hwm, [0, 0, 0], "nothing is ever queued");
        let tasks = ex.timing().tasks();
        assert_eq!(tasks.len(), 2);
        assert_eq!((tasks[0].span, tasks[0].label.kind), (1, "eager"));
    }

    #[test]
    fn stats_export_is_name_sorted_and_renders_json() {
        let stats = ExecutorStats {
            submitted: 9,
            completed: 8,
            failed: 1,
            retried: 2,
            gave_up: 1,
            queue_wait_us: 1234,
            depth_hwm: [3, 2, 1],
        };
        let kv = stats.export_kv();
        let names: Vec<&str> = kv.iter().map(|(k, _)| *k).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "export order must be stable name order");
        use ve_obs::json::Json;
        let json = Json::obj(kv.into_iter().map(|(k, v)| (k, Json::u64(v)))).render();
        assert!(json.contains("\"submitted\": 9"), "{json}");
        assert!(json.contains("\"depth_hwm_critical\": 3"), "{json}");
    }
}
