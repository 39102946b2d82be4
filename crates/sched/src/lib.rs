//! `ve-sched` — the Task Scheduler (Section 4).
//!
//! VOCALExplore decomposes each `Explore` call into tasks of five types —
//! feature extraction (`T_f`), model training (`T_m`), model inference
//! (`T_i`), feature evaluation (`T_e`), and sample selection (`T_s`) — plus
//! the low-priority eager feature-extraction tasks (`T_f⁻`) introduced by the
//! `VE-full` strategy. The scheduler's job is to minimize the *user-visible*
//! latency of each iteration, `T_visible = T_total − B·T_user`, without
//! letting the model the user sees become stale.
//!
//! The crate provides:
//!
//! * [`executor`] — a panic-safe worker pool that runs closures in
//!   [`Priority`] order (critical → normal → background, FIFO within a
//!   priority), or inline on the caller (the execution path behind
//!   `ve-core`'s session engine), with condvar-based idle waits, typed task
//!   handles, and the one retry loop (`RetryPolicy::run`),
//! * [`fault`] — the seeded, replayable fault injector the session engine's
//!   extraction, training and inference sites consult,
//! * [`parallel`] — deterministic data-parallel helpers for the hot loops,
//!   bit-identical at any thread count, and
//! * [`strategy`] — the Serial, `VE-partial`, and `VE-full` scheduling
//!   strategies and their per-iteration visible-latency accounting.

pub mod executor;
pub mod fault;
pub mod parallel;
pub mod strategy;

pub use executor::{
    queue_class, Executor, ExecutorStats, JobPanicked, Priority, RetryPolicy, TaskFailure,
    TaskHandle,
};
pub use fault::{FaultInjector, FaultPlan, FaultRule, FaultSite, InjectedFault};
pub use strategy::{iteration_latency, IterationCosts, IterationLatency, SchedulerStrategy};
