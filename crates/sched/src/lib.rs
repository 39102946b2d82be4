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
//! * [`task`] — task descriptors with priorities and simulated costs,
//! * [`queue`] — a priority queue (critical → normal → background, FIFO
//!   within a priority),
//! * [`executor`] — a panic-safe worker pool that runs closures in priority
//!   order, or inline on the caller (the execution path behind `ve-core`'s
//!   session engine), with condvar-based idle waits, typed task handles,
//!   and the one retry loop (`RetryPolicy::run`),
//! * [`simclock`] — a resource-limited simulated clock used by the latency
//!   experiments (the GPU costs themselves are simulated, Table 3),
//! * [`strategy`] — the Serial, `VE-partial`, and `VE-full` scheduling
//!   strategies and their per-iteration visible-latency accounting,
//! * [`jit`] — just-in-time model-training scheduling
//!   (`max(0, B − ⌈T_m / T_user⌉)` labels before training starts), and
//! * [`eager`] — the eager feature-extraction planner that fills idle
//!   labeling time with background `T_f⁻` tasks.

pub mod eager;
pub mod executor;
pub mod fault;
pub mod jit;
pub mod parallel;
pub mod queue;
pub mod simclock;
pub mod strategy;
pub mod task;

pub use eager::{EagerExtractionPlan, EagerPlanner};
pub use executor::{
    queue_class, Executor, ExecutorStats, JobPanicked, RetryPolicy, TaskFailure, TaskHandle,
};
pub use fault::{FaultInjector, FaultPlan, FaultRule, FaultSite, InjectedFault};
pub use jit::{JitTrainingPolicy, TrainingSchedule};
pub use queue::PriorityTaskQueue;
pub use simclock::{SimClock, SimTaskOutcome};
pub use strategy::{iteration_latency, IterationCosts, IterationLatency, SchedulerStrategy};
pub use task::{Priority, Task, TaskId, TaskKind};
