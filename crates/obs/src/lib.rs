//! `ve-obs` — two-plane observability.
//!
//! The repository's central invariant is determinism: every selection and
//! label sequence must be bit-identical at any `executor_workers ×
//! compute_threads` setting. Observability must not be the thing that breaks
//! that, so this crate splits instrumentation into two planes with opposite
//! contracts:
//!
//! * the **event plane** ([`event`]) — structured events whose *content and
//!   order* are a pure function of the session's inputs. No wall-clock
//!   reads, no thread ids, no allocation addresses. Because per-iteration
//!   event multisets are parallelism-invariant, the canonicalized ledger of
//!   a session run inline and one run on a worker pool can be asserted
//!   *equal*.
//! * the **timing plane** ([`timing`]) — wall-clock enrichment (queue wait,
//!   run duration, worker id) captured at task boundaries inside `ve-sched`
//!   and joined to events by span id. This is the only module in the crate
//!   allowed to read the clock (`ve-lint` enforces the split per file).
//!
//! On top of the planes sit a deterministic metrics registry ([`metrics`]:
//! counters, gauges, fixed-bucket histograms with integer quantile math), a
//! Chrome `trace_event` exporter ([`trace`]) loadable in Perfetto, and an
//! anomaly annotator ([`anomaly`]) that flags phase outliers and queue-wait
//! spikes against session medians (integer math only) as trace `instant`
//! events. [`json`] is the workspace's one JSON writer and reader: every
//! artifact, report and contract goes through its [`json::Json`] value.

pub mod anomaly;
pub mod event;
pub mod json;
pub mod metrics;
pub mod timing;
pub mod trace;

pub use anomaly::{annotate_trace, detect_timing_anomalies, Anomaly, AnomalyConfig, AnomalyKind};
pub use event::{EventKind, EventLedger};
pub use metrics::{Histogram, MetricsRegistry, MetricsSnapshot};
pub use timing::{PhaseTiming, QueueClass, TaskLabel, TaskTiming, TimingPlane};
pub use trace::{ChromeTrace, TraceStats};
