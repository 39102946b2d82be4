//! The system's deterministic event plane (see `ve-obs` for the machinery
//! and the two-plane contract).
//!
//! # What qualifies as an event
//!
//! Every [`SessionEvent`] is recorded at a point where its *content* is a
//! pure function of the session's inputs, and where the *per-iteration
//! multiset* of events is identical whether the session engine runs its
//! tasks inline or on a worker pool, at any
//! `executor_workers × compute_threads`. Wall-clock facts (queue wait, run
//! time, spill waits) are banned here; they live in the timing plane and
//! join by span/iteration.
//!
//! # Iteration attribution
//!
//! The recorder carries the current iteration in an atomic set by
//! `sample_segments` *after* it increments the session counter. The
//! deferred training/evaluation for the labels of iteration `N` runs before
//! the counter moves to `N+1` — inside `explore(N+1)` under Serial, in the
//! labeling window of `N` otherwise — so it is attributed to iteration `N`
//! under every strategy. No deferred work runs after a session's last
//! labels, so every run of a config has the same buckets.
//!
//! # Ordering
//!
//! Recording order within an iteration is scheduling-dependent (a training
//! task and an eager extraction may finish in either order), so equality is
//! asserted on [`Obs::canonical_events`]: iteration-major, then the variant
//! order below. The *raw* recording order is still exactly the legacy
//! degradation-ledger order, which is why `VocalExplore::drain_degradations`
//! can be a cursor view over this plane (see [`Obs::drain_degradations`]).

use crate::degradation::Degradation;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use ve_features::ExtractorId;
use ve_obs::{EventKind, EventLedger, MetricsRegistry};
use ve_vidsim::VideoId;

/// One deterministic event. Variant order defines the canonical
/// intra-iteration rank (roughly the phase order of an iteration); all
/// payloads are integers or `Ord` ids — floats are stored as IEEE bits,
/// which order correctly for the non-negative values recorded here.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum SessionEvent {
    /// The acquisition index absorbed newly covered rows during selection.
    IndexIngest { rows_added: u64, epoch: u64 },
    /// One `sample_segments` call completed.
    SelectionCompleted {
        batch: u32,
        videos_extracted_for_call: u32,
        candidates_lost: u32,
        coverage_fallback: bool,
    },
    /// User-facing predictions for the iteration's batch were attached.
    PredictionsServed { segments: u32, predicted: u32 },
    /// The user labeled a segment.
    LabelAdded { vid: VideoId },
    /// A feature clip was computed and published to the cache (recorded by
    /// the unique publish winner, so exactly once per clip per extractor).
    Extracted {
        extractor: ExtractorId,
        vid: VideoId,
    },
    /// A cross-validated feature-quality evaluation produced a score.
    EvaluationCompleted {
        extractor: ExtractorId,
        /// `f64::to_bits` of the CV score (non-negative, so bit order ==
        /// numeric order).
        score_bits: u64,
    },
    /// One training attempt ran (recorded once per attempt of the retry
    /// loop).
    TrainAttempt {
        extractor: ExtractorId,
        /// The training request's own iteration argument.
        iteration: u32,
        attempt: u32,
        ok: bool,
    },
    /// Training published a new model version.
    TrainCompleted {
        extractor: ExtractorId,
        iteration: u32,
        version: u64,
    },
    /// An absorbed fault (the degradation ledger is a view over these).
    Degraded(Degradation),
}

impl EventKind for SessionEvent {
    /// Stable kind names for drop accounting and the bench artifacts'
    /// `events.by_kind` section — a pure function of the variant.
    fn kind(&self) -> &'static str {
        match self {
            SessionEvent::IndexIngest { .. } => "index_ingest",
            SessionEvent::SelectionCompleted { .. } => "selection_completed",
            SessionEvent::PredictionsServed { .. } => "predictions_served",
            SessionEvent::LabelAdded { .. } => "label_added",
            SessionEvent::Extracted { .. } => "extracted",
            SessionEvent::EvaluationCompleted { .. } => "evaluation_completed",
            SessionEvent::TrainAttempt { .. } => "train_attempt",
            SessionEvent::TrainCompleted { .. } => "train_completed",
            SessionEvent::Degraded(_) => "degraded",
        }
    }
}

/// The observability recorder: deterministic event ledger + metrics
/// registry + the current-iteration tag. One per [`crate::VocalExplore`],
/// shared with the feature/model/AL managers via `Arc`.
pub struct Obs {
    current_iteration: AtomicU32,
    ledger: EventLedger<SessionEvent>,
    metrics: MetricsRegistry,
}

/// Shared handle to the recorder.
pub type ObsHandle = Arc<Obs>;

impl Obs {
    /// A recorder with event/metrics sinks enabled (`enabled = false` keeps
    /// only the events that double as program state — degradations).
    pub fn new(enabled: bool) -> ObsHandle {
        Self::with_recorder_capacity(enabled, None)
    }

    /// A recorder whose event ledger is bounded to the most recent
    /// `capacity` droppable events (flight-recorder mode; `None` =
    /// unbounded). Degradations are pinned and never evicted, so the
    /// degradation view stays lossless at any capacity.
    pub fn with_recorder_capacity(enabled: bool, capacity: Option<usize>) -> ObsHandle {
        let obs = Obs {
            current_iteration: AtomicU32::new(0),
            ledger: match capacity {
                Some(c) => EventLedger::with_capacity(c),
                None => EventLedger::new(),
            },
            metrics: MetricsRegistry::new(),
        };
        obs.ledger.set_enabled(enabled);
        Arc::new(obs)
    }

    pub fn is_enabled(&self) -> bool {
        self.ledger.is_enabled()
    }

    /// Sets the iteration tag subsequent events attribute to.
    pub fn set_iteration(&self, iteration: u32) {
        self.current_iteration.store(iteration, Ordering::Relaxed);
    }

    pub fn iteration(&self) -> u32 {
        self.current_iteration.load(Ordering::Relaxed)
    }

    /// Records an event under the current iteration tag.
    pub fn record(&self, event: SessionEvent) {
        self.ledger.record(self.iteration(), event);
    }

    /// Records a degradation. Always recorded — the degradation ledger is
    /// program state, not optional telemetry — and counted in the metrics
    /// registry when sinks are on.
    pub fn record_degradation(&self, degradation: Degradation) {
        if self.is_enabled() {
            self.metrics.inc("degradations", 1);
        }
        self.ledger
            .record_always(self.iteration(), SessionEvent::Degraded(degradation));
    }

    /// Bumps a metrics counter (no-op when sinks are disabled).
    pub fn inc(&self, name: &str, by: u64) {
        if self.is_enabled() {
            self.metrics.inc(name, by);
        }
    }

    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// The ledger in raw recording order.
    pub fn events(&self) -> Vec<(u32, SessionEvent)> {
        self.ledger.snapshot()
    }

    /// The ledger in canonical (iteration-major, event-`Ord`) order — the
    /// form inline/threaded and cross-parallelism equality is asserted on.
    pub fn canonical_events(&self) -> Vec<(u32, SessionEvent)> {
        self.ledger.canonical()
    }

    /// Exact per-kind counts of events evicted by the flight recorder
    /// (empty in unbounded mode or while within capacity).
    pub fn dropped_events(&self) -> Vec<(&'static str, u64)> {
        self.ledger.dropped_by_kind()
    }

    /// Degradations recorded since the last drain, in recording order —
    /// the legacy `Vec<Degradation>` ledger as a view over the event plane.
    pub fn drain_degradations(&self) -> Vec<Degradation> {
        self.ledger.drain_filter_map(|e| match e {
            SessionEvent::Degraded(d) => Some(d.clone()),
            _ => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_order_groups_by_iteration_then_variant() {
        let obs = Obs::new(true);
        obs.set_iteration(2);
        obs.record(SessionEvent::TrainAttempt {
            extractor: ExtractorId::R3d,
            iteration: 2,
            attempt: 0,
            ok: true,
        });
        obs.set_iteration(1);
        obs.record(SessionEvent::LabelAdded { vid: VideoId(4) });
        obs.record(SessionEvent::IndexIngest {
            rows_added: 1,
            epoch: 0,
        });
        let canon = obs.canonical_events();
        assert_eq!(canon.len(), 3);
        assert_eq!(canon[0].0, 1);
        assert!(matches!(canon[0].1, SessionEvent::IndexIngest { .. }));
        assert!(matches!(canon[1].1, SessionEvent::LabelAdded { .. }));
        assert_eq!(canon[2].0, 2);
    }

    #[test]
    fn degradations_survive_disabled_sinks_and_drain_in_order() {
        let obs = Obs::new(false);
        obs.record(SessionEvent::LabelAdded { vid: VideoId(1) }); // dropped
        obs.record_degradation(Degradation::CandidatesLost {
            iteration: 1,
            videos: 2,
        });
        obs.record_degradation(Degradation::TrainingFailed {
            iteration: 1,
            extractor: ExtractorId::R3d,
        });
        assert_eq!(obs.events().len(), 2);
        let drained = obs.drain_degradations();
        assert!(matches!(drained[0], Degradation::CandidatesLost { .. }));
        assert!(matches!(drained[1], Degradation::TrainingFailed { .. }));
        assert!(obs.drain_degradations().is_empty());
        // Metrics counter untouched while disabled.
        assert_eq!(obs.metrics().counter("degradations"), 0);
    }

    #[test]
    fn bounded_recorder_evicts_telemetry_but_pins_degradations() {
        let obs = Obs::with_recorder_capacity(true, Some(2));
        obs.set_iteration(1);
        obs.record(SessionEvent::LabelAdded { vid: VideoId(1) });
        obs.record(SessionEvent::LabelAdded { vid: VideoId(2) });
        obs.record_degradation(Degradation::CandidatesLost {
            iteration: 1,
            videos: 2,
        });
        obs.record(SessionEvent::LabelAdded { vid: VideoId(3) }); // evicts vid 1
        assert_eq!(obs.events().len(), 3);
        assert_eq!(obs.dropped_events(), vec![("label_added", 1)]);
        assert_eq!(obs.drain_degradations().len(), 1);
    }
}
