//! Session anomalies and post-mortem diagnostic bundles.
//!
//! * [`detect_session_anomalies`] — timing-plane findings (phase outliers,
//!   queue-wait spikes — see `ve_obs::anomaly`) plus **retry storms**
//!   detected here from the deterministic event plane (re-run `TrainAttempt`
//!   counts, no wall clock involved) and joined back to the timing plane for
//!   trace placement.
//! * [`DiagnosticBundle`] — the flight-recorder dump of a finished
//!   (measured) [`SessionOutcome`]: last-N events, joined timing spans,
//!   `ExecutorStats`, the degradation ledger, and the anomaly section as one
//!   JSON document. `ve-bench`'s `bench_obs` emits one automatically
//!   whenever a session absorbed a `Degraded` event.
//!
//! The bundle is built as a [`ve_obs::json::Json`] value, so its keys render
//! sorted and the document is deterministic for a given outcome.

use crate::harness::SessionOutcome;
use crate::observability::SessionEvent;
use std::collections::BTreeMap;
use ve_obs::json::Json;
use ve_obs::{detect_timing_anomalies, Anomaly, AnomalyConfig, AnomalyKind, EventKind, TaskTiming};

/// Detects retry storms from the event plane: an iteration that re-ran
/// training for one extractor at least `cfg.retry_storm_attempts` times.
/// Purely integer event counting — deterministic at any parallelism — with
/// the trace position joined from the (wall-clock) timing plane when a
/// matching `train` task span exists.
pub fn retry_storms(
    events: &[(u32, SessionEvent)],
    timings: &[TaskTiming],
    cfg: &AnomalyConfig,
) -> Vec<Anomaly> {
    let mut reruns: BTreeMap<(u32, String), u64> = BTreeMap::new();
    for (bucket, event) in events {
        if let SessionEvent::TrainAttempt {
            extractor, attempt, ..
        } = event
        {
            if *attempt >= 1 {
                *reruns
                    .entry((*bucket, format!("{extractor:?}")))
                    .or_insert(0) += 1;
            }
        }
    }
    reruns
        .into_iter()
        .filter(|(_, count)| *count >= cfg.retry_storm_attempts)
        .map(|((iteration, extractor), count)| {
            // Place the marker on the worker track that ran the window's
            // training, if the timing plane recorded one.
            let spot = timings
                .iter()
                .find(|t| t.label.kind == "train" && t.label.iteration == iteration);
            Anomaly {
                kind: AnomalyKind::RetryStorm,
                label: extractor,
                iteration,
                observed: count,
                baseline: cfg.retry_storm_attempts,
                pid: 0,
                tid: spot.map_or(0, |t| 1 + t.worker as u64),
                ts_us: spot.map_or(0, |t| t.start_us),
            }
        })
        .collect()
}

/// Every anomaly of a finished session: timing-plane outliers/spikes plus
/// event-plane retry storms, in trace-timestamp order.
pub fn detect_session_anomalies(out: &SessionOutcome, cfg: &AnomalyConfig) -> Vec<Anomaly> {
    let mut anomalies = detect_timing_anomalies(&out.timings, &out.phases, cfg);
    anomalies.extend(retry_storms(&out.events, &out.timings, cfg));
    anomalies.sort_by(|a, b| {
        (a.ts_us, a.kind, &a.label, a.iteration).cmp(&(b.ts_us, b.kind, &b.label, b.iteration))
    });
    anomalies
}

/// The flight-recorder dump: everything needed for a post-mortem, as one
/// key-sorted JSON document.
pub struct DiagnosticBundle {
    /// The most recent `last_n` retained events (canonical order tail).
    pub last_events: Vec<(u32, SessionEvent)>,
    pub timings: Vec<TaskTiming>,
    pub phases: Vec<ve_obs::PhaseTiming>,
    pub executor: ve_sched::ExecutorStats,
    pub degradations: Vec<String>,
    pub dropped_events: Vec<(&'static str, u64)>,
    pub anomalies: Vec<Anomaly>,
}

impl DiagnosticBundle {
    pub fn from_outcome(out: &SessionOutcome, last_n: usize, cfg: &AnomalyConfig) -> Self {
        let skip = out.events.len().saturating_sub(last_n);
        Self {
            last_events: out.events[skip..].to_vec(),
            timings: out.timings.clone(),
            phases: out.phases.clone(),
            executor: out.executor,
            degradations: out.degradations.iter().map(|d| format!("{d:?}")).collect(),
            dropped_events: out.dropped_events.clone(),
            anomalies: detect_session_anomalies(out, cfg),
        }
    }

    pub fn render_json(&self) -> String {
        let u64s = |pairs: &[(&str, u64)]| Json::obj(pairs.iter().map(|&(k, v)| (k, Json::u64(v))));
        let last_events = self.last_events.iter().map(|(iteration, event)| {
            Json::obj([
                ("detail", Json::str(format!("{event:?}"))),
                ("iteration", Json::u64(u64::from(*iteration))),
                ("kind", Json::str(event.kind())),
            ])
        });
        let phases = self.phases.iter().map(|p| {
            Json::obj([
                ("dur_us", Json::u64(p.dur_us)),
                ("iteration", Json::u64(u64::from(p.iteration))),
                ("phase", Json::str(p.phase)),
                ("start_us", Json::u64(p.start_us)),
            ])
        });
        Json::obj([
            (
                "anomalies",
                self.anomalies.iter().map(anomaly_json).collect(),
            ),
            (
                "degradations",
                self.degradations.iter().map(Json::str).collect(),
            ),
            ("dropped_events", u64s(&self.dropped_events)),
            ("executor", u64s(&self.executor.export_kv())),
            ("last_events", last_events.collect()),
            ("phases", phases.collect()),
            ("schema", Json::str("vocalexplore/diagnostic_bundle/v1")),
            ("timings", self.timings.iter().map(timing_json).collect()),
        ])
        .render()
    }
}

fn anomaly_json(a: &Anomaly) -> Json {
    Json::obj([
        ("baseline", Json::u64(a.baseline)),
        ("factor_x100", Json::u64(a.factor_x100())),
        ("iteration", Json::u64(u64::from(a.iteration))),
        ("kind", Json::str(a.kind.label())),
        ("label", Json::str(&a.label)),
        ("observed", Json::u64(a.observed)),
        ("tid", Json::u64(a.tid)),
        ("ts_us", Json::u64(a.ts_us)),
    ])
}

fn timing_json(t: &TaskTiming) -> Json {
    Json::obj([
        ("class", Json::str(t.class.label())),
        ("end_us", Json::u64(t.end_us)),
        ("iteration", Json::u64(u64::from(t.label.iteration))),
        ("kind", Json::str(t.label.kind)),
        ("queue_wait_us", Json::u64(t.queue_wait_us())),
        ("span", Json::u64(t.span)),
        ("start_us", Json::u64(t.start_us)),
        ("worker", Json::usize(t.worker)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use ve_features::ExtractorId;
    use ve_obs::{QueueClass, TaskLabel};

    fn attempt(bucket: u32, attempt: u32) -> (u32, SessionEvent) {
        (
            bucket,
            SessionEvent::TrainAttempt {
                extractor: ExtractorId::R3d,
                iteration: bucket,
                attempt,
                ok: false,
            },
        )
    }

    fn train_timing(iteration: u32, worker: usize, start_us: u64) -> TaskTiming {
        TaskTiming {
            span: 9,
            label: TaskLabel::new("train", iteration),
            class: QueueClass::Normal,
            worker,
            submit_us: start_us,
            start_us,
            end_us: start_us + 10,
        }
    }

    #[test]
    fn retry_storm_counts_reruns_per_iteration_and_joins_timing() {
        let events = vec![
            attempt(3, 0),
            attempt(3, 1),
            attempt(3, 2),
            attempt(5, 0),
            attempt(5, 1), // one re-run: below the default threshold of 2
        ];
        let timings = vec![train_timing(3, 1, 777)];
        let storms = retry_storms(&events, &timings, &AnomalyConfig::default());
        assert_eq!(storms.len(), 1);
        let s = &storms[0];
        assert_eq!(s.kind, AnomalyKind::RetryStorm);
        assert_eq!(s.iteration, 3);
        assert_eq!(s.observed, 2);
        assert_eq!(s.label, "R3d");
        assert_eq!(s.tid, 2); // worker 1's track
        assert_eq!(s.ts_us, 777);
    }

    #[test]
    fn storm_without_timing_join_lands_on_the_session_track() {
        let events = vec![attempt(1, 1), attempt(1, 2)];
        let storms = retry_storms(&events, &[], &AnomalyConfig::default());
        assert_eq!(storms.len(), 1);
        assert_eq!((storms[0].tid, storms[0].ts_us), (0, 0));
    }

    #[test]
    fn anomaly_json_is_stable_and_escaped() {
        let anomaly = Anomaly {
            kind: AnomalyKind::RetryStorm,
            label: "R3d \"quoted\"\n\u{1}".to_string(),
            iteration: 3,
            observed: 2,
            baseline: 2,
            pid: 0,
            tid: 2,
            ts_us: 777,
        };
        let a = anomaly_json(&anomaly).render();
        assert_eq!(a, anomaly_json(&anomaly).render());
        assert!(a.contains("\"kind\": \"retry_storm\""), "{a}");
        assert!(a.contains("\"factor_x100\": 100"), "{a}");
        assert!(a.contains("\\\"quoted\\\"\\n\\u0001"), "{a}");
        let back = ve_obs::json::parse(&a).unwrap();
        assert_eq!(back.get("label"), Some(&Json::str(&anomaly.label)));
    }
}
