//! Session reports and post-mortem diagnostic bundles.
//!
//! Two consumers of a finished (measured) [`SessionOutcome`]:
//!
//! * [`SessionReport`] — a compact summary with an **anomaly section**:
//!   timing-plane findings (phase outliers, queue-wait spikes — see
//!   `ve_obs::anomaly`) plus **retry storms** detected here from the
//!   deterministic event plane (re-run `TrainAttempt` counts, no wall
//!   clock involved) and joined back to the timing plane for trace
//!   placement.
//! * [`DiagnosticBundle`] — the flight-recorder dump: last-N events,
//!   joined timing spans, `ExecutorStats`, the degradation ledger, and the
//!   anomaly section as one JSON document. `ve-bench`'s `bench_obs` emits
//!   one automatically whenever a session absorbed a `Degraded` event.
//!
//! All JSON is hand-rolled (no serde in this environment) with keys in
//! sorted order, so documents are deterministic for a given outcome.

use crate::harness::SessionOutcome;
use crate::observability::SessionEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;
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

/// Compact end-of-session summary with the anomaly section.
pub struct SessionReport {
    pub iterations: usize,
    pub events_total: usize,
    pub degradations: usize,
    pub dropped_events: Vec<(&'static str, u64)>,
    pub executor: ve_sched::ExecutorStats,
    pub anomalies: Vec<Anomaly>,
}

impl SessionReport {
    pub fn from_outcome(out: &SessionOutcome, cfg: &AnomalyConfig) -> Self {
        Self {
            iterations: out.records.len(),
            events_total: out.events.len(),
            degradations: out.degradations.len(),
            dropped_events: out.dropped_events.clone(),
            executor: out.executor,
            anomalies: detect_session_anomalies(out, cfg),
        }
    }

    pub fn render_json(&self) -> String {
        let mut o = String::from("{\n");
        let _ = writeln!(
            o,
            "  \"anomalies\": {},",
            render_anomalies(&self.anomalies, 2)
        );
        let _ = writeln!(o, "  \"degradations\": {},", self.degradations);
        let _ = writeln!(
            o,
            "  \"dropped_events\": {},",
            render_dropped(&self.dropped_events)
        );
        let _ = writeln!(o, "  \"events_total\": {},", self.events_total);
        let _ = writeln!(o, "  \"executor\": {},", self.executor.render_json());
        let _ = writeln!(o, "  \"iterations\": {},", self.iterations);
        o.push_str("  \"schema\": \"vocalexplore/session_report/v1\"\n}\n");
        o
    }
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
        let mut o = String::from("{\n");
        let _ = writeln!(
            o,
            "  \"anomalies\": {},",
            render_anomalies(&self.anomalies, 2)
        );
        o.push_str("  \"degradations\": [");
        for (i, d) in self.degradations.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(o, "{sep}\n    \"{}\"", esc(d));
        }
        o.push_str(if self.degradations.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        let _ = writeln!(
            o,
            "  \"dropped_events\": {},",
            render_dropped(&self.dropped_events)
        );
        let _ = writeln!(o, "  \"executor\": {},", self.executor.render_json());
        o.push_str("  \"last_events\": [");
        for (i, (iteration, event)) in self.last_events.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                o,
                "{sep}\n    {{\"detail\": \"{}\", \"iteration\": {iteration}, \"kind\": \"{}\"}}",
                esc(&format!("{event:?}")),
                event.kind()
            );
        }
        o.push_str(if self.last_events.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        o.push_str("  \"phases\": [");
        for (i, p) in self.phases.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                o,
                "{sep}\n    {{\"dur_us\": {}, \"iteration\": {}, \"phase\": \"{}\", \"start_us\": {}}}",
                p.dur_us, p.iteration, p.phase, p.start_us
            );
        }
        o.push_str(if self.phases.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });
        o.push_str("  \"schema\": \"vocalexplore/diagnostic_bundle/v1\",\n");
        o.push_str("  \"timings\": [");
        for (i, t) in self.timings.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                o,
                "{sep}\n    {{\"class\": \"{}\", \"end_us\": {}, \"iteration\": {}, \
                 \"kind\": \"{}\", \"queue_wait_us\": {}, \"span\": {}, \"start_us\": {}, \
                 \"worker\": {}}}",
                t.class.label(),
                t.end_us,
                t.label.iteration,
                t.label.kind,
                t.queue_wait_us(),
                t.span,
                t.start_us,
                t.worker
            );
        }
        o.push_str(if self.timings.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        o.push_str("}\n");
        o
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn render_dropped(dropped: &[(&'static str, u64)]) -> String {
    let body: Vec<String> = dropped
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn render_anomalies(anomalies: &[Anomaly], indent: usize) -> String {
    if anomalies.is_empty() {
        return "[]".to_string();
    }
    let pad = " ".repeat(indent);
    let mut o = String::from("[");
    for (i, a) in anomalies.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            o,
            "{sep}\n{pad}  {{\"baseline\": {}, \"factor_x100\": {}, \"iteration\": {}, \
             \"kind\": \"{}\", \"label\": \"{}\", \"observed\": {}, \"tid\": {}, \"ts_us\": {}}}",
            a.baseline,
            a.factor_x100(),
            a.iteration,
            a.kind.label(),
            esc(&a.label),
            a.observed,
            a.tid,
            a.ts_us
        );
    }
    let _ = write!(o, "\n{pad}]");
    o
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
        let anomalies = vec![Anomaly {
            kind: AnomalyKind::RetryStorm,
            label: "R3d".to_string(),
            iteration: 3,
            observed: 2,
            baseline: 2,
            pid: 0,
            tid: 2,
            ts_us: 777,
        }];
        let a = render_anomalies(&anomalies, 0);
        let b = render_anomalies(&anomalies, 0);
        assert_eq!(a, b);
        assert!(a.contains("\"kind\": \"retry_storm\""), "{a}");
        assert!(a.contains("\"factor_x100\": 100"), "{a}");
    }
}
