//! Chrome `trace_event` exporter: builds a trace loadable in Perfetto /
//! `chrome://tracing` from timing-plane records, and validates its structure
//! before it is committed as a CI artifact.
//!
//! The format is the JSON-array flavor: `{"traceEvents": [...]}` where each
//! span is a balanced `B`/`E` pair on one `(pid, tid)` track, `ts` is in
//! microseconds, and `M` metadata events name the tracks. Rendering sorts
//! events by timestamp (stable, so a zero-length span keeps `B` before `E`),
//! which is also what [`ChromeTrace::validate`] checks: per-track monotonic
//! timestamps, balanced begin/end nesting, and at least one complete span
//! for every category the caller requires.

use crate::json::Json;
use crate::timing::{PhaseTiming, TaskTiming};
use std::collections::BTreeMap;

/// One raw trace event. `ph` is the Chrome phase: `'B'`egin, `'E'`nd,
/// `'i'`nstant, or `'M'`etadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    pub name: String,
    pub cat: String,
    pub ph: char,
    pub ts_us: u64,
    pub pid: u64,
    pub tid: u64,
    /// Rendered into the `args` object as string values.
    pub args: Vec<(String, String)>,
}

/// Statistics produced by a successful validation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    pub tracks: usize,
    pub spans: usize,
    /// `'i'` (instant) event count — anomaly markers and the like.
    pub instants: usize,
    /// Complete span count per category.
    pub spans_per_cat: BTreeMap<String, usize>,
}

/// A trace under construction.
#[derive(Debug, Default)]
pub struct ChromeTrace {
    events: Vec<TraceEvent>,
}

impl ChromeTrace {
    pub fn new() -> Self {
        Self::default()
    }

    /// Names a `(pid, tid)` track in the trace UI.
    pub fn name_track(&mut self, pid: u64, tid: u64, name: &str) {
        self.events.push(TraceEvent {
            name: "thread_name".to_string(),
            cat: "__metadata".to_string(),
            ph: 'M',
            ts_us: 0,
            pid,
            tid,
            args: vec![("name".to_string(), name.to_string())],
        });
    }

    /// Adds one complete span as a `B`/`E` pair.
    #[allow(clippy::too_many_arguments)] // mirrors the trace_event field list
    pub fn add_span(
        &mut self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        start_us: u64,
        end_us: u64,
        args: Vec<(String, String)>,
    ) {
        let end_us = end_us.max(start_us);
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'B',
            ts_us: start_us,
            pid,
            tid,
            args,
        });
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'E',
            ts_us: end_us,
            pid,
            tid,
            args: Vec::new(),
        });
    }

    /// Adds an executed task from the timing plane: one span on the worker's
    /// track, annotated with its queue class, span id, and queue wait.
    pub fn add_task(&mut self, t: &TaskTiming) {
        self.add_span(
            &format!("{}#{}", t.label.kind, t.label.iteration),
            t.label.kind,
            0,
            1 + t.worker as u64,
            t.start_us,
            t.end_us,
            vec![
                ("span".to_string(), t.span.to_string()),
                ("class".to_string(), t.class.label().to_string()),
                ("queue_wait_us".to_string(), t.queue_wait_us().to_string()),
            ],
        );
    }

    /// Adds a thread-scoped `instant` event — a zero-duration marker the
    /// trace UI draws as a tick on the `(pid, tid)` track. Used for anomaly
    /// annotations: *where* a budget blew, without opening a span.
    pub fn add_instant(
        &mut self,
        name: &str,
        cat: &str,
        pid: u64,
        tid: u64,
        ts_us: u64,
        args: Vec<(String, String)>,
    ) {
        self.events.push(TraceEvent {
            name: name.to_string(),
            cat: cat.to_string(),
            ph: 'i',
            ts_us,
            pid,
            tid,
            args,
        });
    }

    /// Adds a session-thread phase on the dedicated session track (tid 0).
    pub fn add_phase(&mut self, p: &PhaseTiming) {
        self.add_span(
            &format!("{}#{}", p.phase, p.iteration),
            p.phase,
            0,
            0,
            p.start_us,
            p.start_us + p.dur_us,
            vec![("iteration".to_string(), p.iteration.to_string())],
        );
    }

    /// Events sorted for rendering: by timestamp, stable (insertion order
    /// breaks ties, keeping `B` before `E` for zero-length spans), metadata
    /// first.
    fn sorted(&self) -> Vec<TraceEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| (if e.ph == 'M' { 0u8 } else { 1 }, e.ts_us));
        evs
    }

    /// The trace as a `trace_event` JSON document (see [`crate::json`]).
    pub fn render_json(&self) -> String {
        let events = self.sorted().into_iter().map(|e| {
            let mut fields = vec![
                ("name", Json::Str(e.name)),
                ("cat", Json::Str(e.cat)),
                ("ph", Json::str(e.ph)),
                ("ts", Json::u64(e.ts_us)),
                ("pid", Json::u64(e.pid)),
                ("tid", Json::u64(e.tid)),
                (
                    "args",
                    Json::obj(e.args.into_iter().map(|(k, v)| (k, Json::Str(v)))),
                ),
            ];
            // Instant events carry an explicit thread scope so Perfetto
            // anchors the tick to its track.
            if e.ph == 'i' {
                fields.push(("s", Json::str("t")));
            }
            Json::obj(fields)
        });
        Json::obj([
            ("traceEvents", events.collect()),
            ("displayTimeUnit", Json::str("ms")),
        ])
        .render()
    }

    /// Structural validation of the trace as it will be rendered:
    ///
    /// * timestamps are monotonically non-decreasing per `(pid, tid)` track,
    /// * every track's `B`/`E` events balance (no dangling begin or end),
    /// * every category in `required_cats` has at least one complete span.
    pub fn validate(&self, required_cats: &[&str]) -> Result<TraceStats, String> {
        // Rendering sorts globally by timestamp, which makes per-track
        // monotonicity hold by construction; the sequence checker still
        // guards hand-merged or externally-produced event lists.
        validate_sequence(&self.sorted(), required_cats)
    }
}

/// The core structural check over an event sequence in its final order.
fn validate_sequence(evs: &[TraceEvent], required_cats: &[&str]) -> Result<TraceStats, String> {
    let mut stats = TraceStats::default();
    let mut tracks: BTreeMap<(u64, u64), (u64, usize)> = BTreeMap::new();
    for e in evs {
        if e.ph == 'M' {
            continue;
        }
        let track = tracks.entry((e.pid, e.tid)).or_insert((0, 0));
        if e.ts_us < track.0 {
            return Err(format!(
                "track ({}, {}): ts {} goes backwards (prev {})",
                e.pid, e.tid, e.ts_us, track.0
            ));
        }
        track.0 = e.ts_us;
        match e.ph {
            'B' => track.1 += 1,
            // Instants take part in the monotonicity check above but have
            // no begin/end balance to keep.
            'i' => stats.instants += 1,
            'E' => {
                if track.1 == 0 {
                    return Err(format!(
                        "track ({}, {}): `E` for `{}` at ts {} with no open `B`",
                        e.pid, e.tid, e.name, e.ts_us
                    ));
                }
                track.1 -= 1;
                stats.spans += 1;
                *stats.spans_per_cat.entry(e.cat.clone()).or_insert(0) += 1;
            }
            other => return Err(format!("unsupported phase `{other}`")),
        }
    }
    for ((pid, tid), (_, open)) in &tracks {
        if *open != 0 {
            return Err(format!(
                "track ({pid}, {tid}): {open} unbalanced `B` event(s)"
            ));
        }
    }
    stats.tracks = tracks.len();
    for cat in required_cats {
        if stats.spans_per_cat.get(*cat).copied().unwrap_or(0) == 0 {
            return Err(format!("required phase `{cat}` has zero complete spans"));
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::{QueueClass, TaskLabel};

    fn task(span: u64, kind: &'static str, worker: usize, s: u64, e: u64) -> TaskTiming {
        TaskTiming {
            span,
            label: TaskLabel::new(kind, 1),
            class: QueueClass::Normal,
            worker,
            submit_us: s.saturating_sub(2),
            start_us: s,
            end_us: e,
        }
    }

    #[test]
    fn spans_balance_and_validate() {
        let mut trace = ChromeTrace::new();
        trace.name_track(0, 1, "worker-0");
        trace.add_task(&task(1, "train", 0, 10, 50));
        trace.add_task(&task(2, "infer", 0, 60, 65));
        trace.add_phase(&PhaseTiming {
            phase: "select",
            iteration: 1,
            start_us: 0,
            dur_us: 8,
        });
        let stats = trace.validate(&["train", "infer", "select"]).unwrap();
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.tracks, 2);
        let json = trace.render_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"ph\": \"B\""));
        assert_eq!(json.matches("\"ph\": \"B\"").count(), 3);
        assert_eq!(json.matches("\"ph\": \"E\"").count(), 3);
    }

    #[test]
    fn missing_required_phase_fails() {
        let mut trace = ChromeTrace::new();
        trace.add_task(&task(1, "train", 0, 10, 50));
        let err = trace.validate(&["train", "eager"]).unwrap_err();
        assert!(err.contains("eager"), "{err}");
    }

    #[test]
    fn nested_and_overlapping_spans_still_balance() {
        let mut trace = ChromeTrace::new();
        // Outer 0..100 and inner 20..40 on the same track.
        trace.add_span("outer", "a", 0, 1, 0, 100, vec![]);
        trace.add_span("inner", "a", 0, 1, 20, 40, vec![]);
        let stats = trace.validate(&["a"]).unwrap();
        assert_eq!(stats.spans, 2);
    }

    #[test]
    fn dangling_end_is_rejected() {
        let mut trace = ChromeTrace::new();
        trace.events.push(TraceEvent {
            name: "x".into(),
            cat: "c".into(),
            ph: 'E',
            ts_us: 5,
            pid: 0,
            tid: 1,
            args: vec![],
        });
        assert!(trace.validate(&[]).is_err());
    }

    #[test]
    fn zero_length_span_keeps_begin_before_end() {
        let mut trace = ChromeTrace::new();
        trace.add_span("z", "c", 0, 1, 10, 10, vec![]);
        assert!(trace.validate(&["c"]).is_ok());
    }

    #[test]
    fn dangling_begin_is_rejected() {
        let mut trace = ChromeTrace::new();
        trace.events.push(TraceEvent {
            name: "x".into(),
            cat: "c".into(),
            ph: 'B',
            ts_us: 5,
            pid: 0,
            tid: 1,
            args: vec![],
        });
        let err = trace.validate(&[]).unwrap_err();
        assert!(err.contains("unbalanced"), "{err}");
    }

    #[test]
    fn non_monotonic_track_is_rejected() {
        // `ChromeTrace::validate` checks the *rendered* order, where the
        // global timestamp sort makes per-track monotonicity hold by
        // construction; the underlying sequence checker still defends
        // hand-merged event lists, so exercise it directly.
        let ev = |ph: char, ts_us: u64| TraceEvent {
            name: "x".into(),
            cat: "c".into(),
            ph,
            ts_us,
            pid: 0,
            tid: 1,
            args: vec![],
        };
        let bad = [ev('B', 20), ev('E', 30), ev('i', 10)];
        let err = validate_sequence(&bad, &[]).unwrap_err();
        assert!(err.contains("goes backwards"), "{err}");
        // Different tracks keep independent clocks: the same timestamps
        // spread over two tids are fine.
        let mut ok = [ev('B', 20), ev('E', 30), ev('i', 10)];
        ok[2].tid = 2;
        assert!(validate_sequence(&ok, &[]).is_ok());
    }

    #[test]
    fn unsupported_phase_is_rejected() {
        let mut trace = ChromeTrace::new();
        trace.events.push(TraceEvent {
            name: "x".into(),
            cat: "c".into(),
            ph: 'X',
            ts_us: 5,
            pid: 0,
            tid: 1,
            args: vec![],
        });
        let err = trace.validate(&[]).unwrap_err();
        assert!(err.contains("unsupported phase"), "{err}");
    }

    #[test]
    fn instant_events_validate_count_and_render_with_thread_scope() {
        let mut trace = ChromeTrace::new();
        trace.add_task(&task(1, "train", 0, 10, 50));
        trace.add_instant(
            "anomaly:phase_outlier",
            "anomaly",
            0,
            1,
            30,
            vec![("factor_x100".to_string(), "412".to_string())],
        );
        let stats = trace.validate(&["train"]).unwrap();
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.instants, 1);
        let json = trace.render_json();
        let doc = crate::json::parse(&json).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let is_instant = |e: &&Json| e.get("ph").and_then(Json::as_str) == Some("i");
        let instant = events.iter().find(is_instant).expect("one instant event");
        assert_eq!(instant.get("s").and_then(Json::as_str), Some("t"), "{json}");
        assert!(json.contains("anomaly:phase_outlier"));
    }
}
