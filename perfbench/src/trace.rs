//! In-memory spans recorded from the benchmark's side of each call.
//!
//! Every timed call into a layer becomes one [`Span`]: its name, start and
//! end, the span that caused it, and the iteration it belongs to — all spans
//! of one `Explore` iteration share that id. Spans stay in memory while the
//! run measures and are written out once, after it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u32,
    /// The causing span's id; 0 for a root.
    pub parent: u32,
    /// Layer call the span covers (`sample_segments`, `eager_task`, ...).
    pub name: &'static str,
    /// Session index within the run.
    pub session: u32,
    /// Iteration id shared by all spans of one `Explore` iteration.
    pub iteration: u32,
    /// Nanoseconds since the run's time origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's time origin.
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Nanoseconds from `origin` to `at`.
pub fn offset_ns(origin: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(origin).as_nanos() as u64
}

/// Span recorder. When off, [`Tracer::record`] keeps nothing, so untraced
/// runs pay only for the clock reads their end-to-end metrics need.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// The time origin every span offset is measured from.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Records a finished span and returns its id (0 when tracing is off).
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        session: u32,
        iteration: u32,
        start: Instant,
        end: Instant,
    ) -> u32 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            id,
            parent,
            name,
            session,
            iteration,
            start_ns: offset_ns(self.origin, start),
            end_ns: offset_ns(self.origin, end),
        });
        id
    }

    /// Runs `f`, recording it as a span when tracing is on (untraced, no
    /// clock is read).
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        session: u32,
        iteration: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let result = f();
        self.record(name, parent, session, iteration, start, Instant::now());
        result
    }

    /// Reserves an id for a parent span whose end is not known yet; fill it
    /// in with [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: u32,
        session: u32,
        iteration: u32,
        start: Instant,
    ) -> u32 {
        self.record(name, parent, session, iteration, start, start)
    }

    /// Sets the end of a span reserved with [`Tracer::open`].
    pub fn close(&mut self, id: u32, end: Instant) {
        if id == 0 {
            return;
        }
        let end_ns = offset_ns(self.origin, end);
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children count once,
/// and a child's time outside the parent is ignored). Indexed by `id - 1`.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The spans as a JSON array of objects, one per line.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"session\":{},\"iteration\":{},\"start_ns\":{},\"end_ns\":{}}}{sep}",
            s.id, s.parent, s.name, s.session, s.iteration, s.start_ns, s.end_ns
        );
    }
    out.push(']');
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            session: 0,
            iteration: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span(1, 0, 0, 100),
            // Two overlapping children cover [10, 50) together.
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),
            // A child running past the parent's end counts only inside it.
            span(4, 1, 90, 130),
            // A grandchild is its own parent's child, not the root's.
            span(5, 2, 15, 25),
        ];
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ns[0], 100 - 40 - 10);
        assert_eq!(self_ns[1], 30 - 10);
        assert_eq!(self_ns[2], 20);
        assert_eq!(self_ns[3], 40);
        assert_eq!(self_ns[4], 10);
    }

    #[test]
    fn self_time_of_a_childless_span_is_its_duration() {
        assert_eq!(self_times_ns(&[span(1, 0, 5, 9)]), vec![4]);
    }

    #[test]
    fn tracer_off_keeps_nothing_and_open_close_fill_the_end() {
        let mut off = Tracer::new(false);
        let now = Instant::now();
        assert_eq!(off.record("x", 0, 0, 1, now, now), 0);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let start = on.origin();
        let id = on.open("iteration", 0, 0, 1, start);
        let child = on.record("explore", id, 0, 1, start, Instant::now());
        on.close(id, Instant::now());
        assert_eq!((id, child), (1, 2));
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
        let json = spans_json(on.spans());
        assert!(json.contains("\"name\":\"explore\",\"session\":0,\"iteration\":1"));
    }
}
