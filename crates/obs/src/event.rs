//! The deterministic event plane: a ledger of `(iteration, event)` pairs,
//! unbounded by default, with an optional ring-buffer capacity mode.
//!
//! **Contract.** Event *content* must be a pure function of the session's
//! inputs — no wall-clock readings, thread ids, or pointer-derived values.
//! Recording *order* within an iteration is allowed to vary with scheduling
//! (a training task and an eager extraction may finish in either order), so
//! equality claims are made over the [`EventLedger::canonical`] form:
//! iteration-major, then the event type's total order. Because the
//! per-iteration event *multiset* is parallelism-invariant, the canonical
//! sequence is bit-comparable across worker/thread counts and between a
//! session run inline and one run on a worker pool.
//!
//! **Flight-recorder mode.** [`EventLedger::with_capacity`] bounds the
//! ledger to the most recent `C` droppable events. Eviction is
//! oldest-first in recording order, with exact per-kind accounting
//! ([`EventLedger::dropped_by_kind`], keyed by [`EventKind::kind`]).
//! Events recorded through [`EventLedger::record_always`] are *pinned*:
//! they are program state (the degradation view is built on them) and are
//! never evicted, so retained memory is bounded by `C + pinned`. While the
//! total recorded count stays within `C`, a bounded ledger is bit-identical
//! to an unbounded one — the capacity only matters under pressure.
//!
//! The raw recording order is still meaningful on a single path: the
//! degradation ledger exposed by `vocalexplore` is a cursor-based *view*
//! over this plane ([`EventLedger::drain_filter_map`]), preserving the exact
//! `Vec<Degradation>` ordering older code promised.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Names an event's kind for drop accounting. The returned string must be a
/// pure function of the variant (not its payload) so per-kind totals are
/// comparable across runs.
pub trait EventKind {
    fn kind(&self) -> &'static str;
}

struct Item<E> {
    iteration: u32,
    event: E,
    /// Recorded via `record_always`: never evicted by the ring buffer.
    pinned: bool,
}

struct LedgerState<E> {
    items: Vec<Item<E>>,
    /// Index of the first item not yet returned by `drain_filter_map`.
    drain_cursor: usize,
    /// Number of retained non-pinned items (the population the capacity
    /// bound applies to).
    droppable: usize,
    /// Exact per-kind eviction counts (empty while within capacity).
    dropped: BTreeMap<&'static str, u64>,
}

/// Thread-safe event ledger. `E` is the concrete event enum of the
/// instrumented system; its `Ord` defines the canonical intra-iteration
/// order (derive it with the variants listed in phase order).
pub struct EventLedger<E> {
    ledger: Mutex<LedgerState<E>>,
    enabled: AtomicBool,
    /// `None` = unbounded (the default); `Some(c)` = flight-recorder mode.
    capacity: Option<usize>,
}

impl<E: Clone + Ord + EventKind> EventLedger<E> {
    pub fn new() -> Self {
        Self::build(None)
    }

    /// A bounded ledger retaining at most `capacity` droppable events (the
    /// most recent ones, in recording order) plus every pinned event.
    pub fn with_capacity(capacity: usize) -> Self {
        Self::build(Some(capacity))
    }

    fn build(capacity: Option<usize>) -> Self {
        Self {
            ledger: Mutex::new(LedgerState {
                items: Vec::new(),
                drain_cursor: 0,
                droppable: 0,
                dropped: BTreeMap::new(),
            }),
            enabled: AtomicBool::new(true),
            capacity,
        }
    }

    /// The configured capacity (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Turns recording on or off. `record_always` ignores this — events that
    /// double as program state (degradations) must survive a disabled sink.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records one event under the given iteration tag (no-op when disabled).
    /// In capacity mode this may evict the oldest droppable event.
    pub fn record(&self, iteration: u32, event: E) {
        if !self.is_enabled() {
            return;
        }
        self.push(iteration, event, false);
    }

    /// Records regardless of the enabled flag — for events that are also
    /// program state (the degradation view is built on these). Pinned:
    /// never evicted by the ring buffer.
    pub fn record_always(&self, iteration: u32, event: E) {
        self.push(iteration, event, true);
    }

    fn push(&self, iteration: u32, event: E, pinned: bool) {
        let mut state = self.ledger.lock().expect("obs.ledger poisoned");
        state.items.push(Item {
            iteration,
            event,
            pinned,
        });
        if !pinned {
            state.droppable += 1;
            if let Some(cap) = self.capacity {
                while state.droppable > cap {
                    evict_oldest_droppable(&mut state);
                }
            }
        }
    }

    pub fn len(&self) -> usize {
        self.ledger.lock().expect("obs.ledger poisoned").items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events evicted by the ring buffer (0 while within capacity).
    pub fn dropped_total(&self) -> u64 {
        self.ledger
            .lock()
            .expect("obs.ledger poisoned")
            .dropped
            .values()
            .sum::<u64>()
    }

    /// Exact eviction counts per [`EventKind::kind`], sorted by kind name.
    /// For any run: retained-per-kind + dropped-per-kind equals the counts
    /// an unbounded ledger would hold.
    pub fn dropped_by_kind(&self) -> Vec<(&'static str, u64)> {
        self.ledger
            .lock()
            .expect("obs.ledger poisoned")
            .dropped
            .iter()
            .map(|(k, v)| (*k, *v))
            .collect()
    }

    /// The retained ledger in raw recording order.
    pub fn snapshot(&self) -> Vec<(u32, E)> {
        self.ledger
            .lock()
            .expect("obs.ledger poisoned")
            .items
            .iter()
            .map(|it| (it.iteration, it.event.clone()))
            .collect()
    }

    /// The canonical form: stable-sorted by `(iteration, event)`. Two runs
    /// with identical per-iteration event multisets have identical canonical
    /// sequences — this is the form equality is asserted on.
    pub fn canonical(&self) -> Vec<(u32, E)> {
        let mut items = self.snapshot();
        items.sort();
        items
    }

    /// Returns `f(event)` for every not-yet-drained event where `f` is
    /// `Some`, in recording order, and advances the drain cursor past
    /// everything recorded so far. This is how a legacy "drain the ledger"
    /// API becomes a view over the event plane. Pinned events are never
    /// evicted, so a view over pinned events (degradations) is lossless
    /// even in capacity mode.
    pub fn drain_filter_map<T>(&self, f: impl Fn(&E) -> Option<T>) -> Vec<T> {
        let mut state = self.ledger.lock().expect("obs.ledger poisoned");
        let from = state.drain_cursor;
        state.drain_cursor = state.items.len();
        state.items[from..]
            .iter()
            .filter_map(|it| f(&it.event))
            .collect()
    }
}

/// Removes the oldest non-pinned item, charging its kind. Keeps the drain
/// cursor pointing at the same logical event: an eviction below the cursor
/// shifts it left; an eviction at or above it silently loses a not-yet-
/// drained droppable event (by design — only pinned views are lossless).
fn evict_oldest_droppable<E: EventKind>(state: &mut LedgerState<E>) {
    let idx = state
        .items
        .iter()
        .position(|it| !it.pinned)
        .expect("droppable count > 0 implies a droppable item");
    let item = state.items.remove(idx);
    state.droppable -= 1;
    *state.dropped.entry(item.event.kind()).or_insert(0) += 1;
    if idx < state.drain_cursor {
        state.drain_cursor -= 1;
    }
}

impl<E: Clone + Ord + EventKind> Default for EventLedger<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EventKind for (u8, &'static str) {
        fn kind(&self) -> &'static str {
            self.1
        }
    }

    impl EventKind for i32 {
        fn kind(&self) -> &'static str {
            if *self >= 0 {
                "pos"
            } else {
                "neg"
            }
        }
    }

    #[test]
    fn canonical_is_iteration_major_then_event_order() {
        let ledger: EventLedger<(u8, &'static str)> = EventLedger::new();
        ledger.record(2, (1, "train"));
        ledger.record(1, (0, "select"));
        ledger.record(2, (0, "select"));
        ledger.record(1, (1, "train"));
        assert_eq!(
            ledger.canonical(),
            vec![
                (1, (0, "select")),
                (1, (1, "train")),
                (2, (0, "select")),
                (2, (1, "train")),
            ]
        );
        // Raw order is untouched.
        assert_eq!(ledger.snapshot()[0], (2, (1, "train")));
    }

    #[test]
    fn drain_view_preserves_recording_order_and_cursor() {
        let ledger: EventLedger<i32> = EventLedger::new();
        ledger.record(0, 3);
        ledger.record(0, -1);
        ledger.record(0, 2);
        let firsts = ledger.drain_filter_map(|e| if *e > 0 { Some(*e) } else { None });
        assert_eq!(firsts, vec![3, 2]);
        ledger.record(1, 5);
        assert_eq!(ledger.drain_filter_map(|e| Some(*e)), vec![5]);
        assert_eq!(ledger.drain_filter_map(|e| Some(*e)), Vec::<i32>::new());
        // The full ledger is still intact for export.
        assert_eq!(ledger.len(), 4);
    }

    #[test]
    fn disabled_ledger_drops_events_but_keeps_record_always() {
        let ledger: EventLedger<i32> = EventLedger::new();
        ledger.set_enabled(false);
        ledger.record(0, 1);
        ledger.record_always(0, 2);
        assert_eq!(ledger.snapshot(), vec![(0, 2)]);
    }

    #[test]
    fn ring_within_capacity_matches_unbounded_exactly() {
        let bounded: EventLedger<i32> = EventLedger::with_capacity(4);
        let unbounded: EventLedger<i32> = EventLedger::new();
        for (it, e) in [(0, 2), (0, -1), (1, 7), (1, 3)] {
            bounded.record(it, e);
            unbounded.record(it, e);
        }
        assert_eq!(bounded.snapshot(), unbounded.snapshot());
        assert_eq!(bounded.canonical(), unbounded.canonical());
        assert_eq!(bounded.dropped_total(), 0);
        assert!(bounded.dropped_by_kind().is_empty());
    }

    #[test]
    fn ring_evicts_oldest_droppable_with_exact_accounting() {
        let ledger: EventLedger<i32> = EventLedger::with_capacity(2);
        ledger.record(0, 1); // pos
        ledger.record(0, -2); // neg
        ledger.record(1, 3); // pos: evicts `1`
        ledger.record(1, 4); // pos: evicts `-2`
        assert_eq!(ledger.snapshot(), vec![(1, 3), (1, 4)]);
        assert_eq!(ledger.dropped_total(), 2);
        assert_eq!(ledger.dropped_by_kind(), vec![("neg", 1), ("pos", 1)]);
    }

    #[test]
    fn ring_never_evicts_pinned_events() {
        let ledger: EventLedger<i32> = EventLedger::with_capacity(1);
        ledger.record_always(0, -7);
        ledger.record(0, 1);
        ledger.record(1, 2); // evicts `1`, not the pinned `-7`
        ledger.record_always(1, -8);
        assert_eq!(ledger.snapshot(), vec![(0, -7), (1, 2), (1, -8)]);
        assert_eq!(ledger.dropped_by_kind(), vec![("pos", 1)]);
        // The pinned-event view (how degradations are drained) is lossless.
        let negs = ledger.drain_filter_map(|e| if *e < 0 { Some(*e) } else { None });
        assert_eq!(negs, vec![-7, -8]);
    }

    #[test]
    fn ring_eviction_below_drain_cursor_keeps_view_consistent() {
        let ledger: EventLedger<i32> = EventLedger::with_capacity(2);
        ledger.record(0, 1);
        ledger.record(0, 2);
        // Drain everything recorded so far.
        assert_eq!(ledger.drain_filter_map(|e| Some(*e)), vec![1, 2]);
        // This eviction removes an already-drained item below the cursor;
        // the next drain must return only the new event, not re-show `2`.
        ledger.record(1, 3);
        assert_eq!(ledger.drain_filter_map(|e| Some(*e)), vec![3]);
        assert_eq!(ledger.snapshot(), vec![(0, 2), (1, 3)]);
    }
}
