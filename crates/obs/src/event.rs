//! The deterministic event plane: an unbounded ledger of `(iteration, event)`
//! pairs.
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
//! The raw recording order is still meaningful on a single path: the
//! degradation ledger exposed by `vocalexplore` is a cursor-based *view*
//! over this plane ([`EventLedger::drain_filter_map`]), preserving the exact
//! `Vec<Degradation>` ordering older code promised.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Names an event's kind for per-kind counts. The returned string must be a
/// pure function of the variant (not its payload) so per-kind totals are
/// comparable across runs.
pub trait EventKind {
    fn kind(&self) -> &'static str;
}

struct LedgerState<E> {
    items: Vec<(u32, E)>,
    /// Index of the first item not yet returned by `drain_filter_map`.
    drain_cursor: usize,
}

/// Thread-safe event ledger. `E` is the concrete event enum of the
/// instrumented system; its `Ord` defines the canonical intra-iteration
/// order (derive it with the variants listed in phase order).
pub struct EventLedger<E> {
    ledger: Mutex<LedgerState<E>>,
    enabled: AtomicBool,
}

impl<E: Clone + Ord> EventLedger<E> {
    pub fn new() -> Self {
        Self {
            ledger: Mutex::new(LedgerState {
                items: Vec::new(),
                drain_cursor: 0,
            }),
            enabled: AtomicBool::new(true),
        }
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
    pub fn record(&self, iteration: u32, event: E) {
        if self.is_enabled() {
            self.record_always(iteration, event);
        }
    }

    /// Records regardless of the enabled flag — for events that are also
    /// program state (the degradation view is built on these).
    pub fn record_always(&self, iteration: u32, event: E) {
        self.ledger
            .lock()
            .expect("obs.ledger poisoned")
            .items
            .push((iteration, event));
    }

    pub fn len(&self) -> usize {
        self.ledger.lock().expect("obs.ledger poisoned").items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ledger in raw recording order.
    pub fn snapshot(&self) -> Vec<(u32, E)> {
        self.ledger
            .lock()
            .expect("obs.ledger poisoned")
            .items
            .clone()
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
    /// API becomes a view over the event plane.
    pub fn drain_filter_map<T>(&self, f: impl Fn(&E) -> Option<T>) -> Vec<T> {
        let mut state = self.ledger.lock().expect("obs.ledger poisoned");
        let from = state.drain_cursor;
        state.drain_cursor = state.items.len();
        state.items[from..]
            .iter()
            .filter_map(|(_, event)| f(event))
            .collect()
    }
}

impl<E: Clone + Ord> Default for EventLedger<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
