//! Shared assertion for the inline-vs-threaded session equivalence tests.

use vocalexplore::{IterationRecord, SessionOutcome};

/// Asserts that two runs of one session config agree on everything that
/// does not depend on the executor: the label sequence, every record field
/// except the wall-clock measurements, the final extractor, the canonical
/// event ledger, and the degradation ledger as a sequence.
pub fn assert_same_session(reference: &SessionOutcome, other: &SessionOutcome, context: &str) {
    let deterministic = |o: &SessionOutcome| -> Vec<IterationRecord> {
        o.records
            .iter()
            .map(|r| IterationRecord {
                measured_visible_secs: None,
                spill_wall_secs: None,
                ..r.clone()
            })
            .collect()
    };
    assert_eq!(
        other.labels, reference.labels,
        "labels diverged ({context})"
    );
    assert_eq!(
        deterministic(other),
        deterministic(reference),
        "records diverged ({context})"
    );
    assert_eq!(
        other.final_extractor, reference.final_extractor,
        "final extractor diverged ({context})"
    );
    assert_eq!(
        other.events, reference.events,
        "event ledgers diverged ({context})"
    );
    assert_eq!(
        other.degradations, reference.degradations,
        "degradation ledgers diverged ({context})"
    );
}
