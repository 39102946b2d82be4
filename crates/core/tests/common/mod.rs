//! Shared assertion for the inline-vs-threaded session equivalence tests.

use vocalexplore::{IterationRecord, SessionOutcome};

/// Asserts that two runs of one session config agree on everything that
/// does not depend on the executor: the label sequence, every record field
/// except the wall-clock measurements, the final extractor, the canonical
/// event ledger, the degradation ledger as a sequence, the cold/warm
/// training counts (`warm-start/v1` is a pure function of the training-call
/// history, so the warm path must replay identically too), and the ALM's
/// probability-row counters (the prefetch runs on the session thread at
/// fixed points of the loop, so served and scored rows match too).
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
    assert_eq!(
        other.training, reference.training,
        "cold/warm training counts diverged ({context})"
    );
    assert_eq!(
        other.prob_cache, reference.prob_cache,
        "prefetched/scored probability rows or served pools diverged ({context})"
    );
}
