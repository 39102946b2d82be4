//! Golden session fingerprints: two short `SessionRunner::run` sessions with
//! the default rising bandit, one multi-label (BDD) and one single-label
//! (K20-skew), pinned bit for bit.
//!
//! Each fingerprint is an FNV-1a digest of the label sequence, the final
//! extractor, every record's held-out macro F1 bits, and the ordered CV
//! scores (`EvaluationCompleted::score_bits`) from the event ledger. Between
//! them the two sessions run the single- and multi-label training, CV and
//! held-out evaluation paths end to end, so a refactor of any of them that
//! moves a single bit fails here.

use vocalexplore::prelude::*;
use vocalexplore::SessionEvent;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Digest plus the sizes it covers, so a mismatch says what moved.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    labels: usize,
    evaluated_records: usize,
    cv_scores: usize,
    digest: u64,
}

fn fingerprint(outcome: &SessionOutcome) -> Fingerprint {
    let mut h = Fnv::new();
    for record in &outcome.labels {
        h.u64(record.vid.0);
        h.u64(record.range.start.to_bits());
        h.u64(record.range.end.to_bits());
        h.u64(u64::from(record.iteration));
        h.u64(record.classes.len() as u64);
        for &c in &record.classes {
            h.u64(c as u64);
        }
    }
    h.u64(outcome.final_extractor.index() as u64);
    let mut evaluated_records = 0;
    for record in &outcome.records {
        match record.macro_f1 {
            Some(f1) => {
                evaluated_records += 1;
                h.u64(f1.to_bits());
            }
            None => h.u64(u64::MAX),
        }
    }
    let mut cv_scores = 0;
    for (_, event) in &outcome.events {
        if let SessionEvent::EvaluationCompleted { score_bits, .. } = event {
            cv_scores += 1;
            h.u64(*score_bits);
        }
    }
    Fingerprint {
        labels: outcome.labels.len(),
        evaluated_records,
        cv_scores,
        digest: h.0,
    }
}

fn session(dataset: DatasetName, scale: f64, seed: u64) -> SessionOutcome {
    let mut cfg = SessionConfig::new(dataset, scale, seed)
        .with_iterations(10)
        .with_eval_every(2);
    cfg.system.train.epochs = 40;
    SessionRunner::new(cfg).run()
}

#[test]
fn multi_label_bdd_session_is_pinned() {
    let outcome = session(DatasetName::Bdd, 0.3, 5);
    assert_eq!(
        fingerprint(&outcome),
        Fingerprint {
            labels: 50,
            evaluated_records: 5,
            cv_scores: 40,
            digest: 8351149571215620160,
        }
    );
}

#[test]
fn single_label_k20_skew_session_is_pinned() {
    let outcome = session(DatasetName::K20Skew, 0.1, 5);
    assert_eq!(
        fingerprint(&outcome),
        Fingerprint {
            labels: 50,
            evaluated_records: 5,
            cv_scores: 20,
            digest: 641233327131159420,
        }
    );
}
