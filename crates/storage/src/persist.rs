//! Snapshot format for the storage manager.
//!
//! Layout (all little-endian, see [`crate::codec`]):
//!
//! ```text
//! magic "VESM" | version u8
//! u32 n_videos   | n_videos  × { vid u64, path str, duration f64, ts f64 }
//! u32 n_labels   | n_labels  × { vid u64, start f64, end f64, classes u64[], iteration u32 }
//! u32 n_features | n_features× { extractor u8, vid u64,
//!                                u32 n_vectors × { start f64, end f64, data f32[] } }
//! ```

#![allow(clippy::disallowed_types)] // HashMap by design: order-exposing uses are policed by ve-lint nondeterministic-iteration

use crate::codec::{Reader, Writer};
use crate::error::StorageError;
use crate::feature_store::FeatureStore;
use crate::labels::{LabelRecord, LabelStore};
use crate::metadata::{VideoMetadataStore, VideoRecord};
use ve_features::{ExtractorId, FeatureVector};
use ve_vidsim::{TimeRange, VideoId};

const MAGIC: &[u8; 4] = b"VESM";
const VERSION: u8 = 1;
/// Smallest encoding of one feature vector: `start f64, end f64` and an
/// empty `f32[]` (its `u32` length).
const MIN_VECTOR_BYTES: usize = 8 + 8 + 4;

/// Encodes the three stores into a snapshot buffer.
pub fn encode_snapshot(
    metadata: &VideoMetadataStore,
    labels: &LabelStore,
    features: &FeatureStore,
) -> Vec<u8> {
    let mut w = Writer::with_capacity(1024);
    for &b in MAGIC {
        w.put_u8(b);
    }
    w.put_u8(VERSION);

    // Videos.
    w.put_u32(metadata.len() as u32);
    for rec in metadata.iter() {
        w.put_u64(rec.vid.0);
        w.put_str(&rec.path);
        w.put_f64(rec.duration);
        w.put_f64(rec.start_timestamp);
    }

    // Labels.
    w.put_u32(labels.len() as u32);
    for rec in labels.records() {
        w.put_u64(rec.vid.0);
        w.put_f64(rec.range.start);
        w.put_f64(rec.range.end);
        let classes: Vec<u64> = rec.classes.iter().map(|&c| c as u64).collect();
        w.put_u64_slice(&classes);
        w.put_u32(rec.iteration);
    }

    // Features.
    let entries: Vec<_> = features.iter().collect();
    w.put_u32(entries.len() as u32);
    for ((extractor, vid), entry) in entries {
        w.put_u8(extractor.index() as u8);
        w.put_u64(vid.0);
        w.put_u32(entry.len() as u32);
        for i in 0..entry.len() {
            let range = entry.range(i);
            w.put_f64(range.start);
            w.put_f64(range.end);
            w.put_f32_slice(entry.row(i));
        }
    }
    w.into_bytes()
}

/// Fault-aware variant of [`decode_snapshot`]: consults the injector's
/// `SnapshotDecode` site (keyed by the buffer length) before decoding, so
/// chaos tests can exercise the snapshot-corruption recovery path
/// deterministically.
pub fn decode_snapshot_with_fault(
    bytes: &[u8],
    fault: Option<&ve_sched::fault::FaultInjector>,
) -> Result<(VideoMetadataStore, LabelStore, FeatureStore), StorageError> {
    if let Some(inj) = fault {
        if inj.should_fail(
            ve_sched::fault::FaultSite::SnapshotDecode,
            bytes.len() as u64,
            0,
        ) {
            return Err(StorageError::Corrupt(
                "injected snapshot-decode fault".into(),
            ));
        }
    }
    decode_snapshot(bytes)
}

/// Decodes a snapshot buffer back into the three stores.
pub fn decode_snapshot(
    bytes: &[u8],
) -> Result<(VideoMetadataStore, LabelStore, FeatureStore), StorageError> {
    let mut r = Reader::new(bytes);
    let mut magic = [0u8; 4];
    for b in &mut magic {
        *b = r.get_u8()?;
    }
    if &magic != MAGIC {
        return Err(StorageError::Corrupt("bad magic".into()));
    }
    let version = r.get_u8()?;
    if version != VERSION {
        return Err(StorageError::Corrupt(format!(
            "unsupported snapshot version {version}"
        )));
    }

    let mut metadata = VideoMetadataStore::new();
    let n_videos = r.get_u32()?;
    for _ in 0..n_videos {
        let vid = VideoId(r.get_u64()?);
        let path = r.get_str()?;
        let duration = r.get_f64()?;
        let start_timestamp = r.get_f64()?;
        metadata.insert(VideoRecord {
            vid,
            path,
            duration,
            start_timestamp,
        });
    }

    let mut labels = LabelStore::new();
    let n_labels = r.get_u32()?;
    for _ in 0..n_labels {
        let vid = VideoId(r.get_u64()?);
        let start = r.get_f64()?;
        let end = r.get_f64()?;
        if !start.is_finite() || !end.is_finite() || start > end {
            return Err(StorageError::Corrupt(format!(
                "invalid label range [{start}, {end})"
            )));
        }
        let classes: Vec<usize> = r.get_u64_vec()?.into_iter().map(|c| c as usize).collect();
        let iteration = r.get_u32()?;
        labels.add(LabelRecord {
            vid,
            range: TimeRange::new(start, end),
            classes,
            iteration,
        });
    }

    let mut features = FeatureStore::new();
    let n_entries = r.get_u32()?;
    for _ in 0..n_entries {
        let eidx = r.get_u8()? as usize;
        if eidx >= ve_features::EXTRACTOR_COUNT {
            return Err(StorageError::Corrupt(format!(
                "unknown extractor index {eidx}"
            )));
        }
        let extractor = ExtractorId::from_index(eidx);
        let vid = VideoId(r.get_u64()?);
        let n_vectors = r.get_u32()?;
        // The count is untrusted: reserve no more than the buffer can hold.
        let mut vectors =
            Vec::with_capacity((n_vectors as usize).min(r.remaining() / MIN_VECTOR_BYTES));
        for _ in 0..n_vectors {
            let start = r.get_f64()?;
            let end = r.get_f64()?;
            if !start.is_finite() || !end.is_finite() || start > end {
                return Err(StorageError::Corrupt(format!(
                    "invalid feature range [{start}, {end})"
                )));
            }
            let data = r.get_f32_vec()?;
            vectors.push(FeatureVector {
                extractor,
                vid,
                range: TimeRange::new(start, end),
                data,
            });
        }
        features.put(extractor, vid, vectors);
    }

    Ok((metadata, labels, features))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stores() -> (VideoMetadataStore, LabelStore, FeatureStore) {
        let mut metadata = VideoMetadataStore::new();
        for i in 0..5u64 {
            metadata.insert(VideoRecord {
                vid: VideoId(i),
                path: format!("clips/{i}.mp4"),
                duration: 10.0 + i as f64,
                start_timestamp: i as f64 * 60.0,
            });
        }
        let mut labels = LabelStore::new();
        labels.add(LabelRecord {
            vid: VideoId(0),
            range: TimeRange::new(0.0, 1.0),
            classes: vec![1, 3],
            iteration: 2,
        });
        labels.add(LabelRecord {
            vid: VideoId(3),
            range: TimeRange::new(4.0, 5.0),
            classes: vec![],
            iteration: 7,
        });
        let mut features = FeatureStore::new();
        features.put(
            ExtractorId::Mvit,
            VideoId(0),
            vec![FeatureVector {
                extractor: ExtractorId::Mvit,
                vid: VideoId(0),
                range: TimeRange::new(0.0, 1.0),
                data: vec![1.0, 2.0, 3.0],
            }],
        );
        (metadata, labels, features)
    }

    /// Snapshot bytes must be a pure function of store *state*, independent
    /// of the order entries were inserted (regression: `FeatureStore::iter`
    /// used to expose raw `HashMap` order, so identical stores produced
    /// different snapshot files from run to run).
    #[test]
    fn snapshot_bytes_independent_of_insertion_order() {
        let (metadata, labels, _) = sample_stores();
        let vector = |e: ExtractorId, v: u64| {
            vec![FeatureVector {
                extractor: e,
                vid: VideoId(v),
                range: TimeRange::new(0.0, 1.0),
                data: vec![v as f32, 2.0],
            }]
        };
        let keys = [
            (ExtractorId::Mvit, 3u64),
            (ExtractorId::R3d, 1),
            (ExtractorId::Clip, 2),
            (ExtractorId::R3d, 0),
        ];
        let mut forward = FeatureStore::new();
        for &(e, v) in &keys {
            forward.put(e, VideoId(v), vector(e, v));
        }
        let mut reverse = FeatureStore::new();
        for &(e, v) in keys.iter().rev() {
            reverse.put(e, VideoId(v), vector(e, v));
        }
        let sorted: Vec<_> = forward.iter().map(|(k, _)| *k).collect();
        let mut expected = sorted.clone();
        expected.sort();
        assert_eq!(sorted, expected, "FeatureStore::iter must be key-sorted");
        assert_eq!(
            encode_snapshot(&metadata, &labels, &forward),
            encode_snapshot(&metadata, &labels, &reverse),
            "snapshot bytes must not depend on insertion order"
        );
    }

    #[test]
    fn encode_decode_round_trip() {
        let (m, l, f) = sample_stores();
        let bytes = encode_snapshot(&m, &l, &f);
        let (m2, l2, f2) = decode_snapshot(&bytes).unwrap();
        assert_eq!(m2.len(), 5);
        assert_eq!(m2.get(VideoId(3)).unwrap().duration, 13.0);
        assert_eq!(l2.len(), 2);
        assert_eq!(l2.records()[0].classes, vec![1, 3]);
        assert_eq!(l2.records()[1].classes, Vec::<usize>::new());
        assert_eq!(
            f2.get(ExtractorId::Mvit, VideoId(0)).unwrap().row(0),
            &[1.0, 2.0, 3.0]
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let (m, l, f) = sample_stores();
        let mut bytes = encode_snapshot(&m, &l, &f);
        bytes[0] = b'X';
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn unsupported_version_rejected() {
        let (m, l, f) = sample_stores();
        let mut bytes = encode_snapshot(&m, &l, &f);
        bytes[4] = 99;
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(StorageError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_snapshot_rejected() {
        let (m, l, f) = sample_stores();
        let bytes = encode_snapshot(&m, &l, &f);
        let truncated = &bytes[..bytes.len() / 2];
        assert!(decode_snapshot(truncated).is_err());
    }

    #[test]
    fn empty_stores_round_trip() {
        let bytes = encode_snapshot(
            &VideoMetadataStore::new(),
            &LabelStore::new(),
            &FeatureStore::new(),
        );
        let (m, l, f) = decode_snapshot(&bytes).unwrap();
        assert!(m.is_empty() && l.is_empty() && f.is_empty());
    }

    #[test]
    fn injected_snapshot_decode_fault_surfaces_as_corrupt() {
        use ve_sched::fault::{FaultInjector, FaultPlan, FaultRule, FaultSite};
        let (metadata, labels, features) = sample_stores();
        let bytes = encode_snapshot(&metadata, &labels, &features);
        // No injector (or an uncovered site): decode succeeds.
        assert!(decode_snapshot_with_fault(&bytes, None).is_ok());
        let benign = FaultInjector::new(FaultPlan::new(4));
        assert!(decode_snapshot_with_fault(&bytes, Some(&benign)).is_ok());
        // Covered site at probability 1: deterministic Corrupt error.
        let inj = FaultInjector::new(
            FaultPlan::new(4).with_rule(FaultSite::SnapshotDecode, FaultRule::permanent(1.0)),
        );
        let err = decode_snapshot_with_fault(&bytes, Some(&inj)).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "got {err}");
        assert_eq!(inj.injected_at(FaultSite::SnapshotDecode), 1);
    }

    #[test]
    fn decode_rejects_a_vector_count_past_the_buffer() {
        let mut w = Writer::with_capacity(32);
        for &b in MAGIC {
            w.put_u8(b);
        }
        w.put_u8(VERSION);
        w.put_u32(0); // videos
        w.put_u32(0); // labels
        w.put_u32(1); // feature entries
        w.put_u8(0);
        w.put_u64(7);
        w.put_u32(u32::MAX); // vectors, none of which follow
        let err = decode_snapshot(&w.into_bytes()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "got {err}");
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]
            #[test]
            fn decode_never_panics_on_mutated_snapshots(
                flip in proptest::collection::vec((0usize..2000, any::<u8>()), 1..8)
            ) {
                let (m, l, f) = sample_stores();
                let mut bytes = encode_snapshot(&m, &l, &f);
                for (pos, val) in flip {
                    if !bytes.is_empty() {
                        let idx = pos % bytes.len();
                        bytes[idx] = val;
                    }
                }
                // Must return Ok or Err without panicking or aborting.
                let _ = decode_snapshot(&bytes);
            }

            #[test]
            fn label_round_trip_arbitrary(
                vid in 0u64..1000,
                start in 0.0f64..100.0,
                len in 0.1f64..10.0,
                classes in proptest::collection::vec(0usize..50, 0..5),
                iteration in 0u32..500,
            ) {
                let mut labels = LabelStore::new();
                labels.add(LabelRecord {
                    vid: VideoId(vid),
                    range: TimeRange::new(start, start + len),
                    classes: classes.clone(),
                    iteration,
                });
                let bytes = encode_snapshot(&VideoMetadataStore::new(), &labels, &FeatureStore::new());
                let (_, l2, _) = decode_snapshot(&bytes).unwrap();
                prop_assert_eq!(l2.records()[0].classes.clone(), classes);
                prop_assert_eq!(l2.records()[0].iteration, iteration);
            }
        }
    }
}
