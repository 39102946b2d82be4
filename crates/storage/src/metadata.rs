//! The video catalog: one row per registered video (`AddVideo` in the API).

use std::collections::BTreeMap;
use ve_vidsim::VideoId;

/// One row of the video catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct VideoRecord {
    /// Video id.
    pub vid: VideoId,
    /// Path the user registered the video under.
    pub path: String,
    /// Duration in seconds.
    pub duration: f64,
    /// Capture start time (Unix-style seconds).
    pub start_timestamp: f64,
}

/// In-memory video catalog with ordered iteration by id.
#[derive(Debug, Clone, Default)]
pub struct VideoMetadataStore {
    rows: BTreeMap<VideoId, VideoRecord>,
}

impl VideoMetadataStore {
    /// Creates an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts or replaces a record. Returns `true` if the video was new.
    pub fn insert(&mut self, record: VideoRecord) -> bool {
        self.rows.insert(record.vid, record).is_none()
    }

    /// Looks up a record.
    pub fn get(&self, vid: VideoId) -> Option<&VideoRecord> {
        self.rows.get(&vid)
    }

    /// Number of registered videos.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// All video ids in ascending order.
    pub fn ids(&self) -> Vec<VideoId> {
        self.rows.keys().copied().collect()
    }

    /// Iterates over records in id order.
    pub fn iter(&self) -> impl Iterator<Item = &VideoRecord> {
        self.rows.values()
    }

    /// Total catalog duration in seconds.
    pub fn total_duration(&self) -> f64 {
        // ve-lint: allow(float-reduction-order) -- BTreeMap::values() iterates in key order, so the reduction order is fixed
        self.rows.values().map(|r| r.duration).sum::<f64>()
    }

    /// Removes a record, returning it if present.
    pub fn remove(&mut self, vid: VideoId) -> Option<VideoRecord> {
        self.rows.remove(&vid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, dur: f64) -> VideoRecord {
        VideoRecord {
            vid: VideoId(id),
            path: format!("videos/{id}.mp4"),
            duration: dur,
            start_timestamp: id as f64 * 100.0,
        }
    }

    #[test]
    fn insert_get_and_replace() {
        let mut s = VideoMetadataStore::new();
        assert!(s.insert(rec(1, 10.0)));
        assert!(!s.insert(rec(1, 12.0)), "re-insert replaces");
        assert_eq!(s.get(VideoId(1)).unwrap().duration, 12.0);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn ids_are_sorted_and_aggregates_work() {
        let mut s = VideoMetadataStore::new();
        s.insert(rec(5, 10.0));
        s.insert(rec(2, 20.0));
        s.insert(rec(9, 30.0));
        assert_eq!(s.ids(), vec![VideoId(2), VideoId(5), VideoId(9)]);
        assert_eq!(s.total_duration(), 60.0);
        assert_eq!(s.iter().count(), 3);
    }

    #[test]
    fn remove_round_trip() {
        let mut s = VideoMetadataStore::new();
        s.insert(rec(1, 10.0));
        assert!(s.remove(VideoId(1)).is_some());
        assert!(s.remove(VideoId(1)).is_none());
        assert!(s.is_empty());
    }
}
