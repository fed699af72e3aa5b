//! Dataset statistics in the shape of the paper's Table 6.
//!
//! The paper characterises each video by five quantities: total frames,
//! total unique objects, average objects per frame (`Obj/F`), average
//! occlusions per object (`Occ/Obj`) and average frames per object
//! (`F/Obj`). These statistics drive both the synthetic dataset profiles and
//! the reproduction of Table 6, so they are computed here, directly from a
//! [`VideoRelation`].
//!
//! An *occlusion* of an object is counted exactly as the paper's tracking
//! layer observes it: a maximal gap in the object's appearance — the object
//! is visible, disappears for one or more frames, and reappears later with
//! the same identifier.

use std::collections::HashMap;
use std::fmt;

use crate::ids::{FrameId, ObjectId};
use crate::relation::VideoRelation;

/// Summary statistics of a video relation (one row of Table 6).
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStats {
    /// Total number of frames in the feed.
    pub frames: usize,
    /// Total number of unique object identifiers.
    pub objects: usize,
    /// Average number of objects per frame.
    pub objects_per_frame: f64,
    /// Average number of occlusions (appearance gaps) per object.
    pub occlusions_per_object: f64,
    /// Average number of frames in which each object appears.
    pub frames_per_object: f64,
}

impl DatasetStats {
    /// Computes the statistics of a relation.
    pub fn of(relation: &VideoRelation) -> DatasetStats {
        let frames = relation.num_frames();
        let mut appearances: HashMap<ObjectId, Vec<FrameId>> = HashMap::new();
        let mut total_detections = 0usize;
        for frame in relation.frames() {
            total_detections += frame.len();
            for id in frame.objects.iter() {
                appearances.entry(id).or_default().push(frame.fid);
            }
        }
        let objects = appearances.len();
        let mut total_occlusions = 0usize;
        let mut total_appearances = 0usize;
        for frames_of_object in appearances.values() {
            total_appearances += frames_of_object.len();
            total_occlusions += frames_of_object
                .windows(2)
                .filter(|w| w[1].raw() > w[0].raw() + 1)
                .count();
        }
        // infallible: both sum one entry per (frame, object) pair, since a
        // frame's objects are deduplicated.
        debug_assert_eq!(total_appearances, total_detections);
        let objects_f = objects.max(1) as f64;
        DatasetStats {
            frames,
            objects,
            objects_per_frame: if frames == 0 {
                0.0
            } else {
                total_detections as f64 / frames as f64
            },
            occlusions_per_object: total_occlusions as f64 / objects_f,
            frames_per_object: total_appearances as f64 / objects_f,
        }
    }

    /// Relative difference (in percent) of each statistic against a target;
    /// used to validate dataset profiles against the paper's Table 6.
    pub fn relative_error_to(&self, target: &DatasetStats) -> StatsError {
        fn rel(actual: f64, target: f64) -> f64 {
            if target == 0.0 {
                if actual == 0.0 {
                    0.0
                } else {
                    f64::INFINITY
                }
            } else {
                ((actual - target) / target).abs() * 100.0
            }
        }
        StatsError {
            frames_pct: rel(self.frames as f64, target.frames as f64),
            objects_pct: rel(self.objects as f64, target.objects as f64),
            objects_per_frame_pct: rel(self.objects_per_frame, target.objects_per_frame),
            occlusions_per_object_pct: rel(
                self.occlusions_per_object,
                target.occlusions_per_object,
            ),
            frames_per_object_pct: rel(self.frames_per_object, target.frames_per_object),
        }
    }
}

impl fmt::Display for DatasetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "frames={} objects={} obj/f={:.2} occ/obj={:.2} f/obj={:.2}",
            self.frames,
            self.objects,
            self.objects_per_frame,
            self.occlusions_per_object,
            self.frames_per_object
        )
    }
}

/// Per-statistic relative error (percent) between two [`DatasetStats`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StatsError {
    /// Relative error on the frame count.
    pub frames_pct: f64,
    /// Relative error on the unique-object count.
    pub objects_pct: f64,
    /// Relative error on objects per frame.
    pub objects_per_frame_pct: f64,
    /// Relative error on occlusions per object.
    pub occlusions_per_object_pct: f64,
    /// Relative error on frames per object.
    pub frames_per_object_pct: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassRegistry;
    use crate::ids::ClassId;
    use crate::relation::VideoRelation;

    fn relation_from_frames(frames: &[&[u32]]) -> VideoRelation {
        let mut vr = VideoRelation::new(ClassRegistry::with_default_classes());
        for objs in frames {
            vr.push_detections(objs.iter().map(|&o| (ObjectId(o), ClassId(1))).collect());
        }
        vr
    }

    #[test]
    fn empty_relation_has_zero_stats() {
        let vr = VideoRelation::with_default_classes();
        let stats = DatasetStats::of(&vr);
        assert_eq!(stats.frames, 0);
        assert_eq!(stats.objects, 0);
        assert_eq!(stats.objects_per_frame, 0.0);
    }

    #[test]
    fn basic_counts() {
        // Object 1 appears in frames 0,1,3 (one occlusion: gap at frame 2).
        // Object 2 appears in frames 1,2,3 (no occlusion).
        let vr = relation_from_frames(&[&[1], &[1, 2], &[2], &[1, 2]]);
        let stats = DatasetStats::of(&vr);
        assert_eq!(stats.frames, 4);
        assert_eq!(stats.objects, 2);
        assert!((stats.objects_per_frame - 6.0 / 4.0).abs() < 1e-12);
        assert!((stats.occlusions_per_object - 0.5).abs() < 1e-12);
        assert!((stats.frames_per_object - 3.0).abs() < 1e-12);
    }

    #[test]
    fn occlusion_counts_each_gap_once() {
        // Object 1: frames 0, 2, 5 → two gaps.
        let vr = relation_from_frames(&[&[1], &[], &[1], &[], &[], &[1]]);
        let stats = DatasetStats::of(&vr);
        assert_eq!(stats.objects, 1);
        assert!((stats.occlusions_per_object - 2.0).abs() < 1e-12);
    }

    #[test]
    fn relative_error_detects_mismatch() {
        let a = DatasetStats {
            frames: 100,
            objects: 10,
            objects_per_frame: 5.0,
            occlusions_per_object: 2.0,
            frames_per_object: 50.0,
        };
        let b = DatasetStats {
            frames: 100,
            objects: 20,
            objects_per_frame: 5.0,
            occlusions_per_object: 2.0,
            frames_per_object: 50.0,
        };
        let err = a.relative_error_to(&b);
        assert!((err.objects_pct - 50.0).abs() < 1e-9);
        assert_eq!(err.frames_pct, 0.0);
    }

    #[test]
    fn display_is_compact() {
        let vr = relation_from_frames(&[&[1, 2], &[1]]);
        let text = DatasetStats::of(&vr).to_string();
        assert!(text.contains("frames=2"));
        assert!(text.contains("objects=2"));
    }
}
