//! The structured relation `VR(fid, id, class)` extracted from a video feed.
//!
//! The object detection/tracking layer (real or simulated) reduces every
//! frame to the set of objects visible in it, each carrying a persistent
//! object identifier and a class label. [`VideoRelation`] stores that
//! relation frame by frame and is the only interface between the vision
//! substrate and the query-processing layers.

use std::collections::HashMap;

use crate::class::ClassRegistry;
use crate::ids::{ClassId, FrameId, ObjectId};
use crate::object_set::ObjectSet;

/// One tuple of the structured relation: object `id` of class `class` was
/// detected in frame `fid`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjectRecord {
    /// Frame in which the object was detected.
    pub fid: FrameId,
    /// Persistent object identifier assigned by the tracker.
    pub id: ObjectId,
    /// Class of the object.
    pub class: ClassId,
}

/// The detections of a single frame: the set of visible objects plus the
/// class of each.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FrameObjects {
    /// Frame identifier.
    pub fid: FrameId,
    /// Sorted set of objects visible in the frame.
    pub objects: ObjectSet,
    /// Class of every object in `objects`.
    pub classes: Vec<(ObjectId, ClassId)>,
    /// Tracker identifiers whose tracks *ended* at this frame. An explicit
    /// end-of-track event tells consumers the id's previous owner is gone
    /// for good, so a later reappearance of the same id — even with the
    /// same class — is a new physical object. Ends apply **before** this
    /// frame's detections: an id in both lists was ended and instantly
    /// recycled to a newcomer visible this very frame. Ingest protocols
    /// without end events leave this empty; consumers then fall back to
    /// coarser reuse detection (class changes, epoch retirement).
    pub track_ends: Vec<ObjectId>,
}

impl FrameObjects {
    /// Builds the per-frame detection set from `(object, class)` pairs.
    pub fn new(fid: FrameId, mut detections: Vec<(ObjectId, ClassId)>) -> Self {
        detections.sort_unstable_by_key(|&(id, _)| id);
        detections.dedup_by_key(|&mut (id, _)| id);
        let objects =
            ObjectSet::from_sorted_unchecked(detections.iter().map(|&(id, _)| id).collect());
        FrameObjects {
            fid,
            objects,
            classes: detections,
            track_ends: Vec::new(),
        }
    }

    /// Attaches tracker end-of-track events to the frame. Duplicates are
    /// removed and the list is sorted so frames compare deterministically.
    /// An id that also appears in this frame's detections is legal: the
    /// end applies first, so the detection is the id's *next* owner.
    pub fn with_track_ends(mut self, mut ends: Vec<ObjectId>) -> Self {
        ends.sort_unstable();
        ends.dedup();
        self.track_ends = ends;
        self
    }

    /// Number of objects detected in the frame.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the frame contains no detections.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Class of a specific object in this frame, if present.
    pub fn class_of(&self, id: ObjectId) -> Option<ClassId> {
        self.classes
            .binary_search_by_key(&id, |&(o, _)| o)
            .ok()
            .map(|idx| self.classes[idx].1)
    }
}

/// A full structured relation: the per-frame object sets of a (bounded)
/// video feed together with the global object → class mapping.
///
/// Frames are stored densely in presentation order. The relation also keeps
/// the class registry used to name classes so it is self-describing.
#[derive(Debug, Clone)]
pub struct VideoRelation {
    frames: Vec<FrameObjects>,
    classes: HashMap<ObjectId, ClassId>,
    registry: ClassRegistry,
}

impl VideoRelation {
    /// Creates an empty relation using the given class registry.
    pub fn new(registry: ClassRegistry) -> Self {
        VideoRelation {
            frames: Vec::new(),
            classes: HashMap::new(),
            registry,
        }
    }

    /// Creates an empty relation with the default (person/car/truck/bus)
    /// registry.
    pub fn with_default_classes() -> Self {
        VideoRelation::new(ClassRegistry::with_default_classes())
    }

    /// Appends the next frame, described by `(object id, class id)` pairs,
    /// and returns its id (the frame count before the call).
    pub fn push_detections(&mut self, detections: Vec<(ObjectId, ClassId)>) -> FrameId {
        let fid = FrameId(self.frames.len() as u64);
        let frame = FrameObjects::new(fid, detections);
        for &(id, class) in &frame.classes {
            self.classes.entry(id).or_insert(class);
        }
        self.frames.push(frame);
        fid
    }

    /// Number of frames in the relation.
    pub fn num_frames(&self) -> usize {
        self.frames.len()
    }

    /// Whether the relation holds no frames.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Number of distinct objects observed across the whole feed.
    pub fn num_objects(&self) -> usize {
        self.classes.len()
    }

    /// The class registry describing this relation's class identifiers.
    pub fn registry(&self) -> &ClassRegistry {
        &self.registry
    }

    /// The global class of an object (objects keep one class for the whole
    /// feed — trackers do not change an object's class).
    pub fn class_of(&self, id: ObjectId) -> Option<ClassId> {
        self.classes.get(&id).copied()
    }

    /// The object → class mapping for the whole feed.
    pub fn object_classes(&self) -> &HashMap<ObjectId, ClassId> {
        &self.classes
    }

    /// The detections of frame `fid`, if it exists.
    pub fn frame(&self, fid: FrameId) -> Option<&FrameObjects> {
        self.frames.get(fid.raw() as usize)
    }

    /// Iterates over frames in presentation order.
    pub fn frames(&self) -> impl Iterator<Item = &FrameObjects> {
        self.frames.iter()
    }

    /// Iterates over the flat `(fid, id, class)` records of the relation.
    pub fn records(&self) -> impl Iterator<Item = ObjectRecord> + '_ {
        self.frames.iter().flat_map(|frame| {
            frame.classes.iter().map(move |&(id, class)| ObjectRecord {
                fid: frame.fid,
                id,
                class,
            })
        })
    }

    /// Returns a copy of the relation truncated to its first `n` frames.
    pub fn truncated(&self, n: usize) -> VideoRelation {
        VideoRelation {
            frames: self.frames.iter().take(n).cloned().collect(),
            classes: self
                .frames
                .iter()
                .take(n)
                .flat_map(|f| f.classes.iter().copied())
                .collect(),
            registry: self.registry.clone(),
        }
    }

    /// Total number of `(fid, id, class)` tuples.
    pub fn num_records(&self) -> usize {
        self.frames.iter().map(|f| f.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_relation() -> VideoRelation {
        // Mirrors the 5-frame example of Section 2: ({B},{ABC},{ABDF},{ABCF},{ABD})
        // with everything of class "car" except object 1 (A) which is a person.
        let mut vr = VideoRelation::with_default_classes();
        let person = vr.registry().id("person").unwrap();
        let car = vr.registry().id("car").unwrap();
        let class_of = |o: u32| if o == 1 { person } else { car };
        let frames: Vec<Vec<u32>> = vec![
            vec![2],
            vec![1, 2, 3],
            vec![1, 2, 4, 6],
            vec![1, 2, 3, 6],
            vec![1, 2, 4],
        ];
        for objs in frames {
            vr.push_detections(
                objs.into_iter()
                    .map(|o| (ObjectId(o), class_of(o)))
                    .collect(),
            );
        }
        vr
    }

    #[test]
    fn push_and_query_frames() {
        let vr = small_relation();
        assert_eq!(vr.num_frames(), 5);
        assert_eq!(vr.num_objects(), 5);
        assert_eq!(vr.num_records(), 1 + 3 + 4 + 4 + 3);
        let f2 = vr.frame(FrameId(2)).unwrap();
        assert_eq!(f2.objects, ObjectSet::from_raw([1, 2, 4, 6]));
        assert!(vr.frame(FrameId(9)).is_none());
    }

    #[test]
    fn classes_are_persistent_per_object() {
        let vr = small_relation();
        let person = vr.registry().id("person").unwrap();
        let car = vr.registry().id("car").unwrap();
        assert_eq!(vr.class_of(ObjectId(1)), Some(person));
        assert_eq!(vr.class_of(ObjectId(6)), Some(car));
        assert_eq!(vr.class_of(ObjectId(99)), None);
        let f1 = vr.frame(FrameId(1)).unwrap();
        assert_eq!(f1.class_of(ObjectId(1)), Some(person));
        assert_eq!(f1.class_of(ObjectId(9)), None);
    }

    #[test]
    fn truncation_keeps_prefix() {
        let vr = small_relation();
        let t = vr.truncated(2);
        assert_eq!(t.num_frames(), 2);
        assert_eq!(t.num_objects(), 3); // A, B, C (B appears in both frames)
    }

    #[test]
    fn track_ends_are_sorted_and_deduped() {
        let car = ClassId(1);
        let frame = FrameObjects::new(FrameId(0), vec![(ObjectId(5), car), (ObjectId(2), car)])
            .with_track_ends(vec![ObjectId(9), ObjectId(5), ObjectId(3), ObjectId(9)]);
        // Sorted and deduplicated; id 5 is kept even though it is also
        // detected — the end applies first, the detection is its recycled
        // successor.
        assert_eq!(
            frame.track_ends,
            vec![ObjectId(3), ObjectId(5), ObjectId(9)]
        );
        // Plain construction carries no end events.
        assert!(FrameObjects::new(FrameId(1), vec![]).track_ends.is_empty());
    }

    #[test]
    fn frame_objects_dedups_duplicate_detections() {
        let car = ClassId(1);
        let frame = FrameObjects::new(
            FrameId(0),
            vec![(ObjectId(5), car), (ObjectId(5), car), (ObjectId(2), car)],
        );
        assert_eq!(frame.len(), 2);
        assert_eq!(frame.objects, ObjectSet::from_raw([2, 5]));
    }
}
