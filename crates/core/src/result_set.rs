//! The Result State Set relayed to query evaluation.
//!
//! Per Section 4.3.7 of the paper, the MCOS Generation module hands the
//! Query Evaluation module the set of states that are both *satisfied*
//! (frame set at least as long as the duration threshold) and *valid*
//! (their object set is an MCOS of their frame set). [`ResultStateSet`]
//! holds that per-window snapshot in a canonical, order-independent form so
//! that the three maintainers can be compared state-for-state.
//!
//! When the producing maintainer's `SetInterner` has a class source, each
//! entry also carries the [`ClassCounts`] of its object set, computed once
//! when the state is first reported and kept in its record while it stays
//! reported (`Reported`), so the CNF evaluator downstream skips the
//! per-frame histogram rebuild. Cached counts are an evaluation accelerator,
//! not part of the result semantics: equality between result sets ignores
//! them.

use std::collections::BTreeMap;
use std::sync::Arc;

use tvq_common::{ClassCounts, FrameId, MarkedFrameSet, ObjectSet};

/// One result entry: the state's frame set plus (optionally) the class
/// counts the producing maintainer keeps for the reported set. The frame
/// set is `Arc`-shared so downstream consumers (one `QueryMatch` per
/// satisfied query) reference it without re-allocating.
#[derive(Debug, Clone)]
struct Entry {
    frames: Arc<[FrameId]>,
    counts: Option<Arc<ClassCounts>>,
}

/// The set of satisfied, valid states of the current window.
#[derive(Debug, Clone, Default)]
pub struct ResultStateSet {
    states: BTreeMap<ObjectSet, Entry>,
}

impl ResultStateSet {
    /// Creates an empty result set.
    pub fn new() -> Self {
        ResultStateSet {
            states: BTreeMap::new(),
        }
    }

    /// Removes all entries.
    pub fn clear(&mut self) {
        self.states.clear();
    }

    /// Inserts (or replaces) a result state, with the class counts its
    /// producer keeps for the object set, if any.
    pub fn insert(
        &mut self,
        objects: ObjectSet,
        frames: &MarkedFrameSet,
        counts: Option<Arc<ClassCounts>>,
    ) {
        self.states.insert(
            objects,
            Entry {
                frames: frames.frames().collect(),
                counts,
            },
        );
    }

    /// Number of result states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Whether the result set is empty.
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The frame set reported for a given object set, if present.
    pub fn frames_of(&self, objects: &ObjectSet) -> Option<&[FrameId]> {
        self.states.get(objects).map(|e| &*e.frames)
    }

    /// Whether an object set is part of the results.
    pub fn contains(&self, objects: &ObjectSet) -> bool {
        self.states.contains_key(objects)
    }

    /// Iterates over results in a deterministic (object-set) order.
    pub fn iter(&self) -> impl Iterator<Item = (&ObjectSet, &[FrameId])> {
        self.states.iter().map(|(k, e)| (k, &*e.frames))
    }

    /// Iterates over results including the `Arc`-shared frame set and the
    /// cached class counts (when the producing maintainer had an interner
    /// with a class source).
    pub fn iter_with_counts(
        &self,
    ) -> impl Iterator<Item = (&ObjectSet, &Arc<[FrameId]>, Option<&Arc<ClassCounts>>)> {
        self.states
            .iter()
            .map(|(k, e)| (k, &e.frames, e.counts.as_ref()))
    }

    /// The object sets only, in deterministic order — the common currency for
    /// comparing maintainers, since frame sets are compared separately.
    pub fn object_sets(&self) -> Vec<ObjectSet> {
        self.states.keys().cloned().collect()
    }
}

/// A live state's slot for its materialised object set and (with a class
/// source) class counts: filled when the state is first reported, emptied
/// when it stops being a result, dropped with the state. The interner holds
/// bitmaps only, so a set costs a sort (`SetInterner::resolve`) and its
/// counts an aggregation (`SetInterner::counts_of`); result states recur
/// frame after frame, and the slot makes every later frame two `Arc` bumps.
/// Kept counts stay right: an object's class never changes, and a live
/// set's objects are never retired. Boxed, it costs a state one word.
pub(crate) type Reported = Option<Box<(ObjectSet, Option<Arc<ClassCounts>>)>>;

/// Result sets compare by their semantic content — object sets and frame
/// sets — ignoring cached class counts, so maintainers with and without an
/// interner class source remain comparable state-for-state.
impl PartialEq for ResultStateSet {
    fn eq(&self, other: &Self) -> bool {
        self.states.len() == other.states.len()
            && self
                .states
                .iter()
                .zip(other.states.iter())
                .all(|((set_a, a), (set_b, b))| set_a == set_b && a.frames == b.frames)
    }
}

impl Eq for ResultStateSet {}

impl FromIterator<(ObjectSet, Vec<FrameId>)> for ResultStateSet {
    fn from_iter<T: IntoIterator<Item = (ObjectSet, Vec<FrameId>)>>(iter: T) -> Self {
        ResultStateSet {
            states: iter
                .into_iter()
                .map(|(objects, frames)| {
                    (
                        objects,
                        Entry {
                            frames: frames.into(),
                            counts: None,
                        },
                    )
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use tvq_common::ClassId;

    fn set(ids: &[u32]) -> ObjectSet {
        ObjectSet::from_raw(ids.iter().copied())
    }

    fn frames(ids: &[u64]) -> MarkedFrameSet {
        ids.iter().map(|&f| (FrameId(f), false)).collect()
    }

    #[test]
    fn insert_and_lookup() {
        let mut rs = ResultStateSet::new();
        rs.insert(set(&[1, 2]), &frames(&[0, 1, 2]), None);
        assert_eq!(rs.len(), 1);
        assert!(rs.contains(&set(&[2, 1])));
        assert_eq!(
            rs.frames_of(&set(&[1, 2])).unwrap(),
            &[FrameId(0), FrameId(1), FrameId(2)]
        );
        assert!(rs.frames_of(&set(&[3])).is_none());
    }

    #[test]
    fn insert_replaces_existing_entry() {
        let mut rs = ResultStateSet::new();
        rs.insert(set(&[1]), &frames(&[0]), None);
        rs.insert(set(&[1]), &frames(&[0, 1]), None);
        assert_eq!(rs.len(), 1);
        assert_eq!(rs.frames_of(&set(&[1])).unwrap().len(), 2);
    }

    #[test]
    fn iteration_is_deterministic() {
        let mut rs = ResultStateSet::new();
        rs.insert(set(&[3]), &frames(&[2]), None);
        rs.insert(set(&[1, 2]), &frames(&[0]), None);
        rs.insert(set(&[1]), &frames(&[1]), None);
        let keys: Vec<ObjectSet> = rs.iter().map(|(k, _)| k.clone()).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(rs.object_sets(), sorted);
    }

    #[test]
    fn clear_empties_the_set() {
        let mut rs = ResultStateSet::new();
        rs.insert(set(&[1]), &frames(&[0]), None);
        rs.clear();
        assert!(rs.is_empty());
    }

    #[test]
    fn cached_counts_are_exposed_but_ignored_by_equality() {
        let counts = Arc::new(ClassCounts::from_map(HashMap::from([(ClassId(1), 2)])));
        let mut with_counts = ResultStateSet::new();
        with_counts.insert(set(&[1, 2]), &frames(&[0, 1]), Some(Arc::clone(&counts)));
        let mut without = ResultStateSet::new();
        without.insert(set(&[1, 2]), &frames(&[0, 1]), None);

        assert_eq!(with_counts, without, "counts must not affect equality");
        let cached: Vec<_> = with_counts
            .iter_with_counts()
            .map(|(_, _, c)| c.cloned())
            .collect();
        assert_eq!(cached.len(), 1);
        assert_eq!(cached[0].as_deref(), Some(&*counts));
        let uncached: Vec<_> = without.iter_with_counts().map(|(_, _, c)| c).collect();
        assert!(uncached[0].is_none());
    }

    /// A set's class counts are aggregated once, when it is first reported,
    /// and every later frame that reports it shares them, across a
    /// compaction epoch too: the reported set moves with its state.
    #[test]
    fn reported_counts_are_computed_once_while_reported() {
        use crate::compaction::CompactionPolicy;
        use crate::maintainer::MaintainerKind;
        use tvq_common::{shared_class_store, ObjectId, SetInterner, WindowSpec};

        let store = shared_class_store();
        for id in 1..=4u32 {
            (store.write().unwrap()).register(ObjectId(id), ClassId((id % 2) as u16));
        }
        let pair = set(&[1, 2]);
        for kind in [
            MaintainerKind::Naive,
            MaintainerKind::Mfs,
            MaintainerKind::Ssg,
        ] {
            let interner = SetInterner::with_classes(Arc::clone(&store));
            let mut m = kind.build_with_options(WindowSpec::new(3, 2).unwrap(), None, interner);
            let mut first: Option<Arc<ClassCounts>> = None;
            for fid in 0..10u64 {
                // {1, 2} in every frame; {1, 2, 4} leaves the window at
                // frame 6, so the epoch after it has a set to retire.
                let objects = set(match fid % 4 {
                    1 => &[1, 2, 3],
                    3 => &[1, 2, 4],
                    _ => &[1, 2],
                });
                m.advance(FrameId(fid), &objects).unwrap();
                if fid == 6 {
                    let before = m.metrics().compactions;
                    m.maybe_compact(&CompactionPolicy::every(1));
                    assert_eq!(m.metrics().compactions, before + 1, "{kind:?}");
                }
                let found = m.results().iter_with_counts().find(|(s, ..)| **s == pair);
                let Some((_, _, counts)) = found else {
                    continue;
                };
                let counts = Arc::clone(counts.expect("class source present"));
                assert_eq!(
                    *counts,
                    ClassCounts::from_map(HashMap::from([(ClassId(0), 1), (ClassId(1), 1)]))
                );
                match &first {
                    None => first = Some(counts),
                    Some(first) => assert!(Arc::ptr_eq(first, &counts), "{kind:?} frame {fid}"),
                }
            }
            assert!(first.is_some(), "{kind:?}: {{1, 2}} is never reported");
        }
    }

    /// A state reported in one frame dies at the start of the next, and a
    /// new result state takes its handle there. The reported set lives in
    /// the dying state's record (its `Reported` slot), not under its
    /// handle, so it goes with the record and the new state materialises
    /// its own set on its first report.
    #[test]
    fn a_reused_handle_reports_its_new_set() {
        use crate::maintainer::MaintainerKind;
        use tvq_common::WindowSpec;

        let spec = WindowSpec::new(2, 1).unwrap();
        for kind in [
            MaintainerKind::Naive,
            MaintainerKind::Mfs,
            MaintainerKind::Ssg,
        ] {
            let mut m = kind.build(spec);
            for (fid, ids) in [&[1, 2], &[3, 4], &[5, 6]].into_iter().enumerate() {
                m.advance(FrameId(fid as u64), &set(ids)).unwrap();
            }
            assert_eq!(
                m.results().object_sets(),
                vec![set(&[3, 4]), set(&[5, 6])],
                "{kind:?}"
            );
        }
    }

    #[test]
    fn equality_detects_frame_set_differences() {
        let mut a = ResultStateSet::new();
        a.insert(set(&[1]), &frames(&[0]), None);
        let mut b = ResultStateSet::new();
        b.insert(set(&[1]), &frames(&[0, 1]), None);
        assert_ne!(a, b);
        let mut c = ResultStateSet::new();
        c.insert(set(&[2]), &frames(&[0]), None);
        assert_ne!(a, c);
    }
}
