//! Class-count aggregates of an object set.
//!
//! Query conditions constrain *how many* objects of each class an MCOS
//! contains (step 2(a) of the evaluation procedure in Section 5.2): before a
//! state reaches the CNF evaluator, its object set is aggregated into
//! per-class counts using the feed's object → class mapping.
//!
//! This type lives in `tvq-common` (rather than the query crate) because the
//! [`SetInterner`](crate::SetInterner) aggregates a handle's counts straight
//! from its bitmap ([`counts_of`](crate::SetInterner::counts_of)). It does
//! so only for the sets an answer or a pruner verdict reads, and those
//! callers keep the result: a reported set's counts are computed once while
//! it stays reported, a judged set's once per verdict.
//!
//! Counts are stored as a sorted `(class, count)` vector: an MCOS touches a
//! handful of classes, so a binary search over contiguous memory beats a
//! hash map and iteration order is deterministic.

use std::collections::HashMap;

use crate::ids::{ClassId, ObjectId};
use crate::object_set::ObjectSet;

/// Per-class object counts of one MCOS.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct ClassCounts {
    /// Sorted by class; counts are always non-zero.
    counts: Vec<(ClassId, u32)>,
}

impl ClassCounts {
    /// Creates empty counts (every class has zero objects).
    pub fn new() -> Self {
        ClassCounts::default()
    }

    /// Builds counts from an explicit map; zero entries are dropped.
    pub fn from_map(counts: HashMap<ClassId, u32>) -> Self {
        let mut counts: Vec<(ClassId, u32)> = counts.into_iter().filter(|&(_, n)| n > 0).collect();
        counts.sort_unstable_by_key(|&(c, _)| c);
        ClassCounts { counts }
    }

    /// Aggregates an object set using the feed-wide object → class mapping.
    /// Objects missing from the mapping are ignored (they belong to classes
    /// no query asked for and were filtered out upstream). Generic over the
    /// map's hasher so callers on the hot path can use
    /// [`FxHashMap`](crate::FxHashMap).
    pub fn of<S: std::hash::BuildHasher>(
        objects: &ObjectSet,
        classes: &HashMap<ObjectId, ClassId, S>,
    ) -> Self {
        ClassCounts::of_ids(objects.iter(), classes)
    }

    /// [`of`](Self::of) over any identifier sequence (order does not matter;
    /// the interner aggregates straight from a set's bitmap, in slot order).
    pub fn of_ids<S: std::hash::BuildHasher>(
        objects: impl IntoIterator<Item = ObjectId>,
        classes: &HashMap<ObjectId, ClassId, S>,
    ) -> Self {
        let mut counts: Vec<(ClassId, u32)> = Vec::new();
        for id in objects {
            if let Some(&class) = classes.get(&id) {
                match counts.binary_search_by_key(&class, |&(c, _)| c) {
                    Ok(idx) => counts[idx].1 += 1,
                    Err(idx) => counts.insert(idx, (class, 1)),
                }
            }
        }
        ClassCounts { counts }
    }

    /// The count for one class (zero when absent).
    pub fn count(&self, class: ClassId) -> u32 {
        match self.counts.binary_search_by_key(&class, |&(c, _)| c) {
            Ok(idx) => self.counts[idx].1,
            Err(_) => 0,
        }
    }

    /// Iterates over `(class, count)` pairs with non-zero counts, in
    /// ascending class order.
    pub fn iter(&self) -> impl Iterator<Item = (ClassId, u32)> + '_ {
        self.counts.iter().copied()
    }

    /// Total number of objects across all classes.
    pub fn total(&self) -> u32 {
        self.counts.iter().map(|&(_, n)| n).sum()
    }

    /// Whether no objects were counted.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_counts_by_class() {
        let classes: HashMap<ObjectId, ClassId> = [
            (ObjectId(1), ClassId(0)),
            (ObjectId(2), ClassId(1)),
            (ObjectId(3), ClassId(1)),
            (ObjectId(4), ClassId(2)),
        ]
        .into_iter()
        .collect();
        let counts = ClassCounts::of(&ObjectSet::from_raw([1, 2, 3]), &classes);
        assert_eq!(counts.count(ClassId(0)), 1);
        assert_eq!(counts.count(ClassId(1)), 2);
        assert_eq!(counts.count(ClassId(2)), 0);
        assert_eq!(counts.total(), 3);
        assert!(!counts.is_empty());
    }

    #[test]
    fn unknown_objects_are_ignored() {
        let classes: HashMap<ObjectId, ClassId> = [(ObjectId(1), ClassId(0))].into_iter().collect();
        let counts = ClassCounts::of(&ObjectSet::from_raw([1, 9]), &classes);
        assert_eq!(counts.total(), 1);
    }

    #[test]
    fn empty_object_set_has_empty_counts() {
        let counts = ClassCounts::of(&ObjectSet::empty(), &HashMap::new());
        assert!(counts.is_empty());
        assert_eq!(counts.count(ClassId(3)), 0);
        assert_eq!(counts.iter().count(), 0);
    }

    #[test]
    fn from_map_drops_zero_entries_and_sorts() {
        let counts = ClassCounts::from_map(
            [(ClassId(3), 2), (ClassId(1), 1), (ClassId(7), 0)]
                .into_iter()
                .collect(),
        );
        assert_eq!(
            counts.iter().collect::<Vec<_>>(),
            vec![(ClassId(1), 1), (ClassId(3), 2)]
        );
        assert_eq!(counts.count(ClassId(7)), 0);
        assert_eq!(counts.total(), 3);
    }

    #[test]
    fn equality_is_representation_independent() {
        let a = ClassCounts::from_map([(ClassId(1), 2), (ClassId(2), 1)].into_iter().collect());
        let classes: HashMap<ObjectId, ClassId> = [
            (ObjectId(10), ClassId(1)),
            (ObjectId(11), ClassId(1)),
            (ObjectId(12), ClassId(2)),
        ]
        .into_iter()
        .collect();
        let b = ClassCounts::of(&ObjectSet::from_raw([10, 11, 12]), &classes);
        assert_eq!(a, b);
    }
}
