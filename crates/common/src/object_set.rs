//! Sorted object-identifier sets.
//!
//! [`ObjectSet`] is the set type at the system's edges: a frame's detections
//! arrive as one, result states and matches leave as one, snapshots persist
//! them, and the reference oracles compute with nothing else. It stores
//! identifiers (typically 5–15 per frame, per the paper's Table 6) as a
//! sorted, deduplicated shared slice, so equality, ordering and hashing are
//! linear over contiguous memory and the linear-merge algebra below is
//! obviously right — which is what makes it the oracle the differential
//! suites check the hot path against.
//!
//! The hot path does not run on it: the maintainers hold
//! [`SetId`](crate::SetId) handles, and the
//! [`SetInterner`](crate::SetInterner) stores each interned set as a dense
//! bitmap only, materialising an `ObjectSet` from the bits
//! ([`SetInterner::resolve`](crate::SetInterner::resolve)) when a result,
//! verdict or snapshot needs tracker ids.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::ids::ObjectId;

/// An immutable, sorted, deduplicated set of [`ObjectId`]s.
///
/// The set is cheaply cloneable (`Arc`-backed) because the state-maintenance
/// structures share object sets between states, graph nodes and result sets.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ObjectSet {
    ids: Arc<[ObjectId]>,
}

impl ObjectSet {
    /// Creates an empty set.
    pub fn empty() -> Self {
        ObjectSet { ids: Arc::from([]) }
    }

    /// Builds a set from arbitrary identifiers, sorting and deduplicating.
    pub fn from_ids<I>(ids: I) -> Self
    where
        I: IntoIterator<Item = ObjectId>,
    {
        let mut v: Vec<ObjectId> = ids.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        ObjectSet { ids: v.into() }
    }

    /// Builds a set from raw `u32` identifiers (convenience for tests and
    /// examples).
    pub fn from_raw<I>(ids: I) -> Self
    where
        I: IntoIterator<Item = u32>,
    {
        ObjectSet::from_ids(ids.into_iter().map(ObjectId))
    }

    /// Builds a set from a vector that is already sorted and deduplicated.
    ///
    /// This is the fast path used by the per-frame ingestion code. Debug
    /// builds assert the invariant (strictly increasing identifiers — i.e.
    /// sorted with no duplicates); release builds verify it with a linear
    /// scan and fall back to sorting and deduplicating, so a misbehaving
    /// caller degrades to the safe constructor instead of corrupting every
    /// downstream merge, subset test and hash.
    pub fn from_sorted_unchecked(mut ids: Vec<ObjectId>) -> Self {
        let strictly_increasing = ids.windows(2).all(|w| w[0] < w[1]);
        // infallible: the workspace's callers sort and deduplicate first; a
        // caller that does not is caught here in debug builds and repaired
        // below in release builds.
        debug_assert!(
            strictly_increasing,
            "from_sorted_unchecked requires strictly increasing ids \
             (sorted, deduplicated); got {ids:?}"
        );
        if !strictly_increasing {
            ids.sort_unstable();
            ids.dedup();
        }
        ObjectSet { ids: ids.into() }
    }

    /// Number of objects in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates over the identifiers in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.ids.iter().copied()
    }

    /// Returns the identifiers as a slice (sorted, deduplicated).
    #[inline]
    pub fn as_slice(&self) -> &[ObjectId] {
        &self.ids
    }

    /// Membership test (binary search).
    pub fn contains(&self, id: ObjectId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Computes the intersection of two sets with a linear merge.
    pub fn intersect(&self, other: &ObjectSet) -> ObjectSet {
        if self.is_empty() || other.is_empty() {
            return ObjectSet::empty();
        }
        // Fast path: identical Arcs share the same contents.
        if Arc::ptr_eq(&self.ids, &other.ids) {
            return self.clone();
        }
        let mut out = Vec::with_capacity(self.len().min(other.len()));
        let (mut i, mut j) = (0usize, 0usize);
        let (a, b) = (&self.ids, &other.ids);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        ObjectSet { ids: out.into() }
    }

    /// Size of the intersection without materialising it.
    pub fn intersection_len(&self, other: &ObjectSet) -> usize {
        let (mut i, mut j, mut n) = (0usize, 0usize, 0usize);
        let (a, b) = (&self.ids, &other.ids);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    n += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        n
    }

    /// Returns `true` when `self ⊆ other`.
    pub fn is_subset_of(&self, other: &ObjectSet) -> bool {
        if self.len() > other.len() {
            return false;
        }
        self.intersection_len(other) == self.len()
    }

    /// Returns `true` when `self ⊂ other` (proper subset).
    pub fn is_proper_subset_of(&self, other: &ObjectSet) -> bool {
        self.len() < other.len() && self.is_subset_of(other)
    }
}

impl Deref for ObjectSet {
    type Target = [ObjectId];

    fn deref(&self) -> &Self::Target {
        &self.ids
    }
}

impl FromIterator<ObjectId> for ObjectSet {
    fn from_iter<T: IntoIterator<Item = ObjectId>>(iter: T) -> Self {
        ObjectSet::from_ids(iter)
    }
}

impl fmt::Debug for ObjectSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (idx, id) in self.ids.iter().enumerate() {
            if idx > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", id.raw())?;
        }
        write!(f, "}}")
    }
}

impl fmt::Display for ObjectSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ObjectSet {
        ObjectSet::from_raw(ids.iter().copied())
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let s = set(&[5, 1, 3, 1, 5]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.iter().map(|o| o.raw()).collect::<Vec<_>>(), vec![1, 3, 5]);
    }

    #[test]
    fn empty_set_behaviour() {
        let e = ObjectSet::empty();
        assert!(e.is_empty());
        assert_eq!(e.len(), 0);
        assert!(e.is_subset_of(&set(&[1, 2])));
        assert_eq!(e.intersect(&set(&[1, 2])), ObjectSet::empty());
    }

    #[test]
    fn intersection_matches_manual_merge() {
        let a = set(&[1, 2, 3, 5, 8]);
        let b = set(&[2, 3, 4, 8, 9]);
        assert_eq!(a.intersect(&b), set(&[2, 3, 8]));
        assert_eq!(a.intersection_len(&b), 3);
        assert_eq!(b.intersect(&a), set(&[2, 3, 8]));
    }

    #[test]
    fn subset_relations() {
        let a = set(&[2, 3]);
        let b = set(&[1, 2, 3, 4]);
        assert!(a.is_subset_of(&b));
        assert!(a.is_proper_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(a.is_subset_of(&a));
        assert!(!a.is_proper_subset_of(&a));
    }

    #[test]
    fn contains_uses_binary_search() {
        let a = set(&[10, 20, 30]);
        assert!(a.contains(ObjectId(20)));
        assert!(!a.contains(ObjectId(25)));
    }

    #[test]
    fn debug_format_is_compact() {
        assert_eq!(format!("{:?}", set(&[3, 1])), "{1,3}");
        assert_eq!(format!("{}", ObjectSet::empty()), "{}");
    }

    #[test]
    fn sets_work_as_hash_map_keys() {
        use std::collections::HashMap;
        let mut m: HashMap<ObjectSet, u32> = HashMap::new();
        m.insert(set(&[1, 2]), 7);
        assert_eq!(m.get(&set(&[2, 1])), Some(&7));
        assert_eq!(m.get(&set(&[1])), None);
    }

    #[test]
    fn from_sorted_unchecked_round_trips() {
        let ids = vec![ObjectId(1), ObjectId(4), ObjectId(9)];
        let s = ObjectSet::from_sorted_unchecked(ids.clone());
        assert_eq!(s.as_slice(), ids.as_slice());
    }

    /// Debug builds reject an invariant violation loudly.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_sorted_unchecked_panics_on_bad_input_in_debug() {
        let _ = ObjectSet::from_sorted_unchecked(vec![ObjectId(4), ObjectId(1), ObjectId(4)]);
    }

    /// Release builds repair a bad caller instead of corrupting state.
    #[cfg(not(debug_assertions))]
    #[test]
    fn from_sorted_unchecked_repairs_bad_input_in_release() {
        let s = ObjectSet::from_sorted_unchecked(vec![ObjectId(4), ObjectId(1), ObjectId(4)]);
        assert_eq!(s, set(&[1, 4]));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn to_btree(s: &ObjectSet) -> BTreeSet<u32> {
        s.iter().map(|o| o.raw()).collect()
    }

    proptest! {
        #[test]
        fn intersect_agrees_with_btreeset(a in proptest::collection::vec(0u32..64, 0..32),
                                          b in proptest::collection::vec(0u32..64, 0..32)) {
            let sa = ObjectSet::from_raw(a.iter().copied());
            let sb = ObjectSet::from_raw(b.iter().copied());
            let expected: BTreeSet<u32> = to_btree(&sa).intersection(&to_btree(&sb)).copied().collect();
            prop_assert_eq!(to_btree(&sa.intersect(&sb)), expected);
            prop_assert_eq!(sa.intersection_len(&sb), sa.intersect(&sb).len());
        }

        #[test]
        fn subset_is_consistent_with_intersection(a in proptest::collection::vec(0u32..32, 0..24),
                                                  b in proptest::collection::vec(0u32..32, 0..24)) {
            let sa = ObjectSet::from_raw(a.iter().copied());
            let sb = ObjectSet::from_raw(b.iter().copied());
            prop_assert_eq!(sa.is_subset_of(&sb), sa.intersect(&sb) == sa);
        }

        #[test]
        fn intersection_is_commutative_and_bounded(a in proptest::collection::vec(0u32..64, 0..32),
                                                   b in proptest::collection::vec(0u32..64, 0..32)) {
            let sa = ObjectSet::from_raw(a.iter().copied());
            let sb = ObjectSet::from_raw(b.iter().copied());
            let ab = sa.intersect(&sb);
            prop_assert_eq!(ab.clone(), sb.intersect(&sa));
            prop_assert!(ab.len() <= sa.len().min(sb.len()));
            prop_assert!(ab.is_subset_of(&sa));
            prop_assert!(ab.is_subset_of(&sb));
        }
    }
}
