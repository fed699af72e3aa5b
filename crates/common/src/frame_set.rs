//! Marked frame sets (Section 4.2.3 of the paper).
//!
//! Each state in the MCOS generation layer carries the set of window frames
//! in which its object set co-occurs. A subset of those frames — the *key
//! frames* — determines whether the state's object set is still a maximum
//! co-occurrence object set: once every key frame has expired from the
//! window the state is invalid and can be pruned (Theorem 1).
//!
//! [`MarkedFrameSet`] stores the frames of one state in arrival order,
//! together with a mark bit per frame, and maintains counters so that
//! validity (`has_marked`) and satisfaction (`len() >= d`) are O(1) and
//! window expiry is O(number of expired frames).

use std::collections::VecDeque;
use std::fmt;

use crate::ids::FrameId;

/// A set of frame identifiers in increasing order, each optionally *marked*
/// as a key frame.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct MarkedFrameSet {
    frames: VecDeque<(FrameId, bool)>,
    marked: usize,
}

impl MarkedFrameSet {
    /// Creates an empty frame set.
    pub fn new() -> Self {
        MarkedFrameSet {
            frames: VecDeque::new(),
            marked: 0,
        }
    }

    /// Creates a frame set containing a single frame.
    pub fn singleton(frame: FrameId, marked: bool) -> Self {
        let mut set = MarkedFrameSet::new();
        set.push(frame, marked);
        set
    }

    /// Number of frames in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the set contains no frames.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Number of marked (key) frames.
    #[inline]
    pub fn marked_count(&self) -> usize {
        self.marked
    }

    /// Whether at least one frame is marked — per Theorem 1 / Theorem 4 this
    /// is exactly the condition under which the owning state is valid.
    #[inline]
    pub fn has_marked(&self) -> bool {
        self.marked > 0
    }

    /// The earliest frame in the set, if any.
    pub fn first(&self) -> Option<FrameId> {
        self.frames.front().map(|&(f, _)| f)
    }

    /// The latest frame in the set, if any.
    pub fn last(&self) -> Option<FrameId> {
        self.frames.back().map(|&(f, _)| f)
    }

    /// Whether `frame` is a member of the set.
    pub fn contains(&self, frame: FrameId) -> bool {
        self.position(frame).is_some()
    }

    /// Whether `frame` is a member and marked.
    pub fn is_marked(&self, frame: FrameId) -> bool {
        self.position(frame)
            .map(|idx| self.frames[idx].1)
            .unwrap_or(false)
    }

    fn position(&self, frame: FrameId) -> Option<usize> {
        // Frames are stored in increasing order; binary search over the deque.
        let (front, back) = self.frames.as_slices();
        if let Ok(idx) = front.binary_search_by_key(&frame, |&(f, _)| f) {
            return Some(idx);
        }
        if let Ok(idx) = back.binary_search_by_key(&frame, |&(f, _)| f) {
            return Some(front.len() + idx);
        }
        None
    }

    /// Appends a frame. Frames must be appended in strictly increasing order;
    /// appending a frame already at the tail merges the mark flags (a frame
    /// stays marked once marked).
    ///
    /// # Panics
    ///
    /// Panics (debug assertions only) if `frame` is smaller than the current
    /// last frame.
    pub fn push(&mut self, frame: FrameId, marked: bool) {
        if let Some(&(last, last_marked)) = self.frames.back() {
            debug_assert!(
                frame >= last,
                "frames must be appended in increasing order ({last} then {frame})"
            );
            if frame == last {
                if marked && !last_marked {
                    self.frames.back_mut().expect("non-empty").1 = true;
                    self.marked += 1;
                }
                return;
            }
        }
        self.frames.push_back((frame, marked));
        if marked {
            self.marked += 1;
        }
    }

    /// Marks an existing frame as a key frame. Returns `true` when the frame
    /// is present (whether or not it was already marked).
    pub fn mark(&mut self, frame: FrameId) -> bool {
        match self.position(frame) {
            Some(idx) => {
                if !self.frames[idx].1 {
                    self.frames[idx].1 = true;
                    self.marked += 1;
                }
                true
            }
            None => false,
        }
    }

    /// Removes every frame strictly older than `oldest_valid`, returning how
    /// many frames were removed.
    pub fn expire_before(&mut self, oldest_valid: FrameId) -> usize {
        let mut removed = 0;
        while let Some(&(frame, marked)) = self.frames.front() {
            if frame >= oldest_valid {
                break;
            }
            if marked {
                self.marked -= 1;
            }
            self.frames.pop_front();
            removed += 1;
        }
        removed
    }

    /// Iterates over `(frame, marked)` pairs in increasing frame order.
    pub fn iter(&self) -> impl Iterator<Item = (FrameId, bool)> + '_ {
        self.frames.iter().copied()
    }

    /// Iterates over the frame identifiers only.
    pub fn frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.frames.iter().map(|&(f, _)| f)
    }

    /// Iterates over the marked (key) frames only.
    pub fn marked_frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.frames
            .iter()
            .filter_map(|&(f, m)| if m { Some(f) } else { None })
    }

    /// Returns `true` when merging `other` into `self` would change nothing:
    /// every frame of `other` is already present, with its mark subsumed.
    /// Linear scan, no allocation — this is the dominant case in the SSG
    /// traversal, where a child's frame set usually already covers the
    /// parent frames being propagated.
    fn subsumes(&self, other: &MarkedFrameSet) -> bool {
        if other.len() > self.len() {
            return false;
        }
        match (self.first(), self.last(), other.first(), other.last()) {
            (Some(first), Some(last), Some(other_first), Some(other_last)) => {
                if other_first < first || other_last > last {
                    return false;
                }
            }
            _ => return other.is_empty(),
        }
        let mut own = self.frames.iter();
        'outer: for &(frame, marked) in other.frames.iter() {
            for &(own_frame, own_marked) in own.by_ref() {
                if own_frame == frame {
                    if marked && !own_marked {
                        return false;
                    }
                    continue 'outer;
                }
                if own_frame > frame {
                    return false;
                }
            }
            return false;
        }
        true
    }

    /// Whether the set covers every frame between its first and last member
    /// (no gaps). O(1) from the counters.
    #[inline]
    fn is_contiguous(&self) -> bool {
        match (self.first(), self.last()) {
            (Some(first), Some(last)) => last.raw() - first.raw() + 1 == self.len() as u64,
            _ => true,
        }
    }

    /// Merges the frames (and marks) of `other` into `self`.
    ///
    /// This implements the `merge(Fs, Fns)` operation used by the State
    /// Marking Procedure: the result contains the union of both frame sets,
    /// and a frame is marked if it is marked in either input.
    pub fn merge_from(&mut self, other: &MarkedFrameSet) {
        if other.is_empty() {
            return;
        }
        if self.is_empty() {
            *self = other.clone();
            return;
        }
        // Gap-free fast path: when `self` covers a contiguous frame range
        // enclosing `other`, every frame of `other` is already present and
        // the merge reduces to copying marks — the dominant case for
        // long-lived states that co-occur every frame.
        if self.is_contiguous() && other.first() >= self.first() && other.last() <= self.last() {
            if other.marked > 0 {
                for &(frame, marked) in other.frames.iter() {
                    if marked {
                        self.mark(frame);
                    }
                }
            }
            return;
        }
        if self.subsumes(other) {
            return;
        }
        let mut merged: VecDeque<(FrameId, bool)> =
            VecDeque::with_capacity(self.len() + other.len());
        let mut marked = 0usize;
        let mut a = self.frames.iter().copied().peekable();
        let mut b = other.frames.iter().copied().peekable();
        loop {
            let next = match (a.peek().copied(), b.peek().copied()) {
                (None, None) => break,
                (Some(_), None) => a.next().expect("peeked"),
                (None, Some(_)) => b.next().expect("peeked"),
                (Some((fa, ma)), Some((fb, mb))) => {
                    if fa < fb {
                        a.next().expect("peeked")
                    } else if fb < fa {
                        b.next().expect("peeked")
                    } else {
                        a.next();
                        b.next();
                        (fa, ma || mb)
                    }
                }
            };
            if next.1 {
                marked += 1;
            }
            merged.push_back(next);
        }
        self.frames = merged;
        self.marked = marked;
    }
}

impl fmt::Debug for MarkedFrameSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (idx, (frame, marked)) in self.frames.iter().enumerate() {
            if idx > 0 {
                write!(f, ",")?;
            }
            if *marked {
                write!(f, "*")?;
            }
            write!(f, "{}", frame.raw())?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(FrameId, bool)> for MarkedFrameSet {
    fn from_iter<T: IntoIterator<Item = (FrameId, bool)>>(iter: T) -> Self {
        let mut set = MarkedFrameSet::new();
        for (frame, marked) in iter {
            set.push(frame, marked);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs(frames: &[(u64, bool)]) -> MarkedFrameSet {
        frames
            .iter()
            .map(|&(f, m)| (FrameId(f), m))
            .collect::<MarkedFrameSet>()
    }

    #[test]
    fn push_and_counters() {
        let mut s = MarkedFrameSet::new();
        assert!(s.is_empty());
        s.push(FrameId(0), true);
        s.push(FrameId(1), false);
        s.push(FrameId(2), true);
        assert_eq!(s.len(), 3);
        assert_eq!(s.marked_count(), 2);
        assert!(s.has_marked());
        assert_eq!(s.first(), Some(FrameId(0)));
        assert_eq!(s.last(), Some(FrameId(2)));
    }

    #[test]
    fn duplicate_push_merges_marks() {
        let mut s = MarkedFrameSet::new();
        s.push(FrameId(4), false);
        s.push(FrameId(4), true);
        assert_eq!(s.len(), 1);
        assert_eq!(s.marked_count(), 1);
        s.push(FrameId(4), false);
        assert_eq!(s.marked_count(), 1);
    }

    #[test]
    fn mark_existing_frame() {
        let mut s = fs(&[(1, false), (2, false), (3, false)]);
        assert!(!s.has_marked());
        assert!(s.mark(FrameId(2)));
        assert!(s.is_marked(FrameId(2)));
        assert!(!s.is_marked(FrameId(1)));
        assert_eq!(s.marked_count(), 1);
        // Re-marking is idempotent.
        assert!(s.mark(FrameId(2)));
        assert_eq!(s.marked_count(), 1);
        // Marking an absent frame reports false.
        assert!(!s.mark(FrameId(9)));
    }

    #[test]
    fn expiry_removes_old_frames_and_marks() {
        let mut s = fs(&[(0, true), (1, false), (2, true), (3, false)]);
        let removed = s.expire_before(FrameId(2));
        assert_eq!(removed, 2);
        assert_eq!(s.frames().collect::<Vec<_>>(), [FrameId(2), FrameId(3)]);
        assert_eq!(s.marked_count(), 1);
        // Expiring before an older frame is a no-op.
        assert_eq!(s.expire_before(FrameId(1)), 0);
        // Expire everything.
        assert_eq!(s.expire_before(FrameId(100)), 2);
        assert!(s.is_empty());
        assert!(!s.has_marked());
    }

    #[test]
    fn merge_unions_frames_and_marks() {
        let mut a = fs(&[(1, true), (3, false)]);
        let b = fs(&[(2, true), (3, true), (4, false)]);
        a.merge_from(&b);
        assert_eq!(
            a.iter().collect::<Vec<_>>(),
            vec![
                (FrameId(1), true),
                (FrameId(2), true),
                (FrameId(3), true),
                (FrameId(4), false)
            ]
        );
        assert_eq!(a.marked_count(), 3);
    }

    #[test]
    fn merge_with_empty_sides() {
        let mut a = MarkedFrameSet::new();
        let b = fs(&[(5, true)]);
        a.merge_from(&b);
        assert_eq!(a, b);
        let mut c = fs(&[(1, false)]);
        c.merge_from(&MarkedFrameSet::new());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn debug_format_shows_marks() {
        let s = fs(&[(1, true), (2, false)]);
        assert_eq!(format!("{s:?}"), "{*1,2}");
    }

    #[test]
    fn contains_and_binary_search_across_deque_wrap() {
        // Exercise the two-slice binary search by forcing pops and pushes.
        let mut s = MarkedFrameSet::new();
        for f in 0..16u64 {
            s.push(FrameId(f), f % 3 == 0);
        }
        s.expire_before(FrameId(8));
        for f in 16..24u64 {
            s.push(FrameId(f), false);
        }
        for f in 8..24u64 {
            assert!(s.contains(FrameId(f)), "missing frame {f}");
        }
        assert!(!s.contains(FrameId(7)));
        assert!(!s.contains(FrameId(24)));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Counters stay consistent with the stored data under arbitrary
        /// sequences of pushes, marks and expirations.
        #[test]
        fn counters_stay_consistent(ops in proptest::collection::vec((0u64..60, any::<bool>(), 0u8..3), 1..80)) {
            let mut s = MarkedFrameSet::new();
            let mut next_frame = 0u64;
            for (value, flag, op) in ops {
                match op {
                    0 => {
                        next_frame += value % 3;
                        s.push(FrameId(next_frame), flag);
                    }
                    1 => {
                        s.mark(FrameId(value));
                    }
                    _ => {
                        s.expire_before(FrameId(value));
                    }
                }
                let recomputed_marked = s.iter().filter(|&(_, m)| m).count();
                prop_assert_eq!(recomputed_marked, s.marked_count());
                prop_assert_eq!(s.iter().count(), s.len());
                // Frames stay strictly increasing.
                let frames: Vec<_> = s.frames().collect();
                prop_assert!(frames.windows(2).all(|w| w[0] < w[1]));
            }
        }

        /// Merging is equivalent to rebuilding from the union of both inputs.
        #[test]
        fn merge_is_union(a in proptest::collection::btree_map(0u64..40, any::<bool>(), 0..20),
                          b in proptest::collection::btree_map(0u64..40, any::<bool>(), 0..20)) {
            let sa: MarkedFrameSet = a.iter().map(|(&f, &m)| (FrameId(f), m)).collect();
            let sb: MarkedFrameSet = b.iter().map(|(&f, &m)| (FrameId(f), m)).collect();
            let mut merged = sa.clone();
            merged.merge_from(&sb);
            let mut expected = a.clone();
            for (f, m) in b {
                *expected.entry(f).or_insert(false) |= m;
            }
            let expected: MarkedFrameSet = expected.iter().map(|(&f, &m)| (FrameId(f), m)).collect();
            prop_assert_eq!(merged, expected);
        }
    }
}
