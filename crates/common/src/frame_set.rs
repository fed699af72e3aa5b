//! Marked frame sets (Section 4.2.3 of the paper).
//!
//! Each state in the MCOS generation layer carries the set of window frames
//! in which its object set co-occurs. A subset of those frames — the *key
//! frames* — determines whether the state's object set is still a maximum
//! co-occurrence object set: once every key frame has expired from the
//! window the state is invalid and can be pruned (Theorem 1).
//!
//! A state's frames all lie in one window, so [`MarkedFrameSet`] is a
//! window-relative pair of bitsets: a `base` frame id plus, per 64 frames
//! from it, one word of membership bits and one word of mark bits (bit `i`
//! of word `j` ↔ frame `base + 64 j + i`). Spans of up to 128 frames live
//! inline; longer windows (the paper's `w = 300`) spill to the heap. Every
//! operation the maintainers run per state per frame is a few word
//! operations: `push` sets a bit (and, marked, a mark bit: Frame Marking
//! Rule 1), `contains` tests one, `expire_before` is a shift, `len` is a
//! popcount, `has_marked` a test for a non-zero mark word, and `merge_from`
//! (the paper's `merge(Fs, Fns)`, which also carries Rule 2's marks) is
//! align-and-OR. The set is lossless — it holds exactly the
//! `(frame, marked)` pairs pushed or merged into it until they are expired —
//! and makes no assumption that frame ids are consecutive. Its span is only
//! bounded by the caller expiring before it pushes, which every maintainer
//! does.

use std::fmt;
use std::hash::{Hash, Hasher};

use crate::codec::{Decoder, Encoder};
use crate::error::{Error, Result};
use crate::ids::FrameId;

/// The `[present, marked]` bits of 64 consecutive frames.
type Lanes = [u64; 2];
const PRESENT: usize = 0;
const MARKED: usize = 1;

/// Words held inline: spans of up to `64 * INLINE_WORDS` frames never
/// touch the heap.
const INLINE_WORDS: usize = 2;

#[derive(Clone)]
enum Words {
    Inline([Lanes; INLINE_WORDS]),
    Heap(Vec<Lanes>),
}

impl Words {
    fn zeroed(len: usize) -> Words {
        if len <= INLINE_WORDS {
            Words::Inline([[0; 2]; INLINE_WORDS])
        } else {
            Words::Heap(vec![[0; 2]; len])
        }
    }
}

/// The set bit positions of `word`, ascending.
fn bits(mut word: u64) -> impl Iterator<Item = u64> {
    std::iter::from_fn(move || {
        if word == 0 {
            return None;
        }
        let bit = u64::from(word.trailing_zeros());
        word &= word - 1;
        Some(bit)
    })
}

/// A set of frame identifiers, each optionally *marked* as a key frame.
#[derive(Clone)]
pub struct MarkedFrameSet {
    /// The frame id of bit 0 of word 0; no member is older.
    base: u64,
    words: Words,
}

impl Default for MarkedFrameSet {
    fn default() -> Self {
        MarkedFrameSet {
            base: 0,
            words: Words::zeroed(0),
        }
    }
}

impl MarkedFrameSet {
    /// Creates an empty frame set.
    pub fn new() -> Self {
        MarkedFrameSet::default()
    }

    /// Creates a frame set containing a single frame.
    pub fn singleton(frame: FrameId, marked: bool) -> Self {
        let mut set = MarkedFrameSet::new();
        set.push(frame, marked);
        set
    }

    #[inline]
    fn words(&self) -> &[Lanes] {
        match &self.words {
            Words::Inline(words) => words,
            Words::Heap(words) => words,
        }
    }

    #[inline]
    fn words_mut(&mut self) -> &mut [Lanes] {
        match &mut self.words {
            Words::Inline(words) => words,
            Words::Heap(words) => words,
        }
    }

    /// How many 64-frame words the set holds per lane: 2 while it fits
    /// inline, the span's word count above that (diagnostics and tests).
    pub fn word_count(&self) -> usize {
        self.words().len()
    }

    /// Number of frames in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.words()
            .iter()
            .map(|word| word[PRESENT].count_ones() as usize)
            .sum()
    }

    /// Whether the set contains no frames.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words().iter().all(|word| word[PRESENT] == 0)
    }

    /// Whether at least one frame is marked — per Theorem 1 / Theorem 4 this
    /// is exactly the condition under which the owning state is valid.
    #[inline]
    pub fn has_marked(&self) -> bool {
        self.words().iter().any(|word| word[MARKED] != 0)
    }

    fn frame_at(&self, word: usize, bit: u32) -> FrameId {
        FrameId(self.base + 64 * word as u64 + u64::from(bit))
    }

    /// The earliest frame in the set, if any.
    pub fn first(&self) -> Option<FrameId> {
        let index = self.words().iter().position(|word| word[PRESENT] != 0)?;
        Some(self.frame_at(index, self.words()[index][PRESENT].trailing_zeros()))
    }

    /// The latest frame in the set, if any.
    pub fn last(&self) -> Option<FrameId> {
        let index = self.words().iter().rposition(|word| word[PRESENT] != 0)?;
        Some(self.frame_at(index, 63 - self.words()[index][PRESENT].leading_zeros()))
    }

    /// The word index and bit mask of `frame`, when the words cover it.
    #[inline]
    fn slot(&self, frame: FrameId) -> Option<(usize, u64)> {
        let offset = frame.raw().checked_sub(self.base)?;
        let index = usize::try_from(offset / 64).ok()?;
        (index < self.words().len()).then_some((index, 1 << (offset % 64)))
    }

    /// Whether `frame` is a member of the set.
    pub fn contains(&self, frame: FrameId) -> bool {
        self.slot(frame)
            .is_some_and(|(index, bit)| self.words()[index][PRESENT] & bit != 0)
    }

    /// Both lanes' bits for the 64 frames from `start` on, wherever `start`
    /// lies relative to the base — the one place words are shifted.
    fn lanes_from(&self, start: u64) -> Lanes {
        let words = self.words();
        let at = |index: u64| match usize::try_from(index) {
            Ok(index) if index < words.len() => words[index],
            _ => [0; 2],
        };
        let (low, high, shift) = match start.checked_sub(self.base) {
            Some(offset) => (at(offset / 64), at(offset / 64 + 1), offset % 64),
            // `start` lies before the base: word 0 is the high half of the
            // span if it reaches into it at all.
            None if self.base - start < 64 => ([0; 2], words[0], 64 - (self.base - start)),
            None => return [0; 2],
        };
        [PRESENT, MARKED].map(|lane| match shift {
            0 => low[lane],
            _ => (low[lane] >> shift) | (high[lane] << (64 - shift)),
        })
    }

    /// Both lanes of word `index` of a layout based at `base`: the 64 frames
    /// from `base + 64 index` on, or none when that start lies past
    /// `u64::MAX` (no frame can).
    fn lanes_at(&self, base: u64, index: usize) -> Lanes {
        (64 * index as u64)
            .checked_add(base)
            .map_or([0; 2], |start| self.lanes_from(start))
    }

    /// The contents independent of base and storage: the first frame, then
    /// both lanes' words from it through the last frame. Nothing for an
    /// empty set.
    fn canonical(&self) -> impl Iterator<Item = u64> + '_ {
        let span = self.first().zip(self.last());
        span.into_iter().flat_map(move |(first, last)| {
            let words = (first.raw()..=last.raw()).step_by(64);
            std::iter::once(first.raw()).chain(words.flat_map(move |start| self.lanes_from(start)))
        })
    }

    /// Makes every frame of `lo..=hi` addressable, keeping the contents: the
    /// words are re-laid from the first frame of the union of the set's own
    /// span and the requested one.
    fn reserve(&mut self, lo: u64, hi: u64) {
        if lo >= self.base && (hi - self.base) / 64 < self.words().len() as u64 {
            return;
        }
        let old = std::mem::take(self);
        let (lo, hi) = match (old.first(), old.last()) {
            (Some(first), Some(last)) => (lo.min(first.raw()), hi.max(last.raw())),
            _ => (lo, hi),
        };
        self.base = lo;
        self.words = Words::zeroed(((hi - lo) / 64 + 1) as usize);
        for (index, word) in self.words_mut().iter_mut().enumerate() {
            *word = old.lanes_at(lo, index);
        }
    }

    /// Adds a frame; adding one already present merges the mark flags (a
    /// frame stays marked once marked). Maintainers append in increasing
    /// order and expire before they push, which is what keeps the span —
    /// and so the word count — within the window.
    pub fn push(&mut self, frame: FrameId, marked: bool) {
        self.reserve(frame.raw(), frame.raw());
        // infallible: `reserve` leaves the words covering `frame`.
        let (index, bit) = self.slot(frame).expect("reserved above");
        let word = &mut self.words_mut()[index];
        word[PRESENT] |= bit;
        if marked {
            word[MARKED] |= bit;
        }
    }

    /// Appends the set as `(frame, marked)` pairs in window order.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.len());
        for (frame, marked) in self.iter() {
            enc.put_u64(frame.raw());
            enc.put_bool(marked);
        }
    }

    /// Reads a set written by [`encode`](Self::encode) by a maintainer over
    /// a window of `window` frames.
    pub fn decode(dec: &mut Decoder<'_>, window: usize) -> Result<MarkedFrameSet> {
        let len = dec.take_len()?;
        let mut frames = MarkedFrameSet::new();
        for _ in 0..len {
            let frame = FrameId(dec.take_u64()?);
            let marked = dec.take_bool()?;
            frames.push_decoded(frame, marked, window)?;
        }
        Ok(frames)
    }

    /// [`push`](Self::push) for untrusted input: rejects what no maintainer
    /// writes — frames out of order, or further apart than one window. The
    /// storage grows with the span, so the span of decoded input is bounded
    /// here.
    fn push_decoded(&mut self, frame: FrameId, marked: bool, window: usize) -> Result<()> {
        let first = self.first().unwrap_or(frame);
        if self.last().is_some_and(|last| last >= frame)
            || frame.raw() - first.raw() >= window as u64
        {
            return Err(Error::Corrupt(format!(
                "frame {} is out of order or beyond the {window}-frame window of a set starting at {}",
                frame.raw(),
                first.raw()
            )));
        }
        self.push(frame, marked);
        Ok(())
    }

    /// Removes every frame strictly older than `oldest_valid` by shifting
    /// the words down to a base of `oldest_valid`. A jump in frame ids
    /// larger than the span simply clears the set.
    pub fn expire_before(&mut self, oldest_valid: FrameId) {
        let oldest = oldest_valid.raw();
        if oldest <= self.base {
            return;
        }
        // In place: word `index` is rebuilt from words at or above it.
        for index in 0..self.words().len() {
            let lanes = self.lanes_at(oldest, index);
            self.words_mut()[index] = lanes;
        }
        self.base = oldest;
        if let Words::Heap(words) = &mut self.words {
            let used = words.iter().rposition(|word| word[PRESENT] != 0);
            let used = used.map_or(0, |index| index + 1);
            if used <= INLINE_WORDS {
                let mut inline = [[0; 2]; INLINE_WORDS];
                inline[..used].copy_from_slice(&words[..used]);
                self.words = Words::Inline(inline);
            } else {
                words.truncate(used);
            }
        }
    }

    /// Iterates over `(frame, marked)` pairs in increasing frame order.
    pub fn iter(&self) -> impl Iterator<Item = (FrameId, bool)> + '_ {
        let words = self.words().iter().enumerate();
        words.flat_map(move |(index, &[present, marked])| {
            bits(present)
                .map(move |bit| (self.frame_at(index, bit as u32), (marked >> bit) & 1 == 1))
        })
    }

    /// Iterates over the frame identifiers only.
    pub fn frames(&self) -> impl Iterator<Item = FrameId> + '_ {
        self.iter().map(|(frame, _)| frame)
    }

    /// Merges the frames (and marks) of `other` into `self`.
    ///
    /// This implements the `merge(Fs, Fns)` operation used by the State
    /// Marking Procedure: the result contains the union of both frame sets,
    /// and a frame is marked if it is marked in either input.
    pub fn merge_from(&mut self, other: &MarkedFrameSet) {
        // Two inline sets on one base — the traversal's common case, since
        // expiry rebases every set it reaches — merge word by word.
        if let (Words::Inline(mine), Words::Inline(theirs)) = (&mut self.words, &other.words) {
            if self.base == other.base {
                for (word, lanes) in mine.iter_mut().zip(theirs) {
                    *word = [word[PRESENT] | lanes[PRESENT], word[MARKED] | lanes[MARKED]];
                }
                return;
            }
        }
        let (Some(first), Some(last)) = (other.first(), other.last()) else {
            return;
        };
        self.reserve(first.raw(), last.raw());
        let base = self.base;
        for (index, word) in self.words_mut().iter_mut().enumerate() {
            let lanes = other.lanes_at(base, index);
            *word = [word[PRESENT] | lanes[PRESENT], word[MARKED] | lanes[MARKED]];
        }
    }
}

/// Two sets are equal when they hold the same `(frame, marked)` pairs,
/// whatever base and storage each arrived at.
impl PartialEq for MarkedFrameSet {
    fn eq(&self, other: &Self) -> bool {
        self.canonical().eq(other.canonical())
    }
}

impl Eq for MarkedFrameSet {}

/// Consistent with `Eq`: both read the canonical words.
impl Hash for MarkedFrameSet {
    fn hash<H: Hasher>(&self, state: &mut H) {
        for word in self.canonical() {
            state.write_u64(word);
        }
    }
}

impl fmt::Debug for MarkedFrameSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (idx, (frame, marked)) in self.iter().enumerate() {
            if idx > 0 {
                write!(f, ",")?;
            }
            if marked {
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
        assert_eq!(s.iter().filter(|&(_, marked)| marked).count(), 2);
        assert!(s.has_marked());
        assert_eq!(s.first(), Some(FrameId(0)));
        assert_eq!(s.last(), Some(FrameId(2)));
    }

    #[test]
    fn duplicate_push_merges_marks() {
        let mut s = MarkedFrameSet::new();
        s.push(FrameId(4), false);
        s.push(FrameId(4), true);
        assert_eq!(s.iter().collect::<Vec<_>>(), [(FrameId(4), true)]);
        s.push(FrameId(4), false);
        assert_eq!(s.iter().collect::<Vec<_>>(), [(FrameId(4), true)]);
    }

    /// Rule 1 marks a frame a state already holds by pushing it again,
    /// marked.
    #[test]
    fn mark_existing_frame() {
        let mut s = fs(&[(1, false), (2, false), (3, false)]);
        assert!(!s.has_marked());
        s.push(FrameId(2), true);
        assert!(s.has_marked());
        let expected = fs(&[(1, false), (2, true), (3, false)]);
        assert_eq!(s, expected);
        // Re-marking is idempotent.
        s.push(FrameId(2), true);
        assert_eq!(s, expected);
    }

    #[test]
    fn expiry_removes_old_frames_and_marks() {
        let mut s = fs(&[(0, true), (1, false), (2, true), (3, false)]);
        s.expire_before(FrameId(2));
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            [(FrameId(2), true), (FrameId(3), false)]
        );
        // Expiring before an older frame is a no-op.
        s.expire_before(FrameId(1));
        assert_eq!(s.len(), 2);
        // Expire everything.
        s.expire_before(FrameId(100));
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
    fn frame_set_round_trips_with_marks() {
        let frames = fs(&[(3, true), (4, false), (7, true)]);
        let mut enc = Encoder::new();
        frames.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = MarkedFrameSet::decode(&mut dec, 8).unwrap();
        dec.finish().unwrap();
        assert_eq!(back, frames);
        assert_eq!(back.iter().filter(|&(_, marked)| marked).count(), 2);
        // The same bytes under a narrower window are corrupt, not a set
        // whose storage the input chose.
        let err = MarkedFrameSet::decode(&mut Decoder::new(&bytes), 4).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
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
        /// sequences of pushes and expirations.
        #[test]
        fn counters_stay_consistent(ops in proptest::collection::vec((0u64..60, any::<bool>(), 0u8..2), 1..80)) {
            let mut s = MarkedFrameSet::new();
            let mut next_frame = 0u64;
            for (value, flag, op) in ops {
                match op {
                    0 => {
                        next_frame += value % 3;
                        s.push(FrameId(next_frame), flag);
                    }
                    _ => {
                        s.expire_before(FrameId(value));
                    }
                }
                prop_assert_eq!(s.iter().any(|(_, m)| m), s.has_marked());
                prop_assert_eq!(s.iter().count(), s.len());
                // Frames stay strictly increasing.
                let frames: Vec<_> = s.frames().collect();
                prop_assert!(frames.windows(2).all(|w| w[0] < w[1]));
            }
        }

        /// Model check against a `BTreeMap<frame, marked>`: two sets driven
        /// through every operation with frame ids up to ~700, id gaps and
        /// deep expiries, so word boundaries and the inline/heap spill are
        /// crossed in both directions. Sets that compare equal hash equal.
        #[test]
        fn agrees_with_a_btreemap_model(
            ops in proptest::collection::vec((0u8..5, any::<bool>(), 0u64..400, any::<bool>()), 1..160),
        ) {
            use std::collections::BTreeMap;
            let hash_of = |set: &MarkedFrameSet| {
                let mut hasher = std::collections::hash_map::DefaultHasher::new();
                set.hash(&mut hasher);
                hasher.finish()
            };
            let mut sets = [MarkedFrameSet::new(), MarkedFrameSet::new()];
            let mut models = [BTreeMap::<u64, bool>::new(), BTreeMap::new()];
            let mut now = 0u64;
            for (op, second, value, flag) in ops {
                let (dst, src) = if second { (1, 0) } else { (0, 1) };
                match op {
                    0 | 1 => {
                        // Mostly consecutive frames, now and then a gap wider
                        // than the inline span.
                        now += if value < 360 { value % 3 } else { value - 200 };
                        sets[dst].push(FrameId(now), flag);
                        *models[dst].entry(now).or_insert(false) |= flag;
                    }
                    2 => {
                        // Expiry runs on both sets, as the maintainers do
                        // before they push or merge.
                        let oldest = now.saturating_sub(value);
                        for (set, model) in sets.iter_mut().zip(&mut models) {
                            set.expire_before(FrameId(oldest));
                            model.retain(|&frame, _| frame >= oldest);
                            if model.is_empty() {
                                prop_assert_eq!(set.word_count(), INLINE_WORDS);
                            }
                        }
                    }
                    _ => {
                        let source = sets[src].clone();
                        sets[dst].merge_from(&source);
                        for (frame, marked) in models[src].clone() {
                            *models[dst].entry(frame).or_insert(false) |= marked;
                        }
                    }
                }
                for (set, model) in sets.iter().zip(&models) {
                    let pairs: Vec<(u64, bool)> = set.iter().map(|(f, m)| (f.raw(), m)).collect();
                    let expected: Vec<(u64, bool)> = model.iter().map(|(&f, &m)| (f, m)).collect();
                    prop_assert_eq!(&pairs, &expected);
                    prop_assert_eq!(set.len(), model.len());
                    prop_assert_eq!(set.is_empty(), model.is_empty());
                    prop_assert_eq!(set.has_marked(), model.values().any(|&m| m));
                    prop_assert_eq!(set.first().map(FrameId::raw), model.keys().next().copied());
                    prop_assert_eq!(set.last().map(FrameId::raw), model.keys().next_back().copied());
                    for probe in [now, now.saturating_sub(63), now.saturating_sub(64), now + 1] {
                        prop_assert_eq!(set.contains(FrameId(probe)), model.contains_key(&probe));
                    }
                    // Equality is by content, whatever base and storage.
                    let rebuilt: MarkedFrameSet =
                        expected.iter().map(|&(f, m)| (FrameId(f), m)).collect();
                    prop_assert_eq!(set, &rebuilt);
                    prop_assert_eq!(hash_of(set), hash_of(&rebuilt));
                }
                if sets[0] == sets[1] {
                    prop_assert_eq!(hash_of(&sets[0]), hash_of(&sets[1]));
                }
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
