//! Word-parallel dense bitmaps over a growing object universe.
//!
//! The MCOS maintenance algorithms are chains of set intersections, subset
//! and disjointness tests over small object sets. The interner makes set
//! *identity* O(1); this module makes the set *algebra* word-parallel and is
//! the **only stored form** of an interned set: one dense bitmap over the
//! feed's object universe per set, so an intersection is one pass of `AND`s
//! over a handful of `u64` words, and the content index hashes and compares
//! those same words (a cardinality is their popcount). A sorted
//! [`ObjectSet`](crate::ObjectSet) exists only at the edges (frames in,
//! results out) and is rebuilt from the bits on demand through the
//! universe's `slot → ObjectId` table.
//!
//! [`BitmapArena`] stores one fixed-stride bitmap per interned set in a
//! single flat `Vec<u64>`:
//!
//! * the **stride** is the number of words per entry. All entries share it,
//!   so entry `i` occupies `words[i * stride .. (i + 1) * stride]` — no
//!   per-entry allocation, no pointer chasing, and the pairwise kernels
//!   below walk two contiguous word runs;
//! * the [`UniverseMap`] maps each object a held set contains to a dense
//!   bit slot and back (owned by the [`SetInterner`](crate::SetInterner)):
//!   a slot is freed with the last held set that has its bit, and a new
//!   object takes the lowest free slot, so the slots in use follow the
//!   held sets' objects. When a new slot exceeds the current stride the
//!   arena re-strides: every entry is copied into a wider, zero-padded
//!   layout, at least a quarter wider (O(log n) re-strides, padding under a
//!   quarter). [`hash_run`] ignores trailing zero words, so a re-stride
//!   never changes an entry's hash;
//! * the flat vector grows by the same rule: out of room it reserves a
//!   quarter more words (at least one entry), not double, and a re-stride
//!   allocates its wider layout with that headroom already in place;
//! * a compaction epoch keeps the live entries and rewrites their bits
//!   through an `old slot → new slot` table against a re-densified universe
//!   ([`UniverseMap::retain_slots`], [`BitmapArena::retain_remapped`]) at
//!   the stride that universe needs exactly, which is what keeps
//!   long-running unbounded feeds bounded (see `SetInterner::compact`).

use crate::hash::{FxHashMap, K};
use crate::ids::ObjectId;

/// Bits per bitmap word.
const WORD_BITS: usize = u64::BITS as usize;

/// Sets bit `slot` in a word run, growing the run with zero words as needed.
#[inline]
pub fn set_bit(run: &mut Vec<u64>, slot: u32) {
    let word = slot as usize / WORD_BITS;
    if run.len() <= word {
        run.resize(word + 1, 0);
    }
    run[word] |= 1u64 << (slot as usize % WORD_BITS);
}

/// The set bit slots of a word run, ascending.
pub fn slots_of(run: &[u64]) -> impl Iterator<Item = u32> + '_ {
    run.iter().enumerate().flat_map(|(index, &word)| {
        let base = (index * WORD_BITS) as u32;
        std::iter::successors((word != 0).then_some(word), |&rest| {
            let rest = rest & (rest - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |rest| base + rest.trailing_zeros())
    })
}

/// Hashes a word run's content. Trailing zero words are skipped, so an entry
/// hashes the same before and after the arena re-strides (the stride-
/// independent form the interner's content index relies on). Same multiply-
/// xor fold as [`FxHasher`](crate::FxHasher); the high bits carry the mix.
#[inline]
pub fn hash_run(run: &[u64]) -> u64 {
    let used = run
        .iter()
        .rposition(|&word| word != 0)
        .map_or(0, |last| last + 1);
    run[..used].iter().fold(0u64, |hash, &word| {
        (hash.rotate_left(5) ^ word).wrapping_mul(K)
    })
}

/// Words reserved past `len` whenever the arena grows: a quarter of it,
/// and at least one `stride`-word entry.
fn headroom(stride: usize, len: usize) -> usize {
    stride.max(len / 4)
}

/// How a pair `(a, b)` of bitmaps relates ([`BitmapArena::relate_into`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// No shared bit: `a ∩ b = ∅`.
    Disjoint,
    /// `a ⊆ b`, so `a ∩ b = a`.
    FirstInside,
    /// `b ⊊ a`, so `a ∩ b = b`.
    SecondInside,
    /// A shared bit, and each has one the other lacks: `a ∩ b` is a third set.
    Overlap,
}

/// A flat arena of fixed-stride `u64` bitmaps, one per interned set.
///
/// Slots are assigned by the owning interner; this type only concerns
/// itself with the word-parallel kernels and the stride bookkeeping.
#[derive(Debug, Default, Clone)]
pub struct BitmapArena {
    /// All bitmaps, concatenated: entry `i` is `words[i*stride..(i+1)*stride]`.
    words: Vec<u64>,
    /// Words per entry (grows as the universe grows; shrinks only through
    /// [`BitmapArena::retain_remapped`]).
    stride: usize,
    /// Number of entries pushed.
    entries: usize,
}

impl BitmapArena {
    /// Words per entry.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Bytes held by the bitmap words: their length plus at most
    /// `max(stride, len/4)` words of headroom (none after a compaction).
    pub fn bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Number of entries pushed.
    #[inline]
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Grows the stride so that bit `max_slot` fits, re-laying out every
    /// existing entry. No-op when the slot already fits. The new stride,
    /// `max(needed, stride + ⌈stride/4⌉)`, keeps padding under a quarter of
    /// it and a growing universe's re-strides O(log n). The new layout is
    /// allocated with [`push_run`](Self::push_run)'s quarter of headroom,
    /// so the next push does not copy the whole arena again.
    pub fn ensure_slot(&mut self, max_slot: u32) {
        let needed = max_slot as usize / WORD_BITS + 1;
        if needed <= self.stride {
            return;
        }
        let new_stride = needed.max(self.stride + self.stride.div_ceil(4));
        let len = self.entries * new_stride;
        let mut words = Vec::with_capacity(len + headroom(new_stride, len));
        words.resize(len, 0);
        for entry in 0..self.entries {
            let src = entry * self.stride;
            let dst = entry * new_stride;
            words[dst..dst + self.stride].copy_from_slice(&self.words[src..src + self.stride]);
        }
        self.words = words;
        self.stride = new_stride;
    }

    /// Appends one entry holding `run`, zero-padded to the stride. The run
    /// must fit the current stride (callers run
    /// [`BitmapArena::ensure_slot`] first). Out of room, the words grow by
    /// exactly `max(stride, len/4)`, not by doubling: the unused tail is at
    /// most a quarter of the words, or one entry while the arena is small.
    pub fn push_run(&mut self, run: &[u64]) {
        // infallible: the interner, the one caller, runs `ensure_slot` for
        // every slot its universe hands out, and builds runs over those.
        debug_assert!(run.len() <= self.stride, "run beyond stride");
        let base = self.words.len();
        if base + self.stride > self.words.capacity() {
            self.words.reserve_exact(headroom(self.stride, base));
        }
        self.words.extend_from_slice(run);
        self.words.resize(base + self.stride, 0);
        self.entries += 1;
    }

    /// Overwrites entry `index` with `run`, zero-padded to the stride (an
    /// empty run zeroes it): how a released handle's entry is reused.
    pub fn write_run(&mut self, index: usize, run: &[u64]) {
        let entry = &mut self.words[index * self.stride..(index + 1) * self.stride];
        entry[..run.len()].copy_from_slice(run);
        entry[run.len()..].fill(0);
    }

    /// The words of entry `index`.
    #[inline]
    pub fn entry(&self, index: usize) -> &[u64] {
        &self.words[index * self.stride..(index + 1) * self.stride]
    }

    /// Whether entry `index` holds exactly the words of `run` (a run of
    /// stride words). A word loop the compiler inlines, not a `memcmp`
    /// call: the content index compares an entry at every probe step
    /// (several at ¾ load), and MFS probes on every overlap.
    #[inline]
    pub fn entry_is(&self, index: usize, run: &[u64]) -> bool {
        let entry = self.entry(index);
        entry.len() == run.len() && entry.iter().zip(run).all(|(x, y)| x == y)
    }

    /// Writes `a ∩ b` into `out` (resized to the stride) and says how the
    /// entries relate, in one pass of three accumulators and no bit count:
    /// the interner's memo-miss kernel, which needs the relation to settle
    /// disjoint and subset pairs and the words only for a proper overlap.
    #[inline]
    pub fn relate_into(&self, a: usize, b: usize, out: &mut Vec<u64>) -> Relation {
        let (mut any, mut a_out, mut b_out) = (0u64, 0u64, 0u64);
        out.clear();
        out.extend(self.entry(a).iter().zip(self.entry(b)).map(|(&x, &y)| {
            any |= x & y;
            a_out |= x & !y;
            b_out |= y & !x;
            x & y
        }));
        if any == 0 {
            Relation::Disjoint
        } else if a_out == 0 {
            Relation::FirstInside
        } else if b_out == 0 {
            Relation::SecondInside
        } else {
            Relation::Overlap
        }
    }

    /// Whether `a ⊆ b` — true when no word of `a` has a bit outside `b`.
    #[inline]
    pub fn is_subset(&self, a: usize, b: usize) -> bool {
        self.entry(a)
            .iter()
            .zip(self.entry(b))
            .all(|(&x, &y)| x & !y == 0)
    }

    /// The union of the given entries: every bit slot some entry uses.
    pub fn union_of(&self, entries: impl IntoIterator<Item = usize>) -> Vec<u64> {
        let mut union = vec![0u64; self.stride];
        for entry in entries {
            for (acc, &word) in union.iter_mut().zip(self.entry(entry)) {
                *acc |= word;
            }
        }
        union
    }

    /// Compaction: keeps exactly the entries listed in `keep` (in that
    /// order), moving every set bit from its old slot to `slot_map[old]`.
    /// Stride and capacity are sized once, exactly, for the `slots`-object
    /// universe the map targets: no padding word survives an epoch.
    pub fn retain_remapped(&mut self, keep: &[usize], slot_map: &[u32], slots: usize) {
        let stride = slots.div_ceil(WORD_BITS);
        let mut words = vec![0u64; keep.len() * stride];
        for (new, &old) in keep.iter().enumerate() {
            let target = &mut words[new * stride..(new + 1) * stride];
            for slot in slots_of(self.entry(old)) {
                let slot = slot_map[slot as usize] as usize;
                target[slot / WORD_BITS] |= 1u64 << (slot % WORD_BITS);
            }
        }
        self.words = words;
        self.stride = stride;
        self.entries = keep.len();
    }
}

/// The slot value of a parked object: registered, but holding no slot.
const PARKED: u32 = u32::MAX;

/// The dense `ObjectId ↔ bit slot` universe map owned by an interner.
///
/// A slot lives while a held set has its bit: each slot counts its
/// holders, the interner adds one for every bit of a set it mints and
/// takes one away for every bit of a set it releases, and the slot is
/// free once its count reaches 0. Its object is then *parked*: still
/// registered, but holding no slot, so no lookup finds it until
/// [`slot_of`](Self::slot_of) gives it one again. A new slot is the lowest
/// free one, so the slots in use, and the bitmaps' width, follow the
/// objects the held sets contain. A compaction epoch keeps the slots some
/// surviving set uses, renumbers them densely and retires every other
/// registered object, parked ones included.
#[derive(Debug, Default, Clone)]
pub struct UniverseMap {
    /// Every registered object → its slot, or [`PARKED`].
    slots: FxHashMap<ObjectId, u32>,
    /// Reverse table: `objects[slot]` is the object holding `slot` (stale
    /// for a free slot). Lets a bitmap be turned back into tracker ids
    /// without a stored sorted copy.
    objects: Vec<ObjectId>,
    /// `holders[slot]`: how many held sets have the slot's bit.
    holders: Vec<u32>,
    /// The free slots, as a word run: bit `slot` is set while it is free.
    free: Vec<u64>,
}

impl UniverseMap {
    /// Number of registered objects, parked ones included.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no object is registered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of slots handed out, free ones included: every slot is
    /// below it.
    #[inline]
    pub fn slot_count(&self) -> usize {
        self.objects.len()
    }

    /// The slot of `id`, registering it on first sight. An object without
    /// a slot takes the lowest free one, or the next past the last.
    #[inline]
    pub fn slot_of(&mut self, id: ObjectId) -> u32 {
        match self.get(id) {
            Some(slot) => slot,
            None => self.take_slot(id),
        }
    }

    /// Gives `id` the lowest free slot, or the next past the last.
    fn take_slot(&mut self, id: ObjectId) -> u32 {
        let slot = match self.free.iter().position(|&word| word != 0) {
            Some(index) => {
                let word = &mut self.free[index];
                let slot = (index * WORD_BITS) as u32 + word.trailing_zeros();
                *word &= *word - 1;
                self.objects[slot as usize] = id;
                slot
            }
            None => {
                self.objects.push(id);
                self.holders.push(0);
                self.objects.len() as u32 - 1
            }
        };
        self.slots.insert(id, slot);
        slot
    }

    /// The slot of `id`, if it holds one.
    #[inline]
    pub fn get(&self, id: ObjectId) -> Option<u32> {
        self.slots.get(&id).copied().filter(|&slot| slot != PARKED)
    }

    /// The object holding `slot` (which must have been assigned).
    #[inline]
    pub fn object_at(&self, slot: u32) -> ObjectId {
        self.objects[slot as usize]
    }

    /// One more held set has the bit of `slot`.
    #[inline]
    pub fn hold(&mut self, slot: u32) {
        self.holders[slot as usize] += 1;
    }

    /// One held set fewer has the bit of `slot`; at none the slot is free
    /// and its object parked.
    #[inline]
    pub fn unhold(&mut self, slot: u32) {
        let holders = &mut self.holders[slot as usize];
        *holders -= 1;
        if *holders == 0 {
            self.slots.insert(self.objects[slot as usize], PARKED);
            set_bit(&mut self.free, slot);
        }
    }

    /// How many held sets have the bit of `slot`.
    #[inline]
    pub fn holders(&self, slot: u32) -> u32 {
        self.holders[slot as usize]
    }

    /// Whether `slot` is free.
    #[inline]
    pub fn is_free(&self, slot: u32) -> bool {
        let word = self
            .free
            .get(slot as usize / WORD_BITS)
            .copied()
            .unwrap_or(0);
        (word >> (slot as usize % WORD_BITS)) & 1 == 1
    }

    /// Every registered object, parked ones included, in no order.
    pub fn object_ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.slots.keys().copied()
    }

    /// The parked objects, ascending.
    pub fn parked(&self) -> Vec<ObjectId> {
        let parked = self.slots.iter().filter(|&(_, &slot)| slot == PARKED);
        let mut parked: Vec<ObjectId> = parked.map(|(&id, _)| id).collect();
        parked.sort_unstable();
        parked
    }

    /// Registers `id` as parked: known, in no slot. `false`, and nothing
    /// changes, when `id` is registered already.
    pub fn park(&mut self, id: ObjectId) -> bool {
        if self.slots.contains_key(&id) {
            return false;
        }
        self.slots.insert(id, PARKED);
        true
    }

    /// Approximate bytes held by the map, its reverse table, the holder
    /// counts and the free slots.
    pub fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<(ObjectId, u32, u64)>()
            + (self.objects.capacity() + self.holders.capacity()) * std::mem::size_of::<u32>()
            + self.free.capacity() * std::mem::size_of::<u64>()
    }

    /// Compaction: keeps the slots whose bit is set in `live` (a word run
    /// over the current slots) and renumbers them densely in slot order,
    /// each with no holder yet. Returns the `old slot → new slot` table
    /// (entries of dropped slots are meaningless) and the objects that
    /// lost their registration: the parked ones and those of dropped slots.
    pub fn retain_slots(&mut self, live: &[u64]) -> (Vec<u32>, Vec<ObjectId>) {
        let mut retired = self.parked();
        let old = std::mem::take(&mut self.objects);
        let mut slot_map = vec![0u32; old.len()];
        let mut kept = Vec::with_capacity(live.iter().map(|w| w.count_ones() as usize).sum());
        for (slot, &id) in (0u32..).zip(&old) {
            if (live[slot as usize / WORD_BITS] >> (slot as usize % WORD_BITS)) & 1 == 1 {
                slot_map[slot as usize] = kept.len() as u32;
                kept.push(id);
            } else if !self.is_free(slot) {
                retired.push(id);
            }
        }
        self.slots = kept
            .iter()
            .zip(0u32..)
            .map(|(&id, slot)| (id, slot))
            .collect();
        self.holders = vec![0; kept.len()];
        self.free = Vec::new();
        self.objects = kept;
        (slot_map, retired)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_of(slots: &[u32]) -> Vec<u64> {
        let mut run = Vec::new();
        for &slot in slots {
            set_bit(&mut run, slot);
        }
        run
    }

    /// `|a ∩ b|`: the popcount of the words the relation kernel writes.
    fn and_count(arena: &BitmapArena, a: usize, b: usize) -> usize {
        let mut out = Vec::new();
        arena.relate_into(a, b, &mut out);
        slots_of(&out).count()
    }

    fn arena_with(sets: &[&[u32]]) -> BitmapArena {
        let mut arena = BitmapArena::default();
        for slots in sets {
            if let Some(&max) = slots.iter().max() {
                arena.ensure_slot(max);
            }
            arena.push_run(&run_of(slots));
        }
        arena
    }

    #[test]
    fn and_count_subset_disjoint_on_one_word() {
        let arena = arena_with(&[&[0, 2, 5], &[2, 5, 9], &[1, 3], &[], &[2, 5]]);
        let relate = |a, b| arena.relate_into(a, b, &mut Vec::new());
        assert_eq!(relate(0, 1), Relation::Overlap);
        assert_eq!(and_count(&arena, 0, 1), 2);
        assert_eq!(relate(0, 2), Relation::Disjoint);
        assert_eq!(
            relate(3, 0),
            Relation::Disjoint,
            "the empty set shares no bit"
        );
        assert_eq!(relate(4, 0), Relation::FirstInside);
        assert_eq!(relate(0, 4), Relation::SecondInside);
        assert_eq!(slots_of(arena.entry(0)).count(), 3);
        assert!(arena.is_subset(3, 0), "empty set is a subset of anything");
        assert!(!arena.is_subset(0, 1));
        assert!(arena.is_subset(4, 0) && !arena.is_subset(0, 4));
    }

    #[test]
    fn restride_preserves_existing_entries_and_their_hashes() {
        let mut arena = arena_with(&[&[0, 63]]);
        assert_eq!(arena.stride(), 1);
        let hash = hash_run(arena.entry(0));
        arena.ensure_slot(64);
        assert_eq!(arena.stride(), 2);
        arena.push_run(&run_of(&[64, 0]));
        assert_eq!(and_count(&arena, 0, 1), 1, "bit 0 survives the re-stride");
        assert!(!arena.is_subset(1, 0));
        arena.ensure_slot(1000);
        assert_eq!(arena.stride(), 16, "a jump past a quarter fits exactly");
        arena.ensure_slot(16 * 64);
        assert_eq!(arena.stride(), 20, "one more word grows the stride by 4");
        assert_eq!(and_count(&arena, 0, 1), 1);
        assert_eq!(hash_run(arena.entry(0)), hash, "zero padding is not hashed");
        assert_ne!(hash_run(arena.entry(1)), hash);
        assert_eq!(arena.entries(), 2);
    }

    #[test]
    fn multi_word_kernels() {
        let arena = arena_with(&[&[0, 64, 129, 200], &[64, 129], &[1, 65]]);
        assert_eq!(and_count(&arena, 0, 1), 2);
        assert!(arena.is_subset(1, 0));
        assert_eq!(and_count(&arena, 0, 2), 0);
        let mut out = vec![7; 9];
        assert_eq!(arena.relate_into(0, 1, &mut out), Relation::SecondInside);
        assert_eq!(slots_of(&out).collect::<Vec<_>>(), vec![64, 129]);
        assert_eq!(out.len(), arena.stride());
        assert_eq!(
            slots_of(&arena.union_of([1, 2])).collect::<Vec<_>>(),
            vec![1, 64, 65, 129]
        );
    }

    #[test]
    fn retain_remapped_rewrites_bits_and_shrinks_the_stride() {
        let mut arena = arena_with(&[&[], &[3, 100], &[100, 130], &[7]]);
        assert!(arena.stride() > 1);
        // Keep entries 0 and 2; slots 100 → 0 and 130 → 1 survive.
        let mut slot_map = vec![u32::MAX; 131];
        slot_map[100] = 0;
        slot_map[130] = 1;
        arena.retain_remapped(&[0, 2], &slot_map, 2);
        assert_eq!(arena.stride(), 1);
        assert_eq!(slots_of(arena.entry(0)).count(), 0);
        assert_eq!(slots_of(arena.entry(1)).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(arena.bytes(), 2 * 8, "sized once, exactly");
        // A 320-slot universe keeps five words, not the next power of two.
        let mut wide = arena_with(&[&[0, 319]]);
        wide.retain_remapped(&[0], &(0..320).collect::<Vec<_>>(), 320);
        assert_eq!(wide.stride(), 5);
        assert_eq!(slots_of(wide.entry(0)).collect::<Vec<_>>(), vec![0, 319]);
    }

    mod kernel_proptests {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]
            // Random slot sets over universes from one word to nine: raw
            // slots reduce modulo the universe so every sampled universe
            // size sees dense occupancy. `a` is pushed before the arena
            // grows to the whole universe, so most cases re-stride it.
            #[test]
            fn kernels_agree_with_the_set_oracle(
                universe in 1u32..=576,
                raw_a in proptest::collection::vec(0u32..576, 0..48),
                raw_b in proptest::collection::vec(0u32..576, 0..48),
            ) {
                let a: Vec<u32> = raw_a.iter().map(|s| s % universe).collect();
                let b: Vec<u32> = raw_b.iter().map(|s| s % universe).collect();
                let mut arena = BitmapArena::default();
                if let Some(&max) = a.iter().max() {
                    arena.ensure_slot(max);
                }
                arena.push_run(&run_of(&a));
                arena.ensure_slot(universe - 1);
                arena.push_run(&run_of(&b));
                let sa: BTreeSet<u32> = a.iter().copied().collect();
                let sb: BTreeSet<u32> = b.iter().copied().collect();
                prop_assert_eq!(arena.is_subset(0, 1), sa.is_subset(&sb));
                                let expected = if sa.is_disjoint(&sb) {
                    Relation::Disjoint
                } else if sa.is_subset(&sb) {
                    Relation::FirstInside
                } else if sb.is_subset(&sa) {
                    Relation::SecondInside
                } else {
                    Relation::Overlap
                };
                let mut out = Vec::new();
                prop_assert_eq!(arena.relate_into(0, 1, &mut out), expected);
                prop_assert_eq!(
                    slots_of(&out).collect::<Vec<_>>(),
                    sa.intersection(&sb).copied().collect::<Vec<_>>()
                );
                prop_assert_eq!(slots_of(arena.entry(0)).collect::<Vec<_>>(), sa.into_iter().collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn universe_assigns_dense_slots_first_seen() {
        let mut universe = UniverseMap::default();
        assert_eq!(universe.slot_of(ObjectId(40)), 0);
        assert_eq!(universe.slot_of(ObjectId(7)), 1);
        assert_eq!(universe.slot_of(ObjectId(40)), 0, "stable on re-query");
        assert_eq!(universe.get(ObjectId(7)), Some(1));
        assert_eq!(universe.get(ObjectId(8)), None);
        assert_eq!(universe.object_at(1), ObjectId(7));
        assert_eq!(universe.len(), 2);
    }

    #[test]
    fn universe_retain_slots_renumbers_in_slot_order() {
        let mut universe = UniverseMap::default();
        for id in [40, 7, 99, 3] {
            universe.slot_of(ObjectId(id));
        }
        let (slot_map, retired) = universe.retain_slots(&run_of(&[1, 3]));
        assert_eq!(retired, vec![ObjectId(40), ObjectId(99)]);
        assert_eq!((slot_map[1], slot_map[3]), (0, 1));
        assert_eq!(universe.len(), 2);
        assert_eq!(universe.get(ObjectId(7)), Some(0));
        assert_eq!(universe.object_at(1), ObjectId(3));
        assert_eq!(universe.get(ObjectId(40)), None);
        assert_eq!(universe.slot_of(ObjectId(40)), 2, "re-densified");
    }
}
