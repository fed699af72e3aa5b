//! The per-feed object-set interner.
//!
//! Every structure in the MCOS generation layer is keyed by object sets, and
//! the same few sets are intersected, hashed and compared thousands of times
//! per window. [`SetInterner`] stores each distinct set exactly once and
//! hands out dense [`SetId`] handles, so downstream structures key their maps
//! by handle: hashing ([`FxHasher`](crate::FxHasher) over a single `u32`),
//! equality and state lookup are O(1) integer operations.
//!
//! **The dense bitmap is the only stored form of an interned set.** The
//! interner owns a [`UniverseMap`] assigning each observed `ObjectId` a bit
//! slot (and back), and a [`BitmapArena`] holding one fixed-stride `u64`
//! bitmap per handle. Beside the bitmap a set costs a `u32` cardinality and
//! its share of the content index — no sorted slice, no `ObjectSet`-keyed
//! map, no class counts. On top of that the interner:
//!
//! * **indexes content by the bitmap words** — an open-addressed table of
//!   bare `SetId`s (linear probing, at most half full), hashed with
//!   [`hash_run`] and compared on the entry's words. The hash ignores
//!   trailing zero words, so the zero-padding a re-stride adds when the
//!   universe crosses 64/128/256… slots never moves an entry;
//! * **runs the set algebra word-parallel** —
//!   [`is_subset_of`](SetInterner::is_subset_of) is a word-AND loop, and
//!   [`intersect_uncached`](SetInterner::intersect_uncached) ANDs the two
//!   entries into a scratch run while counting the overlap, hashes it,
//!   probes, and appends the words only when the result is a genuinely new
//!   set — no allocation either way (it takes a known superset or a likely
//!   answer that can spare the probe);
//! * **materialises tracker ids on demand** —
//!   [`resolve`](SetInterner::resolve) rebuilds a sorted [`ObjectSet`] from
//!   a handle's bits for the few consumers that need one (result
//!   collection, the once-per-set pruner verdict, snapshots, tests);
//! * **memoizes intersections** for SSG and NAIVE (MFS calls
//!   `intersect_uncached` and never allocates the memo) — a direct-mapped
//!   cache of `(SetId, SetId) → SetId` entries, normalised so the
//!   commutative pair shares one slot. The cache has a fixed size
//!   ([`MemoConfig`], 4096 slots by default): a miss costs a word-AND, so a
//!   table that grows past the CPU cache loses more on every probe than its
//!   extra hits save;
//! * **counts classes on demand** — when constructed with a class source
//!   ([`SetInterner::with_classes`]), [`counts_of`](SetInterner::counts_of)
//!   aggregates a handle's bits into a [`ClassCounts`]. Nothing is computed
//!   at intern time: most interned sets are never reported nor judged, so
//!   the callers that do read counts (result reporting, the once-per-set
//!   pruner verdict) keep what they computed. Keeping it is sound because a
//!   [`ClassStore`](crate::ClassStore) entry never changes while it exists
//!   (identifier reuse mints fresh internal ids) and a live set's objects
//!   are never retired.
//!
//! Within one epoch the arena and the memo are **append-only**: interning is
//! cheap and ids stay stable, at the cost of memory that grows with the
//! number of distinct sets ever observed. For long-running unbounded-universe
//! deployments, [`SetInterner::compact`] starts a new **epoch**: the
//! caller's live handles keep their bitmaps (rewritten against a
//! re-densified universe), everything else is dropped, and a [`RemapTable`]
//! translating old handles to their new values is handed back so every
//! handle-keyed downstream structure can re-key itself. The engine triggers
//! compaction between frames when live-set occupancy falls below a
//! configured ratio.

use std::sync::PoisonError;

use crate::aggregates::ClassCounts;
use crate::bitmap::{hash_run, set_bit, slots_of, BitmapArena, UniverseMap};
use crate::class_store::SharedClassMap;
use crate::codec::{Decoder, Encoder};
use crate::error::{Error, Result};
use crate::ids::ObjectId;
use crate::object_set::ObjectSet;

/// Dense handle of an interned [`ObjectSet`].
///
/// Handles are only meaningful relative to the [`SetInterner`] that issued
/// them — and only within the epoch that issued them: a compaction epoch
/// retires every handle it does not keep, and the accompanying
/// [`RemapTable`] is the sole bridge between epochs. `SetId::EMPTY` is
/// always the empty set, in every interner and every epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SetId(u32);

impl SetId {
    /// The empty object set (interned at id 0 by construction).
    pub const EMPTY: SetId = SetId(0);

    /// The raw arena index.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a handle from its raw arena index. For the durability codec,
    /// which persists handles alongside the exact arena state that defines
    /// them; a handle reconstructed against any other arena is meaningless.
    #[inline]
    pub fn from_raw(raw: u32) -> SetId {
        SetId(raw)
    }

    #[inline]
    fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this handle is the empty set.
    #[inline]
    pub fn is_empty_set(self) -> bool {
        self == SetId::EMPTY
    }
}

/// The `old SetId → new SetId` translation produced by one compaction epoch.
///
/// Handles the caller declared live are mapped to their new, denser ids;
/// every other handle of the previous epoch maps to `None` (the set was
/// dropped from the arena and must be re-interned if it ever reappears).
///
/// The table also carries the epoch's **retire set**: the objects whose bit
/// slots were re-densified away because no surviving set contains them.
/// Upstream layers use it to drop those identifiers from their own
/// per-object state (bindings, class-store entries), which is
/// what bounds the *engine-side* memory to the live window.
#[derive(Debug, Clone)]
pub struct RemapTable {
    map: Vec<Option<SetId>>,
    epoch: u64,
    live: usize,
    retired_objects: Vec<ObjectId>,
}

impl RemapTable {
    /// The new handle of a previous-epoch handle, or `None` if the set was
    /// retired by the compaction.
    #[inline]
    pub fn remap(&self, old: SetId) -> Option<SetId> {
        self.map.get(old.index()).copied().flatten()
    }

    /// The epoch this table transitions *into*.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of handles that survived (including the empty set).
    pub fn live(&self) -> usize {
        self.live
    }

    /// Number of handles retired by the compaction.
    pub fn retired(&self) -> usize {
        self.map.len() - self.live
    }

    /// The objects retired by this epoch (no surviving set contains them),
    /// in ascending identifier order.
    pub fn retired_objects(&self) -> &[ObjectId] {
        &self.retired_objects
    }

    /// Takes ownership of the retire set (see
    /// [`retired_objects`](Self::retired_objects)), leaving it empty.
    pub fn take_retired_objects(&mut self) -> Vec<ObjectId> {
        std::mem::take(&mut self.retired_objects)
    }
}

/// Size of the intersection memo: a direct-mapped `(SetId, SetId) → SetId`
/// cache of `2^bits` slots (12 bytes each), allocated on first use and
/// dropped at every compaction (its entries reference retired handles).
///
/// The size is fixed on purpose. Since the miss path became a word-AND over
/// two bitmaps, hit rate stopped predicting time: a table grown to fit the
/// live pair working set (2^20 slots on a dense film) turns every probe
/// into a DRAM miss and runs slower than 4096 slots that stay in cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoConfig {
    /// log2 of the slot count, clamped to `1..=30` when the memo is built.
    pub bits: u32,
}

impl MemoConfig {
    /// The slot-count exponent in effect: a nonsensical request (0 bits, 99
    /// bits) degrades to the nearest supported size instead of panicking on
    /// shift overflow.
    fn clamped_bits(self) -> u32 {
        self.bits.clamp(1, 30)
    }
}

impl Default for MemoConfig {
    /// 4096 slots (48 KiB).
    fn default() -> Self {
        MemoConfig { bits: 12 }
    }
}

/// Sentinel for an unused memo slot (`a == b` pairs never reach the cache).
const MEMO_FREE: (SetId, SetId) = (SetId::EMPTY, SetId::EMPTY);

/// Fewest content-index slots allocated (the index doubles from here).
const MIN_INDEX_SLOTS: usize = 16;

/// The object-set arena with word-parallel set algebra, intersection
/// memoization, on-demand class counts and epoch compaction. See the
/// [module docs](self).
#[derive(Debug, Default)]
pub struct SetInterner {
    /// `SetId` → the set, as a dense bitmap. Index 0 is always the empty set.
    bitmaps: BitmapArena,
    /// `SetId` → number of objects in the set.
    lens: Vec<u32>,
    /// Content index: open-addressed, power-of-two sized, at most half full.
    /// A slot holds the raw `SetId` of an entry, hashed and compared on that
    /// entry's bitmap words; 0 marks a free slot (the empty set is never
    /// indexed).
    index: Vec<u32>,
    /// The `ObjectId ↔ bit slot` universe of the current epoch.
    universe: UniverseMap,
    /// Reusable word run: the set being interned or intersected.
    scratch: Vec<u64>,
    /// Direct-mapped intersection cache: `(a, b, a ∩ b)` keyed by the
    /// normalised (smaller, larger) pair; collisions overwrite. Allocated
    /// lazily on the first intersection, cleared by compaction (its entries
    /// reference retired handles) at `2^memo_config.bits` slots.
    memo: Vec<(SetId, SetId, SetId)>,
    memo_config: MemoConfig,
    /// The engine's class store, when class counts are wanted.
    classes: Option<SharedClassMap>,
    memo_hits: u64,
    memo_misses: u64,
    memo_entries: usize,
    epoch: u64,
}

impl SetInterner {
    /// Creates an interner without a class source:
    /// [`SetInterner::counts_of`] returns `None`.
    pub fn new() -> Self {
        let mut interner = SetInterner::default();
        interner.push_entry(&[], 0);
        interner.rebuild_index();
        interner
    }

    /// Creates an interner that can aggregate any set's [`ClassCounts`]
    /// ([`counts_of`](Self::counts_of)) from the engine's object → class
    /// map.
    ///
    /// Every object of a set must be present in the map while the set is
    /// live; the engine's lifecycle guarantees this by registering the
    /// classes of a frame's detections before the frame reaches the
    /// maintainer, and by releasing an object's class only once a compaction
    /// epoch retired it.
    pub fn with_classes(classes: SharedClassMap) -> Self {
        let mut interner = SetInterner::new();
        interner.classes = Some(classes);
        interner
    }

    /// Sets the intersection-memo size. Meant for construction time (the
    /// engine applies its configured size when it builds the interner); a
    /// memo that already exists is dropped and refills at the new size.
    pub fn with_memo_config(mut self, config: MemoConfig) -> Self {
        self.memo_config = config;
        self.memo = Vec::new();
        self.memo_entries = 0;
        self
    }

    /// Number of distinct sets interned (including the empty set).
    pub fn len(&self) -> usize {
        self.lens.len()
    }

    /// Whether only the empty set has been interned.
    pub fn is_empty(&self) -> bool {
        self.lens.len() <= 1
    }

    /// Number of distinct objects in the current epoch's universe.
    pub fn universe_len(&self) -> usize {
        self.universe.len()
    }

    /// The current epoch's universe as a sorted identifier list. Test hook:
    /// the model checker asserts the universe tracks the lifecycle's
    /// registered-object set exactly (their agreement is what makes each
    /// epoch's retire set total), which needs the members, not just
    /// [`universe_len`](Self::universe_len).
    pub fn universe_object_ids(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.universe.object_ids().collect();
        ids.sort_unstable();
        ids
    }

    /// Appends the interner's entire persistent identity: the non-empty
    /// arena sets in handle order (`SetId(1)..`), each a length-prefixed
    /// sorted identifier list, then the compaction epoch (not derivable from
    /// the arena, and compaction outcomes must keep numbering from where the
    /// snapshotted engine left off). The intersection memo is a cache and is
    /// not persisted — only its hit/miss counters drift after recovery.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.len() - 1);
        for index in 1..self.lens.len() {
            let set = self.resolve(SetId(index as u32));
            enc.put_usize(set.len());
            for id in set.iter() {
                enc.put_u32(id.raw());
            }
        }
        enc.put_u64(self.epoch);
    }

    /// Reads what [`encode`](Self::encode) wrote into a freshly built
    /// interner (same class store, same memo policy, nothing interned yet):
    /// re-interning the sets in handle order reproduces identical handles,
    /// universe slots and bitmaps. Each set must land
    /// on the handle it was persisted under — a duplicate or out-of-order
    /// arena is corrupt data, and silently re-keying it would detach every
    /// handle-keyed map restored afterwards.
    pub fn restore_into_fresh(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        if self.len() != 1 {
            return Err(Error::Store(
                "interner restore requires a freshly built interner".into(),
            ));
        }
        let sets = dec.take_len()?;
        for index in 0..sets {
            let len = dec.take_len()?;
            let mut ids = Vec::with_capacity(len);
            for _ in 0..len {
                ids.push(ObjectId(dec.take_u32()?));
            }
            // The persisted order is sorted, but the input is untrusted, so
            // the sort is re-established rather than assumed.
            let sid = self.intern(&ObjectSet::from_ids(ids));
            if sid.raw() as usize != index + 1 {
                return Err(Error::Corrupt(format!(
                    "arena set {} re-interned to handle {} (duplicate or empty set in snapshot)",
                    index + 1,
                    sid.raw()
                )));
            }
        }
        self.epoch = dec.take_u64()?;
        Ok(())
    }

    /// Number of occupied intersection-cache slots.
    pub fn memo_len(&self) -> usize {
        self.memo_entries
    }

    /// How many intersections were answered from the memo (lifetime,
    /// survives compaction).
    pub fn memo_hits(&self) -> u64 {
        self.memo_hits
    }

    /// How many intersections missed the memo and ran the word-parallel
    /// kernel (lifetime, survives compaction).
    pub fn memo_misses(&self) -> u64 {
        self.memo_misses
    }

    /// Current number of memo slots (0 until the first intersection
    /// allocates the cache).
    pub fn memo_slots(&self) -> usize {
        self.memo.len()
    }

    /// Bytes held per set beside its bitmap: the cardinality column plus
    /// the content index. Bitmap storage is reported separately by
    /// [`SetInterner::bitmap_bytes`].
    pub fn arena_bytes(&self) -> usize {
        (self.lens.capacity() + self.index.capacity()) * std::mem::size_of::<u32>()
    }

    /// Bytes held by the dense bitmaps (the scratch run included) and the
    /// universe map with its reverse table.
    pub fn bitmap_bytes(&self) -> usize {
        self.bitmaps.bytes()
            + self.scratch.capacity() * std::mem::size_of::<u64>()
            + self.universe.bytes()
    }

    /// Interns a set, returning its stable handle. Objects seen for the
    /// first time are assigned bit slots (such a set is necessarily new).
    pub fn intern(&mut self, set: &ObjectSet) -> SetId {
        if set.is_empty() {
            return SetId::EMPTY;
        }
        let mut run = std::mem::take(&mut self.scratch);
        run.clear();
        for object in set.iter() {
            set_bit(&mut run, self.universe.slot_of(object));
        }
        self.bitmaps.ensure_slot(self.universe.len() as u32 - 1);
        run.resize(self.bitmaps.stride(), 0);
        let id = self.find_or_insert(&run, set.len());
        self.scratch = run;
        id
    }

    /// Looks a set up without interning it (and without assigning slots: a
    /// set holding an unseen object cannot have been interned).
    pub fn get(&self, set: &ObjectSet) -> Option<SetId> {
        if set.is_empty() {
            return Some(SetId::EMPTY);
        }
        let mut run = vec![0u64; self.bitmaps.stride()];
        for object in set.iter() {
            set_bit(&mut run, self.universe.get(object)?);
        }
        let id = self.index[self.probe(&run)];
        (id != 0).then_some(SetId(id))
    }

    /// Where `run` (stride words) lives in the content index: the slot
    /// holding the handle whose bitmap equals it, or else the free slot that
    /// ends its probe sequence — where it would be inserted.
    fn probe(&self, run: &[u64]) -> usize {
        let mask = self.index.len() - 1;
        let mut slot = (hash_run(run) >> (u64::BITS - self.index.len().trailing_zeros())) as usize;
        while self.index[slot] != 0 && self.bitmaps.entry(self.index[slot] as usize) != run {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Re-creates the content index for the current entries at the smallest
    /// power-of-two size they fill at most half of.
    fn rebuild_index(&mut self) {
        let slots = (self.lens.len() * 2).next_power_of_two();
        self.index = vec![0; slots.max(MIN_INDEX_SLOTS)];
        for id in 1..self.lens.len() {
            let slot = self.probe(self.bitmaps.entry(id));
            self.index[slot] = id as u32;
        }
    }

    fn find_or_insert(&mut self, run: &[u64], len: usize) -> SetId {
        let slot = self.probe(run);
        if self.index[slot] != 0 {
            return SetId(self.index[slot]);
        }
        let id = self.push_entry(run, len);
        self.index[slot] = id.0;
        if self.lens.len() * 2 > self.index.len() {
            self.rebuild_index();
        }
        id
    }

    /// Appends a set (not yet indexed) and returns its handle.
    fn push_entry(&mut self, run: &[u64], len: usize) -> SetId {
        debug_assert!(self.lens.len() < u32::MAX as usize, "interner arena full");
        let id = SetId(self.lens.len() as u32);
        self.bitmaps.push_run(run);
        self.lens.push(len as u32);
        id
    }

    /// The set behind a handle, materialised as a sorted [`ObjectSet`] from
    /// its bits (slot order is first-seen order, not identifier order, hence
    /// the sort). Allocates: callers that report the same handle frame after
    /// frame keep the result instead of asking again.
    pub fn resolve(&self, id: SetId) -> ObjectSet {
        let mut ids = Vec::with_capacity(self.len_of(id));
        ids.extend(
            slots_of(self.bitmaps.entry(id.index())).map(|slot| self.universe.object_at(slot)),
        );
        ids.sort_unstable();
        ObjectSet::from_sorted_unchecked(ids)
    }

    /// Number of objects in the set behind a handle.
    #[inline]
    pub fn len_of(&self, id: SetId) -> usize {
        self.lens[id.index()] as usize
    }

    /// The class counts of the set behind a handle, aggregated from its
    /// bits now, when the interner has a class source. `None` otherwise —
    /// callers must then aggregate the resolved set themselves. Allocates:
    /// a caller that reads the same handle again keeps the result.
    pub fn counts_of(&self, id: SetId) -> Option<ClassCounts> {
        // Live store entries are immutable, so a poisoned lock still holds
        // usable data; recover instead of cascading panics (same reasoning
        // as the engine's LivePruner).
        let store = self
            .classes
            .as_ref()?
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let objects =
            slots_of(self.bitmaps.entry(id.index())).map(|slot| self.universe.object_at(slot));
        Some(ClassCounts::of_ids(objects, store.classes()))
    }

    /// Whether `a ⊆ b`, word-parallel and allocation-free. Unlike routing
    /// the test through [`intersect`](Self::intersect), this never touches
    /// (or pollutes) the memo cache.
    #[inline]
    pub fn is_subset_of(&self, a: SetId, b: SetId) -> bool {
        a == b || a == SetId::EMPTY || self.bitmaps.is_subset(a.index(), b.index())
    }

    /// Memoized intersection: `a ∩ b` as a handle.
    ///
    /// Fast paths: `a ∩ a = a` and `∅ ∩ x = ∅` never touch the cache. The
    /// cache key is normalised so `(a, b)` and `(b, a)` share one slot. A
    /// miss runs [`intersect_uncached`](Self::intersect_uncached), which
    /// allocates nothing.
    pub fn intersect(&mut self, a: SetId, b: SetId) -> SetId {
        self.intersect_within(a, b, SetId::EMPTY, SetId::EMPTY)
    }

    /// [`intersect`](Self::intersect) with two hints that let a memo miss
    /// skip the content-index probe: `bound` contains `a ∩ b` (or is empty),
    /// so an overlap of its size *is* `bound`; `guess` is any handle and
    /// wins only if its words equal the scratch run. Both are read after
    /// the memo lookup, so answers and memo counters are `intersect`'s.
    pub fn intersect_within(&mut self, a: SetId, b: SetId, bound: SetId, guess: SetId) -> SetId {
        if a == b {
            return a;
        }
        if a == SetId::EMPTY || b == SetId::EMPTY {
            return SetId::EMPTY;
        }
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let bits = self.memo_config.clamped_bits();
        if self.memo.is_empty() {
            self.memo = vec![(MEMO_FREE.0, MEMO_FREE.1, SetId::EMPTY); 1usize << bits];
        }
        let slot = Self::memo_slot(lo, hi, bits);
        let entry = self.memo[slot];
        if (entry.0, entry.1) == (lo, hi) {
            self.memo_hits += 1;
            return entry.2;
        }
        self.memo_misses += 1;
        let id = self.intersect_uncached(a, b, bound, guess);
        if (entry.0, entry.1) == MEMO_FREE {
            self.memo_entries += 1;
        }
        self.memo[slot] = (lo, hi, id);
        id
    }

    /// `a ∩ b` without the memo (neither read, written nor counted): the
    /// memo-miss path of [`intersect_within`](Self::intersect_within),
    /// hints included, for callers whose pairs rarely repeat. Disjoint and
    /// subset pairs resolve without hashing; a proper overlap is settled by
    /// a hint when it can be, else hashed and probed, and only a new set
    /// appends its words.
    pub fn intersect_uncached(&mut self, a: SetId, b: SetId, bound: SetId, guess: SetId) -> SetId {
        let overlap = self
            .bitmaps
            .and_into(a.index(), b.index(), &mut self.scratch);
        if overlap == 0 {
            SetId::EMPTY
        } else if overlap == self.len_of(a) {
            a
        } else if overlap == self.len_of(b) {
            b
        } else if overlap == self.len_of(bound) {
            debug_assert_eq!(self.bitmaps.entry(bound.index()), &self.scratch[..]);
            bound
        } else if overlap == self.len_of(guess) && self.bitmaps.entry(guess.index()) == self.scratch
        {
            guess
        } else {
            let run = std::mem::take(&mut self.scratch);
            let id = self.find_or_insert(&run, overlap);
            self.scratch = run;
            id
        }
    }

    /// Multiply-folds a normalised pair into a slot index (same constant as
    /// FxHasher; the high bits carry the mix).
    #[inline]
    fn memo_slot(lo: SetId, hi: SetId, bits: u32) -> usize {
        let mix = ((u64::from(lo.0) << 32) | u64::from(hi.0)).wrapping_mul(crate::hash::K);
        (mix >> (64 - bits)) as usize
    }

    /// Starts a new compaction epoch: keeps the given live handles (their
    /// bitmaps and cardinalities), drops everything else,
    /// re-densifies the universe and returns the [`RemapTable`] translating
    /// old handles to their replacements.
    ///
    /// The live list may contain duplicates and need not mention
    /// [`SetId::EMPTY`] (the empty set always survives as id 0). Surviving
    /// sets keep their relative id order and surviving objects their
    /// relative slot order, so compaction is deterministic for deterministic
    /// inputs. Objects that only occurred in retired sets lose their bit
    /// slots, which is what lets a long-running feed with object turnover
    /// plateau instead of growing monotonically.
    ///
    /// Every handle issued before the call — including those inside the
    /// intersection memo, which is cleared here — is invalid afterwards
    /// unless translated through the returned table.
    pub fn compact(&mut self, live: &[SetId]) -> RemapTable {
        let mut keep: Vec<usize> = live.iter().map(|id| id.index()).collect();
        keep.push(SetId::EMPTY.index());
        keep.sort_unstable();
        keep.dedup();

        // One OR over the survivors fixes the new universe: which slots
        // stay (renumbered by rank), hence the stride, and which objects
        // retire. The bitmaps are then rewritten in a single sized pass.
        let live_slots = self.bitmaps.union_of(keep.iter().copied());
        let (slot_map, mut retired_objects) = self.universe.retain_slots(&live_slots);
        self.bitmaps
            .retain_remapped(&keep, &slot_map, self.universe.len());

        let mut map: Vec<Option<SetId>> = vec![None; self.lens.len()];
        for (new, &old) in keep.iter().enumerate() {
            map[old] = Some(SetId(new as u32));
        }
        self.lens = keep.iter().map(|&old| self.lens[old]).collect();
        self.rebuild_index();
        // The memo references retired handles; drop it wholesale (it refills
        // within a window's worth of frames).
        self.memo = Vec::new();
        self.memo_entries = 0;
        self.epoch += 1;

        retired_objects.sort_unstable();
        RemapTable {
            live: keep.len(),
            map,
            epoch: self.epoch,
            retired_objects,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class_store::ClassStore;
    use crate::ids::ClassId;
    use std::sync::{Arc, RwLock};

    fn set(ids: &[u32]) -> ObjectSet {
        ObjectSet::from_raw(ids.iter().copied())
    }

    #[test]
    fn empty_set_is_id_zero() {
        let mut interner = SetInterner::new();
        assert_eq!(interner.intern(&ObjectSet::empty()), SetId::EMPTY);
        assert!(SetId::EMPTY.is_empty_set());
        assert!(interner.resolve(SetId::EMPTY).is_empty());
        assert!(interner.is_empty());
        assert_eq!(interner.len(), 1);
    }

    #[test]
    fn interning_is_idempotent_and_content_addressed() {
        let mut interner = SetInterner::new();
        let a = interner.intern(&set(&[1, 2, 3]));
        let b = interner.intern(&set(&[3, 2, 1]));
        assert_eq!(a, b);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.resolve(a), set(&[1, 2, 3]));
        assert_eq!(interner.len_of(a), 3);
        assert_eq!(interner.get(&set(&[1, 2, 3])), Some(a));
        assert_eq!(interner.get(&set(&[9])), None);
        assert_eq!(interner.universe_len(), 3);
    }

    #[test]
    fn intersect_matches_the_linear_merge() {
        let mut interner = SetInterner::new();
        let a = interner.intern(&set(&[1, 2, 3, 5]));
        let b = interner.intern(&set(&[2, 3, 4]));
        let ab = interner.intersect(a, b);
        assert_eq!(interner.resolve(ab), set(&[2, 3]));
        // Commutative and memoized.
        assert_eq!(interner.intersect(b, a), ab);
        assert_eq!(interner.memo_len(), 1);
        assert_eq!(interner.memo_hits(), 1);
        assert_eq!(interner.memo_misses(), 1);
    }

    #[test]
    fn intersect_fast_paths_skip_the_memo() {
        let mut interner = SetInterner::new();
        let a = interner.intern(&set(&[1, 2]));
        assert_eq!(interner.intersect(a, a), a);
        assert_eq!(interner.intersect(a, SetId::EMPTY), SetId::EMPTY);
        assert_eq!(interner.intersect(SetId::EMPTY, a), SetId::EMPTY);
        assert_eq!(interner.memo_len(), 0);
    }

    #[test]
    fn subset_intersections_reuse_existing_ids() {
        let mut interner = SetInterner::new();
        let small = interner.intern(&set(&[2, 3]));
        let big = interner.intern(&set(&[1, 2, 3, 4]));
        assert_eq!(interner.intersect(small, big), small);
        assert_eq!(interner.len(), 3, "no new set for a subset intersection");
    }

    #[test]
    fn subset_tests_run_on_the_bitmaps_and_skip_the_memo() {
        let mut interner = SetInterner::new();
        let a = interner.intern(&set(&[1, 2, 3, 5]));
        let b = interner.intern(&set(&[2, 3, 4]));
        let c = interner.intern(&set(&[7, 9]));
        let sub = interner.intern(&set(&[2, 3]));
        assert!(interner.is_subset_of(sub, a));
        assert!(interner.is_subset_of(sub, b));
        assert!(!interner.is_subset_of(a, b));
        assert!(interner.is_subset_of(SetId::EMPTY, c));
        assert!(interner.is_subset_of(a, a));
        assert_eq!(interner.memo_len(), 0);
    }

    #[test]
    fn wide_universes_span_multiple_words() {
        let mut interner = SetInterner::new();
        let lo = interner.intern(&set(&[0, 1, 2]));
        let wide = interner.intern(&ObjectSet::from_raw((0..200).map(|i| i * 3)));
        let hi = interner.intern(&set(&[300, 303]));
        assert!(interner.is_subset_of(hi, wide));
        assert_eq!(interner.intersect(lo, hi), SetId::EMPTY);
        let inter = interner.intersect(lo, wide);
        assert_eq!(interner.resolve(inter), set(&[0]), "only 0 is shared");
    }

    #[test]
    fn class_counts_are_computed_on_demand() {
        let classes: SharedClassMap = Arc::new(RwLock::new(ClassStore::preloaded([
            (ObjectId(1), ClassId(0)),
            (ObjectId(2), ClassId(1)),
            (ObjectId(3), ClassId(1)),
        ])));
        let mut interner = SetInterner::with_classes(Arc::clone(&classes));
        let id = interner.intern(&set(&[1, 2, 3]));
        let counts = interner.counts_of(id).expect("class source present");
        assert_eq!(counts.count(ClassId(0)), 1);
        assert_eq!(counts.count(ClassId(1)), 2);
        assert_eq!(interner.counts_of(SetId::EMPTY), Some(ClassCounts::new()));
        // Interning reads no class: an object registered after its set was
        // interned is counted by the next read.
        let late = interner.intern(&set(&[1, 4]));
        classes.write().unwrap().register(ObjectId(4), ClassId(2));
        let counts = interner.counts_of(late).unwrap();
        assert_eq!((counts.count(ClassId(0)), counts.count(ClassId(2))), (1, 1));
    }

    #[test]
    fn no_class_source_means_no_cached_counts() {
        let mut interner = SetInterner::new();
        let id = interner.intern(&set(&[1]));
        assert!(interner.counts_of(id).is_none());
    }

    #[test]
    fn counts_survive_a_poisoned_class_map() {
        let classes: SharedClassMap = Arc::new(RwLock::new(ClassStore::preloaded([(
            ObjectId(1),
            ClassId(2),
        )])));
        let poison = Arc::clone(&classes);
        let _ = std::thread::spawn(move || {
            let _guard = poison.write().unwrap();
            panic!("poison the class map");
        })
        .join();
        assert!(classes.is_poisoned());
        let mut interner = SetInterner::with_classes(classes);
        let id = interner.intern(&set(&[1]));
        let counts = interner.counts_of(id).unwrap();
        assert_eq!(counts.count(ClassId(2)), 1);
    }

    #[test]
    fn degenerate_memo_configs_are_clamped_not_panicking() {
        // 0 bits would shift by 64 without the clamp.
        let mut interner = SetInterner::new().with_memo_config(MemoConfig { bits: 0 });
        let a = interner.intern(&set(&[1, 2, 3]));
        let b = interner.intern(&set(&[2, 3, 4]));
        let ab = interner.intersect(a, b);
        assert_eq!(interner.resolve(ab), set(&[2, 3]));
        assert_eq!(interner.memo_slots(), 2, "floored at one bit");
        // 99 bits would overflow `1usize << bits`; allocating the clamped
        // 2^30 slots is not something a test should do, so only the clamp
        // itself is checked.
        assert_eq!(MemoConfig { bits: 99 }.clamped_bits(), 30);
    }

    #[test]
    fn fixed_memo_is_pinned_across_compaction() {
        let mut interner = SetInterner::new().with_memo_config(MemoConfig { bits: 3 });
        let ids: Vec<SetId> = (0..8u32)
            .map(|i| interner.intern(&set(&[i, i + 1])))
            .collect();
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                interner.intersect(a, b);
            }
        }
        assert_eq!(interner.memo_slots(), 8);
        let table = interner.compact(&ids);
        // Compaction drops the (now stale) entries; the table comes back at
        // the same size.
        assert_eq!(interner.memo_slots(), 0, "dropped until next use");
        let a = table.remap(ids[0]).unwrap();
        let b = table.remap(ids[1]).unwrap();
        let ab = interner.intersect(a, b);
        assert_eq!(interner.resolve(ab), set(&[1]));
        assert_eq!(interner.memo_slots(), 8, "re-allocated at the pinned size");
    }

    #[test]
    fn compaction_remaps_live_handles_and_retires_the_rest() {
        let mut interner = SetInterner::new();
        let a = interner.intern(&set(&[1, 2]));
        let b = interner.intern(&set(&[3, 4]));
        let c = interner.intern(&set(&[5, 6]));
        let _ab = interner.intersect(a, b);
        assert_eq!(interner.len(), 4);
        assert_eq!(interner.universe_len(), 6);

        let table = interner.compact(&[b, c, c]);
        assert_eq!(table.epoch(), 1);
        assert_eq!(interner.epoch, 1);
        assert_eq!(table.live(), 3, "empty + two survivors");
        assert_eq!(table.retired(), 1);
        assert_eq!(table.remap(SetId::EMPTY), Some(SetId::EMPTY));
        assert_eq!(table.remap(a), None, "retired handle");

        let new_b = table.remap(b).expect("live");
        let new_c = table.remap(c).expect("live");
        assert_eq!(interner.resolve(new_b), set(&[3, 4]));
        assert_eq!(interner.resolve(new_c), set(&[5, 6]));
        assert_eq!(interner.len(), 3);
        assert_eq!(
            interner.universe_len(),
            4,
            "objects 1 and 2 re-densified away"
        );
        assert_eq!(interner.memo_len(), 0, "memo dropped with the old epoch");

        // The rebuilt content index and bitmaps answer like a fresh interner.
        assert_eq!(interner.get(&set(&[3, 4])), Some(new_b));
        assert_eq!(interner.get(&set(&[1, 2])), None);
        assert_eq!(interner.intersect(new_b, new_c), SetId::EMPTY);
        let a_again = interner.intern(&set(&[1, 2]));
        assert_eq!(interner.intersect(a_again, new_b), SetId::EMPTY);
    }

    #[test]
    fn compaction_preserves_relative_order_and_counts() {
        let classes: SharedClassMap = Arc::new(RwLock::new(ClassStore::preloaded([
            (ObjectId(1), ClassId(0)),
            (ObjectId(2), ClassId(1)),
        ])));
        let mut interner = SetInterner::with_classes(Arc::clone(&classes));
        let a = interner.intern(&set(&[1]));
        let b = interner.intern(&set(&[2]));
        let c = interner.intern(&set(&[1, 2]));
        let counts_before = interner.counts_of(c).unwrap();

        let table = interner.compact(&[c, a, b]);
        let (na, nb, nc) = (
            table.remap(a).unwrap(),
            table.remap(b).unwrap(),
            table.remap(c).unwrap(),
        );
        assert!(na < nb && nb < nc, "survivors keep their relative order");
        // Counts read through the re-densified universe equal the old ones.
        assert_eq!(interner.counts_of(nc).unwrap(), counts_before);
        assert_eq!(interner.counts_of(na).unwrap().count(ClassId(0)), 1);
        assert_eq!(interner.counts_of(nb).unwrap().count(ClassId(1)), 1);
    }

    #[test]
    fn byte_gauges_track_compaction() {
        let mut interner = SetInterner::new();
        let ids: Vec<SetId> = (0..100u32)
            .map(|i| interner.intern(&set(&[i, i + 1, i + 2])))
            .collect();
        let (arena, bitmaps) = (interner.arena_bytes(), interner.bitmap_bytes());
        let table = interner.compact(&ids[..3]);
        assert!(interner.arena_bytes() < arena);
        assert!(interner.bitmap_bytes() < bitmaps);
        assert!(table.remap(ids[0]).is_some());
        assert_eq!(table.retired_objects().len(), 102 - 5);
    }

    #[test]
    fn get_never_assigns_slots() {
        let mut interner = SetInterner::new();
        let a = interner.intern(&set(&[1, 2]));
        assert_eq!(interner.get(&set(&[2, 9])), None, "9 was never seen");
        assert_eq!(interner.get(&set(&[1])), None, "seen objects, unseen set");
        assert_eq!(interner.universe_len(), 2);
        assert_eq!(interner.get(&set(&[2, 1])), Some(a));
    }

    #[test]
    fn handles_and_contents_survive_restrides() {
        let mut interner = SetInterner::new();
        // Descending labels: slot order is the reverse of identifier order.
        let old = set(&[900, 500, 100]);
        let a = interner.intern(&old);
        for boundary in [64u32, 128, 256] {
            let filler = ObjectSet::from_raw(1000..1000 + boundary);
            interner.intern(&filler);
            assert!(interner.universe_len() > boundary as usize);
            assert_eq!(interner.get(&old), Some(a));
            assert_eq!(interner.intern(&old), a);
            assert_eq!(interner.resolve(a), old);
        }
    }

    #[test]
    fn algebra_stays_correct_across_epochs() {
        let mut interner = SetInterner::new();
        let mut ids = Vec::new();
        for i in 0..10u32 {
            ids.push(interner.intern(&ObjectSet::from_raw([i, i + 1, i + 2])));
        }
        let table = interner.compact(&ids[5..]);
        let survivors: Vec<SetId> = ids[5..]
            .iter()
            .map(|&id| table.remap(id).unwrap())
            .collect();
        for (offset_a, &a) in survivors.iter().enumerate() {
            for (offset_b, &b) in survivors.iter().enumerate() {
                let sa = ObjectSet::from_raw((5 + offset_a as u32..).take(3).collect::<Vec<_>>());
                let sb = ObjectSet::from_raw((5 + offset_b as u32..).take(3).collect::<Vec<_>>());
                let inter = interner.intersect(a, b);
                assert_eq!(interner.resolve(inter), sa.intersect(&sb));
            }
        }
    }

    #[test]
    fn interner_round_trip_reproduces_handles_and_counts() {
        let store = crate::class_store::shared_class_store();
        {
            let mut guard = store.write().unwrap();
            for id in 1..=6u32 {
                guard.register(ObjectId(id), ClassId((id % 2) as u16));
            }
        }
        let mut original = SetInterner::with_classes(store.clone());
        let a = original.intern(&set(&[1, 2, 3]));
        let b = original.intern(&set(&[4, 5]));
        let c = original.intersect(a, b);
        assert!(c.is_empty_set());
        let d = original.intern(&set(&[2, 3, 6]));

        let mut enc = Encoder::new();
        original.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut restored = SetInterner::with_classes(store);
        let mut dec = Decoder::new(&bytes);
        restored.restore_into_fresh(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.epoch, original.epoch);
        assert_eq!(restored.get(&set(&[1, 2, 3])), Some(a));
        assert_eq!(restored.get(&set(&[4, 5])), Some(b));
        assert_eq!(restored.get(&set(&[2, 3, 6])), Some(d));
        assert_eq!(
            restored.universe_object_ids(),
            original.universe_object_ids()
        );
        assert_eq!(restored.counts_of(d), original.counts_of(d));
        // Fresh intersections agree handle-for-handle.
        assert_eq!(restored.intersect(a, d), original.intersect(a, d));
        // Only a freshly built interner may be restored into.
        let err = restored
            .restore_into_fresh(&mut Decoder::new(&bytes))
            .unwrap_err();
        assert!(matches!(err, Error::Store(_)), "{err}");
    }

    #[test]
    fn interner_restore_rejects_duplicate_arena_sets() {
        let mut enc = Encoder::new();
        enc.put_usize(2);
        for _ in 0..2 {
            enc.put_usize(2);
            enc.put_u32(1);
            enc.put_u32(2);
        }
        enc.put_u64(0);
        let bytes = enc.into_bytes();
        let err = SetInterner::new()
            .restore_into_fresh(&mut Decoder::new(&bytes))
            .unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// Random raw sets; see [`widen`] for how they stretch the universe.
    fn wide_sets() -> impl Strategy<Value = Vec<Vec<u32>>> {
        proptest::collection::vec(proptest::collection::vec(0u32..64, 0..24), 2..10)
    }

    /// Stretches raw ids so bitmaps span several `u64` words: most values
    /// stay in a small cluster (so overlaps actually occur) while every
    /// seventh is scattered into the hundreds, pushing its bit slot well
    /// past one word.
    fn widen(sets: &[Vec<u32>]) -> Box<[ObjectSet]> {
        sets.iter()
            .map(|ids| {
                ObjectSet::from_raw(
                    ids.iter()
                        .map(|&v| if v % 7 == 0 { v * 23 + 70 } else { v }),
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The word-parallel relations agree with the linear-merge oracle
        /// for every pair of interned sets, including multi-word universes.
        #[test]
        fn word_parallel_algebra_matches_the_merge_oracle(raw in wide_sets()) {
            let sets = widen(&raw);
            let mut interner = SetInterner::new();
            let ids: Vec<SetId> = sets.iter().map(|s| interner.intern(s)).collect();
            for (i, &a) in ids.iter().enumerate() {
                for (j, &b) in ids.iter().enumerate() {
                    let (sa, sb) = (&sets[i], &sets[j]);
                    prop_assert_eq!(
                        interner.is_subset_of(a, b),
                        sa.is_subset_of(sb),
                        "is_subset_of({:?}, {:?})", sa, sb
                    );
                    let inter = interner.intersect(a, b);
                    prop_assert_eq!(interner.resolve(inter), sa.intersect(sb));
                }
            }
        }

        /// `intersect_uncached` answers every pair like `intersect` on a
        /// twin interner, interns the same sets, and never allocates,
        /// reads or counts the memo.
        #[test]
        fn uncached_intersections_answer_like_memoized_ones(raw in wide_sets()) {
            let sets = widen(&raw);
            let (mut memoized, mut uncached) = (SetInterner::new(), SetInterner::new());
            let ids: Vec<SetId> = sets.iter().map(|s| memoized.intern(s)).collect();
            for s in sets.iter() {
                uncached.intern(s);
            }
            for &a in &ids {
                for &b in &ids {
                    let expected = memoized.intersect(a, b);
                    let answer = uncached.intersect_uncached(a, b, SetId::EMPTY, SetId::EMPTY);
                    prop_assert_eq!(answer, expected);
                    prop_assert_eq!(uncached.len(), memoized.len());
                }
            }
            prop_assert_eq!(uncached.memo_hits() + uncached.memo_misses(), 0);
            prop_assert_eq!(uncached.memo_slots(), 0);
        }

        /// The hints of `intersect_within` never change an answer or the
        /// memo: for every pair, any bound containing the intersection and
        /// any guess, it returns the handle `intersect` returns on a twin
        /// interner, with the same hit and miss counts and no other set.
        #[test]
        fn hinted_intersections_answer_like_plain_ones(
            raw in wide_sets(),
            extra in proptest::collection::vec(0u32..64, 0..6),
            picks in proptest::collection::vec(0usize..64, 1..32),
        ) {
            let sets = widen(&raw);
            let (mut plain, mut hinted) = (SetInterner::new(), SetInterner::new());
            // Every pair's intersection widened by `extra` is a valid bound;
            // interning them (and the exact intersections, on odd pairs) up
            // front keeps the twins' arenas identical.
            let extra = widen(&[extra]);
            let mut bounds = Vec::new();
            let mut ids = Vec::new();
            for s in sets.iter() {
                ids.push(plain.intern(s));
                hinted.intern(s);
            }
            for (i, sa) in sets.iter().enumerate() {
                for (j, sb) in sets.iter().enumerate() {
                    let inter = sa.intersect(sb);
                    let bound: ObjectSet = inter.iter().chain(extra[0].iter()).collect();
                    bounds.push(plain.intern(&bound));
                    hinted.intern(&bound);
                    if (i + j) % 2 == 1 {
                        ids.push(plain.intern(&inter));
                        hinted.intern(&inter);
                    }
                }
            }
            let guesses: Vec<SetId> = ids.iter().chain(&bounds).copied().collect();
            let n = sets.len();
            for (k, &pick) in picks.iter().enumerate() {
                let (i, j) = (pick % n, (pick / n + k) % n);
                let (a, b) = (ids[i], ids[j]);
                let bound = if k % 3 == 0 { SetId::EMPTY } else { bounds[i * n + j] };
                let guess = guesses[(pick + k) % guesses.len()];
                let expected = plain.intersect(a, b);
                prop_assert_eq!(hinted.intersect_within(a, b, bound, guess), expected);
                prop_assert_eq!(hinted.memo_hits(), plain.memo_hits());
                prop_assert_eq!(hinted.memo_misses(), plain.memo_misses());
                prop_assert_eq!(hinted.len(), plain.len());
            }
        }

        /// Handles and contents are stable while the universe grows past
        /// 64, 128 and 256 slots (each crossing re-strides the arena and
        /// zero-pads every entry), under identifier labellings that make
        /// slot order differ from identifier order; and a lookup never
        /// assigns slots.
        #[test]
        fn handles_survive_universe_growth_under_any_labelling(
            raw in wide_sets(),
            labelling in 0usize..4,
        ) {
            // Bijections on 0..1523 (prime; `widen` stays below it).
            let multiplier = [1u32, 37, 610, 1522][labelling];
            let sets: Box<[ObjectSet]> = widen(&raw)
                .iter()
                .map(|s| s.iter().map(|id| ObjectId(id.raw() * multiplier % 1523)).collect())
                .collect();
            let mut interner = SetInterner::new();
            let ids: Vec<SetId> = sets.iter().map(|s| interner.intern(s)).collect();
            for boundary in [64u32, 128, 256] {
                let unseen = ObjectSet::from_raw([0, 5000 + boundary]);
                let before = interner.universe_len();
                prop_assert_eq!(interner.get(&unseen), None);
                prop_assert_eq!(interner.universe_len(), before);
                interner.intern(&ObjectSet::from_raw(2000..2000 + boundary));
                prop_assert!(interner.universe_len() > boundary as usize);
                for (set, &id) in sets.iter().zip(&ids) {
                    prop_assert_eq!(interner.get(set), Some(id));
                    prop_assert_eq!(interner.intern(set), id);
                    prop_assert_eq!(&interner.resolve(id), set);
                }
            }
        }

        /// Compacting to a random live subset preserves the algebra: every
        /// surviving pair answers exactly as before, and retired sets
        /// re-intern with correct (re-densified) bitmaps.
        #[test]
        fn compaction_preserves_the_algebra(raw in wide_sets(), keep_mask in 0u32..256) {
            let sets = widen(&raw);
            let mut interner = SetInterner::new();
            let ids: Vec<SetId> = sets.iter().map(|s| interner.intern(s)).collect();
            let live: Vec<SetId> = ids
                .iter()
                .enumerate()
                .filter(|&(i, _)| keep_mask & (1 << (i % 8)) != 0)
                .map(|(_, &id)| id)
                .collect();
            let table = interner.compact(&live);
            // Survivors keep their content and their pairwise algebra.
            for (i, &old) in ids.iter().enumerate() {
                if let Some(new) = table.remap(old) {
                    prop_assert_eq!(&interner.resolve(new), &sets[i]);
                }
            }
            // Re-intern everything (retired sets get fresh handles) and
            // check the algebra against the oracle across old and new.
            let again: Vec<SetId> = sets.iter().map(|s| interner.intern(s)).collect();
            for (i, &a) in again.iter().enumerate() {
                for (j, &b) in again.iter().enumerate() {
                    let (sa, sb) = (&sets[i], &sets[j]);
                    prop_assert_eq!(interner.is_subset_of(a, b), sa.is_subset_of(sb));
                    let inter = interner.intersect(a, b);
                    prop_assert_eq!(interner.resolve(inter), sa.intersect(sb));
                }
            }
        }
    }
}
