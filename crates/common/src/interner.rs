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
//! bitmap per handle, less than a quarter of it padding. Beside the bitmap
//! a set costs only its share of the content index — no cardinality (a
//! popcount answers it), no sorted slice, no `ObjectSet`-keyed map, no
//! class counts. What grows, grows by a quarter: the stride, the bitmap
//! words and the content index each keep at most about a quarter of
//! their room unused. On top of that the interner:
//!
//! * **indexes content by the bitmap words** — an open-addressed table of
//!   bare `SetId`s, hashed with [`hash_run`] and compared on the entry's
//!   words. The table's length is no power of two: a set's home slot is
//!   the multiply-high of its hash and that length, the linear probe
//!   wraps at the end, and the table is rebuilt when more than ¾ full, to
//!   ⅗ full. The hash ignores trailing zero words, so the zero-padding a
//!   re-stride adds when the universe outgrows the stride never moves an
//!   entry;
//! * **runs the set algebra word-parallel** —
//!   [`is_subset_of`](SetInterner::is_subset_of) is a word-AND loop, and
//!   [`intersect_uncached`](SetInterner::intersect_uncached) ANDs the two
//!   entries into a scratch run while sorting the pair into disjoint,
//!   subset or proper overlap; only an overlap is compared with the
//!   caller's hints, hashed and probed, and only a new set stores its
//!   words — no allocation and no bit count either way;
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
//!   extra hits save. Each entry carries the mint clock it was written at,
//!   and each handle the clock its set was minted at: an entry answers only
//!   while its pair and its answer were all minted before it was written,
//!   so a released or reused handle never reads an older set's answer;
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
//! **A set lives while something holds it.** The caller
//! [`release`](SetInterner::release)s a set it no longer holds: the set
//! leaves the content index (backward-shift deletion, wrapping at the
//! table's end), its words are zeroed, and its handle is free: its birth
//! stamp says so, and no other list holds it. The next new set takes the
//! lowest free handle and so reuses its bitmap stride and index room.
//! [`release_unheld`](SetInterner::release_unheld) releases, in one call
//! at the end of a frame, every set minted since the previous call that
//! the caller's holder test does not keep, so between frames the arena
//! holds what the maintainer's states hold.
//!
//! **A bit slot lives while a held set has its bit.** Each slot counts the
//! held sets that have its bit: minting a set adds one for each of its
//! bits, and releasing it takes one away before its words are zeroed. The
//! release that takes a slot's count to 0 frees the slot and *parks* its
//! object: the object stays registered but holds no slot, so no lookup
//! finds it, until a set holding it is interned again and it takes the
//! lowest free slot. The stride thus follows the objects the held sets
//! contain, not every object seen.
//!
//! Registered objects retire at a compaction **epoch**.
//! [`SetInterner::compact`] keeps the caller's live handles (their bitmaps
//! rewritten against a re-densified universe), drops every other handle,
//! free ones included, and hands back a [`RemapTable`] translating old
//! handles to new ones, so every handle-keyed structure can re-key itself
//! and the caller can retire the objects no surviving set holds: the
//! parked ones and those of the slots the epoch drops. The engine triggers
//! compaction between frames when the live states are few against the sets
//! [`minted`](SetInterner::minted) this epoch. The interner does not number
//! its epochs: a maintainer's compaction count is its
//! `MaintenanceMetrics::compactions`.
//!
//! The interner persists nothing itself, and no handle or bit slot is
//! persisted. A maintainer's snapshot writes its states' sets by content,
//! with the [`minted`](SetInterner::minted) count and the parked objects,
//! and [`SetInterner::restore`] puts them back into a fresh interner in one
//! call: each set on the next handle, its objects in slots first seen in
//! that order, the stride fitted once. The restored interner holds the same
//! sets, registered objects and minted count, with no free handle or slot.

use std::sync::PoisonError;

use crate::aggregates::ClassCounts;
use crate::bitmap::{hash_run, set_bit, slots_of, BitmapArena, Relation, UniverseMap};
use crate::class_store::SharedClassMap;
use crate::error::{Error, Result};
use crate::ids::ObjectId;
use crate::object_set::ObjectSet;

/// Dense handle of an interned [`ObjectSet`].
///
/// Handles are only meaningful relative to the [`SetInterner`] that issued
/// them, and only while their set is held: a released handle may name
/// another set next, and a compaction epoch retires every handle it does
/// not keep (the accompanying [`RemapTable`] is the sole bridge between
/// epochs). `SetId::EMPTY` is always the empty set, in every interner and
/// every epoch.
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

    /// Rebuilds a handle from its raw arena index, for walking an arena by
    /// position (handles `0..len()`, free ones included). No handle is
    /// persisted: a snapshot writes sets by content, so a handle is only
    /// meaningful against the arena that issued it.
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
/// every other handle of the previous epoch, free ones included, maps to
/// `None` (the set was dropped from the arena and must be re-interned if it
/// ever reappears).
///
/// The table also carries the epoch's **retire set**: the registered
/// objects no surviving set contains, parked ones included.
/// Upstream layers use it to drop those identifiers from their own
/// per-object state (bindings, class-store entries), which is
/// what bounds the *engine-side* memory to the live window.
#[derive(Debug, Clone)]
pub struct RemapTable {
    map: Vec<Option<SetId>>,
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

    /// Number of handles that survived (including the empty set).
    pub fn live(&self) -> usize {
        self.live
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
/// cache of `2^bits` slots (16 bytes each: the pair, the answer and the
/// mint clock the entry was written at), allocated on first use and dropped
/// at every compaction (its entries reference retired handles).
///
/// The size is fixed on purpose, and at most 2^16 slots (1 MiB). Since the
/// miss path became a word-AND over two bitmaps, hit rate stopped
/// predicting time: a table grown to fit the live pair working set (2^20
/// slots on a dense film) turns every probe into a DRAM miss and runs
/// slower than 4096 slots that stay in cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoConfig {
    /// log2 of the slot count, clamped to `1..=16` when the memo is built.
    pub bits: u32,
}

impl MemoConfig {
    /// The slot-count exponent in effect: a nonsensical request (0 bits, 99
    /// bits, or a size read from a corrupt snapshot) degrades to the
    /// nearest supported size instead of panicking on shift overflow or
    /// allocating gigabytes.
    fn clamped_bits(self) -> u32 {
        self.bits.clamp(1, 16)
    }
}

impl Default for MemoConfig {
    /// 4096 slots (64 KiB).
    fn default() -> Self {
        MemoConfig { bits: 12 }
    }
}

/// One memo slot: `lo ∩ hi = answer`, written when the mint clock read
/// `stamp`. Unused while `lo == hi` (such pairs never reach the cache).
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    lo: SetId,
    hi: SetId,
    answer: SetId,
    stamp: u32,
}

/// An unused memo slot.
const MEMO_FREE: MemoEntry = MemoEntry {
    lo: SetId::EMPTY,
    hi: SetId::EMPTY,
    answer: SetId::EMPTY,
    stamp: 0,
};

/// The birth stamp of a free handle: later than every memo entry, so no
/// entry naming it answers.
const FREE: u32 = u32::MAX;

/// Fewest content-index slots allocated (the index grows by a quarter
/// from here).
const MIN_INDEX_SLOTS: usize = 16;

/// The object-set arena with word-parallel set algebra, intersection
/// memoization, on-demand class counts, handle release and epoch
/// compaction. See the [module docs](self).
#[derive(Debug, Default)]
pub struct SetInterner {
    /// `SetId` → the set, as a dense bitmap (all zero for a free handle).
    /// Index 0 is always the empty set.
    bitmaps: BitmapArena,
    /// Content index: open-addressed, of any length, at most ¾ full, and ⅗
    /// full (or at [`MIN_INDEX_SLOTS`]) when rebuilt. A slot holds the raw
    /// `SetId` of a held entry, hashed and compared on that entry's bitmap
    /// words; 0 marks a free slot (the empty set is never indexed).
    index: Vec<u32>,
    /// `SetId` → the mint clock its set was minted at: 0 for the empty set
    /// and a compaction's survivors, [`FREE`] for a free handle. Grows by
    /// a quarter ([`push_birth`](Self::push_birth)).
    births: Vec<u32>,
    /// Number of free handles.
    free: usize,
    /// No handle below it is free: where the search for the lowest free
    /// handle starts.
    first_free: usize,
    /// The handles minted since the last
    /// [`release_unheld`](Self::release_unheld), which drops the list.
    recent: Vec<SetId>,
    /// The birth stamp of the last set minted. Never reaches [`FREE`]:
    /// [`restamp`](Self::restamp) winds it back first.
    clock: u32,
    /// Sets minted this epoch: the handles a compaction kept, plus one for
    /// every set minted since.
    minted: usize,
    /// The `ObjectId ↔ bit slot` universe: the held sets' objects in slots
    /// that count their holders, and the parked objects.
    universe: UniverseMap,
    /// Reusable word run: the set being interned or intersected.
    scratch: Vec<u64>,
    /// Direct-mapped intersection cache keyed by the normalised (smaller,
    /// larger) pair; collisions overwrite. Allocated lazily on the first
    /// intersection, at `2^memo_config.bits` slots, and cleared by
    /// compaction (its entries reference retired handles).
    memo: Vec<MemoEntry>,
    memo_config: MemoConfig,
    /// The engine's class store, when class counts are wanted.
    classes: Option<SharedClassMap>,
    memo_hits: u64,
    memo_misses: u64,
}

impl SetInterner {
    /// Creates an interner without a class source:
    /// [`SetInterner::counts_of`] returns `None`.
    pub fn new() -> Self {
        let mut interner = SetInterner::default();
        interner.push_entry(&[]);
        interner.push_birth(0);
        interner.minted = 1;
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
        self
    }

    /// Number of handles issued: one per held set (the empty set included)
    /// and one per free handle. Every handle is below it.
    pub fn len(&self) -> usize {
        self.bitmaps.entries()
    }

    /// Number of sets held (the empty set included).
    pub fn held(&self) -> usize {
        self.len() - self.free
    }

    /// Whether only the empty set is held.
    pub fn is_empty(&self) -> bool {
        self.held() <= 1
    }

    /// Whether `id` names a held set (not a free handle).
    pub fn is_held(&self, id: SetId) -> bool {
        self.births
            .get(id.index())
            .is_some_and(|&birth| birth != FREE)
    }

    /// Sets minted this epoch: the handles the last compaction kept (1 for
    /// a new interner) plus every set minted since, so equal to
    /// [`len`](Self::len) until a handle is released. The compaction
    /// policy weighs the live states against it.
    pub fn minted(&self) -> usize {
        self.minted
    }

    /// The mint clock: the birth stamp of the last set minted. A set
    /// minted later is [`born_after`](Self::born_after) it.
    pub fn clock(&self) -> u32 {
        self.clock
    }

    /// Whether `id`'s set was minted after the mint clock read `clock` (a
    /// free handle counts as minted after every clock).
    pub fn born_after(&self, id: SetId, clock: u32) -> bool {
        self.births[id.index()] > clock
    }

    /// Words per bitmap: what the highest slot handed out needs, plus under
    /// a quarter of headroom.
    pub fn stride(&self) -> usize {
        self.bitmaps.stride()
    }

    /// Number of registered objects: those in a slot and the parked ones.
    pub fn universe_len(&self) -> usize {
        self.universe.len()
    }

    /// Number of bit slots handed out, free ones included.
    pub fn slot_count(&self) -> usize {
        self.universe.slot_count()
    }

    /// The parked objects (registered, in no slot), ascending.
    pub fn parked_objects(&self) -> Vec<ObjectId> {
        self.universe.parked()
    }

    /// The registered objects (in a slot or parked) as a sorted identifier
    /// list. Test hook: the model checker asserts they track the
    /// lifecycle's registered-object set exactly (their agreement is what
    /// makes each epoch's retire set total), which needs the members, not
    /// just [`universe_len`](Self::universe_len).
    pub fn universe_object_ids(&self) -> Vec<ObjectId> {
        let mut ids: Vec<ObjectId> = self.universe.object_ids().collect();
        ids.sort_unstable();
        ids
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

    /// Bytes held per handle beside its bitmap: the content index (5.3–6.7
    /// B a held set above its minimum size), the birth stamps (at most a
    /// quarter unused, or 16) and the handles minted since the last frame's
    /// end, 4 B an entry each (the last are none between frames). Bitmap
    /// storage is reported separately by [`SetInterner::bitmap_bytes`].
    pub fn arena_bytes(&self) -> usize {
        (self.index.capacity() + self.births.capacity() + self.recent.capacity())
            * std::mem::size_of::<u32>()
    }

    /// Bytes held by the dense bitmaps (the scratch run included) and the
    /// universe map with its reverse table, holder counts and free slots.
    pub fn bitmap_bytes(&self) -> usize {
        self.bitmaps.bytes()
            + self.scratch.capacity() * std::mem::size_of::<u64>()
            + self.universe.bytes()
    }

    /// Interns a set, returning its handle: the held one, or a new one
    /// minted on the lowest free handle (or past the last). An object in no
    /// slot takes the lowest free slot (such a set is necessarily new: no
    /// held set contains the object).
    pub fn intern(&mut self, set: &ObjectSet) -> SetId {
        if set.is_empty() {
            return SetId::EMPTY;
        }
        let mut run = std::mem::take(&mut self.scratch);
        run.clear();
        for object in set.iter() {
            set_bit(&mut run, self.universe.slot_of(object));
        }
        self.bitmaps
            .ensure_slot(self.universe.slot_count() as u32 - 1);
        run.resize(self.bitmaps.stride(), 0);
        let id = self.find_or_insert(&run);
        self.scratch = run;
        id
    }

    /// Fills a fresh interner (nothing interned) with what a snapshot
    /// wrote, and returns the sets' handles: each set on the next handle,
    /// from 1 on, in order, its objects in bit slots first seen in that
    /// order, the stride fitted once to those slots; then the parked
    /// objects, registered in no slot; then the count of sets
    /// [`minted`](Self::minted) this epoch. The empty set, a set or a
    /// parked object written twice, a parked object some set holds, or a
    /// minted count below the handles is corrupt data.
    pub fn restore(
        &mut self,
        sets: &[ObjectSet],
        parked: &[ObjectId],
        minted: usize,
    ) -> Result<Vec<SetId>> {
        if minted <= sets.len() {
            let handles = sets.len() + 1;
            return Err(Error::Corrupt(format!(
                "{minted} sets minted for {handles} handles"
            )));
        }
        for object in sets.iter().flat_map(ObjectSet::iter) {
            self.universe.slot_of(object);
        }
        if let Some(last) = self.universe.slot_count().checked_sub(1) {
            self.bitmaps.ensure_slot(last as u32);
        }
        let mut ids = Vec::with_capacity(sets.len());
        for set in sets {
            let id = self.intern(set);
            if id.index() != ids.len() + 1 {
                let what = if set.is_empty() {
                    "the empty set"
                } else {
                    "a set written twice"
                };
                return Err(Error::Corrupt(format!("row {} holds {what}", ids.len())));
            }
            ids.push(id);
        }
        for &object in parked {
            if !self.universe.park(object) {
                let error = format!("parked object {} is written twice or held", object.raw());
                return Err(Error::Corrupt(error));
            }
        }
        self.minted = minted;
        Ok(ids)
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
        let mut slot = self.home_slot(run);
        while self.index[slot] != 0 && !self.bitmaps.entry_is(self.index[slot] as usize, run) {
            slot += 1;
            if slot == self.index.len() {
                slot = 0;
            }
        }
        slot
    }

    /// Where `run`'s probe sequence starts: the multiply-high of its hash
    /// and the table length, which spreads the hash's high bits over a
    /// table of any size.
    #[inline]
    fn home_slot(&self, run: &[u64]) -> usize {
        ((u128::from(hash_run(run)) * self.index.len() as u128) >> u64::BITS) as usize
    }

    /// Number of sets in the content index (every held one but the empty
    /// set).
    fn indexed(&self) -> usize {
        self.held() - 1
    }

    /// Re-creates the content index for the held entries, ⅗ full: ¾ (the
    /// load that triggers a rebuild) divided by 1.25, so the table grows by
    /// a quarter from one rebuild to the next.
    fn rebuild_index(&mut self) {
        self.index = vec![0; (self.indexed() * 5 / 3).max(MIN_INDEX_SLOTS)];
        for id in 1..self.len() {
            if self.births[id] != FREE {
                let slot = self.probe(self.bitmaps.entry(id));
                self.index[slot] = id as u32;
            }
        }
    }

    fn find_or_insert(&mut self, run: &[u64]) -> SetId {
        let slot = self.probe(run);
        if self.index[slot] != 0 {
            return SetId(self.index[slot]);
        }
        let id = self.mint(run);
        self.index[slot] = id.0;
        if self.indexed() * 4 > self.index.len() * 3 {
            self.rebuild_index();
        }
        id
    }

    /// Stores a new set (not yet indexed) on the lowest free handle, or
    /// past the last, stamps its birth, counts it as a holder of each of
    /// its bit slots and returns the handle.
    fn mint(&mut self, run: &[u64]) -> SetId {
        if self.clock == FREE - 1 {
            self.restamp();
        }
        self.clock += 1;
        self.minted += 1;
        slots_of(run).for_each(|slot| self.universe.hold(slot));
        // Every handle below `first_free` is held, so the first free birth
        // from there is the lowest free handle.
        let births = &self.births[self.first_free..];
        let reuse = (self.free > 0)
            .then(|| births.iter().position(|&birth| birth == FREE))
            .flatten();
        let id = match reuse {
            Some(offset) => {
                let at = self.first_free + offset;
                self.bitmaps.write_run(at, run);
                self.births[at] = self.clock;
                (self.free, self.first_free) = (self.free - 1, at + 1);
                SetId(at as u32)
            }
            None => {
                let id = self.push_entry(run);
                self.push_birth(self.clock);
                id
            }
        };
        self.recent.push(id);
        id
    }

    /// Winds the mint clock back to 0 before it reaches [`FREE`]: every
    /// held set counts as born at 0, and the memo, whose stamps no longer
    /// order against the births, is dropped.
    fn restamp(&mut self) {
        for birth in &mut self.births {
            if *birth != FREE {
                *birth = 0;
            }
        }
        self.clock = 0;
        self.memo = Vec::new();
    }

    /// Appends a birth stamp. Out of room, the column grows by a quarter
    /// (at least 16 stamps), as the bitmap words and the content index do.
    fn push_birth(&mut self, birth: u32) {
        if self.births.len() == self.births.capacity() {
            self.births.reserve_exact((self.births.len() / 4).max(16));
        }
        self.births.push(birth);
    }

    /// Appends an entry holding `run` and returns its handle; the caller
    /// pushes its birth.
    fn push_entry(&mut self, run: &[u64]) -> SetId {
        // infallible: 2^32 sets would need 32 GiB for their bitmaps at one
        // word each; memory runs out first.
        debug_assert!(self.len() < u32::MAX as usize, "interner arena full");
        let id = SetId(self.len() as u32);
        self.bitmaps.push_run(run);
        id
    }

    /// Releases a held set the caller no longer holds: it leaves the
    /// content index, each of its bit slots loses a holder (a slot left
    /// with none is freed and its object parked), its words are zeroed (so
    /// a stale hint naming the handle never equals a proper intersection),
    /// and its handle is free for the next new set. Every memo entry naming
    /// the handle stops answering. The empty set is never released.
    pub fn release(&mut self, id: SetId) {
        // infallible: callers release a handle once, when the last row
        // (or, for a set minted this frame, the frame) that held it goes.
        debug_assert!(self.is_held(id) && !id.is_empty_set(), "release of {id:?}");
        self.unindex(id);
        for slot in slots_of(self.bitmaps.entry(id.index())) {
            self.universe.unhold(slot);
        }
        self.bitmaps.write_run(id.index(), &[]);
        self.births[id.index()] = FREE;
        self.free += 1;
        self.first_free = self.first_free.min(id.index());
    }

    /// Takes `id` out of the content index by backward-shift deletion: each
    /// later entry of the probe run moves back into the hole when its home
    /// slot does not lie after the hole, so every held set stays on its
    /// probe sequence and no tombstone is left.
    fn unindex(&mut self, id: SetId) {
        let mut hole = self.probe(self.bitmaps.entry(id.index()));
        let len = self.index.len();
        let mut next = hole;
        loop {
            next = if next + 1 == len { 0 } else { next + 1 };
            let occupant = self.index[next];
            if occupant == 0 {
                break;
            }
            // The occupant may fill the hole when its home slot lies
            // cyclically at or before the hole, seen from `next`.
            let home = self.home_slot(self.bitmaps.entry(occupant as usize));
            if (next + len - home) % len >= (next + len - hole) % len {
                self.index[hole] = occupant;
                hole = next;
            }
        }
        self.index[hole] = 0;
    }

    /// The end of a frame: releases every set minted since the last call
    /// that `holds` does not keep, and tells `released` each one. A handle
    /// released meanwhile (and not minted again) is skipped.
    pub fn release_unheld(
        &mut self,
        mut holds: impl FnMut(SetId) -> bool,
        mut released: impl FnMut(SetId),
    ) {
        for id in std::mem::take(&mut self.recent) {
            if self.is_held(id) && !holds(id) {
                self.release(id);
                released(id);
            }
        }
    }

    /// The set behind a handle, materialised as a sorted [`ObjectSet`] from
    /// its bits (slot order is not identifier order, hence the sort).
    /// Allocates: callers that report the same handle frame after frame
    /// keep the result instead of asking again.
    pub fn resolve(&self, id: SetId) -> ObjectSet {
        let mut ids = Vec::with_capacity(self.len_of(id));
        ids.extend(
            slots_of(self.bitmaps.entry(id.index())).map(|slot| self.universe.object_at(slot)),
        );
        ids.sort_unstable();
        ObjectSet::from_sorted_unchecked(ids)
    }

    /// Number of objects in the set behind a handle: its bitmap's popcount.
    #[inline]
    pub fn len_of(&self, id: SetId) -> usize {
        let words = self.bitmaps.entry(id.index());
        words.iter().map(|word| word.count_ones() as usize).sum()
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
    /// cache key is normalised so `(a, b)` and `(b, a)` share one slot. An
    /// entry answers only if `a`, `b` and the answer were all minted before
    /// it was written (so none was released or reused since). A miss runs
    /// [`intersect_uncached`](Self::intersect_uncached), which allocates
    /// nothing.
    pub fn intersect(&mut self, a: SetId, b: SetId) -> SetId {
        self.intersect_within(a, b, SetId::EMPTY, SetId::EMPTY)
    }

    /// [`intersect`](Self::intersect) with two hints that let a memo miss
    /// skip the content-index probe: `bound` should contain `a ∩ b` and
    /// `guess` is any handle; either wins only if its words equal `a ∩ b`,
    /// and `SetId::EMPTY` means no hint. Both are read after the memo
    /// lookup, so answers and memo counters are `intersect`'s.
    pub fn intersect_within(&mut self, a: SetId, b: SetId, bound: SetId, guess: SetId) -> SetId {
        // a ∩ a = a, and ∅ (handle 0, the least) absorbs.
        if a == b || a == SetId::EMPTY || b == SetId::EMPTY {
            return a.min(b);
        }
        let (lo, hi) = if a.0 <= b.0 { (a, b) } else { (b, a) };
        let bits = self.memo_config.clamped_bits();
        if self.memo.is_empty() {
            self.memo = vec![MEMO_FREE; 1usize << bits];
        }
        let slot = Self::memo_slot(lo, hi, bits);
        let entry = self.memo[slot];
        let born_by = |id: SetId| self.births[id.index()] <= entry.stamp;
        if (entry.lo, entry.hi) == (lo, hi) && born_by(lo) && born_by(hi) && born_by(entry.answer) {
            self.memo_hits += 1;
            return entry.answer;
        }
        self.memo_misses += 1;
        let answer = self.intersect_uncached(a, b, bound, guess);
        self.memo[slot] = MemoEntry {
            lo,
            hi,
            answer,
            stamp: self.clock,
        };
        answer
    }

    /// `a ∩ b` without the memo (neither read, written nor counted): the
    /// memo-miss path of [`intersect_within`](Self::intersect_within),
    /// hints and fast paths included, for callers whose pairs rarely repeat.
    /// One pass sorts the pair into disjoint, `a ⊆ b`, `b ⊆ a` or a proper
    /// overlap; only an overlap reads the hints' words, then the content
    /// index, and only a new set stores its words.
    pub fn intersect_uncached(&mut self, a: SetId, b: SetId, bound: SetId, guess: SetId) -> SetId {
        // a ∩ a = a, and ∅ (handle 0, the least) absorbs.
        if a == b || a == SetId::EMPTY || b == SetId::EMPTY {
            return a.min(b);
        }
        let relation = self
            .bitmaps
            .relate_into(a.index(), b.index(), &mut self.scratch);
        let is_scratch = |hint: SetId| {
            hint != SetId::EMPTY && self.bitmaps.entry_is(hint.index(), &self.scratch)
        };
        match relation {
            Relation::Disjoint => SetId::EMPTY,
            Relation::FirstInside => a,
            Relation::SecondInside => b,
            Relation::Overlap if is_scratch(bound) => bound,
            Relation::Overlap if is_scratch(guess) => guess,
            Relation::Overlap => {
                let run = std::mem::take(&mut self.scratch);
                let id = self.find_or_insert(&run);
                self.scratch = run;
                id
            }
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
    /// bitmaps, at the stride the surviving universe needs exactly), drops
    /// everything else, free handles included, re-densifies the universe,
    /// recounts each slot's holders from the survivors and returns the
    /// [`RemapTable`] translating old handles to their replacements. The
    /// survivors are the epoch's first [`minted`](Self::minted) sets.
    ///
    /// The live list must name held sets; it may contain duplicates and
    /// need not mention [`SetId::EMPTY`] (the empty set always survives as
    /// id 0). Surviving
    /// sets keep their relative id order and surviving objects their
    /// relative slot order, so compaction is deterministic for deterministic
    /// inputs. The registered objects no survivor holds retire: the parked
    /// ones and those that only occurred in dropped sets. That is what lets
    /// a long-running feed with object turnover plateau instead of growing
    /// monotonically.
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
        let mut map: Vec<Option<SetId>> = vec![None; self.len()];
        for (new, &old) in keep.iter().enumerate() {
            map[old] = Some(SetId(new as u32));
        }
        let live_slots = self.bitmaps.union_of(keep.iter().copied());
        let (slot_map, mut retired_objects) = self.universe.retain_slots(&live_slots);
        self.bitmaps
            .retain_remapped(&keep, &slot_map, self.universe.slot_count());
        for entry in 0..keep.len() {
            for slot in slots_of(self.bitmaps.entry(entry)) {
                self.universe.hold(slot);
            }
        }
        self.births = vec![0; keep.len()];
        (self.free, self.first_free) = (0, 0);
        self.recent = Vec::new();
        self.minted = keep.len();
        self.rebuild_index();
        // The memo references retired handles; drop it wholesale (it refills
        // within a window's worth of frames).
        self.memo = Vec::new();

        retired_objects.sort_unstable();
        RemapTable {
            live: keep.len(),
            map,
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

    /// Number of occupied intersection-cache slots.
    fn memo_len(interner: &SetInterner) -> usize {
        interner.memo.iter().filter(|e| e.lo != e.hi).count()
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

    /// Every handle in `sets` looks up and re-interns to itself.
    fn assert_content_addressed(interner: &mut SetInterner, sets: &[(ObjectSet, SetId)]) {
        for (set, id) in sets {
            assert_eq!(interner.get(set), Some(*id), "{set:?}");
            assert_eq!(interner.intern(set), *id, "{set:?}");
        }
    }

    /// Whether `id` sits before its home slot: its probe ran past the
    /// table's last slot and wrapped to the front.
    fn probe_wraps(interner: &SetInterner, id: SetId) -> bool {
        let run = interner.bitmaps.entry(id.index());
        interner.probe(run) < interner.home_slot(run)
    }

    /// Content addressing holds for two equal sets, and for 11,175 pairs
    /// over a 150-object universe: they rebuild the non-power-of-two
    /// content index about 30 times, each rebuild rehashes every earlier
    /// set, and some probe wraps around the table's end.
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

        let mut sets = vec![(set(&[1, 2, 3]), a)];
        let (mut rebuilds, mut wrapped) = (0, false);
        for hi in 0..150u32 {
            for lo in 0..hi {
                let slots = interner.index.len();
                let pair = set(&[lo, hi]);
                let id = interner.intern(&pair);
                if probe_wraps(&interner, id) {
                    wrapped = true;
                    assert_eq!(interner.get(&pair), Some(id), "wrapped probe");
                }
                sets.push((pair, id));
                if interner.index.len() != slots {
                    rebuilds += 1;
                    assert_content_addressed(&mut interner, &sets);
                }
            }
        }
        assert_eq!(interner.len(), 11_177);
        assert!(rebuilds >= 10, "{rebuilds} rebuilds");
        assert!(wrapped, "no probe passed the last slot");
        assert_content_addressed(&mut interner, &sets);
        // A compaction rebuilds the index for the survivors, every third
        // pair; the rest re-intern to fresh handles.
        let live: Vec<SetId> = sets.iter().step_by(3).map(|&(_, id)| id).collect();
        let table = interner.compact(&live);
        let survivors: Vec<(ObjectSet, SetId)> = (sets.iter().step_by(3))
            .map(|(set, id)| (set.clone(), table.remap(*id).expect("live")))
            .collect();
        assert_content_addressed(&mut interner, &survivors);
        for (set, _) in &sets {
            let id = interner.intern(set);
            assert_eq!(interner.resolve(id), *set);
        }
        assert_content_addressed(&mut interner, &survivors);
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
        assert_eq!(memo_len(&interner), 1);
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
        assert_eq!(memo_len(&interner), 0);
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
        assert_eq!(memo_len(&interner), 0);
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
        // 99 bits would overflow `1usize << bits`; 30, which a corrupt
        // snapshot can ask for, would allocate 16 GiB. Both get 2^16 slots.
        for bits in [30, 99] {
            let mut interner = SetInterner::new().with_memo_config(MemoConfig { bits });
            let a = interner.intern(&set(&[1, 2, 3]));
            let b = interner.intern(&set(&[2, 3, 4]));
            interner.intersect(a, b);
            assert_eq!(interner.memo_slots(), 1 << 16, "capped at 16 bits");
        }
    }

    /// A memo entry stops answering once its answer's or an operand's
    /// handle was released, whether or not a new set took the handle.
    #[test]
    fn memo_entries_die_with_their_handles() {
        let mut interner = SetInterner::new();
        let a = interner.intern(&set(&[1, 2, 3]));
        let b = interner.intern(&set(&[2, 3, 4]));
        let ab = interner.intersect(a, b);
        interner.release(ab);
        let other = interner.intern(&set(&[7, 8]));
        assert_eq!(other, ab, "the lowest free handle is reused");
        let again = interner.intersect_within(a, b, SetId::EMPTY, other);
        assert_eq!(interner.resolve(again), set(&[2, 3]));
        assert_eq!(interner.memo_hits(), 0);
        // An operand's handle reused: the pair names another set now.
        assert_eq!(interner.intersect(a, b), again);
        assert_eq!(interner.memo_hits(), 1);
        interner.release(again);
        interner.release(b);
        let c = interner.intern(&set(&[1, 9]));
        assert_eq!(c, b);
        let ac = interner.intersect(a, c);
        assert_eq!(interner.resolve(ac), set(&[1]));
        assert_eq!(interner.memo_hits(), 1);
    }

    /// The mint clock winds back before it reaches the free stamp: held
    /// sets count as born at 0, the memo is dropped, and answers and
    /// birth order stay right.
    #[test]
    fn the_mint_clock_winds_back_before_it_runs_out() {
        let mut interner = SetInterner::new();
        let a = interner.intern(&set(&[1, 2, 3]));
        let b = interner.intern(&set(&[2, 3, 4]));
        interner.intersect(a, b);
        interner.clock = FREE - 2;
        let c = interner.intern(&set(&[5]));
        assert_eq!(interner.clock(), FREE - 1);
        assert_eq!(interner.memo_slots(), 1 << 12, "memo kept");
        let d = interner.intern(&set(&[6]));
        assert_eq!((interner.clock(), interner.memo_slots()), (1, 0));
        assert!(interner.born_after(d, 0) && !interner.born_after(c, 0));
        let ab = interner.intersect(a, b);
        assert_eq!(interner.resolve(ab), set(&[2, 3]));
        assert_eq!(interner.memo_hits(), 0);
    }

    /// Pairs over a 150-object universe are interned until one's probe
    /// wraps past the table's end; releasing every other one then shifts
    /// entries back across that end, and leaves every held set found at
    /// its handle and no released one. Re-interning them fills the free
    /// handles lowest first.
    #[test]
    fn released_sets_leave_the_content_index() {
        let mut interner = SetInterner::new();
        let mut sets = Vec::new();
        let pairs = (0..150u32).flat_map(|hi| (0..hi).map(move |lo| set(&[lo, hi])));
        for pair in pairs {
            let id = interner.intern(&pair);
            sets.push((id, pair));
            if probe_wraps(&interner, id) {
                break;
            }
        }
        let wrapped = sets.len() - 1;
        assert!(probe_wraps(&interner, sets[wrapped].0), "no probe wraps");
        let released = |k: usize| k.is_multiple_of(2) && k != wrapped;
        for (_, (id, _)) in sets.iter().enumerate().filter(|&(k, _)| released(k)) {
            interner.release(*id);
        }
        for (k, (id, pair)) in sets.iter().enumerate() {
            assert_eq!(
                interner.get(pair),
                (!released(k)).then_some(*id),
                "{pair:?}"
            );
        }
        for (_, (id, pair)) in sets.iter().enumerate().filter(|&(k, _)| released(k)) {
            assert_eq!(interner.intern(pair), *id, "lowest free handle first");
        }
        assert_eq!(interner.held(), interner.len());
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
        assert_eq!(table.live(), 3, "empty + two survivors");
        assert_eq!(table.retired_objects(), [ObjectId(1), ObjectId(2)]);
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
        assert_eq!(memo_len(&interner), 0, "memo dropped with the old epoch");

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

    /// What grows is at most a quarter unused: the bitmap words hold at
    /// most `max(stride, len/4)` words past their length, and the content
    /// index is at most ¾ and (above its minimum) at least ⅗ full.
    fn assert_little_slack(interner: &SetInterner) {
        let (stride, len) = (interner.stride(), interner.len() * interner.stride());
        let capacity = interner.bitmaps.bytes() / std::mem::size_of::<u64>();
        assert!(
            capacity <= len + stride.max(len / 4),
            "{capacity} words for {len} at stride {stride}"
        );
        let (used, slots) = (interner.indexed(), interner.index.len());
        assert!(4 * used <= 3 * slots, "{used} sets in {slots} slots");
        assert!(
            slots == MIN_INDEX_SLOTS || 5 * used >= 3 * slots,
            "{used} sets in {slots} slots"
        );
    }

    /// A universe growing one object at a time from 0 to 4,096 re-strides
    /// about 15 times (a quarter step each), the words past the universe's
    /// last stay under a quarter of the stride throughout, the words and
    /// the content index keep little slack, and every set keeps its
    /// content and cardinality.
    #[test]
    fn growing_universes_restride_logarithmically_with_little_padding() {
        let mut interner = SetInterner::new();
        let first = interner.intern(&set(&[0]));
        let mut restrides = 0;
        for id in 0..4096u32 {
            let stride = interner.stride();
            interner.intern(&set(&[id]));
            restrides += usize::from(interner.stride() != stride);
            let padding = interner.stride() - interner.universe_len().div_ceil(64);
            assert!(
                4 * padding < interner.stride(),
                "{padding} padding words at stride {} for {} objects",
                interner.stride(),
                interner.universe_len()
            );
            assert_little_slack(&interner);
        }
        assert_eq!((interner.universe_len(), interner.stride()), (4096, 75));
        assert!(restrides <= 16, "{restrides} re-strides");
        assert_eq!(interner.resolve(first), set(&[0]));
        assert_eq!(interner.len_of(first), 1);
        // Compaction fits the stride to the surviving universe exactly.
        let wide = interner.intern(&ObjectSet::from_raw(0..300));
        interner.compact(&[wide]);
        assert_eq!((interner.universe_len(), interner.stride()), (300, 5));
        assert_little_slack(&interner);
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

        /// `len_of` is the resolved set's size, and `intersect_uncached`
        /// answers every pair with the set oracle's intersection, through
        /// universes that grow by random steps (so strides that are not
        /// powers of two, and re-strides between interns) and a compaction
        /// to a random live subset (so strides fitted exactly).
        #[test]
        fn cardinalities_and_relations_match_the_oracle_across_restrides(
            raw in wide_sets(),
            growth in proptest::collection::vec(0u32..160, 2..6),
            keep_mask in 0u32..256,
        ) {
            let sets = widen(&raw);
            let mut interner = SetInterner::new();
            let mut fresh = 10_000u32;
            let mut ids = Vec::new();
            for (i, set) in sets.iter().enumerate() {
                // Unseen objects widen the universe before some sets.
                let step = growth[i % growth.len()];
                interner.intern(&ObjectSet::from_raw(fresh..fresh + step));
                fresh += step;
                ids.push(interner.intern(set));
            }
            let check = |interner: &mut SetInterner, ids: &[SetId]| {
                for (i, &a) in ids.iter().enumerate() {
                    prop_assert_eq!(interner.len_of(a), interner.resolve(a).len());
                    prop_assert_eq!(interner.len_of(a), sets[i].len());
                    for (j, &b) in ids.iter().enumerate() {
                        let inter = interner.intersect_uncached(a, b, SetId::EMPTY, SetId::EMPTY);
                        prop_assert_eq!(interner.resolve(inter), sets[i].intersect(&sets[j]));
                        prop_assert_eq!(interner.len_of(inter), interner.resolve(inter).len());
                    }
                }
            };
            check(&mut interner, &ids);
            let live: Vec<SetId> = ids
                .iter()
                .enumerate()
                .filter(|&(i, _)| keep_mask & (1 << (i % 8)) != 0)
                .map(|(_, &id)| id)
                .collect();
            interner.compact(&live);
            prop_assert_eq!(interner.stride(), interner.universe_len().div_ceil(64));
            let again: Vec<SetId> = sets.iter().map(|s| interner.intern(s)).collect();
            check(&mut interner, &again);
        }

        /// Random intern / release / re-intern sequences against a
        /// `HashMap<ObjectSet, SetId>` model, over sets of ten objects:
        /// the content index stays between 16 and a few dozen slots, so
        /// probes wrap past its end and deletions cross its ¾ rebuilds.
        /// After every step each held set is found at its own handle, no
        /// released set is found, and each new set took the lowest free
        /// handle.
        #[test]
        fn release_and_reintern_match_a_map_model(
            ops in proptest::collection::vec((any::<bool>(), 0u32..1024), 1..160),
        ) {
            use std::collections::{BTreeSet, HashMap};
            let mut interner = SetInterner::new();
            let mut model: HashMap<ObjectSet, SetId> = HashMap::new();
            let (mut free, mut released) = (BTreeSet::new(), BTreeSet::new());
            for (intern, bits) in ops {
                if intern {
                    let set = ObjectSet::from_raw((0..10).filter(|b| bits >> b & 1 == 1));
                    if set.is_empty() {
                        continue;
                    }
                    let expected = model.get(&set).copied().unwrap_or_else(|| {
                        let raw = free.pop_first().unwrap_or(interner.len() as u32);
                        SetId::from_raw(raw)
                    });
                    prop_assert_eq!(interner.intern(&set), expected, "{:?}", set);
                    released.remove(&set);
                    model.insert(set, expected);
                } else {
                    let mut held: Vec<(ObjectSet, SetId)> =
                        model.iter().map(|(s, &id)| (s.clone(), id)).collect();
                    if held.is_empty() {
                        continue;
                    }
                    held.sort();
                    let (set, id) = held.swap_remove(bits as usize % held.len());
                    interner.release(id);
                    model.remove(&set);
                    free.insert(id.raw());
                    released.insert(set);
                }
                for (set, &id) in &model {
                    prop_assert_eq!(interner.get(set), Some(id), "{:?}", set);
                    prop_assert_eq!(&interner.resolve(id), set);
                }
                for set in &released {
                    prop_assert_eq!(interner.get(set), None, "{:?}", set);
                }
                prop_assert_eq!(interner.held(), model.len() + 1);
                prop_assert!(4 * interner.indexed() <= 3 * interner.index.len());
            }
        }

        /// Random intern, release, re-intern and compact steps against a
        /// model of the held sets and the slot table, over sets of one to
        /// ten objects from a pool of 200, so the slots outgrow one word.
        /// After every step: each slot counts the held sets that have its
        /// bit; the slot table is the model's, in which an object without
        /// a slot took the lowest free one; the parked objects are the
        /// registered ones in no slot; the stride is the smallest the slot
        /// high-water mark allows under the quarter rule; and a compaction
        /// retires exactly the registered objects no surviving set holds.
        #[test]
        fn bit_slots_follow_the_held_sets_of_a_map_model(
            ops in proptest::collection::vec((0u8..32, any::<u64>()), 1..240),
        ) {
            use std::collections::{BTreeMap, BTreeSet};
            let set_of = |seed: u64| {
                let next = |x: u64| x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let ids = std::iter::successors(Some(next(seed)), |&x| Some(next(x)));
                ObjectSet::from_raw(ids.take(1 + seed as usize % 10).map(|x| (x >> 33) as u32 % 200))
            };
            let mut interner = SetInterner::new();
            let mut held: BTreeMap<ObjectSet, SetId> = BTreeMap::new();
            let mut released: Vec<ObjectSet> = Vec::new();
            let mut slots: Vec<Option<ObjectId>> = Vec::new();
            let mut registered: BTreeSet<ObjectId> = BTreeSet::new();
            let mut stride = 0;
            for (op, seed) in ops {
                match op {
                    0..=19 => {
                        let set = match released.len() {
                            n if op >= 16 && n > 0 => released[seed as usize % n].clone(),
                            _ => set_of(seed),
                        };
                        for object in set.iter() {
                            registered.insert(object);
                            if !slots.contains(&Some(object)) {
                                match slots.iter().position(Option::is_none) {
                                    Some(free) => slots[free] = Some(object),
                                    None => slots.push(Some(object)),
                                }
                            }
                        }
                        let needed = slots.len().div_ceil(64);
                        if needed > stride {
                            stride = needed.max(stride + stride.div_ceil(4));
                        }
                        let id = interner.intern(&set);
                        prop_assert_eq!(*held.entry(set).or_insert(id), id);
                    }
                    20..=30 => {
                        let Some(set) = held.keys().nth(seed as usize % held.len().max(1)).cloned()
                        else {
                            continue;
                        };
                        interner.release(held.remove(&set).unwrap());
                        for object in set.iter() {
                            if !held.keys().any(|other| other.contains(object)) {
                                let slot = slots.iter().position(|&s| s == Some(object)).unwrap();
                                slots[slot] = None;
                            }
                        }
                        released.push(set);
                    }
                    _ => {
                        held.retain(|_, id| seed >> (id.raw() % 64) & 1 == 1);
                        let live: Vec<SetId> = held.values().copied().collect();
                        let table = interner.compact(&live);
                        let kept: BTreeSet<ObjectId> = held.keys().flat_map(|s| s.iter()).collect();
                        let retired: Vec<ObjectId> = registered.difference(&kept).copied().collect();
                        prop_assert_eq!(table.retired_objects(), &retired[..]);
                        for id in held.values_mut() {
                            *id = table.remap(*id).unwrap();
                        }
                        slots.retain(|slot| slot.is_some_and(|object| kept.contains(&object)));
                        registered = kept;
                        stride = slots.len().div_ceil(64);
                    }
                }
                let universe = &interner.universe;
                let table = (0..interner.slot_count() as u32)
                    .map(|slot| (!universe.is_free(slot)).then(|| universe.object_at(slot)));
                prop_assert_eq!(table.collect::<Vec<_>>(), slots.clone());
                let holders = slots.iter().map(|slot| {
                    slot.map_or(0, |object| held.keys().filter(|s| s.contains(object)).count() as u32)
                });
                let counts = (0..slots.len() as u32).map(|slot| interner.universe.holders(slot));
                prop_assert_eq!(counts.collect::<Vec<_>>(), holders.collect::<Vec<_>>());
                let in_slots: BTreeSet<ObjectId> = slots.iter().flatten().copied().collect();
                let parked: Vec<ObjectId> = registered.difference(&in_slots).copied().collect();
                prop_assert_eq!(interner.parked_objects(), parked);
                let registered_ids: Vec<ObjectId> = registered.iter().copied().collect();
                prop_assert_eq!(interner.universe_object_ids(), registered_ids);
                prop_assert_eq!(interner.stride(), stride);
                for (set, &id) in &held {
                    prop_assert_eq!(interner.get(set), Some(id), "{:?}", set);
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
