//! The shared, reference-counted object → class store.
//!
//! The engine layer records the class of every relevant object it observes
//! so that class counts can be aggregated for query evaluation, pruning and
//! the interner's per-set count cache. Before this module existed that
//! record was a bare `FxHashMap<ObjectId, ClassId>` that only ever grew:
//! every object a feed ever observed stayed in the map forever — tens of
//! bytes per object, monotone in the feed's lifetime.
//!
//! [`ClassStore`] makes the record evictable while staying correct under
//! *sharing*:
//!
//! * **entries are reference counted** — each engine that currently tracks
//!   an object holds one reference ([`ClassStore::register`]); when the
//!   object is retired at a compaction epoch boundary the engine releases it
//!   ([`ClassStore::release`]) and the entry is evicted once the last
//!   reference drops. Engines sharing one store therefore never lose a
//!   mapping another sharer still relies on;
//! * **classes are immutable per entry** — `register` is first-writer-wins
//!   for as long as an entry is live, mirroring the tracker contract that an
//!   object identifier keeps one class for its lifetime. An identifier that
//!   is *reused* with a different class is a new object: the lifecycle layer
//!   assigns it a fresh internal identifier (or the old one after eviction
//!   proved nothing references it), so a live entry's class never changes
//!   under anyone's feet.
//!
//! The store keeps the plain `ObjectId → ClassId` map intact (see
//! [`ClassStore::classes`]) so aggregation call sites
//! ([`ClassCounts::of`](crate::ClassCounts::of)) read it without any
//! per-lookup refcount indirection.

use std::sync::{Arc, RwLock};

use crate::codec::{Decoder, Encoder};
use crate::error::{Error, Result};
use crate::hash::FxHashMap;
use crate::ids::{ClassId, ObjectId};

/// Reference-counted object → class map. See the [module docs](self).
#[derive(Debug)]
pub struct ClassStore {
    /// The class of every live entry (what aggregation reads).
    classes: FxHashMap<ObjectId, ClassId>,
    /// How many registrants currently hold each entry.
    refs: FxHashMap<ObjectId, u32>,
    /// Next alias identifier to mint (counts down from `u32::MAX`). Owned
    /// by the store — not by individual lifecycles — so every sharer draws
    /// from one sequence and two engines can never mint the same alias for
    /// different objects.
    next_alias: u32,
    evictions: u64,
}

impl Default for ClassStore {
    fn default() -> Self {
        ClassStore {
            classes: FxHashMap::default(),
            refs: FxHashMap::default(),
            next_alias: u32::MAX,
            evictions: 0,
        }
    }
}

impl ClassStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ClassStore::default()
    }

    /// Creates a store pre-loaded with entries, each held by one reference.
    /// Test and tooling convenience; engines build empty stores.
    pub fn preloaded(entries: impl IntoIterator<Item = (ObjectId, ClassId)>) -> Self {
        let mut store = ClassStore::new();
        for (id, class) in entries {
            store.register(id, class);
        }
        store
    }

    /// The plain `ObjectId → ClassId` view used for class-count aggregation.
    #[inline]
    pub fn classes(&self) -> &FxHashMap<ObjectId, ClassId> {
        &self.classes
    }

    /// The class of a live entry, if any.
    #[inline]
    pub fn class_of(&self, id: ObjectId) -> Option<ClassId> {
        self.classes.get(&id).copied()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the store holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Approximate bytes held by the store's maps.
    pub fn bytes(&self) -> usize {
        self.classes.capacity() * std::mem::size_of::<(ObjectId, ClassId, u64)>()
            + self.refs.capacity() * std::mem::size_of::<(ObjectId, u32, u64)>()
    }

    /// Registers one reference to `id`, recording `class` on first
    /// registration. Returns the class the entry actually holds — for a
    /// live entry this is the first writer's class (callers detecting a
    /// mismatch are seeing identifier reuse and must mint a new internal
    /// identifier rather than mutate the shared entry).
    pub fn register(&mut self, id: ObjectId, class: ClassId) -> ClassId {
        *self.refs.entry(id).or_insert(0) += 1;
        *self.classes.entry(id).or_insert(class)
    }

    /// Releases one reference to `id`, evicting the entry when the last
    /// reference drops. Releasing an unregistered identifier is a no-op
    /// (robustness: retirement lists may mention objects another layer
    /// never registered).
    pub fn release(&mut self, id: ObjectId) {
        let Some(count) = self.refs.get_mut(&id) else {
            return;
        };
        *count -= 1;
        if *count == 0 {
            self.refs.remove(&id);
            self.classes.remove(&id);
            self.evictions += 1;
        }
    }

    /// Current reference count of an entry (0 when absent).
    pub fn ref_count(&self, id: ObjectId) -> u32 {
        self.refs.get(&id).copied().unwrap_or(0)
    }

    /// Mints a fresh alias identifier, unique across every lifecycle
    /// sharing this store (aliases are never reused, even after the
    /// generation behind one retires). Identifiers currently registered —
    /// e.g. an external tracker id at the top of the `u32` range — are
    /// skipped, so a minted alias never collides with a live entry.
    pub fn mint_alias(&mut self) -> ObjectId {
        while self.refs.contains_key(&ObjectId(self.next_alias)) {
            self.next_alias -= 1;
        }
        let id = ObjectId(self.next_alias);
        self.next_alias -= 1;
        id
    }

    /// The smallest identifier the alias range has reached; every value at
    /// or above it is (or may become) an alias.
    pub fn alias_floor(&self) -> u32 {
        self.next_alias
    }

    /// Deterministic snapshot of every live entry as `(id, class, refs)`,
    /// sorted by identifier. Test hook: the model checker compares the
    /// store's observable state against its model's after every action, and
    /// a sorted tuple list is directly comparable where the internal hash
    /// maps are not. [`encode`](Self::encode) persists exactly this list.
    pub fn snapshot(&self) -> Vec<(ObjectId, ClassId, u32)> {
        let mut entries: Vec<(ObjectId, ClassId, u32)> = self
            .classes
            .iter()
            .map(|(&id, &class)| (id, class, self.ref_count(id)))
            .collect();
        entries.sort_unstable();
        entries
    }

    /// Appends the live entries sorted by identifier, then the alias cursor
    /// and the eviction counter.
    pub fn encode(&self, enc: &mut Encoder) {
        let entries = self.snapshot();
        enc.put_usize(entries.len());
        for (id, class, refs) in entries {
            enc.put_u32(id.raw());
            enc.put_u16(class.raw());
            enc.put_u32(refs);
        }
        enc.put_u32(self.next_alias);
        enc.put_u64(self.evictions);
    }

    /// Reads a store written by [`encode`](Self::encode), rejecting what it
    /// never writes: identifiers not strictly increasing (a repeat would
    /// silently keep the last entry) and an entry nobody references (it
    /// could never be evicted). The alias cursor is restored exactly:
    /// aliases count down from `u32::MAX` and are never reused, so resetting
    /// it would re-mint an alias some persisted binding already carries.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<ClassStore> {
        let mut store = ClassStore::new();
        let mut previous = None;
        for _ in 0..dec.take_len()? {
            let id = ObjectId(dec.take_u32()?);
            let class = ClassId(dec.take_u16()?);
            let refs = dec.take_u32()?;
            if previous >= Some(id) || refs == 0 {
                return Err(Error::Corrupt(format!(
                    "class store entry {id} (refs {refs}) is out of order, repeated or unreferenced"
                )));
            }
            previous = Some(id);
            store.classes.insert(id, class);
            store.refs.insert(id, refs);
        }
        store.next_alias = dec.take_u32()?;
        store.evictions = dec.take_u64()?;
        Ok(store)
    }
}

/// Shared handle to a [`ClassStore`]: the engine, its interner and its
/// pruner all read the same store; several engines may share one. The lock
/// is written only when a frame introduces
/// first-time objects or a compaction epoch retires some.
pub type SharedClassMap = Arc<RwLock<ClassStore>>;

/// Creates an empty shared store.
pub fn shared_class_store() -> SharedClassMap {
    Arc::new(RwLock::new(ClassStore::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_release_round_trip() {
        let mut store = ClassStore::new();
        assert!(store.is_empty());
        assert_eq!(store.register(ObjectId(1), ClassId(2)), ClassId(2));
        assert_eq!(store.class_of(ObjectId(1)), Some(ClassId(2)));
        assert_eq!(store.ref_count(ObjectId(1)), 1);
        assert_eq!(store.len(), 1);
        store.release(ObjectId(1));
        assert!(store.is_empty());
        assert_eq!(store.evictions, 1);
        assert_eq!(store.class_of(ObjectId(1)), None);
    }

    #[test]
    fn live_entries_are_first_writer_wins() {
        let mut store = ClassStore::new();
        assert_eq!(store.register(ObjectId(7), ClassId(0)), ClassId(0));
        // A second registrant with a different class sees the incumbent.
        assert_eq!(store.register(ObjectId(7), ClassId(1)), ClassId(0));
        assert_eq!(store.ref_count(ObjectId(7)), 2);
        store.release(ObjectId(7));
        assert_eq!(
            store.class_of(ObjectId(7)),
            Some(ClassId(0)),
            "entry survives while a reference remains"
        );
        store.release(ObjectId(7));
        // After eviction, the next registration is a fresh first writer.
        assert_eq!(store.register(ObjectId(7), ClassId(1)), ClassId(1));
    }

    #[test]
    fn releasing_unknown_ids_is_a_noop() {
        let mut store = ClassStore::new();
        store.release(ObjectId(9));
        assert_eq!(store.evictions, 0);
    }

    #[test]
    fn preloaded_holds_one_reference_each() {
        let mut store =
            ClassStore::preloaded([(ObjectId(1), ClassId(0)), (ObjectId(2), ClassId(1))]);
        assert_eq!(store.len(), 2);
        assert!(store.bytes() > 0);
        store.release(ObjectId(1));
        assert_eq!(store.len(), 1);
        assert_eq!(store.classes().get(&ObjectId(2)), Some(&ClassId(1)));
    }
}
