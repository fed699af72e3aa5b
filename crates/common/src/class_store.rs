//! The engine's object → class map.
//!
//! The engine records the class of every internal identifier it binds so
//! that class counts can be aggregated for query evaluation, pruning and the
//! interner's on-demand counts. One engine owns one store: its object
//! lifecycle writes an entry when it binds an identifier and removes it when
//! a compaction epoch retires the identifier, so the map stays bounded by
//! the live window; the engine's interner and pruner only read it.
//!
//! An entry never changes while it exists: an identifier the tracker reuses
//! with a different class while its old entry is still held is a new
//! object, and the lifecycle gives it a fresh internal identifier instead of
//! rewriting the entry.

use std::sync::{Arc, RwLock};

use crate::hash::FxHashMap;
use crate::ids::{ClassId, ObjectId};

/// The object → class map of one engine. See the [module docs](self).
#[derive(Debug, Default)]
pub struct ClassStore {
    classes: FxHashMap<ObjectId, ClassId>,
}

impl ClassStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ClassStore::default()
    }

    /// Creates a store holding the given entries. Test and tooling
    /// convenience; engines build empty stores.
    pub fn preloaded(entries: impl IntoIterator<Item = (ObjectId, ClassId)>) -> Self {
        ClassStore {
            classes: entries.into_iter().collect(),
        }
    }

    /// The plain `ObjectId → ClassId` view used for class-count aggregation.
    #[inline]
    pub fn classes(&self) -> &FxHashMap<ObjectId, ClassId> {
        &self.classes
    }

    /// The class of an entry, if any.
    #[inline]
    pub fn class_of(&self, id: ObjectId) -> Option<ClassId> {
        self.classes.get(&id).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Approximate bytes held by the map.
    pub fn bytes(&self) -> usize {
        self.classes.capacity() * std::mem::size_of::<(ObjectId, ClassId, u64)>()
    }

    /// Records `id`'s class.
    pub fn register(&mut self, id: ObjectId, class: ClassId) {
        self.classes.insert(id, class);
    }

    /// Removes `id`'s entry, returning whether there was one.
    pub fn release(&mut self, id: ObjectId) -> bool {
        self.classes.remove(&id).is_some()
    }
}

/// Handle to an engine's [`ClassStore`]: its lifecycle writes it, its
/// interner and pruner read it. The lock is written only when a frame binds
/// new identifiers or a compaction epoch retires some.
pub type SharedClassMap = Arc<RwLock<ClassStore>>;

/// Creates an empty store behind its handle.
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
        store.register(ObjectId(1), ClassId(2));
        assert_eq!(store.class_of(ObjectId(1)), Some(ClassId(2)));
        assert_eq!(store.len(), 1);
        assert!(store.bytes() > 0);
        assert!(store.release(ObjectId(1)));
        assert!(store.is_empty());
        assert_eq!(store.class_of(ObjectId(1)), None);
    }

    #[test]
    fn releasing_unknown_ids_is_a_noop() {
        let mut store = ClassStore::preloaded([(ObjectId(1), ClassId(0))]);
        assert!(!store.release(ObjectId(9)));
        assert_eq!(store.classes().get(&ObjectId(1)), Some(&ClassId(0)));
    }
}
