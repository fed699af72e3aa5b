//! Tracker-id lifecycle: generations, aliasing and epoch retirement.
//!
//! Object trackers *reuse* identifiers: when a track ends, its id eventually
//! returns for a different physical object — possibly of a different class.
//! Fed naively into MCOS generation this is a correctness hazard twice over:
//!
//! 1. **splicing** — a window state containing old-generation object `o5`
//!    would have frames of the *new* `o5` appended to its frame set, fusing
//!    two unrelated physical objects into one co-occurrence history;
//! 2. **stale classes** — the class recorded at first sight would keep being
//!    used for counts and pruning verdicts after the id was recycled into a
//!    different class.
//!
//! [`ObjectLifecycle`] makes reuse well-defined. It sits between the feed's
//! *external* (tracker) identifiers and the *internal* identifiers every
//! downstream structure (interner universe, states, class store) operates
//! on, maintaining the invariant that **an internal identifier denotes one
//! object generation with one immutable class, forever**:
//!
//! * the first sighting of an external id binds it to itself (`internal ==
//!   external`) — the common case costs one map lookup and no translation;
//! * an external id that reappears **with a different class** while its old
//!   generation is still registered is a new object: it is bound to a fresh
//!   *alias* internal id (minted from the top of the id space downward), so
//!   no live state can absorb the newcomer's frames;
//! * at compaction epoch boundaries the maintainer reports its **retire
//!   set** — internal ids no surviving state references. The lifecycle
//!   drops their class entries, bindings and aliases, and thereby keeps
//!   every per-object map bounded by the live window. A retired id that
//!   reappears (same or different class) starts a **new generation**: it
//!   re-binds, re-registers its class and is re-judged by the pruner —
//!   never trusted from stale state;
//! * a reappearance with the *same* class while the binding is still live is
//!   indistinguishable from an occlusion the tracker bridged, and is — by
//!   contract — the same object. This mirrors the tracker guarantee the
//!   paper assumes and is the documented limit of reuse detection.
//!
//! Every binding carries a monotonically increasing **generation** number
//! (unique per engine, never reused) so tests, metrics and downstream
//! consumers can observe reuse explicitly.

use std::sync::{Arc, PoisonError, RwLockReadGuard};

use tvq_common::{
    shared_class_store, ClassId, ClassStore, Decoder, Encoder, Error, FxHashMap, FxHashSet,
    ObjectId, Result, SharedClassMap,
};

/// The current binding of one external (tracker) identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveBinding {
    /// The internal identifier downstream structures see.
    pub internal: ObjectId,
    /// The binding's class (the class store holds the same for `internal`).
    pub class: ClassId,
    /// The binding's generation (engine-wide monotone counter).
    pub generation: u64,
}

/// Generation-aware external → internal identifier resolution with
/// epoch-boundary retirement. See the [module docs](self).
#[derive(Debug)]
pub struct ObjectLifecycle {
    /// The engine's class store: one entry per registered internal id.
    store: SharedClassMap,
    /// External id → its current binding (the per-frame fast path).
    live: FxHashMap<ObjectId, LiveBinding>,
    /// Alias internal id → the external id it stands for (only reuse
    /// generations appear here; first generations bind to themselves).
    aliases: FxHashMap<ObjectId, ObjectId>,
    /// Next alias to mint: counts down from `u32::MAX`, wrapping.
    next_alias: u32,
    next_generation: u64,
    retired_total: u64,
    tracks_ended: u64,
    /// Deferred slow-path detections of the frame being resolved.
    pending: Vec<(ObjectId, ClassId)>,
}

impl ObjectLifecycle {
    /// Creates a lifecycle that registers classes into `store`.
    pub fn new(store: SharedClassMap) -> Self {
        ObjectLifecycle {
            store,
            live: FxHashMap::default(),
            aliases: FxHashMap::default(),
            next_alias: u32::MAX,
            next_generation: 0,
            retired_total: 0,
            tracks_ended: 0,
            pending: Vec::new(),
        }
    }

    /// The class store this lifecycle registers into.
    pub fn store(&self) -> &SharedClassMap {
        &self.store
    }

    /// Resolves one frame of `(external id, class)` detections into internal
    /// identifiers, appending them to `out` (order follows the detections;
    /// callers building an `ObjectSet` sort anyway). Detections whose class
    /// is not in `relevant` are skipped before any state is touched.
    ///
    /// The steady state — every relevant detection already bound with a
    /// matching class — never takes the store's write lock; only frames
    /// introducing new bindings (first sights, reuse, post-retirement
    /// reappearances) pay it, once.
    pub fn resolve_frame(
        &mut self,
        detections: &[(ObjectId, ClassId)],
        relevant: &FxHashSet<ClassId>,
        out: &mut Vec<ObjectId>,
    ) {
        debug_assert!(self.pending.is_empty());
        for &(external, class) in detections {
            if !relevant.contains(&class) {
                continue;
            }
            match self.live.get(&external) {
                Some(binding) if binding.class == class => out.push(binding.internal),
                _ => self.pending.push((external, class)),
            }
        }
        if self.pending.is_empty() {
            return;
        }
        let mut pending = std::mem::take(&mut self.pending);
        {
            // Entries are immutable while registered, so a poisoned lock
            // still holds usable data (same reasoning as the LivePruner).
            let mut store = self.store.write().unwrap_or_else(PoisonError::into_inner);
            for (external, class) in pending.drain(..) {
                // Re-check: an identifier duplicated within one frame was
                // bound by its own earlier slow-path visit.
                if let Some(binding) = self.live.get(&external) {
                    if binding.class == class {
                        out.push(binding.internal);
                        continue;
                    }
                }
                // The newcomer gets an id nothing live references: the
                // external id unless it is still registered, else an alias.
                // Minting skips registered ids and wraps below zero, so it
                // cannot run out whatever value a restored cursor holds.
                let internal = if store.class_of(external).is_some() {
                    while store.class_of(ObjectId(self.next_alias)).is_some() {
                        self.next_alias = self.next_alias.wrapping_sub(1);
                    }
                    let alias = ObjectId(self.next_alias);
                    self.next_alias = self.next_alias.wrapping_sub(1);
                    self.aliases.insert(alias, external);
                    alias
                } else {
                    external
                };
                store.register(internal, class);
                let generation = self.next_generation;
                self.next_generation += 1;
                self.live.insert(
                    external,
                    LiveBinding {
                        internal,
                        class,
                        generation,
                    },
                );
                out.push(internal);
            }
        }
        self.pending = pending;
    }

    /// Applies tracker end-of-track events: the live bindings of the listed
    /// *external* identifiers are severed, so the next sighting of such an
    /// id — **even with the same class** — starts a new generation behind a
    /// fresh internal id instead of splicing into the ended generation's
    /// window states. This closes the same-class-recycle blind spot of
    /// epoch-only retirement: without end events, an id recycled at the
    /// same class *within* an epoch is indistinguishable from a bridged
    /// occlusion and re-binds to the old generation.
    ///
    /// The ended generation keeps its class entry and its alias translation
    /// (its states may still be live inside the window); both are reclaimed
    /// by [`retire`](Self::retire) once the interner reports the id dead at
    /// a compaction epoch.
    pub fn end_tracks(&mut self, ends: &[ObjectId]) {
        // Negative-control mutant: reintroduces the pre-PR-5 blind spot
        // where end-of-track events were ignored, so a same-class recycle
        // splices into the ended generation. Exists solely so the model
        // checker's mutant suite can prove it *catches* this class of bug;
        // never enabled by production or tier-1 builds. Runtime-toggled
        // (armed by default) so other mutants in the same test binary can
        // disarm it — its depth-2 counterexample shadows theirs otherwise.
        #[cfg(feature = "check-mutants")]
        if crate::mutants::end_tracks_noop() {
            return;
        }
        for external in ends {
            if self.live.remove(external).is_some() {
                self.tracks_ended += 1;
            }
        }
    }

    /// Applies a compaction epoch's retire set: every listed internal id
    /// drops its class entry and its binding/alias entries. Ids this
    /// lifecycle never registered are skipped (robustness).
    pub fn retire(&mut self, retired: &[ObjectId]) {
        if retired.is_empty() {
            return;
        }
        let mut store = self.store.write().unwrap_or_else(PoisonError::into_inner);
        for &internal in retired {
            if !store.release(internal) {
                continue;
            }
            let external = self.aliases.remove(&internal).unwrap_or(internal);
            if self
                .live
                .get(&external)
                .is_some_and(|binding| binding.internal == internal)
            {
                self.live.remove(&external);
            }
            self.retired_total += 1;
        }
    }

    /// Translates an internal identifier back to the external (tracker)
    /// identifier it stands for. Identity for non-alias ids.
    #[inline]
    pub fn external_of(&self, internal: ObjectId) -> ObjectId {
        if self.aliases.is_empty() {
            return internal;
        }
        self.aliases.get(&internal).copied().unwrap_or(internal)
    }

    /// Whether any live binding uses an alias internal id (i.e. whether
    /// result translation can be skipped).
    pub fn has_aliases(&self) -> bool {
        !self.aliases.is_empty()
    }

    /// The current binding of an external identifier, if live.
    pub fn binding_of(&self, external: ObjectId) -> Option<LiveBinding> {
        self.live.get(&external).copied()
    }

    /// Internal ids currently tracked (each holds one class entry).
    pub fn tracked_objects(&self) -> usize {
        self.read_store().len()
    }

    /// The tracked internal ids with their classes, sorted by id: what
    /// [`encode`](Self::encode) persists and the model checker replays.
    pub fn registrations(&self) -> Vec<(ObjectId, ClassId)> {
        let mut entries: Vec<(ObjectId, ClassId)> = self
            .read_store()
            .classes()
            .iter()
            .map(|(&id, &class)| (id, class))
            .collect();
        entries.sort_unstable();
        entries
    }

    /// The live alias translations as sorted `(alias internal, external)`
    /// pairs. Introspection hook for the model checker: alias entries must
    /// appear exactly when a reuse generation is still tracked and vanish
    /// at its retirement.
    pub fn alias_entries(&self) -> Vec<(ObjectId, ObjectId)> {
        let mut entries: Vec<(ObjectId, ObjectId)> = self
            .aliases
            .iter()
            .map(|(&alias, &external)| (alias, external))
            .collect();
        entries.sort_unstable();
        entries
    }

    /// Appends the lifecycle's persistent state, every list sorted by its
    /// key: live bindings by external id, registrations (the class store)
    /// by internal id, alias translations by alias, then the alias cursor
    /// and the three monotone counters.
    pub fn encode(&self, enc: &mut Encoder) {
        let mut live: Vec<(ObjectId, LiveBinding)> = self
            .live
            .iter()
            .map(|(&external, &binding)| (external, binding))
            .collect();
        live.sort_unstable_by_key(|&(external, _)| external);
        enc.put_usize(live.len());
        for (external, binding) in live {
            enc.put_u32(external.raw());
            enc.put_u32(binding.internal.raw());
            enc.put_u16(binding.class.raw());
            enc.put_u64(binding.generation);
        }
        let registrations = self.registrations();
        enc.put_usize(registrations.len());
        for (id, class) in registrations {
            enc.put_u32(id.raw());
            enc.put_u16(class.raw());
        }
        let aliases = self.alias_entries();
        enc.put_usize(aliases.len());
        for (alias, external) in aliases {
            enc.put_u32(alias.raw());
            enc.put_u32(external.raw());
        }
        enc.put_u32(self.next_alias);
        enc.put_u64(self.next_generation);
        enc.put_u64(self.retired_total);
        enc.put_u64(self.tracks_ended);
    }

    /// Reads a lifecycle written by [`encode`](Self::encode), with a fresh
    /// class store holding the persisted registrations. A list whose keys
    /// do not strictly increase is corrupt: the encoder sorts them, and
    /// collecting a repeat into a map would silently keep the last entry.
    /// The counters are restored exactly — `next_generation` is the
    /// engine-wide monotone generation source, so resetting it would hand a
    /// recovered binding a generation some pre-crash binding already
    /// carries.
    pub fn decode(dec: &mut Decoder<'_>) -> Result<ObjectLifecycle> {
        let store = shared_class_store();
        let mut lifecycle = ObjectLifecycle::new(Arc::clone(&store));
        let mut previous = None;
        for _ in 0..dec.take_len()? {
            let external = increasing("live binding", &mut previous, ObjectId(dec.take_u32()?))?;
            let binding = LiveBinding {
                internal: ObjectId(dec.take_u32()?),
                class: ClassId(dec.take_u16()?),
                generation: dec.take_u64()?,
            };
            lifecycle.live.insert(external, binding);
        }
        let mut classes = store.write().unwrap_or_else(PoisonError::into_inner);
        let mut previous = None;
        for _ in 0..dec.take_len()? {
            let id = increasing("registered id", &mut previous, ObjectId(dec.take_u32()?))?;
            classes.register(id, ClassId(dec.take_u16()?));
        }
        drop(classes);
        let mut previous = None;
        for _ in 0..dec.take_len()? {
            let alias = increasing("alias", &mut previous, ObjectId(dec.take_u32()?))?;
            lifecycle.aliases.insert(alias, ObjectId(dec.take_u32()?));
        }
        lifecycle.next_alias = dec.take_u32()?;
        lifecycle.next_generation = dec.take_u64()?;
        lifecycle.retired_total = dec.take_u64()?;
        lifecycle.tracks_ended = dec.take_u64()?;
        Ok(lifecycle)
    }

    /// Internal ids retired so far (lifetime counter).
    pub fn retired_total(&self) -> u64 {
        self.retired_total
    }

    /// Track-end events applied so far (only ends that actually severed a
    /// live binding count; unknown ids are ignored).
    pub fn tracks_ended(&self) -> u64 {
        self.tracks_ended
    }

    /// Generations started so far (first sights plus detected reuses).
    pub fn generations_started(&self) -> u64 {
        self.next_generation
    }

    /// Approximate bytes held by the lifecycle's own maps.
    pub fn bytes(&self) -> usize {
        self.live.capacity() * std::mem::size_of::<(ObjectId, LiveBinding, u64)>()
            + self.aliases.capacity() * std::mem::size_of::<(ObjectId, ObjectId, u64)>()
    }

    /// The class store, read-locked (a poisoned lock holds usable data).
    fn read_store(&self) -> RwLockReadGuard<'_, ClassStore> {
        self.store.read().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Accepts `key` as the next entry of the decoded `list` only when it is
/// greater than the `previous` one.
fn increasing(list: &str, previous: &mut Option<ObjectId>, key: ObjectId) -> Result<ObjectId> {
    if previous.replace(key) >= Some(key) {
        return Err(Error::Corrupt(format!(
            "{list} list is out of order or repeats {key}"
        )));
    }
    Ok(key)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lifecycle() -> ObjectLifecycle {
        ObjectLifecycle::new(shared_class_store())
    }

    fn relevant(classes: &[u16]) -> FxHashSet<ClassId> {
        classes.iter().map(|&c| ClassId(c)).collect()
    }

    fn resolve(lc: &mut ObjectLifecycle, detections: &[(u32, u16)]) -> Vec<ObjectId> {
        let detections: Vec<(ObjectId, ClassId)> = detections
            .iter()
            .map(|&(id, c)| (ObjectId(id), ClassId(c)))
            .collect();
        let mut out = Vec::new();
        lc.resolve_frame(&detections, &relevant(&[0, 1]), &mut out);
        out
    }

    fn class_of(lc: &ObjectLifecycle, id: ObjectId) -> Option<ClassId> {
        lc.store().read().unwrap().class_of(id)
    }

    #[test]
    fn first_generation_binds_to_itself() {
        let mut lc = lifecycle();
        assert_eq!(
            resolve(&mut lc, &[(5, 1), (7, 0)]),
            vec![ObjectId(5), ObjectId(7)]
        );
        assert_eq!(lc.tracked_objects(), 2);
        assert_eq!(lc.generations_started(), 2);
        assert!(!lc.has_aliases());
        // Steady state: same ids, same classes — no new generations.
        assert_eq!(
            resolve(&mut lc, &[(5, 1), (7, 0)]),
            vec![ObjectId(5), ObjectId(7)]
        );
        assert_eq!(lc.generations_started(), 2);
        assert_eq!(class_of(&lc, ObjectId(5)), Some(ClassId(1)));
    }

    #[test]
    fn irrelevant_classes_are_skipped() {
        let mut lc = lifecycle();
        let detections = vec![(ObjectId(1), ClassId(9))];
        let mut out = Vec::new();
        lc.resolve_frame(&detections, &relevant(&[0, 1]), &mut out);
        assert!(out.is_empty());
        assert_eq!(lc.tracked_objects(), 0);
    }

    #[test]
    fn class_change_mints_an_alias_and_a_new_generation() {
        let mut lc = lifecycle();
        assert_eq!(resolve(&mut lc, &[(5, 1)]), vec![ObjectId(5)]);
        // Tracker reuses id 5 for a person: a new object behind a fresh
        // internal id, while the old registration stays until retirement.
        let reuse = resolve(&mut lc, &[(5, 0)]);
        assert_eq!(reuse.len(), 1);
        let alias = reuse[0];
        assert_ne!(alias, ObjectId(5));
        assert!(lc.has_aliases());
        assert_eq!(lc.external_of(alias), ObjectId(5));
        assert_eq!(lc.tracked_objects(), 2, "old + new generation");
        assert_eq!(lc.generations_started(), 2);
        assert_eq!(lc.binding_of(ObjectId(5)).unwrap().internal, alias);
        assert_eq!(lc.binding_of(ObjectId(5)).unwrap().class, ClassId(0));
        assert_eq!(
            class_of(&lc, ObjectId(5)),
            Some(ClassId(1)),
            "old class intact"
        );
        assert_eq!(class_of(&lc, alias), Some(ClassId(0)));
        // Stable: the alias binding answers the fast path from now on.
        assert_eq!(resolve(&mut lc, &[(5, 0)]), vec![alias]);
        assert_eq!(lc.generations_started(), 2);
    }

    #[test]
    fn retirement_unbinds_and_releases() {
        let mut lc = lifecycle();
        resolve(&mut lc, &[(5, 1)]);
        lc.retire(&[ObjectId(5)]);
        assert_eq!(lc.tracked_objects(), 0);
        assert_eq!(lc.retired_total(), 1);
        assert!(lc.binding_of(ObjectId(5)).is_none());
        assert!(lc.store().read().unwrap().is_empty());
        // Reappearance after retirement: a new generation, rebound to the
        // (now unregistered) external id — even with a different class.
        assert_eq!(resolve(&mut lc, &[(5, 0)]), vec![ObjectId(5)]);
        assert_eq!(lc.generations_started(), 2);
        assert_eq!(
            class_of(&lc, ObjectId(5)),
            Some(ClassId(0)),
            "fresh class re-resolved, not the stale one"
        );
    }

    #[test]
    fn retiring_an_alias_keeps_the_original_binding_rules() {
        let mut lc = lifecycle();
        resolve(&mut lc, &[(5, 1)]); // gen 0: internal 5
        let alias = resolve(&mut lc, &[(5, 0)])[0]; // gen 1: alias
                                                    // The alias generation retires; internal 5 is still registered.
        lc.retire(&[alias]);
        assert!(!lc.has_aliases());
        assert!(lc.binding_of(ObjectId(5)).is_none());
        // Id 5 reappears as a car again: internal 5 is *still registered*
        // (gen 0 lives), so a fresh alias is minted rather than splicing
        // into gen 0.
        let again = resolve(&mut lc, &[(5, 1)]);
        assert_ne!(again[0], ObjectId(5));
        assert_ne!(again[0], alias, "the cursor moved past the retired alias");
        // Once gen 0 retires too, the external id is free to re-bind.
        lc.retire(&[ObjectId(5), again[0]]);
        assert_eq!(resolve(&mut lc, &[(5, 1)]), vec![ObjectId(5)]);
    }

    #[test]
    fn ended_track_rebinds_same_class_reappearance_to_a_new_generation() {
        let mut lc = lifecycle();
        assert_eq!(resolve(&mut lc, &[(5, 1)]), vec![ObjectId(5)]);
        lc.end_tracks(&[ObjectId(5)]);
        assert_eq!(lc.tracks_ended(), 1);
        assert!(lc.binding_of(ObjectId(5)).is_none());
        // The ended generation's class entry survives until epoch
        // retirement — its states may still be live inside the window.
        assert_eq!(lc.tracked_objects(), 1);
        assert_eq!(class_of(&lc, ObjectId(5)), Some(ClassId(1)));
        // Id 5 recycled for a *same-class* newcomer: without the end event
        // this would be indistinguishable from a bridged occlusion and
        // splice into gen 0; with it, a fresh alias generation starts.
        let again = resolve(&mut lc, &[(5, 1)]);
        assert_ne!(again[0], ObjectId(5));
        assert_eq!(lc.external_of(again[0]), ObjectId(5));
        assert_eq!(lc.generations_started(), 2);
        assert_eq!(lc.tracked_objects(), 2, "old + new generation");
        // Once both generations retire, the external id is free again.
        lc.retire(&[ObjectId(5), again[0]]);
        assert_eq!(resolve(&mut lc, &[(5, 1)]), vec![ObjectId(5)]);
    }

    #[test]
    fn end_tracks_ignores_unknown_ids() {
        let mut lc = lifecycle();
        resolve(&mut lc, &[(1, 0)]);
        lc.end_tracks(&[]);
        lc.end_tracks(&[ObjectId(99)]);
        assert_eq!(lc.tracks_ended(), 0);
        assert!(lc.binding_of(ObjectId(1)).is_some());
        // Double-ending is idempotent: the second event finds no binding.
        lc.end_tracks(&[ObjectId(1)]);
        lc.end_tracks(&[ObjectId(1)]);
        assert_eq!(lc.tracks_ended(), 1);
    }

    #[test]
    fn retire_ignores_foreign_ids_and_empty_sets() {
        let mut lc = lifecycle();
        resolve(&mut lc, &[(1, 0)]);
        lc.retire(&[]);
        lc.retire(&[ObjectId(99)]);
        assert_eq!(lc.retired_total(), 0);
        assert_eq!(lc.tracked_objects(), 1);
        assert!(lc.bytes() > 0);
    }

    #[test]
    fn mint_alias_skips_live_identifiers() {
        // A tracker id at the very top of the id space is registered; when
        // it changes class, the alias minted for the newcomer must not be
        // the id itself.
        let mut lc = lifecycle();
        assert_eq!(resolve(&mut lc, &[(u32::MAX, 0)]), vec![ObjectId(u32::MAX)]);
        let alias = resolve(&mut lc, &[(u32::MAX, 1)])[0];
        assert_eq!(alias, ObjectId(u32::MAX - 1));
        assert_eq!(class_of(&lc, ObjectId(u32::MAX)), Some(ClassId(0)));
        assert_eq!(class_of(&lc, alias), Some(ClassId(1)));
    }

    #[test]
    fn the_alias_cursor_wraps_instead_of_running_out() {
        // A cursor at the bottom of the range (a restored snapshot may hold
        // any value) skips the registered id 0 and wraps to the top.
        let mut lc = lifecycle();
        lc.next_alias = 0;
        resolve(&mut lc, &[(0, 0)]);
        let alias = resolve(&mut lc, &[(0, 1)])[0];
        assert_eq!(alias, ObjectId(u32::MAX));
        assert_eq!(lc.external_of(alias), ObjectId(0));
        assert_eq!(lc.next_alias, u32::MAX - 1);
    }
}
