//! Canonical model of the tracker-id lifecycle / shared class store /
//! interner-universe protocol across two feeds.
//!
//! The model mirrors, in a bounded universe (≤ [`EXT_IDS`] tracker ids,
//! ≤ [`CLASSES`] classes, [`FEEDS`] feeds sharing one class store, a
//! [`WINDOW`]-frame window per feed), the exact rules implemented by
//! `ObjectLifecycle` + `ClassStore` + `SetInterner`:
//!
//! * first sight binds an external id to itself; a class-changing or
//!   otherwise conflicting reappearance mints a store-owned **alias**;
//! * `end_tracks` severs the live binding but keeps the registration (the
//!   ended generation's states may still be live in the window);
//! * a compaction epoch retires every registered internal no window frame
//!   references, releasing its store reference and its binding/alias
//!   entries;
//! * the store is reference counted and first-writer-wins per live entry.
//!
//! **Canonicalisation.** Two quantities are unbounded along a run and are
//! normalised out of the state so that the traversal's dedup works:
//! generation numbers (dropped — their monotonicity is verified by the
//! conformance replay, which sees the concrete run) and absolute alias
//! values (relabelled densely in mint order: the `k`-th oldest live alias
//! is [`Internal::Alias`]`(k)`). Both normalisations are sound because
//! neither quantity influences any transition, only observations.

use crate::machine::Machine;

/// External (tracker) identifiers range over `0..EXT_IDS`.
pub const EXT_IDS: u8 = 3;
/// Classes range over `0..CLASSES`.
pub const CLASSES: u8 = 2;
/// Number of feeds sharing one class store.
pub const FEEDS: usize = 2;
/// Frames per feed window (what compaction keeps alive).
pub const WINDOW: usize = 2;

/// A model-level internal identifier: either an external id bound to
/// itself, or the `k`-th oldest live alias (canonical mint-order label).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Internal {
    /// First-generation binding: internal == external.
    Ext(u8),
    /// Reuse generation behind the `k`-th oldest live alias.
    Alias(u8),
}

/// Per-feed model state. All vectors are sorted (and alias labels dense),
/// so equal protocol situations compare equal. `Ord` is derived so the
/// symmetry reduction can pick the lexicographically minimal orbit
/// representative.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct FeedState {
    /// Live bindings, sorted by external id: `(external, internal, class)`.
    pub bindings: Vec<(u8, Internal, u8)>,
    /// Alias translations, sorted by label: `(alias label, external)`.
    pub aliases: Vec<(u8, u8)>,
    /// Registered internals (each holds one store reference), sorted.
    /// Mirrors the interner universe — the model asserts they never
    /// diverge, which is what makes retire sets total.
    pub registered: Vec<Internal>,
    /// The last ≤ [`WINDOW`] frames, oldest first; `None` is a frame with
    /// no (relevant) detection.
    pub window: Vec<Option<Internal>>,
}

impl FeedState {
    fn binding_of(&self, ext: u8) -> Option<(Internal, u8)> {
        self.bindings
            .iter()
            .find(|(e, _, _)| *e == ext)
            .map(|&(_, internal, class)| (internal, class))
    }

    fn push_frame(&mut self, frame: Option<Internal>) {
        self.window.push(frame);
        if self.window.len() > WINDOW {
            self.window.remove(0);
        }
    }

    fn is_registered(&self, id: Internal) -> bool {
        self.registered.binary_search(&id).is_ok()
    }
}

/// The whole canonical model state: the shared store plus each feed.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LifecycleState {
    /// Shared class store, sorted by internal id: `(id, class, refs)`.
    pub store: Vec<(Internal, u8, u8)>,
    /// Per-feed state.
    pub feeds: [FeedState; FEEDS],
}

impl LifecycleState {
    fn store_class(&self, id: Internal) -> Option<u8> {
        self.store
            .iter()
            .find(|(sid, _, _)| *sid == id)
            .map(|&(_, class, _)| class)
    }

    /// Mirrors `ClassStore::register`: refs +1, first writer wins on the
    /// class. Returns the class the entry actually holds.
    fn store_register(&mut self, id: Internal, class: u8) -> u8 {
        match self.store.iter_mut().find(|(sid, _, _)| *sid == id) {
            Some((_, held, refs)) => {
                *refs += 1;
                *held
            }
            None => {
                self.store.push((id, class, 1));
                self.store.sort_unstable();
                class
            }
        }
    }

    /// Mirrors `ClassStore::release`: refs -1, evict at zero. Releasing an
    /// absent entry is a protocol violation at model level (the real store
    /// tolerates it, but the lifecycle must never do it).
    fn store_release(&mut self, id: Internal) -> Result<(), String> {
        let index = self
            .store
            .iter()
            .position(|(sid, _, _)| *sid == id)
            .ok_or_else(|| format!("released {id:?}, which holds no store entry"))?;
        let (_, _, refs) = &mut self.store[index];
        *refs -= 1;
        if *refs == 0 {
            self.store.remove(index);
        }
        Ok(())
    }

    /// The next working alias label (labels are dense, so it is the count
    /// of live aliases; robust against gaps anyway).
    fn next_alias_label(&self) -> u8 {
        self.live_alias_labels().last().map_or(0, |&k| k + 1)
    }

    /// Every alias label referenced anywhere in the state, sorted.
    fn live_alias_labels(&self) -> Vec<u8> {
        fn note(labels: &mut Vec<u8>, id: &Internal) {
            if let Internal::Alias(k) = id {
                labels.push(*k);
            }
        }
        let mut labels = Vec::new();
        for (id, _, _) in &self.store {
            note(&mut labels, id);
        }
        for feed in &self.feeds {
            for (_, internal, _) in &feed.bindings {
                note(&mut labels, internal);
            }
            for (k, _) in &feed.aliases {
                labels.push(*k);
            }
            for id in &feed.registered {
                note(&mut labels, id);
            }
            for frame in feed.window.iter().flatten() {
                note(&mut labels, frame);
            }
        }
        labels.sort_unstable();
        labels.dedup();
        labels
    }

    /// Relabels live aliases densely (0..n) in mint order. The relabel map
    /// is monotone, so every sorted vector stays sorted.
    fn canonicalize(&mut self) {
        let labels = self.live_alias_labels();
        if labels.iter().copied().eq(0..labels.len() as u8) {
            return;
        }
        let relabel = |id: Internal| match id {
            Internal::Ext(e) => Internal::Ext(e),
            Internal::Alias(k) => Internal::Alias(
                labels
                    .binary_search(&k)
                    .expect("live label was just collected") as u8,
            ),
        };
        for (id, _, _) in &mut self.store {
            *id = relabel(*id);
        }
        for feed in &mut self.feeds {
            for (_, internal, _) in &mut feed.bindings {
                *internal = relabel(*internal);
            }
            for (k, _) in &mut feed.aliases {
                *k = labels
                    .binary_search(k)
                    .expect("live label was just collected") as u8;
            }
            for id in &mut feed.registered {
                *id = relabel(*id);
            }
            for frame in feed.window.iter_mut().flatten() {
                *frame = relabel(*frame);
            }
        }
    }
}

/// One protocol step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LifecycleAction {
    /// One frame on `feed` with a single detection `(ext, class)`.
    Observe {
        /// The observing feed.
        feed: u8,
        /// The external (tracker) identifier detected.
        ext: u8,
        /// The detection's class.
        class: u8,
    },
    /// One frame on `feed` with no detection, carrying an end-of-track
    /// event for `ext` (the tracker may or may not have a live binding).
    EndTrack {
        /// The feed whose tracker ended the track.
        feed: u8,
        /// The external identifier whose track ended.
        ext: u8,
    },
    /// A compaction epoch on `feed`: every registered internal outside the
    /// window retires.
    Compact {
        /// The compacting feed.
        feed: u8,
    },
}

/// One element of the lifecycle model's symmetry group: the Klein
/// four-group generated by swapping the two feed ids and swapping the two
/// class labels. Both generators are bijections on reachable states that
/// commute with every transition (no rule distinguishes feed 0 from feed 1
/// or class 0 from class 1 — classes are only compared for equality, and
/// alias mint-order labels are feed- and class-blind), and the invariant
/// quantifies uniformly over feeds and classes, so the quotient
/// exploration is sound.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct LifecycleSym {
    /// Exchange the two feeds.
    pub swap_feeds: bool,
    /// Exchange the two class labels.
    pub swap_classes: bool,
}

// The swaps below are only involutions (and the group only covers the full
// permutation groups) for exactly two feeds and two classes.
const _: () = assert!(
    FEEDS == 2 && CLASSES == 2,
    "swap symmetry assumes 2 feeds and 2 classes"
);

impl LifecycleSym {
    /// The whole group in a fixed order, identity first — orbit-minimum
    /// ties resolve to the earliest element, keeping `reduce` deterministic.
    pub const ALL: [LifecycleSym; 4] = [
        LifecycleSym {
            swap_feeds: false,
            swap_classes: false,
        },
        LifecycleSym {
            swap_feeds: false,
            swap_classes: true,
        },
        LifecycleSym {
            swap_feeds: true,
            swap_classes: false,
        },
        LifecycleSym {
            swap_feeds: true,
            swap_classes: true,
        },
    ];

    /// The image of a feed id.
    pub fn feed(self, feed: u8) -> u8 {
        if self.swap_feeds {
            1 - feed
        } else {
            feed
        }
    }

    /// The image of a class label.
    pub fn class(self, class: u8) -> u8 {
        if self.swap_classes {
            1 - class
        } else {
            class
        }
    }

    /// Applies this element to a state. Every sorted vector stays sorted:
    /// the store is keyed by (unique) internal id, bindings by (unique)
    /// external id, and neither key is touched by a feed or class swap.
    pub fn apply(self, state: &LifecycleState) -> LifecycleState {
        let mut next = state.clone();
        if self.swap_feeds {
            next.feeds.swap(0, 1);
        }
        if self.swap_classes {
            for (_, class, _) in &mut next.store {
                *class = 1 - *class;
            }
            for feed in &mut next.feeds {
                for (_, _, class) in &mut feed.bindings {
                    *class = 1 - *class;
                }
            }
        }
        next
    }
}

/// The machine over [`LifecycleState`] / [`LifecycleAction`].
#[derive(Debug, Default, Clone, Copy)]
pub struct LifecycleModel;

impl LifecycleModel {
    /// Whether this observation takes the slow path (binds a new
    /// generation) in `state`. Exposed so the conformance replay can tell
    /// when the real implementation must mint a generation.
    pub fn observe_is_new_generation(state: &LifecycleState, feed: u8, ext: u8, class: u8) -> bool {
        !matches!(
            state.feeds[feed as usize].binding_of(ext),
            Some((_, held)) if held == class
        )
    }

    fn observe(
        &self,
        state: &LifecycleState,
        feed: usize,
        ext: u8,
        class: u8,
    ) -> Result<LifecycleState, String> {
        let mut next = state.clone();
        if let Some((internal, held)) = next.feeds[feed].binding_of(ext) {
            if held == class {
                // Fast path: the binding answers; the window frame is the
                // only change.
                next.feeds[feed].push_frame(Some(internal));
                return Ok(next);
            }
        }
        // Slow path, mirroring `ObjectLifecycle::resolve_frame`: the
        // external id itself is reusable only if this feed does not still
        // register it and no store sharer holds it under another class.
        let taken = next.feeds[feed].is_registered(Internal::Ext(ext))
            || next
                .store_class(Internal::Ext(ext))
                .is_some_and(|held| held != class);
        let internal = if taken {
            let label = next.next_alias_label();
            next.feeds[feed].aliases.push((label, ext));
            next.feeds[feed].aliases.sort_unstable();
            Internal::Alias(label)
        } else {
            Internal::Ext(ext)
        };
        let actual = next.store_register(internal, class);
        if actual != class {
            return Err(format!(
                "fresh registration of {internal:?} saw incumbent class {actual} != {class} \
                 (the newcomer must have been given a non-fresh internal id)"
            ));
        }
        if !next.feeds[feed].is_registered(internal) {
            next.feeds[feed].registered.push(internal);
            next.feeds[feed].registered.sort_unstable();
        } else {
            return Err(format!(
                "rebound {internal:?} while it is still registered (would splice generations)"
            ));
        }
        next.feeds[feed].bindings.retain(|(e, _, _)| *e != ext);
        next.feeds[feed].bindings.push((ext, internal, class));
        next.feeds[feed].bindings.sort_unstable();
        next.feeds[feed].push_frame(Some(internal));
        next.canonicalize();
        Ok(next)
    }

    fn end_track(&self, state: &LifecycleState, feed: usize, ext: u8) -> LifecycleState {
        let mut next = state.clone();
        next.feeds[feed].bindings.retain(|(e, _, _)| *e != ext);
        next.feeds[feed].push_frame(None);
        // No alias/registration/store change: the ended generation keeps
        // its references until epoch retirement.
        next
    }

    fn compact(&self, state: &LifecycleState, feed: usize) -> Result<LifecycleState, String> {
        let mut next = state.clone();
        let live: Vec<Internal> = next.feeds[feed].window.iter().flatten().copied().collect();
        let retired: Vec<Internal> = next.feeds[feed]
            .registered
            .iter()
            .copied()
            .filter(|id| !live.contains(id))
            .collect();
        for id in retired {
            next.store_release(id)?;
            let external = match id {
                Internal::Ext(e) => e,
                Internal::Alias(k) => {
                    let index = next.feeds[feed]
                        .aliases
                        .iter()
                        .position(|(label, _)| *label == k)
                        .ok_or_else(|| {
                            format!("retired alias {k} has no translation entry on feed {feed}")
                        })?;
                    next.feeds[feed].aliases.remove(index).1
                }
            };
            next.feeds[feed]
                .bindings
                .retain(|(e, internal, _)| *e != external || *internal != id);
            next.feeds[feed].registered.retain(|r| *r != id);
        }
        next.canonicalize();
        Ok(next)
    }
}

impl Machine for LifecycleModel {
    type State = LifecycleState;
    type Action = LifecycleAction;
    type Sym = LifecycleSym;

    fn initial(&self) -> LifecycleState {
        LifecycleState::default()
    }

    fn actions(&self, _state: &LifecycleState, out: &mut Vec<LifecycleAction>) {
        for feed in 0..FEEDS as u8 {
            for ext in 0..EXT_IDS {
                for class in 0..CLASSES {
                    out.push(LifecycleAction::Observe { feed, ext, class });
                }
                out.push(LifecycleAction::EndTrack { feed, ext });
            }
            out.push(LifecycleAction::Compact { feed });
        }
    }

    fn transition(
        &self,
        state: &LifecycleState,
        action: &LifecycleAction,
    ) -> Result<LifecycleState, String> {
        match *action {
            LifecycleAction::Observe { feed, ext, class } => {
                self.observe(state, feed as usize, ext, class)
            }
            LifecycleAction::EndTrack { feed, ext } => {
                Ok(self.end_track(state, feed as usize, ext))
            }
            LifecycleAction::Compact { feed } => self.compact(state, feed as usize),
        }
    }

    fn invariant(&self, state: &LifecycleState) -> Result<(), String> {
        // Store entries: refs equal the number of feeds registering the id,
        // never zero; alias entries are single-owner by construction.
        for &(id, _, refs) in &state.store {
            let held = state
                .feeds
                .iter()
                .filter(|feed| feed.is_registered(id))
                .count() as u8;
            if refs == 0 {
                return Err(format!(
                    "store entry {id:?} has zero refs but was not evicted"
                ));
            }
            if refs != held {
                return Err(format!(
                    "store entry {id:?} holds {refs} refs but {held} feeds register it \
                     (strand/double-free)"
                ));
            }
            if matches!(id, Internal::Alias(_)) && refs != 1 {
                return Err(format!("alias {id:?} is registered by {refs} feeds"));
            }
        }
        for (f, feed) in state.feeds.iter().enumerate() {
            // Every registered internal holds a store entry.
            for &id in &feed.registered {
                if state.store_class(id).is_none() {
                    return Err(format!(
                        "feed {f} registers {id:?} but the store has no entry (dangling ref)"
                    ));
                }
            }
            // Bindings: internal registered, class agrees with the store,
            // self-binding for Ext, translated for Alias.
            for &(ext, internal, class) in &feed.bindings {
                if !feed.is_registered(internal) {
                    return Err(format!("feed {f} binds {ext} to unregistered {internal:?}"));
                }
                if state.store_class(internal) != Some(class) {
                    return Err(format!(
                        "feed {f} binding {ext}->{internal:?} class {class} disagrees with \
                         store class {:?} (stale class)",
                        state.store_class(internal)
                    ));
                }
                match internal {
                    Internal::Ext(e) if e != ext => {
                        return Err(format!(
                            "feed {f} binds {ext} to foreign external {internal:?}"
                        ));
                    }
                    Internal::Alias(k) => {
                        let translated = feed
                            .aliases
                            .iter()
                            .find(|(label, _)| *label == k)
                            .map(|&(_, e)| e);
                        if translated != Some(ext) {
                            return Err(format!(
                                "feed {f} alias {k} translates to {translated:?}, bound to {ext}"
                            ));
                        }
                    }
                    Internal::Ext(_) => {}
                }
            }
            // Distinct bindings use distinct internals (one generation per
            // internal id).
            for (i, &(_, a, _)) in feed.bindings.iter().enumerate() {
                if feed.bindings[i + 1..].iter().any(|&(_, b, _)| a == b) {
                    return Err(format!("feed {f} binds two externals to {a:?}"));
                }
            }
            // Alias translations only exist while the alias is registered.
            for &(k, _) in &feed.aliases {
                if !feed.is_registered(Internal::Alias(k)) {
                    return Err(format!(
                        "feed {f} keeps a translation for retired alias {k}"
                    ));
                }
            }
            // Window frames only reference registered internals (a frame
            // referencing a retired id is exactly the stale-handle bug).
            for frame in feed.window.iter().flatten() {
                if !feed.is_registered(*frame) {
                    return Err(format!(
                        "feed {f} window references retired {frame:?} (stale handle)"
                    ));
                }
            }
            if feed.window.len() > WINDOW {
                return Err(format!("feed {f} window overflowed: {:?}", feed.window));
            }
        }
        Ok(())
    }

    fn reduce(&self, state: LifecycleState) -> (LifecycleState, LifecycleSym) {
        let mut best: Option<(LifecycleState, LifecycleSym)> = None;
        for h in LifecycleSym::ALL {
            let candidate = h.apply(&state);
            if best.as_ref().is_none_or(|(held, _)| candidate < *held) {
                best = Some((candidate, h));
            }
        }
        // Every element is self-inverse, so the `h` minimizing `h(state)`
        // is also the element mapping the representative back to `state`.
        best.expect("the group is non-empty")
    }

    fn sym_compose(&self, a: &LifecycleSym, b: &LifecycleSym) -> LifecycleSym {
        LifecycleSym {
            swap_feeds: a.swap_feeds != b.swap_feeds,
            swap_classes: a.swap_classes != b.swap_classes,
        }
    }

    fn sym_action(&self, g: &LifecycleSym, action: &LifecycleAction) -> LifecycleAction {
        match *action {
            LifecycleAction::Observe { feed, ext, class } => LifecycleAction::Observe {
                feed: g.feed(feed),
                ext,
                class: g.class(class),
            },
            LifecycleAction::EndTrack { feed, ext } => LifecycleAction::EndTrack {
                feed: g.feed(feed),
                ext,
            },
            LifecycleAction::Compact { feed } => LifecycleAction::Compact { feed: g.feed(feed) },
        }
    }

    fn sym_state(&self, g: &LifecycleSym, state: &LifecycleState) -> LifecycleState {
        g.apply(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn apply(model: &LifecycleModel, actions: &[LifecycleAction]) -> LifecycleState {
        let mut state = model.initial();
        for action in actions {
            state = model.transition(&state, action).expect("legal action");
            model.invariant(&state).expect("invariant holds");
        }
        state
    }

    #[test]
    fn first_sight_binds_to_itself() {
        let model = LifecycleModel;
        let state = apply(
            &model,
            &[LifecycleAction::Observe {
                feed: 0,
                ext: 1,
                class: 0,
            }],
        );
        assert_eq!(state.feeds[0].bindings, vec![(1, Internal::Ext(1), 0)]);
        assert_eq!(state.feeds[0].registered, vec![Internal::Ext(1)]);
        assert_eq!(state.store, vec![(Internal::Ext(1), 0, 1)]);
        assert_eq!(state.feeds[0].window, vec![Some(Internal::Ext(1))]);
    }

    #[test]
    fn class_change_mints_an_alias_and_keeps_the_old_registration() {
        let model = LifecycleModel;
        let state = apply(
            &model,
            &[
                LifecycleAction::Observe {
                    feed: 0,
                    ext: 1,
                    class: 0,
                },
                LifecycleAction::Observe {
                    feed: 0,
                    ext: 1,
                    class: 1,
                },
            ],
        );
        assert_eq!(state.feeds[0].bindings, vec![(1, Internal::Alias(0), 1)]);
        assert_eq!(state.feeds[0].aliases, vec![(0, 1)]);
        assert_eq!(
            state.store,
            vec![(Internal::Ext(1), 0, 1), (Internal::Alias(0), 1, 1)]
        );
    }

    #[test]
    fn compaction_retires_out_of_window_generations_and_relabels() {
        let model = LifecycleModel;
        // Mint two aliases on ext 1 (class flip-flop), slide the first out
        // of the window, compact: the older alias retires and the younger
        // is relabelled back to 0.
        let state = apply(
            &model,
            &[
                LifecycleAction::Observe {
                    feed: 0,
                    ext: 1,
                    class: 0,
                },
                LifecycleAction::Observe {
                    feed: 0,
                    ext: 1,
                    class: 1,
                },
                LifecycleAction::Observe {
                    feed: 0,
                    ext: 1,
                    class: 0,
                },
                LifecycleAction::Observe {
                    feed: 0,
                    ext: 1,
                    class: 0,
                },
                LifecycleAction::Compact { feed: 0 },
            ],
        );
        // Ext(1) (gen 0) and Alias(0) (gen 1) both left the window; the
        // second alias (gen 2) survives and is relabelled to 0.
        assert_eq!(state.feeds[0].registered, vec![Internal::Alias(0)]);
        assert_eq!(state.feeds[0].aliases, vec![(0, 1)]);
        assert_eq!(state.store, vec![(Internal::Alias(0), 0, 1)]);
        assert_eq!(state.feeds[0].bindings, vec![(1, Internal::Alias(0), 0)]);
    }

    #[test]
    fn shared_store_refcounts_across_feeds() {
        let model = LifecycleModel;
        let state = apply(
            &model,
            &[
                LifecycleAction::Observe {
                    feed: 0,
                    ext: 2,
                    class: 1,
                },
                LifecycleAction::Observe {
                    feed: 1,
                    ext: 2,
                    class: 1,
                },
            ],
        );
        assert_eq!(state.store, vec![(Internal::Ext(2), 1, 2)]);
        // One feed compacting (empty window overlap is impossible here —
        // the observation is in its window — so slide it out first).
        let state = apply(
            &model,
            &[
                LifecycleAction::Observe {
                    feed: 0,
                    ext: 2,
                    class: 1,
                },
                LifecycleAction::Observe {
                    feed: 1,
                    ext: 2,
                    class: 1,
                },
                LifecycleAction::EndTrack { feed: 0, ext: 2 },
                LifecycleAction::EndTrack { feed: 0, ext: 2 },
                LifecycleAction::Compact { feed: 0 },
            ],
        );
        assert_eq!(
            state.store,
            vec![(Internal::Ext(2), 1, 1)],
            "feed 1's reference keeps the entry"
        );
        assert!(state.feeds[0].registered.is_empty());
    }

    #[test]
    fn cross_feed_class_conflict_mints_an_alias() {
        let model = LifecycleModel;
        let state = apply(
            &model,
            &[
                LifecycleAction::Observe {
                    feed: 0,
                    ext: 0,
                    class: 0,
                },
                LifecycleAction::Observe {
                    feed: 1,
                    ext: 0,
                    class: 1,
                },
            ],
        );
        assert_eq!(state.feeds[1].bindings, vec![(0, Internal::Alias(0), 1)]);
        assert_eq!(
            state.store,
            vec![(Internal::Ext(0), 0, 1), (Internal::Alias(0), 1, 1)]
        );
    }

    #[test]
    fn end_track_severs_the_binding_but_keeps_the_registration() {
        let model = LifecycleModel;
        let state = apply(
            &model,
            &[
                LifecycleAction::Observe {
                    feed: 0,
                    ext: 1,
                    class: 0,
                },
                LifecycleAction::EndTrack { feed: 0, ext: 1 },
            ],
        );
        assert!(state.feeds[0].bindings.is_empty());
        assert_eq!(state.feeds[0].registered, vec![Internal::Ext(1)]);
        // Same-class reappearance now mints an alias (new generation).
        let state = apply(
            &model,
            &[
                LifecycleAction::Observe {
                    feed: 0,
                    ext: 1,
                    class: 0,
                },
                LifecycleAction::EndTrack { feed: 0, ext: 1 },
                LifecycleAction::Observe {
                    feed: 0,
                    ext: 1,
                    class: 0,
                },
            ],
        );
        assert_eq!(state.feeds[0].bindings, vec![(1, Internal::Alias(0), 0)]);
        assert_eq!(state.feeds[0].registered.len(), 2);
    }
}
