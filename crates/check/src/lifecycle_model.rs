//! Canonical model of one feed's tracker-id lifecycle / class store /
//! interner-universe protocol.
//!
//! The model mirrors, in a bounded universe (≤ [`EXT_IDS`] tracker ids,
//! ≤ [`CLASSES`] classes, a [`WINDOW`]-frame window), the exact rules
//! implemented by `ObjectLifecycle` + its `ClassStore` + `SetInterner`:
//!
//! * first sight binds an external id to itself; a class-changing
//!   reappearance, or any reappearance after the track ended, while the id
//!   is still registered mints a fresh **alias**;
//! * `end_tracks` severs the live binding but keeps the registration (the
//!   ended generation's states may still be live in the window);
//! * a compaction epoch retires every registered internal no window frame
//!   references, dropping its class entry and its binding/alias entries.
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
/// Frames in the window (what compaction keeps alive).
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

/// The canonical model state. All vectors are sorted (and alias labels
/// dense), so equal protocol situations compare equal. `Ord` is derived so
/// the symmetry reduction can pick the lexicographically minimal orbit
/// representative.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct LifecycleState {
    /// Live bindings, sorted by external id: `(external, internal, class)`.
    pub bindings: Vec<(u8, Internal, u8)>,
    /// Alias translations, sorted by label: `(alias label, external)`.
    pub aliases: Vec<(u8, u8)>,
    /// The class store: registered internals with their class, sorted by
    /// internal. Mirrors the interner universe — the model asserts they
    /// never diverge, which is what makes retire sets total.
    pub registered: Vec<(Internal, u8)>,
    /// The last ≤ [`WINDOW`] frames, oldest first; `None` is a frame with
    /// no (relevant) detection.
    pub window: Vec<Option<Internal>>,
}

impl LifecycleState {
    fn binding_of(&self, ext: u8) -> Option<(Internal, u8)> {
        self.bindings
            .iter()
            .find(|(e, _, _)| *e == ext)
            .map(|&(_, internal, class)| (internal, class))
    }

    fn class_of(&self, id: Internal) -> Option<u8> {
        self.registered
            .iter()
            .find(|(registered, _)| *registered == id)
            .map(|&(_, class)| class)
    }

    fn push_frame(&mut self, frame: Option<Internal>) {
        self.window.push(frame);
        if self.window.len() > WINDOW {
            self.window.remove(0);
        }
    }

    /// The next working alias label (labels are dense, so it is the count
    /// of live aliases; robust against gaps anyway).
    fn next_alias_label(&self) -> u8 {
        self.live_alias_labels().last().map_or(0, |&k| k + 1)
    }

    /// Every alias label referenced anywhere in the state, sorted.
    fn live_alias_labels(&self) -> Vec<u8> {
        let mut labels: Vec<u8> = self.aliases.iter().map(|&(k, _)| k).collect();
        let internals = (self.bindings.iter().map(|&(_, id, _)| id))
            .chain(self.registered.iter().map(|&(id, _)| id))
            .chain(self.window.iter().flatten().copied());
        for id in internals {
            if let Internal::Alias(k) = id {
                labels.push(k);
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
        let label = |k: u8| {
            labels
                .binary_search(&k)
                .expect("live label was just collected") as u8
        };
        let relabel = |id: Internal| match id {
            Internal::Ext(e) => Internal::Ext(e),
            Internal::Alias(k) => Internal::Alias(label(k)),
        };
        for (_, internal, _) in &mut self.bindings {
            *internal = relabel(*internal);
        }
        for (k, _) in &mut self.aliases {
            *k = label(*k);
        }
        for (id, _) in &mut self.registered {
            *id = relabel(*id);
        }
        for frame in self.window.iter_mut().flatten() {
            *frame = relabel(*frame);
        }
    }
}

/// One protocol step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LifecycleAction {
    /// One frame with a single detection `(ext, class)`.
    Observe {
        /// The external (tracker) identifier detected.
        ext: u8,
        /// The detection's class.
        class: u8,
    },
    /// One frame with no detection, carrying an end-of-track event for
    /// `ext` (the tracker may or may not have a live binding).
    EndTrack {
        /// The external identifier whose track ended.
        ext: u8,
    },
    /// A compaction epoch: every registered internal outside the window
    /// retires.
    Compact,
}

/// One element of the lifecycle model's symmetry group: swapping the two
/// class labels or not. The swap is a bijection on reachable states that
/// commutes with every transition (classes are only compared for equality,
/// and alias mint-order labels are class-blind), and the invariant
/// quantifies uniformly over classes, so the quotient exploration is sound.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct LifecycleSym {
    /// Exchange the two class labels.
    pub swap_classes: bool,
}

// The swap below is only an involution (and the group only the full
// permutation group) for exactly two classes.
const _: () = assert!(CLASSES == 2, "swap symmetry assumes 2 classes");

impl LifecycleSym {
    /// The whole group, identity first — orbit-minimum ties resolve to the
    /// earliest element, keeping `reduce` deterministic.
    pub const ALL: [LifecycleSym; 2] = [
        LifecycleSym {
            swap_classes: false,
        },
        LifecycleSym { swap_classes: true },
    ];

    /// The image of a class label.
    pub fn class(self, class: u8) -> u8 {
        if self.swap_classes {
            1 - class
        } else {
            class
        }
    }

    /// Applies this element to a state. Every sorted vector stays sorted:
    /// bindings are keyed by (unique) external id and registrations by
    /// (unique) internal id, and a class swap touches neither key.
    pub fn apply(self, state: &LifecycleState) -> LifecycleState {
        let mut next = state.clone();
        for (_, _, class) in &mut next.bindings {
            *class = self.class(*class);
        }
        for (_, class) in &mut next.registered {
            *class = self.class(*class);
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
    pub fn observe_is_new_generation(state: &LifecycleState, ext: u8, class: u8) -> bool {
        !matches!(state.binding_of(ext), Some((_, held)) if held == class)
    }

    fn observe(&self, state: &LifecycleState, ext: u8, class: u8) -> LifecycleState {
        let mut next = state.clone();
        if let Some((internal, held)) = next.binding_of(ext) {
            if held == class {
                // Fast path: the binding answers; the window frame is the
                // only change.
                next.push_frame(Some(internal));
                return next;
            }
        }
        // Slow path, mirroring `ObjectLifecycle::resolve_frame`: the
        // external id itself is reusable only if it is not still
        // registered.
        let internal = if next.class_of(Internal::Ext(ext)).is_some() {
            let label = next.next_alias_label();
            next.aliases.push((label, ext));
            next.aliases.sort_unstable();
            Internal::Alias(label)
        } else {
            Internal::Ext(ext)
        };
        next.registered.push((internal, class));
        next.registered.sort_unstable();
        next.bindings.retain(|(e, _, _)| *e != ext);
        next.bindings.push((ext, internal, class));
        next.bindings.sort_unstable();
        next.push_frame(Some(internal));
        next.canonicalize();
        next
    }

    fn end_track(&self, state: &LifecycleState, ext: u8) -> LifecycleState {
        let mut next = state.clone();
        next.bindings.retain(|(e, _, _)| *e != ext);
        next.push_frame(None);
        // No alias or registration change: the ended generation stays
        // registered until epoch retirement.
        next
    }

    fn compact(&self, state: &LifecycleState) -> Result<LifecycleState, String> {
        let mut next = state.clone();
        let live: Vec<Internal> = next.window.iter().flatten().copied().collect();
        let retired: Vec<Internal> = (next.registered.iter())
            .map(|&(id, _)| id)
            .filter(|id| !live.contains(id))
            .collect();
        for id in retired {
            let external = match id {
                Internal::Ext(e) => e,
                Internal::Alias(k) => {
                    let index = next
                        .aliases
                        .iter()
                        .position(|(label, _)| *label == k)
                        .ok_or_else(|| format!("retired alias {k} has no translation entry"))?;
                    next.aliases.remove(index).1
                }
            };
            next.bindings
                .retain(|(e, internal, _)| *e != external || *internal != id);
            next.registered.retain(|(r, _)| *r != id);
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
        for ext in 0..EXT_IDS {
            for class in 0..CLASSES {
                out.push(LifecycleAction::Observe { ext, class });
            }
            out.push(LifecycleAction::EndTrack { ext });
        }
        out.push(LifecycleAction::Compact);
    }

    fn transition(
        &self,
        state: &LifecycleState,
        action: &LifecycleAction,
    ) -> Result<LifecycleState, String> {
        match *action {
            LifecycleAction::Observe { ext, class } => Ok(self.observe(state, ext, class)),
            LifecycleAction::EndTrack { ext } => Ok(self.end_track(state, ext)),
            LifecycleAction::Compact => self.compact(state),
        }
    }

    fn invariant(&self, state: &LifecycleState) -> Result<(), String> {
        // Bindings: internal registered under the binding's class,
        // self-binding for Ext, translated for Alias.
        for &(ext, internal, class) in &state.bindings {
            match state.class_of(internal) {
                None => return Err(format!("binds {ext} to unregistered {internal:?}")),
                Some(held) if held != class => {
                    return Err(format!(
                        "binding {ext}->{internal:?} class {class} disagrees with the \
                         registered class {held} (stale class)"
                    ));
                }
                Some(_) => {}
            }
            match internal {
                Internal::Ext(e) if e != ext => {
                    return Err(format!("binds {ext} to foreign external {internal:?}"));
                }
                Internal::Alias(k) => {
                    let translated = state
                        .aliases
                        .iter()
                        .find(|(label, _)| *label == k)
                        .map(|&(_, e)| e);
                    if translated != Some(ext) {
                        return Err(format!(
                            "alias {k} translates to {translated:?}, bound to {ext}"
                        ));
                    }
                }
                Internal::Ext(_) => {}
            }
        }
        // Distinct bindings use distinct internals (one generation per
        // internal id).
        for (i, &(_, a, _)) in state.bindings.iter().enumerate() {
            if state.bindings[i + 1..].iter().any(|&(_, b, _)| a == b) {
                return Err(format!("binds two externals to {a:?}"));
            }
        }
        // Alias translations only exist while the alias is registered.
        for &(k, _) in &state.aliases {
            if state.class_of(Internal::Alias(k)).is_none() {
                return Err(format!("keeps a translation for retired alias {k}"));
            }
        }
        // Window frames only reference registered internals (a frame
        // referencing a retired id is exactly the stale-handle bug).
        for frame in state.window.iter().flatten() {
            if state.class_of(*frame).is_none() {
                return Err(format!(
                    "window references retired {frame:?} (stale handle)"
                ));
            }
        }
        if state.window.len() > WINDOW {
            return Err(format!("window overflowed: {:?}", state.window));
        }
        Ok(())
    }

    fn reduce(&self, state: LifecycleState) -> (LifecycleState, LifecycleSym) {
        // The swap is self-inverse, so the element minimizing `h(state)` is
        // also the one mapping the representative back to `state`.
        let swapped = LifecycleSym::ALL[1].apply(&state);
        if swapped < state {
            (swapped, LifecycleSym::ALL[1])
        } else {
            (state, LifecycleSym::ALL[0])
        }
    }

    fn sym_compose(&self, a: &LifecycleSym, b: &LifecycleSym) -> LifecycleSym {
        LifecycleSym {
            swap_classes: a.swap_classes != b.swap_classes,
        }
    }

    fn sym_action(&self, g: &LifecycleSym, action: &LifecycleAction) -> LifecycleAction {
        match *action {
            LifecycleAction::Observe { ext, class } => LifecycleAction::Observe {
                ext,
                class: g.class(class),
            },
            other => other,
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

    fn observe(ext: u8, class: u8) -> LifecycleAction {
        LifecycleAction::Observe { ext, class }
    }

    #[test]
    fn first_sight_binds_to_itself() {
        let state = apply(&LifecycleModel, &[observe(1, 0)]);
        assert_eq!(state.bindings, vec![(1, Internal::Ext(1), 0)]);
        assert_eq!(state.registered, vec![(Internal::Ext(1), 0)]);
        assert_eq!(state.window, vec![Some(Internal::Ext(1))]);
    }

    #[test]
    fn class_change_mints_an_alias_and_keeps_the_old_registration() {
        let state = apply(&LifecycleModel, &[observe(1, 0), observe(1, 1)]);
        assert_eq!(state.bindings, vec![(1, Internal::Alias(0), 1)]);
        assert_eq!(state.aliases, vec![(0, 1)]);
        assert_eq!(
            state.registered,
            vec![(Internal::Ext(1), 0), (Internal::Alias(0), 1)]
        );
    }

    #[test]
    fn compaction_retires_out_of_window_generations_and_relabels() {
        // Mint two aliases on ext 1 (class flip-flop), slide the first out
        // of the window, compact: the older alias retires and the younger
        // is relabelled back to 0.
        let state = apply(
            &LifecycleModel,
            &[
                observe(1, 0),
                observe(1, 1),
                observe(1, 0),
                observe(1, 0),
                LifecycleAction::Compact,
            ],
        );
        // Ext(1) (gen 0) and Alias(0) (gen 1) both left the window; the
        // second alias (gen 2) survives and is relabelled to 0.
        assert_eq!(state.registered, vec![(Internal::Alias(0), 0)]);
        assert_eq!(state.aliases, vec![(0, 1)]);
        assert_eq!(state.bindings, vec![(1, Internal::Alias(0), 0)]);
    }

    #[test]
    fn end_track_severs_the_binding_but_keeps_the_registration() {
        let end = LifecycleAction::EndTrack { ext: 1 };
        let state = apply(&LifecycleModel, &[observe(1, 0), end]);
        assert!(state.bindings.is_empty());
        assert_eq!(state.registered, vec![(Internal::Ext(1), 0)]);
        // Same-class reappearance now mints an alias (new generation).
        let state = apply(&LifecycleModel, &[observe(1, 0), end, observe(1, 0)]);
        assert_eq!(state.bindings, vec![(1, Internal::Alias(0), 0)]);
        assert_eq!(state.registered.len(), 2);
    }
}
