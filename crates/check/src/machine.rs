//! The [`Machine`] abstraction: a state-transition system the
//! [`Traversal`](crate::traversal::Traversal) can enumerate exhaustively.
//!
//! A machine is the *specification* half of the checker: it describes what
//! the protocol under test is supposed to do, in a state space small enough
//! to enumerate. The implementation half is supplied separately as a replay
//! hook (see [`conformance`](crate::conformance)), so the same model can be
//! traversed alone (fast, pure invariant checking) or in lock-step with the
//! real code (conformance checking).
//!
//! Beyond the four core methods, a machine may declare a **symmetry
//! group** ([`Machine::Sym`] + [`Machine::reduce`]): a group of state
//! bijections that commute with the transition relation and preserve the
//! invariant. The traversal then deduplicates on orbit representatives
//! (quotient exploration) and reconstructs *concrete* counterexample/replay
//! paths by relabelling actions through the accumulated group element, so
//! conformance replay still drives the real implementation with genuine
//! runs.

/// A finite state-transition system with per-state invariants.
///
/// `State` must be *canonical*: two states that should be considered the
/// same point in the protocol must compare equal, or the traversal's dedup
/// degenerates into path enumeration. Anything unbounded along a run —
/// monotone counters, absolute alias values, version numbers — must be
/// normalised out of `State` and verified by the conformance replay instead
/// (which sees the concrete run, not the canonical quotient).
pub trait Machine {
    /// Canonical model state.
    type State: Clone + Eq + std::hash::Hash + std::fmt::Debug;
    /// One protocol step.
    type Action: Clone + std::fmt::Debug;
    /// One element of the model's symmetry group.
    ///
    /// `Default::default()` must be the **identity** element. Models with
    /// only the trivial group use `()` and inherit every default method
    /// below; models declaring a nontrivial group (by overriding
    /// [`reduce`](Self::reduce)) **must** override [`sym_compose`],
    /// [`sym_action`] and [`sym_state`] as well — the defaults
    /// `debug_assert` that they are only ever handed identity elements.
    ///
    /// [`sym_compose`]: Self::sym_compose
    /// [`sym_action`]: Self::sym_action
    /// [`sym_state`]: Self::sym_state
    type Sym: Clone + PartialEq + Default + std::fmt::Debug;

    /// The initial state.
    fn initial(&self) -> Self::State;

    /// Enumerates every action applicable in `state`, appending to `out`
    /// (cleared by the caller). Actions must be enumerated
    /// deterministically so counterexample traces are reproducible.
    fn actions(&self, state: &Self::State, out: &mut Vec<Self::Action>);

    /// Applies one action, returning the successor state or a description
    /// of a *transition-level* violation (an operation the protocol forbids
    /// outright, e.g. retiring an alias that has no translation entry).
    fn transition(&self, state: &Self::State, action: &Self::Action)
        -> Result<Self::State, String>;

    /// Checks the per-state invariants, returning a description of the
    /// first violated one. Called on every state the traversal discovers,
    /// including the initial state. When the model declares a symmetry
    /// group, the invariant must be group-invariant (hold on a state iff it
    /// holds on every state in its orbit) for quotient exploration to be
    /// sound.
    fn invariant(&self, state: &Self::State) -> Result<(), String>;

    // ------------------------------------------------------------------
    // Symmetry group (optional; defaults implement the trivial group).
    // ------------------------------------------------------------------

    /// Maps `state` to the canonical representative of its symmetry orbit,
    /// returning the representative and the group element `g` such that
    /// [`sym_state`](Self::sym_state)`(g, representative) == state`.
    ///
    /// The contract that makes quotient exploration sound: every group
    /// element must be a bijection on reachable states that **commutes
    /// with the transition relation** (`transition(g(s), sym_action(g, a))
    /// == g(transition(s, a))`) and preserves both the invariant and the
    /// enabled-action sets. `reduce` itself must be orbit-constant (equal
    /// representatives for any two states in one orbit) — the usual
    /// implementation picks the lexicographically minimal element of the
    /// orbit. The default is the trivial group: every state is its own
    /// representative.
    ///
    /// `reduce` is only invoked on invariant-satisfying states, so a model
    /// whose group action is only well-defined on the invariant-closed
    /// subset (e.g. when part of the state is redundant under the
    /// invariant) may rely on that.
    fn reduce(&self, state: Self::State) -> (Self::State, Self::Sym) {
        (state, Self::Sym::default())
    }

    /// Composes two group elements: `sym_state(compose(a, b), s) ==
    /// sym_state(a, sym_state(b, s))`.
    fn sym_compose(&self, a: &Self::Sym, b: &Self::Sym) -> Self::Sym {
        debug_assert!(
            *a == Self::Sym::default() && *b == Self::Sym::default(),
            "models overriding `reduce` must override `sym_compose`"
        );
        Self::Sym::default()
    }

    /// Relabels an action by a group element (e.g. renames the feed an
    /// observation happens on). Used to reconstruct concrete counterexample
    /// and replay paths from quotient-space edges.
    fn sym_action(&self, g: &Self::Sym, action: &Self::Action) -> Self::Action {
        debug_assert!(
            *g == Self::Sym::default(),
            "models overriding `reduce` must override `sym_action`"
        );
        action.clone()
    }

    /// Applies a group element to a state.
    fn sym_state(&self, g: &Self::Sym, state: &Self::State) -> Self::State {
        debug_assert!(
            *g == Self::Sym::default(),
            "models overriding `reduce` must override `sym_state`"
        );
        state.clone()
    }
}
