//! Property tests for the symmetry-group contract that quotient
//! exploration relies on.
//!
//! [`Machine::reduce`] is only sound if the declared group really is a
//! group of transition-commuting bijections and `reduce` really is
//! orbit-constant. These laws are checked here on random *reachable*
//! states of both models (reachability matters: the contracts are only
//! promised on the invariant-closed reachable set):
//!
//! * **round-trip** — `sym_state(g, repr) == state` for
//!   `(repr, g) = reduce(state)`;
//! * **idempotence** — reducing a representative is a fixed point with an
//!   identity witness;
//! * **orbit invariance** — every relabelling of a state reduces to the
//!   same representative (permutation-invariance of the canonical form);
//! * **equivariance** — group elements commute with the transition
//!   relation under `sym_action` relabelling, and preserve the invariant.

use proptest::prelude::*;
use tvq_check::{CatalogModel, CatalogSym, LifecycleModel, LifecycleSym, Machine};

/// Walks `picks` through a machine from the initial state, selecting each
/// step's action by index modulo the enabled-action count, and returns
/// every state along the run (all reachable by construction).
fn walk<M: Machine>(machine: &M, picks: &[u32]) -> Vec<(M::State, Vec<M::Action>)> {
    let mut state = machine.initial();
    let mut out = Vec::with_capacity(picks.len() + 1);
    for &pick in picks {
        let mut actions = Vec::new();
        machine.actions(&state, &mut actions);
        if actions.is_empty() {
            break;
        }
        let action = actions[pick as usize % actions.len()].clone();
        let next = machine
            .transition(&state, &action)
            .expect("enumerated actions must be applicable");
        out.push((state, actions));
        state = next;
    }
    let mut finals = Vec::new();
    machine.actions(&state, &mut finals);
    out.push((state, finals));
    out
}

/// The shared law bundle, checked at one reachable state.
fn check_reduce_laws<M: Machine>(machine: &M, group: &[M::Sym], state: &M::State)
where
    M::State: PartialOrd,
    M::Sym: std::fmt::Debug,
{
    machine
        .invariant(state)
        .expect("reachable states satisfy the invariant");
    let (repr, g) = machine.reduce(state.clone());
    assert_eq!(
        machine.sym_state(&g, &repr),
        *state,
        "round-trip: reduce's witness must map the representative back"
    );
    assert!(
        repr <= *state,
        "the representative is the orbit minimum, so never above the input"
    );

    let (again, identity) = machine.reduce(repr.clone());
    assert_eq!(again, repr, "reducing a representative is a fixed point");
    assert_eq!(
        identity,
        M::Sym::default(),
        "a representative's witness is the identity"
    );

    for h in group {
        let moved = machine.sym_state(h, state);
        machine
            .invariant(&moved)
            .expect("the group preserves the invariant");
        let (repr_h, g_h) = machine.reduce(moved.clone());
        assert_eq!(
            repr_h, repr,
            "orbit invariance: {h:?}-relabelled state must share the representative"
        );
        assert_eq!(
            machine.sym_state(&g_h, &repr_h),
            moved,
            "round-trip on the relabelled state"
        );
    }
}

/// Transition equivariance at one state: for every enabled action and
/// every group element, acting then stepping equals stepping then acting.
fn check_equivariance<M: Machine>(
    machine: &M,
    group: &[M::Sym],
    state: &M::State,
    actions: &[M::Action],
) where
    M::Sym: std::fmt::Debug,
{
    for h in group {
        let moved = machine.sym_state(h, state);
        for action in actions {
            let stepped = machine
                .transition(state, action)
                .expect("enumerated actions must be applicable");
            let relabelled = machine.sym_action(h, action);
            let stepped_moved = machine.transition(&moved, &relabelled).unwrap_or_else(|e| {
                panic!("{h:?} must preserve enabled actions ({relabelled:?}): {e}")
            });
            assert_eq!(
                machine.sym_state(h, &stepped),
                stepped_moved,
                "equivariance under {h:?} for {action:?}"
            );
        }
    }
}

fn catalog_group() -> Vec<CatalogSym> {
    (0..tvq_check::catalog_model::VMOD)
        .map(CatalogSym)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Feed/class-swap group laws on random reachable lifecycle states.
    #[test]
    fn lifecycle_reduce_laws_hold_on_reachable_states(
        picks in proptest::collection::vec(0u32..10_000, 0..24),
    ) {
        let machine = LifecycleModel;
        for (state, actions) in walk(&machine, &picks) {
            check_reduce_laws(&machine, &LifecycleSym::ALL, &state);
            check_equivariance(&machine, &LifecycleSym::ALL, &state, &actions);
        }
    }

    /// Version-rotation group laws on random reachable catalog states.
    #[test]
    fn catalog_reduce_laws_hold_on_reachable_states(
        picks in proptest::collection::vec(0u32..10_000, 0..24),
    ) {
        let machine = CatalogModel;
        let group = catalog_group();
        for (state, actions) in walk(&machine, &picks) {
            check_reduce_laws(&machine, &group, &state);
            check_equivariance(&machine, &group, &state, &actions);
        }
    }

    /// Composition law: `sym_state(compose(a, b), s) ==
    /// sym_state(a, sym_state(b, s))`, on both models' full groups.
    #[test]
    fn composition_matches_sequential_application(
        picks in proptest::collection::vec(0u32..10_000, 0..16),
    ) {
        let machine = LifecycleModel;
        for (state, _) in walk(&machine, &picks) {
            for a in LifecycleSym::ALL {
                for b in LifecycleSym::ALL {
                    let composed = machine.sym_compose(&a, &b);
                    prop_assert_eq!(
                        machine.sym_state(&composed, &state),
                        machine.sym_state(&a, &machine.sym_state(&b, &state))
                    );
                }
            }
        }
        let machine = CatalogModel;
        let group = catalog_group();
        for (state, _) in walk(&machine, &picks) {
            for a in &group {
                for b in &group {
                    let composed = machine.sym_compose(a, b);
                    prop_assert_eq!(
                        machine.sym_state(&composed, &state),
                        machine.sym_state(a, &machine.sym_state(b, &state))
                    );
                }
            }
        }
    }
}
