//! Canonical model of the catalog-swap / verdict-cache protocol.
//!
//! The property under check is version coherence: **no pruner verdict
//! computed under catalog version `v` is ever consulted under a version
//! `v' != v`**. The real implementation enforces this by clearing the
//! [`PrunerVerdictCache`](tvq_core::PrunerVerdictCache) on every catalog
//! swap and re-keying it through the remap table on every compaction; the
//! model makes the property directly checkable by recording, for every
//! cached verdict, the verdict the *current* version would produce — a
//! stale entry is then an invariant violation, not a silent wrong answer.
//!
//! The bounded universe: [`OBJECTS`] objects, every non-empty subset as a
//! candidate state ([`MASKS`] handles), a synthetic version-dependent
//! pruner whose verdict is `(Σ(id+1) + v) % `[`VMOD`]` == 0` over the
//! subset's members, and a [`CWINDOW`]-slot window determining which
//! handles survive compaction. Versions are unbounded, but the verdict
//! function only depends on `v mod VMOD`, so the canonical state keeps the
//! residue — the conformance replay drives the real `AtomicU64` version and
//! checks the concrete behaviour.

use crate::machine::Machine;

/// Objects range over `0..OBJECTS`; subsets are bitmasks over them.
pub const OBJECTS: u8 = 3;
/// Candidate-state handles: every non-empty subset mask `1..=MASKS`.
pub const MASKS: u8 = (1 << OBJECTS) - 1;
/// The verdict function's modulus (versions matter modulo this).
pub const VMOD: u8 = 3;
/// Window slots: masks observed in the last `CWINDOW` frames survive
/// compaction.
pub const CWINDOW: usize = 2;

/// The synthetic pruner's verdict for `mask` under version residue `vmod`.
/// Deliberately version-sensitive: any stale consult after a swap flips the
/// answer for some mask, so staleness is always observable.
pub fn verdict(mask: u8, vmod: u8) -> bool {
    let sum: u32 = (0..OBJECTS)
        .filter(|bit| mask & (1 << bit) != 0)
        .map(|bit| bit as u32 + 1)
        .sum();
    (sum + vmod as u32).is_multiple_of(VMOD as u32)
}

/// Canonical model state. `Ord` is derived (with `vmod` as the leading
/// field) so the symmetry reduction's rotate-to-residue-zero representative
/// is exactly the lexicographically minimal element of the orbit.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct CatalogState {
    /// The catalog version, modulo [`VMOD`].
    pub vmod: u8,
    /// Cached verdict per mask (`entries[mask - 1]`); `None` = not judged
    /// under the current version/window regime.
    pub entries: Vec<Option<bool>>,
    /// The last ≤ [`CWINDOW`] observed masks, oldest first (compaction
    /// keeps exactly these).
    pub window: Vec<u8>,
}

/// One protocol step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CatalogAction {
    /// Judge the mask's candidate state under the current catalog.
    Judge(u8),
    /// A frame whose window state is this mask (keeps its handle live
    /// across the next compaction).
    Observe(u8),
    /// Swap the catalog: version bumps, every cached verdict must die.
    Swap,
    /// A compaction epoch: handles outside the window retire, surviving
    /// verdicts are re-keyed.
    Compact,
}

/// One element of the catalog model's symmetry group: a rotation of the
/// version residue by `0..VMOD`. A rotation maps each cached verdict to
/// the value with the same *staleness* under the rotated version (`fresh`
/// stays `fresh`, `stale` stays `stale`), which is what makes every
/// rotation a transition-commuting, invariant-preserving bijection: Judge
/// writes a fresh verdict on both sides, Swap clears entries on both
/// sides, and no action names a version. Actions are untouched
/// (`sym_action` is the identity).
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct CatalogSym(
    /// The rotation amount, `0..VMOD`; `0` is the identity.
    pub u8,
);

impl CatalogSym {
    /// Applies the rotation to a state.
    pub fn apply(self, state: &CatalogState) -> CatalogState {
        let target = (state.vmod + self.0) % VMOD;
        let mut next = state.clone();
        next.vmod = target;
        for (index, slot) in next.entries.iter_mut().enumerate() {
            if let Some(cached) = slot {
                let mask = index as u8 + 1;
                let was_fresh = *cached == verdict(mask, state.vmod);
                let fresh = verdict(mask, target);
                *cached = if was_fresh { fresh } else { !fresh };
            }
        }
        next
    }
}

/// The machine over [`CatalogState`] / [`CatalogAction`].
#[derive(Debug, Default, Clone, Copy)]
pub struct CatalogModel;

impl Machine for CatalogModel {
    type State = CatalogState;
    type Action = CatalogAction;
    type Sym = CatalogSym;

    fn initial(&self) -> CatalogState {
        CatalogState {
            vmod: 0,
            entries: vec![None; MASKS as usize],
            window: Vec::new(),
        }
    }

    fn actions(&self, _state: &CatalogState, out: &mut Vec<CatalogAction>) {
        for mask in 1..=MASKS {
            out.push(CatalogAction::Judge(mask));
            out.push(CatalogAction::Observe(mask));
        }
        out.push(CatalogAction::Swap);
        out.push(CatalogAction::Compact);
    }

    fn transition(
        &self,
        state: &CatalogState,
        action: &CatalogAction,
    ) -> Result<CatalogState, String> {
        let mut next = state.clone();
        match *action {
            CatalogAction::Judge(mask) => {
                let slot = &mut next.entries[mask as usize - 1];
                match *slot {
                    // A cached verdict is consulted as-is: if it is stale,
                    // the invariant (below) already flagged the state.
                    Some(_) => {}
                    None => *slot = Some(verdict(mask, next.vmod)),
                }
            }
            CatalogAction::Observe(mask) => {
                next.window.push(mask);
                if next.window.len() > CWINDOW {
                    next.window.remove(0);
                }
            }
            CatalogAction::Swap => {
                next.vmod = (next.vmod + 1) % VMOD;
                // The whole point: verdicts formed under the old version
                // must not survive the swap.
                next.entries.iter_mut().for_each(|slot| *slot = None);
            }
            CatalogAction::Compact => {
                for mask in 1..=MASKS {
                    if !next.window.contains(&mask) {
                        next.entries[mask as usize - 1] = None;
                    }
                }
            }
        }
        Ok(next)
    }

    fn invariant(&self, state: &CatalogState) -> Result<(), String> {
        for mask in 1..=MASKS {
            if let Some(cached) = state.entries[mask as usize - 1] {
                let fresh = verdict(mask, state.vmod);
                if cached != fresh {
                    return Err(format!(
                        "mask {mask:#05b}: cached verdict {cached} was computed under a stale \
                         catalog version (current version would say {fresh})"
                    ));
                }
            }
        }
        if state.window.len() > CWINDOW {
            return Err(format!("window overflowed: {:?}", state.window));
        }
        Ok(())
    }

    fn reduce(&self, state: CatalogState) -> (CatalogState, CatalogSym) {
        // Rotate the residue to zero; the inverse rotation (by the
        // original residue) maps the representative back to `state`.
        let back = CatalogSym(state.vmod);
        let repr = CatalogSym((VMOD - state.vmod) % VMOD).apply(&state);
        (repr, back)
    }

    fn sym_compose(&self, a: &CatalogSym, b: &CatalogSym) -> CatalogSym {
        CatalogSym((a.0 + b.0) % VMOD)
    }

    fn sym_action(&self, _g: &CatalogSym, action: &CatalogAction) -> CatalogAction {
        *action
    }

    fn sym_state(&self, g: &CatalogSym, state: &CatalogState) -> CatalogState {
        g.apply(state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_is_version_sensitive_for_every_mask() {
        // The staleness probe only works if a swap flips the verdict of at
        // least the masks involved; with sum+v mod 3, *every* mask flips at
        // some version within VMOD steps.
        for mask in 1..=MASKS {
            let answers: Vec<bool> = (0..VMOD).map(|v| verdict(mask, v)).collect();
            assert!(
                answers.contains(&true) && answers.contains(&false),
                "mask {mask} must be version-sensitive, got {answers:?}"
            );
        }
    }

    #[test]
    fn swap_clears_and_compact_drops_out_of_window_entries() {
        let model = CatalogModel;
        let mut state = model.initial();
        for action in [
            CatalogAction::Judge(0b011),
            CatalogAction::Observe(0b011),
            CatalogAction::Judge(0b100),
            CatalogAction::Compact,
        ] {
            state = model.transition(&state, &action).unwrap();
            model.invariant(&state).unwrap();
        }
        assert_eq!(state.entries[0b011 - 1], Some(verdict(0b011, 0)));
        assert_eq!(
            state.entries[0b100 - 1],
            None,
            "out-of-window entry dropped"
        );
        state = model.transition(&state, &CatalogAction::Swap).unwrap();
        assert!(state.entries.iter().all(Option::is_none), "swap clears all");
        assert_eq!(state.vmod, 1);
    }
}
