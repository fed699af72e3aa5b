//! Runtime switch for the end-of-track negative-control mutant (only
//! compiled under the `check-mutants` feature; never part of production or
//! tier-1 builds).
//!
//! The mutant suite proves the model checker is not vacuous by
//! re-introducing known bug classes and asserting the checker *finds*
//! them. Several mutants have to coexist in one test binary, and the
//! shortest counterexample of one can shadow another (the checker stops at
//! the first violating level) — so each planted bug gets a process-global
//! toggle the tests flip around their traversal. The default preserves the
//! historical behaviour of the bare feature flag: the end-of-track blind
//! spot is armed. (The class-asymmetric retirement mutant is planted in
//! `tvq-check`'s own replay and its toggle lives there.)

use std::sync::atomic::{AtomicBool, Ordering};

/// Armed by default: `ObjectLifecycle::end_tracks` ignores end events (the
/// pre-PR-5 generation-splice blind spot).
static END_TRACKS_NOOP: AtomicBool = AtomicBool::new(true);

/// Whether the end-of-track mutant is armed.
pub fn end_tracks_noop() -> bool {
    END_TRACKS_NOOP.load(Ordering::SeqCst)
}

/// Arms or disarms the end-of-track mutant, returning the previous value.
pub fn set_end_tracks_noop(on: bool) -> bool {
    END_TRACKS_NOOP.swap(on, Ordering::SeqCst)
}
