//! Runtime switch for the class-asymmetric retirement mutant (only
//! compiled under the `check-mutants` feature). The bug is planted in this
//! crate's own conformance replay, so its toggle lives here; the mutants
//! planted in production code keep theirs in `tvq_core::mutants`.

use std::sync::atomic::{AtomicBool, Ordering};

/// Off by default: conformance replay skips the retirement of an epoch that
/// retires a class-1 object — a deliberately class-*asymmetric* bug,
/// proving symmetry-reduced traversal still reaches a concrete run that
/// exhibits it.
static ASYMMETRIC_RETIRE: AtomicBool = AtomicBool::new(false);

/// Whether the class-asymmetric retirement mutant is armed.
pub fn asymmetric_retire() -> bool {
    ASYMMETRIC_RETIRE.load(Ordering::SeqCst)
}

/// Arms or disarms the class-asymmetric retirement mutant, returning the
/// previous value.
pub fn set_asymmetric_retire(on: bool) -> bool {
    ASYMMETRIC_RETIRE.swap(on, Ordering::SeqCst)
}
