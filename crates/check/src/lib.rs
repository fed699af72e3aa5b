//! # tvq-check — explicit-state model checking for the lifecycle protocol
//!
//! The engine's correctness rests on a small stateful protocol: tracker-id
//! reuse mints generation-aware internal ids, the class store holds one
//! class per registered id, compaction epochs retire dead ids and re-key
//! every live handle, and catalog swaps invalidate every pruner verdict. Unit tests probe these rules pointwise;
//! this crate checks them **exhaustively** over a bounded universe.
//!
//! Three layers:
//!
//! * [`machine::Machine`] + [`traversal::Traversal`] — a small
//!   explicit-state model checker: breadth-first enumeration of every
//!   reachable canonical state within a depth bound, invariants checked at
//!   every state, shortest counterexample trace on violation. Each level
//!   is expanded on one thread per available CPU, and the frontier can be
//!   explored in the quotient of a model-declared symmetry group
//!   (`--symmetry`) — both are report-preserving, so any machine and
//!   configuration prints the same counters and counterexamples;
//! * [`lifecycle_model`] and [`catalog_model`] — the two protocol models:
//!   one feed's tracker-id lifecycle with its class store, and
//!   catalog-swap verdict coherence;
//! * [`conformance`] — model-based conformance replay: every enumerated
//!   action sequence is replayed through the *real* implementations
//!   (`ObjectLifecycle` + `SetInterner` directly, a full engine end to
//!   end, and the `PrunerVerdictCache`), comparing observable state
//!   against the model after every path.
//!
//! The `model_check` binary runs the bounded traversals at full depth and
//! prints explored-state counts; CI runs it and fails on any violation.
//! The `check-mutants` feature (never on in tier-1 builds) plants bugs as
//! negative controls — two historical ones plus a class-asymmetric
//! retirement skip that bites only when a class-1 object retires — and the
//! test suite asserts the checker *finds* all of them (the asymmetric one
//! under `--symmetry`, proving quotient replay still drives concrete runs
//! of both classes). Evidence the exhaustive pass is not vacuous.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog_model;
pub mod conformance;
pub mod lifecycle_model;
pub mod machine;
#[cfg(feature = "check-mutants")]
pub mod mutants;
pub mod traversal;

pub use catalog_model::{CatalogAction, CatalogModel, CatalogState, CatalogSym};
pub use conformance::{replay_catalog, replay_component, replay_engine};
pub use lifecycle_model::{
    Internal, LifecycleAction, LifecycleModel, LifecycleState, LifecycleSym,
};
pub use machine::Machine;
pub use traversal::{DepthStats, Report, Traversal, Violation};
