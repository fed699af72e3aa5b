//! MCOS generation for temporal queries over video feeds.
//!
//! This crate implements the paper's primary contribution — the *MCOS
//! Generation* layer of the architecture in Figure 2. Given the structured
//! relation produced by object detection/tracking, it maintains, over a
//! sliding window, the set of **maximum co-occurrence object sets** (MCOS):
//! object sets that appear jointly in a set of frames such that no strict
//! superset appears in the same frames. Downstream, CNF queries are evaluated
//! over these MCOS (see the `tvq-query` crate).
//!
//! Three interchangeable strategies implement the [`StateMaintainer`] trait:
//!
//! * [`NaiveMaintainer`] — the paper's NAIVE baseline: keep every object set
//!   with its frame set, establish the MCOS property at result-collection
//!   time.
//! * [`MfsMaintainer`] — the Marked Frame Set approach (Section 4.2): mark
//!   each state's key frames, so that a state is pruned as soon as its key
//!   frames expire; each frame sweeps every state.
//! * [`SsgMaintainer`] — the Strict State Graph approach (Section 4.3): the
//!   same states, reached by State Traversal down a subset graph rooted at
//!   the principal states, skipping whole subtrees that share no object with
//!   the arriving frame.
//!
//! A brute-force [`reference`](mod@reference) oracle pins down the intended semantics and is
//! used by the differential tests; [`prune::StatePruner`] is the hook through
//! which the query layer terminates hopeless states (Section 5.3).
//!
//! The three share one crate-private substrate (`substrate.rs`: window,
//! interner, results, metrics, pruner, frame cursor, compaction epoch).
//! MFS and SSG are one maintainer type over one state table, with two ways
//! of reaching its rows, and are durable; NAIVE and the reference oracle
//! are baselines that do not support snapshots.
//!
//! # Example
//!
//! ```
//! use tvq_common::{FrameId, ObjectSet, WindowSpec};
//! use tvq_core::{MaintainerKind, StateMaintainer};
//!
//! // Identify object sets that co-occur in at least 2 of the last 3 frames.
//! let spec = WindowSpec::new(3, 2).unwrap();
//! let mut maintainer = MaintainerKind::Ssg.build(spec);
//! let frames = [
//!     ObjectSet::from_raw([1, 2]),
//!     ObjectSet::from_raw([1, 2, 3]),
//!     ObjectSet::from_raw([2, 3]),
//! ];
//! for (i, objects) in frames.iter().enumerate() {
//!     maintainer.advance(FrameId(i as u64), objects).unwrap();
//! }
//! assert!(maintainer.results().contains(&ObjectSet::from_raw([2, 3])));
//! assert!(maintainer.results().contains(&ObjectSet::from_raw([1, 2])));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod compaction;
pub mod lifecycle;
pub mod maintainer;
pub mod metrics;
pub mod mfs;
#[cfg(feature = "check-mutants")]
pub mod mutants;
pub mod naive;
pub mod prune;
pub mod reference;
pub mod result_set;
pub mod ssg;
mod substrate;

pub use compaction::{CompactionOutcome, CompactionPolicy};
pub use lifecycle::{LiveBinding, ObjectLifecycle};
pub use maintainer::{check_order, MaintainerKind, StateMaintainer};
pub use metrics::MaintenanceMetrics;
pub use mfs::MfsMaintainer;
pub use naive::NaiveMaintainer;
pub use prune::{MinCardinalityPruner, PrunerVerdictCache, SharedPruner, StatePruner};
pub use reference::{mcos_of_window, ReferenceMaintainer};
pub use result_set::ResultStateSet;
pub use ssg::SsgMaintainer;
