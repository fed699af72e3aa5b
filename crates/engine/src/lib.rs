//! End-to-end temporal video query engine.
//!
//! This crate assembles the full architecture of the paper (Figure 2):
//!
//! ```text
//! video feed ──► object detection & tracking ──► VR(fid, id, class)
//!                       (tvq-video)                    │
//!                                                      ▼
//!                                        MCOS generation (tvq-core)
//!                                     NAIVE / MFS / SSG + pruning hook
//!                                                      │ Result State Set
//!                                                      ▼
//!                                      CNF query evaluation (tvq-query)
//!                                                      │
//!                                                      ▼
//!                                            QueryMatch per window
//! ```
//!
//! The central type is [`TemporalVideoQueryEngine`]: register CNF queries
//! (textual or structured), stream frames into it, and receive the matches of
//! every sliding window. The strategy is the one [`EngineConfig::maintainer`]
//! names: there is no automatic MFS-vs-SSG selection (`tvq-perf` contradicts
//! the paper's §6.2 heuristic on every film; see ARCHITECTURE.md).
//!
//! For deployments serving many cameras at once, [`MultiFeedEngine`] (see
//! [`multi`]) owns one single-feed engine per feed, runs each batch's
//! per-worker shares on scoped threads that borrow those engines (they
//! never leave the fleet's map; a panicked share loses its feeds), and
//! merges per-feed results and metrics into a deterministic
//! feed-id-ordered report. Each batch places its own feeds on the shares,
//! costliest first onto the least-loaded share, so a hot camera is spread
//! in the batch where it appears, without changing any result.
//!
//! # Quickstart
//!
//! ```
//! use tvq_common::{ClassId, FrameId, FrameObjects, ObjectId, WindowSpec};
//! use tvq_engine::{EngineConfig, TemporalVideoQueryEngine};
//!
//! // "a car and a person together for at least 2 of the last 3 frames"
//! let config = EngineConfig::new(WindowSpec::new(3, 2).unwrap());
//! let mut engine = TemporalVideoQueryEngine::builder(config)
//!     .with_query_text("car >= 1 AND person >= 1")
//!     .unwrap()
//!     .build()
//!     .unwrap();
//!
//! let car = ClassId(1);
//! let person = ClassId(0);
//! for fid in 0..3u64 {
//!     let frame = FrameObjects::new(
//!         FrameId(fid),
//!         vec![(ObjectId(1), car), (ObjectId(2), person)],
//!     );
//!     let result = engine.observe(&frame).unwrap();
//!     if fid >= 1 {
//!         assert!(result.any());
//!     }
//! }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod catalog;
pub mod config;
pub mod durable;
pub mod engine;
pub mod multi;
pub mod persist;
pub mod subscribe;

pub use catalog::{CatalogSnapshot, QueryCatalog, SharedCatalog};
pub use config::{EngineConfig, MultiFeedConfig};
pub use durable::RecoveryReport;
pub use engine::{EngineBuilder, FrameResult, TemporalVideoQueryEngine};
pub use multi::{
    FeedFrame, FeedFrameResult, FeedReport, MultiFeedBuilder, MultiFeedEngine, MultiFeedReport,
    SchedulingStats,
};
pub use persist::WalRecord;
pub use subscribe::{MatchEvent, SubscriberId, Subscription, SubscriptionHub};
