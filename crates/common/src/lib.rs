//! Shared foundation types for the temporal video query engine.
//!
//! This crate contains everything the higher layers (video substrate, MCOS
//! generation, query evaluation, engine) agree on:
//!
//! * strongly typed identifiers ([`FrameId`], [`ObjectId`], [`ClassId`],
//!   [`QueryId`]) — see [`ids`];
//! * the class-label registry mapping human-readable labels such as `"car"`
//!   to dense [`ClassId`]s — see [`class`];
//! * [`ClassStore`], the reference-counted object → class store shared by an
//!   engine, its interner and its pruner (and, optionally, across engines),
//!   with epoch-boundary eviction — see [`class_store`];
//! * [`ObjectSet`], the sorted, deduplicated object-identifier set frames
//!   arrive as and results leave as — see [`object_set`];
//! * [`SetInterner`] and [`SetId`], the per-feed object-set arena that turns
//!   set hashing/equality into integer operations, memoizes intersections,
//!   caches per-set class counts and compacts itself in epochs — see
//!   [`interner`];
//! * [`BitmapArena`] and [`UniverseMap`], the dense fixed-stride bitmaps the
//!   interner stores every set as, so intersections, subset and
//!   disjointness tests run word-parallel — see [`bitmap`];
//! * [`ClassCounts`], the per-class aggregate of one object set that CNF
//!   queries are evaluated against — see [`aggregates`];
//! * [`FxHasher`] and the `FxHashMap`/`FxHashSet` aliases, the deterministic
//!   integer hasher behind the handle-keyed maps — see [`hash`];
//! * [`MarkedFrameSet`], the sliding-window frame set with *key frame* marks
//!   that drives early state pruning — see [`frame_set`];
//! * the structured relation `VR(fid, id, class)` extracted from a video feed
//!   — see [`relation`];
//! * sliding-window configuration ([`WindowSpec`]) — see [`window`];
//! * dataset statistics in the shape of the paper's Table 6 — see [`stats`];
//! * the crate-wide error type — see [`error`].
//!
//! The terminology follows the paper *Evaluating Temporal Queries Over Video
//! Feeds* (Chen, Yu, Koudas): a video feed is a bounded sequence of frames,
//! object detection/tracking turns each frame into a set of `(id, class)`
//! pairs, and all downstream processing operates on those sets.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aggregates;
pub mod bitmap;
pub mod class;
pub mod class_store;
pub mod codec;
pub mod error;
pub mod frame_set;
pub mod hash;
pub mod ids;
pub mod interner;
pub mod object_set;
pub mod relation;
pub mod stats;
pub mod window;

pub use aggregates::ClassCounts;
pub use bitmap::{BitmapArena, UniverseMap};
pub use class::{ClassLabel, ClassRegistry};
pub use class_store::{shared_class_store, ClassStore, SharedClassMap};
pub use codec::{crc32, Decoder, Encoder};
pub use error::{Error, Result};
pub use frame_set::MarkedFrameSet;
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use ids::{ClassId, FeedId, FrameId, ObjectId, QueryId};
pub use interner::{MemoConfig, RemapTable, SetId, SetInterner};
pub use object_set::ObjectSet;
pub use relation::{FrameObjects, ObjectRecord, VideoRelation};
pub use stats::DatasetStats;
pub use window::WindowSpec;
