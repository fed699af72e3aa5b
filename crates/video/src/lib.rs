//! Video-feed substrate: synthetic feeds in the shape of the paper's datasets.
//!
//! The paper's architecture (Figure 2) starts with an Object Detection &
//! Tracking module built on Faster R-CNN and Deep SORT. That module's only
//! interaction with the rest of the system is the structured relation
//! `VR(fid, id, class)`, so this crate synthesises that relation directly,
//! without the vision models:
//!
//! * a **statistical generator** ([`generator`]) that produces a relation
//!   matching the Table-6 statistics of one of the paper's six evaluation
//!   datasets ([`profiles`]), with the paper's `po` id-reuse parameter —
//!   what every experiment, benchmark film and differential suite runs on;
//! * a **multi-camera generator** ([`multifeed`]) that synthesises N
//!   independent feeds tagged with `FeedId`s and interleaves them into the
//!   round-robin batches the sharded multi-feed engine ingests;
//! * a **long-churn generator** ([`churn`]) that compresses hours of
//!   unbounded object turnover into a benchmarkable frame budget — the
//!   workload that exercises the interner's epoch compaction;
//! * an **id-recycling generator** ([`id_reuse`]) in which departed tracker
//!   identifiers return for new objects across class boundaries — the
//!   workload that exercises the engine's object lifecycle (generation
//!   tags, alias ids, epoch retirement of dead identifiers);
//! * a **skewed camera grid** ([`skewed_grid()`](skewed_grid::skewed_grid)) in which a couple of hot
//!   cameras colliding on one static shard carry ~90% of the fleet's
//!   maintenance work, with a mid-run hotspot flip — the workload that
//!   exercises the multi-feed engine's work-stealing scheduler.
//!
//! Real detector output enters the same way a generated feed does: as
//! `FrameObjects` handed to the engine, which is agnostic to the source.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod churn;
pub mod generator;
pub mod id_reuse;
pub mod multifeed;
pub mod profiles;
pub mod skewed_grid;

pub use churn::{long_churn_feed, ChurnProfile};
pub use generator::{apply_id_reuse, generate, generate_with_id_reuse};
pub use id_reuse::{id_reuse_feed, IdReuseProfile};
pub use multifeed::{feed_seed, generate_camera_grid, generate_feeds, interleave, CameraFeed};
pub use profiles::DatasetProfile;
pub use skewed_grid::{skewed_grid, SkewProfile};
