//! Umbrella crate for the temporal video query engine.
//!
//! This workspace reproduces *Evaluating Temporal Queries Over Video Feeds*
//! (Chen, Yu, Koudas — SIGMOD 2021). The `tvq` crate simply re-exports the
//! layered crates so examples, integration tests and downstream users can
//! depend on one name:
//!
//! * [`common`] — shared ids, object/frame sets, windows, relations;
//! * [`video`] — synthetic feeds in the shape of `VR(fid, id, class)`;
//! * [`core`] — MCOS generation (NAIVE / MFS / SSG + reference oracle);
//! * [`query`] — CNF query model, parser, evaluator and pruning;
//! * [`engine`] — the end-to-end engine wiring all layers together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tvq_common as common;
pub use tvq_core as core;
pub use tvq_engine as engine;
pub use tvq_query as query;
pub use tvq_video as video;
