//! Worker side of the sharded multi-feed engine: a stateless executor.
//!
//! A worker owns nothing between batches. Its inbox carries one kind of
//! message, a [`Job`]: the worker's share of one batch *together with the
//! engines those frames belong to*. It runs the frames in order, builds (or
//! recovers) the engine of any feed that came without one, and sends
//! everything home in one [`Done`] — so a feed's engine is always either at
//! home or inside exactly one job, never in two places and never behind a
//! queue of messages that must be reasoned about.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use tvq_common::{FeedId, FrameObjects, Result};
use tvq_query::CnfQuery;

use super::EngineSpec;
use crate::engine::{FrameResult, TemporalVideoQueryEngine};

/// The per-feed engines, keyed so every walk is in ascending feed order.
pub(super) type Engines = BTreeMap<FeedId, Box<TemporalVideoQueryEngine>>;

/// One worker's share of one batch.
pub(super) struct Job {
    /// `(batch position, feed, frame)` in batch order, which preserves each
    /// feed's frame order. One job per worker per batch keeps the channel
    /// and thread-wakeup cost at O(workers) rather than O(frames).
    pub(super) frames: Vec<(usize, FeedId, FrameObjects)>,
    /// The engines of the share's feeds. A feed without one is new to the
    /// fleet (or lost, on a durable fleet): the worker materialises it, so
    /// first-sight builds and restart recovery run in parallel.
    pub(super) engines: Engines,
    /// The fleet's master catalog, for engines materialised here.
    pub(super) queries: Arc<Vec<CnfQuery>>,
    pub(super) version: u64,
    /// Where this batch's shares come home. It is the batch's own channel:
    /// a worker that dies mid-share drops its sender, which is how the
    /// batch learns of the loss without waiting out a timeout, and a share
    /// finished after its batch gave up has nowhere to go.
    pub(super) home: Sender<Done>,
}

/// A finished share: every engine the job carried or materialised, the
/// per-frame outcomes by batch position, and the nanoseconds the share took
/// (see [`SchedulingStats`](super::SchedulingStats)).
pub(super) struct Done {
    pub(super) worker: usize,
    pub(super) engines: Engines,
    pub(super) outcomes: Vec<(usize, Result<FrameResult>)>,
    pub(super) busy_nanos: u64,
}

/// Builds (or, on a durable fleet, recovers) the engine of a feed that
/// arrived without one. Recovery fast-forwards the engine's catalog to the
/// fleet's current version — the swaps it missed while it was gone land at
/// the stream position they originally had (ops only ever apply between
/// batches).
fn materialise_feed(
    spec: &EngineSpec,
    feed: FeedId,
    queries: &[CnfQuery],
    version: u64,
) -> Result<Box<TemporalVideoQueryEngine>> {
    let Some((io, root)) = &spec.store else {
        return Ok(Box::new(spec.build_engine(queries, version)?));
    };
    let dir = root.join(format!("feed-{}", feed.0));
    let engine = if TemporalVideoQueryEngine::has_data(io, &dir) {
        let (mut engine, _) = TemporalVideoQueryEngine::recover(io.clone(), &dir)?;
        engine.reconcile_catalog(queries, version)?;
        engine
    } else {
        let mut engine = spec.build_engine(queries, version)?;
        engine.attach_durability(io.clone(), &dir)?;
        engine
    };
    Ok(Box::new(engine))
}

pub(super) fn worker_loop(index: usize, spec: Arc<EngineSpec>, inbox: Receiver<Job>) {
    for job in inbox {
        let started = Instant::now();
        let mut engines = job.engines;
        let mut outcomes = Vec::with_capacity(job.frames.len());
        for (seq, feed, frame) in job.frames {
            let engine = match engines.entry(feed) {
                Entry::Occupied(entry) => entry.into_mut(),
                Entry::Vacant(vacant) => {
                    match materialise_feed(&spec, feed, &job.queries, job.version) {
                        Ok(engine) => vacant.insert(engine),
                        Err(error) => {
                            // Without a store, unreachable in practice (the
                            // builder validated the spec); with one, a
                            // store error. Report instead of panicking.
                            outcomes.push((seq, Err(error)));
                            continue;
                        }
                    }
                }
            };
            outcomes.push((seq, engine.observe(&frame)));
        }
        // A closed channel means the batch stopped waiting for this share
        // and already counts its feeds as lost; the engines drop here,
        // releasing their directory locks for the recovery.
        let _ = job.home.send(Done {
            worker: index,
            engines,
            outcomes,
            busy_nanos: started.elapsed().as_nanos() as u64,
        });
    }
}
