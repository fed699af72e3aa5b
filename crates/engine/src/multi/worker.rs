//! Worker side of the sharded multi-feed engine.
//!
//! Each worker owns the single-feed engines of the feeds currently assigned
//! to it and drains one FIFO inbox. The FIFO is the whole correctness story:
//! frames, catalog swaps, migrations and collection requests all arrive on
//! the same channel, so every worker applies them in the exact order the
//! scheduler sent them — a catalog op broadcast before a migration is applied
//! to the feed's engine *before* it ships to its new worker, and the new
//! worker's copy of the same op (queued before the adoption) can never touch
//! the engine twice.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

use tvq_common::{FeedId, FrameObjects, QueryId, Result};
use tvq_query::CnfQuery;

use super::{EngineSpec, FeedReport};
use crate::engine::{FrameResult, TemporalVideoQueryEngine};

/// One catalog mutation, broadcast to every worker.
#[derive(Clone)]
pub(super) enum CatalogOp {
    Add(CnfQuery),
    Remove(QueryId),
}

pub(super) enum WorkerMsg {
    /// One batch's worth of frames for this worker, in batch order. Shipping
    /// a worker's whole share in one message (instead of one message per
    /// frame) keeps the channel and thread-wakeup cost at O(workers) per
    /// batch rather than O(frames).
    Frames {
        /// The batch these frames belong to. Results carry it back so an
        /// aborted batch (e.g. a lost shard mid-send) cannot leave stale
        /// results that a later batch would mistake for its own.
        epoch: u64,
        frames: Vec<(usize, FeedId, FrameObjects)>,
    },
    /// A catalog swap. Queues behind any frames already sent on the same
    /// channel and ahead of any sent later, so every worker applies it at
    /// the same point of the frame stream — epoch-aligned, deterministic,
    /// and invisible to `(seq, feed)` result ordering. Fire-and-forget:
    /// the engine validated the op centrally, so workers cannot reject it.
    Catalog {
        version: u64,
        op: CatalogOp,
    },
    /// Hand the named feed's engine back to the scheduler (the first half
    /// of a migration). Replies `None` when this worker never built the
    /// feed — the scheduler then just re-pins and the new worker builds
    /// lazily. The engine travels boxed (one pointer through a channel),
    /// its whole-lifetime frame and match counters inside it.
    Migrate {
        feed: FeedId,
        reply: Sender<Option<Box<TemporalVideoQueryEngine>>>,
    },
    /// Install a migrated feed's engine (the second half of a migration,
    /// sent to the feed's new worker after the old one handed it over).
    Adopt {
        feed: FeedId,
        state: Box<TemporalVideoQueryEngine>,
    },
    Collect {
        reply: Sender<Vec<FeedReport>>,
    },
    /// Flush every engine's durable state (due snapshots, WAL fsync) and
    /// reply with the first failure, if any. The graceful-shutdown path.
    Sync {
        reply: Sender<Result<()>>,
    },
}

/// One share of a batch answered by one worker: the batch epoch, the
/// worker's index, the per-frame outcomes, and the nanoseconds the worker
/// spent processing the share (scheduling telemetry — see
/// [`SchedulingStats`](super::SchedulingStats)).
pub(super) type ShardResult = (u64, usize, Vec<(usize, FeedId, Result<FrameResult>)>, u64);

/// Builds (or, on a durable fleet, recovers) the engine of a feed this
/// worker serves for the first time. Recovery fast-forwards the engine's
/// catalog to the fleet's current version — the swaps it missed while the
/// feed's previous worker was down land at the same stream position the
/// broadcast originally had (ops only ever broadcast between batches).
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

pub(super) fn worker_loop(
    index: usize,
    spec: Arc<EngineSpec>,
    initial_queries: Vec<CnfQuery>,
    initial_version: u64,
    inbox: Receiver<WorkerMsg>,
    results: Sender<ShardResult>,
) {
    // BTreeMap so collection iterates feeds in ascending id order.
    let mut engines: BTreeMap<FeedId, Box<TemporalVideoQueryEngine>> = BTreeMap::new();
    // The worker-local view of the current catalog: engines for feeds first
    // seen *after* a swap must be built from this, not the build-time spec,
    // or a late-arriving feed would answer (and report metrics) under a
    // stale query set. Respawned workers start from the scheduler's master
    // copy, which already includes every broadcast swap.
    let mut current_queries: Vec<CnfQuery> = initial_queries;
    let mut current_version: u64 = initial_version;
    for message in inbox {
        match message {
            WorkerMsg::Catalog { version, op } => {
                match &op {
                    CatalogOp::Add(query) => current_queries.push(query.clone()),
                    CatalogOp::Remove(id) => current_queries.retain(|q| q.id != *id),
                }
                current_version = version;
                for engine in engines.values_mut() {
                    // Centrally validated; per-engine application cannot
                    // fail (ids are fleet-unique and present everywhere).
                    let applied = match &op {
                        CatalogOp::Add(query) => engine.add_query(query.clone()),
                        CatalogOp::Remove(id) => engine.remove_query(*id),
                    };
                    debug_assert!(applied.is_ok(), "validated catalog op rejected");
                }
            }
            WorkerMsg::Frames { epoch, frames } => {
                let started = Instant::now();
                let mut outcomes: Vec<(usize, FeedId, Result<FrameResult>)> =
                    Vec::with_capacity(frames.len());
                for (seq, feed, frame) in frames {
                    let engine = match engines.entry(feed) {
                        Entry::Occupied(entry) => entry.into_mut(),
                        Entry::Vacant(vacant) => {
                            match materialise_feed(&spec, feed, &current_queries, current_version) {
                                Ok(engine) => vacant.insert(engine),
                                Err(error) => {
                                    // Without a store, unreachable in
                                    // practice (the builder validated the
                                    // spec); with one, a store error.
                                    // Report instead of panicking.
                                    outcomes.push((seq, feed, Err(error)));
                                    continue;
                                }
                            }
                        }
                    };
                    outcomes.push((seq, feed, engine.observe(&frame)));
                }
                let busy = started.elapsed().as_nanos() as u64;
                if results.send((epoch, index, outcomes, busy)).is_err() {
                    return; // Engine dropped; shut down.
                }
            }
            WorkerMsg::Migrate { feed, reply } => {
                // Handing the state over (or reporting we never had it) is
                // all there is to it: the scheduler only migrates between
                // batches, so no frames of this feed can be queued behind
                // this message.
                let _ = reply.send(engines.remove(&feed));
            }
            WorkerMsg::Adopt { feed, state } => {
                let previous = engines.insert(feed, state);
                debug_assert!(
                    previous.is_none(),
                    "adopted a feed this worker already serves"
                );
            }
            WorkerMsg::Collect { reply } => {
                let reports = engines
                    .iter()
                    .map(|(&feed, engine)| {
                        let (total_matches, matching_frames) = engine.match_counters();
                        FeedReport {
                            feed,
                            strategy: engine.strategy().to_owned(),
                            frames: engine.maintainer_metrics().frames_processed,
                            total_matches,
                            matching_frames,
                            live_states: engine.live_states(),
                            catalog_version: engine.catalog_version(),
                            metrics: engine.metrics(),
                        }
                    })
                    .collect();
                let _ = reply.send(reports);
            }
            WorkerMsg::Sync { reply } => {
                let mut outcome: Result<()> = Ok(());
                for engine in engines.values_mut() {
                    let flushed = engine.sync_store();
                    if outcome.is_ok() {
                        outcome = flushed;
                    }
                }
                let _ = reply.send(outcome);
            }
        }
    }
    // Inbox closed (shutdown or a scheduler-side kill): flush so nothing
    // acknowledged — or checkpointable — is left behind, then drop the
    // engines, releasing their per-feed directory locks for a respawn.
    for engine in engines.values_mut() {
        let _ = engine.sync_store();
    }
}
