//! Sharded multi-feed engine, placing each batch by its own cost.
//!
//! The paper's three layers run per feed and share nothing across feeds, so
//! a deployment watching N cameras is exactly N single-feed
//! [`TemporalVideoQueryEngine`]s, each fed its own frames in order.
//! [`MultiFeedEngine`] owns those engines, keyed by [`FeedId`], and runs
//! each batch as a fork/join:
//!
//! * [`MultiFeedEngine::push_batch`] splits a batch into one share per
//!   worker and runs every non-empty share on its own scoped thread
//!   (`std::thread::scope`), which borrows the engines of the share's feeds
//!   from the fleet's map; the per-frame results come back in the batch's
//!   input order once every thread has joined;
//! * which share gets a feed is a pure function of the batch: feeds go in
//!   descending cost (frames plus detections), each to the share with the
//!   least cost so far (see [`push_batch`](MultiFeedEngine::push_batch)).
//!   Nothing is remembered between batches, so a hotspot is spread in the
//!   batch where it appears;
//! * [`MultiFeedEngine::report`] reads the engines and merges their
//!   [`MaintenanceMetrics`] in ascending feed order.
//!
//! Each per-feed engine is exactly a single-feed engine fed the same frames
//! in the same order, whichever thread ran which share, so a sharded run is
//! frame-for-frame identical to N independent single-feed runs; the
//! differential suite pins this down across worker counts, maintainers,
//! the skewed camera grid and interleaved catalog ops.
//!
//! # Ownership
//!
//! The engines never leave the fleet's map: a share's thread only borrows
//! them, and hands back the engines it built for feeds that had none. So a
//! report is a read, and a catalog op or
//! [`sync_store`](MultiFeedEngine::sync_store) is a loop over the engines on
//! the caller's thread, whose errors reach the caller. Three rules hold:
//!
//! 1. **Engines stay home.** `push_batch` returns — `Ok` or `Err` — only
//!    after every thread it spawned has joined, so no engine is ever
//!    anywhere but in its slot between calls. A share whose thread cannot
//!    be spawned runs nothing and loses nothing.
//! 2. **Lost is lost.** A share whose thread panics loses every feed it
//!    carried (the engines may be torn mid-frame), and an engine that fails
//!    a catalog op loses its feed. A durable fleet recovers a lost feed
//!    from the store at its next frame, fast-forwarded to the master
//!    catalog; a non-durable fleet answers [`Error::FeedLost`] for it from
//!    then on, refusing any batch that holds it before a share runs —
//!    never a silently fresh engine.
//! 3. **Drop flushes.** Dropping the fleet flushes its engines
//!    (`sync_store`, errors ignored).
//!
//! # Example
//!
//! ```
//! use tvq_common::{ClassId, FeedId, FrameId, FrameObjects, ObjectId, WindowSpec};
//! use tvq_engine::{EngineConfig, FeedFrame, MultiFeedConfig, MultiFeedEngine};
//!
//! let config = MultiFeedConfig::new(EngineConfig::new(WindowSpec::new(3, 2).unwrap()))
//!     .with_workers(2);
//! let mut engine = MultiFeedEngine::builder(config)
//!     .with_query_text("car >= 1 AND person >= 1")
//!     .unwrap()
//!     .build()
//!     .unwrap();
//!
//! // Three frames from each of two cameras, tagged with their feed.
//! let mut batch = Vec::new();
//! for feed in 0..2u32 {
//!     for fid in 0..3u64 {
//!         batch.push(FeedFrame::new(
//!             FeedId(feed),
//!             FrameObjects::new(
//!                 FrameId(fid),
//!                 vec![(ObjectId(1), ClassId(1)), (ObjectId(2), ClassId(0))],
//!             ),
//!         ));
//!     }
//! }
//! let results = engine.push_batch(&batch).unwrap();
//! assert_eq!(results.len(), 6);
//! // Both feeds see the car+person pair co-occur long enough by frame 1.
//! assert!(results.iter().filter(|r| r.result.any()).count() >= 2);
//!
//! let report = engine.report().unwrap();
//! assert_eq!(report.feeds.len(), 2);
//! assert_eq!(report.metrics.frames_processed, 6);
//! ```

mod worker;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use tvq_common::{ClassRegistry, Error, FeedId, FrameObjects, QueryId, Result};
use tvq_core::MaintenanceMetrics;
use tvq_query::CnfQuery;
use tvq_store::{RealIo, SharedIo};

use crate::catalog;
use crate::config::{EngineConfig, MultiFeedConfig};
use crate::engine::{FrameResult, TemporalVideoQueryEngine};
use crate::persist;

/// One frame of detections tagged with the feed (camera) it came from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedFrame {
    /// The feed the frame belongs to.
    pub feed: FeedId,
    /// The frame's detections.
    pub frame: FrameObjects,
}

impl FeedFrame {
    /// Tags a frame with its feed.
    pub fn new(feed: FeedId, frame: FrameObjects) -> Self {
        FeedFrame { feed, frame }
    }
}

impl From<(FeedId, FrameObjects)> for FeedFrame {
    fn from((feed, frame): (FeedId, FrameObjects)) -> Self {
        FeedFrame::new(feed, frame)
    }
}

/// The result of processing one feed-tagged frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedFrameResult {
    /// The feed the frame belonged to.
    pub feed: FeedId,
    /// The per-frame query matches, identical to what a dedicated
    /// single-feed engine would report for the same feed.
    pub result: FrameResult,
}

/// Summary of one feed's engine at report time.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedReport {
    /// The feed this report describes.
    pub feed: FeedId,
    /// The MCOS-generation strategy serving the feed (e.g. `"SSG_O"`).
    pub strategy: String,
    /// Frames the feed has contributed so far.
    pub frames: u64,
    /// Total query matches across the feed's frames.
    pub total_matches: u64,
    /// Frames with at least one match.
    pub matching_frames: u64,
    /// States currently materialised by the feed's maintainer.
    pub live_states: usize,
    /// The query-catalog version the feed's engine answered under when the
    /// report was taken: the fleet's, since every catalog op is applied to
    /// every engine before it returns.
    pub catalog_version: u64,
    /// The feed's maintenance work counters. `per_shard_queue_depth` is
    /// always zero here — it only exists fleet-wide, on
    /// [`MultiFeedReport::metrics`].
    pub metrics: MaintenanceMetrics,
}

/// A deterministic global view over every feed the engine has seen: one
/// [`FeedReport`] per feed in ascending [`FeedId`] order, plus the merged
/// work counters.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiFeedReport {
    /// Per-feed summaries, sorted by feed identifier.
    pub feeds: Vec<FeedReport>,
    /// All per-feed metrics folded with [`MaintenanceMetrics::merge`], plus
    /// the one counter only the fleet can know: `per_shard_queue_depth`
    /// (peak frames one batch queued to a single share).
    pub metrics: MaintenanceMetrics,
    /// The fleet's query-catalog version at collection time. Per-feed
    /// engines seeded after swaps report this same version (not zero), so
    /// the merge is version-coherent — see
    /// [`FeedReport::catalog_version`].
    pub catalog_version: u64,
}

impl MultiFeedReport {
    /// Number of feeds observed so far.
    pub fn num_feeds(&self) -> usize {
        self.feeds.len()
    }

    /// Total frames processed across all feeds.
    pub fn total_frames(&self) -> u64 {
        self.feeds.iter().map(|f| f.frames).sum()
    }

    /// Total query matches across all feeds.
    pub fn total_matches(&self) -> u64 {
        self.feeds.iter().map(|f| f.total_matches).sum()
    }

    /// Total frames with at least one match, across all feeds.
    pub fn matching_frames(&self) -> u64 {
        self.feeds.iter().map(|f| f.matching_frames).sum()
    }
}

/// Cumulative worker-time telemetry of a [`MultiFeedEngine`].
///
/// Each share's thread times the share; the engine folds those
/// measurements into two totals whose ratio is the parallel speedup the
/// *schedule itself* admits (what the deployment would gain over one worker
/// given at least `workers` cores — independent of how many cores the
/// machine running the measurement happens to have):
///
/// * `busy_nanos` — total worker time across all shares: what a one-worker
///   deployment would take;
/// * `critical_path_nanos` — per batch, only the busiest worker's share
///   counts (the batch cannot complete before its slowest shard): what the
///   sharded deployment takes with enough cores.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulingStats {
    /// Total nanoseconds workers spent processing frames.
    pub busy_nanos: u64,
    /// Sum over batches of the busiest worker's share time.
    pub critical_path_nanos: u64,
    /// Batches ingested.
    pub batches: u64,
}

impl SchedulingStats {
    /// The parallel speedup the schedule admits: `busy / critical_path`.
    /// 1.0 means every batch serialised on one worker; the worker count is
    /// the upper bound.
    pub fn schedule_parallelism(&self) -> f64 {
        if self.critical_path_nanos == 0 {
            1.0
        } else {
            self.busy_nanos as f64 / self.critical_path_nanos as f64
        }
    }
}

/// The immutable build recipe: everything a share's thread needs to build
/// the single-feed engine of a feed that has none.
struct EngineSpec {
    config: EngineConfig,
    registry: ClassRegistry,
    /// The fleet's store and data directory, when durability is on: each
    /// per-feed engine persists under `<dir>/feed-<id>`, and the master
    /// catalog under `<dir>/fleet-catalog.tvqf`.
    store: Option<(SharedIo, PathBuf)>,
}

impl EngineSpec {
    /// Builds a per-feed engine for the *current* catalog state: a feed
    /// first seen after swaps must answer under the swapped query set and
    /// report the fleet's version, not the build-time spec — per-feed
    /// engines built lazily from a stale spec were exactly the
    /// stale-report bug the version plumbing exists to prevent.
    fn build_engine(&self, queries: &[CnfQuery], version: u64) -> Result<TemporalVideoQueryEngine> {
        let mut builder = TemporalVideoQueryEngine::builder(self.config)
            .with_registry(self.registry.clone())
            .allow_empty_catalog()
            .with_catalog_seed(version);
        for query in queries {
            builder = builder.with_query(query.clone());
        }
        builder.build()
    }
}

/// Builder for [`MultiFeedEngine`]. Mirrors the single-feed
/// [`EngineBuilder`](crate::EngineBuilder): queries registered here form the
/// catalog every per-feed engine is built from.
pub struct MultiFeedBuilder {
    config: MultiFeedConfig,
    registry: ClassRegistry,
    queries: Vec<CnfQuery>,
    allow_empty: bool,
    store: Option<(SharedIo, PathBuf)>,
}

impl MultiFeedBuilder {
    /// Starts a builder with the given configuration and the default class
    /// registry.
    pub fn new(config: MultiFeedConfig) -> Self {
        MultiFeedBuilder {
            config,
            registry: ClassRegistry::with_default_classes(),
            queries: Vec::new(),
            allow_empty: false,
            store: None,
        }
    }

    /// Permits building with zero registered queries (the server starts
    /// idle and receives its workload over the wire via
    /// [`MultiFeedEngine::add_query`]).
    pub fn allow_empty_catalog(mut self) -> Self {
        self.allow_empty = true;
        self
    }

    /// Uses a custom class registry.
    pub fn with_registry(mut self, registry: ClassRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Registers a structured query (applied to every feed).
    pub fn with_query(mut self, query: CnfQuery) -> Self {
        self.queries.push(query);
        self
    }

    /// Registers a query written in the textual language, e.g.
    /// `"car >= 2 AND person >= 1"`. New class labels are registered.
    pub fn with_query_text(mut self, text: &str) -> Result<Self> {
        let id = QueryId(self.queries.len() as u32);
        let query = tvq_query::parse_query(text, id, &mut self.registry)?;
        self.queries.push(query);
        Ok(self)
    }

    /// Makes the fleet durable under `dir` through the given store: every
    /// per-feed engine gets a WAL and epoch snapshots in `<dir>/feed-<id>`,
    /// the master catalog persists in `<dir>/fleet-catalog.tvqf`, lost
    /// feeds are recovered from the store at their next frame, and
    /// building over a directory that already holds fleet data *restarts*
    /// it — the persisted catalog supersedes the builder's queries and
    /// registry.
    pub fn with_store(mut self, io: SharedIo, dir: &Path) -> Self {
        self.store = Some((io, dir.to_path_buf()));
        self
    }

    /// [`with_store`](Self::with_store) against the real filesystem.
    pub fn with_data_dir(self, dir: &Path) -> Self {
        self.with_store(RealIo::shared(), dir)
    }

    /// Builds the engine.
    pub fn build(self) -> Result<MultiFeedEngine> {
        if self.config.workers == 0 {
            return Err(Error::InvalidConfig(
                "multi-feed engine needs at least one worker".to_owned(),
            ));
        }
        // A durable fleet building over a directory that already holds a
        // master catalog is a *restart*: the persisted registry, query set
        // and version supersede the builder's (exactly as single-engine
        // `recover` ignores the builder). A fresh durable fleet persists
        // its build-time catalog as version 0 before any frame runs.
        let mut registry = self.registry;
        let mut queries = self.queries;
        let mut catalog_version = 0u64;
        let mut restarted = false;
        if let Some((io, root)) = &self.store {
            match persist::load_fleet_catalog(io, root)? {
                Some((persisted_registry, persisted_queries, version)) => {
                    registry = persisted_registry;
                    queries = persisted_queries;
                    catalog_version = version;
                    restarted = true;
                }
                None => persist::save_fleet_catalog(io, root, &registry, &queries, 0)?,
            }
        }
        // A restarted fleet may legitimately resume with zero queries (all
        // removed before the shutdown); only fresh builds require some.
        if queries.is_empty() && !self.allow_empty && !restarted {
            return Err(Error::InvalidConfig(
                "at least one query must be registered".to_owned(),
            ));
        }
        let spec = EngineSpec {
            config: self.config.engine,
            registry: registry.clone(),
            store: self.store,
        };
        // Validate the spec once, up front, so that per-feed engine
        // construction inside a share cannot fail later.
        spec.build_engine(&queries, catalog_version)?;
        Ok(MultiFeedEngine {
            config: self.config,
            spec,
            engines: BTreeMap::new(),
            queries,
            registry,
            catalog_version,
            peak_shard_depth: 0,
            sched: SchedulingStats::default(),
        })
    }
}

/// N single-feed engines, one per camera feed, answering the same CNF
/// queries, each batch run on one scoped thread per non-empty share.
///
/// See the [module documentation](self) for the ownership model and a usage
/// example. Constructed via [`MultiFeedEngine::builder`].
pub struct MultiFeedEngine {
    config: MultiFeedConfig,
    /// The immutable build recipe shares materialise feeds from.
    spec: EngineSpec,
    /// Every feed's engine. An empty slot is a *lost* feed: its share's
    /// thread panicked or it failed a catalog op (ownership rule 2).
    engines: BTreeMap<FeedId, Option<Box<TemporalVideoQueryEngine>>>,
    /// The master query list: every engine mirrors it, and shares build
    /// the engines they materialise from it.
    queries: Vec<CnfQuery>,
    /// The master class registry, used to parse textual queries added over
    /// [`add_query_text`](Self::add_query_text).
    registry: ClassRegistry,
    /// The fleet-wide catalog version (one increment per catalog op).
    catalog_version: u64,
    /// Peak frames one batch queued to a single share.
    peak_shard_depth: u64,
    /// Worker-time telemetry (see [`SchedulingStats`]).
    sched: SchedulingStats,
}

impl std::fmt::Debug for MultiFeedEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiFeedEngine")
            .field("config", &self.config)
            .field("workers", &self.config.workers)
            .finish()
    }
}

impl MultiFeedEngine {
    /// Starts a builder.
    pub fn builder(config: MultiFeedConfig) -> MultiFeedBuilder {
        MultiFeedBuilder::new(config)
    }

    /// The engine's configuration.
    pub fn config(&self) -> &MultiFeedConfig {
        &self.config
    }

    /// Number of workers (shares) each batch's feeds are placed on: a batch
    /// runs at most this many threads.
    pub fn num_workers(&self) -> usize {
        self.config.workers
    }

    /// Cumulative worker-time telemetry (busy vs critical-path time).
    pub fn scheduling_stats(&self) -> SchedulingStats {
        self.sched
    }

    /// The fleet-wide query-catalog version.
    pub fn catalog_version(&self) -> u64 {
        self.catalog_version
    }

    /// Whether the fleet persists its feeds (built with
    /// [`with_store`](MultiFeedBuilder::with_store) /
    /// [`with_data_dir`](MultiFeedBuilder::with_data_dir)).
    pub fn is_durable(&self) -> bool {
        self.spec.store.is_some()
    }

    /// The currently registered queries (the master copy every per-feed
    /// engine mirrors).
    pub fn queries(&self) -> &[CnfQuery] {
        &self.queries
    }

    /// Registers a query across the whole fleet: behind every frame already
    /// pushed and ahead of every frame pushed later, for every feed alike.
    ///
    /// On a durable fleet an `Err` from a *feed's* store does not undo the
    /// op (the master catalog is already published): the feed that could
    /// not log it is lost and recovers under the new catalog.
    pub fn add_query(&mut self, query: CnfQuery) -> Result<()> {
        let next = catalog::with_query(&self.queries, query.clone())?;
        self.swap_catalog(next, |engine| engine.add_query(query.clone()))
    }

    /// Parses and registers a textual query (e.g. `"car >= 2"`) across the
    /// fleet, minting the next free query id.
    pub fn add_query_text(&mut self, text: &str) -> Result<QueryId> {
        let id = catalog::next_query_id(&self.queries);
        let query = tvq_query::parse_query(text, id, &mut self.registry)?;
        self.add_query(query)?;
        Ok(id)
    }

    /// Cancels a query across the whole fleet (same alignment and error
    /// contract as [`add_query`](Self::add_query)).
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        let next = catalog::without_query(&self.queries, id)?;
        self.swap_catalog(next, |engine| engine.remove_query(id))
    }

    /// Moves the fleet to the already-validated query list `next`. Durable
    /// fleets publish the master catalog *before* any engine applies the
    /// op: after any crash the persisted master version is at least every
    /// feed's, so a restart only ever fast-forwards recovered feeds — never
    /// the reverse. Publishing commits the op; an engine whose own `apply`
    /// then fails is lost, and the first such error is returned.
    fn swap_catalog(
        &mut self,
        next: Vec<CnfQuery>,
        apply: impl Fn(&mut TemporalVideoQueryEngine) -> Result<()>,
    ) -> Result<()> {
        let version = self.catalog_version + 1;
        if let Some((io, root)) = &self.spec.store {
            persist::save_fleet_catalog(io, root, &self.registry, &next, version)?;
        }
        self.queries = next;
        self.catalog_version = version;
        let mut outcome = Ok(());
        for slot in self.engines.values_mut() {
            if let Some(Err(error)) = slot.as_deref_mut().map(&apply) {
                *slot = None;
                outcome = outcome.and(Err(error));
            }
        }
        outcome
    }

    /// Whether `feed` can never be served again: lost, with no store to
    /// recover it from.
    fn is_dead(&self, feed: FeedId) -> bool {
        !self.is_durable() && self.engines.get(&feed).is_some_and(Option::is_none)
    }

    /// Processes a single feed-tagged frame. Equivalent to a one-element
    /// [`push_batch`](Self::push_batch).
    pub fn push(&mut self, feed: FeedId, frame: FrameObjects) -> Result<FeedFrameResult> {
        let mut results = self.push_batch(std::slice::from_ref(&FeedFrame::new(feed, frame)))?;
        Ok(results.pop().expect("one result per pushed frame"))
    }

    /// Ingests a batch of feed-tagged frames and returns one result per
    /// frame, **in the batch's input order** regardless of how the shares
    /// interleave.
    ///
    /// Within a batch, a feed's frames must appear in increasing frame-id
    /// order (the usual streaming contract); frames of different feeds may
    /// be interleaved arbitrarily. A batch holding a feed a non-durable
    /// fleet has lost is refused with [`Error::FeedLost`], naming the lowest
    /// such feed, before any share runs, so it applies nothing.
    ///
    /// The batch places its own feeds on the workers' shares, from its own
    /// costs (one unit per frame plus one per detection): feeds go in
    /// descending cost, ties by ascending [`FeedId`], each to the share
    /// with the least cost so far, ties to the lowest index. A share runs
    /// its frames in batch order, so each feed's frames reach its one engine
    /// in order, and the same batches produce the same results for any
    /// worker count.
    ///
    /// Each non-empty share runs on its own scoped thread, and the call
    /// returns only after every thread has joined. A share whose thread
    /// cannot be spawned runs nothing and loses nothing; a share whose
    /// thread panics loses every feed it carried. Every other share runs,
    /// and the batch then fails with the lowest-indexed failed share's
    /// [`Error::ShardLost`].
    pub fn push_batch(&mut self, batch: &[FeedFrame]) -> Result<Vec<FeedFrameResult>> {
        let costs = costs(batch);
        if let Some(&lost) = costs.keys().find(|&&feed| self.is_dead(feed)) {
            return Err(Error::FeedLost(lost));
        }
        // Group the batch's positions per share, in batch order (which
        // preserves per-feed frame order).
        let placement = place(&costs, self.config.workers);
        let mut shares = vec![Vec::new(); self.config.workers];
        for (seq, tagged) in batch.iter().enumerate() {
            shares[placement[&tagged.feed]].push(seq);
        }
        let depth = shares.iter().map(Vec::len).max().unwrap_or(0);
        self.peak_shard_depth = self.peak_shard_depth.max(depth as u64);
        // Lend each share the engines of its feeds.
        let mut lent: Vec<BTreeMap<FeedId, &mut TemporalVideoQueryEngine>> =
            shares.iter().map(|_| BTreeMap::new()).collect();
        for (&feed, slot) in &mut self.engines {
            if let (Some(&share), Some(engine)) = (placement.get(&feed), slot.as_deref_mut()) {
                lent[share].insert(feed, engine);
            }
        }
        let (spec, queries, version) = (&self.spec, &self.queries[..], self.catalog_version);
        let joined: Vec<_> = std::thread::scope(|scope| {
            let threads: Vec<_> = (shares.iter().zip(lent).enumerate())
                .map(|(worker, (share, lent))| {
                    if share.is_empty() {
                        return None;
                    }
                    let run = move || worker::run_share(spec, queries, version, batch, share, lent);
                    (std::thread::Builder::new().name(format!("tvq-shard-{worker}")))
                        .spawn_scoped(scope, run)
                        .ok()
                })
                .collect();
            (threads.into_iter())
                .map(|thread| thread.map(|thread| thread.join()))
                .collect()
        });
        let mut slots: Vec<Option<Result<FrameResult>>> = batch.iter().map(|_| None).collect();
        let (mut busy, mut busiest) = (0u64, 0u64);
        let mut failure = None;
        for (worker, (share, joined)) in shares.iter().zip(joined).enumerate() {
            let failed = match joined {
                Some(Ok(done)) => {
                    busy += done.busy_nanos;
                    busiest = busiest.max(done.busy_nanos);
                    for (feed, engine) in done.built {
                        self.engines.insert(feed, Some(engine));
                    }
                    for (seq, outcome) in done.outcomes {
                        slots[seq] = Some(outcome);
                    }
                    false
                }
                // The thread panicked mid-share, so the engines it carried
                // may be torn: every feed of the share is lost.
                Some(Err(_)) => {
                    for &seq in share {
                        self.engines.insert(batch[seq].feed, None);
                    }
                    true
                }
                // A share whose thread could not be spawned ran nothing and
                // loses nothing.
                None => !share.is_empty(),
            };
            if failed {
                failure.get_or_insert(Error::ShardLost {
                    worker,
                    queue_depth: share.len(),
                });
            }
        }
        if let Some(error) = failure {
            return Err(error);
        }
        // Worker-time telemetry: the batch cannot finish before its
        // busiest share, so only that share counts toward the critical
        // path.
        self.sched.busy_nanos += busy;
        self.sched.critical_path_nanos += busiest;
        self.sched.batches += 1;
        // Surface the earliest (by batch position) per-frame error so the
        // failure report is deterministic too.
        let mut out = Vec::with_capacity(batch.len());
        for (tagged, slot) in batch.iter().zip(slots) {
            out.push(FeedFrameResult {
                feed: tagged.feed,
                result: slot.expect("every share ran, answering each frame once")?,
            });
        }
        Ok(out)
    }

    /// Collects a deterministic global report: one [`FeedReport`] per feed
    /// in ascending feed-id order plus the merged metrics. The engines never
    /// leave the fleet's map, so the report reflects every frame every
    /// share applied. While a feed is lost the fleet has no honest
    /// answer for it, and the report is [`Error::FeedLost`] naming the
    /// lowest such feed.
    pub fn report(&self) -> Result<MultiFeedReport> {
        let feeds = (self.engines.iter())
            .map(|(&feed, slot)| {
                let engine = slot.as_ref().ok_or(Error::FeedLost(feed))?;
                let (total_matches, matching_frames) = engine.match_counters();
                Ok(FeedReport {
                    feed,
                    strategy: engine.strategy().to_owned(),
                    frames: engine.maintainer_metrics().frames_processed,
                    total_matches,
                    matching_frames,
                    live_states: engine.live_states(),
                    catalog_version: engine.catalog_version(),
                    metrics: engine.metrics(),
                })
            })
            .collect::<Result<Vec<FeedReport>>>()?;
        let mut metrics = MaintenanceMetrics::merged(feeds.iter().map(|report| &report.metrics));
        // The share depth exists fleet-wide only: per-feed engines can't
        // know it, so it is injected here rather than merged.
        metrics.per_shard_queue_depth = self.peak_shard_depth;
        Ok(MultiFeedReport {
            feeds,
            metrics,
            catalog_version: self.catalog_version,
        })
    }

    /// Flushes every per-feed engine's durable state: due snapshots are
    /// written and the WALs fsynced, one feed after another on the caller's
    /// thread; the first failure is returned after every feed was tried.
    /// No-op on a non-durable fleet; lost feeds are skipped (the
    /// per-operation fsync discipline already made all their acknowledged
    /// work durable). Dropping the engine flushes too — this is the
    /// explicit, fallible graceful-shutdown path.
    pub fn sync_store(&mut self) -> Result<()> {
        let mut outcome = Ok(());
        for engine in self.engines.values_mut().flatten() {
            outcome = outcome.and(engine.sync_store());
        }
        outcome
    }
}

/// A batch's cost per feed: one unit per frame plus one per detection.
fn costs(batch: &[FeedFrame]) -> BTreeMap<FeedId, u64> {
    let mut costs = BTreeMap::new();
    for tagged in batch {
        *costs.entry(tagged.feed).or_insert(0) += 1 + tagged.frame.classes.len() as u64;
    }
    costs
}

/// The share of each feed: feeds in descending cost, ties by ascending
/// feed, each to the share with the least cost so far, ties to the lowest
/// index (greedy longest-first, whose busiest share is within 4/3 of the
/// best split's). A pure function of `costs`.
fn place(costs: &BTreeMap<FeedId, u64>, workers: usize) -> BTreeMap<FeedId, usize> {
    let mut order: Vec<(FeedId, u64)> = costs.iter().map(|(&feed, &cost)| (feed, cost)).collect();
    // Stable, so equal costs keep their ascending feed order.
    order.sort_by_key(|&(_, cost)| std::cmp::Reverse(cost));
    let mut loads = vec![0u64; workers];
    (order.into_iter())
        .map(|(feed, cost)| {
            let share = (0..workers).min_by_key(|&share| loads[share]);
            let share = share.expect("a fleet has at least one worker");
            loads[share] += cost;
            (feed, share)
        })
        .collect()
}

impl Drop for MultiFeedEngine {
    /// Ownership rule 3.
    fn drop(&mut self) {
        let _ = self.sync_store();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use tvq_common::{ClassId, FrameId, ObjectId, WindowSpec};
    use tvq_core::MaintainerKind;

    impl MultiFeedEngine {
        /// Loses `feed`, as a panic in a share carrying it would.
        fn lose_feed(&mut self, feed: FeedId) {
            self.engines.insert(feed, None);
        }
    }

    fn frame(fid: u64, detections: &[(u32, u16)]) -> FrameObjects {
        FrameObjects::new(
            FrameId(fid),
            detections
                .iter()
                .map(|&(id, class)| (ObjectId(id), ClassId(class)))
                .collect(),
        )
    }

    fn config(workers: usize) -> MultiFeedConfig {
        MultiFeedConfig::new(
            EngineConfig::new(WindowSpec::new(4, 3).unwrap()).with_maintainer(MaintainerKind::Ssg),
        )
        .with_workers(workers)
    }

    fn engine(workers: usize) -> MultiFeedEngine {
        MultiFeedEngine::builder(config(workers))
            .with_query_text("car >= 1 AND person >= 1")
            .unwrap()
            .build()
            .unwrap()
    }

    #[test]
    fn builder_requires_queries_and_workers() {
        assert!(MultiFeedEngine::builder(config(2)).build().is_err());
        let err = MultiFeedEngine::builder(config(0))
            .with_query_text("car >= 1")
            .unwrap()
            .build();
        assert!(matches!(err, Err(Error::InvalidConfig(_))));
    }

    fn costs_of(entries: &[(u32, u64)]) -> BTreeMap<FeedId, u64> {
        (entries.iter())
            .map(|&(feed, cost)| (FeedId(feed), cost))
            .collect()
    }

    /// The skewed grid `repro skew` runs, in its three-frames-a-camera
    /// batches.
    fn skewed_batches() -> Vec<Vec<FeedFrame>> {
        let grid = tvq_video::skewed_grid(&tvq_video::SkewProfile::new(240));
        let batches = tvq_video::interleave(&grid, grid.len() * 3);
        let tagged = |batch: Vec<_>| batch.into_iter().map(FeedFrame::from).collect();
        batches.into_iter().map(tagged).collect()
    }

    #[test]
    fn the_same_batch_always_gets_the_same_placement() {
        let batch: Vec<FeedFrame> = (0..12u64)
            .map(|k| {
                let feed = (k * 7 % 5) as u32;
                let detections: Vec<(u32, u16)> =
                    (0..feed + k as u32 % 4).map(|d| (d, 1)).collect();
                FeedFrame::new(FeedId(feed), frame(k, &detections))
            })
            .collect();
        let placement = place(&costs(&batch), 3);
        assert_eq!(placement.len(), 5);
        assert_eq!(place(&costs(&batch), 3), placement);
        // Only per-feed costs count, not where in the batch a frame sits.
        let reversed: Vec<FeedFrame> = batch.iter().rev().cloned().collect();
        assert_eq!(place(&costs(&reversed), 3), placement);
    }

    #[test]
    fn hot_feeds_colliding_under_mod_four_land_on_different_shares() {
        let costs = costs_of(&[
            (0, 10),
            (1, 1000),
            (2, 10),
            (3, 10),
            (4, 10),
            (5, 1000),
            (6, 10),
            (7, 10),
        ]);
        let placement = place(&costs, 4);
        assert_ne!(placement[&FeedId(1)], placement[&FeedId(5)]);
    }

    #[test]
    fn a_giant_feed_ends_up_alone_on_its_share() {
        let placement = place(&costs_of(&[(0, 10), (1, 10), (2, 1000), (3, 10)]), 2);
        let giant = placement[&FeedId(2)];
        assert!(
            (placement.iter()).all(|(&feed, &share)| feed == FeedId(2) || share != giant),
            "{placement:?}"
        );
    }

    #[test]
    fn placement_ties_break_on_the_lowest_feed_then_the_lowest_share() {
        let equal = costs_of(&[(5, 3), (4, 3), (3, 3), (2, 3), (1, 3), (0, 3)]);
        let shares: Vec<usize> = place(&equal, 4).into_values().collect();
        assert_eq!(shares, [0, 1, 2, 3, 0, 1]);
        // Feed 7 (8) takes share 0, feeds 2 and 3 (4 each) fill share 1 to
        // 8, and feed 9 goes to the lower of the two tied shares.
        let mixed = place(&costs_of(&[(2, 4), (3, 4), (7, 8), (9, 3)]), 2);
        assert_eq!(mixed.into_values().collect::<Vec<_>>(), [1, 1, 0, 0]);
    }

    /// On the skewed grid the per-batch critical path in cost units beats
    /// the `feed mod 4` split the hot set collides under, and stays within
    /// 4/3 of the lower bound `max(total / 4, largest feed)` every batch.
    #[test]
    fn placement_beats_the_static_split_on_the_skewed_grid() {
        let (mut placed, mut modulo) = (0u64, 0u64);
        for batch in skewed_batches() {
            let costs = costs(&batch);
            let placement = place(&costs, 4);
            let busiest = |share_of: &dyn Fn(FeedId) -> usize| {
                let mut loads = [0u64; 4];
                for (&feed, &cost) in &costs {
                    loads[share_of(feed)] += cost;
                }
                loads.into_iter().max().unwrap()
            };
            let critical = busiest(&|feed| placement[&feed]);
            let total: u64 = costs.values().sum();
            let largest = costs.values().copied().max().unwrap();
            assert!(
                3 * 4 * critical <= 4 * total.max(4 * largest),
                "critical {critical}, total {total}, largest {largest}"
            );
            placed += critical;
            modulo += busiest(&|feed| feed.raw() as usize % 4);
        }
        assert!(placed < modulo, "placed {placed} vs feed mod 4 {modulo}");
    }

    #[test]
    fn a_feed_changes_share_across_the_hotspot_flip() {
        let batches = skewed_batches();
        let placement = |batch: &[FeedFrame]| place(&costs(batch), 4);
        let (before, after) = (placement(&batches[0]), placement(batches.last().unwrap()));
        assert_eq!(before.len(), 12);
        assert!(
            before.iter().any(|(feed, share)| after[feed] != *share),
            "{before:?}"
        );
    }

    #[test]
    fn batch_results_preserve_input_order() {
        let mut engine = engine(2);
        let batch: Vec<FeedFrame> = (0..4u32)
            .flat_map(|feed| {
                (0..3u64)
                    .map(move |fid| FeedFrame::new(FeedId(feed), frame(fid, &[(1, 1), (2, 0)])))
            })
            .collect();
        let results = engine.push_batch(&batch).unwrap();
        assert_eq!(results.len(), batch.len());
        for (tagged, result) in batch.iter().zip(&results) {
            assert_eq!(result.feed, tagged.feed);
            assert_eq!(result.result.frame, tagged.frame.fid);
        }
    }

    #[test]
    fn per_feed_streams_are_isolated() {
        let mut engine = engine(2);
        // Feed 0 sees the car+person pair for 3 frames; feed 1 only a car.
        let mut batch = Vec::new();
        for fid in 0..3u64 {
            batch.push(FeedFrame::new(FeedId(0), frame(fid, &[(1, 1), (2, 0)])));
            batch.push(FeedFrame::new(FeedId(1), frame(fid, &[(1, 1)])));
        }
        let results = engine.push_batch(&batch).unwrap();
        let matched: Vec<FeedId> = results
            .iter()
            .filter(|r| r.result.any())
            .map(|r| r.feed)
            .collect();
        assert_eq!(matched, vec![FeedId(0)]);
        let report = engine.report().unwrap();
        assert_eq!(report.num_feeds(), 2);
        assert_eq!(report.feeds[0].feed, FeedId(0));
        assert_eq!(report.feeds[0].matching_frames, 1);
        assert_eq!(report.feeds[1].matching_frames, 0);
        assert_eq!(report.total_frames(), 6);
        assert_eq!(report.metrics.frames_processed, 6);
    }

    #[test]
    fn out_of_order_frames_error_without_killing_the_pool() {
        let mut engine = engine(1);
        engine.push(FeedId(0), frame(5, &[(1, 1)])).unwrap();
        let err = engine.push(FeedId(0), frame(2, &[(1, 1)]));
        assert!(matches!(err, Err(Error::OutOfOrderFrame { .. })));
        // The pool survives and other feeds still work.
        let ok = engine.push(FeedId(1), frame(0, &[(1, 1), (2, 0)]));
        assert!(ok.is_ok());
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let batch: Vec<FeedFrame> = (0..6u32)
            .flat_map(|feed| {
                (0..8u64).map(move |fid| {
                    let mut detections = vec![((feed + fid as u32) % 4, 1u16)];
                    if (fid + u64::from(feed)) % 2 == 0 {
                        detections.push((10 + feed, 0));
                    }
                    FeedFrame::new(FeedId(feed), frame(fid, &detections))
                })
            })
            .collect();
        let mut baseline = None;
        for workers in [1usize, 2, 5] {
            let mut engine = engine(workers);
            let results = engine.push_batch(&batch).unwrap();
            let report = engine.report().unwrap();
            match &baseline {
                None => baseline = Some((results, report)),
                Some((expected_results, expected_report)) => {
                    assert_eq!(&results, expected_results, "workers={workers}");
                    // Scheduler-owned metrics legitimately depend on the
                    // worker count (queue depths differ); everything else
                    // must not.
                    let mut report = report;
                    report.metrics.per_shard_queue_depth =
                        expected_report.metrics.per_shard_queue_depth;
                    assert_eq!(&report, expected_report, "workers={workers}");
                }
            }
        }
    }

    /// A share that panics is named by its index within the batch, with
    /// its frame count: feed 1's three frames cost more than feed 0's one,
    /// so they run on share 0, whatever `feed mod 2` would say.
    #[test]
    fn shard_lost_names_the_worker_and_its_queue_depth() {
        let (io, mut fleet) = PanicOnFeed1::fleet();
        for fid in 0..2u64 {
            let batch = vec![
                FeedFrame::new(FeedId(0), frame(fid, &[(1, 1), (2, 0)])),
                FeedFrame::new(FeedId(1), frame(fid, &[(1, 1), (2, 0)])),
            ];
            fleet.push_batch(&batch).unwrap();
        }
        io.armed.store(true, Ordering::SeqCst);
        let batch = vec![
            FeedFrame::new(FeedId(0), frame(2, &[(1, 1), (2, 0)])),
            FeedFrame::new(FeedId(1), frame(2, &[(1, 1)])),
            FeedFrame::new(FeedId(1), frame(3, &[(1, 1)])),
            FeedFrame::new(FeedId(1), frame(4, &[(1, 1)])),
        ];
        match fleet.push_batch(&batch).unwrap_err() {
            Error::ShardLost {
                worker,
                queue_depth,
            } => {
                assert_eq!(worker, 0);
                assert_eq!(queue_depth, 3, "the error reports the failed share's size");
            }
            other => panic!("expected ShardLost, got {other:?}"),
        }
    }

    /// A batch holding a lost feed is refused before any share runs, so the
    /// live feed's frame in it is not applied either: sent again, it is
    /// accepted and answers what the oracle answers.
    #[test]
    fn aborted_batches_do_not_leak_stale_results() {
        let mut oracle = engine(1);
        let mut engine = engine(2);
        for fid in 0..2u64 {
            let batch = vec![
                FeedFrame::new(FeedId(0), frame(fid, &[(1, 1), (2, 0)])),
                FeedFrame::new(FeedId(1), frame(fid, &[(1, 1), (2, 0)])),
            ];
            engine.push_batch(&batch).unwrap();
            oracle.push_batch(&batch).unwrap();
        }
        engine.lose_feed(FeedId(1));
        let aborted = vec![
            FeedFrame::new(FeedId(0), frame(2, &[(1, 1), (2, 0)])),
            FeedFrame::new(FeedId(1), frame(2, &[(1, 1)])),
        ];
        assert!(matches!(
            engine.push_batch(&aborted),
            Err(Error::FeedLost(FeedId(1)))
        ));
        for fid in 2..4u64 {
            let expected = oracle
                .push(FeedId(0), frame(fid, &[(1, 1), (2, 0)]))
                .unwrap();
            let got = engine
                .push(FeedId(0), frame(fid, &[(1, 1), (2, 0)]))
                .unwrap();
            assert_eq!(got, expected, "frame {fid}");
        }
    }

    #[test]
    fn catalog_swaps_reach_every_shard_in_stream_order() {
        let mut engine = engine(3);
        // Warm two feeds under the original car+person query.
        for fid in 0..2u64 {
            for feed in 0..2u32 {
                engine
                    .push(FeedId(feed), frame(fid, &[(1, 1), (2, 0)]))
                    .unwrap();
            }
        }
        let person = engine.add_query_text("person >= 1").unwrap();
        assert_eq!(engine.catalog_version(), 1);
        // Enough frames for the new query's window (duration 3) to fill.
        let mut results = Vec::new();
        for fid in 2..6u64 {
            for feed in 0..2u32 {
                results.push(
                    engine
                        .push(FeedId(feed), frame(fid, &[(1, 1), (2, 0)]))
                        .unwrap(),
                );
            }
        }
        assert!(
            results
                .iter()
                .any(|r| r.result.matches.iter().any(|m| m.query == person)),
            "the added query matches on every feed"
        );
        engine.remove_query(person).unwrap();
        let last = engine.push(FeedId(0), frame(6, &[(1, 1), (2, 0)])).unwrap();
        assert!(
            last.result.matches.iter().all(|m| m.query != person),
            "removal is immediate"
        );
        let report = engine.report().unwrap();
        assert_eq!(report.catalog_version, 2);
        assert!(report.feeds.iter().all(|feed| feed.catalog_version == 2));
    }

    /// A catalog swap followed at once by a change of placement must reach
    /// the moved engine exactly once: the swap is applied to the engine at
    /// home, and the move carries no state.
    #[test]
    fn placement_changes_and_catalog_swaps_interleave_exactly_once() {
        let mut subject = engine(2);
        let mut oracle = engine(1);
        // Feed 1 costs what feed 0 does (share 1), then more (share 0).
        let batch = |fid: u64, busy: bool| {
            let busy: &[(u32, u16)] = if busy { &[(3, 1), (4, 0)] } else { &[] };
            vec![
                FeedFrame::new(FeedId(0), frame(fid, &[(1, 1), (2, 0)])),
                FeedFrame::new(
                    FeedId(1),
                    frame(fid, &[&[(1, 1), (2, 0)][..], busy].concat()),
                ),
            ]
        };
        let share_of_feed_1 = |batch: &[FeedFrame]| place(&costs(batch), 2)[&FeedId(1)];
        for fid in 0..2u64 {
            let batch = batch(fid, false);
            assert_eq!(share_of_feed_1(&batch), 1);
            assert_eq!(
                subject.push_batch(&batch).unwrap(),
                oracle.push_batch(&batch).unwrap()
            );
        }
        let person_s = subject.add_query_text("person >= 1").unwrap();
        let person_o = oracle.add_query_text("person >= 1").unwrap();
        assert_eq!(person_s, person_o);
        for fid in 2..6u64 {
            let batch = batch(fid, true);
            assert_eq!(share_of_feed_1(&batch), 0);
            assert_eq!(
                subject.push_batch(&batch).unwrap(),
                oracle.push_batch(&batch).unwrap(),
                "frame {fid}"
            );
        }
        let report = subject.report().unwrap();
        assert_eq!(report.catalog_version, 1);
        assert!(report.feeds.iter().all(|f| f.catalog_version == 1));
        assert_eq!(
            report.feeds[1].metrics.catalog_swaps, 1,
            "the moved engine saw the swap exactly once"
        );
    }

    /// The stale-spec regression: a feed first seen *after* catalog swaps
    /// must answer under the swapped query set (and report the fleet's
    /// version), not the query set the fleet was built with.
    #[test]
    fn feeds_arriving_after_a_swap_use_the_current_catalog() {
        let mut engine = engine(2);
        engine.push(FeedId(0), frame(0, &[(1, 1)])).unwrap();
        let person = engine.add_query_text("person >= 1").unwrap();
        // Feed 7 has never been seen; its engine is built lazily *now*.
        for fid in 0..3u64 {
            let result = engine.push(FeedId(7), frame(fid, &[(9, 0)])).unwrap();
            if fid == 2 {
                assert!(
                    result.result.matches.iter().any(|m| m.query == person),
                    "a lazily built engine must know the added query: {:?}",
                    result.result.matches
                );
            }
        }
        let report = engine.report().unwrap();
        assert_eq!(report.catalog_version, 1);
        for feed in &report.feeds {
            assert_eq!(feed.catalog_version, 1, "feed {} is stale", feed.feed);
        }
    }

    #[test]
    fn catalog_ops_validate_centrally() {
        let mut engine = engine(2);
        // Duplicate id: the builder registered QueryId(0).
        let dup = CnfQuery::conjunction(
            QueryId(0),
            vec![tvq_query::Condition::at_least(ClassId(1), 1)],
        );
        assert!(engine.add_query(dup).is_err());
        assert!(engine.remove_query(QueryId(9)).is_err());
        assert_eq!(engine.catalog_version(), 0, "failed ops don't bump");
        assert_eq!(engine.queries().len(), 1);
    }

    #[test]
    fn empty_fleet_starts_idle_and_accepts_queries() {
        assert!(MultiFeedEngine::builder(config(2)).build().is_err());
        let mut engine = MultiFeedEngine::builder(config(2))
            .allow_empty_catalog()
            .build()
            .unwrap();
        let result = engine.push(FeedId(0), frame(0, &[(1, 1)])).unwrap();
        assert!(!result.result.any());
        let car = engine.add_query_text("car >= 1").unwrap();
        for fid in 1..4u64 {
            let result = engine.push(FeedId(0), frame(fid, &[(1, 1)])).unwrap();
            if fid == 3 {
                assert!(result.result.matches.iter().any(|m| m.query == car));
            }
        }
    }

    #[test]
    fn report_merges_metrics_across_feeds() {
        let mut engine = engine(2);
        for fid in 0..4u64 {
            for feed in 0..3u32 {
                engine
                    .push(FeedId(feed), frame(fid, &[(1, 1), (2, 0)]))
                    .unwrap();
            }
        }
        let report = engine.report().unwrap();
        assert_eq!(report.num_feeds(), 3);
        let mut summed = MaintenanceMetrics::merged(report.feeds.iter().map(|f| &f.metrics));
        // The share depth is injected fleet-wide, not merged from the
        // per-feed metrics (which must report it as zero).
        assert!((report.feeds.iter()).all(|f| f.metrics.per_shard_queue_depth == 0));
        summed.per_shard_queue_depth = report.metrics.per_shard_queue_depth;
        assert_eq!(report.metrics, summed);
        assert_eq!(
            (report.metrics.feeds_migrated, report.metrics.rebalances),
            (0, 0),
            "nothing writes them"
        );
        assert_eq!(report.metrics.frames_processed, 12);
        assert_eq!(report.metrics.per_shard_queue_depth, 1, "single pushes");
        assert!(report.feeds.windows(2).all(|w| w[0].feed < w[1].feed));
    }

    fn durable_fleet(disk: &tvq_store::MemDisk, workers: usize) -> MultiFeedEngine {
        MultiFeedEngine::builder(config(workers))
            .with_query_text("car >= 1 AND person >= 1")
            .unwrap()
            .with_store(disk.io(), Path::new("/fleet"))
            .build()
            .unwrap()
    }

    fn mixed_batch(fid: u64) -> Vec<FeedFrame> {
        (0..4u32)
            .map(|feed| {
                FeedFrame::new(
                    FeedId(feed),
                    frame(fid, &[(feed + 1, 1), (9, 0), (feed, (fid % 2) as u16)]),
                )
            })
            .collect()
    }

    /// The recovery path: losing a worker's feeds in a durable fleet must
    /// be invisible — a catalog op skips the lost feeds, the next frame
    /// push recovers them from the store under the master catalog, and
    /// every result and per-feed tally matches a fleet that never lost a
    /// feed.
    #[test]
    fn durable_fleet_survives_worker_loss_transparently() {
        let disk = tvq_store::MemDisk::new();
        let mut oracle = engine(2);
        let mut subject = durable_fleet(&disk, 2);
        assert!(subject.is_durable() && !oracle.is_durable());
        for fid in 0..3u64 {
            let batch = mixed_batch(fid);
            let expected = oracle.push_batch(&batch).unwrap();
            let got = subject.push_batch(&batch).unwrap();
            assert_eq!(got, expected, "pre-crash frame {fid}");
        }
        // Lose feeds 1 and 3, then swap the catalog: the op must succeed
        // on the feeds still in the fleet rather than error.
        subject.lose_feed(FeedId(1));
        subject.lose_feed(FeedId(3));
        let person_s = subject.add_query_text("person >= 1").unwrap();
        let person_o = oracle.add_query_text("person >= 1").unwrap();
        assert_eq!(person_s, person_o);
        for fid in 3..7u64 {
            let batch = mixed_batch(fid);
            let expected = oracle.push_batch(&batch).unwrap();
            let got = subject.push_batch(&batch).unwrap();
            assert_eq!(got, expected, "post-recovery frame {fid}");
        }
        // Lose the other two; the frames path heals these.
        subject.lose_feed(FeedId(0));
        subject.lose_feed(FeedId(2));
        for fid in 7..9u64 {
            let batch = mixed_batch(fid);
            let expected = oracle.push_batch(&batch).unwrap();
            let got = subject.push_batch(&batch).unwrap();
            assert_eq!(got, expected, "second-recovery frame {fid}");
        }
        let subject_report = subject.report().unwrap();
        let oracle_report = oracle.report().unwrap();
        assert_eq!(
            subject_report.catalog_version,
            oracle_report.catalog_version
        );
        assert_eq!(subject_report.feeds.len(), oracle_report.feeds.len());
        for (a, b) in subject_report.feeds.iter().zip(&oracle_report.feeds) {
            assert_eq!(a.feed, b.feed);
            assert_eq!(a.frames, b.frames, "feed {} frames", a.feed);
            assert_eq!(a.total_matches, b.total_matches);
            assert_eq!(a.matching_frames, b.matching_frames);
            assert_eq!(a.catalog_version, b.catalog_version);
        }
        assert_eq!(
            subject_report.metrics.frames_processed,
            oracle_report.metrics.frames_processed
        );
        assert!(
            subject_report.metrics.recoveries > 0,
            "the lost feeds were recovered from the store"
        );
    }

    /// The restart path: dropping a durable fleet and rebuilding over the
    /// same directory resumes it — persisted master catalog (superseding
    /// the builder's queries), recovered per-feed engines, whole-lifetime
    /// tallies — and continues frame-for-frame like a fleet that never
    /// stopped.
    #[test]
    fn durable_fleet_restarts_from_the_store() {
        let disk = tvq_store::MemDisk::new();
        let mut oracle = engine(2);
        let person_o = {
            let mut fleet = durable_fleet(&disk, 2);
            for fid in 0..4u64 {
                let batch = mixed_batch(fid);
                assert_eq!(
                    fleet.push_batch(&batch).unwrap(),
                    oracle.push_batch(&batch).unwrap()
                );
            }
            let person_f = fleet.add_query_text("person >= 1").unwrap();
            let person_o = oracle.add_query_text("person >= 1").unwrap();
            assert_eq!(person_f, person_o);
            for fid in 4..6u64 {
                let batch = mixed_batch(fid);
                assert_eq!(
                    fleet.push_batch(&batch).unwrap(),
                    oracle.push_batch(&batch).unwrap()
                );
            }
            fleet.sync_store().unwrap();
            person_o
            // Dropping the fleet flushes the engines and releases every
            // per-feed directory lock.
        };
        let mut fleet = durable_fleet(&disk, 2);
        assert_eq!(
            fleet.catalog_version(),
            1,
            "the persisted master catalog supersedes the builder's"
        );
        assert_eq!(fleet.queries().len(), 2);
        for fid in 6..9u64 {
            let batch = mixed_batch(fid);
            assert_eq!(
                fleet.push_batch(&batch).unwrap(),
                oracle.push_batch(&batch).unwrap(),
                "post-restart frame {fid}"
            );
        }
        // Removing the recovered query proves the restarted master list is
        // live, not just displayed.
        fleet.remove_query(person_o).unwrap();
        oracle.remove_query(person_o).unwrap();
        let batch = mixed_batch(9);
        assert_eq!(
            fleet.push_batch(&batch).unwrap(),
            oracle.push_batch(&batch).unwrap()
        );
        let fleet_report = fleet.report().unwrap();
        let oracle_report = oracle.report().unwrap();
        for (a, b) in fleet_report.feeds.iter().zip(&oracle_report.feeds) {
            assert_eq!(
                a.frames, b.frames,
                "whole-lifetime tally of feed {}",
                a.feed
            );
            assert_eq!(a.total_matches, b.total_matches);
            assert_eq!(a.matching_frames, b.matching_frames);
        }
        assert_eq!(
            fleet_report.metrics.frames_processed,
            oracle_report.metrics.frames_processed
        );
        assert_eq!(fleet_report.metrics.recoveries, 4, "one per recovered feed");
        assert_eq!(fleet_report.catalog_version, 2);
    }

    /// A damaged master catalog must never decode: a flipped bit inside a
    /// persisted threshold (`car >= 1` → `car >= 65`) is still well-formed
    /// `TVQF`, and only the checksum keeps every feed from being
    /// fast-forwarded to a silently different query. Every byte of the file
    /// is covered, and the intact file still restarts afterwards. A publish
    /// that fails is [`Error::Store`] naming the step that failed.
    #[test]
    fn damaged_fleet_catalog_is_corrupt_never_a_different_query() {
        let disk = tvq_store::MemDisk::new();
        durable_fleet(&disk, 2).sync_store().unwrap();
        let path = Path::new("/fleet").join(persist::FLEET_CATALOG);
        let len = disk.io().read(&path).unwrap().len();
        for offset in 0..len {
            assert!(disk.flip_bit(&path, offset));
            let err = MultiFeedEngine::builder(config(2))
                .with_store(disk.io(), Path::new("/fleet"))
                .build()
                .err()
                .unwrap_or_else(|| panic!("flipped byte {offset} of {len} went unnoticed"));
            assert!(matches!(err, Error::Corrupt(_)), "byte {offset}: {err}");
            assert!(disk.flip_bit(&path, offset), "flip it back");
        }
        assert_eq!(durable_fleet(&disk, 2).queries().len(), 1);

        // A failed publish names its step, as a failed snapshot save does.
        for (op, step) in ["write", "fsync", "rename", "fsync"]
            .into_iter()
            .enumerate()
        {
            let err = MultiFeedEngine::builder(config(2))
                .with_query_text("car >= 1")
                .unwrap()
                .with_store(
                    disk.fault_io(op as u64 + 1, tvq_store::TornTail::Drop),
                    Path::new("/fresh"),
                )
                .build()
                .err()
                .unwrap_or_else(|| panic!("crash at publish op {op} went unnoticed"));
            assert!(
                matches!(&err, Error::Store(m) if m.starts_with(&format!("{step} fleet catalog"))),
                "op {op}: {err}"
            );
        }
    }

    /// A feed's store failing inside a catalog op used to vanish into a
    /// worker thread (`debug_assert!` there, nothing in release). Now the
    /// caller gets the error, and whatever the crash point — inside the
    /// master publish or inside any feed's WAL append/fsync — a fleet
    /// reopened on the healthy disk has every feed at the master version
    /// and continues like a fleet that applied (or never saw) the op.
    #[test]
    fn durable_fleet_surfaces_a_failed_catalog_op_and_restarts_coherent() {
        let warm = |fleet: &mut MultiFeedEngine| {
            for fid in 0..3u64 {
                fleet.push_batch(&mixed_batch(fid)).unwrap();
            }
        };
        let on = |io: SharedIo| {
            MultiFeedEngine::builder(config(2))
                .with_query_text("car >= 1 AND person >= 1")
                .unwrap()
                .with_store(io, Path::new("/fleet"))
                .build()
                .unwrap()
        };
        // A fault-free pass counts the store operations the op spans.
        let (before, after) = {
            let io = tvq_store::MemDisk::new().fault_io(u64::MAX, tvq_store::TornTail::Drop);
            let mut fleet = on(io.clone());
            warm(&mut fleet);
            let before = io.ops();
            fleet.add_query_text("person >= 1").unwrap();
            (before, io.ops())
        };
        assert!(after - before > 4, "the op reaches the feeds' WALs");
        for crash_at in before + 1..=after {
            for torn in tvq_store::TornTail::ALL {
                let disk = tvq_store::MemDisk::new();
                let mut fleet = on(disk.fault_io(crash_at, torn));
                warm(&mut fleet);
                let err = fleet.add_query_text("person >= 1").unwrap_err();
                assert!(matches!(err, Error::Store(_)), "op {crash_at}: {err}");
                drop(fleet);

                let mut fleet = on(disk.io());
                let mut oracle = engine(2);
                warm(&mut oracle);
                if fleet.catalog_version() == 1 {
                    oracle.add_query_text("person >= 1").unwrap();
                } else {
                    assert!(
                        crash_at <= before + 4,
                        "past the publish the op is in force"
                    );
                }
                for fid in 3..6u64 {
                    assert_eq!(
                        fleet.push_batch(&mixed_batch(fid)).unwrap(),
                        oracle.push_batch(&mixed_batch(fid)).unwrap(),
                        "op {crash_at} {torn:?} frame {fid}"
                    );
                }
                let report = fleet.report().unwrap();
                assert_eq!(report.feeds.len(), 4);
                assert!(report
                    .feeds
                    .iter()
                    .all(|feed| feed.catalog_version == fleet.catalog_version()));
            }
        }
    }

    /// Ownership rule 2 without a store: a lost feed stays lost. Every batch
    /// holding it is refused whole, naming the lowest lost feed, and so is
    /// the report; the rest of the fleet carries on.
    #[test]
    fn lost_feeds_of_a_non_durable_fleet_are_never_resurrected() {
        let mut engine = engine(2);
        let hot: Vec<(u32, u16)> = (0..20u32).map(|k| (k + 1, (k % 2) as u16)).collect();
        let batch = |fid: u64, feeds: &[u32]| -> Vec<FeedFrame> {
            (feeds.iter())
                .map(|&feed| FeedFrame::new(FeedId(feed), frame(fid, &hot)))
                .collect()
        };
        for fid in 0..4u64 {
            engine.push_batch(&batch(fid, &[0, 1, 3])).unwrap();
        }
        engine.lose_feed(FeedId(1));
        engine.lose_feed(FeedId(3));
        for feed in [1u32, 3] {
            assert!(matches!(
                engine.push(FeedId(feed), frame(4, &hot)),
                Err(Error::FeedLost(lost)) if lost == FeedId(feed)
            ));
        }
        assert!(matches!(
            engine.push_batch(&batch(4, &[0, 3, 1])),
            Err(Error::FeedLost(FeedId(1)))
        ));
        assert!(matches!(engine.report(), Err(Error::FeedLost(FeedId(1)))));
        // Feed 0's frame 4 was refused with the batch, so it is still next.
        engine.push(FeedId(0), frame(4, &hot)).unwrap();
    }

    /// Non-durable fleets keep the fail-fast contract: a lost feed is an
    /// error, never a silent partial answer (`shard_lost_names_the_worker`
    /// pins a failed share's diagnostics; this pins that durability is what
    /// opts into healing).
    #[test]
    fn non_durable_fleets_do_not_respawn() {
        let mut engine = engine(2);
        engine.push(FeedId(1), frame(0, &[(1, 1), (2, 0)])).unwrap();
        engine.lose_feed(FeedId(1));
        assert!(matches!(
            engine.push(FeedId(1), frame(1, &[(1, 1), (2, 0)])),
            Err(Error::FeedLost(FeedId(1)))
        ));
        assert!(!engine.is_durable());
        engine.sync_store().unwrap();
    }

    /// A view of a [`MemDisk`](tvq_store::MemDisk) that panics on an
    /// `append` under `/fleet/feed-1` while armed.
    struct PanicOnFeed1 {
        disk: SharedIo,
        armed: AtomicBool,
    }

    impl PanicOnFeed1 {
        /// A durable two-worker fleet on a disarmed view.
        fn fleet() -> (Arc<PanicOnFeed1>, MultiFeedEngine) {
            let io = Arc::new(PanicOnFeed1 {
                disk: tvq_store::MemDisk::new().io(),
                armed: AtomicBool::new(false),
            });
            let fleet = MultiFeedEngine::builder(config(2))
                .with_query_text("car >= 1 AND person >= 1")
                .unwrap()
                .with_store(io.clone(), Path::new("/fleet"))
                .build()
                .unwrap();
            (io, fleet)
        }
    }

    impl tvq_store::StoreIo for PanicOnFeed1 {
        fn create_dir_all(&self, dir: &Path) -> std::io::Result<()> {
            self.disk.create_dir_all(dir)
        }
        fn list(&self, dir: &Path) -> std::io::Result<Vec<String>> {
            self.disk.list(dir)
        }
        fn read(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            self.disk.read(path)
        }
        fn append(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            if self.armed.load(Ordering::SeqCst) && path.starts_with("/fleet/feed-1") {
                panic!("injected panic appending to {}", path.display());
            }
            self.disk.append(path, bytes)
        }
        fn write_file(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
            self.disk.write_file(path, bytes)
        }
        fn truncate(&self, path: &Path, len: u64) -> std::io::Result<()> {
            self.disk.truncate(path, len)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            self.disk.rename(from, to)
        }
        fn remove(&self, path: &Path) -> std::io::Result<()> {
            self.disk.remove(path)
        }
        fn fsync(&self, path: &Path) -> std::io::Result<()> {
            self.disk.fsync(path)
        }
        fn fsync_dir(&self, dir: &Path) -> std::io::Result<()> {
            self.disk.fsync_dir(dir)
        }
        fn exists(&self, path: &Path) -> bool {
            self.disk.exists(path)
        }
        fn disk_id(&self) -> usize {
            self.disk.disk_id()
        }
    }

    /// Ownership rule 2 with a share that really panics: feed 1's thread
    /// dies logging frame 3. The batch names that share, the other share's
    /// frame is applied, and feed 1 is recovered from the store at its next
    /// frame — holding exactly the frames it acknowledged.
    #[test]
    fn a_panicking_share_loses_its_feeds_and_the_store_recovers_them() {
        let (io, mut fleet) = PanicOnFeed1::fleet();
        let mut oracle = engine(2);
        let pair = |fid: u64| -> Vec<FeedFrame> {
            (0..2u32)
                .map(|feed| FeedFrame::new(FeedId(feed), frame(fid, &[(1, 1), (2, 0)])))
                .collect()
        };
        for fid in 0..3u64 {
            assert_eq!(
                fleet.push_batch(&pair(fid)).unwrap(),
                oracle.push_batch(&pair(fid)).unwrap()
            );
        }
        io.armed.store(true, Ordering::SeqCst);
        assert!(matches!(
            fleet.push_batch(&pair(3)),
            Err(Error::ShardLost {
                worker: 1,
                queue_depth: 1
            })
        ));
        io.armed.store(false, Ordering::SeqCst);
        assert!(matches!(fleet.report(), Err(Error::FeedLost(FeedId(1)))));
        // Only feed 0's frame 3 was applied and acknowledged to the store.
        oracle.push_batch(&pair(3)[..1]).unwrap();
        for fid in 4..8u64 {
            assert_eq!(
                fleet.push_batch(&pair(fid)).unwrap(),
                oracle.push_batch(&pair(fid)).unwrap(),
                "frame {fid}"
            );
        }
        let tallies = |report: MultiFeedReport| -> Vec<(u64, u64, u64)> {
            (report.feeds.iter())
                .map(|f| (f.frames, f.total_matches, f.matching_frames))
                .collect()
        };
        let report = fleet.report().unwrap();
        assert_eq!(report.metrics.recoveries, 1, "feed 1, once");
        let tallies = (tallies(report), tallies(oracle.report().unwrap()));
        assert_eq!(tallies.0, tallies.1);
        assert_eq!((tallies.0[0].0, tallies.0[1].0), (8, 7));
    }

    #[test]
    fn scheduling_stats_accumulate() {
        let mut engine = engine(2);
        let batch: Vec<FeedFrame> = (0..4u32)
            .map(|feed| FeedFrame::new(FeedId(feed), frame(0, &[(1, 1), (2, 0)])))
            .collect();
        engine.push_batch(&batch).unwrap();
        let stats = engine.scheduling_stats();
        assert_eq!(stats.batches, 1);
        assert!(stats.busy_nanos >= stats.critical_path_nanos);
        assert!(stats.critical_path_nanos > 0);
        assert!(stats.schedule_parallelism() >= 1.0);
    }
}
