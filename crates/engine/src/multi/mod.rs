//! Sharded multi-feed engine, placing each batch by its own cost.
//!
//! The paper's three layers run per feed and share nothing across feeds, so
//! a deployment watching N cameras is exactly N single-feed
//! [`TemporalVideoQueryEngine`]s, each fed its own frames in order.
//! [`MultiFeedEngine`] owns those engines, keyed by [`FeedId`], and runs
//! each batch as a fork/join:
//!
//! * [`MultiFeedEngine::push_batch`] builds the engine of each new feed,
//!   splits the batch into one share per worker and runs every non-empty
//!   share on its own scoped thread (`std::thread::scope`), which borrows
//!   the engines of the share's feeds from the fleet's map; the per-frame
//!   results come back in the batch's input order once every thread has
//!   joined;
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
//! The fleet's map owns every engine from birth: `push_batch` builds the
//! engine of a feed it sees for the first time in the map, on the caller's
//! thread and on a fork of the fleet's master [`QueryCatalog`], before it
//! places the shares. A share's thread only borrows engines, so a report is
//! a read, and a catalog op is a master-catalog op (which holds the rules,
//! so a refused op touches no engine) followed by the same op on every
//! engine. Two rules hold:
//!
//! 1. **Engines stay home.** `push_batch` returns — `Ok` or `Err` — only
//!    after every thread it spawned has joined, so no engine is ever
//!    anywhere but in its slot between calls. A share whose thread cannot
//!    be spawned runs nothing and loses nothing.
//! 2. **Lost is lost.** A share whose thread panics loses every feed it
//!    carried (the engines may be torn mid-frame). The fleet answers
//!    [`Error::FeedLost`] for a lost feed from then on, refusing any batch
//!    that holds it before a share runs — never a silently fresh engine.
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

use std::collections::BTreeMap;
use std::time::Instant;

use tvq_common::{ClassRegistry, Error, FeedId, FrameObjects, QueryId, Result};
use tvq_core::MaintenanceMetrics;
use tvq_query::CnfQuery;

use crate::catalog::QueryCatalog;
use crate::config::MultiFeedConfig;
use crate::engine::{Builder, FrameResult, TemporalVideoQueryEngine};

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

/// Builder for [`MultiFeedEngine`]: queries registered here form the
/// catalog every per-feed engine is built from.
pub type MultiFeedBuilder = Builder<MultiFeedConfig>;

impl Builder<MultiFeedConfig> {
    /// Builds the engine; fails on a zero worker count too.
    pub fn build(self) -> Result<MultiFeedEngine> {
        let (config, registry, catalog) = self.into_parts()?;
        if config.workers == 0 {
            return Err(Error::InvalidConfig(
                "multi-feed engine needs at least one worker".to_owned(),
            ));
        }
        Ok(MultiFeedEngine {
            config,
            registry,
            catalog,
            engines: BTreeMap::new(),
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
    /// The master class registry: textual queries added over
    /// [`add_query_text`](Self::add_query_text) register their labels here,
    /// and a new per-feed engine starts with a copy.
    registry: ClassRegistry,
    /// The master catalog: every engine's catalog mirrors it, at its
    /// version, and a new feed's engine is built on a
    /// [`fork`](QueryCatalog::fork) of it.
    catalog: QueryCatalog,
    /// Every feed's engine. An empty slot is a *lost* feed: a share
    /// carrying it panicked (ownership rule 2).
    engines: BTreeMap<FeedId, Option<TemporalVideoQueryEngine>>,
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
        self.catalog.version()
    }

    /// The currently registered queries (the master copy every per-feed
    /// engine mirrors).
    pub fn queries(&self) -> &[CnfQuery] {
        self.catalog.queries()
    }

    /// Registers a query across the whole fleet: behind every frame already
    /// pushed and ahead of every frame pushed later, for every feed alike.
    ///
    /// Once the master catalog accepts the op, every engine does too: each
    /// engine's catalog is the master's, at the same version, and no fleet
    /// engine is durable.
    pub fn add_query(&mut self, query: CnfQuery) -> Result<()> {
        self.catalog.add_query(query.clone())?;
        (self.engines.values_mut().flatten()).try_for_each(|engine| engine.add_query(query.clone()))
    }

    /// Parses and registers a textual query (e.g. `"car >= 2"`) across the
    /// fleet, minting the next free query id.
    pub fn add_query_text(&mut self, text: &str) -> Result<QueryId> {
        let query = QueryCatalog::parse(self.catalog.queries(), text, &mut self.registry)?;
        let id = query.id;
        self.add_query(query)?;
        Ok(id)
    }

    /// Cancels a query across the whole fleet (same alignment and error
    /// contract as [`add_query`](Self::add_query)).
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        self.catalog.remove_query(id)?;
        (self.engines.values_mut().flatten()).try_for_each(|engine| engine.remove_query(id))
    }

    /// Whether `feed` was lost (ownership rule 2).
    fn is_lost(&self, feed: FeedId) -> bool {
        self.engines.get(&feed).is_some_and(Option::is_none)
    }

    /// Processes a single feed-tagged frame. Equivalent to a one-element
    /// [`push_batch`](Self::push_batch).
    pub fn push(&mut self, feed: FeedId, frame: FrameObjects) -> Result<FeedFrameResult> {
        let mut results = self.push_batch(std::slice::from_ref(&FeedFrame::new(feed, frame)))?;
        // infallible: push_batch answers each frame of its batch once.
        Ok(results.pop().expect("one result per pushed frame"))
    }

    /// Ingests a batch of feed-tagged frames and returns one result per
    /// frame, **in the batch's input order** regardless of how the shares
    /// interleave.
    ///
    /// Within a batch, a feed's frames must appear in increasing frame-id
    /// order (the usual streaming contract); frames of different feeds may
    /// be interleaved arbitrarily. A batch holding a feed the fleet has lost
    /// is refused with [`Error::FeedLost`], naming the lowest such feed,
    /// before any share runs, so it applies nothing. Otherwise each feed
    /// the fleet has not seen gets its engine in the fleet's map, on a fork
    /// of the master catalog, before the shares are placed.
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
        if let Some(&lost) = costs.keys().find(|&&feed| self.is_lost(feed)) {
            return Err(Error::FeedLost(lost));
        }
        for &feed in costs.keys() {
            self.engines.entry(feed).or_insert_with(|| {
                let catalog = self.catalog.fork();
                Some(TemporalVideoQueryEngine::new(
                    self.config.engine,
                    self.registry.clone(),
                    catalog,
                ))
            });
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
            if let (Some(&share), Some(engine)) = (placement.get(&feed), slot.as_mut()) {
                lent[share].insert(feed, engine);
            }
        }
        let joined: Vec<_> = std::thread::scope(|scope| {
            let threads: Vec<_> = (shares.iter().zip(lent).enumerate())
                .map(|(worker, (share, lent))| {
                    if share.is_empty() {
                        return None;
                    }
                    (std::thread::Builder::new().name(format!("tvq-shard-{worker}")))
                        .spawn_scoped(scope, move || run_share(batch, share, lent))
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
                Some(Ok((outcomes, busy_nanos))) => {
                    busy += busy_nanos;
                    busiest = busiest.max(busy_nanos);
                    for (seq, outcome) in outcomes {
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
                // infallible: a failed share returned above, and every
                // share that ran answered each of its frames once.
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
            catalog_version: self.catalog.version(),
        })
    }
}

/// Runs the frames at batch positions `share`, in order, each on its feed's
/// engine lent from the fleet's map. Returns the per-frame outcomes by batch
/// position and the nanoseconds the share took (see [`SchedulingStats`]).
fn run_share(
    batch: &[FeedFrame],
    share: &[usize],
    mut lent: BTreeMap<FeedId, &mut TemporalVideoQueryEngine>,
) -> (Vec<(usize, Result<FrameResult>)>, u64) {
    let started = Instant::now();
    let outcomes = (share.iter())
        .map(|&seq| {
            let FeedFrame { feed, frame } = &batch[seq];
            #[cfg(test)]
            assert_ne!(frame.fid.raw(), u64::MAX, "a test panics this share");
            // infallible: push_batch gives every feed of the batch an engine
            // and lends it to the feed's share.
            let engine = lent.get_mut(feed).expect("a share's feeds are lent");
            (seq, engine.observe(frame))
        })
        .collect();
    (outcomes, started.elapsed().as_nanos() as u64)
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
            // infallible: the builder refuses zero workers.
            let share = share.expect("a fleet has at least one worker");
            loads[share] += cost;
            (feed, share)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EngineConfig;
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
    fn text_queries_take_the_next_free_id() {
        let person = tvq_query::Condition::at_least(ClassId(0), 1);
        let fleet = MultiFeedEngine::builder(config(1))
            .with_query(CnfQuery::conjunction(QueryId(1), vec![person]))
            .with_query_text("car >= 1")
            .unwrap()
            .build()
            .unwrap();
        let ids: Vec<QueryId> = fleet.queries().iter().map(|q| q.id).collect();
        assert_eq!(ids, [QueryId(1), QueryId(2)]);
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

    /// One builder serves both engines, so both refuse a duplicate id with
    /// the same error.
    #[test]
    fn both_builders_reject_a_duplicate_query_id_alike() {
        let q0 = CnfQuery::conjunction(
            QueryId(0),
            vec![tvq_query::Condition::at_least(ClassId(1), 1)],
        );
        let single = TemporalVideoQueryEngine::builder(config(1).engine)
            .with_query(q0.clone())
            .with_query(q0.clone())
            .build()
            .unwrap_err();
        let fleet = MultiFeedEngine::builder(config(1))
            .with_query(q0.clone())
            .with_query(q0)
            .build()
            .unwrap_err();
        assert!(matches!(&single, Error::InvalidConfig(msg) if msg.contains("duplicate")));
        assert_eq!(fleet.to_string(), single.to_string());
    }

    /// The single engine's exhausted-id edge, on the fleet: minting fails,
    /// the version stays put and no feed is lost.
    #[test]
    fn add_query_text_fails_once_the_id_space_is_exhausted() {
        let mut fleet = engine(2);
        for feed in 0..2u32 {
            fleet.push(FeedId(feed), frame(0, &[(1, 1)])).unwrap();
        }
        let last = CnfQuery::conjunction(
            QueryId(u32::MAX),
            vec![tvq_query::Condition::at_least(ClassId(0), 1)],
        );
        fleet.add_query(last).unwrap();
        let err = fleet.add_query_text("car >= 1").unwrap_err();
        assert!(matches!(err, Error::InvalidConfig(msg) if msg == "query id space exhausted"));
        assert_eq!(fleet.catalog_version(), 1);
        let report = fleet.report().unwrap();
        assert_eq!(report.num_feeds(), 2);
        assert!(report.feeds.iter().all(|feed| feed.catalog_version == 1));
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

    /// Ownership rule 2 with a share that really panics (a test build
    /// panics a share on frame id `u64::MAX`). The failed share is named by
    /// its index within the batch, with its frame count: feed 1's three
    /// frames cost more than feed 0's one, so they run on share 0, whatever
    /// `feed mod 2` would say. The other share's frame is applied, and feed
    /// 1 is lost from then on.
    #[test]
    fn shard_lost_names_the_worker_and_its_queue_depth() {
        let mut fleet = engine(2);
        for fid in 0..2u64 {
            let batch = vec![
                FeedFrame::new(FeedId(0), frame(fid, &[(1, 1), (2, 0)])),
                FeedFrame::new(FeedId(1), frame(fid, &[(1, 1), (2, 0)])),
            ];
            fleet.push_batch(&batch).unwrap();
        }
        let batch = vec![
            FeedFrame::new(FeedId(0), frame(2, &[(1, 1), (2, 0)])),
            FeedFrame::new(FeedId(1), frame(2, &[(1, 1)])),
            FeedFrame::new(FeedId(1), frame(3, &[(1, 1)])),
            FeedFrame::new(FeedId(1), frame(u64::MAX, &[(1, 1)])),
        ];
        assert!(matches!(
            fleet.push_batch(&batch),
            Err(Error::ShardLost {
                worker: 0,
                queue_depth: 3
            })
        ));
        assert!(matches!(
            fleet.push(FeedId(0), frame(2, &[(1, 1), (2, 0)])),
            Err(Error::OutOfOrderFrame { .. })
        ));
        fleet.push(FeedId(0), frame(3, &[(1, 1), (2, 0)])).unwrap();
        assert!(matches!(
            fleet.push(FeedId(1), frame(5, &[(1, 1)])),
            Err(Error::FeedLost(FeedId(1)))
        ));
        assert!(matches!(fleet.report(), Err(Error::FeedLost(FeedId(1)))));
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

    /// Ownership rule 2: a lost feed stays lost. Every batch holding it is
    /// refused whole, naming the lowest lost feed, and so is the report; the
    /// rest of the fleet carries on.
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
