//! The end-to-end temporal video query engine.
//!
//! [`TemporalVideoQueryEngine`] wires the three layers of the paper's
//! architecture together: it consumes per-frame detections (from a
//! tracker or the statistical generators — it is agnostic to the source),
//! feeds the class-filtered object sets to an MCOS maintainer, and evaluates
//! the registered CNF queries over the resulting Result State Set, producing
//! [`QueryMatch`]es per frame.

use std::sync::{Arc, PoisonError};

use tvq_common::{
    shared_class_store, ClassRegistry, Error, FrameId, FrameObjects, ObjectId, ObjectSet, QueryId,
    Result, SetInterner, SharedClassMap,
};
use tvq_core::{MaintenanceMetrics, ObjectLifecycle, SharedPruner, StateMaintainer, StatePruner};
use tvq_query::{evaluate_result_set, ClassCounts, CnfQuery, QueryMatch};

use crate::catalog::{QueryCatalog, SharedCatalog};
use crate::config::EngineConfig;
use crate::durable::Durability;
use crate::persist;

/// The result of processing one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameResult {
    /// The processed frame.
    pub frame: FrameId,
    /// The query matches of the window ending at this frame.
    pub matches: Vec<QueryMatch>,
}

impl FrameResult {
    /// Whether any query matched at this frame.
    pub fn any(&self) -> bool {
        !self.matches.is_empty()
    }
}

/// Streaming-safe pruner (shared with the restore path in
/// [`persist`](crate::persist) via [`TemporalVideoQueryEngine::assemble`]):
/// reads the engine's live class store and its
/// *current* query-catalog snapshot, so catalog swaps take effect on the
/// very next judged state.
///
/// Soundness across swaps: when the current catalog is not ≥-only (or is
/// empty), [`CatalogSnapshot::prune_active`](crate::catalog::CatalogSnapshot::prune_active)
/// is `false` and the pruner keeps everything — the engine leaves the
/// pruner attached permanently and lets the snapshot decide, so a catalog
/// that oscillates between prunable and unprunable workloads never needs a
/// maintainer rebuild.
struct LivePruner {
    catalog: SharedCatalog,
    classes: SharedClassMap,
}

impl LivePruner {
    /// The current snapshot's evaluator, or `None` while pruning is
    /// inactive. Snapshots are immutable, so a poisoned cell still holds a
    /// usable `Arc` (same recovery reasoning as the class store below).
    fn active_evaluator(&self) -> Option<Arc<tvq_query::CnfEvaluator>> {
        let snapshot = self.catalog.read().unwrap_or_else(PoisonError::into_inner);
        snapshot
            .prune_active()
            .then(|| Arc::clone(snapshot.evaluator()))
    }
}

impl StatePruner for LivePruner {
    fn should_terminate(&self, objects: &ObjectSet) -> bool {
        let Some(evaluator) = self.active_evaluator() else {
            return false;
        };
        // Store entries are immutable while they exist, so a poisoned lock
        // (a panicking thread elsewhere in the process) leaves it in a
        // usable state: recover the guard instead of cascading the panic.
        let store = self.classes.read().unwrap_or_else(PoisonError::into_inner);
        let counts = ClassCounts::of(objects, store.classes());
        !evaluator.any_satisfied(&counts)
    }

    fn should_terminate_with(
        &self,
        objects: &ObjectSet,
        counts: Option<&tvq_common::ClassCounts>,
    ) -> bool {
        // Aggregated from the same class store, once per judged handle;
        // skip the lock and the re-aggregation.
        match counts {
            Some(counts) => match self.active_evaluator() {
                Some(evaluator) => !evaluator.any_satisfied(counts),
                None => false,
            },
            None => self.should_terminate(objects),
        }
    }

    fn is_active(&self) -> bool {
        let snapshot = self.catalog.read().unwrap_or_else(PoisonError::into_inner);
        snapshot.prune_active()
    }
}

/// Builder for [`TemporalVideoQueryEngine`].
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    config: EngineConfig,
    registry: ClassRegistry,
    queries: Vec<CnfQuery>,
    allow_empty: bool,
    catalog_seed: u64,
}

impl EngineBuilder {
    /// Starts a builder with the given configuration and the default class
    /// registry.
    pub fn new(config: EngineConfig) -> Self {
        EngineBuilder {
            config,
            registry: ClassRegistry::with_default_classes(),
            queries: Vec::new(),
            allow_empty: false,
            catalog_seed: 0,
        }
    }

    /// Permits building with zero registered queries. Off by default (an
    /// embedded engine with no queries is almost always a configuration
    /// mistake); server deployments turn it on so the engine can start idle
    /// and receive its workload over the wire via
    /// [`TemporalVideoQueryEngine::add_query`].
    pub fn allow_empty_catalog(mut self) -> Self {
        self.allow_empty = true;
        self
    }

    /// Seeds the catalog's version counter. The multi-feed engine uses this
    /// so a per-feed engine built lazily *after* catalog swaps reports the
    /// fleet's current version rather than restarting at zero.
    pub(crate) fn with_catalog_seed(mut self, version: u64) -> Self {
        self.catalog_seed = version;
        self
    }

    /// Uses a custom class registry.
    pub fn with_registry(mut self, registry: ClassRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Registers a structured query.
    pub fn with_query(mut self, query: CnfQuery) -> Self {
        self.queries.push(query);
        self
    }

    /// Registers a query written in the textual language, e.g.
    /// `"car >= 2 AND person >= 1"`. New class labels are registered.
    pub fn with_query_text(mut self, text: &str) -> Result<Self> {
        let id = tvq_common::QueryId(self.queries.len() as u32);
        let query = tvq_query::parse_query(text, id, &mut self.registry)?;
        self.queries.push(query);
        Ok(self)
    }

    /// Builds the engine.
    pub fn build(self) -> Result<TemporalVideoQueryEngine> {
        if self.queries.is_empty() && !self.allow_empty {
            return Err(Error::InvalidConfig(
                "at least one query must be registered".to_owned(),
            ));
        }
        let catalog = QueryCatalog::new(self.queries, self.catalog_seed)?;
        Ok(TemporalVideoQueryEngine::assemble(
            self.config,
            self.registry,
            catalog,
            ObjectLifecycle::new(shared_class_store()),
        ))
    }
}

/// The end-to-end engine (Figure 2 of the paper).
pub struct TemporalVideoQueryEngine {
    pub(crate) config: EngineConfig,
    pub(crate) registry: ClassRegistry,
    /// The versioned query workload. The engine is its sole writer;
    /// the maintainer's [`LivePruner`] follows it through the shared cell.
    pub(crate) catalog: QueryCatalog,
    pub(crate) maintainer: Box<dyn StateMaintainer>,
    /// Generation-aware tracker-id resolution, class-store registration and
    /// epoch retirement (see [`ObjectLifecycle`]). Owns the engine's class
    /// store; its live-binding map doubles as the per-frame fast path that
    /// skips the store's write lock in steady state.
    pub(crate) lifecycle: ObjectLifecycle,
    /// Frames since the compaction policy was last consulted.
    pub(crate) frames_since_compaction_check: u64,
    /// Query matches reported over the engine's lifetime. Like
    /// `matching_frames`, bumped where frames are applied, so WAL replay
    /// rolls it forward; both are persisted in the snapshot trailer.
    pub(crate) total_matches: u64,
    /// Frames that reported at least one match.
    pub(crate) matching_frames: u64,
    /// WAL + snapshot attachment, when the engine runs durably (see
    /// [`durable`](crate::durable)).
    pub(crate) durability: Option<Durability>,
}

impl std::fmt::Debug for TemporalVideoQueryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TemporalVideoQueryEngine")
            .field("config", &self.config)
            .field("strategy", &self.strategy())
            .field("queries", &self.catalog.snapshot().queries().len())
            .field("catalog_version", &self.catalog.version())
            .finish()
    }
}

impl TemporalVideoQueryEngine {
    /// Starts a builder.
    pub fn builder(config: EngineConfig) -> EngineBuilder {
        EngineBuilder::new(config)
    }

    /// Assembles an engine around already-validated parts. Shared by
    /// [`EngineBuilder::build`] and the snapshot-restore path in
    /// [`persist`](crate::persist), so both wire the interner, pruner and
    /// maintainer identically around the lifecycle's class store.
    pub(crate) fn assemble(
        config: EngineConfig,
        registry: ClassRegistry,
        catalog: QueryCatalog,
        lifecycle: ObjectLifecycle,
    ) -> TemporalVideoQueryEngine {
        // The interner reads the lifecycle's class store, so a reported
        // set's class counts are computed once while it stays reported and
        // the evaluator skips the per-frame histogram rebuild.
        let classes = lifecycle.store();
        let interner = SetInterner::with_classes(Arc::clone(classes)).with_memo_config(config.memo);
        // The pruner is attached whenever pruning is configured — even if
        // the *current* catalog cannot prune — because the catalog may swap
        // to a prunable workload later. The LivePruner reads the snapshot's
        // prune_active flag per judgement, so an inactive pruner keeps
        // every state (and `strategy()` drops the "_O" suffix).
        let pruner: Option<SharedPruner> = if config.pruning {
            Some(Arc::new(LivePruner {
                catalog: catalog.shared(),
                classes: Arc::clone(classes),
            }))
        } else {
            None
        };
        let maintainer = config
            .maintainer
            .build_with_options(config.window, pruner, interner);
        TemporalVideoQueryEngine {
            config,
            registry,
            catalog,
            maintainer,
            lifecycle,
            frames_since_compaction_check: 0,
            total_matches: 0,
            matching_frames: 0,
            durability: None,
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The name of the MCOS-generation strategy in use (e.g. `"SSG_O"`).
    /// The `_O` pruning suffix tracks the *current* catalog: it appears
    /// only while the registered workload actually lets Section 5.3
    /// terminate states (≥-only and non-empty).
    pub fn strategy(&self) -> &'static str {
        let name = self.maintainer.name();
        if self.catalog.snapshot().prune_active() {
            name
        } else {
            name.trim_end_matches("_O")
        }
    }

    /// The current query-catalog version (0 at build; each
    /// [`add_query`](Self::add_query) / [`remove_query`](Self::remove_query)
    /// increments it).
    pub fn catalog_version(&self) -> u64 {
        self.catalog.version()
    }

    /// The currently registered queries.
    pub fn queries(&self) -> &[CnfQuery] {
        self.catalog.snapshot().queries()
    }

    /// Registers a query mid-stream, swapping in a new catalog version
    /// before the next frame. The new query's matches converge with a
    /// fresh engine's after one full window turnover (states the old
    /// catalog pruned, and detections its class filter dropped, are not
    /// resurrected — see the [catalog docs](crate::catalog)).
    pub fn add_query(&mut self, query: CnfQuery) -> Result<()> {
        self.flush_due_snapshot()?;
        let record = self
            .durability
            .is_some()
            .then(|| persist::encode_add_query_record(&query));
        self.apply_add_query(query)?;
        if let Some(body) = record {
            self.log_durable(&body)?;
        }
        Ok(())
    }

    /// The in-memory half of [`add_query`](Self::add_query) — also the
    /// WAL-replay path, which must not re-log the records it replays.
    pub(crate) fn apply_add_query(&mut self, query: CnfQuery) -> Result<()> {
        self.catalog.add_query(query)?;
        self.maintainer.pruner_changed();
        Ok(())
    }

    /// Parses and registers a textual query (e.g. `"car >= 2"`)
    /// mid-stream, minting the next free query id. Returns the id so the
    /// caller can [`remove_query`](Self::remove_query) it later.
    pub fn add_query_text(&mut self, text: &str) -> Result<QueryId> {
        let id = self.catalog.next_query_id();
        let query = tvq_query::parse_query(text, id, &mut self.registry)?;
        self.add_query(query)?;
        Ok(id)
    }

    /// Cancels a query mid-stream, swapping in a new catalog version
    /// before the next frame. Immediately invisible to surviving queries
    /// (removal only narrows evaluation and widens ≥-only pruning, which
    /// Proposition 1 keeps sound).
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        self.flush_due_snapshot()?;
        let record = self
            .durability
            .is_some()
            .then(|| persist::encode_remove_query_record(id));
        self.apply_remove_query(id)?;
        if let Some(body) = record {
            self.log_durable(&body)?;
        }
        Ok(())
    }

    /// The in-memory half of [`remove_query`](Self::remove_query) — also
    /// the WAL-replay path.
    pub(crate) fn apply_remove_query(&mut self, id: QueryId) -> Result<()> {
        self.catalog.remove_query(id)?;
        self.maintainer.pruner_changed();
        Ok(())
    }

    /// Fast-forwards the catalog to the fleet's master query set at
    /// `version`, skipping the intermediate swaps this engine missed while
    /// it was lost. No-op when already current. Publishes through
    /// the existing shared cell (the live pruner keeps observing swaps) and
    /// schedules a snapshot so the catch-up is durable before the next
    /// logged operation.
    pub(crate) fn reconcile_catalog(&mut self, queries: &[CnfQuery], version: u64) -> Result<()> {
        if self.catalog.version() == version {
            return Ok(());
        }
        self.catalog.force(queries.to_vec(), version)?;
        self.maintainer.pruner_changed();
        self.mark_snapshot_due();
        Ok(())
    }

    /// The class registry (labels for query classes).
    pub fn registry(&self) -> &ClassRegistry {
        &self.registry
    }

    /// Work counters: the underlying maintainer's, augmented with the
    /// engine-side object-lifecycle gauges (tracked objects, class-store
    /// and lifecycle bytes, retirements, generations).
    pub fn metrics(&self) -> MaintenanceMetrics {
        let mut metrics = self.maintainer.metrics().clone();
        metrics.tracked_objects = self.lifecycle.tracked_objects() as u64;
        metrics.tracks_ended = self.lifecycle.tracks_ended();
        metrics.catalog_swaps = self.catalog.swaps();
        metrics.class_map_bytes = self
            .lifecycle
            .store()
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .bytes() as u64;
        metrics.lifecycle_bytes = self.lifecycle.bytes() as u64;
        metrics.objects_retired = self.lifecycle.retired_total();
        metrics.generations_started = self.lifecycle.generations_started();
        if let Some(d) = &self.durability {
            metrics.wal_bytes = d.wal.bytes_written();
            metrics.wal_records = d.wal.records_written();
            metrics.snapshots_written = d.snaps.snapshots_written();
            metrics.snapshot_bytes = d.snaps.bytes_written();
            metrics.fsyncs = d.wal.fsyncs() + d.snaps.fsyncs();
            metrics.recoveries = d.recoveries;
        }
        metrics
    }

    /// The underlying maintainer's counters alone, borrowed — the cheap
    /// per-frame sampling path (no lock, no clone). [`metrics`](Self::metrics)
    /// additionally fills in the engine-side lifecycle gauges.
    pub fn maintainer_metrics(&self) -> &MaintenanceMetrics {
        self.maintainer.metrics()
    }

    /// The engine's object lifecycle (generation bindings, tracked-object
    /// counts, alias translation) — read access for tests and tooling.
    pub fn lifecycle(&self) -> &ObjectLifecycle {
        &self.lifecycle
    }

    /// Lifetime `(total matches, frames with at least one match)` over
    /// every frame this engine processed — across restarts when durable.
    pub fn match_counters(&self) -> (u64, u64) {
        (self.total_matches, self.matching_frames)
    }

    /// Number of states currently materialised by the maintainer.
    pub fn live_states(&self) -> usize {
        self.maintainer.live_states()
    }

    /// Runs one compaction check (and possibly a compaction epoch) right
    /// now, regardless of the configured cadence. Returns whether an epoch
    /// ran; one retires the objects it dropped and marks a snapshot due.
    /// The engine runs this between frames every `check_interval` frames of
    /// the configured [`CompactionPolicy`](tvq_core::CompactionPolicy);
    /// calling it directly lets deployments compact at their own quiet
    /// moments (e.g. scene changes).
    pub fn compact_now(&mut self) -> bool {
        let Some(policy) = self.config.compaction else {
            return false;
        };
        let Some(outcome) = self.maintainer.maybe_compact(&policy) else {
            return false;
        };
        self.lifecycle.retire(&outcome.retired_objects);
        self.mark_snapshot_due();
        true
    }

    /// Processes one frame of detections and returns the query matches of the
    /// window ending at this frame.
    ///
    /// Objects whose class no registered query mentions are dropped before
    /// they reach MCOS generation, as prescribed in Section 3. The remaining
    /// detections pass through the [`ObjectLifecycle`]: tracker ids are
    /// resolved to generation-aware internal ids (a reused id never splices
    /// into an old generation's states) and first-time bindings register
    /// their class in the engine's store. Between frames the engine consults
    /// the configured compaction policy (if any) every `check_interval`
    /// frames; a compaction epoch bounds the maintainer-side state (arena,
    /// bitmaps, universe map) *and* retires dead object ids upward, so the
    /// engine's class store and tracking maps plateau with the live window
    /// too. Matches always report **tracker ids** as ingested (aliased
    /// generations are translated back at the result boundary).
    ///
    /// With durability attached (see [`attach_durability`]) the frame is
    /// additionally appended to the WAL and fsynced before `Ok` is
    /// returned, and a snapshot marked due by a previous compaction epoch
    /// is flushed first.
    ///
    /// [`attach_durability`]: Self::attach_durability
    pub fn observe(&mut self, frame: &FrameObjects) -> Result<FrameResult> {
        self.flush_due_snapshot()?;
        let record = self.pending_frame_record(frame);
        let result = self.observe_applied(frame)?;
        if let Some(body) = record {
            self.log_durable(&body)?;
        }
        Ok(result)
    }

    /// The in-memory half of [`observe`](Self::observe) — also the
    /// WAL-replay path, which must not re-log the records it replays.
    pub(crate) fn observe_applied(&mut self, frame: &FrameObjects) -> Result<FrameResult> {
        // Apply track-end events *before* resolving this frame's detections:
        // an id the tracker ended and immediately recycled (same frame or a
        // later one, same class or not) must start a new generation rather
        // than splice into the ended one.
        if !frame.track_ends.is_empty() {
            self.lifecycle.end_tracks(&frame.track_ends);
        }
        let snapshot = Arc::clone(self.catalog.snapshot());
        let mut internal: Vec<ObjectId> = Vec::with_capacity(frame.classes.len());
        self.lifecycle
            .resolve_frame(&frame.classes, snapshot.relevant_classes(), &mut internal);
        let objects = ObjectSet::from_ids(internal);
        self.maintainer.advance(frame.fid, &objects)?;
        if let Some(policy) = &self.config.compaction {
            self.frames_since_compaction_check += 1;
            if self.frames_since_compaction_check >= policy.check_interval {
                self.frames_since_compaction_check = 0;
                // An epoch only marks the snapshot due: this frame's record
                // is not in the WAL yet, and a snapshot covers exactly the
                // records logged before it.
                self.compact_now();
            }
        }
        let mut matches = {
            let store = self
                .lifecycle
                .store()
                .read()
                .unwrap_or_else(PoisonError::into_inner);
            evaluate_result_set(
                snapshot.evaluator(),
                self.maintainer.results(),
                store.classes(),
            )
        };
        if self.lifecycle.has_aliases() {
            // Reuse generations are live: translate alias internals back to
            // the tracker ids the caller knows. Distinct generations of one
            // tracker id never co-occur in a frame, hence never share a
            // state, so translation cannot collide within one match.
            for m in &mut matches {
                if m.objects
                    .iter()
                    .any(|id| self.lifecycle.external_of(id) != id)
                {
                    let translated: Vec<ObjectId> = m
                        .objects
                        .iter()
                        .map(|id| self.lifecycle.external_of(id))
                        .collect();
                    m.objects = ObjectSet::from_ids(translated);
                }
            }
        }
        self.total_matches += matches.len() as u64;
        self.matching_frames += u64::from(!matches.is_empty());
        Ok(FrameResult {
            frame: frame.fid,
            matches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::RwLock;
    use tvq_common::{ClassId, ClassStore, WindowSpec};
    use tvq_core::MaintainerKind;

    fn frame(fid: u64, detections: &[(u32, u16)]) -> FrameObjects {
        FrameObjects::new(
            FrameId(fid),
            detections
                .iter()
                .map(|&(id, class)| (ObjectId(id), ClassId(class)))
                .collect(),
        )
    }

    fn small_config(kind: MaintainerKind) -> EngineConfig {
        EngineConfig::new(WindowSpec::new(4, 3).unwrap()).with_maintainer(kind)
    }

    #[test]
    fn builder_requires_queries() {
        let err = EngineBuilder::new(EngineConfig::default()).build();
        assert!(err.is_err());
    }

    #[test]
    fn detects_joint_presence_of_a_car_and_a_person() {
        // person class = 0, car class = 1.
        for kind in MaintainerKind::PRODUCTION {
            let mut engine = TemporalVideoQueryEngine::builder(small_config(kind))
                .with_query_text("car >= 1 AND person >= 1")
                .unwrap()
                .build()
                .unwrap();
            // Object 1 is a car, objects 2-3 are people; they overlap in
            // frames 1..=3 (3 frames >= duration 3).
            let frames = [
                frame(0, &[(1, 1)]),
                frame(1, &[(1, 1), (2, 0)]),
                frame(2, &[(1, 1), (2, 0), (3, 0)]),
                frame(3, &[(1, 1), (2, 0)]),
            ];
            let mut last = None;
            for f in &frames {
                last = Some(engine.observe(f).unwrap());
            }
            let last = last.unwrap();
            assert!(
                last.any(),
                "{kind:?} should report a match at the final frame"
            );
            assert!(last
                .matches
                .iter()
                .any(|m| m.objects == ObjectSet::from_raw([1, 2]) && m.frames.len() == 3));
        }
    }

    #[test]
    fn irrelevant_classes_are_dropped_before_mcos_generation() {
        let mut engine = TemporalVideoQueryEngine::builder(small_config(MaintainerKind::Mfs))
            .with_query_text("person >= 2")
            .unwrap()
            .build()
            .unwrap();
        // Cars (class 1) are never requested: they must not create states.
        engine
            .observe(&frame(0, &[(1, 1), (2, 1), (3, 1)]))
            .unwrap();
        assert_eq!(engine.live_states(), 0);
        engine.observe(&frame(1, &[(4, 0), (5, 0)])).unwrap();
        assert!(engine.live_states() >= 1);
    }

    #[test]
    fn pruning_variant_is_selected_for_geq_only_workloads() {
        let engine = TemporalVideoQueryEngine::builder(small_config(MaintainerKind::Ssg))
            .with_query_text("car >= 2")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(engine.strategy(), "SSG_O");
        let engine = TemporalVideoQueryEngine::builder(small_config(MaintainerKind::Ssg))
            .with_query_text("car <= 2")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(engine.strategy(), "SSG");
        let engine = TemporalVideoQueryEngine::builder(
            small_config(MaintainerKind::Ssg).with_pruning(false),
        )
        .with_query_text("car >= 2")
        .unwrap()
        .build()
        .unwrap();
        assert_eq!(engine.strategy(), "SSG");
    }

    #[test]
    fn pruned_and_unpruned_engines_agree_on_matches() {
        let frames: Vec<FrameObjects> = (0..30)
            .map(|i| {
                let mut detections = vec![(i as u32 % 5, 1u16), ((i as u32 + 1) % 5, 1)];
                if i % 3 != 0 {
                    detections.push((10 + (i as u32 % 3), 0));
                }
                frame(i, &detections)
            })
            .collect();
        let build = |pruning: bool| {
            TemporalVideoQueryEngine::builder(
                EngineConfig::new(WindowSpec::new(6, 3).unwrap())
                    .with_maintainer(MaintainerKind::Ssg)
                    .with_pruning(pruning),
            )
            .with_query_text("car >= 2 AND person >= 1")
            .unwrap()
            .build()
            .unwrap()
        };
        let mut with_pruning = build(true);
        let mut without_pruning = build(false);
        for f in &frames {
            let a = with_pruning.observe(f).unwrap();
            let b = without_pruning.observe(f).unwrap();
            assert_eq!(a, b, "pruning changed the result at frame {}", f.fid);
        }
    }

    #[test]
    fn live_pruner_survives_a_poisoned_class_map() {
        let mut registry = ClassRegistry::with_default_classes();
        let query = tvq_query::parse_query("car >= 1", QueryId(0), &mut registry).unwrap();
        let catalog = QueryCatalog::new(vec![query], 0).unwrap();
        let pruner = LivePruner {
            catalog: catalog.shared(),
            classes: Arc::new(RwLock::new(ClassStore::preloaded([(
                ObjectId(1),
                ClassId(1),
            )]))),
        };
        // Poison the lock: a thread panics while holding the write guard.
        let classes = Arc::clone(&pruner.classes);
        let _ = std::thread::spawn(move || {
            let _guard = classes.write().unwrap();
            panic!("poison the class map");
        })
        .join();
        assert!(pruner.classes.is_poisoned());
        // A poisoned map must not cascade the panic; the pruner still sees
        // object 1 as a car and keeps the state alive.
        assert!(!pruner.should_terminate(&ObjectSet::from_raw([1])));
        assert!(pruner.should_terminate(&ObjectSet::from_raw([7])));
    }

    /// ROADMAP PR-4 regression: a retired id that reappears with a
    /// different class must be **re-resolved and re-judged** — never
    /// evaluated (or match-reported) under its stale class. Before the
    /// object lifecycle, the first-writer-wins class map would keep calling
    /// object 1 a car forever.
    #[test]
    fn retired_id_reappearing_with_new_class_is_rejudged() {
        use tvq_core::CompactionPolicy;
        let mut engine = TemporalVideoQueryEngine::builder(
            EngineConfig::new(WindowSpec::new(3, 1).unwrap())
                .with_maintainer(MaintainerKind::Ssg)
                .with_compaction(Some(CompactionPolicy::every(1))),
        )
        // Both queries are >=-only, so the SSG_O pruning variant runs and
        // the verdict for {1} flows through the pruner path too.
        .with_query_text("car >= 1")
        .unwrap()
        .with_query_text("person >= 3")
        .unwrap()
        .build()
        .unwrap();
        assert_eq!(engine.strategy(), "SSG_O");

        // Object 1 is a car for three frames: it matches `car >= 1`.
        for fid in 0..3u64 {
            let result = engine.observe(&frame(fid, &[(1, 1)])).unwrap();
            assert!(result.any(), "the car generation matches at frame {fid}");
        }
        // Object 1 leaves; a decoy keeps the feed alive long enough for the
        // window to expire 1's frames and the forced policy to retire it.
        for fid in 3..9u64 {
            engine.observe(&frame(fid, &[(2, 1)])).unwrap();
        }
        assert!(
            engine.metrics().objects_retired > 0,
            "object 1 should have been retired at an epoch boundary"
        );
        // The tracker recycles id 1 for a *person*. A stale class map would
        // count it as a car and wrongly match `car >= 1`; the lifecycle
        // re-resolves the reappearing id, so nothing matches.
        let result = engine.observe(&frame(9, &[(1, 0)])).unwrap();
        assert!(
            result
                .matches
                .iter()
                .all(|m| !m.objects.contains(ObjectId(1))),
            "a recycled person must not match car >= 1: {:?}",
            result.matches
        );
        // The reappearance started a fresh generation (car, decoy, person);
        // being hopeless under every query, the person generation was then
        // itself retired at the very next epoch boundary — the store holds
        // no stale entry for id 1 in either direction.
        let metrics = engine.metrics();
        assert!(metrics.generations_started >= 3, "{metrics:?}");
        assert!(metrics.objects_retired >= 2, "{metrics:?}");
        assert_ne!(
            engine
                .lifecycle()
                .store()
                .read()
                .unwrap()
                .class_of(ObjectId(1)),
            Some(ClassId(1)),
            "the stale car class must be gone"
        );
    }

    /// Counts are computed when a set is first reported, not when it is
    /// interned, so nothing but the soundness argument (an internal id's
    /// class never changes, a live set's objects are never retired) keeps
    /// them right. Every frame, each reported set's counts must equal a
    /// fresh aggregation of its objects, across compaction epochs, an id
    /// reused under a new class while still live (an alias), and the same
    /// id coming back after retirement.
    #[test]
    fn reported_counts_match_a_fresh_aggregation_across_epochs_and_reuse() {
        use tvq_core::CompactionPolicy;
        for kind in [MaintainerKind::Mfs, MaintainerKind::Ssg] {
            let mut engine = TemporalVideoQueryEngine::builder(
                EngineConfig::new(WindowSpec::new(4, 2).unwrap())
                    .with_maintainer(kind)
                    .with_compaction(Some(CompactionPolicy::every(2))),
            )
            .with_query_text("car >= 1")
            .unwrap()
            .with_query_text("person >= 1")
            .unwrap()
            .build()
            .unwrap();
            let (mut checked, mut aliased) = (0usize, false);
            for fid in 0..24u64 {
                // Id 1: a car, then a person while the car is in the window
                // (alias), then gone long enough to retire, then a car again.
                let one = match fid {
                    0..=3 => vec![(1, 1)],
                    4..=7 => vec![(1, 0)],
                    8..=15 => vec![],
                    _ => vec![(1, 1)],
                };
                let detections: Vec<(u32, u16)> = (one.into_iter())
                    .chain([(2, 0), (3 + (fid / 3) as u32 % 4, 1)])
                    .collect();
                engine.observe(&frame(fid, &detections)).unwrap();
                aliased |= engine.lifecycle().has_aliases();
                let store = engine.lifecycle().store().read().unwrap();
                for (objects, _, counts) in engine.maintainer.results().iter_with_counts() {
                    let counts = counts.expect("the engine's interner has a class source");
                    assert_eq!(
                        **counts,
                        ClassCounts::of(objects, store.classes()),
                        "{kind:?} frame {fid}: {objects:?}"
                    );
                    checked += 1;
                }
            }
            let metrics = engine.metrics();
            assert!(aliased, "{kind:?}: the script must mint an alias");
            assert!(metrics.compactions > 0, "{kind:?}: {metrics:?}");
            assert!(metrics.objects_retired > 0, "{kind:?}: {metrics:?}");
            assert!(metrics.generations_started >= 3, "{kind:?}: {metrics:?}");
            assert!(checked > 24, "{kind:?}: only {checked} reported sets");
        }
    }

    /// The PR-5 blind spot: an id the tracker recycles at the **same**
    /// class within a compaction epoch is indistinguishable from a bridged
    /// occlusion and splices into the old generation's frame sets —
    /// manufacturing a duration the new object never had. Explicit
    /// track-end events close it.
    #[test]
    fn track_end_prevents_same_class_recycle_splice() {
        let build = || {
            TemporalVideoQueryEngine::builder(
                EngineConfig::new(WindowSpec::new(6, 3).unwrap())
                    .with_maintainer(MaintainerKind::Ssg),
            )
            .with_query_text("car >= 1")
            .unwrap()
            .build()
            .unwrap()
        };
        // Car 1 for two frames, its track ends, then id 1 returns as a
        // *different* car. Without the end event the newcomer's frame 3
        // splices onto frames {0, 1} — three frames fake a duration-3
        // match. With it, the newcomer has one frame and cannot match yet.
        let with_end = [
            frame(0, &[(1, 1)]),
            frame(1, &[(1, 1)]),
            frame(2, &[]).with_track_ends(vec![ObjectId(1)]),
            frame(3, &[(1, 1)]),
        ];
        let mut engine = build();
        for f in &with_end {
            let result = engine.observe(f).unwrap();
            assert!(
                !result.any(),
                "frame {}: a 1-frame newcomer must not satisfy duration 3: {:?}",
                f.fid,
                result.matches
            );
        }
        assert_eq!(engine.lifecycle().tracks_ended(), 1);
        assert_eq!(
            engine.lifecycle().generations_started(),
            2,
            "the recycled id starts a new generation"
        );
        // Control: the identical feed *without* the end event splices and
        // false-matches — proving the test bites.
        let without_end = [
            frame(0, &[(1, 1)]),
            frame(1, &[(1, 1)]),
            frame(2, &[]),
            frame(3, &[(1, 1)]),
        ];
        let mut engine = build();
        let mut matched = false;
        for f in &without_end {
            matched |= engine.observe(f).unwrap().any();
        }
        assert!(matched, "without end events the splice false-matches");
    }

    /// Ending a track and recycling its id in the *same* frame still
    /// separates the generations (ends apply before resolution).
    #[test]
    fn track_end_applies_before_same_frame_detections() {
        let mut engine = TemporalVideoQueryEngine::builder(
            EngineConfig::new(WindowSpec::new(6, 3).unwrap()).with_maintainer(MaintainerKind::Mfs),
        )
        .with_query_text("car >= 1")
        .unwrap()
        .build()
        .unwrap();
        engine.observe(&frame(0, &[(1, 1)])).unwrap();
        engine.observe(&frame(1, &[(1, 1)])).unwrap();
        let reuse = frame(2, &[(1, 1)]).with_track_ends(vec![ObjectId(1)]);
        let result = engine.observe(&reuse).unwrap();
        assert!(!result.any(), "the newcomer has one frame, not three");
        assert_eq!(engine.lifecycle().generations_started(), 2);
        // The match at frame 4 belongs to the *newcomer* (frames 2..=4) and
        // reports the tracker id the caller knows.
        engine.observe(&frame(3, &[(1, 1)])).unwrap();
        let result = engine.observe(&frame(4, &[(1, 1)])).unwrap();
        assert!(result
            .matches
            .iter()
            .any(|m| m.objects == ObjectSet::from_raw([1]) && m.frames.len() == 3));
    }

    /// Tracker ids at the top of `u32` share the range the lifecycle mints
    /// aliases from (downward from `u32::MAX`). They must neither
    /// panic nor change a match: the feed with every id `k` renamed to
    /// `u32::MAX - k` reports the low-id feed's matches, renamed.
    #[test]
    fn tracker_ids_in_the_alias_range_match_like_low_ids() {
        // Id 1 turns from person into car at frame 4, so the high run mints
        // an alias past the live tracker ids `MAX`, `MAX - 1` and `MAX - 2`;
        // id 3 then arrives as the tracker id equal to that alias.
        let feed: Vec<Vec<(u32, u16)>> = (0..10)
            .map(|fid| match fid {
                0..=3 => vec![(0, 1), (1, 0), (2, 1)],
                _ => vec![(0, 1), (1, 1), (3, 0)],
            })
            .collect();
        let run = |kind, rename: fn(u32) -> u32| {
            let mut engine = TemporalVideoQueryEngine::builder(small_config(kind))
                .with_query_text("car >= 1 AND person >= 1")
                .unwrap()
                .with_query_text("car >= 2")
                .unwrap()
                .build()
                .unwrap();
            let mut matches = Vec::new();
            for (fid, detections) in feed.iter().enumerate() {
                let renamed: Vec<(u32, u16)> = (detections.iter())
                    .map(|&(id, class)| (rename(id), class))
                    .collect();
                for m in engine
                    .observe(&frame(fid as u64, &renamed))
                    .unwrap()
                    .matches
                {
                    let mut objects: Vec<u32> =
                        m.objects.iter().map(|id| rename(id.raw())).collect();
                    objects.sort_unstable();
                    matches.push((fid, m.query, objects, m.frames.to_vec()));
                }
            }
            matches.sort();
            matches
        };
        for kind in [MaintainerKind::Mfs, MaintainerKind::Ssg] {
            let low = run(kind, |id| id);
            // The reuse generation of id 1 (an alias in both runs) matches.
            assert!(low.iter().any(|m| m.2 == [0, 1, 3]), "{kind:?}: {low:?}");
            assert_eq!(run(kind, |id| u32::MAX - id), low, "{kind:?}");
        }
    }

    #[test]
    fn queries_register_and_cancel_mid_stream() {
        let mut engine = TemporalVideoQueryEngine::builder(small_config(MaintainerKind::Ssg))
            .with_query_text("car >= 1")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(engine.catalog_version(), 0);
        engine.observe(&frame(0, &[(1, 1), (2, 0)])).unwrap();

        // A person query arrives mid-stream under the next free id.
        let person = engine.add_query_text("person >= 1").unwrap();
        assert_eq!(person, tvq_common::QueryId(1));
        assert_eq!(engine.catalog_version(), 1);
        assert_eq!(engine.queries().len(), 2);
        // Within the convergence window (duration 3) the newcomer builds up.
        for fid in 1..4u64 {
            engine.observe(&frame(fid, &[(1, 1), (2, 0)])).unwrap();
        }
        let result = engine.observe(&frame(4, &[(1, 1), (2, 0)])).unwrap();
        assert!(result
            .matches
            .iter()
            .any(|m| m.query == tvq_common::QueryId(0)));
        assert!(
            result.matches.iter().any(|m| m.query == person),
            "the added query matches once its window fills: {:?}",
            result.matches
        );

        // Cancelling is immediate: the removed id never appears again.
        engine.remove_query(tvq_common::QueryId(0)).unwrap();
        assert_eq!(engine.catalog_version(), 2);
        assert_eq!(engine.metrics().catalog_swaps, 2);
        let result = engine.observe(&frame(5, &[(1, 1), (2, 0)])).unwrap();
        assert!(result.matches.iter().all(|m| m.query == person));
        // Failed operations leave the catalog untouched.
        assert!(engine.remove_query(tvq_common::QueryId(0)).is_err());
        assert_eq!(engine.catalog_version(), 2);
    }

    #[test]
    fn strategy_suffix_follows_catalog_swaps() {
        let mut engine = TemporalVideoQueryEngine::builder(small_config(MaintainerKind::Ssg))
            .with_query_text("car >= 2")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(engine.strategy(), "SSG_O");
        // A <= query disables Proposition-1 pruning; removal re-enables it.
        let mixed = engine.add_query_text("person <= 1").unwrap();
        assert_eq!(engine.strategy(), "SSG");
        engine.remove_query(mixed).unwrap();
        assert_eq!(engine.strategy(), "SSG_O");
    }

    #[test]
    fn empty_catalog_engine_starts_idle_and_accepts_queries() {
        let mut engine = TemporalVideoQueryEngine::builder(small_config(MaintainerKind::Ssg))
            .allow_empty_catalog()
            .build()
            .unwrap();
        assert_eq!(engine.strategy(), "SSG", "nothing to prune for");
        // With no queries every class is irrelevant: no states, no matches.
        let result = engine.observe(&frame(0, &[(1, 1), (2, 0)])).unwrap();
        assert!(!result.any());
        assert_eq!(engine.live_states(), 0);
        engine.add_query_text("car >= 1").unwrap();
        for fid in 1..4u64 {
            engine.observe(&frame(fid, &[(1, 1)])).unwrap();
        }
        let result = engine.observe(&frame(4, &[(1, 1)])).unwrap();
        assert!(result.any(), "queries added to an idle engine take effect");
    }
}
