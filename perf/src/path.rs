//! The frame path assembled by hand from the layers' public calls, one span
//! per call — what `TemporalVideoQueryEngine::observe` does inside, laid
//! open so that each layer's share can be timed from outside.
//!
//! It is checked like every other path: its per-frame digests must equal
//! the reference's, so a span tree that times the wrong work fails the run.

use std::sync::{Arc, PoisonError};

use tvq_common::{
    shared_class_store, ClassCounts, FrameObjects, ObjectId, ObjectSet, SetInterner, SharedClassMap,
};
use tvq_core::{
    MaintainerKind, MaintenanceMetrics, ObjectLifecycle, SharedPruner, StateMaintainer, StatePruner,
};
use tvq_engine::{EngineConfig, QueryCatalog, SharedCatalog};
use tvq_query::{evaluate_result_set, CnfQuery, QueryMatch};

use crate::trace::{SpanId, Tracer};
use crate::Res;

pub const LIFECYCLE: &str = "core.lifecycle.resolve";
pub const ADVANCE: &str = "core.advance";
pub const COMPACT: &str = "core.compact";
pub const EVAL: &str = "query.eval";

/// The Section 5.3 pruner over the live catalog, as the engine wires it:
/// terminate a state no `>=`-only query can still accept.
struct CatalogPruner {
    catalog: SharedCatalog,
    classes: SharedClassMap,
}

impl StatePruner for CatalogPruner {
    fn should_terminate(&self, objects: &ObjectSet) -> bool {
        let store = self.classes.read().unwrap_or_else(PoisonError::into_inner);
        self.should_terminate_with(objects, Some(&ClassCounts::of(objects, store.classes())))
    }

    fn should_terminate_with(&self, objects: &ObjectSet, counts: Option<&ClassCounts>) -> bool {
        let Some(counts) = counts else {
            return self.should_terminate(objects);
        };
        let snapshot = self.catalog.read().unwrap_or_else(PoisonError::into_inner);
        snapshot.prune_active() && !snapshot.evaluator().any_satisfied(counts)
    }
}

pub struct FramePath {
    catalog: QueryCatalog,
    lifecycle: ObjectLifecycle,
    maintainer: Box<dyn StateMaintainer>,
    config: EngineConfig,
    frames_since_compaction_check: u64,
    /// Result states seen, summed over frames.
    pub result_states: u64,
    /// Whether the last frame ran a compaction epoch (a durable caller
    /// snapshots before its next operation).
    pub compacted: bool,
}

impl FramePath {
    pub fn new(config: EngineConfig, kind: MaintainerKind, queries: Vec<CnfQuery>) -> Res<Self> {
        let catalog = QueryCatalog::new(queries, 0)?;
        let classes = shared_class_store();
        let interner =
            SetInterner::with_classes(Arc::clone(&classes)).with_memo_config(config.memo);
        let pruner: Option<SharedPruner> = config.pruning.then(|| {
            Arc::new(CatalogPruner {
                catalog: catalog.shared(),
                classes: Arc::clone(&classes),
            }) as SharedPruner
        });
        Ok(FramePath {
            maintainer: kind.build_with_options(config.window, pruner, interner),
            lifecycle: ObjectLifecycle::new(classes),
            catalog,
            config,
            frames_since_compaction_check: 0,
            result_states: 0,
            compacted: false,
        })
    }

    /// One frame: lifecycle, maintainer, compaction check, evaluation.
    pub fn frame(
        &mut self,
        tracer: &mut Tracer,
        parent: SpanId,
        index: u64,
        frame: &FrameObjects,
    ) -> Res<Vec<QueryMatch>> {
        let snapshot = Arc::clone(self.catalog.snapshot());
        let objects = tracer.span(LIFECYCLE, parent, index, || {
            if !frame.track_ends.is_empty() {
                self.lifecycle.end_tracks(&frame.track_ends);
            }
            let mut internal: Vec<ObjectId> = Vec::with_capacity(frame.classes.len());
            self.lifecycle.resolve_frame(
                &frame.classes,
                snapshot.relevant_classes(),
                &mut internal,
            );
            ObjectSet::from_ids(internal)
        });
        tracer.span(ADVANCE, parent, index, || {
            self.maintainer.advance(frame.fid, &objects)
        })?;
        self.compacted = false;
        if let Some(policy) = self.config.compaction {
            self.frames_since_compaction_check += 1;
            if self.frames_since_compaction_check >= policy.check_interval {
                self.frames_since_compaction_check = 0;
                self.compacted = tracer.span(COMPACT, parent, index, || {
                    match self.maintainer.maybe_compact(&policy) {
                        Some(outcome) => {
                            self.lifecycle.retire(&outcome.retired_objects);
                            true
                        }
                        None => false,
                    }
                });
            }
        }
        let matches = tracer.span(EVAL, parent, index, || {
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
                for m in &mut matches {
                    m.objects = ObjectSet::from_ids(
                        m.objects.iter().map(|id| self.lifecycle.external_of(id)),
                    );
                }
            }
            matches
        });
        self.result_states += self.maintainer.results().len() as u64;
        Ok(matches)
    }

    /// Swaps the catalog as `add_query` / `remove_query` do.
    pub fn add_query(&mut self, query: CnfQuery) -> Res<()> {
        self.catalog.add_query(query)?;
        self.maintainer.pruner_changed();
        Ok(())
    }

    pub fn remove_query(&mut self, id: tvq_common::QueryId) -> Res<()> {
        self.catalog.remove_query(id)?;
        self.maintainer.pruner_changed();
        Ok(())
    }

    pub fn metrics(&self) -> &MaintenanceMetrics {
        self.maintainer.metrics()
    }

    pub fn maintainer(&self) -> &dyn StateMaintainer {
        self.maintainer.as_ref()
    }
}
