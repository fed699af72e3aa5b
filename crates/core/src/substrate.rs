//! The substrate MFS, SSG and NAIVE run on.
//!
//! The three strategies differ in how they derive the states of a window;
//! everything around that is the same job and is done here, once. A
//! strategy owns a [`Substrate`] next to its own state table or graph and
//! leaves to it: frame-order checking, pruner judgement,
//! result reporting, the compaction epoch, `pruner_changed`, and the
//! interner / cursor / metrics parts of the snapshot.

use tvq_common::{
    Decoder, Encoder, Error, FrameId, MarkedFrameSet, RemapTable, Result, SetId, SetInterner,
    WindowSpec,
};

use crate::compaction::{CompactionOutcome, CompactionPolicy};
use crate::maintainer::check_order;
use crate::metrics::MaintenanceMetrics;
use crate::prune::{PrunerVerdictCache, SharedPruner};
use crate::result_set::{ReportedSets, ResultStateSet};

/// What every interner-backed maintainer holds besides its own states.
pub(crate) struct Substrate {
    pub(crate) spec: WindowSpec,
    /// The per-feed interner every handle of the strategy refers to.
    pub(crate) interner: SetInterner,
    /// The Result State Set of the window ending at `last_frame`.
    pub(crate) results: ResultStateSet,
    /// Materialised object sets and class counts of the reported states,
    /// by handle.
    reported: ReportedSets,
    pub(crate) metrics: MaintenanceMetrics,
    /// The Section 5.3 pruner (the `_O` variants) and its verdicts.
    pruner: Option<SharedPruner>,
    verdicts: PrunerVerdictCache,
    pub(crate) last_frame: Option<FrameId>,
}

impl Substrate {
    pub(crate) fn new(
        spec: WindowSpec,
        interner: SetInterner,
        pruner: Option<SharedPruner>,
    ) -> Self {
        Substrate {
            spec,
            interner,
            results: ResultStateSet::new(),
            reported: ReportedSets::default(),
            metrics: MaintenanceMetrics::new(),
            pruner,
            verdicts: PrunerVerdictCache::new(),
            last_frame: None,
        }
    }

    pub(crate) fn has_pruner(&self) -> bool {
        self.pruner.is_some()
    }

    /// Admits the next frame (identifiers must strictly increase) and
    /// returns the oldest frame still inside the window ending at it.
    pub(crate) fn begin_frame(&mut self, frame: FrameId) -> Result<FrameId> {
        check_order(self.last_frame, frame)?;
        self.last_frame = Some(frame);
        self.metrics.frames_processed += 1;
        Ok(self.spec.oldest_valid(frame))
    }

    /// Whether the pruner already judged `sid` hopeless.
    pub(crate) fn is_terminated(&self, sid: SetId) -> bool {
        self.verdicts.is_terminated(sid)
    }

    /// Judges a new object set through the per-handle verdict cache;
    /// `false` without an active pruner.
    pub(crate) fn terminate_if_hopeless(&mut self, sid: SetId) -> bool {
        let Some(pruner) = &self.pruner else {
            return false;
        };
        self.verdicts.judge(
            pruner.as_ref(),
            &self.interner,
            sid,
            &mut self.metrics.states_terminated,
        )
    }

    /// The pruner's decision function changed: every verdict is stale.
    pub(crate) fn pruner_changed(&mut self) {
        self.verdicts.clear();
    }

    /// End-of-frame gauges, then an empty result set for
    /// [`report`](Self::report) to fill.
    pub(crate) fn begin_results(&mut self, live_states: usize) {
        self.metrics.observe_live_states(live_states);
        self.metrics.observe_interner(&self.interner);
        self.results.clear();
    }

    /// Reports the satisfied, valid state behind `sid`.
    pub(crate) fn report(&mut self, sid: SetId, frames: &MarkedFrameSet) {
        let (objects, counts) = self.reported.set_of(&self.interner, sid);
        self.results.insert_with_counts(objects, frames, counts);
    }

    /// Forgets the object sets and counts of states that left the results.
    pub(crate) fn end_results(&mut self) {
        self.reported.retain_reported(&self.results);
    }

    /// One compaction check over `live_states` live handles (listed by
    /// `live` only if the policy agrees). An epoch compacts the interner and
    /// re-keys the verdict cache; the strategy must then re-key its own
    /// handles through the returned table and pass the outcome upward.
    pub(crate) fn compact(
        &mut self,
        policy: &CompactionPolicy,
        live_states: usize,
        live: impl FnOnce() -> Vec<SetId>,
    ) -> Option<(RemapTable, CompactionOutcome)> {
        if !policy.should_compact(live_states + 1, self.interner.len()) {
            return None;
        }
        let mut table = self.interner.compact(&live());
        self.reported.clear();
        self.verdicts.remap(&table);
        self.metrics.compactions += 1;
        self.metrics.observe_interner(&self.interner);
        let outcome = CompactionOutcome {
            epoch: table.epoch(),
            retired_sets: table.retired(),
            retired_objects: table.take_retired_objects(),
        };
        Some((table, outcome))
    }

    /// Opens a maintainer snapshot: interner arena and frame cursor. The
    /// strategy's own state follows, then the `metrics`.
    pub(crate) fn put_head(&self, enc: &mut Encoder) {
        self.interner.encode(enc);
        enc.put_opt_u64(self.last_frame.map(FrameId::raw));
    }

    /// Reads what [`put_head`](Self::put_head) wrote, into a freshly built
    /// maintainer only (nothing advanced, nothing interned). Verdicts and
    /// results are not persisted: the next `advance` re-collects results and
    /// the pruner re-judges handles on demand.
    pub(crate) fn take_head(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        if self.last_frame.is_some() {
            return Err(Error::Store(
                "restore_state requires a freshly built maintainer".into(),
            ));
        }
        self.interner.restore_into_fresh(dec)?;
        self.last_frame = dec.take_opt_u64()?.map(FrameId);
        Ok(())
    }
}
