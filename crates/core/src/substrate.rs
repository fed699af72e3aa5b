//! The substrate MFS, SSG and NAIVE run on.
//!
//! The three strategies differ in how they derive the states of a window;
//! everything around that is the same job and is done here, once. A
//! strategy owns a [`Substrate`] next to its own states and leaves to it:
//! frame-order checking, pruner judgement, result reporting, the
//! compaction epoch and `pruner_changed`.
//!
//! MFS and SSG also share their states: one [`StateTable`] of marked frame
//! sets, with the Frame Marking Rules' Rule 2, the validity test of
//! Theorems 1 and 4, result collection and the one snapshot codec both
//! write. What differs is which rows a frame reaches: MFS sweeps all of
//! them, SSG walks its graph.

use tvq_common::{
    Decoder, Encoder, Error, FrameId, MarkedFrameSet, ObjectSet, RemapTable, Result, SetId,
    SetInterner, WindowSpec,
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
}

/// Marks a handle that is not a live state in [`StateTable::rows`].
const NO_ROW: u32 = u32::MAX;

/// The live states of MFS and SSG. Each row is an interned [`SetId`] and
/// its marked frame set, found by handle through a dense `rows` column.
/// Every row holds a marked in-window frame between frames: expiry drops
/// the rest at the start of the next one.
#[derive(Default)]
pub(crate) struct StateTable {
    /// The live states, in the order they were added.
    states: Vec<(SetId, MarkedFrameSet)>,
    /// Raw handle → its row in `states`, or [`NO_ROW`]; grown to the
    /// interner's length when a row is added.
    rows: Vec<u32>,
}

impl StateTable {
    pub(crate) fn len(&self) -> usize {
        self.states.len()
    }

    /// The row holding the live state of `sid`, if it is one.
    pub(crate) fn row_of(&self, sid: SetId) -> Option<usize> {
        let row = *self.rows.get(sid.raw() as usize)?;
        (row != NO_ROW).then_some(row as usize)
    }

    pub(crate) fn sid(&self, row: usize) -> SetId {
        self.states[row].0
    }

    pub(crate) fn frames(&self, row: usize) -> &MarkedFrameSet {
        &self.states[row].1
    }

    pub(crate) fn frames_mut(&mut self, row: usize) -> &mut MarkedFrameSet {
        &mut self.states[row].1
    }

    /// Adds a row for `sid`, a handle of `interner` with no row yet.
    pub(crate) fn push(&mut self, sid: SetId, frames: MarkedFrameSet, interner: &SetInterner) {
        let at = sid.raw() as usize;
        if at >= self.rows.len() {
            self.rows.resize(interner.len(), NO_ROW);
        }
        self.rows[at] = self.states.len() as u32;
        self.states.push((sid, frames));
    }

    /// `row`'s frame set and, read-only, `source`'s.
    fn pair(&mut self, row: usize, source: usize) -> (&mut MarkedFrameSet, &MarkedFrameSet) {
        let [(_, target), (_, source)] = self
            .states
            .get_disjoint_mut([row, source])
            // infallible: Rule 2 runs from a state onto a proper subset of
            // it, and no two rows hold one set.
            .expect("a state and a proper subset of it are two rows");
        (target, source)
    }

    /// Frame Marking Rule 2 onto `row`, a proper subset of `parent`, that
    /// already holds every frame `parent` does: `parent`'s key frames other
    /// than `arriving` become key frames of `row`.
    pub(crate) fn inherit_marks(&mut self, row: usize, parent: usize, arriving: FrameId) {
        let (target, source) = self.pair(row, parent);
        target.inherit_marks(source, arriving);
    }

    /// Frame-set completeness and Rule 2 onto `row`, a proper subset of
    /// `parent`: it co-occurs in every frame `parent` does and keeps their
    /// key frames.
    pub(crate) fn merge_from(&mut self, row: usize, parent: usize) {
        let (target, source) = self.pair(row, parent);
        target.merge_from(source);
    }

    /// The start of a frame whose window begins at `oldest`: expires every
    /// row and drops each one left with no marked frame (Theorems 1 and 4:
    /// its object set is no longer an MCOS), handing its handle to
    /// `dropped` in row order.
    pub(crate) fn expire(
        &mut self,
        oldest: FrameId,
        metrics: &mut MaintenanceMetrics,
        mut dropped: impl FnMut(SetId),
    ) {
        let before = self.states.len();
        let (rows, mut kept) = (&mut self.rows, 0);
        self.states.retain_mut(|(sid, frames)| {
            frames.expire_before(oldest);
            let keep = frames.has_marked();
            rows[sid.raw() as usize] = if keep { kept } else { NO_ROW };
            kept += u32::from(keep);
            if !keep {
                dropped(*sid);
            }
            keep
        });
        metrics.states_pruned += (before - self.states.len()) as u64;
    }

    /// The end of a frame: reports every valid row that meets the duration
    /// threshold.
    pub(crate) fn collect_results(&self, core: &mut Substrate) {
        core.begin_results(self.states.len());
        for (sid, frames) in &self.states {
            if frames.has_marked() && core.spec.satisfies_duration(frames.len()) {
                core.report(*sid, frames);
            }
        }
        core.end_results();
    }

    /// Every row's handle: the live list a compaction epoch keeps.
    pub(crate) fn live(&self) -> Vec<SetId> {
        self.states.iter().map(|(sid, _)| *sid).collect()
    }

    /// Re-keys every row through a compaction epoch's remap table.
    pub(crate) fn remap(&mut self, table: &RemapTable) {
        self.rows.clear();
        self.rows.resize(table.live(), NO_ROW);
        for (row, (sid, _)) in self.states.iter_mut().enumerate() {
            // infallible: the compaction kept `live()`, these rows' handles.
            *sid = table.remap(*sid).expect("live handles are kept");
            self.rows[sid.raw() as usize] = row as u32;
        }
    }

    /// The rows as (object set, marked frame set) pairs, in row order.
    pub(crate) fn states<'a>(
        &'a self,
        interner: &'a SetInterner,
    ) -> impl Iterator<Item = (ObjectSet, &'a MarkedFrameSet)> {
        self.states
            .iter()
            .map(|(sid, frames)| (interner.resolve(*sid), frames))
    }

    /// The snapshot MFS and SSG both write: `core`'s interner arena and
    /// frame cursor, the rows in handle order (which keeps the format
    /// independent of row order), then `core`'s metrics.
    pub(crate) fn snapshot(&self, core: &Substrate, enc: &mut Encoder) {
        core.interner.encode(enc);
        enc.put_opt_u64(core.last_frame.map(FrameId::raw));
        let mut sorted: Vec<&(SetId, MarkedFrameSet)> = self.states.iter().collect();
        sorted.sort_unstable_by_key(|(sid, _)| *sid);
        enc.put_usize(sorted.len());
        for (sid, frames) in sorted {
            enc.put_u32(sid.raw());
            frames.encode(enc);
        }
        core.metrics.encode(enc);
    }

    /// Reads what [`snapshot`](Self::snapshot) wrote into `core`, which
    /// must be freshly built (nothing advanced, nothing interned), and
    /// returns the table. A handle outside the restored arena, a second row
    /// for one handle, or a frame outside the window ending at the restored
    /// cursor is corrupt data. Verdicts and results are not persisted: the
    /// next `advance` re-collects results and the pruner re-judges handles
    /// on demand.
    pub(crate) fn restore(core: &mut Substrate, dec: &mut Decoder<'_>) -> Result<StateTable> {
        if core.last_frame.is_some() {
            return Err(Error::Store(
                "restore_state requires a freshly built maintainer".into(),
            ));
        }
        core.interner.restore_into_fresh(dec)?;
        core.last_frame = dec.take_opt_u64()?.map(FrameId);
        let mut table = StateTable::default();
        for _ in 0..dec.take_len()? {
            let sid = SetId::from_raw(dec.take_u32()?);
            let frames = MarkedFrameSet::decode(dec, core.spec.window())?;
            if sid.is_empty_set() || sid.raw() as usize >= core.interner.len() {
                return Err(Error::Corrupt(format!(
                    "state references handle {} outside the restored arena",
                    sid.raw()
                )));
            }
            if table.row_of(sid).is_some() {
                return Err(Error::Corrupt(format!(
                    "duplicate state for handle {}",
                    sid.raw()
                )));
            }
            if let Some((first, last)) = frames.first().zip(frames.last()) {
                let cursor = core.last_frame;
                if cursor.is_none_or(|at| last > at || first < core.spec.oldest_valid(at)) {
                    return Err(Error::Corrupt(format!(
                        "state for handle {} holds frames {}..={} outside the window ending at \
                         the restored cursor",
                        sid.raw(),
                        first.raw(),
                        last.raw()
                    )));
                }
            }
            table.push(sid, frames, &core.interner);
        }
        core.metrics = MaintenanceMetrics::decode(dec)?;
        Ok(table)
    }
}

#[cfg(test)]
impl StateTable {
    /// Every row's `rows` entry points back to it, and no other entry
    /// names a row.
    pub(crate) fn assert_rows_point_back(&self) {
        for (row, (sid, _)) in self.states.iter().enumerate() {
            assert_eq!(self.row_of(*sid), Some(row), "handle {}", sid.raw());
        }
        let named = self.rows.iter().filter(|&&row| row != NO_ROW).count();
        assert_eq!(named, self.states.len());
    }
}
