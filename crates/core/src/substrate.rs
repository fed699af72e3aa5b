//! The substrate MFS, SSG and NAIVE run on, and the one maintainer of MFS
//! and SSG.
//!
//! Each strategy holds a [`Substrate`]: frame-order checking, pruner
//! judgement, result reporting, releasing the sets no state holds, the
//! compaction epoch and `pruner_changed`.
//!
//! MFS and SSG keep the same states under the same rules, so they are one
//! [`Maintainer`] over one [`StateTable`], the only code that edits a state.
//! A row is a state's object set and its frames, of which the *key frames*
//! are marked by the Frame Marking Rules:
//!
//! 1. the arriving frame is a key frame of the state of its own object set
//!    (`principal`);
//! 2. a state that is a parent's intersection with the arriving frame
//!    inherits the parent's key frames (`derive` for a new state,
//!    `merge_from` for one that exists, which also keeps frame sets
//!    complete: a row holds every in-window frame that contains its set).
//!
//! A frame `f` is marked in state `X` only when the intersection of `X`'s
//! frames from `f` on is `X`, so while a key frame is in the window the
//! state is an MCOS of its frames (Theorems 1 and 4). Expiry drops every
//! other row and releases its set; result collection reports the rows that
//! meet the duration threshold; and the table writes the one snapshot. With
//! the pruner of Section 5.3 (the `_O` variants), a hopeless set is never
//! materialised. What differs between MFS and SSG is which rows a frame
//! reaches, the maintainer's [`Reach`]: MFS sweeps all of them
//! (`mfs::Sweep`), SSG walks its graph down from the principal states
//! (`ssg::Traversal`).

use tvq_common::{
    Decoder, Encoder, Error, FrameId, MarkedFrameSet, ObjectId, ObjectSet, RemapTable, Result,
    SetId, SetInterner, WindowSpec,
};

use crate::compaction::{CompactionOutcome, CompactionPolicy};
use crate::maintainer::{check_order, StateMaintainer};
use crate::metrics::MaintenanceMetrics;
use crate::prune::{PrunerVerdictCache, SharedPruner};
use crate::result_set::{Reported, ResultStateSet};

/// What every interner-backed maintainer holds besides its own states.
pub(crate) struct Substrate {
    pub(crate) spec: WindowSpec,
    /// The per-feed interner every handle of the strategy refers to.
    pub(crate) interner: SetInterner,
    /// The Result State Set of the window ending at `last_frame`.
    pub(crate) results: ResultStateSet,
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

    /// Releases the set of a state that died: the interner frees its
    /// handle, and the verdict kept for it goes.
    pub(crate) fn release(&mut self, sid: SetId) {
        self.interner.release(sid);
        self.verdicts.forget(sid);
    }

    /// The end of a frame's edits: releases every set the frame minted
    /// that `holds` says no state keeps, so between frames the interner
    /// holds exactly the states' sets and the empty set.
    pub(crate) fn release_unheld(&mut self, holds: impl FnMut(SetId) -> bool) {
        self.interner
            .release_unheld(holds, |sid| self.verdicts.forget(sid));
    }

    /// End-of-frame gauges, then an empty result set for
    /// [`report`](Self::report) to fill.
    pub(crate) fn begin_results(&mut self, live_states: usize) {
        self.metrics.observe_live_states(live_states);
        self.metrics.observe_interner(&self.interner);
        self.results.clear();
    }

    /// Reports the satisfied, valid state behind `sid`, whose record holds
    /// `frames` and `reported`, materialising its set there on first report.
    pub(crate) fn report(&mut self, sid: SetId, frames: &MarkedFrameSet, reported: &mut Reported) {
        let (objects, counts) = &**reported.get_or_insert_with(|| {
            let counts = self.interner.counts_of(sid).map(Into::into);
            Box::new((self.interner.resolve(sid), counts))
        });
        self.results.insert(objects.clone(), frames, counts.clone());
    }

    /// One compaction check over `live_states` live handles (listed by
    /// `live` only if the policy agrees), weighed against the sets minted
    /// this epoch. An epoch compacts the interner and re-keys the verdict
    /// cache; the strategy must then re-key its own handles through the
    /// returned table and pass the outcome upward.
    pub(crate) fn compact(
        &mut self,
        policy: &CompactionPolicy,
        live_states: usize,
        live: impl FnOnce() -> Vec<SetId>,
    ) -> Option<(RemapTable, CompactionOutcome)> {
        if !policy.should_compact(live_states + 1, self.interner.minted()) {
            return None;
        }
        let mut table = self.interner.compact(&live());
        self.verdicts.remap(&table);
        self.metrics.compactions += 1;
        self.metrics.observe_interner(&self.interner);
        let outcome = CompactionOutcome {
            epoch: self.metrics.compactions,
            retired_objects: table.take_retired_objects(),
        };
        Some((table, outcome))
    }
}

/// Marks a handle that is not a live state in [`StateTable::rows`].
const NO_ROW: u32 = u32::MAX;

/// The live states of MFS and SSG. Each row is an interned [`SetId`], its
/// marked frame set and, while it is a result, its [`Reported`] set; a row
/// is found by handle through a dense `rows` column. Every row holds a
/// marked in-window frame between frames: expiry drops the rest at the
/// start of the next one.
#[derive(Default)]
pub(crate) struct StateTable {
    /// The live states, in the order they were added.
    states: Vec<(SetId, MarkedFrameSet, Reported)>,
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

    /// Adds a row for `sid`, a handle of `interner` with no row yet.
    pub(crate) fn push(&mut self, sid: SetId, frames: MarkedFrameSet, interner: &SetInterner) {
        let at = sid.raw() as usize;
        if at >= self.rows.len() {
            self.rows.resize(interner.len(), NO_ROW);
        }
        self.rows[at] = self.states.len() as u32;
        self.states.push((sid, frames, None));
    }

    /// Frame Marking Rule 1: the arriving `frame` is a key frame of the
    /// state of its own object set `sid`, which the pruner judges first.
    /// Appends the frame to `sid`'s row (once, as [`append`](Self::append)
    /// does) and marks it there, or adds the row (a new state). Returns
    /// whether `sid` holds a row now.
    pub(crate) fn principal(&mut self, core: &mut Substrate, sid: SetId, frame: FrameId) -> bool {
        if core.terminate_if_hopeless(sid) {
            return false;
        }
        match self.row_of(sid) {
            Some(row) => {
                self.append(row, frame, &mut core.metrics);
                self.states[row].1.push(frame, true);
            }
            None => {
                self.push(sid, MarkedFrameSet::singleton(frame, true), &core.interner);
                core.metrics.states_created += 1;
            }
        }
        true
    }

    /// A new state for `sid`, a proper subset of `parent`'s set in the
    /// arriving `frame`, unless the pruner judges it hopeless (`false`): it
    /// holds `parent`'s frames and marks (Rule 2) and `frame`, unmarked. The
    /// state is new, so `frame` is not an append.
    pub(crate) fn derive(
        &mut self,
        core: &mut Substrate,
        sid: SetId,
        parent: usize,
        frame: FrameId,
    ) -> bool {
        if core.terminate_if_hopeless(sid) {
            return false;
        }
        let mut frames = self.frames(parent).clone();
        frames.push(frame, false);
        self.push(sid, frames, &core.interner);
        core.metrics.states_created += 1;
        true
    }

    /// Gives the arriving `frame` to `row`, a state it contains, once; the
    /// first time counts in `frames_appended`.
    pub(crate) fn append(&mut self, row: usize, frame: FrameId, metrics: &mut MaintenanceMetrics) {
        let frames = &mut self.states[row].1;
        if !frames.contains(frame) {
            frames.push(frame, false);
            metrics.frames_appended += 1;
        }
    }

    /// Frame-set completeness and Rule 2 onto `row`, a proper subset of
    /// `parent`: it co-occurs in every frame `parent` does and keeps their
    /// key frames.
    pub(crate) fn merge_from(&mut self, row: usize, parent: usize) {
        let [(_, target, _), (_, source, _)] = self
            .states
            .get_disjoint_mut([row, parent])
            // infallible: Rule 2 runs from a state onto a proper subset of
            // it, and no two rows hold one set.
            .expect("a state and a proper subset of it are two rows");
        target.merge_from(source);
    }

    /// The start of a frame whose window begins at `oldest`: expires every
    /// row and drops each one left with no marked frame (Theorems 1 and 4:
    /// its object set is no longer an MCOS), handing its handle to
    /// `dropped` in row order and then releasing its set.
    pub(crate) fn expire(
        &mut self,
        oldest: FrameId,
        core: &mut Substrate,
        mut dropped: impl FnMut(SetId, &SetInterner),
    ) {
        let before = self.states.len();
        let (rows, mut kept) = (&mut self.rows, 0);
        self.states.retain_mut(|(sid, frames, _)| {
            frames.expire_before(oldest);
            let keep = frames.has_marked();
            rows[sid.raw() as usize] = if keep { kept } else { NO_ROW };
            kept += u32::from(keep);
            if !keep {
                dropped(*sid, &core.interner);
                core.release(*sid);
            }
            keep
        });
        core.metrics.states_pruned += (before - self.states.len()) as u64;
    }

    /// The end of a frame: releases the sets the frame minted that got no
    /// row, then reports every valid row that meets the duration threshold
    /// and empties the reported set of every other row.
    pub(crate) fn collect_results(&mut self, core: &mut Substrate) {
        core.release_unheld(|sid| self.row_of(sid).is_some());
        core.begin_results(self.states.len());
        for (sid, frames, reported) in &mut self.states {
            if frames.has_marked() && core.spec.satisfies_duration(frames.len()) {
                core.report(*sid, frames, reported);
            } else {
                *reported = None;
            }
        }
    }

    /// Re-keys every row through a compaction epoch's remap table.
    pub(crate) fn remap(&mut self, table: &RemapTable) {
        self.rows.clear();
        self.rows.resize(table.live(), NO_ROW);
        for (row, (sid, ..)) in self.states.iter_mut().enumerate() {
            // infallible: the compaction kept `live()`, these rows' handles.
            *sid = table.remap(*sid).expect("live handles are kept");
            self.rows[sid.raw() as usize] = row as u32;
        }
    }

    /// The snapshot MFS and SSG both write, one section: `core`'s cursor,
    /// its interner's minted count and parked objects (ascending), then
    /// each row in row order, as its set's sorted object ids and its marked
    /// frame set, then `core`'s metrics. No handle or bit slot is written:
    /// between frames the interner holds the rows' sets and the empty set.
    pub(crate) fn snapshot(&self, core: &Substrate, enc: &mut Encoder) {
        enc.put_opt_u64(core.last_frame.map(FrameId::raw));
        enc.put_usize(core.interner.minted());
        let parked = core.interner.parked_objects();
        enc.put_usize(parked.len());
        parked.iter().for_each(|id| enc.put_u32(id.raw()));
        enc.put_usize(self.states.len());
        for (sid, frames, _) in &self.states {
            let set = core.interner.resolve(*sid);
            enc.put_usize(set.len());
            set.iter().for_each(|id| enc.put_u32(id.raw()));
            frames.encode(enc);
        }
        core.metrics.encode(enc);
    }

    /// Reads what [`snapshot`](Self::snapshot) wrote into `core`, which
    /// must be freshly built (nothing advanced, nothing interned), and
    /// returns the table: the same rows in the same order. The rows are
    /// decoded first, then [`SetInterner::restore`] puts their sets, the
    /// parked objects and the minted count back in one call. A frame
    /// outside the window ending at the restored cursor and a row with no
    /// key frame (between frames every row holds one) are corrupt data, as
    /// is what the interner refuses. Verdicts, results and the
    /// intersection memo are not persisted: the next `advance` re-collects
    /// results, the pruner re-judges handles on demand, and the memo
    /// refills (so its hit and miss counters may drift).
    pub(crate) fn restore(core: &mut Substrate, dec: &mut Decoder<'_>) -> Result<StateTable> {
        if core.last_frame.is_some() || core.interner.len() != 1 {
            return Err(Error::Store(
                "restore_state requires a freshly built maintainer".into(),
            ));
        }
        core.last_frame = dec.take_opt_u64()?.map(FrameId);
        let minted = dec.take_usize()?;
        let parked = (0..dec.take_len()?).map(|_| dec.take_u32().map(ObjectId));
        let parked = parked.collect::<Result<Vec<_>>>()?;
        let cursor = core.last_frame;
        let in_window = |frame: FrameId| {
            cursor.is_some_and(|at| core.spec.oldest_valid(at) <= frame && frame <= at)
        };
        let (mut sets, mut rows) = (Vec::new(), Vec::new());
        for row in 0..dec.take_len()? {
            let ids = (0..dec.take_len()?).map(|_| dec.take_u32().map(ObjectId));
            // Collecting re-sorts the untrusted ids.
            sets.push(ids.collect::<Result<ObjectSet>>()?);
            let frames = MarkedFrameSet::decode(dec, core.spec.window())?;
            if !frames.has_marked() {
                return Err(Error::Corrupt(format!("row {row} holds no key frame")));
            }
            if !(frames.first().is_some_and(in_window) && frames.last().is_some_and(in_window)) {
                return Err(Error::Corrupt(format!(
                    "row {row} holds frames outside the window ending at the restored cursor"
                )));
            }
            rows.push(frames);
        }
        let sids = core.interner.restore(&sets, &parked, minted)?;
        let mut table = StateTable::default();
        for (sid, frames) in sids.into_iter().zip(rows) {
            table.push(sid, frames, &core.interner);
        }
        core.metrics = MaintenanceMetrics::decode(dec)?;
        Ok(table)
    }
}

/// Which rows of the [`StateTable`] a frame reaches, and the state that
/// decision keeps. A reach edits states only through the table's calls.
/// The module is private, so no other crate can name this trait.
pub trait Reach: Default + Send + Sized {
    /// The maintainer's name without and with a pruner (Section 5.3).
    const NAMES: [&'static str; 2];

    /// The frame's walk, after expiry: interns `objects` and makes the
    /// table's calls on the rows it reaches, Rule 1 among them.
    fn walk(m: &mut Maintainer<Self>, frame: FrameId, objects: &ObjectSet);

    /// The start of a frame: the table's expiry, whose drop callback sees
    /// each dropped row's handle.
    fn expire(m: &mut Maintainer<Self>, oldest: FrameId) {
        m.table.expire(oldest, &mut m.core, |_, _| {});
    }

    /// Re-keys the reach's own handles after a compaction epoch.
    fn remap(&mut self, _table: &RemapTable) {}

    /// Builds the reach's state over a table just restored from a snapshot.
    fn rebuild(_m: &mut Maintainer<Self>) -> Result<()> {
        Ok(())
    }
}

/// The maintainer of MFS and SSG: a [`Substrate`], the [`StateTable`] of
/// the window's states and the reach `R` that decides which rows a frame
/// reaches. A frame is `begin_frame`, expiry, the reach's walk, then
/// result collection.
pub struct Maintainer<R> {
    pub(crate) core: Substrate,
    pub(crate) table: StateTable,
    pub(crate) reach: R,
}

impl<R: Reach> std::fmt::Debug for Maintainer<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Maintainer")
            .field("name", &self.name())
            .field("spec", &self.core.spec)
            .field("live_states", &self.table.len())
            .finish()
    }
}

impl<R: Reach> Maintainer<R> {
    /// Creates a maintainer for the given window specification, with a
    /// private interner (no class source) and no pruner.
    pub fn new(spec: WindowSpec) -> Self {
        Self::with_options(spec, SetInterner::new(), None)
    }

    /// Creates a maintainer around a caller-provided interner (the engine
    /// wires one per feed, sharing its object → class map) and an optional
    /// pruner: with one this is the `MFS_O` or `SSG_O` variant of
    /// Section 5.3.
    pub fn with_options(
        spec: WindowSpec,
        interner: SetInterner,
        pruner: Option<SharedPruner>,
    ) -> Self {
        Maintainer {
            core: Substrate::new(spec, interner, pruner),
            table: StateTable::default(),
            reach: R::default(),
        }
    }

    /// Exposes the live states (object set → marked frame set) for tests
    /// and the worked-example assertions.
    pub fn states(&self) -> impl Iterator<Item = (ObjectSet, &MarkedFrameSet)> {
        let states = self.table.states.iter();
        states.map(|(sid, frames, _)| (self.core.interner.resolve(*sid), frames))
    }
}

impl<R: Reach> StateMaintainer for Maintainer<R> {
    fn advance(&mut self, frame: FrameId, objects: &ObjectSet) -> Result<()> {
        let oldest = self.core.begin_frame(frame)?;
        R::expire(self, oldest);
        R::walk(self, frame, objects);
        self.table.collect_results(&mut self.core);
        Ok(())
    }

    fn last_frame(&self) -> Option<FrameId> {
        self.core.last_frame
    }

    fn results(&self) -> &ResultStateSet {
        &self.core.results
    }

    fn metrics(&self) -> &MaintenanceMetrics {
        &self.core.metrics
    }

    fn live_states(&self) -> usize {
        self.table.len()
    }

    fn name(&self) -> &'static str {
        R::NAMES[usize::from(self.core.has_pruner())]
    }

    fn maybe_compact(&mut self, policy: &CompactionPolicy) -> Option<CompactionOutcome> {
        // A compaction epoch keeps every row, its handle re-keyed and its
        // reported set carried along.
        let live = || self.table.states.iter().map(|(sid, ..)| *sid).collect();
        let (table, outcome) = self.core.compact(policy, self.table.len(), live)?;
        self.table.remap(&table);
        self.reach.remap(&table);
        Some(outcome)
    }

    fn pruner_changed(&mut self) {
        self.core.pruner_changed();
    }

    fn snapshot_state(&self, enc: &mut Encoder) -> Result<()> {
        self.table.snapshot(&self.core, enc);
        Ok(())
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        self.table = StateTable::restore(&mut self.core, dec)?;
        R::rebuild(self)
    }
}

#[cfg(test)]
impl StateTable {
    /// Every row's `rows` entry points back to it, and no other entry
    /// names a row.
    pub(crate) fn assert_rows_point_back(&self) {
        for (row, (sid, ..)) in self.states.iter().enumerate() {
            assert_eq!(self.row_of(*sid), Some(row), "handle {}", sid.raw());
        }
        let named = self.rows.iter().filter(|&&row| row != NO_ROW).count();
        assert_eq!(named, self.states.len());
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::mfs::MfsMaintainer;
    use crate::naive::NaiveMaintainer;
    use crate::prune::MinCardinalityPruner;
    use crate::ssg::SsgMaintainer;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::collections::BTreeSet;
    use std::sync::Arc;
    use tvq_common::{shared_class_store, ClassId};

    pub(crate) fn set(ids: &[u32]) -> ObjectSet {
        ObjectSet::from_raw(ids.iter().copied())
    }

    /// Objects of the paper's running example: A=1, B=2, C=3, D=4, F=6.
    pub(crate) fn paper_frames() -> Vec<ObjectSet> {
        vec![
            set(&[2]),
            set(&[1, 2, 3]),
            set(&[1, 2, 4, 6]),
            set(&[1, 2, 3, 6]),
            set(&[1, 2, 4]),
        ]
    }

    /// The states in object-set order (after a restore, SSG's walk may add
    /// rows in another order than the uninterrupted run's).
    pub(crate) fn sorted_states<R: Reach>(m: &Maintainer<R>) -> Vec<(ObjectSet, MarkedFrameSet)> {
        let mut states: Vec<_> = m.states().map(|(set, f)| (set, f.clone())).collect();
        states.sort_by(|a, b| a.0.cmp(&b.0));
        states
    }

    /// A row's object ids and its `(frame, marked)` pairs.
    pub(crate) type Entry<'a> = (&'a [u32], &'a [(u64, bool)]);

    /// A hand-written snapshot: the cursor, the minted count, the parked
    /// objects, each row's set and frames, and fresh metrics.
    pub(crate) fn blob(
        cursor: Option<u64>,
        minted: usize,
        parked: &[u32],
        rows: &[Entry<'_>],
    ) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_opt_u64(cursor);
        enc.put_usize(minted);
        enc.put_usize(parked.len());
        parked.iter().for_each(|&id| enc.put_u32(id));
        enc.put_usize(rows.len());
        for (ids, frames) in rows {
            enc.put_usize(ids.len());
            ids.iter().for_each(|&id| enc.put_u32(id));
            let frames: MarkedFrameSet = frames.iter().map(|&(f, m)| (FrameId(f), m)).collect();
            frames.encode(&mut enc);
        }
        MaintenanceMetrics::new().encode(&mut enc);
        enc.into_bytes()
    }

    /// `bytes` restored into a fresh maintainer, which must read them all.
    pub(crate) fn restore<R: Reach>(spec: WindowSpec, bytes: &[u8]) -> Result<Maintainer<R>> {
        let mut m = Maintainer::new(spec);
        let mut dec = Decoder::new(bytes);
        m.restore_state(&mut dec)?;
        dec.finish()?;
        Ok(m)
    }

    // The behaviours MFS and SSG share are written once here, generic over
    // the reach, and run by one test per reach in `mfs::tests` and
    // `ssg::tests`.

    pub(crate) fn rejects_out_of_order_frames<R: Reach>() {
        let spec = WindowSpec::new(4, 1).unwrap();
        let mut m = Maintainer::<R>::new(spec);
        m.advance(FrameId(1), &set(&[1])).unwrap();
        assert!(m.advance(FrameId(1), &set(&[1])).is_err());
        assert!(m.advance(FrameId(0), &set(&[1])).is_err());
    }

    /// Empty frames first and between, a disjoint set beside an older one,
    /// and the older one leaving the window.
    pub(crate) fn empty_frames_are_tolerated<R: Reach>() {
        let spec = WindowSpec::new(3, 1).unwrap();
        let mut m = Maintainer::<R>::new(spec);
        m.advance(FrameId(0), &ObjectSet::empty()).unwrap();
        m.advance(FrameId(1), &set(&[1, 2])).unwrap();
        m.advance(FrameId(2), &ObjectSet::empty()).unwrap();
        assert!(m.results().contains(&set(&[1, 2])));
        m.advance(FrameId(3), &set(&[7, 8])).unwrap();
        assert!(m.results().contains(&set(&[1, 2])));
        assert!(m.results().contains(&set(&[7, 8])));
        for i in 4..6 {
            m.advance(FrameId(i), &set(&[7, 8])).unwrap();
        }
        // {1,2} has left the window.
        assert!(!m.results().contains(&set(&[1, 2])));
        let frames = m.results().frames_of(&set(&[7, 8])).unwrap();
        assert_eq!(frames, &[FrameId(3), FrameId(4), FrameId(5)]);
    }

    /// The pruner's hopeless sets are never materialised, as principal
    /// states or as intersections. Returns the maintainer, whose name the
    /// caller checks.
    pub(crate) fn termination_suppresses_hopeless_states<R: Reach>() -> Maintainer<R> {
        let spec = WindowSpec::new(4, 1).unwrap();
        let pruner = Arc::new(MinCardinalityPruner { min_objects: 2 });
        let mut m = Maintainer::<R>::with_options(spec, SetInterner::new(), Some(pruner));
        m.advance(FrameId(0), &set(&[1])).unwrap();
        // The single-object state is terminated, not materialised.
        assert_eq!(m.live_states(), 0);
        assert_eq!(m.metrics().states_terminated, 1);
        m.advance(FrameId(1), &set(&[1, 2])).unwrap();
        assert_eq!(m.live_states(), 1);
        m.advance(FrameId(2), &set(&[2, 3])).unwrap();
        // {2} = {1,2} ∩ {2,3} would be a new state but is terminated.
        assert!(!m.results().contains(&set(&[2])));
        assert!(m.results().contains(&set(&[1, 2])));
        assert!(m.results().contains(&set(&[2, 3])));
        assert_eq!(m.metrics().states_terminated, 2);
        m
    }

    /// The satisfied, valid result states must match Table 1's EXP column.
    pub(crate) fn paper_example_results_match_table_1<R: Reach>() {
        let spec = WindowSpec::new(4, 3).unwrap();
        let mut m = Maintainer::<R>::new(spec);
        let frames = paper_frames();
        let expected: [&[ObjectSet]; 5] = [
            &[],
            &[],
            &[set(&[2])],
            &[set(&[1, 2]), set(&[2])],
            &[set(&[1, 2])],
        ];
        for (i, (frame, expected)) in frames.iter().zip(expected).enumerate() {
            m.advance(FrameId(i as u64), frame).unwrap();
            assert_eq!(m.results().object_sets(), expected, "frame {i}");
        }
        // The reported frame set covers all frames where {A,B} co-occur.
        assert_eq!(
            m.results().frames_of(&set(&[1, 2])).unwrap(),
            &[FrameId(1), FrameId(2), FrameId(3), FrameId(4)]
        );
    }

    /// A snapshot restored into a fresh maintainer holds the original's
    /// states and metrics, and both run on with equal results. The memo is
    /// not persisted, so only its gauges may drift; the caller checks what
    /// its reach keeps beyond that. Returns the original and the restored.
    pub(crate) fn snapshot_restore_resumes_bit_identically<R: Reach>() -> [Maintainer<R>; 2] {
        let spec = WindowSpec::new(4, 2).unwrap();
        let mut original = Maintainer::<R>::new(spec);
        let patterns = paper_frames();
        for (i, frame) in patterns.iter().cycle().take(9).enumerate() {
            original.advance(FrameId(i as u64), frame).unwrap();
        }
        let mut enc = Encoder::new();
        original.snapshot_state(&mut enc).unwrap();
        let mut restored = restore::<R>(spec, enc.as_bytes()).unwrap();
        assert!(restored.states().eq(original.states()), "rows in row order");
        assert_eq!(restored.metrics(), original.metrics());
        for (i, frame) in patterns.iter().cycle().take(25).enumerate().skip(9) {
            original.advance(FrameId(i as u64), frame).unwrap();
            restored.advance(FrameId(i as u64), frame).unwrap();
            assert_eq!(restored.results(), original.results(), "frame {i}");
        }
        assert_eq!(
            restored.metrics().without_cache_gauges(),
            original.metrics().without_cache_gauges()
        );
        [original, restored]
    }

    /// A hand-written snapshot comes back as written: its rows in order,
    /// its parked object and its minted count. A used maintainer refuses
    /// to restore, and each malformed snapshot is corrupt.
    pub(crate) fn restore_rejects_used_maintainers_and_dangling_handles<R: Reach>() {
        let spec = WindowSpec::new(4, 2).unwrap();
        // Frames {1,2,3} and {1,2,4}, then object 7 parked; the first
        // row's ids are out of order.
        let rows: &[Entry<'_>] = &[
            (&[2, 1, 3], &[(0, true)]),
            (&[1, 2, 4], &[(1, true)]),
            (&[1, 2], &[(0, true), (1, false)]),
        ];
        let bytes = blob(Some(1), 6, &[7], rows);
        let mut restored = restore::<R>(spec, &bytes).unwrap();
        let states: Vec<_> = restored.states().map(|(s, f)| (s, f.clone())).collect();
        let written = rows.iter().map(|(ids, frames)| {
            let frames = frames.iter().map(|&(f, m)| (FrameId(f), m)).collect();
            (set(ids), frames)
        });
        assert_eq!(states, written.collect::<Vec<_>>(), "rows in written order");
        let interner = &restored.core.interner;
        assert_eq!(
            (interner.len(), interner.held(), interner.minted()),
            (4, 4, 6)
        );
        assert_eq!(interner.parked_objects(), [ObjectId(7)]);
        assert_eq!(
            interner.universe_object_ids(),
            [1, 2, 3, 4, 7].map(ObjectId)
        );
        // A parked object takes a slot again when a set holds it.
        restored.advance(FrameId(2), &set(&[1, 2, 7])).unwrap();
        let interner = &restored.core.interner;
        assert!(interner.get(&set(&[1, 2, 7])).is_some());
        assert_eq!((interner.parked_objects(), interner.minted()), (vec![], 7));

        // A maintainer that already advanced, or whose interner already
        // holds a set, refuses to restore.
        let mut used = Maintainer::<R>::new(spec);
        used.advance(FrameId(0), &set(&[9])).unwrap();
        let mut interned = SetInterner::new();
        interned.intern(&set(&[9]));
        let mut seeded = Maintainer::<R>::with_options(spec, interned, None);
        for m in [&mut used, &mut seeded] {
            let err = m.restore_state(&mut Decoder::new(&bytes)).unwrap_err();
            assert!(matches!(err, Error::Store(_)), "{err}");
        }

        // No handle is written, so none can dangle. Each of these is
        // corrupt, not a panic.
        let row = (&[1, 2][..], &[(0, true)][..]);
        for (what, bytes) in [
            (
                "a set written twice",
                blob(Some(0), 5, &[], &[row, (&[2, 1], &[(0, true)])]),
            ),
            (
                "the empty set as a row",
                blob(Some(0), 5, &[], &[row, (&[], &[(0, true)])]),
            ),
            (
                "a parked object written twice",
                blob(Some(0), 5, &[7, 7], &[row]),
            ),
            ("a parked object in a row", blob(Some(0), 5, &[2], &[row])),
            ("a minted count of the rows", blob(Some(0), 1, &[], &[row])),
            ("a minted count of 0", blob(Some(0), 0, &[], &[])),
            (
                "a frame after the cursor",
                blob(Some(0), 5, &[], &[(&[1, 2], &[(0, true), (1, false)])]),
            ),
            (
                "a row with no key frame",
                blob(Some(0), 5, &[], &[(&[1, 2], &[(0, false)])]),
            ),
        ] {
            let err = restore::<R>(spec, &bytes).unwrap_err();
            assert!(matches!(err, Error::Corrupt(_)), "{what}: {err}");
        }
    }

    /// Frame sets are complete: after every frame, each MFS and SSG row
    /// holds exactly the in-window frames whose object set contains the
    /// row's set. So a Rule-2 `merge_from` onto a row that existed before
    /// the frame only adds marks: the row already holds every frame of its
    /// parent, a superset, and no parent holds the arriving frame. The
    /// counters the table keeps mean one thing for both: MFS and SSG count
    /// equal states created and pruned, frames appended and peak states.
    #[test]
    fn rows_hold_every_in_window_frame_containing_their_set() {
        use std::collections::VecDeque;
        // Twelve object slots, each present 70 % of the time; a slot's
        // object changes every 50 frames. Object `100 s + g` is bit
        // `6 s + g` (g ≤ 5 over 200 frames), so a set is a `u128`.
        let mask = |set: &ObjectSet| {
            set.iter()
                .map(|id| 1u128 << (id.raw() / 100 * 6 + id.raw() % 100))
                .fold(0, |acc, bit| acc | bit)
        };
        for (seed, w, min_objects) in (0..2u64)
            .flat_map(|seed| [8, 30, 60].map(|w| (seed, w)))
            .flat_map(|(seed, w)| [None, Some(3)].map(|min| (seed, w, min)))
        {
            let spec = WindowSpec::new(w, w / 2).unwrap();
            let pruner = min_objects.map(|min_objects| -> SharedPruner {
                Arc::new(MinCardinalityPruner { min_objects })
            });
            let mut mfs = MfsMaintainer::with_options(spec, SetInterner::new(), pruner.clone());
            let mut ssg = SsgMaintainer::with_options(spec, SetInterner::new(), pruner);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut window = VecDeque::new();
            for i in 0..200u32 {
                let objects = ObjectSet::from_raw(
                    (0..12u32)
                        .filter(|_| rng.gen_bool(0.7))
                        .map(|s| s * 100 + (i + s * 5) / 50),
                );
                let frame = FrameId(u64::from(i));
                mfs.advance(frame, &objects).unwrap();
                ssg.advance(frame, &objects).unwrap();
                let table_counters = |m: &MaintenanceMetrics| {
                    [
                        m.states_created,
                        m.states_pruned,
                        m.frames_appended,
                        m.peak_live_states,
                    ]
                };
                assert_eq!(
                    table_counters(mfs.metrics()),
                    table_counters(ssg.metrics()),
                    "seed {seed} w={w} {min_objects:?} frame {i}"
                );
                window.push_back((frame, mask(&objects)));
                if window.len() > w {
                    window.pop_front();
                }
                for (name, states) in [
                    ("MFS", mfs.states().collect::<Vec<_>>()),
                    ("SSG", ssg.states().collect()),
                ] {
                    for (set, frames) in states {
                        let bits = mask(&set);
                        let complete = window
                            .iter()
                            .filter(|&&(_, objects)| bits & !objects == 0)
                            .map(|&(frame, _)| frame);
                        assert!(
                            frames.frames().eq(complete),
                            "{name} seed {seed} w={w} {min_objects:?} frame {i}: {set:?} {frames:?}"
                        );
                    }
                }
            }
        }
    }

    /// A maintainer whose interner and states the tests below compare.
    trait Holds: StateMaintainer {
        fn interner(&self) -> &SetInterner;
        fn state_sets(&self) -> BTreeSet<ObjectSet>;
    }

    macro_rules! holds {
        ($($kind:ty),*) => {$(
            impl Holds for $kind {
                fn interner(&self) -> &SetInterner {
                    &self.core.interner
                }
                fn state_sets(&self) -> BTreeSet<ObjectSet> {
                    self.states().map(|(set, _)| set).collect()
                }
            }
        )*};
    }
    holds!(NaiveMaintainer, MfsMaintainer, SsgMaintainer);

    /// The sets `interner` holds, the empty set included.
    fn held_sets(interner: &SetInterner) -> Vec<ObjectSet> {
        let handles = (0..interner.len() as u32).map(SetId::from_raw);
        let held: Vec<SetId> = handles.filter(|&s| interner.is_held(s)).collect();
        assert_eq!(held.len(), interner.held());
        held.into_iter().map(|sid| interner.resolve(sid)).collect()
    }

    /// Runs NAIVE, MFS, SSG, MFS_O and SSG_O over random films at w = 8,
    /// 30 and 60, with a compaction check every 16 frames, and calls
    /// `check` with each maintainer after every frame. Ten object slots,
    /// each present 70 % of the time; a slot's object changes every 40
    /// frames (staggered). Every film runs a compaction epoch.
    fn on_random_films(mut check: impl FnMut(&dyn Holds, &str)) {
        let policy = CompactionPolicy::every(16);
        for (seed, w) in (0..2u64).flat_map(|seed| [8, 30, 60].map(|w| (seed, w))) {
            let spec = WindowSpec::new(w, w / 3).unwrap();
            let pruner: SharedPruner = Arc::new(MinCardinalityPruner { min_objects: 3 });
            let mut maintainers: Vec<(&str, Box<dyn Holds>)> = vec![
                ("NAIVE", Box::new(NaiveMaintainer::new(spec))),
                ("MFS", Box::new(MfsMaintainer::new(spec))),
                ("SSG", Box::new(SsgMaintainer::new(spec))),
                (
                    "MFS_O",
                    Box::new(MfsMaintainer::with_options(
                        spec,
                        SetInterner::new(),
                        Some(Arc::clone(&pruner)),
                    )),
                ),
                (
                    "SSG_O",
                    Box::new(SsgMaintainer::with_options(
                        spec,
                        SetInterner::new(),
                        Some(pruner),
                    )),
                ),
            ];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut epochs = 0;
            for i in 0..240u32 {
                let objects = ObjectSet::from_raw(
                    (0..10u32)
                        .filter(|_| rng.gen_bool(0.7))
                        .map(|s| s * 100 + (i + s * 4) / 40),
                );
                for (name, m) in &mut maintainers {
                    m.advance(FrameId(u64::from(i)), &objects).unwrap();
                    if (i + 1) % 16 == 0 && m.maybe_compact(&policy).is_some() {
                        epochs += 1;
                    }
                    check(m.as_ref(), &format!("{name} seed {seed} w={w} frame {i}"));
                }
            }
            assert!(epochs > 0, "seed {seed} w={w}");
        }
    }

    /// Between frames the interner holds exactly the live states' sets and
    /// the empty set, for MFS, SSG and NAIVE, with and without the pruner
    /// (whose hopeless sets hold no state), across compaction epochs: on
    /// random films at w = 8, 30 and 60, checked after every frame.
    #[test]
    fn held_sets_are_the_live_states_and_the_empty_set() {
        on_random_films(|m, at| {
            let held: BTreeSet<ObjectSet> = held_sets(m.interner()).into_iter().collect();
            let mut expected = m.state_sets();
            assert_eq!(expected.len(), m.live_states());
            expected.insert(ObjectSet::empty());
            assert_eq!(held, expected, "{at}");
        });
    }

    /// Between frames the objects in a bit slot are the union of the held
    /// sets' objects: a slot is freed exactly when its last holder goes,
    /// and its object parked. Those and the parked objects are the
    /// registered ones. For the maintainers and films of the test above;
    /// some frames have free slots and parked objects.
    #[test]
    fn bit_slots_hold_the_held_sets_objects() {
        let mut parked_seen = 0;
        on_random_films(|m, at| {
            let interner = m.interner();
            let parked = interner.parked_objects();
            parked_seen += usize::from(!parked.is_empty());
            let mut registered = interner.universe_object_ids();
            registered.retain(|object| parked.binary_search(object).is_err());
            let union: BTreeSet<ObjectId> =
                held_sets(interner).iter().flat_map(|s| s.iter()).collect();
            assert!(registered.iter().eq(&union), "{at}");
            assert!(interner.slot_count() >= union.len(), "{at}");
        });
        assert!(parked_seen > 0, "no frame had a parked object");
    }

    /// A snapshot taken with free bit slots and parked objects, on a film
    /// whose objects churn, restores into a maintainer
    /// that holds the same rows in the same order. So across compaction
    /// epochs every later MFS snapshot equals the uninterrupted run's, byte
    /// for byte once the metrics' `arena_bytes` and `bitmap_bytes` are
    /// zeroed (the restored arena holds no free handle or slot, so its
    /// gauges differ). SSG rebuilds its graph on a restore and its walk may
    /// add rows in another order, so for SSG the head bytes, the rows as
    /// sorted records and the table's counters are equal (its walk
    /// counters are not).
    #[test]
    fn a_restore_with_free_slots_resumes_byte_identically() {
        /// A snapshot's head (cursor, minted count, parked objects), each
        /// row's record (its set's and its frames' bytes) in row order,
        /// and its metrics with the two byte gauges zeroed.
        type Parts = (Vec<u8>, Vec<Vec<u8>>, MaintenanceMetrics);
        fn parts<R: Reach>(m: &Maintainer<R>) -> Parts {
            let mut enc = Encoder::new();
            m.snapshot_state(&mut enc).unwrap();
            let bytes = enc.into_bytes();
            let mut dec = Decoder::new(&bytes);
            let at = |dec: &Decoder<'_>| bytes.len() - dec.remaining();
            dec.take_opt_u64().unwrap();
            dec.take_usize().unwrap();
            (0..dec.take_len().unwrap()).for_each(|_| assert!(dec.take_u32().is_ok()));
            let head = bytes[..at(&dec)].to_vec();
            let records = (0..dec.take_len().unwrap())
                .map(|_| {
                    let start = at(&dec);
                    (0..dec.take_len().unwrap()).for_each(|_| assert!(dec.take_u32().is_ok()));
                    MarkedFrameSet::decode(&mut dec, m.core.spec.window()).unwrap();
                    bytes[start..at(&dec)].to_vec()
                })
                .collect();
            let metrics = MaintenanceMetrics::decode(&mut dec).unwrap();
            dec.finish().unwrap();
            let metrics = MaintenanceMetrics {
                arena_bytes: 0,
                bitmap_bytes: 0,
                ..metrics
            };
            (head, records, metrics)
        }
        fn run<R: Reach>(same: impl Fn(Parts, Parts, usize)) {
            let spec = WindowSpec::new(10, 3).unwrap();
            let policy = CompactionPolicy::every(25);
            let mut rng = StdRng::seed_from_u64(11);
            // Eight object slots, each present 60 % of the time; a slot's
            // object changes every 9 frames (staggered).
            let film: Vec<ObjectSet> = (0..160u32)
                .map(|i| {
                    let present = (0..8u32).filter(|_| rng.gen_bool(0.6));
                    ObjectSet::from_raw(present.map(|s| s * 100 + (i + s) / 9))
                })
                .collect();
            let mut original = Maintainer::<R>::new(spec);
            let mut restored: Option<Maintainer<R>> = None;
            for (i, objects) in film.iter().enumerate() {
                let frame = FrameId(i as u64);
                original.advance(frame, objects).unwrap();
                if let Some(restored) = &mut restored {
                    restored.advance(frame, objects).unwrap();
                }
                if (i as u64 + 1).is_multiple_of(policy.check_interval) {
                    original.maybe_compact(&policy);
                    if let Some(restored) = &mut restored {
                        restored.maybe_compact(&policy);
                    }
                }
                let interner = &original.core.interner;
                let parked = interner.parked_objects().len();
                let free_slots = interner.slot_count() + parked > interner.universe_len();
                if restored.is_none() && i >= 40 && free_slots {
                    assert!(parked > 0);
                    let mut enc = Encoder::new();
                    original.snapshot_state(&mut enc).unwrap();
                    restored = Some(restore::<R>(spec, enc.as_bytes()).unwrap());
                }
                if let Some(restored) = &restored {
                    same(parts(restored), parts(&original), i);
                }
            }
            let restored = restored.expect("no frame had a free slot");
            // Epochs at frames 25, 50, …, 150: five after the restore.
            assert_eq!(restored.metrics().compactions, 6);
        }
        run::<crate::mfs::Sweep>(|a, b, i| assert_eq!(a, b, "MFS frame {i}"));
        run::<crate::ssg::Traversal>(|mut a, mut b, i| {
            assert_eq!(a.0, b.0, "SSG frame {i}: head");
            a.1.sort_unstable();
            b.1.sort_unstable();
            assert_eq!(a.1, b.1, "SSG frame {i}: row records");
            let table_counters = |m: &MaintenanceMetrics| {
                [
                    m.frames_processed,
                    m.states_created,
                    m.states_pruned,
                    m.frames_appended,
                    m.peak_live_states,
                    m.interned_sets,
                    m.compactions,
                ]
            };
            assert_eq!(table_counters(&a.2), table_counters(&b.2), "SSG frame {i}");
        });
    }

    /// A snapshot taken mid-epoch (free handles lie among the held ones)
    /// restores, into a fresh maintainer around a fresh interner on the
    /// same class store, the original's rows in row order: each restored
    /// row resolves to the original's set and counts the same classes, and
    /// intersections of restored rows equal the original's by content. The
    /// restored arena has no free handle, a stride no wider than the
    /// original's, and the same registered and parked objects.
    pub(crate) fn restore_reproduces_rows_counts_and_intersections<R: Reach>() {
        let spec = WindowSpec::new(12, 3).unwrap();
        let store = shared_class_store();
        let mut original = Maintainer::<R>::with_options(
            spec,
            SetInterner::with_classes(Arc::clone(&store)),
            None,
        );
        let mut rng = StdRng::seed_from_u64(5);
        let policy = CompactionPolicy::every(8);
        for i in 0..62u64 {
            // Eight object slots, each present 60 % of the time; a slot's
            // object changes every 12 frames, so compactions retire sets.
            // The last two frames are empty: states expire and mint nothing,
            // so the snapshot is taken with free handles.
            let objects: ObjectSet = (0..8u32)
                .filter(|_| i < 60 && rng.gen_bool(0.6))
                .map(|slot| ObjectId(slot * 100 + (i as u32 + slot * 3) / 12))
                .collect();
            // Classes are registered before the frame, as the engine's
            // lifecycle does.
            let mut classes = store.write().unwrap();
            for object in objects.iter() {
                classes.register(object, ClassId((object.raw() % 3) as u16));
            }
            drop(classes);
            original.advance(FrameId(i), &objects).unwrap();
            if (i + 1) % policy.check_interval == 0 {
                original.maybe_compact(&policy);
            }
        }
        assert!(original.metrics().compactions > 0);
        let held = original.core.interner.held();
        assert_eq!(held, original.live_states() + 1, "a set without a row");
        assert!(original.core.interner.len() > held, "no free handle");

        let mut enc = Encoder::new();
        original.snapshot_state(&mut enc).unwrap();
        let mut restored =
            Maintainer::<R>::with_options(spec, SetInterner::with_classes(store), None);
        let mut dec = Decoder::new(enc.as_bytes());
        restored.restore_state(&mut dec).unwrap();
        dec.finish().unwrap();

        let rows = original.live_states();
        assert_eq!(restored.live_states(), rows);
        let (a, b) = (&mut original.core.interner, &mut restored.core.interner);
        assert_eq!((b.len(), b.held(), b.minted()), (held, held, a.minted()));
        assert!(
            b.stride() <= a.stride(),
            "{} > {} words",
            b.stride(),
            a.stride()
        );
        assert_eq!(b.universe_object_ids(), a.universe_object_ids());
        assert_eq!(b.parked_objects(), a.parked_objects());
        let mut sids: Vec<[SetId; 2]> = (0..rows)
            .map(|row| [original.table.sid(row), restored.table.sid(row)])
            .collect();
        for &[x, y] in &sids {
            assert_eq!(b.resolve(y), a.resolve(x));
            assert_eq!(b.counts_of(y), a.counts_of(x));
            assert!(b.counts_of(y).is_some());
        }
        // A new set, every other object of the universe, meets most rows
        // in a part neither arena holds yet.
        let probe: ObjectSet = a.universe_object_ids().into_iter().step_by(2).collect();
        sids.push([a.intern(&probe), b.intern(&probe)]);
        for &[xa, xb] in &sids {
            for &[ya, yb] in &sids {
                let (ab, ba) = (a.intersect(xa, ya), b.intersect(xb, yb));
                assert_eq!(b.resolve(ba), a.resolve(ab));
            }
        }
        assert_eq!(b.held(), a.held());
        assert!(a.held() > held + 1, "no intersection made a new set");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Decoder robustness: an MFS or SSG snapshot of a churning film,
        /// cut at every length and with every byte flipped by one mask,
        /// restores into a fresh MFS and a fresh SSG as `Ok` or a typed
        /// `Error`, never a panic.
        #[test]
        fn damaged_snapshots_restore_or_fail_with_a_typed_error(
            seed in 0u64..1_000,
            frames in 10u64..90,
            mask in 1u8..=255,
            ssg in proptest::prelude::any::<bool>(),
        ) {
            fn damaged<R: Reach>(spec: WindowSpec, bytes: &[u8]) {
                let mut m = Maintainer::<R>::new(spec);
                // Ok or Err are both fine: the case fails only by panicking.
                let _ = m.restore_state(&mut Decoder::new(bytes));
            }
            let spec = WindowSpec::new(10, 3).unwrap();
            let policy = CompactionPolicy::every(16);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut m: Box<dyn StateMaintainer> = if ssg {
                Box::new(SsgMaintainer::new(spec))
            } else {
                Box::new(MfsMaintainer::new(spec))
            };
            for i in 0..frames {
                // Eight object slots, each present 60 % of the time; a
                // slot's object changes every 9 frames (staggered).
                let present = (0..8u32).filter(|_| rng.gen_bool(0.6));
                let objects =
                    ObjectSet::from_raw(present.map(|s| s * 100 + (i as u32 + s) / 9));
                m.advance(FrameId(i), &objects).unwrap();
                if (i + 1) % policy.check_interval == 0 {
                    m.maybe_compact(&policy);
                }
            }
            let mut enc = Encoder::new();
            m.snapshot_state(&mut enc).unwrap();
            let bytes = enc.into_bytes();
            let mut flipped = bytes.clone();
            for at in 0..bytes.len() {
                damaged::<crate::mfs::Sweep>(spec, &bytes[..at]);
                damaged::<crate::ssg::Traversal>(spec, &bytes[..at]);
                flipped[at] ^= mask;
                damaged::<crate::mfs::Sweep>(spec, &flipped);
                damaged::<crate::ssg::Traversal>(spec, &flipped);
                flipped[at] ^= mask;
            }
        }
    }
}
