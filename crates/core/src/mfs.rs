//! The Marked Frame Set (MFS) approach (Section 4.2 of the paper).
//!
//! MFS maintains the same flat table of states as NAIVE but additionally
//! tracks, per state, which frames are *key frames* (marked). Per the Frame
//! Marking Rules:
//!
//! 1. the frame that creates a state directly (the frame whose own object set
//!    equals the state's object set) is marked in that state;
//! 2. when the intersection of an existing state `s'` with the arriving
//!    frame equals the object set of a state `s`, the marked frames of `s'`
//!    (other than the arriving frame) are also marked in `s`.
//!
//! Theorem 1 shows the marked frames form a key frame set, so a state whose
//! marked frames have all expired is invalid (its object set is no longer an
//! MCOS of its frame set) and is pruned immediately — this is MFS's advantage
//! over NAIVE. Validity also makes result collection cheap: the Result State
//! Set is exactly the states that still carry a mark and meet the duration
//! threshold.
//!
//! MFS also supports the query-driven termination of Section 5.3 (the
//! `MFS_O` variant): a [`StatePruner`](crate::StatePruner) is consulted whenever a new state
//! would be created, and rejected object sets are remembered as *terminated*
//! so they are never materialised again while they remain hopeless.
//!
//! A frame is **one sweep** over the dense state table it shares with SSG
//! (`substrate::StateTable`): each live state is intersected with the frame
//! once, without the interner's memo (the frame is usually a set MFS has
//! not met), and the table applies the outcome on the spot — no pair list,
//! no sort, no hash lookup. The sweep decides only which rows a frame
//! reaches; every edit is a table call.

use tvq_common::{
    Decoder, Encoder, FrameId, MarkedFrameSet, ObjectSet, Result, SetId, SetInterner, WindowSpec,
};

use crate::compaction::{CompactionOutcome, CompactionPolicy};
use crate::maintainer::StateMaintainer;
use crate::metrics::MaintenanceMetrics;
use crate::prune::SharedPruner;
use crate::result_set::ResultStateSet;
use crate::substrate::{StateTable, Substrate};

/// The Marked Frame Set state maintainer.
///
/// The live states are the rows of a `StateTable` shared with SSG. A frame
/// costs one word-AND over two bitmaps per live state, then a few word
/// operations on the frame sets.
pub struct MfsMaintainer {
    core: Substrate,
    table: StateTable,
}

impl std::fmt::Debug for MfsMaintainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MfsMaintainer")
            .field("spec", &self.core.spec)
            .field("live_states", &self.table.len())
            .finish()
    }
}

impl MfsMaintainer {
    /// Creates an MFS maintainer for the given window specification, with a
    /// private interner (no class source) and no pruner.
    pub fn new(spec: WindowSpec) -> Self {
        MfsMaintainer::with_options(spec, SetInterner::new(), None)
    }

    /// Creates an MFS maintainer around a caller-provided interner (the
    /// engine wires one per feed, sharing its object → class map) and an
    /// optional pruner — with one this is the `MFS_O` variant of Section 5.3.
    pub fn with_options(
        spec: WindowSpec,
        interner: SetInterner,
        pruner: Option<SharedPruner>,
    ) -> Self {
        MfsMaintainer {
            core: Substrate::new(spec, interner, pruner),
            table: StateTable::default(),
        }
    }

    /// Exposes the live states (object set → marked frame set) for the
    /// worked-example assertions.
    pub fn states(&self) -> impl Iterator<Item = (ObjectSet, &MarkedFrameSet)> {
        self.table.states(&self.core.interner)
    }

    fn process_frame(&mut self, frame: FrameId, objects: &ObjectSet) {
        if objects.is_empty() {
            return;
        }
        let frame_sid = self.core.interner.intern(objects);

        // One sweep over the rows live before the frame, applying each
        // intersection's outcome at once. A proper intersection (a target)
        // is a subset of the frame and its parent is not, so no row is
        // both: every parent is read with its pre-frame frames and marks,
        // and the rows the sweep adds (from `live` on) are never swept.
        let live = self.table.len();
        for row in 0..live {
            let sid = self.table.sid(row);
            let target =
                self.core
                    .interner
                    .intersect_uncached(sid, frame_sid, SetId::EMPTY, SetId::EMPTY);
            if target.is_empty_set() {
                continue;
            }
            if target == sid {
                // Contained in the arriving frame: only the frame id is
                // appended (the hot path on feeds with long-lived objects).
                self.table.append(row, frame, &mut self.core.metrics);
            } else if let Some(at) = self.table.row_of(target) {
                // Rule 2 onto a state that existed or that this sweep made.
                // Frame sets are complete, so on a row live before the frame
                // this adds only marks.
                self.table.merge_from(at, row);
            } else {
                self.table.derive(&mut self.core, target, row, frame);
            }
        }
        self.core.metrics.intersections += live as u64;
        self.core.metrics.states_visited += live as u64;
        // The arriving frame is a key frame of its own set's state (Rule 1).
        self.table.principal(&mut self.core, frame_sid, frame);
    }
}

impl StateMaintainer for MfsMaintainer {
    fn advance(&mut self, frame: FrameId, objects: &ObjectSet) -> Result<()> {
        let oldest = self.core.begin_frame(frame)?;
        self.table.expire(oldest, &mut self.core, |_, _| {});
        self.process_frame(frame, objects);
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
        if self.core.has_pruner() {
            "MFS_O"
        } else {
            "MFS"
        }
    }

    fn maybe_compact(&mut self, policy: &CompactionPolicy) -> Option<CompactionOutcome> {
        let (table, outcome) = self
            .core
            .compact(policy, self.table.len(), || self.table.live())?;
        self.table.remap(&table);
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::MinCardinalityPruner;
    use std::sync::Arc;

    impl MfsMaintainer {
        pub(crate) fn interner(&self) -> &SetInterner {
            &self.core.interner
        }
    }

    fn set(ids: &[u32]) -> ObjectSet {
        ObjectSet::from_raw(ids.iter().copied())
    }

    /// Objects of the paper's running example: A=1, B=2, C=3, D=4, F=6.
    fn paper_frames() -> Vec<ObjectSet> {
        vec![
            set(&[2]),
            set(&[1, 2, 3]),
            set(&[1, 2, 4, 6]),
            set(&[1, 2, 3, 6]),
            set(&[1, 2, 4]),
        ]
    }

    fn states_at(m: &MfsMaintainer) -> Vec<(ObjectSet, Vec<(u64, bool)>)> {
        let mut v: Vec<(ObjectSet, Vec<(u64, bool)>)> = m
            .states()
            .map(|(s, f)| (s, f.iter().map(|(fr, mk)| (fr.raw(), mk)).collect()))
            .collect();
        v.sort();
        v
    }

    /// Table 2 of the paper: states with their marked frame sets, w=4, d=3.
    /// A `true` flag corresponds to a `*` mark in the table.
    #[test]
    fn table_2_marked_states_per_frame() {
        let spec = WindowSpec::new(4, 3).unwrap();
        let mut m = MfsMaintainer::new(spec);
        let frames = paper_frames();

        m.advance(FrameId(0), &frames[0]).unwrap();
        assert_eq!(states_at(&m), vec![(set(&[2]), vec![(0, true)])]);

        m.advance(FrameId(1), &frames[1]).unwrap();
        assert_eq!(
            states_at(&m),
            vec![
                (set(&[1, 2, 3]), vec![(1, true)]),
                (set(&[2]), vec![(0, true), (1, false)]),
            ]
        );

        m.advance(FrameId(2), &frames[2]).unwrap();
        assert_eq!(
            states_at(&m),
            vec![
                (set(&[1, 2]), vec![(1, true), (2, false)]),
                (set(&[1, 2, 3]), vec![(1, true)]),
                (set(&[1, 2, 4, 6]), vec![(2, true)]),
                (set(&[2]), vec![(0, true), (1, false), (2, false)]),
            ]
        );

        m.advance(FrameId(3), &frames[3]).unwrap();
        assert_eq!(
            states_at(&m),
            vec![
                (set(&[1, 2]), vec![(1, true), (2, false), (3, false)]),
                (set(&[1, 2, 3]), vec![(1, true), (3, false)]),
                (set(&[1, 2, 3, 6]), vec![(3, true)]),
                (set(&[1, 2, 4, 6]), vec![(2, true)]),
                (set(&[1, 2, 6]), vec![(2, true), (3, false)]),
                (
                    set(&[2]),
                    vec![(0, true), (1, false), (2, false), (3, false)]
                ),
            ]
        );

        m.advance(FrameId(4), &frames[4]).unwrap();
        // Frame 0 expires; {B}'s only key frame is gone, so {B} is pruned even
        // though it still appears in frames 1-4.
        //
        // Note on {AB}: the paper's Table 2 prints {*1,2,*3,4}. We additionally
        // mark frame 2 because Frame Marking Rule 2 also propagates the key
        // frame of {ABF} (whose intersection with the arriving frame {ABD} is
        // {AB}); the paper's table only propagates marks originating from
        // principal states. Both markings are sound: frame 2 satisfies the
        // suffix-intersection property (O2 ∩ O3 ∩ O4 = {AB}), so it can only
        // be marked while {AB} genuinely remains an MCOS.
        assert_eq!(
            states_at(&m),
            vec![
                (
                    set(&[1, 2]),
                    vec![(1, true), (2, true), (3, true), (4, false)]
                ),
                (set(&[1, 2, 3]), vec![(1, true), (3, false)]),
                (set(&[1, 2, 3, 6]), vec![(3, true)]),
                (set(&[1, 2, 4]), vec![(2, true), (4, true)]),
                (set(&[1, 2, 4, 6]), vec![(2, true)]),
                (set(&[1, 2, 6]), vec![(2, true), (3, false)]),
            ]
        );
    }

    /// The satisfied, valid result states must match Table 1's EXP column.
    #[test]
    fn table_2_expected_results() {
        let spec = WindowSpec::new(4, 3).unwrap();
        let mut m = MfsMaintainer::new(spec);
        let frames = paper_frames();

        m.advance(FrameId(0), &frames[0]).unwrap();
        assert!(m.results().is_empty());
        m.advance(FrameId(1), &frames[1]).unwrap();
        assert!(m.results().is_empty());
        m.advance(FrameId(2), &frames[2]).unwrap();
        assert_eq!(m.results().object_sets(), vec![set(&[2])]);
        m.advance(FrameId(3), &frames[3]).unwrap();
        assert_eq!(m.results().object_sets(), vec![set(&[1, 2]), set(&[2])]);
        m.advance(FrameId(4), &frames[4]).unwrap();
        assert_eq!(m.results().object_sets(), vec![set(&[1, 2])]);
    }

    #[test]
    fn invalid_states_are_pruned_earlier_than_naive() {
        // After frame 4 of the running example NAIVE still stores {B}
        // whereas MFS has dropped it: MFS keeps strictly fewer states.
        let spec = WindowSpec::new(4, 3).unwrap();
        let mut mfs = MfsMaintainer::new(spec);
        let mut naive = crate::naive::NaiveMaintainer::new(spec);
        for (i, frame) in paper_frames().into_iter().enumerate() {
            mfs.advance(FrameId(i as u64), &frame).unwrap();
            naive.advance(FrameId(i as u64), &frame).unwrap();
        }
        assert!(mfs.live_states() < naive.live_states());
    }

    #[test]
    fn termination_suppresses_small_states() {
        let spec = WindowSpec::new(4, 1).unwrap();
        let pruner = Arc::new(MinCardinalityPruner { min_objects: 2 });
        let mut m = MfsMaintainer::with_options(spec, SetInterner::new(), Some(pruner));
        m.advance(FrameId(0), &set(&[1])).unwrap();
        // The single-object state is terminated, not materialised.
        assert_eq!(m.live_states(), 0);
        assert_eq!(m.metrics().states_terminated, 1);
        m.advance(FrameId(1), &set(&[1, 2])).unwrap();
        assert_eq!(m.live_states(), 1);
        assert!(m.results().contains(&set(&[1, 2])));
        m.advance(FrameId(2), &set(&[2, 3])).unwrap();
        // {2} = {1,2} ∩ {2,3} would be a new state but is terminated.
        assert!(!m.results().contains(&set(&[2])));
        assert_eq!(m.name(), "MFS_O");
    }

    #[test]
    fn empty_frames_are_tolerated() {
        let spec = WindowSpec::new(3, 1).unwrap();
        let mut m = MfsMaintainer::new(spec);
        m.advance(FrameId(0), &ObjectSet::empty()).unwrap();
        m.advance(FrameId(1), &set(&[5])).unwrap();
        m.advance(FrameId(2), &ObjectSet::empty()).unwrap();
        assert!(m.results().contains(&set(&[5])));
    }

    #[test]
    fn rejects_out_of_order_frames() {
        let spec = WindowSpec::new(4, 1).unwrap();
        let mut m = MfsMaintainer::new(spec);
        m.advance(FrameId(1), &set(&[1])).unwrap();
        assert!(m.advance(FrameId(1), &set(&[1])).is_err());
        assert!(m.advance(FrameId(0), &set(&[1])).is_err());
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let spec = WindowSpec::new(4, 2).unwrap();
        let mut original = MfsMaintainer::new(spec);
        let patterns = paper_frames();
        for (i, frame) in patterns.iter().cycle().take(7).enumerate() {
            original.advance(FrameId(i as u64), frame).unwrap();
        }

        let mut enc = tvq_common::Encoder::new();
        original.snapshot_state(&mut enc).unwrap();
        let bytes = enc.into_bytes();
        let mut restored = MfsMaintainer::new(spec);
        let mut dec = tvq_common::Decoder::new(&bytes);
        restored.restore_state(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(restored.live_states(), original.live_states());
        assert_eq!(restored.metrics(), original.metrics());
        for (i, frame) in patterns.iter().cycle().take(20).enumerate().skip(7) {
            original.advance(FrameId(i as u64), frame).unwrap();
            restored.advance(FrameId(i as u64), frame).unwrap();
            assert_eq!(
                restored.results(),
                original.results(),
                "diverged at frame {i}"
            );
        }
        // MFS never consults the intersection memo, so no counter drifts.
        assert_eq!(restored.metrics(), original.metrics());
    }

    #[test]
    fn rows_point_back_after_expiry_compaction_and_restore() {
        let spec = WindowSpec::new(3, 1).unwrap();
        let mut m = MfsMaintainer::new(spec);
        let policy = CompactionPolicy::every(1);
        for i in 0..24u64 {
            // Rotating objects: states expire and old sets retire.
            let base = (i / 3) as u32 * 10;
            let extra = base + 2 + (i % 3) as u32;
            m.advance(FrameId(i), &set(&[base, base + 1, extra]))
                .unwrap();
            m.table.assert_rows_point_back();
            m.maybe_compact(&policy);
            m.table.assert_rows_point_back();
        }
        assert!(m.metrics().states_pruned > 0);
        assert!(m.metrics().compactions > 0);

        let mut enc = tvq_common::Encoder::new();
        m.snapshot_state(&mut enc).unwrap();
        let bytes = enc.into_bytes();
        let mut restored = MfsMaintainer::new(spec);
        restored
            .restore_state(&mut tvq_common::Decoder::new(&bytes))
            .unwrap();
        assert_eq!(restored.live_states(), m.live_states());
        restored.table.assert_rows_point_back();
    }

    /// The sweep's two less common shapes, against NAIVE: a frame that is
    /// a proper subset of live states (so its own set is a target, created
    /// by the sweep and then marked by Rule 1), and targets reached by
    /// several parents in one frame, first new, then existing (both
    /// merged).
    #[test]
    fn frame_targets_and_many_parent_targets_agree_with_naive() {
        let spec = WindowSpec::new(6, 1).unwrap();
        let mut mfs = MfsMaintainer::new(spec);
        let mut naive = crate::naive::NaiveMaintainer::new(spec);
        let frames = [
            set(&[1, 2, 3, 9]),
            set(&[1, 2, 4, 9]),
            set(&[1, 2, 5, 9]),
            // {1,2} from four parents, and the frame's own set.
            set(&[1, 2]),
            // {1,2,9}, a live state, from three parents.
            set(&[1, 2, 9]),
        ];
        for (i, objects) in frames.iter().enumerate() {
            mfs.advance(FrameId(i as u64), objects).unwrap();
            naive.advance(FrameId(i as u64), objects).unwrap();
            assert_eq!(mfs.results(), naive.results(), "diverged at frame {i}");
            mfs.table.assert_rows_point_back();
        }
        let states = states_at(&mfs);
        let frames_of = |ids: &[u32]| &states.iter().find(|(s, _)| *s == set(ids)).unwrap().1;
        let (t, f) = (true, false);
        assert_eq!(
            frames_of(&[1, 2]),
            &[(0, t), (1, t), (2, t), (3, t), (4, f)]
        );
        assert_eq!(frames_of(&[1, 2, 9]), &[(0, t), (1, t), (2, t), (4, t)]);
        assert_eq!(mfs.metrics().states_created, 5);
    }

    #[test]
    fn mfs_never_consults_the_intersection_memo() {
        let spec = WindowSpec::new(4, 2).unwrap();
        let mut m = MfsMaintainer::new(spec);
        for (i, frame) in paper_frames().iter().cycle().take(12).enumerate() {
            m.advance(FrameId(i as u64), frame).unwrap();
        }
        assert!(m.metrics().intersections > 0);
        let interner = &m.core.interner;
        assert_eq!(interner.memo_hits() + interner.memo_misses(), 0);
        assert_eq!(m.metrics(), &m.metrics().without_cache_gauges());
    }

    /// A set's object ids and its row's `(frame, marked)` pairs.
    type Entry<'a> = (&'a [u32], &'a [(u64, bool)]);

    /// A hand-written snapshot: the cursor, the interner's length and
    /// minted count (equal: nothing was released), an empty universe (each
    /// set's objects take slots as it is put back), each set with its
    /// row's frames (none for a set without a row; no objects for a free
    /// handle), and fresh metrics.
    fn blob(cursor: Option<u64>, sets: &[Entry<'_>]) -> Vec<u8> {
        let mut enc = Encoder::new();
        enc.put_opt_u64(cursor);
        enc.put_usize(sets.len() + 1);
        enc.put_usize(sets.len() + 1);
        enc.put_usize(0);
        for (ids, frames) in sets {
            enc.put_usize(ids.len());
            ids.iter().for_each(|&id| enc.put_u32(id));
            let frames: MarkedFrameSet = frames.iter().map(|&(f, m)| (FrameId(f), m)).collect();
            frames.encode(&mut enc);
        }
        MaintenanceMetrics::new().encode(&mut enc);
        enc.into_bytes()
    }

    fn restore(spec: WindowSpec, bytes: &[u8]) -> Result<MfsMaintainer> {
        let mut m = MfsMaintainer::new(spec);
        let mut dec = Decoder::new(bytes);
        m.restore_state(&mut dec)?;
        dec.finish()?;
        Ok(m)
    }

    #[test]
    fn restore_rejects_used_maintainers_and_dangling_handles() {
        let spec = WindowSpec::new(4, 2).unwrap();
        let bytes = blob(Some(0), &[(&[1, 2], &[(0, true)]), (&[], &[]), (&[2], &[])]);
        let mut restored = restore(spec, &bytes).unwrap();
        let interner = &restored.core.interner;
        assert_eq!((restored.live_states(), interner.len()), (1, 4));
        assert!(!interner.is_held(SetId::from_raw(2)), "a free handle");
        // The set without a row goes at the end of the next frame, and a
        // new set takes the free handle.
        restored.advance(FrameId(1), &set(&[1, 2, 5])).unwrap();
        let interner = &restored.core.interner;
        assert_eq!(interner.get(&set(&[1, 2, 5])), Some(SetId::from_raw(2)));
        assert_eq!((interner.get(&set(&[2])), interner.held()), (None, 3));

        // A maintainer that already advanced, or whose interner already
        // holds a set, refuses to restore.
        let mut used = MfsMaintainer::new(spec);
        used.advance(FrameId(0), &set(&[9])).unwrap();
        let mut interned = SetInterner::new();
        interned.intern(&set(&[9]));
        let mut seeded = MfsMaintainer::with_options(spec, interned, None);
        for m in [&mut used, &mut seeded] {
            let err = m.restore_state(&mut Decoder::new(&bytes)).unwrap_err();
            assert!(matches!(err, tvq_common::Error::Store(_)), "{err}");
        }

        // No handle is written any more, so none can dangle. A set written
        // twice lands on another handle than its position, which would
        // leave that position's handle dangling, and a free handle cannot
        // hold a row: corrupt, not a panic.
        for sets in [
            &[(&[1, 2][..], &[(0, true)][..]), (&[2, 1], &[])][..],
            &[(&[1, 2], &[(0, true)]), (&[], &[(0, true)])],
        ] {
            let err = restore(spec, &blob(Some(0), sets)).unwrap_err();
            assert!(matches!(err, tvq_common::Error::Corrupt(_)), "{err}");
        }
    }

    /// A restored row must lie in the window ending at the restored cursor
    /// and hold a key frame. A row `{1,2}` marked at frames 0 and 3 under a
    /// cursor of 0 would still be valid, and reported, after frame 4 had
    /// expired frame 0; a row with no key frame would be dropped only at
    /// the next frame, and counted as pruned.
    #[test]
    fn restore_rejects_rows_outside_the_cursor_window() {
        let spec = WindowSpec::new(4, 2).unwrap();
        let restore = |cursor, frames| restore(spec, &blob(cursor, &[(&[1, 2], frames)]));
        // A frame after the cursor, one before the window [2, 5] of a
        // cursor of 5, and a row with no cursor at all.
        for (cursor, frames) in [
            (Some(0), &[(0, true), (3, true)][..]),
            (Some(5), &[(1, true), (5, false)]),
            (None, &[(0, true)]),
            // A row with no key frame: between frames every row holds one.
            (Some(5), &[(2, false), (5, false)]),
        ] {
            let err = restore(cursor, frames).unwrap_err();
            assert!(
                matches!(err, tvq_common::Error::Corrupt(_)),
                "{cursor:?}: {err}"
            );
        }
        assert!(restore(Some(5), &[(2, true), (5, false)]).is_ok());
    }

    /// A mid-epoch snapshot brings back the arena's handles, counts and
    /// intersections (`substrate::tests`).
    #[test]
    fn restore_reproduces_handles_counts_and_intersections() {
        let spec = WindowSpec::new(12, 3).unwrap();
        crate::substrate::tests::restore_reproduces_the_arena(
            |interner| MfsMaintainer::with_options(spec, interner, None),
            |m| &mut m.core.interner,
        );
    }

    #[test]
    fn recreated_states_recover_their_frame_sets() {
        // {1,2} becomes invalid (superset {1,2,3} shares its frame set), is
        // pruned, and is later recreated when it becomes an MCOS again; its
        // frame set must cover all frames where {1,2} co-occurs.
        let spec = WindowSpec::new(6, 1).unwrap();
        let mut m = MfsMaintainer::new(spec);
        m.advance(FrameId(0), &set(&[1, 2, 3])).unwrap();
        m.advance(FrameId(1), &set(&[1, 2, 3])).unwrap();
        m.advance(FrameId(2), &set(&[1, 2, 4])).unwrap();
        let frames = m.results().frames_of(&set(&[1, 2])).unwrap();
        assert_eq!(frames, &[FrameId(0), FrameId(1), FrameId(2)]);
    }
}
