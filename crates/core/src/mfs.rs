//! The Marked Frame Set (MFS) approach (Section 4.2 of the paper): the
//! state table reached by one sweep.
//!
//! MFS keeps NAIVE's flat table of states and marks each state's key frames
//! (the Frame Marking Rules, which the `substrate` module states with the
//! table that applies them), so a state is dropped as soon as its last key
//! frame expires. A frame is **one sweep** over every row live before it:
//! each is intersected with the frame once, without the interner's memo
//! (the frame is usually a set MFS has not met), and the table applies the
//! outcome on the spot — no pair list, no sort, no hash lookup.

use tvq_common::{FrameId, ObjectSet, SetId};

use crate::substrate::{Maintainer, Reach};

/// The Marked Frame Set state maintainer: the state table reached by
/// [`Sweep`]. A frame costs one word-AND over two bitmaps per live state,
/// then a few word operations on the frame sets.
pub type MfsMaintainer = Maintainer<Sweep>;

/// MFS's reach: every row live before the frame, in one sweep. It keeps
/// no state of its own.
#[derive(Debug, Default, Clone, Copy)]
pub struct Sweep;

impl Reach for Sweep {
    const NAMES: [&'static str; 2] = ["MFS", "MFS_O"];

    #[inline]
    fn walk(m: &mut MfsMaintainer, frame: FrameId, objects: &ObjectSet) {
        if objects.is_empty() {
            return;
        }
        let frame_sid = m.core.interner.intern(objects);

        // One sweep over the rows live before the frame, applying each
        // intersection's outcome at once. A proper intersection (a target)
        // is a subset of the frame and its parent is not, so no row is
        // both: every parent is read with its pre-frame frames and marks,
        // and the rows the sweep adds (from `live` on) are never swept.
        let live = m.table.len();
        for row in 0..live {
            let sid = m.table.sid(row);
            let target =
                m.core
                    .interner
                    .intersect_uncached(sid, frame_sid, SetId::EMPTY, SetId::EMPTY);
            if target.is_empty_set() {
                continue;
            }
            if target == sid {
                // Contained in the arriving frame: only the frame id is
                // appended (the hot path on feeds with long-lived objects).
                m.table.append(row, frame, &mut m.core.metrics);
            } else if let Some(at) = m.table.row_of(target) {
                // Rule 2 onto a state that existed or that this sweep made.
                // Frame sets are complete, so on a row live before the frame
                // this adds only marks.
                m.table.merge_from(at, row);
            } else {
                m.table.derive(&mut m.core, target, row, frame);
            }
        }
        m.core.metrics.intersections += live as u64;
        m.core.metrics.states_visited += live as u64;
        // The arriving frame is a key frame of its own set's state (Rule 1).
        m.table.principal(&mut m.core, frame_sid, frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::CompactionPolicy;
    use crate::maintainer::StateMaintainer;
    use crate::substrate::tests::{self as shared, blob, paper_frames, restore, set};
    use tvq_common::{Encoder, WindowSpec};

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
        shared::paper_example_results_match_table_1::<Sweep>();
    }

    #[test]
    fn termination_suppresses_small_states() {
        let m = shared::termination_suppresses_hopeless_states::<Sweep>();
        assert_eq!(m.name(), "MFS_O");
    }

    #[test]
    fn empty_frames_are_tolerated() {
        shared::empty_frames_are_tolerated::<Sweep>();
    }

    #[test]
    fn rejects_out_of_order_frames() {
        shared::rejects_out_of_order_frames::<Sweep>();
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let [original, restored] = shared::snapshot_restore_resumes_bit_identically::<Sweep>();
        // MFS never consults the intersection memo, so no counter drifts.
        assert_eq!(restored.metrics(), original.metrics());
    }

    #[test]
    fn restore_rejects_used_maintainers_and_dangling_handles() {
        shared::restore_rejects_used_maintainers_and_dangling_handles::<Sweep>();
    }

    /// A mid-epoch snapshot brings back the arena's handles, counts and
    /// intersections.
    #[test]
    fn restore_reproduces_handles_counts_and_intersections() {
        shared::restore_reproduces_handles_counts_and_intersections::<Sweep>();
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

        let mut enc = Encoder::new();
        m.snapshot_state(&mut enc).unwrap();
        let restored = restore::<Sweep>(spec, enc.as_bytes()).unwrap();
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

    /// A restored row must lie in the window ending at the restored cursor
    /// and hold a key frame. A row `{1,2}` marked at frames 0 and 3 under a
    /// cursor of 0 would still be valid, and reported, after frame 4 had
    /// expired frame 0; a row with no key frame would be dropped only at
    /// the next frame, and counted as pruned.
    #[test]
    fn restore_rejects_rows_outside_the_cursor_window() {
        let spec = WindowSpec::new(4, 2).unwrap();
        let restore = |cursor, frames| restore::<Sweep>(spec, &blob(cursor, &[(&[1, 2], frames)]));
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
