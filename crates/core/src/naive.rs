//! The NAIVE baseline (Section 6.2 of the paper).
//!
//! NAIVE maintains, for every object set ever produced by intersecting the
//! window's frames, the set of frames in which it appears. States are only
//! removed once their frame set empties (no key-frame bookkeeping), and the
//! MCOS property is established *a posteriori* at result-collection time:
//! among states that satisfy the duration threshold and share the same frame
//! set, only the largest object set is kept.
//!
//! That is the whole algorithm, and it is kept this plain on purpose: NAIVE
//! is the paper's baseline, and the differential suites (`tvq-testkit`)
//! hold it, like MFS and SSG, to the brute-force reference oracle.

use std::collections::hash_map::Entry;

use tvq_common::{
    FrameId, FxHashMap, FxHashSet, MarkedFrameSet, ObjectSet, Result, SetId, SetInterner,
    WindowSpec,
};

use crate::compaction::{CompactionOutcome, CompactionPolicy};
use crate::maintainer::StateMaintainer;
use crate::metrics::MaintenanceMetrics;
use crate::result_set::{Reported, ResultStateSet};
use crate::substrate::Substrate;

/// The NAIVE state maintainer.
///
/// States are keyed by interned [`SetId`] handles: hashing, equality and
/// lookup are O(1) integer operations and repeated intersections are
/// answered from the interner's memo.
///
/// NAIVE is a baseline and differential oracle: it takes no pruner (the
/// paper defines only `MFS_O` and `SSG_O`) and does not support snapshots.
pub struct NaiveMaintainer {
    pub(crate) core: Substrate,
    /// Object set → the window frames it appears in (never marked) and,
    /// while it is a result, its reported set.
    states: FxHashMap<SetId, (MarkedFrameSet, Reported)>,
}

impl std::fmt::Debug for NaiveMaintainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NaiveMaintainer")
            .field("spec", &self.core.spec)
            .field("live_states", &self.states.len())
            .finish()
    }
}

impl NaiveMaintainer {
    /// Creates a NAIVE maintainer for the given window specification, with a
    /// private interner (no class source).
    pub fn new(spec: WindowSpec) -> Self {
        NaiveMaintainer::with_options(spec, SetInterner::new())
    }

    /// Creates a NAIVE maintainer around a caller-provided interner (the
    /// engine wires one per feed, sharing its object → class map so result
    /// states carry precomputed class counts).
    pub fn with_options(spec: WindowSpec, interner: SetInterner) -> Self {
        NaiveMaintainer {
            core: Substrate::new(spec, interner, None),
            states: FxHashMap::default(),
        }
    }

    /// Exposes the live states (object set → frame set) for inspection in
    /// tests and the worked-example assertions.
    pub fn states(&self) -> impl Iterator<Item = (ObjectSet, &MarkedFrameSet)> {
        self.states
            .iter()
            .map(|(&sid, (frames, _))| (self.core.interner.resolve(sid), frames))
    }

    /// Window expiry: a state lives until its frame set empties.
    fn expire(&mut self, oldest: FrameId) {
        let (before, core) = (self.states.len(), &mut self.core);
        self.states.retain(|&sid, (frames, _)| {
            frames.expire_before(oldest);
            let keep = !frames.is_empty();
            if !keep {
                core.release(sid);
            }
            keep
        });
        self.core.metrics.states_pruned += (before - self.states.len()) as u64;
    }

    fn process_frame(&mut self, frame: FrameId, objects: &ObjectSet) {
        if objects.is_empty() {
            return;
        }
        let frame_sid = self.core.interner.intern(objects);

        // Pass 1 (read-only): intersect the arriving frame with every
        // existing state (memoized handle → handle lookups after the first
        // occurrence).
        let mut appenders: Vec<SetId> = Vec::new();
        let mut derived: Vec<(SetId, SetId)> = Vec::new();
        for &sid in self.states.keys() {
            self.core.metrics.intersections += 1;
            let inter = self.core.interner.intersect(sid, frame_sid);
            if inter.is_empty_set() {
                continue;
            }
            if inter == sid {
                appenders.push(sid);
            } else {
                derived.push((inter, sid));
            }
        }
        self.core.metrics.states_visited += self.states.len() as u64;

        // Pass 2a: append the new frame to states fully contained in it.
        for sid in appenders {
            if let Some((frames, _)) = self.states.get_mut(&sid) {
                frames.push(frame, false);
                self.core.metrics.frames_appended += 1;
            }
        }

        // Pass 2b: create states for intersections that are not yet
        // materialised; their frame set is the union of all parents' frame
        // sets plus the arriving frame. One that exists was extended through
        // its own pass-1 intersection.
        derived.sort_unstable();
        for group in derived.chunk_by(|a, b| a.0 == b.0) {
            let target = group[0].0;
            if self.states.contains_key(&target) {
                continue;
            }
            let mut frames = MarkedFrameSet::new();
            for (_, parent) in group {
                frames.merge_from(&self.states[parent].0);
            }
            frames.push(frame, false);
            self.states.insert(target, (frames, None));
            self.core.metrics.states_created += 1;
        }

        // Pass 2c: make sure the arriving frame's own object set is a state
        // (one that exists already carries the frame: it was an appender or
        // was created by pass 2b).
        if let Entry::Vacant(slot) = self.states.entry(frame_sid) {
            slot.insert((MarkedFrameSet::singleton(frame, false), None));
            self.core.metrics.states_created += 1;
        }
    }

    /// The end of a frame: releases the sets the frame minted that got no
    /// state, then the a-posteriori MCOS step: among the states that meet
    /// the duration threshold, each distinct frame set contributes its
    /// largest object set; no other state keeps a reported set. (Two
    /// same-size rivals never lead a frame set: the intersection of its
    /// frames contains both and is a state with the same frames.)
    fn collect_results(&mut self) {
        let states = &self.states;
        self.core.release_unheld(|sid| states.contains_key(&sid));
        self.core.begin_results(self.states.len());
        let interner = &self.core.interner;
        let mut largest: FxHashMap<&MarkedFrameSet, SetId> = FxHashMap::default();
        for (&sid, (frames, _)) in &self.states {
            if self.core.spec.satisfies_duration(frames.len()) {
                largest
                    .entry(frames)
                    .and_modify(|best| {
                        if interner.len_of(sid) > interner.len_of(*best) {
                            *best = sid;
                        }
                    })
                    .or_insert(sid);
            }
        }
        let winners: FxHashSet<SetId> = largest.into_values().collect();
        for (&sid, (frames, reported)) in &mut self.states {
            if winners.contains(&sid) {
                self.core.report(sid, frames, reported);
            } else {
                *reported = None;
            }
        }
    }
}

impl StateMaintainer for NaiveMaintainer {
    fn advance(&mut self, frame: FrameId, objects: &ObjectSet) -> Result<()> {
        let oldest = self.core.begin_frame(frame)?;
        self.expire(oldest);
        self.process_frame(frame, objects);
        self.collect_results();
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
        self.states.len()
    }

    fn name(&self) -> &'static str {
        "NAIVE"
    }

    fn maybe_compact(&mut self, policy: &CompactionPolicy) -> Option<CompactionOutcome> {
        let (table, outcome) = self.core.compact(policy, self.states.len(), || {
            self.states.keys().copied().collect()
        })?;
        self.states = std::mem::take(&mut self.states)
            .into_iter()
            .filter_map(|(sid, state)| table.remap(sid).map(|new| (new, state)))
            .collect();
        Some(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::tests::{paper_frames, set};

    /// Table 1 of the paper: the states maintained per frame with w=4, d=3.
    #[test]
    fn table_1_states_per_frame() {
        let spec = WindowSpec::new(4, 3).unwrap();
        let mut m = NaiveMaintainer::new(spec);
        let frames = paper_frames();

        let states_at = |m: &NaiveMaintainer| -> Vec<(ObjectSet, Vec<u64>)> {
            let mut v: Vec<(ObjectSet, Vec<u64>)> = m
                .states()
                .map(|(s, f)| (s.clone(), f.frames().map(|x| x.raw()).collect()))
                .collect();
            v.sort();
            v
        };

        m.advance(FrameId(0), &frames[0]).unwrap();
        assert_eq!(states_at(&m), vec![(set(&[2]), vec![0])]);

        m.advance(FrameId(1), &frames[1]).unwrap();
        assert_eq!(
            states_at(&m),
            vec![(set(&[1, 2, 3]), vec![1]), (set(&[2]), vec![0, 1])]
        );

        m.advance(FrameId(2), &frames[2]).unwrap();
        assert_eq!(
            states_at(&m),
            vec![
                (set(&[1, 2]), vec![1, 2]),
                (set(&[1, 2, 3]), vec![1]),
                (set(&[1, 2, 4, 6]), vec![2]),
                (set(&[2]), vec![0, 1, 2]),
            ]
        );

        m.advance(FrameId(3), &frames[3]).unwrap();
        assert_eq!(
            states_at(&m),
            vec![
                (set(&[1, 2]), vec![1, 2, 3]),
                (set(&[1, 2, 3]), vec![1, 3]),
                (set(&[1, 2, 3, 6]), vec![3]),
                (set(&[1, 2, 4, 6]), vec![2]),
                (set(&[1, 2, 6]), vec![2, 3]),
                (set(&[2]), vec![0, 1, 2, 3]),
            ]
        );

        m.advance(FrameId(4), &frames[4]).unwrap();
        assert_eq!(
            states_at(&m),
            vec![
                (set(&[1, 2]), vec![1, 2, 3, 4]),
                (set(&[1, 2, 3]), vec![1, 3]),
                (set(&[1, 2, 3, 6]), vec![3]),
                (set(&[1, 2, 4]), vec![2, 4]),
                (set(&[1, 2, 4, 6]), vec![2]),
                (set(&[1, 2, 6]), vec![2, 3]),
                (set(&[2]), vec![1, 2, 3, 4]),
            ]
        );
    }

    /// Expected satisfied MCOS per frame (the EXP column of Table 1).
    #[test]
    fn table_1_expected_results() {
        let spec = WindowSpec::new(4, 3).unwrap();
        let mut m = NaiveMaintainer::new(spec);
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
        // {B} has frames {1,2,3,4} which equals {AB}'s frame set, so only the
        // maximal set {AB} is an MCOS.
        assert_eq!(m.results().object_sets(), vec![set(&[1, 2])]);
    }

    #[test]
    fn empty_frames_do_not_create_states() {
        let spec = WindowSpec::new(3, 1).unwrap();
        let mut m = NaiveMaintainer::new(spec);
        m.advance(FrameId(0), &ObjectSet::empty()).unwrap();
        assert_eq!(m.live_states(), 0);
        m.advance(FrameId(1), &set(&[1])).unwrap();
        m.advance(FrameId(2), &ObjectSet::empty()).unwrap();
        assert_eq!(m.live_states(), 1);
        assert!(m.results().contains(&set(&[1])));
    }

    #[test]
    fn states_expire_with_the_window() {
        let spec = WindowSpec::new(2, 1).unwrap();
        let mut m = NaiveMaintainer::new(spec);
        m.advance(FrameId(0), &set(&[1])).unwrap();
        m.advance(FrameId(1), &set(&[2])).unwrap();
        m.advance(FrameId(2), &set(&[2])).unwrap();
        // {1} is gone once frame 0 leaves the window.
        assert_eq!(m.live_states(), 1);
        assert!(m.results().contains(&set(&[2])));
        assert_eq!(m.metrics().states_pruned, 1);
    }

    #[test]
    fn rejects_out_of_order_frames() {
        let spec = WindowSpec::new(4, 1).unwrap();
        let mut m = NaiveMaintainer::new(spec);
        m.advance(FrameId(2), &set(&[1])).unwrap();
        assert!(m.advance(FrameId(2), &set(&[1])).is_err());
        assert!(m.advance(FrameId(0), &set(&[1])).is_err());
    }

    #[test]
    fn metrics_count_work() {
        let spec = WindowSpec::new(4, 2).unwrap();
        let mut m = NaiveMaintainer::new(spec);
        for (i, frame) in paper_frames().into_iter().enumerate() {
            m.advance(FrameId(i as u64), &frame).unwrap();
        }
        let metrics = m.metrics();
        assert_eq!(metrics.frames_processed, 5);
        assert!(metrics.states_created >= 5);
        assert!(metrics.intersections > 0);
        assert!(metrics.peak_live_states >= 6);
    }

    /// States sharing a frame set part ways when only some of them appear
    /// in a frame, share one again when expiry equalises them, and die when
    /// the window slides past them.
    #[test]
    fn group_lifecycle_survives_splits_merges_and_death() {
        let spec = WindowSpec::new(4, 1).unwrap();
        let mut m = NaiveMaintainer::new(spec);
        // Two disjoint pairs co-occur, then only one keeps appearing, then
        // neither.
        m.advance(FrameId(0), &set(&[1, 2, 3, 4])).unwrap();
        m.advance(FrameId(1), &set(&[1, 2])).unwrap();
        m.advance(FrameId(2), &set(&[3, 4])).unwrap();
        m.advance(FrameId(3), &set(&[1, 2])).unwrap();
        // Frame 0 expires: {1,2,3,4} dies, {1,2} and {3,4} remain with
        // different frame sets.
        m.advance(FrameId(4), &set(&[5])).unwrap();
        for i in 5..9u64 {
            m.advance(FrameId(i), &ObjectSet::empty()).unwrap();
        }
        assert_eq!(m.live_states(), 0, "window slid past everything");
        assert!(m.results().is_empty());
    }

    /// NAIVE results agree with MFS frame-for-frame on a feed dense enough
    /// that frame sets keep diverging and re-converging.
    #[test]
    fn groups_agree_with_mfs_on_a_churning_feed() {
        let spec = WindowSpec::new(6, 2).unwrap();
        let mut naive = NaiveMaintainer::new(spec);
        let mut mfs = crate::mfs::MfsMaintainer::new(spec);
        let patterns: Vec<ObjectSet> = vec![
            set(&[1, 2, 3]),
            set(&[1, 2, 3, 4]),
            set(&[2, 3, 4]),
            set(&[1, 4]),
            set(&[1, 2, 3]),
            ObjectSet::empty(),
            set(&[3, 4, 5]),
            set(&[1, 2, 3, 4, 5]),
        ];
        for (i, objects) in patterns.iter().cycle().take(64).enumerate() {
            let fid = FrameId(i as u64);
            naive.advance(fid, objects).unwrap();
            mfs.advance(fid, objects).unwrap();
            assert_eq!(
                naive.results(),
                mfs.results(),
                "NAIVE and MFS diverged at frame {i}"
            );
        }
    }

    /// The shape that makes the a-posteriori step matter: k occlusion
    /// patterns over long-lived objects leave 2^k states that outlive the
    /// patterns (each is a subset of every later frame) and come to share a
    /// handful of frame sets — finally one, the whole window.
    #[test]
    fn many_states_sharing_few_frame_sets_agree_with_mfs_and_reference() {
        const K: u32 = 5;
        let spec = WindowSpec::new(8, 4).unwrap();
        let mut naive = NaiveMaintainer::new(spec);
        let mut mfs = crate::mfs::MfsMaintainer::new(spec);
        let mut reference = crate::reference::ReferenceMaintainer::new(spec);
        let everyone: Vec<u32> = (1..=K).chain([100, 101]).collect();
        for i in 0..24u64 {
            // Frames 1..=K each lose one object; every other frame shows all.
            let visible = everyone.iter().copied().filter(|&id| u64::from(id) != i);
            let objects = ObjectSet::from_raw(visible);
            for m in [
                &mut naive as &mut dyn StateMaintainer,
                &mut mfs,
                &mut reference,
            ] {
                m.advance(FrameId(i), &objects).unwrap();
            }
            assert_eq!(naive.results(), mfs.results(), "NAIVE != MFS at frame {i}");
            assert_eq!(
                naive.results(),
                reference.results(),
                "NAIVE != reference at frame {i}"
            );
        }
        assert_eq!(naive.live_states(), 1 << K);
        let frame_sets: std::collections::HashSet<&MarkedFrameSet> =
            naive.states.values().map(|(frames, _)| frames).collect();
        assert_eq!(frame_sets.len(), 1, "every state spans the whole window");
        assert_eq!(naive.results().object_sets(), vec![set(&everyone)]);
    }

    /// Compaction re-keys the state table through the remap.
    #[test]
    fn compaction_remaps_groups() {
        let spec = WindowSpec::new(3, 1).unwrap();
        let mut m = NaiveMaintainer::new(spec);
        for i in 0..12u64 {
            // Rotating objects: old sets retire from the arena.
            let base = (i / 3) as u32 * 10;
            m.advance(FrameId(i), &set(&[base, base + 1])).unwrap();
        }
        let arena_before = m.core.interner.len();
        let outcome = m
            .maybe_compact(&CompactionPolicy::every(1))
            .expect("sparse arena compacts");
        assert!(
            !outcome.retired_objects.is_empty(),
            "rotated-away objects are reported retired"
        );
        assert!(m.core.interner.len() < arena_before);
        assert_eq!(m.metrics().compactions, 1);
        // The maintainer keeps answering correctly after the remap.
        m.advance(FrameId(12), &set(&[40, 41])).unwrap();
        assert!(m.results().contains(&set(&[40, 41])));
    }
}
