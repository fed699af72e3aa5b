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

use tvq_common::{
    Decoder, Encoder, Error, FrameId, FxHashMap, MarkedFrameSet, ObjectSet, Result, SetId,
    SetInterner, WindowSpec,
};

use crate::compaction::{CompactionOutcome, CompactionPolicy};
use crate::maintainer::StateMaintainer;
use crate::metrics::MaintenanceMetrics;
use crate::prune::SharedPruner;
use crate::result_set::ResultStateSet;
use crate::substrate::Substrate;

/// The Marked Frame Set state maintainer.
///
/// All state maps are keyed by interned [`SetId`] handles: hashing, equality
/// and state lookup are O(1) integer operations. The per-frame intersection
/// pass makes one interner call per live state, mostly a word-AND over two
/// bitmaps (the memo hits 0.066 of the time on `dense-embedded`).
pub struct MfsMaintainer {
    core: Substrate,
    states: FxHashMap<SetId, MarkedFrameSet>,
    /// Pooled pass-1 appender list, reused so the steady-state frame loop
    /// (where every live state is contained in the arriving frame) does not
    /// allocate.
    appenders_scratch: Vec<SetId>,
    /// Pooled pass-1 derivation list: a `(target, parent)` pair per live
    /// state whose intersection with the arriving frame is proper.
    derived_scratch: Vec<(SetId, SetId)>,
}

impl std::fmt::Debug for MfsMaintainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MfsMaintainer")
            .field("spec", &self.core.spec)
            .field("live_states", &self.states.len())
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
            states: FxHashMap::default(),
            appenders_scratch: Vec::new(),
            derived_scratch: Vec::new(),
        }
    }

    /// Exposes the live states (object set → marked frame set) for the
    /// worked-example assertions.
    pub fn states(&self) -> impl Iterator<Item = (ObjectSet, &MarkedFrameSet)> {
        self.states
            .iter()
            .map(|(&sid, frames)| (self.core.interner.resolve(sid), frames))
    }

    fn expire(&mut self, oldest: FrameId) {
        let mut pruned = 0u64;
        self.states.retain(|_, frames| {
            frames.expire_before(oldest);
            // A state with no marked frame left is invalid (Theorem 1) and is
            // dropped even though its frame set may still be non-empty.
            let keep = frames.has_marked();
            if !keep {
                pruned += 1;
            }
            keep
        });
        self.core.metrics.states_pruned += pruned;
    }

    fn process_frame(&mut self, frame: FrameId, objects: &ObjectSet) {
        if objects.is_empty() {
            return;
        }
        let frame_sid = self.core.interner.intern(objects);

        // Pass 1 (read-only): intersect every live state with the arriving
        // frame, recording which states are fully contained in the frame and
        // which object sets are derived from which parents.
        let mut appenders = std::mem::take(&mut self.appenders_scratch);
        let mut derived = std::mem::take(&mut self.derived_scratch);
        appenders.clear();
        derived.clear();
        for &sid in self.states.keys() {
            self.core.metrics.intersections += 1;
            let inter = self.core.interner.intersect(sid, frame_sid);
            if inter.is_empty_set() {
                continue;
            }
            if inter == sid {
                // Fully contained in the arriving frame: only the frame id
                // needs to be appended (this is the hot path on feeds with
                // long-lived objects).
                appenders.push(sid);
            } else {
                derived.push((inter, sid));
            }
        }
        self.core.metrics.states_visited += self.states.len() as u64;

        // Pass 2a: append the arriving frame (unmarked) to fully contained
        // states.
        for sid in appenders.drain(..) {
            if let Some(frames) = self.states.get_mut(&sid) {
                frames.push(frame, false);
                self.core.metrics.frames_appended += 1;
            }
        }
        self.appenders_scratch = appenders;

        // Pass 2b, one target at a time: propagate marks (Frame Marking
        // Rule 2) onto a target that exists, create the one that does not.
        // A target is a subset of the arriving frame and a parent is not, so
        // no state is both: the parents still carry their pre-frame marks.
        // The packed key orders like the tuple, in one `u64` compare.
        derived.sort_unstable_by_key(|&(t, p)| (u64::from(t.raw()) << 32) | u64::from(p.raw()));
        for group in derived.chunk_by(|a, b| a.0 == b.0) {
            let target = group[0].0;
            if self.states.contains_key(&target) {
                for (_, parent) in group {
                    if let [Some(existing), Some(parent)] =
                        self.states.get_disjoint_mut([&target, parent])
                    {
                        existing.inherit_marks(parent, frame);
                    }
                }
                continue;
            }
            if self.core.is_terminated(target) {
                continue;
            }
            // A new state co-occurs in every frame any parent does, keeps
            // their key frames (Rule 2), and gains the arriving frame.
            let mut frames = MarkedFrameSet::new();
            for (_, parent) in group {
                frames.merge_from(&self.states[parent]);
            }
            frames.push(frame, false);
            if self.core.terminate_if_hopeless(target) {
                continue;
            }
            self.states.insert(target, frames);
            self.core.metrics.states_created += 1;
        }
        self.derived_scratch = derived;

        // Pass 2c: the arriving frame's own object set becomes (or stays) a
        // state, and the arriving frame is its key frame (Rule 1).
        if !self.core.is_terminated(frame_sid) && !self.core.terminate_if_hopeless(frame_sid) {
            match self.states.get_mut(&frame_sid) {
                Some(frames) => {
                    frames.push(frame, true);
                    frames.mark(frame);
                }
                None => {
                    self.states
                        .insert(frame_sid, MarkedFrameSet::singleton(frame, true));
                    self.core.metrics.states_created += 1;
                }
            }
        }
    }

    fn collect_results(&mut self) {
        self.core.begin_results(self.states.len());
        for (&sid, frames) in &self.states {
            if frames.has_marked() && self.core.spec.satisfies_duration(frames.len()) {
                self.core.report(sid, frames);
            }
        }
        self.core.end_results();
    }
}

impl StateMaintainer for MfsMaintainer {
    fn advance(&mut self, frame: FrameId, objects: &ObjectSet) -> Result<()> {
        let oldest = self.core.begin_frame(frame)?;
        self.expire(oldest);
        self.process_frame(frame, objects);
        self.collect_results();
        Ok(())
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
        if self.core.has_pruner() {
            "MFS_O"
        } else {
            "MFS"
        }
    }

    fn maybe_compact(&mut self, policy: &CompactionPolicy) -> Option<CompactionOutcome> {
        let (table, outcome) = self.core.compact(policy, self.states.len(), || {
            self.states.keys().copied().collect()
        })?;
        self.states = std::mem::take(&mut self.states)
            .into_iter()
            .filter_map(|(sid, frames)| table.remap(sid).map(|new| (new, frames)))
            .collect();
        Some(outcome)
    }

    fn pruner_changed(&mut self) {
        self.core.pruner_changed();
    }

    fn snapshot_state(&self, enc: &mut Encoder) -> Result<()> {
        self.core.put_head(enc);
        // Handle order makes the byte stream deterministic across runs.
        let mut sids: Vec<SetId> = self.states.keys().copied().collect();
        sids.sort_unstable();
        enc.put_usize(sids.len());
        for sid in sids {
            enc.put_u32(sid.raw());
            self.states[&sid].encode(enc);
        }
        self.core.metrics.encode(enc);
        Ok(())
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        self.core.take_head(dec)?;
        let states = dec.take_len()?;
        for _ in 0..states {
            let sid = SetId::from_raw(dec.take_u32()?);
            let frames = MarkedFrameSet::decode(dec, self.core.spec.window())?;
            if sid.is_empty_set() || sid.raw() as usize >= self.core.interner.len() {
                return Err(Error::Corrupt(format!(
                    "MFS state references handle {} outside the restored arena",
                    sid.raw()
                )));
            }
            if self.states.insert(sid, frames).is_some() {
                return Err(Error::Corrupt(format!(
                    "duplicate MFS state for handle {}",
                    sid.raw()
                )));
            }
        }
        self.core.metrics = MaintenanceMetrics::decode(dec)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::MinCardinalityPruner;
    use std::sync::Arc;

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
        // Memo gauges drift (the intersection cache is not persisted); every
        // other counter must agree.
        assert_eq!(
            restored.metrics().without_cache_gauges(),
            original.metrics().without_cache_gauges()
        );
    }

    #[test]
    fn restore_rejects_used_maintainers_and_dangling_handles() {
        let spec = WindowSpec::new(4, 2).unwrap();
        let mut original = MfsMaintainer::new(spec);
        original.advance(FrameId(0), &set(&[1, 2])).unwrap();
        let mut enc = tvq_common::Encoder::new();
        original.snapshot_state(&mut enc).unwrap();
        let bytes = enc.into_bytes();

        // A maintainer that already advanced refuses to restore.
        let mut used = MfsMaintainer::new(spec);
        used.advance(FrameId(0), &set(&[9])).unwrap();
        assert!(used
            .restore_state(&mut tvq_common::Decoder::new(&bytes))
            .is_err());

        // A state entry pointing outside the arena is corrupt, not a panic.
        let mut enc = tvq_common::Encoder::new();
        original.core.put_head(&mut enc);
        enc.put_usize(1);
        enc.put_u32(77); // dangling handle
        MarkedFrameSet::singleton(FrameId(0), true).encode(&mut enc);
        original.metrics().encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut fresh = MfsMaintainer::new(spec);
        let err = fresh
            .restore_state(&mut tvq_common::Decoder::new(&bytes))
            .unwrap_err();
        assert!(matches!(err, tvq_common::Error::Corrupt(_)), "{err}");
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
