//! The NAIVE baseline (Section 6.2 of the paper).
//!
//! NAIVE maintains, for every object set ever produced by intersecting the
//! window's frames, the set of frames in which it appears. States are only
//! removed once their frame set empties (no key-frame bookkeeping), and the
//! MCOS property is established *a posteriori* at result-collection time:
//! among states that satisfy the duration threshold and share the same frame
//! set, only the largest object set is kept.
//!
//! # Incremental result collection
//!
//! The a-posteriori step used to rebuild a `frame set → best state` map
//! from scratch every frame — collecting and hashing an O(window) frame
//! vector per state per frame, which degenerates badly on long-lived states
//! (NAIVE's state table is the intersection closure of the window's frames
//! and can grow exponentially while every state stays subset-of-every-frame
//! alive). The maintainer now tracks **groups** incrementally: a group is
//! the set of states sharing one exact frame set, and group membership only
//! changes in ways the per-frame passes already observe:
//!
//! * states that append the arriving frame move together — a group either
//!   appends wholesale (its key changes, membership intact) or *splits*
//!   into appenders and non-appenders;
//! * window expiry trims every member of a group identically (identical
//!   frame sets expire identically), so expiry re-keys — and sometimes
//!   *merges* — groups but never splits them;
//! * new states join the group holding their frame set, or found one.
//!
//! Result collection then touches `O(groups)` entries per frame instead of
//! `O(states)`: each satisfied group contributes its largest member (the
//! MCOS of that frame set). Groups are few even when states are many — on a
//! stable scene with n in-window occlusion patterns there are `2^n` states
//! but only a handful of distinct frame sets.

use tvq_common::{
    FrameId, FxHashMap, MarkedFrameSet, ObjectSet, Result, SetId, SetInterner, WindowSpec,
};

use crate::compaction::{CompactionOutcome, CompactionPolicy};
use crate::maintainer::StateMaintainer;
use crate::metrics::MaintenanceMetrics;
use crate::result_set::ResultStateSet;
use crate::substrate::Substrate;

/// Sentinel for "group not assigned yet" (states created this frame).
const NO_GROUP: u32 = u32::MAX;

/// One NAIVE state: its frame set plus the group it belongs to.
#[derive(Debug)]
struct StateSlot {
    frames: MarkedFrameSet,
    group: u32,
}

/// A set of states sharing one exact frame set.
#[derive(Debug)]
struct Group {
    /// Member handles (order follows the deterministic per-frame passes).
    members: Vec<SetId>,
    /// The largest member — the MCOS of the group's frame set.
    max: SetId,
    /// The shared frame set as of the end of the previous `advance`; also
    /// the group's key in `by_frames`. Empty for groups founded this frame
    /// (they are keyed during the re-key pass).
    key: Box<[FrameId]>,
    alive: bool,
}

/// Slab of groups plus the exact `frame set → group` index.
#[derive(Debug, Default)]
struct GroupTable {
    groups: Vec<Group>,
    free: Vec<u32>,
    by_frames: FxHashMap<Box<[FrameId]>, u32>,
}

impl GroupTable {
    fn alloc(&mut self, members: Vec<SetId>, max: SetId) -> u32 {
        let group = Group {
            members,
            max,
            key: Box::from([]),
            alive: true,
        };
        match self.free.pop() {
            Some(id) => {
                self.groups[id as usize] = group;
                id
            }
            None => {
                self.groups.push(group);
                (self.groups.len() - 1) as u32
            }
        }
    }

    fn kill(&mut self, id: u32) {
        let group = &mut self.groups[id as usize];
        group.alive = false;
        group.members = Vec::new();
        if !group.key.is_empty() {
            let key = std::mem::take(&mut group.key);
            self.by_frames.remove(&key);
        }
        self.free.push(id);
    }
}

/// The NAIVE state maintainer.
///
/// States are keyed by interned [`SetId`] handles: hashing, equality and
/// lookup are O(1) integer operations and repeated intersections are
/// answered from the interner's memo. Result collection is incremental —
/// see the [module docs](self).
///
/// NAIVE is a baseline and differential oracle: it takes no pruner (the
/// paper defines only `MFS_O` and `SSG_O`) and does not support snapshots.
pub struct NaiveMaintainer {
    core: Substrate,
    states: FxHashMap<SetId, StateSlot>,
    groups: GroupTable,
    /// Groups whose frame set changed this frame (expiry or append) and
    /// must be re-keyed. May contain duplicates; deduplicated in the
    /// re-key pass.
    dirty: Vec<u32>,
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
            groups: GroupTable::default(),
            dirty: Vec::new(),
        }
    }

    /// Exposes the live states (object set → frame set) for inspection in
    /// tests and the worked-example assertions.
    pub fn states(&self) -> impl Iterator<Item = (ObjectSet, &MarkedFrameSet)> {
        self.states
            .iter()
            .map(|(&sid, slot)| (self.core.interner.resolve(sid), &slot.frames))
    }

    /// Group-driven window expiry: every member of a group shares its frame
    /// set, so a whole group either keeps all its frames, trims identically
    /// (and is re-keyed), or empties (and dies with all its members).
    fn expire(&mut self, oldest: FrameId) {
        let mut pruned = 0u64;
        for id in 0..self.groups.groups.len() as u32 {
            let group = &self.groups.groups[id as usize];
            if !group.alive {
                continue;
            }
            match group.key.first() {
                Some(&first) if first < oldest => {}
                _ => continue,
            }
            let mut emptied = false;
            for &sid in &self.groups.groups[id as usize].members {
                let slot = self.states.get_mut(&sid).expect("member is a live state");
                slot.frames.expire_before(oldest);
                emptied = slot.frames.is_empty();
            }
            if emptied {
                let members = std::mem::take(&mut self.groups.groups[id as usize].members);
                pruned += members.len() as u64;
                for sid in members {
                    self.states.remove(&sid);
                }
                self.groups.kill(id);
            } else {
                self.dirty.push(id);
            }
        }
        self.core.metrics.states_pruned += pruned;
    }

    /// The per-frame intersection passes. Returns the per-group appender
    /// lists and the states created this frame (unassigned to groups).
    fn process_frame(
        &mut self,
        frame: FrameId,
        objects: &ObjectSet,
    ) -> (Vec<(u32, Vec<SetId>)>, Vec<SetId>) {
        if objects.is_empty() {
            return (Vec::new(), Vec::new());
        }
        let frame_sid = self.core.interner.intern(objects);
        // Pass 1: intersect the arriving frame with every existing state
        // (memoized handle → handle lookups after the first occurrence).
        let mut appenders: Vec<SetId> = Vec::new();
        let mut derived: FxHashMap<SetId, Vec<SetId>> = FxHashMap::default();
        for (&sid, _) in self.states.iter() {
            self.core.metrics.intersections += 1;
            let inter = self.core.interner.intersect(sid, frame_sid);
            if inter.is_empty_set() {
                continue;
            }
            if inter == sid {
                appenders.push(sid);
            } else {
                derived.entry(inter).or_default().push(sid);
            }
        }
        self.core.metrics.states_visited += self.states.len() as u64;

        // Pass 2a: append the new frame to states fully contained in it,
        // tallying appenders per group (the split detector's input).
        let mut appended_by_group: FxHashMap<u32, Vec<SetId>> = FxHashMap::default();
        for sid in appenders {
            if let Some(slot) = self.states.get_mut(&sid) {
                slot.frames.push(frame, false);
                self.core.metrics.frames_appended += 1;
                appended_by_group.entry(slot.group).or_default().push(sid);
            }
        }

        let mut created: Vec<SetId> = Vec::new();
        // Pass 2b: create states for intersections that are not yet
        // materialised; their frame set is the union of all parents' frame
        // sets plus the arriving frame.
        for (target, parents) in derived {
            if self.states.contains_key(&target) {
                // Already materialised: it was (or will be) extended through
                // its own intersection pass.
                continue;
            }
            let mut frames = MarkedFrameSet::new();
            for parent in &parents {
                if let Some(parent_slot) = self.states.get(parent) {
                    frames.merge_from(&parent_slot.frames);
                }
            }
            frames.push(frame, false);
            self.states.insert(
                target,
                StateSlot {
                    frames,
                    group: NO_GROUP,
                },
            );
            created.push(target);
            self.core.metrics.states_created += 1;
        }

        // Pass 2c: make sure the arriving frame's own object set is a state.
        match self.states.get_mut(&frame_sid) {
            None => {
                self.states.insert(
                    frame_sid,
                    StateSlot {
                        frames: MarkedFrameSet::singleton(frame, false),
                        group: NO_GROUP,
                    },
                );
                created.push(frame_sid);
                self.core.metrics.states_created += 1;
            }
            Some(slot) => {
                // Pre-existing states were covered by their own pass-1
                // intersection (they are appenders); states created by pass
                // 2b this frame already carry the frame. Either way this
                // push merges into the identical tail.
                slot.frames.push(frame, false);
            }
        }

        // Deterministic split order: group allocation below follows this
        // list, and FxHashMap iteration order is deterministic only per
        // construction history — sort by group id to decouple the two.
        let mut appended: Vec<(u32, Vec<SetId>)> = appended_by_group.into_iter().collect();
        appended.sort_unstable_by_key(|&(group, _)| group);
        (appended, created)
    }

    /// The largest member of `members` (first wins ties — deterministic,
    /// and sound: the group's true MCOS is strictly larger than any
    /// same-size rival sharing its frame set).
    fn max_of(interner: &SetInterner, members: &[SetId]) -> SetId {
        let mut best = members[0];
        for &sid in &members[1..] {
            if interner.len_of(sid) > interner.len_of(best) {
                best = sid;
            }
        }
        best
    }

    /// Splits groups whose members only partially appended the arriving
    /// frame: the appenders move into a fresh group (their frame set now
    /// differs from the stay-behinds'). Whole-group appends just mark the
    /// group for re-keying.
    fn split_appended(&mut self, frame: FrameId, appended: Vec<(u32, Vec<SetId>)>) {
        for (group_id, appenders) in appended {
            let group = &self.groups.groups[group_id as usize];
            debug_assert!(group.alive);
            if appenders.len() == group.members.len() {
                self.dirty.push(group_id);
                continue;
            }
            // Partial append: retain non-appenders (their last frame is not
            // the arriving one), split appenders off.
            let states = &self.states;
            let group = &mut self.groups.groups[group_id as usize];
            group
                .members
                .retain(|sid| states[sid].frames.last() != Some(frame));
            group.max = Self::max_of(&self.core.interner, &group.members);
            let new_max = Self::max_of(&self.core.interner, &appenders);
            let new_id = self.groups.alloc(appenders, new_max);
            for &sid in &self.groups.groups[new_id as usize].members {
                self.states.get_mut(&sid).expect("member exists").group = new_id;
            }
            self.dirty.push(group_id);
            self.dirty.push(new_id);
        }
    }

    /// Re-keys every dirty group: old keys leave the index first, then each
    /// group is keyed by its representative's current frame set — colliding
    /// groups (frame sets that became identical through expiry/appends)
    /// merge into the incumbent.
    fn rekey_dirty(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        dirty.sort_unstable();
        dirty.dedup();
        dirty.retain(|&id| self.groups.groups[id as usize].alive);
        for &id in &dirty {
            let group = &mut self.groups.groups[id as usize];
            if !group.key.is_empty() {
                let key = std::mem::take(&mut group.key);
                self.groups.by_frames.remove(&key);
            }
        }
        for id in dirty {
            let group = &self.groups.groups[id as usize];
            let representative = group.members.first().expect("live groups are non-empty");
            let key: Box<[FrameId]> = self.states[representative].frames.frames().collect();
            match self.groups.by_frames.get(&key) {
                Some(&incumbent) => {
                    // Merge `id` into the group already holding this frame
                    // set.
                    let members = std::mem::take(&mut self.groups.groups[id as usize].members);
                    let moved_max = self.groups.groups[id as usize].max;
                    for &sid in &members {
                        self.states.get_mut(&sid).expect("member exists").group = incumbent;
                    }
                    let target = &mut self.groups.groups[incumbent as usize];
                    target.members.extend(members);
                    let interner = &self.core.interner;
                    if interner.len_of(moved_max) > interner.len_of(target.max) {
                        target.max = moved_max;
                    }
                    self.groups.kill(id);
                }
                None => {
                    self.groups.by_frames.insert(key.clone(), id);
                    self.groups.groups[id as usize].key = key;
                }
            }
        }
    }

    /// Assigns the states created this frame to the group holding their
    /// frame set, founding new groups as needed. Runs after
    /// [`rekey_dirty`](Self::rekey_dirty) so every existing key is current.
    fn assign_created(&mut self, created: Vec<SetId>) {
        for sid in created {
            let key: Box<[FrameId]> = self.states[&sid].frames.frames().collect();
            match self.groups.by_frames.get(&key) {
                Some(&group_id) => {
                    let group = &mut self.groups.groups[group_id as usize];
                    group.members.push(sid);
                    if self.core.interner.len_of(sid) > self.core.interner.len_of(group.max) {
                        group.max = sid;
                    }
                    self.states.get_mut(&sid).expect("just created").group = group_id;
                }
                None => {
                    let group_id = self.groups.alloc(vec![sid], sid);
                    self.groups.by_frames.insert(key.clone(), group_id);
                    self.groups.groups[group_id as usize].key = key;
                    self.states.get_mut(&sid).expect("just created").group = group_id;
                }
            }
        }
    }

    /// Collects the Result State Set from the groups: each group whose
    /// frame set meets the duration threshold contributes its largest
    /// member (the MCOS of that frame set). O(groups), not O(states).
    fn collect_results(&mut self) {
        self.core.begin_results(self.states.len());
        for group in self.groups.groups.iter().filter(|g| g.alive) {
            if self.core.spec.satisfies_duration(group.key.len()) {
                self.core.report(group.max, &self.states[&group.max].frames);
            }
        }
        self.core.end_results();
    }

    /// Verifies the group invariants (every member shares the group's exact
    /// frame set; the index is consistent) — test support.
    #[cfg(test)]
    fn check_group_invariants(&self) {
        let mut seen = 0usize;
        for (id, group) in self.groups.groups.iter().enumerate() {
            if !group.alive {
                continue;
            }
            assert!(!group.members.is_empty(), "live group {id} has no members");
            assert_eq!(
                self.groups.by_frames.get(&group.key),
                Some(&(id as u32)),
                "group {id} key missing from the index"
            );
            assert!(group.members.contains(&group.max));
            for &sid in &group.members {
                let slot = &self.states[&sid];
                assert_eq!(slot.group, id as u32);
                let frames: Box<[FrameId]> = slot.frames.frames().collect();
                assert_eq!(frames, group.key, "member frame set diverged");
                assert!(
                    self.core.interner.len_of(sid) <= self.core.interner.len_of(group.max),
                    "max is not maximal"
                );
            }
            seen += group.members.len();
        }
        assert_eq!(seen, self.states.len(), "orphaned states");
        assert_eq!(
            self.groups.by_frames.len(),
            self.groups.groups.iter().filter(|g| g.alive).count()
        );
    }
}

impl StateMaintainer for NaiveMaintainer {
    fn advance(&mut self, frame: FrameId, objects: &ObjectSet) -> Result<()> {
        let oldest = self.core.begin_frame(frame)?;
        self.expire(oldest);
        let (appended, created) = self.process_frame(frame, objects);
        self.split_appended(frame, appended);
        self.rekey_dirty();
        self.assign_created(created);
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
        "NAIVE"
    }

    fn maybe_compact(&mut self, policy: &CompactionPolicy) -> Option<CompactionOutcome> {
        let (table, outcome) = self.core.compact(policy, self.states.len(), || {
            self.states.keys().copied().collect()
        })?;
        self.states = std::mem::take(&mut self.states)
            .into_iter()
            .filter_map(|(sid, slot)| table.remap(sid).map(|new| (new, slot)))
            .collect();
        for group in self.groups.groups.iter_mut().filter(|g| g.alive) {
            for sid in &mut group.members {
                *sid = table.remap(*sid).expect("group members are live states");
            }
            group.max = table.remap(group.max).expect("group max is a live state");
        }
        Some(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        m.check_group_invariants();
        assert_eq!(states_at(&m), vec![(set(&[2]), vec![0])]);

        m.advance(FrameId(1), &frames[1]).unwrap();
        m.check_group_invariants();
        assert_eq!(
            states_at(&m),
            vec![(set(&[1, 2, 3]), vec![1]), (set(&[2]), vec![0, 1])]
        );

        m.advance(FrameId(2), &frames[2]).unwrap();
        m.check_group_invariants();
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
        m.check_group_invariants();
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
        m.check_group_invariants();
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
        m.check_group_invariants();
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
        m.check_group_invariants();
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

    /// Groups split when only part of a group appends, merge when expiry
    /// equalises frame sets, and die when the window slides past them.
    #[test]
    fn group_lifecycle_survives_splits_merges_and_death() {
        let spec = WindowSpec::new(4, 1).unwrap();
        let mut m = NaiveMaintainer::new(spec);
        // Two disjoint pairs co-occur, then only one keeps appearing, then
        // neither.
        m.advance(FrameId(0), &set(&[1, 2, 3, 4])).unwrap();
        m.check_group_invariants();
        m.advance(FrameId(1), &set(&[1, 2])).unwrap();
        m.check_group_invariants();
        m.advance(FrameId(2), &set(&[3, 4])).unwrap();
        m.check_group_invariants();
        m.advance(FrameId(3), &set(&[1, 2])).unwrap();
        m.check_group_invariants();
        // Frame 0 expires: {1,2,3,4} dies, {1,2} and {3,4} remain with
        // different frame sets.
        m.advance(FrameId(4), &set(&[5])).unwrap();
        m.check_group_invariants();
        for i in 5..9u64 {
            m.advance(FrameId(i), &ObjectSet::empty()).unwrap();
            m.check_group_invariants();
        }
        assert_eq!(m.live_states(), 0, "window slid past everything");
        assert!(m.results().is_empty());
    }

    /// NAIVE results agree with MFS frame-for-frame on a feed dense enough
    /// to exercise group splits and merges continuously.
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
            naive.check_group_invariants();
            assert_eq!(
                naive.results(),
                mfs.results(),
                "NAIVE and MFS diverged at frame {i}"
            );
        }
    }

    /// Compaction keeps the group structure intact.
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
        assert!(outcome.retired_sets > 0);
        assert!(
            !outcome.retired_objects.is_empty(),
            "rotated-away objects are reported retired"
        );
        assert!(m.core.interner.len() < arena_before);
        m.check_group_invariants();
        assert_eq!(m.metrics().compactions, 1);
        // The maintainer keeps answering correctly after the remap.
        m.advance(FrameId(12), &set(&[40, 41])).unwrap();
        m.check_group_invariants();
        assert!(m.results().contains(&set(&[40, 41])));
    }
}
