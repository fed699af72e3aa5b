//! The Strict State Graph (SSG) approach with State Traversal (Section
//! 4.3): the state table reached by walking a graph down from the
//! principal states.
//!
//! SSG indexes the table's rows in a directed graph whose roots are the
//! *principal states* — states whose object set equals the object set of
//! some in-window frame. Every other state is generated from principal
//! states by intersection, directly or transitively, so a new frame needs
//! only a traversal from the principal states that *stops as soon as an
//! intersection becomes empty*: whole subtrees of states that share nothing
//! with the arriving frame are skipped. (On dense windows that rarely
//! happens — the traversal visits nearly every live state, and at w=60, the
//! benchmark's window, MFS is faster on every film (README). At w=300 SSG
//! makes 21–40 % of MFS's visits and is still 1.04–1.88× slower on the
//! video profiles: ROADMAP item 4.)
//!
//! The walk follows the paper's procedures:
//!
//! * **Graph Maintenance Procedure / Algorithm 1 (ST)** — traverses from
//!   each principal state, appends the arriving frame to states fully
//!   contained in it, materialises missing intersection states, and skips
//!   subtrees with empty intersections.
//! * **Modifying Existing Edges (4.3.4) and Property 2** — performed by
//!   `StateGraph::attach`.
//! * **Connecting the New Principal State / Algorithm 2 (CNPS)** — candidates
//!   (one per principal state) are sorted by object-set size and connected to
//!   the new principal unless already reachable.
//! * **State Marking Procedure (4.3.6)** — the state table's calls, as in
//!   MFS.
//!
//! A node finds its row by handle. The graph removes a node as expiry drops
//! its row, at the start of the frame and in row order, and reconnects the
//! node's parents to its children (a deviation from the paper's
//! pseudocode), so every node the traversal reaches is valid and no valid
//! node loses its path from a principal state (a debug build checks this
//! after each frame's drops).
//!
//! **A restore rebuilds the graph from the table**, as a snapshot holds no
//! graph. For each in-window frame, the largest row that marks it is the
//! frame's own object set: those rows are the principal states, ordered by
//! their earliest such frame. Each row, largest set first, is attached
//! through `attach` under the principal states of its own frames, which are
//! exactly those that contain it, as frame sets are complete; so the graph
//! holds Properties 1 and 2 and reaches every state by construction. The
//! live path keeps a principal state while its row lives, also once its
//! frames have left the window, so a restore may start with fewer roots.
//! Which rows a frame reaches, and so every state and result, does not
//! depend on the roots or edges; the traversal's work counters
//! (`states_visited`, `intersections`, `edges_*`) do, and may drift after a
//! restore.
//!
//! **Each step runs once per frame.** A node is visited at most once (its
//! `visited` stamp) and has the frame appended at most once (its row's last
//! frame). Its intersection is materialised where lines 25-29 of Algorithm
//! 1 put it: by its own visit, after its subtree, when it is a proper new
//! set. (Lines 5-16 would make the same `(parent, set)` call earlier, from
//! a child's visit; it is not made.) A node one of whose children
//! intersected the frame to the same set makes no `attach` call: that
//! child holds the state or has it below, so by Property 2 no edge is due.
//!
//! **The walk reads child lists in place.** No edit inside a node's subtree
//! reaches the list of a node on the walk stack: `attach(p, …)` edits only
//! lists at or below `p`, where `p` is the node being visited (its
//! `F ⊊ node` attach runs before its walk, its `ensure_state` after) or lies
//! below it, and every node further up is a proper superset. `insert`
//! never moves a slot; removal runs before the traversal and CNPS after it.
//!
//! **The traversal reuses what its stamps already say.** A visit passes
//! the parent's intersection (a superset of its own) and its previous one
//! to the interner, which then rarely probes the content index. Siblings
//! have ended their visits when their parent materialises its
//! intersection, so `attach` answers for them from their `last_inter`. A
//! frame set interned by this frame's own `intern` is in no memo entry, so
//! its visits call `intersect_uncached` and leave the memo alone.

mod graph;

use std::cmp::Reverse;

use tvq_common::{Error, FrameId, FxHashSet, ObjectSet, RemapTable, Result, SetId};

use crate::substrate::{Maintainer, Reach};

use graph::{NodeId, StateGraph};

/// The arriving frame as State Traversal sees it.
#[derive(Clone, Copy)]
struct Arrival {
    frame: FrameId,
    /// The frame's interned object set.
    sid: SetId,
    /// The new principal state: the node holding `sid`.
    ns: NodeId,
    /// Whether this frame's `intern` call created `sid`: then no memo entry
    /// names it, so the traversal intersects without the memo.
    fresh: bool,
}

/// The Strict State Graph state maintainer: the state table reached by
/// [`Traversal`].
///
/// The graph's handle index, the termination cache and every traversal
/// comparison operate on interned [`SetId`] handles. Each visit intersects
/// its state with the arriving frame once; on dense feeds that is nearly
/// always a real word-parallel AND (most frames there bring a new set, which
/// skips the memo), though rarely a content-index probe. Every per-node
/// step runs at most once per frame — see the module docs.
pub type SsgMaintainer = Maintainer<Traversal>;

/// SSG's reach: State Traversal down the graph from the principal states.
#[derive(Default)]
pub struct Traversal {
    graph: StateGraph,
    /// Principal states in their order of arrival (kept while alive; a
    /// restore orders them by their earliest in-window frame).
    roots: Vec<NodeId>,
    /// Pooled per-frame buffers (CNPS candidates, reachability set and DFS
    /// stack): cleared and reused so the steady-state advance loop performs
    /// no transient allocations.
    candidates_scratch: Vec<NodeId>,
    cnps_reachable: FxHashSet<NodeId>,
    cnps_stack: Vec<NodeId>,
}

impl SsgMaintainer {
    /// The state row of the live node `id`.
    fn row(&self, id: NodeId) -> usize {
        self.table
            .row_of(self.reach.graph.node(id).sid)
            // infallible: the table and the graph add and drop a state
            // together, so every live node has a row.
            .expect("every live node has a state row")
    }

    /// Materialises `sid` — always `parent.last_inter`, a proper, new
    /// intersection with the arriving frame — once `parent`'s subtree has
    /// been walked (lines 25-29 of Algorithm 1): the state holding it exists,
    /// carries the frame and sits below `parent`. Runs once per node per
    /// frame, from the node's own visit. `held`: a child of `parent` holds
    /// `sid` or has it below, so no attach is due (module docs).
    fn ensure_state(&mut self, sid: SetId, parent: NodeId, at: Arrival, held: bool) {
        let node = self.reach.graph.node(parent);
        // infallible: the caller is `parent`'s visit, which stamped both.
        debug_assert_eq!((sid, node.visited), (node.last_inter, at.frame.raw()));
        // infallible: a visit calls this only for an `inter` that is not
        // empty, its own set or the frame's.
        debug_assert!(![SetId::EMPTY, node.sid, at.sid].contains(&sid));
        if self.core.is_terminated(sid) {
            return;
        }
        let parent_row = self.row(parent);
        let id = match self.reach.graph.id_of(sid) {
            Some(id) => {
                let row = self.row(id);
                self.table.append(row, at.frame, &mut self.core.metrics);
                // Frame-set completeness and Rule-2 mark inheritance: the
                // parent's frames all contain the parent's object set, hence
                // this subset too.
                self.table.merge_from(row, parent_row);
                id
            }
            None => {
                let core = &mut self.core;
                if !self.table.derive(core, sid, parent_row, at.frame) {
                    return;
                }
                self.reach.graph.insert(sid)
            }
        };
        let edges = (self.reach.graph.edges_added, self.reach.graph.edges_removed);
        if !held || cfg!(debug_assertions) {
            let frame = Some(at.frame.raw());
            self.reach
                .graph
                .attach(parent, id, &self.core.interner, frame);
        }
        // infallible: a held attach is a no-op (see above).
        debug_assert!(
            !held || edges == (self.reach.graph.edges_added, self.reach.graph.edges_removed)
        );
    }

    /// State Traversal (Algorithm 1), visiting `node` with `p_inter` being the
    /// intersection of the parent state with the arriving frame.
    fn st_visit(&mut self, node: NodeId, parent: Option<NodeId>, p_inter: SetId, at: Arrival) {
        let state = self.reach.graph.node_mut(node);
        if state.visited == at.frame.raw() {
            return;
        }
        state.visited = at.frame.raw();
        let (node_sid, previous) = (state.sid, state.last_inter);
        self.core.metrics.states_visited += 1;
        self.core.metrics.intersections += 1;
        // node ⊊ parent bounds the answer by p_inter; `previous` often repeats.
        let interner = &mut self.core.interner;
        let inter = if at.fresh {
            interner.intersect_uncached(node_sid, at.sid, p_inter, previous)
        } else {
            interner.intersect_within(node_sid, at.sid, p_inter, previous)
        };
        self.reach.graph.node_mut(node).last_inter = inter;

        if inter.is_empty_set() {
            // No descendant of this node can intersect the frame either.
            return;
        }

        if inter == node_sid {
            // The whole state co-occurs in the arriving frame: append it
            // (lines 18-21) and inherit the parent's frames when the parent's
            // intersection is exactly this state (line 19).
            let row = self.row(node);
            self.table.append(row, at.frame, &mut self.core.metrics);
            if let Some(parent) = parent {
                if p_inter == node_sid {
                    self.table.merge_from(row, self.row(parent));
                }
            }
            self.visit_children(node, inter, at);
        } else if inter == at.sid {
            // The arriving frame's object set is a proper subset of this
            // state: the new principal co-occurs in all of this state's frames
            // (lines 22-24).
            if at.ns != node {
                self.table.merge_from(self.row(at.ns), self.row(node));
            }
            self.reach
                .graph
                .attach(node, at.ns, &self.core.interner, Some(at.frame.raw()));
            self.visit_children(node, inter, at);
        } else {
            // A proper, new intersection: descend first (a child subtree may
            // already own it), then make sure it exists under this node
            // (lines 25-29).
            let held = self.visit_children(node, inter, at);
            self.ensure_state(inter, node, at, held);
        }
    }

    /// Visits `node`'s children in place: no edit inside a child's subtree
    /// reaches `node`'s list (the module docs say why). Returns whether
    /// some child's intersection with the frame is `inter` too.
    fn visit_children(&mut self, node: NodeId, inter: SetId, at: Arrival) -> bool {
        let count = self.reach.graph.node(node).children.len();
        let mut held = false;
        for index in 0..count {
            // infallible: module docs, "The walk reads child lists in place".
            debug_assert_eq!(self.reach.graph.node(node).children.len(), count);
            let child = self.reach.graph.node(node).children[index];
            self.st_visit(child, Some(node), inter, at);
            held |= self.reach.graph.node(child).last_inter == inter;
        }
        held
    }

    /// CNPS (Algorithm 2): connect the new principal state to the candidate
    /// states derived from each principal, largest object set first, skipping
    /// candidates already reachable from the new principal.
    #[inline]
    fn connect_new_principal(&mut self, ns: NodeId) {
        let (reach, interner) = (&mut self.reach, &self.core.interner);
        let mut ordered = std::mem::take(&mut reach.candidates_scratch);
        ordered.sort_by_key(|&id| Reverse(interner.len_of(reach.graph.node(id).sid)));
        ordered.dedup();
        reach.cnps_reachable.clear();
        for &candidate in &ordered {
            if candidate == ns || reach.cnps_reachable.contains(&candidate) {
                continue;
            }
            reach.graph.attach(ns, candidate, interner, None);
            // Incremental DFS: regions already known to be reachable are not
            // re-traversed, so the whole CNPS pass is bounded by the size of
            // the subgraph below the new principal.
            reach.cnps_stack.clear();
            reach.cnps_stack.push(candidate);
            reach.cnps_reachable.insert(candidate);
            while let Some(id) = reach.cnps_stack.pop() {
                for &child in &reach.graph.node(id).children {
                    if reach.cnps_reachable.insert(child) {
                        reach.cnps_stack.push(child);
                    }
                }
            }
        }
        ordered.clear();
        reach.candidates_scratch = ordered;
    }

    /// The principal states the table names: for each in-window frame, the
    /// largest row that marks it, which is the frame's own object set (a
    /// row marks only frames that contain it, and Rule 1 marks the frame in
    /// its own set's row). Ordered by their earliest such frame, and listed
    /// with each such frame's root as an index into them, by frame.
    fn derived_roots(&self) -> (Vec<NodeId>, Vec<(FrameId, usize)>) {
        // Every mark as (frame, largest set first, row), sorted: the first
        // entry of each frame names its largest row. Sorting the marks, not
        // indexing a window-long table, keeps the cost to the rows' own
        // size whatever the window.
        let mut marks = Vec::new();
        for row in 0..self.table.len() {
            let len = Reverse(self.core.interner.len_of(self.table.sid(row)));
            let frames = self.table.frames(row).iter();
            marks.extend(
                frames
                    .filter(|&(_, marked)| marked)
                    .map(|(frame, _)| (frame, len, row)),
            );
        }
        marks.sort_unstable();
        marks.dedup_by_key(|&mut (frame, _, _)| frame);
        let (graph, mut index_of) = (&self.reach.graph, vec![usize::MAX; self.table.len()]);
        let (mut roots, mut by_frame) = (Vec::new(), Vec::with_capacity(marks.len()));
        for (frame, _, row) in marks {
            if index_of[row] == usize::MAX {
                index_of[row] = roots.len();
                let sid = self.table.sid(row);
                // infallible: every state row has a live node.
                roots.push(graph.id_of(sid).expect("every state row has a node"));
            }
            by_frame.push((frame, index_of[row]));
        }
        (roots, by_frame)
    }

    /// Builds the graph over a freshly restored table (module docs): one
    /// node per row, the derived principal states as roots, and each row,
    /// largest set first, attached under the roots of its own frames in
    /// root order. Frame sets are complete, so those are exactly the roots
    /// that contain the row; under any other root `attach` would make no
    /// edit.
    fn build_graph(&mut self) {
        for row in 0..self.table.len() {
            self.reach.graph.insert(self.table.sid(row));
        }
        let (roots, by_frame) = self.derived_roots();
        // Largest set first: a state's tighter containers are in place
        // before it, so `attach` descends to them instead of rewiring.
        let interner = &self.core.interner;
        let mut ordered: Vec<NodeId> = self.reach.graph.live_ids();
        ordered.sort_by_key(|&id| Reverse(interner.len_of(self.reach.graph.node(id).sid)));
        let mut under = Vec::new();
        for id in ordered {
            let frames = self.table.frames(self.row(id)).frames();
            under.extend(frames.filter_map(|frame| {
                let at = by_frame.binary_search_by_key(&frame, |&(f, _)| f).ok()?;
                Some(by_frame[at].1)
            }));
            under.sort_unstable();
            under.dedup();
            for index in under.drain(..) {
                self.reach.graph.attach(roots[index], id, interner, None);
            }
        }
        self.reach.roots = roots;
    }
}

impl Reach for Traversal {
    const NAMES: [&'static str; 2] = ["SSG", "SSG_O"];

    #[inline]
    fn walk(m: &mut SsgMaintainer, frame: FrameId, objects: &ObjectSet) {
        let clock = m.core.interner.clock();
        let frame_sid = m.core.interner.intern(objects);
        // The arriving frame is a key frame of its own set's state, the new
        // principal state (Rule 1).
        if !frame_sid.is_empty_set() && m.table.principal(&mut m.core, frame_sid, frame) {
            let graph = &mut m.reach.graph;
            let ns = graph
                .id_of(frame_sid)
                .unwrap_or_else(|| graph.insert(frame_sid));
            let at = Arrival {
                frame,
                sid: frame_sid,
                ns,
                fresh: m.core.interner.born_after(frame_sid, clock),
            };

            // State Traversal from every principal state in arrival order.
            // Traversing the new principal first extends its existing
            // descendants (they are all subsets of the arriving frame). The
            // root list is read in place after it: it changes only after the
            // traversal, and all roots are alive until then.
            m.reach.candidates_scratch.clear();
            for index in 0..=m.reach.roots.len() {
                let root = index.checked_sub(1).map_or(ns, |i| m.reach.roots[i]);
                m.st_visit(root, None, SetId::EMPTY, at);
                // Candidate for CNPS: the state holding this principal's
                // intersection with the new frame, which the visit above
                // recorded on the root (an empty one names no node). It may
                // be the root itself.
                let graph = &m.reach.graph;
                if let Some(candidate) = graph.id_of(graph.node(root).last_inter) {
                    m.reach.candidates_scratch.push(candidate);
                }
            }
            m.connect_new_principal(ns);
            if !m.reach.roots.contains(&ns) {
                m.reach.roots.push(ns);
            }
        }
        m.core.metrics.edges_added = m.reach.graph.edges_added;
        m.core.metrics.edges_removed = m.reach.graph.edges_removed;
    }

    /// The graph removes each dropped row's node as the table drops it,
    /// and the roots lose the removed nodes.
    #[inline]
    fn expire(m: &mut SsgMaintainer, oldest: FrameId) {
        let (reach, mut dropped) = (&mut m.reach, false);
        m.table.expire(oldest, &mut m.core, |sid, interner| {
            // infallible: every state row has a live node.
            let id = reach.graph.id_of(sid).expect("every state row has a node");
            reach.graph.remove(id, interner);
            dropped = true;
        });
        if dropped {
            reach.roots.retain(|&root| reach.graph.node(root).alive);
            // infallible: a valid state reaches a marked frame's principal
            // state through the states it was derived from.
            debug_assert_eq!(reach.graph.orphan(&reach.roots), None);
        }
    }

    fn remap(&mut self, table: &RemapTable) {
        self.graph.remap(table);
    }

    /// A state no principal state contains is corrupt data.
    fn rebuild(m: &mut SsgMaintainer) -> Result<()> {
        m.build_graph();
        let graph = &mut m.reach.graph;
        if let Some(id) = graph.orphan(&m.reach.roots) {
            return Err(Error::Corrupt(format!(
                "state for handle {} lies in no principal state",
                graph.node(id).sid.raw()
            )));
        }
        graph.edges_added = m.core.metrics.edges_added;
        graph.edges_removed = m.core.metrics.edges_removed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::CompactionPolicy;
    use crate::maintainer::StateMaintainer;
    use crate::metrics::MaintenanceMetrics;
    use crate::prune::{MinCardinalityPruner, SharedPruner};
    use crate::substrate::tests::{
        self as shared, blob, paper_frames, restore, set, sorted_states,
    };
    use std::sync::Arc;
    use tvq_common::{Decoder, Encoder, SetInterner, WindowSpec};

    impl SsgMaintainer {
        /// Number of principal states currently tracked.
        pub(crate) fn principal_states(&self) -> usize {
            self.reach.roots.len()
        }

        fn check_invariants(&self) {
            let interner = &self.core.interner;
            self.reach
                .graph
                .check_invariants(interner, &self.table, &self.reach.roots);
            self.table.assert_rows_point_back();
        }
    }

    /// SSG must produce exactly the satisfied MCOS of Table 1's EXP column.
    #[test]
    fn paper_example_results_match_table_1() {
        shared::paper_example_results_match_table_1::<Traversal>();
    }

    #[test]
    fn principal_states_track_window_frames() {
        let spec = WindowSpec::new(4, 3).unwrap();
        let mut m = SsgMaintainer::new(spec);
        let frames = paper_frames();
        for (i, frame) in frames.iter().enumerate() {
            m.advance(FrameId(i as u64), frame).unwrap();
        }
        // After frame 4 the graph holds the states of Table 2 (without {B});
        // the principal states are the distinct in-window frame object sets.
        assert!(m.principal_states() >= 4);
        let sets: Vec<ObjectSet> = m.states().map(|(s, _)| s).collect();
        assert!(sets.contains(&set(&[1, 2])));
        assert!(sets.contains(&set(&[1, 2, 4])));
        assert!(!sets.contains(&set(&[2])), "invalid {{B}} must be pruned");
    }

    #[test]
    fn matches_mfs_on_the_paper_example_for_all_durations() {
        for duration in 1..=4 {
            let spec = WindowSpec::new(4, duration).unwrap();
            let mut ssg = SsgMaintainer::new(spec);
            let mut mfs = crate::mfs::MfsMaintainer::new(spec);
            for (i, frame) in paper_frames().iter().enumerate() {
                ssg.advance(FrameId(i as u64), frame).unwrap();
                mfs.advance(FrameId(i as u64), frame).unwrap();
                assert_eq!(
                    ssg.results().object_sets(),
                    mfs.results().object_sets(),
                    "mismatch at frame {i} with duration {duration}"
                );
            }
        }
    }

    #[test]
    fn empty_frames_and_disjoint_objects() {
        shared::empty_frames_are_tolerated::<Traversal>();
    }

    #[test]
    fn termination_suppresses_hopeless_states() {
        let m = shared::termination_suppresses_hopeless_states::<Traversal>();
        assert_eq!(m.name(), "SSG_O");
    }

    #[test]
    fn rejects_out_of_order_frames() {
        shared::rejects_out_of_order_frames::<Traversal>();
    }

    #[test]
    fn repeated_identical_frames_stay_compact() {
        let spec = WindowSpec::new(10, 5).unwrap();
        let mut m = SsgMaintainer::new(spec);
        for i in 0..50u64 {
            m.advance(FrameId(i), &set(&[1, 2, 3])).unwrap();
        }
        // Only one state is ever needed.
        assert_eq!(m.live_states(), 1);
        assert_eq!(m.results().object_sets(), vec![set(&[1, 2, 3])]);
        assert_eq!(m.results().frames_of(&set(&[1, 2, 3])).unwrap().len(), 10);
    }

    /// The graph is not persisted: a restore rebuilds it from the table,
    /// and every compaction epoch re-keys it. A snapshot taken mid-way
    /// through a dense `w=60` film, restored into a fresh maintainer and run
    /// on across forced epochs, must stay equal to the uninterrupted run:
    /// results on every frame, the epochs, the final states and every
    /// counter the state table decides. The rebuilt edges differ from the
    /// uninterrupted ones, so the traversal's work counters (visits,
    /// intersections, edges added and removed) and the memo's may drift.
    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let [original, restored] = shared::snapshot_restore_resumes_bit_identically::<Traversal>();
        assert_eq!(restored.principal_states(), original.principal_states());
    }

    #[test]
    fn restore_then_compaction_epochs_match_the_uninterrupted_run() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        // Nine object slots, each present 70 % of the time; a slot's object
        // id changes every 40 frames (staggered), so sets churn and every
        // epoch retires some.
        let film: Vec<ObjectSet> = (0..360u32)
            .map(|i| {
                let present = (0..9u32).filter(|_| rng.gen_bool(0.7)).collect::<Vec<_>>();
                ObjectSet::from_raw(present.into_iter().map(|s| s * 100 + (i + s * 9) / 40))
            })
            .collect();
        let spec = WindowSpec::new(60, 20).unwrap();
        let policy = CompactionPolicy::every(30);
        let step = |m: &mut SsgMaintainer, i: usize| {
            m.advance(FrameId(i as u64), &film[i]).unwrap();
            (i + 1)
                .is_multiple_of(30)
                .then(|| m.maybe_compact(&policy))
                .flatten()
        };
        let mut original = SsgMaintainer::new(spec);
        for i in 0..150 {
            step(&mut original, i);
        }
        let mut enc = Encoder::new();
        original.snapshot_state(&mut enc).unwrap();
        let mut restored = SsgMaintainer::new(spec);
        restored
            .restore_state(&mut Decoder::new(enc.as_bytes()))
            .unwrap();
        restored.check_invariants();
        let mut epochs = 0;
        for i in 150..film.len() {
            let outcome = step(&mut original, i);
            assert_eq!(step(&mut restored, i), outcome, "epoch at frame {i}");
            if outcome.is_some() {
                // The rebuilt handle index holds exactly the live nodes.
                restored.check_invariants();
                epochs += 1;
            }
            assert_eq!(restored.results(), original.results(), "frame {i}");
        }
        assert!(epochs >= 2, "only {epochs} epochs after the restore");
        assert!(original.live_states() > 100 && !original.results().is_empty());
        assert_eq!(sorted_states(&restored), sorted_states(&original));
        let table_counters = |m: &SsgMaintainer| MaintenanceMetrics {
            states_visited: 0,
            intersections: 0,
            edges_added: 0,
            edges_removed: 0,
            ..m.metrics().without_cache_gauges()
        };
        assert_eq!(table_counters(&restored), table_counters(&original));
    }

    /// `attach` answers its subset tests by handle for nodes the frame
    /// visited and stops at siblings that already hold the new state (the
    /// debug build checks each answer against the bitmaps and each stop
    /// against reachability). Properties 1 and 2 must hold after every
    /// frame of a dense `w=60` film, and the results equal MFS's.
    #[test]
    fn dense_window_keeps_properties_1_and_2_on_every_frame() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let spec = WindowSpec::new(60, 20).unwrap();
        let mut ssg = SsgMaintainer::new(spec);
        let mut mfs = crate::mfs::MfsMaintainer::new(spec);
        for i in 0..240u32 {
            // Ten slots, each present 75 % of the time, each slot's object
            // replaced every 50 frames (staggered).
            let frame = ObjectSet::from_raw(
                (0..10u32)
                    .filter(|_| rng.gen_bool(0.75))
                    .map(|s| s * 100 + (i + s * 5) / 50),
            );
            ssg.advance(FrameId(u64::from(i)), &frame).unwrap();
            mfs.advance(FrameId(u64::from(i)), &frame).unwrap();
            ssg.check_invariants();
            assert_eq!(ssg.results(), mfs.results(), "frame {i}");
        }
        assert!(ssg.live_states() > 100 && !ssg.results().is_empty());
    }

    /// A frame whose object set this frame's `intern` created is in no memo
    /// entry, so its traversal neither probes the memo nor writes it; a
    /// frame set interned earlier still probes. The window outlasts the
    /// five-frame cycle, so a recurring frame's set still holds its row.
    /// Results equal MFS's.
    #[test]
    fn fresh_frames_skip_the_memo() {
        let spec = WindowSpec::new(6, 2).unwrap();
        let mut ssg = SsgMaintainer::new(spec);
        let mut mfs = crate::mfs::MfsMaintainer::new(spec);
        let probes =
            |m: &SsgMaintainer| m.core.interner.memo_hits() + m.core.interner.memo_misses();
        let (mut fresh_frames, mut recurring_frames) = (0, 0);
        for (i, frame) in paper_frames().iter().cycle().take(12).enumerate() {
            let (fresh, before) = (ssg.core.interner.get(frame).is_none(), probes(&ssg));
            ssg.advance(FrameId(i as u64), frame).unwrap();
            mfs.advance(FrameId(i as u64), frame).unwrap();
            assert_eq!(ssg.results(), mfs.results(), "frame {i}");
            if fresh {
                assert_eq!(probes(&ssg), before, "fresh frame {i} probed the memo");
                fresh_frames += 1;
            } else {
                assert!(
                    probes(&ssg) > before,
                    "recurring frame {i} skipped the memo"
                );
                recurring_frames += 1;
            }
        }
        assert_eq!((fresh_frames, recurring_frames), (5, 7));
    }

    /// Most frames drop a few objects from a stable scene, so they are
    /// proper subsets of live states: the `inter == F` branch runs on most
    /// frames and states are re-derived from several parents. Properties 1
    /// and 2 hold after every frame and the results equal MFS's; the debug
    /// build also checks that no walk edits a child list it is reading.
    #[test]
    fn subset_frames_keep_properties_1_and_2_on_every_frame() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let spec = WindowSpec::new(60, 20).unwrap();
        let mut ssg = SsgMaintainer::new(spec);
        let mut mfs = crate::mfs::MfsMaintainer::new(spec);
        let (mut subset_frames, mut shared_states) = (0, 0);
        for i in 0..300u32 {
            // Twelve slots, each slot's object replaced every 240 frames
            // (staggered by 20). A quarter of the frames show the whole
            // scene; the rest drop one to three of its objects.
            let mut objects: Vec<u32> = (0..12u32).map(|s| s * 100 + (i + s * 20) / 240).collect();
            if rng.gen_bool(0.75) {
                for _ in 0..rng.gen_range(1..=3) {
                    objects.swap_remove(rng.gen_range(0..objects.len()));
                }
            }
            let frame = ObjectSet::from_raw(objects);
            if ssg.states().any(|(set, _)| frame.is_proper_subset_of(&set)) {
                subset_frames += 1;
            }
            ssg.advance(FrameId(u64::from(i)), &frame).unwrap();
            mfs.advance(FrameId(u64::from(i)), &frame).unwrap();
            ssg.check_invariants();
            assert_eq!(ssg.results(), mfs.results(), "frame {i}");
            shared_states += ssg
                .reach
                .graph
                .live_ids()
                .into_iter()
                .filter(|&id| ssg.reach.graph.node(id).parents.len() > 1)
                .count();
        }
        assert!(subset_frames > 150, "only {subset_frames} subset frames");
        assert!(shared_states > 0 && !ssg.results().is_empty());
    }

    /// A maintainer that already advanced refuses to restore, and
    /// malformed bytes are corrupt.
    #[test]
    fn restore_rejects_used_maintainers_and_dangling_roots() {
        shared::restore_rejects_used_maintainers_and_dangling_handles::<Traversal>();
    }

    /// A mid-epoch snapshot brings back the rows in row order, their
    /// class counts and their intersections, by content.
    #[test]
    fn restore_reproduces_rows_counts_and_intersections() {
        shared::restore_reproduces_rows_counts_and_intersections::<Traversal>();
    }

    /// The roots a restore derives from the table are exactly the distinct
    /// object sets of the in-window frames that hold a row. The live path
    /// keeps a principal state as a root while its row lives, so it may
    /// also hold roots whose frames all left the window: each such stale
    /// root equals no in-window frame's set.
    #[test]
    fn derived_roots_are_the_in_window_frame_sets() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::{BTreeSet, VecDeque};
        let spec = WindowSpec::new(60, 20).unwrap();
        for min_objects in [None, Some(3)] {
            let mut rng = StdRng::seed_from_u64(7);
            let pruner = min_objects.map(|min_objects| -> SharedPruner {
                Arc::new(MinCardinalityPruner { min_objects })
            });
            let mut m = SsgMaintainer::with_options(spec, SetInterner::new(), pruner);
            let mut window = VecDeque::new();
            let mut stale = 0;
            for i in 0..300u32 {
                let frame = ObjectSet::from_raw(
                    (0..10u32)
                        .filter(|_| rng.gen_bool(0.7))
                        .map(|s| s * 100 + (i + s * 5) / 50),
                );
                m.advance(FrameId(u64::from(i)), &frame).unwrap();
                window.push_back(frame);
                if window.len() > spec.window() {
                    window.pop_front();
                }
                let interner = &m.core.interner;
                let resolve = |ids: &[NodeId]| -> BTreeSet<ObjectSet> {
                    let sets = ids
                        .iter()
                        .map(|&id| interner.resolve(m.reach.graph.node(id).sid));
                    sets.collect()
                };
                let (derived, _) = m.derived_roots();
                assert_eq!(resolve(&derived).len(), derived.len(), "distinct roots");
                let held: BTreeSet<ObjectSet> = window
                    .iter()
                    .filter(|set| {
                        interner
                            .get(set)
                            .and_then(|sid| m.table.row_of(sid))
                            .is_some()
                    })
                    .cloned()
                    .collect();
                assert_eq!(resolve(&derived), held, "{min_objects:?}, frame {i}");
                let live = resolve(&m.reach.roots);
                assert!(live.is_superset(&held), "{min_objects:?}, frame {i}");
                for root in live.difference(&held) {
                    assert!(!window.contains(root), "{min_objects:?}, frame {i}");
                    stale += 1;
                }
            }
            assert!(stale > 0, "{min_objects:?}: no stale root");
        }
    }

    /// A restore attaches each row only under the roots of its own frames.
    /// On random films at w=60, with the pruner off and on, the graph that
    /// rule builds from a snapshot every 25 frames equals the one built by
    /// attaching every row under every root: the same children and parents
    /// per node, compared by object set, and the same edge churn.
    #[test]
    fn rebuild_under_own_frames_roots_equals_every_root() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::{BTreeMap, BTreeSet};
        type Edges = BTreeMap<ObjectSet, [BTreeSet<ObjectSet>; 2]>;
        let built = |m: &SsgMaintainer| -> (Edges, u64, u64) {
            let graph = &m.reach.graph;
            let set_of = |&id: &NodeId| m.core.interner.resolve(graph.node(id).sid);
            let edges = graph.live_ids().into_iter().map(|id| {
                let node = graph.node(id);
                let sets = |ids: &[NodeId]| ids.iter().map(set_of).collect();
                (set_of(&id), [sets(&node.children), sets(&node.parents)])
            });
            (edges.collect(), graph.edges_added, graph.edges_removed)
        };
        let spec = WindowSpec::new(60, 20).unwrap();
        for min_objects in [None, Some(3)] {
            let mut rng = StdRng::seed_from_u64(13);
            let pruner = min_objects.map(|min_objects| -> SharedPruner {
                Arc::new(MinCardinalityPruner { min_objects })
            });
            let build = || SsgMaintainer::with_options(spec, SetInterner::new(), pruner.clone());
            let mut m = build();
            for i in 0..300u32 {
                // Ten slots, each present 75 % of the time, each slot's
                // object replaced every 50 frames (staggered).
                let frame = ObjectSet::from_raw(
                    (0..10u32)
                        .filter(|_| rng.gen_bool(0.75))
                        .map(|s| s * 100 + (i + s * 5) / 50),
                );
                m.advance(FrameId(u64::from(i)), &frame).unwrap();
                if (i + 1) % 25 != 0 {
                    continue;
                }
                let mut enc = Encoder::new();
                m.snapshot_state(&mut enc).unwrap();
                let mut r = build();
                r.restore_state(&mut Decoder::new(enc.as_bytes())).unwrap();
                let restored = built(&r).0;
                // The rule a restore runs, on an empty graph.
                r.reach = Traversal::default();
                r.build_graph();
                let narrowed = built(&r);
                // The reference: every row under every root.
                r.reach = Traversal::default();
                for row in 0..r.table.len() {
                    r.reach.graph.insert(r.table.sid(row));
                }
                let (roots, _) = r.derived_roots();
                let (graph, interner) = (&mut r.reach.graph, &r.core.interner);
                let mut ordered = graph.live_ids();
                ordered.sort_by_key(|&id| Reverse(interner.len_of(graph.node(id).sid)));
                for id in ordered {
                    for &root in &roots {
                        graph.attach(root, id, interner, None);
                    }
                }
                assert_eq!(narrowed, built(&r), "{min_objects:?}, frame {i}");
                assert_eq!(restored, narrowed.0, "{min_objects:?}, frame {i}");
            }
            assert!(m.live_states() > 100, "{min_objects:?}");
        }
    }

    /// A restored state that no principal state contains is corrupt: frame
    /// 0's largest marking row, {3,4,5}, is its principal state, and {1,2}
    /// lies in none. MFS keeps no graph and restores the same bytes.
    #[test]
    fn restore_rejects_a_state_no_principal_state_contains() {
        let spec = WindowSpec::new(4, 2).unwrap();
        let bytes = blob(
            Some(0),
            3,
            &[],
            &[(&[1, 2], &[(0, true)]), (&[3, 4, 5], &[(0, true)])],
        );
        let err = restore::<Traversal>(spec, &bytes).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
        assert!(restore::<crate::mfs::Sweep>(spec, &bytes).is_ok());
    }

    #[test]
    fn long_run_prunes_expired_states() {
        // Disjoint bursts: states from old bursts disappear once their key
        // frames leave the window, though no frame reaches them again.
        let spec = WindowSpec::new(5, 2).unwrap();
        let mut m = SsgMaintainer::new(spec);
        for i in 0..100u64 {
            let objects = set(&[(i / 10) as u32 * 2, (i / 10) as u32 * 2 + 1]);
            m.advance(FrameId(i), &objects).unwrap();
        }
        assert!(
            m.live_states() <= 3,
            "stale states retained: {}",
            m.live_states()
        );
    }
}
