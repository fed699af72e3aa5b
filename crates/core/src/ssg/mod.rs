//! The Strict State Graph (SSG) approach with State Traversal (Section 4.3).
//!
//! SSG organises the states of the current window in a directed graph whose
//! roots are the *principal states* — states whose object set equals the
//! object set of some in-window frame. Every other state is generated from
//! principal states by intersection, directly or transitively, so processing
//! a new frame only requires traversing the graph from the principal states
//! and *stopping as soon as an intersection becomes empty*: whole subtrees of
//! states that share nothing with the arriving frame are skipped. (On dense
//! windows that rarely happens — the traversal visits nearly every live
//! state, and at w=60, the benchmark's window, MFS is faster on every film
//! (README). At w=300 SSG makes 21–40 % of MFS's visits and is still
//! 1.04–1.88× slower on the video profiles: ROADMAP item 4.)
//!
//! The implementation follows the paper's procedures:
//!
//! * **Graph Maintenance Procedure / Algorithm 1 (ST)** — [`SsgMaintainer`]
//!   traverses from each principal state, appends the arriving frame to
//!   states fully contained in it, materialises missing intersection states,
//!   and skips subtrees with empty intersections.
//! * **Modifying Existing Edges (4.3.4) and Property 2** — performed by
//!   `StateGraph::attach`.
//! * **Connecting the New Principal State / Algorithm 2 (CNPS)** — candidates
//!   (one per principal state) are sorted by object-set size and connected to
//!   the new principal unless already reachable.
//! * **State Marking Procedure (4.3.6)** — the state table's calls, as in
//!   MFS: marks come from two sound sources, the arriving frame as a key
//!   frame of its own principal state (`principal`, Rule 1) and a parent's
//!   marks passed to a state derived from it (`derive` for a new state,
//!   `merge_from` for one that exists, Rule 2). A principal state's
//!   creation frames reach the states derived from it the same way, as its
//!   row holds them as key frames. Both preserve the *suffix-intersection
//!   invariant*: a frame `f` is only marked in state `X` when the
//!   intersection of the object sets of all of `X`'s frames from `f` onward
//!   equals `X`, so as long as one marked frame survives in the window the
//!   state is guaranteed to still be an MCOS (Theorem 4).
//!
//! Two deliberate deviations from the paper's pseudocode: (1) when an
//! already-materialised state is re-derived from a second parent, its frame
//! set is merged with the parent's, so frame sets stay complete (the union
//! of all window frames containing the object set) whichever parent found
//! the state first; (2) invalid states are dropped before the traversal,
//! and each removal reconnects the node's parents to its children, so no
//! descendant is cut off from the node's surviving ancestors.
//!
//! **The graph is an index over MFS's state table.** The states themselves
//! — object-set handles, marked frame sets, Rule 2, expiry and result
//! collection — are the rows of the `substrate::StateTable` MFS also runs
//! on; a node finds its row by handle. At the start of each frame the table
//! expires every row and drops those left with no marked frame, and the
//! graph removes each one's node as the table drops it, in row order (a
//! removal re-attaches the node's children under its parents, so the order
//! moves the work counters, not which rows a frame reaches: see below).
//! Every node the traversal reaches is therefore valid and holds in-window
//! frames only, and no valid node is left without a path from a principal
//! state (a debug build checks this after each frame's drops). What SSG adds
//! is the walk, which decides which rows a frame reaches.
//!
//! **A snapshot holds the states, not the graph**: it is MFS's snapshot,
//! the interned sets in handle order, each with its state-table row,
//! between the cursor and the metrics. The table names the principal
//! states: for each in-window frame, the largest row that marks it is the
//! frame's own object set. A restore inserts one node per row, takes those
//! rows as the principal states, ordered by their earliest such frame, and
//! attaches each row, largest set first, under every principal state that
//! strictly contains it (a principal state too, as the traversal and CNPS
//! do), through `attach`, so the rebuilt graph holds Properties 1 and 2 and
//! reaches every state by construction. The live path keeps a principal
//! state as a root while its row lives, also once its frames have left the
//! window, so a restore may start with fewer roots. Which rows a frame
//! reaches, and so every state and result, does not depend on the roots or
//! edges: a row is reached when it meets the frame, along any path of
//! supersets. The traversal's work counters (`states_visited`,
//! `intersections`, `edges_*`) do, and may drift after a restore.
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

use tvq_common::{
    Decoder, Encoder, Error, FrameId, FxHashSet, MarkedFrameSet, ObjectSet, Result, SetId,
    SetInterner, WindowSpec,
};

use crate::compaction::{CompactionOutcome, CompactionPolicy};
use crate::maintainer::StateMaintainer;
use crate::metrics::MaintenanceMetrics;
use crate::prune::SharedPruner;
use crate::result_set::ResultStateSet;
use crate::substrate::{StateTable, Substrate};

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

/// The Strict State Graph state maintainer.
///
/// The graph's handle index, the termination cache and every traversal
/// comparison operate on interned [`SetId`] handles. Each visit intersects
/// its state with the arriving frame once; on dense feeds that is nearly
/// always a real word-parallel AND (most frames there bring a new set, which
/// skips the memo), though rarely a content-index probe. Every per-node
/// step runs at most once per frame — see the module docs.
pub struct SsgMaintainer {
    core: Substrate,
    /// The states, one row per graph node.
    table: StateTable,
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

impl std::fmt::Debug for SsgMaintainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsgMaintainer")
            .field("spec", &self.core.spec)
            .field("live_states", &self.table.len())
            .field("principal_states", &self.roots.len())
            .finish()
    }
}

impl SsgMaintainer {
    /// Creates an SSG maintainer for the given window specification, with a
    /// private interner (no class source) and no pruner.
    pub fn new(spec: WindowSpec) -> Self {
        SsgMaintainer::with_options(spec, SetInterner::new(), None)
    }

    /// Creates an SSG maintainer around a caller-provided interner (the
    /// engine wires one per feed, sharing its object → class map) and an
    /// optional pruner — with one this is the `SSG_O` variant of Section 5.3.
    pub fn with_options(
        spec: WindowSpec,
        interner: SetInterner,
        pruner: Option<SharedPruner>,
    ) -> Self {
        SsgMaintainer {
            core: Substrate::new(spec, interner, pruner),
            table: StateTable::default(),
            graph: StateGraph::new(),
            roots: Vec::new(),
            candidates_scratch: Vec::new(),
            cnps_reachable: FxHashSet::default(),
            cnps_stack: Vec::new(),
        }
    }

    /// Number of principal states currently tracked.
    pub fn principal_states(&self) -> usize {
        self.roots.len()
    }

    /// Exposes the live states (object set → marked frame set) for tests.
    pub fn states(&self) -> impl Iterator<Item = (ObjectSet, &MarkedFrameSet)> {
        self.table.states(&self.core.interner)
    }

    /// The state row of the live node `id`.
    fn row(&self, id: NodeId) -> usize {
        self.table
            .row_of(self.graph.node(id).sid)
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
        let node = self.graph.node(parent);
        // infallible: the caller is `parent`'s visit, which stamped both.
        debug_assert_eq!((sid, node.visited), (node.last_inter, at.frame.raw()));
        // infallible: a visit calls this only for an `inter` that is not
        // empty, its own set or the frame's.
        debug_assert!(![SetId::EMPTY, node.sid, at.sid].contains(&sid));
        if self.core.is_terminated(sid) {
            return;
        }
        let parent_row = self.row(parent);
        let id = match self.graph.id_of(sid) {
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
                self.graph.insert(sid)
            }
        };
        let edges = (self.graph.edges_added, self.graph.edges_removed);
        if !held || cfg!(debug_assertions) {
            let frame = Some(at.frame.raw());
            self.graph.attach(parent, id, &self.core.interner, frame);
        }
        // infallible: a held attach is a no-op (see above).
        debug_assert!(!held || edges == (self.graph.edges_added, self.graph.edges_removed));
    }

    /// State Traversal (Algorithm 1), visiting `node` with `p_inter` being the
    /// intersection of the parent state with the arriving frame.
    fn st_visit(&mut self, node: NodeId, parent: Option<NodeId>, p_inter: SetId, at: Arrival) {
        let state = self.graph.node_mut(node);
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
        self.graph.node_mut(node).last_inter = inter;

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
            self.graph
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
        let count = self.graph.node(node).children.len();
        let mut held = false;
        for index in 0..count {
            // infallible: module docs, "The walk reads child lists in place".
            debug_assert_eq!(self.graph.node(node).children.len(), count);
            let child = self.graph.node(node).children[index];
            self.st_visit(child, Some(node), inter, at);
            held |= self.graph.node(child).last_inter == inter;
        }
        held
    }

    /// CNPS (Algorithm 2): connect the new principal state to the candidate
    /// states derived from each principal, largest object set first, skipping
    /// candidates already reachable from the new principal.
    fn connect_new_principal(&mut self, ns: NodeId) {
        let mut ordered = std::mem::take(&mut self.candidates_scratch);
        ordered.sort_by_key(|&id| Reverse(self.core.interner.len_of(self.graph.node(id).sid)));
        ordered.dedup();
        self.cnps_reachable.clear();
        for &candidate in &ordered {
            if candidate == ns || self.cnps_reachable.contains(&candidate) {
                continue;
            }
            self.graph.attach(ns, candidate, &self.core.interner, None);
            // Incremental DFS: regions already known to be reachable are not
            // re-traversed, so the whole CNPS pass is bounded by the size of
            // the subgraph below the new principal.
            self.cnps_stack.clear();
            self.cnps_stack.push(candidate);
            self.cnps_reachable.insert(candidate);
            while let Some(id) = self.cnps_stack.pop() {
                for &child in &self.graph.node(id).children {
                    if self.cnps_reachable.insert(child) {
                        self.cnps_stack.push(child);
                    }
                }
            }
        }
        ordered.clear();
        self.candidates_scratch = ordered;
    }

    /// The start of a frame: the table drops every row left with no marked
    /// frame, the graph removes each one's node as the table drops it, and
    /// the roots lose the removed nodes.
    fn expire(&mut self, oldest: FrameId) {
        let (graph, mut dropped) = (&mut self.graph, false);
        self.table.expire(oldest, &mut self.core, |sid, interner| {
            // infallible: every state row has a live node.
            let id = graph.id_of(sid).expect("every state row has a node");
            graph.remove(id, interner);
            dropped = true;
        });
        if dropped {
            self.roots.retain(|&root| self.graph.node(root).alive);
            // infallible: a valid state reaches a marked frame's principal
            // state through the states it was derived from.
            debug_assert_eq!(self.graph.orphan(&self.roots), None);
        }
    }

    /// The principal states the table names: for each in-window frame, the
    /// largest row that marks it, which is the frame's own object set (a
    /// row marks only frames that contain it, and Rule 1 marks the frame in
    /// its own set's row). Ordered by their earliest such frame.
    fn derived_roots(&self) -> Vec<NodeId> {
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
        let (mut taken, mut roots) = (vec![false; self.table.len()], Vec::new());
        for (_, _, row) in marks {
            if !std::mem::replace(&mut taken[row], true) {
                let sid = self.table.sid(row);
                // infallible: every state row has a live node.
                roots.push(self.graph.id_of(sid).expect("every state row has a node"));
            }
        }
        roots
    }
}

impl StateMaintainer for SsgMaintainer {
    fn advance(&mut self, frame: FrameId, objects: &ObjectSet) -> Result<()> {
        let oldest = self.core.begin_frame(frame)?;
        self.expire(oldest);

        let clock = self.core.interner.clock();
        let frame_sid = self.core.interner.intern(objects);
        // The arriving frame is a key frame of its own set's state, the new
        // principal state (Rule 1).
        if !frame_sid.is_empty_set() && self.table.principal(&mut self.core, frame_sid, frame) {
            let ns = self
                .graph
                .id_of(frame_sid)
                .unwrap_or_else(|| self.graph.insert(frame_sid));
            let at = Arrival {
                frame,
                sid: frame_sid,
                ns,
                fresh: self.core.interner.born_after(frame_sid, clock),
            };

            // State Traversal from every principal state in arrival order.
            // Traversing the new principal first extends its existing
            // descendants (they are all subsets of the arriving frame). The
            // root list is read in place after it: it changes only after the
            // traversal, and all roots are alive until then.
            self.candidates_scratch.clear();
            for index in 0..=self.roots.len() {
                let root = index.checked_sub(1).map_or(ns, |i| self.roots[i]);
                self.st_visit(root, None, SetId::EMPTY, at);
                // Candidate for CNPS: the state holding this principal's
                // intersection with the new frame, which the visit above
                // recorded on the root (an empty one names no node). It may
                // be the root itself.
                if let Some(candidate) = self.graph.id_of(self.graph.node(root).last_inter) {
                    self.candidates_scratch.push(candidate);
                }
            }
            self.connect_new_principal(ns);
            if !self.roots.contains(&ns) {
                self.roots.push(ns);
            }
        }

        self.core.metrics.edges_added = self.graph.edges_added;
        self.core.metrics.edges_removed = self.graph.edges_removed;
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
            "SSG_O"
        } else {
            "SSG"
        }
    }

    fn maybe_compact(&mut self, policy: &CompactionPolicy) -> Option<CompactionOutcome> {
        let (table, outcome) = self
            .core
            .compact(policy, self.table.len(), || self.table.live())?;
        self.table.remap(&table);
        self.graph.remap(&table);
        Some(outcome)
    }

    fn pruner_changed(&mut self) {
        self.core.pruner_changed();
    }

    fn snapshot_state(&self, enc: &mut Encoder) -> Result<()> {
        self.table.snapshot(&self.core, enc);
        Ok(())
    }

    /// Reads the table, derives the principal states from it, then
    /// rebuilds the graph over them (module docs). A state no principal
    /// state contains is corrupt data.
    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        self.table = StateTable::restore(&mut self.core, dec)?;
        for row in 0..self.table.len() {
            self.graph.insert(self.table.sid(row));
        }
        self.roots = self.derived_roots();
        // Largest set first: a state's tighter containers are in place
        // before it, so `attach` descends to them instead of rewiring.
        let interner = &self.core.interner;
        let mut ordered: Vec<NodeId> = self.graph.live_ids();
        ordered.sort_by_key(|&id| Reverse(interner.len_of(self.graph.node(id).sid)));
        for id in ordered {
            for &root in &self.roots {
                self.graph.attach(root, id, interner, None);
            }
        }
        if let Some(id) = self.graph.orphan(&self.roots) {
            return Err(Error::Corrupt(format!(
                "state for handle {} lies in no principal state",
                self.graph.node(id).sid.raw()
            )));
        }
        self.graph.edges_added = self.core.metrics.edges_added;
        self.graph.edges_removed = self.core.metrics.edges_removed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prune::MinCardinalityPruner;
    use std::sync::Arc;

    /// The states in object-set order (a restore lays rows out in handle
    /// order).
    fn sorted_states(m: &SsgMaintainer) -> Vec<(ObjectSet, MarkedFrameSet)> {
        let mut states: Vec<_> = m.states().map(|(set, f)| (set, f.clone())).collect();
        states.sort_by(|a, b| a.0.cmp(&b.0));
        states
    }

    impl SsgMaintainer {
        pub(crate) fn interner(&self) -> &SetInterner {
            &self.core.interner
        }

        fn check_invariants(&self) {
            let interner = &self.core.interner;
            self.graph
                .check_invariants(interner, &self.table, &self.roots);
            self.table.assert_rows_point_back();
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

    /// SSG must produce exactly the satisfied MCOS of Table 1's EXP column.
    #[test]
    fn paper_example_results_match_table_1() {
        let spec = WindowSpec::new(4, 3).unwrap();
        let mut m = SsgMaintainer::new(spec);
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
        // The reported frame set covers all frames where {A,B} co-occur.
        assert_eq!(
            m.results().frames_of(&set(&[1, 2])).unwrap(),
            &[FrameId(1), FrameId(2), FrameId(3), FrameId(4)]
        );
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
        let spec = WindowSpec::new(3, 1).unwrap();
        let mut m = SsgMaintainer::new(spec);
        m.advance(FrameId(0), &ObjectSet::empty()).unwrap();
        m.advance(FrameId(1), &set(&[1, 2])).unwrap();
        m.advance(FrameId(2), &set(&[7, 8])).unwrap();
        assert!(m.results().contains(&set(&[1, 2])));
        assert!(m.results().contains(&set(&[7, 8])));
        m.advance(FrameId(3), &set(&[7, 8])).unwrap();
        m.advance(FrameId(4), &set(&[7, 8])).unwrap();
        // {1,2} has left the window.
        assert!(!m.results().contains(&set(&[1, 2])));
        assert_eq!(
            m.results().frames_of(&set(&[7, 8])).unwrap(),
            &[FrameId(2), FrameId(3), FrameId(4)]
        );
    }

    #[test]
    fn termination_suppresses_hopeless_states() {
        let spec = WindowSpec::new(4, 1).unwrap();
        let pruner = Arc::new(MinCardinalityPruner { min_objects: 2 });
        let mut m = SsgMaintainer::with_options(spec, SetInterner::new(), Some(pruner));
        m.advance(FrameId(0), &set(&[1, 2])).unwrap();
        m.advance(FrameId(1), &set(&[2, 3])).unwrap();
        // {2} = {1,2} ∩ {2,3} is hopeless and never materialised.
        assert!(!m.results().contains(&set(&[2])));
        assert!(m.results().contains(&set(&[1, 2])));
        assert!(m.results().contains(&set(&[2, 3])));
        assert_eq!(m.metrics().states_terminated, 1);
        assert_eq!(m.name(), "SSG_O");
    }

    #[test]
    fn rejects_out_of_order_frames() {
        let spec = WindowSpec::new(4, 1).unwrap();
        let mut m = SsgMaintainer::new(spec);
        m.advance(FrameId(1), &set(&[1])).unwrap();
        assert!(m.advance(FrameId(1), &set(&[1])).is_err());
        assert!(m.advance(FrameId(0), &set(&[1])).is_err());
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

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let spec = WindowSpec::new(4, 2).unwrap();
        let mut original = SsgMaintainer::new(spec);
        let patterns = paper_frames();
        for (i, frame) in patterns.iter().cycle().take(9).enumerate() {
            original.advance(FrameId(i as u64), frame).unwrap();
        }

        let mut enc = Encoder::new();
        original.snapshot_state(&mut enc).unwrap();
        let bytes = enc.into_bytes();
        let mut restored = SsgMaintainer::new(spec);
        let mut dec = Decoder::new(&bytes);
        restored.restore_state(&mut dec).unwrap();
        dec.finish().unwrap();

        assert_eq!(restored.live_states(), original.live_states());
        assert_eq!(restored.principal_states(), original.principal_states());
        assert_eq!(sorted_states(&restored), sorted_states(&original));
        assert_eq!(restored.metrics(), original.metrics());
        for (i, frame) in patterns.iter().cycle().take(25).enumerate().skip(9) {
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

    /// The graph is not persisted: a restore rebuilds it from the table,
    /// and every compaction epoch re-keys it. A snapshot taken mid-way
    /// through a dense `w=60` film, restored into a fresh maintainer and run
    /// on across forced epochs, must stay equal to the uninterrupted run:
    /// results on every frame, the epochs, the final states and every
    /// counter the state table decides. The rebuilt edges differ from the
    /// uninterrupted ones, so the traversal's work counters (visits,
    /// intersections, edges added and removed) and the memo's may drift.
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
                .graph
                .live_ids()
                .into_iter()
                .filter(|&id| ssg.graph.node(id).parents.len() > 1)
                .count();
        }
        assert!(subset_frames > 150, "only {subset_frames} subset frames");
        assert!(shared_states > 0 && !ssg.results().is_empty());
    }

    /// The roots a restore derives name no state when no row carries a
    /// marked frame, so every state dangles from no principal state.
    #[test]
    fn restore_rejects_used_maintainers_and_dangling_roots() {
        let spec = WindowSpec::new(4, 2).unwrap();
        let mut original = SsgMaintainer::new(spec);
        for (i, frame) in paper_frames().iter().enumerate() {
            original.advance(FrameId(i as u64), frame).unwrap();
        }
        let mut enc = Encoder::new();
        original.snapshot_state(&mut enc).unwrap();
        let bytes = enc.into_bytes();
        let restore =
            |bytes: &[u8]| SsgMaintainer::new(spec).restore_state(&mut Decoder::new(bytes));
        restore(&bytes).unwrap();

        // A maintainer that already advanced refuses to restore.
        let mut used = SsgMaintainer::new(spec);
        used.advance(FrameId(0), &set(&[9])).unwrap();
        assert!(used.restore_state(&mut Decoder::new(&bytes)).is_err());

        // The same rows with every mark cleared.
        let mut unmarked = StateTable::default();
        for row in 0..original.table.len() {
            let frames = original.table.frames(row).frames().map(|f| (f, false));
            let sid = original.table.sid(row);
            unmarked.push(sid, frames.collect(), &original.core.interner);
        }
        assert!(unmarked.len() >= 3);
        let mut enc = Encoder::new();
        unmarked.snapshot(&original.core, &mut enc);
        let err = restore(enc.as_bytes()).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    /// A mid-epoch snapshot brings back the arena's handles, counts and
    /// intersections (`substrate::tests`).
    #[test]
    fn restore_reproduces_handles_counts_and_intersections() {
        let spec = WindowSpec::new(12, 3).unwrap();
        crate::substrate::tests::restore_reproduces_the_arena(
            |interner| SsgMaintainer::with_options(spec, interner, None),
            |m| &mut m.core.interner,
        );
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
                    let sets = ids.iter().map(|&id| interner.resolve(m.graph.node(id).sid));
                    sets.collect()
                };
                let derived = m.derived_roots();
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
                let live = resolve(&m.roots);
                assert!(live.is_superset(&held), "{min_objects:?}, frame {i}");
                for root in live.difference(&held) {
                    assert!(!window.contains(root), "{min_objects:?}, frame {i}");
                    stale += 1;
                }
            }
            assert!(stale > 0, "{min_objects:?}: no stale root");
        }
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
