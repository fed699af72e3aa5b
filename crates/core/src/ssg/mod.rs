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
//! state, and MFS is faster on every film we run; see README.)
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
//! * **State Marking Procedure (4.3.6)** — marks are produced from two sound
//!   sources: frames whose own object set pins a state down (principal-state
//!   creation frames whose intersection with the arriving frame equals the
//!   state), and marks inherited from parent states when a state is derived
//!   from them. Both preserve the *suffix-intersection invariant*: a frame
//!   `f` is only marked in state `X` when the intersection of the object sets
//!   of all of `X`'s frames from `f` onward equals `X`, so as long as one
//!   marked frame survives in the window the state is guaranteed to still be
//!   an MCOS (Theorem 4). When every marked frame has expired the state is
//!   pruned.
//!
//! Two deliberate deviations from the paper's pseudocode: (1) when an
//! already-materialised state is re-derived from a second parent, its frame
//! set is merged with the parent's, so frame sets stay complete (the union
//! of all window frames containing the object set) whichever parent found
//! the state first; (2) invalid nodes are removed after the traversal, and
//! each removal reconnects the node's parents to its children, so no
//! descendant is cut off from the node's surviving ancestors.
//!
//! **Window expiry** reaches a node when a frame first does: on the
//! traversal's visit, or when `ensure_state` touches a node the traversal
//! has not visited, and always before a frame is pushed, merged or marked
//! there. Every frame set the traversal reads or writes therefore holds
//! in-window frames only — a merge never copies an expired frame — and a
//! set's span, which is what its storage grows with, stays within one
//! window however far the frame ids jump. A node no frame reaches keeps its
//! stale frames until it is next reached, revalidated as a previous result,
//! or swept (once per window of frames).
//!
//! **Each step runs once per frame.** A node is visited at most once (its
//! `visited` stamp) and has the frame appended at most once (`touched`).
//! Its intersection is materialised where lines 25-29 of Algorithm 1 put
//! it: by its own visit, after its subtree, when it is a proper new set.
//! (Lines 5-16 would make the same `(parent, set)` call earlier, from a
//! child's visit; it is not made.) The `ensured` stamp lets `attach` stop
//! at a sibling that already holds the new state. The touched nodes are a
//! bitset over slab slots, read out in ascending slot order.
//!
//! **The walk reads child lists in place.** No edit inside a node's subtree
//! reaches the list of a node on the walk stack: `attach(p, …)` edits only
//! lists at or below `p`, where `p` is the node being visited (its
//! `F ⊊ node` attach runs before its walk, its `ensure_state` after) or lies
//! below it, and every node further up is a proper superset. `insert`
//! never moves a slot; removal and CNPS run after the traversal.
//!
//! **The traversal reuses what its stamps already say.** A visit passes
//! the parent's intersection (a superset of its own) and its previous one
//! to the interner, which then rarely probes the content index. Siblings
//! have ended their visits when their parent materialises its
//! intersection, so `attach` answers for them from their `last_inter`. A
//! frame set interned by this frame's own `intern` is in no memo entry, so
//! its visits call `intersect_uncached` and leave the memo alone.

mod graph;

use tvq_common::{
    Decoder, Encoder, Error, FrameId, FxHashSet, MarkedFrameSet, ObjectSet, Result, SetId,
    SetInterner, WindowSpec,
};

use crate::compaction::{CompactionOutcome, CompactionPolicy};
use crate::maintainer::StateMaintainer;
use crate::metrics::MaintenanceMetrics;
use crate::prune::SharedPruner;
use crate::result_set::ResultStateSet;
use crate::substrate::Substrate;

use graph::{NodeId, StateGraph};

/// The arriving frame as State Traversal sees it.
#[derive(Clone, Copy)]
struct Arrival {
    frame: FrameId,
    /// The frame's interned object set.
    sid: SetId,
    /// The new principal state: the node holding `sid`.
    ns: NodeId,
    oldest: FrameId,
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
    graph: StateGraph,
    /// Principal states in their order of arrival (kept while alive).
    roots: Vec<NodeId>,
    /// Handles of the states reported in the results (revalidated first on
    /// the next frame — the `SR'_i` part of `SR_{i'} = SR'_i ∪ SR_{G'}`).
    prev_results: Vec<SetId>,
    frames_since_sweep: usize,
    /// The slab slots this frame touched, one bit each.
    touched: Vec<u64>,
    /// Pooled per-frame buffers (touched read-out, CNPS candidates, CNPS
    /// reachability set + DFS stack): cleared and reused so the
    /// steady-state advance loop performs no transient allocations.
    touched_scratch: Vec<NodeId>,
    candidates_scratch: Vec<NodeId>,
    cnps_reachable: FxHashSet<NodeId>,
    cnps_stack: Vec<NodeId>,
}

impl std::fmt::Debug for SsgMaintainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsgMaintainer")
            .field("spec", &self.core.spec)
            .field("live_states", &self.graph.len())
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
            graph: StateGraph::new(),
            roots: Vec::new(),
            prev_results: Vec::new(),
            frames_since_sweep: 0,
            touched: Vec::new(),
            touched_scratch: Vec::new(),
            candidates_scratch: Vec::new(),
            cnps_reachable: FxHashSet::default(),
            cnps_stack: Vec::new(),
        }
    }

    /// Number of principal states currently tracked.
    pub fn principal_states(&self) -> usize {
        self.roots.len()
    }

    /// Exposes the live states (object set, marked frame set) for tests.
    pub fn states(&self) -> Vec<(ObjectSet, MarkedFrameSet)> {
        self.graph
            .live_ids()
            .into_iter()
            .map(|id| {
                let node = self.graph.node(id);
                (self.core.interner.resolve(node.sid), node.frames.clone())
            })
            .collect()
    }

    /// Marks the slab slot `id` touched by this frame.
    fn touch(&mut self, id: NodeId) {
        let word = id / 64;
        if word >= self.touched.len() {
            self.touched.resize(word + 1, 0);
        }
        self.touched[word] |= 1 << (id % 64);
    }

    /// Materialises `sid` — always `parent.last_inter`, a proper, new
    /// intersection with the arriving frame — once `parent`'s subtree has
    /// been walked (lines 25-29 of Algorithm 1): the state holding it exists,
    /// carries the frame and sits below `parent`. Runs once per node per
    /// frame, from the node's own visit.
    fn ensure_state(&mut self, sid: SetId, parent: NodeId, at: Arrival) {
        let node = self.graph.node_mut(parent);
        // infallible: the caller is `parent`'s visit, which stamped both.
        debug_assert_eq!((sid, node.visited), (node.last_inter, at.frame.raw()));
        // infallible: a node is visited once a frame, and calls this only for
        // an `inter` that is not empty, its own set or the frame's.
        debug_assert!(
            node.ensured != at.frame.raw() && ![SetId::EMPTY, node.sid, at.sid].contains(&sid)
        );
        node.ensured = at.frame.raw();
        if self.core.is_terminated(sid) {
            return;
        }
        let id = match self.graph.id_of(sid) {
            Some(id) => id,
            None => {
                if self.core.terminate_if_hopeless(sid) {
                    return;
                }
                self.core.metrics.states_created += 1;
                self.graph.insert(sid)
            }
        };
        let node = self.graph.node_mut(id);
        if node.touched != at.frame.raw() {
            node.frames.expire_before(at.oldest);
            node.frames.push(at.frame, false);
            node.touched = at.frame.raw();
            self.core.metrics.frames_appended += 1;
            self.touch(id);
        }
        // Frame-set completeness and Rule-2 mark inheritance: the parent's
        // frames all contain the parent's object set, hence this subset too.
        let (target, source) = self.graph.pair_mut(id, parent);
        target.frames.merge_from(&source.frames);
        self.graph
            .attach(parent, id, &self.core.interner, Some(at.frame.raw()));
    }

    /// State Traversal (Algorithm 1), visiting `node` with `p_inter` being the
    /// intersection of the parent state with the arriving frame.
    fn st_visit(&mut self, node: NodeId, parent: Option<NodeId>, p_inter: SetId, at: Arrival) {
        let state = self.graph.node_mut(node);
        if !state.alive || state.visited == at.frame.raw() {
            return;
        }
        state.visited = at.frame.raw();
        state.frames.expire_before(at.oldest);
        let (node_sid, previous) = (state.sid, state.last_inter);
        self.touch(node);
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
            let state = self.graph.node_mut(node);
            if state.touched != at.frame.raw() {
                state.frames.push(at.frame, false);
                state.touched = at.frame.raw();
                self.core.metrics.frames_appended += 1;
            }
            if let Some(parent) = parent {
                if p_inter == node_sid {
                    let (target, source) = self.graph.pair_mut(node, parent);
                    target.frames.merge_from(&source.frames);
                }
            }
            self.visit_children(node, inter, at);
        } else if inter == at.sid {
            // The arriving frame's object set is a proper subset of this
            // state: the new principal co-occurs in all of this state's frames
            // (lines 22-24).
            if at.ns != node {
                let (target, source) = self.graph.pair_mut(at.ns, node);
                target.frames.merge_from(&source.frames);
            }
            self.graph
                .attach(node, at.ns, &self.core.interner, Some(at.frame.raw()));
            self.visit_children(node, inter, at);
        } else {
            // A proper, new intersection: descend first (a child subtree may
            // already own it), then make sure it exists under this node
            // (lines 25-29).
            self.visit_children(node, inter, at);
            self.ensure_state(inter, node, at);
        }
    }

    /// Visits `node`'s children in place: no edit inside a child's subtree
    /// reaches `node`'s list (the module docs say why).
    fn visit_children(&mut self, node: NodeId, inter: SetId, at: Arrival) {
        let count = self.graph.node(node).children.len();
        for index in 0..count {
            // infallible: module docs, "The walk reads child lists in place".
            debug_assert_eq!(self.graph.node(node).children.len(), count);
            let child = self.graph.node(node).children[index];
            self.st_visit(child, Some(node), inter, at);
        }
    }

    /// CNPS (Algorithm 2): connect the new principal state to the candidate
    /// states derived from each principal, largest object set first, skipping
    /// candidates already reachable from the new principal.
    fn connect_new_principal(&mut self, ns: NodeId) {
        let mut ordered = std::mem::take(&mut self.candidates_scratch);
        ordered.sort_by_key(|&id| {
            std::cmp::Reverse(self.core.interner.len_of(self.graph.node(id).sid))
        });
        ordered.dedup();
        self.cnps_reachable.clear();
        for &candidate in &ordered {
            if candidate == ns || !self.graph.node(candidate).alive {
                continue;
            }
            if self.cnps_reachable.contains(&candidate) {
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
                    if self.graph.node(child).alive && self.cnps_reachable.insert(child) {
                        self.cnps_stack.push(child);
                    }
                }
            }
        }
        ordered.clear();
        self.candidates_scratch = ordered;
    }

    fn remove_node(&mut self, id: NodeId) {
        self.graph.remove(id, &self.core.interner);
        self.core.metrics.states_pruned += 1;
        self.roots.retain(|&root| root != id);
    }

    /// Periodic full sweep: expires frames of nodes that were never visited
    /// recently and drops the ones that became invalid. Bounds memory between
    /// traversals without paying a full scan on every frame.
    fn sweep(&mut self, oldest: FrameId) {
        for id in self.graph.live_ids() {
            let node = self.graph.node_mut(id);
            node.frames.expire_before(oldest);
            node.principal_frames.expire_before(oldest);
            if !node.frames.has_marked() {
                self.remove_node(id);
            }
        }
    }

    fn collect_results(&mut self, touched: &[NodeId], oldest: FrameId) {
        // SR_{i'} = SR'_i ∪ SR_{G'}: previously satisfied states are
        // revalidated (by handle — no set hashing), newly touched states are
        // examined. Buffers are pooled: `candidates_scratch` is free after
        // CNPS, and the result set / id list are rebuilt in place.
        let mut candidates = std::mem::take(&mut self.candidates_scratch);
        candidates.clear();
        for &sid in &self.prev_results {
            if let Some(id) = self.graph.id_of(sid) {
                candidates.push(id);
            }
        }
        candidates.extend_from_slice(touched);

        self.core.begin_results(self.graph.len());
        self.prev_results.clear();
        for id in candidates.drain(..) {
            if !self.graph.node(id).alive {
                continue;
            }
            self.graph.node_mut(id).frames.expire_before(oldest);
            let node = self.graph.node(id);
            if node.frames.has_marked() && self.core.spec.satisfies_duration(node.frames.len()) {
                self.core.report(node.sid, &node.frames);
                self.prev_results.push(node.sid);
            }
        }
        self.core.end_results();
        self.candidates_scratch = candidates;
        self.prev_results.sort_unstable();
        self.prev_results.dedup();
    }
}

impl StateMaintainer for SsgMaintainer {
    fn advance(&mut self, frame: FrameId, objects: &ObjectSet) -> Result<()> {
        let oldest = self.core.begin_frame(frame)?;

        self.frames_since_sweep += 1;
        if self.frames_since_sweep >= self.core.spec.window() {
            self.sweep(oldest);
            self.frames_since_sweep = 0;
        }

        let interned = self.core.interner.len();
        let frame_sid = self.core.interner.intern(objects);
        if !frame_sid.is_empty_set()
            && !self.core.is_terminated(frame_sid)
            && !self.core.terminate_if_hopeless(frame_sid)
        {
            // The arriving frame's own object set becomes (or stays) the new
            // principal state.
            let ns = self.graph.id_of(frame_sid).unwrap_or_else(|| {
                self.core.metrics.states_created += 1;
                self.graph.insert(frame_sid)
            });
            let node = self.graph.node_mut(ns);
            node.frames.expire_before(oldest);
            node.frames.push(frame, true);
            node.touched = frame.raw();
            node.principal_frames.expire_before(oldest);
            node.principal_frames.push(frame, true);
            self.touch(ns);
            let at = Arrival {
                frame,
                sid: frame_sid,
                ns,
                oldest,
                fresh: frame_sid.raw() as usize >= interned,
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
                // Candidate for CNPS plus principal-based marking: the state
                // holding this principal's intersection with the new frame is
                // pinned down by the principal's creation frames. The visit
                // above recorded that intersection on the root (an empty one
                // names no node).
                if let Some(candidate) = self.graph.id_of(self.graph.node(root).last_inter) {
                    self.candidates_scratch.push(candidate);
                    // infallible: the candidate was expired when the frame
                    // reached it ("Window expiry"), so only in-window creation
                    // frames find a frame to mark. It may be the root itself.
                    debug_assert!(self
                        .graph
                        .node(candidate)
                        .frames
                        .first()
                        .is_none_or(|first| first >= oldest));
                    if candidate == root {
                        let node = self.graph.node_mut(root);
                        node.frames.inherit_marks(&node.principal_frames, frame);
                    } else {
                        let (target, source) = self.graph.pair_mut(candidate, root);
                        target.frames.inherit_marks(&source.principal_frames, frame);
                    }
                }
            }
            self.connect_new_principal(ns);
            if !self.roots.contains(&ns) {
                self.roots.push(ns);
            }
        }

        // Drop principal status of roots whose creating frames all expired and
        // prune nodes invalidated by this frame's expiry.
        for &root in &self.roots {
            let node = self.graph.node_mut(root);
            if node.alive {
                node.principal_frames.expire_before(oldest);
            }
        }
        // Read the touched slots out in ascending order, clearing the bits.
        let mut touched = std::mem::take(&mut self.touched_scratch);
        for (index, word) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                touched.push(index * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
        // Remove the touched nodes this frame invalidated (each was expired
        // when the frame first reached it: validity is judged in-window).
        for &id in &touched {
            if self.graph.node(id).alive && !self.graph.node(id).frames.has_marked() {
                self.remove_node(id);
            }
        }
        self.core.metrics.edges_added = self.graph.edges_added;
        self.core.metrics.edges_removed = self.graph.edges_removed;
        self.collect_results(&touched, oldest);
        touched.clear();
        self.touched_scratch = touched;
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
        self.graph.len()
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
            .compact(policy, self.graph.len(), || self.graph.live_sids())?;
        self.graph.remap(&table);
        for sid in &mut self.prev_results {
            *sid = table
                .remap(*sid)
                // infallible: between frames the last results are live nodes,
                // and the compaction kept `live_sids()`, its live list.
                .expect("result states are live graph nodes");
        }
        self.prev_results.sort_unstable();
        Some(outcome)
    }

    fn pruner_changed(&mut self) {
        self.core.pruner_changed();
    }

    fn snapshot_state(&self, enc: &mut Encoder) -> Result<()> {
        self.core.put_head(enc);
        enc.put_usize(self.frames_since_sweep);
        self.graph.encode(enc);
        enc.put_usize(self.roots.len());
        for &root in &self.roots {
            enc.put_usize(root);
        }
        enc.put_usize(self.prev_results.len());
        for &sid in &self.prev_results {
            enc.put_u32(sid.raw());
        }
        self.core.metrics.encode(enc);
        Ok(())
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        self.core.take_head(dec)?;
        self.frames_since_sweep = dec.take_usize()?;
        self.graph = StateGraph::decode(dec, &self.core.interner, self.core.spec.window())?;
        let root_count = dec.take_len()?;
        let mut roots = Vec::with_capacity(root_count);
        for _ in 0..root_count {
            let root = dec.take_usize()?;
            if !self.graph.is_alive(root) || roots.contains(&root) {
                return Err(Error::Corrupt(format!(
                    "root list entry {root} is not a distinct live graph node"
                )));
            }
            roots.push(root);
        }
        self.roots = roots;
        let result_count = dec.take_len()?;
        let mut prev_results = Vec::with_capacity(result_count);
        for _ in 0..result_count {
            let sid = SetId::from_raw(dec.take_u32()?);
            if self.graph.id_of(sid).is_none() {
                return Err(Error::Corrupt(format!(
                    "result list references handle {} with no live graph node",
                    sid.raw()
                )));
            }
            prev_results.push(sid);
        }
        prev_results.sort_unstable();
        prev_results.dedup();
        self.prev_results = prev_results;
        // The results stay empty: the next frame's collect_results
        // revalidates `prev_results` by handle, reproducing the reported set
        // exactly.
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
        let sets: Vec<ObjectSet> = m.states().into_iter().map(|(s, _)| s).collect();
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
        assert_eq!(restored.states(), original.states());
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

    /// Neither the per-frame stamps nor the handle index are persisted:
    /// restore and every compaction epoch rebuild them. A snapshot taken
    /// mid-way through a dense `w=60` film, restored into a fresh maintainer
    /// and run on across forced epochs, must stay equal to the uninterrupted
    /// run — results on every frame, every counter but the memo's.
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
        restored.graph.check_invariants(&restored.core.interner);
        let mut epochs = 0;
        for i in 150..film.len() {
            let outcome = step(&mut original, i);
            assert_eq!(step(&mut restored, i), outcome, "epoch at frame {i}");
            if outcome.is_some() {
                // The rebuilt handle index holds exactly the live nodes.
                restored.graph.check_invariants(&restored.core.interner);
                epochs += 1;
            }
            assert_eq!(restored.results(), original.results(), "frame {i}");
        }
        assert!(epochs >= 2, "only {epochs} epochs after the restore");
        assert!(original.live_states() > 100 && !original.results().is_empty());
        assert_eq!(restored.states(), original.states());
        assert_eq!(
            restored.metrics().without_cache_gauges(),
            original.metrics().without_cache_gauges()
        );
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
            ssg.graph.check_invariants(&ssg.core.interner);
            assert_eq!(ssg.results(), mfs.results(), "frame {i}");
        }
        assert!(ssg.live_states() > 100 && !ssg.results().is_empty());
    }

    /// A frame whose object set this frame's `intern` created is in no memo
    /// entry, so its traversal neither probes the memo nor writes it; a
    /// frame set interned earlier still probes. Results equal MFS's.
    #[test]
    fn fresh_frames_skip_the_memo() {
        let spec = WindowSpec::new(4, 2).unwrap();
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
            if ssg
                .states()
                .iter()
                .any(|(set, _)| frame.is_proper_subset_of(set))
            {
                subset_frames += 1;
            }
            ssg.advance(FrameId(u64::from(i)), &frame).unwrap();
            mfs.advance(FrameId(u64::from(i)), &frame).unwrap();
            ssg.graph.check_invariants(&ssg.core.interner);
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

    #[test]
    fn restore_rejects_used_maintainers_and_dangling_roots() {
        let spec = WindowSpec::new(4, 2).unwrap();
        let mut original = SsgMaintainer::new(spec);
        original.advance(FrameId(0), &set(&[1, 2])).unwrap();
        let mut enc = Encoder::new();
        original.snapshot_state(&mut enc).unwrap();
        let bytes = enc.into_bytes();

        // A maintainer that already advanced refuses to restore.
        let mut used = SsgMaintainer::new(spec);
        used.advance(FrameId(0), &set(&[9])).unwrap();
        assert!(used.restore_state(&mut Decoder::new(&bytes)).is_err());

        // A root entry naming no live graph node is corrupt, not a panic.
        let mut enc = Encoder::new();
        original.core.put_head(&mut enc);
        enc.put_usize(1); // frames_since_sweep
        original.graph.encode(&mut enc);
        enc.put_usize(1);
        enc.put_usize(17); // dangling root slot
        enc.put_usize(0); // no previous results
        original.metrics().encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut fresh = SsgMaintainer::new(spec);
        let err = fresh.restore_state(&mut Decoder::new(&bytes)).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    #[test]
    fn long_run_prunes_expired_states() {
        // Disjoint bursts: states from old bursts must eventually disappear
        // even if never visited again (periodic sweep).
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
