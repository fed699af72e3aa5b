//! The Strict State Graph structure.
//!
//! Nodes are states, found in the maintainer's state table by their
//! interned object set; a directed edge
//! `(s, s')` records that `s'` was generated from `s`, which implies
//! `IDs' ⊂ IDs` (Property 1). Among the children of any node, no child's
//! object set may contain another child's object set (Property 2) — the
//! [`StateGraph::attach`] operation enforces both properties, rewiring edges
//! exactly as described in Section 4.3.4 of the paper.
//!
//! Nothing here is persisted: a restore rebuilds the graph through
//! `attach` (the `ssg` module docs say how).

use tvq_common::{RemapTable, SetId, SetInterner};

/// Index of a node inside the graph's slab.
pub(crate) type NodeId = usize;

/// Sentinel for "never visited".
pub(crate) const NEVER: u64 = u64::MAX;

/// A handle with no live node in [`StateGraph`]'s handle index.
const VACANT: NodeId = NodeId::MAX;

/// A node of the Strict State Graph.
#[derive(Debug)]
pub(crate) struct Node {
    /// Interned handle of the state's object set — the key every lookup
    /// and comparison uses, and the key of the state's row in the table.
    pub sid: SetId,
    /// Children: states generated from this one (proper subsets).
    pub children: Vec<NodeId>,
    /// Parents: states this one was generated from (proper supersets).
    pub parents: Vec<NodeId>,
    /// Frame id of the last State Traversal that visited this node.
    pub visited: u64,
    /// This node's intersection with the frame of its last visit. While
    /// `visited` matches the current frame the CNPS candidate pass and
    /// `attach` read it instead of intersecting or testing subsets again;
    /// the next visit offers it to the interner as its guess.
    pub last_inter: SetId,
    /// Whether the node is live (false once removed; slots are reused).
    pub alive: bool,
}

impl Node {
    fn new(sid: SetId) -> Self {
        Node {
            sid,
            children: Vec::new(),
            parents: Vec::new(),
            visited: NEVER,
            last_inter: SetId::EMPTY,
            alive: true,
        }
    }
}

/// Slab-allocated Strict State Graph indexed by interned set handles.
#[derive(Debug, Default)]
pub(crate) struct StateGraph {
    nodes: Vec<Node>,
    /// Exactly the dead slots.
    free: Vec<NodeId>,
    /// The live node of each handle, or [`VACANT`]: handles are dense
    /// arena indices, so the index is a table over them.
    /// [`remap`](Self::remap) rebuilds it.
    by_set: Vec<NodeId>,
    pub edges_added: u64,
    pub edges_removed: u64,
}

impl StateGraph {
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id]
    }

    /// Looks up the live node holding the interned set `sid`.
    pub fn id_of(&self, sid: SetId) -> Option<NodeId> {
        let id = *self.by_set.get(sid.raw() as usize)?;
        (id != VACANT).then_some(id)
    }

    /// Inserts a new node for the interned set `sid`; the handle must not
    /// already be present.
    pub fn insert(&mut self, sid: SetId) -> NodeId {
        // infallible: both callers insert after `id_of(sid)` answered `None`.
        debug_assert!(self.id_of(sid).is_none(), "duplicate node for {sid:?}");
        let node = Node::new(sid);
        let id = match self.free.pop() {
            Some(id) => {
                self.nodes[id] = node;
                id
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() - 1
            }
        };
        let at = sid.raw() as usize;
        if at >= self.by_set.len() {
            self.by_set.resize(at + 1, VACANT);
        }
        self.by_set[at] = id;
        id
    }

    /// Re-keys the graph through a compaction epoch's remap table (the
    /// state table's live list kept every node's handle): every live
    /// node's `sid` moves to its new value and the handle index is
    /// rebuilt over them. Per-node `last_inter` hints are remapped too — a
    /// hint whose set was retired resets to the empty handle (no guess for
    /// the next visit); a guess is compared, never trusted, so this only
    /// keeps it useful.
    pub fn remap(&mut self, table: &RemapTable) {
        self.by_set = vec![VACANT; table.live()];
        for id in self.live_ids() {
            let node = &mut self.nodes[id];
            node.sid = table
                .remap(node.sid)
                // infallible: the compaction kept the state table's live list.
                .expect("every live node's set is in the compaction live list");
            node.last_inter = table.remap(node.last_inter).unwrap_or(SetId::EMPTY);
            self.by_set[node.sid.raw() as usize] = id;
        }
    }

    /// Identifiers of all live nodes, in ascending slab order.
    pub fn live_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&id| self.nodes[id].alive)
            .collect()
    }

    fn add_edge(&mut self, parent: NodeId, child: NodeId) {
        if !self.nodes[parent].children.contains(&child) {
            self.nodes[parent].children.push(child);
            self.nodes[child].parents.push(parent);
            self.edges_added += 1;
        }
    }

    fn remove_edge(&mut self, parent: NodeId, child: NodeId) {
        if let Some(pos) = self.nodes[parent].children.iter().position(|&c| c == child) {
            self.nodes[parent].children.swap_remove(pos);
            self.edges_removed += 1;
        }
        if let Some(pos) = self.nodes[child].parents.iter().position(|&p| p == parent) {
            self.nodes[child].parents.swap_remove(pos);
        }
    }

    /// `(sid ⊊ node, node ⊊ sid)`: by handle for a node visited at `frame`
    /// (see [`attach`](Self::attach)), else on the bitmaps, which leaves the
    /// intersection memo alone (distinct handles are distinct sets).
    fn relation(
        &self,
        node: NodeId,
        sid: SetId,
        interner: &SetInterner,
        frame: Option<u64>,
    ) -> (bool, bool) {
        let node = &self.nodes[node];
        if node.sid == sid {
            return (false, false);
        }
        let bitmaps = || {
            let inside = interner.is_subset_of(sid, node.sid);
            (inside, !inside && interner.is_subset_of(node.sid, sid))
        };
        if frame != Some(node.visited) {
            return bitmaps();
        }
        let answer = (node.last_inter == sid, node.last_inter == node.sid);
        // infallible: `sid` is `parent ∩ F`, and this child of it, visited at
        // `frame`, holds `last_inter = node ∩ F`; as node ⊊ parent, `sid ⊆
        // node` iff `node ∩ F = sid`, and `node ⊆ sid` iff `node ∩ F = node`.
        debug_assert_eq!(answer, bitmaps(), "handle answer for {sid:?}");
        answer
    }

    /// Connects `child` under `parent`, enforcing Properties 1 and 2.
    ///
    /// * If the child's object set is not a proper subset of the parent's,
    ///   the edge is refused (Property 1).
    /// * If an existing child of `parent` contains the new child's set, the
    ///   new child is attached under that child instead (it is the tighter
    ///   parent).
    /// * If the new child's set contains an existing child's set, that edge is
    ///   moved below the new child — the "Modifying Existing Edges" step of
    ///   Section 4.3.4.
    ///
    /// State Traversal passes its `frame` when `child` holds
    /// `I = parent.last_inter = parent ∩ F`. Every `t` the walk compares
    /// lies below `parent`, so `t ∩ F ⊆ I`, and for a `t` visited this frame
    /// `I ⊊ t ⟺ t.last_inter == I` and `t ⊊ I ⟺ t.last_inter == t.sid`.
    /// Other tests (and every test without a `frame`) run word-parallel on
    /// the interner's bitmaps.
    pub fn attach(
        &mut self,
        parent: NodeId,
        child: NodeId,
        interner: &SetInterner,
        frame: Option<u64>,
    ) {
        if parent == child {
            return;
        }
        // Fast path: the edge already exists (states are re-derived from the
        // same parent frame after frame) — skip the sibling scan entirely.
        // Looked up in the parent's child list, which is far shorter than
        // the child's parent list.
        if self.nodes[parent].children.contains(&child) {
            return;
        }
        let sid = self.nodes[child].sid;
        if !self.relation(parent, sid, interner, frame).0 {
            return;
        }
        // Index loop instead of cloning the sibling vector: the only
        // mutation of `parent.children` inside the loop is the
        // `remove_edge` swap_remove at the current index (the recursive
        // `attach` calls only touch the subtrees below `sibling`/`child`,
        // and `parent` is in neither), so holding the index steady after a
        // removal visits every sibling exactly once — and `child`, absent
        // on entry, never shows up among them.
        let mut index = 0;
        while index < self.nodes[parent].children.len() {
            let sibling = self.nodes[parent].children[index];
            let (inside, holds) = self.relation(sibling, sid, interner, frame);
            if inside {
                // A tighter ancestor exists among the siblings: attach below it.
                self.attach(sibling, child, interner, frame);
                return;
            }
            if holds {
                // The new child is a tighter parent for this sibling.
                self.remove_edge(parent, sibling);
                self.attach(child, sibling, interner, None);
            } else {
                index += 1;
            }
        }
        self.add_edge(parent, child);
    }

    /// Removes a live node, reconnecting its parents to its children so
    /// that every descendant stays reachable from the surviving ancestors.
    /// (Edge lists name live nodes only.)
    pub fn remove(&mut self, id: NodeId, interner: &SetInterner) {
        // Take the edge lists instead of cloning them: the node is being
        // dismantled, so its own vectors can be emptied up front. Each taken
        // edge still exists in the opposite direction; splice those out
        // directly (the counter accounting matches the former
        // `remove_edge(parent, id)` / `remove_edge(id, child)` pair).
        let parents = std::mem::take(&mut self.nodes[id].parents);
        let children = std::mem::take(&mut self.nodes[id].children);
        for &parent in &parents {
            if let Some(pos) = self.nodes[parent].children.iter().position(|&c| c == id) {
                self.nodes[parent].children.swap_remove(pos);
                self.edges_removed += 1;
            }
        }
        for &child in &children {
            if let Some(pos) = self.nodes[child].parents.iter().position(|&p| p == id) {
                self.nodes[child].parents.swap_remove(pos);
            }
            self.edges_removed += 1;
        }
        for &parent in &parents {
            for &child in &children {
                self.attach(parent, child, interner, None);
            }
        }
        self.by_set[self.nodes[id].sid.raw() as usize] = VACANT;
        self.nodes[id].alive = false;
        self.free.push(id);
    }

    /// The first live node, in slab order, that no root reaches.
    pub fn orphan(&self, roots: &[NodeId]) -> Option<NodeId> {
        let mut reached = vec![false; self.nodes.len()];
        let mut stack = roots.to_vec();
        while let Some(id) = stack.pop() {
            if !std::mem::replace(&mut reached[id], true) {
                stack.extend(&self.nodes[id].children);
            }
        }
        (0..self.nodes.len()).find(|&id| self.nodes[id].alive && !reached[id])
    }
}

#[cfg(test)]
impl StateGraph {
    /// Number of live nodes.
    pub fn len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Verifies that the graph indexes exactly the table's rows, each of
    /// them valid (it holds a marked frame) and reachable from a root, and
    /// Properties 1 and 2 (test support).
    pub fn check_invariants(
        &self,
        interner: &SetInterner,
        table: &crate::substrate::StateTable,
        roots: &[NodeId],
    ) {
        assert_eq!(self.len(), table.len(), "one node per state row");
        for id in self.live_ids() {
            let row = table.row_of(self.nodes[id].sid);
            let row = row.unwrap_or_else(|| panic!("node {id} has no state row"));
            assert!(table.frames(row).has_marked(), "node {id} is invalid");
        }
        assert_eq!(self.orphan(roots), None, "a node no root reaches");
        self.check_properties(interner);
    }

    /// Verifies Properties 1 and 2 over the whole graph (test support).
    pub fn check_properties(&self, interner: &SetInterner) {
        let set_of = |id: NodeId| interner.resolve(self.nodes[id].sid);
        let indexed = self.by_set.iter().filter(|&&id| id != VACANT).count();
        assert_eq!(
            indexed,
            self.len(),
            "the handle index holds exactly the live nodes"
        );
        for id in self.live_ids() {
            let node = &self.nodes[id];
            assert_eq!(self.id_of(node.sid), Some(id));
            for &child in &node.children {
                assert!(
                    set_of(child).is_proper_subset_of(&set_of(id)),
                    "property 1 violated: {:?} -> {:?}",
                    set_of(id),
                    set_of(child)
                );
            }
            for (i, &a) in node.children.iter().enumerate() {
                for &b in node.children.iter().skip(i + 1) {
                    let (sa, sb) = (set_of(a), set_of(b));
                    assert!(
                        !sa.is_subset_of(&sb) && !sb.is_subset_of(&sa),
                        "property 2 violated under {:?}: {sa:?} vs {sb:?}",
                        set_of(id)
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvq_common::{ObjectSet, SetInterner};

    fn set(ids: &[u32]) -> ObjectSet {
        ObjectSet::from_raw(ids.iter().copied())
    }

    /// Test helper: interns `ids` and inserts the node.
    fn insert(g: &mut StateGraph, interner: &mut SetInterner, ids: &[u32]) -> NodeId {
        let sid = interner.intern(&set(ids));
        g.insert(sid)
    }

    #[test]
    fn insert_and_lookup() {
        let mut interner = SetInterner::new();
        let mut g = StateGraph::default();
        let a = insert(&mut g, &mut interner, &[1, 2, 3]);
        let sid = interner.intern(&set(&[1, 2, 3]));
        assert_eq!(g.id_of(sid), Some(a));
        assert_eq!(g.id_of(interner.intern(&set(&[1]))), None);
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn attach_enforces_property_1() {
        let mut interner = SetInterner::new();
        let mut g = StateGraph::default();
        let a = insert(&mut g, &mut interner, &[1, 2]);
        let b = insert(&mut g, &mut interner, &[2, 3]);
        // {2,3} is not a subset of {1,2}: the edge is refused.
        g.attach(a, b, &interner, None);
        assert!(g.node(a).children.is_empty());
        g.check_properties(&interner);
    }

    /// The example of Figure 3: adding {ABF} below {ABCF} must rewire the
    /// existing edge ({ABCF}, {AB}) to ({ABF}, {AB}).
    #[test]
    fn attach_rewires_contained_siblings_like_figure_3() {
        // A=1, B=2, C=3, D=4, F=6.
        let mut interner = SetInterner::new();
        let mut g = StateGraph::default();
        let abcf = insert(&mut g, &mut interner, &[1, 2, 3, 6]);
        let abd = insert(&mut g, &mut interner, &[1, 2, 4]);
        let ab = insert(&mut g, &mut interner, &[1, 2]);
        g.attach(abcf, ab, &interner, None);
        g.attach(abd, ab, &interner, None);

        let abf = insert(&mut g, &mut interner, &[1, 2, 6]);
        g.attach(abcf, abf, &interner, None);

        // {AB} is now reached through {ABF}, not directly from {ABCF}.
        assert!(!g.node(abcf).children.contains(&ab));
        assert!(g.node(abcf).children.contains(&abf));
        assert!(g.node(abf).children.contains(&ab));
        // {ABD} still points at {AB} (Figure 3d).
        assert!(g.node(abd).children.contains(&ab));
        g.check_properties(&interner);
    }

    #[test]
    fn attach_descends_into_tighter_parent() {
        let mut interner = SetInterner::new();
        let mut g = StateGraph::default();
        let abc = insert(&mut g, &mut interner, &[1, 2, 3]);
        let ab = insert(&mut g, &mut interner, &[1, 2]);
        g.attach(abc, ab, &interner, None);
        let a = insert(&mut g, &mut interner, &[1]);
        // Attaching {A} to {ABC} must land it under {AB}, the tighter parent.
        g.attach(abc, a, &interner, None);
        assert!(!g.node(abc).children.contains(&a));
        assert!(g.node(ab).children.contains(&a));
        g.check_properties(&interner);
    }

    #[test]
    fn attach_is_idempotent() {
        let mut interner = SetInterner::new();
        let mut g = StateGraph::default();
        let abc = insert(&mut g, &mut interner, &[1, 2, 3]);
        let ab = insert(&mut g, &mut interner, &[1, 2]);
        g.attach(abc, ab, &interner, None);
        g.attach(abc, ab, &interner, None);
        assert_eq!(g.node(abc).children.len(), 1);
        assert_eq!(g.node(ab).parents.len(), 1);
        assert_eq!(g.edges_added, 1);
    }

    #[test]
    fn remove_reconnects_parents_to_children() {
        let mut interner = SetInterner::new();
        let mut g = StateGraph::default();
        let abcd = insert(&mut g, &mut interner, &[1, 2, 3, 4]);
        let abc = insert(&mut g, &mut interner, &[1, 2, 3]);
        let ab = insert(&mut g, &mut interner, &[1, 2]);
        g.attach(abcd, abc, &interner, None);
        g.attach(abc, ab, &interner, None);
        let removed_edges_before = g.edges_removed;
        g.remove(abc, &interner);
        assert_eq!(g.len(), 2);
        assert!(g.id_of(interner.intern(&set(&[1, 2, 3]))).is_none());
        assert!(g.node(abcd).children.contains(&ab));
        // Both of the removed node's edges are accounted for.
        assert_eq!(g.edges_removed, removed_edges_before + 2);
        g.check_properties(&interner);
    }

    #[test]
    fn removed_slots_are_reused() {
        let mut interner = SetInterner::new();
        let mut g = StateGraph::default();
        let a = insert(&mut g, &mut interner, &[1]);
        g.remove(a, &interner);
        let b = insert(&mut g, &mut interner, &[2]);
        assert_eq!(a, b, "slab slot should be recycled");
        assert_eq!(g.len(), 1);
        assert!(g.id_of(interner.intern(&set(&[1]))).is_none());
    }
}
