//! Exhaustive breadth-first traversal: symmetry-reduced, shardable across
//! worker threads — with canonical-state dedup and shortest-counterexample
//! extraction.
//!
//! The traversal explores every state a [`Machine`] can reach within a
//! depth bound, checking the machine's invariant at every examined edge and
//! optionally handing every edge (witness path + landed state) to a replay
//! hook. Because exploration is breadth-first and level-synchronized, the
//! first violation found is reached by a shortest action sequence — the
//! printed counterexample is minimal in length, which is what makes it
//! readable.
//!
//! Two orthogonal scaling levers, both preserving the exact sequential
//! semantics (identical reports, byte for byte, whatever the
//! configuration):
//!
//! * **Symmetry reduction** ([`Traversal::with_symmetry`]): when the model
//!   declares a symmetry group ([`Machine::reduce`]), states are
//!   deduplicated on orbit representatives. Each stored node carries the
//!   accumulated group element σ mapping its representative back to the
//!   concrete state the run actually reaches, and every stored edge carries
//!   the σ-relabeled *concrete* action — so counterexample traces and
//!   conformance replays are genuine concrete runs, not quotient-space
//!   artifacts.
//! * **Sharded parallel exploration** ([`Traversal::with_workers`]): the
//!   frontier and seen-set are partitioned by canonical-state hash across N
//!   worker threads. Exploration is level-synchronized in three phases —
//!   parallel expand, parallel hash-owned dedup, then a single-threaded
//!   merge that orders newly discovered states by (parent rank, action
//!   index). That order is exactly the order a sequential BFS discovers
//!   them in, which is what makes reports worker-count-independent.
//!
//! When a level produces violations, the whole level is still completed
//! (counters stay configuration-independent), every violation is collected,
//! and the list is sorted by (trace length, message, state) so the primary
//! counterexample — and the rendered report — is stable across runs,
//! and worker counts.

use tvq_common::{FxHashMap, FxHashSet, FxHasher};

use crate::machine::Machine;

/// Per-depth exploration counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DepthStats {
    /// Distinct canonical states first discovered at this depth.
    pub states: usize,
    /// Edges examined out of this depth's states.
    pub transitions: usize,
}

/// What a traversal found.
#[derive(Debug)]
pub struct Report<M: Machine> {
    /// Distinct canonical states discovered (including the initial state).
    pub states_explored: usize,
    /// Edges examined (state × applicable action pairs, within the bound).
    pub transitions: usize,
    /// Depth of the deepest discovered state (bounded by `max_depth`).
    pub max_depth_reached: usize,
    /// Counters broken down by depth: `per_depth[d]` covers the states
    /// first discovered at depth `d` and the edges expanded out of them.
    pub per_depth: Vec<DepthStats>,
    /// Edges whose successor was folded onto a different orbit
    /// representative (the symmetry group element was not the identity) —
    /// the "dedup by symmetry" count. Always 0 without symmetry reduction.
    pub symmetry_relabels: u64,
    /// Worker lanes the traversal ran with (reports are identical for any
    /// value; recorded for the rendered artifact).
    pub workers: usize,
    /// Whether symmetry reduction was enabled.
    pub symmetry: bool,
    /// Every violation found on the first violating level, sorted by
    /// (trace length, message, state) — deterministic across runs and
    /// worker counts. Empty means every reachable state within the
    /// bound satisfies every invariant (and every edge replayed
    /// conformantly, when a replay hook was supplied).
    pub violations: Vec<Violation<M>>,
}

/// A violated invariant (or failed conformance replay) with the shortest
/// action trace reaching it.
#[derive(Debug)]
pub struct Violation<M: Machine> {
    /// What went wrong.
    pub message: String,
    /// The concrete actions from the initial state to the violation, in
    /// order (already relabeled out of the symmetry quotient).
    pub trace: Vec<M::Action>,
    /// Debug rendering of the concrete model state at (or, for transition
    /// errors, immediately before) the violation.
    pub state: String,
}

impl<M: Machine> Report<M> {
    /// Whether the traversal completed with no violation.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// The primary (first, shortest-then-lexicographic) violation, if any.
    pub fn violation(&self) -> Option<&Violation<M>> {
        self.violations.first()
    }

    /// Renders the report for humans and CI artifacts: the exploration
    /// counters, the per-depth table, and — when violations were found —
    /// the numbered counterexample trace of the primary violation plus a
    /// one-line summary of each co-discovered one.
    pub fn render(&self, name: &str) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "model {name}: {} states, {} transitions, depth {}\n",
            self.states_explored, self.transitions, self.max_depth_reached
        );
        let _ = writeln!(
            out,
            "  workers {}, symmetry {} ({} symmetry-relabeled edges)",
            self.workers,
            if self.symmetry { "on" } else { "off" },
            self.symmetry_relabels
        );
        out.push_str("  depth    states    transitions\n");
        for (depth, stats) in self.per_depth.iter().enumerate() {
            let _ = writeln!(
                out,
                "  {depth:>5} {:>9} {:>14}",
                stats.states, stats.transitions
            );
        }
        if self.violations.is_empty() {
            out.push_str("  no invariant violations\n");
        } else {
            let violation = &self.violations[0];
            let _ = writeln!(
                out,
                "  VIOLATION: {}\n  counterexample ({} steps):",
                violation.message,
                violation.trace.len()
            );
            for (i, action) in violation.trace.iter().enumerate() {
                let _ = writeln!(out, "    {:>2}. {action:?}", i + 1);
            }
            let _ = writeln!(out, "  state: {}", violation.state);
            for other in &self.violations[1..] {
                let _ = writeln!(
                    out,
                    "  also at depth {}: {}",
                    other.trace.len(),
                    other.message
                );
            }
        }
        out
    }
}

/// Breadth-first explorer of a [`Machine`]'s reachable states.
pub struct Traversal<M: Machine> {
    machine: M,
    max_depth: usize,
    workers: usize,
    symmetry: bool,
}

/// Per-node bookkeeping: the predecessor link used to rebuild the shortest
/// concrete witness path, the accumulated symmetry element σ (concrete
/// state = `sym_state(σ, representative)`), and the worker lane owning the
/// node's representative.
struct Meta<M: Machine> {
    parent: Option<(u32, M::Action)>,
    sym: M::Sym,
    home: u16,
}

/// A successor produced by phase A, routed to the lane owning its hash.
struct Candidate<M: Machine> {
    repr: M::State,
    sym: M::Sym,
    parent: u32,
    aidx: u32,
    action: M::Action,
}

/// A deduplicated new state produced by phase B, awaiting its global rank.
struct Fresh<M: Machine> {
    parent: u32,
    aidx: u32,
    action: M::Action,
    sym: M::Sym,
    home: u16,
    state: M::State,
}

/// Phase A output for one lane.
struct Expanded<M: Machine> {
    outbox: Vec<Vec<Candidate<M>>>,
    violations: Vec<Violation<M>>,
    transitions: usize,
    relabels: u64,
}

fn hash_state<S: std::hash::Hash>(state: &S) -> u64 {
    use std::hash::Hasher as _;
    let mut hasher = FxHasher::default();
    state.hash(&mut hasher);
    hasher.finish()
}

/// The hook type [`Traversal::run`] fills its lanes with.
type NoopHook<M> = fn(&[<M as Machine>::Action], &<M as Machine>::State) -> Result<(), String>;

fn noop_hook<M: Machine>(_: &[M::Action], _: &M::State) -> Result<(), String> {
    Ok(())
}

impl<M: Machine> Traversal<M> {
    /// Creates a traversal exploring up to `max_depth` actions deep
    /// (sequential, no symmetry reduction).
    pub fn new(machine: M, max_depth: usize) -> Self {
        Traversal {
            machine,
            max_depth,
            workers: 1,
            symmetry: false,
        }
    }

    /// Shards the frontier and seen-set across `workers` threads. The
    /// report is identical for every worker count; only wall-clock changes.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enables symmetry reduction (requires the machine to declare its
    /// group via [`Machine::reduce`]; a machine with the trivial default
    /// group is simply unaffected).
    pub fn with_symmetry(mut self, symmetry: bool) -> Self {
        self.symmetry = symmetry;
        self
    }

    /// The machine under traversal.
    pub fn machine(&self) -> &M {
        &self.machine
    }
}

impl<M> Traversal<M>
where
    M: Machine + Sync,
    M::State: Send + Sync,
    M::Action: Send + Sync,
    M::Sym: Send + Sync,
{
    /// Explores the model alone (no conformance replay), honoring the
    /// configured worker count.
    pub fn run(&self) -> Report<M> {
        let mut hooks: Vec<NoopHook<M>> = vec![noop_hook::<M>; self.workers];
        self.explore(&mut hooks)
    }

    /// Explores the model, additionally invoking `on_edge` for the initial
    /// state (empty path) and for **every** examined edge with the shortest
    /// concrete witness path to the edge's endpoint and the concrete model
    /// state it lands in. The hook replays the path through the real
    /// implementation and returns `Err` on any observable divergence; such
    /// an error is reported exactly like an invariant violation, trace
    /// included.
    ///
    /// A single `FnMut` hook cannot be shared across threads, so this
    /// variant explores on one lane regardless of
    /// [`with_workers`](Self::with_workers) — the report is identical
    /// either way. Use [`run_sharded`](Self::run_sharded) to combine
    /// parallel lanes with per-lane replay stacks.
    pub fn run_with<F>(&self, on_edge: F) -> Report<M>
    where
        F: FnMut(&[M::Action], &M::State) -> Result<(), String> + Send,
    {
        self.explore(&mut [on_edge])
    }

    /// Explores with the configured worker count, building one independent
    /// replay hook per lane via `per_worker` (so each worker replays
    /// through its own engine stack). Semantics per edge are those of
    /// [`run_with`](Self::run_with).
    pub fn run_sharded<F, H>(&self, per_worker: F) -> Report<M>
    where
        F: Fn(usize) -> H,
        H: FnMut(&[M::Action], &M::State) -> Result<(), String> + Send,
    {
        let mut hooks: Vec<H> = (0..self.workers).map(per_worker).collect();
        self.explore(&mut hooks)
    }

    /// The level-synchronized engine. One lane per hook; every public run
    /// variant funnels here, which is what guarantees identical reports
    /// across configurations.
    fn explore<H>(&self, hooks: &mut [H]) -> Report<M>
    where
        H: FnMut(&[M::Action], &M::State) -> Result<(), String> + Send,
    {
        let lanes = hooks.len().max(1);
        let mut report = Report {
            states_explored: 1,
            transitions: 0,
            max_depth_reached: 0,
            per_depth: vec![DepthStats {
                states: 1,
                transitions: 0,
            }],
            symmetry_relabels: 0,
            workers: lanes,
            symmetry: self.symmetry,
            violations: Vec::new(),
        };

        let initial = self.machine.initial();
        if let Err(message) = self.machine.invariant(&initial) {
            report.violations.push(Violation {
                message,
                trace: Vec::new(),
                state: format!("{initial:?}"),
            });
            return report;
        }
        if let Err(message) = hooks[0](&[], &initial) {
            report.violations.push(Violation {
                message,
                trace: Vec::new(),
                state: format!("{initial:?}"),
            });
            return report;
        }

        let (repr0, sym0) = if self.symmetry {
            self.machine.reduce(initial)
        } else {
            (initial, M::Sym::default())
        };
        let home0 = (hash_state(&repr0) % lanes as u64) as u16;

        let mut meta: Vec<Meta<M>> = vec![Meta {
            parent: None,
            sym: sym0,
            home: home0,
        }];
        // One seen-set shard per lane; representatives indexed by node id.
        let mut seen: Vec<FxHashSet<M::State>> = vec![FxHashSet::default(); lanes];
        seen[home0 as usize].insert(repr0.clone());
        let mut states: Vec<M::State> = vec![repr0];

        let mut level: Vec<u32> = vec![0];
        let mut depth = 0usize;
        let mut violations: Vec<Violation<M>> = Vec::new();

        while !level.is_empty() && depth < self.max_depth {
            // Partition the level's nodes among their owning lanes.
            let mut owned: Vec<Vec<u32>> = vec![Vec::new(); lanes];
            for &id in &level {
                owned[meta[id as usize].home as usize].push(id);
            }

            // Phase A: parallel expand. Each lane enumerates its nodes'
            // edges, checks invariants, calls its replay hook, and routes
            // successor candidates to the lane owning their hash.
            let expanded: Vec<Expanded<M>> = {
                let meta_ref = &meta;
                let states_ref = &states;
                std::thread::scope(|scope| {
                    let handles: Vec<_> = owned
                        .iter()
                        .zip(hooks.iter_mut())
                        .map(|(ids, hook)| {
                            scope.spawn(move || {
                                self.expand_lane(lanes, ids, meta_ref, states_ref, hook)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|handle| handle.join().expect("traversal worker panicked"))
                        .collect()
                })
            };

            // Route candidates into per-destination columns (source-lane
            // order, so every configuration sees the same multiset in the
            // same deterministic arrangement).
            let mut columns: Vec<Vec<Candidate<M>>> = (0..lanes).map(|_| Vec::new()).collect();
            let mut level_transitions = 0usize;
            for lane_out in expanded {
                for (dest, batch) in lane_out.outbox.into_iter().enumerate() {
                    columns[dest].extend(batch);
                }
                violations.extend(lane_out.violations);
                level_transitions += lane_out.transitions;
                report.symmetry_relabels += lane_out.relabels;
            }
            report.transitions += level_transitions;
            report.per_depth[depth].transitions = level_transitions;

            // Phase B: parallel hash-owned dedup against each lane's seen
            // shard, keeping the (parent rank, action index)-minimal
            // discovering edge per new state.
            let fresh_by_lane: Vec<Vec<Fresh<M>>> = std::thread::scope(|scope| {
                let handles: Vec<_> = columns
                    .into_iter()
                    .zip(seen.iter_mut())
                    .enumerate()
                    .map(|(lane, (candidates, lane_seen))| {
                        scope.spawn(move || dedup_lane(lane as u16, candidates, lane_seen))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("traversal worker panicked"))
                    .collect()
            });

            // Phase C: single-threaded merge. Global (parent rank, action
            // index) order is exactly sequential-BFS discovery order, so
            // node ids — and with them every witness and counter — are
            // worker-count-independent.
            let mut fresh: Vec<Fresh<M>> = fresh_by_lane.into_iter().flatten().collect();
            fresh.sort_by_key(|f| (f.parent, f.aidx));
            level.clear();
            for f in fresh {
                let id = meta.len() as u32;
                meta.push(Meta {
                    parent: Some((f.parent, f.action)),
                    sym: f.sym,
                    home: f.home,
                });
                states.push(f.state);
                level.push(id);
            }
            if !level.is_empty() {
                depth += 1;
                report.states_explored += level.len();
                report.max_depth_reached = depth;
                report.per_depth.push(DepthStats {
                    states: level.len(),
                    transitions: 0,
                });
            }
            if !violations.is_empty() {
                break;
            }
        }

        violations.sort_by(|a, b| {
            (a.trace.len(), &a.message, &a.state).cmp(&(b.trace.len(), &b.message, &b.state))
        });
        report.violations = violations;
        report
    }

    /// Phase A for one lane: expand every owned node of the current level.
    fn expand_lane<H>(
        &self,
        lanes: usize,
        ids: &[u32],
        meta: &[Meta<M>],
        states: &[M::State],
        hook: &mut H,
    ) -> Expanded<M>
    where
        H: FnMut(&[M::Action], &M::State) -> Result<(), String>,
    {
        let mut out = Expanded {
            outbox: (0..lanes).map(|_| Vec::new()).collect(),
            violations: Vec::new(),
            transitions: 0,
            relabels: 0,
        };
        let mut actions: Vec<M::Action> = Vec::new();
        for &id in ids {
            let state = &states[id as usize];
            let sym = &meta[id as usize].sym;
            let mut path = witness(meta, id);
            actions.clear();
            self.machine.actions(state, &mut actions);
            for (aidx, action) in actions.iter().enumerate() {
                out.transitions += 1;
                let concrete_action = if self.symmetry {
                    self.machine.sym_action(sym, action)
                } else {
                    action.clone()
                };
                let next = match self.machine.transition(state, action) {
                    Ok(next) => next,
                    Err(message) => {
                        path.push(concrete_action);
                        let concrete_parent = self.concretize(sym, state);
                        // Re-derive the error in concrete space so the
                        // message names the same ids as the trace; by
                        // equivariance the concrete step fails identically.
                        let message = self
                            .machine
                            .transition(&concrete_parent, path.last().expect("just pushed"))
                            .err()
                            .unwrap_or(message);
                        out.violations.push(Violation {
                            message,
                            trace: path.clone(),
                            state: format!("{concrete_parent:?}"),
                        });
                        path.pop();
                        continue;
                    }
                };
                path.push(concrete_action);
                if let Err(message) = self.machine.invariant(&next) {
                    let concrete_next = self.concretize(sym, &next);
                    let message = self
                        .machine
                        .invariant(&concrete_next)
                        .err()
                        .unwrap_or(message);
                    out.violations.push(Violation {
                        message,
                        trace: path.clone(),
                        state: format!("{concrete_next:?}"),
                    });
                    path.pop();
                    continue;
                }
                let hook_result = if self.symmetry {
                    let concrete_next = self.machine.sym_state(sym, &next);
                    hook(&path, &concrete_next)
                } else {
                    hook(&path, &next)
                };
                if let Err(message) = hook_result {
                    out.violations.push(Violation {
                        message,
                        trace: path.clone(),
                        state: format!("{:?}", self.concretize(sym, &next)),
                    });
                }
                let (repr, child_sym) = if self.symmetry {
                    let (repr, g) = self.machine.reduce(next);
                    if g != M::Sym::default() {
                        out.relabels += 1;
                    }
                    (repr, self.machine.sym_compose(sym, &g))
                } else {
                    (next, M::Sym::default())
                };
                let dest = (hash_state(&repr) % lanes as u64) as usize;
                out.outbox[dest].push(Candidate {
                    repr,
                    sym: child_sym,
                    parent: id,
                    aidx: aidx as u32,
                    action: path.pop().expect("pushed above"),
                });
            }
        }
        out
    }

    /// The concrete state a node's representative stands for.
    fn concretize(&self, sym: &M::Sym, repr: &M::State) -> M::State {
        if self.symmetry {
            self.machine.sym_state(sym, repr)
        } else {
            repr.clone()
        }
    }
}

/// Phase B for one lane: exact dedup of routed candidates against this
/// lane's seen shard (and against each other).
fn dedup_lane<M: Machine>(
    lane: u16,
    candidates: Vec<Candidate<M>>,
    seen: &mut FxHashSet<M::State>,
) -> Vec<Fresh<M>> {
    // Keyed by representative; the value is the minimal
    // (parent, action-index) discoverer with its sym/action.
    type Discoverer<M> = (u32, u32, <M as Machine>::Sym, <M as Machine>::Action);
    let mut pending: FxHashMap<M::State, Discoverer<M>> = FxHashMap::default();
    for c in candidates {
        if seen.contains(&c.repr) {
            continue;
        }
        match pending.entry(c.repr) {
            std::collections::hash_map::Entry::Occupied(mut entry) => {
                let held = entry.get_mut();
                if (c.parent, c.aidx) < (held.0, held.1) {
                    *held = (c.parent, c.aidx, c.sym, c.action);
                }
            }
            std::collections::hash_map::Entry::Vacant(entry) => {
                entry.insert((c.parent, c.aidx, c.sym, c.action));
            }
        }
    }
    let mut fresh: Vec<Fresh<M>> = pending
        .into_iter()
        .map(|(state, (parent, aidx, sym, action))| Fresh {
            parent,
            aidx,
            action,
            sym,
            home: lane,
            state,
        })
        .collect();
    fresh.sort_by_key(|f| (f.parent, f.aidx));
    seen.extend(fresh.iter().map(|f| f.state.clone()));
    fresh
}

/// The shortest concrete action path from the initial state to `id`.
fn witness<M: Machine>(meta: &[Meta<M>], mut id: u32) -> Vec<M::Action> {
    let mut path = Vec::new();
    while let Some((parent, action)) = &meta[id as usize].parent {
        path.push(action.clone());
        id = *parent;
    }
    path.reverse();
    path
}
