//! Exhaustive breadth-first traversal: symmetry-reduced, with each level
//! expanded in parallel — with canonical-state dedup and
//! shortest-counterexample extraction.
//!
//! The traversal explores every state a [`Machine`] can reach within a
//! depth bound, checking the machine's invariant at every examined edge and
//! optionally handing every edge (witness path + landed state) to a replay
//! hook. Because exploration is breadth-first and level-synchronized, the
//! first violation found is reached by a shortest action sequence — the
//! printed counterexample is minimal in length, which is what makes it
//! readable.
//!
//! * **Symmetry reduction** ([`Traversal::with_symmetry`]): when the model
//!   declares a symmetry group ([`Machine::reduce`]), states are
//!   deduplicated on orbit representatives. Each stored node carries the
//!   accumulated group element σ mapping its representative back to the
//!   concrete state the run actually reaches, and every stored edge carries
//!   the σ-relabeled *concrete* action — so counterexample traces and
//!   conformance replays are genuine concrete runs, not quotient-space
//!   artifacts.
//! * **Parallel expansion**: each level is cut into one contiguous slice
//!   per lane (one lane per available CPU). A lane expands its slice in
//!   order — transition, invariant, replay hook, `reduce` — and the main
//!   thread then dedups the lanes' successors against one seen-set, slice
//!   by slice. The concatenated successors are in (parent rank, action
//!   index) order, so the discoverer kept for each new state is the one a
//!   sequential BFS keeps, and reports are identical for any lane count.
//!
//! When a level produces violations, the whole level is still completed
//! (counters stay lane-count-independent), every violation is collected,
//! and the list is sorted by (trace length, message, state) so the primary
//! counterexample — and the rendered report — is stable across runs.

use tvq_common::FxHashSet;

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
    /// Whether symmetry reduction was enabled.
    pub symmetry: bool,
    /// Every violation found on the first violating level, sorted by
    /// (trace length, message, state) — deterministic across runs and
    /// lane counts. Empty means every reachable state within the
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
            "  symmetry {} ({} symmetry-relabeled edges)",
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
    lanes: usize,
    symmetry: bool,
}

/// Per-node bookkeeping: the predecessor link used to rebuild the shortest
/// concrete witness path, and the accumulated symmetry element σ (concrete
/// state = `sym_state(σ, representative)`).
struct Meta<M: Machine> {
    parent: Option<(u32, M::Action)>,
    sym: M::Sym,
}

/// One lane's expansion of its slice of a level.
struct Expanded<M: Machine> {
    /// Every successor representative with its node bookkeeping, in
    /// (parent rank, action index) order.
    successors: Vec<(Meta<M>, M::State)>,
    violations: Vec<Violation<M>>,
    transitions: usize,
    relabels: u64,
}

impl<M: Machine> Traversal<M> {
    /// Creates a traversal exploring up to `max_depth` actions deep,
    /// without symmetry reduction, on one lane per available CPU.
    pub fn new(machine: M, max_depth: usize) -> Self {
        Traversal {
            machine,
            max_depth,
            lanes: std::thread::available_parallelism().map_or(1, |n| n.get()),
            symmetry: false,
        }
    }

    /// Overrides the lane count. Reports are identical for every value, so
    /// this exists only for the tests that prove exactly that.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.lanes = workers.max(1);
        self
    }

    /// Enables symmetry reduction (requires the machine to declare its
    /// group via [`Machine::reduce`]; a machine with the trivial default
    /// group is simply unaffected).
    pub fn with_symmetry(mut self, symmetry: bool) -> Self {
        self.symmetry = symmetry;
        self
    }
}

impl<M> Traversal<M>
where
    M: Machine + Sync,
    M::State: Send + Sync,
    M::Action: Send + Sync,
    M::Sym: Send + Sync,
{
    /// Explores the model alone (no conformance replay).
    pub fn run(&self) -> Report<M> {
        self.run_with(|| |_: &[M::Action], _: &M::State| Ok(()))
    }

    /// Explores the model, additionally invoking a replay hook for the
    /// initial state (empty path) and for **every** examined edge with the
    /// shortest concrete witness path to the edge's endpoint and the
    /// concrete model state it lands in. The hook replays the path through
    /// the real implementation and returns `Err` on any observable
    /// divergence; such an error is reported exactly like an invariant
    /// violation, trace included.
    ///
    /// `per_lane` builds one hook per lane, so each lane replays through
    /// its own implementation stack (engines are not `Sync`).
    pub fn run_with<F, H>(&self, per_lane: F) -> Report<M>
    where
        F: Fn() -> H,
        H: FnMut(&[M::Action], &M::State) -> Result<(), String> + Send,
    {
        let mut hooks: Vec<H> = (0..self.lanes).map(|_| per_lane()).collect();
        let mut report = Report {
            states_explored: 1,
            transitions: 0,
            max_depth_reached: 0,
            per_depth: vec![DepthStats {
                states: 1,
                transitions: 0,
            }],
            symmetry_relabels: 0,
            symmetry: self.symmetry,
            violations: Vec::new(),
        };

        let initial = self.machine.initial();
        if let Err(message) = self
            .machine
            .invariant(&initial)
            .and_then(|()| hooks[0](&[], &initial))
        {
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
        let mut meta: Vec<Meta<M>> = vec![Meta {
            parent: None,
            sym: sym0,
        }];
        let mut seen: FxHashSet<M::State> = FxHashSet::default();
        seen.insert(repr0.clone());
        // The current level's nodes: id and representative.
        let mut level: Vec<(u32, M::State)> = vec![(0, repr0)];
        let mut violations: Vec<Violation<M>> = Vec::new();

        while !level.is_empty() && report.max_depth_reached < self.max_depth {
            let slice = level.len().div_ceil(hooks.len());
            let expanded: Vec<Expanded<M>> = std::thread::scope(|scope| {
                let meta = &meta;
                let handles: Vec<_> = level
                    .chunks(slice)
                    .zip(hooks.iter_mut())
                    .map(|(nodes, hook)| scope.spawn(move || self.expand(nodes, meta, hook)))
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| handle.join().expect("traversal lane panicked"))
                    .collect()
            });

            // Slices are in level order and each lane's successors in
            // (parent rank, action index) order, so keeping the first
            // discoverer of each new state is exactly sequential BFS.
            let depth = report.max_depth_reached;
            let mut next: Vec<(u32, M::State)> = Vec::new();
            for lane in expanded {
                report.per_depth[depth].transitions += lane.transitions;
                report.symmetry_relabels += lane.relabels;
                violations.extend(lane.violations);
                for (node, repr) in lane.successors {
                    if !seen.contains(&repr) {
                        seen.insert(repr.clone());
                        next.push((meta.len() as u32, repr));
                        meta.push(node);
                    }
                }
            }
            report.transitions += report.per_depth[depth].transitions;
            level = next;
            if !level.is_empty() {
                report.states_explored += level.len();
                report.max_depth_reached += 1;
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

    /// Expands one lane's slice of the current level, in order.
    fn expand<H>(&self, nodes: &[(u32, M::State)], meta: &[Meta<M>], hook: &mut H) -> Expanded<M>
    where
        H: FnMut(&[M::Action], &M::State) -> Result<(), String>,
    {
        let mut out = Expanded {
            successors: Vec::new(),
            violations: Vec::new(),
            transitions: 0,
            relabels: 0,
        };
        let mut actions: Vec<M::Action> = Vec::new();
        for (id, state) in nodes {
            let sym = &meta[*id as usize].sym;
            let mut path = witness(meta, *id);
            actions.clear();
            self.machine.actions(state, &mut actions);
            for action in &actions {
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
                    hook(&path, &self.machine.sym_state(sym, &next))
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
                let node = Meta {
                    parent: Some((*id, path.pop().expect("pushed above"))),
                    sym: child_sym,
                };
                out.successors.push((node, repr));
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
