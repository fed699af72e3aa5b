//! Query-driven state termination (Section 5.3 of the paper).
//!
//! When every registered query uses only `>=` predicates, Proposition 1
//! guarantees that a state whose MCOS fails every query can never produce a
//! satisfying subset: all of its descendants can be skipped. The maintainers
//! accept an optional [`StatePruner`] and consult it whenever a new state is
//! created; states the pruner rejects are *terminated* — never extended,
//! never reported.
//!
//! The concrete pruner that evaluates CNF queries lives in the query crate;
//! this module only defines the interface plus simple implementations used
//! for tests and ablations.

use tvq_common::{ClassCounts, ObjectSet};

/// Decides whether a freshly created state can be terminated.
///
/// Implementations must be *monotone downwards*: if `should_terminate(x)` is
/// `true` it must also be `true` for every subset of `x`, otherwise
/// terminating the state (and thereby suppressing its descendants) would be
/// unsound. The ≥-only CNF pruner has this property by Proposition 1.
pub trait StatePruner {
    /// Returns `true` when a state with this object set (interpreted as its
    /// MCOS) can never satisfy any registered query, nor can any subset.
    fn should_terminate(&self, objects: &ObjectSet) -> bool;

    /// Variant consulted by interner-backed maintainers: when the interner
    /// has a class source, the verdict cache aggregates the set's class
    /// counts once, from its bitmap, and passes them here, so a query-driven
    /// pruner can decide from them directly and skip re-aggregating the
    /// object set. The default ignores the counts and defers to
    /// [`should_terminate`](Self::should_terminate); the verdict must be
    /// identical either way.
    fn should_terminate_with(&self, objects: &ObjectSet, counts: Option<&ClassCounts>) -> bool {
        let _ = counts;
        self.should_terminate(objects)
    }

    /// Whether the pruner can terminate anything right now. An inactive
    /// pruner answers `false` for every set, so the verdict cache skips it
    /// and caches nothing.
    fn is_active(&self) -> bool {
        true
    }
}

/// Per-handle cache of a pruner's verdicts, shared by the MFS and SSG
/// maintainers.
///
/// Both polarities are cached: a handle's class counts cannot change while
/// it is live, so a pruner's verdict for a given handle is stable and each
/// set is judged — and its counts aggregated — at most once. The stability
/// argument leans on the object
/// lifecycle's invariant that **an internal object id's class is immutable
/// for its lifetime**: tracker-id reuse with a different class mints a
/// fresh internal id (so the reused id lands in *different* sets with
/// *different* handles), and a post-retirement reappearance re-interns its
/// sets under fresh handles whose counts are re-aggregated from the
/// re-resolved class — in both cases [`judge`](Self::judge) runs afresh
/// instead of trusting a verdict formed under the stale class. A verdict
/// lasts while its handle's set is held: [`forget`](Self::forget) drops it
/// when the interner releases the set (a terminated set holds no row, so
/// it is released at the end of the frame that judged it and judged again
/// when it comes back), and [`remap`](Self::remap) re-keys the rest at
/// every compaction epoch.
#[derive(Debug, Default)]
pub struct PrunerVerdictCache {
    terminated: tvq_common::FxHashSet<tvq_common::SetId>,
    cleared: tvq_common::FxHashSet<tvq_common::SetId>,
}

impl PrunerVerdictCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        PrunerVerdictCache::default()
    }

    /// Whether the handle was previously judged hopeless.
    pub fn is_terminated(&self, sid: tvq_common::SetId) -> bool {
        self.terminated.contains(&sid)
    }

    /// Number of handles judged hopeless so far.
    pub fn terminated_len(&self) -> usize {
        self.terminated.len()
    }

    /// Forgets every cached verdict. Called when the *pruner itself*
    /// changed (the engine swapped its query catalog): verdicts formed
    /// under the old query set are no longer valid in either polarity, so
    /// every live handle is re-judged lazily on its next visit. Terminated
    /// states that the new catalog would keep stay terminated — termination
    /// already dropped them from the maintainer — which is exactly the
    /// documented convergence contract for query *additions* (full
    /// equivalence after one window turnover); for removals, forgetting
    /// verdicts only ever *widens* pruning, which Proposition 1 makes
    /// invisible to surviving queries.
    pub fn clear(&mut self) {
        // Negative-control mutant: skips the clear-on-catalog-swap, so a
        // verdict computed under one catalog version keeps being consulted
        // under the next. Exists solely so the model checker's mutant suite
        // can prove it *catches* this class of bug; never enabled by
        // production or tier-1 builds.
        if cfg!(feature = "check-mutants") {
            return;
        }
        self.terminated.clear();
        self.cleared.clear();
    }

    /// Forgets the verdict on a released handle: the next set minted on it
    /// is judged afresh.
    pub fn forget(&mut self, sid: tvq_common::SetId) {
        self.terminated.remove(&sid);
        self.cleared.remove(&sid);
    }

    /// Re-keys the cache through a compaction epoch's remap table: verdicts
    /// for handles that survived move to the new handles, verdicts for
    /// retired handles are dropped (a retired set that reappears is
    /// re-interned and re-judged — the pruner is deterministic, so the
    /// verdict is identical, at the cost of one re-evaluation).
    pub fn remap(&mut self, table: &tvq_common::RemapTable) {
        self.terminated = self
            .terminated
            .iter()
            .filter_map(|&sid| table.remap(sid))
            .collect();
        self.cleared = self
            .cleared
            .iter()
            .filter_map(|&sid| table.remap(sid))
            .collect();
    }

    /// Returns the cached verdict for `sid`, consulting `pruner` on a cache
    /// miss (passing the set's class counts, aggregated by the interner once
    /// for this verdict, so query-driven pruners skip re-aggregation) unless
    /// it is inactive, which keeps the set and caches nothing. Counts a
    /// fresh termination in `states_terminated`.
    pub fn judge(
        &mut self,
        pruner: &(dyn StatePruner + Send + Sync),
        interner: &tvq_common::SetInterner,
        sid: tvq_common::SetId,
        states_terminated: &mut u64,
    ) -> bool {
        if self.terminated.contains(&sid) {
            return true;
        }
        if self.cleared.contains(&sid) || !pruner.is_active() {
            return false;
        }
        let counts = interner.counts_of(sid);
        if pruner.should_terminate_with(&interner.resolve(sid), counts.as_ref()) {
            self.terminated.insert(sid);
            *states_terminated += 1;
            true
        } else {
            self.cleared.insert(sid);
            false
        }
    }
}

/// A pruner that terminates states smaller than a fixed number of objects.
///
/// This is the simplest sound pruner (cardinality is monotone): it mirrors a
/// query workload consisting solely of `class >= n` conditions whose total
/// object demand is `min_objects`. Used by unit tests and ablation benches.
#[derive(Debug, Clone, Copy)]
pub struct MinCardinalityPruner {
    /// States with fewer objects than this are terminated.
    pub min_objects: usize,
}

impl StatePruner for MinCardinalityPruner {
    fn should_terminate(&self, objects: &ObjectSet) -> bool {
        objects.len() < self.min_objects
    }
}

/// Boxed pruner handle shared by the maintainers.
pub type SharedPruner = std::sync::Arc<dyn StatePruner + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn set(ids: &[u32]) -> ObjectSet {
        ObjectSet::from_raw(ids.iter().copied())
    }

    #[test]
    fn min_cardinality_is_downward_monotone() {
        let p = MinCardinalityPruner { min_objects: 3 };
        assert!(p.should_terminate(&set(&[1, 2])));
        assert!(!p.should_terminate(&set(&[1, 2, 3])));
        // Downward monotone: any subset of a terminated set is terminated.
        assert!(p.should_terminate(&set(&[1])));
        assert!(p.should_terminate(&ObjectSet::empty()));
    }

    /// A cardinality pruner behind a switch. A `gated` one reports the
    /// switch through `is_active`; an ungated one always claims to be
    /// active and answers `false` while off, so it is consulted throughout —
    /// the reference. Consultations made while off are counted.
    struct Switched {
        on: AtomicBool,
        gated: bool,
        consulted_off: AtomicUsize,
    }

    impl StatePruner for Switched {
        fn should_terminate(&self, objects: &ObjectSet) -> bool {
            if !self.on.load(Ordering::SeqCst) {
                self.consulted_off.fetch_add(1, Ordering::SeqCst);
                return false;
            }
            objects.len() < 3
        }

        fn is_active(&self) -> bool {
            !self.gated || self.on.load(Ordering::SeqCst)
        }
    }

    /// An inactive pruner is never consulted, and skipping it changes no
    /// verdict: across inactive → active → inactive swaps (each announced
    /// through `pruner_changed`) MFS and SSG report what they report with a
    /// pruner that is consulted throughout, and terminate as many states.
    #[test]
    fn inactive_pruners_are_skipped_without_changing_verdicts() {
        use crate::maintainer::MaintainerKind;
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::sync::Arc;
        use tvq_common::{FrameId, SetInterner, WindowSpec};

        let mut rng = StdRng::seed_from_u64(5);
        let film: Vec<ObjectSet> = (0..240)
            .map(|_| ObjectSet::from_raw((0..8u32).filter(|_| rng.gen_bool(0.5))))
            .collect();
        let spec = WindowSpec::new(12, 4).unwrap();
        for kind in [MaintainerKind::Mfs, MaintainerKind::Ssg] {
            let switched = |gated| {
                Arc::new(Switched {
                    on: AtomicBool::new(false),
                    gated,
                    consulted_off: AtomicUsize::new(0),
                })
            };
            let (gated, always) = (switched(true), switched(false));
            let build = |pruner: &Arc<Switched>| {
                let shared: SharedPruner = Arc::clone(pruner) as SharedPruner;
                kind.build_with_options(spec, Some(shared), SetInterner::new())
            };
            let (mut fast, mut slow) = (build(&gated), build(&always));
            for (i, frame) in film.iter().enumerate() {
                if i % 80 == 40 || i % 80 == 0 && i > 0 {
                    let on = i % 80 == 40;
                    for (pruner, m) in [(&gated, &mut fast), (&always, &mut slow)] {
                        pruner.on.store(on, Ordering::SeqCst);
                        m.pruner_changed();
                    }
                }
                fast.advance(FrameId(i as u64), frame).unwrap();
                slow.advance(FrameId(i as u64), frame).unwrap();
                assert_eq!(fast.results(), slow.results(), "{kind:?} frame {i}");
            }
            let terminated = fast.metrics().states_terminated;
            assert!(terminated > 0, "{kind:?}: the active stretches must prune");
            assert_eq!(terminated, slow.metrics().states_terminated, "{kind:?}");
            assert_eq!(gated.consulted_off.load(Ordering::SeqCst), 0, "{kind:?}");
            assert!(always.consulted_off.load(Ordering::SeqCst) > 0, "{kind:?}");
        }
    }

    /// A verdict dies with its handle's set: a hopeless set is released at
    /// the end of its frame and a kept one with its state, and the next set
    /// minted on the handle is judged afresh, in both directions.
    #[test]
    fn a_reused_handle_is_judged_again() {
        use crate::maintainer::MaintainerKind;
        use std::sync::Arc;
        use tvq_common::{FrameId, SetInterner, WindowSpec};

        let spec = WindowSpec::new(1, 1).unwrap();
        for kind in [MaintainerKind::Mfs, MaintainerKind::Ssg] {
            let pruner: SharedPruner = Arc::new(MinCardinalityPruner { min_objects: 2 });
            let mut m = kind.build_with_options(spec, Some(pruner), SetInterner::new());
            // {1} is hopeless; {2,3} takes its handle and is kept; {4} takes
            // that handle once {2,3} expired and is hopeless again.
            for (fid, ids, reported) in [(0, &[1][..], false), (1, &[2, 3], true), (2, &[4], false)]
            {
                m.advance(FrameId(fid), &set(ids)).unwrap();
                assert_eq!(
                    m.results().contains(&set(ids)),
                    reported,
                    "{kind:?} frame {fid}"
                );
            }
            assert_eq!(m.metrics().states_terminated, 2, "{kind:?}");
        }
    }

    #[test]
    fn shared_pruner_is_object_safe() {
        let p: SharedPruner = std::sync::Arc::new(MinCardinalityPruner { min_objects: 2 });
        assert!(p.should_terminate(&set(&[9])));
        assert!(!p.should_terminate(&set(&[9, 10])));
    }
}
