//! Query-driven state termination (the `MFS_O` / `SSG_O` variants).
//!
//! Proposition 1: when a condition uses only `>=`, a state whose MCOS fails
//! it will also fail it for every subset of that MCOS (counts only shrink).
//! Hence, when *every* registered query is `>=`-only, a freshly created state
//! whose MCOS satisfies no query can be terminated outright — none of its
//! descendants can ever satisfy anything either. [`pruning_applies`] states
//! when that holds, and [`GeqOnlyPruner`] packages the check as the
//! [`StatePruner`] hook consumed by the MCOS maintainers.

use std::collections::HashMap;
use std::sync::Arc;

use tvq_common::{ClassCounts, ClassId, ObjectId, ObjectSet};
use tvq_core::{SharedPruner, StatePruner};

use crate::cnf::CnfQuery;
use crate::evaluator::CnfEvaluator;

/// Whether the pruning strategy may terminate states under `queries`:
/// every query is `>=`-only (Proposition 1) **and** at least one exists —
/// an empty workload is vacuously `>=`-only, but "no query is satisfiable"
/// must keep states alive for queries added later.
pub fn pruning_applies(queries: &[CnfQuery]) -> bool {
    !queries.is_empty() && queries.iter().all(CnfQuery::is_geq_only)
}

/// A pruner that terminates states failing every registered `>=`-only query.
#[derive(Debug, Clone)]
pub struct GeqOnlyPruner {
    evaluator: Arc<CnfEvaluator>,
    classes: Arc<HashMap<ObjectId, ClassId>>,
}

impl GeqOnlyPruner {
    /// Builds the pruner, returning `None` unless [`pruning_applies`] to
    /// the workload (the strategy would then be unsound, Section 5.3).
    pub fn new(
        evaluator: Arc<CnfEvaluator>,
        classes: Arc<HashMap<ObjectId, ClassId>>,
    ) -> Option<Self> {
        pruning_applies(evaluator.queries()).then_some(GeqOnlyPruner { evaluator, classes })
    }

    /// Convenience: builds the pruner and wraps it for the maintainer API.
    pub fn shared(
        evaluator: Arc<CnfEvaluator>,
        classes: Arc<HashMap<ObjectId, ClassId>>,
    ) -> Option<SharedPruner> {
        GeqOnlyPruner::new(evaluator, classes).map(|p| Arc::new(p) as SharedPruner)
    }
}

impl StatePruner for GeqOnlyPruner {
    fn should_terminate(&self, objects: &ObjectSet) -> bool {
        let counts = ClassCounts::of(objects, &self.classes);
        !self.evaluator.any_satisfied(&counts)
    }

    fn should_terminate_with(&self, objects: &ObjectSet, counts: Option<&ClassCounts>) -> bool {
        match counts {
            Some(counts) => !self.evaluator.any_satisfied(counts),
            None => self.should_terminate(objects),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use tvq_common::QueryId;

    fn classes() -> Arc<HashMap<ObjectId, ClassId>> {
        Arc::new(
            [
                (ObjectId(1), ClassId(1)), // car
                (ObjectId(2), ClassId(1)), // car
                (ObjectId(3), ClassId(0)), // person
                (ObjectId(4), ClassId(0)), // person
            ]
            .into_iter()
            .collect(),
        )
    }

    #[test]
    fn rejects_workloads_with_non_geq_conditions() {
        let mixed = CnfQuery::conjunction(QueryId(0), vec![Condition::at_most(ClassId(1), 3)]);
        let evaluator = Arc::new(CnfEvaluator::new(vec![mixed]));
        assert!(GeqOnlyPruner::new(evaluator, classes()).is_none());
    }

    #[test]
    fn rejects_empty_workloads() {
        let evaluator = Arc::new(CnfEvaluator::new(vec![]));
        assert!(GeqOnlyPruner::new(evaluator, classes()).is_none());
    }

    #[test]
    fn terminates_states_that_fail_every_query() {
        let q = CnfQuery::conjunction(
            QueryId(0),
            vec![
                Condition::at_least(ClassId(1), 2),
                Condition::at_least(ClassId(0), 1),
            ],
        );
        let evaluator = Arc::new(CnfEvaluator::new(vec![q]));
        let pruner = GeqOnlyPruner::new(evaluator, classes()).unwrap();
        // Two cars and a person: satisfied → keep.
        assert!(!pruner.should_terminate(&ObjectSet::from_raw([1, 2, 3])));
        // One car only: hopeless → terminate (and so is every subset).
        assert!(pruner.should_terminate(&ObjectSet::from_raw([1])));
        assert!(pruner.should_terminate(&ObjectSet::empty()));
    }

    #[test]
    fn downward_monotonicity_holds_on_samples() {
        // The soundness requirement of StatePruner: every subset of a
        // terminated set is terminated.
        let q = CnfQuery::conjunction(
            QueryId(0),
            vec![
                Condition::at_least(ClassId(1), 1),
                Condition::at_least(ClassId(0), 2),
            ],
        );
        let evaluator = Arc::new(CnfEvaluator::new(vec![q]));
        let pruner = GeqOnlyPruner::new(evaluator, classes()).unwrap();
        let full = ObjectSet::from_raw([1, 3, 4]);
        assert!(!pruner.should_terminate(&full));
        let hopeless = ObjectSet::from_raw([1, 3]);
        assert!(pruner.should_terminate(&hopeless));
        for subset in [
            ObjectSet::from_raw([1]),
            ObjectSet::from_raw([3]),
            ObjectSet::empty(),
        ] {
            assert!(pruner.should_terminate(&subset));
        }
    }

    #[test]
    fn shared_wrapper_produces_a_maintainer_compatible_pruner() {
        let q = CnfQuery::conjunction(QueryId(0), vec![Condition::at_least(ClassId(1), 2)]);
        let evaluator = Arc::new(CnfEvaluator::new(vec![q]));
        let shared = GeqOnlyPruner::shared(evaluator, classes()).unwrap();
        assert!(shared.should_terminate(&ObjectSet::from_raw([1])));
        assert!(!shared.should_terminate(&ObjectSet::from_raw([1, 2])));
    }
}
