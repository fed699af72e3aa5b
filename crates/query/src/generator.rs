//! Random query-workload generation.
//!
//! The paper's query-evaluation experiments use synthetic workloads: 10–50
//! random CNF queries (Figure 8) and 100 `>=`-only queries whose smallest
//! threshold `n_min` is swept from 1 to 9 (Figure 9). This module generates
//! such workloads deterministically from a seed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tvq_common::{ClassId, QueryId};

use crate::cnf::CnfQuery;
use crate::condition::{CmpOp, Condition};

/// Configuration of a random CNF workload.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Number of queries to generate.
    pub num_queries: usize,
    /// Classes conditions may refer to.
    pub classes: Vec<ClassId>,
    /// Number of clauses (disjunctions) per query, inclusive range.
    pub clauses_per_query: (usize, usize),
    /// Number of conditions per clause, inclusive range.
    pub conditions_per_clause: (usize, usize),
    /// Threshold values, inclusive range.
    pub thresholds: (u32, u32),
    /// Restrict to `>=` conditions (required by the pruning experiments).
    pub geq_only: bool,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            num_queries: 10,
            classes: vec![ClassId(0), ClassId(1), ClassId(2), ClassId(3)],
            clauses_per_query: (1, 3),
            conditions_per_clause: (1, 2),
            thresholds: (1, 4),
            geq_only: false,
        }
    }
}

impl WorkloadConfig {
    /// The Figure 8 workload: `n` random mixed-operator queries.
    pub fn figure_8(num_queries: usize) -> Self {
        WorkloadConfig {
            num_queries,
            ..WorkloadConfig::default()
        }
    }

    /// The Figure 9 workload: 100 `>=`-only queries whose smallest threshold
    /// is `n_min`.
    pub fn figure_9(n_min: u32) -> Self {
        WorkloadConfig {
            num_queries: 100,
            geq_only: true,
            thresholds: (n_min, n_min + 3),
            ..WorkloadConfig::default()
        }
    }
}

/// Generates a workload. Deterministic for a given seed; query identifiers
/// are `0..num_queries`.
pub fn generate_workload(config: &WorkloadConfig, seed: u64) -> Vec<CnfQuery> {
    // infallible: no wire command reaches the generator, and every config
    // in the workspace names classes; an empty list is a caller's bug,
    // which `empty_class_list_is_rejected` pins as a panic.
    assert!(
        !config.classes.is_empty(),
        "workload needs at least one class"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut queries = Vec::with_capacity(config.num_queries);
    for qid in 0..config.num_queries {
        let num_clauses = rng.gen_range(config.clauses_per_query.0..=config.clauses_per_query.1);
        let clauses: Vec<Vec<Condition>> = (0..num_clauses.max(1))
            .map(|_| {
                let num_conditions =
                    rng.gen_range(config.conditions_per_clause.0..=config.conditions_per_clause.1);
                (0..num_conditions.max(1))
                    .map(|_| {
                        let class = config.classes[rng.gen_range(0..config.classes.len())];
                        let op = if config.geq_only {
                            CmpOp::Ge
                        } else {
                            match rng.gen_range(0..4) {
                                0 => CmpOp::Le,
                                1 => CmpOp::Eq,
                                _ => CmpOp::Ge,
                            }
                        };
                        let value = rng.gen_range(config.thresholds.0..=config.thresholds.1);
                        Condition::new(class, op, value)
                    })
                    .collect()
            })
            .collect();
        queries.push(CnfQuery::new(QueryId(qid as u32), clauses));
    }
    queries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_the_requested_number_of_valid_queries() {
        let workload = generate_workload(&WorkloadConfig::figure_8(25), 1);
        assert_eq!(workload.len(), 25);
        for query in &workload {
            assert!(query.validate().is_ok());
            assert!(!query.classes().is_empty());
        }
    }

    #[test]
    fn figure_9_workloads_are_geq_only_with_nmin_respected() {
        for n_min in [1u32, 3, 5, 7, 9] {
            let workload = generate_workload(&WorkloadConfig::figure_9(n_min), 7);
            assert_eq!(workload.len(), 100);
            assert!(workload.iter().all(CnfQuery::is_geq_only));
            let observed_min = workload
                .iter()
                .filter_map(CnfQuery::min_threshold)
                .min()
                .unwrap();
            assert!(observed_min >= n_min);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = WorkloadConfig::figure_8(10);
        assert_eq!(generate_workload(&config, 5), generate_workload(&config, 5));
        assert_ne!(generate_workload(&config, 5), generate_workload(&config, 6));
    }

    #[test]
    #[should_panic(expected = "at least one class")]
    fn empty_class_list_is_rejected() {
        let config = WorkloadConfig {
            classes: vec![],
            ..WorkloadConfig::default()
        };
        generate_workload(&config, 0);
    }
}
