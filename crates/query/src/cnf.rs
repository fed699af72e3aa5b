//! CNF queries over object classes.
//!
//! A query is a conjunction of disjunctions of [`Condition`]s, e.g.
//! `(car >= 2 OR person <= 3) AND (car >= 3 OR person >= 2) AND car <= 5`
//! — the example `q2` of Section 5.2. Queries are evaluated against the
//! class-count aggregates of a maximum co-occurrence object set.

use tvq_common::{ClassCounts, ClassId, Decoder, Encoder, Error, QueryId};

use crate::condition::{CmpOp, Condition};

/// A disjunction (OR) of conditions.
pub type Clause = Vec<Condition>;

/// A CNF query: every clause must be satisfied; a clause is satisfied when at
/// least one of its conditions holds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CnfQuery {
    /// Query identifier (unique within a registered workload).
    pub id: QueryId,
    /// The conjunctive clauses.
    pub clauses: Vec<Clause>,
}

impl CnfQuery {
    /// Creates a query from its clauses. Empty clauses are rejected by
    /// [`CnfQuery::validate`].
    pub fn new(id: QueryId, clauses: Vec<Clause>) -> Self {
        CnfQuery { id, clauses }
    }

    /// A query consisting of a single conjunction of conditions
    /// (each condition becomes its own clause).
    pub fn conjunction(id: QueryId, conditions: Vec<Condition>) -> Self {
        CnfQuery {
            id,
            clauses: conditions.into_iter().map(|c| vec![c]).collect(),
        }
    }

    /// Checks structural validity: at least one clause, no empty clause.
    pub fn validate(&self) -> Result<(), String> {
        if self.clauses.is_empty() {
            return Err("query has no clauses".to_owned());
        }
        if self.clauses.iter().any(|clause| clause.is_empty()) {
            return Err("query contains an empty clause".to_owned());
        }
        Ok(())
    }

    /// Number of conditions across all clauses.
    pub fn num_conditions(&self) -> usize {
        self.clauses.iter().map(|c| c.len()).sum()
    }

    /// Direct (index-free) evaluation against class counts; the inverted
    /// index implementation must agree with this.
    pub fn eval(&self, counts: &ClassCounts) -> bool {
        self.clauses
            .iter()
            .all(|clause| clause.iter().any(|c| c.eval(counts.count(c.class))))
    }

    /// Whether the query uses only `>=` conditions — the precondition for the
    /// result-pruning strategy of Section 5.3 (Proposition 1).
    pub fn is_geq_only(&self) -> bool {
        self.clauses.iter().flatten().all(|c| c.op == CmpOp::Ge)
    }

    /// All classes referenced by the query.
    pub fn classes(&self) -> Vec<ClassId> {
        let mut classes: Vec<ClassId> = self.clauses.iter().flatten().map(|c| c.class).collect();
        classes.sort_unstable();
        classes.dedup();
        classes
    }

    /// The smallest threshold among the query's conditions (the paper's
    /// `n_min` when aggregated over a workload).
    pub fn min_threshold(&self) -> Option<u32> {
        self.clauses.iter().flatten().map(|c| c.value).min()
    }

    /// Appends the query: id, then each clause as a list of
    /// `(class, operator tag, value)` conditions. Shared by the WAL's
    /// add-query record, the engine snapshot and the fleet catalog.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(self.id.0);
        enc.put_usize(self.clauses.len());
        for clause in &self.clauses {
            enc.put_usize(clause.len());
            for condition in clause {
                enc.put_u16(condition.class.raw());
                enc.put_u8(match condition.op {
                    CmpOp::Le => 0,
                    CmpOp::Eq => 1,
                    CmpOp::Ge => 2,
                });
                enc.put_u32(condition.value);
            }
        }
    }

    /// Reads a query written by [`encode`](Self::encode). Structural
    /// validity is the catalog's check ([`validate`](Self::validate)).
    pub fn decode(dec: &mut Decoder<'_>) -> tvq_common::Result<CnfQuery> {
        let id = QueryId(dec.take_u32()?);
        let clause_count = dec.take_len()?;
        let mut clauses = Vec::with_capacity(clause_count);
        for _ in 0..clause_count {
            let condition_count = dec.take_len()?;
            let mut clause = Vec::with_capacity(condition_count);
            for _ in 0..condition_count {
                let class = ClassId(dec.take_u16()?);
                let op = match dec.take_u8()? {
                    0 => CmpOp::Le,
                    1 => CmpOp::Eq,
                    2 => CmpOp::Ge,
                    other => {
                        return Err(Error::Codec(format!("unknown comparison tag {other}")));
                    }
                };
                clause.push(Condition::new(class, op, dec.take_u32()?));
            }
            clauses.push(clause);
        }
        Ok(CnfQuery::new(id, clauses))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn counts(pairs: &[(u16, u32)]) -> ClassCounts {
        let map: HashMap<ClassId, u32> = pairs.iter().map(|&(c, n)| (ClassId(c), n)).collect();
        ClassCounts::from_map(map)
    }

    /// `q2` from Section 5.2 of the paper.
    fn paper_q2() -> CnfQuery {
        let car = ClassId(1);
        let person = ClassId(0);
        CnfQuery::new(
            QueryId(2),
            vec![
                vec![Condition::at_least(car, 2), Condition::at_most(person, 3)],
                vec![Condition::at_least(car, 3), Condition::at_least(person, 2)],
                vec![Condition::at_most(car, 5)],
            ],
        )
    }

    #[test]
    fn paper_q2_evaluates_as_expected() {
        let q = paper_q2();
        assert!(q.validate().is_ok());
        assert_eq!(q.num_conditions(), 5);
        // 3 cars, 2 people: every clause holds.
        assert!(q.eval(&counts(&[(1, 3), (0, 2)])));
        // 2 cars, 1 person: clause 2 fails (needs car>=3 or person>=2).
        assert!(!q.eval(&counts(&[(1, 2), (0, 1)])));
        // 6 cars violate the last clause even though the others hold.
        assert!(!q.eval(&counts(&[(1, 6), (0, 2)])));
        // 0 cars, 0 people: first clause holds via person<=3, second fails.
        assert!(!q.eval(&counts(&[])));
    }

    #[test]
    fn conjunction_builder_makes_single_condition_clauses() {
        let q = CnfQuery::conjunction(
            QueryId(1),
            vec![
                Condition::at_least(ClassId(1), 2),
                Condition::at_least(ClassId(0), 1),
            ],
        );
        assert_eq!(q.clauses.len(), 2);
        assert!(q.eval(&counts(&[(1, 2), (0, 1)])));
        assert!(!q.eval(&counts(&[(1, 2)])));
    }

    #[test]
    fn validation_rejects_degenerate_queries() {
        assert!(CnfQuery::new(QueryId(0), vec![]).validate().is_err());
        assert!(CnfQuery::new(QueryId(0), vec![vec![]]).validate().is_err());
    }

    #[test]
    fn geq_only_detection() {
        assert!(!paper_q2().is_geq_only());
        let q = CnfQuery::conjunction(
            QueryId(3),
            vec![
                Condition::at_least(ClassId(1), 1),
                Condition::at_least(ClassId(2), 4),
            ],
        );
        assert!(q.is_geq_only());
    }

    #[test]
    fn classes_and_min_threshold() {
        let q = paper_q2();
        assert_eq!(q.classes(), vec![ClassId(0), ClassId(1)]);
        assert_eq!(q.min_threshold(), Some(2));
    }
}
