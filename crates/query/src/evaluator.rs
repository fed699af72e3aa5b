//! Inverted-index CNF evaluation (CNFEval / CNFEvalE, Section 5).
//!
//! Following Whang et al.'s boolean-expression indexing (the paper's
//! CNFEval), every condition is turned into a posting `(query id,
//! disjunction id)` stored in an inverted index keyed by the condition's
//! class. Equality conditions live in an exact-key index; the paper's
//! CNFEvalE extension adds two *ordered* indexes for `>=` and `<=`
//! conditions, scanned in value order so that only the satisfied prefix of
//! each posting list is touched. Given the class-count aggregates of an
//! MCOS, the evaluator collects the postings of all satisfied conditions,
//! counts distinct satisfied disjunctions per query, and reports the queries
//! whose every disjunction is covered.
//!
//! A state's answer depends only on its [`ClassCounts`], and films repeat a
//! few dozen count vectors, so [`evaluate_result_set`] and `any_satisfied`
//! answer through a memo keyed by the counts, filled from the uncached
//! `evaluate`. A catalog swap builds a fresh evaluator, `add_query` and a
//! clone start with an empty memo, so it is never invalidated; it is
//! emptied when it reaches 4,096 entries.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use tvq_common::{ClassCounts, ClassId, FrameId, FxHashMap, ObjectSet, QueryId};
use tvq_core::ResultStateSet;

use crate::cnf::CnfQuery;
use crate::condition::CmpOp;

/// One posting: the condition belongs to disjunction `disjunction` of query
/// `query`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Posting {
    query: usize,
    disjunction: u32,
}

/// Ordered posting list for one class: `(threshold, postings)` sorted by
/// threshold.
#[derive(Debug, Default, Clone)]
struct OrderedIndex {
    /// Sorted ascending by threshold; for `>=` conditions all entries with
    /// threshold <= count are satisfied, for `<=` conditions all entries with
    /// threshold >= count are satisfied (scanned from the tail).
    entries: Vec<(u32, Vec<Posting>)>,
}

impl OrderedIndex {
    fn insert(&mut self, threshold: u32, posting: Posting) {
        match self.entries.binary_search_by_key(&threshold, |&(t, _)| t) {
            Ok(idx) => self.entries[idx].1.push(posting),
            Err(idx) => self.entries.insert(idx, (threshold, vec![posting])),
        }
    }
}

/// Memo entries at which the memo is emptied before the next insert.
const MEMO_CAP: usize = 4096;

type Answers = FxHashMap<ClassCounts, Arc<[QueryId]>>;

/// The memo of satisfied queries by class counts (see the module doc).
#[derive(Debug, Default)]
struct Memo(Mutex<Answers>);

impl Clone for Memo {
    fn clone(&self) -> Self {
        Memo::default()
    }
}

/// The CNF evaluator holding the registered queries and their inverted
/// indexes.
#[derive(Debug, Clone, Default)]
pub struct CnfEvaluator {
    queries: Vec<CnfQuery>,
    /// Number of disjunctions per query (satisfaction target).
    clause_counts: Vec<u32>,
    /// First mask word of each query's clause-coverage run (see
    /// [`evaluate`](Self::evaluate)): query `q` owns the words
    /// `mask_offsets[q] .. mask_offsets[q] + ceil(clause_counts[q] / 64)`.
    mask_offsets: Vec<u32>,
    /// Total mask words across all registered queries.
    mask_words: usize,
    /// Equality index: (class, value) → postings.
    eq_index: FxHashMap<(ClassId, u32), Vec<Posting>>,
    /// `>=` index per class, ordered ascending by threshold.
    ge_index: FxHashMap<ClassId, OrderedIndex>,
    /// `<=` index per class, ordered ascending by threshold.
    le_index: FxHashMap<ClassId, OrderedIndex>,
    memo: Memo,
}

/// Mask words needed to give every one of `clauses` disjunctions its own bit.
fn words_for(clauses: u32) -> usize {
    (clauses as usize).div_ceil(64)
}

impl CnfEvaluator {
    /// Builds the evaluator (and its inverted indexes) for a query workload.
    pub fn new(queries: Vec<CnfQuery>) -> Self {
        let mut evaluator = CnfEvaluator::default();
        for query in queries {
            evaluator.add_query(query);
        }
        evaluator
    }

    /// Registers one more query, extending the indexes incrementally.
    pub fn add_query(&mut self, query: CnfQuery) {
        self.memo = Memo::default();
        let query_index = self.queries.len();
        let clauses = query.clauses.len() as u32;
        self.clause_counts.push(clauses);
        self.mask_offsets.push(self.mask_words as u32);
        self.mask_words += words_for(clauses);
        for (disjunction, clause) in query.clauses.iter().enumerate() {
            for condition in clause {
                let posting = Posting {
                    query: query_index,
                    disjunction: disjunction as u32,
                };
                match condition.op {
                    CmpOp::Eq => self
                        .eq_index
                        .entry((condition.class, condition.value))
                        .or_default()
                        .push(posting),
                    CmpOp::Ge => self
                        .ge_index
                        .entry(condition.class)
                        .or_default()
                        .insert(condition.value, posting),
                    CmpOp::Le => self
                        .le_index
                        .entry(condition.class)
                        .or_default()
                        .insert(condition.value, posting),
                }
            }
        }
        self.queries.push(query);
    }

    /// The registered queries.
    pub fn queries(&self) -> &[CnfQuery] {
        &self.queries
    }

    /// Number of registered queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether no queries are registered.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Evaluates all queries against one set of class counts, returning the
    /// identifiers of the satisfied queries.
    ///
    /// This is the CNFEvalE procedure: postings of satisfied conditions are
    /// gathered from the three indexes, then disjunction coverage is counted
    /// per query. Classes that appear in `<=` or `=` conditions but not in
    /// the input aggregate are treated as count 0.
    pub fn evaluate(&self, counts: &ClassCounts) -> Vec<QueryId> {
        // Every query owns a run of mask words (one bit per disjunction) at
        // `mask_offsets[query]`, so a >64-clause query's bits never alias.
        // Workloads are small, so the words usually live on the stack.
        const STACK_WORDS: usize = 64;
        let mut stack = [0u64; STACK_WORDS];
        let mut heap: Vec<u64>;
        let masks: &mut [u64] = if self.mask_words <= STACK_WORDS {
            &mut stack[..self.mask_words]
        } else {
            heap = vec![0u64; self.mask_words];
            &mut heap
        };
        let offsets = &self.mask_offsets;
        let mut record = |posting: &Posting| {
            let word = offsets[posting.query] as usize + (posting.disjunction >> 6) as usize;
            masks[word] |= 1u64 << (posting.disjunction & 63);
        };

        // >= conditions: thresholds up to and including the observed count.
        for (&class, index) in &self.ge_index {
            let count = counts.count(class);
            for (threshold, postings) in &index.entries {
                if *threshold > count {
                    break;
                }
                postings.iter().for_each(&mut record);
            }
        }
        // <= conditions: thresholds down to and including the observed count;
        // absent classes count as zero and satisfy every <= condition.
        for (&class, index) in &self.le_index {
            let count = counts.count(class);
            for (threshold, postings) in index.entries.iter().rev() {
                if *threshold < count {
                    break;
                }
                postings.iter().for_each(&mut record);
            }
        }
        // = conditions: exact key lookup (including zero counts).
        for (&(class, value), postings) in &self.eq_index {
            if counts.count(class) == value {
                postings.iter().for_each(&mut record);
            }
        }

        let mut result: Vec<QueryId> = Vec::new();
        for (query, clauses) in self.clause_counts.iter().copied().enumerate() {
            let start = self.mask_offsets[query] as usize;
            let satisfied: u32 = masks[start..start + words_for(clauses)]
                .iter()
                .map(|word| word.count_ones())
                .sum();
            // Exact coverage: every disjunction owns exactly one bit, so a
            // query matches iff all of its clauses set theirs.
            if clauses > 0 && satisfied == clauses {
                result.push(self.queries[query].id);
            }
        }
        result.sort_unstable();
        result
    }

    /// Whether at least one registered query is satisfied by the counts.
    pub fn any_satisfied(&self, counts: &ClassCounts) -> bool {
        !self.answer(&mut self.memo(), counts).is_empty()
    }

    /// Locks the memo (entries are inserted whole, so poison is harmless).
    fn memo(&self) -> MutexGuard<'_, Answers> {
        self.memo.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// `evaluate`'s answer for `counts`, from the memo or computed into it.
    fn answer(&self, memo: &mut Answers, counts: &ClassCounts) -> Arc<[QueryId]> {
        if let Some(answer) = memo.get(counts) {
            return Arc::clone(answer);
        }
        if memo.len() >= MEMO_CAP {
            memo.clear();
        }
        let answer: Arc<[QueryId]> = self.evaluate(counts).into();
        memo.insert(counts.clone(), Arc::clone(&answer));
        answer
    }
}

/// One query match: a query satisfied by an MCOS over a set of frames.
///
/// The frame set is shared (`Arc`) with the Result State Set entry it came
/// from: producing a match allocates nothing beyond the match struct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryMatch {
    /// The satisfied query.
    pub query: QueryId,
    /// The maximum co-occurrence object set that satisfied it.
    pub objects: ObjectSet,
    /// The window frames in which the object set co-occurs.
    pub frames: Arc<[FrameId]>,
}

/// Evaluates a Result State Set against the workload (steps 2(a)-2(c) of the
/// Section 5.2 procedure): each state's MCOS is aggregated by class and fed
/// to the evaluator; every satisfied query yields a [`QueryMatch`] carrying
/// the state's frame set.
///
/// When a result entry carries the class counts its producing maintainer
/// keeps for the reported set, those are used directly; otherwise the aggregate
/// is computed from `classes` on the spot. Answers come from the memo.
pub fn evaluate_result_set<S: std::hash::BuildHasher>(
    evaluator: &CnfEvaluator,
    results: &ResultStateSet,
    classes: &HashMap<tvq_common::ObjectId, ClassId, S>,
) -> Vec<QueryMatch> {
    let answers: Vec<Arc<[QueryId]>> = {
        let mut memo = evaluator.memo();
        results
            .iter_with_counts()
            .map(|(objects, _, cached)| match cached {
                Some(counts) => evaluator.answer(&mut memo, counts),
                None => evaluator.answer(&mut memo, &ClassCounts::of(objects, classes)),
            })
            .collect()
    };
    let mut matches = Vec::with_capacity(answers.iter().map(|a| a.len()).sum());
    for ((objects, frames, _), queries) in results.iter_with_counts().zip(&answers) {
        matches.extend(queries.iter().map(|&query| QueryMatch {
            query,
            objects: objects.clone(),
            frames: Arc::clone(frames),
        }));
    }
    matches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use tvq_common::ObjectId;

    fn counts(pairs: &[(u16, u32)]) -> ClassCounts {
        ClassCounts::from_map(pairs.iter().map(|&(c, n)| (ClassId(c), n)).collect())
    }

    /// `q2` from Section 5.2 and the two ordered indexes of Tables 4 and 5.
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
    fn index_evaluation_matches_direct_evaluation_for_paper_q2() {
        let evaluator = CnfEvaluator::new(vec![paper_q2()]);
        let query = paper_q2();
        for cars in 0..8u32 {
            for people in 0..5u32 {
                let counts = counts(&[(1, cars), (0, people)]);
                let direct = query.eval(&counts);
                let indexed = !evaluator.evaluate(&counts).is_empty();
                assert_eq!(
                    direct, indexed,
                    "disagreement at cars={cars}, people={people}"
                );
            }
        }
    }

    #[test]
    fn multiple_queries_report_their_ids() {
        let car = ClassId(1);
        let person = ClassId(0);
        let q10 = CnfQuery::conjunction(QueryId(10), vec![Condition::at_least(car, 1)]);
        let q11 = CnfQuery::conjunction(QueryId(11), vec![Condition::at_least(person, 2)]);
        let q12 = CnfQuery::conjunction(QueryId(12), vec![Condition::exactly(car, 0)]);
        let evaluator = CnfEvaluator::new(vec![q10, q11, q12]);
        assert_eq!(evaluator.len(), 3);
        assert_eq!(
            evaluator.evaluate(&counts(&[(1, 2), (0, 2)])),
            vec![QueryId(10), QueryId(11)]
        );
        assert_eq!(evaluator.evaluate(&counts(&[(0, 1)])), vec![QueryId(12)]);
        assert_eq!(evaluator.evaluate(&counts(&[])), vec![QueryId(12)]);
    }

    #[test]
    fn zero_counts_satisfy_le_and_eq_zero_conditions() {
        let truck = ClassId(2);
        let q = CnfQuery::conjunction(QueryId(0), vec![Condition::at_most(truck, 0)]);
        let evaluator = CnfEvaluator::new(vec![q]);
        assert!(evaluator.any_satisfied(&counts(&[])));
        assert!(!evaluator.any_satisfied(&counts(&[(2, 1)])));
    }

    #[test]
    fn geq_only_detection_over_workload() {
        let car = ClassId(1);
        let geq = CnfQuery::conjunction(QueryId(0), vec![Condition::at_least(car, 1)]);
        let mixed = paper_q2();
        let applies = |queries: Vec<CnfQuery>| {
            crate::prune::pruning_applies(CnfEvaluator::new(queries).queries())
        };
        assert!(applies(vec![geq.clone()]));
        assert!(!applies(vec![geq, mixed]));
        assert!(!applies(Vec::new()));
    }

    #[test]
    fn evaluate_result_set_produces_matches_with_frames() {
        let car = ClassId(1);
        let person = ClassId(0);
        let classes: HashMap<ObjectId, ClassId> = [
            (ObjectId(1), car),
            (ObjectId(2), car),
            (ObjectId(3), person),
        ]
        .into_iter()
        .collect();
        let q = CnfQuery::conjunction(
            QueryId(5),
            vec![Condition::at_least(car, 2), Condition::at_least(person, 1)],
        );
        let evaluator = CnfEvaluator::new(vec![q]);

        let mut results = ResultStateSet::new();
        let frames: tvq_common::MarkedFrameSet = [(FrameId(3), true), (FrameId(4), false)]
            .into_iter()
            .collect();
        results.insert(ObjectSet::from_raw([1, 2, 3]), &frames, None);
        results.insert(ObjectSet::from_raw([1, 3]), &frames, None);

        let matches = evaluate_result_set(&evaluator, &results, &classes);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].query, QueryId(5));
        assert_eq!(matches[0].objects, ObjectSet::from_raw([1, 2, 3]));
        assert_eq!(matches[0].frames.as_ref(), &[FrameId(3), FrameId(4)]);
    }

    /// Regression for the 64-clause mask boundary: with single-word masks,
    /// clause 64 aliased onto clause 0's bit (`disjunction % 64`) while the
    /// satisfaction target was capped at `min(64)`, so a 65-clause query
    /// with clause 0 *unsatisfied* still false-matched once clauses 1..=64
    /// covered 64 distinct bits. Multi-word masks give every clause its own
    /// bit and demand exact coverage.
    #[test]
    fn sixty_five_clause_query_does_not_alias_disjunction_bits() {
        let clauses: Vec<Vec<Condition>> = (0..65u16)
            .map(|class| vec![Condition::at_least(ClassId(class), 1)])
            .collect();
        let query = CnfQuery::new(QueryId(7), clauses);
        let evaluator = CnfEvaluator::new(vec![query.clone()]);
        // Classes 1..=64 present, class 0 absent: clauses 1..=64 satisfied,
        // clause 0 not — the query must NOT match.
        let partial = counts(&(1..=64u16).map(|c| (c, 1)).collect::<Vec<_>>());
        assert!(!query.eval(&partial));
        assert!(
            evaluator.evaluate(&partial).is_empty(),
            "aliased disjunction bits reported a false match"
        );
        // All 65 classes present: the query matches.
        let full = counts(&(0..65u16).map(|c| (c, 1)).collect::<Vec<_>>());
        assert!(query.eval(&full));
        assert_eq!(evaluator.evaluate(&full), vec![QueryId(7)]);
    }

    /// Sweeps clause counts across the word boundary (and multiple words)
    /// with exactly one clause left unsatisfied each time.
    #[test]
    fn wide_queries_agree_with_direct_evaluation_at_word_boundaries() {
        for num_clauses in [63u16, 64, 65, 127, 128, 129, 200] {
            let clauses: Vec<Vec<Condition>> = (0..num_clauses)
                .map(|class| vec![Condition::at_least(ClassId(class), 1)])
                .collect();
            let query = CnfQuery::new(QueryId(1), clauses);
            // A narrow decoy shares the evaluator so mask offsets are
            // exercised with heterogeneous widths.
            let decoy = CnfQuery::conjunction(QueryId(0), vec![Condition::at_least(ClassId(0), 1)]);
            let evaluator = CnfEvaluator::new(vec![decoy, query.clone()]);
            for missing in [0, num_clauses / 2, num_clauses - 1] {
                let sample = counts(
                    &(0..num_clauses)
                        .filter(|&c| c != missing)
                        .map(|c| (c, 1))
                        .collect::<Vec<_>>(),
                );
                assert!(!query.eval(&sample));
                let satisfied = evaluator.evaluate(&sample);
                assert!(
                    !satisfied.contains(&QueryId(1)),
                    "{num_clauses} clauses, clause {missing} unsatisfied: false match"
                );
                assert_eq!(
                    satisfied.contains(&QueryId(0)),
                    missing != 0,
                    "decoy disagreement at {num_clauses}/{missing}"
                );
            }
            let all = counts(&(0..num_clauses).map(|c| (c, 1)).collect::<Vec<_>>());
            assert_eq!(evaluator.evaluate(&all), vec![QueryId(0), QueryId(1)]);
        }
    }

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random workload of up to 5 queries with up to 3 clauses of up to 3
    /// conditions each, over classes 0..4 and values 0..5.
    fn random_workload(rng: &mut StdRng) -> Vec<CnfQuery> {
        (0..rng.gen_range(1..=5))
            .map(|qid| {
                let clauses: Vec<Vec<Condition>> = (0..rng.gen_range(1..=3))
                    .map(|_| {
                        (0..rng.gen_range(1..=3))
                            .map(|_| {
                                let op = match rng.gen_range(0..3) {
                                    0 => CmpOp::Le,
                                    1 => CmpOp::Eq,
                                    _ => CmpOp::Ge,
                                };
                                Condition::new(
                                    ClassId(rng.gen_range(0..4)),
                                    op,
                                    rng.gen_range(0..5),
                                )
                            })
                            .collect()
                    })
                    .collect();
                CnfQuery::new(QueryId(qid), clauses)
            })
            .collect()
    }

    fn random_counts(rng: &mut StdRng) -> ClassCounts {
        counts(&[
            (0, rng.gen_range(0..6)),
            (1, rng.gen_range(0..6)),
            (2, rng.gen_range(0..6)),
            (3, rng.gen_range(0..6)),
        ])
    }

    fn direct(queries: &[CnfQuery], counts: &ClassCounts) -> Vec<QueryId> {
        queries
            .iter()
            .filter(|q| q.eval(counts))
            .map(|q| q.id)
            .collect()
    }

    #[test]
    fn randomised_equivalence_with_direct_evaluation() {
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..200 {
            let queries = random_workload(&mut rng);
            let evaluator = CnfEvaluator::new(queries.clone());
            let sample = random_counts(&mut rng);
            assert_eq!(evaluator.evaluate(&sample), direct(&queries, &sample));
        }
    }

    /// The memo answers exactly what `CnfQuery::eval` does: on the first
    /// lookup of a count vector, on repeated lookups (vectors are drawn
    /// from a small pool, so most are hits), and through a result set
    /// whose states share counts.
    #[test]
    fn memoized_answers_agree_with_direct_evaluation() {
        let mut rng = StdRng::seed_from_u64(34);
        for _ in 0..100 {
            let queries = random_workload(&mut rng);
            let evaluator = CnfEvaluator::new(queries.clone());
            let pool: Vec<ClassCounts> = (0..6).map(|_| random_counts(&mut rng)).collect();
            for _ in 0..40 {
                let sample = &pool[rng.gen_range(0..pool.len())];
                let expected = direct(&queries, sample);
                assert_eq!(evaluator.any_satisfied(sample), !expected.is_empty());
            }
            let mut results = ResultStateSet::new();
            let frames: tvq_common::MarkedFrameSet = [(FrameId(1), true)].into_iter().collect();
            let mut expected = Vec::new();
            for object in 0..12u32 {
                let sample = &pool[rng.gen_range(0..pool.len())];
                let objects = ObjectSet::from_raw([object]);
                for query in direct(&queries, sample) {
                    expected.push((query, objects.clone()));
                }
                results.insert(objects, &frames, Some(Arc::new(sample.clone())));
            }
            expected.sort_by(|a, b| a.1.cmp(&b.1));
            for _ in 0..2 {
                let got: Vec<(QueryId, ObjectSet)> =
                    evaluate_result_set(&evaluator, &results, &HashMap::<ObjectId, ClassId>::new())
                        .into_iter()
                        .map(|m| (m.query, m.objects))
                        .collect();
                assert_eq!(got, expected);
            }
            assert!(evaluator.memo().len() <= pool.len());
        }
    }

    /// More distinct count vectors than the memo holds: it empties at the
    /// cap and keeps answering correctly, on misses and hits alike.
    #[test]
    fn memo_stays_bounded_and_correct_across_the_cap() {
        let mut rng = StdRng::seed_from_u64(4096);
        let queries = random_workload(&mut rng);
        let evaluator = CnfEvaluator::new(queries.clone());
        // 6^5 = 7,776 distinct vectors over classes 0..5, swept twice.
        let all: Vec<ClassCounts> = (0..6u32.pow(5))
            .map(|n| {
                counts(
                    &(0..5u16)
                        .map(|c| (c, n / 6u32.pow(c.into()) % 6))
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut peak = 0;
        for sample in all.iter().chain(&all) {
            assert_eq!(
                evaluator.any_satisfied(sample),
                !direct(&queries, sample).is_empty()
            );
            peak = peak.max(evaluator.memo().len());
        }
        assert_eq!(peak, MEMO_CAP);
        // `add_query` changes the query set, so it empties the memo.
        let mut grown = evaluator.clone();
        assert_eq!(grown.memo().len(), 0, "a clone starts empty");
        grown.any_satisfied(&all[0]);
        grown.add_query(CnfQuery::conjunction(
            QueryId(9),
            vec![Condition::at_most(ClassId(0), 5)],
        ));
        assert_eq!(grown.memo().len(), 0);
        assert!(grown.any_satisfied(&all[0]));
    }
}
