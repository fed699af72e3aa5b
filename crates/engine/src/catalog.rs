//! The versioned, swappable query catalog.
//!
//! Queries register and cancel *while feeds run*. [`QueryCatalog`] makes
//! the query set itself a piece of versioned state: every [`add_query`] /
//! [`remove_query`] edits the master query list, and the ops since the last
//! frame are published as one snapshot, built when the next frame reads it
//! — a fresh immutable [`CatalogSnapshot`] (rebuilt evaluator, recomputed
//! relevant-class set, re-derived ≥-only pruning decision) written
//! atomically to a shared cell that the engine's live pruner reads.
//!
//! # Convergence contract
//!
//! A swap is applied *between* frames, never within one, so determinism is
//! untouched; what changes is which queries the following frames evaluate.
//! The exact equivalence with a fresh engine built from the final query set
//! is asymmetric:
//!
//! * **removals** are immediately invisible to the surviving queries: the
//!   evaluator simply stops reporting the removed ids, and clearing pruner
//!   verdicts only ever *widens* pruning, which Proposition 1 (downward
//!   monotonicity of ≥-only workloads) makes invisible;
//! * **additions** converge after one full window turnover: states the old
//!   catalog terminated — and objects its relevant-class filter dropped —
//!   cannot be resurrected retroactively, but every state born after the
//!   swap is judged (and every detection filtered) under the new catalog,
//!   so once the window has slid past the swap point the engine is
//!   indistinguishable from a fresh one.
//!
//! The differential suite (`tests/catalog_dynamic.rs`) pins both halves
//! down.
//!
//! [`add_query`]: QueryCatalog::add_query
//! [`remove_query`]: QueryCatalog::remove_query

use std::sync::{Arc, PoisonError, RwLock};

use tvq_common::{ClassId, ClassRegistry, Decoder, Encoder, Error, FxHashSet, QueryId, Result};
use tvq_query::prune::pruning_applies;
use tvq_query::{CnfEvaluator, CnfQuery};

/// One immutable version of the query workload: the evaluator (whose mask
/// slots are keyed for exactly this query set), the classes any query
/// mentions, and whether the Section 5.3 pruning strategy applies.
#[derive(Debug)]
pub struct CatalogSnapshot {
    version: u64,
    evaluator: Arc<CnfEvaluator>,
    relevant_classes: FxHashSet<ClassId>,
    prune_active: bool,
}

impl CatalogSnapshot {
    fn build(version: u64, queries: Vec<CnfQuery>) -> Self {
        let relevant_classes: FxHashSet<ClassId> =
            queries.iter().flat_map(|q| q.classes()).collect();
        let prune_active = pruning_applies(&queries);
        CatalogSnapshot {
            version,
            evaluator: Arc::new(CnfEvaluator::new(queries)),
            relevant_classes,
            prune_active,
        }
    }

    /// The snapshot's version (0 for the catalog an engine was built with;
    /// each swap increments it by one).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The evaluator for exactly this query set.
    pub fn evaluator(&self) -> &Arc<CnfEvaluator> {
        &self.evaluator
    }

    /// The registered queries.
    pub fn queries(&self) -> &[CnfQuery] {
        self.evaluator.queries()
    }

    /// Classes mentioned by at least one registered query; detections of
    /// any other class are dropped before MCOS generation (Section 3).
    pub fn relevant_classes(&self) -> &FxHashSet<ClassId> {
        &self.relevant_classes
    }

    /// Whether the ≥-only pruning strategy may terminate states under this
    /// catalog ([`pruning_applies`] to its queries).
    pub fn prune_active(&self) -> bool {
        self.prune_active
    }
}

/// The shared cell a [`QueryCatalog`]'s owner and its pruner read the
/// current snapshot through. Readers clone the inner `Arc` (cheap) and
/// never hold the lock across real work.
pub type SharedCatalog = Arc<RwLock<Arc<CatalogSnapshot>>>;

/// The engine-side handle: owns the master query list, numbers versions,
/// and publishes snapshots. It holds the catalog rules, for both engines:
/// queries validate, ids are unique, the next id is max + 1, removing an
/// unknown id is an error, and a failed op leaves the catalog untouched.
/// An op only edits the master list, which everything but
/// [`snapshot`](Self::snapshot) reads; `snapshot` publishes the ops since
/// the last one as one snapshot. The owner is the cell's only writer, so it
/// also keeps a lock-free copy of that snapshot for the per-frame hot path.
#[derive(Debug)]
pub struct QueryCatalog {
    cell: SharedCatalog,
    /// The last published snapshot: the cell's value.
    current: Arc<CatalogSnapshot>,
    /// The master query list once an op has made it differ from
    /// `current`'s; the next snapshot takes it.
    pending: Option<Vec<CnfQuery>>,
    version: u64,
    /// Version the catalog was seeded at (swaps applied *here* = version -
    /// seed; a [`fork`](Self::fork) is seeded at the version it forks).
    seed_version: u64,
}

impl QueryCatalog {
    /// Validates the queries (well-formed CNF, unique ids) and builds
    /// version `seed` of the catalog.
    pub fn new(queries: Vec<CnfQuery>, seed: u64) -> Result<Self> {
        let mut seen: FxHashSet<QueryId> = FxHashSet::default();
        for query in &queries {
            query.validate().map_err(Error::InvalidConfig)?;
            if !seen.insert(query.id) {
                return Err(Error::InvalidConfig(format!(
                    "duplicate query id {:?}",
                    query.id
                )));
            }
        }
        Ok(Self::at(seed, queries))
    }

    /// Version `version` of already-validated `queries`, seeded there.
    fn at(version: u64, queries: Vec<CnfQuery>) -> Self {
        let current = Arc::new(CatalogSnapshot::build(version, queries));
        QueryCatalog {
            cell: Arc::new(RwLock::new(Arc::clone(&current))),
            current,
            pending: None,
            version,
            seed_version: version,
        }
    }

    /// A fresh catalog of this one's queries at its version: seeded there,
    /// so it counts no swaps, with its own evaluator and answer memo. The
    /// multi-feed engine builds each per-feed engine on a fork of its
    /// master catalog, so no two feeds share a memo's lock.
    pub(crate) fn fork(&self) -> Self {
        Self::at(self.version, self.queries().to_vec())
    }

    /// Parses `text` as the query that follows `queries`, minting the
    /// smallest id above every id in use and registering new class labels
    /// into `registry`. Fails when a query holds id `u32::MAX`. Shared by
    /// both builders and both engines' `add_query_text`.
    pub(crate) fn parse(
        queries: &[CnfQuery],
        text: &str,
        registry: &mut ClassRegistry,
    ) -> Result<CnfQuery> {
        let max = queries.iter().map(|q| q.id.0).max();
        let id = (max.map_or(Some(0), |id| id.checked_add(1)))
            .ok_or_else(|| Error::InvalidConfig("query id space exhausted".into()))?;
        tvq_query::parse_query(text, QueryId(id), registry)
    }

    /// Appends the catalog: version, seed and the registered queries.
    /// Persisting the seed keeps [`swaps`](Self::swaps) (version − seed)
    /// exact across restarts.
    pub(crate) fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.version);
        enc.put_u64(self.seed_version);
        enc.put_usize(self.queries().len());
        for query in self.queries() {
            query.encode(enc);
        }
    }

    /// Reads a catalog written by [`encode`](Self::encode): the query set
    /// at its version, still counting swaps from the persisted seed — a
    /// recovered engine reports the same swap count as one that never
    /// restarted. A query set [`new`](Self::new) would refuse is corrupt.
    pub(crate) fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        let version = dec.take_u64()?;
        let seed_version = dec.take_u64()?;
        if seed_version > version {
            return Err(Error::Corrupt(format!(
                "catalog seed {seed_version} exceeds version {version}"
            )));
        }
        let count = dec.take_len()?;
        let mut queries = Vec::with_capacity(count);
        for _ in 0..count {
            queries.push(CnfQuery::decode(dec)?);
        }
        let mut catalog = QueryCatalog::new(queries, version)
            .map_err(|e| Error::Corrupt(format!("snapshot catalog: {e}")))?;
        catalog.seed_version = seed_version;
        Ok(catalog)
    }

    /// The current snapshot. Publishes first when ops are pending: builds
    /// one snapshot of the master list and writes it to the shared cell.
    /// Otherwise lock-free: the owner's copy of what it last published.
    pub fn snapshot(&mut self) -> &Arc<CatalogSnapshot> {
        if let Some(queries) = self.pending.take() {
            let next = Arc::new(CatalogSnapshot::build(self.version, queries));
            // Snapshots are immutable, so a poisoned cell still holds a
            // usable Arc; recover the guard rather than cascade the panic.
            *self.cell.write().unwrap_or_else(PoisonError::into_inner) = Arc::clone(&next);
            self.current = next;
        }
        &self.current
    }

    /// The shared cell, for wiring a [`LivePruner`](crate::engine) or any
    /// other follower that must observe swaps.
    pub fn shared(&self) -> SharedCatalog {
        Arc::clone(&self.cell)
    }

    /// The registered queries (the master list, current after every op).
    pub fn queries(&self) -> &[CnfQuery] {
        self.pending.as_deref().unwrap_or(self.current.queries())
    }

    /// Bumps the version and returns the master list for the op to edit:
    /// the first op after a publish copies it out of the published snapshot.
    fn next_version(&mut self) -> &mut Vec<CnfQuery> {
        self.version += 1;
        let current = &self.current;
        self.pending
            .get_or_insert_with(|| current.queries().to_vec())
    }

    /// The current version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Swaps applied through *this* handle (version minus seed).
    pub fn swaps(&self) -> u64 {
        self.version - self.seed_version
    }

    /// Whether the ≥-only pruning strategy applies to the registered
    /// queries (what the next snapshot's
    /// [`prune_active`](CatalogSnapshot::prune_active) will say).
    pub fn prune_active(&self) -> bool {
        pruning_applies(self.queries())
    }

    /// Registers a query as the next catalog version, published at the
    /// next [`snapshot`](Self::snapshot). Fails (leaving the catalog
    /// untouched) if the query is malformed or its id is taken.
    pub fn add_query(&mut self, query: CnfQuery) -> Result<()> {
        query.validate().map_err(Error::InvalidConfig)?;
        if self.queries().iter().any(|q| q.id == query.id) {
            return Err(Error::InvalidConfig(format!(
                "query id {:?} is already registered",
                query.id
            )));
        }
        self.next_version().push(query);
        Ok(())
    }

    /// Cancels a query by id as the next catalog version, published at the
    /// next [`snapshot`](Self::snapshot). Fails (leaving the catalog
    /// untouched) if the id is unknown.
    pub fn remove_query(&mut self, id: QueryId) -> Result<()> {
        let index = (self.queries().iter().position(|q| q.id == id))
            .ok_or_else(|| Error::InvalidConfig(format!("unknown query id {id:?}")))?;
        self.next_version().remove(index);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvq_query::Condition;

    fn geq(id: u32, class: u16, n: u32) -> CnfQuery {
        CnfQuery::conjunction(
            QueryId(id),
            vec![Condition::at_least(tvq_common::ClassId(class), n)],
        )
    }

    #[test]
    fn swaps_version_and_rekey_the_evaluator() {
        let mut catalog = QueryCatalog::new(vec![geq(0, 1, 1)], 0).unwrap();
        assert_eq!(catalog.version(), 0);
        assert!(catalog.snapshot().prune_active());
        catalog.add_query(geq(1, 0, 2)).unwrap();
        assert_eq!(catalog.version(), 1);
        assert_eq!(catalog.snapshot().queries().len(), 2);
        catalog.remove_query(QueryId(0)).unwrap();
        assert_eq!(catalog.version(), 2);
        assert_eq!(catalog.swaps(), 2);
        assert_eq!(catalog.snapshot().queries()[0].id, QueryId(1));
        // Relevant classes follow the surviving queries.
        assert!(!catalog
            .snapshot()
            .relevant_classes()
            .contains(&tvq_common::ClassId(1)));
    }

    #[test]
    fn followers_observe_swaps_through_the_shared_cell() {
        let mut catalog = QueryCatalog::new(vec![geq(0, 1, 1)], 0).unwrap();
        let cell = catalog.shared();
        catalog.add_query(geq(1, 1, 3)).unwrap();
        // The op is not published until the owner next reads the snapshot.
        assert_eq!(cell.read().unwrap().version(), 0);
        catalog.snapshot();
        assert_eq!(cell.read().unwrap().version(), 1);
        assert_eq!(cell.read().unwrap().queries().len(), 2);
    }

    /// Registering n queries builds one snapshot, not n: no op replaces the
    /// cell's `Arc`, and the next `snapshot` replaces it exactly once.
    #[test]
    fn ops_publish_nothing_until_the_next_snapshot() {
        let mut catalog = QueryCatalog::new(Vec::new(), 0).unwrap();
        let cell = catalog.shared();
        let published = Arc::clone(&cell.read().unwrap());
        for id in 0..2_000 {
            catalog
                .add_query(geq(id, (id % 7) as u16, 1 + id % 3))
                .unwrap();
            assert!(Arc::ptr_eq(&cell.read().unwrap(), &published));
        }
        for id in (0..2_000).step_by(2) {
            catalog.remove_query(QueryId(id)).unwrap();
            assert!(Arc::ptr_eq(&cell.read().unwrap(), &published));
        }
        assert_eq!((catalog.version(), catalog.queries().len()), (3_000, 1_000));
        let snapshot = Arc::clone(catalog.snapshot());
        assert!(!Arc::ptr_eq(&snapshot, &published));
        assert!(Arc::ptr_eq(&cell.read().unwrap(), &snapshot));
        assert_eq!(snapshot.version(), 3_000);
        assert_eq!(snapshot.queries(), catalog.queries());
        // Nothing pending: the next read publishes nothing.
        assert!(Arc::ptr_eq(catalog.snapshot(), &snapshot));
        assert!(Arc::ptr_eq(&cell.read().unwrap(), &snapshot));
    }

    #[test]
    fn rejects_duplicates_and_unknown_removals() {
        let mut catalog = QueryCatalog::new(vec![geq(0, 1, 1)], 0).unwrap();
        assert!(catalog.add_query(geq(0, 0, 1)).is_err());
        assert!(catalog.remove_query(QueryId(9)).is_err());
        assert_eq!(catalog.version(), 0, "failed ops do not bump the version");
        assert!(QueryCatalog::new(vec![geq(0, 1, 1), geq(0, 0, 1)], 0).is_err());
    }

    #[test]
    fn empty_catalog_never_prunes() {
        let mut catalog = QueryCatalog::new(Vec::new(), 0).unwrap();
        assert!(!catalog.snapshot().prune_active());
        catalog.add_query(geq(0, 1, 1)).unwrap();
        assert!(catalog.snapshot().prune_active());
        // Mixed polarity turns pruning back off; removal restores it.
        let le = CnfQuery::conjunction(
            QueryId(1),
            vec![Condition::at_most(tvq_common::ClassId(0), 2)],
        );
        catalog.add_query(le).unwrap();
        assert!(!catalog.snapshot().prune_active());
        catalog.remove_query(QueryId(1)).unwrap();
        assert!(catalog.snapshot().prune_active());
    }

    /// [`QueryCatalog::parse`] mints the smallest id above every id in use,
    /// and refuses once id `u32::MAX` is taken.
    #[test]
    fn next_query_id_refuses_to_wrap_past_u32_max() {
        let mut registry = ClassRegistry::with_default_classes();
        let mut parse = |catalog: &QueryCatalog| {
            QueryCatalog::parse(catalog.queries(), "bicycle >= 1", &mut registry).map(|q| q.id)
        };
        let mut catalog = QueryCatalog::new(Vec::new(), 0).unwrap();
        assert_eq!(parse(&catalog).unwrap(), QueryId(0));
        catalog.add_query(geq(u32::MAX, 1, 1)).unwrap();
        assert!(matches!(
            parse(&catalog),
            Err(Error::InvalidConfig(msg)) if msg == "query id space exhausted"
        ));
        catalog.add_query(geq(7, 1, 1)).unwrap();
        assert!(parse(&catalog).is_err());
        catalog.remove_query(QueryId(u32::MAX)).unwrap();
        assert_eq!(parse(&catalog).unwrap(), QueryId(8));
        catalog.add_query(geq(1_999, 1, 1)).unwrap();
        assert_eq!(parse(&catalog).unwrap(), QueryId(2_000));
    }

    /// Each swap's evaluator answers for its own query set: counts answered
    /// (and memoized) before `add_query` / `remove_query` are re-evaluated
    /// by the new snapshot, while the old snapshot keeps its answers.
    #[test]
    fn swaps_do_not_serve_answers_memoized_by_the_old_snapshot() {
        let counts = tvq_common::ClassCounts::from_map([(ClassId(1), 2)].into_iter().collect());
        let satisfied =
            |catalog: &mut QueryCatalog| catalog.snapshot().evaluator().any_satisfied(&counts);
        let mut catalog = QueryCatalog::new(vec![geq(0, 1, 3)], 0).unwrap();
        let before = Arc::clone(catalog.snapshot());
        // Each version is asked twice: a first lookup, then a memo hit.
        assert!(!satisfied(&mut catalog) && !satisfied(&mut catalog));
        catalog.add_query(geq(1, 1, 2)).unwrap();
        assert!(satisfied(&mut catalog) && satisfied(&mut catalog));
        catalog.remove_query(QueryId(1)).unwrap();
        assert!(!satisfied(&mut catalog) && !satisfied(&mut catalog));
        assert!(!before.evaluator().any_satisfied(&counts));
    }

    #[test]
    fn seeded_catalogs_count_swaps_from_their_seed() {
        let mut catalog = QueryCatalog::new(vec![geq(0, 1, 1)], 7).unwrap();
        assert_eq!(catalog.version(), 7);
        assert_eq!(catalog.swaps(), 0);
        catalog.remove_query(QueryId(0)).unwrap();
        assert_eq!(catalog.version(), 8);
        assert_eq!(catalog.swaps(), 1);
    }
}
