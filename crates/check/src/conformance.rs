//! Model-based conformance replay: every action sequence the traversal
//! enumerates is replayed through the **real** implementations, and the
//! observable state is compared against the model's canonical state.
//!
//! Three replay harnesses exist, at increasing integration depth:
//!
//! * [`replay_component`] drives `ObjectLifecycle` + `SetInterner` +
//!   shared `ClassStore` directly — the protocol objects themselves, with
//!   nothing in between;
//! * [`replay_engine`] drives two full [`TemporalVideoQueryEngine`]s
//!   sharing one class store, exercising the same protocol end to end
//!   (frame ingestion, MFS maintenance, alias translation at the result
//!   boundary, `compact_now` epochs);
//! * [`replay_catalog`] drives `PrunerVerdictCache` + `SetInterner`
//!   against a version-sensitive probe pruner, checking the catalog-swap
//!   coherence property on the real cache.
//!
//! Quantities the models normalise away — generation numbers, lifetime
//! counters (`generations_started`, `tracks_ended`, `retired_total`) — are
//! verified here instead, along the concrete run. Because the traversal
//! hands *every* edge to the replay hook and every path prefix is itself
//! an edge, each harness compares the full canonical state only at the end
//! of its path; intermediate states were already compared when their own
//! (shorter) edges replayed.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, PoisonError};

use tvq_common::{
    shared_class_store, ClassId, FrameId, FrameObjects, FxHashMap, FxHashSet, ObjectId, ObjectSet,
    SetId, SetInterner, SharedClassMap, WindowSpec,
};
use tvq_core::{
    CompactionPolicy, MaintainerKind, ObjectLifecycle, PrunerVerdictCache, StatePruner,
};
use tvq_engine::{EngineConfig, TemporalVideoQueryEngine};

use crate::catalog_model::{verdict, CatalogAction, CatalogState, OBJECTS, VMOD};
use crate::lifecycle_model::{
    Internal, LifecycleAction, LifecycleModel, LifecycleState, CLASSES, EXT_IDS, FEEDS, WINDOW,
};
use crate::machine::Machine;

/// Real internal ids at or above this value are store-minted aliases (the
/// model's external universe is `0..EXT_IDS`; aliases are minted from the
/// top of the 32-bit space downward).
const ALIAS_BASE: u32 = EXT_IDS as u32;

fn relevant_classes() -> FxHashSet<ClassId> {
    (0..CLASSES).map(|class| ClassId(class as u16)).collect()
}

/// Maps real internal ids to canonical model internals. The map is built
/// per observation: live alias ids sorted *descending* reproduce mint
/// order (the store mints downward), which is exactly the model's dense
/// mint-order labelling.
struct AliasLabels {
    descending: Vec<u32>,
}

impl AliasLabels {
    fn new(mut raws: Vec<u32>) -> Self {
        raws.sort_unstable_by(|a, b| b.cmp(a));
        raws.dedup();
        AliasLabels { descending: raws }
    }

    fn canonical(&self, id: ObjectId) -> Result<Internal, String> {
        let raw = id.raw();
        if raw < ALIAS_BASE {
            return Ok(Internal::Ext(raw as u8));
        }
        self.descending
            .iter()
            .position(|&r| r == raw)
            .map(|index| Internal::Alias(index as u8))
            .ok_or_else(|| format!("internal id {raw} is not a live alias"))
    }
}

/// Gathers the live alias ids visible through a set of lifecycles and
/// their shared store.
fn alias_labels<'a>(
    store: &SharedClassMap,
    lifecycles: impl Iterator<Item = &'a ObjectLifecycle>,
) -> AliasLabels {
    let mut raws: Vec<u32> = store
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .snapshot()
        .iter()
        .map(|&(id, _, _)| id.raw())
        .filter(|&raw| raw >= ALIAS_BASE)
        .collect();
    for lifecycle in lifecycles {
        raws.extend(
            lifecycle
                .registered_ids()
                .iter()
                .map(|id| id.raw())
                .filter(|&raw| raw >= ALIAS_BASE),
        );
        raws.extend(
            lifecycle
                .alias_entries()
                .iter()
                .map(|(alias, _)| alias.raw()),
        );
    }
    AliasLabels::new(raws)
}

/// Builds the canonical observation of a shared store + per-feed
/// lifecycles. `windows` supplies each feed's window content (the window
/// lives outside the lifecycle: in the harness for component replay, in
/// the model for engine replay where the maintainer's window is not
/// directly observable).
fn observe_canonical(
    store: &SharedClassMap,
    lifecycles: &[&ObjectLifecycle],
    windows: &[Vec<Option<ObjectId>>],
    model_windows: Option<&[Vec<Option<Internal>>]>,
) -> Result<LifecycleState, String> {
    let labels = alias_labels(store, lifecycles.iter().copied());
    let mut state = LifecycleState::default();
    let snapshot = store
        .read()
        .unwrap_or_else(PoisonError::into_inner)
        .snapshot();
    for (id, class, refs) in snapshot {
        state
            .store
            .push((labels.canonical(id)?, class.0 as u8, refs as u8));
    }
    state.store.sort_unstable();
    for (f, lifecycle) in lifecycles.iter().enumerate() {
        let feed = &mut state.feeds[f];
        for ext in 0..EXT_IDS {
            if let Some(binding) = lifecycle.binding_of(ObjectId(ext as u32)) {
                feed.bindings.push((
                    ext,
                    labels.canonical(binding.internal)?,
                    binding.class.0 as u8,
                ));
            }
        }
        for (alias, external) in lifecycle.alias_entries() {
            let Internal::Alias(label) = labels.canonical(alias)? else {
                return Err(format!("alias entry {alias:?} is not in the alias range"));
            };
            feed.aliases.push((label, external.raw() as u8));
        }
        feed.aliases.sort_unstable();
        for id in lifecycle.registered_ids() {
            feed.registered.push(labels.canonical(id)?);
        }
        feed.registered.sort_unstable();
        feed.window = match model_windows {
            Some(model) => model[f].clone(),
            None => windows[f]
                .iter()
                .map(|slot| slot.map(|id| labels.canonical(id)).transpose())
                .collect::<Result<_, _>>()?,
        };
    }
    Ok(state)
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(
    what: &str,
    real: &T,
    model: &T,
) -> Result<(), String> {
    if real == model {
        Ok(())
    } else {
        Err(format!(
            "{what} diverged\n    real:  {real:?}\n    model: {model:?}"
        ))
    }
}

// ---------------------------------------------------------------------------
// Component-level replay: ObjectLifecycle + SetInterner + shared ClassStore.
// ---------------------------------------------------------------------------

struct ComponentFeed {
    lifecycle: ObjectLifecycle,
    interner: SetInterner,
    /// The window as `(state handle, frame's internal id)` pairs.
    window: VecDeque<(SetId, Option<ObjectId>)>,
    /// Singleton handle per live internal id — used to assert that every
    /// retired id's handle dies in the remap and every surviving id's
    /// handle remaps.
    interned: Vec<(ObjectId, SetId)>,
    /// Last generation number seen per external id (monotonicity probe).
    last_generation: FxHashMap<u8, u64>,
    expected_generations: u64,
    expected_ends: u64,
    expected_retired: u64,
}

impl ComponentFeed {
    fn new(store: &SharedClassMap) -> Self {
        ComponentFeed {
            lifecycle: ObjectLifecycle::new(Arc::clone(store)),
            interner: SetInterner::new(),
            window: VecDeque::new(),
            interned: Vec::new(),
            last_generation: FxHashMap::default(),
            expected_generations: 0,
            expected_ends: 0,
            expected_retired: 0,
        }
    }

    fn check_counters(&self) -> Result<(), String> {
        expect_eq(
            "generations_started",
            &self.lifecycle.generations_started(),
            &self.expected_generations,
        )?;
        expect_eq(
            "tracks_ended",
            &self.lifecycle.tracks_ended(),
            &self.expected_ends,
        )?;
        expect_eq(
            "retired_total",
            &self.lifecycle.retired_total(),
            &self.expected_retired,
        )?;
        // The load-bearing agreement: the interner's universe and the
        // lifecycle's registered set are the same set of ids — this is what
        // makes each compaction epoch's retire set total.
        expect_eq(
            "interner universe vs lifecycle registered set",
            &self.interner.universe_object_ids(),
            &self.lifecycle.registered_ids(),
        )
    }
}

/// Replays one enumerated action sequence through the real protocol
/// objects, checking counters at every step and the full canonical state
/// at the end of the path.
pub fn replay_component(path: &[LifecycleAction]) -> Result<(), String> {
    let model = LifecycleModel;
    let mut state = model.initial();
    let store = shared_class_store();
    let mut feeds: Vec<ComponentFeed> = (0..FEEDS).map(|_| ComponentFeed::new(&store)).collect();
    let relevant = relevant_classes();

    for (step, action) in path.iter().enumerate() {
        let fail = |message: String| format!("step {} ({action:?}): {message}", step + 1);
        match *action {
            LifecycleAction::Observe { feed, ext, class } => {
                let new_generation =
                    LifecycleModel::observe_is_new_generation(&state, feed, ext, class);
                let harness = &mut feeds[feed as usize];
                let mut out = Vec::new();
                harness.lifecycle.resolve_frame(
                    &[(ObjectId(ext as u32), ClassId(class as u16))],
                    &relevant,
                    &mut out,
                );
                if out.len() != 1 {
                    return Err(fail(format!(
                        "resolved {} internals, expected 1",
                        out.len()
                    )));
                }
                let internal = out[0];
                if new_generation {
                    harness.expected_generations += 1;
                }
                let binding = harness
                    .lifecycle
                    .binding_of(ObjectId(ext as u32))
                    .ok_or_else(|| fail("no live binding after observe".into()))?;
                if binding.internal != internal {
                    return Err(fail(format!(
                        "binding internal {:?} != resolved {internal:?}",
                        binding.internal
                    )));
                }
                // Generation numbers are engine-wide monotone: a new
                // generation is strictly newer than anything this external
                // id carried before; a fast-path hit keeps it unchanged.
                match harness.last_generation.get(&ext) {
                    Some(&previous) if new_generation && binding.generation <= previous => {
                        return Err(fail(format!(
                            "generation did not advance: {} after {previous}",
                            binding.generation
                        )));
                    }
                    Some(&previous) if !new_generation && binding.generation != previous => {
                        return Err(fail(format!(
                            "fast path changed the generation: {} != {previous}",
                            binding.generation
                        )));
                    }
                    _ => {}
                }
                harness.last_generation.insert(ext, binding.generation);
                let sid = harness.interner.intern(&ObjectSet::from_ids([internal]));
                if !harness.interned.iter().any(|&(id, _)| id == internal) {
                    harness.interned.push((internal, sid));
                }
                harness.window.push_back((sid, Some(internal)));
                if harness.window.len() > WINDOW {
                    harness.window.pop_front();
                }
                harness.check_counters().map_err(fail)?;
            }
            LifecycleAction::EndTrack { feed, ext } => {
                if state.feeds[feed as usize]
                    .bindings
                    .iter()
                    .any(|&(e, _, _)| e == ext)
                {
                    feeds[feed as usize].expected_ends += 1;
                }
                let harness = &mut feeds[feed as usize];
                harness.lifecycle.end_tracks(&[ObjectId(ext as u32)]);
                harness.window.push_back((SetId::EMPTY, None));
                if harness.window.len() > WINDOW {
                    harness.window.pop_front();
                }
                harness.check_counters().map_err(fail)?;
            }
            LifecycleAction::Compact { feed } => {
                let model_feed = &state.feeds[feed as usize];
                let mut survivors: Vec<Internal> =
                    model_feed.window.iter().flatten().copied().collect();
                survivors.sort_unstable();
                survivors.dedup();
                let expected_retired_now = (model_feed.registered.len() - survivors.len()) as u64;

                let harness = &mut feeds[feed as usize];
                let live: Vec<SetId> = harness.window.iter().map(|&(sid, _)| sid).collect();
                let mut table = harness.interner.compact(&live);
                let retired = table.take_retired_objects();
                expect_eq(
                    "epoch retire-set size",
                    &(retired.len() as u64),
                    &expected_retired_now,
                )
                .map_err(&fail)?;
                // No stale SetId survives remap: retired ids' handles must
                // die, surviving ids' handles must re-key.
                let mut interned = std::mem::take(&mut harness.interned);
                interned.retain(|&(id, _)| !retired.contains(&id));
                for (id, sid) in &mut interned {
                    *sid = table.remap(*sid).ok_or_else(|| {
                        fail(format!("live id {id:?} lost its handle in the remap"))
                    })?;
                }
                harness.interned = interned;
                for (sid, _) in harness.window.iter_mut() {
                    *sid = table
                        .remap(*sid)
                        .ok_or_else(|| fail("window handle went stale across remap".into()))?;
                }
                // Negative-control mutant: skip the lifecycle retirement on
                // feed 1 only. A feed-*asymmetric* planted bug — the mutant
                // suite asserts the symmetry-reduced traversal still finds
                // it, proving the quotient explores concrete runs on both
                // feeds, not just the representative's feed 0.
                #[cfg(feature = "check-mutants")]
                let skip_retire = feed == 1 && crate::mutants::asymmetric_retire();
                #[cfg(not(feature = "check-mutants"))]
                let skip_retire = false;
                if !skip_retire {
                    harness.lifecycle.retire(&retired);
                }
                harness.expected_retired += retired.len() as u64;
                harness.check_counters().map_err(fail)?;
            }
        }
        state = model
            .transition(&state, action)
            .map_err(|e| fail(format!("model rejected replayed action: {e}")))?;
    }

    let lifecycles: Vec<&ObjectLifecycle> = feeds.iter().map(|f| &f.lifecycle).collect();
    let windows: Vec<Vec<Option<ObjectId>>> = feeds
        .iter()
        .map(|f| f.window.iter().map(|&(_, slot)| slot).collect())
        .collect();
    let observed = observe_canonical(&store, &lifecycles, &windows, None)?;
    expect_eq("canonical state after path", &observed, &state)
}

// ---------------------------------------------------------------------------
// Engine-level replay: two full engines sharing one class store.
// ---------------------------------------------------------------------------

fn build_engine(store: &SharedClassMap) -> Result<TemporalVideoQueryEngine, String> {
    // Window = the model's WINDOW frames, duration 1, MFS, pruning off (a
    // terminated state would leave the window early and break the
    // model/maintainer window correspondence), auto-compaction disabled
    // (check_interval never reached) so epochs run exactly at the model's
    // Compact actions via `compact_now`.
    let config =
        EngineConfig::new(WindowSpec::new(WINDOW, 1).map_err(|e| format!("window spec: {e}"))?)
            .with_maintainer(MaintainerKind::Mfs)
            .with_pruning(false)
            .with_compaction(Some(CompactionPolicy {
                check_interval: u64::MAX,
                max_live_ratio: 1.0,
                min_interned: 0,
            }));
    TemporalVideoQueryEngine::builder(config)
        .with_class_store(Arc::clone(store))
        .with_query_text("person >= 1")
        .and_then(|builder| builder.with_query_text("car >= 1"))
        .and_then(|builder| builder.build())
        .map_err(|e| format!("engine build: {e}"))
}

/// Replays one enumerated action sequence through two real engines
/// sharing a class store. Model class `0` is `person`, class `1` is `car`
/// (the default registry's first two classes); each `Observe` becomes a
/// single-detection frame, each `EndTrack` an empty frame carrying the
/// end-of-track event, each `Compact` a `compact_now` call.
pub fn replay_engine(path: &[LifecycleAction]) -> Result<(), String> {
    let model = LifecycleModel;
    let mut state = model.initial();
    let store = shared_class_store();
    let mut engines = Vec::with_capacity(FEEDS);
    for _ in 0..FEEDS {
        engines.push(build_engine(&store)?);
    }
    let mut next_fid = [1u64; FEEDS];
    let mut last_generation: Vec<FxHashMap<u8, u64>> =
        (0..FEEDS).map(|_| FxHashMap::default()).collect();
    let mut expected_generations = [0u64; FEEDS];
    let mut expected_ends = [0u64; FEEDS];
    let mut expected_retired = [0u64; FEEDS];

    for (step, action) in path.iter().enumerate() {
        let fail = |message: String| format!("step {} ({action:?}): {message}", step + 1);
        match *action {
            LifecycleAction::Observe { feed, ext, class } => {
                let f = feed as usize;
                let new_generation =
                    LifecycleModel::observe_is_new_generation(&state, feed, ext, class);
                let frame = FrameObjects::new(
                    FrameId(next_fid[f]),
                    vec![(ObjectId(ext as u32), ClassId(class as u16))],
                );
                next_fid[f] += 1;
                let result = engines[f]
                    .observe(&frame)
                    .map_err(|e| fail(e.to_string()))?;
                // Matches must report tracker ids as ingested: any raw id
                // in the alias range leaked an untranslated internal.
                for m in &result.matches {
                    if let Some(id) = m.objects.iter().find(|id| id.raw() >= ALIAS_BASE) {
                        return Err(fail(format!(
                            "match for query {:?} leaked internal alias id {id:?}",
                            m.query
                        )));
                    }
                }
                if new_generation {
                    expected_generations[f] += 1;
                }
                let lifecycle = engines[f].lifecycle();
                let binding = lifecycle
                    .binding_of(ObjectId(ext as u32))
                    .ok_or_else(|| fail("no live binding after observe".into()))?;
                match last_generation[f].get(&ext) {
                    Some(&previous) if new_generation && binding.generation <= previous => {
                        return Err(fail(format!(
                            "generation did not advance: {} after {previous}",
                            binding.generation
                        )));
                    }
                    Some(&previous) if !new_generation && binding.generation != previous => {
                        return Err(fail(format!(
                            "fast path changed the generation: {} != {previous}",
                            binding.generation
                        )));
                    }
                    _ => {}
                }
                last_generation[f].insert(ext, binding.generation);
                expect_eq(
                    "generations_started",
                    &lifecycle.generations_started(),
                    &expected_generations[f],
                )
                .map_err(fail)?;
            }
            LifecycleAction::EndTrack { feed, ext } => {
                let f = feed as usize;
                if state.feeds[f].bindings.iter().any(|&(e, _, _)| e == ext) {
                    expected_ends[f] += 1;
                }
                let frame = FrameObjects::new(FrameId(next_fid[f]), Vec::new())
                    .with_track_ends(vec![ObjectId(ext as u32)]);
                next_fid[f] += 1;
                engines[f]
                    .observe(&frame)
                    .map_err(|e| fail(e.to_string()))?;
                expect_eq(
                    "tracks_ended",
                    &engines[f].lifecycle().tracks_ended(),
                    &expected_ends[f],
                )
                .map_err(fail)?;
            }
            LifecycleAction::Compact { feed } => {
                let f = feed as usize;
                let model_feed = &state.feeds[f];
                let mut survivors: Vec<Internal> =
                    model_feed.window.iter().flatten().copied().collect();
                survivors.sort_unstable();
                survivors.dedup();
                let retiring = (model_feed.registered.len() - survivors.len()) as u64;
                let ran = engines[f].compact_now();
                if retiring > 0 && !ran {
                    return Err(fail(format!(
                        "model retires {retiring} ids but the engine declined to compact"
                    )));
                }
                expected_retired[f] += retiring;
                expect_eq(
                    "retired_total",
                    &engines[f].lifecycle().retired_total(),
                    &expected_retired[f],
                )
                .map_err(fail)?;
            }
        }
        state = model
            .transition(&state, action)
            .map_err(|e| fail(format!("model rejected replayed action: {e}")))?;
        // The maintainer's live states are the distinct non-empty window
        // frames (singleton detections, MFS): cheap per-step probe that the
        // engine's window tracks the model's.
        let f = match *action {
            LifecycleAction::Observe { feed, .. }
            | LifecycleAction::EndTrack { feed, .. }
            | LifecycleAction::Compact { feed } => feed as usize,
        };
        let mut distinct: Vec<Internal> = state.feeds[f].window.iter().flatten().copied().collect();
        distinct.sort_unstable();
        distinct.dedup();
        expect_eq("live_states", &engines[f].live_states(), &distinct.len())
            .map_err(|e| format!("step {} ({action:?}): {e}", step + 1))?;
    }

    let lifecycles: Vec<&ObjectLifecycle> = engines.iter().map(|e| e.lifecycle()).collect();
    let model_windows: Vec<Vec<Option<Internal>>> =
        state.feeds.iter().map(|feed| feed.window.clone()).collect();
    let observed = observe_canonical(&store, &lifecycles, &[], Some(&model_windows))?;
    expect_eq("canonical state after path", &observed, &state)
}

// ---------------------------------------------------------------------------
// Catalog-swap replay: PrunerVerdictCache + SetInterner + probe pruner.
// ---------------------------------------------------------------------------

/// A version-sensitive pruner: its verdict is a function of the object set
/// *and* the current catalog version, so any verdict consulted across a
/// swap is observably wrong. Mirrors [`verdict`] exactly.
struct ProbePruner {
    version: Arc<AtomicU64>,
}

impl StatePruner for ProbePruner {
    fn should_terminate(&self, objects: &ObjectSet) -> bool {
        let version = self.version.load(Ordering::Relaxed);
        let sum: u64 = objects.iter().map(|id| id.raw() as u64 + 1).sum();
        (sum + version).is_multiple_of(VMOD as u64)
    }
}

fn mask_set(mask: u8) -> ObjectSet {
    ObjectSet::from_raw((0..OBJECTS as u32).filter(|bit| mask & (1 << bit) != 0))
}

/// Replays one enumerated catalog action sequence through the real
/// verdict cache, checking after every step that each cached verdict
/// agrees with what the *current* version would produce — i.e. that no
/// verdict computed under version `v` is consulted under `v' != v`.
pub fn replay_catalog(path: &[CatalogAction]) -> Result<(), String> {
    let model = crate::catalog_model::CatalogModel;
    let mut state: CatalogState = model.initial();
    let version = Arc::new(AtomicU64::new(0));
    let pruner = ProbePruner {
        version: Arc::clone(&version),
    };
    let mut interner = SetInterner::new();
    let mut cache = PrunerVerdictCache::new();
    let mut sids: Vec<Option<SetId>> = vec![None; crate::catalog_model::MASKS as usize];
    let mut terminated_counter = 0u64;

    let sid_of = |interner: &mut SetInterner, sids: &mut Vec<Option<SetId>>, mask: u8| -> SetId {
        let slot = &mut sids[mask as usize - 1];
        match *slot {
            Some(sid) => sid,
            None => {
                let sid = interner.intern(&mask_set(mask));
                *slot = Some(sid);
                sid
            }
        }
    };

    for (step, action) in path.iter().enumerate() {
        let fail = |message: String| format!("step {} ({action:?}): {message}", step + 1);
        match *action {
            CatalogAction::Judge(mask) => {
                let sid = sid_of(&mut interner, &mut sids, mask);
                let got = cache.judge(&pruner, &interner, sid, &mut terminated_counter);
                let expected = verdict(mask, state.vmod);
                if got != expected {
                    return Err(fail(format!(
                        "verdict {got} for mask {mask:#05b}, current catalog says {expected} \
                         (stale verdict consulted across a version boundary)"
                    )));
                }
            }
            CatalogAction::Observe(mask) => {
                sid_of(&mut interner, &mut sids, mask);
            }
            CatalogAction::Swap => {
                version.fetch_add(1, Ordering::Relaxed);
                cache.clear();
            }
            CatalogAction::Compact => {
                let live: Vec<SetId> = state
                    .window
                    .iter()
                    .map(|&mask| {
                        sids[mask as usize - 1]
                            .ok_or_else(|| format!("window mask {mask} was never interned"))
                    })
                    .collect::<Result<_, _>>()
                    .map_err(&fail)?;
                let table = interner.compact(&live);
                cache.remap(&table);
                for (index, slot) in sids.iter_mut().enumerate() {
                    let mask = index as u8 + 1;
                    let survives = state.window.contains(&mask);
                    *slot = match (*slot, survives) {
                        (Some(sid), true) => Some(table.remap(sid).ok_or_else(|| {
                            format!("window handle for mask {mask} went stale across remap")
                        })?),
                        (Some(sid), false) => {
                            if let Some(kept) = table.remap(sid) {
                                return Err(format!(
                                    "retired handle for mask {mask} survived remap as {kept:?}"
                                ));
                            }
                            None
                        }
                        (None, _) => None,
                    };
                }
            }
        }
        state = model
            .transition(&state, action)
            .map_err(|e| fail(format!("model rejected replayed action: {e}")))?;
        // Element-wise coherence: for every interned handle, the cache's
        // positive verdict must match the model's entry under the *current*
        // version; entries the model dropped (swap/compact) must be gone.
        for (index, slot) in sids.iter().enumerate() {
            let mask = index as u8 + 1;
            if let Some(sid) = *slot {
                let model_terminated = state.entries[index] == Some(true);
                let real_terminated = cache.is_terminated(sid);
                if model_terminated != real_terminated {
                    return Err(fail(format!(
                        "cache terminated({mask:#05b}) = {real_terminated}, model says \
                         {model_terminated} (verdict crossed a version or epoch boundary)"
                    )));
                }
            }
        }
        let model_terminated_total = state.entries.iter().filter(|&&e| e == Some(true)).count();
        expect_eq(
            "terminated_len",
            &cache.terminated_len(),
            &model_terminated_total,
        )
        .map_err(fail)?;
    }
    Ok(())
}
