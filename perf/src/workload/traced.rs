//! The traced replay every workload shares: a film through the
//! hand-assembled frame path, one root span per frame, the core and query
//! metrics read off the spans and the maintainer's counters.

use tvq_common::FrameObjects;
use tvq_core::{MaintainerKind, MaintenanceMetrics};
use tvq_query::QueryMatch;

use super::{timed, Film, Layers, SAMPLE_EVERY};
use crate::input::{engine_config, query_text, Digest};
use crate::path::{FramePath, ADVANCE, COMPACT, EVAL, LIFECYCLE};
use crate::stats;
use crate::trace::{by_name, NameStats, Span, SpanId, Tracer, ROOT};
use crate::Res;

/// Name of the span that covers one whole frame.
pub const FRAME: &str = "frame";

/// What a workload adds around the core of a frame: the store's writes, the
/// hub's fan-out. Both run inside the frame's root span.
pub trait Hooks {
    fn before(
        &mut self,
        _tracer: &mut Tracer,
        _root: SpanId,
        _index: u64,
        _frame: &FrameObjects,
        _path: &FramePath,
    ) -> Res<()> {
        Ok(())
    }

    fn after(
        &mut self,
        _tracer: &mut Tracer,
        _root: SpanId,
        _index: u64,
        _matches: &[QueryMatch],
        _path: &FramePath,
    ) -> Res<()> {
        Ok(())
    }
}

pub struct NoHooks;
impl Hooks for NoHooks {}

/// What a traced replay saw besides its spans.
pub struct CoreRun {
    pub failed: u64,
    pub frames: usize,
    pub metrics: MaintenanceMetrics,
    pub result_states: u64,
    pub arena_bytes_peak: u64,
    pub bitmap_bytes_peak: u64,
    pub interned_sets_peak: u64,
}

/// A fresh frame path for `film`, with `kind` pinned.
pub fn new_path(film: &Film, kind: MaintainerKind) -> Res<FramePath> {
    FramePath::new(engine_config(), kind, film.queries.clone())
}

/// Replays `film` through `path`. The first window goes through untraced,
/// as set-up, so that the spans cover the frames the untraced passes time.
pub fn replay(
    film: &Film,
    mut path: FramePath,
    tracer: &mut Tracer,
    hooks: &mut dyn Hooks,
) -> Res<CoreRun> {
    let window = film.first_window();
    let mut setup = Tracer::new(window * 8);
    let mut run = CoreRun {
        failed: 0,
        frames: film.frames.len() - window,
        metrics: MaintenanceMetrics::default(),
        result_states: 0,
        arena_bytes_peak: 0,
        bitmap_bytes_peak: 0,
        interned_sets_peak: 0,
    };
    for (index, frame) in film.frames.iter().enumerate() {
        for op in film.ops.iter().filter(|op| op.before_frame == index) {
            path.add_query(op.add.clone())?;
            path.remove_query(op.remove)?;
        }
        let tracer = if index < window {
            &mut setup
        } else {
            &mut *tracer
        };
        let root = tracer.start(FRAME, ROOT, index as u64);
        hooks.before(tracer, root, index as u64, frame, &path)?;
        let matches = path.frame(tracer, root, index as u64, frame)?;
        hooks.after(tracer, root, index as u64, &matches, &path)?;
        tracer.end(root);
        run.failed += film.check(index, Digest::of(&matches));
        if index % SAMPLE_EVERY == 0 {
            let gauges = path.metrics();
            run.arena_bytes_peak = run.arena_bytes_peak.max(gauges.arena_bytes);
            run.bitmap_bytes_peak = run.bitmap_bytes_peak.max(gauges.bitmap_bytes);
            run.interned_sets_peak = run.interned_sets_peak.max(gauges.interned_sets);
        }
        if index + 1 == window {
            path.result_states = 0;
        }
    }
    run.metrics = path.metrics().clone();
    run.result_states = path.result_states;
    Ok(run)
}

fn stat<'a>(
    stats: &'a std::collections::BTreeMap<&'static str, NameStats>,
    name: &str,
) -> &'a NameStats {
    static EMPTY: NameStats = NameStats {
        durations_ns: Vec::new(),
        total_ns: 0,
        self_ns: 0,
    };
    stats.get(name).unwrap_or(&EMPTY)
}

/// Mean microseconds per frame of the spans called `name`.
pub fn mean_us(spans: &[Span], name: &str, frames: usize) -> f64 {
    stat(&by_name(spans), name).mean_us(frames)
}

impl CoreRun {
    /// Several feeds' replays as one: counters add, and so do the peaks
    /// (each feed has its own interner).
    pub fn merged(runs: Vec<CoreRun>) -> CoreRun {
        let mut all = CoreRun {
            failed: 0,
            frames: 0,
            metrics: MaintenanceMetrics::merged(runs.iter().map(|run| &run.metrics)),
            result_states: 0,
            arena_bytes_peak: 0,
            bitmap_bytes_peak: 0,
            interned_sets_peak: 0,
        };
        for run in runs {
            all.failed += run.failed;
            all.frames += run.frames;
            all.result_states += run.result_states;
            all.arena_bytes_peak += run.arena_bytes_peak;
            all.bitmap_bytes_peak += run.bitmap_bytes_peak;
            all.interned_sets_peak += run.interned_sets_peak;
        }
        all
    }
}

/// The `core.*` and `query.*` metrics of the traced SSG replay of `films`
/// (one per feed), plus the MFS replay's advance time and the parse time of
/// the queries.
pub fn set_core_layers(
    layers: &mut Layers,
    films: &[&Film],
    spans: &[Span],
    run: &CoreRun,
) -> Res<()> {
    let stats = by_name(spans);
    let frames = run.frames;
    let advance = stat(&stats, ADVANCE);
    layers.set(
        "core.lifecycle.resolve_us",
        stat(&stats, LIFECYCLE).mean_us(frames),
    );
    layers.set("core.ssg.advance_us", advance.mean_us(frames));
    if !advance.durations_ns.is_empty() {
        layers.set(
            "core.advance_p99_us",
            stats::quantile(&advance.durations_ns, 0.99) as f64 / 1e3,
        );
    }
    let metrics = &run.metrics;
    layers.set(
        "core.compact_us_per_epoch",
        stat(&stats, COMPACT).mean_us(metrics.compactions as usize),
    );
    layers.set("core.compactions", metrics.compactions as f64);
    layers.set("core.states_created", metrics.states_created as f64);
    layers.set("core.states_visited", metrics.states_visited as f64);
    layers.set("core.intersections", metrics.intersections as f64);
    let lookups = metrics.intersection_cache_hits + metrics.intersection_cache_misses;
    layers.set(
        "core.memo_hit_ratio",
        ratio(metrics.intersection_cache_hits as f64, lookups as f64),
    );
    layers.set("core.peak_live_states", metrics.peak_live_states as f64);
    layers.set("core.interned_sets", run.interned_sets_peak as f64);
    layers.set("core.arena_bytes", run.arena_bytes_peak as f64);
    layers.set("core.bitmap_bytes", run.bitmap_bytes_peak as f64);
    layers.set(
        "core.result_states_per_frame",
        ratio(run.result_states as f64, frames as f64),
    );
    layers.set("query.eval_us", stat(&stats, EVAL).mean_us(frames));
    let matches: u64 = films
        .iter()
        .flat_map(|film| &film.reference[film.first_window()..])
        .map(|digest| u64::from(digest.matches))
        .sum();
    layers.set(
        "query.matches_per_frame",
        ratio(matches as f64, frames as f64),
    );
    layers.set(
        "query.pruned_ratio",
        ratio(
            metrics.states_terminated as f64,
            metrics.states_created as f64,
        ),
    );

    let mut scratch = Tracer::new(frames * 5);
    for film in films {
        let mfs = replay(
            film,
            new_path(film, MaintainerKind::Mfs)?,
            &mut scratch,
            &mut NoHooks,
        )?;
        if mfs.failed > 0 {
            return Err("the hand-assembled MFS path disagrees with the reference".into());
        }
    }
    layers.set(
        "core.mfs.advance_us",
        mean_us(scratch.spans(), ADVANCE, frames),
    );

    let queries = &films[0].queries;
    let mut registry = tvq_common::ClassRegistry::with_default_classes();
    let texts: Vec<String> = queries.iter().map(|q| query_text(q, &registry)).collect();
    let (parsed, nanos) = timed(|| {
        texts
            .iter()
            .zip(queries)
            .filter(|(text, query)| {
                tvq_query::parse_query(text, query.id, &mut registry)
                    .is_ok_and(|parsed| parsed == **query)
            })
            .count()
    });
    if parsed != texts.len() {
        return Err("a query's text did not parse back to the query".into());
    }
    layers.set("query.parse_us", nanos as f64 / 1e3 / texts.len() as f64);
    Ok(())
}

/// Self time of every layer span (all but the frames' root spans), in
/// nanoseconds.
pub fn layer_self_ns(spans: &[Span]) -> u64 {
    by_name(spans)
        .iter()
        .filter(|(name, _)| **name != FRAME)
        .map(|(_, s)| s.self_ns)
        .sum()
}

/// `trace.coverage` and `trace.overhead_share` from a traced pass and the
/// untraced time the same frames took.
///
/// Coverage is the self time of every layer span over the untraced time:
/// near 1, the spans account for what the program does. Overhead is how
/// much longer the traced frames took than the untraced ones.
pub fn set_trace_layers(layers: &mut Layers, spans: &[Span], untraced_ns: u64) {
    layers.set(
        "trace.coverage",
        ratio(layer_self_ns(spans) as f64, untraced_ns as f64),
    );
    layers.set(
        "trace.overhead_share",
        ratio(
            stat(&by_name(spans), FRAME).total_ns as f64,
            untraced_ns as f64,
        ) - 1.0,
    );
}

/// `engine.observe_us`, the engine's untraced time per frame, and what is
/// left of it once the layers below (`layers_us` per frame) are taken out.
pub fn set_observe_layers(layers: &mut Layers, observe_us: f64, layers_us: f64) {
    layers.set("engine.observe_us", observe_us);
    layers.set("engine.observe_self_us", observe_us - layers_us);
}

pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}
