//! `grid-sharded`: six cameras through `MultiFeedEngine::push_batch`.
//!
//! Two dense cameras carry about three quarters of the cost, so the shard
//! map, the stealing scheduler, the channel dispatch and the merge all work
//! under skew. A frame's latency is its batch's `push_batch` time: the
//! slowest shard sets it.

use std::time::Instant;

use tvq_core::{MaintainerKind, MaintenanceMetrics};
use tvq_engine::{FeedFrame, MultiFeedConfig, MultiFeedEngine, SchedulingStats};
use tvq_video::interleave;

use super::traced::{self, ratio, CoreRun, NoHooks, FRAME};
use super::{state_bytes, timed, Call, Extent, Film, Layers, Pass, Prepared, Traced, Workload};
use crate::host;
use crate::input::{engine_config, grid_films, mixed_queries, Digest, Scale};
use crate::trace::{by_name, Tracer, ROOT};
use crate::Res;

/// Tagged frames per `push_batch`.
const BATCH: usize = 64;
/// Frame numbers of camera `k` in the trace start at `k * FEED_STRIDE`.
const FEED_STRIDE: u64 = 1_000_000;

const PUSH_BATCH: &str = "engine.multi.push_batch";

pub struct Sharded {
    /// One film per camera, each with its own single-engine reference.
    films: Vec<Film>,
    batches: Vec<Vec<FeedFrame>>,
    prepared: Prepared,
}

/// A sharded pass and the scheduler's own account of it.
struct Run {
    pass: Pass,
    /// `push_batch` time of every batch, set-up batches included.
    batch_ns: Vec<u64>,
    scheduling: SchedulingStats,
    metrics: MaintenanceMetrics,
}

impl Sharded {
    pub fn new(seed: u64, scale: Scale) -> Res<Self> {
        let started = Instant::now();
        let feeds = grid_films(seed, scale);
        let batches = interleave(&feeds, BATCH)
            .into_iter()
            .map(|batch| batch.into_iter().map(FeedFrame::from).collect())
            .collect();
        let generate_s = started.elapsed().as_secs_f64();
        let films = feeds
            .into_iter()
            .map(|feed| Film::new(|| feed.frames, mixed_queries(), Vec::new()))
            .collect::<Res<Vec<Film>>>()?;
        let prepared = Prepared {
            generate_s,
            reference_s: films.iter().map(|film| film.prepared.reference_s).sum(),
            frames: films.iter().map(|film| film.prepared.frames).sum(),
            detections: films.iter().map(|film| film.prepared.detections).sum(),
            fingerprint: films.iter().fold(0, |all, film| {
                all.rotate_left(7) ^ film.prepared.fingerprint
            }),
        };
        Ok(Sharded {
            films,
            batches,
            prepared,
        })
    }

    /// Batches that fill every camera's first window.
    fn set_up_batches(&self) -> usize {
        let frames: usize = self.films.iter().map(Film::first_window).sum();
        frames.div_ceil(BATCH).min(self.batches.len() - 1)
    }

    /// One pass on `workers` threads; `tracer` gets a span per batch.
    fn run(&self, extent: Extent, workers: usize, mut tracer: Option<&mut Tracer>) -> Res<Run> {
        let started = Instant::now();
        let mut builder =
            MultiFeedEngine::builder(MultiFeedConfig::new(engine_config()).with_workers(workers));
        for query in &self.films[0].queries {
            builder = builder.with_query(query.clone());
        }
        let mut engine = builder.build()?;
        let set_up = self.set_up_batches();
        let mut setup_s = 0.0;
        let mut batch_ns = Vec::with_capacity(self.batches.len());
        let (mut failed, mut state_bytes_peak) = (0, 0);
        let mut frames = 0;
        for (index, batch) in self.batches.iter().enumerate() {
            if index == set_up {
                setup_s = started.elapsed().as_secs_f64();
            }
            if index == extent.end(set_up, self.batches.len()) {
                break;
            }
            frames += batch.len();
            let span = match tracer.as_deref_mut() {
                Some(tracer) if index >= set_up => {
                    Some(tracer.start(PUSH_BATCH, ROOT, index as u64))
                }
                _ => None,
            };
            let (results, nanos) = timed(|| engine.push_batch(batch));
            if let (Some(span), Some(tracer)) = (span, tracer.as_deref_mut()) {
                tracer.end(span);
            }
            batch_ns.push(nanos);
            let results = results?;
            for (sent, got) in batch.iter().zip(&results) {
                let film = &self.films[sent.feed.raw() as usize];
                let same_frame = got.feed == sent.feed && got.result.frame == sent.frame.fid;
                let wrong = film.check(sent.frame.fid.0 as usize, Digest::of(&got.result.matches));
                failed += u64::from(!same_frame).max(wrong);
            }
            state_bytes_peak = state_bytes_peak.max(state_bytes(&engine.report()?.metrics));
        }
        Ok(Run {
            pass: Pass {
                setup_s,
                calls: batch_ns
                    .iter()
                    .zip(&self.batches)
                    .skip(set_up)
                    .map(|(&nanos, batch)| Call {
                        nanos,
                        frames: batch.len() as u32,
                    })
                    .collect(),
                attempted: frames as u64,
                failed,
                state_bytes_peak,
            },
            batch_ns,
            scheduling: engine.scheduling_stats(),
            metrics: engine.report()?.metrics,
        })
    }
}

impl Workload for Sharded {
    fn name(&self) -> &'static str {
        crate::spec::GRID_SHARDED
    }

    fn prepared(&self) -> &Prepared {
        &self.prepared
    }

    fn pass(&mut self, extent: Extent) -> Res<Pass> {
        Ok(self.run(extent, host::workers(), None)?.pass)
    }

    fn traced(&mut self) -> Res<Traced> {
        let untraced = self.run(Extent::Whole, host::workers(), None)?;
        let single = self.run(Extent::Whole, 1, None)?;
        let mut tracer = Tracer::new(self.prepared.frames * 5 + self.batches.len());
        let traced = self.run(Extent::Whole, host::workers(), Some(&mut tracer))?;

        // What the workers do inside, replayed camera by camera on this
        // thread.
        let mut runs = Vec::new();
        for (camera, film) in self.films.iter().enumerate() {
            tracer.frame_base = camera as u64 * FEED_STRIDE;
            let path = traced::new_path(film, MaintainerKind::Ssg)?;
            runs.push(traced::replay(film, path, &mut tracer, &mut NoHooks)?);
        }
        let run = CoreRun::merged(runs);
        let spans = tracer.spans();
        let films: Vec<&Film> = self.films.iter().collect();

        let mut layers = Layers::default();
        traced::set_core_layers(&mut layers, &films, spans, &run)?;
        let stats = by_name(spans);
        // A frame's untraced time is the worker time it took: what the
        // replay reproduces. The batch spans belong to the other pass.
        let busy_per_frame_ns = untraced.scheduling.busy_nanos as f64 / self.prepared.frames as f64;
        let layer_self_ns: u64 = stats
            .iter()
            .filter(|(name, _)| ![FRAME, PUSH_BATCH].contains(name))
            .map(|(_, s)| s.self_ns)
            .sum();
        let layer_per_frame_ns = layer_self_ns as f64 / run.frames as f64;
        traced::set_observe_layers(
            &mut layers,
            busy_per_frame_ns / 1e3,
            layer_per_frame_ns / 1e3,
        );
        layers.set(
            "trace.coverage",
            ratio(layer_per_frame_ns, busy_per_frame_ns),
        );
        layers.set(
            "trace.overhead_share",
            ratio(
                traced.pass.timed_ns() as f64,
                untraced.pass.timed_ns() as f64,
            ) - 1.0,
        );

        let scheduling = untraced.scheduling;
        let wall_ns: u64 = untraced.batch_ns.iter().sum();
        layers.set("engine.multi.busy_s", scheduling.busy_nanos as f64 / 1e9);
        layers.set(
            "engine.multi.critical_path_s",
            scheduling.critical_path_nanos as f64 / 1e9,
        );
        layers.set(
            "engine.multi.schedule_parallelism",
            scheduling.schedule_parallelism(),
        );
        layers.set(
            "engine.multi.dispatch_us_per_batch",
            (wall_ns as f64 - scheduling.critical_path_nanos as f64)
                / 1e3
                / untraced.batch_ns.len() as f64,
        );
        layers.set(
            "engine.multi.migrations",
            untraced.metrics.feeds_migrated as f64,
        );
        layers.set(
            "engine.multi.rebalances",
            untraced.metrics.rebalances as f64,
        );
        layers.set(
            "engine.multi.speedup_vs_1w",
            ratio(
                single.pass.timed_ns() as f64,
                untraced.pass.timed_ns() as f64,
            ),
        );
        Ok(Traced {
            layers,
            end_to_end: Vec::new(),
            spans: spans.to_vec(),
            attempted: untraced.pass.attempted
                + single.pass.attempted
                + traced.pass.attempted
                + self.prepared.frames as u64,
            failed: untraced.pass.failed + single.pass.failed + traced.pass.failed + run.failed,
        })
    }

    fn corrupt_reference(&mut self) {
        self.films[0].corrupt_reference();
    }
}
