//! `dense-embedded` and `churn-embedded`: `TemporalVideoQueryEngine::observe`
//! in memory, on two films that use `core` in opposite ways.

use std::ops::Range;
use std::time::Instant;

use tvq_core::MaintainerKind;
use tvq_engine::TemporalVideoQueryEngine;

use super::traced::{self, NoHooks};
use super::{
    build_engine, state_bytes, timed, Call, Extent, Film, Layers, Pass, Prepared, Traced, Workload,
    SAMPLE_EVERY,
};
use crate::input::{churn_film, dense_film, geq_queries, mixed_queries, Digest, Scale};
use crate::spec;
use crate::trace::Tracer;
use crate::Res;

/// Frames of the long-churn film `churn-embedded` replays.
pub const CHURN_FRAMES: usize = 30_000;

/// A film being observed frame by frame by one engine.
pub struct Observer<'a> {
    film: &'a Film,
    pub latencies_ns: Vec<u64>,
    pub failed: u64,
    pub state_bytes_peak: u64,
}

impl<'a> Observer<'a> {
    pub fn new(film: &'a Film) -> Self {
        Observer {
            film,
            latencies_ns: Vec::with_capacity(film.frames.len()),
            failed: 0,
            state_bytes_peak: 0,
        }
    }

    /// Observes `frames[range]`: each call timed, each result checked
    /// against the reference, the state gauges sampled.
    pub fn observe(
        &mut self,
        engine: &mut TemporalVideoQueryEngine,
        range: Range<usize>,
    ) -> Res<()> {
        for index in range {
            let (result, nanos) = timed(|| engine.observe(&self.film.frames[index]));
            self.latencies_ns.push(nanos);
            self.failed += self.film.check(index, Digest::of(&result?.matches));
            if index % SAMPLE_EVERY == 0 {
                self.state_bytes_peak = self.state_bytes_peak.max(state_bytes(&engine.metrics()));
            }
        }
        Ok(())
    }

    /// The pass so far: what was observed before `set_up_frames` is set-up.
    pub fn into_pass(self, setup_s: f64, set_up_frames: usize) -> Pass {
        let attempted = self.latencies_ns.len() as u64;
        let timed = self.latencies_ns[set_up_frames..].iter();
        Pass {
            setup_s,
            calls: timed.map(|&nanos| Call { nanos, frames: 1 }).collect(),
            attempted,
            failed: self.failed,
            state_bytes_peak: self.state_bytes_peak,
        }
    }
}

pub struct Embedded {
    name: &'static str,
    film: Film,
}

impl Embedded {
    pub fn dense(seed: u64, scale: Scale) -> Res<Self> {
        Ok(Embedded {
            name: spec::DENSE_EMBEDDED,
            film: Film::new(|| dense_film(seed, scale), mixed_queries(), Vec::new())?,
        })
    }

    pub fn churn(seed: u64, scale: Scale) -> Res<Self> {
        Ok(Embedded {
            name: spec::CHURN_EMBEDDED,
            film: Film::new(
                || churn_film(seed, scale.frames(CHURN_FRAMES)),
                geq_queries(),
                Vec::new(),
            )?,
        })
    }

    fn run(&self, extent: Extent) -> Res<Pass> {
        let started = Instant::now();
        let mut engine = build_engine(MaintainerKind::Ssg, &self.film.queries)?;
        let window = self.film.first_window();
        let mut observer = Observer::new(&self.film);
        observer.observe(&mut engine, 0..window)?;
        let setup_s = started.elapsed().as_secs_f64();
        observer.observe(
            &mut engine,
            window..extent.end(window, self.film.frames.len()),
        )?;
        Ok(observer.into_pass(setup_s, window))
    }
}

impl Workload for Embedded {
    fn name(&self) -> &'static str {
        self.name
    }

    fn prepared(&self) -> &Prepared {
        &self.film.prepared
    }

    fn pass(&mut self, extent: Extent) -> Res<Pass> {
        self.run(extent)
    }

    fn traced(&mut self) -> Res<Traced> {
        let untraced = self.run(Extent::Whole)?;
        let mut tracer = Tracer::new(self.film.frames.len() * 5);
        let path = traced::new_path(&self.film, MaintainerKind::Ssg)?;
        let run = traced::replay(&self.film, path, &mut tracer, &mut NoHooks)?;
        let mut layers = Layers::default();
        traced::set_core_layers(&mut layers, &[&self.film], tracer.spans(), &run)?;
        let untraced_ns = untraced.timed_ns();
        traced::set_trace_layers(&mut layers, tracer.spans(), untraced_ns);
        traced::set_observe_layers(
            &mut layers,
            untraced_ns as f64 / 1e3 / run.frames as f64,
            traced::layer_self_ns(tracer.spans()) as f64 / 1e3 / run.frames as f64,
        );
        Ok(Traced {
            layers,
            end_to_end: Vec::new(),
            spans: tracer.spans().to_vec(),
            attempted: untraced.attempted + self.film.frames.len() as u64,
            failed: untraced.failed + run.failed,
        })
    }

    fn corrupt_reference(&mut self) {
        self.film.corrupt_reference();
    }
}
