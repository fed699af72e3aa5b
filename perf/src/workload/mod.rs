//! What the five workloads share: the pass, its summary, the reference run.
//!
//! A *pass* builds a fresh system (engine, store, pool or server), fills the
//! first window, then replays the rest of the film in a closed loop: the
//! next frame is sent when the previous one's matches are in hand. Only the
//! calls into the system are timed; the benchmark's own checking between
//! two calls is not.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use tvq_common::{FrameObjects, QueryId};
use tvq_core::{MaintainerKind, MaintenanceMetrics};
use tvq_engine::TemporalVideoQueryEngine;
use tvq_query::CnfQuery;

use crate::input::{engine_config, Digest, Scale};
use crate::spec;
use crate::stats;
use crate::trace::Span;
use crate::Res;

mod durable;
mod embedded;
mod server;
mod sharded;
mod traced;

/// Frames between two samples of the state gauges.
pub const SAMPLE_EVERY: usize = 64;

/// One timed call into the system: how long it took and how many frames it
/// acknowledged — one for `observe` and for a `FRAME` + `POLL` pair, the
/// batch's size for `push_batch`, none for a catalog swap.
#[derive(Clone, Copy)]
pub struct Call {
    pub nanos: u64,
    pub frames: u32,
}

/// What one untraced pass measured.
pub struct Pass {
    /// Building the system and filling the first window.
    pub setup_s: f64,
    /// Every call of the timed section, in order.
    pub calls: Vec<Call>,
    /// Frames sent, set-up and resumed-after-recovery frames included.
    pub attempted: u64,
    /// Frames that errored, were refused, or matched something else than
    /// the reference did.
    pub failed: u64,
    pub state_bytes_peak: u64,
}

impl Pass {
    /// Time spent inside the system over the timed section.
    pub fn timed_ns(&self) -> u64 {
        self.calls.iter().map(|call| call.nanos).sum()
    }

    /// The part of [`timed_ns`](Self::timed_ns) spent on frames.
    pub fn frame_ns(&self) -> u64 {
        let on_frames = self.calls.iter().filter(|call| call.frames > 0);
        on_frames.map(|call| call.nanos).sum()
    }

    /// Frames the timed section acknowledged.
    pub fn frames(&self) -> u64 {
        self.calls.iter().map(|call| u64::from(call.frames)).sum()
    }

    pub fn frames_per_s(&self) -> f64 {
        self.frames() as f64 / (self.timed_ns() as f64 / 1e9)
    }

    /// Frame-to-match latency of every frame of the timed section: a call's
    /// time, once per frame it acknowledged.
    fn latencies_ns(&self) -> impl Iterator<Item = u64> + '_ {
        self.calls
            .iter()
            .flat_map(|call| std::iter::repeat_n(call.nanos, call.frames as usize))
    }
}

/// The timed passes of one workload, reduced to the metrics every workload
/// reports: throughput is the median over the passes, the latency
/// percentiles are taken over the frames of all passes pooled, the state
/// peak is the largest seen.
///
/// Set-up is the *lower quartile* over the passes' set-ups and the extra
/// ones. It is the one timing the driver gates, between two sets of ten
/// runs, and this host slows everything down by half for tens of seconds at
/// a time. Four such sets of `server-live` in a row: the median of the
/// set-ups gave 3.56, 3.02, 2.89, 3.53 ms, the lower quartile 3.09, 2.75,
/// 2.65, 2.85. The slow episodes fill the upper half of the samples; what
/// set-up costs when the host leaves it alone is in the lower.
#[derive(Default)]
pub struct Summary {
    setup_s: Vec<f64>,
    frames_per_s: Vec<f64>,
    /// Per pass, its own median and 99th percentile: their spread tells
    /// `compare` how far the pooled ones can be trusted.
    pass_p50_us: Vec<f64>,
    pass_p99_us: Vec<f64>,
    latencies_ns: Vec<u64>,
    state_bytes_peak: u64,
    pub attempted: u64,
    pub failed: u64,
}

impl Summary {
    pub fn add(&mut self, pass: Pass) {
        let latencies: Vec<u64> = pass.latencies_ns().collect();
        let percentile = |q| stats::quantile(&latencies, q) as f64 / 1e3;
        self.pass_p50_us.push(percentile(0.5));
        self.pass_p99_us.push(percentile(0.99));
        self.setup_s.push(pass.setup_s);
        self.frames_per_s.push(pass.frames_per_s());
        self.latencies_ns.extend(latencies);
        self.state_bytes_peak = self.state_bytes_peak.max(pass.state_bytes_peak);
        self.attempted += pass.attempted;
        self.failed += pass.failed;
    }

    /// A pass whose outputs count and whose times do not: the warm-up.
    pub fn add_untimed(&mut self, pass: Pass) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
    }

    /// A set-up that was not followed by a timed section.
    pub fn add_set_up(&mut self, pass: Pass) {
        self.setup_s.push(pass.setup_s);
        self.add_untimed(pass);
    }

    pub fn passes(&self) -> usize {
        self.frames_per_s.len()
    }

    /// Latency samples the percentiles are taken from.
    pub fn samples(&self) -> usize {
        self.latencies_ns.len()
    }

    /// The metrics as `(name, value, spread over the passes)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, f64)> {
        let pooled = |q| stats::quantile(&self.latencies_ns, q) as f64 / 1e3;
        vec![
            (
                spec::SETUP_S,
                stats::quartiles(&self.setup_s)[0],
                stats::spread(&self.setup_s),
            ),
            (
                spec::FRAMES_PER_S,
                stats::median(&self.frames_per_s),
                stats::spread(&self.frames_per_s),
            ),
            (
                spec::FRAME_P50_US,
                pooled(0.5),
                stats::spread(&self.pass_p50_us),
            ),
            (
                spec::FRAME_P99_US,
                pooled(0.99),
                stats::spread(&self.pass_p99_us),
            ),
            (spec::STATE_BYTES_PEAK, self.state_bytes_peak as f64, 0.0),
        ]
    }

    /// The value of the metric `name` of [`metrics`](Self::metrics).
    pub fn metric(&self, name: &str) -> f64 {
        let metrics = self.metrics();
        let found = metrics.iter().find(|(metric, ..)| *metric == name);
        found
            .unwrap_or_else(|| panic!("{name} is not a summary metric"))
            .1
    }
}

/// Per-layer metrics by declared name.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            spec::driver_per_layer().any(|m| m.name == name),
            "{name} is not declared in spec.rs"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// What the traced run of one workload produced.
pub struct Traced {
    pub layers: Layers,
    /// End-to-end metrics only this workload has, as `(name, value,
    /// spread)`: `churn-durable`'s disk bytes and recovery time.
    pub end_to_end: Vec<(&'static str, f64, f64)>,
    /// The spans of the traced pass, for `trace-<workload>.jsonl`.
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
}

/// Cost of the input, kept out of `setup_s`.
pub struct Prepared {
    pub generate_s: f64,
    pub reference_s: f64,
    pub frames: usize,
    pub detections: usize,
    /// A hash of the film and of the reference's digests: equal for equal
    /// seeds, and only then.
    pub fingerprint: u64,
}

/// How far an untraced pass goes.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Extent {
    /// Builds the system and fills the first window, then tears it down:
    /// one more sample of `setup_s`.
    SetUpOnly,
    /// Set-up, then the rest of the film, timed.
    Whole,
}

impl Extent {
    /// Where a pass over `len` items stops when set-up takes `set_up`.
    pub fn end(self, set_up: usize, len: usize) -> usize {
        match self {
            Extent::SetUpOnly => set_up,
            Extent::Whole => len,
        }
    }
}

pub trait Workload {
    fn name(&self) -> &'static str;
    fn prepared(&self) -> &Prepared;
    /// One untraced pass: a fresh system, one replay of the film.
    fn pass(&mut self, extent: Extent) -> Res<Pass>;
    /// The pass that comes first, checked like any other but not timed.
    fn warm_up(&mut self) -> Res<Pass> {
        self.pass(Extent::Whole)
    }
    /// An untraced pass, then the traced ones for the per-layer metrics.
    fn traced(&mut self) -> Res<Traced>;
    /// Makes the reference disagree with the system on one frame, so that
    /// tests can see the check fail.
    fn corrupt_reference(&mut self);
}

/// Generates `name`'s inputs from the seed and runs its reference.
pub fn build(name: &str, seed: u64, scale: Scale, data_dir: &Path) -> Res<Box<dyn Workload>> {
    Ok(match name {
        spec::DENSE_EMBEDDED => Box::new(embedded::Embedded::dense(seed, scale)?),
        spec::CHURN_EMBEDDED => Box::new(embedded::Embedded::churn(seed, scale)?),
        spec::CHURN_DURABLE => Box::new(durable::Durable::new(seed, scale, data_dir)?),
        spec::GRID_SHARDED => Box::new(sharded::Sharded::new(seed, scale)?),
        spec::SERVER_LIVE => Box::new(server::Server::new(seed, scale)?),
        other => return Err(format!("unknown workload {other:?}").into()),
    })
}

/// A catalog change `server-live` makes before sending frame `before_frame`.
#[derive(Clone)]
pub struct CatalogOp {
    pub before_frame: usize,
    pub add: CnfQuery,
    pub remove: QueryId,
}

/// One film, its queries, and what the reference says each frame matches.
pub struct Film {
    pub frames: Vec<FrameObjects>,
    pub queries: Vec<CnfQuery>,
    pub ops: Vec<CatalogOp>,
    pub reference: Vec<Digest>,
    pub prepared: Prepared,
}

impl Film {
    /// Runs the reference: one embedded pass with `MaintainerKind::Mfs`
    /// pinned. Every other path — SSG, durable, recovered, sharded, served,
    /// hand-assembled — must match it frame by frame.
    pub fn new(
        generate: impl FnOnce() -> Vec<FrameObjects>,
        queries: Vec<CnfQuery>,
        ops: Vec<CatalogOp>,
    ) -> Res<Film> {
        let started = Instant::now();
        let frames = generate();
        let generate_s = started.elapsed().as_secs_f64();
        let started = Instant::now();
        let mut engine = build_engine(MaintainerKind::Mfs, &queries)?;
        let mut reference = Vec::with_capacity(frames.len());
        for (index, frame) in frames.iter().enumerate() {
            for op in ops.iter().filter(|op| op.before_frame == index) {
                engine.add_query(op.add.clone())?;
                engine.remove_query(op.remove)?;
            }
            reference.push(Digest::of(&engine.observe(frame)?.matches));
        }
        let mut fingerprint = Digest::default();
        for (frame, digest) in frames.iter().zip(&reference) {
            let words = [digest.matches, digest.sum as u32, (digest.sum >> 32) as u32];
            fingerprint.add(
                frame.fid.0 as u32,
                frame.objects.iter().map(|id| id.0).chain(words),
            );
        }
        let prepared = Prepared {
            generate_s,
            reference_s: started.elapsed().as_secs_f64(),
            frames: frames.len(),
            detections: frames.iter().map(|frame| frame.classes.len()).sum(),
            fingerprint: fingerprint.sum,
        };
        Ok(Film {
            frames,
            queries,
            ops,
            reference,
            prepared,
        })
    }

    /// Frames that fill the first window: part of set-up, not of the timed
    /// section.
    pub fn first_window(&self) -> usize {
        engine_config().window.window().min(self.frames.len() - 1)
    }

    /// 1 when `matches` is not what the reference has for frame `index`.
    pub fn check(&self, index: usize, digest: Digest) -> u64 {
        u64::from(self.reference[index] != digest)
    }

    pub fn corrupt_reference(&mut self) {
        let last = self.reference.last_mut().expect("a film has frames");
        last.sum = last.sum.wrapping_add(1);
    }
}

/// An embedded engine with the benchmark's configuration and `kind` pinned.
pub fn build_engine(kind: MaintainerKind, queries: &[CnfQuery]) -> Res<TemporalVideoQueryEngine> {
    let mut builder = TemporalVideoQueryEngine::builder(engine_config().with_maintainer(kind));
    for query in queries {
        builder = builder.with_query(query.clone());
    }
    Ok(builder.build()?)
}

/// Bytes of maintained state: interner arena and bitmaps, class store,
/// lifecycle maps.
pub fn state_bytes(metrics: &MaintenanceMetrics) -> u64 {
    metrics.arena_bytes + metrics.bitmap_bytes + metrics.class_map_bytes + metrics.lifecycle_bytes
}

/// Times `call` in nanoseconds.
pub fn timed<T>(call: impl FnOnce() -> T) -> (T, u64) {
    let started = Instant::now();
    let out = call();
    (out, started.elapsed().as_nanos() as u64)
}
