//! `churn-durable`: the first frames of the churn film with a WAL and
//! snapshots, and crash images recovered.
//!
//! The input is a prefix of `churn-embedded`'s, so durable minus embedded is
//! the store's bill. A crash image is the data directory copied between two
//! acknowledged frames, with no shutdown; recovering it is the read side of
//! the store, and a recovered engine must carry on exactly as the
//! uninterrupted one did.
//!
//! Every pass writes to the real disk under `perf/.data/<run>/`: what a
//! frame costs here is mostly what the device takes over an fsync, and that
//! is the host's to decide. Only `setup_s` is taken elsewhere, on the
//! store's in-memory disk (see `pass`). The warm-up pass takes the crash
//! images and checks the recovered engines; the traced run times the
//! recoveries and runs the film once more on the in-memory disk, for the
//! device's share.

use std::path::{Path, PathBuf};
use std::time::Instant;

use tvq_common::{Encoder, FrameObjects};
use tvq_core::{MaintainerKind, MaintenanceMetrics};
use tvq_engine::persist::encode_frame_record;
use tvq_engine::TemporalVideoQueryEngine;
use tvq_query::QueryMatch;
use tvq_store::{DirLock, MemDisk, RealIo, SharedIo, SnapshotStore, Wal};

use super::embedded::{Observer, CHURN_FRAMES};
use super::traced::{self, ratio, Hooks};
use super::{build_engine, timed, Extent, Film, Layers, Pass, Prepared, Traced, Workload};
use crate::input::{churn_film, geq_queries, Scale};
use crate::path::FramePath;
use crate::spec;
use crate::stats;
use crate::trace::{by_name, SpanId, Tracer};
use crate::Res;

/// Frames of the churn film the durable pass replays.
const FRAMES: usize = CHURN_FRAMES / 5;
/// Crash images per pass that takes them, and how often the traced run
/// recovers each to time it (the warm-up pass recovers each once, to check
/// it).
const IMAGES: usize = 8;
const TIMED_RECOVERIES: usize = 3;

const SNAPSHOT_ENCODE: &str = "core.snapshot.encode";
const SNAPSHOT_SAVE: &str = "store.snap.save";
const WAL_PRUNE: &str = "store.wal.prune";
const RECORD_ENCODE: &str = "engine.persist.encode";
const WAL_APPEND: &str = "store.wal.append";
const WAL_SYNC: &str = "store.wal.sync";

pub struct Durable {
    film: Film,
    data_dir: PathBuf,
    passes: usize,
}

/// A durable pass and what only it can tell.
struct Run {
    pass: Pass,
    metrics: MaintenanceMetrics,
    images: Vec<PathBuf>,
    recover_ms: Vec<f64>,
    replayed_records: Vec<f64>,
}

/// What a durable pass writes to.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Disk {
    Real,
    Memory,
}

impl Disk {
    fn io(self) -> SharedIo {
        match self {
            Disk::Real => RealIo::shared(),
            Disk::Memory => MemDisk::new().io(),
        }
    }
}

/// Copies a data directory and flushes the copy, so that no dirty pages
/// of the benchmark's own are left for the store's next fsyncs to wait on.
fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let copy = to.join(entry.file_name());
        std::fs::copy(entry.path(), &copy)?;
        std::fs::File::open(copy)?.sync_all()?;
    }
    std::fs::File::open(to)?.sync_all()?;
    Ok(())
}

impl Durable {
    pub fn new(seed: u64, scale: Scale, data_dir: &Path) -> Res<Self> {
        Ok(Durable {
            film: Film::new(
                || churn_film(seed, scale.frames(FRAMES)),
                geq_queries(),
                Vec::new(),
            )?,
            data_dir: data_dir.to_path_buf(),
            passes: 0,
        })
    }

    fn next_dir(&mut self) -> PathBuf {
        self.passes += 1;
        self.data_dir.join(format!("durable-{}", self.passes))
    }

    /// Frame indices before which a crash image is taken: evenly spaced
    /// over the timed section of a pass that stops before frame `end`.
    fn image_points(&self, end: usize) -> Vec<usize> {
        let window = self.film.first_window();
        (1..=IMAGES)
            .map(|k| window + k * (end - window) / (IMAGES + 1))
            .collect()
    }

    /// One pass over the frames before `end`, on `disk`. With `recoveries`,
    /// and then on the real disk only, it also takes the crash images and
    /// recovers each that many times. The timed passes take none: they
    /// leave the device to the store.
    fn run(&mut self, end: usize, disk: Disk, recoveries: usize) -> Res<Run> {
        assert!(
            recoveries == 0 || disk == Disk::Real,
            "crash images are directories"
        );
        let dir = self.next_dir();
        let live = dir.join("live");
        let started = Instant::now();
        let mut engine = build_engine(MaintainerKind::Ssg, &self.film.queries)?;
        engine.attach_durability(disk.io(), &live)?;
        let window = self.film.first_window();
        let mut observer = Observer::new(&self.film);
        observer.observe(&mut engine, 0..window)?;
        let setup_s = started.elapsed().as_secs_f64();

        let image_points = if recoveries > 0 {
            self.image_points(end)
        } else {
            Vec::new()
        };
        let mut images = Vec::new();
        let mut next = window;
        for &point in &image_points {
            observer.observe(&mut engine, next..point)?;
            next = point;
            // Frame `point - 1` is acknowledged, frame `point` not yet sent.
            let image = dir.join(format!("image-{}", images.len()));
            copy_dir(&live, &image)?;
            images.push(image);
        }
        observer.observe(&mut engine, next..end)?;
        let metrics = engine.metrics();
        // No shutdown: the engine goes as a killed process would.
        drop(engine);

        let mut run = Run {
            pass: observer.into_pass(setup_s, window),
            metrics,
            images,
            recover_ms: Vec::new(),
            replayed_records: Vec::new(),
        };
        for (image, point) in run.images.iter().zip(image_points) {
            for recovery in 0..recoveries {
                let (recovered, nanos) = timed(|| TemporalVideoQueryEngine::recover_at(image));
                let (mut engine, report) = recovered?;
                run.recover_ms.push(nanos as f64 / 1e6);
                run.replayed_records.push(report.records_replayed as f64);
                // The last recovery resumes the film; that writes to the
                // image, so the earlier ones only read it.
                if recovery + 1 == recoveries {
                    let resume = point..(point + window).min(self.film.frames.len());
                    let mut resumed = Observer::new(&self.film);
                    resumed.observe(&mut engine, resume)?;
                    run.pass.attempted += resumed.latencies_ns.len() as u64;
                    run.pass.failed += resumed.failed;
                }
            }
        }
        Ok(run)
    }
}

/// The store's half of a durable frame, as `observe` orders it: a snapshot
/// that a compaction epoch made due is written before the next operation;
/// the frame's record is encoded before, appended and fsynced after the
/// in-memory work.
struct StoreHooks {
    _lock: DirLock,
    wal: Wal,
    snapshots: SnapshotStore,
    snapshot_due: bool,
    previous_snapshot_seq: u64,
    record: Vec<u8>,
}

impl StoreHooks {
    fn attach(dir: &Path, path: &FramePath) -> Res<Self> {
        let io = RealIo::shared();
        let lock = DirLock::acquire(io.clone(), dir)?;
        let mut snapshots = SnapshotStore::open(io.clone(), dir)?;
        let (wal, _) = Wal::open(io, dir)?;
        let seq = wal.next_seq() - 1;
        snapshots.save(seq, &Self::snapshot_of(path)?)?;
        Ok(StoreHooks {
            _lock: lock,
            wal,
            snapshots,
            snapshot_due: false,
            previous_snapshot_seq: seq,
            record: Vec::new(),
        })
    }

    /// The maintainer's state: the bulk of what the engine snapshots (its
    /// own codec, which adds registry, catalog and lifecycle, is private).
    fn snapshot_of(path: &FramePath) -> Res<Vec<u8>> {
        let mut encoder = Encoder::new();
        path.maintainer().snapshot_state(&mut encoder)?;
        Ok(encoder.into_bytes())
    }
}

impl Hooks for StoreHooks {
    fn before(
        &mut self,
        tracer: &mut Tracer,
        root: SpanId,
        index: u64,
        frame: &FrameObjects,
        path: &FramePath,
    ) -> Res<()> {
        if self.snapshot_due {
            let payload = tracer.span(SNAPSHOT_ENCODE, root, index, || Self::snapshot_of(path))?;
            let seq = self.wal.next_seq() - 1;
            tracer.span(SNAPSHOT_SAVE, root, index, || {
                self.snapshots.save(seq, &payload)
            })?;
            tracer.span(WAL_PRUNE, root, index, || {
                self.wal.prune_through(self.previous_snapshot_seq)
            })?;
            self.previous_snapshot_seq = seq;
            self.snapshot_due = false;
        }
        self.record = tracer.span(RECORD_ENCODE, root, index, || encode_frame_record(frame));
        Ok(())
    }

    fn after(
        &mut self,
        tracer: &mut Tracer,
        root: SpanId,
        index: u64,
        _matches: &[QueryMatch],
        path: &FramePath,
    ) -> Res<()> {
        self.snapshot_due |= path.compacted;
        tracer.span(WAL_APPEND, root, index, || self.wal.append(&self.record))?;
        tracer.span(WAL_SYNC, root, index, || self.wal.sync())?;
        Ok(())
    }
}

impl Workload for Durable {
    fn name(&self) -> &'static str {
        spec::CHURN_DURABLE
    }

    fn prepared(&self) -> &Prepared {
        &self.film.prepared
    }

    /// Set-up is timed on the store's in-memory disk, the replay on the real
    /// one. `setup_s` is the one timing the driver gates; on the real disk
    /// it is 65 fsyncs and little else, and this host's device took 7.5 ms
    /// over them in one hour and 15.7 ms in another. In memory it is what
    /// engine and store do to get there, which is what the gate is for:
    /// work moved into set-up shows.
    fn pass(&mut self, extent: Extent) -> Res<Pass> {
        let (window, frames) = (self.film.first_window(), self.film.frames.len());
        let set_up = self.run(window, Disk::Memory, 0)?.pass;
        if extent == Extent::SetUpOnly {
            return Ok(set_up);
        }
        let mut pass = self.run(frames, Disk::Real, 0)?.pass;
        pass.setup_s = set_up.setup_s;
        pass.attempted += set_up.attempted;
        pass.failed += set_up.failed;
        Ok(pass)
    }

    /// The first third of the film, with the crash images taken, recovered
    /// and resumed: every run checks that a recovered engine carries on as
    /// the uninterrupted one did.
    fn warm_up(&mut self) -> Res<Pass> {
        let (window, frames) = (self.film.first_window(), self.film.frames.len());
        Ok(self
            .run(window + (frames - window) / 3, Disk::Real, 1)?
            .pass)
    }

    fn traced(&mut self) -> Res<Traced> {
        // The traced replay and the untraced pass it is held against run
        // back to back: the device drifts, and less in two seconds than in
        // ten.
        let dir = self.next_dir();
        let mut tracer = Tracer::new(self.film.frames.len() * 9);
        let path = traced::new_path(&self.film, MaintainerKind::Ssg)?;
        let mut hooks = StoreHooks::attach(&dir, &path)?;
        let run = traced::replay(&self.film, path, &mut tracer, &mut hooks)?;
        let untraced = self.run(self.film.frames.len(), Disk::Real, TIMED_RECOVERIES)?;
        let in_memory = self.run(self.film.frames.len(), Disk::Memory, 0)?;
        let all_frames = self.film.frames.len() as f64;

        // The read side, one call at a time, on the crash images.
        let mut load_ns = Vec::new();
        let mut read_ns = Vec::new();
        for image in &untraced.images {
            let (loaded, nanos) = timed(|| -> Res<_> {
                Ok(SnapshotStore::open(RealIo::shared(), image)?.load_latest()?)
            });
            let snapshot = loaded?.ok_or("a crash image holds no snapshot")?;
            load_ns.push(nanos as f64 / 1e3);
            let (records, nanos) = timed(|| -> Res<_> {
                Ok(Wal::open(RealIo::shared(), image)?
                    .0
                    .read_from(snapshot.seq)?)
            });
            records?;
            read_ns.push(nanos as f64 / 1e3);
        }

        let spans = tracer.spans();
        let stats = by_name(spans);
        let frames = run.frames;

        let mut layers = Layers::default();
        traced::set_core_layers(&mut layers, &[&self.film], spans, &run)?;
        let untraced_ns = untraced.pass.timed_ns();
        traced::set_trace_layers(&mut layers, spans, untraced_ns);
        traced::set_observe_layers(
            &mut layers,
            untraced_ns as f64 / 1e3 / frames as f64,
            traced::layer_self_ns(spans) as f64 / 1e3 / frames as f64,
        );
        layers.set(
            "engine.persist.encode_us",
            traced::mean_us(spans, RECORD_ENCODE, frames),
        );
        layers.set(
            "store.wal.append_us",
            traced::mean_us(spans, WAL_APPEND, frames),
        );
        layers.set(
            "store.wal.sync_us",
            traced::mean_us(spans, WAL_SYNC, frames),
        );
        if let Some(syncs) = stats.get(WAL_SYNC) {
            layers.set(
                "store.wal.sync_p99_us",
                stats::quantile(&syncs.durations_ns, 0.99) as f64 / 1e3,
            );
        }
        if let Some(saves) = stats.get(SNAPSHOT_SAVE) {
            layers.set("store.snap.save_us", saves.mean_us(saves.count()));
        }
        layers.set("store.snap.load_us", stats::mean(&load_ns));
        layers.set("store.wal.read_us", stats::mean(&read_ns));
        let metrics = &untraced.metrics;
        layers.set("store.fsyncs_per_frame", metrics.fsyncs as f64 / all_frames);
        layers.set(
            "store.wal_bytes_per_frame",
            metrics.wal_bytes as f64 / all_frames,
        );
        layers.set(
            "store.snapshot_bytes_per_frame",
            metrics.snapshot_bytes as f64 / all_frames,
        );
        layers.set("store.snapshots", metrics.snapshots_written as f64);
        let disk_bytes_per_frame = (metrics.wal_bytes + metrics.snapshot_bytes) as f64 / all_frames;
        layers.set(spec::DISK_BYTES_PER_FRAME, disk_bytes_per_frame);
        layers.set(
            "store.device_share",
            1.0 - ratio(in_memory.pass.timed_ns() as f64, untraced_ns as f64),
        );
        let recover_ms = stats::median(&untraced.recover_ms);
        layers.set(spec::RECOVER_MS, recover_ms);
        // The images differ in how much there is to replay; what tells
        // noise is how the rounds over all of them differ.
        let rounds: Vec<f64> = (0..TIMED_RECOVERIES)
            .map(|round| {
                let of_round = untraced.recover_ms.iter().skip(round);
                stats::median(
                    &of_round
                        .step_by(TIMED_RECOVERIES)
                        .copied()
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        layers.set(
            "engine.recover.replayed_records",
            stats::mean(&untraced.replayed_records),
        );
        Ok(Traced {
            layers,
            end_to_end: vec![
                (spec::DISK_BYTES_PER_FRAME, disk_bytes_per_frame, 0.0),
                (spec::RECOVER_MS, recover_ms, stats::spread(&rounds)),
            ],
            spans: spans.to_vec(),
            attempted: untraced.pass.attempted
                + in_memory.pass.attempted
                + self.film.frames.len() as u64,
            failed: untraced.pass.failed + in_memory.pass.failed + run.failed,
        })
    }

    fn corrupt_reference(&mut self) {
        self.film.corrupt_reference();
    }
}
