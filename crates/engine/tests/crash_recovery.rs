//! Crash-recovery differential suite (ISSUE 9 acceptance criterion).
//!
//! A fixed script of durable operations — frames with track ends, a
//! mid-stream query registration, a mid-stream cancellation — runs against
//! a [`MemDisk`] through [`FaultIo`](tvq_store::FaultIo), which kills the
//! "process" at every mutating IO operation in turn (WAL appends and
//! fsyncs, segment rotations, snapshot temp-writes / renames / directory
//! syncs, WAL prunes), under each [`TornTail`] policy for the unsynced
//! suffix. After each injected crash the engine is rebuilt with
//! [`TemporalVideoQueryEngine::recover`] from the clean post-reboot view of
//! the same disk, resumed from the durable cursor, and the *complete*
//! transcript — every frame result, the final catalog version, the final
//! metrics — must be identical to a run that never crashed.
//!
//! Two invariants carry the suite:
//!
//! * **acknowledged implies durable**: every operation the crashed run saw
//!   an `Ok` for must be reflected in the recovered state;
//! * **durable prefix**: the recovered state corresponds to an exact
//!   prefix of the script — at most one operation past the last
//!   acknowledged one (the fsync-before-ack ambiguity window).
//!
//! Corruption beyond crash semantics (bit flips) is covered separately:
//! recovery either falls back to an older intact snapshot or fails with a
//! clean error — it never silently replays damaged state.

use std::path::Path;

use tvq_common::{ClassId, Error, FrameId, FrameObjects, ObjectId, QueryId, WindowSpec};
use tvq_core::{CompactionPolicy, MaintainerKind, MaintenanceMetrics};
use tvq_engine::{EngineConfig, FrameResult, TemporalVideoQueryEngine};
use tvq_query::{CnfQuery, Condition};
use tvq_store::{MemDisk, SharedIo, TornTail};

const ROTATE_BYTES: usize = 96;

/// One durable operation of the script.
#[derive(Debug, Clone)]
enum Op {
    Frame(FrameObjects),
    Add(CnfQuery),
    Remove(QueryId),
}

fn frame(fid: u64, detections: &[(u32, u16)], ends: &[u32]) -> FrameObjects {
    FrameObjects::new(
        FrameId(fid),
        detections
            .iter()
            .map(|&(id, class)| (ObjectId(id), ClassId(class)))
            .collect(),
    )
    .with_track_ends(ends.iter().map(|&id| ObjectId(id)).collect())
}

fn geq(id: u32, class: u16, n: u32) -> CnfQuery {
    CnfQuery::conjunction(QueryId(id), vec![Condition::at_least(ClassId(class), n)])
}

/// The scripted workload: 20 frames with churn in classes and track ends,
/// a query added at position 7 and one removed at position 15. Dense
/// compaction (`every(3)`) makes several snapshot epochs land inside it.
fn script() -> Vec<Op> {
    let mut ops = Vec::new();
    for i in 0..20u64 {
        let a = (i % 5) as u32 + 1;
        let b = (i % 3) as u32 + 6;
        let detections = [(a, 1u16), (b, 0u16), (9, (i % 2) as u16)];
        let ends: &[u32] = match i {
            4 => &[2],
            9 => &[7, 9],
            14 => &[1],
            _ => &[],
        };
        ops.push(Op::Frame(frame(i, &detections, ends)));
        if i == 6 {
            ops.push(Op::Add(geq(1, 0, 2)));
        }
        if i == 13 {
            ops.push(Op::Remove(QueryId(1)));
        }
    }
    ops
}

fn build_engine() -> TemporalVideoQueryEngine {
    TemporalVideoQueryEngine::builder(
        EngineConfig::new(WindowSpec::new(4, 2).unwrap())
            .with_compaction(Some(CompactionPolicy::every(3))),
    )
    .with_query(geq(0, 1, 1))
    .build()
    .unwrap()
}

/// What the differential compares: every frame result in script order, the
/// final catalog version, and the final metrics modulo volatile fields.
struct Reference {
    results: Vec<FrameResult>,
    catalog_version: u64,
    metrics: MaintenanceMetrics,
}

/// The interner memo is a cache (deliberately not persisted), the store
/// counters are handle-local, and the `*_bytes` memory gauges report
/// allocator capacities (which depend on each container's growth history,
/// not its contents), so all of those legitimately differ between a
/// crashed-and-recovered run and an uninterrupted one. Everything else in
/// the metrics must match exactly.
fn scrub(metrics: &MaintenanceMetrics) -> MaintenanceMetrics {
    let mut m = metrics.clone();
    m.intersection_cache_hits = 0;
    m.intersection_cache_misses = 0;
    m.intersection_cache_resizes = 0;
    m.intersection_cache_slots = 0;
    m.arena_bytes = 0;
    m.bitmap_bytes = 0;
    m.class_map_bytes = 0;
    m.lifecycle_bytes = 0;
    m.wal_bytes = 0;
    m.wal_records = 0;
    m.snapshots_written = 0;
    m.snapshot_bytes = 0;
    m.fsyncs = 0;
    m.recoveries = 0;
    m
}

fn apply(
    engine: &mut TemporalVideoQueryEngine,
    op: &Op,
) -> tvq_common::Result<Option<FrameResult>> {
    match op {
        Op::Frame(f) => engine.observe(f).map(Some),
        Op::Add(q) => engine.add_query(q.clone()).map(|()| None),
        Op::Remove(id) => engine.remove_query(*id).map(|()| None),
    }
}

/// Runs the full script durably with no faults; also reports the maximum
/// number of live WAL segments seen (proof the sweep covers rotation) and
/// the checkpoint interval the run exhibited: the largest number of WAL
/// records between consecutive snapshots (epochs only land a snapshot when
/// the compaction check retired something, so this is workload-dependent).
fn run_uninterrupted(io: SharedIo, dir: &Path) -> (Reference, usize, u64) {
    let mut engine = build_engine();
    engine.attach_durability(io.clone(), dir).unwrap();
    engine.set_wal_rotate_bytes(ROTATE_BYTES);
    let bootstrap = engine.metrics();
    let (mut last_snaps, mut wal_at_snap) = (bootstrap.snapshots_written, bootstrap.wal_records);
    let mut checkpoint_gap = 0u64;
    let mut results = Vec::new();
    let mut max_segments = 0usize;
    for op in script() {
        if let Some(result) = apply(&mut engine, &op).unwrap() {
            results.push(result);
        }
        let m = engine.metrics();
        if m.snapshots_written > last_snaps {
            checkpoint_gap = checkpoint_gap.max(m.wal_records - wal_at_snap);
            last_snaps = m.snapshots_written;
            wal_at_snap = m.wal_records;
        }
        let segments = io
            .list(dir)
            .unwrap()
            .iter()
            .filter(|n| n.starts_with("wal-"))
            .count();
        max_segments = max_segments.max(segments);
    }
    engine.sync_store().unwrap();
    // The unsnapshotted tail after the last epoch is also a possible replay.
    checkpoint_gap = checkpoint_gap.max(engine.metrics().wal_records - wal_at_snap);
    let reference = Reference {
        results,
        catalog_version: engine.catalog_version(),
        metrics: scrub(&engine.metrics()),
    };
    (reference, max_segments, checkpoint_gap)
}

/// Runs the script through a faulty IO until the injected crash (or to
/// completion), returning the acknowledged frame results.
fn run_until_crash(io: SharedIo, dir: &Path) -> Vec<FrameResult> {
    let mut engine = build_engine();
    let mut acked = Vec::new();
    if engine.attach_durability(io, dir).is_err() {
        return acked;
    }
    engine.set_wal_rotate_bytes(ROTATE_BYTES);
    for op in script() {
        match apply(&mut engine, &op) {
            Ok(Some(result)) => acked.push(result),
            Ok(None) => {}
            Err(_) => return acked, // the injected crash; the process is dead
        }
    }
    let _ = engine.sync_store();
    acked
}

/// Recovers from the post-reboot disk, resumes the script from the durable
/// cursor, and returns the reconstructed full transcript plus the number of
/// WAL records recovery replayed (0 for a fresh restart).
fn recover_and_resume(
    disk: &MemDisk,
    dir: &Path,
    acked: &[FrameResult],
    reference: &Reference,
) -> (Reference, u64) {
    let io = disk.io();
    let ops = script();

    // A crash before the bootstrap snapshot landed means there is nothing
    // to recover — the restart starts the engine from scratch.
    if !TemporalVideoQueryEngine::has_data(&io, dir) {
        assert!(acked.is_empty(), "acknowledged work must be recoverable");
        let mut engine = build_engine();
        engine.attach_durability(io, dir).unwrap();
        engine.set_wal_rotate_bytes(ROTATE_BYTES);
        let mut results = Vec::new();
        for op in &ops {
            if let Some(result) = apply(&mut engine, op).unwrap() {
                results.push(result);
            }
        }
        engine.sync_store().unwrap();
        let fresh = Reference {
            results,
            catalog_version: engine.catalog_version(),
            metrics: scrub(&engine.metrics()),
        };
        return (fresh, 0);
    }

    let (mut engine, report) = TemporalVideoQueryEngine::recover(io, dir).unwrap();
    let durable_frames = engine.metrics().frames_processed as usize;
    let durable_catalog = engine.catalog_version() as usize;

    // Acknowledged implies durable; at most the one in-flight operation of
    // the fsync-before-ack window may be durable without an ack.
    assert!(
        durable_frames == acked.len() || durable_frames == acked.len() + 1,
        "durable frames {durable_frames} vs acknowledged {}",
        acked.len()
    );
    // Replayed results must match the reference slice they re-execute.
    let replay_start = durable_frames - report.replayed_frames.len();
    assert_eq!(
        report.replayed_frames,
        reference.results[replay_start..durable_frames],
        "replay diverged from the original execution"
    );

    // Transcript so far: every acknowledged result, plus the durable but
    // unacknowledged in-flight frame (if any) taken from the replay.
    let mut results = acked.to_vec();
    if durable_frames == acked.len() + 1 {
        results.push(
            report
                .replayed_frames
                .last()
                .cloned()
                .expect("in-flight durable frame must appear in the replay"),
        );
    }

    // The durable state is an exact prefix of the script; skip it.
    let (mut frames_seen, mut catalog_seen) = (0usize, 0usize);
    let mut resume_at = ops.len();
    for (index, op) in ops.iter().enumerate() {
        let done = match op {
            Op::Frame(_) => {
                frames_seen += 1;
                frames_seen <= durable_frames
            }
            Op::Add(_) | Op::Remove(_) => {
                catalog_seen += 1;
                catalog_seen <= durable_catalog
            }
        };
        if !done {
            resume_at = index;
            break;
        }
    }

    for op in &ops[resume_at..] {
        if let Some(result) = apply(&mut engine, op).unwrap() {
            results.push(result);
        }
    }
    engine.sync_store().unwrap();
    let resumed = Reference {
        results,
        catalog_version: engine.catalog_version(),
        metrics: scrub(&engine.metrics()),
    };
    (resumed, report.records_replayed)
}

fn assert_matches_reference(case: &str, run: &Reference, reference: &Reference) {
    assert_eq!(
        run.results.len(),
        reference.results.len(),
        "{case}: transcript length"
    );
    for (index, (got, want)) in run.results.iter().zip(&reference.results).enumerate() {
        assert_eq!(got, want, "{case}: frame result {index}");
    }
    assert_eq!(
        run.catalog_version, reference.catalog_version,
        "{case}: catalog version"
    );
    assert_eq!(run.metrics, reference.metrics, "{case}: final metrics");
}

/// Slack on the replay-depth bound: the deferred snapshot flush plus the
/// fsync-before-ack window each admit one extra in-flight record.
const REPLAY_SLACK: u64 = 2;

/// The tentpole: every injected crash point, under every torn-tail policy,
/// recovers to a continuation indistinguishable from a run that never
/// crashed — and never replays more of the WAL than one checkpoint interval.
#[test]
fn every_crash_point_recovers_identically() {
    let dir = Path::new("/sweep");
    let (reference, max_segments, checkpoint_gap) = {
        let disk = MemDisk::new();
        run_uninterrupted(disk.io(), dir)
    };
    assert!(
        max_segments >= 2,
        "script must force segment rotation (saw {max_segments} segments)"
    );
    assert!(
        reference.metrics.compactions >= 2,
        "script must cross compaction epochs"
    );

    // Counting run: same script through a fault IO that never fires.
    let count_disk = MemDisk::new();
    let counter = count_disk.fault_io(u64::MAX, TornTail::Drop);
    let counter_io: SharedIo = counter.clone();
    run_until_crash(counter_io, dir);
    let total_ops = counter.ops();
    assert!(
        total_ops >= 60,
        "expected a rich crash surface, got {total_ops} IO ops"
    );

    for crash_at in 1..=total_ops {
        for torn in TornTail::ALL {
            let disk = MemDisk::new();
            let faulty = disk.fault_io(crash_at, torn);
            let faulty_io: SharedIo = faulty.clone();
            let acked = run_until_crash(faulty_io, dir);
            assert!(faulty.crashed(), "crash point {crash_at} was never reached");
            let (resumed, records_replayed) = recover_and_resume(&disk, dir, &acked, &reference);
            let case = format!("crash at op {crash_at} ({torn:?})");
            assert_matches_reference(&case, &resumed, &reference);
            assert!(
                records_replayed <= checkpoint_gap + REPLAY_SLACK,
                "{case}: replayed {records_replayed} WAL records, more than one checkpoint \
                 interval ({checkpoint_gap}) + {REPLAY_SLACK} in flight"
            );
        }
    }
}

/// Clean shutdown and restart: `sync_store`, drop, `recover`, continue.
#[test]
fn clean_restart_resumes_exactly() {
    let dir = Path::new("/clean");
    let (reference, _, _) = {
        let disk = MemDisk::new();
        run_uninterrupted(disk.io(), dir)
    };

    let disk = MemDisk::new();
    let ops = script();
    let split = 11usize;
    let mut results = Vec::new();
    let counters = {
        let mut engine = build_engine();
        engine.attach_durability(disk.io(), dir).unwrap();
        engine.set_wal_rotate_bytes(ROTATE_BYTES);
        for op in &ops[..split] {
            if let Some(result) = apply(&mut engine, op).unwrap() {
                results.push(result);
            }
        }
        engine.sync_store().unwrap();
        engine.match_counters()
    };
    assert!(counters.0 > 0, "the prefix reports matches");

    let (mut engine, report) = TemporalVideoQueryEngine::recover(disk.io(), dir).unwrap();
    assert_eq!(
        engine.match_counters(),
        counters,
        "match counters survive restart"
    );
    assert!(
        report.wal_truncation.is_none(),
        "clean shutdown tears nothing"
    );
    assert_eq!(engine.metrics().recoveries, 1);
    for op in &ops[split..] {
        if let Some(result) = apply(&mut engine, op).unwrap() {
            results.push(result);
        }
    }
    let run = Reference {
        results,
        catalog_version: engine.catalog_version(),
        metrics: scrub(&engine.metrics()),
    };
    assert_matches_reference("clean restart", &run, &reference);
}

/// Double-open protection and attach/recover misuse are clean errors.
#[test]
fn attach_and_recover_refuse_misuse() {
    let dir = Path::new("/misuse");
    let disk = MemDisk::new();
    assert!(
        TemporalVideoQueryEngine::recover(disk.io(), dir).is_err(),
        "recovering an empty directory must fail"
    );

    let mut engine = build_engine();
    engine.attach_durability(disk.io(), dir).unwrap();
    engine.observe(&frame(0, &[(1, 1)], &[])).unwrap();

    let mut second = build_engine();
    assert!(
        second.attach_durability(disk.io(), dir).is_err(),
        "the directory lock must refuse a second live engine"
    );
    drop(engine);

    let mut third = build_engine();
    assert!(
        third.attach_durability(disk.io(), dir).is_err(),
        "attach must refuse a directory that already holds engine data"
    );
    let recovered = TemporalVideoQueryEngine::recover(disk.io(), dir);
    assert!(recovered.is_ok(), "recover is the restart path");
}

/// NAIVE is a baseline, not a durable product: attaching durability is a
/// typed refusal that touches nothing on disk and acknowledges nothing, and
/// the engine keeps serving frames in memory.
#[test]
fn naive_engines_refuse_durability_and_keep_observing() {
    let dir = Path::new("/naive");
    let disk = MemDisk::new();
    let mut engine = TemporalVideoQueryEngine::builder(
        EngineConfig::new(WindowSpec::new(4, 2).unwrap()).with_maintainer(MaintainerKind::Naive),
    )
    .with_query(geq(0, 1, 1))
    .build()
    .unwrap();
    engine.observe(&frame(0, &[(1, 1)], &[])).unwrap();

    let err = engine.attach_durability(disk.io(), dir).unwrap_err();
    assert!(matches!(err, Error::Store(_)), "{err}");
    assert!(!engine.is_durable());
    assert_eq!(disk.total_bytes(), 0, "nothing may reach the disk");
    assert!(!TemporalVideoQueryEngine::has_data(&disk.io(), dir));

    let result = engine.observe(&frame(1, &[(1, 1)], &[])).unwrap();
    assert!(result.any(), "the car is two frames old: duration 2 is met");
    assert_eq!(engine.metrics().wal_records, 0);
}

/// A bit flip in the newest snapshot: recovery falls back to the previous
/// intact snapshot (whose WAL suffix is retained exactly for this) and the
/// continuation is still identical.
#[test]
fn snapshot_bit_flip_falls_back_to_previous_epoch() {
    let dir = Path::new("/snapflip");
    let (reference, _, _) = {
        let disk = MemDisk::new();
        run_uninterrupted(disk.io(), dir)
    };

    let disk = MemDisk::new();
    let ops = script();
    let split = 17usize;
    let mut results = Vec::new();
    {
        let mut engine = build_engine();
        engine.attach_durability(disk.io(), dir).unwrap();
        engine.set_wal_rotate_bytes(ROTATE_BYTES);
        for op in &ops[..split] {
            if let Some(result) = apply(&mut engine, op).unwrap() {
                results.push(result);
            }
        }
        assert!(
            engine.metrics().snapshots_written >= 3,
            "need at least two snapshot generations on disk"
        );
        engine.sync_store().unwrap();
    }

    let io = disk.io();
    let newest = io
        .list(dir)
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("snap-") && n.ends_with(".snap"))
        .max()
        .expect("snapshots on disk");
    assert!(disk.flip_bit(&dir.join(&newest), 40), "flip a payload byte");

    let (mut engine, report) = TemporalVideoQueryEngine::recover(io, dir).unwrap();
    assert_eq!(
        report.snapshots_skipped.len(),
        1,
        "the damaged snapshot is skipped and reported: {:?}",
        report.snapshots_skipped
    );
    for op in &ops[split..] {
        if let Some(result) = apply(&mut engine, op).unwrap() {
            results.push(result);
        }
    }
    let run = Reference {
        results,
        catalog_version: engine.catalog_version(),
        metrics: scrub(&engine.metrics()),
    };
    assert_matches_reference("snapshot bit flip", &run, &reference);
}

/// Bit flips in acknowledged WAL history are detected, never silently
/// replayed: recovery refuses with a corruption error.
#[test]
fn wal_bit_flips_are_detected() {
    let dir = Path::new("/walflip");
    // No compaction: the bootstrap snapshot is the only one, so the whole
    // WAL stays live and multiple segments survive unpruned.
    let build = || {
        TemporalVideoQueryEngine::builder(
            EngineConfig::new(WindowSpec::new(4, 2).unwrap()).with_compaction(None),
        )
        .with_query(geq(0, 1, 1))
        .build()
        .unwrap()
    };

    let disk = MemDisk::new();
    {
        let mut engine = build();
        engine.attach_durability(disk.io(), dir).unwrap();
        engine.set_wal_rotate_bytes(64);
        for i in 0..12u64 {
            engine.observe(&frame(i, &[(1, 1), (2, 0)], &[])).unwrap();
        }
        engine.sync_store().unwrap();
    }
    let io = disk.io();
    let mut segments: Vec<String> = io
        .list(dir)
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .collect();
    segments.sort();
    assert!(segments.len() >= 2, "need rotation: {segments:?}");

    // Damage in an earlier segment = acknowledged history is gone.
    assert!(disk.flip_bit(&dir.join(&segments[0]), 10));
    let err = TemporalVideoQueryEngine::recover(io, dir).unwrap_err();
    assert!(
        matches!(err, tvq_common::Error::Corrupt(_)),
        "mid-log damage must refuse recovery, got {err}"
    );
}

/// A label `add_query_text` registers is as durable as its query. The
/// engine crashes at the first frame's WAL append after the registration
/// was acknowledged, before any snapshot holds the new label. The recovered
/// registry still names the class the query counts, and a label registered
/// after recovery gets a class of its own, so its frames match only its
/// own query.
#[test]
fn text_query_labels_survive_a_crash_before_the_next_snapshot() {
    let dir = Path::new("/labels");
    // No compaction: the bootstrap snapshot stays the only one.
    let build = || {
        TemporalVideoQueryEngine::builder(
            EngineConfig::new(WindowSpec::new(4, 2).unwrap()).with_compaction(None),
        )
        .with_query(geq(0, 1, 1))
        .build()
        .unwrap()
    };
    let counter = MemDisk::new().fault_io(u64::MAX, TornTail::Drop);
    let acked_ops = {
        let mut engine = build();
        engine.attach_durability(counter.clone(), dir).unwrap();
        engine.add_query_text("bicycle >= 1").unwrap();
        counter.ops()
    };

    let disk = MemDisk::new();
    let faulty = disk.fault_io(acked_ops + 1, TornTail::Drop);
    let (bicycle, class) = {
        let mut engine = build();
        engine.attach_durability(faulty.clone(), dir).unwrap();
        let bicycle = engine.add_query_text("bicycle >= 1").unwrap();
        let class = engine.registry().id("bicycle").unwrap();
        assert_eq!(class, ClassId(4), "the first label past the defaults");
        assert!(engine.observe(&frame(0, &[(1, 4)], &[])).is_err());
        (bicycle, class)
    };
    assert!(faulty.crashed());

    let (mut engine, _) = TemporalVideoQueryEngine::recover(disk.io(), dir).unwrap();
    assert_eq!(engine.registry().id("bicycle"), Some(class));
    let counted: Vec<ClassId> = (engine.queries().iter())
        .filter(|q| q.id == bicycle)
        .flat_map(|q| q.classes())
        .collect();
    assert_eq!(counted, [class]);

    let skateboard = engine.add_query_text("skateboard >= 1").unwrap();
    let board = engine.registry().id("skateboard").unwrap();
    assert_ne!(board, class, "a lost label's id must not be minted again");
    let mut matched = Vec::new();
    for fid in 0..3u64 {
        let result = engine
            .observe(&frame(fid, &[(1, board.raw())], &[]))
            .unwrap();
        matched.extend(result.matches.iter().map(|m| m.query));
    }
    assert!(!matched.is_empty());
    assert!(
        matched.iter().all(|&query| query == skateboard),
        "{matched:?}"
    );
}

/// An add-query record whose registry disagrees with the recovered one (a
/// class id under another label) is corruption, never replayed.
#[test]
fn add_query_records_with_a_conflicting_registry_are_corrupt() {
    let dir = Path::new("/conflict");
    let disk = MemDisk::new();
    {
        let mut engine = build_engine();
        engine.attach_durability(disk.io(), dir).unwrap();
        engine.sync_store().unwrap();
    }
    let mut registry = tvq_common::ClassRegistry::new();
    registry.register("bicycle");
    let body = tvq_engine::persist::encode_add_query_record(&geq(1, 0, 1), &registry);
    let (mut wal, _) = tvq_store::Wal::open(disk.io(), dir).unwrap();
    wal.append(&body).unwrap();
    wal.sync().unwrap();
    let err = TemporalVideoQueryEngine::recover(disk.io(), dir).unwrap_err();
    assert!(
        matches!(&err, Error::Corrupt(msg) if msg.contains("bicycle")),
        "{err}"
    );
}
