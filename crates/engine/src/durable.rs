//! Durability: WAL + epoch snapshots + restart recovery for the engine.
//!
//! An engine with a data directory attached survives crashes: every
//! state-changing operation (observed frame, query add/remove) is appended
//! to a write-ahead log and fsynced *before* the call returns, and at every
//! compaction epoch boundary a complete [`persist`]
//! snapshot is written atomically, after which the covered WAL prefix is
//! pruned. [`TemporalVideoQueryEngine::recover`] reverses the process:
//! newest valid snapshot, then WAL tail replay through the same code paths
//! the live engine ran.
//!
//! # Write discipline
//!
//! Per durable operation the order is **apply → append → fsync → ack**
//! (one private step, `durably`, runs it for every operation): a
//! record reaches the log only for operations that succeeded, so replay
//! never re-executes a rejected operation, and the fsync-before-ack means
//! an acknowledged operation is always recovered. A crash *between* apply
//! and fsync loses the in-memory effect with the acknowledgement — the
//! caller never saw an `Ok`, so the recovered engine legitimately resumes
//! from the previous acknowledged state. (A crash after the fsync but
//! before the ack is the usual WAL ambiguity: the operation survives even
//! though the caller saw an error.)
//!
//! # Snapshot cadence
//!
//! A compaction epoch marks a snapshot *due*; the snapshot is written
//! lazily at the next durable operation (or an explicit
//! [`sync_store`](TemporalVideoQueryEngine::sync_store)), covering
//! everything logged so far. The write is deferred because the epoch runs
//! inside `observe`, after the frame is applied but before its record is
//! logged, and a snapshot must hold exactly the state the WAL sequence it
//! names produces. The WAL is pruned through the *previous* retained
//! snapshot's sequence, never the newest: the store keeps two generations
//! ([`KEEP_SNAPSHOTS`](tvq_store::snap::KEEP_SNAPSHOTS)) as corruption
//! fallbacks, and one is only usable while the records after *its*
//! sequence still exist.

use std::path::Path;

use tvq_common::{Error, Result};
use tvq_store::{DirLock, RealIo, SharedIo, SnapshotStore, Wal};

use crate::engine::{FrameResult, TemporalVideoQueryEngine};
use crate::persist::{self, WalRecord};

/// The engine's durability attachment: directory lock, WAL, snapshot store
/// and the bookkeeping between them.
pub(crate) struct Durability {
    _lock: DirLock,
    pub(crate) wal: Wal,
    pub(crate) snaps: SnapshotStore,
    /// Set at compaction epochs; cleared when the deferred snapshot is
    /// written.
    snapshot_due: bool,
    /// Sequence of the previous retained snapshot — the WAL prune cursor.
    prev_snapshot_seq: u64,
    /// Recoveries this engine went through (1 after `recover`).
    pub(crate) recoveries: u64,
}

/// What [`TemporalVideoQueryEngine::recover`] found and did.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Sequence of the snapshot the engine was rebuilt from.
    pub snapshot_seq: u64,
    /// Newer snapshots that failed validation, as `(seq, reason)`.
    pub snapshots_skipped: Vec<(u64, String)>,
    /// WAL records replayed on top of the snapshot.
    pub records_replayed: u64,
    /// Results of the replayed frames, in sequence order. The tail of this
    /// list covers operations that were durable but possibly never
    /// acknowledged before the crash.
    pub replayed_frames: Vec<FrameResult>,
    /// Why the WAL's torn tail was truncated, when it was.
    pub wal_truncation: Option<String>,
    /// Bytes discarded from the WAL's torn tail.
    pub wal_truncated_bytes: u64,
}

impl TemporalVideoQueryEngine {
    /// Attaches durability to a *freshly built* engine: locks `dir`,
    /// creates the WAL, and writes the bootstrap snapshot so
    /// [`recover`](Self::recover) always finds the configuration and
    /// catalog even before the first compaction epoch. Fails if the
    /// directory already holds engine data (restart with `recover`) or is
    /// locked by a live process.
    pub fn attach_durability(&mut self, io: SharedIo, dir: &Path) -> Result<()> {
        if self.durability.is_some() {
            return Err(Error::Store("durability is already attached".into()));
        }
        // Encoded first: a maintainer that cannot snapshot (the NAIVE and
        // reference baselines) refuses here, before the directory is touched.
        let payload = persist::encode_engine(self)?;
        let lock = DirLock::acquire(io.clone(), dir)?;
        let mut snaps = SnapshotStore::open(io.clone(), dir)?;
        if snaps.load_latest()?.is_some() {
            return Err(Error::Store(format!(
                "{} already holds engine data; restart with recover()",
                dir.display()
            )));
        }
        let (wal, report) = Wal::open(io, dir)?;
        if report.last_seq != 0 {
            return Err(Error::Store(format!(
                "{} holds {} wal records but no snapshot; refusing to overwrite",
                dir.display(),
                report.records
            )));
        }
        let seq = wal.next_seq() - 1;
        snaps.save(seq, &payload)?;
        self.durability = Some(Durability {
            _lock: lock,
            wal,
            snaps,
            snapshot_due: false,
            prev_snapshot_seq: seq,
            recoveries: 0,
        });
        Ok(())
    }

    /// Whether a durability attachment is active.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Whether `dir` holds recoverable engine data (any snapshot file).
    /// Servers use this to decide between a fresh
    /// [`attach_durability`](Self::attach_durability) and
    /// [`recover`](Self::recover).
    pub fn has_data(io: &SharedIo, dir: &Path) -> bool {
        SnapshotStore::has_snapshots(io, dir)
    }

    /// Rebuilds an engine from `dir`: newest valid snapshot plus WAL tail
    /// replay. The recovered engine resumes exactly where the acknowledged
    /// history ended — continuation results are identical to a run that
    /// never crashed. Corruption beyond the WAL's torn tail (or with no
    /// surviving snapshot) is reported as an error, never replayed around.
    pub fn recover(io: SharedIo, dir: &Path) -> Result<(Self, RecoveryReport)> {
        let lock = DirLock::acquire(io.clone(), dir)?;
        let snaps = SnapshotStore::open(io.clone(), dir)?;
        let loaded = snaps.load_latest()?.ok_or_else(|| {
            Error::Store(format!(
                "{} holds no snapshot; build a fresh engine with attach_durability()",
                dir.display()
            ))
        })?;
        let mut engine = persist::restore_engine(&loaded.payload)?;
        let (wal, wal_report) = Wal::open(io, dir)?;
        match wal.first_seq() {
            Some(first) if first > loaded.seq + 1 => {
                return Err(Error::Corrupt(format!(
                    "wal starts at seq {first}, leaving a gap after snapshot seq {}",
                    loaded.seq
                )));
            }
            Some(_) if wal.next_seq() <= loaded.seq => {
                return Err(Error::Corrupt(format!(
                    "wal ends at seq {} before snapshot seq {}",
                    wal_report.last_seq, loaded.seq
                )));
            }
            None if loaded.seq > 0 => {
                return Err(Error::Corrupt(format!(
                    "wal is empty but the snapshot covers seq {}",
                    loaded.seq
                )));
            }
            _ => {}
        }

        let mut report = RecoveryReport {
            snapshot_seq: loaded.seq,
            snapshots_skipped: loaded.skipped,
            wal_truncation: wal_report.truncation,
            wal_truncated_bytes: wal_report.truncated_bytes,
            ..RecoveryReport::default()
        };
        for (seq, body) in wal.read_from(loaded.seq)? {
            let record = persist::decode_record(&body)
                .map_err(|e| Error::Corrupt(format!("wal record {seq}: {e}")))?;
            match record {
                WalRecord::Frame(frame) => {
                    let result = engine.observe_applied(&frame).map_err(|e| {
                        Error::Corrupt(format!("wal frame {} does not replay: {e}", frame.fid))
                    })?;
                    report.replayed_frames.push(result);
                }
                WalRecord::AddQuery(query, logged) => {
                    // The logged registry extends the engine's, label for
                    // label: ids past the snapshot's registry are registered.
                    for (id, label) in logged.iter() {
                        let same = match engine.registry.label(id) {
                            Some(known) => known == label,
                            None => engine.registry.register(label.clone()) == Some(id),
                        };
                        if !same {
                            return Err(Error::Corrupt(format!(
                                "wal add-query {seq}: class {id:?} is {label} in the log, not in the registry"
                            )));
                        }
                    }
                    engine.apply_add_query(query).map_err(|e| {
                        Error::Corrupt(format!("wal add-query {seq} does not replay: {e}"))
                    })?;
                }
                WalRecord::RemoveQuery(id) => {
                    engine.apply_remove_query(id).map_err(|e| {
                        Error::Corrupt(format!("wal remove-query {seq} does not replay: {e}"))
                    })?;
                }
            }
            report.records_replayed += 1;
        }

        engine.durability = Some(Durability {
            _lock: lock,
            wal,
            snaps,
            // Checkpoint the replayed state at the next opportunity so a
            // crash loop cannot grow the unpruned tail without bound.
            snapshot_due: true,
            prev_snapshot_seq: loaded.seq,
            recoveries: 1,
        });
        Ok((engine, report))
    }

    /// [`recover`](Self::recover) against the real filesystem.
    pub fn recover_at(dir: &Path) -> Result<(Self, RecoveryReport)> {
        Self::recover(RealIo::shared(), dir)
    }

    /// Flushes pending durability work: writes a due snapshot and fsyncs
    /// the WAL. The graceful-shutdown hook — after it returns, dropping the
    /// engine (or the process) loses nothing.
    pub fn sync_store(&mut self) -> Result<()> {
        self.flush_due_snapshot()?;
        if let Some(d) = &mut self.durability {
            d.wal.sync()?;
        }
        Ok(())
    }

    /// Overrides the WAL's segment-rotation threshold. No-op without a
    /// durability attachment. Production keeps the default; the crash suite
    /// shrinks it so rotation crash points exist within a short script.
    pub fn set_wal_rotate_bytes(&mut self, bytes: usize) {
        if let Some(d) = &mut self.durability {
            d.wal.set_rotate_bytes(bytes);
        }
    }

    /// Marks a snapshot due (called at compaction epoch boundaries).
    pub(crate) fn mark_snapshot_due(&mut self) {
        if let Some(d) = &mut self.durability {
            d.snapshot_due = true;
        }
    }

    /// Writes the deferred snapshot, if one is due, covering every record
    /// logged so far; then prunes the WAL through the *previous* retained
    /// snapshot's sequence.
    pub(crate) fn flush_due_snapshot(&mut self) -> Result<()> {
        let due = self.durability.as_ref().is_some_and(|d| d.snapshot_due);
        if !due {
            return Ok(());
        }
        let payload = persist::encode_engine(self)?;
        let Some(d) = self.durability.as_mut() else {
            return Ok(());
        };
        let seq = d.wal.next_seq() - 1;
        d.snaps.save(seq, &payload)?;
        d.wal.prune_through(d.prev_snapshot_seq)?;
        d.prev_snapshot_seq = seq;
        d.snapshot_due = false;
        Ok(())
    }

    /// Runs one state-changing operation under the write discipline:
    /// flush a due snapshot, encode the operation's record (only when
    /// durable, and before `apply` consumes `input`), apply, then append
    /// and fsync the record. The `Ok` it returns is the caller's
    /// durability acknowledgement. `observe`, `add_query` and
    /// `remove_query` all run through it; WAL replay calls their `apply`
    /// halves directly, so it never re-logs what it replays.
    pub(crate) fn durably<I, T>(
        &mut self,
        input: I,
        record: impl FnOnce(&I, &Self) -> Vec<u8>,
        apply: impl FnOnce(&mut Self, I) -> Result<T>,
    ) -> Result<T> {
        self.flush_due_snapshot()?;
        let body = self.durability.is_some().then(|| record(&input, self));
        let output = apply(self, input)?;
        if let (Some(d), Some(body)) = (&mut self.durability, body) {
            d.wal.append(&body)?;
            d.wal.sync()?;
        }
        Ok(output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvq_common::{ClassId, FrameId, FrameObjects, ObjectId, QueryId, WindowSpec};
    use tvq_query::{CnfQuery, Condition};
    use tvq_store::MemDisk;

    use crate::config::EngineConfig;

    /// An operation its apply half rejects reaches the log neither before
    /// nor after the rejection, so replay never meets an operation that
    /// fails and recovery resumes exactly the acknowledged history.
    #[test]
    fn rejected_operations_are_never_logged() {
        let disk = MemDisk::new();
        let dir = Path::new("/engine");
        let mut engine =
            TemporalVideoQueryEngine::builder(EngineConfig::new(WindowSpec::new(4, 2).unwrap()))
                .with_query_text("car >= 1")
                .unwrap()
                .build()
                .unwrap();
        engine.attach_durability(disk.io(), dir).unwrap();
        let frame = |fid| FrameObjects::new(FrameId(fid), vec![(ObjectId(1), ClassId(1))]);
        engine.observe(&frame(0)).unwrap();
        let duplicate = CnfQuery::conjunction(QueryId(0), vec![Condition::at_least(ClassId(0), 1)]);
        assert!(engine.add_query(duplicate).is_err());
        assert!(engine.remove_query(QueryId(9)).is_err());
        let person = engine.add_query_text("person >= 1").unwrap();
        engine.observe(&frame(1)).unwrap();
        assert_eq!(engine.metrics().wal_records, 3);
        let expected = engine.observe(&frame(2)).unwrap();
        drop(engine);

        let (mut recovered, report) = TemporalVideoQueryEngine::recover(disk.io(), dir).unwrap();
        assert_eq!(report.records_replayed, 4);
        assert_eq!(recovered.queries().len(), 2);
        assert!(recovered.queries().iter().any(|q| q.id == person));
        assert_eq!(report.replayed_frames.last(), Some(&expected));
        assert!(recovered.observe(&frame(3)).unwrap().any());
    }

    /// A frame the maintainer refuses between acknowledged ones is never
    /// logged, so it must not change the live engine either: recovery
    /// replays exactly what was acknowledged, and the recovered engine
    /// continues as a run that never saw the refused frame.
    #[test]
    fn a_refused_frame_between_acked_ones_survives_recovery_unseen() {
        let build = || {
            TemporalVideoQueryEngine::builder(EngineConfig::new(WindowSpec::new(4, 2).unwrap()))
                .with_query_text("car >= 1 AND person >= 1")
                .unwrap()
                .build()
                .unwrap()
        };
        let frame = |fid| {
            let detections = vec![(ObjectId(1), ClassId(1)), (ObjectId(2), ClassId(0))];
            FrameObjects::new(FrameId(fid), detections)
        };
        let disk = MemDisk::new();
        let dir = Path::new("/engine");
        let (mut subject, mut uninterrupted) = (build(), build());
        subject.attach_durability(disk.io(), dir).unwrap();
        let mut acked = Vec::new();
        for fid in 0..4u64 {
            if fid == 2 {
                let refused = FrameObjects::new(FrameId(1), vec![(ObjectId(1), ClassId(0))])
                    .with_track_ends(vec![ObjectId(1)]);
                assert!(subject.observe(&refused).is_err());
            }
            let result = subject.observe(&frame(fid)).unwrap();
            assert_eq!(result, uninterrupted.observe(&frame(fid)).unwrap());
            acked.push(result);
        }
        drop(subject);

        let (mut recovered, report) = TemporalVideoQueryEngine::recover(disk.io(), dir).unwrap();
        assert_eq!(report.replayed_frames, acked);
        for fid in 4..8u64 {
            let expected = uninterrupted.observe(&frame(fid)).unwrap();
            assert_eq!(recovered.observe(&frame(fid)).unwrap(), expected);
        }
    }
}
