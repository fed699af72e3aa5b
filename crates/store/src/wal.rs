//! The write-ahead log: length-prefixed, CRC-checksummed, segmented.
//!
//! On-disk format — each segment `wal-<startseq>.log` is a run of records:
//!
//! ```text
//! +----------------+----------------+----------------------------+
//! | len: u32 LE    | crc: u32 LE    | payload (len bytes)        |
//! +----------------+----------------+----------------------------+
//! payload = varint(seq) ++ body
//! ```
//!
//! `crc` is CRC-32 over the payload. Sequence numbers start at 1 and are
//! contiguous; the segment's file name records the sequence of its first
//! record, so pruned prefixes never create an apparent gap.
//!
//! The discipline callers follow is *apply, [`Wal::append`], [`Wal::sync`],
//! acknowledge*: a record reaches the log only for operations that already
//! succeeded in memory (so replay never re-executes a rejected operation),
//! and the fsync lands before the caller sees `Ok`. On
//! [`Wal::open`] the log is scanned front to back: an invalid record at the
//! **tail of the last segment** is a torn write — the tail is truncated and
//! the loss reported in [`WalOpenReport`] — while an invalid record *in
//! front of valid data* (an earlier segment, or a CRC-valid record carrying
//! the wrong sequence) means acknowledged history is damaged, and `open`
//! refuses with [`Error::Corrupt`] rather than silently replaying around it.

use std::path::{Path, PathBuf};

use tvq_common::codec::{crc32, Decoder, Encoder};
use tvq_common::{Error, Result};

use crate::io::SharedIo;

/// Byte size at which the active segment is closed and a new one started.
pub const DEFAULT_ROTATE_BYTES: usize = 1 << 20;

const FRAME_HEADER: usize = 8;

fn store_err(context: &str, err: std::io::Error) -> Error {
    Error::Store(format!("{context}: {err}"))
}

#[derive(Debug)]
struct Segment {
    start_seq: u64,
    path: PathBuf,
    len: usize,
}

/// The `(payload length, crc)` header of the record at `pos`, or `None`
/// when fewer than [`FRAME_HEADER`] bytes remain there.
fn record_header(data: &[u8], pos: usize) -> Option<(usize, u32)> {
    let (len, rest) = data.get(pos..)?.split_first_chunk::<4>()?;
    let (crc, _) = rest.split_first_chunk::<4>()?;
    Some((u32::from_le_bytes(*len) as usize, u32::from_le_bytes(*crc)))
}

/// The one record parser, behind both [`Wal::open`]'s scan and
/// [`Wal::read_from`]: reads `data`'s records in order from sequence `seq`,
/// checking each header, length, CRC-32 and sequence, and hands each
/// `(seq, body)` to `visit`. Returns the valid prefix's length, the
/// sequence after it, and why the bytes past it do not parse (a torn tail
/// at the end of the log, damage anywhere else). A CRC-valid record
/// carrying the wrong sequence is not a torn write: it fails with
/// [`Error::Corrupt`].
fn read_records<'a>(
    data: &'a [u8],
    mut seq: u64,
    mut visit: impl FnMut(u64, &'a [u8]),
) -> Result<(usize, u64, Option<String>)> {
    let mut pos = 0usize;
    while pos < data.len() {
        let Some((len, crc)) = record_header(data, pos) else {
            return Ok((pos, seq, Some("truncated record header".into())));
        };
        let Some(payload) = data.get(pos + FRAME_HEADER..pos + FRAME_HEADER + len) else {
            return Ok((pos, seq, Some("truncated record payload".into())));
        };
        if crc32(payload) != crc {
            let reason = format!("record checksum mismatch at seq {seq}");
            return Ok((pos, seq, Some(reason)));
        }
        let mut dec = Decoder::new(payload);
        let found = dec
            .take_u64()
            .map_err(|e| Error::Corrupt(format!("wal record sequence: {e}")))?;
        if found != seq {
            return Err(Error::Corrupt(format!(
                "wal record carries seq {found} where seq {seq} was expected"
            )));
        }
        visit(seq, &payload[payload.len() - dec.remaining()..]);
        seq += 1;
        pos += FRAME_HEADER + len;
    }
    Ok((pos, seq, None))
}

fn segment_name(start_seq: u64) -> String {
    format!("wal-{start_seq:020}.log")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// What [`Wal::open`] found: how much history survived and what, if
/// anything, was truncated as a torn tail.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalOpenReport {
    /// Sequence of the last valid record (0 when the log is empty).
    pub last_seq: u64,
    /// Valid records found across all segments.
    pub records: u64,
    /// Bytes discarded from the last segment's torn tail.
    pub truncated_bytes: u64,
    /// Why the tail was truncated, when it was.
    pub truncation: Option<String>,
}

/// A segmented write-ahead log over a [`StoreIo`](crate::io::StoreIo).
pub struct Wal {
    io: SharedIo,
    dir: PathBuf,
    segments: Vec<Segment>,
    next_seq: u64,
    rotate_bytes: usize,
    records: u64,
    bytes: u64,
    fsyncs: u64,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("segments", &self.segments)
            .field("next_seq", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Opens (or creates) the log in `dir`, scanning and validating every
    /// segment. Truncates a torn tail on the last segment; refuses to open
    /// a log whose interior is corrupt.
    pub fn open(io: SharedIo, dir: &Path) -> Result<(Wal, WalOpenReport)> {
        io.create_dir_all(dir)
            .map_err(|e| store_err("create wal dir", e))?;
        let mut starts: Vec<u64> = io
            .list(dir)
            .map_err(|e| store_err("list wal dir", e))?
            .iter()
            .filter_map(|name| parse_segment_name(name))
            .collect();
        starts.sort_unstable();

        let mut wal = Wal {
            io,
            dir: dir.to_path_buf(),
            segments: Vec::new(),
            next_seq: 1,
            rotate_bytes: DEFAULT_ROTATE_BYTES,
            records: 0,
            bytes: 0,
            fsyncs: 0,
        };
        let mut report = WalOpenReport::default();

        // A pruned log's first retained segment starts past seq 1; whether
        // the snapshot on hand covers the gap is the caller's check.
        if let Some(&first) = starts.first() {
            wal.next_seq = first;
        }
        for (index, &start_seq) in starts.iter().enumerate() {
            let last = index + 1 == starts.len();
            let path = dir.join(segment_name(start_seq));
            if start_seq != wal.next_seq {
                return Err(Error::Corrupt(format!(
                    "wal segment {} starts at seq {start_seq} but seq {} was expected",
                    path.display(),
                    wal.next_seq
                )));
            }
            let data = wal
                .io
                .read(&path)
                .map_err(|e| store_err("read wal segment", e))?;
            let (valid_len, next_seq, failure) = read_records(&data, wal.next_seq, |_, _| {})?;
            report.records += next_seq - wal.next_seq;
            wal.next_seq = next_seq;
            if let Some(reason) = failure {
                if !last {
                    return Err(Error::Corrupt(format!(
                        "wal segment {} is damaged before later segments: {reason}",
                        path.display()
                    )));
                }
                report.truncated_bytes = (data.len() - valid_len) as u64;
                report.truncation = Some(reason);
                wal.io
                    .truncate(&path, valid_len as u64)
                    .map_err(|e| store_err("truncate torn wal tail", e))?;
            }
            wal.segments.push(Segment {
                start_seq,
                path,
                len: valid_len,
            });
        }

        report.last_seq = wal.next_seq - 1;
        Ok((wal, report))
    }

    /// Appends a record with the next sequence number, rotating to a fresh
    /// segment first when the active one is full. Returns the sequence
    /// assigned. The record is *visible* but not durable until [`sync`].
    ///
    /// [`sync`]: Wal::sync
    pub fn append(&mut self, body: &[u8]) -> Result<u64> {
        let seq = self.next_seq;
        if self
            .segments
            .last()
            .is_none_or(|seg| seg.len >= self.rotate_bytes)
        {
            self.rotate()?;
        }
        let mut payload = Encoder::with_capacity(body.len() + 10);
        payload.put_u64(seq);
        let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len() + body.len());
        frame.extend_from_slice(&u32::to_le_bytes((payload.len() + body.len()) as u32));
        frame.extend_from_slice(&u32::to_le_bytes(crc32_pair(payload.as_bytes(), body)));
        frame.extend_from_slice(payload.as_bytes());
        frame.extend_from_slice(body);

        // infallible: a WAL without a segment rotated one in above.
        let segment = self.segments.last_mut().expect("rotate ensured a segment");
        self.io
            .append(&segment.path, &frame)
            .map_err(|e| store_err("append wal record", e))?;
        segment.len += frame.len();
        self.next_seq += 1;
        self.records += 1;
        self.bytes += frame.len() as u64;
        Ok(seq)
    }

    /// Fsyncs the active segment, making every appended record durable.
    pub fn sync(&mut self) -> Result<()> {
        if let Some(segment) = self.segments.last() {
            self.io
                .fsync(&segment.path)
                .map_err(|e| store_err("fsync wal segment", e))?;
            self.fsyncs += 1;
        }
        Ok(())
    }

    /// Closes the active segment (fsyncing it — rotation must never leave a
    /// torn tail mid-log) and registers a fresh one.
    fn rotate(&mut self) -> Result<()> {
        self.sync()?;
        let path = self.dir.join(segment_name(self.next_seq));
        self.io
            .write_file(&path, &[])
            .map_err(|e| store_err("create wal segment", e))?;
        self.io
            .fsync_dir(&self.dir)
            .map_err(|e| store_err("fsync wal dir", e))?;
        self.fsyncs += 1;
        self.segments.push(Segment {
            start_seq: self.next_seq,
            path,
            len: 0,
        });
        Ok(())
    }

    /// Reads every record with sequence strictly greater than `after_seq`,
    /// in order, returning `(seq, body)` pairs. Records are re-validated —
    /// corruption introduced since `open` surfaces as [`Error::Corrupt`].
    pub fn read_from(&self, after_seq: u64) -> Result<Vec<(u64, Vec<u8>)>> {
        let mut out = Vec::new();
        for (index, segment) in self.segments.iter().enumerate() {
            // A non-last segment's records all precede the next segment's
            // start, so a segment wholly below the cut is skipped unread.
            if self
                .segments
                .get(index + 1)
                .is_some_and(|next| next.start_seq <= after_seq + 1)
            {
                continue;
            }
            let data = self
                .io
                .read(&segment.path)
                .map_err(|e| store_err("read wal segment", e))?;
            let valid = &data[..segment.len.min(data.len())];
            let (_, _, failure) = read_records(valid, segment.start_seq, |seq, body| {
                if seq > after_seq {
                    out.push((seq, body.to_vec()));
                }
            })?;
            if let Some(reason) = failure {
                return Err(Error::Corrupt(format!(
                    "wal segment {} is damaged since open: {reason}",
                    segment.path.display()
                )));
            }
        }
        Ok(out)
    }

    /// Drops whole segments whose every record has sequence ≤ `seq` (the
    /// prefix a snapshot now covers). The active segment is always kept.
    /// Returns the number of segments removed.
    pub fn prune_through(&mut self, seq: u64) -> Result<usize> {
        let mut removed = 0;
        while self.segments.len() > 1 {
            // A segment's records end just before the next segment's start.
            if self.segments[1].start_seq > seq + 1 {
                break;
            }
            let dead = self.segments.remove(0);
            self.io
                .remove(&dead.path)
                .map_err(|e| store_err("remove pruned wal segment", e))?;
            removed += 1;
        }
        if removed > 0 {
            self.io
                .fsync_dir(&self.dir)
                .map_err(|e| store_err("fsync wal dir", e))?;
            self.fsyncs += 1;
        }
        Ok(removed)
    }

    /// Sequence the next appended record will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Start sequence of the first retained segment, when any segment
    /// exists. Recovery checks it against the snapshot on hand: a first
    /// segment starting past `snapshot seq + 1` means replayable history
    /// was lost.
    pub fn first_seq(&self) -> Option<u64> {
        self.segments.first().map(|segment| segment.start_seq)
    }

    /// Sets the segment rotation threshold (bytes).
    pub fn set_rotate_bytes(&mut self, bytes: usize) {
        self.rotate_bytes = bytes.max(FRAME_HEADER);
    }

    /// Live segment count.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Records appended through this handle.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Bytes appended through this handle (framing included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Fsync calls issued through this handle (segments and directory).
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }
}

/// CRC-32 over the concatenation of two slices without copying them.
fn crc32_pair(a: &[u8], b: &[u8]) -> u32 {
    tvq_common::codec::crc32_update(crc32(a), b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemDisk;

    fn dir() -> PathBuf {
        PathBuf::from("/wal")
    }

    #[test]
    fn append_sync_reopen_round_trips() {
        let disk = MemDisk::new();
        let (mut wal, report) = Wal::open(disk.io(), &dir()).unwrap();
        assert_eq!(report, WalOpenReport::default());
        for body in [b"alpha".as_slice(), b"beta", b"gamma"] {
            wal.append(body).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(wal.records_written(), 3);
        assert!(wal.fsyncs() >= 1);

        let (wal, report) = Wal::open(disk.io(), &dir()).unwrap();
        assert_eq!(report.last_seq, 3);
        assert_eq!(report.records, 3);
        assert_eq!(report.truncation, None);
        let all = wal.read_from(0).unwrap();
        assert_eq!(
            all,
            vec![
                (1, b"alpha".to_vec()),
                (2, b"beta".to_vec()),
                (3, b"gamma".to_vec()),
            ]
        );
        assert_eq!(wal.read_from(2).unwrap(), vec![(3, b"gamma".to_vec())]);
        assert_eq!(wal.next_seq(), 4);
    }

    #[test]
    fn torn_tail_is_truncated_and_reported() {
        let disk = MemDisk::new();
        let (mut wal, _) = Wal::open(disk.io(), &dir()).unwrap();
        wal.append(b"kept").unwrap();
        wal.sync().unwrap();
        wal.append(b"torn-record-body").unwrap();
        drop(wal);
        // Simulate the crash: the unsynced suffix is half-lost.
        let path = dir().join(segment_name(1));
        let full = disk.io().read(&path).unwrap();
        let synced = full.len() - b"torn-record-body".len() - FRAME_HEADER - 1;
        disk.io().truncate(&path, (synced + 4) as u64).unwrap();

        let (wal, report) = Wal::open(disk.io(), &dir()).unwrap();
        assert_eq!(report.last_seq, 1);
        assert!(report.truncated_bytes > 0);
        assert!(report.truncation.is_some(), "{report:?}");
        assert_eq!(wal.read_from(0).unwrap(), vec![(1, b"kept".to_vec())]);
    }

    #[test]
    fn checksum_mismatch_at_tail_truncates_mid_log_fails() {
        let disk = MemDisk::new();
        let (mut wal, _) = Wal::open(disk.io(), &dir()).unwrap();
        wal.set_rotate_bytes(1); // rotate on every append
        wal.append(b"first").unwrap();
        wal.append(b"second").unwrap();
        wal.sync().unwrap();

        // Flip a payload bit in the last segment: torn tail, truncated.
        let seg2 = dir().join(segment_name(2));
        let len = disk.io().read(&seg2).unwrap().len();
        assert!(disk.flip_bit(&seg2, len - 1));
        let (_, report) = Wal::open(disk.io(), &dir()).unwrap();
        assert_eq!(report.last_seq, 1);
        assert!(report
            .truncation
            .as_deref()
            .is_some_and(|r| r.contains("checksum")));

        // Now damage the *first* segment: corruption in front of valid
        // data must refuse to open, not silently drop records.
        let seg1 = dir().join(segment_name(1));
        assert!(disk.flip_bit(&seg1, 12));
        let err = Wal::open(disk.io(), &dir()).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    #[test]
    fn rotation_and_prune_drop_covered_segments() {
        let disk = MemDisk::new();
        let (mut wal, _) = Wal::open(disk.io(), &dir()).unwrap();
        wal.set_rotate_bytes(24);
        for i in 0..10u8 {
            wal.append(&[i; 16]).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.segment_count() > 2, "{}", wal.segment_count());

        let removed = wal.prune_through(5).unwrap();
        assert!(removed > 0);
        // Everything after the cut is still replayable…
        let tail = wal.read_from(5).unwrap();
        assert_eq!(
            tail.iter().map(|(seq, _)| *seq).collect::<Vec<_>>(),
            vec![6, 7, 8, 9, 10]
        );
        // …and a reopen sees a log that simply starts later.
        let (wal, report) = Wal::open(disk.io(), &dir()).unwrap();
        assert_eq!(report.last_seq, 10);
        assert_eq!(wal.read_from(0).unwrap().len(), report.records as usize);
        assert!(report.records < 10);
    }

    #[test]
    fn record_with_wrong_sequence_is_corrupt_not_torn() {
        let disk = MemDisk::new();
        let (mut wal, _) = Wal::open(disk.io(), &dir()).unwrap();
        wal.append(b"one").unwrap();
        wal.sync().unwrap();
        drop(wal);

        // Hand-craft a CRC-valid record with a bogus sequence.
        let mut payload = Encoder::new();
        payload.put_u64(7);
        let mut frame = Vec::new();
        frame.extend_from_slice(&u32::to_le_bytes(payload.len() as u32));
        frame.extend_from_slice(&u32::to_le_bytes(crc32(payload.as_bytes())));
        frame.extend_from_slice(payload.as_bytes());
        disk.io()
            .append(&dir().join(segment_name(1)), &frame)
            .unwrap();

        let err = Wal::open(disk.io(), &dir()).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    #[test]
    fn empty_bodies_and_empty_segments_reopen_cleanly() {
        let disk = MemDisk::new();
        let (mut wal, _) = Wal::open(disk.io(), &dir()).unwrap();
        wal.set_rotate_bytes(1);
        wal.append(b"").unwrap();
        wal.append(b"x").unwrap();
        wal.sync().unwrap();
        // A fresh segment file can exist with no records yet (crash between
        // rotation and the first append into the new segment).
        disk.io()
            .write_file(&dir().join(segment_name(3)), &[])
            .unwrap();
        let (mut wal, report) = Wal::open(disk.io(), &dir()).unwrap();
        assert_eq!(report.last_seq, 2);
        assert_eq!(wal.append(b"y").unwrap(), 3);
        wal.sync().unwrap();
        assert_eq!(
            wal.read_from(0)
                .unwrap()
                .into_iter()
                .map(|(_, body)| body)
                .collect::<Vec<_>>(),
            vec![b"".to_vec(), b"x".to_vec(), b"y".to_vec()]
        );
    }

    /// `read_from` re-validates through the reader `open` uses: a record
    /// damaged after the log was opened fails the read, and so does a
    /// segment cut short mid-record.
    #[test]
    fn damage_after_open_fails_read_from() {
        let disk = MemDisk::new();
        let (mut wal, _) = Wal::open(disk.io(), &dir()).unwrap();
        for body in [b"alpha".as_slice(), b"beta", b"gamma"] {
            wal.append(body).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(wal.read_from(0).unwrap().len(), 3);

        let path = dir().join(segment_name(1));
        let len = disk.io().read(&path).unwrap().len();
        // The last payload byte: record 3's body.
        assert!(disk.flip_bit(&path, len - 1));
        let err = wal.read_from(0).unwrap_err();
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("checksum")),
            "{err}"
        );
        assert!(matches!(wal.read_from(2), Err(Error::Corrupt(_))));
        assert!(disk.flip_bit(&path, len - 1));
        assert_eq!(wal.read_from(0).unwrap().len(), 3);

        disk.io().truncate(&path, (len - 2) as u64).unwrap();
        let err = wal.read_from(0).unwrap_err();
        assert!(
            matches!(&err, Error::Corrupt(m) if m.contains("payload")),
            "{err}"
        );
    }
}
