//! Epoch snapshots: whole-state checkpoints written atomically.
//!
//! A snapshot file `snap-<seq>.snap` is:
//!
//! ```text
//! magic "TVQS" ++ varint(version) ++ varint(seq) ++ payload ++ crc: u32 LE
//! ```
//!
//! where `crc` is CRC-32 over every preceding byte and `seq` is the WAL
//! sequence the snapshot covers (recovery replays records with greater
//! sequence). The payload is opaque to this module — the engine's own
//! versioned codec lives in `tvq-engine`.
//!
//! The trailing checksum is the store's one whole-file seal (`seal` /
//! `unseal`) and writes go through its one atomic publish (`publish`): the
//! bytes go to a `.tmp` file, which is fsynced, renamed into place, and the
//! directory fsynced — a crash at any point leaves either the old set of
//! snapshots or the old set plus the complete new one, never a
//! half-written `.snap`.
//! [`load_latest`] walks snapshots newest-first and falls back past corrupt
//! ones (reporting how many were skipped), so one bad checkpoint costs an
//! epoch of replay, not the store.
//!
//! [`load_latest`]: SnapshotStore::load_latest

use std::path::{Path, PathBuf};

use tvq_common::codec::{crc32, Decoder, Encoder};
use tvq_common::{Error, Result};

use crate::io::{SharedIo, StoreIo};

const MAGIC: [u8; 4] = *b"TVQS";
const VERSION: u32 = 1;

/// How many snapshots [`SnapshotStore::save`] retains (the newest one plus
/// fallbacks for corruption).
pub const KEEP_SNAPSHOTS: usize = 2;

fn store_err(context: &str, err: std::io::Error) -> Error {
    Error::Store(format!("{context}: {err}"))
}

/// Closes `body` with the CRC-32 (little-endian) of every byte before it.
fn seal(mut body: Vec<u8>) -> Vec<u8> {
    let crc = crc32(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    body
}

/// Verifies and strips the trailer [`seal`] wrote, returning the body.
/// Anything else is [`Error::Corrupt`], naming `what` failed the check.
fn unseal<'a>(bytes: &'a [u8], what: &str) -> Result<&'a [u8]> {
    let (body, crc) = bytes
        .split_last_chunk::<4>()
        .ok_or_else(|| Error::Corrupt(format!("{what} shorter than its checksum")))?;
    if crc32(body).to_le_bytes() != *crc {
        return Err(Error::Corrupt(format!("{what} checksum mismatch")));
    }
    Ok(body)
}

/// Atomically replaces `dir/dest` with `bytes`: staged to `dir/tmp`,
/// fsynced, renamed into place, directory fsynced — after a crash at any
/// point `dest` holds either its complete old contents or the complete new
/// ones. A failure is [`Error::Store`] naming the step and `what`.
fn publish(
    io: &dyn StoreIo,
    dir: &Path,
    tmp: &str,
    dest: &str,
    bytes: &[u8],
    what: &str,
) -> Result<()> {
    let fail = |verb: &'static str, object: &'static str| {
        move |e: std::io::Error| Error::Store(format!("{verb} {what} {object}: {e}"))
    };
    let (tmp, dest) = (dir.join(tmp), dir.join(dest));
    io.write_file(&tmp, bytes).map_err(fail("write", "temp"))?;
    io.fsync(&tmp).map_err(fail("fsync", "temp"))?;
    io.rename(&tmp, &dest)
        .map_err(fail("rename", "into place"))?;
    io.fsync_dir(dir).map_err(fail("fsync", "dir"))
}

fn snapshot_name(seq: u64) -> String {
    format!("snap-{seq:020}.snap")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snap-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

/// A snapshot successfully read back from the store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedSnapshot {
    /// WAL sequence the snapshot covers.
    pub seq: u64,
    /// The engine's opaque payload.
    pub payload: Vec<u8>,
    /// Newer snapshots that failed validation and were skipped, as
    /// `(seq, reason)` — surfaced so corruption is reported, not hidden.
    pub skipped: Vec<(u64, String)>,
}

/// Writes and reads epoch snapshots in a directory.
pub struct SnapshotStore {
    io: SharedIo,
    dir: PathBuf,
    written: u64,
    bytes: u64,
    fsyncs: u64,
}

impl std::fmt::Debug for SnapshotStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotStore")
            .field("dir", &self.dir)
            .field("written", &self.written)
            .finish_non_exhaustive()
    }
}

impl SnapshotStore {
    /// Opens the store in `dir`, creating the directory and sweeping any
    /// `.tmp` leftovers from a crash mid-save.
    pub fn open(io: SharedIo, dir: &Path) -> Result<SnapshotStore> {
        io.create_dir_all(dir)
            .map_err(|e| store_err("create snapshot dir", e))?;
        for name in io
            .list(dir)
            .map_err(|e| store_err("list snapshot dir", e))?
        {
            if name.ends_with(".tmp") {
                io.remove(&dir.join(&name))
                    .map_err(|e| store_err("sweep stale snapshot temp", e))?;
            }
        }
        Ok(SnapshotStore {
            io,
            dir: dir.to_path_buf(),
            written: 0,
            bytes: 0,
            fsyncs: 0,
        })
    }

    /// Whether `dir` holds any snapshot file — valid or not — without
    /// opening (creating, sweeping) the store. An unreadable or missing
    /// directory holds none.
    pub fn has_snapshots(io: &SharedIo, dir: &Path) -> bool {
        io.list(dir)
            .is_ok_and(|names| names.iter().any(|name| parse_snapshot_name(name).is_some()))
    }

    /// Writes a snapshot covering WAL sequence `seq`, atomically, then
    /// drops all but the newest [`KEEP_SNAPSHOTS`] snapshots.
    pub fn save(&mut self, seq: u64, payload: &[u8]) -> Result<()> {
        let mut enc = Encoder::with_capacity(payload.len() + 32);
        enc.put_header(MAGIC, VERSION);
        enc.put_u64(seq);
        let mut bytes = enc.into_bytes();
        bytes.extend_from_slice(payload);
        let bytes = seal(bytes);

        let tmp = format!("snap-{seq:020}.tmp");
        let dest = snapshot_name(seq);
        publish(&*self.io, &self.dir, &tmp, &dest, &bytes, "snapshot")?;
        self.written += 1;
        self.bytes += bytes.len() as u64;
        self.fsyncs += 2;

        let mut seqs = self.sequences()?;
        while seqs.len() > KEEP_SNAPSHOTS {
            let old = seqs.remove(0);
            self.io
                .remove(&self.dir.join(snapshot_name(old)))
                .map_err(|e| store_err("remove superseded snapshot", e))?;
        }
        Ok(())
    }

    /// Loads the newest snapshot that validates, skipping (and reporting)
    /// corrupt ones. Returns `Ok(None)` when the directory holds no
    /// snapshots at all; errs with [`Error::Corrupt`] when snapshots exist
    /// but none survives validation.
    pub fn load_latest(&self) -> Result<Option<LoadedSnapshot>> {
        let mut seqs = self.sequences()?;
        if seqs.is_empty() {
            return Ok(None);
        }
        seqs.reverse();
        let mut skipped = Vec::new();
        for seq in seqs {
            match self.load(seq) {
                Ok(payload) => {
                    return Ok(Some(LoadedSnapshot {
                        seq,
                        payload,
                        skipped,
                    }))
                }
                Err(Error::Store(message)) => return Err(Error::Store(message)),
                Err(err) => skipped.push((seq, err.to_string())),
            }
        }
        Err(Error::Corrupt(format!(
            "no snapshot validates; skipped {skipped:?}"
        )))
    }

    fn load(&self, seq: u64) -> Result<Vec<u8>> {
        let path = self.dir.join(snapshot_name(seq));
        let bytes = self
            .io
            .read(&path)
            .map_err(|e| store_err("read snapshot", e))?;
        let body = unseal(&bytes, &format!("snapshot {}", path.display()))?;
        let mut dec = Decoder::new(body);
        dec.check_header(MAGIC, VERSION)?;
        let stored_seq = dec.take_u64()?;
        if stored_seq != seq {
            return Err(Error::Corrupt(format!(
                "snapshot {} claims seq {stored_seq}",
                path.display()
            )));
        }
        Ok(body[body.len() - dec.remaining()..].to_vec())
    }

    fn sequences(&self) -> Result<Vec<u64>> {
        let mut seqs: Vec<u64> = self
            .io
            .list(&self.dir)
            .map_err(|e| store_err("list snapshot dir", e))?
            .iter()
            .filter_map(|name| parse_snapshot_name(name))
            .collect();
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Snapshots written through this handle.
    pub fn snapshots_written(&self) -> u64 {
        self.written
    }

    /// Bytes written through this handle (framing included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes
    }

    /// Fsync calls issued through this handle.
    pub fn fsyncs(&self) -> u64 {
        self.fsyncs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{MemDisk, TornTail};

    fn dir() -> PathBuf {
        PathBuf::from("/snaps")
    }

    #[test]
    fn save_load_round_trips_and_retains_two() {
        let disk = MemDisk::new();
        let mut store = SnapshotStore::open(disk.io(), &dir()).unwrap();
        assert_eq!(store.load_latest().unwrap(), None);
        store.save(3, b"epoch three").unwrap();
        store.save(9, b"epoch nine").unwrap();
        store.save(17, b"epoch seventeen").unwrap();

        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.seq, 17);
        assert_eq!(loaded.payload, b"epoch seventeen");
        assert!(loaded.skipped.is_empty());
        // The oldest snapshot was dropped; two remain.
        let names = disk.io().list(&dir()).unwrap();
        assert_eq!(names.len(), KEEP_SNAPSHOTS);
        assert!(!names.contains(&snapshot_name(3)));
        assert_eq!(store.snapshots_written(), 3);
        assert!(store.bytes_written() > 0);
        assert_eq!(store.fsyncs(), 6);
    }

    #[test]
    fn corrupt_newest_falls_back_to_older() {
        let disk = MemDisk::new();
        let mut store = SnapshotStore::open(disk.io(), &dir()).unwrap();
        store.save(5, b"good").unwrap();
        store.save(12, b"bad soon").unwrap();
        assert!(disk.flip_bit(&dir().join(snapshot_name(12)), 10));

        let loaded = store.load_latest().unwrap().unwrap();
        assert_eq!(loaded.seq, 5);
        assert_eq!(loaded.payload, b"good");
        assert_eq!(loaded.skipped.len(), 1);
        assert_eq!(loaded.skipped[0].0, 12);

        // Corrupt the survivor too: existing-but-unreadable is an error,
        // never a silent "no snapshot".
        assert!(disk.flip_bit(&dir().join(snapshot_name(5)), 10));
        let err = store.load_latest().unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    #[test]
    fn seq_mismatch_and_future_versions_are_rejected() {
        let disk = MemDisk::new();
        let mut store = SnapshotStore::open(disk.io(), &dir()).unwrap();
        store.save(4, b"payload").unwrap();
        // Rename the file so its name disagrees with the embedded seq.
        disk.io()
            .rename(&dir().join(snapshot_name(4)), &dir().join(snapshot_name(6)))
            .unwrap();
        let err = store.load_latest().unwrap_err();
        assert!(err.to_string().contains("claims seq"), "{err}");

        // A snapshot from a future format version fails cleanly.
        let mut enc = Encoder::new();
        enc.put_header(MAGIC, VERSION + 1);
        enc.put_u64(8);
        let bytes = seal(enc.into_bytes());
        disk.io()
            .write_file(&dir().join(snapshot_name(8)), &bytes)
            .unwrap();
        let err = store.load_latest().unwrap_err();
        assert!(err.to_string().contains("version"), "{err}");
    }

    /// A crash at every mutating op of [`publish`], under every torn-tail
    /// policy, leaves the destination holding the complete old sealed
    /// payload or the complete new one (or, on a first publish, nothing) —
    /// `unseal` never returns a third.
    #[test]
    fn publish_crash_sweep_leaves_old_or_new_never_a_third() {
        let (old, new) = (seal(b"old payload".to_vec()), seal(b"the new one".to_vec()));
        let dest = dir().join("file.bin");
        for first_publish in [true, false] {
            for torn in [TornTail::Keep, TornTail::Tear, TornTail::Drop] {
                for crash_at in 1.. {
                    let disk = MemDisk::new();
                    if !first_publish {
                        publish(&*disk.io(), &dir(), "file.tmp", "file.bin", &old, "file").unwrap();
                    }
                    let io = disk.fault_io(crash_at, torn);
                    let result = publish(&*io, &dir(), "file.tmp", "file.bin", &new, "file");
                    let case = format!("first {first_publish}, {torn:?}, crash at op {crash_at}");
                    if !disk.io().exists(&dest) {
                        assert!(first_publish && result.is_err(), "{case}: destination lost");
                        continue;
                    }
                    let bytes = disk.io().read(&dest).unwrap();
                    let body = unseal(&bytes, "file").unwrap_or_else(|e| panic!("{case}: {e}"));
                    if !io.crashed() {
                        result.unwrap();
                        assert_eq!(body, b"the new one", "{case}");
                        assert_eq!(crash_at, 5, "publish is exactly four mutating ops");
                        break;
                    }
                    let err = result.unwrap_err().to_string();
                    assert!(matches!(body, b"old payload" | b"the new one"), "{case}");
                    assert!(
                        err.contains("file") && err.contains("injected crash"),
                        "{err}"
                    );
                }
            }
        }
    }

    #[test]
    fn open_sweeps_stale_temp_files() {
        let disk = MemDisk::new();
        disk.io()
            .write_file(&dir().join("snap-00000000000000000007.tmp"), b"half")
            .unwrap();
        let store = SnapshotStore::open(disk.io(), &dir()).unwrap();
        assert_eq!(disk.io().list(&dir()).unwrap(), Vec::<String>::new());
        assert_eq!(store.load_latest().unwrap(), None);
    }
}
