//! The storage VFS: a small path-based IO trait with a real and a
//! fault-injecting implementation.
//!
//! Durability code never touches `std::fs` directly — every write, fsync
//! and rename goes through [`StoreIo`], so the crash-recovery suite can
//! substitute [`FaultIo`] and kill the "process" at any chosen operation.
//! The trait is stateless (no open handles): appends reopen the file each
//! time. That costs a few syscalls per batch and buys an exact, replayable
//! fault model — the right trade for a correctness-first durability layer.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Path-based filesystem operations the durability layer needs.
///
/// Durability contract per operation:
///
/// * [`append`](Self::append) / [`write_file`](Self::write_file) make data
///   *visible* but not durable — a crash may lose or tear any suffix not
///   yet covered by [`fsync`](Self::fsync);
/// * [`rename`](Self::rename) is atomic (the destination is either the old
///   or the new file, never a mix); making it durable needs
///   [`fsync_dir`](Self::fsync_dir);
/// * [`truncate`](Self::truncate) discards a torn tail found on open.
pub trait StoreIo: Send + Sync {
    /// Creates a directory (and its parents) if missing.
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// File names (not paths) inside `dir`; a missing directory lists empty.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Reads a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Appends bytes to a file, creating it when missing.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Creates or replaces a file with the given contents.
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Truncates a file to `len` bytes.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
    /// Atomically renames `from` to `to` (same directory).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Removes a file.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Flushes a file's data to stable storage.
    fn fsync(&self, path: &Path) -> io::Result<()>;
    /// Flushes a directory's entry table (makes creations/renames durable).
    fn fsync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Whether the path names an existing file.
    fn exists(&self, path: &Path) -> bool;
    /// Identifies the backing store: two handles answer alike exactly when
    /// a path names the same file through both. [`DirLock`](crate::DirLock)
    /// keys its in-process registry by it, so separate in-memory disks may
    /// each hold `/data` while two views of one disk may not.
    fn disk_id(&self) -> usize;
}

/// Shared handle to a [`StoreIo`] implementation.
pub type SharedIo = Arc<dyn StoreIo>;

/// The production implementation: plain `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct RealIo;

impl RealIo {
    /// A shared handle to the real filesystem.
    pub fn shared() -> SharedIo {
        Arc::new(RealIo)
    }
}

impl StoreIo for RealIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        match std::fs::read_dir(dir) {
            Ok(entries) => {
                let mut names = Vec::new();
                for entry in entries {
                    names.push(entry?.file_name().to_string_lossy().into_owned());
                }
                Ok(names)
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        file.write_all(bytes)
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = std::fs::OpenOptions::new().write(true).open(path)?;
        file.set_len(len)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn fsync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory fsync is a Unix-ism; opening a directory read-only and
        // syncing it is the portable-enough idiom on the platforms this
        // project targets.
        std::fs::File::open(dir)?.sync_all()
    }

    fn exists(&self, path: &Path) -> bool {
        path.is_file()
    }

    fn disk_id(&self) -> usize {
        // The one real filesystem; a `MemDisk`'s id is a heap address.
        0
    }
}

/// What happens to the *unsynced* suffix of each file when [`FaultIo`]
/// injects a crash. Synced bytes always survive — that is what fsync means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornTail {
    /// The entire unsynced suffix is lost.
    Drop,
    /// Half of the unsynced suffix survives (a torn write).
    Tear,
    /// The whole suffix happens to survive (the kernel flushed it anyway).
    Keep,
}

impl TornTail {
    /// All tail policies, for exhaustive crash sweeps.
    pub const ALL: [TornTail; 3] = [TornTail::Drop, TornTail::Tear, TornTail::Keep];
}

#[derive(Debug, Default)]
struct MemFile {
    data: Vec<u8>,
    /// Bytes guaranteed durable (covered by the last fsync).
    synced: usize,
}

#[derive(Debug, Default)]
struct MemState {
    files: BTreeMap<PathBuf, MemFile>,
}

impl MemState {
    fn crash(&mut self, torn: TornTail) {
        for file in self.files.values_mut() {
            let unsynced = file.data.len() - file.synced;
            let keep = match torn {
                TornTail::Drop => file.synced,
                TornTail::Tear => file.synced + unsynced / 2,
                TornTail::Keep => file.data.len(),
            };
            file.data.truncate(keep);
            file.synced = file.data.len();
        }
    }
}

/// An in-memory disk with explicit durability tracking, shared between a
/// faulty "before the crash" view and the clean "after reboot" view.
///
/// Simplifications, both documented where they matter: directories need no
/// separate durability step (renames and creations are modeled
/// atomic-and-durable once their `fsync_dir` is called — and [`FaultIo`]
/// counts that call as a crash point too), and bytes written by a single
/// `append` tear only at the granularity [`TornTail`] describes.
#[derive(Debug, Clone, Default)]
pub struct MemDisk {
    state: Arc<Mutex<MemState>>,
}

impl MemDisk {
    /// An empty in-memory disk.
    pub fn new() -> Self {
        MemDisk::default()
    }

    /// A clean view of the disk — what a process sees when it starts after
    /// a crash, or a test harness inspecting the "disk": the fault view
    /// with a crash point no run reaches.
    pub fn io(&self) -> SharedIo {
        self.fault_io(u64::MAX, TornTail::Drop)
    }

    /// A faulty view that injects a crash at mutating operation number
    /// `crash_at` (1-based), with the given torn-tail policy applied to
    /// every file's unsynced suffix at the moment of the crash.
    pub fn fault_io(&self, crash_at: u64, torn: TornTail) -> Arc<FaultIo> {
        Arc::new(FaultIo {
            disk: self.clone(),
            crash_at,
            torn,
            ops: AtomicU64::new(0),
        })
    }

    /// Corrupts one byte of `path` at `offset` (bit-flip), for
    /// corruption-detection tests. Returns whether the byte existed.
    pub fn flip_bit(&self, path: &Path, offset: usize) -> bool {
        let mut state = self.lock();
        match state.files.get_mut(path) {
            Some(file) if offset < file.data.len() => {
                file.data[offset] ^= 0x40;
                true
            }
            _ => false,
        }
    }

    /// Total bytes currently on the disk (test support).
    pub fn total_bytes(&self) -> usize {
        self.lock().files.values().map(|f| f.data.len()).sum()
    }

    /// The address of the shared state: every view of this disk holds the
    /// `Arc`, so the address is unique for as long as any handle lives.
    fn id(&self) -> usize {
        Arc::as_ptr(&self.state) as usize
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, MemState> {
        // The state is plain data; a panicking holder cannot leave it
        // logically torn in a way tests should hide.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn not_found(path: &Path) -> io::Error {
    io::Error::new(io::ErrorKind::NotFound, format!("{}", path.display()))
}

/// Crash-injecting view of a [`MemDisk`].
///
/// Counts *mutating* operations (append, write, truncate, rename, remove,
/// fsync, fsync_dir — each a distinct crash point); when the count reaches
/// `crash_at`, the operation does **not** happen, every file's unsynced
/// suffix is resolved per the [`TornTail`] policy, and that operation and
/// all subsequent ones fail. Reads never crash — the sweep varies only
/// where the write path dies.
pub struct FaultIo {
    disk: MemDisk,
    crash_at: u64,
    torn: TornTail,
    ops: AtomicU64,
}

impl FaultIo {
    /// Whether the injected crash point was reached.
    pub fn crashed(&self) -> bool {
        self.ops.load(Ordering::SeqCst) >= self.crash_at
    }

    /// Mutating operations observed so far (a completed run's count bounds
    /// the sweep).
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst).min(self.crash_at - 1)
    }

    /// Counts one mutating op; errors if this op (or an earlier one) is the
    /// crash point.
    fn gate(&self) -> io::Result<()> {
        let op = self.ops.fetch_add(1, Ordering::SeqCst) + 1;
        match op.cmp(&self.crash_at) {
            std::cmp::Ordering::Less => Ok(()),
            std::cmp::Ordering::Equal => {
                self.disk.lock().crash(self.torn);
                Err(io::Error::other("injected crash"))
            }
            std::cmp::Ordering::Greater => Err(io::Error::other("process already crashed")),
        }
    }
}

impl StoreIo for FaultIo {
    fn create_dir_all(&self, _dir: &Path) -> io::Result<()> {
        Ok(())
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let state = self.disk.lock();
        Ok(state
            .files
            .keys()
            .filter(|p| p.parent() == Some(dir))
            .filter_map(|p| p.file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .collect())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let state = self.disk.lock();
        state
            .files
            .get(path)
            .map(|f| f.data.clone())
            .ok_or_else(|| not_found(path))
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.gate()?;
        let mut state = self.disk.lock();
        state
            .files
            .entry(path.to_path_buf())
            .or_default()
            .data
            .extend_from_slice(bytes);
        Ok(())
    }

    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.gate()?;
        let mut state = self.disk.lock();
        let file = state.files.entry(path.to_path_buf()).or_default();
        file.data = bytes.to_vec();
        file.synced = 0;
        Ok(())
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.gate()?;
        let mut state = self.disk.lock();
        let file = state.files.get_mut(path).ok_or_else(|| not_found(path))?;
        file.data.truncate(len as usize);
        file.synced = file.synced.min(file.data.len());
        Ok(())
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.gate()?;
        let mut state = self.disk.lock();
        let mut file = state.files.remove(from).ok_or_else(|| not_found(from))?;
        // Modeled atomic and durable (see the MemDisk docs): the renamed
        // file keeps its data-durability state.
        file.synced = file.synced.min(file.data.len());
        state.files.insert(to.to_path_buf(), file);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.gate()?;
        let mut state = self.disk.lock();
        state
            .files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| not_found(path))
    }

    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.gate()?;
        let mut state = self.disk.lock();
        let file = state.files.get_mut(path).ok_or_else(|| not_found(path))?;
        file.synced = file.data.len();
        Ok(())
    }

    fn fsync_dir(&self, _dir: &Path) -> io::Result<()> {
        self.gate()?;
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.disk.lock().files.contains_key(path)
    }

    fn disk_id(&self) -> usize {
        self.disk.id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_disk_round_trips_files() {
        let disk = MemDisk::new();
        let io = disk.io();
        let dir = Path::new("/data");
        let file = dir.join("a.log");
        io.append(&file, b"hello ").unwrap();
        io.append(&file, b"world").unwrap();
        assert_eq!(io.read(&file).unwrap(), b"hello world");
        assert_eq!(io.list(dir).unwrap(), vec!["a.log".to_owned()]);
        io.truncate(&file, 5).unwrap();
        assert_eq!(io.read(&file).unwrap(), b"hello");
        io.rename(&file, &dir.join("b.log")).unwrap();
        assert!(!io.exists(&file));
        io.remove(&dir.join("b.log")).unwrap();
        assert_eq!(io.list(dir).unwrap(), Vec::<String>::new());
        assert!(io.read(&file).is_err());
    }

    #[test]
    fn crash_preserves_synced_prefix_only() {
        for (torn, expect) in [
            (TornTail::Drop, &b"durable"[..]),
            (TornTail::Tear, &b"durable vol"[..]),
            (TornTail::Keep, &b"durable volatile"[..]),
        ] {
            let disk = MemDisk::new();
            let file = Path::new("/d/wal.log").to_path_buf();
            // 3 ops: append, fsync, append; crash on op 4.
            let faulty = disk.fault_io(4, torn);
            faulty.append(&file, b"durable").unwrap();
            faulty.fsync(&file).unwrap();
            faulty.append(&file, b" volatile").unwrap();
            assert!(!faulty.crashed());
            assert!(faulty.append(&file, b" lost").is_err());
            assert!(faulty.crashed());
            assert!(faulty.fsync(&file).is_err(), "all ops fail after death");
            assert_eq!(disk.io().read(&file).unwrap(), expect, "{torn:?}");
        }
    }

    #[test]
    fn unsynced_rewrites_are_lost_whole() {
        let disk = MemDisk::new();
        let file = Path::new("/d/snap.tmp").to_path_buf();
        let faulty = disk.fault_io(2, TornTail::Drop);
        faulty.write_file(&file, b"never synced").unwrap();
        assert!(faulty.write_file(&file, b"boom").is_err());
        assert_eq!(disk.io().read(&file).unwrap(), b"");
    }

    #[test]
    fn bit_flips_corrupt_in_place() {
        let disk = MemDisk::new();
        let file = Path::new("/d/x").to_path_buf();
        disk.io().append(&file, b"abc").unwrap();
        assert!(disk.flip_bit(&file, 1));
        assert_eq!(disk.io().read(&file).unwrap(), b"a\x22c");
        assert!(!disk.flip_bit(&file, 9));
    }
}
