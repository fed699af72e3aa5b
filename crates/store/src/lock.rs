//! Exclusive ownership of a data directory.
//!
//! Two engines writing one WAL interleave records and destroy the log, so
//! a data directory must be opened by at most one engine at a time. The
//! guard is two-layered:
//!
//! * a **process-wide registry** of held `(disk, directory)` pairs catches
//!   double-opens inside one process (the common hazard in tests, where
//!   many engines share one [`MemDisk`](crate::io::MemDisk)); the disk is
//!   part of the key, so engines on separate in-memory disks may use the
//!   same path at once;
//! * a **`LOCK` file** holding the owner's pid catches a second process.
//!   A leftover `LOCK` whose pid no longer runs (checked via `/proc`) is
//!   stale — crashes must not brick the store — and is reclaimed.
//!
//! Dropping the [`DirLock`] releases both layers; the file removal is
//! best-effort, since the stale check makes a leaked `LOCK` harmless.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock, PoisonError};

use tvq_common::{Error, Result};

use crate::io::SharedIo;

const LOCK_FILE: &str = "LOCK";

/// The held directories, each under its disk's
/// [`disk_id`](crate::io::StoreIo::disk_id).
type Held = BTreeSet<(usize, PathBuf)>;

fn held() -> &'static Mutex<Held> {
    static HELD: OnceLock<Mutex<Held>> = OnceLock::new();
    HELD.get_or_init(|| Mutex::new(BTreeSet::new()))
}

fn pid_is_live(pid: u32) -> bool {
    pid == std::process::id() || Path::new("/proc").join(pid.to_string()).exists()
}

/// An exclusive lock on a data directory, released on drop.
pub struct DirLock {
    io: SharedIo,
    /// The registry entry: the disk's id and the directory.
    key: (usize, PathBuf),
}

impl std::fmt::Debug for DirLock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DirLock")
            .field("dir", &self.key.1)
            .finish_non_exhaustive()
    }
}

impl DirLock {
    /// Acquires the lock, creating the directory if needed. Fails with
    /// [`Error::Store`] when the directory is already open — in this
    /// process or (per the `LOCK` file's live pid) another one.
    pub fn acquire(io: SharedIo, dir: &Path) -> Result<DirLock> {
        io.create_dir_all(dir)
            .map_err(|e| Error::Store(format!("create data dir: {e}")))?;

        let key = (io.disk_id(), dir.to_path_buf());
        {
            let mut held = held().lock().unwrap_or_else(PoisonError::into_inner);
            if !held.insert(key.clone()) {
                return Err(Error::Store(format!(
                    "data dir {} is already open in this process",
                    dir.display()
                )));
            }
        }
        // The registry slot is ours; give it back on every early return.
        // The guard itself is only constructed once the LOCK file is too —
        // its Drop removes that file, which must never hit a foreign lock.
        let release = || {
            held()
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .remove(&key);
        };

        let path = dir.join(LOCK_FILE);
        if io.exists(&path) {
            let owner = io
                .read(&path)
                .ok()
                .and_then(|bytes| String::from_utf8(bytes).ok())
                .and_then(|text| text.trim().parse::<u32>().ok());
            // Our own pid here means a previous instance in this process
            // died without dropping its lock (an injected crash); the
            // registry above is the live authority for that case.
            if let Some(pid) = owner {
                if pid != std::process::id() && pid_is_live(pid) {
                    release();
                    return Err(Error::Store(format!(
                        "data dir {} is locked by live process {pid}",
                        dir.display()
                    )));
                }
            }
        }
        // Written atomically (tmp + fsync + rename): a crash mid-write must
        // not tear the pid down to a *different* live pid's prefix, which
        // would wedge the directory until that unrelated process exits.
        let tmp = dir.join("LOCK.tmp");
        let written = io
            .write_file(&tmp, std::process::id().to_string().as_bytes())
            .and_then(|()| io.fsync(&tmp))
            .and_then(|()| io.rename(&tmp, &path));
        if let Err(e) = written {
            release();
            return Err(Error::Store(format!("write LOCK file: {e}")));
        }
        Ok(DirLock { io, key })
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let mut held = held().lock().unwrap_or_else(PoisonError::into_inner);
        held.remove(&self.key);
        // Best-effort: with fault injection the "disk" may be dead, and the
        // stale-pid check makes the leftover file harmless.
        let _ = self.io.remove(&self.key.1.join(LOCK_FILE));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemDisk;

    #[test]
    fn double_open_in_process_is_refused_until_release() {
        let disk = MemDisk::new();
        let dir = PathBuf::from("/locked");
        let lock = DirLock::acquire(disk.io(), &dir).unwrap();
        let err = DirLock::acquire(disk.io(), &dir).unwrap_err();
        assert!(err.to_string().contains("already open"), "{err}");
        drop(lock);
        let _relock = DirLock::acquire(disk.io(), &dir).unwrap();
    }

    #[test]
    fn separate_disks_may_hold_the_same_path_at_once() {
        let (one, other) = (MemDisk::new(), MemDisk::new());
        let dir = PathBuf::from("/shared-name");
        let _held = DirLock::acquire(one.io(), &dir).unwrap();
        let _also_held = DirLock::acquire(other.io(), &dir).unwrap();
        // A crash-injecting view is still the same disk.
        let faulty: SharedIo = one.fault_io(u64::MAX, crate::io::TornTail::Drop);
        let err = DirLock::acquire(faulty, &dir).unwrap_err();
        assert!(err.to_string().contains("already open"), "{err}");
    }

    #[test]
    fn stale_lock_files_are_reclaimed_live_ones_refused() {
        let disk = MemDisk::new();
        let dir = PathBuf::from("/stale");
        // A pid that cannot be running (pid_max is far below u32::MAX).
        disk.io()
            .write_file(&dir.join(LOCK_FILE), b"4294967294")
            .unwrap();
        let lock = DirLock::acquire(disk.io(), &dir).unwrap();
        drop(lock);

        // Unparseable contents are treated as stale, not a crash.
        disk.io()
            .write_file(&dir.join(LOCK_FILE), b"not a pid")
            .unwrap();
        drop(DirLock::acquire(disk.io(), &dir).unwrap());

        // A live foreign pid refuses: pid 1 always runs, and is not us.
        disk.io().write_file(&dir.join(LOCK_FILE), b"1").unwrap();
        let err = DirLock::acquire(disk.io(), &dir).unwrap_err();
        assert!(err.to_string().contains("locked by live process"), "{err}");
        // The failed acquire released its registry slot: reclaimable after
        // the foreign lock file goes away.
        disk.io().remove(&dir.join(LOCK_FILE)).unwrap();
        drop(DirLock::acquire(disk.io(), &dir).unwrap());
    }

    #[test]
    fn crash_cannot_tear_the_lock_file_into_a_foreign_pid() {
        use crate::io::TornTail;
        let disk = MemDisk::new();
        let dir = PathBuf::from("/torn");
        // Acquire survives (3 mutating ops); the 4th op is the crash, whose
        // torn-tail pass truncates every file's *unsynced* suffix. The LOCK
        // was fsynced before the rename, so its pid must come through whole
        // — a prefix of it could name a live unrelated process and wedge
        // the directory until that process exits.
        let faulty: SharedIo = disk.fault_io(4, TornTail::Tear);
        let lock = DirLock::acquire(faulty.clone(), &dir).unwrap();
        assert!(faulty.write_file(&dir.join("x"), b"boom").is_err());
        let bytes = disk.io().read(&dir.join(LOCK_FILE)).unwrap();
        assert_eq!(bytes, std::process::id().to_string().as_bytes());
        drop(lock); // Its remove fails against the dead disk; harmless.
        drop(DirLock::acquire(disk.io(), &dir).unwrap());
    }

    #[test]
    fn own_pid_in_lock_file_is_reclaimable_after_crash() {
        let disk = MemDisk::new();
        let dir = PathBuf::from("/mine");
        // Simulate an injected crash: the previous engine wrote its LOCK
        // but its Drop could not remove the file (dead disk), while the
        // registry entry was released.
        disk.io()
            .write_file(
                &dir.join(LOCK_FILE),
                std::process::id().to_string().as_bytes(),
            )
            .unwrap();
        drop(DirLock::acquire(disk.io(), &dir).unwrap());
    }
}
