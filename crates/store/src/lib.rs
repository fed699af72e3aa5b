//! Durability layer: write-ahead log, epoch snapshots, fault injection.
//!
//! The engine survives crashes with the classic recipe, adapted to the
//! MCOS-maintenance stack:
//!
//! * every ingested batch (frames, track-end events, catalog add/remove) is
//!   appended to a **write-ahead log** ([`Wal`]) — length-prefixed,
//!   CRC-checksummed records, fsynced before the operation is acknowledged
//!   — so the effect of any acknowledged operation can be reproduced;
//! * at compaction-epoch boundaries the engine serializes its complete
//!   state (interner arena, maintainer tables, lifecycle, catalog) into an
//!   **epoch snapshot** ([`SnapshotStore`]): written to a temp file, fsynced,
//!   atomically renamed into place, then the log's covered prefix is pruned;
//! * **recovery** loads the newest valid snapshot (falling back to older
//!   ones when a checksum fails) and replays the log's tail.
//!
//! Everything talks to the filesystem through the [`StoreIo`] trait.
//! Production uses [`RealIo`]; the crash-recovery differential suite uses
//! [`FaultIo`] over an in-memory [`MemDisk`] to inject a crash at *every*
//! write/fsync point in turn — with the unsynced tail of each file dropped,
//! halved or kept — and asserts that recovery plus continuation is
//! indistinguishable from a run that never crashed. Corrupt records are
//! detected by checksum and reported, never silently replayed.
//!
//! The crate is deliberately independent of the engine: the WAL stores
//! opaque payloads, and the engine's record/snapshot codecs live next to
//! the engine (`tvq-engine`'s `persist` module).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod io;
pub mod lock;
pub mod snap;
pub mod wal;

pub use io::FaultIo;
pub use io::{MemDisk, RealIo, SharedIo, StoreIo, TornTail};
pub use lock::DirLock;
pub use snap::{LoadedSnapshot, SnapshotStore};
pub use wal::{Wal, WalOpenReport};
