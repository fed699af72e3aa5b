//! Epoch-based interner compaction policy.
//!
//! A maintainer's [`SetInterner`](tvq_common::SetInterner) frees a set
//! when its last state dies, and reuses the handle, so between frames it
//! holds only the live states' sets; a bit slot is freed with the last
//! held set that has its bit, and its object is parked. What it does not
//! free is the registration: a parked object stays registered until a
//! compaction epoch. On a long-running feed with object turnover (new
//! track ids forever) the registered objects would grow without bound. An
//! epoch rebuilds the interner from the live handles
//! ([`SetInterner::compact`](tvq_common::SetInterner::compact)), which
//! re-densifies the slots, renumbers the handles (the one place they
//! move) and hands back a [`RemapTable`](tvq_common::RemapTable) through
//! which every handle-keyed structure re-keys itself, together with the
//! objects no live set holds any more (the parked ones among them), which
//! the engine's lifecycle then retires.
//!
//! [`CompactionPolicy`] describes *when* that is worth doing. The engine
//! checks the policy between frames (every
//! [`check_interval`](CompactionPolicy::check_interval) frames) and calls
//! [`StateMaintainer::maybe_compact`](crate::StateMaintainer::maybe_compact);
//! the maintainer supplies its live-state count and the interner's count of
//! sets [`minted`](tvq_common::SetInterner::minted) this epoch, and
//! compacts if the policy agrees. Minted sets count churn: a set minted,
//! released and minted again counts twice, so the epoch cadence follows
//! the sets a feed turns over, as it did when nothing was released.
//! Compaction is semantically invisible — results before and after are
//! identical — and deterministic: identical runs compact at identical
//! frames into identical arenas.

use tvq_common::{Decoder, Encoder, Result};

/// What one compaction epoch did, reported upward by
/// [`StateMaintainer::maybe_compact`](crate::StateMaintainer::maybe_compact).
///
/// The interesting payload is the **retire set**: the object identifiers
/// that no surviving interned set contains any more. The engine layer feeds
/// it to its [`ObjectLifecycle`](crate::ObjectLifecycle) so the shared class
/// store drops its references and the per-engine tracking maps forget the
/// identifiers — the step that makes the *engine-side* footprint (not just
/// the maintainer arena) a function of the live window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// The epoch the maintainer entered: its `compactions` metric after
    /// this compaction, which a snapshot carries across a restore.
    pub epoch: u64,
    /// Registered objects no surviving set holds, parked ones included
    /// (ascending order).
    /// An identifier in this list is referenced by no live state; if it
    /// ever reappears in the feed it is, by contract, a **new object**.
    pub retired_objects: Vec<tvq_common::ObjectId>,
}

/// When to compact a maintainer's interner arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// How often (in processed frames) the engine consults the policy.
    /// Checking is O(live states) only when the other thresholds pass, but
    /// there is no point re-deciding every frame.
    pub check_interval: u64,
    /// Compact when `live handles / sets minted` falls below this ratio.
    /// `1.0` compacts whenever a set minted this epoch died; values above
    /// `1.0` never trigger on their own (the `minted > live` guard still
    /// applies).
    pub max_live_ratio: f64,
    /// Skip compaction while fewer sets than this were minted this epoch —
    /// small arenas are not worth rebuilding, whatever their occupancy.
    pub min_interned: usize,
}

impl CompactionPolicy {
    /// The production default: check every 256 frames, compact once the
    /// live states are fewer than half of at least 4096 sets minted.
    pub const fn default_policy() -> Self {
        CompactionPolicy {
            check_interval: 256,
            max_live_ratio: 0.5,
            min_interned: 4096,
        }
    }

    /// A policy that compacts at every check after at least one set minted
    /// this epoch died — used by the determinism suite to force compaction
    /// every `n` frames and by tests that want the epoch lifecycle
    /// exercised densely.
    pub const fn every(n: u64) -> Self {
        CompactionPolicy {
            check_interval: if n == 0 { 1 } else { n },
            max_live_ratio: 1.0,
            min_interned: 0,
        }
    }

    /// Whether an interner that minted `minted` sets this epoch, of which
    /// `live` are still referenced, should be compacted now. Both counts
    /// include the always-live empty set.
    pub fn should_compact(&self, live: usize, minted: usize) -> bool {
        minted > live
            && minted >= self.min_interned
            && (live as f64) < self.max_live_ratio * (minted as f64)
    }

    /// Appends the three thresholds in declaration order.
    pub fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(self.check_interval);
        enc.put_f64(self.max_live_ratio);
        enc.put_usize(self.min_interned);
    }

    /// Reads a policy written by [`encode`](Self::encode).
    pub fn decode(dec: &mut Decoder<'_>) -> Result<CompactionPolicy> {
        Ok(CompactionPolicy {
            check_interval: dec.take_u64()?,
            max_live_ratio: dec.take_f64()?,
            min_interned: dec.take_usize()?,
        })
    }
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy::default_policy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_waits_for_a_large_sparse_arena() {
        let policy = CompactionPolicy::default_policy();
        assert!(!policy.should_compact(10, 100), "arena below min_interned");
        assert!(!policy.should_compact(3000, 5000), "occupancy above ratio");
        assert!(policy.should_compact(1000, 5000));
        assert!(!policy.should_compact(5000, 5000), "nothing to retire");
    }

    #[test]
    fn forced_policy_compacts_whenever_something_retired() {
        let policy = CompactionPolicy::every(8);
        assert_eq!(policy.check_interval, 8);
        assert!(policy.should_compact(1, 2));
        assert!(policy.should_compact(4095, 4096));
        assert!(!policy.should_compact(2, 2), "fully live arena stays");
        assert_eq!(CompactionPolicy::every(0).check_interval, 1);
    }
}
