//! Epoch-based interner-arena compaction policy.
//!
//! Within one epoch a maintainer's [`SetInterner`](tvq_common::SetInterner)
//! arena is append-only: memory grows with the number of distinct object
//! sets ever observed. Bounded-universe feeds saturate quickly, but a
//! long-running feed with object turnover (new track ids forever) grows
//! monotonically. Compaction fixes that: when the share of arena entries
//! still referenced by live states falls below a configured ratio, the
//! maintainer rebuilds its interner from the live handles
//! ([`SetInterner::compact`](tvq_common::SetInterner::compact)) and re-keys
//! every handle-keyed structure through the returned
//! [`RemapTable`](tvq_common::RemapTable).
//!
//! [`CompactionPolicy`] describes *when* that is worth doing. The engine
//! checks the policy between frames (every
//! [`check_interval`](CompactionPolicy::check_interval) frames) and calls
//! [`StateMaintainer::maybe_compact`](crate::StateMaintainer::maybe_compact);
//! the maintainer supplies the live-handle count and compacts if the policy
//! agrees. Compaction is semantically invisible — results before and after
//! are identical — and deterministic: identical runs compact at identical
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
    /// Number of interned sets retired by the epoch.
    pub retired_sets: usize,
    /// Objects whose bit slots were re-densified away (ascending order).
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
    /// Compact when `live handles / arena entries` falls below this ratio.
    /// `1.0` compacts whenever any entry is retired; values above `1.0`
    /// never trigger on their own (the `arena > live` guard still applies).
    pub max_live_ratio: f64,
    /// Skip compaction while the arena holds fewer entries than this —
    /// small arenas are not worth rebuilding, whatever their occupancy.
    pub min_interned: usize,
}

impl CompactionPolicy {
    /// The production default: check every 256 frames, compact once less
    /// than half of an at-least-4096-entry arena is live.
    pub const fn default_policy() -> Self {
        CompactionPolicy {
            check_interval: 256,
            max_live_ratio: 0.5,
            min_interned: 4096,
        }
    }

    /// A policy that compacts at every check with at least one retired
    /// entry — used by the determinism suite to force compaction every `n`
    /// frames and by tests that want the epoch lifecycle exercised densely.
    pub const fn every(n: u64) -> Self {
        CompactionPolicy {
            check_interval: if n == 0 { 1 } else { n },
            max_live_ratio: 1.0,
            min_interned: 0,
        }
    }

    /// Whether an arena with `arena` entries, of which `live` are still
    /// referenced, should be compacted now. Both counts include the
    /// always-live empty set.
    pub fn should_compact(&self, live: usize, arena: usize) -> bool {
        arena > live
            && arena >= self.min_interned
            && (live as f64) < self.max_live_ratio * (arena as f64)
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
