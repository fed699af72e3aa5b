//! The [`StateMaintainer`] abstraction.
//!
//! The three MCOS-generation strategies of the paper (NAIVE, MFS, SSG) share
//! one streaming interface: frames are pushed in order and, after every
//! frame, the maintainer exposes the Result State Set of the current window.
//! The engine, the benchmarks and the differential tests are all written
//! against this trait so the strategies are interchangeable.

use tvq_common::{Decoder, Encoder, Error, FrameId, ObjectSet, Result, SetInterner, WindowSpec};

use crate::compaction::{CompactionOutcome, CompactionPolicy};
use crate::metrics::MaintenanceMetrics;
use crate::mfs::MfsMaintainer;
use crate::naive::NaiveMaintainer;
use crate::prune::SharedPruner;
use crate::reference::ReferenceMaintainer;
use crate::result_set::ResultStateSet;
use crate::ssg::SsgMaintainer;

/// Streaming interface of an MCOS generation strategy.
///
/// `Send` is a supertrait so a boxed maintainer (and the engine that owns
/// it) can live behind a mutex shared across server connection threads;
/// every production maintainer is plain owned data plus `Arc`s already.
pub trait StateMaintainer: Send {
    /// Processes the next frame of the feed. Frames must arrive with strictly
    /// increasing identifiers; the maintainer slides its window accordingly.
    fn advance(&mut self, frame: FrameId, objects: &ObjectSet) -> Result<()>;

    /// The last frame [`advance`](Self::advance) admitted (`None` before the
    /// first): [`check_order`] on it says whether the next one is refused.
    fn last_frame(&self) -> Option<FrameId>;

    /// The satisfied, valid states (MCOS + frame sets) of the window ending
    /// at the most recently processed frame.
    fn results(&self) -> &ResultStateSet;

    /// Work counters accumulated so far.
    fn metrics(&self) -> &MaintenanceMetrics;

    /// Number of states currently materialised.
    fn live_states(&self) -> usize;

    /// Human-readable strategy name (used in benchmark output).
    fn name(&self) -> &'static str;

    /// Gives the maintainer a chance to compact its interner arena between
    /// frames. Implementations count their live handles, consult the
    /// policy, and — when it agrees — run a compaction epoch
    /// ([`SetInterner::compact`]) and re-key every handle-keyed structure
    /// through the remap table. Returns the epoch's
    /// [`CompactionOutcome`] (carrying the retired-object set the engine
    /// layer propagates to its object lifecycle) when an epoch ran, `None`
    /// otherwise.
    ///
    /// Compaction is semantically invisible: results and states are
    /// identical with or without it. The default does nothing (the
    /// brute-force reference oracle holds no handles).
    fn maybe_compact(&mut self, policy: &CompactionPolicy) -> Option<CompactionOutcome> {
        let _ = policy;
        None
    }

    /// Notifies the maintainer that its pruner's *decision function*
    /// changed (the engine swapped the query catalog behind a live pruner
    /// handle). Pruning maintainers drop their cached verdicts so every
    /// handle is re-judged under the new catalog; the default does nothing
    /// (NAIVE and the reference oracle never cache verdicts).
    fn pruner_changed(&mut self) {}

    /// Serializes the maintainer's complete between-frames state (last
    /// frame, the interner's universe and its sets in handle order, a free
    /// handle as the empty set, each with its state row's marked frames,
    /// metrics) so the durability layer can persist
    /// it inside an epoch snapshot. MFS and SSG write one format.
    /// Restoring the bytes via [`restore_state`](Self::restore_state) into
    /// a freshly built MFS or SSG maintainer (same spec, pruner and
    /// interner wiring) yields the same handles and identical results for
    /// every subsequent frame.
    ///
    /// Pruner verdict caches are *not* serialized — verdicts are
    /// re-derivable under the live catalog (and between frames name only
    /// the live states' sets). Neither is SSG's graph: a restore
    /// derives the principal states from the table and rebuilds the graph
    /// over them, so SSG's traversal counters (`states_visited`,
    /// `intersections`, `edges_added`, `edges_removed`) may drift too,
    /// while states and results do not. The default errors: the two
    /// baselines (NAIVE and the brute-force reference oracle) are not
    /// durable.
    fn snapshot_state(&self, enc: &mut Encoder) -> Result<()> {
        let _ = enc;
        Err(Error::Store(format!(
            "the {} maintainer does not support snapshots",
            self.name()
        )))
    }

    /// Rebuilds the maintainer's state from bytes produced by
    /// [`snapshot_state`](Self::snapshot_state). Must be called on a
    /// freshly built maintainer (nothing advanced, nothing interned); the
    /// default errors, mirroring `snapshot_state`.
    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<()> {
        let _ = dec;
        Err(Error::Store(format!(
            "the {} maintainer does not support snapshots",
            self.name()
        )))
    }
}

/// The frame-order rule every maintainer's [`advance`](StateMaintainer::advance)
/// applies: frame ids strictly increase after `last`, and the reserved id
/// `FrameId(u64::MAX)` is refused (see [`FrameId`]).
pub fn check_order(last: Option<FrameId>, next: FrameId) -> Result<()> {
    if next.raw() == u64::MAX {
        return Err(Error::InvalidConfig(format!(
            "frame id {} is reserved",
            next.raw()
        )));
    }
    if let Some(last) = last {
        if next <= last {
            return Err(Error::OutOfOrderFrame {
                last: last.raw(),
                got: next.raw(),
            });
        }
    }
    Ok(())
}

/// The MCOS-generation strategies available in this crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MaintainerKind {
    /// The NAIVE baseline of Section 6.2.
    Naive,
    /// The Marked Frame Set approach of Section 4.2.
    Mfs,
    /// The Strict State Graph approach of Section 4.3.
    Ssg,
    /// The brute-force reference oracle (exponential; tests and tiny windows
    /// only).
    Reference,
}

impl MaintainerKind {
    /// All production strategies (excludes the reference oracle).
    pub const PRODUCTION: [MaintainerKind; 3] = [
        MaintainerKind::Naive,
        MaintainerKind::Mfs,
        MaintainerKind::Ssg,
    ];

    /// Stable one-byte tag identifying the strategy in persistent
    /// artifacts. Never renumber: snapshots written by older builds decode
    /// through these values.
    pub fn codec_tag(&self) -> u8 {
        match self {
            MaintainerKind::Naive => 0,
            MaintainerKind::Mfs => 1,
            MaintainerKind::Ssg => 2,
            MaintainerKind::Reference => 3,
        }
    }

    /// Resolves a [`codec_tag`](Self::codec_tag) back to the strategy,
    /// rejecting unknown tags with a clean codec error.
    pub fn from_codec_tag(tag: u8) -> Result<Self> {
        match tag {
            0 => Ok(MaintainerKind::Naive),
            1 => Ok(MaintainerKind::Mfs),
            2 => Ok(MaintainerKind::Ssg),
            3 => Ok(MaintainerKind::Reference),
            other => Err(Error::Codec(format!("unknown maintainer tag {other}"))),
        }
    }

    /// The strategy's display name, matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            MaintainerKind::Naive => "NAIVE",
            MaintainerKind::Mfs => "MFS",
            MaintainerKind::Ssg => "SSG",
            MaintainerKind::Reference => "REFERENCE",
        }
    }

    /// Builds a maintainer of this kind (private interner, no pruner).
    pub fn build(&self, spec: WindowSpec) -> Box<dyn StateMaintainer> {
        self.build_with_options(spec, None, SetInterner::new())
    }

    /// Builds a maintainer with a query-driven pruner attached (the `_O`
    /// variants of Section 5.3). The reference and NAIVE strategies ignore
    /// the pruner, mirroring the paper which only defines MFS_O and SSG_O.
    pub fn build_with_pruner(
        &self,
        spec: WindowSpec,
        pruner: SharedPruner,
    ) -> Box<dyn StateMaintainer> {
        self.build_with_options(spec, Some(pruner), SetInterner::new())
    }

    /// Builds a maintainer around a caller-provided interner and an optional
    /// pruner. This is how the engine wires one interner per feed (sharing
    /// its object → class map, so result states carry precomputed class
    /// counts). The reference oracle ignores both — it recomputes windows
    /// from first principles and exists to pin down semantics, not speed.
    pub fn build_with_options(
        &self,
        spec: WindowSpec,
        pruner: Option<SharedPruner>,
        interner: SetInterner,
    ) -> Box<dyn StateMaintainer> {
        match self {
            MaintainerKind::Naive => Box::new(NaiveMaintainer::with_options(spec, interner)),
            MaintainerKind::Mfs => Box::new(MfsMaintainer::with_options(spec, interner, pruner)),
            MaintainerKind::Ssg => Box::new(SsgMaintainer::with_options(spec, interner, pruner)),
            MaintainerKind::Reference => Box::new(ReferenceMaintainer::new(spec)),
        }
    }
}

impl std::fmt::Display for MaintainerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_check_rejects_non_increasing_frames() {
        assert!(check_order(None, FrameId(0)).is_ok());
        assert!(check_order(Some(FrameId(3)), FrameId(4)).is_ok());
        assert!(check_order(Some(FrameId(3)), FrameId(3)).is_err());
        assert!(check_order(Some(FrameId(3)), FrameId(1)).is_err());
        assert!(check_order(None, FrameId(u64::MAX - 1)).is_ok());
        assert!(check_order(None, FrameId(u64::MAX)).is_err());
        assert!(check_order(Some(FrameId(u64::MAX - 1)), FrameId(u64::MAX)).is_err());
    }

    #[test]
    fn kinds_report_paper_names() {
        assert_eq!(MaintainerKind::Naive.to_string(), "NAIVE");
        assert_eq!(MaintainerKind::Mfs.to_string(), "MFS");
        assert_eq!(MaintainerKind::Ssg.to_string(), "SSG");
    }

    #[test]
    fn codec_tags_round_trip_and_reject_unknowns() {
        for kind in [
            MaintainerKind::Naive,
            MaintainerKind::Mfs,
            MaintainerKind::Ssg,
            MaintainerKind::Reference,
        ] {
            assert_eq!(
                MaintainerKind::from_codec_tag(kind.codec_tag()).unwrap(),
                kind
            );
        }
        assert!(MaintainerKind::from_codec_tag(99).is_err());
    }

    #[test]
    fn reference_maintainer_is_not_durable() {
        let spec = WindowSpec::new(4, 2).unwrap();
        for kind in [MaintainerKind::Reference, MaintainerKind::Naive] {
            let mut maintainer = kind.build(spec);
            let mut enc = Encoder::new();
            let err = maintainer.snapshot_state(&mut enc).unwrap_err();
            assert!(matches!(err, Error::Store(_)), "{kind}: {err}");
            assert!(enc.is_empty(), "{kind} wrote snapshot bytes before failing");
            let err = maintainer
                .restore_state(&mut Decoder::new(&[]))
                .unwrap_err();
            assert!(matches!(err, Error::Store(_)), "{kind}: {err}");
        }
    }

    #[test]
    fn factory_builds_each_kind() {
        let spec = WindowSpec::new(4, 2).unwrap();
        for kind in [
            MaintainerKind::Naive,
            MaintainerKind::Mfs,
            MaintainerKind::Ssg,
            MaintainerKind::Reference,
        ] {
            let maintainer = kind.build(spec);
            assert_eq!(maintainer.live_states(), 0);
            assert_eq!(maintainer.name(), kind.name());
        }
    }
}
