//! Instance-determinism regression suite.
//!
//! Two engines built from the same configuration must produce *identical*
//! results **and metrics** when fed the same frames — even within one
//! process, where every `HashMap` instance gets its own random hash seed.
//! SSG removes the nodes of the states its table drops at the start of a
//! frame, and each removal rewires edges, so the removal order shapes
//! `edges_added`/`edges_removed`. An early build removed expired nodes in
//! `HashMap` iteration order, which differed between identical runs; the
//! order is now ascending slab slot, which a snapshot also restores.
//! Without this property the multi-feed engine's merged reports could not
//! be compared against single-feed oracles.

use tvq_common::WindowSpec;
use tvq_core::{CompactionPolicy, MaintainerKind};
use tvq_engine::{EngineConfig, TemporalVideoQueryEngine};
use tvq_testkit::multi_feed_classed;

fn build(config: EngineConfig) -> TemporalVideoQueryEngine {
    TemporalVideoQueryEngine::builder(config)
        .with_query_text("car >= 1 AND person >= 1")
        .unwrap()
        .with_query_text("car >= 2")
        .unwrap()
        .build()
        .unwrap()
}

/// Interner compaction is deterministic and semantically invisible: with
/// compaction forced at a fixed cadence, (a) two identical engines stay
/// result- and metric-identical — compaction epochs fire at the same frames
/// and rebuild identical arenas — and (b) the results match a compaction-free
/// engine frame for frame.
#[test]
fn forced_compaction_is_deterministic_and_invisible() {
    let force = CompactionPolicy::every(4);
    for kind in [
        MaintainerKind::Naive,
        MaintainerKind::Mfs,
        MaintainerKind::Ssg,
    ] {
        for pruning in [false, true] {
            let compacting = EngineConfig::new(WindowSpec::new(6, 3).unwrap())
                .with_maintainer(kind)
                .with_pruning(pruning)
                .with_compaction(Some(force));
            let plain = compacting.with_compaction(None);
            let mut epochs = 0u64;
            for feed in &multi_feed_classed(29, 3, 48, 8, 0.3, 2) {
                let mut a = build(compacting);
                let mut b = build(compacting);
                let mut reference = build(plain);
                for frame in &feed.frames {
                    let ra = a.observe(frame).unwrap();
                    let rb = b.observe(frame).unwrap();
                    let rr = reference.observe(frame).unwrap();
                    assert_eq!(ra, rb, "{kind:?} twin runs diverged at {}", frame.fid);
                    assert_eq!(
                        a.metrics(),
                        b.metrics(),
                        "{kind:?} (pruning={pruning}) twin metrics diverged at feed {} frame {}",
                        feed.feed,
                        frame.fid
                    );
                    assert_eq!(
                        ra, rr,
                        "{kind:?} compaction changed results at feed {} frame {}",
                        feed.feed, frame.fid
                    );
                }
                assert_eq!(a.live_states(), reference.live_states());
                epochs += a.metrics().compactions;
            }
            assert!(
                epochs > 0,
                "{kind:?} (pruning={pruning}): the forced policy never compacted — \
                 the regression suite is not exercising the epoch lifecycle"
            );
        }
    }
}

#[test]
fn identical_engines_agree_on_results_and_metrics() {
    for kind in [
        MaintainerKind::Naive,
        MaintainerKind::Mfs,
        MaintainerKind::Ssg,
    ] {
        for pruning in [false, true] {
            let config = EngineConfig::new(WindowSpec::new(6, 3).unwrap())
                .with_maintainer(kind)
                .with_pruning(pruning);
            for feed in &multi_feed_classed(13, 3, 40, 6, 0.2, 2) {
                let mut a = build(config);
                let mut b = build(config);
                for frame in &feed.frames {
                    let ra = a.observe(frame).unwrap();
                    let rb = b.observe(frame).unwrap();
                    assert_eq!(ra, rb, "{kind:?} results diverged at {}", frame.fid);
                    assert_eq!(
                        a.metrics(),
                        b.metrics(),
                        "{kind:?} (pruning={pruning}) metrics diverged at feed {} frame {}",
                        feed.feed,
                        frame.fid
                    );
                }
                assert_eq!(a.live_states(), b.live_states());
            }
        }
    }
}
