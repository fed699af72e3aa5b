//! Differential suite for the sharded multi-feed engine.
//!
//! A sharded [`MultiFeedEngine`](tvq_engine::MultiFeedEngine) run must be
//! frame-for-frame identical to N independent single-feed engine runs over
//! the same feeds: sharding, batching and worker count are pure deployment
//! choices that may never change query results or per-feed metrics. The
//! heavy lifting lives in `tvq_testkit::assert_multifeed_equals_single`;
//! this suite sweeps maintainer kinds, pruning, worker counts, batch sizes
//! and seeds, interleaved fleet-wide catalog ops, and the skewed camera
//! grid whose hot cameras collide under a static `feed mod 4` split.

use std::sync::Arc;

use tvq_common::{
    shared_class_store, ClassId, FrameId, FrameObjects, ObjectId, SharedClassMap, WindowSpec,
};
use tvq_core::{CompactionPolicy, MaintainerKind};
use tvq_engine::{EngineConfig, MultiFeedConfig, TemporalVideoQueryEngine};
use tvq_testkit::{
    assert_multifeed_config_equals_single, assert_multifeed_equals_single, multi_feed_classed,
    skewed_grid, SkewProfile,
};

/// Classes in the generated feeds: even object ids are people (class 0),
/// odd ids are cars (class 1).
const QUERIES: &[&str] = &["car >= 1 AND person >= 1", "car >= 2"];

fn config(kind: MaintainerKind, pruning: bool) -> EngineConfig {
    EngineConfig::new(WindowSpec::new(6, 3).unwrap())
        .with_maintainer(kind)
        .with_pruning(pruning)
}

#[test]
fn sharded_runs_match_single_feed_oracles_for_both_maintainers() {
    for kind in [MaintainerKind::Mfs, MaintainerKind::Ssg] {
        for seed in [1u64, 42] {
            let feeds = multi_feed_classed(seed, 4, 30, 6, 0.25, 2);
            for workers in [1usize, 2, 3] {
                assert_multifeed_equals_single(&feeds, config(kind, false), QUERIES, workers, 8);
            }
        }
    }
}

#[test]
fn sharded_runs_match_single_feed_oracles_with_pruning_enabled() {
    // All queries are `>=`-only, so the engines run their `_O` pruning
    // variants; pruning decisions must also be identical across sharding.
    for kind in [MaintainerKind::Mfs, MaintainerKind::Ssg] {
        for seed in [7u64, 99] {
            let feeds = multi_feed_classed(seed, 5, 30, 7, 0.3, 2);
            for workers in [2usize, 4] {
                assert_multifeed_equals_single(&feeds, config(kind, true), QUERIES, workers, 11);
            }
        }
    }
}

#[test]
fn batch_size_is_immaterial() {
    let feeds = multi_feed_classed(13, 3, 24, 6, 0.2, 2);
    let config = config(MaintainerKind::Ssg, true);
    for batch_size in [1usize, 3, 64] {
        assert_multifeed_equals_single(&feeds, config, QUERIES, 2, batch_size);
    }
}

#[test]
fn more_workers_than_feeds_is_fine() {
    let feeds = multi_feed_classed(21, 2, 20, 5, 0.25, 2);
    assert_multifeed_equals_single(&feeds, config(MaintainerKind::Mfs, true), QUERIES, 8, 4);
}

/// Worker count × maintainer, once plain and once with a query added or
/// removed fleet-wide every other batch: each batch places its feeds
/// afresh, so a feed's frames move between shares from batch to batch,
/// and every run must stay frame-for-frame identical to the single-feed
/// oracles.
#[test]
fn worker_count_and_maintainer_sweeps_match_oracles() {
    for kind in [MaintainerKind::Mfs, MaintainerKind::Ssg] {
        for (seed, feeds, frames, batch_size, catalog_ops) in
            [(17u64, 5, 30, 7, false), (29, 4, 24, 5, true)]
        {
            let feeds = multi_feed_classed(seed, feeds, frames, 6, 0.25, 2);
            for workers in [1usize, 2, 4] {
                assert_multifeed_config_equals_single(
                    &feeds,
                    MultiFeedConfig::new(config(kind, true)).with_workers(workers),
                    QUERIES,
                    batch_size,
                    catalog_ops,
                );
            }
        }
    }
}

/// The skewed grid (hot cameras colliding under `feed mod 4`, hotspot flip
/// mid-run) at 4 workers, with and without interleaved catalog ops: the
/// placement that spreads the hot cameras never changes a result.
#[test]
fn skewed_grid_at_four_workers_matches_oracles() {
    let mut profile = SkewProfile::new(48);
    profile.feeds = 8;
    profile.hot_objects = 10;
    let feeds = skewed_grid(&profile);
    for catalog_ops in [false, true] {
        assert_multifeed_config_equals_single(
            &feeds,
            MultiFeedConfig::new(config(MaintainerKind::Ssg, true)).with_workers(4),
            QUERIES,
            8,
            catalog_ops,
        );
    }
}

/// Store sharing: with one class store across engines, epoch retirement in
/// one engine must never evict a class mapping another engine still tracks.
/// Feed 0 churns through throwaway objects (its early ids retire under the
/// forced compaction policy) while feed 1 keeps observing the same global
/// ids 1 and 2 every frame; feed 1's results must stay frame-for-frame
/// identical to a dedicated single-feed engine with a private store.
#[test]
fn shared_store_retirement_on_one_shard_does_not_starve_another() {
    let engine_config = EngineConfig::new(WindowSpec::new(4, 2).unwrap())
        .with_maintainer(MaintainerKind::Ssg)
        .with_compaction(Some(CompactionPolicy::every(1)));
    let store = shared_class_store();
    let build = |store: Option<&SharedClassMap>| {
        let mut builder = TemporalVideoQueryEngine::builder(engine_config)
            .with_query_text("car >= 1 AND person >= 1")
            .unwrap();
        if let Some(store) = store {
            builder = builder.with_class_store(Arc::clone(store));
        }
        builder.build().unwrap()
    };
    let mut feeds = [build(Some(&store)), build(Some(&store))];
    let mut oracle = build(None);

    let churn_frame = |fid: u64| {
        // Feed 0 sees the shared pair briefly, then rotating throwaway
        // cars: ids 1 and 2 leave its window and retire on shard 0.
        let detections = if fid < 3 {
            vec![(ObjectId(1), ClassId(1)), (ObjectId(2), ClassId(0))]
        } else {
            vec![
                (ObjectId(100 + fid as u32), ClassId(1)),
                (ObjectId(200 + fid as u32), ClassId(0)),
            ]
        };
        FrameObjects::new(FrameId(fid), detections)
    };
    let stable_frame = |fid: u64| {
        // The pair plus a rotating guest: every couple of frames feed 1
        // interns a *new* set containing ids 1 and 2, whose class counts
        // are aggregated from the shared store when it is first reported —
        // so a wrong eviction of 1 or 2 surfaces as a result divergence
        // instead of hiding behind previously cached counts.
        FrameObjects::new(
            FrameId(fid),
            vec![
                (ObjectId(1), ClassId(1)),
                (ObjectId(2), ClassId(0)),
                (ObjectId(300 + (fid / 2) as u32), ClassId(0)),
            ],
        )
    };

    for fid in 0..40u64 {
        feeds[0].observe(&churn_frame(fid)).unwrap();
        let result = feeds[1].observe(&stable_frame(fid)).unwrap();
        let expected = oracle.observe(&stable_frame(fid)).unwrap();
        assert_eq!(
            result, expected,
            "feed 1 diverged from its oracle at frame {fid} — a shared-store \
             eviction took a mapping a live sharer still needed"
        );
    }

    let feed0 = feeds[0].metrics();
    assert!(
        feed0.objects_retired > 0,
        "feed 0 never retired anything — the test is not exercising \
         shared-store eviction (compactions: {})",
        feed0.compactions
    );
    assert!(
        feeds[1].match_counters().1 >= 38,
        "feed 1 should keep matching throughout"
    );
}
