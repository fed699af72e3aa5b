//! Differential suite for the sharded multi-feed engine.
//!
//! A sharded [`MultiFeedEngine`](tvq_engine::MultiFeedEngine) run must be
//! frame-for-frame identical to N independent single-feed engine runs over
//! the same feeds: sharding, batching and worker count are pure deployment
//! choices that may never change query results or per-feed metrics. The
//! heavy lifting lives in `tvq_testkit::assert_multifeed_equals_single`;
//! this suite sweeps maintainer kinds, pruning, worker counts, batch sizes
//! and seeds — plus the scheduling dimension: rebalancing on/off/aggressive,
//! forced per-batch migrations, and the skewed camera grid the
//! work-stealing scheduler exists for.

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

/// Determinism under work stealing: rebalancing (off, default cadence, and
/// the most aggressive setting the config allows) must be invisible to
/// results — every configuration stays frame-for-frame identical to the
/// single-feed oracles, for both pruning-capable maintainers.
#[test]
fn rebalancing_is_invisible_to_results() {
    for kind in [MaintainerKind::Mfs, MaintainerKind::Ssg] {
        let feeds = multi_feed_classed(17, 5, 30, 6, 0.25, 2);
        for workers in [1usize, 2, 4] {
            for (interval, threshold) in [(0u64, 1.5f64), (8, 1.5), (1, 1.0)] {
                assert_multifeed_config_equals_single(
                    &feeds,
                    MultiFeedConfig::new(config(kind, true))
                        .with_workers(workers)
                        .with_rebalance_interval(interval)
                        .with_steal_threshold(threshold),
                    QUERIES,
                    7,
                    false,
                );
            }
        }
    }
}

/// The adversarial schedule: every feed is force-migrated to a rotating
/// worker after every batch. Migration in any pattern, at any frequency,
/// must never change results, per-feed metrics, or reports.
#[test]
fn forced_migrations_every_batch_are_invisible_to_results() {
    for kind in [MaintainerKind::Mfs, MaintainerKind::Ssg] {
        let feeds = multi_feed_classed(29, 4, 24, 6, 0.25, 2);
        for workers in [2usize, 4] {
            assert_multifeed_config_equals_single(
                &feeds,
                MultiFeedConfig::new(config(kind, true))
                    .with_workers(workers)
                    .with_rebalance_interval(3),
                QUERIES,
                5,
                true,
            );
        }
    }
}

/// The skewed-grid workload the scheduler exists for (hot cameras colliding
/// on one static shard, hotspot flip mid-run) must also be deterministic:
/// the rebalanced sharded run stays identical to the single-feed oracles
/// even while the scheduler is actively migrating the hot feeds.
#[test]
fn skewed_grid_with_rebalancing_matches_oracles() {
    let mut profile = SkewProfile::new(48);
    profile.feeds = 8;
    profile.hot_objects = 10;
    let feeds = skewed_grid(&profile);
    for (interval, threshold) in [(0u64, 1.5f64), (2, 1.25)] {
        assert_multifeed_config_equals_single(
            &feeds,
            MultiFeedConfig::new(config(MaintainerKind::Ssg, true))
                .with_workers(4)
                .with_rebalance_interval(interval)
                .with_steal_threshold(threshold),
            QUERIES,
            8,
            false,
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
