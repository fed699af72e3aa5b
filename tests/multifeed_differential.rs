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

use tvq_common::WindowSpec;
use tvq_core::MaintainerKind;
use tvq_engine::{EngineConfig, MultiFeedConfig};
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
