//! End-to-end differential tests: a full [`TemporalVideoQueryEngine`] built
//! on MFS or SSG (with or without pruning) must report, frame for frame, exactly the matches of a naive-engine oracle —
//! the same engine wired to the NAIVE maintainer with pruning disabled.

use tvq_common::{FrameObjects, WindowSpec};
use tvq_core::MaintainerKind;
use tvq_engine::{EngineConfig, FrameResult, TemporalVideoQueryEngine};
use tvq_testkit::classed_feed;

/// Runs a fresh engine over the feed and collects every frame's result.
fn run_engine(
    config: EngineConfig,
    queries: &[&str],
    feed: &[FrameObjects],
) -> (Vec<FrameResult>, &'static str) {
    let mut builder = TemporalVideoQueryEngine::builder(config);
    for text in queries {
        builder = builder.with_query_text(text).unwrap();
    }
    let mut engine = builder.build().unwrap();
    let results = feed
        .iter()
        .map(|frame| engine.observe(frame).unwrap())
        .collect();
    (results, engine.strategy())
}

/// The oracle: NAIVE maintenance, no pruning.
fn naive_oracle(window: WindowSpec, queries: &[&str], feed: &[FrameObjects]) -> Vec<FrameResult> {
    let config = EngineConfig::new(window)
        .with_maintainer(MaintainerKind::Naive)
        .with_pruning(false);
    run_engine(config, queries, feed).0
}

fn assert_engine_matches_oracle(
    window: WindowSpec,
    queries: &[&str],
    feed: &[FrameObjects],
    config: EngineConfig,
) {
    let expected = naive_oracle(window, queries, feed);
    let (got, strategy) = run_engine(config, queries, feed);
    assert_eq!(expected.len(), got.len());
    for (e, g) in expected.iter().zip(&got) {
        assert_eq!(
            e,
            g,
            "strategy {strategy} disagrees with the naive-engine oracle at frame {} \
             (w={}, d={}, queries {queries:?})",
            e.frame,
            window.window(),
            window.duration(),
        );
    }
}

// person = class 0, car = class 1 in the default registry; classed_feed
// assigns class id % 2, so even object ids are people and odd ids are cars.
const WORKLOADS: [&[&str]; 3] = [
    &["car >= 1 AND person >= 1"],
    &["person >= 2", "car >= 2"],
    &["(car >= 2 OR person >= 2) AND person >= 1"],
];

#[test]
fn engines_agree_with_the_naive_oracle_across_strategies_and_pruning() {
    for seed in 0..4u64 {
        let feed = classed_feed(seed, 40, 6, 0.25, 2);
        let window = WindowSpec::new(5, 3).unwrap();
        for queries in WORKLOADS {
            for kind in [MaintainerKind::Mfs, MaintainerKind::Ssg] {
                for pruning in [false, true] {
                    let config = EngineConfig::new(window)
                        .with_maintainer(kind)
                        .with_pruning(pruning);
                    assert_engine_matches_oracle(window, queries, &feed, config);
                }
            }
        }
    }
}

#[test]
fn engines_agree_with_the_naive_oracle_under_heavy_occlusion() {
    for seed in 300..303u64 {
        let feed = classed_feed(seed, 30, 5, 0.5, 2);
        let window = WindowSpec::new(6, 2).unwrap();
        let config = EngineConfig::new(window).with_maintainer(MaintainerKind::Ssg);
        assert_engine_matches_oracle(window, &["car >= 1 AND person >= 1"], &feed, config);
    }
}

#[test]
fn pruned_strategies_report_their_name_and_stay_equivalent() {
    let feed = classed_feed(11, 35, 6, 0.3, 2);
    let window = WindowSpec::new(5, 3).unwrap();
    let queries: &[&str] = &["car >= 1 AND person >= 1"];
    for (kind, expected_strategy) in [
        (MaintainerKind::Ssg, "SSG_O"),
        (MaintainerKind::Mfs, "MFS_O"),
    ] {
        let config = EngineConfig::new(window).with_maintainer(kind);
        let expected = naive_oracle(window, queries, &feed);
        let (got, strategy) = run_engine(config, queries, &feed);
        assert_eq!(strategy, expected_strategy);
        assert_eq!(
            expected, got,
            "engine ({strategy}) diverged from the oracle"
        );
    }
}

#[test]
fn default_config_runs_mfs_and_matches_the_oracle() {
    let feed = classed_feed(13, 20, 5, 0.2, 2);
    let window = WindowSpec::new(4, 2).unwrap();
    let config = EngineConfig::new(window).with_pruning(false);
    let (got, strategy) = run_engine(config, &["person >= 1"], &feed);
    assert_eq!(strategy, "MFS");
    let expected = naive_oracle(window, &["person >= 1"], &feed);
    assert_eq!(expected, got);
}
