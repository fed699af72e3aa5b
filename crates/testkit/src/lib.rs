//! Shared test harness for the differential suites.
//!
//! The differential tests pin the production MCOS maintainers (NAIVE, MFS,
//! SSG) to the brute-force reference oracle: after every frame of a feed,
//! every maintainer must report exactly the same satisfied MCOS with exactly
//! the same frame sets. This crate centralises the two ingredients those
//! tests share so that `tvq-core`, `tvq-query` and the top-level end-to-end
//! tests all exercise identical semantics:
//!
//! * **feed generators** — [`tracked_feed`] produces object-set sequences
//!   mimicking a tracked video feed (arrivals, persistence, occlusion,
//!   departures); [`classed_feed`] produces full `(id, class)` detections for
//!   engine-level tests;
//! * **oracle-equivalence assertions** — [`assert_all_equivalent`] (every
//!   production maintainer vs. the reference), [`assert_equivalent_with_pruner`]
//!   (the pruning `_O` variants vs. the reference filtered by the same
//!   pruner), and [`assert_multifeed_equals_single`] (the sharded multi-feed
//!   engine vs. N independent single-feed engines, frame-for-frame); the
//!   [`multi_feed_classed`] generator produces the decorrelated per-feed
//!   inputs those multi-feed tests run on.
//!
//! Results are compared as canonically sorted sets of
//! `(object set, frame set)` pairs, so failures are deterministic and the
//! mismatch report names the offending entries instead of dumping two whole
//! result sets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tvq_common::{ClassId, FeedId, FrameId, FrameObjects, ObjectId, ObjectSet, WindowSpec};
use tvq_core::{MaintainerKind, SharedPruner, StateMaintainer};
use tvq_engine::{
    EngineConfig, FeedFrame, MultiFeedConfig, MultiFeedEngine, TemporalVideoQueryEngine,
};
use tvq_video::{feed_seed, interleave, CameraFeed};

pub use tvq_video::{skewed_grid, SkewProfile};

/// A maintainer's results in canonical form: `(object set, frame set)` pairs
/// sorted by object set. [`tvq_core::ResultStateSet`] already iterates in
/// object-set order; sorting here keeps the comparison canonical even if a
/// future maintainer returns an unordered snapshot.
pub fn canonical_results(maintainer: &dyn StateMaintainer) -> Vec<(ObjectSet, Vec<FrameId>)> {
    let mut results: Vec<(ObjectSet, Vec<FrameId>)> = maintainer
        .results()
        .iter()
        .map(|(set, frames)| (set.clone(), frames.to_vec()))
        .collect();
    results.sort();
    results
}

/// Renders the difference between two canonical result sets: entries only the
/// reference has, entries only the subject has, and shared object sets whose
/// frame sets disagree.
fn describe_mismatch(
    expected: &[(ObjectSet, Vec<FrameId>)],
    got: &[(ObjectSet, Vec<FrameId>)],
) -> String {
    let mut out = String::new();
    for (set, frames) in expected {
        match got.iter().find(|(s, _)| s == set) {
            None => out.push_str(&format!("  missing {set:?} (frames {frames:?})\n")),
            Some((_, other)) if other != frames => out.push_str(&format!(
                "  frame sets differ for {set:?}: expected {frames:?}, got {other:?}\n"
            )),
            Some(_) => {}
        }
    }
    for (set, frames) in got {
        if !expected.iter().any(|(s, _)| s == set) {
            out.push_str(&format!("  unexpected {set:?} (frames {frames:?})\n"));
        }
    }
    out
}

/// Asserts that `subject`'s results equal `expected`, with a readable diff on
/// failure. The context is a closure so the (quadratic) frame-history dump is
/// only rendered when the comparison actually fails.
fn assert_results_match(
    expected: &[(ObjectSet, Vec<FrameId>)],
    subject: &dyn StateMaintainer,
    context: impl FnOnce() -> String,
) {
    let got = canonical_results(subject);
    if got != expected {
        panic!(
            "{} disagrees with the reference oracle {}\nexpected: {expected:?}\ngot: {got:?}\n{}",
            subject.name(),
            context(),
            describe_mismatch(expected, &got),
        );
    }
}

/// Runs every production maintainer plus the reference oracle over the same
/// frame sequence and asserts that the reported result object sets and their
/// frame sets are identical after every frame.
pub fn assert_all_equivalent(frames: &[ObjectSet], spec: WindowSpec) {
    let mut reference = MaintainerKind::Reference.build(spec);
    let mut others: Vec<Box<dyn StateMaintainer>> = MaintainerKind::PRODUCTION
        .iter()
        .map(|kind| kind.build(spec))
        .collect();

    for (i, objects) in frames.iter().enumerate() {
        let fid = FrameId(i as u64);
        reference.advance(fid, objects).unwrap();
        let expected = canonical_results(reference.as_ref());
        for maintainer in &mut others {
            maintainer.advance(fid, objects).unwrap();
            assert_results_match(&expected, maintainer.as_ref(), || {
                format!(
                    "at frame {i} (w={}, d={})\nframes so far: {:?}",
                    spec.window(),
                    spec.duration(),
                    &frames[..=i]
                )
            });
        }
    }
}

/// Runs the pruning-capable maintainers (MFS, SSG — the paper's `_O`
/// variants) with `pruner` attached and asserts, after every frame, that
/// their results equal the unpruned reference oracle's results *minus* the
/// states the pruner terminates.
///
/// This is exactly the guarantee a sound (downward-monotone) pruner gives:
/// termination may only suppress states that could never satisfy a query, so
/// every surviving reference state must still be reported, and nothing else.
pub fn assert_equivalent_with_pruner(frames: &[ObjectSet], spec: WindowSpec, pruner: SharedPruner) {
    let mut reference = MaintainerKind::Reference.build(spec);
    let mut pruned: Vec<Box<dyn StateMaintainer>> = [MaintainerKind::Mfs, MaintainerKind::Ssg]
        .iter()
        .map(|kind| kind.build_with_pruner(spec, pruner.clone()))
        .collect();

    for (i, objects) in frames.iter().enumerate() {
        let fid = FrameId(i as u64);
        reference.advance(fid, objects).unwrap();
        let expected: Vec<(ObjectSet, Vec<FrameId>)> = canonical_results(reference.as_ref())
            .into_iter()
            .filter(|(set, _)| !pruner.should_terminate(set))
            .collect();
        for maintainer in &mut pruned {
            maintainer.advance(fid, objects).unwrap();
            assert_results_match(&expected, maintainer.as_ref(), || {
                format!(
                    "under pruning at frame {i} (w={}, d={})\nframes so far: {:?}",
                    spec.window(),
                    spec.duration(),
                    &frames[..=i]
                )
            });
        }
    }
}

/// Generates a frame sequence mimicking a tracked video feed: objects enter,
/// persist for a while, occasionally get occluded, and leave.
pub fn tracked_feed(seed: u64, num_frames: usize, universe: u32, occlusion: f64) -> Vec<ObjectSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut active: Vec<(u32, usize)> = Vec::new(); // (object, remaining lifetime)
    let mut next_id = 0u32;
    let mut frames = Vec::with_capacity(num_frames);
    for _ in 0..num_frames {
        // Arrivals.
        while active.len() < universe as usize && rng.gen_bool(0.35) {
            let lifetime = rng.gen_range(2..=8);
            active.push((next_id % universe, lifetime));
            next_id += 1;
        }
        // Visible objects: active ones that are not occluded this frame.
        let visible: Vec<u32> = active
            .iter()
            .filter(|_| !rng.gen_bool(occlusion))
            .map(|&(id, _)| id)
            .collect();
        frames.push(ObjectSet::from_raw(visible));
        // Departures.
        for entry in &mut active {
            entry.1 -= 1;
        }
        active.retain(|&(_, life)| life > 0);
    }
    frames
}

/// Generates per-frame `(id, class)` detections for engine-level tests: the
/// same arrival/occlusion/departure dynamics as [`tracked_feed`], with each
/// object's class fixed to `id % num_classes` so class assignments are stable
/// across occlusions.
pub fn classed_feed(
    seed: u64,
    num_frames: usize,
    universe: u32,
    occlusion: f64,
    num_classes: u16,
) -> Vec<FrameObjects> {
    assert!(num_classes > 0, "at least one class is required");
    tracked_feed(seed, num_frames, universe, occlusion)
        .into_iter()
        .enumerate()
        .map(|(i, objects)| {
            FrameObjects::new(
                FrameId(i as u64),
                objects
                    .iter()
                    .map(|id| (id, ClassId(id.raw() as u16 % num_classes)))
                    .collect::<Vec<(ObjectId, ClassId)>>(),
            )
        })
        .collect()
}

/// Generates `num_feeds` classed feeds with per-feed seeds derived from
/// `seed` (same dynamics as [`classed_feed`], decorrelated across feeds).
pub fn multi_feed_classed(
    seed: u64,
    num_feeds: u32,
    num_frames: usize,
    universe: u32,
    occlusion: f64,
    num_classes: u16,
) -> Vec<CameraFeed> {
    (0..num_feeds)
        .map(|raw| {
            let feed = FeedId(raw);
            CameraFeed {
                feed,
                frames: classed_feed(
                    feed_seed(seed, feed),
                    num_frames,
                    universe,
                    occlusion,
                    num_classes,
                ),
            }
        })
        .collect()
}

/// Runs a sharded [`MultiFeedEngine`] and one independent single-feed
/// engine per feed over the same feeds, and asserts they agree
/// frame-for-frame and metric-for-metric.
///
/// The multi-feed engine ingests the feeds as round-robin batches of
/// `batch_size` tagged frames (the production ingestion shape); every
/// [`FeedFrameResult`](tvq_engine::FeedFrameResult) must equal the result
/// the feed's dedicated single-feed engine produces for the same frame, and
/// the final [`report`](MultiFeedEngine::report) must reproduce each
/// single engine's strategy, metrics and live-state count exactly, in
/// ascending feed-id order.
pub fn assert_multifeed_equals_single(
    feeds: &[CameraFeed],
    config: EngineConfig,
    queries: &[&str],
    workers: usize,
    batch_size: usize,
) {
    assert_multifeed_config_equals_single(
        feeds,
        MultiFeedConfig::new(config).with_workers(workers),
        queries,
        batch_size,
        false,
    );
}

/// [`assert_multifeed_equals_single`] with full control over the
/// [`MultiFeedConfig`] (rebalance cadence, steal threshold, class-store
/// sharing) plus an option to *force* a migration of every feed to a
/// rotating worker after every batch, with a query registered or cancelled
/// fleet-wide (and on every oracle) after every other one — the adversarial
/// schedule for the determinism-under-migration differential suite.
pub fn assert_multifeed_config_equals_single(
    feeds: &[CameraFeed],
    multi_config: MultiFeedConfig,
    queries: &[&str],
    batch_size: usize,
    force_migrations: bool,
) {
    let config = multi_config.engine;
    let build_single = || {
        let mut builder = TemporalVideoQueryEngine::builder(config);
        for query in queries {
            builder = builder.with_query_text(query).expect("query parses");
        }
        builder.build().expect("single-feed engine builds")
    };
    let mut singles: BTreeMap<FeedId, TemporalVideoQueryEngine> = feeds
        .iter()
        .map(|feed| (feed.feed, build_single()))
        .collect();

    let mut builder = MultiFeedEngine::builder(multi_config);
    for query in queries {
        builder = builder.with_query_text(query).expect("query parses");
    }
    let mut multi = builder.build().expect("multi-feed engine builds");
    let workers = multi.num_workers();
    // The query the adversarial schedule keeps adding and removing; every
    // second one is not `>=`-only, which also switches pruning off and on.
    let mut extra = None;

    for (round, batch) in interleave(feeds, batch_size).into_iter().enumerate() {
        let tagged: Vec<FeedFrame> = batch.into_iter().map(FeedFrame::from).collect();
        let results = multi.push_batch(&tagged).expect("batch is accepted");
        assert_eq!(results.len(), tagged.len());
        for (sent, got) in tagged.iter().zip(&results) {
            assert_eq!(got.feed, sent.feed, "result tagged with the wrong feed");
            let expected = singles
                .get_mut(&sent.feed)
                .expect("feed was registered")
                .observe(&sent.frame)
                .expect("single-feed engine accepts the frame");
            assert_eq!(
                got.result, expected,
                "sharded run diverged from the single-feed oracle at feed {} frame {} (workers={workers}, batch={batch_size})",
                sent.feed, sent.frame.fid
            );
        }
        if force_migrations {
            // Bounce every feed onto a rotating worker between batches:
            // migration must be invisible to results no matter how often
            // or where feeds move.
            for (offset, feed) in feeds.iter().enumerate() {
                let target = (round + offset) % workers;
                multi
                    .migrate_feed(feed.feed, target)
                    .expect("migration succeeds");
            }
            // Catalog ops land between the same two frames of every feed,
            // whichever worker ran its last share or runs its next.
            if round % 4 == 1 {
                let text = ["person >= 2", "car <= 1"][round / 4 % 2];
                let id = multi.add_query_text(text).expect("fleet-wide add");
                for single in singles.values_mut() {
                    assert_eq!(single.add_query_text(text).expect("oracle add"), id);
                }
                extra = Some(id);
            } else if round % 4 == 3 {
                let id = extra.take().expect("added two rounds ago");
                multi.remove_query(id).expect("fleet-wide remove");
                for single in singles.values_mut() {
                    single.remove_query(id).expect("oracle remove");
                }
            }
        }
    }

    let report = multi.report().expect("report is collected");
    assert_eq!(report.num_feeds(), feeds.len(), "report misses feeds");
    assert!(
        report.feeds.windows(2).all(|w| w[0].feed < w[1].feed),
        "report is not feed-id ordered"
    );
    for feed_report in &report.feeds {
        let single = &singles[&feed_report.feed];
        assert_eq!(
            feed_report.strategy,
            single.strategy(),
            "strategy mismatch for {}",
            feed_report.feed
        );
        assert_eq!(
            feed_report.metrics,
            single.metrics(),
            "metrics mismatch for {}",
            feed_report.feed
        );
        assert_eq!(
            feed_report.live_states,
            single.live_states(),
            "live-state mismatch for {}",
            feed_report.feed
        );
    }
    let mut merged = tvq_core::MaintenanceMetrics::merged(report.feeds.iter().map(|f| &f.metrics));
    // The scheduler-owned counters are injected fleet-wide by the report
    // (per-feed engines always carry them as zero).
    merged.per_shard_queue_depth = report.metrics.per_shard_queue_depth;
    merged.feeds_migrated = report.metrics.feeds_migrated;
    merged.rebalances = report.metrics.rebalances;
    assert_eq!(report.metrics, merged, "global metrics are not the merge");
    if force_migrations {
        assert!(
            report.metrics.feeds_migrated > 0,
            "forced migrations were not recorded"
        );
        assert!(report.catalog_version > 0, "no catalog op was interleaved");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvq_core::MinCardinalityPruner;

    #[test]
    fn tracked_feed_is_deterministic_and_bounded() {
        let a = tracked_feed(3, 25, 5, 0.2);
        let b = tracked_feed(3, 25, 5, 0.2);
        assert_eq!(a, b);
        assert_eq!(a.len(), 25);
        assert!(a.iter().all(|f| f.iter().all(|o| o.raw() < 5)));
        assert_ne!(a, tracked_feed(4, 25, 5, 0.2));
    }

    #[test]
    fn classed_feed_assigns_stable_classes() {
        let frames = classed_feed(9, 20, 6, 0.3, 2);
        assert_eq!(frames.len(), 20);
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(frame.fid, FrameId(i as u64));
            for &(id, class) in &frame.classes {
                assert_eq!(class, ClassId(id.raw() as u16 % 2));
            }
        }
    }

    #[test]
    fn canonical_results_are_sorted() {
        let spec = WindowSpec::new(3, 1).unwrap();
        let mut maintainer = MaintainerKind::Naive.build(spec);
        for (i, objects) in [
            ObjectSet::from_raw([3, 4]),
            ObjectSet::from_raw([1, 2]),
            ObjectSet::from_raw([2, 3]),
        ]
        .iter()
        .enumerate()
        {
            maintainer.advance(FrameId(i as u64), objects).unwrap();
        }
        let results = canonical_results(maintainer.as_ref());
        assert!(!results.is_empty());
        assert!(results.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn mismatch_description_names_the_differing_entries() {
        let expected = vec![
            (ObjectSet::from_raw([1]), vec![FrameId(0)]),
            (ObjectSet::from_raw([2]), vec![FrameId(1)]),
        ];
        let got = vec![
            (ObjectSet::from_raw([1]), vec![FrameId(0), FrameId(2)]),
            (ObjectSet::from_raw([3]), vec![FrameId(1)]),
        ];
        let report = describe_mismatch(&expected, &got);
        assert!(report.contains("frame sets differ"));
        assert!(report.contains("missing"));
        assert!(report.contains("unexpected"));
    }

    #[test]
    fn equivalence_assertions_accept_agreeing_runs() {
        let frames = tracked_feed(1, 20, 5, 0.25);
        let spec = WindowSpec::new(4, 2).unwrap();
        assert_all_equivalent(&frames, spec);
        let pruner: SharedPruner = std::sync::Arc::new(MinCardinalityPruner { min_objects: 2 });
        assert_equivalent_with_pruner(&frames, spec, pruner);
    }

    #[test]
    fn multi_feed_classed_is_deterministic_and_decorrelated() {
        let feeds = multi_feed_classed(7, 3, 15, 6, 0.2, 2);
        assert_eq!(feeds.len(), 3);
        assert_eq!(feeds, multi_feed_classed(7, 3, 15, 6, 0.2, 2));
        assert_ne!(feeds[0].frames, feeds[1].frames);
        for (index, feed) in feeds.iter().enumerate() {
            assert_eq!(feed.feed, FeedId(index as u32));
            assert_eq!(feed.frames.len(), 15);
        }
    }

    #[test]
    fn multifeed_assertion_accepts_an_agreeing_deployment() {
        let feeds = multi_feed_classed(3, 3, 18, 6, 0.25, 2);
        let config = EngineConfig::new(WindowSpec::new(5, 3).unwrap());
        assert_multifeed_equals_single(&feeds, config, &["car >= 1 AND person >= 1"], 2, 5);
    }
}
