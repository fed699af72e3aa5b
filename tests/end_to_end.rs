//! End-to-end integration: a feed → MCOS generation → CNF query evaluation,
//! across crates.

use tvq_common::{ClassId, FrameObjects, ObjectId, QueryId, WindowSpec};
use tvq_core::MaintainerKind;
use tvq_engine::{EngineConfig, TemporalVideoQueryEngine};
use tvq_video::{generate, DatasetProfile};

const PERSON: ClassId = ClassId(0);
const CAR: ClassId = ClassId(1);

/// 600 frames of D1-shaped background with a planted co-occurrence: a car
/// (frames 200..420) and two people (frames 210..410) together, each person
/// briefly occluded inside the window.
fn staged_feed() -> Vec<FrameObjects> {
    let background = generate(&DatasetProfile::d1().truncated(600), 77);
    let suspect_car = ObjectId(10_000);
    // (id, frames in which the tracker loses the person)
    let suspects = [
        (ObjectId(10_001), 260..268u64),
        (ObjectId(10_002), 330..336),
    ];
    background
        .frames()
        .map(|frame| {
            let fid = frame.fid.raw();
            // Background is vehicles only, so that only the planted people can
            // satisfy the "two people" part of the query.
            let mut detections = frame.classes.clone();
            detections.retain(|&(_, class)| class != PERSON);
            if (200..420).contains(&fid) {
                detections.push((suspect_car, CAR));
            }
            for (person, occluded) in &suspects {
                if (210..410).contains(&fid) && !occluded.contains(&fid) {
                    detections.push((*person, PERSON));
                }
            }
            FrameObjects::new(frame.fid, detections)
        })
        .collect()
}

#[test]
fn planted_incident_is_found_by_every_strategy() {
    let feed = staged_feed();
    assert!(feed.len() == 600);

    for kind in MaintainerKind::PRODUCTION {
        let mut engine = TemporalVideoQueryEngine::builder(
            EngineConfig::new(WindowSpec::new(90, 60).unwrap()).with_maintainer(kind),
        )
        .with_query_text("car >= 1 AND person >= 2")
        .unwrap()
        .build()
        .unwrap();

        let mut matching_frames: Vec<u64> = Vec::new();
        for frame in &feed {
            if engine.observe(frame).unwrap().any() {
                matching_frames.push(frame.fid.raw());
            }
        }
        assert!(
            !matching_frames.is_empty(),
            "{kind:?} found no match for the planted incident"
        );
        // Matches must fall inside (a window-length of) the planted interval.
        assert!(
            matching_frames.iter().all(|&f| (200..=500).contains(&f)),
            "{kind:?} matched outside the planted interval: {matching_frames:?}"
        );
    }
}

#[test]
fn strategies_agree_end_to_end_on_a_profile_feed() {
    let relation = generate(&DatasetProfile::d1().truncated(200), 21);
    let mut registry = relation.registry().clone();
    let queries: Vec<_> = ["car >= 4", "car >= 2 AND person >= 1", "truck >= 1"]
        .iter()
        .enumerate()
        .map(|(i, text)| tvq_query::parse_query(text, QueryId(i as u32), &mut registry).unwrap())
        .collect();
    let window = WindowSpec::new(40, 25).unwrap();

    // Per strategy: (total matches, matching frames, peak live states).
    let runs: Vec<(usize, usize, u64)> = MaintainerKind::PRODUCTION
        .iter()
        .map(|&kind| {
            let mut builder = TemporalVideoQueryEngine::builder(
                EngineConfig::new(window)
                    .with_maintainer(kind)
                    .with_pruning(false),
            )
            .with_registry(registry.clone());
            for query in &queries {
                builder = builder.with_query(query.clone());
            }
            let mut engine = builder.build().unwrap();
            let (mut total_matches, mut matching_frames) = (0, 0);
            for frame in relation.frames() {
                let result = engine.observe(frame).unwrap();
                total_matches += result.matches.len();
                matching_frames += usize::from(result.any());
            }
            (
                total_matches,
                matching_frames,
                engine.metrics().peak_live_states,
            )
        })
        .collect();
    for pair in runs.windows(2) {
        assert_eq!(pair[0].0, pair[1].0);
        assert_eq!(pair[0].1, pair[1].1);
    }
    // MFS and SSG must not manage more states than NAIVE.
    assert!(runs[1].2 <= runs[0].2);
    assert!(runs[2].2 <= runs[0].2);
}
