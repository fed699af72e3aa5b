//! Surveillance scenario from the paper's introduction: after an incident,
//! witnesses report *a car and two people* seen together. Find every video
//! segment in which the same car and the same two people appear jointly for
//! at least 3 seconds (90 frames at 30 fps).
//!
//! The footage is scripted: background traffic and pedestrians from the
//! statistical generator (a V1-shaped feed), plus the suspects — a parked
//! car and two loitering people whom the tracker briefly loses behind
//! occlusions, which the duration threshold tolerates.
//!
//! Run with:
//! ```text
//! cargo run --example surveillance_incident
//! ```

use tvq_common::{ClassId, FrameObjects, ObjectId, WindowSpec};
use tvq_engine::{EngineConfig, TemporalVideoQueryEngine};
use tvq_video::{generate, DatasetProfile};

// The class ids of the default registry.
const PERSON: ClassId = ClassId(0);
const CAR: ClassId = ClassId(1);

/// 1,200 frames of background with the incident planted: the car is in view
/// over frames 280..720, the two people from frames 300 and 320 until 700,
/// each occluded for a few frames.
fn staged_feed() -> Vec<FrameObjects> {
    let background = generate(&DatasetProfile::v1().truncated(1200), 2024);
    let suspect_car = ObjectId(10_000);
    // (id, first frame in view, frames in which the tracker loses the person)
    let suspects = [
        (ObjectId(10_001), 300u64, 415..424u64),
        (ObjectId(10_002), 320, 560..566),
    ];
    background
        .frames()
        .map(|frame| {
            let fid = frame.fid.raw();
            let mut detections = frame.classes.clone();
            if (280..720).contains(&fid) {
                detections.push((suspect_car, CAR));
            }
            for (person, enters_at, occluded) in &suspects {
                if (*enters_at..700).contains(&fid) && !occluded.contains(&fid) {
                    detections.push((*person, PERSON));
                }
            }
            FrameObjects::new(frame.fid, detections)
        })
        .collect()
}

fn main() {
    // 1. The structured relation detection & tracking would deliver.
    let feed = staged_feed();
    let detections: usize = feed.iter().map(FrameObjects::len).sum();
    println!("footage: {} frames, {detections} detections", feed.len());

    // 2. The witness query: same car and same two people jointly for >= 90 of
    //    the last 120 frames (the duration threshold tolerates occlusions).
    let window = WindowSpec::new(120, 90).expect("valid window");
    let mut engine = TemporalVideoQueryEngine::builder(EngineConfig::new(window))
        .with_query_text("car >= 1 AND person >= 2")
        .expect("query parses")
        .build()
        .expect("engine builds");

    // 3. Stream the footage and collect matching segments (runs of frames
    //    with at least one match).
    let mut segments: Vec<(u64, u64)> = Vec::new();
    for frame in &feed {
        let result = engine.observe(frame).expect("in-order frames");
        if result.any() {
            let fid = frame.fid.raw();
            match segments.last_mut() {
                Some(last) if last.1 + 1 == fid => last.1 = fid,
                _ => segments.push((fid, fid)),
            }
        }
    }

    println!("strategy used: {}", engine.strategy());
    if segments.is_empty() {
        println!("no segment matched the witness description");
    } else {
        println!("segments where a car and two people appear jointly (>= 3 s):");
        for (start, end) in &segments {
            println!(
                "  frames {start:>5} - {end:>5}  ({:.1} s - {:.1} s at 30 fps)",
                *start as f64 / 30.0,
                *end as f64 / 30.0
            );
        }
    }
    println!(
        "maintenance: {} states created, {} pruned, peak {} live",
        engine.metrics().states_created,
        engine.metrics().states_pruned,
        engine.metrics().peak_live_states
    );
}
