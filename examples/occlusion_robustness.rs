//! Occlusion robustness: why the duration parameter `d` exists.
//!
//! The paper's query semantics deliberately require an MCOS to appear in
//! only `d` of the last `w` frames, because real trackers lose objects
//! behind occlusions. This example generates the same pedestrian-heavy feed
//! (an M2-like profile, 400 frames) with increasing amounts of artificial
//! occlusion (the `po` id-reuse parameter of Section 6.2 / Figure 7) and
//! prints, per `po`, the frames matching a strict (`d = w`) and a tolerant
//! (`d = 0.8 w`) query, and the MFS maintainer's peak live states. It shows
//! that
//!
//! * the tolerant query matches in well over twice as many frames as the
//!   strict one;
//! * matching frames do not move with `po`: `person >= 2` is met by any two
//!   pedestrians, whatever ids the tracker gives them;
//! * the states the maintainer manages grow once occlusion appears — the
//!   effect Figure 7 measures.
//!
//! Run with:
//! ```text
//! cargo run --release --example occlusion_robustness
//! ```

use tvq_common::{DatasetStats, QueryId, WindowSpec};
use tvq_core::MaintainerKind;
use tvq_engine::{EngineConfig, TemporalVideoQueryEngine};
use tvq_query::parse_query;
use tvq_video::{generate_with_id_reuse, DatasetProfile};

fn main() {
    let profile = DatasetProfile::m2().truncated(400);
    let mut registry = tvq_common::ClassRegistry::with_default_classes();
    let query = parse_query("person >= 2", QueryId(0), &mut registry).expect("query parses");

    println!("query: person >= 2 (two pedestrians jointly visible)");
    println!();
    println!("po | occ/obj | duration        | matching frames | peak states (MFS)");
    println!("---+---------+-----------------+-----------------+------------------");

    let window = 20;
    for po in 0..=3u32 {
        let relation = generate_with_id_reuse(&profile, po, 11);
        let stats = DatasetStats::of(&relation);
        for (label, duration) in [("strict d=w", window), ("tolerant d=0.8w", window * 8 / 10)] {
            let spec = WindowSpec::new(window, duration).expect("valid window");
            let config = EngineConfig::new(spec)
                .with_maintainer(MaintainerKind::Mfs)
                .with_pruning(false);
            let mut engine = TemporalVideoQueryEngine::builder(config)
                .with_registry(registry.clone())
                .with_query(query.clone())
                .build()
                .expect("engine builds");
            let mut matching_frames = 0;
            for frame in relation.frames() {
                if engine.observe(frame).expect("in-order frames").any() {
                    matching_frames += 1;
                }
            }
            println!(
                "{po:2} | {:7.2} | {label:15} | {matching_frames:15} | {:17}",
                stats.occlusions_per_object,
                engine.metrics().peak_live_states
            );
        }
    }

    println!();
    println!(
        "Reading: the tolerant duration threshold matches in far more frames than\n\
         the strict one at every po. Occlusion does not change how many frames match,\n\
         because any two pedestrians satisfy person >= 2, but it does raise the\n\
         peak number of states the maintainer has to manage — the effect Figure 7\n\
         quantifies for NAIVE, MFS and SSG."
    );
}
