//! Traffic monitoring over a Detrac-like feed.
//!
//! Generates a structured relation with the statistics of the paper's D2
//! dataset (dense traffic, static camera), registers several monitoring
//! queries, and compares the three MCOS-generation strategies end to end —
//! the same comparison behind Figure 10.
//!
//! Run with:
//! ```text
//! cargo run --release --example traffic_monitoring
//! ```

use std::time::Instant;

use tvq_common::{DatasetStats, QueryId, WindowSpec};
use tvq_core::MaintainerKind;
use tvq_engine::{EngineConfig, TemporalVideoQueryEngine};
use tvq_query::{parse_query, CnfQuery};
use tvq_video::{generate, DatasetProfile};

fn queries(registry: &mut tvq_common::ClassRegistry) -> Vec<CnfQuery> {
    let texts = [
        // Congestion: at least 8 vehicles sharing the road for 8 seconds.
        "car >= 8",
        // Heavy goods convoy: two trucks and a car travelling together.
        "truck >= 2 AND car >= 1",
        // Bus corridor usage together with pedestrians nearby.
        "bus >= 1 AND person >= 1",
        // A quiet road: at most two cars and nobody on foot.
        "car <= 2 AND person = 0",
    ];
    texts
        .iter()
        .enumerate()
        .map(|(i, text)| parse_query(text, QueryId(i as u32), registry).expect("query parses"))
        .collect()
}

fn main() {
    let profile = DatasetProfile::d2();
    let relation = generate(&profile, 42);
    let stats = DatasetStats::of(&relation);
    println!(
        "dataset {} (synthetic reproduction of Table 6 row)",
        profile.name
    );
    println!("  target:   {}", profile.target_stats());
    println!("  obtained: {stats}");
    println!();

    let mut registry = relation.registry().clone();
    let queries = queries(&mut registry);
    let window = WindowSpec::paper_default(); // w = 300 frames, d = 240 frames

    println!(
        "evaluating {} queries over {} frames (w={}, d={})",
        queries.len(),
        relation.num_frames(),
        window.window(),
        window.duration()
    );
    println!();
    println!("method | total time | per frame | matches | states created | states pruned");
    println!("-------+------------+-----------+---------+----------------+--------------");
    for kind in MaintainerKind::PRODUCTION {
        let config = EngineConfig::new(window)
            .with_maintainer(kind)
            .with_pruning(false);
        let mut builder = TemporalVideoQueryEngine::builder(config).with_registry(registry.clone());
        for query in &queries {
            builder = builder.with_query(query.clone());
        }
        let mut engine = builder.build().expect("engine builds");
        let start = Instant::now();
        let mut total_matches = 0;
        for frame in relation.frames() {
            total_matches += engine
                .observe(frame)
                .expect("in-order frames")
                .matches
                .len();
        }
        let elapsed = start.elapsed();
        let metrics = engine.metrics();
        println!(
            "{:6} | {:>10.2?} | {:>9.1?} | {:7} | {:14} | {:13}",
            engine.strategy(),
            elapsed,
            elapsed / relation.num_frames() as u32,
            total_matches,
            metrics.states_created,
            metrics.states_pruned
        );
    }
}
