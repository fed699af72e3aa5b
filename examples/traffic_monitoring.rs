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

use tvq_common::{DatasetStats, QueryId, WindowSpec};
use tvq_core::MaintainerKind;
use tvq_engine::run_workload;
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
        let report = run_workload(&relation, &queries, window, kind, false).expect("workload runs");
        println!(
            "{:6} | {:>10.2?} | {:>9.1?} | {:7} | {:14} | {:13}",
            report.strategy,
            report.elapsed,
            report.per_frame(),
            report.total_matches,
            report.metrics.states_created,
            report.metrics.states_pruned
        );
    }
}
