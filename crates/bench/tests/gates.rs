//! The deterministic halves of the scenario gates, as tier-1 assertions.
//!
//! `repro long_churn | id_reuse | skew` print these verdicts as `gate OK` /
//! `gate FAIL` lines; here the same `experiments::*` functions run at
//! `Scale::Quick` and the verdicts are asserted, so a regression fails
//! `cargo test` instead of only a CI smoke job. Everything asserted is an
//! exact count — identical on every run and machine. The timing-derived skew
//! checks (schedule parallelism ≥ 1.5, wall-clock speedup) stay with the
//! driver.
//!
//! One test per scenario so they run in parallel.

use tvq_bench::experiments;
use tvq_bench::Scale;

#[test]
fn long_churn_arena_plateaus_under_compaction() {
    let runs = experiments::long_churn(Scale::Quick);
    let methods: Vec<&str> = runs.iter().map(|run| run.timing.method.as_str()).collect();
    assert_eq!(methods, ["MFS/off", "MFS/on", "SSG/off", "SSG/on"]);
    for run in &runs {
        let method = &run.timing.method;
        assert_eq!(
            run.passes_interner_gate(),
            run.enabled(),
            "{method}: peak interner {} B (index + bitmaps) vs first-epoch ceiling {:?} ({} epochs)",
            run.peak_bytes,
            run.first_epoch_ceiling,
            run.timing.metrics.compactions
        );
    }
}

#[test]
fn id_reuse_engine_memory_plateaus_and_the_baseline_outgrows_it() {
    let runs = experiments::id_reuse(Scale::Quick);
    let methods: Vec<&str> = runs.iter().map(|run| run.timing.method.as_str()).collect();
    assert_eq!(methods, ["MFS/off", "MFS/on", "SSG/off", "SSG/on"]);
    for run in &runs {
        let method = &run.timing.method;
        assert_eq!(
            run.passes_engine_memory_gate(),
            run.enabled(),
            "{method}: peak engine {} B vs first-retirement ceiling {:?} over {} epochs",
            run.peak_bytes,
            run.first_epoch_ceiling,
            run.timing.metrics.compactions
        );
    }
    assert_eq!(
        experiments::baseline_outgrows(&runs),
        [("MFS".to_owned(), true), ("SSG".to_owned(), true)]
    );
}

#[test]
fn skew_placement_never_changes_results() {
    let runs = experiments::skew(Scale::Quick);
    let methods: Vec<&str> = runs.iter().map(|run| run.timing.method.as_str()).collect();
    assert_eq!(methods, ["1w", "4w"]);
    let verdict = experiments::skew_verdict(&runs);
    assert!(
        verdict.identical_transcripts,
        "transcripts differ: {:x?}",
        runs.iter().map(|run| run.transcript).collect::<Vec<_>>()
    );
    assert_eq!(runs[0].matches, runs[1].matches);
    // Every merged work counter agrees too; only the share depth depends
    // on the worker count.
    let mut four = runs[1].timing.metrics.clone();
    four.per_shard_queue_depth = runs[0].timing.metrics.per_shard_queue_depth;
    assert_eq!(four, runs[0].timing.metrics);
}
