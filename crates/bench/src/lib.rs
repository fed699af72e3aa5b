//! Benchmark harness reproducing the paper's evaluation section.
//!
//! Every table and figure of Section 6, and each beyond-the-paper scenario,
//! is one row of [`experiments::EXPERIMENTS`]; the single `repro` binary
//! runs rows by name (`repro list` prints them):
//!
//! | `repro <name>` | Experiment | Reproduces |
//! |----------------|------------|------------|
//! | `table6` | [`experiments::table6`] | Table 6 (dataset statistics) |
//! | `fig4` | [`experiments::fig4`] | Figure 4 (time vs #frames) |
//! | `fig5` | [`experiments::fig5`] | Figure 5 (time vs duration d) |
//! | `fig6` | [`experiments::fig6`] | Figure 6 (time vs window w) |
//! | `fig7` | [`experiments::fig7`] | Figure 7 (time vs occlusion po) |
//! | `fig8` | [`experiments::fig8`] | Figure 8 (time vs #queries) |
//! | `fig9` | [`experiments::fig9`] | Figure 9 (pruning vs n_min) |
//! | `fig10` | [`experiments::fig10`] | Figure 10 (end-to-end per query) |
//! | `long_churn` | [`experiments::long_churn`] | interner plateau under compaction (gated) |
//! | `id_reuse` | [`experiments::id_reuse`] | engine-memory plateau under retirement (gated) |
//! | `skew` | [`experiments::skew`] | per-batch placement on 1 vs 4 workers over a skewed grid (gated) |
//!
//! `--quick` runs a reduced-size configuration (shorter feeds, smaller
//! windows) that preserves the qualitative comparison while finishing in
//! seconds; the default mirrors the paper's parameters (w = 300, d = 240,
//! full feed lengths). An experiment prints its text tables and nothing
//! else. A gated scenario always prints its `gate OK` / `gate FAIL` lines
//! and any FAIL makes the process exit 1; the deterministic halves of the
//! gates are also tier-1 tests (`tests/gates.rs`). Timing numbers live in
//! `perf/` (`tvq-perf`), the repository's one benchmark.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod harness;

pub use harness::{
    format_table, measure_mcos_generation, measure_query_evaluation, MaintainerTiming, Scale,
    Series,
};
