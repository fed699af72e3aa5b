//! End-to-end runs with timing breakdowns.
//!
//! A helper for two examples (`occlusion_robustness`,
//! `traffic_monitoring`) and `tests/end_to_end.rs`: run a query workload over
//! a structured relation with a given MCOS-generation strategy and report
//! how long the run took. The `repro` driver and `tvq-perf` time the engine
//! themselves and do not use it.

use std::time::{Duration, Instant};

use tvq_common::{Result, VideoRelation, WindowSpec};
use tvq_core::{MaintainerKind, MaintenanceMetrics};
use tvq_query::CnfQuery;

use crate::config::EngineConfig;
use crate::engine::TemporalVideoQueryEngine;

/// Timing and outcome of one end-to-end run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Strategy actually used (e.g. `"MFS"`, `"SSG_O"`).
    pub strategy: String,
    /// Number of frames processed.
    pub frames: usize,
    /// Total wall-clock time spent in MCOS generation and query evaluation.
    pub elapsed: Duration,
    /// Total number of query matches across all frames.
    pub total_matches: usize,
    /// Number of frames with at least one match.
    pub matching_frames: usize,
    /// Maintainer work counters.
    pub metrics: MaintenanceMetrics,
}

impl RunReport {
    /// Average processing time per frame.
    pub fn per_frame(&self) -> Duration {
        if self.frames == 0 {
            Duration::ZERO
        } else {
            self.elapsed / self.frames as u32
        }
    }
}

/// Runs a query workload over a relation with the given strategy and window,
/// measuring MCOS generation + query evaluation time (the quantity plotted in
/// Figures 4-9).
pub fn run_workload(
    relation: &VideoRelation,
    queries: &[CnfQuery],
    window: WindowSpec,
    kind: MaintainerKind,
    pruning: bool,
) -> Result<RunReport> {
    let config = EngineConfig::new(window)
        .with_maintainer(kind)
        .with_pruning(pruning);
    let mut builder =
        TemporalVideoQueryEngine::builder(config).with_registry(relation.registry().clone());
    for query in queries {
        builder = builder.with_query(query.clone());
    }
    let mut engine = builder.build()?;

    let start = Instant::now();
    let mut total_matches = 0usize;
    let mut matching_frames = 0usize;
    for frame in relation.frames() {
        let result = engine.observe(frame)?;
        if result.any() {
            matching_frames += 1;
        }
        total_matches += result.matches.len();
    }
    let elapsed = start.elapsed();
    Ok(RunReport {
        strategy: engine.strategy().to_owned(),
        frames: relation.num_frames(),
        elapsed,
        total_matches,
        matching_frames,
        metrics: engine.metrics(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvq_common::{ClassId, QueryId};
    use tvq_query::Condition;
    use tvq_video::{generate, DatasetProfile};

    #[test]
    fn run_workload_reports_consistent_counts() {
        let relation = generate(&DatasetProfile::m2().truncated(150), 5);
        let queries = vec![CnfQuery::conjunction(
            QueryId(0),
            vec![Condition::at_least(ClassId(0), 2)],
        )];
        let window = WindowSpec::new(30, 20).unwrap();
        let report = run_workload(&relation, &queries, window, MaintainerKind::Ssg, false).unwrap();
        assert_eq!(report.frames, 150);
        assert_eq!(report.strategy, "SSG");
        assert!(report.matching_frames <= report.frames);
        assert!(report.total_matches >= report.matching_frames);
        assert!(report.metrics.frames_processed == 150);
        assert!(report.per_frame() <= report.elapsed);
    }

    #[test]
    fn all_strategies_agree_on_matching_frames() {
        let relation = generate(&DatasetProfile::d1().truncated(120), 9);
        let queries = vec![
            CnfQuery::conjunction(QueryId(0), vec![Condition::at_least(ClassId(1), 3)]),
            CnfQuery::conjunction(
                QueryId(1),
                vec![
                    Condition::at_least(ClassId(1), 2),
                    Condition::at_least(ClassId(0), 1),
                ],
            ),
        ];
        let window = WindowSpec::new(25, 15).unwrap();
        let reports: Vec<RunReport> = MaintainerKind::PRODUCTION
            .iter()
            .map(|&kind| run_workload(&relation, &queries, window, kind, false).unwrap())
            .collect();
        assert_eq!(reports[0].matching_frames, reports[1].matching_frames);
        assert_eq!(reports[1].matching_frames, reports[2].matching_frames);
        assert_eq!(reports[0].total_matches, reports[1].total_matches);
        assert_eq!(reports[1].total_matches, reports[2].total_matches);
    }

    #[test]
    fn pruning_does_not_change_results_but_reduces_states() {
        let relation = generate(&DatasetProfile::d2().truncated(120), 4);
        let queries = vec![CnfQuery::conjunction(
            QueryId(0),
            vec![Condition::at_least(ClassId(1), 6)],
        )];
        let window = WindowSpec::new(25, 15).unwrap();
        let unpruned =
            run_workload(&relation, &queries, window, MaintainerKind::Ssg, false).unwrap();
        let pruned = run_workload(&relation, &queries, window, MaintainerKind::Ssg, true).unwrap();
        assert_eq!(unpruned.total_matches, pruned.total_matches);
        assert_eq!(unpruned.matching_frames, pruned.matching_frames);
        assert!(pruned.metrics.states_terminated > 0);
        assert!(pruned.metrics.peak_live_states <= unpruned.metrics.peak_live_states);
    }
}
