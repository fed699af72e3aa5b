//! Measurement and reporting utilities shared by all experiments.

use std::time::Instant;

use tvq_common::{VideoRelation, WindowSpec};
use tvq_core::{MaintainerKind, MaintenanceMetrics, SharedPruner};
use tvq_query::{evaluate_result_set, CnfEvaluator};

/// Experiment scale: the paper's configuration or a reduced one for smoke
/// runs and CI.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The paper's parameters (full feeds, w = 300, d = 240).
    Paper,
    /// Reduced feeds and windows; finishes in seconds and preserves the
    /// qualitative comparison.
    Quick,
}

impl Scale {
    /// Scales a frame count.
    pub fn frames(&self, paper_frames: usize) -> usize {
        match self {
            Scale::Paper => paper_frames,
            Scale::Quick => (paper_frames / 6).max(120),
        }
    }

    /// Scales a window specification.
    pub fn window(&self, paper: WindowSpec) -> WindowSpec {
        match self {
            Scale::Paper => paper,
            Scale::Quick => {
                WindowSpec::new((paper.window() / 6).max(20), (paper.duration() / 6).max(10))
                    .expect("scaled window is valid")
            }
        }
    }
}

/// One measured series: a method name and its `(x, seconds)` points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Method name (NAIVE, MFS, SSG, MFS_O, ...).
    pub method: String,
    /// `(x value, seconds)` points.
    pub points: Vec<(String, f64)>,
}

/// One run of a beyond-the-paper scenario: the row its table prints and the
/// input its gates judge.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintainerTiming {
    /// Method name (`MFS/on`, `rebalance/4w`, ...).
    pub method: String,
    /// Wall-clock seconds spent ingesting the workload.
    pub seconds: f64,
    /// Frames ingested.
    pub frames: u64,
    /// The engine's work counters after the run.
    pub metrics: MaintenanceMetrics,
}

impl MaintainerTiming {
    /// Ingestion throughput in frames per second.
    pub fn frames_per_sec(&self) -> f64 {
        if self.seconds > 0.0 {
            self.frames as f64 / self.seconds
        } else {
            0.0
        }
    }
}

/// Measures MCOS generation only (the measurement behind Figures 4-7):
/// every frame of the relation is pushed through a fresh maintainer of the
/// given kind. Returns the wall-clock seconds of the ingestion loop.
pub fn measure_mcos_generation(
    relation: &VideoRelation,
    spec: WindowSpec,
    kind: MaintainerKind,
) -> f64 {
    let mut maintainer = kind.build(spec);
    let start = Instant::now();
    for frame in relation.frames() {
        maintainer
            .advance(frame.fid, &frame.objects)
            .expect("frames arrive in order");
    }
    start.elapsed().as_secs_f64()
}

/// Measures MCOS generation plus CNF evaluation over the Result State Set of
/// every window (the measurement behind Figures 8 and 9), in wall-clock
/// seconds. When a pruner is supplied the maintainer runs in its `_O`
/// variant (Section 5.3).
pub fn measure_query_evaluation(
    relation: &VideoRelation,
    spec: WindowSpec,
    kind: MaintainerKind,
    evaluator: &CnfEvaluator,
    pruner: Option<SharedPruner>,
) -> f64 {
    let mut maintainer = match pruner {
        Some(pruner) => kind.build_with_pruner(spec, pruner),
        None => kind.build(spec),
    };
    let classes = relation.object_classes();
    let start = Instant::now();
    let mut matches = 0usize;
    for frame in relation.frames() {
        maintainer
            .advance(frame.fid, &frame.objects)
            .expect("frames arrive in order");
        matches += evaluate_result_set(evaluator, maintainer.results(), classes).len();
    }
    let seconds = start.elapsed().as_secs_f64();
    std::hint::black_box(matches);
    seconds
}

/// Renders an aligned text table: the title, one right-aligned header per
/// `(label, width)` column, a rule spanning the table, then one line per
/// row. The one renderer behind every table `repro` prints.
pub(crate) fn text_table(title: &str, columns: &[(&str, usize)], rows: &[Vec<String>]) -> String {
    let line = |cells: Vec<&str>| {
        let cells: Vec<String> = (cells.iter().zip(columns))
            .map(|(cell, &(_, width))| format!("{cell:>width$}"))
            .collect();
        cells.join(" ")
    };
    let header = line(columns.iter().map(|&(label, _)| label).collect());
    let rule = "-".repeat(header.chars().count());
    let mut out = format!("{title}\n{header}\n{rule}\n");
    for row in rows {
        out.push_str(&line(row.iter().map(String::as_str).collect()));
        out.push('\n');
    }
    out
}

/// Formats series as an aligned text table with one row per x value and one
/// column per method, mirroring the layout of the paper's figures.
pub fn format_table(title: &str, x_label: &str, series: &[Series]) -> String {
    let columns: Vec<(&str, usize)> = std::iter::once(x_label)
        .chain(series.iter().map(|s| s.method.as_str()))
        .map(|label| (label, 12))
        .collect();
    let xs = series.first().map_or(&[][..], |s| &s.points[..]);
    let rows: Vec<Vec<String>> = (xs.iter().enumerate())
        .map(|(row, (x, _))| {
            let values = series.iter().map(|s| {
                let value = s.points.get(row).map_or(f64::NAN, |&(_, v)| v);
                format!("{value:.3}s")
            });
            std::iter::once(x.clone()).chain(values).collect()
        })
        .collect();
    text_table(title, &columns, &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvq_video::{generate, DatasetProfile};

    #[test]
    fn quick_scale_shrinks_parameters() {
        let scale = Scale::Quick;
        assert_eq!(scale.frames(1800), 300);
        let spec = scale.window(WindowSpec::paper_default());
        assert_eq!(spec.window(), 50);
        assert_eq!(spec.duration(), 40);
        assert_eq!(Scale::Paper.frames(1800), 1800);
    }

    #[test]
    fn timing_helpers_run_and_return_nonzero_durations() {
        let relation = generate(&DatasetProfile::v1().truncated(120), 1);
        let spec = WindowSpec::new(20, 12).unwrap();
        assert!(measure_mcos_generation(&relation, spec, MaintainerKind::Mfs) > 0.0);
        let evaluator = CnfEvaluator::new(tvq_query::generate_workload(
            &tvq_query::WorkloadConfig::figure_8(5),
            1,
        ));
        let seconds =
            measure_query_evaluation(&relation, spec, MaintainerKind::Ssg, &evaluator, None);
        assert!(seconds > 0.0);
    }

    #[test]
    fn zero_second_runs_report_zero_throughput() {
        let timing = MaintainerTiming {
            method: "MFS".into(),
            seconds: 0.0,
            frames: 10,
            metrics: MaintenanceMetrics::new(),
        };
        assert_eq!(timing.frames_per_sec(), 0.0);
    }

    #[test]
    fn table_formatting_is_aligned_and_complete() {
        let series = vec![
            Series {
                method: "NAIVE".into(),
                points: vec![("600".into(), 1.5), ("1200".into(), 3.0)],
            },
            Series {
                method: "SSG".into(),
                points: vec![("600".into(), 0.5), ("1200".into(), 1.0)],
            },
        ];
        let table = format_table("Figure X", "frames", &series);
        assert!(table.contains("Figure X"));
        assert!(table.contains("NAIVE"));
        assert!(table.contains("SSG"));
        assert!(table.contains("600"));
        assert!(table.contains("1.500s"));
        assert_eq!(table.lines().count(), 1 + 1 + 1 + 2);
    }
}
