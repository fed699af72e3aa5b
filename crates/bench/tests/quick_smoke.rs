//! Smoke tests for the reproduction experiments: every paper row of the
//! experiment table must, at `--quick` scale, produce non-empty series with
//! finite, non-negative timings (or, for Table 6, a complete table), and the
//! `repro` binary must list exactly the table's names.
//!
//! One test per experiment so the suite parallelises across the figure set;
//! each resolves its experiment through the table by name, as `repro` does.

use std::process::Command;

use tvq_bench::experiments::{self, Experiment, Output, Run, EXPERIMENTS, FIG9_METHODS};
use tvq_bench::{format_table, Scale, Series};

fn lookup(name: &str) -> &'static Experiment {
    experiments::find(name).unwrap_or_else(|| panic!("{name} not in the table"))
}

fn run_quick(name: &str) -> Output {
    let experiment = lookup(name);
    let output = experiment.run(Scale::Quick);
    assert!(output.text.starts_with(experiment.title), "{name}: title");
    assert!(output.gates.is_empty(), "{name}: paper rows carry no gates");
    output
}

/// Runs a figure through its row's figure function and asserts the common
/// shape of its result: at least one group (Figure 10's one table is the
/// group `all`), the expected methods per group, and every point finite.
fn figure_rows(figure: &str, expected_methods: &[&str]) -> Vec<(String, Vec<Series>)> {
    let experiment = lookup(figure);
    let (results, text) = match experiment.run {
        Run::PerDataset(run) => {
            let groups = run(Scale::Quick);
            let text = experiments::render(experiment.title, experiment.x_label, &groups);
            (groups, text)
        }
        Run::Flat(run) => {
            let series = run(Scale::Quick);
            let text = format_table(experiment.title, experiment.x_label, &series);
            (vec![("all".to_owned(), series)], text)
        }
        _ => panic!("{figure} is not a figure"),
    };
    assert!(text.starts_with(experiment.title), "{figure}: title");
    assert!(
        !experiment.has_gates(),
        "{figure}: paper rows carry no gates"
    );
    assert!(!results.is_empty(), "{figure}: no datasets");
    for (dataset, series) in &results {
        let methods: Vec<&str> = series.iter().map(|s| s.method.as_str()).collect();
        assert_eq!(
            methods, expected_methods,
            "{figure}/{dataset}: unexpected method set"
        );
        for s in series {
            assert!(
                !s.points.is_empty(),
                "{figure}/{dataset}/{}: no data points",
                s.method
            );
            for (x, seconds) in &s.points {
                assert!(
                    seconds.is_finite() && *seconds >= 0.0,
                    "{figure}/{dataset}/{}: non-finite timing at x={x}: {seconds}",
                    s.method
                );
            }
        }
    }
    results
}

const MCOS_METHODS: [&str; 3] = ["NAIVE", "MFS", "SSG"];
const DATASETS: [&str; 6] = ["V1", "V2", "D1", "D2", "M1", "M2"];

#[test]
fn repro_list_matches_the_table_and_typos_exit_2() {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    let mut unique = names.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "duplicate names in {names:?}");

    let listed = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("list")
        .output()
        .expect("repro runs");
    assert!(listed.status.success());
    let stdout = String::from_utf8(listed.stdout).expect("utf-8 listing");
    let listed: Vec<&str> = stdout
        .lines()
        .map(|line| line.split_whitespace().next().expect("name column"))
        .collect();
    assert_eq!(listed, names);

    // A typo'd flag is a usage error, not a paper-scale run.
    let typo = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table6", "--quik"])
        .output()
        .expect("repro runs");
    assert_eq!(typo.status.code(), Some(2));
    assert!(
        typo.stdout.is_empty(),
        "a rejected command line ran something"
    );
}

#[test]
fn table6_quick_reports_every_dataset_row() {
    let table = run_quick("table6").text;
    for name in DATASETS {
        let row = table
            .lines()
            .find(|line| line.starts_with(name))
            .unwrap_or_else(|| panic!("missing row for {name} in:\n{table}"));
        // Every numeric cell of the row must parse as a finite number.
        let numbers: Vec<f64> = row
            .split(['|', '/'])
            .skip(1)
            .map(|cell| cell.trim().parse::<f64>().expect("numeric cell"))
            .collect();
        assert_eq!(numbers.len(), 10, "row {name} incomplete: {row}");
        assert!(numbers.iter().all(|n| n.is_finite() && *n >= 0.0));
    }
}

#[test]
fn fig4_quick_produces_finite_series() {
    figure_rows("fig4", &MCOS_METHODS);
}

#[test]
fn fig5_quick_produces_finite_series() {
    figure_rows("fig5", &MCOS_METHODS);
}

#[test]
fn fig6_quick_produces_finite_series() {
    figure_rows("fig6", &MCOS_METHODS);
}

#[test]
fn fig7_quick_produces_finite_series() {
    // The x axis is the id-reuse parameter po = 0..=3.
    for (dataset, series) in figure_rows("fig7", &MCOS_METHODS) {
        for s in series {
            let xs: Vec<&str> = s.points.iter().map(|(x, _)| x.as_str()).collect();
            assert_eq!(xs, ["0", "1", "2", "3"], "fig7/{dataset}/{}", s.method);
        }
    }
}

#[test]
fn fig8_quick_produces_finite_series() {
    figure_rows("fig8", &MCOS_METHODS);
}

#[test]
fn fig9_quick_produces_finite_series_for_all_five_variants() {
    let expected: Vec<&str> = FIG9_METHODS.iter().map(|&(name, _)| name).collect();
    figure_rows("fig9", &expected);
}

#[test]
fn fig10_quick_produces_finite_per_dataset_averages() {
    let results = figure_rows("fig10", &MCOS_METHODS);
    assert_eq!(results.len(), 1, "Figure 10 is one table");
    for s in &results[0].1 {
        let datasets: Vec<&str> = s.points.iter().map(|(x, _)| x.as_str()).collect();
        assert_eq!(datasets, DATASETS, "{}", s.method);
    }
}
