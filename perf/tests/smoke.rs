//! The benchmark run as its users run it, at a tenth of the frames.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;
use json::Value;

const WORKLOADS: [&str; 5] = [
    "dense-embedded",
    "churn-embedded",
    "churn-durable",
    "grid-sharded",
    "server-live",
];

fn tvq_perf(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tvq-perf"))
        .args(args)
        .output()
        .expect("tvq-perf starts")
}

/// The driver form at smoke scale.
fn driver_run(workload: &str, seed: &str, trace: &str, extra: &[&str]) -> Output {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        seed,
        "--seconds",
        "0",
        "--trace",
        trace,
        "--smoke",
    ];
    args.extend_from_slice(extra);
    tvq_perf(&args)
}

fn stdout(output: &Output) -> String {
    String::from_utf8(output.stdout.clone()).expect("UTF-8 output")
}

/// The result object: the last line of standard output.
fn result_of(output: &Output) -> Value {
    let text = stdout(output);
    json::parse(text.lines().last().expect("a last line")).expect("the last line is JSON")
}

fn metric(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|metrics| metrics.get(name))
        .and_then(|metric| metric.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("{name} is missing"))
}

/// The line `print_input` writes: what the seed made.
fn fingerprint(output: &Output) -> String {
    stdout(output)
        .lines()
        .find_map(|line| {
            line.split_once("fingerprint ")
                .map(|(_, hex)| hex.to_string())
        })
        .expect("a fingerprint line")
}

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
        .expect("BENCHMARK.json is JSON")
}

fn data_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".data")
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn benchmark_json_is_what_the_program_declares() {
    let spec = tvq_perf(&["spec"]);
    assert!(spec.status.success());
    let declared = benchmark_json();
    assert_eq!(json::parse(&stdout(&spec)).unwrap(), declared);
    let names: Vec<&str> = declared
        .get("workloads")
        .and_then(Value::items)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(names, WORKLOADS);
}

/// Every declared metric is there exactly once, under a valid name and with
/// its declared unit.
fn assert_prints_declared(workload: &str, output: &Output, declared: &[Value], never_zero: bool) {
    assert!(output.status.success(), "{workload}: {output:?}");
    let result = result_of(output);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed"), Some(&Value::Num(0.0)));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);
    let printed = result.get("metrics").and_then(Value::fields).unwrap();
    assert_eq!(printed.len(), declared.len(), "{workload}");
    for metric in declared {
        let name = metric.get("name").and_then(Value::as_str).unwrap();
        assert!(valid_name(name), "{name}");
        let found: Vec<&Value> = printed
            .iter()
            .filter(|(key, _)| key == name)
            .map(|(_, value)| value)
            .collect();
        assert_eq!(
            found.len(),
            1,
            "{workload}: {name} printed {} times",
            found.len()
        );
        assert_eq!(
            found[0].get("unit"),
            metric.get("unit"),
            "{workload}: {name}"
        );
        let value = found[0].get("value").and_then(Value::as_f64);
        assert!(value.is_some_and(f64::is_finite), "{workload}: {name}");
        assert!(
            !never_zero || value.unwrap() > 0.0,
            "{workload}: {name} must never be 0"
        );
    }
}

/// The workload prints every declared metric once: the end-to-end ones the
/// driver gates on the untraced run, the others on the traced run. The same
/// seed gives the same inputs, reference and counts; another seed other
/// inputs.
fn metrics_are_declared_and_the_seed_decides_the_inputs(workload: &str) {
    let declared = benchmark_json();
    let end_to_end = declared.get("end_to_end").and_then(Value::items).unwrap();
    let per_layer = declared.get("per_layer").and_then(Value::items).unwrap();
    let traced = driver_run(workload, "11", "1", &[]);
    assert_prints_declared(workload, &traced, per_layer, false);
    let untraced = driver_run(workload, "12", "0", &[]);
    assert_prints_declared(workload, &untraced, end_to_end, true);
    assert_ne!(fingerprint(&traced), fingerprint(&untraced), "{workload}");
    let again = driver_run(workload, "11", "1", &[]);
    assert_eq!(fingerprint(&traced), fingerprint(&again), "{workload}");
    let (first, again) = (result_of(&traced), result_of(&again));
    for counted in per_layer {
        if matches!(
            counted.get("unit").and_then(Value::as_str),
            Some("count" | "bytes")
        ) {
            let name = counted.get("name").and_then(Value::as_str).unwrap();
            assert_eq!(
                metric(&first, name),
                metric(&again, name),
                "{workload}: {name}"
            );
        }
    }
}

#[test]
fn dense_embedded_is_declared_and_seeded() {
    metrics_are_declared_and_the_seed_decides_the_inputs("dense-embedded");
}

#[test]
fn churn_embedded_is_declared_and_seeded() {
    metrics_are_declared_and_the_seed_decides_the_inputs("churn-embedded");
}

#[test]
fn churn_durable_is_declared_and_seeded() {
    metrics_are_declared_and_the_seed_decides_the_inputs("churn-durable");
}

#[test]
fn grid_sharded_is_declared_and_seeded() {
    metrics_are_declared_and_the_seed_decides_the_inputs("grid-sharded");
}

#[test]
fn server_live_is_declared_and_seeded() {
    metrics_are_declared_and_the_seed_decides_the_inputs("server-live");
}

/// A reference digest damaged on purpose: the frame counts as failed and
/// the run exits non-zero.
#[test]
fn a_wrong_output_fails_the_run() {
    let output = driver_run("dense-embedded", "7", "0", &["--corrupt-reference"]);
    assert_eq!(output.status.code(), Some(1));
    let result = result_of(&output);
    assert_eq!(result.get("correct"), Some(&Value::Bool(false)));
    let failed = result.get("failed").and_then(Value::as_f64).unwrap();
    let attempted = result.get("attempted").and_then(Value::as_f64).unwrap();
    assert!(failed >= 1.0 && failed / attempted > 0.0);
    // Errors that are not wrong outputs exit differently and print no result.
    let unknown = driver_run("no-such-workload", "7", "0", &[]);
    assert_eq!(unknown.status.code(), Some(2));
    assert!(!stdout(&unknown).trim_end().ends_with('}'));
}

/// `--keep-data` leaves the trace behind: it parses, children lie inside
/// their parents and share their frame. Without it nothing is left.
#[test]
fn the_trace_nests_and_the_data_goes_away() {
    let output = driver_run("churn-durable", "7", "1", &["--keep-data"]);
    assert!(output.status.success(), "{output:?}");
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    let kept = stderr
        .lines()
        .find_map(|line| line.strip_prefix("data kept in "))
        .expect("the kept directory is named");
    let kept = PathBuf::from(kept);
    assert!(kept.starts_with(data_dir()));
    let trace = std::fs::read_to_string(kept.join("trace-churn-durable.jsonl")).unwrap();
    let spans: Vec<Value> = trace
        .lines()
        .map(|line| json::parse(line).unwrap())
        .collect();
    assert!(spans.len() > 1000);
    let field = |span: &Value, key: &str| span.get(key).and_then(Value::as_f64);
    let mut children = 0;
    for (index, span) in spans.iter().enumerate() {
        assert_eq!(field(span, "id"), Some(index as f64));
        assert!(field(span, "start_ns") <= field(span, "end_ns"));
        assert!(valid_name(
            span.get("name").and_then(Value::as_str).unwrap()
        ));
        if let Some(parent) = field(span, "parent") {
            let parent = &spans[parent as usize];
            assert!(field(parent, "start_ns") <= field(span, "start_ns"));
            assert!(field(span, "end_ns") <= field(parent, "end_ns"));
            assert_eq!(field(parent, "frame"), field(span, "frame"));
            children += 1;
        }
    }
    assert!(children > spans.len() / 2);
    std::fs::remove_dir_all(&kept).unwrap();

    let child = Command::new(env!("CARGO_BIN_EXE_tvq-perf"))
        .args([
            "--workload",
            "churn-durable",
            "--seed",
            "7",
            "--seconds",
            "0",
        ])
        .args(["--trace", "0", "--smoke"])
        .stdout(std::process::Stdio::null())
        .spawn()
        .unwrap();
    let pid = child.id();
    assert!(child.wait_with_output().unwrap().status.success());
    let left_behind = std::fs::read_dir(data_dir())
        .unwrap()
        .filter_map(Result::ok)
        .any(|entry| {
            entry
                .file_name()
                .to_string_lossy()
                .ends_with(&format!("-{pid}"))
        });
    assert!(!left_behind, "run {pid} left its data directory behind");
}

/// `run` writes a result file; `compare` never calls a file worse than
/// itself, calls halved throughput worse and exits non-zero, and calls it
/// unresolved when the runs' own spread is wider than the bound.
#[test]
fn compare_tells_same_from_worse() {
    std::fs::create_dir_all(data_dir()).unwrap();
    let base = data_dir().join(format!("test-{}-a.json", std::process::id()));
    let other = data_dir().join(format!("test-{}-b.json", std::process::id()));
    let (base_arg, other_arg) = (base.to_str().unwrap(), other.to_str().unwrap());
    let run = tvq_perf(&[
        "run", "--seed", "5", "--smoke", "--passes", "3", "--out", base_arg,
    ]);
    assert!(run.status.success(), "{run:?}");
    let text = stdout(&run);
    // All eight end-to-end metrics, once per workload that has them.
    for workload in WORKLOADS {
        for metric in [
            "setup_s",
            "frames_per_s",
            "frame_p50_us",
            "frame_p99_us",
            "failed_share",
            "state_bytes_peak",
        ] {
            let line = format!("{workload:<16} {metric} ");
            assert_eq!(text.matches(&line).count(), 1, "{workload} {metric}");
        }
        for metric in ["disk_bytes_per_frame", "recover_ms"] {
            let line = format!("{workload:<16} {metric} ");
            let expected = usize::from(workload == "churn-durable");
            assert_eq!(text.matches(&line).count(), expected, "{workload} {metric}");
        }
    }
    for heading in [
        "git ",
        "seed 5",
        "scale smoke",
        "nproc ",
        "cpu ",
        "kernel ",
        "rustc ",
        "data dir on ",
    ] {
        assert!(text.contains(heading), "the header names {heading:?}");
    }

    let same = tvq_perf(&["compare", base_arg, base_arg]);
    assert!(same.status.success(), "{same:?}");
    let verdicts = stdout(&same);
    assert!(!verdicts.contains("worse") && !verdicts.contains("better"));
    assert!(verdicts.contains("per-layer counts: identical"));

    // The same results with the spreads taken out, then with throughput
    // halved, then with a spread wider than any bound.
    let results = json::parse(&std::fs::read_to_string(&base).unwrap()).unwrap();
    std::fs::write(
        &base,
        rewritten(&results, "frames_per_s", 1.0, 0.0).pretty(),
    )
    .unwrap();
    std::fs::write(
        &other,
        rewritten(&results, "frames_per_s", 0.5, 0.0).pretty(),
    )
    .unwrap();
    let worse = tvq_perf(&["compare", base_arg, other_arg]);
    assert_eq!(worse.status.code(), Some(1));
    assert_eq!(stdout(&worse).matches(" worse").count(), WORKLOADS.len());
    std::fs::write(
        &other,
        rewritten(&results, "frames_per_s", 0.5, 1.0).pretty(),
    )
    .unwrap();
    let unresolved = tvq_perf(&["compare", base_arg, other_arg]);
    assert!(unresolved.status.success());
    assert_eq!(
        stdout(&unresolved).matches(" unresolved").count(),
        WORKLOADS.len()
    );
    std::fs::remove_file(base).unwrap();
    std::fs::remove_file(other).unwrap();
}

/// A copy of `value` in which every metric but `name` has no spread, and
/// `name` has `factor` times its value and the spread `spread`.
fn rewritten(value: &Value, name: &str, factor: f64, spread: f64) -> Value {
    match value {
        Value::Obj(fields) => Value::Obj(
            fields
                .iter()
                .map(|(key, child)| {
                    let child = match child.get("spread") {
                        Some(_) => {
                            let measured = child.get("value").and_then(Value::as_f64).unwrap();
                            let (factor, spread) = if key == name {
                                (factor, spread)
                            } else {
                                (1.0, 0.0)
                            };
                            Value::Obj(vec![
                                ("value".to_string(), Value::Num(measured * factor)),
                                ("spread".to_string(), Value::Num(spread)),
                            ])
                        }
                        None => rewritten(child, name, factor, spread),
                    };
                    (key.clone(), child)
                })
                .collect(),
        ),
        Value::Arr(items) => Value::Arr(
            items
                .iter()
                .map(|item| rewritten(item, name, factor, spread))
                .collect(),
        ),
        other => other.clone(),
    }
}
