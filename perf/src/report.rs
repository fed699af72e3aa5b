//! Printing results, writing them as JSON, and comparing two result files.

use crate::host::{self, Header};
use crate::json::{self, Value};
use crate::spec::{self, Better, MetricSpec, PER_LAYER};
use crate::workload::{Layers, Prepared, Summary, Traced};
use crate::Res;

pub fn set_input_layers(layers: &mut Layers, prepared: &Prepared) {
    layers.set("video.generate_s", prepared.generate_s);
    layers.set("video.frames", prepared.frames as f64);
    layers.set(
        "video.objects_per_frame",
        prepared.detections as f64 / prepared.frames as f64,
    );
    layers.set("bench.reference_s", prepared.reference_s);
}

pub fn set_host_layers(layers: &mut Layers, spin_ms_before: f64, spin_ms_after: f64) {
    layers.set("host.nproc", host::nproc() as f64);
    layers.set("host.spin_ms_before", spin_ms_before);
    layers.set("host.spin_ms_after", spin_ms_after);
}

/// What the seed made.
pub fn print_input(workload: &str, prepared: &Prepared) {
    println!(
        "{workload}: input of {} frames, {:.2} objects a frame, fingerprint {:016x}",
        prepared.frames,
        prepared.detections as f64 / prepared.frames as f64,
        prepared.fingerprint
    );
}

fn print_metric(workload: &str, metric: &MetricSpec, value: f64, note: &str) {
    println!(
        "{workload:<16} {:<36} {value:>16.4} {:<9}{note}",
        metric.name, metric.unit
    );
}

/// A metric `Summary::metrics` reports: all are declared.
fn declared(name: &str) -> &'static MetricSpec {
    spec::metric(name).expect("summary metrics are declared")
}

/// Prints what the untraced passes measured: the end-to-end metrics every
/// workload has.
pub fn print_summary(workload: &str, summary: &Summary) {
    println!(
        "{workload}: {} timed passes, {} latency samples, {} of {} frames failed",
        summary.passes(),
        summary.samples(),
        summary.failed,
        summary.attempted
    );
    for (name, value, spread) in summary.metrics() {
        let note = format!(" spread {:.1} % over passes", spread * 100.0);
        print_metric(workload, declared(name), value, &note);
    }
}

/// Prints what the traced run adds: the remaining end-to-end metrics, then
/// the per-layer metrics the workload drives (the others are 0 in the
/// driver's line and absent here).
pub fn print_traced(workload: &str, traced: &Traced) {
    let timings = [spec::FRAMES_PER_S, spec::FRAME_P50_US, spec::FRAME_P99_US];
    for metric in spec::driver_per_layer().filter(|m| !timings.contains(&m.name)) {
        if let Some(value) = traced.layers.get(metric.name) {
            print_metric(workload, metric, value, "");
        }
    }
}

fn metric_fields(metric: &MetricSpec, value: f64) -> Vec<(String, Value)> {
    vec![
        ("value".to_string(), Value::Num(value)),
        ("unit".to_string(), Value::str(metric.unit)),
    ]
}

fn metric_value(metric: &MetricSpec, value: f64) -> Value {
    Value::Obj(metric_fields(metric, value))
}

pub struct DriverLine {
    pub line: Value,
    pub correct: bool,
}

/// The object the driver reads from the last line of standard output.
pub fn driver_line<'a>(
    attempted: u64,
    failed: u64,
    metrics: impl Iterator<Item = (&'a MetricSpec, f64)>,
) -> DriverLine {
    let correct = failed == 0;
    let metrics = metrics
        .map(|(metric, value)| (metric.name.to_string(), metric_value(metric, value)))
        .collect();
    DriverLine {
        line: Value::Obj(vec![
            ("correct".to_string(), Value::Bool(correct)),
            ("attempted".to_string(), Value::Num(attempted as f64)),
            ("failed".to_string(), Value::Num(failed as f64)),
            ("metrics".to_string(), Value::Obj(metrics)),
        ]),
        correct,
    }
}

pub struct WorkloadResult {
    pub name: &'static str,
    pub summary: Summary,
    pub traced: Traced,
}

/// What `run --out` writes and `compare` reads.
pub fn results_json(
    header: &Header,
    passes: usize,
    wall_s: f64,
    results: &[WorkloadResult],
) -> Value {
    let mut head = header.fields();
    head.push(("passes".to_string(), Value::Num(passes as f64)));
    head.push(("wall_s".to_string(), Value::Num(wall_s)));
    let workloads = results
        .iter()
        .map(|result| {
            let failed = result.summary.failed + result.traced.failed;
            let attempted = result.summary.attempted + result.traced.attempted;
            let failed_share = (spec::FAILED_SHARE, failed as f64 / attempted as f64, 0.0);
            let summary = result
                .summary
                .metrics()
                .into_iter()
                .chain([failed_share])
                .chain(result.traced.end_to_end.iter().copied())
                .map(|(name, value, spread)| {
                    let mut fields = metric_fields(declared(name), value);
                    fields.push(("spread".to_string(), Value::Num(spread)));
                    (name.to_string(), Value::Obj(fields))
                })
                .collect();
            let per_layer = PER_LAYER
                .iter()
                .filter_map(|metric| {
                    let value = result.traced.layers.get(metric.name)?;
                    Some((metric.name.to_string(), metric_value(metric, value)))
                })
                .collect();
            Value::Obj(vec![
                ("name".to_string(), Value::str(result.name)),
                ("attempted".to_string(), Value::Num(attempted as f64)),
                ("failed".to_string(), Value::Num(failed as f64)),
                (
                    "samples".to_string(),
                    Value::Num(result.summary.samples() as f64),
                ),
                ("summary".to_string(), Value::Obj(summary)),
                ("per_layer".to_string(), Value::Obj(per_layer)),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("header".to_string(), Value::Obj(head)),
        ("workloads".to_string(), Value::Arr(workloads)),
    ])
}

fn field(value: &Value, path: &[&str]) -> Option<f64> {
    path.iter()
        .try_fold(value, |value, key| value.get(key))
        .and_then(Value::as_f64)
}

/// `compare <a.json> <b.json>`: every workload's end-to-end metrics in two
/// `run --out` files, `a` being the base. A metric is *unresolved* when
/// either file's own spread over its passes exceeds the bound — the runs
/// cannot tell a change of that size from noise — otherwise *worse* or
/// *better* when `b` differs from `a` by more than the bound, else *same*.
/// Per-layer counts must repeat exactly and are listed when they do not.
/// `Ok(false)` when anything is worse.
pub fn compare(files: &[String]) -> Res<bool> {
    let [a_path, b_path] = files else {
        return Err("compare needs two result files".into());
    };
    let a = json::parse(&std::fs::read_to_string(a_path)?)?;
    let b = json::parse(&std::fs::read_to_string(b_path)?)?;
    println!("base a = {a_path}, b = {b_path}");
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    let mut any_worse = false;
    let mut differing_counts = Vec::new();
    for workload in a.get("workloads").and_then(Value::items).unwrap_or(&[]) {
        let name = workload.get("name").and_then(Value::as_str).unwrap_or("?");
        let other = b
            .get("workloads")
            .and_then(Value::items)
            .and_then(|all| {
                all.iter()
                    .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
            })
            .ok_or(format!("{b_path} has no workload {name}"))?;
        let compared = workload
            .get("summary")
            .and_then(Value::fields)
            .unwrap_or(&[]);
        for (metric_name, _) in compared {
            let metric = spec::metric(metric_name).ok_or(format!(
                "{a_path} holds {metric_name}, which is not a declared metric"
            ))?;
            let read = |file: &Value, key| field(file, &["summary", metric.name, key]);
            let (Some(va), Some(vb)) = (read(workload, "value"), read(other, "value")) else {
                return Err(format!("{name}: {} is missing from a file", metric.name).into());
            };
            let spread = read(workload, "spread")
                .unwrap_or(0.0)
                .max(read(other, "spread").unwrap_or(0.0));
            let bound = metric
                .bound
                .ok_or(format!("{metric_name} is not an end-to-end metric"))?;
            // 0 against 0 is no change.
            let ratio = if va == vb { 1.0 } else { vb / va };
            let worsening = match metric.better {
                Better::Lower => ratio - 1.0,
                Better::Higher => 1.0 - ratio,
            };
            let verdict = if spread > bound {
                "unresolved"
            } else if worsening > bound {
                any_worse = true;
                "worse"
            } else if worsening < -bound {
                "better"
            } else {
                "same"
            };
            println!(
                "{name:<16} {:<18} {va:>14.4} {vb:>14.4} {ratio:>9.4} {:>6.0}%  {verdict}",
                metric.name,
                bound * 100.0
            );
        }
        for metric in PER_LAYER
            .iter()
            .filter(|m| matches!(m.unit, "count" | "bytes"))
        {
            let read = |file: &Value| field(file, &["per_layer", metric.name, "value"]);
            if read(workload) != read(other) {
                differing_counts.push(format!("{name} {}", metric.name));
            }
        }
    }
    if differing_counts.is_empty() {
        println!("per-layer counts: identical");
    } else {
        println!(
            "per-layer counts that differ: {}",
            differing_counts.join(", ")
        );
    }
    Ok(!any_worse)
}
