//! Machine-readable benchmark reports.
//!
//! With `--json` the `repro` driver writes one `BENCH_<experiment>.json`
//! file into the working directory per requested experiment, next to its
//! human-readable tables: frames/second, peak state counts and
//! per-maintainer timings, plus the raw series behind the printed tables.
//!
//! The build environment has no crates.io access, so the JSON encoder is a
//! small hand-rolled value tree ([`JsonValue`]) rather than serde. Output is
//! deterministic (insertion-ordered objects) so diffs between committed
//! baselines stay readable.

use std::fmt::Write as _;
use std::path::PathBuf;

use tvq_core::MaintenanceMetrics;

use crate::harness::{Scale, Series};

/// A JSON value tree with deterministic (insertion-ordered) objects.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An unsigned integer (rendered without a decimal point).
    Int(u64),
    /// A float; non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Renders the value as compact JSON.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => escape_into(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    escape_into(key, out);
                    out.push(':');
                    value.render_into(out);
                }
                out.push('}');
            }
        }
    }
}

impl JsonValue {
    /// An object from `(key, value)` pairs, in the order given.
    pub fn obj<const N: usize>(fields: [(&str, JsonValue); N]) -> JsonValue {
        JsonValue::Obj(fields.map(|(key, value)| (key.to_owned(), value)).into())
    }
}

impl From<bool> for JsonValue {
    fn from(value: bool) -> Self {
        JsonValue::Bool(value)
    }
}

impl From<u64> for JsonValue {
    fn from(value: u64) -> Self {
        JsonValue::Int(value)
    }
}

impl From<f64> for JsonValue {
    fn from(value: f64) -> Self {
        JsonValue::Num(value)
    }
}

impl From<&str> for JsonValue {
    fn from(value: &str) -> Self {
        JsonValue::Str(value.to_owned())
    }
}

/// `None` renders as `null`.
impl From<Option<u64>> for JsonValue {
    fn from(value: Option<u64>) -> Self {
        value.map_or(JsonValue::Null, JsonValue::Int)
    }
}

impl<T: Into<JsonValue>> FromIterator<T> for JsonValue {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        JsonValue::Arr(items.into_iter().map(Into::into).collect())
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// One instrumented per-maintainer measurement: wall-clock ingestion time,
/// throughput and the work counters behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct MaintainerTiming {
    /// Method name (NAIVE, MFS, SSG, ...).
    pub method: String,
    /// Wall-clock seconds spent ingesting the workload.
    pub seconds: f64,
    /// Frames ingested.
    pub frames: u64,
    /// The maintainer's work counters after the run.
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

    fn to_json(&self) -> JsonValue {
        let m = &self.metrics;
        JsonValue::obj([
            ("method", self.method.as_str().into()),
            ("seconds", self.seconds.into()),
            ("frames", self.frames.into()),
            ("frames_per_sec", self.frames_per_sec().into()),
            ("peak_live_states", m.peak_live_states.into()),
            ("states_created", m.states_created.into()),
            ("states_visited", m.states_visited.into()),
            ("intersections", m.intersections.into()),
            ("interned_sets", m.interned_sets.into()),
            ("arena_bytes", m.arena_bytes.into()),
            ("bitmap_bytes", m.bitmap_bytes.into()),
            ("compactions", m.compactions.into()),
            ("intersection_cache_hits", m.intersection_cache_hits.into()),
            (
                "intersection_cache_misses",
                m.intersection_cache_misses.into(),
            ),
            ("wal_records", m.wal_records.into()),
            ("wal_bytes", m.wal_bytes.into()),
            ("snapshots_written", m.snapshots_written.into()),
            ("snapshot_bytes", m.snapshot_bytes.into()),
            ("fsyncs", m.fsyncs.into()),
            ("recoveries", m.recoveries.into()),
        ])
    }
}

/// The machine-readable result of one `repro` experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name; determines the output file `BENCH_<scenario>.json`.
    pub scenario: String,
    /// `"quick"` or `"paper"`.
    pub scale: String,
    /// Instrumented per-maintainer timings (frames/sec, peak states, ...).
    pub maintainers: Vec<MaintainerTiming>,
    /// The raw `(group, series)` data behind the printed tables; groups are
    /// dataset names for the per-dataset figures.
    pub series: Vec<(String, Vec<Series>)>,
    /// Scenario-specific sections appended verbatim to the JSON object
    /// (e.g. the long-churn memory trajectory and its CI gate inputs).
    pub extras: Vec<(String, JsonValue)>,
}

impl ScenarioReport {
    /// Creates an empty report for a scenario measured at `scale`; callers
    /// fill `maintainers`, `series` and `extras` in.
    pub fn new(scenario: impl Into<String>, scale: Scale) -> Self {
        ScenarioReport {
            scenario: scenario.into(),
            scale: match scale {
                Scale::Paper => "paper".to_owned(),
                Scale::Quick => "quick".to_owned(),
            },
            maintainers: Vec::new(),
            series: Vec::new(),
            extras: Vec::new(),
        }
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let series = self.series.iter().flat_map(|(group, series)| {
            series.iter().map(move |s| {
                let points = s.points.iter().map(|(x, seconds)| {
                    JsonValue::obj([("x", x.as_str().into()), ("seconds", (*seconds).into())])
                });
                JsonValue::obj([
                    ("group", group.as_str().into()),
                    ("method", s.method.as_str().into()),
                    ("points", points.collect()),
                ])
            })
        });
        let mut fields = vec![
            ("scenario".to_owned(), self.scenario.as_str().into()),
            ("scale".to_owned(), self.scale.as_str().into()),
            (
                "maintainers".to_owned(),
                self.maintainers.iter().map(|m| m.to_json()).collect(),
            ),
            ("series".to_owned(), series.collect()),
        ];
        fields.extend(self.extras.iter().cloned());
        JsonValue::Obj(fields).render()
    }

    /// The output path: `BENCH_<scenario>.json` in the current directory.
    pub fn path(&self) -> PathBuf {
        PathBuf::from(format!("BENCH_{}.json", self.scenario))
    }

    /// Writes the report to [`ScenarioReport::path`] and returns the path.
    pub fn write(&self) -> std::io::Result<PathBuf> {
        let path = self.path();
        let mut body = self.to_json();
        body.push('\n');
        std::fs::write(&path, body)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_covers_specials() {
        let v = JsonValue::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(JsonValue::Num(f64::NAN).render(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).render(), "null");
        assert_eq!(JsonValue::Num(1.5).render(), "1.5");
        assert_eq!(JsonValue::Int(7).render(), "7");
    }

    #[test]
    fn scenario_report_renders_all_sections() {
        let timing = MaintainerTiming {
            method: "SSG".into(),
            seconds: 0.5,
            frames: 100,
            metrics: MaintenanceMetrics::new(),
        };
        assert!((timing.frames_per_sec() - 200.0).abs() < 1e-9);
        let series = vec![Series {
            method: "SSG".into(),
            points: vec![("4".into(), 0.25)],
        }];
        let report = ScenarioReport {
            maintainers: vec![timing],
            series: vec![("all".into(), series)],
            ..ScenarioReport::new("unit", Scale::Quick)
        };
        let json = report.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        for needle in [
            "\"scenario\":\"unit\"",
            "\"scale\":\"quick\"",
            "\"frames_per_sec\":200",
            "\"peak_live_states\":0",
            "\"group\":\"all\"",
            "\"x\":\"4\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in {json}");
        }
        assert_eq!(report.path(), PathBuf::from("BENCH_unit.json"));
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
}
