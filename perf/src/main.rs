//! `tvq-perf`: the repository's benchmark.
//!
//! ```text
//! tvq-perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, as BENCHMARK.json's driver runs it; the last line of
//!     standard output is the result as one JSON object
//! tvq-perf run --seed <n> [--passes <p>] [--out <file>]
//!     every workload: untraced passes round-robin, then one traced run each
//! tvq-perf compare <a.json> <b.json>
//!     two `run --out` files against the declared bounds
//! tvq-perf spec
//!     the contents of BENCHMARK.json
//! ```
//!
//! `--smoke` runs a tenth of the frames, `--keep-data` leaves
//! `perf/.data/<run>/` (the store's files, `trace-<workload>.jsonl`) in
//! place, `--corrupt-reference` damages one reference digest to show that
//! the output check fails the run. See `README.md`.

use std::process::ExitCode;
use std::time::{Duration, Instant};

mod host;
mod input;
mod json;
mod path;
mod report;
mod spec;
mod stats;
mod trace;
mod workload;

use host::{DataDir, Header};
use input::Scale;
use workload::{Extent, Summary, Traced, Workload};

/// Any failure, as text. Not `Display` itself, so that every error that is
/// converts with `?`.
pub struct Error(String);

impl<E: std::fmt::Display> From<E> for Error {
    fn from(error: E) -> Self {
        Error(error.to_string())
    }
}

pub type Res<T> = Result<T, Error>;

/// Timed passes per workload: the driver form makes at least this many
/// however short `--seconds` is, and `run` this many unless told otherwise.
const MIN_PASSES: usize = 3;
const DEFAULT_PASSES: usize = 5;
/// Set-ups before every timed pass that are torn down again at once. The
/// driver's contract asks for several set-ups a run, and gates `setup_s`
/// between two sets of ten runs. A set-up takes milliseconds and this host
/// slows everything down by half for tens of seconds at a time: over ten
/// seeds the passes' own three to six set-ups spread `setup_s` by 1.03 on
/// `server-live`, thirty more by 0.3. They go between the passes so that a
/// run's set-ups see as much of the host's moods as the run lasts.
const SET_UPS_PER_PASS: usize = 10;

struct Flags {
    values: Vec<(String, String)>,
    switches: Vec<String>,
    positional: Vec<String>,
}

impl Flags {
    const SWITCHES: [&'static str; 3] = ["--smoke", "--keep-data", "--corrupt-reference"];
    const VALUES: [&'static str; 6] = [
        "--workload",
        "--seed",
        "--seconds",
        "--trace",
        "--passes",
        "--out",
    ];

    fn parse(args: &[String]) -> Res<Flags> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
            positional: Vec::new(),
        };
        let mut args = args.iter();
        while let Some(arg) = args.next() {
            if Self::SWITCHES.contains(&arg.as_str()) {
                flags.switches.push(arg.clone());
            } else if Self::VALUES.contains(&arg.as_str()) {
                let value = args.next().ok_or(format!("{arg} needs a value"))?;
                flags.values.push((arg.clone(), value.clone()));
            } else if arg.starts_with("--") {
                return Err(format!("unknown flag {arg}").into());
            } else {
                flags.positional.push(arg.clone());
            }
        }
        Ok(flags)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.iter().any(|s| s == switch)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .find(|(name, _)| name == flag)
            .map(|(_, value)| value.as_str())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str) -> Res<Option<T>> {
        self.value(flag)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| format!("{flag}: {raw:?} is not a number").into())
            })
            .transpose()
    }

    fn required<T: std::str::FromStr>(&self, flag: &str) -> Res<T> {
        self.number(flag)?
            .ok_or(format!("{flag} is required").into())
    }

    fn scale(&self) -> Scale {
        if self.has("--smoke") {
            Scale::Smoke
        } else {
            Scale::Full
        }
    }
}

fn build(name: &str, seed: u64, flags: &Flags, data: &DataDir) -> Res<Box<dyn Workload>> {
    let mut workload = workload::build(name, seed, flags.scale(), data.path())?;
    if flags.has("--corrupt-reference") {
        workload.corrupt_reference();
    }
    Ok(workload)
}

/// The warm-up pass: not timed, but checked like any other.
fn warmed_up(workload: &mut dyn Workload) -> Res<Summary> {
    let mut summary = Summary::default();
    summary.add_untimed(workload.warm_up()?);
    Ok(summary)
}

/// The extra set-ups, then one timed pass.
fn timed_pass(workload: &mut dyn Workload, summary: &mut Summary, scale: Scale) -> Res<()> {
    for _ in 0..scale.frames(SET_UPS_PER_PASS) {
        summary.add_set_up(workload.pass(Extent::SetUpOnly)?);
    }
    summary.add(workload.pass(Extent::Whole)?);
    Ok(())
}

/// The traced run of one workload, its layers completed with what the
/// untraced passes, the input and the host have to say; the spans go to
/// `trace-<workload>.jsonl`.
fn traced(
    workload: &mut dyn Workload,
    summary: &Summary,
    spin_ms_before: f64,
    data: &DataDir,
) -> Res<Traced> {
    let mut traced = workload.traced()?;
    for (name, value, _) in summary.metrics() {
        if !spec::DRIVER_GATED.contains(&name) {
            traced.layers.set(name, value);
        }
    }
    traced.layers.set(
        spec::FAILED_SHARE,
        (summary.failed + traced.failed) as f64 / (summary.attempted + traced.attempted) as f64,
    );
    report::set_input_layers(&mut traced.layers, workload.prepared());
    report::set_host_layers(&mut traced.layers, spin_ms_before, host::spin_ms());
    let file = format!("trace-{}.jsonl", workload.name());
    trace::write_jsonl(&traced.spans, &data.path().join(file))?;
    Ok(traced)
}

/// The driver form: one workload. Untraced, it reports the end-to-end
/// metrics the driver gates; traced, the others and the per-layer ones.
/// `Ok(false)` when an output was wrong.
fn run_one(flags: &Flags) -> Res<bool> {
    let name = flags.value("--workload").ok_or("--workload is required")?;
    let seed: u64 = flags.required("--seed")?;
    let seconds: f64 = flags.required("--seconds")?;
    let trace = match flags.value("--trace") {
        Some("0") => false,
        Some("1") => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    let data = DataDir::create(flags.has("--keep-data"))?;
    Header::collect(seed, flags.scale().as_str(), data.path()).print();

    let spin_ms_before = host::spin_ms();
    let mut workload = build(name, seed, flags, &data)?;
    report::print_input(name, workload.prepared());
    let mut summary = warmed_up(workload.as_mut())?;
    let started = Instant::now();
    while summary.passes() < MIN_PASSES || started.elapsed() < Duration::from_secs_f64(seconds) {
        timed_pass(workload.as_mut(), &mut summary, flags.scale())?;
    }
    report::print_summary(name, &summary);
    let result = if trace {
        let traced = traced(workload.as_mut(), &summary, spin_ms_before, &data)?;
        report::print_traced(name, &traced);
        report::driver_line(
            summary.attempted + traced.attempted,
            summary.failed + traced.failed,
            spec::driver_per_layer().map(|m| (m, traced.layers.get(m.name).unwrap_or(0.0))),
        )
    } else {
        report::driver_line(
            summary.attempted,
            summary.failed,
            spec::driver_end_to_end().map(|m| (m, summary.metric(m.name))),
        )
    };
    drop(workload);
    drop(data);
    // The result is the last line of standard output.
    println!("{}", result.line);
    Ok(result.correct)
}

/// Every workload: one warm-up and `--passes` timed passes each, taken
/// round-robin so that host drift spreads evenly, then the traced runs.
fn run_all(flags: &Flags) -> Res<bool> {
    let seed: u64 = flags.required("--seed")?;
    let passes: usize = flags.number("--passes")?.unwrap_or(DEFAULT_PASSES);
    if passes < MIN_PASSES {
        return Err(format!("--passes must be at least {MIN_PASSES}").into());
    }
    let started = Instant::now();
    let data = DataDir::create(flags.has("--keep-data"))?;
    let header = Header::collect(seed, flags.scale().as_str(), data.path());
    header.print();

    let spin_ms_before = host::spin_ms();
    let mut workloads = Vec::new();
    for spec in &spec::WORKLOADS {
        workloads.push(build(spec.name, seed, flags, &data)?);
    }
    let mut summaries = Vec::new();
    for workload in &mut workloads {
        summaries.push(warmed_up(workload.as_mut())?);
    }
    for _ in 0..passes {
        for (workload, summary) in workloads.iter_mut().zip(&mut summaries) {
            timed_pass(workload.as_mut(), summary, flags.scale())?;
        }
    }

    let mut results = Vec::new();
    for (workload, summary) in workloads.iter_mut().zip(summaries) {
        let name = workload.name();
        let traced = traced(workload.as_mut(), &summary, spin_ms_before, &data)?;
        report::print_input(name, workload.prepared());
        report::print_summary(name, &summary);
        report::print_traced(name, &traced);
        results.push(report::WorkloadResult {
            name,
            summary,
            traced,
        });
    }
    let wall_s = started.elapsed().as_secs_f64();
    println!("{passes} timed passes per workload, {wall_s:.1} s in all");
    if let Some(out) = flags.value("--out") {
        std::fs::write(
            out,
            report::results_json(&header, passes, wall_s, &results).pretty(),
        )?;
        println!("results written to {out}");
    }
    Ok(results
        .iter()
        .all(|r| r.summary.failed == 0 && r.traced.failed == 0))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = args.first().map(String::as_str);
    let rest = if matches!(command, Some("run" | "compare" | "spec")) {
        &args[1..]
    } else {
        &args[..]
    };
    let outcome = Flags::parse(rest).and_then(|flags| match command {
        Some("run") => run_all(&flags),
        Some("compare") => report::compare(&flags.positional),
        Some("spec") => {
            print!("{}", spec::benchmark_json().pretty());
            Ok(true)
        }
        _ => run_one(&flags),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(error) => {
            eprintln!("tvq-perf: {}", error.0);
            ExitCode::from(2)
        }
    }
}
