//! One experiment per table/figure of the paper's evaluation section, the
//! three beyond-the-paper scenarios with their gates, and the
//! [`EXPERIMENTS`] table the `repro` driver (and the smoke tests) resolve
//! them through by name.
//!
//! Every figure function generates the required workload(s), measures the
//! methods the corresponding figure compares, and returns per-dataset
//! [`Series`] ready to be printed with [`format_table`]. Absolute times differ
//! from the paper (different language, hardware and — for the vision stage — a
//! simulator instead of GPUs); what must match is the *shape*: which method
//! wins on which dataset, and how the gap evolves with each parameter.

use std::sync::Arc;
use std::time::Instant;

use tvq_common::{DatasetStats, FeedId, FrameObjects, VideoRelation, WindowSpec};
use tvq_core::{CompactionPolicy, MaintainerKind};
use tvq_engine::{
    EngineConfig, FeedFrame, MultiFeedConfig, MultiFeedEngine, SchedulingStats,
    TemporalVideoQueryEngine,
};
use tvq_query::{generate_workload, CnfEvaluator, GeqOnlyPruner, WorkloadConfig};
use tvq_video::{
    generate, generate_with_id_reuse, interleave, long_churn_feed, skewed_grid, ChurnProfile,
    DatasetProfile, SkewProfile,
};

use crate::harness::{
    format_table, measure_mcos_generation, measure_query_evaluation, text_table, MaintainerTiming,
    Scale, Series,
};

/// Seed used by every experiment so that runs are reproducible.
pub const SEED: u64 = 20210614;

/// The three MCOS maintainers under their display names.
fn mcos_methods() -> [(&'static str, MaintainerKind); 3] {
    [
        MaintainerKind::Naive,
        MaintainerKind::Mfs,
        MaintainerKind::Ssg,
    ]
    .map(|kind| (kind.name(), kind))
}

/// One dataset's table of a figure: a [`Series`] per method, a point per x
/// value, each timed by `seconds(method, x)`.
fn series_group<M: Copy, X: ToString>(
    dataset: &str,
    methods: &[(&str, M)],
    xs: &[X],
    seconds: impl Fn(M, &X) -> f64,
) -> (String, Vec<Series>) {
    let series = methods
        .iter()
        .map(|&(name, method)| Series {
            method: name.to_owned(),
            points: xs
                .iter()
                .map(|x| (x.to_string(), seconds(method, x)))
                .collect(),
        })
        .collect();
    (dataset.to_owned(), series)
}

/// **Table 6** — dataset statistics: the Table-6 target values versus the
/// statistics measured on the synthesised relation of each profile (the
/// header and rows; the title comes from the [`EXPERIMENTS`] entry).
pub fn table6(scale: Scale) -> String {
    let mut out = String::from(
        "dataset |       frames |      objects |        Obj/F |      Occ/Obj |        F/Obj\n\
         --------+--------------+--------------+--------------+--------------+-------------\n",
    );
    for profile in DatasetProfile::all() {
        let profile = profile.truncated(scale.frames(profile.frames));
        let target = profile.target_stats();
        let measured = DatasetStats::of(&generate(&profile, SEED));
        out.push_str(&format!(
            "{:7} | {:5} /{:5} | {:5} /{:5} | {:5.2} /{:5.2} | {:5.2} /{:5.2} | {:5.1} /{:5.1}\n",
            profile.name,
            target.frames,
            measured.frames,
            target.objects,
            measured.objects,
            target.objects_per_frame,
            measured.objects_per_frame,
            target.occlusions_per_object,
            measured.occlusions_per_object,
            target.frames_per_object,
            measured.frames_per_object,
        ));
    }
    out.push_str("          (paper / measured)\n");
    out
}

/// The frame counts swept on the x axis of Figure 4 for each dataset.
pub fn fig4_frame_counts(profile: &DatasetProfile) -> Vec<usize> {
    match profile.name {
        "V1" => vec![600, 1000, 1400, 1800],
        "V2" => vec![600, 1000, 1400, 1700],
        "D1" => vec![400, 600, 800, 1000, 1150],
        "D2" => vec![400, 600, 800, 1000, 1145],
        "M1" => vec![400, 600, 800, 1000, 1194],
        "M2" => vec![300, 450, 600, 750],
        _ => vec![profile.frames],
    }
}

/// **Figure 4** — MCOS generation time as the number of processed frames
/// grows (w = 300, d = 240), per dataset, for NAIVE/MFS/SSG.
pub fn fig4(scale: Scale) -> Vec<(String, Vec<Series>)> {
    let window = scale.window(WindowSpec::paper_default());
    DatasetProfile::all()
        .into_iter()
        .map(|profile| {
            let relation = generate(&profile, SEED);
            let frame_counts: Vec<usize> = fig4_frame_counts(&profile)
                .into_iter()
                .map(|frames| scale.frames(frames))
                .collect();
            series_group(profile.name, &mcos_methods(), &frame_counts, |kind, &n| {
                measure_mcos_generation(&relation.truncated(n), window, kind)
            })
        })
        .collect()
}

/// **Figure 5** — MCOS generation time as the duration threshold `d` varies
/// (w = 300, d ∈ {180, 210, 240, 270}).
pub fn fig5(scale: Scale) -> Vec<(String, Vec<Series>)> {
    sweep_window_parameter(scale, &[180, 210, 240, 270], |window, d| {
        WindowSpec::new(window.window(), d)
    })
}

/// **Figure 6** — MCOS generation time as the window size `w` varies
/// (d = 240, w ∈ {300, 400, 500, 600}).
pub fn fig6(scale: Scale) -> Vec<(String, Vec<Series>)> {
    sweep_window_parameter(scale, &[300, 400, 500, 600], |window, w| {
        WindowSpec::new(w, window.duration())
    })
}

fn sweep_window_parameter(
    scale: Scale,
    xs: &[usize],
    make_spec: impl Fn(WindowSpec, usize) -> tvq_common::Result<WindowSpec>,
) -> Vec<(String, Vec<Series>)> {
    DatasetProfile::all()
        .into_iter()
        .map(|profile| {
            let relation = generate(&profile, SEED).truncated(scale.frames(profile.frames));
            series_group(profile.name, &mcos_methods(), xs, |kind, &x| {
                let spec = make_spec(WindowSpec::paper_default(), x).expect("duration <= window");
                measure_mcos_generation(&relation, scale.window(spec), kind)
            })
        })
        .collect()
}

/// **Figure 7** — MCOS generation time as the occlusion (id reuse) parameter
/// `po` varies from 0 to 3 (w = 300, d = 240).
pub fn fig7(scale: Scale) -> Vec<(String, Vec<Series>)> {
    let window = scale.window(WindowSpec::paper_default());
    DatasetProfile::all()
        .into_iter()
        .map(|profile| {
            let profile = profile.truncated(scale.frames(profile.frames));
            let relations: Vec<VideoRelation> = (0..=3u32)
                .map(|po| generate_with_id_reuse(&profile, po, SEED))
                .collect();
            series_group(
                profile.name,
                &mcos_methods(),
                &[0usize, 1, 2, 3],
                |kind, &po| measure_mcos_generation(&relations[po], window, kind),
            )
        })
        .collect()
}

/// **Figure 8** — total time (MCOS generation + query evaluation) as the
/// number of registered queries varies from 10 to 50, on V1 (synthetic) and
/// M2 (real), for NAIVE/MFS/SSG.
pub fn fig8(scale: Scale) -> Vec<(String, Vec<Series>)> {
    let window = scale.window(WindowSpec::paper_default());
    let query_counts = [10usize, 20, 30, 40, 50];
    [DatasetProfile::v1(), DatasetProfile::m2()]
        .into_iter()
        .map(|profile| {
            let relation = generate(&profile, SEED).truncated(scale.frames(profile.frames));
            series_group(profile.name, &mcos_methods(), &query_counts, |kind, &n| {
                let workload = generate_workload(&WorkloadConfig::figure_8(n), SEED);
                let evaluator = CnfEvaluator::new(workload);
                measure_query_evaluation(&relation, window, kind, &evaluator, None)
            })
        })
        .collect()
}

/// The five method variants compared in Figure 9, in the paper's legend
/// order: display name, maintainer, and whether the Section 5.3 pruning
/// strategy is on (`_O`) or evaluation is CNFEvalE only (`_E`).
pub const FIG9_METHODS: [(&str, (MaintainerKind, bool)); 5] = [
    ("NAIVE_E", (MaintainerKind::Naive, false)),
    ("MFS_E", (MaintainerKind::Mfs, false)),
    ("SSG_E", (MaintainerKind::Ssg, false)),
    ("MFS_O", (MaintainerKind::Mfs, true)),
    ("SSG_O", (MaintainerKind::Ssg, true)),
];

/// **Figure 9** — total time with 100 `>=`-only queries as the smallest
/// threshold `n_min` varies from 1 to 9, on the real datasets (D1, D2, M1,
/// M2), comparing the `_E` variants with the pruning `_O` variants.
pub fn fig9(scale: Scale) -> Vec<(String, Vec<Series>)> {
    let window = scale.window(WindowSpec::paper_default());
    let n_mins = [1u32, 3, 5, 7, 9];
    [
        DatasetProfile::d1(),
        DatasetProfile::d2(),
        DatasetProfile::m1(),
        DatasetProfile::m2(),
    ]
    .into_iter()
    .map(|profile| {
        let relation = generate(&profile, SEED).truncated(scale.frames(profile.frames));
        let classes = Arc::new(relation.object_classes().clone());
        series_group(
            profile.name,
            &FIG9_METHODS,
            &n_mins,
            |(kind, pruned), &n_min| {
                let workload = generate_workload(&WorkloadConfig::figure_9(n_min), SEED);
                let evaluator = Arc::new(CnfEvaluator::new(workload));
                let pruner = if pruned {
                    GeqOnlyPruner::shared(Arc::clone(&evaluator), Arc::clone(&classes))
                } else {
                    None
                };
                measure_query_evaluation(&relation, window, kind, &evaluator, pruner)
            },
        )
    })
    .collect()
}

/// **Figure 10** — end-to-end average time per query (50 queries) for each
/// dataset and method. The paper's numbers include GPU object detection and
/// tracking; ours cover the query-processing pipeline over the synthesised
/// relation (the vision stage is a simulator), so only the relative ordering
/// of NAIVE/MFS/SSG is comparable.
pub fn fig10(scale: Scale) -> Vec<Series> {
    let window = scale.window(WindowSpec::paper_default());
    let num_queries = 50;
    let mut series: Vec<Series> = mcos_methods()
        .iter()
        .map(|&(name, _)| Series {
            method: name.to_owned(),
            points: Vec::new(),
        })
        .collect();
    for profile in DatasetProfile::all() {
        let relation = generate(&profile, SEED).truncated(scale.frames(profile.frames));
        let workload = generate_workload(&WorkloadConfig::figure_8(num_queries), SEED);
        let evaluator = CnfEvaluator::new(workload);
        for (idx, &(_, kind)) in mcos_methods().iter().enumerate() {
            let seconds = measure_query_evaluation(&relation, window, kind, &evaluator, None);
            series[idx]
                .points
                .push((profile.name.to_owned(), seconds / num_queries as f64));
        }
    }
    series
}

/// One skewed-grid ingestion run at one worker count.
#[derive(Debug, Clone)]
pub struct SkewRun {
    /// Configuration name (`1w` or `4w`), wall-clock seconds inside the
    /// `push_batch` loop, frames ingested and the merged fleet metrics.
    pub timing: MaintainerTiming,
    /// Total query matches (the honesty check across configurations).
    pub matches: u64,
    /// FNV-1a hash over every `(feed, frame, query matches)` result in
    /// ingestion order: two runs with equal transcripts produced
    /// bit-identical results. This is the scenario's determinism gate —
    /// placement may never change results.
    pub transcript: u64,
    /// The engine's worker-time telemetry (busy vs critical-path nanos).
    pub sched: SchedulingStats,
}

/// FNV-1a over the value's little-endian bytes.
fn fnv(mut hash: u64, value: u64) -> u64 {
    for byte in value.to_le_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Ingests the skewed camera grid on one worker (the serial baseline) and on
/// four, where each batch's placement must spread the hot cameras that
/// collide under `feed mod 4`, and returns the instrumented runs. Both must
/// produce identical transcripts. The grid is the [`SkewProfile`] default
/// (12 cameras, 2 hot colliding under mod-4 sharding, hotspot flip at
/// half-time).
pub fn skew(scale: Scale) -> Vec<SkewRun> {
    let window = scale.window(WindowSpec::new(30, 20).expect("static spec is valid"));
    let grid = skewed_grid(&SkewProfile::new(match scale {
        Scale::Paper => 600,
        Scale::Quick => 240,
    }));
    // Three frames per camera per batch.
    let batches: Vec<Vec<FeedFrame>> = interleave(&grid, grid.len() * 3)
        .into_iter()
        .map(|batch| batch.into_iter().map(FeedFrame::from).collect())
        .collect();
    [("1w", 1usize), ("4w", 4)]
        .into_iter()
        .map(|(method, workers)| {
            let config = MultiFeedConfig::new(
                EngineConfig::new(window).with_maintainer(MaintainerKind::Ssg),
            )
            .with_workers(workers);
            let mut engine = MultiFeedEngine::builder(config)
                .with_query_text("car >= 1 AND person >= 1")
                .expect("query parses")
                .with_query_text("car >= 2")
                .expect("query parses")
                .build()
                .expect("engine builds");
            let start = Instant::now();
            let mut matches = 0u64;
            let mut transcript = 0xcbf2_9ce4_8422_2325u64;
            for batch in &batches {
                for result in engine.push_batch(batch).expect("batch is accepted") {
                    matches += result.result.matches.len() as u64;
                    transcript = fnv(transcript, u64::from(result.feed.raw()));
                    transcript = fnv(transcript, result.result.frame.0);
                    transcript = fnv(transcript, result.result.matches.len() as u64);
                    for m in &result.result.matches {
                        transcript = fnv(transcript, u64::from(m.query.0));
                    }
                }
            }
            let seconds = start.elapsed().as_secs_f64();
            let report = engine.report().expect("report is collected");
            SkewRun {
                timing: MaintainerTiming {
                    method: method.to_owned(),
                    seconds,
                    frames: report.total_frames(),
                    metrics: report.metrics,
                },
                matches,
                transcript,
                sched: engine.scheduling_stats(),
            }
        })
        .collect()
}

/// The gate verdict over a [`skew`] run set. The determinism and
/// schedule-quality gates are machine-independent (identical transcripts;
/// worker-time critical path); the wall-clock gate only engages when the
/// machine actually has enough cores to show a wall-clock win.
#[derive(Debug, Clone)]
pub struct SkewVerdict {
    /// Both runs produced bit-identical results.
    pub identical_transcripts: bool,
    /// Schedule parallelism (busy / critical-path time) of the 4-worker
    /// run. ≥ 1.5 required: placement must spread the hot cameras well
    /// enough that the schedule itself admits the speedup.
    pub parallelism: f64,
    /// Wall-clock speedup of the 4-worker run over the 1-worker baseline
    /// (only meaningful with ≥ 4 cores).
    pub wall_clock_speedup: f64,
    /// Cores the machine offers (`std::thread::available_parallelism`).
    pub cores: usize,
}

impl SkewVerdict {
    /// Whether the wall-clock gate participates in [`Self::passes`] on this
    /// machine: with fewer than 4 cores four workers cannot show a
    /// wall-clock win no matter how good the schedule is, so the gate falls
    /// back to the schedule-parallelism criterion alone.
    pub fn wall_clock_gate_active(&self) -> bool {
        self.cores >= 4
    }

    /// The CI gate: identical results, a 4-worker schedule that admits
    /// ≥ 1.5× parallelism, and — on machines with enough cores — a ≥ 1.5×
    /// wall-clock win over the serial baseline.
    pub fn passes(&self) -> bool {
        self.identical_transcripts
            && self.parallelism >= 1.5
            && (!self.wall_clock_gate_active() || self.wall_clock_speedup >= 1.5)
    }
}

/// Computes the [`SkewVerdict`] for a [`skew`] run set.
pub fn skew_verdict(runs: &[SkewRun]) -> SkewVerdict {
    let find = |method: &str| {
        runs.iter()
            .find(|run| run.timing.method == method)
            .unwrap_or_else(|| panic!("skew run set misses {method}"))
    };
    let (one, four) = (find("1w"), find("4w"));
    SkewVerdict {
        identical_transcripts: runs.iter().all(|run| run.transcript == one.transcript),
        parallelism: four.sched.schedule_parallelism(),
        wall_clock_speedup: one.timing.seconds / four.timing.seconds.max(f64::EPSILON),
        cores: std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1),
    }
}

/// What a bounded-memory scenario reads off the engine after every frame.
struct Probe {
    /// The gated byte count (interner arena / class store + lifecycle maps).
    bytes: u64,
    /// The population behind it (interned sets / tracked objects).
    population: u64,
    /// Compaction (retirement) epochs run so far.
    epochs: u64,
}

/// One ingestion run of a bounded-memory scenario ([`long_churn`],
/// [`id_reuse`]), with compaction (and with it epoch retirement) off or on.
#[derive(Debug, Clone)]
pub struct MemoryRun {
    /// `"<METHOD>/on"` or `"<METHOD>/off"`, wall-clock seconds in the
    /// ingestion loop, frames ingested and the engine's counters after the
    /// run.
    pub timing: MaintainerTiming,
    /// Largest gated byte count observed at any frame.
    pub peak_bytes: u64,
    /// Largest population observed at any frame.
    pub peak_population: u64,
    /// The gated byte count around the first epoch — the ceiling the policy
    /// triggered at. `None` when the run never compacted. The gates bound
    /// `peak_bytes` against twice this.
    pub first_epoch_ceiling: Option<u64>,
}

impl MemoryRun {
    /// Whether the run had compaction enabled (the `/on` half of a pair).
    pub fn enabled(&self) -> bool {
        self.timing.method.ends_with("/on")
    }

    /// The footprint plateaus instead of growing with the feed: the peak
    /// stays within `2 ×` the first-epoch ceiling, across at least
    /// `min_epochs` epochs. Runs that never compacted fail.
    fn plateaus(&self, min_epochs: u64) -> bool {
        self.first_epoch_ceiling.is_some_and(|first| {
            self.timing.metrics.compactions >= min_epochs
                && self.peak_bytes <= first.saturating_mul(2)
        })
    }

    /// The long-churn gate (`repro long_churn` and `tests/gates.rs`), where
    /// the gated bytes are the interner arena: with compaction on, the peak
    /// must stay within `2 ×` the ceiling the first compaction epoch
    /// triggered at — the arena plateaus instead of growing monotonically.
    /// Runs that never compacted fail the gate.
    pub fn passes_arena_gate(&self) -> bool {
        self.plateaus(1)
    }

    /// The id-reuse gate (`repro id_reuse` and `tests/gates.rs`), where the
    /// gated bytes are the engine-side footprint (class store plus
    /// lifecycle maps): with retirement on, it must plateau — peak within
    /// `2 ×` the first-retirement ceiling — across enough epochs (≥ 50)
    /// for the plateau to mean something. Runs that never retired fail.
    pub fn passes_engine_memory_gate(&self) -> bool {
        self.plateaus(50)
    }
}

/// Frame budget of the long-churn and id-reuse feeds.
fn turnover_frames(scale: Scale) -> u64 {
    match scale {
        Scale::Paper => 10_000,
        Scale::Quick => 2_400,
    }
}

/// **Long churn** — hours-scale object turnover compressed into a bounded
/// frame budget (see [`tvq_video::churn`]): one camera, a rolling
/// population with a fresh object id every few frames, ingested end-to-end
/// (classed queries evaluated per frame) once with compaction off and once
/// with it on, for MFS and SSG. The interesting read-outs are sustained
/// frames/sec and the peak `interned_sets`/`arena_bytes`: monotone growth
/// with compaction off, a plateau with it on.
pub fn long_churn(scale: Scale) -> Vec<MemoryRun> {
    let feed = long_churn_feed(FeedId(0), &ChurnProfile::new(turnover_frames(scale)));
    // Checked every 32 frames, compact once less than half of an
    // at-least-512-entry arena is live — tight enough to produce several
    // epochs even at `--quick` scale.
    let policy = CompactionPolicy {
        check_interval: 32,
        max_live_ratio: 0.5,
        min_interned: 512,
    };
    off_on_runs(&feed.frames, policy, |engine| {
        // Borrowed maintainer counters: the per-frame sampling stays free
        // of the lock + clone the full `metrics()` accessor pays.
        let m = engine.maintainer_metrics();
        Probe {
            bytes: m.arena_bytes,
            population: m.interned_sets,
            epochs: m.compactions,
        }
    })
}

/// **Id reuse** — tracker identifiers recycled across class boundaries
/// (see [`tvq_video::id_reuse`]), ingested end-to-end once with epoch
/// retirement off (compaction disabled — the append-history baseline whose
/// class store and lifecycle maps grow with every generation ever seen)
/// and once with it on, for MFS and SSG. The interesting read-outs are the
/// peak `tracked_objects` / engine bytes — a plateau with retirement versus
/// monotone growth without — plus correct reuse semantics at full speed
/// (generation counts in the metrics).
pub fn id_reuse(scale: Scale) -> Vec<MemoryRun> {
    let profile = tvq_video::IdReuseProfile::new(turnover_frames(scale));
    let feed = tvq_video::id_reuse_feed(FeedId(0), &profile);
    // Checked every 16 frames and triggered by any meaningful slack, so a
    // quick-scale run still spans the ≥ 50 epochs the gate demands.
    let policy = CompactionPolicy {
        check_interval: 16,
        max_live_ratio: 0.9,
        min_interned: 64,
    };
    off_on_runs(&feed.frames, policy, |engine| {
        let m = engine.metrics();
        Probe {
            bytes: m.class_map_bytes + m.lifecycle_bytes,
            population: m.tracked_objects,
            epochs: m.compactions,
        }
    })
}

/// Builds the engine every churn/id-reuse run uses: the shared two-query
/// workload over a 60/40 window (smaller than the paper default: the
/// workloads' point is object turnover, not window stress), with the run's
/// maintainer and compaction knobs applied.
fn build_churn_bench_engine(
    kind: MaintainerKind,
    compaction: Option<CompactionPolicy>,
) -> TemporalVideoQueryEngine {
    let window = WindowSpec::new(60, 40).expect("static spec is valid");
    let config = EngineConfig::new(window)
        .with_maintainer(kind)
        .with_compaction(compaction);
    TemporalVideoQueryEngine::builder(config)
        .with_query_text("car >= 2 AND person >= 1")
        .expect("query parses")
        .with_query_text("car >= 3")
        .expect("query parses")
        .build()
        .expect("engine builds")
}

/// Times `frames` through `engine`; `after_frame(engine)` runs inside the
/// timed loop after every frame.
fn ingest(
    mut engine: TemporalVideoQueryEngine,
    frames: &[FrameObjects],
    method: String,
    mut after_frame: impl FnMut(&TemporalVideoQueryEngine),
) -> MaintainerTiming {
    let mut matches = 0usize;
    let start = Instant::now();
    for frame in frames {
        matches += engine
            .observe(frame)
            .expect("frames in order")
            .matches
            .len();
        after_frame(&engine);
    }
    let seconds = start.elapsed().as_secs_f64();
    std::hint::black_box(matches);
    MaintainerTiming {
        method,
        seconds,
        frames: frames.len() as u64,
        metrics: engine.metrics(),
    }
}

/// Ingests `frames` with MFS and SSG, each with compaction off and then on
/// under `policy`, probing the engine after every frame.
fn off_on_runs(
    frames: &[FrameObjects],
    policy: CompactionPolicy,
    probe: impl Fn(&TemporalVideoQueryEngine) -> Probe,
) -> Vec<MemoryRun> {
    let mut runs = Vec::new();
    for kind in [MaintainerKind::Mfs, MaintainerKind::Ssg] {
        for (label, compaction) in [("off", None), ("on", Some(policy))] {
            let (mut peak_bytes, mut peak_population, mut prev_bytes) = (0u64, 0u64, 0u64);
            let mut first_epoch_ceiling = None;
            let timing = ingest(
                build_churn_bench_engine(kind, compaction),
                frames,
                format!("{}/{label}", kind.name()),
                |engine| {
                    let now = probe(engine);
                    peak_bytes = peak_bytes.max(now.bytes);
                    peak_population = peak_population.max(now.population);
                    if first_epoch_ceiling.is_none() && now.epochs > 0 {
                        first_epoch_ceiling = Some(prev_bytes.max(now.bytes));
                    }
                    prev_bytes = now.bytes;
                },
            );
            runs.push(MemoryRun {
                timing,
                peak_bytes,
                peak_population,
                first_epoch_ceiling,
            });
        }
    }
    runs
}

/// Renders a per-dataset experiment as printable text: one table per
/// dataset, separated by blank lines.
pub fn render(title: &str, x_label: &str, results: &[(String, Vec<Series>)]) -> String {
    let tables: Vec<String> = results
        .iter()
        .map(|(dataset, series)| {
            format_table(&format!("{title} — dataset {dataset}"), x_label, series)
        })
        .collect();
    tables.join("\n")
}

/// One gate of a scenario: a claim about the run, spelled out with the
/// measured numbers, and whether it held.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// Whether the claim held.
    pub ok: bool,
    /// The claim, e.g. `MFS/on: peak 21632 <= 2 x first-epoch ceiling Some(20480)`.
    pub claim: String,
}

impl Gate {
    /// The line `repro` prints: `gate OK   <claim>` or `gate FAIL <claim>`.
    pub fn line(&self) -> String {
        let verdict = if self.ok { "OK  " } else { "FAIL" };
        format!("gate {verdict} {}", self.claim)
    }
}

/// What running one experiment produces.
#[derive(Debug, Clone)]
pub struct Output {
    /// The human-readable tables.
    pub text: String,
    /// Gate verdicts; empty for the paper's table and figures.
    pub gates: Vec<Gate>,
}

/// How an [`Experiment`] measures and renders itself.
#[derive(Clone, Copy)]
pub enum Run {
    /// A finished text table under the experiment's title (Table 6).
    Text(fn(Scale) -> String),
    /// One timing table per dataset (Figures 4–9).
    PerDataset(fn(Scale) -> Vec<(String, Vec<Series>)>),
    /// One timing table (Figure 10).
    Flat(fn(Scale) -> Vec<Series>),
    /// A beyond-the-paper scenario: renders itself and carries gates.
    Gated(fn(&Experiment, Scale) -> Output),
}

/// One row of the [`EXPERIMENTS`] table.
pub struct Experiment {
    /// The name `repro <name>` selects.
    pub name: &'static str,
    /// Title printed above the experiment's table(s).
    pub title: &'static str,
    /// Label of the first column.
    pub x_label: &'static str,
    /// How to run it.
    pub run: Run,
}

impl Experiment {
    /// Whether the experiment carries gates (known without running it).
    pub fn has_gates(&self) -> bool {
        matches!(self.run, Run::Gated(_))
    }

    /// Runs the experiment at `scale`.
    pub fn run(&self, scale: Scale) -> Output {
        let text = match self.run {
            Run::Text(table) => format!("{}\n{}", self.title, table(scale)),
            Run::PerDataset(figure) => render(self.title, self.x_label, &figure(scale)),
            Run::Flat(figure) => format_table(self.title, self.x_label, &figure(scale)),
            Run::Gated(scenario) => return scenario(self, scale),
        };
        Output {
            text,
            gates: Vec::new(),
        }
    }
}

/// Every experiment `repro` can run, in the order `repro all` runs them:
/// the paper's Table 6 and Figures 4–10, then the gated scenarios.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table6",
        title: "Table 6: dataset statistics (paper target vs. synthesised relation)",
        x_label: "dataset",
        run: Run::Text(table6),
    },
    Experiment {
        name: "fig4",
        title: "Figure 4: MCOS generation time vs. total frames",
        x_label: "frames",
        run: Run::PerDataset(fig4),
    },
    Experiment {
        name: "fig5",
        title: "Figure 5: MCOS generation time vs. duration d",
        x_label: "d (frames)",
        run: Run::PerDataset(fig5),
    },
    Experiment {
        name: "fig6",
        title: "Figure 6: MCOS generation time vs. window size w",
        x_label: "w (frames)",
        run: Run::PerDataset(fig6),
    },
    Experiment {
        name: "fig7",
        title: "Figure 7: MCOS generation time vs. occlusion parameter po",
        x_label: "po",
        run: Run::PerDataset(fig7),
    },
    Experiment {
        name: "fig8",
        title: "Figure 8: total time vs. number of queries",
        x_label: "queries",
        run: Run::PerDataset(fig8),
    },
    Experiment {
        name: "fig9",
        title: "Figure 9: total time vs. n_min (>=-only queries)",
        x_label: "n_min",
        run: Run::PerDataset(fig9),
    },
    Experiment {
        name: "fig10",
        title: "Figure 10: end-to-end average time per query (50 queries)",
        x_label: "dataset",
        run: Run::Flat(fig10),
    },
    Experiment {
        name: "long_churn",
        title: "Long churn: unbounded object turnover, compaction off vs. on",
        x_label: "method",
        run: Run::Gated(long_churn_output),
    },
    Experiment {
        name: "id_reuse",
        title: "Id reuse: recycled tracker ids, retirement off vs. on",
        x_label: "method",
        run: Run::Gated(id_reuse_output),
    },
    Experiment {
        name: "skew",
        title: "Skewed feeds: hot cameras colliding under feed mod 4, placed per batch",
        x_label: "method",
        run: Run::Gated(skew_output),
    },
];

/// Looks an experiment up by name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS
        .iter()
        .find(|experiment| experiment.name == name)
}

/// One scenario table row: the `method`, `seconds` and `frames/sec` cells
/// every row starts with, then the scenario's own.
fn scenario_row<const N: usize>(timing: &MaintainerTiming, rest: [String; N]) -> Vec<String> {
    let lead = [
        timing.method.clone(),
        format!("{:.3}", timing.seconds),
        format!("{:.0}", timing.frames_per_sec()),
    ];
    lead.into_iter().chain(rest).collect()
}

fn long_churn_output(experiment: &Experiment, scale: Scale) -> Output {
    let runs = long_churn(scale);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let epochs = run.timing.metrics.compactions;
            let cells = [run.peak_population, run.peak_bytes, epochs];
            scenario_row(&run.timing, cells.map(|cell| cell.to_string()))
        })
        .collect();
    let columns = [
        (experiment.x_label, 10),
        ("seconds", 10),
        ("frames/sec", 12),
        ("peak interned", 14),
        ("peak arena B", 14),
        ("compactions", 12),
    ];
    Output {
        text: text_table(experiment.title, &columns, &rows),
        gates: (runs.iter().filter(|run| run.enabled()))
            .map(|run| Gate {
                ok: run.passes_arena_gate(),
                claim: format!(
                    "{}: peak {} <= 2 x first-epoch ceiling {:?}",
                    run.timing.method, run.peak_bytes, run.first_epoch_ceiling
                ),
            })
            .collect(),
    }
}

/// The baseline half of the id-reuse gate: each `/off` run must demonstrably
/// outgrow its retiring `/on` twin (factor 2 — in practice it is far larger
/// and keeps growing with the feed length). One `(method, outgrows)` pair
/// per maintainer.
pub fn baseline_outgrows(runs: &[MemoryRun]) -> Vec<(String, bool)> {
    (runs.iter().filter(|run| run.enabled()))
        .filter_map(|on| {
            let base = on.timing.method.trim_end_matches("/on");
            let off = runs
                .iter()
                .find(|run| run.timing.method == format!("{base}/off"))?;
            let outgrows = off.peak_bytes >= on.peak_bytes.saturating_mul(2);
            Some((base.to_owned(), outgrows))
        })
        .collect()
}

fn id_reuse_output(experiment: &Experiment, scale: Scale) -> Output {
    let runs = id_reuse(scale);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let metrics = &run.timing.metrics;
            let (epochs, generations) = (metrics.compactions, metrics.generations_started);
            let cells = [run.peak_population, run.peak_bytes, epochs, generations];
            scenario_row(&run.timing, cells.map(|cell| cell.to_string()))
        })
        .collect();
    let columns = [
        (experiment.x_label, 10),
        ("seconds", 10),
        ("frames/sec", 12),
        ("tracked", 10),
        ("engine bytes", 14),
        ("epochs", 10),
        ("generations", 12),
    ];
    let mut gates: Vec<Gate> = (runs.iter().filter(|run| run.enabled()))
        .map(|run| Gate {
            ok: run.passes_engine_memory_gate(),
            claim: format!(
                "{}: peak {}B <= 2 x first-epoch ceiling {:?} over {} epochs",
                run.timing.method,
                run.peak_bytes,
                run.first_epoch_ceiling,
                run.timing.metrics.compactions
            ),
        })
        .collect();
    let outgrows = baseline_outgrows(&runs);
    gates.extend(outgrows.into_iter().map(|(method, ok)| Gate {
        ok,
        claim: format!("{method}: append-history baseline outgrows the retiring run"),
    }));
    Output {
        text: text_table(experiment.title, &columns, &rows),
        gates,
    }
}

fn skew_output(experiment: &Experiment, scale: Scale) -> Output {
    let runs = skew(scale);
    let verdict = skew_verdict(&runs);
    let rows: Vec<Vec<String>> = runs
        .iter()
        .map(|run| {
            let cells = [
                format!("{:.2}", run.sched.schedule_parallelism()),
                run.matches.to_string(),
                format!("{:08x}", run.transcript >> 32),
            ];
            scenario_row(&run.timing, cells)
        })
        .collect();
    let columns = [
        (experiment.x_label, 14),
        ("seconds", 9),
        ("frames/sec", 12),
        ("parallelism", 13),
        ("matches", 10),
        ("transcript", 12),
    ];
    let text = format!(
        "{}transcripts identical: {}; wall-clock speedup vs 1w: {:.2}x ({} cores{})\n",
        text_table(experiment.title, &columns, &rows),
        verdict.identical_transcripts,
        verdict.wall_clock_speedup,
        verdict.cores,
        if verdict.wall_clock_gate_active() {
            ""
        } else {
            "; wall-clock gate inactive below 4 cores"
        },
    );
    Output {
        text,
        gates: vec![Gate {
            ok: verdict.passes(),
            claim: format!(
                "parallelism {:.2} >= 1.5, wall-clock {:.2}x",
                verdict.parallelism, verdict.wall_clock_speedup
            ),
        }],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_frame_counts_end_at_the_dataset_length() {
        for profile in DatasetProfile::all() {
            let counts = fig4_frame_counts(&profile);
            assert_eq!(*counts.last().unwrap(), profile.frames);
            assert!(counts.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn quick_scale_experiments_produce_complete_series() {
        let results = fig4(Scale::Quick);
        assert_eq!(results.len(), 6);
        for (dataset, series) in &results {
            assert_eq!(series.len(), 3, "{dataset}");
            for s in series {
                assert!(!s.points.is_empty());
                assert!(s.points.iter().all(|&(_, v)| v.is_finite() && v >= 0.0));
            }
        }
        let rendered = render("Figure 4", "frames", &results);
        assert!(rendered.contains("dataset V1"));
        assert!(rendered.contains("NAIVE"));
    }

    #[test]
    fn fig9_methods_cover_the_paper_legend() {
        let names: Vec<&str> = FIG9_METHODS.iter().map(|&(name, _)| name).collect();
        assert_eq!(names, vec!["NAIVE_E", "MFS_E", "SSG_E", "MFS_O", "SSG_O"]);
        for (name, (kind, pruned)) in FIG9_METHODS {
            assert!(name.starts_with(kind.name()), "{name}");
            assert_eq!(pruned, name.ends_with("_O"), "{name}");
        }
    }

    #[test]
    fn table6_mentions_every_dataset() {
        let table = table6(Scale::Quick);
        for name in ["V1", "V2", "D1", "D2", "M1", "M2"] {
            assert!(table.contains(name), "missing {name} in {table}");
        }
    }
}
