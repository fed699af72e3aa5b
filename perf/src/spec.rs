//! What the benchmark declares: its workloads and its metrics.
//!
//! This table is the single source of the root `BENCHMARK.json`
//! (`tvq-perf spec` prints it; a test compares the two), so a metric cannot
//! be measured without being declared or declared without being measured.

use crate::json::Value;

/// How long one driver run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 8;

/// The command the driver runs from the root of a checkout; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perf/Cargo.toml",
    "--",
];

/// One workload: its name and the one-line reason it exists.
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const DENSE_EMBEDDED: &str = "dense-embedded";
pub const CHURN_EMBEDDED: &str = "churn-embedded";
pub const CHURN_DURABLE: &str = "churn-durable";
pub const GRID_SHARDED: &str = "grid-sharded";
pub const SERVER_LIVE: &str = "server-live";

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: DENSE_EMBEDDED,
        why: "dense short-lived objects, 50 mixed queries: every frame mints new sets, so core (SSG traversal, interner misses, bitmap kernels) does almost all the work",
    },
    WorkloadSpec {
        name: CHURN_EMBEDDED,
        why: "recurring sets, 100 >=-only queries, ~450 matches a frame: memo hits, compaction epochs and query evaluation dominate; the maintainer is cheap",
    },
    WorkloadSpec {
        name: CHURN_DURABLE,
        why: "the churn prefix with WAL and snapshots on the real disk, crash images recovered and resumed: the store (one fsync a frame) is the bill",
    },
    WorkloadSpec {
        name: GRID_SHARDED,
        why: "six cameras, two of them dense, through the 2-worker sharded engine: shard map, stealing, dispatch and merge under skew",
    },
    WorkloadSpec {
        name: SERVER_LIVE,
        why: "a sparse feed over the TCP server, FRAME then POLL, with catalog swaps: framing, socket, mutex and hub are most of the frame-to-match time",
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One declared metric. `bound` is the share of the base's median by which
/// an end-to-end metric may worsen before it counts as a regression;
/// per-layer metrics carry none.
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

pub const SETUP_S: &str = "setup_s";
pub const FRAMES_PER_S: &str = "frames_per_s";
pub const FRAME_P50_US: &str = "frame_p50_us";
pub const FRAME_P99_US: &str = "frame_p99_us";
pub const FAILED_SHARE: &str = "failed_share";
pub const STATE_BYTES_PEAK: &str = "state_bytes_peak";
pub const DISK_BYTES_PER_FRAME: &str = "disk_bytes_per_frame";
pub const RECOVER_MS: &str = "recover_ms";

/// What a user of the system sees, with the bounds `compare` holds two
/// result files to. The last two are `churn-durable`'s alone.
pub const END_TO_END: [MetricSpec; 8] = [
    e2e(SETUP_S, "s", Better::Lower, 0.25),
    e2e(FRAMES_PER_S, "frames/s", Better::Higher, 0.10),
    e2e(FRAME_P50_US, "us", Better::Lower, 0.10),
    e2e(FRAME_P99_US, "us", Better::Lower, 0.10),
    e2e(FAILED_SHARE, "ratio", Better::Lower, 0.0),
    e2e(STATE_BYTES_PEAK, "bytes", Better::Lower, 0.02),
    e2e(DISK_BYTES_PER_FRAME, "bytes", Better::Lower, 0.02),
    e2e(RECOVER_MS, "ms", Better::Lower, 0.10),
];

/// The end-to-end metrics `BENCHMARK.json` lists as such, which its driver
/// gates; the six others it lists, names unchanged, among the per-layer
/// ones. The driver wants every end-to-end metric from every workload,
/// never 0, and spread over ten seeds by less than a bound of at most a
/// quarter. `failed_share` is 0 and the two durable metrics exist on one
/// workload. The three timings move by a third to a half from one run to
/// the next on the host this was built on, whatever the estimator (README,
/// "What the driver gates"): `compare` reports them, *unresolved* when
/// the runs' own spread says so.
pub const DRIVER_GATED: [&str; 2] = [SETUP_S, STATE_BYTES_PEAK];

use Better::{Higher, Lower};

/// Reported on the traced run, after the end-to-end metrics the driver does
/// not gate. A workload that does not drive a layer reports that layer's
/// metrics as 0.
pub const PER_LAYER: [MetricSpec; 66] = [
    layer("video.generate_s", "s", Lower),
    layer("video.frames", "count", Higher),
    layer("video.objects_per_frame", "count", Higher),
    layer("bench.reference_s", "s", Lower),
    layer("core.lifecycle.resolve_us", "us", Lower),
    layer("core.ssg.advance_us", "us", Lower),
    layer("core.mfs.advance_us", "us", Lower),
    layer("core.advance_p99_us", "us", Lower),
    layer("core.compact_us_per_epoch", "us", Lower),
    layer("core.compactions", "count", Lower),
    layer("core.states_created", "count", Lower),
    layer("core.states_visited", "count", Lower),
    layer("core.intersections", "count", Lower),
    layer("core.memo_hit_ratio", "ratio", Higher),
    layer("core.peak_live_states", "count", Lower),
    layer("core.interned_sets", "count", Lower),
    layer("core.arena_bytes", "bytes", Lower),
    layer("core.bitmap_bytes", "bytes", Lower),
    layer("core.result_states_per_frame", "count", Lower),
    layer("query.eval_us", "us", Lower),
    layer("query.matches_per_frame", "count", Higher),
    layer("query.pruned_ratio", "ratio", Higher),
    layer("query.parse_us", "us", Lower),
    layer("engine.observe_us", "us", Lower),
    layer("engine.observe_self_us", "us", Lower),
    layer("engine.hub.publish_us", "us", Lower),
    layer("engine.hub.poll_us", "us", Lower),
    layer("engine.hub.events_per_frame", "count", Higher),
    layer("engine.hub.dropped", "count", Lower),
    layer("engine.catalog.swap_us", "us", Lower),
    layer("engine.persist.encode_us", "us", Lower),
    layer("engine.recover.replayed_records", "count", Lower),
    layer("engine.multi.busy_s", "s", Lower),
    layer("engine.multi.critical_path_s", "s", Lower),
    layer("engine.multi.schedule_parallelism", "ratio", Higher),
    layer("engine.multi.dispatch_us_per_batch", "us", Lower),
    layer("engine.multi.migrations", "count", Lower),
    layer("engine.multi.rebalances", "count", Lower),
    layer("engine.multi.speedup_vs_1w", "ratio", Higher),
    layer("store.wal.append_us", "us", Lower),
    layer("store.wal.sync_us", "us", Lower),
    layer("store.wal.sync_p99_us", "us", Lower),
    layer("store.snap.save_us", "us", Lower),
    layer("store.snap.load_us", "us", Lower),
    layer("store.wal.read_us", "us", Lower),
    layer("store.fsyncs_per_frame", "count", Lower),
    layer("store.wal_bytes_per_frame", "bytes", Lower),
    layer("store.snapshot_bytes_per_frame", "bytes", Lower),
    layer("store.snapshots", "count", Lower),
    layer("store.device_share", "ratio", Lower),
    layer("server.rtt_ping_us", "us", Lower),
    layer("server.frame_rtt_us", "us", Lower),
    layer("server.poll_rtt_us", "us", Lower),
    layer("server.shell_us", "us", Lower),
    layer("server.proto.encode_us", "us", Lower),
    layer("server.proto.decode_us", "us", Lower),
    layer("server.req_bytes_per_frame", "bytes", Lower),
    layer("server.resp_bytes_p50", "bytes", Lower),
    layer("server.resp_bytes_max", "bytes", Lower),
    layer("server.slow_rtt_share", "ratio", Lower),
    layer("server.errors", "count", Lower),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_share", "ratio", Lower),
    layer("host.nproc", "count", Higher),
    layer("host.spin_ms_before", "ms", Lower),
    layer("host.spin_ms_after", "ms", Lower),
];

/// The declared metric called `name`.
pub fn metric(name: &str) -> Option<&'static MetricSpec> {
    END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name)
}

/// What the driver's untraced run reports: `end_to_end` in `BENCHMARK.json`.
pub fn driver_end_to_end() -> impl Iterator<Item = &'static MetricSpec> {
    END_TO_END.iter().filter(|m| DRIVER_GATED.contains(&m.name))
}

/// What the driver's traced run reports: `per_layer` in `BENCHMARK.json`.
pub fn driver_per_layer() -> impl Iterator<Item = &'static MetricSpec> {
    END_TO_END
        .iter()
        .filter(|m| !DRIVER_GATED.contains(&m.name))
        .chain(&PER_LAYER)
}

fn metric_json(metric: &MetricSpec, with_bound: bool) -> Value {
    let mut fields = vec![
        ("name".to_string(), Value::str(metric.name)),
        ("unit".to_string(), Value::str(metric.unit)),
        ("better".to_string(), Value::str(metric.better.as_str())),
    ];
    if let Some(bound) = metric.bound.filter(|_| with_bound) {
        fields.push(("bound".to_string(), Value::Num(bound)));
    }
    Value::Obj(fields)
}

/// The contents of the root `BENCHMARK.json`.
pub fn benchmark_json() -> Value {
    Value::Obj(vec![
        (
            "command".to_string(),
            Value::Arr(COMMAND.iter().map(|s| Value::str(s)).collect()),
        ),
        ("paths".to_string(), Value::Arr(vec![Value::str("perf")])),
        ("run_seconds".to_string(), Value::Num(RUN_SECONDS as f64)),
        (
            "workloads".to_string(),
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Value::Obj(vec![
                            ("name".to_string(), Value::str(w.name)),
                            ("why".to_string(), Value::str(w.why)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end".to_string(),
            Value::Arr(driver_end_to_end().map(|m| metric_json(m, true)).collect()),
        ),
        (
            "per_layer".to_string(),
            Value::Arr(driver_per_layer().map(|m| metric_json(m, false)).collect()),
        ),
    ])
}
