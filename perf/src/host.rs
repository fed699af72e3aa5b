//! The machine a result came from, and the scratch directory a run owns.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::Value;
use crate::Res;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Worker threads of the sharded engine: `min(nproc, 2)`. The load
/// generator is one thread in a closed loop, blocked while the workers run,
/// so runnable threads never outnumber the processors.
pub fn workers() -> usize {
    nproc().min(2)
}

/// Milliseconds a fixed integer loop takes: a noisy or throttled host shows
/// here, next to the numbers it distorted.
pub fn spin_ms() -> f64 {
    let started = Instant::now();
    let mut x = 1u64;
    for i in 0..20_000_000u64 {
        x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output
        .status
        .success()
        .then(|| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
}

fn cpu_model() -> Option<String> {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()?
        .lines()
        .find(|line| line.starts_with("model name"))
        .and_then(|line| line.split_once(':'))
        .map(|(_, model)| model.trim().to_string())
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mountinfo`.
fn filesystem_of(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            // "<id> <parent> <dev> <root> <mount point> <options>... - <type> ..."
            let (before, after) = line.split_once(" - ")?;
            let mount_point = before.split(' ').nth(4)?;
            let fs_type = after.split(' ').next()?;
            path.starts_with(mount_point)
                .then(|| (mount_point.len(), fs_type.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map(|(_, fs_type)| fs_type)
}

/// The `perf/` directory: `cargo run` and `cargo test` name it; a bare
/// binary is expected to start, as the driver does, from the repository
/// root.
fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR").map_or("perf".into(), PathBuf::from)
}

/// What every output starts with.
pub struct Header {
    pub git_rev: String,
    pub seed: u64,
    pub scale: &'static str,
    pub nproc: usize,
    pub cpu: String,
    pub kernel: String,
    pub rustc: String,
    pub data_fs: String,
}

impl Header {
    pub fn collect(seed: u64, scale: &'static str, data_dir: &Path) -> Header {
        let unknown = || "unknown".to_string();
        // Asked only where this checkout is a repository itself: git would
        // otherwise go looking through the directories above it.
        let git_rev = package_dir()
            .join("../.git")
            .exists()
            .then(|| command_line("git", &["rev-parse", "--short", "HEAD"]))
            .flatten();
        Header {
            git_rev: git_rev.unwrap_or_else(unknown),
            seed,
            scale,
            nproc: nproc(),
            cpu: cpu_model().unwrap_or_else(unknown),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| unknown(), |s| s.trim().to_string()),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            data_fs: filesystem_of(data_dir).unwrap_or_else(unknown),
        }
    }

    /// A data directory in memory makes `churn-durable` measure nothing.
    pub fn data_fs_is_memory(&self) -> bool {
        matches!(self.data_fs.as_str(), "tmpfs" | "ramfs")
    }

    pub fn print(&self) {
        println!(
            "tvq-perf  git {}  seed {}  scale {}  nproc {}  workers {}",
            self.git_rev,
            self.seed,
            self.scale,
            self.nproc,
            workers()
        );
        println!("  cpu {}  kernel {}  {}", self.cpu, self.kernel, self.rustc);
        let warning = if self.data_fs_is_memory() {
            "  (WARNING: in memory, churn-durable's fsyncs cost nothing)"
        } else {
            ""
        };
        println!("  data dir on {}{warning}", self.data_fs);
    }

    /// The header as the fields of a JSON object.
    pub fn fields(&self) -> Vec<(String, Value)> {
        vec![
            ("git_rev".to_string(), Value::str(&self.git_rev)),
            ("seed".to_string(), Value::Num(self.seed as f64)),
            ("scale".to_string(), Value::str(self.scale)),
            ("nproc".to_string(), Value::Num(self.nproc as f64)),
            ("workers".to_string(), Value::Num(workers() as f64)),
            ("cpu".to_string(), Value::str(&self.cpu)),
            ("kernel".to_string(), Value::str(&self.kernel)),
            ("rustc".to_string(), Value::str(&self.rustc)),
            ("data_fs".to_string(), Value::str(&self.data_fs)),
        ]
    }
}

/// `perf/.data/<run-id>/`, removed when dropped — on success, on failure and
/// on unwinding — unless the run was asked to keep it.
pub struct DataDir {
    path: PathBuf,
    keep: bool,
}

impl DataDir {
    pub fn create(keep: bool) -> Res<DataDir> {
        let millis = SystemTime::now().duration_since(UNIX_EPOCH)?.as_millis();
        let path = package_dir()
            .join(".data")
            .join(format!("run-{millis}-{}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(DataDir { path, keep })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for DataDir {
    fn drop(&mut self) {
        if self.keep {
            // Not on standard output: its last line is the result.
            eprintln!("data kept in {}", self.path.display());
        } else {
            // Best effort: a failed cleanup must not mask the run's result.
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}
