//! Bounded exhaustive model check of the lifecycle/compaction/remap and
//! catalog-swap protocols, with conformance replay against the real
//! implementations. CI runs this in release mode; any violation exits
//! non-zero after printing the shortest counterexample trace.
//!
//! Usage: `model_check [--lifecycle-depth N] [--engine-depth N]
//! [--catalog-depth N] [--skip-engine] [--workers N] [--symmetry]`
//!
//! `--symmetry` explores each model's symmetry quotient (feed/class swaps
//! for the lifecycle model, version-residue rotation for the catalog
//! model) and `--workers N` shards the frontier across N threads. Both are
//! report-preserving: any configuration prints byte-identical output for
//! the same depths.

use std::process::ExitCode;

use tvq_check::{conformance, CatalogModel, LifecycleModel, Machine, Report, Traversal};

struct Args {
    lifecycle_depth: usize,
    engine_depth: usize,
    catalog_depth: usize,
    skip_engine: bool,
    workers: usize,
    symmetry: bool,
}

fn parse_args() -> Result<Args, String> {
    // Defaults sized for a sub-minute release-mode CI run: lifecycle 6 is
    // ~700k states / 2.1M transitions, engine 5 replays 104k states through
    // two real engines, catalog 8 is the full ~20k-state fixpoint region.
    // Deeper lifecycle runs want `--symmetry` (≈4× fewer canonical states).
    let mut args = Args {
        lifecycle_depth: 6,
        engine_depth: 5,
        catalog_depth: 8,
        skip_engine: false,
        workers: 1,
        symmetry: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut depth = |name: &str| -> Result<usize, String> {
            let value = iter.next().ok_or_else(|| format!("{name} needs a value"))?;
            value.parse().map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--lifecycle-depth" => args.lifecycle_depth = depth("--lifecycle-depth")?,
            "--engine-depth" => args.engine_depth = depth("--engine-depth")?,
            "--catalog-depth" => args.catalog_depth = depth("--catalog-depth")?,
            "--skip-engine" => args.skip_engine = true,
            "--workers" => args.workers = depth("--workers")?.max(1),
            "--symmetry" => args.symmetry = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

impl Args {
    /// Applies the shared exploration flags to a traversal.
    fn configure<M: Machine>(&self, traversal: Traversal<M>) -> Traversal<M> {
        traversal
            .with_workers(self.workers)
            .with_symmetry(self.symmetry)
    }
}

fn run<M: Machine>(name: &str, report: &Report<M>) -> bool {
    print!("{}", report.render(name));
    report.ok()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("model_check: {message}");
            return ExitCode::from(2);
        }
    };
    let mut ok = true;

    // Lifecycle model with component-level conformance replay: every edge's
    // witness path drives ObjectLifecycle + SetInterner + shared ClassStore
    // (one independent replay stack per worker lane).
    let lifecycle = args.configure(Traversal::new(LifecycleModel, args.lifecycle_depth));
    let report =
        lifecycle.run_sharded(|_worker| |path: &[_], _: &_| conformance::replay_component(path));
    ok &= run("lifecycle (component replay)", &report);

    // The same model replayed through two full engines sharing a class
    // store — shallower (each edge builds two engines) but end to end.
    if args.skip_engine {
        println!("model lifecycle (engine replay): skipped");
    } else {
        let engine = args.configure(Traversal::new(LifecycleModel, args.engine_depth));
        let report =
            engine.run_sharded(|_worker| |path: &[_], _: &_| conformance::replay_engine(path));
        ok &= run("lifecycle (engine replay)", &report);
    }

    // Catalog-swap model with verdict-cache conformance replay.
    let catalog = args.configure(Traversal::new(CatalogModel, args.catalog_depth));
    let report =
        catalog.run_sharded(|_worker| |path: &[_], _: &_| conformance::replay_catalog(path));
    ok &= run("catalog-swap (verdict-cache replay)", &report);

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
