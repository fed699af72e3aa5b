//! Bounded exhaustive model check of the lifecycle/compaction/remap and
//! catalog-swap protocols, with conformance replay against the real
//! implementations. CI runs this in release mode; any violation exits
//! non-zero after printing the shortest counterexample trace.
//!
//! Usage: `model_check [--lifecycle-depth N] [--engine-depth N]
//! [--catalog-depth N] [--skip-engine] [--symmetry]`
//!
//! `--symmetry` explores each model's symmetry quotient (class swap for
//! the lifecycle model, version-residue rotation for the catalog model).
//! Each BFS level is expanded on one thread per available CPU; the report
//! is the same on any machine.

use std::process::ExitCode;

use tvq_check::{conformance, CatalogModel, LifecycleModel, Machine, Report, Traversal};

struct Args {
    lifecycle_depth: usize,
    engine_depth: usize,
    catalog_depth: usize,
    skip_engine: bool,
    symmetry: bool,
}

fn parse_args() -> Result<Args, String> {
    // Defaults sized for a release-mode CI run of seconds: lifecycle 8 is
    // ~144k states / 474k transitions, engine 6 replays 15k states through
    // a real engine, catalog 8 is the full ~20k-state fixpoint region.
    // Deeper lifecycle runs want `--symmetry` (≈2× fewer canonical states).
    let mut args = Args {
        lifecycle_depth: 8,
        engine_depth: 6,
        catalog_depth: 8,
        skip_engine: false,
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
            "--symmetry" => args.symmetry = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
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
    // witness path drives ObjectLifecycle (with its ClassStore) +
    // SetInterner.
    let report = Traversal::new(LifecycleModel, args.lifecycle_depth)
        .with_symmetry(args.symmetry)
        .run_with(|| |path: &[_], _: &_| conformance::replay_component(path));
    ok &= run("lifecycle (component replay)", &report);

    // The same model replayed through a full engine — shallower (each edge
    // builds an engine) but end to end.
    if args.skip_engine {
        println!("model lifecycle (engine replay): skipped");
    } else {
        let report = Traversal::new(LifecycleModel, args.engine_depth)
            .with_symmetry(args.symmetry)
            .run_with(|| |path: &[_], _: &_| conformance::replay_engine(path));
        ok &= run("lifecycle (engine replay)", &report);
    }

    // Catalog-swap model with verdict-cache conformance replay.
    let report = Traversal::new(CatalogModel, args.catalog_depth)
        .with_symmetry(args.symmetry)
        .run_with(|| |path: &[_], _: &_| conformance::replay_catalog(path));
    ok &= run("catalog-swap (verdict-cache replay)", &report);

    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
