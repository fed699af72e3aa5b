//! Integration gates for the model checker.
//!
//! Two mutually exclusive halves, selected by the `check-mutants` feature:
//!
//! * **Default build** — exhaustiveness gates: each model explores well past
//!   10k canonical states with zero invariant violations, every enumerated
//!   action sequence replays conformantly through the real
//!   lifecycle/interner stack (and the full engine, shallower), and the
//!   parallel / symmetry-reduced configurations are pinned to the
//!   sequential reports (identical counters, byte-identical rendering and
//!   counterexamples).
//! * **`--features check-mutants`** — negative controls: the same replays
//!   run against deliberately broken implementations and the checker must
//!   *find* every planted bug, each with a shortest printed counterexample
//!   trace. A checker that cannot see a planted bug proves nothing about
//!   the absence of real ones. The feed-asymmetric retirement mutant runs
//!   under `--symmetry` specifically: finding a bug that only exists on
//!   feed 1 proves the quotient replays concrete runs on both feeds.
//!
//! Depths here are lower than the `model_check` binary's defaults so the
//! suite stays fast in debug builds; the binary (run in release by CI)
//! covers the deeper frontiers.

use tvq_check::{conformance, CatalogModel, LifecycleModel, Traversal};

#[cfg(not(feature = "check-mutants"))]
mod conformant {
    use super::*;
    use tvq_check::{Machine, Report};

    /// Lifecycle/compaction/remap protocol: ≥10k canonical states, every
    /// edge replayed through `ObjectLifecycle` + `SetInterner` + shared
    /// `ClassStore`, zero divergences.
    #[test]
    fn lifecycle_model_explores_past_10k_states_and_replays_conformantly() {
        let report = Traversal::new(LifecycleModel, 4)
            .run_with(|path, _| conformance::replay_component(path));
        assert!(report.ok(), "{}", report.render("lifecycle"));
        assert!(
            report.states_explored >= 10_000,
            "only {} states explored",
            report.states_explored
        );
    }

    /// The same action sequences driven end to end through two real engines
    /// sharing a class store. Shallower — every edge builds two engines —
    /// but this is the replay that pins match output and `live_states`.
    #[test]
    fn engine_replay_conforms() {
        let report =
            Traversal::new(LifecycleModel, 3).run_with(|path, _| conformance::replay_engine(path));
        assert!(report.ok(), "{}", report.render("engine"));
        assert!(
            report.states_explored >= 1_000,
            "{}",
            report.states_explored
        );
    }

    /// Catalog-swap protocol: ≥10k canonical states, the verdict cache
    /// always agreeing with the catalog version it was populated under.
    #[test]
    fn catalog_model_explores_past_10k_states_and_replays_conformantly() {
        let report =
            Traversal::new(CatalogModel, 7).run_with(|path, _| conformance::replay_catalog(path));
        assert!(report.ok(), "{}", report.render("catalog"));
        assert!(
            report.states_explored >= 10_000,
            "only {} states explored",
            report.states_explored
        );
    }

    fn assert_reports_match<M: Machine>(name: &str, a: &Report<M>, b: &Report<M>) {
        assert_eq!(a.states_explored, b.states_explored, "{name}: states");
        assert_eq!(a.transitions, b.transitions, "{name}: transitions");
        assert_eq!(a.max_depth_reached, b.max_depth_reached, "{name}: depth");
        assert_eq!(a.per_depth, b.per_depth, "{name}: per-depth counters");
        assert_eq!(
            a.symmetry_relabels, b.symmetry_relabels,
            "{name}: symmetry counter"
        );
        assert_eq!(a.violations.len(), b.violations.len(), "{name}: violations");
        for (va, vb) in a.violations.iter().zip(&b.violations) {
            assert_eq!(va.message, vb.message, "{name}: violation message");
            assert_eq!(
                format!("{:?}", va.trace),
                format!("{:?}", vb.trace),
                "{name}: counterexample trace"
            );
            assert_eq!(va.state, vb.state, "{name}: violation state");
        }
    }

    /// Parallel exploration is report-preserving: `--workers 4` produces
    /// the same state/transition counts as the sequential run, on both
    /// models, with and without symmetry reduction.
    #[test]
    fn parallel_runs_match_sequential_reports() {
        for symmetry in [false, true] {
            let sequential = Traversal::new(LifecycleModel, 4)
                .with_symmetry(symmetry)
                .run();
            let parallel = Traversal::new(LifecycleModel, 4)
                .with_symmetry(symmetry)
                .with_workers(4)
                .run();
            assert_reports_match("lifecycle", &sequential, &parallel);
            assert!(sequential.ok());

            let sequential = Traversal::new(CatalogModel, 6)
                .with_symmetry(symmetry)
                .run();
            let parallel = Traversal::new(CatalogModel, 6)
                .with_symmetry(symmetry)
                .with_workers(4)
                .run();
            assert_reports_match("catalog", &sequential, &parallel);
            assert!(sequential.ok());
        }
    }

    /// Sharded conformance replay (one replay stack per worker) sees the
    /// same exploration as the single-hook sequential run.
    #[test]
    fn sharded_replay_matches_single_hook_replay() {
        let sequential = Traversal::new(LifecycleModel, 3)
            .run_with(|path, _| conformance::replay_component(path));
        let sharded = Traversal::new(LifecycleModel, 3)
            .with_workers(4)
            .run_sharded(|_worker| |path: &[_], _: &_| conformance::replay_component(path));
        assert_reports_match("lifecycle replay", &sequential, &sharded);
        assert!(sequential.ok(), "{}", sequential.render("lifecycle"));
    }

    /// Symmetry reduction shrinks the canonical state space without
    /// changing the verdict, and actually fires (the relabel counter is
    /// nonzero). The conformance replay stays green through the quotient —
    /// replayed paths are genuine concrete runs.
    #[test]
    fn symmetry_reduction_shrinks_and_stays_conformant() {
        let full = Traversal::new(LifecycleModel, 4).run();
        let reduced = Traversal::new(LifecycleModel, 4)
            .with_symmetry(true)
            .run_with(|path, _| conformance::replay_component(path));
        assert!(reduced.ok(), "{}", reduced.render("lifecycle quotient"));
        assert!(
            reduced.states_explored * 2 < full.states_explored,
            "quotient should at least halve the space: {} vs {}",
            reduced.states_explored,
            full.states_explored
        );
        assert!(reduced.symmetry_relabels > 0, "symmetry never fired");

        let full = Traversal::new(CatalogModel, 6).run();
        let reduced = Traversal::new(CatalogModel, 6)
            .with_symmetry(true)
            .run_with(|path, _| conformance::replay_catalog(path));
        assert!(reduced.ok(), "{}", reduced.render("catalog quotient"));
        assert!(
            reduced.states_explored < full.states_explored,
            "rotation quotient should shrink: {} vs {}",
            reduced.states_explored,
            full.states_explored
        );
    }

    /// A deliberately violating toy machine: two bounded counters whose sum
    /// must stay below 6, reachable through many interleavings — several
    /// states violate on the same BFS level, exercising the deterministic
    /// violation ordering.
    struct Toy;

    impl Machine for Toy {
        type State = (u8, u8);
        type Action = u8;
        type Sym = ();

        fn initial(&self) -> (u8, u8) {
            (0, 0)
        }

        fn actions(&self, _: &(u8, u8), out: &mut Vec<u8>) {
            out.extend_from_slice(&[0, 1, 2]);
        }

        fn transition(&self, &(left, right): &(u8, u8), action: &u8) -> Result<(u8, u8), String> {
            Ok(match action {
                0 => (left.saturating_add(1).min(5), right),
                1 => (left, right.saturating_add(1).min(5)),
                _ => (
                    left.saturating_add(1).min(5),
                    right.saturating_add(1).min(5),
                ),
            })
        }

        fn invariant(&self, &(left, right): &(u8, u8)) -> Result<(), String> {
            if left + right >= 6 {
                Err(format!("counters overflowed: {left} + {right}"))
            } else {
                Ok(())
            }
        }
    }

    /// Violating runs pin byte-identical reports across worker counts: the
    /// shortest counterexample, the full sorted violation list, and the
    /// rendered artifact must not depend on parallelism.
    #[test]
    fn shortest_counterexample_is_byte_identical_across_worker_counts() {
        let sequential = Traversal::new(Toy, 8).run();
        assert!(!sequential.ok());
        let primary = sequential.violation().expect("toy machine violates");
        assert_eq!(primary.trace.len(), 3, "shortest: three double-increments");
        // The render self-describes its configuration (`workers N, ...`);
        // everything *about the exploration* must be byte-identical.
        let strip_config = |render: String| -> String {
            render
                .lines()
                .filter(|line| !line.trim_start().starts_with("workers "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        for workers in [2, 4, 7] {
            let parallel = Traversal::new(Toy, 8).with_workers(workers).run();
            assert_reports_match("toy", &sequential, &parallel);
            assert_eq!(
                strip_config(sequential.render("toy")),
                strip_config(parallel.render("toy")),
                "rendered report differs at {workers} workers"
            );
        }
    }
}

#[cfg(feature = "check-mutants")]
mod mutants {
    use super::*;
    use std::sync::{Mutex, MutexGuard};
    use tvq_check::{CatalogAction, LifecycleAction};

    /// The mutant toggles are process-global; tests that touch them run
    /// serialized and restore the default arming on drop (panic included).
    static MUTANT_LOCK: Mutex<()> = Mutex::new(());

    struct Arm<'a> {
        _lock: MutexGuard<'a, ()>,
    }

    impl Arm<'_> {
        fn new(end_tracks_noop: bool, asymmetric_retire: bool) -> Self {
            let lock = MUTANT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            tvq_core::mutants::set_end_tracks_noop(end_tracks_noop);
            tvq_check::mutants::set_asymmetric_retire(asymmetric_retire);
            Arm { _lock: lock }
        }
    }

    impl Drop for Arm<'_> {
        fn drop(&mut self) {
            tvq_core::mutants::set_end_tracks_noop(true);
            tvq_check::mutants::set_asymmetric_retire(false);
        }
    }

    /// With `end_tracks` a no-op, a track end changes the model but not the
    /// implementation; conformance replay must report the divergence, and
    /// the BFS guarantees the printed trace is a shortest one — it must end
    /// in the `EndTrack` that the mutant swallowed.
    #[test]
    fn checker_catches_the_end_tracks_noop_mutant() {
        let _arm = Arm::new(true, false);
        let report = Traversal::new(LifecycleModel, 3)
            .run_with(|path, _| conformance::replay_component(path));
        println!("{}", report.render("lifecycle vs end_tracks mutant"));
        let violation = report
            .violation()
            .expect("the planted mutant must be found");
        assert!(
            matches!(
                violation.trace.last(),
                Some(LifecycleAction::EndTrack { .. })
            ),
            "shortest counterexample should end at the swallowed EndTrack: {:?}",
            violation.trace
        );
        assert!(
            violation.trace.len() <= 3,
            "trace is shortest: {:?}",
            violation.trace
        );
    }

    /// With the verdict cache's `clear` a no-op, a catalog swap leaves stale
    /// verdicts from the previous version; the first judged-then-swapped
    /// sequence must surface as a divergence ending at the `Swap`.
    #[test]
    fn checker_catches_the_verdict_cache_clear_noop_mutant() {
        let report =
            Traversal::new(CatalogModel, 3).run_with(|path, _| conformance::replay_catalog(path));
        println!("{}", report.render("catalog vs clear mutant"));
        let violation = report
            .violation()
            .expect("the planted mutant must be found");
        assert!(
            matches!(violation.trace.last(), Some(CatalogAction::Swap)),
            "shortest counterexample should end at the ignored Swap: {:?}",
            violation.trace
        );
        assert!(
            violation.trace.len() <= 3,
            "trace is shortest: {:?}",
            violation.trace
        );
    }

    /// The symmetry soundness control: a bug that exists on feed 1 *only*
    /// (retirement skipped there) must still be found by the
    /// symmetry-reduced parallel traversal, even though the quotient stores
    /// representatives that mostly keep feed 0 empty. The replayed
    /// counterexample must be a concrete run ending in the feed-1 Compact
    /// whose retirement the mutant swallowed.
    #[test]
    fn symmetry_reduced_checker_catches_the_feed_asymmetric_retire_mutant() {
        let _arm = Arm::new(false, true);
        let report = Traversal::new(LifecycleModel, 6)
            .with_symmetry(true)
            .with_workers(2)
            .run_sharded(|_worker| |path: &[_], _: &_| conformance::replay_component(path));
        println!("{}", report.render("lifecycle vs asymmetric-retire mutant"));
        let violation = report
            .violation()
            .expect("the planted mutant must be found");
        assert!(
            matches!(
                violation.trace.last(),
                Some(LifecycleAction::Compact { feed: 1 })
            ),
            "shortest counterexample should end at the feed-1 Compact: {:?}",
            violation.trace
        );
        assert!(
            violation.trace.len() <= 6,
            "trace is shortest: {:?}",
            violation.trace
        );
    }

    /// Sanity for the toggle plumbing itself: with every mutant disarmed,
    /// the feature build replays conformantly (so the controls above fail
    /// for the planted reasons, not for stray divergence).
    #[test]
    fn disarmed_mutants_replay_conformantly() {
        let _arm = Arm::new(false, false);
        let report = Traversal::new(LifecycleModel, 3)
            .with_symmetry(true)
            .run_with(|path, _| conformance::replay_component(path));
        assert!(report.ok(), "{}", report.render("lifecycle disarmed"));
    }
}
