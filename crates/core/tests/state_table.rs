//! The state-table oracle: MFS and SSG hold the same states.
//!
//! Both maintainers apply the same Frame Marking Rules and the same
//! validity test (a state lives while one of its marked frames is in the
//! window, Theorems 1 and 4), so after every frame their live states must
//! agree exactly: the same object sets, frame sets and marks, with and
//! without the Section 5.3 pruner. Equal tables imply equal results; this
//! checks the stronger claim on the states themselves. It also pins SSG's
//! table-level counters (states created, states pruned, peak live states)
//! to MFS's, and checks that an SSG restored from its snapshot, whose graph
//! is rebuilt from the table, holds the uninterrupted run's states, and
//! that either maintainer restores the other's snapshot.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tvq_common::{Decoder, Encoder, FrameId, MarkedFrameSet, ObjectSet, SetInterner, WindowSpec};
use tvq_core::{
    CompactionPolicy, MaintenanceMetrics, MfsMaintainer, MinCardinalityPruner, SharedPruner,
    SsgMaintainer, StateMaintainer,
};

/// A film that varies a lot from frame to frame: twelve object slots, each
/// present with probability 0.7, each slot's object replaced every 50
/// frames (staggered by 5 frames a slot).
fn random_film(seed: u64, frames: u32) -> Vec<ObjectSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..frames)
        .map(|i| {
            ObjectSet::from_raw(
                (0..12u32)
                    .filter(|_| rng.gen_bool(0.7))
                    .map(|s| s * 100 + (i + s * 5) / 50),
            )
        })
        .collect()
}

/// Objects of the paper's running example: A=1, B=2, C=3, D=4, F=6.
fn paper_frames() -> Vec<ObjectSet> {
    [
        &[2][..],
        &[1, 2, 3],
        &[1, 2, 4, 6],
        &[1, 2, 3, 6],
        &[1, 2, 4],
    ]
    .iter()
    .map(|ids| ObjectSet::from_raw(ids.iter().copied()))
    .collect()
}

type Table = Vec<(ObjectSet, MarkedFrameSet)>;

/// A maintainer's states in a form independent of its interner, sorted by
/// object set.
fn table<'a>(states: impl Iterator<Item = (ObjectSet, &'a MarkedFrameSet)>) -> Table {
    let mut rows: Table = states.map(|(set, frames)| (set, frames.clone())).collect();
    rows.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// Advances MFS and SSG (both with `min_objects`' pruner, or both without)
/// over `film` and asserts equal state tables after every frame, then equal
/// table-level counters. Returns MFS's peak live states.
fn assert_equal_tables(film: &[ObjectSet], spec: WindowSpec, min_objects: Option<usize>) -> u64 {
    let pruner = || -> Option<SharedPruner> {
        Some(Arc::new(MinCardinalityPruner {
            min_objects: min_objects?,
        }))
    };
    let mut mfs = MfsMaintainer::with_options(spec, SetInterner::new(), pruner());
    let mut ssg = SsgMaintainer::with_options(spec, SetInterner::new(), pruner());
    let label = format!(
        "w={} d={} pruner={min_objects:?}",
        spec.window(),
        spec.duration()
    );
    for (i, objects) in film.iter().enumerate() {
        mfs.advance(FrameId(i as u64), objects).unwrap();
        ssg.advance(FrameId(i as u64), objects).unwrap();
        assert_eq!(
            table(ssg.states()),
            table(mfs.states()),
            "{label}, frame {i}"
        );
    }
    let (m, s) = (mfs.metrics(), ssg.metrics());
    let counters = |m: &MaintenanceMetrics| (m.states_created, m.states_pruned, m.peak_live_states);
    assert_eq!(counters(s), counters(m), "{label}: created, pruned, peak");
    assert_eq!(ssg.results(), mfs.results(), "{label}");
    m.peak_live_states
}

#[test]
fn mfs_and_ssg_hold_equal_tables_on_random_films() {
    for seed in 0..3u64 {
        let film = random_film(seed, 500);
        for window in [8, 30, 60] {
            let spec = WindowSpec::new(window, window / 3).unwrap();
            let peak = assert_equal_tables(&film, spec, None);
            if (seed, window) == (0, 60) {
                assert_eq!(peak, 1_846);
            }
            assert_equal_tables(&film, spec, Some(3));
        }
    }
}

#[test]
fn mfs_and_ssg_hold_equal_tables_on_the_paper_example() {
    let film = paper_frames();
    for window in 2..=5 {
        for duration in 1..=window {
            let spec = WindowSpec::new(window, duration).unwrap();
            for min_objects in [None, Some(2)] {
                assert_equal_tables(&film, spec, min_objects);
            }
        }
    }
}

/// SSG snapshotted and restored into a fresh maintainer every 37 frames,
/// each restore from the previous restored copy, with a compaction epoch
/// checked every 16 frames: on every frame the chained copy holds the
/// uninterrupted run's states and results, and each epoch retires the same
/// sets and objects. A restore rebuilds the graph from the table, so the
/// two runs walk different edges to the same rows.
#[test]
fn chained_ssg_restores_hold_the_uninterrupted_states() {
    let policy = CompactionPolicy::every(16);
    for seed in 0..4u64 {
        let film = random_film(seed, 320);
        for window in [8, 30, 60] {
            let spec = WindowSpec::new(window, window / 3).unwrap();
            for min_objects in [None, Some(3)] {
                let build = || {
                    let pruner = min_objects.map(|min_objects| -> SharedPruner {
                        Arc::new(MinCardinalityPruner { min_objects })
                    });
                    SsgMaintainer::with_options(spec, SetInterner::new(), pruner)
                };
                let label = format!("seed {seed} w={window} pruner={min_objects:?}");
                let (mut original, mut restored) = (build(), build());
                for (i, objects) in film.iter().enumerate() {
                    if i % 37 == 36 {
                        let mut enc = Encoder::new();
                        restored.snapshot_state(&mut enc).unwrap();
                        restored = build();
                        let mut dec = Decoder::new(enc.as_bytes());
                        restored.restore_state(&mut dec).unwrap();
                        dec.finish().unwrap();
                    }
                    for m in [&mut original, &mut restored] {
                        m.advance(FrameId(i as u64), objects).unwrap();
                    }
                    if (i + 1) % 16 == 0 {
                        let epoch = original.maybe_compact(&policy);
                        assert_eq!(restored.maybe_compact(&policy), epoch, "{label}, frame {i}");
                    }
                    let states = table(original.states());
                    assert_eq!(table(restored.states()), states, "{label}, frame {i}");
                    assert_eq!(restored.results(), original.results(), "{label}, frame {i}");
                }
            }
        }
    }
}

/// One of the two maintainers that write the state-table snapshot.
enum Durable {
    Mfs(MfsMaintainer),
    Ssg(SsgMaintainer),
}

impl Durable {
    fn maintainer(&mut self) -> &mut dyn StateMaintainer {
        match self {
            Durable::Mfs(m) => m,
            Durable::Ssg(m) => m,
        }
    }

    fn table(&self) -> Table {
        match self {
            Durable::Mfs(m) => table(m.states()),
            Durable::Ssg(m) => table(m.states()),
        }
    }
}

/// MFS and SSG write one snapshot format, so either restores the other's.
/// A copy restored into a fresh maintainer every 37 frames, alternating
/// MFS → SSG → MFS, each from the previous copy's snapshot, with a
/// compaction epoch checked every 16 frames: on every frame it holds the
/// uninterrupted MFS run's states and results.
#[test]
fn restores_alternating_mfs_and_ssg_hold_the_uninterrupted_states() {
    let policy = CompactionPolicy::every(16);
    for seed in 0..4u64 {
        let film = random_film(seed, 320);
        for window in [8, 30, 60] {
            let spec = WindowSpec::new(window, window / 3).unwrap();
            for min_objects in [None, Some(3)] {
                let pruner = || {
                    min_objects.map(|min_objects| -> SharedPruner {
                        Arc::new(MinCardinalityPruner { min_objects })
                    })
                };
                let mfs = || MfsMaintainer::with_options(spec, SetInterner::new(), pruner());
                let ssg = || SsgMaintainer::with_options(spec, SetInterner::new(), pruner());
                let label = format!("seed {seed} w={window} pruner={min_objects:?}");
                let (mut original, mut copy) = (mfs(), Durable::Mfs(mfs()));
                for (i, objects) in film.iter().enumerate() {
                    if i % 37 == 36 {
                        let mut enc = Encoder::new();
                        copy.maintainer().snapshot_state(&mut enc).unwrap();
                        copy = match copy {
                            Durable::Mfs(_) => Durable::Ssg(ssg()),
                            Durable::Ssg(_) => Durable::Mfs(mfs()),
                        };
                        let mut dec = Decoder::new(enc.as_bytes());
                        copy.maintainer().restore_state(&mut dec).unwrap();
                        dec.finish().unwrap();
                    }
                    original.advance(FrameId(i as u64), objects).unwrap();
                    copy.maintainer()
                        .advance(FrameId(i as u64), objects)
                        .unwrap();
                    if (i + 1) % 16 == 0 {
                        let epoch = original.maybe_compact(&policy);
                        let copied = copy.maintainer().maybe_compact(&policy);
                        assert_eq!(copied, epoch, "{label}, frame {i}");
                    }
                    let states = table(original.states());
                    assert_eq!(copy.table(), states, "{label}, frame {i}");
                    let results = copy.maintainer().results();
                    assert_eq!(results, original.results(), "{label}, frame {i}");
                }
            }
        }
    }
}
