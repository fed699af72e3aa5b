//! Frame ids at the top of `u64`.
//!
//! `FrameId(u64::MAX)` is reserved: State Traversal stamps a never-visited
//! state with it, so a frame carrying it would read as already visited and
//! lose its matches. Every maintainer refuses it, and every id below it
//! must work like any other — marked frame sets whose words would start
//! past `u64::MAX` read as empty instead of overflowing.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tvq_common::{Error, FrameId, ObjectSet, WindowSpec};
use tvq_core::{MaintainerKind, StateMaintainer};
use tvq_testkit::canonical_results;

/// NAIVE, MFS and SSG equal the reference oracle after every frame of a
/// feed that starts low, jumps to `last - frames`, and ends at `last`;
/// then all four refuse `FrameId(u64::MAX)` and keep their results.
fn assert_agree_up_to_the_top(spec: WindowSpec, seed: u64) {
    const LAST: u64 = u64::MAX - 1;
    let mut rng = StdRng::seed_from_u64(seed);
    let high = 2 * spec.window() as u64 + 40;
    let fids = (0..10).chain(LAST - high + 1..=LAST);
    let mut maintainers: Vec<Box<dyn StateMaintainer>> = [MaintainerKind::Reference]
        .iter()
        .chain(&MaintainerKind::PRODUCTION)
        .map(|kind| kind.build(spec))
        .collect();
    let mut reported = 0;
    for fid in fids {
        let objects = ObjectSet::from_raw((0..6u32).filter(|_| rng.gen_bool(0.85)));
        let mut results = Vec::new();
        for maintainer in &mut maintainers {
            maintainer.advance(FrameId(fid), &objects).unwrap();
            results.push(canonical_results(maintainer.as_ref()));
        }
        for (maintainer, result) in maintainers.iter().zip(&results).skip(1) {
            assert_eq!(
                result,
                &results[0],
                "{} diverged from the oracle at frame {fid} (w={}, d={})",
                maintainer.name(),
                spec.window(),
                spec.duration()
            );
        }
        reported += results[0].len();
    }
    assert!(reported > 0, "the feed never met the duration threshold");
    for maintainer in &mut maintainers {
        let before = canonical_results(maintainer.as_ref());
        let err = maintainer
            .advance(FrameId(u64::MAX), &ObjectSet::from_raw([1, 2]))
            .unwrap_err();
        assert!(
            matches!(err, Error::InvalidConfig(_)),
            "{}: {err}",
            maintainer.name()
        );
        assert_eq!(
            canonical_results(maintainer.as_ref()),
            before,
            "{}",
            maintainer.name()
        );
    }
}

#[test]
fn maintainers_agree_up_to_the_last_frame_id() {
    assert_agree_up_to_the_top(WindowSpec::new(4, 2).unwrap(), 1);
    assert_agree_up_to_the_top(WindowSpec::new(8, 4).unwrap(), 2);
    // Spans past the 128 inline frames spill frame sets to the heap.
    assert_agree_up_to_the_top(WindowSpec::new(130, 100).unwrap(), 3);
}

/// `{1,2,3}` then `{1,2,4}` at the last two usable ids match `{1,2}` over
/// both frames. One id higher, State Traversal's never-visited stamp would
/// hide the match, which is why that id is refused.
#[test]
fn a_match_at_the_last_frame_id_is_reported() {
    let spec = WindowSpec::new(4, 2).unwrap();
    for kind in [MaintainerKind::Reference]
        .iter()
        .chain(&MaintainerKind::PRODUCTION)
    {
        let mut maintainer = kind.build(spec);
        maintainer
            .advance(FrameId(u64::MAX - 2), &ObjectSet::from_raw([1, 2, 3]))
            .unwrap();
        maintainer
            .advance(FrameId(u64::MAX - 1), &ObjectSet::from_raw([1, 2, 4]))
            .unwrap();
        let pair = (
            ObjectSet::from_raw([1, 2]),
            vec![FrameId(u64::MAX - 2), FrameId(u64::MAX - 1)],
        );
        assert!(
            canonical_results(maintainer.as_ref()).contains(&pair),
            "{kind}: {:?}",
            canonical_results(maintainer.as_ref())
        );
    }
}
