//! Windows the narrow differential suites do not reach.
//!
//! A marked frame set keeps 128 frames inline and spills to the heap above
//! that; every other equivalence suite runs a window of at most 90 frames,
//! so a frame set limited to the inline span would pass them all. These
//! tests run the paper's `w = 300, d = 240` and a window just past the
//! inline span against the reference oracle, through a snapshot/restore
//! round trip, and across a jump in frame ids far wider than any window.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tvq_common::{Decoder, Encoder, FrameId, ObjectSet, WindowSpec};
use tvq_core::{MaintainerKind, MfsMaintainer, NaiveMaintainer, SsgMaintainer, StateMaintainer};
use tvq_testkit::canonical_results;

/// Six objects, each visible in nine frames of ten: object sets co-occur
/// for hundreds of frames with gaps, so durations of four fifths of the
/// window are met. (`tvq_testkit`'s tracked feeds keep an object for at
/// most eight frames, which no such threshold survives.)
fn long_lived_feed(seed: u64, frames: usize) -> Vec<ObjectSet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..frames)
        .map(|_| ObjectSet::from_raw((0..6u32).filter(|_| rng.gen_bool(0.9))))
        .collect()
}

/// MFS ≡ SSG ≡ NAIVE ≡ the reference oracle after every frame; MFS and SSG
/// are swapped for their snapshot-restored twins a little past one window.
fn assert_equivalent_through_a_restore(spec: WindowSpec, seed: u64) {
    let feed = long_lived_feed(seed, 2 * spec.window() + 40);
    let mut reference = MaintainerKind::Reference.build(spec);
    let mut subjects: Vec<(MaintainerKind, Box<dyn StateMaintainer>)> = MaintainerKind::PRODUCTION
        .iter()
        .map(|&kind| (kind, kind.build(spec)))
        .collect();
    let mut reported = 0;
    for (index, objects) in feed.iter().enumerate() {
        if index == spec.window() + 17 {
            for (kind, maintainer) in &mut subjects {
                if *kind == MaintainerKind::Naive {
                    continue; // NAIVE is not durable.
                }
                let mut enc = Encoder::new();
                maintainer.snapshot_state(&mut enc).unwrap();
                let bytes = enc.into_bytes();
                let mut restored = kind.build(spec);
                let mut dec = Decoder::new(&bytes);
                restored.restore_state(&mut dec).unwrap();
                dec.finish().unwrap();
                *maintainer = restored;
            }
        }
        let fid = FrameId(index as u64);
        reference.advance(fid, objects).unwrap();
        let expected = canonical_results(reference.as_ref());
        reported += expected.len();
        for (kind, maintainer) in &mut subjects {
            maintainer.advance(fid, objects).unwrap();
            assert_eq!(
                canonical_results(maintainer.as_ref()),
                expected,
                "{kind} diverged from the oracle at frame {index} (w={}, d={})",
                spec.window(),
                spec.duration()
            );
        }
    }
    assert!(reported > 0, "the feed never met the duration threshold");
}

#[test]
fn maintainers_agree_at_the_papers_window() {
    assert_equivalent_through_a_restore(WindowSpec::new(300, 240).unwrap(), 3);
}

#[test]
fn maintainers_agree_just_past_the_inline_span() {
    assert_equivalent_through_a_restore(WindowSpec::new(130, 100).unwrap(), 11);
}

/// Frame ids need not be consecutive. One jump of 10^9 ids must clear the
/// window like any other expiry: results stay the oracle's, and no frame
/// set is left holding words in proportion to the gap.
#[test]
fn a_jump_in_frame_ids_expires_the_window_and_nothing_else() {
    const JUMP: u64 = 1_000_000_000;
    let spec = WindowSpec::new(130, 20).unwrap();
    let feed = long_lived_feed(5, 2 * spec.window());
    let jump_at = spec.window() + 9;
    let mut reference = MaintainerKind::Reference.build(spec);
    let mut mfs = MfsMaintainer::new(spec);
    let mut ssg = SsgMaintainer::new(spec);
    let mut naive = NaiveMaintainer::new(spec);
    let word_bound = 2 * spec.window().div_ceil(64) + 2;
    for (index, objects) in feed.iter().enumerate() {
        let fid = FrameId(index as u64 + if index >= jump_at { JUMP } else { 0 });
        reference.advance(fid, objects).unwrap();
        let expected = canonical_results(reference.as_ref());
        let subjects: [&mut dyn StateMaintainer; 3] = [&mut mfs, &mut ssg, &mut naive];
        for maintainer in subjects {
            maintainer.advance(fid, objects).unwrap();
            assert_eq!(
                canonical_results(&*maintainer),
                expected,
                "{} diverged from the oracle at frame {fid}",
                maintainer.name()
            );
        }
        if index >= jump_at {
            let words = (mfs.states().map(|(_, frames)| frames.word_count()))
                .chain(naive.states().map(|(_, frames)| frames.word_count()))
                .chain(ssg.states().map(|(_, frames)| frames.word_count()))
                .max();
            assert!(
                words.is_some_and(|words| words <= word_bound),
                "a frame set holds {words:?} words after the jump (bound {word_bound})"
            );
        }
    }
}
