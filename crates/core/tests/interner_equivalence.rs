//! Property tests for the interner-backed maintainers.
//!
//! The PR that introduced [`tvq_common::SetInterner`] re-keyed every state
//! structure from `ObjectSet` keys to dense `SetId` handles. These tests pin
//! down that the re-keying is semantically invisible:
//!
//! * for random feeds, the handle-keyed maintainers report exactly the same
//!   `states()` / `results()` an `ObjectSet`-keyed implementation would —
//!   checked against the brute-force reference oracle (which still hashes
//!   plain object sets) and against each other;
//! * the interner's memoized `intersect` (bitmap words in, bitmap words
//!   out) agrees with the plain `ObjectSet::intersect` linear merge — the
//!   oracle — including the `Arc::ptr_eq` fast path and the cache fast
//!   paths (`a ∩ a`, empty operands), and handles resolve back to the
//!   sorted sets they were interned from across universe growth,
//!   relabelling and compaction.

use proptest::prelude::*;

use tvq_common::{FrameId, ObjectSet, SetId, SetInterner, WindowSpec};
use tvq_core::{CompactionPolicy, MfsMaintainer, NaiveMaintainer, SsgMaintainer, StateMaintainer};
use tvq_testkit::assert_all_equivalent;

/// Strategy: a short feed of small object sets (ids < 8) so the reference
/// oracle stays tractable while windows still slide and states churn.
fn feeds() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..8, 0..5), 1..18)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Interner-backed NAIVE/MFS/SSG agree with the ObjectSet-keyed
    /// reference oracle (results and frame sets) after every frame.
    #[test]
    fn maintainers_match_oracle_on_random_feeds(
        raw in feeds(),
        window in 2usize..6,
        duration in 1usize..4,
    ) {
        let duration = duration.min(window);
        let frames: Vec<ObjectSet> = raw
            .iter()
            .map(|ids| ObjectSet::from_raw(ids.iter().copied()))
            .collect();
        assert_all_equivalent(&frames, WindowSpec::new(window, duration).unwrap());
    }

    /// MFS's handle-keyed `states()` exposes exactly the same object set →
    /// marked-frame-set table as a set-keyed implementation: the object sets
    /// resolved from handles round-trip byte-identically, and NAIVE's state
    /// table keys are reproduced by an independent interner.
    #[test]
    fn states_round_trip_through_the_interner(raw in feeds()) {
        let spec = WindowSpec::new(4, 2).unwrap();
        let mut mfs = MfsMaintainer::new(spec);
        let mut naive = NaiveMaintainer::new(spec);
        let mut check = SetInterner::new();
        for (i, ids) in raw.iter().enumerate() {
            let objects = ObjectSet::from_raw(ids.iter().copied());
            mfs.advance(FrameId(i as u64), &objects).unwrap();
            naive.advance(FrameId(i as u64), &objects).unwrap();
        }
        for (set, frames) in mfs.states() {
            // Resolved sets are canonical (sorted, deduplicated) and
            // re-intern to a stable handle that resolves back bitwise.
            let sid = check.intern(&set);
            prop_assert_eq!(check.resolve(sid).as_slice(), set.as_slice());
            prop_assert!(frames.len() <= 4);
        }
        for (set, _) in naive.states() {
            let sid = check.intern(&set);
            prop_assert_eq!(check.resolve(sid), set);
        }
    }

    /// The memoized intersect agrees with the linear merge for arbitrary set
    /// pairs — on the first (miss) call and on the repeat (hit) call — under
    /// identifier labellings whose slot order differs from identifier order,
    /// with the universe grown past 64/128/256 slots between interning and
    /// intersecting (handles must not move), and across a compaction.
    #[test]
    fn memoized_intersect_agrees_with_linear_merge(
        a in proptest::collection::vec(0u32..64, 0..24),
        b in proptest::collection::vec(0u32..64, 0..24),
        labelling in 0usize..3,
        growth in 0usize..4,
    ) {
        // Bijections on 0..67 (prime): identity, a scramble, a reversal.
        let multiplier = [1u32, 29, 66][labelling];
        let relabel = |ids: &[u32]| ObjectSet::from_raw(ids.iter().map(|id| id * multiplier % 67));
        let (sa, sb) = (relabel(&a), relabel(&b));
        let expected = sa.intersect(&sb);

        let mut interner = SetInterner::new();
        let ia = interner.intern(&sa);
        let ib = interner.intern(&sb);
        for boundary in [64u32, 128, 256].into_iter().take(growth) {
            interner.intern(&ObjectSet::from_raw(1000..1000 + boundary));
            prop_assert_eq!(interner.get(&sa), Some(ia));
            prop_assert_eq!(interner.intern(&sb), ib);
        }
        // A lookup of a set holding an unseen object assigns no slot.
        let universe = interner.universe_len();
        prop_assert_eq!(interner.get(&ObjectSet::from_raw([1, 9999])), None);
        prop_assert_eq!(interner.universe_len(), universe);
        prop_assert_eq!(interner.resolve(ia), sa.clone());

        let miss = interner.intersect(ia, ib);
        prop_assert_eq!(interner.resolve(miss), expected.clone());
        // Second call is answered from the cache (or a fast path) and must
        // agree; the commuted pair shares the same answer.
        let hit = interner.intersect(ia, ib);
        prop_assert_eq!(hit, miss);
        prop_assert_eq!(interner.intersect(ib, ia), miss);
        // The handle algebra matches set algebra: subset pairs resolve to
        // the smaller operand's handle without inventing a new set.
        if sa.is_subset_of(&sb) {
            prop_assert_eq!(miss, ia);
        }
        if sb.is_subset_of(&sa) && sa != sb {
            prop_assert_eq!(miss, ib);
        }
        // Contents survive the epoch change that rewrites every bitmap.
        let table = interner.compact(&[ia, ib, miss]);
        for (old, set) in [(ia, &sa), (ib, &sb), (miss, &expected)] {
            let new = table.remap(old).expect("kept live");
            prop_assert_eq!(&interner.resolve(new), set);
            prop_assert_eq!(interner.get(set), Some(new));
        }
    }

    /// Compaction round-trip: a maintainer that compacts + remaps every few
    /// frames reports exactly the states and results of a fresh maintainer
    /// replaying the same feed without ever compacting — for all three
    /// strategies, after every frame.
    #[test]
    fn compaction_round_trips_against_a_fresh_replay(
        raw in feeds(),
        window in 2usize..6,
        duration in 1usize..4,
        cadence in 1usize..4,
    ) {
        let duration = duration.min(window);
        let spec = WindowSpec::new(window, duration).unwrap();
        let force = CompactionPolicy::every(1);
        let frames: Vec<ObjectSet> = raw
            .iter()
            .map(|ids| ObjectSet::from_raw(ids.iter().copied()))
            .collect();

        let mut compacting: Vec<Box<dyn StateMaintainer>> = vec![
            Box::new(NaiveMaintainer::new(spec)),
            Box::new(MfsMaintainer::new(spec)),
            Box::new(SsgMaintainer::new(spec)),
        ];
        let mut plain: Vec<Box<dyn StateMaintainer>> = vec![
            Box::new(NaiveMaintainer::new(spec)),
            Box::new(MfsMaintainer::new(spec)),
            Box::new(SsgMaintainer::new(spec)),
        ];
        for (i, objects) in frames.iter().enumerate() {
            let fid = FrameId(i as u64);
            for (a, b) in compacting.iter_mut().zip(plain.iter_mut()) {
                a.advance(fid, objects).unwrap();
                if i % cadence == 0 {
                    a.maybe_compact(&force);
                }
                b.advance(fid, objects).unwrap();
                prop_assert_eq!(
                    a.results(),
                    b.results(),
                    "{} diverged after compaction at frame {}",
                    a.name(),
                    i
                );
                prop_assert_eq!(a.live_states(), b.live_states());
            }
        }
    }

    /// The `Arc::ptr_eq` fast path: a set intersected with a clone of itself
    /// (shared `Arc`) returns the same handle, and the plain merge agrees.
    #[test]
    fn ptr_eq_fast_path_agrees(a in proptest::collection::vec(0u32..64, 0..24)) {
        let sa = ObjectSet::from_raw(a.iter().copied());
        let clone = sa.clone(); // shares the Arc
        prop_assert_eq!(sa.intersect(&clone), sa.clone());

        let mut interner = SetInterner::new();
        let ia = interner.intern(&sa);
        let ia_again = interner.intern(&clone);
        prop_assert_eq!(ia, ia_again);
        prop_assert_eq!(interner.intersect(ia, ia_again), ia);
    }
}

/// Deterministic spot-check: SSG and MFS results stay identical across a
/// feed long enough to cycle states through creation, invalidation, pruning
/// and re-creation — the lifecycle where stale handles would show up.
#[test]
fn ssg_and_mfs_agree_across_state_recreation() {
    let spec = WindowSpec::new(6, 2).unwrap();
    let mut ssg = SsgMaintainer::new(spec);
    let mut mfs = MfsMaintainer::new(spec);
    let patterns: Vec<ObjectSet> = vec![
        ObjectSet::from_raw([1, 2, 3]),
        ObjectSet::from_raw([1, 2, 3]),
        ObjectSet::from_raw([1, 2, 4]),
        ObjectSet::from_raw([5, 6]),
        ObjectSet::from_raw([5, 6, 7]),
        ObjectSet::empty(),
        ObjectSet::from_raw([1, 2, 3]),
        ObjectSet::from_raw([1, 2]),
    ];
    for (i, objects) in patterns.iter().cycle().take(64).enumerate() {
        let fid = FrameId(i as u64);
        ssg.advance(fid, objects).unwrap();
        mfs.advance(fid, objects).unwrap();
        assert_eq!(
            ssg.results(),
            mfs.results(),
            "divergence at frame {i} (results ignore cached counts)"
        );
    }
}

/// The intersection cache keeps answering correctly once slots start being
/// overwritten (collision behaviour of the direct-mapped cache).
#[test]
fn memo_collisions_do_not_corrupt_answers() {
    let mut interner = SetInterner::new();
    let sets: Vec<ObjectSet> = (0..128u32)
        .map(|i| ObjectSet::from_raw([i, i + 1, i % 7, 200 + (i % 5)]))
        .collect();
    let ids: Vec<SetId> = sets.iter().map(|s| interner.intern(s)).collect();
    // Two passes: the second pass re-asks pairs whose slots may have been
    // evicted; answers must still match the plain merge.
    for _ in 0..2 {
        for (i, &ia) in ids.iter().enumerate() {
            for (j, &ib) in ids.iter().enumerate().skip(i) {
                let got = interner.intersect(ia, ib);
                let expected = sets[i].intersect(&sets[j]);
                assert_eq!(
                    interner.resolve(got),
                    expected,
                    "wrong intersection for pair ({i}, {j})"
                );
            }
        }
    }
    assert!(interner.memo_hits() > 0, "repeat pass should hit the cache");
}
