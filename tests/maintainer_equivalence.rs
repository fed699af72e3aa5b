//! Cross-crate differential test: on realistic profile-generated feeds the
//! three maintainers must report exactly the same Result State Sets, with and
//! without query-driven pruning leaving the *query answers* unchanged.

use std::collections::BTreeSet;
use std::sync::Arc;

use tvq_common::{FrameId, ObjectSet, WindowSpec};
use tvq_core::{MaintainerKind, MinCardinalityPruner, SharedPruner, StateMaintainer};
use tvq_video::{generate_with_id_reuse, DatasetProfile};

fn result_fingerprint(maintainer: &dyn StateMaintainer) -> BTreeSet<(ObjectSet, Vec<FrameId>)> {
    maintainer
        .results()
        .iter()
        .map(|(set, frames)| (set.clone(), frames.to_vec()))
        .collect()
}

fn assert_equivalent_on(profile: DatasetProfile, po: u32, seed: u64, spec: WindowSpec) {
    let relation = generate_with_id_reuse(&profile, po, seed);
    let mut naive = MaintainerKind::Naive.build(spec);
    let mut mfs = MaintainerKind::Mfs.build(spec);
    let mut ssg = MaintainerKind::Ssg.build(spec);
    for frame in relation.frames() {
        naive.advance(frame.fid, &frame.objects).unwrap();
        mfs.advance(frame.fid, &frame.objects).unwrap();
        ssg.advance(frame.fid, &frame.objects).unwrap();
        let expected = result_fingerprint(naive.as_ref());
        assert_eq!(
            result_fingerprint(mfs.as_ref()),
            expected,
            "MFS diverged from NAIVE at frame {} ({}, po={po})",
            frame.fid,
            profile.name
        );
        assert_eq!(
            result_fingerprint(ssg.as_ref()),
            expected,
            "SSG diverged from NAIVE at frame {} ({}, po={po})",
            frame.fid,
            profile.name
        );
    }
}

#[test]
fn equivalence_on_truncated_static_camera_profiles() {
    for profile in [DatasetProfile::v1(), DatasetProfile::d2()] {
        assert_equivalent_on(
            profile.truncated(160),
            0,
            13,
            WindowSpec::new(30, 20).unwrap(),
        );
    }
}

#[test]
fn equivalence_on_truncated_moving_camera_profiles() {
    for profile in [DatasetProfile::m1(), DatasetProfile::m2()] {
        assert_equivalent_on(
            profile.truncated(160),
            0,
            29,
            WindowSpec::new(25, 10).unwrap(),
        );
    }
}

#[test]
fn equivalence_under_artificial_occlusion() {
    // The Figure 7 regime: id reuse po > 0 creates many more shared objects
    // between states, stressing the marking rules.
    for po in [1, 2, 3] {
        assert_equivalent_on(
            DatasetProfile::d1().truncated(120),
            po,
            41 + po as u64,
            WindowSpec::new(20, 12).unwrap(),
        );
    }
}

/// The benchmark's dense window (`w=60, d=40`, as `dense-embedded` runs it)
/// on a D2-shaped feed: a window wider than one 64-frame word boundary
/// crossing. SSG and SSG_O must equal MFS on every frame, and SSG's work
/// counters are pinned. They were recorded when State Traversal began
/// materialising each intersection only after the node's subtree: visits,
/// intersections and edge churn fell then, while states created, frames
/// appended, peak and interned sets kept their earlier values. They moved
/// again when SSG became an index over MFS's state table and began
/// dropping an invalid state at the start of the next frame, as MFS does:
/// states created fell 15,897 → 15,866 and interned sets 15,527 → 15,478,
/// both now MFS's own counts on this film (SSG no longer revives or walks
/// dead nodes, whose intersections were created and interned); visits and
/// intersections fell 570,167 → 554,623 and frames appended 51,873 →
/// 51,655 (dead nodes are no longer walked or appended to); edges added
/// and removed fell 103,268 → 101,937 and 102,863 → 101,865 (no dead node
/// is rewired). The peak, 5,200, is MFS's and did not move. They moved
/// once more when SSG began to drop a node inside the state table's expiry,
/// in row order rather than slab order, and to count appends by MFS's rule
/// (a frame joining a state live before it, so a new state's first frame
/// is not one): frames appended fell 51,655 → 36,159, MFS's own count on
/// this film; edges added and removed fell 101,937 → 96,538 and 101,865 →
/// 96,466, and visits and intersections 554,623 → 554,557, as the removal
/// order rewires fewer edges. Interned sets fell 15,478 → 39 when a set
/// began to die with its last row: the interner holds only the live
/// states' sets between frames, so the gauge reads the states live after
/// the last frame, not every set the epoch minted. A change that moves any
/// of them must say why.
#[test]
fn equivalence_at_the_benchmark_window() {
    let spec = WindowSpec::new(60, 40).unwrap();
    let pruner: SharedPruner = Arc::new(MinCardinalityPruner { min_objects: 2 });
    let relation = generate_with_id_reuse(&DatasetProfile::d2().truncated(400), 0, 1);
    let mut mfs = MaintainerKind::Mfs.build(spec);
    let mut ssg = MaintainerKind::Ssg.build(spec);
    let mut ssg_o = MaintainerKind::Ssg.build_with_pruner(spec, pruner.clone());
    for frame in relation.frames() {
        for maintainer in [&mut mfs, &mut ssg, &mut ssg_o] {
            maintainer.advance(frame.fid, &frame.objects).unwrap();
        }
        let expected = result_fingerprint(mfs.as_ref());
        assert_eq!(
            result_fingerprint(ssg.as_ref()),
            expected,
            "SSG at frame {}",
            frame.fid
        );
        let pruned: BTreeSet<_> = expected
            .into_iter()
            .filter(|(set, _)| !pruner.should_terminate(set))
            .collect();
        let ssg_o_results = result_fingerprint(ssg_o.as_ref());
        assert_eq!(ssg_o_results, pruned, "SSG_O at frame {}", frame.fid);
    }
    let m = ssg.metrics();
    let counters = [
        m.states_visited,
        m.intersections,
        m.states_created,
        m.frames_appended,
        m.edges_added,
        m.edges_removed,
        m.peak_live_states,
        m.interned_sets,
    ];
    assert_eq!(
        counters,
        [554_557, 554_557, 15_866, 36_159, 96_538, 96_466, 5_200, 39]
    );
    assert_eq!(m.interned_sets, ssg.live_states() as u64);
    assert_eq!(m.frames_appended, mfs.metrics().frames_appended);
}

#[test]
fn equivalence_with_short_duration_thresholds() {
    // Small d surfaces many more satisfied states per window.
    assert_equivalent_on(
        DatasetProfile::v2().truncated(140),
        0,
        3,
        WindowSpec::new(24, 4).unwrap(),
    );
}
