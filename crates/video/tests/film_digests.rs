//! Pins the bytes of the generated films: FNV-1a digests of every frame's
//! id, detections and track ends. The turnover feed, the id-recycling feed
//! and the `po` id-reuse relation feed the benchmark, the gated scenarios
//! and the differential suites, so a refactor of their generators must
//! leave these digests alone.

use tvq_common::{FeedId, FrameObjects};
use tvq_video::{
    generate_with_id_reuse, id_reuse_feed, long_churn_feed, ChurnProfile, DatasetProfile,
    IdReuseProfile,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// FNV-1a over the little-endian bytes of `value`.
fn fnv(hash: u64, value: u64) -> u64 {
    value
        .to_le_bytes()
        .iter()
        .fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

fn digest<'a>(frames: impl IntoIterator<Item = &'a FrameObjects>) -> u64 {
    let mut hash = FNV_OFFSET;
    for frame in frames {
        hash = fnv(hash, frame.fid.raw());
        hash = fnv(hash, frame.classes.len() as u64);
        for &(id, class) in &frame.classes {
            hash = fnv(hash, u64::from(id.raw()));
            hash = fnv(hash, u64::from(class.raw()));
        }
        hash = fnv(hash, frame.track_ends.len() as u64);
        for end in &frame.track_ends {
            hash = fnv(hash, u64::from(end.raw()));
        }
    }
    hash
}

#[test]
fn long_churn_feed_is_pinned() {
    let feed = long_churn_feed(FeedId(0), &ChurnProfile::new(2_400));
    assert_eq!(feed.frames.len(), 2_400);
    assert_eq!(digest(&feed.frames), 0x678f_2248_bfe9_107e);
}

#[test]
fn id_reuse_feed_is_pinned() {
    let profile = IdReuseProfile::new(2_400);
    let silent = id_reuse_feed(FeedId(0), &profile);
    let ended = id_reuse_feed(FeedId(0), &profile.with_track_ends());
    assert_eq!(digest(&silent.frames), 0xec90_ce57_ec2f_20a8);
    assert_eq!(digest(&ended.frames), 0x922e_7404_fa96_453c);
}

#[test]
fn id_reuse_relations_are_pinned() {
    let profile = DatasetProfile::d1().truncated(300);
    let pinned = [
        (1, 33, 0xe42a_9803_8e7e_ad95),
        (2, 30, 0x74c5_d282_dc43_fb3d),
        (3, 30, 0x74c5_d282_dc43_fb3d),
    ];
    for (po, objects, expected) in pinned {
        let relation = generate_with_id_reuse(&profile, po, 7);
        assert_eq!(relation.num_frames(), 300, "po {po}");
        assert_eq!(relation.num_objects(), objects, "po {po}");
        assert_eq!(digest(relation.frames()), expected, "po {po}");
    }
}
