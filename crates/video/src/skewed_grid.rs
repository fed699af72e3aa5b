//! A skewed camera grid: a few hot cameras dominating the fleet's work.
//!
//! Real multi-camera deployments are not uniform — a camera watching a busy
//! intersection produces an order of magnitude more detections (and, because
//! MCOS maintenance cost grows superlinearly in the concurrent-object count,
//! far more than an order of magnitude more *work*) than one watching a
//! loading dock at night. Static `feed mod workers` sharding serialises
//! whatever hot cameras happen to collide on one worker; this generator
//! synthesises exactly that adversarial shape, so the skew benchmark and
//! the differential tests can measure and pin down how the multi-feed
//! engine places them:
//!
//! * `hot_feeds` of the grid's `feeds` cameras are **hot**: a rolling
//!   population of `hot_objects` concurrent objects. The rest are cold with
//!   `cold_objects` (default 18 vs 3 — with superlinear per-frame cost the
//!   hot cameras then carry ~90% of the fleet's maintenance work);
//! * the hot set is chosen to **collide under `feed mod collide_workers`**
//!   (all hot feeds land on the same worker of a `collide_workers`-sized
//!   pool), the worst case for static sharding;
//! * halfway through the feed the hotspot **flips** to a disjoint set of
//!   formerly cold cameras (the intersection rush hour moving across town),
//!   so a placement fixed once would be re-skewed;
//! * generation is pure arithmetic (no RNG, no wall clock): identical
//!   profiles produce identical grids on every platform, which the
//!   determinism suites rely on.
//!
//! Each camera runs the [`churn`](crate::churn)-style rolling occlusion so
//! object sets keep changing (the intersection work the maintainers exist
//! for), and per-feed id blocks are decorrelated so cameras never share
//! object identifiers.

use tvq_common::{ClassId, FeedId, FrameId, FrameObjects, ObjectId};

use crate::multifeed::CameraFeed;

/// Shape of a skewed camera grid. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkewProfile {
    /// Cameras in the grid.
    pub feeds: u32,
    /// Frames per camera.
    pub frames: u64,
    /// How many cameras are hot at any moment.
    pub hot_feeds: u32,
    /// Concurrent objects on a hot camera.
    pub hot_objects: u32,
    /// Concurrent objects on a cold camera.
    pub cold_objects: u32,
    /// The worker count the hot set is chosen to collide under: every hot
    /// feed is congruent mod `collide_workers`, so a static
    /// `feed mod collide_workers` sharding serialises all of them on one
    /// worker.
    pub collide_workers: u32,
}

impl SkewProfile {
    /// The default skewed grid: 12 cameras, 2 hot at a time with 18
    /// concurrent objects against 3 on the cold cameras, colliding under a
    /// 4-worker static sharding.
    pub const fn new(frames: u64) -> Self {
        SkewProfile {
            feeds: 12,
            frames,
            hot_feeds: 2,
            hot_objects: 18,
            cold_objects: 3,
            collide_workers: 4,
        }
    }

    /// The hot camera set for `frame`: feeds congruent to 1 (first half) or
    /// 2 (second half) mod `collide_workers`, taken in ascending feed
    /// order. The flip at `frames / 2` moves the hotspot to cameras that
    /// were cold the whole first half.
    pub fn hot_set(&self, frame: u64) -> Vec<FeedId> {
        let residue = if frame < self.frames / 2 { 1 } else { 2 };
        (0..self.feeds)
            .filter(|feed| feed % self.collide_workers == residue % self.collide_workers)
            .take(self.hot_feeds as usize)
            .map(FeedId)
            .collect()
    }
}

/// Synthesises the skewed grid: one [`CameraFeed`] per camera, all of equal
/// length, hot cameras per [`SkewProfile::hot_set`]. Fully deterministic.
pub fn skewed_grid(profile: &SkewProfile) -> Vec<CameraFeed> {
    assert!(profile.feeds > 0, "the grid needs at least one camera");
    assert!(
        profile.collide_workers > 0,
        "collide_workers must be positive"
    );
    assert!(
        profile.hot_objects >= profile.cold_objects,
        "hot cameras must carry at least the cold population"
    );
    (0..profile.feeds)
        .map(|raw| {
            let feed = FeedId(raw);
            // Per-feed id blocks (same decorrelation as the churn feeds):
            // cameras never share object identifiers.
            let id_base = u64::from(raw) * 1_000_000_007 % u64::from(u32::MAX - 1_000_000);
            let frames = (0..profile.frames)
                .map(|i| {
                    let hot = profile.hot_set(i).contains(&feed);
                    let population = u64::from(if hot {
                        profile.hot_objects
                    } else {
                        profile.cold_objects
                    });
                    // Rolling occlusion: one slot hides for the first 3
                    // frames of every 8-frame period, so object sets keep
                    // changing without object turnover. Slots 0 and 1 (one
                    // object of each class) are exempt, so classed CNF
                    // queries keep matching on every camera.
                    let occluded_slot = if population > 2 {
                        2 + (i / 8) % (population - 2)
                    } else {
                        population // out of range: nothing occluded
                    };
                    let occlusion_active = i % 8 < 3;
                    let detections = (0..population)
                        .filter(|&slot| !(occlusion_active && slot == occluded_slot))
                        .map(|slot| {
                            (
                                ObjectId((id_base + slot) as u32),
                                ClassId((slot % 2) as u16),
                            )
                        })
                        .collect();
                    FrameObjects::new(FrameId(i), detections)
                })
                .collect();
            CameraFeed { feed, frames }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn grid_is_deterministic_and_shaped() {
        let profile = SkewProfile::new(40);
        let a = skewed_grid(&profile);
        let b = skewed_grid(&profile);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        assert!(a.iter().all(|feed| feed.frames.len() == 40));
    }

    #[test]
    fn hot_set_collides_statically_then_flips() {
        let profile = SkewProfile::new(40);
        let early = profile.hot_set(0);
        let late = profile.hot_set(20);
        assert_eq!(early, vec![FeedId(1), FeedId(5)]);
        assert_eq!(late, vec![FeedId(2), FeedId(6)]);
        // Both hot sets collide under the static mod-4 sharding...
        for set in [&early, &late] {
            let shards: BTreeSet<u32> = set.iter().map(|feed| feed.raw() % 4).collect();
            assert_eq!(shards.len(), 1, "hot set {set:?} does not collide");
        }
        // ...and the flip moves the hotspot to previously cold cameras.
        assert!(early.iter().all(|feed| !late.contains(feed)));
    }

    #[test]
    fn hot_cameras_dominate_detections() {
        let profile = SkewProfile::new(40);
        let grid = skewed_grid(&profile);
        let hot0: usize = grid[1].frames[0].classes.len();
        let cold0: usize = grid[0].frames[0].classes.len();
        assert!(
            hot0 >= 5 * cold0,
            "hot camera ({hot0} objects) must dwarf cold ({cold0})"
        );
        // After the flip, feed 1 cools down and feed 2 heats up.
        let half = 20usize;
        assert!(grid[1].frames[half].classes.len() < hot0);
        assert!(grid[2].frames[half].classes.len() >= 5 * cold0);
    }

    #[test]
    fn feeds_do_not_share_objects() {
        let grid = skewed_grid(&SkewProfile::new(16));
        let mut seen: BTreeSet<ObjectId> = BTreeSet::new();
        for feed in &grid {
            let ids: BTreeSet<ObjectId> = feed
                .frames
                .iter()
                .flat_map(|f| f.classes.iter().map(|&(id, _)| id))
                .collect();
            assert!(seen.is_disjoint(&ids), "feed {} reuses ids", feed.feed);
            seen.extend(ids);
        }
    }

    #[test]
    fn both_classes_present_on_every_camera() {
        let grid = skewed_grid(&SkewProfile::new(24));
        for feed in &grid {
            for frame in &feed.frames {
                let cars = frame
                    .classes
                    .iter()
                    .filter(|&&(_, c)| c == ClassId(1))
                    .count();
                let people = frame
                    .classes
                    .iter()
                    .filter(|&&(_, c)| c == ClassId(0))
                    .count();
                assert!(
                    cars >= 1 && people >= 1,
                    "feed {} frame {} lost a class",
                    feed.feed,
                    frame.fid
                );
            }
        }
    }
}
