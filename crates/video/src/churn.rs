//! Long-running feeds with unbounded object turnover.
//!
//! The paper's evaluation feeds are bounded: a fixed cast of objects
//! (re-)appears, so a per-feed set-interner arena saturates quickly. A
//! *deployment* feed is not like that — a traffic camera sees new vehicles
//! forever, and every new object id mints new object sets. This module
//! synthesises that regime, compressed: hours of turnover squeezed into a
//! frame budget a benchmark can afford.
//!
//! [`long_churn_feed`] maintains a rolling population of `population`
//! concurrent objects. Every `turnover_interval` frames the oldest object
//! leaves and a **fresh identifier** (never reused) enters; on top of the
//! turnover, a rolling occlusion hides one population slot for a stretch of
//! frames at a time, so each turnover period still produces several
//! distinct object sets (the intersection work the maintainers exist for).
//! Over `frames` frames the universe grows to
//! `population + frames / turnover_interval` distinct ids — unbounded in
//! the feed length, which is exactly what the interner's epoch compaction
//! is for: live states only ever reference the current population, so the
//! arena's live ratio decays as turnover retires sets.
//!
//! Classes alternate car/person per population slot so classed CNF queries
//! keep matching throughout the feed's lifetime. The feed is the
//! [`id_reuse`](crate::id_reuse) generator's schedule with recycling off.

use tvq_common::FeedId;

use crate::id_reuse::{id_reuse_feed, IdReuseProfile};
use crate::multifeed::CameraFeed;

/// Shape of a long-churn feed. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnProfile {
    /// Total frames to synthesise.
    pub frames: u64,
    /// Concurrent objects per frame (before occlusion).
    pub population: u32,
    /// Frames between object replacements (one per interval).
    pub turnover_interval: u64,
    /// Length of the rolling occlusion (frames per slot before moving on);
    /// the first `occlusion_duty` frames of each period hide the slot.
    pub occlusion_period: u64,
    /// How many frames of each occlusion period the slot is hidden for.
    pub occlusion_duty: u64,
}

impl ChurnProfile {
    /// The default long-churn shape: 16 concurrent objects, a replacement
    /// every 8 frames, a 24-frame occlusion rotation hiding each slot for
    /// 9 frames.
    pub const fn new(frames: u64) -> Self {
        ChurnProfile {
            frames,
            population: 16,
            turnover_interval: 8,
            occlusion_period: 24,
            occlusion_duty: 9,
        }
    }

    /// Number of distinct object identifiers the feed will mint: the
    /// initial population plus one replacement per completed turnover
    /// interval (the last frame's cohort is `(frames - 1) /
    /// turnover_interval + population` members, numbered from zero).
    pub fn universe_size(&self) -> u64 {
        self.without_recycling().generations()
    }

    /// The id-recycling shape of this feed with a released id never
    /// recycled: each generation keeps the fresh id it was admitted with.
    fn without_recycling(&self) -> IdReuseProfile {
        IdReuseProfile {
            frames: self.frames,
            population: self.population,
            turnover_interval: self.turnover_interval,
            recycle_delay: u64::MAX,
            occlusion_period: self.occlusion_period,
            occlusion_duty: self.occlusion_duty,
            emit_track_ends: false,
        }
    }
}

/// Synthesises one long-churn feed: the [`id_reuse_feed`] generator with
/// recycling off, so every replacement takes a fresh identifier. Fully
/// deterministic — the schedule is arithmetic, no RNG involved — so
/// identical profiles produce identical feeds on every run and platform.
pub fn long_churn_feed(feed: FeedId, profile: &ChurnProfile) -> CameraFeed {
    id_reuse_feed(feed, &profile.without_recycling())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use tvq_common::{ClassId, ObjectId};

    #[test]
    fn churn_feed_is_deterministic_and_sized() {
        let profile = ChurnProfile::new(200);
        let a = long_churn_feed(FeedId(0), &profile);
        let b = long_churn_feed(FeedId(0), &profile);
        assert_eq!(a, b);
        assert_eq!(a.frames.len(), 200);
        for frame in &a.frames {
            let visible = frame.classes.len() as u32;
            assert!(visible == profile.population || visible == profile.population - 1);
        }
    }

    #[test]
    fn universe_grows_with_turnover() {
        let profile = ChurnProfile::new(400);
        let feed = long_churn_feed(FeedId(0), &profile);
        let ids: BTreeSet<ObjectId> = feed
            .frames
            .iter()
            .flat_map(|f| f.classes.iter().map(|&(id, _)| id))
            .collect();
        assert_eq!(ids.len() as u64, profile.universe_size());
        // Early objects never return: the last frame only holds recent ids.
        let first_id = *ids.iter().next().unwrap();
        assert!(!feed
            .frames
            .last()
            .unwrap()
            .classes
            .iter()
            .any(|&(id, _)| id == first_id));
    }

    #[test]
    fn feeds_do_not_share_objects() {
        let profile = ChurnProfile::new(100);
        let a = long_churn_feed(FeedId(0), &profile);
        let b = long_churn_feed(FeedId(1), &profile);
        let ids_a: BTreeSet<ObjectId> = a
            .frames
            .iter()
            .flat_map(|f| f.classes.iter().map(|&(id, _)| id))
            .collect();
        let ids_b: BTreeSet<ObjectId> = b
            .frames
            .iter()
            .flat_map(|f| f.classes.iter().map(|&(id, _)| id))
            .collect();
        assert!(ids_a.is_disjoint(&ids_b));
    }

    #[test]
    fn both_classes_present_every_frame() {
        let profile = ChurnProfile::new(64);
        let feed = long_churn_feed(FeedId(0), &profile);
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
            assert!(cars >= 2 && people >= 2, "frame {} lost a class", frame.fid);
        }
    }
}
