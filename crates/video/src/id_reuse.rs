//! Tracker-id recycling feeds.
//!
//! The [`churn`](crate::churn) feed is this generator with recycling off: a
//! **fresh** identifier for every replacement object — the regime that
//! exercises arena compaction.
//! Real trackers do the opposite: identifiers come from a finite counter or
//! pool and are **recycled** once their previous owner is gone. The next
//! object behind a recycled id is a different physical object and may well
//! be of a different class — exactly the hazard the engine's object
//! lifecycle (generation tags, alias ids, epoch retirement) exists for.
//!
//! [`id_reuse_feed`] synthesises that regime deterministically (pure
//! arithmetic, no RNG): a rolling population of `population` concurrent
//! objects in which every [`turnover_interval`](IdReuseProfile) frames the
//! oldest member leaves and a newcomer enters. Departed identifiers enter a
//! FIFO free pool; a newcomer takes the pool's oldest identifier once it
//! has rested for at least [`recycle_delay`](IdReuseProfile) frames (fresh
//! identifiers are minted only while the pool is dry, so the id universe
//! stays *finite* while the object universe is unbounded). Each newcomer's
//! class flips with its generation — recycled identifiers routinely cross
//! the class boundary. A rolling occlusion hides one population slot at a
//! time so every turnover period still yields several distinct object sets.
//!
//! With `recycle_delay` **shorter** than the query window, recycling lands
//! while old-generation states are still live — the splice hazard; with it
//! longer, recycling exercises the retirement path instead. The default
//! profile keeps it short on purpose.

use tvq_common::{ClassId, FeedId, FrameId, FrameObjects, ObjectId};

use crate::multifeed::CameraFeed;

/// Shape of an id-recycling feed. See the [module docs](self).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IdReuseProfile {
    /// Total frames to synthesise.
    pub frames: u64,
    /// Concurrent objects per frame (before occlusion).
    pub population: u32,
    /// Frames between object replacements (one per interval).
    pub turnover_interval: u64,
    /// Frames a released identifier rests in the pool before it may be
    /// recycled to a new object; `u64::MAX` never recycles.
    pub recycle_delay: u64,
    /// Length of the rolling occlusion rotation (frames per slot).
    pub occlusion_period: u64,
    /// How many frames of each occlusion period the slot is hidden for.
    pub occlusion_duty: u64,
    /// Whether departures emit explicit end-of-track events
    /// ([`FrameObjects::track_ends`]) on their turnover frame. Off by
    /// default: the no-events feed is the regime the engine's coarser reuse
    /// detection (class changes, epoch retirement) — and the committed
    /// bench gates — are calibrated against.
    pub emit_track_ends: bool,
}

impl IdReuseProfile {
    /// The default recycling shape: 16 concurrent objects, a replacement
    /// every 8 frames, released ids recycled after resting 8 frames (well
    /// inside the 60-frame bench window, so reuse regularly lands while
    /// old-generation states are live), and a 24-frame occlusion rotation.
    ///
    /// Classes alternate with the admission generation, so with these
    /// parameters the steady-state recycle offset (`population + 1`
    /// generations) is odd and **every recycled identifier returns with
    /// the opposite class** — the worst case for any layer tempted to
    /// trust a stale class.
    pub const fn new(frames: u64) -> Self {
        IdReuseProfile {
            frames,
            population: 16,
            turnover_interval: 8,
            recycle_delay: 8,
            occlusion_period: 24,
            occlusion_duty: 9,
            emit_track_ends: false,
        }
    }

    /// Turns on explicit end-of-track events for departures.
    pub const fn with_track_ends(mut self) -> Self {
        self.emit_track_ends = true;
        self
    }

    /// Number of object *generations* the feed will produce: the initial
    /// population plus one replacement per completed turnover interval.
    pub fn generations(&self) -> u64 {
        if self.frames == 0 {
            return 0;
        }
        u64::from(self.population) + (self.frames - 1) / self.turnover_interval
    }
}

/// One live population member.
#[derive(Debug, Clone, Copy)]
struct Member {
    id: u32,
    class: ClassId,
    /// Population slot (drives the occlusion rotation).
    slot: u64,
}

/// Synthesises one id-recycling feed. Fully deterministic: identical
/// profiles produce identical feeds on every run and platform.
pub fn id_reuse_feed(feed: FeedId, profile: &IdReuseProfile) -> CameraFeed {
    assert!(profile.population > 0, "population must be positive");
    assert!(
        profile.turnover_interval > 0,
        "turnover interval must be positive"
    );
    assert!(
        profile.occlusion_period > 0,
        "occlusion period must be positive"
    );
    let population = u64::from(profile.population);
    // Decorrelate feeds: each feed's ids live in their own block.
    let id_base = u64::from(feed.raw()) * 1_000_000_007 % u64::from(u32::MAX - 2_000_000);

    let mut next_fresh = 0u32;
    let mut generation = 0u64;
    let mut members: Vec<Member> = Vec::with_capacity(profile.population as usize);
    // FIFO pool of `(identifier, release frame)` pairs.
    let mut pool: std::collections::VecDeque<(u32, u64)> = std::collections::VecDeque::new();

    let mut admit = |pool: &mut std::collections::VecDeque<(u32, u64)>, frame: u64| -> Member {
        let id = match pool.front() {
            Some(&(id, released)) if frame >= released.saturating_add(profile.recycle_delay) => {
                pool.pop_front();
                id
            }
            _ => {
                let id = next_fresh;
                next_fresh += 1;
                id
            }
        };
        // Class flips with the generation: a recycled identifier's new
        // owner regularly sits on the other side of the class boundary.
        let member = Member {
            id,
            class: ClassId((generation % 2) as u16),
            slot: generation % population,
        };
        generation += 1;
        member
    };

    for _ in 0..population {
        let member = admit(&mut pool, 0);
        members.push(member);
    }

    let frames = (0..profile.frames)
        .map(|i| {
            let mut ends: Vec<ObjectId> = Vec::new();
            if i > 0 && i % profile.turnover_interval == 0 {
                // The oldest member departs; its id rests, then recycles.
                let departed = members.remove(0);
                pool.push_back((departed.id, i));
                if profile.emit_track_ends {
                    ends.push(ObjectId((id_base + u64::from(departed.id)) as u32));
                }
                let member = admit(&mut pool, i);
                members.push(member);
            }
            let occluded_slot = (i / profile.occlusion_period + 1) % population;
            let occlusion_active = i % profile.occlusion_period < profile.occlusion_duty;
            let detections = members
                .iter()
                .filter(|m| !(occlusion_active && m.slot == occluded_slot))
                .map(|m| (ObjectId((id_base + u64::from(m.id)) as u32), m.class))
                .collect();
            FrameObjects::new(FrameId(i), detections).with_track_ends(ends)
        })
        .collect();
    CameraFeed { feed, frames }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    #[test]
    fn feed_is_deterministic_and_sized() {
        let profile = IdReuseProfile::new(300);
        let a = id_reuse_feed(FeedId(0), &profile);
        let b = id_reuse_feed(FeedId(0), &profile);
        assert_eq!(a, b);
        assert_eq!(a.frames.len(), 300);
        for frame in &a.frames {
            let visible = frame.classes.len() as u32;
            assert!(visible == profile.population || visible == profile.population - 1);
        }
    }

    #[test]
    fn identifiers_are_recycled_into_a_finite_universe() {
        let profile = IdReuseProfile::new(2000);
        let feed = id_reuse_feed(FeedId(0), &profile);
        let ids: BTreeSet<ObjectId> = feed
            .frames
            .iter()
            .flat_map(|f| f.classes.iter().map(|&(id, _)| id))
            .collect();
        // Far fewer distinct ids than generations: the pool recycles.
        assert!(profile.generations() > 2 * ids.len() as u64);
        // And the universe is bounded by population + ids resting in the
        // pool (at most one release per turnover interval within the
        // recycle delay, rounded up, plus pipeline slack).
        let bound =
            u64::from(profile.population) + profile.recycle_delay / profile.turnover_interval + 2;
        assert!(
            (ids.len() as u64) <= bound,
            "{} ids exceed bound {}",
            ids.len(),
            bound
        );
    }

    #[test]
    fn recycled_ids_cross_class_boundaries() {
        let profile = IdReuseProfile::new(1200);
        let feed = id_reuse_feed(FeedId(0), &profile);
        // Track the classes each id appears with over the feed's lifetime.
        let mut classes_of: BTreeMap<ObjectId, BTreeSet<ClassId>> = BTreeMap::new();
        for frame in &feed.frames {
            for &(id, class) in &frame.classes {
                classes_of.entry(id).or_default().insert(class);
            }
        }
        let crossers = classes_of.values().filter(|set| set.len() > 1).count();
        assert!(
            crossers >= classes_of.len() / 2,
            "only {crossers}/{} ids ever crossed the class boundary",
            classes_of.len()
        );
    }

    #[test]
    fn feeds_do_not_share_identifiers() {
        let profile = IdReuseProfile::new(120);
        let collect = |feed: &CameraFeed| -> BTreeSet<ObjectId> {
            feed.frames
                .iter()
                .flat_map(|f| f.classes.iter().map(|&(id, _)| id))
                .collect()
        };
        let a = collect(&id_reuse_feed(FeedId(0), &profile));
        let b = collect(&id_reuse_feed(FeedId(1), &profile));
        assert!(a.is_disjoint(&b));
    }

    #[test]
    fn track_ends_cover_every_departure_and_default_off() {
        let profile = IdReuseProfile::new(200);
        let silent = id_reuse_feed(FeedId(0), &profile);
        assert!(silent.frames.iter().all(|f| f.track_ends.is_empty()));

        let feed = id_reuse_feed(FeedId(0), &profile.with_track_ends());
        // Detections are identical — only the event channel differs.
        for (a, b) in silent.frames.iter().zip(&feed.frames) {
            assert_eq!(a.classes, b.classes);
        }
        let mut ended = 0usize;
        for frame in &feed.frames {
            let turnover = frame.fid.raw() > 0 && frame.fid.raw() % profile.turnover_interval == 0;
            assert_eq!(frame.track_ends.len(), usize::from(turnover));
            ended += frame.track_ends.len();
            // An ended id may already be recycled on this very frame (the
            // end applies first), but the *departed object* is gone.
            for &end in &frame.track_ends {
                assert!(end.raw() > 0 || frame.fid.raw() > 0);
            }
        }
        assert_eq!(
            ended as u64,
            (profile.frames - 1) / profile.turnover_interval
        );
    }

    #[test]
    fn both_classes_keep_appearing() {
        let profile = IdReuseProfile::new(240);
        let feed = id_reuse_feed(FeedId(0), &profile);
        for frame in &feed.frames {
            let cars = frame
                .classes
                .iter()
                .filter(|&&(_, c)| c == ClassId(1))
                .count();
            let people = frame.classes.len() - cars;
            assert!(cars >= 2 && people >= 2, "frame {} lost a class", frame.fid);
        }
    }
}
