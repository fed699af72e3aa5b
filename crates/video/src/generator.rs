//! Statistical feed generator.
//!
//! Generates a structured relation whose Table-6 statistics (frames, unique
//! objects, objects per frame, occlusions per object, frames per object)
//! match a [`DatasetProfile`]. This is the workhorse of the benchmark
//! harness: the MCOS-generation algorithms never look at pixels, so a
//! relation with the right statistical shape reproduces the relative
//! behaviour the paper reports for each dataset.
//!
//! Each object receives an arrival frame, a target number of visible frames,
//! and a number of occlusion gaps; the visible frames are split into runs
//! separated by the gaps. The paper's occlusion parameter `po` (Figure 7) is
//! reproduced by [`apply_id_reuse`], which re-assigns released identifiers to
//! later objects — exactly the mechanism described in Section 6.2.

use std::collections::HashMap;
use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tvq_common::{ClassId, ClassRegistry, FrameId, ObjectId, VideoRelation};

use crate::profiles::DatasetProfile;

/// Generates a relation matching the profile's statistics. Deterministic for
/// a given seed.
pub fn generate(profile: &DatasetProfile, seed: u64) -> VideoRelation {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut registry = ClassRegistry::with_default_classes();
    let class_ids: Vec<(ClassId, f64)> = profile
        .class_mix
        .iter()
        .map(|&(label, weight)| {
            let class = registry
                .register(label)
                .expect("a class mix fits the class ids");
            (class, weight)
        })
        .collect();
    let total_weight: f64 = class_ids.iter().map(|&(_, w)| w).sum();

    let frames = profile.frames.max(1);
    let mut per_frame: Vec<Vec<(ObjectId, ClassId)>> = vec![Vec::new(); frames];

    for object_index in 0..profile.objects {
        let id = ObjectId(object_index as u32);
        let class = pick_class(&class_ids, total_weight, &mut rng);

        // Visible frame budget centred on the profile's F/Obj.
        let mean_presence = profile.frames_per_object.max(1.0);
        let visible = rng
            .gen_range((0.6 * mean_presence)..=(1.4 * mean_presence))
            .round()
            .max(1.0) as usize;
        let visible = visible.min(frames);

        // Occlusion gaps: an integer with expectation Occ/Obj.
        let base = profile.occlusions_per_object.floor() as usize;
        let frac = profile.occlusions_per_object - base as f64;
        let mut gaps = base + usize::from(rng.gen_bool(frac.clamp(0.0, 1.0)));
        // An object visible for v frames can have at most v - 1 gaps.
        gaps = gaps.min(visible.saturating_sub(1));
        let gap_lengths: Vec<usize> = (0..gaps).map(|_| rng.gen_range(2..=12)).collect();
        let span = visible + gap_lengths.iter().sum::<usize>();
        let span = span.min(frames);

        let latest_arrival = frames - span;
        let arrival = if latest_arrival == 0 {
            0
        } else {
            rng.gen_range(0..=latest_arrival)
        };

        // Split the visible frames into `gaps + 1` non-empty runs.
        let runs = split_into_runs(visible, gaps + 1, &mut rng);
        let mut frame = arrival;
        for (run_index, run) in runs.iter().enumerate() {
            for _ in 0..*run {
                if frame < frames {
                    per_frame[frame].push((id, class));
                }
                frame += 1;
            }
            if run_index < gap_lengths.len() {
                frame += gap_lengths[run_index];
            }
        }
    }

    let mut relation = VideoRelation::new(registry);
    for detections in per_frame {
        relation.push_detections(detections);
    }
    relation
}

/// Generates a relation for the profile and then applies the paper's `po`
/// id-reuse transformation (`po = 0` leaves identifiers untouched).
pub fn generate_with_id_reuse(profile: &DatasetProfile, po: u32, seed: u64) -> VideoRelation {
    let relation = generate(profile, seed);
    if po == 0 {
        relation
    } else {
        apply_id_reuse(&relation, po)
    }
}

/// Reuses object identifiers after their owners disappear, at most `po` times
/// per identifier (Section 6.2's occlusion parameter). The remapping is
/// deterministic: identifiers are reassigned in order of first appearance.
pub fn apply_id_reuse(relation: &VideoRelation, po: u32) -> VideoRelation {
    // Last frame in which every original identifier appears (frames come
    // in increasing order, so the last write wins).
    let mut last_seen: HashMap<ObjectId, FrameId> = HashMap::new();
    for frame in relation.frames() {
        for &(id, _) in &frame.classes {
            last_seen.insert(id, frame.fid);
        }
    }

    let mut mapping: HashMap<ObjectId, ObjectId> = HashMap::new();
    let mut pool: VecDeque<ObjectId> = VecDeque::new();
    let mut reuse_counts: HashMap<ObjectId, u32> = HashMap::new();
    let mut next_id = 0u32;
    let mut pending_release: Vec<(FrameId, ObjectId)> = Vec::new();
    let mut rebuilt = VideoRelation::new(relation.registry().clone());

    for frame in relation.frames() {
        // Release identifiers whose owners disappeared before this frame.
        pending_release.retain(|&(last, id)| {
            if last < frame.fid {
                let used = reuse_counts.get(&id).copied().unwrap_or(0);
                if used < po {
                    pool.push_back(id);
                }
                false
            } else {
                true
            }
        });
        let mut detections = Vec::with_capacity(frame.classes.len());
        for &(original, class) in &frame.classes {
            let mapped = *mapping.entry(original).or_insert_with(|| {
                let id = match pool.pop_front() {
                    Some(id) => {
                        *reuse_counts.entry(id).or_insert(0) += 1;
                        id
                    }
                    None => {
                        let id = ObjectId(next_id);
                        next_id += 1;
                        id
                    }
                };
                pending_release.push((last_seen[&original], id));
                id
            });
            detections.push((mapped, class));
        }
        rebuilt.push_detections(detections);
    }
    rebuilt
}

fn pick_class(classes: &[(ClassId, f64)], total: f64, rng: &mut StdRng) -> ClassId {
    let mut pick = rng.gen_range(0.0..total);
    for &(class, weight) in classes {
        if pick < weight {
            return class;
        }
        pick -= weight;
    }
    classes.last().map(|&(c, _)| c).unwrap_or(ClassId(0))
}

/// Splits `total` into `parts` positive integers summing to `total`
/// (`parts <= total`).
fn split_into_runs(total: usize, parts: usize, rng: &mut StdRng) -> Vec<usize> {
    let parts = parts.max(1).min(total.max(1));
    let mut cuts: Vec<usize> = (1..parts).map(|_| rng.gen_range(1..total.max(2))).collect();
    cuts.sort_unstable();
    cuts.dedup();
    // Deduplication may have removed cuts; the resulting runs are still valid,
    // just fewer of them (slightly fewer occlusions than requested).
    let mut runs = Vec::with_capacity(cuts.len() + 1);
    let mut previous = 0;
    for cut in cuts {
        runs.push(cut - previous);
        previous = cut;
    }
    runs.push(total - previous);
    runs.retain(|&r| r > 0);
    if runs.is_empty() {
        runs.push(total);
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvq_common::DatasetStats;

    #[test]
    fn split_into_runs_sums_to_total() {
        let mut rng = StdRng::seed_from_u64(5);
        for total in 1..40 {
            for parts in 1..=total {
                let runs = split_into_runs(total, parts, &mut rng);
                assert_eq!(runs.iter().sum::<usize>(), total);
                assert!(runs.iter().all(|&r| r > 0));
                assert!(runs.len() <= parts);
            }
        }
    }

    #[test]
    fn generated_feeds_match_profile_statistics() {
        for profile in DatasetProfile::all() {
            let relation = generate(&profile, 42);
            let stats = DatasetStats::of(&relation);
            let target = profile.target_stats();
            assert_eq!(stats.frames, target.frames, "{}", profile.name);
            assert_eq!(stats.objects, target.objects, "{}", profile.name);
            let error = stats.relative_error_to(&target);
            assert!(
                error.frames_per_object_pct < 15.0,
                "{}: F/Obj off by {:.1}% ({:.1} vs {:.1})",
                profile.name,
                error.frames_per_object_pct,
                stats.frames_per_object,
                target.frames_per_object
            );
            assert!(
                error.objects_per_frame_pct < 15.0,
                "{}: Obj/F off by {:.1}%",
                profile.name,
                error.objects_per_frame_pct
            );
            assert!(
                error.occlusions_per_object_pct < 30.0,
                "{}: Occ/Obj off by {:.1}% ({:.2} vs {:.2})",
                profile.name,
                error.occlusions_per_object_pct,
                stats.occlusions_per_object,
                target.occlusions_per_object
            );
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let profile = DatasetProfile::d1();
        let a = generate(&profile, 7);
        let b = generate(&profile, 7);
        assert_eq!(a.num_records(), b.num_records());
        let c = generate(&profile, 8);
        assert_ne!(a.num_records(), c.num_records());
    }

    #[test]
    fn id_reuse_reduces_unique_objects_and_adds_occlusions() {
        let profile = DatasetProfile::m2();
        let base = generate(&profile, 3);
        let reused = apply_id_reuse(&base, 3);
        let base_stats = DatasetStats::of(&base);
        let reused_stats = DatasetStats::of(&reused);
        assert_eq!(base.num_records(), reused.num_records());
        assert!(reused_stats.objects < base_stats.objects);
        assert!(reused_stats.occlusions_per_object > base_stats.occlusions_per_object);
        assert_eq!(base.num_frames(), reused.num_frames());
    }

    #[test]
    fn id_reuse_zero_is_identity_via_generate_with_id_reuse() {
        let profile = DatasetProfile::v2();
        let a = generate_with_id_reuse(&profile, 0, 9);
        let b = generate(&profile, 9);
        assert_eq!(a.num_records(), b.num_records());
        assert_eq!(a.num_objects(), b.num_objects());
    }

    #[test]
    fn per_frame_object_sets_are_duplicate_free() {
        let relation = generate(&DatasetProfile::d2(), 11);
        for frame in relation.frames() {
            assert_eq!(frame.objects.len(), frame.classes.len());
        }
    }
}
