//! Dataset profiles calibrated to the paper's Table 6.
//!
//! The paper evaluates on six videos: two synthetic feeds from the VisualRoad
//! benchmark (V1, V2), two Detrac traffic videos (D1, D2) and two MOT16
//! pedestrian videos (M1, M2), characterised by the statistics in Table 6.
//! We cannot ship those videos, so each profile records the target statistics
//! and the [statistical generator](crate::generator) synthesises a structured
//! relation matching them; `repro table6` then verifies the match.

use tvq_common::DatasetStats;

/// Statistical profile of one evaluation dataset.
#[derive(Debug, Clone)]
pub struct DatasetProfile {
    /// Short name used in the paper's figures (V1, V2, D1, D2, M1, M2).
    pub name: &'static str,
    /// Total number of frames.
    pub frames: usize,
    /// Total number of unique tracked objects.
    pub objects: usize,
    /// Average number of occlusion gaps per object (Occ/Obj).
    pub occlusions_per_object: f64,
    /// Average number of frames each object is visible in (F/Obj).
    pub frames_per_object: f64,
    /// Whether the source video was captured by a moving camera (MOT16).
    pub moving_camera: bool,
    /// Relative class frequencies `(label, weight)`.
    pub class_mix: &'static [(&'static str, f64)],
}

const TRAFFIC_MIX: &[(&str, f64)] = &[
    ("car", 0.72),
    ("person", 0.10),
    ("truck", 0.12),
    ("bus", 0.06),
];
const PEDESTRIAN_MIX: &[(&str, f64)] = &[
    ("person", 0.82),
    ("car", 0.12),
    ("truck", 0.04),
    ("bus", 0.02),
];

impl DatasetProfile {
    /// VisualRoad, rain with light traffic.
    pub fn v1() -> Self {
        DatasetProfile {
            name: "V1",
            frames: 1800,
            objects: 173,
            occlusions_per_object: 3.6,
            frames_per_object: 76.71,
            moving_camera: false,
            class_mix: TRAFFIC_MIX,
        }
    }

    /// VisualRoad, postpluvial with heavy traffic.
    pub fn v2() -> Self {
        DatasetProfile {
            name: "V2",
            frames: 1700,
            objects: 127,
            occlusions_per_object: 6.33,
            frames_per_object: 79.84,
            moving_camera: false,
            class_mix: TRAFFIC_MIX,
        }
    }

    /// Detrac MVI_40171.
    pub fn d1() -> Self {
        DatasetProfile {
            name: "D1",
            frames: 1150,
            objects: 179,
            occlusions_per_object: 5.20,
            frames_per_object: 48.61,
            moving_camera: false,
            class_mix: TRAFFIC_MIX,
        }
    }

    /// Detrac MVI_40751.
    pub fn d2() -> Self {
        DatasetProfile {
            name: "D2",
            frames: 1145,
            objects: 158,
            occlusions_per_object: 7.23,
            frames_per_object: 65.18,
            moving_camera: false,
            class_mix: TRAFFIC_MIX,
        }
    }

    /// MOT16-06 (moving camera).
    pub fn m1() -> Self {
        DatasetProfile {
            name: "M1",
            frames: 1194,
            objects: 342,
            occlusions_per_object: 3.37,
            frames_per_object: 23.67,
            moving_camera: true,
            class_mix: PEDESTRIAN_MIX,
        }
    }

    /// MOT16-13 (moving camera).
    pub fn m2() -> Self {
        DatasetProfile {
            name: "M2",
            frames: 750,
            objects: 186,
            occlusions_per_object: 3.48,
            frames_per_object: 46.96,
            moving_camera: true,
            class_mix: PEDESTRIAN_MIX,
        }
    }

    /// All six evaluation datasets, in the paper's order.
    pub fn all() -> Vec<DatasetProfile> {
        vec![
            DatasetProfile::v1(),
            DatasetProfile::v2(),
            DatasetProfile::d1(),
            DatasetProfile::d2(),
            DatasetProfile::m1(),
            DatasetProfile::m2(),
        ]
    }

    /// Looks a profile up by its paper name (case-insensitive).
    pub fn by_name(name: &str) -> Option<DatasetProfile> {
        DatasetProfile::all()
            .into_iter()
            .find(|p| p.name.eq_ignore_ascii_case(name))
    }

    /// Average number of objects per frame implied by the profile
    /// (Obj/F = objects × F/Obj ÷ frames, the relation that also holds in
    /// Table 6).
    pub fn objects_per_frame(&self) -> f64 {
        self.objects as f64 * self.frames_per_object / self.frames as f64
    }

    /// The Table 6 row as [`DatasetStats`] (the target the generator aims at).
    pub fn target_stats(&self) -> DatasetStats {
        DatasetStats {
            frames: self.frames,
            objects: self.objects,
            objects_per_frame: self.objects_per_frame(),
            occlusions_per_object: self.occlusions_per_object,
            frames_per_object: self.frames_per_object,
        }
    }

    /// A copy truncated to the first `frames` frames (scales the object count
    /// proportionally so density is preserved).
    pub fn truncated(&self, frames: usize) -> DatasetProfile {
        let mut profile = self.clone();
        let ratio = frames as f64 / self.frames as f64;
        profile.frames = frames;
        profile.objects = ((self.objects as f64) * ratio).round().max(1.0) as usize;
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_6_values_are_recorded() {
        let all = DatasetProfile::all();
        assert_eq!(all.len(), 6);
        let names: Vec<&str> = all.iter().map(|p| p.name).collect();
        assert_eq!(names, vec!["V1", "V2", "D1", "D2", "M1", "M2"]);
        let d2 = DatasetProfile::d2();
        assert_eq!(d2.frames, 1145);
        assert_eq!(d2.objects, 158);
        assert!((d2.occlusions_per_object - 7.23).abs() < 1e-9);
    }

    #[test]
    fn objects_per_frame_matches_table_6() {
        // Table 6 reports Obj/F directly; it must be consistent with the
        // other columns to within rounding.
        let expected = [
            ("V1", 7.37),
            ("V2", 5.94),
            ("D1", 7.56),
            ("D2", 8.99),
            ("M1", 6.75),
            ("M2", 11.59),
        ];
        for (name, objf) in expected {
            let profile = DatasetProfile::by_name(name).unwrap();
            let derived = profile.objects_per_frame();
            assert!(
                (derived - objf).abs() / objf < 0.03,
                "{name}: derived {derived:.2} vs table {objf:.2}"
            );
        }
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(DatasetProfile::by_name("m2").is_some());
        assert!(DatasetProfile::by_name("M2").is_some());
        assert!(DatasetProfile::by_name("X9").is_none());
    }

    #[test]
    fn truncation_scales_objects_proportionally() {
        let base = DatasetProfile::v1();
        let half = base.truncated(900);
        assert_eq!(half.frames, 900);
        assert!((half.objects as f64 - base.objects as f64 / 2.0).abs() <= 1.0);
    }

    #[test]
    fn moving_camera_flags_follow_the_paper() {
        assert!(!DatasetProfile::v1().moving_camera);
        assert!(!DatasetProfile::d2().moving_camera);
        assert!(DatasetProfile::m1().moving_camera);
        assert!(DatasetProfile::m2().moving_camera);
    }
}
