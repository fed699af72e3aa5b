//! Brute-force reference oracle.
//!
//! Recomputes, for every window, the full intersection closure of the
//! window's frame object sets and derives the maximum co-occurrence object
//! sets from first principles (Definitions 1 and 2 of the paper). The cost is
//! exponential in the number of distinct frame object sets, so this oracle is
//! only suitable for small windows — it exists to pin down the *semantics*
//! that NAIVE, MFS and SSG must all agree with, and is used heavily by the
//! differential tests.

use std::collections::{HashSet, VecDeque};

use tvq_common::{FrameId, MarkedFrameSet, ObjectSet, Result, WindowSpec};

use crate::maintainer::{check_order, StateMaintainer};
use crate::metrics::MaintenanceMetrics;
use crate::result_set::ResultStateSet;

/// Computes every maximum co-occurrence object set of the given window
/// content, together with its full frame set, keeping only those that appear
/// in at least `duration` frames.
///
/// An object set is reported iff it equals the intersection of the object
/// sets of all frames in which it appears (which is exactly the MCOS
/// condition: no strict superset shares its frame set).
pub fn mcos_of_window(
    window: &[(FrameId, ObjectSet)],
    duration: usize,
) -> Vec<(ObjectSet, Vec<FrameId>)> {
    // Intersection closure of the frame object sets.
    let mut closure: HashSet<ObjectSet> = HashSet::new();
    for (_, objects) in window {
        if !objects.is_empty() {
            closure.insert(objects.clone());
        }
    }
    loop {
        let snapshot: Vec<ObjectSet> = closure.iter().cloned().collect();
        let mut grew = false;
        for (_, objects) in window {
            for existing in &snapshot {
                let inter = existing.intersect(objects);
                if !inter.is_empty() && closure.insert(inter) {
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }

    let mut results = Vec::new();
    for candidate in closure {
        let frames: Vec<FrameId> = window
            .iter()
            .filter(|(_, objects)| candidate.is_subset_of(objects))
            .map(|&(fid, _)| fid)
            .collect();
        if frames.len() < duration {
            continue;
        }
        // MCOS check: the candidate must equal the intersection of all frames
        // it appears in; otherwise that intersection is a strict superset with
        // the same frame set.
        let mut tightest: Option<ObjectSet> = None;
        for (fid, objects) in window {
            if frames.binary_search(fid).is_ok() {
                tightest = Some(match tightest {
                    None => objects.clone(),
                    Some(prev) => prev.intersect(objects),
                });
            }
        }
        if tightest.as_ref() == Some(&candidate) {
            results.push((candidate, frames));
        }
    }
    results.sort_by(|a, b| a.0.cmp(&b.0));
    results
}

/// A [`StateMaintainer`] wrapper around [`mcos_of_window`], recomputing the
/// result set from scratch on every frame.
#[derive(Debug)]
pub struct ReferenceMaintainer {
    spec: WindowSpec,
    window: VecDeque<(FrameId, ObjectSet)>,
    results: ResultStateSet,
    metrics: MaintenanceMetrics,
    last_frame: Option<FrameId>,
}

impl ReferenceMaintainer {
    /// Creates a reference maintainer for the given window specification.
    pub fn new(spec: WindowSpec) -> Self {
        ReferenceMaintainer {
            spec,
            window: VecDeque::new(),
            results: ResultStateSet::new(),
            metrics: MaintenanceMetrics::new(),
            last_frame: None,
        }
    }
}

impl StateMaintainer for ReferenceMaintainer {
    fn advance(&mut self, frame: FrameId, objects: &ObjectSet) -> Result<()> {
        check_order(self.last_frame, frame)?;
        self.last_frame = Some(frame);
        self.metrics.frames_processed += 1;

        let oldest = self.spec.oldest_valid(frame);
        while matches!(self.window.front(), Some(&(fid, _)) if fid < oldest) {
            self.window.pop_front();
        }
        self.window.push_back((frame, objects.clone()));

        let window: Vec<(FrameId, ObjectSet)> = self.window.iter().cloned().collect();
        let mcos = mcos_of_window(&window, self.spec.duration());
        self.metrics.observe_live_states(mcos.len());
        self.results.clear();
        for (objects, frames) in mcos {
            let marked: MarkedFrameSet = frames.into_iter().map(|f| (f, true)).collect();
            self.results.insert(objects, &marked, None);
        }
        Ok(())
    }

    fn last_frame(&self) -> Option<FrameId> {
        self.last_frame
    }

    fn results(&self) -> &ResultStateSet {
        &self.results
    }

    fn metrics(&self) -> &MaintenanceMetrics {
        &self.metrics
    }

    fn live_states(&self) -> usize {
        self.results.len()
    }

    fn name(&self) -> &'static str {
        "REFERENCE"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ids: &[u32]) -> ObjectSet {
        ObjectSet::from_raw(ids.iter().copied())
    }

    fn window(frames: &[(u64, &[u32])]) -> Vec<(FrameId, ObjectSet)> {
        frames
            .iter()
            .map(|&(fid, objs)| (FrameId(fid), set(objs)))
            .collect()
    }

    /// The running example of Section 2: frames ({B},{ABC},{ABDF},{ABCF},{ABD}),
    /// duration 3 in a window of 5 → MCOSs {B} and {AB}.
    /// Objects are encoded as A=1, B=2, C=3, D=4, F=6.
    #[test]
    fn section_2_example_duration_3() {
        let w = window(&[
            (0, &[2]),
            (1, &[1, 2, 3]),
            (2, &[1, 2, 4, 6]),
            (3, &[1, 2, 3, 6]),
            (4, &[1, 2, 4]),
        ]);
        let results = mcos_of_window(&w, 3);
        let sets: Vec<ObjectSet> = results.iter().map(|(s, _)| s.clone()).collect();
        assert!(sets.contains(&set(&[2])), "{{B}} expected in {sets:?}");
        assert!(sets.contains(&set(&[1, 2])), "{{AB}} expected in {sets:?}");
        assert_eq!(sets.len(), 2);
        // Frame sets reported are the full appearance sets.
        let b_frames = &results.iter().find(|(s, _)| *s == set(&[2])).unwrap().1;
        assert_eq!(b_frames.len(), 5);
        let ab_frames = &results.iter().find(|(s, _)| *s == set(&[1, 2])).unwrap().1;
        assert_eq!(
            ab_frames,
            &vec![FrameId(1), FrameId(2), FrameId(3), FrameId(4)]
        );
    }

    /// Relaxing the duration to 2 adds {ABC}, {ABD} and {ABF} (Section 2).
    #[test]
    fn section_2_example_duration_2() {
        let w = window(&[
            (0, &[2]),
            (1, &[1, 2, 3]),
            (2, &[1, 2, 4, 6]),
            (3, &[1, 2, 3, 6]),
            (4, &[1, 2, 4]),
        ]);
        let results = mcos_of_window(&w, 2);
        let sets: Vec<ObjectSet> = results.iter().map(|(s, _)| s.clone()).collect();
        for expected in [
            set(&[2]),
            set(&[1, 2]),
            set(&[1, 2, 3]),
            set(&[1, 2, 4]),
            set(&[1, 2, 6]),
        ] {
            assert!(sets.contains(&expected), "missing {expected:?} in {sets:?}");
        }
        assert_eq!(sets.len(), 5);
    }

    #[test]
    fn empty_window_has_no_mcos() {
        assert!(mcos_of_window(&[], 1).is_empty());
        let w = window(&[(0, &[]), (1, &[])]);
        assert!(mcos_of_window(&w, 1).is_empty());
    }

    #[test]
    fn single_frame_yields_its_object_set() {
        let w = window(&[(7, &[1, 2, 3])]);
        let results = mcos_of_window(&w, 1);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, set(&[1, 2, 3]));
        assert_eq!(results[0].1, vec![FrameId(7)]);
    }

    #[test]
    fn duration_filters_short_lived_sets() {
        let w = window(&[(0, &[1, 2]), (1, &[1]), (2, &[1])]);
        // {1,2} appears once, {1} appears three times.
        let results = mcos_of_window(&w, 2);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, set(&[1]));
    }

    #[test]
    fn maintainer_window_slides() {
        let spec = WindowSpec::new(2, 1).unwrap();
        let mut m = ReferenceMaintainer::new(spec);
        m.advance(FrameId(0), &set(&[1, 2])).unwrap();
        m.advance(FrameId(1), &set(&[2, 3])).unwrap();
        assert!(m.results().contains(&set(&[2])));
        m.advance(FrameId(2), &set(&[3])).unwrap();
        // Frame 0 has expired: {1,2} is gone, {3} spans frames 1-2.
        assert!(!m.results().contains(&set(&[1, 2])));
        assert_eq!(m.results().frames_of(&set(&[3])).unwrap().len(), 2);
    }

    #[test]
    fn maintainer_rejects_out_of_order_frames() {
        let spec = WindowSpec::new(4, 1).unwrap();
        let mut m = ReferenceMaintainer::new(spec);
        m.advance(FrameId(5), &set(&[1])).unwrap();
        assert!(m.advance(FrameId(5), &set(&[1])).is_err());
        assert!(m.advance(FrameId(4), &set(&[1])).is_err());
    }
}
