//! Sliding-window specification.
//!
//! Queries in the paper are evaluated over the most recent `w` frames with a
//! duration parameter `d` (0 ≤ d ≤ w): an MCOS satisfies a query only if it
//! co-occurs in at least `d` of the window's frames. [`WindowSpec`] bundles
//! the two parameters and centralises the expiry arithmetic so every
//! maintainer treats window boundaries identically.

use crate::error::{Error, Result};
use crate::ids::FrameId;

/// A sliding-window specification: window length `w` and duration threshold
/// `d`, both measured in frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WindowSpec {
    window: usize,
    duration: usize,
}

impl WindowSpec {
    /// Creates a window specification, validating `window >= 1` and
    /// `duration <= window`.
    pub fn new(window: usize, duration: usize) -> Result<Self> {
        if window == 0 || duration > window {
            return Err(Error::InvalidWindow { window, duration });
        }
        Ok(WindowSpec { window, duration })
    }

    /// The paper's default configuration: a 300-frame window (10 seconds at
    /// 30 fps) with a 240-frame duration threshold (8 seconds).
    pub fn paper_default() -> Self {
        WindowSpec {
            window: 300,
            duration: 240,
        }
    }

    /// Window length in frames.
    #[inline]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Duration threshold in frames.
    #[inline]
    pub fn duration(&self) -> usize {
        self.duration
    }

    /// The oldest frame identifier still inside the window that ends at
    /// `current` (inclusive). With a window of `w` frames, the window at
    /// frame `i` covers frames `max(0, i - w + 1) ..= i`.
    pub fn oldest_valid(&self, current: FrameId) -> FrameId {
        FrameId(current.raw().saturating_sub(self.window as u64 - 1))
    }

    /// Whether `frame` is inside the window ending at `current`.
    pub fn contains(&self, current: FrameId, frame: FrameId) -> bool {
        frame <= current && frame >= self.oldest_valid(current)
    }

    /// Whether a state whose frame set has `count` frames satisfies the
    /// duration threshold.
    #[inline]
    pub fn satisfies_duration(&self, count: usize) -> bool {
        count >= self.duration
    }
}

impl Default for WindowSpec {
    fn default() -> Self {
        WindowSpec::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(WindowSpec::new(0, 0).is_err());
        assert!(WindowSpec::new(5, 6).is_err());
        assert!(WindowSpec::new(5, 5).is_ok());
        assert!(WindowSpec::new(1, 0).is_ok());
    }

    #[test]
    fn zero_length_windows_are_rejected_for_every_duration() {
        for duration in 0..4 {
            let err = WindowSpec::new(0, duration).unwrap_err();
            assert!(
                err.to_string().contains("window"),
                "error should name the window: {err}"
            );
        }
    }

    #[test]
    fn durations_exceeding_the_window_are_rejected() {
        for window in 1..6usize {
            assert!(WindowSpec::new(window, window).is_ok());
            for excess in 1..3usize {
                assert!(
                    WindowSpec::new(window, window + excess).is_err(),
                    "w={window}, d={}",
                    window + excess
                );
            }
        }
        // A duration of zero means "report every co-occurrence" and is valid.
        assert!(WindowSpec::new(3, 0).is_ok());
    }

    #[test]
    fn paper_default_matches_section_6() {
        let spec = WindowSpec::paper_default();
        assert_eq!(spec.window(), 300);
        assert_eq!(spec.duration(), 240);
    }

    #[test]
    fn oldest_valid_clamps_at_zero() {
        let spec = WindowSpec::new(4, 3).unwrap();
        assert_eq!(spec.oldest_valid(FrameId(2)), FrameId(0));
        assert_eq!(spec.oldest_valid(FrameId(3)), FrameId(0));
        assert_eq!(spec.oldest_valid(FrameId(4)), FrameId(1));
        assert_eq!(spec.oldest_valid(FrameId(10)), FrameId(7));
    }

    #[test]
    fn containment_matches_window_boundaries() {
        let spec = WindowSpec::new(4, 2).unwrap();
        assert!(spec.contains(FrameId(10), FrameId(7)));
        assert!(spec.contains(FrameId(10), FrameId(10)));
        assert!(!spec.contains(FrameId(10), FrameId(6)));
        assert!(!spec.contains(FrameId(10), FrameId(11)));
    }

    #[test]
    fn duration_threshold() {
        let spec = WindowSpec::new(10, 3).unwrap();
        assert!(!spec.satisfies_duration(2));
        assert!(spec.satisfies_duration(3));
        assert!(spec.satisfies_duration(10));
    }
}
