//! Strongly typed identifiers.
//!
//! The paper's structured relation `VR(fid, id, class)` mixes three kinds of
//! integers: frame identifiers, object (track) identifiers and class
//! identifiers. Newtypes keep them from being confused and give each a
//! natural display form.

use std::fmt;

/// Identifier of a frame in a video feed.
///
/// Frames are numbered `0..N` in presentation order; the sliding window and
/// all expiry logic rely on frame identifiers being monotonically increasing.
/// `FrameId(u64::MAX)` is reserved: State Traversal stamps never-visited
/// states with it, so every maintainer refuses a frame carrying it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FrameId(pub u64);

/// Identifier of a unique object produced by the tracking layer.
///
/// Object tracking guarantees that the same physical object keeps the same
/// identifier across the frames in which it appears, including across
/// occlusions that the tracker manages to bridge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ObjectId(pub u32);

/// Identifier of an object class (person, car, truck, bus, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ClassId(pub u16);

/// Identifier of a registered CNF query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct QueryId(pub u32);

/// Identifier of a video feed (camera) in a multi-feed deployment.
///
/// A deployment ingests many feeds concurrently; every frame entering the
/// multi-feed engine is tagged with the feed it belongs to, and all
/// cross-feed reports are ordered by feed identifier so that merged output
/// is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct FeedId(pub u32);

macro_rules! impl_id {
    ($name:ident, $inner:ty, $prefix:literal) => {
        impl $name {
            /// Returns the raw integer value.
            #[inline]
            pub const fn raw(self) -> $inner {
                self.0
            }

            /// Wraps a raw integer value.
            #[inline]
            pub const fn new(value: $inner) -> Self {
                Self(value)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(value: $inner) -> Self {
                Self(value)
            }
        }

        impl From<$name> for $inner {
            fn from(value: $name) -> $inner {
                value.0
            }
        }
    };
}

impl_id!(FrameId, u64, "f");
impl_id!(ObjectId, u32, "o");
impl_id!(ClassId, u16, "c");
impl_id!(QueryId, u32, "q");
impl_id!(FeedId, u32, "feed");

impl FrameId {
    /// Returns the following frame identifier.
    #[inline]
    pub const fn next(self) -> FrameId {
        FrameId(self.0 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_uses_prefixes() {
        assert_eq!(FrameId(3).to_string(), "f3");
        assert_eq!(ObjectId(9).to_string(), "o9");
        assert_eq!(ClassId(1).to_string(), "c1");
        assert_eq!(QueryId(12).to_string(), "q12");
        assert_eq!(FeedId(2).to_string(), "feed2");
    }

    #[test]
    fn conversions_round_trip() {
        let f: FrameId = 42u64.into();
        assert_eq!(u64::from(f), 42);
        assert_eq!(f.raw(), 42);
        let o = ObjectId::new(7);
        assert_eq!(u32::from(o), 7);
    }

    #[test]
    fn frame_arithmetic() {
        assert_eq!(FrameId(5).next(), FrameId(6));
    }

    #[test]
    fn ordering_follows_raw_values() {
        assert!(FrameId(1) < FrameId(2));
        assert!(ObjectId(10) > ObjectId(9));
        let mut v = vec![FrameId(3), FrameId(1), FrameId(2)];
        v.sort();
        assert_eq!(v, vec![FrameId(1), FrameId(2), FrameId(3)]);
    }
}
