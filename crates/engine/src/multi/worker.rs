//! One share of one batch, run on its own scoped thread.
//!
//! [`push_batch`](super::MultiFeedEngine::push_batch) spawns one thread per
//! non-empty share. The thread borrows the engines of its share's feeds
//! from the fleet's map, runs the frames in order, builds the engine of any
//! feed that has none, and hands back only those new engines in one
//! [`Done`] — so after the join every engine is where it was, and a feed's
//! engine is never in two places.

use std::collections::BTreeMap;
use std::time::Instant;

use tvq_common::{FeedId, Result};

use super::FeedFrame;
use crate::engine::{FrameResult, TemporalVideoQueryEngine};

/// The per-feed engines, keyed so every walk is in ascending feed order.
pub(super) type Engines = BTreeMap<FeedId, Box<TemporalVideoQueryEngine>>;

/// A finished share: the engines it built, the per-frame outcomes by batch
/// position, and the nanoseconds the share took (see
/// [`SchedulingStats`](super::SchedulingStats)).
pub(super) struct Done {
    pub(super) built: Engines,
    pub(super) outcomes: Vec<(usize, Result<FrameResult>)>,
    pub(super) busy_nanos: u64,
}

/// Runs the frames at batch positions `share`, in order, each on its feed's
/// engine: the one lent from the fleet's map, or one `new_engine` builds.
pub(super) fn run_share(
    new_engine: &impl Fn() -> TemporalVideoQueryEngine,
    batch: &[FeedFrame],
    share: &[usize],
    mut lent: BTreeMap<FeedId, &mut TemporalVideoQueryEngine>,
) -> Done {
    let started = Instant::now();
    let mut built = Engines::new();
    let mut outcomes = Vec::with_capacity(share.len());
    for &seq in share {
        let FeedFrame { feed, frame } = &batch[seq];
        #[cfg(test)]
        assert_ne!(frame.fid.raw(), u64::MAX, "a test panics this share");
        let engine: &mut TemporalVideoQueryEngine = match lent.get_mut(feed) {
            Some(engine) => engine,
            None => built.entry(*feed).or_insert_with(|| Box::new(new_engine())),
        };
        outcomes.push((seq, engine.observe(frame)));
    }
    Done {
        built,
        outcomes,
        busy_nanos: started.elapsed().as_nanos() as u64,
    }
}
