//! Subscription dispatch: fan query matches out to bounded per-subscriber
//! queues.
//!
//! The engine produces [`QueryMatch`]es synchronously, frame by frame. A
//! serving deployment has many *subscribers* — connections, dashboards,
//! downstream pipelines — each interested in some subset of the registered
//! queries and each consuming at its own pace. [`SubscriptionHub`] decouples
//! the two sides:
//!
//! * [`publish`](SubscriptionHub::publish) stamps each match with a global,
//!   monotonically increasing sequence number and fans it out to every
//!   subscriber whose query filter accepts it. Events are shared (`Arc`),
//!   so fan-out to N subscribers clones pointers, not payloads;
//! * every subscriber owns a **bounded** FIFO queue. A slow consumer never
//!   stalls the engine or other subscribers: when its queue is full the
//!   oldest event is dropped and its `dropped` counter incremented —
//!   the sequence numbers let the consumer detect the gap;
//! * [`poll`](SubscriptionHub::poll) drains up to `max` events in order and
//!   advances the subscriber's cursor (total events delivered).
//!
//! The hub is synchronous and single-threaded by design — the server wraps
//! it in its own lock next to the engine, mirroring the embedded-vs-server
//! split described in ARCHITECTURE.md.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use tvq_common::{Error, FeedId, FrameId, FxHashSet, QueryId, Result};
use tvq_query::QueryMatch;

/// Identifies one subscriber registered with a [`SubscriptionHub`].
/// Never reused within a hub's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubscriberId(pub u64);

impl std::fmt::Display for SubscriberId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One dispatched match: the match itself plus its provenance and the
/// hub-global sequence number subscribers use to detect drop gaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchEvent {
    /// Hub-global sequence number: assigned in publish order, starting at
    /// 0, never reused. Consecutive events a subscriber receives differ by
    /// more than the filter skips only when its queue overflowed.
    pub seq: u64,
    /// The feed the match came from (single-feed deployments pass a fixed
    /// id).
    pub feed: FeedId,
    /// The frame whose window produced the match.
    pub frame: FrameId,
    /// The match.
    pub matched: QueryMatch,
}

/// Live state of one subscriber.
#[derive(Debug)]
pub struct Subscription {
    queue: VecDeque<Arc<MatchEvent>>,
    capacity: usize,
    /// `None` subscribes to every query.
    filter: Option<FxHashSet<QueryId>>,
    dropped: u64,
    delivered: u64,
}

impl Subscription {
    /// Events currently waiting to be polled.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// The queued events, oldest first, read in place: the next
    /// [`poll`](SubscriptionHub::poll) returns a prefix of them.
    pub fn events(&self) -> impl Iterator<Item = &Arc<MatchEvent>> {
        self.queue.iter()
    }

    /// The queue bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events discarded because the queue was full (oldest-first).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The subscriber's cursor: events handed out via
    /// [`poll`](SubscriptionHub::poll) so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// The query filter, or `None` for all queries.
    pub fn filter(&self) -> Option<&FxHashSet<QueryId>> {
        self.filter.as_ref()
    }

    fn accepts(&self, query: QueryId) -> bool {
        match &self.filter {
            Some(filter) => filter.contains(&query),
            None => true,
        }
    }

    fn push(&mut self, event: &Arc<MatchEvent>) {
        if self.queue.len() == self.capacity {
            self.queue.pop_front();
            self.dropped += 1;
        }
        self.queue.push_back(Arc::clone(event));
    }
}

/// Fans query matches out to bounded per-subscriber queues. See the
/// [module docs](self).
#[derive(Debug, Default)]
pub struct SubscriptionHub {
    subscribers: BTreeMap<SubscriberId, Subscription>,
    next_subscriber: u64,
    next_seq: u64,
}

impl SubscriptionHub {
    /// Creates a hub with no subscribers.
    pub fn new() -> Self {
        SubscriptionHub::default()
    }

    /// Registers a subscriber with the given queue bound (clamped to at
    /// least 1) and query filter (`None` = every query).
    pub fn subscribe(
        &mut self,
        capacity: usize,
        filter: Option<FxHashSet<QueryId>>,
    ) -> SubscriberId {
        let id = SubscriberId(self.next_subscriber);
        self.next_subscriber += 1;
        self.subscribers.insert(
            id,
            Subscription {
                queue: VecDeque::new(),
                capacity: capacity.max(1),
                filter,
                dropped: 0,
                delivered: 0,
            },
        );
        id
    }

    /// Removes a subscriber, discarding its queue.
    pub fn unsubscribe(&mut self, id: SubscriberId) -> Result<()> {
        self.subscribers
            .remove(&id)
            .map(|_| ())
            .ok_or_else(|| Error::InvalidConfig(format!("unknown subscriber {id}")))
    }

    /// Narrows every subscriber's filter after a query was cancelled:
    /// drops the id from explicit filters and purges queued events for it.
    /// Subscribers filtering on *only* that query keep their (now empty)
    /// filter and simply receive nothing further.
    pub fn retract_query(&mut self, query: QueryId) {
        for sub in self.subscribers.values_mut() {
            if let Some(filter) = &mut sub.filter {
                filter.remove(&query);
            }
            sub.queue.retain(|event| event.matched.query != query);
        }
    }

    /// Stamps each match with the next sequence numbers and fans it out to
    /// every subscriber whose filter accepts its query. Returns how many
    /// events were enqueued (sum over subscribers, counting an event once
    /// per recipient).
    pub fn publish(&mut self, feed: FeedId, frame: FrameId, matches: &[QueryMatch]) -> usize {
        let mut enqueued = 0;
        for matched in matches {
            let event = Arc::new(MatchEvent {
                seq: self.next_seq,
                feed,
                frame,
                matched: matched.clone(),
            });
            self.next_seq += 1;
            for sub in self.subscribers.values_mut() {
                if sub.accepts(matched.query) {
                    sub.push(&event);
                    enqueued += 1;
                }
            }
        }
        enqueued
    }

    /// Drains up to `max` queued events for a subscriber, oldest first,
    /// advancing its cursor.
    pub fn poll(&mut self, id: SubscriberId, max: usize) -> Result<Vec<Arc<MatchEvent>>> {
        let sub = self
            .subscribers
            .get_mut(&id)
            .ok_or_else(|| Error::InvalidConfig(format!("unknown subscriber {id}")))?;
        let take = max.min(sub.queue.len());
        let events: Vec<Arc<MatchEvent>> = sub.queue.drain(..take).collect();
        sub.delivered += events.len() as u64;
        Ok(events)
    }

    /// The live state of a subscriber.
    pub fn subscription(&self, id: SubscriberId) -> Option<&Subscription> {
        self.subscribers.get(&id)
    }

    /// Number of live subscribers.
    pub fn len(&self) -> usize {
        self.subscribers.len()
    }

    /// Whether no subscribers are registered.
    pub fn is_empty(&self) -> bool {
        self.subscribers.is_empty()
    }

    /// Events published through the hub so far (across all subscribers).
    pub fn published(&self) -> u64 {
        self.next_seq
    }

    /// Total events dropped to backpressure, across all subscribers.
    pub fn total_dropped(&self) -> u64 {
        self.subscribers.values().map(Subscription::dropped).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvq_common::ObjectSet;

    fn matched(query: u32) -> QueryMatch {
        QueryMatch {
            query: QueryId(query),
            objects: ObjectSet::from_raw([1, 2]),
            frames: Arc::from([FrameId(0), FrameId(1)]),
        }
    }

    fn filter(ids: &[u32]) -> Option<FxHashSet<QueryId>> {
        Some(ids.iter().map(|&q| QueryId(q)).collect())
    }

    #[test]
    fn events_are_sequenced_and_fanned_out() {
        let mut hub = SubscriptionHub::new();
        let all = hub.subscribe(8, None);
        let only_q1 = hub.subscribe(8, filter(&[1]));
        let enqueued = hub.publish(FeedId(0), FrameId(5), &[matched(0), matched(1)]);
        assert_eq!(enqueued, 3, "2 to the unfiltered, 1 to the filtered");
        assert_eq!(hub.published(), 2);

        let events = hub.poll(all, 10).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].seq, 0);
        assert_eq!(events[1].seq, 1);
        assert_eq!(events[0].frame, FrameId(5));
        assert_eq!(events[0].matched.query, QueryId(0));

        let events = hub.poll(only_q1, 10).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].matched.query, QueryId(1));
        assert_eq!(events[0].seq, 1, "global seq, independent of the filter");
        assert_eq!(hub.subscription(only_q1).unwrap().delivered(), 1);
    }

    #[test]
    fn full_queue_drops_oldest_and_counts() {
        let mut hub = SubscriptionHub::new();
        let slow = hub.subscribe(2, None);
        for i in 0..5 {
            hub.publish(FeedId(0), FrameId(i), &[matched(0)]);
        }
        let sub = hub.subscription(slow).unwrap();
        assert_eq!(sub.queued(), 2);
        assert_eq!(sub.dropped(), 3);
        assert_eq!(hub.total_dropped(), 3);
        // The survivors are the newest events; the seq gap exposes the loss.
        let events = hub.poll(slow, 10).unwrap();
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].seq, 4);
    }

    #[test]
    fn poll_respects_max_and_preserves_order() {
        let mut hub = SubscriptionHub::new();
        let id = hub.subscribe(10, None);
        hub.publish(FeedId(2), FrameId(0), &[matched(0), matched(1), matched(2)]);
        let first = hub.poll(id, 2).unwrap();
        assert_eq!(first.len(), 2);
        let rest = hub.poll(id, 2).unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].seq, 2);
        assert!(hub.poll(id, 2).unwrap().is_empty());
        assert_eq!(hub.subscription(id).unwrap().delivered(), 3);
    }

    #[test]
    fn unsubscribe_and_unknown_ids() {
        let mut hub = SubscriptionHub::new();
        let id = hub.subscribe(4, None);
        assert_eq!(hub.len(), 1);
        hub.unsubscribe(id).unwrap();
        assert!(hub.is_empty());
        assert!(hub.unsubscribe(id).is_err());
        assert!(hub.poll(id, 1).is_err());
        // Ids are never reused.
        let next = hub.subscribe(4, None);
        assert_ne!(next, id);
    }

    #[test]
    fn retract_query_purges_queues_and_filters() {
        let mut hub = SubscriptionHub::new();
        let mixed = hub.subscribe(8, filter(&[0, 1]));
        hub.publish(FeedId(0), FrameId(0), &[matched(0), matched(1)]);
        hub.retract_query(QueryId(0));
        let events = hub.poll(mixed, 10).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].matched.query, QueryId(1));
        let sub = hub.subscription(mixed).unwrap();
        assert_eq!(sub.filter().unwrap().len(), 1);
        // Republishing the retracted query reaches no one.
        assert_eq!(hub.publish(FeedId(0), FrameId(1), &[matched(0)]), 0);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let mut hub = SubscriptionHub::new();
        let id = hub.subscribe(0, None);
        assert_eq!(hub.subscription(id).unwrap().capacity(), 1);
        hub.publish(FeedId(0), FrameId(0), &[matched(0), matched(1)]);
        let sub = hub.subscription(id).unwrap();
        assert_eq!(sub.queued(), 1);
        assert_eq!(sub.dropped(), 1);
    }
}
