//! Maintenance metrics.
//!
//! Every state maintainer exposes counters describing the work it performed.
//! The paper's evaluation reasons about *why* MFS and SSG win (fewer states
//! touched, earlier pruning); these counters make that reasoning measurable
//! and drive the ablation benchmarks.

use tvq_common::{Decoder, Encoder, Error, Result};

/// Counters accumulated by a state maintainer over its lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaintenanceMetrics {
    /// Frames processed through [`advance`](crate::StateMaintainer::advance).
    pub frames_processed: u64,
    /// States (object set + frame set pairs) created.
    pub states_created: u64,
    /// States removed because they became invalid (all key frames expired)
    /// or their frame set emptied.
    pub states_pruned: u64,
    /// States terminated by the query-driven pruning strategy (Section 5.3):
    /// one per judgement that found a set hopeless. A hopeless set holds no
    /// state, so its set is released at the end of the frame and judged
    /// again whenever a later frame mints it.
    pub states_terminated: u64,
    /// Object-set intersections computed.
    pub intersections: u64,
    /// Appends: an in-window frame joining a state that was live before
    /// that frame, once per state and frame. A new state's first frame is
    /// not one.
    pub frames_appended: u64,
    /// States visited (touched) while processing frames. For MFS/NAIVE this
    /// counts every state scanned per frame; for SSG it counts graph nodes
    /// visited by State Traversal, which is the quantity the graph structure
    /// is designed to reduce.
    pub states_visited: u64,
    /// Edges added to the Strict State Graph (always zero for NAIVE/MFS).
    pub edges_added: u64,
    /// Edges removed from the Strict State Graph.
    pub edges_removed: u64,
    /// Largest number of simultaneously live states observed.
    pub peak_live_states: u64,
    /// Non-empty object sets currently held by the maintainer's set
    /// interner, sampled after each frame, once the sets the frame minted
    /// without a state are released: the live states' sets.
    pub interned_sets: u64,
    /// Bytes the interner holds beside its bitmaps: the content index, a
    /// `u32` slot table at most ¾ full (5.3–6.7 B a set when rebuilt), and
    /// the birth stamps, free list and sets minted this frame, 4 B an
    /// entry each. A gauge, sampled after each frame.
    pub arena_bytes: u64,
    /// Bytes held by the interner's dense bitmaps and universe map (with
    /// its reverse table). A gauge, sampled after each frame.
    pub bitmap_bytes: u64,
    /// Interner compaction epochs run so far: the one epoch count, which
    /// `CompactionOutcome::epoch` reports and a snapshot carries.
    pub compactions: u64,
    /// Intersections answered from the interner's memo cache. Always 0 for
    /// MFS, which intersects without the memo.
    pub intersection_cache_hits: u64,
    /// Intersections that missed the memo and ran the word-parallel kernel.
    /// Always 0 for MFS.
    pub intersection_cache_misses: u64,
    /// Always 0: the memo has a fixed size. The field keeps its position
    /// because the persisted metrics are an ordered field list.
    pub intersection_cache_resizes: u64,
    /// Current memo slot count. A gauge, sampled after each frame; 0 for
    /// MFS, which never allocates the memo.
    pub intersection_cache_slots: u64,
    /// Object identifiers the engine currently tracks (holds class-store
    /// entries for). A gauge; bounded by the live window on retiring
    /// configurations, monotone otherwise.
    pub tracked_objects: u64,
    /// Approximate bytes held by the engine's class store. A gauge.
    pub class_map_bytes: u64,
    /// Approximate bytes held by the engine's object-lifecycle maps (live
    /// bindings, aliases). A gauge.
    pub lifecycle_bytes: u64,
    /// Objects retired at compaction epoch boundaries so far (dropped from
    /// the engine's tracking maps and released from the class store).
    pub objects_retired: u64,
    /// Object generations started: every first sight of an identifier and
    /// every detected reuse (class change, or reappearance after
    /// retirement) starts one.
    pub generations_started: u64,
    /// Explicit tracker end-of-track events applied (only ends that severed
    /// a live binding count).
    pub tracks_ended: u64,
    /// Query-catalog swaps (add/remove-query operations) applied so far.
    pub catalog_swaps: u64,
    /// Largest number of frames one batch of the multi-feed engine placed
    /// on a single share. A gauge only the fleet sets (always zero on
    /// single-feed engines); a value far above `frames_processed / batches /
    /// workers` means one feed dominates its batches.
    pub per_shard_queue_depth: u64,
    /// Always zero: nothing writes it since the multi-feed engine places
    /// each batch afresh and no longer migrates feeds. It stays, with its
    /// place in the codec, because the benchmark surface reads it; a change
    /// to that surface removes it.
    pub feeds_migrated: u64,
    /// Always zero, like `feeds_migrated` (there are no rebalance passes);
    /// kept for the same reason until the benchmark surface drops it.
    pub rebalances: u64,
    /// Bytes appended to the write-ahead log (record payloads plus framing).
    /// Store-owned; always zero on non-durable engines.
    pub wal_bytes: u64,
    /// Records appended to the write-ahead log.
    pub wal_records: u64,
    /// Epoch snapshots written so far.
    pub snapshots_written: u64,
    /// Bytes written into snapshot files so far (payload plus framing).
    pub snapshot_bytes: u64,
    /// `fsync` calls issued by the durability store (WAL appends, snapshot
    /// publication, directory syncs).
    pub fsyncs: u64,
    /// Recoveries performed (snapshot load plus WAL tail replay). Normally
    /// 0 or 1 per engine; per-feed on the multi-feed engine, so a merged
    /// report counts every recovered feed's replays.
    pub recoveries: u64,
}

impl MaintenanceMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the current number of live states, updating the peak.
    pub fn observe_live_states(&mut self, live: usize) {
        self.peak_live_states = self.peak_live_states.max(live as u64);
    }

    /// Samples the interner-backed gauges (arena size and bytes, bitmap
    /// bytes, memo hit/miss counters). Maintainers call this once per frame
    /// and after every compaction epoch; all reads are O(1).
    pub fn observe_interner(&mut self, interner: &tvq_common::SetInterner) {
        self.interned_sets = interner.held().saturating_sub(1) as u64;
        self.arena_bytes = interner.arena_bytes() as u64;
        self.bitmap_bytes = interner.bitmap_bytes() as u64;
        self.intersection_cache_hits = interner.memo_hits();
        self.intersection_cache_misses = interner.memo_misses();
        self.intersection_cache_slots = interner.memo_slots() as u64;
    }

    /// Accumulates `other`'s counters into `self`.
    ///
    /// All counters add field-wise, including `peak_live_states` and the
    /// byte gauges (`arena_bytes`, `bitmap_bytes`): per-source peaks need
    /// not coincide in time, so the merged values are *upper bounds* on the
    /// simultaneous totals across sources.
    /// This is the aggregation the multi-feed engine uses to fold per-shard
    /// metrics into one global report; merging is commutative and
    /// associative, and merging into [`MaintenanceMetrics::default`] copies.
    ///
    /// # Example
    ///
    /// ```
    /// use tvq_core::MaintenanceMetrics;
    ///
    /// let mut shard = MaintenanceMetrics::new();
    /// shard.frames_processed = 10;
    /// shard.states_created = 4;
    /// shard.peak_live_states = 3;
    ///
    /// let mut global = MaintenanceMetrics::default();
    /// global.merge(&shard);
    /// global.merge(&shard);
    /// assert_eq!(global.frames_processed, 20);
    /// assert_eq!(global.states_created, 8);
    /// assert_eq!(global.peak_live_states, 6);
    /// ```
    pub fn merge(&mut self, other: &MaintenanceMetrics) {
        let mut other = other.clone();
        for (mine, theirs) in self.fields_mut().into_iter().zip(other.fields_mut()) {
            *mine += *theirs;
        }
    }

    /// Every counter, in snapshot order — the one list [`merge`](Self::merge)
    /// and the codec below iterate. The destructuring is exhaustive (no
    /// `..`), so a field added to the struct but not here fails to compile
    /// instead of silently resetting on recovery or dropping out of merged
    /// reports. New fields go at the end: the order is the on-disk format.
    fn fields_mut(&mut self) -> [&mut u64; 34] {
        let MaintenanceMetrics {
            frames_processed,
            states_created,
            states_pruned,
            states_terminated,
            intersections,
            frames_appended,
            states_visited,
            edges_added,
            edges_removed,
            peak_live_states,
            interned_sets,
            arena_bytes,
            bitmap_bytes,
            compactions,
            intersection_cache_hits,
            intersection_cache_misses,
            intersection_cache_resizes,
            intersection_cache_slots,
            tracked_objects,
            class_map_bytes,
            lifecycle_bytes,
            objects_retired,
            generations_started,
            tracks_ended,
            catalog_swaps,
            per_shard_queue_depth,
            feeds_migrated,
            rebalances,
            wal_bytes,
            wal_records,
            snapshots_written,
            snapshot_bytes,
            fsyncs,
            recoveries,
        } = self;
        [
            frames_processed,
            states_created,
            states_pruned,
            states_terminated,
            intersections,
            frames_appended,
            states_visited,
            edges_added,
            edges_removed,
            peak_live_states,
            interned_sets,
            arena_bytes,
            bitmap_bytes,
            compactions,
            intersection_cache_hits,
            intersection_cache_misses,
            intersection_cache_resizes,
            intersection_cache_slots,
            tracked_objects,
            class_map_bytes,
            lifecycle_bytes,
            objects_retired,
            generations_started,
            tracks_ended,
            catalog_swaps,
            per_shard_queue_depth,
            feeds_migrated,
            rebalances,
            wal_bytes,
            wal_records,
            snapshots_written,
            snapshot_bytes,
            fsyncs,
            recoveries,
        ]
    }

    /// Appends the counters as a count-prefixed ordered `u64` list.
    pub fn encode(&self, enc: &mut Encoder) {
        let mut metrics = self.clone();
        let fields = metrics.fields_mut();
        enc.put_usize(fields.len());
        for value in fields {
            enc.put_u64(*value);
        }
    }

    /// Reads metrics written by [`encode`](Self::encode), rejecting a
    /// field-count mismatch (writer and reader disagree about the layout).
    pub fn decode(dec: &mut Decoder<'_>) -> Result<MaintenanceMetrics> {
        let mut metrics = MaintenanceMetrics::new();
        let fields = metrics.fields_mut();
        let count = dec.take_len()?;
        if count != fields.len() {
            return Err(Error::Codec(format!(
                "metrics field count {count} does not match this build's {}",
                fields.len()
            )));
        }
        for field in fields {
            *field = dec.take_u64()?;
        }
        Ok(metrics)
    }

    /// Test support: the metrics with the interner's memo gauges cleared.
    /// The memo is a cache and deliberately not persisted, so under SSG its
    /// hit/miss/size counters drift after recovery while every result stays
    /// identical; continuation equality is asserted modulo these four fields.
    #[cfg(test)]
    pub(crate) fn without_cache_gauges(&self) -> MaintenanceMetrics {
        MaintenanceMetrics {
            intersection_cache_hits: 0,
            intersection_cache_misses: 0,
            intersection_cache_resizes: 0,
            intersection_cache_slots: 0,
            ..self.clone()
        }
    }

    /// Folds an iterator of metrics into one aggregate via [`merge`](Self::merge).
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a MaintenanceMetrics>) -> Self {
        let mut total = MaintenanceMetrics::new();
        for part in parts {
            total.merge(part);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_round_trip_and_reject_field_count_skew() {
        let mut metrics = MaintenanceMetrics::new();
        metrics.frames_processed = 17;
        metrics.wal_bytes = 1024;
        metrics.recoveries = 2;
        let mut enc = Encoder::new();
        metrics.encode(&mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(MaintenanceMetrics::decode(&mut dec).unwrap(), metrics);
        dec.finish().unwrap();

        let mut enc = Encoder::new();
        enc.put_usize(3);
        for value in [1u64, 2, 3] {
            enc.put_u64(value);
        }
        let bytes = enc.into_bytes();
        let err = MaintenanceMetrics::decode(&mut Decoder::new(&bytes)).unwrap_err();
        assert!(matches!(err, Error::Codec(_)), "{err}");
    }

    #[test]
    fn defaults_are_zero() {
        let m = MaintenanceMetrics::new();
        assert_eq!(m.frames_processed, 0);
        assert_eq!(m.peak_live_states, 0);
    }

    #[test]
    fn peak_tracks_maximum() {
        let mut m = MaintenanceMetrics::new();
        m.observe_live_states(5);
        m.observe_live_states(3);
        m.observe_live_states(9);
        assert_eq!(m.peak_live_states, 9);
    }

    #[test]
    fn merge_adds_every_counter() {
        let mut a = MaintenanceMetrics::new();
        a.frames_processed = 1;
        a.states_created = 2;
        a.states_pruned = 3;
        a.states_terminated = 4;
        a.intersections = 5;
        a.frames_appended = 6;
        a.states_visited = 7;
        a.edges_added = 8;
        a.edges_removed = 9;
        a.peak_live_states = 10;
        a.interned_sets = 11;
        a.arena_bytes = 12;
        a.bitmap_bytes = 13;
        a.compactions = 14;
        a.intersection_cache_hits = 15;
        a.intersection_cache_misses = 16;
        a.intersection_cache_resizes = 17;
        a.intersection_cache_slots = 18;
        a.tracked_objects = 19;
        a.class_map_bytes = 20;
        a.lifecycle_bytes = 21;
        a.objects_retired = 22;
        a.generations_started = 23;
        a.tracks_ended = 24;
        a.catalog_swaps = 25;
        a.per_shard_queue_depth = 26;
        a.feeds_migrated = 27;
        a.rebalances = 28;
        a.wal_bytes = 29;
        a.wal_records = 30;
        a.snapshots_written = 31;
        a.snapshot_bytes = 32;
        a.fsyncs = 33;
        a.recoveries = 34;
        let mut b = a.clone();
        b.merge(&a);
        let doubled = MaintenanceMetrics::merged([&a, &a]);
        assert_eq!(b, doubled);
        assert_eq!(doubled.frames_processed, 2);
        assert_eq!(doubled.states_created, 4);
        assert_eq!(doubled.states_pruned, 6);
        assert_eq!(doubled.states_terminated, 8);
        assert_eq!(doubled.intersections, 10);
        assert_eq!(doubled.frames_appended, 12);
        assert_eq!(doubled.states_visited, 14);
        assert_eq!(doubled.edges_added, 16);
        assert_eq!(doubled.edges_removed, 18);
        assert_eq!(doubled.peak_live_states, 20);
        assert_eq!(doubled.interned_sets, 22);
        assert_eq!(doubled.arena_bytes, 24);
        assert_eq!(doubled.bitmap_bytes, 26);
        assert_eq!(doubled.compactions, 28);
        assert_eq!(doubled.intersection_cache_hits, 30);
        assert_eq!(doubled.intersection_cache_misses, 32);
        assert_eq!(doubled.intersection_cache_resizes, 34);
        assert_eq!(doubled.intersection_cache_slots, 36);
        assert_eq!(doubled.tracked_objects, 38);
        assert_eq!(doubled.class_map_bytes, 40);
        assert_eq!(doubled.lifecycle_bytes, 42);
        assert_eq!(doubled.objects_retired, 44);
        assert_eq!(doubled.generations_started, 46);
        assert_eq!(doubled.tracks_ended, 48);
        assert_eq!(doubled.catalog_swaps, 50);
        assert_eq!(doubled.per_shard_queue_depth, 52);
        assert_eq!(doubled.feeds_migrated, 54);
        assert_eq!(doubled.rebalances, 56);
        assert_eq!(doubled.wal_bytes, 58);
        assert_eq!(doubled.wal_records, 60);
        assert_eq!(doubled.snapshots_written, 62);
        assert_eq!(doubled.snapshot_bytes, 64);
        assert_eq!(doubled.fsyncs, 66);
        assert_eq!(doubled.recoveries, 68);
    }

    #[test]
    fn merging_into_default_copies() {
        let mut a = MaintenanceMetrics::new();
        a.frames_processed = 12;
        a.states_visited = 30;
        let merged = MaintenanceMetrics::merged([&a]);
        assert_eq!(merged, a);
        let empty = std::iter::empty::<&MaintenanceMetrics>();
        assert_eq!(MaintenanceMetrics::merged(empty), MaintenanceMetrics::new());
    }
}
