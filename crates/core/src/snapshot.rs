//! Codec helpers shared by the maintainers' snapshot/restore paths.
//!
//! Each maintainer serializes its complete handle-keyed state through
//! [`StateMaintainer::snapshot_state`](crate::StateMaintainer::snapshot_state)
//! so the engine's durability layer can persist it at compaction epoch
//! boundaries and rebuild a bit-identical maintainer on recovery. The
//! helpers here cover the pieces every strategy shares:
//!
//! * the **interner** is persisted as its non-empty arena sets in handle
//!   order plus the compaction epoch ([`put_interner`] /
//!   [`restore_interner`]): re-interning the sets in order into a freshly
//!   built interner (same class store, same memo policy) reproduces
//!   identical handles, universe slots, bitmaps and cached class counts.
//!   The intersection memo is *not* persisted — it is a cache, so only the
//!   hit/miss counters drift after recovery, never a result;
//! * **marked frame sets** round-trip through their `(frame, marked)`
//!   iterator;
//! * **metrics** are persisted as an ordered `u64` field list with a count
//!   prefix, so a layout mismatch surfaces as a clean codec error.
//!
//! Pruner verdict caches are deliberately **not** serialized: verdicts are
//! re-derivable under the live catalog, so recovery re-judges lazily (only
//! the `states_terminated` counter can drift, documented on the trait).

use tvq_common::{
    Decoder, Encoder, Error, FrameId, MarkedFrameSet, ObjectId, ObjectSet, Result, SetId,
    SetInterner,
};

use crate::metrics::MaintenanceMetrics;

/// Appends an interned handle.
pub fn put_set_id(enc: &mut Encoder, sid: SetId) {
    enc.put_u32(sid.raw());
}

/// Reads an interned handle (meaningful only against the restored arena).
pub fn take_set_id(dec: &mut Decoder<'_>) -> Result<SetId> {
    Ok(SetId::from_raw(dec.take_u32()?))
}

/// Appends an object set as a length-prefixed sorted identifier list.
pub fn put_object_set(enc: &mut Encoder, set: &ObjectSet) {
    enc.put_usize(set.len());
    for id in set.iter() {
        enc.put_u32(id.raw());
    }
}

/// Reads an object set; the persisted order is sorted, but the input is
/// untrusted so the sort is re-established rather than assumed.
pub fn take_object_set(dec: &mut Decoder<'_>) -> Result<ObjectSet> {
    let len = dec.take_len()?;
    let mut ids = Vec::with_capacity(len);
    for _ in 0..len {
        ids.push(ObjectId(dec.take_u32()?));
    }
    Ok(ids.into_iter().collect())
}

/// Appends a marked frame set as `(frame, marked)` pairs in window order.
pub fn put_frame_set(enc: &mut Encoder, frames: &MarkedFrameSet) {
    enc.put_usize(frames.len());
    for (frame, marked) in frames.iter() {
        enc.put_u64(frame.raw());
        enc.put_bool(marked);
    }
}

/// Reads a marked frame set written by [`put_frame_set`] by a maintainer
/// over a window of `window` frames.
pub fn take_frame_set(dec: &mut Decoder<'_>, window: usize) -> Result<MarkedFrameSet> {
    let len = dec.take_len()?;
    let mut frames = MarkedFrameSet::new();
    for _ in 0..len {
        let frame = FrameId(dec.take_u64()?);
        let marked = dec.take_bool()?;
        push_decoded(&mut frames, frame, marked, window)?;
    }
    Ok(frames)
}

/// Appends a decoded frame, rejecting what no maintainer writes: frames out
/// of order, or further apart than one window. A frame set's storage grows
/// with its span, so the span of untrusted input is bounded here.
pub fn push_decoded(
    frames: &mut MarkedFrameSet,
    frame: FrameId,
    marked: bool,
    window: usize,
) -> Result<()> {
    let first = frames.first().unwrap_or(frame);
    if frames.last().is_some_and(|last| last >= frame) || frame.raw() - first.raw() >= window as u64
    {
        return Err(Error::Corrupt(format!(
            "frame {} is out of order or beyond the {window}-frame window of a set starting at {}",
            frame.raw(),
            first.raw()
        )));
    }
    frames.push(frame, marked);
    Ok(())
}

/// Appends an optional frame id.
pub fn put_opt_frame(enc: &mut Encoder, frame: Option<FrameId>) {
    enc.put_opt_u64(frame.map(FrameId::raw));
}

/// Reads an optional frame id.
pub fn take_opt_frame(dec: &mut Decoder<'_>) -> Result<Option<FrameId>> {
    Ok(dec.take_opt_u64()?.map(FrameId))
}

/// Appends the interner's persistent identity: the non-empty arena sets in
/// handle order plus the compaction epoch.
pub fn put_interner(enc: &mut Encoder, interner: &SetInterner) {
    enc.put_usize(interner.len() - 1);
    for set in interner.arena_sets() {
        put_object_set(enc, &set);
    }
    enc.put_u64(interner.epoch());
}

/// Rebuilds the arena inside a freshly constructed interner (same class
/// store, same memo policy, nothing interned yet) by re-interning the
/// persisted sets in handle order. Verifies each set lands on the handle it
/// was persisted under — a duplicate or out-of-order arena is corrupt data,
/// and silently re-keying it would detach every handle-keyed map restored
/// afterwards.
pub fn restore_interner(dec: &mut Decoder<'_>, interner: &mut SetInterner) -> Result<()> {
    if interner.len() != 1 {
        return Err(Error::Store(
            "interner restore requires a freshly built interner".into(),
        ));
    }
    let sets = dec.take_len()?;
    for index in 0..sets {
        let set = take_object_set(dec)?;
        let sid = interner.intern(&set);
        if sid.raw() as usize != index + 1 {
            return Err(Error::Corrupt(format!(
                "arena set {} re-interned to handle {} (duplicate or empty set in snapshot)",
                index + 1,
                sid.raw()
            )));
        }
    }
    let epoch = dec.take_u64()?;
    interner.restore_epoch(epoch);
    Ok(())
}

/// Appends the metrics as a count-prefixed ordered `u64` field list.
pub fn put_metrics(enc: &mut Encoder, metrics: &MaintenanceMetrics) {
    let mut metrics = metrics.clone();
    let fields = metrics.fields_mut();
    enc.put_usize(fields.len());
    for value in fields {
        enc.put_u64(*value);
    }
}

/// Reads metrics written by [`put_metrics`], rejecting a field-count
/// mismatch (writer and reader disagree about the metrics layout).
pub fn take_metrics(dec: &mut Decoder<'_>) -> Result<MaintenanceMetrics> {
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

/// Test support: metrics with the interner's memo gauges cleared. The memo
/// is a cache and deliberately not persisted, so its hit/miss/size counters
/// drift after recovery while every result stays identical; continuation
/// equality is asserted modulo these four fields.
#[cfg(test)]
pub(crate) fn scrub_cache_gauges(metrics: &MaintenanceMetrics) -> MaintenanceMetrics {
    let mut metrics = metrics.clone();
    metrics.intersection_cache_hits = 0;
    metrics.intersection_cache_misses = 0;
    metrics.intersection_cache_resizes = 0;
    metrics.intersection_cache_slots = 0;
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvq_common::shared_class_store;

    fn set(ids: &[u32]) -> ObjectSet {
        ObjectSet::from_raw(ids.iter().copied())
    }

    #[test]
    fn frame_set_round_trips_with_marks() {
        let mut frames = MarkedFrameSet::new();
        frames.push(FrameId(3), true);
        frames.push(FrameId(4), false);
        frames.push(FrameId(7), true);
        let mut enc = Encoder::new();
        put_frame_set(&mut enc, &frames);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        let back = take_frame_set(&mut dec, 8).unwrap();
        dec.finish().unwrap();
        assert_eq!(
            back.iter().collect::<Vec<_>>(),
            frames.iter().collect::<Vec<_>>()
        );
        assert_eq!(back.marked_count(), 2);
        // The same bytes under a narrower window are corrupt, not a set
        // whose storage the input chose.
        let err = take_frame_set(&mut Decoder::new(&bytes), 4).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    #[test]
    fn interner_round_trip_reproduces_handles_and_counts() {
        let store = shared_class_store();
        {
            let mut guard = store.write().unwrap();
            for id in 1..=6u32 {
                guard.register(ObjectId(id), tvq_common::ClassId((id % 2) as u16));
            }
        }
        let mut original = SetInterner::with_classes(store.clone());
        let a = original.intern(&set(&[1, 2, 3]));
        let b = original.intern(&set(&[4, 5]));
        let c = original.intersect(a, b);
        assert!(c.is_empty_set());
        let d = original.intern(&set(&[2, 3, 6]));

        let mut enc = Encoder::new();
        put_interner(&mut enc, &original);
        let bytes = enc.into_bytes();

        let mut restored = SetInterner::with_classes(store);
        let mut dec = Decoder::new(&bytes);
        restore_interner(&mut dec, &mut restored).unwrap();
        dec.finish().unwrap();

        assert_eq!(restored.len(), original.len());
        assert_eq!(restored.epoch(), original.epoch());
        assert_eq!(restored.get(&set(&[1, 2, 3])), Some(a));
        assert_eq!(restored.get(&set(&[4, 5])), Some(b));
        assert_eq!(restored.get(&set(&[2, 3, 6])), Some(d));
        assert_eq!(
            restored.universe_object_ids(),
            original.universe_object_ids()
        );
        assert_eq!(
            restored.cached_counts(d).map(|c| (*c).clone()),
            original.cached_counts(d).map(|c| (*c).clone())
        );
        // Fresh intersections agree handle-for-handle.
        assert_eq!(restored.intersect(a, d), original.intersect(a, d));
    }

    #[test]
    fn interner_restore_rejects_duplicate_arena_sets() {
        let mut enc = Encoder::new();
        enc.put_usize(2);
        put_object_set(&mut enc, &set(&[1, 2]));
        put_object_set(&mut enc, &set(&[1, 2]));
        enc.put_u64(0);
        let bytes = enc.into_bytes();
        let mut restored = SetInterner::new();
        let err = restore_interner(&mut Decoder::new(&bytes), &mut restored).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    #[test]
    fn metrics_round_trip_and_reject_field_count_skew() {
        let mut metrics = MaintenanceMetrics::new();
        metrics.frames_processed = 17;
        metrics.wal_bytes = 1024;
        metrics.recoveries = 2;
        let mut enc = Encoder::new();
        put_metrics(&mut enc, &metrics);
        let bytes = enc.into_bytes();
        let mut dec = Decoder::new(&bytes);
        assert_eq!(take_metrics(&mut dec).unwrap(), metrics);
        dec.finish().unwrap();

        let mut enc = Encoder::new();
        enc.put_usize(3);
        for value in [1u64, 2, 3] {
            enc.put_u64(value);
        }
        let bytes = enc.into_bytes();
        let err = take_metrics(&mut Decoder::new(&bytes)).unwrap_err();
        assert!(matches!(err, Error::Codec(_)), "{err}");
    }
}
