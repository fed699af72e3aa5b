//! The engine's durable formats: WAL record bodies and the snapshot codec.
//!
//! The storage layer (`tvq-store`) frames, checksums and fsyncs *opaque*
//! byte strings; this module is where those bytes get their meaning. Two
//! formats live here:
//!
//! * **WAL records** — every state-changing engine operation (an observed
//!   frame, a query registration, a query cancellation) as a tagged body.
//!   Replaying the records after a snapshot, in sequence order, through the
//!   same code paths the live engine used reproduces its state exactly.
//! * **engine snapshots** (`TVQE`) — the complete engine at a WAL sequence
//!   boundary: configuration, class registry, class store, query catalog,
//!   object lifecycle, the maintainer's own versioned state blob (see
//!   [`StateMaintainer::snapshot_state`]), and an opaque caller sidecar
//!   (the multi-feed worker persists its per-feed tally there).
//!
//! Both formats are versioned through [`tvq_common::codec`] headers and
//! fail with clean [`Error::Codec`] / [`Error::Corrupt`] errors on version
//! skew or damage — corrupt state is *detected*, never silently replayed.
//!
//! [`StateMaintainer::snapshot_state`]: tvq_core::StateMaintainer::snapshot_state

use std::path::Path;
use std::sync::{Arc, PoisonError, RwLock};

use tvq_common::codec::{Decoder, Encoder};
use tvq_common::{
    ClassId, ClassRegistry, ClassStore, Error, FrameId, FrameObjects, MemoConfig, ObjectId,
    QueryId, Result, SharedClassMap, WindowSpec,
};
use tvq_core::{CompactionPolicy, LiveBinding, MaintainerKind, ObjectLifecycle};
use tvq_query::{CmpOp, CnfQuery, Condition};
use tvq_store::{publish, seal, unseal, SharedIo};

use crate::catalog::QueryCatalog;
use crate::config::EngineConfig;
use crate::engine::TemporalVideoQueryEngine;

/// Magic of the engine snapshot payload (inside the store's `TVQS` framing).
const MAGIC: [u8; 4] = *b"TVQE";
/// Version of the engine snapshot payload.
const VERSION: u32 = 1;

const RECORD_FRAME: u8 = 0;
const RECORD_ADD_QUERY: u8 = 1;
const RECORD_REMOVE_QUERY: u8 = 2;

/// One durable engine operation, decoded from a WAL record body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A frame of detections passed to `observe`.
    Frame(FrameObjects),
    /// A query registered mid-stream.
    AddQuery(CnfQuery),
    /// A query cancelled mid-stream.
    RemoveQuery(QueryId),
}

/// Encodes an observed frame as a WAL record body.
pub fn encode_frame_record(frame: &FrameObjects) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(16 + frame.classes.len() * 6);
    enc.put_u8(RECORD_FRAME);
    enc.put_u64(frame.fid.raw());
    enc.put_usize(frame.classes.len());
    for &(id, class) in &frame.classes {
        enc.put_u32(id.raw());
        enc.put_u16(class.raw());
    }
    enc.put_usize(frame.track_ends.len());
    for id in &frame.track_ends {
        enc.put_u32(id.raw());
    }
    enc.into_bytes()
}

/// Encodes a mid-stream query registration as a WAL record body.
pub fn encode_add_query_record(query: &CnfQuery) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(RECORD_ADD_QUERY);
    put_query(&mut enc, query);
    enc.into_bytes()
}

/// Encodes a mid-stream query cancellation as a WAL record body.
pub fn encode_remove_query_record(id: QueryId) -> Vec<u8> {
    let mut enc = Encoder::new();
    enc.put_u8(RECORD_REMOVE_QUERY);
    enc.put_u32(id.0);
    enc.into_bytes()
}

/// Decodes a WAL record body written by one of the `encode_*_record`
/// functions. The body must parse exactly — trailing bytes are corruption.
pub fn decode_record(body: &[u8]) -> Result<WalRecord> {
    let mut dec = Decoder::new(body);
    let record = match dec.take_u8()? {
        RECORD_FRAME => {
            let fid = FrameId(dec.take_u64()?);
            let detections = dec.take_len()?;
            let mut classes = Vec::with_capacity(detections);
            for _ in 0..detections {
                let id = ObjectId(dec.take_u32()?);
                let class = ClassId(dec.take_u16()?);
                classes.push((id, class));
            }
            let ends = dec.take_len()?;
            let mut track_ends = Vec::with_capacity(ends);
            for _ in 0..ends {
                track_ends.push(ObjectId(dec.take_u32()?));
            }
            WalRecord::Frame(FrameObjects::new(fid, classes).with_track_ends(track_ends))
        }
        RECORD_ADD_QUERY => WalRecord::AddQuery(take_query(&mut dec)?),
        RECORD_REMOVE_QUERY => WalRecord::RemoveQuery(QueryId(dec.take_u32()?)),
        other => {
            return Err(Error::Codec(format!("unknown wal record tag {other}")));
        }
    };
    dec.finish()?;
    Ok(record)
}

fn put_query(enc: &mut Encoder, query: &CnfQuery) {
    enc.put_u32(query.id.0);
    enc.put_usize(query.clauses.len());
    for clause in &query.clauses {
        enc.put_usize(clause.len());
        for condition in clause {
            enc.put_u16(condition.class.raw());
            enc.put_u8(match condition.op {
                CmpOp::Le => 0,
                CmpOp::Eq => 1,
                CmpOp::Ge => 2,
            });
            enc.put_u32(condition.value);
        }
    }
}

fn take_query(dec: &mut Decoder<'_>) -> Result<CnfQuery> {
    let id = QueryId(dec.take_u32()?);
    let clause_count = dec.take_len()?;
    let mut clauses = Vec::with_capacity(clause_count);
    for _ in 0..clause_count {
        let condition_count = dec.take_len()?;
        let mut clause = Vec::with_capacity(condition_count);
        for _ in 0..condition_count {
            let class = ClassId(dec.take_u16()?);
            let op = match dec.take_u8()? {
                0 => CmpOp::Le,
                1 => CmpOp::Eq,
                2 => CmpOp::Ge,
                other => {
                    return Err(Error::Codec(format!("unknown comparison tag {other}")));
                }
            };
            clause.push(Condition::new(class, op, dec.take_u32()?));
        }
        clauses.push(clause);
    }
    Ok(CnfQuery::new(id, clauses))
}

/// Magic of the fleet-catalog payload (`TVQF`): the multi-feed scheduler's
/// master registry, query set and catalog version.
const FLEET_MAGIC: [u8; 4] = *b"TVQF";
/// Version of the fleet-catalog payload (2 added the CRC-32 trailer).
const FLEET_VERSION: u32 = 2;
/// File under a durable fleet's data directory holding the scheduler's
/// master catalog (registry, query set, version). Always written *ahead*
/// of broadcasting an op, so the master version is never behind a feed's.
pub(crate) const FLEET_CATALOG: &str = "fleet-catalog.tvqf";
/// Scratch name the fleet catalog is staged under before the atomic
/// rename into [`FLEET_CATALOG`].
const FLEET_CATALOG_TMP: &str = "fleet-catalog.tmp";

/// Atomically publishes the master catalog under `root` through the
/// store's [`publish`] — the snapshot store's recipe, so a crash leaves
/// either the old file or the new.
pub(crate) fn save_fleet_catalog(
    io: &SharedIo,
    root: &Path,
    registry: &ClassRegistry,
    queries: &[CnfQuery],
    version: u64,
) -> Result<()> {
    io.create_dir_all(root)?;
    let bytes = encode_fleet_catalog(registry, queries, version);
    publish(
        &**io,
        root,
        FLEET_CATALOG_TMP,
        FLEET_CATALOG,
        &bytes,
        "fleet catalog",
    )
}

/// Loads the master catalog a previous fleet persisted under `root`, or
/// `None` when the directory has never held one.
pub(crate) fn load_fleet_catalog(
    io: &SharedIo,
    root: &Path,
) -> Result<Option<(ClassRegistry, Vec<CnfQuery>, u64)>> {
    let path = root.join(FLEET_CATALOG);
    if !io.exists(&path) {
        return Ok(None);
    }
    decode_fleet_catalog(&io.read(&path)?).map(Some)
}

/// Serializes the multi-feed scheduler's master catalog, closed by the
/// store's [`seal`] (the snapshot store's framing). Written *ahead* of each
/// broadcast (and at fleet build), so after any crash the master version is
/// at least every feed's — restart fast-forwards recovered feeds to the
/// master, never the reverse.
fn encode_fleet_catalog(registry: &ClassRegistry, queries: &[CnfQuery], version: u64) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(256);
    enc.put_header(FLEET_MAGIC, FLEET_VERSION);
    enc.put_u64(version);
    enc.put_usize(registry.len());
    for (_, label) in registry.iter() {
        enc.put_str(label.as_str());
    }
    enc.put_usize(queries.len());
    for query in queries {
        put_query(&mut enc, query);
    }
    seal(enc.into_bytes())
}

/// Rebuilds the fleet master catalog persisted by
/// [`encode_fleet_catalog`]: `(registry, queries, version)`. A checksum
/// mismatch is [`Error::Corrupt`] — there is no older generation to fall
/// back to, because the master must never fall behind a feed.
fn decode_fleet_catalog(payload: &[u8]) -> Result<(ClassRegistry, Vec<CnfQuery>, u64)> {
    let mut dec = Decoder::new(unseal(payload, "fleet catalog")?);
    dec.check_header(FLEET_MAGIC, FLEET_VERSION)?;
    let version = dec.take_u64()?;
    let labels = dec.take_len()?;
    let mut registry = ClassRegistry::new();
    for index in 0..labels {
        let id = registry.register(dec.take_str()?);
        if id.raw() as usize != index {
            return Err(Error::Corrupt(format!(
                "fleet registry label {index} re-registered as class {}",
                id.raw()
            )));
        }
    }
    let count = dec.take_len()?;
    let mut queries = Vec::with_capacity(count);
    for _ in 0..count {
        queries.push(take_query(&mut dec)?);
    }
    dec.finish()?;
    Ok((registry, queries, version))
}

/// Serializes the complete engine state as a `TVQE` snapshot payload.
/// `sidecar` is the caller-owned opaque blob persisted alongside (empty
/// when unused); it rides in the snapshot so worker-level state (e.g. the
/// multi-feed per-feed tally) survives restarts with the engine it
/// describes.
pub(crate) fn encode_engine(engine: &TemporalVideoQueryEngine, sidecar: &[u8]) -> Result<Vec<u8>> {
    let mut enc = Encoder::with_capacity(4096);
    enc.put_header(MAGIC, VERSION);

    // Configuration.
    let config = &engine.config;
    enc.put_usize(config.window.window());
    enc.put_usize(config.window.duration());
    // Three strategy bytes, kept from TVQE version 1's first builds: a
    // selection tag (always 1, "fixed"; 0 was the removed `Auto` knob), the
    // selected kind, and the kind that actually ran — now always the same.
    enc.put_u8(1);
    enc.put_u8(config.maintainer.codec_tag());
    enc.put_u8(config.maintainer.codec_tag());
    enc.put_bool(config.pruning);
    match &config.compaction {
        None => enc.put_bool(false),
        Some(policy) => {
            enc.put_bool(true);
            enc.put_u64(policy.check_interval);
            enc.put_f64(policy.max_live_ratio);
            enc.put_usize(policy.min_interned);
        }
    }
    // Four memo words, kept from TVQE version 1's adaptive memo (initial
    // bits, max bits, sample window, grow threshold): what a fixed size
    // serialised as then. Only the first is read back.
    enc.put_u32(config.memo.bits);
    enc.put_u32(config.memo.bits);
    enc.put_u32(u32::MAX);
    enc.put_f64(2.0);

    // Class registry (labels in ClassId order).
    enc.put_usize(engine.registry.len());
    for (_, label) in engine.registry.iter() {
        enc.put_str(label.as_str());
    }

    // Class store: sorted live entries plus the alias cursor and the
    // eviction counter (both monotone — resetting either would re-mint
    // identifiers persisted bindings already carry).
    {
        let store = engine
            .lifecycle
            .store()
            .read()
            .unwrap_or_else(PoisonError::into_inner);
        let entries = store.snapshot();
        enc.put_usize(entries.len());
        for (id, class, refs) in entries {
            enc.put_u32(id.raw());
            enc.put_u16(class.raw());
            enc.put_u32(refs);
        }
        enc.put_u32(store.alias_floor());
        enc.put_u64(store.evictions());
    }

    // Query catalog: version, seed and the registered queries. Persisting
    // the seed keeps `catalog_swaps` (version - seed) exact across restarts.
    enc.put_u64(engine.catalog.version());
    enc.put_u64(engine.catalog.version() - engine.catalog.swaps());
    let queries = engine.catalog.snapshot().queries();
    enc.put_usize(queries.len());
    for query in queries {
        put_query(&mut enc, query);
    }

    // Object lifecycle: live bindings, tracked internals, alias
    // translations, and the three monotone counters.
    let live = engine.lifecycle.live_bindings();
    enc.put_usize(live.len());
    for (external, binding) in live {
        enc.put_u32(external.raw());
        enc.put_u32(binding.internal.raw());
        enc.put_u16(binding.class.raw());
        enc.put_u64(binding.generation);
    }
    let registered = engine.lifecycle.registered_ids();
    enc.put_usize(registered.len());
    for id in registered {
        enc.put_u32(id.raw());
    }
    let aliases = engine.lifecycle.alias_entries();
    enc.put_usize(aliases.len());
    for (alias, external) in aliases {
        enc.put_u32(alias.raw());
        enc.put_u32(external.raw());
    }
    enc.put_u64(engine.lifecycle.generations_started());
    enc.put_u64(engine.lifecycle.retired_total());
    enc.put_u64(engine.lifecycle.tracks_ended());

    // Engine-side cursor.
    enc.put_u64(engine.frames_since_compaction_check);

    // The maintainer's own versioned blob, length-prefixed so its format
    // can evolve independently of the envelope.
    let mut blob = Encoder::with_capacity(4096);
    engine.maintainer.snapshot_state(&mut blob)?;
    enc.put_bytes(blob.as_bytes());

    enc.put_bytes(sidecar);
    Ok(enc.into_bytes())
}

/// Rebuilds an engine from a `TVQE` snapshot payload, returning it together
/// with the persisted sidecar. The engine comes back *without* a durability
/// attachment — `recover` wires that up after replaying the WAL tail.
pub(crate) fn restore_engine(payload: &[u8]) -> Result<(TemporalVideoQueryEngine, Vec<u8>)> {
    let mut dec = Decoder::new(payload);
    dec.check_header(MAGIC, VERSION)?;

    // Configuration.
    let window = dec.take_usize()?;
    let duration = dec.take_usize()?;
    let window = WindowSpec::new(window, duration)
        .map_err(|e| Error::Corrupt(format!("snapshot window spec: {e}")))?;
    // See `encode_engine`: tag 0 snapshots come from builds that still had
    // `Auto`; the maintainer they ran is the resolved-kind byte that follows.
    let selected = match dec.take_u8()? {
        0 => None,
        1 => Some(MaintainerKind::from_codec_tag(dec.take_u8()?)?),
        other => {
            return Err(Error::Codec(format!("unknown selection tag {other}")));
        }
    };
    let maintainer = MaintainerKind::from_codec_tag(dec.take_u8()?)?;
    if let Some(selected) = selected.filter(|&selected| selected != maintainer) {
        return Err(Error::Corrupt(format!(
            "snapshot selects {selected} but ran {maintainer}"
        )));
    }
    let pruning = dec.take_bool()?;
    let compaction = if dec.take_bool()? {
        Some(CompactionPolicy {
            check_interval: dec.take_u64()?,
            max_live_ratio: dec.take_f64()?,
            min_interned: dec.take_usize()?,
        })
    } else {
        None
    };
    let memo = MemoConfig {
        bits: dec.take_u32()?,
    };
    // The three dead words of the adaptive policy (see `encode_engine`).
    dec.take_u32()?;
    dec.take_u32()?;
    dec.take_f64()?;
    let config = EngineConfig {
        window,
        maintainer,
        pruning,
        compaction,
        memo,
    };

    // Class registry: labels registered in order reproduce their ids.
    let labels = dec.take_len()?;
    let mut registry = ClassRegistry::new();
    for index in 0..labels {
        let id = registry.register(dec.take_str()?);
        if id.raw() as usize != index {
            return Err(Error::Corrupt(format!(
                "registry label {index} re-registered as class {}",
                id.raw()
            )));
        }
    }

    // Class store.
    let entry_count = dec.take_len()?;
    let mut entries = Vec::with_capacity(entry_count);
    for _ in 0..entry_count {
        let id = ObjectId(dec.take_u32()?);
        let class = ClassId(dec.take_u16()?);
        let refs = dec.take_u32()?;
        entries.push((id, class, refs));
    }
    let alias_floor = dec.take_u32()?;
    let evictions = dec.take_u64()?;
    let classes: SharedClassMap = Arc::new(RwLock::new(ClassStore::restore(
        entries,
        alias_floor,
        evictions,
    )));

    // Query catalog.
    let version = dec.take_u64()?;
    let seed_version = dec.take_u64()?;
    if seed_version > version {
        return Err(Error::Corrupt(format!(
            "catalog seed {seed_version} exceeds version {version}"
        )));
    }
    let query_count = dec.take_len()?;
    let mut queries = Vec::with_capacity(query_count);
    for _ in 0..query_count {
        queries.push(take_query(&mut dec)?);
    }
    let catalog = QueryCatalog::restore(queries, version, seed_version)
        .map_err(|e| Error::Corrupt(format!("snapshot catalog: {e}")))?;

    // Object lifecycle.
    let live_count = dec.take_len()?;
    let mut live = Vec::with_capacity(live_count);
    for _ in 0..live_count {
        let external = ObjectId(dec.take_u32()?);
        let binding = LiveBinding {
            internal: ObjectId(dec.take_u32()?),
            class: ClassId(dec.take_u16()?),
            generation: dec.take_u64()?,
        };
        live.push((external, binding));
    }
    let registered_count = dec.take_len()?;
    let mut registered = Vec::with_capacity(registered_count);
    for _ in 0..registered_count {
        registered.push(ObjectId(dec.take_u32()?));
    }
    let alias_count = dec.take_len()?;
    let mut aliases = Vec::with_capacity(alias_count);
    for _ in 0..alias_count {
        let alias = ObjectId(dec.take_u32()?);
        let external = ObjectId(dec.take_u32()?);
        aliases.push((alias, external));
    }
    let generations = dec.take_u64()?;
    let retired_total = dec.take_u64()?;
    let tracks_ended = dec.take_u64()?;

    let frames_since_compaction_check = dec.take_u64()?;

    let mut engine =
        TemporalVideoQueryEngine::assemble(config, registry, catalog, Arc::clone(&classes));
    engine.lifecycle = ObjectLifecycle::restore(
        classes,
        live,
        registered,
        aliases,
        generations,
        retired_total,
        tracks_ended,
    );
    engine.frames_since_compaction_check = frames_since_compaction_check;

    let blob = dec.take_bytes()?;
    let mut maintainer_dec = Decoder::new(blob);
    engine.maintainer.restore_state(&mut maintainer_dec)?;
    maintainer_dec.finish()?;

    let sidecar = dec.take_bytes()?.to_vec();
    dec.finish()?;
    Ok((engine, sidecar))
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvq_common::ObjectSet;

    fn frame(fid: u64, detections: &[(u32, u16)], ends: &[u32]) -> FrameObjects {
        FrameObjects::new(
            FrameId(fid),
            detections
                .iter()
                .map(|&(id, class)| (ObjectId(id), ClassId(class)))
                .collect(),
        )
        .with_track_ends(ends.iter().map(|&id| ObjectId(id)).collect())
    }

    #[test]
    fn wal_records_round_trip() {
        let records = [
            WalRecord::Frame(frame(7, &[(1, 1), (2, 0)], &[9])),
            WalRecord::Frame(frame(8, &[], &[])),
            WalRecord::AddQuery(CnfQuery::new(
                QueryId(3),
                vec![
                    vec![
                        Condition::at_least(ClassId(1), 2),
                        Condition::at_most(ClassId(0), 1),
                    ],
                    vec![Condition::exactly(ClassId(2), 4)],
                ],
            )),
            WalRecord::RemoveQuery(QueryId(11)),
        ];
        for record in &records {
            let body = match record {
                WalRecord::Frame(f) => encode_frame_record(f),
                WalRecord::AddQuery(q) => encode_add_query_record(q),
                WalRecord::RemoveQuery(id) => encode_remove_query_record(*id),
            };
            assert_eq!(&decode_record(&body).unwrap(), record);
        }
    }

    #[test]
    fn frame_record_rebuilds_the_object_set() {
        let original = frame(3, &[(5, 1), (2, 0), (5, 1)], &[]);
        let body = encode_frame_record(&original);
        let WalRecord::Frame(decoded) = decode_record(&body).unwrap() else {
            panic!("frame record expected");
        };
        assert_eq!(decoded.objects, ObjectSet::from_raw([2, 5]));
        assert_eq!(decoded, original);
    }

    #[test]
    fn engine_snapshot_round_trips_mid_stream() {
        use tvq_core::CompactionPolicy;

        let build = || {
            TemporalVideoQueryEngine::builder(
                EngineConfig::new(WindowSpec::new(6, 3).unwrap())
                    .with_compaction(Some(CompactionPolicy::every(4))),
            )
            .with_query_text("car >= 1 AND person >= 1")
            .unwrap()
            .build()
            .unwrap()
        };
        let mut engine = build();
        engine.add_query_text("truck >= 2").unwrap();
        let frames: Vec<FrameObjects> = (0..24)
            .map(|i| {
                let ends: &[u32] = if i % 7 == 0 { &[2] } else { &[] };
                frame(i, &[(i as u32 % 4 + 1, 1), (9, 0), (i as u32 % 3, 2)], ends)
            })
            .collect();
        for f in &frames[..15] {
            engine.observe_applied(f).unwrap();
        }

        let payload = encode_engine(&engine, b"tally").unwrap();
        let (mut restored, sidecar) = restore_engine(&payload).unwrap();
        assert_eq!(sidecar, b"tally");
        assert_eq!(restored.catalog_version(), engine.catalog_version());
        assert_eq!(restored.metrics().catalog_swaps, 1);
        assert_eq!(restored.strategy(), engine.strategy());
        assert_eq!(restored.live_states(), engine.live_states());

        // The restored engine continues frame-for-frame identically,
        // through compaction epochs and alias-generation bookkeeping.
        for f in &frames[15..] {
            assert_eq!(
                restored.observe_applied(f).unwrap(),
                engine.observe_applied(f).unwrap(),
                "divergence at frame {}",
                f.fid
            );
        }
        let (a, b) = (restored.metrics(), engine.metrics());
        assert_eq!(a.frames_processed, b.frames_processed);
        assert_eq!(a.generations_started, b.generations_started);
        assert_eq!(a.objects_retired, b.objects_retired);
        assert_eq!(a.compactions, b.compactions);
    }

    /// The three strategy bytes of `TVQE` version 1 outlive the `Auto`
    /// knob: the encoder still writes `1, kind, kind`, a tag-0 snapshot
    /// from an `Auto` build restores onto the resolved kind that follows
    /// it, and a tag-1 snapshot whose two kinds disagree is corrupt.
    #[test]
    fn selection_bytes_stay_readable_without_the_auto_knob() {
        let window = WindowSpec::new(6, 3).unwrap();
        let mut engine = TemporalVideoQueryEngine::builder(
            EngineConfig::new(window).with_maintainer(MaintainerKind::Mfs),
        )
        .with_query_text("car >= 1")
        .unwrap()
        .build()
        .unwrap();
        for fid in 0..4 {
            engine.observe_applied(&frame(fid, &[(1, 1)], &[])).unwrap();
        }
        let payload = encode_engine(&engine, &[]).unwrap();
        let mut prefix = Encoder::new();
        prefix.put_header(MAGIC, VERSION);
        prefix.put_usize(window.window());
        prefix.put_usize(window.duration());
        let at = prefix.len();
        let mfs = MaintainerKind::Mfs.codec_tag();
        assert_eq!(payload[at..at + 3], [1, mfs, mfs]);

        // What an `Auto` build that resolved to MFS wrote: tag 0, no
        // selected kind, then the resolved kind.
        let mut auto = payload.clone();
        auto[at] = 0;
        auto.remove(at + 1);
        let (mut restored, _) = restore_engine(&auto).unwrap();
        assert_eq!(restored.config().maintainer, MaintainerKind::Mfs);
        let next = frame(4, &[(1, 1)], &[]);
        assert_eq!(
            restored.observe_applied(&next).unwrap(),
            engine.observe_applied(&next).unwrap()
        );

        let mut mismatched = payload;
        mismatched[at + 1] = MaintainerKind::Ssg.codec_tag();
        let err = restore_engine(&mismatched).unwrap_err();
        assert!(matches!(err, Error::Corrupt(_)), "{err}");
    }

    /// The four memo words of `TVQE` version 1 outlive the adaptive memo:
    /// the encoder writes what a fixed size serialised as, and a snapshot
    /// from an adaptive build (`12, 20, 4096, 0.5`) restores at its initial
    /// size.
    #[test]
    fn memo_words_stay_readable_without_the_adaptive_memo() {
        let window = WindowSpec::new(6, 3).unwrap();
        let config = EngineConfig::new(window).with_compaction(None);
        let mut engine = TemporalVideoQueryEngine::builder(config)
            .with_query_text("car >= 1")
            .unwrap()
            .build()
            .unwrap();
        for fid in 0..4 {
            engine.observe_applied(&frame(fid, &[(1, 1)], &[])).unwrap();
        }
        let payload = encode_engine(&engine, &[]).unwrap();
        let mut prefix = Encoder::new();
        prefix.put_header(MAGIC, VERSION);
        prefix.put_usize(window.window());
        prefix.put_usize(window.duration());
        // Three strategy bytes, the pruning flag, "no compaction policy".
        let at = prefix.len() + 5;
        let words = |words: [u32; 3], rate: f64| {
            let mut enc = Encoder::new();
            words.into_iter().for_each(|word| enc.put_u32(word));
            enc.put_f64(rate);
            enc.into_bytes()
        };
        let written = words([12, 12, u32::MAX], 2.0);
        assert_eq!(payload[at..at + written.len()], written);

        let mut adaptive = payload.clone();
        adaptive.splice(at..at + written.len(), words([12, 20, 4096], 0.5));
        let (mut restored, _) = restore_engine(&adaptive).unwrap();
        assert_eq!(restored.config().memo, MemoConfig { bits: 12 });
        let next = frame(4, &[(1, 1)], &[]);
        assert_eq!(
            restored.observe_applied(&next).unwrap(),
            engine.observe_applied(&next).unwrap()
        );
    }

    #[test]
    fn snapshot_version_skew_fails_cleanly() {
        let mut enc = Encoder::new();
        enc.put_header(MAGIC, VERSION + 1);
        let err = restore_engine(&enc.into_bytes()).unwrap_err();
        assert!(matches!(err, Error::Codec(_)), "{err}");
    }

    #[test]
    fn damaged_records_fail_cleanly() {
        let mut body = encode_frame_record(&frame(1, &[(1, 1)], &[]));
        body.push(0xEE); // trailing garbage
        assert!(decode_record(&body).is_err());
        assert!(decode_record(&[9]).is_err(), "unknown tag");
        assert!(decode_record(&[]).is_err(), "empty body");
        let add = encode_add_query_record(&CnfQuery::conjunction(
            QueryId(0),
            vec![Condition::at_least(ClassId(0), 1)],
        ));
        assert!(decode_record(&add[..add.len() - 1]).is_err(), "truncated");
    }

    /// Property coverage of the snapshot and fleet codecs: arbitrary
    /// workloads — churny detections, track ends that recycle ids across
    /// alias generations, live catalog edits, dense compaction — must
    /// round-trip through the `TVQE` codec into an engine that continues
    /// frame-for-frame identically, and arbitrary or truncated bytes must
    /// fail cleanly, never panic.
    mod prop {
        use super::*;
        use proptest::collection::vec;
        use proptest::prelude::*;
        use proptest::strategy::Strategy;

        /// Raw material for one workload step: a tag selecting the step
        /// kind plus the fields every kind could need (the body builds the
        /// step, since the vendored proptest has no combinators).
        type RawStep = ((u8, u16, u32, usize), Vec<(u32, u16)>, Vec<u32>);

        /// Object ids come from a small pool on purpose: an ended id is
        /// frequently re-detected, so restored snapshots must carry the
        /// alias-generation bookkeeping, not just the live window.
        fn raw_steps() -> impl Strategy<Value = Vec<RawStep>> {
            vec(
                (
                    (0u8..10, 0u16..4, 1u32..4, 0usize..8),
                    vec((0u32..12, 0u16..4), 0..5),
                    vec(0u32..12, 0..3),
                ),
                1..60,
            )
        }

        /// Replays the raw steps against a fresh engine: tags 0..8 are
        /// frames, 8 adds a single-condition query, 9 removes a live one.
        fn run_workload(
            window: usize,
            duration_raw: usize,
            every_raw: u64,
            steps: &[RawStep],
        ) -> TemporalVideoQueryEngine {
            let duration = 1 + duration_raw % window;
            let every = (every_raw > 0).then(|| CompactionPolicy::every(every_raw));
            let mut engine = TemporalVideoQueryEngine::builder(
                EngineConfig::new(WindowSpec::new(window, duration).unwrap())
                    .with_compaction(every),
            )
            .with_query(CnfQuery::conjunction(
                QueryId(0),
                vec![Condition::at_least(ClassId(1), 1)],
            ))
            .build()
            .unwrap();
            let mut live = vec![QueryId(0)];
            let mut next = 1u32;
            let mut fid = 0u64;
            for ((tag, class, threshold, pick), detections, ends) in steps {
                match tag {
                    0..=7 => {
                        engine.observe(&frame(fid, detections, ends)).unwrap();
                        fid += 1;
                    }
                    8 => {
                        engine
                            .add_query(CnfQuery::conjunction(
                                QueryId(next),
                                vec![Condition::at_least(ClassId(*class), *threshold)],
                            ))
                            .unwrap();
                        live.push(QueryId(next));
                        next += 1;
                    }
                    _ => {
                        if !live.is_empty() {
                            let id = live.remove(pick % live.len());
                            engine.remove_query(id).unwrap();
                        }
                    }
                }
            }
            engine
        }

        /// Raw material for one CNF query: an id plus clauses of
        /// `(class, value, op)` triples.
        type RawQuery = (u32, Vec<Vec<(u16, u32, u8)>>);

        fn raw_queries() -> impl Strategy<Value = Vec<RawQuery>> {
            vec(
                (0u32..1000, vec(vec((0u16..6, 0u32..5, 0u8..3), 1..4), 1..4)),
                0..5,
            )
        }

        fn build_query((id, clauses): &RawQuery) -> CnfQuery {
            CnfQuery::new(
                QueryId(*id),
                clauses
                    .iter()
                    .map(|clause| {
                        clause
                            .iter()
                            .map(|&(class, value, op)| match op {
                                0 => Condition::at_least(ClassId(class), value),
                                1 => Condition::at_most(ClassId(class), value),
                                _ => Condition::exactly(ClassId(class), value),
                            })
                            .collect()
                    })
                    .collect(),
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn arbitrary_engine_states_round_trip(
                window in 2usize..9,
                duration_raw in 0usize..8,
                every_raw in 0u64..6,
                steps in raw_steps(),
                sidecar in vec(0u8..=255, 0..16),
            ) {
                let mut engine = run_workload(window, duration_raw, every_raw, &steps);
                let payload = encode_engine(&engine, &sidecar).unwrap();
                let (mut restored, got) = restore_engine(&payload).unwrap();
                prop_assert_eq!(got, sidecar);
                prop_assert_eq!(restored.catalog_version(), engine.catalog_version());
                prop_assert_eq!(restored.live_states(), engine.live_states());
                prop_assert_eq!(restored.strategy(), engine.strategy());

                // The restored engine continues frame-for-frame identically
                // through compaction epochs and recycled alias generations.
                let fid0 = engine.metrics().frames_processed;
                for i in 0..10u64 {
                    let ends: &[u32] = if i % 3 == 2 { &[11] } else { &[] };
                    let f = frame(
                        fid0 + i,
                        &[(i as u32 % 5, 1), ((i as u32 + 3) % 7, (i % 4) as u16), (11, 0)],
                        ends,
                    );
                    prop_assert_eq!(
                        restored.observe(&f).unwrap(),
                        engine.observe(&f).unwrap(),
                        "divergence at continuation frame {}",
                        i
                    );
                }
                let (a, b) = (restored.metrics(), engine.metrics());
                prop_assert_eq!(a.frames_processed, b.frames_processed);
                prop_assert_eq!(a.generations_started, b.generations_started);
                prop_assert_eq!(a.objects_retired, b.objects_retired);
                prop_assert_eq!(a.compactions, b.compactions);
            }

            #[test]
            fn fleet_catalogs_round_trip(
                labels in vec(vec(0u8..26, 1..8), 0..6),
                queries_raw in raw_queries(),
                version in any::<u64>(),
            ) {
                let mut registry = ClassRegistry::new();
                for label in &labels {
                    let label: String =
                        label.iter().map(|&b| (b + b'a') as char).collect();
                    registry.register(label);
                }
                let queries: Vec<CnfQuery> = queries_raw.iter().map(build_query).collect();
                let payload = encode_fleet_catalog(&registry, &queries, version);
                let (decoded_registry, decoded_queries, decoded_version) =
                    decode_fleet_catalog(&payload).unwrap();
                prop_assert_eq!(decoded_version, version);
                prop_assert_eq!(decoded_queries, queries);
                prop_assert_eq!(decoded_registry.len(), registry.len());
                for ((id, label), (got_id, got_label)) in
                    registry.iter().zip(decoded_registry.iter())
                {
                    prop_assert_eq!(id, got_id);
                    prop_assert_eq!(label, got_label);
                }
            }

            #[test]
            fn decoders_never_panic_on_garbage(bytes in vec(0u8..=255, 0..256)) {
                let _ = restore_engine(&bytes);
                let _ = decode_record(&bytes);
                let _ = decode_fleet_catalog(&bytes);
            }

            #[test]
            fn truncated_snapshots_fail_cleanly(
                window in 2usize..9,
                duration_raw in 0usize..8,
                every_raw in 0u64..6,
                steps in raw_steps(),
                cut_raw in any::<u64>(),
            ) {
                let engine = run_workload(window, duration_raw, every_raw, &steps);
                let payload = encode_engine(&engine, b"tally").unwrap();
                let cut = (cut_raw % payload.len() as u64) as usize;
                prop_assert!(restore_engine(&payload[..cut]).is_err());
            }
        }
    }
}
