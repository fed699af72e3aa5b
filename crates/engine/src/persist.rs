//! The engine's durable formats: WAL record bodies, the engine snapshot and
//! the fleet catalog.
//!
//! Every persisted type owns its bytes: `encode`/`decode` sit next to
//! [`ClassRegistry`], [`CnfQuery`], [`EngineConfig`],
//! [`QueryCatalog`], [`ObjectLifecycle`] and the maintainers' state. This
//! module only says which of them make up an artifact and in what order;
//! the storage layer (`tvq-store`) frames, seals and publishes the result
//! as *opaque* byte strings. Three formats:
//!
//! * **WAL records** — every state-changing engine operation (an observed
//!   frame, a query registration, a query cancellation) as a tagged body.
//!   Replaying the records after a snapshot, in sequence order, through the
//!   same code paths the live engine used reproduces its state exactly.
//! * **engine snapshots** (`TVQE`) — the complete engine at a WAL sequence
//!   boundary, as the section list of `encode_engine`.
//! * **the fleet catalog** (`TVQF`) — the multi-feed fleet's master
//!   registry, query set and catalog version.
//!
//! All are versioned through [`tvq_common::codec`] headers and fail with
//! clean [`Error::Codec`] / [`Error::Corrupt`] errors on version skew or
//! damage — corrupt state is *detected*, never silently replayed.

use std::path::Path;

use tvq_common::codec::{Decoder, Encoder};
use tvq_common::{ClassId, ClassRegistry, Error, FrameId, FrameObjects, ObjectId, QueryId, Result};
use tvq_core::ObjectLifecycle;
use tvq_query::CnfQuery;
use tvq_store::{publish, seal, unseal, SharedIo};

use crate::catalog::QueryCatalog;
use crate::config::EngineConfig;
use crate::engine::TemporalVideoQueryEngine;

/// Magic of the engine snapshot payload (inside the store's `TVQS` framing).
const MAGIC: [u8; 4] = *b"TVQE";
/// Version of the engine snapshot payload. Version 3 writes the
/// maintainer kind and memo size once each and the two match counters
/// without a length prefix; older payloads are refused, not read.
const VERSION: u32 = 3;

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
    query.encode(&mut enc);
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
        RECORD_ADD_QUERY => WalRecord::AddQuery(CnfQuery::decode(&mut dec)?),
        RECORD_REMOVE_QUERY => WalRecord::RemoveQuery(QueryId(dec.take_u32()?)),
        other => {
            return Err(Error::Codec(format!("unknown wal record tag {other}")));
        }
    };
    dec.finish()?;
    Ok(record)
}

/// Magic of the fleet-catalog payload (`TVQF`).
const FLEET_MAGIC: [u8; 4] = *b"TVQF";
/// Version of the fleet-catalog payload (2 added the CRC-32 trailer).
const FLEET_VERSION: u32 = 2;
/// File under a durable fleet's data directory holding the fleet's
/// master catalog (registry, query set, version). Always written *ahead*
/// of applying an op, so the master version is never behind a feed's.
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

/// Serializes the multi-feed fleet's master catalog — header, version,
/// registry, queries — closed by the store's [`seal`] (the snapshot store's
/// framing). Written *ahead* of each catalog op (and at fleet build), so
/// after any crash the master version is at least every feed's — restart
/// fast-forwards recovered feeds to the master, never the reverse.
fn encode_fleet_catalog(registry: &ClassRegistry, queries: &[CnfQuery], version: u64) -> Vec<u8> {
    let mut enc = Encoder::with_capacity(256);
    enc.put_header(FLEET_MAGIC, FLEET_VERSION);
    enc.put_u64(version);
    registry.encode(&mut enc);
    enc.put_usize(queries.len());
    for query in queries {
        query.encode(&mut enc);
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
    let registry = ClassRegistry::decode(&mut dec)?;
    let count = dec.take_len()?;
    let mut queries = Vec::with_capacity(count);
    for _ in 0..count {
        queries.push(CnfQuery::decode(&mut dec)?);
    }
    dec.finish()?;
    Ok((registry, queries, version))
}

/// Serializes the complete engine state as a `TVQE` snapshot payload: the
/// sections below, in this order, each written by the type that owns it.
pub(crate) fn encode_engine(engine: &TemporalVideoQueryEngine) -> Result<Vec<u8>> {
    let mut enc = Encoder::with_capacity(4096);
    enc.put_header(MAGIC, VERSION);
    engine.config.encode(&mut enc);
    engine.registry.encode(&mut enc);
    engine.catalog.encode(&mut enc);
    engine.lifecycle.encode(&mut enc);
    // Engine-side cursor.
    enc.put_u64(engine.frames_since_compaction_check);
    // The maintainer's own versioned blob, length-prefixed so its format
    // can evolve independently of the envelope.
    let mut blob = Encoder::with_capacity(4096);
    engine.maintainer.snapshot_state(&mut blob)?;
    enc.put_bytes(blob.as_bytes());
    // Trailer: the lifetime match counters.
    enc.put_u64(engine.total_matches);
    enc.put_u64(engine.matching_frames);
    Ok(enc.into_bytes())
}

/// Rebuilds an engine from a `TVQE` snapshot payload. The engine comes back
/// *without* a durability attachment — `recover` wires that up after
/// replaying the WAL tail.
pub(crate) fn restore_engine(payload: &[u8]) -> Result<TemporalVideoQueryEngine> {
    let mut dec = Decoder::new(payload);
    let version = dec.check_header(MAGIC, VERSION)?;
    if version < VERSION {
        return Err(Error::Codec(format!(
            "engine snapshot version {version} is no longer read (this build reads {VERSION})"
        )));
    }
    let config = EngineConfig::decode(&mut dec)?;
    let registry = ClassRegistry::decode(&mut dec)?;
    let catalog = QueryCatalog::decode(&mut dec)?;
    let lifecycle = ObjectLifecycle::decode(&mut dec)?;
    let mut engine = TemporalVideoQueryEngine::assemble(config, registry, catalog, lifecycle);
    engine.frames_since_compaction_check = dec.take_u64()?;
    let mut blob = Decoder::new(dec.take_bytes()?);
    engine.maintainer.restore_state(&mut blob)?;
    blob.finish()?;
    engine.total_matches = dec.take_u64()?;
    engine.matching_frames = dec.take_u64()?;
    dec.finish()?;
    Ok(engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvq_common::{ObjectSet, WindowSpec};
    use tvq_core::{CompactionPolicy, MaintainerKind};
    use tvq_query::Condition;

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

        let payload = encode_engine(&engine).unwrap();
        let mut restored = restore_engine(&payload).unwrap();
        assert_eq!(restored.match_counters(), engine.match_counters());
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

    /// The fixed script behind [`engine_snapshot_bytes_are_pinned`]: 40
    /// frames, compaction every 4, one mid-stream registration, and track
    /// ends on an id that returns while its old generation is still in the
    /// window (so the snapshot carries alias bookkeeping).
    fn pinned_script(kind: MaintainerKind) -> TemporalVideoQueryEngine {
        let mut engine = TemporalVideoQueryEngine::builder(
            EngineConfig::new(WindowSpec::new(6, 3).unwrap())
                .with_maintainer(kind)
                .with_compaction(Some(CompactionPolicy::every(4))),
        )
        .with_query_text("car >= 1 AND person >= 1")
        .unwrap()
        .build()
        .unwrap();
        let (mut total_matches, mut matching_frames) = (0u64, 0u64);
        for i in 0..40u64 {
            if i == 17 {
                engine.add_query_text("truck >= 2").unwrap();
            }
            let ends: &[u32] = if i % 7 == 3 { &[2] } else { &[] };
            let n = i as u32;
            let detections = [(n % 4 + 1, 1), (5, 1), (9, 0), (n % 2 + 23, 2), (30, 2)];
            let result = engine.observe(&frame(i, &detections, ends)).unwrap();
            total_matches += result.matches.len() as u64;
            matching_frames += u64::from(result.any());
        }
        assert!(engine.lifecycle.has_aliases(), "script mints no alias");
        assert!(engine.metrics().compactions > 0, "script never compacts");
        assert!(total_matches > matching_frames && matching_frames > 0);
        assert!(matching_frames < 40);
        assert_eq!(engine.match_counters(), (total_matches, matching_frames));
        engine
    }

    /// `(len, crc32)` of the `TVQE` payload a fleet worker's snapshot holds
    /// after [`pinned_script`], computed at the parent of PR 23 — before any
    /// type owned its bytes, and with the worker's `(frames, matches,
    /// matching frames)` tally passed in as an opaque sidecar where the
    /// engine now writes its own counters. A refactor must leave the
    /// constants alone; equal bytes are what show a snapshot written on
    /// either side of it restores on the other. They were re-pinned once
    /// (318 → 317 B, 406 → 405 B) when the interner dropped its class-counts
    /// column: only the persisted `arena_bytes` gauge moved (160 → 96),
    /// which encodes one varint byte shorter; every other section decodes
    /// equal. MFS moved again (317 → 315 B) when it stopped using the
    /// intersection memo: the envelope around the maintainer blob is
    /// byte-identical, the blob's arena, handles and states decode equal,
    /// and only `intersection_cache_{hits,misses,slots}` changed
    /// (73/137/4096 → 0). Both moved again (315 → 291 B, 405 → 381 B) in
    /// version 2, when the class-store section went: config, registry,
    /// catalog, live bindings, aliases, counters and everything after the
    /// lifecycle decode equal; the store's `(id, class)` entries now ride in
    /// the lifecycle's registered-id list, its alias cursor follows the
    /// alias list, and only the store's reference counts (all 1) and
    /// eviction counter are gone. Version 3 took 18 B off each (291 → 273
    /// B, 381 → 363 B): the config decodes to the same `EngineConfig` from
    /// 16 B instead of 32, the trailer to the same two match counters from
    /// 2 B instead of 4, and every section in between is byte-identical.
    #[test]
    fn engine_snapshot_bytes_are_pinned() {
        let pins = [MaintainerKind::Mfs, MaintainerKind::Ssg].map(|kind| {
            let payload = encode_engine(&pinned_script(kind)).unwrap();
            (payload.len(), tvq_common::crc32(&payload))
        });
        assert_eq!(pins, [(273, 3842867886), (363, 137411522)]);
    }

    /// The same pin for the sealed `TVQF` fleet catalog.
    #[test]
    fn fleet_catalog_bytes_are_pinned() {
        let mut registry = ClassRegistry::with_default_classes();
        let bicycle = registry.register("bicycle");
        let queries = [
            CnfQuery::new(
                QueryId(0),
                vec![
                    vec![
                        Condition::at_least(ClassId(1), 2),
                        Condition::at_most(ClassId(0), 1),
                    ],
                    vec![Condition::exactly(bicycle, 300)],
                ],
            ),
            CnfQuery::conjunction(QueryId(7), vec![Condition::at_least(ClassId(3), 1)]),
        ];
        let payload = encode_fleet_catalog(&registry, &queries, 1 << 40);
        assert_eq!(
            (payload.len(), tvq_common::crc32(&payload)),
            (66, 558161692)
        );
    }

    /// The live-binding, registration and alias lists are written strictly
    /// increasing by key. A list that repeats or reorders a key is corrupt
    /// — not a map that kept the last entry.
    #[test]
    fn decoders_reject_lists_no_encoder_writes() {
        let engine = TemporalVideoQueryEngine::builder(EngineConfig::default())
            .with_query_text("car >= 1")
            .unwrap()
            .build()
            .unwrap();
        // A `TVQE` payload of a frameless engine around hand-built keys of
        // the three lifecycle lists.
        let payload = |live: &[u32], registered: &[u32], aliases: &[u32]| {
            let mut enc = Encoder::new();
            enc.put_header(MAGIC, VERSION);
            engine.config.encode(&mut enc);
            engine.registry.encode(&mut enc);
            engine.catalog.encode(&mut enc);
            enc.put_usize(live.len());
            for &external in live {
                enc.put_u32(external);
                enc.put_u32(external);
                enc.put_u16(1);
                enc.put_u64(0);
            }
            enc.put_usize(registered.len());
            for &id in registered {
                enc.put_u32(id);
                enc.put_u16(1);
            }
            enc.put_usize(aliases.len());
            for &alias in aliases {
                enc.put_u32(alias);
                enc.put_u32(1);
            }
            enc.put_u32(u32::MAX - 2); // the alias cursor
            (0..4).for_each(|_| enc.put_u64(0)); // three counters, the cursor
            let mut blob = Encoder::new();
            engine.maintainer.snapshot_state(&mut blob).unwrap();
            enc.put_bytes(blob.as_bytes());
            (0..2).for_each(|_| enc.put_u64(0)); // the match counters
            enc.into_bytes()
        };
        let (a, b) = (u32::MAX - 1, u32::MAX);
        let (keys, aliases) = ([1, 2], [a, b]);
        restore_engine(&payload(&keys, &keys, &aliases))
            .expect("the hand-built layout is the real one");

        let cases = [
            ("live binding", payload(&[2, 2], &keys, &aliases)),
            ("registered id", payload(&keys, &[2, 1], &aliases)),
            ("registered id", payload(&keys, &[1, 1], &aliases)),
            ("alias", payload(&keys, &keys, &[b, b])),
        ];
        for (list, bytes) in cases {
            let err = restore_engine(&bytes).unwrap_err();
            assert!(
                matches!(&err, Error::Corrupt(message) if message.contains(list)),
                "{list}: {err}"
            );
        }
    }

    #[test]
    fn snapshot_version_skew_fails_cleanly() {
        for version in [VERSION - 1, VERSION + 1] {
            let mut enc = Encoder::new();
            enc.put_header(MAGIC, version);
            let err = restore_engine(&enc.into_bytes()).unwrap_err();
            assert!(matches!(err, Error::Codec(_)), "{version}: {err}");
        }
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
            ) {
                let mut engine = run_workload(window, duration_raw, every_raw, &steps);
                let payload = encode_engine(&engine).unwrap();
                let mut restored = restore_engine(&payload).unwrap();
                prop_assert_eq!(restored.match_counters(), engine.match_counters());
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
                let payload = encode_engine(&engine).unwrap();
                let cut = (cut_raw % payload.len() as u64) as usize;
                prop_assert!(restore_engine(&payload[..cut]).is_err());
            }

            /// Random bytes rarely get past a 4-byte magic; a valid payload
            /// with a few bytes overwritten reaches every per-type decoder.
            /// Whatever still restores must also keep running, and a fleet
            /// catalog must not survive at all (its CRC covers every byte).
            #[test]
            fn mutated_payloads_fail_or_keep_running(
                window in 2usize..9,
                duration_raw in 0usize..8,
                every_raw in 0u64..6,
                steps in raw_steps(),
                edits in vec((any::<u64>(), 1u8..=255), 1..5),
            ) {
                let engine = run_workload(window, duration_raw, every_raw, &steps);
                let mutate = |bytes: &mut [u8]| {
                    let len = bytes.len() as u64;
                    for &(at, mask) in &edits {
                        bytes[(at % len) as usize] ^= mask;
                    }
                };
                let mut payload = encode_engine(&engine).unwrap();
                mutate(&mut payload);
                // One mutation leaves a legal engine that the frames below
                // must not drive: a memo size that asks the first
                // intersection for up to 12 GiB. An alias cursor lowered into
                // the tracker ids they use is fine: minting skips those ids
                // and wraps below zero.
                let restored = restore_engine(&payload)
                    .ok()
                    .filter(|engine| engine.config.memo.bits <= 20);
                if let Some(mut restored) = restored {
                    let fid0 = engine.metrics().frames_processed;
                    for i in 0..10u64 {
                        let detections = [(i as u32 % 5, 1), ((i as u32 + 3) % 7, (i % 4) as u16)];
                        let _ = restored.observe(&frame(fid0 + i, &detections, &[11]));
                    }
                }

                let sealed =
                    encode_fleet_catalog(&engine.registry, engine.queries(), engine.catalog_version());
                let mut mutated = sealed.clone();
                mutate(&mut mutated);
                if mutated != sealed {
                    prop_assert!(decode_fleet_catalog(&mutated).is_err());
                }
            }
        }
    }
}
