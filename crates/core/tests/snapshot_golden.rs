//! Golden digests of the maintainers' on-disk state.
//!
//! `snapshot_state` bytes are what the durability layer persists inside
//! every epoch snapshot, so a refactor of the maintainers must not move a
//! byte of them. The constants below were computed at the commit *before*
//! the shared maintainer substrate was introduced (PR 18, `e469b48`) by
//! running this very file there; a mismatch means snapshots written by an
//! older build no longer describe the state this build would write.
//!
//! They were re-pinned since (MFS 1477 → 1473 B, SSG 2998 → 2995 B),
//! when the interner stopped keeping a class-counts column: the persisted
//! `arena_bytes` gauge fell and encodes in fewer varint bytes. Decoding
//! both builds' streams snapshot by snapshot showed every other field
//! equal.
//!
//! MFS moved again (1473 → 1459 B) when it became one sweep over dense
//! rows and stopped using the intersection memo. Decoding both builds'
//! 15 snapshots showed, in each, the same arena sets, the same resolved
//! `object set → frames` map, cursor and epoch, and handles that differ
//! only by a bijection (11 renumberings in all: new sets are now interned
//! in row order, not hash order). Every metric was equal except
//! `intersection_cache_{hits,misses,slots}`, now 0 and shorter as varints.
//!
//! SSG moved again (2995 → 2984 B) when State Traversal began materialising
//! each intersection only after the node's subtree and stopped consulting
//! the memo for a frame's newly interned set. Decoding both builds' 15
//! snapshots section by section showed equal arena sets, cursors, sweep
//! counters, graph nodes (frames, marks, stamps, hints, principal frames),
//! edge lists, roots and previous results. Only `states_visited` and
//! `intersections` (one fewer from frame 119 on) and
//! `intersection_cache_{hits,misses,slots}` differ.
//!
//! SSG moved again (2984 → 2502 B) when it became an index over MFS's
//! state table: its blob is the table (MFS's row codec), then the graph
//! without frame sets or the `touched` stamp, then the roots; the sweep
//! counter and the previous results are gone. The table drops an invalid
//! state at the start of the next frame, and the graph its node with it;
//! before, SSG kept such a node until a frame reached it or the
//! once-per-window sweep ran. Decoding both builds' 15 snapshots showed,
//! in each, the same cursor and the same valid states (object sets,
//! frames, marks). The graph is the old one less the nodes of invalid
//! states (24 in all, in snapshots 3, 6, 7, 9, 12 and 13): every other
//! node has the same stamps, hints, principal frames and edges, bar edges
//! to those nodes, on renumbered slab slots, and the roots are the old
//! ones less those nodes, in order. The arena lacks the sets of those
//! nodes that a compaction has since retired (20 sets). Among the
//! metrics, `states_created` is unchanged; `states_visited` and
//! `intersections` fall (379 → 352 by the last snapshot: dead nodes are
//! no longer walked); `states_pruned` counts a drop a frame or more
//! earlier; edge counters move with the removal order; `peak_live_states`
//! falls 20 → 17 (dead nodes counted before); `interned_sets`,
//! `arena_bytes` and `bitmap_bytes` fall where retired sets left the
//! arena; `compactions` rises 32 → 33 (the policy compares live states
//! with the arena, and fewer states are live); `intersection_cache_misses`
//! falls 32 → 30.
//!
//! Both moved again (same lengths, new CRCs) when the interner dropped its
//! cardinality column and fitted its bitmap stride to the universe. Each
//! build's 15 snapshots were split into the blob before the metrics and
//! the metrics, and decoded: the blobs are byte-identical, and so is every
//! metric but `arena_bytes`, which lost the four bytes a set the column
//! held (MFS and SSG alike: 80 → 64, 392 → 256 at most) and kept its
//! varint length in every snapshot. `bitmap_bytes` did not move: this
//! feed's universe fits one word, which both strides give it.
//!
//! Both moved again (MFS 1459 → 1453 B, SSG 2502 → 2496 B) when the
//! interner's bitmap words and content index began to grow by a quarter
//! instead of doubling. Split and decoded the same way, each build's 15
//! snapshots have byte-identical blobs, and of the metrics only the two
//! byte gauges differ, in the same snapshots for MFS and SSG:
//! `arena_bytes` in five (the index no longer rounds to a power of two
//! kept half full: 128 → 64 three times, 256 → 112 and 256 → 104) and
//! `bitmap_bytes` in five (headroom of a quarter, not a doubling: 160 →
//! 136, 456 → 424, 448 → 440, 128 → 120, 812 → 708). Six snapshots of
//! each encode those gauges one varint byte shorter.
//!
//! SSG moved again (2496 → 1681 B) when its snapshot stopped holding the
//! graph: the blob keeps the head, the state table and the metrics, and its
//! graph section became the principal states in arrival order, each as its
//! handle and principal frames; a restore rebuilds the graph from the
//! table. Each build's 15 snapshots were split into head and table, graph
//! section and metrics: in every snapshot the head and table bytes and the
//! metric bytes are identical, the roots' handles and principal frames are
//! the same and in the same order, and only the graph section changed
//! (1,046 → 231 B over the 15). MFS did not move.
//!
//! SSG moved again (1681 → 1450 B) when its roots section went: MFS and SSG
//! write one blob, the head, the state table and the metrics, and a restore
//! takes as SSG's principal states the rows that are in-window frames' own
//! object sets. Each build's 15 snapshots were split at the metrics (the
//! bytes `MaintenanceMetrics::encode` writes for the maintainer's metrics):
//! in every snapshot the head and table bytes and the metric bytes are
//! identical, and the parent's bytes between them decode as a roots section
//! and nothing else (231 B over the 15). MFS did not move: its 15 blobs
//! are byte-identical.
//!
//! Both moved again (MFS 1453 → 1359 B, SSG 1450 → 1356 B) when the blob
//! became one section: the cursor, the interner's length, then each set in
//! handle order with its row's frames (empty for a set without a row), and
//! the metrics. Each build's 15 snapshots per kind were decoded, each in its
//! own layout, into the cursor, the arena's sets by handle, the rows by
//! handle and the metrics: all four are equal in every snapshot, and the
//! parent's interner epoch equals its `compactions` in every one. Of the 94
//! B each kind lost, 82 are the handle column, 15 the interner's epoch
//! words and 15 the row counts, less 18 for the empty frame sets of the
//! sets without a row.
//!
//! SSG moved again at equal length (1356 B) when it began to count appends
//! by MFS's rule and to drop nodes in the state table's row order. Decoded
//! as above, each build's 15 snapshots hold equal cursors, sets and rows;
//! of the metrics only `frames_appended` (13 snapshots, now MFS's value in
//! every one; 29 → 22 in the last) and `edges_added` and `edges_removed`
//! (the last 3, one fewer each) differ. MFS did not move.
//!
//! Both moved again (MFS 1359 → 1436 B, SSG 1356 → 1433 B) when a set
//! began to die with its last row: the interner frees a set no row holds
//! and reuses its handle, and the blob carries the count of sets minted
//! this epoch and the universe in slot order. Each build's 15 snapshots per
//! kind were decoded, each in its own layout, into the cursor, the sets by
//! handle, the rows by handle and the metrics. In every snapshot the
//! cursor and the handle count bytes are identical (48 B over the 15),
//! and the rows, as an `object set → marked frames` map, are equal; their
//! handles differ where a new set took a free one. The 18 sets the parent
//! held without a row are gone, and 9 free handles are written as empty
//! entries (sets section 754 → 706 B); the minted count and the universe
//! add 122 B. Of the metrics, `compactions`, the work counters and the
//! memo counters are equal; `interned_sets` counts held sets only (10 →
//! 9 in the last), `arena_bytes` adds the birth stamps (64 → 112 in the
//! last), `bitmap_bytes` falls where fewer sets are stored (708 → 676
//! once), and `states_terminated` rises (57 → 95 in the last) because a
//! hopeless set holds no row, so it is released at the end of its frame
//! and judged again when it returns. The metric bytes grew by 3.
//!
//! Both moved again (MFS 1436 → 1462 B, SSG 1433 → 1459 B) when a bit slot
//! began to die with its last set: the blob's universe section became the
//! slot table (each slot as its object id plus one, 0 for a free slot) and
//! the parked objects. Each build's 15 snapshots per kind were decoded,
//! each in its own layout, into the head (cursor, handle and minted
//! counts), the universe section, the sets with their rows by handle and
//! the metrics. In every snapshot the head and the sets section bytes are
//! identical. The registered objects are the same in every snapshot (the
//! older universe is the new slot table's objects and the parked ones):
//! 184 slots in all became 180, of them 8 free, and 12 objects parked; the
//! universe sections grew 107 → 126 B over the 15. Of the metrics only the
//! byte gauges differ: `arena_bytes` in 6 snapshots (the birth stamps grow
//! by a quarter, at least 16 at a time, where `Vec` doubling started at 4:
//! 80 → 128, 80 → 136 twice, 80 → 132, 112 → 152 and 128 → 160) and
//! `bitmap_bytes` in 14 (the holder counts and the free slots: 676 → 768
//! in the largest); the metric bytes grew by 7.

use std::sync::Arc;

use tvq_common::codec::crc32;
use tvq_common::{shared_class_store, Encoder, SetInterner, WindowSpec};
use tvq_core::{CompactionPolicy, MaintainerKind, MinCardinalityPruner};
use tvq_testkit::classed_feed;

/// Runs a fixed classed feed through `kind` (pruner attached, compaction
/// forced every fourth frame), snapshots every tenth frame, and digests the
/// concatenated snapshots as `(len, crc32)`.
fn snapshot_digest(kind: MaintainerKind) -> (usize, u32) {
    let store = shared_class_store();
    let mut maintainer = kind.build_with_options(
        WindowSpec::new(12, 3).unwrap(),
        Some(Arc::new(MinCardinalityPruner { min_objects: 2 })),
        SetInterner::with_classes(Arc::clone(&store)),
    );
    let policy = CompactionPolicy::every(4);
    let mut enc = Encoder::new();
    for frame in classed_feed(20211, 150, 24, 0.3, 3) {
        {
            let mut classes = store.write().unwrap();
            for &(id, class) in &frame.classes {
                classes.register(id, class);
            }
        }
        maintainer.advance(frame.fid, &frame.objects).unwrap();
        let seen = frame.fid.raw() + 1;
        if seen % policy.check_interval == 0 {
            maintainer.maybe_compact(&policy);
        }
        if seen % 10 == 0 {
            maintainer.snapshot_state(&mut enc).unwrap();
        }
    }
    assert!(maintainer.metrics().compactions > 0, "epochs must have run");
    assert!(
        maintainer.metrics().states_terminated > 0,
        "pruner must bite"
    );
    let bytes = enc.into_bytes();
    (bytes.len(), crc32(&bytes))
}

#[test]
fn mfs_snapshot_bytes_match_the_pre_substrate_build() {
    assert_eq!(snapshot_digest(MaintainerKind::Mfs), (1462, 2_516_655_957));
}

#[test]
fn ssg_snapshot_bytes_match_the_pre_substrate_build() {
    assert_eq!(snapshot_digest(MaintainerKind::Ssg), (1459, 2_260_281_162));
}
