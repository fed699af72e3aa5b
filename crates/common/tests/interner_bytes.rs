//! The interner's byte gauges against a counting allocator.
//!
//! `arena_bytes()` and `bitmap_bytes()` feed the benchmark's gated
//! `state_bytes_peak`; this test pins them to what the process actually
//! holds, so the number cannot be made small by redefining it: through
//! interning, releasing, parking objects and reusing their bit slots, and
//! a compaction. Own test
//! binary (the allocator is process-global) with a single `#[test]` (no
//! sibling test allocates while the measurement runs).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use tvq_common::{ObjectSet, SetId, SetInterner};

/// Bytes currently allocated and not yet freed. `Relaxed`: a statistic read
/// on the one thread that does all the allocating.
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter updates touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size, Ordering::Relaxed);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's to vouch for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A deterministic feed-like family: windows of 4–19 consecutive objects
/// sliding over a 300-object universe (a five-word stride), so neighbours
/// overlap properly and intersections mint new sets.
fn nth_set(n: u32) -> ObjectSet {
    let start = n * 7 % 281;
    ObjectSet::from_raw(start..start + 4 + n % 16)
}

/// One memo slot: the pair, the answer and the clock it was written at.
const MEMO_ENTRY_BYTES: usize = 16;

/// The allocator's live bytes since `before` over the gauges (`memo`: count
/// the memo's slots too), which must lie in `0.8..=1.25`.
fn assert_gauged(interner: &SetInterner, before: usize, memo: bool, phase: &str) {
    let held = LIVE.load(Ordering::Relaxed) - before;
    let memo = if memo {
        interner.memo_slots() * MEMO_ENTRY_BYTES
    } else {
        0
    };
    let gauge = interner.arena_bytes() + interner.bitmap_bytes() + memo;
    let ratio = held as f64 / gauge as f64;
    assert!(
        (0.8..=1.25).contains(&ratio),
        "{phase}: allocator holds {held} B, gauges report {gauge} B (ratio {ratio:.3}, {} handles)",
        interner.len()
    );
}

#[test]
fn gauges_match_the_allocator() {
    const SETS: u32 = 3_000;
    let before = LIVE.load(Ordering::Relaxed);
    let mut interner = SetInterner::new();
    let mut previous = SetId::EMPTY;
    for n in 0..SETS {
        let id = interner.intern(&nth_set(n));
        interner.intersect(id, previous);
        previous = id;
    }
    assert!(interner.len() > 1_000, "the family must mint many sets");
    assert_eq!(
        interner.stride(),
        5,
        "{} objects take five words a set",
        interner.universe_len()
    );
    assert!(interner.memo_slots() > 0);
    assert_gauged(&interner, before, true, "interned");

    // Releasing two sets in three, then minting as many again, refills the
    // free handles: the birth stamps (which mark the free handles) and the
    // list of sets minted since the last frame's end are counted with the
    // content index.
    let handles = interner.len() as u32;
    let released: Vec<SetId> = (1..handles)
        .filter(|raw| raw % 3 != 0)
        .map(SetId::from_raw)
        .collect();
    for &id in &released {
        interner.release(id);
    }
    let released_bytes = released.capacity() * std::mem::size_of::<SetId>();
    assert_gauged(&interner, before + released_bytes, true, "released");
    for n in SETS..SETS + released.len() as u32 {
        interner.intern(&nth_set(n));
    }
    assert_eq!(interner.len(), handles as usize, "every free handle reused");
    drop(released);
    assert_gauged(&interner, before, true, "re-interned");
    interner.release_unheld(|id| id.raw() % 3 == 0, |_| {});
    assert_gauged(&interner, before, true, "released at frame end");

    // Releasing every set that holds an object below 150 frees those
    // objects' bit slots and parks the objects: the holder counts and the
    // free slots are counted with the universe map. 100 new objects then
    // take free slots, so no slot is added and the stride stays.
    let slots = interner.slot_table().len();
    let parking: Vec<SetId> = (1..interner.len() as u32)
        .map(SetId::from_raw)
        .filter(|&id| interner.is_held(id))
        .filter(|&id| interner.resolve(id).iter().any(|object| object.raw() < 150))
        .collect();
    for &id in &parking {
        interner.release(id);
    }
    let parking_bytes = parking.capacity() * std::mem::size_of::<SetId>();
    assert_gauged(&interner, before + parking_bytes, true, "parked");
    drop(parking);
    assert!(interner.parked_objects().len() >= 150, "objects parked");
    for start in (1_000..1_100).step_by(4) {
        interner.intern(&ObjectSet::from_raw(start..start + 4));
    }
    assert_eq!(
        interner.slot_table().len(),
        slots,
        "new objects reuse slots"
    );
    assert_eq!(interner.stride(), 5);
    assert_gauged(&interner, before, true, "slots reused");

    // Compaction must give the memory back, not just stop counting it.
    let live: Vec<SetId> = (1..1_000)
        .filter(|raw| raw % 3 == 0)
        .map(SetId::from_raw)
        .collect();
    interner.compact(&live);
    drop(live);
    assert_gauged(&interner, before, false, "after compaction");
}
