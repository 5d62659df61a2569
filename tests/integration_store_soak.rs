//! Indefinite churn at constant live size must cost constant memory: a
//! sliding window over a `GeoStore` — insert the next 500 points, delete
//! the oldest 500 — holds 20 000 live points for 2 000 epochs, and nothing
//! store-side may grow with the number of points *ever* inserted.
//!
//! Nor may a single epoch spike: the store's peak heap over the whole run
//! stays under a recorded ceiling. It read 2 075 743 B while the first
//! insert after a derived request doubled the live view, and 1 726 260 B
//! once the view grew by an eighth instead. (Dealing a drain straight from
//! its level's columns, alone, leaves it at 2 076 260 B: this stream's
//! peak is the view's, not a drain's.) The allocation sizes do not depend
//! on the clock, so the number repeats to the byte.
//!
//! The file holds one test on purpose: the counting allocator below is the
//! process's, and a second test running beside it would be counted too.

use pargeo::datagen::uniform_cube;
use pargeo::store::{GeoStore, Request};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Bytes currently allocated — a statistic, so `Relaxed` throughout.
static LIVE_HEAP: AtomicUsize = AtomicUsize::new(0);
/// The most `LIVE_HEAP` has read since it was last reset.
static PEAK_HEAP: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is only ever read for the assertion.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the caller's `layout` meets `GlobalAlloc::alloc`'s contract
    // and goes to `System` unchanged.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE_HEAP.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK_HEAP.fetch_max(live, Ordering::Relaxed);
        System.alloc(layout)
    }

    // SAFETY: `ptr` came from `alloc` above, that is from `System`, with
    // this same `layout`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_HEAP.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn sliding_window_churn_holds_memory_flat() {
    const LIVE: usize = 20_000;
    const STEP: usize = 500;
    const EPOCHS: usize = 2_000;
    let pts = uniform_cube::<2>(LIVE + EPOCHS * STEP, 19);
    // Everything counted from here on is the store's.
    let base = LIVE_HEAP.load(Ordering::Relaxed);
    PEAK_HEAP.store(base, Ordering::Relaxed);
    let mut store: GeoStore<2> = GeoStore::builder().threads(1).build();
    store.insert(&pts[..LIVE]);

    let mut heap_at = [0usize; 2];
    for epoch in 1..=EPOCHS {
        let lo = (epoch - 1) * STEP;
        assert_eq!(store.insert(&pts[LIVE + lo..LIVE + lo + STEP]), {
            Some((LIVE + lo) as u32)
        });
        assert_eq!(store.delete(&pts[lo..lo + STEP]), STEP);
        if epoch % 10 == 0 {
            // Keeps the compacted live view in play on the write path.
            store.seb().expect("a ball around 20 000 points");
        }
        match epoch {
            200 => heap_at[0] = LIVE_HEAP.load(Ordering::Relaxed) - base,
            EPOCHS => heap_at[1] = LIVE_HEAP.load(Ordering::Relaxed) - base,
            _ => {}
        }
    }
    assert_eq!(store.len(), LIVE);
    let [early, late] = heap_at;
    assert!(
        4 * late <= 5 * early,
        "live heap grew from {early} B after epoch 200 to {late} B after epoch {EPOCHS}"
    );
    let peak = PEAK_HEAP.load(Ordering::Relaxed) - base;
    assert!(peak <= 1_750_000, "the store's heap peaked at {peak} B");

    // The view the store kept current in place through 4 000 write epochs
    // is still the index's live set: a snapshot derives its own from the
    // pinned index, and every live point is a vertex of the Delaunay graph.
    let pinned = store.pin();
    for req in [Request::DelaunayGraph, Request::KnnGraph { k: 1 }] {
        assert_eq!(store.run(req.clone()), pinned.answer(&req));
    }
}
