//! Peak live heap bytes, counted by the process's allocator.
//!
//! `VmHWM` is not a usable gate here: glibc adapts its mmap and trim
//! thresholds to the order and sizes of earlier frees, so the same workload
//! read 73–83 MB across seeds (and pinning the thresholds with `mallopt`
//! cost 10–30% of `t1_s`). The sum of live allocation sizes is a function
//! of the program alone, so that is what `peak_heap_mb` reports.
//!
//! Counting is on for the first repetition of a run only: that repetition's
//! time is kept but is rarely the minimum, and every later one pays one
//! relaxed load per allocator call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};

static COUNTING: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

pub struct CountingAlloc;

fn grew(by: usize) {
    let live = LIVE.fetch_add(by, Relaxed).wrapping_add(by);
    PEAK.fetch_max(live, Relaxed);
}

/// Blocks allocated before counting started may be freed while it is on, so
/// the subtraction saturates instead of wrapping.
fn shrank(by: usize) {
    let _ = LIVE.fetch_update(Relaxed, Relaxed, |live| Some(live.saturating_sub(by)));
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are statistics and publish no data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            shrank(layout.size());
        }
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counts live heap bytes while `f` runs; returns its result and the peak,
/// in MB, of the bytes allocated since `f` started.
pub fn peak_mb_during<R>(f: impl FnOnce() -> R) -> (R, f64) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let r = f();
    COUNTING.store(false, Relaxed);
    (r, PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    #[test]
    fn the_peak_is_the_largest_live_total() {
        let (_, peak) = super::peak_mb_during(|| {
            let a = vec![0u8; 8 << 20];
            drop(a);
            let b = vec![0u8; 3 << 20];
            std::hint::black_box(&b);
        });
        // Other tests allocate on other threads meanwhile, so only the floor
        // is exact.
        assert!(peak >= 8.0, "{peak}");
    }
}
