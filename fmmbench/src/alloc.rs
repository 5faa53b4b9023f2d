//! A counting global allocator: every allocation on any thread bumps one
//! relaxed counter, so a window around warm applies yields heap
//! allocations per apply at the workload's real thread and rank count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// [`System`] plus an allocation counter (allocations, zeroed
/// allocations and reallocations each count once; frees do not).
pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic that publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded from our caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` came from this allocator, which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations made by the whole process so far.
pub fn count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
