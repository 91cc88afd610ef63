//! Heap-allocation counting hooks: the workspace's one counting allocator.
//! A binary installs [`CountingAlloc`] as its `#[global_allocator]` (the
//! `experiments` binary and `tests/hotpath_allocs.rs` do) and reads
//! [`allocs`] around the window it measures.

// The workspace denies `unsafe_code`; a `GlobalAlloc` impl is the one
// construct an allocation meter cannot avoid. It only forwards to
// `System` and bumps counters.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    /// Heap allocations made by this thread (alloc + alloc_zeroed +
    /// realloc). Per-thread so a measured window counts only its own
    /// traffic, whatever else the process runs beside it; const-init
    /// and `Drop`-free, so touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has asked the heap for, and bytes it has handed
    /// back: a window that allocates and frees on one thread reads what it
    /// requested and what it still holds, whatever other threads do.
    static REQUESTED: Cell<u64> = const { Cell::new(0) };
    static RELEASED: Cell<u64> = const { Cell::new(0) };
    /// The most this thread has held (requested minus released) since its
    /// last [`reset_high_water`].
    static HIGH_WATER: Cell<i64> = const { Cell::new(0) };
}
/// Bytes currently live on the heap (allocated minus deallocated),
/// process-wide: memory freed by another thread is still freed.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

fn count_alloc(bytes: usize) {
    // `try_with` only fails during thread teardown; nothing measures
    // there.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = REQUESTED.try_with(|c| c.set(c.get() + bytes as u64));
    let _ = HIGH_WATER.try_with(|c| c.set(c.get().max(held_bytes())));
    LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

fn count_free(bytes: usize) {
    let _ = RELEASED.try_with(|c| c.set(c.get() + bytes as u64));
    LIVE_BYTES.fetch_sub(bytes as u64, Ordering::Relaxed);
}

/// `System`, with every allocation counted.
pub struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow-in-place still counts: the steady state must not even
        // ask. The old size goes first, so a reallocation raises the high
        // water by its growth alone, as the ledger's meter counts it.
        count_free(layout.size());
        count_alloc(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_free(layout.size());
        System.dealloc(ptr, layout)
    }
}

/// Allocations the calling thread has made so far.
pub fn allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

/// Bytes the calling thread has requested from the heap so far (every
/// allocation's size, a reallocation's new size included).
pub fn requested_bytes() -> u64 {
    REQUESTED.try_with(Cell::get).unwrap_or(0)
}

/// Bytes the calling thread has returned to the heap so far.
pub fn released_bytes() -> u64 {
    RELEASED.try_with(Cell::get).unwrap_or(0)
}

/// Bytes the calling thread holds: requested minus released (negative
/// when it freed more than it asked for, memory that another thread
/// allocated).
pub fn held_bytes() -> i64 {
    requested_bytes() as i64 - released_bytes() as i64
}

/// Restarts the calling thread's high-water mark from what it holds now.
pub fn reset_high_water() {
    let _ = HIGH_WATER.try_with(|c| c.set(held_bytes()));
}

/// The most the calling thread has held since its last
/// [`reset_high_water`]: a window's peak is this minus [`held_bytes`]
/// before it.
pub fn high_water_bytes() -> i64 {
    HIGH_WATER.try_with(Cell::get).unwrap_or(0)
}

/// Bytes currently live on the heap; only meaningful while the counting
/// allocator is installed (otherwise stays 0).
pub fn live_bytes() -> u64 {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// True when the counting allocator is actually installed as the global
/// allocator (a probe allocation moves the counter).
pub fn active() -> bool {
    let before = allocs();
    std::hint::black_box(Box::new(0u64));
    allocs() != before
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The hooks are called directly, so the test needs no global
    /// allocator: nothing else on this thread moves the counters.
    #[test]
    fn a_freed_buffer_stays_in_the_high_water_mark_but_not_in_what_is_held() {
        let small = Layout::from_size_align(4096, 8).unwrap();
        reset_high_water();
        let held = held_bytes();
        // SAFETY: each pointer goes back with the layout it was given with.
        unsafe {
            let p = CountingAlloc.alloc(small);
            assert!(!p.is_null());
            let p = CountingAlloc.realloc(p, small, 3 * 4096);
            assert!(!p.is_null());
            CountingAlloc.dealloc(p, Layout::from_size_align(3 * 4096, 8).unwrap());
        }
        assert_eq!(held_bytes(), held);
        // A reallocation counts its growth, not both buffers at once.
        assert_eq!(high_water_bytes(), held + 3 * 4096);
    }
}
