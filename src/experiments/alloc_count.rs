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
}
/// Bytes currently live on the heap (allocated minus deallocated),
/// process-wide: memory freed by another thread is still freed.
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

fn count_alloc(bytes: usize) {
    // `try_with` only fails during thread teardown; nothing measures
    // there.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = REQUESTED.try_with(|c| c.set(c.get() + bytes as u64));
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
        // ask.
        count_alloc(new_size);
        count_free(layout.size());
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
