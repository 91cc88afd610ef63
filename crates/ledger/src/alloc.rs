//! The ledger's own counting global allocator.
//!
//! Two readings come from here and nowhere else: the live-heap high-water
//! mark behind `peak_heap_mib`, and the allocation count behind
//! `transport.receiver.allocs_per_chunk`. It forwards every call to
//! [`System`] and bumps relaxed atomics (statistics that publish no other
//! data). The counters are process-wide; the legs that read the allocation
//! count run while no other thread of this process is alive.

// The workspace denies `unsafe_code`; a `GlobalAlloc` impl is the one
// construct an allocation meter cannot avoid.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

/// `System`, with every allocation counted.
pub struct Counting;

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never influence the
// pointers or layouts handed back.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: `layout` is the caller's, passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grew(new_size);
        // SAFETY: `ptr` was allocated by this allocator (so by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        // SAFETY: `ptr` was allocated by this allocator (so by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Tells glibc's allocator to keep the heap mapped: never trim the top of
/// the heap back to the kernel, serve everything below 32 MiB (the largest
/// threshold glibc accepts) from the heap rather than from a fresh `mmap`,
/// and grow the heap in 64 MiB steps.
///
/// A pass allocates and frees over a hundred MiB of packet buffers. Left
/// alone, glibc hands that memory back to the kernel when a pass ends and
/// faults it in again during the next one, and that kernel work — a third of
/// a `bulk-clean` pass on the sizing box, and the noisiest third — would be
/// what the ledger measures. A long-lived receiver's heap is warm; this
/// makes the benchmark's heap warm too. A no-op on other C libraries.
pub fn keep_heap_mapped() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        use std::ffi::c_int;
        extern "C" {
            fn mallopt(param: c_int, value: c_int) -> c_int;
        }
        const M_TRIM_THRESHOLD: c_int = -1;
        const M_TOP_PAD: c_int = -2;
        const M_MMAP_THRESHOLD: c_int = -3;
        // SAFETY: `mallopt` only stores tuning values in the allocator's
        // own state; it is called once, first thing in `main`, before any
        // other thread exists.
        unsafe {
            mallopt(M_TRIM_THRESHOLD, c_int::MAX);
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TOP_PAD, 64 << 20);
        }
    }
}

/// Heap allocations since process start (alloc + alloc_zeroed + realloc).
pub fn allocs() -> u64 {
    ALLOCS.load(Relaxed)
}

/// Bytes live on the heap right now.
pub fn live_bytes() -> u64 {
    LIVE.load(Relaxed)
}

/// Restarts the high-water mark from the current live size.
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Highest live size seen since the last [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Relaxed)
}
