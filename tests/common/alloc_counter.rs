//! [`assert_no_alloc!`] over the workspace's one counting allocator,
//! `chunks::experiments::alloc_count`. A test binary opts in with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: alloc_count::CountingAlloc = alloc_count::CountingAlloc;
//! ```
//!
//! The allocation counter is per-thread, so a window measures only the
//! thread that runs it — tests in one binary may run concurrently. The
//! hot-path tests use the virtual parallel engine so the work they measure
//! happens on the measuring thread.

/// Runs a block and asserts the calling thread performed **zero** heap
/// allocations inside it, returning the block's value. The optional
/// trailing arguments format a context message on failure.
///
/// ```ignore
/// let acked = assert_no_alloc!(rx.ingest_batch(&packets, now, &mut out));
/// assert_no_alloc!({ rx.handle_packet_into(&p, 0, &mut out) }, "packet {i}");
/// ```
#[macro_export]
macro_rules! assert_no_alloc {
    ($body:expr) => {
        $crate::assert_no_alloc!($body, "steady state must not allocate")
    };
    ($body:expr, $($ctx:tt)+) => {{
        let before = chunks::experiments::alloc_count::allocs();
        let value = $body;
        let allocs = chunks::experiments::alloc_count::allocs() - before;
        assert_eq!(
            allocs,
            0,
            "{}: {} heap allocations inside a no-alloc scope",
            format_args!($($ctx)+),
            allocs
        );
        value
    }};
}
