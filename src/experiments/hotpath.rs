//! The receive hot-path workload: one clean jumbo-MTU packet stream per
//! connection, replayed through the serial receiver or the virtual-engine
//! parallel dispatcher with a warm-up prefix and a steady-state window.
//! `obs-overhead` times these replays under each sink mode; the zero-alloc
//! proof lives in `tests/hotpath_allocs.rs` and throughput in the ledger
//! (`crates/ledger`, `bulk-clean` `rx_goodput_mib_s`, `transport.parallel.*`).
//!
//! [`alloc_count`] is the workspace's one counting allocator: the
//! `experiments` binary and `tests/hotpath_allocs.rs` install it, and a
//! replay reads it around its steady-state window.

use std::sync::Arc;
use std::time::Instant;

use chunks_core::packet::Packet;
use chunks_obs::{ObsSink, ShardSink};
use chunks_transport::{
    ConnSpec, ConnectionParams, DeliveryMode, Engine, ParallelReceiver, Receiver, Schedule, Sender,
    SenderConfig,
};
use chunks_wsc::InvariantLayout;

/// Elements (= bytes) per TPDU.
pub const TPDU_ELEMENTS: u32 = 8192;
/// Application bytes per connection.
pub const MESSAGE_BYTES: usize = 4 * 1024 * 1024;
/// Path MTU (jumbo: one TPDU chunk per packet).
pub const MTU: usize = 9000;
/// Packets per `ingest_batch` call.
pub const BATCH: usize = 32;
/// Connections on the parallel leg.
pub const PAR_CONNS: u32 = 8;
/// Workers on the parallel leg.
pub const PAR_WORKERS: usize = 4;

/// Heap-allocation counting hooks. A binary installs
/// [`CountingAlloc`](alloc_count::CountingAlloc) as its
/// `#[global_allocator]` and reads [`allocs`](alloc_count::allocs) around
/// the window it measures.
pub mod alloc_count {
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
    }
    /// Bytes currently live on the heap (allocated minus deallocated),
    /// process-wide: memory freed by another thread is still freed.
    static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

    fn count_alloc(bytes: usize) {
        // `try_with` only fails during thread teardown; nothing measures
        // there.
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        LIVE_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
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
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            System.dealloc(ptr, layout)
        }
    }

    /// Allocations the calling thread has made so far.
    pub fn allocs() -> u64 {
        ALLOCS.try_with(Cell::get).unwrap_or(0)
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
}

pub(crate) fn params(conn_id: u32) -> ConnectionParams {
    ConnectionParams {
        conn_id,
        elem_size: 1,
        initial_csn: 0,
        tpdu_elements: TPDU_ELEMENTS,
    }
}

pub(crate) fn layout() -> InvariantLayout {
    InvariantLayout::with_data_symbols(1 << 15)
}

pub(crate) fn capacity_elements() -> u64 {
    MESSAGE_BYTES as u64 + 4 * TPDU_ELEMENTS as u64
}

fn message(conn_id: u32, seed: u64) -> Vec<u8> {
    let mut state = seed ^ ((conn_id as u64) << 17);
    (0..MESSAGE_BYTES)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

pub(crate) fn stream(conn_id: u32, seed: u64) -> Vec<Packet> {
    let mut tx = Sender::new(SenderConfig {
        params: params(conn_id),
        layout: layout(),
        mtu: MTU,
        min_tpdu_elements: 64,
        max_tpdu_elements: TPDU_ELEMENTS,
    });
    tx.submit_simple(&message(conn_id, seed), 0x10 + conn_id, false);
    tx.packets_for_pending().expect("clean stream packs")
}

/// One replay's measurements.
pub(crate) struct RunOutcome {
    pub(crate) wall_ns: u64,
    pub(crate) steady_allocs: u64,
    pub(crate) delivered_bytes: u64,
}

/// Serial replay with an optional observability sink installed on the
/// receiver (wrapped in a [`ShardSink`] facade when the sink shards) — the
/// `obs-overhead` bench's instrument.
pub(crate) fn run_serial_with(
    packets: &[Packet],
    warm_batches: usize,
    sink: Option<Arc<dyn ObsSink>>,
) -> RunOutcome {
    let tpdus = MESSAGE_BYTES / TPDU_ELEMENTS as usize + 2;
    let mut rx = Receiver::new(
        DeliveryMode::Immediate,
        params(1),
        layout(),
        capacity_elements(),
    );
    if let Some(sink) = sink {
        rx.set_obs(ShardSink::wrap(sink));
    }
    rx.reserve(tpdus + 8, tpdus * 4 + 64);
    let mut out = Vec::with_capacity(tpdus * 4 + 64);
    let mut steady_from = 0u64;
    let begin = Instant::now();
    for (i, batch) in packets.chunks(BATCH).enumerate() {
        if i == warm_batches {
            steady_from = alloc_count::allocs();
        }
        rx.ingest_batch(batch, i as u64, &mut out);
    }
    let steady_allocs = alloc_count::allocs() - steady_from;
    let wall_ns = begin.elapsed().as_nanos() as u64;
    RunOutcome {
        wall_ns,
        steady_allocs,
        delivered_bytes: rx.verified_prefix(),
    }
}

/// Parallel replay with an optional observability sink shared by the
/// dispatcher and every worker — the `obs-overhead` bench's instrument.
pub(crate) fn run_parallel_with(
    streams: &[Vec<Packet>],
    warm_batches: usize,
    sink: Option<Arc<dyn ObsSink>>,
) -> RunOutcome {
    // Interleave the connections round-robin, as a shared link would.
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut packets: Vec<Packet> = Vec::new();
    for i in 0..longest {
        for s in streams {
            if let Some(p) = s.get(i) {
                packets.push(p.clone());
            }
        }
    }
    let specs: Vec<ConnSpec> = (1..=PAR_CONNS)
        .map(|id| {
            ConnSpec::new(
                params(id),
                layout(),
                DeliveryMode::Immediate,
                capacity_elements(),
            )
        })
        .collect();
    let mut pr = match sink {
        Some(sink) => ParallelReceiver::new_with_obs(
            PAR_WORKERS,
            Engine::Virtual(Schedule::Fair),
            specs,
            sink,
        ),
        None => ParallelReceiver::new(PAR_WORKERS, Engine::Virtual(Schedule::Fair), specs),
    };
    let tpdus = (MESSAGE_BYTES / TPDU_ELEMENTS as usize + 2) * PAR_CONNS as usize;
    pr.reserve(tpdus + 8, tpdus * 4 + 64);
    let mut steady_from = 0u64;
    let begin = Instant::now();
    for (i, batch) in packets.chunks(BATCH).enumerate() {
        if i == warm_batches {
            steady_from = alloc_count::allocs();
        }
        pr.ingest_batch(batch, i as u64);
        pr.drain();
    }
    let steady_allocs = alloc_count::allocs() - steady_from;
    let wall_ns = begin.elapsed().as_nanos() as u64;
    let outcome = pr.finish();
    let delivered_bytes = outcome
        .conns
        .values()
        .map(|r| r.receiver.verified_prefix())
        .sum();
    RunOutcome {
        wall_ns,
        steady_allocs,
        delivered_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_builders_deliver_every_byte() {
        let serial = run_serial_with(&stream(1, 0x407), 1, None);
        assert_eq!(serial.delivered_bytes, MESSAGE_BYTES as u64);
        let streams: Vec<Vec<Packet>> = (1..=PAR_CONNS).map(|id| stream(id, 0x407)).collect();
        let parallel = run_parallel_with(&streams, 1, None);
        assert_eq!(
            parallel.delivered_bytes,
            MESSAGE_BYTES as u64 * PAR_CONNS as u64
        );
    }
}
