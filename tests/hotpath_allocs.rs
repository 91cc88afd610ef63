//! The tentpole's proof obligation: the receive hot path performs **zero**
//! heap allocations per chunk in steady state — serial and parallel.
//!
//! Methodology: a warm-up phase feeds a prefix of the packet stream so every
//! pool, slab, map and buffer reaches working size, then the measured phase
//! replays the rest of the stream under [`assert_no_alloc!`]. An explicit
//! `reserve` sizes what grows with the TPDU count (the delivered records,
//! and the reorder queue in Reorder mode); the open-group table is sized by
//! the warm-up itself, which must open as many groups at once as the
//! measured phase does. The worst case, every TPDU open at once, has its
//! own leg: its first pass is bounded, its replay allocation-free. The
//! counting allocator wraps `System` and counts per thread, so the binary's
//! tests may run concurrently; the parallel legs run the *virtual* engine
//! so the workers' work happens on the measuring thread, and one more leg
//! measures the *threads* engine's dispatch side, which is what its
//! caller's thread pays.

mod common;

use bytes::Bytes;
use chunks::experiments::alloc_count::{self, CountingAlloc};
use chunks::transport::{
    ConnSpec, ConnectionDemux, ConnectionParams, DeliveryMode, Engine, ParallelReceiver, Receiver,
    Schedule, Sender, SenderConfig, Session,
};
use chunks::wsc::InvariantLayout;
use chunks_core::packet::Packet;
use chunks_obs::{Recorder, ShardSink};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ELEM_SIZE: u16 = 1;
const TPDU_ELEMENTS: u32 = 64;
const MTU: usize = 600;
const MESSAGE_LEN: usize = 32 * 1024;

fn params(conn_id: u32) -> ConnectionParams {
    ConnectionParams {
        conn_id,
        elem_size: ELEM_SIZE,
        initial_csn: 0,
        tpdu_elements: TPDU_ELEMENTS,
    }
}

fn layout() -> InvariantLayout {
    InvariantLayout::with_data_symbols(1 << 15)
}

fn capacity_elements() -> u64 {
    MESSAGE_LEN as u64 + TPDU_ELEMENTS as u64 + 64
}

/// The full packet stream of one connection's message.
fn stream(conn_id: u32) -> Vec<Packet> {
    let mut tx = Sender::new(SenderConfig {
        params: params(conn_id),
        layout: layout(),
        mtu: MTU,
        min_tpdu_elements: 2,
        max_tpdu_elements: TPDU_ELEMENTS,
    });
    let message: Vec<u8> = (0..MESSAGE_LEN)
        .map(|i| (i as u64).wrapping_mul(conn_id as u64 + 7) as u8)
        .collect();
    tx.submit_simple(&message, conn_id, false);
    tx.packets_for_pending().expect("clean stream packs")
}

/// Counts Data + ED chunks across a packet slice (the denominator of
/// allocs-per-chunk).
fn chunk_count(packets: &[Packet]) -> u64 {
    packets
        .iter()
        .map(|p| chunks_core::packet::spans(p).count() as u64)
        .sum()
}

#[test]
fn serial_receive_steady_state_is_allocation_free() {
    let packets = stream(1);
    let total_tpdus = MESSAGE_LEN / TPDU_ELEMENTS as usize + 2;
    let warmup = packets.len() / 4;
    assert!(warmup >= 4, "stream long enough to warm up");

    let mut rx = Receiver::new(
        DeliveryMode::Immediate,
        params(1),
        layout(),
        capacity_elements(),
    );
    // The delivered records for the whole stream, ahead of time; the
    // warm-up opens as many groups at once as the stream ever holds.
    rx.reserve(total_tpdus + 8, total_tpdus * 4 + 64);
    let mut out = Vec::with_capacity(total_tpdus * 4 + 64);

    const BATCH: usize = 16;
    for (i, batch) in packets[..warmup].chunks(BATCH).enumerate() {
        rx.ingest_batch(batch, i as u64, &mut out);
    }

    // Steady state: every remaining batch must touch the heap zero times.
    let measured = &packets[warmup..];
    let measured_chunks = chunk_count(measured);
    let before = alloc_count::allocs();
    for (i, batch) in measured.chunks(BATCH).enumerate() {
        assert_no_alloc!(
            rx.ingest_batch(batch, (warmup + i) as u64, &mut out),
            "serial batch {i}"
        );
    }
    let allocs = alloc_count::allocs() - before;
    assert_eq!(allocs, 0, "allocs/chunk must be 0/{measured_chunks}");
    assert!(measured_chunks > 100, "measured window too small to matter");

    // The silent path still did the work.
    assert_eq!(rx.verified_prefix(), MESSAGE_LEN as u64);
    assert_eq!(rx.stats.bad_packets, 0);
    assert!(out
        .iter()
        .any(|e| matches!(e, chunks::transport::RxEvent::TpduDelivered { .. })));
}

#[test]
fn serial_receive_with_always_on_obs_is_allocation_free() {
    // The tentpole bar: arming production telemetry — sharded counters,
    // flight recorder, non-verbose events — must not reintroduce a single
    // steady-state allocation on the serial receive path.
    let packets = stream(1);
    let total_tpdus = MESSAGE_LEN / TPDU_ELEMENTS as usize + 2;
    let warmup = packets.len() / 4;

    let sink = Recorder::shared();
    let mut rx = Receiver::new(
        DeliveryMode::Immediate,
        params(1),
        layout(),
        capacity_elements(),
    );
    rx.set_obs(ShardSink::wrap(sink.clone()));
    rx.reserve(total_tpdus + 8, total_tpdus * 4 + 64);
    let mut out = Vec::with_capacity(total_tpdus * 4 + 64);

    const BATCH: usize = 16;
    for (i, batch) in packets[..warmup].chunks(BATCH).enumerate() {
        rx.ingest_batch(batch, i as u64, &mut out);
    }

    let measured = &packets[warmup..];
    let measured_chunks = chunk_count(measured);
    let before = alloc_count::allocs();
    for (i, batch) in measured.chunks(BATCH).enumerate() {
        assert_no_alloc!(
            rx.ingest_batch(batch, (warmup + i) as u64, &mut out),
            "serial obs-on batch {i}"
        );
    }
    let allocs = alloc_count::allocs() - before;
    assert_eq!(allocs, 0, "obs-on allocs/chunk must be 0/{measured_chunks}");

    // The telemetry was really on: the shard block saw the hot path.
    assert_eq!(rx.verified_prefix(), MESSAGE_LEN as u64);
    let snap = sink.snapshot();
    assert!(snap.counter("transport.rx.chunks_accepted") > 0);
    assert!(snap.counter("transport.rx.tpdus_delivered") > 0);
}

#[test]
fn duplicated_and_recut_chunks_are_rejected_without_allocating() {
    // The duplicate path is the one an attacker chooses. Every TPDU arrives
    // as a head fragment, then the whole chunk again (the head overlaps, the
    // rest is extracted and accepted), then the same data re-cut at another
    // point (all of it held by now), and only then its ED chunk.
    use chunks::transport::Framer;
    use chunks_core::frag::split;

    let message: Vec<u8> = (0..MESSAGE_LEN).map(|i| (i * 13 + 5) as u8).collect();
    let tpdus = Framer::new(params(1), layout()).frame_simple(&message, 1, false);
    let mut arrivals = Vec::new();
    for t in &tpdus {
        let [whole] = &t.chunks[..] else {
            panic!("one data chunk per TPDU");
        };
        let (head, _) = split(whole, 20).unwrap();
        let (recut_a, recut_b) = split(whole, 40).unwrap();
        arrivals.extend([head, whole.clone(), recut_a, recut_b, t.ed.clone()]);
    }

    let mut rx = Receiver::new(
        DeliveryMode::Immediate,
        params(1),
        layout(),
        capacity_elements(),
    );
    rx.reserve(tpdus.len() + 8, tpdus.len() * 4 + 64);
    let mut out = Vec::with_capacity(tpdus.len() * 4 + 64);
    let warmup = arrivals.len() / 4;
    let mut arrivals = arrivals.into_iter().enumerate();
    for (i, chunk) in arrivals.by_ref().take(warmup) {
        rx.handle_chunk_into(chunk, i as u64, &mut out);
    }
    let before = rx.stats.duplicate_chunks;
    for (i, chunk) in arrivals {
        assert_no_alloc!(
            rx.handle_chunk_into(chunk, i as u64, &mut out),
            "arrival {i}"
        );
    }
    assert!(rx.stats.duplicate_chunks - before > tpdus.len() as u64);
    assert_eq!(rx.stats.overlap_conflicts, 0);
    assert_eq!(rx.stats.tpdus_failed, 0);
    assert_eq!(rx.verified_prefix(), MESSAGE_LEN as u64);
    assert_eq!(&rx.app_data()[..MESSAGE_LEN], &message[..]);
}

/// One connection's stream cut small — TPDUs of 512 elements over 256-byte
/// packets, so each spans three packets — with the packets reversed in
/// blocks of five: fragments arrive ahead of the ones before them.
fn disordered_stream() -> Vec<Packet> {
    let mut tx = Sender::new(SenderConfig {
        params: ConnectionParams {
            tpdu_elements: 512,
            ..params(1)
        },
        layout: layout(),
        mtu: 256,
        min_tpdu_elements: 2,
        max_tpdu_elements: 512,
    });
    let message: Vec<u8> = (0..MESSAGE_LEN).map(|i| (i * 7 + 3) as u8).collect();
    tx.submit_simple(&message, 1, false);
    let mut packets = tx.packets_for_pending().expect("clean stream packs");
    for block in packets.chunks_mut(5) {
        block.reverse();
    }
    packets
}

/// Feeds `packets` (a reordering of [`disordered_stream`]) to a fresh
/// receiver in `mode`, warm-up quarter first, and requires every later
/// batch to allocate nothing; returns the receiver once the whole message
/// has verified and nothing is left staged.
fn disordered_leg(mode: DeliveryMode, packets: &[Packet]) -> Receiver {
    let total_tpdus = MESSAGE_LEN / 512 + 2;
    let warmup = packets.len() / 4;
    let mut rx = Receiver::new(mode, params(1), layout(), capacity_elements());
    rx.reserve(total_tpdus + 8, packets.len() * 4 + 64);
    let mut out = Vec::with_capacity(total_tpdus * 4 + 64);
    const BATCH: usize = 16;
    for (i, batch) in packets[..warmup].chunks(BATCH).enumerate() {
        rx.ingest_batch(batch, i as u64, &mut out);
    }
    let measured = &packets[warmup..];
    for (i, batch) in measured.chunks(BATCH).enumerate() {
        assert_no_alloc!(
            rx.ingest_batch(batch, (warmup + i) as u64, &mut out),
            "{mode:?} batch {i}"
        );
    }
    assert!(chunk_count(measured) > 100, "measured window too small");
    assert_eq!(rx.verified_prefix(), MESSAGE_LEN as u64, "{mode:?}");
    assert_eq!(rx.stats.buffered_bytes, 0, "{mode:?} left bytes staged");
    rx
}

#[test]
fn serial_staging_modes_are_allocation_free_on_disordered_arrivals() {
    // Reorder stages whatever lands ahead of the delivery cursor and
    // Reassemble stages every fragment until its TPDU verifies; both make
    // an owned chunk — a slice of the packet — for what they hold, and
    // neither may allocate once warm.
    for mode in [DeliveryMode::Reorder, DeliveryMode::Reassemble] {
        let rx = disordered_leg(mode, &disordered_stream());
        assert!(rx.stats.peak_buffered_bytes > 0, "{mode:?} staged nothing");
    }
}

#[test]
fn immediate_virtual_reassembly_is_allocation_free_on_disordered_arrivals() {
    // Immediate places every byte on arrival and stages nothing, so the
    // disorder lands on virtual reassembly alone: a fragment that arrives
    // before the ones ahead of it is a coalesce in front of a recycled
    // group's held range. Interleaving each reversed block (4 2 0 3 1)
    // leaves gaps too, so fragments are also inserted mid-set and bridge
    // two ranges. None of it may allocate once warm.
    let reversed = disordered_stream();
    let interleaved: Vec<Packet> = reversed
        .chunks(5)
        .flat_map(|block| {
            [0, 2, 4, 1, 3]
                .into_iter()
                .filter_map(|i| block.get(i).cloned())
        })
        .collect();
    for packets in [reversed, interleaved] {
        let rx = disordered_leg(DeliveryMode::Immediate, &packets);
        assert_eq!(rx.stats.peak_buffered_bytes, 0, "Immediate staged bytes");
    }
}

#[test]
fn reserve_sizes_the_reorder_queue_in_reorder_mode_alone() {
    // Reorder is the one mode that stages by element; Immediate places every
    // byte and Reassemble stages per group. The same `reserve` must leave
    // the two without the queue: at least `f` of its entries fewer bytes.
    let (t, f) = (64, 4096);
    let reserved = |mode| {
        let mut rx = Receiver::new(mode, params(1), layout(), capacity_elements());
        let held = || alloc_count::requested_bytes() - alloc_count::released_bytes();
        let before = held();
        rx.reserve(t, f);
        held() - before
    };
    let reorder = reserved(DeliveryMode::Reorder);
    let immediate = reserved(DeliveryMode::Immediate);
    assert_eq!(immediate, reserved(DeliveryMode::Reassemble));
    let entry = std::mem::size_of::<(u64, (chunks_core::chunk::Chunk, u64))>() as u64;
    assert!(
        reorder - immediate >= f as u64 * entry,
        "reorder {reorder} B, immediate {immediate} B, {f} entries of {entry} B"
    );
}

#[test]
fn a_reserved_connection_requests_its_ring_and_at_most_400_bytes_more() {
    // The ledger's `many-flows-lossy` connection: an Immediate receiver of
    // 8 KiB plus four 1 KiB TPDUs of application space, reserved for 16
    // TPDUs in 96 runs. Past its ring it may request 16 delivered records
    // (24 B) and the 16 B of its observability handle: 400 B. The
    // open-group table grows with the groups that arrivals open, so
    // `reserve` sets no slot aside; which TPDU owns an element is read off
    // the records, so the runs size nothing in Immediate mode.
    let capacity = 12_288;
    let held = || alloc_count::requested_bytes() - alloc_count::released_bytes();
    let before = held();
    let mut rx = Receiver::new(DeliveryMode::Immediate, params(1), layout(), capacity);
    rx.reserve(16, 96);
    let extra = held() - before - capacity;
    assert!(extra <= 400, "{extra} B past the ring");
    drop(rx);
}

#[test]
fn the_worst_disorder_allocates_its_open_high_water_once_and_never_when_warm() {
    // Every TPDU's second half arrives before any first half, so all of the
    // message's TPDUs are open at once before the first completes: the most
    // groups a stream can hold open. The first pass may allocate for that
    // high-water and nothing else: for `n` open groups, `n` shells (each
    // interval set's first run) and fewer than ⌈log₂ n⌉ doublings each of
    // the slot table and its start-ordered list, `n + 2⌈log₂ n⌉` in all
    // (530 for the 512 TPDUs here). A quiesced receiver keeps all of it, so
    // the same stream replayed must not allocate at all.
    use chunks::transport::{Framer, RxEvent};
    use chunks_core::frag::split;

    let message: Vec<u8> = (0..MESSAGE_LEN).map(|i| (i * 11 + 1) as u8).collect();
    let tpdus = Framer::new(params(1), layout()).frame_simple(&message, 1, false);
    let n = tpdus.len();
    let (mut tails, mut heads) = (Vec::new(), Vec::new());
    for t in &tpdus {
        let [whole] = &t.chunks[..] else {
            panic!("one data chunk per TPDU");
        };
        let (head, tail) = split(whole, whole.header.len / 2).unwrap();
        tails.push(tail);
        heads.extend([head, t.ed.clone()]);
    }

    let mut rx = Receiver::new(
        DeliveryMode::Immediate,
        params(1),
        layout(),
        capacity_elements(),
    );
    rx.reserve(n, 0);
    let mut out = Vec::with_capacity(4 * n);
    let (first_tails, first_heads) = (tails.clone(), heads.clone());
    let before = alloc_count::allocs();
    for (i, chunk) in first_tails.into_iter().enumerate() {
        rx.handle_chunk_into(chunk, i as u64, &mut out);
    }
    let mut first_pass = alloc_count::allocs() - before;
    // Every TPDU is open, each missing its first half, and none delivered.
    let ack = rx.make_ack();
    assert_eq!((ack.cumulative, ack.gaps.len()), (0, n), "all {n} open");
    assert!(out.is_empty(), "{out:?}");
    let before = alloc_count::allocs();
    for (i, chunk) in first_heads.into_iter().enumerate() {
        rx.handle_chunk_into(chunk, (n + i) as u64, &mut out);
    }
    first_pass += alloc_count::allocs() - before;
    let delivered = |out: &[RxEvent]| {
        out.iter()
            .filter(|e| matches!(e, RxEvent::TpduDelivered { .. }))
            .count()
    };
    assert_eq!(delivered(&out), n);
    assert_eq!(rx.verified_prefix(), MESSAGE_LEN as u64);
    let bound = n as u64 + 2 * u64::from(n.next_power_of_two().trailing_zeros());
    assert!(first_pass <= bound, "first pass: {first_pass} > {bound}");

    rx.quiesce();
    out.clear();
    for (i, chunk) in tails.iter().chain(&heads).enumerate() {
        let chunk = chunk.clone();
        assert_no_alloc!(
            rx.handle_chunk_into(chunk, i as u64, &mut out),
            "warm arrival {i}"
        );
    }
    assert_eq!(delivered(&out), n);
    assert_eq!(rx.verified_prefix(), MESSAGE_LEN as u64);
    assert_eq!(&rx.app_data()[..MESSAGE_LEN], &message[..]);
}

#[test]
fn demux_ingest_over_interleaved_connections_is_allocation_free() {
    // The serial many-connection front-end: `ConnectionDemux::ingest` routes
    // each chunk of a shared packet to its connection's receiver.
    const CONNS: u32 = 3;
    let packets = interleaved(CONNS);
    let total_tpdus = MESSAGE_LEN / TPDU_ELEMENTS as usize + 2;
    let mut demux = ConnectionDemux::new();
    for id in 1..=CONNS {
        let mut rx = Receiver::new(
            DeliveryMode::Immediate,
            params(id),
            layout(),
            capacity_elements(),
        );
        rx.reserve(total_tpdus + 8, total_tpdus * 4 + 64);
        demux.register(id, rx);
    }
    let mut events = Vec::with_capacity((total_tpdus * 4 + 64) * CONNS as usize);
    let warmup = packets.len() / 4;
    for (i, packet) in packets[..warmup].iter().enumerate() {
        demux.ingest(packet, i as u64, &mut events);
    }
    let measured = &packets[warmup..];
    for (i, packet) in measured.iter().enumerate() {
        assert_no_alloc!(
            demux.ingest(packet, (warmup + i) as u64, &mut events),
            "demux packet {i}"
        );
    }
    assert!(chunk_count(measured) > 100, "measured window too small");
    for id in 1..=CONNS {
        let rx = demux.receiver(id).expect("registered");
        assert_eq!(rx.verified_prefix(), MESSAGE_LEN as u64, "conn {id}");
    }
}

/// Round-robin interleave of the three connections' streams, as a shared
/// link would deliver them.
fn interleaved(conns: u32) -> Vec<Packet> {
    let streams: Vec<Vec<Packet>> = (1..=conns).map(stream).collect();
    let longest = streams.iter().map(Vec::len).max().unwrap();
    let mut packets: Vec<Packet> = Vec::new();
    for i in 0..longest {
        for s in &streams {
            if let Some(p) = s.get(i) {
                packets.push(p.clone());
            }
        }
    }
    packets
}

/// One spec per connection `1..=conns`, matching [`stream`]'s senders.
fn specs(conns: u32) -> Vec<ConnSpec> {
    (1..=conns)
        .map(|id| {
            ConnSpec::new(
                params(id),
                layout(),
                DeliveryMode::Immediate,
                capacity_elements(),
            )
        })
        .collect()
}

#[test]
fn parallel_receive_steady_state_is_allocation_free() {
    const CONNS: u32 = 3;
    const WORKERS: usize = 4;

    let packets = interleaved(CONNS);
    let mut pr = ParallelReceiver::new(WORKERS, Engine::Virtual(Schedule::Fair), specs(CONNS));

    let total_tpdus = (MESSAGE_LEN / TPDU_ELEMENTS as usize + 2) * CONNS as usize;
    pr.reserve(total_tpdus + 8, total_tpdus * 4 + 64);

    const BATCH: usize = 16;
    let warmup = packets.len() / 4;
    for (i, batch) in packets[..warmup].chunks(BATCH).enumerate() {
        pr.ingest_batch(batch, i as u64);
        pr.drain();
    }

    let measured = &packets[warmup..];
    let measured_chunks = chunk_count(measured);
    let before = alloc_count::allocs();
    for (i, batch) in measured.chunks(BATCH).enumerate() {
        assert_no_alloc!(
            {
                pr.ingest_batch(batch, (warmup + i) as u64);
                pr.drain();
            },
            "parallel batch {i}"
        );
    }
    let allocs = alloc_count::allocs() - before;
    assert_eq!(allocs, 0, "allocs/chunk must be 0/{measured_chunks}");
    assert!(measured_chunks > 100, "measured window too small to matter");

    let out = pr.finish();
    assert_eq!(out.dispatch.decode_errors, 0);
    assert_eq!(out.dispatch.bad_packets, 0);
    for id in 1..=CONNS {
        assert_eq!(
            out.conns[&id].receiver.verified_prefix(),
            MESSAGE_LEN as u64,
            "conn {id} must fully verify"
        );
    }
}

#[test]
fn parallel_threads_dispatch_is_allocation_free() {
    const CONNS: u32 = 3;
    const WORKERS: usize = 2;
    // Each worker's batch buffers come back to the dispatcher in turn, 34 of
    // them (the work queue's depth plus two), and a buffer reaches its
    // working size the first time it is filled. Forty warm-up batches of
    // twice the measured size put every one of them past what the measured
    // window asks of it.
    const WARMUP_BATCH: usize = 6;
    const WARMUP_BATCHES: usize = 40;
    const BATCH: usize = WARMUP_BATCH / 2;

    let packets = interleaved(CONNS);
    let mut pr = ParallelReceiver::new(WORKERS, Engine::Threads, specs(CONNS));
    let total_tpdus = (MESSAGE_LEN / TPDU_ELEMENTS as usize + 2) * CONNS as usize;
    pr.reserve(total_tpdus + 8, total_tpdus * 4 + 64);

    let (warmup, measured) = packets.split_at(WARMUP_BATCH * WARMUP_BATCHES);
    for (i, batch) in warmup.chunks(WARMUP_BATCH).enumerate() {
        pr.ingest_batch(batch, i as u64);
    }
    pr.sync();

    // A barrier after every measured call keeps the work queues from
    // filling: a send that finds its queue full parks the caller, and the
    // first time a thread parks on a channel std allocates the parking
    // record, which is not this crate's to avoid.
    for (i, batch) in measured.chunks(BATCH).enumerate() {
        assert_no_alloc!(
            pr.ingest_batch(batch, (WARMUP_BATCHES + i) as u64),
            "threads dispatch batch {i}"
        );
        pr.sync();
    }
    assert!(
        chunk_count(measured) > 100,
        "measured window too small to matter"
    );

    let out = pr.finish();
    assert_eq!(out.dispatch.decode_errors, 0);
    assert!(
        out.worker_chunks.iter().all(|&n| n > 0),
        "every worker took part: {:?}",
        out.worker_chunks
    );
    for id in 1..=CONNS {
        assert_eq!(
            out.conns[&id].receiver.verified_prefix(),
            MESSAGE_LEN as u64,
            "conn {id} must fully verify"
        );
    }
}

#[test]
fn parallel_receive_with_always_on_obs_is_allocation_free() {
    const CONNS: u32 = 3;
    const WORKERS: usize = 4;

    let packets = interleaved(CONNS);
    let sink = Recorder::shared();
    let mut pr = ParallelReceiver::new_with_obs(
        WORKERS,
        Engine::Virtual(Schedule::Fair),
        specs(CONNS),
        sink.clone(),
    );

    let total_tpdus = (MESSAGE_LEN / TPDU_ELEMENTS as usize + 2) * CONNS as usize;
    pr.reserve(total_tpdus + 8, total_tpdus * 4 + 64);

    const BATCH: usize = 16;
    let warmup = packets.len() / 4;
    for (i, batch) in packets[..warmup].chunks(BATCH).enumerate() {
        pr.ingest_batch(batch, i as u64);
        pr.drain();
    }

    let measured = &packets[warmup..];
    let measured_chunks = chunk_count(measured);
    let before = alloc_count::allocs();
    for (i, batch) in measured.chunks(BATCH).enumerate() {
        assert_no_alloc!(
            {
                pr.ingest_batch(batch, (warmup + i) as u64);
                pr.drain();
            },
            "parallel obs-on batch {i}"
        );
    }
    let allocs = alloc_count::allocs() - before;
    assert_eq!(allocs, 0, "obs-on allocs/chunk must be 0/{measured_chunks}");

    let out = pr.finish();
    for id in 1..=CONNS {
        assert_eq!(
            out.conns[&id].receiver.verified_prefix(),
            MESSAGE_LEN as u64,
            "conn {id} must fully verify"
        );
    }
    // The telemetry was really on, sharded per worker plus the dispatcher.
    assert!(sink.shard_count() >= WORKERS);
    let snap = sink.snapshot();
    assert!(snap.counter("transport.parallel.packets") > 0);
    assert!(snap.counter("transport.rx.chunks_accepted") > 0);
}

#[test]
fn transmit_side_touches_the_heap_once_per_submit_and_retains_the_wire_image() {
    // The transmit side of the one-pass claim: `submit` writes every packet
    // it builds back to back into one buffer, sized beforehand by a dry run
    // over the labels, and keeps that buffer, a 4-byte end per packet and a
    // 24-byte record per TPDU as the retransmission store. So it asks the
    // heap for the same handful of things however many packets it makes,
    // the only payload-sized memory is that one buffer, the sender holds
    // the wire image once, and handing the packets out is a list of
    // handles. Two shapes: 8 KiB
    // TPDUs at MTU 9000 (`bulk-clean`'s) and 512-element TPDUs at MTU 576
    // (`small-frag`'s), each at two message sizes. At the first only the
    // last packet closes short, so every packet boundary cuts one chunk in
    // two.
    let bulk = [1 << 20, 1 << 18].map(|len| transmit_leg(8 << 10, 9000, 1.02, len));
    let frag = [1 << 20, 1 << 18].map(|len| transmit_leg(512, 576, 1.2, len));
    assert_eq!(bulk[0].short, 1);
    let allocs = bulk.iter().chain(&frag).map(|leg| leg.allocs);
    println!(
        "submit allocations: {:?}",
        allocs.clone().collect::<Vec<_>>()
    );
    // Six: the buffer and its shared owner, and exactly sized lists of the
    // store's buffers, the packets' ends in the buffer, the records and
    // the starts.
    assert!(
        allocs.clone().all(|n| n == bulk[0].allocs),
        "a submit's allocations depend on its packet count"
    );
    assert_eq!(bulk[0].allocs, 6, "allocations in a submit");
}

/// What a [`transmit_leg`] saw.
struct TransmitLeg {
    /// Allocations `submit` made.
    allocs: u64,
    /// Packets that closed short of the MTU.
    short: u64,
}

/// A `message`-byte submit of `tpdu`-element TPDUs at `mtu`, whose sender
/// and handed-out packets may hold `bound` × the wire bytes.
fn transmit_leg(tpdu: u32, mtu: usize, bound: f64, message: usize) -> TransmitLeg {
    let message: Vec<u8> = (0..message).map(|i| (i * 31 + 7) as u8).collect();
    let cfg = SenderConfig {
        params: ConnectionParams {
            tpdu_elements: tpdu,
            ..params(1)
        },
        layout: layout(),
        mtu,
        min_tpdu_elements: 64,
        max_tpdu_elements: tpdu,
    };
    // A throwaway pass first: the field's lazily built tables are the
    // process's, not this submit's.
    Sender::new(cfg).submit_simple(&message, 1, false);
    let mut tx = Sender::new(cfg);

    let held_before = alloc_count::requested_bytes() - alloc_count::released_bytes();
    let (allocs_before, requested_before) = (alloc_count::allocs(), alloc_count::requested_bytes());
    let tpdus = tx.submit_simple(&message, 1, false).len() as u64;
    let submit_allocs = alloc_count::allocs() - allocs_before;
    let submit_requested = alloc_count::requested_bytes() - requested_before;

    // (a) The first transmission is the packets `submit` built: one
    // allocation, the list of handles.
    let before = alloc_count::allocs();
    let packets = tx.packets_for_pending().expect("clean stream packs");
    assert_eq!(alloc_count::allocs() - before, 1, "the handle list");

    let wire: usize = packets.iter().map(Packet::len).sum();
    assert_eq!(tx.retained_wire_bytes(), wire);
    assert_eq!(tpdus, (message.len() as u64).div_ceil(tpdu as u64));
    // A data and an ED chunk per TPDU, and one more for each packet that
    // filled to the MTU: the boundary after it cuts one chunk in two. A
    // packet closes short when the next chunk does not start in it.
    let short = packets.iter().filter(|p| p.len() < mtu).count() as u64;
    assert_eq!(
        chunk_count(&packets),
        2 * tpdus + packets.len() as u64 - short
    );
    // One buffer: each packet starts where the one before it ends.
    for pair in packets.windows(2) {
        assert_eq!(pair[0].bytes.as_ptr_range().end, pair[1].bytes.as_ptr());
    }

    // (b) No second copy of the payload, however briefly: beyond the one
    // buffer, exactly the wire bytes, `submit` asks for labels only — per
    // packet its 4-byte end in the buffer (no handle: a packet is sliced
    // out when it is read), per TPDU a 24-byte record and an 8-byte start,
    // and a few hundred bytes of fixed state.
    println!(
        "{tpdus} TPDUs, {} packets ({short} short), {submit_allocs} allocations",
        packets.len()
    );
    let bookkeeping = submit_requested - wire as u64;
    let labels = 8 * packets.len() as u64 + 32 * tpdus + 1024;
    println!("{bookkeeping} B requested beyond the packet buffer, {labels} B allowed");
    assert!(
        bookkeeping < labels,
        "{bookkeeping} B requested beyond the packet buffer, {labels} B allowed"
    );

    // (c) Sender and handed-out packets together hold the wire image once,
    // plus per packet a 24-byte handle in the list handed out and a 4-byte
    // end in the store, and per TPDU a 24-byte record.
    let held = alloc_count::requested_bytes() - alloc_count::released_bytes() - held_before;
    println!(
        "{held} B held for {wire} B on the wire: {:.4}",
        held as f64 / wire as f64
    );
    assert!(
        (wire as f64..=bound * wire as f64).contains(&(held as f64)),
        "{held} B held for {wire} B on the wire"
    );
    TransmitLeg {
        allocs: submit_allocs,
        short,
    }
}

#[test]
fn a_warm_sender_transmits_its_next_submit_from_the_buffer_its_last_one_freed() {
    // A sender keeps a handle on its last submit's buffer. Once every
    // packet of it is acknowledged and dropped, that handle is the only
    // one, and the next submit of the same size is written into it: no
    // packet buffer is allocated. While a packet of it is still held
    // anywhere, the buffer is left alone and the next submit gets a fresh
    // one, so no handed-out packet ever changes under its holder.
    const MESSAGE: usize = 256 << 10;
    let cfg = SenderConfig {
        params: ConnectionParams {
            tpdu_elements: 1024,
            ..params(1)
        },
        layout: layout(),
        mtu: 1500,
        min_tpdu_elements: 64,
        max_tpdu_elements: 1024,
    };
    let message = |pass: usize| -> Vec<u8> {
        (0..MESSAGE)
            .map(|i| (i * 29 + pass * 7 + 3) as u8)
            .collect()
    };
    let mut tx = Sender::new(cfg);
    let mut rx = Receiver::new(
        DeliveryMode::Immediate,
        cfg.params,
        layout(),
        3 * MESSAGE as u64,
    );
    let mut events = Vec::new();
    let mut acked = 0;
    let mut buffers = Vec::new();
    // Pass 1 reuses pass 0's buffer; pass 2 finds a packet of pass 1 still
    // held and must not.
    let mut kept = None;
    for pass in 0..3 {
        let data = message(pass);
        let (allocs, requested) = (alloc_count::allocs(), alloc_count::requested_bytes());
        tx.submit_simple(&data, 1, false);
        let (allocs, requested) = (
            alloc_count::allocs() - allocs,
            alloc_count::requested_bytes() - requested,
        );
        let packets = tx.packets_for_pending().expect("clean stream packs");
        let wire: usize = packets.iter().map(Packet::len).sum();
        println!("pass {pass}: {allocs} allocations, {requested} B requested for {wire} B");
        buffers.push(packets[0].bytes.as_ptr());
        match pass {
            1 => {
                assert_eq!(buffers[1], buffers[0], "written into the freed buffer");
                assert!(
                    requested < wire as u64 / 16,
                    "{requested} B requested: a packet buffer was allocated"
                );
            }
            2 => {
                assert_ne!(
                    buffers[2], buffers[1],
                    "a held packet's buffer is left alone"
                );
                assert!(requested >= wire as u64, "a fresh buffer");
            }
            _ => {}
        }
        for p in &packets {
            rx.handle_packet_into(p, 0, &mut events);
        }
        if pass == 1 {
            kept = Some((packets[3].clone(), packets[3].bytes.to_vec()));
        }
        drop(packets);
        acked += MESSAGE as u64;
        let ack = rx.make_ack();
        assert_eq!(ack.cumulative, acked, "pass {pass} delivered");
        tx.handle_ack(&ack);
        assert_eq!(tx.retained_wire_bytes(), 0);
    }
    let delivered = rx.app_data();
    for pass in 0..3 {
        assert_eq!(
            delivered[pass * MESSAGE..][..MESSAGE],
            message(pass)[..],
            "pass {pass}"
        );
    }
    // The packet held across pass 2 still reads what pass 1 sent.
    let (kept, sent) = kept.expect("kept a packet");
    assert_eq!(kept.bytes, sent, "the held packet changed");
}

#[test]
fn a_repair_transmits_its_packets_from_one_buffer_whatever_their_count() {
    // `retransmit_for_ack` runs the repair walk twice: on a measuring
    // builder, which counts the packets and their bytes, then into one
    // buffer of exactly that size, as `submit` does. So a repair of about
    // 100 packets and one of about 200 ask the heap for the same things:
    // the buffer and its shared owner, the list of the packets' ends in it,
    // the list of packets handed out, and the two scratch lists of the
    // pieces read back off the wire, which both runs share.
    let repair = |message: usize| {
        let cfg = SenderConfig {
            params: ConnectionParams {
                tpdu_elements: 512,
                ..params(1)
            },
            layout: layout(),
            mtu: NET_MTU,
            min_tpdu_elements: 64,
            max_tpdu_elements: 512,
        };
        let mut tx = Sender::new(cfg);
        let mut rx = Receiver::new(
            DeliveryMode::Immediate,
            cfg.params,
            layout(),
            message as u64 + 4096,
        );
        let data: Vec<u8> = (0..message).map(|i| (i * 17 + 1) as u8).collect();
        tx.submit_simple(&data, 1, false);
        // Every third packet is lost: every TPDU reports a gap, some the
        // missing ED chunk too.
        let mut events = Vec::new();
        let sent = tx.packets_for_pending().expect("clean stream packs");
        for p in sent.iter().skip(1).step_by(3) {
            rx.handle_packet_into(p, 0, &mut events);
        }
        for p in sent.iter().step_by(3) {
            rx.handle_packet_into(p, 0, &mut events);
        }
        let ack = rx.make_ack();
        assert!(!ack.gaps.is_empty());
        let before = alloc_count::allocs();
        let packets = tx.retransmit_for_ack(&ack).expect("repairs pack");
        let allocs = alloc_count::allocs() - before;
        for pair in packets.windows(2) {
            assert_eq!(
                pair[0].bytes.as_ptr_range().end,
                pair[1].bytes.as_ptr(),
                "written back to back into one buffer"
            );
        }
        (packets.len(), allocs)
    };
    let (small, large) = (repair(96 << 10), repair(192 << 10));
    println!(
        "repairs of {} and {} packets: {} and {} allocations",
        small.0, large.0, small.1, large.1
    );
    assert!(
        small.0 >= 64 && large.0 >= 2 * small.0 - 2,
        "{small:?} {large:?}"
    );
    assert_eq!(
        small.1, large.1,
        "a repair's allocations depend on its packet count"
    );
    assert_eq!(small.1, 6, "allocations in a repair");
}

/// MTU of the network legs: the ledger's `small-frag` shape.
const NET_MTU: usize = 576;

/// `count` sender-built frames of at most [`NET_MTU`] bytes, a microsecond
/// apart: handles on the sender's one buffer. The first `count - 1` are
/// full; the last is the message's short last packet, which a refragmenting
/// router holds until the run flushes it.
fn network_inputs(count: usize) -> Vec<(u64, Bytes)> {
    let mut tx = Sender::new(SenderConfig {
        params: ConnectionParams {
            tpdu_elements: 512,
            ..params(1)
        },
        layout: layout(),
        mtu: NET_MTU,
        min_tpdu_elements: 2,
        max_tpdu_elements: 512,
    });
    let message: Vec<u8> = (0..count * (NET_MTU - 40))
        .map(|i| (i * 13 + 5) as u8)
        .collect();
    tx.submit_simple(&message, 1, false);
    let mut packets = tx.packets_for_pending().expect("clean stream packs");
    assert!(packets.len() >= count);
    let last = packets.pop().expect("a packet");
    packets.truncate(count - 1);
    packets.push(last);
    packets
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u64 * 1_000, p.bytes))
        .collect()
}

/// Allocations made and bytes requested by one `Path::run`, how far the
/// thread's heap rose above where the run left it, and what it delivered.
fn measured_run(
    profile: chunks::netsim::Profile,
    inputs: Vec<(u64, Bytes)>,
) -> (u64, u64, i64, Vec<chunks::netsim::path::Delivery>) {
    let mut path = profile.build(NET_MTU, 0xA110C);
    let (allocs, requested) = (alloc_count::allocs(), alloc_count::requested_bytes());
    alloc_count::reset_high_water();
    let deliveries = path.run(inputs);
    (
        alloc_count::allocs() - allocs,
        alloc_count::requested_bytes() - requested,
        alloc_count::high_water_bytes() - alloc_count::held_bytes(),
        deliveries,
    )
}

#[test]
fn network_copies_each_byte_once_and_links_move_frames() {
    use chunks::netsim::Profile;

    const FRAMES: usize = 2048;
    let inputs = network_inputs(FRAMES);
    let twice = network_inputs(2 * FRAMES);
    let wire = |inputs: &[(u64, Bytes)]| inputs.iter().map(|f| f.1.len() as u64).sum::<u64>();

    // (a) Through the refragmenting router, 576 -> 176 bytes. Per full
    // ingress frame one emission of four egress frames, 672 bytes; the
    // router measures emissions until they reach 64 KiB (98 of them), then
    // writes that window into one buffer of exactly its bytes — the single
    // copy of the payload — with the shared owner that makes it `Bytes`.
    // The 2047 full frames make 21 windows; the short last packet waits in
    // the router until the run flushes it, as a 22nd window of one frame.
    // Per run besides: the router's lists, grown to a window's frames,
    // chunks and ends (27), one departure list a hop, the narrow hop's
    // doubling twice, and the flush's three lists (8).
    let (allocs, requested, _, deliveries) = measured_run(Profile::Fragmenting, inputs.clone());
    let egress = deliveries.len() as u64;
    assert_eq!(egress, 4 * (FRAMES as u64 - 1) + 1);
    println!(
        "fragmenting: {allocs} allocations, {requested} B requested for {} B in",
        wire(&inputs)
    );
    const WINDOWS: u64 = 22;
    assert_eq!(
        allocs,
        2 * WINDOWS + 27 + 8,
        "{allocs} allocations for {FRAMES} frames in, {egress} out"
    );
    // Egress buffers hold exactly the wire bytes out (1.15 x the wire bytes
    // in: every piece gets its own 32-byte label). The rest is lists of
    // 32-byte handles: the first hop's departures, then the narrow hop's,
    // doubling from the frames in to four times that (1 + 2 + 4), and the
    // flush's lists of one handle; the router's lists of a window; and a
    // 40-byte shared owner a window. The flushed frame lands after the
    // rest, so merging it copies no list (a stable sort's scratch would be
    // four lists more).
    let wire_out: u64 = deliveries.iter().map(|d| d.frame.len() as u64).sum();
    let handles = 8 * 32 * FRAMES as u64 + 84 * 1024;
    assert!(
        requested >= wire_out && requested - wire_out < handles,
        "{requested} B requested for {wire_out} B of wire out"
    );
    // The frames of a window lie back to back in its buffer: the run of
    // deliveries breaks only where one window's buffer ends.
    let breaks = deliveries
        .windows(2)
        .filter(|pair| pair[0].frame.bytes.as_ptr_range().end != pair[1].frame.bytes.as_ptr())
        .count() as u64;
    assert_eq!(breaks, WINDOWS - 1, "frames of one window in one buffer");

    // (b) A link moves frames: no per-frame allocation, no payload byte
    // requested. What a run asks for is one departure list of handles, and
    // on a disordering path the stable sort's scratch; the handles offered
    // are the handles delivered.
    for (profile, lists) in [
        (Profile::Clean, 1),
        (Profile::Reorder, 2),
        (Profile::MultipathLossy, 2),
    ] {
        let offered = inputs.clone();
        let buffers: std::collections::BTreeSet<*const u8> =
            offered.iter().map(|f| f.1.as_ptr()).collect();
        let (allocs, requested, _, deliveries) = measured_run(profile, offered);
        let (allocs_twice, _, _, _) = measured_run(profile, twice.clone());
        assert_eq!(allocs, lists, "{}", profile.name());
        assert_eq!(
            allocs_twice,
            allocs,
            "{}: grows with the frame count",
            profile.name()
        );
        assert!(
            requested <= lists * 32 * FRAMES as u64,
            "{}: {requested} B requested, more than {lists} list(s) of handles",
            profile.name()
        );
        assert!(deliveries.len() > FRAMES * 9 / 10);
        assert!(deliveries
            .iter()
            .all(|d| buffers.contains(&d.frame.bytes.as_ptr())));
    }
}

/// A network run's heap rises above where the run ends by at most the list
/// of handles it is consuming: an ordered list is never copied to be sorted,
/// not at a hop, not in `flush`, not where `run` merges the flushed tail.
/// Only a disordering hop's stable sort may add a second list.
#[test]
fn network_runs_keep_no_scratch_copy_of_an_ordered_list() {
    use chunks::netsim::Profile;

    const FRAMES: usize = 2048;
    let inputs = network_inputs(FRAMES);
    // The router holds the short last packet until the run flushes it.
    let mut path = Profile::Fragmenting.build(NET_MTU, 0xA110C);
    for (t, f) in inputs.clone() {
        path.transmit(t, f);
    }
    assert!(
        !path.flush(FRAMES as u64 * 1_000).is_empty(),
        "no tail held"
    );

    let list = 32 * FRAMES as i64;
    for (profile, lists) in [
        (Profile::Fragmenting, 1),
        (Profile::Clean, 1),
        (Profile::Reorder, 2),
        (Profile::MultipathLossy, 2),
    ] {
        let (_, _, rise, _) = measured_run(profile, inputs.clone());
        assert!(
            rise <= lists * list + 4096,
            "{}: the heap peaked {rise} B above the run's end, more than {lists} list(s) of handles",
            profile.name()
        );
    }
}

#[test]
fn a_warm_session_pumps_and_ingests_256_kib_in_a_handful_of_allocations() {
    // The session's control loop on the sender's and receiver's fast paths:
    // a fresh transmission leaves as the packets `submit` built (handles,
    // not copies), only the last one copied to take the ack, and the peer
    // ingests them through the receiver's packet walk into a reused event
    // list (the ack riding the last packet is decoded into a box). Both
    // sessions are warm: a first 256 KiB went through, was read and
    // released, and was acknowledged. The second is measured.
    const MESSAGE: usize = 256 << 10;
    let session = |local, remote| {
        let p = |conn_id| ConnectionParams {
            tpdu_elements: 1024,
            ..params(conn_id)
        };
        let cfg = SenderConfig {
            params: p(local),
            layout: layout(),
            mtu: 1500,
            min_tpdu_elements: 64,
            max_tpdu_elements: 1024,
        };
        Session::new(
            cfg,
            p(remote),
            layout(),
            DeliveryMode::Immediate,
            MESSAGE as u64,
        )
    };
    let (mut a, mut b) = (session(1, 2), session(2, 1));
    let message: Vec<u8> = (0..MESSAGE).map(|i| (i * 29 + 3) as u8).collect();
    let (mut out, mut events) = (Vec::new(), Vec::new());
    let mut now = 0;
    for pass in 0..2 {
        a.send(&message, 0xA, false);
        let before = alloc_count::allocs();
        a.pump_into(now, &mut out).expect("a clean pump");
        let pump_allocs = alloc_count::allocs() - before;
        let packets = out.len();
        let before = alloc_count::allocs();
        for p in &out {
            b.handle_packet_into(p, now, &mut events);
        }
        let ingest_allocs = alloc_count::allocs() - before;
        let (head, tail) = b.readable();
        assert_eq!([head, tail].concat(), message, "pass {pass}");
        b.release(MESSAGE as u64);
        out.clear();
        events.clear();
        now += 1_000_000;
        b.pump_into(now, &mut out).expect("a pure-ack pump");
        for p in &out {
            a.handle_packet_into(p, now, &mut events);
        }
        assert!(a.outbound_done(), "pass {pass}");
        out.clear();
        events.clear();
        println!("pass {pass}: {packets} packets, pump {pump_allocs}, ingest {ingest_allocs} allocations");
        if pass == 1 {
            assert!(pump_allocs <= 8, "{pump_allocs} allocations in a pump");
            assert!(ingest_allocs <= 6, "{ingest_allocs} allocations ingesting");
        }
    }
}
