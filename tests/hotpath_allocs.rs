//! The tentpole's proof obligation: the receive hot path performs **zero**
//! heap allocations per chunk in steady state — serial and parallel.
//!
//! Methodology: a warm-up phase feeds a prefix of the packet stream so every
//! pool, slab, map and buffer reaches working size (plus an explicit
//! `reserve` for the load that follows), then the measured phase replays the
//! rest of the stream under [`assert_no_alloc!`]. The counting allocator
//! wraps `System` and counts per thread, so the binary's tests may run
//! concurrently; the parallel legs run the *virtual* engine so the workers'
//! work happens on the measuring thread, and one more leg measures the
//! *threads* engine's dispatch side, which is what its caller's thread pays.

mod common;

use chunks::experiments::alloc_count::{self, CountingAlloc};
use chunks::transport::{
    ConnSpec, ConnectionDemux, ConnectionParams, DeliveryMode, Engine, ParallelReceiver, Receiver,
    Schedule, Sender, SenderConfig,
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
    // Working size for everything the stream will need, ahead of time.
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

#[test]
fn serial_staging_modes_are_allocation_free_on_disordered_arrivals() {
    // Reorder stages whatever lands ahead of the delivery cursor and
    // Reassemble stages every fragment until its TPDU verifies; both make
    // an owned chunk — a slice of the packet — for what they hold, and
    // neither may allocate once warm.
    let packets = disordered_stream();
    let total_tpdus = MESSAGE_LEN / 512 + 2;
    let warmup = packets.len() / 4;
    for mode in [DeliveryMode::Reorder, DeliveryMode::Reassemble] {
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
        assert!(rx.stats.peak_buffered_bytes > 0, "{mode:?} staged nothing");
        assert_eq!(rx.verified_prefix(), MESSAGE_LEN as u64, "{mode:?}");
        assert_eq!(rx.stats.buffered_bytes, 0, "{mode:?} left bytes staged");
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
fn transmit_side_touches_the_heap_once_per_packet_and_retains_the_wire_image() {
    // The transmit side of the one-pass claim: `submit` builds the packets
    // that leave and keeps them as the retransmission store, so the only
    // payload-sized memory it asks for is the packet buffers, the sender
    // holds the wire image once, and handing the packets out is a list of
    // handles.
    const MESSAGE: usize = 1 << 20;
    const TPDU: u32 = 8 << 10;
    const BIG_MTU: usize = 9000;
    let message: Vec<u8> = (0..MESSAGE).map(|i| (i * 31 + 7) as u8).collect();
    let cfg = SenderConfig {
        params: ConnectionParams {
            tpdu_elements: TPDU,
            ..params(1)
        },
        layout: layout(),
        mtu: BIG_MTU,
        min_tpdu_elements: 64,
        max_tpdu_elements: TPDU,
    };
    // A throwaway pass first: the field's lazily built tables are the
    // process's, not this submit's.
    Sender::new(cfg).submit_simple(&message, 1, false);
    let mut tx = Sender::new(cfg);

    let held_before = alloc_count::requested_bytes() - alloc_count::released_bytes();
    let (allocs_before, requested_before) = (alloc_count::allocs(), alloc_count::requested_bytes());
    let starts = tx.submit_simple(&message, 1, false);
    let submit_allocs = alloc_count::allocs() - allocs_before;
    let submit_requested = alloc_count::requested_bytes() - requested_before;

    // (a) The first transmission is the packets `submit` built: one
    // allocation, the list of handles.
    let before = alloc_count::allocs();
    let packets = tx.packets_for_pending().expect("clean stream packs");
    assert_eq!(alloc_count::allocs() - before, 1, "the handle list");

    let wire: usize = packets.iter().map(Packet::len).sum();
    let tpdus = starts.len() as u64;
    assert_eq!(tpdus, (MESSAGE as u64).div_ceil(TPDU as u64));
    assert_eq!(chunk_count(&packets), 2 * tpdus + packets.len() as u64 - 1);

    // (b) Per packet: its buffer, the shared owner that makes it `Bytes`,
    // and for a packet that closed short of the MTU the trim that gives the
    // slack back. Per TPDU: its list of pieces. What is left over is the
    // B-tree's nodes and the doubling of three scratch lists.
    let short = packets.iter().filter(|p| p.len() < BIG_MTU).count() as u64;
    let pinned = 2 * packets.len() as u64 + short + tpdus;
    assert!(
        (pinned..=pinned + 64).contains(&submit_allocs),
        "{submit_allocs} allocations in submit, {pinned} accounted for"
    );
    // No second copy of the payload, however briefly: beyond the packet
    // buffers (each reserved at the MTU, the short ones requested again at
    // their trimmed size) `submit` asks for bookkeeping only.
    let buffers: usize = packets
        .iter()
        .map(|p| BIG_MTU + if p.len() < BIG_MTU { p.len() } else { 0 })
        .sum();
    let bookkeeping = submit_requested - buffers as u64;
    assert!(
        bookkeeping < MESSAGE as u64 / 4,
        "{bookkeeping} B requested beyond the packet buffers"
    );

    // (c) Sender and handed-out packets together hold the wire image once.
    // The 5.4 % on top of it is labels, not payload: per TPDU a `Tpdu` and
    // its B-tree slot (~240 B at the tree's half-full nodes) and a 72-byte
    // `Chunk` per piece, per packet a 40-byte owner and two 24-byte handles.
    let held = alloc_count::requested_bytes() - alloc_count::released_bytes() - held_before;
    assert!(
        (wire as f64..=1.06 * wire as f64).contains(&(held as f64)),
        "{held} B held for {wire} B on the wire"
    );
}

/// MTU of the network legs: the ledger's `small-frag` shape.
const NET_MTU: usize = 576;

/// `count` sender-built frames of at most [`NET_MTU`] bytes, a microsecond
/// apart.
fn network_inputs(count: usize) -> Vec<(u64, Vec<u8>)> {
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
    let packets = tx.packets_for_pending().expect("clean stream packs");
    assert!(packets.len() >= count);
    packets[..count]
        .iter()
        .enumerate()
        .map(|(i, p)| (i as u64 * 1_000, p.bytes.to_vec()))
        .collect()
}

/// Allocations made and bytes requested by one `Path::run`, with what it
/// delivered.
fn measured_run(
    profile: chunks::netsim::Profile,
    inputs: Vec<(u64, Vec<u8>)>,
) -> (u64, u64, Vec<chunks::netsim::path::Delivery>) {
    let mut path = profile.build(NET_MTU, 0xA110C);
    let (allocs, requested) = (alloc_count::allocs(), alloc_count::requested_bytes());
    let deliveries = path.run(inputs);
    (
        alloc_count::allocs() - allocs,
        alloc_count::requested_bytes() - requested,
        deliveries,
    )
}

#[test]
fn network_copies_each_byte_once_and_links_move_frames() {
    use chunks::netsim::Profile;

    const FRAMES: usize = 2048;
    let inputs = network_inputs(FRAMES);
    let twice = network_inputs(2 * FRAMES);
    let wire = |inputs: &[(u64, Vec<u8>)]| inputs.iter().map(|f| f.1.len() as u64).sum::<u64>();

    // (a) Through the refragmenting router, 576 -> 176 bytes. Per ingress
    // frame: the shared owner that makes it a `Packet`, the list `ingest`
    // returns, and one buffer per egress frame (four) — the single copy of
    // the payload. Per run: the router's window list, one departure list a
    // hop, and the narrow hop's list doubling twice.
    let (allocs, requested, deliveries) = measured_run(Profile::Fragmenting, inputs.clone());
    let egress = deliveries.len() as u64;
    assert_eq!(egress, 4 * FRAMES as u64);
    assert!(
        (6 * FRAMES as u64..=6 * FRAMES as u64 + 8).contains(&allocs),
        "{allocs} allocations for {FRAMES} frames in, {egress} out"
    );
    assert!(allocs <= 2 * egress);
    // Egress buffers are reserved at the MTU (1.23 x the wire bytes in:
    // every piece gets its own 32-byte label); the rest is lists of handles.
    assert!(
        (requested as f64) < 2.1 * wire(&inputs) as f64,
        "{requested} B requested for {} B of wire in",
        wire(&inputs)
    );

    // (b) A link moves frames: no per-frame allocation, no payload byte
    // requested. What a run asks for is one departure list, and on a
    // disordering path the stable sort's scratch.
    for (profile, lists) in [
        (Profile::Clean, 1),
        (Profile::Reorder, 2),
        (Profile::MultipathLossy, 2),
    ] {
        let offered = inputs.clone();
        let buffers: std::collections::BTreeSet<*const u8> =
            offered.iter().map(|f| f.1.as_ptr()).collect();
        let (allocs, requested, deliveries) = measured_run(profile, offered);
        let (allocs_twice, _, _) = measured_run(profile, twice.clone());
        assert_eq!(allocs, lists, "{}", profile.name());
        assert_eq!(
            allocs_twice,
            allocs,
            "{}: grows with the frame count",
            profile.name()
        );
        assert!(
            (requested as f64) < 0.2 * wire(&inputs) as f64,
            "{}: {requested} B requested",
            profile.name()
        );
        // Moved, not copied: every delivered frame is the buffer it was
        // offered in.
        assert!(deliveries.len() > FRAMES * 9 / 10);
        assert!(deliveries
            .iter()
            .all(|d| buffers.contains(&d.frame.as_ptr())));
    }
}
