//! The long-stream gate: one [`Receiver`] carries a connection a thousand
//! times longer than its window (§2: connection sequence numbers "are
//! reused over time").
//!
//! A [`Sender`] stays inside the window the application has released, its
//! `C.SN` starts near `u32::MAX` so the sequence space wraps, and every
//! round crosses a lossy, reordering four-way multipath and is repaired
//! through `make_ack` → `retransmit_for_ack`. The application reads
//! `readable()` in place and releases it. In every delivery mode the stream
//! must arrive byte-exact, reading and releasing must not touch the heap,
//! and the receiver's heap must stay flat once warm: the counting
//! allocator, read around every receiver call, sees no net growth across
//! the last 900 windows.

mod common;

use chunks::core::chunk::Chunk;
use chunks::core::frag::extract;
use chunks::core::label::ChunkType;
use chunks::core::packet::{unpack, Packet};
use chunks::experiments::alloc_count::{self, CountingAlloc};
use chunks::netsim::{LinkConfig, PathBuilder};
use chunks::transport::{ConnectionParams, DeliveryMode, Receiver, Sender, SenderConfig};
use chunks::wsc::InvariantLayout;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The receive window, in one-byte elements.
const WINDOW: u64 = 1024;
/// The sender's TPDU size: the window holds eight.
const TPDU: u64 = 128;
/// Windows streamed.
const WINDOWS: u64 = 1000;
/// Windows streamed before the receiver's heap is read.
const WARM_UP: u64 = 100;

/// Byte `i` of the stream.
fn byte(i: u64) -> u8 {
    (i.wrapping_mul(0x9E37_79B9) >> 11) as u8
}

/// Runs `f`, adding the heap bytes it took and did not give back on the
/// calling thread to `held`.
fn held_by<T>(held: &mut i64, f: impl FnOnce() -> T) -> T {
    let net = || alloc_count::requested_bytes() as i64 - alloc_count::released_bytes() as i64;
    let before = net();
    let value = f();
    *held += net() - before;
    value
}

fn stream(mode: DeliveryMode) {
    let params = ConnectionParams {
        conn_id: 0x10,
        elem_size: 1,
        initial_csn: u32::MAX - 5000,
        tpdu_elements: TPDU as u32,
    };
    let layout = InvariantLayout::with_data_symbols(1024);
    let mut tx = Sender::new(SenderConfig {
        params,
        layout,
        mtu: 300,
        min_tpdu_elements: 16,
        max_tpdu_elements: TPDU as u32,
    });
    let mut rx = Receiver::new(mode, params, layout, WINDOW);
    // Room for a window's worth of TPDUs however finely they are cut:
    // sized by the window, not by the stream.
    rx.reserve((WINDOW / TPDU) as usize, WINDOW as usize);
    let lossy = LinkConfig::clean(1500, 20_000, 0).with_loss(0.02);
    let mut path = PathBuilder::new(0x5EED + mode as u64)
        .multipath(4, lossy, 15_000)
        .build();

    let total = WINDOWS * WINDOW;
    let mut events = Vec::with_capacity(4096);
    // The first window is the worst case the window allows, so that it
    // sizes every group shell the stream can need: all of its TPDUs open at
    // once, each cut into pieces of 8 that arrive evens first, then the
    // whole chunks again (the overlap path extracts the odd pieces from
    // them), then every ED chunk.
    tx.submit_simple(&(0..WINDOW).map(byte).collect::<Vec<_>>(), 0xF, false);
    let first: Vec<Chunk> = tx
        .packets_for_pending()
        .unwrap()
        .iter()
        .flat_map(|p| unpack(p).unwrap())
        .collect();
    let (eds, data): (Vec<Chunk>, Vec<Chunk>) = first
        .into_iter()
        .partition(|c| c.header.ty == ChunkType::ErrorDetection);
    let evens = data.iter().flat_map(|c| {
        (0..c.header.len)
            .step_by(16)
            .map(move |at| extract(c, at, 8.min(c.header.len - at)).unwrap())
    });
    for c in evens.collect::<Vec<_>>().into_iter().chain(data).chain(eds) {
        rx.handle_chunk_into(c, 0, &mut events);
    }
    assert_eq!(rx.verified_prefix(), WINDOW, "{mode:?} warm-up window");
    rx.release(WINDOW);

    // Then the stream, in whole TPDUs: a window never holds more than the
    // first one did.
    let (mut submitted, mut read, mut now, mut rounds) = (WINDOW, WINDOW, 0, 0);
    // Every packet stays alive to the end, so no packet buffer is ever
    // freed inside a receiver call and charged to the receiver.
    let mut kept: Vec<Packet> = Vec::new();
    let (mut held, mut warm) = (0i64, None);
    while read < total {
        rounds += 1;
        assert!(rounds < 20 * WINDOWS, "{mode:?}: stalled at {read}");
        // The sender stays inside what the application has released.
        let room = ((read + WINDOW).min(total) - submitted) / TPDU * TPDU;
        if room > 0 {
            let data: Vec<u8> = (submitted..submitted + room).map(byte).collect();
            tx.submit_simple(&data, 0xF, false);
            submitted += room;
        }
        // Repair and first transmission alike: what the report names, and
        // whole TPDUs it cannot name.
        let ack = held_by(&mut held, || rx.make_ack());
        tx.handle_ack(&ack);
        let packets = tx.retransmit_for_ack(&ack).expect("packs");
        held_by(&mut held, || drop(ack));
        let inputs = packets
            .iter()
            .enumerate()
            .map(|(i, p)| (now + i as u64 * 700, p.bytes.to_vec()))
            .collect();
        let arrived: Vec<Packet> = path
            .run(inputs)
            .into_iter()
            .map(|d| {
                now = now.max(d.time);
                Packet {
                    bytes: d.frame.into(),
                }
            })
            .collect();
        now += 1_000_000;
        events.clear();
        held_by(&mut held, || rx.ingest_batch(&arrived, now, &mut events));
        kept.extend(arrived);

        // The application reads in place and releases what it read.
        read = assert_no_alloc!(
            {
                let (head, tail) = rx.readable();
                for (k, &b) in head.iter().chain(tail).enumerate() {
                    assert_eq!(
                        b,
                        byte(read + k as u64),
                        "{mode:?} byte {}",
                        read + k as u64
                    );
                }
                rx.release((head.len() + tail.len()) as u64);
                rx.verified_prefix()
            },
            "{mode:?} read at {read}"
        );
        held_by(&mut held, || {
            for s in rx.failed_starts() {
                rx.reset_group(s);
            }
        });
        if warm.is_none() && read >= WARM_UP * WINDOW {
            warm = Some(held);
        }
    }

    assert_eq!(read, total);
    assert_eq!(rx.stats.tpdus_failed, 0, "{mode:?}");
    assert!(
        path.hops()[0].link.stats().lost > 0,
        "{mode:?}: nothing was lost"
    );
    assert!(tx.retransmissions > 0, "{mode:?}: nothing was repaired");
    assert!(
        params.initial_csn as u64 + total > 1 << 32,
        "C.SN wraps mid-stream"
    );
    let warm = warm.expect("warmed up");
    assert!(
        held <= warm,
        "{mode:?}: the receiver's heap grew by {} B over the last {} windows",
        held - warm,
        WINDOWS - WARM_UP
    );
}

#[test]
fn a_thousand_windows_through_one_receiver_immediate() {
    stream(DeliveryMode::Immediate);
}

#[test]
fn a_thousand_windows_through_one_receiver_reorder() {
    stream(DeliveryMode::Reorder);
}

#[test]
fn a_thousand_windows_through_one_receiver_reassemble() {
    stream(DeliveryMode::Reassemble);
}
