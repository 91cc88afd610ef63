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
//!
//! The session leg runs the whole protocol the same way: two [`Session`]s
//! stream a thousand windows to each other over that path — timers,
//! piggybacked acks, repair and all — each application reading
//! `readable()` in place and releasing it. Both streams must arrive
//! byte-exact, and neither session's heap, read around every call it
//! makes, may peak higher in the second half than in the first or end
//! higher than it stood half-way.

mod common;

use bytes::Bytes;
use chunks::core::chunk::Chunk;
use chunks::core::frag::extract;
use chunks::core::label::ChunkType;
use chunks::core::packet::{unpack, Packet};
use chunks::experiments::alloc_count::{self, CountingAlloc};
use chunks::netsim::{LinkConfig, Path, PathBuilder};
use chunks::transport::{
    ConnectionParams, DeliveryMode, Receiver, RxEvent, Sender, SenderConfig, Session,
};
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
            .into_iter()
            .enumerate()
            .map(|(i, p)| (now + i as u64 * 700, p.bytes))
            .collect();
        let arrived: Vec<Packet> = path
            .run(inputs)
            .into_iter()
            .map(|d| {
                now = now.max(d.time);
                d.frame
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

/// Windows the session leg streams before its heap is read: half the
/// stream. A session also holds what its peak bursts grew (the lists a pump
/// or an ack reuses), so the second half's peak is held to the first's.
const SESSION_WARM_UP: u64 = WINDOWS / 2;

/// A session's heap account: the bytes its calls took and did not give
/// back, the peak of that before and after warm-up, and its value when
/// warm-up ended.
#[derive(Default)]
struct Heap {
    held: i64,
    peak: [i64; 2],
    warm: Option<i64>,
}

impl Heap {
    /// Notes the end of a round; `warm` once warm-up is over.
    fn round(&mut self, warm: bool) {
        if warm && self.warm.is_none() {
            self.warm = Some(self.held);
        }
        let peak = &mut self.peak[self.warm.is_some() as usize];
        *peak = (*peak).max(self.held);
    }

    fn check(&self, side: &str) {
        let warm = self.warm.expect("warmed up");
        let [before, after] = self.peak;
        println!(
            "{side}: {} B held ({warm} B when warm), peak {before} B then {after} B",
            self.held
        );
        assert!(
            after <= before && self.held <= warm,
            "session {side}'s heap grew over the last {} windows: peak {before} → {after} B, \
             held {warm} → {} B",
            WINDOWS - SESSION_WARM_UP,
            self.held
        );
    }
}

/// Pumps `s` at `now` under its heap account and hands back the frames to
/// put on the wire: handles on the sender's submit buffer and on the copy
/// its pump made, which [`ship`] gives back on the same account.
fn pump_frames(s: &mut Session, now: u64, heap: &mut Heap) -> Vec<(u64, Bytes)> {
    held_by(&mut heap.held, || {
        let mut out = Vec::new();
        s.pump_into(now, &mut out).expect("the peer is reachable");
        out.into_iter()
            .enumerate()
            .map(|(i, p)| (now + i as u64 * 700, p.bytes))
            .collect()
    })
}

/// Carries a sender's `frames` across `path` to `peer`. What the frames
/// hold is the sender's memory, so the run — where a lost frame is dropped
/// — and each delivered frame's release after the peer handled it are on
/// the sender's account; the peer's holds its own call alone.
fn ship(
    path: &mut Path,
    frames: Vec<(u64, Bytes)>,
    sender: &mut Heap,
    peer: &mut Session,
    peer_heap: &mut Heap,
    events: &mut Vec<RxEvent>,
) {
    let deliveries = held_by(&mut sender.held, || path.run(frames));
    for d in &deliveries {
        let packet = d.frame.clone();
        held_by(&mut peer_heap.held, || {
            peer.handle_packet_into(&packet, d.time, events)
        });
        held_by(&mut sender.held, || drop(packet));
    }
    held_by(&mut sender.held, || drop(deliveries));
}

/// One direction of the session leg: what was sent and what was read.
#[derive(Default)]
struct Flow {
    sent: u64,
    read: u64,
}

impl Flow {
    /// Sends the next window once everything before it is acknowledged,
    /// and so read and released: the application paces the stream, as the
    /// ack carries no window.
    fn send(&mut self, s: &mut Session, total: u64, heap: &mut Heap) {
        if s.outbound_done() && self.sent < total {
            let data: Vec<u8> = (self.sent..self.sent + WINDOW).map(byte).collect();
            held_by(&mut heap.held, || s.send(&data, 0xF, false));
            self.sent += WINDOW;
        }
    }

    /// Reads everything readable in place, checks it and releases it.
    fn read(&mut self, s: &mut Session, side: &str) {
        self.read = assert_no_alloc!(
            {
                let (head, tail) = s.readable();
                for (k, &b) in head.iter().chain(tail).enumerate() {
                    let at = self.read + k as u64;
                    assert_eq!(b, byte(at), "{side} byte {at}");
                }
                let n = (head.len() + tail.len()) as u64;
                s.release(n);
                self.read + n
            },
            "{side} read at {}",
            self.read
        );
    }
}

#[test]
fn a_thousand_windows_each_way_through_two_sessions() {
    let layout = InvariantLayout::with_data_symbols(1024);
    let session = |local, remote| {
        let params = |conn_id| ConnectionParams {
            conn_id,
            elem_size: 1,
            initial_csn: u32::MAX - 5000,
            tpdu_elements: TPDU as u32,
        };
        let cfg = SenderConfig {
            params: params(local),
            layout,
            mtu: 300,
            min_tpdu_elements: 16,
            max_tpdu_elements: TPDU as u32,
        };
        Session::new(cfg, params(remote), layout, DeliveryMode::Immediate, WINDOW)
    };
    let (mut a, mut b) = (session(0x20, 0x21), session(0x21, 0x20));
    let lossy = LinkConfig::clean(1500, 20_000, 0).with_loss(0.02);
    let mut ab = PathBuilder::new(0x5E55).multipath(4, lossy, 15_000).build();
    let mut ba = PathBuilder::new(0x5E56).multipath(4, lossy, 15_000).build();

    let total = WINDOWS * WINDOW;
    let (mut to_b, mut to_a) = (Flow::default(), Flow::default());
    let (mut heap_a, mut heap_b) = (Heap::default(), Heap::default());
    let mut events = Vec::with_capacity(64);
    let (mut now, mut rounds) = (0u64, 0u64);
    // Until both streams are read and both senders have heard so.
    while to_b.read.min(to_a.read) < total || !(a.outbound_done() && b.outbound_done()) {
        rounds += 1;
        assert!(
            rounds < 20 * WINDOWS,
            "stalled at {} / {}",
            to_b.read,
            to_a.read
        );
        now += 1_000_000;
        to_b.send(&mut a, total, &mut heap_a);
        to_a.send(&mut b, total, &mut heap_b);
        let from_a = pump_frames(&mut a, now, &mut heap_a);
        let from_b = pump_frames(&mut b, now, &mut heap_b);
        ship(
            &mut ab,
            from_a,
            &mut heap_a,
            &mut b,
            &mut heap_b,
            &mut events,
        );
        ship(
            &mut ba,
            from_b,
            &mut heap_b,
            &mut a,
            &mut heap_a,
            &mut events,
        );
        // The application's events say nothing its bytes do not.
        events.clear();
        to_b.read(&mut b, "a→b");
        to_a.read(&mut a, "b→a");
        let warm = to_b.read.min(to_a.read) >= SESSION_WARM_UP * WINDOW;
        heap_a.round(warm);
        heap_b.round(warm);
    }

    for (path, side) in [(&ab, "a→b"), (&ba, "b→a")] {
        assert!(
            path.hops()[0].link.stats().lost > 0,
            "{side}: nothing was lost"
        );
    }
    assert_eq!(a.rx_stats().tpdus_failed + b.rx_stats().tpdus_failed, 0);
    println!("{rounds} rounds");
    heap_a.check("a");
    heap_b.check("b");
}
