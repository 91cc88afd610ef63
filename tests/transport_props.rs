//! Property tests of the transport's end-to-end guarantees: whatever the
//! loss/duplication/reorder pattern, retransmission with identical labels
//! converges and the delivered bytes equal the sent bytes.

use std::collections::{BTreeMap, HashMap};

use chunks::core::chunk::Chunk;
use chunks::core::error::CoreError;
use chunks::core::frag::{extract, split};
use chunks::core::label::ChunkType;
use chunks::core::packet::{pack, unpack, Packet};
use chunks::transport::{
    AckInfo, AlfFrame, ConnSpec, ConnectionDemux, ConnectionParams, ControlKind, DegradePolicy,
    DeliveryMode, DemuxEvent, Engine, FailureReason, Framer, ParallelReceiver, Receiver,
    ResourceBudget, RetransmitTimer, RtoConfig, RxEvent, RxStats, Schedule, Sender, SenderConfig,
    Session, Signal, Tpdu,
};
use chunks::vreasm::OverlapPolicy;
use chunks::wsc::{InvariantLayout, Wsc2Stream};
use proptest::prelude::*;
use proptest::TestCaseError;

fn params() -> ConnectionParams {
    ConnectionParams {
        conn_id: 0xAB,
        elem_size: 1,
        initial_csn: 500,
        tpdu_elements: 16,
    }
}

fn layout() -> InvariantLayout {
    InvariantLayout::with_data_symbols(2048)
}

/// The reference the sender's packets are held to: the framer's uncut TPDUs
/// in a map, packed by `chunks_core::packet::pack` — the chain `Sender` was
/// built from before it kept the wire image.
struct ReferenceSender {
    framer: Framer,
    pending: BTreeMap<u64, Tpdu>,
    mtu: usize,
}

impl ReferenceSender {
    fn submit(
        &mut self,
        tpdu_elements: u32,
        data: &[u8],
        alf: &[AlfFrame],
        close: bool,
    ) -> Vec<u64> {
        self.framer.set_tpdu_elements(tpdu_elements);
        let tpdus = self.framer.frame_stream(data, alf, close);
        let starts = tpdus.iter().map(|t| t.start).collect();
        self.pending.extend(tpdus.into_iter().map(|t| (t.start, t)));
        starts
    }

    fn whole(&self, starts: impl IntoIterator<Item = u64>) -> Result<Vec<Packet>, CoreError> {
        let tpdus = starts.into_iter().filter_map(|s| self.pending.get(&s));
        pack(tpdus.flat_map(Tpdu::all_chunks).collect(), self.mtu)
    }

    fn ack(&mut self, ack: &AckInfo) {
        self.pending
            .retain(|&s, t| !ack.acknowledges(s, s + t.elements as u64));
    }

    /// What the sender answers a receiver report with: the digest alone
    /// where only it is missing, every uncut chunk cut down to each named
    /// gap, the whole TPDU where the report names nothing of it.
    fn repair(&self, ack: &AckInfo) -> Result<Vec<Packet>, CoreError> {
        let mut chunks: Vec<Chunk> = Vec::new();
        for (&start, t) in &self.pending {
            let end = start + t.elements as u64;
            if ack.acknowledges(start, end) {
                continue;
            }
            if ack.need_ed.contains(&start) {
                chunks.push(t.ed.clone());
                continue;
            }
            let gaps: Vec<_> = ack
                .gaps
                .iter()
                .filter(|g| g.0 < end && start < g.1)
                .collect();
            if gaps.is_empty() {
                chunks.extend(t.all_chunks());
                continue;
            }
            for &&(lo, hi) in &gaps {
                for c in &t.chunks {
                    let c_lo = start + c.header.tpdu.sn as u64;
                    let (take_lo, take_hi) = (lo.max(c_lo), hi.min(c_lo + c.header.len as u64));
                    if take_lo < take_hi {
                        chunks.push(extract(
                            c,
                            (take_lo - c_lo) as u32,
                            (take_hi - take_lo) as u32,
                        )?);
                    }
                }
            }
            chunks.push(t.ed.clone());
        }
        pack(chunks, self.mtu)
    }
}

/// Notes each delivery among `events` in `delivered` (start → elements).
fn record(delivered: &mut BTreeMap<u64, u64>, events: &[RxEvent]) {
    for e in events {
        if let RxEvent::TpduDelivered { start, elements } = *e {
            delivered.insert(start, elements);
        }
    }
}

/// The sort-and-sweep a receiver's verified prefix once was: the end of
/// the contiguous run of delivered TPDUs from element 0.
fn swept_prefix(delivered: &BTreeMap<u64, u64>) -> u64 {
    let mut cursor = 0;
    for (&s, &n) in delivered {
        if s > cursor {
            break;
        }
        cursor = cursor.max(s + n);
    }
    cursor
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sender_packets_equal_the_reference_packing_whatever_the_call_sequence(
        size_idx in 0usize..4,
        tpdu_elements in 1u32..48,
        seed in any::<u64>(),
    ) {
        // The sender keeps its TPDUs as pieces of first-transmission
        // packets and re-packs those; the reference keeps uncut chunks. The
        // bytes on the wire must not tell the two apart after any sequence
        // of calls, at any MTU — down to one that holds a data element but
        // not an ED chunk, which both must refuse with the same error.
        let mut state = seed | 1;
        let mut draw = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % n
        };
        let esize = [1u16, 2, 4, 8][size_idx];
        let min_mtu = 32 + esize as u64;
        let mtu = min_mtu + if draw(2) == 0 { draw(96) } else { draw(9000 - min_mtu + 1) };
        let p = ConnectionParams {
            conn_id: 0xC4,
            elem_size: esize,
            initial_csn: u32::MAX - 300, // C.SN wraps mid-script
            tpdu_elements,
        };
        let mut tx = Sender::new(SenderConfig {
            params: p,
            layout: layout(),
            mtu: mtu as usize,
            min_tpdu_elements: 1,
            max_tpdu_elements: 64,
        });
        let mut model = ReferenceSender {
            framer: Framer::new(p, layout()),
            pending: BTreeMap::new(),
            mtu: mtu as usize,
        };
        let mode = [DeliveryMode::Reorder, DeliveryMode::Reassemble][draw(2) as usize];
        let mut rx = Receiver::new(mode, p, layout(), 8192);
        let mut sent: Vec<u8> = Vec::new();
        let mut open_left = 0u64; // elements of an ALF frame left open
        let mut next_x_id = 1u32;
        let mut refused = false;

        for step in 0..4 + draw(12) {
            let starts: Vec<u64> = model.pending.keys().copied().collect();
            let packets = match draw(8) {
                0..=2 => {
                    let elements = draw(3 * tpdu_elements as u64 + 2);
                    let data: Vec<u8> = (0..elements * esize as u64).map(|_| draw(256) as u8).collect();
                    // Random ALF cuts; the last frame may run past the data
                    // and stay open into the next submit.
                    let mut alf = Vec::new();
                    let mut covered = open_left;
                    while covered < elements {
                        let slack = draw(2) * 7;
                        let len = 1 + draw(elements - covered + slack);
                        alf.push(AlfFrame { id: next_x_id, len_elements: len as u32 });
                        covered += len;
                        next_x_id += 1;
                    }
                    open_left = covered - elements;
                    let close = draw(8) == 0;
                    match draw(4) {
                        0 => tx.on_loss(),
                        1 => tx.on_success(),
                        _ => {}
                    }
                    let expect = model.submit(tx.tpdu_elements(), &data, &alf, close);
                    prop_assert_eq!(tx.submit(&data, &alf, close), expect, "step {}", step);
                    sent.extend_from_slice(&data);
                    None
                }
                3 => {
                    let ack = AckInfo {
                        cumulative: draw(sent.len() as u64 / esize as u64 + 1),
                        sacks: starts.iter().copied().filter(|_| draw(6) == 0).collect(),
                        ..AckInfo::default()
                    };
                    model.ack(&ack);
                    tx.handle_ack(&ack);
                    None
                }
                4 => {
                    let victim = starts.get(draw(starts.len() as u64 + 1) as usize).copied();
                    let victim = victim.unwrap_or(u64::MAX);
                    prop_assert_eq!(tx.abandon(victim), model.pending.remove(&victim).is_some());
                    None
                }
                5 => {
                    // Any order, repeats and unknown starts included.
                    let mut named: Vec<u64> = (0..draw(4)).map(|_| draw(sent.len() as u64 + 1)).collect();
                    named.extend(starts.iter().rev().filter(|_| draw(2) == 0));
                    let got = tx.retransmit(&named);
                    prop_assert_eq!(&got, &model.whole(named), "step {} retransmit", step);
                    Some(got)
                }
                6 => {
                    let elements = sent.len() as u64 / esize as u64;
                    let ack = AckInfo {
                        cumulative: draw(elements + 1),
                        gaps: (0..draw(5))
                            .flat_map(|_| {
                                let lo = draw(elements + 1);
                                let hi = lo + draw(2 * tpdu_elements as u64 + 1);
                                // Abutting gaps: two repairs, never one.
                                [(lo, hi), (hi, hi + draw(4))]
                            })
                            .collect(),
                        need_ed: starts.iter().copied().filter(|_| draw(5) == 0).collect(),
                        ..AckInfo::default()
                    };
                    let got = tx.retransmit_for_ack(&ack);
                    prop_assert_eq!(&got, &model.repair(&ack), "step {} repair", step);
                    Some(got)
                }
                _ => None,
            };
            let pending = tx.packets_for_pending();
            prop_assert_eq!(&pending, &model.whole(model.pending.keys().copied()), "step {}", step);
            prop_assert_eq!(tx.unacked_starts(), model.pending.keys().copied().collect::<Vec<_>>());
            // Everything that leaves the sender reaches the receiver, so
            // TPDUs arrive cut one way, then another, then in part.
            for list in packets.into_iter().chain([pending]) {
                match list {
                    Ok(list) => list.iter().for_each(|p| drop(rx.handle_packet(p, step))),
                    Err(e) => {
                        prop_assert!(mtu < 40, "{:?} at mtu {}", e, mtu);
                        refused = true;
                    }
                }
            }
        }
        // Cut-independence by delivery: whatever is still pending went out
        // whole after the last step, so it must have verified and its bytes
        // must be the ones submitted.
        prop_assert_eq!(rx.stats.tpdus_failed, 0);
        if !refused {
            let data = rx.app_data();
            for (&start, t) in &model.pending {
                let span = start as usize * esize as usize..(start + t.elements as u64) as usize * esize as usize;
                prop_assert_eq!(&data[span.clone()], &sent[span], "TPDU at {}", start);
            }
        }
    }

    #[test]
    fn reliable_delivery_under_arbitrary_loss(
        message in proptest::collection::vec(any::<u8>(), 16..400),
        loss_seed in any::<u64>(),
        loss_pct in 0u64..45,
        mode_idx in 0usize..3,
    ) {
        let mode = [
            DeliveryMode::Immediate,
            DeliveryMode::Reorder,
            DeliveryMode::Reassemble,
        ][mode_idx];
        let mut tx = Sender::new(SenderConfig {
            params: params(),
            layout: layout(),
            mtu: 128,
            min_tpdu_elements: 4,
            max_tpdu_elements: 64,
        });
        let mut rx = Receiver::new(mode, params(), layout(), 4096);
        tx.submit_simple(&message, 0xE, false);
        let mut state = loss_seed | 1;
        let mut lose = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % 100 < loss_pct
        };
        let mut rounds = 0;
        loop {
            rounds += 1;
            prop_assert!(rounds < 64, "did not converge");
            let packets = if rounds == 1 {
                tx.packets_for_pending().unwrap()
            } else {
                for s in rx.failed_starts() {
                    rx.reset_group(s);
                }
                let ack = rx.make_ack();
                tx.handle_ack(&ack);
                if tx.pending_tpdus() == 0 {
                    break;
                }
                tx.retransmit_for_ack(&ack).unwrap()
            };
            // Deliver surviving packets in reverse order (reorder stress).
            for p in packets.iter().rev() {
                if !lose() {
                    rx.handle_packet(p, rounds as u64);
                }
            }
        }
        prop_assert_eq!(rx.verified_prefix(), message.len() as u64);
        prop_assert_eq!(&rx.app_data()[..message.len()], &message[..]);
    }

    #[test]
    fn stream_receiver_window_invariants(
        blocks in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 16..64), 1..12),
        dup_seed in any::<u64>(),
    ) {
        // Whole blocks of 16-64 bytes streamed through a receiver whose
        // window is 64 elements, read and released after each block, with
        // pseudo-random chunk duplication and a C.SN wrap mid-run: what is
        // read must equal the concatenation, every duplicate data chunk
        // counted as one, nothing stale or failed, memory bounded by the
        // window.
        let p = ConnectionParams {
            conn_id: 0x5,
            elem_size: 1,
            initial_csn: u32::MAX - 80, // wrap mid-run
            tpdu_elements: 16,
        };
        let mut framer = Framer::new(p, layout());
        let mut rx = Receiver::new(DeliveryMode::Immediate, p, layout(), 64);
        let mut state = dup_seed | 1;
        let mut sent = Vec::new();
        let mut received = Vec::new();
        let mut duplicates = 0;
        for block in &blocks {
            // Pad to whole TPDUs of 16 so the window always drains fully.
            let mut data = block.clone();
            data.resize(data.len().div_ceil(16) * 16, 0xEE);
            sent.extend_from_slice(&data);
            for t in framer.frame_simple(&data, 0xF, false) {
                for c in t.all_chunks() {
                    rx.handle_chunk(c.clone(), 0);
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    if (state >> 40).is_multiple_of(3) {
                        // Only a duplicate data chunk counts; a repeated ED
                        // is absorbed without a count.
                        duplicates += (c.header.ty == ChunkType::Data) as u64;
                        rx.handle_chunk(c, 0); // duplicate
                    }
                }
            }
            let (head, tail) = rx.readable();
            let n = (head.len() + tail.len()) as u64;
            prop_assert_eq!(n, data.len() as u64);
            received.extend_from_slice(head);
            received.extend_from_slice(tail);
            rx.release(n);
            prop_assert_eq!(rx.readable(), (&[][..], &[][..]));
        }
        prop_assert_eq!(&received, &sent);
        prop_assert_eq!(rx.verified_prefix(), sent.len() as u64);
        prop_assert_eq!(rx.app_data().len(), 64);
        prop_assert_eq!(rx.stats.duplicate_chunks, duplicates);
        prop_assert_eq!(rx.stats.stale_chunks, 0);
        prop_assert_eq!(rx.stats.tpdus_failed, 0);
        prop_assert!(rx.failed_starts().is_empty());
    }

    #[test]
    fn stream_and_block_receivers_agree_on_every_chunk(
        message in proptest::collection::vec(any::<u8>(), 16..400),
        seed in any::<u64>(),
        wraps in any::<bool>(),
    ) {
        // One receiver type whatever the window: a block receiver that
        // never releases and a stream receiver that releases as it reads
        // are the same `Receiver`. The same hostile trace —
        // chunks dropped, duplicated, re-cut at other points, payload- and
        // label-flipped, then shuffled, then two repair passes — goes to
        // receiver A, whose window holds the whole transfer and which never
        // releases, and to receiver B, whose window is the transfer's
        // length and which releases everything readable after every chunk,
        // so its ring wraps as it slides. After every chunk they must agree
        // on failures, the ack and the verified prefix, which must be the
        // sort-and-sweep of what was delivered; B's reads must be A's
        // prefix; and their statistics must differ only in that each late
        // copy of a TPDU B has released is one of B's stale chunks.
        let initial_csn = if wraps { u32::MAX - 100 } else { (seed >> 32) as u32 };
        let p = ConnectionParams { initial_csn, ..params() };
        let mut state = seed | 1;
        let mut draw = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % n
        };
        let clean: Vec<_> = Framer::new(p, layout())
            .frame_simple(&message, 0xF, false)
            .iter()
            .flat_map(|t| t.all_chunks())
            .collect();
        let mut trace = Vec::new();
        for c in &clean {
            for _copy in 0..draw(3) { // 0 copies = dropped
                let mut c = c.clone();
                if c.header.ty == ChunkType::Data && draw(8) == 0 {
                    let mut raw = c.payload.to_vec();
                    let at = draw(raw.len() as u64) as usize;
                    raw[at] ^= 0x40;
                    c.payload = raw.into();
                }
                // Label flips that leave the position alone: they fail in
                // absorb (T.ID) or the X-level check (X.SN), not at the ED.
                match draw(24) {
                    0 => c.header.tpdu.id ^= 1,
                    1 => c.header.ext.sn = c.header.ext.sn.wrapping_add(1),
                    _ => {}
                }
                if c.header.ty == ChunkType::Data && c.header.len > 1 && draw(2) == 0 {
                    let (a, b) = split(&c, 1 + draw(c.header.len as u64 - 1) as u32).unwrap();
                    trace.extend([a, b]);
                } else {
                    trace.push(c);
                }
            }
        }
        for i in (1..trace.len()).rev() {
            trace.swap(i, draw(i as u64 + 1) as usize);
        }

        for mode in [DeliveryMode::Immediate, DeliveryMode::Reorder, DeliveryMode::Reassemble] {
            let mut a = Receiver::new(mode, p, layout(), 4096);
            let mut b = Receiver::new(mode, p, layout(), message.len() as u64);
            // A's deliveries, the oracle's input, and B's reads.
            let mut delivered = BTreeMap::new();
            let mut read = Vec::new();
            let (mut late_data, mut late_ed) = (0, 0);
            let mut events = Vec::new();
            // Then the repair, twice — failed groups reset, everything
            // resent — because a group still open after the trace may hold
            // a flipped byte and fail only when the first repair completes it.
            for (pass, chunks) in [&trace, &clean, &clean].into_iter().enumerate() {
                for s in a.failed_starts() {
                    a.reset_group(s);
                    b.reset_group(s);
                }
                for c in chunks {
                    let h = &c.header;
                    let data = h.ty == ChunkType::Data;
                    let named = if data { h.conn.sn.wrapping_sub(h.tpdu.sn) } else { h.conn.sn };
                    if (named.wrapping_sub(initial_csn) as usize) < read.len() {
                        late_data += data as u64;
                        late_ed += !data as u64;
                    }
                    events.clear();
                    a.handle_chunk_into(c.clone(), 0, &mut events);
                    record(&mut delivered, &events);
                    b.handle_chunk(c.clone(), 0);
                    let (head, tail) = b.readable();
                    let n = (head.len() + tail.len()) as u64;
                    read.extend_from_slice(head);
                    read.extend_from_slice(tail);
                    b.release(n);

                    prop_assert_eq!(a.failed_starts(), b.failed_starts());
                    let (x, y) = (a.make_ack(), b.make_ack());
                    prop_assert_eq!(
                        (x.cumulative, x.sacks, x.gaps, x.need_ed),
                        (y.cumulative, y.sacks, y.gaps, y.need_ed),
                        "{:?} pass {} after {:?}", mode, pass, c.header
                    );
                    prop_assert_eq!(a.verified_prefix(), swept_prefix(&delivered));
                    prop_assert_eq!(b.verified_prefix(), a.verified_prefix());
                    prop_assert_eq!(read.len() as u64, b.verified_prefix());
                    let mut expect = a.stats;
                    expect.duplicate_chunks -= late_data;
                    expect.stale_chunks += late_data + late_ed;
                    prop_assert_eq!(b.stats, expect, "{:?} pass {}", mode, pass);
                }
                prop_assert_eq!(&a.app_data()[..read.len()], &read[..]);
            }
            prop_assert_eq!(a.stats.stale_chunks, 0);
            prop_assert_eq!(read.len(), message.len(), "{:?}", mode);
            prop_assert_eq!(&read, &message, "{:?}", mode);
            // A delivered TPDU reset below the watermark lowers it to the
            // sweep's answer, and its redelivery raises it again.
            let starts: Vec<u64> = delivered.keys().copied().collect();
            let reset = starts[draw(starts.len() as u64) as usize];
            a.reset_group(reset);
            delivered.remove(&reset);
            prop_assert_eq!(a.verified_prefix(), swept_prefix(&delivered));
            prop_assert_eq!(a.verified_prefix(), reset);
            prop_assert!(!a.make_ack().sacks.contains(&reset));
            for c in &clean {
                events.clear();
                a.handle_chunk_into(c.clone(), 1, &mut events);
                record(&mut delivered, &events);
                prop_assert_eq!(a.verified_prefix(), swept_prefix(&delivered));
            }
            prop_assert_eq!(a.verified_prefix(), message.len() as u64);
        }
    }

    #[test]
    fn timer_retransmissions_are_byte_identical(
        message in proptest::collection::vec(any::<u8>(), 32..300),
    ) {
        // §3.3: "retransmitted data uses identical identifiers". Whatever
        // the timer resends must match an originally transmitted chunk on
        // labels AND payload, bit for bit.
        let mut s = Session::new(
            SenderConfig {
                params: params(),
                layout: layout(),
                mtu: 128,
                min_tpdu_elements: 4,
                max_tpdu_elements: 64,
            },
            params(),
            layout(),
            DeliveryMode::Immediate,
            4096,
        );
        s.send(&message, 0xE, false);
        let mut originals = Vec::new();
        for p in s.pump(0).unwrap() {
            originals.extend(unpack(&p).unwrap());
        }
        prop_assert!(originals.iter().any(|c| c.header.ty == ChunkType::Data));
        // No acks ever arrive; keep pumping until the timer fires.
        let mut retransmitted = Vec::new();
        let mut t = 0u64;
        while retransmitted.is_empty() && t < 20_000_000 {
            t += 500_000;
            for p in s.pump(t).unwrap() {
                retransmitted.extend(
                    unpack(&p).unwrap().into_iter().filter(|c| {
                        matches!(c.header.ty, ChunkType::Data | ChunkType::ErrorDetection)
                    }),
                );
            }
        }
        prop_assert!(!retransmitted.is_empty(), "timer never fired");
        for c in &retransmitted {
            prop_assert!(
                originals.contains(c),
                "retransmission differs from every original: {:?}",
                c.header
            );
        }
    }

    #[test]
    fn backoff_is_monotone_until_a_sample_resets_it(
        initial in 200_000u64..5_000_000,
        retries in 4u32..12,
    ) {
        let cfg = RtoConfig {
            initial_rto_ns: initial,
            min_rto_ns: initial / 4,
            max_rto_ns: initial * 64,
            max_retries: retries,
            policy: DegradePolicy::Shed,
        };
        let mut timer = RetransmitTimer::new(cfg);
        timer.on_send(0, 0, false);
        // With no acks the per-TPDU RTO never decreases, fire after fire,
        // until the budget empties and the entry is disarmed.
        let mut prev = 0u64;
        while let Some(rto) = timer.rto_for(0) {
            prop_assert!(rto >= prev, "backoff shrank: {rto} < {prev}");
            prev = rto;
            let due = timer.next_expiry().unwrap();
            timer.poll(due);
        }
        prop_assert_eq!(timer.fires, retries as u64);
        // A fresh RTT sample (from a never-retransmitted TPDU) recomputes
        // the base and so resets the saturated backoff for future sends.
        let now = 1_000_000_000;
        timer.on_send(8, now, false);
        timer.on_ack(8, now + initial / 8);
        prop_assert_eq!(timer.samples, 1);
        timer.on_send(16, now, false);
        let fresh = timer.rto_for(16).unwrap();
        prop_assert!(fresh <= initial, "sample did not reset the base");
        prop_assert!(fresh < prev, "fresh send still runs under old backoff");
    }
}

/// Cases for the borrowed-walk equivalence properties: a fixed count in
/// debug, where overflow checks are live, and ten times that in release.
const WALK_CASES: u32 = if cfg!(debug_assertions) { 32 } else { 320 };

/// The LCG the hostile-trace generators draw from.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
        (self.0 >> 33) % n
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// Connection parameters for the equivalence traces: element size 1, 2 or
/// 4, short TPDUs, and an initial `C.SN` that may wrap mid-transfer.
fn walk_params(d: &mut Draw, conn_id: u32) -> ConnectionParams {
    ConnectionParams {
        conn_id,
        elem_size: [1, 2, 4][d.below(3) as usize],
        initial_csn: if d.below(2) == 0 {
            u32::MAX - 40
        } else {
            d.below(1 << 20) as u32
        },
        tpdu_elements: 4 + d.below(29) as u32,
    }
}

/// `chunk` cut at random element boundaries into one or more pieces.
fn cut(d: &mut Draw, chunk: &Chunk) -> Vec<Chunk> {
    let mut pieces = vec![chunk.clone()];
    while d.below(3) != 0 {
        let i = d.below(pieces.len() as u64) as usize;
        let len = pieces[i].header.len;
        if len < 2 {
            break;
        }
        let (a, b) = split(&pieces[i], 1 + d.below(len as u64 - 1) as u32).unwrap();
        pieces.splice(i..=i, [a, b]);
    }
    pieces
}

/// Corrupts one label of `c` now and then: `C.SN`, `T.SN`, `X.SN`, `T.ID`,
/// or a `SIZE` doubled with `LEN` halved (the wire stays well-formed).
fn corrupt(d: &mut Draw, c: &mut Chunk) {
    let h = &mut c.header;
    match d.below(40) {
        0 => h.conn.sn = h.conn.sn.wrapping_add(1 + d.below(48) as u32),
        1 => h.tpdu.sn = h.tpdu.sn.wrapping_add(1 + d.below(8) as u32),
        2 => h.ext.sn = h.ext.sn.wrapping_add(1),
        3 => h.tpdu.id ^= 1,
        4 if h.ty == ChunkType::Data && h.len.is_multiple_of(2) => {
            h.size *= 2;
            h.len /= 2;
        }
        _ => {}
    }
}

/// A hostile arrival of one connection's `message`: every data chunk cut
/// into random fragments, some dropped, some duplicated, some re-cut at
/// other points with identical bytes or with one byte changed, labels
/// corrupted now and then, all shuffled; each TPDU's ED chunk then goes
/// first, last or nowhere, and an ack rides along sometimes. Returns the
/// trace and the clean chunks a repair would resend.
fn hostile_trace(d: &mut Draw, p: ConnectionParams, message: &[u8]) -> (Vec<Chunk>, Vec<Chunk>) {
    let tpdus = Framer::new(p, layout()).frame_simple(message, 0xF, false);
    let clean: Vec<Chunk> = tpdus.iter().flat_map(Tpdu::all_chunks).collect();
    let mut trace = Vec::new();
    for c in tpdus.iter().flat_map(|t| &t.chunks) {
        for piece in cut(d, c) {
            for _ in 0..[0, 1, 1, 1, 1, 2][d.below(6) as usize] {
                trace.push(piece.clone());
            }
        }
        if d.below(4) == 0 {
            trace.extend(cut(d, c));
        }
        if d.below(6) == 0 {
            let mut recut = cut(d, c).swap_remove(0);
            let mut raw = recut.payload.to_vec();
            let at = d.below(raw.len() as u64) as usize;
            raw[at] ^= 0x20;
            recut.payload = raw.into();
            trace.push(recut);
        }
    }
    for c in &mut trace {
        corrupt(d, c);
    }
    d.shuffle(&mut trace);
    for t in &tpdus {
        let mut ed = t.ed.clone();
        if d.below(20) == 0 {
            ed.header.conn.sn = ed.header.conn.sn.wrapping_add(1);
        }
        match d.below(3) {
            0 => trace.insert(0, ed),
            1 => trace.push(ed),
            _ => {}
        }
    }
    if d.below(4) == 0 {
        let at = d.below(trace.len() as u64 + 1) as usize;
        let ack = AckInfo {
            cumulative: d.below(64),
            ..AckInfo::default()
        };
        trace.insert(at, ack.to_chunk(p.conn_id));
    }
    (trace, clean)
}

/// `chunks` packed in order into packets at random MTUs, a few of them
/// truncated or bit-flipped on the wire.
fn packed(d: &mut Draw, chunks: &[Chunk]) -> Vec<Packet> {
    let mut packets = Vec::new();
    let mut rest = chunks;
    while !rest.is_empty() {
        let run = (1 + d.below(8) as usize).min(rest.len());
        let mtu = 48 + d.below(560) as usize;
        packets.extend(pack(rest[..run].to_vec(), mtu).expect("every element fits"));
        rest = &rest[run..];
    }
    for p in &mut packets {
        match d.below(24) {
            0 => {
                p.bytes = p
                    .bytes
                    .slice(..p.len() - 1 - d.below(3.min(p.len() as u64)) as usize)
            }
            1 => {
                let mut raw = p.bytes.to_vec();
                let at = d.below(raw.len() as u64) as usize;
                raw[at] ^= 1 << d.below(8);
                p.bytes = raw.into();
            }
            _ => {}
        }
    }
    packets
}

/// Every delivery mode × overlap policy × {unlimited, tight budget}.
fn receiver_configs() -> Vec<(DeliveryMode, OverlapPolicy, ResourceBudget)> {
    let mut v = Vec::new();
    for mode in [
        DeliveryMode::Immediate,
        DeliveryMode::Reorder,
        DeliveryMode::Reassemble,
    ] {
        for policy in OverlapPolicy::ALL {
            for budget in [
                ResourceBudget::unlimited(),
                ResourceBudget::with_caps(96, 3, 8),
            ] {
                v.push((mode, policy, budget));
            }
        }
    }
    v
}

fn configured(
    p: ConnectionParams,
    cfg: &(DeliveryMode, OverlapPolicy, ResourceBudget),
) -> Receiver {
    Receiver::new(cfg.0, p, layout(), 4096)
        .with_policy(cfg.1)
        .with_budget(cfg.2.clone())
}

/// Feeds `packet` to `rx` through the owned entry: `unpack`, then
/// `handle_chunk_into` per chunk. Returns false when `unpack` refused it.
fn owned_feed(rx: &mut Receiver, packet: &Packet, now: u64, out: &mut Vec<RxEvent>) -> bool {
    let Ok(chunks) = unpack(packet) else {
        return false;
    };
    for c in chunks {
        rx.handle_chunk_into(c, now, out);
    }
    true
}

/// Everything two receivers report, apart from the packets `a` counted
/// bad that `b`'s caller refused before they reached it.
fn same_state(a: &Receiver, b: &Receiver, refused: u64) -> Result<(), TestCaseError> {
    let mut bs = b.stats;
    bs.bad_packets += refused;
    prop_assert_eq!(a.stats, bs);
    prop_assert_eq!(a.app_data(), b.app_data());
    prop_assert_eq!(a.delivered_digests(), b.delivered_digests());
    prop_assert_eq!(a.make_ack(), b.make_ack());
    prop_assert_eq!(a.failed_starts(), b.failed_starts());
    prop_assert_eq!(a.verified_prefix(), b.verified_prefix());
    Ok(())
}

/// A clean trace whose only damage is in `X.SN`: TPDUs carrying one, two or
/// many `X.ID`s — now and then one `X.ID` twice, as two frames — their data
/// chunks cut into pieces; a random `(TPDU, X.ID)` run shifted as a whole
/// (its `C.SN − X.SN` stays constant) and a random piece shifted alone (it
/// conflicts, unless it is its `X.ID`'s only piece in the TPDU); every ED
/// chunk; all shuffled. `X.SN` lies outside the invariant, so only the X
/// check can condemn a TPDU here.
fn x_trace(d: &mut Draw) -> (ConnectionParams, Vec<Tpdu>, Vec<Chunk>) {
    let p = ConnectionParams {
        elem_size: 1,
        ..walk_params(d, 0xE1)
    };
    let elements = p.tpdu_elements as u64 * (2 + d.below(4)) - d.below(3);
    let message: Vec<u8> = (0..elements).map(|_| d.below(256) as u8).collect();
    // One frame, frames of up to about half a TPDU, or frames of 1–3.
    let longest = [elements, p.tpdu_elements as u64 / 2 + 1, 3][d.below(3) as usize];
    let mut alf: Vec<AlfFrame> = Vec::new();
    let mut left = elements;
    while left > 0 {
        let len = (1 + d.below(longest)).min(left);
        let id = match alf.len() {
            n if n > 0 && d.below(6) == 0 => alf[d.below(n as u64) as usize].id,
            n => 0x100 + n as u32,
        };
        alf.push(AlfFrame {
            id,
            len_elements: len as u32,
        });
        left -= len;
    }
    let tpdus = Framer::new(p, layout()).frame_stream(&message, &alf, false);
    let mut trace = Vec::new();
    for t in &tpdus {
        let mut shifts: BTreeMap<u32, u32> = BTreeMap::new();
        for c in &t.chunks {
            let run = *shifts
                .entry(c.header.ext.id)
                .or_insert_with(|| [0, 0, 0, 1 + d.below(9) as u32][d.below(4) as usize]);
            for mut piece in cut(d, c) {
                let alone = [0, 0, 0, 0, 0, 0, 0, 1 + d.below(3) as u32][d.below(8) as usize];
                piece.header.ext.sn = piece.header.ext.sn.wrapping_add(run + alone);
                trace.push(piece);
            }
        }
        trace.push(t.ed.clone());
    }
    d.shuffle(&mut trace);
    (p, tpdus, trace)
}

/// One TPDU of [`XModel`].
#[derive(Default)]
struct XGroup {
    /// First `C.SN − X.SN` per `X.ID`: the rule the receiver must keep.
    deltas: HashMap<u32, u32>,
    tracked: u64,
    ed: bool,
    verdict: bool,
    /// Reassemble staging: `(bytes, arrived)` per accepted chunk.
    held: Vec<(u64, u64)>,
}

/// The receiver over an [`x_trace`], as the `HashMap` rule decides it: one
/// map of first deltas per TPDU names the chunk that condemns it, and the
/// delivery mode decides only where accepted bytes go (element size 1).
struct XModel {
    mode: DeliveryMode,
    base_csn: u32,
    /// `start → elements` of every framed TPDU.
    elements: BTreeMap<u64, u64>,
    groups: BTreeMap<u64, XGroup>,
    /// Reorder's cursor and its queue, `first → (bytes, arrived)`.
    in_order: u64,
    queue: BTreeMap<u64, (u64, u64)>,
    stats: RxStats,
}

impl XModel {
    fn new(mode: DeliveryMode, p: ConnectionParams, tpdus: &[Tpdu]) -> Self {
        XModel {
            mode,
            base_csn: p.initial_csn,
            elements: tpdus.iter().map(|t| (t.start, t.elements as u64)).collect(),
            groups: BTreeMap::new(),
            in_order: 0,
            queue: BTreeMap::new(),
            stats: RxStats::default(),
        }
    }

    fn handle(&mut self, c: &Chunk, now: u64) -> Vec<RxEvent> {
        let h = &c.header;
        let mut out = Vec::new();
        let label = match h.ty {
            ChunkType::ErrorDetection => h.conn.sn,
            _ => h.conn.sn.wrapping_sub(h.tpdu.sn),
        };
        let start = label.wrapping_sub(self.base_csn) as u64;
        let g = self.groups.entry(start).or_default();
        let stats = &mut self.stats;
        let stage = |stats: &mut RxStats, len: u64| {
            stats.buffered_bytes += len;
            stats.peak_buffered_bytes = stats.peak_buffered_bytes.max(stats.buffered_bytes);
            stats.data_touches += len;
        };
        let unhold = |stats: &mut RxStats, (len, arrived): (u64, u64)| {
            stats.buffered_bytes -= len;
            stats.holding_delay += now - arrived;
            stats.data_touches += len;
        };
        if h.ty == ChunkType::ErrorDetection {
            g.ed = true;
        } else {
            let len = h.len as u64;
            g.tracked += len;
            let delta = h.conn.sn.wrapping_sub(h.ext.sn);
            if *g.deltas.entry(h.ext.id).or_insert(delta) != delta {
                if !std::mem::replace(&mut g.verdict, true) {
                    stats.tpdus_failed += 1;
                    out.push(RxEvent::TpduFailed {
                        start,
                        reason: FailureReason::Consistency,
                    });
                }
                return out;
            }
            stats.chunks_accepted += 1;
            let first = start + h.tpdu.sn as u64;
            match self.mode {
                DeliveryMode::Immediate => stats.data_touches += len,
                DeliveryMode::Reassemble => {
                    stage(stats, len);
                    g.held.push((len, now));
                }
                DeliveryMode::Reorder if first > self.in_order => {
                    stage(stats, len);
                    self.queue.insert(first, (len, now));
                }
                DeliveryMode::Reorder => {
                    stats.data_touches += len;
                    self.in_order = self.in_order.max(first + len);
                    while let Some(queued) = self.queue.remove(&self.in_order) {
                        unhold(stats, queued);
                        self.in_order += queued.0;
                    }
                }
            }
        }
        let elements = self.elements[&start];
        if !g.verdict && g.ed && g.tracked == elements {
            g.verdict = true;
            stats.tpdus_delivered += 1;
            for held in g.held.drain(..) {
                unhold(stats, held);
            }
            out.push(RxEvent::TpduDelivered { start, elements });
        }
        out
    }
}

/// One step of a connection-lifecycle script.
enum Step {
    Admit(u32),
    Retire(u32),
    Packet(Packet),
}

/// The connection a lifecycle script never admits.
const STRANGER: u32 = 77;

/// A lifecycle script over connections 1–4 and [`STRANGER`], all of one
/// element size (a pooled shell keeps its application space): their hostile
/// traces, teardown signals and acks shuffled together into packets, some of
/// them malformed, with garbage packets, admissions and retirements — of
/// live, retired and never-admitted connections — between them. Returns
/// every connection's parameters and the steps.
fn lifecycle_script(d: &mut Draw) -> (Vec<ConnectionParams>, Vec<Step>) {
    let elem_size = [1, 2, 4][d.below(3) as usize];
    let params: Vec<ConnectionParams> = [1, 2, 3, 4, STRANGER]
        .into_iter()
        .map(|conn_id| ConnectionParams {
            elem_size,
            ..walk_params(d, conn_id)
        })
        .collect();
    let mut mixed = Vec::new();
    for &p in &params {
        let elements = 8 + d.below(64);
        let message: Vec<u8> = (0..elements * elem_size as u64)
            .map(|_| d.below(256) as u8)
            .collect();
        mixed.extend(hostile_trace(d, p, &message).0);
        if d.below(2) == 0 {
            mixed.push(Signal::Teardown { conn_id: p.conn_id }.to_chunk());
        }
    }
    d.shuffle(&mut mixed);
    let mut steps = Vec::new();
    for packet in packed(d, &mixed) {
        match d.below(8) {
            0 => steps.push(Step::Admit(1 + d.below(4) as u32)),
            1 => steps.push(Step::Retire([1, 2, 3, 4, STRANGER][d.below(5) as usize])),
            2 => {
                let garbage: Vec<u8> = (0..d.below(64)).map(|_| d.below(256) as u8).collect();
                steps.push(Step::Packet(Packet {
                    bytes: garbage.into(),
                }));
            }
            _ => {}
        }
        steps.push(Step::Packet(packet));
    }
    (params, steps)
}

/// What a lifecycle script leaves behind on the serial demux.
struct SerialLifecycle {
    demux: ConnectionDemux,
    /// Acks, signals and unknown connections, in arrival order.
    control: Vec<ControlKind>,
    /// Every receiver event per `C.ID`, across all its lifetimes.
    events: BTreeMap<u32, Vec<RxEvent>>,
    /// XOR-fold of every delivered TPDU's verified code.
    transcript: Wsc2Stream,
    /// Packets the walk refused.
    refused: u64,
}

/// Plays a lifecycle script through [`ConnectionDemux`], admitting and
/// retiring through its table the way a parallel worker does.
fn serial_lifecycle(specs: &[ConnSpec], initial: usize, steps: &[Step]) -> SerialLifecycle {
    let spec = |id: u32| specs.iter().find(|s| s.params.conn_id == id).unwrap();
    let fresh = |s: &ConnSpec| {
        Receiver::new(s.mode, s.params, s.layout, s.capacity_elements)
            .with_policy(s.policy)
            .with_budget(s.budget.clone())
    };
    let mut run = SerialLifecycle {
        demux: ConnectionDemux::new(),
        control: Vec::new(),
        events: BTreeMap::new(),
        transcript: Wsc2Stream::new(),
        refused: 0,
    };
    for s in &specs[..initial] {
        run.demux.register(s.params.conn_id, fresh(s));
    }
    let mut events = Vec::new();
    for (now, step) in steps.iter().enumerate() {
        let now = now as u64;
        match step {
            Step::Admit(id) => {
                let s = spec(*id);
                run.demux.table_mut().admit(
                    s.params,
                    now,
                    || fresh(s),
                    |rx| {
                        rx.set_policy(s.policy);
                        rx.set_budget(s.budget.clone());
                    },
                );
            }
            Step::Retire(id) => {
                run.demux.table_mut().retire(*id, now);
            }
            Step::Packet(packet) => {
                run.refused += unpack(packet).is_err() as u64;
                run.demux.ingest(packet, now, &mut events);
                for e in events.drain(..) {
                    match e {
                        DemuxEvent::Connection { conn_id, event } => {
                            if let RxEvent::TpduDelivered { start, .. } = event {
                                let rx = run.demux.receiver(conn_id).unwrap();
                                run.transcript.fold_code(&rx.delivered_code(start).unwrap());
                            }
                            run.events.entry(conn_id).or_default().push(event);
                        }
                        DemuxEvent::Ack { conn_id, ack } => {
                            run.control.push(ControlKind::Ack { conn_id, ack })
                        }
                        DemuxEvent::Signal(s) => run.control.push(ControlKind::Signal(s)),
                        DemuxEvent::UnknownConnection { conn_id } => {
                            run.control.push(ControlKind::UnknownConnection { conn_id })
                        }
                    }
                }
            }
        }
    }
    run
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(WALK_CASES))]

    #[test]
    fn borrowed_walk_equals_the_owned_entry(seed in any::<u64>()) {
        // Receiver A reads each chunk where it lies in the packet
        // (`ingest_batch`); receiver B gets owned chunks from `unpack`
        // (`handle_chunk_into`). Whatever the arrival, the mode, the overlap
        // policy and the budget, they must not be told apart: same events
        // batch by batch, same stats, bytes, digests, acks and failures,
        // through a repair pass and the final expiry.
        let mut d = Draw(seed | 1);
        let p = walk_params(&mut d, 0xE0);
        let elements = 8 + d.below(160);
        let message: Vec<u8> = (0..elements * p.elem_size as u64).map(|_| d.below(256) as u8).collect();
        let (trace, clean) = hostile_trace(&mut d, p, &message);
        let packets = packed(&mut d, &trace);
        let repair = pack(clean, 1500).unwrap();
        for cfg in receiver_configs() {
            let (mut a, mut b) = (configured(p, &cfg), configured(p, &cfg));
            let mut refused = 0;
            let mut now = 0;
            for (pass, packets) in [&packets, &repair].into_iter().enumerate() {
                for s in a.failed_starts() {
                    a.reset_group(s);
                    b.reset_group(s);
                }
                let mut rest = &packets[..];
                while !rest.is_empty() {
                    let run = (1 + d.below(6) as usize).min(rest.len());
                    now += 1 + d.below(3);
                    let (mut ea, mut eb) = (Vec::new(), Vec::new());
                    a.ingest_batch(&rest[..run], now, &mut ea);
                    for packet in &rest[..run] {
                        refused += !owned_feed(&mut b, packet, now, &mut eb) as u64;
                    }
                    prop_assert_eq!(&ea, &eb, "{:?} pass {} at {}", cfg, pass, now);
                    rest = &rest[run..];
                }
                same_state(&a, &b, refused)?;
            }
            prop_assert_eq!(a.expire_incomplete(), b.expire_incomplete(), "{:?}", cfg);
            same_state(&a, &b, refused)?;
        }
    }

    #[test]
    fn demux_ingest_equals_per_connection_owned_receivers(seed in any::<u64>()) {
        // Three connections' hostile traces interleaved chunk by chunk into
        // shared packets, plus chunks for a connection nobody registered:
        // the demux's borrowed walk must leave each receiver, and each
        // connection's event sequence, exactly as a receiver of its own fed
        // owned chunks would.
        let mut d = Draw(seed | 1);
        let cfgs = receiver_configs();
        let cfg = &cfgs[d.below(cfgs.len() as u64) as usize];
        let mut demux = ConnectionDemux::new();
        let mut own: BTreeMap<u32, (Receiver, Vec<RxEvent>)> = BTreeMap::new();
        let mut mixed = Vec::new();
        for conn_id in [1u32, 2, 3, 99] {
            let p = walk_params(&mut d, conn_id);
            let elements = 8 + d.below(96);
            let message: Vec<u8> = (0..elements * p.elem_size as u64).map(|_| d.below(256) as u8).collect();
            let (trace, _) = hostile_trace(&mut d, p, &message);
            if conn_id != 99 {
                demux.register(conn_id, configured(p, cfg));
                own.insert(conn_id, (configured(p, cfg), Vec::new()));
            }
            mixed.extend(trace);
        }
        d.shuffle(&mut mixed);
        let mut got: BTreeMap<u32, Vec<RxEvent>> = BTreeMap::new();
        for (i, packet) in packed(&mut d, &mixed).iter().enumerate() {
            let now = i as u64;
            let mut events = Vec::new();
            demux.ingest(packet, now, &mut events);
            for e in events {
                if let DemuxEvent::Connection { conn_id, event } = e {
                    got.entry(conn_id).or_default().push(event);
                }
            }
            let Ok(chunks) = unpack(packet) else { continue };
            for c in chunks {
                let data = matches!(c.header.ty, ChunkType::Data | ChunkType::ErrorDetection);
                if let (true, Some((rx, out))) = (data, own.get_mut(&c.header.conn.id)) {
                    rx.handle_chunk_into(c, now, out);
                }
            }
        }
        for (id, (rx, events)) in &mut own {
            prop_assert_eq!(got.remove(id).unwrap_or_default(), events.clone(), "conn {}", id);
            let routed = demux.receiver_mut(*id).unwrap();
            prop_assert_eq!(routed.expire_incomplete(), rx.expire_incomplete());
            same_state(routed, rx, 0)?;
        }
        prop_assert!(got.is_empty(), "events for unregistered connections: {:?}", got);
    }
    #[test]
    fn x_check_equals_the_hash_map_rule(seed in any::<u64>()) {
        // The X check keeps a TPDU's first `(X.ID, C.SN − X.SN)` inline and
        // spills later ids to a table. Over TPDUs with one, two and many
        // `X.ID`s, consistent and conflicting, in any order and every mode,
        // it must condemn exactly the chunks one `HashMap` of first deltas
        // per TPDU condemns: same events chunk by chunk, same stats, same
        // deliveries and failures.
        let mut d = Draw(seed | 1);
        let (p, tpdus, trace) = x_trace(&mut d);
        for mode in [DeliveryMode::Immediate, DeliveryMode::Reorder, DeliveryMode::Reassemble] {
            let mut rx = Receiver::new(mode, p, layout(), 4096);
            let mut model = XModel::new(mode, p, &tpdus);
            let (mut delivered, mut failed) = (BTreeMap::new(), Vec::new());
            for (now, c) in trace.iter().enumerate() {
                let mut got = Vec::new();
                rx.handle_chunk_into(c.clone(), now as u64, &mut got);
                let want = model.handle(c, now as u64);
                prop_assert_eq!(&got, &want, "{:?} chunk {}: {:?}", mode, now, c.header);
                for e in want {
                    match e {
                        RxEvent::TpduDelivered { start, .. } => {
                            let ed = &tpdus.iter().find(|t| t.start == start).unwrap().ed;
                            delivered.insert(start, <[u8; 8]>::try_from(&ed.payload[..]).unwrap());
                        }
                        RxEvent::TpduFailed { start, .. } => failed.push(start),
                        _ => {}
                    }
                }
            }
            prop_assert_eq!(rx.stats, model.stats, "{:?}", mode);
            prop_assert_eq!(rx.delivered_digests(), delivered.into_iter().collect::<Vec<_>>());
            failed.sort_unstable();
            prop_assert_eq!(rx.failed_starts(), failed);
        }
    }

    #[test]
    fn lifecycle_scripts_demux_identically_on_both_front_ends(seed in any::<u64>()) {
        // Connections admitted, retired and admitted again mid-stream, data
        // for them before, between and after, a connection nobody admits,
        // acks and signals in the same packets, and malformed packets: the
        // parallel pipeline, whose workers' tables alone decide which
        // connections exist, must report what the serial demux does — the
        // control sequence with every unknown connection in arrival order,
        // each live connection's events and final state, the routing
        // counts and the transcript — at any worker count, on both engines.
        let mut d = Draw(seed | 1);
        let (params, steps) = lifecycle_script(&mut d);
        let cfgs = receiver_configs();
        let cfg = &cfgs[d.below(cfgs.len() as u64) as usize];
        let specs: Vec<ConnSpec> = params
            .iter()
            .map(|&p| {
                ConnSpec::new(p, layout(), cfg.0, 4096)
                    .with_policy(cfg.1)
                    .with_budget(cfg.2.clone())
            })
            .collect();
        let initial = d.below(3) as usize;
        let serial = serial_lifecycle(&specs, initial, &steps);
        let unknown = serial
            .control
            .iter()
            .filter(|k| matches!(k, ControlKind::UnknownConnection { .. }))
            .count() as u64;
        let mut live: Vec<u32> = serial.demux.table().iter().map(|(id, _)| id).collect();
        live.sort_unstable();
        let spec = |id: u32| specs.iter().find(|s| s.params.conn_id == id).unwrap().clone();

        for workers in [1, 2, 4] {
            for engine in [Engine::Virtual(Schedule::Fair), Engine::Threads] {
                let at = format!("{workers} workers, {engine:?}");
                let mut pr = ParallelReceiver::new(workers, engine, specs[..initial].to_vec());
                for (now, step) in steps.iter().enumerate() {
                    let now = now as u64;
                    match step {
                        Step::Admit(id) => pr.admit(spec(*id), now),
                        Step::Retire(id) => pr.retire(*id, now),
                        Step::Packet(packet) => pr.ingest(packet, now),
                    }
                }
                let out = pr.finish();
                let control: Vec<ControlKind> = out.control.iter().map(|e| e.kind.clone()).collect();
                prop_assert_eq!(&control, &serial.control, "{}", at);
                prop_assert!(out.control.windows(2).all(|w| w[0].stamp < w[1].stamp), "{}", at);
                prop_assert_eq!(out.dispatch.routed, serial.demux.routed, "{}", at);
                prop_assert_eq!(out.transcript_digest, serial.transcript.digest(), "{}", at);
                prop_assert_eq!(out.dispatch.decode_errors, 0, "{}", at);
                prop_assert_eq!(out.dispatch.bad_packets, serial.refused, "{}", at);
                prop_assert_eq!(
                    out.dispatch.chunks_dispatched - out.worker_chunks.iter().sum::<u64>(),
                    unknown,
                    "{}", at
                );
                prop_assert_eq!(out.conns.keys().copied().collect::<Vec<_>>(), live.clone(), "{}", at);
                for (id, report) in &out.conns {
                    let want = serial.events.get(id).map_or(&[][..], Vec::as_slice);
                    prop_assert_eq!(&report.events[..], want, "{} conn {}", at, id);
                    same_state(&report.receiver, serial.demux.receiver(*id).unwrap(), 0)?;
                }
            }
        }
    }
}
