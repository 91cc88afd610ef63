//! Adversarial input at the system level: the full receiver, the
//! demultiplexer, the parallel dispatcher, and the baseline decoders
//! survive arbitrary bytes and truncated/bit-flipped real traffic.

use bytes::Bytes;
use chunks::baseline::aal::{Cell, CellReassembler};
use chunks::baseline::ip::{IpPacket, IpReassembler};
use chunks::baseline::xtp::{decode_super, XtpPdu};
use chunks::core::packet::Packet;
use chunks::core::wire;
use chunks::transport::{
    AckInfo, ConnectionDemux, ConnectionParams, DeliveryMode, Receiver, Sender, SenderConfig,
    Signal,
};
use chunks::wsc::InvariantLayout;
use proptest::prelude::*;

fn params() -> ConnectionParams {
    ConnectionParams {
        conn_id: 5,
        elem_size: 1,
        initial_csn: 0,
        tpdu_elements: 32,
    }
}

fn layout() -> InvariantLayout {
    InvariantLayout::with_data_symbols(2048)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn receiver_survives_random_packets(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..512), 1..16),
    ) {
        let mut rx = Receiver::new(DeliveryMode::Immediate, params(), layout(), 4096);
        for (i, f) in frames.iter().enumerate() {
            rx.handle_packet_into(&Packet { bytes: f.clone().into() }, i as u64, &mut Vec::new());
        }
    }

    #[test]
    fn receiver_survives_bitflipped_real_traffic(
        flip_byte in any::<usize>(),
        flip_bit in 0usize..8,
        mode_idx in 0usize..3,
    ) {
        let mode = [DeliveryMode::Immediate, DeliveryMode::Reorder, DeliveryMode::Reassemble][mode_idx];
        let mut tx = Sender::new(SenderConfig {
            params: params(),
            layout: layout(),
            mtu: 256,
            min_tpdu_elements: 4,
            max_tpdu_elements: 64,
        });
        tx.submit_simple(&[0xA5u8; 200], 0xE, false);
        let packets = tx.packets_for_pending().unwrap();
        let mut rx = Receiver::new(mode, params(), layout(), 4096);
        for (i, p) in packets.iter().enumerate() {
            let mut raw = p.bytes.to_vec();
            if i == 0 && !raw.is_empty() {
                let at = flip_byte % raw.len();
                raw[at] ^= 1 << flip_bit;
            }
            rx.handle_packet_into(&Packet { bytes: raw.into() }, i as u64, &mut Vec::new());
        }
        let _ = rx.expire_incomplete();
        // Whatever happened, the receiver must not have delivered data that
        // differs from the original on a *verified* prefix... unless the
        // flip missed (hit padding) and everything verified.
        if rx.verified_prefix() == 200 && rx.stats.tpdus_failed == 0 {
            prop_assert_eq!(&rx.app_data()[..200], &[0xA5u8; 200][..]);
        }
    }

    #[test]
    fn receiver_survives_manufactured_overlaps_and_zero_spans(
        shift in 1u32..48,
        truncate in 0u32..4,
        policy_idx in 0usize..3,
    ) {
        use chunks::core::label::ChunkType;
        use chunks::core::packet::unpack;
        use chunks::vreasm::OverlapPolicy;

        let policy = OverlapPolicy::ALL[policy_idx];
        let mut tx = Sender::new(SenderConfig {
            params: params(),
            layout: layout(),
            mtu: 256,
            min_tpdu_elements: 4,
            max_tpdu_elements: 64,
        });
        let payload: Vec<u8> = (0..256).map(|i| (i * 5 + 1) as u8).collect();
        tx.submit_simple(&payload, 0xE, false);
        let packets = tx.packets_for_pending().unwrap();
        let mut rx = Receiver::new(DeliveryMode::Reassemble, params(), layout(), 4096)
            .with_policy(policy);
        for (i, p) in packets.iter().enumerate() {
            let now = i as u64;
            rx.handle_packet_into(p, now, &mut Vec::new());
            for c in unpack(p).unwrap() {
                if c.header.ty != ChunkType::Data {
                    continue;
                }
                // An overlapping span: the same group key (both SNs shift
                // together), the original bytes re-offered at a shifted
                // offset — and optionally with a truncated LEN, so the
                // overlap cuts mid-chunk. Labels stay self-consistent
                // (payload length always matches SIZE × LEN).
                let mut dup = c.clone();
                dup.header.conn.sn = dup.header.conn.sn.wrapping_add(shift);
                dup.header.tpdu.sn = dup.header.tpdu.sn.wrapping_add(shift);
                if truncate > 0 && dup.header.len > truncate {
                    dup.header.len -= truncate;
                    let keep = dup.header.len as usize * dup.header.size as usize;
                    dup.payload = dup.payload.slice(0..keep);
                }
                rx.handle_chunk_into(dup, now, &mut Vec::new());
                // A zero-length span at the same position: LEN = 0, no
                // payload bytes at all.
                let mut zero = c.clone();
                zero.header.len = 0;
                zero.payload = Vec::new().into();
                rx.handle_chunk_into(zero, now, &mut Vec::new());
            }
        }
        let _ = rx.expire_incomplete();
        // Conflicts must surface as typed failures, never as corruption:
        // whatever the policy, the verified prefix holds the sender's bytes
        // exactly.
        let vp = (rx.verified_prefix() as usize).min(payload.len());
        prop_assert_eq!(&rx.app_data()[..vp], &payload[..vp]);
        // Under the reject policy a diagnosed conflict condemns its group —
        // the failure is reported, not swallowed.
        if policy == OverlapPolicy::Reject && rx.stats.overlap_conflicts > 0 {
            prop_assert!(
                rx.stats.tpdus_failed > 0 || !rx.failed_starts().is_empty(),
                "diagnosed conflicts must surface as typed failures"
            );
        }
    }

    #[test]
    fn demux_survives_random_packets(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..256), 1..8),
    ) {
        let mut demux = ConnectionDemux::new();
        demux.register(5, Receiver::new(DeliveryMode::Immediate, params(), layout(), 1024));
        let mut events = Vec::new();
        for f in &frames {
            demux.ingest(&Packet { bytes: f.clone().into() }, 0, &mut events);
        }
    }

    #[test]
    fn control_decoders_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Signal::decode(&bytes);
        let _ = AckInfo::decode(&bytes);
        let _ = IpPacket::decode(&bytes);
        let _ = XtpPdu::decode(&bytes);
        let _ = decode_super(&bytes);
    }

    #[test]
    fn ip_reassembler_survives_random_fragments(
        frags in proptest::collection::vec(
            (any::<u32>(), any::<u16>(), any::<bool>(),
             proptest::collection::vec(any::<u8>(), 0..64)), 1..32),
    ) {
        let mut r = IpReassembler::new(4096);
        for (id, offset, mf, payload) in frags {
            let p = IpPacket {
                id,
                offset: offset as u32,
                mf,
                payload: payload.into(),
            };
            let _ = r.offer(p);
        }
    }

    #[test]
    fn aal5_reassembler_survives_random_cells(
        cells in proptest::collection::vec(
            (any::<[u8; 48]>(), any::<bool>()), 1..32),
    ) {
        let mut r = CellReassembler::new();
        for (payload, eof) in cells {
            let _ = r.push(&Cell { payload, eof });
        }
    }
}

#[test]
fn the_parallel_dispatcher_folds_the_largest_span_validate_accepts() {
    // The dispatcher folds a data chunk's payload before any worker looks
    // at its labels, so a chunk the wire format allows at its largest
    // (`SIZE × LEN` = `MAX_DECODE_PAYLOAD`) is folded whole, whichever
    // connection it names. Nothing may panic, and what the workers make of
    // it must be what one serial receiver makes of the same batch.
    use chunks::core::chunk::{Chunk, ChunkHeader};
    use chunks::core::label::FramingTuple;
    use chunks::core::packet::validate;
    use chunks::core::wire::MAX_DECODE_PAYLOAD;
    use chunks::transport::{ConnSpec, Engine, ParallelReceiver, Schedule};

    let packet = |size: u16, conn_id: u32| {
        let len = (MAX_DECODE_PAYLOAD / size as usize) as u32;
        let header = ChunkHeader::data(
            size,
            len,
            FramingTuple::new(conn_id, 0, false),
            FramingTuple::new(1, 0, true),
            FramingTuple::new(2, 0, false),
        );
        let payload = vec![0xC3u8; size as usize * len as usize];
        let mut bytes = Vec::with_capacity(wire::WIRE_HEADER_LEN + payload.len());
        wire::encode_chunk(
            &Chunk {
                header,
                payload: payload.into(),
            },
            &mut bytes,
        );
        Packet {
            bytes: bytes.into(),
        }
    };
    // The connection's own SIZE, past its window; a SIZE it does not use;
    // an odd SIZE on a connection nobody holds.
    let batch = [packet(1, 5), packet(256, 5), packet(3, 77)];
    assert_eq!(
        batch[0].bytes.len() - wire::WIRE_HEADER_LEN,
        MAX_DECODE_PAYLOAD
    );
    assert_eq!(
        batch[1].bytes.len() - wire::WIRE_HEADER_LEN,
        MAX_DECODE_PAYLOAD
    );
    assert!(batch.iter().all(|p| validate(p) == Ok(1)));

    let mut rx = Receiver::new(DeliveryMode::Immediate, params(), layout(), 4096);
    let mut serial = Vec::new();
    rx.ingest_batch(&batch[..2], 0, &mut serial);
    for engine in [Engine::Virtual(Schedule::Fair), Engine::Threads] {
        let mut pr = ParallelReceiver::new(
            2,
            engine.clone(),
            vec![ConnSpec::new(
                params(),
                layout(),
                DeliveryMode::Immediate,
                4096,
            )],
        );
        pr.ingest_batch(&batch, 0);
        let out = pr.finish();
        assert_eq!(out.dispatch.chunks_dispatched, 3, "{engine:?}");
        assert_eq!(out.dispatch.decode_errors, 0, "{engine:?}");
        assert_eq!(out.conns[&5].events, serial, "{engine:?}");
        assert_eq!(out.conns[&5].receiver.stats, rx.stats, "{engine:?}");
        assert_eq!(out.control.len(), 1, "{engine:?}: conn 77 is unknown");
    }
}

/// One valid encoded chunk of every chunk type (padding is represented by
/// the all-zero end-of-packet marker).
#[test]
fn hostile_tsn_past_the_chunks_own_csn_is_refused_without_a_panic() {
    // `T.SN` is wire input. One that exceeds the chunk's `C.SN` names a TPDU
    // that began before the stream did — or, once the application has
    // released part of the stream, before the window's base. Labels around
    // the base are classified by wrapping arithmetic; none may panic, a
    // start in released space is stale, and what the application has yet
    // to read must not move.
    use chunks::core::chunk::Chunk;
    use chunks::core::packet::pack;
    use chunks::transport::{FailureReason, Framer, RxEvent};

    // Eight TPDUs of 32, through a 128-element window: TPDUs 0..4 are
    // delivered and 0..3 released, so the base is 96 and the window ends
    // at 224, inside TPDU 6.
    let p = ConnectionParams {
        initial_csn: u32::MAX - 40, // the base's C.SN has wrapped
        ..params()
    };
    let message: Vec<u8> = (0..=255u8).collect();
    let tpdus = Framer::new(p, layout()).frame_simple(&message, 0xE, false);
    let data = |t: usize| tpdus[t].chunks[0].clone();
    let with_tsn = |mut c: Chunk, sn: u32| {
        c.header.tpdu.sn = sn;
        c
    };
    let mut behind = data(2); // C.SN one element behind the base
    behind.header.conn.sn = behind.header.conn.sn.wrapping_add(31);
    behind.header.tpdu.sn = 0;
    let mut straddles = data(6); // [208, 240) across base + window
    straddles.header.conn.sn = straddles.header.conn.sn.wrapping_add(16);
    straddles.header.tpdu.sn = 16;
    let everything_tsn_max = tpdus
        .iter()
        .flat_map(|t| &t.chunks)
        .map(|c| with_tsn(c.clone(), u32::MAX));
    // (chunks, stale ones among them)
    let cases: Vec<(Vec<Chunk>, u64)> = vec![
        (everything_tsn_max.collect(), 3),
        (vec![behind], 1),
        (vec![with_tsn(data(4), 33)], 1), // start pulled below the base
        (vec![straddles], 0),
        (vec![tpdus[1].ed.clone()], 1), // ED of a released TPDU
    ];

    for mode in [
        DeliveryMode::Immediate,
        DeliveryMode::Reorder,
        DeliveryMode::Reassemble,
    ] {
        // Unreleased, the first case is refused too: nothing verifies.
        let mut fresh = Receiver::new(mode, p, layout(), 4096);
        let mut out = Vec::new();
        fresh.ingest_batch(&pack(cases[0].0.clone(), 256).unwrap(), 0, &mut out);
        assert_eq!(fresh.verified_prefix(), 0, "{mode:?}");
        out.clear();

        let mut rx = Receiver::new(mode, p, layout(), 128);
        for c in tpdus[..4].iter().flat_map(|t| t.all_chunks()) {
            rx.handle_chunk_into(c, 0, &mut Vec::new());
        }
        rx.release(96);
        let unread = [rx.readable().0, rx.readable().1].concat();
        assert_eq!(unread, message[96..128], "{mode:?}");
        for (i, (chunks, stale)) in cases.iter().enumerate() {
            let before = rx.stats.stale_chunks;
            rx.ingest_batch(&pack(chunks.clone(), 256).unwrap(), 1, &mut out);
            assert_eq!(rx.stats.stale_chunks - before, *stale, "{mode:?} case {i}");
            assert_eq!([rx.readable().0, rx.readable().1].concat(), unread);
        }
        assert!(out.contains(&RxEvent::TpduFailed {
            start: 192,
            reason: FailureReason::BadChunk,
        }));
        // The stream carries on: the groups the hostile chunks condemned
        // are reset, and the rest of it arrives whole.
        for s in rx.failed_starts() {
            rx.reset_group(s);
        }
        rx.release(32);
        for c in tpdus[4..].iter().flat_map(|t| t.all_chunks()) {
            rx.handle_chunk_into(c, 2, &mut Vec::new());
        }
        let rest = [rx.readable().0, rx.readable().1].concat();
        assert_eq!(rest, message[128..], "{mode:?}");
        assert_eq!(rx.verified_prefix(), 256);
    }
}

fn valid_exemplars() -> Vec<Vec<u8>> {
    use chunks::core::chunk::{byte_chunk, Chunk, ChunkHeader};
    use chunks::core::label::{ChunkType, FramingTuple};

    let t = |id, sn| FramingTuple::new(id, sn, false);
    let control = |ty, size: u16| {
        Chunk::new(
            ChunkHeader::control(ty, size, t(5, 0), t(0, 0), t(0, 0)),
            vec![0x5Au8; size as usize].into(),
        )
        .unwrap()
    };
    let mut frames = Vec::new();
    for chunk in [
        byte_chunk(t(5, 64), t(0, 64), t(0xE, 0), &[0xA5u8; 24]),
        control(ChunkType::ErrorDetection, 8),
        control(ChunkType::Signal, 6),
        control(ChunkType::Ack, 14),
    ] {
        let mut buf = Vec::new();
        wire::encode_chunk(&chunk, &mut buf);
        frames.push(buf);
    }
    frames.push(vec![0u8; wire::WIRE_HEADER_LEN]); // end-of-packet marker
    frames
}

/// Deterministic byte-mangling fuzz loop over every valid header form: every
/// single-bit flip, every truncation, and a seeded multi-byte mangle. The
/// decoder must always return a typed [`chunks::core::error::CoreError`] or
/// a consistent success — never panic, never read past the buffer.
#[test]
fn decoder_survives_systematic_mangling_of_all_valid_headers() {
    for original in valid_exemplars() {
        // Every single-bit flip of the encoding.
        for at in 0..original.len() {
            for bit in 0..8 {
                let mut buf = original.clone();
                buf[at] ^= 1u8 << bit;
                if let Ok((_, used)) = wire::decode_chunk(&buf) {
                    assert!(used <= buf.len(), "decoder claimed {used} of {}", buf.len());
                }
                let _ = wire::decode_header(&buf);
            }
        }
        // Every truncation point.
        for cut in 0..original.len() {
            let _ = wire::decode_chunk(&original[..cut]);
        }
        // Seeded multi-byte mangle: 1..=4 bytes rewritten per iteration.
        let mut state = 0x1D_F00Du64;
        let mut next = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        for _ in 0..2_000 {
            let mut buf = original.clone();
            for _ in 0..=next(4) {
                let at = next(buf.len());
                buf[at] = next(256) as u8;
            }
            let _ = wire::decode_chunk(&buf);
        }
    }
}

/// The same mangling applied at the packet level: a frame holding every
/// exemplar chunk, bit-flipped everywhere, must always unpack to a typed
/// result — and an adversarial `SIZE`/`LEN` pair claiming a near-2^48
/// payload must be refused as `OversizedLen` before any allocation.
#[test]
fn packet_unpack_survives_systematic_mangling() {
    use chunks::core::error::CoreError;
    use chunks::core::packet::{spans, unpack, validate};

    let frame: Vec<u8> = valid_exemplars().concat();
    for at in 0..frame.len() {
        for bit in 0..8 {
            let mut buf = frame.clone();
            buf[at] ^= 1u8 << bit;
            let p = Packet { bytes: buf.into() };
            // The production scan and the owned reference agree on the
            // verdict, the error kind and the chunk count.
            assert_eq!(
                validate(&p).map_err(|e| e.kind()),
                unpack(&p).map(|c| c.len()).map_err(|e| e.kind()),
                "byte {at} bit {bit}"
            );
            // Even unvalidated, the walk yields only spans that decode.
            for (lo, hi) in spans(&p) {
                let (_, used) = wire::decode_chunk_ref(&p.bytes[lo..])
                    .unwrap_or_else(|e| panic!("byte {at} bit {bit}: span {lo}..{hi}: {e}"));
                assert_eq!(used, hi - lo, "byte {at} bit {bit}");
            }
        }
    }
    // Hostile length claim: SIZE = 0xFFFF, LEN = 0xFFFF_FFFF.
    let mut buf = frame;
    buf[2] = 0xFF;
    buf[3] = 0xFF;
    buf[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
    assert!(matches!(
        wire::decode_chunk(&buf),
        Err(CoreError::OversizedLen { .. })
    ));
}

/// A real multi-chunk frame from the sender (data + ED + padding marker).
fn real_frame() -> Vec<u8> {
    let mut tx = Sender::new(SenderConfig {
        params: params(),
        layout: layout(),
        mtu: 512,
        min_tpdu_elements: 4,
        max_tpdu_elements: 32,
    });
    tx.submit_simple(&[0x3Cu8; 96], 0xE, false);
    let packets = tx.packets_for_pending().unwrap();
    packets[0].bytes.to_vec()
}

/// Every truncation of a real frame — including the cuts that land
/// mid-label, inside the 32-byte header — must be rejected by the zero-copy
/// path without panicking, exactly as the owned `unpack` rejects it. A
/// truncated packet is whole-packet-rejected: nothing is delivered from it.
#[test]
fn zero_copy_path_rejects_every_mid_label_truncation() {
    use chunks::core::packet::{unpack, validate};

    let frame = real_frame();
    for cut in 0..frame.len() {
        let packet = Packet {
            bytes: frame[..cut].to_vec().into(),
        };
        let v = validate(&packet);
        let u = unpack(&packet);
        assert_eq!(
            v.is_err(),
            u.is_err(),
            "cut at {cut}: validate and unpack must agree"
        );
        let mut rx = Receiver::new(DeliveryMode::Immediate, params(), layout(), 4096);
        rx.handle_packet_into(&packet, 0, &mut Vec::new());
        if v.is_err() {
            assert_eq!(rx.stats.bad_packets, 1, "cut at {cut} must count as bad");
            assert_eq!(rx.stats.chunks_accepted, 0, "atomic reject at cut {cut}");
        }
    }
}

/// The streaming span walk never yields a span past the `Bytes` tail, even
/// on mangled frames, and every span a validated packet yields decodes to a
/// payload that *borrows* the packet's buffer — pointer-provably no copy.
#[test]
fn spans_stay_inside_the_buffer_and_payloads_borrow_it() {
    use chunks::core::packet::{spans, validate};

    let original = real_frame();
    let mut state = 0xBEEFu64;
    let mut next = move |m: usize| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % m
    };
    for round in 0..4_000 {
        let mut buf = original.clone();
        // Rounds 0.. mangle 0–3 bytes (round 0 leaves the frame valid).
        for _ in 0..next(4).min(round) {
            let at = next(buf.len());
            buf[at] = next(256) as u8;
        }
        let packet = Packet { bytes: buf.into() };
        if validate(&packet).is_err() {
            continue;
        }
        let range = packet.bytes.as_ptr_range();
        for (at, end) in spans(&packet) {
            assert!(
                end <= packet.bytes.len() && at < end,
                "span ({at}, {end}) exceeds {} bytes",
                packet.bytes.len()
            );
            let (chunk, used) = wire::decode_chunk_ref(&packet.bytes[at..])
                .expect("validated packet must decode at every span");
            assert_eq!(at + used, end, "span length disagrees with decode");
            if !chunk.payload.is_empty() {
                let p = chunk.payload.as_ptr_range();
                assert!(
                    p.start >= range.start && p.end <= range.end,
                    "payload was copied out of the packet buffer"
                );
            }
        }
    }
}

/// The deterministic mangling set, at the packet level: every single-bit
/// flip, a truncation at every offset (through each 32-byte label), hostile
/// `SIZE`/`LEN` claims on each chunk, the empty frame, and tails of
/// sub-header garbage, of garbage behind the end marker, and of padding.
fn mangled_frames(original: &[u8]) -> Vec<Vec<u8>> {
    use chunks::core::packet::spans;

    let mut frames = vec![original.to_vec(), Vec::new()];
    for at in 0..original.len() {
        for bit in 0..8 {
            let mut buf = original.to_vec();
            buf[at] ^= 1u8 << bit;
            frames.push(buf);
        }
        frames.push(original[..at].to_vec());
    }
    let whole = Packet {
        bytes: original.to_vec().into(),
    };
    for (at, _) in spans(&whole) {
        for (size, len) in [(0xFFFFu16, u32::MAX), (0, 1), (1, 0), (0x0100, 0x0001_0000)] {
            let mut buf = original.to_vec();
            buf[at + 2..at + 4].copy_from_slice(&size.to_be_bytes());
            buf[at + 4..at + 8].copy_from_slice(&len.to_be_bytes());
            frames.push(buf);
        }
    }
    for tail in [&[0u8, 0, 0x99][..], &[0u8; 40], &[0u8; 7]] {
        let mut buf = original.to_vec();
        buf.extend_from_slice(tail);
        frames.push(buf);
    }
    let mut behind_marker = original.to_vec();
    behind_marker.extend_from_slice(&[0u8; wire::WIRE_HEADER_LEN]);
    behind_marker.push(0x42);
    frames.push(behind_marker);
    frames
}

/// The network element takes the same wire input the receiver does. Under
/// every conversion policy the router must come through the mangling set
/// without a panic — this test runs in the debug profile, overflow checks on
/// — emit only frames that validate and fit its egress MTU, and drop exactly
/// the frames the owned `unpack` refuses.
#[test]
fn router_survives_systematic_mangling_under_every_policy() {
    use chunks::core::packet::{unpack, validate};
    use chunks::netsim::{ChunkRouter, PacketTransform, Profile, RefragPolicy};

    let h = wire::WIRE_HEADER_LEN;
    let mut frames = mangled_frames(&valid_exemplars().concat());
    frames.extend(mangled_frames(&real_frame()));
    let frames: Vec<Bytes> = frames.into_iter().map(Bytes::from).collect();
    let refused = frames
        .iter()
        .filter(|f| {
            unpack(&Packet {
                bytes: (*f).clone(),
            })
            .is_err()
        })
        .count() as u64;
    assert!(refused > 1000 && refused < frames.len() as u64);

    let policies = [
        RefragPolicy::OnePerPacket,
        RefragPolicy::Repack,
        RefragPolicy::Reassemble { window: 5 },
        RefragPolicy::DropOversize,
    ];
    // Wide: every element the frames can carry fits, so the only refusals
    // are malformed frames. Narrow: chunks split, and a mangled `SIZE` may
    // exceed the envelope, which is refused as well.
    for (egress, wide) in [(h + 1024, true), (h + 9, false)] {
        for policy in policies {
            let mut router = ChunkRouter::new(egress, policy);
            let mut emitted = Vec::new();
            for (i, f) in frames.iter().enumerate() {
                router.ingest(i as u64, f.clone(), &mut emitted);
            }
            router.flush(frames.len() as u64, &mut emitted);
            let held = emitted.len();
            router.flush(frames.len() as u64, &mut emitted);
            assert_eq!(emitted.len(), held, "a flushed router holds nothing");
            for f in &emitted {
                assert!(f.len() <= egress, "{policy:?}: {} > {egress}", f.len());
                if policy != RefragPolicy::DropOversize {
                    let p = Packet { bytes: f.clone() };
                    assert!(validate(&p).is_ok(), "{policy:?} emitted a malformed frame");
                }
            }
            if policy == RefragPolicy::DropOversize {
                let oversize = frames.iter().filter(|f| f.len() > egress).count() as u64;
                assert_eq!(router.drops, oversize);
            } else if wide {
                assert_eq!(router.drops, refused, "{policy:?}");
            } else {
                assert!(router.drops >= refused, "{policy:?}");
            }
        }
    }

    // The same set through a whole path: wide link, refragmenting router,
    // narrow link.
    let mtu = 768;
    let narrow = h + mtu / 4;
    let mut path = Profile::Fragmenting.build(mtu, 0xAD5E);
    let inputs = frames
        .iter()
        .enumerate()
        .map(|(i, f)| (i as u64 * 1_000, f.clone()))
        .collect();
    let deliveries = path.run(inputs);
    assert!(!deliveries.is_empty());
    for d in deliveries {
        assert!(d.frame.len() <= narrow);
        let p = d.frame;
        assert!(validate(&p).is_ok());
    }
    assert_eq!(path.hops()[1].link.stats().oversize, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A batch boundary that splits a chunk header across two packets must
    /// reject both fragments cleanly — serial `ingest_batch` and the
    /// parallel dispatcher alike — with no panic and no partial delivery
    /// from the malformed halves.
    #[test]
    fn batch_boundary_splitting_a_chunk_header_rejects_cleanly(split in 1usize..512) {
        use chunks::core::packet::{spans, validate};
        use chunks::transport::{ConnSpec, Engine, ParallelReceiver, Schedule};

        let frame = real_frame();
        let split = split % frame.len();
        prop_assume!(split != 0);
        // Only cuts that land strictly *inside* a chunk: a boundary-aligned
        // split yields two well-formed packets, which is not this test.
        let whole = Packet { bytes: frame.clone().into() };
        prop_assume!(!spans(&whole).any(|(at, end)| split == at || split == end));
        let batch = [
            Packet { bytes: frame[..split].to_vec().into() },
            Packet { bytes: frame[split..].to_vec().into() },
        ];
        let bad = batch.iter().filter(|p| validate(p).is_err()).count() as u64;
        // A mid-chunk cut corrupts at least the head fragment (its last
        // chunk is truncated), usually the tail too.
        prop_assert!(bad >= 1);

        let mut rx = Receiver::new(DeliveryMode::Immediate, params(), layout(), 4096);
        let mut out = Vec::new();
        rx.ingest_batch(&batch, 0, &mut out);
        prop_assert_eq!(rx.stats.bad_packets, bad);

        let mut pr = ParallelReceiver::new(
            2,
            Engine::Virtual(Schedule::Fair),
            vec![ConnSpec::new(params(), layout(), DeliveryMode::Immediate, 4096)],
        );
        pr.ingest_batch(&batch, 0);
        let outcome = pr.finish();
        prop_assert_eq!(outcome.dispatch.bad_packets, bad);
        prop_assert_eq!(outcome.dispatch.decode_errors, 0);
    }
}
