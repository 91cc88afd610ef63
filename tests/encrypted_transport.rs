//! Encrypted transport end to end: the sender encrypts with the
//! position-keyed cipher before framing (SIZE = cipher block, so no
//! fragment ever splits a block — §2's DES example), the network fragments
//! and reorders, and the receiver decrypts each verified TPDU without any
//! ordering constraint.

use chunks::cipher::{decrypt_chunk, encrypt_chunk, PositionCipher, BLOCK_BYTES};
use chunks::core::frag::split_to_fit;
use chunks::core::packet::{pack, unpack};
use chunks::core::wire::WIRE_HEADER_LEN;
use chunks::netsim::{LinkConfig, PathBuilder};
use chunks::transport::{ConnectionParams, DeliveryMode, Framer, Receiver, RxEvent};
use chunks::wsc::InvariantLayout;

fn params() -> ConnectionParams {
    ConnectionParams {
        conn_id: 0xEC,
        elem_size: BLOCK_BYTES as u16,
        initial_csn: 0,
        tpdu_elements: 128, // 1 KiB TPDUs of 8-byte blocks
    }
}

#[test]
fn encrypted_blocks_cross_a_fragmenting_reordering_network() {
    let cipher = PositionCipher::new([0xAAAA, 0xBBBB]);
    let layout = InvariantLayout::default();
    let plaintext: Vec<u8> = (0..8192).map(|i| (i % 251) as u8).collect();

    // Sender: frame the plaintext, then encrypt each chunk in place (the
    // ED chunk is computed over the *ciphertext*, so the network-visible
    // invariant never exposes plaintext).
    let mut framer = Framer::new(params(), layout);
    let tpdus = framer.frame_simple(&plaintext, 0xF, false);
    let mut wire_chunks = Vec::new();
    for t in &tpdus {
        let mut inv = chunks::wsc::TpduInvariant::new(layout).unwrap();
        for c in &t.chunks {
            let enc = encrypt_chunk(&cipher, c).unwrap();
            inv.absorb_chunk(&enc.header, &enc.payload).unwrap();
            wire_chunks.push(enc);
        }
        let mut ed = t.ed.clone();
        ed.payload = bytes::Bytes::copy_from_slice(&inv.digest());
        wire_chunks.push(ed);
    }
    // Pre-fragment aggressively so the network sees many small pieces.
    let wire_chunks: Vec<_> = wire_chunks
        .into_iter()
        .flat_map(|c| {
            if c.header.ty == chunks::core::label::ChunkType::Data {
                split_to_fit(c, WIRE_HEADER_LEN + 8 * BLOCK_BYTES).unwrap()
            } else {
                vec![c]
            }
        })
        .collect();
    let packets = pack(wire_chunks, 256).unwrap();

    // Network: skewed multipath.
    let mut path = PathBuilder::new(0xE2E)
        .multipath(4, LinkConfig::clean(256, 90_000, 155_000_000), 70_000)
        .build();
    let inputs = packets
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u64 * 900, p.bytes))
        .collect();

    // Receiver: verify ciphertext TPDUs on arrival; decrypt each chunk
    // independently as it is accepted (no ordering needed).
    let mut rx = Receiver::new(DeliveryMode::Immediate, params(), layout, 4096);
    let mut clear = vec![0u8; plaintext.len()];
    let mut delivered = 0u64;
    for d in path.run(inputs) {
        let packet = d.frame;
        // Decrypt-on-arrival into the plaintext buffer, independent of the
        // receiver's ciphertext verification.
        for c in unpack(&packet).unwrap() {
            if c.header.ty == chunks::core::label::ChunkType::Data {
                let dec = decrypt_chunk(&cipher, &c).unwrap();
                let at = dec.header.conn.sn as usize * BLOCK_BYTES;
                clear[at..at + dec.payload.len()].copy_from_slice(&dec.payload);
            }
        }
        let mut events = Vec::new();
        rx.handle_packet_into(&packet, d.time, &mut events);
        for e in events {
            if let RxEvent::TpduDelivered { elements, .. } = e {
                delivered += elements;
            }
        }
    }

    assert_eq!(delivered, (plaintext.len() / BLOCK_BYTES) as u64);
    assert_eq!(clear, plaintext, "disordered decryption is exact");
    // The ciphertext that crossed the wire never equals the plaintext.
    assert_ne!(&rx.app_data()[..64], &plaintext[..64]);
}

#[test]
fn block_cipher_blocks_survive_every_fragmentation_grain() {
    // SIZE=8 means split_to_fit can never produce a partial block, whatever
    // the MTU — try every MTU from one block upward.
    let cipher = PositionCipher::new([7, 9]);
    let payload: Vec<u8> = (0..256).map(|i| i as u8).collect();
    let whole = chunks::core::Chunk::new(
        chunks::core::ChunkHeader::data(
            8,
            32,
            chunks::core::FramingTuple::new(1, 0, false),
            chunks::core::FramingTuple::new(2, 0, true),
            chunks::core::FramingTuple::new(3, 0, true),
        ),
        payload.clone().into(),
    )
    .unwrap();
    let enc = encrypt_chunk(&cipher, &whole).unwrap();
    for extra in 0..5usize {
        let mtu = WIRE_HEADER_LEN + 8 * (extra + 1);
        let pieces = split_to_fit(enc.clone(), mtu).unwrap();
        let mut rebuilt = vec![0u8; payload.len()];
        for p in pieces {
            assert_eq!(p.payload.len() % 8, 0, "no split block at mtu {mtu}");
            let dec = decrypt_chunk(&cipher, &p).unwrap();
            let at = dec.header.tpdu.sn as usize * 8;
            rebuilt[at..at + dec.payload.len()].copy_from_slice(&dec.payload);
        }
        assert_eq!(rebuilt, payload);
    }
}
