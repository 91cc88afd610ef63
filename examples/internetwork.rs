//! Internetworking — Figure 4 live: a TPDU crosses networks whose MTUs
//! shrink and grow; routers empty chunks from one envelope size into
//! another (split, repack, or reassemble) and the receiver sees ordinary
//! chunks either way.
//!
//! ```sh
//! cargo run --example internetwork
//! ```

use bytes::Bytes;
use chunks::core::frag::ReassemblyPool;
use chunks::core::packet::{pack, unpack, Packet};
use chunks::core::wire::WIRE_HEADER_LEN;
use chunks::core::{Chunk, ChunkHeader, FramingTuple};
use chunks::netsim::{ChunkRouter, PacketTransform, RefragPolicy};

fn tpdu(bytes: usize) -> Chunk {
    let payload: Vec<u8> = (0..bytes).map(|i| (i * 11 + 5) as u8).collect();
    Chunk::new(
        ChunkHeader::data(
            1,
            bytes as u32,
            FramingTuple::new(0xC0, 0, false),
            FramingTuple::new(0x42, 0, true),
            FramingTuple::new(0xA, 0, true),
        ),
        payload.into(),
    )
    .unwrap()
}

fn main() {
    let whole = tpdu(6_000);
    // Hop MTUs: a 9180-byte ATM network, a 576-byte X.25-era network, and a
    // 4352-byte FDDI network.
    let hops = [9180usize, 576, 4352];
    println!(
        "TPDU of {} bytes crossing networks with MTUs {:?}",
        whole.payload.len(),
        hops
    );

    for (name, regrow_policy) in [
        (
            "method 1 (one chunk per packet)",
            RefragPolicy::OnePerPacket,
        ),
        ("method 2 (combine chunks)", RefragPolicy::Repack),
        (
            "method 3 (reassemble in network)",
            RefragPolicy::Reassemble { window: 12 },
        ),
    ] {
        // First hop: sender packs for the ATM network.
        let frames: Vec<Bytes> = pack(vec![whole.clone()], hops[0])
            .unwrap()
            .into_iter()
            .map(|p| p.bytes)
            .collect();
        print!("{name}: {} ATM frames", frames.len());

        // Router into the small network always splits/repacks.
        // Frames travel as handles; each router writes its emission into
        // one buffer and hands the frames on as slices of it.
        let mut shrink = ChunkRouter::new(hops[1], RefragPolicy::Repack);
        let mut small = Vec::new();
        for f in frames {
            shrink.ingest(0, f, &mut small);
        }
        print!(
            " -> {} small frames (router split {} chunks)",
            small.len(),
            shrink.splits
        );

        // Router back into the large network applies the chosen method.
        let mut grow = ChunkRouter::new(hops[2], regrow_policy);
        let mut out = Vec::new();
        for f in small {
            grow.ingest(0, f, &mut out);
        }
        grow.flush(0, &mut out);
        let bytes: usize = out.iter().map(Bytes::len).sum();
        println!(
            " -> {} FDDI frames, {} wire bytes (header overhead {} B, merges {})",
            out.len(),
            bytes,
            bytes - whole.payload.len(),
            grow.merges
        );

        // The receiver's job is identical in all three cases: one-step
        // reassembly of self-describing chunks.
        let mut pool = ReassemblyPool::new();
        for bytes in out {
            for c in unpack(&Packet { bytes }).unwrap() {
                pool.insert(c);
            }
        }
        let recovered = pool.take_complete().expect("single-step reassembly");
        assert_eq!(recovered, whole);
    }

    println!(
        "\nall three methods delivered byte-identical TPDUs; \
         chunk header = {WIRE_HEADER_LEN} B regardless of fragmentation history"
    );
}
