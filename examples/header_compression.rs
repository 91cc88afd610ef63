//! Header compression — the invertible syntax transforms of Appendix A.
//!
//! A burst of related chunks is encoded under every header form; the
//! example prints the byte cost of each and shows that the implicit-`T.ID`
//! form survives fragmentation (because `C.SN − T.SN` is a fragmentation
//! invariant, Figure 7).
//!
//! ```sh
//! cargo run --example header_compression
//! ```

use chunks::core::frag::split;
use chunks::core::label::ChunkType;
use chunks::core::wire::WIRE_HEADER_LEN;
use chunks::core::{Chunk, ChunkHeader, FramingTuple};
use chunks::experiments::compress::{
    decode_header_form, decode_packet_delta, encode_header_form, encode_packet_delta, implicit_tid,
    HeaderForm, SignalledContext,
};

fn conforming_chunk(c_sn: u32, t_sn: u32, len: u32) -> Chunk {
    let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
    Chunk::new(
        ChunkHeader::data(
            1,
            len,
            FramingTuple::new(0xA, c_sn, false),
            // A conforming sender labels T.ID = C.SN - T.SN so the implicit
            // form applies.
            FramingTuple::new(implicit_tid(c_sn, t_sn), t_sn, true),
            FramingTuple::new(0xC, 24, false),
        ),
        payload.into(),
    )
    .unwrap()
}

fn main() {
    // The Figure 7 derivation.
    println!("Figure 7 — implicit T.ID = C.SN - T.SN:");
    let c_sn = [35u32, 36, 37, 38, 39, 40, 41, 42];
    let t_sn = [5u32, 0, 1, 2, 3, 4, 5, 0];
    for (c, t) in c_sn.iter().zip(&t_sn) {
        print!("  {}", implicit_tid(*c, *t));
    }
    println!("\n");

    let chunk = conforming_chunk(36, 0, 7);
    let mut ctx = SignalledContext::new();
    ctx.signal_size(ChunkType::Data, 1); // SIZE signalled at establishment

    println!(
        "header forms for one chunk (payload {} B):",
        chunk.payload.len()
    );
    for (name, form) in [
        ("full fixed-field ", HeaderForm::Full),
        ("implicit T.ID    ", HeaderForm::ImplicitTid),
        ("signalled SIZE   ", HeaderForm::SizeElided),
        ("compact (both)   ", HeaderForm::Compact),
    ] {
        let mut buf = Vec::new();
        encode_header_form(&chunk.header, form, &ctx, &mut buf).unwrap();
        let (decoded, _) = decode_header_form(&buf, form, &ctx).unwrap();
        assert_eq!(decoded, chunk.header, "transform must be invertible");
        println!(
            "  {name} {:>2} B  (saves {} B, round-trips)",
            buf.len(),
            WIRE_HEADER_LEN - buf.len(),
        );
    }

    // The implicit form survives fragmentation: split the chunk and decode
    // both pieces without any explicit T.ID on the wire.
    let (a, b) = split(&chunk, 3).unwrap();
    for (label, piece) in [("head", &a), ("tail", &b)] {
        let mut buf = Vec::new();
        encode_header_form(&piece.header, HeaderForm::ImplicitTid, &ctx, &mut buf).unwrap();
        let (decoded, _) = decode_header_form(&buf, HeaderForm::ImplicitTid, &ctx).unwrap();
        assert_eq!(decoded.tpdu.id, chunk.header.tpdu.id);
        println!(
            "  fragment {label}: derived T.ID = {} (C.SN {} - T.SN {})",
            decoded.tpdu.id, decoded.conn.sn, decoded.tpdu.sn
        );
    }

    // Intra-packet delta: a fragmented pair continues, so the second header
    // is nearly free.
    let full: usize = [&a, &b].iter().map(|c| c.wire_len()).sum();
    let delta = encode_packet_delta(&[a.clone(), b.clone()]);
    assert_eq!(decode_packet_delta(&delta).unwrap(), vec![a, b]);
    println!(
        "\nintra-packet delta: pair costs {} B vs {} B full ({} B saved)",
        delta.len(),
        full,
        full - delta.len()
    );
}
