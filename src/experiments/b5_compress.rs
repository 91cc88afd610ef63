//! B5: header-compression ablation (Appendix A).
//!
//! The same framed workload is encoded under each invertible header form —
//! full fixed-field, implicit `T.ID`, signalled `SIZE`, both, and the
//! intra-packet delta codec — and the per-chunk header cost compared. All
//! transforms are verified to round-trip (invertibility is the Appendix A
//! requirement).

use std::fmt;

use chunks_core::chunk::Chunk;
use chunks_core::label::ChunkType;
use chunks_core::wire::WIRE_HEADER_LEN;
use chunks_transport::{AlfFrame, ConnectionParams, Framer};
use chunks_wsc::InvariantLayout;

use super::compress::{
    decode_header_form, decode_packet_delta, encode_header_form, encode_packet_delta, implicit_tid,
    HeaderForm, SignalledContext, SnRegenDecoder, SnRegenEncoder,
};

/// Result row for one header form.
#[derive(Clone, Debug)]
pub struct B5Row {
    /// Form name.
    pub form: &'static str,
    /// Total header bytes for the workload.
    pub header_bytes: usize,
    /// Average header bytes per chunk.
    pub per_chunk: f64,
    /// Savings versus the full form.
    pub savings_pct: f64,
    /// Round-trip verified.
    pub invertible: bool,
}

/// Full B5 result.
pub struct B5Result {
    /// Number of chunks in the workload.
    pub chunks: usize,
    /// Payload bytes in the workload.
    pub payload_bytes: usize,
    /// Rows per form.
    pub rows: Vec<B5Row>,
}

impl fmt::Display for B5Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== B5 — header compression (Appendix A): {} chunks, {} payload bytes ===",
            self.chunks, self.payload_bytes
        )?;
        writeln!(
            f,
            "  {:<22} {:>13} {:>11} {:>9} {:>11}",
            "form", "header bytes", "per chunk", "savings", "invertible"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<22} {:>13} {:>11.1} {:>8.1}% {:>11}",
                r.form,
                r.header_bytes,
                r.per_chunk,
                r.savings_pct,
                if r.invertible { "yes" } else { "NO" }
            )?;
        }
        Ok(())
    }
}

/// Builds a realistic workload: a stream framed into TPDUs and ALF frames,
/// with conforming labels (`T.ID = C.SN − T.SN`) so the implicit form
/// applies.
fn workload() -> Vec<Chunk> {
    let params = ConnectionParams {
        conn_id: 9,
        elem_size: 4,
        initial_csn: 1_000,
        tpdu_elements: 256,
    };
    let mut framer = Framer::new(params, InvariantLayout::default());
    let data = vec![0xA5u8; 16 * 1024];
    let elements = (data.len() / 4) as u32;
    // 64-element application frames: four chunks per 256-element TPDU, the
    // shape a real mixed framing produces.
    let alf: Vec<AlfFrame> = (0..64)
        .map(|i| AlfFrame {
            id: 0x100 + i,
            len_elements: elements / 64,
        })
        .collect();
    let tpdus = framer.frame_stream(&data, &alf, false);
    let mut chunks: Vec<Chunk> = tpdus.iter().flat_map(|t| t.all_chunks()).collect();
    for c in &mut chunks {
        c.header.tpdu.id = implicit_tid(c.header.conn.sn, c.header.tpdu.sn);
    }
    chunks
}

/// Runs B5.
pub fn run() -> B5Result {
    let chunks = workload();
    let payload_bytes: usize = chunks.iter().map(|c| c.payload.len()).sum();
    let mut ctx = SignalledContext::new();
    ctx.signal_size(ChunkType::Data, 4);
    ctx.signal_size(ChunkType::ErrorDetection, 8);
    ctx.signal_size(ChunkType::Signal, 16);
    ctx.signal_size(ChunkType::Ack, 16);

    let full_total = chunks.len() * WIRE_HEADER_LEN;
    let mut rows = Vec::new();
    for (name, form) in [
        ("full fixed-field", HeaderForm::Full),
        ("implicit T.ID", HeaderForm::ImplicitTid),
        ("signalled SIZE", HeaderForm::SizeElided),
        ("compact (both)", HeaderForm::Compact),
    ] {
        let mut bytes = 0usize;
        let mut invertible = true;
        for c in &chunks {
            let mut buf = Vec::new();
            encode_header_form(&c.header, form, &ctx, &mut buf).expect("conforming labels");
            bytes += buf.len();
            let (h, _) = decode_header_form(&buf, form, &ctx).expect("decodable");
            invertible &= h == c.header;
        }
        rows.push(B5Row {
            form: name,
            header_bytes: bytes,
            per_chunk: bytes as f64 / chunks.len() as f64,
            savings_pct: (full_total - bytes) as f64 * 100.0 / full_total as f64,
            invertible,
        });
    }

    // Intra-packet delta: group chunks in packet-sized runs of 8 and encode
    // each run; header cost = encoded − payload.
    let mut delta_header = 0usize;
    let mut invertible = true;
    for group in chunks.chunks(8) {
        let buf = encode_packet_delta(group);
        let payload: usize = group.iter().map(|c| c.payload.len()).sum();
        delta_header += buf.len() - payload;
        invertible &= decode_packet_delta(&buf).as_deref() == Ok(group);
    }
    rows.push(B5Row {
        form: "intra-packet delta",
        header_bytes: delta_header,
        per_chunk: delta_header as f64 / chunks.len() as f64,
        savings_pct: (full_total - delta_header) as f64 * 100.0 / full_total as f64,
        invertible,
    });

    // SN regeneration (in-order channels only): SNs elided except at
    // resynchronization points.
    let mut enc = SnRegenEncoder::new(64);
    let mut dec = SnRegenDecoder::new();
    let mut regen_bytes = 0usize;
    let mut invertible = true;
    for c in &chunks {
        let mut buf = Vec::new();
        enc.encode(&c.header, &mut buf);
        regen_bytes += buf.len();
        let (h, _) = dec.decode(&buf).expect("in-order stream decodes");
        invertible &= h == c.header;
    }
    rows.push(B5Row {
        form: "SN regeneration",
        header_bytes: regen_bytes,
        per_chunk: regen_bytes as f64 / chunks.len() as f64,
        savings_pct: (full_total - regen_bytes) as f64 * 100.0 / full_total as f64,
        invertible,
    });

    B5Result {
        chunks: chunks.len(),
        payload_bytes,
        rows,
    }
}
