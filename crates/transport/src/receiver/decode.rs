//! Stage 1, **decode**: the one route from wire bytes to chunks in this
//! crate, and the verbose-tier record of what that walk saw. Shared by the
//! serial receiver, the demux, the parallel dispatcher and the stream
//! receiver.

use chunks_core::chunk::{Chunk, ChunkHeader};
use chunks_core::error::CoreError;
use chunks_core::packet::{spans, validate, Packet};
use chunks_core::wire::{decode_chunk_at, decode_header};
use chunks_obs::{Event, Labels, ObsSink};

/// The observability label triple `(C.ID, T.SN, X.SN)` of a header.
pub(crate) fn labels_of(h: &ChunkHeader) -> Labels {
    Labels::new(h.conn.id, h.tpdu.sn, h.ext.sn)
}

/// The one route from wire bytes to chunks in this crate: an allocation-free
/// validation scan, so a malformed chunk rejects the whole packet, then each
/// chunk decoded in place with its payload borrowing the packet's `Bytes`.
pub(crate) fn wire_chunks(packet: &Packet) -> Result<impl Iterator<Item = Chunk> + '_, CoreError> {
    validate(packet)?;
    Ok(spans(packet).filter_map(|(at, _)| {
        let decoded = decode_chunk_at(&packet.bytes, at);
        debug_assert!(decoded.is_ok(), "a yielded span must decode");
        decoded.ok().map(|(chunk, _)| chunk)
    }))
}

/// Verbose-tier record of one accepted wire chunk: the
/// `core.wire.chunks_decoded` counter and a [`Event::ChunkDecoded`] event.
pub(crate) fn observe_decoded(sink: &dyn ObsSink, now: u64, h: &ChunkHeader, payload_len: usize) {
    sink.counter("core.wire.chunks_decoded", 1);
    sink.event(
        now,
        Event::ChunkDecoded {
            labels: labels_of(h),
            ty: h.ty.to_u8(),
            bytes: payload_len as u32,
        },
    );
}

/// Verbose-only pre-pass over a packet, run before any of its chunks is
/// handled so the trace lists a packet's decode verdicts ahead of their
/// consequences: one `ChunkDecoded` per chunk the walk yields, then — when
/// `refused` is the packet's [`validate`] error — one `ChunkRejected` for
/// the chunk that stopped it. A bad short tail, garbage after the end marker
/// and a header [`decode_header`] itself refuses stop the packet without a
/// per-chunk event: there is no chunk to attribute them to.
pub(super) fn observe_packet(
    sink: &dyn ObsSink,
    packet: &Packet,
    now: u64,
    refused: Option<&CoreError>,
) {
    let mut at = 0;
    for (lo, hi) in spans(packet) {
        if let Ok(h) = decode_header(&packet.bytes[lo..]) {
            observe_decoded(sink, now, &h, hi - lo - chunks_core::WIRE_HEADER_LEN);
        }
        at = hi;
    }
    let Some(why) = refused else { return };
    match decode_header(&packet.bytes[at..]) {
        Ok(h) if h.len != 0 => {
            sink.counter("core.wire.decode_rejects", 1);
            sink.event(
                now,
                Event::ChunkRejected {
                    labels: labels_of(&h),
                    reason: why.kind(),
                },
            );
        }
        _ => {}
    }
}
