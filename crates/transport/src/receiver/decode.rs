//! Stage 1, **decode**: the one route from wire bytes to chunks in this
//! crate, and the verbose-tier record of what that walk saw. Shared by the
//! serial receiver and by both demultiplexing front-ends: `ConnectionDemux`
//! and the `ParallelReceiver` dispatcher walk a packet here and route each
//! chunk through one `TYPE` match (`mux::route`). A parallel worker reads
//! the label again, in place, from the span it was handed: the work item
//! carries the span's bytes, not the decoded header, so that it stays small.
//!
//! The walk borrows. It yields each chunk's label and the byte range of its
//! payload inside the packet, and the receiver reads the payload there. An
//! owned [`Chunk`](chunks_core::chunk::Chunk) — a `Bytes::slice` of the
//! packet, still no copy — is made only where a chunk outlives the call:
//! Reorder/Reassemble staging and the pieces the overlap path extracts.

use std::ops::Range;

use bytes::Bytes;
use chunks_core::chunk::{Chunk, ChunkHeader};
use chunks_core::error::CoreError;
use chunks_core::packet::{spans, validate, Packet};
use chunks_core::wire::decode_header;
use chunks_core::WIRE_HEADER_LEN;
use chunks_obs::{Event, Labels, ObsSink};

/// A chunk where it lies: its label, and its payload as the byte range
/// `span` of `bytes` (a packet, a dispatched span of one, or an owned
/// chunk's own payload).
#[derive(Clone, Debug)]
pub(crate) struct WireChunk<'a> {
    pub(crate) header: ChunkHeader,
    pub(crate) bytes: &'a Bytes,
    pub(crate) span: Range<usize>,
}

impl<'a> WireChunk<'a> {
    /// An owned chunk viewed in place.
    pub(crate) fn of(chunk: &'a Chunk) -> Self {
        let span = 0..chunk.payload.len();
        WireChunk {
            header: chunk.header,
            bytes: &chunk.payload,
            span,
        }
    }

    /// The payload, read in place.
    pub(crate) fn payload(&self) -> &'a [u8] {
        &self.bytes[self.span.clone()]
    }

    /// An owned chunk whose payload shares `bytes`' buffer (no byte is
    /// copied), for a chunk that outlives the call.
    pub(crate) fn to_chunk(&self) -> Chunk {
        Chunk {
            header: self.header,
            payload: self.bytes.slice(self.span.clone()),
        }
    }

    /// The chunk as the walk found it, header and payload, in a slice
    /// sharing the packet's buffer — what the parallel dispatcher hands a
    /// worker. Only for a chunk [`chunk_walk`] yielded, whose header lies
    /// just before its payload.
    pub(crate) fn wire(&self) -> Bytes {
        self.bytes
            .slice(self.span.start - WIRE_HEADER_LEN..self.span.end)
    }
}

/// The observability label triple `(C.ID, T.SN, X.SN)` of a header.
pub(crate) fn labels_of(h: &ChunkHeader) -> Labels {
    Labels::new(h.conn.id, h.tpdu.sn, h.ext.sn)
}

/// The one route from wire bytes to chunks in this crate: an allocation-free
/// validation scan, so a malformed chunk rejects the whole packet, then each
/// chunk's label with its payload's byte range in `packet.bytes`.
pub(crate) fn chunk_walk(
    packet: &Packet,
) -> Result<impl Iterator<Item = WireChunk<'_>> + Clone, CoreError> {
    validate(packet)?;
    Ok(spans(packet).filter_map(|(at, end)| {
        let header = decode_header(&packet.bytes[at..]);
        debug_assert!(header.is_ok(), "a yielded span must decode");
        Some(WireChunk {
            header: header.ok()?,
            bytes: &packet.bytes,
            span: at + WIRE_HEADER_LEN..end,
        })
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
            observe_decoded(sink, now, &h, hi - lo - WIRE_HEADER_LEN);
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

#[cfg(test)]
mod tests {
    use chunks_core::packet::{pack, Packet};
    use chunks_obs::Event;
    use chunks_wsc::InvariantLayout;

    use crate::conn::ConnectionParams;
    use crate::frame::Framer;
    use crate::receiver::{DeliveryMode, Receiver, RxStats};

    fn params() -> ConnectionParams {
        ConnectionParams {
            conn_id: 0xA,
            elem_size: 1,
            initial_csn: 100,
            tpdu_elements: 8,
        }
    }

    fn layout() -> InvariantLayout {
        InvariantLayout::with_data_symbols(4096)
    }

    /// The decode events of a packet a recording sink saw, as short tags.
    fn decode_trace(frame: Vec<u8>) -> (Vec<&'static str>, RxStats) {
        let sink = chunks_obs::Recorder::verbose_tier(chunks_obs::DEFAULT_TRACE_CAPACITY);
        let mut r = Receiver::new(DeliveryMode::Immediate, params(), layout(), 1 << 16)
            .with_obs(sink.clone());
        r.handle_packet(
            &Packet {
                bytes: frame.into(),
            },
            0,
        );
        let tags = sink
            .events()
            .iter()
            .filter_map(|e| match e.event {
                Event::ChunkDecoded { .. } => Some("decoded"),
                Event::ChunkRejected { reason, .. } => Some(reason),
                _ => None,
            })
            .collect();
        (tags, r.stats)
    }

    #[test]
    fn verbose_pre_pass_lists_decode_verdicts_before_any_chunk_is_handled() {
        // One TPDU: data chunk + ED chunk in a single frame.
        let tpdus = Framer::new(params(), layout()).frame_simple(b"abcdefgh", 0xF, false);
        let frame = pack(tpdus[0].all_chunks(), 1500).unwrap()[0].bytes.to_vec();
        let (tags, stats) = decode_trace(frame.clone());
        assert_eq!(tags, ["decoded", "decoded"]);
        assert_eq!((stats.bad_packets, stats.chunks_accepted), (0, 1));

        // Cut inside the second chunk: its predecessor is still listed,
        // the cut chunk is the one rejection, and nothing is handled.
        let (tags, stats) = decode_trace(frame[..frame.len() - 1].to_vec());
        assert_eq!(tags, ["decoded", "truncated"]);
        assert_eq!((stats.bad_packets, stats.chunks_accepted), (1, 0));

        // Failures with no chunk to attribute them to reject the packet
        // without a per-chunk event: garbage after the end marker...
        let mut padded = frame.clone();
        padded.extend_from_slice(&[0; 40]);
        *padded.last_mut().unwrap() = 9;
        let (tags, stats) = decode_trace(padded);
        assert_eq!(tags, ["decoded", "decoded"]);
        assert_eq!((stats.bad_packets, stats.chunks_accepted), (1, 0));
        // ...a nonzero tail shorter than a header...
        let mut tail = frame.clone();
        tail.extend_from_slice(&[0, 0, 7]);
        assert_eq!(decode_trace(tail).0, ["decoded", "decoded"]);
        // ...and a TYPE byte `decode_header` itself refuses.
        let mut bad_type = frame;
        bad_type[0] = 0x7F;
        let (tags, stats) = decode_trace(bad_type);
        assert!(tags.is_empty());
        assert_eq!(stats.bad_packets, 1);
    }
}
