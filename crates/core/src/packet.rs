//! Packets as envelopes for chunks (§2, Figure 3).
//!
//! "Packets can be considered envelopes that carry integral numbers of
//! chunks." When a chunk is longer than a packet it is split into chunks
//! that fit; when chunks are smaller than a packet, as many as fit are
//! placed in one packet. A chunk with `LEN = 0` marks the end of the valid
//! chunks when a packet is not completely filled. Because chunks allow
//! disordering, *how* chunks are placed in packets is irrelevant.

use bytes::Bytes;

use crate::chunk::{Chunk, ChunkHeader};
use crate::error::CoreError;
use crate::frag::split_header;
use crate::wire::{decode_chunk, decode_header, encode_header, validated_len, WIRE_HEADER_LEN};

/// A packet: the atomic physical unit exchanged between protocol processors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Packet {
    /// The on-the-wire bytes: a sequence of encoded chunks, optionally
    /// terminated by an end marker and zero padding.
    pub bytes: Bytes,
}

impl Packet {
    /// The packet length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the packet carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Incrementally fills a packet with chunks up to an MTU.
///
/// The buffer is allocated by the first chunk written, so a builder that is
/// never written to — and one handed back by [`take_bytes`](Self::take_bytes)
/// — costs nothing.
#[derive(Debug)]
pub struct PacketBuilder {
    mtu: usize,
    buf: Vec<u8>,
}

impl PacketBuilder {
    /// Creates a builder for packets of at most `mtu` bytes.
    pub fn new(mtu: usize) -> Self {
        PacketBuilder {
            mtu,
            buf: Vec::new(),
        }
    }

    /// Bytes still available in the packet under construction.
    pub fn remaining(&self) -> usize {
        self.mtu - self.buf.len()
    }

    /// True if no chunk has been added yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many data elements of a chunk with element size `size` would
    /// still fit (including the chunk's header).
    pub fn fit_elements(&self, size: u16) -> u32 {
        let rem = self.remaining();
        if rem <= WIRE_HEADER_LEN {
            return 0;
        }
        ((rem - WIRE_HEADER_LEN) / size as usize) as u32
    }

    fn write(&mut self, header: &ChunkHeader, payload: &[u8]) {
        if self.buf.capacity() == 0 {
            self.buf.reserve_exact(self.mtu.min(9216));
        }
        encode_header(header, &mut self.buf);
        self.buf.extend_from_slice(payload);
    }

    /// Adds a whole chunk. Returns the chunk back when it does not fit.
    pub fn push(&mut self, chunk: Chunk) -> Result<(), Chunk> {
        if chunk.wire_len() > self.remaining() {
            return Err(chunk);
        }
        self.write(&chunk.header, &chunk.payload);
        Ok(())
    }

    /// Writes as many leading elements of a borrowed chunk as fit — the
    /// whole chunk, or the head of an Appendix C split ([`split_header`] and
    /// a sub-slice; no [`Chunk`] is built) — and returns what is left over:
    /// `None` when the whole chunk went in, the chunk itself when nothing
    /// did (no room for one element, or a control chunk, which is
    /// indivisible). This is the one step of the greedy first-fit.
    pub fn push_fitting<'a>(
        &mut self,
        header: ChunkHeader,
        payload: &'a [u8],
    ) -> Option<(ChunkHeader, &'a [u8])> {
        if WIRE_HEADER_LEN + payload.len() <= self.remaining() {
            self.write(&header, payload);
            return None;
        }
        let fit = self.fit_elements(header.size);
        if fit == 0 || header.ty.is_control() {
            return Some((header, payload));
        }
        // `fit < LEN` whenever the payload is the `SIZE * LEN` bytes the
        // header claims; a chunk built otherwise is left to the caller.
        let Ok((head, tail)) = split_header(&header, fit) else {
            return Some((header, payload));
        };
        let (taken, rest) = payload.split_at(head.payload_len());
        self.write(&head, taken);
        Some((tail, rest))
    }

    /// Places one borrowed chunk greedily: what fits goes into the packet
    /// under construction, each packet that fills is handed to `emit` as the
    /// buffer it was written into, and the chunk's last piece stays in the
    /// builder for the next chunk to share. Fails, with the pieces already
    /// emitted standing, when an element (or control chunk) exceeds even an
    /// empty packet.
    pub fn place(
        &mut self,
        header: ChunkHeader,
        payload: &[u8],
        mut emit: impl FnMut(Vec<u8>),
    ) -> Result<(), CoreError> {
        let mut left = self.push_fitting(header, payload);
        while let Some((header, payload)) = left {
            if self.is_empty() {
                return Err(CoreError::ElementExceedsMtu {
                    size: header.size,
                    mtu: self.mtu,
                });
            }
            emit(self.take_bytes());
            left = self.push_fitting(header, payload);
        }
        Ok(())
    }

    /// Hands back the bytes written so far and leaves the builder empty,
    /// ready for the next packet of the same MTU.
    pub fn take_bytes(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.buf)
    }

    /// Finishes the packet exactly as filled (no padding). The parser stops
    /// at end-of-bytes.
    pub fn finish(self) -> Packet {
        Packet {
            bytes: self.buf.into(),
        }
    }

    /// Finishes the packet padded with zeros to the full MTU — the fixed
    /// cell case (e.g. ATM). A zero header is the `LEN = 0` end marker, so
    /// the padding doubles as the terminator when at least a header's worth
    /// of space remains.
    pub fn finish_padded(mut self) -> Packet {
        self.buf.resize(self.mtu, 0);
        Packet {
            bytes: self.buf.into(),
        }
    }
}

/// Packs a sequence of chunks into packets of at most `mtu` bytes, splitting
/// chunks that do not fit (Appendix C). Greedy first-fit in the order given
/// ([`PacketBuilder::place`]); the receiver does not care about placement.
pub fn pack(chunks: Vec<Chunk>, mtu: usize) -> Result<Vec<Packet>, CoreError> {
    let mut packets = Vec::new();
    let mut builder = PacketBuilder::new(mtu);
    for chunk in &chunks {
        builder.place(chunk.header, &chunk.payload, |bytes| {
            packets.push(Packet {
                bytes: bytes.into(),
            })
        })?;
    }
    if !builder.is_empty() {
        packets.push(builder.finish());
    }
    Ok(packets)
}

/// Extracts the chunks from a packet, **copying** every payload.
///
/// Parsing stops at a `LEN = 0` end marker or at end-of-bytes; remaining
/// bytes after a marker must be zero padding. Trailing space smaller than a
/// header is accepted only when all zero.
///
/// This is the owned reference decode: the merging router, baselines and
/// examples use it where chunks must outlive the packet, and the tests
/// compare the production walk ([`validate`] → [`spans`] →
/// [`decode_chunk_at`](crate::wire::decode_chunk_at)) against it.
pub fn unpack(packet: &Packet) -> Result<Vec<Chunk>, CoreError> {
    let mut chunks = Vec::new();
    let mut rest: &[u8] = &packet.bytes;
    while !rest.is_empty() {
        if rest.len() < WIRE_HEADER_LEN {
            if rest.iter().all(|&b| b == 0) {
                break;
            }
            return Err(CoreError::Truncated);
        }
        let header = decode_header(rest)?;
        if header.len == 0 {
            // End marker: everything after it must be padding.
            if rest[WIRE_HEADER_LEN..].iter().any(|&b| b != 0) {
                return Err(CoreError::TrailingGarbage);
            }
            break;
        }
        let (chunk, used) = decode_chunk(rest)?;
        chunks.push(chunk);
        rest = &rest[used..];
    }
    Ok(chunks)
}

/// One step of the production framing walk: the byte offset one past the
/// chunk that starts at `at`, or `None` at the end of the valid chunks (an
/// all-zero tail shorter than a header, or a `LEN = 0` end marker followed
/// only by zero padding). The rules are [`unpack`]'s, restated once here for
/// [`validate`] and [`Spans`] and compared against that owned reference by
/// the tests.
#[inline]
fn step(bytes: &[u8], at: usize) -> Result<Option<usize>, CoreError> {
    let rest = &bytes[at..];
    if rest.len() < WIRE_HEADER_LEN {
        if rest.iter().all(|&b| b == 0) {
            return Ok(None);
        }
        return Err(CoreError::Truncated);
    }
    let header = decode_header(rest)?;
    if header.len == 0 {
        if rest[WIRE_HEADER_LEN..].iter().any(|&b| b != 0) {
            return Err(CoreError::TrailingGarbage);
        }
        return Ok(None);
    }
    Ok(Some(at + validated_len(&header, rest.len())?))
}

/// Validates a packet's framing without allocating, returning the number of
/// chunks it carries.
///
/// A packet is accepted exactly when the owned reference [`unpack`] accepts
/// it, with the same error otherwise. The zero-copy receive path runs this
/// scan first — so a malformed chunk rejects the whole packet — and then
/// walks [`spans`], decoding each chunk in place without a `Vec` of spans or
/// a `Vec` of chunks.
pub fn validate(packet: &Packet) -> Result<usize, CoreError> {
    let mut count = 0usize;
    let mut at = 0usize;
    while let Some(end) = step(&packet.bytes, at)? {
        count += 1;
        at = end;
    }
    Ok(count)
}

/// Iterates the byte span `[start, end)` of each chunk in placement order
/// without allocating. The walk stops at the end of the valid chunks or at
/// the first chunk [`validate`] would refuse, so every span it yields
/// decodes; it cannot report the refusal — run [`validate`] first when a
/// malformed chunk must reject the whole packet.
pub fn spans(packet: &Packet) -> Spans<'_> {
    Spans {
        bytes: &packet.bytes,
        at: 0,
    }
}

/// Iterator over the chunk spans of a packet. See [`spans`].
#[derive(Clone, Debug)]
pub struct Spans<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Iterator for Spans<'_> {
    type Item = (usize, usize);

    fn next(&mut self) -> Option<(usize, usize)> {
        let end = step(self.bytes, self.at).ok().flatten()?;
        let span = (self.at, end);
        self.at = end;
        Some(span)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{byte_chunk, Chunk, ChunkHeader};
    use crate::frag::ReassemblyPool;
    use crate::label::{ChunkType, FramingTuple};
    use crate::wire::encode_chunk;

    fn data_chunk(len: u32) -> Chunk {
        let payload: Vec<u8> = (0..len as u8).collect();
        byte_chunk(
            FramingTuple::new(1, 0, false),
            FramingTuple::new(2, 0, true),
            FramingTuple::new(3, 0, false),
            &payload,
        )
    }

    fn ed_chunk() -> Chunk {
        Chunk::new(
            ChunkHeader::control(
                ChunkType::ErrorDetection,
                8,
                FramingTuple::new(1, 0, false),
                FramingTuple::new(2, 0, false),
                FramingTuple::new(3, 0, false),
            ),
            Bytes::from_static(&[0xEE; 8]),
        )
        .unwrap()
    }

    #[test]
    fn roundtrip_single_packet() {
        let chunks = vec![data_chunk(7), ed_chunk()];
        let packets = pack(chunks.clone(), 1500).unwrap();
        assert_eq!(packets.len(), 1, "both chunks share one envelope (Fig. 3)");
        assert_eq!(unpack(&packets[0]).unwrap(), chunks);
    }

    #[test]
    fn oversized_chunk_is_split_across_packets() {
        let c = data_chunk(100);
        let mtu = WIRE_HEADER_LEN + 40;
        let packets = pack(vec![c.clone()], mtu).unwrap();
        assert_eq!(packets.len(), 3); // 40 + 40 + 20 elements
        let mut pool = ReassemblyPool::new();
        for p in &packets {
            assert!(p.len() <= mtu);
            for chunk in unpack(p).unwrap() {
                pool.insert(chunk);
            }
        }
        assert_eq!(pool.take_complete().unwrap(), c);
    }

    #[test]
    fn control_chunk_never_split() {
        // ED payload (8B) + header does not fit after the data chunk; it
        // must move whole to the next packet.
        let mtu = WIRE_HEADER_LEN + 10;
        let packets = pack(vec![data_chunk(10), ed_chunk()], mtu).unwrap();
        assert_eq!(packets.len(), 2);
        let second = unpack(&packets[1]).unwrap();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].header.ty, ChunkType::ErrorDetection);
    }

    #[test]
    fn element_too_large_for_any_packet() {
        let err = pack(vec![ed_chunk()], WIRE_HEADER_LEN + 4).unwrap_err();
        assert!(matches!(err, CoreError::ElementExceedsMtu { size: 8, .. }));
    }

    #[test]
    fn padded_packet_parses_with_end_marker() {
        let mut b = PacketBuilder::new(200);
        b.push(data_chunk(5)).unwrap();
        let p = b.finish_padded();
        assert_eq!(p.len(), 200);
        let chunks = unpack(&p).unwrap();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].header.len, 5);
    }

    #[test]
    fn padding_smaller_than_header_accepted() {
        let mtu = WIRE_HEADER_LEN + 5 + 10; // 10 bytes of sub-header padding
        let mut b = PacketBuilder::new(mtu);
        b.push(data_chunk(5)).unwrap();
        let p = b.finish_padded();
        assert_eq!(unpack(&p).unwrap().len(), 1);
    }

    #[test]
    fn garbage_after_end_marker_rejected() {
        let mut b = PacketBuilder::new(200);
        b.push(data_chunk(5)).unwrap();
        let p = b.finish_padded();
        let mut raw = p.bytes.to_vec();
        *raw.last_mut().unwrap() = 0xFF;
        let bad = Packet { bytes: raw.into() };
        assert_eq!(unpack(&bad).unwrap_err(), CoreError::TrailingGarbage);
    }

    #[test]
    fn multiple_small_chunks_share_packet() {
        let mut chunks = Vec::new();
        for i in 0..5u32 {
            chunks.push(byte_chunk(
                FramingTuple::new(1, i * 4, false),
                FramingTuple::new(2, i * 4, false),
                FramingTuple::new(3, i * 4, false),
                &[i as u8; 4],
            ));
        }
        let packets = pack(chunks.clone(), 1500).unwrap();
        assert_eq!(packets.len(), 1);
        assert_eq!(unpack(&packets[0]).unwrap(), chunks);
    }

    #[test]
    fn builder_fit_elements_accounts_for_header() {
        let b = PacketBuilder::new(WIRE_HEADER_LEN + 10);
        assert_eq!(b.fit_elements(1), 10);
        assert_eq!(b.fit_elements(4), 2);
        assert_eq!(b.fit_elements(11), 0);
        let tiny = PacketBuilder::new(WIRE_HEADER_LEN);
        assert_eq!(tiny.fit_elements(1), 0);
    }

    #[test]
    fn empty_chunk_list_produces_no_packets() {
        assert!(pack(vec![], 1500).unwrap().is_empty());
    }

    /// The production walk (`validate` + `spans` + `decode_chunk_at`) and the
    /// owned reference `unpack` must agree chunk-for-chunk on accepted
    /// packets and error-for-error on rejected ones.
    fn assert_spans_agree(p: &Packet) {
        let spans: Vec<(usize, usize)> = spans(p).collect();
        // Accepted or not, every span the walk yields decodes in place.
        for &(lo, hi) in &spans {
            let (_, used) = crate::wire::decode_chunk_at(&p.bytes, lo).unwrap();
            assert_eq!(used, hi - lo);
        }
        match (validate(p), unpack(p)) {
            (Ok(count), Ok(chunks)) => {
                assert_eq!(count, chunks.len());
                assert_eq!(spans.len(), chunks.len());
                for ((lo, hi), chunk) in spans.iter().zip(&chunks) {
                    let (decoded, used) = decode_chunk(&p.bytes[*lo..*hi]).unwrap();
                    assert_eq!(used, hi - lo);
                    assert_eq!(&decoded, chunk);
                    // The zero-copy decode sees the same chunk, sharing the
                    // packet's buffer instead of copying out of it.
                    let (zc, _) = crate::wire::decode_chunk_at(&p.bytes, *lo).unwrap();
                    assert_eq!(&zc, chunk);
                    if !zc.payload.is_empty() {
                        assert!(
                            p.bytes.as_ptr_range().contains(&zc.payload.as_ptr()),
                            "zero-copy payload must borrow the packet buffer"
                        );
                    }
                }
            }
            (Err(a), Err(b)) => assert_eq!(a, b),
            (a, b) => panic!("validate {a:?} disagrees with unpack {b:?}"),
        }
    }

    #[test]
    fn spans_agree_with_unpack_on_wellformed_packets() {
        let chunks = vec![data_chunk(7), ed_chunk(), data_chunk(30)];
        for p in pack(chunks, 120).unwrap() {
            assert_spans_agree(&p);
        }
        let mut b = PacketBuilder::new(200);
        b.push(data_chunk(5)).unwrap();
        assert_spans_agree(&b.finish_padded());
        assert_spans_agree(&Packet {
            bytes: Bytes::new(),
        });
    }

    #[test]
    fn spans_agree_with_unpack_on_malformed_packets() {
        // Truncated mid-payload.
        let mut raw = Vec::new();
        encode_chunk(&data_chunk(9), &mut raw);
        raw.truncate(raw.len() - 3);
        assert_spans_agree(&Packet { bytes: raw.into() });
        // Garbage after the end marker.
        let mut b = PacketBuilder::new(120);
        b.push(data_chunk(5)).unwrap();
        let mut raw = b.finish_padded().bytes.to_vec();
        *raw.last_mut().unwrap() = 0x42;
        assert_spans_agree(&Packet { bytes: raw.into() });
        // Unknown TYPE byte.
        let mut raw = Vec::new();
        encode_chunk(&data_chunk(4), &mut raw);
        raw[0] = 0x7F;
        assert_spans_agree(&Packet { bytes: raw.into() });
        // Oversized claim.
        let mut raw = Vec::new();
        encode_chunk(&data_chunk(4), &mut raw);
        raw[2] = 0xFF;
        raw[3] = 0xFF;
        raw[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_spans_agree(&Packet { bytes: raw.into() });
        // Sub-header trailing garbage.
        let mut raw = Vec::new();
        encode_chunk(&data_chunk(4), &mut raw);
        raw.extend_from_slice(&[0, 0, 0x99]);
        assert_spans_agree(&Packet { bytes: raw.into() });
    }

    /// `pack` as it stood before the borrowed-chunk packer: owned `split`s
    /// pushed whole, a fresh buffer per packet.
    fn pack_by_owned_splits(chunks: Vec<Chunk>, mtu: usize) -> Result<Vec<Vec<u8>>, CoreError> {
        let mut packets = Vec::new();
        let mut buf: Vec<u8> = Vec::new();
        for mut chunk in chunks {
            while chunk.wire_len() > mtu - buf.len() {
                let room = (mtu - buf.len()).saturating_sub(WIRE_HEADER_LEN);
                let fit = (room / chunk.header.size as usize) as u32;
                if fit == 0 || chunk.header.ty.is_control() {
                    if buf.is_empty() {
                        return Err(CoreError::ElementExceedsMtu {
                            size: chunk.header.size,
                            mtu,
                        });
                    }
                } else {
                    let (head, tail) = crate::frag::split(&chunk, fit)?;
                    encode_chunk(&head, &mut buf);
                    chunk = tail;
                }
                packets.push(std::mem::take(&mut buf));
            }
            encode_chunk(&chunk, &mut buf);
        }
        if !buf.is_empty() {
            packets.push(buf);
        }
        Ok(packets)
    }

    use proptest::prelude::*;

    proptest! {
        /// The borrowed-chunk first-fit places every byte where the owned
        /// split loop did, and refuses what it refused.
        #[test]
        fn pack_equals_the_owned_split_loop(
            shapes in proptest::collection::vec((0u8..6, 1u16..=9, 1u32..=50, 0u8..8, any::<u32>()), 0..12),
            mtu in WIRE_HEADER_LEN..WIRE_HEADER_LEN + 120,
        ) {
            let chunks: Vec<Chunk> = shapes
                .into_iter()
                .map(|(kind, size, len, st, sn)| {
                    let conn = FramingTuple::new(1, sn, st & 1 != 0);
                    let tpdu = FramingTuple::new(2, sn ^ 0x55, st & 2 != 0);
                    let ext = FramingTuple::new(3, !sn, st & 4 != 0);
                    let header = if kind == 0 {
                        ChunkHeader::control(ChunkType::ErrorDetection, 8, conn, tpdu, ext)
                    } else {
                        ChunkHeader::data(size, len, conn, tpdu, ext)
                    };
                    let payload: Vec<u8> = (0..header.payload_len()).map(|i| i as u8 ^ st).collect();
                    Chunk::new(header, payload.into()).unwrap()
                })
                .collect();
            let packed = pack(chunks.clone(), mtu)
                .map(|packets| packets.iter().map(|p| p.bytes.to_vec()).collect::<Vec<_>>());
            prop_assert_eq!(packed, pack_by_owned_splits(chunks, mtu));
        }
    }
}
