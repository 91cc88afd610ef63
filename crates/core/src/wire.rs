//! Fixed-field wire codec for chunks.
//!
//! The paper's simple chunk form uses a fixed-field format that is "easy to
//! parse" (Appendix A). The layout, big-endian throughout:
//!
//! ```text
//! offset  field
//!  0      TYPE  (u8)
//!  1      flags (u8): bit0 = C.ST, bit1 = T.ST, bit2 = X.ST
//!  2..4   SIZE  (u16)
//!  4..8   LEN   (u32)   — 0 marks end-of-packet
//!  8..12  C.ID  12..16 C.SN
//! 16..20  T.ID  20..24 T.SN
//! 24..28  X.ID  28..32 X.SN
//! ```

use bytes::Bytes;

use crate::chunk::{Chunk, ChunkHeader};
use crate::error::CoreError;
use crate::label::{ChunkType, FramingTuple};

/// Byte length of the uncompressed chunk header.
pub const WIRE_HEADER_LEN: usize = 32;

/// Upper bound on the payload a decoded header may claim (`SIZE * LEN`).
/// The two fields multiply out to nearly 2^48 bytes; an adversarial header
/// must be refused as [`CoreError::OversizedLen`] before any buffer math
/// trusts the claim.
pub const MAX_DECODE_PAYLOAD: usize = 1 << 24; // 16 MiB

const FLAG_C_ST: u8 = 1 << 0;
const FLAG_T_ST: u8 = 1 << 1;
const FLAG_X_ST: u8 = 1 << 2;

/// Appends the header's wire encoding to `out`.
pub fn encode_header(h: &ChunkHeader, out: &mut Vec<u8>) {
    let mut bytes = [0u8; WIRE_HEADER_LEN];
    bytes[0] = h.ty.to_u8();
    if h.conn.st {
        bytes[1] |= FLAG_C_ST;
    }
    if h.tpdu.st {
        bytes[1] |= FLAG_T_ST;
    }
    if h.ext.st {
        bytes[1] |= FLAG_X_ST;
    }
    bytes[2..4].copy_from_slice(&h.size.to_be_bytes());
    bytes[4..8].copy_from_slice(&h.len.to_be_bytes());
    for (k, t) in [h.conn, h.tpdu, h.ext].into_iter().enumerate() {
        bytes[8 + 8 * k..12 + 8 * k].copy_from_slice(&t.id.to_be_bytes());
        bytes[12 + 8 * k..16 + 8 * k].copy_from_slice(&t.sn.to_be_bytes());
    }
    out.extend_from_slice(&bytes);
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_be_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

/// Decodes a header from the front of `buf`.
///
/// A decoded header with `LEN = 0` is the end-of-packet marker; callers stop
/// parsing there. Headers of padding type with nonzero `LEN` are rejected.
pub fn decode_header(buf: &[u8]) -> Result<ChunkHeader, CoreError> {
    if buf.len() < WIRE_HEADER_LEN {
        return Err(CoreError::Truncated);
    }
    let ty = ChunkType::from_u8(buf[0]).ok_or(CoreError::BadType(buf[0]))?;
    let flags = buf[1];
    let size = u16::from_be_bytes([buf[2], buf[3]]);
    let len = read_u32(buf, 4);
    if ty == ChunkType::Padding && len != 0 {
        return Err(CoreError::BadType(0));
    }
    let conn = FramingTuple::new(read_u32(buf, 8), read_u32(buf, 12), flags & FLAG_C_ST != 0);
    let tpdu = FramingTuple::new(read_u32(buf, 16), read_u32(buf, 20), flags & FLAG_T_ST != 0);
    let ext = FramingTuple::new(read_u32(buf, 24), read_u32(buf, 28), flags & FLAG_X_ST != 0);
    Ok(ChunkHeader {
        ty,
        size,
        len,
        conn,
        tpdu,
        ext,
    })
}

/// Appends a chunk (header + payload) to `out`.
pub fn encode_chunk(c: &Chunk, out: &mut Vec<u8>) {
    encode_header(&c.header, out);
    out.extend_from_slice(&c.payload);
}

/// A decoded chunk whose payload *borrows* the wire buffer.
///
/// The zero-copy receive path decodes headers in place and keeps payloads as
/// borrowed slices of the arriving packet; nothing is materialised until (and
/// unless) the chunk is staged. Validation is identical to [`decode_chunk`]:
/// the two functions accept and reject exactly the same inputs, and on
/// acceptance the borrowed payload is bitwise equal to the owned copy (a
/// property `tests/chunk_closure_props.rs` pins for arbitrary packets).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ChunkRef<'a> {
    /// The decoded, validated header.
    pub header: ChunkHeader,
    /// The payload, borrowed from the wire buffer.
    pub payload: &'a [u8],
}

impl ChunkRef<'_> {
    /// Materialises an owned [`Chunk`], copying the payload. The receive
    /// path avoids this; it exists for callers that must outlive the buffer.
    pub fn to_chunk(&self) -> Chunk {
        Chunk {
            header: self.header,
            payload: Bytes::copy_from_slice(self.payload),
        }
    }
}

/// Validates a decoded header against the `avail` bytes that start at it
/// and returns the chunk's total wire length (header + payload), without
/// touching the payload bytes.
#[inline]
pub(crate) fn validated_len(header: &ChunkHeader, avail: usize) -> Result<usize, CoreError> {
    header.validate()?;
    // Widen before multiplying: `SIZE * LEN` approaches 2^48, which on a
    // 32-bit target would wrap a `usize` product *before* the bound check
    // could see it — `ChunkHeader::payload_len` must not be trusted here.
    let claimed = header.size as u64 * header.len as u64;
    if claimed > MAX_DECODE_PAYLOAD as u64 {
        return Err(CoreError::OversizedLen {
            claimed,
            max: MAX_DECODE_PAYLOAD as u64,
        });
    }
    let total = WIRE_HEADER_LEN + claimed as usize;
    if avail < total {
        return Err(CoreError::Truncated);
    }
    Ok(total)
}

/// Shared validation core: decodes and validates the header at the front of
/// `buf` and returns `(header, total wire length)`.
#[inline]
fn decode_validated(buf: &[u8]) -> Result<(ChunkHeader, usize), CoreError> {
    let header = decode_header(buf)?;
    let total = validated_len(&header, buf.len())?;
    Ok((header, total))
}

/// Decodes one chunk from the front of `buf`, returning it together with the
/// number of bytes consumed. The payload is **copied** out of the buffer —
/// this is the owned reference the zero-copy decode is tested against; the
/// receive path uses [`decode_chunk_ref`] instead.
pub fn decode_chunk(buf: &[u8]) -> Result<(Chunk, usize), CoreError> {
    let (header, total) = decode_validated(buf)?;
    let payload = Bytes::copy_from_slice(&buf[WIRE_HEADER_LEN..total]);
    Ok((Chunk { header, payload }, total))
}

/// Decodes one chunk from the front of `buf` with a borrowed payload —
/// same accept/reject behaviour as [`decode_chunk`], no copy, no allocation.
pub fn decode_chunk_ref(buf: &[u8]) -> Result<(ChunkRef<'_>, usize), CoreError> {
    let (header, total) = decode_validated(buf)?;
    Ok((
        ChunkRef {
            header,
            payload: &buf[WIRE_HEADER_LEN..total],
        },
        total,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::byte_chunk;
    use crate::label::FramingTuple;

    fn sample() -> Chunk {
        byte_chunk(
            FramingTuple::new(0xAABBCCDD, 36, false),
            FramingTuple::new(0x51, 0, true),
            FramingTuple::new(0xC, 24, false),
            b"0123456",
        )
    }

    #[test]
    fn header_roundtrip() {
        let c = sample();
        let mut buf = Vec::new();
        encode_header(&c.header, &mut buf);
        assert_eq!(buf.len(), WIRE_HEADER_LEN);
        assert_eq!(decode_header(&buf).unwrap(), c.header);
    }

    #[test]
    fn chunk_roundtrip() {
        let c = sample();
        let mut buf = Vec::new();
        encode_chunk(&c, &mut buf);
        let (d, used) = decode_chunk(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(d, c);
    }

    #[test]
    fn st_flags_encoded_independently() {
        let mut c = sample();
        c.header.conn.st = true;
        c.header.ext.st = true;
        let mut buf = Vec::new();
        encode_header(&c.header, &mut buf);
        assert_eq!(buf[1], FLAG_C_ST | FLAG_T_ST | FLAG_X_ST);
        let d = decode_header(&buf).unwrap();
        assert!(d.conn.st && d.tpdu.st && d.ext.st);
    }

    #[test]
    fn truncated_inputs_rejected() {
        let c = sample();
        let mut buf = Vec::new();
        encode_chunk(&c, &mut buf);
        assert_eq!(
            decode_header(&buf[..WIRE_HEADER_LEN - 1]).unwrap_err(),
            CoreError::Truncated
        );
        assert_eq!(
            decode_chunk(&buf[..buf.len() - 1]).unwrap_err(),
            CoreError::Truncated
        );
    }

    #[test]
    fn bad_type_rejected() {
        let c = sample();
        let mut buf = Vec::new();
        encode_chunk(&c, &mut buf);
        buf[0] = 0x7F;
        assert_eq!(decode_chunk(&buf).unwrap_err(), CoreError::BadType(0x7F));
    }

    #[test]
    fn oversized_len_rejected_before_allocation() {
        let c = sample();
        let mut buf = Vec::new();
        encode_chunk(&c, &mut buf);
        // Claim SIZE = 0xFFFF and LEN = 0xFFFF_FFFF: nearly 2^48 bytes.
        buf[2] = 0xFF;
        buf[3] = 0xFF;
        buf[4..8].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            decode_chunk(&buf).unwrap_err(),
            CoreError::OversizedLen { .. }
        ));
    }

    /// Builds a raw wire buffer for a data chunk claiming `size`×`len` with
    /// `payload` actually present after the header.
    fn raw_data_chunk(size: u16, len: u32, payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::with_capacity(WIRE_HEADER_LEN + payload.len());
        buf.push(ChunkType::Data.to_u8());
        buf.push(0); // flags
        buf.extend_from_slice(&size.to_be_bytes());
        buf.extend_from_slice(&len.to_be_bytes());
        buf.extend_from_slice(&[0u8; 24]); // C/T/X tuples all zero
        buf.extend_from_slice(payload);
        buf
    }

    #[test]
    fn payload_exactly_at_limit_accepted() {
        // SIZE × LEN lands exactly on MAX_DECODE_PAYLOAD: the bound is
        // inclusive, so the chunk decodes.
        let size = 1u16 << 8;
        let len = (MAX_DECODE_PAYLOAD / size as usize) as u32;
        assert_eq!(size as usize * len as usize, MAX_DECODE_PAYLOAD);
        let payload = vec![0x5Au8; MAX_DECODE_PAYLOAD];
        let buf = raw_data_chunk(size, len, &payload);
        let (chunk, used) = decode_chunk(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(chunk.payload.len(), MAX_DECODE_PAYLOAD);
    }

    #[test]
    fn payload_one_below_limit_accepted() {
        let len = (MAX_DECODE_PAYLOAD - 1) as u32;
        let payload = vec![0xA5u8; MAX_DECODE_PAYLOAD - 1];
        let buf = raw_data_chunk(1, len, &payload);
        let (chunk, used) = decode_chunk(&buf).unwrap();
        assert_eq!(used, buf.len());
        assert_eq!(chunk.payload.len(), MAX_DECODE_PAYLOAD - 1);
    }

    #[test]
    fn payload_one_above_limit_rejected_before_truncation() {
        // One byte over the bound, with *no* payload present at all: the
        // oversize check must fire before the truncation check, otherwise a
        // hostile header steers the decoder into buffer-length math with an
        // attacker-controlled 2^48-scale claim.
        let len = (MAX_DECODE_PAYLOAD + 1) as u32;
        let buf = raw_data_chunk(1, len, &[]);
        assert_eq!(
            decode_chunk(&buf).unwrap_err(),
            CoreError::OversizedLen {
                claimed: MAX_DECODE_PAYLOAD as u64 + 1,
                max: MAX_DECODE_PAYLOAD as u64,
            }
        );
    }

    #[test]
    fn oversize_claim_is_widened_not_wrapped() {
        // SIZE = 0xFFFF, LEN = 0xFFFF_FFFF multiplies to ~2^48. On a 32-bit
        // usize that product wraps to a small number; the decoder must
        // compute the claim in u64 so the bound check still fires and the
        // reported claim is the real one.
        let buf = raw_data_chunk(0xFFFF, u32::MAX, &[]);
        assert_eq!(
            decode_chunk(&buf).unwrap_err(),
            CoreError::OversizedLen {
                claimed: 0xFFFF_u64 * 0xFFFF_FFFF_u64,
                max: MAX_DECODE_PAYLOAD as u64,
            }
        );
    }

    #[test]
    fn zero_len_data_chunk_rejected_without_allocation() {
        // A data-TYPE header with LEN = 0 is not an end marker (that role is
        // reserved for padding); it must be refused by validation — before
        // any payload arithmetic or allocation — and must not panic even
        // with an extreme SIZE riding along.
        let buf = raw_data_chunk(0xFFFF, 0, &[]);
        assert_eq!(decode_chunk(&buf).unwrap_err(), CoreError::ZeroLen);
        // Same for a zero SIZE with a huge LEN: caught as ZeroSize, and the
        // 0 × LEN product never reaches the allocator as a "fits" claim.
        let buf = raw_data_chunk(0, u32::MAX, &[]);
        assert_eq!(decode_chunk(&buf).unwrap_err(), CoreError::ZeroSize);
    }

    #[test]
    fn zero_header_is_end_marker() {
        let buf = [0u8; WIRE_HEADER_LEN];
        let h = decode_header(&buf).unwrap();
        assert_eq!(h.ty, ChunkType::Padding);
        assert_eq!(h.len, 0);
    }

    #[test]
    fn padding_with_payload_rejected() {
        let mut buf = vec![0u8; WIRE_HEADER_LEN];
        buf[7] = 3; // LEN = 3 with TYPE = padding
        assert!(decode_header(&buf).is_err());
    }
}
