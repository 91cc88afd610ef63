//! Invertible header-compression transforms (Appendix A).
//!
//! "Chunk syntax transformations … are invertible, because they allow
//! recovery of the original chunk syntax." Protocols are defined over the
//! simple fixed-field form; these transforms only reduce header bandwidth,
//! and different parts of a network may use different forms.
//!
//! Three transforms are implemented:
//!
//! 1. **Implicit `T.ID`** (Figure 7): the SN fields of a chunk change in
//!    lock-step, so `C.SN − T.SN` is constant across a TPDU and can replace
//!    the explicit `T.ID`.
//! 2. **`SIZE` elision**: the per-`TYPE` element size is signalled at
//!    connection establishment (like a virtual-circuit parameter) and
//!    removed from every header.
//! 3. **Intra-packet delta encoding**: when the chunk headers within a
//!    packet are related (e.g. the ED chunk that follows the last data chunk
//!    of a TPDU), later headers encode only the fields that differ from a
//!    *continuation prediction* of the previous header.

use std::collections::HashMap;

use bytes::Bytes;

use crate::chunk::{Chunk, ChunkHeader};
use crate::error::CoreError;
use crate::label::{ChunkType, FramingTuple};

/// Derives the implicit TPDU identifier from a chunk's sequence numbers
/// (Appendix A, Figure 7): `T.ID = C.SN − T.SN` (wrapping).
pub fn implicit_tid(c_sn: u32, t_sn: u32) -> u32 {
    c_sn.wrapping_sub(t_sn)
}

/// Per-connection signalled state used by compressed forms.
///
/// With the *specification* or *signalling* approach of Appendix A, the
/// `SIZE` of each chunk `TYPE` is agreed out of band and the header need not
/// carry it.
#[derive(Clone, Debug, Default)]
pub struct SignalledContext {
    sizes: HashMap<ChunkType, u16>,
}

impl SignalledContext {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Signals the element size for a chunk type (as a connection-setup
    /// message would).
    pub fn signal_size(&mut self, ty: ChunkType, size: u16) {
        self.sizes.insert(ty, size);
    }

    /// Looks up the signalled size for a type.
    pub fn size_of(&self, ty: ChunkType) -> Option<u16> {
        self.sizes.get(&ty).copied()
    }
}

/// Which header form a link uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HeaderForm {
    /// The 32-byte fixed-field form of [`crate::wire`].
    Full,
    /// `T.ID` elided (28 bytes): recovered as `C.SN − T.SN`.
    ImplicitTid,
    /// `SIZE` elided (30 bytes): recovered from the [`SignalledContext`].
    SizeElided,
    /// Both transforms applied (26 bytes).
    Compact,
}

impl HeaderForm {
    /// Header length in bytes under this form.
    pub const fn header_len(self) -> usize {
        match self {
            HeaderForm::Full => 32,
            HeaderForm::ImplicitTid => 28,
            HeaderForm::SizeElided => 30,
            HeaderForm::Compact => 26,
        }
    }

    const fn has_tid(self) -> bool {
        matches!(self, HeaderForm::Full | HeaderForm::SizeElided)
    }

    const fn has_size(self) -> bool {
        matches!(self, HeaderForm::Full | HeaderForm::ImplicitTid)
    }
}

/// Encodes a header under `form`, appending to `out`.
///
/// Fails when the form elides `SIZE` but the chunk's type has no signalled
/// size, or when the form elides `T.ID` but `T.ID != C.SN − T.SN` (the
/// transform would not be invertible for such a labelling).
pub fn encode_header_form(
    h: &ChunkHeader,
    form: HeaderForm,
    ctx: &SignalledContext,
    out: &mut Vec<u8>,
) -> Result<(), CoreError> {
    if !form.has_tid() && h.tpdu.id != implicit_tid(h.conn.sn, h.tpdu.sn) {
        return Err(CoreError::MissingContext(h.ty));
    }
    if !form.has_size() && ctx.size_of(h.ty) != Some(h.size) {
        return Err(CoreError::MissingContext(h.ty));
    }
    out.push(h.ty.to_u8());
    out.push(flags_of(h));
    if form.has_size() {
        out.extend_from_slice(&h.size.to_be_bytes());
    }
    out.extend_from_slice(&h.len.to_be_bytes());
    out.extend_from_slice(&h.conn.id.to_be_bytes());
    out.extend_from_slice(&h.conn.sn.to_be_bytes());
    if form.has_tid() {
        out.extend_from_slice(&h.tpdu.id.to_be_bytes());
    }
    out.extend_from_slice(&h.tpdu.sn.to_be_bytes());
    out.extend_from_slice(&h.ext.id.to_be_bytes());
    out.extend_from_slice(&h.ext.sn.to_be_bytes());
    Ok(())
}

/// Decodes a header encoded under `form` from the front of `buf`, returning
/// the header and bytes consumed.
pub fn decode_header_form(
    buf: &[u8],
    form: HeaderForm,
    ctx: &SignalledContext,
) -> Result<(ChunkHeader, usize), CoreError> {
    let need = form.header_len();
    if buf.len() < need {
        return Err(CoreError::Truncated);
    }
    let ty = ChunkType::from_u8(buf[0]).ok_or(CoreError::BadType(buf[0]))?;
    let flags = buf[1];
    let mut at = 2usize;
    let take_u16 = |buf: &[u8], at: &mut usize| {
        let v = u16::from_be_bytes([buf[*at], buf[*at + 1]]);
        *at += 2;
        v
    };
    let take_u32 = |buf: &[u8], at: &mut usize| {
        let v = u32::from_be_bytes([buf[*at], buf[*at + 1], buf[*at + 2], buf[*at + 3]]);
        *at += 4;
        v
    };
    let size = if form.has_size() {
        take_u16(buf, &mut at)
    } else {
        ctx.size_of(ty).ok_or(CoreError::MissingContext(ty))?
    };
    let len = take_u32(buf, &mut at);
    let c_id = take_u32(buf, &mut at);
    let c_sn = take_u32(buf, &mut at);
    let t_id = if form.has_tid() {
        take_u32(buf, &mut at)
    } else {
        0 // patched below once T.SN is known
    };
    let t_sn = take_u32(buf, &mut at);
    let t_id = if form.has_tid() {
        t_id
    } else {
        implicit_tid(c_sn, t_sn)
    };
    let x_id = take_u32(buf, &mut at);
    let x_sn = take_u32(buf, &mut at);
    debug_assert_eq!(at, need);
    Ok((
        ChunkHeader {
            ty,
            size,
            len,
            conn: FramingTuple::new(c_id, c_sn, flags & 1 != 0),
            tpdu: FramingTuple::new(t_id, t_sn, flags & 2 != 0),
            ext: FramingTuple::new(x_id, x_sn, flags & 4 != 0),
        },
        need,
    ))
}

fn flags_of(h: &ChunkHeader) -> u8 {
    (h.conn.st as u8) | (h.tpdu.st as u8) << 1 | (h.ext.st as u8) << 2
}

// ---------------------------------------------------------------------------
// Intra-packet delta encoding
// ---------------------------------------------------------------------------

/// Predicts the header of the next chunk in a packet as the *continuation*
/// of the previous one: same type/size/len/IDs, SNs advanced by the previous
/// chunk's length, ST bits clear.
fn predict(prev: &ChunkHeader) -> ChunkHeader {
    ChunkHeader {
        ty: prev.ty,
        size: prev.size,
        len: prev.len,
        conn: prev.conn.tail(prev.len).head(),
        tpdu: prev.tpdu.tail(prev.len).head(),
        ext: prev.ext.tail(prev.len).head(),
    }
}

const D_TY: u16 = 1 << 0;
const D_SIZE: u16 = 1 << 1;
const D_LEN: u16 = 1 << 2;
const D_CID: u16 = 1 << 3;
const D_CSN: u16 = 1 << 4;
const D_TID: u16 = 1 << 5;
const D_TSN: u16 = 1 << 6;
const D_XID: u16 = 1 << 7;
const D_XSN: u16 = 1 << 8;

/// Encodes the chunks of one packet under the intra-packet delta form.
///
/// Layout: `u16` chunk count, then per chunk a `u16` field mask, a flags
/// byte, the fields that differ from prediction, and the payload. The first
/// chunk is predicted from an all-zero header, so it encodes essentially in
/// full.
pub fn encode_packet_delta(chunks: &[Chunk]) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(chunks.len() as u16).to_be_bytes());
    let mut prev = zero_header();
    for c in chunks {
        let pred = predict(&prev);
        let h = &c.header;
        let mut mask = 0u16;
        if h.ty != pred.ty {
            mask |= D_TY;
        }
        if h.size != pred.size {
            mask |= D_SIZE;
        }
        if h.len != pred.len {
            mask |= D_LEN;
        }
        if h.conn.id != pred.conn.id {
            mask |= D_CID;
        }
        if h.conn.sn != pred.conn.sn {
            mask |= D_CSN;
        }
        if h.tpdu.id != pred.tpdu.id {
            mask |= D_TID;
        }
        if h.tpdu.sn != pred.tpdu.sn {
            mask |= D_TSN;
        }
        if h.ext.id != pred.ext.id {
            mask |= D_XID;
        }
        if h.ext.sn != pred.ext.sn {
            mask |= D_XSN;
        }
        out.extend_from_slice(&mask.to_be_bytes());
        out.push(flags_of(h));
        if mask & D_TY != 0 {
            out.push(h.ty.to_u8());
        }
        if mask & D_SIZE != 0 {
            out.extend_from_slice(&h.size.to_be_bytes());
        }
        if mask & D_LEN != 0 {
            out.extend_from_slice(&h.len.to_be_bytes());
        }
        for (bit, v) in [
            (D_CID, h.conn.id),
            (D_CSN, h.conn.sn),
            (D_TID, h.tpdu.id),
            (D_TSN, h.tpdu.sn),
            (D_XID, h.ext.id),
            (D_XSN, h.ext.sn),
        ] {
            if mask & bit != 0 {
                out.extend_from_slice(&v.to_be_bytes());
            }
        }
        // Must own: serialization gathers header fields and payload into
        // one contiguous wire buffer; a borrow cannot be contiguous.
        out.extend_from_slice(&c.payload);
        prev = *h;
    }
    out
}

/// Decodes a delta-encoded packet back into its chunks.
///
/// Payloads are **copied** out of `buf`: a plain `&[u8]` borrow has no
/// refcounted backing a `Bytes` slice could share, so owning is the only
/// sound option here.
pub fn decode_packet_delta(buf: &[u8]) -> Result<Vec<Chunk>, CoreError> {
    if buf.len() < 2 {
        return Err(CoreError::Truncated);
    }
    let count = u16::from_be_bytes([buf[0], buf[1]]) as usize;
    let mut at = 2usize;
    let mut prev = zero_header();
    let mut chunks = Vec::with_capacity(count);
    fn take<'b>(buf: &'b [u8], at: &mut usize, n: usize) -> Result<&'b [u8], CoreError> {
        if buf.len() < *at + n {
            return Err(CoreError::Truncated);
        }
        let s = &buf[*at..*at + n];
        *at += n;
        Ok(s)
    }
    for _ in 0..count {
        let mask = {
            let s = take(buf, &mut at, 2)?;
            u16::from_be_bytes([s[0], s[1]])
        };
        let flags = take(buf, &mut at, 1)?[0];
        let mut h = predict(&prev);
        if mask & D_TY != 0 {
            let b = take(buf, &mut at, 1)?[0];
            h.ty = ChunkType::from_u8(b).ok_or(CoreError::BadType(b))?;
        }
        if mask & D_SIZE != 0 {
            let s = take(buf, &mut at, 2)?;
            h.size = u16::from_be_bytes([s[0], s[1]]);
        }
        if mask & D_LEN != 0 {
            let s = take(buf, &mut at, 4)?;
            h.len = u32::from_be_bytes([s[0], s[1], s[2], s[3]]);
        }
        let read_u32 = |at: &mut usize| -> Result<u32, CoreError> {
            let s = take(buf, at, 4)?;
            Ok(u32::from_be_bytes([s[0], s[1], s[2], s[3]]))
        };
        if mask & D_CID != 0 {
            h.conn.id = read_u32(&mut at)?;
        }
        if mask & D_CSN != 0 {
            h.conn.sn = read_u32(&mut at)?;
        }
        if mask & D_TID != 0 {
            h.tpdu.id = read_u32(&mut at)?;
        }
        if mask & D_TSN != 0 {
            h.tpdu.sn = read_u32(&mut at)?;
        }
        if mask & D_XID != 0 {
            h.ext.id = read_u32(&mut at)?;
        }
        if mask & D_XSN != 0 {
            h.ext.sn = read_u32(&mut at)?;
        }
        h.conn.st = flags & 1 != 0;
        h.tpdu.st = flags & 2 != 0;
        h.ext.st = flags & 4 != 0;
        h.validate()?;
        // Must own: the borrow ends when this call returns.
        let payload = Bytes::copy_from_slice(take(buf, &mut at, h.payload_len())?);
        prev = h;
        chunks.push(Chunk { header: h, payload });
    }
    Ok(chunks)
}

// ---------------------------------------------------------------------------
// SN regeneration for in-order channels (Appendix A)
// ---------------------------------------------------------------------------

/// Flag bit marking a header that carries explicit sequence numbers
/// (a resynchronization point).
const SN_EXPLICIT: u8 = 1 << 3;

/// Encoder for the Appendix A *SN regeneration* form: "on a network that
/// has low loss and maintains packet order, we need not send SNs in each
/// chunk header" — the receiver regenerates them with a counter that
/// advances one step per data element.
///
/// The transmitter must "send SN information to the receiver occasionally,
/// such as at the beginning of each PDU" so a desynchronized receiver can
/// recover; [`SnRegenEncoder::encode`] emits explicit SNs every
/// `resync_every` chunks and at every TPDU start.
#[derive(Debug)]
pub struct SnRegenEncoder {
    resync_every: u32,
    since_resync: u32,
}

impl SnRegenEncoder {
    /// Creates an encoder that resynchronizes at least every
    /// `resync_every` chunks (and at every TPDU start).
    pub fn new(resync_every: u32) -> Self {
        SnRegenEncoder {
            resync_every: resync_every.max(1),
            since_resync: u32::MAX, // first chunk is always explicit
        }
    }

    /// Encodes `h`, appending to `out`. Returns `true` when the header
    /// carried explicit SNs.
    pub fn encode(&mut self, h: &ChunkHeader, out: &mut Vec<u8>) -> bool {
        let explicit = self.since_resync >= self.resync_every || h.tpdu.sn == 0;
        self.since_resync = if explicit { 1 } else { self.since_resync + 1 };
        out.push(h.ty.to_u8());
        let mut flags = flags_of(h);
        if explicit {
            flags |= SN_EXPLICIT;
        }
        out.push(flags);
        out.extend_from_slice(&h.size.to_be_bytes());
        out.extend_from_slice(&h.len.to_be_bytes());
        out.extend_from_slice(&h.conn.id.to_be_bytes());
        out.extend_from_slice(&h.tpdu.id.to_be_bytes());
        out.extend_from_slice(&h.ext.id.to_be_bytes());
        if explicit {
            out.extend_from_slice(&h.conn.sn.to_be_bytes());
            out.extend_from_slice(&h.tpdu.sn.to_be_bytes());
            out.extend_from_slice(&h.ext.sn.to_be_bytes());
        }
        explicit
    }
}

/// Byte length of an SN-regenerated header: 20 implicit, 32 explicit.
pub const SN_REGEN_IMPLICIT_LEN: usize = 20;
/// Byte length of an explicit (resync) header under the SN-regen form.
pub const SN_REGEN_EXPLICIT_LEN: usize = 32;

/// Decoder counterpart of [`SnRegenEncoder`].
///
/// The counters advance per data element; loss of a chunk desynchronizes
/// them, which the end-to-end error detection then catches — "the error
/// detection system will detect the incorrect sequence numbers and allow
/// any incorrect chunks to be discarded" — until the next explicit header
/// restores synchronization.
#[derive(Debug, Default)]
pub struct SnRegenDecoder {
    next_c_sn: u32,
    next_t_sn: u32,
    next_x_sn: u32,
    last_t_id: Option<u32>,
    last_x_id: Option<u32>,
}

impl SnRegenDecoder {
    /// Creates a decoder with zeroed counters (the first header on a
    /// channel is always explicit, so the initial values never matter).
    pub fn new() -> Self {
        Self::default()
    }

    /// Decodes one header from the front of `buf`, returning it and the
    /// bytes consumed.
    pub fn decode(&mut self, buf: &[u8]) -> Result<(ChunkHeader, usize), CoreError> {
        if buf.len() < SN_REGEN_IMPLICIT_LEN {
            return Err(CoreError::Truncated);
        }
        let ty = ChunkType::from_u8(buf[0]).ok_or(CoreError::BadType(buf[0]))?;
        let flags = buf[1];
        let explicit = flags & SN_EXPLICIT != 0;
        let need = if explicit {
            SN_REGEN_EXPLICIT_LEN
        } else {
            SN_REGEN_IMPLICIT_LEN
        };
        if buf.len() < need {
            return Err(CoreError::Truncated);
        }
        let rd = |at: usize| u32::from_be_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]]);
        let size = u16::from_be_bytes([buf[2], buf[3]]);
        let len = rd(4);
        let c_id = rd(8);
        let t_id = rd(12);
        let x_id = rd(16);
        let (c_sn, t_sn, x_sn) = if explicit {
            (rd(20), rd(24), rd(28))
        } else {
            // Regenerate. A new TPDU or external PDU restarts its counter.
            let t_sn = if self.last_t_id == Some(t_id) {
                self.next_t_sn
            } else {
                0
            };
            let x_sn = if self.last_x_id == Some(x_id) {
                self.next_x_sn
            } else {
                0
            };
            (self.next_c_sn, t_sn, x_sn)
        };
        // Advance the counters one step per element carried.
        self.next_c_sn = c_sn.wrapping_add(len);
        self.next_t_sn = t_sn.wrapping_add(len);
        self.next_x_sn = x_sn.wrapping_add(len);
        self.last_t_id = Some(t_id);
        self.last_x_id = Some(x_id);
        Ok((
            ChunkHeader {
                ty,
                size,
                len,
                conn: FramingTuple::new(c_id, c_sn, flags & 1 != 0),
                tpdu: FramingTuple::new(t_id, t_sn, flags & 2 != 0),
                ext: FramingTuple::new(x_id, x_sn, flags & 4 != 0),
            },
            need,
        ))
    }
}

fn zero_header() -> ChunkHeader {
    ChunkHeader {
        ty: ChunkType::Padding,
        size: 0,
        len: 0,
        conn: FramingTuple::default(),
        tpdu: FramingTuple::default(),
        ext: FramingTuple::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::byte_chunk;
    use crate::frag::split;

    fn sample() -> Chunk {
        byte_chunk(
            FramingTuple::new(0xA, 36, false),
            // Labelled so that T.ID == C.SN - T.SN: invertible implicit form.
            FramingTuple::new(36, 0, true),
            FramingTuple::new(0xC, 24, false),
            b"0123456",
        )
    }

    #[test]
    fn figure7_implicit_tid_values() {
        // Figure 7: C.SN 35..42, T.SN 5,0,1,2,3,4,5,0 => T.ID 30,36,...,36,42.
        let c_sn = [35u32, 36, 37, 38, 39, 40, 41, 42];
        let t_sn = [5u32, 0, 1, 2, 3, 4, 5, 0];
        let expect = [30u32, 36, 36, 36, 36, 36, 36, 42];
        for i in 0..8 {
            assert_eq!(implicit_tid(c_sn[i], t_sn[i]), expect[i], "i = {i}");
        }
    }

    #[test]
    fn implicit_tid_wraps() {
        assert_eq!(implicit_tid(2, 5), u32::MAX - 2);
    }

    #[test]
    fn all_forms_roundtrip() {
        let c = sample();
        let mut ctx = SignalledContext::new();
        ctx.signal_size(ChunkType::Data, 1);
        for form in [
            HeaderForm::Full,
            HeaderForm::ImplicitTid,
            HeaderForm::SizeElided,
            HeaderForm::Compact,
        ] {
            let mut buf = Vec::new();
            encode_header_form(&c.header, form, &ctx, &mut buf).unwrap();
            assert_eq!(buf.len(), form.header_len(), "{form:?}");
            let (h, used) = decode_header_form(&buf, form, &ctx).unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(h, c.header, "{form:?}");
        }
    }

    #[test]
    fn implicit_form_requires_conforming_labels() {
        let mut c = sample();
        c.header.tpdu.id = 0x51; // not C.SN - T.SN
        let ctx = SignalledContext::new();
        let mut buf = Vec::new();
        assert!(encode_header_form(&c.header, HeaderForm::ImplicitTid, &ctx, &mut buf).is_err());
    }

    #[test]
    fn size_elision_requires_signalled_context() {
        let c = sample();
        let ctx = SignalledContext::new();
        let mut buf = Vec::new();
        assert_eq!(
            encode_header_form(&c.header, HeaderForm::SizeElided, &ctx, &mut buf).unwrap_err(),
            CoreError::MissingContext(ChunkType::Data)
        );
    }

    #[test]
    fn implicit_form_survives_fragmentation() {
        // The key property: C.SN - T.SN is invariant under Appendix C
        // splitting, so the implicit form stays decodable after any number
        // of fragmentation steps.
        let c = sample();
        let (a, b) = split(&c, 3).unwrap();
        let ctx = SignalledContext::new();
        for piece in [&a, &b] {
            let mut buf = Vec::new();
            encode_header_form(&piece.header, HeaderForm::ImplicitTid, &ctx, &mut buf).unwrap();
            let (h, _) = decode_header_form(&buf, HeaderForm::ImplicitTid, &ctx).unwrap();
            assert_eq!(h, piece.header);
        }
    }

    #[test]
    fn delta_roundtrip_related_chunks() {
        // A fragmented pair plus an unrelated chunk.
        let c = sample();
        let (a, b) = split(&c, 4).unwrap();
        let other = byte_chunk(
            FramingTuple::new(0xF0, 0, false),
            FramingTuple::new(0xF1, 0, false),
            FramingTuple::new(0xF2, 0, true),
            b"zz",
        );
        let chunks = vec![a, b, other];
        let buf = encode_packet_delta(&chunks);
        assert_eq!(decode_packet_delta(&buf).unwrap(), chunks);
    }

    #[test]
    fn delta_saves_bytes_on_continuations() {
        let c = sample();
        let (a, b) = split(&c, 4).unwrap();
        let full: usize = [&a, &b].iter().map(|c| c.wire_len()).sum();
        let delta = encode_packet_delta(&[a, b]).len();
        assert!(
            delta < full,
            "delta {delta} should beat full {full} on a continuation pair"
        );
    }

    #[test]
    fn delta_rejects_truncation() {
        let buf = encode_packet_delta(&[sample()]);
        for cut in [0, 1, 3, buf.len() - 1] {
            assert!(decode_packet_delta(&buf[..cut]).is_err(), "cut = {cut}");
        }
    }
}

#[cfg(test)]
mod sn_regen_tests {
    use super::*;
    use crate::chunk::byte_chunk;
    use crate::label::FramingTuple;

    /// A stream of chunks: two TPDUs of three chunks each, one external
    /// frame spanning everything, contiguous C.SNs.
    fn stream() -> Vec<crate::chunk::Chunk> {
        let mut out = Vec::new();
        let mut c_sn = 100u32;
        let mut x_sn = 0u32;
        for t in 0..2u32 {
            for k in 0..3u32 {
                let len = 4;
                out.push(byte_chunk(
                    FramingTuple::new(0xA, c_sn, false),
                    FramingTuple::new(10 + t, k * len, k == 2),
                    FramingTuple::new(0xE, x_sn, t == 1 && k == 2),
                    &[0x55; 4],
                ));
                c_sn = c_sn.wrapping_add(len);
                x_sn += len;
            }
        }
        out
    }

    #[test]
    fn in_order_roundtrip_with_regeneration() {
        let chunks = stream();
        let mut enc = SnRegenEncoder::new(1000);
        let mut dec = SnRegenDecoder::new();
        let mut explicit_count = 0;
        for c in &chunks {
            let mut buf = Vec::new();
            if enc.encode(&c.header, &mut buf) {
                explicit_count += 1;
            }
            let (h, used) = dec.decode(&buf).unwrap();
            assert_eq!(used, buf.len());
            assert_eq!(h, c.header, "regenerated header must match");
        }
        // Explicit only at the two TPDU starts.
        assert_eq!(explicit_count, 2);
    }

    #[test]
    fn implicit_headers_save_twelve_bytes() {
        let chunks = stream();
        let mut enc = SnRegenEncoder::new(1000);
        let mut sizes = Vec::new();
        for c in &chunks {
            let mut buf = Vec::new();
            enc.encode(&c.header, &mut buf);
            sizes.push(buf.len());
        }
        assert_eq!(sizes[0], SN_REGEN_EXPLICIT_LEN);
        assert_eq!(sizes[1], SN_REGEN_IMPLICIT_LEN);
        assert_eq!(sizes[2], SN_REGEN_IMPLICIT_LEN);
    }

    #[test]
    fn loss_desynchronizes_until_resync() {
        let chunks = stream();
        let mut enc = SnRegenEncoder::new(1000);
        let encoded: Vec<(Vec<u8>, ChunkHeader)> = chunks
            .iter()
            .map(|c| {
                let mut buf = Vec::new();
                enc.encode(&c.header, &mut buf);
                (buf, c.header)
            })
            .collect();
        // Lose chunk index 1 (implicit). The decoder regenerates wrong SNs
        // for chunk 2 — detectable garbage — then resyncs at chunk 3 (the
        // second TPDU's explicit start).
        let mut dec = SnRegenDecoder::new();
        let (h0, _) = dec.decode(&encoded[0].0).unwrap();
        assert_eq!(h0, encoded[0].1);
        let (h2, _) = dec.decode(&encoded[2].0).unwrap();
        assert_ne!(h2, encoded[2].1, "desynchronized SNs differ");
        assert_eq!(
            h2.conn.sn, encoded[1].1.conn.sn,
            "counter lags by one chunk"
        );
        let (h3, _) = dec.decode(&encoded[3].0).unwrap();
        assert_eq!(h3, encoded[3].1, "explicit header resynchronizes");
    }

    #[test]
    fn periodic_resync_forced() {
        // A long run inside one TPDU: resync_every = 2 forces explicit SNs
        // on every other chunk.
        let mut enc = SnRegenEncoder::new(2);
        let mut explicits = Vec::new();
        for k in 0..6u32 {
            let c = byte_chunk(
                FramingTuple::new(1, 100 + k * 4, false),
                FramingTuple::new(2, 1 + k * 4, false), // never T.SN 0
                FramingTuple::new(3, k * 4, false),
                &[0; 4],
            );
            let mut buf = Vec::new();
            explicits.push(enc.encode(&c.header, &mut buf));
        }
        assert_eq!(explicits, vec![true, false, true, false, true, false]);
    }

    #[test]
    fn truncated_input_rejected() {
        let mut dec = SnRegenDecoder::new();
        assert_eq!(dec.decode(&[0u8; 4]).unwrap_err(), CoreError::Truncated);
        // Explicit flag set but buffer only implicit-sized.
        let mut buf = vec![0u8; SN_REGEN_IMPLICIT_LEN];
        buf[0] = ChunkType::Data.to_u8();
        buf[1] = SN_EXPLICIT;
        assert_eq!(dec.decode(&buf).unwrap_err(), CoreError::Truncated);
    }
}
