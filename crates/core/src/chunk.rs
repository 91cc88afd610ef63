//! The chunk itself: a shared header labelling a run of data elements.

use bytes::Bytes;
use std::fmt;

use crate::error::CoreError;
use crate::label::{ChunkType, FramingTuple, Level};

/// The complete self-describing header of a chunk (§2, Figure 2).
///
/// All data elements of a chunk share the `TYPE` and the three `ID`s, so one
/// context retrieval serves the whole chunk and the payload is processed
/// uniformly by every protocol function.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ChunkHeader {
    /// How the payload is processed.
    pub ty: ChunkType,
    /// Atomic data-element size in bytes. Fragmentation never splits an
    /// element (so e.g. DES 8-byte blocks always travel whole).
    pub size: u16,
    /// Number of elements carried. `0` is reserved for the end-of-packet
    /// marker and never appears in a real chunk.
    pub len: u32,
    /// Connection-level framing (`C.ID`, `C.SN`, `C.ST`).
    pub conn: FramingTuple,
    /// Transport-PDU framing (`T.ID`, `T.SN`, `T.ST`).
    pub tpdu: FramingTuple,
    /// External-PDU framing (`X.ID`, `X.SN`, `X.ST`), e.g. ALF frames.
    pub ext: FramingTuple,
}

impl ChunkHeader {
    /// Builds a data-chunk header.
    pub fn data(
        size: u16,
        len: u32,
        conn: FramingTuple,
        tpdu: FramingTuple,
        ext: FramingTuple,
    ) -> Self {
        ChunkHeader {
            ty: ChunkType::Data,
            size,
            len,
            conn,
            tpdu,
            ext,
        }
    }

    /// Builds a control-chunk header carrying one indivisible element of
    /// `size` bytes.
    pub fn control(
        ty: ChunkType,
        size: u16,
        conn: FramingTuple,
        tpdu: FramingTuple,
        ext: FramingTuple,
    ) -> Self {
        debug_assert!(ty.is_control());
        ChunkHeader {
            ty,
            size,
            len: 1,
            conn,
            tpdu,
            ext,
        }
    }

    /// Total payload bytes described by this header (`SIZE * LEN`).
    pub fn payload_len(&self) -> usize {
        self.size as usize * self.len as usize
    }

    /// The framing tuple for a level.
    pub fn tuple(&self, level: Level) -> FramingTuple {
        match level {
            Level::Connection => self.conn,
            Level::Tpdu => self.tpdu,
            Level::External => self.ext,
        }
    }

    /// Checks the structural invariants of a header.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.size == 0 {
            return Err(CoreError::ZeroSize);
        }
        if self.len == 0 {
            return Err(CoreError::ZeroLen);
        }
        if self.ty.is_control() && self.len != 1 {
            return Err(CoreError::ControlNotAtomic(self.ty));
        }
        Ok(())
    }
}

impl fmt::Display for ChunkHeader {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{} size={} len={} C{} T{} X{}]",
            self.ty, self.size, self.len, self.conn, self.tpdu, self.ext
        )
    }
}

/// A chunk: a self-describing header plus its payload.
///
/// The payload is a cheaply-cloneable [`Bytes`] so that splitting a chunk
/// (Appendix C) shares the underlying buffer instead of copying — the model
/// analogue of the paper's "manipulation is quite simple" claim.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Chunk {
    /// The self-describing label.
    pub header: ChunkHeader,
    /// `SIZE * LEN` payload bytes.
    pub payload: Bytes,
}

impl Chunk {
    /// Creates a chunk, validating that the payload length matches the
    /// header's `SIZE * LEN`.
    pub fn new(header: ChunkHeader, payload: Bytes) -> Result<Self, CoreError> {
        header.validate()?;
        let expected = header.payload_len();
        if payload.len() != expected {
            return Err(CoreError::PayloadSizeMismatch {
                expected,
                actual: payload.len(),
            });
        }
        Ok(Chunk { header, payload })
    }

    /// The `k`-th data element of the chunk (a `SIZE`-byte slice).
    ///
    /// Returns `None` when `k >= LEN`.
    pub fn element(&self, k: u32) -> Option<&[u8]> {
        if k >= self.header.len {
            return None;
        }
        let s = self.header.size as usize;
        let start = k as usize * s;
        Some(&self.payload[start..start + s])
    }

    /// Iterates over `(connection SN, element bytes)` pairs — the unit a
    /// receiver places directly into the application address space.
    pub fn elements(&self) -> impl Iterator<Item = (u32, &[u8])> + '_ {
        let size = self.header.size as usize;
        let base = self.header.conn.sn;
        self.payload
            .chunks(size)
            .enumerate()
            .map(move |(k, e)| (base.wrapping_add(k as u32), e))
    }

    /// Total bytes this chunk occupies on the wire under the uncompressed
    /// codec (header + payload).
    pub fn wire_len(&self) -> usize {
        crate::wire::WIRE_HEADER_LEN + self.payload.len()
    }
}

impl fmt::Display for Chunk {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} + {}B", self.header, self.payload.len())
    }
}

/// Convenience constructor used throughout the tests and examples: a data
/// chunk with `SIZE = 1` whose payload is `bytes`.
pub fn byte_chunk(
    conn: FramingTuple,
    tpdu: FramingTuple,
    ext: FramingTuple,
    bytes: &[u8],
) -> Chunk {
    Chunk::new(
        ChunkHeader::data(1, bytes.len() as u32, conn, tpdu, ext),
        Bytes::copy_from_slice(bytes),
    )
    .expect("byte_chunk: consistent by construction")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr(size: u16, len: u32) -> ChunkHeader {
        ChunkHeader::data(
            size,
            len,
            FramingTuple::new(1, 100, false),
            FramingTuple::new(2, 0, true),
            FramingTuple::new(3, 50, false),
        )
    }

    #[test]
    fn payload_must_match_size_times_len() {
        let h = hdr(4, 3);
        assert!(Chunk::new(h, Bytes::from(vec![0u8; 12])).is_ok());
        assert_eq!(
            Chunk::new(h, Bytes::from(vec![0u8; 11])).unwrap_err(),
            CoreError::PayloadSizeMismatch {
                expected: 12,
                actual: 11
            }
        );
    }

    #[test]
    fn zero_size_and_len_rejected() {
        let mut h = hdr(0, 3);
        assert_eq!(h.validate(), Err(CoreError::ZeroSize));
        h.size = 4;
        h.len = 0;
        assert_eq!(h.validate(), Err(CoreError::ZeroLen));
    }

    #[test]
    fn control_must_be_atomic() {
        let mut h = hdr(8, 2);
        h.ty = ChunkType::ErrorDetection;
        assert_eq!(h.validate(), Err(CoreError::ControlNotAtomic(h.ty)));
        h.len = 1;
        assert!(h.validate().is_ok());
    }

    #[test]
    fn element_access() {
        let c = Chunk::new(hdr(2, 3), Bytes::from_static(b"aabbcc")).unwrap();
        assert_eq!(c.element(0).unwrap(), b"aa");
        assert_eq!(c.element(2).unwrap(), b"cc");
        assert!(c.element(3).is_none());
    }

    #[test]
    fn elements_carry_connection_sns() {
        let c = Chunk::new(hdr(2, 3), Bytes::from_static(b"aabbcc")).unwrap();
        let v: Vec<(u32, &[u8])> = c.elements().collect();
        assert_eq!(
            v,
            vec![(100, &b"aa"[..]), (101, &b"bb"[..]), (102, &b"cc"[..])]
        );
    }

    #[test]
    fn wire_len_counts_header_and_payload() {
        let c = Chunk::new(hdr(1, 5), Bytes::from_static(b"hello")).unwrap();
        assert_eq!(c.wire_len(), crate::wire::WIRE_HEADER_LEN + 5);
    }

    #[test]
    fn display_is_compact() {
        let c = byte_chunk(
            FramingTuple::new(1, 2, false),
            FramingTuple::new(3, 4, true),
            FramingTuple::new(5, 6, false),
            b"xy",
        );
        let s = c.to_string();
        assert!(s.contains("size=1"), "{s}");
        assert!(s.contains("len=2"), "{s}");
    }
}
