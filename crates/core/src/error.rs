//! Error types for the chunk core.

use std::error::Error;
use std::fmt;

use crate::label::ChunkType;

/// Errors produced when constructing, encoding, decoding, fragmenting or
/// reassembling chunks and packets.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CoreError {
    /// Payload length does not equal `SIZE * LEN`.
    PayloadSizeMismatch {
        /// Expected payload length in bytes.
        expected: usize,
        /// Actual payload length in bytes.
        actual: usize,
    },
    /// A chunk's `SIZE` field is zero.
    ZeroSize,
    /// A valid chunk must carry at least one element (`LEN = 0` is reserved
    /// for the end-of-packet marker).
    ZeroLen,
    /// Control information is indivisible: control chunks carry exactly one
    /// element (§2).
    ControlNotAtomic(ChunkType),
    /// A split point must fall strictly inside the chunk.
    SplitOutOfRange {
        /// Requested leading-fragment length in elements.
        at: u32,
        /// Chunk length in elements.
        len: u32,
    },
    /// The two chunks do not satisfy the Appendix D merge predicate.
    NotAdjacent,
    /// The buffer ended before a complete header or payload.
    Truncated,
    /// A header's claimed payload (`SIZE * LEN`) exceeds the decoder's
    /// sanity bound: a hostile length field that would otherwise demand an
    /// enormous allocation before truncation could even be noticed.
    OversizedLen {
        /// Bytes the header claims (`SIZE * LEN`, widened).
        claimed: u64,
        /// The decoder's bound.
        max: u64,
    },
    /// Unknown `TYPE` byte on the wire.
    BadType(u8),
    /// A single element (`SIZE` bytes plus header) cannot fit in the MTU, so
    /// the chunk cannot be fragmented to fit (the atomic unit would split).
    ElementExceedsMtu {
        /// Element size in bytes.
        size: u16,
        /// Maximum packet payload in bytes.
        mtu: usize,
    },
    /// Non-zero trailing bytes after the last chunk of a packet.
    TrailingGarbage,
    /// A compressed header referenced signalled state (for instance a
    /// per-type `SIZE`) that the decompression context does not hold. Only
    /// the Appendix A codecs of experiment B5 (the root package's
    /// `experiments::compress`) raise it.
    MissingContext(ChunkType),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::PayloadSizeMismatch { expected, actual } => write!(
                f,
                "payload length {actual} does not match SIZE*LEN = {expected}"
            ),
            CoreError::ZeroSize => write!(f, "chunk SIZE must be nonzero"),
            CoreError::ZeroLen => write!(f, "chunk LEN must be nonzero"),
            CoreError::ControlNotAtomic(t) => {
                write!(
                    f,
                    "control chunk of type {t} must carry exactly one element"
                )
            }
            CoreError::SplitOutOfRange { at, len } => {
                write!(f, "split point {at} outside chunk of {len} elements")
            }
            CoreError::NotAdjacent => write!(
                f,
                "chunks are not adjacent on all three framing levels (Appendix D)"
            ),
            CoreError::Truncated => write!(f, "truncated chunk or packet"),
            CoreError::OversizedLen { claimed, max } => {
                write!(
                    f,
                    "header claims {claimed} payload bytes, decoder bound is {max}"
                )
            }
            CoreError::BadType(b) => write!(f, "unknown chunk TYPE byte {b:#04x}"),
            CoreError::ElementExceedsMtu { size, mtu } => write!(
                f,
                "atomic element of {size} bytes cannot fit packet payload of {mtu} bytes"
            ),
            CoreError::TrailingGarbage => {
                write!(f, "non-zero bytes after last chunk in packet")
            }
            CoreError::MissingContext(t) => {
                write!(f, "no signalled context for chunk type {t}")
            }
        }
    }
}

impl CoreError {
    /// A short stable kebab-case tag for the error, suitable as the
    /// `reason` of a `ChunkRejected` trace event.
    pub fn kind(&self) -> &'static str {
        match self {
            CoreError::PayloadSizeMismatch { .. } => "payload-size-mismatch",
            CoreError::ZeroSize => "zero-size",
            CoreError::ZeroLen => "zero-len",
            CoreError::ControlNotAtomic(_) => "control-not-atomic",
            CoreError::SplitOutOfRange { .. } => "split-out-of-range",
            CoreError::NotAdjacent => "not-adjacent",
            CoreError::Truncated => "truncated",
            CoreError::OversizedLen { .. } => "oversized-len",
            CoreError::BadType(_) => "bad-type",
            CoreError::ElementExceedsMtu { .. } => "element-exceeds-mtu",
            CoreError::TrailingGarbage => "trailing-garbage",
            CoreError::MissingContext(_) => "missing-context",
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = CoreError::PayloadSizeMismatch {
            expected: 8,
            actual: 4,
        };
        assert!(e.to_string().contains("SIZE*LEN"));
        assert!(CoreError::BadType(0xFF).to_string().contains("0xff"));
        assert!(CoreError::ControlNotAtomic(ChunkType::Ack)
            .to_string()
            .contains("ACK"));
    }
}
