//! Connection management signalling.
//!
//! The connection is "a single, unmultiplexed application-to-application
//! conversation" (§2, citing FELD 90). Its beginning is indicated by a
//! signalling message rather than an SN of zero, its end by the `C.ST` bit
//! (or a teardown signal). Establishment also signals the parameters that
//! let compressed header forms elide fields (Appendix A): the data element
//! `SIZE` and the TPDU size.

use bytes::Bytes;
use chunks_core::chunk::{Chunk, ChunkHeader};
use chunks_core::label::{ChunkType, FramingTuple};

/// Parameters of one connection, agreed at establishment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ConnectionParams {
    /// Connection identifier (`C.ID`).
    pub conn_id: u32,
    /// Data element size in bytes (`SIZE` of data chunks).
    pub elem_size: u16,
    /// Initial `C.SN` (connections reuse sequence numbers over time, so the
    /// start is signalled, not implied to be zero).
    pub initial_csn: u32,
    /// Elements per TPDU the sender intends to use.
    pub tpdu_elements: u32,
}

/// A connection signalling message, carried in a `Signal` control chunk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Signal {
    /// Opens a connection and announces its parameters.
    Establish(ConnectionParams),
    /// Closes a connection explicitly (the alternative to `C.ST`,
    /// Appendix A notes the `C.ST` bit itself could be signalled).
    Teardown {
        /// The connection being closed.
        conn_id: u32,
    },
    /// Declares the connection dead from the sender's side: the reliability
    /// layer's retry budget emptied ([`crate::rto::TransportError`]'s
    /// `PeerUnreachable`), so the peer should stop waiting for repairs.
    Abort {
        /// The connection being aborted.
        conn_id: u32,
        /// Reason code (today only [`Signal::ABORT_PEER_UNREACHABLE`]).
        code: u8,
    },
}

impl Signal {
    /// Abort reason: the retransmission retry budget emptied without an ack.
    pub const ABORT_PEER_UNREACHABLE: u8 = 1;

    /// Encodes the signal payload.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Signal::Establish(p) => {
                let mut out = vec![1u8];
                out.extend_from_slice(&p.conn_id.to_be_bytes());
                out.extend_from_slice(&p.elem_size.to_be_bytes());
                out.extend_from_slice(&p.initial_csn.to_be_bytes());
                out.extend_from_slice(&p.tpdu_elements.to_be_bytes());
                out
            }
            Signal::Teardown { conn_id } => {
                let mut out = vec![2u8];
                out.extend_from_slice(&conn_id.to_be_bytes());
                out
            }
            Signal::Abort { conn_id, code } => {
                let mut out = vec![3u8];
                out.extend_from_slice(&conn_id.to_be_bytes());
                out.push(*code);
                out
            }
        }
    }

    /// Decodes a signal payload.
    pub fn decode(buf: &[u8]) -> Option<Signal> {
        match *buf.first()? {
            1 if buf.len() == 15 => Some(Signal::Establish(ConnectionParams {
                conn_id: u32::from_be_bytes(buf[1..5].try_into().ok()?),
                elem_size: u16::from_be_bytes(buf[5..7].try_into().ok()?),
                initial_csn: u32::from_be_bytes(buf[7..11].try_into().ok()?),
                tpdu_elements: u32::from_be_bytes(buf[11..15].try_into().ok()?),
            })),
            2 if buf.len() == 5 => Some(Signal::Teardown {
                conn_id: u32::from_be_bytes(buf[1..5].try_into().ok()?),
            }),
            3 if buf.len() == 6 => Some(Signal::Abort {
                conn_id: u32::from_be_bytes(buf[1..5].try_into().ok()?),
                code: buf[5],
            }),
            _ => None,
        }
    }

    /// Wraps the signal in a control chunk.
    pub fn to_chunk(&self) -> Chunk {
        let payload = self.encode();
        let conn_id = match self {
            Signal::Establish(p) => p.conn_id,
            Signal::Teardown { conn_id } | Signal::Abort { conn_id, .. } => *conn_id,
        };
        Chunk::new(
            ChunkHeader::control(
                ChunkType::Signal,
                payload.len() as u16,
                FramingTuple::new(conn_id, 0, false),
                FramingTuple::new(0, 0, false),
                FramingTuple::new(0, 0, false),
            ),
            Bytes::from(payload),
        )
        .expect("signal chunk is consistent")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ConnectionParams {
        ConnectionParams {
            conn_id: 0xAB,
            elem_size: 4,
            initial_csn: 1000,
            tpdu_elements: 256,
        }
    }

    #[test]
    fn establish_roundtrip() {
        let s = Signal::Establish(params());
        assert_eq!(Signal::decode(&s.encode()), Some(s));
    }

    #[test]
    fn teardown_roundtrip() {
        let s = Signal::Teardown { conn_id: 7 };
        assert_eq!(Signal::decode(&s.encode()), Some(s));
    }

    #[test]
    fn chunk_roundtrip() {
        let s = Signal::Establish(params());
        let c = s.to_chunk();
        assert_eq!(c.header.ty, ChunkType::Signal);
        assert_eq!(c.header.conn.id, 0xAB);
        assert_eq!(Signal::decode(&c.payload), Some(s));
    }

    #[test]
    fn abort_roundtrip() {
        let s = Signal::Abort {
            conn_id: 9,
            code: Signal::ABORT_PEER_UNREACHABLE,
        };
        assert_eq!(Signal::decode(&s.encode()), Some(s));
        assert_eq!(Signal::decode(&s.to_chunk().payload), Some(s));
    }

    #[test]
    fn garbage_rejected() {
        assert_eq!(Signal::decode(&[]), None);
        assert_eq!(Signal::decode(&[9, 0, 0]), None);
        assert_eq!(Signal::decode(&[1, 0]), None);
        assert_eq!(Signal::decode(&[3, 0, 0, 0, 0]), None, "abort too short");
    }
}
