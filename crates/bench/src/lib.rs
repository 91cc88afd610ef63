//! Shared workload builders for the Criterion benchmark suite.
//!
//! One bench target exists per paper comparison in DESIGN.md §4:
//! `codes` (B4), `frag_reasm` (F3), `frag_systems` (B2), `internetwork`
//! (F4), `cipher` (§1). The TPDU invariant's absorb speed (F5/F6), the wire
//! codec and the receiver's delivery modes (B1) are the throughput ledger's
//! `gf.fold` / `wsc.absorb`, `core.*` and `transport.receiver.*` legs. B5's
//! Appendix A header forms are judged by their byte counts and
//! invertibility (`experiments b5`), not their speed: no traffic sends them.

#![deny(missing_docs)]

use bytes::Bytes;
use chunks_core::chunk::{Chunk, ChunkHeader};
use chunks_core::label::FramingTuple;

/// A data chunk of `len` one-byte elements with deterministic payload.
pub fn chunk_of(len: u32) -> Chunk {
    let payload: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
    Chunk::new(
        ChunkHeader::data(
            1,
            len,
            FramingTuple::new(0xA, 1000, false),
            FramingTuple::new(0x51, 0, true),
            FramingTuple::new(0xC, 500, false),
        ),
        Bytes::from(payload),
    )
    .unwrap()
}

/// Deterministic pseudo-random byte buffer.
pub fn buffer(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 37 + 11) as u8).collect()
}
