//! End-to-end error detection for chunks (§4 of the paper).
//!
//! Chunks are fragmented in the network, and chunk headers carry higher-layer
//! framing information, so a conventional CRC over the TPDU bytes would
//! change under fragmentation. The paper's solution has two parts:
//!
//! 1. **WSC-2** ([`Wsc2`], module [`code`]): a weighted sum code over
//!    GF(2^32) producing two 32-bit parities. Unlike a CRC it can be
//!    computed over **disordered** data, because both parities are sums —
//!    each symbol's contribution depends only on its own *position*, not on
//!    the order of processing.
//! 2. **The TPDU invariant** ([`TpduInvariant`], module [`invariant`],
//!    Figures 5 and 6): a canonical assignment of TPDU data and the
//!    fragmentation-*variant* header fields to positions in the error
//!    detection code space, chosen so the resulting code value is identical
//!    no matter how the TPDU was cut into chunks.
//!
//! Module [`compare`] provides CRC-32 and the Internet checksum as
//! comparators for the evaluation (experiment B4): the Internet checksum is
//! order-independent but weak; CRC-32 is strong but order-dependent.
//!
//! # Fast path vs. reference path
//!
//! The hot verification path is [`Wsc2Stream`] (module [`stream`]): it feeds
//! disordered `(position, symbols)` runs through the table-driven GF(2^32)
//! arithmetic of `chunks_gf`, caching the weight of the cursor position so
//! contiguous runs never recompute `alpha^position`. [`TpduInvariant`] is
//! built on it. The one-shot [`Wsc2`] API stays as the simple entry point,
//! and its `*_ref` methods ([`Wsc2::add_bytes_ref`], [`Wsc2::add_symbol_ref`])
//! preserve the seed bit-serial path as the oracle the property tests and
//! the `codes` benchmark compare against.

#![deny(missing_docs)]

pub mod code;
pub mod compare;
pub mod invariant;
pub mod stream;

pub use code::{Wsc2, MAX_SYMBOLS};
pub use invariant::{InvariantError, InvariantLayout, InvariantState, TpduInvariant};
pub use stream::Wsc2Stream;
