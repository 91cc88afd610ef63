//! Executable reproductions of every figure and table in the paper, plus
//! the quantified prose claims (experiments B1–B6 in DESIGN.md).
//!
//! Each experiment returns a structured result with a `Display`
//! implementation; the `experiments` binary prints them, and the
//! integration tests assert on them. EXPERIMENTS.md records the outcomes
//! against the paper's claims.

/// Seed every deterministic experiment runs under.
pub const SEED: u64 = 0xC0451;
/// Second, independent seed for the soak determinism sweep.
pub const SEED2: u64 = 0xA5EED;

pub mod alloc_count;
pub mod appendix_b;
pub mod b1_receiver_modes;
pub mod b2_frag_systems;
pub mod b3_lockup;
pub mod b4_codes;
pub mod b5_compress;
pub mod b6_demux;
pub mod b7_turner;
pub mod b8_gap_budget;
pub mod bench_check;
pub mod benchjson;
pub mod compress;
pub mod figures;
pub mod health;
pub mod lineage;
pub mod overlap;
pub mod scale;
pub mod soak;
pub mod table1;
pub mod trace;
