//! The scale sweep's standing gate: the shrunken soak — every cell of the
//! million-connection experiment at 16 Ki connections — must pass its
//! acceptance gates and replay identically. The full 2^20-connection run is
//! the same code at a bigger constant; `bench-check` regenerates it and
//! diffs `BENCH_scale.json` byte for byte.
//!
//! This binary does not install the counting global allocator, so the
//! allocation and memory-per-connection figures are absent here; the
//! `experiments` binary reports and gates them.

use chunks::experiments::{scale, SEED};

#[test]
fn shrunken_scale_soak_passes_and_replays_identically() {
    let r = scale::run_quick(SEED);
    assert!(r.passes(), "{r}");
    assert_eq!(
        scale::run_quick(SEED),
        r,
        "replay must reproduce every cell"
    );
}
