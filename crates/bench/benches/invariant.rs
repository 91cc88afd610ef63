#![allow(missing_docs)] // criterion_main! generates an undocumented fn main

//! F5/F6 bench: cost of the fragmentation-invariant error detection.
//!
//! Two workload families on the active GF(2^32) backend:
//!
//! * `absorb_fragments/{N}` — the paper's worst case: an 8192-byte TPDU
//!   of **1-byte elements** (every element zero-padded to its own symbol),
//!   absorbed as `N` fragments through [`TpduInvariant`]. The
//!   padded-element gather path turns this into batched folds;
//!   `absorb_fragments_ref/{N}` replays the seed implementation (one-shot
//!   bit-serial `Wsc2` calls per element) as the baseline.
//! * `absorb_bulk/{N}` — the wire-speed case: a 65536-byte TPDU of
//!   **1024-byte elements** (SIZE a whole number of symbols, so payloads
//!   absorb as one contiguous run), again as `N` fragments.
//!
//! Every arm must reproduce the seed digest before it is timed. The
//! throughput numbers of record are the ledger's `gf.fold.mib_s` and
//! `wsc.absorb.*` on `bulk-clean`; per-backend digest equality is pinned
//! by `crates/wsc/tests/invariance.rs`.

use chunks_bench::{chunk_of, chunk_of_elements};
use chunks_core::chunk::{Chunk, ChunkHeader};
use chunks_core::frag::split_to_fit;
use chunks_core::wire::WIRE_HEADER_LEN;
use chunks_wsc::{InvariantLayout, TpduInvariant, Wsc2};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};

/// Replica of the seed `TpduInvariant::absorb_chunk`: per-element one-shot
/// `Wsc2` absorption through the bit-serial reference path, recomputing
/// `alpha^position` from scratch for every element.
fn absorb_chunk_ref(
    wsc: &mut Wsc2,
    ids: &mut Option<(u32, u32)>,
    layout: InvariantLayout,
    header: &ChunkHeader,
    payload: &[u8],
) {
    let spe = Wsc2::symbols_for_bytes(header.size as usize);
    let first = header.tpdu.sn as u64;
    if ids.is_none() {
        *ids = Some((header.tpdu.id, header.conn.id));
        wsc.add_symbol_ref(layout.tid_pos(), header.tpdu.id);
        wsc.add_symbol_ref(layout.cid_pos(), header.conn.id);
    }
    for (e, element) in payload.chunks(header.size as usize).enumerate() {
        wsc.add_bytes_ref((first + e as u64) * spe, element);
    }
    if header.conn.st {
        wsc.add_symbol_ref(layout.cst_pos(), 1);
    }
    if header.ext.st || header.tpdu.st {
        let t_sn_last = header.tpdu.sn.wrapping_add(header.len - 1);
        let base = layout.x_pair_pos(t_sn_last);
        wsc.add_symbol_ref(base, header.ext.id);
        wsc.add_symbol_ref(base + 1, header.ext.st as u32);
    }
}

/// The digest of `frags` through the production path.
fn absorb_all(frags: &[Chunk]) -> [u8; 8] {
    let mut inv = TpduInvariant::with_default_layout();
    for f in frags {
        inv.absorb_chunk(&f.header, &f.payload).unwrap();
    }
    inv.digest()
}

/// The digest of `frags` through the seed replica.
fn absorb_all_ref(frags: &[Chunk]) -> [u8; 8] {
    let layout = InvariantLayout::default();
    let mut wsc = Wsc2::new();
    let mut ids = None;
    for f in frags {
        absorb_chunk_ref(&mut wsc, &mut ids, layout, &f.header, &f.payload);
    }
    wsc.digest()
}

/// One TPDU absorbed as `pieces` fragments through `TpduInvariant`. The
/// seed bit-serial replica is timed as the `_ref` arm on the fragments
/// workload only — its per-symbol cost is already characterized there, so
/// re-timing it on the 8× larger bulk payload adds bench time without
/// information.
fn bench_absorb(
    c: &mut Criterion,
    function: &str,
    whole: &Chunk,
    with_ref: bool,
    piece_counts: &[u32],
) {
    let bytes = whole.payload.len() as u64;
    let mut g = c.benchmark_group("invariant");
    g.throughput(Throughput::Bytes(bytes));
    for &pieces in piece_counts {
        let frags = if pieces == 1 {
            vec![whole.clone()]
        } else {
            split_to_fit(
                whole.clone(),
                WIRE_HEADER_LEN + (bytes / pieces as u64) as usize,
            )
            .unwrap()
        };

        // Both arms must agree on the digest before timings mean anything.
        assert_eq!(
            absorb_all(&frags),
            absorb_all_ref(&frags),
            "digest diverged from the seed oracle"
        );

        g.bench_with_input(format!("{function}/{pieces}"), &frags, |b, frags| {
            b.iter(|| absorb_all(frags))
        });
        if with_ref {
            g.bench_with_input(format!("{function}_ref/{pieces}"), &frags, |b, frags| {
                b.iter(|| absorb_all_ref(frags))
            });
        }
    }
    g.finish();
}

fn bench_invariant(c: &mut Criterion) {
    bench_absorb(c, "absorb_fragments", &chunk_of(8192), true, &[1, 8, 64]);
    bench_absorb(
        c,
        "absorb_bulk",
        &chunk_of_elements(1024, 64),
        false,
        &[1, 16],
    );
}

criterion_group!(benches, bench_invariant);
criterion_main!(benches);
