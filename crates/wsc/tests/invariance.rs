//! Property test of the paper's central §4 claim: the end-to-end error
//! detection value is *invariant under chunk fragmentation*, for arbitrary
//! TPDUs cut at arbitrary points, absorbed in arbitrary order.

use bytes::Bytes;
use chunks_core::chunk::{Chunk, ChunkHeader};
use chunks_core::frag::split;
use chunks_core::label::FramingTuple;
use chunks_wsc::{InvariantLayout, TpduInvariant, Wsc2, Wsc2Stream};
use proptest::prelude::*;

/// A whole TPDU as a single chunk with randomized labels and ST bits.
fn whole_tpdu() -> impl Strategy<Value = Chunk> {
    (
        1u16..=8,      // SIZE
        2u32..=48,     // LEN
        any::<u32>(),  // C.ID
        any::<u32>(),  // C.SN base
        any::<u32>(),  // T.ID
        any::<u32>(),  // X.ID
        any::<u32>(),  // X.SN base
        any::<bool>(), // C.ST
        any::<bool>(), // X.ST
        proptest::collection::vec(any::<u8>(), 8 * 48),
    )
        .prop_map(
            |(size, len, c_id, c_sn, t_id, x_id, x_sn, c_st, x_st, raw)| {
                let bytes = size as usize * len as usize;
                Chunk::new(
                    ChunkHeader::data(
                        size,
                        len,
                        FramingTuple::new(c_id, c_sn, c_st),
                        FramingTuple::new(t_id, 0, true),
                        FramingTuple::new(x_id, x_sn, x_st),
                    ),
                    Bytes::from(raw[..bytes].to_vec()),
                )
                .unwrap()
            },
        )
}

/// Recursively fragments a chunk at pseudo-random points driven by `cuts`.
fn fragment(chunk: Chunk, cuts: &[u8]) -> Vec<Chunk> {
    let mut pieces = vec![chunk];
    for &cut in cuts {
        // Pick the currently largest piece and split it.
        let (idx, len) = pieces
            .iter()
            .enumerate()
            .map(|(i, c)| (i, c.header.len))
            .max_by_key(|&(_, l)| l)
            .unwrap();
        if len < 2 {
            break;
        }
        let at = 1 + (cut as u32 % (len - 1));
        let target = pieces.remove(idx);
        let (a, b) = split(&target, at).unwrap();
        pieces.push(a);
        pieces.push(b);
    }
    pieces
}

fn digest_of(chunks: &[Chunk]) -> [u8; 8] {
    let mut inv = TpduInvariant::with_default_layout();
    for c in chunks {
        inv.absorb_chunk(&c.header, &c.payload).unwrap();
    }
    inv.digest()
}

proptest! {
    #[test]
    fn digest_invariant_under_fragmentation(
        whole in whole_tpdu(),
        cuts in proptest::collection::vec(any::<u8>(), 0..12),
        shuffle_seed in any::<u64>(),
    ) {
        let base = digest_of(std::slice::from_ref(&whole));
        let mut pieces = fragment(whole, &cuts);
        // Deterministic pseudo-shuffle.
        let n = pieces.len();
        for i in 0..n {
            let j = (shuffle_seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64)
                % n as u64) as usize;
            pieces.swap(i, j);
        }
        prop_assert_eq!(digest_of(&pieces), base);
    }

    #[test]
    fn corrupted_fragment_changes_digest(
        whole in whole_tpdu(),
        cuts in proptest::collection::vec(any::<u8>(), 1..8),
        victim in any::<usize>(),
        bit in 0usize..8,
    ) {
        let base = digest_of(std::slice::from_ref(&whole));
        let mut pieces = fragment(whole, &cuts);
        let v = victim % pieces.len();
        let mut raw = pieces[v].payload.to_vec();
        let byte = raw.len() / 2;
        raw[byte] ^= 1 << bit;
        pieces[v].payload = raw.into();
        prop_assert_ne!(digest_of(&pieces), base);
    }

    #[test]
    fn wsc_order_independence(
        symbols in proptest::collection::vec((0u64..100_000, any::<u32>()), 1..64),
        seed in any::<u64>(),
    ) {
        // Deduplicate positions (duplicates model duplicated data, which
        // the receiver rejects before absorbing).
        let mut seen = std::collections::HashSet::new();
        let symbols: Vec<(u64, u32)> = symbols
            .into_iter()
            .filter(|(i, _)| seen.insert(*i))
            .collect();
        let mut fwd = Wsc2::new();
        for &(i, d) in &symbols {
            fwd.add_symbol(i, d);
        }
        let mut perm = symbols.clone();
        let n = perm.len();
        for i in 0..n {
            let j = (seed.wrapping_add((i as u64) * 2654435761) % n as u64) as usize;
            perm.swap(i, j);
        }
        let mut rev = Wsc2::new();
        for &(i, d) in perm.iter().rev() {
            rev.add_symbol(i, d);
        }
        prop_assert_eq!(fwd, rev);
    }

    #[test]
    fn split_accumulators_combine(
        data in proptest::collection::vec(any::<u32>(), 2..128),
        cut_frac in 0.01f64..0.99,
    ) {
        let cut = ((data.len() as f64 * cut_frac) as usize).clamp(1, data.len() - 1);
        let mut whole = Wsc2::new();
        whole.add_symbols(0, &data);
        let mut left = Wsc2::new();
        left.add_symbols(0, &data[..cut]);
        let mut right = Wsc2::new();
        right.add_symbols(cut as u64, &data[cut..]);
        left.combine(&right);
        prop_assert_eq!(left, whole);
    }

    #[test]
    fn stream_folded_in_any_order_matches_one_shot(
        data in proptest::collection::vec(any::<u8>(), 1..512),
        cuts in proptest::collection::vec(0.01f64..0.99, 0..6),
        seed in any::<u64>(),
    ) {
        // One-shot reference over the whole byte run.
        let mut one_shot = Wsc2::new();
        one_shot.add_bytes(0, &data);

        // Cut the run at symbol boundaries into disjoint pieces.
        let n_sym = Wsc2::symbols_for_bytes(data.len()) as usize;
        let mut bounds: Vec<usize> = cuts
            .iter()
            .map(|f| ((n_sym as f64 * f) as usize).min(n_sym))
            .collect();
        bounds.push(0);
        bounds.push(n_sym);
        bounds.sort_unstable();
        bounds.dedup();

        // Accumulate each piece in its own stream, then fold the partial
        // states together in a seed-driven pseudo-random order.
        let mut parts: Vec<Wsc2Stream> = bounds
            .windows(2)
            .map(|w| {
                let (lo, hi) = (w[0] * 4, (w[1] * 4).min(data.len()));
                let mut s = Wsc2Stream::new();
                s.add_bytes(w[0] as u64, &data[lo..hi]);
                s
            })
            .collect();
        let n = parts.len();
        for i in 0..n {
            let j = (seed.wrapping_add((i as u64) * 2654435761) % n as u64) as usize;
            parts.swap(i, j);
        }
        let mut acc = Wsc2Stream::new();
        for p in &parts {
            acc.fold(p);
        }
        prop_assert_eq!(acc.finish(), one_shot);
    }

    #[test]
    fn stream_matches_wsc2_on_disordered_runs(
        runs in proptest::collection::vec(
            (0u64..10_000, proptest::collection::vec(any::<u8>(), 1..32)),
            1..24,
        ),
    ) {
        // Place each run on its own 8-symbol-aligned stride so runs never
        // overlap (duplicated positions model duplicated data, which the
        // receiver rejects before absorbing).
        let placed: Vec<(u64, &[u8])> = runs
            .iter()
            .enumerate()
            .map(|(k, (jitter, bytes))| {
                let slack = 8 - Wsc2::symbols_for_bytes(bytes.len()).min(7);
                ((k as u64) * 8 + jitter % slack, bytes.as_slice())
            })
            .collect();
        let mut one_shot = Wsc2::new();
        for &(start, bytes) in &placed {
            one_shot.add_bytes(start, bytes);
        }
        // The stream sees the same runs back to front: every run arrives at
        // a position *before* the cursor, exercising the reseat path.
        let mut stream = Wsc2Stream::new();
        for &(start, bytes) in placed.iter().rev() {
            stream.add_bytes(start, bytes);
        }
        prop_assert_eq!(stream.code(), one_shot);
    }

    #[test]
    fn fragmented_digest_identical_to_the_whole(
        whole in whole_tpdu(),
        cuts in proptest::collection::vec(any::<u8>(), 0..10),
    ) {
        // The invariant digest of a fragmented TPDU, its fragments absorbed
        // one by one, matches the whole-TPDU digest byte for byte.
        let base = digest_of(std::slice::from_ref(&whole));
        let pieces = fragment(whole, &cuts);
        prop_assert_eq!(digest_of(&pieces), base);
    }

    #[test]
    fn stream_fold_equals_batched_horner(
        data in proptest::collection::vec(any::<u8>(), 1..600),
        cuts in proptest::collection::vec(0.01f64..0.99, 0..6),
        seed in any::<u64>(),
    ) {
        // `Wsc2Stream::fold` over random fragment splits — including the
        // disordered-runs path — equals one batched Horner pass over the
        // whole run. The reference value comes from the seed bit-serial
        // arithmetic, so a kernel that is wrong *and* self-consistent still
        // fails.
        let mut oracle = Wsc2::new();
        oracle.add_bytes_ref(0, &data);

        let n_sym = Wsc2::symbols_for_bytes(data.len()) as usize;
        let mut bounds: Vec<usize> = cuts
            .iter()
            .map(|f| ((n_sym as f64 * f) as usize).min(n_sym))
            .collect();
        bounds.push(0);
        bounds.push(n_sym);
        bounds.sort_unstable();
        bounds.dedup();

        // One-shot batched Horner over the whole run.
        let mut batched = Wsc2::new();
        batched.add_bytes(0, &data);
        // Streaming: disjoint pieces absorbed in a shuffled (usually
        // disordered) order into independent streams, then folded.
        let mut parts: Vec<Wsc2Stream> = bounds
            .windows(2)
            .map(|w| {
                let (lo, hi) = (w[0] * 4, (w[1] * 4).min(data.len()));
                let mut s = Wsc2Stream::new();
                s.add_bytes(w[0] as u64, &data[lo..hi]);
                s
            })
            .collect();
        let n = parts.len();
        for i in 0..n {
            let j = (seed.wrapping_add((i as u64) * 2654435761) % n as u64) as usize;
            parts.swap(i, j);
        }
        let mut acc = Wsc2Stream::new();
        for p in &parts {
            acc.fold(p);
        }
        prop_assert_eq!(batched, oracle, "batched vs oracle");
        prop_assert_eq!(acc.finish(), oracle, "stream fold vs oracle");
    }
}

/// A whole TPDU, or its tail, as one chunk: `SIZE` 1..=9, any length, any
/// first `T.SN`, any labels and ST bits.
fn tpdu_run() -> impl Strategy<Value = Chunk> {
    (
        (1u16..=9, 1u32..=64, 0u32..1024),          // SIZE, LEN, first T.SN
        (any::<u32>(), any::<u32>(), any::<u32>()), // C.ID, T.ID, X.ID
        (any::<u32>(), any::<u32>()),               // C.SN, X.SN
        (any::<bool>(), any::<bool>(), any::<bool>()), // C.ST, T.ST, X.ST
        proptest::collection::vec(any::<u8>(), 9 * 64),
    )
        .prop_map(
            |((size, len, t_sn), (c_id, t_id, x_id), (c_sn, x_sn), (c_st, t_st, x_st), raw)| {
                let bytes = size as usize * len as usize;
                Chunk::new(
                    ChunkHeader::data(
                        size,
                        len,
                        FramingTuple::new(c_id, c_sn, c_st),
                        FramingTuple::new(t_id, t_sn, t_st),
                        FramingTuple::new(x_id, x_sn, x_st),
                    ),
                    Bytes::from(raw[..bytes].to_vec()),
                )
                .unwrap()
            },
        )
}

proptest! {
    #[test]
    fn absorb_folded_equals_absorb_chunk(
        run in tpdu_run(),
        cuts in proptest::collection::vec(any::<u8>(), 0..12),
        shuffle_seed in any::<u64>(),
    ) {
        // The position-free fold computed ahead of placement (what a
        // parallel dispatcher hands its worker) absorbs to the same code as
        // the chunk itself, for any Appendix C cut in any arrival order.
        // Both are held to a reference built symbol by symbol on the seed
        // bit-serial arithmetic, so a placement that is wrong the same way
        // on both paths fails too.
        let layout = InvariantLayout::default();
        let h = run.header;
        let spe = Wsc2::symbols_for_bytes(h.size as usize);
        let mut oracle = Wsc2::new();
        oracle.add_symbol_ref(layout.tid_pos(), h.tpdu.id);
        oracle.add_symbol_ref(layout.cid_pos(), h.conn.id);
        if h.conn.st {
            oracle.add_symbol_ref(layout.cst_pos(), 1);
        }
        if h.ext.st || h.tpdu.st {
            let at = layout.x_pair_pos(h.tpdu.sn + h.len - 1);
            oracle.add_symbol_ref(at, h.ext.id);
            oracle.add_symbol_ref(at + 1, h.ext.st as u32);
        }
        for (e, element) in run.payload.chunks(h.size as usize).enumerate() {
            for (k, sym) in element.chunks(4).enumerate() {
                let mut be = [0u8; 4];
                be[..sym.len()].copy_from_slice(sym);
                let at = (h.tpdu.sn as u64 + e as u64) * spe + k as u64;
                oracle.add_symbol_ref(at, u32::from_be_bytes(be));
            }
        }

        let mut pieces = fragment(run, &cuts);
        let mut chunked = TpduInvariant::new(layout).unwrap();
        for c in &pieces {
            chunked.absorb_chunk(&c.header, &c.payload).unwrap();
        }
        let n = pieces.len();
        for i in 0..n {
            let j = (shuffle_seed.wrapping_mul(6364136223846793005).wrapping_add(i as u64)
                % n as u64) as usize;
            pieces.swap(i, j);
        }
        let mut folded = TpduInvariant::new(layout).unwrap();
        for c in &pieces {
            let fold = chunks_gf::fold_elements(c.header.size as usize, &c.payload);
            folded.absorb_folded(&c.header, fold).unwrap();
        }
        prop_assert_eq!(chunked.code(), oracle, "absorb_chunk vs reference");
        prop_assert_eq!(folded.code(), oracle, "absorb_folded vs reference");
    }
}

#[test]
fn custom_layout_invariance() {
    // Smaller layouts (cheaper in tests elsewhere) keep the property.
    let layout = InvariantLayout::with_data_symbols(256);
    let whole = Chunk::new(
        ChunkHeader::data(
            4,
            32,
            FramingTuple::new(7, 1000, false),
            FramingTuple::new(8, 0, true),
            FramingTuple::new(9, 500, true),
        ),
        Bytes::from((0u8..128).collect::<Vec<u8>>()),
    )
    .unwrap();
    let digest = |chunks: &[Chunk]| {
        let mut inv = TpduInvariant::new(layout).unwrap();
        for c in chunks {
            inv.absorb_chunk(&c.header, &c.payload).unwrap();
        }
        inv.digest()
    };
    let base = digest(std::slice::from_ref(&whole));
    let (a, b) = split(&whole, 13).unwrap();
    assert_eq!(digest(&[b, a]), base);
}

#[test]
fn digest_invariant_under_a_split_at_every_element_boundary() {
    // The byte kernels fold each fragment's payload where it lies, so the
    // two halves of a split start at every offset and alignment the SIZE
    // allows, and cross the kernels' word and block edges at every phase.
    // The reference digest is built symbol by symbol on the seed bit-serial
    // arithmetic, so a kernel that is wrong *and* self-consistent fails.
    let layout = InvariantLayout::default();
    for (size, len) in [
        (1u16, 300u32),
        (2, 300),
        (3, 300),
        (4, 300),
        (5, 300),
        (8, 300),
        (1500, 8),
    ] {
        let raw: Vec<u8> = (0..size as u32 * len)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 11) as u8)
            .collect();
        let whole = Chunk::new(
            ChunkHeader::data(
                size,
                len,
                FramingTuple::new(7, 1000, false),
                FramingTuple::new(8, 0, true),
                FramingTuple::new(9, 500, false),
            ),
            Bytes::from(raw.clone()),
        )
        .unwrap();

        let mut oracle = Wsc2::new();
        oracle.add_symbol_ref(layout.tid_pos(), 8);
        oracle.add_symbol_ref(layout.cid_pos(), 7);
        oracle.add_symbol_ref(layout.x_pair_pos(len - 1), 9);
        let spe = Wsc2::symbols_for_bytes(size as usize);
        for (e, element) in raw.chunks(size as usize).enumerate() {
            for (k, sym) in element.chunks(4).enumerate() {
                let mut be = [0u8; 4];
                be[..sym.len()].copy_from_slice(sym);
                oracle.add_symbol_ref(e as u64 * spe + k as u64, u32::from_be_bytes(be));
            }
        }

        assert_eq!(digest_of(std::slice::from_ref(&whole)), oracle.digest());
        for at in 1..len {
            let (a, b) = split(&whole, at).unwrap();
            assert_eq!(
                digest_of(&[b, a]),
                oracle.digest(),
                "size={size} split at {at}"
            );
        }
    }
}
