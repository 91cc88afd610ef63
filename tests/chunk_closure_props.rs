//! Property tests of the chunk closure and verification-fold algebra the
//! parallel pipeline rests on:
//!
//! * split-then-merge is the identity (Appendix C ∘ Appendix D = id);
//! * the WSC-2 TPDU invariant is unchanged by arbitrary split points and
//!   arbitrary fragment arrival order (§4, Figures 5/6);
//! * [`Wsc2Stream::fold`] of any permutation of disjoint partials equals the
//!   one-shot digest — the merge stage's algebraic foundation;
//! * [`TpduInvariant::fold`] over any partition of a TPDU's fragments among
//!   workers, folded in any order, equals the serial accumulator.

use chunks::core::chunk::{byte_chunk, Chunk};
use chunks::core::frag::{merge, split};
use chunks::core::label::FramingTuple;
use chunks::vreasm::IntervalSet;
use chunks::wsc::{InvariantLayout, TpduInvariant, Wsc2, Wsc2Stream};
use proptest::prelude::*;
use proptest::TestCaseError;

/// Deterministic LCG over a seed — used for shuffles and partitions so a
/// failing case reproduces from its proptest-reported inputs.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

fn data_chunk(payload: &[u8], t_st: bool, x_st: bool) -> Chunk {
    byte_chunk(
        FramingTuple::new(0x0C0A, 700, false),
        FramingTuple::new(0x51, 0, t_st),
        FramingTuple::new(0xE0, 44, x_st),
        payload,
    )
}

/// Splits `chunk` into fragments at pseudo-random points until no fragment
/// exceeds `max_len` elements.
fn frag_randomly(chunk: Chunk, max_len: u32, lcg: &mut Lcg) -> Vec<Chunk> {
    let mut out = Vec::new();
    let mut work = vec![chunk];
    while let Some(c) = work.pop() {
        if c.header.len <= max_len {
            out.push(c);
            continue;
        }
        let at = 1 + lcg.below(c.header.len as usize - 1) as u32;
        let (a, b) = split(&c, at).expect("in-range split");
        work.push(b);
        work.push(a);
    }
    // `pop` order already yields front-to-back; keep that as arrival order
    // until the caller shuffles.
    out
}

fn digest_of(chunks: &[Chunk]) -> [u8; 8] {
    let mut inv = TpduInvariant::with_default_layout();
    for c in chunks {
        inv.absorb_chunk(&c.header, &c.payload).unwrap();
    }
    inv.digest()
}

/// The maximal runs of positions in `[from, to)` whose model value is
/// `value` (positions past the model are uncovered).
fn model_runs(model: &[bool], from: u64, to: u64, value: bool) -> Vec<(u64, u64)> {
    let at = |p: u64| model.get(p as usize).copied().unwrap_or(false);
    let mut runs: Vec<(u64, u64)> = Vec::new();
    for p in (from..to).filter(|&p| at(p) == value) {
        match runs.last_mut() {
            Some(last) if last.1 == p => last.1 = p + 1,
            _ => runs.push((p, p + 1)),
        }
    }
    runs
}

/// Replays `ops` into `set` beside a `Vec<bool>` model of covered
/// positions. An op `(how, at, len)` inserts `len` positions anywhere
/// (`how == 0`, at `at`), at the tail (1), past it (2) or reaching back
/// before it (3), so the tail paths and the mid-`Vec` rewrites all run.
/// After every insert the reported overlap, `ranges`, `covered`,
/// `fragments` and `last_end` must equal the model's, and so must every
/// query on the probes, which are placed relative to the tail.
fn check_against_model(
    set: &mut IntervalSet,
    ops: &[(u8, u64, u64)],
    probes: &[(u64, u64)],
) -> Result<(), TestCaseError> {
    let mut model: Vec<bool> = Vec::new();
    for &(how, at, len) in ops {
        let tail = set.last_end().unwrap_or(0);
        let start = match how {
            0 => at,
            1 => tail,
            2 => tail + 1 + at % 8,
            _ => tail.saturating_sub(1 + at % 32),
        };
        let end = start + len;
        if model.len() < end as usize {
            model.resize(end as usize, false);
        }
        let want = model[start as usize..end as usize]
            .iter()
            .filter(|&&b| b)
            .count() as u64;
        model[start as usize..end as usize].fill(true);
        prop_assert_eq!(set.insert(start, end), want, "insert [{}, {})", start, end);

        let runs = model_runs(&model, 0, model.len() as u64, true);
        prop_assert_eq!(set.ranges(), &runs[..]);
        prop_assert_eq!(set.covered(), runs.iter().map(|(s, e)| e - s).sum::<u64>());
        prop_assert_eq!(set.fragments(), runs.len());
        prop_assert_eq!(set.last_end(), runs.last().map(|&(_, e)| e));

        for &(at, l) in probes {
            let s = at % (set.last_end().unwrap_or(0) + 64);
            let e = s + l;
            let covered = model_runs(&model, s, e, true);
            prop_assert_eq!(
                set.overlap(s, e),
                covered.iter().map(|(a, b)| b - a).sum::<u64>()
            );
            prop_assert_eq!(set.contains(s, e), covered == [(s, e)]);
            prop_assert_eq!(set.gaps(e), model_runs(&model, 0, e, false));
            prop_assert_eq!(set.is_contiguous_to(s), runs == [(0, s)]);
            // Appends: what the buffer held before survives.
            let mut out = vec![(u64::MAX, 0)];
            set.uncovered_into(s, e, &mut out);
            prop_assert_eq!(out[0], (u64::MAX, 0));
            prop_assert_eq!(&out[1..], &model_runs(&model, s, e, false)[..]);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn split_then_merge_is_identity(
        payload in proptest::collection::vec(any::<u8>(), 2..200),
        cut_seed in any::<u64>(),
    ) {
        let whole = data_chunk(&payload, true, false);
        let len = whole.header.len;
        let at = 1 + (cut_seed % (len as u64 - 1)) as u32;
        let (head, tail) = split(&whole, at).unwrap();
        prop_assert_eq!(head.header.len + tail.header.len, len);
        prop_assert_eq!(merge(&head, &tail).unwrap(), whole);
    }

    #[test]
    fn recursive_fragments_merge_back_to_the_original(
        payload in proptest::collection::vec(any::<u8>(), 2..200),
        seed in any::<u64>(),
        max_len in 1u32..8,
    ) {
        // Any number of in-network refragmentation steps still ends in
        // single-step reassembly: fold-merge the fragments front to back.
        let whole = data_chunk(&payload, true, true);
        let mut lcg = Lcg(seed);
        let frags = frag_randomly(whole.clone(), max_len, &mut lcg);
        let mut acc = frags[0].clone();
        for f in &frags[1..] {
            acc = merge(&acc, f).unwrap();
        }
        prop_assert_eq!(acc, whole);
    }

    #[test]
    fn wsc2_invariant_survives_any_fragmentation_and_order(
        payload in proptest::collection::vec(any::<u8>(), 2..200),
        seed in any::<u64>(),
        max_len in 1u32..6,
    ) {
        let whole = data_chunk(&payload, true, false);
        let base = digest_of(std::slice::from_ref(&whole));
        let mut lcg = Lcg(seed);
        let mut frags = frag_randomly(whole, max_len, &mut lcg);
        lcg.shuffle(&mut frags);
        prop_assert_eq!(digest_of(&frags), base);
    }

    #[test]
    fn stream_fold_of_any_permutation_matches_one_shot(
        bytes in proptest::collection::vec(any::<u8>(), 4..256),
        seed in any::<u64>(),
        pieces in 2usize..9,
    ) {
        // One-shot reference over the whole byte string.
        let mut whole = Wsc2::new();
        whole.add_bytes(0, &bytes);

        // Cut at symbol (4-byte) boundaries so partials cover disjoint
        // positions, one stream per piece.
        let symbols = bytes.len().div_ceil(4);
        let mut lcg = Lcg(seed);
        let mut cuts: Vec<usize> = (0..pieces - 1)
            .map(|_| (1 + lcg.below(symbols.max(2) - 1)) * 4)
            .collect();
        cuts.push(0);
        cuts.push(bytes.len().next_multiple_of(4));
        cuts.sort_unstable();
        cuts.dedup();

        let mut partials: Vec<Wsc2Stream> = cuts
            .windows(2)
            .map(|w| {
                let (lo, hi) = (w[0], w[1].min(bytes.len()));
                let mut s = Wsc2Stream::new();
                if lo < bytes.len() {
                    s.add_bytes(lo as u64 / 4, &bytes[lo..hi]);
                }
                s
            })
            .collect();
        lcg.shuffle(&mut partials);

        let mut acc = Wsc2Stream::new();
        for p in &partials {
            acc.fold(p);
        }
        prop_assert_eq!(acc.digest(), whole.digest());

        // fold_code over the raw code values is the same sum.
        let mut via_codes = Wsc2Stream::new();
        for p in &partials {
            via_codes.fold_code(&p.code());
        }
        prop_assert_eq!(via_codes.digest(), whole.digest());
    }

    #[test]
    fn invariant_fold_over_any_worker_partition_matches_serial(
        payload in proptest::collection::vec(any::<u8>(), 2..160),
        seed in any::<u64>(),
        workers in 1usize..6,
        max_len in 1u32..5,
    ) {
        let whole = data_chunk(&payload, true, true);
        let base = digest_of(std::slice::from_ref(&whole));

        // Fragment, then deal the fragments to `workers` independent
        // partial accumulators — an arbitrary assignment, like a pipeline
        // sharding chunks rather than connections would produce.
        let mut lcg = Lcg(seed);
        let mut frags = frag_randomly(whole, max_len, &mut lcg);
        lcg.shuffle(&mut frags);
        let mut partials: Vec<TpduInvariant> = (0..workers)
            .map(|_| TpduInvariant::with_default_layout())
            .collect();
        for f in &frags {
            let w = lcg.below(workers);
            partials[w].absorb_chunk(&f.header, &f.payload).unwrap();
        }

        // Fold the partials in a shuffled order.
        let mut order: Vec<usize> = (0..workers).collect();
        lcg.shuffle(&mut order);
        let mut acc = TpduInvariant::with_default_layout();
        for &w in &order {
            acc.fold(&partials[w]).unwrap();
        }
        prop_assert_eq!(acc.digest(), base);
        prop_assert!(acc.matches(base));
    }

    #[test]
    fn borrowed_spans_decode_bitwise_equal_to_owned(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..120), 1..8),
        mtu in 256usize..1500,
    ) {
        // The zero-copy walk (validate → spans → decode_chunk_ref) must
        // reproduce the owned decode (unpack) bit for bit, for arbitrary
        // packed chunk sequences — and the borrowed payloads must point
        // *into* the packet buffer.
        use chunks::core::packet::{pack, spans, unpack, validate};
        use chunks::core::wire::decode_chunk_ref;

        let chunks: Vec<Chunk> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| {
                byte_chunk(
                    FramingTuple::new(7, (i * 256) as u32, false),
                    FramingTuple::new(0x51, (i * 256) as u32, i + 1 == payloads.len()),
                    FramingTuple::new(0xE0, 0, false),
                    p,
                )
            })
            .collect();
        for packet in pack(chunks, mtu).unwrap() {
            let owned = unpack(&packet).unwrap();
            prop_assert!(validate(&packet).is_ok());
            let range = packet.bytes.as_ptr_range();
            let mut walked = Vec::new();
            for (at, end) in spans(&packet) {
                let (cref, used) = decode_chunk_ref(&packet.bytes[at..]).unwrap();
                prop_assert_eq!(at + used, end);
                if !cref.payload.is_empty() {
                    let p = cref.payload.as_ptr_range();
                    prop_assert!(p.start >= range.start && p.end <= range.end,
                        "decode_chunk_ref copied the payload");
                }
                walked.push(cref.to_chunk());
            }
            prop_assert_eq!(walked, owned);
        }
    }

    #[test]
    fn interval_set_matches_a_per_position_model(
        ops in proptest::collection::vec((0u8..4, 0u64..512, 1u64..96), 1..200),
        probes in proptest::collection::vec((0u64..640, 1u64..64), 8),
    ) {
        // The interval set under `PduTracker`, against a per-position
        // model: every observable compared after every insert, then again
        // on the same set cleared and reused.
        let mut set = IntervalSet::new();
        check_against_model(&mut set, &ops, &probes)?;
        set.clear();
        prop_assert_eq!(set.ranges(), &[][..]);
        prop_assert_eq!(set.last_end(), None);
        check_against_model(&mut set, &ops, &probes)?;
    }

    #[test]
    fn invariant_fold_rejects_disagreeing_partials(
        payload in proptest::collection::vec(any::<u8>(), 4..64),
        flip in 1u32..u32::MAX,
    ) {
        let whole = data_chunk(&payload, true, false);
        let (a, mut b) = split(&whole, whole.header.len / 2).unwrap();
        b.header.tpdu.id ^= flip;
        let mut pa = TpduInvariant::with_default_layout();
        pa.absorb_chunk(&a.header, &a.payload).unwrap();
        let mut pb = TpduInvariant::with_default_layout();
        pb.absorb_chunk(&b.header, &b.payload).unwrap();
        prop_assert!(pa.fold(&pb).is_err());
    }
}

#[test]
fn layout_positions_are_disjoint() {
    // The invariant's special positions never collide with data symbols —
    // the property the whole Figure 5/6 layout depends on.
    let layout = InvariantLayout::with_data_symbols(1024);
    assert!(layout.tid_pos() >= 1024);
    assert!(layout.cid_pos() > layout.tid_pos());
    assert!(layout.cst_pos() > layout.cid_pos());
    assert!(layout.x_pair_pos(0) > layout.cst_pos());
}
