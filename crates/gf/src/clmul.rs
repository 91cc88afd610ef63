//! Hardware carry-less multiply backend (`PCLMULQDQ` on x86_64).
//!
//! The table path in `tables.rs` turns a field multiply into 20 dependent
//! loads; this module turns it into one `clmul` instruction plus a
//! **Barrett reduction** (two more `clmul`s against compile-time
//! constants), touching no memory at all. On top of the scalar multiply it
//! provides the forward lane fold behind [`crate::fold_elements`], which
//! loads payload bytes itself:
//!
//! * **Scalar multiply** — `R = a ⊗ b` (degree ≤ 62), then
//!   `R mod p = R ⊕ (⌊⌊R/x³²⌋·μ / x³²⌋ ⊗ p)` with `μ = ⌊x⁶⁴/p⌋`
//!   precomputed (the classic Barrett identity for polynomials).
//! * **Pre-combined words** — `α = x`, so 32 consecutive symbols combine
//!   into `Σ_{k<32} d_k·x^k`, a polynomial of degree ≤ 63, with shifts and
//!   XORs alone. One-byte elements (`d = b·x²⁴`) compact 32 payload bytes
//!   into such a word without ever forming a symbol. There are gathers for
//!   the two shapes anything sends — one-byte elements (every workload)
//!   and packed symbols, `SIZE` a multiple of 4 (`fold_be_bytes`, the
//!   ledger's `gf.fold` leg) — in portable Rust, plus one wide gather for
//!   one-byte elements. Every other `SIZE` goes to the serial fold in
//!   `fold.rs`: no workload sends one, and a gather of its own would be
//!   code kept bit-identical for a speed nothing measures.
//! * **Wide one-byte gather** — on x86_64 with AVX-512 (`avx512f` and
//!   `avx512bw`, detected at runtime) a 64-byte block is one `zmm` load:
//!   the portable gather's three mask-shift-xor stages run on its eight
//!   `u64`s at once, a variable shift puts each at `x^(24 + 8q)`, two XOR
//!   reductions leave the block's two words, and both lane chains stay in
//!   XMM registers. A partial last block is a masked load that reads no
//!   byte past the slice. Same words, same chains, same constants, so the
//!   same bits.
//! * **Lane fold with lazy reduction** — [`LANES`] independent Horner
//!   chains, each absorbing one word per block of `B = 32·LANES` symbols.
//!   An accumulator `A` is kept *unreduced* at ≤ 64 bits; one step is
//!   `A' = (A≫32) ⊗ K  ⊕  (A&2³²-1) ⊗ C  ⊕  word` with `K = (x³²·C) mod p`,
//!   which preserves `A' ≡ A·C + word (mod p)` while staying in 64 bits —
//!   two `clmul`s per 32 symbols, no reduction until the chains are
//!   combined. Because the chains are independent, the CPU pipelines
//!   their multiplies where the serial Horner chain of the table path
//!   stalls on its own latency.
//! * **Forward walk** — `C = β^B` with `β = α⁻¹`, so blocks are absorbed
//!   front to back, the order the hardware prefetcher follows once
//!   payloads stream from DRAM; one multiply by `α^(B·(blocks−1))` per run
//!   turns the end-relative sum into `Σ αⁱ·dᵢ`.
//!
//! The architecture-specific code is the multiply, the lane step and the
//! wide gather. Everything else is written once in portable Rust: the
//! packed gather, the one-byte gather on x86_64 without AVX-512, the tail
//! padding and the lane combination. Elsewhere [`is_supported`] is false
//! and every operation takes the tables path.
//!
//! This module's feature checks are the crate's only runtime kernel
//! choice: [`is_supported`] (carry-less multiply) and [`has_wide_gather`]
//! (AVX-512 on top), both cached by `std::arch`. Every entry point below
//! checks them and falls back to the portable path, so the module's
//! public surface is safe on any CPU; `unsafe` is here only because
//! `std::arch` intrinsics demand a proof that the instruction exists.
//! Bit-equivalence with `mul_ref` and the symbol-level oracle is pinned by
//! `tests/field_axioms.rs` across backends and both one-byte gathers.
#![allow(unsafe_code)] // std::arch intrinsics; every call site is feature-gated

use crate::fold::ByteGather;
use crate::poly::{const_mul, reduce64, MODULUS, POLY_LOW};

pub(crate) use arch::prefetch;

/// `μ = ⌊x⁶⁴ / p(x)⌋`, the degree-32 Barrett quotient constant.
const MU: u64 = barrett_mu();

const fn barrett_mu() -> u64 {
    // Polynomial long division of x^64 by the 33-bit modulus.
    let mut quotient: u64 = 0;
    let mut rem: u128 = 1u128 << 64;
    let mut bit = 64;
    while bit >= 32 {
        if (rem >> bit) & 1 == 1 {
            quotient |= 1u64 << (bit - 32);
            rem ^= (MODULUS as u128) << (bit - 32);
        }
        bit -= 1;
    }
    quotient
}

/// Whether the current CPU has a carry-less multiply instruction
/// (`PCLMULQDQ` on x86_64; elsewhere never, so every operation takes the
/// tables path). Detection is cached by `std::arch`.
#[inline]
pub(crate) fn is_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Field multiply on the clmul backend; falls back to the table path when
/// the instruction is missing (so the function is safe everywhere).
#[inline]
pub(crate) fn mul(a: u32, b: u32) -> u32 {
    if is_supported() {
        // SAFETY: `is_supported` proved the target features exist.
        unsafe { arch::mul_unchecked(a, b) }
    } else {
        crate::tables::mul_tables(a, b)
    }
}

/// Independent forward Horner chains in the lane fold. The chains only
/// have to hide one step's latency behind the byte gathering that feeds
/// them: one chain would be the bottleneck on one-byte elements, two are
/// not, and more only lengthen the block short runs pad to (figures in
/// `docs/PERFORMANCE.md`, "Why eight lanes").
const LANES: usize = 2;

/// Consecutive symbols pre-combined into one lane word before any multiply:
/// the lazy accumulator is 64 bits wide and `α = x`, so
/// `Σ_{k<32} d_k·x^k` (degree ≤ 63) is `Σ α^k·d_k` without a reduction.
const WORD_SYMBOLS: usize = 32;

/// Symbols one block of [`LANES`] words covers.
const BLOCK_SYMBOLS: usize = LANES * WORD_SYMBOLS;

/// `β = α⁻¹ = (p(x) + 1) / x`: the chains walk the payload *forward*, so a
/// block absorbed earlier must end up with the *lower* power of `α`.
const BETA: u32 = (MODULUS >> 1) as u32;

/// `C = β^BLOCK_SYMBOLS`, the per-block step of every lane chain.
const BLOCK_STEP: u32 = const_pow(BETA, BLOCK_SYMBOLS as u32);

/// `K = (x³²·C) mod p`, which folds an unreduced accumulator's high half
/// back in during the lazy-reduction step.
const BLOCK_FOLD: u32 = const_mul(BLOCK_STEP, POLY_LOW);

const fn const_pow(base: u32, mut e: u32) -> u32 {
    let (mut acc, mut sq) = (1u32, base);
    while e != 0 {
        if e & 1 == 1 {
            acc = const_mul(acc, sq);
        }
        sq = const_mul(sq, sq);
        e >>= 1;
    }
    acc
}

/// `(Σ dᵢ, Σ αⁱ·dᵢ)` over the symbols `bytes` holds as `size`-byte
/// elements (see [`crate::fold_elements`]), read straight from the payload.
/// One-byte elements and packed symbols take the lane fold; any other
/// `SIZE`, and every shape on a CPU without carry-less multiply, the
/// portable serial fold.
pub(crate) fn fold_elements(size: usize, bytes: &[u8]) -> (u32, u32) {
    if size == 1 {
        return fold_bytes(ByteGather::Wide, bytes);
    }
    if !is_supported() || !size.is_multiple_of(4) {
        return crate::fold::fold_serial_elements(size, bytes);
    }
    // Packed: the payload is one run of big-endian symbols.
    const WORD_BYTES: usize = 4 * WORD_SYMBOLS;
    let mut parity = 0u64;
    let blocks = fixed_blocks(bytes, |word: &[u8; WORD_BYTES]| {
        let mut w = 0u64;
        for (k, sym) in word.chunks_exact(4).enumerate() {
            let d = u32::from_be_bytes(sym.try_into().expect("chunks_exact(4)")) as u64;
            parity ^= d;
            w ^= d << k;
        }
        w
    });
    // SAFETY: `is_supported` proved the target features exist.
    let h = unsafe { fold_blocks(blocks) };
    (parity as u32, h)
}

/// Whether the CPU runs the [`ByteGather::Wide`] arm: carry-less multiply
/// plus AVX-512 (`avx512f`, `avx512bw`) on x86_64; never elsewhere.
/// Detection is cached by `std::arch`.
#[inline]
pub(crate) fn has_wide_gather() -> bool {
    is_supported() && arch::has_wide_gather()
}

/// `(Σ dᵢ, Σ αⁱ·dᵢ)` over one-byte elements with the gather pinned (see
/// [`crate::fold_byte_elements_with`]). Asking for the wide gather on a CPU
/// without it runs the portable one, and a CPU without carry-less multiply
/// folds serially.
pub(crate) fn fold_bytes(gather: ByteGather, bytes: &[u8]) -> (u32, u32) {
    if !is_supported() {
        return crate::fold::fold_serial_elements(1, bytes);
    }
    if gather == ByteGather::Wide && arch::has_wide_gather() {
        // SAFETY: `is_supported` and `has_wide_gather` proved the target
        // features exist.
        return unsafe { arch::fold_bytes_wide(bytes) };
    }
    // Symbol `i` is `bᵢ·x²⁴`, so a word is `x²⁴·Σ bᵢ·xⁱ`. Eight bytes
    // compact to `Σ bᵢ·xⁱ` (15 bits) in three mask-shift-xor stages that
    // each halve the field count.
    let mut parity = 0u64;
    let blocks = fixed_blocks(bytes, |word: &[u8; WORD_SYMBOLS]| {
        let mut v = 0u64;
        for (q, eight) in word.chunks_exact(8).enumerate() {
            let l = u64::from_le_bytes(eight.try_into().expect("chunks_exact(8)"));
            parity ^= l;
            let t = (l & 0x00FF_00FF_00FF_00FF) ^ ((l >> 7) & 0x01FE_01FE_01FE_01FE);
            let t = (t & 0x0000_FFFF_0000_FFFF) ^ ((t >> 14) & 0x0000_07FC_0000_07FC);
            v ^= ((t ^ (t >> 28)) as u32 as u64) << (8 * q);
        }
        v << 24
    });
    // SAFETY: `is_supported` proved the target features exist.
    let h = unsafe { fold_blocks(blocks) };
    (byte_parity(parity), h)
}

/// The XOR of a payload's bytes from the XOR of its eight-byte pieces,
/// left-aligned like every one-byte symbol.
fn byte_parity(mut pieces: u64) -> u32 {
    pieces ^= pieces >> 32;
    pieces ^= pieces >> 16;
    pieces ^= pieces >> 8;
    ((pieces & 0xFF) as u32) << 24
}

/// How far ahead of the block being gathered the fold asks for its own
/// stream, in bytes. The gather + `clmul` loop issues loads too slowly for
/// the hardware prefetcher to run ahead of it, so a payload that is not in
/// L1/L2 is folded at memory *latency*; one hint per full block, this far
/// ahead, turns that into bandwidth (sweep in `docs/PERFORMANCE.md`, "The
/// fold waits on memory").
const PREFETCH_AHEAD: usize = 4096;

/// Cuts `data` into blocks of [`LANES`] words of `W` items each and gathers
/// every word with `gather`. The words of the final partial block are
/// zero-padded on the stack, so short runs and tails gather like full
/// blocks (a zero item is a zero symbol in every shape, and zero symbols
/// add nothing); the block's missing words stay zero.
#[inline(always)]
fn fixed_blocks<'a, T: Copy + Default, const W: usize>(
    mut data: &'a [T],
    mut gather: impl FnMut(&[T; W]) -> u64 + 'a,
) -> impl FnMut() -> Option<[u64; LANES]> + 'a {
    move || {
        if data.is_empty() {
            return None;
        }
        let mut words = [0u64; LANES];
        if data.len() >= LANES * W {
            // The address is only named, never read: past the end of the
            // payload it is a hint about memory the fold will not touch.
            arch::prefetch(data.as_ptr().cast::<u8>().wrapping_add(PREFETCH_AHEAD));
            let (block, rest) = data.split_at(LANES * W);
            data = rest;
            for (w, word) in words.iter_mut().zip(block.chunks_exact(W)) {
                *w = gather(word.try_into().expect("chunks_exact(W)"));
            }
        } else {
            for (w, piece) in words.iter_mut().zip(data.chunks(W)) {
                let mut pad = [T::default(); W];
                pad[..piece.len()].copy_from_slice(piece);
                *w = gather(&pad);
            }
            data = &[];
        }
        Some(words)
    }
}

/// `Σ αⁱ·dᵢ` over the symbols packed into `next_block`'s lane words: word
/// `j` of block `k` is `Σ_{t<32} xᵗ·d_(k·BLOCK_SYMBOLS + 32j + t)`.
///
/// Each lane runs the forward chain `A ← A·β^BLOCK_SYMBOLS ⊕ word` with
/// lazy reduction (two `clmul`s per word, see module docs), so after `n`
/// blocks lane `j` holds `Σ_k β^(B·(n-1-k))·word_(k,j)`; [`combine`] turns
/// the lanes into the sum.
///
/// # Safety
/// The CPU must support the carry-less multiply features [`is_supported`]
/// checks.
#[cfg_attr(
    target_arch = "x86_64",
    target_feature(enable = "pclmulqdq", enable = "sse2")
)]
unsafe fn fold_blocks(mut next_block: impl FnMut() -> Option<[u64; LANES]>) -> u32 {
    let mut acc = [0u64; LANES];
    let mut blocks = 0u64;
    while let Some(words) = next_block() {
        for (a, word) in acc.iter_mut().zip(words) {
            *a = arch::lane_step(*a, word);
        }
        blocks += 1;
    }
    combine(acc, blocks)
}

/// `Σ αⁱ·dᵢ` from the lane chains after `blocks` blocks: the lanes combine
/// by Horner in `α³² = x³²`, and one multiply by `α^(B·(blocks-1))` turns
/// the end-relative sum into the start-relative one. A run of one block
/// pays no multiply at all.
///
/// # Safety
/// The CPU must support the carry-less multiply features [`is_supported`]
/// checks.
#[cfg_attr(
    target_arch = "x86_64",
    target_feature(enable = "pclmulqdq", enable = "sse2")
)]
unsafe fn combine(acc: [u64; LANES], blocks: u64) -> u32 {
    let mut h = 0u32;
    for &a in acc.iter().rev() {
        h = reduce64(((h as u64) << WORD_SYMBOLS) ^ a);
    }
    if blocks > 1 {
        let lift = alpha_pow_unchecked((blocks - 1) * BLOCK_SYMBOLS as u64);
        h = arch::mul_unchecked(h, lift);
    }
    h
}

/// `α^e` with the cached power tables' lookups and carry-less multiplies;
/// falls back to the table path when the instruction is missing.
#[inline]
pub(crate) fn alpha_pow(e: u64) -> u32 {
    if is_supported() {
        // SAFETY: `is_supported` proved the target features exist.
        unsafe { alpha_pow_unchecked(e) }
    } else {
        crate::tables::alpha_pow_with(e, crate::tables::mul_tables)
    }
}

/// [`alpha_pow`] without the feature check.
///
/// # Safety
/// The CPU must support the carry-less multiply features [`is_supported`]
/// checks.
#[cfg_attr(
    target_arch = "x86_64",
    target_feature(enable = "pclmulqdq", enable = "sse2")
)]
unsafe fn alpha_pow_unchecked(e: u64) -> u32 {
    // SAFETY: the caller proved the target features exist.
    crate::tables::alpha_pow_with(e, |a, b| unsafe { arch::mul_unchecked(a, b) })
}

#[cfg(target_arch = "x86_64")]
mod arch {
    use super::{BLOCK_FOLD, BLOCK_STEP, LANES, MODULUS, MU, PREFETCH_AHEAD, WORD_SYMBOLS};
    use std::arch::x86_64::{
        __m128i, __m512i, _mm512_and_si512, _mm512_castsi512_si128, _mm512_extracti32x4_epi32,
        _mm512_loadu_si512, _mm512_maskz_loadu_epi8, _mm512_permutex_epi64, _mm512_set1_epi64,
        _mm512_set_epi64, _mm512_setzero_si512, _mm512_sllv_epi64, _mm512_srli_epi64,
        _mm512_xor_si512, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_cvtsi64_si128, _mm_prefetch,
        _mm_set_epi64x, _mm_setzero_si128, _mm_srli_epi64, _mm_unpacklo_epi32, _mm_xor_si128,
        _MM_HINT_T0,
    };

    /// Asks for the cache line at `at` in every cache level (`PREFETCHT0`).
    #[inline(always)]
    pub(crate) fn prefetch(at: *const u8) {
        // SAFETY: SSE is part of the x86_64 baseline, and a prefetch is a
        // hint: it never faults and never reads architecturally, whatever
        // `at` is — mapped, unmapped or protected.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(at.cast()) }
    }

    /// Barrett-reduced field multiply: three `PCLMULQDQ`s, no memory.
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    pub(super) unsafe fn mul_unchecked(a: u32, b: u32) -> u32 {
        let ab = _mm_set_epi64x(b as i64, a as i64);
        // R = a ⊗ b, degree ≤ 62.
        let r = _mm_clmulepi64_si128::<0x10>(ab, ab);
        let consts = _mm_set_epi64x(MODULUS as i64, MU as i64);
        // T2 = ⌊(⌊R/x³²⌋ ⊗ μ) / x³²⌋.
        let t1 = _mm_srli_epi64::<32>(r);
        let t2 = _mm_srli_epi64::<32>(_mm_clmulepi64_si128::<0x00>(t1, consts));
        // R ⊕ T2 ⊗ p: the low 32 bits are R mod p.
        let t3 = _mm_clmulepi64_si128::<0x10>(t2, consts);
        _mm_cvtsi128_si64(_mm_xor_si128(r, t3)) as u32
    }

    /// One lazy-reduction chain step on an unreduced 64-bit accumulator:
    /// `(A≫32) ⊗ K  ⊕  (A & 2³²-1) ⊗ C  ⊕  word`.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    pub(super) unsafe fn lane_step(a: u64, word: u64) -> u64 {
        // CK.low64 = C, CK.high64 = K.
        let ck = _mm_set_epi64x(BLOCK_FOLD as i64, BLOCK_STEP as i64);
        let hi = _mm_cvtsi64_si128((a >> 32) as i64);
        let lo = _mm_cvtsi64_si128((a & 0xFFFF_FFFF) as i64);
        let prod = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x10>(hi, ck),
            _mm_clmulepi64_si128::<0x00>(lo, ck),
        );
        _mm_cvtsi128_si64(prod) as u64 ^ word
    }

    /// Whether the CPU has the AVX-512 subset [`fold_bytes_wide`] needs on
    /// top of carry-less multiply.
    #[inline]
    pub(super) fn has_wide_gather() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
    }

    // One 64-byte load is one block: two words of 32 one-byte symbols.
    const _: () = assert!(LANES == 2 && WORD_SYMBOLS == 32);

    /// The portable one-byte fold's arithmetic with one 512-bit load per
    /// block: the same three mask-shift-xor stages on all eight `u64`s of
    /// the block at once, and both lane chains kept in XMM registers. A
    /// partial last block is a masked load, which reads no byte past the
    /// slice and zeroes the rest — the stack pad of the portable gather.
    #[target_feature(
        enable = "avx512f",
        enable = "avx512bw",
        enable = "pclmulqdq",
        enable = "sse2"
    )]
    pub(super) fn fold_bytes_wide(bytes: &[u8]) -> (u32, u32) {
        let mut chains = [_mm_setzero_si128(); LANES];
        let mut parity = _mm512_setzero_si512();
        let mut blocks = 0u64;
        for block in bytes.chunks(64) {
            let at = block.as_ptr();
            let v = if block.len() == 64 {
                // Named, never read: see `fixed_blocks`.
                prefetch(at.wrapping_add(PREFETCH_AHEAD));
                // SAFETY: `block` is 64 readable bytes starting at `at`.
                unsafe { _mm512_loadu_si512(at.cast()) }
            } else {
                // SAFETY: the mask selects `block`'s own bytes; a masked-off
                // byte is never accessed, so nothing past the slice is read
                // whatever memory follows it.
                unsafe { _mm512_maskz_loadu_epi8(u64::MAX >> (64 - block.len()), at.cast()) }
            };
            parity = _mm512_xor_si512(parity, v);
            for (chain, word) in chains.iter_mut().zip(block_words(v)) {
                *chain = chain_step(*chain, word);
            }
            blocks += 1;
        }
        let [p0, p1] = sum_quarters(parity);
        let parity = _mm_cvtsi128_si64(_mm_xor_si128(p0, p1)) as u64;
        let acc = chains.map(|a| _mm_cvtsi128_si64(a) as u64);
        // SAFETY: this function's target features include `combine`'s.
        let h = unsafe { super::combine(acc, blocks) };
        (super::byte_parity(parity), h)
    }

    /// The block's two lane words, each in the low `u64` of its register:
    /// `u64` `q` of word `j` compacts to `Σ bᵢ·xⁱ` and lands at
    /// `x^(24 + 8q)`, as in the portable gather.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn block_words(v: __m512i) -> [__m128i; LANES] {
        let stage = |t: __m512i, low: i64, high: i64, t_shifted: __m512i| {
            _mm512_xor_si512(
                _mm512_and_si512(t, _mm512_set1_epi64(low)),
                _mm512_and_si512(t_shifted, _mm512_set1_epi64(high)),
            )
        };
        let t = stage(
            v,
            0x00FF_00FF_00FF_00FF,
            0x01FE_01FE_01FE_01FE,
            _mm512_srli_epi64::<7>(v),
        );
        let t = stage(
            t,
            0x0000_FFFF_0000_FFFF,
            0x0000_07FC_0000_07FC,
            _mm512_srli_epi64::<14>(t),
        );
        let t = stage(t, 0xFFFF_FFFF, 0xFFFF_FFFF, _mm512_srli_epi64::<28>(t));
        sum_quarters(_mm512_sllv_epi64(
            t,
            _mm512_set_epi64(48, 40, 32, 24, 48, 40, 32, 24),
        ))
    }

    /// The XOR of `v`'s `u64`s 0–3 and of its `u64`s 4–7, each in the low
    /// `u64` of its register.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn sum_quarters(v: __m512i) -> [__m128i; 2] {
        // Within each 256-bit half: swap the 128-bit pairs, then the `u64`s.
        let v = _mm512_xor_si512(v, _mm512_permutex_epi64::<0b01_00_11_10>(v));
        let v = _mm512_xor_si512(v, _mm512_permutex_epi64::<0b10_11_00_01>(v));
        [_mm512_castsi512_si128(v), _mm512_extracti32x4_epi32::<2>(v)]
    }

    /// [`lane_step`] on the low `u64`s of XMM registers: the accumulator
    /// never leaves the vector unit. The high `u64`s are ignored.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    fn chain_step(a: __m128i, word: __m128i) -> __m128i {
        // CK.low64 = C, CK.high64 = K.
        let ck = _mm_set_epi64x(BLOCK_FOLD as i64, BLOCK_STEP as i64);
        // [A & 2³²-1, A≫32] as two `u64`s.
        let halves = _mm_unpacklo_epi32(a, _mm_setzero_si128());
        _mm_xor_si128(
            _mm_xor_si128(
                _mm_clmulepi64_si128::<0x00>(halves, ck),
                _mm_clmulepi64_si128::<0x11>(halves, ck),
            ),
            word,
        )
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod arch {
    /// No software prefetch on this architecture.
    #[inline(always)]
    pub(crate) fn prefetch(_at: *const u8) {}

    /// Unreachable on this architecture: `is_supported` is `false`, so the
    /// safe wrappers above never dispatch here.
    pub(super) unsafe fn mul_unchecked(_a: u32, _b: u32) -> u32 {
        unreachable!("clmul backend dispatched without hardware support")
    }

    /// Unreachable on this architecture (see [`mul_unchecked`]).
    pub(super) unsafe fn lane_step(_a: u64, _word: u64) -> u64 {
        unreachable!("clmul backend dispatched without hardware support")
    }

    /// There is no wide gather on this architecture.
    pub(super) fn has_wide_gather() -> bool {
        false
    }

    /// Unreachable: [`has_wide_gather`] is `false`.
    pub(super) unsafe fn fold_bytes_wide(_bytes: &[u8]) -> (u32, u32) {
        unreachable!("wide gather dispatched without hardware support")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::{clmul32, reduce64};

    #[test]
    fn barrett_mu_is_the_x64_quotient() {
        // μ ⊗ p  ⊕  (x^64 mod p) must reconstruct x^64 exactly, where
        // x^64 mod p = (x^32 mod p)² mod p = POLY_LOW ⊗ POLY_LOW mod p.
        let mut mu_p: u128 = 0;
        for i in 0..64 {
            if (MU >> i) & 1 == 1 {
                mu_p ^= (MODULUS as u128) << i;
            }
        }
        let x64_mod_p = reduce64(clmul32(POLY_LOW, POLY_LOW)) as u128;
        assert_eq!(mu_p ^ x64_mod_p, 1u128 << 64);
    }

    #[test]
    fn mul_matches_reference() {
        let pairs = [
            (0u32, 0u32),
            (1, 0xFFFF_FFFF),
            (2, 1 << 31),
            (0xDEAD_BEEF, 0x0BAD_F00D),
            (POLY_LOW, POLY_LOW),
            (0xFFFF_FFFF, 0xFFFF_FFFF),
        ];
        for (a, b) in pairs {
            assert_eq!(mul(a, b), reduce64(clmul32(a, b)), "a={a:#x} b={b:#x}");
        }
        let mut x = 0x1234_5678u32;
        let mut y = 0x9ABC_DEF0u32;
        for _ in 0..10_000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            y ^= y << 13;
            y ^= y >> 17;
            y ^= y << 5;
            assert_eq!(mul(x, y), reduce64(clmul32(x, y)), "x={x:#x} y={y:#x}");
        }
    }

    #[test]
    fn block_constants_are_inverse_alpha_powers() {
        use crate::Gf32;
        assert_eq!(Gf32::new(BETA) * crate::ALPHA, Gf32::ONE);
        let back = Gf32::alpha_pow_ref(BLOCK_SYMBOLS as u64);
        assert_eq!(Gf32::new(BLOCK_STEP).mul_ref(back), Gf32::ONE);
        assert_eq!(BLOCK_FOLD, reduce64((BLOCK_STEP as u64) << 32));
    }

    #[test]
    fn fold_matches_serial_reference() {
        let data: Vec<u8> = (0..4000u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 11) as u8)
            .collect();
        // Symbol counts straddle the lane word and the block on both sides.
        for n in [0usize, 1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000] {
            let bytes = &data[..4 * n];
            assert_eq!(
                fold_elements(4, bytes),
                crate::fold::fold_serial_elements(4, bytes),
                "n={n}"
            );
        }
    }
}
