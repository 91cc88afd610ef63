//! Hardware carry-less multiply backend (`PCLMULQDQ` / `PMULL`).
//!
//! The table path in `tables.rs` turns a field multiply into 20 dependent
//! loads; this module turns it into one `clmul` instruction plus a
//! **Barrett reduction** (two more `clmul`s against compile-time
//! constants), touching no memory at all. On top of the scalar multiply it
//! provides the forward lane fold behind [`crate::fold_elements`] and
//! [`crate::fold_symbols`], which loads payload bytes itself:
//!
//! * **Scalar multiply** — `R = a ⊗ b` (degree ≤ 62), then
//!   `R mod p = R ⊕ (⌊⌊R/x³²⌋·μ / x³²⌋ ⊗ p)` with `μ = ⌊x⁶⁴/p⌋`
//!   precomputed (the classic Barrett identity for polynomials).
//! * **Pre-combined words** — `α = x`, so 32 consecutive symbols combine
//!   into `Σ_{k<32} d_k·x^k`, a polynomial of degree ≤ 63, with shifts and
//!   XORs alone. One-byte elements (`d = b·x²⁴`) compact 32 payload bytes
//!   into such a word without ever forming a symbol. The gathers are
//!   portable Rust, one per payload shape.
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
//! The architecture-specific code is the multiply and the lane step.
//! Everything here is `unsafe` only because `std::arch` intrinsics demand
//! a proof that the instruction exists; every entry point below checks
//! [`is_supported`] (cached CPU feature detection) and falls back to the
//! portable path, so the module's public surface is safe. Bit-equivalence
//! with `mul_ref` and the symbol-level oracle is pinned by
//! `tests/field_axioms.rs` across backends.
#![allow(unsafe_code)] // std::arch intrinsics; every call site is feature-gated

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
/// (`PCLMULQDQ` on x86_64, `PMULL` on aarch64). Detection is cached by
/// `std::arch`.
#[inline]
pub(crate) fn is_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("pclmulqdq")
            && std::arch::is_x86_feature_detected!("sse2")
    }
    #[cfg(target_arch = "aarch64")]
    {
        std::arch::is_aarch64_feature_detected!("pmull")
            && std::arch::is_aarch64_feature_detected!("aes")
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
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

/// `(Σ dᵢ, Σ αⁱ·dᵢ)` over ready-made symbols; falls back to the portable
/// serial fold when the instruction is missing.
pub(crate) fn fold_symbols(data: &[u32]) -> (u32, u32) {
    if !is_supported() {
        return crate::fold::fold_serial(data.iter().copied());
    }
    let mut p0 = 0u32;
    let blocks = fixed_blocks(data, |word: &[u32; WORD_SYMBOLS]| {
        let mut w = 0u64;
        for (k, &d) in word.iter().enumerate() {
            p0 ^= d;
            w ^= (d as u64) << k;
        }
        w
    });
    // SAFETY: `is_supported` proved the target features exist.
    let h = unsafe { fold_blocks(blocks) };
    (p0, h)
}

/// `(Σ dᵢ, Σ αⁱ·dᵢ)` over the symbols `bytes` holds as `size`-byte
/// elements (see [`crate::fold_elements`]), read straight from the payload;
/// falls back to the portable serial fold when the instruction is missing.
pub(crate) fn fold_elements(size: usize, bytes: &[u8]) -> (u32, u32) {
    if !is_supported() {
        return crate::fold::fold_serial_elements(size, bytes);
    }
    let mut parity = 0u64;
    // SAFETY (all three arms): `is_supported` proved the target features
    // exist.
    let h = if size.is_multiple_of(4) {
        // Packed: the payload is one run of big-endian symbols.
        const WORD_BYTES: usize = 4 * WORD_SYMBOLS;
        let blocks = fixed_blocks(bytes, |word: &[u8; WORD_BYTES]| {
            let mut w = 0u64;
            for (k, sym) in word.chunks_exact(4).enumerate() {
                let d = u32::from_be_bytes(sym.try_into().expect("chunks_exact(4)")) as u64;
                parity ^= d;
                w ^= d << k;
            }
            w
        });
        unsafe { fold_blocks(blocks) }
    } else if size == 1 {
        // One-byte elements: symbol `i` is `bᵢ·x²⁴`, so a word is
        // `x²⁴·Σ bᵢ·xⁱ`. Eight bytes compact to `Σ bᵢ·xⁱ` (15 bits) in
        // three mask-shift-xor stages that each halve the field count.
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
        let h = unsafe { fold_blocks(blocks) };
        // The bytes' XOR, left-aligned like every one-byte symbol.
        parity ^= parity >> 32;
        parity ^= parity >> 16;
        parity ^= parity >> 8;
        parity = (parity & 0xFF) << 24;
        h
    } else {
        // Any other SIZE: walk the zero-padded symbols one by one. Rare
        // shapes; this keeps the contract, not the speed.
        let (mut rest, mut left) = (bytes, size); // `left` bytes of the element
        let blocks = || {
            let mut words = [0u64; LANES];
            for i in 0..BLOCK_SYMBOLS {
                if rest.is_empty() {
                    return (i > 0).then_some(words);
                }
                let (sym, tail) = rest.split_at(left.min(4).min(rest.len()));
                rest = tail;
                left = if left > 4 { left - 4 } else { size };
                let d = crate::fold::be_symbol(sym) as u64;
                parity ^= d;
                words[i / WORD_SYMBOLS] ^= d << (i % WORD_SYMBOLS);
            }
            Some(words)
        };
        unsafe { fold_blocks(blocks) }
    };
    (parity as u32, h)
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
/// blocks lane `j` holds `Σ_k β^(B·(n-1-k))·word_(k,j)`; the lanes combine
/// by Horner in `α³² = x³²`, and one multiply by `α^(B·(n-1))` turns the
/// end-relative sum into the start-relative one. A run of one block pays no
/// multiply at all.
///
/// # Safety
/// The CPU must support the carry-less multiply features [`is_supported`]
/// checks.
#[cfg_attr(
    target_arch = "x86_64",
    target_feature(enable = "pclmulqdq", enable = "sse2")
)]
#[cfg_attr(
    target_arch = "aarch64",
    target_feature(enable = "neon", enable = "aes")
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
    let mut h = 0u32;
    for &a in acc.iter().rev() {
        h = reduce64(((h as u64) << WORD_SYMBOLS) ^ a);
    }
    if blocks > 1 {
        let lift = crate::Gf32::alpha_pow((blocks - 1) * BLOCK_SYMBOLS as u64);
        h = arch::mul_unchecked(h, lift.value());
    }
    h
}

#[cfg(target_arch = "x86_64")]
mod arch {
    use super::{BLOCK_FOLD, BLOCK_STEP, MODULUS, MU};
    use std::arch::x86_64::{
        _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_cvtsi64_si128, _mm_prefetch, _mm_set_epi64x,
        _mm_srli_epi64, _mm_xor_si128, _MM_HINT_T0,
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
}

#[cfg(target_arch = "aarch64")]
mod arch {
    use super::{BLOCK_FOLD, BLOCK_STEP, MODULUS, MU};
    use std::arch::aarch64::vmull_p64;

    /// No software prefetch on this architecture.
    #[inline(always)]
    pub(crate) fn prefetch(_at: *const u8) {}

    /// Barrett-reduced field multiply via `PMULL`.
    #[target_feature(enable = "neon", enable = "aes")]
    pub(super) unsafe fn mul_unchecked(a: u32, b: u32) -> u32 {
        let r = vmull_p64(a as u64, b as u64) as u64;
        let t2 = (vmull_p64(r >> 32, MU) as u64) >> 32;
        let t3 = vmull_p64(t2, MODULUS) as u64;
        (r ^ t3) as u32
    }

    /// One lazy-reduction chain step on an unreduced 64-bit accumulator:
    /// `(A≫32) ⊗ K  ⊕  (A & 2³²-1) ⊗ C  ⊕  word`.
    #[inline]
    #[target_feature(enable = "neon", enable = "aes")]
    pub(super) unsafe fn lane_step(a: u64, word: u64) -> u64 {
        (vmull_p64(a >> 32, BLOCK_FOLD as u64) as u64)
            ^ (vmull_p64(a & 0xFFFF_FFFF, BLOCK_STEP as u64) as u64)
            ^ word
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
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
        let data: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        // Lengths straddle the lane word and the block on both sides.
        for n in [0usize, 1, 2, 31, 32, 33, 63, 64, 65, 127, 128, 129, 1000] {
            assert_eq!(
                fold_symbols(&data[..n]),
                crate::fold::fold_serial(data[..n].iter().copied()),
                "n={n}"
            );
        }
    }
}
