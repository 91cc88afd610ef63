//! Hardware carry-less multiply backend (`PCLMULQDQ` / `PMULL`).
//!
//! The table path in `tables.rs` turns a field multiply into 20 dependent
//! loads; this module turns it into one `clmul` instruction plus a
//! **Barrett reduction** (two more `clmul`s against compile-time
//! constants), touching no memory at all. On top of the scalar multiply it
//! provides the eight-lane batched Horner kernel behind
//! [`crate::fold_symbols`]:
//!
//! * **Scalar multiply** — `R = a ⊗ b` (degree ≤ 62), then
//!   `R mod p = R ⊕ (⌊⌊R/x³²⌋·μ / x³²⌋ ⊗ p)` with `μ = ⌊x⁶⁴/p⌋`
//!   precomputed (the classic Barrett identity for polynomials).
//! * **Lane fold with lazy reduction** — `L = 8` independent Horner
//!   chains, each stepping by the constant `C = α^L`. An accumulator `A`
//!   is kept *unreduced* at ≤ 63 bits; one step is
//!   `A' = (A≫32) ⊗ K  ⊕  (A&2³²-1) ⊗ C  ⊕  d` with `K = (x³²·C) mod p`,
//!   which preserves `A' ≡ A·C + d (mod p)` while staying in 64 bits —
//!   two `clmul`s per symbol, no reduction until the chains are combined.
//!   Because the `L` chains are independent, the CPU pipelines their
//!   multiplies where the serial Horner chain of the table path stalls on
//!   its own latency.
//!
//! Everything here is `unsafe` only because `std::arch` intrinsics demand
//! a proof that the instruction exists; every entry point below checks
//! [`is_supported`] (cached CPU feature detection) and falls back to the
//! table path, so the module's public surface is safe. Bit-equivalence
//! with `mul_ref` is pinned by `tests/field_axioms.rs` across backends.
#![allow(unsafe_code)] // std::arch intrinsics; every call site is feature-gated

use crate::poly::{const_mul, MODULUS, POLY_LOW};

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

/// Independent Horner chains in the lane fold. Eight sits at the knee on
/// the hosts measured (2 and 4 cannot hide the multiply latency, 16 spills
/// accumulators; figures in `docs/PERFORMANCE.md`).
const LANES: usize = 8;

/// `C = α^LANES`, the per-block step of every lane chain. `α = x`, so the
/// power needs no reduction below degree 32.
const LANE_STEP: u32 = 1 << LANES;

/// `K = (x³²·C) mod p`, which folds an unreduced accumulator's high half
/// back in during the lazy-reduction step.
const LANE_FOLD: u32 = const_mul(LANE_STEP, POLY_LOW);

/// `(Σ dᵢ, Σ αⁱ·dᵢ)` over `data` via [`LANES`] independent Horner chains;
/// falls back to the portable serial fold when the instruction is missing.
pub(crate) fn fold_symbols(data: &[u32]) -> (u32, u32) {
    if !is_supported() {
        return crate::fold::fold_serial(data);
    }
    // SAFETY: `is_supported` proved the target features exist.
    unsafe { arch::fold_lanes(data) }
}

/// Combines lane accumulators and the serial tail into `(p0, Σ αⁱ·dᵢ)`.
///
/// `lane_values[j]` holds `Σ_k α^(kL)·d_(kL+j)` already reduced; the lane
/// identity `Σ αⁱ dᵢ = Σ_j α^j · lane_j` is evaluated by Horner from the
/// top lane down. The tail (positions `blocks·L ..`) was folded serially
/// into `tail`, entering at weight `α^(blocks·L)`.
fn combine_lanes(lane_values: &[u32], tail: u32, tail_offset: u64, p0: u32) -> (u32, u32) {
    let mut horner = crate::Gf32::ZERO;
    for &a in lane_values.iter().rev() {
        horner = horner.mul_alpha() + crate::Gf32::new(a);
    }
    let tail_weight = crate::Gf32::alpha_pow_ref(tail_offset);
    let h = horner + tail_weight * crate::Gf32::new(tail);
    (p0, h.value())
}

/// Serial mul_alpha Horner over the ≤ L-1 tail symbols past the last full
/// block, returning `(Σ αᵗ·d_(off+t), ⊕ tail symbols)`.
fn fold_tail(tail: &[u32]) -> (u32, u32) {
    let mut horner = crate::Gf32::ZERO;
    let mut p0 = 0u32;
    for &d in tail.iter().rev() {
        horner = horner.mul_alpha() + crate::Gf32::new(d);
        p0 ^= d;
    }
    (horner.value(), p0)
}

#[cfg(target_arch = "x86_64")]
mod arch {
    use super::{combine_lanes, fold_tail, LANES, LANE_FOLD, LANE_STEP, MODULUS, MU};
    use crate::poly::reduce64;
    use std::arch::x86_64::{
        _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_cvtsi32_si128, _mm_set1_epi64x,
        _mm_set_epi64x, _mm_setzero_si128, _mm_srli_epi64, _mm_xor_si128,
    };

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

    /// [`LANES`]-lane batched Horner with lazy reduction (see module docs).
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    pub(super) unsafe fn fold_lanes(data: &[u32]) -> (u32, u32) {
        // CK.low64 = C, CK.high64 = K.
        let ck = _mm_set_epi64x(LANE_FOLD as i64, LANE_STEP as i64);
        let lo_mask = _mm_set1_epi64x(0xFFFF_FFFF);
        let blocks = data.len() / LANES;
        let mut acc = [_mm_setzero_si128(); LANES];
        let mut p0 = 0u32;
        // Horner over blocks, last block first: acc_j ← acc_j·α^LANES + d.
        for k_blk in (0..blocks).rev() {
            let base = k_blk * LANES;
            for j in 0..LANES {
                let d = data[base + j];
                p0 ^= d;
                let a = acc[j];
                // (A≫32) ⊗ K  ⊕  (A & 2³²-1) ⊗ C  ⊕  d
                let hi = _mm_srli_epi64::<32>(a);
                let lo = _mm_and_si128(a, lo_mask);
                let prod = _mm_xor_si128(
                    _mm_clmulepi64_si128::<0x10>(hi, ck),
                    _mm_clmulepi64_si128::<0x00>(lo, ck),
                );
                acc[j] = _mm_xor_si128(prod, _mm_cvtsi32_si128(d as i32));
            }
        }
        let mut lane_values = [0u32; LANES];
        for j in 0..LANES {
            lane_values[j] = reduce64(_mm_cvtsi128_si64(acc[j]) as u64);
        }
        let (tail_h, tail_p0) = fold_tail(&data[blocks * LANES..]);
        combine_lanes(&lane_values, tail_h, (blocks * LANES) as u64, p0 ^ tail_p0)
    }
}

#[cfg(target_arch = "aarch64")]
mod arch {
    use super::{combine_lanes, fold_tail, LANES, LANE_FOLD, LANE_STEP, MODULUS, MU};
    use crate::poly::reduce64;
    use std::arch::aarch64::vmull_p64;

    /// Barrett-reduced field multiply via `PMULL`.
    #[target_feature(enable = "neon", enable = "aes")]
    pub(super) unsafe fn mul_unchecked(a: u32, b: u32) -> u32 {
        let r = vmull_p64(a as u64, b as u64) as u64;
        let t2 = (vmull_p64(r >> 32, MU) as u64) >> 32;
        let t3 = vmull_p64(t2, MODULUS) as u64;
        (r ^ t3) as u32
    }

    /// [`LANES`]-lane batched Horner with lazy reduction (see module docs).
    #[target_feature(enable = "neon", enable = "aes")]
    pub(super) unsafe fn fold_lanes(data: &[u32]) -> (u32, u32) {
        let blocks = data.len() / LANES;
        let mut acc = [0u64; LANES];
        let mut p0 = 0u32;
        for k_blk in (0..blocks).rev() {
            let base = k_blk * LANES;
            for j in 0..LANES {
                let d = data[base + j];
                p0 ^= d;
                let a = acc[j];
                acc[j] = (vmull_p64(a >> 32, LANE_FOLD as u64) as u64)
                    ^ (vmull_p64(a & 0xFFFF_FFFF, LANE_STEP as u64) as u64)
                    ^ d as u64;
            }
        }
        let mut lane_values = [0u32; LANES];
        for j in 0..LANES {
            lane_values[j] = reduce64(acc[j]);
        }
        let (tail_h, tail_p0) = fold_tail(&data[blocks * LANES..]);
        combine_lanes(&lane_values, tail_h, (blocks * LANES) as u64, p0 ^ tail_p0)
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
mod arch {
    /// Unreachable on this architecture: `is_supported` is `false`, so the
    /// safe wrappers above never dispatch here.
    pub(super) unsafe fn mul_unchecked(_a: u32, _b: u32) -> u32 {
        unreachable!("clmul backend dispatched without hardware support")
    }

    /// Unreachable on this architecture (see [`mul_unchecked`]).
    pub(super) unsafe fn fold_lanes(_data: &[u32]) -> (u32, u32) {
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
    fn lane_constants_are_alpha_to_the_lane_count() {
        let c = crate::Gf32::alpha_pow_ref(LANES as u64).value();
        assert_eq!(LANE_STEP, c);
        assert_eq!(LANE_FOLD, reduce64((c as u64) << 32));
    }

    #[test]
    fn fold_matches_serial_reference() {
        let data: Vec<u32> = (0..1000u32).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        // Lengths straddle the 8-lane block on both sides.
        for n in [0usize, 1, 2, 7, 8, 9, 15, 16, 17, 63, 1000] {
            assert_eq!(
                fold_symbols(&data[..n]),
                crate::fold::fold_serial(&data[..n]),
                "n={n}"
            );
        }
    }
}
