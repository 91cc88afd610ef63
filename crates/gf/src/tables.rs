//! Precomputed tables for the GF(2^32) fast path.
//!
//! The reference multiply in [`crate::poly`] re-derives a 4-bit window table
//! on every call and reduces with a data-dependent loop; fine as an oracle,
//! too slow for the per-symbol hot path of WSC-2 verification. This module
//! trades a one-time table build (done lazily behind a [`OnceLock`]) for a
//! branch-free multiply and O(1) powers of the generator:
//!
//! * **`CL8` — 8-bit windowed carry-less multiply.** `cl8[a][b]` is the
//!   15-bit polynomial product of two byte polynomials. A 32×32 carry-less
//!   multiply becomes 16 table lookups combined with shifts and XORs
//!   (the match-table philosophy of P4 applied to field arithmetic: all
//!   data-dependent work becomes indexed loads).
//! * **`REDUCE` — byte-wise reduction by `p(x) = x^32+x^22+x^2+x+1`.**
//!   `reduce[j][b]` is `(b·x^(32+8j)) mod p`, fully reduced. Reduction is
//!   linear over GF(2), so folding the 31 overflow bits of a product is
//!   four lookups and four XORs — no loop, no branches.
//! * **`ALPHA` — cached powers of the generator.** `alpha[j][b]` is
//!   `α^(b·2^(8j))`, so `α^i` for any 32-bit exponent is at most four
//!   lookups and three multiplies. This is what makes weighting symbols at
//!   *random* positions (disordered chunk arrival) as cheap as sequential
//!   processing.
//!
//! Total footprint: 128 KiB (`CL8`) + 4 KiB (`REDUCE`) + 4 KiB (`ALPHA`).

use std::sync::OnceLock;

use crate::poly::reduce64;

/// The lazily-built table set.
pub(crate) struct Tables {
    /// `cl8[a * 256 + b]` = carry-less product of byte polynomials `a⊗b`.
    pub cl8: Box<[u16; 65_536]>,
    /// `reduce[j][b]` = `(b << (32 + 8j)) mod p(x)`.
    pub reduce: [[u32; 256]; 4],
    /// `alpha[j][b]` = `α^(b << 8j)`.
    pub alpha: [[u32; 256]; 4],
}

/// Carry-less product of two byte polynomials (bit-serial; build time only).
fn clmul8(a: u8, b: u8) -> u16 {
    let mut acc = 0u16;
    for i in 0..8 {
        if (a >> i) & 1 == 1 {
            acc ^= (b as u16) << i;
        }
    }
    acc
}

fn build() -> Tables {
    let mut cl8 = vec![0u16; 65_536].into_boxed_slice();
    for a in 0..256usize {
        for b in a..256usize {
            let p = clmul8(a as u8, b as u8);
            cl8[a * 256 + b] = p;
            cl8[b * 256 + a] = p;
        }
    }
    let cl8: Box<[u16; 65_536]> = cl8.try_into().expect("length is 65536");

    let mut reduce = [[0u32; 256]; 4];
    for (j, table) in reduce.iter_mut().enumerate() {
        for (b, slot) in table.iter_mut().enumerate() {
            *slot = reduce64((b as u64) << (32 + 8 * j));
        }
    }

    // alpha[j][b] = α^(b << 8j), built by repeated multiplication with the
    // reference path (the tables must not bootstrap from themselves).
    let mut alpha = [[0u32; 256]; 4];
    let mut step = 2u32; // α^(2^(8j)) for j = 0
    for table in alpha.iter_mut() {
        let mut acc = 1u32; // α^0
        for slot in table.iter_mut() {
            *slot = acc;
            acc = crate::poly::const_mul(acc, step);
        }
        // step ← step^(2^8), lifting to the next byte's stride.
        for _ in 0..8 {
            step = crate::poly::const_mul(step, step);
        }
    }

    Tables { cl8, reduce, alpha }
}

static TABLES: OnceLock<Tables> = OnceLock::new();

/// The process-wide table set, built on first use.
#[inline]
pub(crate) fn tables() -> &'static Tables {
    TABLES.get_or_init(build)
}

/// Table-driven multiply: 16 `CL8` lookups for the 63-bit carry-less
/// product, then 4 `REDUCE` lookups to fold it into the field.
///
/// Bit-identical to [`crate::poly::reduce64`]`(`[`crate::poly::clmul32`]`)`.
#[inline]
pub(crate) fn mul_tables(a: u32, b: u32) -> u32 {
    let t = tables();
    let [a0, a1, a2, a3] = a.to_le_bytes().map(|x| x as usize * 256);
    let [b0, b1, b2, b3] = b.to_le_bytes().map(|x| x as usize);
    let cl = &*t.cl8;

    let mut acc = cl[a0 + b0] as u64;
    acc ^= ((cl[a0 + b1] ^ cl[a1 + b0]) as u64) << 8;
    acc ^= ((cl[a0 + b2] ^ cl[a1 + b1] ^ cl[a2 + b0]) as u64) << 16;
    acc ^= ((cl[a0 + b3] ^ cl[a1 + b2] ^ cl[a2 + b1] ^ cl[a3 + b0]) as u64) << 24;
    acc ^= ((cl[a1 + b3] ^ cl[a2 + b2] ^ cl[a3 + b1]) as u64) << 32;
    acc ^= ((cl[a2 + b3] ^ cl[a3 + b2]) as u64) << 40;
    acc ^= (cl[a3 + b3] as u64) << 48;

    let lo = acc as u32;
    let [h0, h1, h2, h3] = ((acc >> 32) as u32).to_le_bytes().map(|x| x as usize);
    lo ^ t.reduce[0][h0] ^ t.reduce[1][h1] ^ t.reduce[2][h2] ^ t.reduce[3][h3]
}

/// `α^e` via the cached power tables: the exponent folds modulo the group
/// order `2³² - 1` (Fermat), then at most four lookups and three
/// multiplies by `mul`, the caller's backend — independent of `e`'s bit
/// pattern.
#[inline(always)]
pub(crate) fn alpha_pow_with(e: u64, mul: impl Fn(u32, u32) -> u32) -> u32 {
    let t = tables();
    let [e0, e1, e2, e3] = ((e % 0xFFFF_FFFF) as u32).to_le_bytes().map(|x| x as usize);
    let mut acc = t.alpha[0][e0];
    if e1 != 0 {
        acc = mul(acc, t.alpha[1][e1]);
    }
    if e2 != 0 {
        acc = mul(acc, t.alpha[2][e2]);
    }
    if e3 != 0 {
        acc = mul(acc, t.alpha[3][e3]);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poly::{clmul32, const_mul, POLY_LOW};
    use crate::Gf32;

    #[test]
    fn cl8_matches_bit_serial() {
        let t = tables();
        for &(a, b) in &[(0u8, 0u8), (1, 1), (0xFF, 0xFF), (0x35, 0xA7), (2, 0x80)] {
            assert_eq!(t.cl8[a as usize * 256 + b as usize], clmul8(a, b));
        }
    }

    #[test]
    fn mul_tables_matches_reference() {
        let pairs = [
            (0u32, 0u32),
            (1, 0xFFFF_FFFF),
            (2, 1 << 31),
            (0xDEAD_BEEF, 0x0BAD_F00D),
            (POLY_LOW, POLY_LOW),
            (0xFFFF_FFFF, 0xFFFF_FFFF),
        ];
        for (a, b) in pairs {
            assert_eq!(
                mul_tables(a, b),
                reduce64(clmul32(a, b)),
                "a={a:#x} b={b:#x}"
            );
        }
        // Deterministic pseudo-random sweep.
        let mut x = 0x1234_5678u32;
        let mut y = 0x9ABC_DEF0u32;
        for _ in 0..10_000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            y ^= y << 13;
            y ^= y >> 17;
            y ^= y << 5;
            assert_eq!(
                mul_tables(x, y),
                reduce64(clmul32(x, y)),
                "x={x:#x} y={y:#x}"
            );
        }
    }

    #[test]
    fn alpha_pow_tables_matches_square_multiply() {
        for e in [
            0u32,
            1,
            2,
            255,
            256,
            65_535,
            65_536,
            (1 << 29) - 2,
            u32::MAX,
        ] {
            let mut expect = 1u32;
            let mut base = 2u32;
            let mut bits = e;
            while bits != 0 {
                if bits & 1 == 1 {
                    expect = const_mul(expect, base);
                }
                base = const_mul(base, base);
                bits >>= 1;
            }
            assert_eq!(alpha_pow_with(e as u64, mul_tables), expect, "e={e}");
        }
        // Every byte of the folded exponent, and exponents at and past the
        // group order 2³² − 1, where the Fermat fold has work to do.
        let order = u32::MAX as u64;
        let mut sweep = vec![
            order - 1,
            order,
            order + 1,
            2 * order,
            2 * order + 7,
            u64::MAX,
        ];
        let mut x = 0x0123_4567_89AB_CDEFu64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            sweep.extend([x, x >> 32, x % (4 * order)]);
        }
        for e in sweep {
            assert_eq!(
                Gf32(alpha_pow_with(e, mul_tables)),
                Gf32::alpha_pow_ref(e),
                "e={e}"
            );
        }
    }
}
