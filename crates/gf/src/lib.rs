//! Arithmetic in the finite field GF(2^32).
//!
//! This crate is the substrate for the WSC-2 weighted sum code used by the
//! chunk end-to-end error detection system (Feldmeier, SIGCOMM '93, §4;
//! McAuley, "Weighted Sum Codes for Error Detection").
//!
//! Elements are 32-bit polynomials over GF(2), reduced modulo the primitive
//! polynomial
//!
//! ```text
//! p(x) = x^32 + x^22 + x^2 + x + 1
//! ```
//!
//! Because `p` is primitive, `x` (the element `0x2`) generates the whole
//! multiplicative group, so the WSC-2 weights `alpha^i` are distinct for all
//! `i < 2^32 - 1`, comfortably covering the paper's code space of
//! `2^29 - 2` symbol positions.
//!
//! Addition is XOR (characteristic 2), so every element is its own additive
//! inverse — this is what makes the WSC-2 parities *incrementally updatable
//! and order-independent*: symbols can be absorbed or removed in any order.
//!
//! # Backends: reference, tables, hardware carry-less multiply
//!
//! Every operation exists in bit-identical implementations:
//!
//! * the **reference path** ([`Gf32::mul_ref`], [`Gf32::alpha_pow_ref`]) —
//!   windowed shift-and-XOR multiply and square-and-multiply
//!   exponentiation, dependency-free and `const`-friendly; the oracle the
//!   property tests and benchmarks compare against;
//! * the **table-driven path** ([`Gf32::mul_fast`]; see `tables.rs`
//!   internals) — 8-bit windowed carry-less multiply tables, byte-wise
//!   reduction tables and cached powers of `alpha`, built once behind a
//!   `OnceLock`, plus the serial Horner fold; the portable path;
//! * the **clmul path** (see `clmul.rs`) — hardware carry-less multiply
//!   (`PCLMULQDQ` on x86_64; elsewhere the tables) with Barrett reduction,
//!   plus the forward lane fold behind [`fold_elements`], which reads
//!   payload bytes in place for the two shapes anything sends: one-byte
//!   elements (through an AVX-512 gather where the CPU has one,
//!   [`ByteGather`]) and packed 4-byte symbols.
//!
//! The CPU is the only switch. The operator impls (`*`, `/`),
//! [`Gf32::gf_mul`], [`Gf32::alpha_pow`], [`fold_elements`] and
//! everything layered above (WSC-2, the TPDU invariant, the transport
//! receiver) call the clmul entry, which runs the portable path where the
//! CPU lacks the instruction (cached feature detection). Arguments pin a
//! kernel for the equivalence tests ([`fold_elements_with`],
//! [`fold_byte_elements_with`]); [`Backend::active`] names the one the CPU
//! runs (see [`backend`]).

#![deny(missing_docs)]

pub mod backend;
mod clmul;
mod fold;
mod poly;
mod tables;

pub use backend::Backend;
pub use fold::{
    fold_be_bytes, fold_byte_elements_with, fold_elements, fold_elements_with, fold_symbols,
    ByteGather,
};
pub use poly::{clmul32, reduce64, MODULUS, POLY_LOW};

use std::fmt;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// An element of GF(2^32).
///
/// The wrapped `u32` is the coefficient bitmap of a degree-<32 polynomial
/// over GF(2); bit `k` is the coefficient of `x^k`.
///
/// ```
/// use chunks_gf::Gf32;
/// let a = Gf32::new(0xDEAD_BEEF);
/// assert_eq!(a + a, Gf32::ZERO);            // characteristic 2
/// assert_eq!(a * a.inv().unwrap(), Gf32::ONE);
/// assert_eq!(Gf32::alpha_pow(5), chunks_gf::ALPHA.pow(5));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Gf32(pub u32);

/// The generator `alpha = x` of the multiplicative group of GF(2^32).
pub const ALPHA: Gf32 = Gf32(2);

/// Precomputed table of `alpha^(2^k)` for `k in 0..64`, used for fast
/// exponentiation of the generator at arbitrary positions.
const ALPHA_POW2: [u32; 64] = build_alpha_pow2();

const fn build_alpha_pow2() -> [u32; 64] {
    let mut table = [0u32; 64];
    let mut v = 2u32; // alpha^(2^0)
    let mut k = 0;
    while k < 64 {
        table[k] = v;
        v = poly::const_mul(v, v);
        k += 1;
    }
    table
}

impl Gf32 {
    /// The additive identity.
    pub const ZERO: Gf32 = Gf32(0);
    /// The multiplicative identity.
    pub const ONE: Gf32 = Gf32(1);

    /// Creates an element from its coefficient bitmap.
    #[inline]
    pub const fn new(v: u32) -> Self {
        Gf32(v)
    }

    /// Returns the raw coefficient bitmap.
    #[inline]
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Returns `true` if this is the additive identity.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Field multiplication: hardware carry-less multiply (three `clmul`
    /// instructions, Barrett reduction, no memory traffic) where the CPU
    /// has it, the table-driven path otherwise.
    ///
    /// ```
    /// use chunks_gf::Gf32;
    /// let a = Gf32::new(0xDEAD_BEEF);
    /// let b = Gf32::new(0x0BAD_F00D);
    /// assert_eq!(a.gf_mul(b), a * b);
    /// assert_eq!(a.gf_mul(b), a.mul_ref(b)); // bit-identical to the oracle
    /// ```
    #[inline]
    pub fn gf_mul(self, rhs: Gf32) -> Gf32 {
        Gf32(clmul::mul(self.0, rhs.0))
    }

    /// Reference multiplication: 4-bit windowed carry-less product reduced
    /// modulo `p(x)` with a data-dependent fold loop.
    ///
    /// This is the seed implementation, kept as the oracle for
    /// [`Self::mul_fast`] equivalence tests and as the "slow path" arm of
    /// the `codes` benchmark. Use `*` or [`Self::gf_mul`] in real code.
    #[inline]
    pub fn mul_ref(self, rhs: Gf32) -> Gf32 {
        Gf32(reduce64(clmul32(self.0, rhs.0)))
    }

    /// Table-driven multiplication: 16 lookups into a precomputed 8-bit
    /// carry-less multiply table plus 4 lookups into byte-wise reduction
    /// tables. Branch-free; bit-identical to [`Self::mul_ref`].
    #[inline]
    pub fn mul_fast(self, rhs: Gf32) -> Gf32 {
        Gf32(tables::mul_tables(self.0, rhs.0))
    }

    /// Multiplication by the generator `alpha = x`: a single shift plus a
    /// conditional reduction. This is the hot operation of sequential WSC-2
    /// encoding (one `mul_alpha` per symbol).
    #[inline]
    pub fn mul_alpha(self) -> Gf32 {
        let hi = self.0 >> 31;
        // If the top coefficient is set, shifting overflows into x^32 and we
        // fold it back with the low part of the modulus.
        Gf32((self.0 << 1) ^ (hi.wrapping_neg() & POLY_LOW))
    }

    /// Exponentiation by squaring: `self^e`.
    ///
    /// `x^0 == 1` for every `x`, including zero (empty product convention).
    ///
    /// ```
    /// use chunks_gf::Gf32;
    /// let a = Gf32::new(0xABCD_EF01);
    /// assert_eq!(a.pow(0), Gf32::ONE);
    /// assert_eq!(a.pow(3), a * a * a);
    /// assert_eq!(a.pow(7) * a.pow(5), a.pow(12)); // exponents add
    /// ```
    pub fn pow(self, mut e: u64) -> Gf32 {
        let mut base = self;
        let mut acc = Gf32::ONE;
        while e != 0 {
            if e & 1 == 1 {
                acc = acc.gf_mul(base);
            }
            base = base.gf_mul(base);
            e >>= 1;
        }
        acc
    }

    /// `alpha^i` via cached power tables: at most 4 lookups and 3
    /// multiplies (carry-less where the CPU has it), independent of `i`. This is
    /// how WSC-2 weights symbols at arbitrary (disordered) positions
    /// without paying for exponentiation.
    ///
    /// Exponents at or above the group order `2^32 - 1` are folded by
    /// Fermat (`alpha^(2^32-1) = 1`), so the result is correct for every
    /// `u64` exponent.
    ///
    /// ```
    /// use chunks_gf::{Gf32, ALPHA};
    /// assert_eq!(Gf32::alpha_pow(0), Gf32::ONE);
    /// assert_eq!(Gf32::alpha_pow(123_456), ALPHA.pow(123_456));
    /// assert_eq!(Gf32::alpha_pow(123_456), Gf32::alpha_pow_ref(123_456));
    /// ```
    #[inline]
    pub fn alpha_pow(i: u64) -> Gf32 {
        Gf32(clmul::alpha_pow(i))
    }

    /// Reference `alpha^i` via the compile-time square table —
    /// O(popcount(i)) windowed multiplications.
    ///
    /// The seed implementation, kept as the oracle for [`Self::alpha_pow`]
    /// equivalence tests and the "slow path" arm of the benchmarks.
    pub fn alpha_pow_ref(i: u64) -> Gf32 {
        let mut acc = Gf32::ONE;
        let mut bits = i;
        while bits != 0 {
            let k = bits.trailing_zeros() as usize;
            acc = acc.mul_ref(Gf32(ALPHA_POW2[k]));
            bits &= bits - 1;
        }
        acc
    }

    /// Multiplicative inverse. Returns `None` for zero.
    ///
    /// Uses Fermat's little theorem: `a^(2^32 - 2) = a^-1`.
    ///
    /// ```
    /// use chunks_gf::Gf32;
    /// let a = Gf32::new(0xCAFE_BABE);
    /// assert_eq!(a * a.inv().unwrap(), Gf32::ONE);
    /// assert_eq!(Gf32::ZERO.inv(), None);
    /// ```
    pub fn inv(self) -> Option<Gf32> {
        if self.is_zero() {
            None
        } else {
            Some(self.pow(u32::MAX as u64 - 1))
        }
    }

    /// Field division. Returns `None` when dividing by zero.
    pub fn gf_div(self, rhs: Gf32) -> Option<Gf32> {
        rhs.inv().map(|r| self.gf_mul(r))
    }
}

impl fmt::Debug for Gf32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf32({:#010x})", self.0)
    }
}

impl fmt::Display for Gf32 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl Add for Gf32 {
    type Output = Gf32;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl, clippy::suspicious_op_assign_impl)] // GF(2^n) addition IS xor
    fn add(self, rhs: Gf32) -> Gf32 {
        Gf32(self.0 ^ rhs.0)
    }
}

impl AddAssign for Gf32 {
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl, clippy::suspicious_op_assign_impl)] // GF(2^n) addition IS xor
    fn add_assign(&mut self, rhs: Gf32) {
        self.0 ^= rhs.0;
    }
}

impl Sub for Gf32 {
    type Output = Gf32;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl, clippy::suspicious_op_assign_impl)] // GF(2^n) addition IS xor
    fn sub(self, rhs: Gf32) -> Gf32 {
        // Characteristic 2: subtraction is addition.
        Gf32(self.0 ^ rhs.0)
    }
}

impl SubAssign for Gf32 {
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl, clippy::suspicious_op_assign_impl)] // GF(2^n) addition IS xor
    fn sub_assign(&mut self, rhs: Gf32) {
        self.0 ^= rhs.0;
    }
}

impl Neg for Gf32 {
    type Output = Gf32;
    #[inline]
    fn neg(self) -> Gf32 {
        self
    }
}

impl Mul for Gf32 {
    type Output = Gf32;
    #[inline]
    fn mul(self, rhs: Gf32) -> Gf32 {
        self.gf_mul(rhs)
    }
}

impl MulAssign for Gf32 {
    #[inline]
    fn mul_assign(&mut self, rhs: Gf32) {
        *self = self.gf_mul(rhs);
    }
}

impl Div for Gf32 {
    type Output = Gf32;
    /// Panics when dividing by zero, mirroring integer division.
    fn div(self, rhs: Gf32) -> Gf32 {
        self.gf_div(rhs).expect("division by zero in GF(2^32)")
    }
}

impl DivAssign for Gf32 {
    fn div_assign(&mut self, rhs: Gf32) {
        *self = *self / rhs;
    }
}

impl Sum for Gf32 {
    fn sum<I: Iterator<Item = Gf32>>(iter: I) -> Gf32 {
        iter.fold(Gf32::ZERO, Add::add)
    }
}

impl Product for Gf32 {
    fn product<I: Iterator<Item = Gf32>>(iter: I) -> Gf32 {
        iter.fold(Gf32::ONE, Mul::mul)
    }
}

impl From<u32> for Gf32 {
    fn from(v: u32) -> Self {
        Gf32(v)
    }
}

impl From<Gf32> for u32 {
    fn from(v: Gf32) -> Self {
        v.0
    }
}

/// Asks for the cache line holding `at` in every cache level ahead of a
/// read: `PREFETCHT0` on x86_64, the hint the clmul fold issues ahead of
/// its own stream. A hint only — it never faults and never reads
/// architecturally, whatever `at` names, so an address past the end of a
/// buffer is as safe to pass as any other. Elsewhere it is a no-op.
#[inline(always)]
pub fn prefetch(at: *const u8) {
    clmul::prefetch(at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn additive_identity_and_self_inverse() {
        let a = Gf32(0xDEAD_BEEF);
        assert_eq!(a + Gf32::ZERO, a);
        assert_eq!(a + a, Gf32::ZERO);
        assert_eq!(a - a, Gf32::ZERO);
        assert_eq!(-a, a);
    }

    #[test]
    fn multiplicative_identity() {
        let a = Gf32(0x1234_5678);
        assert_eq!(a * Gf32::ONE, a);
        assert_eq!(Gf32::ONE * a, a);
        assert_eq!(a * Gf32::ZERO, Gf32::ZERO);
    }

    #[test]
    fn mul_matches_known_small_products() {
        // x * x = x^2
        assert_eq!(Gf32(2) * Gf32(2), Gf32(4));
        // (x+1)(x+1) = x^2 + 1 over GF(2)
        assert_eq!(Gf32(3) * Gf32(3), Gf32(5));
        // x^31 * x = x^32 = x^22 + x^2 + x + 1 (mod p)
        assert_eq!(Gf32(1 << 31) * Gf32(2), Gf32(POLY_LOW));
    }

    #[test]
    fn mul_alpha_equals_mul_by_two() {
        let samples = [0u32, 1, 2, 0x8000_0000, 0xFFFF_FFFF, 0x1234_5678];
        for &s in &samples {
            assert_eq!(Gf32(s).mul_alpha(), Gf32(s) * ALPHA, "s = {s:#x}");
        }
    }

    #[test]
    fn pow_small_exponents() {
        let a = Gf32(0xABCD_EF01);
        assert_eq!(a.pow(0), Gf32::ONE);
        assert_eq!(a.pow(1), a);
        assert_eq!(a.pow(2), a * a);
        assert_eq!(a.pow(3), a * a * a);
        assert_eq!(a.pow(5), a.pow(2) * a.pow(3));
    }

    #[test]
    fn alpha_pow_matches_pow() {
        for i in [0u64, 1, 2, 31, 32, 33, 100, 12345, (1 << 29) - 2] {
            assert_eq!(Gf32::alpha_pow(i), ALPHA.pow(i), "i = {i}");
        }
    }

    #[test]
    fn alpha_pow2_table_is_consistent() {
        // alpha^(2^k) squared must equal alpha^(2^(k+1)).
        for k in 0..63 {
            let v = Gf32(ALPHA_POW2[k]);
            assert_eq!(v * v, Gf32(ALPHA_POW2[k + 1]), "k = {k}");
        }
    }

    #[test]
    fn inverse_roundtrip() {
        for &v in &[1u32, 2, 3, 0xFFFF_FFFF, 0x8000_0001, 0x0040_0007] {
            let a = Gf32(v);
            let inv = a.inv().expect("nonzero has inverse");
            assert_eq!(a * inv, Gf32::ONE, "v = {v:#x}");
        }
        assert_eq!(Gf32::ZERO.inv(), None);
    }

    #[test]
    fn division() {
        let a = Gf32(0x1357_9BDF);
        let b = Gf32(0x0246_8ACE);
        let q = a / b;
        assert_eq!(q * b, a);
        assert_eq!(a.gf_div(Gf32::ZERO), None);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn division_by_zero_panics() {
        let _ = Gf32(1) / Gf32::ZERO;
    }

    #[test]
    fn fermat_order() {
        // a^(2^32 - 1) == 1 for nonzero a (group order divides 2^32 - 1).
        let a = Gf32(0xCAFE_BABE);
        assert_eq!(a.pow(u32::MAX as u64), Gf32::ONE);
    }

    #[test]
    fn alpha_has_large_order() {
        // A primitive polynomial makes alpha a generator: alpha^k != 1 for
        // the maximal proper divisors of 2^32 - 1 = 3 * 5 * 17 * 257 * 65537.
        let order = u32::MAX as u64;
        for prime in [3u64, 5, 17, 257, 65537] {
            assert_ne!(
                ALPHA.pow(order / prime),
                Gf32::ONE,
                "alpha order divides (2^32-1)/{prime}"
            );
        }
        assert_eq!(ALPHA.pow(order), Gf32::ONE);
    }

    #[test]
    fn sum_and_product_impls() {
        let xs = [Gf32(1), Gf32(2), Gf32(3)];
        assert_eq!(xs.iter().copied().sum::<Gf32>(), Gf32(1 ^ 2 ^ 3));
        assert_eq!(
            xs.iter().copied().product::<Gf32>(),
            Gf32(1) * Gf32(2) * Gf32(3)
        );
    }

    #[test]
    fn display_and_debug() {
        assert_eq!(format!("{}", Gf32(0xAB)), "0x000000ab");
        assert_eq!(format!("{:?}", Gf32(0xAB)), "Gf32(0x000000ab)");
    }
}
