//! The WSC-2 weighted sum code (McAuley; paper §4).
//!
//! A WSC-2 encoder takes 32-bit data symbols `d_i` and produces two parity
//! symbols over GF(2^32):
//!
//! ```text
//! P0 = Σ d_i            P1 = Σ alpha^i · d_i
//! ```
//!
//! Unused positions are equivalent to encoding a zero symbol, so the code is
//! defined over a sparse space of `2^29 - 2` positions and "will work
//! correctly as long as the error detection protocol specifies which unique
//! value of `i` should be used for each symbol" — the flexibility the TPDU
//! invariant exploits.
//!
//! Properties relied on by the rest of the system (and tested here):
//!
//! * **order independence** — absorbing symbols in any order yields the same
//!   parities;
//! * **incrementality** — parities update one symbol at a time;
//! * **removability** — in characteristic 2, absorbing the same symbol again
//!   removes it, so duplicate data is *detected* rather than silently
//!   tolerated (the receiver must reject duplicates before absorbing, §3.3);
//! * **CRC-equivalent single-burst power** — any change to a single symbol,
//!   and any swap of two distinct symbols, changes `(P0, P1)`.

use chunks_gf::Gf32;

/// Number of addressable symbol positions: `0 <= i < 2^29 - 2` (§4).
pub const MAX_SYMBOLS: u64 = (1 << 29) - 2;

/// Incremental, order-independent WSC-2 accumulator.
///
/// ```
/// use chunks_wsc::Wsc2;
/// let mut in_order = Wsc2::new();
/// in_order.add_bytes(0, b"abcdefgh");
/// // The same data absorbed as disordered fragments:
/// let mut disordered = Wsc2::new();
/// disordered.add_bytes(1, b"efgh"); // symbols 1..3 first
/// disordered.add_bytes(0, b"abcd");
/// assert_eq!(in_order.digest(), disordered.digest());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Wsc2 {
    pub(crate) p0: Gf32,
    pub(crate) p1: Gf32,
}

impl Wsc2 {
    /// A fresh accumulator (the code of the empty message).
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs (or, equivalently, removes) a symbol at position `i`.
    ///
    /// # Panics
    /// Panics in debug builds when `i` exceeds [`MAX_SYMBOLS`].
    #[inline]
    pub fn add_symbol(&mut self, i: u64, d: u32) {
        debug_assert!(i < MAX_SYMBOLS, "symbol position {i} outside code space");
        let d = Gf32::new(d);
        self.p0 += d;
        self.p1 += Gf32::alpha_pow(i) * d;
    }

    /// Absorbs a run of symbols at consecutive positions starting at
    /// `start`.
    ///
    /// Fast path: `Σ α^(start+k)·d_k = α^start · H` where the inner sum `H`
    /// is a batched Horner fold on the active GF(2^32) backend
    /// ([`chunks_gf::fold_symbols`] — wide carry-less-multiply lanes where
    /// the CPU has them, a serial shift-and-fold sweep otherwise), plus a
    /// single full multiplication by `α^start` at the end.
    pub fn add_symbols(&mut self, start: u64, data: &[u32]) {
        debug_assert!(start + data.len() as u64 <= MAX_SYMBOLS);
        let (p0, horner) = chunks_gf::fold_symbols(data);
        self.p0 += p0;
        self.p1 += Gf32::alpha_pow(start) * horner;
    }

    /// Absorbs raw bytes as big-endian 32-bit symbols at consecutive
    /// positions starting at `start`; a trailing partial symbol is
    /// zero-padded on the right. Same batched fold as
    /// [`Self::add_symbols`], via [`chunks_gf::fold_be_bytes`].
    pub fn add_bytes(&mut self, start: u64, bytes: &[u8]) {
        let (p0, horner) = chunks_gf::fold_be_bytes(bytes);
        self.p0 += p0;
        self.p1 += Gf32::alpha_pow(start) * horner;
    }

    /// Reference-path [`Self::add_symbol`]: identical result via the seed
    /// bit-serial field arithmetic ([`Gf32::alpha_pow_ref`] /
    /// [`Gf32::mul_ref`]).
    ///
    /// Kept as the honest "slow path" arm for the `codes` benchmark and for
    /// cross-checking the table-driven path. Use [`Self::add_symbol`] in
    /// real code.
    pub fn add_symbol_ref(&mut self, i: u64, d: u32) {
        debug_assert!(i < MAX_SYMBOLS, "symbol position {i} outside code space");
        let d = Gf32::new(d);
        self.p0 += d;
        self.p1 += Gf32::alpha_pow_ref(i).mul_ref(d);
    }

    /// Reference-path [`Self::add_bytes`]: identical result via the seed
    /// bit-serial field arithmetic. See [`Self::add_symbol_ref`].
    pub fn add_bytes_ref(&mut self, start: u64, bytes: &[u8]) {
        let mut p0 = Gf32::ZERO;
        let mut horner = Gf32::ZERO;
        let mut iter = bytes.chunks_exact(4);
        let rem = iter.remainder();
        if !rem.is_empty() {
            let mut word = [0u8; 4];
            word[..rem.len()].copy_from_slice(rem);
            let d = Gf32::new(u32::from_be_bytes(word));
            horner = d;
            p0 += d;
        }
        for group in iter.by_ref().rev() {
            let d = Gf32::new(u32::from_be_bytes([group[0], group[1], group[2], group[3]]));
            horner = horner.mul_alpha() + d;
            p0 += d;
        }
        self.p0 += p0;
        self.p1 += Gf32::alpha_pow_ref(start).mul_ref(horner);
    }

    /// Number of symbols `n` bytes occupy.
    pub fn symbols_for_bytes(n: usize) -> u64 {
        n.div_ceil(4) as u64
    }

    /// Merges another accumulator computed over a *disjoint* set of
    /// positions (parities are sums, so combination is addition).
    pub fn combine(&mut self, other: &Wsc2) {
        self.p0 += other.p0;
        self.p1 += other.p1;
    }

    /// The two parity symbols `(P0, P1)`.
    pub fn parities(&self) -> (u32, u32) {
        (self.p0.value(), self.p1.value())
    }

    /// Wire form of the code value: `P0 || P1`, big-endian.
    pub fn digest(&self) -> [u8; 8] {
        let mut out = [0u8; 8];
        out[..4].copy_from_slice(&self.p0.value().to_be_bytes());
        out[4..].copy_from_slice(&self.p1.value().to_be_bytes());
        out
    }

    /// Parses a wire digest back into an accumulator value.
    pub fn from_digest(d: [u8; 8]) -> Self {
        Wsc2 {
            p0: Gf32::new(u32::from_be_bytes([d[0], d[1], d[2], d[3]])),
            p1: Gf32::new(u32::from_be_bytes([d[4], d[5], d[6], d[7]])),
        }
    }

    /// True when both parities are zero — used to check a received message
    /// against its received code by absorbing the code's *syndrome*.
    pub fn is_zero(&self) -> bool {
        self.p0.is_zero() && self.p1.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_code_is_zero() {
        assert!(Wsc2::new().is_zero());
        assert_eq!(Wsc2::new().parities(), (0, 0));
    }

    #[test]
    fn order_independence() {
        let data = [(0u64, 0x11u32), (5, 0x22), (3, 0x33), (100, 0x44)];
        let mut a = Wsc2::new();
        for &(i, d) in &data {
            a.add_symbol(i, d);
        }
        let mut b = Wsc2::new();
        for &(i, d) in data.iter().rev() {
            b.add_symbol(i, d);
        }
        assert_eq!(a, b);
    }

    #[test]
    fn sequential_matches_individual() {
        let data = [0xDEAD_BEEFu32, 0x0123_4567, 0x89AB_CDEF, 0xFFFF_0000];
        let mut seq = Wsc2::new();
        seq.add_symbols(7, &data);
        let mut ind = Wsc2::new();
        for (k, &d) in data.iter().enumerate() {
            ind.add_symbol(7 + k as u64, d);
        }
        assert_eq!(seq, ind);
    }

    #[test]
    fn bytes_match_symbols() {
        let bytes = [0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x23, 0x45, 0x67];
        let mut by = Wsc2::new();
        by.add_bytes(3, &bytes);
        let mut sy = Wsc2::new();
        sy.add_symbols(3, &[0xDEAD_BEEF, 0x0123_4567]);
        assert_eq!(by, sy);
    }

    #[test]
    fn trailing_bytes_zero_padded() {
        let mut a = Wsc2::new();
        a.add_bytes(0, &[0xAB, 0xCD]);
        let mut b = Wsc2::new();
        b.add_symbol(0, 0xABCD_0000);
        assert_eq!(a, b);
    }

    #[test]
    fn double_absorption_cancels() {
        // Re-processing a duplicate corrupts the code — exactly why the
        // receiver must reject duplicates (§3.3).
        let mut w = Wsc2::new();
        w.add_symbol(9, 0x5555_5555);
        w.add_symbol(9, 0x5555_5555);
        assert!(w.is_zero());
    }

    #[test]
    fn single_symbol_error_detected() {
        let mut good = Wsc2::new();
        good.add_symbols(0, &[1, 2, 3, 4]);
        let mut bad = good;
        bad.add_symbol(2, 3 ^ 7); // change symbol 2 from 3 to 7
        assert_ne!(good, bad);
    }

    #[test]
    fn swapped_symbols_detected() {
        // P0 is order-blind but P1 weights positions, so swapping two
        // distinct symbols is caught — strictly stronger than the Internet
        // checksum (§4 footnote 11).
        let mut good = Wsc2::new();
        good.add_symbols(0, &[0xAA, 0xBB]);
        let mut swapped = Wsc2::new();
        swapped.add_symbols(0, &[0xBB, 0xAA]);
        assert_eq!(good.parities().0, swapped.parities().0);
        assert_ne!(good.parities().1, swapped.parities().1);
    }

    #[test]
    fn combine_is_disjoint_union() {
        let mut whole = Wsc2::new();
        whole.add_symbols(0, &[1, 2, 3, 4, 5, 6]);
        let mut left = Wsc2::new();
        left.add_symbols(0, &[1, 2, 3]);
        let mut right = Wsc2::new();
        right.add_symbols(3, &[4, 5, 6]);
        left.combine(&right);
        assert_eq!(left, whole);
    }

    #[test]
    fn digest_roundtrip() {
        let mut w = Wsc2::new();
        w.add_symbols(11, &[0x1111, 0x2222]);
        assert_eq!(Wsc2::from_digest(w.digest()), w);
    }

    #[test]
    fn syndrome_check() {
        let mut tx = Wsc2::new();
        tx.add_symbols(0, &[10, 20, 30]);
        // Receiver recomputes then adds the transmitted value: zero syndrome.
        let mut rx = Wsc2::new();
        rx.add_symbols(0, &[10, 20, 30]);
        rx.combine(&tx);
        assert!(rx.is_zero());
    }

    #[test]
    fn reference_paths_agree_with_fast_paths() {
        let bytes: Vec<u8> = (0u8..23).map(|x| x.wrapping_mul(37)).collect();
        let mut fast = Wsc2::new();
        fast.add_bytes(12_345, &bytes);
        fast.add_symbol(1 << 20, 0xFEED_FACE);
        let mut slow = Wsc2::new();
        slow.add_bytes_ref(12_345, &bytes);
        slow.add_symbol_ref(1 << 20, 0xFEED_FACE);
        assert_eq!(fast, slow);
    }

    #[test]
    fn symbols_for_bytes_rounds_up() {
        assert_eq!(Wsc2::symbols_for_bytes(0), 0);
        assert_eq!(Wsc2::symbols_for_bytes(1), 1);
        assert_eq!(Wsc2::symbols_for_bytes(4), 1);
        assert_eq!(Wsc2::symbols_for_bytes(5), 2);
    }
}
