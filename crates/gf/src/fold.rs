//! Batched evaluation of the WSC-2 weighted sum over a run of symbols.
//!
//! Every WSC-2 absorption reduces to one computation over a run of
//! consecutive 32-bit symbols `d_0 .. d_{n-1}`:
//!
//! ```text
//! p0 = Σ dᵢ          H = Σ αⁱ·dᵢ        (the caller then adds α^start·H)
//! ```
//!
//! This module computes `(p0, H)` two ways, bit-identical:
//!
//! * **serial Horner** on [`Backend::Tables`], the portable path — back
//!   to front, `h ← h·α + d`, one [`Gf32::mul_alpha`] shift per symbol. No
//!   full multiplies, but a latency chain the CPU cannot overlap.
//! * **eight-lane Horner over clmul** on [`Backend::Clmul`] — the lane
//!   identity `Σ αⁱ dᵢ = Σ_{j<8} αʲ · (Σ_k α^(8k)·d_(8k+j))` splits the
//!   sum into eight independent chains, each stepping by the constant `α⁸`;
//!   one chain step is two `PCLMULQDQ`/`PMULL` instructions with lazy
//!   reduction (see `clmul.rs`). The chains pipeline, and this is the
//!   path the TPDU invariant verification rides.
//!
//! [`fold_symbols`] runs the active backend; [`fold_symbols_with`] pins
//! the backend, so the equivalence tests can reach the portable path on
//! hardware that has carry-less multiply.

use crate::backend::Backend;
use crate::Gf32;

/// Symbols converted per stack block in [`fold_be_bytes`].
const BYTES_BLOCK_SYMBOLS: usize = 256;

/// `(Σ dᵢ, Σ αⁱ·dᵢ)` over `data` on the active backend: serial Horner
/// on [`Backend::Tables`], eight clmul lanes on [`Backend::Clmul`].
///
/// ```
/// use chunks_gf::{fold_symbols, Gf32};
/// let (p0, h) = fold_symbols(&[7, 9]);
/// assert_eq!(p0, Gf32::new(7 ^ 9));
/// assert_eq!(h, Gf32::new(7) + Gf32::alpha_pow(1) * Gf32::new(9));
/// ```
#[inline]
pub fn fold_symbols(data: &[u32]) -> (Gf32, Gf32) {
    fold_symbols_with(Backend::active(), data)
}

/// [`fold_symbols`] with the backend pinned and no global state read — the
/// reference the per-backend equivalence tests compare against. Asking for
/// the clmul backend on a CPU without carry-less multiply computes the
/// same value on the portable path.
#[inline]
pub fn fold_symbols_with(backend: Backend, data: &[u32]) -> (Gf32, Gf32) {
    let (p0, h) = match backend {
        Backend::Clmul => crate::clmul::fold_symbols(data),
        Backend::Tables => fold_serial(data),
    };
    (Gf32::new(p0), Gf32::new(h))
}

/// `(Σ dᵢ, Σ αⁱ·dᵢ)` over raw bytes read as big-endian 32-bit symbols, a
/// trailing partial symbol zero-padded on the right — the byte-level
/// convention of `Wsc2::add_bytes`. Runs on the active backend.
///
/// Bytes are converted in 256-symbol stack blocks so arbitrarily long
/// runs never allocate; blocks combine by the block-Horner identity
/// `H = H_blk + α^{blk_symbols}·H_rest`.
pub fn fold_be_bytes(bytes: &[u8]) -> (Gf32, Gf32) {
    const BLOCK_BYTES: usize = BYTES_BLOCK_SYMBOLS * 4;
    if bytes.is_empty() {
        return (Gf32::ZERO, Gf32::ZERO);
    }
    // Combine blocks back to front: h = H_blk + α^{syms(blk)}·h.
    let mut p0 = Gf32::ZERO;
    let mut h = Gf32::ZERO;
    let mut buf = [0u32; BYTES_BLOCK_SYMBOLS];
    for block in bytes.chunks(BLOCK_BYTES).rev() {
        let n_sym = block.len().div_ceil(4);
        for (slot, word) in buf[..n_sym].iter_mut().zip(block.chunks(4)) {
            let mut be = [0u8; 4];
            be[..word.len()].copy_from_slice(word);
            *slot = u32::from_be_bytes(be);
        }
        let (bp0, bh) = fold_symbols(&buf[..n_sym]);
        p0 += bp0;
        h = bh + Gf32::alpha_pow(n_sym as u64) * h;
    }
    (p0, h)
}

/// The portable serial fold: backward Horner, one `mul_alpha` per symbol.
/// `pub(crate)` so the clmul module can fall back to it.
pub(crate) fn fold_serial(data: &[u32]) -> (u32, u32) {
    let mut p0 = Gf32::ZERO;
    let mut horner = Gf32::ZERO;
    for &d in data.iter().rev() {
        let d = Gf32::new(d);
        horner = horner.mul_alpha() + d;
        p0 += d;
    }
    (p0.value(), horner.value())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Oracle: symbol-by-symbol reference-path accumulation.
    fn reference(data: &[u32]) -> (Gf32, Gf32) {
        let mut p0 = Gf32::ZERO;
        let mut h = Gf32::ZERO;
        for (i, &d) in data.iter().enumerate() {
            let d = Gf32::new(d);
            p0 += d;
            h += Gf32::alpha_pow_ref(i as u64).mul_ref(d);
        }
        (p0, h)
    }

    fn sample(n: usize) -> Vec<u32> {
        (0..n as u32)
            .map(|i| i.wrapping_mul(0x9E37_79B9) ^ 0xA5A5_5A5A)
            .collect()
    }

    #[test]
    fn every_backend_matches_the_oracle() {
        // 7..17 straddle the 8-lane block on both sides.
        for n in [0usize, 1, 3, 7, 8, 15, 16, 17, 31, 100, 257] {
            let data = sample(n);
            let expect = reference(&data);
            for backend in Backend::supported() {
                assert_eq!(
                    fold_symbols_with(backend, &data),
                    expect,
                    "backend={backend:?} n={n}"
                );
            }
            assert_eq!(fold_symbols(&data), expect, "active backend, n={n}");
        }
    }

    #[test]
    fn bytes_fold_matches_symbol_fold_with_padding() {
        // 1023/1024/1025 straddle the 256-symbol stack block.
        for n in [1usize, 2, 3, 4, 5, 1023, 1024, 1025, 4096, 5000] {
            let bytes: Vec<u8> = (0..n).map(|i| (i * 37 + 11) as u8).collect();
            let mut symbols = Vec::new();
            for word in bytes.chunks(4) {
                let mut be = [0u8; 4];
                be[..word.len()].copy_from_slice(word);
                symbols.push(u32::from_be_bytes(be));
            }
            let expect = reference(&symbols);
            assert_eq!(fold_be_bytes(&bytes), expect, "n={n}");
            for backend in Backend::supported() {
                assert_eq!(fold_symbols_with(backend, &symbols), expect, "n={n}");
            }
        }
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(fold_symbols(&[]), (Gf32::ZERO, Gf32::ZERO));
        assert_eq!(fold_be_bytes(&[]), (Gf32::ZERO, Gf32::ZERO));
    }
}
