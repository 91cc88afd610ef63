//! Batched evaluation of the WSC-2 weighted sum over a run of symbols.
//!
//! Every WSC-2 absorption reduces to one computation over a run of
//! consecutive 32-bit symbols `d_0 .. d_{n-1}`:
//!
//! ```text
//! p0 = Σ dᵢ          H = Σ αⁱ·dᵢ        (the caller then adds α^start·H)
//! ```
//!
//! The symbols are either ready-made ([`fold_symbols`]) or still payload
//! bytes ([`fold_elements`], [`fold_be_bytes`]), read in place. `(p0, H)`
//! is computed two ways, bit-identical:
//!
//! * **serial Horner**, the portable path — back to front,
//!   `h ← h·α + d`, one [`Gf32::mul_alpha`] shift per symbol. No full
//!   multiplies, but a latency chain the CPU cannot overlap.
//! * **forward lane fold over clmul** — 32 consecutive symbols pre-combine
//!   into one 64-bit word with shifts alone, and independent lane chains
//!   absorb the words front to back, each step two `PCLMULQDQ`
//!   instructions with lazy reduction (see `clmul.rs`). This is the path
//!   TPDU invariant verification rides.
//!
//! The lane fold has gathers for the shapes that are sent: one-byte
//! elements, which every workload carries, and packed symbols (`SIZE` a
//! multiple of 4), which `fold_be_bytes` and the ledger's `gf.fold` leg
//! read. Ready-made symbol slices (only tests build them) and any other
//! `SIZE` fold serially on every CPU: a gather per shape is code to keep
//! bit-identical for a speed nothing would see.
//!
//! The CPU picks the kernel ([`fold_elements`] calls the clmul entry,
//! which falls back to the serial fold where the instruction is missing);
//! [`fold_elements_with`] and [`fold_byte_elements_with`] pin one, so the
//! equivalence tests reach the portable paths on hardware that has the
//! fast ones.

use crate::backend::Backend;
use crate::Gf32;

/// `(Σ dᵢ, Σ αⁱ·dᵢ)` over `data`, by serial Horner on every CPU: no
/// workload folds ready-made symbols, so they have no lane gather.
///
/// ```
/// use chunks_gf::{fold_symbols, Gf32};
/// let (p0, h) = fold_symbols(&[7, 9]);
/// assert_eq!(p0, Gf32::new(7 ^ 9));
/// assert_eq!(h, Gf32::new(7) + Gf32::alpha_pow(1) * Gf32::new(9));
/// ```
#[inline]
pub fn fold_symbols(data: &[u32]) -> (Gf32, Gf32) {
    let (p0, h) = fold_serial(data.iter().copied());
    (Gf32::new(p0), Gf32::new(h))
}

/// `(Σ dᵢ, Σ αⁱ·dᵢ)` over the symbols of a payload of `size`-byte elements:
/// the clmul lane fold where the CPU has carry-less multiply and `size` is
/// 1 or a multiple of 4, the serial fold otherwise. Each element is
/// left-aligned in `⌈size/4⌉` big-endian symbols, zero-padded on the
/// right — the TPDU invariant's data layout — so a `size` that is a
/// multiple of 4 reads `bytes` as one packed run of symbols. A trailing
/// partial element is padded the same way.
///
/// The payload is read in place; nothing is copied out of it but a final
/// partial block.
///
/// # Panics
/// Panics when `size` is zero (no valid chunk header carries `SIZE = 0`).
///
/// ```
/// use chunks_gf::{fold_elements, fold_symbols};
/// // Two one-byte elements: each is its own left-aligned symbol.
/// assert_eq!(fold_elements(1, &[0xAB, 0xCD]), fold_symbols(&[0xAB00_0000, 0xCD00_0000]));
/// // A five-byte element spans two symbols.
/// assert_eq!(fold_elements(5, &[1, 2, 3, 4, 5]), fold_symbols(&[0x0102_0304, 0x0500_0000]));
/// ```
#[inline]
pub fn fold_elements(size: usize, bytes: &[u8]) -> (Gf32, Gf32) {
    fold_elements_with(Backend::Clmul, size, bytes)
}

/// [`fold_elements`] with the backend pinned: [`Backend::Tables`] is the
/// serial fold on any CPU, [`Backend::Clmul`] what [`fold_elements`] runs
/// (the serial fold too where the CPU lacks carry-less multiply).
pub fn fold_elements_with(backend: Backend, size: usize, bytes: &[u8]) -> (Gf32, Gf32) {
    assert!(size > 0, "an element has at least one byte");
    let (p0, h) = match backend {
        Backend::Clmul => crate::clmul::fold_elements(size, bytes),
        Backend::Tables => fold_serial_elements(size, bytes),
    };
    (Gf32::new(p0), Gf32::new(h))
}

/// How the clmul fold turns one-byte elements — the shape every ledger
/// workload sends — into lane words. Both gathers compute the same bits;
/// [`fold_elements`] on the clmul backend runs the wide one wherever the
/// CPU has it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ByteGather {
    /// Portable Rust, eight bytes per `u64`: every CPU with carry-less
    /// multiply, and the only one on x86_64 without AVX-512.
    Portable,
    /// One 512-bit load per 64-byte block (x86_64 with `avx512f` and
    /// `avx512bw`).
    Wide,
}

impl ByteGather {
    /// Every gather the current CPU can run, portable first.
    pub fn supported() -> Vec<ByteGather> {
        let mut v = vec![ByteGather::Portable];
        if crate::clmul::has_wide_gather() {
            v.push(ByteGather::Wide);
        }
        v
    }
}

/// [`fold_elements`]`(1, bytes)` on the clmul backend with the gather
/// pinned, so the equivalence tests reach the portable gather on a CPU
/// that has the wide one. A gather the CPU lacks computes the same value
/// on the portable one, and a CPU without carry-less multiply folds
/// serially.
///
/// ```
/// use chunks_gf::{fold_byte_elements_with, fold_elements, ByteGather};
/// let bytes = [0xAB; 100];
/// for gather in ByteGather::supported() {
///     assert_eq!(fold_byte_elements_with(gather, &bytes), fold_elements(1, &bytes));
/// }
/// ```
pub fn fold_byte_elements_with(gather: ByteGather, bytes: &[u8]) -> (Gf32, Gf32) {
    let (p0, h) = crate::clmul::fold_bytes(gather, bytes);
    (Gf32::new(p0), Gf32::new(h))
}

/// `(Σ dᵢ, Σ αⁱ·dᵢ)` over raw bytes read as big-endian 32-bit symbols, a
/// trailing partial symbol zero-padded on the right — the byte-level
/// convention of `Wsc2::add_bytes`: [`fold_elements`]`(4, bytes)`.
#[inline]
pub fn fold_be_bytes(bytes: &[u8]) -> (Gf32, Gf32) {
    fold_elements(4, bytes)
}

/// The zero-padded symbols of a payload of `size`-byte elements, in
/// position order.
fn element_symbols(size: usize, bytes: &[u8]) -> impl DoubleEndedIterator<Item = u32> + '_ {
    bytes.chunks(size).flat_map(|e| e.chunks(4)).map(be_symbol)
}

/// One to four bytes as a big-endian symbol, zero-padded on the right.
#[inline]
fn be_symbol(sym: &[u8]) -> u32 {
    match <[u8; 4]>::try_from(sym) {
        Ok(whole) => u32::from_be_bytes(whole),
        // Byte by byte: a variable-length copy would be a `memcpy` call.
        Err(_) => sym.iter().fold(0u32, |be, &b| be << 8 | b as u32) << (8 * (4 - sym.len())),
    }
}

/// The portable serial fold straight from payload bytes. The two shapes
/// the workloads use get a flat symbol iterator; the nested one costs 4–6×.
/// `pub(crate)` so the clmul module can fall back to it.
pub(crate) fn fold_serial_elements(size: usize, bytes: &[u8]) -> (u32, u32) {
    if size.is_multiple_of(4) {
        fold_serial(bytes.chunks(4).map(be_symbol))
    } else if size == 1 {
        fold_serial(bytes.iter().map(|&b| (b as u32) << 24))
    } else {
        fold_serial(element_symbols(size, bytes))
    }
}

/// The portable serial fold: backward Horner, one `mul_alpha` per symbol.
fn fold_serial(symbols: impl DoubleEndedIterator<Item = u32>) -> (u32, u32) {
    let mut p0 = Gf32::ZERO;
    let mut horner = Gf32::ZERO;
    for d in symbols.rev() {
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
        // 31..33 straddle the lane word, 63..65 the block.
        for n in [0usize, 1, 3, 31, 32, 33, 63, 64, 65, 100, 257] {
            let data = sample(n);
            let expect = reference(&data);
            assert_eq!(fold_symbols(&data), expect, "symbols, n={n}");
            let bytes: Vec<u8> = data.iter().flat_map(|d| d.to_be_bytes()).collect();
            for backend in Backend::supported() {
                assert_eq!(
                    fold_elements_with(backend, 4, &bytes),
                    expect,
                    "backend={backend:?} n={n}"
                );
            }
        }
    }

    #[test]
    fn bytes_fold_matches_symbol_fold_with_padding() {
        // 255/256/257 straddle the 64-symbol block.
        for n in [1usize, 2, 3, 4, 5, 255, 256, 257, 4096, 5000] {
            let bytes: Vec<u8> = (0..n).map(|i| (i * 37 + 11) as u8).collect();
            let mut symbols = Vec::new();
            for word in bytes.chunks(4) {
                let mut be = [0u8; 4];
                be[..word.len()].copy_from_slice(word);
                symbols.push(u32::from_be_bytes(be));
            }
            let expect = reference(&symbols);
            assert_eq!(fold_be_bytes(&bytes), expect, "n={n}");
            assert_eq!(fold_symbols(&symbols), expect, "n={n}");
            for backend in Backend::supported() {
                assert_eq!(fold_elements_with(backend, 4, &bytes), expect, "n={n}");
            }
        }
    }

    #[test]
    fn empty_input_is_zero() {
        assert_eq!(fold_symbols(&[]), (Gf32::ZERO, Gf32::ZERO));
        assert_eq!(fold_be_bytes(&[]), (Gf32::ZERO, Gf32::ZERO));
    }
}
