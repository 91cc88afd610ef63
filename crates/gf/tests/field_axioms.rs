//! Property-based verification of the GF(2^32) field axioms.

use chunks_gf::{fold_elements_with, fold_symbols_with, Backend, Gf32, ALPHA};
use proptest::prelude::*;

fn elem() -> impl Strategy<Value = Gf32> {
    any::<u32>().prop_map(Gf32::new)
}

proptest! {
    #[test]
    fn addition_commutes(a in elem(), b in elem()) {
        prop_assert_eq!(a + b, b + a);
    }

    #[test]
    fn addition_associates(a in elem(), b in elem(), c in elem()) {
        prop_assert_eq!((a + b) + c, a + (b + c));
    }

    #[test]
    fn multiplication_commutes(a in elem(), b in elem()) {
        prop_assert_eq!(a * b, b * a);
    }

    #[test]
    fn multiplication_associates(a in elem(), b in elem(), c in elem()) {
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn distributivity(a in elem(), b in elem(), c in elem()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
    }

    #[test]
    fn inverse_cancels(a in elem().prop_filter("nonzero", |a| !a.is_zero())) {
        let inv = a.inv().unwrap();
        prop_assert_eq!(a * inv, Gf32::ONE);
        prop_assert_eq!(a / a, Gf32::ONE);
    }

    #[test]
    fn no_zero_divisors(a in elem(), b in elem()) {
        if (a * b).is_zero() {
            prop_assert!(a.is_zero() || b.is_zero());
        }
    }

    #[test]
    fn pow_adds_exponents(a in elem(), e1 in 0u64..1000, e2 in 0u64..1000) {
        prop_assert_eq!(a.pow(e1) * a.pow(e2), a.pow(e1 + e2));
    }

    #[test]
    fn alpha_pow_consistent(i in 0u64..(1 << 30)) {
        prop_assert_eq!(Gf32::alpha_pow(i), ALPHA.pow(i));
    }

    #[test]
    fn mul_alpha_is_mul_by_alpha(a in elem()) {
        prop_assert_eq!(a.mul_alpha(), a * ALPHA);
    }

    #[test]
    fn frobenius_is_additive(a in elem(), b in elem()) {
        // Squaring is a field automorphism in characteristic 2.
        prop_assert_eq!((a + b) * (a + b), a * a + b * b);
    }

    #[test]
    fn mul_fast_matches_reference(a in elem(), b in elem()) {
        // The table-driven fast path is bit-identical to the seed
        // shift-and-XOR oracle over the whole input space.
        prop_assert_eq!(a.mul_fast(b), a.mul_ref(b));
    }

    #[test]
    fn alpha_pow_matches_reference(i in any::<u64>()) {
        // Cached power tables (with mod-(2^32 - 1) exponent folding) agree
        // with the seed square-and-multiply path for every u64 exponent.
        prop_assert_eq!(Gf32::alpha_pow(i), Gf32::alpha_pow_ref(i));
    }

    #[test]
    fn mul_clmul_matches_reference(a in elem(), b in elem()) {
        // The carry-less-multiply + Barrett-reduction path is bit-identical
        // to the seed shift-and-XOR oracle. On CPUs without clmul the
        // wrapper falls back to the table path, which the property above
        // already pins — so this holds everywhere.
        prop_assert_eq!(a.mul_clmul(b), a.mul_ref(b));
    }

    #[test]
    fn dispatched_mul_matches_reference(a in elem(), b in elem()) {
        // Whatever backend `Backend::active()` picked, `*` is the oracle.
        prop_assert_eq!(a * b, a.mul_ref(b));
    }

    #[test]
    fn batched_folds_match_reference(
        data in proptest::collection::vec(any::<u32>(), 0..200),
        start in 0u64..(1 << 20),
    ) {
        // Reference: symbol-at-a-time accumulation on the seed arithmetic.
        let mut p0 = Gf32::ZERO;
        let mut h = Gf32::ZERO;
        for (k, &d) in data.iter().enumerate() {
            let d = Gf32::new(d);
            p0 += d;
            h += Gf32::alpha_pow_ref(start + k as u64).mul_ref(d);
        }
        let w = Gf32::alpha_pow_ref(start);
        for backend in Backend::supported() {
            let (fp0, fh) = fold_symbols_with(backend, &data);
            prop_assert_eq!(fp0, p0, "p0: backend={:?}", backend);
            prop_assert_eq!(w.mul_ref(fh), h, "H: backend={:?}", backend);
        }
        let (ap0, ah) = chunks_gf::fold_symbols(&data);
        prop_assert_eq!(ap0, p0);
        prop_assert_eq!(w.mul_ref(ah), h);
    }
}

/// The symbols a payload of `size`-byte elements stands for: each element
/// left-aligned in `⌈size/4⌉` zero-padded big-endian symbols.
fn padded_symbols(size: usize, bytes: &[u8]) -> Vec<u32> {
    let mut symbols = Vec::new();
    for element in bytes.chunks(size) {
        for sym in element.chunks(4) {
            let mut be = [0u8; 4];
            be[..sym.len()].copy_from_slice(sym);
            symbols.push(u32::from_be_bytes(be));
        }
    }
    symbols
}

fn payload(n: usize) -> Vec<u8> {
    (0..n as u32)
        .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
        .collect()
}

#[test]
fn byte_folds_match_the_symbol_oracle_at_every_length_and_misalignment() {
    // The byte kernels load the payload themselves, unaligned; the oracle
    // is the serial fold over symbols built the slow way. 600 elements
    // cross the lane word (32 symbols) and the block (64) many times over
    // for every SIZE.
    let data = payload(9 * 600);
    let mut shifted = vec![0u8; data.len() + 15];
    for size in 1..=9usize {
        for elements in 0..=600usize {
            let bytes = &data[..size * elements];
            let expect = fold_symbols_with(Backend::Tables, &padded_symbols(size, bytes));
            for backend in Backend::supported() {
                for misalign in 0..16usize {
                    let at = &mut shifted[misalign..misalign + bytes.len()];
                    at.copy_from_slice(bytes);
                    assert_eq!(
                        fold_elements_with(backend, size, at),
                        expect,
                        "backend={backend:?} size={size} elements={elements} misalign={misalign}"
                    );
                }
            }
        }
    }
}

#[test]
fn byte_folds_walk_forward_to_the_same_value_as_fold_symbols() {
    // The forward lane walk, a trailing partial element included, equals
    // the existing symbol entry on the same data.
    let data = payload(4 * 1024 + 3);
    for size in [1usize, 3, 4, 7, 8, 1500] {
        for n in [0, 1, size - 1, size, size + 1, 4 * 1024, data.len()] {
            let bytes = &data[..n.min(data.len())];
            let symbols = padded_symbols(size, bytes);
            for backend in Backend::supported() {
                assert_eq!(
                    fold_elements_with(backend, size, bytes),
                    fold_symbols_with(backend, &symbols),
                    "backend={backend:?} size={size} n={n}"
                );
            }
            assert_eq!(
                chunks_gf::fold_elements(size, bytes),
                chunks_gf::fold_symbols(&symbols)
            );
        }
    }
    assert_eq!(
        chunks_gf::fold_be_bytes(&data),
        chunks_gf::fold_elements(4, &data)
    );
}

#[cfg(target_os = "linux")]
#[test]
#[allow(unsafe_code)] // mprotect: the guard page is the point of the test
fn byte_folds_never_read_past_a_payload_ending_on_a_page_boundary() {
    use std::alloc::{alloc_zeroed, dealloc, Layout};
    extern "C" {
        fn mprotect(addr: *mut u8, len: usize, prot: i32) -> i32;
    }
    const PAGE: usize = 4096;
    const PROT_NONE: i32 = 0;
    const PROT_READ_WRITE: i32 = 3;
    // Two guard pages: the clmul fold prefetches its own stream a fixed
    // distance ahead, and any distance up to two pages must find
    // `PROT_NONE` under it, not the allocator's next block.
    const GUARD: usize = 2 * PAGE;
    let layout = Layout::from_size_align(PAGE + GUARD, PAGE).unwrap();
    let data = payload(PAGE);
    // SAFETY: a fresh three-page allocation this test owns; the guard pages
    // are inaccessible only between the two `mprotect` calls, during which
    // nothing but the folds under test runs, and they are handed slices of
    // the first page alone.
    unsafe {
        let base = alloc_zeroed(layout);
        assert!(!base.is_null());
        std::slice::from_raw_parts_mut(base, PAGE).copy_from_slice(&data);
        assert_eq!(mprotect(base.add(PAGE), GUARD, PROT_NONE), 0);
        let page = std::slice::from_raw_parts(base, PAGE);
        for size in 1..=9usize {
            for n in [1usize, 5, 31, 32, 33, 63, 64, 65, 600, 2048, PAGE] {
                let bytes = &page[PAGE - n..];
                let expect = fold_symbols_with(Backend::Tables, &padded_symbols(size, bytes));
                for backend in Backend::supported() {
                    let got = fold_elements_with(backend, size, bytes);
                    assert_eq!(got, expect, "backend={backend:?} size={size} n={n}");
                }
            }
        }
        // The payload ends short of the guard by less than the prefetch
        // distance: no load comes near the guard, but the hint issued for
        // a full block names an address on it. A hint must stay a hint.
        for short in [1usize, 8, 63, 64, 65, 255, 1024, 3000] {
            for n in [64usize, 65, 128, 600, 1095, PAGE - short] {
                let bytes = &page[PAGE - short - n..PAGE - short];
                for size in [1usize, 3, 4, 8] {
                    let expect = fold_symbols_with(Backend::Tables, &padded_symbols(size, bytes));
                    for backend in Backend::supported() {
                        let got = fold_elements_with(backend, size, bytes);
                        assert_eq!(
                            got, expect,
                            "backend={backend:?} size={size} n={n} short={short}"
                        );
                    }
                }
            }
        }
        assert_eq!(mprotect(base.add(PAGE), GUARD, PROT_READ_WRITE), 0);
        dealloc(base, layout);
    }
}
