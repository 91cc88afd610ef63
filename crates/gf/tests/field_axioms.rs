//! Property-based verification of the GF(2^32) field axioms.

use chunks_gf::{fold_symbols_with, Backend, Gf32, ALPHA};
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
