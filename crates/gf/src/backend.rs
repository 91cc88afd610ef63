//! The GF(2^32) kernels as a value: what the CPU runs, and a pin for tests.
//!
//! Three implementations of the same field exist in this crate, all
//! bit-identical (pinned by `tests/field_axioms.rs`):
//!
//! * **bit-serial reference** (`mul_ref` / `alpha_pow_ref`) — the seed
//!   oracle; never run for a result, only compared against;
//! * **[`Backend::Tables`]** — the portable 8-bit-window table path of
//!   `tables.rs` and the serial Horner fold; works everywhere, needs
//!   136 KiB of L1/L2 resident lookup tables;
//! * **[`Backend::Clmul`]** — hardware carry-less multiply
//!   (`PCLMULQDQ` on x86_64) with Barrett reduction; no tables, no memory
//!   traffic, and the substrate for the forward lane fold over payload
//!   bytes behind `fold.rs`. On every other architecture the CPU has no
//!   clmul arm here and every operation takes the tables path, the one the
//!   tests pin with `Backend::Tables`.
//!
//! The CPU picks, and nothing else does: every dispatched operation calls
//! the clmul entry, which checks the cached CPU features itself and runs
//! the portable path where the instruction is missing. A test that must
//! reach the portable path on hardware that has carry-less multiply pins
//! it with an argument ([`crate::fold_elements_with`],
//! [`crate::fold_byte_elements_with`], [`crate::Gf32::mul_fast`]); the
//! kernels cannot differ in value, only in speed.

/// A GF(2^32) kernel family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// Portable table-driven path (`tables.rs`): 16 byte-product lookups
    /// plus 4 reduction lookups per multiply, and the serial Horner fold.
    Tables,
    /// Hardware carry-less multiply with Barrett reduction (`clmul.rs`).
    Clmul,
}

impl Backend {
    /// The backend every dispatched operation ([`crate::Gf32::gf_mul`],
    /// [`crate::fold_elements`], …) runs on this CPU.
    ///
    /// ```
    /// use chunks_gf::Backend;
    /// let b = Backend::active();
    /// assert!(b.is_supported());
    /// ```
    #[inline]
    pub fn active() -> Backend {
        if crate::clmul::is_supported() {
            Backend::Clmul
        } else {
            Backend::Tables
        }
    }

    /// Whether this backend can run on the current CPU.
    ///
    /// [`Backend::Tables`] always can; [`Backend::Clmul`] requires
    /// `PCLMULQDQ` on x86_64; elsewhere the tables run.
    pub fn is_supported(self) -> bool {
        match self {
            Backend::Tables => true,
            Backend::Clmul => crate::clmul::is_supported(),
        }
    }

    /// Stable lowercase name, as the throughput ledger records it.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Tables => "tables",
            Backend::Clmul => "clmul",
        }
    }

    /// Every backend the current CPU can run, fallback first.
    pub fn supported() -> Vec<Backend> {
        let mut v = vec![Backend::Tables];
        if Backend::Clmul.is_supported() {
            v.push(Backend::Clmul);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_is_always_supported() {
        assert!(Backend::active().is_supported());
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Backend::Tables.name(), "tables");
        assert_eq!(Backend::Clmul.name(), "clmul");
    }

    #[test]
    fn supported_lists_tables_first() {
        let s = Backend::supported();
        assert_eq!(s[0], Backend::Tables);
        assert!(s.len() <= 2);
        assert_eq!(s.last(), Some(&Backend::active()));
    }
}
