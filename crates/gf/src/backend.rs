//! Runtime selection of the GF(2^32) multiplication backend.
//!
//! Three implementations of the same field exist in this crate, all
//! bit-identical (pinned by `tests/field_axioms.rs`):
//!
//! * **bit-serial reference** (`mul_ref` / `alpha_pow_ref`) — the seed
//!   oracle; never selected, only compared against;
//! * **[`Backend::Tables`]** — the portable 8-bit-window table path of
//!   `tables.rs`; works everywhere, needs 136 KiB of L1/L2 resident
//!   lookup tables;
//! * **[`Backend::Clmul`]** — hardware carry-less multiply
//!   (`PCLMULQDQ` on x86_64, `PMULL` on aarch64) with Barrett reduction;
//!   no tables, no memory traffic, and the substrate for the forward lane
//!   fold over payload bytes behind `fold.rs`. The aarch64 `PMULL` arm is
//!   unverified: every build and gate of this workspace has run on x86_64,
//!   so that arm has never been compiled.
//!
//! The active backend is decided **once**, on first use, behind a
//! [`OnceLock`]: the `CHUNKS_GF_BACKEND` environment variable wins if set
//! (`tables` forces the portable fallback, `clmul` asks for hardware
//! carry-less multiply, `auto` or unset detects), then CPU feature
//! detection picks `Clmul` where the instruction exists and `Tables`
//! otherwise. Asking for `clmul` on a CPU without it falls back to
//! `Tables` rather than failing: the backends are interchangeable by
//! construction.
//!
//! Equivalence tests that must run *both* backends in one process use
//! [`Backend::force`], which overrides the detected choice. Because every
//! backend returns identical bits, flipping the override at runtime is
//! safe anywhere.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// A GF(2^32) multiplication backend.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Backend {
    /// Portable table-driven path (`tables.rs`): 16 byte-product lookups
    /// plus 4 reduction lookups per multiply.
    Tables,
    /// Hardware carry-less multiply with Barrett reduction (`clmul.rs`).
    Clmul,
}

/// Forced override: 0 = none, 1 = Tables, 2 = Clmul.
static FORCED: AtomicU8 = AtomicU8::new(0);

/// The once-detected default, honoring `CHUNKS_GF_BACKEND`.
static DETECTED: OnceLock<Backend> = OnceLock::new();

fn detect() -> Backend {
    match std::env::var("CHUNKS_GF_BACKEND").as_deref() {
        Ok("tables") => Backend::Tables,
        Ok("clmul") if Backend::Clmul.is_supported() => Backend::Clmul,
        Ok("clmul") => Backend::Tables, // asked for, not available: fall back
        _ if Backend::Clmul.is_supported() => Backend::Clmul,
        _ => Backend::Tables,
    }
}

impl Backend {
    /// The backend every dispatched operation ([`crate::Gf32::gf_mul`],
    /// [`crate::fold_symbols`], …) uses right now.
    ///
    /// ```
    /// use chunks_gf::Backend;
    /// let b = Backend::active();
    /// assert!(b.is_supported());
    /// ```
    #[inline]
    pub fn active() -> Backend {
        match FORCED.load(Ordering::Relaxed) {
            1 => Backend::Tables,
            2 => Backend::Clmul,
            _ => *DETECTED.get_or_init(detect),
        }
    }

    /// Overrides (or, with `None`, restores) the detected backend.
    ///
    /// Intended for backend-equivalence tests that need to exercise both
    /// paths inside one process. All backends produce bit-identical
    /// results, so concurrent readers only ever observe a change in
    /// speed, never in value. Forcing [`Backend::Clmul`] on a
    /// CPU without carry-less multiply is ignored.
    pub fn force(backend: Option<Backend>) {
        let code = match backend {
            Some(Backend::Tables) => 1,
            Some(Backend::Clmul) if Backend::Clmul.is_supported() => 2,
            Some(Backend::Clmul) => 1,
            None => 0,
        };
        FORCED.store(code, Ordering::Relaxed);
    }

    /// Whether this backend can run on the current CPU.
    ///
    /// [`Backend::Tables`] always can; [`Backend::Clmul`] requires
    /// `PCLMULQDQ` (x86_64) or `PMULL` (aarch64).
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
    fn force_round_trips() {
        let before = Backend::active();
        Backend::force(Some(Backend::Tables));
        assert_eq!(Backend::active(), Backend::Tables);
        Backend::force(None);
        assert_eq!(Backend::active(), before);
    }

    #[test]
    fn supported_lists_tables_first() {
        let s = Backend::supported();
        assert_eq!(s[0], Backend::Tables);
        assert!(s.len() <= 2);
    }
}
