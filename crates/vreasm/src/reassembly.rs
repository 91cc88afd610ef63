//! The overlap policy: what a receiver does when an arriving fragment
//! overlaps positions its PDU already holds and the bytes differ.
//!
//! The paper's virtual reassembly assumes fragments are disjoint; real
//! attackers exploit exactly that assumption. OS and NIDS stacks disagree on
//! which copy of an overlapping fragment wins, and the ambiguity is a
//! classic evasion channel (Aubard et al., arXiv 2504.21618).
//! [`OverlapPolicy`] makes the choice explicit, deterministic and
//! observable.
//!
//! The policy judges *positions, not bytes*: chunk processing stays
//! one-touch (§3.2), so the byte comparison that distinguishes a benign
//! duplicate from a conflicting rewrite is done by the caller, who already
//! owns the data. [`OverlapPolicy::resolve`] then maps (policy,
//! bytes-differ) to a [`Resolution`]. Whatever the policy keeps, WSC-2
//! verification remains the integrity authority: a resolution can pick
//! which bytes to *hold*, but only the end-to-end invariant can pass them.

use std::fmt;

/// What to do when an arriving fragment overlaps already-held positions
/// whose bytes differ from the copy already held.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum OverlapPolicy {
    /// Fail the PDU outright: a conflicting overlap is treated as an attack
    /// (or unrecoverable corruption) and surfaces as a typed error.
    Reject,
    /// Keep the bytes that arrived first; the conflicting copy is dropped.
    /// This is the classic BSD behaviour and the crate's default — it is
    /// what silent duplicate-trimming already implemented, now with the
    /// conflict made visible.
    #[default]
    FirstWins,
    /// Overwrite with the bytes that arrived last (the Linux/teardrop-era
    /// behaviour). The caller must patch its incremental invariant with the
    /// XOR of old and new bytes so the final WSC-2 comparison still judges
    /// the bytes actually held.
    LastWins,
}

impl OverlapPolicy {
    /// All policies, in sweep order.
    pub const ALL: [OverlapPolicy; 3] = [
        OverlapPolicy::Reject,
        OverlapPolicy::FirstWins,
        OverlapPolicy::LastWins,
    ];

    /// Stable lowercase name (used in events, bench rows, and docs).
    pub fn as_str(&self) -> &'static str {
        match self {
            OverlapPolicy::Reject => "reject",
            OverlapPolicy::FirstWins => "first-wins",
            OverlapPolicy::LastWins => "last-wins",
        }
    }

    /// Parses the [`Self::as_str`] form back.
    pub fn parse(s: &str) -> Option<OverlapPolicy> {
        OverlapPolicy::ALL.into_iter().find(|p| p.as_str() == s)
    }

    /// Maps the policy and a byte-comparison verdict to what the caller
    /// should do with the conflicting region.
    pub fn resolve(&self, bytes_differ: bool) -> Resolution {
        if !bytes_differ {
            return Resolution::Duplicate;
        }
        match self {
            OverlapPolicy::Reject => Resolution::Fail,
            OverlapPolicy::FirstWins => Resolution::KeepHeld,
            OverlapPolicy::LastWins => Resolution::Overwrite,
        }
    }
}

impl fmt::Display for OverlapPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// What the caller should do with a conflicting overlap, given the policy
/// and whether the overlapping bytes actually differ.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Resolution {
    /// Bytes identical: a benign duplicate under every policy. Trim and
    /// count it; nothing to diagnose.
    Duplicate,
    /// Fail the PDU with a typed error ([`OverlapPolicy::Reject`]).
    Fail,
    /// Keep the held bytes, drop the arriving copy
    /// ([`OverlapPolicy::FirstWins`]).
    KeepHeld,
    /// Overwrite the held bytes with the arriving copy and patch the
    /// incremental invariant ([`OverlapPolicy::LastWins`]).
    Overwrite,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_matrix() {
        for p in OverlapPolicy::ALL {
            assert_eq!(p.resolve(false), Resolution::Duplicate);
        }
        assert_eq!(OverlapPolicy::Reject.resolve(true), Resolution::Fail);
        assert_eq!(OverlapPolicy::FirstWins.resolve(true), Resolution::KeepHeld);
        assert_eq!(OverlapPolicy::LastWins.resolve(true), Resolution::Overwrite);
    }

    #[test]
    fn policy_names_round_trip() {
        for p in OverlapPolicy::ALL {
            assert_eq!(OverlapPolicy::parse(p.as_str()), Some(p));
            assert_eq!(p.to_string(), p.as_str());
        }
        assert_eq!(OverlapPolicy::parse("bogus"), None);
        assert_eq!(OverlapPolicy::default(), OverlapPolicy::FirstWins);
    }
}
