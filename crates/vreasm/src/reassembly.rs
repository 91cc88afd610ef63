//! Policy-aware reassembly: tagged intervals with explicit overlap policy.
//!
//! The paper's virtual reassembly assumes fragments are disjoint; real
//! attackers exploit exactly that assumption. OS and NIDS stacks disagree on
//! which copy of an overlapping fragment wins, and the ambiguity is a
//! classic evasion channel (Aubard et al., arXiv 2504.21618). [`Reassembly`]
//! makes the choice explicit: every claimed range carries an owner *tag*,
//! every claim reports the exact conflicting sub-ranges and their owners,
//! and an [`OverlapPolicy`] decides — deterministically and observably —
//! what happens when the bytes genuinely differ.
//!
//! The type deliberately tracks *positions, not bytes*: chunk processing
//! stays one-touch (§3.2), so the byte comparison that distinguishes a
//! benign duplicate from a conflicting rewrite is done by the caller, who
//! already owns the data. [`Reassembly::resolve`] then maps (policy,
//! bytes-differ) to a [`Resolution`]. Whatever the policy keeps, WSC-2
//! verification remains the integrity authority: a resolution can pick
//! which bytes to *hold*, but only the end-to-end invariant can pass them.

use std::fmt;

/// What to do when an arriving fragment overlaps already-claimed positions
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

/// One conflicting sub-range of a claim: `[start, end)` is already owned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Conflict {
    /// First overlapped position.
    pub start: u64,
    /// One past the last overlapped position.
    pub end: u64,
    /// Tag of the current owner of the overlapped positions (for the
    /// transport: the owning TPDU group's connection-space start).
    pub tag: u64,
}

impl Conflict {
    /// Positions in conflict.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when the conflict spans no positions.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }
}

/// The outcome of probing or claiming a range.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Claim {
    /// Sub-ranges of the claim that were previously unclaimed (now owned by
    /// the claimant if the claim mutated the set).
    pub fresh: Vec<(u64, u64)>,
    /// Sub-ranges already owned, with their current owners.
    pub conflicts: Vec<Conflict>,
}

impl Claim {
    /// True when nothing in the claimed range was previously owned.
    pub fn is_clean(&self) -> bool {
        self.conflicts.is_empty()
    }

    /// Total conflicting positions.
    pub fn conflict_len(&self) -> u64 {
        self.conflicts.iter().map(Conflict::len).sum()
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

/// Tagged interval claims with an explicit overlap policy.
///
/// The per-position state [`crate::IntervalSet`] tracks implicitly ("claimed or
/// not") is extended with an owner tag per range, so a conflict can name
/// *who* owns the contested positions — the byte-precise diagnostic the
/// receive path emits before any policy decision.
///
/// ```
/// use chunks_vreasm::{OverlapPolicy, Reassembly, Resolution};
/// let mut r = Reassembly::new(OverlapPolicy::FirstWins);
/// assert!(r.claim(0, 8, 100).is_clean());
/// let c = r.claim(6, 12, 200); // [6, 8) already owned by tag 100
/// assert_eq!(c.fresh, vec![(8, 12)]);
/// assert_eq!(c.conflicts[0].tag, 100);
/// assert_eq!(r.resolve(true), Resolution::KeepHeld);
/// assert_eq!(r.resolve(false), Resolution::Duplicate);
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Reassembly {
    /// Disjoint, sorted `(start, end, tag)` ranges; adjacent ranges coalesce
    /// only when their tags match.
    ranges: Vec<(u64, u64, u64)>,
    policy: OverlapPolicy,
}

impl Reassembly {
    /// Creates an empty set under `policy`.
    pub fn new(policy: OverlapPolicy) -> Self {
        Reassembly {
            ranges: Vec::new(),
            policy,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> OverlapPolicy {
        self.policy
    }

    /// Maps the policy and a byte-comparison verdict to what the caller
    /// should do with the conflicting region. Delegates to
    /// [`OverlapPolicy::resolve`].
    pub fn resolve(&self, bytes_differ: bool) -> Resolution {
        self.policy.resolve(bytes_differ)
    }

    /// Reports what claiming `[start, end)` would find, without mutating
    /// the set — the probe a [`OverlapPolicy::Reject`] caller makes before
    /// deciding to fail instead of claim.
    pub fn probe(&self, start: u64, end: u64) -> Claim {
        assert!(start <= end, "inverted interval");
        let mut out = Claim::default();
        let mut cursor = start;
        let lo = self.ranges.partition_point(|&(_, e, _)| e <= start);
        for &(s, e, tag) in &self.ranges[lo..] {
            if s >= end {
                break;
            }
            if s > cursor {
                out.fresh.push((cursor, s));
            }
            out.conflicts.push(Conflict {
                start: s.max(start),
                end: e.min(end),
                tag,
            });
            cursor = cursor.max(e);
        }
        if cursor < end {
            out.fresh.push((cursor, end));
        }
        out
    }

    /// Claims `[start, end)` for `tag`: previously unclaimed sub-ranges are
    /// now owned by `tag`; already-owned sub-ranges keep their owner and are
    /// reported as conflicts. Returns the same [`Claim`] as [`Self::probe`].
    pub fn claim(&mut self, start: u64, end: u64, tag: u64) -> Claim {
        let out = self.probe(start, end);
        for &(s, e) in &out.fresh {
            self.insert_owned(s, e, tag);
        }
        out
    }

    /// Claims `[start, end)` for `tag` when the caller has already verified
    /// (via [`Self::overlap`] returning 0) that nothing in the span is
    /// owned. This is the hot-path shortcut: unlike [`Self::claim`] it
    /// builds no [`Claim`] and allocates nothing beyond amortised `Vec`
    /// growth (see [`Self::reserve`]).
    pub fn claim_uncontested(&mut self, start: u64, end: u64, tag: u64) {
        debug_assert_eq!(
            self.overlap(start, end),
            0,
            "claim_uncontested requires a clean span"
        );
        self.insert_owned(start, end, tag);
    }

    /// Pre-sizes the range table for `fragments` additional disjoint ranges,
    /// so a steady-state claim stream stays allocation-free.
    pub fn reserve(&mut self, fragments: usize) {
        self.ranges.reserve(fragments);
    }

    /// Inserts a range known to be disjoint from everything present.
    ///
    /// Written with `insert`/indexed writes rather than `Vec::splice`, as
    /// [`crate::IntervalSet::insert`] is: splice's pure-insertion case
    /// collects the replacement through a temporary `Vec`, which would put
    /// one heap allocation on every claim.
    fn insert_owned(&mut self, start: u64, end: u64, tag: u64) {
        if start == end {
            return;
        }
        // At or past the last range — in-order arrival — the claim appends
        // or extends the tail without a search.
        if self.ranges.last().is_none_or(|&(_, e, _)| e <= start) {
            match self.ranges.last_mut() {
                Some(last) if last.1 == start && last.2 == tag => last.1 = end,
                _ => self.ranges.push((start, end, tag)),
            }
            return;
        }
        let at = self.ranges.partition_point(|&(s, _, _)| s < start);
        // Coalesce with same-tag neighbours that touch exactly.
        let mut new = (start, end, tag);
        let mut merge_prev = false;
        let mut merge_next = false;
        if at > 0 {
            let (ps, pe, pt) = self.ranges[at - 1];
            if pe == start && pt == tag {
                new.0 = ps;
                merge_prev = true;
            }
        }
        if at < self.ranges.len() {
            let (ns, ne, nt) = self.ranges[at];
            if ns == end && nt == tag {
                new.1 = ne;
                merge_next = true;
            }
        }
        match (merge_prev, merge_next) {
            (false, false) => self.ranges.insert(at, new),
            (true, false) => self.ranges[at - 1] = new,
            (false, true) => self.ranges[at] = new,
            (true, true) => {
                self.ranges[at - 1] = new;
                self.ranges.remove(at);
            }
        }
    }

    /// Releases every range owned by `tag` — what a receiver calls when the
    /// owning PDU group fails or is evicted. Returns positions freed.
    pub fn release(&mut self, tag: u64) -> u64 {
        let mut freed = 0;
        self.ranges.retain(|&(s, e, t)| {
            if t == tag {
                freed += e - s;
                false
            } else {
                true
            }
        });
        freed
    }

    /// Releases every range, every owner — the wholesale form of
    /// [`Self::release`] a receiver shell calls when it is quiesced for
    /// reuse by a different connection. Keeps the interval table's
    /// capacity, so a pooled shell re-arms without touching the allocator.
    pub fn clear(&mut self) {
        self.ranges.clear();
    }

    /// How much of `[start, end)` is claimed (by anyone).
    pub fn overlap(&self, start: u64, end: u64) -> u64 {
        // Nothing claimed at or past `start`: no search.
        if self.ranges.last().is_none_or(|&(_, e, _)| e <= start) {
            return 0;
        }
        let lo = self.ranges.partition_point(|&(_, e, _)| e <= start);
        let mut total = 0;
        for &(s, e, _) in &self.ranges[lo..] {
            if s >= end {
                break;
            }
            total += e.min(end).saturating_sub(s.max(start));
        }
        total
    }

    /// Total claimed positions.
    pub fn covered(&self) -> u64 {
        self.ranges.iter().map(|&(s, e, _)| e - s).sum()
    }

    /// The last claimed range `(start, end, tag)`: where an in-order claim
    /// lands, extending it or appending after it.
    pub fn tail(&self) -> Option<&(u64, u64, u64)> {
        self.ranges.last()
    }

    /// Number of disjoint tagged ranges held — the interval-table occupancy
    /// a resource budget caps.
    pub fn fragments(&self) -> usize {
        self.ranges.len()
    }

    /// The owner of position `pos`, if claimed.
    pub fn owner_of(&self, pos: u64) -> Option<u64> {
        let i = self.ranges.partition_point(|&(_, e, _)| e <= pos);
        self.ranges
            .get(i)
            .and_then(|&(s, _, t)| (s <= pos).then_some(t))
    }
}

impl fmt::Display for Reassembly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (s, e, t)) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "[{s},{e})#{t}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_claims_coalesce_per_tag() {
        let mut r = Reassembly::new(OverlapPolicy::Reject);
        assert!(r.claim(0, 4, 1).is_clean());
        assert!(r.claim(4, 8, 1).is_clean());
        assert_eq!(r.fragments(), 1, "same-tag adjacency coalesces");
        assert!(r.claim(8, 12, 2).is_clean());
        assert_eq!(r.fragments(), 2, "different tags never coalesce");
        assert_eq!(r.covered(), 12);
    }

    #[test]
    fn conflicts_name_the_owner_and_exact_range() {
        let mut r = Reassembly::new(OverlapPolicy::Reject);
        r.claim(10, 20, 7);
        r.claim(30, 40, 9);
        let c = r.probe(15, 35);
        assert_eq!(c.fresh, vec![(20, 30)]);
        assert_eq!(
            c.conflicts,
            vec![
                Conflict {
                    start: 15,
                    end: 20,
                    tag: 7
                },
                Conflict {
                    start: 30,
                    end: 35,
                    tag: 9
                },
            ]
        );
        assert_eq!(c.conflict_len(), 10);
        // Probe did not mutate.
        assert_eq!(r.covered(), 20);
    }

    #[test]
    fn claim_takes_only_the_fresh_parts() {
        let mut r = Reassembly::new(OverlapPolicy::FirstWins);
        r.claim(0, 8, 1);
        let c = r.claim(4, 12, 2);
        assert_eq!(c.fresh, vec![(8, 12)]);
        assert_eq!(c.conflicts.len(), 1);
        assert_eq!(r.owner_of(6), Some(1), "held positions keep their owner");
        assert_eq!(r.owner_of(9), Some(2));
        assert_eq!(r.owner_of(12), None);
    }

    #[test]
    fn resolution_matrix() {
        for p in OverlapPolicy::ALL {
            assert_eq!(Reassembly::new(p).resolve(false), Resolution::Duplicate);
        }
        assert_eq!(
            Reassembly::new(OverlapPolicy::Reject).resolve(true),
            Resolution::Fail
        );
        assert_eq!(
            Reassembly::new(OverlapPolicy::FirstWins).resolve(true),
            Resolution::KeepHeld
        );
        assert_eq!(
            Reassembly::new(OverlapPolicy::LastWins).resolve(true),
            Resolution::Overwrite
        );
    }

    #[test]
    fn release_frees_exactly_one_tag() {
        let mut r = Reassembly::new(OverlapPolicy::LastWins);
        r.claim(0, 10, 1);
        r.claim(20, 30, 2);
        r.claim(40, 50, 1);
        assert_eq!(r.release(1), 20);
        assert_eq!(r.covered(), 10);
        assert_eq!(r.owner_of(25), Some(2));
        assert_eq!(r.release(1), 0, "second release is a no-op");
    }

    #[test]
    fn coverage_matches_an_interval_set() {
        let mut r = Reassembly::new(OverlapPolicy::Reject);
        r.claim(0, 4, 1);
        r.claim(4, 8, 2);
        r.claim(12, 16, 1);
        let mut set = crate::IntervalSet::new();
        for &(s, e, _) in &r.ranges {
            set.insert(s, e);
        }
        assert_eq!(set.ranges(), &[(0, 8), (12, 16)]);
        assert_eq!(r.overlap(2, 14), set.overlap(2, 14));
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

    #[test]
    fn claim_uncontested_matches_claim_on_clean_spans() {
        let mut a = Reassembly::new(OverlapPolicy::FirstWins);
        let mut b = Reassembly::new(OverlapPolicy::FirstWins);
        for (s, e, t) in [(0, 4, 1), (4, 8, 1), (20, 30, 2), (8, 20, 3)] {
            assert!(a.claim(s, e, t).is_clean());
            assert_eq!(b.overlap(s, e), 0);
            b.claim_uncontested(s, e, t);
            assert_eq!(a, b);
        }
        assert_eq!(a.fragments(), 3);
    }

    #[test]
    fn empty_and_inverted_edges() {
        let mut r = Reassembly::new(OverlapPolicy::Reject);
        assert!(r.claim(5, 5, 1).is_clean());
        assert_eq!(r.fragments(), 0);
        let c = Claim::default();
        assert!(c.is_clean());
        assert!(Conflict {
            start: 2,
            end: 2,
            tag: 0
        }
        .is_empty());
    }
}
