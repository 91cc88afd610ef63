//! A sorted set of half-open `[start, end)` intervals over `u64`: the
//! received runs of one PDU, as [`crate::PduTracker`] keeps them.

use std::fmt;

/// Set of disjoint, sorted, coalesced intervals.
///
/// Insertion reports how much of the inserted range was already present —
/// the duplicate-data signal virtual reassembly needs (§3.3).
///
/// ```
/// use chunks_vreasm::IntervalSet;
/// let mut s = IntervalSet::new();
/// assert_eq!(s.insert(0, 4), 0);
/// assert_eq!(s.insert(8, 12), 0);
/// assert_eq!(s.insert(2, 10), 4); // 4 positions were duplicates
/// assert!(s.is_contiguous_to(12));
/// ```
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct IntervalSet {
    /// Disjoint, non-adjacent, sorted `[start, end)` ranges.
    ranges: Vec<(u64, u64)>,
}

impl IntervalSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `[start, end)`, coalescing with neighbours.
    ///
    /// Returns the number of positions of the inserted range that were
    /// already covered (0 means the data was entirely new).
    ///
    /// Written with indexed writes, `drain` and `insert` rather than
    /// `Vec::splice`, whose pure-insertion case collects the replacement
    /// through a temporary `Vec`: with capacity in hand (a cleared set
    /// keeps it), an insert touches no allocator.
    pub fn insert(&mut self, start: u64, end: u64) -> u64 {
        assert!(start <= end, "inverted interval");
        if start == end {
            return 0;
        }
        // At or past the last range — in-order arrival — the insert
        // extends or appends after the tail without a search.
        match self.ranges.last_mut() {
            Some(last) if last.1 == start => {
                last.1 = end;
                return 0;
            }
            Some(last) if last.1 > start => {}
            _ => {
                self.ranges.push((start, end));
                return 0;
            }
        }
        // Find all ranges that touch or overlap [start, end).
        let lo = self.ranges.partition_point(|&(_, e)| e < start);
        let mut hi = lo;
        let mut overlap = 0;
        let mut merged = (start, end);
        while hi < self.ranges.len() && self.ranges[hi].0 <= end {
            let (s, e) = self.ranges[hi];
            overlap += e.min(end).saturating_sub(s.max(start));
            merged = (merged.0.min(s), merged.1.max(e));
            hi += 1;
        }
        if lo == hi {
            self.ranges.insert(lo, merged);
        } else {
            self.ranges[lo] = merged;
            self.ranges.drain(lo + 1..hi);
        }
        overlap
    }

    /// Empties the set. The range table keeps its capacity, so a set
    /// re-armed for the next PDU inserts without allocating.
    pub fn clear(&mut self) {
        self.ranges.clear();
    }

    /// True when `[start, end)` is fully covered.
    pub fn contains(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return true;
        }
        let i = self.ranges.partition_point(|&(_, e)| e < end);
        self.ranges
            .get(i)
            .is_some_and(|&(s, e)| s <= start && end <= e)
    }

    /// How much of `[start, end)` is already covered.
    pub fn overlap(&self, start: u64, end: u64) -> u64 {
        // Nothing covered at or past `start`: no search.
        if self.last_end().is_none_or(|e| e <= start) {
            return 0;
        }
        let lo = self.ranges.partition_point(|&(_, e)| e <= start);
        let mut total = 0;
        for &(s, e) in &self.ranges[lo..] {
            if s >= end {
                break;
            }
            total += e.min(end).saturating_sub(s.max(start));
        }
        total
    }

    /// Total positions covered.
    pub fn covered(&self) -> u64 {
        self.ranges.iter().map(|&(s, e)| e - s).sum()
    }

    /// True when the set is exactly one range `[0, end)`.
    pub fn is_contiguous_to(&self, end: u64) -> bool {
        self.ranges == [(0, end)]
    }

    /// Number of disjoint ranges (the "gap count + 1" a VLSI reassembly unit
    /// would track).
    pub fn fragments(&self) -> usize {
        self.ranges.len()
    }

    /// The disjoint ranges, sorted.
    pub fn ranges(&self) -> &[(u64, u64)] {
        &self.ranges
    }

    /// One past the last covered position, if anything is covered.
    pub fn last_end(&self) -> Option<u64> {
        self.ranges.last().map(|&(_, e)| e)
    }

    /// Appends to `out` the sub-ranges of `[start, end)` *not* covered by
    /// the set — what remains of a partially-duplicate fragment after
    /// trimming. `out` is the caller's, and is not cleared: with spare
    /// capacity there, the duplicate path asks without allocating.
    pub fn uncovered_into(&self, start: u64, end: u64, out: &mut Vec<(u64, u64)>) {
        let mut cursor = start;
        let lo = self.ranges.partition_point(|&(_, e)| e <= start);
        for &(s, e) in &self.ranges[lo..] {
            if s >= end {
                break;
            }
            if s > cursor {
                out.push((cursor, s));
            }
            cursor = cursor.max(e);
        }
        if cursor < end {
            out.push((cursor, end));
        }
    }

    /// Missing sub-ranges of `[0, end)` — the retransmission request list.
    pub fn gaps(&self, end: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cursor = 0;
        for &(s, e) in &self.ranges {
            if s >= end {
                break;
            }
            if s > cursor {
                out.push((cursor, s.min(end)));
            }
            cursor = cursor.max(e);
        }
        if cursor < end {
            out.push((cursor, end));
        }
        out
    }
}

impl fmt::Display for IntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (s, e)) in self.ranges.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "[{s},{e})")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_disjoint_and_coalesce() {
        let mut s = IntervalSet::new();
        assert_eq!(s.insert(0, 5), 0);
        assert_eq!(s.insert(10, 15), 0);
        assert_eq!(s.fragments(), 2);
        // Bridge the gap: adjacent ranges coalesce.
        assert_eq!(s.insert(5, 10), 0);
        assert_eq!(s.fragments(), 1);
        assert!(s.is_contiguous_to(15));
    }

    #[test]
    fn insert_reports_overlap() {
        let mut s = IntervalSet::new();
        s.insert(0, 10);
        assert_eq!(s.insert(5, 15), 5);
        assert_eq!(s.insert(0, 15), 15);
        assert_eq!(s.covered(), 15);
    }

    #[test]
    fn empty_insert_is_noop() {
        let mut s = IntervalSet::new();
        assert_eq!(s.insert(7, 7), 0);
        assert_eq!(s.fragments(), 0);
        assert!(s.contains(3, 3), "empty range trivially contained");
    }

    #[test]
    fn contains_and_overlap() {
        let mut s = IntervalSet::new();
        s.insert(2, 6);
        s.insert(10, 12);
        assert!(s.contains(2, 6));
        assert!(s.contains(3, 5));
        assert!(!s.contains(2, 7));
        assert!(!s.contains(6, 10));
        assert_eq!(s.overlap(0, 20), 6);
        assert_eq!(s.overlap(5, 11), 2);
        assert_eq!(s.overlap(6, 10), 0);
    }

    #[test]
    fn gaps_lists_missing_ranges() {
        let mut s = IntervalSet::new();
        s.insert(2, 4);
        s.insert(8, 10);
        assert_eq!(s.gaps(12), vec![(0, 2), (4, 8), (10, 12)]);
        assert_eq!(s.gaps(4), vec![(0, 2)]);
        let full = {
            let mut t = IntervalSet::new();
            t.insert(0, 5);
            t
        };
        assert!(full.gaps(5).is_empty());
    }

    #[test]
    fn coalesce_across_multiple_ranges() {
        let mut s = IntervalSet::new();
        s.insert(0, 2);
        s.insert(4, 6);
        s.insert(8, 10);
        let ov = s.insert(1, 9);
        assert_eq!(ov, 1 + 2 + 1); // overlaps [1,2), [4,6), [8,9)
        assert_eq!(s.ranges(), &[(0, 10)]);
    }

    #[test]
    fn display_formats_ranges() {
        let mut s = IntervalSet::new();
        s.insert(1, 3);
        s.insert(5, 6);
        assert_eq!(s.to_string(), "{[1,3), [5,6)}");
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_interval_panics() {
        IntervalSet::new().insert(5, 4);
    }
}
