//! Slab/arena-backed interval storage for the receive hot path.
//!
//! [`crate::IntervalSet`] keeps its ranges in a sorted `Vec` and splices on
//! every insert — correct, but a fresh set allocates on first insert and a
//! `Vec::splice` insertion allocates a temporary, so a receiver that opens a
//! tracker per TPDU pays allocator traffic per PDU. [`ArenaIntervalSet`]
//! stores interval nodes in a slab owned by the set, threaded as a sorted
//! singly-linked list with an intrusive free list. Nodes freed by
//! coalescing, subtraction, or [`ArenaIntervalSet::clear`] are recycled, so
//! a cleared set reused for the next TPDU reaches steady state with **zero**
//! allocations: the slab's high-water mark is the worst observed
//! fragmentation, not the traffic volume.
//!
//! Semantics are bit-for-bit those of `IntervalSet` (which serves as the
//! property-test oracle in `tests/chunk_closure_props.rs`): half-open
//! `[start, end)` ranges, adjacent ranges coalesce, `insert` reports the
//! already-covered overlap and `subtract` the removed coverage.

use std::fmt;

const NIL: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
struct Node {
    start: u64,
    end: u64,
    next: u32,
}

/// Set of disjoint, sorted, coalesced `[start, end)` intervals backed by a
/// recycling node slab. See the module docs for why this exists; see
/// [`crate::IntervalSet`] for the reference semantics.
#[derive(Clone, Debug)]
pub struct ArenaIntervalSet {
    nodes: Vec<Node>,
    head: u32,
    free: u32,
    len: usize,
    covered: u64,
}

impl Default for ArenaIntervalSet {
    fn default() -> Self {
        ArenaIntervalSet {
            nodes: Vec::new(),
            head: NIL,
            free: NIL,
            len: 0,
            covered: 0,
        }
    }
}

impl ArenaIntervalSet {
    /// Creates an empty set with no slab capacity.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes the slab for at least `nodes` interval nodes.
    pub fn reserve(&mut self, nodes: usize) {
        let have = self.nodes.capacity() - self.nodes.len() + self.free_count();
        if nodes > have {
            self.nodes.reserve(nodes - have);
        }
    }

    fn free_count(&self) -> usize {
        let mut n = 0;
        let mut i = self.free;
        while i != NIL {
            n += 1;
            i = self.nodes[i as usize].next;
        }
        n
    }

    fn alloc(&mut self, start: u64, end: u64, next: u32) -> u32 {
        if self.free != NIL {
            let i = self.free;
            self.free = self.nodes[i as usize].next;
            self.nodes[i as usize] = Node { start, end, next };
            i
        } else {
            let i = self.nodes.len() as u32;
            self.nodes.push(Node { start, end, next });
            i
        }
    }

    fn release(&mut self, i: u32) {
        self.nodes[i as usize].next = self.free;
        self.free = i;
    }

    /// Inserts `[start, end)`, coalescing with overlapping or adjacent
    /// ranges. Returns the number of positions already covered (0 means the
    /// data was entirely new). Allocation-free whenever a recycled node is
    /// available or no new node is needed.
    pub fn insert(&mut self, start: u64, end: u64) -> u64 {
        assert!(start <= end, "inverted interval");
        if start == end {
            return 0;
        }
        // Skip nodes entirely before the inserted range (end < start — a
        // node touching at `start` coalesces).
        let mut prev = NIL;
        let mut cur = self.head;
        while cur != NIL && self.nodes[cur as usize].end < start {
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        // Merge every node that overlaps or touches `[start, end)`.
        let mut overlap = 0u64;
        let mut merged_len = 0u64;
        let mut new_start = start;
        let mut new_end = end;
        while cur != NIL && self.nodes[cur as usize].start <= end {
            let Node {
                start: s,
                end: e,
                next,
            } = self.nodes[cur as usize];
            overlap += e.min(end).saturating_sub(s.max(start));
            merged_len += e - s;
            new_start = new_start.min(s);
            new_end = new_end.max(e);
            self.release(cur);
            self.len -= 1;
            cur = next;
        }
        let node = self.alloc(new_start, new_end, cur);
        if prev == NIL {
            self.head = node;
        } else {
            self.nodes[prev as usize].next = node;
        }
        self.len += 1;
        self.covered += (new_end - new_start) - merged_len;
        overlap
    }

    /// Removes `[start, end)`, splitting ranges that straddle either
    /// boundary. Returns the number of covered positions removed.
    pub fn subtract(&mut self, start: u64, end: u64) -> u64 {
        assert!(start <= end, "inverted interval");
        if start == end {
            return 0;
        }
        let mut prev = NIL;
        let mut cur = self.head;
        while cur != NIL && self.nodes[cur as usize].end <= start {
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        let mut removed = 0u64;
        while cur != NIL && self.nodes[cur as usize].start < end {
            let Node {
                start: s,
                end: e,
                next,
            } = self.nodes[cur as usize];
            removed += e.min(end) - s.max(start);
            if s < start && e > end {
                // Straddles both boundaries: trim in place, split off tail.
                self.nodes[cur as usize].end = start;
                let tail = self.alloc(end, e, next);
                self.nodes[cur as usize].next = tail;
                self.len += 1;
                break;
            } else if s < start {
                // Keep the head piece.
                self.nodes[cur as usize].end = start;
                prev = cur;
                cur = next;
            } else if e > end {
                // Keep the tail piece; sorted order means we are done.
                self.nodes[cur as usize].start = end;
                break;
            } else {
                // Fully covered: unlink and recycle.
                if prev == NIL {
                    self.head = next;
                } else {
                    self.nodes[prev as usize].next = next;
                }
                self.release(cur);
                self.len -= 1;
                cur = next;
            }
        }
        self.covered -= removed;
        removed
    }

    /// True when `[start, end)` is fully covered.
    pub fn contains(&self, start: u64, end: u64) -> bool {
        if start >= end {
            return true;
        }
        let mut cur = self.head;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            if n.start <= start {
                if end <= n.end {
                    return true;
                }
                if n.end > start {
                    return false;
                }
            } else {
                return false;
            }
            cur = n.next;
        }
        false
    }

    /// How much of `[start, end)` is already covered. Allocation-free.
    pub fn overlap(&self, start: u64, end: u64) -> u64 {
        let mut total = 0;
        let mut cur = self.head;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            if n.start >= end {
                break;
            }
            total += n.end.min(end).saturating_sub(n.start.max(start));
            cur = n.next;
        }
        total
    }

    /// Total positions covered (maintained incrementally — O(1)).
    pub fn covered(&self) -> u64 {
        self.covered
    }

    /// True when the set is exactly one range `[0, end)`.
    pub fn is_contiguous_to(&self, end: u64) -> bool {
        if self.head == NIL {
            return false;
        }
        let n = &self.nodes[self.head as usize];
        n.start == 0 && n.end == end && n.next == NIL
    }

    /// Number of disjoint ranges.
    pub fn fragments(&self) -> usize {
        self.len
    }

    /// One past the last covered position, if anything is covered.
    /// Allocation-free replacement for `ranges().last()`.
    pub fn last_end(&self) -> Option<u64> {
        let mut cur = self.head;
        let mut last = None;
        while cur != NIL {
            let n = &self.nodes[cur as usize];
            last = Some(n.end);
            cur = n.next;
        }
        last
    }

    /// Iterates the disjoint ranges in sorted order, allocation-free.
    pub fn iter(&self) -> RangeIter<'_> {
        RangeIter {
            set: self,
            cur: self.head,
        }
    }

    /// Sub-ranges of `[start, end)` *not* covered by the set.
    pub fn uncovered(&self, start: u64, end: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        self.uncovered_into(start, end, &mut out);
        out
    }

    /// [`Self::uncovered`], appended to a caller-owned buffer: with spare
    /// capacity there, the duplicate path asks without allocating.
    pub fn uncovered_into(&self, start: u64, end: u64, out: &mut Vec<(u64, u64)>) {
        let mut cursor = start;
        for (s, e) in self.iter() {
            if e <= start {
                continue;
            }
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
        for (s, e) in self.iter() {
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

    /// Empties the set, recycling every node onto the free list. The slab
    /// keeps its capacity: a cleared set reused for the next TPDU inserts
    /// without touching the allocator.
    pub fn clear(&mut self) {
        let mut cur = self.head;
        while cur != NIL {
            let next = self.nodes[cur as usize].next;
            self.release(cur);
            cur = next;
        }
        self.head = NIL;
        self.len = 0;
        self.covered = 0;
    }
}

/// Iterator over the sorted ranges of an [`ArenaIntervalSet`].
#[derive(Debug)]
pub struct RangeIter<'a> {
    set: &'a ArenaIntervalSet,
    cur: u32,
}

impl Iterator for RangeIter<'_> {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if self.cur == NIL {
            return None;
        }
        let n = &self.set.nodes[self.cur as usize];
        self.cur = n.next;
        Some((n.start, n.end))
    }
}

impl PartialEq for ArenaIntervalSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().eq(other.iter())
    }
}

impl Eq for ArenaIntervalSet {}

impl fmt::Display for ArenaIntervalSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (s, e)) in self.iter().enumerate() {
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
    use crate::interval::IntervalSet;

    fn ranges(s: &ArenaIntervalSet) -> Vec<(u64, u64)> {
        s.iter().collect()
    }

    #[test]
    fn insert_disjoint_and_coalesce() {
        let mut s = ArenaIntervalSet::new();
        assert_eq!(s.insert(0, 5), 0);
        assert_eq!(s.insert(10, 15), 0);
        assert_eq!(s.fragments(), 2);
        assert_eq!(s.insert(5, 10), 0);
        assert_eq!(s.fragments(), 1);
        assert!(s.is_contiguous_to(15));
        assert_eq!(s.covered(), 15);
    }

    #[test]
    fn insert_reports_overlap() {
        let mut s = ArenaIntervalSet::new();
        s.insert(0, 10);
        assert_eq!(s.insert(5, 15), 5);
        assert_eq!(s.insert(0, 15), 15);
        assert_eq!(s.covered(), 15);
    }

    #[test]
    fn subtract_splits_and_recycles() {
        let mut s = ArenaIntervalSet::new();
        s.insert(0, 10);
        assert_eq!(s.subtract(3, 6), 3);
        assert_eq!(ranges(&s), vec![(0, 3), (6, 10)]);
        assert_eq!(s.covered(), 7);
        assert_eq!(s.subtract(3, 6), 0);
        assert_eq!(s.subtract(20, 30), 0);
        let slab_before = s.nodes.len();
        s.clear();
        assert_eq!(s.fragments(), 0);
        assert_eq!(s.covered(), 0);
        // Reuse after clear recycles nodes — the slab does not grow.
        s.insert(0, 4);
        s.insert(8, 12);
        assert_eq!(s.nodes.len(), slab_before, "cleared nodes are recycled");
    }

    #[test]
    fn matches_vec_oracle_on_a_fixed_walk() {
        let mut arena = ArenaIntervalSet::new();
        let mut oracle = IntervalSet::new();
        let ops: &[(bool, u64, u64)] = &[
            (true, 10, 20),
            (true, 0, 5),
            (true, 4, 11),
            (false, 8, 15),
            (true, 30, 40),
            (false, 0, 100),
            (true, 7, 9),
            (true, 9, 10),
            (false, 8, 9),
        ];
        for &(ins, a, b) in ops {
            if ins {
                assert_eq!(arena.insert(a, b), oracle.insert(a, b), "insert [{a},{b})");
            } else {
                assert_eq!(
                    arena.subtract(a, b),
                    oracle.subtract(a, b),
                    "subtract [{a},{b})"
                );
            }
            assert_eq!(ranges(&arena), oracle.ranges().to_vec());
            assert_eq!(arena.covered(), oracle.covered());
            assert_eq!(arena.fragments(), oracle.fragments());
        }
    }

    #[test]
    fn queries_match_oracle() {
        let mut arena = ArenaIntervalSet::new();
        let mut oracle = IntervalSet::new();
        for (a, b) in [(2, 6), (10, 12), (20, 25)] {
            arena.insert(a, b);
            oracle.insert(a, b);
        }
        for lo in 0..28u64 {
            for hi in lo..28u64 {
                assert_eq!(arena.contains(lo, hi), oracle.contains(lo, hi));
                assert_eq!(arena.overlap(lo, hi), oracle.overlap(lo, hi));
                assert_eq!(arena.uncovered(lo, hi), oracle.uncovered(lo, hi));
            }
            assert_eq!(arena.gaps(lo), oracle.gaps(lo));
        }
        assert_eq!(arena.last_end(), Some(25));
        assert_eq!(arena.to_string(), oracle.to_string());
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_interval_panics() {
        ArenaIntervalSet::new().insert(5, 4);
    }
}
