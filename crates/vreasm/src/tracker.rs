//! Per-PDU virtual reassembly.

use crate::arena::ArenaIntervalSet;

/// Outcome of offering a fragment to a [`PduTracker`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TrackEvent {
    /// Entirely new data was recorded; the caller should process it (e.g.
    /// absorb it into the incremental checksum and place it in application
    /// memory).
    Accepted,
    /// The fragment (partly) duplicates already-received data and must be
    /// rejected *before* processing: re-absorbing would corrupt the
    /// incremental checksum, and a corrupted duplicate could overwrite good
    /// data (§3.3).
    Duplicate,
    /// The fragment disagrees with previously seen framing (two different
    /// stop positions, or data past the stop): a reassembly error (Table 1).
    Inconsistent,
}

/// Virtual reassembly state for a single PDU.
///
/// Tracks which element sequence numbers `[sn, sn+len)` have been received
/// and where the PDU ends (learned from the fragment whose stop bit is set).
#[derive(Clone, Debug, Default)]
pub struct PduTracker {
    /// Arena-backed so a tracker recycled across TPDUs (the receiver's
    /// group pool) reaches steady state without touching the allocator.
    received: ArenaIntervalSet,
    /// One-past-the-last element SN, known once an ST-bearing fragment
    /// arrives.
    end: Option<u64>,
    duplicates: u64,
}

impl PduTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers a fragment covering elements `[sn, sn + len)`; `st` signals
    /// that the fragment's last element ends the PDU.
    pub fn offer(&mut self, sn: u64, len: u64, st: bool) -> TrackEvent {
        let end = sn + len;
        // Framing consistency first (Table 1 "Reassembly Error" rows).
        if let Some(known_end) = self.end {
            if end > known_end || (st && end != known_end) {
                return TrackEvent::Inconsistent;
            }
        }
        if self.received.overlap(sn, end) > 0 {
            self.duplicates += 1;
            return TrackEvent::Duplicate;
        }
        if st {
            if self.received.last_end().is_some_and(|e| e > end) {
                return TrackEvent::Inconsistent;
            }
            self.end = Some(end);
        }
        self.received.insert(sn, end);
        TrackEvent::Accepted
    }

    /// True when every element `[0, end)` has been received — the PDU is
    /// *virtually reassembled* and (for instance) the incremental checksum
    /// is ready to compare (§3.3).
    pub fn is_complete(&self) -> bool {
        self.end
            .is_some_and(|end| self.received.is_contiguous_to(end))
    }

    /// The PDU length in elements, once known.
    pub fn known_end(&self) -> Option<u64> {
        self.end
    }

    /// Elements received so far.
    pub fn covered(&self) -> u64 {
        self.received.covered()
    }

    /// Number of disjoint received runs.
    pub fn fragments(&self) -> usize {
        self.received.fragments()
    }

    /// Count of duplicate fragments rejected.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// How much of `[sn, sn+len)` has already been received. Allocation-free
    /// — the hot path checks this before reaching for [`Self::uncovered`],
    /// which is only needed on the (cold) duplicate path.
    pub fn overlap(&self, sn: u64, len: u64) -> u64 {
        self.received.overlap(sn, sn + len)
    }

    /// Sub-ranges of `[sn, sn+len)` not yet received — lets a receiver trim
    /// a partially-duplicate fragment (a retransmission cut at different
    /// points) down to its new data before processing.
    pub fn uncovered(&self, sn: u64, len: u64) -> Vec<(u64, u64)> {
        self.received.uncovered(sn, sn + len)
    }

    /// [`Self::uncovered`], appended to a caller-owned buffer.
    pub fn uncovered_into(&self, sn: u64, len: u64, out: &mut Vec<(u64, u64)>) {
        self.received.uncovered_into(sn, sn + len, out)
    }

    /// Missing element ranges (needs the end to be known for the tail gap).
    pub fn missing(&self) -> Vec<(u64, u64)> {
        match self.end {
            Some(end) => self.received.gaps(end),
            None => {
                // Without the stop bit we only know about interior gaps.
                let last = self.received.last_end().unwrap_or(0);
                self.received.gaps(last)
            }
        }
    }

    /// Resets the tracker for reuse on a new PDU, recycling interval nodes
    /// in place. The slab keeps its capacity — this is what lets a pooled
    /// TPDU group be re-armed without allocating.
    pub fn clear(&mut self) {
        self.received.clear();
        self.end = None;
        self.duplicates = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_completion() {
        let mut t = PduTracker::new();
        assert_eq!(t.offer(0, 4, false), TrackEvent::Accepted);
        assert!(!t.is_complete());
        assert_eq!(t.offer(4, 4, true), TrackEvent::Accepted);
        assert!(t.is_complete());
        assert_eq!(t.known_end(), Some(8));
    }

    #[test]
    fn out_of_order_completion() {
        let mut t = PduTracker::new();
        assert_eq!(t.offer(4, 4, true), TrackEvent::Accepted);
        assert!(!t.is_complete());
        assert_eq!(t.offer(0, 4, false), TrackEvent::Accepted);
        assert!(t.is_complete());
    }

    #[test]
    fn duplicates_rejected_and_counted() {
        let mut t = PduTracker::new();
        t.offer(0, 4, false);
        assert_eq!(t.offer(0, 4, false), TrackEvent::Duplicate);
        assert_eq!(t.offer(2, 4, false), TrackEvent::Duplicate);
        assert_eq!(t.duplicates(), 2);
        assert_eq!(t.covered(), 4);
    }

    #[test]
    fn data_past_stop_is_inconsistent() {
        let mut t = PduTracker::new();
        assert_eq!(t.offer(0, 4, true), TrackEvent::Accepted);
        assert_eq!(t.offer(4, 2, false), TrackEvent::Inconsistent);
    }

    #[test]
    fn conflicting_stop_positions_inconsistent() {
        let mut t = PduTracker::new();
        assert_eq!(t.offer(4, 4, true), TrackEvent::Accepted);
        assert_eq!(t.offer(0, 2, true), TrackEvent::Inconsistent);
        // A corrupted T.ST appearing beyond already-seen data:
        let mut u = PduTracker::new();
        assert_eq!(u.offer(0, 8, false), TrackEvent::Accepted);
        assert_eq!(u.offer(2, 2, true), TrackEvent::Duplicate);
    }

    #[test]
    fn stop_before_received_tail_inconsistent() {
        let mut t = PduTracker::new();
        assert_eq!(t.offer(6, 2, false), TrackEvent::Accepted);
        assert_eq!(t.offer(0, 2, true), TrackEvent::Inconsistent);
    }

    #[test]
    fn missing_ranges_drive_retransmission() {
        let mut t = PduTracker::new();
        t.offer(0, 2, false);
        t.offer(6, 2, true);
        assert_eq!(t.missing(), vec![(2, 6)]);
        t.offer(2, 4, false);
        assert!(t.is_complete());
        assert!(t.missing().is_empty());
    }

    #[test]
    fn interior_gaps_without_known_end() {
        let mut t = PduTracker::new();
        t.offer(0, 2, false);
        t.offer(4, 2, false);
        assert_eq!(t.missing(), vec![(2, 4)]);
        assert_eq!(t.fragments(), 2);
    }

    #[test]
    fn overlap_mirrors_uncovered_emptiness() {
        let mut t = PduTracker::new();
        t.offer(0, 4, false);
        t.offer(8, 4, false);
        assert_eq!(t.overlap(4, 4), 0);
        assert_eq!(t.uncovered(4, 4), vec![(4, 8)]);
        assert_eq!(t.overlap(2, 4), 2);
        assert_eq!(t.overlap(0, 12), 8);
    }

    #[test]
    fn clear_re_arms_for_a_new_pdu() {
        let mut t = PduTracker::new();
        t.offer(0, 4, false);
        t.offer(0, 4, false); // duplicate
        t.offer(4, 4, true);
        assert!(t.is_complete());
        t.clear();
        assert!(!t.is_complete());
        assert_eq!(t.known_end(), None);
        assert_eq!(t.covered(), 0);
        assert_eq!(t.duplicates(), 0);
        assert_eq!(t.offer(0, 2, true), TrackEvent::Accepted);
        assert!(t.is_complete());
    }
}
