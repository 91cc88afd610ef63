//! The one event ring: bounded, overwrite-oldest, counting what it lost,
//! with JSON-lines export and a compact text renderer. Both recorder tiers
//! push into it and [`crate::FlightDump::capture`] reads it.
//!
//! Timestamps are whatever virtual clock the caller passes in — the ring
//! never reads a wall clock, which is what makes two runs of the same seeded
//! scenario export byte-identical traces.

use std::collections::VecDeque;

use crate::event::Event;

/// Default event capacity of a [`TraceRing`].
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// An event stamped with the caller's virtual-clock time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimedEvent {
    /// Virtual-clock nanoseconds at which the event was recorded.
    pub at_ns: u64,
    /// The event itself.
    pub event: Event,
}

impl TimedEvent {
    /// Appends this event's `{"t": ns, "ev": ..., ...}` JSON line — the one
    /// line shape traces and flight dumps share.
    pub(crate) fn json_line(&self, out: &mut String) {
        out.push_str(&format!("{{\"t\": {}, ", self.at_ns));
        self.event.json_fields(out);
        out.push_str("}\n");
    }
}

/// A bounded ring of [`TimedEvent`]s: pushing past capacity drops the oldest
/// event and counts the loss, so a long run keeps its tail (where verdicts
/// live) and reports exactly how much head it shed.
///
/// Storage for `min(cap, DEFAULT_TRACE_CAPACITY)` events is reserved at
/// construction, so a ring no larger than that (the always-on tier's
/// 1024-slot ring) never touches the heap again; a larger ring grows on
/// demand up to `cap`, then overwrites.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceRing {
    cap: usize,
    events: VecDeque<TimedEvent>,
    dropped: u64,
}

impl TraceRing {
    /// Creates a ring holding at most `cap` events (`cap` ≥ 1).
    pub fn new(cap: usize) -> Self {
        TraceRing {
            cap: cap.max(1),
            events: VecDeque::with_capacity(cap.clamp(1, DEFAULT_TRACE_CAPACITY)),
            dropped: 0,
        }
    }

    /// Records `event` at virtual time `at_ns`.
    pub fn push(&mut self, at_ns: u64, event: Event) {
        if self.events.len() == self.cap {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(TimedEvent { at_ns, event });
    }

    /// Events evicted to make room (0 until the ring wraps).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Copies the held events out, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.events.iter().copied().collect()
    }

    /// Exports the trace as JSON lines: one `{"t": ns, "ev": ..., ...}`
    /// object per line, oldest first. Deterministic workloads export
    /// byte-identical strings across runs.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for te in &self.events {
            te.json_line(&mut out);
        }
        out
    }

    /// Renders the trace as aligned human-readable lines, one event each,
    /// with millisecond virtual timestamps.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            out.push_str(&format!(
                "  ... {} earlier events dropped (ring capacity {})\n",
                self.dropped, self.cap
            ));
        }
        for te in &self.events {
            out.push_str(&format!(
                "  {:>10.3} ms  {}\n",
                te.at_ns as f64 / 1e6,
                te.event.render_text()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Labels;

    fn ev(n: u32) -> Event {
        Event::GroupDelivered {
            conn_id: 1,
            start: n,
            bytes: 8,
        }
    }

    #[test]
    fn ring_is_bounded_counts_its_losses_and_keeps_the_newest_in_order() {
        // Capacity 0 is clamped to one slot rather than losing everything.
        for cap in [0usize, 1, 2, 3, 8] {
            let mut r = TraceRing::new(cap);
            let cap = cap.max(1) as u64;
            for pushes in 1..=(3 * cap + 1) {
                r.push(pushes * 10, ev(pushes as u32));
                // Oldest first, across the wrap: exactly the newest pushes.
                let held: Vec<u64> = r.events().iter().map(|t| t.at_ns).collect();
                let len = pushes.min(cap);
                let want: Vec<u64> = (pushes + 1 - len..=pushes).map(|p| p * 10).collect();
                assert_eq!(held, want, "cap {cap} after {pushes} pushes");
                assert_eq!(r.dropped(), pushes - len);
            }
        }
    }

    #[test]
    fn ring_storage_is_reserved_once_up_to_the_default_capacity() {
        // Neither filling nor wrapping reallocates, which is what keeps the
        // always-on tier's pushes allocation-free.
        for cap in [4usize, 1024, DEFAULT_TRACE_CAPACITY] {
            let mut r = TraceRing::new(cap);
            let reserved = r.events.capacity();
            assert!(reserved >= cap);
            for i in 0..(2 * cap as u32 + 7) {
                r.push(i as u64, ev(i));
            }
            assert_eq!(r.events.capacity(), reserved);
        }
        // A larger ring grows on demand up to its bound, then overwrites.
        let cap = DEFAULT_TRACE_CAPACITY + 5;
        let mut r = TraceRing::new(cap);
        for i in 0..(cap as u32 + 3) {
            r.push(i as u64, ev(i));
        }
        assert_eq!((r.events().len(), r.dropped()), (cap, 3));
        assert_eq!(r.events()[0].at_ns, 3);
    }

    #[test]
    fn json_lines_and_text_are_one_line_per_event() {
        let mut r = TraceRing::new(2);
        r.push(5, ev(0));
        r.push(
            7_500_000,
            Event::ChunkRejected {
                labels: Labels::new(3, 0, 9),
                reason: "truncated",
            },
        );
        let exported = r.to_json_lines();
        let lines: Vec<&str> = exported.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            "{\"t\": 5, \"ev\": \"GroupDelivered\", \"cid\": 1, \"start\": 0, \"bytes\": 8}"
        );
        assert!(lines[1].contains("\"reason\": \"truncated\""));
        let text = r.render_text();
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("7.500 ms") && !text.contains("dropped"));
        // Once the ring wraps, the text opens with the loss preamble.
        r.push(9_000_000, ev(1));
        let text = r.render_text();
        assert_eq!(
            text.lines().next(),
            Some("  ... 1 earlier events dropped (ring capacity 2)")
        );
        assert_eq!(text.lines().count(), 3);
    }

    #[test]
    fn identical_pushes_export_identically() {
        let mut a = TraceRing::new(DEFAULT_TRACE_CAPACITY);
        let mut b = TraceRing::new(DEFAULT_TRACE_CAPACITY);
        for t in 0..100u64 {
            a.push(t, ev(t as u32));
            b.push(t, ev(t as u32));
        }
        assert_eq!(a.to_json_lines(), b.to_json_lines());
        assert_eq!(a, b);
    }
}
