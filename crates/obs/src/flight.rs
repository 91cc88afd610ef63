//! The flight recorder's postmortem: when a degradation trigger first
//! fires, the recorder captures its event ring into a byte-stable
//! JSON-lines [`FlightDump`].
//!
//! The dump is a copy of the one [`TraceRing`] — the same
//! `(C.ID, T.SN, X.SN)` labels, the same per-line `{"t": N, "ev": ...}`
//! JSON shape — so a postmortem dump and an `experiments trace --json`
//! export read identically.

use crate::trace::{TimedEvent, TraceRing};

/// Ring capacity of the always-on tier: enough recent context to diagnose a
/// degradation without unbounded memory, and small enough that the ring's
/// storage is reserved once at construction (see [`TraceRing`]).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;

/// A captured postmortem: the trigger that fired and the ring contents at
/// that moment. Plain data — comparable, cloneable, byte-stable to export.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FlightDump {
    /// The degradation trigger that fired, e.g. `"peer-unreachable"`.
    pub trigger: &'static str,
    /// Connection the trigger concerned (0 when not connection-scoped).
    pub conn_id: u32,
    /// Virtual-clock time of the trigger.
    pub at_ns: u64,
    /// Events the ring had dropped before the capture (context lost).
    pub overwritten: u64,
    /// The ring contents at capture time, oldest first.
    pub events: Vec<TimedEvent>,
}

impl FlightDump {
    /// Captures a dump from `ring` at trigger time.
    pub fn capture(trigger: &'static str, conn_id: u32, at_ns: u64, ring: &TraceRing) -> Self {
        FlightDump {
            trigger,
            conn_id,
            at_ns,
            overwritten: ring.dropped(),
            events: ring.events(),
        }
    }

    /// Renders the dump as JSON lines: one header object, then one event
    /// object per line in the exact shape [`crate::trace::TraceRing`]
    /// exports, so dumps and traces share one format. Byte-stable: every
    /// field rides the virtual clock.
    pub fn to_json_lines(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\"dump\": \"flight\", \"trigger\": \"{}\", \"cid\": {}, \"t\": {}, \"events\": {}, \"overwritten\": {}}}",
            self.trigger,
            self.conn_id,
            self.at_ns,
            self.events.len(),
            self.overwritten,
        );
        for te in &self.events {
            te.json_line(&mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Labels};

    #[test]
    fn dump_shares_the_trace_line_shape() {
        let mut r = TraceRing::new(8);
        r.push(
            7,
            Event::ChunkRejected {
                labels: Labels::new(3, 0, 9),
                reason: "truncated",
            },
        );
        r.push(
            9,
            Event::Degraded {
                conn_id: 3,
                trigger: "verify-failure",
            },
        );
        let d = FlightDump::capture("verify-failure", 3, 9, &r);
        let json = d.to_json_lines();
        let lines: Vec<&str> = json.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("{\"dump\": \"flight\", \"trigger\": \"verify-failure\""));
        assert_eq!(
            lines[1],
            "{\"t\": 7, \"ev\": \"ChunkRejected\", \"cid\": 3, \"tsn\": 0, \"xsn\": 9, \"reason\": \"truncated\"}"
        );
        assert_eq!(
            lines[2],
            "{\"t\": 9, \"ev\": \"Degraded\", \"cid\": 3, \"trigger\": \"verify-failure\"}"
        );
        // Capture is a value: replaying the same ring gives identical bytes.
        assert_eq!(d, FlightDump::capture("verify-failure", 3, 9, &r));
    }
}
