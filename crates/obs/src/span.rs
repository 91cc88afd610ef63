//! Label-keyed lifecycle spans: causal chunk lineage from the paper's own
//! labels.
//!
//! The paper's `(ID, SN, ST)` labels make every chunk self-describing
//! through arbitrary in-network fragmentation and repacking (§2, Appendix
//! C/D) — which means the label tuple is also a ready-made *trace key*. A
//! [`SpanId`] is exactly that tuple plus the lifecycle [`Stage`] it covers;
//! no side-channel correlation state is ever needed to follow one chunk
//! from sender emit, across every simulated router hop, to single-step
//! delivery. When a router splits a chunk, the children keep `C.ID`/`T.SN`
//! and take new `X.SN` offsets inside the parent's extent, so the
//! parent→child [`SpanLink`]s recorded here mirror the closure argument of
//! Appendix C/D: lineage survives fragmentation because the labels do.
//!
//! Spans are opened and closed against the caller's virtual clock, so two
//! runs of the same seeded scenario export byte-identical span trees —
//! `tests/obs_determinism.rs` pins this per netsim profile. Closed spans
//! with a duration-bearing stage feed the latency-attribution histograms
//! (`span.delay.*` in the catalogue): per-chunk delay decomposed into
//! network / holding / verify / merge-queue / repair components.

use std::collections::HashMap;
use std::fmt::Write;

use crate::event::Labels;

/// Lifecycle stage a span covers. Marker stages (zero duration — the open
/// and close share a timestamp) record *that* something happened to the
/// chunk; duration stages decompose *where its latency went* and feed the
/// `span.delay.*` histogram named by [`Stage::delay_metric`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Stage {
    /// Marker: the sender put the chunk on the wire.
    Emit,
    /// Duration: one simulated link traversal (serialization + latency +
    /// jitter). An unclosed hop span is a chunk the link dropped.
    Hop,
    /// Marker: a Byzantine router mutated the chunk on the wire.
    Mutate,
    /// Marker: a multipath link striped the chunk onto one of its paths.
    PathChoice,
    /// Marker: an in-network router re-fragmented the chunk; the children
    /// are recorded as [`SpanLink`]s from the parent label.
    Fragment,
    /// Duration: time the receiver held the chunk staged (reorder queue or
    /// reassembly group) before releasing it in order.
    Hold,
    /// Duration: time a chunk waited between parallel-pipeline dispatch and
    /// the merge fold that absorbed its worker's transcript.
    MergeQueue,
    /// Duration: from a group's first arrival to its WSC-2 verdict.
    Verify,
    /// Duration: from a retransmission-timer fire to the acknowledgment
    /// that repaired the TPDU.
    Repair,
    /// Marker: the verified bytes reached the application address space.
    Deliver,
}

impl Stage {
    /// Every stage, in lifecycle order.
    pub const ALL: [Stage; 10] = [
        Stage::Emit,
        Stage::Hop,
        Stage::Mutate,
        Stage::PathChoice,
        Stage::Fragment,
        Stage::Hold,
        Stage::MergeQueue,
        Stage::Verify,
        Stage::Repair,
        Stage::Deliver,
    ];

    /// The stage's stable lowercase name, as used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Emit => "emit",
            Stage::Hop => "hop",
            Stage::Mutate => "mutate",
            Stage::PathChoice => "path_choice",
            Stage::Fragment => "fragment",
            Stage::Hold => "hold",
            Stage::MergeQueue => "merge_queue",
            Stage::Verify => "verify",
            Stage::Repair => "repair",
            Stage::Deliver => "deliver",
        }
    }

    /// The catalogued `span.delay.*` histogram a closed span of this stage
    /// feeds, or `None` for marker stages.
    pub fn delay_metric(self) -> Option<&'static str> {
        match self {
            Stage::Hop => Some("span.delay.network_ns"),
            Stage::Hold => Some("span.delay.holding_ns"),
            Stage::MergeQueue => Some("span.delay.merge_queue_ns"),
            Stage::Verify => Some("span.delay.verify_ns"),
            Stage::Repair => Some("span.delay.repair_ns"),
            _ => None,
        }
    }
}

/// A span's identity: the paper's label tuple plus the lifecycle stage.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId {
    /// The chunk's `(C.ID, T.SN, X.SN)` labels — the trace key.
    pub labels: Labels,
    /// Which lifecycle stage this span covers.
    pub stage: Stage,
}

impl SpanId {
    /// Builds a span identity.
    pub fn new(labels: Labels, stage: Stage) -> Self {
        SpanId { labels, stage }
    }
}

/// One recorded span: identity, open time, and (once closed) close time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanRecord {
    /// The span's identity.
    pub id: SpanId,
    /// Virtual-clock nanoseconds at open.
    pub open_ns: u64,
    /// Virtual-clock nanoseconds at close; `None` while open (an unclosed
    /// `Hop` span is a dropped chunk).
    pub close_ns: Option<u64>,
}

impl SpanRecord {
    /// Duration of a closed span, `None` while open.
    pub fn duration_ns(&self) -> Option<u64> {
        self.close_ns.map(|c| c.saturating_sub(self.open_ns))
    }
}

/// A causal parent→child edge recorded when a router splits a chunk: the
/// child keeps the parent's `C.ID`/`T.SN` and takes a new `X.SN` offset
/// inside the parent's extent (Appendix C/D closure).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanLink {
    /// Virtual-clock nanoseconds at which the split happened.
    pub at_ns: u64,
    /// Labels of the chunk that was split.
    pub parent: Labels,
    /// Labels of one resulting child chunk.
    pub child: Labels,
}

fn key(id: &SpanId) -> (u32, u32, u32, Stage) {
    (id.labels.conn_id, id.labels.t_sn, id.labels.x_sn, id.stage)
}

/// Append-only store of span records and links.
///
/// Records keep their open order (a `Vec`, never a hash-ordered walk), so a
/// deterministic workload exports a byte-identical store. Closing matches
/// the *newest still-open* record with the same `(labels, stage)` — nested
/// re-opens (a retransmitted chunk crossing the same link twice) close in
/// LIFO order. A close with no matching open is counted, never dropped
/// silently.
#[derive(Debug, Default)]
pub struct SpanStore {
    records: Vec<SpanRecord>,
    links: Vec<SpanLink>,
    /// Stack of open record indices per span identity.
    open: HashMap<(u32, u32, u32, Stage), Vec<usize>>,
    orphan_closes: u64,
}

impl SpanStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a span at virtual time `at_ns`.
    pub fn open(&mut self, at_ns: u64, id: SpanId) {
        let idx = self.records.len();
        self.records.push(SpanRecord {
            id,
            open_ns: at_ns,
            close_ns: None,
        });
        self.open.entry(key(&id)).or_default().push(idx);
    }

    /// Closes the newest open span with `id`'s identity at `at_ns`.
    /// Returns the closed record's duration, or `None` (and counts an
    /// orphan) when no matching span is open.
    pub fn close(&mut self, at_ns: u64, id: SpanId) -> Option<u64> {
        match self.open.get_mut(&key(&id)).and_then(|stack| stack.pop()) {
            Some(idx) => {
                self.records[idx].close_ns = Some(at_ns);
                self.records[idx].duration_ns()
            }
            None => {
                self.orphan_closes += 1;
                None
            }
        }
    }

    /// Records a parent→child fragmentation link at `at_ns`.
    pub fn link(&mut self, at_ns: u64, parent: Labels, child: Labels) {
        self.links.push(SpanLink {
            at_ns,
            parent,
            child,
        });
    }

    /// The recorded spans, in open order.
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// The recorded parent→child links, in record order.
    pub fn links(&self) -> &[SpanLink] {
        &self.links
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty() && self.links.is_empty()
    }

    /// Closes that matched no open span.
    pub fn orphan_closes(&self) -> u64 {
        self.orphan_closes
    }

    /// Exports the store as JSON lines, one object per span (open order)
    /// followed by one per link — keys in fixed order, no floats, so a
    /// deterministic workload exports byte-identical strings.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for r in &self.records {
            let _ = write!(
                out,
                "{{\"span\": \"{}\", \"cid\": {}, \"tsn\": {}, \"xsn\": {}, \"open\": {}, \"close\": ",
                r.id.stage.name(),
                r.id.labels.conn_id,
                r.id.labels.t_sn,
                r.id.labels.x_sn,
                r.open_ns,
            );
            match r.close_ns {
                Some(c) => {
                    let _ = write!(out, "{c}");
                }
                None => out.push_str("null"),
            }
            out.push_str("}\n");
        }
        for l in &self.links {
            let _ = writeln!(
                out,
                "{{\"link\": {}, \"parent\": [{}, {}, {}], \"child\": [{}, {}, {}]}}",
                l.at_ns,
                l.parent.conn_id,
                l.parent.t_sn,
                l.parent.x_sn,
                l.child.conn_id,
                l.child.t_sn,
                l.child.x_sn,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(xsn: u32, stage: Stage) -> SpanId {
        SpanId::new(Labels::new(1, 0, xsn), stage)
    }

    #[test]
    fn stage_names_and_delay_metrics_are_consistent() {
        for stage in Stage::ALL {
            assert!(!stage.name().is_empty());
            if let Some(metric) = stage.delay_metric() {
                assert!(metric.starts_with("span.delay."), "{metric}");
                assert!(crate::catalogue::lookup(metric).is_some(), "{metric}");
            }
        }
    }

    #[test]
    fn close_matches_newest_open_lifo() {
        let mut s = SpanStore::new();
        s.open(10, id(0, Stage::Hop));
        s.open(20, id(0, Stage::Hop));
        assert_eq!(s.close(25, id(0, Stage::Hop)), Some(5));
        assert_eq!(s.close(40, id(0, Stage::Hop)), Some(30));
        assert_eq!(s.orphan_closes(), 0);
        assert_eq!(s.close(50, id(0, Stage::Hop)), None);
        assert_eq!(s.orphan_closes(), 1);
    }

    #[test]
    fn open_spans_are_visible_drops() {
        let mut s = SpanStore::new();
        s.open(5, id(1, Stage::Hop));
        s.open(6, id(2, Stage::Hop));
        s.close(9, id(2, Stage::Hop));
        assert!(s.to_json_lines().contains("\"close\": null"));
    }

    #[test]
    fn json_lines_are_byte_stable_and_ordered() {
        let build = || {
            let mut s = SpanStore::new();
            s.open(1, id(0, Stage::Emit));
            s.close(1, id(0, Stage::Emit));
            s.open(2, id(0, Stage::Hop));
            s.close(52, id(0, Stage::Hop));
            s.link(30, Labels::new(1, 0, 0), Labels::new(1, 0, 4));
            s
        };
        let (a, b) = (build(), build());
        assert_eq!(a.to_json_lines(), b.to_json_lines());
        let exported = a.to_json_lines();
        let lines: Vec<&str> = exported.lines().collect();
        assert_eq!(
            lines[0],
            "{\"span\": \"emit\", \"cid\": 1, \"tsn\": 0, \"xsn\": 0, \"open\": 1, \"close\": 1}"
        );
        assert_eq!(
            lines[2],
            "{\"link\": 30, \"parent\": [1, 0, 0], \"child\": [1, 0, 4]}"
        );
    }
}
