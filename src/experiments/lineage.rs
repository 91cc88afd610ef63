//! Label-keyed lifecycle lineage: one closed-loop transfer per netsim
//! profile, every chunk's life recorded as spans keyed by the paper's
//! `(C.ID, T.SN, X.SN)` labels.
//!
//! The paper's labels are self-describing on the wire (§2), which makes
//! them a ready-made *trace key*: the sender, every simulated hop, the
//! Byzantine middlebox, the receiver's reorder/verify machinery and the
//! retransmission timer all stamp spans against the same tuple with no
//! side-channel correlation state. This experiment drives one complete
//! transfer through each [`Profile`] — forward path observed, clean ack
//! return — and exports, per profile:
//!
//! * the **lineage**: per-chunk stage timelines plus parent→child split
//!   links (the Appendix C/D closure, visible as recorded edges on the
//!   `fragmenting` profile);
//! * the **delay budget**: total virtual time attributed to network /
//!   holding / verify / merge-queue / repair, with p50/p90/p99 from the
//!   `span.delay.*` histograms;
//! * **visible drops**: unclosed hop spans are exactly the frames the
//!   lossy profiles destroyed.
//!
//! Everything rides the virtual clock, so `BENCH_lineage.json` is exact
//! enough for the `bench-check` gate to diff against a fresh regeneration
//! with zero tolerance, and `tests/obs_determinism.rs` replays each
//! profile and compares the exports byte for byte.

use std::fmt;
use std::sync::Arc;

use chunks_netsim::{Link, LinkConfig, Profile};
use chunks_obs::{ObsSink, Recorder};
use chunks_transport::DegradePolicy;

use super::soak;

/// Bytes transferred per profile.
pub const PAYLOAD_BYTES: usize = 2_048;
/// Sender MTU. Large TPDU chunks against this MTU guarantee the
/// `fragmenting` profile's narrow router actually splits them.
pub const MTU: usize = 512;

/// The stages whose `span.delay.*` histograms the export quantifies, in
/// lifecycle order.
pub const DELAY_METRICS: [&str; 5] = [
    "span.delay.network_ns",
    "span.delay.holding_ns",
    "span.delay.merge_queue_ns",
    "span.delay.verify_ns",
    "span.delay.repair_ns",
];

/// What one observed transfer did, independent of the recording sink —
/// used by the differential-transparency test (NullSink run must match).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TransferSummary {
    /// Bytes verified and delivered at the receiver.
    pub delivered_bytes: u64,
    /// Bytes submitted at the sender.
    pub total_bytes: u64,
    /// Virtual nanoseconds until the sender's window drained (or the
    /// livelock bound, on a hang).
    pub elapsed_ns: u64,
    /// True when the sender drained its window inside the tick bound.
    pub completed: bool,
    /// Timer-fired retransmissions.
    pub timer_retransmits: u64,
}

/// One profile's row of the lineage sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct LineageRow {
    /// Profile name.
    pub profile: &'static str,
    /// What the transfer did.
    pub summary: TransferSummary,
    /// Distinct label tuples that opened at least one span.
    pub chunks: usize,
    /// Spans recorded.
    pub spans: usize,
    /// Parent→child fragmentation links recorded.
    pub links: usize,
    /// Spans never closed — chunks dropped in flight (or repairs still
    /// outstanding when the run ended).
    pub unclosed: usize,
    /// Closes that matched no open span (must stay zero).
    pub orphan_closes: u64,
    /// `(delay metric, total ns, closed spans)` in lifecycle order.
    pub budget: Vec<(&'static str, u64, u64)>,
    /// `(delay metric, p50, p90, p99)` bucket-bound quantiles in ns.
    pub quantiles: Vec<(&'static str, u64, u64, u64)>,
    /// The per-chunk lineage export (byte-stable JSON).
    pub json: String,
    /// The human-readable span tree.
    pub text: String,
}

/// All rows of one seed's sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct LineageResult {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// One row per profile, in [`Profile::ALL`] order.
    pub rows: Vec<LineageRow>,
}

/// Drives one complete transfer through `profile` under `seed` with `sink`
/// attached to both endpoints and every forward hop. The fault stream
/// never depends on the sink — a NullSink run returns the identical
/// summary (pinned by `tests/obs_determinism.rs`).
pub fn drive(profile: Profile, seed: u64, sink: Arc<dyn ObsSink>) -> TransferSummary {
    let payload: Vec<u8> = (0..PAYLOAD_BYTES).map(|i| (i * 7 + 3) as u8).collect();
    // 256-element TPDUs produce data chunks wider than the fragmenting
    // profile's narrow MTU, forcing mid-path splits.
    let mut a = soak::endpoint(1, 2, MTU, 256, DegradePolicy::Abort).with_obs(sink.clone());
    let mut b = soak::endpoint(2, 1, MTU, 256, DegradePolicy::Abort).with_obs(sink.clone());
    a.send(&payload, 0xA, false);

    // Forward: the profile's path, observed. Reverse: a clean ack link
    // (also observed; ack chunks carry no data labels, so it stays quiet).
    let mut fwd = profile.build_observed(MTU, seed, sink.clone());
    let mut rev = Link::new(LinkConfig::clean(MTU, 100_000, 0), seed ^ 0x0FF);
    rev.set_obs(sink);

    let (ending, elapsed) = soak::transfer(
        &mut a,
        &mut b,
        |t, packets, arrivals| {
            for p in packets {
                for d in fwd.transmit(t, p.bytes.clone()) {
                    arrivals.push((d.time, d.frame.bytes));
                }
            }
            // Flush router batching windows every tick so a held tail
            // chunk cannot stall the transfer.
            for d in fwd.flush(t) {
                arrivals.push((d.time, d.frame.bytes));
            }
        },
        |t, packets, arrivals| {
            for p in packets {
                rev.transmit_into(t, p.bytes.clone(), arrivals);
            }
        },
    );
    TransferSummary {
        delivered_bytes: b.received_elements(),
        total_bytes: PAYLOAD_BYTES as u64,
        elapsed_ns: elapsed,
        completed: ending == soak::Ending::Drained,
        timer_retransmits: a.reliability().timer_retransmits,
    }
}

fn row(profile: Profile, seed: u64) -> LineageRow {
    let sink = Recorder::verbose_tier(1 << 16);
    let summary = drive(profile, seed, sink.clone());
    let lineage = sink.lineage();
    let snap = sink.snapshot();
    let quantiles = DELAY_METRICS
        .iter()
        .map(|&m| match snap.histogram(m) {
            Some(h) => (m, h.p50(), h.p90(), h.p99()),
            None => (m, 0, 0, 0),
        })
        .collect();
    let records = sink.span_records();
    LineageRow {
        profile: profile.name(),
        summary,
        chunks: lineage.chunks.len(),
        spans: records.len(),
        links: sink.span_links().len(),
        unclosed: records.iter().filter(|r| r.close_ns.is_none()).count(),
        orphan_closes: sink.span_orphan_closes(),
        budget: lineage.delay_budget(),
        quantiles,
        json: lineage.to_json(),
        text: lineage.render_text(),
    }
}

/// Runs the whole profile sweep under one seed, each profile once.
pub fn run(seed: u64) -> LineageResult {
    LineageResult {
        seed,
        rows: Profile::ALL.iter().map(|&p| row(p, seed)).collect(),
    }
}

impl LineageRow {
    /// The row's total attributed delay, ns.
    pub fn attributed_ns(&self) -> u64 {
        self.budget.iter().map(|(_, total, _)| total).sum()
    }
}

impl LineageResult {
    /// Acceptance: every profile ran with no orphan closes, delivered
    /// every byte and recorded spans; the clean profile dropped nothing;
    /// the fragmenting profile recorded parent→child split links; and at
    /// least one lossy profile shows dropped chunks as unclosed spans.
    pub fn passes(&self) -> bool {
        self.rows.iter().all(|r| {
            r.orphan_closes == 0
                && r.spans > 0
                && r.summary.completed
                && r.summary.delivered_bytes == r.summary.total_bytes
        }) && self
            .rows
            .iter()
            .any(|r| r.profile == "clean" && r.unclosed == 0)
            && self
                .rows
                .iter()
                .any(|r| r.profile == "fragmenting" && r.links > 0)
            && self.rows.iter().any(|r| r.unclosed > 0)
    }
}

impl fmt::Display for LineageResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== lineage — label-keyed lifecycle spans per profile (seed {:#x}) ===",
            self.seed
        )?;
        writeln!(
            f,
            "  {:<16} {:>7} {:>7} {:>6} {:>9} {:>8} {:>12}",
            "profile", "chunks", "spans", "links", "unclosed", "rto-rtx", "attrib ms"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<16} {:>7} {:>7} {:>6} {:>9} {:>8} {:>12.3}",
                r.profile,
                r.chunks,
                r.spans,
                r.links,
                r.unclosed,
                r.summary.timer_retransmits,
                r.attributed_ns() as f64 / 1e6,
            )?;
        }
        writeln!(f, "--- delay budget (clean profile) ---")?;
        if let Some(r) = self.rows.iter().find(|r| r.profile == "clean") {
            for (metric, total, count) in &r.budget {
                writeln!(f, "  {metric:<28} {total:>12} ns over {count} spans")?;
            }
        }
        writeln!(f, "--- lineage excerpt (fragmenting profile) ---")?;
        if let Some(r) = self.rows.iter().find(|r| r.profile == "fragmenting") {
            let lines: Vec<&str> = r.text.lines().collect();
            for l in lines.iter().take(24) {
                writeln!(f, "{l}")?;
            }
            if lines.len() > 24 {
                writeln!(f, "  ... {} lineage lines elided ...", lines.len() - 24)?;
            }
        }
        Ok(())
    }
}

/// Renders the sweep as the `BENCH_lineage.json` latency-attribution
/// record. Every value is a virtual-clock integer, so the file is exact:
/// the `bench-check` gate diffs a regeneration against the committed copy
/// byte for byte (zero tolerance).
pub fn bench_json(r: &LineageResult, describe: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{\n");
    out.push_str(&super::benchjson::meta_json(
        "label-keyed-lifecycle-spans",
        "cargo run --release --bin experiments lineage (or: just lineage)",
        describe,
    ));
    let _ = writeln!(
        out,
        "  \"workload\": \"{} bytes per profile, mtu {}, virtual clock, tick {} ns\",",
        PAYLOAD_BYTES,
        MTU,
        soak::TICK_NS
    );
    let _ = writeln!(out, "  \"seed\": \"{:#x}\",", r.seed);
    out.push_str("  \"results\": [\n");
    let rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            let mut s = format!(
                "    {{\"profile\": \"{}\", \"delivered_bytes\": {}, \"elapsed_ns\": {}, \"chunks\": {}, \"spans\": {}, \"links\": {}, \"unclosed\": {}, \"orphan_closes\": {}, \"timer_retransmits\": {}, \"budget\": {{",
                row.profile,
                row.summary.delivered_bytes,
                row.summary.elapsed_ns,
                row.chunks,
                row.spans,
                row.links,
                row.unclosed,
                row.orphan_closes,
                row.summary.timer_retransmits,
            );
            for (i, (metric, total, count)) in row.budget.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{metric}\": {{\"total_ns\": {total}, \"spans\": {count}}}");
            }
            s.push_str("}, \"quantiles\": {");
            for (i, (metric, p50, p90, p99)) in row.quantiles.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "\"{metric}\": {{\"p50\": {p50}, \"p90\": {p90}, \"p99\": {p99}}}");
            }
            s.push_str("}}");
            s
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_profile_lineage_is_deterministic_and_fully_attributed() {
        let r = row(Profile::Clean, 0xC0451);
        assert_eq!(
            r,
            row(Profile::Clean, 0xC0451),
            "clean profile replay diverged"
        );
        assert_eq!(r.orphan_closes, 0);
        assert_eq!(r.unclosed, 0, "clean profile cannot drop chunks");
        assert_eq!(r.summary.delivered_bytes, PAYLOAD_BYTES as u64);
        // Every data chunk crossed the one link: network time was recorded.
        let network = r
            .budget
            .iter()
            .find(|(m, _, _)| *m == "span.delay.network_ns")
            .unwrap();
        assert!(network.1 > 0 && network.2 > 0);
    }

    #[test]
    fn fragmenting_profile_records_split_links() {
        let r = row(Profile::Fragmenting, 0xC0451);
        assert!(r.links > 0, "narrow router must split and link chunks");
        assert!(r.json.contains("\"children\": [["));
        assert!(r.text.contains("split child"));
    }
}
