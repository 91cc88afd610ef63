//! The static metrics catalogue: every counter and histogram the pipeline
//! exports, with its unit and the code path that increments it.
//!
//! The catalogue is the single source of truth three ways at once: it sizes
//! and names the slots of a [`crate::metrics::Metrics`] registry, it is the
//! list `docs/OBSERVABILITY.md` documents (a test asserts the document names
//! every entry), and it bounds the instrumentation surface — a layer cannot
//! invent a metric name at runtime, it can only increment one declared here.

/// Whether a metric is a monotonic counter or a fixed-bucket histogram.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Monotonically increasing sum of deltas.
    Counter,
    /// Power-of-two-bucket distribution plus total count and sum.
    Histogram,
}

/// One catalogue entry: a metric's name, kind, unit and provenance.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Dot-separated metric name, `layer.component.what`.
    pub name: &'static str,
    /// Counter or histogram.
    pub kind: Kind,
    /// Unit of the increment (counters) or observed value (histograms).
    pub unit: &'static str,
    /// Which code path increments or observes it.
    pub help: &'static str,
}

const fn counter(name: &'static str, unit: &'static str, help: &'static str) -> Spec {
    Spec {
        name,
        kind: Kind::Counter,
        unit,
        help,
    }
}

const fn histogram(name: &'static str, unit: &'static str, help: &'static str) -> Spec {
    Spec {
        name,
        kind: Kind::Histogram,
        unit,
        help,
    }
}

/// Every metric the receive path exports, sorted by name.
///
/// Sortedness is load-bearing (slot lookup binary-searches the catalogue)
/// and enforced by a unit test.
pub const CATALOGUE: &[Spec] = &[
    counter(
        "core.wire.chunks_decoded",
        "chunks",
        "the receive walk decoded a chunk off the wire (verbose tier, emitted by transport)",
    ),
    counter(
        "core.wire.decode_rejects",
        "chunks",
        "the receive walk refused a malformed chunk (verbose tier, emitted by transport)",
    ),
    counter(
        "netsim.byzantine.mutations",
        "chunks",
        "ByzantineRouter flipped a label field (T.SN, C.ID or LEN) on the wire",
    ),
    counter(
        "netsim.multipath.path_choices",
        "frames",
        "MultipathLink striped a frame onto one of its parallel paths",
    ),
    counter(
        "netsim.router.repacks",
        "chunks",
        "ChunkRouter merged chunks while repacking for its egress MTU",
    ),
    counter(
        "netsim.router.splits",
        "chunks",
        "ChunkRouter split a chunk to fit its egress MTU (extra pieces made)",
    ),
    counter(
        "obs.flight.dumps",
        "dumps",
        "Recorder captured a flight-recorder postmortem (first trigger only, either tier)",
    ),
    counter(
        "obs.flight.triggers",
        "triggers",
        "a degradation trigger fired against a recorder (either tier)",
    ),
    counter(
        "obs.span.links",
        "links",
        "a router recorded one parent-to-child fragmentation span link",
    ),
    counter(
        "obs.span.opened",
        "spans",
        "a lifecycle span was opened against a verbose-tier recorder",
    ),
    counter(
        "obs.span.orphan_closes",
        "closes",
        "a span close matched no open span (double close or unopened stage)",
    ),
    histogram(
        "span.delay.holding_ns",
        "ns",
        "closed hold spans: virtual time a chunk sat staged at the receiver",
    ),
    histogram(
        "span.delay.merge_queue_ns",
        "ns",
        "closed merge-queue spans: dispatch-to-merge wait in the parallel pipeline",
    ),
    histogram(
        "span.delay.network_ns",
        "ns",
        "closed hop spans: per-link virtual transit time of a chunk",
    ),
    histogram(
        "span.delay.repair_ns",
        "ns",
        "closed repair spans: RTO fire to the acknowledgment that repaired the TPDU",
    ),
    histogram(
        "span.delay.verify_ns",
        "ns",
        "closed verify spans: group first-arrival to its WSC-2 verdict",
    ),
    counter(
        "transport.budget.evictions",
        "groups",
        "Receiver evicted an idle incomplete group (LRU by virtual clock) under budget pressure",
    ),
    histogram(
        "transport.budget.held_bytes",
        "bytes",
        "budget occupancy: held + staged bytes after each arrival while a budget is set",
    ),
    counter(
        "transport.budget.shed_bytes",
        "bytes",
        "payload bytes the receiver shed because the resource budget was exhausted",
    ),
    counter(
        "transport.health.events",
        "events",
        "a Watchdog threshold rule emitted a typed HealthEvent",
    ),
    counter(
        "transport.health.reports",
        "reports",
        "a Watchdog tick aggregated a HealthReport on the virtual clock",
    ),
    counter(
        "transport.parallel.bad_packets",
        "packets",
        "ParallelReceiver::ingest refused a packet the span scan rejected",
    ),
    counter(
        "transport.parallel.chunks_dispatched",
        "chunks",
        "ParallelReceiver::ingest routed a chunk span to a worker shard",
    ),
    counter(
        "transport.parallel.merge_folds",
        "folds",
        "ParallelReceiver::finish folded one worker WSC-2 transcript into the merged stream",
    ),
    counter(
        "transport.parallel.packets",
        "packets",
        "ParallelReceiver::ingest accepted a packet for dispatch",
    ),
    histogram(
        "transport.parallel.queue_depth",
        "work items",
        "virtual-engine shard queue length after each dispatched chunk",
    ),
    counter(
        "transport.parallel.unknown_connection",
        "chunks",
        "ParallelReceiver::ingest dropped a chunk whose C.ID no shard owns",
    ),
    histogram(
        "transport.parallel.worker_chunks",
        "chunks",
        "per-worker chunk totals at merge time (dispatch imbalance)",
    ),
    histogram(
        "transport.rto.backoff_rto_ns",
        "ns",
        "backed-off RTO re-armed for an entry after its timer fired",
    ),
    histogram(
        "transport.rto.base_rto_ns",
        "ns",
        "smoothed base RTO observed at each Session::pump",
    ),
    counter(
        "transport.rto.rtt_samples",
        "samples",
        "Session::handle_packet took a Karn-admissible RTT sample from an ack",
    ),
    counter(
        "transport.rto.shed_tpdus",
        "tpdus",
        "Session::emit abandoned a TPDU after retry exhaustion under DegradePolicy::Shed",
    ),
    counter(
        "transport.rto.timer_fires",
        "fires",
        "RetransmitTimer::poll found an expired entry (retransmit or exhausted)",
    ),
    counter(
        "transport.rto.timer_retransmits",
        "tpdus",
        "Session::emit repaired a TPDU because its retransmission timer fired",
    ),
    counter(
        "transport.rx.bad_packets",
        "packets",
        "Receiver::handle_packet refused a packet the wire parser rejected",
    ),
    histogram(
        "transport.rx.buffered_bytes",
        "bytes",
        "bytes staged in the reorder queue after each arrival that buffered",
    ),
    counter(
        "transport.rx.chunks_accepted",
        "chunks",
        "Receiver::handle_chunk admitted a fresh data chunk into its group",
    ),
    counter(
        "transport.rx.data_touches",
        "bytes",
        "payload bytes the receiver touched (placement plus any buffering)",
    ),
    counter(
        "transport.rx.duplicate_chunks",
        "chunks",
        "Receiver::handle_chunk discarded an already-covered data chunk",
    ),
    counter(
        "transport.rx.holding_delay_ns",
        "ns",
        "virtual time chunks spent staged before in-order release (reorder mode)",
    ),
    counter(
        "transport.rx.overlap_conflicts",
        "conflicts",
        "Receiver saw a fragment overlap already-held positions with differing bytes",
    ),
    counter(
        "transport.rx.tpdus_delivered",
        "tpdus",
        "Receiver::try_complete delivered a TPDU whose WSC-2 invariant verified",
    ),
    counter(
        "transport.rx.tpdus_failed",
        "tpdus",
        "Receiver::group_failure condemned a TPDU (ED mismatch, inconsistency, bad chunk)",
    ),
    counter(
        "transport.session.burst_deferrals",
        "tpdus",
        "Session::emit deferred a repair TPDU to respect the per-pump burst cap",
    ),
    counter(
        "transport.session.dead_verdicts",
        "verdicts",
        "Session::emit reached the sticky PeerUnreachable verdict under DegradePolicy::Abort",
    ),
    counter(
        "transport.session.packets_emitted",
        "packets",
        "packets Session::emit handed to the network this pump",
    ),
    counter(
        "transport.session.pressure_deferrals",
        "deferrals",
        "Session::emit deferred a repair pass or due timer on peer budget back-pressure",
    ),
    counter(
        "transport.session.pumps",
        "calls",
        "Session::pump invocations (one per virtual-clock tick)",
    ),
    counter(
        "transport.table.admissions",
        "connections",
        "ConnTable admitted a connection (fresh receiver or re-armed pooled shell)",
    ),
    counter(
        "transport.table.evictions",
        "connections",
        "ConnTable evicted a connection (capacity LRU, idle sweep, or explicit retire)",
    ),
    histogram(
        "transport.table.occupancy",
        "connections",
        "live connections in ConnTable, observed at each admission",
    ),
    counter(
        "transport.table.pressure_crossings",
        "crossings",
        "ConnTable::under_pressure crossed from false to true (a degradation trigger)",
    ),
    histogram(
        "transport.table.probe_len",
        "slots",
        "robin-hood probe-sequence length walked by each ConnTable index insert",
    ),
    counter(
        "transport.table.refusals",
        "connections",
        "ConnTable refused an admission: table full and nothing evictable",
    ),
    counter(
        "vreasm.tracker.accepts",
        "fragments",
        "PduTracker::offer admitted a consistent, novel fragment",
    ),
    histogram(
        "vreasm.tracker.fragments",
        "runs",
        "disjoint runs in the interval tracker after each accepted fragment (occupancy)",
    ),
    histogram(
        "wsc.runs_per_tpdu",
        "runs",
        "disordered WSC-2 runs absorbed per delivered TPDU",
    ),
    counter(
        "wsc.verify_fail",
        "tpdus",
        "a completed group's WSC-2 digest did not match its ED chunk",
    ),
    counter(
        "wsc.verify_pass",
        "tpdus",
        "a completed group's WSC-2 digest matched its ED chunk",
    ),
];

/// Direct-mapped label acceleration table size (power of two). The paper's
/// thesis applied to the registry itself: resolving a metric *label* to its
/// cell must cost a hash and one verifying compare, not a binary search
/// through names that share a `transport.` prefix — the search was the
/// measurable part of the always-on hot-path overhead.
const FAST_SLOTS: usize = 2048;

/// Mixes a name's length, a window from its middle, and its last eight
/// bytes into a table index under `seed`. The suffix alone is not enough:
/// pairs like `transport.budget.shed_bytes` / `transport.rx.buffered_bytes`
/// agree on length and final eight bytes, so the middle window is what
/// separates them (the shared `transport.` prefix never would).
#[inline]
fn fast_idx(name: &str, seed: u64) -> usize {
    let b = name.as_bytes();
    let mut h = seed ^ b.len() as u64;
    let mid = b.len() / 2;
    for &c in &b[mid..(mid + 8).min(b.len())] {
        h = h.wrapping_mul(0x100000001B3) ^ c as u64;
    }
    for &c in &b[b.len().saturating_sub(8)..] {
        h = h.wrapping_mul(0x100000001B3) ^ c as u64;
    }
    (h ^ (h >> 29)) as usize & (FAST_SLOTS - 1)
}

/// The chosen hash seed plus `slot + 1` per table cell (0 = empty, fall
/// back to binary search).
static FAST: std::sync::OnceLock<(u64, [u16; FAST_SLOTS])> = std::sync::OnceLock::new();

/// Builds the table under the first seed (tried in a fixed order, so the
/// result is deterministic) that places every catalogued name without
/// collision. The search is a handful of iterations for any plausible
/// catalogue size; if 64 seeds all collide, the last table stands and the
/// displaced names resolve through the binary-search fallback.
fn fast_table() -> &'static (u64, [u16; FAST_SLOTS]) {
    FAST.get_or_init(|| {
        let mut last = (0, [0u16; FAST_SLOTS]);
        for seed in 0..64u64 {
            let mut t = [0u16; FAST_SLOTS];
            let mut clean = true;
            for (i, s) in CATALOGUE.iter().enumerate() {
                let idx = fast_idx(s.name, seed);
                clean &= t[idx] == 0;
                if t[idx] == 0 {
                    t[idx] = i as u16 + 1;
                }
            }
            last = (seed, t);
            if clean {
                break;
            }
        }
        last
    })
}

/// True when every catalogued name resolves on the direct-mapped fast path
/// (no entry was displaced to the binary-search fallback).
pub fn fast_path_complete() -> bool {
    let (_, t) = fast_table();
    let placed = t.iter().filter(|&&v| v != 0).count();
    placed == CATALOGUE.len()
}

/// Returns the catalogue slot index of `name`, if declared.
#[inline]
pub fn lookup(name: &str) -> Option<usize> {
    if name.is_empty() {
        return None;
    }
    let (seed, table) = fast_table();
    let hit = table[fast_idx(name, *seed)];
    if hit != 0 {
        let cand = (hit - 1) as usize;
        if CATALOGUE[cand].name == name {
            return Some(cand);
        }
    }
    CATALOGUE.binary_search_by(|s| s.name.cmp(name)).ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_is_sorted_and_unique() {
        for w in CATALOGUE.windows(2) {
            assert!(
                w[0].name < w[1].name,
                "catalogue out of order at {} / {}",
                w[0].name,
                w[1].name
            );
        }
    }

    #[test]
    fn lookup_finds_every_entry() {
        for (i, s) in CATALOGUE.iter().enumerate() {
            assert_eq!(lookup(s.name), Some(i));
        }
        assert_eq!(lookup("no.such.metric"), None);
        assert_eq!(lookup(""), None);
    }

    #[test]
    fn fast_table_covers_the_whole_catalogue_without_collisions() {
        // Every committed name must resolve on the direct-mapped fast path;
        // a collision silently demotes a hot-path label back to the binary
        // search, which is exactly the cost the table exists to remove. The
        // seed search must therefore have found a collision-free placement.
        assert!(fast_path_complete(), "no collision-free hash seed found");
    }

    #[test]
    fn names_are_lowercase_dotted() {
        for s in CATALOGUE {
            assert!(s.name.contains('.'), "{} has no layer prefix", s.name);
            assert!(
                s.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "{} is not lowercase dotted",
                s.name
            );
            assert!(!s.unit.is_empty() && !s.help.is_empty());
        }
    }
}
