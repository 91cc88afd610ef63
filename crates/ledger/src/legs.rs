//! Isolated per-layer legs: each layer's public entry points timed alone
//! over the arrival trace a pipeline pass recorded, so adjacent layers can
//! be subtracted and the remainder (`glue`, `demux`, handoff) is a number.
//!
//! Every leg loops over the whole trace until its share of the run's
//! seconds has passed, takes one sample per loop, and reports the fastest
//! loop: interference on a shared host only ever adds time, so the least
//! disturbed loop is the one that repeats from run to run, and legs taken
//! seconds apart still subtract cleanly.
//! Everything a leg needs that is not the layer under test (span lists,
//! payload slices, first-seen classification) is worked out beforehand in
//! [`Index::build`], outside any timed section.

use std::borrow::Cow;
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chunks_core::chunk::{Chunk, ChunkHeader};
use chunks_core::frag::extract;
use chunks_core::label::ChunkType;
use chunks_core::packet::{pack, spans, validate, Packet};
use chunks_core::wire::{decode_chunk_ref, WIRE_HEADER_LEN};
use chunks_gf::fold_be_bytes;
use chunks_obs::{AlwaysOnSink, ObsSink, ShardSink};
use chunks_transport::{
    AlfFrame, ConnTable, ConnectionDemux, DemuxEvent, Framer, ParallelOutcome, Receiver, RxEvent,
    TableConfig,
};
use chunks_vreasm::{PduTracker, TrackEvent};
use chunks_wsc::{TpduInvariant, Wsc2Stream};

use crate::alloc;
use crate::error::LedgerError;
use crate::stats::{fastest, median, percentile, MIB};
use crate::workload::{Inputs, Spec, BATCH};

/// How long each leg runs.
#[derive(Clone, Copy, Debug)]
pub struct LegBudget {
    /// Timed seconds per leg (at least this much, at least one sample).
    pub seconds: f64,
    /// Whether to discard a first, untimed loop (off under `--smoke`).
    pub warm_up: bool,
}

/// Per-layer metric values by name.
pub type Values = Vec<(&'static str, f64)>;

/// Calls `once` (which returns what its timed section measured, usually ns)
/// until the budget is spent; returns the samples. `once` is told whether
/// its sample will be kept.
fn sample(budget: LegBudget, mut once: impl FnMut(bool) -> f64) -> Vec<f64> {
    if budget.warm_up {
        once(false);
    }
    let limit = Duration::from_secs_f64(budget.seconds);
    let begin = Instant::now();
    let mut samples = Vec::new();
    loop {
        samples.push(once(true));
        if begin.elapsed() >= limit {
            return samples;
        }
    }
}

fn ns(from: Instant) -> f64 {
    from.elapsed().as_nanos() as f64
}

/// One `PduTracker::offer` call to replay.
struct Offer {
    tpdu: u32,
    sn: u64,
    len: u64,
    st: bool,
}

/// One `TpduInvariant::absorb_chunk` call to replay: a first-seen data
/// chunk, or the uncovered part of a partly duplicate one.
struct Absorb<'a> {
    tpdu: u32,
    header: ChunkHeader,
    payload: Cow<'a, [u8]>,
}

/// The arrival trace, taken apart once so each leg times only its layer.
pub struct Index<'a> {
    arrivals: &'a [Vec<Packet>],
    /// Packets in the trace.
    pub packets: u64,
    /// Chunks in the trace (data + ED).
    pub chunks: u64,
    /// Wire bytes in the trace.
    pub wire_bytes: u64,
    /// Malformed packets in the trace.
    pub bad_packets: u64,
    chunk_wire: Vec<&'a [u8]>,
    chunk_conn: Vec<u32>,
    payloads: Vec<&'a [u8]>,
    payload_bytes: u64,
    offers: Vec<Offer>,
    absorbs: Vec<Absorb<'a>>,
    absorbed_bytes: u64,
    eds: Vec<Option<[u8; 8]>>,
    fragments_max: usize,
    per_conn: Vec<(u32, Vec<Packet>)>,
}

impl<'a> Index<'a> {
    /// Walks the trace once. First-seen classification mirrors the
    /// receiver: a chunk overlapping data already tracked contributes only
    /// its uncovered sub-ranges (Appendix C extraction).
    pub fn build(spec: &Spec, arrivals: &'a [Vec<Packet>]) -> Result<Index<'a>, LedgerError> {
        let mut ix = Index {
            arrivals,
            packets: 0,
            chunks: 0,
            wire_bytes: 0,
            bad_packets: 0,
            chunk_wire: Vec::new(),
            chunk_conn: Vec::new(),
            payloads: Vec::new(),
            payload_bytes: 0,
            offers: Vec::new(),
            absorbs: Vec::new(),
            absorbed_bytes: 0,
            eds: Vec::new(),
            fragments_max: 0,
            per_conn: Vec::new(),
        };
        let mut tpdu_of: HashMap<(u32, u32), u32> = HashMap::new();
        let mut conn_of: HashMap<u32, usize> = HashMap::new();
        let mut trackers: Vec<PduTracker> = Vec::new();
        let bad = |detail: String| LedgerError::LegFailed {
            workload: spec.name,
            detail,
        };
        for packet in arrivals.iter().flatten() {
            ix.packets += 1;
            ix.wire_bytes += packet.bytes.len() as u64;
            if validate(packet).is_err() {
                ix.bad_packets += 1;
                continue;
            }
            let mut owner = None;
            for (at, end) in spans(packet) {
                let wire: &'a [u8] = &packet.bytes[at..end];
                let (chunk, _) = decode_chunk_ref(wire)
                    .map_err(|e| bad(format!("validated span does not decode: {e}")))?;
                let h = chunk.header;
                if !matches!(h.ty, ChunkType::Data | ChunkType::ErrorDetection) {
                    continue;
                }
                ix.chunks += 1;
                ix.chunk_wire.push(wire);
                ix.chunk_conn.push(h.conn.id);
                owner.get_or_insert(h.conn.id);
                let start = if h.ty == ChunkType::Data {
                    h.conn.sn.wrapping_sub(h.tpdu.sn)
                } else {
                    h.conn.sn
                };
                let tpdu = *tpdu_of.entry((h.conn.id, start)).or_insert_with(|| {
                    trackers.push(PduTracker::new());
                    ix.eds.push(None);
                    (trackers.len() - 1) as u32
                });
                if h.ty == ChunkType::ErrorDetection {
                    if let Ok(digest) = <[u8; 8]>::try_from(chunk.payload) {
                        ix.eds[tpdu as usize] = Some(digest);
                    }
                    continue;
                }
                ix.payloads.push(chunk.payload);
                ix.payload_bytes += chunk.payload.len() as u64;
                let (sn, len) = (h.tpdu.sn as u64, h.len as u64);
                ix.offers.push(Offer {
                    tpdu,
                    sn,
                    len,
                    st: h.tpdu.st,
                });
                let tracker = &mut trackers[tpdu as usize];
                if tracker.overlap(sn, len) == 0 {
                    if tracker.offer(sn, len, h.tpdu.st) == TrackEvent::Accepted {
                        ix.absorbed_bytes += chunk.payload.len() as u64;
                        ix.absorbs.push(Absorb {
                            tpdu,
                            header: h,
                            payload: Cow::Borrowed(chunk.payload),
                        });
                    }
                } else {
                    let owned: Chunk = chunk.to_chunk();
                    for (lo, hi) in tracker.uncovered(sn, len) {
                        let piece = extract(&owned, (lo - sn) as u32, (hi - lo) as u32)
                            .map_err(|e| bad(format!("uncovered range does not extract: {e}")))?;
                        let p = piece.header;
                        if tracker.offer(p.tpdu.sn as u64, p.len as u64, p.tpdu.st)
                            == TrackEvent::Accepted
                        {
                            ix.absorbed_bytes += piece.payload.len() as u64;
                            ix.absorbs.push(Absorb {
                                tpdu,
                                header: p,
                                payload: Cow::Owned(piece.payload.to_vec()),
                            });
                        }
                    }
                }
                ix.fragments_max = ix.fragments_max.max(tracker.fragments());
            }
            if let Some(id) = owner {
                let slot = *conn_of.entry(id).or_insert_with(|| {
                    ix.per_conn.push((id, Vec::new()));
                    ix.per_conn.len() - 1
                });
                ix.per_conn[slot].1.push(packet.clone());
            }
        }
        ix.per_conn.sort_by_key(|(id, _)| *id);
        Ok(ix)
    }

    fn per_chunk(&self, total_ns: f64) -> f64 {
        total_ns / self.chunks.max(1) as f64
    }
}

/// `core.validate_spans.*`: `validate` + the `spans` walk per packet.
fn leg_validate_spans(ix: &Index, budget: LegBudget) -> f64 {
    fastest(&sample(budget, |_| {
        let t = Instant::now();
        let mut chunks = 0usize;
        for packet in ix.arrivals.iter().flatten() {
            if validate(packet).is_ok() {
                chunks += spans(packet).count();
            }
        }
        black_box(chunks);
        ns(t)
    }))
}

/// `core.decode.*`: `decode_chunk_ref` per span.
fn leg_decode(ix: &Index, budget: LegBudget) -> f64 {
    fastest(&sample(budget, |_| {
        let t = Instant::now();
        for wire in &ix.chunk_wire {
            let _ = black_box(decode_chunk_ref(black_box(wire)));
        }
        ns(t)
    }))
}

/// `gf.fold.*`: `fold_be_bytes` over every data-chunk payload.
fn leg_fold(ix: &Index, budget: LegBudget) -> f64 {
    fastest(&sample(budget, |_| {
        let t = Instant::now();
        for payload in &ix.payloads {
            black_box(fold_be_bytes(black_box(payload)));
        }
        ns(t)
    }))
}

/// `vreasm.track.*`: `PduTracker::offer` per data chunk, arrival order.
/// Returns `(fastest loop's ns, duplicate offers)`.
fn leg_track(ix: &Index, budget: LegBudget) -> (f64, u64) {
    let mut trackers: Vec<PduTracker> = (0..ix.eds.len()).map(|_| PduTracker::new()).collect();
    let mut duplicates = 0u64;
    let samples = sample(budget, |_| {
        for tracker in &mut trackers {
            tracker.clear();
        }
        duplicates = 0;
        let t = Instant::now();
        for o in &ix.offers {
            let event = trackers[o.tpdu as usize].offer(o.sn, o.len, o.st);
            duplicates += (event == TrackEvent::Duplicate) as u64;
        }
        ns(t)
    });
    (fastest(&samples), duplicates)
}

/// `wsc.absorb.*`: one `TpduInvariant` per TPDU, `absorb_chunk` per
/// first-seen data chunk in arrival order, `matches` against the ED digest.
/// Returns `(fastest loop's ns, runs per TPDU, TPDUs that failed to verify)`.
fn leg_absorb(spec: &Spec, ix: &Index, budget: LegBudget) -> (f64, f64, u64) {
    let mut runs = 0u64;
    let mut failed = 0u64;
    let samples = sample(budget, |_| {
        let mut invariants: Vec<TpduInvariant> = (0..ix.eds.len())
            .map(|_| TpduInvariant::new(spec.layout()).expect("layout fits"))
            .collect();
        failed = 0;
        let t = Instant::now();
        for a in &ix.absorbs {
            if invariants[a.tpdu as usize]
                .absorb_chunk(&a.header, &a.payload)
                .is_err()
            {
                failed += 1;
            }
        }
        for (inv, ed) in invariants.iter().zip(&ix.eds) {
            failed += !ed.is_some_and(|digest| inv.matches(digest)) as u64;
        }
        let took = ns(t);
        runs = invariants.iter().map(TpduInvariant::absorbed_runs).sum();
        took
    });
    (
        fastest(&samples),
        runs as f64 / ix.eds.len().max(1) as f64,
        failed,
    )
}

/// `core.pack.*`: `pack` over the chunks the senders frame (the framer is
/// run beforehand; only `pack` is timed). Returns `(fastest loop's ns, wire
/// bytes)`.
fn leg_pack(spec: &Spec, inputs: &Inputs, budget: LegBudget) -> Result<(f64, u64), LedgerError> {
    let chunks: Vec<Vec<Chunk>> = inputs
        .ids
        .iter()
        .zip(&inputs.messages)
        .map(|(&id, message)| {
            let frame = AlfFrame {
                id: 0x10 + id,
                len_elements: message.len() as u32,
            };
            Framer::new(spec.params(id), spec.layout())
                .frame_stream(message, &[frame], false)
                .iter()
                .flat_map(|tpdu| tpdu.all_chunks())
                .collect()
        })
        .collect();
    let mut wire = 0u64;
    let mut error = None;
    let samples = sample(budget, |_| {
        let input = chunks.clone();
        wire = 0;
        let t = Instant::now();
        for conn in input {
            match pack(conn, spec.mtu) {
                Ok(packets) => wire += packets.iter().map(|p| p.bytes.len() as u64).sum::<u64>(),
                Err(e) => error = Some(e),
            }
        }
        ns(t)
    });
    match error {
        Some(e) => Err(LedgerError::Pack(e)),
        None => Ok((fastest(&samples), wire)),
    }
}

/// What one replay of the split trace through bare receivers measured.
struct Replay {
    total_ns: f64,
    allocs: u64,
    p50_us: f64,
    p99_us: f64,
}

/// Replays the trace, split by `C.ID`, through bare `Receiver::ingest_batch`
/// one connection after another, a timing span per batch.
fn replay_receivers(
    ix: &Index,
    receivers: &mut [Receiver],
    events: &mut Vec<RxEvent>,
    batch_ns: &mut Vec<f64>,
) -> Replay {
    for rx in receivers.iter_mut() {
        rx.quiesce();
    }
    batch_ns.clear();
    let allocs_before = alloc::allocs();
    for ((_, packets), rx) in ix.per_conn.iter().zip(receivers.iter_mut()) {
        for (i, batch) in packets.chunks(BATCH).enumerate() {
            let t = Instant::now();
            rx.ingest_batch(batch, i as u64, events);
            batch_ns.push(ns(t));
            events.clear();
        }
    }
    let allocs = alloc::allocs() - allocs_before;
    let total_ns = batch_ns.iter().sum::<f64>();
    let p50_us = percentile(batch_ns, 0.50) / 1e3;
    let p99_us = percentile(batch_ns, 0.99) / 1e3;
    Replay {
        total_ns,
        allocs,
        p50_us,
        p99_us,
    }
}

/// The trace as the front-ends see it: `(now, batch)` with `now` counting
/// `BATCH`-packet groups across rounds, exactly as the pipeline feeds them.
fn batches(arrivals: &[Vec<Packet>]) -> impl Iterator<Item = (u64, &[Packet])> {
    arrivals
        .iter()
        .flat_map(|round| round.chunks(BATCH))
        .enumerate()
        .map(|(now, batch)| (now as u64, batch))
}

/// Feeds the whole trace to the serial demux.
fn feed_demux(arrivals: &[Vec<Packet>], demux: &mut ConnectionDemux, events: &mut Vec<DemuxEvent>) {
    for (now, batch) in batches(arrivals) {
        for packet in batch {
            demux.ingest(packet, now, events);
        }
        events.clear();
    }
}

/// `(C.ID, delivered (start, digest) list)` per connection plus the folded
/// delivery transcript — what serial and parallel receivers must agree on.
type Transcript = (Vec<(u32, Vec<(u64, [u8; 8])>)>, [u8; 8]);

fn transcript<'r>(receivers: impl Iterator<Item = (u32, &'r Receiver)>) -> Transcript {
    let mut stream = Wsc2Stream::new();
    let mut conns = Vec::new();
    for (id, rx) in receivers {
        let digests = rx.delivered_digests();
        for (start, _) in &digests {
            if let Some(code) = rx.delivered_code(*start) {
                stream.fold_code(&code);
            }
        }
        conns.push((id, digests));
    }
    conns.sort_by_key(|(id, _)| *id);
    (conns, stream.digest())
}

/// Checks a parallel outcome against the serial demux's replay of the same
/// trace: per-connection delivered digests and the transcript digest.
pub fn check_parallel_equivalence(
    spec: &Spec,
    inputs: &Inputs,
    arrivals: &[Vec<Packet>],
    outcome: &ParallelOutcome,
) -> Result<(), LedgerError> {
    let mut demux = spec.demux();
    feed_demux(arrivals, &mut demux, &mut Vec::new());
    let serial = transcript(
        inputs
            .ids
            .iter()
            .map(|&id| (id, demux.receiver(id).expect("registered"))),
    );
    let parallel = transcript(outcome.conns.iter().map(|(&id, r)| (id, &r.receiver)));
    let diverged = |detail: String| LedgerError::ParallelDiverged {
        workload: spec.name,
        detail,
    };
    if serial.0 != parallel.0 {
        let conn = serial
            .0
            .iter()
            .zip(&parallel.0)
            .find(|(s, p)| s != p)
            .map_or(0, |(s, _)| s.0);
        return Err(diverged(format!(
            "delivered digests differ (first on connection {conn})"
        )));
    }
    if parallel.1 != outcome.transcript_digest || serial.1 != outcome.transcript_digest {
        return Err(diverged(format!(
            "transcript digest {:02x?} (merged) vs {:02x?} (serial replay)",
            outcome.transcript_digest, serial.1
        )));
    }
    Ok(())
}

/// Runs every isolated leg over `arrivals` and returns the per-layer values.
pub fn run_legs(
    spec: &Spec,
    inputs: &Inputs,
    arrivals: &[Vec<Packet>],
    workers: usize,
    budget: LegBudget,
) -> Result<Values, LedgerError> {
    let ix = Index::build(spec, arrivals)?;
    let app_mib = spec.total_bytes() as f64 / MIB;
    let wire_mib = ix.wire_bytes as f64 / MIB;
    let per_s = |mib: f64, total_ns: f64| mib / (total_ns / 1e9);
    let failed = |detail: String| LedgerError::LegFailed {
        workload: spec.name,
        detail,
    };
    let mut v: Values = Vec::new();

    // core
    let validate_ns = leg_validate_spans(&ix, budget);
    let decode_ns = leg_decode(&ix, budget);
    let (pack_ns, packed_wire) = leg_pack(spec, inputs, budget)?;
    v.push((
        "core.validate_spans.ns_per_chunk",
        ix.per_chunk(validate_ns),
    ));
    v.push(("core.validate_spans.mib_s", per_s(wire_mib, validate_ns)));
    v.push(("core.decode.ns_per_chunk", ix.per_chunk(decode_ns)));
    v.push(("core.pack.mib_s", per_s(packed_wire as f64 / MIB, pack_ns)));
    v.push((
        "core.header_share",
        (ix.chunks * WIRE_HEADER_LEN as u64) as f64 / ix.wire_bytes.max(1) as f64,
    ));
    v.push(("core.bad_packets", ix.bad_packets as f64));

    // gf, vreasm, wsc
    let fold_ns = leg_fold(&ix, budget);
    v.push((
        "gf.fold.mib_s",
        per_s(ix.payload_bytes as f64 / MIB, fold_ns),
    ));
    let (track_ns, duplicate_offers) = leg_track(&ix, budget);
    v.push((
        "vreasm.track.ns_per_offer",
        track_ns / ix.offers.len().max(1) as f64,
    ));
    v.push(("vreasm.track.ns_per_chunk", ix.per_chunk(track_ns)));
    v.push((
        "vreasm.track.dup_share",
        duplicate_offers as f64 / ix.offers.len().max(1) as f64,
    ));
    v.push(("vreasm.track.fragments_max", ix.fragments_max as f64));
    let (absorb_ns, runs_per_tpdu, verify_failed) = leg_absorb(spec, &ix, budget);
    v.push((
        "wsc.absorb.mib_s",
        per_s(ix.absorbed_bytes as f64 / MIB, absorb_ns),
    ));
    v.push(("wsc.absorb.ns_per_chunk", ix.per_chunk(absorb_ns)));
    v.push(("wsc.absorb.runs_per_tpdu", runs_per_tpdu));
    v.push(("wsc.verify.failed", verify_failed as f64));
    if verify_failed > 0 || ix.bad_packets > 0 {
        return Err(failed(format!(
            "trace replay saw {verify_failed} WSC-2 verification failures and {} malformed packets",
            ix.bad_packets
        )));
    }

    // transport.receiver: bare receivers, one connection after another.
    let mut receivers: Vec<Receiver> = ix
        .per_conn
        .iter()
        .map(|(id, _)| spec.receiver(*id))
        .collect();
    let mut events: Vec<RxEvent> = Vec::with_capacity(spec.events_capacity());
    let mut batch_ns: Vec<f64> = Vec::with_capacity(
        ix.per_conn
            .iter()
            .map(|(_, p)| p.len().div_ceil(BATCH))
            .sum(),
    );
    let mut steady_allocs = 0u64;
    let mut steady_loops = 0u64;
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    // Allocations count over the kept loops: the discarded first loop has
    // warmed every pool. (Under `--smoke` the only loop is the cold one.)
    let rx_samples = sample(budget, |kept| {
        let r = replay_receivers(&ix, &mut receivers, &mut events, &mut batch_ns);
        if kept {
            steady_allocs += r.allocs;
            steady_loops += 1;
            p50.push(r.p50_us);
            p99.push(r.p99_us);
        }
        r.total_ns
    });
    let rx_ns = fastest(&rx_samples);
    let mut delivered = 0u64;
    let mut tpdus_failed = 0u64;
    let mut duplicates = 0u64;
    let mut touches = 0u64;
    for rx in &receivers {
        delivered += rx.verified_prefix();
        tpdus_failed += rx.stats.tpdus_failed;
        duplicates += rx.stats.duplicate_chunks;
        touches += rx.stats.data_touches;
    }
    if delivered != spec.total_bytes() {
        return Err(failed(format!(
            "bare-receiver replay delivered {delivered} of {} bytes",
            spec.total_bytes()
        )));
    }
    let glue_ns = rx_ns - (validate_ns + decode_ns + track_ns + absorb_ns);
    v.push(("transport.receiver.mib_s", per_s(app_mib, rx_ns)));
    v.push(("transport.receiver.ns_per_chunk", ix.per_chunk(rx_ns)));
    v.push(("transport.receiver.batch_p50_us", fastest(&p50)));
    v.push(("transport.receiver.batch_p99_us", fastest(&p99)));
    v.push((
        "transport.receiver.allocs_per_chunk",
        steady_allocs as f64 / (steady_loops.max(1) * ix.chunks.max(1)) as f64,
    ));
    v.push((
        "transport.receiver.glue_ns_per_chunk",
        ix.per_chunk(glue_ns),
    ));
    v.push((
        "transport.receiver.dup_share",
        duplicates as f64 / ix.chunks.max(1) as f64,
    ));
    v.push((
        "transport.receiver.touches_per_byte",
        touches as f64 / delivered.max(1) as f64,
    ));
    v.push(("transport.receiver.tpdus_failed", tpdus_failed as f64));

    // obs: the same replay with the always-on sink installed, interleaved
    // with null-sink replays; median of paired ratios.
    let always_on: Arc<dyn ObsSink> = ShardSink::wrap(AlwaysOnSink::shared());
    let mut flip = false;
    let ratios = sample(budget, |_| {
        let mut timed_with = |sink: Arc<dyn ObsSink>| {
            for rx in receivers.iter_mut() {
                rx.set_obs(Arc::clone(&sink));
            }
            replay_receivers(&ix, &mut receivers, &mut events, &mut batch_ns).total_ns
        };
        flip = !flip;
        let (on, off) = if flip {
            let on = timed_with(Arc::clone(&always_on));
            (on, timed_with(chunks_obs::null()))
        } else {
            let off = timed_with(chunks_obs::null());
            (timed_with(Arc::clone(&always_on)), off)
        };
        (on / off - 1.0) * 100.0
    });
    v.push(("obs.always_on_overhead_pct", median(&ratios)));

    // transport.table: admission (timed, heap delta) then lookups.
    let ids = &inputs.ids;
    let mut admit_ns = Vec::new();
    let mut bytes_per_conn = 0.0;
    let mut table = None;
    for _ in 0..3 {
        // Free the previous table first, so the heap delta is one table's.
        drop(table.take());
        let live = alloc::live_bytes();
        let t = Instant::now();
        let mut fresh = ConnTable::new(TableConfig::default());
        for &id in ids {
            fresh.admit(spec.params(id), 0, || spec.receiver(id), |_| {});
        }
        admit_ns.push(ns(t) / ids.len() as f64);
        bytes_per_conn = (alloc::live_bytes() - live) as f64 / ids.len() as f64;
        table = Some(fresh);
    }
    let mut table = table.expect("the loop ran");
    let lookup_ns = fastest(&sample(budget, |_| {
        let t = Instant::now();
        for (now, &id) in ix.chunk_conn.iter().enumerate() {
            black_box(table.lookup(black_box(id), now as u64).is_some());
        }
        ns(t)
    }));
    drop(table);
    v.push(("transport.table.lookup_ns", ix.per_chunk(lookup_ns)));
    v.push(("transport.table.admit_ns_per_conn", fastest(&admit_ns)));
    v.push(("transport.table.bytes_per_conn", bytes_per_conn));

    // transport.mux: the serial demux over the whole interleaved trace. It
    // takes over the very receivers the bare-receiver leg used, so the two
    // legs differ by the table probe and the interleaving, not by where
    // the allocator happened to place their buffers.
    let mut demux = ConnectionDemux::new();
    for ((id, _), mut rx) in ix.per_conn.iter().zip(receivers) {
        rx.set_obs(chunks_obs::null());
        demux.register(*id, rx);
    }
    let mut demux_events: Vec<DemuxEvent> = Vec::with_capacity(spec.events_capacity());
    let mux_ns = fastest(&sample(budget, |_| {
        for &id in ids {
            demux.receiver_mut(id).expect("registered").quiesce();
        }
        let t = Instant::now();
        feed_demux(arrivals, &mut demux, &mut demux_events);
        ns(t)
    }));
    let mux_delivered: u64 = ids
        .iter()
        .map(|&id| demux.receiver(id).expect("registered").verified_prefix())
        .sum();
    if mux_delivered != spec.total_bytes() {
        return Err(failed(format!(
            "demux replay delivered {mux_delivered} of {} bytes",
            spec.total_bytes()
        )));
    }
    drop(demux);
    v.push(("transport.mux.mib_s", per_s(app_mib, mux_ns)));
    v.push(("transport.mux.ns_per_chunk", ix.per_chunk(mux_ns)));
    v.push((
        "transport.mux.demux_ns_per_chunk",
        ix.per_chunk(mux_ns - rx_ns),
    ));

    // transport.parallel: the threaded engine over the same trace, built
    // and reserved outside the window, closed by drain() + finish().
    let mut dispatch = Vec::new();
    let mut close_wait = Vec::new();
    let mut busy_max = Vec::new();
    let mut merge = Vec::new();
    let mut checked = false;
    let mut error = None;
    let par_ns = fastest(&sample(budget, |_| {
        let mut pr = spec.parallel(workers);
        let t = Instant::now();
        for (now, batch) in batches(arrivals) {
            pr.ingest_batch(batch, now);
        }
        let dispatched = ns(t);
        pr.drain();
        let outcome = pr.finish();
        let total = ns(t);
        dispatch.push(dispatched);
        close_wait.push((total - dispatched - outcome.timings.merge_ns as f64).max(0.0));
        busy_max.push(outcome.timings.process_max_ns as f64);
        merge.push(outcome.timings.merge_ns as f64);
        if !checked {
            checked = true;
            error = check_parallel_equivalence(spec, inputs, arrivals, &outcome).err();
        }
        total
    }));
    if let Some(e) = error {
        return Err(e);
    }
    v.push(("transport.parallel.mib_s", per_s(app_mib, par_ns)));
    v.push((
        "transport.parallel.dispatch_ns_per_chunk",
        ix.per_chunk(fastest(&dispatch)),
    ));
    v.push((
        "transport.parallel.drain_wait_ms",
        fastest(&close_wait) / 1e6,
    ));
    v.push((
        "transport.parallel.worker_busy_max_ms",
        fastest(&busy_max) / 1e6,
    ));
    v.push(("transport.parallel.merge_ms", fastest(&merge) / 1e6));
    v.push(("transport.parallel.speedup_vs_mux", mux_ns / par_ns));
    v.push(("transport.parallel.workers", workers as f64));
    Ok(v)
}
