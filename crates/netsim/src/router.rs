//! In-network packet conversion between MTUs.
//!
//! "Chunk fragmentation is easiest to understand if we think of packets as
//! envelopes that carry chunks. Whenever we must change from one packet size
//! to another packet size, it is as if chunks are emptied from one size of
//! envelope and placed in another size of envelope" (§3.1). Moving to
//! *larger* envelopes offers the three choices of Figure 4, all implemented
//! here; the baseline (IP-style) routers implement the same
//! [`PacketTransform`] trait in `chunks-baseline`.
//!
//! # Wire to wire
//!
//! A split adjusts `SN`, `LEN` and the `ST` bits and nothing else
//! (Appendix C), so [`ChunkRouter`] under [`RefragPolicy::Repack`] and
//! [`RefragPolicy::OnePerPacket`] never builds a chunk. It runs the
//! receiver's production walk over each ingress frame once, on arrival —
//! [`validate`], then [`spans`] and [`decode_header`] — and keeps the labels
//! beside the frame's handle. The `Repack` batching window is therefore the
//! validated ingress *frames*, not decoded chunks. Only
//! [`RefragPolicy::Reassemble`], which must sort and merge, decodes to owned
//! chunks.
//!
//! # One buffer per window
//!
//! An emission is placed twice with the greedy first-fit [`pack`] is built
//! on ([`PacketBuilder::place`]:
//! [`split_header`](chunks_core::frag::split_header) plus a sub-slice).
//! When it is due, a dry run over the labels alone
//! ([`PacketBuilder::measuring`]) says where every egress frame will end,
//! and refuses a batch before anything is allocated. The writes wait: fed a
//! batch ([`PacketTransform::ingest_batch`]), the router measures emissions
//! up to 64 KiB of egress (a window), then writes the window's frames back
//! to back into one buffer of exactly that size, each payload byte once,
//! from the frame it arrived in, and hands them on as slices of it, each
//! stamped with the time of the ingress frame that emitted it. A window
//! costs two allocations however many frames it makes (the buffer and its
//! shared owner); the buffer is freed with its last frame. A window ends
//! with its batch (a single frame is a batch of one), so the frames and
//! their times do not depend on the batching, and a router with a
//! recording sink writes after every frame, so that its records follow the
//! frames. The frames are, for any ingress sequence, byte for byte what
//! [`unpack`] → window → [`pack`] produces; the property tests below keep
//! that reference and the batching's equivalence.
//!
//! A transform that forwards a frame unchanged forwards its handle
//! ([`Passthrough`], `DropOversize`, an unparsable frame through the
//! [`ByzantineRouter`](crate::ByzantineRouter)).

use std::sync::Arc;

use bytes::Bytes;
use chunks_core::chunk::ChunkHeader;
use chunks_core::frag::merge;
use chunks_core::packet::{pack, spans, unpack, validate, Packet, PacketBuilder};
use chunks_core::wire::{decode_header, WIRE_HEADER_LEN};
use chunks_core::Chunk;
use chunks_obs::{ObsSink, SpanId, Stage};

use crate::obs::{frame_chunks, FrameChunk};

/// A stateful frame transformer placed between two links of a path.
pub trait PacketTransform {
    /// Converts one ingress frame, arriving at virtual time `now`, into zero
    /// or more egress frames appended to `out`. The clock only stamps what a
    /// transform records; no conversion depends on it.
    fn ingest(&mut self, now: u64, frame: Bytes, out: &mut Vec<Bytes>);

    /// The batch entry: converts `arrivals`, ingress frames each with the
    /// virtual time it arrived at, and hands every egress frame to `out`
    /// with the time of the ingress frame that emitted it, in emission
    /// order. The default converts a frame at a time with
    /// [`ingest`](Self::ingest).
    fn ingest_batch(
        &mut self,
        arrivals: &mut dyn Iterator<Item = (u64, Bytes)>,
        out: &mut dyn FnMut(u64, Bytes),
    ) {
        let mut emitted = Vec::new();
        for (now, frame) in arrivals {
            self.ingest(now, frame, &mut emitted);
            emitted.drain(..).for_each(|f| out(now, f));
        }
    }

    /// Appends any frames the transform is still holding (e.g. a reassembly
    /// window) to `out`.
    fn flush(&mut self, now: u64, out: &mut Vec<Bytes>) {
        let _ = (now, out);
    }

    /// Attaches an observability sink. The default discards it — only
    /// transforms that instrument their conversions store the sink.
    fn set_obs(&mut self, sink: Arc<dyn ObsSink>) {
        let _ = sink;
    }
}

/// The identity transform: every frame's handle goes on as it came.
#[derive(Debug, Default)]
pub struct Passthrough;

impl PacketTransform for Passthrough {
    fn ingest(&mut self, _now: u64, frame: Bytes, out: &mut Vec<Bytes>) {
        out.push(frame);
    }
}

/// How a chunk router converts between packet sizes (Figure 4).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RefragPolicy {
    /// Split oversized chunks and emit one chunk per egress packet
    /// (Figure 4 method 1: "put one small chunk in each large packet" —
    /// simple, but wastes envelope space).
    OnePerPacket,
    /// Split oversized chunks and pack as many chunks as fit into each
    /// egress packet (method 2: "combine multiple small chunks into a large
    /// packet" — "simpler than and almost as efficient as chunk
    /// reassembly").
    Repack,
    /// Additionally merge adjacent chunks held in a small window before
    /// packing (method 3: "perform chunk reassembly" in the network).
    Reassemble {
        /// Number of chunks held for merging before the window is flushed.
        window: usize,
    },
    /// Do not fragment: drop packets larger than the egress MTU (the
    /// "never fragment — discard" option §3 calls unacceptable; used as a
    /// baseline).
    DropOversize,
}

/// Egress bytes a router measures before it writes them (module docs).
const WINDOW_BYTES: usize = 64 << 10;

/// A router that understands chunk syntax (but, per §3.2, none of the
/// semantics behind the framing levels).
#[derive(Debug)]
pub struct ChunkRouter {
    /// Egress MTU in bytes.
    pub egress_mtu: usize,
    /// Conversion policy.
    pub policy: RefragPolicy,
    /// Decoded chunks held for merging (Reassemble).
    window: Vec<Chunk>,
    /// What the held chunks' payloads lie in: validated ingress frames, or
    /// merged chunks' payloads; from `gathered` on, the frames Repack holds.
    sources: Vec<Bytes>,
    gathered: usize,
    /// The chunks held, in placement order: their source, the label decoded
    /// on arrival and where the payload lies in the source.
    held: Vec<(u32, ChunkHeader, u32, u32)>,
    /// Wire bytes of the chunks of the frames Repack holds.
    window_wire: usize,
    /// Where the chunks of each emission measured, not yet written, end.
    emissions: Vec<usize>,
    /// Where each frame measured ends in the buffer to write, and its time.
    ends: Vec<(usize, u64)>,
    /// Chunks split by this router.
    pub splits: u64,
    /// Chunks merged by this router.
    pub merges: u64,
    /// Packets dropped (DropOversize policy or malformed).
    pub drops: u64,
    obs: Arc<dyn ObsSink>,
    obs_on: bool,
    /// Data-chunk headers still awaiting egress (Repack/Reassemble windows
    /// batch inputs across frames). Populated only when `obs_on`.
    pending: Vec<FrameChunk>,
}

/// Figure 4's placement of `chunks` on `builder` under `policy`, each
/// egress frame ended by `close`: method 1 (`OnePerPacket`) closes after
/// every piece and drops a chunk whose element no frame holds; method 2
/// fills frames greedily and refuses the whole batch (`None`) over such an
/// element. Returns the splits and drops it made. It decides alike on a
/// measuring builder and on a writing one.
fn place<'a>(
    policy: RefragPolicy,
    builder: &mut PacketBuilder,
    chunks: impl Iterator<Item = (ChunkHeader, &'a [u8])>,
    mut close: impl FnMut(&mut PacketBuilder),
) -> Option<(u64, u64)> {
    let (mut splits, mut drops) = (0, 0);
    for (header, payload) in chunks {
        if policy != RefragPolicy::OnePerPacket {
            builder.place(header, payload, &mut close).ok()?;
            continue;
        }
        // Each piece closes its frame; a chunk the empty frame cannot take
        // an element of is refused before any piece goes out.
        let split = |b: &mut PacketBuilder| {
            splits += 1;
            close(b);
        };
        match builder.place(header, payload, split) {
            Ok(()) => close(builder),
            Err(_) => drops += 1,
        }
    }
    if !builder.is_empty() {
        close(builder);
    }
    Some((splits, drops))
}

/// The chunks `held` names, where they lie in `sources`.
fn pieces<'a>(
    sources: &'a [Bytes],
    held: &'a [(u32, ChunkHeader, u32, u32)],
) -> impl Iterator<Item = (ChunkHeader, &'a [u8])> {
    held.iter()
        .map(|&(i, header, lo, hi)| (header, &sources[i as usize][lo as usize..hi as usize]))
}

impl ChunkRouter {
    /// Creates a router with the given egress MTU and policy.
    pub fn new(egress_mtu: usize, policy: RefragPolicy) -> Self {
        ChunkRouter {
            egress_mtu,
            policy,
            window: Vec::new(),
            sources: Vec::new(),
            gathered: 0,
            held: Vec::new(),
            window_wire: 0,
            emissions: Vec::new(),
            ends: Vec::new(),
            splits: 0,
            merges: 0,
            drops: 0,
            obs: chunks_obs::null(),
            obs_on: false,
            pending: Vec::new(),
        }
    }

    /// Records the splits and merges made since `splits0` and `merges0`.
    fn note_counts(&self, splits0: u64, merges0: u64) {
        let obs = &self.obs;
        if self.splits > splits0 {
            obs.counter("netsim.router.splits", self.splits - splits0);
        }
        if self.merges > merges0 {
            obs.counter("netsim.router.repacks", self.merges - merges0);
        }
    }

    /// Ties this conversion's output chunks back to the inputs they came
    /// from: any output whose `X.SN` extent overlaps an input it does not
    /// exactly equal was split or merged in-network, so the router records
    /// a parent→child span link (the Appendix C/D label closure made
    /// visible) plus a `fragment` marker span on the child.
    fn note_outputs<'a>(&mut self, now: u64, outs: impl Iterator<Item = &'a [u8]>) {
        let inputs = std::mem::take(&mut self.pending);
        for f in outs {
            for oc in frame_chunks(f).into_iter().filter(FrameChunk::is_data) {
                let untouched = inputs
                    .iter()
                    .any(|ic| ic.labels == oc.labels && ic.len == oc.len);
                if untouched {
                    continue;
                }
                let mut relabelled = false;
                for ic in inputs.iter().filter(|ic| ic.overlaps(&oc)) {
                    self.obs.span_link(now, ic.labels, oc.labels);
                    relabelled = true;
                }
                if relabelled {
                    let id = SpanId::new(oc.labels, Stage::Fragment);
                    self.obs.span_open(now, id);
                    self.obs.span_close(now, id);
                }
            }
        }
    }

    /// Measures the chunks held since the last emission as one emission made
    /// at `now`; a batch the dry run refuses costs a drop and no bytes.
    fn emit(&mut self, now: u64) {
        let from = self.emissions.last().copied().unwrap_or(0);
        let (frames, base) = (self.ends.len(), self.ends.last().map_or(0, |e| e.0));
        let mut dry = PacketBuilder::measuring(self.egress_mtu);
        let chunks = pieces(&self.sources, &self.held[from..]);
        let close = |b: &mut PacketBuilder| self.ends.push((base + b.close(), now));
        match place(self.policy, &mut dry, chunks, close) {
            Some((splits, drops)) => {
                (self.splits, self.drops) = (self.splits + splits, self.drops + drops);
                self.emissions.push(self.held.len());
            }
            None => {
                self.drops += 1;
                self.ends.truncate(frames);
                self.held.truncate(from);
            }
        }
        (self.gathered, self.window_wire) = (self.sources.len(), 0);
    }

    /// Writes the emissions measured into one buffer of exactly their size,
    /// hands their frames to `out` as slices of it and lets go of the rest.
    fn write(&mut self, out: &mut dyn FnMut(u64, Bytes)) {
        let size = self.ends.last().map_or(0, |e| e.0);
        let mut builder = PacketBuilder::with_buffer(self.egress_mtu, Vec::with_capacity(size));
        let mut from = 0;
        for &to in &self.emissions {
            let chunks = pieces(&self.sources, &self.held[from..to]);
            place(self.policy, &mut builder, chunks, |b| _ = b.close());
            from = to;
        }
        let buf = Bytes::from(builder.take_bytes());
        debug_assert_eq!(buf.len(), size, "the dry runs sized the window");
        let ends = std::mem::take(&mut self.ends);
        let frame = |i: usize| {
            (
                ends[i].1,
                i.checked_sub(1).map_or(0, |j| ends[j].0)..ends[i].0,
            )
        };
        if self.obs_on && !ends.is_empty() {
            self.note_outputs(ends[0].1, (0..ends.len()).map(|i| &buf[frame(i).1]));
        }
        for (now, at) in (0..ends.len()).map(frame) {
            out(now, buf.slice(at));
        }
        // The frames Repack is batching stay, renumbered.
        let gathered = std::mem::take(&mut self.gathered);
        self.sources.drain(..gathered);
        self.held.drain(..from);
        self.held.iter_mut().for_each(|h| h.0 -= gathered as u32);
        self.emissions.clear();
        self.ends = ends;
        self.ends.clear();
    }

    /// Merges the Reassemble window and measures it as one emission.
    fn emit_merged(&mut self, now: u64) {
        // Greedy adjacent merging within the window, order-insensitive.
        let mut chunks = std::mem::take(&mut self.window);
        chunks.sort_by_key(|c| (c.header.tpdu.id, c.header.tpdu.sn));
        let mut merged: Vec<Chunk> = Vec::with_capacity(chunks.len());
        for c in chunks {
            if let Some(last) = merged.last_mut() {
                if let Ok(m) = merge(last, &c) {
                    *last = m;
                    self.merges += 1;
                    continue;
                }
            }
            merged.push(c);
        }
        for c in merged {
            let (at, len) = (self.sources.len() as u32, c.payload.len() as u32);
            self.held.push((at, c.header, 0, len));
            self.sources.push(c.payload);
        }
        self.emit(now);
    }

    /// The conversion of one frame, arriving at `now`, recording nothing:
    /// it measures what it emits (a frame kept whole goes to `out`).
    fn convert(&mut self, now: u64, frame: Bytes, out: &mut dyn FnMut(u64, Bytes)) {
        if self.policy == RefragPolicy::DropOversize {
            if frame.len() <= self.egress_mtu {
                out(now, frame);
            } else {
                self.drops += 1;
            }
            return;
        }
        let packet = Packet { bytes: frame };
        if let RefragPolicy::Reassemble { window } = self.policy {
            let Ok(chunks) = unpack(&packet) else {
                self.drops += 1;
                return;
            };
            self.window.extend(chunks);
            if self.window.len() >= window {
                self.emit_merged(now);
            }
            return;
        }
        // A malformed chunk refuses the whole frame, as at the receiver.
        if validate(&packet).is_err() {
            self.drops += 1;
            return;
        }
        let at = self.sources.len() as u32;
        for (lo, hi) in spans(&packet) {
            let header = decode_header(&packet.bytes[lo..hi]).expect("span of a validated frame");
            self.held
                .push((at, header, (lo + WIRE_HEADER_LEN) as u32, hi as u32));
            self.window_wire += hi - lo;
        }
        self.sources.push(packet.bytes);
        // Repack batches frames until an egress envelope can be filled;
        // this is what lets small-network chunks combine into large packets
        // (Figure 4 method 2).
        if self.policy == RefragPolicy::OnePerPacket || self.window_wire >= self.egress_mtu {
            self.emit(now);
        }
    }

    /// One frame through a router with a recording sink: converted and
    /// written at once, its labels kept until the frames made of them leave.
    fn convert_observed(&mut self, now: u64, frame: Bytes, out: &mut dyn FnMut(u64, Bytes)) {
        if self.policy == RefragPolicy::DropOversize {
            return self.convert(now, frame, out); // Nothing waits; no label changes.
        }
        let held = self.pending.len();
        self.pending
            .extend(frame_chunks(&frame).into_iter().filter(FrameChunk::is_data));
        let (splits0, merges0, drops0) = (self.splits, self.merges, self.drops);
        self.convert(now, frame, out);
        if self.ends.is_empty() && self.drops > drops0 {
            // Refused, not batching: forget the labels that will never
            // leave — this frame's, or the whole window's when the batch
            // went with it.
            let batching = self.sources.len() > self.gathered || !self.window.is_empty();
            self.pending.truncate(if batching { held } else { 0 });
        }
        self.note_counts(splits0, merges0);
        self.write(out);
    }
}

impl PacketTransform for ChunkRouter {
    fn ingest(&mut self, now: u64, frame: Bytes, out: &mut Vec<Bytes>) {
        self.ingest_batch(&mut std::iter::once((now, frame)), &mut |_, f| out.push(f));
    }

    fn ingest_batch(
        &mut self,
        arrivals: &mut dyn Iterator<Item = (u64, Bytes)>,
        out: &mut dyn FnMut(u64, Bytes),
    ) {
        for (now, frame) in arrivals {
            if self.obs_on {
                self.convert_observed(now, frame, out);
            } else {
                self.convert(now, frame, out);
                if self.ends.last().is_some_and(|e| e.0 >= WINDOW_BYTES) {
                    self.write(out);
                }
            }
        }
        self.write(out);
    }

    fn flush(&mut self, now: u64, out: &mut Vec<Bytes>) {
        let (splits0, merges0) = (self.splits, self.merges);
        if self.sources.len() > self.gathered {
            self.emit(now);
        } else if !self.window.is_empty() {
            self.emit_merged(now);
        }
        self.note_counts(splits0, merges0);
        self.write(&mut |_, f| out.push(f));
    }

    fn set_obs(&mut self, sink: Arc<dyn ObsSink>) {
        self.obs_on = sink.enabled();
        self.obs = sink;
    }
}

/// Congestion dropper implementing Turner's suggestion (§3): "if fragments
/// travel along the same route, we have the option of dropping all of the
/// fragments of a TPDU if any fragment must be dropped" — once one chunk of
/// a TPDU is sacrificed, forwarding the TPDU's other chunks only wastes
/// downstream bandwidth, since the TPDU must be retransmitted anyway.
///
/// Drop decisions are driven by a deterministic counter (`drop_every`), and
/// TPDU identity by the fragmentation-invariant `C.SN − T.SN`.
#[derive(Debug)]
pub struct TurnerDropper {
    drop_every: u64,
    seen: u64,
    condemned: std::collections::HashSet<(u32, u32)>,
    /// Chunks dropped as the initial congestion victim.
    pub victims: u64,
    /// Chunks dropped because their TPDU was already condemned.
    pub followers: u64,
}

impl TurnerDropper {
    /// Creates a dropper that victimizes every `drop_every`-th chunk.
    pub fn new(drop_every: u64) -> Self {
        TurnerDropper {
            drop_every: drop_every.max(1),
            seen: 0,
            condemned: std::collections::HashSet::new(),
            victims: 0,
            followers: 0,
        }
    }

    fn tpdu_key(c: &Chunk) -> (u32, u32) {
        (
            c.header.conn.id,
            c.header.conn.sn.wrapping_sub(c.header.tpdu.sn),
        )
    }
}

impl PacketTransform for TurnerDropper {
    fn ingest(&mut self, _now: u64, frame: Bytes, out: &mut Vec<Bytes>) {
        let packet = Packet { bytes: frame };
        let Ok(chunks) = unpack(&packet) else {
            return;
        };
        let mut keep = Vec::new();
        for c in chunks {
            if !c.header.ty.is_control() {
                let key = Self::tpdu_key(&c);
                if self.condemned.contains(&key) {
                    self.followers += 1;
                    continue;
                }
                self.seen += 1;
                if self.seen.is_multiple_of(self.drop_every) {
                    self.victims += 1;
                    self.condemned.insert(key);
                    continue;
                }
            }
            keep.push(c);
        }
        if keep.is_empty() {
            return;
        }
        if let Ok(packets) = pack(keep, packet.bytes.len().max(crate::link::MIN_REPACK_MTU)) {
            out.extend(packets.into_iter().map(|p| p.bytes));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Calls;
    use chunks_core::chunk::byte_chunk;
    use chunks_core::frag::ReassemblyPool;
    use chunks_core::label::FramingTuple;
    use chunks_core::wire::WIRE_HEADER_LEN;

    fn big_chunk(len: u32) -> Chunk {
        let payload: Vec<u8> = (0..len).map(|i| i as u8).collect();
        byte_chunk(
            FramingTuple::new(1, 0, false),
            FramingTuple::new(2, 0, true),
            FramingTuple::new(3, 0, false),
            &payload,
        )
    }

    fn frame_of(chunks: Vec<Chunk>, mtu: usize) -> Bytes {
        let packets = pack(chunks, mtu).unwrap();
        assert_eq!(packets.len(), 1);
        packets[0].bytes.clone()
    }

    fn reassemble(frames: Vec<Bytes>) -> Vec<Chunk> {
        let mut pool = ReassemblyPool::new();
        for bytes in frames {
            for c in unpack(&Packet { bytes }).unwrap() {
                pool.insert(c);
            }
        }
        pool.segments().to_vec()
    }

    #[test]
    fn shrinking_mtu_splits_chunks() {
        let c = big_chunk(100);
        let frame = frame_of(vec![c.clone()], 10_000);
        let small = WIRE_HEADER_LEN + 40;
        let mut r = ChunkRouter::new(small, RefragPolicy::Repack);
        let out = r.ingest_one(frame);
        assert!(out.len() >= 3);
        for f in &out {
            assert!(f.len() <= small);
        }
        let seg = reassemble(out);
        assert_eq!(seg.len(), 1);
        assert_eq!(seg[0], c);
    }

    #[test]
    fn one_per_packet_uses_more_packets_than_repack() {
        let chunks: Vec<Chunk> = (0..6u32)
            .map(|i| {
                byte_chunk(
                    FramingTuple::new(1, i * 10, false),
                    FramingTuple::new(2, i * 10, i == 5),
                    FramingTuple::new(3, i * 10, false),
                    &[i as u8; 10],
                )
            })
            .collect();
        let small = WIRE_HEADER_LEN + 10;
        // Arrive as six small packets, egress MTU large.
        let big = 10 * (WIRE_HEADER_LEN + 10);
        let frames: Vec<Bytes> = chunks
            .iter()
            .map(|c| frame_of(vec![c.clone()], small))
            .collect();

        let mut one = ChunkRouter::new(big, RefragPolicy::OnePerPacket);
        let mut repack = ChunkRouter::new(big, RefragPolicy::Reassemble { window: 6 });
        let out_one: Vec<_> = frames
            .iter()
            .flat_map(|f| one.ingest_one(f.clone()))
            .collect();
        let mut out_re: Vec<_> = frames
            .iter()
            .flat_map(|f| repack.ingest_one(f.clone()))
            .collect();
        out_re.extend(repack.flush_all());
        assert_eq!(out_one.len(), 6, "method 1: one chunk per packet");
        assert_eq!(out_re.len(), 1, "method 3: merged into one envelope");
        assert!(repack.merges > 0);
        // Bytes on the wire shrink with reassembly (fewer headers).
        let b1: usize = out_one.iter().map(Bytes::len).sum();
        let b3: usize = out_re.iter().map(Bytes::len).sum();
        assert!(b3 < b1);
    }

    #[test]
    fn reassemble_window_flushes_remainder() {
        let c = big_chunk(20);
        let frame = frame_of(vec![c.clone()], 10_000);
        let mut r = ChunkRouter::new(10_000, RefragPolicy::Reassemble { window: 8 });
        assert!(r.ingest_one(frame).is_empty(), "held in window");
        let out = r.flush_all();
        assert_eq!(reassemble(out), vec![c]);
    }

    #[test]
    fn drop_oversize_policy() {
        let mut r = ChunkRouter::new(100, RefragPolicy::DropOversize);
        assert_eq!(r.ingest_one(vec![0u8; 100]).len(), 1);
        assert!(r.ingest_one(vec![0u8; 101]).is_empty());
        assert_eq!(r.drops, 1);
    }

    #[test]
    fn malformed_frame_dropped() {
        let mut r = ChunkRouter::new(1000, RefragPolicy::Repack);
        let mut junk = vec![0xFFu8; 64];
        junk[0] = 0x09; // invalid type
        assert!(r.ingest_one(junk).is_empty());
        assert_eq!(r.drops, 1);
    }

    #[test]
    fn refragmentation_is_transparent_end_to_end() {
        // big -> small -> big -> small chain; receiver sees ordinary chunks.
        let c = big_chunk(200);
        let h = WIRE_HEADER_LEN;
        let mut r1 = ChunkRouter::new(h + 50, RefragPolicy::Repack);
        let mut r2 = ChunkRouter::new(h + 170, RefragPolicy::Reassemble { window: 2 });
        let mut r3 = ChunkRouter::new(h + 30, RefragPolicy::Repack);
        let mut frames = vec![frame_of(vec![c.clone()], 10_000)];
        for r in [&mut r1 as &mut dyn PacketTransform, &mut r2, &mut r3] {
            let mut next: Vec<Bytes> = frames.drain(..).flat_map(|f| r.ingest_one(f)).collect();
            next.extend(r.flush_all());
            frames = next;
        }
        let seg = reassemble(frames);
        assert_eq!(seg.len(), 1);
        assert_eq!(seg[0], c);
    }

    #[test]
    fn turner_dropper_condemns_whole_tpdu() {
        // Three TPDUs, four single-chunk frames each.
        let mut frames = Vec::new();
        for t in 0..3u32 {
            for k in 0..4u32 {
                let c = byte_chunk(
                    FramingTuple::new(1, t * 100 + k * 5, false),
                    FramingTuple::new(t, k * 5, k == 3),
                    FramingTuple::new(t, k * 5, false),
                    &[t as u8; 5],
                );
                frames.push(frame_of(vec![c], 1500));
            }
        }
        // Victimize every 5th data chunk: chunk #5 is TPDU 1's second chunk.
        let mut dropper = TurnerDropper::new(5);
        let mut survivors = 0;
        for f in frames {
            survivors += dropper
                .ingest_one(f)
                .iter()
                .map(|f| unpack(&Packet { bytes: f.clone() }).unwrap().len())
                .sum::<usize>();
        }
        // The 5th non-condemned data chunk is TPDU 1's first chunk; the
        // rest of TPDU 1 then follows it into the bin.
        assert_eq!(dropper.victims, 1);
        assert_eq!(dropper.followers, 3, "the TPDU's other three chunks");
        assert_eq!(survivors as u64, 12 - dropper.victims - dropper.followers);
    }

    #[test]
    fn turner_dropper_passes_control_chunks() {
        let ed = Chunk::new(
            chunks_core::chunk::ChunkHeader::control(
                chunks_core::label::ChunkType::ErrorDetection,
                8,
                FramingTuple::new(1, 0, false),
                FramingTuple::new(0, 0, false),
                FramingTuple::new(0, 0, false),
            ),
            bytes::Bytes::from_static(&[0u8; 8]),
        )
        .unwrap();
        let mut dropper = TurnerDropper::new(1); // drop every data chunk
        let out = dropper.ingest_one(frame_of(vec![ed], 1500));
        assert_eq!(out.len(), 1, "control chunks are never victims");
        assert_eq!(dropper.victims, 0);
    }

    /// One emission is one buffer: its frames lie back to back in it, and
    /// a link that corrupts one copies that one first, so its siblings —
    /// and the buffer — keep the bytes the router wrote.
    #[test]
    fn one_emissions_frames_share_a_buffer_and_a_corrupted_one_leaves_the_rest() {
        use crate::link::{Link, LinkConfig};
        let mut r = ChunkRouter::new(WIRE_HEADER_LEN + 40, RefragPolicy::Repack);
        let out = r.ingest_one(frame_of(vec![big_chunk(200)], 10_000));
        assert_eq!(out.len(), 5);
        for pair in out.windows(2) {
            assert_eq!(
                pair[0].as_ptr_range().end,
                pair[1].as_ptr(),
                "written back to back into one buffer"
            );
        }
        let written: Vec<Vec<u8>> = out.iter().map(|f| f.to_vec()).collect();
        let mut link = Link::new(LinkConfig::clean(1500, 0, 0).with_corrupt(1.0), 3);
        let mut delivered = Vec::new();
        link.transmit_into(0, out[2].clone(), &mut delivered);
        assert_ne!(
            delivered[0].1, written[2],
            "the copy on the wire is corrupted"
        );
        assert_eq!(
            out.iter().map(|f| f.to_vec()).collect::<Vec<_>>(),
            written,
            "every frame of the emission, the corrupted one's original included, is intact"
        );
    }

    /// A transform that forwards a frame unchanged forwards its handle.
    #[test]
    fn unchanged_frames_go_on_as_the_same_handle() {
        use crate::byzantine::{ByzantineConfig, ByzantineRouter};
        let frame = frame_of(vec![big_chunk(60)], 10_000);
        let mut junk = vec![0xFFu8; 64];
        junk[0] = 0x09; // invalid type
        let junk = Bytes::from(junk);
        let cases: [(&mut dyn PacketTransform, &Bytes); 3] = [
            (&mut Passthrough, &frame),
            (
                &mut ChunkRouter::new(frame.len(), RefragPolicy::DropOversize),
                &frame,
            ),
            (
                &mut ByzantineRouter::new(ByzantineConfig::ack_dropper(1.0), 1),
                &junk,
            ),
        ];
        for (transform, offered) in cases {
            let out = transform.ingest_one(offered.clone());
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].as_ptr(), offered.as_ptr());
            assert_eq!(out[0].len(), offered.len());
        }
    }

    /// A frame the router refuses must take its labels with it: a truncated
    /// packet followed by its retransmission links each child once, from the
    /// frame that actually left.
    #[test]
    fn dropped_frame_leaves_no_labels_behind() {
        let intact = frame_of(vec![big_chunk(100)], 10_000);
        let truncated = intact.slice(..intact.len() - 7);

        let links_of = |frames: &[&Bytes]| {
            let rec = chunks_obs::Recorder::verbose_tier(1 << 12);
            let mut r = ChunkRouter::new(WIRE_HEADER_LEN + 40, RefragPolicy::Repack);
            r.set_obs(rec.clone());
            let mut emitted = 0;
            for (t, f) in frames.iter().enumerate() {
                emitted += r.ingest_at_one(t as u64, (*f).clone()).len();
            }
            (rec.span_links(), emitted, r.drops)
        };
        let (alone, frames_alone, _) = links_of(&[&intact]);
        assert_eq!(alone.len(), 3, "40 + 40 + 20 elements, one link each");
        let (after_drop, frames_after, drops) = links_of(&[&truncated, &intact]);
        assert_eq!((frames_after, drops), (frames_alone, 1));
        let unstamped = |links: &[chunks_obs::SpanLink]| {
            links
                .iter()
                .map(|l| (l.parent, l.child))
                .collect::<Vec<_>>()
        };
        assert_eq!(unstamped(&after_drop), unstamped(&alone));
    }

    /// The parent commit's router, kept as the reference: decode every
    /// chunk to an owned copy, hold chunks in the window, `pack`, copy each
    /// packet out.
    struct Model {
        mtu: usize,
        policy: RefragPolicy,
        window: Vec<Chunk>,
        wire: usize,
        splits: u64,
        merges: u64,
        drops: u64,
    }

    impl Model {
        fn emit(&mut self, chunks: Vec<Chunk>) -> Vec<Vec<u8>> {
            let mut out = Vec::new();
            if self.policy == RefragPolicy::OnePerPacket {
                for c in chunks {
                    let Ok(pieces) = chunks_core::frag::split_to_fit(c, self.mtu) else {
                        self.drops += 1;
                        continue;
                    };
                    self.splits += pieces.len() as u64 - 1;
                    for p in pieces {
                        out.push(pack(vec![p], self.mtu).unwrap()[0].bytes.to_vec());
                    }
                }
            } else if let Ok(packets) = pack(chunks, self.mtu) {
                out.extend(packets.iter().map(|p| p.bytes.to_vec()));
            } else {
                self.drops += 1;
            }
            out
        }

        fn drain(&mut self) -> Vec<Vec<u8>> {
            self.wire = 0;
            let mut chunks = std::mem::take(&mut self.window);
            if matches!(self.policy, RefragPolicy::Reassemble { .. }) {
                chunks.sort_by_key(|c| (c.header.tpdu.id, c.header.tpdu.sn));
                let mut merged: Vec<Chunk> = Vec::new();
                for c in chunks {
                    match merged.last().map(|last| merge(last, &c)) {
                        Some(Ok(m)) => {
                            *merged.last_mut().unwrap() = m;
                            self.merges += 1;
                        }
                        _ => merged.push(c),
                    }
                }
                chunks = merged;
            }
            self.emit(chunks)
        }

        fn ingest(&mut self, frame: &[u8]) -> Vec<Vec<u8>> {
            if self.policy == RefragPolicy::DropOversize {
                if frame.len() <= self.mtu {
                    return vec![frame.to_vec()];
                }
                self.drops += 1;
                return Vec::new();
            }
            let Ok(chunks) = unpack(&Packet {
                bytes: frame.to_vec().into(),
            }) else {
                self.drops += 1;
                return Vec::new();
            };
            self.wire += chunks.iter().map(Chunk::wire_len).sum::<usize>();
            self.window.extend(chunks);
            let hold = match self.policy {
                RefragPolicy::Reassemble { window } => self.window.len() < window,
                RefragPolicy::Repack => self.wire < self.mtu,
                _ => false,
            };
            if hold {
                Vec::new()
            } else {
                self.drain()
            }
        }

        fn flush(&mut self) -> Vec<Vec<u8>> {
            if self.window.is_empty() {
                Vec::new()
            } else {
                self.drain()
            }
        }
    }

    use chunks_core::label::ChunkType;
    use proptest::prelude::*;

    /// Data chunks of `SIZE` 1..=9 with arbitrary `ST` bits and `SN`s (wraps
    /// included), ED and ack control chunks among them.
    fn arb_chunk() -> impl Strategy<Value = Chunk> {
        (
            0u8..8,
            1u16..=9,
            1u32..=40,
            0u8..8,
            (0u32..3, any::<u32>(), any::<u32>(), any::<u32>()),
            any::<u8>(),
        )
            .prop_map(|(kind, size, len, st, (id, c_sn, t_sn, x_sn), fill)| {
                let conn = FramingTuple::new(1, c_sn, st & 1 != 0);
                let tpdu = FramingTuple::new(id, t_sn, st & 2 != 0);
                let ext = FramingTuple::new(3, x_sn, st & 4 != 0);
                let header = match kind {
                    0 => ChunkHeader::control(ChunkType::ErrorDetection, 8, conn, tpdu, ext),
                    1 => ChunkHeader::control(ChunkType::Ack, 12, conn, tpdu, ext),
                    _ => ChunkHeader::data(size, len, conn, tpdu, ext),
                };
                let payload: Vec<u8> = (0..header.payload_len())
                    .map(|i| fill.wrapping_add(i as u8))
                    .collect();
                Chunk::new(header, payload.into()).unwrap()
            })
    }

    fn arb_policy() -> impl Strategy<Value = RefragPolicy> {
        (0u8..4, 1usize..6).prop_map(|(which, window)| match which {
            0 => RefragPolicy::OnePerPacket,
            1 => RefragPolicy::Repack,
            2 => RefragPolicy::Reassemble { window },
            _ => RefragPolicy::DropOversize,
        })
    }

    /// What a router made of `arrivals` fed as batches of `sizes` (the rest
    /// in one last batch), then flushed: every frame with its time, the
    /// counters, and with `observed` the recorder's span and trace lines.
    type Made = (Vec<(u64, Bytes)>, (u64, u64, u64), Option<(String, String)>);

    fn batched(
        policy: RefragPolicy,
        egress: usize,
        arrivals: &[(u64, Bytes)],
        sizes: impl Iterator<Item = usize>,
        observed: bool,
    ) -> Made {
        let mut r = ChunkRouter::new(egress, policy);
        let rec = observed.then(|| chunks_obs::Recorder::verbose_tier(1 << 14));
        if let Some(rec) = &rec {
            r.set_obs(rec.clone());
        }
        let mut out = Vec::new();
        let mut left = arrivals.iter().cloned();
        for n in sizes.chain(std::iter::once(usize::MAX)) {
            r.ingest_batch(&mut left.by_ref().take(n), &mut |t, f| out.push((t, f)));
            if left.len() == 0 {
                break;
            }
        }
        let end = arrivals.last().map_or(0, |a| a.0 + 1);
        out.extend(r.flush_all().into_iter().map(|f| (end, f)));
        let lines = rec.map(|rec| (rec.span_json_lines(), rec.trace_json_lines()));
        (out, (r.splits, r.merges, r.drops), lines)
    }

    /// A window ends mid-batch once it holds 64 KiB, and a new one starts:
    /// the frames are still the ones a frame at a time makes.
    #[test]
    fn a_window_that_fills_mid_batch_changes_no_frame() {
        let frame = frame_of(vec![big_chunk(540)], 576);
        let arrivals: Vec<(u64, Bytes)> = (0..400).map(|t| (t, frame.clone())).collect();
        let egress = WIRE_HEADER_LEN + 144;
        let whole = batched(
            RefragPolicy::Repack,
            egress,
            &arrivals,
            std::iter::empty(),
            false,
        );
        let single = batched(
            RefragPolicy::Repack,
            egress,
            &arrivals,
            std::iter::repeat(1),
            false,
        );
        assert_eq!(whole, single);
        let buffers = 1 + whole
            .0
            .windows(2)
            .filter(|p| p[0].1.as_ptr_range().end != p[1].1.as_ptr())
            .count();
        let wire: usize = whole.0.iter().map(|(_, f)| f.len()).sum();
        assert_eq!(buffers, wire.div_ceil(WINDOW_BYTES), "one buffer a window");
    }

    proptest! {
        /// Whatever arrives, the router's frames and counters are the
        /// reference's: ingress MTU above and below the egress MTU (so
        /// `Repack` batches across frames and `flush` has work), egress MTU
        /// down to where an element no longer fits, frames finished plain,
        /// padded (end marker + padding) and truncated, all four policies.
        #[test]
        fn router_frames_equal_the_reference(
            chunks in proptest::collection::vec(arb_chunk(), 1..14),
            ingress in WIRE_HEADER_LEN + 12..WIRE_HEADER_LEN + 150,
            egress in WIRE_HEADER_LEN + 1..WIRE_HEADER_LEN + 170,
            policy in arb_policy(),
            finish in proptest::collection::vec(0u8..8, 14 * 12),
        ) {
            let mut router = ChunkRouter::new(egress, policy);
            let mut model = Model {
                mtu: egress,
                policy,
                window: Vec::new(),
                wire: 0,
                splits: 0,
                merges: 0,
                drops: 0,
            };
            let packets = pack(chunks, ingress).unwrap();
            for (p, how) in packets.iter().zip(&finish) {
                let frame = match how {
                    0 => p.bytes.slice(..p.len() - 1),
                    1..=3 => {
                        // Zero-padded to the MTU, as a fixed cell.
                        let mut padded = p.bytes.to_vec();
                        padded.resize(ingress, 0);
                        padded.into()
                    }
                    _ => p.bytes.clone(),
                };
                prop_assert_eq!(router.ingest_one(frame.clone()), model.ingest(&frame));
                prop_assert_eq!(
                    (router.splits, router.merges, router.drops),
                    (model.splits, model.merges, model.drops)
                );
            }
            prop_assert_eq!(router.flush_all(), model.flush());
            prop_assert_eq!(
                (router.splits, router.merges, router.drops),
                (model.splits, model.merges, model.drops)
            );
            prop_assert!(router.flush_all().is_empty(), "a flushed router holds nothing");
        }

        /// A batch of `n` frames equals `n` batches of one, and any other
        /// cut of it: the same frames at the same times, the same counters
        /// and, with a recording sink, the same span and trace lines —
        /// every policy, with truncated, padded and unparsable frames and
        /// frames over the egress MTU among the arrivals, tied times too.
        #[test]
        fn a_batch_equals_its_frames_one_at_a_time(
            chunks in proptest::collection::vec(arb_chunk(), 1..24),
            ingress in WIRE_HEADER_LEN + 12..WIRE_HEADER_LEN + 150,
            egress in WIRE_HEADER_LEN + 1..WIRE_HEADER_LEN + 170,
            policy in arb_policy(),
            finish in proptest::collection::vec(0u8..10, 24 * 12),
            cuts in proptest::collection::vec(1usize..6, 0..8),
            observed in any::<bool>(),
        ) {
            let packets = pack(chunks, ingress).unwrap();
            let arrivals: Vec<(u64, Bytes)> = packets
                .iter()
                .zip(&finish)
                .enumerate()
                .map(|(i, (p, how))| {
                    let frame = match how {
                        0 => p.bytes.slice(..p.len() - 1),
                        1 => Bytes::from_static(&[0x09, 0xFF, 0xFF, 0xFF]),
                        2 | 3 => {
                            let mut padded = p.bytes.to_vec();
                            padded.resize(ingress, 0);
                            padded.into()
                        }
                        _ => p.bytes.clone(),
                    };
                    (i as u64 / 2 * 1_000, frame)
                })
                .collect();
            let whole = batched(policy, egress, &arrivals, std::iter::empty(), observed);
            let single = batched(policy, egress, &arrivals, std::iter::repeat(1), observed);
            let cut = batched(policy, egress, &arrivals, cuts.into_iter(), observed);
            prop_assert_eq!(&whole, &single);
            prop_assert_eq!(&whole, &cut);
        }

        /// big → small → in-network reassembly → smaller: the receiver's
        /// single-step reassembly recovers the chunks that were sent.
        #[test]
        fn refragmentation_chain_returns_the_original_chunks(
            size in 1u16..=9,
            lens in proptest::collection::vec(1u32..60, 1..6),
            st in proptest::collection::vec(0u8..8, 6),
            base in any::<u32>(),
            narrow in 0usize..50,
            narrower in 0usize..30,
            window in 1usize..8,
        ) {
            // One TPDU's chunks, a one-element gap apart, so no two merge.
            let mut sn = base;
            let mut original = Vec::new();
            for (&len, &st) in lens.iter().zip(&st) {
                let header = ChunkHeader::data(
                    size,
                    len,
                    FramingTuple::new(1, sn, st & 1 != 0),
                    FramingTuple::new(2, sn.wrapping_sub(base), st & 2 != 0),
                    FramingTuple::new(3, sn.wrapping_add(7), st & 4 != 0),
                );
                let payload: Vec<u8> = (0..header.payload_len()).map(|i| i as u8).collect();
                original.push(Chunk::new(header, payload.into()).unwrap());
                sn = sn.wrapping_add(len + 1);
            }
            let h = WIRE_HEADER_LEN + size as usize;
            let mut frames: Vec<Bytes> = pack(original.clone(), 10_000)
                .unwrap()
                .into_iter()
                .map(|p| p.bytes)
                .collect();
            for mut r in [
                ChunkRouter::new(h + narrow, RefragPolicy::Repack),
                ChunkRouter::new(h + 200, RefragPolicy::Reassemble { window }),
                ChunkRouter::new(h + narrower, RefragPolicy::Repack),
            ] {
                let mut next: Vec<Bytes> = frames.drain(..).flat_map(|f| r.ingest_one(f)).collect();
                next.extend(r.flush_all());
                prop_assert_eq!(r.drops, 0);
                frames = next;
            }
            prop_assert_eq!(reassemble(frames), original);
        }
    }
}
