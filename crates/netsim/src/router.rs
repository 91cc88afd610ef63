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
//! receiver's production walk over the ingress frame — [`validate`], then
//! [`spans`], then [`decode_header`] — and writes each payload byte once,
//! from the frame it arrived in straight into the smaller envelope, through
//! the greedy first-fit [`pack`] itself is built on
//! ([`PacketBuilder::place`]: [`split_header`](chunks_core::frag::split_header)
//! plus a sub-slice). The `Repack` batching window is therefore the
//! validated ingress *frames*, not decoded chunks. Only
//! [`RefragPolicy::Reassemble`], which must sort and merge, decodes to owned
//! chunks. The frames emitted are, for any ingress sequence, byte for byte
//! what [`unpack`] → window → [`pack`] produces — the property test at the
//! bottom of this file keeps that reference.

use std::sync::Arc;

use chunks_core::chunk::ChunkHeader;
use chunks_core::frag::merge;
use chunks_core::packet::{pack, spans, unpack, validate, Packet, PacketBuilder};
use chunks_core::wire::{decode_header, WIRE_HEADER_LEN};
use chunks_core::Chunk;
use chunks_obs::{ObsSink, SpanId, Stage};

use crate::obs::{frame_chunks, FrameChunk};

/// A stateful frame transformer placed between two links of a path.
pub trait PacketTransform {
    /// Converts one ingress frame into zero or more egress frames.
    fn ingest(&mut self, frame: Vec<u8>) -> Vec<Vec<u8>>;

    /// Flushes any frames the transform is still holding (e.g. a reassembly
    /// window) at the end of a run.
    fn flush(&mut self) -> Vec<Vec<u8>> {
        Vec::new()
    }

    /// Clocked variant of [`ingest`](Self::ingest): transforms that record
    /// observability (span links, mutation events) override this to learn
    /// the virtual time of the conversion. The default ignores the clock.
    fn ingest_at(&mut self, now: u64, frame: Vec<u8>) -> Vec<Vec<u8>> {
        let _ = now;
        self.ingest(frame)
    }

    /// Clocked variant of [`flush`](Self::flush).
    fn flush_at(&mut self, now: u64) -> Vec<Vec<u8>> {
        let _ = now;
        self.flush()
    }

    /// Attaches an observability sink. The default discards it — only
    /// transforms that instrument their conversions store the sink.
    fn set_obs(&mut self, sink: Arc<dyn ObsSink>) {
        let _ = sink;
    }
}

/// The identity transform.
#[derive(Debug, Default)]
pub struct Passthrough;

impl PacketTransform for Passthrough {
    fn ingest(&mut self, frame: Vec<u8>) -> Vec<Vec<u8>> {
        vec![frame]
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
    /// Validated ingress frames held for batching (Repack).
    frames: Vec<Packet>,
    /// Wire bytes of the chunks in `frames` (end marker and padding
    /// excluded).
    window_wire: usize,
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

/// The chunks of frames [`validate`] accepted, borrowed in placement order:
/// the label decoded, the payload left where it arrived.
fn borrowed_chunks(frames: &[Packet]) -> impl Iterator<Item = (ChunkHeader, &[u8])> {
    frames.iter().flat_map(|p| {
        spans(p).map(move |(lo, hi)| {
            let header = decode_header(&p.bytes[lo..hi]).expect("span of a validated frame");
            (header, &p.bytes[lo + WIRE_HEADER_LEN..hi])
        })
    })
}

impl ChunkRouter {
    /// Creates a router with the given egress MTU and policy.
    pub fn new(egress_mtu: usize, policy: RefragPolicy) -> Self {
        ChunkRouter {
            egress_mtu,
            policy,
            window: Vec::new(),
            frames: Vec::new(),
            window_wire: 0,
            splits: 0,
            merges: 0,
            drops: 0,
            obs: chunks_obs::null(),
            obs_on: false,
            pending: Vec::new(),
        }
    }

    /// Ties this conversion's output chunks back to the inputs they came
    /// from: any output whose `X.SN` extent overlaps an input it does not
    /// exactly equal was split or merged in-network, so the router records
    /// a parent→child span link (the Appendix C/D label closure made
    /// visible) plus a `fragment` marker span on the child.
    fn note_outputs(&mut self, now: u64, outs: &[Vec<u8>], splits0: u64, merges0: u64) {
        if self.splits > splits0 {
            self.obs
                .counter("netsim.router.splits", self.splits - splits0);
        }
        if self.merges > merges0 {
            self.obs
                .counter("netsim.router.repacks", self.merges - merges0);
        }
        if outs.is_empty() {
            return; // still batching — inputs stay pending
        }
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

    /// Figure 4 method 1: every piece gets an envelope of its own. A chunk
    /// whose element exceeds the MTU is dropped and the rest go on.
    fn one_per_packet<'a>(
        &mut self,
        chunks: impl Iterator<Item = (ChunkHeader, &'a [u8])>,
    ) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut builder = PacketBuilder::new(self.egress_mtu);
        for chunk in chunks {
            let mut left = Some(chunk);
            while let Some((header, payload)) = left {
                left = builder.push_fitting(header, payload);
                if builder.is_empty() {
                    self.drops += 1;
                    break;
                }
                self.splits += u64::from(left.is_some());
                out.push(builder.take_bytes());
            }
        }
        out
    }

    /// Empties borrowed chunks into as few egress envelopes as greedy
    /// first-fit needs, one payload copy. An element (or control chunk) no
    /// egress packet can hold refuses the batch whole.
    fn repack<'a>(
        &mut self,
        chunks: impl Iterator<Item = (ChunkHeader, &'a [u8])>,
    ) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut builder = PacketBuilder::new(self.egress_mtu);
        for (header, payload) in chunks {
            if builder.place(header, payload, |f| out.push(f)).is_err() {
                self.drops += 1;
                return Vec::new();
            }
        }
        if !builder.is_empty() {
            out.push(builder.take_bytes());
        }
        out
    }

    /// Emits the Repack window: the held frames' chunks, wire to wire.
    fn emit_frames(&mut self) -> Vec<Vec<u8>> {
        self.window_wire = 0;
        let mut frames = std::mem::take(&mut self.frames);
        let out = self.repack(borrowed_chunks(&frames));
        // The list's allocation serves the next batch.
        frames.clear();
        self.frames = frames;
        out
    }

    /// Merges and emits the Reassemble window.
    fn emit_merged(&mut self) -> Vec<Vec<u8>> {
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
        self.repack(merged.iter().map(|c| (c.header, &c.payload[..])))
    }
}

impl PacketTransform for ChunkRouter {
    fn ingest(&mut self, frame: Vec<u8>) -> Vec<Vec<u8>> {
        if self.policy == RefragPolicy::DropOversize {
            return if frame.len() <= self.egress_mtu {
                vec![frame]
            } else {
                self.drops += 1;
                Vec::new()
            };
        }
        let packet = Packet {
            bytes: frame.into(),
        };
        if let RefragPolicy::Reassemble { window } = self.policy {
            let Ok(chunks) = unpack(&packet) else {
                self.drops += 1;
                return Vec::new();
            };
            self.window.extend(chunks);
            if self.window.len() < window {
                return Vec::new();
            }
            return self.emit_merged();
        }
        // A malformed chunk refuses the whole frame, as at the receiver.
        if validate(&packet).is_err() {
            self.drops += 1;
            return Vec::new();
        }
        if self.policy == RefragPolicy::OnePerPacket {
            return self.one_per_packet(borrowed_chunks(std::slice::from_ref(&packet)));
        }
        // Repack: batch frames until an egress envelope can be filled; this
        // is what lets small-network chunks combine into large packets
        // (Figure 4 method 2).
        self.window_wire += spans(&packet).map(|(lo, hi)| hi - lo).sum::<usize>();
        self.frames.push(packet);
        if self.window_wire < self.egress_mtu {
            return Vec::new();
        }
        self.emit_frames()
    }

    fn flush(&mut self) -> Vec<Vec<u8>> {
        if !self.frames.is_empty() {
            self.emit_frames()
        } else if !self.window.is_empty() {
            self.emit_merged()
        } else {
            Vec::new()
        }
    }

    fn ingest_at(&mut self, now: u64, frame: Vec<u8>) -> Vec<Vec<u8>> {
        if !self.obs_on {
            return self.ingest(frame);
        }
        let held = self.pending.len();
        self.pending
            .extend(frame_chunks(&frame).into_iter().filter(FrameChunk::is_data));
        let (splits0, merges0, drops0) = (self.splits, self.merges, self.drops);
        let outs = self.ingest(frame);
        if outs.is_empty() && self.drops > drops0 {
            // Refused, not batching: forget the labels that will never
            // leave — this frame's, or the whole window's when the batch
            // went with it.
            let batching = !self.frames.is_empty() || !self.window.is_empty();
            self.pending.truncate(if batching { held } else { 0 });
        }
        self.note_outputs(now, &outs, splits0, merges0);
        outs
    }

    fn flush_at(&mut self, now: u64) -> Vec<Vec<u8>> {
        if !self.obs_on {
            return self.flush();
        }
        let (splits0, merges0) = (self.splits, self.merges);
        let outs = self.flush();
        self.note_outputs(now, &outs, splits0, merges0);
        outs
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
    fn ingest(&mut self, frame: Vec<u8>) -> Vec<Vec<u8>> {
        let packet = Packet {
            bytes: frame.into(),
        };
        let Ok(chunks) = unpack(&packet) else {
            return Vec::new();
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
            return Vec::new();
        }
        match pack(keep, packet.bytes.len().max(crate::link::MIN_REPACK_MTU)) {
            Ok(packets) => packets.into_iter().map(|p| p.bytes.to_vec()).collect(),
            Err(_) => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn frame_of(chunks: Vec<Chunk>, mtu: usize) -> Vec<u8> {
        let packets = pack(chunks, mtu).unwrap();
        assert_eq!(packets.len(), 1);
        packets[0].bytes.to_vec()
    }

    fn reassemble(frames: Vec<Vec<u8>>) -> Vec<Chunk> {
        let mut pool = ReassemblyPool::new();
        for f in frames {
            for c in unpack(&Packet { bytes: f.into() }).unwrap() {
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
        let out = r.ingest(frame);
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
        let frames: Vec<Vec<u8>> = chunks
            .iter()
            .map(|c| frame_of(vec![c.clone()], small))
            .collect();

        let mut one = ChunkRouter::new(big, RefragPolicy::OnePerPacket);
        let mut repack = ChunkRouter::new(big, RefragPolicy::Reassemble { window: 6 });
        let out_one: Vec<_> = frames.iter().flat_map(|f| one.ingest(f.clone())).collect();
        let mut out_re: Vec<_> = frames
            .iter()
            .flat_map(|f| repack.ingest(f.clone()))
            .collect();
        out_re.extend(repack.flush());
        assert_eq!(out_one.len(), 6, "method 1: one chunk per packet");
        assert_eq!(out_re.len(), 1, "method 3: merged into one envelope");
        assert!(repack.merges > 0);
        // Bytes on the wire shrink with reassembly (fewer headers).
        let b1: usize = out_one.iter().map(Vec::len).sum();
        let b3: usize = out_re.iter().map(Vec::len).sum();
        assert!(b3 < b1);
    }

    #[test]
    fn reassemble_window_flushes_remainder() {
        let c = big_chunk(20);
        let frame = frame_of(vec![c.clone()], 10_000);
        let mut r = ChunkRouter::new(10_000, RefragPolicy::Reassemble { window: 8 });
        assert!(r.ingest(frame).is_empty(), "held in window");
        let out = r.flush();
        assert_eq!(reassemble(out), vec![c]);
    }

    #[test]
    fn drop_oversize_policy() {
        let mut r = ChunkRouter::new(100, RefragPolicy::DropOversize);
        assert_eq!(r.ingest(vec![0u8; 100]).len(), 1);
        assert!(r.ingest(vec![0u8; 101]).is_empty());
        assert_eq!(r.drops, 1);
    }

    #[test]
    fn malformed_frame_dropped() {
        let mut r = ChunkRouter::new(1000, RefragPolicy::Repack);
        let mut junk = vec![0xFFu8; 64];
        junk[0] = 0x09; // invalid type
        assert!(r.ingest(junk).is_empty());
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
            let mut next: Vec<Vec<u8>> = frames.drain(..).flat_map(|f| r.ingest(f)).collect();
            next.extend(r.flush());
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
                .ingest(f)
                .iter()
                .map(|f| {
                    unpack(&Packet {
                        bytes: f.clone().into(),
                    })
                    .unwrap()
                    .len()
                })
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
        let out = dropper.ingest(frame_of(vec![ed], 1500));
        assert_eq!(out.len(), 1, "control chunks are never victims");
        assert_eq!(dropper.victims, 0);
    }

    /// A frame the router refuses must take its labels with it: a truncated
    /// packet followed by its retransmission links each child once, from the
    /// frame that actually left.
    #[test]
    fn dropped_frame_leaves_no_labels_behind() {
        let intact = frame_of(vec![big_chunk(100)], 10_000);
        let mut truncated = intact.clone();
        truncated.truncate(intact.len() - 7);

        let links_of = |frames: &[&Vec<u8>]| {
            let rec = chunks_obs::Recorder::verbose_tier(1 << 12);
            let mut r = ChunkRouter::new(WIRE_HEADER_LEN + 40, RefragPolicy::Repack);
            r.set_obs(rec.clone());
            let mut emitted = 0;
            for (t, f) in frames.iter().enumerate() {
                emitted += r.ingest_at(t as u64, (*f).clone()).len();
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
                let mut frame = p.bytes.to_vec();
                match how {
                    0 => frame.truncate(frame.len() - 1),
                    1..=3 => frame.resize(ingress, 0), // `finish_padded`
                    _ => {}
                }
                prop_assert_eq!(router.ingest(frame.clone()), model.ingest(&frame));
                prop_assert_eq!(
                    (router.splits, router.merges, router.drops),
                    (model.splits, model.merges, model.drops)
                );
            }
            prop_assert_eq!(router.flush(), model.flush());
            prop_assert_eq!(
                (router.splits, router.merges, router.drops),
                (model.splits, model.merges, model.drops)
            );
            prop_assert!(router.flush().is_empty(), "a flushed router holds nothing");
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
            let mut frames: Vec<Vec<u8>> = pack(original.clone(), 10_000)
                .unwrap()
                .iter()
                .map(|p| p.bytes.to_vec())
                .collect();
            for mut r in [
                ChunkRouter::new(h + narrow, RefragPolicy::Repack),
                ChunkRouter::new(h + 200, RefragPolicy::Reassemble { window }),
                ChunkRouter::new(h + narrower, RefragPolicy::Repack),
            ] {
                let mut next: Vec<Vec<u8>> = frames.drain(..).flat_map(|f| r.ingest(f)).collect();
                next.extend(r.flush());
                prop_assert_eq!(r.drops, 0);
                frames = next;
            }
            prop_assert_eq!(reassemble(frames), original);
        }
    }
}
