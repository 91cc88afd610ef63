//! The sending side: windowing, packetization, retransmission, and TPDU
//! size adaptation.
//!
//! Two behaviours come straight from the paper:
//!
//! * "Retransmitted data should use the same identifiers as the originally
//!   transmitted data" (§3.3) — retransmission re-sends the *same* labelled
//!   TPDU, so fragments of the original and the retransmission mix freely
//!   at the receiver.
//! * "A good transport protocol implementation should reduce its TPDU size
//!   to match the observed network error rate without any direct knowledge
//!   of whether fragmentation is occurring" (§3) — the sender halves its
//!   TPDU size on loss feedback and creeps it back up on success.
//!
//! # One pass per byte
//!
//! [`Sender::submit`] is the only place a payload byte is touched on the
//! transmit side. It drives the framer's label walk over the caller's slice
//! and, per piece, writes the chunk header and copies the payload into the
//! packet under construction, folds the bytes it just wrote into the TPDU's
//! invariant while they are in L1, appends the ED chunk when the TPDU ends,
//! and closes packets greedily at the MTU exactly as
//! [`pack`](chunks_core::packet::pack) would.
//!
//! # One buffer per call
//!
//! A submit writes all of its packets back to back into one buffer, sized
//! beforehand by a dry run of the same walk over the labels alone, so it
//! never grows (a reallocation would copy the payload a second time); the
//! packets leave as [`Bytes`] slices of it. [`Sender::packets_for_pending`],
//! [`Sender::retransmit`] and [`Sender::retransmit_for_ack`] do the same
//! with the repair walk, at a few allocations whatever the packet count.
//!
//! **The retransmission store is the wire image**: the submits' buffers, a
//! `u32` end per packet, and per pending TPDU the range of packets from its
//! first piece to its ED chunk. A piece (an uncut chunk cut wherever a
//! packet ended) is a valid chunk (Appendix C), so a repair slices a TPDU's
//! packets out of their buffer and reads its pieces back off them with the
//! label walk, keeping those whose `T.ID` and `C.SN − T.SN` name it.
//!
//! **Retention.** The sender lets go of a buffer when no pending TPDU has a
//! byte in it; a packet handed out keeps its whole buffer for as long as it
//! lives. The sender also keeps a handle on its latest submit's buffer: when
//! the next submit finds that handle the only one ([`Bytes::is_unique`]) and
//! the buffer no more than a quarter larger than it needs, it writes into
//! it, so a warm sender allocates nothing for its packets.
//!
//! # One placement engine
//!
//! Every other path re-places pieces, and must put the same bytes on the
//! wire as packing the *uncut* chunks would — whatever was acknowledged,
//! abandoned or submitted in between. So the sender coalesces: each run of
//! a TPDU's pieces that continue one another (the Appendix D `can_merge`
//! predicate; a run never crosses a TPDU or the edge of a gap) goes to the
//! one engine, [`PacketBuilder::place_run`], as the chunk it continues, and
//! comes out as the chunk (or head fragment) `pack` writes, wherever the
//! pieces were cut. The engine merges nothing itself: it is also `pack`'s
//! and the routers', whose policy is "no in-network reassembly". A submit
//! places its labels one at a time: the framer emits one label per ALF
//! frame per TPDU, so no two of them continue each other.

use std::cell::Cell;
use std::collections::VecDeque;

use bytes::Bytes;
use chunks_core::chunk::ChunkHeader;
use chunks_core::error::CoreError;
use chunks_core::frag::{can_merge, merge_header, split_header};
use chunks_core::label::ChunkType;
use chunks_core::packet::{Packet, PacketBuilder};
use chunks_core::wire::WIRE_HEADER_LEN;

use crate::ack::AckInfo;
use crate::conn::ConnectionParams;
use crate::frame::{AlfFrame, Framer, Label, ED_LEN};
use crate::receiver::chunk_walk;
use chunks_wsc::{InvariantLayout, TpduInvariant};

/// Sender configuration.
#[derive(Clone, Copy, Debug)]
pub struct SenderConfig {
    /// Connection parameters (shared with the receiver at establishment).
    pub params: ConnectionParams,
    /// Invariant layout for error detection.
    pub layout: InvariantLayout,
    /// Path MTU the sender packs packets for.
    pub mtu: usize,
    /// Smallest TPDU the adapter may shrink to, in elements.
    pub min_tpdu_elements: u32,
    /// Largest TPDU the adapter may grow to, in elements.
    pub max_tpdu_elements: u32,
}

/// A chunk where it lies in a retained packet: its label and its payload.
type Piece<'a> = (ChunkHeader, &'a [u8]);

/// What a placement calls on the engine when a packet is full.
pub(crate) type Emit<'e> = dyn FnMut(&mut PacketBuilder) + 'e;

/// Closes the packet under construction, if it holds a chunk, noting its end.
pub(crate) fn end_packet(b: &mut PacketBuilder, ends: &mut Vec<u32>) {
    if !b.is_empty() {
        ends.push(u32::try_from(b.close()).expect("a buffer under 4 GiB"));
    }
}

/// The lists a repair walk reads a TPDU's pieces and a packet's chunks
/// into, shared by a repair's dry run and its writes.
pub(crate) type Scratch<'s> = (Vec<Piece<'s>>, VecDeque<Piece<'s>>);

/// Places `pieces` in order, each run of them that continues one another
/// as the one chunk it is (module docs).
fn place_runs<'s>(
    b: &mut PacketBuilder,
    emit: &mut Emit<'_>,
    pieces: impl Iterator<Item = Piece<'s>> + Clone,
) -> Result<(), CoreError> {
    let mut left = pieces.peekable();
    while let Some((mut header, _)) = left.peek().copied() {
        let (run, mut count) = (left.clone(), 1);
        left.next();
        while let Some((next, _)) = left.next_if(|p| can_merge(&header, &p.0)) {
            (header, count) = (merge_header(&header, &next)?, count + 1);
        }
        b.place_run(header, run.take(count).map(|p| p.1), &mut *emit, |_, _| {})?;
    }
    Ok(())
}

/// Elements `[off, off + len)` of a piece, which it must have: its label cut
/// by the Appendix C split, its payload sub-sliced — `extract` without a
/// `Chunk`. (`split_header` refuses a cut at either end: nothing to cut.)
fn cut((header, payload): Piece<'_>, off: u32, len: u32) -> Piece<'_> {
    let tail = split_header(&header, off).map_or(header, |(_, tail)| tail);
    let head = split_header(&tail, len).map_or(tail, |(head, _)| head);
    let size = header.size as usize;
    (head, &payload[off as usize * size..][..len as usize * size])
}

/// `whole` cut into packets at `ends`.
pub(crate) fn slices(whole: Bytes, ends: &[u32]) -> impl ExactSizeIterator<Item = Packet> + '_ {
    let mut from = 0;
    ends.iter().map(move |&end| Packet {
        bytes: whole.slice(std::mem::replace(&mut from, end as usize)..end as usize),
    })
}

/// A pending TPDU: its labels, and the numbers of the packets holding its
/// first piece and its ED chunk.
#[derive(Clone, Copy, Debug)]
struct Pending {
    start: u64,
    t_id: u32,
    elements: u32,
    first: u32,
    last: u32,
}

/// The chunk transport sender for one connection.
#[derive(Debug)]
pub struct Sender {
    cfg: SenderConfig,
    framer: Framer,
    /// Unacknowledged TPDUs, in start order (which is send order).
    pending: VecDeque<Pending>,
    /// The submits' buffers in send order, each with the number of its
    /// first packet and where each of its packets ends in it; one no pending
    /// TPDU has a byte in is let go (left empty, or popped in front).
    buffers: VecDeque<(u32, Bytes, Vec<u32>)>,
    /// True while `pending` is exactly the last submit's TPDUs, cut for the
    /// path MTU: the store is then that submit's packets, every one whole.
    fresh: bool,
    /// Current adaptive TPDU size in elements.
    tpdu_elements: u32,
    /// The last submit's whole buffer, kept for the next submit to write
    /// into once every packet of it is gone (module docs).
    spare: Bytes,
    /// TPDUs retransmitted.
    pub retransmissions: u64,
}

impl Sender {
    /// Creates a sender.
    pub fn new(cfg: SenderConfig) -> Self {
        Sender {
            tpdu_elements: cfg.params.tpdu_elements,
            framer: Framer::new(cfg.params, cfg.layout),
            cfg,
            pending: VecDeque::new(),
            buffers: VecDeque::new(),
            fresh: false,
            spare: Bytes::new(),
            retransmissions: 0,
        }
    }

    /// The current adaptive TPDU size in elements.
    pub fn tpdu_elements(&self) -> u32 {
        self.tpdu_elements
    }

    /// Number of unacknowledged TPDUs.
    pub fn pending_tpdus(&self) -> usize {
        self.pending.len()
    }

    /// Bytes of first-transmission packets held: those a pending TPDU is in,
    /// in the buffers the sender holds.
    pub fn retained_wire_bytes(&self) -> usize {
        let base = self.buffers.front().map_or(0, |b| b.0);
        let numbers = (0..self.at(self.next()) as u32).map(|k| base.wrapping_add(k));
        let held = numbers.filter(|&n| self.holds(n, n));
        let packets = held.map(|n| self.packet(n));
        packets.filter(|p| !p.0.is_empty()).map(|p| p.1.len()).sum()
    }

    /// Queues application data (covered by `alf` frames) for transmission:
    /// frames it, folds it and packetizes it in one walk over `data` (module
    /// docs). Returns the newly framed TPDUs' starts.
    pub fn submit(&mut self, data: &[u8], alf: &[AlfFrame], close: bool) -> Vec<u64> {
        // The framer's TPDU size follows the loss adapter.
        self.framer.set_tpdu_elements(self.tpdu_elements);
        // An MTU too small for one element or for an ED chunk is reported by
        // the calls that return packets, never here: the pieces are cut for
        // the smallest MTU that works and nothing built here is handed out.
        let element = (self.cfg.params.elem_size as usize).max(ED_LEN);
        let cut_mtu = self.cfg.mtu.max(WIRE_HEADER_LEN + element);
        self.fresh = self.pending.is_empty() && cut_mtu == self.cfg.mtu;

        // A dry run over the labels: how many packets of how many bytes
        // this submit writes, so that one buffer of exactly that size holds
        // them all.
        let (mut dry, mut packets) = (PacketBuilder::measuring(cut_mtu), 0);
        let mut count = |b: &mut PacketBuilder| {
            packets += usize::from(!b.is_empty());
            b.close();
        };
        self.framer.clone().walk(data.len(), alf, close, |label| {
            let (header, payload) = match label {
                Label::Data { header, bytes } => (header, &data[bytes]),
                Label::Close { ed, .. } => (ed, &[0; ED_LEN][..]),
            };
            dry.place(header, payload, &mut count)
                .expect("the cut MTU holds one element and an ED chunk");
        });
        count(&mut dry);
        let buf = match dry.close() {
            0 => Vec::new(),
            size => self.buffer_for(size),
        };

        let from = self.pending.len();
        let elements = data.len() / self.cfg.params.elem_size as usize;
        self.pending
            .reserve(elements.div_ceil(self.tpdu_elements as usize));
        // This submit's packets are numbered on from the ones held.
        let offset = self.next();
        let mut builder = PacketBuilder::with_buffer(cut_mtu, buf);
        let mut ends = Vec::with_capacity(packets);
        // The number of the packet under construction, among this submit's.
        let open = Cell::new(0u32);
        let mut emit = |b: &mut PacketBuilder| {
            end_packet(b, &mut ends);
            open.set(open.get() + 1);
        };
        let mut inv = TpduInvariant::new(self.cfg.layout).expect("layout fits");
        // The packet the open TPDU's first piece went into.
        let mut opened = None;
        self.framer
            .walk(data.len(), alf, close, |label| match label {
                Label::Data { header, bytes } => builder
                    .place_run(header, [&data[bytes]], &mut emit, |piece, written| {
                        // Folded where it was just written, in L1.
                        inv.absorb_chunk(piece, written)
                            .expect("framer stays inside the layout");
                        opened.get_or_insert(open.get());
                    })
                    .expect("the cut MTU holds one element"),
                Label::Close {
                    start,
                    t_id,
                    elements,
                    ed,
                } => {
                    builder
                        .place(ed, &inv.digest(), &mut emit)
                        .expect("the cut MTU holds an ED chunk");
                    inv.reset();
                    let first = opened.take().expect("a TPDU has data");
                    self.pending.push_back(Pending {
                        start,
                        t_id,
                        elements,
                        first: offset.wrapping_add(first),
                        last: offset.wrapping_add(open.get()),
                    });
                }
            });
        // This submit's last packet closes with it.
        end_packet(&mut builder, &mut ends);
        let whole = Bytes::from(builder.take_bytes());
        if !whole.is_empty() {
            // Most senders hold one buffer at a time: room for one, not four.
            let one = usize::from(self.buffers.is_empty());
            self.buffers.reserve_exact(one);
            self.buffers.push_back((offset, whole.clone(), ends));
            self.spare = whole;
        }
        self.pending.range(from..).map(|t| t.start).collect()
    }

    /// A buffer with room for exactly `size` bytes: the last submit's, when
    /// the sender holds the only handle on it and it is no more than a
    /// quarter larger, else a fresh one.
    fn buffer_for(&mut self, size: usize) -> Vec<u8> {
        let spare = std::mem::take(&mut self.spare);
        if spare.is_unique() {
            let mut buf = Vec::from(spare);
            if (size..=size + size / 4).contains(&buf.capacity()) {
                buf.clear();
                return buf;
            }
        }
        Vec::with_capacity(size)
    }

    /// Convenience: queue data as one external frame.
    pub fn submit_simple(&mut self, data: &[u8], x_id: u32, close: bool) -> Vec<u64> {
        let len_elements = (data.len() / self.cfg.params.elem_size as usize) as u32;
        let frame = AlfFrame {
            id: x_id,
            len_elements,
        };
        self.submit(data, &[frame], close)
    }

    /// Packs every pending TPDU into packets for the path MTU (the initial
    /// transmission or a full retransmission pass). While the pending set is
    /// one submit's TPDUs these are that submit's packets, handed out again.
    pub fn packets_for_pending(&self) -> Result<Vec<Packet>, CoreError> {
        if let Some((_, whole, ends)) = self.buffers.front().filter(|_| self.fresh) {
            return Ok(slices(whole.clone(), ends).collect());
        }
        self.one_buffer(|b, emit, scratch| self.repack(&self.pending, b, emit, scratch))
            .map(|(packets, _)| packets)
    }

    /// [`Self::packets_for_pending`] through `b`: a fresh submit's packets
    /// go to `out` as they are but the last, whose chunks are read back and
    /// placed anew, so that what follows fills its free room.
    pub(crate) fn pack_pending(
        &self,
        b: &mut PacketBuilder,
        emit: &mut Emit<'_>,
        out: &mut VecDeque<Packet>,
    ) -> Result<(), CoreError> {
        let Some((_, whole, ends)) = self.buffers.front().filter(|_| self.fresh) else {
            let scratch = &mut Scratch::default();
            return self.repack(&self.pending, b, emit, scratch).map(drop);
        };
        out.extend(slices(whole.clone(), ends));
        let last = out.pop_back().expect("a buffer holds a packet");
        let mut chunks = chunk_walk(&last)?;
        chunks.try_for_each(|c| b.place(c.header, &last.bytes[c.span], &mut *emit))
    }

    /// Runs `fill` on a measuring builder, then on one writing every packet
    /// into one buffer of exactly the size the first run counted, both runs
    /// reading into one [`Scratch`]; returns the packets and `fill`'s count.
    fn one_buffer<'s>(
        &'s self,
        fill: impl Fn(&mut PacketBuilder, &mut Emit<'_>, &mut Scratch<'s>) -> Result<u64, CoreError>,
    ) -> Result<(Vec<Packet>, u64), CoreError> {
        let (mut scratch, mut packets) = (Scratch::default(), 0);
        let mut dry = PacketBuilder::measuring(self.cfg.mtu);
        let mut count = |b: &mut PacketBuilder| {
            packets += usize::from(!b.is_empty());
            b.close();
        };
        fill(&mut dry, &mut count, &mut scratch)?;
        count(&mut dry);
        let mut b = PacketBuilder::with_buffer(self.cfg.mtu, Vec::with_capacity(dry.close()));
        let mut ends = Vec::with_capacity(packets);
        let mut emit = |b: &mut PacketBuilder| end_packet(b, &mut ends);
        let placed = fill(&mut b, &mut emit, &mut scratch)?;
        emit(&mut b);
        Ok((slices(b.take_bytes().into(), &ends).collect(), placed))
    }

    /// Packs the TPDUs named by `starts` for retransmission — identical
    /// identifiers, as §3.3 requires.
    pub fn retransmit(&mut self, starts: &[u64]) -> Result<Vec<Packet>, CoreError> {
        let (packets, sent) =
            self.one_buffer(|b, emit, scratch| self.pack_retransmit(starts, b, emit, scratch))?;
        self.retransmissions += sent;
        Ok(packets)
    }

    /// [`Self::retransmit`] through `b`, counting nothing: returns how
    /// many TPDUs it packed.
    pub(crate) fn pack_retransmit<'s>(
        &'s self,
        starts: &[u64],
        b: &mut PacketBuilder,
        emit: &mut Emit<'_>,
        scratch: &mut Scratch<'s>,
    ) -> Result<u64, CoreError> {
        let named = starts
            .iter()
            .filter_map(|&s| self.pending.get(self.find(s)?));
        self.repack(named, b, emit, scratch)
    }

    /// Applies an acknowledgment; returns the starts newly confirmed.
    pub fn handle_ack(&mut self, ack: &AckInfo) -> Vec<u64> {
        let mut left = Vec::new();
        self.pending.retain(|&t| {
            let acked = ack.acknowledges(t.start, t.start + t.elements as u64);
            left.extend(acked.then_some(t));
            !acked
        });
        self.free(&left);
        left.iter().map(|t| t.start).collect()
    }

    /// Starts of TPDUs still awaiting acknowledgment.
    pub fn unacked_starts(&self) -> Vec<u64> {
        self.pending_starts().collect()
    }

    /// [`Self::unacked_starts`], in order, without collecting them.
    pub(crate) fn pending_starts(&self) -> impl Iterator<Item = u64> + '_ {
        self.pending.iter().map(|t| t.start)
    }

    /// Abandons an unacked TPDU: the reliability layer's graceful
    /// degradation when a retry budget empties. The TPDU leaves the window
    /// (so `pending_tpdus` can reach zero and the stream keeps moving).
    /// Returns true when the TPDU existed.
    pub fn abandon(&mut self, start: u64) -> bool {
        let left = self.find(start).and_then(|at| self.pending.remove(at));
        self.free(left.as_slice());
        left.is_some()
    }

    /// Answers a full receiver report: sub-chunks for the named gaps,
    /// missing ED chunks, and — for pending TPDUs the report does not
    /// mention at all (their packets vanished before the receiver learned
    /// they exist, so it cannot nack what it never saw) — a full
    /// retransmission. Receiver-side duplicate trimming (Appendix C
    /// extraction) discards any overlap cheaply.
    pub fn retransmit_for_ack(&mut self, ack: &AckInfo) -> Result<Vec<Packet>, CoreError> {
        let (packets, count) = self.one_buffer(|b, emit, scratch| {
            self.pack_repair(ack, usize::MAX, b, emit, scratch, |_| {})
        })?;
        self.retransmissions += count;
        Ok(packets)
    }

    /// [`Self::retransmit_for_ack`] through `b`, with window-limited
    /// repair: at most `max_tpdus` pending TPDUs (in connection-space order)
    /// are repaired per call, so a pathological gap report cannot make one
    /// call retransmit the whole stream in a single burst; later calls (or
    /// the timer) pick up the rest. `repaired` is told each TPDU start
    /// repaired; the count is returned, not kept.
    pub(crate) fn pack_repair<'s>(
        &'s self,
        ack: &AckInfo,
        max_tpdus: usize,
        b: &mut PacketBuilder,
        emit: &mut Emit<'_>,
        scratch: &mut Scratch<'s>,
        mut repaired: impl FnMut(u64),
    ) -> Result<u64, CoreError> {
        // An acknowledged TPDU has nothing to repair.
        let unacked = |t: &&Pending| !ack.acknowledges(t.start, t.start + t.elements as u64);
        let tpdus = self.pending.iter().filter(unacked).take(max_tpdus);
        self.read(tpdus, scratch, |t, pieces| {
            let (start, end) = (t.start, t.start + t.elements as u64);
            repaired(start);
            let (&(ed, digest), data) = pieces.split_last().expect("a TPDU ends in its ED");
            if ack.need_ed.contains(&start) {
                // Data arrived; only the 8-byte digest is missing.
                return b.place(ed, digest, &mut *emit);
            }
            let overlapping = ack.gaps.iter().filter(|&&(lo, hi)| lo < end && start < hi);
            if overlapping.clone().next().is_none() {
                // The report does not mention this TPDU at all: its packets
                // vanished before the receiver learned they exist, so it
                // cannot nack what it never saw. Full retransmission.
                return place_runs(b, emit, pieces.iter().copied());
            }
            // Precise sub-chunk repair (Appendix C extraction); the ED chunk
            // rides along so a receiver that lost it can still verify.
            for &(lo, hi) in overlapping {
                // The gap in TPDU space (empty if the report is malformed).
                let (lo, hi) = ((lo.max(start) - start) as u32, (hi.min(end) - start) as u32);
                // Each gap's repair is its own run(s) even when two gaps
                // abut; within a gap, pieces run on.
                let within = data.iter().filter_map(move |&(h, payload)| {
                    // The piece's elements in the gap, in TPDU space.
                    let (from, to) = (lo.max(h.tpdu.sn), hi.min(h.tpdu.sn + h.len));
                    (from < to).then(|| cut((h, payload), from - h.tpdu.sn, to - from))
                });
                place_runs(b, emit, within)?;
            }
            b.place(ed, digest, &mut *emit)
        })
    }

    /// Loss feedback: halve the TPDU size (multiplicative decrease), so
    /// fewer bytes are retransmitted per lost fragment.
    pub fn on_loss(&mut self) {
        self.tpdu_elements = (self.tpdu_elements / 2).max(self.cfg.min_tpdu_elements);
    }

    /// Success feedback: grow the TPDU size additively.
    pub fn on_success(&mut self) {
        self.tpdu_elements =
            (self.tpdu_elements + self.cfg.min_tpdu_elements).min(self.cfg.max_tpdu_elements);
    }

    /// Where in `pending` the TPDU at `start` is.
    fn find(&self, start: u64) -> Option<usize> {
        self.pending.binary_search_by_key(&start, |t| t.start).ok()
    }

    /// Packs `tpdus` whole, read back off the wire, through `b`; returns
    /// how many.
    fn repack<'s>(
        &'s self,
        tpdus: impl IntoIterator<Item = &'s Pending>,
        b: &mut PacketBuilder,
        emit: &mut Emit<'_>,
        scratch: &mut Scratch<'s>,
    ) -> Result<u64, CoreError> {
        self.read(tpdus, scratch, |_, pieces| {
            place_runs(b, emit, pieces.iter().copied())
        })
    }

    /// Hands `each` each of `tpdus` with its pieces, read back off its
    /// packets by the label walk into `scratch`: data pieces in order, then
    /// the ED chunk. Returns how many TPDUs it read.
    fn read<'s>(
        &'s self,
        tpdus: impl IntoIterator<Item = &'s Pending>,
        scratch: &mut Scratch<'s>,
        mut each: impl FnMut(&Pending, &[Piece<'s>]) -> Result<(), CoreError>,
    ) -> Result<u64, CoreError> {
        let (pieces, unread) = scratch;
        let (mut count, mut walked) = (0, None);
        for t in tpdus {
            let csn = self.cfg.params.initial_csn.wrapping_add(t.start as u32);
            pieces.clear();
            for k in 0..=t.last.wrapping_sub(t.first) {
                let n = t.first.wrapping_add(k);
                // A packet walked for an earlier TPDU reads on where it stopped.
                if walked.is_none_or(|(w, s)| w != n || s >= t.start) {
                    unread.clear();
                    let (buf, at) = self.packet(n);
                    let bytes = buf.slice(at.clone());
                    let packet = Packet { bytes };
                    unread
                        .extend(chunk_walk(&packet)?.map(|c| (c.header, &buf[at.start..][c.span])));
                }
                walked = Some((n, t.start));
                // Its pieces in a packet are consecutive, the ED chunk last.
                while let Some((h, payload)) = unread.pop_front() {
                    if h.tpdu.id == t.t_id && h.conn.sn.wrapping_sub(h.tpdu.sn) == csn {
                        pieces.push((h, payload));
                        if h.ty == ChunkType::ErrorDetection {
                            break;
                        }
                    }
                }
            }
            each(t, pieces)?;
            count += 1;
        }
        Ok(count)
    }

    /// Lets go of each buffer a TPDU that `left` had a byte in when no
    /// pending TPDU has one, then pops the empty buffers in front.
    fn free(&mut self, left: &[Pending]) {
        self.fresh &= left.is_empty();
        for t in left {
            let b = self.buffer_of(t.first);
            let (first, _, ref ends) = self.buffers[b];
            if !self.holds(first, first.wrapping_add(ends.len() as u32 - 1)) {
                self.buffers[b].1 = Bytes::new();
            }
        }
        while self
            .buffers
            .front()
            .is_some_and(|(_, buf, _)| buf.is_empty())
        {
            self.buffers.pop_front();
        }
    }

    /// True when a pending TPDU has a byte in a packet numbered `lo..=hi`:
    /// the first pending TPDU ending at or after `lo` starts by `hi`.
    fn holds(&self, lo: u32, hi: u32) -> bool {
        let k = self
            .pending
            .partition_point(|t| self.at(t.last) < self.at(lo));
        self.pending
            .get(k)
            .is_some_and(|t| self.at(t.first) <= self.at(hi))
    }

    /// Which buffer holds the packet numbered `n`.
    fn buffer_of(&self, n: u32) -> usize {
        self.buffers.partition_point(|b| self.at(b.0) <= self.at(n)) - 1
    }

    /// The packet numbered `n`: its buffer and where it lies in it.
    fn packet(&self, n: u32) -> (&Bytes, std::ops::Range<usize>) {
        let (first, ref buf, ref ends) = self.buffers[self.buffer_of(n)];
        let i = n.wrapping_sub(first) as usize;
        let from = i.checked_sub(1).map_or(0, |j| ends[j]);
        (buf, from as usize..ends[i] as usize)
    }

    /// How many packets were sent from the first one held to the one `n`.
    fn at(&self, n: u32) -> usize {
        n.wrapping_sub(self.buffers.front().map_or(0, |b| b.0)) as usize
    }

    /// The number of the next packet written (from 0 when none is held).
    fn next(&self) -> u32 {
        self.buffers
            .back()
            .map_or(0, |b| b.0.wrapping_add(b.2.len() as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::{DeliveryMode, Receiver, RxEvent};

    fn cfg(mtu: usize, tpdu_elements: u32) -> SenderConfig {
        SenderConfig {
            params: ConnectionParams {
                conn_id: 0xA,
                elem_size: 1,
                initial_csn: 100,
                tpdu_elements,
            },
            layout: InvariantLayout::with_data_symbols(4096),
            mtu,
            min_tpdu_elements: 2,
            max_tpdu_elements: 1024,
        }
    }

    fn rx(c: &SenderConfig) -> Receiver {
        Receiver::new(DeliveryMode::Immediate, c.params, c.layout, 1 << 16)
    }

    #[test]
    fn submit_send_deliver() {
        let c = cfg(128, 8);
        let mut s = Sender::new(c);
        let mut r = rx(&c);
        let starts = s.submit_simple(b"hello, chunk world!!", 0xF, false);
        assert_eq!(starts, vec![0, 8, 16]);
        let mut delivered = Vec::new();
        for p in s.packets_for_pending().unwrap() {
            let mut events = Vec::new();
            r.handle_packet_into(&p, 0, &mut events);
            for e in events {
                if let RxEvent::TpduDelivered { start, .. } = e {
                    delivered.push(start);
                }
            }
        }
        delivered.sort_unstable();
        assert_eq!(delivered, vec![0, 8, 16]);
        assert_eq!(&r.app_data()[..20], b"hello, chunk world!!");
        // Ack clears the window.
        let ack = r.make_ack();
        assert_eq!(ack.cumulative, 20);
        let confirmed = s.handle_ack(&ack);
        assert_eq!(confirmed.len(), 3);
        assert_eq!(s.pending_tpdus(), 0);
    }

    #[test]
    fn retransmit_uses_identical_identifiers() {
        let c = cfg(128, 8);
        let mut s = Sender::new(c);
        s.submit_simple(b"abcdefgh", 0xF, false);
        let first = s.packets_for_pending().unwrap();
        let again = s.retransmit(&[0]).unwrap();
        assert_eq!(first, again, "identical labels, identical packets");
        assert_eq!(s.retransmissions, 1);
    }

    #[test]
    fn lost_tpdu_recovered_via_ack_loop() {
        let c = cfg(64, 8);
        let mut s = Sender::new(c);
        let mut r = rx(&c);
        s.submit_simple(&[7u8; 24], 0xF, false);
        // Drop every packet carrying data for TPDU at start 8.
        let packets = s.packets_for_pending().unwrap();
        for (i, p) in packets.iter().enumerate() {
            if i == 1 {
                continue; // "lost"
            }
            r.handle_packet_into(p, 0, &mut Vec::new());
        }
        let ack1 = r.make_ack();
        s.handle_ack(&ack1);
        let missing = s.unacked_starts();
        assert!(!missing.is_empty());
        for p in s.retransmit(&missing).unwrap() {
            r.handle_packet_into(&p, 1, &mut Vec::new());
        }
        let ack2 = r.make_ack();
        assert_eq!(ack2.cumulative, 24);
        s.handle_ack(&ack2);
        assert_eq!(s.pending_tpdus(), 0);
        assert_eq!(&r.app_data()[..24], &[7u8; 24][..]);
    }

    #[test]
    fn tpdu_size_adapts_to_loss() {
        let c = cfg(128, 64);
        let mut s = Sender::new(c);
        assert_eq!(s.tpdu_elements(), 64);
        s.on_loss();
        assert_eq!(s.tpdu_elements(), 32);
        s.on_loss();
        s.on_loss();
        s.on_loss();
        s.on_loss();
        assert_eq!(s.tpdu_elements(), 2, "floored at min");
        for _ in 0..10 {
            s.on_success();
        }
        assert_eq!(s.tpdu_elements(), 22);
        // New submissions use the adapted size.
        let starts = s.submit_simple(&[1u8; 44], 0xF, false);
        assert_eq!(starts, vec![0, 22]);
    }

    #[test]
    fn successive_submits_continue_sequence_space() {
        let c = cfg(256, 8);
        let mut s = Sender::new(c);
        let mut r = rx(&c);
        let s1 = s.submit_simple(b"aaaaaaaa", 1, false);
        let s2 = s.submit_simple(b"bbbbbbbb", 2, false);
        assert_eq!(s1, vec![0]);
        assert_eq!(s2, vec![8]);
        for p in s.packets_for_pending().unwrap() {
            r.handle_packet_into(&p, 0, &mut Vec::new());
        }
        assert_eq!(&r.app_data()[..16], b"aaaaaaaabbbbbbbb");
        assert_eq!(r.make_ack().cumulative, 16);
    }

    #[test]
    fn retained_pieces_are_views_of_the_first_transmission() {
        // 120 wire bytes a TPDU into 100-byte packets: TPDUs straddle them.
        let c = cfg(100, 48);
        let mut s = Sender::new(c);
        s.submit_simple(&[9u8; 200], 0xF, false);
        let packets = s.packets_for_pending().unwrap();
        // The retained packets are the handed-out ones: one buffer, sliced.
        assert_eq!((s.buffers.len(), s.buffers[0].2.len()), (1, packets.len()));
        let (_, whole, ends) = &s.buffers[0];
        assert!(slices(whole.clone(), ends)
            .zip(&packets)
            .all(|(a, b)| a.bytes.as_ptr_range() == b.bytes.as_ptr_range()));
        // Each TPDU's pieces, read back from them, cover its elements once,
        // in order, and end in its ED chunk.
        let mut straddles = false;
        s.read(&s.pending, &mut Scratch::default(), |t, pieces| {
            let (ed, data) = pieces.split_last().unwrap();
            assert_eq!((ed.0.ty, ed.0.tpdu.id), (ChunkType::ErrorDetection, t.t_id));
            straddles |= data.len() > 1;
            let mut covered = 0;
            for (header, payload) in data {
                assert_eq!((header.tpdu.id, header.tpdu.sn), (t.t_id, covered));
                covered += header.len;
                let at = payload.as_ptr();
                assert!(
                    packets.iter().any(|p| p.bytes.as_ptr_range().contains(&at)),
                    "piece {header} is not a view of any packet"
                );
            }
            assert_eq!(covered, t.elements);
            Ok(())
        })
        .unwrap();
        assert!(straddles);
        // Handing the packets out again hands out the same buffers.
        let again = s.packets_for_pending().unwrap();
        assert!(packets
            .iter()
            .zip(&again)
            .all(|(a, b)| a.bytes.as_ptr() == b.bytes.as_ptr()));
    }

    #[test]
    fn repacked_pieces_equal_the_uncut_chunks_packed() {
        use chunks_core::packet::pack;
        let c = cfg(100, 48);
        let data: Vec<u8> = (0..200u8).collect();
        let mut s = Sender::new(c);
        s.submit_simple(&data, 0xF, false);
        let uncut = Framer::new(c.params, c.layout).frame_simple(&data, 0xF, false);
        // The first TPDU is acknowledged: what is left starts a packet of
        // its own, so no first-transmission cut is where `pack` would cut.
        s.handle_ack(&AckInfo {
            cumulative: 48,
            ..AckInfo::default()
        });
        let rest: Vec<_> = uncut[1..].iter().flat_map(|t| t.all_chunks()).collect();
        assert_eq!(s.packets_for_pending().unwrap(), pack(rest, c.mtu).unwrap());
        let last = uncut.last().unwrap();
        assert_eq!(
            s.retransmit(&[last.start]).unwrap(),
            pack(last.all_chunks(), c.mtu).unwrap()
        );
    }

    #[test]
    fn an_mtu_too_small_is_an_error_from_the_packet_calls_not_a_panic_in_submit() {
        // 36 bytes hold a header and a one-byte element but not the 40-byte
        // ED chunk; 45 hold the ED chunk but not a 16-byte element.
        for (mtu, elem_size, refused) in [(36, 1u16, 8u16), (45, 16, 16)] {
            let mut c = cfg(mtu, 4);
            c.params.elem_size = elem_size;
            let mut s = Sender::new(c);
            let starts = s.submit_simple(&[5u8; 64], 0xF, false);
            assert_eq!(s.pending_tpdus(), starts.len());
            let err = CoreError::ElementExceedsMtu { size: refused, mtu };
            assert_eq!(s.packets_for_pending().unwrap_err(), err);
            assert_eq!(s.retransmit(&starts).unwrap_err(), err);
            assert_eq!(s.retransmit_for_ack(&AckInfo::default()).unwrap_err(), err);
            // The window still works: an ack clears it.
            let all = AckInfo {
                cumulative: 64,
                ..AckInfo::default()
            };
            assert_eq!(s.handle_ack(&all), starts);
            assert!(s.packets_for_pending().unwrap().is_empty());
        }
    }
}
