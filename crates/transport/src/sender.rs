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
//! # One buffer per submit
//!
//! All of a submit's packets are written back to back into one buffer, and
//! leave as [`Bytes`] slices of it. A dry run of the same walk over the
//! labels alone (no byte written) counts the packets and their bytes first,
//! so the buffer is allocated at exactly that size and never grows: a
//! reallocation would copy the payload a second time. A submit thus costs
//! the same few allocations whatever its packet count — the buffer, its
//! shared owner, and exactly sized lists.
//!
//! **The retransmission store is the wire image**: those packets, and per
//! pending TPDU the range of them from its first piece to its ED chunk. A
//! piece (an uncut chunk cut wherever a packet ended) is a valid chunk
//! (Appendix C), so a repair reads a TPDU's pieces back off its packets with
//! the label walk, keeping those whose `T.ID` and `C.SN − T.SN` name it. A
//! packet's handle goes when the last pending TPDU with a byte in it does;
//! while the pending set is one submit's TPDUs, they are handed out again
//! as they are.
//!
//! **Retention.** A submit's memory is returned when its last packet is:
//! the sender's handles go as their TPDUs are acknowledged or abandoned, and
//! a handle handed out (to a path, a peer, a retransmission list) keeps the
//! whole buffer for as long as it lives. One exception makes a warm sender
//! allocate nothing for its packets: the sender keeps a handle on its
//! latest submit's buffer, and when the next submit finds that handle the
//! only one ([`Bytes::is_unique`]) and the buffer no more than a quarter
//! larger than it needs, it takes the buffer back (`Vec::from`, no copy)
//! and writes into it. A buffer any packet still shares is never written.
//!
//! Every other path re-packs pieces, and must put the same bytes on the
//! wire as packing the *uncut* chunks would — whatever was acknowledged,
//! abandoned or submitted in between. The sender's private packer is
//! therefore `pack` plus one **continuation rule**: a chunk that continues
//! the previous chunk *in the same packet* (the Appendix D `can_merge`
//! predicate) opens no header of its own; it extends that header's `LEN`
//! and hands it its `ST` bits. Two pieces of one uncut chunk thus come out
//! as the one chunk (or the one head fragment) `pack` would have written,
//! and the output is independent of where the pieces were cut.
//! `pack` itself must not have the rule: it is also the netsim `Repack`
//! router's packer, whose policy is "no in-network reassembly".

use std::collections::VecDeque;

use bytes::Bytes;
use chunks_core::chunk::ChunkHeader;
use chunks_core::error::CoreError;
use chunks_core::frag::{can_merge, merge_header, split_header};
use chunks_core::label::ChunkType;
use chunks_core::packet::Packet;
use chunks_core::wire::{encode_header, header_bytes, WIRE_HEADER_LEN};

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

/// The sender's packer: [`pack`](chunks_core::packet::pack)'s greedy
/// first-fit over borrowed chunks, plus the continuation rule (module docs).
/// A [`Session`](crate::Session) keeps one open across a whole pump.
///
/// A packer from [`Packer::new`] gives each packet a buffer of its own,
/// trimmed when it closes: repairs and timer passes, whose packets go out
/// and are dropped. One from [`Packer::one_buffer`] writes its packets back
/// to back into one buffer reserved beforehand, and
/// [`Packer::finish_into`] hands them out as slices of it: `submit`'s. A
/// measuring packer writes nothing and only counts: `submit`'s dry run.
#[derive(Debug)]
pub(crate) struct Packer {
    mtu: usize,
    kind: Kind,
    /// The bytes written: closed packets not yet handed out (one-buffer
    /// packers only), then from `open` the packet under construction.
    buf: Vec<u8>,
    /// Where the packet under construction starts in `buf`.
    open: usize,
    /// Bytes placed: `buf.len()`, or on a measuring packer their count.
    len: usize,
    /// Where each closed packet still in `buf` ends.
    ends: Vec<usize>,
    /// Packets closed or handed on so far: the number the packet under
    /// construction will have among them.
    closed: usize,
    /// Closed packets handed out, in send order.
    packets: Vec<Packet>,
    /// The chunk last written into `buf` — where its header starts, and the
    /// header as it now stands — unless a run was broken after it.
    last: Option<(usize, ChunkHeader)>,
}

/// Where a [`Packer`] writes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    /// A buffer per packet.
    PerPacket,
    /// Every packet into the one buffer it was given.
    OneBuffer,
    /// Nowhere: placement decided, bytes counted.
    Measuring,
}

impl Packer {
    pub(crate) fn new(mtu: usize) -> Self {
        Packer {
            mtu,
            kind: Kind::PerPacket,
            buf: Vec::new(),
            open: 0,
            len: 0,
            ends: Vec::new(),
            closed: 0,
            packets: Vec::new(),
            last: None,
        }
    }

    /// A packer that writes nothing and counts the packets and bytes its
    /// placement makes.
    fn measuring(mtu: usize) -> Self {
        Packer {
            kind: Kind::Measuring,
            ..Packer::new(mtu)
        }
    }

    /// A packer that writes its `packets` packets into `buf`, which must
    /// hold all of their bytes: it never grows, so no payload byte is
    /// copied twice.
    fn one_buffer(mtu: usize, buf: Vec<u8>, packets: usize) -> Self {
        Packer {
            kind: Kind::OneBuffer,
            buf,
            ends: Vec::with_capacity(packets),
            ..Packer::new(mtu)
        }
    }

    /// Runs `fill` on a packer for `mtu` and returns its packets.
    fn run(
        mtu: usize,
        fill: impl FnOnce(&mut Packer) -> Result<(), CoreError>,
    ) -> Result<Vec<Packet>, CoreError> {
        let mut packer = Packer::new(mtu);
        fill(&mut packer)?;
        packer.close_packet();
        Ok(packer.packets)
    }

    /// Hands `packets` on as they are, the last one copied into the packet
    /// under construction so that what follows fills its free room, as
    /// `pack` would over their chunks.
    fn hand_on(&mut self, packets: &VecDeque<Packet>) {
        debug_assert_eq!(self.kind, Kind::PerPacket);
        self.close_packet();
        let Some(last) = packets.back() else {
            return;
        };
        self.packets
            .extend(packets.range(..packets.len() - 1).cloned());
        self.closed += packets.len() - 1;
        self.buf.reserve_exact(self.mtu.min(9216));
        self.buf.extend_from_slice(&last.bytes);
        self.len = self.buf.len();
    }

    /// Drops the packet under construction and every closed packet.
    pub(crate) fn clear(&mut self) {
        self.buf.clear();
        self.ends.clear();
        self.packets.clear();
        (self.open, self.len, self.closed) = (0, 0, 0);
        self.last = None;
    }

    /// Closes the packet under construction and moves every closed packet
    /// to the back of `out`.
    pub(crate) fn drain_into(&mut self, out: &mut VecDeque<Packet>) {
        debug_assert_eq!(self.kind, Kind::PerPacket);
        self.close_packet();
        out.extend(self.packets.drain(..));
    }

    /// Closes a one-buffer packer's last packet, hands its packets to the
    /// back of `out` as slices of the buffer, and returns a handle on the
    /// whole buffer.
    fn finish_into(mut self, out: &mut VecDeque<Packet>) -> Bytes {
        debug_assert_eq!(self.kind, Kind::OneBuffer);
        self.close_packet();
        let whole = Bytes::from(self.buf);
        let mut from = 0;
        for end in self.ends {
            out.push_back(Packet {
                bytes: whole.slice(from..end),
            });
            from = end;
        }
        whole
    }

    fn close_packet(&mut self) {
        self.last = None;
        if self.len == self.open {
            return;
        }
        self.open = self.len;
        self.closed += 1;
        match self.kind {
            Kind::Measuring => {}
            Kind::OneBuffer => self.ends.push(self.len),
            Kind::PerPacket => {
                let mut buf = std::mem::take(&mut self.buf);
                // A packet that closed short of the MTU gives the slack back:
                // the buffer is retained for as long as the TPDUs in it.
                buf.shrink_to_fit();
                self.packets.push(Packet { bytes: buf.into() });
                (self.open, self.len) = (0, 0);
            }
        }
    }

    /// Appends one chunk: whole when it fits, else as many elements as fill
    /// the packet, the rest opening the next one. `placed` is told of every
    /// extent written — the packet's number, the extent's own label (a valid
    /// chunk header whether or not it got a wire header of its own), and
    /// the payload as it now lies in the packet buffer (nothing, on a
    /// measuring packer).
    fn push(
        &mut self,
        mut header: ChunkHeader,
        mut payload: &[u8],
        mut placed: impl FnMut(usize, &ChunkHeader, &[u8]),
    ) -> Result<(), CoreError> {
        let size = header.size as usize;
        let writes = self.kind != Kind::Measuring;
        loop {
            if self.buf.capacity() == 0 && self.kind == Kind::PerPacket {
                self.buf.reserve_exact(self.mtu.min(9216));
            }
            let joined = self.last.filter(|(_, prev)| can_merge(prev, &header));
            let overhead = if joined.is_some() { 0 } else { WIRE_HEADER_LEN };
            let room = (self.mtu - (self.len - self.open)).saturating_sub(overhead) / size;
            let take = (header.len as usize).min(room) as u32;
            if take == 0 {
                // No room for one element (a control chunk is one
                // indivisible element): start a new packet.
                if self.len == self.open {
                    return Err(CoreError::ElementExceedsMtu {
                        size: header.size,
                        mtu: self.mtu,
                    });
                }
                self.close_packet();
                continue;
            }
            let (now, later) = if take < header.len {
                let (head, tail) = split_header(&header, take)?;
                (head, Some(tail))
            } else {
                (header, None)
            };
            match joined {
                Some((at, prev)) => {
                    let merged = merge_header(&prev, &now)?;
                    if writes {
                        self.buf[at..at + WIRE_HEADER_LEN].copy_from_slice(&header_bytes(&merged));
                    }
                    self.last = Some((at, merged));
                }
                None => {
                    self.last = Some((self.len, now));
                    self.len += WIRE_HEADER_LEN;
                    if writes {
                        encode_header(&now, &mut self.buf);
                    }
                }
            }
            let (bytes, rest) = payload.split_at(take as usize * size);
            let at = self.len;
            self.len += bytes.len();
            if writes {
                self.buf.extend_from_slice(bytes);
            }
            placed(self.closed, &now, self.buf.get(at..).unwrap_or_default());
            match later {
                None => return Ok(()),
                Some(tail) => {
                    self.close_packet();
                    header = tail;
                    payload = rest;
                }
            }
        }
    }

    /// Appends a piece read back off a retained packet, or any other chunk.
    pub(crate) fn put(&mut self, &(header, payload): &Piece<'_>) -> Result<(), CoreError> {
        self.push(header, payload, |_, _, _| {})
    }
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
    /// First-transmission packets, in send order, from the first pending
    /// TPDU's first; those no pending TPDU has a byte in are emptied.
    packets: VecDeque<Packet>,
    /// The number of `packets[0]` (packets are numbered in send order).
    base: u32,
    /// True while `pending` is exactly the last submit's TPDUs, cut for the
    /// path MTU: `packets` is then that submit's packets, every one whole.
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
            packets: VecDeque::new(),
            base: 0,
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

    /// Bytes of first-transmission packets held: those a pending TPDU is in.
    pub fn retained_wire_bytes(&self) -> usize {
        self.packets.iter().map(Packet::len).sum()
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
        let mut dry = Packer::measuring(cut_mtu);
        self.framer.clone().walk(data.len(), alf, close, |label| {
            let (header, payload) = match label {
                Label::Data { header, bytes } => (header, &data[bytes]),
                Label::Close { ed, .. } => (ed, &[0; ED_LEN][..]),
            };
            dry.push(header, payload, |_, _, _| {})
                .expect("the cut MTU holds one element and an ED chunk");
        });
        dry.close_packet();
        let buf = match dry.len {
            0 => Vec::new(),
            size => self.buffer_for(size),
        };

        let from = self.pending.len();
        let elements = data.len() / self.cfg.params.elem_size as usize;
        self.pending
            .reserve(elements.div_ceil(self.tpdu_elements as usize));
        self.packets.reserve(dry.closed);
        // This submit's packets are numbered on from the ones held.
        let offset = self.base.wrapping_add(self.packets.len() as u32);
        let mut packer = Packer::one_buffer(cut_mtu, buf, dry.closed);
        let mut inv = TpduInvariant::new(self.cfg.layout).expect("layout fits");
        // The packet the open TPDU's first piece went into.
        let mut opened = None;
        self.framer
            .walk(data.len(), alf, close, |label| match label {
                Label::Data { header, bytes } => packer
                    .push(header, &data[bytes], |packet, piece, written| {
                        // Folded where it was just written, in L1.
                        inv.absorb_chunk(piece, written)
                            .expect("framer stays inside the layout");
                        opened.get_or_insert(packet);
                    })
                    .expect("the cut MTU holds one element"),
                Label::Close {
                    start,
                    t_id,
                    elements,
                    ed,
                } => {
                    let mut last = 0;
                    packer
                        .push(ed, &inv.digest(), |packet, _, _| last = packet)
                        .expect("the cut MTU holds an ED chunk");
                    inv.reset();
                    let first = opened.take().expect("a TPDU has data");
                    self.pending.push_back(Pending {
                        start,
                        t_id,
                        elements,
                        first: offset.wrapping_add(first as u32),
                        last: offset.wrapping_add(last as u32),
                    });
                }
            });
        // This submit's last packet closes with it.
        let whole = packer.finish_into(&mut self.packets);
        if !whole.is_empty() {
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
        let elements = (data.len() / self.cfg.params.elem_size as usize) as u32;
        self.submit(
            data,
            &[AlfFrame {
                id: x_id,
                len_elements: elements,
            }],
            close,
        )
    }

    /// Packs every pending TPDU into packets for the path MTU (the initial
    /// transmission or a full retransmission pass). While the pending set is
    /// one submit's TPDUs these are that submit's packets, handed out again.
    pub fn packets_for_pending(&self) -> Result<Vec<Packet>, CoreError> {
        if self.fresh {
            return Ok(self.packets.iter().cloned().collect());
        }
        Packer::run(self.cfg.mtu, |packer| self.pack_pending(packer))
    }

    /// [`Self::packets_for_pending`] into `packer`: a fresh submit's packets
    /// go on as they are, the last one left open for what follows.
    pub(crate) fn pack_pending(&self, packer: &mut Packer) -> Result<(), CoreError> {
        if self.fresh {
            packer.hand_on(&self.packets);
            return Ok(());
        }
        self.repack(&self.pending, packer)
    }

    /// Packs the TPDUs named by `starts` for retransmission — identical
    /// identifiers, as §3.3 requires.
    pub fn retransmit(&mut self, starts: &[u64]) -> Result<Vec<Packet>, CoreError> {
        Packer::run(self.cfg.mtu, |packer| self.pack_retransmit(starts, packer))
    }

    /// [`Self::retransmit`] into `packer`.
    pub(crate) fn pack_retransmit(
        &mut self,
        starts: &[u64],
        packer: &mut Packer,
    ) -> Result<(), CoreError> {
        let named = starts
            .iter()
            .filter_map(|&s| self.pending.get(self.find(s)?));
        let sent = named.clone().count();
        self.repack(named, packer)?;
        self.retransmissions += sent as u64;
        Ok(())
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
        Packer::run(self.cfg.mtu, |packer| {
            self.pack_repair(ack, usize::MAX, packer, |_| {})
        })
    }

    /// [`Self::retransmit_for_ack`] into `packer`, with window-limited
    /// repair: at most `max_tpdus` pending TPDUs (in connection-space order)
    /// are repaired per call, so a pathological gap report cannot make one
    /// call retransmit the whole stream in a single burst. The remaining
    /// TPDUs are picked up by later calls (or by the retransmission timer).
    /// `repaired` is told each TPDU start repaired (so the reliability layer
    /// can re-arm its retransmission timer).
    pub(crate) fn pack_repair(
        &mut self,
        ack: &AckInfo,
        max_tpdus: usize,
        packer: &mut Packer,
        mut repaired: impl FnMut(u64),
    ) -> Result<(), CoreError> {
        let mut count = 0;
        // An acknowledged TPDU has nothing to repair.
        let unacked = |t: &&Pending| !ack.acknowledges(t.start, t.start + t.elements as u64);
        let tpdus = self.pending.iter().filter(unacked).take(max_tpdus);
        self.read(tpdus, |t, pieces| {
            let (start, end) = (t.start, t.start + t.elements as u64);
            repaired(start);
            count += 1;
            let (ed, data) = pieces.split_last().expect("a TPDU ends in its ED");
            if ack.need_ed.contains(&start) {
                // Data arrived; only the 8-byte digest is missing.
                return packer.put(ed);
            }
            let overlapping = ack.gaps.iter().filter(|&&(lo, hi)| lo < end && start < hi);
            if overlapping.clone().next().is_none() {
                // The report does not mention this TPDU at all: its packets
                // vanished before the receiver learned they exist, so it
                // cannot nack what it never saw. Full retransmission.
                return pieces.iter().try_for_each(|p| packer.put(p));
            }
            // Precise sub-chunk repair (Appendix C extraction); the ED chunk
            // rides along so a receiver that lost it can still verify.
            for &(lo, hi) in overlapping {
                // The gap in TPDU space (empty if the report is malformed).
                let (lo, hi) = ((lo.max(start) - start) as u32, (hi.min(end) - start) as u32);
                // Each gap's repair is its own chunk(s) even when two gaps
                // abut (no run goes on into it); within a gap, pieces do.
                packer.last = None;
                for &(h, payload) in data {
                    // The piece's elements in the gap, in TPDU space.
                    let (from, to) = (lo.max(h.tpdu.sn), hi.min(h.tpdu.sn + h.len));
                    if from < to {
                        packer.put(&cut((h, payload), from - h.tpdu.sn, to - from))?;
                    }
                }
            }
            packer.put(ed)
        })?;
        self.retransmissions += count;
        Ok(())
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

    /// Packs `tpdus` whole, read back off the wire, into `packer`.
    fn repack<'s>(
        &'s self,
        tpdus: impl IntoIterator<Item = &'s Pending>,
        packer: &mut Packer,
    ) -> Result<(), CoreError> {
        self.read(tpdus, |_, pieces| {
            pieces.iter().try_for_each(|p| packer.put(p))
        })
    }

    /// Hands `each` each of `tpdus` with its pieces, read back off its
    /// packets by the label walk: data pieces in order, then the ED chunk.
    fn read<'s>(
        &'s self,
        tpdus: impl IntoIterator<Item = &'s Pending>,
        mut each: impl FnMut(&Pending, &[Piece<'s>]) -> Result<(), CoreError>,
    ) -> Result<(), CoreError> {
        let mut pieces = Vec::new();
        // The chunks of the packet walked last past the last TPDU read there.
        let (mut unread, mut walked) = (VecDeque::new(), None);
        for t in tpdus {
            let csn = self.cfg.params.initial_csn.wrapping_add(t.start as u32);
            pieces.clear();
            for n in self.at(t.first)..=self.at(t.last) {
                // A packet walked for an earlier TPDU reads on where it stopped.
                if walked.is_none_or(|(w, s)| w != n || s >= t.start) {
                    unread.clear();
                    let chunks = chunk_walk(&self.packets[n])?;
                    unread.extend(chunks.map(|c| (c.header, c.payload())));
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
            each(t, &pieces)?;
        }
        Ok(())
    }

    /// Empties each packet of the ranges of the TPDUs that `left` that no
    /// pending TPDU has a byte in, then drops the emptied packets in front.
    fn free(&mut self, left: &[Pending]) {
        self.fresh &= left.is_empty();
        for t in left {
            for n in self.at(t.first)..=self.at(t.last) {
                // Held, if at all, by the first pending TPDU ending at or after it.
                let k = self.pending.partition_point(|t| self.at(t.last) < n);
                if self.pending.get(k).is_none_or(|t| self.at(t.first) > n) {
                    self.packets[n].bytes = Bytes::new();
                }
            }
        }
        while self.packets.front().is_some_and(|p| p.bytes.is_empty()) {
            self.packets.pop_front();
            self.base = self.base.wrapping_add(1);
        }
    }

    /// Where in `packets` the packet numbered `n` lies.
    fn at(&self, n: u32) -> usize {
        n.wrapping_sub(self.base) as usize
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
        // The retained packets are the handed-out buffers.
        assert_eq!(s.packets.len(), packets.len());
        assert!(s
            .packets
            .iter()
            .zip(&packets)
            .all(|(a, b)| a.bytes.as_ptr() == b.bytes.as_ptr()));
        // Each TPDU's pieces, read back from them, cover its elements once,
        // in order, and end in its ED chunk.
        let mut straddles = false;
        s.read(&s.pending, |t, pieces| {
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
