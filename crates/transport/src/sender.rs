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
//! **The retransmission store is the wire image.** The retained
//! [`Tpdu`]s' chunk payloads are views into those packet buffers, so a
//! retained chunk is one *piece*: an uncut chunk further cut wherever a
//! first-transmission packet ended. A piece is itself a valid chunk
//! (Appendix C), the invariant is cut-independent, and while the pending
//! set is exactly one submit's TPDUs [`Sender::packets_for_pending`] hands
//! the already-built packets out again.
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

use std::collections::BTreeMap;
use std::ops::Range;

use chunks_core::chunk::{Chunk, ChunkHeader};
use chunks_core::error::CoreError;
use chunks_core::frag::{can_merge, extract, merge_header, split_header};
use chunks_core::packet::Packet;
use chunks_core::wire::{encode_header, header_bytes, WIRE_HEADER_LEN};

use crate::ack::AckInfo;
use crate::conn::ConnectionParams;
use crate::frame::{AlfFrame, Framer, Label, Tpdu, ED_LEN};
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

/// The sender's packer: [`pack`](chunks_core::packet::pack)'s greedy
/// first-fit over borrowed chunks, plus the continuation rule (module docs).
struct Packer {
    mtu: usize,
    /// The packet under construction.
    buf: Vec<u8>,
    /// Closed packets, in send order.
    packets: Vec<Packet>,
    /// The chunk last written into `buf` — where its header starts, and the
    /// header as it now stands — unless a run was broken after it.
    last: Option<(usize, ChunkHeader)>,
}

impl Packer {
    fn new(mtu: usize) -> Self {
        Packer {
            mtu,
            buf: Vec::new(),
            packets: Vec::new(),
            last: None,
        }
    }

    /// Forbids the next chunk to continue the previous one: what follows is
    /// a separate chunk in the reference packing even if its labels happen
    /// to be adjacent (two gap repairs that abut).
    fn break_run(&mut self) {
        self.last = None;
    }

    fn close_packet(&mut self) {
        self.last = None;
        if !self.buf.is_empty() {
            let mut buf = std::mem::take(&mut self.buf);
            // A packet that closed short of the MTU gives the slack back:
            // the buffer is retained for as long as the TPDUs in it.
            buf.shrink_to_fit();
            self.packets.push(Packet { bytes: buf.into() });
        }
    }

    /// Appends one chunk: whole when it fits, else as many elements as fill
    /// the packet, the rest opening the next one. `placed` is told of every
    /// extent written — the packet's index, the extent's own label (a valid
    /// chunk header whether or not it got a wire header of its own), the
    /// offset of its payload in that packet, and the payload as it now lies
    /// in the packet buffer.
    fn push(
        &mut self,
        mut header: ChunkHeader,
        mut payload: &[u8],
        mut placed: impl FnMut(usize, &ChunkHeader, usize, &[u8]),
    ) -> Result<(), CoreError> {
        let size = header.size as usize;
        loop {
            if self.buf.capacity() == 0 {
                self.buf.reserve_exact(self.mtu.min(9216));
            }
            let joined = self.last.filter(|(_, prev)| can_merge(prev, &header));
            let overhead = if joined.is_some() { 0 } else { WIRE_HEADER_LEN };
            let room = (self.mtu - self.buf.len()).saturating_sub(overhead) / size;
            let take = (header.len as usize).min(room) as u32;
            if take == 0 {
                // No room for one element (a control chunk is one
                // indivisible element): start a new packet.
                if self.buf.is_empty() {
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
                    self.buf[at..at + WIRE_HEADER_LEN].copy_from_slice(&header_bytes(&merged));
                    self.last = Some((at, merged));
                }
                None => {
                    self.last = Some((self.buf.len(), now));
                    encode_header(&now, &mut self.buf);
                }
            }
            let (bytes, rest) = payload.split_at(take as usize * size);
            let at = self.buf.len();
            self.buf.extend_from_slice(bytes);
            placed(self.packets.len(), &now, at, &self.buf[at..]);
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

    /// Appends a retained chunk.
    fn chunk(&mut self, c: &Chunk) -> Result<(), CoreError> {
        self.push(c.header, &c.payload, |_, _, _, _| {})
    }

    /// Appends a whole retained TPDU: its pieces, then its ED chunk.
    fn tpdu(&mut self, t: &Tpdu) -> Result<(), CoreError> {
        t.chunks.iter().try_for_each(|c| self.chunk(c))?;
        self.chunk(&t.ed)
    }

    fn finish(mut self) -> Vec<Packet> {
        self.close_packet();
        self.packets
    }
}

/// The chunk transport sender for one connection.
#[derive(Debug)]
pub struct Sender {
    cfg: SenderConfig,
    framer: Framer,
    /// Unacknowledged TPDUs by connection-space start. Their payloads are
    /// views into the packets of their first transmission.
    pending: BTreeMap<u64, Tpdu>,
    /// The packets the last `submit` built, for as long as `pending` is
    /// exactly that submit's TPDUs; empty otherwise.
    first_tx: Vec<Packet>,
    /// Current adaptive TPDU size in elements.
    tpdu_elements: u32,
    /// TPDUs retransmitted.
    pub retransmissions: u64,
    /// TPDUs shed by the reliability layer after their retry budget emptied
    /// (graceful degradation: the window keeps moving without them).
    pub shed: u64,
}

impl Sender {
    /// Creates a sender.
    pub fn new(cfg: SenderConfig) -> Self {
        Sender {
            tpdu_elements: cfg.params.tpdu_elements,
            framer: Framer::new(cfg.params, cfg.layout),
            cfg,
            pending: BTreeMap::new(),
            first_tx: Vec::new(),
            retransmissions: 0,
            shed: 0,
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
        let reusable = self.pending.is_empty() && cut_mtu == self.cfg.mtu;

        let mut packer = Packer::new(cut_mtu);
        let mut inv = TpduInvariant::new(self.cfg.layout).expect("layout fits");
        // Every extent written, as (packet, label, payload range in it), and
        // every TPDU closed, with the number of extents written by then.
        let mut extents: Vec<(usize, ChunkHeader, Range<usize>)> = Vec::new();
        let mut closed: Vec<(u64, u32, u32, usize)> = Vec::new();
        self.framer
            .walk(data.len(), alf, close, |label| match label {
                Label::Data { header, bytes } => packer
                    .push(header, &data[bytes], |packet, piece, at, written| {
                        // Folded where it was just written, in L1.
                        inv.absorb_chunk(piece, written)
                            .expect("framer stays inside the layout");
                        extents.push((packet, *piece, at..at + written.len()));
                    })
                    .expect("the cut MTU holds one element"),
                Label::Close {
                    start,
                    t_id,
                    elements,
                    ed,
                } => {
                    packer
                        .push(ed, &inv.digest(), |packet, ed, at, digest| {
                            extents.push((packet, *ed, at..at + digest.len()));
                        })
                        .expect("the cut MTU holds an ED chunk");
                    inv.reset();
                    closed.push((start, t_id, elements, extents.len()));
                }
            });
        // This submit's last packet closes with it: every buffer is frozen,
        // so every extent can become a view.
        let mut packets = packer.finish();
        packets.shrink_to_fit();

        let mut starts = Vec::with_capacity(closed.len());
        let mut resolved = 0;
        let mut views = extents.into_iter().map(|(packet, header, range)| Chunk {
            header,
            payload: packets[packet].bytes.slice(range),
        });
        for (start, t_id, elements, end) in closed {
            let pieces = end - resolved - 1;
            let mut chunks = Vec::with_capacity(pieces);
            chunks.extend(views.by_ref().take(pieces));
            let ed = views.next().expect("a TPDU's last extent is its ED chunk");
            resolved = end;
            starts.push(start);
            self.pending.insert(
                start,
                Tpdu {
                    start,
                    t_id,
                    elements,
                    chunks,
                    ed,
                },
            );
        }
        drop(views);
        self.first_tx = if reusable { packets } else { Vec::new() };
        starts
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
        if !self.first_tx.is_empty() {
            return Ok(self.first_tx.clone());
        }
        let mut packer = Packer::new(self.cfg.mtu);
        self.pending.values().try_for_each(|t| packer.tpdu(t))?;
        Ok(packer.finish())
    }

    /// Packs the TPDUs named by `starts` for retransmission — identical
    /// identifiers, as §3.3 requires.
    pub fn retransmit(&mut self, starts: &[u64]) -> Result<Vec<Packet>, CoreError> {
        let mut packer = Packer::new(self.cfg.mtu);
        for s in starts {
            if let Some(t) = self.pending.get(s) {
                packer.tpdu(t)?;
                self.retransmissions += 1;
            }
        }
        Ok(packer.finish())
    }

    /// Applies an acknowledgment; returns the starts newly confirmed.
    pub fn handle_ack(&mut self, ack: &AckInfo) -> Vec<u64> {
        let confirmed: Vec<u64> = self
            .pending
            .iter()
            .filter(|(&s, t)| ack.acknowledges(s, s + t.elements as u64))
            .map(|(&s, _)| s)
            .collect();
        for s in &confirmed {
            self.pending.remove(s);
        }
        if !confirmed.is_empty() {
            self.first_tx = Vec::new();
        }
        confirmed
    }

    /// Starts of TPDUs still awaiting acknowledgment.
    pub fn unacked_starts(&self) -> Vec<u64> {
        self.pending.keys().copied().collect()
    }

    /// True while the TPDU at `start` awaits acknowledgment.
    pub fn is_pending(&self, start: u64) -> bool {
        self.pending.contains_key(&start)
    }

    /// Abandons an unacked TPDU: the reliability layer's graceful
    /// degradation when a retry budget empties. The TPDU leaves the window
    /// (so `pending_tpdus` can reach zero and the stream keeps moving) and
    /// is counted in [`Self::shed`]. Returns true when the TPDU existed.
    pub fn abandon(&mut self, start: u64) -> bool {
        if self.pending.remove(&start).is_some() {
            self.shed += 1;
            self.first_tx = Vec::new();
            true
        } else {
            false
        }
    }

    /// Answers a full receiver report: sub-chunks for the named gaps,
    /// missing ED chunks, and — for pending TPDUs the report does not
    /// mention at all (their packets vanished before the receiver learned
    /// they exist, so it cannot nack what it never saw) — a full
    /// retransmission. Receiver-side duplicate trimming (Appendix C
    /// extraction) discards any overlap cheaply.
    pub fn retransmit_for_ack(
        &mut self,
        ack: &crate::ack::AckInfo,
    ) -> Result<Vec<Packet>, CoreError> {
        self.retransmit_for_ack_parts(ack, usize::MAX)
            .map(|(packets, _)| packets)
    }

    /// [`Self::retransmit_for_ack`] with window-limited repair: at most
    /// `max_tpdus` pending TPDUs (in connection-space order) are repaired
    /// per call, so a pathological gap report cannot make one call
    /// retransmit the whole stream in a single burst. The remaining TPDUs
    /// are picked up by later calls (or by the retransmission timer). Also
    /// reports which TPDU starts were repaired (so the reliability layer
    /// can re-arm their retransmission timers).
    pub fn retransmit_for_ack_parts(
        &mut self,
        ack: &crate::ack::AckInfo,
        max_tpdus: usize,
    ) -> Result<(Vec<Packet>, Vec<u64>), CoreError> {
        let mut packer = Packer::new(self.cfg.mtu);
        let mut repaired: Vec<u64> = Vec::new();
        for (&start, tpdu) in &self.pending {
            if repaired.len() >= max_tpdus {
                break;
            }
            let end = start + tpdu.elements as u64;
            if ack.acknowledges(start, end) {
                continue; // acknowledged, nothing to repair
            }
            repaired.push(start);
            if ack.need_ed.contains(&start) {
                // Data arrived; only the 8-byte digest is missing.
                packer.chunk(&tpdu.ed)?;
                continue;
            }
            let mut overlapping = ack
                .gaps
                .iter()
                .filter(|&&(lo, hi)| lo < end && start < hi)
                .peekable();
            if overlapping.peek().is_none() {
                // The report does not mention this TPDU at all: its packets
                // vanished before the receiver learned they exist, so it
                // cannot nack what it never saw. Full retransmission.
                packer.tpdu(tpdu)?;
                continue;
            }
            // Precise sub-chunk repair (Appendix C extraction); the ED chunk
            // rides along so a receiver that lost it can still verify.
            for &(lo, hi) in overlapping {
                let want_lo = lo.max(start);
                let want_hi = hi.min(end);
                if want_lo >= want_hi {
                    continue;
                }
                // Each gap's repair is its own chunk(s), even when two gaps
                // abut; within a gap, pieces run on into one another.
                packer.break_run();
                for c in &tpdu.chunks {
                    // Piece covers [c_lo, c_hi) in connection space.
                    let c_lo = start + c.header.tpdu.sn as u64;
                    let c_hi = c_lo + c.header.len as u64;
                    let take_lo = want_lo.max(c_lo);
                    let take_hi = want_hi.min(c_hi);
                    if take_lo >= take_hi {
                        continue;
                    }
                    packer.chunk(&extract(
                        c,
                        (take_lo - c_lo) as u32,
                        (take_hi - take_lo) as u32,
                    )?)?;
                }
            }
            packer.chunk(&tpdu.ed)?;
        }
        self.retransmissions += repaired.len() as u64;
        Ok((packer.finish(), repaired))
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
            for e in r.handle_packet(&p, 0) {
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
            r.handle_packet(p, 0);
        }
        let ack1 = r.make_ack();
        s.handle_ack(&ack1);
        let missing = s.unacked_starts();
        assert!(!missing.is_empty());
        for p in s.retransmit(&missing).unwrap() {
            r.handle_packet(&p, 1);
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
            r.handle_packet(&p, 0);
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
        assert!(s.pending.values().any(|t| t.chunks.len() > 1));
        for t in s.pending.values() {
            for piece in t.chunks.iter().chain([&t.ed]) {
                let at = piece.payload.as_ptr();
                assert!(
                    packets.iter().any(|p| p.bytes.as_ptr_range().contains(&at)),
                    "piece {} is not a view of any packet",
                    piece.header
                );
            }
        }
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
