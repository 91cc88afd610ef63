//! Long-running streams: a sliding-window receiver with `C.SN` reuse.
//!
//! §2 treats the whole connection as one large PDU whose sequence numbers
//! "are reused over time" — a connection is not bounded by the 2^32 element
//! space. [`StreamReceiver`] realizes that: a fixed window of application
//! memory slides along the connection space, verified data is handed to the
//! application in order, and the window base advances so the same `C.SN`
//! values can come around again.
//!
//! Inside the window this is the immediate-processing receiver of §3.3:
//! chunks are placed into the (ring) address space on arrival in any order.
//! What is accepted, each TPDU's verdict and its share of an ack come from
//! the same per-TPDU track+verify engine the block
//! [`Receiver`](crate::receiver::Receiver) runs on; this file is only the
//! sliding-window *placement* policy over it.

use std::collections::BTreeMap;

use chunks_core::chunk::Chunk;
use chunks_core::label::ChunkType;
use chunks_core::packet::Packet;
use chunks_wsc::InvariantLayout;

use crate::conn::ConnectionParams;
use crate::receiver::{ack_parts, chunk_walk, FailureReason, TpduEngine, Track};

/// Statistics kept by a [`StreamReceiver`].
#[derive(Clone, Copy, Debug, Default)]
pub struct StreamStats {
    /// Bytes delivered to the application, in order, verified.
    pub delivered_bytes: u64,
    /// TPDUs verified.
    pub tpdus_delivered: u64,
    /// TPDUs that failed verification.
    pub tpdus_failed: u64,
    /// Chunks rejected as stale (behind the window — old duplicates).
    pub stale_chunks: u64,
    /// Chunks rejected as beyond the window (sender overran flow control).
    pub overrun_chunks: u64,
    /// Duplicate chunks within the window.
    pub duplicate_chunks: u64,
    /// Times the window base advanced.
    pub window_advances: u64,
}

/// Sliding-window receiver for one long-running connection.
#[derive(Debug)]
pub struct StreamReceiver {
    params: ConnectionParams,
    layout: InvariantLayout,
    /// Window size in elements (power-of-two not required).
    window: u64,
    /// Ring of `window * elem_size` bytes; absolute element `e` lives at
    /// `(e % window) * elem_size`.
    ring: Vec<u8>,
    /// Absolute element index of the window base (total delivered).
    base_abs: u64,
    /// The `C.SN` corresponding to `base_abs` (wraps).
    base_csn: u32,
    /// Groups keyed by absolute TPDU start.
    groups: BTreeMap<u64, TpduEngine>,
    /// Delivered-but-not-yet-polled bytes.
    outbox: Vec<u8>,
    /// Scratch for [`TpduEngine::track`]'s uncovered runs.
    uncovered: Vec<(u64, u64)>,
    /// Accumulated statistics.
    pub stats: StreamStats,
}

impl StreamReceiver {
    /// Creates a stream receiver with a window of `window_elements`.
    pub fn new(params: ConnectionParams, layout: InvariantLayout, window_elements: u64) -> Self {
        assert!(window_elements > 0 && window_elements < (1 << 31));
        StreamReceiver {
            params,
            layout,
            window: window_elements,
            ring: vec![0; window_elements as usize * params.elem_size as usize],
            base_abs: 0,
            base_csn: params.initial_csn,
            groups: BTreeMap::new(),
            outbox: Vec::new(),
            uncovered: Vec::new(),
            stats: StreamStats::default(),
        }
    }

    /// Total verified bytes delivered so far.
    pub fn delivered(&self) -> u64 {
        self.stats.delivered_bytes
    }

    /// The current flow-control window: `(next expected C.SN, elements of
    /// room)` — what an ack would advertise.
    pub fn window_advert(&self) -> (u32, u64) {
        (self.base_csn, self.window)
    }

    /// Classifies a `C.SN` relative to the window. `Ok(abs)` is the
    /// absolute element index.
    fn unwrap_csn(&self, c_sn: u32) -> Result<u64, Place> {
        let rel = c_sn.wrapping_sub(self.base_csn);
        if (rel as u64) < self.window {
            Ok(self.base_abs + rel as u64)
        } else if rel >= 1 << 31 {
            Err(Place::Stale)
        } else {
            Err(Place::Beyond)
        }
    }

    /// Feeds a packet; verified in-order bytes accumulate in the outbox
    /// (fetch with [`Self::poll_delivered`]).
    pub fn handle_packet(&mut self, packet: &Packet, now: u64) {
        if let Ok(walk) = chunk_walk(packet) {
            for c in walk {
                self.handle_chunk(c.to_chunk(), now);
            }
        }
    }

    /// Feeds one chunk.
    pub fn handle_chunk(&mut self, chunk: Chunk, _now: u64) {
        match chunk.header.ty {
            ChunkType::Data => self.handle_data(chunk),
            ChunkType::ErrorDetection => self.handle_ed(chunk),
            _ => {}
        }
        self.advance();
    }

    fn group_entry(&mut self, start: u64) -> &mut TpduEngine {
        let layout = self.layout;
        self.groups
            .entry(start)
            .or_insert_with(|| TpduEngine::new(layout))
    }

    /// Condemns the group at `start`, counting its first verdict only.
    fn fail(&mut self, start: u64, reason: FailureReason) {
        if self.group_entry(start).fail(reason) {
            self.stats.tpdus_failed += 1;
        }
    }

    fn handle_data(&mut self, chunk: Chunk) {
        let h = chunk.header;
        if h.size != self.params.elem_size || h.conn.id != self.params.conn_id {
            return;
        }
        let (sn, len) = (h.tpdu.sn as u64, h.len as u64);
        let first = match self.unwrap_csn(h.conn.sn) {
            Ok(first) if first + len <= self.base_abs + self.window => first,
            Err(Place::Stale) => {
                self.stats.stale_chunks += 1;
                return;
            }
            // Beyond the window, or the tail pokes out of it: refuse whole
            // (flow control).
            _ => {
                self.stats.overrun_chunks += 1;
                return;
            }
        };
        // Absolute TPDU start. A `T.SN` past the chunk's own `C.SN` puts
        // it before the stream began: wire input, refused like any chunk
        // from behind the window.
        let Some(start) = first.checked_sub(sn) else {
            self.stats.stale_chunks += 1;
            return;
        };
        // The scratch is taken out for the call: the overlap arm recurses.
        let mut uncovered = std::mem::take(&mut self.uncovered);
        let tracked = self
            .group_entry(start)
            .track(sn, len, h.tpdu.st, &mut uncovered);
        if let Track::Overlap = tracked {
            // Trim partial duplicates down to their fresh runs (held bytes
            // win), as the block receiver does.
            self.stats.duplicate_chunks += 1;
            for &(lo, hi) in &uncovered {
                let off = (lo - sn) as u32;
                if let Ok(piece) = chunks_core::frag::extract(&chunk, off, (hi - lo) as u32) {
                    self.handle_data(piece);
                }
            }
        }
        self.uncovered = uncovered;
        match tracked {
            Track::Fresh => {}
            Track::Overlap => return,
            Track::Inconsistent => return self.fail(start, FailureReason::ReassemblyError),
        }
        if let Err(reason) = self.group_entry(start).absorb(&h, &chunk.payload) {
            return self.fail(start, reason);
        }
        // Place into the ring (may straddle the wrap point).
        let esize = self.params.elem_size as usize;
        for (k, element) in chunk.payload.chunks(esize).enumerate() {
            let slot = ((first + k as u64) % self.window) as usize * esize;
            self.ring[slot..slot + esize].copy_from_slice(element);
        }
    }

    fn handle_ed(&mut self, chunk: Chunk) {
        if chunk.payload.len() != 8 || chunk.header.conn.id != self.params.conn_id {
            return;
        }
        let Ok(start) = self.unwrap_csn(chunk.header.conn.sn) else {
            self.stats.stale_chunks += 1;
            return;
        };
        let mut digest = [0u8; 8];
        digest.copy_from_slice(&chunk.payload);
        self.group_entry(start).set_ed(digest);
    }

    /// Verifies completed groups and slides the window over in-order
    /// verified TPDUs, moving their bytes to the outbox.
    fn advance(&mut self) {
        // Verify any group that is complete and has its digest.
        for g in self.groups.values_mut() {
            match g.verify() {
                Some(Ok(())) => self.stats.tpdus_delivered += 1,
                Some(Err(_)) => self.stats.tpdus_failed += 1,
                None => {}
            }
        }
        // Slide over verified groups sitting exactly at the base.
        while let Some((&start, g)) = self.groups.first_key_value() {
            if start != self.base_abs || g.verdict() != Some(Ok(())) {
                break;
            }
            let elements = g.elements();
            let esize = self.params.elem_size as usize;
            for e in 0..elements {
                let slot = ((self.base_abs + e) % self.window) as usize * esize;
                self.outbox
                    .extend_from_slice(&self.ring[slot..slot + esize]);
            }
            self.stats.delivered_bytes += elements * esize as u64;
            self.groups.remove(&start);
            self.base_abs += elements;
            self.base_csn = self.base_csn.wrapping_add(elements as u32);
            self.stats.window_advances += 1;
        }
    }

    /// Takes the verified, in-order bytes accumulated since the last poll.
    pub fn poll_delivered(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.outbox)
    }

    /// Starts (absolute element index) of failed TPDUs awaiting a clean
    /// retransmission.
    pub fn failed_starts(&self) -> Vec<u64> {
        self.groups
            .iter()
            .filter(|(_, g)| matches!(g.verdict(), Some(Err(_))))
            .map(|(&s, _)| s)
            .collect()
    }

    /// Clears a failed group so the retransmission can verify afresh.
    pub fn reset_group(&mut self, start: u64) {
        self.groups.remove(&start);
    }

    /// Builds the current acknowledgment for the window, in the same shape
    /// the block receiver produces: the delivered prefix is cumulative,
    /// verified-but-blocked groups are SACKed, incomplete groups report
    /// their precise missing ranges, and failed groups are re-nacked whole.
    /// This is what lets the reliability layer drive timer-based repair of
    /// a long-running stream exactly like a bounded transfer.
    pub fn make_ack(&self) -> crate::ack::AckInfo {
        let verified = self
            .groups
            .iter()
            .filter(|(_, g)| g.verdict() == Some(Ok(())));
        let sacks = verified.map(|(&s, _)| s).collect();
        let (gaps, need_ed) = ack_parts(self.groups.iter().map(|(&s, g)| (s, g)));
        crate::ack::AckInfo {
            cumulative: self.base_abs,
            sacks,
            gaps,
            need_ed,
            // The stream receiver has no resource budget (its window is the
            // budget), so it never signals back-pressure.
            pressure: false,
        }
    }
}

enum Place {
    Stale,
    Beyond,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Framer;

    fn params(initial_csn: u32) -> ConnectionParams {
        ConnectionParams {
            conn_id: 0xCA,
            elem_size: 1,
            initial_csn,
            tpdu_elements: 8,
        }
    }

    fn layout() -> InvariantLayout {
        InvariantLayout::with_data_symbols(1024)
    }

    /// Streams `total` bytes through a window of `window` elements in
    /// TPDU-sized steps, delivering packets through `mangle`.
    fn stream_through(
        total: usize,
        window: u64,
        initial_csn: u32,
        mut mangle: impl FnMut(usize, &Chunk) -> Vec<Chunk>,
    ) -> (StreamReceiver, Vec<u8>, Vec<u8>) {
        let mut framer = Framer::new(params(initial_csn), layout());
        let mut rx = StreamReceiver::new(params(initial_csn), layout(), window);
        let mut sent = Vec::new();
        let mut received = Vec::new();
        let mut i = 0;
        while sent.len() < total {
            let block: Vec<u8> = (0..8).map(|k| ((sent.len() + k) % 251) as u8).collect();
            sent.extend_from_slice(&block);
            for t in framer.frame_simple(&block, 0xF, false) {
                for c in t.all_chunks() {
                    for m in mangle(i, &c) {
                        rx.handle_chunk(m, 0);
                        i += 1;
                    }
                }
            }
            received.extend(rx.poll_delivered());
        }
        let out = rx.poll_delivered();
        received.extend(out);
        (rx, sent, received)
    }

    #[test]
    fn unbounded_stream_through_small_window() {
        // 4 KiB through a 32-element window: the window must slide ~512
        // times; memory stays O(window).
        let (rx, sent, received) = stream_through(4096, 32, 0, |_, c| vec![c.clone()]);
        assert_eq!(received, sent);
        assert_eq!(rx.delivered(), 4096);
        assert!(rx.stats.window_advances >= 500);
    }

    #[test]
    fn csn_wraps_through_u32_boundary() {
        // Start near the top of the sequence space: C.SN wraps mid-stream
        // and the window keeps sliding.
        let (rx, sent, received) = stream_through(512, 64, u32::MAX - 100, |_, c| vec![c.clone()]);
        assert_eq!(received, sent);
        assert_eq!(rx.stats.overrun_chunks, 0);
        assert_eq!(rx.stats.stale_chunks, 0);
    }

    #[test]
    fn out_of_order_within_window() {
        // Swap the two data chunks of every pair of TPDUs.
        let mut held: Option<Chunk> = None;
        let (rx, sent, received) = stream_through(1024, 64, 7, move |_, c| {
            if c.header.ty == ChunkType::Data {
                if let Some(prev) = held.take() {
                    return vec![c.clone(), prev];
                }
                held = Some(c.clone());
                return vec![];
            }
            vec![c.clone()]
        });
        assert_eq!(received, sent);
        assert_eq!(rx.stats.tpdus_failed, 0);
    }

    #[test]
    fn stale_retransmissions_rejected_after_window_slides() {
        let p = params(0);
        let mut framer = Framer::new(p, layout());
        let mut rx = StreamReceiver::new(p, layout(), 16);
        let first: Vec<Chunk> = framer
            .frame_simple(&[1u8; 8], 0xF, false)
            .iter()
            .flat_map(|t| t.all_chunks())
            .collect();
        for c in &first {
            rx.handle_chunk(c.clone(), 0);
        }
        // Stream far enough that the window base moves well past TPDU 0.
        for _ in 0..4 {
            for t in framer.frame_simple(&[2u8; 8], 0xF, false) {
                for c in t.all_chunks() {
                    rx.handle_chunk(c, 0);
                }
            }
        }
        let before = rx.stats.stale_chunks;
        // A duplicate of TPDU 0 arrives very late: C.SN 0 is now *behind*
        // the base (base_csn = 40), so it must be classified stale.
        rx.handle_chunk(first[0].clone(), 1);
        assert_eq!(rx.stats.stale_chunks, before + 1);
        assert_eq!(rx.delivered(), 40);
    }

    #[test]
    fn sender_overrun_is_refused() {
        let p = params(0);
        let mut framer = Framer::new(p, layout());
        let mut rx = StreamReceiver::new(p, layout(), 8);
        // Two TPDUs = 16 elements, but the window holds 8 and nothing has
        // been delivered for TPDU 1 yet... TPDU 0 fits, TPDU 1 does not
        // until TPDU 0 verifies and slides out. Feed TPDU 1 first.
        let tpdus = framer.frame_simple(&[3u8; 16], 0xF, false);
        for c in tpdus[1].all_chunks() {
            rx.handle_chunk(c, 0);
        }
        assert!(rx.stats.overrun_chunks > 0);
        // In-window TPDU 0 flows normally and slides the window...
        for c in tpdus[0].all_chunks() {
            rx.handle_chunk(c, 0);
        }
        assert_eq!(rx.poll_delivered(), vec![3u8; 8]);
        // ...after which the retransmitted TPDU 1 fits.
        for c in tpdus[1].all_chunks() {
            rx.handle_chunk(c, 0);
        }
        assert_eq!(rx.poll_delivered(), vec![3u8; 8]);
    }

    #[test]
    fn corrupt_tpdu_blocks_then_recovers() {
        let p = params(0);
        let mut framer = Framer::new(p, layout());
        let mut rx = StreamReceiver::new(p, layout(), 32);
        let tpdus = framer.frame_simple(&[7u8; 16], 0xF, false);
        // Corrupt TPDU 0's payload.
        let mut bad = tpdus[0].chunks[0].clone();
        let mut raw = bad.payload.to_vec();
        raw[0] ^= 1;
        bad.payload = raw.into();
        rx.handle_chunk(bad, 0);
        rx.handle_chunk(tpdus[0].ed.clone(), 0);
        for c in tpdus[1].all_chunks() {
            rx.handle_chunk(c, 0);
        }
        assert_eq!(rx.stats.tpdus_failed, 1);
        assert!(
            rx.poll_delivered().is_empty(),
            "nothing may pass the bad TPDU"
        );
        // Retransmission with identical labels recovers the stream.
        assert_eq!(rx.failed_starts(), vec![0]);
        rx.reset_group(0);
        for c in tpdus[0].all_chunks() {
            rx.handle_chunk(c, 0);
        }
        assert_eq!(rx.poll_delivered(), vec![7u8; 16]);
        assert_eq!(rx.delivered(), 16);
    }

    #[test]
    fn failure_channels_share_the_block_receivers_accounting() {
        // One TPDU of 8 cut in halves `a`/`b`; each row condemns it through
        // a different channel of the shared engine. Every row must count one
        // failure (fed twice: the verdict is sticky), carry the reason the
        // block receiver gives, and be re-nacked over max(absorbed, tracked).
        let p = params(0);
        let tpdus = Framer::new(p, layout()).frame_simple(&[5u8; 8], 0xF, false);
        let (a, b) = chunks_core::frag::split(&tpdus[0].chunks[0], 4).unwrap();
        let mut past_stop = b.clone(); // [8, 12) with T.ST, after b's stop at 8
        past_stop.header.tpdu.sn += 4;
        past_stop.header.conn.sn += 4;
        let mut xsn = b.clone();
        xsn.header.ext.sn += 3;
        let mut tid = b.clone();
        tid.header.tpdu.id ^= 1;
        let small = InvariantLayout::with_data_symbols(4); // b lands past it
        for (layout, feed, reason, nacked) in [
            (
                layout(),
                [&b, &past_stop],
                FailureReason::ReassemblyError,
                4,
            ),
            (layout(), [&a, &xsn], FailureReason::Consistency, 8),
            (layout(), [&a, &tid], FailureReason::EdMismatch, 8),
            (small, [&a, &b], FailureReason::BadChunk, 8),
        ] {
            let mut rx = StreamReceiver::new(p, layout, 64);
            for c in feed.into_iter().chain(feed) {
                rx.handle_chunk(c.clone(), 0);
            }
            assert_eq!(rx.groups[&0].verdict(), Some(Err(reason)));
            assert_eq!(rx.stats.tpdus_failed, 1, "{reason:?} counts once");
            assert_eq!(rx.make_ack().gaps, vec![(0, nacked)], "{reason:?}");
        }
    }

    #[test]
    fn stream_ack_reports_window_state() {
        let p = params(0);
        let mut framer = Framer::new(p, layout());
        let mut rx = StreamReceiver::new(p, layout(), 32);
        let tpdus = framer.frame_simple(&[9u8; 24], 0xF, false); // 3 × 8
                                                                 // TPDU 0 delivered, TPDU 1 missing its first half (the second half
                                                                 // carries the T.ST bit, so the tracker knows the extent), TPDU 2
                                                                 // whole but blocked behind TPDU 1 (SACKed, not cumulative).
        for c in tpdus[0].all_chunks() {
            rx.handle_chunk(c, 0);
        }
        let half = chunks_core::frag::extract(&tpdus[1].chunks[0], 4, 4).unwrap();
        rx.handle_chunk(half, 0);
        rx.handle_chunk(tpdus[1].ed.clone(), 0);
        for c in tpdus[2].all_chunks() {
            rx.handle_chunk(c, 0);
        }
        let ack = rx.make_ack();
        assert_eq!(ack.cumulative, 8);
        assert_eq!(ack.sacks, vec![16]);
        assert_eq!(ack.gaps.len(), 1);
        let (lo, hi) = ack.gaps[0];
        assert!(lo >= 8 && hi <= 16, "gap inside TPDU 1: {lo}..{hi}");
        assert!(ack.need_ed.is_empty());
    }

    #[test]
    fn window_advert_tracks_base() {
        let p = params(100);
        let mut framer = Framer::new(p, layout());
        let mut rx = StreamReceiver::new(p, layout(), 64);
        assert_eq!(rx.window_advert(), (100, 64));
        for t in framer.frame_simple(&[1u8; 8], 0xF, false) {
            for c in t.all_chunks() {
                rx.handle_chunk(c, 0);
            }
        }
        assert_eq!(rx.window_advert(), (108, 64));
    }
}
