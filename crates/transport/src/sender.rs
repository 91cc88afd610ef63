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

use std::collections::BTreeMap;

use chunks_core::error::CoreError;
use chunks_core::packet::{pack, Packet};

use crate::ack::AckInfo;
use crate::conn::ConnectionParams;
use crate::frame::{AlfFrame, Framer, Tpdu};
use chunks_wsc::InvariantLayout;

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

/// The chunk transport sender for one connection.
#[derive(Debug)]
pub struct Sender {
    cfg: SenderConfig,
    framer: Framer,
    /// Unacknowledged TPDUs by connection-space start.
    pending: BTreeMap<u64, Tpdu>,
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
        let params = ConnectionParams {
            tpdu_elements: cfg.params.tpdu_elements,
            ..cfg.params
        };
        Sender {
            tpdu_elements: cfg.params.tpdu_elements,
            framer: Framer::new(params, cfg.layout),
            cfg,
            pending: BTreeMap::new(),
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

    /// Queues application data (covered by `alf` frames) for transmission.
    /// Returns the newly framed TPDUs' starts.
    pub fn submit(&mut self, data: &[u8], alf: &[AlfFrame], close: bool) -> Vec<u64> {
        // The framer's TPDU size follows the loss adapter.
        self.framer.set_tpdu_elements(self.tpdu_elements);
        let tpdus = self.framer.frame_stream(data, alf, close);
        let mut starts = Vec::with_capacity(tpdus.len());
        for t in tpdus {
            starts.push(t.start);
            self.pending.insert(t.start, t);
        }
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
    /// transmission or a full retransmission pass).
    pub fn packets_for_pending(&self) -> Result<Vec<Packet>, CoreError> {
        let chunks = self
            .pending
            .values()
            .flat_map(|t| t.all_chunks())
            .collect::<Vec<_>>();
        pack(chunks, self.cfg.mtu)
    }

    /// Packs the TPDUs named by `starts` for retransmission — identical
    /// identifiers, as §3.3 requires.
    pub fn retransmit(&mut self, starts: &[u64]) -> Result<Vec<Packet>, CoreError> {
        let mut chunks = Vec::new();
        for s in starts {
            if let Some(t) = self.pending.get(s) {
                chunks.extend(t.all_chunks());
                self.retransmissions += 1;
            }
        }
        pack(chunks, self.cfg.mtu)
    }

    /// Applies an acknowledgment; returns the starts newly confirmed.
    pub fn handle_ack(&mut self, ack: &AckInfo) -> Vec<u64> {
        let mut confirmed = Vec::new();
        let acked: Vec<u64> = self
            .pending
            .iter()
            .filter(|(&s, t)| ack.acknowledges(s, s + t.elements as u64))
            .map(|(&s, _)| s)
            .collect();
        for s in acked {
            self.pending.remove(&s);
            confirmed.push(s);
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
        let mut chunks = Vec::new();
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
                chunks.push(tpdu.ed.clone());
                continue;
            }
            let overlapping: Vec<(u64, u64)> = ack
                .gaps
                .iter()
                .filter(|&&(lo, hi)| lo < end && start < hi)
                .copied()
                .collect();
            if overlapping.is_empty() {
                // The report does not mention this TPDU at all: its packets
                // vanished before the receiver learned they exist, so it
                // cannot nack what it never saw. Full retransmission.
                chunks.extend(tpdu.all_chunks());
                continue;
            }
            // Precise sub-chunk repair (Appendix C extraction); the ED chunk
            // rides along so a receiver that lost it can still verify.
            for &(lo, hi) in &overlapping {
                let want_lo = lo.max(start);
                let want_hi = hi.min(end);
                if want_lo >= want_hi {
                    continue;
                }
                for c in &tpdu.chunks {
                    // Chunk covers [c_lo, c_hi) in connection space.
                    let c_lo = start + c.header.tpdu.sn as u64;
                    let c_hi = c_lo + c.header.len as u64;
                    let take_lo = want_lo.max(c_lo);
                    let take_hi = want_hi.min(c_hi);
                    if take_lo >= take_hi {
                        continue;
                    }
                    chunks.push(chunks_core::frag::extract(
                        c,
                        (take_lo - c_lo) as u32,
                        (take_hi - take_lo) as u32,
                    )?);
                }
            }
            chunks.push(tpdu.ed.clone());
        }
        self.retransmissions += repaired.len() as u64;
        Ok((pack(chunks, self.cfg.mtu)?, repaired))
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
}
