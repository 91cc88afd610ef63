//! IP-style fragmentation (RFC 791 shape): `(ID, offset, MF)`.
//!
//! The contrast with chunks (§3.2): fragments carry only *one* level of
//! framing, identified relative to the original PDU, so "fragments must be
//! reassembled into PDUs at the receiver before they can be processed as
//! usual" — reassembly before processing implies buffering, two bus
//! crossings per byte, and exposure to reassembly-buffer lock-up. IP never
//! combines fragments in the network.

use bytes::Bytes;
use chunks_netsim::PacketTransform;
use std::collections::HashMap;

/// Modelled IP header size in bytes (an IPv4 header without options).
pub const IP_HEADER_LEN: usize = 20;

/// Fragment offsets are in 8-byte units, as in IPv4.
pub const OFFSET_UNIT: usize = 8;

/// A (possibly fragmented) IP packet.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct IpPacket {
    /// PDU identification shared by all fragments of one datagram.
    pub id: u32,
    /// Byte offset of this fragment's payload within the datagram
    /// (a multiple of [`OFFSET_UNIT`] for non-final fragments).
    pub offset: u32,
    /// More-fragments flag (the paper's `T.ST` is its logical inverse).
    pub mf: bool,
    /// Fragment payload.
    pub payload: Bytes,
}

impl IpPacket {
    /// A whole, unfragmented datagram.
    pub fn datagram(id: u32, payload: Bytes) -> Self {
        IpPacket {
            id,
            offset: 0,
            mf: false,
            payload,
        }
    }

    /// Total wire length of this fragment.
    pub fn wire_len(&self) -> usize {
        IP_HEADER_LEN + self.payload.len()
    }

    /// Encodes to wire form: `id | offset | flags | pad` then payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        out.extend_from_slice(&self.id.to_be_bytes());
        out.extend_from_slice(&self.offset.to_be_bytes());
        out.push(self.mf as u8);
        out.extend_from_slice(&[0u8; IP_HEADER_LEN - 9]); // version/ttl/etc.
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes wire form.
    pub fn decode(buf: &[u8]) -> Option<Self> {
        if buf.len() < IP_HEADER_LEN {
            return None;
        }
        Some(IpPacket {
            id: u32::from_be_bytes([buf[0], buf[1], buf[2], buf[3]]),
            offset: u32::from_be_bytes([buf[4], buf[5], buf[6], buf[7]]),
            mf: buf[8] != 0,
            payload: Bytes::copy_from_slice(&buf[IP_HEADER_LEN..]),
        })
    }
}

/// Fragments a packet so each piece fits `mtu` bytes on the wire.
///
/// Offsets of non-final fragments stay multiples of [`OFFSET_UNIT`].
pub fn fragment(p: &IpPacket, mtu: usize) -> Option<Vec<IpPacket>> {
    if p.wire_len() <= mtu {
        return Some(vec![p.clone()]);
    }
    let room = (mtu.checked_sub(IP_HEADER_LEN)?) / OFFSET_UNIT * OFFSET_UNIT;
    if room == 0 {
        return None;
    }
    let mut out = Vec::new();
    let total = p.payload.len();
    let mut at = 0usize;
    while at < total {
        let take = room.min(total - at);
        let last = at + take == total;
        out.push(IpPacket {
            id: p.id,
            offset: p.offset + at as u32,
            mf: p.mf || !last,
            payload: p.payload.slice(at..at + take),
        });
        at += take;
    }
    Some(out)
}

/// An IP router: fragments onto a smaller egress MTU; never reassembles or
/// combines ("IP fragmentation never combines fragments in the network").
#[derive(Debug)]
pub struct IpRouter {
    /// Egress MTU in bytes.
    pub egress_mtu: usize,
    /// Fragments produced beyond the originals.
    pub splits: u64,
    /// Packets dropped as unfragmentable.
    pub drops: u64,
}

impl IpRouter {
    /// Creates a router for the given egress MTU.
    pub fn new(egress_mtu: usize) -> Self {
        IpRouter {
            egress_mtu,
            splits: 0,
            drops: 0,
        }
    }
}

impl PacketTransform for IpRouter {
    fn ingest(&mut self, _now: u64, frame: Bytes, out: &mut Vec<Bytes>) {
        let Some(p) = IpPacket::decode(&frame) else {
            self.drops += 1;
            return;
        };
        match fragment(&p, self.egress_mtu) {
            Some(frags) => {
                self.splits += frags.len().saturating_sub(1) as u64;
                out.extend(frags.iter().map(|f| Bytes::from(f.encode())));
            }
            None => self.drops += 1,
        }
    }
}

/// Receiver-side datagram reassembly with a finite buffer.
///
/// Holds fragment payloads until a datagram is complete, then releases it
/// whole — the physical-reassembly step chunks avoid. Reports lock-up drops
/// when the buffer fills with incomplete datagrams.
#[derive(Debug)]
pub struct IpReassembler {
    capacity: u64,
    used: u64,
    pending: HashMap<u32, Datagram>,
    clock: u64,
    /// Fragments dropped because the buffer was full.
    pub lockup_drops: u64,
    /// Datagrams completed.
    pub completed: u64,
    /// Duplicate fragments rejected.
    pub duplicates: u64,
    /// Datagrams evicted by timeout.
    pub evicted: u64,
}

#[derive(Debug)]
struct Datagram {
    tracker: chunks_vreasm::PduTracker,
    /// Sparse payload store keyed by offset.
    pieces: Vec<(u32, Bytes)>,
    bytes: u64,
    born: u64,
}

impl IpReassembler {
    /// Creates a reassembler with `capacity` bytes of fragment storage.
    pub fn new(capacity: u64) -> Self {
        IpReassembler {
            capacity,
            used: 0,
            pending: HashMap::new(),
            clock: 0,
            lockup_drops: 0,
            completed: 0,
            duplicates: 0,
            evicted: 0,
        }
    }

    /// Bytes currently buffered.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Incomplete datagrams held.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Offers a fragment; returns the whole datagram payload when this
    /// fragment completes it.
    pub fn offer(&mut self, p: IpPacket) -> Option<Bytes> {
        use chunks_vreasm::TrackEvent;
        self.clock += 1;
        let born = self.clock;
        let len = p.payload.len() as u64;
        let entry = self.pending.entry(p.id).or_insert_with(|| Datagram {
            tracker: chunks_vreasm::PduTracker::new(),
            pieces: Vec::new(),
            bytes: 0,
            born,
        });
        let mut probe = entry.tracker.clone();
        match probe.offer(p.offset as u64, len, !p.mf) {
            TrackEvent::Accepted => {}
            TrackEvent::Duplicate => {
                self.duplicates += 1;
                return None;
            }
            TrackEvent::Inconsistent => return None,
        }
        if probe.is_complete() {
            let mut dg = self.pending.remove(&p.id).unwrap();
            self.used -= dg.bytes;
            self.completed += 1;
            dg.pieces.push((p.offset, p.payload));
            dg.pieces.sort_by_key(|&(o, _)| o);
            let mut whole = Vec::with_capacity((dg.bytes + len) as usize);
            for (_, piece) in dg.pieces {
                whole.extend_from_slice(&piece);
            }
            return Some(whole.into());
        }
        if self.used + len > self.capacity {
            if entry.bytes == 0 {
                self.pending.remove(&p.id);
            }
            self.lockup_drops += 1;
            return None;
        }
        entry.tracker = probe;
        entry.pieces.push((p.offset, p.payload));
        entry.bytes += len;
        self.used += len;
        None
    }

    /// Evicts the oldest incomplete datagram (fragment timeout).
    pub fn evict_oldest(&mut self) -> Option<u32> {
        let (&id, _) = self.pending.iter().min_by_key(|(_, d)| d.born)?;
        let dg = self.pending.remove(&id).unwrap();
        self.used -= dg.bytes;
        self.evicted += 1;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> Bytes {
        (0..n).map(|i| i as u8).collect::<Vec<u8>>().into()
    }

    #[test]
    fn encode_decode_roundtrip() {
        let p = IpPacket {
            id: 0xDEAD,
            offset: 64,
            mf: true,
            payload: payload(100),
        };
        assert_eq!(IpPacket::decode(&p.encode()), Some(p));
    }

    #[test]
    fn fragment_respects_mtu_and_offsets() {
        let p = IpPacket::datagram(7, payload(100));
        let frags = fragment(&p, IP_HEADER_LEN + 40).unwrap();
        assert_eq!(frags.len(), 3); // 40 + 40 + 20
        for f in &frags {
            assert!(f.wire_len() <= IP_HEADER_LEN + 40);
        }
        assert_eq!(frags[0].offset, 0);
        assert_eq!(frags[1].offset, 40);
        assert_eq!(frags[2].offset, 80);
        assert!(frags[0].mf && frags[1].mf && !frags[2].mf);
    }

    #[test]
    fn refragmentation_preserves_mf_of_non_final() {
        let p = IpPacket::datagram(7, payload(64));
        let first = fragment(&p, IP_HEADER_LEN + 32).unwrap();
        // Refragment the first (mf=true) fragment further.
        let again = fragment(&first[0], IP_HEADER_LEN + 16).unwrap();
        assert!(again.iter().all(|f| f.mf), "no piece may claim to be final");
    }

    #[test]
    fn unfragmentable_when_no_room() {
        let p = IpPacket::datagram(7, payload(100));
        assert!(fragment(&p, IP_HEADER_LEN + 7).is_none());
        assert!(fragment(&p, 4).is_none());
    }

    #[test]
    fn reassembler_out_of_order() {
        let p = IpPacket::datagram(1, payload(100));
        let mut frags = fragment(&p, IP_HEADER_LEN + 40).unwrap();
        frags.reverse();
        let mut r = IpReassembler::new(1 << 20);
        let mut done = None;
        for f in frags {
            if let Some(d) = r.offer(f) {
                done = Some(d);
            }
        }
        assert_eq!(done.unwrap(), payload(100));
        assert_eq!(r.used(), 0);
        assert_eq!(r.completed, 1);
    }

    #[test]
    fn reassembler_rejects_duplicates() {
        let p = IpPacket::datagram(1, payload(80));
        let frags = fragment(&p, IP_HEADER_LEN + 40).unwrap();
        let mut r = IpReassembler::new(1 << 20);
        r.offer(frags[0].clone());
        r.offer(frags[0].clone());
        assert_eq!(r.duplicates, 1);
    }

    #[test]
    fn lockup_when_buffer_full_of_incomplete() {
        let mut r = IpReassembler::new(100);
        // Heads of three datagrams, no tails.
        for id in 0..3 {
            let head = IpPacket {
                id,
                offset: 0,
                mf: true,
                payload: payload(30),
            };
            assert!(r.offer(head).is_none());
        }
        let head4 = IpPacket {
            id: 99,
            offset: 0,
            mf: true,
            payload: payload(30),
        };
        assert!(r.offer(head4).is_none());
        assert_eq!(r.lockup_drops, 1);
        // Timeout eviction unblocks.
        assert_eq!(r.evict_oldest(), Some(0));
        assert_eq!(r.used(), 60);
    }

    #[test]
    fn router_fragments_and_never_combines() {
        let p = IpPacket::datagram(5, payload(100));
        let mut router = IpRouter::new(IP_HEADER_LEN + 48);
        let mut out = Vec::new();
        router.ingest(0, p.encode().into(), &mut out);
        assert_eq!(out.len(), 3);
        assert_eq!(router.splits, 2);
        // Feeding small fragments through a large-MTU router: they stay
        // separate (IP cannot combine).
        let mut wide = IpRouter::new(64 * 1024);
        let mut reout = Vec::new();
        for f in out {
            wide.ingest(0, f, &mut reout);
        }
        assert_eq!(reout.len(), 3);
        assert_eq!(wide.splits, 0);
    }

    #[test]
    fn router_drops_garbage() {
        let mut router = IpRouter::new(1500);
        let mut out = Vec::new();
        router.ingest(0, Bytes::from_static(&[1, 2, 3]), &mut out);
        assert!(out.is_empty());
        assert_eq!(router.drops, 1);
    }
}
