//! B2: fragmentation systems compared (§3.2) — chunks versus IP-style
//! fragmentation versus XTP-style small PDUs.
//!
//! The workload is the paper's supercomputer example: 64 KiB transport
//! blocks (a Cray TCP implementation used 64 KiB segments, §3) crossing an
//! internet path whose MTU shrinks hop by hop: 9180 (ATM/AAL5) → 1500
//! (Ethernet) → 576 (X.25-era minimum).
//!
//! Measured per system: packets delivered, wire bytes, header overhead, and
//! the number of *reassembly steps* the receiver performs before the data
//! can be processed (chunks: one; IP: fragments → TPDU → stream: two).

use std::fmt;

use bytes::Bytes;
use chunks_baseline::ip::{fragment, IpPacket, IpReassembler, IP_HEADER_LEN};
use chunks_baseline::xtp::{segment_message, XTP_HEADER_LEN};
use chunks_core::chunk::byte_chunk;
use chunks_core::frag::ReassemblyPool;
use chunks_core::label::FramingTuple;
use chunks_core::packet::{pack, unpack, Packet};
use chunks_core::wire::WIRE_HEADER_LEN;
use chunks_netsim::{ChunkRouter, PacketTransform, RefragPolicy};

/// Result for one fragmentation system.
#[derive(Clone, Debug)]
pub struct SystemRow {
    /// System name.
    pub system: &'static str,
    /// Packets arriving at the receiver.
    pub packets: usize,
    /// Total bytes on the final wire.
    pub wire_bytes: usize,
    /// Header bytes (wire − payload).
    pub header_bytes: usize,
    /// Reassembly steps before the application can see data.
    pub reassembly_steps: u32,
    /// Peak bytes buffered at the receiver before data could be processed.
    pub receiver_buffer_peak: u64,
    /// Whether the message survived intact.
    pub intact: bool,
}

/// Full B2 result.
pub struct B2Result {
    /// Message size in bytes.
    pub message_bytes: usize,
    /// The shrinking MTU path used.
    pub mtus: Vec<usize>,
    /// Per-system rows.
    pub rows: Vec<SystemRow>,
}

impl fmt::Display for B2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== B2 — fragmentation systems over a shrinking-MTU path {:?} ({} KiB blocks) ===",
            self.mtus,
            self.message_bytes / 1024
        )?;
        writeln!(
            f,
            "  {:<18} {:>8} {:>11} {:>13} {:>10} {:>13} {:>7}",
            "system", "packets", "wire bytes", "header bytes", "overhead", "rx buffer", "steps"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<18} {:>8} {:>11} {:>13} {:>9.1}% {:>11} B {:>7}{}",
                r.system,
                r.packets,
                r.wire_bytes,
                r.header_bytes,
                r.header_bytes as f64 * 100.0 / self.message_bytes as f64,
                r.receiver_buffer_peak,
                r.reassembly_steps,
                if r.intact { "" } else { "  CORRUPT" }
            )?;
        }
        Ok(())
    }
}

fn chunk_system(message: &[u8], mtus: &[usize]) -> SystemRow {
    let whole = byte_chunk(
        FramingTuple::new(1, 0, false),
        FramingTuple::new(2, 0, true),
        FramingTuple::new(3, 0, false),
        message,
    );
    let mut frames: Vec<Bytes> = pack(vec![whole.clone()], mtus[0])
        .unwrap()
        .into_iter()
        .map(|p| p.bytes)
        .collect();
    for &mtu in &mtus[1..] {
        let mut router = ChunkRouter::new(mtu, RefragPolicy::Repack);
        let mut next = Vec::new();
        for f in frames.drain(..) {
            router.ingest(0, f, &mut next);
        }
        router.flush(0, &mut next);
        frames = next;
    }
    let wire_bytes: usize = frames.iter().map(Bytes::len).sum();
    // Receiver: chunks are processed on arrival; the single-step pool only
    // tracks merge bookkeeping, no payload buffering is required (immediate
    // placement) — buffer peak is zero by construction.
    let mut pool = ReassemblyPool::new();
    for f in &frames {
        for c in unpack(&Packet { bytes: f.clone() }).unwrap() {
            pool.insert(c);
        }
    }
    let intact = pool.take_complete().as_ref() == Some(&whole);
    SystemRow {
        system: "chunks",
        packets: frames.len(),
        wire_bytes,
        header_bytes: wire_bytes - message.len(),
        reassembly_steps: 1,
        receiver_buffer_peak: 0,
        intact,
    }
}

fn ip_system(message: &[u8], mtus: &[usize]) -> SystemRow {
    // The 64 KiB transport block travels as one IP datagram (transport
    // header modelled at 20 bytes inside the payload, TCP-like).
    const TRANSPORT_HEADER: usize = 20;
    let mut payload = vec![0u8; TRANSPORT_HEADER];
    payload.extend_from_slice(message);
    let datagram = IpPacket::datagram(42, Bytes::from(payload));
    let mut frags = fragment(&datagram, mtus[0]).expect("fits first hop");
    for &mtu in &mtus[1..] {
        frags = frags
            .iter()
            .flat_map(|p| fragment(p, mtu).expect("fragmentable"))
            .collect();
    }
    let wire_bytes: usize = frags.iter().map(IpPacket::wire_len).sum();
    let packets = frags.len();
    // Receiver step 1: physical reassembly of fragments into the datagram.
    let mut reasm = IpReassembler::new(1 << 20);
    let mut peak = 0u64;
    let mut whole = None;
    for p in frags {
        if let Some(d) = reasm.offer(p) {
            whole = Some(d);
        }
        peak = peak.max(reasm.used());
    }
    // Receiver step 2: the reassembled TPDU is copied to the stream buffer
    // before processing.
    let intact = whole
        .as_ref()
        .is_some_and(|d| &d[TRANSPORT_HEADER..] == message);
    let buffer_peak = peak + message.len() as u64; // step-2 copy buffer
    SystemRow {
        system: "IP fragmentation",
        packets,
        wire_bytes,
        header_bytes: wire_bytes - message.len(),
        reassembly_steps: 2,
        receiver_buffer_peak: buffer_peak,
        intact,
    }
}

fn xtp_system(message: &[u8], mtus: &[usize]) -> SystemRow {
    // XTP avoids network fragmentation: the transport segments to the path
    // minimum MTU, paying a full transport header per packet.
    let path_min = *mtus.iter().min().unwrap();
    let pdus = segment_message(0, &Bytes::copy_from_slice(message), path_min).unwrap();
    let wire_bytes: usize = pdus.iter().map(|p| p.wire_len()).sum();
    let intact = {
        let mut rebuilt = Vec::with_capacity(message.len());
        for p in &pdus {
            rebuilt.extend_from_slice(&p.payload);
        }
        rebuilt == message
    };
    SystemRow {
        system: "XTP small PDUs",
        packets: pdus.len(),
        wire_bytes,
        header_bytes: pdus.len() * XTP_HEADER_LEN,
        // Each mini-PDU is processed independently, but the stream must
        // still be reordered/placed: one step.
        reassembly_steps: 1,
        receiver_buffer_peak: 0,
        intact,
    }
}

/// Runs B2 for one block size over the canonical shrinking path.
pub fn run(message_bytes: usize) -> B2Result {
    let message: Vec<u8> = (0..message_bytes).map(|i| (i * 17 + 3) as u8).collect();
    let mtus = vec![9180usize, 1500, 576];
    let rows = vec![
        chunk_system(&message, &mtus),
        ip_system(&message, &mtus),
        xtp_system(&message, &mtus),
    ];
    B2Result {
        message_bytes,
        mtus,
        rows,
    }
}

/// Reference overheads used in the display: chunk, IP and XTP header sizes.
pub fn header_sizes() -> (usize, usize, usize) {
    (WIRE_HEADER_LEN, IP_HEADER_LEN, XTP_HEADER_LEN)
}
