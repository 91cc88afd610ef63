//! B7: Turner's whole-TPDU dropping under congestion (§3).
//!
//! "If fragments travel along the same route, we have the option of
//! dropping all of the fragments of a TPDU if any fragment must be
//! dropped." When a congested router must shed one chunk, the rest of that
//! TPDU is dead weight: it will cross every downstream link and then be
//! retransmitted anyway. We compare a congestion point that victimizes
//! single chunks (naive) with one that condemns the whole TPDU (Turner),
//! at the same victim rate, and count the downstream bytes that were
//! carried for nothing.

use std::fmt;

use bytes::Bytes;
use chunks_core::chunk::Chunk;
use chunks_core::packet::{pack, unpack, Packet};
use chunks_netsim::{PacketTransform, TurnerDropper};
use chunks_transport::{ConnectionParams, Framer};
use chunks_wsc::InvariantLayout;

/// Result for one congestion policy.
#[derive(Clone, Copy, Debug)]
pub struct B7Row {
    /// Policy name.
    pub policy: &'static str,
    /// Chunks dropped at the congestion point.
    pub dropped_chunks: u64,
    /// Payload bytes carried downstream in total.
    pub downstream_bytes: u64,
    /// Downstream payload bytes belonging to TPDUs that cannot complete —
    /// pure waste.
    pub wasted_bytes: u64,
    /// TPDUs that arrive complete.
    pub complete_tpdus: u64,
}

/// Full B7 result.
pub struct B7Result {
    /// TPDUs in the workload.
    pub tpdus: u64,
    /// Rows per policy.
    pub rows: Vec<B7Row>,
}

impl fmt::Display for B7Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== B7 — Turner whole-TPDU dropping at a congestion point ({} TPDUs) ===",
            self.tpdus
        )?;
        writeln!(
            f,
            "  {:<16} {:>9} {:>17} {:>13} {:>10}",
            "policy", "dropped", "downstream bytes", "wasted bytes", "complete"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<16} {:>9} {:>17} {:>13} {:>10}",
                r.policy, r.dropped_chunks, r.downstream_bytes, r.wasted_bytes, r.complete_tpdus
            )?;
        }
        Ok(())
    }
}

/// A naive congestion point: victimizes every `drop_every`-th data chunk,
/// keeping the rest of the TPDU flowing (downstream waste).
struct NaiveDropper {
    drop_every: u64,
    seen: u64,
    dropped: u64,
}

impl PacketTransform for NaiveDropper {
    fn ingest(&mut self, _now: u64, frame: Bytes, out: &mut Vec<Bytes>) {
        let Ok(chunks) = unpack(&Packet { bytes: frame }) else {
            return;
        };
        let mut keep = Vec::new();
        for c in chunks {
            if !c.header.ty.is_control() {
                self.seen += 1;
                if self.seen.is_multiple_of(self.drop_every) {
                    self.dropped += 1;
                    continue;
                }
            }
            keep.push(c);
        }
        if keep.is_empty() {
            return;
        }
        if let Ok(ps) = pack(keep, 1 << 16) {
            out.extend(ps.into_iter().map(|p| p.bytes));
        }
    }
}

fn measure(frames: &[Bytes], transform: &mut dyn PacketTransform, policy: &'static str) -> B7Row {
    let mut out = Vec::new();
    for f in frames {
        transform.ingest(0, f.clone(), &mut out);
    }
    transform.flush(0, &mut out);

    // Account downstream chunks per TPDU (keyed by implicit T.ID).
    let mut per_tpdu: std::collections::HashMap<(u32, u32), (u64, u64)> =
        std::collections::HashMap::new(); // key -> (bytes seen, elements seen)
    let mut downstream_bytes = 0u64;
    let mut chunks_down: Vec<Chunk> = Vec::new();
    for bytes in out {
        for c in unpack(&Packet { bytes }).unwrap() {
            if c.header.ty.is_control() {
                continue;
            }
            downstream_bytes += c.payload.len() as u64;
            let key = (
                c.header.conn.id,
                c.header.conn.sn.wrapping_sub(c.header.tpdu.sn),
            );
            let e = per_tpdu.entry(key).or_default();
            e.0 += c.payload.len() as u64;
            e.1 += c.header.len as u64;
            chunks_down.push(c);
        }
    }
    // A TPDU is complete when all 64 of its elements arrived.
    let complete = per_tpdu.values().filter(|&&(_, elems)| elems == 64).count() as u64;
    let wasted: u64 = per_tpdu
        .values()
        .filter(|&&(_, elems)| elems != 64)
        .map(|&(bytes, _)| bytes)
        .sum();
    let total_sent: u64 = frames
        .iter()
        .flat_map(|f| unpack(&Packet { bytes: f.clone() }).unwrap())
        .filter(|c| !c.header.ty.is_control())
        .map(|c| c.payload.len() as u64)
        .sum();
    B7Row {
        policy,
        dropped_chunks: total_sent.saturating_sub(downstream_bytes) / 16, // 16B chunks
        downstream_bytes,
        wasted_bytes: wasted,
        complete_tpdus: complete,
    }
}

/// Runs B7: `tpdus` TPDUs of 64 elements, 4 chunks each, victim rate 1/13.
pub fn run(tpdus: u64) -> B7Result {
    let params = ConnectionParams {
        conn_id: 0x77,
        elem_size: 1,
        initial_csn: 0,
        tpdu_elements: 64,
    };
    let mut framer = Framer::new(params, InvariantLayout::with_data_symbols(4096));
    // Four external frames per TPDU force four chunks per TPDU.
    let data = vec![0x3Cu8; (tpdus * 64) as usize];
    let alf: Vec<chunks_transport::AlfFrame> = (0..tpdus * 4)
        .map(|i| chunks_transport::AlfFrame {
            id: i as u32,
            len_elements: 16,
        })
        .collect();
    let framed = framer.frame_stream(&data, &alf, false);
    // One packet per chunk, as a congested queue would see them.
    let frames: Vec<Bytes> = framed
        .iter()
        .flat_map(|t| t.chunks.iter())
        .map(|c| pack(vec![c.clone()], 1 << 12).unwrap()[0].bytes.clone())
        .collect();

    let mut naive = NaiveDropper {
        drop_every: 13,
        seen: 0,
        dropped: 0,
    };
    let mut turner = TurnerDropper::new(13);
    let rows = vec![
        measure(&frames, &mut naive, "naive single"),
        measure(&frames, &mut turner, "Turner whole-TPDU"),
    ];
    B7Result { tpdus, rows }
}
