//! Reproduction of Table 1: how corruption of each chunk field is detected.
//!
//! For every row of the paper's table we frame a three-chunk TPDU (plus its
//! ED chunk), corrupt exactly the named field of one chunk in flight, feed
//! everything to the receiver, and record which detection channel fired.
//! The paper's claimed channel is carried alongside for comparison.

use std::fmt;

use chunks_core::chunk::Chunk;
use chunks_transport::{
    AlfFrame, ConnectionParams, DeliveryMode, FailureReason, Framer, Receiver, RxEvent, Tpdu,
};
use chunks_wsc::InvariantLayout;

/// The detection channels of Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Channel {
    /// "Error Detection Code".
    EdCode,
    /// "Consistency Check".
    Consistency,
    /// "Reassembly Error".
    Reassembly,
    /// Corruption escaped detection (never expected).
    Undetected,
}

impl fmt::Display for Channel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Channel::EdCode => "Error Detection Code",
            Channel::Consistency => "Consistency Check",
            Channel::Reassembly => "Reassembly Error",
            Channel::Undetected => "UNDETECTED",
        })
    }
}

/// One row of the reproduced table.
#[derive(Clone, Debug)]
pub struct Row {
    /// Field corrupted.
    pub field: &'static str,
    /// Whether fragmentation rewrites the field (the paper's middle
    /// column).
    pub changed_by_fragmentation: bool,
    /// The channel the paper claims detects it.
    pub paper: Channel,
    /// The channel our implementation reported.
    pub measured: Channel,
}

/// The full reproduced table.
pub struct Table1 {
    /// All rows, in the paper's order.
    pub rows: Vec<Row>,
}

impl Table1 {
    /// True when every measured channel matches the paper.
    pub fn matches_paper(&self) -> bool {
        self.rows.iter().all(|r| r.measured == r.paper)
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== Table 1 — how corruption is detected, per chunk field ==="
        )?;
        writeln!(
            f,
            "  {:<10} {:<14} {:<22} {:<22}",
            "Field", "Frag-variant?", "Paper says", "Measured"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<10} {:<14} {:<22} {:<22} {}",
                r.field,
                if r.changed_by_fragmentation {
                    "yes"
                } else {
                    "no"
                },
                r.paper.to_string(),
                r.measured.to_string(),
                if r.measured == r.paper {
                    "ok"
                } else {
                    "MISMATCH"
                }
            )?;
        }
        Ok(())
    }
}

fn params() -> ConnectionParams {
    ConnectionParams {
        conn_id: 0xA,
        elem_size: 1,
        initial_csn: 100,
        tpdu_elements: 9,
    }
}

fn layout() -> InvariantLayout {
    InvariantLayout::with_data_symbols(1024)
}

/// Frames two TPDUs; the first has three chunks (three external frames).
fn victim_tpdus() -> Vec<Tpdu> {
    let mut f = Framer::new(params(), layout());
    f.frame_stream(
        &[7u8; 18],
        &[
            AlfFrame {
                id: 0xE1,
                len_elements: 3,
            },
            AlfFrame {
                id: 0xE2,
                len_elements: 3,
            },
            AlfFrame {
                id: 0xE3,
                len_elements: 3,
            },
            AlfFrame {
                id: 0xE4,
                len_elements: 9,
            },
        ],
        false,
    )
}

/// Runs the receiver over the (possibly corrupted) chunks and classifies
/// the outcome.
fn classify(chunks: Vec<Chunk>) -> Channel {
    let mut rx = Receiver::new(DeliveryMode::Immediate, params(), layout(), 1 << 12);
    let mut events = Vec::new();
    for c in chunks {
        rx.handle_chunk_into(c, 0, &mut events);
    }
    events.extend(rx.expire_incomplete());
    // The corrupted TPDU is the first one (start 0); find its fate.
    let mut channel = Channel::Undetected;
    for e in &events {
        if let RxEvent::TpduFailed { reason, .. } = e {
            let c = match reason {
                FailureReason::EdMismatch => Channel::EdCode,
                // An overlap conflict is label-consistency detection: the
                // labels place two differing payloads at one position.
                FailureReason::Consistency | FailureReason::OverlapConflict => Channel::Consistency,
                FailureReason::ReassemblyError | FailureReason::BadChunk => Channel::Reassembly,
            };
            // First failure wins (it is what an implementation would log).
            if channel == Channel::Undetected {
                channel = c;
            }
        }
    }
    // A corruption that prevented delivery of TPDU 0 without an explicit
    // failure event would also count as reassembly trouble; but if TPDU 0
    // was delivered cleanly the corruption went undetected.
    if channel == Channel::Undetected {
        let delivered_t0 = events
            .iter()
            .any(|e| matches!(e, RxEvent::TpduDelivered { start: 0, .. }));
        if !delivered_t0 {
            channel = Channel::Reassembly;
        }
    }
    channel
}

/// Builds the chunk sequence with the first TPDU's middle (index 1) data
/// chunk replaced by `transform`'s output.
fn with_replacement(transform: impl FnOnce(Chunk) -> Vec<Chunk>) -> Vec<Chunk> {
    let mut transform = Some(transform);
    let tpdus = victim_tpdus();
    let mut chunks = Vec::new();
    for (i, t) in tpdus.iter().enumerate() {
        let mut cs = t.all_chunks();
        if i == 0 {
            let victim = cs.remove(1);
            let transform = transform.take().expect("first TPDU seen once");
            for (k, replacement) in transform(victim).into_iter().enumerate() {
                cs.insert(1 + k, replacement);
            }
        }
        chunks.extend(cs);
    }
    chunks
}

/// Builds the chunk sequence with `mutate` applied to the first TPDU's
/// middle (index 1) data chunk.
fn with_corruption(mutate: impl FnOnce(&mut Chunk)) -> Vec<Chunk> {
    with_replacement(|mut c| {
        mutate(&mut c);
        vec![c]
    })
}

/// Same, but corrupting the ED chunk of the first TPDU.
fn with_ed_corruption(mutate: impl FnOnce(&mut Chunk)) -> Vec<Chunk> {
    let mut mutate = Some(mutate);
    let tpdus = victim_tpdus();
    let mut chunks = Vec::new();
    for (i, t) in tpdus.iter().enumerate() {
        let mut cs = t.all_chunks();
        if i == 0 {
            let last = cs.len() - 1;
            (mutate.take().expect("first TPDU seen once"))(&mut cs[last]);
        }
        chunks.extend(cs);
    }
    chunks
}

fn flip_payload_byte(c: &mut Chunk) {
    let mut raw = c.payload.to_vec();
    raw[0] ^= 0x20;
    c.payload = raw.into();
}

/// Runs the whole Table 1 experiment.
pub fn run() -> Table1 {
    let rows = vec![
        Row {
            field: "C.ID",
            changed_by_fragmentation: false,
            paper: Channel::EdCode,
            measured: classify(with_corruption(|c| c.header.conn.id ^= 0x1)),
        },
        Row {
            field: "C.SN",
            changed_by_fragmentation: true,
            paper: Channel::Consistency,
            // Misaligned shift into a neighbouring TPDU's element range.
            measured: classify(with_corruption(|c| {
                c.header.conn.sn = c.header.conn.sn.wrapping_add(7)
            })),
        },
        Row {
            field: "C.ST",
            changed_by_fragmentation: true,
            paper: Channel::EdCode,
            measured: classify(with_corruption(|c| c.header.conn.st = true)),
        },
        Row {
            field: "T.ID",
            changed_by_fragmentation: false,
            paper: Channel::EdCode,
            measured: classify(with_corruption(|c| c.header.tpdu.id ^= 0x40)),
        },
        Row {
            field: "T.SN",
            changed_by_fragmentation: true,
            paper: Channel::Reassembly,
            measured: classify(with_corruption(|c| {
                c.header.tpdu.sn = c.header.tpdu.sn.wrapping_add(16)
            })),
        },
        Row {
            field: "T.ST",
            changed_by_fragmentation: true,
            paper: Channel::Reassembly,
            // A spurious stop bit mid-TPDU: reassembly completes at the
            // wrong length or conflicts with the true stop.
            measured: classify(with_corruption(|c| c.header.tpdu.st = true)),
        },
        Row {
            field: "X.ID",
            changed_by_fragmentation: false,
            paper: Channel::EdCode,
            // The middle chunk ends external frame E2 (X.ST set), so its
            // X.ID is boundary-encoded in the invariant.
            measured: classify(with_corruption(|c| c.header.ext.id ^= 0x1000)),
        },
        Row {
            field: "X.SN",
            changed_by_fragmentation: true,
            paper: Channel::Consistency,
            // X.SN is rewritten by fragmentation, so the natural corruption
            // site is a fragment: split the chunk (Appendix C) and corrupt
            // the tail's X.SN. `C.SN - X.SN` is then no longer constant
            // within the external PDU.
            measured: classify(with_replacement(|c| {
                let (a, mut b) = chunks_core::frag::split(&c, 1).unwrap();
                b.header.ext.sn = b.header.ext.sn.wrapping_add(5);
                vec![a, b]
            })),
        },
        Row {
            field: "X.ST",
            changed_by_fragmentation: true,
            paper: Channel::EdCode,
            measured: classify(with_corruption(|c| c.header.ext.st = !c.header.ext.st)),
        },
        Row {
            field: "TYPE",
            changed_by_fragmentation: false,
            paper: Channel::Reassembly,
            // Data re-typed as signalling: the TPDU never completes.
            measured: classify(with_corruption(|c| {
                c.header.ty = chunks_core::label::ChunkType::Signal;
                c.header.len = 1;
                c.header.size = c.payload.len() as u16;
            })),
        },
        Row {
            field: "LEN",
            changed_by_fragmentation: true,
            paper: Channel::Reassembly,
            // LEN no longer matches the payload: the chunk is malformed and
            // dropped; its elements never arrive.
            measured: classify(with_corruption(|c| {
                // Model the post-parse effect: a shorter claimed run.
                let lost = c.header.size as usize;
                c.header.len -= 1;
                let raw = c.payload.to_vec();
                c.payload = raw[..raw.len() - lost].to_vec().into();
            })),
        },
        Row {
            field: "SIZE",
            changed_by_fragmentation: false,
            paper: Channel::Reassembly,
            measured: classify(with_corruption(|c| {
                // SIZE disagrees with the connection's signalled element
                // size (and would shift every invariant position).
                c.header.size = 3;
                c.header.len = 1;
            })),
        },
        Row {
            field: "Data",
            changed_by_fragmentation: false,
            paper: Channel::EdCode,
            measured: classify(with_corruption(flip_payload_byte)),
        },
        Row {
            field: "ED code",
            changed_by_fragmentation: false,
            paper: Channel::EdCode,
            measured: classify(with_ed_corruption(flip_payload_byte)),
        },
    ];
    Table1 { rows }
}
