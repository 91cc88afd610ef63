//! Reproductions of Figures 1–7.

use std::fmt;

use bytes::Bytes;
use chunks_core::chunk::{byte_chunk, Chunk, ChunkHeader};
use chunks_core::frag::{split, split_to_fit, ReassemblyPool};
use chunks_core::label::{ChunkType, FramingTuple};
use chunks_core::packet::{pack, unpack};
use chunks_core::wire::WIRE_HEADER_LEN;
use chunks_netsim::{ChunkRouter, PacketTransform, RefragPolicy};
use chunks_transport::{AlfFrame, ConnectionParams, Framer};
use chunks_wsc::{InvariantLayout, TpduInvariant};

use super::compress::implicit_tid;

/// A rendered text reproduction plus machine-checkable facts.
pub struct FigureResult {
    /// Which figure this reproduces.
    pub figure: &'static str,
    /// Human-readable rendering.
    pub text: String,
    /// Checks performed, as `(description, passed)`.
    pub checks: Vec<(String, bool)>,
}

impl FigureResult {
    /// True when every check passed.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|(_, p)| *p)
    }
}

impl fmt::Display for FigureResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== {} ===", self.figure)?;
        writeln!(f, "{}", self.text)?;
        for (desc, passed) in &self.checks {
            writeln!(f, "  [{}] {desc}", if *passed { "ok" } else { "FAIL" })?;
        }
        Ok(())
    }
}

fn header_line(h: &ChunkHeader) -> String {
    format!(
        "TYPE={} SIZE={} LEN={}  C=({:#x},{},{})  T=({:#x},{},{})  X=({:#x},{},{})",
        h.ty,
        h.size,
        h.len,
        h.conn.id,
        h.conn.sn,
        h.conn.st as u8,
        h.tpdu.id,
        h.tpdu.sn,
        h.tpdu.st as u8,
        h.ext.id,
        h.ext.sn,
        h.ext.st as u8,
    )
}

/// Figure 1: dividing one data stream into multiple PDU structures at once.
///
/// PDU type 1 (TPDUs) frames the stream as A, B, C; PDU type 2 (an external
/// frame W) spans the same data. The framer emits chunks cut at *every*
/// boundary, each labelled with both structures.
pub fn figure1() -> FigureResult {
    let params = ConnectionParams {
        conn_id: 0x1,
        elem_size: 1,
        initial_csn: 0,
        tpdu_elements: 16, // PDU type 1: frames A, B, C of 16 elements
    };
    let mut framer = Framer::new(params, InvariantLayout::with_data_symbols(256));
    let data = vec![0u8; 48];
    // PDU type 2: a single frame W covering everything.
    let tpdus = framer.frame_stream(
        &data,
        &[AlfFrame {
            id: 0x57, // 'W'
            len_elements: 48,
        }],
        false,
    );
    let mut text = String::from("one 48-element stream, framed two ways at once:\n");
    for t in &tpdus {
        for c in &t.chunks {
            text.push_str(&format!("  {}\n", header_line(&c.header)));
        }
    }
    let mut checks = Vec::new();
    checks.push(("three TPDUs (PDU type 1: A, B, C)".into(), tpdus.len() == 3));
    let all: Vec<&Chunk> = tpdus.iter().flat_map(|t| t.chunks.iter()).collect();
    checks.push((
        "every chunk also carries PDU type 2 frame W".into(),
        all.iter().all(|c| c.header.ext.id == 0x57),
    ));
    checks.push((
        "X.SN runs continuously across TPDU boundaries".into(),
        all.windows(2)
            .all(|w| w[1].header.ext.sn == w[0].header.ext.sn + w[0].header.len),
    ));
    checks.push((
        "frame W ends exactly once, at the last chunk".into(),
        all.iter().filter(|c| c.header.ext.st).count() == 1 && all.last().unwrap().header.ext.st,
    ));
    FigureResult {
        figure: "Figure 1 — dividing a data stream into multiple PDUs",
        text,
        checks,
    }
}

/// The nine labelled data elements of Figure 2. Element `i` carries
/// `(C.SN, T.ID, T.SN, T.ST, X.SN)` exactly as printed in the paper.
fn figure2_elements() -> Vec<(u32, u32, u32, bool, u32)> {
    vec![
        (35, 0x50, 6, true, 23), // end of TPDU P
        (36, 0x51, 0, false, 24),
        (37, 0x51, 1, false, 25),
        (38, 0x51, 2, false, 26),
        (39, 0x51, 3, false, 27),
        (40, 0x51, 4, false, 28),
        (41, 0x51, 5, false, 29),
        (42, 0x51, 6, true, 30), // end of TPDU Q
        (43, 0x52, 0, false, 31),
    ]
}

/// The chunk Figure 2 forms from the TPDU-Q run: `TYPE=D SIZE=1 LEN=7`,
/// IDs `(A, Q, C)`, SNs `(36, 0, 24)`, STs `(0, 1, 0)`.
pub fn figure2_chunk() -> Chunk {
    byte_chunk(
        FramingTuple::new(0xA, 36, false),
        FramingTuple::new(0x51, 0, true),
        FramingTuple::new(0xC, 24, false),
        b"0123456",
    )
}

/// Figure 2: formation of a TPDU data chunk — a run of contiguous elements
/// with identical `TYPE` and `ID`s shares one header.
pub fn figure2() -> FigureResult {
    let elements = figure2_elements();
    let mut text =
        String::from("element table (C.ID=A, X.ID=C throughout):\n  C.SN  T.ID T.SN T.ST  X.SN\n");
    for (c_sn, t_id, t_sn, t_st, x_sn) in &elements {
        text.push_str(&format!(
            "  {c_sn:>4}  {:>4} {t_sn:>4} {:>4}  {x_sn:>4}\n",
            char::from(*t_id as u8),
            *t_st as u8
        ));
    }
    let chunk = figure2_chunk();
    text.push_str(&format!("formed chunk: {}\n", header_line(&chunk.header)));

    let h = &chunk.header;
    let checks = vec![
        (
            "the 7 TPDU-Q elements share TYPE and IDs".into(),
            elements[1..8].iter().all(|&(_, t_id, ..)| t_id == 0x51),
        ),
        (
            "chunk SNs are the first element's (36, 0, 24)".into(),
            (h.conn.sn, h.tpdu.sn, h.ext.sn) == (36, 0, 24),
        ),
        (
            "chunk STs are the last element's (0, 1, 0)".into(),
            (h.conn.st, h.tpdu.st, h.ext.st) == (false, true, false),
        ),
        ("LEN = 7, SIZE = 1".into(), h.len == 7 && h.size == 1),
        (
            "per-element labels reconstruct the table".into(),
            chunk
                .elements()
                .zip(&elements[1..8])
                .all(|((c_sn, _), &(want, ..))| c_sn == want),
        ),
    ];
    FigureResult {
        figure: "Figure 2 — formation of a TPDU data chunk",
        text,
        checks,
    }
}

/// Figure 3: splitting the Figure 2 chunk into two (LEN 4 + LEN 3) and
/// packing chunks into packets, the ED chunk sharing packet 2.
pub fn figure3() -> FigureResult {
    let chunk = figure2_chunk();
    let (a, b) = split(&chunk, 4).expect("split at 4");
    let mut inv = TpduInvariant::with_default_layout();
    inv.absorb_chunk(&chunk.header, &chunk.payload).unwrap();
    let ed = Chunk::new(
        ChunkHeader::control(
            ChunkType::ErrorDetection,
            8,
            FramingTuple::new(0xA, 36, false),
            FramingTuple::new(0x51, 0, false),
            FramingTuple::new(0, 0, false),
        ),
        Bytes::copy_from_slice(&inv.digest()),
    )
    .unwrap();

    // Figure 3's layout: packet 1 carries the leading data chunk; packet 2
    // carries the trailing data chunk together with the ED chunk.
    let mtu = WIRE_HEADER_LEN * 2 + 11;
    let packets = {
        let mut p1 = chunks_core::packet::PacketBuilder::new(mtu);
        p1.push(a.clone()).unwrap();
        let mut p2 = chunks_core::packet::PacketBuilder::new(mtu);
        p2.push(b.clone()).unwrap();
        p2.push(ed.clone()).unwrap();
        vec![p1.finish(), p2.finish()]
    };
    let mut text = format!(
        "split chunk:\n  a: {}\n  b: {}\n  ED payload (WSC-2): {:02x?}\n",
        header_line(&a.header),
        header_line(&b.header),
        &ed.payload[..]
    );
    text.push_str(&format!(
        "packed into {} packets (MTU {mtu}):\n",
        packets.len()
    ));
    for (i, p) in packets.iter().enumerate() {
        let inside = unpack(p).unwrap();
        text.push_str(&format!(
            "  packet {}: {} bytes, chunks: {}\n",
            i + 1,
            p.len(),
            inside
                .iter()
                .map(|c| format!("{}x{}", c.header.ty, c.header.len))
                .collect::<Vec<_>>()
                .join(" + ")
        ));
    }

    let p2 = unpack(&packets[1]).unwrap();
    let checks = vec![
        (
            "a: SNs (36,0,24), STs cleared".into(),
            (a.header.conn.sn, a.header.tpdu.sn, a.header.ext.sn) == (36, 0, 24)
                && !a.header.tpdu.st,
        ),
        (
            "b: SNs (40,4,28), STs (0,1,0) as in the figure".into(),
            (b.header.conn.sn, b.header.tpdu.sn, b.header.ext.sn) == (40, 4, 28)
                && b.header.tpdu.st
                && !b.header.conn.st
                && !b.header.ext.st,
        ),
        (
            "packet 2 carries the data chunk and the ED chunk together".into(),
            p2.len() == 2 && p2[1].header.ty == ChunkType::ErrorDetection,
        ),
        ("receiver reassembles the original in one step".into(), {
            let mut pool = ReassemblyPool::new();
            for p in &packets {
                for c in unpack(p).unwrap() {
                    if c.header.ty == ChunkType::Data {
                        pool.insert(c);
                    }
                }
            }
            pool.take_complete() == Some(chunk)
        }),
    ];
    FigureResult {
        figure: "Figure 3 — TPDU chunks and their mapping onto packets",
        text,
        checks,
    }
}

/// Figure 4: internetworking — the three ways to move chunks from small
/// packets back into large packets, side by side.
pub fn figure4() -> FigureResult {
    // A 360-element TPDU (SIZE=1), first carried in large packets, squeezed
    // through a small-MTU network, then re-expanded three ways.
    let payload: Vec<u8> = (0..360u32).map(|i| i as u8).collect();
    let whole = byte_chunk(
        FramingTuple::new(1, 0, false),
        FramingTuple::new(2, 0, true),
        FramingTuple::new(3, 0, false),
        &payload,
    );
    let small_mtu = WIRE_HEADER_LEN + 60;
    let big_mtu = 4 * (WIRE_HEADER_LEN + 60);
    // Fragmented: squeeze through the small network.
    let small_frames: Vec<Bytes> = pack(split_to_fit(whole.clone(), small_mtu).unwrap(), small_mtu)
        .unwrap()
        .into_iter()
        .map(|p| p.bytes)
        .collect();

    let mut text = format!(
        "TPDU of 360 elements; small network MTU {small_mtu} -> {} packets\n",
        small_frames.len()
    );
    let mut rows = Vec::new();
    for (name, policy) in [
        (
            "method 1: one chunk per large packet",
            RefragPolicy::OnePerPacket,
        ),
        (
            "method 2: combine chunks into large packets",
            RefragPolicy::Repack,
        ),
        (
            "method 3: chunk reassembly in the network",
            RefragPolicy::Reassemble { window: 16 },
        ),
    ] {
        let mut router = ChunkRouter::new(big_mtu, policy);
        let mut out = Vec::new();
        for f in &small_frames {
            router.ingest(0, f.clone(), &mut out);
        }
        router.flush(0, &mut out);
        let bytes: usize = out.iter().map(Bytes::len).sum();
        let headers = bytes - payload.len();
        // Receiver: always the same single-step reassembly.
        let mut pool = ReassemblyPool::new();
        for f in &out {
            for c in unpack(&chunks_core::packet::Packet { bytes: f.clone() }).unwrap() {
                pool.insert(c);
            }
        }
        let recovered = pool.take_complete() == Some(whole.clone());
        text.push_str(&format!(
            "  {name}: {} packets, {} wire bytes ({} header), merges={}\n",
            out.len(),
            bytes,
            headers,
            router.merges
        ));
        rows.push((out.len(), headers, recovered));
    }

    let checks = vec![
        (
            "all three methods deliver the identical TPDU".into(),
            rows.iter().all(|&(_, _, ok)| ok),
        ),
        (
            "method 2 uses fewer envelopes than method 1".into(),
            rows[1].0 < rows[0].0,
        ),
        (
            "method 3 spends the fewest header bytes".into(),
            rows[2].1 < rows[1].1 && rows[2].1 < rows[0].1,
        ),
        (
            "method 2 is no worse than method 1 on header bytes".into(),
            rows[1].1 <= rows[0].1,
        ),
    ];
    FigureResult {
        figure: "Figure 4 — using chunks for internetworking",
        text,
        checks,
    }
}

/// Figure 5: the TPDU invariant layout, and its invariance under
/// fragmentation.
pub fn figure5() -> FigureResult {
    let layout = InvariantLayout::default();
    let text = format!(
        "error-detection code space (positions in 32-bit symbols):\n\
         \x20 [0 .. {})            TPDU data, element T.SN = e at position e\n\
         \x20 {}                T.ID\n\
         \x20 {}                C.ID\n\
         \x20 {}                C.ST\n\
         \x20 2*T.SN + {}  (X.ID, X.ST) pair for boundary elements\n",
        layout.data_symbols,
        layout.tid_pos(),
        layout.cid_pos(),
        layout.cst_pos(),
        layout.data_symbols + 3,
    );

    // Invariance check over many random fragmentations.
    let payload: Vec<u8> = (0..200u32).map(|i| (i * 13) as u8).collect();
    let whole = byte_chunk(
        FramingTuple::new(0xA, 500, true),
        FramingTuple::new(0x51, 0, true),
        FramingTuple::new(0xC, 90, true),
        &payload,
    );
    let digest_of = |chunks: &[Chunk]| {
        let mut inv = TpduInvariant::with_default_layout();
        for c in chunks {
            inv.absorb_chunk(&c.header, &c.payload).unwrap();
        }
        inv.digest()
    };
    let base = digest_of(std::slice::from_ref(&whole));
    let mut all_equal = true;
    let mut seed = 0x12345u64;
    for _ in 0..50 {
        let mut pieces = vec![whole.clone()];
        for _ in 0..6 {
            seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
            let idx = (seed >> 33) as usize % pieces.len();
            if pieces[idx].header.len < 2 {
                continue;
            }
            let at = 1 + ((seed >> 13) as u32 % (pieces[idx].header.len - 1));
            let target = pieces.remove(idx);
            let (a, b) = split(&target, at).unwrap();
            pieces.push(a);
            pieces.push(b);
        }
        pieces.reverse();
        if digest_of(&pieces) != base {
            all_equal = false;
        }
    }

    let checks = vec![
        (
            "positions stay inside the WSC-2 code space (2^29 - 2)".into(),
            layout.max_pos() < chunks_wsc::MAX_SYMBOLS,
        ),
        (
            "digest identical across 50 random fragmentations".into(),
            all_equal,
        ),
    ];
    FigureResult {
        figure: "Figure 5 — the TPDU invariant",
        text,
        checks,
    }
}

/// Figure 6: encoding of the X.ID and X.ST fields — each external PDU's
/// X.ID enters the code space exactly once, triggered by the boundary that
/// ends it (X.ST) or by the TPDU end (T.ST).
pub fn figure6() -> FigureResult {
    // A TPDU containing pieces of three external PDUs A, B, C.
    let layout = InvariantLayout::default();
    let a = byte_chunk(
        FramingTuple::new(1, 0, false),
        FramingTuple::new(9, 0, false),
        FramingTuple::new(0xAA, 5, true), // A ends inside the TPDU
        b"aa",
    );
    let b = byte_chunk(
        FramingTuple::new(1, 2, false),
        FramingTuple::new(9, 2, false),
        FramingTuple::new(0xBB, 0, true), // B ends inside the TPDU
        b"bbb",
    );
    let c = byte_chunk(
        FramingTuple::new(1, 5, false),
        FramingTuple::new(9, 5, true), // TPDU ends inside C
        FramingTuple::new(0xCC, 0, false),
        b"cc",
    );
    let triggers = [
        ("A", 0xAAu32, 1u32, true),
        ("B", 0xBB, 4, true),
        ("C", 0xCC, 6, false),
    ];
    let mut text = String::from("boundary-triggered X encodings:\n");
    for (name, x_id, t_sn, x_st) in &triggers {
        text.push_str(&format!(
            "  external PDU {name}: (X.ID={x_id:#x}, X.ST={}) at positions {} and {}\n",
            *x_st as u8,
            layout.x_pair_pos(*t_sn),
            layout.x_pair_pos(*t_sn) + 1
        ));
    }

    let mut inv = TpduInvariant::new(layout).unwrap();
    for chunk in [&a, &b, &c] {
        inv.absorb_chunk(&chunk.header, &chunk.payload).unwrap();
    }
    // Manual encoding of exactly the expectation above.
    let mut manual = chunks_wsc::Wsc2::new();
    manual.add_symbol(layout.tid_pos(), 9);
    manual.add_symbol(layout.cid_pos(), 1);
    for (e, byte) in [
        (0u64, b'a'),
        (1, b'a'),
        (2, b'b'),
        (3, b'b'),
        (4, b'b'),
        (5, b'c'),
        (6, b'c'),
    ] {
        manual.add_symbol(e, (byte as u32) << 24);
    }
    for (_, x_id, t_sn, x_st) in &triggers {
        manual.add_symbol(layout.x_pair_pos(*t_sn), *x_id);
        manual.add_symbol(layout.x_pair_pos(*t_sn) + 1, *x_st as u32);
    }

    // Pair positions never collide: strides of 2 starting at distinct T.SNs.
    let mut positions: Vec<u64> = triggers.iter().map(|t| layout.x_pair_pos(t.2)).collect();
    positions.sort_unstable();
    let disjoint = positions.windows(2).all(|w| w[1] - w[0] >= 2);

    let checks = vec![
        (
            "incremental invariant equals the manual Figure 6 encoding".into(),
            inv.digest() == manual.digest(),
        ),
        ("X pairs occupy disjoint positions".into(), disjoint),
        (
            "exactly one encoding per external PDU".into(),
            triggers.len() == 3,
        ),
    ];
    FigureResult {
        figure: "Figure 6 — encoding of the X.ID and X.ST fields",
        text,
        checks,
    }
}

/// Figure 7: deriving an implicit T.ID from `C.SN − T.SN`.
pub fn figure7() -> FigureResult {
    let c_sn = [35u32, 36, 37, 38, 39, 40, 41, 42];
    let t_sn = [5u32, 0, 1, 2, 3, 4, 5, 0];
    let expect = [30u32, 36, 36, 36, 36, 36, 36, 42];
    let derived: Vec<u32> = c_sn
        .iter()
        .zip(&t_sn)
        .map(|(&c, &t)| implicit_tid(c, t))
        .collect();
    let mut text = String::from("  C.SN  T.SN  T.ID = C.SN - T.SN\n");
    for i in 0..8 {
        text.push_str(&format!(
            "  {:>4}  {:>4}  {:>4}\n",
            c_sn[i], t_sn[i], derived[i]
        ));
    }
    let checks = vec![(
        "derived T.IDs are 30, 36 x6, 42 as printed in the paper".into(),
        derived == expect,
    )];
    FigureResult {
        figure: "Figure 7 — how an implicit T.ID is derived (Appendix A)",
        text,
        checks,
    }
}

/// Runs all seven figure reproductions.
pub fn all_figures() -> Vec<FigureResult> {
    vec![
        figure1(),
        figure2(),
        figure3(),
        figure4(),
        figure5(),
        figure6(),
        figure7(),
    ]
}
