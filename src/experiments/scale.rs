//! Million-connection scale soak: the open-addressed connection table
//! (`ConnTable`) under heavy traffic, churn, and adversarial faults — the
//! numbers behind `BENCH_scale.json` and the quantitative half of
//! `docs/SCALE.md`.
//!
//! Six cells, each run once on the virtual clock and deterministic under
//! its seed: `bench-check` regenerates the whole file and diffs it byte for
//! byte, so a replay that drifts fails there.
//!
//! * **capacity-lru** — 4× more admissions than `max_live`: the sampled-LRU
//!   clock hand must keep occupancy exactly at the bound, refuse nothing,
//!   and every eviction must surface as a `ConnEvicted` event and a
//!   `transport.table.evictions` count.
//! * **churn-equiv** — one explicit admit/send/retire schedule replayed on
//!   the serial demux and the 8-worker parallel pipeline; surviving
//!   connections must agree byte for byte (delivered digests compared).
//! * **budget-bound** — data-only traffic (EDs withheld) into `Reassemble`
//!   receivers sharing one [`GlobalBudget`]: held bytes may never pass the
//!   cap, overflow must shed as typed `ChunkShed` events, and retiring
//!   every connection must return the global ledger to zero.
//! * **zipf-faults** — 64 Ki connections under a Zipf(1) traffic mix with
//!   the Byzantine fault matrix (label flips, shifted duplicates,
//!   overlapping rewrites, tiny-fragment floods) spliced into the stream;
//!   the table must stay consistent and p99 verify delay is read off the
//!   `span.delay.verify_ns` histogram.
//! * **million-serial** — 2^20 concurrent connections admitted and fed
//!   through the serial demux, then a 64 Ki-connection churn phase that
//!   must run allocation-free (pooled shells only) under the counting
//!   allocator. Memory per connection is the counting allocator's
//!   live-byte delta across the ramp. Both figures are reported once, on
//!   [`ScaleResult`], as is zipf-faults' p99 verify delay.
//! * **million-parallel** — the same 2^20-connection soak through the
//!   8-worker virtual-engine pipeline with a churn tail, merged and
//!   byte-verified at `finish`.
//!
//! Traffic is generated from *template packets*: one tiny message is packed
//! once per template slot, and each per-connection packet is the template
//! with the `C.ID` field patched at its fixed wire offsets. The WSC-2
//! invariant deliberately *binds* the connection label (a symbol at
//! `cid_pos` — that is how misdelivered chunks are caught end-to-end), so
//! the patch must also retarget the ED code: the code is GF(2)-linear in
//! every absorbed symbol, so flipping `C.ID` from `a` to `c` shifts the
//! digest by the contribution of `a ⊕ c` at `cid_pos`. A 32-entry basis
//! (one digest delta per `C.ID` bit) turns that into a few XORs per
//! packet; a unit test pins patched packets bit-identical to packets a
//! real per-connection sender would emit.

use std::fmt;

use chunks_core::packet::{pack, spans, unpack, validate, Packet};
use chunks_core::{ChunkHeader, ChunkType, FramingTuple, WIRE_HEADER_LEN};
use chunks_netsim::{ByzantineConfig, ByzantineRouter, PacketTransform};
use chunks_obs::Recorder;
use chunks_transport::{
    ConnSpec, ConnectionDemux, ConnectionParams, DeliveryMode, DemuxEvent, Engine, GlobalBudget,
    ParallelReceiver, Receiver, ResourceBudget, RxEvent, Schedule, Sender, SenderConfig,
    TableConfig,
};
use chunks_wsc::{InvariantLayout, TpduInvariant};

use super::alloc_count;

/// Elements (= bytes) per tiny-message TPDU.
pub const TPDU_ELEMENTS: u32 = 32;
/// Application bytes per message (one TPDU).
pub const MSG_BYTES: usize = TPDU_ELEMENTS as usize;
/// Path MTU for the tiny-message streams.
pub const MTU: usize = 512;
/// Receiver connection-space capacity, in elements.
pub const CAPACITY_ELEMENTS: u64 = 160;
/// Concurrent connections in the million-connection cells.
pub const MILLION_CONNS: u32 = 1 << 20;
/// Connections retired-and-replaced in the steady churn phases.
pub const CHURN_CONNS: u32 = 1 << 16;
/// Connections in the Zipf/fault cell.
pub const ZIPF_CONNS: u32 = 1 << 16;
/// Traffic events in the Zipf/fault cell.
pub const ZIPF_EVENTS: usize = 1 << 18;
/// Workers on the parallel cells.
pub const WORKERS: usize = 8;
/// Template messages (sequential TPDUs) per connection in the Zipf cell.
const MSGS_PER_CONN: usize = 4;
/// Virtual nanoseconds between traffic events.
const TICK_NS: u64 = 1_000;
/// C.ID byte offset inside a chunk header (see `chunks_core::wire`).
const CID_WIRE_OFFSET: usize = 8;

/// The C.ID the templates are packed under (patched per connection).
const TEMPLATE_CONN: u32 = 1;

fn params_for(conn_id: u32, initial_csn: u32) -> ConnectionParams {
    ConnectionParams {
        conn_id,
        elem_size: 1,
        initial_csn,
        tpdu_elements: TPDU_ELEMENTS,
    }
}

fn layout() -> InvariantLayout {
    InvariantLayout::with_data_symbols(256)
}

/// The one description every cell's receivers are built from, serial and
/// parallel alike.
fn spec_for(conn_id: u32, mode: DeliveryMode) -> ConnSpec {
    ConnSpec::new(params_for(conn_id, 0), layout(), mode, CAPACITY_ELEMENTS)
}

/// A serial cell's receiver: exactly what a parallel worker builds from the
/// same [`spec_for`] — in particular with no `Receiver::reserve`, whose
/// first-touch page faults across 2^20 receivers used to make the serial
/// million cell look 10–20× slower than the parallel one (docs/SCALE.md).
fn fresh_rx(conn_id: u32, mode: DeliveryMode) -> Receiver {
    let spec = spec_for(conn_id, mode);
    Receiver::new(spec.mode, spec.params, spec.layout, spec.capacity_elements)
}

fn msg_bytes(seed: u64, m: usize) -> Vec<u8> {
    let mut state = seed ^ ((m as u64 + 1) << 17);
    (0..MSG_BYTES)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// The WSC-2 digest delta caused by flipping one `C.ID` bit.
///
/// The invariant binds the connection label by absorbing `C.ID` as a
/// symbol at `cid_pos` exactly once per TPDU, and the accumulator is a
/// pair of GF(2^32) sums — linear in every absorbed symbol. So the digest
/// of an invariant holding *only* the `C.ID = 1 << b` contribution (a
/// one-element data chunk with zero payload, zero T.ID, no `st` flags —
/// every other symbol is zero and contributes nothing) is precisely the
/// delta a real sender's digest moves by when that `C.ID` bit flips.
fn cid_basis() -> [[u8; 8]; 32] {
    std::array::from_fn(|b| {
        let mut inv = TpduInvariant::new(layout()).expect("layout fits the code space");
        let header = ChunkHeader::data(
            1,
            1,
            FramingTuple::new(1u32 << b, 0, false),
            FramingTuple::new(0, 0, false),
            FramingTuple::new(0, 0, false),
        );
        inv.absorb_chunk(&header, &[0u8]).expect("basis chunk fits");
        inv.digest()
    })
}

/// One packed tiny-message packet plus the wire offsets of every chunk's
/// `C.ID` field and every ED chunk's digest payload, so per-connection
/// packets are a memcpy, four patched bytes per chunk, and one XORed
/// digest delta per ED chunk — no sender in the hot loop.
struct Template {
    bytes: Vec<u8>,
    cid_at: Vec<usize>,
    ed_at: Vec<usize>,
    cid_basis: [[u8; 8]; 32],
    chunks: u64,
}

impl Template {
    fn from_packet(p: &Packet) -> Template {
        assert!(validate(p).is_ok(), "template packet must be well-formed");
        let bytes = p.bytes.to_vec();
        let ed_ty = ChunkType::ErrorDetection.to_u8();
        Template {
            cid_at: spans(p).map(|(at, _)| at + CID_WIRE_OFFSET).collect(),
            ed_at: spans(p)
                .filter(|&(at, _)| bytes[at] == ed_ty)
                .map(|(at, _)| at + WIRE_HEADER_LEN)
                .collect(),
            cid_basis: cid_basis(),
            chunks: spans(p).count() as u64,
            bytes,
        }
    }

    fn packet_for(&self, conn_id: u32) -> Packet {
        let mut b = self.bytes.clone();
        for &at in &self.cid_at {
            b[at..at + 4].copy_from_slice(&conn_id.to_be_bytes());
        }
        // Retarget the ED digests through the code's GF(2)-linearity: the
        // label flip shifts each digest by the XOR of the per-bit deltas.
        let flip = TEMPLATE_CONN ^ conn_id;
        if flip != 0 && !self.ed_at.is_empty() {
            let mut delta = [0u8; 8];
            for (bit, d) in self.cid_basis.iter().enumerate() {
                if flip & (1u32 << bit) != 0 {
                    for (acc, x) in delta.iter_mut().zip(d) {
                        *acc ^= x;
                    }
                }
            }
            for &at in &self.ed_at {
                for (i, x) in delta.iter().enumerate() {
                    b[at + i] ^= x;
                }
            }
        }
        Packet { bytes: b.into() }
    }

    fn wire(&self) -> u64 {
        self.bytes.len() as u64
    }
}

/// Template for message slot `m`: one TPDU starting at `C.SN = m * 32`.
fn template(m: usize, seed: u64) -> Template {
    let mut tx = Sender::new(SenderConfig {
        params: params_for(TEMPLATE_CONN, m as u32 * TPDU_ELEMENTS),
        layout: layout(),
        mtu: MTU,
        min_tpdu_elements: 8,
        max_tpdu_elements: TPDU_ELEMENTS,
    });
    tx.submit_simple(&msg_bytes(seed, m), 0x10 + m as u32, false);
    let pkts = tx.packets_for_pending().expect("tiny message packs");
    assert_eq!(pkts.len(), 1, "one tiny message must pack into one packet");
    Template::from_packet(&pkts[0])
}

/// Message-0 template with the ED chunk stripped: traffic that stages bytes
/// forever (nothing can verify), for the budget cell.
fn data_only_template(seed: u64) -> Template {
    let full = template(0, seed);
    let packet = Packet {
        bytes: full.bytes.clone().into(),
    };
    let data: Vec<_> = unpack(&packet)
        .expect("template unpacks")
        .into_iter()
        .filter(|c| c.header.ty == ChunkType::Data)
        .collect();
    let pkts = pack(data, MTU).expect("data-only packet packs");
    Template::from_packet(&pkts[0])
}

/// Demux-event tallies a cell accumulates while draining its event buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
struct Tally {
    delivered_elements: u64,
    failed: u64,
    shed: u64,
    unknown: u64,
}

impl Tally {
    fn absorb(&mut self, events: &mut Vec<DemuxEvent>) {
        for e in events.drain(..) {
            match e {
                DemuxEvent::Connection { event, .. } => match event {
                    RxEvent::TpduDelivered { elements, .. } => self.delivered_elements += elements,
                    RxEvent::TpduFailed { .. } => self.failed += 1,
                    RxEvent::ChunkShed { .. } => self.shed += 1,
                    _ => {}
                },
                DemuxEvent::UnknownConnection { .. } => self.unknown += 1,
                _ => {}
            }
        }
    }
}

/// One cell's measurements, every column deterministic under the seed.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Row {
    /// Cell name.
    pub cell: &'static str,
    /// Peak concurrent connections the cell held.
    pub conns: u64,
    /// Packets ingested.
    pub packets: u64,
    /// Chunks ingested.
    pub chunks: u64,
    /// Wire bytes ingested.
    pub wire_bytes: u64,
    /// Application bytes delivered and WSC-2-verified.
    pub delivered_bytes: u64,
    /// TPDUs that failed verification (fault cells).
    pub failed_tpdus: u64,
    /// Chunks shed under budget pressure.
    pub shed_chunks: u64,
    /// Chunks dropped for an unknown `C.ID` (label-flip faults).
    pub unknown_conns: u64,
    /// Table admissions.
    pub admissions: u64,
    /// Admissions served by re-arming a pooled shell (no allocation).
    pub pooled: u64,
    /// Table evictions (capacity LRU + explicit retires).
    pub evictions: u64,
    /// Admissions refused.
    pub refusals: u64,
    /// High-water mark of live connections.
    pub peak_live: u64,
    /// Longest robin-hood probe sequence any insert walked.
    pub max_probe: u64,
    /// Serial and parallel replays of the same schedule delivered identical
    /// digests (true for cells with nothing to compare).
    pub digests_match: bool,
    /// The cell's own acceptance gate.
    pub ok: bool,
}

impl Row {
    fn base(cell: &'static str) -> Row {
        Row {
            cell,
            digests_match: true,
            ..Row::default()
        }
    }

    fn take_table_stats(&mut self, stats: &chunks_transport::TableStats) {
        self.admissions = stats.admissions;
        self.pooled = stats.pooled_admissions;
        self.evictions = stats.evictions;
        self.refusals = stats.refusals;
        self.peak_live = stats.peak_live as u64;
        self.max_probe = stats.max_probe;
    }
}

/// The whole sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct ScaleResult {
    /// Seed the traffic was drawn from.
    pub seed: u64,
    /// Concurrent connections the big cells were asked to hold
    /// ([`MILLION_CONNS`] on the full run, smaller under [`run_quick`]).
    pub target_conns: u64,
    /// million-serial's heap bytes per connection across the ramp; `None`
    /// when the counting allocator is not installed.
    pub mem_per_conn: Option<u64>,
    /// million-serial's heap allocations across its steady churn phase;
    /// `None` when the counting allocator is not installed.
    pub steady_allocs: Option<u64>,
    /// zipf-faults' p99 of `span.delay.verify_ns` (virtual ns); `None` when
    /// nothing verified.
    pub p99_verify_ns: Option<u64>,
    /// One row per cell.
    pub rows: Vec<Row>,
}

impl ScaleResult {
    /// Acceptance: every cell's own gate holds, both big cells actually held
    /// the targeted concurrent connections (2^20 on the full run), and —
    /// when the counting allocator is installed — the serial churn phase
    /// ran allocation-free.
    pub fn passes(&self) -> bool {
        let cells_ok = self.rows.iter().all(|r| r.ok);
        let million = ["million-serial", "million-parallel"].iter().all(|name| {
            self.rows
                .iter()
                .any(|r| r.cell == *name && r.conns >= self.target_conns)
        });
        cells_ok && million && self.steady_allocs.is_none_or(|a| a == 0)
    }
}

/// capacity-lru: 4 Ki admissions through a 1 Ki-live table.
fn cell_capacity_lru(seed: u64) -> Row {
    const MAX_LIVE: usize = 1024;
    const TOTAL: u32 = 4096;
    let mut row = Row::base("capacity-lru");
    let tpl = template(0, seed);
    let sink = Recorder::verbose_tier(1 << 15);
    let mut demux =
        ConnectionDemux::with_table(TableConfig::for_capacity(MAX_LIVE).with_max_live(MAX_LIVE));
    demux.table_mut().set_obs(sink.clone());
    let mut tally = Tally::default();
    let mut events = Vec::with_capacity(8);
    let mut now = 0u64;
    for id in 0..TOTAL {
        now += TICK_NS;
        demux.table_mut().admit(
            params_for(id, 0),
            now,
            || fresh_rx(id, DeliveryMode::Immediate),
            |_| {},
        );
        demux.ingest(&tpl.packet_for(id), now, &mut events);
        tally.absorb(&mut events);
    }
    row.conns = MAX_LIVE as u64;
    row.packets = TOTAL as u64;
    row.chunks = TOTAL as u64 * tpl.chunks;
    row.wire_bytes = TOTAL as u64 * tpl.wire();
    row.delivered_bytes = tally.delivered_elements;
    row.failed_tpdus = tally.failed;
    row.take_table_stats(&demux.table().stats);
    let snap = sink.snapshot();
    row.ok = row.evictions == TOTAL as u64 - MAX_LIVE as u64
        && row.refusals == 0
        && row.peak_live == MAX_LIVE as u64
        && demux.table().len() == MAX_LIVE
        && demux.table().under_pressure()
        && row.delivered_bytes == TOTAL as u64 * MSG_BYTES as u64
        && snap.counter("transport.table.evictions") == row.evictions
        && snap.counter("transport.table.admissions") == row.admissions;
    row
}

/// Per-connection outcome fingerprint compared across the two demux paths:
/// `(C.ID, verified prefix, delivered (offset, digest) records)`.
type ConnFingerprint = (u32, u64, Vec<(u64, [u8; 8])>);

/// The explicit churn schedule both demux paths replay in churn-equiv.
enum Op {
    Admit(u32),
    Send(u32),
    Retire(u32),
}

fn churn_schedule() -> Vec<Op> {
    const WINDOW: u32 = 2048;
    const WAVE: u32 = 256;
    const WAVES: u32 = 24;
    let mut ops = Vec::new();
    for id in 0..WINDOW {
        ops.push(Op::Admit(id));
        ops.push(Op::Send(id));
    }
    for w in 0..WAVES {
        for i in 0..WAVE {
            ops.push(Op::Retire(w * WAVE + i));
        }
        for i in 0..WAVE {
            let id = WINDOW + w * WAVE + i;
            ops.push(Op::Admit(id));
            ops.push(Op::Send(id));
        }
    }
    ops
}

/// churn-equiv: the same admit/send/retire schedule on the serial table and
/// the parallel pipeline; survivors must agree byte for byte.
fn cell_churn_equiv(seed: u64) -> Row {
    let mut row = Row::base("churn-equiv");
    let tpl = template(0, seed);
    let ops = churn_schedule();
    let total_msgs = ops.iter().filter(|o| matches!(o, Op::Send(_))).count() as u64;

    // Serial replay.
    let mut demux = ConnectionDemux::with_table(TableConfig::for_capacity(2048));
    let mut tally = Tally::default();
    let mut events = Vec::with_capacity(8);
    let mut now = 0u64;
    for op in &ops {
        now += TICK_NS;
        match *op {
            Op::Admit(id) => {
                demux.table_mut().admit(
                    params_for(id, 0),
                    now,
                    || fresh_rx(id, DeliveryMode::Immediate),
                    |_| {},
                );
            }
            Op::Send(id) => {
                demux.ingest(&tpl.packet_for(id), now, &mut events);
                tally.absorb(&mut events);
            }
            Op::Retire(id) => {
                demux.table_mut().retire(id, now);
            }
        }
    }
    let mut serial: Vec<ConnFingerprint> = demux
        .table()
        .iter()
        .map(|(id, rx)| (id, rx.verified_prefix(), rx.delivered_digests()))
        .collect();
    serial.sort_unstable_by_key(|&(id, _, _)| id);
    row.take_table_stats(&demux.table().stats);

    // Parallel replay of the identical schedule.
    let mut pr = ParallelReceiver::new(WORKERS, Engine::Virtual(Schedule::Fair), Vec::new());
    let mut now = 0u64;
    for op in &ops {
        now += TICK_NS;
        match *op {
            Op::Admit(id) => pr.admit(spec_for(id, DeliveryMode::Immediate), now),
            Op::Send(id) => pr.ingest(&tpl.packet_for(id), now),
            Op::Retire(id) => pr.retire(id, now),
        }
    }
    pr.drain();
    let outcome = pr.finish();
    let parallel: Vec<ConnFingerprint> = outcome
        .conns
        .iter()
        .map(|(&id, report)| {
            (
                id,
                report.receiver.verified_prefix(),
                report.receiver.delivered_digests(),
            )
        })
        .collect();

    row.digests_match = serial == parallel;
    row.conns = 2048;
    row.packets = total_msgs;
    row.chunks = total_msgs * tpl.chunks;
    row.wire_bytes = total_msgs * tpl.wire();
    row.delivered_bytes = tally.delivered_elements;
    let survivor_bytes: u64 = serial.iter().map(|&(_, v, _)| v).sum();
    row.ok = row.digests_match
        && row.delivered_bytes == total_msgs * MSG_BYTES as u64
        && serial.len() == 2048
        && parallel.len() == 2048
        && survivor_bytes == 2048 * MSG_BYTES as u64
        && row.pooled == row.admissions - 2048
        && row.refusals == 0;
    row
}

/// budget-bound: ED-less traffic against one shared global budget.
fn cell_budget_bound(seed: u64) -> Row {
    const CONNS: u32 = 1024;
    const GLOBAL_CAP: u64 = 8 * 1024;
    let mut row = Row::base("budget-bound");
    let tpl = data_only_template(seed);
    let global = GlobalBudget::new(GLOBAL_CAP);
    let mut demux = ConnectionDemux::with_table(TableConfig::for_capacity(CONNS as usize));
    let mut tally = Tally::default();
    let mut events = Vec::with_capacity(8);
    let mut now = 0u64;
    let mut max_held = 0u64;
    for id in 0..CONNS {
        now += TICK_NS;
        let budget = ResourceBudget::with_caps(4096, 8, 32).with_global(global.clone());
        demux.table_mut().admit(
            params_for(id, 0),
            now,
            || {
                let mut rx = fresh_rx(id, DeliveryMode::Reassemble);
                rx.set_budget(budget.clone());
                rx
            },
            |rx| rx.set_budget(budget.clone()),
        );
        demux.ingest(&tpl.packet_for(id), now, &mut events);
        tally.absorb(&mut events);
        max_held = max_held.max(global.held_bytes());
    }
    let bounded = max_held <= GLOBAL_CAP;
    for id in 0..CONNS {
        now += TICK_NS;
        demux.table_mut().retire(id, now);
    }
    row.conns = CONNS as u64;
    row.packets = CONNS as u64;
    row.chunks = CONNS as u64 * tpl.chunks;
    row.wire_bytes = CONNS as u64 * tpl.wire();
    row.delivered_bytes = tally.delivered_elements;
    row.shed_chunks = tally.shed;
    row.take_table_stats(&demux.table().stats);
    row.ok = bounded
        && tally.shed > 0
        && global.held_bytes() == 0
        && row.delivered_bytes == 0
        && row.evictions == CONNS as u64;
    row
}

/// zipf-faults: a Zipf(1) traffic mix over `conns` connections with the
/// Byzantine fault matrix spliced into every eighth event. Also returns the
/// p99 of `span.delay.verify_ns`.
fn cell_zipf_faults(seed: u64, conns: u32, events_n: usize) -> (Row, Option<u64>) {
    let mut row = Row::base("zipf-faults");
    let tpls: Vec<Template> = (0..MSGS_PER_CONN).map(|m| template(m, seed)).collect();
    let sink = Recorder::verbose_tier(1 << 15);
    let mut demux = ConnectionDemux::with_table(TableConfig::for_capacity(conns as usize));
    for id in 0..conns {
        demux.table_mut().admit(
            params_for(id, 0),
            0,
            || {
                let mut rx = fresh_rx(id, DeliveryMode::Immediate);
                rx.set_obs(sink.clone());
                rx
            },
            |_| {},
        );
    }
    // The full fault matrix, one adversary per attack family.
    let mut routers = [
        ByzantineRouter::new(
            ByzantineConfig {
                flip_cid: 0.2,
                flip_tsn: 0.1,
                flip_len: 0.05,
                ..Default::default()
            },
            seed ^ 0xB1,
        ),
        ByzantineRouter::new(ByzantineConfig::shifted_duplicator(0.3), seed ^ 0xB2),
        ByzantineRouter::new(ByzantineConfig::rewriter(0.3), seed ^ 0xB3),
        ByzantineRouter::new(ByzantineConfig::tiny_flooder(0.2, 3, 64), seed ^ 0xB4),
    ];
    let mut cursors = vec![0u8; conns as usize];
    let mut tally = Tally::default();
    let mut events = Vec::with_capacity(8);
    let mut frames = Vec::new();
    let mut rng = seed | 1;
    let mut now = 0u64;
    for ev in 0..events_n {
        now += TICK_NS;
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        // Zipf(1) by inverse CDF: n^u is log-uniform on [1, n), so the rank
        // r is drawn with probability ∝ 1/r.
        let u = (rng >> 11) as f64 / (1u64 << 53) as f64;
        let id = ((conns as f64).powf(u) as u32).min(conns - 1) - 1;
        let cur = cursors[id as usize] as usize;
        let m = cur.min(MSGS_PER_CONN - 1);
        if cur < MSGS_PER_CONN {
            cursors[id as usize] += 1;
        }
        let pkt = tpls[m].packet_for(id);
        row.packets += 1;
        row.chunks += tpls[m].chunks;
        row.wire_bytes += tpls[m].wire();
        if ev % 8 == 7 {
            let router = &mut routers[(ev / 8) % 4];
            router.ingest(now, pkt.bytes, &mut frames);
            for bytes in frames.drain(..) {
                demux.ingest(&Packet { bytes }, now, &mut events);
                tally.absorb(&mut events);
            }
        } else {
            demux.ingest(&pkt, now, &mut events);
            tally.absorb(&mut events);
        }
    }
    row.conns = conns as u64;
    row.delivered_bytes = tally.delivered_elements;
    row.failed_tpdus = tally.failed;
    row.unknown_conns = tally.unknown;
    row.take_table_stats(&demux.table().stats);
    let p99_verify_ns = sink
        .snapshot()
        .histogram("span.delay.verify_ns")
        .map(|h| h.p99());
    row.ok = row.delivered_bytes > 0
        && row.unknown_conns > 0
        && row.refusals == 0
        && demux.table().len() == conns as usize
        && p99_verify_ns.is_some();
    (row, p99_verify_ns)
}

/// million-serial: ramp to `conns` live connections, then an
/// allocation-free churn phase over pooled shells. When the counting
/// allocator is installed, also returns the ramp's heap bytes per
/// connection and the churn phase's allocation count.
fn cell_million_serial(seed: u64, conns: u32, churn: u32) -> (Row, Option<(u64, u64)>) {
    const WARMUP: u32 = 64;
    let counting = alloc_count::active();
    let mut row = Row::base("million-serial");
    let tpl = template(0, seed);
    let mut demux = ConnectionDemux::with_table(TableConfig::for_capacity(conns as usize));
    let mut tally = Tally::default();
    let mut events = Vec::with_capacity(8);
    let mut now = 0u64;
    let mut admit_and_send = |demux: &mut ConnectionDemux, id: u32, pkt: &Packet, now: u64| {
        demux.table_mut().admit(
            params_for(id, 0),
            now,
            || fresh_rx(id, DeliveryMode::Immediate),
            |_| {},
        );
        demux.ingest(pkt, now, &mut events);
        tally.absorb(&mut events);
    };

    let mem_before = alloc_count::live_bytes();
    for id in 0..conns {
        now += TICK_NS;
        admit_and_send(&mut demux, id, &tpl.packet_for(id), now);
    }
    let mem_after = alloc_count::live_bytes();

    // Warm the shell pool and the free-list capacity outside the window.
    for w in 0..WARMUP {
        now += TICK_NS;
        demux.table_mut().retire(conns - WARMUP + w, now);
        let id = conns + churn + w;
        admit_and_send(&mut demux, id, &tpl.packet_for(id), now);
    }

    // Steady churn: retire + pooled re-admission + delivery, zero
    // allocations expected. The packets are built before the window.
    let churn_pkts: Vec<Packet> = (0..churn).map(|i| tpl.packet_for(conns + i)).collect();
    let allocs_before = alloc_count::allocs();
    for (i, pkt) in (0..churn).zip(&churn_pkts) {
        now += TICK_NS;
        demux.table_mut().retire(i, now);
        admit_and_send(&mut demux, conns + i, pkt, now);
    }
    let churn_allocs = alloc_count::allocs() - allocs_before;

    let total_msgs = conns as u64 + WARMUP as u64 + churn as u64;
    row.conns = conns as u64;
    row.packets = total_msgs;
    row.chunks = total_msgs * tpl.chunks;
    row.wire_bytes = total_msgs * tpl.wire();
    row.delivered_bytes = tally.delivered_elements;
    row.take_table_stats(&demux.table().stats);
    row.ok = row.delivered_bytes == total_msgs * MSG_BYTES as u64
        && row.peak_live == conns as u64
        && demux.table().len() == conns as usize
        && row.pooled == WARMUP as u64 + churn as u64
        && row.evictions == WARMUP as u64 + churn as u64
        && row.refusals == 0
        && (!counting || churn_allocs == 0);
    let heap = counting.then(|| {
        (
            mem_after.saturating_sub(mem_before) / conns as u64,
            churn_allocs,
        )
    });
    (row, heap)
}

/// million-parallel: the same soak through the 8-worker virtual-engine
/// pipeline, with a churn tail, merged and verified at `finish`.
fn cell_million_parallel(seed: u64, conns: u32, churn: u32) -> Row {
    const WAVE: u32 = 1 << 14;
    let mut row = Row::base("million-parallel");
    let tpl = template(0, seed);
    let mut pr = ParallelReceiver::new(WORKERS, Engine::Virtual(Schedule::Fair), Vec::new());
    let mut now = 0u64;

    for id in 0..conns {
        now += TICK_NS;
        pr.admit(spec_for(id, DeliveryMode::Immediate), now);
        pr.ingest(&tpl.packet_for(id), now);
        if (id + 1) % WAVE == 0 || id + 1 == conns {
            pr.drain();
        }
    }

    // Churn tail: retire the first `churn` connections, admit replacements
    // through the same per-worker FIFOs, and deliver to them.
    for i in 0..churn {
        now += TICK_NS;
        pr.retire(i, now);
        pr.admit(spec_for(conns + i, DeliveryMode::Immediate), now);
        pr.ingest(&tpl.packet_for(conns + i), now);
    }
    pr.drain();

    let outcome = pr.finish();
    let live = outcome.conns.len() as u64;
    let delivered: u64 = outcome
        .conns
        .values()
        .map(|r| r.receiver.verified_prefix())
        .sum();
    let total_msgs = conns as u64 + churn as u64;
    row.conns = conns as u64;
    row.packets = total_msgs;
    row.chunks = total_msgs * tpl.chunks;
    row.wire_bytes = total_msgs * tpl.wire();
    row.delivered_bytes = delivered;
    row.admissions = total_msgs;
    row.evictions = churn as u64;
    row.peak_live = conns as u64;
    // Retired connections take their verified bytes with them; the
    // replacements contribute the same amount back, so the survivors'
    // total equals one message per concurrent connection.
    row.ok = live == conns as u64
        && delivered == conns as u64 * MSG_BYTES as u64
        && outcome.dispatch.bad_packets == 0
        && outcome.dispatch.decode_errors == 0;
    row
}

fn run_sized(
    seed: u64,
    conns: u32,
    churn: u32,
    zipf_conns: u32,
    zipf_events: usize,
) -> ScaleResult {
    let capacity = cell_capacity_lru(seed);
    let churn_equiv = cell_churn_equiv(seed);
    let budget = cell_budget_bound(seed);
    let (zipf, p99_verify_ns) = cell_zipf_faults(seed, zipf_conns, zipf_events);
    let (serial, heap) = cell_million_serial(seed, conns, churn);
    let parallel = cell_million_parallel(seed, conns, churn);
    ScaleResult {
        seed,
        target_conns: conns as u64,
        mem_per_conn: heap.map(|(mem, _)| mem),
        steady_allocs: heap.map(|(_, allocs)| allocs),
        p99_verify_ns,
        rows: vec![capacity, churn_equiv, budget, zipf, serial, parallel],
    }
}

/// Runs the full sweep, million cells at 2^20 concurrent connections.
pub fn run(seed: u64) -> ScaleResult {
    run_sized(seed, MILLION_CONNS, CHURN_CONNS, ZIPF_CONNS, ZIPF_EVENTS)
}

/// The same sweep shrunk for test suites: identical cells and gates, with
/// the big cells at 2^14 connections. `tests/scale_determinism.rs` runs
/// this twice in tier-1 time; `bench-check` runs [`run`].
pub fn run_quick(seed: u64) -> ScaleResult {
    run_sized(seed, 1 << 14, 1 << 10, 1 << 10, 1 << 12)
}

/// An optional figure as JSON: the number, or `null`.
fn json_opt(v: Option<u64>) -> String {
    v.map_or_else(|| "null".into(), |v| v.to_string())
}

impl fmt::Display for ScaleResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== scale — million-connection demux soak (seed {:#x}) ===",
            self.seed
        )?;
        let heap = match (self.mem_per_conn, self.steady_allocs) {
            (Some(mem), Some(allocs)) => {
                format!("million-serial {mem} B/conn, {allocs} churn allocations")
            }
            _ => "alloc counting off".into(),
        };
        writeln!(
            f,
            "  {} B messages, {} B MTU; {heap}; zipf-faults p99 verify {} ns",
            MSG_BYTES,
            MTU,
            json_opt(self.p99_verify_ns),
        )?;
        writeln!(
            f,
            "  {:<17} {:>9} {:>9} {:>9} {:>10} {:>7} {:>5} {:>7} {:>8} {:>7} {:>5} {:>3}",
            "cell",
            "conns",
            "packets",
            "chunks",
            "delivered",
            "failed",
            "shed",
            "unknown",
            "evict",
            "pooled",
            "probe",
            "ok",
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<17} {:>9} {:>9} {:>9} {:>10} {:>7} {:>5} {:>7} {:>8} {:>7} {:>5} {:>3}",
                r.cell,
                r.conns,
                r.packets,
                r.chunks,
                r.delivered_bytes,
                r.failed_tpdus,
                r.shed_chunks,
                r.unknown_conns,
                r.evictions,
                r.pooled,
                r.max_probe,
                if r.ok { "yes" } else { "NO" },
            )?;
        }
        Ok(())
    }
}

/// Renders the sweep as the `BENCH_scale.json` record. Every figure rides
/// the virtual clock or counts allocations, so the file is exact: the
/// `bench-check` gate diffs a regeneration byte for byte.
pub fn bench_json(r: &ScaleResult, describe: &str) -> String {
    use super::benchjson::meta_json;
    let mut out = String::from("{\n");
    out.push_str(&meta_json(
        "million-connection-scale-soak",
        "cargo run --release --bin experiments scale (or: just scale)",
        describe,
    ));
    out.push_str(&format!(
        "  \"workload\": \"{} B tiny messages; capacity-LRU, churn-equivalence, global-budget, Zipf+Byzantine, and 2^20-connection serial/parallel cells; {} workers on parallel cells\",\n",
        MSG_BYTES, WORKERS,
    ));
    out.push_str(
        "  \"method\": \"every cell runs once on the virtual clock; bench-check regenerates this file and diffs it byte for byte; mem_per_conn and steady_allocs are million-serial's, counted by the binary's counting global allocator (live-byte delta across the ramp per connection; allocations across the steady churn phase); p99_verify_ns is zipf-faults' p99 of the span.delay.verify_ns histogram\",\n",
    );
    out.push_str(&format!("  \"seed\": {},\n", r.seed));
    out.push_str(&format!("  \"target_conns\": {},\n", r.target_conns));
    out.push_str(&format!(
        "  \"mem_per_conn\": {},\n",
        json_opt(r.mem_per_conn)
    ));
    out.push_str(&format!(
        "  \"steady_allocs\": {},\n",
        json_opt(r.steady_allocs)
    ));
    out.push_str(&format!(
        "  \"p99_verify_ns\": {},\n",
        json_opt(r.p99_verify_ns)
    ));
    out.push_str("  \"results\": [\n");
    let rows: Vec<String> = r
        .rows
        .iter()
        .map(|l| {
            format!(
                "    {{\"cell\": \"{}\", \"conns\": {}, \"packets\": {}, \"chunks\": {}, \"wire_bytes\": {}, \"delivered_bytes\": {}, \"failed_tpdus\": {}, \"shed_chunks\": {}, \"unknown_conns\": {}, \"admissions\": {}, \"pooled\": {}, \"evictions\": {}, \"refusals\": {}, \"peak_live\": {}, \"max_probe\": {}, \"digests_match\": {}, \"ok\": {}}}",
                l.cell,
                l.conns,
                l.packets,
                l.chunks,
                l.wire_bytes,
                l.delivered_bytes,
                l.failed_tpdus,
                l.shed_chunks,
                l.unknown_conns,
                l.admissions,
                l.pooled,
                l.evictions,
                l.refusals,
                l.peak_live,
                l.max_probe,
                l.digests_match,
                l.ok,
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cid_patched_template_matches_a_real_sender_bit_for_bit() {
        // The whole harness rests on this: a template packet with its
        // C.ID fields patched and its ED digest shifted by the linear
        // basis must be indistinguishable from what a sender constructed
        // for that connection would emit.
        let seed = 0x5CA1E;
        for m in 0..MSGS_PER_CONN {
            let tpl = template(m, seed);
            for &cid in &[0u32, 2, 7, 0x0001_0000, 0xDEAD_BEEF, u32::MAX] {
                let mut tx = Sender::new(SenderConfig {
                    params: params_for(cid, m as u32 * TPDU_ELEMENTS),
                    layout: layout(),
                    mtu: MTU,
                    min_tpdu_elements: 8,
                    max_tpdu_elements: TPDU_ELEMENTS,
                });
                tx.submit_simple(&msg_bytes(seed, m), 0x10 + m as u32, false);
                let direct = tx.packets_for_pending().expect("tiny message packs");
                assert_eq!(direct.len(), 1);
                assert_eq!(
                    tpl.packet_for(cid).bytes,
                    direct[0].bytes,
                    "slot {m}, C.ID {cid:#x}"
                );
            }
        }
    }

    #[test]
    fn capacity_lru_cell_holds_its_gates() {
        let r = cell_capacity_lru(0x5CA1E);
        assert!(r.ok, "{r:?}");
    }

    #[test]
    fn churn_schedule_agrees_across_paths() {
        let r = cell_churn_equiv(0x5CA1E);
        assert!(r.digests_match, "{r:?}");
        assert!(r.ok, "{r:?}");
    }

    #[test]
    fn global_budget_bounds_and_releases() {
        let r = cell_budget_bound(0x5CA1E);
        assert!(r.ok, "{r:?}");
    }

    #[test]
    fn zipf_fault_mix_survives_and_replays() {
        let a = cell_zipf_faults(0x5CA1E, 1 << 10, 1 << 12);
        let b = cell_zipf_faults(0x5CA1E, 1 << 10, 1 << 12);
        assert!(a.0.ok, "{a:?}");
        assert_eq!(a, b);
    }

    #[test]
    fn shrunken_soak_passes_end_to_end() {
        // Library tests run without the counting allocator; the alloc and
        // memory gates are skipped, everything else must hold.
        let r = run_quick(0x5CA1E);
        assert!(r.passes(), "{r}");
    }
}
