//! The receiving side: immediate processing, reordering, or physical
//! reassembly (§3.3), over one shared verification engine.
//!
//! The receiver identifies the TPDU a chunk belongs to by its *position in
//! connection space*: `C.SN − T.SN` names the TPDU's first element, and is
//! invariant under fragmentation (it is exactly the implicit `T.ID` of
//! Appendix A). The explicit `T.ID` is therefore pure protected data — its
//! corruption surfaces as an error-detection-code mismatch, matching
//! Table 1. `C.SN` corruption moves a chunk into the *wrong* TPDU group,
//! where it collides with data owned by another group — the cross-group
//! consistency check. `T.SN` corruption breaks virtual reassembly.
//!
//! Every arriving byte is counted as a *data touch* when it is written
//! anywhere (application space or a staging buffer), so the three delivery
//! modes make the paper's §3.3 claim quantitative: immediate processing
//! touches each byte once; physical reassembly touches it twice; reordering
//! falls in between, depending on how much disorder the network produced.
//!
//! Per-group error detection runs through the streaming verification path:
//! each group's `TpduInvariant` absorbs chunk payloads via
//! `chunks_wsc::Wsc2Stream`, whose cached cursor weight makes contiguous
//! element runs — the common case even under heavy fragmentation — cost one
//! table multiply per run instead of an `alpha^position` exponentiation per
//! element (see docs/ARCHITECTURE.md, "The hot path").
//!
//! The path is a fixed parse graph followed by match+action stages, one
//! file each behind a crate-private interface:
//!
//! * `decode` — wire bytes → labels and payload ranges (`chunk_walk`),
//!   shared by every receive front-end in the crate;
//! * `verify` — **track + verify**, the per-TPDU `TpduEngine`: virtual
//!   reassembly, X-level consistency, the incremental invariant, the
//!   verdict, and the TPDU's share of an ack;
//! * `deliver` — the three [`DeliveryMode`]s, staging, budget admission
//!   and overlap resolution;
//! * `groups` — the open-group table: fixed slots, a keyed index, and a
//!   last-hit cursor.
//!
//! This file is the glue: per-connection state, the entry points, TPDU
//! grouping by `C.SN − T.SN`, the cross-group claim check, and reporting.
//! Every entry ends in one borrowed form, a `WireChunk` whose payload is
//! read where it lies, and resolves the chunk's TPDU once (`entered`).
//!
//! # One receiver, any length
//!
//! §2 treats a connection as one large PDU whose sequence numbers are
//! reused over time. The application space is a *ring* of
//! `capacity_elements`, the window, holding elements `[base, base +
//! window)`; `base` is the first element the application has not released.
//! [`Receiver::readable`] hands out `[base, watermark)` as at most two ring
//! slices and [`Receiver::release`] slides `base` on, never past the
//! **watermark**: the verified prefix held as a field, advanced when a
//! delivery lands on it and lowered when a delivered TPDU below it is reset.
//! SACKs are the delivered starts at or above it (SCTP's cumulative ack
//! point plus gap blocks). A release drops the delivered records, and their
//! claims, that lie wholly below the new `base`, so receive state is bounded
//! by the window, not by history. Never released, the ring is the linear
//! space of a bounded transfer, element `e` at `e * elem_size`.
//!
//! With `rel = (C.SN − T.SN) − base_csn` (wrapping 32-bit; `C.SN −
//! base_csn` for an ED chunk), where `base_csn` is `base`'s `C.SN`:
//!
//! * **stale** when `rel ≥ 2^31` and `2^32 − rel ≤ base`: the TPDU starts in
//!   released space. The chunk is refused before any group, budget or claim
//!   state changes and counted in [`RxStats::stale_chunks`]. A late copy of
//!   a TPDU whose record left with a release is stale, where a copy of a
//!   held record is judged against its verified end;
//! * otherwise the TPDU starts at `base + rel` — with `base = 0` the bounded
//!   arithmetic, so nothing is stale there;
//! * data past `base + window` fails its group as [`FailureReason::BadChunk`]
//!   (Table 1's `C.SN` rows): a sender that overruns the window gets a
//!   failed group, which the reliability loop resets and resends.

use std::collections::HashMap;
use std::sync::Arc;

use chunks_core::chunk::{Chunk, ChunkHeader};
use chunks_core::label::ChunkType;
use chunks_core::packet::Packet;
use chunks_obs::{Event, HotCounter, Labels, ObsSink, SpanId, Stage};
use chunks_vreasm::{OverlapPolicy, Reassembly};
use chunks_wsc::InvariantLayout;

use crate::ack::AckInfo;
use crate::budget::ResourceBudget;
use crate::conn::{ConnectionParams, Signal};
use crate::rto::TransportError;

mod decode;
mod deliver;
mod groups;
mod verify;

pub(crate) use decode::{chunk_walk, labels_of, observe_decoded, WireChunk};

use decode::observe_packet;
use deliver::Group;
use groups::Groups;
use verify::{ack_parts, Done, TpduEngine, Track};

/// The three receiver strategies of §3.3.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DeliveryMode {
    /// Process chunks as they arrive: place data straight into the
    /// application address space ("reassembly in place"). One touch per
    /// byte; no reassembly buffer at all.
    Immediate,
    /// Deliver data to the application strictly in connection-sequence
    /// order, buffering out-of-order chunks until the gap fills.
    Reorder,
    /// Physically reassemble each TPDU and verify it before any byte
    /// reaches the application. Two touches per byte, always.
    Reassemble,
}

/// Why a TPDU was rejected — the detection channels of Table 1.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureReason {
    /// The recomputed WSC-2 invariant did not match the received ED chunk.
    EdMismatch,
    /// A cross-field consistency check failed (`C.SN − T.SN` collision
    /// across groups, or `C.SN − X.SN` not constant within an external
    /// PDU).
    Consistency,
    /// Virtual reassembly failed: overlap, data past the stop bit,
    /// conflicting stop positions, or the TPDU never completed.
    ReassemblyError,
    /// The chunk itself was malformed (wire decode failed, wrong element
    /// size for the connection).
    BadChunk,
    /// A fragment overlapped already-held positions with *differing* bytes
    /// and [`OverlapPolicy::Reject`] condemned the group rather than pick
    /// a winner.
    OverlapConflict,
}

impl FailureReason {
    /// A short stable kebab-case tag, used as the `reason` of a
    /// [`Event::ChunkRejected`] trace event.
    pub fn as_str(&self) -> &'static str {
        match self {
            FailureReason::EdMismatch => "ed-mismatch",
            FailureReason::Consistency => "consistency",
            FailureReason::ReassemblyError => "reassembly-error",
            FailureReason::BadChunk => "bad-chunk",
            FailureReason::OverlapConflict => "overlap-conflict",
        }
    }
}

/// Events surfaced to the caller.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum RxEvent {
    /// A TPDU passed verification; its data is (or already was, in
    /// immediate mode) in the application space.
    TpduDelivered {
        /// Connection-space index of the TPDU's first element.
        start: u64,
        /// Elements delivered.
        elements: u64,
    },
    /// A TPDU was rejected.
    TpduFailed {
        /// Connection-space index of the TPDU's first element.
        start: u64,
        /// The detection channel that caught it.
        reason: FailureReason,
    },
    /// A connection signal arrived.
    Signalled(Signal),
    /// An acknowledgment arrived (for the data we sent the other way).
    Acked(AckInfo),
    /// The connection was closed by the `C.ST` bit.
    ConnectionClosed,
    /// The resource budget was exhausted and the chunk was dropped before
    /// it touched any verification state — the typed shed of graceful
    /// degradation. The retransmission path will offer the data again.
    ChunkShed {
        /// Connection-space index of the TPDU the chunk belonged to.
        start: u64,
        /// Payload bytes shed.
        bytes: u64,
    },
}

/// Receiver statistics — the quantities the paper's performance argument
/// turns on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RxStats {
    /// Bytes written anywhere (application space or staging buffers).
    pub data_touches: u64,
    /// Bytes currently staged in reorder/reassembly buffers.
    pub buffered_bytes: u64,
    /// High-water mark of staged bytes.
    pub peak_buffered_bytes: u64,
    /// Duplicate chunks rejected before processing.
    pub duplicate_chunks: u64,
    /// Chunks accepted.
    pub chunks_accepted: u64,
    /// TPDUs delivered.
    pub tpdus_delivered: u64,
    /// TPDUs rejected.
    pub tpdus_failed: u64,
    /// Malformed packets dropped.
    pub bad_packets: u64,
    /// Sum over delivered elements of (delivery time − arrival time), in
    /// the caller's time unit: the buffering latency immediate mode avoids.
    pub holding_delay: u64,
    /// Overlaps whose bytes actually differed from what was already held
    /// (benign retransmission cuts carry identical bytes and do not count).
    pub overlap_conflicts: u64,
    /// Idle incomplete groups evicted under budget pressure.
    pub evictions: u64,
    /// Payload bytes shed because the resource budget was exhausted.
    pub shed_bytes: u64,
    /// Chunks refused because their TPDU starts in space the application
    /// has already released.
    pub stale_chunks: u64,
}

/// The chunk receiver for one connection.
#[derive(Debug)]
pub struct Receiver {
    mode: DeliveryMode,
    params: ConnectionParams,
    layout: InvariantLayout,
    /// Application address space: a ring of `capacity_elements` holding
    /// elements `[base, base + capacity)`, `base` at byte `base_at`. Until
    /// anything is released it is the linear space, element `i` at bytes
    /// `[i*size, (i+1)*size)`.
    app: Vec<u8>,
    /// The first element the application has not released.
    base: u64,
    /// `base`'s `C.SN`, the point labels are unwrapped against.
    base_csn: u32,
    /// Byte offset of `base` in the ring.
    base_at: usize,
    /// The verified prefix: every element below it belongs to a delivered
    /// TPDU.
    watermark: u64,
    /// Which connection-space elements have been claimed, tagged by the
    /// owning group's start — so a cross-group collision can name the
    /// owner and the exact contested byte range in its diagnostic.
    claimed: Reassembly,
    /// How differing-byte overlaps within a group are resolved.
    policy: OverlapPolicy,
    /// Caps on held bytes, open groups and tracked fragments (unlimited by
    /// default).
    budget: ResourceBudget,
    /// Delivery cursor for Reorder mode (elements below are with the app).
    in_order: u64,
    /// Out-of-order staging for Reorder mode: element index → (chunk, when).
    reorder_q: HashMap<u64, (Chunk, u64)>,
    /// Open and failed groups only; delivered groups collapse into `done`.
    /// A freed slot keeps its cleared shell (warm interval slab, cleared
    /// X-delta spill table, empty staging `Vec` with its capacity), so in
    /// steady state a new TPDU opens without touching the allocator.
    groups: Groups<Group>,
    /// Delivered TPDUs not wholly released, keyed by start: the compact
    /// remainder of a group after its slot was freed. Never holds a start
    /// `groups` holds. Its keys at or above the watermark are the SACKs.
    done: HashMap<u64, Done>,
    /// Scratch for [`TpduEngine::track`]'s uncovered runs, reused across
    /// chunks so the duplicate path stays off the heap.
    uncovered: Vec<(u64, u64)>,
    closed: bool,
    /// Accumulated statistics.
    pub stats: RxStats,
    /// Observability sink; [`chunks_obs::NullSink`] unless
    /// [`with_obs`](Self::with_obs) installed a recording one.
    obs: Arc<dyn ObsSink>,
    /// Cached `obs.enabled()`: the disabled hot path is this one branch.
    obs_on: bool,
    /// Cached `obs.enabled() && obs.verbose()`: gates the *expensive*
    /// instrumentation (the per-packet decode pre-pass, per-chunk events)
    /// that the always-on production sink refuses so the obs-on hot path
    /// stays allocation-free.
    obs_verbose: bool,
    /// Last virtual-clock time seen by `handle_chunk`/`handle_packet`;
    /// stamps trace events emitted from call paths without a `now`.
    last_now: u64,
    /// Pre-resolved handles for the per-chunk/per-TPDU counters, bound to
    /// the sink's shard block at [`set_obs`](Self::set_obs) so the hot path
    /// never repeats the label→cell lookup.
    hot: HotRxCounters,
}

/// The receive path's pre-resolved counter handles (see
/// [`chunks_obs::HotCounter`]): one label→cell resolution at `set_obs`,
/// plain owner-writes stores per update.
#[derive(Debug, Clone)]
struct HotRxCounters {
    chunks_accepted: HotCounter,
    tracker_accepts: HotCounter,
    data_touches: HotCounter,
    tpdus_delivered: HotCounter,
    verify_pass: HotCounter,
}

impl HotRxCounters {
    fn resolve(sink: &dyn ObsSink) -> Self {
        HotRxCounters {
            chunks_accepted: sink.hot_counter("transport.rx.chunks_accepted"),
            tracker_accepts: sink.hot_counter("vreasm.tracker.accepts"),
            data_touches: sink.hot_counter("transport.rx.data_touches"),
            tpdus_delivered: sink.hot_counter("transport.rx.tpdus_delivered"),
            verify_pass: sink.hot_counter("wsc.verify_pass"),
        }
    }
}

impl Receiver {
    /// Creates a receiver for a connection, able to hold `capacity_elements`
    /// of application data: the whole transfer, or a window that slides as
    /// the application [releases](Self::release) what it has read.
    pub fn new(
        mode: DeliveryMode,
        params: ConnectionParams,
        layout: InvariantLayout,
        capacity_elements: u64,
    ) -> Self {
        Receiver {
            mode,
            params,
            layout,
            app: vec![0; capacity_elements as usize * params.elem_size as usize],
            base: 0,
            base_csn: params.initial_csn,
            base_at: 0,
            watermark: 0,
            claimed: Reassembly::new(OverlapPolicy::default()),
            policy: OverlapPolicy::default(),
            budget: ResourceBudget::default(),
            in_order: 0,
            reorder_q: HashMap::new(),
            groups: Groups::default(),
            done: HashMap::new(),
            uncovered: Vec::new(),
            closed: false,
            stats: RxStats::default(),
            obs: chunks_obs::null(),
            obs_on: false,
            obs_verbose: false,
            last_now: 0,
            hot: HotRxCounters::resolve(&chunks_obs::NullSink),
        }
    }

    /// Installs an observability sink (builder form). With the default
    /// [`chunks_obs::NullSink`] every instrumentation site reduces to one
    /// branch on a cached bool.
    pub fn with_obs(mut self, sink: Arc<dyn ObsSink>) -> Self {
        self.set_obs(sink);
        self
    }

    /// Installs an observability sink in place.
    pub fn set_obs(&mut self, sink: Arc<dyn ObsSink>) {
        self.obs_on = sink.enabled();
        self.obs_verbose = self.obs_on && sink.verbose();
        self.hot = HotRxCounters::resolve(&*sink);
        self.obs = sink;
    }

    /// Sets the overlap policy (builder form).
    pub fn with_policy(mut self, policy: OverlapPolicy) -> Self {
        self.set_policy(policy);
        self
    }

    /// Sets the overlap policy in place.
    pub fn set_policy(&mut self, policy: OverlapPolicy) {
        self.policy = policy;
    }

    /// The configured overlap policy.
    pub fn policy(&self) -> OverlapPolicy {
        self.policy
    }

    /// Installs a resource budget (builder form).
    pub fn with_budget(mut self, budget: ResourceBudget) -> Self {
        self.set_budget(budget);
        self
    }

    /// Installs a resource budget in place.
    pub fn set_budget(&mut self, budget: ResourceBudget) {
        self.budget = budget;
    }

    /// The configured resource budget.
    pub fn budget(&self) -> &ResourceBudget {
        &self.budget
    }

    /// The delivery mode.
    pub fn mode(&self) -> DeliveryMode {
        self.mode
    }

    /// Pre-sizes every growth point on the receive path for `tpdus` more
    /// TPDUs fragmenting into at most `fragments` disjoint runs, so a
    /// steady-state window stays allocation-free (amortised `Vec`/map
    /// doubling alone cannot promise a zero-allocation *window* — an
    /// explicit reserve can). Only the points the delivery mode grows are
    /// sized: the reorder queue in Reorder mode alone, the one mode that
    /// stages by element. `tests/hotpath_allocs.rs` pins both halves.
    pub fn reserve(&mut self, tpdus: usize, fragments: usize) {
        self.groups.reserve(tpdus);
        self.done.reserve(tpdus);
        self.claimed.reserve(fragments);
        if self.mode == DeliveryMode::Reorder {
            self.reorder_q.reserve(fragments);
        }
    }

    /// The application address space, raw: the ring. Until anything is
    /// released it is the linear space, element `i` at `i * elem_size`.
    pub fn app_data(&self) -> &[u8] {
        &self.app
    }

    /// Contiguously verified prefix, in elements of connection space.
    pub fn verified_prefix(&self) -> u64 {
        self.watermark
    }

    /// The verified elements the application has not released yet,
    /// `[base, verified_prefix)`, as at most two slices of the ring, in
    /// order.
    pub fn readable(&self) -> (&[u8], &[u8]) {
        self.ring(self.base, self.watermark)
    }

    /// Hands the first `elements` readable elements back: the window slides
    /// past them, and the records of delivered TPDUs that now lie wholly
    /// below it go, with their claims. Releases at most what
    /// [`Self::readable`] holds.
    pub fn release(&mut self, elements: u64) {
        let n = elements.min(self.watermark - self.base);
        if n == 0 {
            return;
        }
        self.base += n;
        self.base_csn = self.base_csn.wrapping_add(n as u32);
        self.base_at += n as usize * self.params.elem_size as usize;
        if self.base_at >= self.app.len() {
            self.base_at -= self.app.len();
        }
        let (base, claimed) = (self.base, &mut self.claimed);
        self.done.retain(|&start, d| {
            let held = start + d.elements > base;
            if !held {
                claimed.release(start);
            }
            held
        });
    }

    /// Elements `[from, to)` of the window, `base ≤ from ≤ to ≤ base +
    /// capacity`, as at most two slices of the ring, in order.
    fn ring(&self, from: u64, to: u64) -> (&[u8], &[u8]) {
        let at = self.ring_at(from);
        let len = (to - from) as usize * self.params.elem_size as usize;
        let head = len.min(self.app.len() - at);
        (&self.app[at..at + head], &self.app[..len - head])
    }

    /// Byte offset in the ring of element `e`, `base ≤ e ≤ base + capacity`:
    /// one conditional subtract, no division.
    fn ring_at(&self, e: u64) -> usize {
        let at = self.base_at + (e - self.base) as usize * self.params.elem_size as usize;
        if at >= self.app.len() {
            at - self.app.len()
        } else {
            at
        }
    }

    /// True once the `C.ST` bit has been seen on verified data.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Unwraps a `C.SN` to a connection-space element index: `base` plus how
    /// far the label runs ahead of `base_csn`.
    fn unwrap_csn(&self, c_sn: u32) -> u64 {
        self.base + c_sn.wrapping_sub(self.base_csn) as u64
    }

    /// The start of the TPDU whose first element is labelled `c_sn`, or
    /// `None` when that start lies in released space (module docs).
    fn tpdu_start(&self, c_sn: u32) -> Option<u64> {
        let rel = c_sn.wrapping_sub(self.base_csn);
        let behind = rel.wrapping_neg() as u64;
        (rel < 1 << 31 || behind > self.base).then_some(self.base + rel as u64)
    }

    /// Group-level span labels: the TPDU is identified by its start, so the
    /// `verify` and `deliver` spans key on `(C.ID, start, 0)`.
    fn group_labels(&self, start: u64) -> Labels {
        Labels::new(self.params.conn_id, start as u32, 0)
    }

    /// Resolves the TPDU at `start` once: its open group — the cursor's for
    /// every chunk of a TPDU after its first — and only on a miss the `done`
    /// tier (`Err` with the delivered TPDU's end), which never shares a start
    /// with an open group; else a new group in a free shell. The group's
    /// `last_touch` becomes `now`. A group's first arrival — data, ED, or the
    /// failure that condemns it — opens its `verify` span; the span closes
    /// at the WSC-2 verdict (delivery or failure).
    fn entered(&mut self, start: u64, now: u64) -> Result<usize, u64> {
        let slot = match self.groups.find(start) {
            Some(slot) => slot,
            None => {
                if let Some(done) = self.done.get(&start) {
                    return Err(done.elements);
                }
                if self.obs_on {
                    let span = SpanId::new(self.group_labels(start), Stage::Verify);
                    self.obs.span_open(now, span);
                }
                let layout = self.layout;
                self.groups.insert(start, || Group {
                    tpdu: TpduEngine::new(layout),
                    held: Vec::new(),
                    last_touch: now,
                })
            }
        };
        debug_assert!(!self.done.contains_key(&start), "open and done overlap");
        self.groups[slot].last_touch = now;
        Ok(slot)
    }

    /// Handles one arriving packet at time `now`.
    pub fn handle_packet(&mut self, packet: &Packet, now: u64) -> Vec<RxEvent> {
        let mut events = Vec::new();
        self.handle_packet_into(packet, now, &mut events);
        events
    }

    /// [`Self::handle_packet`], appending events into a caller-owned buffer
    /// — the allocation-free form the hot path uses.
    pub fn handle_packet_into(&mut self, packet: &Packet, now: u64, out: &mut Vec<RxEvent>) {
        self.last_now = now;
        self.packet_inner(packet, now, out);
    }

    /// Handles a batch of packets arriving at the same virtual time. The
    /// per-call bookkeeping — the `now` stamp, the caller's event buffer —
    /// is paid once per batch instead of once per packet, and the deferred
    /// WSC folds inside each group's `Wsc2Stream` amortise across the whole
    /// batch of absorbed chunks.
    pub fn ingest_batch(&mut self, packets: &[Packet], now: u64, out: &mut Vec<RxEvent>) {
        self.last_now = now;
        for packet in packets {
            self.packet_inner(packet, now, out);
        }
    }

    fn packet_inner(&mut self, packet: &Packet, now: u64, out: &mut Vec<RxEvent>) {
        let walk = chunk_walk(packet);
        if self.obs_verbose {
            observe_packet(&*self.obs, packet, now, walk.as_ref().err());
        }
        match walk {
            Ok(walk) => walk.for_each(|c| self.handle_wire_into(c, now, out)),
            Err(_) => self.bad_packet(),
        }
    }

    /// Counts a malformed packet (or control chunk) dropped.
    fn bad_packet(&mut self) {
        self.stats.bad_packets += 1;
        if self.obs_on {
            self.obs.counter("transport.rx.bad_packets", 1);
        }
    }

    /// Handles one chunk at time `now`.
    pub fn handle_chunk(&mut self, chunk: Chunk, now: u64) -> Vec<RxEvent> {
        let mut events = Vec::new();
        self.handle_chunk_into(chunk, now, &mut events);
        events
    }

    /// [`Self::handle_chunk`], appending events into a caller-owned buffer.
    pub fn handle_chunk_into(&mut self, chunk: Chunk, now: u64, out: &mut Vec<RxEvent>) {
        self.handle_wire_into(WireChunk::of(&chunk), now, out);
    }

    /// The borrowed entry the crate's front-ends feed from their packet
    /// walks.
    pub(crate) fn handle_wire_into(&mut self, c: WireChunk<'_>, now: u64, out: &mut Vec<RxEvent>) {
        self.last_now = now;
        match c.header.ty {
            ChunkType::Data => self.handle_data(c, now, out),
            ChunkType::ErrorDetection => self.handle_ed(&c.header, c.payload(), now, out),
            ChunkType::Signal => match Signal::decode(c.payload()) {
                Some(s) => out.push(RxEvent::Signalled(s)),
                None => self.bad_packet(),
            },
            ChunkType::Ack => match AckInfo::decode(c.payload()) {
                Some(a) => out.push(RxEvent::Acked(a)),
                None => self.bad_packet(),
            },
            ChunkType::Padding => {}
        }
    }

    /// Asks for the cache lines handling `c` will touch, changing nothing:
    /// this receiver's own, the cursor group's slot, the claims tail, and for
    /// a data chunk its payload where it lies and its destination in the
    /// ring. A demultiplexer issues these for every chunk of a packet before
    /// it handles the first, so the misses overlap instead of each waiting
    /// for the one before it.
    pub(crate) fn prefetch(&self, c: &WireChunk<'_>) {
        prefetch_lines((self as *const Self).cast(), std::mem::size_of::<Self>());
        if let Some(group) = self.groups.cursor_group() {
            prefetch_lines((group as *const Group).cast(), std::mem::size_of::<Group>());
        }
        if let Some(tail) = self.claimed.tail() {
            // The last range and the slot an append writes after it.
            prefetch_lines((tail as *const (u64, u64, u64)).cast(), 48);
        }
        if c.header.ty != ChunkType::Data {
            return;
        }
        let payload = c.payload();
        prefetch_lines(payload.as_ptr(), payload.len());
        let first = self.unwrap_csn(c.header.conn.sn);
        let skip = (first - self.base) as usize * self.params.elem_size as usize;
        if skip + payload.len() <= self.app.len() {
            let at = self.ring_at(first);
            let len = payload.len().min(self.app.len() - at);
            prefetch_lines(self.app[at..].as_ptr(), len);
        }
    }

    fn handle_data(&mut self, c: WireChunk<'_>, now: u64, out: &mut Vec<RxEvent>) {
        let h = c.header;
        let Some(start) = self.tpdu_start(h.conn.sn.wrapping_sub(h.tpdu.sn)) else {
            self.stats.stale_chunks += 1;
            return;
        };
        // SIZE is signalled per connection; a mismatch is a corrupted SIZE
        // field (Table 1: reassembly error).
        if h.size != self.params.elem_size {
            return self.group_failure_into(start, FailureReason::BadChunk, out);
        }
        let first = self.unwrap_csn(h.conn.sn);
        let len = h.len as u64;
        let esize = self.params.elem_size as usize;
        if (first - self.base + len) as usize * esize > self.app.len() {
            return self.group_failure_into(start, FailureReason::BadChunk, out);
        }

        // Budget admission runs before any group or invariant state mutates,
        // so a shed chunk leaves no trace in the verification state and a
        // clean retransmission can land later.
        if self.budget.is_limited() && self.admit_into(start, first, len, now, out) {
            return;
        }

        // Delivered groups have collapsed into the `done` tier. A delivered
        // TPDU covered `[0, end)` contiguously, so a late copy aimed at it is
        // judged against `end` alone.
        let sn = h.tpdu.sn as u64;
        let slot = match self.entered(start, now) {
            Ok(slot) => slot,
            // Data entirely past a delivered TPDU's verified end contradicts
            // a verdict that is already out: it is dropped silently and
            // counts nothing.
            Err(end) if sn >= end => return,
            Err(end) => {
                self.stats.duplicate_chunks += 1;
                if self.obs_on {
                    self.obs.counter("transport.rx.duplicate_chunks", 1);
                }
                if sn + len > end && self.budget.is_limited() {
                    // The part past the verified end is dropped like the
                    // case above, but budget admission sees it first: under
                    // a limited budget it may shed, with the usual events.
                    self.admit_into(start, first + (end - sn), len - (end - sn), now, out);
                }
                return;
            }
        };

        // Stage 2a — track: virtual reassembly within the TPDU.
        // The uncovered-runs scratch is taken out for the call and handed
        // back after: the overlap path recurses into this function for the
        // pieces it extracts, and must find its own runs untouched.
        let mut uncovered = std::mem::take(&mut self.uncovered);
        let group = &mut self.groups[slot];
        let tracked = group.tpdu.track(sn, len, h.tpdu.st, &mut uncovered);
        if let Track::Overlap = tracked {
            self.overlapped_into(&c.to_chunk(), slot, start, &uncovered, now, out);
        }
        self.uncovered = uncovered;
        match tracked {
            Track::Fresh => {}
            Track::Overlap => return,
            Track::Inconsistent => {
                return self.group_failure_into(start, FailureReason::ReassemblyError, out);
            }
        }

        // Cross-group collision: these elements already belong to another
        // TPDU's data — a corrupted C.SN moved this chunk (Table 1:
        // consistency check). The overlap policy does not soften this
        // channel: the colliding *identity* is itself the corruption, so
        // every policy condemns; the diagnostic names the owning group and
        // the exact contested byte range instead of discarding silently.
        // The clean (overwhelmingly common) case is decided by the
        // allocation-free `overlap` probe; only a contested span pays for
        // the conflict-describing `Claim`.
        if self.claimed.overlap(first, first + len) > 0 {
            let probe = self.claimed.probe(first, first + len);
            if !probe.is_clean() {
                self.stats.overlap_conflicts += probe.conflicts.len() as u64;
                if self.obs_on {
                    self.obs.counter(
                        "transport.rx.overlap_conflicts",
                        probe.conflicts.len() as u64,
                    );
                    for c in &probe.conflicts {
                        self.obs.event(
                            now,
                            Event::OverlapConflict {
                                labels: labels_of(&h),
                                policy: self.policy.as_str(),
                                start: (c.start * esize as u64) as u32,
                                bytes: (c.len() * esize as u64) as u32,
                                owner: c.tag as u32,
                            },
                        );
                    }
                }
                return self.group_failure_into(start, FailureReason::Consistency, out);
            }
            self.claimed.claim(first, first + len, start);
        } else {
            self.claimed.claim_uncontested(first, first + len, start);
        }

        // Stage 2b — verify: X-level consistency, then the incremental
        // end-to-end error detection.
        let group = &mut self.groups[slot];
        if let Err(reason) = group.tpdu.absorb(&h, c.payload()) {
            return self.group_failure_into(start, reason, out);
        }
        self.stats.chunks_accepted += 1;
        if self.obs_on {
            self.hot.chunks_accepted.add(&*self.obs, 1);
            self.hot.tracker_accepts.add(&*self.obs, 1);
            // Tracker occupancy is a per-chunk histogram — diagnostics
            // detail, not a health signal, so it rides the verbose tier
            // (the always-on surface reads fragment state at barriers).
            if self.obs_verbose {
                self.obs
                    .observe("vreasm.tracker.fragments", group.tpdu.fragments() as u64);
            }
        }
        if h.conn.st {
            self.closed = true;
        }

        // Stage 3 — deliver: mode-specific data movement.
        self.move_data(slot, first, c, now);

        self.try_complete_into(slot, start, now, out)
    }

    fn handle_ed(&mut self, h: &ChunkHeader, payload: &[u8], now: u64, out: &mut Vec<RxEvent>) {
        let Ok(digest) = <[u8; 8]>::try_from(payload) else {
            return self.bad_packet();
        };
        let Some(start) = self.tpdu_start(h.conn.sn) else {
            self.stats.stale_chunks += 1;
            return;
        };
        // An ED chunk opens a group too; a flood of them is budgeted the
        // same way a data flood is.
        if self.budget.is_limited() && self.admit_group_into(start, 8, now, out) {
            return;
        }
        // A delivered group's verdict is out: a late ED chunk for it is
        // dropped silently and cannot reopen the group.
        let Ok(slot) = self.entered(start, now) else {
            return;
        };
        self.groups[slot].tpdu.set_ed(digest);
        self.try_complete_into(slot, start, now, out)
    }

    /// Marks a group failed and reports it (once).
    fn group_failure_into(&mut self, start: u64, reason: FailureReason, out: &mut Vec<RxEvent>) {
        // A delivered group's verdict is final: no fresh group is conjured
        // and no spurious failure reported for an already-verified TPDU.
        let Ok(slot) = self.entered(start, self.last_now) else {
            return;
        };
        if self.groups[slot].tpdu.fail(reason) {
            self.report_failure(start, reason, out);
        }
    }

    /// Counts, traces and surfaces a group's one failure verdict.
    fn report_failure(&mut self, start: u64, reason: FailureReason, out: &mut Vec<RxEvent>) {
        let now = self.last_now;
        self.stats.tpdus_failed += 1;
        if self.obs_on {
            self.obs.counter("transport.rx.tpdus_failed", 1);
            self.obs.event(
                now,
                Event::ChunkRejected {
                    labels: self.group_labels(start),
                    reason: reason.as_str(),
                },
            );
            // The verdict — even a condemning one — ends the verify span.
            self.obs
                .span_close(now, SpanId::new(self.group_labels(start), Stage::Verify));
        }
        out.push(RxEvent::TpduFailed { start, reason });
    }

    /// Asks the group in `slot` (at `start`) for its WSC-2 verdict. On
    /// delivery the slot is freed with its shell cleared in place and a
    /// compact [`Done`] record takes its place.
    fn try_complete_into(&mut self, slot: usize, start: u64, now: u64, out: &mut Vec<RxEvent>) {
        let group = &mut self.groups[slot];
        let Some(verdict) = group.tpdu.verify() else {
            return;
        };
        if let Err(reason) = verdict {
            // Discard staged data; the retransmission will replace it.
            // Clearing in place keeps the held Vec's capacity for it.
            let freed = group.staged();
            group.held.clear();
            self.unstage(freed);
            if self.obs_on {
                self.obs.counter("wsc.verify_fail", 1);
                self.obs
                    .degraded(now, "verify-failure", self.params.conn_id);
            }
            return self.report_failure(start, reason, out);
        }
        let done = group.tpdu.done();
        let elements = done.elements;
        if self.obs_on {
            self.hot.verify_pass.add(&*self.obs, 1);
            self.obs
                .observe("wsc.runs_per_tpdu", group.tpdu.absorbed_runs());
        }
        self.release_held(slot, now);
        self.groups.remove(slot).recycle();
        self.stats.tpdus_delivered += 1;
        if self.obs_on {
            self.hot.tpdus_delivered.add(&*self.obs, 1);
            // A delivery is the routine case — one per TPDU at line rate.
            // The verbose trace wants each one; the always-on flight ring
            // records anomalies, and flooding it with deliveries would both
            // evict the history a postmortem needs and put a mutex on the
            // per-TPDU path.
            if self.obs_verbose {
                self.obs.event(
                    now,
                    Event::GroupDelivered {
                        conn_id: self.params.conn_id,
                        start: start as u32,
                        bytes: (elements * self.params.elem_size as u64) as u32,
                    },
                );
            }
            // Verdict reached: the verify span closes, and delivery is
            // marked with a zero-duration `deliver` span.
            let labels = self.group_labels(start);
            self.obs.span_close(now, SpanId::new(labels, Stage::Verify));
            let deliver = SpanId::new(labels, Stage::Deliver);
            self.obs.span_open(now, deliver);
            self.obs.span_close(now, deliver);
        }
        self.done.insert(start, done);
        // A delivery at the watermark chains it through the delivered TPDUs
        // that follow. A zero-element record would stand still: never
        // followed.
        if start == self.watermark {
            while let Some(d) = self.done.get(&self.watermark).filter(|d| d.elements > 0) {
                self.watermark += d.elements;
            }
        }
        out.push(RxEvent::TpduDelivered { start, elements });
        if self.closed {
            out.push(RxEvent::ConnectionClosed);
        }
    }

    /// Expires every incomplete group (fragment timeout at end of run),
    /// reporting each as a reassembly error, in ascending `start` order.
    pub fn expire_incomplete(&mut self) -> Vec<RxEvent> {
        let mut starts: Vec<u64> = self
            .groups
            .iter()
            .filter(|(_, g)| g.tpdu.verdict().is_none())
            .map(|(s, _)| s)
            .collect();
        starts.sort_unstable();
        let mut events = Vec::new();
        for s in starts {
            self.group_failure_into(s, FailureReason::ReassemblyError, &mut events);
        }
        events
    }

    /// Builds the current acknowledgment, including the precise missing
    /// element ranges so the sender can retransmit sub-chunks only.
    pub fn make_ack(&self) -> AckInfo {
        let mut sacks: Vec<u64> = self
            .done
            .keys()
            .copied()
            .filter(|&s| s >= self.watermark)
            .collect();
        sacks.sort_unstable();
        let (gaps, need_ed) = ack_parts(self.groups.iter().map(|(s, g)| (s, &g.tpdu)));
        AckInfo {
            cumulative: self.watermark,
            sacks,
            gaps,
            need_ed,
            pressure: self.under_pressure(),
        }
    }

    /// The typed budget-exhaustion error, once any bytes have been shed.
    pub fn budget_error(&self) -> Option<TransportError> {
        (self.stats.shed_bytes > 0).then_some(TransportError::BudgetExhausted {
            conn_id: self.params.conn_id,
            shed_bytes: self.stats.shed_bytes,
            evictions: self.stats.evictions,
            held_bytes: self.stats.buffered_bytes,
        })
    }

    /// Starts of groups that failed verification and need retransmission.
    pub fn failed_starts(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .groups
            .iter()
            .filter(|(_, g)| matches!(g.tpdu.verdict(), Some(Err(_))))
            .map(|(s, _)| s)
            .collect();
        v.sort_unstable();
        v
    }

    /// Clears the state of a failed or incomplete group so a retransmission
    /// (with identical identifiers, §3.3) can be verified afresh. A
    /// delivered TPDU can be reset too, unless the application has begun to
    /// release it.
    pub fn reset_group(&mut self, start: u64) {
        if let Some(slot) = self.groups.find(start) {
            // Release exactly this group's claims so retransmitted data may
            // land (tagged claims free without arithmetic on the span).
            self.claimed.release(start);
            self.free_staged(slot, start);
            self.groups.remove(slot).recycle();
        } else if start >= self.base && self.done.remove(&start).is_some() {
            // A delivered group: its heavy state is long recycled; drop the
            // verdict record and free the claims so the TPDU can be received
            // again. Everything below it is still delivered, so the
            // verified prefix now ends at its start at the latest.
            self.claimed.release(start);
            self.watermark = self.watermark.min(start);
        }
    }

    /// Quiesces the receiver into a reusable shell: every staged byte is
    /// released (per-connection and global budget), every open group's
    /// shell is cleared in its slot, and all per-connection progress (claims,
    /// delivery records, statistics, close bit) is cleared — while every
    /// container keeps its capacity. A quiesced shell re-arms for a new
    /// connection via [`Self::rearm`] without touching the allocator; the
    /// connection table's admission pool is built on exactly this.
    pub fn quiesce(&mut self) {
        // One arithmetic release covers everything staged — reorder-queue
        // chunks and held group chunks both flowed through `stage`.
        let staged = self.stats.buffered_bytes;
        self.unstage(staged);
        self.groups.drain(Group::recycle);
        self.reorder_q.clear();
        self.done.clear();
        self.claimed.clear();
        self.base = 0;
        self.base_csn = self.params.initial_csn;
        self.base_at = 0;
        self.watermark = 0;
        self.in_order = 0;
        self.closed = false;
        self.stats = RxStats::default();
        self.last_now = 0;
        self.app.fill(0);
    }

    /// Re-arms a quiesced shell for a new connection: swap in the new
    /// parameters, then [`Self::quiesce`]. The shell keeps its delivery mode,
    /// invariant layout, application-space capacity, overlap policy, budget
    /// and observability sink — re-arming is for homogeneous workloads
    /// (same element size); callers with per-connection policy or budget
    /// apply them after re-arm (`set_policy` / `set_budget`, neither
    /// allocates).
    pub fn rearm(&mut self, params: ConnectionParams) {
        debug_assert_eq!(
            params.elem_size, self.params.elem_size,
            "re-arm keeps the application space; the element size must match"
        );
        self.params = params;
        self.quiesce();
    }

    /// The connection parameters.
    pub fn params(&self) -> &ConnectionParams {
        &self.params
    }

    /// The verified WSC-2 code of a delivered TPDU, or `None` if the group
    /// at `start` was never delivered (missing, failed, or still pending)
    /// or has been wholly released.
    ///
    /// Delivered groups keep their verified code in the `done` tier, so the
    /// code a parallel worker folds into its delivery transcript is exactly
    /// the one the ED comparison accepted.
    pub fn delivered_code(&self, start: u64) -> Option<chunks_wsc::Wsc2> {
        self.done.get(&start).map(|d| d.code)
    }

    /// `(start, digest)` for every delivered TPDU not wholly released,
    /// sorted by start — the per-connection verification transcript the
    /// differential harness compares across pipelines. A receiver that is
    /// never released lists every TPDU it delivered.
    pub fn delivered_digests(&self) -> Vec<(u64, [u8; 8])> {
        let mut v: Vec<(u64, [u8; 8])> = self
            .done
            .iter()
            .map(|(&s, d)| (s, d.code.digest()))
            .collect();
        v.sort_unstable();
        v
    }
}

/// A receiver that goes away — dropped, or replaced under its `C.ID` — hands
/// the bytes it still stages back to a shared
/// [`GlobalBudget`](crate::budget::GlobalBudget), as
/// [`Receiver::quiesce`] does for a pooled shell: the pool counts only what
/// a live receiver holds.
impl Drop for Receiver {
    fn drop(&mut self) {
        self.unstage(self.stats.buffered_bytes);
    }
}

/// One cache hint per 64-byte line of `[at, at + len)`.
fn prefetch_lines(at: *const u8, len: usize) {
    let skew = at as usize % 64;
    for off in (0..skew + len).step_by(64) {
        chunks_gf::prefetch(at.wrapping_sub(skew).wrapping_add(off));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Framer;
    use chunks_core::frag::split;
    use chunks_core::packet::pack;

    fn params() -> ConnectionParams {
        ConnectionParams {
            conn_id: 0xA,
            elem_size: 1,
            initial_csn: 100,
            tpdu_elements: 8,
        }
    }

    fn layout() -> InvariantLayout {
        InvariantLayout::with_data_symbols(4096)
    }

    fn rx(mode: DeliveryMode) -> Receiver {
        Receiver::new(mode, params(), layout(), 1 << 16)
    }

    fn framed(data: &[u8]) -> Vec<crate::frame::Tpdu> {
        Framer::new(params(), layout()).frame_simple(data, 0xF, false)
    }

    #[test]
    fn in_order_delivery_immediate() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh12345678");
        let mut delivered = 0;
        for t in &tpdus {
            for c in t.all_chunks() {
                for e in r.handle_chunk(c, 0) {
                    if matches!(e, RxEvent::TpduDelivered { .. }) {
                        delivered += 1;
                    }
                }
            }
        }
        assert_eq!(delivered, 2);
        assert_eq!(&r.app_data()[..16], b"abcdefgh12345678");
        // Immediate mode: exactly one touch per payload byte.
        assert_eq!(r.stats.data_touches, 16);
        assert_eq!(r.stats.peak_buffered_bytes, 0);
        assert_eq!(r.verified_prefix(), 16);
    }

    #[test]
    fn disordered_fragmented_delivery_immediate() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh");
        // Fragment the single data chunk and deliver the pieces backwards,
        // ED chunk first.
        let t = &tpdus[0];
        let (a, rest) = split(&t.chunks[0], 3).unwrap();
        let (b, c) = split(&rest, 2).unwrap();
        let mut events = Vec::new();
        for chunk in [t.ed.clone(), c, b, a] {
            events.extend(r.handle_chunk(chunk, 0));
        }
        assert!(events.iter().any(|e| matches!(
            e,
            RxEvent::TpduDelivered {
                start: 0,
                elements: 8
            }
        )));
        assert_eq!(&r.app_data()[..8], b"abcdefgh");
        assert_eq!(r.stats.data_touches, 8, "still one touch per byte");
    }

    #[test]
    fn reassemble_mode_touches_twice() {
        let mut r = rx(DeliveryMode::Reassemble);
        let tpdus = framed(b"abcdefgh");
        for c in tpdus[0].all_chunks() {
            r.handle_chunk(c, 0);
        }
        assert_eq!(&r.app_data()[..8], b"abcdefgh");
        assert_eq!(r.stats.data_touches, 16, "buffer write + final copy");
        assert_eq!(r.stats.peak_buffered_bytes, 8);
        assert_eq!(r.stats.buffered_bytes, 0, "released on verification");
    }

    #[test]
    fn reorder_mode_in_order_is_single_touch() {
        let mut r = rx(DeliveryMode::Reorder);
        let tpdus = framed(b"abcdefgh");
        for c in tpdus[0].all_chunks() {
            r.handle_chunk(c, 0);
        }
        assert_eq!(r.stats.data_touches, 8);
        assert_eq!(&r.app_data()[..8], b"abcdefgh");
    }

    #[test]
    fn reorder_mode_buffers_out_of_order() {
        let mut r = rx(DeliveryMode::Reorder);
        let tpdus = framed(b"abcdefgh");
        let t = &tpdus[0];
        let (a, b) = split(&t.chunks[0], 4).unwrap();
        r.handle_chunk(b, 10); // out of order: staged
        assert_eq!(r.stats.buffered_bytes, 4);
        r.handle_chunk(a, 20); // fills the gap, drains the queue
        r.handle_chunk(t.ed.clone(), 30);
        assert_eq!(&r.app_data()[..8], b"abcdefgh");
        assert_eq!(r.stats.buffered_bytes, 0);
        assert_eq!(r.stats.data_touches, 8 + 4, "staged bytes touched twice");
        assert_eq!(r.stats.holding_delay, 10, "tail waited 20 - 10");
    }

    #[test]
    fn payload_corruption_rejected_by_ed() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh");
        let t = &tpdus[0];
        let mut bad = t.chunks[0].clone();
        let mut raw = bad.payload.to_vec();
        raw[2] ^= 0x10;
        bad.payload = raw.into();
        let mut events = r.handle_chunk(bad, 0);
        events.extend(r.handle_chunk(t.ed.clone(), 0));
        assert!(events.iter().any(|e| matches!(
            e,
            RxEvent::TpduFailed {
                reason: FailureReason::EdMismatch,
                ..
            }
        )));
    }

    #[test]
    fn duplicate_chunks_rejected_before_checksum() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh");
        let t = &tpdus[0];
        let mut events = r.handle_chunk(t.chunks[0].clone(), 0);
        events.extend(r.handle_chunk(t.chunks[0].clone(), 0));
        events.extend(r.handle_chunk(t.ed.clone(), 0));
        assert_eq!(r.stats.duplicate_chunks, 1);
        assert!(
            events
                .iter()
                .any(|e| matches!(e, RxEvent::TpduDelivered { .. })),
            "duplicate must not corrupt the incremental checksum"
        );
    }

    #[test]
    fn retransmission_after_failure_succeeds() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh");
        let t = &tpdus[0];
        let mut bad = t.chunks[0].clone();
        let mut raw = bad.payload.to_vec();
        raw[0] ^= 1;
        bad.payload = raw.into();
        r.handle_chunk(bad, 0);
        r.handle_chunk(t.ed.clone(), 0);
        assert_eq!(r.failed_starts(), vec![0]);
        // Retransmit with identical identifiers after resetting the group.
        r.reset_group(0);
        let mut events = Vec::new();
        for c in t.all_chunks() {
            events.extend(r.handle_chunk(c, 1));
        }
        assert!(events
            .iter()
            .any(|e| matches!(e, RxEvent::TpduDelivered { .. })));
        assert_eq!(&r.app_data()[..8], b"abcdefgh");
    }

    #[test]
    fn packets_roundtrip_through_receiver() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh12345678");
        let chunks: Vec<Chunk> = tpdus.iter().flat_map(|t| t.all_chunks()).collect();
        let packets = pack(chunks, 64).unwrap();
        let mut delivered = 0;
        for p in &packets {
            for e in r.handle_packet(p, 0) {
                if matches!(e, RxEvent::TpduDelivered { .. }) {
                    delivered += 1;
                }
            }
        }
        assert_eq!(delivered, 2);
        assert_eq!(&r.app_data()[..16], b"abcdefgh12345678");
    }

    #[test]
    fn ack_reflects_verified_prefix_and_sacks() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(&[7u8; 24]); // three TPDUs of 8
                                        // Deliver TPDU 0 and TPDU 2, skip TPDU 1.
        for t in [&tpdus[0], &tpdus[2]] {
            for c in t.all_chunks() {
                r.handle_chunk(c, 0);
            }
        }
        let ack = r.make_ack();
        assert_eq!(ack.cumulative, 8);
        assert_eq!(ack.sacks, vec![16]);
    }

    #[test]
    fn a_reset_delivered_tpdu_is_no_longer_sacked() {
        // The receiver dropped TPDU 2's verdict: advertising it would tell
        // the sender to forget data nobody holds any more.
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(&[7u8; 24]);
        for t in [&tpdus[0], &tpdus[2]] {
            for c in t.all_chunks() {
                r.handle_chunk(c, 0);
            }
        }
        r.reset_group(16);
        let ack = r.make_ack();
        assert_eq!(ack.cumulative, 8);
        assert!(ack.sacks.is_empty(), "{:?}", ack.sacks);
    }

    #[test]
    fn a_reset_group_frees_its_staging_and_its_clean_resend_is_placed() {
        // Reorder mode is the one at stake: it stages by element ahead of
        // its cursor and places everything else, verified or not. TPDU 1
        // arrives corrupted and out of order, so it is staged, and fails;
        // its reset must free that staging. TPDU 0 arrives corrupted in
        // order, is placed, and fails; by the time it is reset and resent
        // the cursor stands past it, and the resend must still replace the
        // first attempt's bytes.
        let data = b"abcdefgh12345678";
        let tpdus = framed(data);
        let flipped = |c: &Chunk| {
            let mut c = c.clone();
            let mut raw = c.payload.to_vec();
            raw[0] ^= 0x20;
            c.payload = raw.into();
            c
        };
        for mode in [
            DeliveryMode::Immediate,
            DeliveryMode::Reorder,
            DeliveryMode::Reassemble,
        ] {
            let mut r = rx(mode);
            let (t0, t1) = (&tpdus[0], &tpdus[1]);
            let (a, b) = split(&t1.chunks[0], 3).unwrap();
            for c in [flipped(&b), a, t1.ed.clone()] {
                r.handle_chunk(c, 0);
            }
            assert_eq!(r.failed_starts(), [8], "{mode:?}");
            r.reset_group(8);
            assert_eq!(r.stats.buffered_bytes, 0, "{mode:?}: reset frees staging");

            for c in [flipped(&t0.chunks[0]), t0.ed.clone()] {
                r.handle_chunk(c, 1);
            }
            let (a, b) = split(&t1.chunks[0], 5).unwrap();
            for c in [a, b, t1.ed.clone()] {
                r.handle_chunk(c, 2);
            }
            assert_eq!(r.failed_starts(), [0], "{mode:?}");
            r.reset_group(0);
            let (a, b) = split(&t0.chunks[0], 2).unwrap();
            for c in [b, a, t0.ed.clone()] {
                r.handle_chunk(c, 3);
            }

            assert_eq!(&r.app_data()[..16], data, "{mode:?}");
            assert_eq!(r.verified_prefix(), 16, "{mode:?}");
            assert_eq!(r.stats.buffered_bytes, 0, "{mode:?}");
            assert_eq!(r.stats.tpdus_failed, 2, "{mode:?}");
        }
    }

    /// The sort-and-sweep the held watermark replaces: the end of the
    /// contiguous run of delivered TPDUs from element 0.
    fn swept_prefix(r: &Receiver) -> u64 {
        let mut starts: Vec<(u64, u64)> = r.done.iter().map(|(&s, d)| (s, d.elements)).collect();
        starts.sort_unstable();
        let mut cursor = 0;
        for (s, n) in starts {
            if s > cursor {
                break;
            }
            cursor = cursor.max(s + n);
        }
        cursor
    }

    #[test]
    fn the_watermark_is_the_swept_prefix_through_deliveries_and_resets() {
        // Twelve TPDUs delivered in a scrambled order, delivered ones reset
        // (below, at and above the watermark) and delivered again.
        let tpdus = framed(&[9u8; 96]);
        let mut state = 0x9E37_79B9u64;
        let mut draw = |n: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) % n
        };
        let mut r = rx(DeliveryMode::Immediate);
        let mut lowered = 0;
        for _ in 0..400 {
            let t = &tpdus[draw(12) as usize];
            if draw(3) == 0 {
                let before = r.verified_prefix();
                r.reset_group(t.start);
                lowered += (r.verified_prefix() < before) as u32;
            } else {
                for c in t.all_chunks() {
                    r.handle_chunk(c, 0);
                }
            }
            assert_eq!(r.verified_prefix(), swept_prefix(&r));
        }
        assert!(lowered > 10, "resets below the watermark: {lowered}");
        assert_eq!(r.stats.tpdus_failed, 0);
    }

    #[test]
    fn a_ring_smaller_than_the_stream_carries_it_across_the_csn_wrap() {
        // Twenty TPDUs of 8 through a 12-element ring, each fragmented and
        // fed backwards: most land across the ring's end, and C.SN wraps.
        for mode in [
            DeliveryMode::Immediate,
            DeliveryMode::Reorder,
            DeliveryMode::Reassemble,
        ] {
            let p = ConnectionParams {
                initial_csn: u32::MAX - 50,
                ..params()
            };
            let mut r = Receiver::new(mode, p, layout(), 12);
            let data: Vec<u8> = (0..160u8).collect();
            let mut read = Vec::new();
            for t in Framer::new(p, layout()).frame_simple(&data, 0xF, false) {
                let (a, b) = split(&t.chunks[0], 3).unwrap();
                for c in [t.ed.clone(), b, a] {
                    r.handle_chunk(c, 0);
                }
                let (head, tail) = r.readable();
                let n = (head.len() + tail.len()) as u64;
                read.extend([head, tail].concat());
                r.release(n);
            }
            assert_eq!(read, data, "{mode:?}");
            assert_eq!(r.verified_prefix(), 160);
            assert_eq!(r.stats.tpdus_failed, 0);
            assert_eq!(
                r.stats.data_touches,
                [160, 160 + 5 * 20, 320][mode as usize]
            );
            assert!(r.done.is_empty(), "released records go");
            assert_eq!(r.claimed.fragments(), 0, "and their claims");
            assert!(r.make_ack().sacks.is_empty());
        }
    }

    #[test]
    fn release_stops_at_the_watermark_and_a_begun_tpdu_stays_delivered() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh12345678");
        for c in tpdus[0].all_chunks() {
            r.handle_chunk(c, 0);
        }
        r.release(3);
        assert_eq!(r.readable(), (&b"defgh"[..], &b""[..]));
        // Its first bytes are with the application: no reset takes it back.
        r.reset_group(0);
        assert_eq!(r.verified_prefix(), 8);
        r.release(100);
        assert_eq!(r.readable(), (&b""[..], &b""[..]));
        // A quiesced shell starts over at element 0 of the same labels.
        r.quiesce();
        for c in tpdus.iter().flat_map(|t| t.all_chunks()) {
            r.handle_chunk(c, 1);
        }
        assert_eq!(r.readable(), (&b"abcdefgh12345678"[..], &b""[..]));
        assert_eq!(r.stats.stale_chunks, 0);
    }

    #[test]
    fn csn_corruption_is_cross_group_consistency_failure() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(&[7u8; 16]); // two TPDUs of 8
                                        // Deliver TPDU 0 intact.
        for c in tpdus[0].all_chunks() {
            r.handle_chunk(c, 0);
        }
        // TPDU 1's chunk with corrupted C.SN pointing into TPDU 0's range
        // (misaligned, so it is not mistaken for a benign duplicate).
        let mut bad = tpdus[1].chunks[0].clone();
        bad.header.conn.sn = bad.header.conn.sn.wrapping_sub(3);
        let events = r.handle_chunk(bad, 0);
        assert!(events.iter().any(|e| matches!(
            e,
            RxEvent::TpduFailed {
                reason: FailureReason::Consistency,
                ..
            }
        )));
    }

    #[test]
    fn xsn_corruption_is_consistency_failure() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh");
        let t = &tpdus[0];
        let (a, mut b) = split(&t.chunks[0], 4).unwrap();
        b.header.ext.sn = b.header.ext.sn.wrapping_add(3);
        let mut events = r.handle_chunk(a, 0);
        events.extend(r.handle_chunk(b, 0));
        assert!(events.iter().any(|e| matches!(
            e,
            RxEvent::TpduFailed {
                reason: FailureReason::Consistency,
                ..
            }
        )));
    }

    #[test]
    fn tsn_corruption_is_reassembly_error() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh");
        let t = &tpdus[0];
        let (a, mut b) = split(&t.chunks[0], 4).unwrap();
        // Corrupt T.SN: the chunk claims a different in-TPDU position, so
        // it lands in a ghost group that never completes.
        b.header.tpdu.sn = b.header.tpdu.sn.wrapping_add(2);
        r.handle_chunk(a, 0);
        r.handle_chunk(b, 0);
        r.handle_chunk(t.ed.clone(), 0);
        let events = r.expire_incomplete();
        assert!(events.iter().any(|e| matches!(
            e,
            RxEvent::TpduFailed {
                reason: FailureReason::ReassemblyError,
                ..
            }
        )));
    }

    #[test]
    fn tid_corruption_is_ed_mismatch() {
        // The explicit T.ID is protected by the invariant; grouping does not
        // use it, so the TPDU completes and verification catches it.
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh");
        let t = &tpdus[0];
        let mut bad = t.chunks[0].clone();
        bad.header.tpdu.id ^= 0x55;
        let mut events = r.handle_chunk(bad, 0);
        events.extend(r.handle_chunk(t.ed.clone(), 0));
        assert!(events.iter().any(|e| matches!(
            e,
            RxEvent::TpduFailed {
                reason: FailureReason::EdMismatch,
                ..
            }
        )));
    }

    #[test]
    fn connection_close_event() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = Framer::new(params(), layout()).frame_simple(b"abcdefgh", 0xF, true);
        let mut events = Vec::new();
        for c in tpdus[0].all_chunks() {
            events.extend(r.handle_chunk(c, 0));
        }
        assert!(events.contains(&RxEvent::ConnectionClosed));
        assert!(r.is_closed());
    }

    #[test]
    fn wrong_elem_size_rejected() {
        let mut r = rx(DeliveryMode::Immediate);
        let tpdus = framed(b"abcdefgh");
        let mut bad = tpdus[0].chunks[0].clone();
        bad.header.size = 2;
        bad.header.len = 4;
        let events = r.handle_chunk(bad, 0);
        assert!(events.iter().any(|e| matches!(
            e,
            RxEvent::TpduFailed {
                reason: FailureReason::BadChunk,
                ..
            }
        )));
    }

    #[test]
    fn incomplete_groups_expire_in_start_order_whatever_the_arrival_order() {
        // Five TPDUs, each missing its last fragment, opened out of order:
        // two receivers fed the same chunks report the same failures,
        // ascending by start.
        let tpdus = framed(&[3u8; 40]);
        let expire = || {
            let mut r = rx(DeliveryMode::Reassemble);
            for i in [3, 0, 4, 1, 2] {
                r.handle_chunk(split(&tpdus[i].chunks[0], 5).unwrap().0, 0);
            }
            r.expire_incomplete()
        };
        let (a, b) = (expire(), expire());
        assert_eq!(a, b);
        let starts: Vec<u64> = a
            .iter()
            .map(|e| match e {
                RxEvent::TpduFailed { start, .. } => *start,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_eq!(starts, [0, 8, 16, 24, 32]);
    }
}
