//! Order-free parallel receive pipeline.
//!
//! The paper's data-labelling argument (§3.3) is that self-describing chunks
//! can be processed *the moment they arrive*, in *any* order — which means
//! they can also be processed *anywhere*: a chunk's labels carry everything a
//! processing unit needs, so arriving chunks can be fanned out across
//! parallel workers with no shared reassembly state. This module builds that
//! pipeline and keeps it provably equivalent to the serial
//! [`ConnectionDemux`](crate::mux::ConnectionDemux) path:
//!
//! * **Dispatch** — [`ParallelReceiver::ingest`] walks a packet and routes
//!   each chunk with the serial demux's code: the same walk (one malformed
//!   chunk rejects the whole packet) and the same `TYPE` match, which counts
//!   `routed` and decodes acks and signals. Each data/ED span is staged for
//!   the worker chosen by hashing the chunk's **connection label**
//!   (`C.ID`), as a zero-copy [`bytes::Bytes`] slice of the arriving packet
//!   carrying its dispatch stamp. A data chunk's payload is read once here:
//!   the dispatcher computes its position-free WSC-2 fold `(Σ dᵢ, Σ αⁱ·dᵢ)`
//!   ([`chunks_gf::fold_elements`]), which depends on the bytes alone, and
//!   the work item carries it, so the worker only weights it by its
//!   position (`α^pos`, the half that needs connection state) and places
//!   the bytes — the stateless half of the byte work runs ahead of the
//!   stateful half, on another core. The fold is of the same immutable
//!   bytes the worker places, and the worker's receiver decides, as on the
//!   serial path, whether any of it is absorbed at all: a chunk it rejects
//!   or cuts into pieces is handled exactly as there (pieces are folded
//!   again, in place). The dispatcher keeps no connection table: whether a
//!   `C.ID` is live is decided at the worker, by its shard's [`ConnTable`]
//!   — the only `C.ID` table — and a miss becomes an `UnknownConnection`
//!   control event under that stamp.
//! * **Handoff** — what crosses to a worker is a **batch**, never a lone
//!   chunk: every entry point (`ingest`, `ingest_batch`, `admit`, `retire`,
//!   `reset_group`, `reserve`, `sync`) stages its work per shard and, before
//!   it returns, hands each shard that received any one batch holding that
//!   work in call order. A shard's queue is a FIFO of batches, so the
//!   sequence of items a shard sees is exactly the sequence the calls
//!   produced, and once a call has returned everything it queued is on its
//!   shard's FIFO.
//! * **Workers** — each worker owns the full [`Receiver`] state for the
//!   connections hashed to it and processes its batches, and the items in
//!   each, in FIFO order. Because *every* chunk of a connection lands on the
//!   same worker, the per-connection arrival order is preserved, and each
//!   receiver behaves bit-identically to the serial path — for any worker
//!   count, any cross-worker interleaving and any batch boundaries: a
//!   boundary decides when an item crosses, never where it stands in its
//!   shard's sequence. That is the equivalence argument the differential
//!   harness (`tests/parallel_differential.rs`) checks mechanically.
//! * **Merge** — [`ParallelReceiver::finish`] moves each worker's receivers
//!   out (no payload byte is ever buffered twice), folds the per-worker
//!   delivery transcripts ([`Wsc2Stream::fold`] — parities are sums, so the
//!   fold is order-independent), and interleaves the dispatcher's and the
//!   workers' control events back into global arrival order using the
//!   dispatch stamps.
//!
//! Two engines run the same worker code behind the same staging and flush:
//!
//! * [`Engine::Threads`] — one OS thread per worker behind a bounded queue
//!   of batches; the real pipeline, used for throughput measurements. A
//!   flush blocks while the shard's queue is full, which is the pipeline's
//!   backpressure. The worker runs a batch and sends the emptied buffer
//!   back over a second bounded channel that neither side ever blocks on;
//!   the dispatcher fills it again, so a fixed pool of buffers circulates
//!   and the steady state allocates on neither thread.
//! * [`Engine::Virtual`] — single-threaded, with a deterministic
//!   [`Schedule`] choosing which worker's queue advances next. A flush
//!   appends the staged items to the shard's item queue, so scheduling
//!   stays per item. Adversarial schedules (reverse, seeded-random,
//!   starvation) let tests *prove* that worker interleaving cannot change
//!   any observable outcome.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use bytes::Bytes;
use chunks_core::label::ChunkType;
use chunks_core::packet::Packet;
use chunks_core::wire::decode_chunk_ref;
use chunks_core::WIRE_HEADER_LEN;
use chunks_gf::Gf32;
use chunks_obs::{Event, HotCounter, Labels, ObsSink, ShardSink, SpanId, Stage};
use chunks_vreasm::OverlapPolicy;
use chunks_wsc::{InvariantLayout, Wsc2Stream};

use crate::ack::AckInfo;
use crate::budget::ResourceBudget;
use crate::conn::{ConnectionParams, Signal};
use crate::mux::{route, Route};
use crate::receiver::{
    chunk_walk, labels_of, observe_decoded, DeliveryMode, Receiver, RxEvent, WireChunk,
};
use crate::table::{ConnTable, TableConfig};

/// Depth of each worker's bounded work queue (threads engine), in batches.
/// A flush blocks when a queue is full — backpressure instead of unbounded
/// buffering. A batch is what one entry call staged for the shard, so with
/// the callers' usual 32-packet `ingest_batch` the bound on in-flight work
/// is one to two thousand chunks.
const WORK_QUEUE_DEPTH: usize = 32;

/// Batch buffers that circulate per worker (threads engine): a full queue,
/// the batch the worker is running, and the one the dispatcher is filling.
const BATCH_POOL: usize = WORK_QUEUE_DEPTH + 2;

/// Chooses the worker that owns connection `conn_id`.
///
/// Fibonacci multiplicative hashing: sequential connection ids (the common
/// allocation pattern) spread evenly across workers instead of clumping the
/// way `id % workers` would under strided id assignment.
pub fn shard_of(conn_id: u32, workers: usize) -> usize {
    assert!(workers > 0, "at least one worker");
    (((conn_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % workers as u64) as usize
}

/// How the pipeline executes its workers.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Engine {
    /// One OS thread per worker, bounded SPSC queues of batches.
    Threads,
    /// Single-threaded deterministic simulation: queued work is drained
    /// under the given worker-interleaving schedule. Same worker code, fully
    /// reproducible — the engine the equivalence proofs run on.
    Virtual(Schedule),
}

/// Deterministic worker-interleaving schedules for [`Engine::Virtual`].
///
/// A schedule only decides *which worker's queue advances next*; it can
/// never reorder one worker's queue. The schedule tests assert that every
/// variant below produces identical observable outcomes.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Schedule {
    /// Round-robin, one work item per turn.
    Fair,
    /// Round-robin walking worker indices downward.
    Reverse,
    /// Seeded LCG picks a random non-empty worker each step.
    Seeded(u64),
    /// Cycles through an explicit worker ordering (indices may repeat —
    /// repeating a worker gives it longer bursts).
    Rotation(Vec<usize>),
    /// The named worker is starved: it runs only once every other worker's
    /// queue is empty.
    Starve(usize),
}

/// Everything needed to register one connection with the pipeline.
#[derive(Clone, Debug)]
pub struct ConnSpec {
    /// Connection parameters (id, element size, initial `C.SN`).
    pub params: ConnectionParams,
    /// Invariant layout shared with the sender.
    pub layout: InvariantLayout,
    /// Receive-side delivery strategy.
    pub mode: DeliveryMode,
    /// Application address space capacity, in elements.
    pub capacity_elements: u64,
    /// What the connection's receiver does when a fragment overlaps
    /// already-held positions with differing bytes.
    pub policy: OverlapPolicy,
    /// Memory budget for the connection's receiver. Give every spec a clone
    /// of a [`ResourceBudget::with_global`] budget to cap the whole
    /// pipeline's held bytes across workers.
    pub budget: ResourceBudget,
}

impl ConnSpec {
    /// Spec with the default overlap policy and an unlimited budget.
    pub fn new(
        params: ConnectionParams,
        layout: InvariantLayout,
        mode: DeliveryMode,
        capacity_elements: u64,
    ) -> Self {
        ConnSpec {
            params,
            layout,
            mode,
            capacity_elements,
            policy: OverlapPolicy::default(),
            budget: ResourceBudget::default(),
        }
    }

    /// Sets the overlap policy.
    pub fn with_policy(mut self, policy: OverlapPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the resource budget.
    pub fn with_budget(mut self, budget: ResourceBudget) -> Self {
        self.budget = budget;
        self
    }

    /// A receiver built to this spec, recording through `sink`.
    fn receiver(&self, sink: Arc<dyn ObsSink>) -> Receiver {
        Receiver::new(self.mode, self.params, self.layout, self.capacity_elements)
            .with_policy(self.policy)
            .with_budget(self.budget.clone())
            .with_obs(sink)
    }
}

/// A control-plane event, from the dispatcher or a worker, stamped with its
/// chunk's global arrival order so the merge stage can interleave them all
/// back into one deterministic sequence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ControlEvent {
    /// Global dispatch order (one stamp per chunk, across all packets).
    pub stamp: u64,
    /// What arrived.
    pub kind: ControlKind,
}

/// The control-plane event kinds: acks and signals, which the dispatcher
/// surfaces directly, and data/ED chunks no worker has a receiver for
/// (the rest flow to workers and surface as [`RxEvent`]s).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ControlKind {
    /// An acknowledgment for a connection we send on.
    Ack {
        /// The acknowledged connection.
        conn_id: u32,
        /// The acknowledgment.
        ack: AckInfo,
    },
    /// A connection signal.
    Signal(Signal),
    /// A data/ED chunk referenced a connection its worker shard's table
    /// does not hold.
    UnknownConnection {
        /// The unknown `C.ID`.
        conn_id: u32,
    },
}

/// Dispatch-stage counters.
///
/// Like [`ReliabilityStats`](crate::session::ReliabilityStats), the field
/// names track the `chunks-obs` metrics catalogue (`transport.parallel.*`);
/// [`Self::as_metrics`] yields the catalogued pairs.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct DispatchStats {
    /// Packets ingested.
    pub packets: u64,
    /// Packets rejected whole (malformed chunk sequence), mirroring the
    /// serial `unpack` contract.
    pub bad_packets: u64,
    /// Chunks routed, by wire type byte — same accounting as
    /// [`ConnectionDemux::routed`](crate::mux::ConnectionDemux).
    pub routed: [u64; 5],
    /// Data/ED spans handed to workers, known connection or not: those the
    /// workers' tables miss become unknown-connection events.
    pub chunks_dispatched: u64,
    /// Worker-side decode failures (spans are pre-validated, so this stays
    /// zero unless memory is corrupted between stages).
    pub decode_errors: u64,
}

impl DispatchStats {
    /// The counters as `(catalogue name, value)` pairs, named exactly as
    /// the `chunks-obs` registry exports them. `routed` and `decode_errors`
    /// have no registry twin (the former is a per-TYPE array, the latter is
    /// a cannot-happen guard).
    pub fn as_metrics(&self) -> [(&'static str, u64); 3] {
        [
            ("transport.parallel.packets", self.packets),
            ("transport.parallel.bad_packets", self.bad_packets),
            (
                "transport.parallel.chunks_dispatched",
                self.chunks_dispatched,
            ),
        ]
    }
}

/// Wall-clock spent in the worker and merge stages. Dispatch is timed by
/// the caller around its own `ingest` calls.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Busiest single worker — the pipeline's critical path.
    pub process_max_ns: u64,
    /// Time in the merge stage of [`ParallelReceiver::finish`].
    pub merge_ns: u64,
}

/// Per-connection result assembled by the merge stage. The receiver (and
/// with it the application address space) is *moved* out of its worker —
/// delivered payload bytes are never copied again.
#[derive(Debug)]
pub struct ConnReport {
    /// The worker that owned this connection.
    pub worker: usize,
    /// Every [`RxEvent`] the connection's receiver emitted, in
    /// per-connection arrival order.
    pub events: Vec<RxEvent>,
    /// The connection's final acknowledgment state.
    pub ack: AckInfo,
    /// The receiver itself, final state intact (application data,
    /// statistics, delivered digests).
    pub receiver: Receiver,
}

/// The merged output of the whole pipeline.
#[derive(Debug)]
pub struct ParallelOutcome {
    /// Per-connection reports, keyed by `C.ID`.
    pub conns: BTreeMap<u32, ConnReport>,
    /// Control events in global arrival (stamp) order.
    pub control: Vec<ControlEvent>,
    /// Digest of the session delivery transcript: the XOR-fold of every
    /// delivered TPDU's verified WSC-2 code, across all workers. Equal for
    /// any worker count and schedule iff the pipelines delivered the same
    /// verified TPDUs.
    pub transcript_digest: [u8; 8],
    /// Dispatch-stage counters.
    pub dispatch: DispatchStats,
    /// Per-stage wall-clock.
    pub timings: StageTimings,
    /// Data/ED chunks processed per worker (shard balance).
    pub worker_chunks: Vec<u64>,
}

/// What crosses to a shard in one message: the work one entry call staged
/// for it, in call order.
type Batch = Vec<Work>;

/// One unit of work in a [`Batch`]: a chunk, or one of the rarer control
/// items. Kept in two layers so that the control items' tag hides in the
/// chunk's span (a pointer that is never null), and a queued chunk pays
/// for no tag of its own.
enum Work {
    /// A data/ED chunk span, zero-copy slice of the arriving packet, with
    /// its dispatch stamp and, for a data chunk, its payload's WSC-2 fold
    /// (an ED chunk's is zero, and unread).
    Chunk {
        raw: Bytes,
        now: u64,
        stamp: u64,
        fold: (Gf32, Gf32),
    },
    /// Anything but a chunk.
    Control(Control),
}

/// The control items a [`Batch`] carries among its chunks.
enum Control {
    /// Clear a failed/incomplete group so a retransmission verifies afresh.
    Reset { conn_id: u32, start: u64 },
    /// Pre-size every owned receiver (and the worker's event buffers) for
    /// an expected load, so the steady state that follows allocates nothing.
    Reserve { tpdus: usize, fragments: usize },
    /// Admit a connection mid-stream: the owning worker re-arms a pooled
    /// shell (or builds a fresh receiver) in its connection table. Ordered
    /// with the connection's chunks — it travels the same FIFO. Boxed: the
    /// spec is the rarest and by far the largest payload, and every queued
    /// chunk would otherwise pay for its size.
    Admit { spec: Box<ConnSpec>, now: u64 },
    /// Retire a connection mid-stream: the owning worker quiesces its
    /// receiver into the shell pool.
    Retire { conn_id: u32, now: u64 },
    /// Barrier: reply with per-connection snapshots (threads engine).
    Sync(mpsc::Sender<Vec<SyncSnapshot>>),
}

/// Mid-stream state of one connection, taken at a [`ParallelReceiver::sync`]
/// barrier — everything a closed-loop sender needs to keep the transfer
/// moving (acknowledgment to return, failed groups to clear and repair).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SyncSnapshot {
    /// The connection.
    pub conn_id: u32,
    /// Its current acknowledgment.
    pub ack: AckInfo,
    /// Starts of groups that failed verification and await a reset +
    /// retransmission.
    pub failed: Vec<u64>,
}

/// A worker's whole state: the receivers it owns plus its slice of the
/// eventual merge inputs.
struct Shard {
    index: usize,
    /// The worker's slice of the connection table: open-addressed, pooled
    /// shells, same lifecycle as the serial demux's table. The pipeline's
    /// only `C.ID` table: a chunk it does not hold is an unknown connection.
    receivers: ConnTable,
    events: HashMap<u32, Vec<RxEvent>>,
    /// Unknown-connection events, under their chunks' dispatch stamps.
    control: Vec<ControlEvent>,
    /// XOR-fold of verified TPDU codes delivered by this worker.
    transcript: Wsc2Stream,
    chunks: u64,
    decode_errors: u64,
    busy_ns: u64,
    /// Observability sink (no-op by default). When the pipeline's sink
    /// exposes per-worker shard blocks ([`ObsSink::worker_shard`]), this is
    /// the worker's private [`ShardSink`] facade: counters are plain
    /// owner-writes, folded into the root at flush barriers.
    obs: Arc<dyn ObsSink>,
    /// Cached `obs.enabled() && obs.verbose()`: gates the per-chunk decode
    /// trace events.
    obs_verbose: bool,
}

impl Shard {
    fn new(index: usize, obs: Arc<dyn ObsSink>) -> Self {
        let obs = ShardSink::wrap(obs);
        let obs_verbose = obs.enabled() && obs.verbose();
        let mut receivers = ConnTable::new(TableConfig::default());
        receivers.set_obs(obs.clone());
        Shard {
            index,
            receivers,
            events: HashMap::new(),
            control: Vec::new(),
            transcript: Wsc2Stream::new(),
            chunks: 0,
            decode_errors: 0,
            busy_ns: 0,
            obs,
            obs_verbose,
        }
    }

    /// Runs `items` in order under one clock reading pair: a whole batch on
    /// the threads engine, one scheduled item on the virtual engine.
    fn run(&mut self, items: impl Iterator<Item = Work>) {
        let started = Instant::now();
        for work in items {
            self.process(work);
        }
        self.busy_ns += started.elapsed().as_nanos() as u64;
    }

    /// Processes one work item. Identical code under both engines — the
    /// engines differ only in *when* this runs, never in what it does.
    fn process(&mut self, work: Work) {
        match work {
            Work::Chunk {
                raw,
                now,
                stamp,
                fold,
            } => {
                // The label is decoded from the dispatched span (itself a
                // slice of the arriving packet) and the payload is read in
                // place there.
                let Ok((c, end)) = decode_chunk_ref(&raw) else {
                    // Unreachable through `ingest`: dispatch only sends
                    // spans of a validated packet.
                    self.decode_errors += 1;
                    return;
                };
                let header = c.header;
                let conn_id = header.conn.id;
                let Some(rx) = self.receivers.lookup(conn_id, now) else {
                    self.obs.counter("transport.parallel.unknown_connection", 1);
                    self.control.push(ControlEvent {
                        stamp,
                        kind: ControlKind::UnknownConnection { conn_id },
                    });
                    return;
                };
                if self.obs_verbose {
                    observe_decoded(&*self.obs, now, &header, c.payload.len());
                }
                self.chunks += 1;
                // Events append straight into the connection's merge buffer;
                // the freshly-appended tail is then scanned for deliveries
                // to fold into the worker transcript. No per-chunk Vec.
                let events = self.events.entry(conn_id).or_default();
                let before = events.len();
                let chunk = WireChunk {
                    header,
                    bytes: &raw,
                    span: WIRE_HEADER_LEN..end,
                    fold: Some(fold),
                };
                rx.handle_wire_into(chunk, now, events);
                for event in &events[before..] {
                    if let RxEvent::TpduDelivered { start, .. } = event {
                        if let Some(code) = rx.delivered_code(*start) {
                            self.transcript.fold_code(&code);
                        }
                    }
                }
            }
            Work::Control(Control::Reset { conn_id, start }) => {
                if let Some(rx) = self.receivers.get_mut(conn_id) {
                    rx.reset_group(start);
                }
            }
            Work::Control(Control::Reserve { tpdus, fragments }) => {
                for (id, rx) in self.receivers.iter_mut() {
                    rx.reserve(tpdus, fragments);
                    // Deliveries dominate the event stream: one TpduDelivered
                    // per TPDU plus occasional control events; 2× covers the
                    // measurement windows the alloc gate drives.
                    self.events.entry(id).or_default().reserve(tpdus * 2);
                }
            }
            Work::Control(Control::Admit { spec, now }) => {
                let sink = self.obs.clone();
                self.receivers.admit(
                    spec.params,
                    now,
                    || spec.receiver(sink),
                    |rx| {
                        // A pooled shell keeps mode/layout/capacity; policy
                        // and budget are per-connection, so re-apply them
                        // (neither setter allocates).
                        rx.set_policy(spec.policy);
                        rx.set_budget(spec.budget.clone());
                    },
                );
            }
            Work::Control(Control::Retire { conn_id, now }) => {
                self.receivers.retire(conn_id, now);
            }
            Work::Control(Control::Sync(reply)) => {
                let snapshots = self.snapshots();
                // The barrier caller may have hung up; nothing to do then.
                let _ = reply.send(snapshots);
            }
        }
    }

    fn snapshots(&self) -> Vec<SyncSnapshot> {
        let mut v: Vec<SyncSnapshot> = self
            .receivers
            .iter()
            .map(|(id, rx)| SyncSnapshot {
                conn_id: id,
                ack: rx.make_ack(),
                failed: rx.failed_starts(),
            })
            .collect();
        v.sort_unstable_by_key(|s| s.conn_id);
        v
    }
}

/// Deterministic worker picker for [`Engine::Virtual`].
struct Picker {
    schedule: Schedule,
    cursor: usize,
    lcg: u64,
    rotation_at: usize,
}

impl Picker {
    fn new(schedule: Schedule) -> Self {
        let lcg = match schedule {
            Schedule::Seeded(seed) => seed ^ 0x9E37_79B9_7F4A_7C15,
            _ => 0,
        };
        Picker {
            schedule,
            cursor: 0,
            lcg,
            rotation_at: 0,
        }
    }

    /// Picks the next worker with pending work, or `None` when all queues
    /// are empty.
    ///
    /// Runs once per drained work item, so every schedule selects by
    /// positional scan: no candidate list is materialised. Each arm picks
    /// exactly the worker the old collect-then-index implementation picked
    /// (the index-`k` entry of the ascending non-empty list is the `k`-th
    /// non-empty queue in index order).
    fn next(&mut self, queues: &[VecDeque<Work>]) -> Option<usize> {
        let n = queues.len();
        let nonempty = queues.iter().filter(|q| !q.is_empty()).count();
        if nonempty == 0 {
            return None;
        }
        let kth_nonempty = |k: usize, skip: Option<usize>| -> usize {
            queues
                .iter()
                .enumerate()
                .filter(|&(i, q)| Some(i) != skip && !q.is_empty())
                .nth(k)
                .map(|(i, _)| i)
                .expect("k-th non-empty queue exists")
        };
        let pick = match &self.schedule {
            Schedule::Fair => {
                let chosen = (0..n)
                    .map(|k| (self.cursor + k) % n)
                    .find(|&i| !queues[i].is_empty())
                    .expect("some queue is non-empty");
                self.cursor = (chosen + 1) % n;
                chosen
            }
            Schedule::Reverse => {
                let chosen = (0..n)
                    .map(|k| (self.cursor + n - k % n) % n)
                    .find(|&i| !queues[i].is_empty())
                    .expect("some queue is non-empty");
                self.cursor = (chosen + n - 1) % n;
                chosen
            }
            Schedule::Seeded(_) => {
                self.lcg = self
                    .lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                kth_nonempty(((self.lcg >> 33) as usize) % nonempty, None)
            }
            Schedule::Rotation(order) => {
                assert!(!order.is_empty(), "rotation order must name a worker");
                let mut chosen = None;
                for _ in 0..order.len() {
                    let cand = order[self.rotation_at % order.len()];
                    self.rotation_at += 1;
                    assert!(cand < n, "rotation names worker {cand} of {n}");
                    if !queues[cand].is_empty() {
                        chosen = Some(cand);
                        break;
                    }
                }
                // Every worker in the order is empty but some queue is not:
                // the order must cover all workers with work, so fall back
                // to the first non-empty to guarantee progress.
                chosen.unwrap_or_else(|| kth_nonempty(0, None))
            }
            Schedule::Starve(victim) => {
                let others = if queues[*victim].is_empty() {
                    nonempty
                } else {
                    nonempty - 1
                };
                if others == 0 {
                    *victim
                } else {
                    let chosen = kth_nonempty(self.cursor % others, Some(*victim));
                    self.cursor += 1;
                    chosen
                }
            }
        };
        Some(pick)
    }
}

/// Engine-specific runtime state.
enum Runtime {
    Threads {
        /// Per worker, the bounded FIFO of batches.
        work: Vec<mpsc::SyncSender<Batch>>,
        /// Per worker, emptied batch buffers on their way back from it.
        spare: Vec<mpsc::Receiver<Batch>>,
        handles: Vec<JoinHandle<Shard>>,
    },
    Virtual {
        picker: Picker,
        shards: Vec<Shard>,
        queues: Vec<VecDeque<Work>>,
    },
}

/// The shard-per-worker parallel receive pipeline. See the module docs for
/// the three stages and the equivalence argument.
pub struct ParallelReceiver {
    workers: usize,
    runtime: Runtime,
    /// Per worker, the work the current entry call has queued so far. Every
    /// public entry flushes before it returns, so these are empty between
    /// calls (and on entry to [`Self::drain`] and [`Self::finish`], which
    /// queue nothing themselves).
    staged: Vec<Batch>,
    dispatch: DispatchStats,
    /// Global chunk arrival counter; stamps control events so the merge can
    /// restore one deterministic order.
    stamp: u64,
    /// The acks and signals dispatch decoded, under their stamps.
    control: Vec<ControlEvent>,
    /// Observability sink (no-op by default).
    obs: Arc<dyn ObsSink>,
    /// Cached `obs.enabled()` so the disabled path costs one branch.
    obs_on: bool,
    /// Cached `obs.enabled() && obs.verbose()`: gates per-chunk dispatch
    /// events and merge-queue spans, which an always-on sink declines.
    obs_verbose: bool,
    /// Last `now` seen by [`Self::ingest`], used to stamp merge-stage events
    /// (the merge has no clock of its own).
    last_now: u64,
    /// Labels of data/ED chunks with an open `merge-queue` span (dispatched
    /// but not yet folded). Populated only when `obs_on`.
    merge_open: Vec<Labels>,
    /// Pre-resolved per-packet counter handle (label→cell looked up once at
    /// construction, owner-writes stores per packet).
    hot_packets: HotCounter,
    /// Pre-resolved per-chunk counter handle for dispatched data/ED chunks.
    hot_chunks_dispatched: HotCounter,
}

impl std::fmt::Debug for ParallelReceiver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParallelReceiver")
            .field("workers", &self.workers)
            .field("dispatch", &self.dispatch)
            .finish_non_exhaustive()
    }
}

impl ParallelReceiver {
    /// Builds the pipeline with `workers` workers and registers every
    /// connection in `conns`, each on the worker [`shard_of`] names.
    pub fn new(workers: usize, engine: Engine, conns: Vec<ConnSpec>) -> Self {
        Self::new_with_obs(workers, engine, conns, chunks_obs::null())
    }

    /// Like [`Self::new`], with an observability sink shared by the
    /// dispatcher, every worker, and every per-connection receiver. The sink
    /// must be chosen at construction time because the threads engine spawns
    /// its workers here.
    pub fn new_with_obs(
        workers: usize,
        engine: Engine,
        conns: Vec<ConnSpec>,
        sink: Arc<dyn ObsSink>,
    ) -> Self {
        assert!(workers > 0, "at least one worker");
        // The dispatcher records through its own shard facade as well (the
        // wrap is the identity for sinks without shard blocks), so per-packet
        // dispatch counters are plain owner-writes just like worker counters.
        let sink = ShardSink::wrap(sink);
        let obs_on = sink.enabled();
        let obs_verbose = obs_on && sink.verbose();
        let mut shards: Vec<Shard> = (0..workers).map(|i| Shard::new(i, sink.clone())).collect();
        for spec in conns {
            let conn_id = spec.params.conn_id;
            let shard = &mut shards[shard_of(conn_id, workers)];
            // The receiver records through its owning worker's shard facade,
            // so its hot-path counters are plain owner-writes too.
            let rx = spec.receiver(shard.obs.clone());
            shard.receivers.insert(conn_id, rx, 0);
        }
        let runtime = match engine {
            Engine::Threads => {
                let mut work = Vec::with_capacity(workers);
                let mut spare = Vec::with_capacity(workers);
                let mut handles = Vec::with_capacity(workers);
                for mut shard in shards {
                    let (work_tx, work_rx) = mpsc::sync_channel::<Batch>(WORK_QUEUE_DEPTH);
                    let (spare_tx, spare_rx) = mpsc::sync_channel::<Batch>(BATCH_POOL);
                    // The whole pool starts out spare (empty buffers own no
                    // heap), so the steady state never makes a new one.
                    for _ in 0..BATCH_POOL {
                        let _ = spare_tx.try_send(Batch::new());
                    }
                    work.push(work_tx);
                    spare.push(spare_rx);
                    handles.push(std::thread::spawn(move || {
                        while let Ok(mut batch) = work_rx.recv() {
                            shard.run(batch.drain(..));
                            // Never a blocking send: the dispatcher may be
                            // blocked on this worker's full queue, and the
                            // two would wait on each other. A buffer that
                            // does not fit is simply dropped.
                            let _ = spare_tx.try_send(batch);
                        }
                        shard
                    }));
                }
                Runtime::Threads {
                    work,
                    spare,
                    handles,
                }
            }
            Engine::Virtual(schedule) => Runtime::Virtual {
                picker: Picker::new(schedule),
                shards,
                queues: (0..workers).map(|_| VecDeque::new()).collect(),
            },
        };
        let hot_packets = sink.hot_counter("transport.parallel.packets");
        let hot_chunks_dispatched = sink.hot_counter("transport.parallel.chunks_dispatched");
        ParallelReceiver {
            workers,
            runtime,
            staged: (0..workers).map(|_| Batch::new()).collect(),
            dispatch: DispatchStats::default(),
            stamp: 0,
            control: Vec::new(),
            obs: sink,
            obs_on,
            obs_verbose,
            last_now: 0,
            merge_open: Vec::new(),
            hot_packets,
            hot_chunks_dispatched,
        }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Ingests one arriving packet at time `now`: validates the chunk
    /// sequence exactly like the serial `unpack` (a single malformed chunk
    /// rejects the whole packet), then routes each span.
    pub fn ingest(&mut self, packet: &Packet, now: u64) {
        self.ingest_inner(packet, now);
        self.flush();
        if self.obs_on {
            self.obs.clock_advance(now);
        }
    }

    /// Ingests a batch of packets arriving at the same virtual time.
    pub fn ingest_batch(&mut self, packets: &[Packet], now: u64) {
        for packet in packets {
            self.ingest_inner(packet, now);
        }
        self.flush();
        // The whole batch arrived at one virtual instant, so the sink's
        // shared clock advances once per batch — not one fetch_max RMW
        // per packet on the dispatch hot path.
        if self.obs_on && !packets.is_empty() {
            self.obs.clock_advance(now);
        }
    }

    /// Pre-sizes every worker's receivers ([`Receiver::reserve`]) and event
    /// buffers for an expected load of `tpdus` TPDUs and `fragments` tracked
    /// fragment runs; open-group tables grow to their connections' open
    /// high-water instead. Travels the work queues like any other item, so
    /// it is ordered with the data.
    pub fn reserve(&mut self, tpdus: usize, fragments: usize) {
        for worker in 0..self.workers {
            self.stage(worker, Work::Control(Control::Reserve { tpdus, fragments }));
        }
        self.flush();
    }

    fn ingest_inner(&mut self, packet: &Packet, now: u64) {
        self.last_now = now;
        self.dispatch.packets += 1;
        if self.obs_on {
            self.hot_packets.add(&*self.obs, 1);
        }
        let Ok(walk) = chunk_walk(packet) else {
            self.dispatch.bad_packets += 1;
            if self.obs_on {
                self.obs.counter("transport.parallel.bad_packets", 1);
            }
            return;
        };
        for chunk in walk {
            let stamp = self.stamp;
            self.stamp += 1;
            let kind = match route(chunk, &mut self.dispatch.routed) {
                Some(Route::Conn(chunk)) => {
                    self.dispatch_chunk(chunk, stamp, now);
                    continue;
                }
                Some(Route::Ack { conn_id, ack }) => ControlKind::Ack { conn_id, ack },
                Some(Route::Signal(s)) => ControlKind::Signal(s),
                None => continue,
            };
            self.control.push(ControlEvent { stamp, kind });
        }
    }

    /// Stages a data/ED chunk for the worker [`shard_of`] names, whether or
    /// not that worker holds its connection: the worker's table decides.
    fn dispatch_chunk(&mut self, chunk: WireChunk<'_>, stamp: u64, now: u64) {
        let worker = shard_of(chunk.header.conn.id, self.workers);
        self.dispatch.chunks_dispatched += 1;
        if self.obs_on {
            self.hot_chunks_dispatched.add(&*self.obs, 1);
        }
        if self.obs_verbose {
            let labels = labels_of(&chunk.header);
            self.obs.event(
                now,
                Event::ShardDispatched {
                    labels,
                    worker: worker as u32,
                },
            );
            // The chunk now sits between dispatch and merge: open its
            // merge-queue span, closed at `finish`.
            self.obs
                .span_open(now, SpanId::new(labels, Stage::MergeQueue));
            self.merge_open.push(labels);
        }
        // The stateless half of the chunk's WSC-2 work: the fold depends on
        // the payload bytes alone, so it is done here, where the walk has
        // just read the label in front of them.
        let fold = match chunk.header.ty {
            ChunkType::Data => {
                chunks_gf::fold_elements(chunk.header.size as usize, chunk.payload())
            }
            _ => Default::default(),
        };
        let raw = chunk.wire();
        self.stage(
            worker,
            Work::Chunk {
                raw,
                now,
                stamp,
                fold,
            },
        );
    }

    /// Admits a connection mid-stream: queues the admission on the worker
    /// [`shard_of`] names, which re-arms a pooled shell when one is free, so
    /// steady-state churn builds no receiver. Ordered with the connection's
    /// chunks: chunks dispatched after this call find the receiver live.
    pub fn admit(&mut self, spec: ConnSpec, now: u64) {
        let worker = shard_of(spec.params.conn_id, self.workers);
        let spec = Box::new(spec);
        self.stage(worker, Work::Control(Control::Admit { spec, now }));
        self.flush();
    }

    /// Retires a connection mid-stream: queues the retirement, and the
    /// owning worker quiesces the receiver into its shell pool (a
    /// connection it does not hold is left alone). Ordered with the
    /// connection's chunks: those dispatched after this call surface as
    /// `UnknownConnection` control events.
    pub fn retire(&mut self, conn_id: u32, now: u64) {
        let worker = shard_of(conn_id, self.workers);
        self.stage(worker, Work::Control(Control::Retire { conn_id, now }));
        self.flush();
    }

    /// Clears a failed/incomplete group on `conn_id` so a retransmission
    /// (identical identifiers, §3.3) verifies afresh. Ordered with the
    /// connection's chunks: the reset travels the same FIFO.
    pub fn reset_group(&mut self, conn_id: u32, start: u64) {
        self.stage(
            shard_of(conn_id, self.workers),
            Work::Control(Control::Reset { conn_id, start }),
        );
        self.flush();
    }

    /// Queues `work` for `worker`. Nothing crosses to the shard until
    /// [`Self::flush`].
    fn stage(&mut self, worker: usize, work: Work) {
        self.staged[worker].push(work);
        if self.obs_verbose {
            if let Runtime::Virtual { queues, .. } = &self.runtime {
                // Queue depth is only observable on the virtual engine: the
                // threads engine's queues hold batches and hide their
                // length. What is staged is already behind what is queued,
                // so the depth after this item counts both. Per-item
                // histogram pressure is verbose-tier cost; the always-on
                // health surface reads depth at barriers.
                self.obs.observe(
                    "transport.parallel.queue_depth",
                    (queues[worker].len() + self.staged[worker].len()) as u64,
                );
            }
        }
    }

    /// Hands each shard what was staged for it, in staging order: one
    /// message per shard that has work on the threads engine, an append to
    /// the shard's item queue on the virtual engine.
    fn flush(&mut self) {
        for (worker, staged) in self.staged.iter_mut().enumerate() {
            if staged.is_empty() {
                continue;
            }
            match &mut self.runtime {
                Runtime::Threads { work, spare, .. } => {
                    // Blocks while the queue is full: backpressure. A send
                    // can only fail if the worker panicked; surface that at
                    // join time, not here.
                    let _ = work[worker].send(std::mem::take(staged));
                    // With the batch sent, at most `WORK_QUEUE_DEPTH + 1`
                    // of the pool's buffers are queued or running, so one
                    // is back already; were it not, a fresh one serves.
                    *staged = spare[worker].try_recv().unwrap_or_default();
                }
                Runtime::Virtual { queues, .. } => queues[worker].extend(staged.drain(..)),
            }
        }
    }

    /// Drives every queued work item to completion (virtual engine), using
    /// the schedule to interleave workers.
    fn drain_virtual(&mut self) {
        if let Runtime::Virtual {
            picker,
            shards,
            queues,
        } = &mut self.runtime
        {
            while let Some(w) = picker.next(queues) {
                let work = queues[w].pop_front().expect("picker returned non-empty");
                shards[w].run(std::iter::once(work));
            }
        }
    }

    /// Drives all queued work to completion without snapshotting anything —
    /// the allocation-free barrier the hot-path alloc tests measure across.
    /// On the virtual engine this processes every queued item inline; on the
    /// threads engine the workers drain continuously and this is a no-op.
    pub fn drain(&mut self) {
        self.drain_virtual();
        // Every worker is quiescent now (virtual engine only — the threads
        // engine's workers keep running, so flushing their shard blocks here
        // would race the owner-writes). Fold shard counters into the root.
        if self.obs_on && matches!(self.runtime, Runtime::Virtual { .. }) {
            self.obs.flush();
        }
    }

    /// Mid-stream snapshot of every registered connection, sorted by
    /// `C.ID`. Acts as a barrier: all work queued so far is processed first.
    pub fn sync(&mut self) -> Vec<SyncSnapshot> {
        let mut snapshots: Vec<SyncSnapshot> = if let Runtime::Threads { .. } = self.runtime {
            // The barrier item rides each shard's FIFO behind everything
            // queued before it, in a batch like any other.
            let replies: Vec<_> = (0..self.workers)
                .map(|worker| {
                    let (reply_tx, reply_rx) = mpsc::channel();
                    self.stage(worker, Work::Control(Control::Sync(reply_tx)));
                    reply_rx
                })
                .collect();
            self.flush();
            replies
                .into_iter()
                .filter_map(|rx| rx.recv().ok())
                .flatten()
                .collect()
        } else {
            self.drain_virtual();
            match &self.runtime {
                Runtime::Virtual { shards, .. } => {
                    shards.iter().flat_map(|s| s.snapshots()).collect()
                }
                Runtime::Threads { .. } => unreachable!(),
            }
        };
        snapshots.sort_unstable_by_key(|s| s.conn_id);
        // A true barrier on both engines: every worker has answered (or been
        // drained inline) and the only work producer is this caller, so the
        // shard blocks are quiescent — fold them into the root registry.
        if self.obs_on {
            self.obs.flush();
        }
        snapshots
    }

    /// Current acknowledgment for every registered connection, sorted by
    /// `C.ID`. A barrier, like [`sync`](Self::sync).
    pub fn make_acks(&mut self) -> Vec<(u32, AckInfo)> {
        self.sync()
            .into_iter()
            .map(|s| (s.conn_id, s.ack))
            .collect()
    }

    /// Shuts the pipeline down and merges every worker's state into one
    /// [`ParallelOutcome`]. Receivers (and their application buffers) are
    /// moved, not copied; transcripts are folded; control events are sorted
    /// back into global arrival order.
    pub fn finish(mut self) -> ParallelOutcome {
        let shards: Vec<Shard> = match self.runtime {
            Runtime::Threads { work, handles, .. } => {
                drop(work); // closes the queues; workers drain and return
                handles
                    .into_iter()
                    .map(|h| h.join().expect("worker panicked"))
                    .collect()
            }
            Runtime::Virtual { .. } => {
                self.drain_virtual();
                match self.runtime {
                    Runtime::Virtual { shards, .. } => shards,
                    Runtime::Threads { .. } => unreachable!(),
                }
            }
        };

        // Workers have joined (threads) or drained inline (virtual): fold
        // their shard blocks into the root registry, then stamp the merge
        // on the sink's shared clock — never before the newest worker event,
        // so a trace or flight dump cannot interleave merge records out of
        // order with the work they summarise.
        let merge_now = if self.obs_on {
            self.obs.flush();
            self.obs.clock().max(self.last_now)
        } else {
            self.last_now
        };
        let merge_started = Instant::now();
        let mut conns = BTreeMap::new();
        let mut transcript = Wsc2Stream::new();
        let mut worker_chunks = vec![0u64; self.workers];
        let mut process_max_ns = 0u64;
        for mut shard in shards {
            transcript.fold(&shard.transcript);
            worker_chunks[shard.index] = shard.chunks;
            if self.obs_on {
                self.obs
                    .observe("transport.parallel.worker_chunks", shard.chunks);
                self.obs.event(
                    merge_now,
                    Event::MergeFolded {
                        worker: shard.index as u32,
                        chunks: shard.chunks,
                    },
                );
            }
            self.dispatch.decode_errors += shard.decode_errors;
            self.control.append(&mut shard.control);
            process_max_ns = process_max_ns.max(shard.busy_ns);
            // Drain the worker's table: live connections move out sorted by
            // `C.ID` (pooled shells of retired connections are dropped, and
            // with them any events a retired connection left behind).
            let table = std::mem::take(&mut shard.receivers);
            for (conn_id, receiver) in table.into_entries() {
                let events = shard.events.remove(&conn_id).unwrap_or_default();
                conns.insert(
                    conn_id,
                    ConnReport {
                        worker: shard.index,
                        events,
                        ack: receiver.make_ack(),
                        receiver,
                    },
                );
            }
        }
        if self.obs_on {
            // One fold per worker transcript absorbed, plus any folds the
            // workers themselves performed (`Wsc2Stream::fold_code` per
            // delivered TPDU counts inside the per-worker tallies).
            self.obs
                .counter("transport.parallel.merge_folds", transcript.folds());
            // Every dispatched chunk has now been folded into the single
            // merged outcome: close its merge-queue span. Dispatch order is
            // the open order, so closing in reverse satisfies the span
            // store's LIFO discipline per label.
            for labels in std::mem::take(&mut self.merge_open).into_iter().rev() {
                self.obs
                    .span_close(merge_now, SpanId::new(labels, Stage::MergeQueue));
            }
        }
        self.control.sort_by_key(|e| e.stamp);
        let merge_ns = merge_started.elapsed().as_nanos() as u64;
        ParallelOutcome {
            conns,
            control: self.control,
            transcript_digest: transcript.digest(),
            dispatch: self.dispatch,
            timings: StageTimings {
                process_max_ns,
                merge_ns,
            },
            worker_chunks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender::{Sender, SenderConfig};

    fn params(conn_id: u32) -> ConnectionParams {
        ConnectionParams {
            conn_id,
            elem_size: 1,
            initial_csn: 0,
            tpdu_elements: 8,
        }
    }

    fn layout() -> InvariantLayout {
        InvariantLayout::with_data_symbols(1024)
    }

    fn spec(conn_id: u32) -> ConnSpec {
        ConnSpec::new(params(conn_id), layout(), DeliveryMode::Immediate, 256)
    }

    fn sender(conn_id: u32) -> Sender {
        Sender::new(SenderConfig {
            params: params(conn_id),
            layout: layout(),
            mtu: 1500,
            min_tpdu_elements: 2,
            max_tpdu_elements: 64,
        })
    }

    fn packets_for(conns: &[u32]) -> Vec<Packet> {
        let mut packets = Vec::new();
        for &id in conns {
            let mut tx = sender(id);
            let mut msg = vec![0u8; 24];
            msg.iter_mut()
                .enumerate()
                .for_each(|(i, b)| *b = (id as u8).wrapping_add(i as u8));
            tx.submit_simple(&msg, id, false);
            packets.extend(tx.packets_for_pending().unwrap());
        }
        packets
    }

    #[test]
    fn shard_of_is_stable_and_balanced() {
        for id in 0..1000u32 {
            assert_eq!(shard_of(id, 4), shard_of(id, 4));
            assert!(shard_of(id, 4) < 4);
        }
        let mut counts = [0usize; 4];
        for id in 0..64u32 {
            counts[shard_of(id, 4)] += 1;
        }
        for c in counts {
            assert!(c >= 8, "sequential ids should spread: {counts:?}");
        }
    }

    type ConnSnapshot = (u32, Vec<u8>, [u8; 8]);

    #[test]
    fn engines_and_worker_counts_agree() {
        let conns = [1u32, 2, 3, 4, 5];
        let packets = packets_for(&conns);
        let mut reference: Option<Vec<ConnSnapshot>> = None;
        for workers in [1usize, 2, 4] {
            for engine in [Engine::Threads, Engine::Virtual(Schedule::Fair)] {
                let mut pr = ParallelReceiver::new(
                    workers,
                    engine,
                    conns.iter().map(|&id| spec(id)).collect(),
                );
                for (i, p) in packets.iter().enumerate() {
                    pr.ingest(p, i as u64);
                }
                let out = pr.finish();
                assert_eq!(out.dispatch.decode_errors, 0);
                let got: Vec<ConnSnapshot> = out
                    .conns
                    .iter()
                    .map(|(&id, r)| {
                        (
                            id,
                            r.receiver.app_data()[..24].to_vec(),
                            out.transcript_digest,
                        )
                    })
                    .collect();
                match &reference {
                    None => reference = Some(got),
                    Some(want) => assert_eq!(&got, want, "workers={workers}"),
                }
            }
        }
    }

    #[test]
    fn unknown_connection_surfaces_as_control_event() {
        let packets = packets_for(&[9]);
        let mut pr = ParallelReceiver::new(2, Engine::Virtual(Schedule::Fair), vec![spec(1)]);
        for p in &packets {
            pr.ingest(p, 0);
        }
        let out = pr.finish();
        assert!(out
            .control
            .iter()
            .any(|e| matches!(e.kind, ControlKind::UnknownConnection { conn_id: 9 })));
    }

    #[test]
    fn malformed_packet_rejected_whole() {
        let mut packets = packets_for(&[1]);
        let frame = packets.remove(0);
        let mut bytes = frame.bytes.to_vec();
        bytes[0] = 0x7F; // bad TYPE on the first chunk
        let bad = Packet {
            bytes: Bytes::from(bytes),
        };
        let mut pr = ParallelReceiver::new(2, Engine::Virtual(Schedule::Fair), vec![spec(1)]);
        pr.ingest(&bad, 0);
        let out = pr.finish();
        assert_eq!(out.dispatch.bad_packets, 1);
        assert_eq!(out.dispatch.chunks_dispatched, 0);
        assert!(out.conns[&1].events.is_empty());
    }

    #[test]
    fn make_acks_is_a_barrier() {
        let packets = packets_for(&[1, 2]);
        for engine in [Engine::Threads, Engine::Virtual(Schedule::Reverse)] {
            let mut pr = ParallelReceiver::new(2, engine, vec![spec(1), spec(2)]);
            for p in &packets {
                pr.ingest(p, 0);
            }
            let acks = pr.make_acks();
            assert_eq!(acks.len(), 2);
            for (_, ack) in &acks {
                assert_eq!(ack.cumulative, 24, "all queued data acked at barrier");
            }
            pr.finish();
        }
    }

    #[test]
    fn work_item_stays_small() {
        // Every queued chunk pays for the largest variant: a chunk's span,
        // time, dispatch stamp and payload fold fit, with no room for a tag;
        // the connection spec is boxed.
        assert!(std::mem::size_of::<Work>() <= 48);
    }

    #[test]
    fn more_batches_than_the_queues_hold_all_complete() {
        // One batch per `ingest`, eight times what either channel holds:
        // the dispatcher blocks on the full work queue while emptied buffers
        // come back, which hangs if the return path can block too.
        let packets = packets_for(&[1, 2, 3]);
        let mut pr = ParallelReceiver::new(1, Engine::Threads, vec![spec(1), spec(2), spec(3)]);
        let mut calls = 0;
        while calls < 8 * BATCH_POOL {
            for p in &packets {
                pr.ingest(p, calls as u64);
                calls += 1;
            }
        }
        let out = pr.finish();
        assert_eq!(out.dispatch.packets, calls as u64);
        assert_eq!(out.dispatch.decode_errors, 0);
        assert!(out.dispatch.chunks_dispatched >= calls as u64);
        assert_eq!(
            out.worker_chunks.iter().sum::<u64>(),
            out.dispatch.chunks_dispatched
        );
    }

    /// Admit, data, retire and more data for one connection, back to back
    /// with no barrier between them, then a barrier behind another
    /// connection's data.
    fn lifecycle_burst(engine: Engine) -> (Vec<SyncSnapshot>, ParallelOutcome) {
        let (comes_and_goes, stays) = (7, 1);
        let mut pr = ParallelReceiver::new(2, engine, vec![spec(stays)]);
        pr.admit(spec(comes_and_goes), 0);
        pr.ingest_batch(&packets_for(&[comes_and_goes]), 1);
        pr.retire(comes_and_goes, 2);
        pr.ingest_batch(&packets_for(&[comes_and_goes, stays]), 3);
        let mid = pr.sync();
        (mid, pr.finish())
    }

    #[test]
    fn lifecycle_items_keep_their_place_among_the_chunks() {
        let (mid, out) = lifecycle_burst(Engine::Threads);

        // The barrier saw every chunk ingested before it.
        assert_eq!(mid.len(), 1, "the retired connection is gone");
        assert_eq!((mid[0].conn_id, mid[0].ack.cumulative), (1, 24));

        // What arrived between admit and retire was delivered: the session
        // transcript equals that of both streams delivered once each.
        let mut plain =
            ParallelReceiver::new(2, Engine::Virtual(Schedule::Fair), vec![spec(7), spec(1)]);
        plain.ingest_batch(&packets_for(&[7, 1]), 0);
        let plain = plain.finish();
        assert_eq!(out.transcript_digest, plain.transcript_digest);
        assert_eq!(
            out.worker_chunks.iter().sum::<u64>(),
            plain.dispatch.chunks_dispatched
        );
        assert_eq!(out.dispatch.decode_errors, 0);

        // What arrived after the retire found no receiver at its worker:
        // one unknown-connection event per chunk, in arrival order.
        let unknown = plain.dispatch.chunks_dispatched / 2;
        assert_eq!(out.control.len() as u64, unknown);
        assert!(out
            .control
            .iter()
            .all(|e| e.kind == ControlKind::UnknownConnection { conn_id: 7 }));
        assert!(out.control.windows(2).all(|w| w[0].stamp < w[1].stamp));

        let (virtual_mid, virtual_out) = lifecycle_burst(Engine::Virtual(Schedule::Fair));
        assert_eq!(mid, virtual_mid);
        assert_eq!(out.control, virtual_out.control);
        assert_eq!(out.transcript_digest, virtual_out.transcript_digest);
        assert_eq!(out.dispatch, virtual_out.dispatch);
        assert_eq!(out.worker_chunks, virtual_out.worker_chunks);
    }
}
