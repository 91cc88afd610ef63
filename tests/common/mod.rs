//! Shared scaffolding for the parallel-pipeline differential tests: seeded
//! scenario generation, trace recording, and the serial reference replay.
//!
//! The equivalence methodology is *trace replay*: a scenario is first played
//! through the serial reference path — a closed retransmission loop over a
//! seeded [`Profile`] network — and every frame that arrives at the receiver
//! (plus every group reset the loop performs) is recorded as a [`TraceOp`].
//! The recorded trace is then replayed, byte-identically, into a fresh
//! serial [`ConnectionDemux`] and into [`ParallelReceiver`]s at several
//! worker counts. Both replays see the exact same input sequence, so any
//! divergence in delivered bytes, digests, verdicts, statistics or event
//! streams is a real behavioural difference, not generation noise.

#![allow(dead_code)]

pub mod alloc_counter;

use std::collections::BTreeMap;

use chunks::netsim::Profile;
use chunks::transport::{
    AckInfo, ConnSpec, ConnectionDemux, ConnectionParams, DeliveryMode, DemuxEvent, Receiver,
    RxEvent, RxStats, Sender, SenderConfig, Signal,
};
use chunks::transport::{ControlKind, Engine, ParallelReceiver};
use chunks::wsc::{InvariantLayout, Wsc2Stream};
use chunks_core::packet::Packet;

/// One recorded input to the receive side.
#[derive(Clone, Debug)]
pub enum TraceOp {
    /// A frame arrived at virtual time `now`.
    Packet {
        /// The on-the-wire bytes.
        frame: Vec<u8>,
        /// Arrival time.
        now: u64,
    },
    /// The reference loop cleared a failed/incomplete group before its
    /// retransmission round.
    Reset {
        /// The connection whose group is cleared.
        conn_id: u32,
        /// The group's first element (connection space).
        start: u64,
    },
}

/// A fully-specified differential scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Scenario index (labelling only).
    pub index: usize,
    /// The network behaviour.
    pub profile: Profile,
    /// Seed for the network and message content.
    pub seed: u64,
    /// Number of concurrent connections.
    pub conns: usize,
    /// Message length per connection, in bytes.
    pub message_len: usize,
    /// Delivery strategy on every receiver.
    pub mode: DeliveryMode,
    /// Element size in bytes.
    pub elem_size: u16,
    /// TPDU size in elements.
    pub tpdu_elements: u32,
    /// Path MTU.
    pub mtu: usize,
    /// Whether to splice an ack + signal + unknown-connection control packet
    /// into the trace (exercises the dispatcher's control plane).
    pub inject_control: bool,
}

impl Scenario {
    /// Stable label for failure messages.
    pub fn label(&self) -> String {
        format!(
            "#{} {} seed={:#x} conns={} len={} mode={:?} esize={} tpdu={} mtu={}",
            self.index,
            self.profile.name(),
            self.seed,
            self.conns,
            self.message_len,
            self.mode,
            self.elem_size,
            self.tpdu_elements,
            self.mtu
        )
    }

    /// Connection ids used by this scenario (1-based, sequential — the
    /// allocation pattern the Fibonacci shard hash is built for).
    pub fn conn_ids(&self) -> Vec<u32> {
        (1..=self.conns as u32).collect()
    }

    /// The deterministic message a connection sends.
    pub fn message(&self, conn_id: u32) -> Vec<u8> {
        let mut state = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(conn_id as u64);
        (0..self.message_len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 56) as u8
            })
            .collect()
    }

    fn params(&self, conn_id: u32) -> ConnectionParams {
        ConnectionParams {
            conn_id,
            elem_size: self.elem_size,
            initial_csn: conn_id.wrapping_mul(1000),
            tpdu_elements: self.tpdu_elements,
        }
    }

    fn layout(&self) -> InvariantLayout {
        InvariantLayout::with_data_symbols(1 << 15)
    }

    fn capacity_elements(&self) -> u64 {
        (self.message_len as u64 / self.elem_size as u64) + self.tpdu_elements as u64 + 64
    }

    fn sender(&self, conn_id: u32) -> Sender {
        Sender::new(SenderConfig {
            params: self.params(conn_id),
            layout: self.layout(),
            mtu: self.mtu,
            min_tpdu_elements: 2,
            max_tpdu_elements: self.tpdu_elements.max(2),
        })
    }

    fn receiver(&self, conn_id: u32) -> Receiver {
        Receiver::new(
            self.mode,
            self.params(conn_id),
            self.layout(),
            self.capacity_elements(),
        )
    }

    /// [`ConnSpec`]s for the parallel pipeline — same parameters as the
    /// serial receivers to the letter.
    pub fn specs(&self) -> Vec<ConnSpec> {
        self.conn_ids()
            .iter()
            .map(|&id| {
                ConnSpec::new(
                    self.params(id),
                    self.layout(),
                    self.mode,
                    self.capacity_elements(),
                )
            })
            .collect()
    }

    /// Plays the scenario through the serial reference path (closed
    /// retransmission loop over the profile network) and records the
    /// receive-side trace.
    pub fn generate_trace(&self) -> Vec<TraceOp> {
        let ids = self.conn_ids();
        let mut senders: BTreeMap<u32, Sender> = ids
            .iter()
            .map(|&id| {
                let mut tx = self.sender(id);
                tx.submit_simple(&self.message(id), id, false);
                (id, tx)
            })
            .collect();
        let mut demux = ConnectionDemux::new();
        for &id in &ids {
            demux.register(id, self.receiver(id));
        }

        let mut trace = Vec::new();
        let mut clock: u64 = 0;

        if self.inject_control {
            // One control packet up front: an ack for a reverse-direction
            // connection, a teardown signal, and a data chunk for a
            // connection nobody registered.
            let mut mux = chunks::transport::PacketMux::new(self.mtu);
            mux.enqueue_ack(
                0xFEED,
                &AckInfo {
                    cumulative: 7,
                    sacks: vec![11],
                    gaps: vec![(8, 9)],
                    need_ed: vec![],
                    pressure: false,
                },
            );
            mux.enqueue_signal(&Signal::Teardown { conn_id: 0xFEED });
            let mut foreign = self.sender(0xDEAD);
            foreign.submit_simple(&vec![0x55u8; self.elem_size as usize * 4], 1, false);
            for p in foreign.packets_for_pending().unwrap() {
                mux.enqueue_chunks(chunks_core::packet::unpack(&p).unwrap());
            }
            for p in mux.flush().unwrap() {
                trace.push(TraceOp::Packet {
                    frame: p.bytes.to_vec(),
                    now: clock,
                });
                demux.handle_packet(&p, clock);
                clock += 1;
            }
        }

        let max_rounds = 64;
        for round in 0..max_rounds {
            let mut inputs: Vec<(u64, Vec<u8>)> = Vec::new();
            for &id in &ids {
                let packets = if round == 0 {
                    senders[&id].packets_for_pending().unwrap()
                } else {
                    let rx = demux.receiver_mut(id).unwrap();
                    for s in rx.failed_starts() {
                        rx.reset_group(s);
                        trace.push(TraceOp::Reset {
                            conn_id: id,
                            start: s,
                        });
                    }
                    let tx = senders.get_mut(&id).unwrap();
                    let missing = tx.unacked_starts();
                    if missing.is_empty() {
                        Vec::new()
                    } else {
                        tx.retransmit(&missing).unwrap()
                    }
                };
                for p in packets {
                    inputs.push((clock + inputs.len() as u64 * 500, p.bytes.to_vec()));
                }
            }
            if inputs.is_empty() {
                break;
            }
            let mut path = self
                .profile
                .build(self.mtu, self.seed.wrapping_add(round as u64));
            let deliveries = path.run(inputs);
            for d in &deliveries {
                let packet = Packet {
                    bytes: d.frame.clone().into(),
                };
                trace.push(TraceOp::Packet {
                    frame: d.frame.clone(),
                    now: d.time,
                });
                demux.handle_packet(&packet, d.time);
                clock = clock.max(d.time);
            }
            clock += 1_000_000;
            let mut done = true;
            for &id in &ids {
                let ack = demux.receiver(id).unwrap().make_ack();
                senders.get_mut(&id).unwrap().handle_ack(&ack);
                if senders[&id].pending_tpdus() > 0 {
                    done = false;
                }
            }
            if done {
                break;
            }
        }
        trace
    }
}

/// Everything observable about one connection after a replay.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ConnObservation {
    /// Full application address space.
    pub app: Vec<u8>,
    /// Contiguously verified prefix, in elements.
    pub verified_prefix: u64,
    /// Per-connection receiver events, in arrival order.
    pub events: Vec<RxEvent>,
    /// `(start, digest)` of every delivered TPDU.
    pub digests: Vec<(u64, [u8; 8])>,
    /// Starts of groups that failed verification.
    pub failed: Vec<u64>,
    /// Final acknowledgment.
    pub ack: AckInfo,
    /// Receiver statistics.
    pub stats: RxStats,
    /// Whether `C.ST` closed the connection.
    pub closed: bool,
}

impl ConnObservation {
    fn of(rx: &Receiver, events: Vec<RxEvent>) -> Self {
        ConnObservation {
            app: rx.app_data().to_vec(),
            verified_prefix: rx.verified_prefix(),
            events,
            digests: rx.delivered_digests(),
            failed: rx.failed_starts(),
            ack: rx.make_ack(),
            stats: rx.stats,
            closed: rx.is_closed(),
        }
    }
}

/// The serial reference replay of a recorded trace.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SerialReplay {
    /// Per-connection observations.
    pub conns: BTreeMap<u32, ConnObservation>,
    /// Control-plane events (acks, signals, unknown connections) in arrival
    /// order.
    pub control: Vec<ControlKind>,
    /// Chunks routed by wire type.
    pub routed: [u64; 5],
    /// XOR-fold of every delivered TPDU's verified code, across all
    /// connections.
    pub transcript_digest: [u8; 8],
}

/// Replays a recorded trace through a fresh serial [`ConnectionDemux`].
pub fn replay_serial(scenario: &Scenario, trace: &[TraceOp]) -> SerialReplay {
    let ids = scenario.conn_ids();
    let mut demux = ConnectionDemux::new();
    for &id in &ids {
        demux.register(id, scenario.receiver(id));
    }
    let mut per_conn: BTreeMap<u32, Vec<RxEvent>> =
        ids.iter().map(|&id| (id, Vec::new())).collect();
    let mut control = Vec::new();
    for op in trace {
        match op {
            TraceOp::Packet { frame, now } => {
                let packet = Packet {
                    bytes: frame.clone().into(),
                };
                for event in demux.handle_packet(&packet, *now) {
                    match event {
                        DemuxEvent::Connection { conn_id, event } => {
                            per_conn.entry(conn_id).or_default().push(event);
                        }
                        DemuxEvent::Ack { conn_id, ack } => {
                            control.push(ControlKind::Ack { conn_id, ack });
                        }
                        DemuxEvent::Signal(s) => control.push(ControlKind::Signal(s)),
                        DemuxEvent::UnknownConnection { conn_id } => {
                            control.push(ControlKind::UnknownConnection { conn_id });
                        }
                    }
                }
            }
            TraceOp::Reset { conn_id, start } => {
                demux.receiver_mut(*conn_id).unwrap().reset_group(*start);
            }
        }
    }
    let mut transcript = Wsc2Stream::new();
    let mut conns = BTreeMap::new();
    for &id in &ids {
        let rx = demux.receiver(id).unwrap();
        for (start, _) in rx.delivered_digests() {
            if let Some(code) = rx.delivered_code(start) {
                transcript.fold_code(&code);
            }
        }
        conns.insert(
            id,
            ConnObservation::of(rx, per_conn.remove(&id).unwrap_or_default()),
        );
    }
    SerialReplay {
        conns,
        control,
        routed: demux.routed,
        transcript_digest: transcript.digest(),
    }
}

/// Replays a recorded trace through a [`ParallelReceiver`], one `ingest`
/// per packet, and returns the observations in the same shape as
/// [`replay_serial`], so the two replays compare with one `assert_eq!`.
pub fn replay_parallel(
    scenario: &Scenario,
    trace: &[TraceOp],
    workers: usize,
    engine: Engine,
) -> SerialReplay {
    let mut pr = ParallelReceiver::new(workers, engine, scenario.specs());
    for op in trace {
        match op {
            TraceOp::Packet { frame, now } => {
                let packet = Packet {
                    bytes: frame.clone().into(),
                };
                pr.ingest(&packet, *now);
            }
            TraceOp::Reset { conn_id, start } => pr.reset_group(*conn_id, *start),
        }
    }
    observe_parallel(scenario, pr)
}

/// Restamps a trace for batched replay: seeded groups of 1–64 consecutive
/// packets all take the arrival time of the group's first packet. A reset
/// ends the group it falls in, so resets land between groups. Arrival times
/// stay non-decreasing.
pub fn regroup(trace: &[TraceOp], seed: u64) -> Vec<TraceOp> {
    let mut state = seed ^ 0xBA7C_4ED0;
    let mut left = 0u64;
    let mut group_now = 0u64;
    trace
        .iter()
        .map(|op| match op {
            TraceOp::Packet { frame, now } => {
                if left == 0 {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    left = 1 + (state >> 33) % 64;
                    group_now = *now;
                }
                left -= 1;
                TraceOp::Packet {
                    frame: frame.clone(),
                    now: group_now,
                }
            }
            reset => {
                left = 0;
                reset.clone()
            }
        })
        .collect()
}

/// Like [`replay_parallel`], but every run of consecutive packets with one
/// arrival time (a [`regroup`] group, or several that tie) goes through one
/// `ingest_batch`.
pub fn replay_parallel_batched(
    scenario: &Scenario,
    trace: &[TraceOp],
    workers: usize,
    engine: Engine,
) -> SerialReplay {
    let mut pr = ParallelReceiver::new(workers, engine, scenario.specs());
    let mut group: Vec<Packet> = Vec::new();
    let mut group_now = 0u64;
    for op in trace {
        match op {
            TraceOp::Packet { frame, now } => {
                if *now != group_now {
                    pr.ingest_batch(&std::mem::take(&mut group), group_now);
                    group_now = *now;
                }
                group.push(Packet {
                    bytes: frame.clone().into(),
                });
            }
            TraceOp::Reset { conn_id, start } => {
                pr.ingest_batch(&std::mem::take(&mut group), group_now);
                pr.reset_group(*conn_id, *start);
            }
        }
    }
    pr.ingest_batch(&group, group_now);
    observe_parallel(scenario, pr)
}

/// Finishes the pipeline and shapes its outcome like [`replay_serial`]'s.
fn observe_parallel(scenario: &Scenario, pr: ParallelReceiver) -> SerialReplay {
    let out = pr.finish();
    assert_eq!(out.dispatch.decode_errors, 0, "{}", scenario.label());
    let conns = out
        .conns
        .into_iter()
        .map(|(id, report)| {
            let obs = ConnObservation::of(&report.receiver, report.events);
            assert_eq!(obs.ack, report.ack, "merge-stage ack snapshot");
            (id, obs)
        })
        .collect();
    SerialReplay {
        conns,
        control: out.control.into_iter().map(|e| e.kind).collect(),
        routed: out.dispatch.routed,
        transcript_digest: out.transcript_digest,
    }
}

/// The scenario matrix: `count` scenarios spread over every profile, 1–5
/// connections, the three delivery modes, several element/TPDU/MTU shapes.
pub fn scenarios(count: usize) -> Vec<Scenario> {
    let modes = [
        DeliveryMode::Immediate,
        DeliveryMode::Reorder,
        DeliveryMode::Reassemble,
    ];
    let shapes: [(u16, u32, usize); 4] = [
        // (elem_size, tpdu_elements, mtu)
        (1, 16, 300),
        (1, 64, 600),
        (2, 32, 1500),
        (4, 8, 512),
    ];
    (0..count)
        .map(|i| {
            let profile = Profile::ALL[i % Profile::ALL.len()];
            let (elem_size, tpdu_elements, mtu) = shapes[(i / 3) % shapes.len()];
            Scenario {
                index: i,
                profile,
                seed: 0xD1FF_0000u64.wrapping_add(i as u64 * 0x9E37),
                conns: 1 + i % 5,
                message_len: (256 + (i % 7) * 300) / elem_size as usize * elem_size as usize,
                mode: modes[i % modes.len()],
                elem_size,
                tpdu_elements,
                mtu,
                inject_control: i % 4 == 0,
            }
        })
        .collect()
}

/// Scenario count for the big sweeps: honours `PARALLEL_SCENARIOS`, defaults
/// to the full 200 in release builds and a quick 24 under debug (keeps
/// `cargo test -q` fast; `just test-parallel` runs the full matrix).
pub fn scenario_count() -> usize {
    if let Ok(v) = std::env::var("PARALLEL_SCENARIOS") {
        return v.parse().expect("PARALLEL_SCENARIOS must be an integer");
    }
    if cfg!(debug_assertions) {
        24
    } else {
        200
    }
}
