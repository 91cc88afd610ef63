//! One pass of a workload through the real pipeline: fresh senders → a
//! fresh simulated path → the workload's receive front-end → (lossy
//! profiles) acknowledgment-driven repair rounds — and the byte check of
//! what the receivers hold afterwards.

use std::borrow::Cow;
use std::time::Instant;

use chunks_core::packet::{spans, Packet};
use chunks_transport::{
    AckInfo, ConnectionDemux, DemuxEvent, ParallelOutcome, ParallelReceiver, Receiver, RxEvent,
    RxStats, Sender,
};

use crate::error::LedgerError;
use crate::trace::Tracer;
use crate::workload::{FrontEnd, Inputs, Spec, BATCH, MAX_REPAIR_ROUNDS};

/// Virtual nanoseconds between successive frames entering the path.
const INJECT_GAP_NS: u64 = 2_000;

/// Receive-side state that survives from pass to pass. Serial receivers and
/// the demux are built and reserved once and reset with `quiesce()` between
/// passes; the parallel receiver is consumed by `finish()`, so each pass
/// builds its own (outside the timed window).
pub enum Host {
    /// One bare receiver.
    Serial {
        /// The receiver.
        rx: Box<Receiver>,
        /// Reused event buffer.
        events: Vec<RxEvent>,
    },
    /// The connection demultiplexer over every connection.
    Demux {
        /// The demux.
        demux: Box<ConnectionDemux>,
        /// Reused event buffer.
        events: Vec<DemuxEvent>,
    },
    /// The threaded parallel receiver, rebuilt per pass.
    Parallel {
        /// Worker threads.
        workers: usize,
    },
}

impl Host {
    /// Builds the front-end `spec` names.
    pub fn build(spec: &Spec, ids: &[u32], workers: usize) -> Host {
        let events = spec.events_capacity();
        match spec.front_end {
            FrontEnd::Serial => Host::Serial {
                rx: Box::new(spec.receiver(ids[0])),
                events: Vec::with_capacity(events),
            },
            FrontEnd::Demux => Host::Demux {
                demux: Box::new(spec.demux()),
                events: Vec::with_capacity(events),
            },
            FrontEnd::Parallel => Host::Parallel { workers },
        }
    }

    /// Resets the persistent receivers for the next pass, keeping capacity
    /// and re-touching the application buffers. Outside the timed window.
    pub fn quiesce(&mut self, ids: &[u32]) {
        match self {
            Host::Serial { rx, .. } => rx.quiesce(),
            Host::Demux { demux, .. } => {
                for &id in ids {
                    if let Some(rx) = demux.receiver_mut(id) {
                        rx.quiesce();
                    }
                }
            }
            Host::Parallel { .. } => {}
        }
    }
}

/// Wall-clock readings of one pass, ns.
#[derive(Clone, Copy, Default, Debug)]
pub struct Wall {
    /// First `Sender::new` to the last front-end call returning.
    pub pass_ns: u64,
    /// Inside `Sender` calls (submit, packetize, retransmit).
    pub sender_ns: u64,
    /// Inside `Path::run`.
    pub netsim_ns: u64,
    /// Inside receive front-end calls, all rounds.
    pub rx_ns: u64,
}

/// Everything about a pass that a seed fixes exactly. Passes of one run
/// must agree on all of it; two runs with one seed must too.
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct Exact {
    /// TPDUs submitted.
    pub tpdus_attempted: u64,
    /// TPDUs verified and delivered.
    pub tpdus_delivered: u64,
    /// Application bytes inside verified prefixes.
    pub verified_bytes: u64,
    /// Packets the senders emitted, retransmissions included.
    pub packets_sent: u64,
    /// Wire bytes the senders emitted, retransmissions included.
    pub wire_bytes_sent: u64,
    /// Wire bytes of retransmissions alone.
    pub wire_bytes_retransmitted: u64,
    /// Repair rounds that carried traffic.
    pub repair_rounds: u32,
    /// Frames offered to the first hop, all rounds.
    pub frames_in: u64,
    /// Frames delivered by the last hop, all rounds.
    pub frames_out: u64,
    /// Frames lost on any hop.
    pub frames_lost: u64,
    /// Wire bytes that arrived.
    pub wire_bytes_arrived: u64,
    /// Chunks that arrived (data + ED).
    pub chunks_arrived: u64,
    /// Sum of the receivers' statistics.
    pub rx: RxTotals,
    /// Fold of every receiver's delivered digests (and, on the parallel
    /// front-end, the merged transcript digest).
    pub fingerprint: u64,
}

impl Exact {
    /// TPDUs submitted but not verified-delivered.
    pub fn tpdus_failed(&self) -> u64 {
        self.tpdus_attempted - self.tpdus_delivered
    }

    /// `tpdus_failed` as a share of the TPDUs submitted.
    pub fn undelivered_share(&self) -> f64 {
        self.tpdus_failed() as f64 / self.tpdus_attempted.max(1) as f64
    }
}

/// The receivers' `RxStats`, summed over connections.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct RxTotals {
    /// Bytes written anywhere.
    pub data_touches: u64,
    /// Duplicate chunks rejected.
    pub duplicate_chunks: u64,
    /// Chunks accepted.
    pub chunks_accepted: u64,
    /// TPDUs rejected.
    pub tpdus_failed: u64,
    /// Malformed packets dropped.
    pub bad_packets: u64,
}

impl RxTotals {
    fn add(&mut self, s: &RxStats) {
        self.data_touches += s.data_touches;
        self.duplicate_chunks += s.duplicate_chunks;
        self.chunks_accepted += s.chunks_accepted;
        self.tpdus_failed += s.tpdus_failed;
        self.bad_packets += s.bad_packets;
    }
}

/// What one pass returns.
pub struct PassOut {
    /// Wall-clock readings.
    pub wall: Wall,
    /// Seed-exact counts.
    pub exact: Exact,
    /// The arrival trace, one `Vec` per round, in the order it was fed.
    pub arrivals: Vec<Vec<Packet>>,
    /// The parallel front-end's merged outcome (receivers included).
    pub outcome: Option<ParallelOutcome>,
}

fn ns(from: Instant) -> u64 {
    from.elapsed().as_nanos() as u64
}

/// Interleaves per-connection packet streams round-robin, as concurrent
/// senders sharing a link would, converting to the owned frames
/// `Path::run` takes (a copy the public APIs force; harness time).
fn interleave(
    streams: Vec<Vec<Packet>>,
    clock: &mut u64,
    exact: &mut Exact,
    retransmission: bool,
    chunks_sent: &mut Option<&mut u64>,
) -> Vec<(u64, Vec<u8>)> {
    let total: usize = streams.iter().map(Vec::len).sum();
    let mut frames = Vec::with_capacity(total);
    let mut iters: Vec<std::vec::IntoIter<Packet>> =
        streams.into_iter().map(Vec::into_iter).collect();
    while frames.len() < total {
        for it in &mut iters {
            if let Some(packet) = it.next() {
                let len = packet.bytes.len() as u64;
                exact.packets_sent += 1;
                exact.wire_bytes_sent += len;
                if retransmission {
                    exact.wire_bytes_retransmitted += len;
                }
                if let Some(count) = chunks_sent {
                    **count += spans(&packet).count() as u64;
                }
                frames.push((*clock, packet.bytes.to_vec()));
                *clock += INJECT_GAP_NS;
            }
        }
    }
    frames
}

/// Feeds one round's arrivals to the front-end in `BATCH`-packet groups.
fn feed<T: Tracer>(
    host: &mut Host,
    par: &mut Option<ParallelReceiver>,
    packets: &[Packet],
    now: &mut u64,
    tr: &mut T,
) {
    for batch in packets.chunks(BATCH) {
        match host {
            Host::Serial { rx, events } => {
                let s = tr.open("transport.receiver.ingest_batch");
                rx.ingest_batch(batch, *now, events);
                tr.close(s);
                events.clear();
            }
            Host::Demux { demux, events } => {
                for packet in batch {
                    let s = tr.open("transport.mux.ingest");
                    demux.ingest(packet, *now, events);
                    tr.close(s);
                }
                events.clear();
            }
            Host::Parallel { .. } => {
                let pr = par.as_mut().expect("parallel receiver built for the pass");
                let s = tr.open("transport.parallel.ingest_batch");
                pr.ingest_batch(batch, *now);
                tr.close(s);
            }
        }
        *now += 1;
    }
}

fn make_acks<T: Tracer>(host: &Host, ids: &[u32], tr: &mut T) -> Vec<AckInfo> {
    let s = tr.open("transport.receiver.make_ack");
    let acks = match host {
        Host::Serial { rx, .. } => vec![rx.make_ack()],
        Host::Demux { demux, .. } => ids
            .iter()
            .map(|&id| demux.receiver(id).expect("registered").make_ack())
            .collect(),
        Host::Parallel { .. } => unreachable!("the parallel workload's profile is lossless"),
    };
    tr.close(s);
    acks
}

/// Runs one pass. `chunks_sent`, when given, is increased by the chunks the
/// senders emit (never asked for on a timed pass: counting walks every
/// header inside the window).
pub fn run_pass<T: Tracer>(
    spec: &Spec,
    inputs: &Inputs,
    seed: u64,
    host: &mut Host,
    tr: &mut T,
    mut chunks_sent: Option<&mut u64>,
) -> Result<PassOut, LedgerError> {
    // Construction, thread spawn and `reserve` stay outside the window.
    let mut par = match host {
        Host::Parallel { workers } => {
            assert!(!spec.profile.lossy(), "repair rounds need a serial host");
            Some(spec.parallel(*workers))
        }
        _ => None,
    };
    let mut wall = Wall::default();
    let mut exact = Exact::default();
    let mut arrivals: Vec<Vec<Packet>> = Vec::new();
    let mut clock = 0u64;
    let mut now = 0u64;

    let pass_span = tr.open("pass");
    let begin = Instant::now();

    // Senders: frame, checksum and packetize every message.
    let t = Instant::now();
    let mut senders: Vec<Sender> = Vec::with_capacity(inputs.ids.len());
    let mut streams: Vec<Vec<Packet>> = Vec::with_capacity(inputs.ids.len());
    for (&id, message) in inputs.ids.iter().zip(&inputs.messages) {
        let s = tr.open("transport.sender.submit");
        let mut tx = Sender::new(spec.sender_config(id));
        exact.tpdus_attempted += tx.submit_simple(message, 0x10 + id, false).len() as u64;
        tr.close(s);
        let s = tr.open("transport.sender.packetize");
        streams.push(tx.packets_for_pending().map_err(LedgerError::Pack)?);
        tr.close(s);
        senders.push(tx);
    }
    wall.sender_ns += ns(t);

    // Round 0 carries the initial transmission; on lossy profiles rounds
    // 1.. carry what the receivers' acknowledgments ask for.
    for round_no in 0..=MAX_REPAIR_ROUNDS {
        if round_no > 0 {
            let acks = make_acks(host, &inputs.ids, tr);
            let t = Instant::now();
            streams = Vec::new();
            for ((tx, ack), message) in senders.iter_mut().zip(&acks).zip(&inputs.messages) {
                if ack.cumulative == message.len() as u64 {
                    continue;
                }
                let s = tr.open("transport.sender.retransmit_for_ack");
                streams.push(tx.retransmit_for_ack(ack).map_err(LedgerError::Pack)?);
                tr.close(s);
            }
            wall.sender_ns += ns(t);
            if streams.is_empty() {
                break;
            }
            exact.repair_rounds = round_no;
        }
        let frames = interleave(
            std::mem::take(&mut streams),
            &mut clock,
            &mut exact,
            round_no > 0,
            &mut chunks_sent,
        );

        // Network: a fresh path per round, seeded `seed + round`, so every
        // pass of a run does identical work.
        let mut path = spec
            .profile
            .build(spec.mtu, seed.wrapping_add(round_no as u64));
        let t = Instant::now();
        let s = tr.open("netsim.path.run");
        let deliveries = path.run(frames);
        tr.close(s);
        wall.netsim_ns += ns(t);
        let hops = path.hops();
        exact.frames_in += hops.first().map_or(0, |h| h.link.stats().offered);
        exact.frames_out += hops.last().map_or(0, |h| h.link.stats().delivered);
        exact.frames_lost += hops.iter().map(|h| h.link.stats().lost).sum::<u64>();
        let round: Vec<Packet> = deliveries
            .into_iter()
            .map(|d| Packet {
                bytes: d.frame.into(),
            })
            .collect();

        // Receive front-end.
        let t = Instant::now();
        feed(host, &mut par, &round, &mut now, tr);
        wall.rx_ns += ns(t);
        arrivals.push(round);
        if !spec.profile.lossy() {
            break;
        }
    }

    // The threads engine's `drain()` returns at once (its workers drain
    // continuously), so the window closes when `finish()` has joined them.
    let outcome = par.map(|mut pr| {
        let t = Instant::now();
        let s = tr.open("transport.parallel.drain_finish");
        pr.drain();
        let outcome = pr.finish();
        tr.close(s);
        wall.rx_ns += ns(t);
        outcome
    });
    wall.pass_ns = ns(begin);
    tr.close(pass_span);

    // Outside the window: count what arrived and check what was delivered.
    for round in &arrivals {
        for packet in round {
            exact.wire_bytes_arrived += packet.bytes.len() as u64;
            exact.chunks_arrived += spans(packet).count() as u64;
        }
    }
    let mut fingerprint = Fingerprint::default();
    for (i, (&id, message)) in inputs.ids.iter().zip(&inputs.messages).enumerate() {
        let rx: &Receiver = match (&*host, &outcome) {
            (Host::Serial { rx, .. }, _) => rx,
            (Host::Demux { demux, .. }, _) => demux.receiver(id).expect("registered"),
            (Host::Parallel { .. }, Some(outcome)) => &outcome.conns[&id].receiver,
            (Host::Parallel { .. }, None) => unreachable!("parallel pass produced an outcome"),
        };
        let mut expected = Cow::Borrowed(message.as_slice());
        if inputs.corrupt_expected && i == 0 {
            let middle = expected.len() / 2;
            expected.to_mut()[middle] ^= 1;
        }
        verify_receiver(spec, id, rx, &expected, &mut exact, &mut fingerprint)?;
    }
    if let Some(outcome) = &outcome {
        fingerprint.mix(&outcome.transcript_digest);
    }
    exact.fingerprint = fingerprint.0;
    Ok(PassOut {
        wall,
        exact,
        arrivals,
        outcome,
    })
}

/// FNV-1a fold of delivered digests — a compact stand-in for comparing the
/// full per-connection digest lists across passes and runs.
#[derive(Clone, Copy, Debug)]
struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xCBF2_9CE4_8422_2325)
    }
}

impl Fingerprint {
    fn mix(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Checks one receiver against the message its sender submitted: the
/// verified prefix must equal the message byte for byte. A short prefix is
/// counted (undelivered TPDUs), a wrong byte is an error.
fn verify_receiver(
    spec: &Spec,
    conn_id: u32,
    rx: &Receiver,
    message: &[u8],
    exact: &mut Exact,
    fingerprint: &mut Fingerprint,
) -> Result<(), LedgerError> {
    let prefix = rx.verified_prefix() as usize;
    if prefix > message.len() {
        return Err(LedgerError::PrefixOverrun {
            workload: spec.name,
            conn_id,
            prefix,
            submitted: message.len(),
        });
    }
    let delivered = &rx.app_data()[..prefix];
    if delivered != &message[..prefix] {
        let at = delivered
            .iter()
            .zip(message)
            .position(|(got, want)| got != want)
            .unwrap_or(0);
        return Err(LedgerError::AppDataMismatch {
            workload: spec.name,
            conn_id,
            at,
        });
    }
    exact.verified_bytes += prefix as u64;
    exact.tpdus_delivered += rx.stats.tpdus_delivered;
    exact.rx.add(&rx.stats);
    fingerprint.mix(&conn_id.to_le_bytes());
    for (start, digest) in rx.delivered_digests() {
        fingerprint.mix(&start.to_le_bytes());
        fingerprint.mix(&digest);
    }
    Ok(())
}
