//! A full-duplex conversation endpoint.
//!
//! §2: "we assume that data streams are uni-directional and that
//! bi-directional streams are constructed with two uni-directional streams."
//! A [`Session`] is one endpoint of such a pair: a [`Sender`] for the
//! outbound connection and a [`Receiver`] for the inbound one, driven on a
//! virtual clock through one emit entry, [`Session::pump_into`], and one
//! ingest entry, [`Session::handle_packet_into`]. The application reads the
//! inbound stream in place ([`Session::readable`]) and releases it
//! ([`Session::release`]), so a session carries a stream of any length
//! through its receive ring.
//!
//! A session sends the sender's own frames. A fresh first transmission goes
//! out as the packets `submit` built, no copy, but the last, whose chunks
//! are placed anew through the pump's `PacketBuilder` (one buffer, open for
//! the whole pump); so are the runs the sender coalesces for repairs and
//! timer retransmissions, and last the inbound stream's ack, into the open
//! packet's free room or a packet of its own: Appendix A's piggybacking
//! "without designing piggybacking into the protocol". The placement is
//! `pack`'s next fit over those chunks in that order.
//!
//! The send side keeps one ordered view of its TPDUs: the sender's
//! start-ordered pending list, and the [`RetransmitTimer`] arming the same
//! TPDUs in the same order once they have gone out. An ack is applied once,
//! when it arrives: the sender drops what it acknowledges and the timer
//! disarms the same starts. The pump keeps the last ack only to drive its
//! repair pass, so the timer never names a TPDU the sender no longer holds.

use std::collections::VecDeque;
use std::sync::Arc;

use chunks_core::packet::{Packet, PacketBuilder};
use chunks_core::wire::WIRE_HEADER_LEN;
use chunks_obs::{
    Event, HealthEvent, HealthReport, Labels, ObsSink, SpanId, Stage, Watchdog, WatchdogConfig,
};

use crate::ack::{self, AckInfo};
use crate::conn::ConnectionParams;
use crate::receiver::{DeliveryMode, Receiver, RxEvent};
use crate::rto::{DegradePolicy, RetransmitTimer, RtoConfig, TimerVerdict, TransportError};
use crate::sender::{end_packet, slices, Scratch, Sender, SenderConfig};
use chunks_wsc::InvariantLayout;

/// Counters kept by the session's reliability layer.
///
/// Field names follow the `chunks-obs` metrics catalogue (one style:
/// `*_retransmits`, never `*_retransmissions`): each field is the ad-hoc
/// twin of a registry metric, and [`Self::as_metrics`] yields the pairs
/// under their catalogued names. The fields stay public under these exact
/// names — tests and the soak harness read them directly.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ReliabilityStats {
    /// TPDUs retransmitted because their timer fired (no ack arrived): the
    /// timer pass's own retransmissions. A due TPDU the same pump already
    /// packed (the ack-driven repair pass) goes out once and is not
    /// counted here. Registry twin: `transport.rto.timer_retransmits`.
    pub timer_retransmits: u64,
    /// TPDUs shed after their retry budget emptied (graceful degradation).
    /// Registry twin: `transport.rto.shed_tpdus`.
    pub shed_tpdus: u64,
    /// RTT samples absorbed by the estimator.
    /// Registry twin: `transport.rto.rtt_samples`.
    pub rtt_samples: u64,
    /// The current base RTO in virtual nanoseconds.
    /// Registry twin: the `transport.rto.base_rto_ns` histogram (the
    /// registry records one observation per pump; this field is the latest).
    pub base_rto_ns: u64,
    /// Packets deferred to a later pump by the burst cap.
    /// Registry twin: `transport.session.burst_deferrals`.
    pub burst_deferrals: u64,
    /// Repair passes and due timers deferred because the peer signalled
    /// budget back-pressure (retries are *not* consumed by a deferral).
    /// Registry twin: `transport.session.pressure_deferrals`.
    pub pressure_deferrals: u64,
}

impl ReliabilityStats {
    /// The counters as `(catalogue name, value)` pairs, named exactly as
    /// the `chunks-obs` registry exports them (see `docs/OBSERVABILITY.md`).
    pub fn as_metrics(&self) -> [(&'static str, u64); 6] {
        [
            ("transport.rto.timer_retransmits", self.timer_retransmits),
            ("transport.rto.shed_tpdus", self.shed_tpdus),
            ("transport.rto.rtt_samples", self.rtt_samples),
            ("transport.rto.base_rto_ns", self.base_rto_ns),
            ("transport.session.burst_deferrals", self.burst_deferrals),
            (
                "transport.session.pressure_deferrals",
                self.pressure_deferrals,
            ),
        ]
    }
}

/// One endpoint of a bidirectional chunk conversation.
#[derive(Debug)]
pub struct Session {
    tx: Sender,
    rx: Receiver,
    mtu: usize,
    local_conn: u32,
    /// Last ack received for our outbound stream. It was applied when it
    /// arrived and is kept only to drive the next repair pass.
    inbound_ack: Option<AckInfo>,
    /// Whether the first full transmission already happened.
    transmitted_once: bool,
    /// Timer-driven retransmission state (virtual clock).
    rto: RetransmitTimer,
    /// The session's virtual clock, advanced by [`Self::pump_into`] and
    /// [`Self::handle_packet_into`] (monotonic).
    clock: u64,
    /// The engine a pump places through: one buffer, open to the pump's ack.
    builder: PacketBuilder,
    /// Where each packet the pump closed ends in that buffer.
    ends: Vec<u32>,
    /// Packets built but withheld by the per-pump burst cap.
    backlog: VecDeque<Packet>,
    /// Maximum packets emitted per [`Self::pump_into`] call.
    max_burst_packets: usize,
    /// Maximum TPDUs repaired per ack-driven pass (window-limited repair).
    repair_limit_tpdus: usize,
    /// Sticky dead-peer verdict: once declared, every later pump repeats it.
    dead: Option<TransportError>,
    /// The peer's last back-pressure signal (from the newest ack). While
    /// true, repair passes and due timers defer instead of retransmitting.
    peer_pressure: bool,
    /// Timer/shedding counters.
    stats: ReliabilityStats,
    /// Observability sink (no-op by default).
    obs: Arc<dyn ObsSink>,
    /// Cached `obs.enabled()` so the disabled path costs one branch.
    obs_on: bool,
    /// TPDU starts with an open `repair` span (RTO fired, ack still
    /// outstanding). Populated only when `obs_on`.
    repairing: std::collections::HashSet<u64>,
    /// Periodic health aggregation and threshold rules (opt-in).
    watchdog: Option<Watchdog>,
    /// Typed health events the watchdog has emitted, oldest first. Drained
    /// by [`Self::take_health_events`].
    health_events: Vec<HealthEvent>,
    /// Reused by every pump: the TPDUs it sent, each with whether it went
    /// out before (Karn's rule); the starts its timers retransmit; the
    /// inbound ack and its encoding.
    sent: Vec<(u64, bool)>,
    due: Vec<u64>,
    ack: AckInfo,
    ack_bytes: Vec<u8>,
    /// Reused by every ingest: the receiver's events.
    events: Vec<RxEvent>,
}

impl Session {
    /// Creates an endpoint sending on `local` and receiving the connection
    /// described by `remote`.
    pub fn new(
        local: SenderConfig,
        remote: ConnectionParams,
        remote_layout: InvariantLayout,
        mode: DeliveryMode,
        capacity_elements: u64,
    ) -> Self {
        Session {
            mtu: local.mtu,
            local_conn: local.params.conn_id,
            tx: Sender::new(local),
            rx: Receiver::new(mode, remote, remote_layout, capacity_elements),
            inbound_ack: None,
            transmitted_once: false,
            rto: RetransmitTimer::new(RtoConfig::default()),
            clock: 0,
            builder: PacketBuilder::new(local.mtu),
            ends: Vec::new(),
            backlog: VecDeque::new(),
            max_burst_packets: 256,
            repair_limit_tpdus: 64,
            dead: None,
            peer_pressure: false,
            stats: ReliabilityStats::default(),
            obs: chunks_obs::null(),
            obs_on: false,
            repairing: std::collections::HashSet::new(),
            watchdog: None,
            health_events: Vec::new(),
            sent: Vec::new(),
            due: Vec::new(),
            ack: AckInfo::default(),
            ack_bytes: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Attaches an observability sink to the session and its receiver.
    /// Metrics and events flow only while `sink.enabled()` is true.
    pub fn with_obs(mut self, sink: Arc<dyn ObsSink>) -> Self {
        self.rx.set_obs(sink.clone());
        self.obs_on = sink.enabled();
        self.obs = sink;
        self
    }

    /// Arms the periodic health watchdog: every `cfg.interval_ns` of
    /// virtual time, [`Self::pump_into`] aggregates a [`HealthReport`] and
    /// runs the threshold rules; any [`HealthEvent`]s they emit accumulate
    /// until [`Self::take_health_events`] drains them.
    pub fn with_watchdog(mut self, cfg: WatchdogConfig) -> Self {
        self.watchdog = Some(Watchdog::new(cfg));
        self
    }

    /// Aggregates the session's current health into one report stamped at
    /// the virtual clock: receiver delivery/corruption counters, budget
    /// occupancy, RTO state, and the emit backlog depth.
    pub fn health_report(&self) -> HealthReport {
        let rx = self.rx.stats;
        HealthReport {
            at_ns: self.clock,
            live_conns: 1,
            admissions: 0,
            evictions: 0,
            refusals: 0,
            under_pressure: self.peer_pressure,
            held_bytes: rx.buffered_bytes,
            shed_bytes: rx.shed_bytes,
            timer_retransmits: self.stats.timer_retransmits,
            rto_base_ns: self.rto.base_rto_ns(),
            queue_depth: self.backlog.len() as u64,
            tpdus_delivered: rx.tpdus_delivered,
            tpdus_failed: rx.tpdus_failed,
        }
    }

    /// Drains the typed health events the watchdog has emitted so far.
    pub fn take_health_events(&mut self) -> Vec<HealthEvent> {
        std::mem::take(&mut self.health_events)
    }

    /// Replaces the retransmission-timer configuration (call before the
    /// first transmission).
    pub fn with_rto(mut self, cfg: RtoConfig) -> Self {
        self.rto = RetransmitTimer::new(cfg);
        self
    }

    /// Overrides the per-pump burst cap (packets) and the per-pass repair
    /// limit (TPDUs).
    pub fn with_burst_limits(
        mut self,
        max_burst_packets: usize,
        repair_limit_tpdus: usize,
    ) -> Self {
        self.max_burst_packets = max_burst_packets.max(1);
        self.repair_limit_tpdus = repair_limit_tpdus.max(1);
        self
    }

    /// Queues application data on the outbound stream.
    pub fn send(&mut self, data: &[u8], x_id: u32, close: bool) {
        self.tx.submit_simple(data, x_id, close);
        // New data means the window must go out (again).
        self.transmitted_once = false;
    }

    /// The verified inbound data the application has not released yet, as
    /// at most two slices of the receive ring, in order.
    pub fn readable(&self) -> (&[u8], &[u8]) {
        self.rx.readable()
    }

    /// Hands the first `elements` readable elements back: the receive
    /// window slides past them.
    pub fn release(&mut self, elements: u64) {
        self.rx.release(elements);
    }

    /// Verified inbound prefix, in elements.
    pub fn received_elements(&self) -> u64 {
        self.rx.verified_prefix()
    }

    /// True when everything we sent has been acknowledged.
    pub fn outbound_done(&self) -> bool {
        self.tx.pending_tpdus() == 0
    }

    /// Inbound receiver statistics.
    pub fn rx_stats(&self) -> crate::receiver::RxStats {
        self.rx.stats
    }

    /// Snapshot of the reliability counters.
    pub fn reliability(&self) -> ReliabilityStats {
        ReliabilityStats {
            rtt_samples: self.rto.samples,
            base_rto_ns: self.rto.base_rto_ns(),
            ..self.stats
        }
    }

    /// Advances the virtual clock to `now` and appends the next batch of
    /// packets to `out`: outbound data — the first transmission, a
    /// selective repair driven by the last ack received, and a
    /// retransmission of each unacked TPDU whose RTO expired (identical
    /// labels, §3.3) — with the current inbound ack piggybacked onto it
    /// (module docs). At most the burst cap's packets leave per call; the
    /// rest wait for the next. When a TPDU's retry budget empties, the
    /// configured [`DegradePolicy`] decides between shedding it (the window
    /// keeps moving; see [`ReliabilityStats::shed_tpdus`]) and the sticky
    /// [`TransportError::PeerUnreachable`] verdict.
    pub fn pump_into(&mut self, now: u64, out: &mut Vec<Packet>) -> Result<(), TransportError> {
        if let Some(err) = &self.dead {
            return Err(err.clone());
        }
        self.clock = self.clock.max(now);
        if self.obs_on {
            self.obs.counter("transport.session.pumps", 1);
            self.obs
                .observe("transport.rto.base_rto_ns", self.rto.base_rto_ns());
        }
        if self.watchdog.as_ref().is_some_and(|wd| wd.due(self.clock)) {
            let report = self.health_report();
            let obs = Arc::clone(&self.obs);
            if let Some(wd) = self.watchdog.as_mut() {
                self.health_events.extend(wd.tick(&report, &*obs));
            }
        }
        let queued = self.backlog.len();
        let packed = self.pack_pump(self.clock);
        // Burst cap: everything queues, at most `max_burst_packets` leave. A
        // pump that fails sends nothing of what it packed.
        let whole = self.builder.take_bytes().into();
        self.backlog.extend(slices(whole, &self.ends));
        self.ends.clear();
        packed.inspect_err(|_| self.backlog.truncate(queued))?;
        let take = self.backlog.len().min(self.max_burst_packets);
        out.extend(self.backlog.drain(..take));
        self.stats.burst_deferrals += self.backlog.len() as u64;
        if self.obs_on {
            self.obs
                .counter("transport.session.packets_emitted", take as u64);
            self.obs.counter(
                "transport.session.burst_deferrals",
                self.backlog.len() as u64,
            );
        }
        Ok(())
    }

    /// What a pump at `now` sends, placed through the pump's engine or (a
    /// fresh submit's packets but its last) queued as they are.
    fn pack_pump(&mut self, now: u64) -> Result<(), TransportError> {
        self.sent.clear();
        if !self.transmitted_once {
            self.transmitted_once = true;
            let emit = &mut |b: &mut PacketBuilder| end_packet(b, &mut self.ends);
            self.tx
                .pack_pending(&mut self.builder, emit, &mut self.backlog)?;
            // A TPDU that was already armed is going out again.
            let rto = &self.rto;
            let starts = self.tx.pending_starts();
            self.sent
                .extend(starts.map(|s| (s, rto.rto_for(s).is_some())));
        } else if let Some(ack) = self.inbound_ack.take() {
            // The ack was applied when it arrived; here it only drives repair.
            if ack.pressure {
                // The peer's budget is near exhaustion: a repair pass now
                // would only feed bytes to the shedder. Defer it; the next
                // unpressured ack re-triggers selective repair.
                self.stats.pressure_deferrals += 1;
                if self.obs_on {
                    self.obs.counter("transport.session.pressure_deferrals", 1);
                }
            } else {
                let (sent, b) = (&mut self.sent, &mut self.builder);
                let emit = &mut |b: &mut PacketBuilder| end_packet(b, &mut self.ends);
                let (limit, scratch) = (self.repair_limit_tpdus, &mut Scratch::default());
                let repaired = |s| sent.push((s, true));
                self.tx.retransmissions += self
                    .tx
                    .pack_repair(&ack, limit, b, emit, scratch, repaired)?;
            }
        }

        if self.peer_pressure {
            // Back-pressure: push due timers forward without consuming
            // retries — deferral, not decay, so the retry budget is intact
            // when the pressure clears.
            let deferred = self.rto.defer_due(now).len() as u64;
            self.stats.pressure_deferrals += deferred;
            if self.obs_on && deferred > 0 {
                let name = "transport.session.pressure_deferrals";
                self.obs.counter(name, deferred);
            }
        } else {
            self.due.clear();
            for verdict in self.rto.poll(now) {
                match verdict {
                    // This pump already packed the TPDU (the ack-driven
                    // repair pass, or a first transmission that resends
                    // it): it goes out once, and the `sent` loop below
                    // re-arms it. The timer backed off all the same.
                    TimerVerdict::Retransmit(start)
                        if self.sent.iter().any(|&(s, _)| s == start) => {}
                    TimerVerdict::Retransmit(start) => {
                        self.due.push(start);
                        self.stats.timer_retransmits += 1;
                        if self.obs_on {
                            self.obs.counter("transport.rto.timer_retransmits", 1);
                            self.obs.event(
                                now,
                                Event::RetransmitFired {
                                    conn_id: self.local_conn,
                                    start: start as u32,
                                    retries: self.rto.retries_for(start).unwrap_or(0),
                                },
                            );
                            // The repair span runs from the first timer fire
                            // to the ack that finally repairs the TPDU.
                            if self.repairing.insert(start) {
                                let labels = Labels::new(self.local_conn, start as u32, 0);
                                self.obs.span_open(now, SpanId::new(labels, Stage::Repair));
                            }
                            // `poll` already backed the timer off; record the
                            // RTO the re-armed entry is now running under.
                            if let Some(rto_ns) = self.rto.rto_for(start) {
                                self.obs.observe("transport.rto.backoff_rto_ns", rto_ns);
                                self.obs.event(
                                    now,
                                    Event::BackoffApplied {
                                        conn_id: self.local_conn,
                                        start: start as u32,
                                        rto_ns,
                                    },
                                );
                            }
                        }
                        // `poll` already backed the timer off and re-armed.
                    }
                    TimerVerdict::Exhausted {
                        start,
                        retries,
                        elapsed_ns,
                    } => match self.rto.config().policy {
                        DegradePolicy::Shed => {
                            if self.tx.abandon(start) {
                                // What this pump already packed of it goes
                                // out, but is not armed again below.
                                self.sent.retain(|&(s, _)| s != start);
                                self.stats.shed_tpdus += 1;
                                if self.obs_on {
                                    self.obs.counter("transport.rto.shed_tpdus", 1);
                                    self.obs.event(
                                        now,
                                        Event::VerdictReached {
                                            conn_id: self.local_conn,
                                            verdict: "shed",
                                            start: start as u32,
                                        },
                                    );
                                }
                            }
                        }
                        DegradePolicy::Abort => {
                            let err = TransportError::PeerUnreachable {
                                conn_id: self.local_conn,
                                tpdu_start: start,
                                retries,
                                elapsed_ns,
                            };
                            self.dead = Some(err.clone());
                            if self.obs_on {
                                self.obs.counter("transport.session.dead_verdicts", 1);
                                self.obs.event(
                                    now,
                                    Event::VerdictReached {
                                        conn_id: self.local_conn,
                                        verdict: "peer-unreachable",
                                        start: start as u32,
                                    },
                                );
                                // The sticky verdict is the canonical
                                // degradation trigger: an always-on sink
                                // captures its flight-recorder postmortem
                                // here.
                                self.obs.degraded(now, "peer-unreachable", self.local_conn);
                            }
                            return Err(err);
                        }
                    },
                }
            }
            // Every due TPDU is retransmitted in one pass.
            let (b, scratch) = (&mut self.builder, &mut Scratch::default());
            let emit = &mut |b: &mut PacketBuilder| end_packet(b, &mut self.ends);
            let retransmitted = self.tx.pack_retransmit(&self.due, b, emit, scratch)?;
            self.tx.retransmissions += retransmitted;
        }

        // Arm (or re-arm) the timer for everything this call sent. This runs
        // after the poll above so a TPDU armed now cannot fire in the same
        // call it went out in.
        for &(s, retransmission) in &self.sent {
            if self.obs_on {
                // Mark the emission; repeat markers on the same labels are
                // the lineage view of retransmission.
                let id = SpanId::new(Labels::new(self.local_conn, s as u32, 0), Stage::Emit);
                self.obs.span_open(now, id);
                self.obs.span_close(now, id);
            }
            self.rto.on_send(s, now, retransmission);
        }

        // Piggyback the current state of the inbound stream, last. Failed
        // groups are cleared so their retransmissions verify afresh. An ack
        // too long for one packet keeps the entries nearest its cumulative
        // point: a dropped SACK, gap or `need_ed` entry costs a
        // retransmission, never a false acknowledgment.
        for s in self.rx.failed_starts() {
            self.rx.reset_group(s);
        }
        self.rx.make_ack_into(&mut self.ack);
        let room = self.mtu.saturating_sub(WIRE_HEADER_LEN);
        self.ack_bytes.clear();
        self.ack
            .within(room.min(u16::MAX as usize))
            .encode_into(&mut self.ack_bytes);
        let label = ack::label(self.rx.params().conn_id, self.ack_bytes.len());
        let emit = |b: &mut PacketBuilder| end_packet(b, &mut self.ends);
        self.builder.place(label, &self.ack_bytes, emit)?;
        end_packet(&mut self.builder, &mut self.ends);
        Ok(())
    }

    /// Ingests a packet from the peer, appending the application's events
    /// to `out`: inbound data feeds the receiver, and an ack labelled with
    /// the outbound `C.ID` feeds the sender (disarming timers and, for
    /// never-retransmitted TPDUs, contributing RTT samples).
    pub fn handle_packet_into(&mut self, packet: &Packet, now: u64, out: &mut Vec<RxEvent>) {
        self.clock = self.clock.max(now);
        let mut events = std::mem::take(&mut self.events);
        self.rx.handle_packet_into(packet, now, &mut events);
        for event in events.drain(..) {
            match event {
                RxEvent::Acked { conn_id, ack } if conn_id == self.local_conn => {
                    let samples_before = self.rto.samples;
                    for start in self.tx.handle_ack(&ack) {
                        if self.obs_on && self.repairing.remove(&start) {
                            let labels = Labels::new(self.local_conn, start as u32, 0);
                            self.obs
                                .span_close(self.clock, SpanId::new(labels, Stage::Repair));
                        }
                        self.rto.on_ack(start, self.clock);
                    }
                    if self.obs_on {
                        let samples = self.rto.samples - samples_before;
                        self.obs.counter("transport.rto.rtt_samples", samples);
                    }
                    // Kept only to drive the next repair pass.
                    self.peer_pressure = ack.pressure;
                    self.inbound_ack = Some(*ack);
                }
                // It acknowledges nothing sent here.
                RxEvent::Acked { .. } => {}
                other => out.push(other),
            }
        }
        self.events = events;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::chunk_walk;
    use chunks_core::label::ChunkType;
    use proptest::prelude::*;

    fn params(conn_id: u32) -> ConnectionParams {
        ConnectionParams {
            conn_id,
            elem_size: 1,
            initial_csn: 0,
            tpdu_elements: 32,
        }
    }

    fn layout() -> InvariantLayout {
        InvariantLayout::with_data_symbols(2048)
    }

    fn endpoint(local: u32, remote: u32) -> Session {
        Session::new(
            SenderConfig {
                params: params(local),
                layout: layout(),
                mtu: 256,
                min_tpdu_elements: 4,
                max_tpdu_elements: 256,
            },
            params(remote),
            layout(),
            DeliveryMode::Immediate,
            1 << 12,
        )
    }

    /// The packets one pump at `now` emits.
    fn pump(s: &mut Session, now: u64) -> Vec<Packet> {
        let mut out = Vec::new();
        s.pump_into(now, &mut out).unwrap();
        out
    }

    /// Hands `p` to `s` at `now`, dropping the events.
    fn hear(s: &mut Session, p: &Packet, now: u64) {
        s.handle_packet_into(p, now, &mut Vec::new());
    }

    /// Everything readable, copied out.
    fn readable(s: &Session) -> Vec<u8> {
        let (head, tail) = s.readable();
        [head, tail].concat()
    }

    /// A packet holding `ack` alone, labelled with `conn_id`.
    fn ack_packet(ack: &AckInfo, conn_id: u32) -> Packet {
        let chunk = ack.to_chunk(conn_id);
        let mut bytes = Vec::new();
        chunks_core::wire::encode_header(&chunk.header, &mut bytes);
        bytes.extend_from_slice(&chunk.payload);
        Packet {
            bytes: bytes.into(),
        }
    }

    /// An ack claiming everything up to 1 MiB.
    fn claims_all() -> AckInfo {
        AckInfo {
            cumulative: 1 << 20,
            ..AckInfo::default()
        }
    }

    /// Runs rounds of alternating exchange with per-packet loss decided by
    /// `lose(round, index)`. The clock ticks a nanosecond a round, so no
    /// retransmission timer fires: only acks drive repair.
    fn converse(
        a: &mut Session,
        b: &mut Session,
        mut lose: impl FnMut(u32, usize) -> bool,
        max_rounds: u32,
    ) -> u32 {
        for round in 0..max_rounds {
            for (i, p) in pump(a, round as u64).iter().enumerate() {
                if !lose(round, i) {
                    hear(b, p, round as u64);
                }
            }
            for (i, p) in pump(b, round as u64).iter().enumerate() {
                if !lose(round, i + 1000) {
                    hear(a, p, round as u64);
                }
            }
            if a.outbound_done() && b.outbound_done() {
                return round + 1;
            }
        }
        max_rounds
    }

    #[test]
    fn clean_bidirectional_exchange() {
        let mut a = endpoint(1, 2);
        let mut b = endpoint(2, 1);
        let ping = b"ping from a, with some padding to span TPDUs....";
        a.send(ping, 0xA, false);
        b.send(b"pong from b", 0xB, false);
        let rounds = converse(&mut a, &mut b, |_, _| false, 8);
        assert!(rounds <= 3, "clean exchange settles quickly ({rounds})");
        assert_eq!(readable(&b), ping.as_slice());
        assert_eq!(readable(&a), b"pong from b");
    }

    #[test]
    fn acks_ride_data_packets() {
        let mut a = endpoint(1, 2);
        let mut b = endpoint(2, 1);
        a.send(&[0x11; 64], 0xA, false);
        b.send(&[0x22; 64], 0xB, false);
        // A transmits; B hears it, then B's next batch carries both B's
        // data and the ack for A — in shared packets.
        for p in pump(&mut a, 0) {
            hear(&mut b, &p, 0);
        }
        let batch = pump(&mut b, 0);
        let mut saw_combined = false;
        for p in &batch {
            let types: Vec<_> = chunk_walk(p).unwrap().map(|c| c.header.ty).collect();
            let has_data = types.contains(&ChunkType::Data);
            let has_ack = types.contains(&ChunkType::Ack);
            saw_combined |= has_data && has_ack;
        }
        assert!(saw_combined, "ack must share an envelope with data");
    }

    #[test]
    fn lossy_conversation_converges() {
        let mut a = endpoint(1, 2);
        let mut b = endpoint(2, 1);
        let msg_a: Vec<u8> = (0..512).map(|i| i as u8).collect();
        let msg_b: Vec<u8> = (0..384).map(|i| (i * 5) as u8).collect();
        a.send(&msg_a, 0xA, false);
        b.send(&msg_b, 0xB, false);
        // Deterministic pseudo-random loss, ~25%.
        let mut state = 0x1234u64;
        let rounds = converse(
            &mut a,
            &mut b,
            move |_, _| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33).is_multiple_of(4)
            },
            40,
        );
        assert!(rounds < 40, "did not converge");
        assert_eq!(readable(&b), msg_a);
        assert_eq!(readable(&a), msg_b);
    }

    #[test]
    fn one_way_session_acks_without_data() {
        // B has nothing to send: its batches are pure-ack packets.
        let mut a = endpoint(1, 2);
        let mut b = endpoint(2, 1);
        a.send(&[7u8; 100], 0xA, false);
        let rounds = converse(&mut a, &mut b, |_, _| false, 8);
        assert!(rounds <= 3);
        assert_eq!(b.received_elements(), 100);
        assert!(a.outbound_done());
    }

    #[test]
    fn an_ack_longer_than_a_packet_is_trimmed_and_the_transfer_completes() {
        // 500 TPDUs of 8 elements at MTU 1500, the first packet of the first
        // transmission lost: the receiver verifies ~480 TPDUs above the
        // hole, whose SACKs alone (8 B each) are more than a packet holds.
        // The ack must shrink to fit, not fail every pump.
        const MTU: usize = 1500;
        let p = |conn_id| ConnectionParams {
            tpdu_elements: 8,
            ..params(conn_id)
        };
        let session = |local, remote| {
            let local = SenderConfig {
                params: p(local),
                layout: layout(),
                mtu: MTU,
                min_tpdu_elements: 4,
                max_tpdu_elements: 8,
            };
            Session::new(local, p(remote), layout(), DeliveryMode::Immediate, 1 << 13)
        };
        let (mut a, mut b) = (session(1, 2), session(2, 1));
        let message: Vec<u8> = (0..4000u32).map(|i| (i * 7) as u8).collect();
        a.send(&message, 0xA, false);
        for round in 0..16u64 {
            let now = round * 1_000_000;
            for (i, packet) in pump(&mut a, now).iter().enumerate() {
                assert!(packet.len() <= MTU);
                if round > 0 || i > 0 {
                    hear(&mut b, packet, now);
                }
            }
            if round == 0 {
                assert!(b.rx.make_ack().sacks.len() >= 400);
            }
            for packet in pump(&mut b, now) {
                assert!(packet.len() <= MTU);
                hear(&mut a, &packet, now);
            }
            if a.outbound_done() {
                break;
            }
        }
        assert!(a.outbound_done());
        assert_eq!(readable(&b), message);
    }

    #[test]
    fn acks_are_labelled_with_and_applied_for_the_acknowledged_connection() {
        // A sends 64 B on connection 1, and none of it arrives. An ack
        // chunk labelled with another connection, claiming everything,
        // acknowledges nothing here.
        let mut a = endpoint(1, 2);
        a.send(&[0x11; 64], 0xA, false);
        pump(&mut a, 0);
        let ack_packet = |conn_id| ack_packet(&claims_all(), conn_id);
        hear(&mut a, &ack_packet(99), 1);
        assert!(
            !a.outbound_done(),
            "an ack for connection 99 cleared connection 1"
        );
        hear(&mut a, &ack_packet(2), 1);
        assert!(
            !a.outbound_done(),
            "an ack for connection 2 cleared connection 1"
        );
        hear(&mut a, &ack_packet(1), 1);
        assert!(a.outbound_done());
        // B, which receives connection 1, labels its acks 1.
        let mut b = endpoint(2, 1);
        let labels: Vec<_> = pump(&mut b, 0)
            .iter()
            .flat_map(|p| chunk_walk(p).unwrap().map(|c| c.header))
            .filter(|h| h.ty == ChunkType::Ack)
            .map(|h| h.conn.id)
            .collect();
        assert_eq!(labels, [1]);
    }

    #[test]
    fn an_ack_is_applied_once_so_data_sent_after_it_stays_pending_and_armed() {
        // A hostile ack claims everything A will ever send, then A sends
        // more. The ack was applied when it arrived; the pumps after it must
        // not apply it again to the new TPDUs.
        let mut a = endpoint(1, 2);
        a.send(&[0x11; 64], 0xA, false);
        pump(&mut a, 0);
        hear(&mut a, &ack_packet(&claims_all(), 1), 1);
        assert!(a.outbound_done());
        a.send(&[0x22; 64], 0xA, false);
        pump(&mut a, 2);
        pump(&mut a, 3);
        assert_eq!(a.tx.unacked_starts(), [64, 96]);
        assert_eq!(a.rto.armed(), [64, 96]);
        // Past each expiry, both TPDUs go out again under their labels: every
        // fire is a retransmission.
        for (fires, now) in [(1, 10_000_000), (2, 30_000_000), (3, 70_000_000)] {
            let resent: Vec<u64> = pump(&mut a, now)
                .iter()
                .flat_map(|p| chunk_walk(p).unwrap().map(|c| c.header))
                .filter(|h| h.ty == ChunkType::ErrorDetection)
                .map(|h| h.conn.sn as u64 - h.tpdu.sn as u64)
                .collect();
            assert_eq!(resent, [64, 96], "fire {fires}");
            assert_eq!(a.reliability().timer_retransmits, 2 * fires);
            assert_eq!(a.rto.armed(), [64, 96]);
        }
    }

    #[test]
    fn a_tpdu_the_repair_pass_packed_is_not_packed_again_by_its_due_timer() {
        // A's two TPDUs go out at 0. At 20 ms, past their first timeout, an
        // ack nacks both whole: the pump's repair pass packs both, and then
        // both timers are due.
        let mut a = endpoint(1, 2);
        a.send(&[0x33; 64], 0xA, false);
        pump(&mut a, 0);
        let nack = AckInfo {
            gaps: vec![(0, 64)],
            ..AckInfo::default()
        };
        hear(&mut a, &ack_packet(&nack, 1), 20_000_000);
        let ed_starts: Vec<u64> = pump(&mut a, 20_000_000)
            .iter()
            .flat_map(|p| chunk_walk(p).unwrap().map(|c| c.header))
            .filter(|h| h.ty == ChunkType::ErrorDetection)
            .map(|h| h.conn.sn as u64 - h.tpdu.sn as u64)
            .collect();
        assert_eq!(ed_starts, [0, 32], "each TPDU is packed once");
        // Both are re-armed, and the timer pass retransmitted neither.
        assert_eq!(a.rto.armed(), [0, 32]);
        assert_eq!(a.reliability().timer_retransmits, 0);
    }

    /// One step of a session script: A sends, pumps to B, or hears B's
    /// pump or a hostile ack; the clock moves on.
    #[derive(Clone, Debug)]
    enum Step {
        Send(usize),
        /// A pumps; B hears each packet whose bit in the mask is clear.
        PumpA(u32),
        /// B pumps; A hears each packet whose bit in the mask is clear.
        PumpB(u32),
        /// An ack for A's connection: a cumulative point, SACKs picked from
        /// A's pending starts, and the pressure bit.
        Hostile(u64, Vec<usize>, bool),
        Tick(u64),
    }

    fn script() -> impl Strategy<Value = Vec<Step>> {
        // A quarter of the packets are lost, and a quarter of the hostile
        // acks signal pressure. B pumps rarely, so timers fire and exhaust.
        let picks = prop::collection::vec(any::<usize>(), 0..4);
        let step = (0u8..8, any::<u64>(), picks).prop_map(|(kind, n, picks)| match kind {
            0 => Step::Send(1 + n as usize % 199),
            1 | 2 => Step::PumpA(n as u32 & (n >> 32) as u32),
            3 => Step::PumpB(n as u32 & (n >> 32) as u32),
            4 => Step::Hostile(n % 1024, picks, n >> 40 & 3 == 0),
            _ => Step::Tick(n % 8_000_000),
        });
        prop::collection::vec(step, 1..120)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 256 } else { 2560 }))]

        #[test]
        fn the_timer_arms_exactly_the_pending_tpdus_that_went_out(
            script in script(),
            shed in any::<bool>(),
        ) {
            // A short retry budget, so TPDUs exhaust under both policies.
            let rto = RtoConfig {
                initial_rto_ns: 2_000_000,
                min_rto_ns: 1_000_000,
                max_rto_ns: 8_000_000,
                max_retries: 1,
                policy: if shed { DegradePolicy::Shed } else { DegradePolicy::Abort },
            };
            let mut a = endpoint(1, 2).with_rto(rto);
            let mut b = endpoint(2, 1);
            // A's pending TPDUs that no pump has sent yet.
            let mut unsent = Vec::new();
            let mut now = 0;
            for step in &script {
                match step {
                    &Step::Send(len) => {
                        let before = a.tx.pending_tpdus();
                        a.send(&vec![0x5A; len], 0xA, false);
                        unsent.extend(a.tx.pending_starts().skip(before));
                    }
                    &Step::PumpA(lost) => {
                        let mut out = Vec::new();
                        if a.pump_into(now, &mut out).is_err() {
                            // Dead: an exhausted TPDU left the timer but not
                            // the sender, and no pump runs again.
                            break;
                        }
                        unsent.clear();
                        for (i, p) in out.iter().enumerate() {
                            if lost >> (i % 32) & 1 == 0 {
                                hear(&mut b, p, now);
                            }
                        }
                        let n = b.readable().0.len() + b.readable().1.len();
                        b.release(n as u64);
                    }
                    &Step::PumpB(lost) => {
                        for (i, p) in pump(&mut b, now).iter().enumerate() {
                            if lost >> (i % 32) & 1 == 0 {
                                hear(&mut a, p, now);
                            }
                        }
                    }
                    Step::Hostile(cumulative, picks, pressure) => {
                        let pending = a.tx.unacked_starts();
                        let ack = AckInfo {
                            cumulative: *cumulative,
                            sacks: picks
                                .iter()
                                .filter(|_| !pending.is_empty())
                                .map(|&i| pending[i % pending.len()])
                                .collect(),
                            pressure: *pressure,
                            ..AckInfo::default()
                        };
                        hear(&mut a, &ack_packet(&ack, 1), now);
                    }
                    &Step::Tick(dt) => now += dt,
                }
                let sent: Vec<u64> = a.tx.pending_starts().filter(|s| !unsent.contains(s)).collect();
                prop_assert_eq!(a.rto.armed(), sent, "after {:?}", step);
            }
        }
    }

    #[test]
    fn late_send_reopens_transmission() {
        let mut a = endpoint(1, 2);
        let mut b = endpoint(2, 1);
        a.send(&[1u8; 32], 0xA, false);
        converse(&mut a, &mut b, |_, _| false, 8);
        assert!(a.outbound_done());
        // A second message later on the same session.
        a.send(&[2u8; 32], 0xA2, false);
        let rounds = converse(&mut a, &mut b, |_, _| false, 8);
        assert!(rounds <= 3);
        assert_eq!(b.received_elements(), 64);
        assert_eq!(readable(&b)[32..], [2u8; 32]);
    }

    #[test]
    fn a_stream_four_times_the_ring_completes_through_release() {
        // 16 KiB through 4096-element rings, on a clean loopback with the
        // clock ticking a millisecond a round. Data past the ring fails its
        // group until the application releases what it read; the resets
        // and repairs carry the rest. Never released, the ring stops the
        // transfer for good.
        let message: Vec<u8> = (0..16 << 10).map(|i: u32| (i * 13 + 5) as u8).collect();
        let (mut a, mut b) = (endpoint(1, 2), endpoint(2, 1));
        a.send(&message, 0xA, false);
        let mut read = Vec::new();
        for round in 0..64u64 {
            let now = round * 1_000_000;
            for p in pump(&mut a, now) {
                hear(&mut b, &p, now);
            }
            let (head, tail) = b.readable();
            read.extend_from_slice(head);
            read.extend_from_slice(tail);
            b.release((head.len() + tail.len()) as u64);
            for p in pump(&mut b, now) {
                hear(&mut a, &p, now);
            }
            if a.outbound_done() {
                break;
            }
        }
        assert!(a.outbound_done(), "stalled at {} B", read.len());
        assert_eq!(read, message);
    }
}
