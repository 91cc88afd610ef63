//! A full-duplex conversation endpoint.
//!
//! §2: "we assume that data streams are uni-directional and that
//! bi-directional streams are constructed with two uni-directional streams."
//! A [`Session`] is one endpoint of such a pair: a [`Sender`] for the
//! outbound connection, a [`Receiver`] for the inbound one, and a
//! [`PacketMux`] that lets acknowledgments for the inbound stream ride the
//! outbound data packets — Appendix A's free piggybacking.

use std::collections::VecDeque;
use std::sync::Arc;

use chunks_core::error::CoreError;
use chunks_core::packet::{unpack, Packet};
use chunks_obs::{
    Event, HealthEvent, HealthReport, Labels, ObsSink, SpanId, Stage, Watchdog, WatchdogConfig,
};

use crate::ack::AckInfo;
use crate::conn::ConnectionParams;
use crate::mux::PacketMux;
use crate::receiver::{DeliveryMode, Receiver, RxEvent};
use crate::rto::{DegradePolicy, RetransmitTimer, RtoConfig, TimerVerdict, TransportError};
use crate::sender::{Sender, SenderConfig};
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
    /// TPDUs retransmitted because their timer fired (no ack arrived).
    /// Registry twin: `transport.rto.timer_retransmits`.
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
    /// Last ack received for our outbound stream, pending a repair pass.
    inbound_ack: Option<AckInfo>,
    /// Whether the first full transmission already happened.
    transmitted_once: bool,
    /// Timer-driven retransmission state (virtual clock).
    rto: RetransmitTimer,
    /// The session's virtual clock, advanced by [`Self::pump`] and
    /// [`Self::handle_packet`] (monotonic).
    clock: u64,
    /// Packets built but withheld by the per-pump burst cap.
    backlog: VecDeque<Packet>,
    /// Maximum packets emitted per [`Self::pump`] call.
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
    /// virtual time, [`Self::pump`] aggregates a [`HealthReport`] and runs
    /// the threshold rules; any [`HealthEvent`]s they emit accumulate until
    /// [`Self::take_health_events`] drains them.
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
            timer_fires: self.rto.fires,
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

    /// Sets the inbound receiver's overlap policy (call before data flows).
    pub fn with_overlap_policy(mut self, policy: chunks_vreasm::OverlapPolicy) -> Self {
        self.rx.set_policy(policy);
        self
    }

    /// Installs a resource budget on the inbound receiver.
    pub fn with_rx_budget(mut self, budget: crate::budget::ResourceBudget) -> Self {
        self.rx.set_budget(budget);
        self
    }

    /// Typed budget-exhaustion report from the inbound receiver, once any
    /// bytes have been shed.
    pub fn budget_error(&self) -> Option<TransportError> {
        self.rx.budget_error()
    }

    /// The peer's most recent back-pressure signal.
    pub fn peer_pressure(&self) -> bool {
        self.peer_pressure
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

    /// The inbound application data received and verified so far.
    pub fn received(&self) -> &[u8] {
        self.rx.app_data()
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

    /// The session's virtual clock.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Snapshot of the reliability counters.
    pub fn reliability(&self) -> ReliabilityStats {
        ReliabilityStats {
            rtt_samples: self.rto.samples,
            base_rto_ns: self.rto.base_rto_ns(),
            ..self.stats
        }
    }

    /// Builds the next batch of packets to put on the wire: outbound data
    /// (initial transmission, or a selective repair driven by the last ack
    /// we received) with the current inbound ack piggybacked onto it.
    ///
    /// This is the purely reactive half of the sender — lost acks stall it.
    /// Timer-driven recovery lives in [`Self::pump`].
    pub fn poll_transmit(&mut self) -> Result<Vec<Packet>, CoreError> {
        match self.emit(false) {
            Ok(packets) => Ok(packets),
            Err(TransportError::Core(e)) => Err(e),
            Err(other) => unreachable!("timer verdicts are disabled on this path: {other}"),
        }
    }

    /// Advances the virtual clock to `now` and builds the next batch of
    /// packets: everything [`Self::poll_transmit`] does *plus* timer-driven
    /// retransmission of unacked TPDUs whose RTO expired (identical labels,
    /// §3.3). When a TPDU's retry budget empties, the configured
    /// [`DegradePolicy`] decides between shedding it (the window keeps
    /// moving; see [`ReliabilityStats::shed_tpdus`]) and the sticky
    /// [`TransportError::PeerUnreachable`] verdict.
    pub fn pump(&mut self, now: u64) -> Result<Vec<Packet>, TransportError> {
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
        self.emit(true)
    }

    fn emit(&mut self, timers: bool) -> Result<Vec<Packet>, TransportError> {
        let now = self.clock;
        let mut mux = PacketMux::new(self.mtu);
        // TPDUs put on the wire by this call, and whether the send is a
        // retransmission (ambiguous for RTT sampling — Karn's rule).
        let mut sent: Vec<(u64, bool)> = Vec::new();

        if !self.transmitted_once {
            self.transmitted_once = true;
            for p in self.tx.packets_for_pending()? {
                mux.enqueue_chunks(unpack(&p)?);
            }
            for s in self.tx.unacked_starts() {
                // A TPDU that was already armed is going out again.
                let again = self.rto.rto_for(s).is_some();
                sent.push((s, again));
            }
        } else if let Some(ack) = self.inbound_ack.take() {
            self.tx.handle_ack(&ack);
            if ack.pressure {
                // The peer's budget is near exhaustion: a repair pass now
                // would only feed bytes to the shedder. Defer it; the next
                // unpressured ack re-triggers selective repair.
                self.stats.pressure_deferrals += 1;
                if self.obs_on {
                    self.obs.counter("transport.session.pressure_deferrals", 1);
                }
            } else {
                let (packets, repaired) = self
                    .tx
                    .retransmit_for_ack_parts(&ack, self.repair_limit_tpdus)?;
                for p in packets {
                    mux.enqueue_chunks(unpack(&p)?);
                }
                sent.extend(repaired.into_iter().map(|s| (s, true)));
            }
        }

        if timers && self.peer_pressure {
            // Back-pressure: push due timers forward without consuming
            // retries — deferral, not decay, so the retry budget is intact
            // when the pressure clears.
            let deferred = self.rto.defer_due(now);
            if !deferred.is_empty() {
                self.stats.pressure_deferrals += deferred.len() as u64;
                if self.obs_on {
                    self.obs.counter(
                        "transport.session.pressure_deferrals",
                        deferred.len() as u64,
                    );
                }
            }
        } else if timers {
            let fires_before = self.rto.fires;
            let verdicts = self.rto.poll(now);
            if self.obs_on {
                self.obs
                    .counter("transport.rto.timer_fires", self.rto.fires - fires_before);
            }
            for verdict in verdicts {
                match verdict {
                    TimerVerdict::Retransmit(start) => {
                        if !self.tx.is_pending(start) {
                            // Acked or shed since the timer was armed.
                            self.rto.forget(start);
                            continue;
                        }
                        for p in self.tx.retransmit(&[start])? {
                            mux.enqueue_chunks(unpack(&p)?);
                        }
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
                                self.obs.span_open(
                                    now,
                                    SpanId::new(
                                        Labels::new(self.local_conn, start as u32, 0),
                                        Stage::Repair,
                                    ),
                                );
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
        }

        // Arm (or re-arm) the timer for everything this call sent. This runs
        // after the poll above so a TPDU armed now cannot fire in the same
        // call it went out in.
        for (s, retransmission) in sent {
            if self.obs_on {
                // Mark the emission; repeat markers on the same labels are
                // the lineage view of retransmission.
                let id = SpanId::new(Labels::new(self.local_conn, s as u32, 0), Stage::Emit);
                self.obs.span_open(now, id);
                self.obs.span_close(now, id);
            }
            self.rto.on_send(s, now, retransmission);
        }

        // Piggyback the current state of the inbound stream. Failed groups
        // are cleared so their retransmissions verify afresh.
        for s in self.rx.failed_starts() {
            self.rx.reset_group(s);
        }
        mux.enqueue_ack(self.local_conn, &self.rx.make_ack());

        // Burst cap: everything queues, at most `max_burst_packets` leave.
        self.backlog.extend(mux.flush()?);
        let take = self.backlog.len().min(self.max_burst_packets);
        let out: Vec<Packet> = self.backlog.drain(..take).collect();
        self.stats.burst_deferrals += self.backlog.len() as u64;
        if self.obs_on {
            self.obs
                .counter("transport.session.packets_emitted", out.len() as u64);
            self.obs.counter(
                "transport.session.burst_deferrals",
                self.backlog.len() as u64,
            );
        }
        Ok(out)
    }

    /// Ingests a packet from the peer: inbound data feeds the receiver,
    /// acks for our outbound connection feed the sender (disarming timers
    /// and, for never-retransmitted TPDUs, contributing RTT samples).
    pub fn handle_packet(&mut self, packet: &Packet, now: u64) -> Vec<RxEvent> {
        self.clock = self.clock.max(now);
        let mut app_events = Vec::new();
        for event in self.rx.handle_packet(packet, now) {
            match event {
                RxEvent::Acked(ack) => {
                    let samples_before = self.rto.samples;
                    for start in self.tx.handle_ack(&ack) {
                        if self.obs_on && self.repairing.remove(&start) {
                            self.obs.span_close(
                                self.clock,
                                SpanId::new(
                                    Labels::new(self.local_conn, start as u32, 0),
                                    Stage::Repair,
                                ),
                            );
                        }
                        self.rto.on_ack(start, self.clock);
                    }
                    if self.obs_on {
                        self.obs.counter(
                            "transport.rto.rtt_samples",
                            self.rto.samples - samples_before,
                        );
                    }
                    // Remember it for the next repair pass too.
                    self.peer_pressure = ack.pressure;
                    self.inbound_ack = Some(ack);
                }
                other => app_events.push(other),
            }
        }
        app_events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chunks_core::label::ChunkType;

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

    /// Runs rounds of alternating exchange with per-packet loss decided by
    /// `lose(round, index)`.
    fn converse(
        a: &mut Session,
        b: &mut Session,
        mut lose: impl FnMut(u32, usize) -> bool,
        max_rounds: u32,
    ) -> u32 {
        for round in 0..max_rounds {
            let a_out = a.poll_transmit().unwrap();
            for (i, p) in a_out.iter().enumerate() {
                if !lose(round, i) {
                    b.handle_packet(p, round as u64);
                }
            }
            let b_out = b.poll_transmit().unwrap();
            for (i, p) in b_out.iter().enumerate() {
                if !lose(round, i + 1000) {
                    a.handle_packet(p, round as u64);
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
        assert_eq!(&b.received()[..ping.len()], ping.as_slice());
        assert_eq!(&a.received()[..11], b"pong from b");
    }

    #[test]
    fn acks_ride_data_packets() {
        let mut a = endpoint(1, 2);
        let mut b = endpoint(2, 1);
        a.send(&[0x11; 64], 0xA, false);
        b.send(&[0x22; 64], 0xB, false);
        // A transmits; B hears it, then B's next batch carries both B's
        // data and the ack for A — in shared packets.
        for p in a.poll_transmit().unwrap() {
            b.handle_packet(&p, 0);
        }
        let batch = b.poll_transmit().unwrap();
        let mut saw_combined = false;
        for p in &batch {
            let chunks = unpack(p).unwrap();
            let has_data = chunks.iter().any(|c| c.header.ty == ChunkType::Data);
            let has_ack = chunks.iter().any(|c| c.header.ty == ChunkType::Ack);
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
        assert_eq!(&b.received()[..msg_a.len()], &msg_a[..]);
        assert_eq!(&a.received()[..msg_b.len()], &msg_b[..]);
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
        assert_eq!(&b.received()[32..64], &[2u8; 32]);
    }
}
