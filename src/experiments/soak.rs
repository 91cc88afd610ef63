//! Reliability soak: full transfers across an adversarial fault matrix.
//!
//! Every cell of the matrix runs one complete transfer through a faulted
//! medium — targeted ack deletion, on-the-wire label flips, ED
//! duplication, a stalled multipath stripe, or a total ack blackout — on a
//! deterministic virtual clock, and must terminate in bounded virtual time
//! with one of three outcomes:
//!
//! * **delivered** — every byte verified at the receiver;
//! * **aborted** — the typed [`chunks_transport::TransportError`]
//!   dead-peer verdict (`DegradePolicy::Abort`);
//! * **shed** — the retry budget emptied and the window kept moving
//!   without the abandoned TPDUs (`DegradePolicy::Shed`).
//!
//! A run that reaches the tick bound without any of those is a **hang** —
//! the exact livelock the RTO layer exists to make impossible. The same
//! seed must reproduce the same rows bit-for-bit.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use bytes::Bytes;
use chunks_core::packet::Packet;
use chunks_netsim::{ByzantineConfig, ByzantineRouter, LinkConfig, MultipathLink, PacketTransform};
use chunks_obs::{ObsSink, Recorder, DEFAULT_TRACE_CAPACITY};
use chunks_transport::{
    ConnectionParams, DegradePolicy, DeliveryMode, RtoConfig, SenderConfig, Session,
};
use chunks_wsc::InvariantLayout;

/// Virtual time between pump calls.
pub const TICK_NS: u64 = 200_000; // 0.2 ms
/// Livelock bound: no run may need more pumps than this.
pub const MAX_TICKS: u64 = 3_000; // 600 ms of virtual time
/// Bytes transferred per run.
pub const PAYLOAD_BYTES: usize = 2_048;

/// One cell of the fault matrix.
#[derive(Clone, Copy, Debug)]
pub struct SoakScenario {
    /// Scenario label.
    pub name: &'static str,
    /// Byzantine faults on the data direction.
    pub fwd: ByzantineConfig,
    /// Byzantine faults on the ack direction.
    pub rev: ByzantineConfig,
    /// Oblivious random loss on the data direction.
    pub fwd_loss: f64,
    /// Stalled stripe of the forward bundle: `(path, from_ns, until_ns)`.
    pub stall: Option<(usize, u64, u64)>,
    /// What the sender does when a retry budget empties.
    pub policy: DegradePolicy,
}

/// The full matrix: the ack-loss sweep the acceptance criteria name, the
/// Byzantine mutations, a stalled stripe, and both budget-exhaustion
/// policies under a total ack blackout.
pub fn fault_matrix() -> Vec<SoakScenario> {
    let clean = ByzantineConfig::default();
    let base = SoakScenario {
        name: "",
        fwd: clean,
        rev: clean,
        fwd_loss: 0.0,
        stall: None,
        policy: DegradePolicy::Abort,
    };
    let ack = |name, p| SoakScenario {
        name,
        rev: ByzantineConfig::ack_dropper(p),
        ..base
    };
    vec![
        ack("ack-loss-0", 0.0),
        ack("ack-loss-10", 0.10),
        ack("ack-loss-20", 0.20),
        ack("ack-loss-35", 0.35),
        ack("ack-loss-50", 0.50),
        SoakScenario {
            name: "ack-loss-20+data-loss-10",
            rev: ByzantineConfig::ack_dropper(0.20),
            fwd_loss: 0.10,
            ..base
        },
        SoakScenario {
            name: "label-flips",
            fwd: ByzantineConfig {
                flip_tsn: 0.03,
                flip_cid: 0.03,
                flip_len: 0.03,
                ..Default::default()
            },
            rev: ByzantineConfig::ack_dropper(0.10),
            ..base
        },
        SoakScenario {
            name: "ed-duplication",
            fwd: ByzantineConfig {
                ed_duplicate: 0.5,
                ..Default::default()
            },
            ..base
        },
        SoakScenario {
            name: "path-stall",
            stall: Some((1, 0, 50_000_000)),
            ..base
        },
        SoakScenario {
            name: "ack-blackout-abort",
            rev: ByzantineConfig::ack_dropper(1.0),
            ..base
        },
        SoakScenario {
            name: "ack-blackout-shed",
            rev: ByzantineConfig::ack_dropper(1.0),
            policy: DegradePolicy::Shed,
            ..base
        },
    ]
}

/// How a run ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Outcome {
    /// Every byte verified at the receiver.
    Delivered,
    /// Typed dead-peer error surfaced.
    Aborted,
    /// Budget-exhausted TPDUs were shed; the window drained.
    Shed,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Outcome::Delivered => "delivered",
            Outcome::Aborted => "aborted",
            Outcome::Shed => "shed",
        })
    }
}

/// Result of one run.
#[derive(Clone, PartialEq, Debug)]
pub struct SoakRow {
    /// Scenario label.
    pub scenario: &'static str,
    /// RNG seed of the run.
    pub seed: u64,
    /// How the run ended.
    pub outcome: Outcome,
    /// True when the run hit [`MAX_TICKS`] without terminating — a
    /// livelock, which no scenario may produce.
    pub hang: bool,
    /// Bytes verified and delivered at the receiver.
    pub delivered_bytes: u64,
    /// Bytes submitted at the sender.
    pub total_bytes: u64,
    /// Virtual nanoseconds until termination.
    pub elapsed_ns: u64,
    /// Timer-fired retransmissions.
    pub timer_retransmits: u64,
    /// TPDUs shed.
    pub shed_tpdus: u64,
    /// Ack chunks the adversary deleted.
    pub acks_dropped: u64,
    /// Label fields the adversary flipped.
    pub label_flips: u64,
    /// Goodput over the run, MiB per virtual second.
    pub goodput_mibps: f64,
    /// Nonzero observability counters recorded during the run (sorted by
    /// name — the registry snapshot order). Empty when the run was not
    /// observed. Deterministic: the virtual clock drives everything, so the
    /// same seed reproduces the same counters bit-for-bit.
    pub metrics: Vec<(String, u64)>,
}

impl SoakRow {
    /// Delivered fraction in `[0, 1]`.
    pub fn delivered_frac(&self) -> f64 {
        self.delivered_bytes as f64 / self.total_bytes.max(1) as f64
    }

    /// A run is clean when it terminated (no hang) and ended either fully
    /// delivered or with the typed degradation its policy prescribes.
    pub fn terminated_cleanly(&self) -> bool {
        !self.hang
            && match self.outcome {
                Outcome::Delivered => self.delivered_bytes == self.total_bytes,
                Outcome::Aborted | Outcome::Shed => true,
            }
    }
}

/// All rows of one seed's sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct SoakResult {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// One row per scenario.
    pub rows: Vec<SoakRow>,
}

impl SoakResult {
    /// Acceptance: every run terminated cleanly; every pure-ack-loss run at
    /// ≤ 20% still delivered 100%; and the timer provably drove recovery
    /// somewhere in the matrix (the blackout rows guarantee it must).
    pub fn passes(&self) -> bool {
        self.rows.iter().all(SoakRow::terminated_cleanly)
            && self
                .rows
                .iter()
                .filter(|r| matches!(r.scenario, "ack-loss-0" | "ack-loss-10" | "ack-loss-20"))
                .all(|r| r.outcome == Outcome::Delivered)
            && self.rows.iter().map(|r| r.timer_retransmits).sum::<u64>() > 0
    }
}

impl fmt::Display for SoakResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== soak — reliability under adversarial faults (seed {:#x}) ===",
            self.seed
        )?;
        writeln!(
            f,
            "  {:<26} {:>10} {:>6} {:>9} {:>8} {:>6} {:>8} {:>9}",
            "scenario", "outcome", "deliv%", "virt ms", "rto-rtx", "shed", "ack-del", "MiB/s"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<26} {:>10} {:>5.0}% {:>9.1} {:>8} {:>6} {:>8} {:>9.2}{}",
                r.scenario,
                r.outcome.to_string(),
                r.delivered_frac() * 100.0,
                r.elapsed_ns as f64 / 1e6,
                r.timer_retransmits,
                r.shed_tpdus,
                r.acks_dropped,
                r.goodput_mibps,
                if r.hang { "  HANG" } else { "" },
            )?;
        }
        Ok(())
    }
}

/// One end of a closed-loop transfer: 1-byte elements from `C.SN` 0,
/// immediate delivery, and the retry budget's `policy`.
pub(crate) fn endpoint(
    local: u32,
    remote: u32,
    mtu: usize,
    tpdu_elements: u32,
    policy: DegradePolicy,
) -> Session {
    let params = |conn_id| ConnectionParams {
        conn_id,
        elem_size: 1,
        initial_csn: 0,
        tpdu_elements,
    };
    let layout = InvariantLayout::with_data_symbols(2048);
    Session::new(
        SenderConfig {
            params: params(local),
            layout,
            mtu,
            min_tpdu_elements: 4,
            max_tpdu_elements: 256,
        },
        params(remote),
        layout,
        DeliveryMode::Immediate,
        1 << 14,
    )
    .with_rto(RtoConfig {
        policy,
        ..RtoConfig::default()
    })
    .with_burst_limits(4, 8)
}

/// Frames in flight towards one endpoint, by arrival time.
type InFlight = BTreeMap<u64, Vec<Bytes>>;

fn take_due(q: &mut InFlight, t: u64) -> Vec<Bytes> {
    let mut later = q.split_off(&(t + 1));
    std::mem::swap(q, &mut later);
    later.into_values().flatten().collect()
}

fn put_in_flight(q: &mut InFlight, arrivals: &mut Vec<(u64, Bytes)>) {
    for (at, frame) in arrivals.drain(..) {
        q.entry(at).or_default().push(frame);
    }
}

/// How [`transfer`] ended.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Ending {
    /// The sender's window drained.
    Drained,
    /// The sender's pump returned the dead-peer error.
    DeadPeer,
    /// [`MAX_TICKS`] passed with neither: a livelock.
    Hung,
}

/// Runs a one-way transfer from `a` to `b` on the virtual clock, one pump
/// of each endpoint per [`TICK_NS`]. Each tick hands both endpoints the
/// frames due, gives `a`'s payload-carrying packets to `forward`, and —
/// only when `b` heard something — gives `b`'s acks to `reverse`. The two
/// closures are the network: they push `(arrival ns, frame)` pairs. Returns
/// how the transfer ended and when.
pub(crate) fn transfer(
    a: &mut Session,
    b: &mut Session,
    mut forward: impl FnMut(u64, &[Packet], &mut Vec<(u64, Bytes)>),
    mut reverse: impl FnMut(u64, &[Packet], &mut Vec<(u64, Bytes)>),
) -> (Ending, u64) {
    let (mut to_b, mut to_a) = (InFlight::new(), InFlight::new());
    let (mut packets, mut events, mut arrivals) = (Vec::new(), Vec::new(), Vec::new());
    for tick in 0..MAX_TICKS {
        let t = tick * TICK_NS;
        let mut b_heard = false;
        for bytes in take_due(&mut to_b, t) {
            b.handle_packet_into(&Packet { bytes }, t, &mut events);
            b_heard = true;
        }
        for bytes in take_due(&mut to_a, t) {
            a.handle_packet_into(&Packet { bytes }, t, &mut events);
        }
        // The run is judged by its counters, not by its events.
        events.clear();
        packets.clear();
        if a.pump_into(t, &mut packets).is_err() {
            return (Ending::DeadPeer, t);
        }
        // Pure-ack packets from the sender carry no information on a
        // one-way transfer; see `carries_payload`.
        packets.retain(carries_payload);
        forward(t, &packets, &mut arrivals);
        put_in_flight(&mut to_b, &mut arrivals);
        // The receiver acks when data arrives — not on an idle tick. (It
        // cannot die: it sends no data, so it arms no timers.)
        if b_heard {
            packets.clear();
            b.pump_into(t, &mut packets)
                .expect("pure-ack endpoint has no retry budget");
            reverse(t, &packets, &mut arrivals);
            put_in_flight(&mut to_a, &mut arrivals);
        }
        if a.outbound_done() {
            return (Ending::Drained, t);
        }
    }
    (Ending::Hung, MAX_TICKS * TICK_NS)
}

/// True when the packet carries anything beyond acknowledgment chunks. The
/// transfer is one-way, so the sender's own piggyback acks say nothing —
/// forwarding them would let the receiver re-ack every tick and trivialise
/// ack loss.
pub fn carries_payload(p: &Packet) -> bool {
    chunks_core::packet::unpack(p)
        .map(|chunks| {
            chunks
                .iter()
                .any(|c| c.header.ty != chunks_core::label::ChunkType::Ack)
        })
        .unwrap_or(false)
}

/// Runs one scenario under one seed.
pub fn run_scenario(sc: &SoakScenario, seed: u64) -> SoakRow {
    run_scenario_observed(sc, seed, chunks_obs::null())
}

/// Runs one scenario under one seed with an observability sink attached to
/// both endpoints. The sink sees every counter and event the transfer
/// produces; pass [`chunks_obs::null()`] for the unobserved baseline.
pub fn run_scenario_observed(sc: &SoakScenario, seed: u64, sink: Arc<dyn ObsSink>) -> SoakRow {
    // Mix the scenario name into the seed so rows of one sweep do not all
    // draw the same fault stream (a shared first draw would make every
    // `p <= x` row succeed or fail together).
    let mix = sc.name.bytes().fold(seed, |h, b| {
        h.wrapping_mul(0x100000001B3).wrapping_add(b as u64)
    });
    let payload: Vec<u8> = (0..PAYLOAD_BYTES).map(|i| (i * 7 + 3) as u8).collect();
    let mut a = endpoint(1, 2, 512, 64, sc.policy).with_obs(sink.clone());
    let mut b = endpoint(2, 1, 512, 64, sc.policy).with_obs(sink.clone());
    a.send(&payload, 0xA, false);

    // Forward: Byzantine middlebox, then a 4-stripe multipath bundle. The
    // sink rides along (mutation events, hop spans, path choices); with the
    // NullSink it costs one cached branch per element.
    let mut byz_fwd = ByzantineRouter::new(sc.fwd, mix);
    byz_fwd.set_obs(sink.clone());
    let fwd_cfg = LinkConfig::clean(512, 100_000, 0).with_loss(sc.fwd_loss);
    let mut fwd = MultipathLink::skewed(4, fwd_cfg, 20_000, mix ^ 0xF0F0);
    fwd.set_obs(sink.clone());
    if let Some((path, from, until)) = sc.stall {
        fwd.stall_path(path, from, until);
    }
    // Reverse: Byzantine middlebox (the ack assassin), then a clean link.
    let mut byz_rev = ByzantineRouter::new(sc.rev, mix ^ 0x5EED);
    byz_rev.set_obs(sink.clone());
    let mut rev = chunks_netsim::Link::new(LinkConfig::clean(512, 100_000, 0), mix ^ 0x0FF);
    rev.set_obs(sink);

    let (ending, elapsed) = transfer(
        &mut a,
        &mut b,
        |t, packets, arrivals| {
            let mut frames = Vec::new();
            for p in packets {
                byz_fwd.ingest(t, p.bytes.clone(), &mut frames);
                for f in frames.drain(..) {
                    fwd.transmit_into(t, f, arrivals);
                }
            }
        },
        |t, packets, arrivals| {
            let mut frames = Vec::new();
            for p in packets {
                byz_rev.ingest(t, p.bytes.clone(), &mut frames);
                for f in frames.drain(..) {
                    rev.transmit_into(t, f, arrivals);
                }
            }
        },
    );
    let outcome = match ending {
        Ending::DeadPeer => Some(Outcome::Aborted),
        Ending::Drained if a.reliability().shed_tpdus > 0 => Some(Outcome::Shed),
        Ending::Drained => Some(Outcome::Delivered),
        Ending::Hung => None,
    };

    let stats = a.reliability();
    let delivered = b.received_elements();
    let secs = (elapsed.max(1)) as f64 / 1e9;
    SoakRow {
        scenario: sc.name,
        seed,
        outcome: outcome.unwrap_or(Outcome::Delivered),
        hang: outcome.is_none(),
        delivered_bytes: delivered,
        total_bytes: PAYLOAD_BYTES as u64,
        elapsed_ns: elapsed,
        timer_retransmits: stats.timer_retransmits,
        shed_tpdus: stats.shed_tpdus,
        acks_dropped: byz_rev.stats.acks_dropped,
        label_flips: byz_fwd.stats.tsn_flips + byz_fwd.stats.cid_flips + byz_fwd.stats.len_flips,
        goodput_mibps: delivered as f64 / (1024.0 * 1024.0) / secs,
        metrics: Vec::new(),
    }
}

/// Runs the full fault matrix under one seed. Each cell runs with its own
/// recording sink, and the row carries the nonzero counters — everything
/// stays on the virtual clock, so the rows (metrics included) are
/// reproducible bit-for-bit from the seed.
pub fn run(seed: u64) -> SoakResult {
    SoakResult {
        seed,
        rows: fault_matrix()
            .iter()
            .map(|sc| {
                let sink = Recorder::verbose_tier(DEFAULT_TRACE_CAPACITY);
                let mut row = run_scenario_observed(sc, seed, sink.clone());
                row.metrics = sink.snapshot().nonzero_counters();
                row
            })
            .collect(),
    }
}

/// Renders the soak sweeps as the `BENCH_soak.json` goodput-under-loss
/// record. Every field rides the virtual clock, so the file is exact and
/// the `bench-check` gate diffs a regeneration byte for byte.
pub fn bench_json(results: &[&SoakResult], describe: &str) -> String {
    use super::benchjson::{meta_json, metrics_json};
    let mut out = String::from("{\n");
    out.push_str(&meta_json(
        "soak-reliability-under-faults",
        "cargo run --release --bin experiments soak (or: just soak)",
        describe,
    ));
    out.push_str(&format!(
        "  \"workload\": \"{} bytes over a 4-path bundle through a Byzantine middlebox, virtual clock, tick {} ns\",\n",
        PAYLOAD_BYTES, TICK_NS
    ));
    out.push_str("  \"results\": [\n");
    let rows: Vec<String> = results
        .iter()
        .flat_map(|r| r.rows.iter())
        .map(|row| {
            format!(
                "    {{\"scenario\": \"{}\", \"seed\": \"{:#x}\", \"outcome\": \"{}\", \"delivered_frac\": {:.3}, \"virtual_ms\": {:.1}, \"timer_retransmits\": {}, \"shed_tpdus\": {}, \"acks_dropped\": {}, \"goodput_mib_s\": {:.2}, \"metrics\": {}}}",
                row.scenario,
                row.seed,
                row.outcome,
                row.delivered_frac(),
                row.elapsed_ns as f64 / 1e6,
                row.timer_retransmits,
                row.shed_tpdus,
                row.acks_dropped,
                row.goodput_mibps,
                metrics_json(&row.metrics),
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
