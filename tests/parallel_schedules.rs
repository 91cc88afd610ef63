//! Deterministic-schedule concurrency tests for the parallel receive
//! pipeline (§3.3's order-free processing, pushed to its adversarial limit).
//!
//! One closed loop — per-connection [`Session`] senders, a seeded lossy wire
//! with deterministic corruption, ack-drop rounds that force timer-driven
//! retransmission — runs to convergence against a [`ParallelReceiver`] under
//! every worker-interleaving schedule the virtual engine can express:
//! fair round-robin, reverse, three seeded pseudo-random orders, two fixed
//! rotations, and starvation of each of the four workers in turn (the victim
//! gets no cycles until every other worker's queue is empty). The observable
//! outcome — delivered bytes, per-TPDU WSC-2 digests, verdict events,
//! receiver stats, acks, control-event order, dispatch counters, *and* each
//! sender's [`ReliabilityStats`] — must be bit-identical across all of them,
//! and identical again on the real threaded engine.
//!
//! The loop itself is schedule-invariant by construction: `sync()` is a
//! barrier, so the acks fed back to the senders cannot depend on the
//! interleaving. These tests prove the implementation honours that contract.

use std::collections::BTreeMap;

use chunks::core::packet::{pack, Packet};
use chunks::transport::AckInfo;
use chunks::transport::{
    ConnSpec, ConnectionParams, ControlEvent, DegradePolicy, DeliveryMode, DispatchStats, Engine,
    ParallelReceiver, ReliabilityStats, RtoConfig, RxEvent, RxStats, Schedule, Sender,
    SenderConfig, Session,
};
use chunks::wsc::InvariantLayout;

const WORKERS: usize = 4;
const CONNS: u32 = 5;
const MTU: usize = 512;
const MSG_LEN: usize = 1600;
const MAX_ROUNDS: u32 = 300;
/// Virtual time per round; larger than the base RTO so a dropped ack makes
/// the timer fire within two rounds.
const ROUND_NS: u64 = 10_000_000;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 11
    }

    /// True with probability `percent`/100.
    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

fn conn_ids() -> impl Iterator<Item = u32> {
    1..=CONNS
}

fn layout() -> InvariantLayout {
    InvariantLayout::with_data_symbols(1 << 12)
}

fn params(conn_id: u32) -> ConnectionParams {
    ConnectionParams {
        conn_id,
        elem_size: 1,
        initial_csn: conn_id * 1000,
        tpdu_elements: 64,
    }
}

fn message(conn_id: u32) -> Vec<u8> {
    let mut lcg = Lcg(0xBEA7 + conn_id as u64 * 0x9E37);
    (0..MSG_LEN).map(|_| lcg.next() as u8).collect()
}

fn sender_session(conn_id: u32) -> Session {
    Session::new(
        SenderConfig {
            params: params(conn_id),
            layout: layout(),
            mtu: MTU,
            min_tpdu_elements: 4,
            max_tpdu_elements: 64,
        },
        // The inbound half of each session is idle in this loop; give it a
        // connection id that never appears on the wire.
        params(0xAA00 + conn_id),
        layout(),
        DeliveryMode::Immediate,
        1 << 12,
    )
    .with_rto(RtoConfig {
        initial_rto_ns: 12_000_000,
        min_rto_ns: 4_000_000,
        max_rto_ns: 40_000_000,
        max_retries: 64,
        policy: DegradePolicy::Shed,
    })
}

fn specs() -> Vec<ConnSpec> {
    conn_ids()
        .map(|id| {
            ConnSpec::new(
                params(id),
                layout(),
                DeliveryMode::Immediate,
                MSG_LEN as u64 + 256,
            )
        })
        .collect()
}

/// Everything observable about one run of the closed loop. Stage timings are
/// deliberately excluded — they are the only legitimately nondeterministic
/// output.
#[derive(PartialEq, Debug)]
struct ConnOutcome {
    worker: usize,
    app: Vec<u8>,
    verified: u64,
    digests: Vec<(u64, [u8; 8])>,
    events: Vec<RxEvent>,
    stats: RxStats,
    ack: AckInfo,
    reliability: ReliabilityStats,
}

#[derive(PartialEq, Debug)]
struct Outcome {
    conns: BTreeMap<u32, ConnOutcome>,
    control: Vec<ControlEvent>,
    dispatch: DispatchStats,
    transcript: [u8; 8],
    worker_chunks: Vec<u64>,
    rounds: u32,
}

/// Runs the closed loop to convergence under `engine` and returns the full
/// observable outcome. Every source of randomness is a fixed-seed LCG and
/// every clock is virtual, so two runs may differ only through the engine's
/// interleaving of worker execution.
fn run_loop(engine: Engine) -> Outcome {
    let mut sessions: BTreeMap<u32, Session> = conn_ids()
        .map(|id| {
            let mut s = sender_session(id);
            s.send(&message(id), 0x10 + id, false);
            (id, s)
        })
        .collect();
    let mut pr = ParallelReceiver::new(WORKERS, engine, specs());
    let mut wire = Lcg(0x5EED_0001);
    let mut clock = 0u64;
    let mut ingested = 0u64;
    let mut rounds = 0u32;
    let mut packets = Vec::new();

    for round in 0..MAX_ROUNDS {
        rounds = round + 1;
        clock += ROUND_NS;
        let mut all_done = true;
        for session in sessions.values_mut() {
            packets.clear();
            session
                .pump_into(clock, &mut packets)
                .expect("Shed policy never aborts");
            for p in &packets {
                // ~20% deterministic data loss.
                if wire.chance(20) {
                    continue;
                }
                ingested += 1;
                // Every 23rd surviving packet arrives damaged: one flipped
                // bit deep in the frame, past the packet header.
                if ingested.is_multiple_of(23) && p.bytes.len() > 200 {
                    let mut bytes = p.bytes.to_vec();
                    bytes[120] ^= 0x01;
                    pr.ingest(
                        &Packet {
                            bytes: bytes.into(),
                        },
                        clock,
                    );
                } else {
                    pr.ingest(p, clock);
                }
            }
            all_done &= session.outbound_done();
        }

        // Barrier: a consistent receive-side snapshot, independent of the
        // interleaving that produced it.
        let snapshots = pr.sync();
        for snap in &snapshots {
            for &start in &snap.failed {
                pr.reset_group(snap.conn_id, start);
            }
        }
        // Return acks — except on every third round, where the entire ack
        // batch is lost and only the retransmission timers can recover.
        if round % 3 != 1 {
            for snap in &snapshots {
                let ack = snap.ack.to_chunk(snap.conn_id);
                for p in pack(vec![ack], MTU).expect("ack packs into one MTU") {
                    sessions
                        .get_mut(&snap.conn_id)
                        .expect("snapshot for registered conn")
                        .handle_packet_into(&p, clock, &mut Vec::new());
                }
            }
        }
        if all_done {
            break;
        }
    }

    let outcome = pr.finish();
    let conns = outcome
        .conns
        .into_iter()
        .map(|(id, report)| {
            let rx = &report.receiver;
            (
                id,
                ConnOutcome {
                    worker: report.worker,
                    app: rx.app_data().to_vec(),
                    verified: rx.verified_prefix(),
                    digests: rx.delivered_digests(),
                    events: report.events,
                    stats: rx.stats,
                    ack: report.ack,
                    reliability: sessions[&id].reliability(),
                },
            )
        })
        .collect();
    Outcome {
        conns,
        control: outcome.control,
        dispatch: outcome.dispatch,
        transcript: outcome.transcript_digest,
        worker_chunks: outcome.worker_chunks,
        rounds,
    }
}

/// The eleven adversarial interleavings measured against the fair baseline.
fn adversarial_schedules() -> Vec<Schedule> {
    vec![
        Schedule::Reverse,
        Schedule::Seeded(1),
        Schedule::Seeded(42),
        Schedule::Seeded(0xDEAD_BEEF),
        Schedule::Rotation(vec![2, 0, 3, 1]),
        Schedule::Rotation(vec![3, 2, 1, 0]),
        Schedule::Starve(0),
        Schedule::Starve(1),
        Schedule::Starve(2),
        Schedule::Starve(3),
        Schedule::Fair, // run twice: the baseline must reproduce itself
    ]
}

#[test]
fn adversarial_schedules_match_fair_baseline() {
    let fair = run_loop(Engine::Virtual(Schedule::Fair));

    // The baseline itself must be a real workout: the loop converged, every
    // byte arrived, timers fired, and corruption produced (and recovery
    // cleared) failed verdicts.
    assert!(fair.rounds < MAX_ROUNDS, "loop did not converge");
    for id in conn_ids() {
        let conn = &fair.conns[&id];
        let want = message(id);
        assert_eq!(&conn.app[..want.len()], &want[..], "conn {id} bytes");
        assert_eq!(conn.verified, want.len() as u64, "conn {id} prefix");
        assert_eq!(conn.reliability.shed_tpdus, 0, "conn {id} shed nothing");
    }
    let timer_retransmits: u64 = fair
        .conns
        .values()
        .map(|c| c.reliability.timer_retransmits)
        .sum();
    assert!(
        timer_retransmits > 0,
        "dropped ack rounds must force timer-driven recovery"
    );
    let failed_verdicts: usize = fair
        .conns
        .values()
        .map(|c| {
            c.events
                .iter()
                .filter(|e| matches!(e, RxEvent::TpduFailed { .. }))
                .count()
        })
        .sum();
    assert!(
        failed_verdicts > 0,
        "corrupted frames must produce reject verdicts"
    );
    assert!(
        fair.worker_chunks.iter().filter(|&&c| c > 0).count() > 1,
        "the matrix must actually spread load over workers"
    );

    for schedule in adversarial_schedules() {
        let got = run_loop(Engine::Virtual(schedule.clone()));
        assert_eq!(got, fair, "schedule {schedule:?} diverged from fair");
    }
}

#[test]
fn threaded_engine_matches_fair_baseline() {
    let fair = run_loop(Engine::Virtual(Schedule::Fair));
    let threads = run_loop(Engine::Threads);
    assert_eq!(threads, fair, "threads engine diverged from fair schedule");
}

#[test]
fn starved_worker_holds_back_only_its_own_connections() {
    // Without the sync() barrier, starving a worker visibly delays exactly
    // the connections sharded onto it — and nothing else. This pins the
    // sharding contract the equivalence argument rests on: a schedule can
    // reorder progress *between* shards but never within one.
    let specs = specs();
    let victim = 0usize;
    let mut pr = ParallelReceiver::new(WORKERS, Engine::Virtual(Schedule::Starve(victim)), specs);
    let mut senders: BTreeMap<u32, Sender> = conn_ids()
        .map(|id| {
            let mut tx = Sender::new(SenderConfig {
                params: params(id),
                layout: layout(),
                mtu: MTU,
                min_tpdu_elements: 4,
                max_tpdu_elements: 64,
            });
            tx.submit_simple(&message(id), 0x10 + id, false);
            (id, tx)
        })
        .collect();
    for (_, tx) in senders.iter_mut() {
        for p in tx.packets_for_pending().unwrap() {
            pr.ingest(&p, 0);
        }
    }
    // sync() drains *everything* — starvation delays, it cannot drop.
    let snapshots = pr.sync();
    for snap in &snapshots {
        let want = message(snap.conn_id);
        assert_eq!(
            snap.ack.cumulative,
            want.len() as u64,
            "conn {} fully verified even on its starved worker",
            snap.conn_id
        );
    }
    let outcome = pr.finish();
    assert!(
        outcome.worker_chunks[victim] > 0,
        "victim worker still processed its shard"
    );
}
