//! Differential harness: the parallel receive pipeline is observably
//! equivalent to the serial path on every seeded scenario.
//!
//! Each scenario plays a closed-loop transfer (fragmentation, reordering,
//! duplication, loss, multipath, corruption — one [`Profile`] each) through
//! the serial reference once, recording the receive-side trace, then replays
//! the identical trace into a fresh serial demux and into the parallel
//! pipeline at worker counts {1, 2, 4, 8}. Everything observable must match:
//! delivered TPDU bytes, per-TPDU WSC-2 digests, accept/reject verdicts,
//! receiver statistics, acknowledgments, event streams, control events,
//! routed-chunk counters, and the folded session transcript digest.
//!
//! The trace is then replayed a second way: restamped into seeded groups of
//! 1–64 packets that share an arrival time, each group through one
//! `ingest_batch` with the loop's group resets landing between groups, on
//! both engines at every worker count, against the serial replay of the
//! same restamped trace. That is the leg in which a shard receives work
//! many packets at a time.
//!
//! Scenario count: 200 in release, 24 in debug, `PARALLEL_SCENARIOS`
//! overrides both (see `just test-parallel`).
//!
//! A third trace is built, not played: every chunk of a first transmission
//! arrives as a duplicate or a partial overlap of what the receiver holds,
//! under each overlap policy. The dispatcher folds every data chunk's
//! payload before its worker sees it; that trace is where the worker throws
//! the fold away (a duplicate) or cuts the chunk and folds the pieces
//! itself, and it must still equal the serial path on both engines.

mod common;

use chunks::transport::{DeliveryMode, Engine, RxStats, Schedule};
use chunks::vreasm::OverlapPolicy;
use chunks_core::chunk::Chunk;
use chunks_core::frag::split;
use chunks_core::label::ChunkType;
use chunks_core::packet::{pack, unpack};
use common::{
    regroup, replay_parallel, replay_parallel_batched, replay_serial, scenario_count, scenarios,
    TraceOp,
};

#[test]
fn parallel_pipeline_equals_serial_path() {
    let all = scenarios(scenario_count());
    let mut delivered_total = 0u64;
    let mut failed_total = 0u64;
    for scenario in &all {
        let trace = scenario.generate_trace();
        assert!(
            trace
                .iter()
                .any(|op| matches!(op, common::TraceOp::Packet { .. })),
            "{}: trace must carry frames",
            scenario.label()
        );
        let serial = replay_serial(scenario, &trace);
        for obs in serial.conns.values() {
            delivered_total += obs.digests.len() as u64;
            failed_total += obs
                .events
                .iter()
                .filter(|e| matches!(e, chunks::transport::RxEvent::TpduFailed { .. }))
                .count() as u64;
        }
        for workers in [1usize, 2, 4, 8] {
            let parallel =
                replay_parallel(scenario, &trace, workers, Engine::Virtual(Schedule::Fair));
            assert_eq!(
                parallel,
                serial,
                "{}: virtual engine, {workers} workers",
                scenario.label()
            );
        }
        // Exercise the real threaded engine on a slice of the matrix (it
        // runs the same worker code; the schedule tests cover interleaving).
        if scenario.index % 8 == 0 {
            let parallel = replay_parallel(scenario, &trace, 4, Engine::Threads);
            assert_eq!(
                parallel,
                serial,
                "{}: threads engine, 4 workers",
                scenario.label()
            );
        }
        let grouped = regroup(&trace, scenario.seed);
        let serial = replay_serial(scenario, &grouped);
        for workers in [1usize, 2, 4, 8] {
            for engine in [Engine::Virtual(Schedule::Fair), Engine::Threads] {
                let parallel = replay_parallel_batched(scenario, &grouped, workers, engine.clone());
                assert_eq!(
                    parallel,
                    serial,
                    "{}: batched, {engine:?}, {workers} workers",
                    scenario.label()
                );
            }
        }
    }
    // The matrix must actually exercise both verdict channels.
    assert!(delivered_total > 0, "no scenario delivered a TPDU");
    assert!(
        failed_total > 0,
        "no scenario rejected a TPDU — corruption profiles not biting"
    );
}

#[test]
fn clean_profile_delivers_every_byte_at_every_worker_count() {
    // A focused, fully-converging case: on the clean profile every message
    // byte must land in the application space, bit-exact, for any worker
    // count — not merely "equal to serial".
    let scenario = common::Scenario {
        index: usize::MAX,
        profile: chunks::netsim::Profile::Clean,
        seed: 0xC1EA_4000,
        conns: 5,
        message_len: 2048,
        mode: chunks::transport::DeliveryMode::Immediate,
        elem_size: 1,
        tpdu_elements: 64,
        mtu: 600,
        inject_control: false,
        policy: OverlapPolicy::default(),
    };
    let trace = scenario.generate_trace();
    for workers in [1usize, 2, 4, 8] {
        let out = replay_parallel(&scenario, &trace, workers, Engine::Virtual(Schedule::Fair));
        for id in scenario.conn_ids() {
            let obs = &out.conns[&id];
            let want = scenario.message(id);
            assert_eq!(
                &obs.app[..want.len()],
                &want[..],
                "conn {id} at {workers} workers"
            );
            assert_eq!(obs.verified_prefix, want.len() as u64);
            assert!(obs.failed.is_empty());
        }
    }
}

/// Every connection's first transmission re-cut into duplicates and
/// partial overlaps. Per TPDU, for each data chunk of more than one
/// element: its tail piece, then the whole chunk (the receiver holds the
/// tail, so it cuts out the front and folds that piece itself), then the
/// whole chunk again (a duplicate; every third such copy has one byte
/// flipped, which the overlap policy resolves), then the front piece again.
/// The TPDU's ED chunk comes last, so every copy reaches a group that is
/// still open. Each chunk travels in a packet of its own; the connections'
/// TPDUs interleave.
fn overlap_trace(scenario: &common::Scenario) -> Vec<TraceOp> {
    let mut flips = 0u32;
    let per_conn: Vec<Vec<Vec<Chunk>>> = scenario
        .conn_ids()
        .into_iter()
        .map(|id| {
            let mut tx = scenario.sender(id);
            tx.submit_simple(&scenario.message(id), id, false);
            let mut tpdus = Vec::new();
            let mut tpdu = Vec::new();
            for p in tx.packets_for_pending().unwrap() {
                for c in unpack(&p).unwrap() {
                    if c.header.ty == ChunkType::ErrorDetection {
                        tpdu.push(c);
                        tpdus.push(std::mem::take(&mut tpdu));
                        continue;
                    }
                    if c.header.len < 2 {
                        tpdu.push(c);
                        continue;
                    }
                    let (front, tail) = split(&c, c.header.len / 2).unwrap();
                    flips += 1;
                    let mut again = c.clone();
                    if flips.is_multiple_of(3) {
                        let mut raw = again.payload.to_vec();
                        raw[0] ^= 0x10;
                        again.payload = raw.into();
                    }
                    tpdu.extend([tail, c, again, front]);
                }
            }
            tpdus
        })
        .collect();
    let mut trace = Vec::new();
    let rounds = per_conn.iter().map(Vec::len).max().unwrap_or(0);
    for k in 0..rounds {
        for tpdus in &per_conn {
            for c in tpdus.get(k).into_iter().flatten() {
                for p in pack(vec![c.clone()], scenario.mtu).unwrap() {
                    trace.push(TraceOp::Packet {
                        frame: p.bytes,
                        now: trace.len() as u64,
                    });
                }
            }
        }
    }
    trace
}

#[test]
fn duplicates_and_partial_overlaps_equal_serial_on_both_engines() {
    let mut totals = RxStats::default();
    for (i, mode) in [
        DeliveryMode::Immediate,
        DeliveryMode::Reorder,
        DeliveryMode::Reassemble,
    ]
    .into_iter()
    .enumerate()
    {
        for policy in OverlapPolicy::ALL {
            let scenario = common::Scenario {
                index: i,
                profile: chunks::netsim::Profile::Clean,
                seed: 0x0E12_1A90 + i as u64,
                conns: 3,
                message_len: 1200,
                mode,
                elem_size: 2,
                tpdu_elements: 64,
                mtu: 300,
                inject_control: false,
                policy,
            };
            let trace = overlap_trace(&scenario);
            let serial = replay_serial(&scenario, &trace);
            for obs in serial.conns.values() {
                totals.duplicate_chunks += obs.stats.duplicate_chunks;
                totals.overlap_conflicts += obs.stats.overlap_conflicts;
                totals.tpdus_delivered += obs.stats.tpdus_delivered;
                totals.tpdus_failed += obs.stats.tpdus_failed;
            }
            for workers in [1usize, 2, 4] {
                for engine in [Engine::Virtual(Schedule::Fair), Engine::Threads] {
                    let parallel = replay_parallel(&scenario, &trace, workers, engine.clone());
                    assert_eq!(
                        parallel,
                        serial,
                        "{} {policy:?}: {engine:?}, {workers} workers",
                        scenario.label()
                    );
                }
            }
        }
    }
    // The trace must reach every path it was built for: duplicates, byte
    // conflicts, TPDUs verified from re-cut pieces, and TPDUs condemned.
    assert!(totals.duplicate_chunks > 0, "{totals:?}");
    assert!(totals.overlap_conflicts > 0, "{totals:?}");
    assert!(totals.tpdus_delivered > 0, "{totals:?}");
    assert!(totals.tpdus_failed > 0, "{totals:?}");
}
