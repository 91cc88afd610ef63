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

mod common;

use chunks::transport::{Engine, Schedule};
use common::{
    regroup, replay_parallel, replay_parallel_batched, replay_serial, scenario_count, scenarios,
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
