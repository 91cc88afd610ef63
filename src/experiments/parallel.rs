//! Parallel receive-pipeline sweep: throughput scaling and serial
//! equivalence across worker counts and network profiles.
//!
//! The paper's §3.3 order-free processing argument implies the receive path
//! parallelises by connection label with no coordination between workers.
//! This sweep quantifies that: 16 connections of 8 KiB TPDUs stream through
//! a seeded [`Profile`] once, and the recorded arrival trace replays into
//! the [`ParallelReceiver`] at 1/2/4/8 workers.
//!
//! Two measurements per cell:
//!
//! * **Critical-path throughput** — the deterministic virtual engine runs
//!   every worker's work on one OS thread but attributes busy time to the
//!   worker that did it. The modelled parallel makespan is
//!   `dispatch + max(worker busy) + merge`: what a machine with one core
//!   per worker would take, from *measured* per-stage times rather than a
//!   cost model. This is the number the speedup acceptance gate reads —
//!   wall-clock scaling on a CI container with fewer cores than workers
//!   would measure the container, not the pipeline.
//! * **Threads wall time** — the real `std::thread` engine end to end, for
//!   honesty about what the current host does with the same work.
//!
//! Every cell also replays through the serial [`ConnectionDemux`] and
//! fingerprints both ends (delivered bytes, per-TPDU WSC-2 digests, verdict
//! lists, routing counters, folded transcript). `divergences` must be zero:
//! the sweep refuses to report throughput for a pipeline that is not
//! observably the serial path.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use chunks_core::packet::Packet;
use chunks_netsim::Profile;
use chunks_obs::{ObsSink, Recorder, DEFAULT_TRACE_CAPACITY};
use chunks_transport::{
    shard_of, ConnSpec, ConnectionDemux, ConnectionParams, DeliveryMode, Engine, ParallelReceiver,
    Receiver, Schedule, Sender, SenderConfig, StageTimings,
};
use chunks_wsc::{InvariantLayout, Wsc2Stream};

/// Elements (= bytes) per TPDU — the acceptance criterion's 8 KiB TPDU.
pub const TPDU_ELEMENTS: u32 = 8192;
/// Concurrent connections; chosen so every worker count in the sweep gets
/// an equal shard of them.
pub const CONNS: usize = 16;
/// Application bytes per connection.
pub const MESSAGE_BYTES: usize = 512 * 1024;
/// Path MTU: jumbo frames, so one 8 KiB TPDU chunk rides one packet.
pub const MTU: usize = 9000;
/// Worker counts swept.
pub const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Timing repetitions per cell (medians are reported).
const REPEATS: usize = 3;

/// Profiles swept: the no-disorder baseline, the gigabit-striping reorder
/// case the speedup gate reads, and the two lossy shapes.
pub fn profiles() -> [Profile; 4] {
    [
        Profile::Clean,
        Profile::Reorder,
        Profile::Loss,
        Profile::MultipathLossy,
    ]
}

/// Connection ids chosen so [`shard_of`] deals exactly two onto each of 8
/// shards — and therefore evenly onto 4, 2, and 1 (a balanced residue mod 8
/// stays balanced mod every divisor of 8).
fn conn_ids() -> Vec<u32> {
    let mut per_shard = [0usize; 8];
    let mut ids = Vec::with_capacity(CONNS);
    let mut candidate = 1u32;
    while ids.len() < CONNS {
        let s = shard_of(candidate, 8);
        if per_shard[s] < CONNS / 8 {
            per_shard[s] += 1;
            ids.push(candidate);
        }
        candidate += 1;
    }
    ids
}

fn params(conn_id: u32) -> ConnectionParams {
    ConnectionParams {
        conn_id,
        elem_size: 1,
        initial_csn: 0,
        tpdu_elements: TPDU_ELEMENTS,
    }
}

fn layout() -> InvariantLayout {
    InvariantLayout::with_data_symbols(1 << 15)
}

fn specs() -> Vec<ConnSpec> {
    conn_ids()
        .iter()
        .map(|&id| {
            ConnSpec::new(
                params(id),
                layout(),
                DeliveryMode::Immediate,
                MESSAGE_BYTES as u64 + 4 * TPDU_ELEMENTS as u64,
            )
        })
        .collect()
}

fn message(conn_id: u32) -> Vec<u8> {
    let mut state = 0x8B1D_0000_u64 ^ (conn_id as u64) << 17;
    (0..MESSAGE_BYTES)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// Streams every connection's initial transmission through `profile` once
/// and returns the arrival trace, ready to replay.
fn build_trace(profile: Profile, seed: u64) -> Vec<(u64, Packet)> {
    let mut inputs: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut per_conn: Vec<Vec<Vec<u8>>> = conn_ids()
        .iter()
        .map(|&id| {
            let mut tx = Sender::new(SenderConfig {
                params: params(id),
                layout: layout(),
                mtu: MTU,
                min_tpdu_elements: 64,
                max_tpdu_elements: TPDU_ELEMENTS,
            });
            tx.submit_simple(&message(id), 0x10 + id, false);
            tx.packets_for_pending()
                .expect("pending packets pack")
                .into_iter()
                .map(|p| p.bytes.to_vec())
                .collect()
        })
        .collect();
    // Interleave round-robin across connections so the wire mixes them the
    // way concurrent streams would.
    let mut clock = 0u64;
    loop {
        let mut any = false;
        for frames in per_conn.iter_mut() {
            if frames.is_empty() {
                continue;
            }
            inputs.push((clock, frames.remove(0)));
            clock += 2_000;
            any = true;
        }
        if !any {
            break;
        }
    }
    profile
        .build(MTU, seed)
        .run(inputs)
        .into_iter()
        .map(|d| {
            (
                d.time,
                Packet {
                    bytes: d.frame.into(),
                },
            )
        })
        .collect()
}

/// Per-connection observables: verified prefix, delivered `(start, digest)`
/// pairs, failed starts.
type ConnPrint = (u64, Vec<(u64, [u8; 8])>, Vec<u64>);

/// Everything observable about one replay — the serial/parallel comparison
/// key: per-connection observables, routed-chunk counters, folded session
/// transcript.
type Fingerprint = (BTreeMap<u32, ConnPrint>, [u64; 5], [u8; 8]);

fn receiver_entry(rx: &Receiver, transcript: &mut Wsc2Stream) -> ConnPrint {
    for (start, _) in rx.delivered_digests() {
        if let Some(code) = rx.delivered_code(start) {
            transcript.fold_code(&code);
        }
    }
    (
        rx.verified_prefix(),
        rx.delivered_digests(),
        rx.failed_starts(),
    )
}

fn run_serial(trace: &[(u64, Packet)]) -> (Fingerprint, u64) {
    let mut demux = ConnectionDemux::new();
    for spec in specs() {
        let id = spec.params.conn_id;
        demux.register(
            id,
            Receiver::new(spec.mode, spec.params, spec.layout, spec.capacity_elements),
        );
    }
    let begin = Instant::now();
    for (now, packet) in trace {
        demux.handle_packet(packet, *now);
    }
    let wall_ns = begin.elapsed().as_nanos() as u64;
    let mut transcript = Wsc2Stream::new();
    let mut conns = BTreeMap::new();
    for &id in &conn_ids() {
        let rx = demux.receiver(id).expect("registered");
        conns.insert(id, receiver_entry(rx, &mut transcript));
    }
    ((conns, demux.routed, transcript.digest()), wall_ns)
}

fn run_parallel(
    trace: &[(u64, Packet)],
    workers: usize,
    engine: Engine,
) -> (Fingerprint, StageTimings, u64) {
    run_parallel_observed(trace, workers, engine, chunks_obs::null())
}

fn run_parallel_observed(
    trace: &[(u64, Packet)],
    workers: usize,
    engine: Engine,
    sink: Arc<dyn ObsSink>,
) -> (Fingerprint, StageTimings, u64) {
    let mut pr = ParallelReceiver::new_with_obs(workers, engine, specs(), sink);
    let begin = Instant::now();
    for (now, packet) in trace {
        pr.ingest(packet, *now);
    }
    let outcome = pr.finish();
    let wall_ns = begin.elapsed().as_nanos() as u64;
    let mut transcript = Wsc2Stream::new();
    let mut conns = BTreeMap::new();
    for (id, report) in &outcome.conns {
        conns.insert(*id, receiver_entry(&report.receiver, &mut transcript));
    }
    (
        (conns, outcome.dispatch.routed, transcript.digest()),
        outcome.timings,
        wall_ns,
    )
}

fn median(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// One (profile, workers) cell of the sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct ParallelCell {
    /// Profile name.
    pub profile: &'static str,
    /// Worker count.
    pub workers: usize,
    /// Median label-decode/dispatch stage time, ns.
    pub dispatch_ns: u64,
    /// Median summed worker busy time, ns.
    pub process_total_ns: u64,
    /// Median busiest-worker time, ns — the parallel section's makespan.
    pub process_max_ns: u64,
    /// Median merge-stage time, ns.
    pub merge_ns: u64,
    /// Modelled one-core-per-worker makespan: dispatch + max busy + merge.
    pub critical_path_ns: u64,
    /// Wire throughput over the modelled makespan, MiB/s.
    pub modeled_mib_s: f64,
    /// `critical_path(1 worker) / critical_path(this cell)`.
    pub speedup_vs_1: f64,
    /// Real `std::thread` engine end-to-end wall time, ns (host-dependent).
    pub threads_wall_ns: u64,
    /// Verified application bytes summed over connections.
    pub delivered_bytes: u64,
    /// Fingerprint mismatches against the serial path — must be zero.
    pub divergences: u32,
    /// Nonzero observability counters from one extra *untimed* virtual
    /// replay with a recording sink attached (the timed repetitions keep the
    /// no-op sink, so the makespan numbers are unperturbed). The observed
    /// replay's fingerprint is compared against the serial path too — a
    /// divergence here counts like any other.
    pub metrics: Vec<(String, u64)>,
}

/// One profile's sweep over [`WORKER_COUNTS`].
#[derive(Clone, PartialEq, Debug)]
pub struct ProfileSweep {
    /// Profile name.
    pub profile: &'static str,
    /// Frames that arrived (post-loss).
    pub frames: usize,
    /// Wire bytes that arrived.
    pub wire_bytes: u64,
    /// Serial [`ConnectionDemux`] wall time over the same trace, ns.
    pub serial_wall_ns: u64,
    /// One cell per worker count.
    pub cells: Vec<ParallelCell>,
}

/// The full sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct ParallelResult {
    /// Seed the traces were drawn from.
    pub seed: u64,
    /// One sweep per profile.
    pub sweeps: Vec<ProfileSweep>,
}

impl ParallelResult {
    /// The cell the acceptance gate reads.
    pub fn reorder_speedup_at_4(&self) -> f64 {
        self.sweeps
            .iter()
            .find(|s| s.profile == "reorder")
            .and_then(|s| s.cells.iter().find(|c| c.workers == 4))
            .map(|c| c.speedup_vs_1)
            .unwrap_or(0.0)
    }

    /// Acceptance: zero serial/parallel divergence anywhere, full delivery
    /// on the lossless profiles, and ≥ 1.5× modelled throughput at 4
    /// workers on the reorder profile.
    pub fn passes(&self) -> bool {
        let expected = (CONNS * MESSAGE_BYTES) as u64;
        self.sweeps.iter().all(|s| {
            let lossless_ok = !matches!(s.profile, "clean" | "reorder")
                || s.cells.iter().all(|c| c.delivered_bytes == expected);
            s.cells.iter().all(|c| c.divergences == 0) && lossless_ok
        }) && self.reorder_speedup_at_4() >= 1.5
    }
}

impl fmt::Display for ParallelResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== parallel — order-free receive pipeline scaling (seed {:#x}) ===",
            self.seed
        )?;
        writeln!(
            f,
            "  {} conns x {} KiB, {} KiB TPDUs; modelled makespan = dispatch + busiest worker + merge",
            CONNS,
            MESSAGE_BYTES / 1024,
            TPDU_ELEMENTS / 1024,
        )?;
        for sweep in &self.sweeps {
            writeln!(
                f,
                "  {:<16} {} frames, {:.1} MiB arrived, serial demux {:.2} ms",
                sweep.profile,
                sweep.frames,
                sweep.wire_bytes as f64 / (1024.0 * 1024.0),
                sweep.serial_wall_ns as f64 / 1e6,
            )?;
            writeln!(
                f,
                "    {:>3} {:>10} {:>10} {:>10} {:>10} {:>9} {:>8} {:>10} {:>5}",
                "W",
                "dispatch",
                "busy-max",
                "merge",
                "makespan",
                "MiB/s",
                "speedup",
                "thr-wall",
                "div"
            )?;
            for c in &sweep.cells {
                writeln!(
                    f,
                    "    {:>3} {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>8.2}ms {:>9.1} {:>7.2}x {:>8.2}ms {:>5}",
                    c.workers,
                    c.dispatch_ns as f64 / 1e6,
                    c.process_max_ns as f64 / 1e6,
                    c.merge_ns as f64 / 1e6,
                    c.critical_path_ns as f64 / 1e6,
                    c.modeled_mib_s,
                    c.speedup_vs_1,
                    c.threads_wall_ns as f64 / 1e6,
                    c.divergences,
                )?;
            }
        }
        Ok(())
    }
}

/// Runs the full sweep under one seed.
pub fn run(seed: u64) -> ParallelResult {
    let mut sweeps = Vec::new();
    for profile in profiles() {
        let trace = build_trace(profile, seed ^ profile.name().len() as u64);
        let wire_bytes: u64 = trace.iter().map(|(_, p)| p.bytes.len() as u64).sum();
        let (serial_print, serial_wall_ns) = run_serial(&trace);

        let mut cells: Vec<ParallelCell> = Vec::new();
        for &workers in &WORKER_COUNTS {
            let mut divergences = 0u32;
            let mut timings: Vec<StageTimings> = Vec::new();
            let mut delivered_bytes = 0u64;
            for _ in 0..REPEATS {
                let (print, t, _) = run_parallel(&trace, workers, Engine::Virtual(Schedule::Fair));
                if print != serial_print {
                    divergences += 1;
                }
                delivered_bytes = print.0.values().map(|(v, _, _)| *v).sum();
                timings.push(t);
            }
            let (threads_print, _, threads_wall_ns) =
                run_parallel(&trace, workers, Engine::Threads);
            if threads_print != serial_print {
                divergences += 1;
            }

            // One extra untimed replay with a recording sink: the metric
            // snapshot for the BENCH row, plus a differential guard that
            // observing the pipeline does not change what it delivers.
            let obs_sink = Recorder::verbose_tier(DEFAULT_TRACE_CAPACITY);
            let (observed_print, _, _) = run_parallel_observed(
                &trace,
                workers,
                Engine::Virtual(Schedule::Fair),
                obs_sink.clone(),
            );
            if observed_print != serial_print {
                divergences += 1;
            }
            let metrics = obs_sink.snapshot().nonzero_counters();

            let dispatch_ns = median(timings.iter().map(|t| t.dispatch_ns).collect());
            let process_total_ns = median(timings.iter().map(|t| t.process_total_ns).collect());
            let process_max_ns = median(timings.iter().map(|t| t.process_max_ns).collect());
            let merge_ns = median(timings.iter().map(|t| t.merge_ns).collect());
            let critical_path_ns = dispatch_ns + process_max_ns + merge_ns;
            cells.push(ParallelCell {
                profile: profile.name(),
                workers,
                dispatch_ns,
                process_total_ns,
                process_max_ns,
                merge_ns,
                critical_path_ns,
                modeled_mib_s: wire_bytes as f64
                    / (1024.0 * 1024.0)
                    / (critical_path_ns.max(1) as f64 / 1e9),
                speedup_vs_1: 0.0,
                threads_wall_ns,
                delivered_bytes,
                divergences,
                metrics,
            });
        }
        let base = cells[0].critical_path_ns.max(1) as f64;
        for c in &mut cells {
            c.speedup_vs_1 = base / c.critical_path_ns.max(1) as f64;
        }
        sweeps.push(ProfileSweep {
            profile: profile.name(),
            frames: trace.len(),
            wire_bytes,
            serial_wall_ns,
            cells,
        });
    }
    ParallelResult { seed, sweeps }
}

/// Renders the sweep as the `BENCH_parallel.json` scaling record. Timing
/// fields are wall-clock (host-dependent), so the `bench-check` gate only
/// validates this file structurally — it never diffs the numbers.
pub fn bench_json(r: &ParallelResult, describe: &str) -> String {
    use super::benchjson::{meta_json, metrics_json};
    let mut out = String::from("{\n");
    out.push_str(&meta_json(
        "parallel-receive-pipeline-scaling",
        "cargo run --release --bin experiments parallel (or: just bench-parallel)",
        describe,
    ));
    out.push_str(&format!(
        "  \"workload\": \"{} connections x {} KiB, {} KiB TPDUs, mtu {}; arrival trace replayed per worker count\",\n",
        CONNS,
        MESSAGE_BYTES / 1024,
        TPDU_ELEMENTS / 1024,
        MTU,
    ));
    out.push_str(
        "  \"method\": \"throughput is wire bytes over the modelled makespan dispatch + busiest-worker busy time + merge, from per-stage times measured on the deterministic virtual engine (medians of 3); threads_wall_ms is the real std::thread engine on this host; every cell is fingerprint-compared against the serial demux\",\n",
    );
    out.push_str(&format!(
        "  \"reorder_speedup_at_4_workers\": {:.2},\n",
        r.reorder_speedup_at_4()
    ));
    out.push_str("  \"results\": [\n");
    let rows: Vec<String> = r
        .sweeps
        .iter()
        .flat_map(|s| {
            let serial_ms = s.serial_wall_ns as f64 / 1e6;
            s.cells.iter().map(move |c| {
                format!(
                    "    {{\"profile\": \"{}\", \"workers\": {}, \"dispatch_ms\": {:.3}, \"process_total_ms\": {:.3}, \"process_max_ms\": {:.3}, \"merge_ms\": {:.3}, \"makespan_ms\": {:.3}, \"modeled_mib_s\": {:.1}, \"speedup_vs_1\": {:.2}, \"threads_wall_ms\": {:.3}, \"serial_wall_ms\": {:.3}, \"delivered_bytes\": {}, \"divergences\": {}, \"metrics\": {}}}",
                    c.profile,
                    c.workers,
                    c.dispatch_ns as f64 / 1e6,
                    c.process_total_ns as f64 / 1e6,
                    c.process_max_ns as f64 / 1e6,
                    c.merge_ns as f64 / 1e6,
                    c.critical_path_ns as f64 / 1e6,
                    c.modeled_mib_s,
                    c.speedup_vs_1,
                    c.threads_wall_ns as f64 / 1e6,
                    serial_ms,
                    c.delivered_bytes,
                    c.divergences,
                    metrics_json(&c.metrics),
                )
            })
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conn_ids_balance_every_swept_worker_count() {
        let ids = conn_ids();
        assert_eq!(ids.len(), CONNS);
        for &workers in &WORKER_COUNTS {
            let mut load = vec![0usize; workers];
            for &id in &ids {
                load[shard_of(id, workers)] += 1;
            }
            assert!(
                load.iter().all(|&l| l == CONNS / workers),
                "{workers} workers: {load:?}"
            );
        }
    }
}
