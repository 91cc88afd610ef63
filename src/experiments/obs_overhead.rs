//! Always-on observability overhead: the cost of leaving telemetry armed
//! at line rate — the numbers behind `BENCH_obs.json`.
//!
//! Three sink modes over the PR 8 hotpath workload:
//!
//! * **obs-off** — the [`NullSink`](chunks_obs::NullSink) baseline: every
//!   instrumentation site reduces to one branch on a cached bool.
//! * **on-null** — an [`AlwaysOnSink`]: sharded counter blocks
//!   (owner-writes, no lock-prefix RMW on the hot path), the flight
//!   recorder armed, per-chunk trace events declined (`verbose() = false`).
//!   This is the production configuration the ≤5% gate reads.
//! * **on-recording** — a [`RecordingSink`]: full per-chunk events (decode
//!   verdicts included) and spans.
//!   Reported for contrast; this is the debug configuration.
//!
//! Three legs per mode: the **serial** zero-copy receiver, the **parallel**
//! virtual-engine dispatcher, and the **demux** connection-table path (the
//! million-connection soak's serial twin, at bench scale). Modes are
//! interleaved within each repetition round and the minimum wall time per
//! mode is compared, so host noise hits all modes alike. Steady-state
//! allocations ride the binary's counting global allocator exactly as in
//! the hotpath sweep.

use std::fmt;
use std::sync::Arc;
use std::time::Instant;

use chunks_core::packet::Packet;
use chunks_obs::{AlwaysOnSink, ObsSink, RecordingSink};
use chunks_transport::{ConnectionDemux, DeliveryMode, Receiver};

use super::hotpath::{
    self, alloc_count, BATCH, MESSAGE_BYTES, PAR_CONNS, PAR_WORKERS, TPDU_ELEMENTS,
};

/// Interleaved repetition rounds (minimum wall time per mode is reported;
/// the overhead ratio is the median of per-round paired ratios).
pub const REPEATS: usize = 11;
/// The sink modes, in sweep order.
pub const MODES: [&str; 3] = ["obs-off", "on-null", "on-recording"];
/// The legs, in sweep order.
pub const LEGS: [&str; 3] = ["serial", "parallel", "demux"];

/// One (leg, mode) cell.
#[derive(Clone, PartialEq, Debug)]
pub struct Row {
    /// serial / parallel / demux.
    pub leg: &'static str,
    /// obs-off / on-null / on-recording.
    pub mode: &'static str,
    /// Minimum wall time over the interleaved rounds, ns.
    pub wall_ns: u64,
    /// Wire MiB per second over that wall time.
    pub mib_s: f64,
    /// Wall-time delta vs the same leg's obs-off cell, percent: the median
    /// of per-round *paired* ratios (each mode is timed back-to-back with
    /// its baseline inside one round, so slow drift in host load cancels).
    /// Negative means faster than the baseline — residual noise.
    pub overhead_pct: f64,
    /// Worst steady-state allocation count over the rounds; -1 when the
    /// counting allocator is not installed.
    pub steady_allocs: i64,
    /// Verified application bytes after the replay.
    pub delivered_bytes: u64,
}

/// The whole sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct ObsOverheadResult {
    /// Seed the streams were drawn from.
    pub seed: u64,
    /// Whether allocation counting was active.
    pub alloc_counting: bool,
    /// True when every on-null run's sink actually accumulated hot-path
    /// counters (the overhead being compared is real, not a disabled sink).
    pub recorded: bool,
    /// One row per (leg, mode).
    pub rows: Vec<Row>,
}

impl ObsOverheadResult {
    /// The (leg, mode) cell.
    pub fn row(&self, leg: &str, mode: &str) -> Option<&Row> {
        self.rows.iter().find(|r| r.leg == leg && r.mode == mode)
    }

    /// Acceptance: full delivery everywhere, the on-null sinks really
    /// recorded, and — on the serial and parallel hotpath legs — always-on
    /// telemetry costs ≤ 5% throughput and (when the counting allocator is
    /// installed) zero steady-state allocations.
    pub fn passes(&self) -> bool {
        let full = self.rows.iter().all(|r| {
            let want = if r.leg == "serial" {
                MESSAGE_BYTES as u64
            } else {
                MESSAGE_BYTES as u64 * PAR_CONNS as u64
            };
            r.delivered_bytes == want
        });
        let cheap = ["serial", "parallel"].iter().all(|leg| {
            self.row(leg, "on-null")
                .map(|r| r.overhead_pct <= 5.0)
                .unwrap_or(false)
        });
        let lean = !self.alloc_counting
            || ["serial", "parallel"].iter().all(|leg| {
                self.row(leg, "on-null")
                    .map(|r| r.steady_allocs == 0)
                    .unwrap_or(false)
            });
        full && self.recorded && cheap && lean
    }
}

impl fmt::Display for ObsOverheadResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== obs-overhead — always-on telemetry cost at line rate (seed {:#x}) ===",
            self.seed
        )?;
        writeln!(
            f,
            "  {} KiB messages, {} KiB TPDUs, batches of {}; parallel {} conns x {} workers; min of {} interleaved rounds; alloc counting {}; on-null sinks recorded: {}",
            MESSAGE_BYTES / 1024,
            TPDU_ELEMENTS / 1024,
            BATCH,
            PAR_CONNS,
            PAR_WORKERS,
            REPEATS,
            if self.alloc_counting { "on" } else { "off" },
            self.recorded,
        )?;
        writeln!(
            f,
            "  {:<9} {:<13} {:>10} {:>9} {:>10} {:>12}",
            "leg", "mode", "wall", "MiB/s", "overhead", "steady-alloc"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<9} {:<13} {:>8.2}ms {:>9.1} {:>+9.2}% {:>12}",
                r.leg,
                r.mode,
                r.wall_ns as f64 / 1e6,
                r.mib_s,
                r.overhead_pct,
                r.steady_allocs,
            )?;
        }
        Ok(())
    }
}

/// A fresh sink for `mode`, plus (for on-null) the concrete handle used to
/// verify afterwards that counters actually accumulated.
fn mode_sink(mode: &str) -> (Option<Arc<dyn ObsSink>>, Option<Arc<AlwaysOnSink>>) {
    match mode {
        "obs-off" => (None, None),
        "on-null" => {
            let s = AlwaysOnSink::shared();
            (Some(s.clone()), Some(s))
        }
        "on-recording" => (Some(RecordingSink::with_capacity(1 << 14)), None),
        other => unreachable!("unknown mode {other}"),
    }
}

/// Demux-leg replay: the round-robin interleave of every connection's
/// stream through [`ConnectionDemux::ingest`] — the connection-table path
/// the million-connection soak scales up, at bench scale.
fn run_demux(
    streams: &[Vec<Packet>],
    warm_batches: usize,
    sink: Option<Arc<dyn ObsSink>>,
) -> hotpath::RunOutcome {
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut packets: Vec<Packet> = Vec::new();
    for i in 0..longest {
        for s in streams {
            if let Some(p) = s.get(i) {
                packets.push(p.clone());
            }
        }
    }
    let mut demux = ConnectionDemux::new();
    let tpdus = MESSAGE_BYTES / TPDU_ELEMENTS as usize + 2;
    for id in 1..=PAR_CONNS {
        demux.register(
            id,
            Receiver::new(
                DeliveryMode::Immediate,
                hotpath::params(id),
                hotpath::layout(),
                hotpath::capacity_elements(),
            ),
        );
    }
    if let Some(sink) = sink {
        demux.set_obs(sink);
    }
    for id in 1..=PAR_CONNS {
        demux
            .receiver_mut(id)
            .expect("registered")
            .reserve(tpdus + 8, tpdus * 4 + 64);
    }
    let mut events = Vec::with_capacity(BATCH * 8);
    let mut steady_from = 0u64;
    let begin = Instant::now();
    for (i, batch) in packets.chunks(BATCH).enumerate() {
        if i == warm_batches {
            steady_from = alloc_count::allocs();
        }
        for p in batch {
            demux.ingest(p, i as u64, &mut events);
        }
        events.clear();
    }
    let steady_allocs = alloc_count::allocs() - steady_from;
    let wall_ns = begin.elapsed().as_nanos() as u64;
    let delivered_bytes = (1..=PAR_CONNS)
        .map(|id| demux.receiver(id).expect("registered").verified_prefix())
        .sum();
    hotpath::RunOutcome {
        wall_ns,
        steady_allocs,
        delivered_bytes,
    }
}

/// Runs the sweep under one seed.
pub fn run(seed: u64) -> ObsOverheadResult {
    let counting = alloc_count::active();
    let serial_stream = hotpath::stream(1, seed);
    let serial_wire: u64 = serial_stream.iter().map(|p| p.bytes.len() as u64).sum();
    let serial_batches = serial_stream.len().div_ceil(BATCH);
    let serial_warm = (serial_batches / 4).max(1);

    let streams: Vec<Vec<Packet>> = (1..=PAR_CONNS)
        .map(|id| hotpath::stream(id, seed))
        .collect();
    let par_packets: usize = streams.iter().map(Vec::len).sum();
    let par_wire: u64 = streams
        .iter()
        .flat_map(|s| s.iter())
        .map(|p| p.bytes.len() as u64)
        .sum();
    let par_warm = (par_packets.div_ceil(BATCH) / 4).max(1);

    let mut recorded = true;
    // outcomes[leg][mode] accumulates one RunOutcome per round.
    let mut outcomes: Vec<Vec<Vec<hotpath::RunOutcome>>> = LEGS
        .iter()
        .map(|_| MODES.iter().map(|_| Vec::new()).collect())
        .collect();
    for _round in 0..REPEATS {
        for (li, leg) in LEGS.iter().enumerate() {
            for (mi, mode) in MODES.iter().enumerate() {
                let (sink, on_null) = mode_sink(mode);
                let outcome = match *leg {
                    "serial" => hotpath::run_serial_with(&serial_stream, serial_warm, sink),
                    "parallel" => hotpath::run_parallel_with(&streams, par_warm, sink),
                    "demux" => run_demux(&streams, par_warm, sink),
                    other => unreachable!("unknown leg {other}"),
                };
                if let Some(s) = on_null {
                    recorded &= s.snapshot().counter("transport.rx.chunks_accepted") > 0;
                }
                outcomes[li][mi].push(outcome);
            }
        }
    }

    let mut rows = Vec::new();
    for (li, leg) in LEGS.iter().enumerate() {
        let wire = if *leg == "serial" {
            serial_wire
        } else {
            par_wire
        };
        for (mi, mode) in MODES.iter().enumerate() {
            let runs = &outcomes[li][mi];
            let wall_ns = runs.iter().map(|o| o.wall_ns).min().unwrap_or(1);
            let steady = runs.iter().map(|o| o.steady_allocs).max().unwrap_or(0);
            // Median of per-round paired ratios: round r's mode wall over
            // round r's obs-off wall, both measured back to back.
            let mut ratios: Vec<f64> = runs
                .iter()
                .zip(outcomes[li][0].iter())
                .map(|(m, off)| m.wall_ns.max(1) as f64 / off.wall_ns.max(1) as f64)
                .collect();
            ratios.sort_by(|a, b| a.total_cmp(b));
            let median = ratios.get(ratios.len() / 2).copied().unwrap_or(1.0);
            let secs = wall_ns.max(1) as f64 / 1e9;
            rows.push(Row {
                leg,
                mode,
                wall_ns,
                mib_s: wire as f64 / (1024.0 * 1024.0) / secs,
                overhead_pct: (median - 1.0) * 100.0,
                steady_allocs: if counting { steady as i64 } else { -1 },
                delivered_bytes: runs.last().map(|o| o.delivered_bytes).unwrap_or(0),
            });
        }
    }

    ObsOverheadResult {
        seed,
        alloc_counting: counting,
        recorded,
        rows,
    }
}

/// Renders the sweep as the `BENCH_obs.json` record. Wall-clock numbers are
/// host-dependent, so `bench-check` validates this file structurally; the
/// committed on-null rows are additionally gated (≤5% overhead, 0 steady
/// allocations) by `tests/bench_schema.rs`.
pub fn bench_json(r: &ObsOverheadResult, describe: &str) -> String {
    use super::benchjson::meta_json;
    let mut out = String::from("{\n");
    out.push_str(&meta_json(
        "always-on-observability-overhead",
        "cargo run --release --bin experiments obs-overhead (or: just obs-overhead)",
        describe,
    ));
    out.push_str(&format!(
        "  \"workload\": \"{} KiB messages, {} KiB TPDUs, mtu {}, ingest batches of {}; serial receiver, parallel dispatcher ({} conns x {} workers, virtual engine), and connection-table demux legs\",\n",
        MESSAGE_BYTES / 1024,
        TPDU_ELEMENTS / 1024,
        hotpath::MTU,
        BATCH,
        PAR_CONNS,
        PAR_WORKERS,
    ));
    out.push_str(&format!(
        "  \"method\": \"{REPEATS} rounds with modes interleaved per round; wall_ms is the minimum round, overhead_pct the median of per-round ratios paired against the same round's obs-off run; steady-state allocations counted by the binary's counting global allocator after a quarter-stream warm-up (worst round; -1 = counting not installed)\",\n",
    ));
    out.push_str(&format!("  \"alloc_counting\": {},\n", r.alloc_counting));
    out.push_str(&format!("  \"recorded\": {},\n", r.recorded));
    out.push_str("  \"results\": [\n");
    let rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            format!(
                "    {{\"leg\": \"{}\", \"mode\": \"{}\", \"wall_ms\": {:.3}, \"mib_s\": {:.1}, \"overhead_pct\": {:.2}, \"steady_allocs\": {}, \"delivered_bytes\": {}}}",
                row.leg,
                row.mode,
                row.wall_ns as f64 / 1e6,
                row.mib_s,
                row.overhead_pct,
                row.steady_allocs,
                row.delivered_bytes,
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(leg: &'static str, mode: &'static str, overhead: f64, allocs: i64) -> Row {
        Row {
            leg,
            mode,
            wall_ns: 1_000_000,
            mib_s: 100.0,
            overhead_pct: overhead,
            steady_allocs: allocs,
            delivered_bytes: if leg == "serial" {
                MESSAGE_BYTES as u64
            } else {
                MESSAGE_BYTES as u64 * PAR_CONNS as u64
            },
        }
    }

    fn result(rows: Vec<Row>) -> ObsOverheadResult {
        ObsOverheadResult {
            seed: 1,
            alloc_counting: true,
            recorded: true,
            rows,
        }
    }

    #[test]
    fn gate_reads_the_on_null_hotpath_cells() {
        let ok = result(vec![
            row("serial", "obs-off", 0.0, 0),
            row("serial", "on-null", 3.0, 0),
            row("serial", "on-recording", 40.0, 900),
            row("parallel", "obs-off", 0.0, 0),
            row("parallel", "on-null", 1.0, 0),
            row("demux", "obs-off", 0.0, 0),
            row("demux", "on-null", 2.0, 0),
        ]);
        assert!(ok.passes());
        let slow = result(vec![
            row("serial", "obs-off", 0.0, 0),
            row("serial", "on-null", 7.5, 0),
            row("parallel", "obs-off", 0.0, 0),
            row("parallel", "on-null", 1.0, 0),
        ]);
        assert!(!slow.passes(), "on-null above 5% must fail");
        let fat = result(vec![
            row("serial", "obs-off", 0.0, 0),
            row("serial", "on-null", 1.0, 3),
            row("parallel", "obs-off", 0.0, 0),
            row("parallel", "on-null", 1.0, 0),
        ]);
        assert!(!fat.passes(), "on-null allocations must fail");
    }

    #[test]
    fn bench_json_is_parseable_and_row_complete() {
        let r = result(vec![
            row("serial", "obs-off", 0.0, 0),
            row("serial", "on-null", 3.0, 0),
        ]);
        let json = bench_json(&r, "test");
        let v = crate::experiments::benchjson::parse(&json).expect("parses");
        let rows = v
            .get("results")
            .and_then(crate::experiments::benchjson::Value::as_arr)
            .expect("results array");
        assert_eq!(rows.len(), 2);
        for key in [
            "leg",
            "mode",
            "wall_ms",
            "mib_s",
            "overhead_pct",
            "steady_allocs",
            "delivered_bytes",
        ] {
            assert!(rows[0].get(key).is_some(), "row key {key}");
        }
    }
}
