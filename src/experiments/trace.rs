//! Deterministic event-trace replay: any soak scenario, observed.
//!
//! The observability layer's core promise is that a trace is *evidence*: the
//! same seeded scenario must export the byte-identical JSON-lines trace on
//! every run, because everything — the fault stream, the retransmission
//! timers, the event timestamps — rides the virtual clock. This experiment
//! replays one cell of the soak matrix (any of them: `experiments trace
//! <scenario>` picks; the default `label-flips` mixes Byzantine label
//! mutations with 10% ack loss, exercising decode rejects, WSC-2
//! verification failures, timer-driven retransmission and backoff) twice
//! with recording sinks and checks the exports byte for byte, then
//! pretty-prints the timeline a human would read to diagnose the run.

use std::fmt;

use chunks_obs::Recorder;

use super::soak;

/// Scenario replayed when none is named on the command line.
pub const DEFAULT_SCENARIO: &str = "label-flips";
/// Trace-ring capacity for the replay: large enough that no event of the
/// 2 KiB transfer is evicted, so the export really is the whole story.
pub const TRACE_EVENTS: usize = 1 << 16;

/// Result of the trace replay.
#[derive(Clone, Debug)]
pub struct TraceResult {
    /// Scenario replayed.
    pub scenario: &'static str,
    /// Seed of the run.
    pub seed: u64,
    /// True when two runs exported byte-identical JSON lines *and*
    /// identical metric snapshots.
    pub deterministic: bool,
    /// Events recorded (after which the ring was not full: `dropped == 0`).
    pub events: usize,
    /// Events evicted from the ring (must be zero at [`TRACE_EVENTS`]).
    pub dropped: u64,
    /// The machine-readable export: one JSON object per line.
    pub json_lines: String,
    /// The human-readable timeline.
    pub text: String,
    /// The metric registry rendered as text.
    pub metrics_text: String,
    /// The underlying soak row (outcome, delivered bytes, retransmits).
    pub row: soak::SoakRow,
}

impl TraceResult {
    /// Acceptance: the export is reproducible, non-empty, complete (no
    /// eviction), and the run itself terminated cleanly.
    pub fn passes(&self) -> bool {
        self.deterministic && self.events > 0 && self.dropped == 0 && self.row.terminated_cleanly()
    }
}

impl fmt::Display for TraceResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== trace — deterministic event timeline (scenario {}, seed {:#x}) ===",
            self.scenario, self.seed
        )?;
        writeln!(
            f,
            "  outcome {} ({}/{} bytes), {} events, {} dropped, replay {}",
            self.row.outcome,
            self.row.delivered_bytes,
            self.row.total_bytes,
            self.events,
            self.dropped,
            if self.deterministic {
                "byte-identical"
            } else {
                "DIVERGED"
            },
        )?;
        writeln!(f, "--- metrics ---")?;
        write!(f, "{}", self.metrics_text)?;
        writeln!(f, "--- timeline ---")?;
        let lines: Vec<&str> = self.text.lines().collect();
        const HEAD: usize = 40;
        const TAIL: usize = 10;
        if lines.len() <= HEAD + TAIL {
            for l in &lines {
                writeln!(f, "{l}")?;
            }
        } else {
            for l in &lines[..HEAD] {
                writeln!(f, "{l}")?;
            }
            writeln!(
                f,
                "  ... {} timeline lines elided ...",
                lines.len() - HEAD - TAIL
            )?;
            for l in &lines[lines.len() - TAIL..] {
                writeln!(f, "{l}")?;
            }
        }
        Ok(())
    }
}

/// Every scenario name the replay accepts, in fault-matrix order.
pub fn scenario_names() -> Vec<&'static str> {
    soak::fault_matrix().iter().map(|sc| sc.name).collect()
}

fn observed_run(sc: &soak::SoakScenario, seed: u64) -> (soak::SoakRow, std::sync::Arc<Recorder>) {
    let sink = Recorder::verbose_tier(TRACE_EVENTS);
    let row = soak::run_scenario_observed(sc, seed, sink.clone());
    (row, sink)
}

/// Replays `scenario` twice under `seed` and compares the exports. An
/// unknown scenario name returns the list of valid ones instead.
pub fn run(seed: u64, scenario: &str) -> Result<TraceResult, Vec<&'static str>> {
    let Some(sc) = soak::fault_matrix()
        .into_iter()
        .find(|sc| sc.name == scenario)
    else {
        return Err(scenario_names());
    };
    let (row, sink) = observed_run(&sc, seed);
    let (_, sink2) = observed_run(&sc, seed);
    let json_lines = sink.trace_json_lines();
    let deterministic =
        json_lines == sink2.trace_json_lines() && sink.snapshot() == sink2.snapshot();
    Ok(TraceResult {
        scenario: sc.name,
        seed,
        deterministic,
        events: sink.events().len(),
        dropped: sink.trace_dropped(),
        json_lines,
        text: sink.trace_text(),
        metrics_text: sink.snapshot().render_text(),
        row,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_replay_is_deterministic_and_complete() {
        let r = run(0xC0451, DEFAULT_SCENARIO).expect("default scenario exists");
        assert!(r.passes(), "trace replay failed: {r}");
        // The scenario's faults must actually appear in the trace.
        assert!(r.json_lines.contains("\"ev\": \"ChunkRejected\""));
        assert!(r.json_lines.contains("\"ev\": \"RetransmitFired\""));
        assert!(r.json_lines.contains("\"ev\": \"GroupDelivered\""));
        // The Byzantine middlebox now narrates its own mutations.
        assert!(r.json_lines.contains("\"ev\": \"ChunkMutated\""));
    }

    #[test]
    fn unknown_scenario_lists_the_valid_names() {
        let names = run(0xC0451, "no-such-cell").unwrap_err();
        assert!(names.contains(&"label-flips"));
        assert!(names.contains(&"ack-blackout-shed"));
        assert_eq!(names, scenario_names());
    }
}
