//! Health surface under induced degradation: the watchdog sees the failure
//! before the caller does, and the flight recorder explains it afterwards.
//!
//! Two legs, both on the virtual clock and both run twice to prove the
//! whole surface — reports, events, flight dump — is byte-deterministic:
//!
//! * **session leg** — a sender pushes a transfer into a total ack
//!   blackout under `DegradePolicy::Abort`. The in-session watchdog's
//!   livelock rule (timers firing across a window with zero deliveries)
//!   raises [`HealthEvent::LivelockSuspected`] *before* the retry budget
//!   empties; the eventual `PeerUnreachable` verdict arms the flight
//!   recorder's `peer-unreachable` trigger and the sink captures a dump.
//! * **table leg** — a small [`ConnTable`] is churned far past `max_live`.
//!   The occupancy pins above the pressure threshold
//!   ([`HealthEvent::PressureStuck`]) while sampled-LRU evictions exceed
//!   the storm threshold every window ([`HealthEvent::EvictionStorm`]);
//!   the storm rule raises the `eviction-storm` degradation trigger.
//!
//! This is the experiment behind `experiments health` / `just health`.

use std::fmt;
use std::sync::Arc;

use chunks_obs::{HealthEvent, HealthReport, Recorder, Watchdog, WatchdogConfig};
use chunks_transport::ConnTable;
use chunks_transport::{
    ConnectionParams, DegradePolicy, DeliveryMode, Receiver, RtoConfig, SenderConfig, Session,
    TableConfig,
};
use chunks_wsc::InvariantLayout;

/// Virtual time between session pumps.
pub const TICK_NS: u64 = 200_000;
/// Livelock bound on the session leg.
pub const MAX_TICKS: u64 = 3_000;
/// Bytes the blackout transfer submits.
pub const PAYLOAD_BYTES: usize = 2_048;
/// Table-leg capacity ceiling (evictions start here).
pub const TABLE_MAX_LIVE: usize = 16;
/// Table-leg admissions driven through the table.
pub const TABLE_CHURN: usize = 200;

/// One leg's outcome: the health events the watchdog raised, the final
/// report, and the flight-recorder dump the degradation left behind.
#[derive(Clone, PartialEq, Debug)]
pub struct LegOutcome {
    /// Leg label.
    pub leg: &'static str,
    /// Watchdog verdicts, in emission order.
    pub events: Vec<HealthEvent>,
    /// The last health report of the run.
    pub report: HealthReport,
    /// The flight dump (JSON lines), if a degradation trigger fired.
    pub dump: Option<String>,
    /// Watchdog reports consumed.
    pub reports: u64,
}

impl LegOutcome {
    /// True when `name` appears among the raised events.
    pub fn raised(&self, name: &str) -> bool {
        self.events.iter().any(|e| e.name() == name)
    }

    /// The dump's trigger field, parsed from the header line.
    pub fn dump_trigger(&self) -> Option<&str> {
        let header = self.dump.as_deref()?.lines().next()?;
        let tail = header.split("\"trigger\": \"").nth(1)?;
        tail.split('"').next()
    }
}

/// Both legs plus the determinism verdict from the second run.
#[derive(Clone, PartialEq, Debug)]
pub struct HealthResult {
    /// Seed of the run.
    pub seed: u64,
    /// The ack-blackout session leg.
    pub session: LegOutcome,
    /// True when the session leg ended in the typed `PeerUnreachable`.
    pub session_aborted: bool,
    /// The connection-table churn leg.
    pub table: LegOutcome,
    /// True when a full re-run reproduced both legs byte-for-byte
    /// (events, reports, and dumps).
    pub deterministic: bool,
}

impl HealthResult {
    /// Acceptance: the session leg aborts with a livelock warning first and
    /// a `peer-unreachable` dump after; the table leg raises both the storm
    /// and the stuck-pressure verdicts with an armed dump; and the whole
    /// surface replays byte-identically.
    pub fn passes(&self) -> bool {
        self.session_aborted
            && self.session.raised("LivelockSuspected")
            && self.session.dump_trigger() == Some("peer-unreachable")
            && self.table.raised("EvictionStorm")
            && self.table.raised("PressureStuck")
            && self.table.dump.is_some()
            && self.deterministic
    }
}

impl fmt::Display for HealthResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== health — watchdog verdicts under induced degradation (seed {:#x}) ===",
            self.seed
        )?;
        for leg in [&self.session, &self.table] {
            writeln!(
                f,
                "  [{}] {} watchdog reports, {} events, dump trigger: {}",
                leg.leg,
                leg.reports,
                leg.events.len(),
                leg.dump_trigger().unwrap_or("-"),
            )?;
            writeln!(f, "    last report: {}", leg.report.to_json())?;
            for e in &leg.events {
                writeln!(f, "    event: {}", e.to_json())?;
            }
        }
        writeln!(
            f,
            "  session aborted: {}; deterministic replay: {}",
            self.session_aborted, self.deterministic
        )?;
        Ok(())
    }
}

fn params(conn_id: u32) -> ConnectionParams {
    ConnectionParams {
        conn_id,
        elem_size: 1,
        initial_csn: 0,
        tpdu_elements: 64,
    }
}

/// The ack-blackout session leg: pump into the void until the abort.
fn run_session_leg(seed: u64) -> (LegOutcome, bool) {
    let sink = Recorder::shared();
    let layout = InvariantLayout::with_data_symbols(2048);
    let payload: Vec<u8> = (0..PAYLOAD_BYTES)
        .map(|i| (i as u64).wrapping_mul(7).wrapping_add(seed) as u8)
        .collect();
    let mut s = Session::new(
        SenderConfig {
            params: params(1),
            layout,
            mtu: 512,
            min_tpdu_elements: 4,
            max_tpdu_elements: 256,
        },
        params(2),
        layout,
        DeliveryMode::Immediate,
        1 << 14,
    )
    .with_rto(RtoConfig {
        policy: DegradePolicy::Abort,
        ..RtoConfig::default()
    })
    .with_burst_limits(4, 8)
    .with_obs(sink.clone() as Arc<dyn chunks_obs::ObsSink>)
    .with_watchdog(WatchdogConfig::default());
    s.send(&payload, 0xA, false);

    let mut events = Vec::new();
    let mut aborted = false;
    let mut elapsed = 0;
    for tick in 0..MAX_TICKS {
        let t = tick * TICK_NS;
        elapsed = t;
        // Every packet drops into the blackout: no acks ever return.
        if s.pump(t).is_err() {
            aborted = true;
            break;
        }
        events.extend(s.take_health_events());
    }
    events.extend(s.take_health_events());
    let mut report = s.health_report();
    report.at_ns = elapsed;
    (
        LegOutcome {
            leg: "session",
            events,
            report,
            dump: sink.dump_json_lines(),
            reports: 0,
        },
        aborted,
    )
}

/// The churn leg: admissions far past `max_live`, watchdog driven off the
/// table's own statistics.
fn run_table_leg(seed: u64) -> LegOutcome {
    let sink = Recorder::shared();
    let layout = InvariantLayout::with_data_symbols(2048);
    let mut table =
        ConnTable::new(TableConfig::for_capacity(TABLE_MAX_LIVE).with_max_live(TABLE_MAX_LIVE));
    table.set_obs(sink.clone() as Arc<dyn chunks_obs::ObsSink>);
    let mut wd = Watchdog::new(WatchdogConfig {
        interval_ns: 10 * TICK_NS,
        ..WatchdogConfig::default()
    });

    let mut events = Vec::new();
    let mut report = HealthReport::default();
    // Conn-id order is seed-rotated: determinism must not hinge on one
    // fixed admission order.
    let base = (seed % 97) as u32 + 1;
    for i in 0..TABLE_CHURN {
        let t = i as u64 * TICK_NS;
        let conn_id = base + i as u32;
        table.admit(
            params(conn_id),
            t,
            || Receiver::new(DeliveryMode::Immediate, params(conn_id), layout, 1 << 12),
            |_| {},
        );
        if wd.due(t) {
            let stats = table.stats;
            report = HealthReport {
                at_ns: t,
                live_conns: table.len() as u64,
                admissions: stats.admissions,
                evictions: stats.evictions,
                refusals: stats.refusals,
                under_pressure: table.under_pressure(),
                ..HealthReport::default()
            };
            events.extend(wd.tick(&report, &*sink));
        }
    }
    LegOutcome {
        leg: "table",
        events,
        report,
        dump: sink.dump_json_lines(),
        reports: wd.reports(),
    }
}

fn run_once(seed: u64) -> (LegOutcome, bool, LegOutcome) {
    let (session, aborted) = run_session_leg(seed);
    let table = run_table_leg(seed);
    (session, aborted, table)
}

/// Runs both legs twice under one seed and compares the replays.
pub fn run(seed: u64) -> HealthResult {
    let (session, session_aborted, table) = run_once(seed);
    let (session2, aborted2, table2) = run_once(seed);
    let deterministic = session == session2 && table == table2 && session_aborted == aborted2;
    HealthResult {
        seed,
        session,
        session_aborted,
        table,
        deterministic,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blackout_raises_livelock_then_aborts_with_dump() {
        let r = run(0xC0451);
        assert!(r.session_aborted, "blackout must abort");
        assert!(
            r.session.raised("LivelockSuspected"),
            "watchdog must warn before the verdict: {:?}",
            r.session.events
        );
        assert_eq!(r.session.dump_trigger(), Some("peer-unreachable"));
    }

    #[test]
    fn churn_raises_storm_and_stuck_pressure() {
        let r = run(0xC0451);
        assert!(r.table.raised("EvictionStorm"), "{:?}", r.table.events);
        assert!(r.table.raised("PressureStuck"), "{:?}", r.table.events);
        assert!(r.table.dump.is_some(), "a degradation trigger must fire");
    }

    #[test]
    fn whole_surface_is_deterministic_and_passes() {
        let r = run(0xA5EED);
        assert!(r.deterministic);
        assert!(r.passes());
    }
}
