//! Health snapshots and the watchdog: a periodic, virtual-clock-driven
//! aggregation of transport state with threshold rules that emit typed
//! [`HealthEvent`]s.
//!
//! The report is plain data filled in by whoever owns the state (`Session`,
//! `ParallelReceiver`, or an experiment driving a `ConnTable` directly); the
//! obs crate defines the shape and the rules so every surface degrades the
//! same way. Everything rides the virtual clock — two runs of the same
//! seeded scenario produce identical reports and identical events.

use std::fmt;

use crate::sink::ObsSink;

/// A point-in-time aggregation of transport health, on the virtual clock.
///
/// Fields default to zero/false; a producer fills in what it can see
/// (a serial `Session` knows its RTO state, a `ParallelReceiver` its queue
/// depths, a demux its table stats).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct HealthReport {
    /// Virtual-clock time of the report.
    pub at_ns: u64,
    /// Live connections (1 for a single-connection session).
    pub live_conns: u64,
    /// Cumulative connection-table admissions.
    pub admissions: u64,
    /// Cumulative connection/group evictions.
    pub evictions: u64,
    /// Cumulative connection-table refusals.
    pub refusals: u64,
    /// True when the occupancy crossed the back-pressure threshold.
    pub under_pressure: bool,
    /// Bytes currently held/staged against the receive budget.
    pub held_bytes: u64,
    /// Cumulative bytes shed on budget exhaustion.
    pub shed_bytes: u64,
    /// Cumulative retransmission-timer fires.
    pub timer_fires: u64,
    /// Cumulative timer-driven retransmissions.
    pub timer_retransmits: u64,
    /// Current smoothed base RTO in nanoseconds.
    pub rto_base_ns: u64,
    /// Packets/work items currently queued (backlog or shard queues).
    pub queue_depth: u64,
    /// Cumulative TPDUs delivered verified.
    pub tpdus_delivered: u64,
    /// Cumulative TPDUs failed (ED mismatch, inconsistency, bad chunk).
    pub tpdus_failed: u64,
}

impl HealthReport {
    /// Renders the report as one byte-stable JSON object (integers and
    /// booleans only — no floats, no wall clock).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"t\": {}, \"live_conns\": {}, \"admissions\": {}, \"evictions\": {}, \
             \"refusals\": {}, \"under_pressure\": {}, \"held_bytes\": {}, \"shed_bytes\": {}, \
             \"timer_fires\": {}, \"timer_retransmits\": {}, \"rto_base_ns\": {}, \
             \"queue_depth\": {}, \"tpdus_delivered\": {}, \"tpdus_failed\": {}}}",
            self.at_ns,
            self.live_conns,
            self.admissions,
            self.evictions,
            self.refusals,
            self.under_pressure,
            self.held_bytes,
            self.shed_bytes,
            self.timer_fires,
            self.timer_retransmits,
            self.rto_base_ns,
            self.queue_depth,
            self.tpdus_delivered,
            self.tpdus_failed,
        )
    }
}

/// A typed verdict from one watchdog threshold rule.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HealthEvent {
    /// Timers kept firing across a whole watchdog window with nothing
    /// delivered — the livelock signature the RTO layer exists to prevent.
    LivelockSuspected {
        /// Timer fires inside the window.
        fires: u64,
        /// TPDUs delivered inside the window (zero, by construction).
        deliveries: u64,
    },
    /// Evictions inside one watchdog window crossed the storm threshold.
    EvictionStorm {
        /// Evictions inside the window.
        evictions: u64,
        /// The window length in virtual nanoseconds.
        window_ns: u64,
    },
    /// The table reported `under_pressure` for N consecutive reports — the
    /// pressure never cleared.
    PressureStuck {
        /// Consecutive pressured reports.
        reports: u32,
    },
}

impl HealthEvent {
    /// The event's stable name, as used in exports.
    pub fn name(&self) -> &'static str {
        match self {
            HealthEvent::LivelockSuspected { .. } => "LivelockSuspected",
            HealthEvent::EvictionStorm { .. } => "EvictionStorm",
            HealthEvent::PressureStuck { .. } => "PressureStuck",
        }
    }

    /// Renders the event as one byte-stable JSON object.
    pub fn to_json(&self) -> String {
        match self {
            HealthEvent::LivelockSuspected { fires, deliveries } => format!(
                "{{\"health\": \"LivelockSuspected\", \"fires\": {fires}, \"deliveries\": {deliveries}}}"
            ),
            HealthEvent::EvictionStorm {
                evictions,
                window_ns,
            } => format!(
                "{{\"health\": \"EvictionStorm\", \"evictions\": {evictions}, \"window_ns\": {window_ns}}}"
            ),
            HealthEvent::PressureStuck { reports } => {
                format!("{{\"health\": \"PressureStuck\", \"reports\": {reports}}}")
            }
        }
    }
}

impl fmt::Display for HealthEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthEvent::LivelockSuspected { fires, deliveries } => write!(
                f,
                "livelock suspected: {fires} timer fires, {deliveries} deliveries in window"
            ),
            HealthEvent::EvictionStorm {
                evictions,
                window_ns,
            } => write!(f, "eviction storm: {evictions} evictions in {window_ns} ns"),
            HealthEvent::PressureStuck { reports } => {
                write!(f, "pressure stuck: under_pressure for {reports} reports")
            }
        }
    }
}

/// Watchdog thresholds and cadence.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Virtual nanoseconds between reports.
    pub interval_ns: u64,
    /// Timer fires (with zero deliveries) in one window that mean livelock.
    pub livelock_fires: u64,
    /// Evictions in one window that mean a storm.
    pub storm_evictions: u64,
    /// Consecutive pressured reports that mean the pressure is stuck.
    pub stuck_reports: u32,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            interval_ns: 10_000_000, // 10 virtual ms
            livelock_fires: 3,
            storm_evictions: 8,
            stuck_reports: 3,
        }
    }
}

/// The watchdog: owns the previous report and the threshold rules. Call
/// [`Watchdog::due`] cheaply on the hot path; build a report and call
/// [`Watchdog::tick`] only when it says so.
#[derive(Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    last_tick_ns: Option<u64>,
    prev: Option<HealthReport>,
    pressure_streak: u32,
    /// Reports aggregated so far.
    reports: u64,
}

impl Watchdog {
    /// Creates a watchdog with `cfg` thresholds.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Watchdog {
            cfg,
            last_tick_ns: None,
            prev: None,
            pressure_streak: 0,
            reports: 0,
        }
    }

    /// The configured cadence and thresholds.
    pub fn config(&self) -> WatchdogConfig {
        self.cfg
    }

    /// Reports aggregated so far.
    pub fn reports(&self) -> u64 {
        self.reports
    }

    /// True when `now` is at least one interval past the previous tick
    /// (always true before the first tick).
    pub fn due(&self, now: u64) -> bool {
        match self.last_tick_ns {
            None => true,
            Some(last) => now.saturating_sub(last) >= self.cfg.interval_ns,
        }
    }

    /// Consumes one report: applies every threshold rule against the
    /// previous report's window and returns the events that fired. Counts
    /// `transport.health.reports`/`transport.health.events` on `sink` and
    /// raises the `"eviction-storm"` degradation trigger on a storm.
    pub fn tick(&mut self, report: &HealthReport, sink: &dyn ObsSink) -> Vec<HealthEvent> {
        self.last_tick_ns = Some(report.at_ns);
        self.reports += 1;
        sink.counter("transport.health.reports", 1);
        let mut events = Vec::new();
        if let Some(prev) = self.prev {
            let window_ns = report.at_ns.saturating_sub(prev.at_ns);
            let fires = report.timer_fires.saturating_sub(prev.timer_fires);
            let deliveries = report.tpdus_delivered.saturating_sub(prev.tpdus_delivered);
            if fires >= self.cfg.livelock_fires && deliveries == 0 {
                events.push(HealthEvent::LivelockSuspected { fires, deliveries });
            }
            let evictions = report.evictions.saturating_sub(prev.evictions);
            if evictions >= self.cfg.storm_evictions {
                events.push(HealthEvent::EvictionStorm {
                    evictions,
                    window_ns,
                });
                sink.degraded(report.at_ns, "eviction-storm", 0);
            }
        }
        if report.under_pressure {
            self.pressure_streak += 1;
            if self.pressure_streak == self.cfg.stuck_reports {
                events.push(HealthEvent::PressureStuck {
                    reports: self.pressure_streak,
                });
            }
        } else {
            self.pressure_streak = 0;
        }
        if !events.is_empty() {
            sink.counter("transport.health.events", events.len() as u64);
        }
        self.prev = Some(*report);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::Recorder;

    fn report(at_ns: u64) -> HealthReport {
        HealthReport {
            at_ns,
            live_conns: 1,
            ..HealthReport::default()
        }
    }

    #[test]
    fn due_follows_the_interval() {
        let w = Watchdog::new(WatchdogConfig {
            interval_ns: 100,
            ..WatchdogConfig::default()
        });
        assert!(w.due(0));
        let mut w = w;
        let sink = Recorder::shared();
        w.tick(&report(0), &*sink);
        assert!(!w.due(50));
        assert!(w.due(100));
    }

    #[test]
    fn livelock_rule_needs_fires_without_deliveries() {
        let mut w = Watchdog::new(WatchdogConfig {
            interval_ns: 10,
            livelock_fires: 3,
            ..WatchdogConfig::default()
        });
        let sink = Recorder::shared();
        w.tick(&report(0), &*sink);
        // Fires with deliveries: healthy retransmission, no event.
        let mut r = report(10);
        r.timer_fires = 5;
        r.tpdus_delivered = 2;
        assert!(w.tick(&r, &*sink).is_empty());
        // More fires, nothing new delivered: livelock suspicion.
        let mut r2 = report(20);
        r2.timer_fires = 9;
        r2.tpdus_delivered = 2;
        let evs = w.tick(&r2, &*sink);
        assert_eq!(
            evs,
            vec![HealthEvent::LivelockSuspected {
                fires: 4,
                deliveries: 0
            }]
        );
        assert_eq!(sink.snapshot().counter("transport.health.reports"), 3);
        assert_eq!(sink.snapshot().counter("transport.health.events"), 1);
    }

    #[test]
    fn storm_rule_fires_the_degradation_trigger() {
        let mut w = Watchdog::new(WatchdogConfig {
            interval_ns: 10,
            storm_evictions: 4,
            ..WatchdogConfig::default()
        });
        let sink = Recorder::shared();
        w.tick(&report(0), &*sink);
        let mut r = report(10);
        r.evictions = 6;
        let evs = w.tick(&r, &*sink);
        assert_eq!(
            evs,
            vec![HealthEvent::EvictionStorm {
                evictions: 6,
                window_ns: 10
            }]
        );
        assert_eq!(sink.snapshot().counter("obs.flight.triggers"), 1);
    }

    #[test]
    fn pressure_stuck_fires_once_per_streak() {
        let mut w = Watchdog::new(WatchdogConfig {
            interval_ns: 10,
            stuck_reports: 2,
            ..WatchdogConfig::default()
        });
        let sink = Recorder::shared();
        let mut pressured = report(0);
        pressured.under_pressure = true;
        assert!(w.tick(&pressured, &*sink).is_empty());
        pressured.at_ns = 10;
        assert_eq!(
            w.tick(&pressured, &*sink),
            vec![HealthEvent::PressureStuck { reports: 2 }]
        );
        // The streak continues but the event does not repeat.
        pressured.at_ns = 20;
        assert!(w.tick(&pressured, &*sink).is_empty());
        // Clearing and re-crossing re-arms the rule.
        let mut clear = report(30);
        clear.under_pressure = false;
        w.tick(&clear, &*sink);
        pressured.at_ns = 40;
        assert!(w.tick(&pressured, &*sink).is_empty());
        pressured.at_ns = 50;
        assert_eq!(
            w.tick(&pressured, &*sink),
            vec![HealthEvent::PressureStuck { reports: 2 }]
        );
    }

    #[test]
    fn report_and_event_json_are_stable() {
        let mut r = report(42);
        r.timer_fires = 3;
        assert!(r.to_json().starts_with("{\"t\": 42, \"live_conns\": 1,"));
        assert_eq!(
            HealthEvent::PressureStuck { reports: 3 }.to_json(),
            "{\"health\": \"PressureStuck\", \"reports\": 3}"
        );
        assert_eq!(
            HealthEvent::EvictionStorm {
                evictions: 9,
                window_ns: 10
            }
            .name(),
            "EvictionStorm"
        );
    }
}
