//! Zero-dependency observability for the chunk receive path: monotonic
//! counters, fixed-bucket histograms, and a structured event trace — all
//! deterministic under a virtual clock.
//!
//! The crate is the substrate the rest of the workspace reports through.
//! Three properties shape the design:
//!
//! * **Zero dependencies, no I/O, no clocks.** Timestamps come from the
//!   caller's virtual clock, storage is flat arrays sized from a static
//!   catalogue, and export is plain `String`s. Two runs of the same seeded
//!   scenario therefore export byte-identical traces, which turns the
//!   observability layer itself into a determinism test.
//! * **One branch when disabled.** Instrumented layers hold an
//!   [`Arc<dyn ObsSink>`](ObsSink) and cache [`ObsSink::enabled`] once; with
//!   the default [`NullSink`] every instrumentation site reduces to a
//!   single `if` on a local bool, so byte-identical differential tests of
//!   the uninstrumented pipeline stay green.
//! * **A closed metric surface.** Every counter and histogram is declared
//!   in [`catalogue::CATALOGUE`] with its unit and incrementing code path;
//!   `docs/OBSERVABILITY.md` documents exactly that list and a test keeps
//!   the two in sync.
//!
//! One mechanism per job: one recording sink ([`Recorder`]) over one event
//! ring ([`TraceRing`]). Its always-on tier ([`Recorder::shared`]) is the
//! allocation-free production sink; its verbose tier
//! ([`Recorder::verbose_tier`]) adds per-chunk events and lifecycle spans
//! for tests and debugging and carries no cost bound.
//!
//! # Example
//!
//! ```
//! use chunks_obs::{Event, Labels, ObsSink, Recorder};
//!
//! // The always-on tier; `Recorder::verbose_tier(cap)` adds per-chunk
//! // events and lifecycle spans for tests and debugging.
//! let sink = Recorder::shared();
//! // A layer records against the trait object...
//! sink.counter("transport.rx.chunks_accepted", 1);
//! sink.observe("vreasm.tracker.fragments", 3);
//! sink.event(1_000, Event::GroupDelivered { conn_id: 7, start: 0, bytes: 512 });
//!
//! // ...and the harness reads everything back.
//! let snap = sink.snapshot();
//! assert_eq!(snap.counter("transport.rx.chunks_accepted"), 1);
//! assert_eq!(
//!     sink.trace_json_lines(),
//!     "{\"t\": 1000, \"ev\": \"GroupDelivered\", \"cid\": 7, \"start\": 0, \"bytes\": 512}\n"
//! );
//! ```

#![deny(missing_docs)]

pub mod catalogue;
pub mod event;
pub mod flight;
pub mod health;
pub mod lineage;
pub mod metrics;
pub mod sink;
pub mod span;
pub mod trace;

pub use catalogue::{Kind, Spec, CATALOGUE};
pub use event::{Event, Labels};
pub use flight::{FlightDump, DEFAULT_FLIGHT_CAPACITY};
pub use health::{HealthEvent, HealthReport, Watchdog, WatchdogConfig};
pub use lineage::{ChunkLineage, Lineage, StageEntry};
pub use metrics::{AtomicMetrics, HistogramSnapshot, HotCounter, Metrics, ShardMetrics, Snapshot};
pub use sink::{null, AlwaysOnSink, NullSink, ObsSink, Recorder, ShardSink};
pub use span::{SpanId, SpanLink, SpanRecord, SpanStore, Stage};
pub use trace::{TimedEvent, TraceRing, DEFAULT_TRACE_CAPACITY};
