//! The `ObsSink` trait the instrumented layers talk to, its no-op default,
//! the one recording implementation and the per-owner shard facade.
//!
//! Layers hold an `Arc<dyn ObsSink>` and cache `enabled()` once at
//! construction, so the disabled hot path is a single branch on a local
//! bool — no virtual call, no atomic, no allocation. The [`NullSink`]
//! default keeps every existing byte-identical differential test green; a
//! [`Recorder`] swaps in an [`AtomicMetrics`] root, owner-writes shard
//! blocks and a mutex-guarded [`TraceRing`] without the instrumented code
//! changing.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::event::{Event, Labels};
use crate::flight::{FlightDump, DEFAULT_FLIGHT_CAPACITY};
use crate::lineage::Lineage;
use crate::metrics::{AtomicMetrics, HotCounter, ShardMetrics, Snapshot};
use crate::span::{SpanId, SpanLink, SpanRecord, SpanStore};
use crate::trace::{TimedEvent, TraceRing};

/// Where instrumented layers send counters, histogram observations and
/// trace events. All methods take `&self`; implementations must be
/// shareable across threads (the parallel receiver clones one sink into
/// every worker shard).
pub trait ObsSink: Send + Sync + std::fmt::Debug {
    /// True when this sink actually records. Callers cache the answer and
    /// skip instrumentation entirely when false.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `delta` to the catalogued counter `name`.
    fn counter(&self, name: &'static str, delta: u64) {
        let _ = (name, delta);
    }

    /// Records `value` into the catalogued histogram `name`.
    fn observe(&self, name: &'static str, value: u64) {
        let _ = (name, value);
    }

    /// Records a structured event at virtual time `at_ns`.
    fn event(&self, at_ns: u64, event: Event) {
        let _ = (at_ns, event);
    }

    /// Opens a label-keyed lifecycle span at virtual time `at_ns`.
    fn span_open(&self, at_ns: u64, id: SpanId) {
        let _ = (at_ns, id);
    }

    /// Closes the newest open span with `id`'s identity at `at_ns`. A
    /// recording implementation also feeds the closed duration into the
    /// stage's `span.delay.*` histogram (see
    /// [`Stage::delay_metric`](crate::span::Stage::delay_metric)).
    fn span_close(&self, at_ns: u64, id: SpanId) {
        let _ = (at_ns, id);
    }

    /// Records a parent→child fragmentation link at virtual time `at_ns`
    /// (a router split `parent` and `child` is one resulting piece).
    fn span_link(&self, at_ns: u64, parent: Labels, child: Labels) {
        let _ = (at_ns, parent, child);
    }

    /// True when the sink wants the *expensive* instrumentation too:
    /// per-chunk decode events, per-chunk dispatch events and per-chunk
    /// lifecycle spans. A verbose-tier [`Recorder`] says yes; the
    /// always-on tier says no, keeping the obs-on hot path
    /// allocation-free. Callers cache
    /// `enabled() && verbose()` next to their cached `enabled()`.
    fn verbose(&self) -> bool {
        true
    }

    /// Hands out a fresh per-worker/per-receiver counter block, registered
    /// with the sink so [`ObsSink::flush`] can drain it and snapshots can
    /// fold it. `None` (the default) means the sink does not shard: callers
    /// keep routing counters through the sink itself.
    fn worker_shard(&self) -> Option<Arc<ShardMetrics>> {
        None
    }

    /// Resolves `name` to a pre-bound [`HotCounter`] once, so a per-chunk
    /// site pays two plain stores per update instead of a label lookup.
    /// Only a sharding facade ([`ShardSink`]) can bind a cell; the default
    /// hands back an unresolved handle whose `add` falls through to
    /// [`ObsSink::counter`] by name — identical behaviour, just slower.
    fn hot_counter(&self, name: &'static str) -> HotCounter {
        HotCounter::unresolved(name)
    }

    /// Drains every registered worker shard into the root registry. Only
    /// sound at barriers where no shard owner is concurrently writing
    /// (`drain()`/`sync()`/`finish()` of the parallel pipeline) — the
    /// sharded backend's owner-writes `add` is not atomic against a
    /// concurrent drain.
    fn flush(&self) {}

    /// A degradation trigger fired (`"peer-unreachable"`,
    /// `"budget-exhausted"`, `"verify-failure"`, `"pressure-crossing"`,
    /// `"eviction-storm"`). The [`Recorder`] marks its ring and captures
    /// the postmortem dump on the first trigger.
    fn degraded(&self, at_ns: u64, trigger: &'static str, conn_id: u32) {
        let _ = (at_ns, trigger, conn_id);
    }

    /// Advances the sink's monotonic virtual clock to at least `at_ns`.
    /// Layers that stamp events *after* their own clock stops moving (the
    /// parallel merge path) read it back via [`ObsSink::clock`], so merge
    /// events can never carry an earlier timestamp than the worker events
    /// they fold.
    fn clock_advance(&self, at_ns: u64) {
        let _ = at_ns;
    }

    /// The sink's monotonic virtual clock (0 when the sink keeps none).
    fn clock(&self) -> u64 {
        0
    }
}

/// The default sink: records nothing, reports `enabled() == false`.
#[derive(Clone, Copy, Default, Debug)]
pub struct NullSink;

impl ObsSink for NullSink {}

/// A shared handle to the default no-op sink.
pub fn null() -> Arc<dyn ObsSink> {
    Arc::new(NullSink)
}

/// The one recording sink, in two tiers that differ in *data*, not in code.
///
/// Counters and histograms land in the lock-free root registry or in
/// per-owner [`ShardMetrics`] blocks ([`ObsSink::worker_shard`]: drained
/// into the root at barriers by [`ObsSink::flush`], folded live by
/// [`Recorder::snapshot`]). Events land in one bounded [`TraceRing`]; the
/// first degradation trigger captures a byte-stable [`FlightDump`] of it.
///
/// * The **always-on** tier ([`Recorder::shared`]) is the production sink:
///   a [`DEFAULT_FLIGHT_CAPACITY`]-slot ring reserved up front and no span
///   store, so it is never `verbose()`, refuses per-chunk instrumentation,
///   and keeps the obs-on hot path allocation-free.
/// * The **verbose** tier ([`Recorder::verbose_tier`]) is for tests and
///   debugging and carries no cost bound: a caller-sized ring plus a
///   [`SpanStore`] — having one *is* `verbose()`.
///
/// Hold the concrete `Arc<Recorder>` to read the data back after the run;
/// hand clones (coerced to `Arc<dyn ObsSink>`) to the layers.
#[derive(Debug)]
pub struct Recorder {
    root: AtomicMetrics,
    shards: Mutex<Vec<Arc<ShardMetrics>>>,
    ring: Mutex<TraceRing>,
    dump: Mutex<Option<FlightDump>>,
    /// Present on the verbose tier only; its presence *is* the tier.
    spans: Option<Mutex<SpanStore>>,
    clock: AtomicU64,
}

/// The always-on tier's name at its call sites in the frozen benchmark
/// crate; kept only until `crates/ledger` is next editable.
pub type AlwaysOnSink = Recorder;

impl Recorder {
    /// Creates a shared always-on recorder: fixed flight-sized ring, no
    /// span store.
    pub fn shared() -> Arc<Self> {
        Self::build(DEFAULT_FLIGHT_CAPACITY, None)
    }

    /// Creates a shared verbose recorder whose ring holds at most `cap`
    /// events ([`DEFAULT_TRACE_CAPACITY`](crate::DEFAULT_TRACE_CAPACITY) is
    /// the usual choice) and which keeps every lifecycle span.
    pub fn verbose_tier(cap: usize) -> Arc<Self> {
        Self::build(cap, Some(Mutex::new(SpanStore::new())))
    }

    fn build(cap: usize, spans: Option<Mutex<SpanStore>>) -> Arc<Self> {
        Arc::new(Recorder {
            root: AtomicMetrics::new(),
            shards: Mutex::new(Vec::new()),
            ring: Mutex::new(TraceRing::new(cap)),
            dump: Mutex::new(None),
            spans,
            clock: AtomicU64::new(0),
        })
    }

    fn ring(&self) -> MutexGuard<'_, TraceRing> {
        self.ring.lock().expect("ring lock")
    }

    /// Reads the span store; `None` on the always-on tier, which has none.
    fn spans<R>(&self, read: impl FnOnce(&SpanStore) -> R) -> Option<R> {
        let spans = self.spans.as_ref()?;
        Some(read(&spans.lock().expect("span lock")))
    }

    /// Snapshots the folded registry: root plus every live shard block
    /// (read without zeroing, so a mid-run snapshot is safe at any time
    /// and `flush` remains the only mutation point).
    pub fn snapshot(&self) -> Snapshot {
        let agg = AtomicMetrics::new();
        self.root.fold_into(&agg);
        for shard in self.shards.lock().expect("shard lock").iter() {
            shard.fold_into(&agg);
        }
        agg.snapshot()
    }

    /// Shard blocks handed out so far.
    pub fn shard_count(&self) -> usize {
        self.shards.lock().expect("shard lock").len()
    }

    /// Copies the ring's current contents out, oldest first.
    pub fn events(&self) -> Vec<TimedEvent> {
        self.ring().events()
    }

    /// Exports the ring as JSON lines (see [`TraceRing::to_json_lines`]).
    pub fn trace_json_lines(&self) -> String {
        self.ring().to_json_lines()
    }

    /// Renders the ring as human-readable lines.
    pub fn trace_text(&self) -> String {
        self.ring().render_text()
    }

    /// Events evicted from the ring so far.
    pub fn trace_dropped(&self) -> u64 {
        self.ring().dropped()
    }

    /// The postmortem captured by the first degradation trigger, if any.
    pub fn flight_dump(&self) -> Option<FlightDump> {
        self.dump.lock().expect("dump lock").clone()
    }

    /// The captured postmortem as JSON lines (None before any trigger).
    pub fn dump_json_lines(&self) -> Option<String> {
        self.flight_dump().map(|d| d.to_json_lines())
    }

    /// Copies the recorded spans out, in open order (verbose tier only).
    pub fn span_records(&self) -> Vec<SpanRecord> {
        self.spans(|s| s.records().to_vec()).unwrap_or_default()
    }

    /// Copies the recorded parent→child fragmentation links out (verbose
    /// tier only).
    pub fn span_links(&self) -> Vec<SpanLink> {
        self.spans(|s| s.links().to_vec()).unwrap_or_default()
    }

    /// Span closes that matched no open span.
    pub fn span_orphan_closes(&self) -> u64 {
        self.spans(SpanStore::orphan_closes).unwrap_or_default()
    }

    /// Exports the span store as JSON lines (see
    /// [`SpanStore::to_json_lines`]).
    pub fn span_json_lines(&self) -> String {
        self.spans(SpanStore::to_json_lines).unwrap_or_default()
    }

    /// Assembles the per-chunk lineage view from the recorded spans.
    pub fn lineage(&self) -> Lineage {
        self.spans(Lineage::from_store).unwrap_or_default()
    }
}

impl ObsSink for Recorder {
    fn enabled(&self) -> bool {
        true
    }

    fn verbose(&self) -> bool {
        self.spans.is_some()
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.root.add(name, delta);
    }

    fn observe(&self, name: &'static str, value: u64) {
        self.root.observe(name, value);
    }

    fn event(&self, at_ns: u64, event: Event) {
        self.ring().push(at_ns, event);
    }

    fn span_open(&self, at_ns: u64, id: SpanId) {
        if let Some(spans) = &self.spans {
            self.root.add("obs.span.opened", 1);
            spans.lock().expect("span lock").open(at_ns, id);
        }
    }

    fn span_close(&self, at_ns: u64, id: SpanId) {
        let Some(spans) = &self.spans else { return };
        let closed = spans.lock().expect("span lock").close(at_ns, id);
        match closed {
            Some(duration) => {
                if let Some(metric) = id.stage.delay_metric() {
                    self.root.observe(metric, duration);
                }
            }
            None => self.root.add("obs.span.orphan_closes", 1),
        }
    }

    fn span_link(&self, at_ns: u64, parent: Labels, child: Labels) {
        if let Some(spans) = &self.spans {
            self.root.add("obs.span.links", 1);
            spans.lock().expect("span lock").link(at_ns, parent, child);
        }
    }

    fn worker_shard(&self) -> Option<Arc<ShardMetrics>> {
        let block = Arc::new(ShardMetrics::new());
        self.shards
            .lock()
            .expect("shard lock")
            .push(Arc::clone(&block));
        Some(block)
    }

    fn flush(&self) {
        for shard in self.shards.lock().expect("shard lock").iter() {
            shard.drain_into(&self.root);
        }
    }

    fn degraded(&self, at_ns: u64, trigger: &'static str, conn_id: u32) {
        self.root.add("obs.flight.triggers", 1);
        let mut ring = self.ring();
        ring.push(at_ns, Event::Degraded { conn_id, trigger });
        let mut dump = self.dump.lock().expect("dump lock");
        if dump.is_none() {
            *dump = Some(FlightDump::capture(trigger, conn_id, at_ns, &ring));
            self.root.add("obs.flight.dumps", 1);
        }
    }

    fn clock_advance(&self, at_ns: u64) {
        self.clock.fetch_max(at_ns, Ordering::Relaxed);
    }

    fn clock(&self) -> u64 {
        self.clock.load(Ordering::Relaxed)
    }
}

/// A per-owner facade over a sharding parent sink: counters and histogram
/// observations go to the owner's plain [`ShardMetrics`] block (owner-writes
/// cells, no shared-line contention); everything else — events, spans,
/// degradation triggers, the clock — forwards to the parent.
#[derive(Debug)]
pub struct ShardSink {
    local: Arc<ShardMetrics>,
    parent: Arc<dyn ObsSink>,
    parent_verbose: bool,
}

impl ShardSink {
    /// Wraps `parent` in a fresh per-owner shard facade when the parent
    /// shards ([`ObsSink::worker_shard`] returns a block); hands `parent`
    /// back unchanged otherwise. The single registration point every
    /// shard owner (parallel worker, demux, serial bench leg) goes through.
    pub fn wrap(parent: Arc<dyn ObsSink>) -> Arc<dyn ObsSink> {
        match parent.worker_shard() {
            Some(local) => Arc::new(ShardSink {
                local,
                parent_verbose: parent.verbose(),
                parent,
            }),
            None => parent,
        }
    }
}

impl ObsSink for ShardSink {
    fn enabled(&self) -> bool {
        true
    }

    fn verbose(&self) -> bool {
        self.parent_verbose
    }

    fn counter(&self, name: &'static str, delta: u64) {
        self.local.add(name, delta);
    }

    fn observe(&self, name: &'static str, value: u64) {
        self.local.observe(name, value);
    }

    fn event(&self, at_ns: u64, event: Event) {
        self.parent.event(at_ns, event);
    }

    fn span_open(&self, at_ns: u64, id: SpanId) {
        self.parent.span_open(at_ns, id);
    }

    fn span_close(&self, at_ns: u64, id: SpanId) {
        self.parent.span_close(at_ns, id);
    }

    fn span_link(&self, at_ns: u64, parent: Labels, child: Labels) {
        self.parent.span_link(at_ns, parent, child);
    }

    fn worker_shard(&self) -> Option<Arc<ShardMetrics>> {
        self.parent.worker_shard()
    }

    fn hot_counter(&self, name: &'static str) -> HotCounter {
        let cell = self.local.counter_base(name);
        HotCounter {
            name,
            cell: cell.map(|cell| (Arc::clone(&self.local), cell)),
        }
    }

    fn flush(&self) {
        self.parent.flush();
    }

    fn degraded(&self, at_ns: u64, trigger: &'static str, conn_id: u32) {
        self.parent.degraded(at_ns, trigger, conn_id);
    }

    fn clock_advance(&self, at_ns: u64) {
        self.parent.clock_advance(at_ns);
    }

    fn clock(&self) -> u64 {
        self.parent.clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Labels;
    use crate::trace::DEFAULT_TRACE_CAPACITY;

    #[test]
    fn null_sink_is_disabled_and_inert() {
        let s = null();
        assert!(!s.enabled());
        s.counter("transport.rx.chunks_accepted", 1);
        s.event(
            0,
            Event::ChunkRejected {
                labels: Labels::default(),
                reason: "x",
            },
        );
    }

    #[test]
    fn recording_sink_round_trips() {
        let s = Recorder::verbose_tier(8);
        assert!(s.enabled() && s.verbose());
        let dyn_sink: Arc<dyn ObsSink> = s.clone();
        dyn_sink.counter("wsc.verify_fail", 2);
        dyn_sink.observe("wsc.runs_per_tpdu", 4);
        dyn_sink.event(
            77,
            Event::MergeFolded {
                worker: 1,
                chunks: 10,
            },
        );
        let snap = s.snapshot();
        assert_eq!(snap.counter("wsc.verify_fail"), 2);
        assert_eq!(snap.histogram("wsc.runs_per_tpdu").unwrap().sum, 4);
        assert_eq!(s.events().len(), 1);
        assert!(s.trace_json_lines().starts_with("{\"t\": 77, "));
        assert_eq!(s.trace_dropped(), 0);
    }

    #[test]
    fn always_on_sink_shards_flushes_and_folds() {
        let s = AlwaysOnSink::shared();
        let dyn_sink: Arc<dyn ObsSink> = s.clone();
        assert!(dyn_sink.enabled());
        assert!(!dyn_sink.verbose());

        dyn_sink.counter("transport.parallel.packets", 2);
        let worker = ShardSink::wrap(dyn_sink.clone());
        worker.counter("transport.rx.chunks_accepted", 5);
        worker.observe("wsc.runs_per_tpdu", 3);
        assert_eq!(s.shard_count(), 1);

        // Snapshot folds live shards without draining them.
        let snap = s.snapshot();
        assert_eq!(snap.counter("transport.parallel.packets"), 2);
        assert_eq!(snap.counter("transport.rx.chunks_accepted"), 5);

        // Flush drains the shard into the root; totals are unchanged.
        dyn_sink.flush();
        let snap = s.snapshot();
        assert_eq!(snap.counter("transport.rx.chunks_accepted"), 5);
        assert_eq!(snap.histogram("wsc.runs_per_tpdu").unwrap().count, 1);
    }

    #[test]
    fn always_on_sink_captures_the_first_dump_only() {
        let s = Recorder::shared();
        let dyn_sink: Arc<dyn ObsSink> = s.clone();
        dyn_sink.event(
            5,
            Event::GroupDelivered {
                conn_id: 1,
                start: 0,
                bytes: 64,
            },
        );
        assert!(s.flight_dump().is_none());
        dyn_sink.degraded(9, "budget-exhausted", 1);
        dyn_sink.degraded(12, "peer-unreachable", 1);
        let dump = s.flight_dump().expect("first trigger captured");
        assert_eq!(dump.trigger, "budget-exhausted");
        assert_eq!(dump.at_ns, 9);
        assert_eq!(dump.events.len(), 2); // delivery + the Degraded marker
        let snap = s.snapshot();
        assert_eq!(snap.counter("obs.flight.triggers"), 2);
        assert_eq!(snap.counter("obs.flight.dumps"), 1);
        assert!(s
            .dump_json_lines()
            .unwrap()
            .starts_with("{\"dump\": \"flight\", \"trigger\": \"budget-exhausted\""));
        // Both triggers are in the ring even though only one dumped.
        assert_eq!(s.events().len(), 3);
    }

    #[test]
    fn sink_clock_is_monotonic_and_shared_through_the_shard_facade() {
        let s = Recorder::verbose_tier(DEFAULT_TRACE_CAPACITY);
        let dyn_sink: Arc<dyn ObsSink> = s.clone();
        let worker = ShardSink::wrap(dyn_sink.clone());
        dyn_sink.clock_advance(50);
        worker.clock_advance(30); // stale worker time cannot move it back
        assert_eq!(worker.clock(), 50);
        worker.clock_advance(80);
        assert_eq!(dyn_sink.clock(), 80);
        // The verbose tier shards like the always-on tier: the wrapped
        // counter lands in the worker's block, pre-resolved handles bind to
        // it, and the snapshot folds it back in.
        assert_eq!(s.shard_count(), 1);
        assert!(worker.verbose());
        assert!(worker.hot_counter("wsc.verify_fail").is_resolved());
        worker.counter("wsc.verify_fail", 1);
        assert_eq!(s.snapshot().counter("wsc.verify_fail"), 1);
    }

    #[test]
    fn recording_sink_traces_degradation_triggers() {
        let s = Recorder::verbose_tier(DEFAULT_TRACE_CAPACITY);
        let dyn_sink: Arc<dyn ObsSink> = s.clone();
        dyn_sink.degraded(42, "verify-failure", 7);
        assert_eq!(s.snapshot().counter("obs.flight.triggers"), 1);
        let events = s.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].event.name(), "Degraded");
        // One `degraded` body for both tiers: the verbose tier dumps too.
        assert_eq!(s.flight_dump().expect("first trigger captured").at_ns, 42);
        assert_eq!(s.snapshot().counter("obs.flight.dumps"), 1);
    }

    #[test]
    fn recording_sink_records_spans_and_attributes_delay() {
        use crate::span::{SpanId, Stage};
        let (s, always_on) = (Recorder::verbose_tier(8), Recorder::shared());
        let id = SpanId::new(Labels::new(1, 0, 0), Stage::Hop);
        for sink in [&s, &always_on] {
            sink.span_open(100, id);
            sink.span_close(160, id);
            sink.span_link(160, Labels::new(1, 0, 0), Labels::new(1, 0, 4));
            sink.span_close(200, id); // no open span left: orphan
        }
        let snap = s.snapshot();
        assert_eq!(snap.counter("obs.span.opened"), 1);
        assert_eq!(snap.counter("obs.span.links"), 1);
        assert_eq!(snap.counter("obs.span.orphan_closes"), 1);
        let h = snap.histogram("span.delay.network_ns").unwrap();
        assert_eq!((h.count, h.sum), (1, 60));
        assert_eq!(s.span_records().len(), 1);
        assert_eq!(s.span_links().len(), 1);
        assert_eq!(s.span_orphan_closes(), 1);
        assert_eq!(s.lineage().chunks.len(), 1);
        assert!(s.span_json_lines().contains("\"span\": \"hop\""));
        // The always-on tier has no span store: it keeps and counts nothing.
        let snap = always_on.snapshot();
        assert!(snap.nonzero_counters().is_empty());
        assert!(snap.histograms.iter().all(|h| h.count == 0));
        assert!(always_on.span_records().is_empty() && always_on.lineage().chunks.is_empty());
    }
}
