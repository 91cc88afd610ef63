//! The metrics registry: counters and fixed-bucket histograms over a flat
//! cell array, with an atomic backend for the shared root (any thread may
//! write) and an owner-writes backend for single-owner shard blocks.
//!
//! Layout is fixed at construction from the [`crate::catalogue::CATALOGUE`]:
//! a counter owns one cell; a histogram owns [`BUCKETS`] bucket cells plus a
//! count cell and a sum cell. All updates are relaxed atomic adds (or a plain
//! load + store on the shard backend) — there is no locking, no allocation
//! after construction, and no clock access, so a registry driven by a
//! deterministic workload snapshots identically on every run.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::catalogue::{self, Kind, CATALOGUE};

/// Bucket count of every histogram: value `v` falls into bucket
/// `min(63 - leading_zeros(max(v, 1)), BUCKETS - 1)`, i.e. power-of-two
/// buckets `[2^i, 2^(i+1))` with the final bucket absorbing the tail.
pub const BUCKETS: usize = 32;

/// Storage backend for a [`Metrics`] registry: a fixed array of u64 cells.
pub trait Cells {
    /// Allocates `len` zeroed cells.
    fn alloc(len: usize) -> Self;
    /// Adds `delta` to cell `slot`.
    fn add(&self, slot: usize, delta: u64);
    /// Reads cell `slot`.
    fn get(&self, slot: usize) -> u64;
}

/// Lock-free backend: relaxed atomic adds, shareable across threads.
#[derive(Debug)]
pub struct AtomicCells(Box<[AtomicU64]>);

impl Cells for AtomicCells {
    fn alloc(len: usize) -> Self {
        AtomicCells((0..len).map(|_| AtomicU64::new(0)).collect())
    }

    fn add(&self, slot: usize, delta: u64) {
        self.0[slot].fetch_add(delta, Ordering::Relaxed);
    }

    fn get(&self, slot: usize) -> u64 {
        self.0[slot].load(Ordering::Relaxed)
    }
}

/// Sharded hot-path backend: `AtomicU64` storage for `Sync`/`Send`, but
/// **owner-writes** updates — `add` is a plain load + store (no lock-prefix
/// read-modify-write), so a single writer pays scalar-add cost while any
/// thread may read. Exactly one thread may call `add` at a time (the shard's
/// owner); `drain_each` is only safe at barriers where the owner is
/// quiescent, which is when [`crate::ObsSink::flush`] runs.
///
/// Alongside the cells the shard keeps a dirty-word bitmap (one bit per
/// cell, owner-written like the cells themselves). A hot path touches a
/// handful of the catalogue's ~1300 cells between barriers; the bitmap lets
/// the barrier drain skip the untouched rest at one load per 64 cells
/// instead of one load per cell.
#[derive(Debug)]
pub struct ShardCells {
    cells: Box<[AtomicU64]>,
    dirty: Box<[AtomicU64]>,
}

impl Cells for ShardCells {
    fn alloc(len: usize) -> Self {
        ShardCells {
            cells: (0..len).map(|_| AtomicU64::new(0)).collect(),
            dirty: (0..len.div_ceil(64)).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn add(&self, slot: usize, delta: u64) {
        let c = &self.cells[slot];
        c.store(
            c.load(Ordering::Relaxed).wrapping_add(delta),
            Ordering::Relaxed,
        );
        let w = &self.dirty[slot >> 6];
        w.store(
            w.load(Ordering::Relaxed) | 1 << (slot & 63),
            Ordering::Relaxed,
        );
    }

    fn get(&self, slot: usize) -> u64 {
        self.cells[slot].load(Ordering::Relaxed)
    }
}

impl ShardCells {
    /// Visits every nonzero cell, zeroing as it goes; the dirty bitmap
    /// skips untouched cells wholesale (the barrier-drain fast path). A
    /// dirty bit is only ever set by `add` on a valid slot.
    fn drain_each(&self, mut f: impl FnMut(usize, u64)) {
        for (wi, word) in self.dirty.iter().enumerate() {
            let mut bits = word.load(Ordering::Relaxed);
            if bits == 0 {
                continue;
            }
            word.store(0, Ordering::Relaxed);
            while bits != 0 {
                let slot = (wi << 6) + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let v = self.cells[slot].swap(0, Ordering::Relaxed);
                if v != 0 {
                    f(slot, v);
                }
            }
        }
    }
}

/// A registry of every catalogued metric over backend `C`.
#[derive(Debug)]
pub struct Metrics<C: Cells> {
    /// Cell offset of each spec, parallel to [`CATALOGUE`].
    base: Vec<usize>,
    /// Total number of cells (the layout length), fixed at construction.
    total_cells: usize,
    cells: C,
}

/// The cross-thread registry: the recorder's shared root.
pub type AtomicMetrics = Metrics<AtomicCells>;

/// A per-worker/per-receiver counter block: owner-writes cells over the
/// full catalogue, drained into a root registry at pipeline barriers.
pub type ShardMetrics = Metrics<ShardCells>;

fn bucket_of(value: u64) -> usize {
    let b = 63 - value.max(1).leading_zeros() as usize;
    b.min(BUCKETS - 1)
}

impl<C: Cells> Metrics<C> {
    /// Creates a registry over the full [`CATALOGUE`].
    pub fn new() -> Self {
        let mut base = Vec::with_capacity(CATALOGUE.len());
        let mut at = 0;
        for s in CATALOGUE {
            base.push(at);
            at += match s.kind {
                Kind::Counter => 1,
                Kind::Histogram => BUCKETS + 2, // buckets, count, sum
            };
        }
        Metrics {
            base,
            total_cells: at,
            cells: C::alloc(at),
        }
    }

    /// Adds every cell of this registry into `dst` without zeroing (the
    /// live-read fold used by snapshots).
    pub fn fold_into<D: Cells>(&self, dst: &Metrics<D>) {
        for slot in 0..self.total_cells {
            let v = self.cells.get(slot);
            if v != 0 {
                dst.cells.add(slot, v);
            }
        }
    }

    /// The cell index of counter `name`, for pre-resolved hot handles.
    pub(crate) fn counter_base(&self, name: &str) -> Option<usize> {
        let i = catalogue::lookup(name)?;
        (CATALOGUE[i].kind == Kind::Counter).then(|| self.base[i])
    }

    /// Adds `delta` straight to an already-resolved cell (see
    /// [`HotCounter`]) — no name lookup, no kind check.
    pub(crate) fn add_cell(&self, cell: usize, delta: u64) {
        self.cells.add(cell, delta);
    }

    /// Adds `delta` to the counter `name`. Unknown names are ignored (the
    /// catalogue is the contract; a typo shows up in the doc-sync test, not
    /// as a panic on the hot path).
    pub fn add(&self, name: &str, delta: u64) {
        if let Some(i) = catalogue::lookup(name) {
            if CATALOGUE[i].kind == Kind::Counter {
                self.cells.add(self.base[i], delta);
            }
        }
    }

    /// Records `value` into the histogram `name`. Unknown names are ignored.
    pub fn observe(&self, name: &str, value: u64) {
        if let Some(i) = catalogue::lookup(name) {
            if CATALOGUE[i].kind == Kind::Histogram {
                let b = self.base[i];
                self.cells.add(b + bucket_of(value), 1);
                self.cells.add(b + BUCKETS, 1); // count
                self.cells.add(b + BUCKETS + 1, value); // sum
            }
        }
    }

    /// Snapshots every metric. The snapshot is plain data: comparable,
    /// renderable, and detached from the live cells.
    pub fn snapshot(&self) -> Snapshot {
        let mut counters = Vec::new();
        let mut histograms = Vec::new();
        for (i, s) in CATALOGUE.iter().enumerate() {
            let b = self.base[i];
            match s.kind {
                Kind::Counter => counters.push((s.name.to_string(), self.cells.get(b))),
                Kind::Histogram => {
                    let buckets: Vec<u64> = (0..BUCKETS).map(|k| self.cells.get(b + k)).collect();
                    histograms.push(HistogramSnapshot {
                        name: s.name.to_string(),
                        count: self.cells.get(b + BUCKETS),
                        sum: self.cells.get(b + BUCKETS + 1),
                        buckets,
                    });
                }
            }
        }
        Snapshot {
            counters,
            histograms,
        }
    }
}

impl ShardMetrics {
    /// Moves every cell of this shard block into `dst`, zeroing this one.
    /// Allocation-free. Only safe when the shard's owner is not
    /// concurrently writing — the caller provides the barrier (the
    /// owner-writes `add` is not atomic against a concurrent drain).
    pub fn drain_into<D: Cells>(&self, dst: &Metrics<D>) {
        self.cells.drain_each(|slot, v| dst.cells.add(slot, v));
    }
}

impl<C: Cells> Default for Metrics<C> {
    fn default() -> Self {
        Self::new()
    }
}

/// A point-in-time copy of one histogram.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct HistogramSnapshot {
    /// Catalogue name.
    pub name: String,
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Per-bucket observation counts; bucket `i` covers `[2^i, 2^(i+1))`
    /// (bucket 0 also holds zero, the last bucket absorbs the tail).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean observed value, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0 < q <= 1`) as the **inclusive upper bound of the
    /// bucket** holding the rank-`ceil(q·count)` observation — an integer,
    /// so quantile reports are byte-stable. Bucket `i` reports `2^(i+1)-1`;
    /// the tail bucket reports `u64::MAX`. 0 when the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target observation, 1-indexed: ceil(q * count).
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                // The final bucket absorbs the tail and has no finite bound.
                return if i + 1 >= self.buckets.len() || i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
            }
        }
        // count > 0 guarantees some bucket is nonzero; unreachable in
        // practice, but a truncated bucket vector lands here.
        u64::MAX
    }

    /// Median upper bound (see [`Self::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th-percentile upper bound (see [`Self::quantile`]).
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th-percentile upper bound (see [`Self::quantile`]).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

/// A point-in-time copy of the whole registry.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)` for every catalogued counter, in catalogue order.
    pub counters: Vec<(String, u64)>,
    /// Every catalogued histogram, in catalogue order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl Snapshot {
    /// The counters that actually fired, preserving catalogue order.
    pub fn nonzero_counters(&self) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter(|(_, v)| *v != 0)
            .cloned()
            .collect()
    }

    /// Looks up one counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Looks up one histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Renders the nonzero part of the snapshot as a compact JSON object:
    /// counters as `"name": n`, histograms as
    /// `"name": {"count": c, "sum": s, "mean": m}`.
    pub fn to_json(&self) -> String {
        let mut parts = Vec::new();
        for (n, v) in self.nonzero_counters() {
            parts.push(format!("\"{n}\": {v}"));
        }
        for h in self.histograms.iter().filter(|h| h.count != 0) {
            parts.push(format!(
                "\"{}\": {{\"count\": {}, \"sum\": {}, \"mean\": {:.1}}}",
                h.name,
                h.count,
                h.sum,
                h.mean()
            ));
        }
        format!("{{{}}}", parts.join(", "))
    }

    /// Renders the nonzero part of the snapshot as aligned text lines.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (n, v) in self.nonzero_counters() {
            out.push_str(&format!("  {n:<40} {v}\n"));
        }
        for h in self.histograms.iter().filter(|h| h.count != 0) {
            out.push_str(&format!(
                "  {:<40} count {} sum {} mean {:.1}\n",
                h.name,
                h.count,
                h.sum,
                h.mean()
            ));
        }
        out
    }
}

/// A counter whose label→cell resolution happened **once**, at
/// [`crate::ObsSink::hot_counter`] time. This is the paper's data-labelling
/// discipline applied to the registry itself: the hot path must not re-derive
/// where a label's data lives on every update, so a resolved handle adds
/// straight to the owner's shard cell (two plain stores), while an
/// unresolved one falls back to the name-based [`crate::ObsSink::counter`]
/// call — identical semantics either way.
#[derive(Debug, Clone)]
pub struct HotCounter {
    pub(crate) name: &'static str,
    /// The owner's shard block and the bound cell in it, once resolved.
    pub(crate) cell: Option<(Arc<ShardMetrics>, usize)>,
}

impl HotCounter {
    /// A handle that resolves nothing and always falls back to the
    /// name-based sink call: what [`crate::ObsSink::hot_counter`]'s default
    /// returns.
    pub fn unresolved(name: &'static str) -> Self {
        HotCounter { name, cell: None }
    }

    /// True when `add` hits a pre-resolved shard cell rather than the
    /// name-based fallback.
    pub fn is_resolved(&self) -> bool {
        self.cell.is_some()
    }

    /// Adds `delta`: straight to the resolved shard cell, or through
    /// `sink.counter(name, delta)` when unresolved.
    #[inline]
    pub fn add(&self, sink: &dyn crate::ObsSink, delta: u64) {
        match &self.cell {
            Some((block, cell)) => block.add_cell(*cell, delta),
            None => sink.counter(self.name, delta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_power_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let m = AtomicMetrics::new();
        // 100 observations: 50 land in bucket 6 ([64,128)), 40 in bucket 9
        // ([512,1024)), 10 in bucket 13 ([8192,16384)).
        for _ in 0..50 {
            m.observe("span.delay.network_ns", 100);
        }
        for _ in 0..40 {
            m.observe("span.delay.network_ns", 600);
        }
        for _ in 0..10 {
            m.observe("span.delay.network_ns", 9000);
        }
        let s = m.snapshot();
        let h = s.histogram("span.delay.network_ns").unwrap();
        assert_eq!(h.count, 100);
        // rank 50 is the last observation of bucket 6 -> bound 127.
        assert_eq!(h.p50(), 127);
        // rank 90 is the last observation of bucket 9 -> bound 1023.
        assert_eq!(h.p90(), 1023);
        // rank 99 lands in bucket 13 -> bound 16383.
        assert_eq!(h.p99(), 16383);
        assert_eq!(h.quantile(1.0), 16383);
    }

    #[test]
    fn quantile_edge_cases() {
        let empty = HistogramSnapshot {
            name: "x".into(),
            count: 0,
            sum: 0,
            buckets: vec![0; BUCKETS],
        };
        assert_eq!(empty.p50(), 0);
        assert_eq!(empty.p99(), 0);

        // A single observation answers every quantile.
        let m = AtomicMetrics::new();
        m.observe("span.delay.verify_ns", 5);
        let s = m.snapshot();
        let h = s.histogram("span.delay.verify_ns").unwrap();
        assert_eq!((h.p50(), h.p90(), h.p99()), (7, 7, 7)); // bucket 2 = [4,8)

        // Bucket-boundary values: 1 is bucket 0 (bound 1), 2 is bucket 1
        // (bound 3).
        let m = AtomicMetrics::new();
        m.observe("span.delay.holding_ns", 1);
        m.observe("span.delay.holding_ns", 2);
        let s = m.snapshot();
        let h = s.histogram("span.delay.holding_ns").unwrap();
        assert_eq!(h.p50(), 1);
        assert_eq!(h.p99(), 3);

        // The tail bucket is unbounded.
        let m = AtomicMetrics::new();
        m.observe("span.delay.repair_ns", u64::MAX);
        let s = m.snapshot();
        assert_eq!(s.histogram("span.delay.repair_ns").unwrap().p50(), u64::MAX);
    }

    #[test]
    fn shard_backend_agrees_and_drains_cleanly() {
        let shard = ShardMetrics::new();
        let root = AtomicMetrics::new();
        shard.add("transport.rx.chunks_accepted", 5);
        shard.observe("wsc.runs_per_tpdu", 64);
        shard.observe("wsc.runs_per_tpdu", 200);

        // fold_into reads without zeroing.
        let fold = AtomicMetrics::new();
        shard.fold_into(&fold);
        let accepted = |s: Snapshot| s.counter("transport.rx.chunks_accepted");
        assert_eq!(accepted(fold.snapshot()), 5);
        assert_eq!(accepted(shard.snapshot()), 5);

        // drain_into moves and zeroes; a second drain is a no-op.
        shard.drain_into(&root);
        assert_eq!(accepted(root.snapshot()), 5);
        assert_eq!(accepted(shard.snapshot()), 0);
        shard.drain_into(&root);
        assert_eq!(accepted(root.snapshot()), 5);
        let h = root.snapshot();
        let h = h.histogram("wsc.runs_per_tpdu").unwrap();
        assert_eq!((h.count, h.sum), (2, 264));
        assert_eq!(
            shard
                .snapshot()
                .histogram("wsc.runs_per_tpdu")
                .unwrap()
                .count,
            0
        );
    }

    #[test]
    fn unknown_and_miskinded_names_are_ignored() {
        let m = AtomicMetrics::new();
        m.add("no.such.metric", 7);
        m.add("wsc.runs_per_tpdu", 7); // histogram via counter API
        m.observe("wsc.verify_pass", 7); // counter via histogram API
        let s = m.snapshot();
        assert!(s.nonzero_counters().is_empty());
        assert!(s.histograms.iter().all(|h| h.count == 0));
    }

    #[test]
    fn snapshot_json_and_text_render_nonzero_only() {
        let m = AtomicMetrics::new();
        m.add("core.wire.chunks_decoded", 2);
        m.observe("transport.rx.buffered_bytes", 100);
        m.observe("transport.rx.buffered_bytes", 300);
        let s = m.snapshot();
        let json = s.to_json();
        assert_eq!(
            json,
            "{\"core.wire.chunks_decoded\": 2, \
             \"transport.rx.buffered_bytes\": {\"count\": 2, \"sum\": 400, \"mean\": 200.0}}"
        );
        let text = s.render_text();
        assert!(text.contains("core.wire.chunks_decoded"));
        assert!(!text.contains("wsc.verify_pass"));
        assert_eq!(s.histogram("transport.rx.buffered_bytes").unwrap().count, 2);
    }
}
