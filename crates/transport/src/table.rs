//! Compact open-addressed connection table — the million-connection demux.
//!
//! The paper's labelling argument (§3.3, Appendix A) is that a chunk's
//! `C.ID` carries everything demultiplexing needs; what remains for a
//! *production* receiver is to make the `C.ID → receiver` step scale to
//! millions of live connections without per-connection pointer chases or
//! allocator traffic. [`ConnTable`] is that step:
//!
//! * **Layout** — one flat power-of-two slot array (`key`, slab index,
//!   last-touch virtual time: 16 bytes per slot) indexing a slab of pooled
//!   [`Receiver`] state. The index is rebuilt in place on growth; receivers
//!   never move, so `&mut Receiver` borrows stay cheap and eviction keeps
//!   warm state around for the next admission.
//! * **Probing** — Fibonacci multiplicative hashing (the same constant as
//!   [`shard_of`](crate::parallel::shard_of)) picks the home slot;
//!   robin-hood displacement keeps probe sequences short and *bounded*:
//!   a lookup may stop as soon as it meets an entry closer to home than
//!   itself. Deletion backward-shifts the cluster, so no tombstones ever
//!   accumulate.
//! * **Lifecycle** — admission re-arms a quiesced shell from the free pool
//!   (zero allocations in steady state); eviction is deterministic
//!   sampled-LRU by virtual clock (a clock hand scans a fixed number of
//!   occupied slots and evicts the minimum `(touch, C.ID)`), plus a full
//!   idle sweep for timer-driven expiry. Capacity pressure surfaces through
//!   [`ConnTable::under_pressure`], feeding the same back-pressure bit the
//!   byte budgets drive.
//!
//! Everything is deterministic: same admissions, same touches, same
//! configuration ⇒ same evictions, byte for byte — the property
//! `experiments scale` replays and `tests/scale_determinism.rs` pins.

use std::sync::Arc;

use chunks_obs::{Event, ObsSink};

use crate::conn::ConnectionParams;
use crate::receiver::Receiver;

/// Slab/slot sentinel: no entry.
const EMPTY: u32 = u32::MAX;

/// Fibonacci multiplicative hash constant (2^64 / φ), shared with
/// [`shard_of`](crate::parallel::shard_of) so the table and the worker
/// shards agree on how `C.ID`s spread.
const FIB: u64 = 0x9E37_79B9_7F4A_7C15;

/// How many occupied slots the eviction clock hand examines per eviction.
/// Larger samples approximate true LRU more closely at proportionally more
/// scan work.
const LRU_SAMPLE: usize = 8;

/// One index slot: the connection label, where its receiver lives in the
/// slab, and when it was last touched (virtual clock) for LRU ordering.
#[derive(Clone, Copy, Debug)]
struct Slot {
    key: u32,
    idx: u32,
    touch: u64,
}

impl Slot {
    const VACANT: Slot = Slot {
        key: 0,
        idx: EMPTY,
        touch: 0,
    };
}

/// Table sizing and eviction policy.
#[derive(Clone, Copy, Debug)]
pub struct TableConfig {
    /// Initial slot-array capacity (rounded up to a power of two, min 8).
    pub initial_capacity: usize,
    /// Maximum live connections; admission beyond this evicts the sampled
    /// LRU connection first. `usize::MAX` = unbounded (the default).
    pub max_live: usize,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            initial_capacity: 8,
            max_live: usize::MAX,
        }
    }
}

impl TableConfig {
    /// Unbounded table pre-sized for `n` connections.
    pub fn for_capacity(n: usize) -> Self {
        TableConfig {
            initial_capacity: n,
            ..Self::default()
        }
    }

    /// Bounds the live-connection count.
    pub fn with_max_live(mut self, max_live: usize) -> Self {
        self.max_live = max_live;
        self
    }
}

/// Table lifecycle counters. Field names track the `chunks-obs` catalogue
/// (`transport.table.*`).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TableStats {
    /// Connections admitted (fresh or pooled).
    pub admissions: u64,
    /// Admissions that re-armed a pooled shell instead of allocating.
    pub pooled_admissions: u64,
    /// Connections evicted (capacity, idle sweep, or explicit retire).
    pub evictions: u64,
    /// Admissions refused because the table was full and nothing was
    /// evictable.
    pub refusals: u64,
    /// Times [`ConnTable::under_pressure`] crossed from false to true — a
    /// degradation trigger for the flight recorder.
    pub pressure_crossings: u64,
    /// Index-array doublings.
    pub grows: u64,
    /// High-water mark of live connections.
    pub peak_live: usize,
    /// Longest probe sequence any insert ever walked.
    pub max_probe: u64,
}

impl TableStats {
    /// The counters as `(catalogue name, value)` pairs, named exactly as
    /// the `chunks-obs` registry exports them. `pooled_admissions`,
    /// `grows`, `peak_live` and `max_probe` have no registry twin (the
    /// latter two ride the occupancy and probe-length histograms instead).
    pub fn as_metrics(&self) -> [(&'static str, u64); 4] {
        [
            ("transport.table.admissions", self.admissions),
            ("transport.table.evictions", self.evictions),
            ("transport.table.refusals", self.refusals),
            (
                "transport.table.pressure_crossings",
                self.pressure_crossings,
            ),
        ]
    }
}

/// Outcome of [`ConnTable::admit`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AdmitOutcome {
    /// A new connection was admitted (false: already present, or refused).
    pub admitted: bool,
    /// The admission re-armed a pooled shell (no allocation).
    pub pooled: bool,
    /// The `C.ID` evicted to make room, if the table was at `max_live`.
    pub evicted: Option<u32>,
    /// The table was full and nothing was evictable.
    pub refused: bool,
}

/// The open-addressed `C.ID → Receiver` table. See the module docs for the
/// design; see `docs/SCALE.md` for the full treatment.
pub struct ConnTable {
    /// The open-addressed index. Power-of-two length.
    slots: Vec<Slot>,
    mask: usize,
    live: usize,
    /// Receiver slab: never reordered, so slab indices stay stable across
    /// index growth and eviction.
    receivers: Vec<Receiver>,
    /// `C.ID` per slab entry (`EMPTY` for pooled shells) — lets iteration
    /// and drain walk the slab without consulting the index.
    slab_keys: Vec<u32>,
    /// Quiesced shells awaiting re-arm, most recently retired last.
    free: Vec<u32>,
    /// Eviction clock hand: where the next LRU sample scan starts.
    hand: usize,
    cfg: TableConfig,
    /// Lifecycle counters.
    pub stats: TableStats,
    obs: Arc<dyn ObsSink>,
    obs_on: bool,
    /// Last observed [`Self::under_pressure`] value; a false→true edge is
    /// counted and reported as a degradation trigger.
    was_pressured: bool,
}

impl std::fmt::Debug for ConnTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConnTable")
            .field("live", &self.live)
            .field("capacity", &self.slots.len())
            .field("pooled", &self.free.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Default for ConnTable {
    fn default() -> Self {
        Self::new(TableConfig::default())
    }
}

impl ConnTable {
    /// Creates an empty table.
    pub fn new(cfg: TableConfig) -> Self {
        let cap = slot_count_for(cfg.initial_capacity);
        ConnTable {
            slots: vec![Slot::VACANT; cap],
            mask: cap - 1,
            live: 0,
            receivers: Vec::new(),
            slab_keys: Vec::new(),
            free: Vec::new(),
            hand: 0,
            cfg,
            stats: TableStats::default(),
            obs: chunks_obs::null(),
            obs_on: false,
            was_pressured: false,
        }
    }

    /// Installs an observability sink (admissions, evictions, occupancy and
    /// probe-length distributions flow to the `transport.table.*` registry).
    pub fn set_obs(&mut self, sink: Arc<dyn ObsSink>) {
        self.obs_on = sink.enabled();
        self.obs = sink;
    }

    /// Live connections.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no connection is live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Current slot-array capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Quiesced shells available for allocation-free admission.
    pub fn pooled(&self) -> usize {
        self.free.len()
    }

    /// The configured policy.
    pub fn config(&self) -> &TableConfig {
        &self.cfg
    }

    /// True when occupancy reached ¾ of `max_live` — the same threshold the
    /// byte budgets use for the acknowledgment back-pressure bit.
    pub fn under_pressure(&self) -> bool {
        self.cfg.max_live != usize::MAX && self.live * 4 >= self.cfg.max_live * 3
    }

    /// True when `conn_id` is live.
    pub fn contains(&self, conn_id: u32) -> bool {
        self.find(conn_id).is_some()
    }

    /// The receiver for `conn_id`, if live. Does not bump the LRU touch.
    pub fn get(&self, conn_id: u32) -> Option<&Receiver> {
        self.find(conn_id)
            .map(|pos| &self.receivers[self.slots[pos].idx as usize])
    }

    /// Mutable access without an LRU touch (tests, merge, snapshots).
    pub fn get_mut(&mut self, conn_id: u32) -> Option<&mut Receiver> {
        self.find(conn_id)
            .map(|pos| &mut self.receivers[self.slots[pos].idx as usize])
    }

    /// Hot-path access: finds the receiver and stamps the connection's LRU
    /// touch with `now` in the same probe.
    pub fn lookup(&mut self, conn_id: u32, now: u64) -> Option<&mut Receiver> {
        let pos = self.find(conn_id)?;
        self.slots[pos].touch = now;
        Some(&mut self.receivers[self.slots[pos].idx as usize])
    }

    /// Registers an externally built receiver, replacing any live one under
    /// the same `C.ID`. Evicts the sampled-LRU connection first when at
    /// `max_live`.
    pub fn insert(&mut self, conn_id: u32, receiver: Receiver, now: u64) {
        if let Some(pos) = self.find(conn_id) {
            let idx = self.slots[pos].idx as usize;
            self.receivers[idx] = receiver;
            self.slots[pos].touch = now;
            return;
        }
        if self.live >= self.cfg.max_live {
            self.evict_lru(now, "capacity");
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.receivers[i as usize] = receiver;
                i
            }
            None => {
                self.receivers.push(receiver);
                self.slab_keys.push(EMPTY);
                (self.receivers.len() - 1) as u32
            }
        };
        self.slab_keys[idx as usize] = conn_id;
        self.index_insert(conn_id, idx, now);
        self.note_admission(conn_id, false, now);
    }

    /// Admits a connection: re-arms a pooled shell when one is available
    /// (`reconfigure` then applies per-connection policy/budget/obs to it),
    /// otherwise builds a fresh receiver with `fresh`. At `max_live` the
    /// sampled-LRU connection is evicted first; if nothing is evictable the
    /// admission is refused and counted.
    pub fn admit(
        &mut self,
        params: ConnectionParams,
        now: u64,
        fresh: impl FnOnce() -> Receiver,
        reconfigure: impl FnOnce(&mut Receiver),
    ) -> AdmitOutcome {
        let conn_id = params.conn_id;
        if let Some(pos) = self.find(conn_id) {
            self.slots[pos].touch = now;
            return AdmitOutcome {
                admitted: false,
                pooled: false,
                evicted: None,
                refused: false,
            };
        }
        let mut evicted = None;
        if self.live >= self.cfg.max_live {
            evicted = self.evict_lru(now, "capacity");
            if evicted.is_none() {
                self.stats.refusals += 1;
                if self.obs_on {
                    self.obs.counter("transport.table.refusals", 1);
                }
                return AdmitOutcome {
                    admitted: false,
                    pooled: false,
                    evicted: None,
                    refused: true,
                };
            }
        }
        let (idx, pooled) = match self.free.pop() {
            Some(i) => {
                let rx = &mut self.receivers[i as usize];
                rx.rearm(params);
                reconfigure(rx);
                (i, true)
            }
            None => {
                self.receivers.push(fresh());
                self.slab_keys.push(EMPTY);
                ((self.receivers.len() - 1) as u32, false)
            }
        };
        self.slab_keys[idx as usize] = conn_id;
        self.index_insert(conn_id, idx, now);
        self.note_admission(conn_id, pooled, now);
        AdmitOutcome {
            admitted: true,
            pooled,
            evicted,
            refused: false,
        }
    }

    /// Retires a live connection: quiesces its receiver into the shell pool
    /// (budget bytes released, state cleared, capacity kept) and removes its
    /// index entry. Returns false when `conn_id` is not live.
    pub fn retire(&mut self, conn_id: u32, now: u64) -> bool {
        match self.find(conn_id) {
            Some(pos) => {
                self.evict_at(pos, now, "retire");
                true
            }
            None => false,
        }
    }

    /// Evicts every connection last touched strictly before `before`.
    /// Returns how many were evicted.
    pub fn evict_idle(&mut self, before: u64, now: u64) -> usize {
        let mut evicted = 0;
        let mut pos = 0;
        while pos < self.slots.len() {
            let s = self.slots[pos];
            if s.idx != EMPTY && s.touch < before {
                self.evict_at(pos, now, "idle");
                evicted += 1;
                // The backward shift may have moved the cluster's next entry
                // into `pos`: re-examine the same slot before advancing.
            } else {
                pos += 1;
            }
        }
        evicted
    }

    /// Evicts the least-recently-touched of a deterministic sample of
    /// occupied slots (clock hand, `LRU_SAMPLE` = 8 wide; ties break on the
    /// smaller `C.ID`). Returns the evicted `C.ID`, or `None` on an empty
    /// table.
    pub fn evict_lru(&mut self, now: u64, cause: &'static str) -> Option<u32> {
        if self.live == 0 {
            return None;
        }
        let want = LRU_SAMPLE.min(self.live);
        let mut best: Option<(u64, u32, usize)> = None;
        let mut seen = 0usize;
        let mut scanned = 0usize;
        let mut pos = self.hand & self.mask;
        while seen < want && scanned < self.slots.len() {
            let s = self.slots[pos];
            if s.idx != EMPTY {
                seen += 1;
                if best.is_none_or(|(t, k, _)| (s.touch, s.key) < (t, k)) {
                    best = Some((s.touch, s.key, pos));
                }
            }
            pos = (pos + 1) & self.mask;
            scanned += 1;
        }
        self.hand = pos;
        best.map(|(_, _, p)| self.evict_at(p, now, cause))
    }

    /// Iterates live connections in slot order (not sorted).
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Receiver)> {
        let receivers = &self.receivers;
        self.slab_keys
            .iter()
            .enumerate()
            .filter_map(move |(i, &k)| {
                if k == EMPTY {
                    None
                } else {
                    Some((k, &receivers[i]))
                }
            })
    }

    /// Mutable iteration over live connections in slab order (not sorted).
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u32, &mut Receiver)> {
        let ConnTable {
            slab_keys,
            receivers,
            ..
        } = self;
        receivers.iter_mut().enumerate().filter_map(move |(i, rx)| {
            let k = slab_keys[i];
            if k == EMPTY {
                None
            } else {
                Some((k, rx))
            }
        })
    }

    /// Consumes the table, yielding every live connection's receiver sorted
    /// by `C.ID` — the merge stage's drain. Pooled shells are dropped.
    pub fn into_entries(self) -> Vec<(u32, Receiver)> {
        let mut v: Vec<(u32, Receiver)> = self
            .receivers
            .into_iter()
            .zip(self.slab_keys)
            .filter_map(|(rx, k)| if k == EMPTY { None } else { Some((k, rx)) })
            .collect();
        v.sort_unstable_by_key(|&(k, _)| k);
        v
    }

    /// Home slot for `key`: top bits of the Fibonacci product, masked.
    #[inline]
    fn home(&self, key: u32) -> usize {
        (((key as u64).wrapping_mul(FIB)) >> 32) as usize & self.mask
    }

    /// How far the entry at `pos` sits from its home slot.
    #[inline]
    fn displacement(&self, pos: usize) -> usize {
        (pos + self.slots.len() - self.home(self.slots[pos].key)) & self.mask
    }

    /// Finds the slot holding `key`. Robin-hood invariant: stop as soon as
    /// an entry closer to home than our probe distance appears — `key`
    /// cannot be further along.
    fn find(&self, key: u32) -> Option<usize> {
        if self.live == 0 {
            return None;
        }
        let mut pos = self.home(key);
        let mut disp = 0usize;
        loop {
            let s = self.slots[pos];
            if s.idx == EMPTY {
                return None;
            }
            if s.key == key {
                return Some(pos);
            }
            if self.displacement(pos) < disp {
                return None;
            }
            pos = (pos + 1) & self.mask;
            disp += 1;
        }
    }

    /// Robin-hood insertion of a slot already known to be absent.
    fn place(&mut self, mut cur: Slot) {
        let mut pos = self.home(cur.key);
        let mut disp = 0usize;
        let mut probe = 1u64;
        loop {
            if self.slots[pos].idx == EMPTY {
                self.slots[pos] = cur;
                break;
            }
            let their = self.displacement(pos);
            if their < disp {
                // Rob the rich: the incumbent is closer to home; it yields
                // its slot and continues probing with our displacement.
                std::mem::swap(&mut self.slots[pos], &mut cur);
                disp = their;
            }
            pos = (pos + 1) & self.mask;
            disp += 1;
            probe += 1;
        }
        self.stats.max_probe = self.stats.max_probe.max(probe);
        if self.obs_on {
            self.obs.observe("transport.table.probe_len", probe);
        }
    }

    /// Inserts an index entry, growing first when load would pass 7/8.
    fn index_insert(&mut self, key: u32, idx: u32, touch: u64) {
        if (self.live + 1) * 8 > self.slots.len() * 7 {
            self.grow();
        }
        self.place(Slot { key, idx, touch });
        self.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.live);
    }

    /// Doubles the index array and re-places every entry. The receiver slab
    /// is untouched — only the 16-byte index slots move.
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![Slot::VACANT; new_len]);
        self.mask = new_len - 1;
        self.stats.grows += 1;
        for s in old {
            if s.idx != EMPTY {
                self.place(s);
            }
        }
    }

    /// Removes the index entry at `pos` by backward-shifting the cluster:
    /// successors displaced from their home move one slot back until an
    /// empty slot or an at-home entry ends the cluster. No tombstones.
    fn index_remove_at(&mut self, mut pos: usize) {
        loop {
            let next = (pos + 1) & self.mask;
            let s = self.slots[next];
            if s.idx == EMPTY || self.displacement(next) == 0 {
                self.slots[pos] = Slot::VACANT;
                return;
            }
            self.slots[pos] = s;
            pos = next;
        }
    }

    /// Evicts the connection at slot `pos`: quiesce its receiver into the
    /// pool, drop the index entry, count and trace the eviction.
    fn evict_at(&mut self, pos: usize, now: u64, cause: &'static str) -> u32 {
        let Slot { key, idx, touch } = self.slots[pos];
        self.receivers[idx as usize].quiesce();
        self.slab_keys[idx as usize] = EMPTY;
        self.free.push(idx);
        self.index_remove_at(pos);
        self.live -= 1;
        self.stats.evictions += 1;
        if self.obs_on {
            self.obs.counter("transport.table.evictions", 1);
            self.obs.event(
                now,
                Event::ConnEvicted {
                    conn_id: key,
                    idle: now.saturating_sub(touch),
                    cause,
                },
            );
        }
        self.note_pressure(now);
        key
    }

    fn note_admission(&mut self, conn_id: u32, pooled: bool, now: u64) {
        self.stats.admissions += 1;
        if pooled {
            self.stats.pooled_admissions += 1;
        }
        if self.obs_on {
            self.obs.counter("transport.table.admissions", 1);
            self.obs
                .observe("transport.table.occupancy", self.live as u64);
            self.obs.event(
                now,
                Event::ConnAdmitted {
                    conn_id,
                    occupancy: self.live as u32,
                },
            );
        }
        self.note_pressure(now);
    }

    /// Re-samples [`Self::under_pressure`] after `live` changed; a
    /// false→true edge is a degradation trigger (counted, and reported to
    /// the sink so an always-on flight recorder can capture a postmortem).
    fn note_pressure(&mut self, now: u64) {
        let pressured = self.under_pressure();
        if pressured && !self.was_pressured {
            self.stats.pressure_crossings += 1;
            if self.obs_on {
                self.obs.counter("transport.table.pressure_crossings", 1);
                self.obs.degraded(now, "pressure-crossing", 0);
            }
        }
        self.was_pressured = pressured;
    }
}

/// Rounds a wanted live-connection capacity up to the slot count that keeps
/// load below 7/8: the next power of two past `n * 8 / 7`, at least 8.
fn slot_count_for(n: usize) -> usize {
    (n.max(7) * 8 / 7).next_power_of_two()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::receiver::DeliveryMode;
    use chunks_wsc::InvariantLayout;

    fn params(conn_id: u32) -> ConnectionParams {
        ConnectionParams {
            conn_id,
            elem_size: 1,
            initial_csn: 0,
            tpdu_elements: 8,
        }
    }

    fn rx(conn_id: u32) -> Receiver {
        Receiver::new(
            DeliveryMode::Immediate,
            params(conn_id),
            InvariantLayout::with_data_symbols(64),
            32,
        )
    }

    #[test]
    fn insert_lookup_remove_roundtrip() {
        let mut t = ConnTable::new(TableConfig::default());
        for id in 0..100u32 {
            t.insert(id, rx(id), id as u64);
        }
        assert_eq!(t.len(), 100);
        for id in 0..100u32 {
            assert!(t.contains(id));
            assert_eq!(t.get(id).unwrap().params().conn_id, id);
        }
        assert!(!t.contains(100));
        for id in (0..100u32).step_by(2) {
            assert!(t.retire(id, 200));
        }
        assert_eq!(t.len(), 50);
        for id in 0..100u32 {
            assert_eq!(t.contains(id), id % 2 == 1, "id {id}");
        }
        assert_eq!(t.stats.evictions, 50);
        assert_eq!(t.pooled(), 50);
    }

    #[test]
    fn growth_preserves_every_entry() {
        let mut t = ConnTable::new(TableConfig {
            initial_capacity: 8,
            ..TableConfig::default()
        });
        let before = t.capacity();
        for id in 0..4096u32 {
            t.insert(id.wrapping_mul(2_654_435_761), rx(id), 0);
        }
        assert!(t.capacity() > before);
        assert!(t.stats.grows > 0);
        for id in 0..4096u32 {
            assert!(t.contains(id.wrapping_mul(2_654_435_761)));
        }
    }

    #[test]
    fn pooled_admission_reuses_shells() {
        let mut t = ConnTable::new(TableConfig::default());
        t.insert(1, rx(1), 0);
        assert!(t.retire(1, 1));
        let out = t.admit(params(2), 2, || rx(2), |_| {});
        assert!(out.admitted && out.pooled, "{out:?}");
        assert_eq!(t.get(2).unwrap().params().conn_id, 2);
        let again = t.admit(params(2), 3, || rx(2), |_| {});
        assert!(!again.admitted && !again.refused, "already live: {again:?}");
    }

    #[test]
    fn capacity_bound_evicts_the_lru_connection() {
        let mut t = ConnTable::new(TableConfig::default().with_max_live(4));
        for id in 0..4u32 {
            let out = t.admit(params(id), id as u64, || rx(id), |_| {});
            assert!(out.admitted && out.evicted.is_none());
        }
        // Touch 0 so connection 1 becomes the oldest.
        assert!(t.lookup(0, 10).is_some());
        let out = t.admit(params(9), 11, || rx(9), |_| {});
        assert!(out.admitted);
        assert_eq!(out.evicted, Some(1), "least-recently-touched goes first");
        assert_eq!(t.len(), 4);
        assert!(t.under_pressure());
        assert_eq!(t.stats.refusals, 0);
    }

    #[test]
    fn idle_sweep_is_age_selective() {
        let mut t = ConnTable::new(TableConfig::default());
        for id in 0..64u32 {
            t.insert(id, rx(id), id as u64);
        }
        let evicted = t.evict_idle(32, 100);
        assert_eq!(evicted, 32);
        for id in 0..64u32 {
            assert_eq!(t.contains(id), id >= 32, "id {id}");
        }
    }

    #[test]
    fn into_entries_is_sorted_and_complete() {
        let mut t = ConnTable::new(TableConfig::default());
        for id in [9u32, 3, 7, 1, 5] {
            t.insert(id, rx(id), 0);
        }
        t.retire(7, 1);
        let ids: Vec<u32> = t.into_entries().into_iter().map(|(k, _)| k).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
    }
}
