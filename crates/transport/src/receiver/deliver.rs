//! Stage 3, **deliver**: where accepted bytes go. The three §3.3 delivery
//! modes (immediate placement, in-order reordering, physical reassembly),
//! the staging they imply, budget admission in front of that staging, and
//! the overlap policy that decides which bytes a contested position keeps.
//! Nothing here decides whether a TPDU is *valid* — that is the
//! [`TpduEngine`]'s verdict; this stage only moves, holds, sheds and
//! rewrites bytes, and keeps the engine's invariant describing what is held.

use chunks_core::chunk::Chunk;
use chunks_obs::{Event, SpanId, Stage};
use chunks_vreasm::Resolution;

use super::decode::{labels_of, WireChunk};
use super::verify::TpduEngine;
use super::{DeliveryMode, FailureReason, Receiver, RxEvent};

/// One open TPDU: the shared engine plus this receiver's staging for it.
#[derive(Debug)]
pub(super) struct Group {
    pub(super) tpdu: TpduEngine,
    /// Chunks staged until verification (Reassemble mode only).
    pub(super) held: Vec<(Chunk, u64)>,
    /// Virtual-clock time of the group's most recent arrival — the LRU key
    /// budget eviction orders idle groups by.
    pub(super) last_touch: u64,
}

impl Group {
    /// Clears a freed slot's shell: every container is emptied but keeps
    /// its capacity, so the next TPDU opens in it without allocating.
    pub(super) fn recycle(&mut self) {
        self.tpdu.clear();
        self.held.clear();
    }

    /// Payload bytes this group holds in staging.
    pub(super) fn staged(&self) -> u64 {
        self.held.iter().map(|(c, _)| c.payload.len() as u64).sum()
    }
}

impl Receiver {
    /// True when a chunk whose first element is `first` would be staged
    /// rather than placed.
    fn stages(&self, first: u64) -> bool {
        match self.mode {
            DeliveryMode::Immediate => false,
            DeliveryMode::Reorder => first != self.in_order,
            DeliveryMode::Reassemble => true,
        }
    }

    /// Moves an accepted chunk's payload per the delivery mode: straight
    /// into the application space, or into staging until the gap ahead of
    /// it fills (Reorder) or its TPDU — the group in `slot` — verifies
    /// (Reassemble). Only a staged chunk is made an owned [`Chunk`], a
    /// slice sharing the packet's buffer.
    pub(super) fn move_data(&mut self, slot: usize, first: u64, c: WireChunk<'_>, now: u64) {
        if self.stages(first) {
            self.stage(c.span.len() as u64);
            self.stats.data_touches += c.span.len() as u64;
            if self.obs_on {
                self.obs
                    .span_open(now, SpanId::new(labels_of(&c.header), Stage::Hold));
            }
            if self.mode == DeliveryMode::Reorder {
                self.reorder_q.insert(first, (c.to_chunk(), now));
            } else {
                self.groups[slot].held.push((c.to_chunk(), now));
            }
        } else {
            self.place(first, c.payload());
            if self.mode == DeliveryMode::Reorder {
                self.in_order = first + c.header.len as u64;
                self.drain_reorder_queue(now);
            }
        }
        if self.obs_on && self.budget.is_limited() {
            self.obs
                .observe("transport.budget.held_bytes", self.stats.buffered_bytes);
        }
    }

    /// Budget admission for an arriving data chunk: evict idle groups to
    /// make room, and shed the chunk (typed, counted, traced) when nothing
    /// is evictable. Returns `true` when the chunk was shed (the shed event
    /// has been appended to `out`).
    pub(super) fn admit_into(
        &mut self,
        start: u64,
        first: u64,
        len: u64,
        now: u64,
        out: &mut Vec<RxEvent>,
    ) -> bool {
        let bytes = len * self.params.elem_size as u64;
        if self.admit_group_into(start, bytes, now, out) {
            return true;
        }
        // Interval-table occupancy: the hardware analogue caps tracked runs.
        while self.claimed.fragments() >= self.budget.max_fragments {
            if !self.evict_idle(start, "fragments", now) {
                self.shed_into(start, bytes, out);
                return true;
            }
        }
        // Byte caps bind only when this arrival would actually stage.
        if self.stages(first) {
            while self.budget.bytes_exceeded(self.stats.buffered_bytes, bytes) {
                if !self.evict_idle(start, "bytes", now) {
                    self.shed_into(start, bytes, out);
                    return true;
                }
            }
        }
        false
    }

    /// The open-group cap, for an arrival of `bytes` (data or ED — an ED
    /// chunk opens a group too, and a flood of them is budgeted the same
    /// way) that would open the group at `start` — neither open nor
    /// delivered. Returns `true` when the chunk was shed.
    pub(super) fn admit_group_into(
        &mut self,
        start: u64,
        bytes: u64,
        now: u64,
        out: &mut Vec<RxEvent>,
    ) -> bool {
        if self.groups.get(start).is_none() && !self.done.contains_key(&start) {
            while self.open_groups() >= self.budget.max_open_groups {
                if !self.evict_idle(start, "groups", now) {
                    self.shed_into(start, bytes, out);
                    return true;
                }
            }
        }
        false
    }

    /// Groups that have arrived but reached no verdict yet.
    pub(super) fn open_groups(&self) -> usize {
        self.groups
            .iter()
            .filter(|(_, g)| g.tpdu.verdict().is_none())
            .count()
    }

    /// Evicts the least-recently-touched idle group — unreported,
    /// incomplete, and not the group the arriving chunk needs (`keep`).
    /// LRU by virtual clock, start as the deterministic tie-break. Its
    /// `verify` span stays open: an eviction is a verdictless drop, and the
    /// trace shows it as one. Returns false when nothing is evictable.
    pub(super) fn evict_idle(&mut self, keep: u64, cause: &'static str, now: u64) -> bool {
        let victim = self
            .groups
            .iter()
            .filter(|&(s, g)| s != keep && g.tpdu.verdict().is_none() && !g.tpdu.is_verifiable())
            .min_by_key(|&(s, g)| (g.last_touch, s))
            .map(|(s, _)| s);
        let Some(s) = victim else {
            return false;
        };
        let slot = self.groups.find(s).expect("chosen from the table");
        let span = self.groups[slot].tpdu.span();
        self.claimed.release(s);
        let mut freed = self.groups[slot].staged();
        // Reorder-mode staging is keyed by element, not by group; free any
        // staged chunks inside the evicted span too.
        self.reorder_q.retain(|&f, (chunk, _)| {
            let inside = f >= s && f < s + span;
            if inside {
                freed += chunk.payload.len() as u64;
            }
            !inside
        });
        self.unstage(freed);
        self.stats.evictions += 1;
        if self.obs_on {
            self.obs.counter("transport.budget.evictions", 1);
            self.obs.event(
                now,
                Event::GroupEvicted {
                    conn_id: self.params.conn_id,
                    start: s as u32,
                    bytes: freed as u32,
                    cause,
                },
            );
        }
        self.groups.remove(slot).recycle();
        true
    }

    /// Drops an arriving chunk under exhausted budget.
    pub(super) fn shed_into(&mut self, start: u64, bytes: u64, out: &mut Vec<RxEvent>) {
        self.stats.shed_bytes += bytes;
        if self.obs_on {
            self.obs.counter("transport.budget.shed_bytes", bytes);
            self.obs
                .degraded(self.last_now, "budget-exhausted", self.params.conn_id);
        }
        out.push(RxEvent::ChunkShed { start, bytes });
    }

    /// True when occupancy stands at or above 3/4 of any configured cap —
    /// the back-pressure signal [`make_ack`](Self::make_ack) forwards so
    /// the sender defers repairs instead of livelocking retransmissions
    /// into a buffer that will shed them.
    pub fn under_pressure(&self) -> bool {
        if !self.budget.is_limited() {
            return false;
        }
        let hot = |held: u64, cap: u64| cap != u64::MAX && held >= cap - cap / 4;
        let b = &self.budget;
        hot(self.stats.buffered_bytes, b.max_held_bytes)
            || (b.max_open_groups != usize::MAX
                && self.open_groups() >= b.max_open_groups - b.max_open_groups / 4)
            || (b.max_fragments != usize::MAX
                && self.claimed.fragments() >= b.max_fragments - b.max_fragments / 4)
            || b.global
                .as_ref()
                .is_some_and(|g| hot(g.held_bytes(), g.cap_bytes()))
    }

    /// The cold path of a chunk that overlaps positions its TPDU — the group
    /// at `start`, in `slot` — already holds; `uncovered` is what
    /// [`TpduEngine::track`] reported still missing. A retransmission cut at different points duplicates received
    /// data with *identical* bytes — the benign case of Appendix C, silently
    /// trimmed. Overlapping positions whose bytes *differ* are a genuine
    /// conflict the overlap policy must resolve; whatever it picks, the
    /// WSC-2 invariant (not the policy) remains the integrity authority at
    /// delivery time. Fresh sub-spans are extracted and handled as chunks
    /// of their own, because chunks stay chunks under splitting.
    pub(super) fn overlapped_into(
        &mut self,
        chunk: &Chunk,
        slot: usize,
        start: u64,
        uncovered: &[(u64, u64)],
        now: u64,
        out: &mut Vec<RxEvent>,
    ) {
        let h = &chunk.header;
        let sn = h.tpdu.sn as u64;
        let end = sn + h.len as u64;
        self.stats.duplicate_chunks += 1;
        if self.obs_on {
            self.obs.counter("transport.rx.duplicate_chunks", 1);
        }
        // A condemned group keeps its bytes no matter the policy: its
        // verdict is already out. Otherwise walk the complement of the
        // uncovered runs — the overlapped positions — and let the policy
        // judge each; `Reject` condemns the group once, after the walk.
        if self.groups[slot].tpdu.verdict().is_none() {
            let mut condemn = false;
            let mut cursor = sn;
            for &(lo, hi) in uncovered.iter().chain(&[(end, end)]) {
                if lo > cursor {
                    condemn |= self.resolve_overlap(chunk, start, cursor, lo, now);
                }
                cursor = hi;
            }
            if condemn {
                return self.group_failure_into(start, FailureReason::OverlapConflict, out);
            }
        }
        for &(lo, hi) in uncovered {
            match chunks_core::frag::extract(chunk, (lo - sn) as u32, (hi - lo) as u32) {
                Ok(piece) => self.handle_data(WireChunk::of(&piece), now, out),
                Err(_) => self.group_failure_into(start, FailureReason::BadChunk, out),
            }
        }
    }

    /// Resolves one run `[lo, hi)` (`T.SN` space) of an arriving chunk that
    /// overlaps data the group already holds, per the configured policy.
    /// Returns `true` when the policy condemns the group
    /// ([`OverlapPolicy::Reject`]).
    fn resolve_overlap(&mut self, chunk: &Chunk, start: u64, lo: u64, hi: u64, now: u64) -> bool {
        let esize = self.params.elem_size as usize;
        let sn = chunk.header.tpdu.sn as u64;
        let new = &chunk.payload[(lo - sn) as usize * esize..(hi - sn) as usize * esize];
        let mut same = true;
        let located = self.visit_held(start, start + lo, start + hi, |at, held| {
            same &= held == &new[at..at + held.len()];
        });
        if located && same {
            return false; // benign retransmission cut (Appendix C)
        }
        self.stats.overlap_conflicts += 1;
        if self.obs_on {
            self.obs.counter("transport.rx.overlap_conflicts", 1);
            self.obs.event(
                now,
                Event::OverlapConflict {
                    labels: labels_of(&chunk.header),
                    policy: self.policy.as_str(),
                    start: ((start + lo) * esize as u64) as u32,
                    bytes: ((hi - lo) * esize as u64) as u32,
                    owner: start as u32,
                },
            );
        }
        match self.policy.resolve(true) {
            Resolution::Fail => true,
            Resolution::Duplicate | Resolution::KeepHeld => false,
            // Bytes we cannot read back we cannot patch out of the
            // invariant either — condemn rather than corrupt it.
            Resolution::Overwrite if !located => true,
            Resolution::Overwrite => {
                let mut old = vec![0u8; new.len()];
                self.visit_held(start, start + lo, start + hi, |at, held| {
                    old[at..at + held.len()].copy_from_slice(held);
                });
                self.overwrite_held(start, start + lo, start + hi, &old, new);
                false
            }
        }
    }

    /// Walks the bytes currently held for elements `[lo, hi)` (connection
    /// space) of the group at `start`, wherever the delivery mode keeps
    /// them, without copying: `visit(at, bytes)` sees each held piece and
    /// its byte offset into the span. Accepted chunks never overlap, so the
    /// pieces are disjoint. Returns `false` when some element could not be
    /// located — the caller treats that as a conflict.
    fn visit_held(
        &self,
        start: u64,
        lo: u64,
        hi: u64,
        mut visit: impl FnMut(usize, &[u8]),
    ) -> bool {
        let esize = self.params.elem_size as usize;
        let mut found = 0;
        let mut piece = |first: u64, bytes: &[u8]| {
            let (s, e) = (
                first.max(lo),
                (first + (bytes.len() / esize) as u64).min(hi),
            );
            if s < e {
                let held = &bytes[(s - first) as usize * esize..(e - first) as usize * esize];
                visit((s - lo) as usize * esize, held);
                found += e - s;
            }
        };
        match self.mode {
            DeliveryMode::Immediate => self.ring_pieces(lo, hi, &mut piece),
            DeliveryMode::Reorder => {
                self.ring_pieces(lo, hi.min(self.in_order), &mut piece);
                for (&f, (c, _)) in &self.reorder_q {
                    piece(f, &c.payload);
                }
            }
            DeliveryMode::Reassemble => {
                for (c, _) in self.groups.get(start).map_or(&[][..], |g| &g.held) {
                    piece(self.unwrap_csn(c.header.conn.sn), &c.payload);
                }
            }
        }
        found == hi - lo
    }

    /// `piece(first, bytes)` over the part of elements `[lo, hi)` the ring
    /// holds, in at most two pieces.
    fn ring_pieces(&self, lo: u64, hi: u64, piece: &mut impl FnMut(u64, &[u8])) {
        let esize = self.params.elem_size as usize;
        let window = (self.app.len() / esize) as u64;
        let (lo, hi) = (lo.max(self.base), hi.min(self.base + window));
        if lo < hi {
            let (head, tail) = self.ring(lo, hi);
            piece(lo, head);
            piece(lo + (head.len() / esize) as u64, tail);
        }
    }

    /// [`OverlapPolicy::LastWins`]: substitutes `new` for the held bytes at
    /// elements `[lo, hi)` (connection space) and patches the group
    /// invariant in place — WSC-2 is linear over GF(2), so absorbing the
    /// XOR delta at the same positions swaps the data without recomputing
    /// anything. The code keeps describing exactly the bytes held, and the
    /// ED comparison at completion stays the integrity authority.
    fn overwrite_held(&mut self, start: u64, lo: u64, hi: u64, old: &[u8], new: &[u8]) {
        let esize = self.params.elem_size as usize;
        let slot = self.groups.find(start);
        if let Some(slot) = slot {
            self.groups[slot]
                .tpdu
                .patch(self.params.elem_size, lo - start, old, new);
        }
        match self.mode {
            DeliveryMode::Immediate => self.place(lo, new),
            DeliveryMode::Reorder => {
                let e = hi.min(self.in_order.max(lo));
                if lo < e {
                    self.place(lo, &new[..(e - lo) as usize * esize]);
                }
                let mut touched = 0;
                for (&f, (c, _)) in self.reorder_q.iter_mut() {
                    touched += overlay_into_chunk(c, f, lo, hi, new, esize);
                }
                self.count_rewrite(touched);
            }
            DeliveryMode::Reassemble => {
                let (base, base_csn) = (self.base, self.base_csn);
                let mut touched = 0;
                if let Some(slot) = slot {
                    for (c, _) in self.groups[slot].held.iter_mut() {
                        let f = base + c.header.conn.sn.wrapping_sub(base_csn) as u64;
                        touched += overlay_into_chunk(c, f, lo, hi, new, esize);
                    }
                }
                self.count_rewrite(touched);
            }
        }
    }

    /// Counts an in-place rewrite of staged bytes as data touches.
    fn count_rewrite(&mut self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.stats.data_touches += bytes;
        if self.obs_on {
            self.obs.counter("transport.rx.data_touches", bytes);
        }
    }

    /// Writes payload bytes into the application space (one data touch per
    /// byte); a payload that straddles the ring's end is copied in two
    /// parts.
    fn place(&mut self, first_element: u64, payload: &[u8]) {
        let at = self.ring_at(first_element);
        let room = self.app.len() - at;
        if payload.len() <= room {
            self.app[at..at + payload.len()].copy_from_slice(payload);
        } else {
            let (head, tail) = payload.split_at(room);
            self.app[at..].copy_from_slice(head);
            self.app[..tail.len()].copy_from_slice(tail);
        }
        self.stats.data_touches += payload.len() as u64;
        if self.obs_on {
            self.hot.data_touches.add(&*self.obs, payload.len() as u64);
        }
    }

    fn stage(&mut self, bytes: u64) {
        self.stats.buffered_bytes += bytes;
        self.stats.peak_buffered_bytes = self
            .stats
            .peak_buffered_bytes
            .max(self.stats.buffered_bytes);
        if let Some(g) = &self.budget.global {
            g.add(bytes);
        }
        if self.obs_on {
            self.obs
                .observe("transport.rx.buffered_bytes", self.stats.buffered_bytes);
            // Staged bytes are a touch too (they reach a buffer before the
            // application); mirror the stat the callers accumulate.
            self.hot.data_touches.add(&*self.obs, bytes);
        }
    }

    pub(super) fn unstage(&mut self, bytes: u64) {
        self.stats.buffered_bytes = self.stats.buffered_bytes.saturating_sub(bytes);
        if let Some(g) = &self.budget.global {
            g.sub(bytes);
        }
    }

    /// Reassemble mode: releases the staged chunks of the verified group in
    /// `slot` to the application. `drain` preserves arrival order (the obs
    /// span-close order the lineage trace pins) and the Vec goes back to the
    /// shell with its capacity.
    pub(super) fn release_held(&mut self, slot: usize, now: u64) {
        let mut held = std::mem::take(&mut self.groups[slot].held);
        for (chunk, arrived) in held.drain(..) {
            let first = self.unwrap_csn(chunk.header.conn.sn);
            self.unhold(first, &chunk, arrived, now);
        }
        self.groups[slot].held = held;
    }

    fn drain_reorder_queue(&mut self, now: u64) {
        while let Some((chunk, arrived)) = self.reorder_q.remove(&self.in_order) {
            self.unhold(self.in_order, &chunk, arrived, now);
            self.in_order += chunk.header.len as u64;
        }
    }

    /// Hands one staged chunk, held since `arrived`, to the application.
    fn unhold(&mut self, first: u64, chunk: &Chunk, arrived: u64, now: u64) {
        self.unstage(chunk.payload.len() as u64);
        let waited = now.saturating_sub(arrived);
        self.stats.holding_delay += waited;
        if self.obs_on {
            self.obs.counter("transport.rx.holding_delay_ns", waited);
            self.obs
                .span_close(now, SpanId::new(labels_of(&chunk.header), Stage::Hold));
        }
        self.place(first, &chunk.payload);
    }
}

/// Copies the intersection of `[lo, hi)` (connection-space elements) with
/// a staged chunk's span out of `new` into the chunk's payload; returns the
/// bytes rewritten. `first` is the chunk's first connection-space element.
fn overlay_into_chunk(
    c: &mut Chunk,
    first: u64,
    lo: u64,
    hi: u64,
    new: &[u8],
    esize: usize,
) -> u64 {
    let clen = c.header.len as u64;
    let (s, e) = (first.max(lo), (first + clen).min(hi));
    if s >= e {
        return 0;
    }
    // Must own: the staged payload is (in the zero-copy path) a slice of a
    // shared packet buffer; rewriting bytes in place would corrupt every
    // other view of that buffer. Overlap overwrite is the one receive-side
    // operation that mutates payload bytes, so it pays for a private copy —
    // and only on the chunks it actually rewrites.
    let mut raw = c.payload.to_vec();
    raw[(s - first) as usize * esize..(e - first) as usize * esize]
        .copy_from_slice(&new[(s - lo) as usize * esize..(e - lo) as usize * esize]);
    c.payload = raw.into();
    (e - s) * esize as u64
}
