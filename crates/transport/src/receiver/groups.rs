//! The open-group table. Each open TPDU's state lives in a slot that never
//! moves, found by its `start` through a start-ordered list of `(start,
//! slot)` — checked at a last-hit cursor first (every chunk of a TPDU after
//! the first, the common case under fragmentation), then at the tail (a TPDU
//! opening in order), then by binary search. The free slots sit in the
//! list's unused tail, so it needs no room beyond one entry per slot, and
//! both grow only when more groups are open at once than ever before. A
//! removed group's slot keeps its cleared shell for the next TPDU, so a
//! warm table opens and closes groups without touching the allocator.
//! `start` is `C.SN − T.SN`, read off the wire: a sorted list cannot be
//! flooded into collisions, and its worst case, an out-of-order insert, is
//! a move of the open groups the budget already bounds.

use std::cmp::Ordering;
use std::ops::{Index, IndexMut};

/// Open groups by `start`, in slots that keep their place until removed.
#[derive(Debug)]
pub(super) struct Groups<T> {
    /// Live and free shells; a slot index names its group until removal.
    slots: Vec<T>,
    /// One `(start, slot)` per slot: the live groups in `[..live]`, sorted
    /// by start, then the free slots, the next to reuse first (a removal
    /// puts its slot there; their starts are stale).
    index: Vec<(u64, usize)>,
    /// How many groups are live.
    live: usize,
    /// The position in `index` of the last hit or insert; after later
    /// inserts and removes it may name another group or none, which the key
    /// check in [`Self::position`] rejects.
    cursor: usize,
    /// The slot of the last hit or insert, live or freed since: a cache
    /// hint that needs no read of `index`.
    cursor_slot: usize,
}

impl<T> Default for Groups<T> {
    fn default() -> Self {
        Groups {
            slots: Vec::new(),
            index: Vec::new(),
            live: 0,
            cursor: 0,
            cursor_slot: usize::MAX,
        }
    }
}

impl<T> Groups<T> {
    /// Where the live group at `start` is in `index` (`Ok`), or where it
    /// would be entered (`Err`): the cursor's position when it matches,
    /// else past the tail without a search, else a binary search.
    fn position(&self, start: u64) -> Result<usize, usize> {
        let live = &self.index[..self.live];
        if live.get(self.cursor).is_some_and(|&(s, _)| s == start) {
            return Ok(self.cursor);
        }
        match live.last().map(|&(last, _)| last.cmp(&start)) {
            None | Some(Ordering::Less) => Err(self.live),
            Some(Ordering::Equal) => Ok(self.live - 1),
            Some(Ordering::Greater) => live.binary_search_by_key(&start, |&(s, _)| s),
        }
    }

    /// The group in the cursor's slot — live, or a free shell — without a
    /// key check: where the next chunk of the last TPDU resolved finds its
    /// state, for a cache hint.
    pub(super) fn cursor_group(&self) -> Option<&T> {
        self.slots.get(self.cursor_slot)
    }

    /// The cursor's entry in the start-ordered list, for a cache hint: the
    /// key check of the next lookup reads it.
    pub(super) fn cursor_entry(&self) -> Option<&(u64, usize)> {
        self.index.get(self.cursor)
    }

    /// The slot of the live group at `start`, which becomes the cursor.
    pub(super) fn find(&mut self, start: u64) -> Option<usize> {
        let at = self.position(start).ok()?;
        self.cursor = at;
        self.cursor_slot = self.index[at].1;
        Some(self.cursor_slot)
    }

    /// The live group at `start`, leaving the cursor where it is.
    pub(super) fn get(&self, start: u64) -> Option<&T> {
        let at = self.position(start).ok()?;
        Some(&self.slots[self.index[at].1])
    }

    /// Enters a group at `start`, which must be absent, into the most
    /// recently freed shell, or into `fresh()` when no shell is free.
    /// Returns its slot, which becomes the cursor.
    pub(super) fn insert(&mut self, start: u64, fresh: impl FnOnce() -> T) -> usize {
        let found = self.position(start);
        debug_assert!(found.is_err(), "{start} is already open");
        let (Ok(at) | Err(at)) = found;
        if self.live == self.index.len() {
            self.slots.push(fresh());
            self.index.push((start, self.slots.len() - 1));
        }
        // The first free entry is overwritten by the shift: take its slot.
        let slot = self.index[self.live].1;
        self.index.copy_within(at..self.live, at + 1);
        self.index[at] = (start, slot);
        self.live += 1;
        self.cursor = at;
        self.cursor_slot = slot;
        slot
    }

    /// Removes the live group at `start`; returns its shell, which stays in
    /// place for reuse, for the caller to clear.
    pub(super) fn remove(&mut self, start: u64) -> &mut T {
        let Ok(at) = self.position(start) else {
            panic!("{start} is not open");
        };
        let entry = self.index[at];
        self.index.copy_within(at + 1..self.live, at);
        self.live -= 1;
        self.index[self.live] = entry;
        if self.cursor > at {
            self.cursor -= 1;
        }
        &mut self.slots[entry.1]
    }

    /// `(start, group)` for every live group, in start order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.index[..self.live]
            .iter()
            .map(|&(start, slot)| (start, &self.slots[slot]))
    }

    /// `(start, group)` for the live groups with `from ≤ start < to`, in
    /// start order.
    pub(super) fn starting_in(&self, from: u64, to: u64) -> impl Iterator<Item = (u64, &T)> {
        let live = &self.index[..self.live];
        let at = live.partition_point(|&(s, _)| s < from);
        live[at..]
            .iter()
            .take_while(move |&&(s, _)| s < to)
            .map(|&(start, slot)| (start, &self.slots[slot]))
    }

    /// Removes every live group, handing each shell to `clear` in start
    /// order.
    pub(super) fn drain(&mut self, mut clear: impl FnMut(&mut T)) {
        for &(_, slot) in &self.index[..self.live] {
            clear(&mut self.slots[slot]);
        }
        self.live = 0;
    }
}

impl<T> Index<usize> for Groups<T> {
    type Output = T;

    fn index(&self, slot: usize) -> &T {
        &self.slots[slot]
    }
}

impl<T> IndexMut<usize> for Groups<T> {
    fn index_mut(&mut self, slot: usize) -> &mut T {
        &mut self.slots[slot]
    }
}

#[cfg(test)]
mod tests;
