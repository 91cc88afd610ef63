//! The open-group table. Each open TPDU's state lives in a slot that never
//! moves, found by its `start` through a keyed index or — for every chunk of
//! a TPDU after the first, the common case under fragmentation — through a
//! last-hit cursor that hashes nothing. A removed group's slot keeps its
//! cleared shell for the next TPDU, so a reserved table opens and closes
//! groups without touching the allocator.

use std::collections::HashMap;
use std::ops::{Index, IndexMut};

/// No slot: the end of the free list.
const NONE: usize = usize::MAX;

/// Open groups by `start`, in slots that keep their place until removed.
#[derive(Debug)]
pub(super) struct Groups<T> {
    /// Live and free shells; a slot index names its group until removal.
    slots: Vec<(Link, T)>,
    /// The most recently freed slot, heading the list of free slots.
    free: usize,
    /// `start` → slot of every live group. The std keyed hasher stays:
    /// `start` is `C.SN − T.SN`, read off the wire.
    index: HashMap<u64, usize>,
    /// The slot of the last hit or insert; may name a freed or reused slot,
    /// which the key check in [`Self::find`] rejects.
    cursor: usize,
}

/// An open group at its `start`, or a free shell and the next free slot.
#[derive(Debug, PartialEq)]
enum Link {
    Live(u64),
    Free(usize),
}

impl<T> Default for Groups<T> {
    fn default() -> Self {
        Groups {
            slots: Vec::new(),
            free: NONE,
            index: HashMap::new(),
            cursor: NONE,
        }
    }
}

impl<T> Groups<T> {
    /// The cursor's slot when it holds the live group at `start`.
    fn at_cursor(&self, start: u64) -> Option<usize> {
        let (link, _) = self.slots.get(self.cursor)?;
        (*link == Link::Live(start)).then_some(self.cursor)
    }

    /// The group in the cursor's slot — live, or a free shell — without a
    /// key check: where the next chunk of the last TPDU resolved finds its
    /// state, for a cache hint.
    pub(super) fn cursor_group(&self) -> Option<&T> {
        self.slots.get(self.cursor).map(|(_, group)| group)
    }

    /// The slot of the live group at `start`: the cursor's when it matches,
    /// else the index's (which then becomes the cursor).
    pub(super) fn find(&mut self, start: u64) -> Option<usize> {
        if let Some(slot) = self.at_cursor(start) {
            return Some(slot);
        }
        self.cursor = *self.index.get(&start)?;
        Some(self.cursor)
    }

    /// The live group at `start`, leaving the cursor where it is.
    pub(super) fn get(&self, start: u64) -> Option<&T> {
        let slot = self
            .at_cursor(start)
            .or_else(|| self.index.get(&start).copied())?;
        Some(&self.slots[slot].1)
    }

    /// Enters a group at `start`, which must be absent, into the most
    /// recently freed shell, or into `fresh()` when no shell is free.
    /// Returns its slot, which becomes the cursor.
    pub(super) fn insert(&mut self, start: u64, fresh: impl FnOnce() -> T) -> usize {
        debug_assert!(!self.index.contains_key(&start), "{start} is already open");
        let live = Link::Live(start);
        self.cursor = match self.slots.get_mut(self.free) {
            Some((link, _)) => match std::mem::replace(link, live) {
                Link::Free(next) => std::mem::replace(&mut self.free, next),
                Link::Live(_) => unreachable!("the free list links free slots only"),
            },
            None => {
                self.slots.push((live, fresh()));
                self.slots.len() - 1
            }
        };
        self.index.insert(start, self.cursor);
        self.cursor
    }

    /// Removes the live group in `slot`; returns its shell, which stays in
    /// place for reuse, for the caller to clear.
    pub(super) fn remove(&mut self, slot: usize) -> &mut T {
        let (link, shell) = &mut self.slots[slot];
        let Link::Live(start) = std::mem::replace(link, Link::Free(self.free)) else {
            panic!("slot {slot} is already free");
        };
        self.index.remove(&start);
        self.free = slot;
        shell
    }

    /// `(start, group)` for every live group, in slot order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots.iter().filter_map(|(link, group)| match *link {
            Link::Live(start) => Some((start, group)),
            Link::Free(_) => None,
        })
    }

    /// Removes every live group, handing each shell to `clear` in slot order.
    pub(super) fn drain(&mut self, mut clear: impl FnMut(&mut T)) {
        for (slot, (link, shell)) in self.slots.iter_mut().enumerate() {
            if let Link::Live(_) = link {
                *link = Link::Free(self.free);
                self.free = slot;
                clear(shell);
            }
        }
        self.index.clear();
    }

    /// Room for `additional` more groups, so that any inserts and removes
    /// that keep that many open allocate nothing beyond their shells.
    pub(super) fn reserve(&mut self, additional: usize) {
        self.slots.reserve(additional);
        // Removes leave tombstones, and the std table clears them in place
        // only while at most half full: size it for twice the open groups.
        let live = self.index.len();
        self.index.reserve(2 * (live + additional + 1) - live);
    }
}

impl<T> Index<usize> for Groups<T> {
    type Output = T;

    fn index(&self, slot: usize) -> &T {
        &self.slots[slot].1
    }
}

impl<T> IndexMut<usize> for Groups<T> {
    fn index_mut(&mut self, slot: usize) -> &mut T {
        &mut self.slots[slot].1
    }
}

#[cfg(test)]
mod tests;
