//! The slot table against a `HashMap<u64, _>` model: random insert, get,
//! get_mut, remove, iter, drain and reserve, over a key universe small
//! enough that freed slots are reused by other starts and the cursor goes
//! stale. A shell handed back by `remove` or `drain` is cleared to 0 by the
//! caller, as the receiver clears a group, so every insert must find a
//! cleared shell.

use std::collections::HashMap;

use proptest::prelude::*;

use super::{Groups, Link, NONE};

/// Cases per property: more in release, where the loop is cheap.
const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 640 };

const KEYS: u64 = 12;

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(u64),
    Get(u64),
    GetMut(u64),
    Remove(u64),
    Iter,
    Drain,
    Reserve(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..20, 0..KEYS, 0usize..16).prop_map(|(w, k, n)| match w {
        0..=5 => Op::Insert(k),
        6..=8 => Op::Get(k),
        9..=11 => Op::GetMut(k),
        12..=16 => Op::Remove(k),
        17 => Op::Iter,
        18 => Op::Reserve(n),
        _ => Op::Drain,
    })
}

/// The slot of every live key, so a step can show no other group moved.
fn slots_of(g: &Groups<u64>) -> HashMap<u64, usize> {
    g.index.clone()
}

/// The free list, walked from its head; every slot on it must be free.
fn free_list(g: &Groups<u64>) -> Vec<usize> {
    let mut list = Vec::new();
    let mut at = g.free;
    while at != NONE {
        list.push(at);
        match g.slots[at].0 {
            Link::Free(next) => at = next,
            Link::Live(start) => panic!("live slot {at} ({start}) on the free list"),
        }
    }
    list
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn slot_table_agrees_with_a_hashmap_model(
        ops in proptest::collection::vec(op_strategy(), 1..160),
    ) {
        let mut g: Groups<u64> = Groups::default();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut next = 1u64;
        for &op in &ops {
            let before = slots_of(&g);
            match op {
                Op::Insert(k) if model.contains_key(&k) => {
                    prop_assert!(g.find(k).is_some());
                }
                Op::Insert(k) => {
                    let slot = g.insert(k, || 0);
                    prop_assert_eq!(g[slot], 0, "insert found an uncleared shell");
                    g[slot] = next;
                    model.insert(k, next);
                    next += 1;
                    prop_assert_eq!(g.find(k), Some(slot));
                }
                Op::Get(k) => prop_assert_eq!(g.get(k), model.get(&k)),
                Op::GetMut(k) => {
                    let got = g.find(k).map(|slot| {
                        g[slot] += 1000;
                        g[slot]
                    });
                    let want = model.get_mut(&k).map(|v| {
                        *v += 1000;
                        *v
                    });
                    prop_assert_eq!(got, want);
                }
                Op::Remove(k) => {
                    let got = g.find(k).map(|slot| std::mem::take(g.remove(slot)));
                    prop_assert_eq!(got, model.remove(&k));
                    // A stale cursor on the freed slot finds nothing.
                    prop_assert_eq!(g.find(k), None);
                    prop_assert_eq!(g.get(k), None);
                }
                Op::Iter => {
                    let mut got: Vec<(u64, u64)> = g.iter().map(|(k, &v)| (k, v)).collect();
                    got.sort_unstable();
                    let mut want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
                Op::Drain => {
                    let mut got = Vec::new();
                    g.drain(|v| got.push(std::mem::take(v)));
                    got.sort_unstable();
                    let mut want: Vec<u64> = model.drain().map(|(_, v)| v).collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
                Op::Reserve(n) => g.reserve(n),
            }
            // No surviving group moved, and the table is the model's.
            for (k, slot) in before {
                if model.contains_key(&k) {
                    prop_assert_eq!(g.index[&k], slot, "{} moved", k);
                }
            }
            prop_assert_eq!(g.index.len(), model.len());
            prop_assert_eq!(g.iter().count() + free_list(&g).len(), g.slots.len());
            for k in 0..KEYS {
                prop_assert_eq!(g.get(k), model.get(&k), "key {}", k);
            }
        }
    }

    #[test]
    fn reserved_slot_table_cycles_without_allocating(
        n in 1usize..96,
        seed in any::<u64>(),
    ) {
        // A fresh table reserved for `n`: `n` groups opened, then removed in
        // a shuffled order, twice over. No container may grow: the slots
        // keep their buffer, and the index never exceeds the capacity the
        // reserve gave it (a resize always would; an in-place rehash of
        // tombstones does not allocate).
        let mut g: Groups<u64> = Groups::default();
        g.reserve(n);
        let slots = |g: &Groups<u64>| (g.slots.as_ptr() as usize, g.slots.capacity());
        let (held, index_cap) = (slots(&g), g.index.capacity());
        let mut state = seed | 1;
        for round in 0..2u64 {
            let mut keys: Vec<u64> = (0..n as u64).map(|i| (round << 32) | (i * 7)).collect();
            for &k in &keys {
                g.insert(k, || 0);
                prop_assert!(g.index.capacity() <= index_cap);
            }
            for i in (1..keys.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                keys.swap(i, (state >> 33) as usize % (i + 1));
            }
            for k in keys {
                let slot = g.find(k).expect("live");
                g.remove(slot);
            }
            prop_assert_eq!(slots(&g), held);
            prop_assert!(g.index.capacity() <= index_cap);
        }
    }
}

#[test]
fn a_freed_slot_serves_the_next_start_and_the_old_one_misses() {
    let mut g: Groups<u64> = Groups::default();
    let a = g.insert(10, || 1);
    let b = g.insert(20, || 2);
    assert_eq!(g.find(10), Some(a), "the cursor moves to the hit");
    *g.remove(a) = 0;
    // The cursor still names slot `a`, now free.
    assert_eq!(g.find(10), None);
    let c = g.insert(30, || 3);
    assert_eq!(c, a, "the freed shell is reused");
    assert_eq!(g[c], 0, "cleared by the remover, not replaced");
    g.find(20);
    // The cursor names `b`; a lookup of the reused slot's old start misses.
    assert_eq!(
        (g.find(10), g.find(30), g.find(20)),
        (None, Some(c), Some(b))
    );
}
