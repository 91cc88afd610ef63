//! The slot table against a `HashMap<u64, _>` model: random insert, get,
//! get_mut, remove, iter and drain. Starts come from a universe of
//! twelve, dense (`0..12`) or random `u64`s, so freed slots are reused by
//! other starts and the cursor goes stale; scripts open every start in
//! random order, in descending order (every insert at the front of the
//! list), or in order and then remove from the middle outwards. A shell
//! handed back by `remove` or `drain` is cleared to 0 by the caller, as the
//! receiver clears a group, so every insert must find a cleared shell.

use std::collections::{HashMap, HashSet};

use proptest::collection::vec;
use proptest::prelude::*;

use super::Groups;

/// Cases per property: more in release, where the loop is cheap.
const CASES: u32 = if cfg!(debug_assertions) { 64 } else { 640 };

/// Starts in a script's universe; an op names one by its rank.
const KEYS: usize = 12;

#[derive(Clone, Copy, Debug)]
enum Op {
    Insert(usize),
    Get(usize),
    GetMut(usize),
    Remove(usize),
    Iter,
    Drain,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..19, 0..KEYS).prop_map(|(w, k)| match w {
        0..=5 => Op::Insert(k),
        6..=8 => Op::Get(k),
        9..=11 => Op::GetMut(k),
        12..=16 => Op::Remove(k),
        17 => Op::Iter,
        _ => Op::Drain,
    })
}

/// The universe's starts in ascending order, so rank order is start order:
/// `0..12`, or twelve random `u64`s (a repeat only shrinks the universe).
fn universe_strategy() -> impl Strategy<Value = Vec<u64>> {
    (any::<bool>(), vec(any::<u64>(), KEYS)).prop_map(|(dense, mut starts)| {
        if dense {
            return (0..KEYS as u64).collect();
        }
        starts.sort_unstable();
        starts
    })
}

/// Random ops; or every start opened from the top down, then random ops;
/// or every start opened in order, all removed from the middle outwards,
/// then random ops.
fn script_strategy() -> impl Strategy<Value = Vec<Op>> {
    (0u8..3, vec(op_strategy(), 1..160)).prop_map(|(shape, tail)| {
        let middle_out = (0..KEYS / 2).flat_map(|d| [KEYS / 2 + d, KEYS / 2 - 1 - d]);
        let head: Vec<Op> = match shape {
            0 => Vec::new(),
            1 => (0..KEYS).rev().map(Op::Insert).collect(),
            _ => (0..KEYS)
                .map(Op::Insert)
                .chain(middle_out.map(Op::Remove))
                .collect(),
        };
        head.into_iter().chain(tail).collect()
    })
}

/// The slot of every live start, read off the start-ordered list, so a step
/// can show no other group moved.
fn slots_of(g: &Groups<u64>) -> HashMap<u64, usize> {
    g.index[..g.live].iter().copied().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn slot_table_agrees_with_a_hashmap_model(
        starts in universe_strategy(),
        ops in script_strategy(),
    ) {
        let mut g: Groups<u64> = Groups::default();
        let mut model: HashMap<u64, u64> = HashMap::new();
        let mut next = 1u64;
        for &op in &ops {
            let before = slots_of(&g);
            match op {
                Op::Insert(k) if model.contains_key(&starts[k]) => {
                    prop_assert!(g.find(starts[k]).is_some());
                }
                Op::Insert(k) => {
                    let slot = g.insert(starts[k], || 0);
                    prop_assert_eq!(g[slot], 0, "insert found an uncleared shell");
                    g[slot] = next;
                    model.insert(starts[k], next);
                    next += 1;
                    prop_assert_eq!(g.find(starts[k]), Some(slot));
                }
                Op::Get(k) => prop_assert_eq!(g.get(starts[k]), model.get(&starts[k])),
                Op::GetMut(k) => {
                    let got = g.find(starts[k]).map(|slot| {
                        g[slot] += 1000;
                        g[slot]
                    });
                    let want = model.get_mut(&starts[k]).map(|v| {
                        *v += 1000;
                        *v
                    });
                    prop_assert_eq!(got, want);
                }
                Op::Remove(k) => {
                    let want = model.remove(&starts[k]);
                    let got = want.map(|_| std::mem::take(g.remove(starts[k])));
                    prop_assert_eq!(got, want);
                    // A stale cursor on the freed entry finds nothing.
                    prop_assert_eq!(g.find(starts[k]), None);
                    prop_assert_eq!(g.get(starts[k]), None);
                }
                Op::Iter => {
                    let got: Vec<(u64, u64)> = g.iter().map(|(k, &v)| (k, v)).collect();
                    let mut want: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want, "iteration is in start order");
                }
                Op::Drain => {
                    let mut got = Vec::new();
                    g.drain(|v| got.push(std::mem::take(v)));
                    got.sort_unstable();
                    let mut want: Vec<u64> = model.drain().map(|(_, v)| v).collect();
                    want.sort_unstable();
                    prop_assert_eq!(got, want);
                }
            }
            // No surviving group moved, and the table is the model's.
            let after = slots_of(&g);
            for (k, slot) in before {
                if model.contains_key(&k) {
                    prop_assert_eq!(after[&k], slot, "{} moved", k);
                }
            }
            prop_assert_eq!(g.live, model.len());
            let live = &g.index[..g.live];
            prop_assert!(live.windows(2).all(|w| w[0].0 < w[1].0), "unsorted: {:?}", live);
            // Every slot is in the list exactly once, live or free.
            let listed: HashSet<usize> = g.index.iter().map(|&(_, slot)| slot).collect();
            prop_assert_eq!(g.index.len(), g.slots.len());
            prop_assert_eq!(listed, (0..g.slots.len()).collect::<HashSet<_>>());
            for &s in &starts {
                prop_assert_eq!(g.get(s), model.get(&s), "start {}", s);
            }
        }
    }

    #[test]
    fn a_warm_slot_table_cycles_without_allocating(
        n in 1usize..96,
        seed in any::<u64>(),
    ) {
        // A fresh table filled to `n` open groups once, then drained: its
        // open high-water. Then `n` groups opened in a shuffled order and
        // removed in another, twice over. Neither the slots nor the
        // start-ordered list may move or grow.
        let mut g: Groups<u64> = Groups::default();
        for k in 0..n as u64 {
            g.insert(k, || 0);
        }
        g.drain(|v| *v = 0);
        let held = |g: &Groups<u64>| {
            (
                (g.slots.as_ptr() as usize, g.slots.capacity()),
                (g.index.as_ptr() as usize, g.index.capacity()),
            )
        };
        let warm = held(&g);
        let mut state = seed | 1;
        let mut shuffle = |keys: &mut Vec<u64>| {
            for i in (1..keys.len()).rev() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                keys.swap(i, (state >> 33) as usize % (i + 1));
            }
        };
        for round in 1..3u64 {
            let mut keys: Vec<u64> = (0..n as u64).map(|i| (round << 32) | (i * 7)).collect();
            shuffle(&mut keys);
            for &k in &keys {
                g.insert(k, || 0);
            }
            shuffle(&mut keys);
            for k in keys {
                g.remove(k);
            }
            prop_assert_eq!(held(&g), warm);
        }
    }
}

#[test]
fn a_freed_slot_serves_the_next_start_and_the_old_one_misses() {
    let mut g: Groups<u64> = Groups::default();
    let a = g.insert(10, || 1);
    let b = g.insert(20, || 2);
    assert_eq!(g.find(10), Some(a), "the cursor moves to the hit");
    *g.remove(10) = 0;
    // The cursor's position now holds 20, and its slot is the freed `a`.
    assert_eq!(g.find(10), None);
    let c = g.insert(30, || 3);
    assert_eq!(c, a, "the freed shell is reused");
    assert_eq!(g[c], 0, "cleared by the remover, not replaced");
    let d = g.insert(5, || 4);
    assert_ne!(d, b, "a live slot is never handed out");
    assert_eq!(
        (g.find(10), g.find(30), g.find(20), g.find(5)),
        (None, Some(c), Some(b), Some(d))
    );
    let order: Vec<u64> = g.iter().map(|(s, _)| s).collect();
    assert_eq!(order, [5, 20, 30]);
}
