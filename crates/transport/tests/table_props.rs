//! Property suite for the open-addressed connection table: an unbounded
//! table must agree operation-for-operation with a `HashMap` oracle under
//! arbitrary admit/lookup/retire/idle-sweep churn (including growth), a
//! bounded table must never exceed `max_live` and must replay the same
//! schedule — evictions included — deterministically, and with a sample
//! width covering the whole table the eviction policy must be exact LRU.

use std::collections::HashMap;

use chunks_transport::{ConnTable, ConnectionParams, DeliveryMode, Receiver, TableConfig};
use chunks_wsc::InvariantLayout;
use proptest::prelude::*;

/// Keys are drawn from a universe small enough that collisions, re-admits
/// and retire-then-readmit sequences all happen, but large enough to force
/// index growth from the default 8-connection sizing.
const KEYS: u32 = 96;

fn params(conn_id: u32) -> ConnectionParams {
    ConnectionParams {
        conn_id,
        elem_size: 1,
        initial_csn: 0,
        tpdu_elements: 8,
    }
}

fn fresh(conn_id: u32) -> Receiver {
    Receiver::new(
        DeliveryMode::Immediate,
        params(conn_id),
        InvariantLayout::with_data_symbols(16),
        64,
    )
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Admit(u32),
    Lookup(u32),
    Retire(u32),
    /// Evict everything idle for longer than this many ticks.
    IdleSweep(u64),
}

/// Weighted 4:3:2:1 over admit/lookup/retire/idle-sweep (the offline
/// proptest stand-in has no `prop_oneof`, so the weights are drawn by hand).
fn op_strategy() -> impl Strategy<Value = Op> {
    (0u32..10, 0..KEYS, 1u64..40).prop_map(|(w, k, age)| match w {
        0..=3 => Op::Admit(k),
        4..=6 => Op::Lookup(k),
        7..=8 => Op::Retire(k),
        _ => Op::IdleSweep(age),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unbounded_table_agrees_with_a_hashmap_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        // Oracle: key → last touch. Unbounded, so nothing is ever evicted
        // behind the model's back and every step is exactly predictable.
        let mut table = ConnTable::new(TableConfig::default());
        let mut model: HashMap<u32, u64> = HashMap::new();
        let mut now: u64 = 0;
        for op in &ops {
            now += 1;
            match *op {
                Op::Admit(k) => {
                    let out = table.admit(params(k), now, || fresh(k), |_| {});
                    prop_assert_eq!(out.admitted, !model.contains_key(&k));
                    prop_assert!(!out.refused);
                    prop_assert_eq!(out.evicted, None);
                    model.insert(k, now);
                }
                Op::Lookup(k) => {
                    let hit = table.lookup(k, now).is_some();
                    prop_assert_eq!(hit, model.contains_key(&k));
                    if hit {
                        model.insert(k, now);
                    }
                }
                Op::Retire(k) => {
                    prop_assert_eq!(table.retire(k, now), model.remove(&k).is_some());
                }
                Op::IdleSweep(age) => {
                    let before = now.saturating_sub(age);
                    let evicted = table.evict_idle(before, now);
                    let dead: Vec<u32> = model
                        .iter()
                        .filter(|&(_, &t)| t < before)
                        .map(|(&k, _)| k)
                        .collect();
                    prop_assert_eq!(evicted, dead.len());
                    for k in dead {
                        model.remove(&k);
                    }
                }
            }
            prop_assert_eq!(table.len(), model.len());
        }
        // Presence agrees across the whole key universe and the live set is
        // exactly the model's.
        for k in 0..KEYS {
            prop_assert_eq!(table.contains(k), model.contains_key(&k));
        }
        let mut live: Vec<u32> = table.iter().map(|(k, _)| k).collect();
        live.sort_unstable();
        let mut want: Vec<u32> = model.keys().copied().collect();
        want.sort_unstable();
        prop_assert_eq!(live, want);
        // Accounting closes: every admission is live or was evicted, nothing
        // was refused, and every eviction's shell is pooled or re-armed.
        let s = table.stats;
        prop_assert_eq!(s.admissions - s.evictions, table.len() as u64);
        prop_assert_eq!(s.refusals, 0);
        prop_assert_eq!(table.pooled() as u64, s.evictions - s.pooled_admissions);
    }

    #[test]
    fn bounded_table_never_exceeds_max_live_and_replays_deterministically(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        max_live in 1usize..24,
    ) {
        // Sampled LRU makes the *victim* policy-defined rather than
        // model-predictable, so the bounded table is pinned two ways:
        // invariants that must hold at every step, and a full replay that
        // must reproduce the same evictions, stats and survivors.
        let run = |ops: &[Op]| {
            let mut table = ConnTable::new(TableConfig::for_capacity(4).with_max_live(max_live));
            let mut evicted: Vec<Option<u32>> = Vec::new();
            let mut now = 0u64;
            for op in ops {
                now += 1;
                match *op {
                    Op::Admit(k) => {
                        let out = table.admit(params(k), now, || fresh(k), |_| {});
                        assert!(!out.refused, "live > 0 admissions must never refuse");
                        evicted.push(out.evicted);
                    }
                    Op::Lookup(k) => {
                        table.lookup(k, now);
                    }
                    Op::Retire(k) => {
                        table.retire(k, now);
                    }
                    Op::IdleSweep(age) => {
                        table.evict_idle(now.saturating_sub(age), now);
                    }
                }
                assert!(table.len() <= max_live, "live exceeded max_live");
            }
            let mut live: Vec<u32> = table.iter().map(|(k, _)| k).collect();
            live.sort_unstable();
            (live, table.stats, evicted)
        };
        prop_assert_eq!(run(&ops), run(&ops));
    }
}

#[test]
fn full_width_sample_evicts_in_exact_lru_order() {
    // With the eviction sample (8 slots) at least the live count, the
    // clock-hand sample covers every occupied slot and the policy
    // degenerates to true LRU: a known touch order must be evicted back in
    // exactly that order.
    let mut table = ConnTable::new(TableConfig::for_capacity(8).with_max_live(8));
    let mut now = 0u64;
    for k in 0..8u32 {
        now += 1;
        table.admit(params(k), now, || fresh(k), |_| {});
    }
    // Touch in reverse: key 7 becomes the least recently used.
    for k in (0..8u32).rev() {
        now += 1;
        assert!(table.lookup(k, now).is_some());
    }
    let mut evicted = Vec::new();
    for k in 100..108u32 {
        now += 1;
        let out = table.admit(params(k), now, || fresh(k), |_| {});
        assert!(out.admitted);
        evicted.push(out.evicted.expect("full table must evict to admit"));
    }
    assert_eq!(evicted, vec![7, 6, 5, 4, 3, 2, 1, 0]);
    assert_eq!(table.stats.evictions, 8);
    assert_eq!(table.stats.refusals, 0);
}
