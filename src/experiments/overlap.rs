//! Adversarial overlap sweep: overlap policy × reassembly attack × budget.
//!
//! Every cell sends one labelled transfer through a [`ByzantineRouter`]
//! running one of the three overlap-injection attacks (a duplicate at a
//! shifted offset, an overlapping rewrite with flipped payload bytes, a
//! tiny-fragment flood), receives it under one of the three
//! [`OverlapPolicy`] settings, with and without a [`ResourceBudget`], and
//! proves three things per cell:
//!
//! * **equivalence** — the serial [`Receiver`] and the
//!   [`ParallelReceiver`] (1 and 4 workers, virtual engine) end
//!   byte-identical: same application bytes, same event sequence, same
//!   statistics;
//! * **integrity** — no TPDU is ever delivered with bytes that differ from
//!   what the sender submitted, under *any* policy: WSC-2 verification, not
//!   the overlap policy, is the integrity authority;
//! * **bounded memory** — with the budget on, the held-bytes high-water
//!   stays at or under the configured cap even while the flood attack runs
//!   (and without the budget, the flood provably exceeds that cap).
//!
//! Everything rides the virtual clock and seeded RNGs, so the sweep is
//! reproducible bit-for-bit and `BENCH_overlap.json` is an exact-class
//! regression gate.

use std::fmt;

use chunks_core::packet::Packet;
use chunks_netsim::{ByzantineConfig, ByzantineRouter, PacketTransform};
use chunks_transport::{
    ConnSpec, ConnectionParams, DeliveryMode, Engine, GlobalBudget, ParallelReceiver, Receiver,
    ResourceBudget, RxEvent, RxStats, Schedule, Sender, SenderConfig,
};
use chunks_vreasm::OverlapPolicy;
use chunks_wsc::InvariantLayout;

/// Bytes transferred per cell.
pub const PAYLOAD_BYTES: usize = 2_048;
/// Elements per TPDU (element size is 1 byte).
const TPDU_ELEMENTS: u32 = 32;
/// Receiver address-space capacity, in elements.
const CAPACITY: u64 = 1 << 12;
/// The one connection of the sweep.
const CONN: u32 = 1;

/// Held-bytes cap of the capped-budget column. The flood attack must
/// provably exceed this without the budget and stay at or under it with.
pub const BUDGET_BYTES: u64 = 256;
/// Open-group cap of the capped-budget column.
pub const BUDGET_GROUPS: usize = 32;
/// Tracked-fragment cap of the capped-budget column.
pub const BUDGET_FRAGS: usize = 96;

/// The three overlap-injection attacks (see
/// [`chunks_netsim::ByzantineConfig`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Attack {
    /// Data chunks duplicated at a shifted offset inside their own group.
    ShiftedDup,
    /// Data chunks re-sent with identical labels and flipped payload bytes.
    Rewrite,
    /// Bursts of single-element fragments opening never-completing groups.
    TinyFlood,
}

impl Attack {
    /// All attacks, sweep order.
    pub const ALL: [Attack; 3] = [Attack::ShiftedDup, Attack::Rewrite, Attack::TinyFlood];

    /// Row label.
    pub fn name(&self) -> &'static str {
        match self {
            Attack::ShiftedDup => "shifted-duplicate",
            Attack::Rewrite => "conflicting-rewrite",
            Attack::TinyFlood => "tiny-fragment-flood",
        }
    }

    fn config(&self) -> ByzantineConfig {
        match self {
            Attack::ShiftedDup => ByzantineConfig::shifted_duplicator(0.25),
            Attack::Rewrite => ByzantineConfig::rewriter(0.25),
            // Base 2200 keeps every flood group inside CAPACITY while
            // sitting far beyond the 2048 payload elements, so no flood
            // fragment can ever complete a legitimate group.
            Attack::TinyFlood => ByzantineConfig::tiny_flooder(1.0, 8, 2_200),
        }
    }
}

/// One cell's outcome.
#[derive(Clone, PartialEq, Debug)]
pub struct OverlapRow {
    /// Overlap policy in force at the receiver.
    pub policy: &'static str,
    /// Attack the middlebox ran.
    pub attack: &'static str,
    /// Budget column: `"unlimited"` or `"capped"`.
    pub budget: &'static str,
    /// Attack chunks the middlebox injected.
    pub injected: u64,
    /// Fraction of payload bytes verified and delivered (no retransmission
    /// loop runs, so condemned TPDUs stay undelivered).
    pub delivered_frac: f64,
    /// TPDUs condemned by any detection channel.
    pub failed_tpdus: u64,
    /// Overlaps with differing bytes the receiver diagnosed.
    pub overlap_conflicts: u64,
    /// Groups the budget evicted (LRU by virtual clock).
    pub evictions: u64,
    /// Payload bytes the budget shed at admission.
    pub shed_bytes: u64,
    /// Highest held+staged byte count observed after any packet.
    pub held_high_water: u64,
    /// The receiver's final acknowledgment carried the back-pressure bit.
    pub pressure: bool,
    /// Serial receiver and 1-/4-worker parallel pipelines ended
    /// byte-identical (bytes, events, statistics).
    pub parallel_identical: bool,
    /// Delivered TPDUs whose bytes differ from the sender's submission —
    /// must be zero under every policy.
    pub corrupted_deliveries: u64,
}

/// All rows of one seed's sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct OverlapResult {
    /// Seed the sweep ran under.
    pub seed: u64,
    /// policy-major × attack × budget rows.
    pub rows: Vec<OverlapRow>,
}

impl OverlapResult {
    /// Acceptance for the whole sweep (see the module docs' three proofs).
    pub fn passes(&self) -> bool {
        let all = |f: fn(&OverlapRow) -> bool| self.rows.iter().all(f);
        let cell = |attack: &'static str, budget: &'static str| {
            self.rows
                .iter()
                .filter(move |r| r.attack == attack && r.budget == budget)
        };
        // Equivalence and integrity hold in every cell.
        all(|r| r.parallel_identical)
            && all(|r| r.corrupted_deliveries == 0)
            // Every capped cell respects the byte cap...
            && self
                .rows
                .iter()
                .filter(|r| r.budget == "capped")
                .all(|r| r.held_high_water <= BUDGET_BYTES)
            // ...which the unbudgeted flood provably exceeds,
            && cell("tiny-fragment-flood", "unlimited").all(|r| r.held_high_water > BUDGET_BYTES)
            // and the budgeted flood visibly degrades (evicts or sheds) and
            // signals back-pressure instead of failing silently.
            && cell("tiny-fragment-flood", "capped")
                .all(|r| r.evictions + r.shed_bytes > 0 && r.pressure)
            // The rewrite attack is diagnosed under every policy, and
            // first-wins (which keeps the original bytes) still delivers
            // the whole transfer — WSC-2 confirms the held copy.
            && cell("conflicting-rewrite", "unlimited").all(|r| r.overlap_conflicts > 0)
            && self
                .rows
                .iter()
                .filter(|r| r.attack == "conflicting-rewrite" && r.policy == "first-wins")
                .all(|r| r.delivered_frac == 1.0)
    }
}

impl fmt::Display for OverlapResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "=== overlap — reassembly hardening under attack (seed {:#x}) ===",
            self.seed
        )?;
        writeln!(
            f,
            "  {:<11} {:<20} {:<9} {:>6} {:>7} {:>6} {:>9} {:>6} {:>6} {:>8} {:>5} {:>5}",
            "policy",
            "attack",
            "budget",
            "inject",
            "deliv%",
            "fail",
            "conflicts",
            "evict",
            "shed",
            "held-max",
            "press",
            "par=="
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "  {:<11} {:<20} {:<9} {:>6} {:>6.0}% {:>6} {:>9} {:>6} {:>6} {:>8} {:>5} {:>5}",
                r.policy,
                r.attack,
                r.budget,
                r.injected,
                r.delivered_frac * 100.0,
                r.failed_tpdus,
                r.overlap_conflicts,
                r.evictions,
                r.shed_bytes,
                r.held_high_water,
                if r.pressure { "yes" } else { "no" },
                if r.parallel_identical { "ok" } else { "DIFF" },
            )?;
        }
        Ok(())
    }
}

fn params() -> ConnectionParams {
    ConnectionParams {
        conn_id: CONN,
        elem_size: 1,
        initial_csn: 0,
        tpdu_elements: TPDU_ELEMENTS,
    }
}

fn layout() -> InvariantLayout {
    InvariantLayout::with_data_symbols(2048)
}

fn payload() -> Vec<u8> {
    (0..PAYLOAD_BYTES).map(|i| (i * 7 + 3) as u8).collect()
}

fn budget_for(capped: bool) -> ResourceBudget {
    if capped {
        ResourceBudget::with_caps(BUDGET_BYTES, BUDGET_GROUPS, BUDGET_FRAGS)
            .with_global(GlobalBudget::new(2 * BUDGET_BYTES))
    } else {
        ResourceBudget::unlimited()
    }
}

/// The post-attack frame stream of one attack under one seed. The budget
/// column never perturbs this: capped and unlimited cells of one attack see
/// the identical byte stream.
fn attacked_frames(attack: Attack, seed: u64) -> (Vec<Packet>, u64) {
    let mix = attack.name().bytes().fold(seed, |h, b| {
        h.wrapping_mul(0x100000001B3).wrapping_add(b as u64)
    });
    let mut tx = Sender::new(SenderConfig {
        params: params(),
        layout: layout(),
        mtu: 256,
        min_tpdu_elements: 4,
        max_tpdu_elements: 64,
    });
    tx.submit_simple(&payload(), 0xA, false);
    let mut byz = ByzantineRouter::new(attack.config(), mix);
    let mut frames = Vec::new();
    for (i, p) in tx
        .packets_for_pending()
        .expect("payload fits the window")
        .into_iter()
        .enumerate()
    {
        byz.ingest(i as u64, p.bytes, &mut frames);
    }
    let frames = frames.into_iter().map(|bytes| Packet { bytes }).collect();
    let injected = byz.stats.shifted_dups + byz.stats.rewrites + byz.stats.tiny_fragments;
    (frames, injected)
}

/// Everything observable about one receive pass, for the equivalence check.
type Trace = (Vec<u8>, Vec<RxEvent>, RxStats);

fn serial_pass(frames: &[Packet], policy: OverlapPolicy, capped: bool) -> (Trace, bool) {
    let mut rx = Receiver::new(DeliveryMode::Reassemble, params(), layout(), CAPACITY)
        .with_policy(policy)
        .with_budget(budget_for(capped));
    let mut events = Vec::new();
    for (i, packet) in frames.iter().enumerate() {
        rx.handle_packet_into(packet, i as u64, &mut events);
    }
    let pressure = rx.make_ack().pressure;
    ((rx.app_data().to_vec(), events, rx.stats), pressure)
}

fn parallel_pass(frames: &[Packet], policy: OverlapPolicy, capped: bool, workers: usize) -> Trace {
    let spec = ConnSpec::new(params(), layout(), DeliveryMode::Reassemble, CAPACITY)
        .with_policy(policy)
        .with_budget(budget_for(capped));
    let mut pr = ParallelReceiver::new(workers, Engine::Virtual(Schedule::Fair), vec![spec]);
    for (i, packet) in frames.iter().enumerate() {
        pr.ingest(packet, i as u64);
    }
    let mut out = pr.finish();
    let report = out
        .conns
        .remove(&CONN)
        .expect("the connection is registered");
    (
        report.receiver.app_data().to_vec(),
        report.events,
        report.receiver.stats,
    )
}

/// Runs one cell.
fn run_cell(policy: OverlapPolicy, attack: Attack, capped: bool, seed: u64) -> OverlapRow {
    let (frames, injected) = attacked_frames(attack, seed);
    let (serial, pressure) = serial_pass(&frames, policy, capped);
    let parallel_identical = [1usize, 4]
        .iter()
        .all(|&w| parallel_pass(&frames, policy, capped, w) == serial);

    let want = payload();
    let (app, events, stats) = &serial;
    let mut delivered_elems = 0u64;
    let mut failed = 0u64;
    let mut corrupted = 0u64;
    for e in events {
        match e {
            RxEvent::TpduDelivered { start, elements } => {
                let (lo, hi) = (*start as usize, (*start + *elements) as usize);
                // Delivered groups must sit inside the submitted payload and
                // carry exactly the sender's bytes — under every policy.
                if hi > want.len() || app[lo..hi] != want[lo..hi] {
                    corrupted += 1;
                } else {
                    delivered_elems += elements;
                }
            }
            RxEvent::TpduFailed { .. } => failed += 1,
            _ => {}
        }
    }
    OverlapRow {
        policy: policy.as_str(),
        attack: attack.name(),
        budget: if capped { "capped" } else { "unlimited" },
        injected,
        delivered_frac: delivered_elems as f64 / PAYLOAD_BYTES as f64,
        failed_tpdus: failed,
        overlap_conflicts: stats.overlap_conflicts,
        evictions: stats.evictions,
        shed_bytes: stats.shed_bytes,
        held_high_water: stats.peak_buffered_bytes,
        pressure,
        parallel_identical,
        corrupted_deliveries: corrupted,
    }
}

/// Runs the full policy × attack × budget sweep under one seed.
pub fn run(seed: u64) -> OverlapResult {
    let mut rows = Vec::new();
    for policy in OverlapPolicy::ALL {
        for attack in Attack::ALL {
            for capped in [false, true] {
                rows.push(run_cell(policy, attack, capped, seed));
            }
        }
    }
    OverlapResult { seed, rows }
}

/// Renders the sweep as the exact-class `BENCH_overlap.json` record.
pub fn bench_json(r: &OverlapResult, describe: &str) -> String {
    use super::benchjson::meta_json;
    let mut out = String::from("{\n");
    out.push_str(&meta_json(
        "overlap-hardening-under-attack",
        "cargo run --release --bin experiments overlap (or: just soak-overlap)",
        describe,
    ));
    out.push_str(&format!(
        "  \"workload\": \"{} bytes, {}-element TPDUs, overlap attacks injected on the wire; capped budget = {} bytes / {} groups / {} fragments\",\n",
        PAYLOAD_BYTES, TPDU_ELEMENTS, BUDGET_BYTES, BUDGET_GROUPS, BUDGET_FRAGS
    ));
    out.push_str("  \"results\": [\n");
    let rows: Vec<String> = r
        .rows
        .iter()
        .map(|row| {
            format!(
                "    {{\"policy\": \"{}\", \"attack\": \"{}\", \"budget\": \"{}\", \"injected\": {}, \"delivered_frac\": {:.3}, \"failed_tpdus\": {}, \"overlap_conflicts\": {}, \"evictions\": {}, \"shed_bytes\": {}, \"held_high_water\": {}, \"pressure\": {}, \"parallel_identical\": {}, \"corrupted_deliveries\": {}}}",
                row.policy,
                row.attack,
                row.budget,
                row.injected,
                row.delivered_frac,
                row.failed_tpdus,
                row.overlap_conflicts,
                row.evictions,
                row.shed_bytes,
                row.held_high_water,
                row.pressure,
                row.parallel_identical,
                row.corrupted_deliveries,
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SEED;

    #[test]
    fn sweep_passes_and_is_deterministic() {
        let r = run(SEED);
        assert!(r.passes(), "sweep acceptance failed:\n{r}");
        assert_eq!(r, run(SEED), "sweep must reproduce bit-for-bit");
        assert_eq!(r.rows.len(), 18, "3 policies × 3 attacks × 2 budgets");
    }

    #[test]
    fn flood_cell_held_bytes_stay_under_the_configured_budget() {
        let r = run(SEED);
        for row in r
            .rows
            .iter()
            .filter(|r| r.attack == "tiny-fragment-flood" && r.budget == "capped")
        {
            assert!(
                row.held_high_water <= BUDGET_BYTES,
                "{}/{}: high-water {} exceeds cap {}",
                row.policy,
                row.attack,
                row.held_high_water,
                BUDGET_BYTES
            );
            assert!(row.pressure, "budgeted flood must signal back-pressure");
        }
    }

    #[test]
    fn corrupting_overlaps_never_deliver_under_any_policy() {
        let r = run(SEED);
        for row in &r.rows {
            assert_eq!(
                row.corrupted_deliveries, 0,
                "{}/{}/{}: corrupted bytes reached the application",
                row.policy, row.attack, row.budget
            );
        }
    }
}
