//! The ownership oracle. The receiver reads which TPDU owns an element off
//! its groups' tracked runs and its delivered records (module docs, "Who
//! owns an element"); the model here is the claims map a receiver can keep
//! instead — every accepted chunk's elements tagged with its TPDU's start,
//! checked before they are taken, freed when the group or its record goes.
//! Driven beside a receiver over hostile traces, the two must agree after
//! every step on each collision, on its `OverlapConflict` owners and ranges
//! in order, on the verdict it condemns, and on the run count
//! `ResourceBudget::max_fragments` caps.
//!
//! The model sees only what a step tracked: the runs the chunk's group
//! gained, placed by the chunk's own labels. A group evicted during the
//! step frees its claims before whichever piece of the chunk the eviction
//! preceded; when that order decides a piece's verdict, the piece is judged
//! with the order the receiver's trace shows.

use std::collections::BTreeMap;

use chunks_core::frag::{extract, split};
use chunks_obs::Recorder;
use proptest::prelude::*;

use super::*;
use crate::frame::Framer;

/// Element → the start of the TPDU that claims it.
#[derive(Default)]
struct Claims(BTreeMap<u64, u64>);

impl Claims {
    /// `(first, end, owner)` for each maximal same-owner run meeting `[lo,
    /// hi)`, clipped to it, in order.
    fn conflicts(&self, lo: u64, hi: u64) -> Vec<(u64, u64, u64)> {
        let mut out: Vec<(u64, u64, u64)> = Vec::new();
        for (&e, &owner) in self.0.range(lo..hi) {
            match out.last_mut() {
                Some(run) if run.1 == e && run.2 == owner => run.1 = e + 1,
                _ => out.push((e, e + 1, owner)),
            }
        }
        out
    }

    fn claim(&mut self, lo: u64, hi: u64, owner: u64) {
        for e in lo..hi {
            self.0.insert(e, owner);
        }
    }

    /// Maximal same-owner runs held.
    fn runs(&self) -> usize {
        let mut prev: Option<(u64, u64)> = None;
        let mut n = 0;
        for (&e, &owner) in &self.0 {
            if prev != Some((e.wrapping_sub(1), owner)) {
                n += 1;
            }
            prev = Some((e, owner));
        }
        n
    }
}

/// What a step asks of the receiver.
#[derive(Clone, Debug)]
enum Step {
    Chunk(Chunk),
    /// Reset the legitimate TPDU of this index.
    Reset(usize),
    /// Reset the oldest failed group, if any.
    ResetFailed,
    /// Release everything readable.
    Release,
}

/// xorshift64*: the trace is built from one proptest seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

const TPDUS: usize = 6;
const TPDU_ELEMENTS: u64 = 8;

/// Six TPDUs of 8, each cut at random points, with re-cut copies (some
/// with differing bytes, for the overlap policies), some data chunks' `C.SN`
/// moved into a neighbour's elements (`X.SN` moved with it, so the X check
/// leaves the collision check the only detector), shuffled as a multipath
/// path would, with resets and releases in between.
fn trace(rng: &mut Rng, p: ConnectionParams) -> (Vec<Step>, Vec<u64>) {
    let data: Vec<u8> = (0..TPDUS as u64 * TPDU_ELEMENTS)
        .map(|_| rng.below(256) as u8)
        .collect();
    let tpdus =
        Framer::new(p, InvariantLayout::with_data_symbols(4096)).frame_simple(&data, 0xF, false);
    let mut chunks = Vec::new();
    for t in &tpdus {
        for c in &t.chunks {
            let mut rest = c.clone();
            while rest.header.len > 1 && rng.below(2) == 0 {
                let (a, b) =
                    split(&rest, 1 + rng.below(rest.header.len as u64 - 1) as u32).unwrap();
                chunks.push(a);
                rest = b;
            }
            chunks.push(rest);
            for _ in 0..rng.below(3) {
                let len = c.header.len as u64;
                let off = rng.below(len);
                let mut copy = extract(c, off as u32, (1 + rng.below(len - off)) as u32).unwrap();
                if rng.below(3) == 0 {
                    let mut bytes = copy.payload.to_vec();
                    bytes[0] ^= 0x5A;
                    copy.payload = bytes.into();
                }
                chunks.push(copy);
            }
        }
        chunks.push(t.ed.clone());
    }
    for c in &mut chunks {
        if c.header.ty == ChunkType::Data && rng.below(6) == 0 {
            let delta = (1 + rng.below(12)) as u32;
            let delta = if rng.below(2) == 0 {
                delta
            } else {
                delta.wrapping_neg()
            };
            c.header.conn.sn = c.header.conn.sn.wrapping_add(delta);
            c.header.ext.sn = c.header.ext.sn.wrapping_add(delta);
        }
    }
    for i in (1..chunks.len()).rev() {
        chunks.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut steps = Vec::new();
    for c in chunks {
        steps.push(Step::Chunk(c));
        match rng.below(16) {
            0 => steps.push(Step::Reset(rng.below(TPDUS as u64) as usize)),
            1 => steps.push(Step::ResetFailed),
            2 | 3 => steps.push(Step::Release),
            _ => {}
        }
    }
    (steps, tpdus.iter().map(|t| t.start).collect())
}

/// The group's tracked runs at `start`, or a delivered record's extent
/// (`T.SN` space).
fn tracked(r: &Receiver, start: u64) -> Vec<(u64, u64)> {
    if let Some(g) = r.groups.get(start) {
        g.tpdu.runs().to_vec()
    } else if let Some(d) = r.done.get(start) {
        vec![(0, d.elements)]
    } else {
        Vec::new()
    }
}

/// `after` less `before`, where `before`'s runs lie within `after`'s.
fn gained(after: &[(u64, u64)], before: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let mut out = Vec::new();
    for &(a, b) in after {
        let mut from = a;
        for &(c, d) in before.iter().filter(|&&(c, d)| c < b && d > a) {
            if c > from {
                out.push((from, c));
            }
            from = d;
        }
        if from < b {
            out.push((from, b));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 96 } else { 960 }))]

    #[test]
    fn claims_read_off_the_tpdu_records_equal_a_claims_map(
        seed in 1u64..u64::MAX,
        mode in 0usize..3,
        policy in 0usize..3,
        budget in 0u64..4,
        small_ring in any::<bool>(),
        wrap in any::<bool>(),
    ) {
        let mut rng = Rng(seed);
        let p = ConnectionParams {
            conn_id: 0xA,
            elem_size: 1,
            initial_csn: if wrap { u32::MAX - 20 } else { 100 },
            tpdu_elements: TPDU_ELEMENTS as u32,
        };
        let (steps, starts) = trace(&mut rng, p);
        let mode = [DeliveryMode::Immediate, DeliveryMode::Reorder, DeliveryMode::Reassemble][mode];
        let budget = match budget {
            0 => ResourceBudget::default(),
            1 => ResourceBudget::with_caps(u64::MAX, usize::MAX, 2 + rng.below(6) as usize),
            2 => ResourceBudget::with_caps(u64::MAX, 2 + rng.below(3) as usize, 3 + rng.below(6) as usize),
            _ => ResourceBudget::with_caps(12 + rng.below(24), 3, 4 + rng.below(4) as usize),
        };
        let rec = Recorder::verbose_tier(1 << 16);
        let capacity = if small_ring { 20 } else { 1 << 12 };
        let mut r = Receiver::new(mode, p, InvariantLayout::with_data_symbols(4096), capacity)
            .with_policy(OverlapPolicy::ALL[policy])
            .with_budget(budget)
            .with_obs(rec.clone());
        let mut model = Claims::default();
        for (now, step) in steps.iter().enumerate() {
            let now = now as u64;
            let seen = rec.events().len();
            let conflicts_before = r.stats.overlap_conflicts;
            let mut out = Vec::new();
            let mut collided = false;
            match step {
                Step::Chunk(c) => {
                    let h = c.header;
                    let first = r.unwrap_csn(h.conn.sn);
                    let own = if h.ty == ChunkType::Data {
                        r.tpdu_start(h.conn.sn.wrapping_sub(h.tpdu.sn))
                    } else {
                        None
                    };
                    let before = own.map_or_else(Vec::new, |s| tracked(&r, s));
                    let undecided = own.is_some_and(|s| r.groups.get(s).is_none_or(|g| g.tpdu.verdict().is_none()));
                    r.handle_chunk_into(c.clone(), now, &mut out);
                    if let Some(own) = own {
                        let mut evicted = Vec::new();
                        let mut log = Vec::new();
                        for e in &rec.events()[seen..] {
                            match e.event {
                                Event::GroupEvicted { start, .. } => evicted.push(start),
                                Event::OverlapConflict { start, bytes, owner, .. } if owner != own as u32 => {
                                    log.push((start, bytes, owner))
                                }
                                _ => {}
                            }
                        }
                        let mut at = 0;
                        for (t0, t1) in gained(&tracked(&r, own), &before) {
                            let lo = first + (t0 - h.tpdu.sn as u64);
                            let hi = lo + (t1 - t0);
                            let with = model.conflicts(lo, hi);
                            let without: Vec<_> = with.iter().copied().filter(|c| !evicted.contains(&(c.2 as u32))).collect();
                            let traced = |runs: &[(u64, u64, u64)]| {
                                let runs: Vec<_> = runs.iter().map(|&(a, b, o)| (a as u32, (b - a) as u32, o as u32)).collect();
                                log[at..].starts_with(&runs)
                            };
                            let want = if traced(&with) { with } else { without };
                            prop_assert!(traced(&want), "{:?}: [{}, {}) expected {:?}, traced {:?}", step, lo, hi, want, &log[at..]);
                            prop_assert!(want.iter().all(|c| c.2 != own), "an own-start collision");
                            at += want.len();
                            if want.is_empty() {
                                model.claim(lo, hi, own);
                            } else {
                                collided = true;
                            }
                        }
                        prop_assert_eq!(at, log.len(), "{:?}: untraced collisions", step);
                        if collided && undecided {
                            prop_assert!(
                                out.iter().any(|e| matches!(e, RxEvent::TpduFailed { start, .. } if *start == own)),
                                "{:?}: a collision condemned nothing", step
                            );
                        }
                    }
                }
                Step::Reset(i) => r.reset_group(starts[*i]),
                Step::ResetFailed => {
                    if let Some(&s) = r.failed_starts().first() {
                        r.reset_group(s);
                    }
                }
                Step::Release => r.release(u64::MAX),
            }
            for e in &out {
                if let RxEvent::TpduFailed { reason: FailureReason::Consistency, .. } = e {
                    prop_assert!(collided, "{:?}: {:?} without a collision", step, e);
                }
            }
            let conflicts = rec.events()[seen..]
                .iter()
                .filter(|e| matches!(e.event, Event::OverlapConflict { .. }))
                .count() as u64;
            prop_assert_eq!(r.stats.overlap_conflicts - conflicts_before, conflicts);
            model.0.retain(|_, s| r.groups.get(*s).is_some() || r.done.get(*s).is_some());
            prop_assert_eq!(r.fragments, model.runs(), "{:?}", step);
        }
    }
}
