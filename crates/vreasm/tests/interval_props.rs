//! Property tests for interval tracking against a naive bitmap model.

use chunks_vreasm::{IntervalSet, OverlapPolicy, PduTracker, Reassembly, TrackEvent};
use proptest::prelude::*;

const UNIVERSE: u64 = 256;

fn model_insert(model: &mut [bool], start: u64, end: u64) -> u64 {
    let mut overlap = 0;
    for i in start..end {
        if model[i as usize] {
            overlap += 1;
        }
        model[i as usize] = true;
    }
    overlap
}

proptest! {
    #[test]
    fn matches_bitmap_model(ops in proptest::collection::vec((0u64..UNIVERSE, 1u64..32), 1..40)) {
        let mut set = IntervalSet::new();
        let mut model = vec![false; UNIVERSE as usize * 2];
        for (start, len) in ops {
            let end = start + len;
            let got = set.insert(start, end);
            let want = model_insert(&mut model, start, end);
            prop_assert_eq!(got, want, "insert [{}, {})", start, end);
        }
        // Covered count agrees.
        let covered = model.iter().filter(|&&b| b).count() as u64;
        prop_assert_eq!(set.covered(), covered);
        // Ranges are sorted, disjoint, non-adjacent.
        let rs = set.ranges();
        for w in rs.windows(2) {
            prop_assert!(w[0].1 < w[1].0, "ranges {:?} not coalesced", rs);
        }
        // Contains/overlap spot checks.
        for &(s, e) in rs {
            prop_assert!(set.contains(s, e));
            prop_assert_eq!(set.overlap(s, e), e - s);
        }
        // Gaps + covered partitions [0, max).
        if let Some(&(_, max_end)) = rs.last() {
            let gap_total: u64 = set.gaps(max_end).iter().map(|(s, e)| e - s).sum();
            prop_assert_eq!(gap_total + set.covered(), max_end);
        }
    }

    #[test]
    fn insert_is_idempotent(ops in proptest::collection::vec((0u64..UNIVERSE, 1u64..32), 1..24)) {
        let mut s = IntervalSet::new();
        for &(start, len) in &ops {
            s.insert(start, start + len);
        }
        let before = s.clone();
        // Re-inserting any already-inserted span changes nothing and
        // reports itself fully duplicate.
        for &(start, len) in &ops {
            prop_assert_eq!(s.insert(start, start + len), len);
            prop_assert_eq!(&s, &before);
        }
    }

    #[test]
    fn disjoint_inserts_commute(spans in proptest::collection::vec((0u64..UNIVERSE, 1u64..16), 2..12)) {
        // Rewrite the spans to be pairwise disjoint by spacing them out,
        // then insert in the generated order and in reverse: the resulting
        // sets must be identical and every insert must report zero overlap.
        let disjoint: Vec<(u64, u64)> = spans
            .iter()
            .enumerate()
            .map(|(i, &(start, len))| {
                let base = i as u64 * 40;
                (base + start % 20, base + start % 20 + len.min(19))
            })
            .collect();
        let mut fwd = IntervalSet::new();
        for &(s, e) in &disjoint {
            prop_assert_eq!(fwd.insert(s, e), 0, "spans must be disjoint");
        }
        let mut rev = IntervalSet::new();
        for &(s, e) in disjoint.iter().rev() {
            prop_assert_eq!(rev.insert(s, e), 0);
        }
        prop_assert_eq!(fwd, rev);
    }

    #[test]
    fn subtract_inverts_insert(
        ops in proptest::collection::vec((0u64..UNIVERSE, 1u64..32), 0..24),
        span in (0u64..UNIVERSE, 1u64..32),
    ) {
        let mut s = IntervalSet::new();
        for &(start, len) in &ops {
            s.insert(start, start + len);
        }
        let (start, len) = span;
        let end = start + len;
        let before = s.clone();
        let dup = s.insert(start, end);
        // Subtracting only the *fresh* part restores the original set.
        let mut restored = s.clone();
        let mut removed = 0;
        for (gs, ge) in before.uncovered(start, end) {
            removed += restored.subtract(gs, ge);
        }
        prop_assert_eq!(dup + removed, len);
        prop_assert_eq!(&restored, &before);
        // Subtracting the whole span then re-inserting it round-trips too.
        let mut t = s.clone();
        prop_assert_eq!(t.subtract(start, end), len);
        t.insert(start, end);
        prop_assert_eq!(&t, &s);
    }

    #[test]
    fn overlap_is_symmetric_and_bounded(
        a in proptest::collection::vec((0u64..UNIVERSE, 1u64..32), 1..16),
        b in proptest::collection::vec((0u64..UNIVERSE, 1u64..32), 1..16),
    ) {
        // overlap(A, span of B) summed over B's disjoint ranges equals
        // overlap(B, span of A) summed over A's — both count |A ∩ B|.
        let build = |ops: &[(u64, u64)]| {
            let mut s = IntervalSet::new();
            for &(start, len) in ops {
                s.insert(start, start + len);
            }
            s
        };
        let sa = build(&a);
        let sb = build(&b);
        let ab: u64 = sb.ranges().iter().map(|&(s, e)| sa.overlap(s, e)).sum();
        let ba: u64 = sa.ranges().iter().map(|&(s, e)| sb.overlap(s, e)).sum();
        prop_assert_eq!(ab, ba);
        prop_assert!(ab <= sa.covered().min(sb.covered()));
        // Self-overlap over each own range is total coverage.
        let self_ov: u64 = sa.ranges().iter().map(|&(s, e)| sa.overlap(s, e)).sum();
        prop_assert_eq!(self_ov, sa.covered());
    }

    #[test]
    fn reassembly_claims_match_untagged_coverage(
        claims in proptest::collection::vec((0u64..UNIVERSE, 1u64..32, 0u64..4), 1..24),
    ) {
        // A Reassembly's coverage and conflict accounting must agree with
        // the plain IntervalSet it extends: fresh + conflicts partition
        // every claim, and a position is owned exactly when the untagged
        // set holds it.
        let mut r = Reassembly::new(OverlapPolicy::FirstWins);
        let mut s = IntervalSet::new();
        for &(start, len, tag) in &claims {
            let end = start + len;
            let c = r.claim(start, end, tag);
            let dup = s.insert(start, end);
            prop_assert_eq!(c.conflict_len(), dup);
            let fresh: u64 = c.fresh.iter().map(|(a, b)| b - a).sum();
            prop_assert_eq!(fresh + dup, len);
        }
        prop_assert_eq!(r.covered(), s.covered());
        for p in 0..UNIVERSE + 32 {
            prop_assert_eq!(r.owner_of(p).is_some(), s.contains(p, p + 1));
        }
    }

    #[test]
    fn reassembly_ranges_are_the_maximal_runs_of_a_per_position_owner_model(
        claims in proptest::collection::vec((0u64..UNIVERSE, 1u64..32, 0u64..3, 0u32..4), 1..40),
    ) {
        // Claims arrive mostly in order — at or past the last range, the
        // tail-append path — and now and then anywhere, through `claim` or,
        // on a clean span, `claim_uncontested`, with a tag released now and
        // then. The tagged ranges must always be exactly the maximal
        // same-owner runs of a per-position model, whichever path built them.
        let mut r = Reassembly::new(OverlapPolicy::FirstWins);
        let mut owner: Vec<Option<u64>> = vec![None; 2048];
        let mut tail = 0u64;
        for &(at, len, tag, how) in &claims {
            let start = if how == 0 { at } else { tail + at % 3 };
            let end = start + len;
            tail = end;
            if how == 3 {
                r.release(tag);
                owner.iter_mut().filter(|o| **o == Some(tag)).for_each(|o| *o = None);
            }
            if r.overlap(start, end) == 0 && how != 1 {
                r.claim_uncontested(start, end, tag);
            } else {
                r.claim(start, end, tag);
            }
            for o in &mut owner[start as usize..end as usize] {
                o.get_or_insert(tag);
            }
            let mut runs = Vec::new();
            let mut p = 0;
            while p < owner.len() {
                let q = p + owner[p..].iter().take_while(|&&o| o == owner[p]).count();
                if let Some(t) = owner[p] {
                    runs.push(format!("[{p},{q})#{t}"));
                }
                p = q;
            }
            prop_assert_eq!(r.to_string(), format!("{{{}}}", runs.join(", ")));
        }
    }

    #[test]
    fn tracker_completes_iff_all_elements_seen(
        len in 1u64..64,
        order in proptest::collection::vec(any::<u16>(), 1..64),
    ) {
        // Split [0, len) into unit fragments delivered in a pseudo-random
        // order; tracker must complete exactly when the last arrives.
        let mut idx: Vec<u64> = (0..len).collect();
        for (i, &o) in order.iter().enumerate() {
            let j = (o as u64 % len) as usize;
            idx.swap(i % len as usize, j);
        }
        let mut t = PduTracker::new();
        for (k, &sn) in idx.iter().enumerate() {
            prop_assert!(!t.is_complete());
            let ev = t.offer(sn, 1, sn == len - 1);
            prop_assert_eq!(ev, TrackEvent::Accepted);
            prop_assert_eq!(t.is_complete(), k == idx.len() - 1);
        }
        prop_assert_eq!(t.covered(), len);
    }
}
