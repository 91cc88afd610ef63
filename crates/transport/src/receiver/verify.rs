//! Stage 2, **track + verify**: the per-TPDU engine of §3.3 — virtual
//! reassembly plus the incremental WSC-2 invariant, *one* algorithm
//! "regardless of whether we perform physical PDU reassembly, packet
//! reordering, or immediate packet processing". The three delivery modes of
//! [`Receiver`](super::Receiver) are placement policies over this one
//! engine: they decide where accepted bytes go, it decides what is
//! accepted, what the TPDU's verdict is, and what the TPDU asks for in an
//! acknowledgment.
//!
//! The engine fixes the order trim → offer → X-level consistency → absorb →
//! verify: [`TpduEngine::track`] then [`TpduEngine::absorb`] per chunk,
//! [`TpduEngine::verify`] once the ED chunk is in. A caller may veto between
//! the two per-chunk steps (the block receiver's cross-group claim check
//! sits there) by calling [`TpduEngine::fail`] instead of `absorb`.

use std::collections::HashMap;

use chunks_core::chunk::ChunkHeader;
use chunks_gf::Gf32;
use chunks_vreasm::{PduTracker, TrackEvent};
use chunks_wsc::{InvariantError, InvariantLayout, InvariantState, Wsc2};

use super::FailureReason;

/// What virtual reassembly made of an offered span `[sn, sn + len)`.
#[derive(Debug)]
pub(crate) enum Track {
    /// Nothing of the span was held; it is recorded, and the chunk goes on
    /// to [`TpduEngine::absorb`].
    Fresh,
    /// Some of the span is already held (or the chunk is empty): nothing was
    /// recorded. The runs *not* yet held, in `T.SN` space, are in the
    /// caller's scratch buffer for it to extract and offer again — chunks
    /// stay chunks under splitting — once it has dealt with the overlapped
    /// positions.
    Overlap,
    /// The span disagrees with framing already seen (two stop positions, or
    /// data past the stop): a reassembly error (Table 1).
    Inconsistent,
}

/// What outlives a delivered TPDU, heap-free: enough to classify late
/// retransmissions exactly as the full tracker would have, plus the verified
/// code the transcript queries read (its digest is `code.digest()`).
#[derive(Clone, Debug)]
pub(crate) struct Done {
    /// Elements absorbed, which for a verified TPDU is also one past its
    /// last `T.SN`-space element: every span the tracker accepted was
    /// absorbed, or the group failed.
    pub(crate) elements: u64,
    pub(crate) code: Wsc2,
}

/// The records of delivered TPDUs, sorted by start. TPDUs mostly verify in
/// order, so a delivery appends and a lookup past the newest record is one
/// comparison; anything else is a binary search, and an out-of-order
/// delivery or a reset moves the records above it. Delivered TPDUs own
/// disjoint element ranges (a chunk landing on another TPDU's elements
/// condemns its own), so the records' ends ascend with their starts.
#[derive(Debug, Default)]
pub(crate) struct Delivered(Vec<(u64, Done)>);

impl Delivered {
    /// Where the record at `start` is (`Ok`), or where it would go (`Err`).
    fn position(&self, start: u64) -> Result<usize, usize> {
        match self.0.last() {
            Some(&(last, _)) if last >= start => self.0.binary_search_by_key(&start, |&(s, _)| s),
            _ => Err(self.0.len()),
        }
    }

    /// The record of the TPDU delivered at `start`.
    pub(crate) fn get(&self, start: u64) -> Option<&Done> {
        let at = self.position(start).ok()?;
        Some(&self.0[at].1)
    }

    /// Records the TPDU delivered at `start`, which must be absent, and
    /// returns `watermark` carried on through it when it starts there: each
    /// record from the new one on that starts where the watermark stands,
    /// and holds an element, moves the watermark to its end. Records do not
    /// overlap, so the one at the new watermark, if any, is the next.
    pub(crate) fn insert(&mut self, start: u64, done: Done, mut watermark: u64) -> u64 {
        let found = self.position(start);
        debug_assert!(found.is_err(), "{start} is already delivered");
        let (Ok(at) | Err(at)) = found;
        self.0.insert(at, (start, done));
        if start == watermark {
            for (s, d) in &self.0[at..] {
                if *s != watermark || d.elements == 0 {
                    break;
                }
                watermark += d.elements;
            }
        }
        watermark
    }

    /// Drops the record at `start`; true when there was one.
    pub(crate) fn remove(&mut self, start: u64) -> bool {
        let found = self.position(start);
        if let Ok(at) = found {
            self.0.remove(at);
        }
        found.is_ok()
    }

    /// Drops the records that lie wholly below `base` — a prefix, since
    /// their ends ascend — and returns how many went.
    pub(crate) fn release(&mut self, base: u64) -> usize {
        let n = self
            .0
            .iter()
            .take_while(|(s, d)| s + d.elements <= base)
            .count();
        self.0.drain(..n);
        debug_assert!(self.0.iter().all(|(s, d)| s + d.elements > base));
        n
    }

    /// `(start, record)` for the records whose elements `[start, start +
    /// elements)` meet `[lo, hi)`, in start order: a binary search on the
    /// ascending ends, then a scan while the starts lie below `hi`.
    pub(crate) fn meeting(&self, lo: u64, hi: u64) -> impl Iterator<Item = (u64, &Done)> {
        let at = self.0.partition_point(|(s, d)| s + d.elements <= lo);
        self.0[at..]
            .iter()
            .take_while(move |&&(s, _)| s < hi)
            .map(|(s, d)| (*s, d))
    }

    /// The starts at or above `from`, in order.
    pub(crate) fn starts_from(&self, from: u64) -> impl ExactSizeIterator<Item = u64> + '_ {
        let at = self.0.partition_point(|&(s, _)| s < from);
        self.0[at..].iter().map(|&(s, _)| s)
    }

    /// `(start, record)` for every record, in start order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u64, &Done)> {
        self.0.iter().map(|(s, d)| (*s, d))
    }

    pub(crate) fn clear(&mut self) {
        self.0.clear();
    }

    pub(crate) fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }
}

/// Per-TPDU tracking and verification state. What every TPDU of the
/// connection shares — the invariant's layout — the receiver keeps once and
/// passes in.
#[derive(Debug)]
pub(crate) struct TpduEngine {
    tracker: PduTracker,
    inv: InvariantState,
    /// `(X.ID, C.SN − X.SN)` of the first external PDU the TPDU carries
    /// (Table 1 consistency check) — the only one, for a TPDU cut from one
    /// external frame, so the common check hashes nothing.
    x_first: Option<(u32, u32)>,
    /// `C.SN − X.SN` of every further external PDU id. Not allocated until
    /// a TPDU carries a second `X.ID`; a recycled shell keeps it, cleared.
    /// Boxed on purpose: 8 B in every group slot instead of a 48 B table
    /// that only a TPDU spanning several external PDUs ever fills.
    #[allow(clippy::box_collection)]
    x_more: Option<Box<HashMap<u32, u32>>>,
    ed: Option<[u8; 8]>,
    /// Out once: `Ok` when the ED comparison passed, else the first failure
    /// (sticky).
    verdict: Option<Result<(), FailureReason>>,
}

impl TpduEngine {
    pub(crate) fn new(layout: &InvariantLayout) -> Self {
        TpduEngine {
            tracker: PduTracker::new(),
            inv: InvariantState::new(layout).expect("layout validated at framer"),
            x_first: None,
            x_more: None,
            ed: None,
            verdict: None,
        }
    }

    /// Re-arms the engine for another TPDU. Every container is cleared but
    /// keeps its capacity (the tracker's interval set, the spill table), so
    /// a pooled engine opens its next TPDU without allocating.
    pub(crate) fn clear(&mut self) {
        self.tracker.clear();
        self.inv.reset();
        self.x_first = None;
        if let Some(x_more) = &mut self.x_more {
            x_more.clear();
        }
        self.ed = None;
        self.verdict = None;
    }

    /// The TPDU's verdict, once one is out.
    pub(crate) fn verdict(&self) -> Option<Result<(), FailureReason>> {
        self.verdict
    }

    /// Virtual reassembly within the TPDU. Already-held positions are
    /// resolved *before* the invariant absorbs anything (§3.3): the gate is
    /// the allocation-free overlap probe, and only the (cold) duplicate path
    /// lists the uncovered runs — into `uncovered`, a buffer the receiver
    /// owns and reuses, so a flood of duplicates costs no allocation
    /// either. A degenerate empty chunk overlaps nothing yet carries
    /// nothing fresh; it takes that path too.
    pub(crate) fn track(
        &mut self,
        sn: u64,
        len: u64,
        st: bool,
        uncovered: &mut Vec<(u64, u64)>,
    ) -> Track {
        uncovered.clear();
        if len == 0 || self.tracker.overlap(sn, len) > 0 {
            self.tracker.uncovered_into(sn, len, uncovered);
            return Track::Overlap;
        }
        match self.tracker.offer(sn, len, st) {
            TrackEvent::Accepted => Track::Fresh,
            TrackEvent::Inconsistent => Track::Inconsistent,
            // The gate above already ruled an overlap out.
            TrackEvent::Duplicate => Track::Overlap,
        }
    }

    /// Takes a tracked chunk into the verification state: X-level
    /// consistency (`C.SN − X.SN` constant per external PDU: the first delta
    /// an `X.ID` brought is the one its later chunks must repeat), then the
    /// incremental end-to-end error detection under `layout`, which places
    /// `fold`, the payload's position-free fold.
    pub(crate) fn absorb(
        &mut self,
        layout: &InvariantLayout,
        h: &ChunkHeader,
        fold: (Gf32, Gf32),
    ) -> Result<(), FailureReason> {
        let x_delta = h.conn.sn.wrapping_sub(h.ext.sn);
        let (first_id, first_delta) = *self.x_first.get_or_insert((h.ext.id, x_delta));
        let held = if h.ext.id == first_id {
            first_delta
        } else {
            let x_more = self.x_more.get_or_insert_with(Box::default);
            *x_more.entry(h.ext.id).or_insert(x_delta)
        };
        if held != x_delta {
            return Err(FailureReason::Consistency);
        }
        self.inv
            .absorb_folded(layout, h, fold)
            .map_err(|e| match e {
                InvariantError::IdMismatch => FailureReason::EdMismatch,
                _ => FailureReason::BadChunk,
            })
    }

    /// Records the TPDU's ED chunk.
    pub(crate) fn set_ed(&mut self, digest: [u8; 8]) {
        self.ed = Some(digest);
    }

    /// True when the TPDU is virtually reassembled and its ED chunk is in.
    pub(crate) fn is_verifiable(&self) -> bool {
        self.tracker.is_complete() && self.ed.is_some()
    }

    /// The WSC-2 verdict, exactly once: `None` while the TPDU is incomplete
    /// or lacks its ED chunk, and again after any verdict.
    pub(crate) fn verify(&mut self) -> Option<Result<(), FailureReason>> {
        if self.verdict.is_some() || !self.tracker.is_complete() {
            return None;
        }
        let passed = self.inv.matches(self.ed?);
        self.verdict = Some(passed.then_some(()).ok_or(FailureReason::EdMismatch));
        self.verdict
    }

    /// Condemns the TPDU. Returns true when this is its first verdict — the
    /// caller counts and reports a failure exactly then.
    pub(crate) fn fail(&mut self, reason: FailureReason) -> bool {
        let first = self.verdict.is_none();
        if first {
            self.verdict = Some(Err(reason));
        }
        first
    }

    /// Elements the TPDU is known to span so far: what a failed TPDU is
    /// re-nacked over, and what an eviction frees. Every absorbed span was
    /// tracked first, so the tracked elements cover the absorbed ones.
    pub(crate) fn span(&self) -> u64 {
        self.tracker.covered()
    }

    /// The record a verified TPDU leaves behind. Every span the tracker
    /// accepted was absorbed, or the group would have failed, so the tracked
    /// elements are the absorbed ones.
    pub(crate) fn done(&self) -> Done {
        debug_assert_eq!(self.tracker.known_end(), Some(self.tracker.covered()));
        Done {
            elements: self.tracker.covered(),
            code: self.inv.code(),
        }
    }

    /// Substitutes `new` for the held bytes `old` of `size`-byte elements
    /// from `T.SN` `first` on (see [`InvariantState::patch_elements`]).
    pub(crate) fn patch(&mut self, size: u16, first: u64, old: &[u8], new: &[u8]) {
        self.inv.patch_elements(size, first, old, new);
    }

    /// Disjoint received runs (tracker occupancy).
    pub(crate) fn fragments(&self) -> usize {
        self.tracker.fragments()
    }

    /// The tracked runs, `T.SN` space: disjoint, non-adjacent and sorted.
    pub(crate) fn runs(&self) -> &[(u64, u64)] {
        self.tracker.runs()
    }

    /// Contiguous runs the invariant absorbed.
    pub(crate) fn absorbed_runs(&self) -> u64 {
        self.inv.absorbed_runs()
    }
}

/// The open TPDUs' contribution to an acknowledgment, appended to `gaps`
/// and `need_ed` and both sorted: a failed TPDU must come again whole, an incomplete one names
/// its precise missing ranges, a complete one without its digest asks for
/// the ED chunk alone. Verified TPDUs contribute nothing here (they are
/// SACKed or cumulative).
pub(crate) fn ack_parts<'a>(
    groups: impl Iterator<Item = (u64, &'a TpduEngine)>,
    gaps: &mut Vec<(u64, u64)>,
    need_ed: &mut Vec<u64>,
) {
    for (start, g) in groups {
        match g.verdict {
            Some(Ok(())) => {}
            Some(Err(_)) => gaps.push((start, start + g.span().max(1))),
            None => {
                let missing = g.tracker.missing().into_iter();
                gaps.extend(missing.map(|(lo, hi)| (start + lo, start + hi)));
                if g.tracker.is_complete() && g.ed.is_none() {
                    need_ed.push(start);
                }
            }
        }
    }
    gaps.sort_unstable();
    need_ed.sort_unstable();
}
