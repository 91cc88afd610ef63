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
use chunks_vreasm::{PduTracker, TrackEvent};
use chunks_wsc::{InvariantError, InvariantLayout, TpduInvariant, Wsc2};

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

/// Per-TPDU tracking and verification state.
#[derive(Debug)]
pub(crate) struct TpduEngine {
    tracker: PduTracker,
    inv: TpduInvariant,
    /// `(X.ID, C.SN − X.SN)` of the first external PDU the TPDU carries
    /// (Table 1 consistency check) — the only one, for a TPDU cut from one
    /// external frame, so the common check hashes nothing.
    x_first: Option<(u32, u32)>,
    /// `C.SN − X.SN` of every further external PDU id. Empty, and never
    /// allocated, until a TPDU carries a second `X.ID`.
    x_more: HashMap<u32, u32>,
    ed: Option<[u8; 8]>,
    /// Elements absorbed into the invariant.
    elements: u64,
    /// Out once: `Ok` when the ED comparison passed, else the first failure
    /// (sticky).
    verdict: Option<Result<(), FailureReason>>,
}

impl TpduEngine {
    pub(crate) fn new(layout: InvariantLayout) -> Self {
        TpduEngine {
            tracker: PduTracker::new(),
            inv: TpduInvariant::new(layout).expect("layout validated at framer"),
            x_first: None,
            x_more: HashMap::new(),
            ed: None,
            elements: 0,
            verdict: None,
        }
    }

    /// Re-arms the engine for another TPDU. Every container is cleared but
    /// keeps its capacity (the tracker's interval slab recycles its nodes),
    /// so a pooled engine opens its next TPDU without allocating.
    pub(crate) fn clear(&mut self) {
        self.tracker.clear();
        self.inv.reset();
        self.x_first = None;
        self.x_more.clear();
        self.ed = None;
        self.elements = 0;
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
    /// incremental end-to-end error detection.
    pub(crate) fn absorb(&mut self, h: &ChunkHeader, payload: &[u8]) -> Result<(), FailureReason> {
        let x_delta = h.conn.sn.wrapping_sub(h.ext.sn);
        let (first_id, first_delta) = *self.x_first.get_or_insert((h.ext.id, x_delta));
        let held = if h.ext.id == first_id {
            first_delta
        } else {
            *self.x_more.entry(h.ext.id).or_insert(x_delta)
        };
        if held != x_delta {
            return Err(FailureReason::Consistency);
        }
        self.inv.absorb_chunk(h, payload).map_err(|e| match e {
            InvariantError::IdMismatch => FailureReason::EdMismatch,
            _ => FailureReason::BadChunk,
        })?;
        self.elements += h.len as u64;
        Ok(())
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
    /// re-nacked over, and what an eviction frees.
    pub(crate) fn span(&self) -> u64 {
        self.elements.max(self.tracker.covered())
    }

    /// The record a verified TPDU leaves behind.
    pub(crate) fn done(&self) -> Done {
        debug_assert_eq!(self.tracker.known_end(), Some(self.elements));
        Done {
            elements: self.elements,
            code: self.inv.code(),
        }
    }

    /// Substitutes `new` for the held bytes `old` of `size`-byte elements
    /// from `T.SN` `first` on (see [`TpduInvariant::patch_elements`]).
    pub(crate) fn patch(&mut self, size: u16, first: u64, old: &[u8], new: &[u8]) {
        self.inv.patch_elements(size, first, old, new);
    }

    /// Disjoint received runs (tracker occupancy).
    pub(crate) fn fragments(&self) -> usize {
        self.tracker.fragments()
    }

    /// Contiguous runs the invariant absorbed.
    pub(crate) fn absorbed_runs(&self) -> u64 {
        self.inv.absorbed_runs()
    }
}

/// The open TPDUs' contribution to an acknowledgment, `(gaps, need_ed)`,
/// both sorted: a failed TPDU must come again whole, an incomplete one names
/// its precise missing ranges, a complete one without its digest asks for
/// the ED chunk alone. Verified TPDUs contribute nothing here (they are
/// SACKed or cumulative).
pub(crate) fn ack_parts<'a>(
    groups: impl Iterator<Item = (u64, &'a TpduEngine)>,
) -> (Vec<(u64, u64)>, Vec<u64>) {
    let mut gaps = Vec::new();
    let mut need_ed = Vec::new();
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
    (gaps, need_ed)
}
