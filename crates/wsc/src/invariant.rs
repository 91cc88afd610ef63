//! The fragmentation-invariant TPDU error-detection layout (Figures 5 & 6).
//!
//! End-to-end error detection over chunks must produce "an error detection
//! code value that is unaffected by the fragmentation procedure" (§4). The
//! invariant maps everything that needs protection to fixed positions in the
//! WSC-2 code space:
//!
//! ```text
//! position                      contents
//! e·spe .. e·spe+spe-1          data element with T.SN = e  (spe = ⌈SIZE/4⌉)
//! D                             T.ID          (D = data-symbol capacity)
//! D + 1                         C.ID
//! D + 2                         C.ST value (only when set; 0 ≡ unused)
//! 2·T.SN + D + 3, +4            (X.ID, X.ST) pair, encoded for the element
//!                               whose X.ST or T.ST bit is set (Figure 6)
//! ```
//!
//! Fields whose corruption surfaces as a *virtual reassembly error* (`TYPE`,
//! `LEN`, `SIZE`, `T.SN`, `T.ST`) are deliberately not in the code space;
//! `C.SN` and `X.SN` are protected by the consistency checks of Table 1
//! (`C.SN − T.SN` and `C.SN − X.SN` constant), which live in the transport.

use chunks_core::chunk::ChunkHeader;
use chunks_core::label::ChunkType;
use std::error::Error;
use std::fmt;

use crate::code::{Wsc2, MAX_SYMBOLS};
use crate::stream::Wsc2Stream;

/// Geometry of the invariant's code space.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct InvariantLayout {
    /// Number of symbol positions reserved for TPDU data. The paper assumes
    /// TPDU data limited to 16,384 32-bit symbols.
    pub data_symbols: u64,
}

impl Default for InvariantLayout {
    fn default() -> Self {
        InvariantLayout {
            data_symbols: 16_384,
        }
    }
}

impl InvariantLayout {
    /// Creates a layout with a custom data capacity.
    pub fn with_data_symbols(data_symbols: u64) -> Self {
        InvariantLayout { data_symbols }
    }

    /// Position of the `T.ID` symbol.
    pub fn tid_pos(&self) -> u64 {
        self.data_symbols
    }

    /// Position of the `C.ID` symbol.
    pub fn cid_pos(&self) -> u64 {
        self.data_symbols + 1
    }

    /// Position of the `C.ST` symbol.
    pub fn cst_pos(&self) -> u64 {
        self.data_symbols + 2
    }

    /// Start position of the `(X.ID, X.ST)` pair triggered by the element
    /// with TPDU sequence number `t_sn` (Figure 6: `2·T.SN + D + 3`).
    pub fn x_pair_pos(&self, t_sn: u32) -> u64 {
        2 * t_sn as u64 + self.data_symbols + 3
    }

    /// Highest position the layout can emit; must stay inside the WSC-2
    /// code space.
    pub fn max_pos(&self) -> u64 {
        self.x_pair_pos(u32::try_from(self.data_symbols - 1).unwrap_or(u32::MAX)) + 1
    }
}

/// Errors raised while absorbing chunks into the invariant.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum InvariantError {
    /// Only data chunks participate in the invariant.
    NotData(ChunkType),
    /// A data element landed past the layout's data capacity.
    DataOutOfRange {
        /// The offending element's TPDU sequence number.
        t_sn: u32,
        /// The layout's capacity in elements.
        capacity: u64,
    },
    /// Two chunks of the same TPDU disagreed on `T.ID` or `C.ID` — a header
    /// corruption surfaced before code comparison.
    IdMismatch,
    /// The layout itself would exceed the WSC-2 code space.
    LayoutTooLarge,
}

impl fmt::Display for InvariantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvariantError::NotData(t) => write!(f, "chunk type {t} not part of the invariant"),
            InvariantError::DataOutOfRange { t_sn, capacity } => {
                write!(f, "element T.SN {t_sn} outside data capacity {capacity}")
            }
            InvariantError::IdMismatch => write!(f, "chunks disagree on T.ID/C.ID"),
            InvariantError::LayoutTooLarge => write!(f, "layout exceeds WSC-2 code space"),
        }
    }
}

impl Error for InvariantError {}

/// Incrementally accumulates the invariant of one TPDU from its chunks,
/// arriving in any order and fragmented arbitrarily.
///
/// Built on [`Wsc2Stream`]: a chunk's elements occupy consecutive symbol
/// positions, so a chunk's data is absorbed as one contiguous run — one
/// backend fold over the payload bytes as they lie, whatever `SIZE` pads
/// each element to — plus the stream's cached cursor weight. When chunks
/// themselves arrive in order, the contiguity extends across chunk
/// boundaries too.
#[derive(Clone, Debug)]
pub struct TpduInvariant {
    layout: InvariantLayout,
    wsc: Wsc2Stream,
    ids: Option<(u32, u32)>, // (T.ID, C.ID), encoded exactly once
}

impl TpduInvariant {
    /// Creates an accumulator over `layout`.
    pub fn new(layout: InvariantLayout) -> Result<Self, InvariantError> {
        if layout.max_pos() >= MAX_SYMBOLS {
            return Err(InvariantError::LayoutTooLarge);
        }
        Ok(TpduInvariant {
            layout,
            wsc: Wsc2Stream::new(),
            ids: None,
        })
    }

    /// Creates an accumulator with the default 16,384-symbol layout.
    pub fn with_default_layout() -> Self {
        Self::new(InvariantLayout::default()).expect("default layout fits")
    }

    /// The layout in use.
    pub fn layout(&self) -> InvariantLayout {
        self.layout
    }

    /// Re-arms the accumulator for a new TPDU under the same layout.
    /// [`Wsc2Stream`] is plain `Copy` state, so a pooled receiver group can
    /// reset its invariant without touching the heap.
    pub fn reset(&mut self) {
        self.wsc = Wsc2Stream::new();
        self.ids = None;
    }

    /// Absorbs one data chunk of the TPDU.
    ///
    /// The caller (the transport's virtual reassembly) is responsible for
    /// rejecting duplicates first; absorbing a chunk twice cancels its
    /// contribution and the final comparison fails — by design (§3.3).
    pub fn absorb_chunk(
        &mut self,
        header: &ChunkHeader,
        payload: &[u8],
    ) -> Result<(), InvariantError> {
        if header.ty != ChunkType::Data {
            return Err(InvariantError::NotData(header.ty));
        }
        let spe = Wsc2::symbols_for_bytes(header.size as usize);
        let first = header.tpdu.sn as u64;
        let last = first + header.len as u64 - 1;
        if (last + 1) * spe > self.layout.data_symbols {
            return Err(InvariantError::DataOutOfRange {
                t_sn: header.tpdu.sn.wrapping_add(header.len - 1),
                capacity: self.layout.data_symbols / spe.max(1),
            });
        }

        // T.ID and C.ID: constant across the TPDU, encoded exactly once.
        match self.ids {
            None => {
                self.ids = Some((header.tpdu.id, header.conn.id));
                self.wsc.add_symbol(self.layout.tid_pos(), header.tpdu.id);
                self.wsc.add_symbol(self.layout.cid_pos(), header.conn.id);
            }
            Some(ids) => {
                if ids != (header.tpdu.id, header.conn.id) {
                    return Err(InvariantError::IdMismatch);
                }
            }
        }

        // C.ST: set at most once per TPDU, encoded as symbol value 1.
        if header.conn.st {
            self.wsc.add_symbol(self.layout.cst_pos(), 1);
        }

        // (X.ID, X.ST) pair: triggered by the chunk's last element when it
        // ends an external PDU or the TPDU (Figure 6). ST bits always ride
        // the last element, whose T.SN survives fragmentation.
        if header.ext.st || header.tpdu.st {
            let t_sn_last = header.tpdu.sn.wrapping_add(header.len - 1);
            let base = self.layout.x_pair_pos(t_sn_last);
            self.wsc.add_symbol(base, header.ext.id);
            self.wsc.add_symbol(base + 1, header.ext.st as u32);
        }

        // Data symbols at element-determined positions: order-independent
        // and unchanged by any Appendix C split. Each SIZE-byte element maps
        // to its own `spe` symbol positions (zero-padded), so the position of
        // a byte depends only on its element's T.SN — never on which chunk
        // carried it. Absorbed last so the stream cursor ends at the chunk's
        // final data symbol: the next in-order chunk continues contiguously.
        self.wsc
            .add_elements(first * spe, header.size as usize, payload);
        Ok(())
    }

    /// Replaces already-absorbed data: substitutes `new` for `old` at the
    /// element positions starting at T.SN `first` (both slices cover the
    /// same elements of `size` bytes each).
    ///
    /// GF(2^32) has characteristic 2, so absorbing `old` and then `new` at
    /// the same symbol positions cancels `old`'s contribution and adds `new`'s —
    /// the invariant ends exactly as if `new` had been absorbed in the
    /// first place. This is how a `LastWins` overlap policy keeps WSC-2 as
    /// the integrity authority: the invariant always describes the bytes
    /// actually held, and only the sender's ED value can bless them.
    pub fn patch_elements(&mut self, size: u16, first: u64, old: &[u8], new: &[u8]) {
        debug_assert_eq!(old.len(), new.len(), "patch must cover equal spans");
        let at = first * Wsc2::symbols_for_bytes(size as usize);
        self.wsc.add_elements(at, size as usize, old);
        self.wsc.add_elements(at, size as usize, new);
    }

    /// Folds another partial invariant of the **same TPDU**, accumulated
    /// over a disjoint set of chunks, into this one — the merge step that
    /// makes the invariant computable by independent workers.
    ///
    /// WSC-2 parities are sums, so data, `C.ST` and `(X.ID, X.ST)` symbols
    /// at disjoint positions add up exactly as a single accumulator would
    /// have produced. The one wrinkle is `T.ID`/`C.ID`: every partial that
    /// absorbed at least one chunk encoded them once, so folding two such
    /// partials cancels the pair (characteristic 2); this method re-adds one
    /// copy to restore the single encoding the one-shot pass produces.
    ///
    /// Partials that saw chunks disagreeing on `T.ID`/`C.ID` surface as
    /// [`InvariantError::IdMismatch`], exactly as a serial accumulator would
    /// have caught on the second chunk. Both partials must share the same
    /// layout.
    pub fn fold(&mut self, other: &TpduInvariant) -> Result<(), InvariantError> {
        debug_assert_eq!(
            self.layout, other.layout,
            "folded partials must share a layout"
        );
        match (self.ids, other.ids) {
            (Some(a), Some(b)) => {
                if a != b {
                    return Err(InvariantError::IdMismatch);
                }
                self.wsc.fold(&other.wsc);
                // Both partials contributed the (T.ID, C.ID) pair; the two
                // copies cancelled, so add a third to leave exactly one.
                self.wsc.add_symbol(self.layout.tid_pos(), a.0);
                self.wsc.add_symbol(self.layout.cid_pos(), a.1);
            }
            (None, Some(b)) => {
                self.wsc.fold(&other.wsc);
                self.ids = Some(b);
            }
            // `other` absorbed nothing: folding an empty accumulator.
            (_, None) => self.wsc.fold(&other.wsc),
        }
        Ok(())
    }

    /// Non-empty WSC-2 runs absorbed so far (see [`Wsc2Stream::runs`]) —
    /// the disorder tally a receiver reports as the `wsc.runs_per_tpdu`
    /// histogram when a group completes.
    pub fn absorbed_runs(&self) -> u64 {
        self.wsc.runs()
    }

    /// The accumulated WSC-2 value.
    pub fn code(&self) -> Wsc2 {
        self.wsc.code()
    }

    /// Wire digest of the accumulated value (the ED chunk payload).
    pub fn digest(&self) -> [u8; 8] {
        self.wsc.digest()
    }

    /// Compares against a received digest.
    pub fn matches(&self, digest: [u8; 8]) -> bool {
        self.wsc.digest() == digest
    }
}

/// Computes the invariant digest of a whole, unfragmented TPDU given as
/// chunks — the sender-side path.
pub fn tpdu_digest<'a, I>(layout: InvariantLayout, chunks: I) -> Result<[u8; 8], InvariantError>
where
    I: IntoIterator<Item = (&'a ChunkHeader, &'a [u8])>,
{
    let mut inv = TpduInvariant::new(layout)?;
    for (h, p) in chunks {
        inv.absorb_chunk(h, p)?;
    }
    Ok(inv.digest())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chunks_core::chunk::{byte_chunk, Chunk};
    use chunks_core::frag::split;
    use chunks_core::label::FramingTuple;

    fn tpdu_chunk(t_st: bool, x_st: bool) -> Chunk {
        byte_chunk(
            FramingTuple::new(0xA, 36, false),
            FramingTuple::new(0x51, 0, t_st),
            FramingTuple::new(0xC, 24, x_st),
            b"0123456",
        )
    }

    fn digest_of(chunks: &[Chunk]) -> [u8; 8] {
        let mut inv = TpduInvariant::with_default_layout();
        for c in chunks {
            inv.absorb_chunk(&c.header, &c.payload).unwrap();
        }
        inv.digest()
    }

    #[test]
    fn invariant_under_single_split() {
        let whole = tpdu_chunk(true, false);
        let base = digest_of(std::slice::from_ref(&whole));
        for at in 1..whole.header.len {
            let (a, b) = split(&whole, at).unwrap();
            assert_eq!(digest_of(&[a, b]), base, "split at {at}");
        }
    }

    #[test]
    fn invariant_under_split_any_order() {
        let whole = tpdu_chunk(true, true);
        let base = digest_of(std::slice::from_ref(&whole));
        let (a, rest) = split(&whole, 2).unwrap();
        let (b, c) = split(&rest, 3).unwrap();
        assert_eq!(digest_of(&[c.clone(), a.clone(), b.clone()]), base);
        assert_eq!(digest_of(&[b.clone(), c.clone(), a.clone()]), base);
        assert_eq!(digest_of(&[a, b, c]), base);
    }

    #[test]
    fn invariant_under_recursive_fragmentation() {
        let whole = tpdu_chunk(true, false);
        let base = digest_of(std::slice::from_ref(&whole));
        // Split into single elements.
        let mut pieces = vec![whole];
        loop {
            let mut next = Vec::new();
            let mut any = false;
            for p in pieces {
                if p.header.len > 1 {
                    let (a, b) = split(&p, 1).unwrap();
                    next.push(a);
                    next.push(b);
                    any = true;
                } else {
                    next.push(p);
                }
            }
            pieces = next;
            if !any {
                break;
            }
        }
        assert_eq!(pieces.len(), 7);
        assert_eq!(digest_of(&pieces), base);
    }

    #[test]
    fn payload_corruption_changes_digest() {
        let whole = tpdu_chunk(true, false);
        let mut bad = whole.clone();
        let mut raw = bad.payload.to_vec();
        raw[3] ^= 0x40;
        bad.payload = raw.into();
        assert_ne!(digest_of(&[whole]), digest_of(&[bad]));
    }

    #[test]
    fn id_corruption_changes_digest() {
        let whole = tpdu_chunk(true, false);
        for field in ["t_id", "c_id", "x_id"] {
            let mut bad = whole.clone();
            match field {
                "t_id" => bad.header.tpdu.id ^= 1,
                "c_id" => bad.header.conn.id ^= 1,
                _ => bad.header.ext.id ^= 1,
            }
            assert_ne!(
                digest_of(std::slice::from_ref(&whole)),
                digest_of(&[bad]),
                "{field} corruption must change the code"
            );
        }
    }

    #[test]
    fn cst_and_xst_corruption_change_digest() {
        let whole = tpdu_chunk(true, false);
        let mut c_st = whole.clone();
        c_st.header.conn.st = true;
        assert_ne!(digest_of(std::slice::from_ref(&whole)), digest_of(&[c_st]));

        // X.ST flipped while T.ST is set: detected via the encoded pair
        // (the case Figure 6 is careful about).
        let mut x_st = whole.clone();
        x_st.header.ext.st = true;
        assert_ne!(digest_of(&[whole]), digest_of(&[x_st]));
    }

    #[test]
    fn multiple_external_pdus_encode_each_xid_once() {
        // Figure 6: a TPDU containing pieces of three external PDUs A, B, C.
        // A and B end inside the TPDU (X.ST set); C is cut by the TPDU end
        // (T.ST set). Each X.ID must be encoded exactly once, so comparing
        // against a manual encoding of that expectation must match.
        let a = byte_chunk(
            FramingTuple::new(1, 0, false),
            FramingTuple::new(9, 0, false),
            FramingTuple::new(0xAA, 5, true), // external PDU A ends
            b"aa",
        );
        let b = byte_chunk(
            FramingTuple::new(1, 2, false),
            FramingTuple::new(9, 2, false),
            FramingTuple::new(0xBB, 0, true), // external PDU B ends
            b"bbb",
        );
        let c = byte_chunk(
            FramingTuple::new(1, 5, false),
            FramingTuple::new(9, 5, true), // TPDU ends inside external C
            FramingTuple::new(0xCC, 0, false),
            b"cc",
        );
        let layout = InvariantLayout::default();
        let dig = digest_of(&[a, b, c]);

        let mut manual = Wsc2::new();
        manual.add_symbol(layout.tid_pos(), 9);
        manual.add_symbol(layout.cid_pos(), 1);
        // SIZE = 1: element with T.SN = e is one byte, left-aligned in its
        // own symbol at position e.
        for (e, byte) in [
            (0u64, b'a'),
            (1, b'a'),
            (2, b'b'),
            (3, b'b'),
            (4, b'b'),
            (5, b'c'),
            (6, b'c'),
        ] {
            manual.add_symbol(e, (byte as u32) << 24);
        }
        // A's pair at element T.SN=1, B's at T.SN=4, C's at T.SN=6.
        manual.add_symbol(layout.x_pair_pos(1), 0xAA);
        manual.add_symbol(layout.x_pair_pos(1) + 1, 1);
        manual.add_symbol(layout.x_pair_pos(4), 0xBB);
        manual.add_symbol(layout.x_pair_pos(4) + 1, 1);
        manual.add_symbol(layout.x_pair_pos(6), 0xCC);
        manual.add_symbol(layout.x_pair_pos(6) + 1, 0);
        assert_eq!(dig, manual.digest());
    }

    #[test]
    fn rejects_control_chunks_and_overflow() {
        let mut inv = TpduInvariant::with_default_layout();
        let mut c = tpdu_chunk(false, false);
        c.header.ty = ChunkType::ErrorDetection;
        c.header.len = 1;
        assert!(matches!(
            inv.absorb_chunk(&c.header, &c.payload[..1]),
            Err(InvariantError::NotData(_))
        ));

        let mut small = TpduInvariant::new(InvariantLayout::with_data_symbols(4)).unwrap();
        let d = tpdu_chunk(false, false); // 7 elements > 4 capacity
        assert!(matches!(
            small.absorb_chunk(&d.header, &d.payload),
            Err(InvariantError::DataOutOfRange { .. })
        ));
    }

    #[test]
    fn id_mismatch_between_chunks_detected() {
        let whole = tpdu_chunk(true, false);
        let (a, mut b) = split(&whole, 3).unwrap();
        b.header.tpdu.id ^= 0xFF;
        let mut inv = TpduInvariant::with_default_layout();
        inv.absorb_chunk(&a.header, &a.payload).unwrap();
        assert_eq!(
            inv.absorb_chunk(&b.header, &b.payload),
            Err(InvariantError::IdMismatch)
        );
    }

    #[test]
    fn layout_too_large_rejected() {
        assert!(matches!(
            TpduInvariant::new(InvariantLayout::with_data_symbols(1 << 30)),
            Err(InvariantError::LayoutTooLarge)
        ));
    }

    #[test]
    fn multi_byte_elements_use_scaled_positions() {
        // SIZE = 8 elements occupy two symbols each.
        let payload: Vec<u8> = (0..16).collect();
        let c = Chunk::new(
            chunks_core::chunk::ChunkHeader::data(
                8,
                2,
                FramingTuple::new(1, 0, false),
                FramingTuple::new(2, 0, true),
                FramingTuple::new(3, 0, false),
            ),
            payload.clone().into(),
        )
        .unwrap();
        let layout = InvariantLayout::default();
        let dig = digest_of(&[c]);
        let mut manual = Wsc2::new();
        manual.add_symbol(layout.tid_pos(), 2);
        manual.add_symbol(layout.cid_pos(), 1);
        manual.add_bytes(0, &payload);
        manual.add_symbol(layout.x_pair_pos(1), 3);
        manual.add_symbol(layout.x_pair_pos(1) + 1, 0);
        assert_eq!(dig, manual.digest());
    }

    #[test]
    fn fold_of_partials_matches_one_shot() {
        let whole = tpdu_chunk(true, true);
        let base = digest_of(std::slice::from_ref(&whole));
        let (a, rest) = split(&whole, 2).unwrap();
        let (b, c) = split(&rest, 3).unwrap();
        // Three independent accumulators, one chunk each, folded in every
        // order — the shape a sharded receive pipeline produces.
        let parts: Vec<TpduInvariant> = [&a, &b, &c]
            .iter()
            .map(|ch| {
                let mut inv = TpduInvariant::with_default_layout();
                inv.absorb_chunk(&ch.header, &ch.payload).unwrap();
                inv
            })
            .collect();
        for order in [[0, 1, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]] {
            let mut acc = TpduInvariant::with_default_layout();
            for &i in &order {
                acc.fold(&parts[i]).unwrap();
            }
            assert_eq!(acc.digest(), base, "fold order {order:?}");
            assert!(acc.matches(base));
        }
    }

    #[test]
    fn fold_with_empty_partial_is_identity() {
        let whole = tpdu_chunk(true, false);
        let mut inv = TpduInvariant::with_default_layout();
        inv.absorb_chunk(&whole.header, &whole.payload).unwrap();
        let before = inv.digest();
        inv.fold(&TpduInvariant::with_default_layout()).unwrap();
        assert_eq!(inv.digest(), before);
        let mut empty = TpduInvariant::with_default_layout();
        empty.fold(&inv).unwrap();
        assert_eq!(empty.digest(), before);
    }

    #[test]
    fn fold_detects_id_disagreement() {
        let whole = tpdu_chunk(true, false);
        let (a, mut b) = split(&whole, 3).unwrap();
        b.header.conn.id ^= 0xF0;
        let mut pa = TpduInvariant::with_default_layout();
        pa.absorb_chunk(&a.header, &a.payload).unwrap();
        let mut pb = TpduInvariant::with_default_layout();
        pb.absorb_chunk(&b.header, &b.payload).unwrap();
        assert_eq!(pa.fold(&pb), Err(InvariantError::IdMismatch));
    }

    #[test]
    fn patch_elements_substitutes_data_in_place() {
        // Absorb a chunk, then patch elements [2, 5) to new bytes: the
        // digest must equal absorbing the patched payload directly — the
        // LastWins overlap-policy mechanism.
        let whole = tpdu_chunk(true, false);
        let mut inv = TpduInvariant::with_default_layout();
        inv.absorb_chunk(&whole.header, &whole.payload).unwrap();
        let old = &whole.payload[2..5];
        let new = b"XYZ";
        inv.patch_elements(whole.header.size, whole.header.tpdu.sn as u64 + 2, old, new);

        let mut patched = whole.clone();
        let mut raw = patched.payload.to_vec();
        raw[2..5].copy_from_slice(new);
        patched.payload = raw.into();
        assert_eq!(inv.digest(), digest_of(&[patched]));

        // Patching back restores the original digest (involution).
        inv.patch_elements(whole.header.size, whole.header.tpdu.sn as u64 + 2, new, old);
        assert_eq!(inv.digest(), digest_of(&[whole]));
    }

    #[test]
    fn patch_elements_handles_multi_symbol_elements() {
        let payload: Vec<u8> = (0..16).collect();
        let c = Chunk::new(
            chunks_core::chunk::ChunkHeader::data(
                8,
                2,
                FramingTuple::new(1, 0, false),
                FramingTuple::new(2, 0, true),
                FramingTuple::new(3, 0, false),
            ),
            payload.clone().into(),
        )
        .unwrap();
        let mut inv = TpduInvariant::with_default_layout();
        inv.absorb_chunk(&c.header, &c.payload).unwrap();
        let new = [0xEEu8; 8];
        inv.patch_elements(8, 1, &payload[8..16], &new);
        let mut raw = payload.clone();
        raw[8..16].copy_from_slice(&new);
        let patched = Chunk::new(c.header, raw.into()).unwrap();
        assert_eq!(inv.digest(), digest_of(&[patched]));
    }

    #[test]
    fn sender_helper_matches_incremental() {
        let whole = tpdu_chunk(true, false);
        let d1 = tpdu_digest(
            InvariantLayout::default(),
            [(&whole.header, &whole.payload[..])],
        )
        .unwrap();
        assert_eq!(d1, digest_of(&[whole]));
    }
}
