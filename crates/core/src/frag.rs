//! Fragmentation (Appendix C) and single-step reassembly (Appendix D).
//!
//! Splitting a chunk yields chunks, and merging adjacent chunks yields a
//! chunk — chunks *preserve all of their properties under fragmentation*
//! (§3.1). Consequently the receiver sees the same format no matter how many
//! fragmentation or repacking steps occurred in the network, and reassembly
//! is always a single step.

use crate::chunk::{Chunk, ChunkHeader};
use crate::error::CoreError;
use crate::label::Level;

/// Splits `chunk` into a leading fragment of `first_len` elements and a
/// trailing fragment with the remainder — the algorithm of Appendix C.
///
/// ```
/// use chunks_core::chunk::byte_chunk;
/// use chunks_core::label::FramingTuple;
/// use chunks_core::frag::{split, merge};
/// let c = byte_chunk(
///     FramingTuple::new(0xA, 36, false),
///     FramingTuple::new(0x51, 0, true),
///     FramingTuple::new(0xC, 24, false),
///     b"0123456",
/// );
/// let (head, tail) = split(&c, 4).unwrap();
/// assert_eq!(tail.header.conn.sn, 40);      // SNs advance
/// assert!(tail.header.tpdu.st && !head.header.tpdu.st); // ST rides the tail
/// assert_eq!(merge(&head, &tail).unwrap(), c);          // and merge inverts
/// ```
///
/// * Both fragments keep the original `TYPE`, `SIZE` and all three `ID`s.
/// * The leading fragment keeps the original `SN`s and clears every `ST`.
/// * The trailing fragment advances each `SN` by `first_len` and inherits
///   the original `ST` bits (only the chunk holding the last element may
///   carry them).
///
/// The payload is shared, not copied. Control chunks cannot be split
/// (`LEN = 1` always fails the range check).
pub fn split(chunk: &Chunk, first_len: u32) -> Result<(Chunk, Chunk), CoreError> {
    let (head_header, tail_header) = split_header(&chunk.header, first_len)?;
    let cut = first_len as usize * chunk.header.size as usize;
    let head = Chunk {
        header: head_header,
        payload: chunk.payload.slice(..cut),
    };
    let tail = Chunk {
        header: tail_header,
        payload: chunk.payload.slice(cut..),
    };
    Ok((head, tail))
}

/// The label half of [`split`]: the headers of the leading `first_len`
/// elements and of the remainder, for callers that cut payload bytes they
/// hold in some other form than a [`Chunk`].
pub fn split_header(
    header: &ChunkHeader,
    first_len: u32,
) -> Result<(ChunkHeader, ChunkHeader), CoreError> {
    let len = header.len;
    if first_len == 0 || first_len >= len {
        return Err(CoreError::SplitOutOfRange { at: first_len, len });
    }
    let head = ChunkHeader {
        len: first_len,
        conn: header.conn.head(),
        tpdu: header.tpdu.head(),
        ext: header.ext.head(),
        ..*header
    };
    let tail = ChunkHeader {
        len: len - first_len,
        conn: header.conn.tail(first_len),
        tpdu: header.tpdu.tail(first_len),
        ext: header.ext.tail(first_len),
        ..*header
    };
    Ok((head, tail))
}

/// True when `a` immediately precedes `b` per the Appendix D predicate:
/// identical `TYPE`, `SIZE` and `ID`s, and every `SN` of `b` continues `a`'s
/// run of elements.
pub fn can_merge(a: &ChunkHeader, b: &ChunkHeader) -> bool {
    a.ty == b.ty
        && a.size == b.size
        && Level::ALL
            .iter()
            .all(|&lvl| a.tuple(lvl).is_followed_by(a.len, b.tuple(lvl)))
}

/// Merges two adjacent chunks into one — the algorithm of Appendix D.
///
/// The result takes `a`'s `SN`s and `b`'s `ST` bits. Chunk reassembly works
/// in the network or at the receiver, any number of times, because the
/// result is again an ordinary chunk.
pub fn merge(a: &Chunk, b: &Chunk) -> Result<Chunk, CoreError> {
    let header = merge_header(&a.header, &b.header)?;
    // Must own: the two payloads are (in general) slices of different
    // buffers; a merged chunk needs one contiguous run, so this is the one
    // place reassembly genuinely gathers bytes.
    let mut payload = Vec::with_capacity(a.payload.len() + b.payload.len());
    payload.extend_from_slice(&a.payload);
    payload.extend_from_slice(&b.payload);
    Ok(Chunk {
        header,
        payload: payload.into(),
    })
}

/// The label half of [`merge`]: the header of `a` followed by `b`, for
/// callers whose payload bytes already lie contiguous.
pub fn merge_header(a: &ChunkHeader, b: &ChunkHeader) -> Result<ChunkHeader, CoreError> {
    if !can_merge(a, b) {
        return Err(CoreError::NotAdjacent);
    }
    Ok(ChunkHeader {
        len: a.len + b.len,
        conn: crate::label::FramingTuple {
            st: b.conn.st,
            ..a.conn
        },
        tpdu: crate::label::FramingTuple {
            st: b.tpdu.st,
            ..a.tpdu
        },
        ext: crate::label::FramingTuple {
            st: b.ext.st,
            ..a.ext
        },
        ..*a
    })
}

/// Extracts the sub-chunk covering elements `[offset, offset + len)` of
/// `chunk` — two applications of the Appendix C split.
///
/// Receivers use this to trim a partially-duplicate chunk (e.g. a
/// retransmission fragmented at different points) down to its new elements.
pub fn extract(chunk: &Chunk, offset: u32, len: u32) -> Result<Chunk, CoreError> {
    if len == 0 || offset + len > chunk.header.len {
        return Err(CoreError::SplitOutOfRange {
            at: offset + len,
            len: chunk.header.len,
        });
    }
    // Not a payload copy: `Chunk::clone` refcounts the shared buffer, and
    // the `split` calls below slice it — no bytes move in `extract`.
    let mut piece = chunk.clone();
    if offset > 0 {
        piece = split(&piece, offset)?.1;
    }
    if len < piece.header.len {
        piece = split(&piece, len)?.0;
    }
    Ok(piece)
}

/// Splits a chunk repeatedly so every piece's *wire length* (header plus
/// payload) fits within `mtu` bytes — emptying chunks from one envelope size
/// into another (§3.1, Figure 4).
///
/// Fails with [`CoreError::ElementExceedsMtu`] when even a single atomic
/// element plus header exceeds the MTU, since the `SIZE` field guarantees
/// atomic units are never split.
pub fn split_to_fit(chunk: Chunk, mtu: usize) -> Result<Vec<Chunk>, CoreError> {
    let header_len = crate::wire::WIRE_HEADER_LEN;
    let size = chunk.header.size as usize;
    if header_len + size > mtu {
        return Err(CoreError::ElementExceedsMtu {
            size: chunk.header.size,
            mtu,
        });
    }
    let max_elements = ((mtu - header_len) / size) as u32;
    let mut out = Vec::new();
    let mut rest = chunk;
    while rest.header.len > max_elements {
        let (head, tail) = split(&rest, max_elements)?;
        out.push(head);
        rest = tail;
    }
    out.push(rest);
    Ok(out)
}

/// A single-step reassembly pool: chunks are inserted in any order and
/// greedily merged with their neighbours.
///
/// Regardless of how many fragmentation steps the network performed, the
/// pool converges to the maximal merged chunks in one pass per insertion —
/// the paper's "chunks can be efficiently reassembled in a single step"
/// (§3.1). Insertion is keyed by TPDU sequence number.
#[derive(Debug, Default)]
pub struct ReassemblyPool {
    /// Non-overlapping chunks ordered by `T.SN`.
    segments: Vec<Chunk>,
    /// Count of merge operations performed (for the evaluation harness).
    merges: u64,
    /// Count of duplicate chunks rejected.
    duplicates: u64,
}

impl ReassemblyPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of merge operations performed so far.
    pub fn merge_count(&self) -> u64 {
        self.merges
    }

    /// Number of duplicate chunks rejected so far.
    pub fn duplicate_count(&self) -> u64 {
        self.duplicates
    }

    /// Inserts a chunk, merging with adjacent neighbours where the
    /// Appendix D predicate allows. Exact duplicates (same `T.SN` start) are
    /// rejected and counted.
    pub fn insert(&mut self, chunk: Chunk) {
        let sn = chunk.header.tpdu.sn;
        let pos = self.segments.partition_point(|c| c.header.tpdu.sn < sn);
        if self
            .segments
            .get(pos)
            .is_some_and(|c| c.header.tpdu.sn == sn)
        {
            self.duplicates += 1;
            return;
        }
        self.segments.insert(pos, chunk);
        // Try to merge with the successor first (indices stay valid), then
        // with the predecessor.
        if pos + 1 < self.segments.len() {
            if let Ok(merged) = merge(&self.segments[pos], &self.segments[pos + 1]) {
                self.segments[pos] = merged;
                self.segments.remove(pos + 1);
                self.merges += 1;
            }
        }
        if pos > 0 {
            if let Ok(merged) = merge(&self.segments[pos - 1], &self.segments[pos]) {
                self.segments[pos - 1] = merged;
                self.segments.remove(pos);
                self.merges += 1;
            }
        }
    }

    /// Current maximal segments in `T.SN` order.
    pub fn segments(&self) -> &[Chunk] {
        &self.segments
    }

    /// True when the pool holds exactly one chunk that starts at `T.SN = 0`
    /// and carries the TPDU stop bit — the whole PDU is reassembled.
    pub fn is_complete(&self) -> bool {
        self.segments.len() == 1
            && self.segments[0].header.tpdu.sn == 0
            && self.segments[0].header.tpdu.st
    }

    /// Removes and returns the reassembled PDU when complete.
    pub fn take_complete(&mut self) -> Option<Chunk> {
        if self.is_complete() {
            Some(self.segments.remove(0))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::byte_chunk;
    use crate::label::FramingTuple;

    /// A LEN=9 SIZE=1 chunk mirroring Figure 2's TPDU Q run.
    fn figure2_chunk() -> Chunk {
        byte_chunk(
            FramingTuple::new(0xA, 36, false),
            FramingTuple::new(0x51, 0, true), // 'Q'
            FramingTuple::new(0xC, 24, false),
            b"0123456",
        )
    }

    #[test]
    fn split_matches_figure3() {
        // Figure 3 splits the LEN=7 chunk into LEN=4 + LEN=3.
        let c = figure2_chunk();
        let (a, b) = split(&c, 4).unwrap();
        // Leading: SNs (36, 0, 24), all STs cleared.
        assert_eq!(a.header.len, 4);
        assert_eq!(a.header.conn.sn, 36);
        assert_eq!(a.header.tpdu.sn, 0);
        assert_eq!(a.header.ext.sn, 24);
        assert!(!a.header.conn.st && !a.header.tpdu.st && !a.header.ext.st);
        // Trailing: SNs (40, 4, 28), STs (0, 1, 0) as in the figure.
        assert_eq!(b.header.len, 3);
        assert_eq!(b.header.conn.sn, 40);
        assert_eq!(b.header.tpdu.sn, 4);
        assert_eq!(b.header.ext.sn, 28);
        assert!(!b.header.conn.st && b.header.tpdu.st && !b.header.ext.st);
        // Payload split without copying.
        assert_eq!(&a.payload[..], b"0123");
        assert_eq!(&b.payload[..], b"456");
    }

    #[test]
    fn split_rejects_degenerate_points() {
        let c = figure2_chunk();
        assert!(split(&c, 0).is_err());
        assert!(split(&c, 7).is_err());
        assert!(split(&c, 8).is_err());
    }

    #[test]
    fn merge_is_inverse_of_split() {
        let c = figure2_chunk();
        for at in 1..c.header.len {
            let (a, b) = split(&c, at).unwrap();
            let merged = merge(&a, &b).unwrap();
            assert_eq!(merged, c, "split at {at}");
        }
    }

    #[test]
    fn merge_rejects_non_adjacent() {
        let c = figure2_chunk();
        let (a, b) = split(&c, 3).unwrap();
        assert_eq!(merge(&b, &a).unwrap_err(), CoreError::NotAdjacent);
        assert_eq!(merge(&a, &a).unwrap_err(), CoreError::NotAdjacent);
    }

    #[test]
    fn merge_requires_all_three_levels() {
        let c = figure2_chunk();
        let (a, mut b) = split(&c, 3).unwrap();
        // Same T adjacency but a different external PDU id: must not merge.
        b.header.ext.id = 0xDD;
        assert!(!can_merge(&a.header, &b.header));
    }

    #[test]
    fn split_to_fit_respects_mtu() {
        let c = figure2_chunk();
        let mtu = crate::wire::WIRE_HEADER_LEN + 2;
        let parts = split_to_fit(c.clone(), mtu).unwrap();
        assert_eq!(parts.len(), 4); // 2+2+2+1 elements
        for p in &parts {
            assert!(p.wire_len() <= mtu);
        }
        // And they reassemble to the original.
        let mut pool = ReassemblyPool::new();
        for p in parts {
            pool.insert(p);
        }
        assert!(pool.is_complete());
        assert_eq!(pool.take_complete().unwrap(), c);
    }

    #[test]
    fn split_to_fit_refuses_to_split_atomic_elements() {
        let mut c = figure2_chunk();
        // Re-type as an 8-byte-element chunk.
        c.header.size = 7;
        c.header.len = 1;
        let err = split_to_fit(c, crate::wire::WIRE_HEADER_LEN + 4).unwrap_err();
        assert!(matches!(err, CoreError::ElementExceedsMtu { size: 7, .. }));
    }

    #[test]
    fn pool_reassembles_out_of_order() {
        let c = figure2_chunk();
        let (a, rest) = split(&c, 2).unwrap();
        let (b, d) = split(&rest, 3).unwrap();
        let mut pool = ReassemblyPool::new();
        pool.insert(d);
        assert!(!pool.is_complete());
        pool.insert(a);
        assert!(!pool.is_complete());
        pool.insert(b);
        assert!(pool.is_complete());
        assert_eq!(pool.take_complete().unwrap(), c);
        assert_eq!(pool.merge_count(), 2);
    }

    #[test]
    fn pool_rejects_duplicates() {
        let c = figure2_chunk();
        let (a, b) = split(&c, 4).unwrap();
        let mut pool = ReassemblyPool::new();
        pool.insert(a.clone());
        pool.insert(a);
        assert_eq!(pool.duplicate_count(), 1);
        pool.insert(b);
        assert!(pool.is_complete());
    }

    #[test]
    fn pool_incomplete_without_stop_bit() {
        let c = figure2_chunk();
        let (a, _b) = split(&c, 4).unwrap();
        let mut pool = ReassemblyPool::new();
        pool.insert(a);
        assert!(!pool.is_complete());
        assert!(pool.take_complete().is_none());
        assert_eq!(pool.segments().len(), 1);
    }

    #[test]
    fn repeated_refragmentation_still_single_step() {
        // Fragment at three "routers" with shrinking MTUs, shuffle, and
        // reassemble once.
        let c = figure2_chunk();
        let h = crate::wire::WIRE_HEADER_LEN;
        let mut pieces = vec![c.clone()];
        for mtu in [h + 4, h + 2, h + 1] {
            pieces = pieces
                .into_iter()
                .flat_map(|p| split_to_fit(p, mtu).unwrap())
                .collect();
        }
        assert_eq!(pieces.len(), 7);
        pieces.reverse();
        let mut pool = ReassemblyPool::new();
        for p in pieces {
            pool.insert(p);
        }
        assert_eq!(pool.take_complete().unwrap(), c);
    }
}
