//! Property-based tests of the chunk invariants: fragmentation closure,
//! merge/split inversion, codec round-trips and packing round-trips.

use bytes::Bytes;
use chunks_core::chunk::{Chunk, ChunkHeader};
use chunks_core::frag::{merge, split, split_to_fit, ReassemblyPool};
use chunks_core::label::FramingTuple;
use chunks_core::packet::{pack, unpack};
use chunks_core::wire::{decode_chunk, encode_chunk, WIRE_HEADER_LEN};
use proptest::prelude::*;

fn tuple_strategy() -> impl Strategy<Value = FramingTuple> {
    (any::<u32>(), any::<u32>(), any::<bool>())
        .prop_map(|(id, sn, st)| FramingTuple::new(id, sn, st))
}

/// Arbitrary data chunks with small element sizes and lengths.
fn chunk_strategy() -> impl Strategy<Value = Chunk> {
    (
        1u16..=8,
        1u32..=64,
        tuple_strategy(),
        tuple_strategy(),
        tuple_strategy(),
    )
        .prop_map(|(size, len, conn, tpdu, ext)| {
            let payload: Vec<u8> = (0..(size as usize * len as usize))
                .map(|i| (i * 31 + 7) as u8)
                .collect();
            Chunk::new(
                ChunkHeader::data(size, len, conn, tpdu, ext),
                Bytes::from(payload),
            )
            .unwrap()
        })
}

proptest! {
    #[test]
    fn split_then_merge_is_identity(c in chunk_strategy(), at_frac in 0.01f64..0.99) {
        prop_assume!(c.header.len >= 2);
        let at = ((c.header.len as f64 * at_frac) as u32).clamp(1, c.header.len - 1);
        let (a, b) = split(&c, at).unwrap();
        prop_assert_eq!(merge(&a, &b).unwrap(), c);
    }

    #[test]
    fn split_preserves_element_count_and_bytes(c in chunk_strategy(), at_frac in 0.01f64..0.99) {
        prop_assume!(c.header.len >= 2);
        let at = ((c.header.len as f64 * at_frac) as u32).clamp(1, c.header.len - 1);
        let (a, b) = split(&c, at).unwrap();
        prop_assert_eq!(a.header.len + b.header.len, c.header.len);
        let mut joined = a.payload.to_vec();
        joined.extend_from_slice(&b.payload);
        prop_assert_eq!(Bytes::from(joined), c.payload.clone());
        // ID constancy under fragmentation (Table 1 rows "changed: No").
        prop_assert_eq!(a.header.conn.id, c.header.conn.id);
        prop_assert_eq!(b.header.tpdu.id, c.header.tpdu.id);
        prop_assert_eq!(b.header.ext.id, c.header.ext.id);
        // C.SN - T.SN invariance (basis of the implicit T.ID transform).
        let delta = |h: &ChunkHeader| h.conn.sn.wrapping_sub(h.tpdu.sn);
        prop_assert_eq!(delta(&a.header), delta(&c.header));
        prop_assert_eq!(delta(&b.header), delta(&c.header));
    }

    #[test]
    fn wire_roundtrip(c in chunk_strategy()) {
        let mut buf = Vec::new();
        encode_chunk(&c, &mut buf);
        let (d, used) = decode_chunk(&buf).unwrap();
        prop_assert_eq!(used, buf.len());
        prop_assert_eq!(d, c);
    }

    #[test]
    fn split_to_fit_reassembles(c in chunk_strategy(), extra in 0usize..64) {
        let mtu = WIRE_HEADER_LEN + c.header.size as usize + extra;
        let pieces = split_to_fit(c.clone(), mtu).unwrap();
        for p in &pieces {
            prop_assert!(p.wire_len() <= mtu);
        }
        let mut pool = ReassemblyPool::new();
        // Insert in reverse to exercise out-of-order merging.
        for p in pieces.into_iter().rev() {
            pool.insert(p);
        }
        prop_assert_eq!(pool.segments().len(), 1);
        prop_assert_eq!(pool.segments()[0].clone(), c);
    }

    #[test]
    fn pack_unpack_roundtrip(cs in proptest::collection::vec(chunk_strategy(), 1..8), extra in 0usize..256) {
        let mtu = WIRE_HEADER_LEN + 8 + extra; // always fits one max-size element
        let packets = pack(cs.clone(), mtu).unwrap();
        let mut rx: Vec<Chunk> = Vec::new();
        for p in &packets {
            prop_assert!(p.len() <= mtu);
            rx.extend(unpack(p).unwrap());
        }
        // Received chunks concatenate (in order) back to the originals:
        // merge each original's fragments in sequence.
        let mut it = rx.into_iter();
        for original in cs {
            let mut acc = it.next().unwrap();
            while acc.header.len < original.header.len {
                acc = merge(&acc, &it.next().unwrap()).unwrap();
            }
            prop_assert_eq!(acc, original);
        }
        prop_assert!(it.next().is_none());
    }
}
