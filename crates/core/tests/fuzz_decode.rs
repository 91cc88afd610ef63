//! Adversarial-input tests: every decoder returns an error — never panics,
//! never overruns — on arbitrary bytes. (Network input is attacker
//! controlled; §4 is about corruption *detection*, but the parsers must
//! first survive it.)

use chunks_core::packet::{unpack, Packet};
use chunks_core::wire::{decode_chunk, decode_header};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decode_header_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = decode_header(&bytes);
    }

    #[test]
    fn decode_chunk_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = decode_chunk(&bytes);
    }

    #[test]
    fn unpack_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let packet = Packet { bytes: bytes.into() };
        let _ = unpack(&packet);
    }

    #[test]
    fn decoded_chunks_are_internally_consistent(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        // Whatever decodes successfully must satisfy the model invariants.
        if let Ok((chunk, used)) = decode_chunk(&bytes) {
            prop_assert!(used <= bytes.len());
            prop_assert_eq!(
                chunk.payload.len(),
                chunk.header.payload_len()
            );
            prop_assert!(chunk.header.validate().is_ok());
        }
    }
}
