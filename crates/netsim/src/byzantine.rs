//! Adversarial in-network fault injection.
//!
//! The faults of [`crate::link`] are *oblivious* — loss, duplication and
//! corruption strike uniformly. A Byzantine middlebox is worse: it can
//! target exactly the chunks the protocol leans on. [`ByzantineRouter`]
//! models that adversary as a [`PacketTransform`]:
//!
//! * **selective ack drop** — acknowledgment control chunks vanish while
//!   data sails through, starving the sender of the feedback its reactive
//!   repair loop needs (the failure mode the RTO timer exists for);
//! * **ED duplication** — the 8-byte WSC-2 digest chunk is delivered twice,
//!   exercising receiver-side duplicate rejection of control chunks;
//! * **label flips** — a bit of a data chunk's `T.SN`, `C.ID` or `LEN`
//!   header field is flipped *on the wire*, after packing, producing
//!   exactly the Table-1 corruptions (misaddressing, misdelivery, length
//!   error) the paper's detection story is about;
//! * **overlap injection** — three attacks on the reassembly state machine
//!   itself: a data chunk duplicated at a *shifted offset* (its `C.SN` and
//!   `T.SN` advance together, so the copy lands inside its own TPDU group
//!   overlapping already-held positions with different bytes), an
//!   *overlapping rewrite* (identical labels, payload bits flipped — the
//!   classic fragment-overwrite evasion), and a *tiny-fragment flood*
//!   (bursts of single-element chunks, each opening a far-ahead group that
//!   never completes, to exhaust reassembly memory).
//!
//! All decisions come from a seeded [`StdRng`], so a soak run is exactly
//! reproducible from its seed. The overlap attacks draw from the RNG only
//! when their probability is non-zero, so enabling them does not perturb
//! the fault stream of a pre-existing configuration.

use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use chunks_core::label::ChunkType;
use chunks_core::packet::{pack, unpack, Packet};
use chunks_obs::{Event, Labels, ObsSink, SpanId, Stage};

use crate::link::MIN_REPACK_MTU;
use crate::router::PacketTransform;

/// Fault probabilities of a [`ByzantineRouter`] (each in `[0, 1]`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ByzantineConfig {
    /// Probability an Ack control chunk is silently deleted.
    pub ack_drop: f64,
    /// Probability an ErrorDetection chunk is delivered twice.
    pub ed_duplicate: f64,
    /// Probability a data chunk's `T.SN` field gets one bit flipped.
    pub flip_tsn: f64,
    /// Probability a data chunk's `C.ID` field gets one bit flipped.
    pub flip_cid: f64,
    /// Probability a data chunk's `LEN` field gets one bit flipped.
    pub flip_len: f64,
    /// Probability a data chunk is duplicated at a shifted offset: the
    /// copy's `C.SN`, `T.SN` and `X.SN` all advance by half the chunk's
    /// length, so it stays in its own TPDU group but overlaps the
    /// original's positions with different bytes.
    pub dup_shifted: f64,
    /// Probability a data chunk is re-sent with identical labels and every
    /// payload bit flipped — a full overlap whose bytes always differ.
    pub rewrite_overlap: f64,
    /// Probability a data chunk triggers a tiny-fragment flood burst.
    pub tiny_flood: f64,
    /// Single-element fragments per flood burst, each opening its own
    /// never-completing TPDU group.
    pub tiny_burst: u32,
    /// Connection-space element where the flood starts claiming groups
    /// (keep it inside the victim receiver's capacity).
    pub tiny_base: u32,
}

impl ByzantineConfig {
    /// An adversary that only deletes acks.
    pub fn ack_dropper(p: f64) -> Self {
        ByzantineConfig {
            ack_drop: p,
            ..Default::default()
        }
    }

    /// The shifted-duplicate overlap attack alone.
    pub fn shifted_duplicator(p: f64) -> Self {
        ByzantineConfig {
            dup_shifted: p,
            ..Default::default()
        }
    }

    /// The overlapping-rewrite attack alone.
    pub fn rewriter(p: f64) -> Self {
        ByzantineConfig {
            rewrite_overlap: p,
            ..Default::default()
        }
    }

    /// The tiny-fragment flood alone: each firing emits `burst`
    /// single-element fragments claiming groups from `base` upward.
    pub fn tiny_flooder(p: f64, burst: u32, base: u32) -> Self {
        ByzantineConfig {
            tiny_flood: p,
            tiny_burst: burst,
            tiny_base: base,
            ..Default::default()
        }
    }
}

/// Counters kept by a [`ByzantineRouter`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ByzantineStats {
    /// Ack chunks deleted.
    pub acks_dropped: u64,
    /// ED chunks duplicated.
    pub eds_duplicated: u64,
    /// `T.SN` fields flipped.
    pub tsn_flips: u64,
    /// `C.ID` fields flipped.
    pub cid_flips: u64,
    /// `LEN` fields flipped.
    pub len_flips: u64,
    /// Shifted-offset duplicates injected.
    pub shifted_dups: u64,
    /// Overlapping rewrites injected.
    pub rewrites: u64,
    /// Tiny fragments injected by flood bursts.
    pub tiny_fragments: u64,
    /// Frames that did not parse as chunk packets (passed through intact).
    pub unparsed: u64,
}

impl ByzantineStats {
    /// Total mutations of any kind.
    pub fn total(&self) -> u64 {
        self.acks_dropped
            + self.eds_duplicated
            + self.tsn_flips
            + self.cid_flips
            + self.len_flips
            + self.shifted_dups
            + self.rewrites
            + self.tiny_fragments
    }
}

/// A middlebox that mutates traffic adversarially (see module docs).
#[derive(Debug)]
pub struct ByzantineRouter {
    cfg: ByzantineConfig,
    rng: StdRng,
    /// Accumulated mutation counters.
    pub stats: ByzantineStats,
    obs: Arc<dyn ObsSink>,
    obs_on: bool,
    /// Virtual time of the frame being mutated (set by `ingest_at`).
    now: u64,
    /// Next connection-space element the tiny-fragment flood will claim
    /// (starts at `cfg.tiny_base`, strides by 2 so every fragment opens its
    /// own incomplete group).
    tiny_next: u32,
}

// Wire offsets inside a 32-byte chunk header (see `chunks_core::wire`).
const OFF_LEN: usize = 4;
const OFF_C_ID: usize = 8;
const OFF_T_SN: usize = 20;
const OFF_X_SN: usize = 28;
const HDR: usize = chunks_core::wire::WIRE_HEADER_LEN;

impl ByzantineRouter {
    /// Creates a router with a deterministic mutation stream.
    pub fn new(cfg: ByzantineConfig, seed: u64) -> Self {
        ByzantineRouter {
            tiny_next: cfg.tiny_base,
            cfg,
            rng: StdRng::seed_from_u64(seed),
            stats: ByzantineStats::default(),
            obs: chunks_obs::null(),
            obs_on: false,
            now: 0,
        }
    }

    /// Records a label flip against the sink, reading the chunk's labels
    /// *before* the mutation lands so the event names the identity the
    /// sender gave the chunk. Never touches the fault RNG — attaching a
    /// sink cannot change which faults fire.
    fn note_mutation(&mut self, frame: &[u8], h: usize, field: &'static str) {
        if !self.obs_on {
            return;
        }
        let be32 = |at: usize| {
            u32::from_be_bytes([frame[at], frame[at + 1], frame[at + 2], frame[at + 3]])
        };
        let labels = Labels::new(be32(h + OFF_C_ID), be32(h + OFF_T_SN), be32(h + OFF_X_SN));
        self.obs
            .event(self.now, Event::ChunkMutated { labels, field });
        self.obs.counter("netsim.byzantine.mutations", 1);
        let id = SpanId::new(labels, Stage::Mutate);
        self.obs.span_open(self.now, id);
        self.obs.span_close(self.now, id);
    }

    /// The chunk-level overlap attacks: returns the injected chunks that
    /// should travel right behind `c`. Each attack draws from the RNG only
    /// when its probability is non-zero, so a configuration without overlap
    /// attacks keeps its exact historical fault stream.
    fn overlap_attacks(&mut self, c: &chunks_core::chunk::Chunk) -> Vec<chunks_core::chunk::Chunk> {
        let mut evil = Vec::new();
        if self.cfg.dup_shifted > 0.0 && self.rng.random::<f64>() < self.cfg.dup_shifted {
            // Advance C.SN, T.SN and X.SN together: the group key
            // (C.SN − T.SN) is unchanged, so the copy overlaps its own
            // group's held positions with bytes from the wrong offset.
            let shift = (c.header.len / 2).max(1);
            let mut dup = c.clone();
            dup.header.conn.sn = dup.header.conn.sn.wrapping_add(shift);
            dup.header.tpdu.sn = dup.header.tpdu.sn.wrapping_add(shift);
            dup.header.ext.sn = dup.header.ext.sn.wrapping_add(shift);
            self.stats.shifted_dups += 1;
            evil.push(dup);
        }
        if self.cfg.rewrite_overlap > 0.0 && self.rng.random::<f64>() < self.cfg.rewrite_overlap {
            // Same labels, complemented payload: a full overlap whose
            // bytes always differ from what the receiver holds.
            let mut dup = c.clone();
            let mut raw = dup.payload.to_vec();
            for b in &mut raw {
                *b = !*b;
            }
            dup.payload = raw.into();
            self.stats.rewrites += 1;
            evil.push(dup);
        }
        if self.cfg.tiny_flood > 0.0 && self.rng.random::<f64>() < self.cfg.tiny_flood {
            use chunks_core::chunk::{Chunk, ChunkHeader};
            use chunks_core::label::FramingTuple;
            for _ in 0..self.cfg.tiny_burst {
                let sn = self.tiny_next;
                // Stride 2: a one-element claim then a hole, so every
                // fragment opens its own group and none ever completes.
                self.tiny_next = self.tiny_next.wrapping_add(2);
                let header = ChunkHeader::data(
                    c.header.size,
                    1,
                    FramingTuple::new(c.header.conn.id, sn, false),
                    FramingTuple::new(c.header.tpdu.id, 0, false),
                    FramingTuple::new(c.header.ext.id, sn, false),
                );
                let payload = vec![0x5Au8; c.header.size as usize];
                if let Ok(frag) = Chunk::new(header, payload.into()) {
                    self.stats.tiny_fragments += 1;
                    evil.push(frag);
                }
            }
        }
        evil
    }

    /// Flips one random bit in the 4-byte field at `at` of `frame`.
    fn flip_field(&mut self, frame: &mut [u8], at: usize) {
        let byte = at + self.rng.random_range(0..4usize);
        let bit = 1u8 << self.rng.random_range(0..8);
        frame[byte] ^= bit;
    }

    /// Walks the packed frame and applies label flips to data chunk
    /// headers, *after* packing so the mutation reaches the wire exactly as
    /// a broken router would emit it. Offsets are collected before any
    /// mutation so a flipped `LEN` cannot derail the walk itself.
    fn flip_labels(&mut self, frame: &mut [u8]) {
        let mut data_headers = Vec::new();
        let mut off = 0;
        while off + HDR <= frame.len() {
            let ty = frame[off];
            let size = u16::from_be_bytes([frame[off + 2], frame[off + 3]]) as usize;
            let len = u32::from_be_bytes([
                frame[off + 4],
                frame[off + 5],
                frame[off + 6],
                frame[off + 7],
            ]) as usize;
            if len == 0 {
                break; // end-of-packet marker
            }
            if ty == ChunkType::Data.to_u8() {
                data_headers.push(off);
            }
            off += HDR + size * len;
        }
        for h in data_headers {
            if self.rng.random::<f64>() < self.cfg.flip_tsn {
                self.note_mutation(frame, h, "tsn");
                self.flip_field(frame, h + OFF_T_SN);
                self.stats.tsn_flips += 1;
            }
            if self.rng.random::<f64>() < self.cfg.flip_cid {
                self.note_mutation(frame, h, "cid");
                self.flip_field(frame, h + OFF_C_ID);
                self.stats.cid_flips += 1;
            }
            if self.rng.random::<f64>() < self.cfg.flip_len {
                self.note_mutation(frame, h, "len");
                self.flip_field(frame, h + OFF_LEN);
                self.stats.len_flips += 1;
            }
        }
    }
}

impl PacketTransform for ByzantineRouter {
    fn ingest(&mut self, now: u64, frame: Bytes, out: &mut Vec<Bytes>) {
        self.now = now;
        let mtu = frame.len().max(MIN_REPACK_MTU);
        let packet = Packet { bytes: frame };
        let Ok(chunks) = unpack(&packet) else {
            // Already mangled beyond chunk syntax: forward it untouched and
            // let the endpoint's decoder prove it copes.
            self.stats.unparsed += 1;
            out.push(packet.bytes);
            return;
        };
        let mut keep = Vec::with_capacity(chunks.len() + 1);
        for c in chunks {
            match c.header.ty {
                ChunkType::Ack if self.rng.random::<f64>() < self.cfg.ack_drop => {
                    self.stats.acks_dropped += 1;
                }
                ChunkType::ErrorDetection if self.rng.random::<f64>() < self.cfg.ed_duplicate => {
                    self.stats.eds_duplicated += 1;
                    keep.push(c.clone());
                    keep.push(c);
                }
                ChunkType::Data => {
                    let evil = self.overlap_attacks(&c);
                    keep.push(c);
                    keep.extend(evil);
                }
                _ => keep.push(c),
            }
        }
        if keep.is_empty() {
            return;
        }
        let Ok(packets) = pack(keep, mtu) else {
            return;
        };
        for p in packets {
            // The packet `pack` just built is its buffer's only handle, so
            // this takes the buffer back rather than copying it.
            let mut f = Vec::from(p.bytes);
            self.flip_labels(&mut f);
            out.push(f.into());
        }
    }

    fn set_obs(&mut self, sink: Arc<dyn ObsSink>) {
        self.obs_on = sink.enabled();
        self.obs = sink;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Calls;
    use bytes::Bytes;
    use chunks_core::chunk::{byte_chunk, Chunk, ChunkHeader};
    use chunks_core::label::FramingTuple;

    fn data_chunk(c_sn: u32, t_sn: u32, payload: &[u8]) -> Chunk {
        byte_chunk(
            FramingTuple::new(0xC1, c_sn, false),
            FramingTuple::new(0, t_sn, false),
            FramingTuple::new(0xF, c_sn, false),
            payload,
        )
    }

    fn ack_chunk() -> Chunk {
        Chunk::new(
            ChunkHeader::control(
                ChunkType::Ack,
                12,
                FramingTuple::new(0xC1, 0, false),
                FramingTuple::new(0, 0, false),
                FramingTuple::new(0, 0, false),
            ),
            Bytes::from(vec![0u8; 12]),
        )
        .unwrap()
    }

    fn ed_chunk() -> Chunk {
        Chunk::new(
            ChunkHeader::control(
                ChunkType::ErrorDetection,
                8,
                FramingTuple::new(0xC1, 0, false),
                FramingTuple::new(0, 0, false),
                FramingTuple::new(0, 0, false),
            ),
            Bytes::from(vec![7u8; 8]),
        )
        .unwrap()
    }

    fn one_frame(chunks: Vec<Chunk>) -> Bytes {
        let packets = pack(chunks, 4096).unwrap();
        assert_eq!(packets.len(), 1);
        packets[0].bytes.clone()
    }

    #[test]
    fn ack_dropper_deletes_only_acks() {
        let mut r = ByzantineRouter::new(ByzantineConfig::ack_dropper(1.0), 1);
        let frame = one_frame(vec![data_chunk(0, 0, &[1; 8]), ack_chunk()]);
        let out = r.ingest_one(frame);
        assert_eq!(r.stats.acks_dropped, 1);
        let survivors = unpack(&Packet {
            bytes: out[0].clone(),
        })
        .unwrap();
        assert_eq!(survivors.len(), 1);
        assert_eq!(survivors[0].header.ty, ChunkType::Data);
    }

    #[test]
    fn ed_duplication_doubles_the_digest() {
        let cfg = ByzantineConfig {
            ed_duplicate: 1.0,
            ..Default::default()
        };
        let mut r = ByzantineRouter::new(cfg, 2);
        let out = r.ingest_one(one_frame(vec![data_chunk(0, 0, &[1; 8]), ed_chunk()]));
        let chunks: Vec<Chunk> = out
            .iter()
            .flat_map(|f| unpack(&Packet { bytes: f.clone() }).unwrap())
            .collect();
        let eds = chunks
            .iter()
            .filter(|c| c.header.ty == ChunkType::ErrorDetection)
            .count();
        assert_eq!(eds, 2);
        assert_eq!(r.stats.eds_duplicated, 1);
    }

    #[test]
    fn label_flip_changes_exactly_one_header_bit() {
        let cfg = ByzantineConfig {
            flip_tsn: 1.0,
            ..Default::default()
        };
        let mut r = ByzantineRouter::new(cfg, 3);
        let original = one_frame(vec![data_chunk(4, 4, &[9; 8])]);
        let out = r.ingest_one(original.clone());
        assert_eq!(out.len(), 1);
        assert_eq!(r.stats.tsn_flips, 1);
        let diff: u32 = original
            .iter()
            .zip(&out[0])
            .map(|(a, b)| (a ^ b).count_ones())
            .sum();
        assert_eq!(diff, 1, "exactly one bit of the wire image changed");
        // And the flipped bit sits inside the T.SN field (bytes 20..24).
        let at = original
            .iter()
            .zip(&out[0])
            .position(|(a, b)| a != b)
            .unwrap();
        assert!((OFF_T_SN..OFF_T_SN + 4).contains(&at));
    }

    #[test]
    fn len_flip_survives_to_the_wire() {
        let cfg = ByzantineConfig {
            flip_len: 1.0,
            ..Default::default()
        };
        let mut r = ByzantineRouter::new(cfg, 4);
        let out = r.ingest_one(one_frame(vec![data_chunk(0, 0, &[3; 16])]));
        assert_eq!(r.stats.len_flips, 1);
        // The emitted frame's LEN no longer matches its payload: the
        // receiver's decoder must reject it without panicking.
        let _ = unpack(&Packet {
            bytes: out[0].clone(),
        });
    }

    #[test]
    fn unparsed_frames_pass_through() {
        let mut r = ByzantineRouter::new(ByzantineConfig::ack_dropper(1.0), 5);
        let junk = vec![0xEEu8; 48];
        let out = r.ingest_one(junk.clone());
        assert_eq!(out, vec![junk]);
        assert_eq!(r.stats.unparsed, 1);
    }

    #[test]
    fn shifted_duplicate_keeps_the_group_key() {
        let mut r = ByzantineRouter::new(ByzantineConfig::shifted_duplicator(1.0), 6);
        let out = r.ingest_one(one_frame(vec![data_chunk(16, 4, &[9; 8])]));
        assert_eq!(r.stats.shifted_dups, 1);
        let chunks: Vec<Chunk> = out
            .iter()
            .flat_map(|f| unpack(&Packet { bytes: f.clone() }).unwrap())
            .collect();
        assert_eq!(chunks.len(), 2);
        let (orig, dup) = (&chunks[0], &chunks[1]);
        // Same group: C.SN − T.SN is preserved; the copy sits at a shifted
        // offset inside it, overlapping [20, 24) of the original's [16, 24).
        assert_eq!(
            orig.header.conn.sn - orig.header.tpdu.sn,
            dup.header.conn.sn - dup.header.tpdu.sn
        );
        assert_eq!(dup.header.conn.sn, 20);
        assert_eq!(dup.payload, orig.payload);
    }

    #[test]
    fn rewrite_overlap_flips_every_payload_bit() {
        let mut r = ByzantineRouter::new(ByzantineConfig::rewriter(1.0), 7);
        let out = r.ingest_one(one_frame(vec![data_chunk(0, 0, &[0xA5; 8])]));
        assert_eq!(r.stats.rewrites, 1);
        let chunks: Vec<Chunk> = out
            .iter()
            .flat_map(|f| unpack(&Packet { bytes: f.clone() }).unwrap())
            .collect();
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].header, chunks[1].header, "labels identical");
        assert!(chunks[1].payload.iter().all(|&b| b == 0x5A));
    }

    #[test]
    fn tiny_flood_opens_disjoint_far_ahead_groups() {
        let mut r = ByzantineRouter::new(ByzantineConfig::tiny_flooder(1.0, 4, 1000), 8);
        let frames: Vec<Bytes> = (0..2)
            .flat_map(|i| r.ingest_one(one_frame(vec![data_chunk(i * 8, 0, &[1; 8])])))
            .collect();
        assert_eq!(r.stats.tiny_fragments, 8);
        let frags: Vec<Chunk> = frames
            .iter()
            .flat_map(|f| unpack(&Packet { bytes: f.clone() }).unwrap())
            .filter(|c| c.header.len == 1)
            .collect();
        assert_eq!(frags.len(), 8);
        // Consecutive bursts keep striding: all group starts distinct.
        let sns: Vec<u32> = frags.iter().map(|c| c.header.conn.sn).collect();
        assert_eq!(sns, (0..8u32).map(|i| 1000 + 2 * i).collect::<Vec<_>>());
        assert!(frags.iter().all(|c| c.header.tpdu.sn == 0));
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = ByzantineConfig {
            ack_drop: 0.5,
            ed_duplicate: 0.5,
            flip_tsn: 0.3,
            flip_cid: 0.3,
            flip_len: 0.3,
            dup_shifted: 0.3,
            rewrite_overlap: 0.3,
            tiny_flood: 0.2,
            tiny_burst: 2,
            tiny_base: 4000,
        };
        let run = |seed| {
            let mut r = ByzantineRouter::new(cfg, seed);
            (0..50u32)
                .flat_map(|i| {
                    r.ingest_one(one_frame(vec![
                        data_chunk(i * 8, 0, &[i as u8; 8]),
                        ed_chunk(),
                        ack_chunk(),
                    ]))
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }
}
