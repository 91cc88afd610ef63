//! Acknowledgment encoding for the error-control loop.
//!
//! Acks are ordinary control chunks, so they share packets with data
//! travelling the other way — chunks give piggybacking "without requiring
//! the explicit design of piggybacking into the error control protocol"
//! (Appendix A).

use std::borrow::Cow;

use bytes::Bytes;
use chunks_core::chunk::{Chunk, ChunkHeader};
use chunks_core::label::{ChunkType, FramingTuple};

/// Bytes of an encoded ack besides its entries: the cumulative point, the
/// three list counts and the pressure flag.
const FIXED_LEN: usize = 8 + 3 * 2 + 1;

/// Receiver feedback: a cumulative point, selectively-acknowledged TPDU
/// starts beyond it, and the precise element ranges still missing (so the
/// sender can retransmit *fragments*, not whole TPDUs — chunks make
/// sub-PDU retransmission natural because extracted sub-chunks are just
/// chunks, Appendix C).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct AckInfo {
    /// All elements below this connection-space index have been verified
    /// and delivered.
    pub cumulative: u64,
    /// Starts of TPDUs verified beyond the cumulative point (selective
    /// acknowledgment).
    pub sacks: Vec<u64>,
    /// Connection-space element ranges known to be missing (negative
    /// acknowledgment list for selective retransmission).
    pub gaps: Vec<(u64, u64)>,
    /// Starts of TPDUs whose data is complete but whose ED control chunk
    /// never arrived — the sender need only re-send the 8-byte digest.
    pub need_ed: Vec<u64>,
    /// Back-pressure: the receiver's resource budget is near exhaustion and
    /// repairs should be deferred, not hammered — retransmitting into a
    /// buffer that will shed the bytes is pure livelock.
    pub pressure: bool,
}

impl AckInfo {
    /// True when the TPDU spanning `[start, end)` is fully acknowledged by
    /// this ack — below the cumulative point or selectively acknowledged.
    pub fn acknowledges(&self, start: u64, end: u64) -> bool {
        end <= self.cumulative || self.sacks.contains(&start)
    }

    /// Appends the encoded ack payload to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.cumulative.to_be_bytes());
        out.extend_from_slice(&(self.sacks.len() as u16).to_be_bytes());
        for s in &self.sacks {
            out.extend_from_slice(&s.to_be_bytes());
        }
        out.extend_from_slice(&(self.gaps.len() as u16).to_be_bytes());
        for (lo, hi) in &self.gaps {
            out.extend_from_slice(&lo.to_be_bytes());
            out.extend_from_slice(&hi.to_be_bytes());
        }
        out.extend_from_slice(&(self.need_ed.len() as u16).to_be_bytes());
        for s in &self.need_ed {
            out.extend_from_slice(&s.to_be_bytes());
        }
        out.push(self.pressure as u8);
    }

    /// Decodes an ack payload.
    pub fn decode(buf: &[u8]) -> Option<AckInfo> {
        if buf.len() < 12 {
            return None;
        }
        let cumulative = u64::from_be_bytes(buf[..8].try_into().ok()?);
        let n = u16::from_be_bytes(buf[8..10].try_into().ok()?) as usize;
        let gaps_at = 10 + n * 8;
        if buf.len() < gaps_at + 2 {
            return None;
        }
        let sacks = (0..n)
            .map(|i| u64::from_be_bytes(buf[10 + i * 8..18 + i * 8].try_into().unwrap()))
            .collect();
        let g = u16::from_be_bytes(buf[gaps_at..gaps_at + 2].try_into().ok()?) as usize;
        let ed_at = gaps_at + 2 + g * 16;
        if buf.len() < ed_at + 2 {
            return None;
        }
        let gaps = (0..g)
            .map(|i| {
                let at = gaps_at + 2 + i * 16;
                (
                    u64::from_be_bytes(buf[at..at + 8].try_into().unwrap()),
                    u64::from_be_bytes(buf[at + 8..at + 16].try_into().unwrap()),
                )
            })
            .collect();
        let e = u16::from_be_bytes(buf[ed_at..ed_at + 2].try_into().ok()?) as usize;
        if buf.len() != ed_at + 2 + e * 8 + 1 {
            return None;
        }
        let need_ed = (0..e)
            .map(|i| {
                let at = ed_at + 2 + i * 8;
                u64::from_be_bytes(buf[at..at + 8].try_into().unwrap())
            })
            .collect();
        let pressure = match buf[ed_at + 2 + e * 8] {
            0 => false,
            1 => true,
            _ => return None,
        };
        Some(AckInfo {
            cumulative,
            sacks,
            gaps,
            need_ed,
            pressure,
        })
    }

    /// The ack cut down to encode in at most `max_len` bytes: the SACK, gap
    /// and `need_ed` entries farthest above the cumulative point go first.
    /// What a dropped entry said costs at most a redundant or whole-TPDU
    /// retransmission, or a gap left open a round longer; nothing is
    /// acknowledged that was not.
    pub(crate) fn within(&self, max_len: usize) -> Cow<'_, AckInfo> {
        let entries = self.sacks.len() + self.need_ed.len() + 2 * self.gaps.len();
        if FIXED_LEN + 8 * entries <= max_len {
            return Cow::Borrowed(self);
        }
        // Each entry by its place in connection space, with its size.
        let mut by_place: Vec<(u64, usize)> = self
            .sacks
            .iter()
            .chain(&self.need_ed)
            .map(|&s| (s, 8))
            .chain(self.gaps.iter().map(|&(lo, _)| (lo, 16)))
            .collect();
        by_place.sort_unstable();
        let mut room = max_len.saturating_sub(FIXED_LEN);
        // The nearest place whose entry no longer fits: it and all past it go.
        let cut = by_place
            .iter()
            .find(|&&(_, len)| match room.checked_sub(len) {
                Some(left) => {
                    room = left;
                    false
                }
                None => true,
            })
            .map_or(u64::MAX, |&(at, _)| at);
        Cow::Owned(AckInfo {
            cumulative: self.cumulative,
            sacks: self.sacks.iter().copied().filter(|&s| s < cut).collect(),
            gaps: self.gaps.iter().copied().filter(|g| g.0 < cut).collect(),
            need_ed: self.need_ed.iter().copied().filter(|&s| s < cut).collect(),
            pressure: self.pressure,
        })
    }

    /// Wraps the ack in a control chunk for `conn_id`. An ack longer than
    /// one chunk's 16-bit `SIZE` keeps the entries nearest its cumulative
    /// point.
    pub fn to_chunk(&self, conn_id: u32) -> Chunk {
        let mut payload = Vec::new();
        self.within(u16::MAX as usize).encode_into(&mut payload);
        Chunk::new(label(conn_id, payload.len()), Bytes::from(payload))
            .expect("ack chunk is consistent")
    }
}

/// The label of an ack chunk for `conn_id` whose payload is `len` bytes.
pub(crate) fn label(conn_id: u32, len: usize) -> ChunkHeader {
    ChunkHeader::control(
        ChunkType::Ack,
        len as u16,
        FramingTuple::new(conn_id, 0, false),
        FramingTuple::new(0, 0, false),
        FramingTuple::new(0, 0, false),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_empty_and_full() {
        for ack in [
            AckInfo::default(),
            AckInfo {
                cumulative: 1024,
                sacks: vec![2048, 4096, 1 << 40],
                gaps: vec![(1500, 1600), (3000, 3001)],
                need_ed: vec![4096],
                pressure: true,
            },
        ] {
            let mut buf = Vec::new();
            ack.encode_into(&mut buf);
            assert_eq!(AckInfo::decode(&buf), Some(ack.clone()));
            let c = ack.to_chunk(7);
            assert_eq!(c.header.ty, ChunkType::Ack);
            assert_eq!(AckInfo::decode(&c.payload), Some(ack));
        }
    }

    #[test]
    fn truncation_rejected() {
        let ack = AckInfo {
            cumulative: 5,
            sacks: vec![10],
            gaps: vec![(20, 30)],
            need_ed: vec![40],
            pressure: false,
        };
        let mut buf = Vec::new();
        ack.encode_into(&mut buf);
        assert_eq!(AckInfo::decode(&buf[..buf.len() - 1]), None);
        assert_eq!(AckInfo::decode(&buf[..4]), None);
        // The pressure byte is strictly 0 or 1.
        let mut junk = buf.clone();
        *junk.last_mut().unwrap() = 7;
        assert_eq!(AckInfo::decode(&junk), None);
    }

    #[test]
    fn an_ack_past_the_size_field_keeps_the_entries_nearest_the_cumulative_point() {
        // 70 000 SACKs encode to 560 KB; a control chunk's SIZE is 16 bits.
        let ack = AckInfo {
            cumulative: 10,
            sacks: (0..70_000u64).map(|i| 100 + 8 * i).collect(),
            gaps: vec![(20, 30)],
            need_ed: vec![50],
            pressure: true,
        };
        let c = ack.to_chunk(7);
        let kept = AckInfo::decode(&c.payload).expect("a well-formed ack");
        assert_eq!(c.payload.len(), u16::MAX as usize);
        assert_eq!((kept.cumulative, kept.pressure), (10, true));
        assert_eq!((&kept.gaps, &kept.need_ed), (&ack.gaps, &ack.need_ed));
        assert_eq!(kept.sacks.len(), (u16::MAX as usize - FIXED_LEN - 24) / 8);
        assert_eq!(kept.sacks[..], ack.sacks[..kept.sacks.len()]);
    }
}
