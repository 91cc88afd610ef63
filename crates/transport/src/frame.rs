//! Sender-side framing: stream → labelled chunks + ED control chunk.
//!
//! Figure 1's situation is the input: one data stream carrying two framing
//! structures at once — TPDUs for error control and external (ALF) frames
//! for the application. The framer walks the stream, starting a new chunk
//! whenever *any* frame boundary occurs ("each time any frame boundary
//! occurs, a new chunk header is needed", Appendix A), and emits one
//! WSC-2 ED chunk per TPDU computed over the fragmentation invariant.
//!
//! The boundary arithmetic — `C.SN`, `T.SN` and `X.SN` progress, the `ST`
//! bits, the ALF frame left open across calls — exists once, in the
//! crate-private label walk (`Framer::walk`). It touches no payload byte:
//! it names byte ranges of the caller's slice. Two consumers sit on it:
//! [`Framer::frame_stream`], which copies each range out into an owned,
//! uncut [`Chunk`] (the reference form), and
//! [`Sender::submit`](crate::sender::Sender::submit), which copies each range
//! straight into the packet it will leave in.

use std::ops::Range;

use bytes::Bytes;
use chunks_core::chunk::{Chunk, ChunkHeader};
use chunks_core::label::{ChunkType, FramingTuple};
use chunks_wsc::{InvariantLayout, TpduInvariant};

use crate::conn::ConnectionParams;

/// An external (Application Layer Framing) frame: `len_elements` data
/// elements processed as one application unit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AlfFrame {
    /// External PDU identifier (`X.ID`).
    pub id: u32,
    /// Frame length in data elements.
    pub len_elements: u32,
}

/// One framed TPDU: its data chunks and its ED control chunk.
///
/// [`Framer::frame_stream`] cuts the data chunks at label boundaries only;
/// the TPDUs a [`Sender`](crate::sender::Sender) retains are cut further, at
/// the packet boundaries of their first transmission. Either way the chunks
/// cover the TPDU's elements exactly once, in order, and the digest does not
/// depend on the cut.
#[derive(Clone, Debug)]
pub struct Tpdu {
    /// Connection-space element index of the TPDU's first element,
    /// relative to the connection's initial `C.SN` (monotonic, unwrapped).
    pub start: u64,
    /// Explicit TPDU identifier used in the labels.
    pub t_id: u32,
    /// Number of data elements.
    pub elements: u32,
    /// The data chunks, in order.
    pub chunks: Vec<Chunk>,
    /// The error-detection control chunk (WSC-2 digest over the invariant).
    pub ed: Chunk,
}

impl Tpdu {
    /// All chunks including the ED chunk, in send order (the ED chunk
    /// follows the data as in Figure 3).
    pub fn all_chunks(&self) -> Vec<Chunk> {
        let mut v = self.chunks.clone();
        v.push(self.ed.clone());
        v
    }

    /// Payload bytes carried.
    pub fn payload_bytes(&self) -> usize {
        self.chunks.iter().map(|c| c.payload.len()).sum()
    }
}

/// Payload bytes of an ED chunk: the WSC-2 digest, one indivisible element.
pub(crate) const ED_LEN: usize = 8;

/// One step of the label walk.
pub(crate) enum Label {
    /// The open TPDU's next run of elements under one label: the header of
    /// the uncut data chunk and the bytes of the caller's data it carries.
    Data {
        /// The chunk's label.
        header: ChunkHeader,
        /// Its payload, as a range of the walked data.
        bytes: Range<usize>,
    },
    /// The open TPDU is complete.
    Close {
        /// Connection-space index of the TPDU's first element.
        start: u64,
        /// Its `T.ID`.
        t_id: u32,
        /// Its length in elements.
        elements: u32,
        /// The header of its ED control chunk.
        ed: ChunkHeader,
    },
}

/// Stateful framer for one connection's send direction.
#[derive(Debug)]
pub struct Framer {
    params: ConnectionParams,
    layout: InvariantLayout,
    /// Elements framed so far (drives `C.SN` and TPDU starts).
    sent_elements: u64,
    next_t_id: u32,
    /// The external frame the walk stands in, when it is not at a frame
    /// boundary: what is left of the frame, and the `X.SN` it resumes at.
    /// Carried across calls for a frame the data has not finished.
    open_alf: Option<(AlfFrame, u32)>,
}

impl Framer {
    /// Creates a framer.
    pub fn new(params: ConnectionParams, layout: InvariantLayout) -> Self {
        Framer {
            params,
            layout,
            sent_elements: 0,
            next_t_id: 1,
            open_alf: None,
        }
    }

    /// The connection parameters.
    pub fn params(&self) -> ConnectionParams {
        self.params
    }

    /// Changes the TPDU size used for *future* framing — the knob the
    /// sender's loss adapter turns (§3).
    pub fn set_tpdu_elements(&mut self, elements: u32) {
        assert!(elements > 0, "TPDU size must be positive");
        self.params.tpdu_elements = elements;
    }

    /// Elements framed so far.
    pub fn sent_elements(&self) -> u64 {
        self.sent_elements
    }

    /// Current `C.SN` (wrapping).
    pub fn current_csn(&self) -> u32 {
        self.params
            .initial_csn
            .wrapping_add(self.sent_elements as u32)
    }

    /// Frames `data` into TPDUs of at most `params.tpdu_elements` elements,
    /// one owned chunk per label boundary crossed.
    ///
    /// `alf` lists the external frames covering the data (an open frame from
    /// a previous call is continued first). `close` sets `C.ST` on the last
    /// element — the connection ends.
    ///
    /// # Panics
    /// Panics when `data` is not a whole number of elements, or the ALF
    /// frames do not cover exactly the data (callers control both).
    pub fn frame_stream(&mut self, data: &[u8], alf: &[AlfFrame], close: bool) -> Vec<Tpdu> {
        let mut out = Vec::new();
        let mut chunks = Vec::new();
        let mut inv = TpduInvariant::new(self.layout).expect("layout fits");
        self.walk(data.len(), alf, close, |label| match label {
            Label::Data { header, bytes } => {
                let chunk = Chunk::new(header, Bytes::copy_from_slice(&data[bytes]))
                    .expect("framer produces consistent chunks");
                // Folded as soon as copied, while the bytes are in cache.
                inv.absorb_chunk(&chunk.header, &chunk.payload)
                    .expect("framer stays inside the layout");
                chunks.push(chunk);
            }
            Label::Close {
                start,
                t_id,
                elements,
                ed,
            } => {
                let ed = Chunk::new(ed, Bytes::copy_from_slice(&inv.digest()))
                    .expect("ED chunk is consistent");
                inv.reset();
                out.push(Tpdu {
                    start,
                    t_id,
                    elements,
                    chunks: std::mem::take(&mut chunks),
                    ed,
                });
            }
        });
        out
    }

    /// The label walk: advances the framer over `data_len` bytes of stream
    /// and reports, in order, every uncut data chunk's label with the byte
    /// range it covers and every TPDU's end with its ED header. All of the
    /// TPDU × ALF boundary arithmetic is here and nowhere else; no payload
    /// byte is read.
    ///
    /// # Panics
    /// As [`Self::frame_stream`].
    pub(crate) fn walk(
        &mut self,
        data_len: usize,
        alf: &[AlfFrame],
        close: bool,
        mut emit: impl FnMut(Label),
    ) {
        let esize = self.params.elem_size as usize;
        assert_eq!(data_len % esize, 0, "data must be whole elements");
        let total_elements = (data_len / esize) as u64;
        let covered: u64 = alf.iter().map(|f| f.len_elements as u64).sum::<u64>()
            + self
                .open_alf
                .map(|(f, _)| f.len_elements as u64)
                .unwrap_or(0);
        // The last frame may extend past this call's data; it stays open and
        // is continued by the next call.
        assert!(covered >= total_elements, "ALF frames must cover the data");
        let mut upcoming = alf.iter().copied().filter(|f| f.len_elements > 0);

        let mut consumed = 0u64; // elements consumed from the data
        while consumed < total_elements {
            let tpdu_len = (self.params.tpdu_elements as u64).min(total_elements - consumed) as u32;
            let start = self.sent_elements;
            let t_id = self.next_t_id;
            self.next_t_id = self.next_t_id.wrapping_add(1);

            let mut t_off = 0u32; // T.SN cursor within the TPDU
            while t_off < tpdu_len {
                let (frame, x_sn) = self.open_alf.take().unwrap_or_else(|| {
                    let next = upcoming.next().expect("ALF frames cover the data");
                    (next, 0)
                });
                let take = frame.len_elements.min(tpdu_len - t_off);
                let ends_frame = take == frame.len_elements;
                let ends_tpdu = t_off + take == tpdu_len;
                let last_of_stream = consumed + (t_off + take) as u64 == total_elements;
                let c_sn = self
                    .params
                    .initial_csn
                    .wrapping_add((start + t_off as u64) as u32);
                let byte0 = (consumed + t_off as u64) as usize * esize;
                emit(Label::Data {
                    header: ChunkHeader::data(
                        self.params.elem_size,
                        take,
                        FramingTuple::new(self.params.conn_id, c_sn, close && last_of_stream),
                        FramingTuple::new(t_id, t_off, ends_tpdu),
                        FramingTuple::new(frame.id, x_sn, ends_frame),
                    ),
                    bytes: byte0..byte0 + take as usize * esize,
                });
                if !ends_frame {
                    let rest = AlfFrame {
                        len_elements: frame.len_elements - take,
                        ..frame
                    };
                    self.open_alf = Some((rest, x_sn + take));
                }
                t_off += take;
            }

            let start_csn = self.params.initial_csn.wrapping_add(start as u32);
            emit(Label::Close {
                start,
                t_id,
                elements: tpdu_len,
                ed: ChunkHeader::control(
                    ChunkType::ErrorDetection,
                    ED_LEN as u16,
                    FramingTuple::new(self.params.conn_id, start_csn, false),
                    FramingTuple::new(t_id, 0, false),
                    FramingTuple::new(0, 0, false),
                ),
            });
            consumed += tpdu_len as u64;
            self.sent_elements += tpdu_len as u64;
        }
        // A frame the data stopped short of stays open for the next call.
        if self.open_alf.is_none() {
            self.open_alf = upcoming.next().map(|f| (f, 0));
        }
    }

    /// Frames a stream as a single external frame spanning all of it.
    pub fn frame_simple(&mut self, data: &[u8], x_id: u32, close: bool) -> Vec<Tpdu> {
        let elements = (data.len() / self.params.elem_size as usize) as u32;
        self.frame_stream(
            data,
            &[AlfFrame {
                id: x_id,
                len_elements: elements,
            }],
            close,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chunks_core::label::Level;

    fn params(elem_size: u16, tpdu_elements: u32) -> ConnectionParams {
        ConnectionParams {
            conn_id: 0xA,
            elem_size,
            initial_csn: 100,
            tpdu_elements,
        }
    }

    fn small_layout() -> InvariantLayout {
        InvariantLayout::with_data_symbols(4096)
    }

    #[test]
    fn single_tpdu_single_frame() {
        let mut f = Framer::new(params(1, 16), small_layout());
        let tpdus = f.frame_simple(b"hello world!", 0xF, false);
        assert_eq!(tpdus.len(), 1);
        let t = &tpdus[0];
        assert_eq!(t.elements, 12);
        assert_eq!(t.chunks.len(), 1);
        let h = &t.chunks[0].header;
        assert_eq!(h.conn.sn, 100);
        assert_eq!(h.tpdu.sn, 0);
        assert!(h.tpdu.st && h.ext.st && !h.conn.st);
        assert_eq!(t.ed.header.ty, ChunkType::ErrorDetection);
        assert_eq!(t.ed.header.conn.sn, 100);
        assert_eq!(t.ed.header.tpdu.id, t.t_id);
    }

    #[test]
    fn tpdu_boundaries_advance_csn() {
        let mut f = Framer::new(params(1, 4), small_layout());
        let tpdus = f.frame_simple(&[0u8; 10], 0xF, false);
        assert_eq!(tpdus.len(), 3); // 4 + 4 + 2
        assert_eq!(tpdus[0].start, 0);
        assert_eq!(tpdus[1].start, 4);
        assert_eq!(tpdus[2].start, 8);
        assert_eq!(tpdus[1].chunks[0].header.conn.sn, 104);
        assert_eq!(tpdus[1].chunks[0].header.tpdu.sn, 0);
        // The external frame spans all TPDUs; X.SN continues.
        assert_eq!(tpdus[1].chunks[0].header.ext.sn, 4);
        assert!(!tpdus[0].chunks[0].header.ext.st);
        assert!(tpdus[2].chunks[0].header.ext.st);
        assert_eq!(f.sent_elements(), 10);
        assert_eq!(f.current_csn(), 110);
    }

    #[test]
    fn alf_boundaries_cut_chunks_figure1() {
        // Figure 1: a stream framed by two ALF frames inside one TPDU.
        let mut f = Framer::new(params(1, 10), small_layout());
        let tpdus = f.frame_stream(
            &[7u8; 10],
            &[
                AlfFrame {
                    id: 0xAA,
                    len_elements: 6,
                },
                AlfFrame {
                    id: 0xBB,
                    len_elements: 4,
                },
            ],
            false,
        );
        assert_eq!(tpdus.len(), 1);
        let chunks = &tpdus[0].chunks;
        assert_eq!(chunks.len(), 2, "a new chunk at each frame boundary");
        assert_eq!(chunks[0].header.ext.id, 0xAA);
        assert!(chunks[0].header.ext.st);
        assert!(!chunks[0].header.tpdu.st);
        assert_eq!(chunks[1].header.ext.id, 0xBB);
        assert_eq!(chunks[1].header.tpdu.sn, 6);
        assert!(chunks[1].header.tpdu.st && chunks[1].header.ext.st);
    }

    #[test]
    fn close_sets_cst_on_final_element_only() {
        let mut f = Framer::new(params(1, 4), small_layout());
        let tpdus = f.frame_simple(&[1u8; 8], 0xF, true);
        assert!(!tpdus[0].chunks.last().unwrap().header.conn.st);
        assert!(tpdus[1].chunks.last().unwrap().header.conn.st);
    }

    #[test]
    fn ed_digest_matches_receiver_side_invariant() {
        let mut f = Framer::new(params(2, 8), small_layout());
        let tpdus = f.frame_simple(&[9u8; 16], 0xF, false);
        let t = &tpdus[0];
        let mut inv = TpduInvariant::new(small_layout()).unwrap();
        for c in &t.chunks {
            inv.absorb_chunk(&c.header, &c.payload).unwrap();
        }
        assert_eq!(&t.ed.payload[..], &inv.digest());
    }

    #[test]
    fn alf_frame_spanning_calls_is_continued() {
        let mut f = Framer::new(params(1, 100), small_layout());
        let first = f.frame_stream(
            &[1u8; 4],
            &[AlfFrame {
                id: 0xCC,
                len_elements: 10,
            }],
            false,
        );
        assert!(!first[0].chunks[0].header.ext.st, "frame still open");
        let second = f.frame_stream(&[2u8; 6], &[], false);
        let h = &second[0].chunks[0].header;
        assert_eq!(h.ext.id, 0xCC);
        assert_eq!(h.ext.sn, 4, "X.SN continues across calls");
        assert!(h.ext.st);
    }

    #[test]
    fn csn_wraps_across_u32() {
        let mut f = Framer::new(
            ConnectionParams {
                conn_id: 1,
                elem_size: 1,
                initial_csn: u32::MAX - 2,
                tpdu_elements: 4,
            },
            small_layout(),
        );
        let tpdus = f.frame_simple(&[0u8; 8], 0xF, false);
        assert_eq!(tpdus[0].chunks[0].header.conn.sn, u32::MAX - 2);
        assert_eq!(tpdus[1].chunks[0].header.conn.sn, 1); // wrapped
        assert_eq!(tpdus[1].chunks[0].header.tuple(Level::Tpdu).sn, 0);
    }

    #[test]
    #[should_panic(expected = "whole elements")]
    fn partial_elements_rejected() {
        let mut f = Framer::new(params(4, 8), small_layout());
        f.frame_simple(&[0u8; 7], 1, false);
    }

    #[test]
    #[should_panic(expected = "cover the data")]
    fn mismatched_alf_cover_rejected() {
        let mut f = Framer::new(params(1, 8), small_layout());
        f.frame_stream(
            &[0u8; 5],
            &[AlfFrame {
                id: 1,
                len_elements: 3,
            }],
            false,
        );
    }
}
