//! # chunks
//!
//! A complete implementation of the data-labelling technique of
//! **D. C. Feldmeier, "A Data Labelling Technique for High-Performance
//! Protocol Processing and Its Consequences", ACM SIGCOMM 1993** — plus
//! every substrate its evaluation needs.
//!
//! A *chunk* is a completely self-describing piece of a PDU: a header with a
//! `TYPE`, an atomic element `SIZE`, a `LEN`, and three independent
//! `(ID, SN, ST)` framing tuples (connection / transport PDU / external
//! PDU). Self-description buys three things:
//!
//! 1. **Processing on arrival** — no reordering or reassembly buffers, one
//!    bus crossing per byte (Integrated Layer Processing);
//! 2. **Closure under fragmentation** — split and merge both yield ordinary
//!    chunks, so any number of in-network refragmentation steps still ends
//!    in single-step reassembly;
//! 3. **Fragmentation-invariant end-to-end error detection** — the WSC-2
//!    weighted-sum code over the paper's Figure 5/6 invariant.
//!
//! ## Crate map
//!
//! | module (re-export) | crate | contents |
//! |---|---|---|
//! | [`gf`] | `chunks-gf` | GF(2^32) arithmetic |
//! | [`wsc`] | `chunks-wsc` | WSC-2 code, TPDU invariant, CRC-32/Internet-checksum comparators |
//! | [`core`] | `chunks-core` | chunk model, the fixed-field wire codec, Appendix C/D algorithms, packets |
//! | [`vreasm`] | `chunks-vreasm` | virtual reassembly, reassembly-buffer lock-up model |
//! | [`netsim`] | `chunks-netsim` | deterministic lossy/reordering network simulator, Figure 4 routers |
//! | [`baseline`] | `chunks-baseline` | the Appendix B comparison systems (IP, XTP, AAL5, AAL4, HDLC, URP, VMTP, Delta-t) and the comparison table |
//! | [`transport`] | `chunks-transport` | framer, sender, the three §3.3 receivers, acks, signalling |
//!
//! ## Quickstart
//!
//! ```
//! use chunks::transport::{Sender, SenderConfig, Receiver, DeliveryMode, RxEvent};
//! use chunks::transport::ConnectionParams;
//! use chunks::wsc::InvariantLayout;
//!
//! let params = ConnectionParams {
//!     conn_id: 1, elem_size: 1, initial_csn: 0, tpdu_elements: 1024,
//! };
//! let layout = InvariantLayout::default();
//! let mut tx = Sender::new(SenderConfig {
//!     params, layout, mtu: 1500, min_tpdu_elements: 64, max_tpdu_elements: 16_384,
//! });
//! let mut rx = Receiver::new(DeliveryMode::Immediate, params, layout, 1 << 16);
//!
//! let message = b"data labelled for processing in any order";
//! tx.submit_simple(message, 7, false);
//! let mut events = Vec::new();
//! for packet in tx.packets_for_pending().unwrap() {
//!     rx.handle_packet_into(&packet, 0, &mut events);
//!     for event in events.drain(..) {
//!         if let RxEvent::TpduDelivered { start, elements } = event {
//!             println!("TPDU at {start} delivered: {elements} elements");
//!         }
//!     }
//! }
//! assert_eq!(&rx.app_data()[..message.len()], message);
//! ```

#![deny(missing_docs)]

pub mod experiments;

/// GF(2^32) finite-field arithmetic (substrate for WSC-2).
pub use chunks_gf as gf;

/// WSC-2 weighted sum code, the TPDU fragmentation invariant, and
/// comparator codes.
pub use chunks_wsc as wsc;

/// The chunk data model: labels, the fixed-field wire format,
/// fragmentation/reassembly, packets-as-envelopes. Appendix A's compressed
/// header forms are [`experiments::compress`]: no traffic sends them.
pub use chunks_core as core;

/// Virtual reassembly and the physical reassembly-buffer (lock-up) model.
pub use chunks_vreasm as vreasm;

/// Deterministic network simulator with multipath skew and chunk-aware
/// routers.
pub use chunks_netsim as netsim;

/// The Appendix B comparison systems (IP, XTP, AAL5, AAL4, HDLC, URP,
/// VMTP, Delta-t) and the qualitative comparison table.
pub use chunks_baseline as baseline;

/// The end-to-end chunk transport.
pub use chunks_transport as transport;

/// Position-keyed block encryption that works on disordered data (the
/// FELD 92 substrate behind the paper's §1 ILP argument).
pub use chunks_cipher as cipher;
