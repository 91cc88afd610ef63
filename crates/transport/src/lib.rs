//! An end-to-end transport protocol built on chunks — the system the paper
//! sketches across §1–§4, assembled: Application Layer Framing on the X
//! level, TPDU error control on the T level, a non-multiplexed connection on
//! the C level, WSC-2 end-to-end error detection over the fragmentation
//! invariant, and a receiver that can process chunks the moment they arrive.
//!
//! * [`frame`] — the label walk that cuts an application stream (with ALF
//!   frame boundaries) into TPDUs of labelled chunks plus one ED control
//!   chunk each, and the framer that materialises it as owned chunks;
//! * [`sender`] — frames, folds and packetizes submitted data in one pass
//!   over it, keeps the packets it built as the retransmission store (the
//!   retained chunks are views cut at first-transmission packet
//!   boundaries, re-packed by a private packer whose continuation rule
//!   makes the wire bytes independent of the cut), retransmits *with
//!   identical identifiers* (§3.3), and adapts the TPDU size to observed
//!   loss (the paper's answer to Kent–Mogul);
//! * [`receiver`] — the three §3.3 strategies (immediate processing /
//!   reordering / physical reassembly) over one shared virtual-reassembly
//!   and verification engine, with data-touch accounting that makes the
//!   paper's "reassembly requires two accesses to each piece of data" claim
//!   measurable; split by stage into `receiver/{decode,verify,deliver}.rs`.
//!   Its application space is a ring the application reads and releases,
//!   so one receiver carries a connection of any length (§2);
//! * [`ack`] — acknowledgment encoding so sender and receiver close the
//!   error-control loop;
//! * [`mux`] — packets shared by multiple connections, data, signals and
//!   piggybacked acks (Appendix A), and TYPE-field demultiplexing;
//! * [`conn`] — connection establishment/teardown signalling that carries
//!   the parameters compressed headers rely on (Appendix A);
//! * [`rto`] — the reliability layer's timer half: deterministic
//!   virtual-clock RTO estimation (Jacobson SRTT/RTTVAR, Karn's rule),
//!   exponential backoff, bounded retry budgets, and the typed dead-peer
//!   verdict that replaces an ack-loss deadlock;
//! * [`parallel`] — the order-free parallel receive pipeline: arriving
//!   chunks fan out to shard-per-worker receivers by connection label, with
//!   a merge stage that folds per-worker verification transcripts; provably
//!   equivalent to the serial path (`tests/parallel_differential.rs`);
//! * [`table`] — the open-addressed, Fibonacci-hashed `C.ID → Receiver`
//!   table behind both demux paths: robin-hood probing, pooled receiver
//!   shells for allocation-free admission, deterministic virtual-clock LRU
//!   eviction, and capacity back-pressure (see `docs/SCALE.md`).
//!
//! The shortest closed loop — one sender's initial transmission processed
//! on arrival by one receiver:
//!
//! ```
//! use chunks_transport::{ConnectionParams, DeliveryMode, Receiver, Sender, SenderConfig};
//! use chunks_wsc::InvariantLayout;
//!
//! let params = ConnectionParams {
//!     conn_id: 1,
//!     elem_size: 1,
//!     initial_csn: 0,
//!     tpdu_elements: 32,
//! };
//! let layout = InvariantLayout::with_data_symbols(1024);
//! let mut tx = Sender::new(SenderConfig {
//!     params,
//!     layout,
//!     mtu: 256,
//!     min_tpdu_elements: 4,
//!     max_tpdu_elements: 64,
//! });
//! let mut rx = Receiver::new(DeliveryMode::Immediate, params, layout, 1024);
//! tx.submit_simple(b"chunks process on arrival", 0xA, false);
//! for packet in tx.packets_for_pending().unwrap() {
//!     rx.handle_packet(&packet, 0);
//! }
//! assert_eq!(&rx.app_data()[..25], b"chunks process on arrival");
//! ```

#![deny(missing_docs)]

pub mod ack;
pub mod budget;
pub mod conn;
pub mod frame;
pub mod mtu;
pub mod mux;
pub mod parallel;
pub mod receiver;
pub mod rto;
pub mod sender;
pub mod session;
pub mod table;

pub use ack::AckInfo;
pub use budget::{GlobalBudget, ResourceBudget};
pub use conn::{ConnectionParams, Signal};
pub use frame::{AlfFrame, Framer, Tpdu};
pub use mtu::MtuProbe;
pub use mux::{ConnectionDemux, DemuxEvent, PacketMux};
pub use parallel::{
    shard_of, ConnSpec, ControlEvent, ControlKind, DispatchStats, Engine, ParallelOutcome,
    ParallelReceiver, Schedule, StageTimings, SyncSnapshot,
};
pub use receiver::{DeliveryMode, FailureReason, Receiver, RxEvent, RxStats};
pub use rto::{DegradePolicy, RetransmitTimer, RtoConfig, TimerVerdict, TransportError};
pub use sender::{Sender, SenderConfig};
pub use session::{ReliabilityStats, Session};
pub use table::{AdmitOutcome, ConnSet, ConnTable, TableConfig, TableStats};
