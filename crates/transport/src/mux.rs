//! TYPE-field demultiplexing of shared packets (Appendix A).
//!
//! "Packets are utilized more efficiently if multiple chunks can be carried
//! in a packet … this idea can be extended to packets that carry chunks
//! from multiple connections. Data, signaling information, and
//! acknowledgments can be combined in any combination" — which gives an
//! error-control protocol the efficiency of piggybacked acknowledgments
//! *without designing piggybacking into the protocol*. The send side needs
//! no multiplexer for that: chunks of any kind and connection share packets
//! through [`pack`](chunks_core::packet::pack), and a
//! [`Session`](crate::Session) puts its ack into the free room of its own
//! data packets.
//!
//! On the receive side, "chunks … can be demultiplexed via the TYPE field
//! and routed to the appropriate processing units"; [`ConnectionDemux`]
//! routes data and ED chunks to per-connection receivers, and acks and
//! signals to their handlers, in one pass.

use std::sync::Arc;

use chunks_core::label::ChunkType;
use chunks_core::packet::Packet;
use chunks_obs::{ObsSink, ShardSink};

use crate::ack::AckInfo;
use crate::conn::Signal;
use crate::receiver::{chunk_walk, Receiver, RxEvent, WireChunk};
use crate::table::{ConnTable, TableConfig};

/// Events a demultiplexer surfaces beyond per-connection receiver events.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DemuxEvent {
    /// A receiver event for a registered connection.
    Connection {
        /// The connection the event belongs to.
        conn_id: u32,
        /// The receiver event.
        event: RxEvent,
    },
    /// An acknowledgment arrived for a connection we send on.
    Ack {
        /// The acknowledged connection.
        conn_id: u32,
        /// The acknowledgment.
        ack: AckInfo,
    },
    /// A connection signal arrived.
    Signal(Signal),
    /// A chunk referenced a connection no receiver is registered for.
    UnknownConnection {
        /// The unknown `C.ID`.
        conn_id: u32,
    },
}

/// Routes the chunks of incoming packets by `TYPE` and `C.ID` in a single
/// pass: data/ED to the matching [`Receiver`], acks and signals out as
/// events.
///
/// Receivers live in a [`ConnTable`] — the open-addressed, lifecycle-managed
/// connection table — so the serial demux scales to millions of live
/// connections with pooled admission, LRU eviction, and capacity
/// back-pressure. [`Self::register`] and [`Self::receiver`] reach single
/// connections; [`Self::table`]/[`Self::table_mut`] expose the lifecycle
/// operations (admit, retire, idle sweep, stats). The walk and the `TYPE`
/// match beneath [`Self::ingest`] are the ones the parallel dispatcher runs.
#[derive(Debug, Default)]
pub struct ConnectionDemux {
    receivers: ConnTable,
    /// Chunks routed, by wire type byte (index = `ChunkType::to_u8`).
    pub routed: [u64; 5],
    /// Reused per-chunk event staging — keeps the steady state of
    /// [`Self::ingest`] allocation-free.
    scratch: Vec<RxEvent>,
}

impl ConnectionDemux {
    /// Creates an empty demultiplexer with an unbounded table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a demultiplexer over a table with the given sizing and
    /// eviction policy.
    pub fn with_table(cfg: TableConfig) -> Self {
        ConnectionDemux {
            receivers: ConnTable::new(cfg),
            routed: [0; 5],
            scratch: Vec::new(),
        }
    }

    /// Registers the receiver for a connection.
    pub fn register(&mut self, conn_id: u32, receiver: Receiver) {
        self.receivers.insert(conn_id, receiver, 0);
    }

    /// Access to a registered receiver.
    pub fn receiver(&self, conn_id: u32) -> Option<&Receiver> {
        self.receivers.get(conn_id)
    }

    /// Mutable access to a registered receiver.
    pub fn receiver_mut(&mut self, conn_id: u32) -> Option<&mut Receiver> {
        self.receivers.get_mut(conn_id)
    }

    /// Installs an observability sink on the connection table and on every
    /// currently registered receiver. When the sink exposes per-worker
    /// shard blocks ([`ObsSink::worker_shard`]), the demux records through
    /// its own shard — plain owner-writes on the hot path, folded into the
    /// root registry at the sink's flush barriers and on snapshot.
    /// Receivers admitted later inherit the sink through the caller's
    /// `reconfigure` closure, exactly as budgets and policies do.
    pub fn set_obs(&mut self, sink: Arc<dyn ObsSink>) {
        let sink = ShardSink::wrap(sink);
        self.receivers.set_obs(Arc::clone(&sink));
        for (_, rx) in self.receivers.iter_mut() {
            rx.set_obs(Arc::clone(&sink));
        }
    }

    /// The connection table: occupancy, stats, pressure.
    pub fn table(&self) -> &ConnTable {
        &self.receivers
    }

    /// Mutable table access for lifecycle operations: admission with pooled
    /// shells, explicit retirement, idle eviction sweeps.
    pub fn table_mut(&mut self) -> &mut ConnTable {
        &mut self.receivers
    }

    /// Packet ingest: one validation scan, then a streaming walk whose
    /// payloads are read in place in the packet's `Bytes`, each chunk routed
    /// by `TYPE` and `C.ID` — the serial twin of
    /// [`ParallelReceiver::ingest`](crate::parallel::ParallelReceiver::ingest),
    /// which walks and routes with the same code, and the entry the
    /// million-connection scale harness drives. A malformed chunk rejects the
    /// whole packet. Each data/ED chunk routed to a live receiver bumps that
    /// connection's LRU touch.
    ///
    /// Before the first chunk is handled, a pre-pass over the same walk
    /// hints every data/ED chunk's connection state into cache (see
    /// `Receiver::prefetch`): the `C.ID` at a fixed offset names a chunk's
    /// receiver before any of its state is read, so the packet's misses
    /// overlap instead of queueing behind one another.
    pub fn ingest(&mut self, packet: &Packet, now: u64, events: &mut Vec<DemuxEvent>) {
        let Ok(walk) = chunk_walk(packet) else {
            return;
        };
        for chunk in walk.clone() {
            let header = &chunk.header;
            if matches!(header.ty, ChunkType::Data | ChunkType::ErrorDetection) {
                if let Some(rx) = self.receivers.get(header.conn.id) {
                    rx.prefetch(&chunk);
                }
            }
        }
        for chunk in walk {
            match route(chunk, &mut self.routed) {
                Some(Route::Conn(chunk)) => {
                    let conn_id = chunk.header.conn.id;
                    let Some(rx) = self.receivers.lookup(conn_id, now) else {
                        events.push(DemuxEvent::UnknownConnection { conn_id });
                        continue;
                    };
                    self.scratch.clear();
                    rx.handle_wire_into(chunk, now, &mut self.scratch);
                    for event in self.scratch.drain(..) {
                        events.push(DemuxEvent::Connection { conn_id, event });
                    }
                }
                Some(Route::Ack { conn_id, ack }) => events.push(DemuxEvent::Ack { conn_id, ack }),
                Some(Route::Signal(s)) => events.push(DemuxEvent::Signal(s)),
                None => {}
            }
        }
    }
}

/// Where the `TYPE` field sends one chunk.
pub(crate) enum Route<'a> {
    /// A data or ED chunk, for the receiver of its `C.ID`.
    Conn(WireChunk<'a>),
    /// An acknowledgment for connection `conn_id`, decoded.
    Ack { conn_id: u32, ack: AckInfo },
    /// A connection signal, decoded.
    Signal(Signal),
}

/// The one `TYPE` match under both front-ends, [`ConnectionDemux`] and the
/// [`ParallelReceiver`](crate::parallel::ParallelReceiver) dispatcher:
/// counts the chunk in `routed` (indexed by wire type byte), decodes an ack
/// or signal payload in place, and names where the chunk goes. `None` for
/// padding and for a control payload that does not decode.
#[inline]
pub(crate) fn route<'a>(chunk: WireChunk<'a>, routed: &mut [u64; 5]) -> Option<Route<'a>> {
    let header = chunk.header;
    routed[header.ty.to_u8() as usize] += 1;
    match header.ty {
        ChunkType::Data | ChunkType::ErrorDetection => Some(Route::Conn(chunk)),
        ChunkType::Ack => AckInfo::decode(chunk.payload()).map(|ack| Route::Ack {
            conn_id: header.conn.id,
            ack,
        }),
        ChunkType::Signal => Signal::decode(chunk.payload()).map(Route::Signal),
        ChunkType::Padding => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::ConnectionParams;
    use crate::receiver::DeliveryMode;
    use crate::sender::{Sender, SenderConfig};
    use chunks_core::chunk::Chunk;
    use chunks_core::packet::{pack, unpack};
    use chunks_wsc::InvariantLayout;

    fn params(conn_id: u32) -> ConnectionParams {
        ConnectionParams {
            conn_id,
            elem_size: 1,
            initial_csn: 0,
            tpdu_elements: 8,
        }
    }

    fn layout() -> InvariantLayout {
        InvariantLayout::with_data_symbols(1024)
    }

    /// The chunks of a sender's first transmission.
    fn chunks(tx: &Sender) -> Vec<Chunk> {
        let packets = tx.packets_for_pending().unwrap();
        packets.iter().flat_map(|p| unpack(p).unwrap()).collect()
    }

    fn sender(conn_id: u32) -> Sender {
        Sender::new(SenderConfig {
            params: params(conn_id),
            layout: layout(),
            mtu: 1500,
            min_tpdu_elements: 2,
            max_tpdu_elements: 64,
        })
    }

    #[test]
    fn two_connections_share_packets() {
        let mut tx1 = sender(1);
        let mut tx2 = sender(2);
        tx1.submit_simple(b"alpha___", 0xA, false);
        tx2.submit_simple(b"beta____", 0xB, false);

        let packets = pack([chunks(&tx1), chunks(&tx2)].concat(), 1500).unwrap();
        assert_eq!(packets.len(), 1, "both connections share one envelope");

        let mut demux = ConnectionDemux::new();
        demux.register(
            1,
            Receiver::new(DeliveryMode::Immediate, params(1), layout(), 256),
        );
        demux.register(
            2,
            Receiver::new(DeliveryMode::Immediate, params(2), layout(), 256),
        );
        let mut events = Vec::new();
        demux.ingest(&packets[0], 0, &mut events);
        let delivered: Vec<u32> = events
            .iter()
            .filter_map(|e| match e {
                DemuxEvent::Connection {
                    conn_id,
                    event: RxEvent::TpduDelivered { .. },
                } => Some(*conn_id),
                _ => None,
            })
            .collect();
        assert_eq!(delivered, vec![1, 2]);
        assert_eq!(&demux.receiver(1).unwrap().app_data()[..8], b"alpha___");
        assert_eq!(&demux.receiver(2).unwrap().app_data()[..8], b"beta____");
    }

    #[test]
    fn acks_piggyback_on_data_packets() {
        // The reverse-direction node has data of its own to send plus an
        // ack for what it received: both ride one packet.
        let mut tx = sender(3);
        tx.submit_simple(b"reverse!", 0xC, false);
        let ack = AckInfo {
            cumulative: 512,
            sacks: vec![1024],
            gaps: vec![],
            need_ed: vec![],
            pressure: false,
        };
        let mut queue = chunks(&tx);
        queue.push(ack.to_chunk(9));
        let packets = pack(queue, 1500).unwrap();
        assert_eq!(packets.len(), 1, "ack costs no extra packet");

        let mut demux = ConnectionDemux::new();
        demux.register(
            3,
            Receiver::new(DeliveryMode::Immediate, params(3), layout(), 256),
        );
        let mut events = Vec::new();
        demux.ingest(&packets[0], 0, &mut events);
        assert!(events.iter().any(|e| matches!(
            e,
            DemuxEvent::Ack { conn_id: 9, ack: a } if a.cumulative == 512
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            DemuxEvent::Connection {
                conn_id: 3,
                event: RxEvent::TpduDelivered { .. }
            }
        )));
    }

    #[test]
    fn signals_routed_and_counted() {
        let sig = Signal::Establish(crate::conn::ConnectionParams {
            conn_id: 7,
            elem_size: 4,
            initial_csn: 0,
            tpdu_elements: 128,
        });
        let packets = pack(vec![sig.to_chunk()], 1500).unwrap();
        let mut demux = ConnectionDemux::new();
        let mut events = Vec::new();
        demux.ingest(&packets[0], 0, &mut events);
        assert_eq!(events, vec![DemuxEvent::Signal(sig)]);
        assert_eq!(demux.routed[ChunkType::Signal.to_u8() as usize], 1);
    }

    #[test]
    fn unknown_connection_reported() {
        let mut tx = sender(42);
        tx.submit_simple(b"lost____", 0xD, false);
        let packets = tx.packets_for_pending().unwrap();
        let mut demux = ConnectionDemux::new();
        let mut events = Vec::new();
        demux.ingest(&packets[0], 0, &mut events);
        assert!(events
            .iter()
            .any(|e| matches!(e, DemuxEvent::UnknownConnection { conn_id: 42 })));
    }

    #[test]
    fn a_replaced_or_dropped_receiver_hands_its_staged_bytes_back_to_the_pool() {
        use crate::budget::{GlobalBudget, ResourceBudget};
        use crate::frame::Framer;

        // A Reorder receiver handed the second of two TPDUs stages its 8
        // bytes in the shared pool until the first arrives.
        let pool = GlobalBudget::new(1 << 20);
        let tpdus = Framer::new(params(5), layout()).frame_simple(b"abcdefgh12345678", 0xF, false);
        let staged = || {
            let mut rx = Receiver::new(DeliveryMode::Reorder, params(5), layout(), 256)
                .with_budget(ResourceBudget::default().with_global(Arc::clone(&pool)));
            rx.handle_chunk_into(tpdus[1].chunks[0].clone(), 0, &mut Vec::new());
            assert_eq!(rx.stats.buffered_bytes, 8);
            rx
        };
        let mut demux = ConnectionDemux::new();
        demux.register(5, staged());
        assert_eq!(pool.held_bytes(), 8);
        demux.register(5, staged());
        assert_eq!(pool.held_bytes(), 8, "the replaced receiver's bytes");
        drop(demux);
        assert_eq!(pool.held_bytes(), 0, "the dropped receiver's bytes");
    }
}
