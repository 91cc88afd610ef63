//! The four workloads: their shapes, why each exists, and the inputs and
//! receive front-ends built from a seed.

use chunks_netsim::Profile;
use chunks_transport::{
    shard_of, ConnSpec, ConnectionDemux, ConnectionParams, DeliveryMode, Engine, ParallelReceiver,
    Receiver, SenderConfig,
};
use chunks_wsc::InvariantLayout;

/// Packets per `ingest_batch` call.
pub const BATCH: usize = 32;
/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 0xC0451;
/// Retransmission rounds after which an unrepaired TPDU counts as failed.
pub const MAX_REPAIR_ROUNDS: u32 = 8;

/// Which receive front-end a workload's arrivals are fed to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FrontEnd {
    /// One bare [`Receiver`] through `ingest_batch`.
    Serial,
    /// [`ConnectionDemux::ingest`] over a populated connection table.
    Demux,
    /// [`ParallelReceiver`] with [`Engine::Threads`].
    Parallel,
}

/// One workload's shape.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line).
    pub why: &'static str,
    /// Concurrent connections.
    pub conns: usize,
    /// Application bytes per connection.
    pub bytes_per_conn: usize,
    /// Elements (= bytes) per TPDU.
    pub tpdu_elements: u32,
    /// Path MTU the senders pack for.
    pub mtu: usize,
    /// Simulated network.
    pub profile: Profile,
    /// Receive front-end.
    pub front_end: FrontEnd,
}

/// The four workloads. `smoke` shrinks each to one short pass's worth of
/// traffic so the smoke test finishes in seconds in a debug build; smoke
/// numbers mean nothing and are never compared.
pub fn specs(smoke: bool) -> [Spec; 4] {
    let scale = |full: usize, small: usize| if smoke { small } else { full };
    [
        Spec {
            name: "bulk-clean",
            why: "byte-dominated: WSC-2 absorb, the GF fold and the delivery copy do the work; gf/wsc gains must show here, per-chunk core/vreasm gains must not",
            conns: 1,
            bytes_per_conn: scale(32 << 20, 256 << 10),
            tpdu_elements: 8192,
            mtu: 9000,
            profile: Profile::Clean,
            front_end: FrontEnd::Serial,
        },
        Spec {
            name: "small-frag",
            why: "chunk-dominated smallest-packet case: a router refragments to 176-byte frames, so validate/spans/decode, interval tracking and per-chunk glue dominate and headers set wire efficiency",
            conns: 1,
            bytes_per_conn: scale(8 << 20, 64 << 10),
            tpdu_elements: 512,
            mtu: 576,
            profile: Profile::Fragmenting,
            front_end: FrontEnd::Serial,
        },
        Spec {
            name: "many-flows-lossy",
            why: "4096 interleaved flows over a 4-way skewed path losing 3%: table lookups miss cache, gaps open and close, duplicates are rejected, and the sender must retransmit",
            conns: scale(4096, 64),
            bytes_per_conn: 8 << 10,
            tpdu_elements: 1024,
            mtu: 1500,
            profile: Profile::MultipathLossy,
            front_end: FrontEnd::Demux,
        },
        Spec {
            name: "parallel-reorder",
            why: "the threaded engine on the wall clock, spawn outside the window: 16 flows over an 8-way skewed path, where per-chunk channel handoff is the cost and serial-path changes must not hurt",
            conns: 16,
            bytes_per_conn: scale(2 << 20, 16 << 10),
            tpdu_elements: 8192,
            mtu: 9000,
            profile: Profile::Reorder,
            front_end: FrontEnd::Parallel,
        },
    ]
}

/// Worker threads for the parallel front-end on this host: one core stays
/// with the dispatcher. Results at different counts are not comparable.
pub fn workers() -> usize {
    nproc().saturating_sub(1).clamp(1, 3)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

impl Spec {
    /// Connection ids. The parallel workload picks ids that [`shard_of`]
    /// deals evenly onto 8 shards (hence onto 4, 2 and 1), like
    /// `experiments/parallel.rs::conn_ids`; the others count from 1.
    pub fn conn_ids(&self) -> Vec<u32> {
        if self.front_end != FrontEnd::Parallel {
            return (1..=self.conns as u32).collect();
        }
        let per_shard = self.conns.div_ceil(8);
        let mut dealt = [0usize; 8];
        let mut ids = Vec::with_capacity(self.conns);
        let mut candidate = 1u32;
        while ids.len() < self.conns {
            let shard = shard_of(candidate, 8);
            if dealt[shard] < per_shard {
                dealt[shard] += 1;
                ids.push(candidate);
            }
            candidate += 1;
        }
        ids
    }

    /// Connection parameters both ends agree on.
    pub fn params(&self, conn_id: u32) -> ConnectionParams {
        ConnectionParams {
            conn_id,
            elem_size: 1,
            initial_csn: 0,
            tpdu_elements: self.tpdu_elements,
        }
    }

    /// Invariant layout (fits the largest TPDU of any workload).
    pub fn layout(&self) -> InvariantLayout {
        InvariantLayout::with_data_symbols(1 << 15)
    }

    /// Sender configuration for one connection.
    pub fn sender_config(&self, conn_id: u32) -> SenderConfig {
        SenderConfig {
            params: self.params(conn_id),
            layout: self.layout(),
            mtu: self.mtu,
            min_tpdu_elements: 64,
            max_tpdu_elements: self.tpdu_elements,
        }
    }

    /// Application bytes over all connections.
    pub fn total_bytes(&self) -> u64 {
        (self.conns * self.bytes_per_conn) as u64
    }

    /// TPDUs each connection submits.
    pub fn tpdus_per_conn(&self) -> usize {
        self.bytes_per_conn.div_ceil(self.tpdu_elements as usize)
    }

    /// Room for the events one `BATCH` of packets can raise (a delivery per
    /// TPDU and the odd control event), so event buffers never grow.
    pub fn events_capacity(&self) -> usize {
        self.tpdus_per_conn() * 2 + 4 * BATCH
    }

    fn capacity_elements(&self) -> u64 {
        self.bytes_per_conn as u64 + 4 * self.tpdu_elements as u64
    }

    /// A receiver for one connection, every growth point pre-sized.
    pub fn receiver(&self, conn_id: u32) -> Receiver {
        let mut rx = Receiver::new(
            DeliveryMode::Immediate,
            self.params(conn_id),
            self.layout(),
            self.capacity_elements(),
        );
        let tpdus = self.tpdus_per_conn();
        rx.reserve(tpdus + 8, tpdus * 4 + 64);
        rx
    }

    /// A connection demultiplexer with every connection registered.
    pub fn demux(&self) -> ConnectionDemux {
        let mut demux = ConnectionDemux::new();
        for id in self.conn_ids() {
            demux.register(id, self.receiver(id));
        }
        demux
    }

    /// The threaded parallel receiver with every connection registered and
    /// reserved. Spawns `workers` threads; `finish()` joins them.
    pub fn parallel(&self, workers: usize) -> ParallelReceiver {
        let specs = self
            .conn_ids()
            .into_iter()
            .map(|id| {
                ConnSpec::new(
                    self.params(id),
                    self.layout(),
                    DeliveryMode::Immediate,
                    self.capacity_elements(),
                )
            })
            .collect();
        let mut pr = ParallelReceiver::new(workers, Engine::Threads, specs);
        let tpdus = self.tpdus_per_conn();
        pr.reserve(tpdus + 8, tpdus * 4 + 64);
        pr
    }
}

/// The application messages, one per connection, drawn from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// Connection ids, aligned with `messages`.
    pub ids: Vec<u32>,
    /// What each sender submits and each receiver must deliver.
    pub messages: Vec<Vec<u8>>,
    /// Test-only fault: the byte check compares the first connection
    /// against a copy of its message with one byte flipped, so it must fail.
    pub corrupt_expected: bool,
}

impl Inputs {
    /// Generates the messages for `spec` from `seed` (splitmix64 stream per
    /// connection: the same seed gives the same bytes).
    pub fn generate(spec: &Spec, seed: u64) -> Inputs {
        let ids = spec.conn_ids();
        let messages = ids
            .iter()
            .map(|&id| {
                let mut state = seed ^ ((id as u64) << 32) ^ 0x9E37_79B9_7F4A_7C15;
                let mut msg = vec![0u8; spec.bytes_per_conn];
                for word in msg.chunks_mut(8) {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    word.copy_from_slice(&z.to_le_bytes()[..word.len()]);
                }
                msg
            })
            .collect();
        Inputs {
            ids,
            messages,
            corrupt_expected: false,
        }
    }

    /// Bytes the message buffers hold (subtracted from heap readings).
    pub fn buffer_bytes(&self) -> u64 {
        self.messages.iter().map(|m| m.capacity() as u64).sum()
    }
}
