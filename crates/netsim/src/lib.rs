//! Deterministic discrete-event network simulator.
//!
//! The paper's experiments ran on the AURORA gigabit testbed over SONET
//! OC-3 ATM hardware we do not have; this crate simulates the behaviours
//! that matter to the protocol design instead (see DESIGN.md §3):
//!
//! * **message loss** — the first disordering source named in §1;
//! * **multipath skew** — "obtaining gigabit rates on a SONET OC-3 ATM
//!   network requires using eight 155 Mbps ATM connections in parallel;
//!   skew among the routes can cause packets to leave the network in a
//!   different order than that in which they entered" ([`MultipathLink`]);
//! * **route changes**, duplication and byte corruption;
//! * **in-network fragmentation** at routers with differing MTUs
//!   ([`ChunkRouter`] implements the three conversion methods of Figure 4;
//!   baseline routers implement the [`PacketTransform`] trait from their own
//!   crates).
//!
//! Everything is driven by a seeded RNG, so every experiment is exactly
//! reproducible.

//!
//! Adversarial (Byzantine) fault injection — targeted ack deletion, ED
//! duplication and on-the-wire label flips — lives in [`byzantine`]; the
//! reliability soak harness (`experiments soak`) is built on it.

#![deny(missing_docs)]

pub mod byzantine;
pub mod link;
pub mod obs;
pub mod path;
pub mod profiles;
pub mod router;

pub use byzantine::{ByzantineConfig, ByzantineRouter, ByzantineStats};
pub use link::MIN_REPACK_MTU;
pub use link::{Link, LinkConfig, LinkStats, MultipathLink, RouteChangeLink};
pub use obs::{frame_chunks, frame_labels, FrameChunk};
pub use path::{Hop, Path, PathBuilder};
pub use profiles::Profile;
pub use router::{ChunkRouter, PacketTransform, Passthrough, RefragPolicy, TurnerDropper};

/// One transform call's frames in a list of their own, for tests that look
/// at a call at a time.
#[cfg(test)]
pub(crate) trait Calls {
    fn ingest_at_one(&mut self, now: u64, frame: impl Into<bytes::Bytes>) -> Vec<bytes::Bytes>;
    fn ingest_one(&mut self, frame: impl Into<bytes::Bytes>) -> Vec<bytes::Bytes> {
        self.ingest_at_one(0, frame)
    }
    fn flush_all(&mut self) -> Vec<bytes::Bytes>;
}

#[cfg(test)]
impl<T: PacketTransform + ?Sized> Calls for T {
    fn ingest_at_one(&mut self, now: u64, frame: impl Into<bytes::Bytes>) -> Vec<bytes::Bytes> {
        let mut out = Vec::new();
        self.ingest(now, frame.into(), &mut out);
        out
    }

    fn flush_all(&mut self) -> Vec<bytes::Bytes> {
        let mut out = Vec::new();
        self.flush(0, &mut out);
        out
    }
}
